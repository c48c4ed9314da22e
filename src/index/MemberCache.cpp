//===- index/MemberCache.cpp - Cached lookup edges per type ---------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "index/MemberCache.h"

#include <cassert>

using namespace petal;

void MemberCache::warmAll() const {
  if (frozen())
    return;
  // Overlay: warm the local types only; the base layer was warmed before
  // any overlay attached.
  for (size_t T = NumBaseTypes; T != TS.numTypes(); ++T)
    edges(static_cast<TypeId>(T));
}

void MemberCache::freeze() const {
  if (frozen())
    return;
  warmAll();

  // In overlay mode the CSR covers local types only (slot T - NumBaseTypes);
  // base-type queries keep forwarding to the shared base arrays.
  size_t N = TS.numTypes() - NumBaseTypes;
  std::vector<uint32_t> Offs(N + 1, 0);
  size_t Total = 0;
  for (size_t T = 0; T != N; ++T) {
    Offs[T] = static_cast<uint32_t>(Total);
    Total += Cache[T].size();
  }
  assert(Total <= UINT32_MAX && "member edge count overflows CSR offsets");
  Offs[N] = static_cast<uint32_t>(Total);

  std::vector<LookupEdge> Data;
  Data.reserve(Total);
  for (size_t T = 0; T != N; ++T)
    Data.insert(Data.end(), Cache[T].begin(), Cache[T].end());

  EdgeData = std::move(Data);
  Offsets = std::move(Offs);
  EdgeV = EdgeData.data();
  NumEdges = EdgeData.size();
  NumTypesFrozen = N;
  // Publish OffV last: frozen() keys off it, and once it is non-null
  // edges() never touches the lazy representation again.
  OffV = Offsets.data();
  Cache.clear();
  Cache.shrink_to_fit();
  Valid.clear();
  Valid.shrink_to_fit();
}

void MemberCache::adoptFrozen(
    const LookupEdge *Edges, size_t EdgeCount, const uint32_t *Offs,
    size_t NumTypes, std::vector<size_t> FieldCountsIn,
    std::shared_ptr<const void> KeepAliveHandle) const {
  assert(!frozen() && "member cache already frozen");
  assert(!BaseCache && "snapshot tables adopt into the base layer, not overlays");
  assert(NumTypes == TS.numTypes() &&
         "snapshot member CSR sized for a different type population");
  assert(FieldCountsIn.size() == NumTypes && "field counts mis-sized");
  FieldCounts = std::move(FieldCountsIn);
  EdgeV = Edges;
  NumEdges = EdgeCount;
  NumTypesFrozen = NumTypes;
  KeepAlive = std::move(KeepAliveHandle);
  OffV = Offs;
  Cache.clear();
  Cache.shrink_to_fit();
  Valid.clear();
  Valid.shrink_to_fit();
}

Span<const LookupEdge> MemberCache::edges(TypeId T) const {
  // Base types delegate to the shared base cache: a document cannot add
  // members to a base type, so its edge list is exactly the base's.
  if (static_cast<size_t>(T) < NumBaseTypes)
    return BaseCache->edges(T);
  size_t Slot = static_cast<size_t>(T) - NumBaseTypes;

  if (frozen()) {
    assert(Slot < NumTypesFrozen && "bad TypeId");
    uint32_t B = OffV[Slot], E = OffV[Slot + 1];
    return Span<const LookupEdge>(EdgeV + B, E - B);
  }

  size_t NumLocal = TS.numTypes() - NumBaseTypes;
  if (Cache.size() < NumLocal) {
    Cache.resize(NumLocal);
    FieldCounts.resize(NumLocal, 0);
    Valid.resize(NumLocal, false);
  }
  if (Valid[Slot])
    return Cache[Slot];

  // visibleFields/visibleMethods run over the layered TypeSystem, so an
  // overlay type's edges include its inherited base members in exactly the
  // order a monolithic build would produce.
  std::vector<LookupEdge> Edges;
  for (FieldId F : TS.visibleFields(T)) {
    const FieldInfo &FI = TS.field(F);
    if (FI.IsStatic)
      continue;
    LookupEdge E;
    E.IsField = true;
    E.Field = F;
    E.ResultType = FI.Type;
    Edges.push_back(E);
  }
  FieldCounts[Slot] = Edges.size();

  for (MethodId M : TS.visibleMethods(T)) {
    const MethodInfo &MI = TS.method(M);
    if (MI.IsStatic || !MI.Params.empty() || MI.ReturnType == TS.voidType())
      continue;
    LookupEdge E;
    E.IsField = false;
    E.Method = M;
    E.ResultType = MI.ReturnType;
    Edges.push_back(E);
  }

  Cache[Slot] = std::move(Edges);
  Valid[Slot] = true;
  return Cache[Slot];
}

size_t MemberCache::memoryBytes() const {
  size_t Bytes = EdgeData.capacity() * sizeof(LookupEdge) +
                 Offsets.capacity() * sizeof(uint32_t) +
                 FieldCounts.capacity() * sizeof(size_t);
  for (const auto &V : Cache)
    Bytes += V.capacity() * sizeof(LookupEdge);
  return Bytes;
}

ReverseLookupEdges petal::reverseLookupEdges(const MemberCache &Members,
                                             size_t NumTypes,
                                             bool MethodsAllowed) {
  auto ForEachEdge = [&](auto &&Visit) {
    for (size_t T = 0; T != NumTypes; ++T) {
      TypeId From = static_cast<TypeId>(T);
      const auto Edges = Members.edges(From);
      size_t Limit =
          MethodsAllowed ? Edges.size() : Members.numFieldEdges(From);
      for (size_t I = 0; I != Limit; ++I)
        Visit(From, Edges[I].ResultType);
    }
  };
  ReverseLookupEdges Rev;
  Rev.Start.assign(NumTypes + 1, 0);
  ForEachEdge([&](TypeId, TypeId To) { ++Rev.Start[To + 1]; });
  for (size_t T = 0; T != NumTypes; ++T)
    Rev.Start[T + 1] += Rev.Start[T];
  Rev.Preds.resize(Rev.Start[NumTypes]);
  std::vector<uint32_t> Fill(Rev.Start.begin(), Rev.Start.end() - 1);
  ForEachEdge([&](TypeId From, TypeId To) { Rev.Preds[Fill[To]++] = From; });
  return Rev;
}

std::vector<int8_t> petal::lookupsToConvertible(const TypeSystem &TS,
                                                const ReverseLookupEdges &Rev,
                                                TypeId Target, int MaxDepth) {
  assert(MaxDepth < INT8_MAX && "lookup distance overflows int8");
  size_t N = TS.numTypes();
  assert(Rev.Start.size() == N + 1 && "reversed edges of another type set");
  // Breadth-first backwards from the convertible types; the queue holds
  // types in nondecreasing distance order.
  std::vector<int8_t> Row(N, -1);
  std::vector<TypeId> Queue;
  for (size_t T = 0; T != N; ++T)
    if (TS.implicitlyConvertible(static_cast<TypeId>(T), Target)) {
      Row[T] = 0;
      Queue.push_back(static_cast<TypeId>(T));
    }
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    TypeId Cur = Queue[Head];
    if (Row[Cur] == MaxDepth)
      continue;
    for (uint32_t I = Rev.Start[Cur]; I != Rev.Start[Cur + 1]; ++I)
      if (Row[Rev.Preds[I]] < 0) {
        Row[Rev.Preds[I]] = static_cast<int8_t>(Row[Cur] + 1);
        Queue.push_back(Rev.Preds[I]);
      }
  }
  return Row;
}

std::vector<int8_t> petal::lookupsToConvertible(const TypeSystem &TS,
                                                const MemberCache &Members,
                                                TypeId Target,
                                                bool MethodsAllowed,
                                                int MaxDepth) {
  return lookupsToConvertible(
      TS, reverseLookupEdges(Members, TS.numTypes(), MethodsAllowed), Target,
      MaxDepth);
}

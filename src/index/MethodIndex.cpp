//===- index/MethodIndex.cpp - Param-type-keyed method index --------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "index/MethodIndex.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_set>

using namespace petal;

void MethodIndex::addToBuckets(MethodId Id) {
  All.push_back(Id);
  // Insert the method once per *distinct* parameter type. A call signature
  // has a handful of parameters, so a scan of the earlier ones beats a set.
  size_t N = TS.numCallParams(Id);
  for (size_t I = 0; I != N; ++I) {
    TypeId T = TS.callParamType(Id, I);
    bool Seen = false;
    for (size_t J = 0; J != I && !Seen; ++J)
      Seen = TS.callParamType(Id, J) == T;
    if (!Seen)
      Buckets[T].push_back(Id);
  }
}

MethodIndex::MethodIndex(const TypeSystem &TS) : TS(TS) {
  Buckets.resize(TS.numTypes());
  All.reserve(TS.numMethods());
  for (size_t M = 0; M != TS.numMethods(); ++M)
    addToBuckets(static_cast<MethodId>(M));
  UnionCache.resize(TS.numTypes());
  UnionCacheValid.assign(TS.numTypes(), false);
}

MethodIndex::MethodIndex(const TypeSystem &TS,
                         std::shared_ptr<const MethodIndex> BaseIdxIn)
    : TS(TS), BaseIdx(std::move(BaseIdxIn)),
      NumBaseTypes(TS.numBaseTypes()) {
  assert(BaseIdx && "overlay constructor requires a base index");
  assert(BaseIdx->frozen() && "the base index must be frozen before overlays "
                              "attach (concurrent readers)");
  // Bucket only this layer's methods; base methods stay in the shared base
  // buckets. Bucket vectors are still indexed by absolute TypeId (an
  // overlay method may well take base-typed parameters).
  size_t NumBaseMethods = TS.numBaseMethods();
  Buckets.resize(TS.numTypes());
  All.reserve(TS.numMethods() - NumBaseMethods);
  for (size_t M = NumBaseMethods; M != TS.numMethods(); ++M)
    addToBuckets(static_cast<MethodId>(M));
  UnionCache.resize(TS.numTypes() - NumBaseTypes);
  UnionCacheValid.assign(TS.numTypes() - NumBaseTypes, false);
  AppCache.resize(NumBaseTypes);
  AppCacheValid.assign(NumBaseTypes, false);
}

void MethodIndex::warmAll() const {
  if (frozen())
    return;
  if (BaseIdx) {
    for (size_t T = 0; T != NumBaseTypes; ++T)
      overlayAppendage(static_cast<TypeId>(T));
    for (size_t T = NumBaseTypes; T != TS.numTypes(); ++T)
      overlayUnion(static_cast<TypeId>(T));
    return;
  }
  for (size_t T = 0; T != TS.numTypes(); ++T)
    candidatesForArgType(static_cast<TypeId>(T));
}

namespace {
/// Epoch-stamped visited marks: a slot is marked iff it holds the current
/// epoch, so starting a new traversal is one increment, not a clear.
class EpochMarks {
public:
  explicit EpochMarks(size_t N) : Stamp(N, 0) {}
  void next() { ++Epoch; }
  /// Marks \p I; returns false if it was already marked this epoch.
  bool mark(size_t I) {
    if (Stamp[I] == Epoch)
      return false;
    Stamp[I] = Epoch;
    return true;
  }

private:
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;
};
} // namespace

void MethodIndex::freeze() const {
  if (frozen())
    return;

  // Builds the CSR tables in one pass: each slot's union is the same
  // supertype BFS as unionSpan() and overlayUnion() (nearer types' buckets
  // first, which ranking depends on), appended straight onto UnionData,
  // with flat epoch-stamped marks as its visited sets.
  size_t N = TS.numTypes();
  EpochMarks TypeSeen(N), MethodSeen(TS.numMethods());
  std::vector<TypeId> Queue;
  auto AppendUnique = [&](Span<const MethodId> Bucket) {
    for (MethodId M : Bucket)
      if (MethodSeen.mark(static_cast<size_t>(M)))
        UnionData.push_back(M);
  };

  size_t Slots = N - NumBaseTypes;
  UnionData.clear();
  UnionOffsets.assign(Slots + 1, 0);
  for (size_t Slot = 0; Slot != Slots; ++Slot) {
    UnionOffsets[Slot] = static_cast<uint32_t>(UnionData.size());
    TypeSeen.next();
    MethodSeen.next();
    Queue.clear();
    Queue.push_back(static_cast<TypeId>(NumBaseTypes + Slot));
    TypeSeen.mark(NumBaseTypes + Slot);
    for (size_t Head = 0; Head != Queue.size(); ++Head) {
      TypeId Cur = Queue[Head];
      // An overlay type's visited bucket is the base bucket followed by the
      // overlay bucket: the id-order content a monolithic build would hold.
      if (BaseIdx)
        AppendUnique(BaseIdx->bucketSpan(Cur));
      AppendUnique(bucketSpan(Cur));
      for (TypeId S : TS.immediateSupertypes(Cur))
        if (TypeSeen.mark(static_cast<size_t>(S)))
          Queue.push_back(S);
    }
  }
  assert(UnionData.size() <= UINT32_MAX &&
         "method-union size overflows CSR offsets");
  UnionOffsets[Slots] = static_cast<uint32_t>(UnionData.size());
  UnionData.shrink_to_fit();

  if (BaseIdx) {
    // Appendages: the overlay methods one of whose call-parameter types lies
    // in base type T's supertype closure (see overlayAppendage() for why
    // the null literal gets none). A repeated parameter type cannot change
    // the first match, so no distinctness check is needed.
    AppData.clear();
    AppOffsets.assign(NumBaseTypes + 1, 0);
    for (size_t T = 0; T != NumBaseTypes; ++T) {
      AppOffsets[T] = static_cast<uint32_t>(AppData.size());
      TypeId Ty = static_cast<TypeId>(T);
      if (Ty == TS.nullType())
        continue;
      for (MethodId M : All) {
        size_t NP = TS.numCallParams(M);
        for (size_t I = 0; I != NP; ++I) {
          TypeId S = TS.callParamType(M, I);
          if (static_cast<size_t>(S) < NumBaseTypes &&
              TS.typeDistance(Ty, S).has_value()) {
            AppData.push_back(M);
            break;
          }
        }
      }
    }
    AppOffsets[NumBaseTypes] = static_cast<uint32_t>(AppData.size());
    AppData.shrink_to_fit();
  }

  UnionV = UnionData.data();
  NumUnion = UnionData.size();
  NumTypesFrozen = Slots;
  // Publish UOffV last: frozen() keys off it, and once it is non-null
  // candidatesForArgType never touches the lazy representation.
  UOffV = UnionOffsets.data();
  UnionCache.clear();
  UnionCache.shrink_to_fit();
  UnionCacheValid.clear();
  UnionCacheValid.shrink_to_fit();
  AppCache.clear();
  AppCache.shrink_to_fit();
  AppCacheValid.clear();
  AppCacheValid.shrink_to_fit();
}

void MethodIndex::adoptFrozen(
    const MethodId *Data, size_t DataCount, const uint32_t *Offs,
    size_t NumTypes, std::shared_ptr<const void> KeepAliveHandle) const {
  assert(!frozen() && "method index already frozen");
  assert(!BaseIdx && "snapshot tables adopt into the base layer, not overlays");
  assert(NumTypes == TS.numTypes() &&
         "snapshot method unions sized for a different type population");
  UnionV = Data;
  NumUnion = DataCount;
  NumTypesFrozen = NumTypes;
  KeepAlive = std::move(KeepAliveHandle);
  UOffV = Offs;
  UnionCache.clear();
  UnionCache.shrink_to_fit();
  UnionCacheValid.clear();
  UnionCacheValid.shrink_to_fit();
}

MethodCandidates MethodIndex::exactBucket(TypeId T) const {
  if (BaseIdx)
    return MethodCandidates(BaseIdx->bucketSpan(T), bucketSpan(T));
  return MethodCandidates(bucketSpan(T));
}

Span<const MethodId> MethodIndex::unionSpan(TypeId T) const {
  assert(!BaseIdx && "unionSpan is the monolithic accessor");
  if (frozen()) {
    if (T < 0 || static_cast<size_t>(T) >= NumTypesFrozen)
      return Empty;
    uint32_t B = UOffV[T], E = UOffV[static_cast<size_t>(T) + 1];
    return Span<const MethodId>(UnionV + B, E - B);
  }

  if (T < 0 || static_cast<size_t>(T) >= Buckets.size())
    return Empty;
  if (UnionCacheValid[T])
    return UnionCache[T];

  // Walk T and all transitive supertypes (BFS), merging their exact
  // buckets. The BFS order makes results from closer types (lower type
  // distance) appear first, which matches the paper's observation that
  // "each method index visited gives progressively worse ranked results".
  std::vector<MethodId> Result;
  std::unordered_set<TypeId> Visited;
  std::unordered_set<MethodId> SeenMethods;
  std::deque<TypeId> Work;
  Work.push_back(T);
  Visited.insert(T);
  while (!Work.empty()) {
    TypeId Cur = Work.front();
    Work.pop_front();
    for (MethodId M : Buckets[Cur])
      if (SeenMethods.insert(M).second)
        Result.push_back(M);
    for (TypeId S : TS.immediateSupertypes(Cur))
      if (Visited.insert(S).second)
        Work.push_back(S);
  }
  UnionCache[T] = std::move(Result);
  UnionCacheValid[T] = true;
  return UnionCache[T];
}

Span<const MethodId> MethodIndex::overlayAppendage(TypeId T) const {
  assert(BaseIdx && static_cast<size_t>(T) < NumBaseTypes);
  if (frozen()) {
    uint32_t B = AppOffsets[T], E = AppOffsets[static_cast<size_t>(T) + 1];
    return Span<const MethodId>(AppData.data() + B, E - B);
  }
  if (AppCacheValid[T])
    return AppCache[T];

  // An overlay method joins base type T's candidates iff one of its
  // distinct call-parameter types S lies in T's supertype closure. The
  // closure of a base type is sealed inside the base layer, so only base
  // S qualify, and (for T != null) membership is exactly "td(T, S) is
  // defined". The null literal is the one base type whose dense distance
  // row (0 to every reference type) is *wider* than its closure ({null}
  // itself — null has no supertype edges), so it gets no appendage.
  std::vector<MethodId> Result;
  if (T != TS.nullType()) {
    for (MethodId M : All) {
      std::unordered_set<TypeId> Seen;
      size_t N = TS.numCallParams(M);
      for (size_t I = 0; I != N; ++I) {
        TypeId S = TS.callParamType(M, I);
        if (!Seen.insert(S).second)
          continue;
        if (static_cast<size_t>(S) < NumBaseTypes &&
            TS.typeDistance(T, S).has_value()) {
          Result.push_back(M);
          break;
        }
      }
    }
  }
  AppCache[T] = std::move(Result);
  AppCacheValid[T] = true;
  return AppCache[T];
}

Span<const MethodId> MethodIndex::overlayUnion(TypeId T) const {
  assert(BaseIdx && static_cast<size_t>(T) >= NumBaseTypes);
  size_t Slot = static_cast<size_t>(T) - NumBaseTypes;
  if (frozen()) {
    assert(Slot < NumTypesFrozen && "bad TypeId");
    uint32_t B = UOffV[Slot], E = UOffV[Slot + 1];
    return Span<const MethodId>(UnionV + B, E - B);
  }
  if (UnionCacheValid[Slot])
    return UnionCache[Slot];

  // The monolithic BFS, with each visited type's bucket being the base
  // bucket followed by the overlay bucket — which is exactly the id-order
  // bucket content a monolithic build would hold.
  std::vector<MethodId> Result;
  std::unordered_set<TypeId> Visited;
  std::unordered_set<MethodId> SeenMethods;
  std::deque<TypeId> Work;
  Work.push_back(T);
  Visited.insert(T);
  while (!Work.empty()) {
    TypeId Cur = Work.front();
    Work.pop_front();
    for (MethodId M : BaseIdx->bucketSpan(Cur))
      if (SeenMethods.insert(M).second)
        Result.push_back(M);
    for (MethodId M : bucketSpan(Cur))
      if (SeenMethods.insert(M).second)
        Result.push_back(M);
    for (TypeId S : TS.immediateSupertypes(Cur))
      if (Visited.insert(S).second)
        Work.push_back(S);
  }
  UnionCache[Slot] = std::move(Result);
  UnionCacheValid[Slot] = true;
  return UnionCache[Slot];
}

MethodCandidates MethodIndex::candidatesForArgType(TypeId T) const {
  if (!BaseIdx)
    return MethodCandidates(unionSpan(T));
  if (T < 0 || static_cast<size_t>(T) >= TS.numTypes())
    return MethodCandidates();
  if (static_cast<size_t>(T) < NumBaseTypes)
    return MethodCandidates(BaseIdx->unionSpan(T), overlayAppendage(T));
  return MethodCandidates(overlayUnion(T));
}

size_t MethodIndex::memoryBytes() const {
  size_t Bytes = Buckets.capacity() * sizeof(std::vector<MethodId>) +
                 All.capacity() * sizeof(MethodId) +
                 UnionData.capacity() * sizeof(MethodId) +
                 UnionOffsets.capacity() * sizeof(uint32_t) +
                 AppData.capacity() * sizeof(MethodId) +
                 AppOffsets.capacity() * sizeof(uint32_t);
  for (const auto &B : Buckets)
    Bytes += B.capacity() * sizeof(MethodId);
  for (const auto &U : UnionCache)
    Bytes += U.capacity() * sizeof(MethodId);
  for (const auto &A : AppCache)
    Bytes += A.capacity() * sizeof(MethodId);
  return Bytes;
}

//===- index/ReachabilityIndex.cpp - Type reachability via lookups --------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "index/ReachabilityIndex.h"

#include <cassert>
#include <cstdint>
#include <deque>

using namespace petal;

// The retired lazy convertible-target memo packed (From, Target) into a
// uint64_t as (From << 32) | Target, which silently aliased keys on any
// platform where TypeId widened past 32 bits. The dense matrices index by
// From * DenseN + Target in size_t and have no such hazard, but keep the
// assumption visible for anything else that packs id pairs:
static_assert(sizeof(TypeId) == 4,
              "TypeId must stay 32-bit; pair-packed and dense row-major "
              "indexes assume it");

const std::unordered_map<TypeId, int> &
ReachabilityIndex::reachableFrom(TypeId From, bool MethodsAllowed) const {
  auto &CacheMap = Cache[MethodsAllowed ? 1 : 0];
  auto It = CacheMap.find(From);
  if (It != CacheMap.end())
    return It->second;

  std::unordered_map<TypeId, int> Dist;
  std::deque<TypeId> Work;
  Dist[From] = 0;
  Work.push_back(From);
  while (!Work.empty()) {
    TypeId Cur = Work.front();
    Work.pop_front();
    int D = Dist[Cur];
    if (D >= MaxDepth)
      continue;
    const auto Edges = Members.edges(Cur);
    size_t Limit = MethodsAllowed ? Edges.size() : Members.numFieldEdges(Cur);
    for (size_t I = 0; I != Limit; ++I) {
      TypeId Next = Edges[I].ResultType;
      if (Dist.count(Next))
        continue;
      Dist[Next] = D + 1;
      Work.push_back(Next);
    }
  }
  return CacheMap.emplace(From, std::move(Dist)).first->second;
}

void ReachabilityIndex::warmAll() const {
  // Overlay: only the local types get rows; base-source queries forward to
  // the already-frozen base matrices.
  for (size_t T = NumBaseTypes; T != TS.numTypes(); ++T) {
    reachableFrom(static_cast<TypeId>(T), /*MethodsAllowed=*/false);
    reachableFrom(static_cast<TypeId>(T), /*MethodsAllowed=*/true);
  }
}

bool ReachabilityIndex::freeze(size_t MaxDenseBytes) const {
  if (DenseN != 0)
    return true;
  size_t N = TS.numTypes();
  size_t Rows = N - NumBaseTypes;
  if (N == 0 || 4 * Rows * N * sizeof(int16_t) > MaxDenseBytes)
    return false;
  static_assert(NoReach < 0, "BFS rows use NoReach as 'unvisited'");
  assert(MaxDepth < INT16_MAX && "lookup distance overflows int16");

  // Per-type convertible-target lists, filled the first time a row reaches
  // the type, so the ConvM fill below is a relaxation over precomputed lists
  // instead of N³ implicitlyConvertible calls. With the TypeSystem's own
  // dense distance matrix frozen, each check is a single int16 load. An
  // overlay only ever reaches a fraction of the population, which keeps
  // its freeze O(reach × N) instead of the base's O(N²).
  std::vector<std::vector<TypeId>> ConvTargets(N);
  std::vector<bool> HaveTargets(N, false);
  auto convTargets = [&](TypeId Ty) -> const std::vector<TypeId> & {
    if (!HaveTargets[Ty]) {
      for (size_t Tgt = 0; Tgt != N; ++Tgt)
        if (TS.implicitlyConvertible(Ty, static_cast<TypeId>(Tgt)))
          ConvTargets[Ty].push_back(static_cast<TypeId>(Tgt));
      HaveTargets[Ty] = true;
    }
    return ConvTargets[Ty];
  };

  std::vector<TypeId> Queue;
  Queue.reserve(N);
  for (int K = 0; K != 2; ++K) {
    bool MethodsAllowed = K == 1;
    std::vector<int16_t> DM(Rows * N, NoReach);
    std::vector<int16_t> CM(Rows * N, NoReach);
    for (size_t F = NumBaseTypes; F != N; ++F) {
      int16_t *DRow = DM.data() + (F - NumBaseTypes) * N;
      int16_t *CRow = CM.data() + (F - NumBaseTypes) * N;
      // The same BFS as reachableFrom(), run straight into the row: a cell
      // still at NoReach is unvisited, and the flat queue ends up holding
      // every reached type in nondecreasing distance order.
      Queue.clear();
      Queue.push_back(static_cast<TypeId>(F));
      DRow[F] = 0;
      for (size_t Head = 0; Head != Queue.size(); ++Head) {
        TypeId Cur = Queue[Head];
        int16_t D = DRow[Cur];
        if (D >= MaxDepth)
          continue;
        const auto Edges = Members.edges(Cur);
        size_t Limit =
            MethodsAllowed ? Edges.size() : Members.numFieldEdges(Cur);
        for (size_t I = 0; I != Limit; ++I) {
          TypeId Next = Edges[I].ResultType;
          if (DRow[Next] != NoReach)
            continue;
          DRow[Next] = static_cast<int16_t>(D + 1);
          Queue.push_back(Next);
        }
      }
      // Distances arrive in nondecreasing order, so the first type to claim
      // a convertible target holds its minimum.
      for (TypeId To : Queue) {
        int16_t D = DRow[To];
        for (TypeId Tgt : convTargets(To))
          if (CRow[Tgt] == NoReach)
            CRow[Tgt] = D;
      }
    }
    DistM[K] = std::move(DM);
    ConvM[K] = std::move(CM);
    DistV[K] = DistM[K].data();
    ConvV[K] = ConvM[K].data();
  }
  // Lazy queries made before the freeze may have filled the maps; the
  // matrices supersede them.
  for (auto &CacheMap : Cache)
    CacheMap.clear();
  DenseN = N;
  return true;
}

void ReachabilityIndex::adoptFrozen(
    const int16_t *DistFields, const int16_t *DistMethods,
    const int16_t *ConvFields, const int16_t *ConvMethods, size_t N,
    std::shared_ptr<const void> KeepAliveHandle) const {
  assert(DenseN == 0 && "reachability index already frozen");
  assert(!BaseReach &&
         "snapshot tables adopt into the base layer, not overlays");
  assert(N == TS.numTypes() &&
         "snapshot reachability matrices sized for a different type "
         "population");
  DistV[0] = DistFields;
  DistV[1] = DistMethods;
  ConvV[0] = ConvFields;
  ConvV[1] = ConvMethods;
  KeepAlive = std::move(KeepAliveHandle);
  DenseN = N;
}

std::optional<int> ReachabilityIndex::minLookups(TypeId From, TypeId To,
                                                 bool MethodsAllowed) const {
  if (BaseReach && static_cast<size_t>(From) < NumBaseTypes) {
    // Base-type closures are sealed inside the base layer: every lookup
    // edge from a base type lands on a base type, so overlay targets are
    // unreachable. Check To's layer *before* delegating — the base matrix
    // has no row or column for overlay ids.
    if (static_cast<size_t>(To) >= NumBaseTypes)
      return std::nullopt;
    return BaseReach->minLookups(From, To, MethodsAllowed);
  }
  if (DenseN != 0) {
    assert(static_cast<size_t>(From) < DenseN &&
           static_cast<size_t>(To) < DenseN && "bad TypeId");
    int16_t D = DistV[MethodsAllowed ? 1 : 0]
                     [(static_cast<size_t>(From) - NumBaseTypes) * DenseN +
                      static_cast<size_t>(To)];
    if (D == NoReach)
      return std::nullopt;
    return static_cast<int>(D);
  }
  const auto &Dist = reachableFrom(From, MethodsAllowed);
  auto It = Dist.find(To);
  if (It == Dist.end())
    return std::nullopt;
  return It->second;
}

std::optional<int>
ReachabilityIndex::minLookupsToConvertible(TypeId From, TypeId Target,
                                           bool MethodsAllowed) const {
  if (BaseReach && static_cast<size_t>(From) < NumBaseTypes) {
    if (static_cast<size_t>(Target) >= NumBaseTypes) {
      // The only base-layer values convertible to an overlay target are
      // null literals (reference targets only), so the answer is the
      // distance from From to the null type — 0 when From *is* null,
      // unreachable otherwise (no member has the null type).
      if (!TS.isReferenceType(Target))
        return std::nullopt;
      return BaseReach->minLookups(From, TS.nullType(), MethodsAllowed);
    }
    return BaseReach->minLookupsToConvertible(From, Target, MethodsAllowed);
  }
  if (DenseN != 0) {
    assert(static_cast<size_t>(From) < DenseN &&
           static_cast<size_t>(Target) < DenseN && "bad TypeId");
    int16_t D = ConvV[MethodsAllowed ? 1 : 0]
                     [(static_cast<size_t>(From) - NumBaseTypes) * DenseN +
                      static_cast<size_t>(Target)];
    if (D == NoReach)
      return std::nullopt;
    return static_cast<int>(D);
  }

  // Lazy (pre-freeze, single-threaded) path: scan the warmed distance map.
  // No memo — the dense matrix is the memo, and freeze() builds it before
  // any concurrent or repeated querying starts.
  std::optional<int> Best;
  for (const auto &[Ty, D] : reachableFrom(From, MethodsAllowed)) {
    if (!TS.implicitlyConvertible(Ty, Target))
      continue;
    if (!Best || D < *Best)
      Best = D;
  }
  return Best;
}

size_t ReachabilityIndex::memoryBytes() const {
  size_t Bytes = 0;
  for (int K = 0; K != 2; ++K)
    Bytes += (DistM[K].capacity() + ConvM[K].capacity()) * sizeof(int16_t);
  for (const auto &CacheMap : Cache) {
    for (const auto &[From, Dist] : CacheMap)
      Bytes += Dist.size() * (sizeof(TypeId) + sizeof(int) + sizeof(void *));
    Bytes += CacheMap.size() * (sizeof(TypeId) + sizeof(void *) +
                                sizeof(std::unordered_map<TypeId, int>));
  }
  return Bytes;
}

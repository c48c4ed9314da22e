//===- index/MethodIndex.h - Param-type-keyed method index ------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's method index (§4.2, Fig. 8): a map from every type to the set
/// of methods with at least one call-signature parameter (receiver included)
/// of *exactly* that type, organized so that looking up a type also walks
/// the indexes of its supertypes. Given `?({e1, e2})`, the engine looks up
/// each argument type and scans only the smallest candidate set, which is
/// "almost always orders of magnitude smaller than the set of all methods".
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_INDEX_METHODINDEX_H
#define PETAL_INDEX_METHODINDEX_H

#include "model/TypeSystem.h"
#include "support/Span.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

namespace petal {

/// A possibly two-segment view over method candidates: a head span (the
/// base layer's frozen CSR window, or the whole answer for a monolithic
/// index) followed by an optional tail span (the overlay appendage). The
/// segments are concatenated, never interleaved — the engine's candidate
/// consumers depend only on the *set* (smallest-set selection compares
/// sizes; same-score ordering ties break on method id, not visit order),
/// so base-type candidates need not reproduce the monolithic BFS
/// interleaving. Cheap to copy; never owns.
class MethodCandidates {
public:
  MethodCandidates() = default;
  /*implicit*/ MethodCandidates(Span<const MethodId> Head) : Head(Head) {}
  MethodCandidates(Span<const MethodId> Head, Span<const MethodId> Tail)
      : Head(Head), Tail(Tail) {}

  size_t size() const { return Head.size() + Tail.size(); }
  bool empty() const { return Head.empty() && Tail.empty(); }

  MethodId operator[](size_t I) const {
    assert(I < size() && "candidate index out of range");
    return I < Head.size() ? Head[I] : Tail[I - Head.size()];
  }

  /// Forward iterator walking head then tail. Carries its position so
  /// iterators over the two segments compare and subtract like pointers
  /// into one contiguous array.
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MethodId;
    using difference_type = std::ptrdiff_t;
    using pointer = const MethodId *;
    using reference = const MethodId &;

    iterator(const MethodId *P, const MethodId *HeadEnd,
             const MethodId *TailBegin, size_t Idx)
        : P(P), HeadEnd(HeadEnd), TailBegin(TailBegin), Idx(Idx) {}
    reference operator*() const { return *P; }
    iterator &operator++() {
      ++P;
      ++Idx;
      if (P == HeadEnd)
        P = TailBegin;
      return *this;
    }
    iterator operator++(int) {
      iterator Tmp = *this;
      ++*this;
      return Tmp;
    }
    bool operator==(const iterator &O) const { return Idx == O.Idx; }
    bool operator!=(const iterator &O) const { return Idx != O.Idx; }
    difference_type operator-(const iterator &O) const {
      return static_cast<difference_type>(Idx) -
             static_cast<difference_type>(O.Idx);
    }

  private:
    const MethodId *P;
    const MethodId *HeadEnd;
    const MethodId *TailBegin;
    size_t Idx;
  };
  iterator begin() const {
    const MethodId *Start = Head.empty() ? Tail.begin() : Head.begin();
    return iterator(Start, Head.end(), Tail.begin(), 0);
  }
  iterator end() const {
    return iterator(Tail.end(), Head.end(), Tail.begin(), size());
  }

private:
  Span<const MethodId> Head;
  Span<const MethodId> Tail;
};

/// Immutable method index built over a finished TypeSystem.
///
/// freeze() — called by CompletionIndexes::freeze() — builds every type's
/// supertype-union candidate list in one pass straight into a contiguous
/// CSR array with per-type [UnionOffsets[T], UnionOffsets[T+1]) spans,
/// using flat epoch-stamped marks for the BFS; afterwards every accessor is
/// a lock-free read of immutable flat storage. Before freeze() (or with
/// FreezeOptions::MaxDenseBytes = 0) the lists are lazily memoized heap
/// vectors (single-threaded fills), the independent reference the CSR
/// tables are tested against. Like the other type-graph indexes, a frozen
/// instance reads nothing but its TypeSystem, so body-only document edits
/// share it across versions via CompletionIndexes' sharing constructor.
///
/// In overlay mode (base/overlay workspace, DESIGN.md §14) the index holds
/// only the document's methods: a base type's candidates are the shared
/// base CSR span plus a small appendage of overlay methods reachable from
/// that type, and an overlay type's candidates are a locally memoized full
/// union over the layered supertype closure. Both are served through
/// MethodCandidates, so the engine never sees the layering.
class MethodIndex {
public:
  explicit MethodIndex(const TypeSystem &TS);

  /// Overlay constructor: \p BaseIdxIn was built over TS.baseLayer() and
  /// frozen; this instance buckets only the overlay methods.
  MethodIndex(const TypeSystem &TS, std::shared_ptr<const MethodIndex> BaseIdxIn);

  /// Methods with a call-signature parameter of exactly type \p T.
  MethodCandidates exactBucket(TypeId T) const;

  /// Methods usable with an argument of type \p T in some position: the
  /// union of the exact buckets of \p T and all its transitive supertypes
  /// (deduplicated; nearer-supertype buckets first in monolithic mode,
  /// base-then-overlay segments in overlay mode — same set either way).
  /// Memoized per type; a pure flat-array read once frozen.
  MethodCandidates candidatesForArgType(TypeId T) const;

  /// Eagerly memoizes candidatesForArgType for every type; idempotent.
  void warmAll() const;

  /// Builds the CSR layout directly (the same BFS as the lazy path, never
  /// reading its memo) and frees any lazy storage; idempotent.
  void freeze() const;
  bool frozen() const { return UOffV != nullptr; }

  /// The frozen CSR arrays: all pre-merged supertype-union candidate
  /// lists contiguous, and the numTypes()+1 offsets windowing them per
  /// type. Empty before freeze(). Snapshot-writer access (base layer
  /// only; an overlay is never snapshotted).
  Span<const MethodId> frozenUnionData() const {
    return Span<const MethodId>(UnionV, NumUnion);
  }
  Span<const uint32_t> frozenUnionOffsets() const {
    return Span<const uint32_t>(UOffV, frozen() ? NumTypesFrozen + 1 : 0);
  }

  /// Installs externally owned CSR arrays (the snapshot loader's
  /// zero-copy path: both pointers aim into the read-only mapping
  /// \p KeepAlive pins; \p Offs holds \p NumTypes + 1 entries). The
  /// exact-bucket layer (Buckets/All) is rebuilt cheaply by the
  /// constructor from the TypeSystem; only the pre-merged unions — the
  /// O(types × supertype chain) part — come from the snapshot.
  void adoptFrozen(const MethodId *Data, size_t DataCount,
                   const uint32_t *Offs, size_t NumTypes,
                   std::shared_ptr<const void> KeepAliveHandle) const;

  /// Size of candidatesForArgType(T) without forcing full materialization
  /// cost twice (it memoizes anyway; provided for readability).
  size_t candidateCount(TypeId T) const {
    return candidatesForArgType(T).size();
  }

  /// All methods in id order (base segment then overlay segment, which is
  /// exactly monolithic id order), for brute-force comparison baselines
  /// and the engine's unconstrained fallback.
  MethodCandidates allMethods() const {
    if (BaseIdx)
      return MethodCandidates(BaseIdx->All, All);
    return MethodCandidates(All);
  }

  /// Approximate heap bytes owned by this layer (the shared base is not
  /// re-counted).
  size_t memoryBytes() const;

private:
  /// Appends \p Id to All and to the bucket of each distinct call-parameter
  /// type (constructor helper).
  void addToBuckets(MethodId Id);
  /// The monolithic / base-layer union accessor (CSR window or memoized
  /// vector). Must not be called in overlay mode.
  Span<const MethodId> unionSpan(TypeId T) const;
  /// Overlay methods usable with an argument of base type \p T (lazy,
  /// memoized; CSR after freeze).
  Span<const MethodId> overlayAppendage(TypeId T) const;
  /// Full layered union for overlay type \p T (lazy, memoized; CSR after
  /// freeze), in monolithic BFS order.
  Span<const MethodId> overlayUnion(TypeId T) const;

  Span<const MethodId> bucketSpan(TypeId T) const {
    if (T < 0 || static_cast<size_t>(T) >= Buckets.size())
      return Empty;
    return Buckets[T];
  }

  const TypeSystem &TS;
  /// Overlay mode: the shared base index and the entity counts it covers.
  std::shared_ptr<const MethodIndex> BaseIdx;
  size_t NumBaseTypes = 0;
  /// Buckets are indexed by absolute TypeId (sized numTypes() in both
  /// modes) but hold only this layer's methods.
  std::vector<std::vector<MethodId>> Buckets;
  // Lazy (pre-freeze) union representation. Monolithic: indexed by TypeId.
  // Overlay: indexed T - NumBaseTypes (overlay types' full unions).
  mutable std::vector<std::vector<MethodId>> UnionCache;
  mutable std::vector<bool> UnionCacheValid;
  // Overlay mode only: per-base-type appendages, indexed by TypeId < NumBaseTypes.
  mutable std::vector<std::vector<MethodId>> AppCache;
  mutable std::vector<bool> AppCacheValid;
  // Frozen CSR representation: candidates of slot T are
  // UnionData[UnionOffsets[T] .. UnionOffsets[T+1]). Readers go through
  // the view pointers, which alias the owned vectors (in-process freeze)
  // or an adopted snapshot mapping pinned by KeepAlive; UOffV doubles as
  // the frozen() flag and is published last.
  mutable std::vector<MethodId> UnionData;
  mutable std::vector<uint32_t> UnionOffsets;
  mutable const MethodId *UnionV = nullptr;
  mutable const uint32_t *UOffV = nullptr;
  mutable size_t NumUnion = 0;
  mutable size_t NumTypesFrozen = 0;
  // Overlay mode only: frozen appendage CSR over base types.
  mutable std::vector<MethodId> AppData;
  mutable std::vector<uint32_t> AppOffsets;
  mutable std::shared_ptr<const void> KeepAlive;
  /// This layer's method ids in ascending order.
  std::vector<MethodId> All;
  std::vector<MethodId> Empty;
};

} // namespace petal

#endif // PETAL_INDEX_METHODINDEX_H

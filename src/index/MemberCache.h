//===- index/MemberCache.h - Cached lookup edges per type -------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For each type, the lookup steps a `.?f` / `.?m` suffix may take from a
/// value of that type: instance fields/properties (including inherited) and,
/// for the `m` forms, zero-argument non-void instance methods. Cached per
/// type; shared by the completion engine's star expansion and its
/// per-query reach rows (lookupsToConvertible below).
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_INDEX_MEMBERCACHE_H
#define PETAL_INDEX_MEMBERCACHE_H

#include "model/TypeSystem.h"
#include "support/Span.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace petal {

/// One possible lookup step from a value: `.field` or `.method()`.
struct LookupEdge {
  bool IsField = true;
  FieldId Field = InvalidId;
  MethodId Method = InvalidId;
  TypeId ResultType = InvalidId;
};

/// Caches the lookup edges of every type. Field edges always precede
/// method edges, so `.?f` consumers can stop at the first method edge.
///
/// Two representations share one accessor: the lazy per-type vectors fill
/// on first touch (single-threaded only), and freeze() — called by
/// CompletionIndexes::freeze() — compacts everything into one CSR array
/// (all edges contiguous, per-type [Offsets[T], Offsets[T+1]) windows).
/// After freeze() every accessor is a pure read of immutable flat storage,
/// safe for any number of concurrent readers, and a whole-frontier star
/// expansion walks memory linearly instead of chasing per-type heap
/// vectors. A frozen instance depends only on the TypeSystem it was built
/// over, so incremental document rebuilds share it wholesale across
/// versions whose type graph is unchanged (CompletionIndexes' sharing
/// constructor); frozen() is the reuse precondition.
/// An overlay MemberCache (base/overlay workspace, DESIGN.md §14) layers
/// over a warmed base instance: base-type lookups forward to the shared
/// base storage (documents cannot add members to base types, so those edge
/// lists are final), and only overlay types get local entries, indexed
/// T - numBaseTypes(). Freezing an overlay compacts just the local edges.
class MemberCache {
public:
  explicit MemberCache(const TypeSystem &TS) : TS(TS) {}

  /// Overlay constructor: \p BaseCacheIn was built over TS.baseLayer() and
  /// warmed (or frozen), and answers every base-type lookup.
  MemberCache(const TypeSystem &TS, std::shared_ptr<const MemberCache> BaseCacheIn)
      : TS(TS), BaseCache(std::move(BaseCacheIn)),
        NumBaseTypes(TS.numBaseTypes()) {
    assert(BaseCache && "overlay constructor requires a base cache");
  }

  /// All edges from a value of type \p T (fields first, then zero-arg
  /// methods), in deterministic declaration order.
  Span<const LookupEdge> edges(TypeId T) const;

  /// Eagerly fills the edge cache of every type; idempotent.
  void warmAll() const;

  /// Compacts the per-type edge vectors into the CSR layout (warming any
  /// still-unfilled entries first) and frees the lazy storage; idempotent.
  void freeze() const;
  bool frozen() const { return OffV != nullptr; }

  /// Number of leading field edges of edges(T).
  size_t numFieldEdges(TypeId T) const {
    if (static_cast<size_t>(T) < NumBaseTypes)
      return BaseCache->numFieldEdges(T);
    if (!frozen())
      edges(T);
    return FieldCounts[T - NumBaseTypes];
  }

  /// The frozen CSR arrays: all edges contiguous, and the numTypes()+1
  /// offsets windowing them per type. Empty before freeze().
  /// Snapshot-writer access.
  Span<const LookupEdge> frozenEdges() const {
    return Span<const LookupEdge>(EdgeV, NumEdges);
  }
  Span<const uint32_t> frozenOffsets() const {
    return Span<const uint32_t>(OffV, frozen() ? NumTypesFrozen + 1 : 0);
  }
  /// Per-type leading-field-edge counts (frozen access only).
  Span<const size_t> frozenFieldCounts() const { return FieldCounts; }

  /// Installs externally owned CSR arrays (the snapshot loader's
  /// zero-copy path: \p Edges and \p Offs point into the read-only
  /// mapping \p KeepAlive pins; \p Offs holds \p NumTypes + 1 entries).
  /// FieldCounts is copied rather than aliased — it is O(numTypes), and
  /// owning it keeps the on-disk width (u64) independent of size_t.
  /// The snapshot's content hashes guarantee the arrays describe this
  /// TypeSystem exactly.
  void adoptFrozen(const LookupEdge *Edges, size_t EdgeCount,
                   const uint32_t *Offs, size_t NumTypes,
                   std::vector<size_t> FieldCountsIn,
                   std::shared_ptr<const void> KeepAliveHandle) const;

  /// Approximate heap bytes owned by this layer (the shared base is not
  /// re-counted).
  size_t memoryBytes() const;

private:
  const TypeSystem &TS;
  /// Overlay mode: the shared base cache and the number of types it
  /// covers. Local storage below is indexed T - NumBaseTypes.
  std::shared_ptr<const MemberCache> BaseCache;
  size_t NumBaseTypes = 0;
  // Lazy (pre-freeze) representation.
  mutable std::vector<std::vector<LookupEdge>> Cache;
  mutable std::vector<bool> Valid;
  // Frozen CSR representation: edges of type T are
  // EdgeData[Offsets[T] .. Offsets[T+1]). Readers go through the view
  // pointers, which alias the owned vectors (in-process freeze) or an
  // adopted snapshot mapping pinned by KeepAlive; OffV doubles as the
  // frozen() flag and is published last.
  mutable std::vector<LookupEdge> EdgeData;
  mutable std::vector<uint32_t> Offsets;
  mutable const LookupEdge *EdgeV = nullptr;
  mutable const uint32_t *OffV = nullptr;
  mutable size_t NumEdges = 0;
  mutable size_t NumTypesFrozen = 0;
  mutable std::shared_ptr<const void> KeepAlive;
  // Shared by both representations.
  mutable std::vector<size_t> FieldCounts;
};

/// The lookup edges of one edge set, reversed, in CSR form: the types
/// with an edge into T are Preds[Start[T] .. Start[T+1]).
struct ReverseLookupEdges {
  std::vector<uint32_t> Start;
  std::vector<TypeId> Preds;
};

/// Reverses the edges of the first \p NumTypes types: all of them, or
/// only the field edges unless \p MethodsAllowed. O(types + edges).
ReverseLookupEdges reverseLookupEdges(const MemberCache &Members,
                                      size_t NumTypes, bool MethodsAllowed);

/// One reach row over the whole type population: entry T is the minimum
/// number of lookups (0 = the value itself) from a value of type T to a
/// value implicitly convertible to \p Target, or -1 when no chain of at
/// most \p MaxDepth lookups gets there. \p Rev is the reversed `.?*m`
/// edge set (fields and zero-argument methods) or `.?*f` set (fields
/// only) over every type of \p TS. The paper describes such a
/// reachability index (§4.2) but did not implement it; the engine
/// computes the rows it needs per query (one per expected type and edge
/// set) from one reversal per edge set instead of keeping N² tables.
///
/// A breadth-first search backwards along the edges from the convertible
/// types: O(types + edges) per row. The reversal reads base types through
/// edges(), so an overlay needs no special case.
std::vector<int8_t> lookupsToConvertible(const TypeSystem &TS,
                                         const ReverseLookupEdges &Rev,
                                         TypeId Target, int MaxDepth = 8);

/// One row from a fresh reversal of \p Members' edges (fields and
/// zero-argument methods if \p MethodsAllowed, else fields only).
std::vector<int8_t> lookupsToConvertible(const TypeSystem &TS,
                                         const MemberCache &Members,
                                         TypeId Target, bool MethodsAllowed,
                                         int MaxDepth = 8);

} // namespace petal

#endif // PETAL_INDEX_MEMBERCACHE_H

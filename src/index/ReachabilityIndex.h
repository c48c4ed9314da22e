//===- index/ReachabilityIndex.h - Type reachability via lookups -*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper describes (but did not implement) an index that records, for
/// each type, which types are reachable through `.?*f` / `.?*m` lookup
/// chains and in how many steps (§4.2, "queries for multiple field lookups
/// could also be made more efficient..."). petal implements it: the
/// completion engine uses it to prune star-suffix expansion states that can
/// never reach a value convertible to a known expected type within the
/// remaining score budget. Its effect is measured as an ablation in
/// bench/speed_latency.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_INDEX_REACHABILITYINDEX_H
#define PETAL_INDEX_REACHABILITYINDEX_H

#include "index/MemberCache.h"
#include "model/TypeSystem.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace petal {

/// Per-source-type reachability: the minimum number of lookup steps from a
/// value of one type to a value of another.
///
/// Two representations. freeze() — called by CompletionIndexes::freeze() —
/// builds dense TypeId×TypeId int16 matrices (distance-to-exact-type and
/// distance-to-convertible-target, one pair per edge set) directly: each
/// source type's BFS runs straight into its distance row, which doubles as
/// the visited set, and the convertible row is derived from the reached
/// types. After that every accessor is a branch-free load from immutable
/// flat storage with no locking whatsoever. The lazy representation
/// (per-source hash maps, filled on first touch, single-threaded) is the
/// fallback when the matrices exceed the dense budget, and the independent
/// reference the dense tables are tested against; freeze() never reads it.
/// In overlay mode (base/overlay workspace, DESIGN.md §14) the dense
/// matrices cover only the document's types (one delta row per overlay
/// type, each row spanning the full type population); base-source queries
/// forward to the shared base index. Base-type closures are sealed inside
/// the base layer — every lookup edge from a base type lands on a base
/// type — so the only cross-layer answer is the null literal converting to
/// overlay reference types.
class ReachabilityIndex {
public:
  ReachabilityIndex(const TypeSystem &TS, const MemberCache &Members,
                    int MaxDepth = 8)
      : TS(TS), Members(Members), MaxDepth(MaxDepth) {}

  /// Overlay constructor: \p BaseReachIn was built over TS.baseLayer() and
  /// dense-frozen; this instance computes delta rows for overlay types only.
  ReachabilityIndex(const TypeSystem &TS, const MemberCache &Members,
                    std::shared_ptr<const ReachabilityIndex> BaseReachIn,
                    int MaxDepth = 8)
      : TS(TS), Members(Members), MaxDepth(MaxDepth),
        BaseReach(std::move(BaseReachIn)), NumBaseTypes(TS.numBaseTypes()) {
    assert(BaseReach && "overlay constructor requires a base index");
    assert(BaseReach->frozen() &&
           "the base reachability index must be dense-frozen before overlays "
           "attach (its lazy path mutates shared caches)");
  }

  /// Minimum number of lookups (0 = the value itself) from a value of type
  /// \p From to a value of exactly type \p To; nullopt if unreachable
  /// within MaxDepth. \p MethodsAllowed selects the `.?*m` edge set
  /// (fields + zero-arg methods) vs `.?*f` (fields only).
  std::optional<int> minLookups(TypeId From, TypeId To,
                                bool MethodsAllowed) const;

  /// Minimum number of lookups from \p From to any value *implicitly
  /// convertible to* \p Target; nullopt if none within MaxDepth.
  std::optional<int> minLookupsToConvertible(TypeId From, TypeId Target,
                                             bool MethodsAllowed) const;

  /// The full distance map from \p From (type -> min lookups).
  const std::unordered_map<TypeId, int> &reachableFrom(TypeId From,
                                                       bool MethodsAllowed) const;

  /// Eagerly computes the lazy distance map of every type for both edge
  /// sets (the form kept when freeze() refuses); idempotent. Requires the
  /// MemberCache to be warm (or warms it as a side effect of the BFS).
  void warmAll() const;

  /// Builds the dense matrices described in the class comment, without
  /// touching the lazy maps. Returns false (leaving the lazy path in place)
  /// when the four N×N int16 matrices would exceed \p MaxDenseBytes;
  /// idempotent.
  /// Once frozen the index is a pure function of the TypeSystem and the
  /// (equally frozen) MemberCache, which is what allows incremental
  /// document rebuilds to share it across versions.
  bool freeze(size_t MaxDenseBytes) const;
  bool frozen() const { return DenseN != 0; }

  /// The frozen minLookups matrix for one edge set, flat row-major
  /// (numTypes()² int16 in monolithic mode, one row per overlay type in
  /// overlay mode; sentinel -1); empty before freeze().
  /// Snapshot-writer access (base layer only; an overlay is never
  /// snapshotted).
  Span<const int16_t> denseDistTable(bool MethodsAllowed) const {
    return Span<const int16_t>(DistV[MethodsAllowed ? 1 : 0],
                               (DenseN - NumBaseTypes) * DenseN);
  }
  /// Same for the minLookupsToConvertible matrix.
  Span<const int16_t> denseConvTable(bool MethodsAllowed) const {
    return Span<const int16_t>(ConvV[MethodsAllowed ? 1 : 0],
                               (DenseN - NumBaseTypes) * DenseN);
  }

  /// Installs the four externally owned matrices (the snapshot loader's
  /// zero-copy path; each pointer aims into the read-only mapping
  /// \p KeepAlive pins, fields-only tables first). Same contract as
  /// TypeSystem::adoptDenseDistances: \p N must equal the TypeSystem's
  /// type count and the tables must have been computed over identical
  /// source, which the snapshot's content hashes guarantee.
  void adoptFrozen(const int16_t *DistFields, const int16_t *DistMethods,
                   const int16_t *ConvFields, const int16_t *ConvMethods,
                   size_t N, std::shared_ptr<const void> KeepAlive) const;

  /// Approximate heap bytes owned by this layer (the shared base is not
  /// re-counted).
  size_t memoryBytes() const;

private:
  /// Sentinel for "not reachable within MaxDepth" in the dense matrices.
  /// MaxDepth is tiny (default 8), so real distances always fit int16.
  static constexpr int16_t NoReach = -1;

  const TypeSystem &TS;
  const MemberCache &Members;
  int MaxDepth;
  /// Overlay mode: the shared base index and the number of types it covers.
  /// Frozen rows below are indexed From - NumBaseTypes (0 in monolithic
  /// mode); every row still spans the full DenseN-wide type population.
  std::shared_ptr<const ReachabilityIndex> BaseReach;
  size_t NumBaseTypes = 0;
  // Index 0: fields only; index 1: fields + methods.
  mutable std::unordered_map<TypeId, std::unordered_map<TypeId, int>>
      Cache[2];
  // Frozen dense representation, row-major (From-NumBaseTypes)*DenseN+To.
  // DistM answers minLookups, ConvM answers minLookupsToConvertible. DenseN
  // is published last so frozen() only reads fully-built matrices. Readers
  // go through the view pointers, which alias the owned vectors (in-process
  // freeze) or an adopted snapshot mapping pinned by KeepAlive.
  mutable std::vector<int16_t> DistM[2];
  mutable std::vector<int16_t> ConvM[2];
  mutable const int16_t *DistV[2] = {nullptr, nullptr};
  mutable const int16_t *ConvV[2] = {nullptr, nullptr};
  mutable size_t DenseN = 0;
  mutable std::shared_ptr<const void> KeepAlive;
};

} // namespace petal

#endif // PETAL_INDEX_REACHABILITYINDEX_H

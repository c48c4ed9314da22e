//===- complete/Engine.h - The completion engine ----------------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: given a partial expression and a
/// code site, produce the top-n completions in ascending score order
/// (Algorithm 1 of the paper, realized as score-bucketed streams).
///
/// Typical use:
/// \code
///   TypeSystem TS;            Program P(TS);
///   loadProgramText(Source, P, Diags);        // or build programmatically
///   CompletionIndexes Idx(P);                 // shared across queries
///   CompletionEngine Engine(P, Idx);
///   auto Results = Engine.complete(Query, Site, /*N=*/10);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_COMPLETE_ENGINE_H
#define PETAL_COMPLETE_ENGINE_H

#include "code/Code.h"
#include "complete/Streams.h"
#include "index/MemberCache.h"
#include "index/MethodIndex.h"
#include "infer/AbstractTypes.h"
#include "partial/PartialExpr.h"
#include "rank/Ranking.h"
#include "support/Abort.h"

#include <memory>
#include <vector>

namespace petal {

struct BaseCorpus;

/// Controls how CompletionIndexes::freeze() builds the flat tables (see
/// DESIGN.md, "Frozen index memory layout").
struct FreezeOptions {
  /// Byte budget for the one dense TypeId×TypeId int16 matrix, the type
  /// system's conversion distances. Corpora whose matrix would exceed the
  /// budget keep the warmed lazy ancestor caches instead. 0 builds no flat
  /// tables at all — freeze() then only warms the lazy caches, the
  /// independent reference the equivalence tests compare the directly
  /// built tables against.
  size_t MaxDenseBytes = 256u << 20;
};

/// The shared, query-independent indexes: the method index (§4.2), the
/// member-lookup cache, and the abstract type inference. Build once per
/// corpus. (The paper's optional reachability index is not among them:
/// the engine computes the reach rows a query needs from the member
/// edges, per query — see EngineState::reachRow.)
///
/// Concurrency: several of the indexes populate caches lazily on first
/// query, which is only safe single-threaded. Call freeze() once before
/// sharing an instance across threads (BatchExecutor does this for you);
/// afterwards every index read is a pure load from immutable storage —
/// there is no lock anywhere on the post-freeze query read path. See
/// DESIGN.md, "Concurrency model".
///
/// Ownership: the three indexes are held by shared_ptr internally and
/// exposed as references. The split exists for incremental document
/// rebuilds (DESIGN.md §12): the type-graph-derived indexes (Methods,
/// Members) depend only on the TypeSystem, so when an edit leaves
/// the type graph untouched the sharing constructor aliases the previous
/// version's *frozen* tables — immutable, hence race-free across the old
/// and new document — while Infer, which reads every method body, is
/// rebuilt against the new Program, harvesting only the classes the new
/// Program did not share.
///
/// In overlay mode (base/overlay workspace, DESIGN.md §14) the three index
/// objects hold only the document's entities and answer base-entity
/// queries from the shared BaseCorpus's frozen tables; the overlay
/// constructor wires each sub-index to its base counterpart. The engine
/// reads the same three references either way.
struct CompletionIndexes {
  explicit CompletionIndexes(Program &P)
      : MethodsPtr(std::make_shared<MethodIndex>(P.typeSystem())),
        MembersPtr(std::make_shared<MemberCache>(P.typeSystem())),
        InferPtr(std::make_shared<AbstractTypeInference>(P)),
        Methods(*MethodsPtr), Members(*MembersPtr), Infer(*InferPtr),
        TS(P.typeSystem()) {}

  /// Overlay constructor: \p P is a document program resolved against
  /// \p BaseIn's symbol tables (its TypeSystem was built with the overlay
  /// TypeSystem constructor over BaseIn->TS). Builds overlay layers over
  /// the base's frozen indexes; freeze() then compacts only the overlay
  /// deltas. Defined in Engine.cpp (needs BaseCorpus's definition).
  CompletionIndexes(Program &P, std::shared_ptr<const BaseCorpus> BaseIn);

  /// Sharing constructor: adopts \p Prev's frozen type-graph tables and
  /// builds the abstract-type inference over \p P from \p Prev's: it
  /// shares the declared variables and the harvest of every class \p P
  /// shares with \p Prev's program, and harvests the rest. Requires \p Prev to
  /// be frozen (sharing lazily-filling caches across documents would race)
  /// and \p P to use the same TypeSystem instance \p Prev was built over —
  /// the caller (the incremental session build) guarantees both. When
  /// \p Prev is an overlay, the new instance shares the same base and the
  /// fresh inference extends the base solution again.
  CompletionIndexes(Program &P, const CompletionIndexes &Prev);

  /// Builds the immutable flat tables — the TypeId×TypeId int16 distance
  /// matrix, CSR member edges, and contiguous pre-merged method-index
  /// spans. The method unions are filled directly; the type system's
  /// ancestor distances and the member edges are still warmed and then
  /// packed. Where the lazy form is kept (budget 0, or the dense budget
  /// refused), its caches are warmed instead.
  /// Idempotent; required before concurrent use, harmless (and often
  /// useful — first-touch cost moves out of the measured path) in
  /// single-threaded use.
  void freeze() { freeze(FreezeOptions{}); }
  void freeze(const FreezeOptions &Opts);
  bool frozen() const { return Frozen; }

  /// Marks the indexes frozen after the snapshot loader has installed
  /// mapped tables into every sub-index via their adoptFrozen hooks.
  /// freeze() must NOT run on this path — it would rebuild the tables the
  /// snapshot supplies. Requires the type system's matrix and both CSR
  /// stores to be populated already.
  void adoptFrozenTables();

  /// True when this instance aliases a previous version's type-graph
  /// tables (built by the sharing constructor). Telemetry only.
  bool sharesTypeGraphTables() const { return SharedTypeGraph; }

  /// The TypeSystem every index reads (the snapshot writer serializes its
  /// dense distance table alongside the index tables).
  const TypeSystem &typeSystem() const { return TS; }

  /// The shared base layer these indexes overlay; null for a monolithic
  /// corpus.
  const std::shared_ptr<const BaseCorpus> &baseCorpus() const { return Base; }

  /// Approximate heap bytes owned by the three index layers (a shared base
  /// or a previous version's aliased tables are not re-counted).
  size_t memoryBytes() const;

private:
  // The reference members below must follow the pointers they bind to.
  std::shared_ptr<MethodIndex> MethodsPtr;
  std::shared_ptr<MemberCache> MembersPtr;
  std::shared_ptr<AbstractTypeInference> InferPtr;

public:
  MethodIndex &Methods;
  MemberCache &Members;
  AbstractTypeInference &Infer;

private:
  const TypeSystem &TS;
  /// The shared base layer (overlay mode); keeps the base alive for as
  /// long as any overlay index can reach into its tables.
  std::shared_ptr<const BaseCorpus> Base;
  bool Frozen = false;
  bool SharedTypeGraph = false;
};

/// Per-query knobs.
struct CompletionOptions {
  RankingOptions Rank;
  /// Optional expected type of the completion; results are filtered to
  /// those convertible to it (void requires void), as in Fig. 12.
  TypeId ExpectedType = InvalidId;
  /// Exploration cap on the ranking score.
  int MaxScore = 48;
  /// Hard ceiling on candidate enumeration, independent of MaxScore: the
  /// effective exploration cap is min(MaxScore, ScoreCeiling), and bucket
  /// storage inside the streams cannot grow past it (see
  /// CandidateStream::setCeiling). The generous default means it only
  /// binds when a caller raises MaxScore past it — it exists so untrusted
  /// MaxScore values (e.g. from a service request) bound memory. Reported
  /// in QueryStats when it terminates an unfinished enumeration.
  int ScoreCeiling = 256;
  /// Star-suffix chain-length cap (see EngineState::MaxChainLen).
  int MaxChainLen = 4;
  /// Disable to skip the abstract-type term without rebuilding options.
  bool UseAbstractTypes = true;
  /// Attach a per-term ScoreCard to every returned completion (see
  /// Completion::Card). Off by default: the hot path ranks by the scalar
  /// score alone, and cards are computed only for the N results actually
  /// returned, so explain costs nothing until asked for.
  bool Explain = false;
  /// Optional cooperative cancellation: the engine polls this at each
  /// score-bucket boundary and abandons the query (empty results,
  /// QueryStats::Abandoned set) once it reports aborted. Abandoned results
  /// are never returned to clients or cached, so the signal cannot perturb
  /// the bit-identical-results contract. Null (the default) disables
  /// polling entirely.
  const AbortSignal *Abort = nullptr;
};

/// One result: the completion and its ranking score (lower = better).
struct Completion {
  const Expr *E = nullptr;
  int Score = 0;
  /// The per-term breakdown of Score, present iff the query ran with
  /// CompletionOptions::Explain. Allocated in the same query arena as E,
  /// so it has exactly E's lifetime; Card->total() == Score always.
  const ScoreCard *Card = nullptr;
};

/// The completion engine. Holds shared indexes by reference; each call to
/// complete() allocates result expressions in an internal arena that is
/// reset on the next call, so results must be consumed (or printed) before
/// the engine is reused.
class CompletionEngine {
public:
  CompletionEngine(Program &P, CompletionIndexes &Idx)
      : P(P), Idx(Idx) {}

  /// Telemetry about one complete() call (see lastQueryStats()).
  struct QueryStats {
    /// The enumeration stopped at the score ceiling with fewer than N
    /// results — deeper candidates exist that MaxScore alone would have
    /// reached. Surfaced by the service in $/stats.
    bool ScoreCeilingHit = false;
    /// The last score bucket scanned (-1 if the query built no stream).
    int LastBucket = -1;
    /// The query was abandoned mid-enumeration because
    /// CompletionOptions::Abort reported aborted (deadline passed, request
    /// cancelled, or watchdog fired). The returned results are incomplete
    /// and must not be cached or served.
    bool Abandoned = false;
    /// Engine work counters (EngineState): combinations of child
    /// candidates the composite streams visited, and completions they
    /// pushed to their pending heaps. Deterministic per (corpus, query,
    /// options), like the results.
    uint64_t CombosEnumerated = 0;
    uint64_t PendingPushed = 0;
  };

  /// Completes \p Query at \p Site, returning at most \p N results in
  /// ascending score order (ties in discovery order, deterministically).
  ///
  /// \p Solution optionally supplies a solved abstract-type partition (the
  /// evaluation passes per-site exclusions); when null and the abstract
  /// term is enabled, the full corpus solution is computed and cached.
  std::vector<Completion> complete(const PartialExpr *Query,
                                   const CodeSite &Site, size_t N,
                                   const CompletionOptions &Opts = {},
                                   const AbsTypeSolution *Solution = nullptr);

  /// The rank (1-based) of the first result structurally equal to
  /// \p Expected within the top \p Limit completions; 0 if absent. A thin
  /// wrapper over complete() used by the evaluation harness and tests.
  size_t rankOf(const PartialExpr *Query, const CodeSite &Site,
                const Expr *Expected, size_t Limit,
                const CompletionOptions &Opts = {},
                const AbsTypeSolution *Solution = nullptr);

  /// Releases ownership of the arena holding the most recent complete()
  /// call's result expressions, so they can outlive the next query on this
  /// engine. Used by BatchExecutor to hand batched results to the caller.
  std::unique_ptr<Arena> takeQueryArena() { return std::move(QueryArena); }

  /// Telemetry for the most recent complete() call (reset per call).
  const QueryStats &lastQueryStats() const { return Stats; }

private:
  Program &P;
  CompletionIndexes &Idx;
  std::unique_ptr<Arena> QueryArena;
  QueryStats Stats;
  /// Cached full-corpus abstract-type solution (no exclusions).
  std::unique_ptr<AbsTypeSolution> FullSolution;
};

} // namespace petal

#endif // PETAL_COMPLETE_ENGINE_H

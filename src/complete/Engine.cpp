//===- complete/Engine.cpp - The completion engine ------------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "complete/Engine.h"

#include "complete/BaseCorpus.h"

using namespace petal;

CompletionIndexes::CompletionIndexes(Program &P,
                                     std::shared_ptr<const BaseCorpus> BaseIn)
    : MethodsPtr(std::make_shared<MethodIndex>(
          P.typeSystem(),
          std::shared_ptr<const MethodIndex>(BaseIn->Idx->MethodsPtr))),
      MembersPtr(std::make_shared<MemberCache>(
          P.typeSystem(),
          std::shared_ptr<const MemberCache>(BaseIn->Idx->MembersPtr))),
      InferPtr(std::make_shared<AbstractTypeInference>(
          P,
          std::shared_ptr<const AbstractTypeInference>(BaseIn->Idx->InferPtr),
          BaseIn->Solution)),
      Methods(*MethodsPtr), Members(*MembersPtr), Infer(*InferPtr),
      TS(P.typeSystem()), Base(std::move(BaseIn)) {
  assert(Base->Idx && Base->Idx->frozen() &&
         "the base corpus must be frozen before overlays attach");
  assert(P.typeSystem().baseLayer() == Base->TS.get() &&
         "the overlay TypeSystem must layer over the base corpus's");
}

CompletionIndexes::CompletionIndexes(Program &P, const CompletionIndexes &Prev)
    : MethodsPtr(Prev.MethodsPtr), MembersPtr(Prev.MembersPtr),
      InferPtr(Prev.Base
                   ? std::make_shared<AbstractTypeInference>(
                         P,
                         std::shared_ptr<const AbstractTypeInference>(
                             Prev.Base->Idx->InferPtr),
                         Prev.Base->Solution, &Prev.Infer)
                   : std::make_shared<AbstractTypeInference>(P, &Prev.Infer)),
      Methods(*MethodsPtr), Members(*MembersPtr), Infer(*InferPtr),
      TS(P.typeSystem()), Base(Prev.Base),
      SharedTypeGraph(true) {
  assert(Prev.frozen() &&
         "type-graph tables can only be shared after freeze()");
  assert(&P.typeSystem() == &Prev.TS &&
         "shared indexes must read the same TypeSystem they were built "
         "over");
}

void CompletionIndexes::freeze(const FreezeOptions &Opts) {
  if (Frozen)
    return;
  if (SharedTypeGraph) {
    // The sharing constructor aliased an already-frozen set of type-graph
    // tables (asserted there), and the fresh Infer is immutable after
    // construction — nothing left to compile. Skipping the warm/freeze
    // pass is what makes an incremental document build cheap. (An overlay
    // TypeSystem never dense-freezes — base×base queries go through the
    // base's matrix — so its frozen member tables are expected without one.)
    assert(TS.denseDistancesFrozen() || TS.baseLayer() || !Members.frozen());
    Frozen = true;
    return;
  }
  TS.warmRelationCaches();
  Members.warmAll();
  if (Opts.MaxDenseBytes != 0) {
    // Build the flat tables. The method unions are filled directly, never
    // from the lazy caches.
    TS.freezeDenseDistances(Opts.MaxDenseBytes);
    Members.freeze();
    Methods.freeze();
  } else {
    Methods.warmAll();
  }
  Frozen = true;
}

size_t CompletionIndexes::memoryBytes() const {
  // After the sharing constructor the type-graph tables belong to the
  // previous version (or the base); only the fresh inference is new heap.
  size_t Bytes = Infer.memoryBytes();
  if (!SharedTypeGraph)
    Bytes += Methods.memoryBytes() + Members.memoryBytes();
  return Bytes;
}

void CompletionIndexes::adoptFrozenTables() {
  assert(!Frozen && "indexes already frozen");
  assert(TS.denseDistancesFrozen() && Members.frozen() && Methods.frozen() &&
         "adoptFrozenTables() requires every sub-index to hold adopted "
         "tables already");
  Frozen = true;
}

std::vector<Completion>
CompletionEngine::complete(const PartialExpr *Query, const CodeSite &Site,
                           size_t N, const CompletionOptions &Opts,
                           const AbsTypeSolution *Solution) {
  TypeSystem &TS = P.typeSystem();
  Stats = {};
  if (Opts.Abort && Opts.Abort->aborted()) {
    Stats.Abandoned = true;
    return {};
  }

  // Fresh arena for this query's synthesized expressions. A second,
  // *scratch* arena backs everything the enumeration allocates but the
  // caller never sees — stream buckets, expansion pools, pending heaps,
  // and the scorers' per-call argument buffers. Keeping them separate
  // matters for batching: the result arena is handed off with the
  // completions (takeQueryArena), and must not drag dead enumeration
  // storage along with it. Scratch dies at the end of this call.
  QueryArena = std::make_unique<Arena>();
  Arena Scratch;
  ExprFactory Factory(TS, *QueryArena);

  Ranker Rank(TS, Opts.Rank);
  Rank.setScratchArena(&Scratch);
  if (Site.Class)
    Rank.setSelfType(Site.Class->type());
  if (Opts.Rank.UseAbstractTypes && Opts.UseAbstractTypes) {
    if (!Solution) {
      if (!FullSolution)
        FullSolution =
            std::make_unique<AbsTypeSolution>(Idx.Infer.solve());
      Solution = FullSolution.get();
    }
    Rank.setAbstractTypes(&Idx.Infer, Solution, Site.Method);
  }

  EngineState ES;
  ES.TS = &TS;
  ES.Factory = &Factory;
  ES.Rank = &Rank;
  ES.MIndex = &Idx.Methods;
  ES.Members = &Idx.Members;
  ES.Class = Site.Class;
  ES.Method = Site.Method;
  ES.StmtIndex = Site.StmtIndex;
  // The ceiling bounds memory even against hostile MaxScore values: the
  // loop below and every stream's bucket storage stop there.
  int EffMaxScore = std::min(Opts.MaxScore, Opts.ScoreCeiling);
  ES.MaxScore = EffMaxScore;
  ES.MaxChainLen = Opts.MaxChainLen;
  ES.ScoreCeiling = Opts.ScoreCeiling;
  ES.Scratch = &Scratch;

  std::unique_ptr<CandidateStream> Top =
      buildStream(ES, Query, Opts.ExpectedType);
  if (!Top)
    return {};

  std::vector<Completion> Results;
  for (int S = 0; S <= EffMaxScore; ++S) {
    // Cooperative abandonment: a cancelled/expired request stops at the
    // next bucket boundary. Partial results are discarded — an abandoned
    // query must never look like a short-but-valid answer.
    if (Opts.Abort && Opts.Abort->aborted()) {
      Stats.Abandoned = true;
      return {};
    }
    Stats.LastBucket = S;
    for (const Candidate &C : Top->bucket(S)) {
      // Top-level expected-type filter for candidates whose stream did not
      // already apply it (streams treat their Target as an emission filter,
      // so this is usually a no-op; don't-cares always pass).
      if (isValidId(Opts.ExpectedType) && isValidId(C.Type)) {
        if (Opts.ExpectedType == TS.voidType()) {
          if (C.Type != TS.voidType())
            continue;
        } else if (!TS.implicitlyConvertible(C.Type, Opts.ExpectedType)) {
          continue;
        }
      }
      Results.push_back({C.E, C.Score});
    }
    if (Results.size() >= N)
      break;
  }
  Stats.CombosEnumerated = ES.CombosEnumerated;
  Stats.PendingPushed = ES.PendingPushed;
  // The ceiling "hit" stat means it was the binding constraint: the caller
  // asked for deeper exploration than the ceiling allows and still came up
  // short. Running out at the caller's own MaxScore is normal operation.
  Stats.ScoreCeilingHit =
      Results.size() < N && Opts.MaxScore > Opts.ScoreCeiling;
  if (Results.size() > N)
    Results.resize(N);
  if (Opts.Explain) {
    // Cards are exact by construction: scoreCard() is the same traversal
    // scoreExpr() (the streams' emission oracle) runs, with a structured
    // accumulator. Computed only for the N survivors, in the query arena,
    // so results stay self-contained when the arena is handed off.
    for (Completion &C : Results)
      C.Card = QueryArena->create<ScoreCard>(Rank.scoreCard(C.E));
  }
  return Results;
}

size_t CompletionEngine::rankOf(const PartialExpr *Query, const CodeSite &Site,
                                const Expr *Expected, size_t Limit,
                                const CompletionOptions &Opts,
                                const AbsTypeSolution *Solution) {
  std::vector<Completion> Results =
      complete(Query, Site, Limit, Opts, Solution);
  for (size_t I = 0; I != Results.size(); ++I)
    if (exprEquals(Results[I].E, Expected))
      return I + 1;
  return 0;
}

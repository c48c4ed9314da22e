//===- tests/scorecard_test.cpp - ScoreCard decomposition properties ------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The structured cost model's central invariant: for every completion the
// engine emits, the per-term ScoreCard decomposes the scalar ranking score
// exactly — ScoreCard::total() == Completion::Score == Ranker::scoreExpr —
// under every Table 2 ablation, in serial and threaded batch execution.
// Also covers the score ceiling (satellite of the same refactor): bucket
// growth stops at the ceiling, the engine reports when the ceiling (not
// the caller's MaxScore) terminated enumeration, and a ceiling-bound run
// equals a MaxScore-bound run at the same cutoff.
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "code/ExprPrinter.h"
#include "complete/BatchExecutor.h"
#include "corpus/Generator.h"
#include "eval/Harvest.h"
#include "parser/Frontend.h"
#include "rank/ScoreCard.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace petal;

namespace {

/// "all", "none", and each Fig. 7 term disabled on its own.
const char *AblationSpecs[] = {"all", "none", "-t", "-a",
                               "-d",  "-s",   "-n", "-m"};

//===----------------------------------------------------------------------===//
// Card arithmetic
//===----------------------------------------------------------------------===//

TEST(ScoreCardTest, AccumulationAndEquality) {
  ScoreCard A;
  A.term(ScoreTerm::Depth) = 2;
  A.term(ScoreTerm::Namespace) = 3;
  EXPECT_EQ(A.total(), 5);

  ScoreCard B;
  B.term(ScoreTerm::Depth) = 1;
  B.Subexpr = 7; // informational: never part of total()
  A += B;
  EXPECT_EQ(A.term(ScoreTerm::Depth), 3);
  EXPECT_EQ(A.Subexpr, 7);
  EXPECT_EQ(A.total(), 6);

  ScoreCard C = A;
  EXPECT_EQ(A, C);
  C.term(ScoreTerm::MatchingName) = 1;
  EXPECT_NE(A, C);
}

//===----------------------------------------------------------------------===//
// Direct engine: cards match the standalone scorer under every ablation
//===----------------------------------------------------------------------===//

class ExplainEngineTest : public ::testing::Test {
protected:
  void load(const char *Source, const char *ClassName,
            const char *MethodName) {
    TS = std::make_unique<TypeSystem>();
    P = std::make_unique<Program>(*TS);
    ASSERT_TRUE(loadProgramText(Source, *P, Diags));
    Class = findCodeClass(*P, ClassName);
    ASSERT_NE(Class, nullptr);
    Method = findCodeMethod(*P, *Class, MethodName);
    ASSERT_NE(Method, nullptr);
    Site = {Class, Method, Method->body().size()};
    Idx = std::make_unique<CompletionIndexes>(*P);
    Engine = std::make_unique<CompletionEngine>(*P, *Idx);
  }

  const PartialExpr *query(const char *Text) {
    QueryScope Scope{Class, Method, Site.StmtIndex};
    const PartialExpr *Q = parseQueryText(Text, *P, Scope, Diags);
    EXPECT_NE(Q, nullptr);
    return Q;
  }

  DiagnosticEngine Diags;
  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
  const CodeClass *Class = nullptr;
  const CodeMethod *Method = nullptr;
  CodeSite Site;
  std::unique_ptr<CompletionIndexes> Idx;
  std::unique_ptr<CompletionEngine> Engine;
};

class ExplainAblationTest : public ExplainEngineTest,
                            public ::testing::WithParamInterface<const char *> {
};

TEST_P(ExplainAblationTest, CardsDecomposeAndMatchStandaloneScorer) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  CompletionOptions Opts;
  Opts.Rank = RankingOptions::fromSpec(GetParam());
  Opts.Explain = true;

  // Mirror the engine's scoring configuration exactly, including the
  // full-corpus abstract-type solution it uses by default.
  AbsTypeSolution Sol = Idx->Infer.solve();
  Ranker R(*TS, Opts.Rank);
  R.setSelfType(Class->type());
  if (Opts.Rank.UseAbstractTypes)
    R.setAbstractTypes(&Idx->Infer, &Sol, Method);

  size_t Checked = 0;
  for (const char *Q : {"?", "Distance(point, ?)", "?({point})",
                        "point.?*m >= this.?*m"}) {
    for (const Completion &C : Engine->complete(query(Q), Site, 50, Opts)) {
      ASSERT_NE(C.Card, nullptr) << Q;
      EXPECT_EQ(C.Card->total(), C.Score) << printExpr(*TS, C.E);
      EXPECT_EQ(*C.Card, R.scoreCard(C.E)) << printExpr(*TS, C.E);
      EXPECT_EQ(R.scoreExpr(C.E), C.Score) << printExpr(*TS, C.E);
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAblations, ExplainAblationTest,
                         ::testing::ValuesIn(AblationSpecs));

TEST_F(ExplainEngineTest, ExplainOffLeavesResultsUntouched) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  CompletionOptions Off; // Explain defaults to false
  CompletionOptions On;
  On.Explain = true;

  auto Render = [this](const std::vector<Completion> &Results) {
    std::ostringstream OS;
    for (const Completion &C : Results)
      OS << C.Score << ' ' << printExpr(*TS, C.E) << '\n';
    return OS.str();
  };
  for (const char *Q : {"?", "Distance(point, ?)", "?({point})"}) {
    std::vector<Completion> Plain = Engine->complete(query(Q), Site, 30, Off);
    for (const Completion &C : Plain)
      EXPECT_EQ(C.Card, nullptr);
    std::string Want = Render(Plain);
    EXPECT_EQ(Render(Engine->complete(query(Q), Site, 30, On)), Want) << Q;
  }
}

//===----------------------------------------------------------------------===//
// Batched property over a generated corpus, serial vs. threaded
//===----------------------------------------------------------------------===//

class BatchExplainProperty : public ::testing::TestWithParam<const char *> {};

TEST_P(BatchExplainProperty, EveryEmittedCandidateDecomposesExactly) {
  ProjectProfile Prof = paperProjectProfiles(0.15)[5];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  CompletionIndexes Idx(P);

  // Replay harvested call sites as §5.1-style unknown-method queries.
  HarvestResult Sites = harvestProgram(P);
  Arena &A = P.arena();
  CompletionOptions Opts;
  Opts.Rank = RankingOptions::fromSpec(GetParam());
  Opts.Explain = true;
  std::vector<BatchExecutor::Request> Reqs;
  for (const CallSiteInfo &CS : Sites.Calls) {
    std::vector<const PartialExpr *> Args;
    if (CS.Call->receiver() && isGuessableExpr(CS.Call->receiver()))
      Args.push_back(A.create<ConcretePE>(CS.Call->receiver()));
    for (const Expr *Arg : CS.Call->args())
      if (isGuessableExpr(Arg))
        Args.push_back(A.create<ConcretePE>(Arg));
    if (Args.empty())
      continue;
    Reqs.push_back({A.create<UnknownCallPE>(std::move(Args)), CS.Site, 10,
                    Opts, nullptr});
    if (Reqs.size() == 24)
      break;
  }
  ASSERT_FALSE(Reqs.empty());

  // The invariant holds per candidate, and the full (expr, score, card)
  // sequence is thread-count independent.
  auto Render = [&](const BatchExecutor::BatchResult &Batch) {
    std::ostringstream OS;
    for (const std::vector<Completion> &Results : Batch.Results)
      for (const Completion &C : Results) {
        EXPECT_NE(C.Card, nullptr);
        EXPECT_EQ(C.Card->total(), C.Score) << printExpr(TS, C.E);
        OS << C.Score << ' ' << printExpr(TS, C.E) << ' '
           << C.Card->toString() << '\n';
      }
    return OS.str();
  };

  BatchExecutor Serial(P, Idx, 1);
  std::string Want = Render(Serial.completeBatch(Reqs));
  EXPECT_FALSE(Want.empty());

  BatchExecutor Threaded(P, Idx, 4);
  EXPECT_EQ(Render(Threaded.completeBatch(Reqs)), Want);
}

INSTANTIATE_TEST_SUITE_P(AllAblations, BatchExplainProperty,
                         ::testing::ValuesIn(AblationSpecs));

//===----------------------------------------------------------------------===//
// Score ceiling
//===----------------------------------------------------------------------===//

/// One candidate per bucket, recording the highest bucket materialized.
struct CountingStream : CandidateStream {
  void fillBucket(int S, CandidateVec &Out) override {
    Filled = S;
    Out.push_back(Candidate{nullptr, S, InvalidId, 0});
  }
  int Filled = -1;
};

TEST(ScoreCeilingTest, BucketsBeyondTheCeilingAreEmptyAndLatch) {
  CountingStream S;
  S.setCeiling(3);
  for (int I = 0; I <= 3; ++I)
    EXPECT_EQ(S.bucket(I).size(), 1u);
  EXPECT_FALSE(S.ceilingHit());

  // Past the ceiling: permanently empty, nothing materialized, flag latches.
  EXPECT_TRUE(S.bucket(4).empty());
  EXPECT_TRUE(S.bucket(1000).empty());
  EXPECT_EQ(S.Filled, 3);
  EXPECT_TRUE(S.ceilingHit());

  // Buckets at or below the ceiling still replay from cache.
  EXPECT_EQ(S.bucket(2).front().Score, 2);
}

TEST_F(ExplainEngineTest, CeilingBoundsExplorationAndReportsTheHit) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");

  // A hostile MaxScore must not drive exploration past the ceiling, and
  // the truncation must be reported.
  CompletionOptions Tight;
  Tight.MaxScore = 1000000;
  Tight.ScoreCeiling = 2;
  std::vector<Completion> Bounded =
      Engine->complete(query("?"), Site, 500, Tight);
  for (const Completion &C : Bounded)
    EXPECT_LE(C.Score, 2);
  ASSERT_LT(Bounded.size(), 500u);
  EXPECT_TRUE(Engine->lastQueryStats().ScoreCeilingHit);
  EXPECT_LE(Engine->lastQueryStats().LastBucket, 2);
  // Print before the next query: it reuses the arena these Exprs live in.
  std::vector<std::string> BoundedText;
  for (const Completion &C : Bounded)
    BoundedText.push_back(printExpr(*TS, C.E));

  // The ceiling-bound run is exactly the MaxScore-bound run at the same
  // cutoff.
  CompletionOptions SameCut;
  SameCut.MaxScore = 2;
  std::vector<Completion> Want =
      Engine->complete(query("?"), Site, 500, SameCut);
  ASSERT_EQ(Bounded.size(), Want.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    EXPECT_EQ(Bounded[I].Score, Want[I].Score);
    EXPECT_EQ(BoundedText[I], printExpr(*TS, Want[I].E));
  }
  // Running out at the caller's own MaxScore is not a ceiling hit.
  EXPECT_FALSE(Engine->lastQueryStats().ScoreCeilingHit);
}

} // namespace

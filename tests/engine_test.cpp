//===- tests/engine_test.cpp - Completion-engine behavior tests -----------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "code/ExprPrinter.h"
#include "code/Verify.h"
#include "complete/Engine.h"
#include "parser/Frontend.h"

#include <gtest/gtest.h>

using namespace petal;

namespace {

class EngineTest : public ::testing::Test {
protected:
  void load(const char *Source, const char *ClassName,
            const char *MethodName) {
    TS = std::make_unique<TypeSystem>();
    P = std::make_unique<Program>(*TS);
    ASSERT_TRUE(loadProgramText(Source, *P, Diags)) << diagText();
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
    EXPECT_NE(Q, nullptr) << diagText();
    return Q;
  }

  std::vector<Completion> run(const char *Text, size_t N,
                              CompletionOptions Opts = {}) {
    const PartialExpr *Q = query(Text);
    if (!Q)
      return {};
    return Engine->complete(Q, Site, N, Opts);
  }

  std::string diagText() const {
    std::ostringstream OS;
    Diags.print(OS);
    return OS.str();
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

//===----------------------------------------------------------------------===//
// Core invariants
//===----------------------------------------------------------------------===//

TEST_F(EngineTest, ScoresAreNonDecreasing) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  for (const char *Q : {"?", "Distance(point, ?)", "point.?*m >= this.?*m",
                        "?({point})", "this.?*f"}) {
    std::vector<Completion> Results = run(Q, 200);
    for (size_t I = 1; I < Results.size(); ++I)
      ASSERT_LE(Results[I - 1].Score, Results[I].Score) << Q;
  }
}

TEST_F(EngineTest, EveryCompletionTypeChecks) {
  // Fig. 6: "The final result must type-check in the context of the query,
  // treating 0 as having any type."
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  for (const char *Q : {"?", "Distance(point, ?)", "point.?*m >= this.?*m",
                        "?({point, this})", "this.?*m"}) {
    for (const Completion &C : run(Q, 300)) {
      std::string Why;
      ASSERT_TRUE(verifyExpr(*TS, C.E, &Why))
          << Q << " -> " << printExpr(*TS, C.E) << ": " << Why;
    }
  }
}

TEST_F(EngineTest, ReportedScoresMatchTheStandaloneScorer) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  // Mirror the engine's configuration exactly, including the abstract-type
  // solution it uses by default (the full-corpus one).
  AbsTypeSolution Sol = Idx->Infer.solve();
  Ranker R(*TS, RankingOptions::all());
  R.setSelfType(Class->type());
  R.setAbstractTypes(&Idx->Infer, &Sol, Method);
  for (const char *Q : {"?", "Distance(point, ?)", "?({point})"}) {
    for (const Completion &C : run(Q, 100))
      ASSERT_EQ(C.Score, R.scoreExpr(C.E)) << printExpr(*TS, C.E);
  }
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  auto Print = [this](const std::vector<Completion> &Results) {
    std::string Out;
    for (const Completion &C : Results)
      Out += std::to_string(C.Score) + " " + printExpr(*TS, C.E) + "\n";
    return Out;
  };
  std::string First = Print(run("point.?*m >= this.?*m", 50));
  std::string Second = Print(run("point.?*m >= this.?*m", 50));
  EXPECT_EQ(First, Second);

  // And across engine instances.
  CompletionEngine Fresh(*P, *Idx);
  std::string Third = Print(Fresh.complete(
      query("point.?*m >= this.?*m"), Site, 50));
  EXPECT_EQ(First, Third);
}

TEST_F(EngineTest, RespectsN) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  EXPECT_EQ(run("?", 3).size(), 3u);
  EXPECT_EQ(run("?", 1).size(), 1u);
}

//===----------------------------------------------------------------------===//
// Suffix semantics
//===----------------------------------------------------------------------===//

TEST_F(EngineTest, NonStarSuffixTakesAtMostOneStep) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  // this.?f: `this` itself (suffix omitted) plus exactly one field lookup.
  for (const Completion &C : run("this.?f", 100)) {
    std::string S = printExpr(*TS, C.E);
    size_t Dots = std::count(S.begin(), S.end(), '.');
    ASSERT_LE(Dots, 1u) << S;
    ASSERT_EQ(S.find("("), std::string::npos) << "?f admits no calls: " << S;
  }
}

TEST_F(EngineTest, MemberSuffixAdmitsZeroArgMethods) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  bool SawCall = false;
  for (const Completion &C : run("shapeStyle.?m", 100))
    SawCall |= printExpr(*TS, C.E) == "shapeStyle.GetSampleGlyph()";
  EXPECT_TRUE(SawCall);
}

TEST_F(EngineTest, StarSuffixReachesDeepChains) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  bool SawTwoStep = false;
  for (const Completion &C : run("shapeStyle.?*m", 200))
    SawTwoStep |= printExpr(*TS, C.E) ==
                  "shapeStyle.GetSampleGlyph().RenderTransformOrigin";
  EXPECT_TRUE(SawTwoStep);
}

TEST_F(EngineTest, SuffixOmittedCompletionComesFirst) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  std::vector<Completion> Results = run("point.?*m", 10);
  ASSERT_FALSE(Results.empty());
  EXPECT_EQ(printExpr(*TS, Results[0].E), "point");
  EXPECT_EQ(Results[0].Score, 0);
}

//===----------------------------------------------------------------------===//
// Holes and expected types
//===----------------------------------------------------------------------===//

TEST_F(EngineTest, HoleEnumeratesLocalsThisAndGlobals) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  std::vector<std::string> Seen;
  for (const Completion &C : run("?", 60))
    Seen.push_back(printExpr(*TS, C.E));
  auto Has = [&Seen](const char *S) {
    return std::find(Seen.begin(), Seen.end(), S) != Seen.end();
  };
  EXPECT_TRUE(Has("point"));
  EXPECT_TRUE(Has("shapeStyle"));
  EXPECT_TRUE(Has("this"));
  EXPECT_TRUE(Has("DynamicGeometry.Math.InfinitePoint"));
}

TEST_F(EngineTest, ExpectedTypeFiltersResults) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  CompletionOptions Opts;
  Opts.ExpectedType = TS->findType("System.Windows.Point");
  for (const Completion &C : run("?", 100, Opts))
    ASSERT_TRUE(TS->implicitlyConvertible(C.E->type(), Opts.ExpectedType))
        << printExpr(*TS, C.E);
}

TEST_F(EngineTest, VoidExpectedTypeKeepsOnlyVoidCalls) {
  load(corpora::PaintCorpus, "Client", "Work");
  CompletionOptions Opts;
  Opts.ExpectedType = TS->voidType();
  std::vector<Completion> Results = run("?({img, size})", 50, Opts);
  ASSERT_FALSE(Results.empty());
  for (const Completion &C : Results)
    ASSERT_EQ(C.E->type(), TS->voidType()) << printExpr(*TS, C.E);
}

//===----------------------------------------------------------------------===//
// Unknown calls
//===----------------------------------------------------------------------===//

TEST_F(EngineTest, UnknownCallPlacesArgumentsInjectively) {
  load(corpora::PaintCorpus, "Client", "Work");
  for (const Completion &C : run("?({img, size})", 50)) {
    const auto *Call = dyn_cast<CallExpr>(C.E);
    ASSERT_NE(Call, nullptr);
    // Each given argument appears exactly once across the call signature.
    std::string S = printExpr(*TS, C.E);
    size_t ImgCount = 0, Pos = 0;
    while ((Pos = S.find("img", Pos)) != std::string::npos) {
      ++ImgCount;
      Pos += 3;
    }
    ASSERT_EQ(ImgCount, 1u) << S;
  }
}

TEST_F(EngineTest, InstanceReceiverIsNeverDontCare) {
  load(corpora::PaintCorpus, "Client", "Work");
  for (const Completion &C : run("?({img, size})", 100)) {
    const auto *Call = cast<CallExpr>(C.E);
    if (Call->receiver()) {
      ASSERT_FALSE(isa<DontCareExpr>(Call->receiver()))
          << printExpr(*TS, C.E);
    }
  }
}

TEST_F(EngineTest, UnknownCallHonorsDontCareArgs) {
  load(corpora::PaintCorpus, "Client", "Work");
  // ?({img, 0}): the 0 reserves an extra position but constrains nothing.
  std::vector<Completion> Results = run("?({img, 0})", 50);
  ASSERT_FALSE(Results.empty());
  for (const Completion &C : Results) {
    const auto *Call = cast<CallExpr>(C.E);
    ASSERT_GE(TS->numCallParams(Call->method()), 2u)
        << printExpr(*TS, C.E);
  }
}

//===----------------------------------------------------------------------===//
// Known calls
//===----------------------------------------------------------------------===//

TEST_F(EngineTest, KnownCallKeepsConcreteArgsFixed) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  for (const Completion &C : run("Distance(point, ?)", 50)) {
    const auto *Call = cast<CallExpr>(C.E);
    ASSERT_EQ(TS->method(Call->method()).Name, "Distance");
    ASSERT_EQ(printExpr(*TS, Call->args()[0]), "point");
  }
}

TEST_F(EngineTest, KnownCallWithBothArgsConcreteYieldsOneResult) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  std::vector<Completion> Results = run("Distance(point, point)", 10);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(printExpr(*TS, Results[0].E),
            "DynamicGeometry.Math.Distance(point, point)");
}

//===----------------------------------------------------------------------===//
// Binary queries
//===----------------------------------------------------------------------===//

TEST_F(EngineTest, AssignTargetsMustBeLValues) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  // LHS candidates include zero-arg method calls, which are not assignable;
  // none may survive.
  for (const Completion &C : run("shapeStyle.?m = ?", 100)) {
    const auto *A = cast<AssignExpr>(C.E);
    ASSERT_TRUE(isLValue(A->lhs())) << printExpr(*TS, C.E);
  }
}

TEST_F(EngineTest, ComparisonsOnlyPairComparableTypes) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  for (const Completion &C : run("point.?*m >= this.?*m", 200)) {
    const auto *Cmp = cast<CompareExpr>(C.E);
    ASSERT_TRUE(TS->comparable(Cmp->lhs()->type(), Cmp->rhs()->type()))
        << printExpr(*TS, C.E);
  }
}

TEST_F(EngineTest, AssignmentRequiresConvertibleSides) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  for (const Completion &C : run("this.?f = point.?f", 200)) {
    const auto *A = cast<AssignExpr>(C.E);
    ASSERT_TRUE(TS->assignable(A->lhs()->type(), A->rhs()->type()))
        << printExpr(*TS, C.E);
  }
}

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

TEST_F(EngineTest, DepthDisabledStillTerminatesAndFinds) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  CompletionOptions Opts;
  Opts.Rank = RankingOptions::fromSpec("-d");
  std::vector<Completion> Results = run("Distance(point, ?)", 40, Opts);
  ASSERT_FALSE(Results.empty());
  bool SawChain = false;
  for (const Completion &C : Results)
    SawChain |= printExpr(*TS, C.E).find("this.Center") != std::string::npos;
  EXPECT_TRUE(SawChain);
}

TEST_F(EngineTest, RankOfFindsTheGroundTruth) {
  load(corpora::GeometryCorpus, "EllipseArc", "Examine");
  // Ground truth: Distance(point, this.Center).
  DiagnosticEngine D2;
  QueryScope Scope{Class, Method, Site.StmtIndex};
  const PartialExpr *Truth =
      parseQueryText("Distance(point, this.Center)", *P, Scope, D2);
  ASSERT_NE(Truth, nullptr);
  const Expr *TruthExpr = cast<ConcretePE>(Truth)->expr();

  size_t Rank = Engine->rankOf(query("Distance(point, ?)"), Site, TruthExpr,
                               50);
  EXPECT_GE(Rank, 1u);
  EXPECT_LE(Rank, 10u);
  // An absent expression ranks 0.
  const PartialExpr *Other = parseQueryText("this.Center", *P, Scope, D2);
  ASSERT_NE(Other, nullptr);
  EXPECT_EQ(Engine->rankOf(query("Distance(point, ?)"), Site,
                           cast<ConcretePE>(Other)->expr(), 50),
            0u);
}

} // namespace

//===- wirebench/tests/wirebench_test.cpp - The benchmark's own logic -----===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for what the benchmark computes itself: percentiles and the
// density rule, span self time, the readiness/completion split, scaling to
// nominal host speed, failure counting, the oracle check, and seed
// reproducibility.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracle.h"
#include "Runner.h"
#include "Stats.h"
#include "Trace.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace wirebench;

namespace {

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

TEST(Percentile, NearestRankOverShuffledSamples) {
  std::vector<double> V = iota(1000);
  std::reverse(V.begin(), V.end());
  EXPECT_EQ(percentile(V, 0.5), 500);
  EXPECT_EQ(percentile(V, 0.9), 900);
  EXPECT_EQ(percentile(V, 0.99), 990);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p99 over 1000 samples leaves exactly 10 above it; over 999, 9.
  EXPECT_TRUE(percentile(iota(1000), 0.99).has_value());
  EXPECT_FALSE(percentile(iota(999), 0.99).has_value());
  EXPECT_TRUE(percentile(iota(100), 0.9).has_value());
  EXPECT_FALSE(percentile(iota(99), 0.9).has_value());
  EXPECT_TRUE(percentile(iota(20), 0.5).has_value());
  EXPECT_FALSE(percentile(iota(19), 0.5).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
  EXPECT_EQ(samplesNeeded(0.99), 1000u);
  EXPECT_EQ(samplesNeeded(0.9), 100u);
  EXPECT_EQ(samplesNeeded(0.5), 20u);
}

Executed timedOp(OpKind Kind, double Start, double End, bool Event) {
  Executed X;
  X.Ph = Phase::Timed;
  X.Kind = Kind;
  X.StartUs = Start;
  X.EndUs = End;
  X.Event = Event;
  return X;
}

TEST(CompletionRate, LeavesEventCyclesOut) {
  // 0.5 s of completions, a 1 s event cycle (edit + probe), 0.5 s more:
  // 10 completions in 1 s of the loop's own time.
  std::vector<Executed> Ex;
  for (int I = 0; I != 5; ++I)
    Ex.push_back(timedOp(OpKind::Complete, I * 1e5, (I + 1) * 1e5, false));
  Ex.push_back(timedOp(OpKind::Change, 5e5, 1.4e6, true));
  Ex.push_back(timedOp(OpKind::Complete, 1.4e6, 1.5e6, true));
  for (int I = 0; I != 5; ++I)
    Ex.push_back(
        timedOp(OpKind::Complete, 1.5e6 + I * 1e5, 1.6e6 + I * 1e5, false));
  Executed Setup = timedOp(OpKind::Complete, -1e6, -0.5e6, false);
  Setup.Ph = Phase::Setup;
  Ex.insert(Ex.begin(), Setup);
  EXPECT_DOUBLE_EQ(completionRate(Ex, 0), 10);
}

TEST(CompletionRate, LeavesReferenceSlicesOut) {
  // Two 0.1 s completions; 0.3 s of reference slices ran before the second.
  std::vector<Executed> Ex = {
      timedOp(OpKind::Complete, 0, 1e5, false),
      timedOp(OpKind::Complete, 4e5, 5e5, false)};
  Ex[1].PauseUs = 3e5;
  EXPECT_DOUBLE_EQ(completionRate(Ex, 0), 10);
}

TEST(HostSpeed, ScalesByTheNearestSlices) {
  HostSpeed H;
  EXPECT_DOUBLE_EQ(H.scaleAt(0), 1); // no slices: as measured
  // Ten slices at nominal speed, then ten on a host twice as slow.
  for (int I = 0; I != 10; ++I)
    H.record(I * 1e5, HostSpeed::NominalUs);
  for (int I = 10; I != 20; ++I)
    H.record(I * 1e5, 2 * HostSpeed::NominalUs);
  EXPECT_DOUBLE_EQ(H.scaleAt(2e5), 1);
  EXPECT_DOUBLE_EQ(H.scaleAt(15e5), 0.5);
  // Past either end, the window is the nearest slices there are.
  EXPECT_DOUBLE_EQ(H.scaleAt(-1e6), 1);
  EXPECT_DOUBLE_EQ(H.scaleAt(1e9), 0.5);
  // One odd slice among its neighbours does not move the median.
  H.record(21e5, 10 * HostSpeed::NominalUs);
  EXPECT_DOUBLE_EQ(H.scaleAt(21e5), 0.5);
  EXPECT_DOUBLE_EQ(H.medianCpuUs(), 2 * HostSpeed::NominalUs);
}

TEST(HostSpeed, ScaledSamplesAndRateFollowTheHost) {
  HostSpeed H;
  for (int I = 0; I != 10; ++I)
    H.record(I * 1e6, I < 5 ? HostSpeed::NominalUs : 2 * HostSpeed::NominalUs);
  // The same 100 us request, once on each half of the run.
  Series S;
  S.add(100, 1e6);
  S.add(200, 8e6);
  EXPECT_EQ(atNominalSpeed(S, H).Values, std::vector<double>({100, 100}));
  EXPECT_EQ(atNominalSpeed(S, H).AtUs, S.AtUs);
  // Ten completions of 0.1 s each on the fast half, ten of 0.2 s on the
  // slow half: 10 per second at nominal speed throughout.
  std::vector<Executed> Ex;
  double T = 0;
  for (int I = 0; I != 20; ++I) {
    double Took = I < 10 ? 1e5 : 2e5;
    if (I == 10)
      T = 8e6; // the loop idles in between, outside any request
    Ex.push_back(timedOp(OpKind::Complete, T, T + Took, false));
    T += Took;
  }
  Ex[10].PauseUs = 8e6 - 1e6;
  EXPECT_DOUBLE_EQ(completionRate(Ex, 0, &H), 10);
}

Span span(int64_t Parent, double Start, double End) {
  Span S;
  S.Name = "s";
  S.Parent = Parent;
  S.StartUs = Start;
  S.EndUs = End;
  return S;
}

TEST(SelfTime, NestedChildrenAreSubtracted) {
  // root [0,100) > a [10,30) > b [15,20); root > c [50,60).
  std::vector<Span> Spans = {span(-1, 0, 100), span(0, 10, 30),
                             span(1, 15, 20), span(0, 50, 60)};
  std::vector<double> Self = selfTimesUs(Spans);
  EXPECT_DOUBLE_EQ(Self[0], 70);
  EXPECT_DOUBLE_EQ(Self[1], 15);
  EXPECT_DOUBLE_EQ(Self[2], 5);
  EXPECT_DOUBLE_EQ(Self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two children overlapping on [20,30) and one reaching past the parent.
  std::vector<Span> Spans = {span(-1, 0, 100), span(0, 10, 30),
                             span(0, 20, 40), span(0, 90, 120)};
  std::vector<double> Self = selfTimesUs(Spans);
  EXPECT_DOUBLE_EQ(Self[0], 100 - 30 - 10);
}

TEST(SelfTime, TracerRecordsParentsAcrossScopes) {
  Tracer T;
  {
    Scope Root(&T, "root", 7);
    Scope Child(&T, "child", 7, Root.index());
  }
  std::vector<Span> Spans = T.spans();
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[1].Parent, 0);
  EXPECT_EQ(Spans[1].Request, 7u);
  EXPECT_LE(Spans[0].StartUs, Spans[1].StartUs);
  EXPECT_GE(Spans[0].EndUs, Spans[1].EndUs);
}

Executed exec(OpKind K, Phase Ph, uint32_t Doc, double Start, double End,
              uint32_t Slot = 0) {
  Executed X;
  X.Kind = K;
  X.Ph = Ph;
  X.Doc = Doc;
  X.Slot = Slot;
  X.StartUs = Start;
  X.EndUs = End;
  return X;
}

TEST(Classify, FirstCompletionAfterOpenOrEditIsReadiness) {
  std::vector<Executed> Ex = {
      exec(OpKind::Open, Phase::Setup, 0, 0, 1000),
      exec(OpKind::Complete, Phase::Setup, 0, 1000, 3000), // set-up only
      exec(OpKind::Complete, Phase::Timed, 0, 3000, 3010), // 10 us
      exec(OpKind::Change, Phase::Timed, 0, 4000, 9000),
      exec(OpKind::Complete, Phase::Timed, 1, 9000, 9020), // other doc
      exec(OpKind::Complete, Phase::Timed, 0, 9100, 10000), // edit: 6 ms
      exec(OpKind::Complete, Phase::Timed, 0, 10000, 10030),
      exec(OpKind::Open, Phase::Timed, 0, 20000, 21000, 5),
      exec(OpKind::Close, Phase::Timed, 0, 21000, 21100, 5),
      exec(OpKind::Complete, Phase::Setup, 0, 30000, 30040),
      exec(OpKind::Open, Phase::Timed, 0, 40000, 41000, 6),
      exec(OpKind::Complete, Phase::Timed, 0, 41000, 43000, 6), // open: 3 ms
  };
  Samples S = classify(Ex);
  // Readiness is a timed-phase figure: set-up opens are part of setup_s.
  EXPECT_EQ(S.Open.Values, std::vector<double>({3.0}));
  EXPECT_EQ(S.Edit.Values, std::vector<double>({6.0}));
  // The readiness completions never land in complete_*, and neither do
  // completions outside the timed phase.
  EXPECT_EQ(S.Complete.Values, std::vector<double>({10, 20, 30}));
  EXPECT_EQ(S.Complete.AtUs, std::vector<double>({3010, 9020, 10030}));
}

/// A tiny hand-made workload over one document, for verify().
struct Fixture {
  Inputs In;
  Oracle O;
  Fixture() {
    DocSpec D;
    D.Name = "doc.cs";
    TextVersion T;
    T.Text = "namespace App {\n"
                          "  class Point {\n"
                          "    int X;\n"
                          "    int Y;\n"
                          "  }\n"
                          "  class AppClient0 {\n"
                          "    void Run0(App.Point p, int count) {\n"
                          "      p.X = count;\n"
                          "    }\n"
                          "  }\n"
                          "}\n";
    D.Versions.push_back(T);
    D.Queries.push_back({"App.AppClient0", "Run0", "p.?m = count.?m",
                         Family::Lookup});
    In.Docs.push_back(D);
  }

  Executed completion(int64_t Id, const std::string &Completions) {
    Executed X = exec(OpKind::Complete, Phase::Timed, 0, 0, 1);
    X.Id = Id;
    X.Version = 1;
    X.Hash = fnv1a(expectedCompleteResponse(Id, "doc.cs", 1, Completions));
    return X;
  }
};

TEST(Verify, MatchingAnswersPass) {
  Fixture F;
  const std::string &Ref =
      F.O.completions(0, 0, F.In.Docs[0].Versions[0].Text,
                      F.In.Docs[0].Queries[0]);
  ASSERT_FALSE(Ref.empty());
  ASSERT_NE(Ref, "[]");
  Verdict V = verify(F.In, F.O, {F.completion(1, Ref), F.completion(2, Ref)},
                     {});
  EXPECT_TRUE(V.correct()) << V.FirstProblem;
  EXPECT_EQ(V.Attempted, 2u);
}

TEST(Verify, CorruptedReferenceFailsTheRun) {
  Fixture F;
  std::string Ref = F.O.completions(0, 0, F.In.Docs[0].Versions[0].Text,
                                    F.In.Docs[0].Queries[0]);
  std::string Corrupt = Ref;
  Corrupt[Corrupt.find("\"score\":") + 8] ^= 1; // a score digit off by one
  Verdict V = verify(F.In, F.O, {F.completion(1, Corrupt)}, {});
  EXPECT_FALSE(V.correct());
  EXPECT_EQ(V.Mismatched, 1u);
}

TEST(Verify, ErrorsAndLostResponsesCountAsFailed) {
  Fixture F;
  Executed Lost = F.completion(1, "[]");
  Lost.Error = true;
  Executed Err = exec(OpKind::Open, Phase::Setup, 0, 0, 1);
  Err.Id = 2;
  Err.Error = true;
  Err.Payload = 0;
  Verdict V = verify(F.In, F.O, {Lost, Err},
                     {"{\"jsonrpc\":\"2.0\",\"id\":2,\"error\":{}}"});
  EXPECT_EQ(V.Attempted, 2u);
  EXPECT_EQ(V.Failed, 2u);
  EXPECT_FALSE(V.correct());
}

TEST(Verify, OpenMustReportTheExpectedRoute) {
  Fixture F;
  Executed Open = exec(OpKind::Open, Phase::Setup, 0, 0, 1);
  Open.Id = 1;
  Open.Version = 1;
  Open.Payload = 0;
  std::string Full = "{\"jsonrpc\":\"2.0\",\"id\":1,\"result\":{\"doc\":"
                     "\"doc.cs\",\"version\":1,\"build\":\"full\"}}";
  EXPECT_TRUE(verify(F.In, F.O, {Open}, {Full}).correct());
  std::string Noop = Full;
  Noop.replace(Noop.find("full"), 4, "incremental-noop");
  EXPECT_FALSE(verify(F.In, F.O, {Open}, {Noop}).correct());
}

/// The (name, unit) pairs of one metric list of BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> specList(const char *Key) {
  std::ifstream In(WIREBENCH_SPEC);
  std::stringstream Buf;
  Buf << In.rdbuf();
  petal::json::Value Spec;
  std::string Error;
  EXPECT_TRUE(petal::json::parse(Buf.str(), Spec, Error)) << Error;
  std::vector<std::pair<std::string, std::string>> Out;
  if (const petal::json::Value *List = Spec.find(Key))
    for (const petal::json::Value &M : List->elements())
      Out.push_back({M.getString("name"), M.getString("unit")});
  return Out;
}

TEST(Spec, ReportedMetricsMatchBenchmarkJson) {
  EXPECT_EQ(specList("end_to_end"), endToEndMetrics());
  EXPECT_EQ(specList("per_layer"), coreLayerMetrics());
}

TEST(Inputs, SeedReproducesInputsByteForByte) {
  for (Workload W : {Workload::CompleteMiss, Workload::CompleteHit,
                     Workload::EditType, Workload::WorkspaceOverlay}) {
    Oracle A, B, C;
    uint64_t First = generateInputs(W, 1, A).digest();
    EXPECT_EQ(First, generateInputs(W, 1, B).digest()) << workloadName(W);
    EXPECT_NE(First, generateInputs(W, 2, C).digest()) << workloadName(W);
  }
}

TEST(Inputs, EditsTakeTheirRoutes) {
  Oracle O;
  Inputs In = generateInputs(Workload::EditType, 1, O);
  size_t Kinds[4] = {0, 0, 0, 0};
  for (const TextVersion &V : In.Docs[0].Versions)
    ++Kinds[static_cast<int>(V.Kind)];
  EXPECT_EQ(Kinds[0], 1u);
  EXPECT_GT(Kinds[1], 0u);
  EXPECT_GT(Kinds[2], 0u);
  EXPECT_GT(Kinds[3], 0u);
  // Every harvested query parses in every edited version too.
  for (uint32_t V = 0; V != In.Docs[0].Versions.size(); ++V)
    for (size_t Q = 0; Q < In.Docs[0].Queries.size(); Q += 97)
      EXPECT_TRUE(O.queryParses(0, V, In.Docs[0].Versions[V].Text,
                                In.Docs[0].Queries[Q]));
}

} // namespace

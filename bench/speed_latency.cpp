//===- bench/speed_latency.cpp - §5 speed claims + ablations --------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Reproduces the paper's speed paragraphs (§5.1: 98.9% of method queries
// under 0.5 s; §5.2: 92% of argument queries under 0.1 s; §5.3: 99.5% of
// lookup queries under 0.5 s) as a latency summary, then runs
// google-benchmark microbenchmarks for the individual engine pieces and one
// ablation beyond the paper: the parameter-type method index vs a
// brute-force scan of all methods.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

using namespace petal;
using namespace petal::bench;

namespace {

/// Shared fixture: one mid-size project plus prepared query ingredients.
struct Fixture {
  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
  std::unique_ptr<CompletionIndexes> Idx;
  HarvestResult Sites;
  const CallSiteInfo *TwoArgCall = nullptr; ///< a call with >=2 guessable args
  const CompareSiteInfo *Cmp = nullptr;

  static Fixture &get() {
    static Fixture F;
    return F;
  }

private:
  Fixture() {
    ProjectProfile Prof = paperProjectProfiles(benchScale())[0];
    TS = std::make_unique<TypeSystem>();
    P = std::make_unique<Program>(*TS);
    CorpusGenerator Gen(Prof);
    Gen.generate(*P);
    Idx = std::make_unique<CompletionIndexes>(*P);
    // Pre-warm every lazy cache so the microbenchmarks measure the
    // steady-state lookup cost, not first-touch cache fills.
    Idx->freeze();
    Sites = harvestProgram(*P);
    for (const CallSiteInfo &CS : Sites.Calls) {
      size_t Guessable = 0;
      if (CS.Call->receiver() && isGuessableExpr(CS.Call->receiver()))
        ++Guessable;
      for (const Expr *A : CS.Call->args())
        Guessable += isGuessableExpr(A);
      if (Guessable >= 2) {
        TwoArgCall = &CS;
        break;
      }
    }
    if (!Sites.Compares.empty())
      Cmp = &Sites.Compares.front();
  }
};

/// Builds the ?({a, b}) query for the fixture's two-argument call.
const PartialExpr *makeUnknownCallQuery(Fixture &F) {
  Arena &A = F.P->arena();
  std::vector<const PartialExpr *> Args;
  const CallExpr *Call = F.TwoArgCall->Call;
  if (Call->receiver() && isGuessableExpr(Call->receiver()))
    Args.push_back(A.create<ConcretePE>(Call->receiver()));
  for (const Expr *Arg : Call->args()) {
    if (Args.size() == 2)
      break;
    if (isGuessableExpr(Arg))
      Args.push_back(A.create<ConcretePE>(Arg));
  }
  return A.create<UnknownCallPE>(std::move(Args));
}

/// Builds the M(a, ?, ...) query for the fixture's call.
const PartialExpr *makeArgumentQuery(Fixture &F) {
  Arena &A = F.P->arena();
  const CallExpr *Call = F.TwoArgCall->Call;
  std::vector<const PartialExpr *> Args;
  bool HoleUsed = false;
  if (Call->receiver())
    Args.push_back(A.create<ConcretePE>(Call->receiver()));
  for (const Expr *Arg : Call->args()) {
    if (!HoleUsed && isGuessableExpr(Arg)) {
      Args.push_back(A.create<HolePE>());
      HoleUsed = true;
    } else {
      Args.push_back(A.create<ConcretePE>(Arg));
    }
  }
  const MethodInfo &MI = F.TS->method(Call->method());
  return A.create<KnownCallPE>(MI.Name, std::move(Args),
                               std::vector<MethodId>{Call->method()});
}

/// Builds the l.?m.?m OP r.?m.?m query for the fixture's comparison.
const PartialExpr *makeLookupQuery(Fixture &F) {
  Arena &A = F.P->arena();
  const CompareExpr *C = F.Cmp->Compare;
  auto Wrap = [&](const Expr *E) -> const PartialExpr * {
    const PartialExpr *P0 = A.create<ConcretePE>(E);
    const PartialExpr *P1 = A.create<SuffixPE>(P0, SuffixKind::Member);
    return A.create<SuffixPE>(P1, SuffixKind::Member);
  };
  return A.create<ComparePE>(C->op(), Wrap(C->lhs()), Wrap(C->rhs()));
}

void BM_MethodQuery(benchmark::State &State) {
  Fixture &F = Fixture::get();
  const PartialExpr *Q = makeUnknownCallQuery(F);
  CompletionEngine Engine(*F.P, *F.Idx);
  for (auto _ : State)
    benchmark::DoNotOptimize(Engine.complete(Q, F.TwoArgCall->Site, 10));
}
BENCHMARK(BM_MethodQuery);

void BM_ArgumentQuery(benchmark::State &State) {
  Fixture &F = Fixture::get();
  const PartialExpr *Q = makeArgumentQuery(F);
  CompletionEngine Engine(*F.P, *F.Idx);
  for (auto _ : State)
    benchmark::DoNotOptimize(Engine.complete(Q, F.TwoArgCall->Site, 10));
}
BENCHMARK(BM_ArgumentQuery);

void BM_LookupQuery(benchmark::State &State) {
  Fixture &F = Fixture::get();
  const PartialExpr *Q = makeLookupQuery(F);
  CompletionEngine Engine(*F.P, *F.Idx);
  for (auto _ : State)
    benchmark::DoNotOptimize(Engine.complete(Q, F.Cmp->Site, 10));
}
BENCHMARK(BM_LookupQuery);

void BM_MethodIndexLookup(benchmark::State &State) {
  Fixture &F = Fixture::get();
  TypeId T = F.TwoArgCall->Call->receiver()
                 ? F.TwoArgCall->Call->receiver()->type()
                 : F.TS->method(F.TwoArgCall->Call->method()).Owner;
  for (auto _ : State) {
    // The indexed path: bucket union over the supertype chain (memoized,
    // so this measures the steady-state lookup).
    benchmark::DoNotOptimize(F.Idx->Methods.candidatesForArgType(T));
  }
}
BENCHMARK(BM_MethodIndexLookup);

void BM_MethodScan_BruteForce(benchmark::State &State) {
  Fixture &F = Fixture::get();
  TypeId T = F.TwoArgCall->Call->receiver()
                 ? F.TwoArgCall->Call->receiver()->type()
                 : F.TS->method(F.TwoArgCall->Call->method()).Owner;
  const TypeSystem &TS = *F.TS;
  for (auto _ : State) {
    // The unindexed path the paper's index avoids: scan every method and
    // test every parameter for convertibility.
    size_t Matches = 0;
    for (size_t M = 0; M != TS.numMethods(); ++M) {
      MethodId Id = static_cast<MethodId>(M);
      size_t N = TS.numCallParams(Id);
      for (size_t I = 0; I != N; ++I)
        if (TS.implicitlyConvertible(T, TS.callParamType(Id, I))) {
          ++Matches;
          break;
        }
    }
    benchmark::DoNotOptimize(Matches);
  }
}
BENCHMARK(BM_MethodScan_BruteForce);

void BM_MethodIndexBuild(benchmark::State &State) {
  Fixture &F = Fixture::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(MethodIndex(*F.TS));
}
BENCHMARK(BM_MethodIndexBuild);

void BM_AbstractInferenceBuild(benchmark::State &State) {
  Fixture &F = Fixture::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(AbstractTypeInference(*F.P));
}
BENCHMARK(BM_AbstractInferenceBuild);

void BM_AbstractInferenceSolve(benchmark::State &State) {
  Fixture &F = Fixture::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Idx->Infer.solve());
}
BENCHMARK(BM_AbstractInferenceSolve);

/// The paper's latency claims, reproduced over every query of the full
/// experiment suite on one project.
void printLatencySummary() {
  Fixture &F = Fixture::get();
  Evaluator Ev(*F.P, *F.Idx, RankingOptions::all());
  Ev.runMethodPrediction(false, false);
  double MethodUnderHalf = Ev.latency().fracUnder(500.0);

  Evaluator EvA(*F.P, *F.Idx, RankingOptions::all());
  EvA.runArgumentPrediction();
  double ArgUnderTenth = EvA.latency().fracUnder(100.0);
  double ArgUnderHalf = EvA.latency().fracUnder(500.0);

  Evaluator EvL(*F.P, *F.Idx, RankingOptions::all());
  EvL.runAssignments();
  EvL.runComparisons();
  double LookupUnderHalf = EvL.latency().fracUnder(500.0);

  TextTable T;
  T.setHeader({"Query class", "measured", "paper"});
  T.addRow({"method queries < 0.5 s",
            formatFixed(MethodUnderHalf * 100, 1) + "%", "98.9%"});
  T.addRow({"argument queries < 0.1 s",
            formatFixed(ArgUnderTenth * 100, 1) + "%", "92%"});
  T.addRow({"argument queries < 0.5 s",
            formatFixed(ArgUnderHalf * 100, 1) + "%", ">98%"});
  T.addRow({"lookup queries < 0.5 s",
            formatFixed(LookupUnderHalf * 100, 1) + "%", "99.5%"});
  std::cout << "Speed summary (§5.1–5.3):\n";
  T.print(std::cout);
  std::cout << "\n";
}

} // namespace

int main(int argc, char **argv) {
  banner("speed + ablation microbenchmarks", "§5.1–5.3 speed paragraphs",
         benchScale());
  printLatencySummary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

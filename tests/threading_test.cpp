//===- tests/threading_test.cpp - Concurrency layer tests -----------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Covers the parallel batch-query layer: the ThreadPool primitive, the
// BatchExecutor (parallel results must be bit-identical to serial ones),
// the parallel experiment drivers, and a multi-threaded stress over the
// frozen shared indexes. The stress cases are most valuable under
// ThreadSanitizer (cmake -DPETAL_SANITIZE=thread; see scripts/ci.sh) but
// also assert determinism in regular builds.
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "code/ExprPrinter.h"
#include "complete/BatchExecutor.h"
#include "corpus/Generator.h"
#include "eval/Experiments.h"
#include "parser/Frontend.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <thread>

using namespace petal;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);

  constexpr size_t N = 10000;
  std::vector<std::atomic<int>> Seen(N);
  std::atomic<size_t> MaxWorker{0};
  Pool.parallelFor(N, [&](size_t I, size_t W) {
    Seen[I].fetch_add(1, std::memory_order_relaxed);
    size_t Prev = MaxWorker.load(std::memory_order_relaxed);
    while (W > Prev &&
           !MaxWorker.compare_exchange_weak(Prev, W, std::memory_order_relaxed))
      ;
  });
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Seen[I].load(), 1) << "index " << I;
  EXPECT_LT(MaxWorker.load(), 4u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  size_t Calls = 0;
  Pool.parallelFor(64, [&](size_t, size_t W) {
    EXPECT_EQ(W, 0u);
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    ++Calls; // safe: inline execution
  });
  EXPECT_EQ(Calls, 64u);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool Pool(3);
  for (int Round = 0; Round != 20; ++Round) {
    std::atomic<size_t> Sum{0};
    Pool.parallelFor(100, [&](size_t I, size_t) {
      Sum.fetch_add(I, std::memory_order_relaxed);
    });
    EXPECT_EQ(Sum.load(), 100u * 99u / 2);
  }
}

TEST(ThreadPoolTest, PropagatesBodyException) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(256,
                                [&](size_t I, size_t) {
                                  if (I == 57)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<size_t> Count{0};
  Pool.parallelFor(32, [&](size_t, size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 32u);
}

TEST(ThreadPoolTest, CountsBodyExceptionsAndKeepsTheLastMessage) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.exceptionCount(), 0u);
  EXPECT_EQ(Pool.lastError(), "");

  // One throwing index per job (a second same-job throw is an assert in
  // debug builds); the counters accumulate across jobs on the same pool.
  EXPECT_THROW(Pool.parallelFor(64,
                                [&](size_t I, size_t) {
                                  if (I == 7)
                                    throw std::runtime_error("first boom");
                                }),
               std::runtime_error);
  EXPECT_EQ(Pool.exceptionCount(), 1u);
  EXPECT_NE(Pool.lastError().find("first boom"), std::string::npos);

  EXPECT_THROW(Pool.parallelFor(64,
                                [&](size_t I, size_t) {
                                  if (I == 9)
                                    throw std::runtime_error("second boom");
                                }),
               std::runtime_error);
  EXPECT_EQ(Pool.exceptionCount(), 2u);
  EXPECT_NE(Pool.lastError().find("second boom"), std::string::npos);

  // A clean job leaves the forensic state untouched.
  std::atomic<size_t> Count{0};
  Pool.parallelFor(32, [&](size_t, size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 32u);
  EXPECT_EQ(Pool.exceptionCount(), 2u);
  EXPECT_NE(Pool.lastError().find("second boom"), std::string::npos);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvOverride) {
  ::setenv("PETAL_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
  ::setenv("PETAL_THREADS", "0", 1); // invalid: fall back to hardware
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
  ::unsetenv("PETAL_THREADS");
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

//===----------------------------------------------------------------------===//
// BatchExecutor vs serial engine
//===----------------------------------------------------------------------===//

/// Loads the built-in geometry corpus and prepares parsed queries at the
/// scope of EllipseArc::Examine (the paper's Fig. 3/4 running example).
class BatchExecutorTest : public ::testing::Test {
protected:
  void SetUp() override {
    TS = std::make_unique<TypeSystem>();
    P = std::make_unique<Program>(*TS);
    ASSERT_TRUE(loadProgramText(corpora::GeometryCorpus, *P, Diags));
    Class = findCodeClass(*P, "EllipseArc");
    ASSERT_NE(Class, nullptr);
    Method = findCodeMethod(*P, *Class, "Examine");
    ASSERT_NE(Method, nullptr);
    Site = {Class, Method, Method->body().size()};
    Idx = std::make_unique<CompletionIndexes>(*P);
  }

  const PartialExpr *query(const char *Text) {
    QueryScope Scope{Class, Method, Site.StmtIndex};
    const PartialExpr *Q = parseQueryText(Text, *P, Scope, Diags);
    EXPECT_NE(Q, nullptr);
    return Q;
  }

  /// Renders results as "[score] expr" lines for structural comparison.
  std::string render(const std::vector<Completion> &Results) {
    std::ostringstream OS;
    for (const Completion &C : Results)
      OS << "[" << C.Score << "] " << printExpr(*TS, C.E) << "\n";
    return OS.str();
  }

  DiagnosticEngine Diags;
  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
  std::unique_ptr<CompletionIndexes> Idx;
  const CodeClass *Class = nullptr;
  const CodeMethod *Method = nullptr;
  CodeSite Site;
};

TEST_F(BatchExecutorTest, BatchedResultsMatchSerialEngine) {
  const char *Texts[] = {"?", "Distance(point, ?)", "point.?*m >= this.?*m",
                         "?({point})", "this.?*f"};

  // Serial reference: one engine, queries run back to back. Render each
  // result before the next query recycles the engine's arena.
  std::vector<std::string> Serial;
  {
    CompletionEngine Engine(*P, *Idx);
    for (const char *T : Texts)
      Serial.push_back(render(Engine.complete(query(T), Site, 10)));
  }

  // Parallel: many copies of the query list, fanned out over 4 workers.
  BatchExecutor Exec(*P, *Idx, 4);
  EXPECT_TRUE(Idx->frozen());
  std::vector<BatchExecutor::Request> Requests;
  constexpr size_t Copies = 16;
  for (size_t C = 0; C != Copies; ++C)
    for (const char *T : Texts)
      Requests.push_back({query(T), Site, 10, {}, nullptr});

  BatchExecutor::BatchResult Batch = Exec.completeBatch(Requests);
  ASSERT_EQ(Batch.Results.size(), Requests.size());
  for (size_t R = 0; R != Batch.Results.size(); ++R)
    EXPECT_EQ(render(Batch.Results[R]), Serial[R % std::size(Texts)])
        << "request " << R;
}

TEST_F(BatchExecutorTest, ResultsOutliveLaterBatches) {
  BatchExecutor Exec(*P, *Idx, 2);
  BatchExecutor::BatchResult First =
      Exec.completeBatch({{query("?"), Site, 5, {}, nullptr}});
  ASSERT_FALSE(First.Results[0].empty());
  std::string Before = render(First.Results[0]);

  // Run more batches through the same workers; the first batch's arena
  // ownership must keep its expressions alive and unchanged.
  for (int I = 0; I != 4; ++I)
    Exec.completeBatch({{query("this.?*m"), Site, 10, {}, nullptr}});
  EXPECT_EQ(render(First.Results[0]), Before);
}

TEST_F(BatchExecutorTest, WorkCountersRepeatAcrossRunsAndThreadCounts) {
  const char *Texts[] = {"?",          "Distance(point, ?)",
                         "point.?*m >= this.?*m", "?({point})",
                         "?({point, this})", "this.?f = point.?f"};
  std::vector<BatchExecutor::Request> Requests;
  for (size_t C = 0; C != 4; ++C)
    for (const char *T : Texts)
      Requests.push_back({query(T), Site, 10, {}, nullptr});

  using Counters = std::vector<std::pair<uint64_t, uint64_t>>;
  auto Run = [&](size_t Threads) {
    BatchExecutor Exec(*P, *Idx, Threads);
    Counters Out;
    for (const CompletionEngine::QueryStats &S :
         Exec.completeBatch(Requests).Stats)
      Out.push_back({S.CombosEnumerated, S.PendingPushed});
    return Out;
  };
  Counters Serial = Run(1);
  EXPECT_EQ(Run(1), Serial);
  EXPECT_EQ(Run(4), Serial);

  // Each copy of a query does the same work. Every composite query
  // enumerates and pushes something; the plain hole has no composite.
  for (size_t R = 0; R != Serial.size(); ++R) {
    size_t T = R % std::size(Texts);
    EXPECT_EQ(Serial[R], Serial[T]) << Texts[T];
    EXPECT_EQ(Serial[R].first != 0, T != 0) << Texts[T];
    EXPECT_EQ(Serial[R].second != 0, T != 0) << Texts[T];
  }
}

//===----------------------------------------------------------------------===//
// Parallel experiment drivers
//===----------------------------------------------------------------------===//

TEST(EvaluatorParallelTest, RankDistributionsBitIdenticalToSerial) {
  ProjectProfile Prof = paperProjectProfiles(0.15)[5];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  CompletionIndexes Idx(P);

  Evaluator Serial(P, Idx, RankingOptions::all(), 100, /*Threads=*/1);
  Evaluator Parallel(P, Idx, RankingOptions::all(), 100, /*Threads=*/4);

  MethodPredictionData MS = Serial.runMethodPrediction(true, true);
  MethodPredictionData MP = Parallel.runMethodPrediction(true, true);
  EXPECT_EQ(MS.Best.ranks(), MP.Best.ranks());
  EXPECT_EQ(MS.Instance.ranks(), MP.Instance.ranks());
  EXPECT_EQ(MS.Static.ranks(), MP.Static.ranks());
  EXPECT_EQ(MS.BestKnownReturn.ranks(), MP.BestKnownReturn.ranks());
  EXPECT_EQ(MS.RankDiff, MP.RankDiff);
  EXPECT_EQ(MS.RankDiffKnownReturn, MP.RankDiffKnownReturn);
  EXPECT_EQ(MS.SkippedNoGuessableArgs, MP.SkippedNoGuessableArgs);
  ASSERT_EQ(MS.ByArity.size(), MP.ByArity.size());
  for (const auto &[Arity, Stats] : MS.ByArity) {
    ASSERT_TRUE(MP.ByArity.count(Arity));
    EXPECT_EQ(Stats.Calls, MP.ByArity.at(Arity).Calls);
    EXPECT_EQ(Stats.SolvedWith1, MP.ByArity.at(Arity).SolvedWith1);
    EXPECT_EQ(Stats.SolvedWith2, MP.ByArity.at(Arity).SolvedWith2);
  }

  ArgumentPredictionData AS = Serial.runArgumentPrediction();
  ArgumentPredictionData AP = Parallel.runArgumentPrediction();
  EXPECT_EQ(AS.All.ranks(), AP.All.ranks());
  EXPECT_EQ(AS.NoVars.ranks(), AP.NoVars.ranks());
  EXPECT_EQ(AS.TotalArgs, AP.TotalArgs);
  EXPECT_EQ(AS.NotGuessable, AP.NotGuessable);
  for (size_t F = 0; F != 6; ++F)
    EXPECT_EQ(AS.FormCounts[F], AP.FormCounts[F]) << "form " << F;

  AssignmentData SS = Serial.runAssignments();
  AssignmentData SP = Parallel.runAssignments();
  EXPECT_EQ(SS.Target.ranks(), SP.Target.ranks());
  EXPECT_EQ(SS.Source.ranks(), SP.Source.ranks());
  EXPECT_EQ(SS.Both.ranks(), SP.Both.ranks());

  ComparisonData CS = Serial.runComparisons();
  ComparisonData CP = Parallel.runComparisons();
  EXPECT_EQ(CS.Left.ranks(), CP.Left.ranks());
  EXPECT_EQ(CS.Right.ranks(), CP.Right.ranks());
  EXPECT_EQ(CS.Both.ranks(), CP.Both.ranks());
  EXPECT_EQ(CS.TwoLeft.ranks(), CP.TwoLeft.ranks());
  EXPECT_EQ(CS.TwoRight.ranks(), CP.TwoRight.ranks());

  // Latencies are wall-clock and differ, but the per-query structure (one
  // entry per executed query, in trial order) must be identical.
  EXPECT_EQ(Serial.latency().Millis.size(), Parallel.latency().Millis.size());
}

//===----------------------------------------------------------------------===//
// Index stress (run under TSan to detect races: scripts/ci.sh)
//===----------------------------------------------------------------------===//

TEST(IndexStressTest, EightThreadsHammerFrozenIndexes) {
  ProjectProfile Prof = paperProjectProfiles(0.1)[0];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  CompletionIndexes Idx(P);
  Idx.freeze();
  Idx.freeze(); // idempotent

  // One shared, compressed solution read by every thread.
  AbsTypeSolution Shared = Idx.Infer.solve();

  constexpr size_t NumThreads = 8;
  std::vector<uint64_t> Checksums(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      uint64_t Sum = 0;
      size_t N = TS.numTypes();
      // Offset the starting type per thread so threads collide on
      // different entries at different times.
      for (size_t Round = 0; Round != 3; ++Round) {
        for (size_t I = 0; I != N; ++I) {
          TypeId From = static_cast<TypeId>((I + T * 7) % N);
          TypeId To = static_cast<TypeId>((I * 13 + T) % N);
          Sum += Idx.Members.edges(From).size();
          Sum += Idx.Methods.candidatesForArgType(From).size();
          Sum += TS.implicitlyConvertible(From, To);
          Sum += static_cast<uint64_t>(TS.typeDistance(From, To).value_or(-1) +
                                       2);
          if (Shared.numClasses() > 0)
            Sum += Shared.sameAbstractType(
                static_cast<uint32_t>(I % Idx.Infer.numVars()),
                static_cast<uint32_t>((I * 31 + T) % Idx.Infer.numVars()));
        }
      }
      Checksums[T] = Sum;
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  // Threads with the same access pattern would produce the same checksum;
  // here patterns differ per thread, so just recompute thread 0's pattern
  // serially and require an exact match (catches torn lazy fills).
  uint64_t Serial = 0;
  size_t N = TS.numTypes();
  for (size_t Round = 0; Round != 3; ++Round) {
    for (size_t I = 0; I != N; ++I) {
      TypeId From = static_cast<TypeId>(I % N);
      TypeId To = static_cast<TypeId>((I * 13) % N);
      Serial += Idx.Members.edges(From).size();
      Serial += Idx.Methods.candidatesForArgType(From).size();
      Serial += TS.implicitlyConvertible(From, To);
      Serial +=
          static_cast<uint64_t>(TS.typeDistance(From, To).value_or(-1) + 2);
      if (Shared.numClasses() > 0)
        Serial += Shared.sameAbstractType(
            static_cast<uint32_t>(I % Idx.Infer.numVars()),
            static_cast<uint32_t>((I * 31) % Idx.Infer.numVars()));
    }
  }
  EXPECT_EQ(Checksums[0], Serial);
}

TEST(IndexStressTest, ConcurrentEnginesProduceIdenticalAnswers) {
  ProjectProfile Prof = paperProjectProfiles(0.1)[0];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  CompletionIndexes Idx(P);
  HarvestResult Sites = harvestProgram(P);
  ASSERT_FALSE(Sites.Calls.empty());

  // Build one ?({arg}) query per call site with a guessable receiver/arg.
  Arena &A = P.arena();
  std::vector<BatchExecutor::Request> Requests;
  for (const CallSiteInfo &CS : Sites.Calls) {
    const Expr *Arg = nullptr;
    if (CS.Call->receiver() && isGuessableExpr(CS.Call->receiver()))
      Arg = CS.Call->receiver();
    for (const Expr *E : CS.Call->args())
      if (!Arg && isGuessableExpr(E))
        Arg = E;
    if (!Arg)
      continue;
    const PartialExpr *Q = A.create<UnknownCallPE>(
        std::vector<const PartialExpr *>{A.create<ConcretePE>(Arg)});
    Requests.push_back({Q, CS.Site, 10, {}, nullptr});
  }
  ASSERT_GT(Requests.size(), 10u);

  BatchExecutor Wide(P, Idx, 8);
  BatchExecutor Narrow(P, Idx, 1);
  BatchExecutor::BatchResult W = Wide.completeBatch(Requests);
  BatchExecutor::BatchResult S = Narrow.completeBatch(Requests);
  ASSERT_EQ(W.Results.size(), S.Results.size());
  for (size_t I = 0; I != W.Results.size(); ++I) {
    ASSERT_EQ(W.Results[I].size(), S.Results[I].size()) << "request " << I;
    for (size_t R = 0; R != W.Results[I].size(); ++R) {
      EXPECT_EQ(W.Results[I][R].Score, S.Results[I][R].Score);
      EXPECT_EQ(printExpr(TS, W.Results[I][R].E),
                printExpr(TS, S.Results[I][R].E));
    }
  }
}

} // namespace

//===- examples/corpus_explorer.cpp - Synthetic corpora + evaluation ------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Shows the evaluation substrate: generate one of the seven synthetic
// projects (the stand-ins for the paper's C# codebases), print its shape,
// replay a few harvested call sites exactly as the §5.1 experiment does
// (strip the callee, query with the arguments, report the rank of the
// original method), and print the site's query latency.
//
//===----------------------------------------------------------------------===//

#include "code/ExprPrinter.h"
#include "complete/BatchExecutor.h"
#include "corpus/Generator.h"
#include "corpus/SourceWriter.h"
#include "eval/Attribution.h"
#include "eval/Experiments.h"
#include "snapshot/Snapshot.h"
#include "support/CliArgs.h"
#include "support/StrUtil.h"

#include <chrono>
#include <iostream>

using namespace petal;

/// --save-snapshot: round the generated project through source text (the
/// snapshot embeds the text and its loader re-parses it, so the persisted
/// tables must be computed over the *parsed* corpus, not the generated
/// object graph), build and freeze everything, and serialize.
static int saveSnapshot(const std::string &Path, const Program &Generated) {
  std::string Source = writeProgramSource(Generated);

  DiagnosticEngine Diags;
  SynFile File;
  if (!parseSourceFile(Source, File, Diags)) {
    std::cerr << "error: generated source failed to parse\n";
    return 1;
  }
  DocumentShape Shape = shapeOfFile(File);

  TypeSystem TS;
  Program P(TS);
  if (!resolveParsedFile(File, P, Diags)) {
    std::cerr << "error: generated source failed to resolve\n";
    return 1;
  }

  CompletionIndexes Idx(P);
  Idx.freeze(FreezeOptions{});
  AbsTypeSolution Solution = Idx.Infer.solve();

  std::string Error;
  if (!snapshot::writeSnapshot(Path, Source, Shape, Idx, Solution, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cout << "Wrote snapshot '" << Path << "' (" << TS.numTypes()
            << " types, " << TS.numMethods() << " methods, "
            << Source.size() << " source bytes)\n";
  return 0;
}

int main(int argc, char **argv) {
  double Scale = 0.3;
  size_t Threads = 1;
  std::string SnapshotOut;
  RankingOptions RankOpts = RankingOptions::all();
  FlagParser Flags("corpus_explorer",
                   "synthetic-corpus generation + §5.1 evaluation demo",
                   "[scale]");
  Flags.addFlag("threads", "N", "worker threads (default 1, 0 = auto)",
                [&](const std::string &V) {
                  return parseCount(V, "threads", Threads);
                });
  Flags.addFlag("rank", "SPEC",
                "ranking terms: all, none, -nd (all minus), +ta (only)",
                [&](const std::string &V) {
                  std::string Error;
                  if (RankingOptions::fromSpec(V, RankOpts, Error))
                    return true;
                  std::cerr << "error: " << Error << "\n";
                  return false;
                });
  Flags.addFlag("save-snapshot", "FILE",
                "serialize the generated corpus (frozen indexes + solved "
                "abstract types) for petal_serve --base-snapshot, then exit",
                [&](const std::string &V) {
                  SnapshotOut = V;
                  return !SnapshotOut.empty();
                });
  Flags.addPositional("scale is the corpus size factor (default 0.3).",
                      [&](const std::string &V) {
                        char *End = nullptr;
                        Scale = std::strtod(V.c_str(), &End);
                        if (End == V.c_str() || *End != '\0' || Scale <= 0) {
                          std::cerr << "error: scale must be a positive "
                                       "number, got '"
                                    << V << "'\n";
                          return false;
                        }
                        return true;
                      });
  if (!Flags.parse(argc, argv))
    return Flags.exitCode();
  ProjectProfile Prof = paperProjectProfiles(Scale)[0]; // PaintNet

  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);

  std::cout << "Generated project '" << Prof.Name << "' (scale "
            << formatFixed(Scale, 2) << ", seed " << Prof.Seed << "):\n"
            << "  namespaces: " << TS.numNamespaces() << "\n"
            << "  types:      " << TS.numTypes() << "\n"
            << "  methods:    " << TS.numMethods() << "\n"
            << "  fields:     " << TS.numFields() << "\n"
            << "  statements: " << P.numStatements() << "\n\n";

  if (!SnapshotOut.empty())
    return saveSnapshot(SnapshotOut, P);

  CompletionIndexes Idx(P);
  BatchExecutor Exec(P, Idx, Threads);
  HarvestResult Sites = harvestProgram(P);
  std::cout << "Harvested " << Sites.Calls.size() << " calls, "
            << Sites.Assigns.size() << " assignments, "
            << Sites.Compares.size() << " comparisons. Running with "
            << Exec.numThreads() << " worker thread"
            << (Exec.numThreads() == 1 ? "" : "s") << ".\n\n";

  // Replay the first few call sites the way §5.1 does, as one batch.
  Arena &A = P.arena();
  CompletionOptions DemoOpts;
  DemoOpts.Rank = RankOpts;
  std::vector<BatchExecutor::Request> Demo;
  std::vector<const CallSiteInfo *> DemoSites;
  for (const CallSiteInfo &CS : Sites.Calls) {
    std::vector<const Expr *> Args;
    if (CS.Call->receiver() && isGuessableExpr(CS.Call->receiver()))
      Args.push_back(CS.Call->receiver());
    for (const Expr *Arg : CS.Call->args())
      if (isGuessableExpr(Arg) && Args.size() < 2)
        Args.push_back(Arg);
    if (Args.size() < 2)
      continue;

    std::vector<const PartialExpr *> PEArgs;
    for (const Expr *E : Args)
      PEArgs.push_back(A.create<ConcretePE>(E));
    Demo.push_back({A.create<UnknownCallPE>(std::move(PEArgs)), CS.Site, 5,
                    DemoOpts, nullptr});
    DemoSites.push_back(&CS);
    if (Demo.size() == 3)
      break;
  }

  BatchExecutor::BatchResult Batch = Exec.completeBatch(Demo);
  for (size_t R = 0; R != Batch.Results.size(); ++R) {
    const CallSiteInfo &CS = *DemoSites[R];
    std::cout << "ground truth: " << printExpr(TS, CS.Call) << "\n";
    std::cout << "query:        " << printPartialExpr(TS, Demo[R].Query)
              << "\n";
    const std::vector<Completion> &Results = Batch.Results[R];
    for (size_t I = 0; I != Results.size(); ++I) {
      const auto *Call = dyn_cast<CallExpr>(Results[I].E);
      bool Hit = Call && Call->method() == CS.Call->method();
      std::cout << "  " << (I + 1) << ". [" << Results[I].Score << "] "
                << printExpr(TS, Results[I].E) << (Hit ? "   <== intended" : "")
                << "\n";
    }
    std::cout << "\n";
  }

  // And the aggregate §5.1 numbers for this one project, timed end to end
  // so the thread count's throughput effect is visible.
  std::cout << "Ranking configuration: " << RankOpts.spec() << "\n";
  Evaluator Ev(P, Idx, RankOpts, 100, Threads);
  auto Start = std::chrono::steady_clock::now();
  MethodPredictionData Data = Ev.runMethodPrediction(false, false);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  size_t Queries = Ev.latency().Millis.size();
  std::cout << "Method prediction over all " << Data.Best.total()
            << " calls: top-10 "
            << formatPercent(Data.Best.withinTop(10), Data.Best.total())
            << ", top-20 "
            << formatPercent(Data.Best.withinTop(20), Data.Best.total())
            << "\nMedian query latency: "
            << formatFixed(Ev.latency().percentile(50), 3) << " ms (p99 "
            << formatFixed(Ev.latency().percentile(99), 3) << " ms)\n"
            << "Throughput: " << Queries << " queries in "
            << formatFixed(Seconds, 2) << " s ("
            << formatFixed(Queries / Seconds, 0) << " queries/sec at "
            << Ev.numThreads() << " thread"
            << (Ev.numThreads() == 1 ? "" : "s") << ")\n";

  // Which terms are responsible when the intended call does not win.
  std::cout << "\n"
            << runTermAttribution(P, Idx, RankOpts, 20, Threads).toString();
  return 0;
}

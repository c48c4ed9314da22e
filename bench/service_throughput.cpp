//===- bench/service_throughput.cpp - petald end-to-end throughput --------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Drives the resident completion service the way an editor fleet would:
// N client threads share one PetalService (via InProcessClient), each
// opens its own copy of a generated project and replays a corpus of
// harvested ?({arg}) queries — a cold pass (every query computed), a
// warm pass (every query answered from the result cache), and an explain
// pass (the same queries with per-term score breakdowns requested, which
// miss the cache by design since explain payloads are keyed separately).
// The cold-vs-explain delta is the end-to-end cost of the structured cost
// model, recorded in the snapshot.
//
// Every single response is checked bit-for-bit against a direct
// CompletionEngine::complete over a private parse of the same document
// text, serialized through the same JSON path: the daemon must add
// scheduling and caching, never answers of its own. A mismatch fails the
// benchmark.
//
// Single throughput runs are noisy — the explain-overhead delta in
// particular divides two wall-clock measurements — so every client round
// is repeated (--repeat, default 5) with a fresh service each time, and
// the snapshot records the median of the repeats.
//
// Writes BENCH_service.json (into the current directory, or
// $PETAL_BENCH_DIR) with cold/warm queries-per-second per client count.
//
// Regression-gate mode: --check-against BENCH_service.json
// [--tolerance PCT] reruns the sweep at the baseline's client counts and
// exits 1 if cold, warm, or explain q/s dropped more than the tolerance —
// the ci.sh leg that keeps the disarmed fault-injection branches free.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "code/ExprPrinter.h"
#include "corpus/SourceWriter.h"
#include "parser/Frontend.h"
#include "service/Client.h"
#include "support/CliArgs.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <set>
#include <thread>

using namespace petal;
using namespace petal::bench;

namespace {

/// A protocol-level query: everything a petal/complete request needs.
struct QueryCase {
  std::string Class;
  std::string Method;
  std::string Query;
  std::string Reference;        ///< serialized "completions" array, the oracle
  std::string ExplainReference; ///< same, with per-term breakdowns attached
};

constexpr size_t ResultsPerQuery = 10;
constexpr size_t MaxQueries = 96;
/// Documents per client, opened under distinct names. The harvested query
/// corpus is small at low scales, and a pass over it alone is a
/// milliseconds-wide timing window — pure scheduler noise, which is where
/// the old explain-overhead swings came from. Replaying the corpus against
/// several replicas multiplies the computed work per pass (every
/// (doc, query) pair is a distinct cache key, so cold stays cold and warm
/// stays warm) without changing what is measured.
constexpr size_t DocReplicas = 4;

/// The shared fixture: one generated project round-tripped through the
/// source writer (so the service can open it as text), plus the filtered
/// query corpus with precomputed reference answers.
struct Fixture {
  std::string Text;
  std::vector<QueryCase> Queries;
};

/// Serializes completions exactly the way the service does, so the
/// comparison is on bytes, not on parsed structure. \p WithCards mirrors
/// the service's explain payload (terms object + subexpr rollup).
std::string serializeCompletions(const TypeSystem &TS,
                                 const std::vector<Completion> &Results,
                                 bool WithCards = false) {
  json::Value List = json::Value::array();
  for (const Completion &C : Results) {
    json::Value Item = json::Value::object();
    Item.set("expr", printExpr(TS, C.E));
    Item.set("score", static_cast<int64_t>(C.Score));
    if (WithCards && C.Card) {
      json::Value Terms = json::Value::object();
      for (ScoreTerm Term : AllScoreTerms)
        Terms.set(std::string(1, scoreTermLetter(Term)),
                  static_cast<int64_t>(C.Card->term(Term)));
      Item.set("terms", std::move(Terms));
      Item.set("subexpr", static_cast<int64_t>(C.Card->Subexpr));
    }
    List.push(std::move(Item));
  }
  return List.write();
}

bool isIdentifier(const std::string &S) {
  if (S.empty() || std::isdigit(static_cast<unsigned char>(S[0])))
    return false;
  for (char C : S)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_')
      return false;
  return true;
}

Fixture buildFixture() {
  Fixture F;

  // Generate a project and flatten it to source text.
  ProjectProfile Prof = paperProjectProfiles(benchScale())[0];
  {
    TypeSystem TS;
    Program P(TS);
    CorpusGenerator Gen(Prof);
    Gen.generate(P);
    F.Text = writeProgramSource(P);
  }

  // Reference side: a private parse of that text and a serial engine.
  TypeSystem TS;
  Program P(TS);
  DiagnosticEngine Diags;
  if (!loadProgramText(F.Text, P, Diags)) {
    Diags.print(std::cerr);
    std::exit(1);
  }
  CompletionIndexes Idx(P);
  CompletionEngine Engine(P, Idx);

  // Harvest the §5.1 query family: one ?({arg}) per call with a local
  // identifier ingredient. The service completes at end-of-method scope,
  // so keep only queries that parse (ingredient still visible) there.
  std::set<std::string> Seen;
  for (const CallSiteInfo &CS : harvestProgram(P).Calls) {
    const Expr *Arg = nullptr;
    if (CS.Call->receiver() && isGuessableExpr(CS.Call->receiver()))
      Arg = CS.Call->receiver();
    for (const Expr *E : CS.Call->args())
      if (!Arg && isGuessableExpr(E))
        Arg = E;
    if (!Arg)
      continue;
    std::string ArgName = printExpr(TS, Arg);
    if (!isIdentifier(ArgName))
      continue;

    QueryCase Q;
    Q.Class = TS.qualifiedName(CS.Site.Class->type());
    Q.Method = TS.method(CS.Site.Method->decl()).Name;
    Q.Query = "?({" + ArgName + "})";
    if (!Seen.insert(Q.Class + "#" + Q.Method + "#" + Q.Query).second)
      continue; // duplicates would turn the cold pass into cache hits

    const CodeClass *Class = findCodeClass(P, Q.Class);
    const CodeMethod *Method = findCodeMethod(P, *Class, Q.Method);
    QueryScope Scope = scopeAtEnd(Class, Method);
    DiagnosticEngine QDiags;
    const PartialExpr *PE = parseQueryText(Q.Query, P, Scope, QDiags);
    if (!PE)
      continue;
    CodeSite Site{Class, Method, Scope.StmtIndex};
    // One explain-enabled run serves both oracles: cards are computed
    // post-hoc for the selected results, so the (expr, score) list is the
    // plain run's list.
    CompletionOptions CO;
    CO.Explain = true;
    std::vector<Completion> Results =
        Engine.complete(PE, Site, ResultsPerQuery, CO);
    if (Results.empty())
      continue;
    Q.Reference = serializeCompletions(TS, Results);
    Q.ExplainReference = serializeCompletions(TS, Results, /*WithCards=*/true);
    F.Queries.push_back(std::move(Q));
    if (F.Queries.size() == MaxQueries)
      break;
  }
  return F;
}

struct PassResult {
  double Seconds = 0;
  size_t Mismatches = 0;
  size_t Errors = 0;
};

/// All clients replay the full query corpus against their own document;
/// returns wall time and the number of responses that differed from the
/// reference.
PassResult runPass(InProcessClient &C, const Fixture &F, size_t Clients,
                   bool Explain = false) {
  std::vector<std::thread> Threads;
  std::vector<PassResult> PerClient(Clients);
  auto Start = std::chrono::steady_clock::now();
  for (size_t I = 0; I != Clients; ++I)
    Threads.emplace_back([&, I] {
      for (size_t R = 0; R != DocReplicas; ++R)
        for (size_t K = 0; K != F.Queries.size(); ++K) {
          // Stagger start points so clients do not move in lockstep.
          const QueryCase &Q =
              F.Queries[(K + I * 7) % F.Queries.size()];
          json::Value P = json::Value::object();
          P.set("doc", "client" + std::to_string(I) + "_r" +
                           std::to_string(R) + ".cs");
          P.set("version", 1);
          P.set("class", Q.Class);
          P.set("method", Q.Method);
          P.set("query", Q.Query);
          P.set("n", static_cast<int64_t>(ResultsPerQuery));
          if (Explain)
            P.set("explain", true);
          json::Value Resp = C.call("petal/complete", std::move(P));
          const json::Value *Result = Resp.find("result");
          if (!Result) {
            ++PerClient[I].Errors;
            continue;
          }
          if (Result->find("completions")->write() !=
              (Explain ? Q.ExplainReference : Q.Reference))
            ++PerClient[I].Mismatches;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  PassResult Total;
  Total.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  for (const PassResult &R : PerClient) {
    Total.Mismatches += R.Mismatches;
    Total.Errors += R.Errors;
  }
  return Total;
}

struct Round {
  size_t Clients;
  double ColdQps;
  double WarmQps;
  double ExplainQps;   ///< cold, with per-term breakdowns requested
  double OverheadPct;  ///< (ColdQps - ExplainQps) / ColdQps * 100
  double HitRate;
  size_t Mismatches;
};

Round runRound(const Fixture &F, size_t Clients) {
  PetalService::Options Opts;
  Opts.Workers = 4;
  Opts.CacheCapacity = 4096;
  InProcessClient C(Opts);

  for (size_t I = 0; I != Clients; ++I)
    for (size_t R = 0; R != DocReplicas; ++R) {
      json::Value P = json::Value::object();
      P.set("doc",
            "client" + std::to_string(I) + "_r" + std::to_string(R) + ".cs");
      P.set("text", F.Text);
      P.set("version", 1);
      json::Value Resp = C.call("petal/open", std::move(P));
      if (!Resp.find("result")) {
        std::cerr << "open failed: " << Resp.write() << "\n";
        std::exit(1);
      }
    }

  PassResult Cold = runPass(C, F, Clients);
  PassResult Warm = runPass(C, F, Clients);
  // Explain requests are keyed separately in the cache, so this pass is
  // computed fresh: cold-vs-explain isolates the cost of the breakdowns.
  PassResult Explain = runPass(C, F, Clients, /*Explain=*/true);
  json::Value Stats = C.callResult("$/stats", json::Value::object());

  double N = static_cast<double>(Clients * DocReplicas * F.Queries.size());
  Round R;
  R.Clients = Clients;
  R.ColdQps = N / Cold.Seconds;
  R.WarmQps = N / Warm.Seconds;
  R.ExplainQps = N / Explain.Seconds;
  R.OverheadPct = (R.ColdQps - R.ExplainQps) / R.ColdQps * 100.0;
  R.HitRate = Stats.find("cache")->getNumber("hitRate", 0);
  R.Mismatches = Cold.Mismatches + Warm.Mismatches + Explain.Mismatches +
                 Cold.Errors + Warm.Errors + Explain.Errors;
  return R;
}

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Runs \p Repeats independent rounds (fresh service each) and reports the
/// per-metric median; mismatches accumulate — correctness is never
/// averaged away.
Round runMedianRound(const Fixture &F, size_t Clients, size_t Repeats) {
  std::vector<double> Cold, Warm, Explain, Overhead, Hit;
  size_t Mismatches = 0;
  for (size_t I = 0; I != Repeats; ++I) {
    Round R = runRound(F, Clients);
    Cold.push_back(R.ColdQps);
    Warm.push_back(R.WarmQps);
    Explain.push_back(R.ExplainQps);
    Overhead.push_back(R.OverheadPct);
    Hit.push_back(R.HitRate);
    Mismatches += R.Mismatches;
  }
  Round R;
  R.Clients = Clients;
  R.ColdQps = medianOf(Cold);
  R.WarmQps = medianOf(Warm);
  R.ExplainQps = medianOf(Explain);
  R.OverheadPct = medianOf(Overhead);
  R.HitRate = medianOf(Hit);
  R.Mismatches = Mismatches;
  return R;
}

/// Regression-gate mode (the ci.sh check leg): rerun the sweep at the
/// baseline's client counts and fail when any throughput metric dropped
/// more than \p TolerancePct below the recorded value. Faster-than-baseline
/// is never a failure.
int checkAgainst(const Fixture &F, const std::string &File,
                 double TolerancePct, size_t Repeats) {
  std::ifstream In(File);
  if (!In) {
    std::cerr << "error: cannot open baseline '" << File << "'\n";
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  json::Value Snapshot;
  std::string Error;
  if (!json::parse(Buf.str(), Snapshot, Error)) {
    std::cerr << "error: '" << File << "' is not valid JSON: " << Error
              << "\n";
    return 1;
  }
  const json::Value *Results = Snapshot.find("results");
  if (!Results || !Results->isArray() || Results->elements().empty()) {
    std::cerr << "error: '" << File << "' has no \"results\" array\n";
    return 1;
  }
  if (std::abs(Snapshot.getNumber("scale", -1) - benchScale()) > 1e-9)
    std::cout << "note: baseline was recorded at scale "
              << formatFixed(Snapshot.getNumber("scale", -1), 2)
              << ", current scale is " << formatFixed(benchScale(), 2)
              << " — comparison is not meaningful across scales\n\n";

  TextTable Tab;
  Tab.setHeader({"clients", "metric", "baseline q/s", "current q/s",
                 "delta", "verdict"});
  bool Regressed = false;
  size_t Mismatches = 0;
  for (const json::Value &Row : Results->elements()) {
    size_t Clients = static_cast<size_t>(Row.getInt("clients", 0));
    if (Clients == 0)
      continue;
    Round R = runMedianRound(F, Clients, Repeats);
    Mismatches += R.Mismatches;
    const std::pair<const char *, double> Metrics[] = {
        {"cold", R.ColdQps}, {"warm", R.WarmQps}, {"explain", R.ExplainQps}};
    const char *Keys[] = {"cold_qps", "warm_qps", "explain_cold_qps"};
    for (size_t I = 0; I != 3; ++I) {
      double Base = Row.getNumber(Keys[I], 0);
      if (Base <= 0) {
        Tab.addRow({std::to_string(Clients), Metrics[I].first, "-",
                    formatFixed(Metrics[I].second, 1), "-", "no baseline"});
        continue;
      }
      double DeltaPct = (Metrics[I].second - Base) / Base * 100.0;
      bool Bad = DeltaPct < -TolerancePct;
      Regressed |= Bad;
      Tab.addRow({std::to_string(Clients), Metrics[I].first,
                  formatFixed(Base, 1), formatFixed(Metrics[I].second, 1),
                  (DeltaPct >= 0 ? "+" : "") + formatFixed(DeltaPct, 1) +
                      "%",
                  Bad ? "REGRESSION" : "ok"});
    }
  }
  std::cout << "Service throughput vs '" << File << "' (tolerance "
            << formatFixed(TolerancePct, 1) << "%):\n";
  Tab.print(std::cout);
  std::cout << "\n";
  if (Mismatches != 0) {
    std::cerr << "FAIL: " << Mismatches
              << " responses differed from the direct engine\n";
    return 1;
  }
  if (Regressed) {
    std::cerr << "FAIL: service throughput regressed more than "
              << formatFixed(TolerancePct, 1)
              << "% against the baseline snapshot\n";
    return 1;
  }
  std::cout << "service throughput within tolerance of the baseline\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  size_t Repeats = 5;
  std::string CheckFile;
  double TolerancePct = 10;
  FlagParser Flags("service_throughput",
                   "petald end-to-end throughput vs a direct engine");
  Flags.addFlag("repeat", "N", "rounds per client count, median reported",
                [&](const std::string &V) {
                  if (!parseCount(V, "repeat", Repeats))
                    return false;
                  if (Repeats == 0) {
                    std::cerr << "error: --repeat must be >= 1\n";
                    return false;
                  }
                  return true;
                });
  Flags.addFlag("check-against", "FILE",
                "regression-gate: compare against a BENCH_service.json "
                "snapshot instead of writing one; exit 1 if any q/s metric "
                "drops more than the tolerance",
                [&](const std::string &V) {
                  CheckFile = V;
                  return !CheckFile.empty();
                });
  Flags.addFlag("tolerance", "PCT",
                "allowed drop below the baseline, in percent (default 10)",
                [&](const std::string &V) {
                  char *End = nullptr;
                  TolerancePct = std::strtod(V.c_str(), &End);
                  if (!End || *End != '\0' || TolerancePct < 0) {
                    std::cerr << "error: --tolerance needs a non-negative "
                                 "percentage, got '"
                              << V << "'\n";
                    return false;
                  }
                  return true;
                });
  if (!Flags.parse(argc, argv))
    return Flags.exitCode();

  banner("petald service throughput", "framed-protocol clients vs direct engine",
         benchScale());
  Fixture F = buildFixture();
  std::cout << "document: " << F.Text.size() / 1024 << " KiB of source, "
            << F.Queries.size() << " distinct queries per client, median of "
            << Repeats << " repeats\n\n";
  if (F.Queries.empty()) {
    std::cerr << "no usable queries harvested\n";
    return 1;
  }

  if (!CheckFile.empty())
    return checkAgainst(F, CheckFile, TolerancePct, Repeats);

  std::vector<Round> Rounds;
  for (size_t Clients : {1, 2, 4, 8})
    Rounds.push_back(runMedianRound(F, Clients, Repeats));

  TextTable Tab;
  Tab.setHeader({"clients", "cold q/s", "warm q/s", "explain q/s",
                 "overhead", "hit rate", "verified"});
  size_t TotalMismatches = 0;
  for (const Round &R : Rounds) {
    TotalMismatches += R.Mismatches;
    Tab.addRow({std::to_string(R.Clients), formatFixed(R.ColdQps, 1),
                formatFixed(R.WarmQps, 1), formatFixed(R.ExplainQps, 1),
                formatFixed(R.OverheadPct, 1) + "%",
                formatFixed(R.HitRate, 3),
                R.Mismatches == 0 ? "bit-identical"
                                  : std::to_string(R.Mismatches) +
                                        " MISMATCHES"});
  }
  std::cout << "Service throughput (cold = computed, warm = cached, explain "
               "= computed\nwith per-term breakdowns; every response checked "
               "against a direct engine run):\n";
  Tab.print(std::cout);
  std::cout << "\n";

  std::string Dir = ".";
  if (const char *D = std::getenv("PETAL_BENCH_DIR"))
    Dir = D;
  std::ofstream OS(Dir + "/BENCH_service.json");
  OS << "{\n"
     << "  \"benchmark\": \"service_throughput\",\n"
     << "  \"scale\": " << formatFixed(benchScale(), 2) << ",\n"
     << "  \"queries_per_client\": " << F.Queries.size() << ",\n"
     << "  \"repeats\": " << Repeats << ",\n"
     << "  \"workers\": 4,\n"
     << "  \"verified_bit_identical\": "
     << (TotalMismatches == 0 ? "true" : "false") << ",\n"
     << "  \"results\": [\n";
  for (size_t I = 0; I != Rounds.size(); ++I)
    OS << "    {\"clients\": " << Rounds[I].Clients
       << ", \"cold_qps\": " << formatFixed(Rounds[I].ColdQps, 1)
       << ", \"warm_qps\": " << formatFixed(Rounds[I].WarmQps, 1)
       << ", \"explain_cold_qps\": " << formatFixed(Rounds[I].ExplainQps, 1)
       << ", \"explain_overhead_pct\": "
       << formatFixed(Rounds[I].OverheadPct, 1)
       << ", \"cache_hit_rate\": " << formatFixed(Rounds[I].HitRate, 3)
       << "}" << (I + 1 == Rounds.size() ? "\n" : ",\n");
  OS << "  ]\n}\n";
  std::cout << "wrote " << Dir << "/BENCH_service.json\n";

  if (TotalMismatches != 0) {
    std::cerr << "FAIL: " << TotalMismatches
              << " responses differed from the direct engine\n";
    return 1;
  }
  return 0;
}

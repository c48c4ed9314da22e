//===- bench/cold_start.cpp - process start to query-ready ----------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Measures the time from petald process start to the first query-ready
// document, over one generated corpus, by the two routes a daemon has:
//
//   cold-open   buildDocumentState of the whole corpus from source: parse +
//               resolve + index freeze (the O(N^2) type-distance matrix,
//               the member and method-union tables) + the whole-corpus
//               abstract-type solve
//   base-open   the corpus as a base snapshot (DESIGN.md §13-14):
//               loadSnapshot + baseCorpusFromSnapshot (validate checksums,
//               re-parse the embedded source, adopt every frozen table out
//               of the mapping, deserialize the solution), then the first
//               overlay open of a small client document over that base
//
// Each path is repeated (--repeat, default 5) and the median recorded; the
// base-open document's build is verified to be an overlay of the loaded
// base, so the bench cannot silently measure a monolithic build. The
// load and open halves of base-open are reported separately too.
//
// Writes BENCH_cold_start.json (current directory, or $PETAL_BENCH_DIR).
// With --check-against <file> it reruns the sweep and fails if either
// path's median exceeds the snapshot by more than --tolerance percent.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "complete/BaseCorpus.h"
#include "corpus/SourceWriter.h"
#include "service/Session.h"
#include "snapshot/Snapshot.h"
#include "support/CliArgs.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace petal;
using namespace petal::bench;

namespace {

/// Larger than edit_latency's 6.0: the quantity under test is the cost
/// the snapshot *avoids* — index freezing, which is O(N^2) in types —
/// while the residual load cost (re-parsing the embedded source) is linear.
/// At toy scales both paths are parser-bound and say nothing; this scale is
/// comparable to the paper's mid-size subjects.
constexpr double DefaultScale = 10.0;

double coldScale() { return benchScale(DefaultScale); }

struct Corpus {
  std::string Text;      ///< the generated corpus, as source
  std::string ClientDoc; ///< a small client document over its types
};

Corpus makeCorpus() {
  ProjectProfile Prof = paperProjectProfiles(coldScale())[0];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  // The client document references the corpus's last declared reference
  // type, so its overlay rows reach into the base's type graph.
  std::string Ty = "object";
  for (size_t T = TS.numTypes(); T-- != 0;)
    if (!TS.isBuiltinType(static_cast<TypeId>(T)) &&
        TS.isReferenceType(static_cast<TypeId>(T))) {
      Ty = TS.qualifiedName(static_cast<TypeId>(T));
      break;
    }
  std::string Doc = "class ColdStartClient {\n"
                    "  " + Ty + " Anchor;\n"
                    "  void Work(" + Ty + " item, int count) {\n"
                    "    var local = item;\n"
                    "    return;\n"
                    "  }\n"
                    "}\n";
  return {writeProgramSource(P), Doc};
}

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

std::string snapshotPath() {
  const char *Dir = std::getenv("TMPDIR");
  return std::string(Dir ? Dir : "/tmp") + "/petal_cold_start.snap";
}

/// Builds the corpus cold and serializes it — the one-time cost a deploy
/// pays so every later process start is warm. Not part of any column.
void writeCorpusSnapshot(const std::string &Text, const std::string &Path) {
  DiagnosticEngine Diags;
  SynFile File;
  if (!parseSourceFile(Text, File, Diags)) {
    std::cerr << "cold_start: corpus failed to parse\n";
    std::exit(1);
  }
  DocumentShape Shape = shapeOfFile(File);
  TypeSystem TS;
  Program P(TS);
  if (!resolveParsedFile(File, P, Diags)) {
    std::cerr << "cold_start: corpus failed to resolve\n";
    std::exit(1);
  }
  CompletionIndexes Idx(P);
  Idx.freeze(FreezeOptions{});
  AbsTypeSolution Solution = Idx.Infer.solve();
  std::string Error;
  if (!snapshot::writeSnapshot(Path, Text, Shape, Idx, Solution, Error)) {
    std::cerr << "cold_start: " << Error << "\n";
    std::exit(1);
  }
}

struct Sweep {
  double ColdMs = 0;
  double BaseOpenMs = 0; ///< LoadMs + OpenMs, medians of the sums
  double LoadMs = 0;
  double OpenMs = 0;
  size_t SnapshotBytes = 0;
};

Sweep runSweep(size_t Repeats) {
  const Corpus C = makeCorpus();
  const std::string Path = snapshotPath();
  writeCorpusSnapshot(C.Text, Path);
  std::cout << "corpus: " << C.Text.size() / 1024 << " KiB of source, median "
            << "of " << Repeats << " runs per path\n\n";

  Sweep S;
  {
    std::vector<double> Ms;
    for (size_t I = 0; I != Repeats; ++I) {
      std::string Error;
      auto Start = std::chrono::steady_clock::now();
      std::unique_ptr<DocumentState> Doc =
          buildDocumentState("bench.cs", C.Text, 1, /*DocThreads=*/1, Error);
      if (!Doc) {
        std::cerr << "cold_start: cold build failed: " << Error << "\n";
        std::exit(1);
      }
      Ms.push_back(msSince(Start));
    }
    S.ColdMs = medianOf(Ms);
  }
  {
    std::vector<double> TotalMs, LoadMs, OpenMs;
    for (size_t I = 0; I != Repeats; ++I) {
      std::string Error;
      auto Start = std::chrono::steady_clock::now();
      auto Snap = snapshot::loadSnapshot(Path, Error);
      if (!Snap) {
        std::cerr << "cold_start: " << Error << "\n";
        std::exit(1);
      }
      std::shared_ptr<const BaseCorpus> Base = baseCorpusFromSnapshot(Snap);
      double Loaded = msSince(Start);
      S.SnapshotBytes = Snap->Bytes;

      auto OpenStart = std::chrono::steady_clock::now();
      std::unique_ptr<DocumentState> Doc =
          buildDocumentState("client.cs", C.ClientDoc, 1, /*DocThreads=*/1,
                             Error, nullptr, Base);
      double Opened = msSince(OpenStart);
      if (!Doc) {
        std::cerr << "cold_start: overlay open failed: " << Error << "\n";
        std::exit(1);
      }
      if (Doc->Base != Base || Doc->DegradedMonolithic ||
          Doc->TS->baseLayer() != Base->TS.get()) {
        std::cerr << "cold_start: FAIL: the first open did not build as an "
                     "overlay of the loaded base\n";
        std::exit(1);
      }
      TotalMs.push_back(Loaded + Opened);
      LoadMs.push_back(Loaded);
      OpenMs.push_back(Opened);
    }
    S.BaseOpenMs = medianOf(TotalMs);
    S.LoadMs = medianOf(LoadMs);
    S.OpenMs = medianOf(OpenMs);
  }
  std::remove(Path.c_str());
  return S;
}

void printSweep(const Sweep &S) {
  auto VsCold = [&](double Ms) {
    return formatFixed(Ms > 0 ? S.ColdMs / Ms : 0, 1) + "x";
  };
  TextTable Tab;
  Tab.setHeader({"path", "median ms", "vs cold"});
  Tab.addRow({"cold-open", formatFixed(S.ColdMs, 2), "1.0x"});
  Tab.addRow({"base-open", formatFixed(S.BaseOpenMs, 2), VsCold(S.BaseOpenMs)});
  Tab.addRow({"  base-snapshot load", formatFixed(S.LoadMs, 2), ""});
  Tab.addRow({"  first overlay open", formatFixed(S.OpenMs, 2), ""});
  std::cout << "Process start to query-ready (snapshot "
            << S.SnapshotBytes / 1024 << " KiB):\n";
  Tab.print(std::cout);
  std::cout << "\n";
}

void writeJson(const Sweep &S, size_t Repeats) {
  std::string Dir = ".";
  if (const char *D = std::getenv("PETAL_BENCH_DIR"))
    Dir = D;
  std::ofstream OS(Dir + "/BENCH_cold_start.json");
  OS << "{\n"
     << "  \"benchmark\": \"cold_start\",\n"
     << "  \"scale\": " << formatFixed(coldScale(), 2) << ",\n"
     << "  \"repeats\": " << Repeats << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"snapshot_bytes\": " << S.SnapshotBytes << ",\n"
     << "  \"results\": [\n"
     << "    {\"path\": \"cold-open\", \"ms\": " << formatFixed(S.ColdMs, 2)
     << "},\n"
     << "    {\"path\": \"base-open\", \"ms\": "
     << formatFixed(S.BaseOpenMs, 2)
     << ", \"load_ms\": " << formatFixed(S.LoadMs, 2)
     << ", \"open_ms\": " << formatFixed(S.OpenMs, 2) << "}\n"
     << "  ]\n}\n";
  std::cout << "wrote " << Dir << "/BENCH_cold_start.json\n";
}

/// Reruns the sweep and compares per-path medians against a
/// BENCH_cold_start.json snapshot. Latency: *higher* is the regression
/// direction.
int checkAgainst(const std::string &File, double TolerancePct,
                 size_t Repeats) {
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
  std::map<std::string, double> Baseline;
  for (const json::Value &RowV : Results->elements())
    Baseline[RowV.getString("path")] = RowV.getNumber("ms", 0);
  if (std::abs(Snapshot.getNumber("scale", -1) - coldScale()) > 1e-9)
    std::cout << "note: baseline was recorded at scale "
              << formatFixed(Snapshot.getNumber("scale", -1), 2)
              << ", current scale is " << formatFixed(coldScale(), 2)
              << " — comparison is not meaningful across scales\n\n";

  Sweep S = runSweep(Repeats);
  printSweep(S);
  std::vector<std::pair<std::string, double>> Current = {
      {"cold-open", S.ColdMs},
      {"base-open", S.BaseOpenMs},
  };

  TextTable Tab;
  Tab.setHeader({"path", "baseline ms", "current ms", "delta", "verdict"});
  bool Regressed = false;
  for (const auto &[Path, Ms] : Current) {
    auto It = Baseline.find(Path);
    if (It == Baseline.end() || It->second <= 0) {
      Tab.addRow({Path, "-", formatFixed(Ms, 2), "-", "no baseline"});
      continue;
    }
    double DeltaPct = (Ms - It->second) / It->second * 100.0;
    bool Bad = DeltaPct > TolerancePct;
    Regressed |= Bad;
    Tab.addRow({Path, formatFixed(It->second, 2), formatFixed(Ms, 2),
                (DeltaPct >= 0 ? "+" : "") + formatFixed(DeltaPct, 1) + "%",
                Bad ? "REGRESSION" : "ok"});
  }
  std::cout << "Cold-start latency vs '" << File << "' (tolerance "
            << formatFixed(TolerancePct, 1) << "%):\n";
  Tab.print(std::cout);
  std::cout << "\n";
  if (Regressed) {
    std::cerr << "FAIL: cold-start latency regressed more than "
              << formatFixed(TolerancePct, 1)
              << "% against the baseline snapshot\n";
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  size_t Repeats = 5;
  std::string CheckFile;
  double TolerancePct = 10.0;
  FlagParser Flags("cold_start",
                   "cold build vs base snapshot, start to query-ready");
  Flags.addFlag("repeat", "N", "runs per path, median reported",
                [&](const std::string &V) {
                  if (!parseCount(V, "repeat", Repeats))
                    return false;
                  if (Repeats == 0) {
                    std::cerr << "error: --repeat must be >= 1\n";
                    return false;
                  }
                  return true;
                });
  Flags.addFlag("check-against", "file",
                "compare against a BENCH_cold_start.json snapshot instead "
                "of writing one",
                [&](const std::string &V) {
                  CheckFile = V;
                  return true;
                });
  Flags.addFlag("tolerance", "pct",
                "allowed latency increase before --check-against fails",
                [&](const std::string &V) {
                  char *End = nullptr;
                  TolerancePct = std::strtod(V.c_str(), &End);
                  if (End == V.c_str() || *End != '\0' || TolerancePct < 0) {
                    std::cerr << "error: --tolerance needs a non-negative "
                                 "percentage, got '"
                              << V << "'\n";
                    return false;
                  }
                  return true;
                });
  if (!Flags.parse(argc, argv))
    return Flags.exitCode();

  banner("cold start", "DESIGN.md §13-14 / start-to-query-ready",
         coldScale());
  if (!CheckFile.empty())
    return checkAgainst(CheckFile, TolerancePct, Repeats);

  Sweep S = runSweep(Repeats);
  printSweep(S);
  writeJson(S, Repeats);
  return 0;
}

//===- bench/edit_latency.cpp - incremental rebuild latency ---------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Measures what an editor feels on every keystroke batch: the time from
// petal/change to a query-ready DocumentState. A generated project (plus
// one small appended class whose text the edits touch) is built cold, then
// rebuilt through buildDocumentState's incremental path for each edit
// shape:
//
//   noop-whitespace   token-identical text     -> incremental-noop
//   body-edit         one method body changed  -> incremental-body
//   sig-edit          one field added          -> full (fallback)
//
// Each build is repeated (--repeat, default 5) and the median wall time
// recorded; the classification returned by the builder is verified against
// the expected kind, so the bench cannot silently measure the wrong path.
// The point of DESIGN.md §12 is the body-edit row: it shares the previous
// version's TypeSystem and frozen index tables and must come in well below
// the cold build at equal scale.
//
// Writes BENCH_edit.json (into the current directory, or $PETAL_BENCH_DIR).
// With --check-against <file> it instead reruns the sweep and fails if any
// edit shape's median latency exceeds the snapshot by more than
// --tolerance percent.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "corpus/SourceWriter.h"
#include "service/Session.h"
#include "support/CliArgs.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>

using namespace petal;
using namespace petal::bench;

namespace {

/// Default corpus scale for this bench. Larger than the 0.5 the other
/// benches use on purpose: the quantity under test is the cost *avoided*
/// by sharing the frozen type-graph tables, which is O(N^2) in types,
/// while the cost the incremental path must still pay (aligning the text
/// with the previous version's, parsing, resolving and harvesting the
/// edited declaration, replaying the other classes' abstract-type
/// records, and solving) is O(N). At toy scales the linear part dominates
/// both columns and the bench degenerates into a parser benchmark; at
/// this scale the corpus is comparable to the paper's smaller subjects
/// and the table measures what an editor actually feels.
constexpr double DefaultScale = 6.0;

double editScale() { return benchScale(DefaultScale); }

/// The class the edits touch, appended to the generated project source so
/// the edit shapes are textual and deterministic.
constexpr const char *ScratchClass = "class EditScratch {\n"
                                     "  double Seed;\n"
                                     "  void Touch(double x) {\n"
                                     "    var tmp = x;\n"
                                     "    return;\n"
                                     "  }\n"
                                     "}\n";

struct EditShape {
  const char *Name;
  std::string Text;
  DocumentState::BuildKind Want;
};

const char *kindName(DocumentState::BuildKind K) {
  switch (K) {
  case DocumentState::BuildKind::Full:
    return "full";
  case DocumentState::BuildKind::IncrementalBody:
    return "incremental-body";
  case DocumentState::BuildKind::IncrementalNoop:
    return "incremental-noop";
  }
  return "?";
}

std::string baseText() {
  ProjectProfile Prof = paperProjectProfiles(editScale())[0];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  return writeProgramSource(P) + ScratchClass;
}

std::vector<EditShape> editShapes(const std::string &Base) {
  std::vector<EditShape> Shapes;
  Shapes.push_back(
      {"noop-whitespace", Base + "\n\n", DocumentState::BuildKind::IncrementalNoop});
  std::string BodyEdited = Base;
  size_t At = BodyEdited.rfind("var tmp = x;");
  BodyEdited.replace(At, 12, "var tmp = x;\n    var tmp2 = tmp;");
  Shapes.push_back(
      {"body-edit", BodyEdited, DocumentState::BuildKind::IncrementalBody});
  std::string SigEdited = Base;
  At = SigEdited.rfind("double Seed;");
  SigEdited.replace(At, 12, "double Seed;\n  double Extra;");
  Shapes.push_back({"sig-edit", SigEdited, DocumentState::BuildKind::Full});
  return Shapes;
}

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

std::unique_ptr<DocumentState> buildOrDie(const std::string &Text, int64_t V,
                                          const DocumentState *Prev) {
  std::string Error;
  std::unique_ptr<DocumentState> Doc =
      buildDocumentState("bench.cs", Text, V, /*DocThreads=*/1, Error, Prev);
  if (!Doc) {
    std::cerr << "build failed: " << Error << "\n";
    std::exit(1);
  }
  return Doc;
}

struct Row {
  std::string Edit;
  std::string Build; ///< classification actually observed
  double MedianMs = 0;
  double Speedup = 0; ///< cold_ms / MedianMs
};

struct Sweep {
  double ColdMs = 0;
  std::vector<Row> Rows;
};

Sweep runSweep(size_t Repeats) {
  const std::string Base = baseText();
  std::cout << "document: " << Base.size() / 1024 << " KiB of source, median "
            << "of " << Repeats << " builds per shape\n\n";

  // The previous version every edit is applied against. Built once; the
  // incremental path treats it as immutable.
  std::unique_ptr<DocumentState> Prev = buildOrDie(Base, 1, nullptr);

  Sweep S;
  {
    std::vector<double> Ms;
    for (size_t I = 0; I != Repeats; ++I)
      Ms.push_back(buildOrDie(Base, 1, nullptr)->BuildMillis);
    S.ColdMs = medianOf(Ms);
  }
  for (const EditShape &Shape : editShapes(Base)) {
    Row R;
    R.Edit = Shape.Name;
    std::vector<double> Ms;
    for (size_t I = 0; I != Repeats; ++I) {
      std::unique_ptr<DocumentState> Doc =
          buildOrDie(Shape.Text, 2, Prev.get());
      if (Doc->Kind != Shape.Want) {
        std::cerr << "FAIL: edit '" << Shape.Name << "' classified as "
                  << kindName(Doc->Kind) << ", expected "
                  << kindName(Shape.Want) << "\n";
        std::exit(1);
      }
      R.Build = kindName(Doc->Kind);
      Ms.push_back(Doc->BuildMillis);
    }
    R.MedianMs = medianOf(Ms);
    R.Speedup = R.MedianMs > 0 ? S.ColdMs / R.MedianMs : 0;
    S.Rows.push_back(std::move(R));
  }
  return S;
}

void printSweep(const Sweep &S) {
  TextTable Tab;
  Tab.setHeader({"edit shape", "build", "median ms", "vs cold"});
  Tab.addRow({"(cold open)", "full", formatFixed(S.ColdMs, 2), "1.0x"});
  for (const Row &R : S.Rows)
    Tab.addRow({R.Edit, R.Build, formatFixed(R.MedianMs, 2),
                formatFixed(R.Speedup, 1) + "x"});
  std::cout << "Rebuild latency by edit shape (cold = from-scratch build of "
               "the same text):\n";
  Tab.print(std::cout);
  std::cout << "\n";
}

void writeSnapshot(const Sweep &S, size_t Repeats) {
  std::string Dir = ".";
  if (const char *D = std::getenv("PETAL_BENCH_DIR"))
    Dir = D;
  std::ofstream OS(Dir + "/BENCH_edit.json");
  OS << "{\n"
     << "  \"benchmark\": \"edit_latency\",\n"
     << "  \"scale\": " << formatFixed(editScale(), 2) << ",\n"
     << "  \"repeats\": " << Repeats << ",\n"
     << "  \"cold_build_ms\": " << formatFixed(S.ColdMs, 2) << ",\n"
     << "  \"results\": [\n";
  for (size_t I = 0; I != S.Rows.size(); ++I)
    OS << "    {\"edit\": \"" << S.Rows[I].Edit << "\", \"build\": \""
       << S.Rows[I].Build << "\", \"ms\": " << formatFixed(S.Rows[I].MedianMs, 2)
       << ", \"speedup_vs_cold\": " << formatFixed(S.Rows[I].Speedup, 1)
       << "}" << (I + 1 == S.Rows.size() ? "\n" : ",\n");
  OS << "  ]\n}\n";
  std::cout << "wrote " << Dir << "/BENCH_edit.json\n";
}

/// Reruns the sweep and compares per-shape median latency against a
/// BENCH_edit.json snapshot. Latency: *higher* than baseline is the
/// regression direction.
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
  Baseline["(cold open)"] = Snapshot.getNumber("cold_build_ms", 0);
  for (const json::Value &RowV : Results->elements())
    Baseline[RowV.getString("edit")] = RowV.getNumber("ms", 0);
  if (std::abs(Snapshot.getNumber("scale", -1) - editScale()) > 1e-9)
    std::cout << "note: baseline was recorded at scale "
              << formatFixed(Snapshot.getNumber("scale", -1), 2)
              << ", current scale is " << formatFixed(editScale(), 2)
              << " — comparison is not meaningful across scales\n\n";

  Sweep S = runSweep(Repeats);
  std::vector<std::pair<std::string, double>> Current;
  Current.emplace_back("(cold open)", S.ColdMs);
  for (const Row &R : S.Rows)
    Current.emplace_back(R.Edit, R.MedianMs);

  TextTable Tab;
  Tab.setHeader({"edit shape", "baseline ms", "current ms", "delta",
                 "verdict"});
  bool Regressed = false;
  for (const auto &[Edit, Ms] : Current) {
    auto It = Baseline.find(Edit);
    if (It == Baseline.end() || It->second <= 0) {
      Tab.addRow({Edit, "-", formatFixed(Ms, 2), "-", "no baseline"});
      continue;
    }
    double DeltaPct = (Ms - It->second) / It->second * 100.0;
    bool Bad = DeltaPct > TolerancePct;
    Regressed |= Bad;
    Tab.addRow({Edit, formatFixed(It->second, 2), formatFixed(Ms, 2),
                (DeltaPct >= 0 ? "+" : "") + formatFixed(DeltaPct, 1) + "%",
                Bad ? "REGRESSION" : "ok"});
  }
  std::cout << "Rebuild latency vs '" << File << "' (tolerance "
            << formatFixed(TolerancePct, 1) << "%):\n";
  Tab.print(std::cout);
  std::cout << "\n";
  if (Regressed) {
    std::cerr << "FAIL: rebuild latency regressed more than "
              << formatFixed(TolerancePct, 1)
              << "% against the baseline snapshot\n";
    return 1;
  }
  std::cout << "rebuild latency within tolerance of the baseline\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  size_t Repeats = 5;
  std::string CheckFile;
  double TolerancePct = 10.0;
  FlagParser Flags("edit_latency",
                   "incremental DocumentState rebuild latency by edit shape");
  Flags.addFlag("repeat", "N", "builds per edit shape, median reported",
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
                "compare against a BENCH_edit.json snapshot instead of "
                "writing one",
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

  banner("incremental edit latency", "DESIGN.md §12 / keystroke-to-ready",
         editScale());
  if (!CheckFile.empty())
    return checkAgainst(CheckFile, TolerancePct, Repeats);

  Sweep S = runSweep(Repeats);
  printSweep(S);
  writeSnapshot(S, Repeats);
  return 0;
}

//===- tests/golden_completions_test.cpp - Ordered-completion golden file -===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The oracle suites (bruteforce_test.cpp) compare completion *multisets*, so
// they cannot see a change in the order of tied completions. This test pins
// the order: it replays a fixed set of queries over generated projects and
// compares the ordered top-10 (score, printed expression) lists with
// tests/data/golden_completions.txt, byte for byte.
//
// The file must only change in a commit that changes ranking or tie order
// on purpose. To rewrite it after such a change, run
//
//   PETAL_UPDATE_GOLDEN=1 ./build/tests/petal_tests
//     --gtest_filter=GoldenCompletionsTest.*
//
// and review the diff.
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"
#include "eval/Harvest.h"

#include "code/ExprPrinter.h"
#include "complete/Engine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace petal;

namespace {

const char *const GoldenPath = PETAL_TEST_DATA_DIR "/golden_completions.txt";

/// The project seeds (xored into the Banshee profile's seed) and the
/// number of harvested call sites, and of comparisons, replayed per
/// project.
const uint64_t Seeds[] = {0, 0x2222};
const size_t SitesPerSeed = 4;
const size_t TopN = 10;

/// The ranking configurations each query runs under: the full ranking, the
/// abstract-type term off, and the depth term off (which sends star
/// suffixes down SuffixStream's chain-length route, lookup step 0).
struct Mode {
  const char *Name;
  RankingOptions Rank;
};

std::vector<Mode> modes() {
  RankingOptions NoAbstract = RankingOptions::all();
  NoAbstract.UseAbstractTypes = false;
  RankingOptions NoDepth = RankingOptions::all();
  NoDepth.UseDepth = false;
  return {{"all", RankingOptions::all()},
          {"-a", NoAbstract},
          {"-d", NoDepth}};
}

/// The overload set a `name(a, ?)` query resolves against. The generator
/// emits no same-name overloads, so every method of the callee's owner with
/// the callee's call-signature arity stands in for one: the engine merges
/// one known-call stream per member of the set either way.
std::vector<MethodId> overloadsLike(const TypeSystem &TS, MethodId M) {
  std::vector<MethodId> Out;
  for (size_t I = 0; I != TS.numMethods(); ++I) {
    MethodId Id = static_cast<MethodId>(I);
    if (TS.method(Id).Owner == TS.method(M).Owner &&
        TS.numCallParams(Id) == TS.numCallParams(M))
      Out.push_back(Id);
  }
  return Out;
}

/// The queries replayed at one call site, built from its first two
/// guessable expressions \p A and \p B: `?({a, b})`, the call itself with
/// its first guessable argument as a hole over the whole overload set,
/// `a.?f = ?` and a plain `?`.
std::vector<const PartialExpr *> callQueries(const TypeSystem &TS, Arena &Ar,
                                             const CallExpr *Call,
                                             const Expr *A, const Expr *B) {
  auto Concrete = [&](const Expr *E) { return Ar.create<ConcretePE>(E); };
  std::vector<const PartialExpr *> Qs;
  Qs.push_back(Ar.create<UnknownCallPE>(
      std::vector<const PartialExpr *>{Concrete(A), Concrete(B)}));

  std::vector<const PartialExpr *> Args;
  bool HoleUsed = false;
  if (Call->receiver())
    Args.push_back(Concrete(Call->receiver()));
  for (const Expr *Arg : Call->args()) {
    if (!HoleUsed && isGuessableExpr(Arg)) {
      Args.push_back(Ar.create<HolePE>());
      HoleUsed = true;
    } else {
      Args.push_back(Concrete(Arg));
    }
  }
  if (HoleUsed)
    Qs.push_back(Ar.create<KnownCallPE>(TS.method(Call->method()).Name,
                                        std::move(Args),
                                        overloadsLike(TS, Call->method())));

  Qs.push_back(Ar.create<AssignPE>(
      Ar.create<SuffixPE>(Concrete(A), SuffixKind::Field),
      Ar.create<HolePE>()));
  Qs.push_back(Ar.create<HolePE>());
  return Qs;
}

/// The queries replayed at one comparison `a op b`: `a < ?` and
/// `a >= b.?m`. (Operands taken from call sites are mostly objects, which
/// compare with nothing, so comparisons come from harvested comparisons.)
std::vector<const PartialExpr *> compareQueries(Arena &Ar, const Expr *A,
                                                const Expr *B) {
  return {Ar.create<ComparePE>(CompareOp::Lt, Ar.create<ConcretePE>(A),
                               Ar.create<HolePE>()),
          Ar.create<ComparePE>(
              CompareOp::Ge, Ar.create<ConcretePE>(A),
              Ar.create<SuffixPE>(Ar.create<ConcretePE>(B),
                                  SuffixKind::Member))};
}

/// Runs every query of one generated project and appends the ordered
/// results to \p OS.
void recordProject(uint64_t Seed, std::ostream &OS) {
  ProjectProfile Prof = paperProjectProfiles(0.15)[3]; // Banshee, small
  Prof.Seed ^= Seed;
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  CompletionIndexes Idx(P);
  HarvestResult Sites = harvestProgram(P);
  CompletionEngine Engine(P, Idx);

  auto Run = [&](const CodeSite &Site,
                 const std::vector<const PartialExpr *> &Qs) {
    OS << "== site " << TS.qualifiedName(Site.Class->type()) << "."
       << TS.method(Site.Method->decl()).Name << " @" << Site.StmtIndex
       << "\n";
    for (const PartialExpr *Q : Qs) {
      for (const Mode &M : modes()) {
        CompletionOptions Opts;
        Opts.Rank = M.Rank;
        std::vector<Completion> Got = Engine.complete(Q, Site, TopN, Opts);
        OS << "-- " << M.Name << " " << printPartialExpr(TS, Q);
        if (const auto *K = dyn_cast<KnownCallPE>(Q))
          OS << " [" << K->resolved().size() << " overloads]";
        OS << "\n";
        for (const Completion &C : Got)
          OS << C.Score << " " << printExpr(TS, C.E) << "\n";
      }
    }
  };

  OS << "== seed " << Seed << "\n";
  size_t Calls = 0;
  for (const CallSiteInfo &CS : Sites.Calls) {
    if (Calls == SitesPerSeed)
      break;
    std::vector<const Expr *> Guessable;
    if (CS.Call->receiver() && isGuessableExpr(CS.Call->receiver()))
      Guessable.push_back(CS.Call->receiver());
    for (const Expr *Arg : CS.Call->args())
      if (isGuessableExpr(Arg) && Guessable.size() < 2)
        Guessable.push_back(Arg);
    if (Guessable.size() < 2)
      continue;
    ++Calls;
    Run(CS.Site,
        callQueries(TS, P.arena(), CS.Call, Guessable[0], Guessable[1]));
  }
  size_t Compares = 0;
  for (const CompareSiteInfo &CS : Sites.Compares) {
    if (Compares == SitesPerSeed)
      break;
    const Expr *A = CS.Compare->lhs(), *B = CS.Compare->rhs();
    if (!isGuessableExpr(A) || !isGuessableExpr(B))
      continue;
    ++Compares;
    Run(CS.Site, compareQueries(P.arena(), A, B));
  }
  OS << "== replayed " << Calls << " call and " << Compares
     << " comparison sites\n";
}

std::string recordAll() {
  std::ostringstream OS;
  for (uint64_t Seed : Seeds)
    recordProject(Seed, OS);
  return OS.str();
}

TEST(GoldenCompletionsTest, OrderedTopTenMatchesRecording) {
  std::string Got = recordAll();
  if (const char *U = std::getenv("PETAL_UPDATE_GOLDEN"); U && *U == '1') {
    std::ofstream(GoldenPath, std::ios::binary) << Got;
    GTEST_SKIP() << "rewrote " << GoldenPath;
  }

  std::ifstream In(GoldenPath, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden file " << GoldenPath;
  std::stringstream Want;
  Want << In.rdbuf();

  // Report the first differing line rather than two multi-KB strings.
  std::istringstream GS(Got), WS(Want.str());
  std::string GL, WL, Context;
  for (size_t Line = 1;; ++Line) {
    bool HasG = static_cast<bool>(std::getline(GS, GL));
    bool HasW = static_cast<bool>(std::getline(WS, WL));
    if (!HasG && !HasW)
      break;
    if (!HasG || !HasW || GL != WL)
      FAIL() << "golden mismatch at line " << Line << " (last header: "
             << Context << ")\n  want: " << (HasW ? WL : "<eof>")
             << "\n  got:  " << (HasG ? GL : "<eof>");
    if (GL.rfind("--", 0) == 0 || GL.rfind("==", 0) == 0)
      Context = GL;
  }
}

} // namespace

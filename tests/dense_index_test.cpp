//===- tests/dense_index_test.cpp - Frozen dense index equivalence --------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The frozen dense tables (the TypeId×TypeId distance matrix, CSR member
// edges, pre-merged method-index spans — see DESIGN.md §11) are a pure
// representation change: every query they answer must be *value-identical*
// to the legacy lazy path. These tests enforce that exhaustively — every
// (type, type) pair, every member-edge list, every method-candidate list —
// on pairs of identically generated corpora (all seven paper profiles, plus
// one larger PaintNet), one frozen dense and one kept on the warmed lazy
// path (FreezeOptions::MaxDenseBytes = 0). The lazy path is an independent reference: freeze() fills the
// dense tables directly, never from the lazy caches. A concurrent
// stress case (run under TSan via scripts/ci.sh; the suite name matches
// the IndexStress regex) hammers the lock-free tables from eight threads.
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "code/ExprPrinter.h"
#include "complete/BaseCorpus.h"
#include "complete/Engine.h"
#include "corpus/Generator.h"
#include "corpus/SourceWriter.h"
#include "parser/Frontend.h"
#include "snapshot/Snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace petal;

namespace {

/// One corpus generated twice (same profile, same seed): Dense is frozen
/// into the flat tables, Legacy is warmed but kept on the lazy hash/vector
/// path. Every index query must agree between the two.
struct CorpusPair {
  std::string Label;
  std::unique_ptr<TypeSystem> DenseTS, LegacyTS;
  std::unique_ptr<Program> DenseP, LegacyP;
  std::unique_ptr<CompletionIndexes> Dense, Legacy;
};

std::unique_ptr<CorpusPair> makePair(const ProjectProfile &Prof,
                                     double Scale) {
  auto C = std::make_unique<CorpusPair>();
  C->Label = Prof.Name + " @ " + std::to_string(Scale);

  C->DenseTS = std::make_unique<TypeSystem>();
  C->DenseP = std::make_unique<Program>(*C->DenseTS);
  CorpusGenerator(Prof).generate(*C->DenseP);
  C->Dense = std::make_unique<CompletionIndexes>(*C->DenseP);
  C->Dense->freeze(); // default budget: dense tables

  C->LegacyTS = std::make_unique<TypeSystem>();
  C->LegacyP = std::make_unique<Program>(*C->LegacyTS);
  CorpusGenerator(Prof).generate(*C->LegacyP);
  C->Legacy = std::make_unique<CompletionIndexes>(*C->LegacyP);
  C->Legacy->freeze(FreezeOptions{/*MaxDenseBytes=*/0}); // warmed lazy path
  return C;
}

/// A larger scale for one more pair, and for the overlay case's base:
/// PaintNet there has deep supertype and lookup chains.
constexpr double LargeScale = 0.5;

/// The corpus pairs every DenseEquivalenceTest case walks: all seven paper
/// profiles at scale 0.15, then PaintNet at LargeScale (last). Built
/// once per test process.
class DenseEquivalenceTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    for (const ProjectProfile &Prof : paperProjectProfiles(0.15))
      Pairs.push_back(makePair(Prof, 0.15));
    Pairs.push_back(makePair(paperProjectProfiles(LargeScale)[0],
                             LargeScale));
    for (const auto &C : Pairs)
      ASSERT_EQ(C->DenseTS->numTypes(), C->LegacyTS->numTypes()) << C->Label;
  }
  static void TearDownTestSuite() { Pairs.clear(); }

  static std::vector<std::unique_ptr<CorpusPair>> Pairs;
};

std::vector<std::unique_ptr<CorpusPair>> DenseEquivalenceTest::Pairs;

TEST_F(DenseEquivalenceTest, FreezeModesTakeTheIntendedRepresentation) {
  ASSERT_EQ(Pairs.size(), paperProjectProfiles(0.15).size() + 1);
  for (const auto &C : Pairs) {
    SCOPED_TRACE(C->Label);
    EXPECT_TRUE(C->Dense->frozen());
    EXPECT_TRUE(C->DenseTS->denseDistancesFrozen());
    EXPECT_TRUE(C->Dense->Members.frozen());
    EXPECT_TRUE(C->Dense->Methods.frozen());

    // Budget 0 keeps every index on the (warmed) lazy representation.
    EXPECT_TRUE(C->Legacy->frozen());
    EXPECT_FALSE(C->LegacyTS->denseDistancesFrozen());
    EXPECT_FALSE(C->Legacy->Members.frozen());
    EXPECT_FALSE(C->Legacy->Methods.frozen());
  }
}

TEST_F(DenseEquivalenceTest, TypeDistancesMatchLegacyOnEveryPair) {
  for (const auto &C : Pairs) {
    SCOPED_TRACE(C->Label);
    const TypeSystem &DenseTS = *C->DenseTS, &LegacyTS = *C->LegacyTS;
    size_t N = DenseTS.numTypes();
    for (size_t F = 0; F != N; ++F)
      for (size_t T = 0; T != N; ++T) {
        TypeId From = static_cast<TypeId>(F), To = static_cast<TypeId>(T);
        ASSERT_EQ(DenseTS.implicitlyConvertible(From, To),
                  LegacyTS.implicitlyConvertible(From, To))
            << DenseTS.qualifiedName(From) << " -> "
            << DenseTS.qualifiedName(To);
        ASSERT_EQ(DenseTS.typeDistance(From, To),
                  LegacyTS.typeDistance(From, To))
            << DenseTS.qualifiedName(From) << " -> "
            << DenseTS.qualifiedName(To);
      }
  }
}

TEST_F(DenseEquivalenceTest, MemberEdgeListsMatchLegacyElementwise) {
  for (const auto &C : Pairs) {
    SCOPED_TRACE(C->Label);
    size_t N = C->DenseTS->numTypes();
    for (size_t T = 0; T != N; ++T) {
      TypeId Ty = static_cast<TypeId>(T);
      auto D = C->Dense->Members.edges(Ty);
      auto L = C->Legacy->Members.edges(Ty);
      ASSERT_EQ(D.size(), L.size()) << "type " << T;
      ASSERT_EQ(C->Dense->Members.numFieldEdges(Ty),
                C->Legacy->Members.numFieldEdges(Ty));
      for (size_t I = 0; I != D.size(); ++I) {
        ASSERT_EQ(D[I].IsField, L[I].IsField) << "type " << T << " edge " << I;
        ASSERT_EQ(D[I].Field, L[I].Field);
        ASSERT_EQ(D[I].Method, L[I].Method);
        ASSERT_EQ(D[I].ResultType, L[I].ResultType);
      }
    }
  }
}

TEST_F(DenseEquivalenceTest, MethodCandidateListsMatchLegacyInOrder) {
  for (const auto &C : Pairs) {
    SCOPED_TRACE(C->Label);
    size_t N = C->DenseTS->numTypes();
    for (size_t T = 0; T != N; ++T) {
      TypeId Ty = static_cast<TypeId>(T);
      auto D = C->Dense->Methods.candidatesForArgType(Ty);
      auto L = C->Legacy->Methods.candidatesForArgType(Ty);
      ASSERT_EQ(D.size(), L.size()) << "type " << T;
      // Order is part of the contract: the pre-merged spans must preserve
      // the nearer-supertype-first BFS order the ranking relies on.
      for (size_t I = 0; I != D.size(); ++I)
        ASSERT_EQ(D[I], L[I]) << "type " << T << " slot " << I;
    }
  }
}

/// The overlay form of the same property: a document layered over a frozen
/// base builds its method unions and base-type appendages directly, and
/// must agree with the lazy overlay path entry for entry. The document
/// subclasses a base class, holds base- and document-typed members, and
/// declares methods over both, so every overlay table is non-trivial.
TEST(DenseOverlayEquivalenceTest, OverlayTablesMatchTheLazyOverlayPath) {
  std::string BaseSrc;
  {
    TypeSystem Gen;
    Program GenP(Gen);
    CorpusGenerator(paperProjectProfiles(LargeScale)[0]).generate(GenP);
    BaseSrc = writeProgramSource(GenP);
  }
  std::string Error;
  std::shared_ptr<const BaseCorpus> Base = baseCorpusFromSource(BaseSrc, Error);
  ASSERT_NE(Base, nullptr) << Error;

  // A base class with supertypes to inherit from, and a second base
  // reference type for members and parameters.
  const TypeSystem &BTS = *Base->TS;
  std::string Parent, Other;
  for (size_t T = 0; T != BTS.numTypes(); ++T) {
    TypeId Ty = static_cast<TypeId>(T);
    if (BTS.isBuiltinType(Ty) || !BTS.isReferenceType(Ty))
      continue;
    if (Parent.empty() && BTS.type(Ty).Kind == TypeKind::Class &&
        !BTS.immediateSupertypes(Ty).empty())
      Parent = BTS.qualifiedName(Ty);
    else
      Other = BTS.qualifiedName(Ty);
  }
  ASSERT_FALSE(Parent.empty() || Other.empty());
  const std::string Doc = "namespace OverlayDoc {\n"
                          "  class Widget : " + Parent + " {\n"
                          "    " + Other + " Anchor;\n"
                          "    OverlayDoc.Gadget Peer;\n"
                          "    " + Parent + " Owner();\n"
                          "    static " + Other + " Convert(" + Parent +
                          " a, OverlayDoc.Widget w);\n"
                          "    void Use(" + Other + " b, int n);\n"
                          "  }\n"
                          "  class Gadget : OverlayDoc.Widget {\n"
                          "    OverlayDoc.Widget Parent;\n"
                          "    static OverlayDoc.Gadget Make(" + Other +
                          " seed);\n"
                          "    static int Inspect(" + Parent + " p);\n"
                          "  }\n"
                          "}\n";

  struct Overlay {
    std::unique_ptr<TypeSystem> TS;
    std::unique_ptr<Program> P;
    std::unique_ptr<CompletionIndexes> Idx;
  };
  auto Build = [&](size_t MaxDenseBytes) {
    Overlay O;
    DiagnosticEngine Diags;
    SynFile File;
    EXPECT_TRUE(parseSourceFile(Doc, File, Diags));
    O.TS = std::make_unique<TypeSystem>(Base->TS);
    O.P = std::make_unique<Program>(*O.TS);
    EXPECT_TRUE(resolveParsedFile(File, *O.P, Diags));
    O.Idx = std::make_unique<CompletionIndexes>(*O.P, Base);
    O.Idx->freeze(FreezeOptions{MaxDenseBytes});
    return O;
  };
  Overlay Dense = Build(256u << 20), Lazy = Build(0);
  ASSERT_TRUE(Dense.Idx->Methods.frozen());
  ASSERT_FALSE(Lazy.Idx->Methods.frozen());
  size_t N = Dense.TS->numTypes(), NumBase = BTS.numTypes();
  ASSERT_EQ(N, Lazy.TS->numTypes());
  ASSERT_GT(N, NumBase);

  size_t Appended = 0;
  for (size_t T = 0; T != N; ++T) {
    TypeId Ty = static_cast<TypeId>(T);
    auto D = Dense.Idx->Methods.candidatesForArgType(Ty);
    auto L = Lazy.Idx->Methods.candidatesForArgType(Ty);
    ASSERT_EQ(D.size(), L.size()) << "type " << T;
    for (size_t I = 0; I != D.size(); ++I)
      ASSERT_EQ(D[I], L[I]) << "type " << T << " slot " << I;
    if (T < NumBase &&
        D.size() > Base->Idx->Methods.candidatesForArgType(Ty).size())
      ++Appended;
  }
  EXPECT_GT(Appended, 0u) << "no base type gained an overlay method";
}

//===----------------------------------------------------------------------===//
// Engine-level equivalence on the parsed running-example corpus
//===----------------------------------------------------------------------===//

/// Completions (expressions, scores, and explain cards) must be
/// bit-identical whether the engine runs on dense-frozen or legacy-lazy
/// indexes.
TEST(DenseEngineEquivalenceTest, CompletionsIdenticalDenseVsLegacy) {
  const char *Queries[] = {"?", "Distance(point, ?)",
                           "point.?*m >= this.?*m", "?({point})", "this.?*f"};

  auto Run = [&](size_t MaxDenseBytes) {
    DiagnosticEngine Diags;
    TypeSystem TS;
    Program P(TS);
    EXPECT_TRUE(loadProgramText(corpora::GeometryCorpus, P, Diags));
    const CodeClass *Class = findCodeClass(P, "EllipseArc");
    const CodeMethod *Method = findCodeMethod(P, *Class, "Examine");
    CodeSite Site{Class, Method, Method->body().size()};

    CompletionIndexes Idx(P);
    Idx.freeze(FreezeOptions{MaxDenseBytes});
    CompletionEngine Engine(P, Idx);

    CompletionOptions Opts;
    Opts.Explain = true;
    std::ostringstream OS;
    for (const char *Text : Queries) {
      QueryScope Scope{Class, Method, Site.StmtIndex};
      const PartialExpr *Q = parseQueryText(Text, P, Scope, Diags);
      EXPECT_NE(Q, nullptr);
      for (const Completion &C : Engine.complete(Q, Site, 10, Opts))
        OS << C.Score << ' ' << printExpr(TS, C.E) << ' '
           << C.Card->toString() << '\n';
    }
    return OS.str();
  };

  std::string DenseOut = Run(/*MaxDenseBytes=*/256u << 20);
  std::string LegacyOut = Run(/*MaxDenseBytes=*/0);
  EXPECT_FALSE(DenseOut.empty());
  EXPECT_EQ(DenseOut, LegacyOut);
}

/// An over-tight budget must refuse dense compilation and fall back to the
/// lazy path rather than building partial tables.
TEST(DenseEngineEquivalenceTest, TinyBudgetFallsBackToLazyAndStillAnswers) {
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator(paperProjectProfiles(0.1)[0]).generate(P);
  CompletionIndexes Idx(P);
  Idx.freeze(FreezeOptions{/*MaxDenseBytes=*/1});
  EXPECT_TRUE(Idx.frozen());
  EXPECT_FALSE(TS.denseDistancesFrozen());
  // CSR compaction is not byte-budgeted (it shrinks storage); it still runs.
  EXPECT_TRUE(Idx.Members.frozen());
  EXPECT_TRUE(Idx.Methods.frozen());
  // And the index still answers.
  size_t Total = 0;
  for (size_t T = 0; T != TS.numTypes(); ++T)
    Total += Idx.Methods.candidatesForArgType(static_cast<TypeId>(T)).size();
  EXPECT_GT(Total, 0u);
}

//===----------------------------------------------------------------------===//
// Concurrent stress over the lock-free dense tables (TSan: scripts/ci.sh)
//===----------------------------------------------------------------------===//

/// Eight threads hammer the dense matrices and CSR spans with the *same*
/// access pattern: every per-thread checksum must agree with a serial
/// recompute (a torn read or partially published table would diverge).
/// The suite name contains "IndexStress" so the TSan CI leg picks it up.
TEST(DenseIndexStressTest, EightThreadsReadLockFreeTablesConsistently) {
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator(paperProjectProfiles(0.1)[0]).generate(P);
  CompletionIndexes Idx(P);
  Idx.freeze();
  ASSERT_TRUE(TS.denseDistancesFrozen());

  auto Checksum = [&] {
    uint64_t Sum = 0;
    size_t N = TS.numTypes();
    for (size_t Round = 0; Round != 3; ++Round)
      for (size_t I = 0; I != N; ++I) {
        TypeId From = static_cast<TypeId>((I * 7 + Round) % N);
        TypeId To = static_cast<TypeId>((I * 13 + 5) % N);
        Sum += Idx.Members.edges(From).size();
        Sum += Idx.Methods.candidatesForArgType(From).size();
        Sum += TS.implicitlyConvertible(From, To);
        Sum +=
            static_cast<uint64_t>(TS.typeDistance(From, To).value_or(-1) + 2);
      }
    return Sum;
  };

  uint64_t Expected = Checksum();
  constexpr size_t NumThreads = 8;
  std::vector<uint64_t> Got(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] { Got[T] = Checksum(); });
  for (std::thread &Th : Threads)
    Th.join();
  for (size_t T = 0; T != NumThreads; ++T)
    EXPECT_EQ(Got[T], Expected) << "thread " << T;
}

} // namespace

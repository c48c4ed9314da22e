//===- tests/workspace_overlay_test.cpp - base/overlay fresh-twin property ===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The correctness bar for the base/overlay workspace (DESIGN.md §14): a
// document built as an overlay over a shared frozen base corpus must
// produce completions *bit-identical* to a monolithic build of the same
// sources (base text + document text resolved into one TypeSystem), for
// every ranking spec — and overlay incremental rebuilds must preserve that
// through edits. The concurrency case — many overlay documents reading one
// base's frozen tables from 8 threads — runs under ThreadSanitizer in
// scripts/ci.sh; the whole file also runs under ASan (overlay spans alias
// base-owned storage, so lifetime bugs surface here first).
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "service/Client.h"
#include "service/Session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace petal;
using json::Value;

namespace {

/// The shared framework corpus every overlay layers over.
std::string baseText() { return corpora::GeometryCorpus; }

/// A client document: uses framework types but adds its own class.
std::string docText() {
  return "class Scratch {\n"
         "  void Play(System.Windows.Point point,\n"
         "            DynamicGeometry.ShapeStyle style) {\n"
         "    return;\n"
         "  }\n"
         "}\n";
}

/// The monolithic twin's source: base first, then the document, so entity
/// ids are assigned in exactly the order the overlay build produces them
/// (base ids, then document ids continuing after).
std::string monolithicText(const std::string &Doc) {
  return baseText() + Doc;
}

/// Replaces the first occurrence of \p From in \p S with \p To.
std::string replaceFirst(std::string S, const std::string &From,
                         const std::string &To) {
  size_t At = S.find(From);
  EXPECT_NE(At, std::string::npos) << From;
  if (At != std::string::npos)
    S.replace(At, From.size(), To);
  return S;
}

std::shared_ptr<const BaseCorpus> buildBase() {
  std::string Error;
  std::shared_ptr<const BaseCorpus> Base =
      baseCorpusFromSource(baseText(), Error);
  EXPECT_NE(Base, nullptr) << Error;
  return Base;
}

std::unique_ptr<DocumentState>
buildOverlay(const std::string &Text, int64_t V,
             const std::shared_ptr<const BaseCorpus> &Base,
             const DocumentState *Prev = nullptr) {
  std::string Error;
  std::unique_ptr<DocumentState> Doc = buildDocumentState(
      "doc.cs", Text, V, /*DocThreads=*/1, Error, Prev, Base);
  EXPECT_NE(Doc, nullptr) << Error;
  return Doc;
}

std::unique_ptr<DocumentState> buildMonolithic(const std::string &DocSrc,
                                               int64_t V) {
  std::string Error;
  std::unique_ptr<DocumentState> Doc = buildDocumentState(
      "doc.cs", monolithicText(DocSrc), V, /*DocThreads=*/1, Error);
  EXPECT_NE(Doc, nullptr) << Error;
  return Doc;
}

CompleteSpec spec(const std::string &Query) {
  CompleteSpec S;
  S.Class = "Scratch";
  S.Method = "Play";
  S.Query = Query;
  S.N = 10;
  return S;
}

/// Queries at the document's code site (the only kind an overlay serves:
/// the base corpus carries the vocabulary, the document carries the code),
/// across every ranking dimension the engine distinguishes: the abstract
/// term (whose overlay solution merely *extends* the frozen base
/// solution), explain, and spec-string ablations.
std::vector<CompleteSpec> queryBattery() {
  std::vector<CompleteSpec> Qs;
  Qs.push_back(spec("?({point})"));
  Qs.push_back(spec("?({point, style})"));
  Qs.push_back(spec("Distance(point, ?)"));
  CompleteSpec Explained = spec("?({point})");
  Explained.Opts.Explain = true;
  Qs.push_back(Explained);
  CompleteSpec NoAbs = spec("?({point})");
  NoAbs.Opts.UseAbstractTypes = false;
  Qs.push_back(NoAbs);
  CompleteSpec RankNone = spec("?({point})");
  RankNone.Opts.Rank = RankingOptions::fromSpec("none");
  Qs.push_back(RankNone);
  CompleteSpec RankNoDepth = spec("?({point, style})");
  RankNoDepth.Opts.Rank = RankingOptions::fromSpec("-d");
  Qs.push_back(RankNoDepth);
  return Qs;
}

void expectBitIdentical(DocumentState &Overlay, DocumentState &Mono) {
  for (const CompleteSpec &Q : queryBattery()) {
    SCOPED_TRACE(Q.Query + " rank=" + Q.Opts.Rank.spec());
    QueryOutcome A = runCompletion(Overlay, Q);
    QueryOutcome B = runCompletion(Mono, Q);
    ASSERT_TRUE(A.Ok && B.Ok) << A.ErrMsg << " / " << B.ErrMsg;
    EXPECT_EQ(A.Completions.write(), B.Completions.write());
    EXPECT_EQ(A.ClassQualName, B.ClassQualName);
  }
}

TEST(WorkspaceOverlayTest, OverlayMatchesMonolithicTwinBitForBit) {
  std::shared_ptr<const BaseCorpus> Base = buildBase();
  ASSERT_NE(Base, nullptr);
  std::unique_ptr<DocumentState> Overlay = buildOverlay(docText(), 1, Base);
  std::unique_ptr<DocumentState> Mono = buildMonolithic(docText(), 1);
  ASSERT_TRUE(Overlay && Mono);

  // The overlay really is an overlay: it layers over the base TypeSystem,
  // id-continues its entity spaces (total counts match the monolithic
  // twin's), and owns only the document-sized delta.
  EXPECT_EQ(Overlay->Base.get(), Base.get());
  EXPECT_EQ(Overlay->TS->baseLayer(), Base->TS.get());
  EXPECT_EQ(Overlay->TS->numTypes(), Mono->TS->numTypes());
  EXPECT_EQ(Overlay->TS->numMethods(), Mono->TS->numMethods());
  EXPECT_EQ(Overlay->TS->numFields(), Mono->TS->numFields());
  EXPECT_LT(Overlay->memoryBytes(), Base->memoryBytes());
  EXPECT_EQ(Mono->Base, nullptr);

  expectBitIdentical(*Overlay, *Mono);
}

TEST(WorkspaceOverlayTest, EditedOverlaysRebuildIncrementallyAndStayIdentical) {
  std::shared_ptr<const BaseCorpus> Base = buildBase();
  ASSERT_NE(Base, nullptr);
  std::unique_ptr<DocumentState> V1 = buildOverlay(docText(), 1, Base);
  ASSERT_NE(V1, nullptr);

  // Body-only edit: the overlay TypeSystem and frozen overlay tables carry
  // over (the PR's reclassification of the §12 incremental path — reuse is
  // now overlay-layer reuse; the base was never per-document to begin
  // with).
  const std::string V2Text =
      replaceFirst(docText(), "return;", "var tmp = point;\n    return;");
  std::unique_ptr<DocumentState> V2 = buildOverlay(V2Text, 2, Base, V1.get());
  ASSERT_NE(V2, nullptr);
  EXPECT_EQ(V2->Kind, DocumentState::BuildKind::IncrementalBody);
  EXPECT_EQ(V2->TS.get(), V1->TS.get());
  EXPECT_EQ(V2->Base.get(), Base.get());
  std::unique_ptr<DocumentState> M2 = buildMonolithic(V2Text, 2);
  ASSERT_NE(M2, nullptr);
  expectBitIdentical(*V2, *M2);

  // Token-identical edit on top: the overlay abstract-type solution (the
  // base extension) carries over too.
  const std::string V3Text = V2Text + "\n\n";
  std::unique_ptr<DocumentState> V3 = buildOverlay(V3Text, 3, Base, V2.get());
  ASSERT_NE(V3, nullptr);
  EXPECT_EQ(V3->Kind, DocumentState::BuildKind::IncrementalNoop);
  EXPECT_EQ(V3->Exec->sharedSolution(), V2->Exec->sharedSolution());
  std::unique_ptr<DocumentState> M3 = buildMonolithic(V3Text, 3);
  ASSERT_NE(M3, nullptr);
  expectBitIdentical(*V3, *M3);

  // Type-graph edit: a fresh overlay (not a fresh monolith) — the rebuild
  // is full relative to the *document*, still a delta relative to the
  // workspace.
  const std::string V4Text =
      replaceFirst(V3Text, "class Scratch {\n",
                   "class Scratch {\n  double Weight;\n");
  std::unique_ptr<DocumentState> V4 = buildOverlay(V4Text, 4, Base, V3.get());
  ASSERT_NE(V4, nullptr);
  EXPECT_EQ(V4->Kind, DocumentState::BuildKind::Full);
  EXPECT_NE(V4->TS.get(), V3->TS.get());
  EXPECT_EQ(V4->TS->baseLayer(), Base->TS.get());
  std::unique_ptr<DocumentState> M4 = buildMonolithic(V4Text, 4);
  ASSERT_NE(M4, nullptr);
  expectBitIdentical(*V4, *M4);
}

TEST(WorkspaceOverlayTest, ReachRowsMatchMonolithicTwin) {
  // The engine's reach rows walk MemberCache::edges, which forwards base
  // types to the base layer. A document whose types hold base- and
  // document-typed members (and derive from a base class) must get the same
  // row for every target as its monolithic twin, including the null
  // literal's zero-lookup reach into document reference types.
  const std::string Doc = docText() +
                          "namespace OverlayDoc {\n"
                          "  class Holder : DynamicGeometry.Shape {\n"
                          "    DynamicGeometry.ShapeStyle Style;\n"
                          "    OverlayDoc.Link Next;\n"
                          "  }\n"
                          "  class Link {\n"
                          "    OverlayDoc.Holder Back;\n"
                          "    DynamicGeometry.Glyph Mark();\n"
                          "  }\n"
                          "}\n";
  std::shared_ptr<const BaseCorpus> Base = buildBase();
  ASSERT_NE(Base, nullptr);
  std::unique_ptr<DocumentState> Overlay = buildOverlay(Doc, 1, Base);
  std::unique_ptr<DocumentState> Mono = buildMonolithic(Doc, 1);
  ASSERT_TRUE(Overlay && Mono);
  ASSERT_NE(Overlay->Base, nullptr);
  size_t N = Mono->TS->numTypes(), NumBase = Base->TS->numTypes();
  ASSERT_EQ(Overlay->TS->numTypes(), N);
  ASSERT_GT(N, NumBase);

  size_t CrossLayer = 0;
  for (size_t T = 0; T != N; ++T)
    for (bool Methods : {false, true}) {
      TypeId Target = static_cast<TypeId>(T);
      std::vector<int8_t> A = lookupsToConvertible(
          *Overlay->TS, Overlay->Idx->Members, Target, Methods);
      std::vector<int8_t> B =
          lookupsToConvertible(*Mono->TS, Mono->Idx->Members, Target, Methods);
      ASSERT_EQ(A, B) << "target " << Mono->TS->qualifiedName(Target)
                      << " methods=" << Methods;
      // Overlay types that reach a base target through a lookup chain.
      if (T < NumBase)
        for (size_t F = NumBase; F != N; ++F)
          CrossLayer += A[F] > 0;
    }
  EXPECT_GT(CrossLayer, 0u);
  TypeId Holder = InvalidId;
  for (size_t T = NumBase; T != N; ++T)
    if (Mono->TS->qualifiedName(static_cast<TypeId>(T)) == "OverlayDoc.Holder")
      Holder = static_cast<TypeId>(T);
  ASSERT_TRUE(isValidId(Holder));
  EXPECT_EQ(lookupsToConvertible(*Overlay->TS, Overlay->Idx->Members, Holder,
                                 true)[Overlay->TS->nullType()],
            0);
}

TEST(WorkspaceOverlayTest, SharedBaseSurvivesConcurrentOverlayQueries) {
  // Eight overlay documents over ONE base corpus, each queried from its
  // own thread (sessions are strands: concurrency is across documents,
  // never within one). Every shared structure the threads touch — the base
  // TypeSystem's dense matrix, the frozen CSR tables, the base solution
  // parents — is read-only; TSan must observe no races, and every answer
  // must match the serially computed monolithic twin.
  std::shared_ptr<const BaseCorpus> Base = buildBase();
  ASSERT_NE(Base, nullptr);

  constexpr int NumThreads = 8;
  std::vector<std::unique_ptr<DocumentState>> Docs;
  std::vector<std::vector<std::string>> Want(NumThreads);
  const std::vector<CompleteSpec> Qs = queryBattery();
  for (int I = 0; I != NumThreads; ++I) {
    std::string Body = "var tmp = point;\n    ";
    for (int J = 0; J != I; ++J)
      Body += "var extra" + std::to_string(J) + " = point;\n    ";
    const std::string Text =
        replaceFirst(docText(), "return;", Body + "return;");
    std::unique_ptr<DocumentState> D = buildOverlay(Text, 1, Base);
    ASSERT_NE(D, nullptr);
    std::unique_ptr<DocumentState> M = buildMonolithic(Text, 1);
    ASSERT_NE(M, nullptr);
    for (const CompleteSpec &Q : Qs) {
      QueryOutcome O = runCompletion(*M, Q);
      ASSERT_TRUE(O.Ok) << O.ErrMsg;
      Want[I].push_back(O.Completions.write());
    }
    Docs.push_back(std::move(D));
  }

  std::vector<std::thread> Threads;
  for (int I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&, I] {
      for (int Round = 0; Round != 3; ++Round)
        for (size_t Q = 0; Q != Qs.size(); ++Q) {
          QueryOutcome O = runCompletion(*Docs[I], Qs[Q]);
          ASSERT_TRUE(O.Ok) << O.ErrMsg;
          EXPECT_EQ(O.Completions.write(), Want[I][Q]);
        }
    });
  for (std::thread &T : Threads)
    T.join();
}

TEST(WorkspaceOverlayTest, ServiceServesOverlaySessionsAgainstOneBase) {
  // End to end through petald: Options::Base makes every open an overlay
  // build, and the answers match a direct monolithic engine run over the
  // concatenated sources.
  PetalService::Options Opts;
  Opts.Workers = 2;
  Opts.CacheCapacity = 64;
  Opts.Base = buildBase();
  ASSERT_NE(Opts.Base, nullptr);
  InProcessClient C(Opts);

  Value P = Value::object();
  P.set("doc", "doc.cs");
  P.set("text", docText());
  P.set("version", static_cast<int64_t>(1));
  Value OpenResp = C.call("petal/open", P);
  ASSERT_EQ(OpenResp.find("error"), nullptr) << OpenResp.write();
  // The reported entity counts are workspace totals (base + overlay).
  EXPECT_GT(OpenResp.find("result")->getInt("types", -1), 10);

  Value Q = Value::object();
  Q.set("doc", "doc.cs");
  Q.set("class", "Scratch");
  Q.set("method", "Play");
  Q.set("query", "?({point})");
  Q.set("n", static_cast<int64_t>(10));
  Value Resp = C.call("petal/complete", Q);
  ASSERT_EQ(Resp.find("error"), nullptr) << Resp.write();

  std::unique_ptr<DocumentState> Mono = buildMonolithic(docText(), 1);
  ASSERT_NE(Mono, nullptr);
  QueryOutcome O = runCompletion(*Mono, spec("?({point})"));
  ASSERT_TRUE(O.Ok) << O.ErrMsg;
  EXPECT_EQ(Resp.find("result")->find("completions")->write(),
            O.Completions.write());

  Value Stats = C.callResult("$/stats", Value::object());
  const Value *Mem = Stats.find("memory");
  ASSERT_NE(Mem, nullptr);
  EXPECT_GT(Mem->getInt("baseBytes", 0), 0);
  EXPECT_GT(Mem->getInt("overlayBytes", 0), 0);
  EXPECT_LT(Mem->getInt("overlayBytes", 0), Mem->getInt("baseBytes", 0));
}

} // namespace

//===- tests/session_incremental_test.cpp - incremental build property ---===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The correctness bar for incremental document rebuilds (DESIGN.md §12):
// for every edit shape, a DocumentState built incrementally on top of the
// previous version must produce completions *bit-identical* to a
// DocumentState built from scratch over the same text — and must be
// classified correctly (shared layers are recorded exactly, never
// optimistically). An incremental state must also share its predecessor's
// resolved class, by pointer, for every declaration the edit left alone,
// and solve to the same abstract-type partition as the fresh build. The
// concurrency cases — many incremental states aliasing one version's
// frozen index tables, queried from 8 threads, and a version queried while
// its successor is built from it — run under ThreadSanitizer in
// scripts/ci.sh; the lifetime case — a long chain of edits, each
// predecessor destroyed before its successor is queried — under
// AddressSanitizer.
//
//===----------------------------------------------------------------------===//

#include "CodeReuse.h"
#include "TestCorpora.h"

#include "service/Session.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace petal;

namespace {

/// GeometryCorpus plus a second body-bearing class, so edits can touch one
/// declaration unit and leave the other's completions provably unchanged.
std::string baseText() {
  return std::string(corpora::GeometryCorpus) +
         "class Scratch {\n"
         "  void Play(System.Windows.Point point,\n"
         "            DynamicGeometry.ShapeStyle style) {\n"
         "    return;\n"
         "  }\n"
         "}\n";
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

/// Replaces the last occurrence of \p From in \p S with \p To.
std::string replaceLast(std::string S, const std::string &From,
                        const std::string &To) {
  size_t At = S.rfind(From);
  EXPECT_NE(At, std::string::npos) << From;
  if (At != std::string::npos)
    S.replace(At, From.size(), To);
  return S;
}

struct EditShape {
  const char *Name;
  std::string Text;
  DocumentState::BuildKind Want;
};

/// Every edit shape the service distinguishes, with the classification the
/// incremental builder must assign. The last `return;` in baseText() is
/// Scratch.Play's body; the first is EllipseArc.Examine's.
std::vector<EditShape> editShapes() {
  using BK = DocumentState::BuildKind;
  const std::string Base = baseText();
  std::vector<EditShape> Shapes;
  // Token-identical: whitespace only. Everything is shareable.
  Shapes.push_back({"noop-whitespace",
                    "\n\n  " + replaceLast(Base, "return;", "return  ;") +
                        "   \n",
                    BK::IncrementalNoop});
  // Body-only edits: the type graph is untouched, the code layer and the
  // corpus-wide abstract-type solution are not.
  Shapes.push_back({"body-edit-scratch",
                    replaceLast(Base, "return;",
                                "var tmp = point;\n    return;"),
                    BK::IncrementalBody});
  Shapes.push_back({"body-edit-examine",
                    replaceFirst(Base, "return;",
                                 "var q = point;\n      return;"),
                    BK::IncrementalBody});
  // Signature change (parameter rename participates in the unit's
  // signature hash): full rebuild.
  Shapes.push_back({"sig-edit-param-rename",
                    replaceFirst(Base, "System.Windows.Point point,",
                                 "System.Windows.Point pt,"),
                    BK::Full});
  Shapes.push_back({"add-class",
                    Base + "class Extra {\n"
                           "  System.Windows.Point Spot;\n"
                           "}\n",
                    BK::Full});
  Shapes.push_back({"remove-class", std::string(corpora::GeometryCorpus),
                    BK::Full});
  Shapes.push_back({"add-field",
                    replaceFirst(Base, "class Scratch {\n",
                                 "class Scratch {\n  double Weight;\n"),
                    BK::Full});
  Shapes.push_back({"remove-field",
                    replaceFirst(Base,
                                 "    System.Windows.Point BeginLocation;\n",
                                 ""),
                    BK::Full});
  return Shapes;
}

CompleteSpec spec(const std::string &Class, const std::string &Method,
                  const std::string &Query) {
  CompleteSpec S;
  S.Class = Class;
  S.Method = Method;
  S.Query = Query;
  S.N = 10;
  return S;
}

/// The query battery run against every edit shape: both classes, with the
/// abstract-type term (the only corpus-wide ranking input) on, off, and
/// explained.
std::vector<CompleteSpec> queryBattery() {
  std::vector<CompleteSpec> Qs;
  Qs.push_back(spec("EllipseArc", "Examine", "?({point})"));
  Qs.push_back(spec("EllipseArc", "Examine", "Distance(point, ?)"));
  Qs.push_back(spec("Scratch", "Play", "?({point})"));
  CompleteSpec Explained = spec("EllipseArc", "Examine", "?({point})");
  Explained.Opts.Explain = true;
  Qs.push_back(Explained);
  CompleteSpec NoAbs = spec("EllipseArc", "Examine", "?({point})");
  NoAbs.Opts.UseAbstractTypes = false;
  Qs.push_back(NoAbs);
  return Qs;
}

std::unique_ptr<DocumentState> build(const std::string &Text, int64_t V,
                                     const DocumentState *Prev) {
  std::string Error;
  std::unique_ptr<DocumentState> Doc =
      buildDocumentState("doc.cs", Text, V, /*DocThreads=*/1, Error, Prev);
  EXPECT_NE(Doc, nullptr) << Error;
  return Doc;
}

TEST(SessionIncrementalTest, EveryEditShapeMatchesAFreshBuildBitForBit) {
  std::unique_ptr<DocumentState> Base = build(baseText(), 1, nullptr);
  ASSERT_NE(Base, nullptr);
  EXPECT_EQ(Base->Kind, DocumentState::BuildKind::Full);

  for (const EditShape &Shape : editShapes()) {
    SCOPED_TRACE(Shape.Name);
    std::unique_ptr<DocumentState> Inc =
        build(Shape.Text, 2, Base.get());
    // The fresh twin: same text, built from scratch.
    std::unique_ptr<DocumentState> Fresh = build(Shape.Text, 2, nullptr);
    ASSERT_NE(Inc, nullptr);
    ASSERT_NE(Fresh, nullptr);

    // Classification is exact, and the sharing it claims is real.
    EXPECT_EQ(Inc->Kind, Shape.Want);
    EXPECT_EQ(Fresh->Kind, DocumentState::BuildKind::Full);
    if (Inc->incremental()) {
      EXPECT_EQ(Inc->TS.get(), Base->TS.get());
      EXPECT_TRUE(Inc->Idx->sharesTypeGraphTables());
      EXPECT_NE(Inc->P.get(), Base->P.get());
    } else {
      EXPECT_NE(Inc->TS.get(), Base->TS.get());
      EXPECT_FALSE(Inc->Idx->sharesTypeGraphTables());
    }
    EXPECT_EQ(Inc->sharedSolution(),
              Inc->Exec->sharedSolution() == Base->Exec->sharedSolution());
    if (Inc->incremental()) {
      // Each of these edits touches one declaration with code.
      EXPECT_EQ(expectCodeReuse(*Inc, *Base), 1u);
      // ... and harvests that one class alone.
      EXPECT_EQ(Inc->Idx->Infer.numHarvested(), 1u);
    } else {
      EXPECT_EQ(Inc->Idx->Infer.numHarvested(), Inc->P->classes().size());
    }
    EXPECT_EQ(classOrder(*Inc), classOrder(*Fresh));
    EXPECT_EQ(solutionParents(*Inc), solutionParents(*Fresh));
    expectSameInference(*Inc, *Fresh);

    for (const CompleteSpec &Q : queryBattery()) {
      SCOPED_TRACE(Q.Class + "." + Q.Method + " " + Q.Query);
      QueryOutcome A = runCompletion(*Inc, Q);
      QueryOutcome B = runCompletion(*Fresh, Q);
      // Shapes that delete the queried class must fail identically.
      ASSERT_EQ(A.Ok, B.Ok);
      if (!A.Ok) {
        EXPECT_EQ(A.ErrCode, B.ErrCode);
        continue;
      }
      EXPECT_EQ(A.Completions.write(), B.Completions.write());
      EXPECT_EQ(A.ClassQualName, B.ClassQualName);
    }
  }
}

TEST(SessionIncrementalTest, ChainedEditsStayBitIdentical) {
  // Incremental states stacked on incremental states: v1 full, v2 body
  // edit, v3 no-op over v2, v4 body edit over v3. Each link must still
  // match its fresh twin.
  const std::string V2 =
      replaceLast(baseText(), "return;", "var tmp = point;\n    return;");
  const std::string V3 = V2 + "\n\n";
  const std::string V4 = replaceFirst(V3, "return;",
                                      "var q = shapeStyle;\n      return;");

  std::unique_ptr<DocumentState> D1 = build(baseText(), 1, nullptr);
  std::unique_ptr<DocumentState> D2 = build(V2, 2, D1.get());
  std::unique_ptr<DocumentState> D3 = build(V3, 3, D2.get());
  std::unique_ptr<DocumentState> D4 = build(V4, 4, D3.get());
  ASSERT_TRUE(D1 && D2 && D3 && D4);
  EXPECT_EQ(D2->Kind, DocumentState::BuildKind::IncrementalBody);
  EXPECT_EQ(D3->Kind, DocumentState::BuildKind::IncrementalNoop);
  EXPECT_EQ(D4->Kind, DocumentState::BuildKind::IncrementalBody);
  // The frozen tables alias all the way down the chain.
  EXPECT_EQ(D4->TS.get(), D1->TS.get());
  // The no-op link adopted its predecessor's solution; the body edit after
  // it did not.
  EXPECT_EQ(D3->Exec->sharedSolution(), D2->Exec->sharedSolution());
  EXPECT_NE(D4->Exec->sharedSolution(), D3->Exec->sharedSolution());
  // Each body edit resolved the one class it touched and shared the rest;
  // the trailing-whitespace link resolved nothing.
  EXPECT_EQ(expectCodeReuse(*D2, *D1), 1u);
  EXPECT_EQ(expectCodeReuse(*D3, *D2), 0u);
  EXPECT_EQ(expectCodeReuse(*D4, *D3), 1u);

  // Each link harvested the classes it resolved, and no other.
  EXPECT_EQ(D2->Idx->Infer.numHarvested(), 1u);
  EXPECT_EQ(D3->Idx->Infer.numHarvested(), 0u);
  EXPECT_EQ(D4->Idx->Infer.numHarvested(), 1u);

  std::unique_ptr<DocumentState> F4 = build(V4, 4, nullptr);
  EXPECT_EQ(classOrder(*D4), classOrder(*F4));
  EXPECT_EQ(solutionParents(*D4), solutionParents(*F4));
  expectSameInference(*D4, *F4);
  for (const CompleteSpec &Q : queryBattery()) {
    SCOPED_TRACE(Q.Class + "." + Q.Method + " " + Q.Query);
    QueryOutcome A = runCompletion(*D4, Q);
    QueryOutcome B = runCompletion(*F4, Q);
    ASSERT_TRUE(A.Ok && B.Ok) << A.ErrMsg << " / " << B.ErrMsg;
    EXPECT_EQ(A.Completions.write(), B.Completions.write());
  }
}

TEST(SessionIncrementalTest, SharedFrozenTablesSurviveConcurrentQueries) {
  // Eight incremental successors of one base version, all aliasing its
  // TypeSystem and frozen index tables, each queried from its own thread
  // (sessions are strands: concurrency is *across* DocumentStates, never
  // within one). TSan must observe no races on the shared tables.
  std::unique_ptr<DocumentState> Base = build(baseText(), 1, nullptr);
  ASSERT_NE(Base, nullptr);

  constexpr int NumThreads = 8;
  std::vector<std::unique_ptr<DocumentState>> Docs;
  for (int I = 0; I != NumThreads; ++I) {
    std::string Body = "var tmp = point;\n    ";
    for (int J = 0; J != I; ++J)
      Body += "var extra" + std::to_string(J) + " = point;\n    ";
    std::unique_ptr<DocumentState> D = build(
        replaceLast(baseText(), "return;", Body + "return;"), 2, Base.get());
    ASSERT_NE(D, nullptr);
    ASSERT_EQ(D->Kind, DocumentState::BuildKind::IncrementalBody);
    ASSERT_EQ(D->TS.get(), Base->TS.get());
    Docs.push_back(std::move(D));
  }

  const std::vector<CompleteSpec> Qs = queryBattery();
  std::vector<std::string> FirstAnswer(NumThreads);
  std::vector<std::thread> Threads;
  for (int I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&, I] {
      for (int Round = 0; Round != 3; ++Round)
        for (const CompleteSpec &Q : Qs) {
          QueryOutcome O = runCompletion(*Docs[I], Q);
          ASSERT_TRUE(O.Ok) << O.ErrMsg;
          std::string Bytes = Q.Query + "|" + O.Completions.write();
          if (Round == 0 && &Q == &Qs.front())
            FirstAnswer[I] = Bytes;
          else if (&Q == &Qs.front())
            EXPECT_EQ(Bytes, FirstAnswer[I]);
        }
    });
  for (std::thread &T : Threads)
    T.join();
}

/// The I-th edit of a chain over baseText(): a statement added to one of
/// the two classes with code, in turn, or every third step a
/// whitespace-only change. \p Text is the previous version's text.
std::string chainEdit(const std::string &Text, int I) {
  if (I % 3 == 2)
    return Text + "\n";
  std::string Stmt = "var t" + std::to_string(I) + " = point;\n    ";
  return I % 3 == 0 ? replaceLast(Text, "return;", Stmt + "return;")
                    : replaceFirst(Text, "return;", Stmt + "return;");
}

TEST(SessionIncrementalTest, PredecessorsDieBeforeSuccessorsAreQueried) {
  // Shared classes keep their expressions' arena alive, whichever version
  // resolved them. Each version here is destroyed as soon as its
  // successor is built, so the surviving classes outlive the Program (and
  // the version) that made them; AddressSanitizer checks every query.
  std::string Text = baseText();
  std::unique_ptr<DocumentState> Cur = build(Text, 1, nullptr);
  ASSERT_NE(Cur, nullptr);
  const std::vector<CompleteSpec> Qs = queryBattery();
  for (int I = 0; I != 50; ++I) {
    SCOPED_TRACE("edit " + std::to_string(I));
    Text = chainEdit(Text, I);
    std::unique_ptr<DocumentState> Next = build(Text, I + 2, Cur.get());
    ASSERT_NE(Next, nullptr);
    ASSERT_TRUE(Next->incremental());
    expectCodeReuse(*Next, *Cur);
    Cur = std::move(Next);
    for (const CompleteSpec &Q : Qs)
      ASSERT_TRUE(runCompletion(*Cur, Q).Ok);
  }
  std::unique_ptr<DocumentState> Fresh = build(Text, 52, nullptr);
  ASSERT_NE(Fresh, nullptr);
  EXPECT_EQ(solutionParents(*Cur), solutionParents(*Fresh));
  for (const CompleteSpec &Q : Qs) {
    SCOPED_TRACE(Q.Class + "." + Q.Method + " " + Q.Query);
    EXPECT_EQ(runCompletion(*Cur, Q).Completions.write(),
              runCompletion(*Fresh, Q).Completions.write());
  }
}

TEST(SessionIncrementalTest, EveryLinkHarvestsWhatItResolvedAndMatchesFresh) {
  // chainEdit adds a local to the last class with code, then to the
  // first, whose added variables move every later class's: each link's
  // variables, constraints and solution must still be a fresh build's,
  // from a harvest of the one class it resolved.
  std::string Text = baseText();
  std::unique_ptr<DocumentState> Cur = build(Text, 1, nullptr);
  ASSERT_NE(Cur, nullptr);
  for (int I = 0; I != 9; ++I) {
    SCOPED_TRACE("edit " + std::to_string(I));
    Text = chainEdit(Text, I);
    std::unique_ptr<DocumentState> Next = build(Text, I + 2, Cur.get());
    std::unique_ptr<DocumentState> Fresh = build(Text, I + 2, nullptr);
    ASSERT_TRUE(Next && Fresh);
    ASSERT_TRUE(Next->incremental());
    EXPECT_EQ(Next->Idx->Infer.numHarvested(), expectCodeReuse(*Next, *Cur));
    expectSameInference(*Next, *Fresh);
    EXPECT_EQ(solutionParents(*Next), solutionParents(*Fresh));
    Cur = std::move(Next);
  }
}

TEST(SessionIncrementalTest, QueriesRaceTheSuccessorBuild) {
  // The service queries version N on one worker while N+1 is built from it
  // on another: the build reads N's syntax trees and shares N's classes.
  // Ten links; ThreadSanitizer must see no race.
  std::string Text = baseText();
  std::unique_ptr<DocumentState> Cur = build(Text, 1, nullptr);
  ASSERT_NE(Cur, nullptr);
  const std::vector<CompleteSpec> Qs = queryBattery();
  for (int I = 0; I != 10; ++I) {
    SCOPED_TRACE("edit " + std::to_string(I));
    std::vector<std::string> Answers;
    std::thread Querier([&] {
      for (const CompleteSpec &Q : Qs)
        Answers.push_back(runCompletion(*Cur, Q).Completions.write());
    });
    Text = chainEdit(Text, I);
    std::unique_ptr<DocumentState> Next = build(Text, I + 2, Cur.get());
    Querier.join();
    ASSERT_NE(Next, nullptr);
    ASSERT_TRUE(Next->incremental());
    for (size_t Q = 0; Q != Qs.size(); ++Q)
      EXPECT_EQ(Answers[Q], runCompletion(*Cur, Qs[Q]).Completions.write());
    Cur = std::move(Next);
  }
}

TEST(SessionIncrementalTest, QueriesLeaveTheProgramArenaUnchanged) {
  // A query's nodes live in an arena of its own, freed once the answer is
  // printed, so a version that serves queries without edits does not grow.
  std::unique_ptr<DocumentState> Doc = build(baseText(), 1, nullptr);
  ASSERT_NE(Doc, nullptr);
  size_t Bytes = Doc->P->arena().bytesReserved();
  size_t Objects = Doc->P->arena().numManagedObjects();
  std::vector<CompleteSpec> Qs = {
      spec("EllipseArc", "Examine", "point.?f"),
      spec("EllipseArc", "Examine", "Distance(point, this.Center)"),
      spec("Scratch", "Play", "?({point, 2})")};
  for (int I = 0; I != 10000; ++I)
    ASSERT_TRUE(runCompletion(*Doc, Qs[I % Qs.size()]).Ok);
  EXPECT_EQ(Doc->P->arena().bytesReserved(), Bytes);
  EXPECT_EQ(Doc->P->arena().numManagedObjects(), Objects);
}

} // namespace

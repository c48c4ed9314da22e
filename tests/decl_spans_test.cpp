//===- tests/decl_spans_test.cpp - declaration-level text reuse -----------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The correctness bar for text-level declaration reuse (DESIGN.md §12):
//
//  * DeclSpansTest: the brace-scan splitter finds exactly the top-level
//    type declarations (through strings, comments, nested and dotted
//    namespaces) and refuses every text it cannot account for.
//  * SpanReuseDifferentialTest: on a generated project, seeded edits and
//    mutations (body edits, classes inserted/removed/moved, a namespace
//    renamed, braces in comments and strings, dropped tokens, truncation,
//    unbalanced `{`, `"` and `/*`) are built on top of the previous
//    version and from scratch. Both builds must agree on success, on the
//    exact error text, on the DocumentShape (which must also equal a
//    whole-file parse's), on every completion of a query battery, on the
//    class order and on the abstract-type solution. An incremental build
//    must also share, by pointer, the previous version's resolved class
//    of every declaration whose tree it shares, and resolve only the
//    rest. A failure names its seed; PETAL_SPAN_SEED=<seed> replays just
//    that one.
//
//===----------------------------------------------------------------------===//

#include "CodeReuse.h"
#include "TestCorpora.h"

#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "corpus/SourceWriter.h"
#include "parser/DeclSpans.h"
#include "parser/Frontend.h"
#include "service/Session.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

using namespace petal;

namespace petal {
/// Spans print as their fields when an expectation fails.
void PrintTo(const DeclSpan &S, std::ostream *OS) {
  *OS << "[" << S.Begin << ", " << S.End << ") '" << S.Namespace
      << "' scopes " << S.Scopes << " at " << S.Start.Line << ":"
      << S.Start.Col;
}
} // namespace petal

namespace {

//===----------------------------------------------------------------------===//
// The splitter
//===----------------------------------------------------------------------===//

std::vector<DeclSpan> split(const std::string &Text) {
  std::vector<DeclSpan> Spans;
  EXPECT_TRUE(splitDeclSpans(Text, Spans)) << Text;
  return Spans;
}

std::string bytes(const std::string &Text, const DeclSpan &S) {
  return Text.substr(S.Begin, S.End - S.Begin);
}

TEST(DeclSpansTest, BracesInsideStringsAndCommentsAreSkipped) {
  const std::string A = "class A {\n"
                        "  void M() {\n"
                        "    var s = \"}{ \\\" }\";\n"
                        "    // }\n"
                        "    /* { */\n"
                        "  }\n"
                        "}";
  const std::string Text = "// class Fake {\n/* } { */ " + A +
                           " /* trailing } */\nstruct B { }\n";
  std::vector<DeclSpan> Spans = split(Text);
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(bytes(Text, Spans[0]), A);
  EXPECT_EQ(bytes(Text, Spans[1]), "struct B { }");
  EXPECT_EQ(Spans[0].Namespace, "");

  // A comment's opening `/*` does not also close it: `/*/` stays open.
  const std::string Hidden = "class A { } /*/ class B { } */ class C { }";
  Spans = split(Hidden);
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(bytes(Hidden, Spans[1]), "class C { }");
}

TEST(DeclSpansTest, EscapedQuoteDoesNotEndAString) {
  const std::string Text =
      "class A { void M() { var s = \"\\\"}\"; var t = \"\\\\\"; } }\n"
      "class B { }";
  std::vector<DeclSpan> Spans = split(Text);
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(bytes(Text, Spans[1]), "class B { }");
}

TEST(DeclSpansTest, DottedAndNestedNamespaces) {
  const std::string Text = "namespace A . B {\n"
                           "  class X { }\n"
                           "  namespace C.D { struct Y { } }\n"
                           "  interface Z { }\n"
                           "}\n"
                           "namespace E { }\n"
                           "enum Root { One, Two }\n";
  std::vector<DeclSpan> Spans = split(Text);
  ASSERT_EQ(Spans.size(), 4u);
  EXPECT_EQ(Spans[0].Namespace, "A.B");
  EXPECT_EQ(Spans[1].Namespace, "A.B.C.D");
  EXPECT_EQ(Spans[2].Namespace, "A.B");
  EXPECT_EQ(Spans[3].Namespace, "");
  EXPECT_EQ(bytes(Text, Spans[3]), "enum Root { One, Two }");

  // The parser names the same namespaces.
  SynFile File;
  DiagnosticEngine Diags;
  ASSERT_TRUE(parseSourceFile(Text, File, Diags));
  ASSERT_EQ(File.Types.size(), Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    EXPECT_EQ(File.Types[I]->NamespaceName, Spans[I].Namespace);
}

TEST(DeclSpansTest, ComparableAndEnumsStartSpans) {
  const std::string Text =
      "comparable class P { int V; }\nenum E { A, B }\ncomparable struct Q {}";
  std::vector<DeclSpan> Spans = split(Text);
  ASSERT_EQ(Spans.size(), 3u);
  EXPECT_EQ(bytes(Text, Spans[0]), "comparable class P { int V; }");
  EXPECT_EQ(bytes(Text, Spans[1]), "enum E { A, B }");
  EXPECT_EQ(bytes(Text, Spans[2]), "comparable struct Q {}");
}

TEST(DeclSpansTest, StartPositionsAreTheLexersPositions) {
  const std::string Text = "namespace N {\n\t/* x\n */  class A { }\n"
                           "  // c\n   struct B { } class C { }\n}\n";
  std::vector<DeclSpan> Spans = split(Text);
  ASSERT_EQ(Spans.size(), 3u);
  SynFile File;
  DiagnosticEngine Diags;
  ASSERT_TRUE(parseSourceFile(Text, File, Diags));
  EXPECT_EQ(Spans[0].Start.Line, 3u);
  EXPECT_EQ(Spans[0].Start.Col, 6u);
  EXPECT_EQ(Spans[2].Start.Line, 5u);
  EXPECT_EQ(Spans[2].Start.Col, 17u);
  // Each span's first token is its type keyword, one word before the
  // type name the parser records.
  for (size_t I = 0; I != Spans.size(); ++I) {
    EXPECT_EQ(File.Types[I]->Loc.Line, Spans[I].Start.Line);
    EXPECT_EQ(File.Types[I]->Loc.Col,
              Spans[I].Start.Col +
                  Text.find(' ', Spans[I].Begin) - Spans[I].Begin + 1);
  }
}

TEST(DeclSpansTest, UnsplittableTextIsRefused) {
  const char *Refused[] = {
      "class A {",                      // unbalanced: never closed
      "class A { } }",                  // unbalanced: stray close
      "class A { void M() { } ",        // unbalanced inside a body
      "class A { } /* never closed",    // unterminated comment
      "class A { var s = \"abc }",      // unterminated string
      "class A { var s = \"abc\\\"; }", // escaped quote: still open
      "; class A { }",                  // stray text before a type
      "class A { } stray class B { }",  // stray text between types
      "class A { } 42",                 // stray literal
      "namespace N { class A { }",      // namespace never closed
      "namespace class { }",            // keyword as a namespace name
      "namespace A. { }",               // dangling dot
      "namespace A B { }",              // missing dot
      "namespace { }",                  // missing name
      "} class A { }",                  // close brace at the root
      "class A } {",                    // close brace before the body
      "var x = 1;",                     // a statement at the root
  };
  for (const char *Text : Refused) {
    std::vector<DeclSpan> Spans;
    EXPECT_FALSE(splitDeclSpans(Text, Spans)) << Text;
    ParsedDecls Out;
    EXPECT_FALSE(parseBySpans(Text, Out)) << Text;
  }
  // An empty text, or one of comments and empty namespaces only, splits
  // into nothing.
  std::vector<DeclSpan> Spans;
  EXPECT_TRUE(splitDeclSpans("", Spans));
  EXPECT_TRUE(splitDeclSpans(" // x\n namespace A { namespace B { } }\n",
                             Spans));
  EXPECT_TRUE(Spans.empty());
}

TEST(DeclSpansTest, SpanThatParsesWithADiagnosticIsRefused) {
  // Splittable, but each raises a diagnostic when parsed on its own: the
  // caller must take the whole-file route.
  const char *Refused[] = {
      "class A { int }",                   // parse error inside a span
      "comparable enum E { X }",           // a warning only
      "class A { void M() { var x = ?; } }", // query syntax in a body
      "class A { } class { }",             // missing type name
  };
  for (const char *Text : Refused) {
    std::vector<DeclSpan> Spans;
    EXPECT_TRUE(splitDeclSpans(Text, Spans)) << Text;
    ParsedDecls Out;
    EXPECT_FALSE(parseBySpans(Text, Out)) << Text;
  }
}

/// A span parse equals a whole-file parse, positions included.
TEST(DeclSpansTest, SpanParseMatchesWholeFileParse) {
  const std::string Text = corpora::GeometryCorpus;
  ParsedDecls Out;
  ASSERT_TRUE(parseBySpans(Text, Out));
  SynFile Whole;
  DiagnosticEngine Diags;
  ASSERT_TRUE(parseSourceFile(Text, Whole, Diags));
  DocumentShape Want = shapeOfFile(Whole);
  EXPECT_EQ(Out.Shape.TypeGraphHash, Want.TypeGraphHash);
  EXPECT_EQ(Out.Shape.CodeHash, Want.CodeHash);
  ASSERT_EQ(Out.File.Types.size(), Whole.Types.size());
  EXPECT_EQ(Out.Reparsed, Whole.Types.size());
  for (size_t I = 0; I != Whole.Types.size(); ++I) {
    const SynType &A = *Out.File.Types[I], &B = *Whole.Types[I];
    EXPECT_EQ(A.Loc.Line, B.Loc.Line);
    EXPECT_EQ(A.Loc.Col, B.Loc.Col);
    ASSERT_EQ(A.Members.size(), B.Members.size());
    for (size_t M = 0; M != A.Members.size(); ++M) {
      EXPECT_EQ(A.Members[M].Loc.Line, B.Members[M].Loc.Line);
      EXPECT_EQ(A.Members[M].Loc.Col, B.Members[M].Loc.Col);
    }
  }

  // Reparsing the same text against itself reuses every tree.
  ParsedDecls Again;
  ASSERT_TRUE(parseBySpans(Text, Again, Text, &Out));
  EXPECT_EQ(Again.Reparsed, 0u);
  // A reused tree is counted at the size measured when it was parsed.
  EXPECT_GT(Out.memoryBytes(), Text.size());
  for (size_t I = 0; I != Out.Extents.size(); ++I)
    EXPECT_EQ(Again.Extents[I].TreeBytes, Out.Extents[I].TreeBytes);
  ASSERT_EQ(Again.File.Types.size(), Out.File.Types.size());
  for (size_t I = 0; I != Out.File.Types.size(); ++I)
    EXPECT_EQ(Again.File.Types[I].get(), Out.File.Types[I].get());
}

TEST(DeclSpansTest, OnlyTheUnmatchedMiddleIsParsed) {
  const std::string Before = "class A { }\nnamespace N { class B { }\n"
                             "class C { int X; }\n class D { } }\n";
  ParsedDecls Prev;
  ASSERT_TRUE(parseBySpans(Before, Prev));
  ASSERT_EQ(Prev.Reparsed, 4u);

  // An edit of C reparses C alone; the rest are shared by pointer.
  std::string After = Before;
  After.replace(After.find("int X;"), 6, "int Y;");
  ParsedDecls Now;
  ASSERT_TRUE(parseBySpans(After, Now, Before, &Prev));
  EXPECT_EQ(Now.Reparsed, 1u);
  EXPECT_EQ(Now.File.Types[0].get(), Prev.File.Types[0].get());
  EXPECT_EQ(Now.File.Types[1].get(), Prev.File.Types[1].get());
  EXPECT_NE(Now.File.Types[2].get(), Prev.File.Types[2].get());
  EXPECT_EQ(Now.File.Types[3].get(), Prev.File.Types[3].get());

  // Same bytes in another namespace is another declaration.
  std::string Moved = "class A { }\nnamespace M { class B { }\n"
                      "class C { int X; }\n class D { } }\n";
  ASSERT_TRUE(parseBySpans(Moved, Now, Before, &Prev));
  EXPECT_EQ(Now.Reparsed, 3u);
  EXPECT_EQ(Now.File.Types[1]->NamespaceName, "M");
}

//===----------------------------------------------------------------------===//
// Reuse vs fresh, on seeded mutations of a generated project
//===----------------------------------------------------------------------===//

/// A generated PaintNet project: namespaces, a few hundred types, client
/// classes with method bodies.
const std::string &projectText() {
  static const std::string Text = [] {
    ProjectProfile Prof = paperProjectProfiles(0.4)[0];
    TypeSystem TS;
    Program P(TS);
    CorpusGenerator Gen(Prof);
    Gen.generate(P);
    return writeProgramSource(P);
  }();
  return Text;
}

/// Byte offsets of the starts of the lines of \p Text that begin with
/// \p Indent followed by a non-space (statements, at six spaces).
std::vector<size_t> linesIndented(const std::string &Text, size_t Indent) {
  std::vector<size_t> Out;
  for (size_t At = 0; At < Text.size();) {
    size_t Nl = Text.find('\n', At);
    size_t End = Nl == std::string::npos ? Text.size() : Nl;
    if (End - At > Indent && Text.find_first_not_of(' ', At) == At + Indent)
      Out.push_back(At);
    At = End + 1;
  }
  return Out;
}

std::string lineAt(const std::string &Text, size_t At) {
  size_t Nl = Text.find('\n', At);
  return Text.substr(At, (Nl == std::string::npos ? Text.size() : Nl + 1) -
                             At);
}

enum class Mut {
  BodyEdit,
  CommentEdit,
  StringWithBraces,
  InsertClass,
  RemoveClass,
  MoveClass,
  RenameNamespace,
  BraceComment,
  DropToken,
  Truncate,
  Unbalanced,
  ShiftAndBreak,
  Count,
};

const char *mutName(Mut M) {
  static const char *Names[] = {
      "body-edit",  "comment-edit", "string-with-braces", "insert-class",
      "remove-class", "move-class", "rename-namespace",   "brace-comment",
      "drop-token", "truncate",     "unbalanced",         "shift-and-break"};
  return Names[static_cast<int>(M)];
}

/// Applies \p M to \p Text (which splits) at places drawn from \p R.
std::string mutate(const std::string &Text, Mut M, Rng &R) {
  std::vector<DeclSpan> Spans;
  splitDeclSpans(Text, Spans);
  std::vector<size_t> Stmts = linesIndented(Text, 6);
  auto AnyStmt = [&] { return Stmts[R.below(Stmts.size())]; };
  auto AnyPos = [&] { return static_cast<size_t>(R.below(Text.size())); };
  auto Boundary = [&] {
    size_t I = R.below(Spans.size() + 1);
    return I == Spans.size() ? Spans.back().End : Spans[I].Begin;
  };
  std::string Out = Text;
  switch (M) {
  case Mut::BodyEdit: {
    size_t At = AnyStmt();
    Out.insert(At, lineAt(Text, At));
    break;
  }
  case Mut::CommentEdit:
    Out.insert(AnyStmt(), "      // reviewed " +
                              std::to_string(R.below(1000)) + "\n");
    break;
  case Mut::StringWithBraces:
    Out.insert(AnyStmt(), "      var brace" + std::to_string(R.below(1000)) +
                              " = \"}{ /* \\\" // \";\n");
    break;
  case Mut::InsertClass:
    Out.insert(Boundary(), "\nclass Extra" + std::to_string(R.below(1000)) +
                               " {\n  int F;\n  void M(int x) {\n"
                               "    var y = x;\n  }\n}\n");
    break;
  case Mut::RemoveClass: {
    const DeclSpan &S = Spans[R.below(Spans.size())];
    Out.erase(S.Begin, S.End - S.Begin);
    break;
  }
  case Mut::MoveClass: {
    // Within its namespace, so that the moved type keeps its name.
    const DeclSpan &S = Spans[R.below(Spans.size())];
    std::vector<size_t> Targets;
    for (const DeclSpan &T : Spans)
      if (T.Namespace == S.Namespace)
        Targets.push_back(T.Begin);
    std::string Decl = bytes(Text, S);
    size_t To = Targets[R.below(Targets.size())];
    if (To >= S.End)
      To -= Decl.size();
    else if (To > S.Begin)
      To = S.Begin;
    Out.erase(S.Begin, Decl.size());
    Out.insert(To, "\n" + Decl + "\n");
    break;
  }
  case Mut::RenameNamespace: {
    std::vector<size_t> Headers;
    for (size_t At = Out.find("namespace "); At != std::string::npos;
         At = Out.find("namespace ", At + 1))
      Headers.push_back(At);
    if (Headers.empty())
      break;
    size_t At = Headers[R.below(Headers.size())];
    Out.insert(Out.find(' ', At + 10), "Renamed");
    break;
  }
  case Mut::BraceComment:
    Out.insert(linesIndented(Text, 2)[0] + R.below(3),
               R.chance(0.5) ? "/* { } } */" : "// } {\n");
    break;
  case Mut::DropToken: {
    size_t At = AnyPos();
    size_t End = At + 1;
    auto IsWord = [](char C) {
      return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
    };
    if (IsWord(Out[At]))
      while (End < Out.size() && IsWord(Out[End]))
        ++End;
    Out.erase(At, End - At);
    break;
  }
  case Mut::Truncate:
    Out.resize(AnyPos());
    break;
  case Mut::Unbalanced: {
    const char *Opens[] = {"{", "\"", "/*"};
    Out.insert(AnyPos(), Opens[R.below(3)]);
    break;
  }
  case Mut::ShiftAndBreak: {
    // Lines inserted above an erroneous unit: the error's line number
    // must be the fresh parse's, not the reused tree's.
    size_t At = Stmts[Stmts.size() - 1 - R.below(Stmts.size() / 2)];
    Out.insert(At, "      undeclaredThing.Frob();\n");
    Out.insert(0, "// moved\n\n\n");
    break;
  }
  case Mut::Count:
    break;
  }
  return Out;
}

/// Queries in client methods of the generated project. A query whose
/// class or parameter a mutation removed fails, and must fail identically
/// in both builds.
std::vector<CompleteSpec> queryBattery() {
  std::vector<CompleteSpec> Qs;
  for (const char *Class : {"PaintNetClient0", "PaintNetClient1"})
    for (const char *Method : {"Run0", "Run1"})
      for (const char *Query : {"?({arg0})", "arg0.?*m", "?({arg0, this})"}) {
        CompleteSpec S;
        S.Class = Class;
        S.Method = Method;
        S.Query = Query;
        S.N = 10;
        Qs.push_back(S);
      }
  Qs.front().Opts.Explain = true;
  Qs.back().Opts.UseAbstractTypes = false;
  return Qs;
}

void expectSameShape(const DocumentShape &A, const DocumentShape &B) {
  EXPECT_EQ(A.TypeGraphHash, B.TypeGraphHash);
  EXPECT_EQ(A.CodeHash, B.CodeHash);
  ASSERT_EQ(A.Units.size(), B.Units.size());
  for (size_t I = 0; I != A.Units.size(); ++I) {
    EXPECT_EQ(A.Units[I].QualName, B.Units[I].QualName);
    EXPECT_EQ(A.Units[I].SigHash, B.Units[I].SigHash);
    EXPECT_EQ(A.Units[I].BodyHash, B.Units[I].BodyHash);
  }
}

/// One seed's run: a chain of mutations, each built on the current version
/// and from scratch. Stops at the first failed step.
void runSeed(uint64_t Seed) {
  SCOPED_TRACE("replay: PETAL_SPAN_SEED=" + std::to_string(Seed) +
               " ctest -R SpanReuseDifferentialTest");
  Rng R(Seed);
  const std::string &Base = projectText();
  std::string Error;
  std::unique_ptr<DocumentState> Cur =
      buildDocumentState("doc.cs", Base, 1, 1, Error);
  ASSERT_NE(Cur, nullptr) << Error;
  const std::vector<CompleteSpec> Battery = queryBattery();
  for (int Step = 0; Step != 12; ++Step) {
    Mut M = static_cast<Mut>(R.below(static_cast<uint64_t>(Mut::Count)));
    SCOPED_TRACE(std::string("step ") + std::to_string(Step) + ": " +
                 mutName(M));
    std::string Text = mutate(Cur->Text, M, R);
    std::string IncError, FreshError;
    std::unique_ptr<DocumentState> Inc =
        buildDocumentState("doc.cs", Text, Step + 2, 1, IncError, Cur.get());
    std::unique_ptr<DocumentState> Fresh =
        buildDocumentState("doc.cs", Text, Step + 2, 1, FreshError);
    // The split windowed by the current version is the whole text's.
    std::vector<DeclSpan> Windowed, WholeSpans;
    bool Splits = splitDeclSpans(Text, WholeSpans);
    EXPECT_EQ(splitDeclSpans(Text, Windowed, Cur->Text, &Cur->Parsed),
              Splits);
    if (Splits) {
      EXPECT_EQ(Windowed, WholeSpans);
    }
    ASSERT_EQ(Inc != nullptr, Fresh != nullptr) << IncError << FreshError;
    if (!Inc) {
      ASSERT_EQ(IncError, FreshError);
      // The error is a whole-file parse's and resolve's, positions
      // included.
      EXPECT_NE(IncError, "");
      continue;
    }

    expectSameShape(Inc->Parsed.Shape, Fresh->Parsed.Shape);
    SynFile Whole;
    DiagnosticEngine Diags;
    ASSERT_TRUE(parseSourceFile(Text, Whole, Diags));
    expectSameShape(Inc->Parsed.Shape, shapeOfFile(Whole));
    bool BodyOnly = M == Mut::BodyEdit || M == Mut::CommentEdit ||
                    M == Mut::StringWithBraces;
    if (BodyOnly) {
      EXPECT_EQ(Inc->Parsed.Reparsed, 1u);
      EXPECT_TRUE(Inc->incremental());
    }
    // The resolved code of every declaration the edit left alone is the
    // previous version's, by pointer; only the reparsed one is resolved.
    if (Inc->incremental()) {
      size_t Resolved = expectCodeReuse(*Inc, *Cur);
      if (BodyOnly) {
        EXPECT_EQ(Resolved, 1u);
      }
      // Only the classes resolved anew were harvested.
      EXPECT_EQ(Inc->Idx->Infer.numHarvested(), Resolved);
    }
    EXPECT_EQ(classOrder(*Inc), classOrder(*Fresh));
    EXPECT_EQ(solutionParents(*Inc), solutionParents(*Fresh));
    expectSameInference(*Inc, *Fresh);
    for (const CompleteSpec &Q : Battery) {
      SCOPED_TRACE(Q.Class + "." + Q.Method + " " + Q.Query);
      QueryOutcome A = runCompletion(*Inc, Q);
      QueryOutcome B = runCompletion(*Fresh, Q);
      ASSERT_EQ(A.Ok, B.Ok);
      EXPECT_EQ(A.ErrMsg, B.ErrMsg);
      EXPECT_EQ(A.Completions.write(), B.Completions.write());
    }
    if (::testing::Test::HasFailure())
      return;
    // Keep chaining on the edit about half the time, so reused trees get
    // reused again.
    if (R.chance(0.5))
      Cur = std::move(Inc);
  }
}

TEST(SpanReuseDifferentialTest, SeededMutationsMatchAFreshBuild) {
  if (const char *Only = std::getenv("PETAL_SPAN_SEED")) {
    runSeed(std::strtoull(Only, nullptr, 10));
    return;
  }
  for (uint64_t Seed = 1; Seed <= 8 && !HasFailure(); ++Seed)
    runSeed(Seed);
}

/// A local added to a method of the first class with code, of a middle
/// one and of the last one, each on the previous edit: every later class's
/// variables move. Each link harvests the one class it resolved, splits as
/// the whole text does, and has a fresh build's inference.
TEST(SpanReuseDifferentialTest, AddedLocalsShiftLaterClassesExactly) {
  std::string Text = projectText();
  std::string Error;
  std::unique_ptr<DocumentState> Cur =
      buildDocumentState("doc.cs", Text, 1, 1, Error);
  ASSERT_NE(Cur, nullptr) << Error;
  for (int Step = 0; Step != 6; ++Step) {
    std::vector<size_t> Stmts = linesIndented(Text, 6);
    ASSERT_FALSE(Stmts.empty());
    size_t Where[] = {Stmts.front(), Stmts[Stmts.size() / 2], Stmts.back()};
    SCOPED_TRACE("step " + std::to_string(Step));
    Text.insert(Where[Step % 3],
                "      var added" + std::to_string(Step) + " = 1;\n");

    std::vector<DeclSpan> Windowed, Whole;
    ASSERT_TRUE(splitDeclSpans(Text, Whole));
    ASSERT_TRUE(splitDeclSpans(Text, Windowed, Cur->Text, &Cur->Parsed));
    EXPECT_EQ(Windowed, Whole);

    std::unique_ptr<DocumentState> Inc =
        buildDocumentState("doc.cs", Text, Step + 2, 1, Error, Cur.get());
    std::unique_ptr<DocumentState> Fresh =
        buildDocumentState("doc.cs", Text, Step + 2, 1, Error);
    ASSERT_TRUE(Inc && Fresh) << Error;
    EXPECT_EQ(Inc->Kind, DocumentState::BuildKind::IncrementalBody);
    EXPECT_EQ(Inc->Parsed.Reparsed, 1u);
    EXPECT_EQ(expectCodeReuse(*Inc, *Cur), 1u);
    EXPECT_EQ(Inc->Idx->Infer.numHarvested(), 1u);
    EXPECT_EQ(Fresh->Idx->Infer.numHarvested(), Fresh->P->classes().size());
    expectSameInference(*Inc, *Fresh);
    EXPECT_EQ(solutionParents(*Inc), solutionParents(*Fresh));
    if (HasFailure())
      return;
    Cur = std::move(Inc);
  }
}

/// Every mutation shape at least once, on the same starting text, so a
/// small seed count cannot miss one.
TEST(SpanReuseDifferentialTest, EveryMutationShapeMatchesAFreshBuild) {
  const std::string &Base = projectText();
  std::string Error;
  std::unique_ptr<DocumentState> Prev =
      buildDocumentState("doc.cs", Base, 1, 1, Error);
  ASSERT_NE(Prev, nullptr) << Error;
  Rng R(2024);
  for (int I = 0; I != static_cast<int>(Mut::Count); ++I) {
    Mut M = static_cast<Mut>(I);
    SCOPED_TRACE(mutName(M));
    std::string Text = mutate(Base, M, R);
    std::string IncError, FreshError;
    auto Inc = buildDocumentState("doc.cs", Text, 2, 1, IncError, Prev.get());
    auto Fresh = buildDocumentState("doc.cs", Text, 2, 1, FreshError);
    ASSERT_EQ(Inc != nullptr, Fresh != nullptr) << IncError << FreshError;
    EXPECT_EQ(IncError, FreshError);
    if (Inc) {
      expectSameShape(Inc->Parsed.Shape, Fresh->Parsed.Shape);
    }
  }
}

} // namespace

//===- tests/parser_test.cpp - Declaration/query parser tests -------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace petal;

namespace {

SynFile parseFileOk(const char *Src) {
  DiagnosticEngine D;
  Lexer L(Src, D);
  Parser P(L.lexAll(), D);
  SynFile File;
  bool Ok = P.parseFile(File);
  std::ostringstream OS;
  D.print(OS);
  EXPECT_TRUE(Ok) << OS.str();
  return File;
}

bool parseFails(const char *Src) {
  DiagnosticEngine D;
  Lexer L(Src, D);
  Parser P(L.lexAll(), D);
  SynFile File;
  return !P.parseFile(File);
}

SynExprPtr parseQueryOk(const char *Src) {
  DiagnosticEngine D;
  Lexer L(Src, D);
  Parser P(L.lexAll(), D);
  SynExprPtr Q = P.parseQuery();
  std::ostringstream OS;
  D.print(OS);
  EXPECT_NE(Q, nullptr) << OS.str();
  return Q;
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

TEST(ParserTest, EmptyFile) {
  SynFile F = parseFileOk("");
  EXPECT_TRUE(F.Types.empty());
}

TEST(ParserTest, ClassWithMembers) {
  SynFile F = parseFileOk(R"(
    class Point {
      double X;
      double Y;
      string Name { get; set; }
      static Point Origin;
      double DistanceTo(Point other);
      void Reset() { }
    }
  )");
  ASSERT_EQ(F.Types.size(), 1u);
  const SynType &T = *F.Types[0];
  EXPECT_EQ(T.Name, "Point");
  EXPECT_EQ(T.Kind, TypeKind::Class);
  ASSERT_EQ(T.Members.size(), 6u);
  EXPECT_EQ(T.Members[0].Kind, SynMember::Field);
  EXPECT_EQ(T.Members[2].Kind, SynMember::Property);
  EXPECT_TRUE(T.Members[3].IsStatic);
  EXPECT_EQ(T.Members[4].Kind, SynMember::Method);
  ASSERT_EQ(T.Members[4].Params.size(), 1u);
  EXPECT_EQ(T.Members[4].Params[0].Name, "other");
  EXPECT_TRUE(T.Members[5].IsVoid);
  EXPECT_TRUE(T.Members[5].HasBody);
}

TEST(ParserTest, NamespacesDottedAndNested) {
  SynFile F = parseFileOk(R"(
    namespace A.B {
      class C { }
      namespace D {
        class E { }
      }
    }
    class Root { }
  )");
  ASSERT_EQ(F.Types.size(), 3u);
  EXPECT_EQ(F.Types[0]->NamespaceName, "A.B");
  EXPECT_EQ(F.Types[1]->NamespaceName, "A.B.D");
  EXPECT_EQ(F.Types[2]->NamespaceName, "");
}

TEST(ParserTest, BasesAndComparableFlag) {
  SynFile F = parseFileOk(R"(
    comparable struct DateTime { }
    interface IShape { }
    class Square : Base.Shape, IShape { }
  )");
  EXPECT_TRUE(F.Types[0]->Comparable);
  EXPECT_EQ(F.Types[1]->Kind, TypeKind::Interface);
  ASSERT_EQ(F.Types[2]->Bases.size(), 2u);
  EXPECT_EQ(F.Types[2]->Bases[0],
            (std::vector<std::string>{"Base", "Shape"}));
}

TEST(ParserTest, EnumDeclaration) {
  SynFile F = parseFileOk("enum Edge { Top, Bottom, Left, }");
  ASSERT_EQ(F.Types.size(), 1u);
  EXPECT_EQ(F.Types[0]->Kind, TypeKind::Enum);
  EXPECT_EQ(F.Types[0]->Enumerators,
            (std::vector<std::string>{"Top", "Bottom", "Left"}));
}

TEST(ParserTest, StatementForms) {
  SynFile F = parseFileOk(R"(
    class C {
      int M(int x) {
        var a = x;
        System.Point p = x;
        a = x;
        Helper(x);
        return a;
      }
    }
  )");
  const auto &Body = F.Types[0]->Members[0].Body;
  ASSERT_EQ(Body.size(), 5u);
  EXPECT_EQ(Body[0].Kind, SynStmtKind::VarDecl);
  EXPECT_EQ(Body[1].Kind, SynStmtKind::TypedDecl);
  EXPECT_EQ(Body[1].DeclTypeSegs,
            (std::vector<std::string>{"System", "Point"}));
  EXPECT_EQ(Body[2].Kind, SynStmtKind::ExprStmt);
  EXPECT_EQ(Body[2].Value->Kind, SynExprKind::Assign);
  EXPECT_EQ(Body[3].Kind, SynStmtKind::ExprStmt);
  EXPECT_EQ(Body[3].Value->Kind, SynExprKind::Call);
  EXPECT_EQ(Body[4].Kind, SynStmtKind::Return);
}

TEST(ParserTest, TypedDeclVsExpressionDisambiguation) {
  // `a.b = c;` is an assignment, `a.b x = c;` a declaration.
  SynFile F = parseFileOk(R"(
    class C {
      void M() {
        a.b = c;
        a.b x = c;
      }
    }
  )");
  const auto &Body = F.Types[0]->Members[0].Body;
  ASSERT_EQ(Body.size(), 2u);
  EXPECT_EQ(Body[0].Kind, SynStmtKind::ExprStmt);
  EXPECT_EQ(Body[1].Kind, SynStmtKind::TypedDecl);
}

TEST(ParserTest, ErrorsAreReported) {
  EXPECT_TRUE(parseFails("class { }"));           // missing name
  EXPECT_TRUE(parseFails("class C { int ; }"));   // missing member name
  EXPECT_TRUE(parseFails("enum E { 1, 2 }"));     // bad enumerator
  EXPECT_TRUE(parseFails("class C { void M() { var = 3; } }"));
}

TEST(ParserTest, RecoversAfterBadMember) {
  // One bad member must not swallow the rest of the file.
  DiagnosticEngine D;
  Lexer L("class C { int ; int Good; } class D { }", D);
  Parser P(L.lexAll(), D);
  SynFile File;
  P.parseFile(File);
  EXPECT_TRUE(D.hasErrors());
  ASSERT_EQ(File.Types.size(), 2u);
  EXPECT_EQ(File.Types[1]->Name, "D");
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

TEST(ParserTest, QueryHole) {
  SynExprPtr Q = parseQueryOk("?");
  EXPECT_EQ(Q->Kind, SynExprKind::Hole);
}

TEST(ParserTest, QueryUnknownCall) {
  SynExprPtr Q = parseQueryOk("?({img, size})");
  ASSERT_EQ(Q->Kind, SynExprKind::UnknownCall);
  ASSERT_EQ(Q->Args.size(), 2u);
  EXPECT_EQ(Q->Args[0]->Kind, SynExprKind::Name);
  EXPECT_EQ(Q->Args[0]->Name, "img");
}

TEST(ParserTest, QueryUnknownCallNestedPartials) {
  // ?({strBuilder.?*m, e.?*m}) from §3.
  SynExprPtr Q = parseQueryOk("?({strBuilder.?*m, e.?*m})");
  ASSERT_EQ(Q->Kind, SynExprKind::UnknownCall);
  ASSERT_EQ(Q->Args.size(), 2u);
  EXPECT_EQ(Q->Args[0]->Kind, SynExprKind::Suffix);
  EXPECT_EQ(Q->Args[0]->Sfx, SuffixKind::MemberStar);
}

TEST(ParserTest, QuerySuffixForms) {
  struct Case {
    const char *Text;
    SuffixKind Kind;
  } Cases[] = {
      {"x.?f", SuffixKind::Field},
      {"x.?*f", SuffixKind::FieldStar},
      {"x.?m", SuffixKind::Member},
      {"x.?*m", SuffixKind::MemberStar},
  };
  for (const Case &C : Cases) {
    SynExprPtr Q = parseQueryOk(C.Text);
    ASSERT_EQ(Q->Kind, SynExprKind::Suffix) << C.Text;
    EXPECT_EQ(Q->Sfx, C.Kind) << C.Text;
    EXPECT_EQ(Q->Base->Kind, SynExprKind::Name);
  }
}

TEST(ParserTest, QueryStackedSuffixes) {
  SynExprPtr Q = parseQueryOk("p.?m.?m");
  ASSERT_EQ(Q->Kind, SynExprKind::Suffix);
  ASSERT_EQ(Q->Base->Kind, SynExprKind::Suffix);
  EXPECT_EQ(Q->Base->Base->Kind, SynExprKind::Name);
}

TEST(ParserTest, QueryComparisonOfSuffixes) {
  SynExprPtr Q = parseQueryOk("point.?*m >= this.?*m");
  ASSERT_EQ(Q->Kind, SynExprKind::Compare);
  EXPECT_EQ(Q->CmpOp, CompareOp::Ge);
  EXPECT_EQ(Q->Base->Kind, SynExprKind::Suffix);
  EXPECT_EQ(Q->Rhs->Kind, SynExprKind::Suffix);
  EXPECT_EQ(Q->Rhs->Base->Kind, SynExprKind::This);
}

TEST(ParserTest, QueryKnownCallWithHole) {
  SynExprPtr Q = parseQueryOk("Distance(point, ?)");
  ASSERT_EQ(Q->Kind, SynExprKind::Call);
  EXPECT_EQ(Q->Name, "Distance");
  ASSERT_EQ(Q->Args.size(), 2u);
  EXPECT_EQ(Q->Args[1]->Kind, SynExprKind::Hole);
}

TEST(ParserTest, QueryAssignment) {
  SynExprPtr Q = parseQueryOk("this.shape.?f = point.?f");
  ASSERT_EQ(Q->Kind, SynExprKind::Assign);
  EXPECT_EQ(Q->Base->Kind, SynExprKind::Suffix);
}

TEST(ParserTest, QueryRejectsTrailingTokens) {
  DiagnosticEngine D;
  Lexer L("? ?", D);
  Parser P(L.lexAll(), D);
  EXPECT_EQ(P.parseQuery(), nullptr);
  EXPECT_TRUE(D.hasErrors());
}

TEST(ParserTest, QuerySyntaxRejectedInBodies) {
  EXPECT_TRUE(parseFails("class C { void M() { x.?f; } }"));
  EXPECT_TRUE(parseFails("class C { void M() { Foo(?); } }"));
}

TEST(ParserTest, QueryBadSuffixLetter) {
  DiagnosticEngine D;
  Lexer L("x.?z", D);
  Parser P(L.lexAll(), D);
  EXPECT_EQ(P.parseQuery(), nullptr);
  EXPECT_TRUE(D.hasErrors());
}

} // namespace

//===- tests/resolver_test.cpp - Name resolution and lowering tests -------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "code/ExprPrinter.h"
#include "parser/Frontend.h"

#include <gtest/gtest.h>

using namespace petal;

namespace {

class ResolverTest : public ::testing::Test {
protected:
  bool load(const char *Src) {
    TS = std::make_unique<TypeSystem>();
    P = std::make_unique<Program>(*TS);
    return loadProgramText(Src, *P, Diags);
  }

  std::string diagText() const {
    std::ostringstream OS;
    Diags.print(OS);
    return OS.str();
  }

  /// Returns the printed form of statement \p Idx of Class::Method.
  std::string stmtText(const char *Class, const char *Method, size_t Idx) {
    const CodeClass *CC = findCodeClass(*P, Class);
    if (!CC)
      return "<no class>";
    const CodeMethod *CM = findCodeMethod(*P, *CC, Method);
    if (!CM || Idx >= CM->body().size())
      return "<no stmt>";
    return printExpr(*TS, CM->body()[Idx].Value);
  }

  DiagnosticEngine Diags;
  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

TEST_F(ResolverTest, RegistersTypesBasesAndMembers) {
  ASSERT_TRUE(load(R"(
    namespace Geo {
      interface IShape { }
      class Shape : IShape { double Area; }
      class Rect : Shape { double Width; }
    }
  )")) << diagText();
  TypeId Shape = TS->findType("Geo.Shape");
  TypeId Rect = TS->findType("Geo.Rect");
  ASSERT_TRUE(isValidId(Shape));
  ASSERT_TRUE(isValidId(Rect));
  EXPECT_EQ(TS->type(Rect).BaseClass, Shape);
  EXPECT_EQ(TS->type(Shape).Interfaces.size(), 1u);
  EXPECT_EQ(TS->typeDistance(Rect, TS->objectType()), 2);
  EXPECT_TRUE(isValidId(TS->findField(Rect, "Area"))); // inherited
}

TEST_F(ResolverTest, ForwardReferencesResolve) {
  // `Uses` references `Defined` before its declaration appears.
  ASSERT_TRUE(load(R"(
    class Uses { Defined d; }
    class Defined { int X; }
  )")) << diagText();
  TypeId Uses = TS->findType("Uses");
  FieldId D = TS->findField(Uses, "d");
  EXPECT_EQ(TS->field(D).Type, TS->findType("Defined"));
}

TEST_F(ResolverTest, TypeNamesResolveInnermostNamespaceFirst) {
  // From A.B.C a bare or partly qualified name is tried as A.B.C.name,
  // A.B.name, A.name and name, in that order.
  ASSERT_TRUE(load(R"(
    class T { }
    namespace A { class T { } class Only { } namespace X { class Y { } } }
    namespace A.B { class T { } }
    namespace A.B.C {
      class U { T Near; Only Mid; X.Y Partial; Root Far; }
    }
    class Root { }
  )")) << diagText();
  TypeId U = TS->findType("A.B.C.U");
  auto FieldType = [&](const char *Name) {
    return TS->field(TS->findField(U, Name)).Type;
  };
  EXPECT_EQ(FieldType("Near"), TS->findType("A.B.T"));
  EXPECT_EQ(FieldType("Mid"), TS->findType("A.Only"));
  EXPECT_EQ(FieldType("Partial"), TS->findType("A.X.Y"));
  EXPECT_EQ(FieldType("Far"), TS->findType("Root"));
}

TEST_F(ResolverTest, EnumMembersBecomeStaticFields) {
  ASSERT_TRUE(load("namespace N { enum Edge { Top, Bottom } }"))
      << diagText();
  TypeId Edge = TS->findType("N.Edge");
  FieldId Top = TS->findDeclaredField(Edge, "Top");
  ASSERT_TRUE(isValidId(Top));
  EXPECT_TRUE(TS->field(Top).IsStatic);
  EXPECT_EQ(TS->field(Top).Type, Edge);
}

TEST_F(ResolverTest, DuplicateTypeIsAnError) {
  EXPECT_FALSE(load("class A { } class A { }"));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST_F(ResolverTest, UnknownBaseIsAnError) {
  EXPECT_FALSE(load("class A : Missing { }"));
}

//===----------------------------------------------------------------------===//
// Body resolution
//===----------------------------------------------------------------------===//

TEST_F(ResolverTest, NameResolutionPrecedence) {
  // A local shadows a field; a field is found before a type name.
  ASSERT_TRUE(load(R"(
    class C {
      int value;
      void M(int value) {
        var x = value;
      }
      void N() {
        var y = value;
      }
    }
  )")) << diagText();
  EXPECT_EQ(stmtText("C", "M", 0), "value");       // the parameter
  EXPECT_EQ(stmtText("C", "N", 0), "this.value");  // the field
}

TEST_F(ResolverTest, StaticAccessThroughTypeAndNamespace) {
  ASSERT_TRUE(load(R"(
    namespace Sys.IO {
      class Directory {
        static bool Exists(string path);
      }
    }
    class C {
      void M(string p) {
        Sys.IO.Directory.Exists(p);
      }
    }
  )")) << diagText();
  EXPECT_EQ(stmtText("C", "M", 0), "Sys.IO.Directory.Exists(p)");
}

TEST_F(ResolverTest, InstanceCallsAndChains) {
  ASSERT_TRUE(load(R"(
    class Point { double X; }
    class Line {
      Point p1;
      Point GetEnd();
      void M() {
        var a = p1.X;
        var b = GetEnd().X;
      }
    }
  )")) << diagText();
  EXPECT_EQ(stmtText("Line", "M", 0), "this.p1.X");
  EXPECT_EQ(stmtText("Line", "M", 1), "this.GetEnd().X");
}

TEST_F(ResolverTest, OverloadSelectionPrefersExactMatch) {
  ASSERT_TRUE(load(R"(
    class Shape { }
    class Rect : Shape { }
    class U {
      static int Use(Shape s);
      static int Use(Rect r);
      void M(Rect r) {
        Use(r);
      }
    }
  )")) << diagText();
  // The Rect overload has td 0, the Shape one td 1.
  const CodeClass *CC = findCodeClass(*P, "U");
  const CodeMethod *CM = findCodeMethod(*P, *CC, "M");
  const auto *Call = cast<CallExpr>(CM->body()[0].Value);
  EXPECT_EQ(TS->method(Call->method()).Params[0].Type, TS->findType("Rect"));
}

TEST_F(ResolverTest, ThisInStaticContextIsAnError) {
  EXPECT_FALSE(load(R"(
    class C {
      int f;
      static void M() { var x = this.f; }
    }
  )"));
}

TEST_F(ResolverTest, InstanceFieldInStaticContextIsAnError) {
  EXPECT_FALSE(load(R"(
    class C {
      int f;
      static void M() { var x = f; }
    }
  )"));
}

TEST_F(ResolverTest, NullAssignsToReferenceTypes) {
  ASSERT_TRUE(load(R"(
    class C {
      C next;
      void M() {
        next = null;
        var s = null;
      }
    }
  )")) << diagText();
  EXPECT_EQ(stmtText("C", "M", 0), "this.next = null");
}

TEST_F(ResolverTest, ReturnTypeIsChecked) {
  EXPECT_FALSE(load(R"(
    class C {
      int M() { return "nope"; }
    }
  )"));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST_F(ResolverTest, ComparisonTypeRules) {
  ASSERT_TRUE(load(R"(
    class C {
      void M(int a, double b) {
        a < b;
      }
    }
  )")) << diagText();
  EXPECT_FALSE(load(R"(
    class C {
      void M(string a, int b) {
        a < b;
      }
    }
  )"));
}

TEST_F(ResolverTest, UndeclaredIdentifierIsAnError) {
  EXPECT_FALSE(load("class C { void M() { var x = missing; } }"));
}

//===----------------------------------------------------------------------===//
// Query resolution
//===----------------------------------------------------------------------===//

class QueryResolveTest : public ResolverTest {
protected:
  void loadGeo() {
    ASSERT_TRUE(load(R"(
      namespace G {
        class Point { double X; }
        class Util {
          static double Distance(G.Point a, G.Point b);
        }
      }
      class C {
        G.Point field;
        void M(G.Point p) {
          var d = p.X;
        }
      }
    )")) << diagText();
    Class = findCodeClass(*P, "C");
    Method = findCodeMethod(*P, *Class, "M");
  }

  const PartialExpr *query(const char *Text, size_t StmtIndex = SIZE_MAX) {
    QueryScope Scope{Class, Method, StmtIndex};
    return parseQueryText(Text, *P, Scope, Diags);
  }

  const CodeClass *Class = nullptr;
  const CodeMethod *Method = nullptr;
};

TEST_F(QueryResolveTest, ConcretePartsResolveAgainstScope) {
  loadGeo();
  const PartialExpr *Q = query("?({p, field})");
  ASSERT_NE(Q, nullptr) << diagText();
  const auto *U = cast<UnknownCallPE>(Q);
  ASSERT_EQ(U->args().size(), 2u);
  EXPECT_EQ(printExpr(*TS, cast<ConcretePE>(U->args()[0])->expr()), "p");
  EXPECT_EQ(printExpr(*TS, cast<ConcretePE>(U->args()[1])->expr()),
            "this.field");
}

TEST_F(QueryResolveTest, KnownCallResolvesOverloadSet) {
  loadGeo();
  const PartialExpr *Q = query("Distance(p, ?)");
  ASSERT_NE(Q, nullptr) << diagText();
  const auto *K = cast<KnownCallPE>(Q);
  ASSERT_EQ(K->resolved().size(), 1u);
  EXPECT_EQ(TS->method(K->resolved()[0]).Name, "Distance");
  EXPECT_EQ(K->args().size(), 2u);
}

TEST_F(QueryResolveTest, FullyConcreteCallBecomesConcrete) {
  loadGeo();
  const PartialExpr *Q = query("Distance(p, p)");
  ASSERT_NE(Q, nullptr) << diagText();
  ASSERT_TRUE(isa<ConcretePE>(Q));
  EXPECT_EQ(printExpr(*TS, cast<ConcretePE>(Q)->expr()),
            "G.Util.Distance(p, p)");
}

TEST_F(QueryResolveTest, LocalsRespectTheStatementIndex) {
  loadGeo();
  // At statement 0 the local `d` does not exist yet.
  EXPECT_EQ(query("d.?m", 0), nullptr);
  Diags.clear();
  EXPECT_NE(query("d.?m", 1), nullptr) << diagText();
}

TEST_F(QueryResolveTest, ZeroLiteralIsDontCareInQueries) {
  loadGeo();
  const PartialExpr *Q = query("?({p, 0})");
  ASSERT_NE(Q, nullptr) << diagText();
  const auto *U = cast<UnknownCallPE>(Q);
  EXPECT_TRUE(isa<DontCarePE>(U->args()[1]));
}

TEST_F(QueryResolveTest, UnknownMethodNameIsAnError) {
  loadGeo();
  EXPECT_EQ(query("NoSuchMethod(p, ?)"), nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST_F(QueryResolveTest, InstanceReceiverBecomesFirstArgument) {
  ASSERT_TRUE(load(R"(
    class Buf {
      Buf Append(string s);
      void M(Buf b, string s) {
      }
    }
  )")) << diagText();
  Class = findCodeClass(*P, "Buf");
  Method = findCodeMethod(*P, *Class, "M");
  const PartialExpr *Q = query("b.Append(?)");
  ASSERT_NE(Q, nullptr) << diagText();
  const auto *K = cast<KnownCallPE>(Q);
  // Receiver-as-first-argument: 2 call-signature args.
  ASSERT_EQ(K->args().size(), 2u);
  EXPECT_TRUE(isa<ConcretePE>(K->args()[0]));
  EXPECT_TRUE(isa<HolePE>(K->args()[1]));
}

} // namespace

//===- tests/index_test.cpp - Method index, member cache, reach rows -----===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"
#include "index/MemberCache.h"
#include "index/MethodIndex.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace petal;

namespace {

//===----------------------------------------------------------------------===//
// MethodIndex
//===----------------------------------------------------------------------===//

class MethodIndexTest : public ::testing::Test {
protected:
  void SetUp() override {
    Ns = TS.getOrAddNamespace("M");
    Shape = TS.addType("Shape", Ns, TypeKind::Class);
    Rect = TS.addType("Rect", Ns, TypeKind::Class, Shape);
    Other = TS.addType("Other", Ns, TypeKind::Class);
    TakesShape = TS.addMethod(Other, "TakesShape", TS.voidType(),
                              {{"s", Shape}}, /*IsStatic=*/true);
    TakesRect = TS.addMethod(Other, "TakesRect", TS.voidType(), {{"r", Rect}},
                             /*IsStatic=*/true);
    TakesObject = TS.addMethod(Other, "TakesObject", TS.voidType(),
                               {{"o", TS.objectType()}}, /*IsStatic=*/true);
    OnShape = TS.addMethod(Shape, "Scale", TS.voidType(),
                           {{"by", TS.doubleType()}});
  }

  TypeSystem TS;
  NamespaceId Ns;
  TypeId Shape, Rect, Other;
  MethodId TakesShape, TakesRect, TakesObject, OnShape;
};

TEST_F(MethodIndexTest, ExactBucketsKeyOnDeclaredTypes) {
  MethodIndex Idx(TS);
  const auto &ShapeBucket = Idx.exactBucket(Shape);
  // Shape appears as TakesShape's param and as Scale's receiver slot.
  EXPECT_NE(std::find(ShapeBucket.begin(), ShapeBucket.end(), TakesShape),
            ShapeBucket.end());
  EXPECT_NE(std::find(ShapeBucket.begin(), ShapeBucket.end(), OnShape),
            ShapeBucket.end());
  EXPECT_EQ(std::find(ShapeBucket.begin(), ShapeBucket.end(), TakesRect),
            ShapeBucket.end());
}

TEST_F(MethodIndexTest, CandidatesWalkSupertypes) {
  MethodIndex Idx(TS);
  const auto &ForRect = Idx.candidatesForArgType(Rect);
  std::set<MethodId> S(ForRect.begin(), ForRect.end());
  // A Rect argument fits Rect, Shape, and Object parameters.
  EXPECT_TRUE(S.count(TakesRect));
  EXPECT_TRUE(S.count(TakesShape));
  EXPECT_TRUE(S.count(TakesObject));
  EXPECT_TRUE(S.count(OnShape)); // receiver position

  const auto &ForShape = Idx.candidatesForArgType(Shape);
  std::set<MethodId> S2(ForShape.begin(), ForShape.end());
  EXPECT_FALSE(S2.count(TakesRect)); // Shape does not fit a Rect param
}

TEST_F(MethodIndexTest, NearerBucketsComeFirst) {
  MethodIndex Idx(TS);
  const auto &ForRect = Idx.candidatesForArgType(Rect);
  auto Pos = [&](MethodId M) {
    return std::find(ForRect.begin(), ForRect.end(), M) - ForRect.begin();
  };
  // "each method index visited will give progressively worse ranked
  // results" — exact-type methods precede supertype methods.
  EXPECT_LT(Pos(TakesRect), Pos(TakesShape));
  EXPECT_LT(Pos(TakesShape), Pos(TakesObject));
}

/// Property: over a generated corpus, candidatesForArgType(T) equals the
/// brute-force set of methods with >= 1 call-signature parameter T converts
/// to.
TEST(MethodIndexPropertyTest, MatchesBruteForceOnGeneratedCorpus) {
  ProjectProfile Prof = paperProjectProfiles(0.2)[0];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  MethodIndex Idx(TS);

  for (size_t T = 0; T != TS.numTypes(); ++T) {
    TypeId Ty = static_cast<TypeId>(T);
    // void has no values; the null pseudo-type converts via a special rule,
    // not via supertype edges, and the engine never indexes on it.
    if (TS.type(Ty).Kind == TypeKind::Void || Ty == TS.nullType())
      continue;
    std::set<MethodId> Expected;
    for (size_t M = 0; M != TS.numMethods(); ++M) {
      MethodId Id = static_cast<MethodId>(M);
      for (size_t I = 0, N = TS.numCallParams(Id); I != N; ++I)
        if (TS.implicitlyConvertible(Ty, TS.callParamType(Id, I))) {
          Expected.insert(Id);
          break;
        }
    }
    const auto &Got = Idx.candidatesForArgType(Ty);
    std::set<MethodId> GotSet(Got.begin(), Got.end());
    ASSERT_EQ(GotSet, Expected) << "type " << TS.qualifiedName(Ty);
    ASSERT_EQ(Got.size(), GotSet.size()) << "duplicates for type " << T;
  }
}

//===----------------------------------------------------------------------===//
// MemberCache
//===----------------------------------------------------------------------===//

TEST(MemberCacheTest, FieldsFirstThenZeroArgMethods) {
  TypeSystem TS;
  NamespaceId Ns = TS.getOrAddNamespace("N");
  TypeId C = TS.addType("C", Ns, TypeKind::Class);
  TS.addField(C, "F", TS.intType());
  TS.addField(C, "S", TS.intType(), /*IsStatic=*/true); // excluded
  TS.addMethod(C, "Get", TS.intType(), {});
  TS.addMethod(C, "WithArg", TS.intType(), {{"x", TS.intType()}}); // excluded
  TS.addMethod(C, "Void", TS.voidType(), {});                      // excluded
  TS.addMethod(C, "Static", TS.intType(), {}, /*IsStatic=*/true);  // excluded

  MemberCache MC(TS);
  const auto &Edges = MC.edges(C);
  ASSERT_EQ(Edges.size(), 2u);
  EXPECT_TRUE(Edges[0].IsField);
  EXPECT_FALSE(Edges[1].IsField);
  EXPECT_EQ(MC.numFieldEdges(C), 1u);
}

TEST(MemberCacheTest, IncludesInheritedMembers) {
  TypeSystem TS;
  NamespaceId Ns = TS.getOrAddNamespace("N");
  TypeId Base = TS.addType("Base", Ns, TypeKind::Class);
  TypeId Derived = TS.addType("Derived", Ns, TypeKind::Class, Base);
  TS.addField(Base, "F", TS.intType());
  TS.addMethod(Base, "Get", TS.intType(), {});

  MemberCache MC(TS);
  EXPECT_EQ(MC.edges(Derived).size(), 2u);
  EXPECT_TRUE(MC.edges(TS.intType()).empty());
}

//===----------------------------------------------------------------------===//
// Reach rows (lookupsToConvertible)
//===----------------------------------------------------------------------===//

/// Independent reference for one reach row: a forward BFS from every
/// source type (MaxDepth lookups at most), then the minimum distance over
/// the reached types convertible to the target.
std::vector<int> forwardBfsRow(const TypeSystem &TS, const MemberCache &MC,
                               TypeId Target, bool MethodsAllowed,
                               int MaxDepth) {
  size_t N = TS.numTypes();
  std::vector<int> Row(N, -1);
  for (size_t F = 0; F != N; ++F) {
    std::vector<int> Dist(N, -1);
    std::vector<TypeId> Work{static_cast<TypeId>(F)};
    Dist[F] = 0;
    for (size_t I = 0; I != Work.size(); ++I) {
      TypeId Cur = Work[I];
      if (TS.implicitlyConvertible(Cur, Target) &&
          (Row[F] < 0 || Dist[Cur] < Row[F]))
        Row[F] = Dist[Cur];
      if (Dist[Cur] >= MaxDepth)
        continue;
      const auto Edges = MC.edges(Cur);
      size_t Limit = MethodsAllowed ? Edges.size() : MC.numFieldEdges(Cur);
      for (size_t E = 0; E != Limit; ++E) {
        TypeId Next = Edges[E].ResultType;
        if (Dist[Next] < 0) {
          Dist[Next] = Dist[Cur] + 1;
          Work.push_back(Next);
        }
      }
    }
  }
  return Row;
}

class ReachTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Line --p1--> Point --x--> double; Line --GetStyle()--> Style.
    Ns = TS.getOrAddNamespace("R");
    Point = TS.addType("Point", Ns, TypeKind::Struct);
    TS.addField(Point, "X", TS.doubleType());
    Style = TS.addType("Style", Ns, TypeKind::Class);
    TS.addField(Style, "Origin", Point);
    Line = TS.addType("Line", Ns, TypeKind::Class);
    TS.addField(Line, "P1", Point);
    TS.addMethod(Line, "GetStyle", Style, {});
    MC = std::make_unique<MemberCache>(TS);
  }

  std::vector<int8_t> row(TypeId Target, bool MethodsAllowed,
                          int MaxDepth = 8) {
    return lookupsToConvertible(TS, *MC, Target, MethodsAllowed, MaxDepth);
  }

  TypeSystem TS;
  NamespaceId Ns;
  TypeId Point, Style, Line;
  std::unique_ptr<MemberCache> MC;
};

TEST_F(ReachTest, MinLookupCounts) {
  // Nothing but a Point converts to the struct Point.
  std::vector<int8_t> ToPoint = row(Point, /*MethodsAllowed=*/true);
  ASSERT_EQ(ToPoint.size(), TS.numTypes());
  EXPECT_EQ(ToPoint[Point], 0);
  EXPECT_EQ(ToPoint[Line], 1);
  EXPECT_EQ(ToPoint[Style], 1);
  EXPECT_EQ(ToPoint[TS.doubleType()], -1);
  EXPECT_EQ(row(Line, true)[Point], -1);
  // Style is reached only through the GetStyle() method edge.
  EXPECT_EQ(row(Style, true)[Line], 1);
  EXPECT_EQ(row(Style, false)[Line], -1);
  // Fields only still reaches double through P1.X.
  EXPECT_EQ(row(TS.doubleType(), false)[Line], 2);
  EXPECT_EQ(row(TS.doubleType(), true)[Line], 2);
}

TEST_F(ReachTest, ConvertibleTargets) {
  // Anything reaches a value convertible to Object immediately.
  EXPECT_EQ(row(TS.objectType(), true)[Line], 0);
  EXPECT_EQ(row(TS.objectType(), true)[Point], 0);
  // double from Point is one lookup; Style is never reached from Point.
  EXPECT_EQ(row(TS.doubleType(), true)[Point], 1);
  EXPECT_EQ(row(Style, true)[Point], -1);
  // The null literal converts to the class Style without a lookup.
  EXPECT_EQ(row(Style, true)[TS.nullType()], 0);
}

TEST_F(ReachTest, DepthCapBoundsTheSearch) {
  // C0 --next--> C1 --> ... --> C4 --p--> Point: Ci is 5 - i lookups from
  // a Point. A self-referential Node.Next chain never reaches one.
  std::vector<TypeId> Chain;
  for (int I = 0; I != 5; ++I)
    Chain.push_back(
        TS.addType("C" + std::to_string(I), Ns, TypeKind::Class));
  for (int I = 0; I != 4; ++I)
    TS.addField(Chain[I], "Next", Chain[I + 1]);
  TS.addField(Chain[4], "P", Point);
  TypeId Node = TS.addType("Node", Ns, TypeKind::Class);
  TS.addField(Node, "Next", Node);
  MC = std::make_unique<MemberCache>(TS);

  std::vector<int8_t> Deep = row(Point, true, /*MaxDepth=*/8);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Deep[Chain[I]], 5 - I) << "C" << I;
  std::vector<int8_t> Shallow = row(Point, true, /*MaxDepth=*/3);
  EXPECT_EQ(Shallow[Chain[2]], 3);
  EXPECT_EQ(Shallow[Chain[1]], -1);
  EXPECT_EQ(Shallow[Chain[0]], -1);
  EXPECT_EQ(Deep[Node], -1);
  EXPECT_EQ(row(Node, true, /*MaxDepth=*/3)[Node], 0);
}

/// Property: every reach row agrees with an independent forward BFS on a
/// generated corpus, for both edge sets, at a depth cap the corpus's
/// lookup chains outrun.
TEST(ReachabilityPropertyTest, AgreesWithBfsOracle) {
  ProjectProfile Prof = paperProjectProfiles(0.15)[2];
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  MemberCache MC(TS);
  constexpr int MaxDepth = 4;

  Rng R(99);
  size_t Truncated = 0;
  for (int Trial = 0; Trial != 40; ++Trial) {
    TypeId Target = static_cast<TypeId>(R.below(TS.numTypes()));
    for (bool Methods : {false, true}) {
      std::vector<int8_t> Got =
          lookupsToConvertible(TS, MC, Target, Methods, MaxDepth);
      std::vector<int> Want = forwardBfsRow(TS, MC, Target, Methods, MaxDepth);
      std::vector<int> Unbounded =
          forwardBfsRow(TS, MC, Target, Methods, /*MaxDepth=*/64);
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t F = 0; F != Want.size(); ++F) {
        ASSERT_EQ(Got[F], Want[F])
            << "from " << TS.qualifiedName(static_cast<TypeId>(F)) << " to "
            << TS.qualifiedName(Target) << " methods=" << Methods;
        Truncated += Want[F] < 0 && Unbounded[F] > MaxDepth;
      }
    }
  }
  EXPECT_GT(Truncated, 0u) << "the corpus no longer exercises the depth cap";
}

} // namespace

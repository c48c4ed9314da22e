//===- tests/CodeReuse.h - Checks on code shared across versions -*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Shared by the incremental-build tests: what an incremental DocumentState
// must share with its predecessor's resolved code (DESIGN.md §12), and the
// abstract-type inference and solution in a form that compares bit for
// bit.
//
//===----------------------------------------------------------------------===//

#ifndef PETAL_TESTS_CODEREUSE_H
#define PETAL_TESTS_CODEREUSE_H

#include "code/ExprFactory.h"
#include "service/Session.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

/// Checks that \p Now, built incrementally on \p Was, holds \p Was's
/// CodeClass, by pointer, for every declaration whose syntax tree the two
/// share, and a class of its own for every other. Returns the number of
/// classes resolved anew.
inline size_t expectCodeReuse(const petal::DocumentState &Now,
                              const petal::DocumentState &Was) {
  EXPECT_EQ(Now.TS, Was.TS);
  const auto &NowTypes = Now.Parsed.File.Types;
  const auto &WasTypes = Was.Parsed.File.Types;
  EXPECT_EQ(NowTypes.size(), WasTypes.size());
  if (NowTypes.size() != WasTypes.size())
    return 0;
  std::unordered_map<std::string, size_t> DeclOf;
  for (size_t I = 0; I != Now.Parsed.Shape.Units.size(); ++I)
    DeclOf[Now.Parsed.Shape.Units[I].QualName] = I;
  std::unordered_map<petal::TypeId, const petal::CodeClass *> WasClass;
  for (const auto &C : Was.P->classes())
    WasClass[C->type()] = C.get();

  size_t Resolved = 0;
  for (const auto &C : Now.P->classes()) {
    std::string Name = Now.TS->qualifiedName(C->type());
    auto It = DeclOf.find(Name);
    EXPECT_NE(It, DeclOf.end()) << Name;
    if (It == DeclOf.end())
      continue;
    if (NowTypes[It->second] == WasTypes[It->second]) {
      EXPECT_EQ(C.get(), WasClass[C->type()]) << Name << " was not shared";
    } else {
      EXPECT_NE(C.get(), WasClass[C->type()]) << Name << " was not resolved";
      ++Resolved;
    }
  }
  return Resolved;
}

/// The classes of \p Doc's program, by type, in program order.
inline std::vector<petal::TypeId>
classOrder(const petal::DocumentState &Doc) {
  std::vector<petal::TypeId> Out;
  for (const auto &C : Doc.P->classes())
    Out.push_back(C->type());
  return Out;
}

/// \p Doc's abstract-type constraints in order, each origin given as its
/// method's position (class index, method index) in \p Doc's program.
inline std::vector<std::tuple<uint32_t, uint32_t, size_t, size_t, uint32_t>>
constraintRows(const petal::DocumentState &Doc) {
  std::unordered_map<const petal::CodeMethod *, std::pair<size_t, size_t>>
      Position;
  const auto &Classes = Doc.P->classes();
  for (size_t C = 0; C != Classes.size(); ++C)
    for (size_t M = 0; M != Classes[C]->methods().size(); ++M)
      Position[Classes[C]->methods()[M].get()] = {C, M};
  std::vector<std::tuple<uint32_t, uint32_t, size_t, size_t, uint32_t>> Rows;
  for (const auto &K : Doc.Idx->Infer.constraints()) {
    auto It = Position.find(K.Origin);
    EXPECT_NE(It, Position.end()) << "a constraint from outside the program";
    if (It != Position.end())
      Rows.emplace_back(K.A, K.B, It->second.first, It->second.second,
                        K.StmtIndex);
  }
  return Rows;
}

/// Checks that \p Inc's abstract-type inference equals \p Fresh's, built
/// from scratch over the same text: the variable count, the constraints in
/// order, the variable of every local and of `this` in every method, and
/// the Object-method specializations with their variables.
inline void expectSameInference(const petal::DocumentState &Inc,
                                const petal::DocumentState &Fresh) {
  const petal::AbstractTypeInference &A = Inc.Idx->Infer;
  const petal::AbstractTypeInference &B = Fresh.Idx->Infer;
  EXPECT_EQ(A.numVars(), B.numVars());
  EXPECT_EQ(constraintRows(Inc), constraintRows(Fresh));

  const auto &IncClasses = Inc.P->classes();
  const auto &FreshClasses = Fresh.P->classes();
  ASSERT_EQ(IncClasses.size(), FreshClasses.size());
  petal::Arena Nodes;
  petal::ExprFactory IncExprs(*Inc.TS, Nodes), FreshExprs(*Fresh.TS, Nodes);
  for (size_t C = 0; C != IncClasses.size(); ++C) {
    const auto &IncMethods = IncClasses[C]->methods();
    const auto &FreshMethods = FreshClasses[C]->methods();
    ASSERT_EQ(IncMethods.size(), FreshMethods.size());
    for (size_t M = 0; M != IncMethods.size(); ++M) {
      const petal::CodeMethod &IM = *IncMethods[M], &FM = *FreshMethods[M];
      SCOPED_TRACE("class " + std::to_string(C) + " method " +
                   std::to_string(M));
      ASSERT_EQ(IM.locals().size(), FM.locals().size());
      for (unsigned L = 0; L != IM.locals().size(); ++L)
        EXPECT_EQ(A.varOfExpr(IncExprs.var(IM, L), &IM),
                  B.varOfExpr(FreshExprs.var(FM, L), &FM));
      EXPECT_EQ(A.varOfExpr(IncExprs.thisRef(IM.owner()), &IM),
                B.varOfExpr(FreshExprs.thisRef(FM.owner()), &FM));
    }
  }

  std::vector<uint64_t> Keys = A.objectSpecializationKeys();
  EXPECT_EQ(Keys, B.objectSpecializationKeys());
  for (uint64_t Key : Keys) {
    auto M = static_cast<petal::MethodId>(Key >> 32);
    auto T = static_cast<petal::TypeId>(Key & 0xFFFFFFFFu);
    EXPECT_EQ(A.varOfReturn(M, T), B.varOfReturn(M, T));
    EXPECT_EQ(A.varOfCallParam(M, 0, T), B.varOfCallParam(M, 0, T));
  }
}

/// \p Doc's whole-corpus abstract-type solution as its parent array.
inline std::vector<uint32_t> solutionParents(petal::DocumentState &Doc) {
  petal::Span<const uint32_t> Parents =
      Doc.Exec->sharedSolution()->parents();
  return {Parents.begin(), Parents.end()};
}

#endif // PETAL_TESTS_CODEREUSE_H

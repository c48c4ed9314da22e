//===- tests/CodeReuse.h - Checks on code shared across versions -*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Shared by the incremental-build tests: what an incremental DocumentState
// must share with its predecessor's resolved code (DESIGN.md §12), and the
// abstract-type solution in a form that compares bit for bit.
//
//===----------------------------------------------------------------------===//

#ifndef PETAL_TESTS_CODEREUSE_H
#define PETAL_TESTS_CODEREUSE_H

#include "service/Session.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
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

/// \p Doc's whole-corpus abstract-type solution as its parent array.
inline std::vector<uint32_t> solutionParents(petal::DocumentState &Doc) {
  petal::Span<const uint32_t> Parents =
      Doc.Exec->sharedSolution()->parents();
  return {Parents.begin(), Parents.end()};
}

#endif // PETAL_TESTS_CODEREUSE_H

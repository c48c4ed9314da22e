//===- code/Code.h - Programs, classes, methods, statements -----*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code substrate that hosts expressions: methods with bodies (flat
/// statement lists), their classes, and whole programs. The paper's
/// experiments replay expressions found in compiled projects; petal's
/// corpora are Programs produced either by the parser or the synthetic
/// generator.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_CODE_CODE_H
#define PETAL_CODE_CODE_H

#include "code/Expr.h"
#include "model/Ids.h"
#include "support/Arena.h"

#include <memory>
#include <string>
#include <vector>

namespace petal {

class TypeSystem;

/// A local variable or parameter of a method body.
struct LocalVar {
  std::string Name;
  TypeId Type = InvalidId;
  bool IsParam = false;
};

/// Statement discriminator.
enum class StmtKind {
  LocalDecl, ///< `T x = init;` / `var x = init;`
  ExprStmt,  ///< expression statement (call, assignment, comparison)
  Return,    ///< `return e;` (e may be null for `return;`)
};

/// One statement of a method body.
struct Stmt {
  StmtKind Kind;
  /// For LocalDecl: the slot of the declared local in CodeMethod::Locals.
  unsigned LocalSlot = 0;
  /// The payload expression: initializer / statement expression / return
  /// value. May be null only for a bare `return;`.
  const Expr *Value = nullptr;
};

/// A method body attached to a MethodId declared in the TypeSystem.
class CodeMethod {
public:
  CodeMethod(MethodId Decl, TypeId Owner) : Decl(Decl), Owner(Owner) {}

  MethodId decl() const { return Decl; }
  TypeId owner() const { return Owner; }

  /// Adds a local (or parameter, if \p IsParam) and returns its slot.
  unsigned addLocal(std::string Name, TypeId Type, bool IsParam = false) {
    Locals.push_back({std::move(Name), Type, IsParam});
    return static_cast<unsigned>(Locals.size() - 1);
  }

  void addStmt(Stmt S) { Body.push_back(S); }

  const std::vector<LocalVar> &locals() const { return Locals; }
  const std::vector<Stmt> &body() const { return Body; }

  /// Slots of locals visible at statement index \p StmtIndex: all parameters
  /// plus locals declared by earlier statements.
  std::vector<unsigned> localsInScopeAt(size_t StmtIndex) const;

private:
  MethodId Decl;
  TypeId Owner;
  std::vector<LocalVar> Locals;
  std::vector<Stmt> Body;
};

/// A class together with its method bodies: one declaration's resolved
/// code. Once its Program's build finishes the class is immutable, so a
/// later Program over the same TypeSystem may share it by pointer
/// (Program::adoptClass). It keeps alive the arena its expressions live
/// in, which it shares with the other classes resolved in the same build.
class CodeClass {
public:
  CodeClass(TypeId Type, std::shared_ptr<Arena> Exprs)
      : Exprs(std::move(Exprs)), Type(Type) {}

  TypeId type() const { return Type; }

  CodeMethod &addMethod(MethodId Decl) {
    Methods.push_back(std::make_unique<CodeMethod>(Decl, Type));
    return *Methods.back();
  }

  const std::vector<std::unique_ptr<CodeMethod>> &methods() const {
    return Methods;
  }

private:
  // First, so the expressions outlive the bodies that point at them.
  std::shared_ptr<Arena> Exprs;
  TypeId Type;
  std::vector<std::unique_ptr<CodeMethod>> Methods;
};

/// A whole program/corpus: a TypeSystem reference and the classes with
/// code, in declaration order. The classes are held by shared_ptr, so
/// successive versions of one document share the classes an edit left
/// alone; arena() is where this Program's own build allocates.
class Program {
public:
  explicit Program(TypeSystem &TS)
      : TS(TS), ExprArena(std::make_shared<Arena>()) {}

  TypeSystem &typeSystem() { return TS; }
  const TypeSystem &typeSystem() const { return TS; }
  Arena &arena() { return *ExprArena; }

  /// Appends a new class whose expressions go in arena().
  CodeClass &addClass(TypeId Type) {
    auto C = std::make_shared<CodeClass>(Type, ExprArena);
    CodeClass &Ref = *C;
    Classes.push_back(std::move(C));
    return Ref;
  }

  /// Appends \p C, a finished class of another Program over this same
  /// TypeSystem, shared rather than copied.
  void adoptClass(std::shared_ptr<const CodeClass> C) {
    Classes.push_back(std::move(C));
  }

  const std::vector<std::shared_ptr<const CodeClass>> &classes() const {
    return Classes;
  }

  /// Total number of statements across all method bodies.
  size_t numStatements() const;

private:
  TypeSystem &TS;
  std::shared_ptr<Arena> ExprArena;
  std::vector<std::shared_ptr<const CodeClass>> Classes;
};

/// Identifies a statement position inside a program: the site of a query or
/// of a harvested ground-truth expression.
struct CodeSite {
  const CodeClass *Class = nullptr;
  const CodeMethod *Method = nullptr;
  size_t StmtIndex = 0;

  bool isValid() const { return Method != nullptr; }
};

} // namespace petal

#endif // PETAL_CODE_CODE_H

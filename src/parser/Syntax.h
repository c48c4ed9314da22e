//===- parser/Syntax.h - Name-level syntax tree -----------------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parser's output: a purely syntactic tree in which all names are
/// uninterpreted strings. The resolver lowers this to the TypeSystem /
/// Program / PartialExpr representations in separate phases so that
/// declarations may reference types defined later in the file.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_PARSER_SYNTAX_H
#define PETAL_PARSER_SYNTAX_H

#include "code/Expr.h"
#include "model/TypeSystem.h"
#include "partial/PartialExpr.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace petal {

struct SynExpr;
using SynExprPtr = std::unique_ptr<SynExpr>;

/// Kinds of syntactic expressions. The query-only kinds (Hole, UnknownCall,
/// Suffix) are rejected by the body resolver.
enum class SynExprKind {
  Name,        ///< bare identifier
  This,        ///< `this`
  Member,      ///< `base.name`
  Call,        ///< `name(args)` or `base.name(args)`
  IntLit,
  FloatLit,
  BoolLit,
  StringLit,
  NullLit,
  Compare,     ///< `lhs op rhs`
  Assign,      ///< `lhs = rhs`
  Hole,        ///< `?` (queries only)
  UnknownCall, ///< `?({args})` (queries only)
  Suffix,      ///< `base.?f` etc. (queries only)
};

/// One syntactic expression node.
struct SynExpr {
  SynExprKind Kind;
  SourceLoc Loc;
  std::string Name;          ///< identifier / member / method name
  SynExprPtr Base;           ///< member/call/suffix base; binary lhs
  SynExprPtr Rhs;            ///< binary rhs
  std::vector<SynExprPtr> Args;
  CompareOp CmpOp = CompareOp::Lt;
  SuffixKind Sfx = SuffixKind::Field;
  bool HasParens = false;    ///< Call: distinguishes `f()` from `f`
  int64_t IntValue = 0;
  double FloatValue = 0;
  bool BoolValue = false;
  std::string StrValue;
};

/// Statement kinds.
enum class SynStmtKind { VarDecl, TypedDecl, ExprStmt, Return };

/// One syntactic statement.
struct SynStmt {
  SynStmtKind Kind;
  SourceLoc Loc;
  std::vector<std::string> DeclTypeSegs; ///< TypedDecl: the declared type path
  std::string Name;                      ///< declared local name
  SynExprPtr Value;                      ///< initializer / expression / return value
};

/// A formal parameter.
struct SynParam {
  std::vector<std::string> TypeSegs;
  std::string Name;
  SourceLoc Loc;
};

/// A member of a type: field, property, or method.
struct SynMember {
  enum MemberKind { Field, Property, Method } Kind = Field;
  SourceLoc Loc;
  bool IsStatic = false;
  bool IsVoid = false;                   ///< method with `void` return
  std::vector<std::string> TypeSegs;     ///< field type / return type
  std::string Name;
  std::vector<SynParam> Params;
  bool HasBody = false;
  std::vector<SynStmt> Body;
};

/// A type declaration.
struct SynType {
  TypeKind Kind = TypeKind::Class;
  SourceLoc Loc;
  bool Comparable = false;
  std::string Name;
  std::string NamespaceName;                   ///< dotted; empty for root
  std::vector<std::vector<std::string>> Bases; ///< base class / interfaces
  std::vector<SynMember> Members;
  std::vector<std::string> Enumerators;        ///< for enums
};

/// A parsed source file. Each type's tree is immutable once parsed and
/// shared by pointer, so a later version of the same document can reuse
/// the trees of its unchanged declarations without copying them (see
/// DeclSpans.h).
struct SynFile {
  std::vector<std::shared_ptr<const SynType>> Types;
};

} // namespace petal

#endif // PETAL_PARSER_SYNTAX_H

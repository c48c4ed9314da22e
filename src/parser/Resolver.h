//===- parser/Resolver.h - Name resolution and lowering ---------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the syntactic tree to the semantic model in phases: (1) register
/// namespaces and types, (2) resolve bases and enum members, (3) resolve
/// member signatures, (4) resolve method bodies to typed expressions. Also
/// resolves partial-expression queries against a code site (a class, method,
/// and statement index), producing PartialExpr trees for the completion
/// engine.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_PARSER_RESOLVER_H
#define PETAL_PARSER_RESOLVER_H

#include "code/Code.h"
#include "code/ExprFactory.h"
#include "parser/Syntax.h"
#include "partial/PartialExpr.h"
#include "support/Diagnostics.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace petal {

/// Where a query is posed: inside \p Method of \p Class, just before the
/// statement at \p StmtIndex ("code after the query site does not exist
/// yet"). StmtIndex == SIZE_MAX means "at the end of the method".
struct QueryScope {
  const CodeClass *Class = nullptr;
  const CodeMethod *Method = nullptr;
  size_t StmtIndex = static_cast<size_t>(-1);
};

/// A previous version of a document, offered to an incremental resolve:
/// the syntax trees it was parsed into and the Program resolved from them
/// over the resolving Program's own TypeSystem.
struct PriorCode {
  const SynFile &File;
  const Program &P;
};

/// Lowers syntax to the semantic model.
class Resolver {
public:
  Resolver(Program &P, DiagnosticEngine &Diags)
      : Resolver(P, P.arena(), Diags) {}

  /// As above, but every expression and partial-expression node goes in
  /// \p Nodes rather than \p P's arena: a query parsed this way leaves
  /// \p P untouched.
  Resolver(Program &P, Arena &Nodes, DiagnosticEngine &Diags)
      : P(P), TS(P.typeSystem()), Factory(P.typeSystem(), Nodes),
        Diags(Diags) {}

  /// Runs all four phases over \p File. Returns false if any error was
  /// emitted; already-resolved entities remain in the program.
  bool resolveFile(const SynFile &File);

  /// Incremental-rebuild variant: resolves \p File's method bodies against
  /// a TypeSystem that *already contains* this file's declarations (from a
  /// previous resolveFile of a declaration-identical version — see
  /// DeclUnits.h). The declaration phases run in lookup-only mode, pairing
  /// each syntactic member with its existing FieldId/MethodId by
  /// declaration order and verifying names as it goes; the type system is
  /// never mutated, so a frozen, concurrently shared instance is safe to
  /// pass. Any pairing mismatch returns false *before* body resolution —
  /// the caller then falls back to a full build on a fresh TypeSystem.
  ///
  /// With \p Prior, a declaration whose tree is the same pointer as the
  /// prior file's at the same position resolves to exactly the prior
  /// Program's class for it, so that class is adopted by pointer; only
  /// the other declarations are verified and have their bodies resolved.
  /// \p Prior's Program must be over this Program's TypeSystem. Without
  /// it every declaration is verified and every body resolved.
  bool resolveFileReusingDecls(const SynFile &File,
                               const PriorCode *Prior = nullptr);

  /// Resolves a parsed query against \p Scope. Returns null on error.
  const PartialExpr *resolveQuery(const SynExpr *Q, const QueryScope &Scope);

private:
  /// Expression-resolution scope: the enclosing type, staticness, and the
  /// set of visible locals.
  struct ExprScope {
    TypeId SelfType = InvalidId;
    bool InStatic = true;
    const CodeMethod *Method = nullptr;
    std::unordered_map<std::string, unsigned> LocalByName;
  };

  /// Result of resolving a (possibly partial) name path: a value, a type, a
  /// namespace prefix, or failure.
  struct Entity {
    enum EntityKind { None, Value, TypeE, NamespaceE } Kind = None;
    const Expr *E = nullptr;
    TypeId T = InvalidId;
    std::string NsPath;

    static Entity value(const Expr *E) { return {Value, E, InvalidId, {}}; }
    static Entity type(TypeId T) { return {TypeE, nullptr, T, {}}; }
    static Entity nspace(std::string Path) {
      return {NamespaceE, nullptr, InvalidId, std::move(Path)};
    }
    static Entity none() { return {}; }
  };

  // Phase helpers.
  bool registerTypes(const SynFile &File);
  bool resolveBases(const SynFile &File);
  bool resolveMembers(const SynFile &File);
  /// False only when \p Prior's classes do not pair with the file.
  bool resolveBodies(const SynFile &File, const PriorCode *Prior = nullptr);

  // Lookup-only twins of the declaration phases (resolveFileReusingDecls):
  // they fill RegisteredTypes / MemberMethodIds from the existing model
  // instead of extending it, and report any structural mismatch by
  // returning false. A declaration \p Prior pairs is skipped (its entries
  // stay InvalidId): it is adopted, never resolved.
  bool registerTypesReusing(const SynFile &File, const PriorCode *Prior);
  bool resolveMembersReusing(const SynFile &File, const PriorCode *Prior);

  /// Resolves a dotted type name against \p ContextNs (innermost-out), the
  /// root namespace, and the built-ins. InvalidId if not found.
  TypeId resolveTypeName(const std::vector<std::string> &Segs,
                         const std::string &ContextNs);

  /// As above, but emits a diagnostic on failure.
  TypeId requireTypeName(const std::vector<std::string> &Segs,
                         const std::string &ContextNs, SourceLoc Loc);

  bool resolveStmt(const SynStmt &S, CodeMethod &CM, ExprScope &Scope,
                   const std::string &ContextNs, TypeId ReturnType);

  // Expression resolution (body mode).
  Entity resolveEntity(const SynExpr *E, ExprScope &Scope);
  const Expr *resolveValue(const SynExpr *E, ExprScope &Scope);
  const Expr *resolveCall(const SynExpr *E, ExprScope &Scope);

  /// Chooses the best overload among \p Candidates for the given receiver
  /// type (InvalidId when no receiver value is available) and argument
  /// types, minimizing summed type distance. InvalidId when none match.
  MethodId selectOverload(const std::vector<MethodId> &Candidates,
                          TypeId ReceiverTy, const std::vector<TypeId> &ArgTys,
                          bool WantStatic);

  // Query resolution.
  const PartialExpr *resolvePartial(const SynExpr *E, ExprScope &Scope);
  const PartialExpr *resolvePartialCall(const SynExpr *E, ExprScope &Scope);

  /// All methods in the type system with the given simple name and a call
  /// signature of \p NumCallArgs parameters (receiver included).
  std::vector<MethodId> methodsByName(const std::string &Name,
                                      size_t NumCallArgs);

  ExprScope scopeFor(const QueryScope &Q) const;

  Program &P;
  TypeSystem &TS;
  ExprFactory Factory;
  DiagnosticEngine &Diags;

  /// SynFile type index -> registered TypeId for the current resolveFile.
  std::vector<TypeId> RegisteredTypes;
  /// Per type, per member index, the MethodId (InvalidId for fields).
  std::vector<std::vector<MethodId>> MemberMethodIds;

  /// resolveTypeName's scratch: the dotted name and the candidate
  /// qualified name, reused across calls.
  std::string NameBuf, QualBuf;
};

} // namespace petal

#endif // PETAL_PARSER_RESOLVER_H

//===- parser/Frontend.h - One-call parsing entry points --------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience wrappers tying the lexer, parser, and resolver together:
/// load a source buffer into a Program, resolve a parsed file over an
/// existing TypeSystem (sharing a previous version's resolved classes for
/// the declarations whose trees it shares), parse a partial-expression
/// query at a code site, and locate code sites by name.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_PARSER_FRONTEND_H
#define PETAL_PARSER_FRONTEND_H

#include "parser/Resolver.h"

#include <string_view>

namespace petal {

/// Parses and resolves \p Source into \p P (whose TypeSystem is extended).
/// Returns false and leaves diagnostics in \p Diags on error.
bool loadProgramText(std::string_view Source, Program &P,
                     DiagnosticEngine &Diags);

/// Parses \p Source, whole, to a syntax tree without resolving it. The
/// split entry point for callers that need the SynFile itself. The
/// service parses a document declaration by declaration instead
/// (DeclSpans.h) and comes here for what that cannot prove: a text that
/// does not split, or a build that failed, whose diagnostics must be a
/// whole-file parse's.
bool parseSourceFile(std::string_view Source, SynFile &File,
                     DiagnosticEngine &Diags);

/// Resolves an already-parsed file into \p P (full build: extends the
/// TypeSystem with the file's declarations).
bool resolveParsedFile(const SynFile &File, Program &P,
                       DiagnosticEngine &Diags);

/// Resolves an already-parsed file's method bodies against a TypeSystem
/// that already holds declaration-identical types (lookup-only; never
/// mutates the type system). False on any structural mismatch — the
/// caller should fall back to resolveParsedFile on a fresh Program.
/// \p Prior, the previous version of the file, lets every declaration
/// whose tree it shares keep the prior Program's class by pointer, so only
/// the declarations an edit reparsed are resolved; without it (the
/// whole-file case) every body is.
bool resolveParsedFileReusingDecls(const SynFile &File, Program &P,
                                   DiagnosticEngine &Diags,
                                   const PriorCode *Prior = nullptr);

/// Parses and resolves a partial-expression query (e.g. "?({img, size})")
/// posed at \p Scope, allocating its nodes in \p Nodes, which must
/// outlive every use of the result (and of completions built from it).
/// Returns null on error.
const PartialExpr *parseQueryText(std::string_view Query, Program &P,
                                  Arena &Nodes, const QueryScope &Scope,
                                  DiagnosticEngine &Diags);

/// As above, allocating in \p P's arena: the nodes live as long as \p P,
/// so a long-lived Program should be given an arena of its own per query.
inline const PartialExpr *parseQueryText(std::string_view Query, Program &P,
                                         const QueryScope &Scope,
                                         DiagnosticEngine &Diags) {
  return parseQueryText(Query, P, P.arena(), Scope, Diags);
}

/// Finds the CodeClass for the type named \p TypeName (simple or qualified).
const CodeClass *findCodeClass(const Program &P, const std::string &TypeName);

/// Finds the first method named \p MethodName in \p Class.
const CodeMethod *findCodeMethod(const Program &P, const CodeClass &Class,
                                 const std::string &MethodName);

/// A scope at the end of \p Method (all locals visible).
inline QueryScope scopeAtEnd(const CodeClass *Class, const CodeMethod *Method) {
  return {Class, Method, static_cast<size_t>(-1)};
}

} // namespace petal

#endif // PETAL_PARSER_FRONTEND_H

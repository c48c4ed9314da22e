//===- parser/Parser.h - Recursive-descent parser ---------------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the mini-C# surface language (namespaces, classes, interfaces,
/// structs, enums, fields, properties, methods with statement bodies) and,
/// in query mode, the partial-expression language of Fig. 5b. Produces a
/// purely syntactic tree (Syntax.h); the Resolver lowers it afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_PARSER_PARSER_H
#define PETAL_PARSER_PARSER_H

#include "parser/Lexer.h"
#include "parser/Syntax.h"
#include "support/Diagnostics.h"

#include <vector>

namespace petal {

/// Recursive-descent parser over a pre-lexed token stream.
class Parser {
public:
  Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
      : Toks(std::move(Tokens)), Diags(Diags) {}

  /// Parses a whole declaration file. Returns false if any error diagnostic
  /// was emitted (a partial tree is still produced for recovery).
  bool parseFile(SynFile &Out);

  /// Parses the stream as exactly one type declaration in namespace
  /// \p NsName: one span of DeclSpans.h. False on an error or when tokens
  /// remain after the declaration.
  bool parseSingleType(const std::string &NsName, SynFile &Out);

  /// Parses a single partial-expression query (with an optional top-level
  /// comparison or assignment). Returns null on error.
  SynExprPtr parseQuery();

private:
  // Token-stream primitives.
  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  const Token &advance() {
    const Token &T = Toks[Pos];
    if (Pos + 1 < Toks.size())
      ++Pos;
    return T;
  }
  bool at(TokKind K) const { return peek().is(K); }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokKind K, const char *What);
  void syncTo(TokKind K);

  // Declarations.
  bool parseNamespaceBody(const std::string &NsName, SynFile &Out);
  bool parseTypeDecl(const std::string &NsName, SynFile &Out);
  bool parseEnumDecl(const std::string &NsName, SynFile &Out);
  bool parseMember(SynType &Ty);
  bool parseQualifiedName(std::vector<std::string> &Segs);
  bool parseParams(std::vector<SynParam> &Params);

  // Statements.
  bool parseBlock(std::vector<SynStmt> &Body);
  bool parseStmt(std::vector<SynStmt> &Body);
  bool typedDeclAhead() const;

  // Expressions. QueryMode admits `?`, `0`-as-don't-care, `.?` suffixes and
  // `?({...})`; body mode rejects them.
  SynExprPtr parseExpr(bool QueryMode);
  SynExprPtr parsePostfix(bool QueryMode);
  SynExprPtr parsePrimary(bool QueryMode);
  bool parseCallArgs(std::vector<SynExprPtr> &Args, bool QueryMode);

  SynExprPtr makeNode(SynExprKind Kind, SourceLoc Loc) {
    auto E = std::make_unique<SynExpr>();
    E->Kind = Kind;
    E->Loc = Loc;
    return E;
  }

  std::vector<Token> Toks;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
};

} // namespace petal

#endif // PETAL_PARSER_PARSER_H

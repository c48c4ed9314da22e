//===- parser/Lexer.h - Tokenizer for the mini-C# surface ------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer shared by the declaration/code parser and the partial-expression
/// query parser. The query language needs `?` and `*` as first-class tokens
/// (`.?*m` lexes as DOT QUESTION STAR IDENT), so the lexer is deliberately
/// simple and context-free; all disambiguation happens in the parser.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_PARSER_LEXER_H
#define PETAL_PARSER_LEXER_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace petal {

/// Token kinds. Keywords are distinguished from identifiers during lexing.
enum class TokKind {
  Eof,
  Ident,
  IntLit,
  FloatLit,
  StringLit,
  // Keywords.
  KwNamespace,
  KwClass,
  KwInterface,
  KwStruct,
  KwEnum,
  KwStatic,
  KwVoid,
  KwVar,
  KwReturn,
  KwThis,
  KwTrue,
  KwFalse,
  KwNull,
  KwComparable, ///< petal extension: flags a type as supporting `<`.
  // Punctuation and operators.
  LBrace,
  RBrace,
  LParen,
  RParen,
  Comma,
  Semi,
  Dot,
  Question,
  Star,
  Colon,
  Assign, ///< `=`
  EqEq,
  NotEq,
  Lt,
  Le,
  Gt,
  Ge,
  Error,
};

/// Human-readable token-kind name for diagnostics.
const char *tokKindName(TokKind Kind);

/// The keyword kind \p Word spells, or TokKind::Ident if it is none.
TokKind keywordKind(std::string_view Word);

/// An identifier is an ASCII letter or '_' followed by letters, digits and
/// '_'.
inline bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
inline bool isIdentChar(char C) {
  return isIdentStart(C) || (C >= '0' && C <= '9');
}

/// One lexed token. Text holds the identifier/literal spelling.
struct Token {
  TokKind Kind = TokKind::Eof;
  std::string Text;
  int64_t IntValue = 0;
  double FloatValue = 0;
  SourceLoc Loc;

  bool is(TokKind K) const { return Kind == K; }
  bool isIdent(const char *S) const {
    return Kind == TokKind::Ident && Text == S;
  }
};

/// Tokenizes a whole buffer up front. `//` line and `/* */` block comments
/// are skipped. Unterminated strings/comments produce Error tokens and a
/// diagnostic.
class Lexer {
public:
  /// \p Start is the position of Source's first byte: {1, 1} for a whole
  /// buffer, or where a slice of a larger buffer begins, so that tokens
  /// carry the positions they have in the whole.
  Lexer(std::string_view Source, DiagnosticEngine &Diags,
        SourceLoc Start = {1, 1});

  /// Lexes the entire buffer; the result always ends with an Eof token.
  std::vector<Token> lexAll();

private:
  Token next();
  char peek(size_t Ahead = 0) const;
  char advance();
  bool atEnd() const { return Pos >= Source.size(); }
  SourceLoc here() const { return {Line, Col}; }
  void skipTrivia();

  std::string_view Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

} // namespace petal

#endif // PETAL_PARSER_LEXER_H

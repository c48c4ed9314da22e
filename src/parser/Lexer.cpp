//===- parser/Lexer.cpp - Tokenizer for the mini-C# surface ---------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include <algorithm>
#include <charconv>
#include <system_error>

using namespace petal;

const char *petal::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Ident:
    return "identifier";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::FloatLit:
    return "float literal";
  case TokKind::StringLit:
    return "string literal";
  case TokKind::KwNamespace:
    return "'namespace'";
  case TokKind::KwClass:
    return "'class'";
  case TokKind::KwInterface:
    return "'interface'";
  case TokKind::KwStruct:
    return "'struct'";
  case TokKind::KwEnum:
    return "'enum'";
  case TokKind::KwStatic:
    return "'static'";
  case TokKind::KwVoid:
    return "'void'";
  case TokKind::KwVar:
    return "'var'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwThis:
    return "'this'";
  case TokKind::KwTrue:
    return "'true'";
  case TokKind::KwFalse:
    return "'false'";
  case TokKind::KwNull:
    return "'null'";
  case TokKind::KwComparable:
    return "'comparable'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Dot:
    return "'.'";
  case TokKind::Question:
    return "'?'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Colon:
    return "':'";
  case TokKind::Assign:
    return "'='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Ge:
    return "'>='";
  case TokKind::Error:
    return "invalid token";
  }
  return "unknown token";
}

// A switch on the length, then a compare against the few keywords of that
// length.
TokKind petal::keywordKind(std::string_view Word) {
  switch (Word.size()) {
  case 3:
    if (Word == "var")
      return TokKind::KwVar;
    break;
  case 4:
    if (Word == "void")
      return TokKind::KwVoid;
    if (Word == "this")
      return TokKind::KwThis;
    if (Word == "true")
      return TokKind::KwTrue;
    if (Word == "null")
      return TokKind::KwNull;
    if (Word == "enum")
      return TokKind::KwEnum;
    break;
  case 5:
    if (Word == "class")
      return TokKind::KwClass;
    if (Word == "false")
      return TokKind::KwFalse;
    break;
  case 6:
    if (Word == "static")
      return TokKind::KwStatic;
    if (Word == "struct")
      return TokKind::KwStruct;
    if (Word == "return")
      return TokKind::KwReturn;
    break;
  case 9:
    if (Word == "namespace")
      return TokKind::KwNamespace;
    if (Word == "interface")
      return TokKind::KwInterface;
    break;
  case 10:
    if (Word == "comparable")
      return TokKind::KwComparable;
    break;
  }
  return TokKind::Ident;
}

static bool isDigit(char C) { return C >= '0' && C <= '9'; }

Lexer::Lexer(std::string_view Source, DiagnosticEngine &Diags, SourceLoc Start)
    : Source(Source), Diags(Diags), Line(Start.Line), Col(Start.Col) {}

char Lexer::peek(size_t Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\n' || C == '\t' || C == '\r' || C == '\v' ||
        C == '\f') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      // Up to (not past) the newline; no line break inside, so only the
      // column moves.
      size_t End = std::min(Source.find('\n', Pos), Source.size());
      Col += static_cast<unsigned>(End - Pos);
      Pos = End;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = here();
      advance();
      advance();
      bool Closed = false;
      while (!atEnd()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          Closed = true;
          break;
        }
        advance();
      }
      if (!Closed)
        Diags.error(Start, "unterminated block comment");
      continue;
    }
    return;
  }
}

Token Lexer::next() {
  skipTrivia();
  Token T;
  T.Loc = here();
  if (atEnd()) {
    T.Kind = TokKind::Eof;
    return T;
  }

  char C = advance();

  // Identifiers and keywords, sliced from the source in one piece (no
  // line break inside, so only the column moves).
  if (isIdentStart(C)) {
    size_t Begin = Pos - 1;
    while (!atEnd() && isIdentChar(Source[Pos]))
      ++Pos;
    Col += static_cast<unsigned>(Pos - Begin - 1);
    std::string_view Word = Source.substr(Begin, Pos - Begin);
    T.Kind = keywordKind(Word);
    T.Text.assign(Word);
    return T;
  }

  // Numeric literals: digits, then `.` and digits only when a digit
  // follows the dot (so `1.f` stays IntLit, Dot, Ident).
  if (isDigit(C)) {
    size_t Begin = Pos - 1;
    while (!atEnd() && isDigit(Source[Pos]))
      ++Pos;
    bool IsFloat = Pos + 1 < Source.size() && Source[Pos] == '.' &&
                   isDigit(Source[Pos + 1]);
    if (IsFloat) {
      Pos += 2;
      while (!atEnd() && isDigit(Source[Pos]))
        ++Pos;
    }
    Col += static_cast<unsigned>(Pos - Begin - 1);
    T.Text.assign(Source.substr(Begin, Pos - Begin));
    const char *First = T.Text.data(), *Last = First + T.Text.size();
    // The scan above admits only digits (and one interior dot), so the
    // only way the conversion fails is a value out of range: reported as
    // a diagnostic, never thrown.
    std::from_chars_result R =
        IsFloat ? std::from_chars(First, Last, T.FloatValue)
                : std::from_chars(First, Last, T.IntValue);
    if (R.ec != std::errc()) {
      Diags.error(T.Loc, IsFloat ? "float literal is out of range"
                                 : "integer literal is out of range");
      T.Kind = TokKind::Error;
      return T;
    }
    T.Kind = IsFloat ? TokKind::FloatLit : TokKind::IntLit;
    return T;
  }

  // String literals.
  if (C == '"') {
    std::string Text;
    bool Closed = false;
    while (!atEnd()) {
      char D = advance();
      if (D == '"') {
        Closed = true;
        break;
      }
      if (D == '\\' && !atEnd())
        D = advance();
      Text.push_back(D);
    }
    if (!Closed)
      Diags.error(T.Loc, "unterminated string literal");
    T.Kind = Closed ? TokKind::StringLit : TokKind::Error;
    T.Text = std::move(Text);
    return T;
  }

  switch (C) {
  case '{':
    T.Kind = TokKind::LBrace;
    return T;
  case '}':
    T.Kind = TokKind::RBrace;
    return T;
  case '(':
    T.Kind = TokKind::LParen;
    return T;
  case ')':
    T.Kind = TokKind::RParen;
    return T;
  case ',':
    T.Kind = TokKind::Comma;
    return T;
  case ';':
    T.Kind = TokKind::Semi;
    return T;
  case '.':
    T.Kind = TokKind::Dot;
    return T;
  case '?':
    T.Kind = TokKind::Question;
    return T;
  case '*':
    T.Kind = TokKind::Star;
    return T;
  case ':':
    T.Kind = TokKind::Colon;
    return T;
  case '=':
    if (peek() == '=') {
      advance();
      T.Kind = TokKind::EqEq;
    } else {
      T.Kind = TokKind::Assign;
    }
    return T;
  case '!':
    if (peek() == '=') {
      advance();
      T.Kind = TokKind::NotEq;
      return T;
    }
    break;
  case '<':
    if (peek() == '=') {
      advance();
      T.Kind = TokKind::Le;
    } else {
      T.Kind = TokKind::Lt;
    }
    return T;
  case '>':
    if (peek() == '=') {
      advance();
      T.Kind = TokKind::Ge;
    } else {
      T.Kind = TokKind::Gt;
    }
    return T;
  default:
    break;
  }

  Diags.error(T.Loc, std::string("unexpected character '") + C + "'");
  T.Kind = TokKind::Error;
  return T;
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  // Source text runs about four bytes per token; reserving that up front
  // saves regrowing (and moving) the vector while lexing a whole file.
  Tokens.reserve(Source.size() / 4 + 1);
  while (true) {
    Tokens.push_back(next());
    if (Tokens.back().is(TokKind::Eof))
      return Tokens;
  }
}

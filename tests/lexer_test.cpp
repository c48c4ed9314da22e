//===- tests/lexer_test.cpp - Tokenizer unit tests ------------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "parser/Lexer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>

using namespace petal;

namespace {

std::vector<Token> lex(const char *Src, DiagnosticEngine *D = nullptr) {
  DiagnosticEngine Local;
  Lexer L(Src, D ? *D : Local);
  return L.lexAll();
}

std::vector<TokKind> kinds(const char *Src) {
  std::vector<TokKind> Out;
  for (const Token &T : lex(Src))
    Out.push_back(T.Kind);
  return Out;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto Toks = lex("");
  ASSERT_EQ(Toks.size(), 1u);
  EXPECT_TRUE(Toks[0].is(TokKind::Eof));
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto Toks = lex("class Foo namespace bar_2 static var this");
  EXPECT_TRUE(Toks[0].is(TokKind::KwClass));
  EXPECT_TRUE(Toks[1].is(TokKind::Ident));
  EXPECT_EQ(Toks[1].Text, "Foo");
  EXPECT_TRUE(Toks[2].is(TokKind::KwNamespace));
  EXPECT_EQ(Toks[3].Text, "bar_2");
  EXPECT_TRUE(Toks[4].is(TokKind::KwStatic));
  EXPECT_TRUE(Toks[5].is(TokKind::KwVar));
  EXPECT_TRUE(Toks[6].is(TokKind::KwThis));
}

TEST(LexerTest, NumericLiterals) {
  auto Toks = lex("42 3.5 0");
  EXPECT_TRUE(Toks[0].is(TokKind::IntLit));
  EXPECT_EQ(Toks[0].IntValue, 42);
  EXPECT_TRUE(Toks[1].is(TokKind::FloatLit));
  EXPECT_DOUBLE_EQ(Toks[1].FloatValue, 3.5);
  EXPECT_TRUE(Toks[2].is(TokKind::IntLit));
  EXPECT_EQ(Toks[2].IntValue, 0);
}

TEST(LexerTest, DotAfterIntIsMemberAccessNotFloat) {
  // `1.ToString` style: dot not followed by a digit stays a Dot token.
  auto K = kinds("1.x");
  EXPECT_EQ(K[0], TokKind::IntLit);
  EXPECT_EQ(K[1], TokKind::Dot);
  EXPECT_EQ(K[2], TokKind::Ident);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto Toks = lex(R"("hello" "a\"b")");
  EXPECT_TRUE(Toks[0].is(TokKind::StringLit));
  EXPECT_EQ(Toks[0].Text, "hello");
  EXPECT_EQ(Toks[1].Text, "a\"b");
}

TEST(LexerTest, UnterminatedStringIsDiagnosed) {
  DiagnosticEngine D;
  lex("\"oops", &D);
  EXPECT_TRUE(D.hasErrors());
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto K = kinds("{ } ( ) , ; . ? * : = == != < <= > >=");
  std::vector<TokKind> Expected = {
      TokKind::LBrace, TokKind::RBrace, TokKind::LParen, TokKind::RParen,
      TokKind::Comma,  TokKind::Semi,   TokKind::Dot,    TokKind::Question,
      TokKind::Star,   TokKind::Colon,  TokKind::Assign, TokKind::EqEq,
      TokKind::NotEq,  TokKind::Lt,     TokKind::Le,     TokKind::Gt,
      TokKind::Ge,     TokKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(LexerTest, PartialExpressionSuffixLexesAsFourTokens) {
  // `.?*m` must lex as DOT QUESTION STAR IDENT for the query parser.
  auto K = kinds("p.?*m");
  std::vector<TokKind> Expected = {TokKind::Ident, TokKind::Dot,
                                   TokKind::Question, TokKind::Star,
                                   TokKind::Ident, TokKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto K = kinds("a // line comment\n b /* block\n comment */ c");
  std::vector<TokKind> Expected = {TokKind::Ident, TokKind::Ident,
                                   TokKind::Ident, TokKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(LexerTest, UnterminatedBlockCommentIsDiagnosed) {
  DiagnosticEngine D;
  lex("a /* never closed", &D);
  EXPECT_TRUE(D.hasErrors());
}

TEST(LexerTest, TracksLineAndColumn) {
  auto Toks = lex("a\n  b");
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[0].Loc.Col, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Col, 3u);
}

TEST(LexerTest, UnknownCharacterIsDiagnosed) {
  DiagnosticEngine D;
  auto Toks = lex("a @ b", &D);
  EXPECT_TRUE(D.hasErrors());
  // Error tokens are produced but lexing continues.
  EXPECT_EQ(Toks.back().Kind, TokKind::Eof);
}

TEST(LexerTest, OutOfRangeLiteralsAreDiagnosed) {
  // The largest int64 still lexes; one past the range of either literal
  // kind is a located diagnostic and an error token, and lexing goes on.
  auto Max = lex("9223372036854775807");
  ASSERT_TRUE(Max[0].is(TokKind::IntLit));
  EXPECT_EQ(Max[0].IntValue, INT64_MAX);

  const std::string Src = "x = 99999999999999999999;\n  y = " +
                          std::string(400, '9') + ".5;";
  DiagnosticEngine D;
  auto Toks = lex(Src.c_str(), &D);
  ASSERT_EQ(D.errorCount(), 2u);
  EXPECT_EQ(Toks[2].Kind, TokKind::Error);
  EXPECT_EQ(Toks[6].Kind, TokKind::Error);
  EXPECT_EQ(Toks.back().Kind, TokKind::Eof);
  std::ostringstream OS;
  D.print(OS);
  EXPECT_EQ(OS.str(), "1:5: error: integer literal is out of range\n"
                      "2:7: error: float literal is out of range\n");
}

TEST(LexerTest, BoolAndNullKeywords) {
  auto K = kinds("true false null comparable");
  std::vector<TokKind> Expected = {TokKind::KwTrue, TokKind::KwFalse,
                                   TokKind::KwNull, TokKind::KwComparable,
                                   TokKind::Eof};
  EXPECT_EQ(K, Expected);
}

//===----------------------------------------------------------------------===//
// The sliced scan against a character-at-a-time reference
//===----------------------------------------------------------------------===//

/// One token as the reference scan sees it, with its byte offset.
struct RefToken {
  Token Tok;
  size_t Offset = 0;
};

/// An independent reference lexer: one character at a time, keywords from
/// a table, <cctype> classes. It is how the Lexer scanned before it sliced
/// identifiers and numbers from the source in one piece and matched
/// keywords by length; the two must agree on every token and diagnostic.
std::vector<RefToken> referenceLex(std::string_view S, SourceLoc Start,
                                   DiagnosticEngine &Diags) {
  static const std::map<std::string, TokKind> Keywords = {
      {"namespace", TokKind::KwNamespace}, {"class", TokKind::KwClass},
      {"interface", TokKind::KwInterface}, {"struct", TokKind::KwStruct},
      {"enum", TokKind::KwEnum},           {"static", TokKind::KwStatic},
      {"void", TokKind::KwVoid},           {"var", TokKind::KwVar},
      {"return", TokKind::KwReturn},       {"this", TokKind::KwThis},
      {"true", TokKind::KwTrue},           {"false", TokKind::KwFalse},
      {"null", TokKind::KwNull},           {"comparable", TokKind::KwComparable}};
  static const std::map<char, TokKind> Singles = {
      {'{', TokKind::LBrace}, {'}', TokKind::RBrace}, {'(', TokKind::LParen},
      {')', TokKind::RParen}, {',', TokKind::Comma},  {';', TokKind::Semi},
      {'.', TokKind::Dot},    {'?', TokKind::Question}, {'*', TokKind::Star},
      {':', TokKind::Colon}};
  size_t Pos = 0;
  unsigned Line = Start.Line, Col = Start.Col;
  auto Peek = [&](size_t Ahead = 0) {
    return Pos + Ahead < S.size() ? S[Pos + Ahead] : '\0';
  };
  auto Advance = [&] {
    char C = S[Pos++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  };
  auto IsDigit = [](char C) {
    return std::isdigit(static_cast<unsigned char>(C)) != 0;
  };
  std::vector<RefToken> Out;
  while (true) {
    while (Pos < S.size()) {
      char C = Peek();
      if (std::isspace(static_cast<unsigned char>(C))) {
        Advance();
      } else if (C == '/' && Peek(1) == '/') {
        while (Pos < S.size() && Peek() != '\n')
          Advance();
      } else if (C == '/' && Peek(1) == '*') {
        SourceLoc At{Line, Col};
        Advance();
        Advance();
        bool Closed = false;
        while (Pos < S.size() && !Closed) {
          Closed = Peek() == '*' && Peek(1) == '/';
          if (Closed)
            Advance();
          Advance();
        }
        if (!Closed)
          Diags.error(At, "unterminated block comment");
      } else {
        break;
      }
    }
    RefToken R;
    Token &T = R.Tok;
    T.Loc = {Line, Col};
    R.Offset = Pos;
    if (Pos >= S.size()) {
      Out.push_back(R);
      return Out;
    }
    char C = Advance();
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      T.Text = C;
      while (Pos < S.size() &&
             (std::isalnum(static_cast<unsigned char>(Peek())) ||
              Peek() == '_'))
        T.Text += Advance();
      auto It = Keywords.find(T.Text);
      T.Kind = It == Keywords.end() ? TokKind::Ident : It->second;
    } else if (IsDigit(C)) {
      T.Text = C;
      while (IsDigit(Peek()))
        T.Text += Advance();
      if (Peek() == '.' && IsDigit(Peek(1))) {
        T.Text += Advance();
        while (IsDigit(Peek()))
          T.Text += Advance();
        T.Kind = TokKind::FloatLit;
        T.FloatValue = std::stod(T.Text);
      } else {
        T.Kind = TokKind::IntLit;
        T.IntValue = std::stoll(T.Text);
      }
    } else if (C == '"') {
      bool Closed = false;
      while (Pos < S.size() && !Closed) {
        char D = Advance();
        Closed = D == '"';
        if (D == '\\' && Pos < S.size())
          D = Advance();
        if (!Closed)
          T.Text += D;
      }
      if (!Closed)
        Diags.error(T.Loc, "unterminated string literal");
      T.Kind = Closed ? TokKind::StringLit : TokKind::Error;
    } else if (Singles.count(C)) {
      T.Kind = Singles.at(C);
    } else if (C == '=' || C == '<' || C == '>' ||
               (C == '!' && Peek() == '=')) {
      bool Eq = Peek() == '=';
      if (Eq)
        Advance();
      T.Kind = C == '=' ? (Eq ? TokKind::EqEq : TokKind::Assign)
               : C == '<' ? (Eq ? TokKind::Le : TokKind::Lt)
               : C == '>' ? (Eq ? TokKind::Ge : TokKind::Gt)
                          : TokKind::NotEq;
    } else {
      Diags.error(T.Loc, std::string("unexpected character '") + C + "'");
      T.Kind = TokKind::Error;
    }
    Out.push_back(R);
  }
}

std::string render(const DiagnosticEngine &D) {
  std::ostringstream OS;
  D.print(OS);
  return OS.str();
}

void expectSameTokens(const std::vector<Token> &Got,
                      const std::vector<RefToken> &Want, size_t From) {
  ASSERT_EQ(Got.size(), Want.size() - From);
  for (size_t I = 0; I != Got.size(); ++I) {
    const Token &A = Got[I], &B = Want[From + I].Tok;
    SCOPED_TRACE("token " + std::to_string(From + I) + " '" + B.Text + "'");
    ASSERT_EQ(A.Kind, B.Kind);
    ASSERT_EQ(A.Text, B.Text);
    ASSERT_EQ(A.IntValue, B.IntValue);
    ASSERT_EQ(A.FloatValue, B.FloatValue);
    ASSERT_EQ(A.Loc.Line, B.Loc.Line);
    ASSERT_EQ(A.Loc.Col, B.Loc.Col);
  }
}

TEST(LexerTest, SlicedScanMatchesCharacterReference) {
  // Mutated corpora: junk that splits and joins identifiers and numbers,
  // opens strings and comments, and adds bytes no token starts with.
  static const char Junk[] = "aZ_9.0\"\\/*\n\t {}=!<>@#\xc3";
  const std::string Base = corpora::GeometryCorpus;
  Rng R(17);
  for (int Trial = 0; Trial != 200; ++Trial) {
    std::string Src = Base;
    for (int M = static_cast<int>(R.range(0, 6)); M > 0; --M) {
      size_t Pos = R.below(Src.size());
      if (R.chance(0.3))
        Src.erase(Pos, 1);
      else
        Src.insert(Pos, 1, Junk[R.below(sizeof(Junk) - 1)]);
    }
    SCOPED_TRACE("trial " + std::to_string(Trial));
    DiagnosticEngine GotDiags, WantDiags;
    Lexer L(Src, GotDiags);
    std::vector<RefToken> Want = referenceLex(Src, {1, 1}, WantDiags);
    expectSameTokens(L.lexAll(), Want, 0);
    EXPECT_EQ(render(GotDiags), render(WantDiags));

    // Lexing from a token's offset with its position as the start yields
    // the rest of the whole text's tokens, positions included.
    size_t K = R.below(Want.size());
    DiagnosticEngine SliceDiags;
    Lexer Slice(std::string_view(Src).substr(Want[K].Offset), SliceDiags,
                Want[K].Tok.Loc);
    expectSameTokens(Slice.lexAll(), Want, K);
  }
}

} // namespace

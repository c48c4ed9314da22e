//===- parser/Parser.cpp - Recursive-descent parser -----------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

using namespace petal;

bool Parser::expect(TokKind K, const char *What) {
  if (accept(K))
    return true;
  Diags.error(peek().Loc, std::string("expected ") + tokKindName(K) +
                              " in " + What + ", found " +
                              tokKindName(peek().Kind));
  return false;
}

void Parser::syncTo(TokKind K) {
  while (!at(TokKind::Eof) && !at(K))
    advance();
  accept(K);
}

bool Parser::parseQualifiedName(std::vector<std::string> &Segs) {
  if (!at(TokKind::Ident)) {
    Diags.error(peek().Loc, "expected identifier, found " +
                                std::string(tokKindName(peek().Kind)));
    return false;
  }
  Segs.push_back(advance().Text);
  while (at(TokKind::Dot) && peek(1).is(TokKind::Ident)) {
    advance();
    Segs.push_back(advance().Text);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

bool Parser::parseFile(SynFile &Out) {
  bool Ok = true;
  while (!at(TokKind::Eof)) {
    if (accept(TokKind::KwNamespace)) {
      std::vector<std::string> Segs;
      if (!parseQualifiedName(Segs)) {
        syncTo(TokKind::RBrace);
        Ok = false;
        continue;
      }
      std::string NsName;
      for (size_t I = 0; I != Segs.size(); ++I) {
        if (I)
          NsName.push_back('.');
        NsName += Segs[I];
      }
      if (!expect(TokKind::LBrace, "namespace declaration")) {
        Ok = false;
        continue;
      }
      Ok &= parseNamespaceBody(NsName, Out);
      continue;
    }
    if (!parseTypeDecl(/*NsName=*/"", Out))
      Ok = false;
  }
  return Ok && !Diags.hasErrors();
}

bool Parser::parseSingleType(const std::string &NsName, SynFile &Out) {
  return parseTypeDecl(NsName, Out) && at(TokKind::Eof) && !Diags.hasErrors();
}

bool Parser::parseNamespaceBody(const std::string &NsName, SynFile &Out) {
  bool Ok = true;
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    if (accept(TokKind::KwNamespace)) {
      // Nested namespace: name relative to the enclosing one.
      std::vector<std::string> Segs;
      if (!parseQualifiedName(Segs) ||
          !expect(TokKind::LBrace, "namespace declaration")) {
        syncTo(TokKind::RBrace);
        Ok = false;
        continue;
      }
      std::string Inner = NsName;
      for (const std::string &S : Segs) {
        if (!Inner.empty())
          Inner.push_back('.');
        Inner += S;
      }
      Ok &= parseNamespaceBody(Inner, Out);
      continue;
    }
    if (!parseTypeDecl(NsName, Out))
      Ok = false;
  }
  expect(TokKind::RBrace, "namespace body");
  return Ok;
}

bool Parser::parseTypeDecl(const std::string &NsName, SynFile &Out) {
  bool Comparable = accept(TokKind::KwComparable);

  if (at(TokKind::KwEnum)) {
    if (Comparable)
      Diags.warning(peek().Loc, "enums are always comparable");
    return parseEnumDecl(NsName, Out);
  }

  TypeKind Kind;
  if (accept(TokKind::KwClass)) {
    Kind = TypeKind::Class;
  } else if (accept(TokKind::KwInterface)) {
    Kind = TypeKind::Interface;
  } else if (accept(TokKind::KwStruct)) {
    Kind = TypeKind::Struct;
  } else {
    Diags.error(peek().Loc, "expected a type declaration, found " +
                                std::string(tokKindName(peek().Kind)));
    advance();
    return false;
  }

  SynType Ty;
  Ty.Kind = Kind;
  Ty.Comparable = Comparable;
  Ty.NamespaceName = NsName;
  Ty.Loc = peek().Loc;
  if (!at(TokKind::Ident)) {
    Diags.error(peek().Loc, "expected type name");
    syncTo(TokKind::RBrace);
    return false;
  }
  Ty.Name = advance().Text;

  if (accept(TokKind::Colon)) {
    do {
      std::vector<std::string> Base;
      if (!parseQualifiedName(Base)) {
        syncTo(TokKind::LBrace);
        Out.Types.push_back(std::make_shared<const SynType>(std::move(Ty)));
        return false;
      }
      Ty.Bases.push_back(std::move(Base));
    } while (accept(TokKind::Comma));
  }

  if (!expect(TokKind::LBrace, "type declaration")) {
    Out.Types.push_back(std::make_shared<const SynType>(std::move(Ty)));
    return false;
  }

  bool Ok = true;
  while (!at(TokKind::RBrace) && !at(TokKind::Eof))
    if (!parseMember(Ty))
      Ok = false;
  expect(TokKind::RBrace, "type body");
  Out.Types.push_back(std::make_shared<const SynType>(std::move(Ty)));
  return Ok;
}

bool Parser::parseEnumDecl(const std::string &NsName, SynFile &Out) {
  advance(); // 'enum'
  SynType Ty;
  Ty.Kind = TypeKind::Enum;
  Ty.NamespaceName = NsName;
  Ty.Loc = peek().Loc;
  if (!at(TokKind::Ident)) {
    Diags.error(peek().Loc, "expected enum name");
    syncTo(TokKind::RBrace);
    return false;
  }
  Ty.Name = advance().Text;
  if (!expect(TokKind::LBrace, "enum declaration"))
    return false;
  while (at(TokKind::Ident)) {
    Ty.Enumerators.push_back(advance().Text);
    if (!accept(TokKind::Comma))
      break;
  }
  bool Ok = expect(TokKind::RBrace, "enum body");
  Out.Types.push_back(std::make_shared<const SynType>(std::move(Ty)));
  return Ok;
}

bool Parser::parseMember(SynType &Ty) {
  SynMember M;
  M.Loc = peek().Loc;
  M.IsStatic = accept(TokKind::KwStatic);

  if (accept(TokKind::KwVoid)) {
    M.IsVoid = true;
  } else if (!parseQualifiedName(M.TypeSegs)) {
    syncTo(TokKind::Semi);
    return false;
  }

  if (!at(TokKind::Ident)) {
    Diags.error(peek().Loc, "expected member name");
    syncTo(TokKind::Semi);
    return false;
  }
  M.Name = advance().Text;

  // Field: `T name;`
  if (accept(TokKind::Semi)) {
    if (M.IsVoid) {
      Diags.error(M.Loc, "field cannot have type void");
      return false;
    }
    M.Kind = SynMember::Field;
    Ty.Members.push_back(std::move(M));
    return true;
  }

  // Property: `T name { get; [set;] }`
  if (at(TokKind::LBrace) && peek(1).isIdent("get")) {
    if (M.IsVoid) {
      Diags.error(M.Loc, "property cannot have type void");
      syncTo(TokKind::RBrace);
      return false;
    }
    advance(); // '{'
    advance(); // 'get'
    expect(TokKind::Semi, "property accessor");
    if (peek().isIdent("set")) {
      advance();
      expect(TokKind::Semi, "property accessor");
    }
    if (!expect(TokKind::RBrace, "property declaration"))
      return false;
    M.Kind = SynMember::Property;
    Ty.Members.push_back(std::move(M));
    return true;
  }

  // Method: `T name(params);` or `T name(params) { body }`
  if (!expect(TokKind::LParen, "method declaration")) {
    syncTo(TokKind::Semi);
    return false;
  }
  M.Kind = SynMember::Method;
  if (!parseParams(M.Params)) {
    syncTo(TokKind::Semi);
    return false;
  }
  if (accept(TokKind::Semi)) {
    Ty.Members.push_back(std::move(M));
    return true;
  }
  if (!expect(TokKind::LBrace, "method body")) {
    syncTo(TokKind::Semi);
    return false;
  }
  M.HasBody = true;
  bool Ok = parseBlock(M.Body);
  Ty.Members.push_back(std::move(M));
  return Ok;
}

bool Parser::parseParams(std::vector<SynParam> &Params) {
  if (accept(TokKind::RParen))
    return true;
  do {
    SynParam P;
    P.Loc = peek().Loc;
    if (!parseQualifiedName(P.TypeSegs))
      return false;
    if (!at(TokKind::Ident)) {
      Diags.error(peek().Loc, "expected parameter name");
      return false;
    }
    P.Name = advance().Text;
    Params.push_back(std::move(P));
  } while (accept(TokKind::Comma));
  return expect(TokKind::RParen, "parameter list");
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool Parser::parseBlock(std::vector<SynStmt> &Body) {
  bool Ok = true;
  while (!at(TokKind::RBrace) && !at(TokKind::Eof))
    if (!parseStmt(Body))
      Ok = false;
  expect(TokKind::RBrace, "method body");
  return Ok;
}

bool Parser::typedDeclAhead() const {
  // A typed local declaration is `Ident (. Ident)* Ident =`.
  if (!peek().is(TokKind::Ident))
    return false;
  size_t I = 1;
  while (peek(I).is(TokKind::Dot) && peek(I + 1).is(TokKind::Ident))
    I += 2;
  return peek(I).is(TokKind::Ident) && peek(I + 1).is(TokKind::Assign);
}

bool Parser::parseStmt(std::vector<SynStmt> &Body) {
  SynStmt S;
  S.Loc = peek().Loc;

  if (accept(TokKind::KwVar)) {
    S.Kind = SynStmtKind::VarDecl;
    if (!at(TokKind::Ident)) {
      Diags.error(peek().Loc, "expected variable name after 'var'");
      syncTo(TokKind::Semi);
      return false;
    }
    S.Name = advance().Text;
    if (!expect(TokKind::Assign, "variable declaration")) {
      syncTo(TokKind::Semi);
      return false;
    }
    S.Value = parseExpr(/*QueryMode=*/false);
    if (!S.Value) {
      syncTo(TokKind::Semi);
      return false;
    }
    Body.push_back(std::move(S));
    return expect(TokKind::Semi, "variable declaration");
  }

  if (accept(TokKind::KwReturn)) {
    S.Kind = SynStmtKind::Return;
    if (!at(TokKind::Semi)) {
      S.Value = parseExpr(/*QueryMode=*/false);
      if (!S.Value) {
        syncTo(TokKind::Semi);
        return false;
      }
    }
    Body.push_back(std::move(S));
    return expect(TokKind::Semi, "return statement");
  }

  if (typedDeclAhead()) {
    S.Kind = SynStmtKind::TypedDecl;
    parseQualifiedName(S.DeclTypeSegs);
    S.Name = advance().Text;
    advance(); // '='
    S.Value = parseExpr(/*QueryMode=*/false);
    if (!S.Value) {
      syncTo(TokKind::Semi);
      return false;
    }
    Body.push_back(std::move(S));
    return expect(TokKind::Semi, "variable declaration");
  }

  S.Kind = SynStmtKind::ExprStmt;
  S.Value = parseExpr(/*QueryMode=*/false);
  if (!S.Value) {
    syncTo(TokKind::Semi);
    return false;
  }
  Body.push_back(std::move(S));
  return expect(TokKind::Semi, "statement");
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

SynExprPtr Parser::parseExpr(bool QueryMode) {
  SynExprPtr Lhs = parsePostfix(QueryMode);
  if (!Lhs)
    return nullptr;

  CompareOp Op;
  bool IsCompare = true;
  switch (peek().Kind) {
  case TokKind::Lt:
    Op = CompareOp::Lt;
    break;
  case TokKind::Le:
    Op = CompareOp::Le;
    break;
  case TokKind::Gt:
    Op = CompareOp::Gt;
    break;
  case TokKind::Ge:
    Op = CompareOp::Ge;
    break;
  case TokKind::EqEq:
    Op = CompareOp::Eq;
    break;
  case TokKind::NotEq:
    Op = CompareOp::Ne;
    break;
  case TokKind::Assign:
    IsCompare = false;
    Op = CompareOp::Lt; // unused
    break;
  default:
    return Lhs;
  }

  SourceLoc Loc = advance().Loc;
  SynExprPtr Rhs = parsePostfix(QueryMode);
  if (!Rhs)
    return nullptr;
  auto E = makeNode(IsCompare ? SynExprKind::Compare : SynExprKind::Assign,
                    Loc);
  E->CmpOp = Op;
  E->Base = std::move(Lhs);
  E->Rhs = std::move(Rhs);
  return E;
}

SynExprPtr Parser::parsePostfix(bool QueryMode) {
  SynExprPtr E = parsePrimary(QueryMode);
  if (!E)
    return nullptr;

  while (at(TokKind::Dot)) {
    SourceLoc Loc = advance().Loc;

    // `.?f`, `.?*f`, `.?m`, `.?*m`.
    if (at(TokKind::Question)) {
      if (!QueryMode) {
        Diags.error(peek().Loc,
                    "'.?' suffixes are only allowed in partial expressions");
        return nullptr;
      }
      advance(); // '?'
      bool Star = accept(TokKind::Star);
      if (!at(TokKind::Ident) ||
          (peek().Text != "f" && peek().Text != "m")) {
        Diags.error(peek().Loc, "expected 'f' or 'm' after '.?'");
        return nullptr;
      }
      bool IsField = advance().Text == "f";
      auto S = makeNode(SynExprKind::Suffix, Loc);
      S->Sfx = IsField ? (Star ? SuffixKind::FieldStar : SuffixKind::Field)
                       : (Star ? SuffixKind::MemberStar : SuffixKind::Member);
      S->Base = std::move(E);
      E = std::move(S);
      continue;
    }

    if (!at(TokKind::Ident)) {
      Diags.error(peek().Loc, "expected member name after '.'");
      return nullptr;
    }
    std::string Name = advance().Text;
    if (at(TokKind::LParen)) {
      auto C = makeNode(SynExprKind::Call, Loc);
      C->Name = std::move(Name);
      C->Base = std::move(E);
      C->HasParens = true;
      advance(); // '('
      if (!parseCallArgs(C->Args, QueryMode))
        return nullptr;
      E = std::move(C);
    } else {
      auto M = makeNode(SynExprKind::Member, Loc);
      M->Name = std::move(Name);
      M->Base = std::move(E);
      E = std::move(M);
    }
  }
  return E;
}

bool Parser::parseCallArgs(std::vector<SynExprPtr> &Args, bool QueryMode) {
  if (accept(TokKind::RParen))
    return true;
  do {
    SynExprPtr Arg = parseExpr(QueryMode);
    if (!Arg)
      return false;
    Args.push_back(std::move(Arg));
  } while (accept(TokKind::Comma));
  return expect(TokKind::RParen, "argument list");
}

SynExprPtr Parser::parsePrimary(bool QueryMode) {
  const Token &T = peek();
  switch (T.Kind) {
  case TokKind::Question: {
    if (!QueryMode) {
      Diags.error(T.Loc, "'?' is only allowed in partial expressions");
      return nullptr;
    }
    SourceLoc Loc = advance().Loc;
    // `?({e1, ..., en})` — unknown method call.
    if (at(TokKind::LParen) && peek(1).is(TokKind::LBrace)) {
      advance(); // '('
      advance(); // '{'
      auto U = makeNode(SynExprKind::UnknownCall, Loc);
      if (!at(TokKind::RBrace)) {
        do {
          SynExprPtr Arg = parseExpr(QueryMode);
          if (!Arg)
            return nullptr;
          U->Args.push_back(std::move(Arg));
        } while (accept(TokKind::Comma));
      }
      if (!expect(TokKind::RBrace, "unknown-call argument set") ||
          !expect(TokKind::RParen, "unknown-call query"))
        return nullptr;
      return U;
    }
    return makeNode(SynExprKind::Hole, Loc);
  }
  case TokKind::KwThis:
    return makeNode(SynExprKind::This, advance().Loc);
  case TokKind::IntLit: {
    auto E = makeNode(SynExprKind::IntLit, T.Loc);
    E->IntValue = advance().IntValue;
    return E;
  }
  case TokKind::FloatLit: {
    auto E = makeNode(SynExprKind::FloatLit, T.Loc);
    E->FloatValue = advance().FloatValue;
    return E;
  }
  case TokKind::KwTrue:
  case TokKind::KwFalse: {
    auto E = makeNode(SynExprKind::BoolLit, T.Loc);
    E->BoolValue = advance().Kind == TokKind::KwTrue;
    return E;
  }
  case TokKind::StringLit: {
    auto E = makeNode(SynExprKind::StringLit, T.Loc);
    E->StrValue = advance().Text;
    return E;
  }
  case TokKind::KwNull:
    return makeNode(SynExprKind::NullLit, advance().Loc);
  case TokKind::LParen: {
    advance();
    SynExprPtr Inner = parseExpr(QueryMode);
    if (!Inner)
      return nullptr;
    if (!expect(TokKind::RParen, "parenthesized expression"))
      return nullptr;
    return Inner;
  }
  case TokKind::Ident: {
    SourceLoc Loc = T.Loc;
    std::string Name = advance().Text;
    if (at(TokKind::LParen)) {
      auto C = makeNode(SynExprKind::Call, Loc);
      C->Name = std::move(Name);
      C->HasParens = true;
      advance(); // '('
      if (!parseCallArgs(C->Args, QueryMode))
        return nullptr;
      return C;
    }
    auto E = makeNode(SynExprKind::Name, Loc);
    E->Name = std::move(Name);
    return E;
  }
  default:
    Diags.error(T.Loc, "expected an expression, found " +
                           std::string(tokKindName(T.Kind)));
    return nullptr;
  }
}

SynExprPtr Parser::parseQuery() {
  SynExprPtr E = parseExpr(/*QueryMode=*/true);
  if (!E)
    return nullptr;
  if (!at(TokKind::Eof)) {
    Diags.error(peek().Loc, "unexpected trailing tokens after query");
    return nullptr;
  }
  return E;
}

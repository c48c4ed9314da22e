//===- parser/DeclSpans.cpp - Declaration-level text reuse ----------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "parser/DeclSpans.h"

#include "parser/Lexer.h"
#include "parser/Parser.h"

#include <algorithm>
#include <array>
#include <functional>

using namespace petal;

namespace {

/// The bytes the brace scan stops at inside a declaration; it skips every
/// other byte in a tight loop.
constexpr std::array<bool, 256> DeclStops = [] {
  std::array<bool, 256> Stops{};
  for (unsigned char C : {'{', '}', '"', '/'})
    Stops[C] = true;
  return Stops;
}();

/// The brace scan. Comments and string literals end where the Lexer ends
/// them, so a span's bytes lex to the same tokens on their own as inside
/// the whole text.
class Scanner {
public:
  explicit Scanner(std::string_view Text) : Text(Text) {}

  size_t pos() const { return Pos; }
  bool atEnd() const { return Pos >= Text.size(); }

  /// The line and column of offset \p At, counted as the Lexer counts them
  /// (columns in bytes). Offsets must be asked for in increasing order:
  /// lines are counted once, from the previous offset on.
  SourceLoc locOf(size_t At) {
    Line += static_cast<unsigned>(
        std::count(Text.begin() + Counted, Text.begin() + At, '\n'));
    Counted = At;
    size_t LineStart = At;
    while (LineStart > 0 && Text[LineStart - 1] != '\n')
      --LineStart;
    return {Line, static_cast<unsigned>(At - LineStart + 1)};
  }

  bool accept(char C) {
    if (atEnd() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  /// Skips whitespace and comments. False on an unterminated block
  /// comment.
  bool skipTrivia() {
    while (!atEnd()) {
      char C = Text[Pos];
      if (C == ' ' || C == '\n' || C == '\t' || C == '\r' || C == '\v' ||
          C == '\f') {
        ++Pos;
      } else if (C == '/' && next() == '/') {
        skipLineComment();
      } else if (C == '/' && next() == '*') {
        if (!skipBlockComment())
          return false;
      } else {
        return true;
      }
    }
    return true;
  }

  /// The identifier or keyword starting at the cursor, consumed; empty if
  /// none starts there.
  std::string_view word() {
    size_t Begin = Pos;
    if (!atEnd() && isIdentStart(Text[Pos]))
      while (!atEnd() && isIdentChar(Text[Pos]))
        ++Pos;
    return Text.substr(Begin, Pos - Begin);
  }

  /// Scans to one past the '}' that closes the first '{' from the cursor.
  /// False on an unbalanced brace or an unterminated comment or string.
  bool skipDecl() {
    size_t Depth = 0;
    while (true) {
      while (!atEnd() && !DeclStops[static_cast<unsigned char>(Text[Pos])])
        ++Pos;
      if (atEnd())
        return false;
      switch (Text[Pos]) {
      case '"':
        if (!skipString())
          return false;
        break;
      case '/':
        if (next() == '/')
          skipLineComment();
        else if (next() == '*') {
          if (!skipBlockComment())
            return false;
        } else
          ++Pos;
        break;
      case '{':
        ++Depth;
        ++Pos;
        break;
      default: // '}'
        if (Depth == 0)
          return false;
        ++Pos;
        if (--Depth == 0)
          return true;
        break;
      }
    }
  }

private:
  char next() const { return Pos + 1 < Text.size() ? Text[Pos + 1] : '\0'; }

  /// Up to, not past, the newline.
  void skipLineComment() {
    size_t Nl = Text.find('\n', Pos);
    Pos = Nl == std::string_view::npos ? Text.size() : Nl;
  }

  bool skipBlockComment() {
    size_t Close = Text.find("*/", Pos + 2);
    if (Close == std::string_view::npos) {
      Pos = Text.size();
      return false;
    }
    Pos = Close + 2;
    return true;
  }

  /// A backslash escapes the next byte, whatever it is.
  bool skipString() {
    for (++Pos; !atEnd(); ++Pos) {
      if (Text[Pos] == '"') {
        ++Pos;
        return true;
      }
      if (Text[Pos] == '\\' && Pos + 1 < Text.size())
        ++Pos;
    }
    return false;
  }

  std::string_view Text;
  size_t Pos = 0;
  unsigned Line = 1;
  size_t Counted = 0; ///< newlines before this offset are in Line
};

bool startsTypeDecl(TokKind K) {
  return K == TokKind::KwComparable || K == TokKind::KwClass ||
         K == TokKind::KwInterface || K == TokKind::KwStruct ||
         K == TokKind::KwEnum;
}

/// Heap bytes of \p S: its buffer, unless that is the small-string buffer
/// inside the object itself.
size_t stringBytes(const std::string &S) {
  const char *Inline = reinterpret_cast<const char *>(&S);
  std::less<const char *> Before;
  bool OnHeap =
      Before(S.data(), Inline) || !Before(S.data(), Inline + sizeof(S));
  return OnHeap ? S.capacity() + 1 : 0;
}

size_t pathBytes(const std::vector<std::string> &Path) {
  size_t Bytes = Path.capacity() * sizeof(std::string);
  for (const std::string &S : Path)
    Bytes += stringBytes(S);
  return Bytes;
}

size_t exprBytes(const SynExpr *E) {
  if (!E)
    return 0;
  size_t Bytes = sizeof(SynExpr) + stringBytes(E->Name) +
                 stringBytes(E->StrValue) + exprBytes(E->Base.get()) +
                 exprBytes(E->Rhs.get()) +
                 E->Args.capacity() * sizeof(SynExprPtr);
  for (const SynExprPtr &A : E->Args)
    Bytes += exprBytes(A.get());
  return Bytes;
}

size_t typeBytes(const SynType &T) {
  size_t Bytes = sizeof(SynType) + stringBytes(T.Name) +
                 stringBytes(T.NamespaceName) + pathBytes(T.Enumerators) +
                 T.Bases.capacity() * sizeof(T.Bases[0]) +
                 T.Members.capacity() * sizeof(SynMember);
  for (const auto &B : T.Bases)
    Bytes += pathBytes(B);
  for (const SynMember &M : T.Members) {
    Bytes += pathBytes(M.TypeSegs) + stringBytes(M.Name) +
             M.Params.capacity() * sizeof(SynParam) +
             M.Body.capacity() * sizeof(SynStmt);
    for (const SynParam &P : M.Params)
      Bytes += pathBytes(P.TypeSegs) + stringBytes(P.Name);
    for (const SynStmt &S : M.Body)
      Bytes += pathBytes(S.DeclTypeSegs) + stringBytes(S.Name) +
               exprBytes(S.Value.get());
  }
  return Bytes;
}

} // namespace

bool petal::splitDeclSpans(std::string_view Text, std::vector<DeclSpan> &Out) {
  Out.clear();
  Scanner S(Text);
  // Each open namespace's full dotted name, innermost last.
  std::vector<std::string> Namespaces;
  while (true) {
    if (!S.skipTrivia())
      return false;
    if (S.atEnd())
      return Namespaces.empty();
    if (S.accept('}')) {
      if (Namespaces.empty())
        return false;
      Namespaces.pop_back();
      continue;
    }
    size_t Begin = S.pos();
    TokKind K = keywordKind(S.word());
    if (K == TokKind::KwNamespace) {
      // `namespace A.B {`, named relative to the enclosing namespace.
      std::string Name = Namespaces.empty() ? "" : Namespaces.back();
      do {
        if (!S.skipTrivia())
          return false;
        std::string_view Seg = S.word();
        if (Seg.empty() || keywordKind(Seg) != TokKind::Ident)
          return false;
        if (!Name.empty())
          Name.push_back('.');
        Name += Seg;
        if (!S.skipTrivia())
          return false;
      } while (S.accept('.'));
      if (!S.accept('{'))
        return false;
      Namespaces.push_back(std::move(Name));
      continue;
    }
    if (!startsTypeDecl(K) || !S.skipDecl())
      return false;
    Out.push_back({Begin, S.pos(),
                   Namespaces.empty() ? "" : Namespaces.back(),
                   S.locOf(Begin)});
  }
}

size_t ParsedDecls::memoryBytes() const {
  size_t Bytes = File.Types.capacity() * sizeof(File.Types[0]) +
                 Extents.capacity() * sizeof(DeclExtent) +
                 Shape.Units.capacity() * sizeof(DeclUnit);
  for (const DeclExtent &E : Extents)
    Bytes += E.TreeBytes;
  for (const DeclUnit &U : Shape.Units)
    Bytes += stringBytes(U.QualName);
  return Bytes;
}

bool petal::parseBySpans(std::string_view Text, ParsedDecls &Out,
                         std::string_view PrevText, const ParsedDecls *Prev) {
  std::vector<DeclSpan> Spans;
  if (!splitDeclSpans(Text, Spans))
    return false;
  if (Prev && !Prev->reusable())
    Prev = nullptr;

  // Align with the previous version by the longest common prefix and
  // suffix of matching spans; only the middle is parsed.
  size_t N = Spans.size(), M = Prev ? Prev->Extents.size() : 0;
  auto Same = [&](size_t I, size_t J) {
    const DeclSpan &S = Spans[I];
    const DeclExtent &E = Prev->Extents[J];
    return S.Namespace == Prev->File.Types[J]->NamespaceName &&
           Text.substr(S.Begin, S.End - S.Begin) ==
               PrevText.substr(E.Begin, E.End - E.Begin);
  };
  size_t Head = 0;
  while (Head < N && Head < M && Same(Head, Head))
    ++Head;
  size_t Tail = 0;
  while (Head + Tail < N && Head + Tail < M &&
         Same(N - 1 - Tail, M - 1 - Tail))
    ++Tail;

  Out = ParsedDecls();
  Out.File.Types.reserve(N);
  Out.Shape.Units.reserve(N);
  Out.Extents.reserve(N);
  DiagnosticEngine Diags;
  for (size_t I = 0; I != N; ++I) {
    const DeclSpan &S = Spans[I];
    if (I < Head || I >= N - Tail) {
      size_t J = I < Head ? I : I + M - N;
      Out.File.Types.push_back(Prev->File.Types[J]);
      Out.Shape.Units.push_back(Prev->Shape.Units[J]);
      Out.Extents.push_back({S.Begin, S.End, Prev->Extents[J].TreeBytes});
      continue;
    }
    Lexer Lex(Text.substr(S.Begin, S.End - S.Begin), Diags, S.Start);
    Parser Parse(Lex.lexAll(), Diags);
    if (!Parse.parseSingleType(S.Namespace, Out.File) ||
        !Diags.diagnostics().empty())
      return false;
    const SynType &T = *Out.File.Types.back();
    Out.Shape.Units.push_back(declUnitOf(T));
    Out.Extents.push_back({S.Begin, S.End, typeBytes(T)});
    ++Out.Reparsed;
  }
  Out.Shape.combineUnits();
  return true;
}

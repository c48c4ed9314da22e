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
#include <bit>
#include <cstring>
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
  /// A scan of \p Text resuming at \p Pos, where offset \p Counted is on
  /// line \p Line.
  Scanner(std::string_view Text, size_t Pos = 0, unsigned Line = 1,
          size_t Counted = 0)
      : Text(Text), Pos(Pos), Line(Line), Counted(Counted) {}

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
  size_t Pos;
  unsigned Line;
  size_t Counted; ///< newlines before this offset are in Line
};

/// The namespaces open at a point of the scan: each one's full dotted
/// name, innermost last, and their DeclSpan::Scopes bits.
struct OpenNamespaces {
  std::vector<std::string> Names;
  uint64_t Scopes = 0;

  /// The namespaces open around \p S.
  static OpenNamespaces around(const DeclSpan &S) {
    OpenNamespaces Open;
    Open.Scopes = S.Scopes;
    unsigned Segments = 0;
    for (size_t At = 0; At <= S.Namespace.size(); ++At) {
      if (At != S.Namespace.size() && S.Namespace[At] != '.')
        continue;
      if (S.Scopes >> Segments++ & 1)
        Open.Names.push_back(S.Namespace.substr(0, At));
    }
    return Open;
  }

  const std::string &innermost() const {
    static const std::string Root;
    return Names.empty() ? Root : Names.back();
  }
  bool opens(const DeclSpan &S) const {
    return Scopes == S.Scopes && innermost() == S.Namespace;
  }
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

/// The length of the longest common run of two texts, up to \p Max bytes,
/// where \p Equal(At, Len) compares the run's bytes [At, At + Len). Whole
/// blocks are compared first, so the texts are read at memcmp speed.
template <typename EqualFn>
static size_t commonLength(size_t Max, EqualFn Equal) {
  constexpr size_t Block = 512;
  size_t Len = 0;
  while (Len + Block <= Max && Equal(Len, Block))
    Len += Block;
  while (Len < Max && Equal(Len, 1))
    ++Len;
  return Len;
}

/// splitDeclSpans, reporting also how many leading spans were kept from
/// \p Prev (\p Kept) and how many trailing ones were kept shifted
/// (\p Shifted).
static bool splitWindowed(std::string_view Text, std::vector<DeclSpan> &Out,
                          std::string_view PrevText, const ParsedDecls *Prev,
                          size_t &Kept, size_t &Shifted) {
  Out.clear();
  Kept = Shifted = 0;
  if (Prev && !Prev->reusable())
    Prev = nullptr;
  const std::vector<DeclExtent> Empty;
  const std::vector<DeclExtent> &Was = Prev ? Prev->Extents : Empty;

  // The common prefix and suffix of the two texts; without a previous
  // version both are empty and the window is the whole text.
  size_t Pre = 0, Suf = 0;
  if (Prev) {
    size_t Max = std::min(Text.size(), PrevText.size());
    Pre = commonLength(Max, [&](size_t At, size_t Len) {
      return std::memcmp(Text.data() + At, PrevText.data() + At, Len) == 0;
    });
    Suf = commonLength(Max - Pre, [&](size_t At, size_t Len) {
      return std::memcmp(Text.data() + Text.size() - At - Len,
                         PrevText.data() + PrevText.size() - At - Len,
                         Len) == 0;
    });
  }
  const size_t NewSuffix = Text.size() - Suf, OldSuffix = PrevText.size() - Suf;

  // Spans that end inside the prefix scan the same, and so does the text
  // up to the end of the last of them; resume there.
  Kept = std::partition_point(Was.begin(), Was.end(),
                              [&](const DeclExtent &E) {
                                return E.Span.End <= Pre;
                              }) -
         Was.begin();
  Out.reserve(Was.size() + 1);
  for (size_t I = 0; I != Kept; ++I)
    Out.push_back(Was[I].Span);
  OpenNamespaces Open;
  Scanner S(Text);
  if (Kept) {
    const DeclSpan &Last = Was[Kept - 1].Span;
    Open = OpenNamespaces::around(Last);
    S = Scanner(Text, Last.End, Last.Start.Line, Last.Begin);
  }

  size_t Next = Kept; // the first previous span not yet passed
  while (true) {
    if (!S.skipTrivia())
      return false;
    if (S.atEnd())
      return Open.Names.empty();
    if (S.accept('}')) {
      if (Open.Names.empty())
        return false;
      Open.Names.pop_back();
      Open.Scopes ^= std::bit_floor(Open.Scopes);
      continue;
    }
    size_t Begin = S.pos();
    if (Begin >= NewSuffix) {
      // Resynchronized: a previous span starts here in the common suffix
      // with the same namespaces open, so the rest of the scan repeats
      // the previous one, shifted.
      size_t OldBegin = Begin - NewSuffix + OldSuffix;
      while (Next != Was.size() && Was[Next].Span.Begin < OldBegin)
        ++Next;
      if (Next != Was.size() && Was[Next].Span.Begin == OldBegin &&
          Open.opens(Was[Next].Span)) {
        SourceLoc At = S.locOf(Begin);
        int Lines = static_cast<int>(At.Line) -
                    static_cast<int>(Was[Next].Span.Start.Line);
        for (size_t J = Next; J != Was.size(); ++J) {
          DeclSpan D = Was[J].Span;
          D.Begin = D.Begin - OldSuffix + NewSuffix;
          D.End = D.End - OldSuffix + NewSuffix;
          D.Start.Line = static_cast<unsigned>(D.Start.Line + Lines);
          // Unless the newline before it is in the suffix too, the line
          // may have new bytes before the span, and so a new column.
          if (Was[J].Span.Begin - (D.Start.Col - 1) <= OldSuffix) {
            size_t LineStart = D.Begin;
            while (LineStart > 0 && Text[LineStart - 1] != '\n')
              --LineStart;
            D.Start.Col = static_cast<unsigned>(D.Begin - LineStart + 1);
          }
          Out.push_back(std::move(D));
        }
        Shifted = Was.size() - Next;
        return true;
      }
    }
    TokKind K = keywordKind(S.word());
    if (K == TokKind::KwNamespace) {
      // `namespace A.B {`, named relative to the enclosing namespace.
      std::string Name = Open.innermost();
      unsigned Segments = static_cast<unsigned>(std::bit_width(Open.Scopes));
      do {
        if (!S.skipTrivia())
          return false;
        std::string_view Seg = S.word();
        if (Seg.empty() || keywordKind(Seg) != TokKind::Ident)
          return false;
        if (!Name.empty())
          Name.push_back('.');
        Name += Seg;
        ++Segments;
        if (!S.skipTrivia())
          return false;
      } while (S.accept('.'));
      if (!S.accept('{') || Segments > 63)
        return false;
      Open.Names.push_back(std::move(Name));
      Open.Scopes |= uint64_t(1) << (Segments - 1);
      continue;
    }
    if (!startsTypeDecl(K) || !S.skipDecl())
      return false;
    Out.push_back({Begin, S.pos(), Open.innermost(), Open.Scopes,
                   S.locOf(Begin)});
  }
}

bool petal::splitDeclSpans(std::string_view Text, std::vector<DeclSpan> &Out,
                           std::string_view PrevText,
                           const ParsedDecls *Prev) {
  size_t Kept, Shifted;
  return splitWindowed(Text, Out, PrevText, Prev, Kept, Shifted);
}

size_t ParsedDecls::memoryBytes() const {
  size_t Bytes = File.Types.capacity() * sizeof(File.Types[0]) +
                 Extents.capacity() * sizeof(DeclExtent) +
                 Shape.Units.capacity() * sizeof(DeclUnit);
  for (const DeclExtent &E : Extents)
    Bytes += E.TreeBytes + stringBytes(E.Span.Namespace);
  for (const DeclUnit &U : Shape.Units)
    Bytes += stringBytes(U.QualName);
  return Bytes;
}

bool petal::parseBySpans(std::string_view Text, ParsedDecls &Out,
                         std::string_view PrevText, const ParsedDecls *Prev) {
  if (Prev && !Prev->reusable())
    Prev = nullptr;
  std::vector<DeclSpan> Spans;
  size_t Kept, Shifted;
  if (!splitWindowed(Text, Spans, PrevText, Prev, Kept, Shifted))
    return false;

  // Align with the previous version by the longest common prefix and
  // suffix of matching spans; only the middle is parsed. The spans the
  // split kept match already; the rest are compared.
  size_t N = Spans.size(), M = Prev ? Prev->Extents.size() : 0;
  auto Same = [&](size_t I, size_t J) {
    const DeclSpan &S = Spans[I];
    const DeclSpan &E = Prev->Extents[J].Span;
    return S.Namespace == E.Namespace &&
           Text.substr(S.Begin, S.End - S.Begin) ==
               PrevText.substr(E.Begin, E.End - E.Begin);
  };
  size_t Head = Kept;
  while (Head < N && Head < M && Same(Head, Head))
    ++Head;
  size_t Tail = std::min(Shifted, std::min(N, M) - Head);
  while (Head + Tail < N && Head + Tail < M &&
         Same(N - 1 - Tail, M - 1 - Tail))
    ++Tail;

  Out = ParsedDecls();
  Out.File.Types.reserve(N);
  Out.Shape.Units.reserve(N);
  Out.Extents.reserve(N);
  DiagnosticEngine Diags;
  for (size_t I = 0; I != N; ++I) {
    DeclSpan &S = Spans[I];
    if (I < Head || I >= N - Tail) {
      size_t J = I < Head ? I : I + M - N;
      Out.File.Types.push_back(Prev->File.Types[J]);
      Out.Shape.Units.push_back(Prev->Shape.Units[J]);
      Out.Extents.push_back({std::move(S), Prev->Extents[J].TreeBytes});
      continue;
    }
    Lexer Lex(Text.substr(S.Begin, S.End - S.Begin), Diags, S.Start);
    Parser Parse(Lex.lexAll(), Diags);
    if (!Parse.parseSingleType(S.Namespace, Out.File) ||
        !Diags.diagnostics().empty())
      return false;
    const SynType &T = *Out.File.Types.back();
    Out.Shape.Units.push_back(declUnitOf(T));
    Out.Extents.push_back({std::move(S), typeBytes(T)});
    ++Out.Reparsed;
  }
  Out.Shape.combineUnits();
  return true;
}

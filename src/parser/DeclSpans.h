//===- parser/DeclSpans.h - Declaration-level text reuse --------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses a document one top-level type declaration at a time, so that an
/// edit lexes and parses only the declarations whose text changed.
///
/// splitDeclSpans() finds the declarations by one brace scan over the raw
/// text. It skips comments and string literals exactly as the Lexer does
/// and descends through `namespace X {` headers, and it records each
/// declaration's byte range, enclosing namespaces and start position.
/// Any text it cannot account for is refused: an unbalanced brace, an
/// unterminated comment or string, stray text between declarations, or a
/// namespace more than 63 segments deep.
///
/// Given the previous version of the text and its split, the scan is
/// windowed: the two texts are aligned by their common byte prefix and
/// suffix, the previous spans that end inside the prefix are kept, and the
/// scan resumes after the last of them. It stops as soon as it reaches the
/// start of a previous span inside the suffix with the same namespaces
/// open, because from there on the scan can only repeat the previous one:
/// the remaining previous spans are kept, shifted by the length change.
/// The result equals a split of the whole text.
///
/// parseBySpans() then parses the spans. With the previous version of the
/// document it aligns the two span lists by their common prefix and common
/// suffix. A span whose namespace and bytes equal its counterpart's reuses
/// that declaration's tree (shared by pointer) and unit hashes, and only
/// the unmatched middle is lexed and parsed, each span on its own. The
/// spans the windowed split kept match without a byte comparison. The
/// result equals a whole-file parse of the text, up to stale SourceLocs
/// in reused trees. Nothing reads those outside diagnostics, and a span
/// parse that raises any diagnostic is refused, so the caller then parses
/// the whole file and every diagnostic it reports comes from that fresh
/// parse (DESIGN.md §12).
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_PARSER_DECLSPANS_H
#define PETAL_PARSER_DECLSPANS_H

#include "parser/DeclUnits.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace petal {

/// One top-level type declaration in a source text.
struct DeclSpan {
  size_t Begin = 0;      ///< offset of its first token
  size_t End = 0;        ///< one past its closing '}'
  std::string Namespace; ///< enclosing namespace, dotted; empty at the root
  /// The namespace scopes open around it: bit I is set when the first I+1
  /// segments of Namespace are the name of one (`namespace A { namespace
  /// B.C {` opens "A" and "A.B.C", bits 0 and 2).
  uint64_t Scopes = 0;
  SourceLoc Start; ///< line and column of Begin

  bool operator==(const DeclSpan &O) const {
    return Begin == O.Begin && End == O.End && Namespace == O.Namespace &&
           Scopes == O.Scopes && Start.Line == O.Start.Line &&
           Start.Col == O.Start.Col;
  }
};

/// Where one parsed declaration sits in its document's text, and what its
/// retained tree costs.
struct DeclExtent {
  DeclSpan Span;
  size_t TreeBytes = 0; ///< approximate heap bytes of its syntax tree
};

/// One document version's declarations, kept so that its next version can
/// reuse them. File.Types[i], Shape.Units[i] and Extents[i] describe the
/// same declaration. Extents is empty when the text was parsed whole; then
/// there is nothing to reuse.
struct ParsedDecls {
  SynFile File;
  DocumentShape Shape;
  std::vector<DeclExtent> Extents;
  /// Declarations lexed and parsed for this version; the rest were reused.
  size_t Reparsed = 0;

  /// True when Extents describes every declaration of File.
  bool reusable() const {
    return Extents.size() == File.Types.size() &&
           Extents.size() == Shape.Units.size();
  }

  /// Approximate heap bytes of the retained trees and hashes, summed from
  /// the extents (no tree walk).
  size_t memoryBytes() const;
};

/// Splits \p Text into its top-level type declarations, in order. Returns
/// false when the text cannot be split provably (see the file comment).
/// \p Prev, the parse of \p PrevText, windows the scan; the spans are the
/// same with or without it.
bool splitDeclSpans(std::string_view Text, std::vector<DeclSpan> &Out,
                    std::string_view PrevText = {},
                    const ParsedDecls *Prev = nullptr);

/// Parses \p Text span by span into \p Out, reusing what it can of
/// \p Prev, the parse of \p PrevText. Returns false when the text cannot be
/// split or a span raises any diagnostic; the caller then parses the whole
/// file (parseSourceFile).
bool parseBySpans(std::string_view Text, ParsedDecls &Out,
                  std::string_view PrevText = {},
                  const ParsedDecls *Prev = nullptr);

} // namespace petal

#endif // PETAL_PARSER_DECLSPANS_H

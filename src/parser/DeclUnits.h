//===- parser/DeclUnits.h - Declaration-unit content hashing ----*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits a parsed file into its top-level declaration units (one per
/// SynType) and content-hashes each at two granularities:
///
///  * **SigHash** covers everything that feeds the *type graph*: the type's
///    kind, names, bases, enumerators, and every member signature
///    (including parameter names — they become method locals and printed
///    completions). Two files whose ordered SigHash sequences agree
///    register byte-for-byte identical TypeSystems.
///
///  * **BodyHash** covers the method bodies: a canonical walk of every
///    SynStmt/SynExpr tree. Sig + body together determine the resolved
///    code layer of the unit.
///
/// Hashing happens on the *syntax* tree, after lexing, so whitespace and
/// comments never perturb a hash — a reformat is a no-op edit by
/// construction. A unit's hashes depend on its tree alone, so an edit
/// that reuses a declaration's tree (DeclSpans.h) reuses its hashes too
/// and rehashes only the declarations it reparsed; combineUnits() then
/// rebuilds the two document hashes from the units. The ordered combination matters: TypeIds are assigned in
/// declaration order, so the type-graph fingerprint hashes the sequence,
/// not the set. The service diffs these shapes across versions to decide
/// how much of the previous DocumentState an edit can share (see
/// DESIGN.md §12, "Incremental session builds").
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_PARSER_DECLUNITS_H
#define PETAL_PARSER_DECLUNITS_H

#include "parser/Syntax.h"

#include <cstdint>
#include <string>
#include <vector>

namespace petal {

/// One top-level declaration unit: a type plus its content fingerprints.
struct DeclUnit {
  /// Qualified name ("Ns.Sub.Name"); the stable identity an entry in the
  /// result cache is scoped to.
  std::string QualName;
  uint64_t SigHash = 0;  ///< type-graph-affecting content
  uint64_t BodyHash = 0; ///< method-body content
};

/// The delta-comparable fingerprint of one document version.
struct DocumentShape {
  std::vector<DeclUnit> Units; ///< in declaration order
  /// Ordered combination of every unit's SigHash. Equal graphs ⇒ the
  /// resolver registers identical TypeSystems (same ids in the same
  /// order), which is what licenses sharing the previous version's frozen
  /// type-graph indexes.
  uint64_t TypeGraphHash = 0;
  /// Ordered combination of every unit's (SigHash, BodyHash). Equal ⇒ the
  /// two versions are token-identical modulo whitespace/comments, so even
  /// the abstract-type solution (a whole-corpus artifact) carries over.
  uint64_t CodeHash = 0;

  /// The unit with the given qualified name; null if absent.
  const DeclUnit *findUnit(const std::string &QualName) const;

  /// True when \p QualName names a unit in both shapes with equal SigHash
  /// *and* BodyHash — the unit-local inputs of a query inside that type
  /// are unchanged.
  bool unitUnchanged(const DocumentShape &Prev,
                     const std::string &QualName) const;

  /// Recomputes TypeGraphHash and CodeHash from Units. The combined hashes
  /// are a function of the unit hashes alone, so a shape assembled from
  /// reused and freshly hashed units equals the shape of a whole-file
  /// parse of the same text.
  void combineUnits();
};

/// Hashes one type declaration.
DeclUnit declUnitOf(const SynType &T);

/// Computes the shape of a parsed file.
DocumentShape shapeOfFile(const SynFile &File);

} // namespace petal

#endif // PETAL_PARSER_DECLUNITS_H

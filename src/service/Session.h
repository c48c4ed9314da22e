//===- service/Session.h - Versioned document sessions ----------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One open document in the petald service: its source text, its version,
/// and the engine-side state derived from it — a parsed Program, a frozen
/// CompletionIndexes, and a BatchExecutor that routes this document's
/// queries onto the existing parallel execution layer. A DocumentState is
/// immutable once built; an edit builds a *new* state (on a service
/// worker, never the transport thread — the session strand serializes the
/// swap against this document's queries), so a query always runs against
/// exactly one consistent version and stale versions can be rejected by
/// number.
///
/// Every build first parses the text one top-level declaration at a time
/// (parser/DeclSpans.h), reusing the previous version's syntax tree and
/// unit hashes for each declaration whose namespace and bytes are
/// unchanged, so an edit scans, lexes and parses only the declarations it
/// touched. A text that does not split cleanly, and any build that fails,
/// goes through a whole-file parse instead, so that every error reported
/// comes from a fresh parse. The parse then takes one of three routes,
/// cheapest first:
///
///  * **Overlay** (base/overlay workspace, DESIGN.md §14): when the
///    service carries a shared BaseCorpus, the document's TypeSystem,
///    indexes, and abstract-type solution are thin overlays extending the
///    base's frozen, immutable tables. Only the document's own entities
///    are parsed, resolved, indexed, and solved; the framework corpus is
///    never re-processed, and every open session reads the same base.
///  * **Incremental** (DESIGN.md §12): an edit whose type-graph
///    fingerprint matches the previous version shares that version's
///    TypeSystem and frozen type-graph tables, and builds a new code
///    layer that shares, by pointer, the previous version's resolved
///    class of every declaration whose tree the parse reused: only the
///    declarations the edit reparsed are resolved, and only their
///    classes' abstract-type constraints are harvested. Composes with
///    overlays — the shared layers may themselves be overlay layers.
///  * **Full**: everything from source, used for opens without a base and
///    as the fallback when reuse pairing fails.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_SERVICE_SESSION_H
#define PETAL_SERVICE_SESSION_H

#include "complete/BatchExecutor.h"
#include "parser/DeclSpans.h"
#include "parser/Frontend.h"
#include "snapshot/Snapshot.h"
#include "support/Json.h"

#include <array>
#include <memory>
#include <string>

namespace petal {

/// Everything derived from one (document, version) pair. Queries against a
/// DocumentState go through runCompletion() below; the service guarantees
/// at most one query per DocumentState runs at a time (sessions are
/// strands), which is what makes the per-state engine reuse safe.
struct DocumentState {
  std::string Name;
  int64_t Version = 0;
  std::string Text;

  /// How this state was built relative to the previous version (see
  /// buildDocumentState and DESIGN.md §12). The classification is exact:
  /// it records what was actually shared, not what the edit looked like.
  enum class BuildKind {
    /// Fresh TypeSystem, indexes, and abstract-type solution (open, a
    /// type-graph-affecting edit, or a reuse-pairing fallback).
    Full,
    /// The edit changed method bodies only: the TypeSystem and the frozen
    /// type-graph index tables are shared with the previous version; the
    /// code layer and the abstract-type solution were rebuilt.
    IncrementalBody,
    /// The edit was token-identical (whitespace/comments): additionally
    /// the abstract-type solution carries over.
    IncrementalNoop,
  };
  BuildKind Kind = BuildKind::Full;

  /// This version's top-level declarations (parser/DeclSpans.h): their
  /// shared, immutable syntax trees, their byte ranges in Text, and the
  /// per-unit content hashes (Parsed.Shape) that the successor's build and
  /// the result cache diff against. The next edit reuses the tree and
  /// hashes of every declaration whose namespace and bytes it leaves
  /// unchanged. A text that could not be split keeps only its shape.
  ParsedDecls Parsed;

  // Declaration order is construction order: the Program refers to the
  // TypeSystem, the indexes to the Program, the executor to both. Each
  // layer is a shared_ptr so an incremental successor can alias the
  // immutable upper layers (the TypeSystem and the frozen type-graph
  // tables) while owning its own code layer, whose unchanged classes it
  // shares with this version in turn; whichever version dies last frees
  // them, and member order still guarantees the TypeSystem outlives
  // everything that references it.
  std::shared_ptr<TypeSystem> TS;
  std::shared_ptr<Program> P;
  std::shared_ptr<CompletionIndexes> Idx;
  std::shared_ptr<BatchExecutor> Exec;

  /// The shared base layer this document overlays; null for a monolithic
  /// build. Also pinned through Idx, held here so the service can tell an
  /// overlay session apart without reaching into the indexes.
  std::shared_ptr<const BaseCorpus> Base;

  /// True when this build *should* have been an overlay but degraded to a
  /// monolithic build (base source + document source, Base left null)
  /// because the overlay path failed — the bottom rung of the degradation
  /// ladder (DESIGN.md §15). Queries answer identically (the overlay
  /// equivalence property); the next edit self-heals back to overlay.
  bool DegradedMonolithic = false;

  double BuildMillis = 0; ///< parse + index + warm-up time

  bool incremental() const { return Kind != BuildKind::Full; }
  /// True when this build reused the previous version's abstract-type
  /// solution (the third shareable component in $/stats).
  bool sharedSolution() const { return Kind == BuildKind::IncrementalNoop; }

  /// Approximate heap bytes owned by this document alone: text, shape,
  /// and the per-layer index storage. Tables shared with a base corpus or
  /// a snapshot mapping are not counted — the gap between this and a
  /// monolithic build's footprint is the point of the overlay design,
  /// surfaced per session in $/stats "memory".
  size_t memoryBytes() const;
};

/// Parses \p Text and builds the full query-ready state for it. The parse
/// reuses \p Prev's trees for unchanged declarations whatever the route
/// (see the file comment). \p Text becomes the state's Text: pass an
/// rvalue to move it in.
/// \p DocThreads sizes the per-document BatchExecutor (1 = serial).
/// Returns null on parse/resolve failure with the diagnostics rendered
/// into \p Error.
///
/// \p Prev, when non-null, is the session's previous version. If the new
/// text's type-graph fingerprint matches \p Prev's, the build goes
/// incremental: it shares Prev's TypeSystem and frozen index tables and
/// Prev's resolved class of every declaration whose tree the parse
/// reused, and resolves only the method bodies of the rest (falling back
/// to a full build if declaration pairing fails); a token-identical text
/// additionally adopts Prev's abstract-type solution. Incremental and full builds of the same
/// text produce bit-identical completions — enforced by
/// session_incremental_test's fresh-twin property test.
///
/// \p Base, when non-null, is the workspace's shared frozen framework
/// corpus: full builds go through the overlay path (the document's
/// TypeSystem, indexes, and solution extend the base's frozen tables), and
/// incremental builds of overlay documents stay overlay-aware through the
/// sharing constructor. Overlay and monolithic builds of the same
/// (base + document) source produce bit-identical completions — enforced
/// by workspace_overlay_test's fresh-twin property test. A \p Prev built
/// against a *different* base (e.g. a degraded-monolithic predecessor) is
/// ignored rather than rejected: the build runs full against \p Base,
/// which is what heals a degraded session back onto the overlay path.
///
/// \p Abort, when non-null, is polled at phase boundaries (after parse,
/// after resolve); an aborted build stops early and returns null with
/// \p Error noting the abandonment. The caller distinguishes abandonment
/// from a genuine build failure by checking the signal itself.
std::unique_ptr<DocumentState>
buildDocumentState(const std::string &Name, std::string Text,
                   int64_t Version, size_t DocThreads, std::string &Error,
                   const DocumentState *Prev = nullptr,
                   std::shared_ptr<const BaseCorpus> Base = nullptr,
                   const AbortSignal *Abort = nullptr);

/// A petal/complete request after parameter validation: where, what, and
/// the per-query knobs.
struct CompleteSpec {
  std::string Class;
  std::string Method;
  std::string Query;
  size_t N = 10;
  CompletionOptions Opts;
};

/// Extracts a CompleteSpec from JSON-RPC params. Returns false with a
/// message when a required field is missing or malformed.
bool parseCompleteSpec(const json::Value &Params, CompleteSpec &Out,
                       std::string &Error);

/// A deterministic encoding of everything in \p Spec that affects the
/// answer, used (together with document name and version) as the result
/// cache key.
std::string encodeSpecKey(const CompleteSpec &Spec);

/// Outcome of one completion query.
struct QueryOutcome {
  bool Ok = false;
  int ErrCode = 0;
  std::string ErrMsg;
  /// Array of {"expr", "score"}; with explain also {"terms", "subexpr"}.
  json::Value Completions;
  /// Engine telemetry for the query (score-ceiling hit, deepest bucket).
  CompletionEngine::QueryStats Stats;
  /// Summed per-term costs over the returned completions (all zero unless
  /// the query ran with explain). Feeds the service's $/stats aggregates.
  std::array<uint64_t, NumScoreTerms> TermTotals{};
  bool Explained = false;
  /// The resolved qualified name of the class the query ran in (the spec
  /// may have used the simple name). Scopes the result-cache entry to its
  /// declaration unit for edit-survival decisions.
  std::string ClassQualName;
};

/// Runs \p Spec against \p Doc through its BatchExecutor. The caller must
/// hold the session strand (no concurrent call on the same DocumentState).
/// The query is parsed into an arena that dies with the call, so \p Doc's
/// Program does not grow however many queries it serves.
QueryOutcome runCompletion(DocumentState &Doc, const CompleteSpec &Spec);

} // namespace petal

#endif // PETAL_SERVICE_SESSION_H

//===- service/Session.cpp - Versioned document sessions ------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "service/Session.h"

#include "code/ExprPrinter.h"
#include "complete/BaseCorpus.h"
#include "service/Protocol.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <sstream>

using namespace petal;

size_t DocumentState::memoryBytes() const {
  // The retained declaration trees are counted whole, though an edit's
  // successor shares most of them.
  size_t Bytes = Text.capacity() + Parsed.memoryBytes();
  // Each layer's memoryBytes counts only storage that layer owns: an
  // overlay TypeSystem reports its local tables (not the base's), and
  // indexes built by the sharing constructor or over adopted snapshot
  // mappings report only their fresh parts.
  if (TS)
    Bytes += TS->memoryBytes();
  if (Idx)
    Bytes += Idx->memoryBytes();
  return Bytes;
}

/// Tries the incremental path: share \p Prev's TypeSystem and frozen
/// type-graph tables, and build a new Program that shares \p Prev's
/// resolved class for every declaration whose tree \p File shares, so
/// only the declarations the edit reparsed are verified, resolved and
/// harvested for abstract types. Returns false
/// (leaving \p Doc's engine layers unset) when the existing declarations
/// don't pair up with the file — the caller then runs the full build.
/// Body-resolution *errors* also return false; the full build reproduces
/// and reports them.
static bool tryIncrementalBuild(DocumentState &Doc, const SynFile &File,
                                const DocumentState &Prev,
                                size_t DocThreads) {
  if (!Prev.TS || !Prev.Idx || !Prev.Idx->frozen() || !Prev.Exec)
    return false;
  const DocumentShape &Was = Prev.Parsed.Shape, &Now = Doc.Parsed.Shape;
  if (Was.TypeGraphHash != Now.TypeGraphHash ||
      Was.Units.size() != Now.Units.size())
    return false;

  auto P = std::make_shared<Program>(*Prev.TS);
  [[maybe_unused]] TypeSystem::Fingerprint Before = Prev.TS->fingerprint();
  DiagnosticEngine Diags;
  PriorCode Prior{Prev.Parsed.File, *Prev.P};
  if (!resolveParsedFileReusingDecls(File, *P, Diags, &Prior))
    return false;
  assert(Prev.TS->fingerprint() == Before &&
         "reuse resolution mutated the shared TypeSystem");

  Doc.TS = Prev.TS;
  Doc.P = std::move(P);
  Doc.Base = Prev.Base;
  Doc.Idx = std::make_shared<CompletionIndexes>(*Doc.P, *Prev.Idx);
  Doc.Idx->freeze(FreezeOptions{}); // no-op compile: tables are shared
  Doc.Exec = std::make_shared<BatchExecutor>(*Doc.P, *Doc.Idx, DocThreads);
  if (Now.CodeHash == Was.CodeHash) {
    // Token-identical text: the whole-corpus abstract-type solution is a
    // function of the (unchanged) method bodies, so it carries over.
    // Abstract-type variables are numbered by a deterministic structural
    // walk, which is what makes the old partition valid verbatim.
    Doc.Exec->adoptSolution(Prev.Exec->sharedSolution());
    Doc.Kind = DocumentState::BuildKind::IncrementalNoop;
  } else {
    // Bodies changed: the indexes harvested only the classes resolved
    // anew, but the solution is a whole-corpus artifact (its partition
    // depends on every constraint), so sharing it across a real body edit
    // would break bit-identity with a fresh build. Recompute it; the
    // expensive dense freeze is still skipped.
    Doc.Kind = DocumentState::BuildKind::IncrementalBody;
  }
  Doc.Exec->fullSolution();
  return true;
}

/// One full (non-incremental) build of \p Doc from the already-parsed
/// \p File: fresh TypeSystem (layered over \p Base when given), resolve,
/// index, freeze, executor, solution. Returns false with \p Error set on
/// resolution failure. Factored out so the overlay degradation path can
/// re-run it monolithically.
static bool runFullBuild(DocumentState &Doc, const SynFile &File,
                         std::shared_ptr<const BaseCorpus> Base,
                         size_t DocThreads, std::string &Error) {
  DiagnosticEngine Diags;
  // With a base corpus the "full" build is an overlay build: the
  // TypeSystem layers over the base's (document entity ids continue
  // after the base's), resolution looks the framework types up through
  // the layered symbol tables, and the overlay index constructor wires
  // each sub-index to its frozen base counterpart. Only the document's
  // own entities are processed below; the base is read, never touched.
  Doc.Base = Base;
  Doc.TS = Base ? std::make_shared<TypeSystem>(Base->TS)
                : std::make_shared<TypeSystem>();
  Doc.P = std::make_shared<Program>(*Doc.TS);
  if (!resolveParsedFile(File, *Doc.P, Diags)) {
    std::ostringstream OS;
    Diags.print(OS);
    Error = OS.str();
    if (Error.empty())
      Error = "document failed to resolve";
    return false;
  }
  Doc.Idx = Base ? std::make_shared<CompletionIndexes>(*Doc.P, Base)
                 : std::make_shared<CompletionIndexes>(*Doc.P);
  // Freeze explicitly at document build time: per-document corpora are
  // small, so the dense distance matrices always fit the default budget,
  // and every query this document serves — at any DocThreads — then runs
  // against lock-free flat tables. (The executor would freeze anyway;
  // this keeps the full freeze cost inside BuildMillis and makes the
  // dense-mode decision visible here.) Computing the shared
  // abstract-type solution moves that cost out of the first query's
  // latency too.
  FreezeOptions FO{};
  // Fault: pretend the dense budget is exhausted, exercising the lazy
  // warmed-cache fallback freeze() already supports. Only safe where the
  // lazy path is actually legal: a monolithic document on a serial
  // executor (lazy caches fill on first query, single-threaded only).
  if (!Base && DocThreads == 1 && FaultInjector::armed() &&
      FaultInjector::instance().fire(Fault::FreezeDenseBudget)) {
    FaultInjector::instance().noteRecovered(Fault::FreezeDenseBudget);
    FO.MaxDenseBytes = 0;
  }
  Doc.Idx->freeze(FO);
  Doc.Exec = std::make_shared<BatchExecutor>(*Doc.P, *Doc.Idx, DocThreads);
  Doc.Exec->fullSolution();
  return true;
}

/// Stamps \p Doc's build time, measured from \p Start.
static std::unique_ptr<DocumentState>
finishBuild(std::unique_ptr<DocumentState> Doc,
            std::chrono::steady_clock::time_point Start) {
  Doc->BuildMillis = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
  return Doc;
}

/// Everything after the parse, from \p Doc.Parsed: the incremental route
/// when \p Prev's type graph matches, else a full (overlay) build with the
/// overlay fault's monolithic fallback. Returns false with \p Error set on
/// a resolution failure or abandonment.
static bool buildFromParse(DocumentState &Doc, const DocumentState *Prev,
                           std::shared_ptr<const BaseCorpus> Base,
                           size_t DocThreads, const AbortSignal *Abort,
                           std::string &Error) {
  if (Abort && Abort->aborted()) {
    Error = "build abandoned after parse (deadline or cancellation)";
    return false;
  }

  // A previous version built against a different base — in practice a
  // degraded-monolithic predecessor (Base == null) in an overlay workspace
  // — cannot seed an incremental build. Treat it as absent: the full build
  // below runs against the *requested* base, healing the session back onto
  // the overlay path.
  if (Prev && Prev->Base != Base)
    Prev = nullptr;
  if (Prev && tryIncrementalBuild(Doc, Doc.Parsed.File, *Prev, DocThreads))
    return true;

  Doc.Kind = DocumentState::BuildKind::Full;
  bool Ok;
  try {
    // Fault: the overlay build path fails before completing. Modeled as a
    // throw out of the overlay attempt; recovery is the monolithic rebuild
    // in the catch below.
    if (Base && FaultInjector::armed() &&
        FaultInjector::instance().fire(Fault::OverlayBuild))
      throw InjectedFault("overlay build for '" + Doc.Name + "'");
    Ok = runFullBuild(Doc, Doc.Parsed.File, Base, DocThreads, Error);
  } catch (const InjectedFault &) {
    // Degradation ladder, bottom rung: rebuild monolithically from base
    // source + document source. Same completions (the overlay equivalence
    // property), higher cost, no shared tables. The next edit's Prev/Base
    // mismatch check above self-heals back to overlay.
    FaultInjector::instance().noteRecovered(Fault::OverlayBuild);
    SynFile MonoFile;
    DiagnosticEngine MonoDiags;
    std::string MonoText = Base->SourceText + "\n" + Doc.Text;
    if (!parseSourceFile(MonoText, MonoFile, MonoDiags)) {
      Error = "degraded monolithic build failed to parse";
      return false;
    }
    // The shape now covers base + document, so no declaration of it is
    // reusable text of this document.
    Doc.Parsed = ParsedDecls();
    Doc.Parsed.Shape = shapeOfFile(MonoFile);
    Ok = runFullBuild(Doc, MonoFile, nullptr, DocThreads, Error);
    Doc.DegradedMonolithic = Ok;
  }
  if (!Ok)
    return false;
  if (Abort && Abort->aborted()) {
    Error = "build abandoned after resolve (deadline or cancellation)";
    return false;
  }
  return true;
}

std::unique_ptr<DocumentState>
petal::buildDocumentState(const std::string &Name, std::string Text,
                          int64_t Version, size_t DocThreads,
                          std::string &Error, const DocumentState *Prev,
                          std::shared_ptr<const BaseCorpus> Base,
                          const AbortSignal *Abort) {
  auto Start = std::chrono::steady_clock::now();
  auto NewState = [&](std::string DocText) {
    auto Doc = std::make_unique<DocumentState>();
    Doc->Name = Name;
    Doc->Version = Version;
    Doc->Text = std::move(DocText);
    return Doc;
  };

  if (Abort && Abort->aborted()) {
    Error = "build abandoned before parse (deadline or cancellation)";
    return nullptr;
  }

  // Fault: a build that throws mid-flight. The service's per-request
  // isolation catches it, answers this request with an error, and keeps
  // the session on its previous version — that catch is the recovery.
  if (FaultInjector::armed() &&
      FaultInjector::instance().fire(Fault::BuildThrow))
    throw InjectedFault("document build for '" + Name + "'");

  // Text-level reuse (DESIGN.md §12): parse declaration by declaration,
  // sharing Prev's tree for every declaration whose namespace and bytes
  // are unchanged. A tree does not depend on the base it was resolved
  // against, so Prev's are offered whatever its base.
  std::unique_ptr<DocumentState> Doc = NewState(std::move(Text));
  std::string_view PrevText = Prev ? std::string_view(Prev->Text) : "";
  if (parseBySpans(Doc->Text, Doc->Parsed, PrevText,
                   Prev ? &Prev->Parsed : nullptr)) {
    if (buildFromParse(*Doc, Prev, Base, DocThreads, Abort, Error))
      return finishBuild(std::move(Doc), Start);
    if (Abort && Abort->aborted())
      return nullptr;
  }

  // Whatever span reuse cannot prove — a text that does not split, a span
  // raising a diagnostic, a build that fails — runs from a whole-file
  // parse, so every diagnostic an error reports comes from a fresh parse
  // with the text's own positions.
  Doc = NewState(std::move(Doc->Text));
  Error.clear();
  DiagnosticEngine Diags;
  if (!parseSourceFile(Doc->Text, Doc->Parsed.File, Diags)) {
    std::ostringstream OS;
    Diags.print(OS);
    Error = OS.str();
    if (Error.empty())
      Error = "document failed to parse";
    return nullptr;
  }
  Doc->Parsed.Shape = shapeOfFile(Doc->Parsed.File);
  if (!buildFromParse(*Doc, Prev, Base, DocThreads, Abort, Error))
    return nullptr;
  // Without spans the trees are not reusable; keep only the shape.
  Doc->Parsed.File = SynFile();
  return finishBuild(std::move(Doc), Start);
}

bool petal::parseCompleteSpec(const json::Value &Params, CompleteSpec &Out,
                              std::string &Error) {
  if (!Params.isObject()) {
    Error = "params must be an object";
    return false;
  }
  Out.Class = Params.getString("class");
  Out.Method = Params.getString("method");
  Out.Query = Params.getString("query");
  if (Out.Class.empty() || Out.Method.empty() || Out.Query.empty()) {
    Error = "petal/complete needs string params 'class', 'method', "
            "and 'query'";
    return false;
  }
  int64_t N = Params.getInt("n", 10);
  if (N < 1 || N > 1000) {
    Error = "'n' must be between 1 and 1000";
    return false;
  }
  Out.N = static_cast<size_t>(N);

  CompletionOptions &O = Out.Opts;
  if (const json::Value *Rank = Params.find("rank")) {
    if (!Rank->isString()) {
      Error = "'rank' must be a Table 2 style spec string";
      return false;
    }
    std::string SpecError;
    if (!RankingOptions::fromSpec(Rank->stringValue(), O.Rank, SpecError)) {
      Error = "invalid 'rank': " + SpecError;
      return false;
    }
  }
  // maxScore is client-controlled. The engine already clamps exploration
  // (and bucket memory) to the score ceiling, so any value above it
  // behaves identically to ScoreCeiling + 1: exploration stops at the
  // ceiling and the ceiling-hit stat may fire. Canonicalize to that one
  // representative so equivalent requests share a cache key.
  int64_t MaxScore = Params.getInt("maxScore", O.MaxScore);
  O.MaxScore = static_cast<int>(
      std::clamp<int64_t>(MaxScore, 0, int64_t(O.ScoreCeiling) + 1));
  O.MaxChainLen =
      static_cast<int>(Params.getInt("maxChainLen", O.MaxChainLen));
  O.UseAbstractTypes = Params.getBool("abstractTypes", O.UseAbstractTypes);
  O.Explain = Params.getBool("explain", false);
  return true;
}

std::string petal::encodeSpecKey(const CompleteSpec &Spec) {
  // '\x1f' (unit separator) cannot occur in identifiers or query syntax,
  // so the concatenation is unambiguous.
  std::string Key;
  Key += Spec.Class;
  Key += '\x1f';
  Key += Spec.Method;
  Key += '\x1f';
  Key += Spec.Query;
  Key += '\x1f';
  Key += std::to_string(Spec.N);
  Key += '\x1f';
  Key += Spec.Opts.Rank.spec();
  Key += '\x1f';
  Key += std::to_string(Spec.Opts.MaxScore);
  Key += '\x1f';
  Key += std::to_string(Spec.Opts.MaxChainLen);
  Key += Spec.Opts.UseAbstractTypes ? 'A' : 'a';
  Key += Spec.Opts.Explain ? 'E' : 'e';
  return Key;
}

QueryOutcome petal::runCompletion(DocumentState &Doc,
                                  const CompleteSpec &Spec) {
  QueryOutcome Out;
  const CodeClass *Class = findCodeClass(*Doc.P, Spec.Class);
  if (!Class) {
    Out.ErrCode = rpc::InvalidParams;
    Out.ErrMsg = "no class '" + Spec.Class + "' with code in document '" +
                 Doc.Name + "'";
    return Out;
  }
  const CodeMethod *Method = findCodeMethod(*Doc.P, *Class, Spec.Method);
  if (!Method) {
    Out.ErrCode = rpc::InvalidParams;
    Out.ErrMsg =
        "no method '" + Spec.Method + "' in class '" + Spec.Class + "'";
    return Out;
  }

  QueryScope Scope = scopeAtEnd(Class, Method);
  DiagnosticEngine Diags;
  // The query's nodes live until its answer is printed below, and no
  // longer: in the document's arena they would pile up for as long as
  // this version serves queries.
  Arena QueryNodes;
  const PartialExpr *Query =
      parseQueryText(Spec.Query, *Doc.P, QueryNodes, Scope, Diags);
  if (!Query) {
    std::ostringstream OS;
    Diags.print(OS);
    Out.ErrCode = rpc::InvalidParams;
    Out.ErrMsg = "query failed to parse: " + OS.str();
    return Out;
  }

  CodeSite Site{Class, Method, Scope.StmtIndex};
  BatchExecutor::BatchResult Batch =
      Doc.Exec->completeBatch({{Query, Site, Spec.N, Spec.Opts, nullptr}});

  json::Value List = json::Value::array();
  for (const Completion &C : Batch.Results.front()) {
    json::Value Item = json::Value::object();
    Item.set("expr", printExpr(*Doc.TS, C.E));
    Item.set("score", static_cast<int64_t>(C.Score));
    if (C.Card) {
      assert(C.Card->total() == C.Score &&
             "ScoreCard must decompose the ranking score exactly");
      // Keys in Table 2 letter order; all six terms always present so the
      // payload shape (and the cached bytes) are deterministic.
      json::Value Terms = json::Value::object();
      for (ScoreTerm Term : AllScoreTerms)
        Terms.set(std::string(1, scoreTermLetter(Term)),
                  static_cast<int64_t>(C.Card->term(Term)));
      Item.set("terms", std::move(Terms));
      Item.set("subexpr", static_cast<int64_t>(C.Card->Subexpr));
      for (size_t I = 0; I != NumScoreTerms; ++I)
        Out.TermTotals[I] += static_cast<uint64_t>(C.Card->Terms[I]);
    }
    List.push(std::move(Item));
  }
  Out.Ok = true;
  Out.Completions = std::move(List);
  Out.Stats = Batch.Stats.front();
  Out.Explained = Spec.Opts.Explain;
  Out.ClassQualName = Doc.TS->qualifiedName(Class->type());
  return Out;
}

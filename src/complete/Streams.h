//===- complete/Streams.h - Concrete candidate streams ----------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream classes the engine composes to realize each partial
/// expression form:
///
///   ConcreteStream     a complete expression used verbatim
///   DontCareStream     `0`
///   VarsStream         locals, parameters, `this`, and globals (the `vars`
///                      of §4.2's interpretation of `?` as `vars.?*m`)
///   SuffixStream       `.?f` / `.?*f` / `.?m` / `.?*m` frontier expansion
///   UnknownCallStream  `?({...})` over the method index
///   KnownCallStream    `name(...)` over a resolved overload set
///   BinaryStream       `ee := ee` and `ee < ee` pairing
///   MergeStream        union of streams
///
/// These are internal to the engine but exposed for white-box testing.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_COMPLETE_STREAMS_H
#define PETAL_COMPLETE_STREAMS_H

#include "code/Code.h"
#include "code/ExprFactory.h"
#include "complete/Candidate.h"
#include "index/MemberCache.h"
#include "index/MethodIndex.h"
#include "partial/PartialExpr.h"
#include "rank/Ranking.h"

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace petal {

/// Shared, per-query state threaded through all streams.
struct EngineState {
  TypeSystem *TS = nullptr;
  ExprFactory *Factory = nullptr; ///< allocates into the query arena
  const Ranker *Rank = nullptr;
  const MethodIndex *MIndex = nullptr;
  const MemberCache *Members = nullptr;
  const CodeClass *Class = nullptr;
  const CodeMethod *Method = nullptr;
  size_t StmtIndex = static_cast<size_t>(-1);
  /// Exploration cap: buckets beyond this score are never requested.
  int MaxScore = 48;
  /// Hard ceiling stamped onto every stream (CandidateStream::setCeiling):
  /// bucket storage cannot grow past it regardless of MaxScore, so a
  /// hostile or misconfigured MaxScore cannot exhaust memory. The engine
  /// clamps its own loop to min(MaxScore, ScoreCeiling).
  int ScoreCeiling = 256;
  /// Star-suffix chain-length cap. The paper's generator is unbounded; a
  /// practical engine must bound the frontier because the number of chains
  /// grows exponentially with length. Values the experiments strip are at
  /// most three lookups deep, so this does not affect measured ranks.
  int MaxChainLen = 4;
  /// Safety valve on the per-bucket expansion frontier of one star suffix.
  size_t MaxPoolPerBucket = 4096;
  /// Per-query scratch arena backing the streams' bucket storage, expansion
  /// pools, and pending heaps (see CandidateVec). Distinct from the query
  /// *result* arena (ExprFactory's): the result arena is handed to the
  /// caller with the completions, while scratch dies with the query, so
  /// batched results do not retain dead enumeration storage. Null = heap.
  Arena *Scratch = nullptr;

  /// The reach row toward \p Target over one edge set (index/MemberCache.h),
  /// computed on first use and memoized for the rest of the query, as is
  /// the reversed edge set every row over it starts from. The state is
  /// per query, so the memos need no lock; the reference stays valid for
  /// the state's lifetime.
  const std::vector<int8_t> &reachRow(TypeId Target, bool MethodsAllowed) {
    uint64_t Key = (static_cast<uint64_t>(Target) << 1) | MethodsAllowed;
    auto [It, Inserted] = ReachRows.try_emplace(Key);
    if (Inserted) {
      ReverseLookupEdges &Rev = Reversed[MethodsAllowed];
      if (Rev.Start.empty())
        Rev = reverseLookupEdges(*Members, TS->numTypes(), MethodsAllowed);
      It->second = lookupsToConvertible(*TS, Rev, Target);
    }
    return It->second;
  }

private:
  std::unordered_map<uint64_t, std::vector<int8_t>> ReachRows;
  /// Per edge set (index: MethodsAllowed), built on its first row.
  ReverseLookupEdges Reversed[2];
};

/// Builds the stream for a partial expression. \p Target, when valid,
/// restricts *emitted* candidates to those implicitly convertible to it
/// (expansion may still pass through other types) and enables star-suffix
/// pruning by reach row.
std::unique_ptr<CandidateStream>
buildStream(EngineState &ES, const PartialExpr *PE, TypeId Target = InvalidId);

/// A single complete expression, emitted at its ranking score.
class ConcreteStream : public CandidateStream {
public:
  ConcreteStream(EngineState &ES, const Expr *E, TypeId Target);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  Candidate C;
  bool Suppressed;
};

/// The `0` placeholder: one DontCareExpr at score 0.
class DontCareStream : public CandidateStream {
public:
  explicit DontCareStream(EngineState &ES);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  Candidate C;
};

/// Locals, parameters, `this`, and globals (static fields and nullary
/// static methods of every type). Locals score 0; globals pay one lookup
/// step (`Type.Member` is one dot).
class VarsStream : public CandidateStream {
public:
  explicit VarsStream(EngineState &ES);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  EngineState &ES;
  bool EmittedLocals = false;
  bool EmittedGlobals = false;
};

/// `base.?f` / `.?*f` / `.?m` / `.?*m`: emits the base candidates (any
/// suffix may complete to nothing) plus one or, for the star forms, any
/// number of lookup steps. With a Target, states that can never reach a
/// convertible type (EngineState::reachRow) are pruned.
class SuffixStream : public CandidateStream {
public:
  SuffixStream(EngineState &ES, std::unique_ptr<CandidateStream> Base,
               SuffixKind Kind, TypeId Target);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  /// Appends the single-step expansions of \p C to \p Out (score += step).
  void expand(const Candidate &C, CandidateVec &Out);
  bool emits(const Candidate &C) const;
  bool worthExpanding(const Candidate &C);

  EngineState &ES;
  std::unique_ptr<CandidateStream> Base;
  SuffixKind Kind;
  TypeId Target;
  /// The reach row toward Target for this suffix's edge set; fetched on
  /// the first expansion decision.
  const std::vector<int8_t> *Row = nullptr;
  /// Pool[S]: all chain states (emitted or not) of score S, the expansion
  /// frontier for score S + step. Arena-backed like the buckets.
  std::vector<CandidateVec> Pool;
};

/// Shared helper for composite call/binary streams: a min-heap of
/// completions discovered early (the "out of score order" buffer). The
/// heap's backing vector allocates from the query scratch arena when one
/// is supplied (default-constructed heaps use the global allocator).
class PendingHeap {
public:
  PendingHeap() = default;
  explicit PendingHeap(Arena *A)
      : Heap(std::greater<Entry>(), EntryVec(ArenaAllocator<Entry>(A))) {}

  void push(int Score, uint64_t Tie, Candidate C) {
    Heap.push({Score, Tie, std::move(C)});
  }

  /// Pops every pending candidate of score exactly \p S into \p Out.
  void drain(int S, CandidateVec &Out) {
    while (!Heap.empty() && Heap.top().Score <= S) {
      assert(Heap.top().Score == S && "pending candidate was skipped");
      Out.push_back(Heap.top().C);
      Heap.pop();
    }
  }

private:
  struct Entry {
    int Score;
    uint64_t Tie;
    Candidate C;
    bool operator>(const Entry &O) const {
      if (Score != O.Score)
        return Score > O.Score;
      return Tie > O.Tie;
    }
  };
  using EntryVec = std::vector<Entry, ArenaAllocator<Entry>>;
  std::priority_queue<Entry, EntryVec, std::greater<Entry>> Heap;
};

/// `?({e1, ..., en})`: unknown-method calls over the method index. For each
/// new combination of argument candidates, the index bucket of the
/// most-selective argument type is scanned, arguments are placed injectively
/// into call-signature positions (best-scoring placement per method), and
/// unfilled positions become `0`.
class UnknownCallStream : public CandidateStream {
public:
  UnknownCallStream(EngineState &ES,
                    std::vector<std::unique_ptr<CandidateStream>> Args,
                    TypeId Target);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  void processCombosWithSum(int Sum);
  void enumerateMethods(const std::vector<Candidate> &Combo, int ArgScore);
  void tryMethod(MethodId M, const std::vector<Candidate> &Combo,
                 int ArgScore);

  EngineState &ES;
  std::vector<std::unique_ptr<CandidateStream>> Args;
  TypeId Target;
  PendingHeap Pending;
  int CombosDone = -1; ///< all combos with sum <= this were processed
  uint64_t Seq = 0;
};

/// `name(e1, ..., en)` for one resolved method: positional matching of the
/// call-signature arguments.
class KnownCallStream : public CandidateStream {
public:
  KnownCallStream(EngineState &ES, MethodId M,
                  std::vector<std::unique_ptr<CandidateStream>> Args,
                  TypeId Target);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  void processCombosWithSum(int Sum);
  void emitCombo(const std::vector<Candidate> &Combo, int ArgScore);

  EngineState &ES;
  MethodId M;
  std::vector<std::unique_ptr<CandidateStream>> Args;
  TypeId Target;
  PendingHeap Pending;
  int CombosDone = -1;
  uint64_t Seq = 0;
};

/// `ee := ee` / `ee < ee`: pairs left and right candidates, grouped by
/// type so compatibility is checked once per type pair.
class BinaryStream : public CandidateStream {
public:
  /// \p IsCompare selects comparison semantics; otherwise assignment.
  BinaryStream(EngineState &ES, bool IsCompare, CompareOp Op,
               std::unique_ptr<CandidateStream> Lhs,
               std::unique_ptr<CandidateStream> Rhs, TypeId Target);

private:
  void fillBucket(int S, CandidateVec &Out) override;
  void crossJoin(const CandidateVec &L, const CandidateVec &R);
  void emitPair(const Candidate &L, const Candidate &R);

  EngineState &ES;
  bool IsCompare;
  CompareOp Op;
  std::unique_ptr<CandidateStream> Lhs, Rhs;
  TypeId Target;
  PendingHeap Pending;
  int DiagDone = -1;
  uint64_t Seq = 0;
};

/// Union of several streams (used for overload sets of known calls).
class MergeStream : public CandidateStream {
public:
  MergeStream(EngineState &ES,
              std::vector<std::unique_ptr<CandidateStream>> Children)
      : Children(std::move(Children)) {
    setCeiling(ES.ScoreCeiling);
    setScratch(ES.Scratch);
  }

private:
  void fillBucket(int S, CandidateVec &Out) override {
    for (auto &C : Children) {
      const auto &B = C->bucket(S);
      Out.insert(Out.end(), B.begin(), B.end());
    }
  }
  std::vector<std::unique_ptr<CandidateStream>> Children;
};

} // namespace petal

#endif // PETAL_COMPLETE_STREAMS_H

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
///   ComboStream        the composite step: one candidate per child stream,
///                      scores summing to the bucket, out-of-order results
///                      buffered (base of the next three)
///   UnknownCallStream  `?({...})` over the method index
///   KnownCallStream    `name(...)` for one method of an overload set
///   BinaryStream       `ee := ee` and `ee < ee` pairing
///   MergeStream        union of streams (an overload set's calls)
///
/// Every composite scores its completions with Ranker::scoreExpr, the one
/// scorer, so the engine's scores are the Fig. 7 specification's by
/// construction (DESIGN.md §7).
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
#include "support/Span.h"

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

  /// Work counters, summed over every composite stream of the query and
  /// reported in CompletionEngine::QueryStats.
  uint64_t CombosEnumerated = 0; ///< combinations handed to emit()
  uint64_t PendingPushed = 0;    ///< completions pushed to pending heaps

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

/// ComboStream's buffer of completions discovered early (the "out of score
/// order" buffer): a min-heap by (score, tie). The heap's backing vector
/// allocates from the query scratch arena when one is supplied
/// (default-constructed heaps use the global allocator).
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

/// The composite step of Algorithm 1, shared by every stream with child
/// streams: unknown calls, known calls, comparisons and assignments.
///
/// Bucket S of a composite is filled by visiting every combination (one
/// candidate per child) whose child scores sum to each not-yet-visited
/// Sum <= S, and handing it to emit(). The visiting order is fixed: child
/// 0's buckets ascending, the candidates of a bucket in bucket order, each
/// later child likewise over what is left, and the last child taking the
/// remainder. emit() rejects type-incorrect combinations, builds the
/// completion, scores it with Ranker::scoreExpr and push()es it. A
/// completion scores at least its children's sum (PendingHeap::drain
/// asserts it), so it may belong to a bucket above S; the pending heap
/// buffers it until that bucket is filled ("compute completions not in
/// score order", PAPER.md §1).
class ComboStream : public CandidateStream {
protected:
  ComboStream(EngineState &ES,
              std::vector<std::unique_ptr<CandidateStream>> Children);

  /// Builds and push()es the completions of one combination, or rejects
  /// it. \p Combo holds one candidate per child, in child order.
  virtual void emit(Span<const Candidate> Combo) = 0;

  /// Buffers \p C until bucket C.Score is filled. Within a bucket,
  /// completions come out in ascending \p Tie.
  void push(const Candidate &C, uint64_t Tie);

  /// This stream's push counter: the default tie, discovery order.
  uint64_t nextSeq() { return Seq++; }

  EngineState &ES;

private:
  void fillBucket(int S, CandidateVec &Out) final;
  /// Visits every combination of children I.. whose scores sum to
  /// \p Remaining, with Combo[0, I) already chosen.
  void enumerate(size_t I, int Remaining);

  std::vector<std::unique_ptr<CandidateStream>> Children;
  std::vector<Candidate> Combo; ///< the combination being visited
  PendingHeap Pending;
  int CombosDone = -1; ///< all combinations with sum <= this were visited
  uint64_t Seq = 0;
};

/// `?({e1, ..., en})`: unknown-method calls over the method index. For each
/// combination of argument candidates, the index bucket of the
/// most-selective argument type is scanned, arguments are placed injectively
/// into call-signature positions (the cheapest placement per method, by
/// type distance and abstract-type match), and unfilled positions become
/// `0`. Ties break towards fewer parameters, then by method declaration
/// order.
class UnknownCallStream : public ComboStream {
public:
  UnknownCallStream(EngineState &ES,
                    std::vector<std::unique_ptr<CandidateStream>> Args,
                    TypeId Target);

private:
  void emit(Span<const Candidate> Combo) override;
  void tryMethod(MethodId M, Span<const Candidate> Combo);
  /// Branch-and-bound over the placements of arguments I.. of \p Combo
  /// into the free positions of M's NP call positions, at cost \p Cost so
  /// far; records a strictly cheaper complete placement in BestPos.
  void searchPlacement(MethodId M, size_t NP, Span<const Candidate> Combo,
                       size_t I, int Cost);

  TypeId Target;
  /// Placement search state (tryMethod resets it per method).
  std::vector<int> PosOfArg, BestPos;
  int BestCost = -1; ///< -1: no complete placement found yet
  uint64_t UsedMask = 0;
};

/// `name(e1, ..., en)` for one resolved method: argument i fills call
/// position i. A combination is kept when every typed argument converts to
/// its parameter type (don't-cares fit anywhere).
class KnownCallStream : public ComboStream {
public:
  KnownCallStream(EngineState &ES, MethodId M,
                  std::vector<std::unique_ptr<CandidateStream>> Args,
                  TypeId Target);

private:
  void emit(Span<const Candidate> Combo) override;

  MethodId M;
  TypeId Target;
};

/// `ee := ee` / `ee < ee`: a two-child combination stream over the left and
/// right operands. Every pair is checked on its own: a comparison needs
/// comparable operand types, an assignment an l-value target and an
/// assignable source.
class BinaryStream : public ComboStream {
public:
  /// \p IsCompare selects comparison semantics; otherwise assignment.
  BinaryStream(EngineState &ES, bool IsCompare, CompareOp Op,
               std::unique_ptr<CandidateStream> Lhs,
               std::unique_ptr<CandidateStream> Rhs, TypeId Target);

private:
  void emit(Span<const Candidate> Pair) override;

  bool IsCompare;
  CompareOp Op;
  TypeId Target;
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

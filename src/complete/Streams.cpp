//===- complete/Streams.cpp - Concrete candidate streams ------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "complete/Streams.h"

#include <algorithm>
#include <functional>
#include <optional>

using namespace petal;

//===----------------------------------------------------------------------===//
// ConcreteStream
//===----------------------------------------------------------------------===//

ConcreteStream::ConcreteStream(EngineState &ES, const Expr *E, TypeId Target) {
  setCeiling(ES.ScoreCeiling);
  setScratch(ES.Scratch);
  C.E = E;
  C.Score = ES.Rank->scoreExpr(E);
  C.Type = E->type();
  Suppressed = isValidId(Target) && !isa<DontCareExpr>(E) &&
               !ES.TS->implicitlyConvertible(C.Type, Target);
}

void ConcreteStream::fillBucket(int S, CandidateVec &Out) {
  if (!Suppressed && S == C.Score)
    Out.push_back(C);
}

//===----------------------------------------------------------------------===//
// DontCareStream
//===----------------------------------------------------------------------===//

DontCareStream::DontCareStream(EngineState &ES) {
  setCeiling(ES.ScoreCeiling);
  setScratch(ES.Scratch);
  C.E = ES.Factory->dontCare();
  C.Score = 0;
  C.Type = InvalidId;
}

void DontCareStream::fillBucket(int S, CandidateVec &Out) {
  if (S == 0)
    Out.push_back(C);
}

//===----------------------------------------------------------------------===//
// VarsStream
//===----------------------------------------------------------------------===//

VarsStream::VarsStream(EngineState &ES) : ES(ES) {
  setCeiling(ES.ScoreCeiling);
  setScratch(ES.Scratch);
}

void VarsStream::fillBucket(int S, CandidateVec &Out) {
  const TypeSystem &TS = *ES.TS;
  int GlobalScore = ES.Rank->lookupStepCost(); // `Type.Member` is one dot

  if (S == 0 && !EmittedLocals) {
    EmittedLocals = true;
    if (ES.Method) {
      size_t Limit = std::min(ES.StmtIndex, ES.Method->body().size());
      for (unsigned Slot : ES.Method->localsInScopeAt(Limit)) {
        const Expr *V = ES.Factory->var(*ES.Method, Slot);
        Out.push_back({V, 0, V->type()});
      }
      if (!TS.method(ES.Method->decl()).IsStatic) {
        const Expr *This = ES.Factory->thisRef(ES.Method->owner());
        Out.push_back({This, 0, This->type()});
      }
    }
  }

  if (S == GlobalScore && !EmittedGlobals) {
    EmittedGlobals = true;
    // Globals: every static field (enum members included) and every
    // parameterless static method returning a value (§4.2).
    for (size_t F = 0; F != TS.numFields(); ++F) {
      const FieldInfo &FI = TS.field(static_cast<FieldId>(F));
      if (!FI.IsStatic)
        continue;
      const Expr *Access = ES.Factory->fieldAccess(
          ES.Factory->typeRef(FI.Owner), static_cast<FieldId>(F));
      Out.push_back({Access, GlobalScore, FI.Type});
    }
    for (size_t M = 0; M != TS.numMethods(); ++M) {
      const MethodInfo &MI = TS.method(static_cast<MethodId>(M));
      if (!MI.IsStatic || !MI.Params.empty() ||
          MI.ReturnType == TS.voidType())
        continue;
      const Expr *Call =
          ES.Factory->call(static_cast<MethodId>(M), nullptr, {});
      Out.push_back({Call, GlobalScore, MI.ReturnType});
    }
  }
}

//===----------------------------------------------------------------------===//
// SuffixStream
//===----------------------------------------------------------------------===//

SuffixStream::SuffixStream(EngineState &ES,
                           std::unique_ptr<CandidateStream> Base,
                           SuffixKind Kind, TypeId Target)
    : ES(ES), Base(std::move(Base)), Kind(Kind), Target(Target) {
  setCeiling(ES.ScoreCeiling);
  setScratch(ES.Scratch);
}

bool SuffixStream::emits(const Candidate &C) const {
  if (!isValidId(Target))
    return true;
  if (!isValidId(C.Type)) // don't-care passes any expected type
    return true;
  return ES.TS->implicitlyConvertible(C.Type, Target);
}

bool SuffixStream::worthExpanding(const Candidate &C) {
  if (!isValidId(C.Type))
    return false; // cannot look up members on a don't-care
  if (C.Depth >= ES.MaxChainLen)
    return false; // chain-length exploration bound
  if (!isValidId(Target))
    return true;
  // Reachability pruning: drop states that can never produce a value
  // convertible to the target, no matter how many lookups follow. This is
  // not only a speed-up: dead states kept out of the pool leave room under
  // MaxPoolPerBucket for live ones, so it can change which chains emit.
  if (!Row)
    Row = &ES.reachRow(Target, suffixAllowsMethods(Kind));
  return (*Row)[C.Type] >= 0;
}

void SuffixStream::expand(const Candidate &C, CandidateVec &Out) {
  int Step = ES.Rank->lookupStepCost();
  const auto Edges = ES.Members->edges(C.Type);
  size_t Limit = suffixAllowsMethods(Kind) ? Edges.size()
                                           : ES.Members->numFieldEdges(C.Type);
  for (size_t I = 0; I != Limit; ++I) {
    const LookupEdge &E = Edges[I];
    const Expr *Next = E.IsField
                           ? static_cast<const Expr *>(
                                 ES.Factory->fieldAccess(C.E, E.Field))
                           : ES.Factory->call(E.Method, C.E, {});
    Out.push_back({Next, C.Score + Step, E.ResultType, C.Depth + 1});
  }
}

void SuffixStream::fillBucket(int S, CandidateVec &Out) {
  int Step = ES.Rank->lookupStepCost();
  const CandidateVec &BaseBucket = Base->bucket(S);
  ArenaAllocator<Candidate> Alloc(scratch());

  if (Step == 0) {
    // Depth term disabled: chains no longer change the score, so bound the
    // expansion by chain length instead of by score.
    CandidateVec Frontier(Alloc);
    for (const Candidate &C : BaseBucket) {
      if (emits(C))
        Out.push_back(C);
      if (worthExpanding(C))
        Frontier.push_back(C);
    }
    int MaxLen = isStarSuffix(Kind) ? ES.MaxChainLen : 1;
    for (int Len = 0; Len != MaxLen && !Frontier.empty(); ++Len) {
      CandidateVec Next(Alloc);
      for (const Candidate &C : Frontier)
        expand(C, Next);
      Frontier.clear();
      for (const Candidate &C : Next) {
        if (emits(C))
          Out.push_back(C);
        if (worthExpanding(C))
          Frontier.push_back(C);
      }
    }
    return;
  }

  while (Pool.size() <= static_cast<size_t>(S))
    Pool.emplace_back(Alloc);

  // Base candidates: emitted as-is (a `.?` suffix may complete to nothing)
  // and pooled as chain starting points.
  for (const Candidate &C : BaseBucket) {
    if (emits(C))
      Out.push_back(C);
    if (worthExpanding(C))
      Pool[S].push_back(C);
  }

  // Lookup expansions of the frontier one step below.
  if (S - Step >= 0) {
    CandidateVec Expanded(Alloc);
    for (const Candidate &C : Pool[S - Step])
      expand(C, Expanded);
    for (const Candidate &C : Expanded) {
      if (emits(C))
        Out.push_back(C);
      if (isStarSuffix(Kind) && worthExpanding(C) &&
          Pool[S].size() < ES.MaxPoolPerBucket)
        Pool[S].push_back(C);
    }
  }
}

//===----------------------------------------------------------------------===//
// UnknownCallStream
//===----------------------------------------------------------------------===//

UnknownCallStream::UnknownCallStream(
    EngineState &ES, std::vector<std::unique_ptr<CandidateStream>> Args,
    TypeId Target)
    : ES(ES), Args(std::move(Args)), Target(Target), Pending(ES.Scratch) {
  setCeiling(ES.ScoreCeiling);
  setScratch(ES.Scratch);
}

void UnknownCallStream::fillBucket(int S, CandidateVec &Out) {
  for (int Sum = CombosDone + 1; Sum <= S; ++Sum)
    processCombosWithSum(Sum);
  CombosDone = S;
  Pending.drain(S, Out);
}

void UnknownCallStream::processCombosWithSum(int Sum) {
  if (Args.empty()) {
    if (Sum == 0)
      enumerateMethods({}, 0);
    return;
  }
  // Choose one candidate per argument such that the scores sum to Sum.
  std::vector<Candidate> Combo(Args.size());
  std::function<void(size_t, int)> Rec = [&](size_t I, int Remaining) {
    if (I + 1 == Args.size()) {
      for (const Candidate &C : Args[I]->bucket(Remaining)) {
        Combo[I] = C;
        enumerateMethods(Combo, Sum);
      }
      return;
    }
    for (int S = 0; S <= Remaining; ++S) {
      const auto &B = Args[I]->bucket(S);
      if (B.empty())
        continue;
      for (const Candidate &C : B) {
        Combo[I] = C;
        Rec(I + 1, Remaining - S);
      }
    }
  };
  Rec(0, Sum);
}

void UnknownCallStream::enumerateMethods(const std::vector<Candidate> &Combo,
                                         int ArgScore) {
  // Scan the index bucket of the most selective argument type (§4.2).
  // Don't-cares and null literals constrain nothing, so they cannot drive
  // the index choice.
  MethodCandidates Methods;
  bool Constrained = false;
  for (const Candidate &C : Combo) {
    if (!isValidId(C.Type) || C.Type == ES.TS->nullType())
      continue;
    MethodCandidates Set = ES.MIndex->candidatesForArgType(C.Type);
    if (!Constrained || Set.size() < Methods.size()) {
      Methods = Set;
      Constrained = true;
    }
  }
  if (!Constrained)
    Methods = ES.MIndex->allMethods();
  for (MethodId M : Methods)
    tryMethod(M, Combo, ArgScore);
}

void UnknownCallStream::tryMethod(MethodId M,
                                  const std::vector<Candidate> &Combo,
                                  int ArgScore) {
  const TypeSystem &TS = *ES.TS;
  const MethodInfo &MI = TS.method(M);
  size_t NP = TS.numCallParams(M);
  size_t K = Combo.size();
  if (NP < K || NP > 62)
    return;

  if (isValidId(Target)) {
    // Known expected type: filter by return type (void must match void).
    if (Target == TS.voidType()) {
      if (MI.ReturnType != TS.voidType())
        return;
    } else if (!TS.implicitlyConvertible(MI.ReturnType, Target)) {
      return;
    }
  } else if (MI.ReturnType == TS.voidType()) {
    // Void methods are still valid statement completions.
  }

  // Find the cheapest injective placement of the K argument candidates into
  // the NP call-signature positions. An instance method's receiver slot
  // (position 0) must be filled by a real argument, never by `0`.
  struct Placement {
    int Cost;
    std::vector<int> PosOfArg;
  };
  std::optional<Placement> Best;
  std::vector<int> PosOfArg(K, -1);
  uint64_t UsedMask = 0;

  std::function<void(size_t, int)> Search = [&](size_t I, int Cost) {
    if (Best && Cost >= Best->Cost)
      return; // branch-and-bound
    if (I == K) {
      if (!MI.IsStatic && !(UsedMask & 1))
        return; // receiver unfilled
      Best = Placement{Cost, PosOfArg};
      return;
    }
    const Candidate &C = Combo[I];
    for (size_t Pos = 0; Pos != NP; ++Pos) {
      if (UsedMask & (1ull << Pos))
        continue;
      int StepCost = 0;
      if (isValidId(C.Type)) {
        auto D = TS.typeDistance(C.Type, TS.callParamType(M, Pos));
        if (!D)
          continue;
        StepCost += ES.Rank->options().UseTypeDistance ? *D : 0;
        StepCost += ES.Rank->abstractArgCost(C.E, M, Pos, MI.Owner);
      }
      UsedMask |= 1ull << Pos;
      PosOfArg[I] = static_cast<int>(Pos);
      Search(I + 1, Cost + StepCost);
      UsedMask &= ~(1ull << Pos);
      PosOfArg[I] = -1;
    }
  };
  Search(0, 0);
  if (!Best)
    return;

  // Materialize the call: mapped positions take the argument expressions,
  // the rest become `0` (the paper makes no attempt to fill them, §3).
  std::vector<const Expr *> CallArgs(NP, nullptr);
  for (size_t I = 0; I != K; ++I)
    CallArgs[Best->PosOfArg[I]] = Combo[I].E;
  for (const Expr *&Slot : CallArgs)
    if (!Slot)
      Slot = ES.Factory->dontCare();

  const Expr *Receiver = nullptr;
  std::vector<const Expr *> DeclArgs;
  if (!MI.IsStatic) {
    Receiver = CallArgs[0];
    DeclArgs.assign(CallArgs.begin() + 1, CallArgs.end());
  } else {
    DeclArgs = CallArgs;
  }
  const Expr *Call = ES.Factory->call(M, Receiver, DeclArgs);

  // Score through the standalone scorer so the engine's result provably
  // matches the Fig. 7 specification (Ranker::scoreExpr). The placement
  // search above already minimized the variable part, so this evaluates the
  // same sum. (void)ArgScore documents that argument scores are subsumed.
  (void)ArgScore;
  int Score = ES.Rank->scoreExpr(Call);
  // Ties break towards fewer parameters (fewer `0` fills), then by method
  // declaration order. Deliberately NOT by index-visit order: the index BFS
  // visits nearer types first, which would smuggle a type-distance signal
  // into tie-breaking and mask the Table 2 ablation of the t term.
  uint64_t Tie = (static_cast<uint64_t>(NP) << 56) |
                 (static_cast<uint64_t>(static_cast<uint32_t>(M)) << 24) |
                 (Seq++ & 0xFFFFFF);
  Pending.push(Score, Tie, {Call, Score, MI.ReturnType});
}

//===----------------------------------------------------------------------===//
// KnownCallStream
//===----------------------------------------------------------------------===//

KnownCallStream::KnownCallStream(
    EngineState &ES, MethodId M,
    std::vector<std::unique_ptr<CandidateStream>> Args, TypeId Target)
    : ES(ES), M(M), Args(std::move(Args)), Target(Target),
      Pending(ES.Scratch) {
  setCeiling(ES.ScoreCeiling);
  setScratch(ES.Scratch);
  assert(this->Args.size() == ES.TS->numCallParams(M) &&
         "argument count must match the call signature");
}

void KnownCallStream::fillBucket(int S, CandidateVec &Out) {
  for (int Sum = CombosDone + 1; Sum <= S; ++Sum)
    processCombosWithSum(Sum);
  CombosDone = S;
  Pending.drain(S, Out);
}

void KnownCallStream::processCombosWithSum(int Sum) {
  if (Args.empty()) {
    if (Sum == 0)
      emitCombo({}, 0);
    return;
  }
  std::vector<Candidate> Combo(Args.size());
  std::function<void(size_t, int)> Rec = [&](size_t I, int Remaining) {
    if (I + 1 == Args.size()) {
      for (const Candidate &C : Args[I]->bucket(Remaining)) {
        Combo[I] = C;
        emitCombo(Combo, Sum);
      }
      return;
    }
    for (int S = 0; S <= Remaining; ++S) {
      const auto &B = Args[I]->bucket(S);
      if (B.empty())
        continue;
      for (const Candidate &C : B) {
        Combo[I] = C;
        Rec(I + 1, Remaining - S);
      }
    }
  };
  Rec(0, Sum);
}

void KnownCallStream::emitCombo(const std::vector<Candidate> &Combo,
                                int ArgScore) {
  const TypeSystem &TS = *ES.TS;
  const MethodInfo &MI = TS.method(M);

  if (isValidId(Target) && !TS.implicitlyConvertible(MI.ReturnType, Target))
    return;

  TypeId RecvTy = MI.Owner;
  if (!MI.IsStatic && !Combo.empty() && isValidId(Combo[0].Type))
    RecvTy = Combo[0].Type;

  int Extra = 0;
  for (size_t I = 0; I != Combo.size(); ++I) {
    const Candidate &C = Combo[I];
    if (!isValidId(C.Type))
      continue; // don't-care argument
    auto D = TS.typeDistance(C.Type, TS.callParamType(M, I));
    if (!D)
      return; // type-incorrect combination
    Extra += ES.Rank->options().UseTypeDistance ? *D : 0;
    Extra += ES.Rank->abstractArgCost(C.E, M, I, RecvTy);
  }

  std::vector<const Expr *> CallArgs;
  CallArgs.reserve(Combo.size());
  for (const Candidate &C : Combo)
    CallArgs.push_back(C.E);

  const Expr *Receiver = nullptr;
  std::vector<const Expr *> DeclArgs;
  if (!MI.IsStatic) {
    if (CallArgs.empty())
      return;
    Receiver = CallArgs[0];
    DeclArgs.assign(CallArgs.begin() + 1, CallArgs.end());
  } else {
    DeclArgs = CallArgs;
  }
  const Expr *Call = ES.Factory->call(M, Receiver, DeclArgs);

  (void)ArgScore;
  (void)Extra; // the combination was validated above; score via the oracle
  int Score = ES.Rank->scoreExpr(Call);
  Pending.push(Score, Seq++, {Call, Score, MI.ReturnType});
}

//===----------------------------------------------------------------------===//
// BinaryStream
//===----------------------------------------------------------------------===//

BinaryStream::BinaryStream(EngineState &ES, bool IsCompare, CompareOp Op,
                           std::unique_ptr<CandidateStream> Lhs,
                           std::unique_ptr<CandidateStream> Rhs, TypeId Target)
    : ES(ES), IsCompare(IsCompare), Op(Op), Lhs(std::move(Lhs)),
      Rhs(std::move(Rhs)), Target(Target), Pending(ES.Scratch) {
  setCeiling(ES.ScoreCeiling);
  setScratch(ES.Scratch);
}

void BinaryStream::fillBucket(int S, CandidateVec &Out) {
  for (int Diag = DiagDone + 1; Diag <= S; ++Diag)
    for (int SL = 0; SL <= Diag; ++SL)
      crossJoin(Lhs->bucket(SL), Rhs->bucket(Diag - SL));
  DiagDone = S;
  Pending.drain(S, Out);
}

void BinaryStream::crossJoin(const CandidateVec &L, const CandidateVec &R) {
  if (L.empty() || R.empty())
    return;
  for (const Candidate &CL : L)
    for (const Candidate &CR : R)
      emitPair(CL, CR);
}

void BinaryStream::emitPair(const Candidate &L, const Candidate &R) {
  const TypeSystem &TS = *ES.TS;
  bool LWild = !isValidId(L.Type);
  bool RWild = !isValidId(R.Type);

  int Extra = 0;
  if (IsCompare) {
    if (!LWild && !RWild) {
      if (!TS.comparable(L.Type, R.Type))
        return;
      Extra += ES.Rank->operandDistanceCost(L.Type, R.Type);
      Extra += ES.Rank->abstractOperandCost(L.E, R.E);
      Extra += ES.Rank->compareNameCost(L.E, R.E);
    }
  } else {
    if (!LWild && !isLValue(L.E))
      return; // assignment target must be assignable
    if (!LWild && !RWild) {
      if (!TS.assignable(L.Type, R.Type))
        return;
      Extra += ES.Rank->typeDistanceCost(R.Type, L.Type);
      Extra += ES.Rank->abstractOperandCost(L.E, R.E);
    }
  }

  Arena &A = ES.Factory->arena();
  const Expr *E;
  TypeId ResultTy;
  if (IsCompare) {
    E = A.create<CompareExpr>(Op, L.E, R.E, TS.boolType());
    ResultTy = TS.boolType();
  } else {
    E = A.create<AssignExpr>(L.E, R.E);
    ResultTy = L.Type;
  }

  if (isValidId(Target) && isValidId(ResultTy) &&
      !TS.implicitlyConvertible(ResultTy, Target))
    return;

  (void)Extra; // validated above; score via the oracle for consistency
  int Score = ES.Rank->scoreExpr(E);
  Pending.push(Score, Seq++, {E, Score, ResultTy});
}

//===----------------------------------------------------------------------===//
// buildStream
//===----------------------------------------------------------------------===//

/// Methods in the whole type system named \p Name with \p NumCallArgs
/// call-signature parameters (engine-side fallback when a KnownCallPE was
/// built programmatically without a resolved overload set).
static std::vector<MethodId> resolveByName(const TypeSystem &TS,
                                           const std::string &Name,
                                           size_t NumCallArgs) {
  std::vector<MethodId> Out;
  for (size_t M = 0; M != TS.numMethods(); ++M) {
    MethodId Id = static_cast<MethodId>(M);
    if (TS.method(Id).Name == Name && TS.numCallParams(Id) == NumCallArgs)
      Out.push_back(Id);
  }
  return Out;
}

std::unique_ptr<CandidateStream>
petal::buildStream(EngineState &ES, const PartialExpr *PE, TypeId Target) {
  switch (PE->kind()) {
  case PartialKind::Hole:
    // `?` is interpreted as vars.?*m (§4.2).
    return std::make_unique<SuffixStream>(
        ES, std::make_unique<VarsStream>(ES), SuffixKind::MemberStar, Target);

  case PartialKind::DontCare:
    return std::make_unique<DontCareStream>(ES);

  case PartialKind::Concrete:
    return std::make_unique<ConcreteStream>(
        ES, cast<ConcretePE>(PE)->expr(), Target);

  case PartialKind::Suffix: {
    const auto *S = cast<SuffixPE>(PE);
    return std::make_unique<SuffixStream>(ES, buildStream(ES, S->base()),
                                          S->suffix(), Target);
  }

  case PartialKind::UnknownCall: {
    const auto *U = cast<UnknownCallPE>(PE);
    std::vector<std::unique_ptr<CandidateStream>> Args;
    for (const PartialExpr *Arg : U->args())
      Args.push_back(buildStream(ES, Arg));
    return std::make_unique<UnknownCallStream>(ES, std::move(Args), Target);
  }

  case PartialKind::KnownCall: {
    const auto *K = cast<KnownCallPE>(PE);
    std::vector<MethodId> Methods = K->resolved();
    if (Methods.empty())
      Methods = resolveByName(*ES.TS, K->name(), K->args().size());
    std::vector<std::unique_ptr<CandidateStream>> PerMethod;
    for (MethodId M : Methods) {
      if (ES.TS->numCallParams(M) != K->args().size())
        continue;
      std::vector<std::unique_ptr<CandidateStream>> Args;
      for (size_t I = 0; I != K->args().size(); ++I)
        Args.push_back(
            buildStream(ES, K->args()[I], ES.TS->callParamType(M, I)));
      PerMethod.push_back(
          std::make_unique<KnownCallStream>(ES, M, std::move(Args), Target));
    }
    return std::make_unique<MergeStream>(ES, std::move(PerMethod));
  }

  case PartialKind::Compare: {
    const auto *C = cast<ComparePE>(PE);
    return std::make_unique<BinaryStream>(ES, /*IsCompare=*/true, C->op(),
                                          buildStream(ES, C->lhs()),
                                          buildStream(ES, C->rhs()), Target);
  }

  case PartialKind::Assign: {
    const auto *A = cast<AssignPE>(PE);
    return std::make_unique<BinaryStream>(
        ES, /*IsCompare=*/false, CompareOp::Lt, buildStream(ES, A->lhs()),
        buildStream(ES, A->rhs()), Target);
  }
  }
  return nullptr;
}

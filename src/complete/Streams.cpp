//===- complete/Streams.cpp - Concrete candidate streams ------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "complete/Streams.h"

#include <algorithm>

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
// ComboStream
//===----------------------------------------------------------------------===//

ComboStream::ComboStream(
    EngineState &ES, std::vector<std::unique_ptr<CandidateStream>> Children)
    : ES(ES), Children(std::move(Children)), Combo(this->Children.size()),
      Pending(ES.Scratch) {
  setCeiling(ES.ScoreCeiling);
  setScratch(ES.Scratch);
}

void ComboStream::push(const Candidate &C, uint64_t Tie) {
  ++ES.PendingPushed;
  Pending.push(C.Score, Tie, C);
}

void ComboStream::fillBucket(int S, CandidateVec &Out) {
  for (int Sum = CombosDone + 1; Sum <= S; ++Sum)
    enumerate(0, Sum);
  CombosDone = S;
  Pending.drain(S, Out);
}

void ComboStream::enumerate(size_t I, int Remaining) {
  if (Children.empty()) {
    // The one (empty) combination has sum 0.
    if (Remaining == 0) {
      ++ES.CombosEnumerated;
      emit(Combo);
    }
    return;
  }
  if (I + 1 == Children.size()) {
    // The last child takes the remainder.
    for (const Candidate &C : Children[I]->bucket(Remaining)) {
      Combo[I] = C;
      ++ES.CombosEnumerated;
      emit(Combo);
    }
    return;
  }
  for (int S = 0; S <= Remaining; ++S) {
    for (const Candidate &C : Children[I]->bucket(S)) {
      Combo[I] = C;
      enumerate(I + 1, Remaining - S);
    }
  }
}

//===----------------------------------------------------------------------===//
// UnknownCallStream
//===----------------------------------------------------------------------===//

/// The call of \p M whose call-signature positions hold \p CallArgs (an
/// instance method's receiver first).
static const Expr *callAt(EngineState &ES, MethodId M,
                          std::vector<const Expr *> CallArgs) {
  if (ES.TS->method(M).IsStatic)
    return ES.Factory->call(M, nullptr, std::move(CallArgs));
  const Expr *Receiver = CallArgs.front();
  CallArgs.erase(CallArgs.begin());
  return ES.Factory->call(M, Receiver, std::move(CallArgs));
}

UnknownCallStream::UnknownCallStream(
    EngineState &ES, std::vector<std::unique_ptr<CandidateStream>> Args,
    TypeId Target)
    : ComboStream(ES, std::move(Args)), Target(Target) {}

void UnknownCallStream::emit(Span<const Candidate> Combo) {
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
    tryMethod(M, Combo);
}

void UnknownCallStream::tryMethod(MethodId M, Span<const Candidate> Combo) {
  const TypeSystem &TS = *ES.TS;
  const MethodInfo &MI = TS.method(M);
  size_t NP = TS.numCallParams(M);
  size_t K = Combo.size();
  if (NP < K || NP > 62)
    return;

  // Known expected type: filter by return type (void must match void).
  // Without one, void methods are still valid statement completions.
  if (isValidId(Target)) {
    if (Target == TS.voidType()) {
      if (MI.ReturnType != TS.voidType())
        return;
    } else if (!TS.implicitlyConvertible(MI.ReturnType, Target)) {
      return;
    }
  }

  PosOfArg.assign(K, -1);
  BestCost = -1;
  UsedMask = 0;
  searchPlacement(M, NP, Combo, 0, 0);
  if (BestCost < 0)
    return;

  // Materialize the call: mapped positions take the argument expressions,
  // the rest become `0` (the paper makes no attempt to fill them, §3).
  std::vector<const Expr *> CallArgs(NP, nullptr);
  for (size_t I = 0; I != K; ++I)
    CallArgs[BestPos[I]] = Combo[I].E;
  for (const Expr *&Slot : CallArgs)
    if (!Slot)
      Slot = ES.Factory->dontCare();
  const Expr *Call = callAt(ES, M, std::move(CallArgs));

  // Ties break towards fewer parameters (fewer `0` fills), then by method
  // declaration order. Deliberately NOT by index-visit order: the index BFS
  // visits nearer types first, which would smuggle a type-distance signal
  // into tie-breaking and mask the Table 2 ablation of the t term.
  uint64_t Tie = (static_cast<uint64_t>(NP) << 56) |
                 (static_cast<uint64_t>(static_cast<uint32_t>(M)) << 24) |
                 (nextSeq() & 0xFFFFFF);
  push({Call, ES.Rank->scoreExpr(Call), MI.ReturnType}, Tie);
}

void UnknownCallStream::searchPlacement(MethodId M, size_t NP,
                                        Span<const Candidate> Combo, size_t I,
                                        int Cost) {
  if (BestCost >= 0 && Cost >= BestCost)
    return; // branch-and-bound
  const TypeSystem &TS = *ES.TS;
  const MethodInfo &MI = TS.method(M);
  if (I == Combo.size()) {
    // An instance method's receiver slot (position 0) must be filled by a
    // real argument, never by `0`.
    if (!MI.IsStatic && !(UsedMask & 1))
      return;
    BestCost = Cost;
    BestPos = PosOfArg;
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
    searchPlacement(M, NP, Combo, I + 1, Cost + StepCost);
    UsedMask &= ~(1ull << Pos);
    PosOfArg[I] = -1;
  }
}

//===----------------------------------------------------------------------===//
// KnownCallStream
//===----------------------------------------------------------------------===//

KnownCallStream::KnownCallStream(
    EngineState &ES, MethodId M,
    std::vector<std::unique_ptr<CandidateStream>> Args, TypeId Target)
    : ComboStream(ES, std::move(Args)), M(M), Target(Target) {}

void KnownCallStream::emit(Span<const Candidate> Combo) {
  const TypeSystem &TS = *ES.TS;
  const MethodInfo &MI = TS.method(M);
  assert(Combo.size() == TS.numCallParams(M) &&
         "argument count must match the call signature");

  if (isValidId(Target) && !TS.implicitlyConvertible(MI.ReturnType, Target))
    return;
  for (size_t I = 0; I != Combo.size(); ++I)
    if (isValidId(Combo[I].Type) && // don't-cares fit any position
        !TS.typeDistance(Combo[I].Type, TS.callParamType(M, I)))
      return; // type-incorrect combination

  if (!MI.IsStatic && Combo.empty())
    return; // an instance call needs a receiver

  std::vector<const Expr *> CallArgs;
  CallArgs.reserve(Combo.size());
  for (const Candidate &C : Combo)
    CallArgs.push_back(C.E);
  const Expr *Call = callAt(ES, M, std::move(CallArgs));
  push({Call, ES.Rank->scoreExpr(Call), MI.ReturnType}, nextSeq());
}

//===----------------------------------------------------------------------===//
// BinaryStream
//===----------------------------------------------------------------------===//

static std::vector<std::unique_ptr<CandidateStream>>
operands(std::unique_ptr<CandidateStream> Lhs,
         std::unique_ptr<CandidateStream> Rhs) {
  std::vector<std::unique_ptr<CandidateStream>> Out;
  Out.push_back(std::move(Lhs));
  Out.push_back(std::move(Rhs));
  return Out;
}

BinaryStream::BinaryStream(EngineState &ES, bool IsCompare, CompareOp Op,
                           std::unique_ptr<CandidateStream> Lhs,
                           std::unique_ptr<CandidateStream> Rhs, TypeId Target)
    : ComboStream(ES, operands(std::move(Lhs), std::move(Rhs))),
      IsCompare(IsCompare), Op(Op), Target(Target) {}

void BinaryStream::emit(Span<const Candidate> Pair) {
  const TypeSystem &TS = *ES.TS;
  const Candidate &L = Pair[0], &R = Pair[1];
  bool BothTyped = isValidId(L.Type) && isValidId(R.Type);
  if (IsCompare) {
    if (BothTyped && !TS.comparable(L.Type, R.Type))
      return;
  } else {
    if (isValidId(L.Type) && !isLValue(L.E))
      return; // assignment target must be assignable
    if (BothTyped && !TS.assignable(L.Type, R.Type))
      return;
  }

  TypeId ResultTy = IsCompare ? TS.boolType() : L.Type;
  if (isValidId(Target) && isValidId(ResultTy) &&
      !TS.implicitlyConvertible(ResultTy, Target))
    return;

  Arena &A = ES.Factory->arena();
  const Expr *E =
      IsCompare
          ? static_cast<const Expr *>(
                A.create<CompareExpr>(Op, L.E, R.E, TS.boolType()))
          : A.create<AssignExpr>(L.E, R.E);
  push({E, ES.Rank->scoreExpr(E), ResultTy}, nextSeq());
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

//===- infer/AbstractTypes.cpp - Usage-based abstract type inference ------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "infer/AbstractTypes.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace petal;

bool AbsTypeSolution::sameAbstractType(uint32_t A, uint32_t B) const {
  if (A == AbstractTypeInference::NoVar || B == AbstractTypeInference::NoVar)
    return false;
  if (A >= UF.size() || B >= UF.size())
    return false;
  return UF.connected(A, B);
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

AbstractTypeInference::AbstractTypeInference(const Program &P,
                                             const AbstractTypeInference *Prev)
    : P(P), TS(P.typeSystem()) {
  build(Prev);
}

AbstractTypeInference::AbstractTypeInference(
    const Program &P, std::shared_ptr<const AbstractTypeInference> BaseInferIn,
    std::shared_ptr<const AbsTypeSolution> BaseSolutionIn,
    const AbstractTypeInference *Prev)
    : P(P), TS(P.typeSystem()), BaseInfer(std::move(BaseInferIn)),
      BaseSolution(std::move(BaseSolutionIn)),
      NumBaseMethods(TS.numBaseMethods()), NumBaseFields(TS.numBaseFields()),
      NumVars(static_cast<uint32_t>(BaseInfer->numVars())) {
  assert(BaseInfer && BaseSolution &&
         "overlay constructor requires the base inference and its solution");
  build(Prev);
}

void AbstractTypeInference::build(const AbstractTypeInference *Prev) {
  // A previous version's declared variables and records are this build's
  // if it read the same TypeSystem, unchanged since, over the same base.
  bool Shares = Prev && &Prev->TS == &TS && Prev->BaseInfer == BaseInfer &&
                Prev->Decls->BaseDecl.size() ==
                    TS.numMethods() - NumBaseMethods &&
                Prev->Decls->FieldVars.size() == TS.numFields() - NumBaseFields;
  Decls = Shares ? Prev->Decls : declare();
  NumVars = Decls->End;

  // A class shared by pointer at the same position has the same harvest.
  const auto &Classes = P.classes();
  Records.reserve(Classes.size());
  size_t NumMethods = 0, NumConstraints = 0;
  for (size_t I = 0; I != Classes.size(); ++I) {
    if (Shares && I < Prev->Records.size() &&
        Prev->P.classes()[I] == Classes[I]) {
      Records.push_back(Prev->Records[I]);
    } else {
      Records.push_back(
          std::make_shared<const ClassHarvest>(harvestClass(*Classes[I])));
      ++Harvested;
    }
    NumMethods += Classes[I]->methods().size();
    NumConstraints += Records.back()->Constraints.size();
  }

  LocalVars.reset(NumMethods);
  Constraints.reserve(NumConstraints);
  std::vector<uint32_t> Placed;
  for (size_t I = 0; I != Classes.size(); ++I)
    replay(*Classes[I], *Records[I], Placed);
}

/// True if \p Derived overrides \p Base (same name, parameter types, and
/// staticness; static methods never override but hiding shares no slots, so
/// require instance).
static bool overrides(const MethodInfo &Derived, const MethodInfo &Base) {
  if (Derived.IsStatic || Base.IsStatic)
    return false;
  if (Derived.Name != Base.Name ||
      Derived.Params.size() != Base.Params.size())
    return false;
  for (size_t I = 0; I != Derived.Params.size(); ++I)
    if (Derived.Params[I].Type != Base.Params[I].Type)
      return false;
  return true;
}

std::shared_ptr<const AbstractTypeInference::Declared>
AbstractTypeInference::declare() {
  auto D = std::make_shared<Declared>();
  // Overlay: only the local methods get entries; a base method's base-most
  // declaration is whatever the base inference computed. An overlay method
  // overriding a base method records the *base* method id here, which is
  // how its call sites share the base declaration's variables.
  size_t NumLocal = TS.numMethods() - NumBaseMethods;
  D->BaseDecl.resize(NumLocal);
  for (size_t M = NumBaseMethods; M != TS.numMethods(); ++M) {
    MethodId Id = static_cast<MethodId>(M);
    const MethodInfo &MI = TS.method(Id);
    MethodId Top = Id;
    // Walk the base-class chain upward; the highest matching declaration
    // wins, so overriding methods share its variables.
    TypeId Cur = TS.type(MI.Owner).BaseClass;
    while (isValidId(Cur)) {
      for (MethodId BM : TS.type(Cur).Methods)
        if (overrides(MI, TS.method(BM)))
          Top = BM;
      Cur = TS.type(Cur).BaseClass;
    }
    D->BaseDecl[M - NumBaseMethods] = Top;
  }

  D->DeclSlots.resize(NumLocal);
  D->HasDeclSlots.assign(NumLocal, false);
  uint32_t Next = NumVars;
  for (size_t M = NumBaseMethods; M != TS.numMethods(); ++M) {
    MethodId Id = static_cast<MethodId>(M);
    if (D->BaseDecl[M - NumBaseMethods] != Id)
      continue; // shares the base declaration's slots
    const MethodInfo &MI = TS.method(Id);
    if (MI.Owner == TS.objectType())
      continue; // per-receiver-type slots, allocated lazily
    MethodSlots &S = D->DeclSlots[M - NumBaseMethods];
    if (!MI.IsStatic)
      S.Receiver = Next++;
    S.Params.resize(MI.Params.size());
    for (uint32_t &V : S.Params)
      V = Next++;
    S.Return = Next++;
    D->HasDeclSlots[M - NumBaseMethods] = true;
  }

  D->FieldVars.resize(TS.numFields() - NumBaseFields);
  for (uint32_t &V : D->FieldVars)
    V = Next++;
  D->End = Next;
  return D;
}

const AbstractTypeInference::MethodSlots *
AbstractTypeInference::slotsFor(MethodId M, TypeId ReceiverTy) const {
  MethodId Base = baseDeclaration(M);
  const MethodInfo &MI = TS.method(Base);
  if (MI.Owner == TS.objectType()) {
    if (!isValidId(ReceiverTy))
      return nullptr;
    uint64_t Key = (static_cast<uint64_t>(Base) << 32) |
                   static_cast<uint32_t>(ReceiverTy);
    if (BaseInfer) {
      auto BIt = BaseInfer->ObjectMethodSlots.find(Key);
      if (BIt != BaseInfer->ObjectMethodSlots.end())
        return &BIt->second;
    }
    auto It = ObjectMethodSlots.find(Key);
    return It == ObjectMethodSlots.end() ? nullptr : &It->second;
  }
  if (static_cast<size_t>(Base) < NumBaseMethods)
    return BaseInfer->slotsFor(Base, ReceiverTy);
  size_t Slot = static_cast<size_t>(Base) - NumBaseMethods;
  return Decls->HasDeclSlots[Slot] ? &Decls->DeclSlots[Slot] : nullptr;
}

const AbstractTypeInference::MethodSlots &
AbstractTypeInference::specialization(uint64_t Key) {
  // A specialization the base corpus already materialized is shared, not
  // shadowed — the document's call sites must unify with the base's uses.
  if (BaseInfer) {
    auto BIt = BaseInfer->ObjectMethodSlots.find(Key);
    if (BIt != BaseInfer->ObjectMethodSlots.end())
      return BIt->second;
  }
  auto [It, Fresh] = ObjectMethodSlots.try_emplace(Key);
  if (Fresh) {
    const MethodInfo &MI = TS.method(static_cast<MethodId>(Key >> 32));
    MethodSlots &S = It->second;
    if (!MI.IsStatic)
      S.Receiver = NumVars++;
    S.Params.resize(MI.Params.size());
    for (uint32_t &V : S.Params)
      V = NumVars++;
    S.Return = NumVars++;
  }
  return It->second;
}

//===----------------------------------------------------------------------===//
// Constraint harvesting
//===----------------------------------------------------------------------===//

/// Harvests one class into a ClassHarvest. Declared and base variables are
/// read from the inference; the class's own variables — its methods'
/// locals and the Object-method specializations it meets — are numbered
/// from 0 in allocation order and tagged Relative.
class AbstractTypeInference::Harvester {
public:
  explicit Harvester(const AbstractTypeInference &AT) : AT(AT), TS(AT.TS) {}

  ClassHarvest run(const CodeClass &C) {
    for (const auto &M : C.methods())
      harvestMethod(*M);
    return std::move(R);
  }

private:
  /// The slots of \p M for receiver type \p RecvTy: the declared ones, or
  /// the class's own for an Object-declared method, allocated at the
  /// class's first meeting with the specialization.
  const MethodSlots *slots(MethodId M, TypeId RecvTy) {
    if (!AT.objectDeclared(M))
      return AT.slotsFor(M, RecvTy);
    MethodId Base = AT.baseDeclaration(M);
    uint64_t Key =
        (static_cast<uint64_t>(Base) << 32) | static_cast<uint32_t>(RecvTy);
    for (const auto &[K, S] : Met)
      if (K == Key)
        return &S;
    const MethodInfo &MI = TS.method(Base);
    MethodSlots &S = Met.emplace_back(Key, MethodSlots()).second;
    uint32_t First = Next;
    if (!MI.IsStatic)
      S.Receiver = fresh();
    S.Params.resize(MI.Params.size());
    for (uint32_t &V : S.Params)
      V = fresh();
    S.Return = fresh();
    R.Blocks.push_back({Key, Next - First});
    return &S;
  }

  uint32_t fresh() { return ClassHarvest::Relative | Next++; }

  void addConstraint(uint32_t A, uint32_t B, const CodeMethod *Origin,
                     uint32_t StmtIndex) {
    if (A == NoVar || B == NoVar || A == B)
      return;
    R.Constraints.push_back({A, B, Origin, StmtIndex});
  }

  void harvestMethod(const CodeMethod &CM) {
    // One variable per local (parameters included). Parameters
    // additionally unify with the declaration's parameter slots so that
    // call sites and the body see the same abstract types.
    uint32_t NumLocals = static_cast<uint32_t>(CM.locals().size());
    R.Blocks.push_back({ClassHarvest::LocalsKey, NumLocals});
    Locals = ClassHarvest::Relative | Next;
    Next += NumLocals;

    TypeId Owner = TS.method(CM.decl()).Owner;
    const MethodSlots *S = slots(CM.decl(), Owner);
    if (S) {
      size_t ParamIdx = 0;
      for (uint32_t L = 0; L != NumLocals; ++L) {
        if (!CM.locals()[L].IsParam)
          continue;
        if (ParamIdx < S->Params.size())
          addConstraint(Locals + L, S->Params[ParamIdx], &CM, 0);
        ++ParamIdx;
      }
    }

    for (size_t SI = 0; SI != CM.body().size(); ++SI) {
      const Stmt &St = CM.body()[SI];
      uint32_t Idx = static_cast<uint32_t>(SI);
      switch (St.Kind) {
      case StmtKind::LocalDecl: {
        uint32_t Init = harvestExpr(St.Value, CM, Idx);
        addConstraint(Locals + St.LocalSlot, Init, &CM, Idx);
        break;
      }
      case StmtKind::ExprStmt:
        harvestExpr(St.Value, CM, Idx);
        break;
      case StmtKind::Return: {
        if (!St.Value)
          break;
        uint32_t V = harvestExpr(St.Value, CM, Idx);
        if (S)
          addConstraint(S->Return, V, &CM, Idx);
        break;
      }
      }
    }
  }

  /// Walks \p E, emits constraints for calls/assignments inside it, and
  /// returns its variable (NoVar if none).
  uint32_t harvestExpr(const Expr *E, const CodeMethod &CM,
                       uint32_t StmtIndex) {
    switch (E->kind()) {
    case ExprKind::Var:
      return Locals + cast<VarExpr>(E)->slot();

    case ExprKind::This: {
      const MethodSlots *S = slots(CM.decl(), TS.method(CM.decl()).Owner);
      return S ? S->Receiver : NoVar;
    }

    case ExprKind::TypeRef:
      return NoVar;

    case ExprKind::FieldAccess: {
      const auto *FA = cast<FieldAccessExpr>(E);
      harvestExpr(FA->base(), CM, StmtIndex);
      return AT.fieldVar(FA->field());
    }

    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(E);
      TypeId RecvTy = C->receiver() && isValidId(C->receiver()->type())
                          ? C->receiver()->type()
                          : TS.method(C->method()).Owner;
      // Object-method specializations are met before the operands.
      const MethodSlots *S = slots(C->method(), RecvTy);
      if (C->receiver()) {
        uint32_t RV = harvestExpr(C->receiver(), CM, StmtIndex);
        if (S)
          addConstraint(S->Receiver, RV, &CM, StmtIndex);
      }
      for (size_t I = 0; I != C->args().size(); ++I) {
        uint32_t AV = harvestExpr(C->args()[I], CM, StmtIndex);
        if (S && I < S->Params.size())
          addConstraint(S->Params[I], AV, &CM, StmtIndex);
      }
      return S ? S->Return : NoVar;
    }

    case ExprKind::Literal:
    case ExprKind::DontCare:
      return NoVar;

    case ExprKind::Compare: {
      const auto *C = cast<CompareExpr>(E);
      harvestExpr(C->lhs(), CM, StmtIndex);
      harvestExpr(C->rhs(), CM, StmtIndex);
      // The paper adds constraints for assignments and call arguments
      // only; comparisons contribute none.
      return NoVar;
    }

    case ExprKind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      uint32_t L = harvestExpr(A->lhs(), CM, StmtIndex);
      uint32_t Rhs = harvestExpr(A->rhs(), CM, StmtIndex);
      addConstraint(L, Rhs, &CM, StmtIndex);
      return L;
    }
    }
    return NoVar;
  }

  const AbstractTypeInference &AT;
  const TypeSystem &TS;
  ClassHarvest R;
  uint32_t Next = 0;   ///< the next relative variable
  uint32_t Locals = 0; ///< the current method's first local, tagged
  /// The specializations met so far, by key; a deque, so the slots stay
  /// put while a call's operands meet more.
  std::deque<std::pair<uint64_t, MethodSlots>> Met;
};

AbstractTypeInference::ClassHarvest
AbstractTypeInference::harvestClass(const CodeClass &C) const {
  return Harvester(*this).run(C);
}

void AbstractTypeInference::replay(const CodeClass &C, const ClassHarvest &R,
                                   std::vector<uint32_t> &Placed) {
  // Allocate the blocks in harvest order, exactly as a harvest in place
  // would: fresh locals, and fresh slots for a specialization no earlier
  // class (nor the base) materialized.
  Placed.clear();
  size_t Method = 0;
  for (const ClassHarvest::Block &B : R.Blocks) {
    if (B.Key == ClassHarvest::LocalsKey) {
      LocalVars.insert(C.methods()[Method++].get(), NumVars);
      for (uint32_t I = 0; I != B.Size; ++I)
        Placed.push_back(NumVars++);
      continue;
    }
    const MethodSlots &S = specialization(B.Key);
    if (S.Receiver != NoVar)
      Placed.push_back(S.Receiver);
    Placed.insert(Placed.end(), S.Params.begin(), S.Params.end());
    Placed.push_back(S.Return);
  }
  auto Place = [&](uint32_t V) {
    return V & ClassHarvest::Relative ? Placed[V & ~ClassHarvest::Relative]
                                      : V;
  };
  for (const Constraint &K : R.Constraints)
    Constraints.push_back({Place(K.A), Place(K.B), K.Origin, K.StmtIndex});
}

void AbstractTypeInference::LocalTable::reset(size_t Entries) {
  size_t Size = 16;
  while (Size < 2 * Entries)
    Size *= 2;
  Slots.assign(Size, {nullptr, NoVar});
}

size_t AbstractTypeInference::LocalTable::home(const CodeMethod *M) const {
  uint64_t H = reinterpret_cast<uintptr_t>(M) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(H >> 32) & (Slots.size() - 1);
}

void AbstractTypeInference::LocalTable::insert(const CodeMethod *M,
                                               uint32_t FirstVar) {
  size_t I = home(M);
  while (Slots[I].first && Slots[I].first != M)
    I = (I + 1) & (Slots.size() - 1);
  Slots[I] = {M, FirstVar};
}

uint32_t AbstractTypeInference::LocalTable::find(const CodeMethod *M) const {
  if (Slots.empty())
    return NoVar;
  for (size_t I = home(M); Slots[I].first; I = (I + 1) & (Slots.size() - 1))
    if (Slots[I].first == M)
      return Slots[I].second;
  return NoVar;
}

//===----------------------------------------------------------------------===//
// Solving and lookup
//===----------------------------------------------------------------------===//

/// The starting forest for a solve: empty in monolithic mode; in overlay
/// mode, a copy of the solved base partition grown to the full variable
/// count. Extending the base solution is equivalent to replaying the base
/// corpus's constraints (union-find is order-insensitive) and costs O(base
/// vars) instead of O(base constraints). The exclusion filter only ever
/// names document methods — the base source has no query sites — so base
/// constraints are never filtered and folding them in is always sound.
UnionFind AbstractTypeInference::seedForest() const {
  if (!BaseInfer)
    return UnionFind(NumVars);
  Span<const uint32_t> Parents = BaseSolution->parents();
  UnionFind UF(std::vector<uint32_t>(Parents.begin(), Parents.end()));
  UF.grow(NumVars);
  return UF;
}

AbsTypeSolution AbstractTypeInference::solve() const {
  UnionFind UF = seedForest();
  for (const Constraint &C : Constraints)
    UF.unite(C.A, C.B);
  return AbsTypeSolution(std::move(UF));
}

AbsTypeSolution AbstractTypeInference::solveExcluding(const CodeMethod *M,
                                                      size_t FromStmt) const {
  UnionFind UF = seedForest();
  for (const Constraint &C : Constraints) {
    if (C.Origin == M && C.StmtIndex >= FromStmt)
      continue;
    UF.unite(C.A, C.B);
  }
  return AbsTypeSolution(std::move(UF));
}

uint32_t AbstractTypeInference::varOfExpr(const Expr *E,
                                          const CodeMethod *Ctx) const {
  switch (E->kind()) {
  case ExprKind::Var: {
    unsigned Slot = cast<VarExpr>(E)->slot();
    uint32_t First = LocalVars.find(Ctx);
    return First != NoVar && Slot < Ctx->locals().size() ? First + Slot
                                                         : NoVar;
  }
  case ExprKind::This: {
    if (!Ctx)
      return NoVar;
    const MethodSlots *S =
        slotsFor(Ctx->decl(), TS.method(Ctx->decl()).Owner);
    return S ? S->Receiver : NoVar;
  }
  case ExprKind::FieldAccess:
    return fieldVar(cast<FieldAccessExpr>(E)->field());
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    TypeId RecvTy = C->receiver() && isValidId(C->receiver()->type())
                        ? C->receiver()->type()
                        : TS.method(C->method()).Owner;
    return varOfReturn(C->method(), RecvTy);
  }
  default:
    return NoVar;
  }
}

uint32_t AbstractTypeInference::varOfCallParam(MethodId M, size_t CallParamIdx,
                                               TypeId ReceiverTy) const {
  const MethodSlots *S = slotsFor(M, ReceiverTy);
  if (!S)
    return NoVar;
  const MethodInfo &MI = TS.method(M);
  if (!MI.IsStatic) {
    if (CallParamIdx == 0)
      return S->Receiver;
    --CallParamIdx;
  }
  return CallParamIdx < S->Params.size() ? S->Params[CallParamIdx] : NoVar;
}

uint32_t AbstractTypeInference::varOfReturn(MethodId M,
                                            TypeId ReceiverTy) const {
  const MethodSlots *S = slotsFor(M, ReceiverTy);
  return S ? S->Return : NoVar;
}

std::vector<uint64_t> AbstractTypeInference::objectSpecializationKeys() const {
  std::vector<uint64_t> Keys;
  Keys.reserve(ObjectMethodSlots.size());
  for (const auto &[Key, S] : ObjectMethodSlots)
    Keys.push_back(Key);
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

size_t AbstractTypeInference::memoryBytes() const {
  size_t Bytes = Decls->BaseDecl.capacity() * sizeof(MethodId) +
                 Decls->DeclSlots.capacity() * sizeof(MethodSlots) +
                 Decls->HasDeclSlots.capacity() / 8 +
                 Decls->FieldVars.capacity() * sizeof(uint32_t) +
                 Records.capacity() * sizeof(Records[0]) +
                 LocalVars.memoryBytes() +
                 Constraints.capacity() * sizeof(Constraint);
  for (const MethodSlots &S : Decls->DeclSlots)
    Bytes += S.Params.capacity() * sizeof(uint32_t);
  for (const auto &R : Records)
    Bytes += R->Blocks.capacity() * sizeof(ClassHarvest::Block) +
             R->Constraints.capacity() * sizeof(Constraint);
  for (const auto &[Key, S] : ObjectMethodSlots)
    Bytes += sizeof(uint64_t) + sizeof(MethodSlots) +
             S.Params.capacity() * sizeof(uint32_t);
  return Bytes;
}

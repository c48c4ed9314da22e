//===- parser/Resolver.cpp - Name resolution and lowering -----------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "parser/Resolver.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace petal;

//===----------------------------------------------------------------------===//
// Phase drivers
//===----------------------------------------------------------------------===//

bool Resolver::resolveFile(const SynFile &File) {
  unsigned Before = Diags.errorCount();
  if (!registerTypes(File))
    return false;
  resolveBases(File);
  resolveMembers(File);
  resolveBodies(File);
  return Diags.errorCount() == Before;
}

bool Resolver::resolveFileReusingDecls(const SynFile &File,
                                       const PriorCode *Prior) {
  assert((!Prior || &Prior->P.typeSystem() == &TS) &&
         "reused code was resolved over another TypeSystem");
  if (Prior && Prior->File.Types.size() != File.Types.size())
    Prior = nullptr;
  unsigned Before = Diags.errorCount();
  // Declaration phases in lookup-only mode. A false return here means the
  // existing model does not structurally match the file — the caller must
  // not trust RegisteredTypes/MemberMethodIds and should rebuild fully.
  if (!registerTypesReusing(File, Prior))
    return false;
  if (!resolveMembersReusing(File, Prior))
    return false;
  if (!resolveBodies(File, Prior))
    return false;
  return Diags.errorCount() == Before;
}

/// True when \p Prior pairs declaration \p I of \p File: the same tree
/// over the same TypeSystem, already verified and resolved once.
static bool pairedByPrior(const SynFile &File, size_t I,
                          const PriorCode *Prior) {
  return Prior && Prior->File.Types[I] == File.Types[I];
}

/// True when a declaration resolves to a class with code.
static bool hasCode(const SynType &ST) {
  if (ST.Kind != TypeKind::Class && ST.Kind != TypeKind::Struct)
    return false;
  return std::any_of(ST.Members.begin(), ST.Members.end(),
                     [](const SynMember &M) {
                       return M.Kind == SynMember::Method;
                     });
}

bool Resolver::registerTypesReusing(const SynFile &File,
                                    const PriorCode *Prior) {
  RegisteredTypes.assign(File.Types.size(), InvalidId);
  for (size_t I = 0; I != File.Types.size(); ++I) {
    if (pairedByPrior(File, I, Prior))
      continue;
    const SynType &ST = *File.Types[I];
    std::string Qual = ST.NamespaceName.empty()
                           ? ST.Name
                           : ST.NamespaceName + "." + ST.Name;
    TypeId T = TS.findType(Qual);
    if (!isValidId(T) || TS.type(T).Kind != ST.Kind)
      return false;
    RegisteredTypes[I] = T;
  }
  return true;
}

bool Resolver::resolveMembersReusing(const SynFile &File,
                                     const PriorCode *Prior) {
  MemberMethodIds.assign(File.Types.size(), {});
  for (size_t I = 0; I != File.Types.size(); ++I) {
    if (pairedByPrior(File, I, Prior))
      continue;
    const SynType &ST = *File.Types[I];
    TypeId T = RegisteredTypes[I];
    MemberMethodIds[I].assign(ST.Members.size(), InvalidId);
    const TypeInfo &TI = TS.type(T);

    // Members were registered in declaration order, so pairing is two
    // order cursors — with the names re-verified, because a cheap check
    // here buys a full-build fallback instead of a miscompiled reuse.
    size_t FC = 0, MC = 0;
    // resolveBases() materializes enum members as static fields before
    // resolveMembers() ran; skip past them first.
    if (ST.Kind == TypeKind::Enum) {
      if (TI.Fields.size() < ST.Enumerators.size())
        return false;
      for (const std::string &Name : ST.Enumerators)
        if (TS.field(TI.Fields[FC++]).Name != Name)
          return false;
    }
    for (size_t MI = 0; MI != ST.Members.size(); ++MI) {
      const SynMember &M = ST.Members[MI];
      switch (M.Kind) {
      case SynMember::Field:
      case SynMember::Property: {
        if (FC == TI.Fields.size())
          return false;
        const FieldInfo &FI = TS.field(TI.Fields[FC++]);
        if (FI.Name != M.Name || FI.IsStatic != M.IsStatic)
          return false;
        break;
      }
      case SynMember::Method: {
        if (MC == TI.Methods.size())
          return false;
        MethodId Id = TI.Methods[MC++];
        const MethodInfo &MInfo = TS.method(Id);
        if (MInfo.Name != M.Name || MInfo.IsStatic != M.IsStatic ||
            MInfo.Params.size() != M.Params.size())
          return false;
        for (size_t PI = 0; PI != M.Params.size(); ++PI)
          if (MInfo.Params[PI].Name != M.Params[PI].Name)
            return false;
        MemberMethodIds[I][MI] = Id;
        break;
      }
      }
    }
    if (FC != TI.Fields.size() || MC != TI.Methods.size())
      return false;
  }
  return true;
}

bool Resolver::registerTypes(const SynFile &File) {
  RegisteredTypes.assign(File.Types.size(), InvalidId);
  for (size_t I = 0; I != File.Types.size(); ++I) {
    const SynType &ST = *File.Types[I];
    NamespaceId Ns = TS.getOrAddNamespace(ST.NamespaceName);
    std::string Qual = ST.NamespaceName.empty()
                           ? ST.Name
                           : ST.NamespaceName + "." + ST.Name;
    if (isValidId(TS.findType(Qual))) {
      Diags.error(ST.Loc, "redefinition of type '" + Qual + "'");
      continue;
    }
    RegisteredTypes[I] = TS.addType(ST.Name, Ns, ST.Kind);
    if (ST.Comparable)
      TS.setComparable(RegisteredTypes[I]);
  }
  return true;
}

bool Resolver::resolveBases(const SynFile &File) {
  for (size_t I = 0; I != File.Types.size(); ++I) {
    const SynType &ST = *File.Types[I];
    TypeId T = RegisteredTypes[I];
    if (!isValidId(T))
      continue;

    bool SawClassBase = false;
    for (const auto &BaseSegs : ST.Bases) {
      TypeId Base = requireTypeName(BaseSegs, ST.NamespaceName, ST.Loc);
      if (!isValidId(Base))
        continue;
      TypeKind BK = TS.type(Base).Kind;
      if (BK == TypeKind::Interface) {
        TS.addInterface(T, Base);
        continue;
      }
      if (BK != TypeKind::Class) {
        Diags.error(ST.Loc, "type '" + TS.qualifiedName(Base) +
                                "' cannot be used as a base");
        continue;
      }
      if (ST.Kind == TypeKind::Interface) {
        Diags.error(ST.Loc, "an interface can only extend interfaces");
        continue;
      }
      if (SawClassBase) {
        Diags.error(ST.Loc, "multiple base classes for '" + ST.Name + "'");
        continue;
      }
      SawClassBase = true;
      TS.setBaseClass(T, Base);
    }

    // Enum members become literal static fields of the enum type, matching
    // .NET metadata; they then resolve and rank like any other global.
    if (ST.Kind == TypeKind::Enum)
      for (const std::string &Member : ST.Enumerators)
        TS.addField(T, Member, T, /*IsStatic=*/true);
  }
  return true;
}

bool Resolver::resolveMembers(const SynFile &File) {
  MemberMethodIds.assign(File.Types.size(), {});
  for (size_t I = 0; I != File.Types.size(); ++I) {
    const SynType &ST = *File.Types[I];
    TypeId T = RegisteredTypes[I];
    MemberMethodIds[I].assign(ST.Members.size(), InvalidId);
    if (!isValidId(T))
      continue;

    for (size_t MI = 0; MI != ST.Members.size(); ++MI) {
      const SynMember &M = ST.Members[MI];
      TypeId MemberTy = InvalidId;
      if (M.IsVoid) {
        MemberTy = TS.voidType();
      } else {
        MemberTy = requireTypeName(M.TypeSegs, ST.NamespaceName, M.Loc);
        if (!isValidId(MemberTy))
          continue;
      }

      switch (M.Kind) {
      case SynMember::Field:
      case SynMember::Property:
        TS.addField(T, M.Name, MemberTy, M.IsStatic,
                    M.Kind == SynMember::Property);
        break;
      case SynMember::Method: {
        std::vector<ParamInfo> Params;
        bool ParamsOk = true;
        for (const SynParam &SP : M.Params) {
          TypeId PT = requireTypeName(SP.TypeSegs, ST.NamespaceName, SP.Loc);
          if (!isValidId(PT)) {
            ParamsOk = false;
            break;
          }
          Params.push_back({SP.Name, PT});
        }
        if (!ParamsOk)
          break;
        MemberMethodIds[I][MI] =
            TS.addMethod(T, M.Name, MemberTy, std::move(Params), M.IsStatic);
        break;
      }
      }
    }
  }
  return true;
}

bool Resolver::resolveBodies(const SynFile &File, const PriorCode *Prior) {
  // The prior Program's classes are in declaration order, one for each
  // declaration with code, so one cursor pairs them.
  size_t PriorClass = 0;
  for (size_t I = 0; I != File.Types.size(); ++I) {
    const SynType &ST = *File.Types[I];
    if (Prior) {
      const auto &Classes = Prior->P.classes();
      // The same tree over the same TypeSystem resolves to the same code:
      // the prior class if it had one, and otherwise no class at all.
      if (pairedByPrior(File, I, Prior)) {
        if (hasCode(ST)) {
          if (PriorClass == Classes.size())
            return false;
          P.adoptClass(Classes[PriorClass++]);
        }
        continue;
      }
      // A reparsed declaration replaces its prior class: the prior file
      // declared the same type, with code if this one has code.
      if (hasCode(ST)) {
        if (PriorClass == Classes.size() ||
            Classes[PriorClass]->type() != RegisteredTypes[I])
          return false;
        ++PriorClass;
      }
    }
    TypeId T = RegisteredTypes[I];
    if (!isValidId(T) || !hasCode(ST))
      continue;

    CodeClass &CC = P.addClass(T);
    for (size_t MI = 0; MI != ST.Members.size(); ++MI) {
      const SynMember &M = ST.Members[MI];
      if (M.Kind != SynMember::Method || !isValidId(MemberMethodIds[I][MI]))
        continue;
      MethodId Decl = MemberMethodIds[I][MI];
      CodeMethod &CM = CC.addMethod(Decl);

      ExprScope Scope;
      Scope.SelfType = T;
      Scope.InStatic = M.IsStatic;
      Scope.Method = &CM;
      for (const ParamInfo &PI : TS.method(Decl).Params) {
        unsigned Slot = CM.addLocal(PI.Name, PI.Type, /*IsParam=*/true);
        Scope.LocalByName[PI.Name] = Slot;
      }

      for (const SynStmt &S : M.Body)
        resolveStmt(S, CM, Scope, ST.NamespaceName,
                    TS.method(Decl).ReturnType);
    }
  }
  return !Prior || PriorClass == Prior->P.classes().size();
}

//===----------------------------------------------------------------------===//
// Type-name resolution
//===----------------------------------------------------------------------===//

TypeId Resolver::resolveTypeName(const std::vector<std::string> &Segs,
                                 const std::string &ContextNs) {
  NameBuf.clear();
  for (const std::string &S : Segs) {
    if (!NameBuf.empty())
      NameBuf.push_back('.');
    NameBuf += S;
  }
  // Search the context namespace and its ancestors, innermost first: the
  // candidates are ContextNs's prefixes ending before a dot, longest first,
  // then the bare name.
  size_t NsLen = ContextNs.size();
  while (true) {
    QualBuf.assign(ContextNs, 0, NsLen);
    if (NsLen)
      QualBuf.push_back('.');
    QualBuf += NameBuf;
    TypeId T = TS.findType(QualBuf);
    if (isValidId(T))
      return T;
    if (NsLen == 0)
      return InvalidId;
    size_t Dot = ContextNs.rfind('.', NsLen - 1);
    NsLen = Dot == std::string::npos ? 0 : Dot;
  }
}

TypeId Resolver::requireTypeName(const std::vector<std::string> &Segs,
                                 const std::string &ContextNs, SourceLoc Loc) {
  TypeId T = resolveTypeName(Segs, ContextNs);
  if (!isValidId(T))
    Diags.error(Loc, "unknown type '" + joinStrings(Segs, '.') + "'");
  return T;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool Resolver::resolveStmt(const SynStmt &S, CodeMethod &CM, ExprScope &Scope,
                           const std::string &ContextNs, TypeId ReturnType) {
  switch (S.Kind) {
  case SynStmtKind::VarDecl: {
    const Expr *Init = resolveValue(S.Value.get(), Scope);
    if (!Init)
      return false;
    if (Init->type() == TS.voidType()) {
      Diags.error(S.Loc, "cannot declare a variable of type void");
      return false;
    }
    TypeId VarTy =
        Init->type() == TS.nullType() ? TS.objectType() : Init->type();
    unsigned Slot = CM.addLocal(S.Name, VarTy, /*IsParam=*/false);
    Scope.LocalByName[S.Name] = Slot;
    CM.addStmt({StmtKind::LocalDecl, Slot, Init});
    return true;
  }
  case SynStmtKind::TypedDecl: {
    TypeId DeclTy = requireTypeName(S.DeclTypeSegs, ContextNs, S.Loc);
    if (!isValidId(DeclTy))
      return false;
    const Expr *Init = resolveValue(S.Value.get(), Scope);
    if (!Init)
      return false;
    if (!isa<DontCareExpr>(Init) && !TS.assignable(DeclTy, Init->type())) {
      Diags.error(S.Loc, "cannot initialize '" + TS.qualifiedName(DeclTy) +
                             "' from an expression of unrelated type");
      return false;
    }
    unsigned Slot = CM.addLocal(S.Name, DeclTy, /*IsParam=*/false);
    Scope.LocalByName[S.Name] = Slot;
    CM.addStmt({StmtKind::LocalDecl, Slot, Init});
    return true;
  }
  case SynStmtKind::Return: {
    const Expr *Value = nullptr;
    if (S.Value) {
      Value = resolveValue(S.Value.get(), Scope);
      if (!Value)
        return false;
      if (!TS.implicitlyConvertible(Value->type(), ReturnType)) {
        Diags.error(S.Loc, "return value type does not match the method");
        return false;
      }
    } else if (ReturnType != TS.voidType()) {
      Diags.error(S.Loc, "non-void method must return a value");
      return false;
    }
    CM.addStmt({StmtKind::Return, 0, Value});
    return true;
  }
  case SynStmtKind::ExprStmt: {
    const Expr *E = resolveValue(S.Value.get(), Scope);
    if (!E)
      return false;
    CM.addStmt({StmtKind::ExprStmt, 0, E});
    return true;
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Expressions (body mode)
//===----------------------------------------------------------------------===//

const Expr *Resolver::resolveValue(const SynExpr *E, ExprScope &Scope) {
  Entity Ent = resolveEntity(E, Scope);
  if (Ent.Kind == Entity::Value)
    return Ent.E;
  if (Ent.Kind == Entity::TypeE)
    Diags.error(E->Loc, "type name used where a value is required");
  else if (Ent.Kind == Entity::NamespaceE)
    Diags.error(E->Loc, "namespace name used where a value is required");
  return nullptr;
}

Resolver::Entity Resolver::resolveEntity(const SynExpr *E, ExprScope &Scope) {
  switch (E->Kind) {
  case SynExprKind::Name: {
    // Local?
    auto It = Scope.LocalByName.find(E->Name);
    if (It != Scope.LocalByName.end())
      return Entity::value(Factory.var(*Scope.Method, It->second));
    // Field of the enclosing type?
    if (isValidId(Scope.SelfType)) {
      FieldId F = TS.findField(Scope.SelfType, E->Name);
      if (isValidId(F)) {
        const FieldInfo &FI = TS.field(F);
        if (FI.IsStatic)
          return Entity::value(
              Factory.fieldAccess(Factory.typeRef(FI.Owner), F));
        if (Scope.InStatic) {
          Diags.error(E->Loc, "instance field '" + E->Name +
                                  "' used in a static context");
          return Entity::none();
        }
        return Entity::value(
            Factory.fieldAccess(Factory.thisRef(Scope.SelfType), F));
      }
    }
    // Type name?
    std::string ContextNs =
        isValidId(Scope.SelfType)
            ? TS.nspace(TS.type(Scope.SelfType).Namespace).FullName
            : std::string();
    TypeId T = resolveTypeName({E->Name}, ContextNs);
    if (isValidId(T))
      return Entity::type(T);
    // Namespace root?
    for (size_t I = 0; I != TS.numNamespaces(); ++I) {
      const NamespaceInfo &NI = TS.nspace(static_cast<NamespaceId>(I));
      if (NI.Segments.size() == 1 && NI.Segments[0] == E->Name)
        return Entity::nspace(E->Name);
    }
    Diags.error(E->Loc, "undeclared identifier '" + E->Name + "'");
    return Entity::none();
  }

  case SynExprKind::This:
    if (Scope.InStatic || !isValidId(Scope.SelfType)) {
      Diags.error(E->Loc, "'this' used in a static context");
      return Entity::none();
    }
    return Entity::value(Factory.thisRef(Scope.SelfType));

  case SynExprKind::Member: {
    Entity Base = resolveEntity(E->Base.get(), Scope);
    switch (Base.Kind) {
    case Entity::Value: {
      TypeId BaseTy = Base.E->type();
      FieldId F = TS.findField(BaseTy, E->Name);
      if (!isValidId(F)) {
        Diags.error(E->Loc, "type '" + TS.qualifiedName(BaseTy) +
                                "' has no field '" + E->Name + "'");
        return Entity::none();
      }
      if (TS.field(F).IsStatic) {
        Diags.error(E->Loc, "static field '" + E->Name +
                                "' accessed through a value");
        return Entity::none();
      }
      return Entity::value(Factory.fieldAccess(Base.E, F));
    }
    case Entity::TypeE: {
      FieldId F = TS.findField(Base.T, E->Name);
      if (isValidId(F) && TS.field(F).IsStatic)
        return Entity::value(
            Factory.fieldAccess(Factory.typeRef(TS.field(F).Owner), F));
      Diags.error(E->Loc, "type '" + TS.qualifiedName(Base.T) +
                              "' has no static field '" + E->Name + "'");
      return Entity::none();
    }
    case Entity::NamespaceE: {
      std::string Path = Base.NsPath + "." + E->Name;
      TypeId T = TS.findType(Path);
      if (isValidId(T))
        return Entity::type(T);
      for (size_t I = 0; I != TS.numNamespaces(); ++I)
        if (TS.nspace(static_cast<NamespaceId>(I)).FullName == Path)
          return Entity::nspace(Path);
      Diags.error(E->Loc, "unknown name '" + Path + "'");
      return Entity::none();
    }
    case Entity::None:
      return Entity::none();
    }
    return Entity::none();
  }

  case SynExprKind::Call: {
    const Expr *Call = resolveCall(E, Scope);
    return Call ? Entity::value(Call) : Entity::none();
  }

  case SynExprKind::IntLit:
    return Entity::value(Factory.intLit(E->IntValue));
  case SynExprKind::FloatLit:
    return Entity::value(Factory.floatLit(E->FloatValue));
  case SynExprKind::BoolLit:
    return Entity::value(Factory.boolLit(E->BoolValue));
  case SynExprKind::StringLit:
    return Entity::value(Factory.stringLit(E->StrValue));
  case SynExprKind::NullLit:
    return Entity::value(Factory.nullLit());

  case SynExprKind::Compare: {
    const Expr *L = resolveValue(E->Base.get(), Scope);
    const Expr *R = resolveValue(E->Rhs.get(), Scope);
    if (!L || !R)
      return Entity::none();
    if (!TS.comparable(L->type(), R->type())) {
      Diags.error(E->Loc, "comparison between incomparable types");
      return Entity::none();
    }
    return Entity::value(Factory.compare(E->CmpOp, L, R));
  }

  case SynExprKind::Assign: {
    const Expr *L = resolveValue(E->Base.get(), Scope);
    const Expr *R = resolveValue(E->Rhs.get(), Scope);
    if (!L || !R)
      return Entity::none();
    if (!isLValue(L)) {
      Diags.error(E->Loc, "assignment target is not assignable");
      return Entity::none();
    }
    if (!TS.assignable(L->type(), R->type())) {
      Diags.error(E->Loc, "assignment between incompatible types");
      return Entity::none();
    }
    return Entity::value(Factory.assign(L, R));
  }

  case SynExprKind::Hole:
  case SynExprKind::UnknownCall:
  case SynExprKind::Suffix:
    Diags.error(E->Loc, "partial-expression syntax is not allowed here");
    return Entity::none();
  }
  return Entity::none();
}

MethodId Resolver::selectOverload(const std::vector<MethodId> &Candidates,
                                  TypeId ReceiverTy,
                                  const std::vector<TypeId> &ArgTys,
                                  bool WantStatic) {
  MethodId Best = InvalidId;
  int BestCost = -1;
  for (MethodId M : Candidates) {
    const MethodInfo &MI = TS.method(M);
    if (MI.IsStatic != WantStatic)
      continue;
    if (MI.Params.size() != ArgTys.size())
      continue;
    int Cost = 0;
    if (!MI.IsStatic) {
      auto D = TS.typeDistance(ReceiverTy, MI.Owner);
      if (!D)
        continue;
      Cost += *D;
    }
    bool Match = true;
    for (size_t I = 0; I != ArgTys.size(); ++I) {
      auto D = TS.typeDistance(ArgTys[I], MI.Params[I].Type);
      if (!D) {
        Match = false;
        break;
      }
      Cost += *D;
    }
    if (!Match)
      continue;
    if (!isValidId(Best) || Cost < BestCost) {
      Best = M;
      BestCost = Cost;
    }
  }
  return Best;
}

const Expr *Resolver::resolveCall(const SynExpr *E, ExprScope &Scope) {
  // Resolve the arguments first.
  std::vector<const Expr *> Args;
  std::vector<TypeId> ArgTys;
  for (const SynExprPtr &A : E->Args) {
    const Expr *Arg = resolveValue(A.get(), Scope);
    if (!Arg)
      return nullptr;
    Args.push_back(Arg);
    ArgTys.push_back(Arg->type());
  }

  const Expr *Receiver = nullptr;
  std::vector<MethodId> Candidates;
  bool WantStatic = false;

  if (!E->Base) {
    // Unqualified call: members of the enclosing type.
    if (!isValidId(Scope.SelfType)) {
      Diags.error(E->Loc, "unqualified call outside a type");
      return nullptr;
    }
    Candidates = TS.findMethods(Scope.SelfType, E->Name);
    // Prefer an instance method when allowed, otherwise a static one.
    if (!Scope.InStatic) {
      MethodId M = selectOverload(Candidates, Scope.SelfType, ArgTys,
                                  /*WantStatic=*/false);
      if (isValidId(M))
        return Factory.call(M, Factory.thisRef(Scope.SelfType), Args);
    }
    MethodId M = selectOverload(Candidates, InvalidId, ArgTys,
                                /*WantStatic=*/true);
    if (isValidId(M))
      return Factory.call(M, nullptr, Args);
    Diags.error(E->Loc, "no matching method '" + E->Name + "' in scope");
    return nullptr;
  }

  Entity Base = resolveEntity(E->Base.get(), Scope);
  switch (Base.Kind) {
  case Entity::Value:
    Receiver = Base.E;
    Candidates = TS.findMethods(Receiver->type(), E->Name);
    WantStatic = false;
    break;
  case Entity::TypeE:
    Candidates = TS.findMethods(Base.T, E->Name);
    WantStatic = true;
    break;
  case Entity::NamespaceE:
    Diags.error(E->Loc, "namespace name used as a call receiver");
    return nullptr;
  case Entity::None:
    return nullptr;
  }

  MethodId M = selectOverload(
      Candidates, Receiver ? Receiver->type() : InvalidId, ArgTys, WantStatic);
  if (!isValidId(M)) {
    Diags.error(E->Loc, "no matching overload of '" + E->Name + "'");
    return nullptr;
  }
  return Factory.call(M, Receiver, Args);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

Resolver::ExprScope Resolver::scopeFor(const QueryScope &Q) const {
  ExprScope Scope;
  if (Q.Class)
    Scope.SelfType = Q.Class->type();
  Scope.Method = Q.Method;
  if (Q.Method) {
    const MethodInfo &MI = TS.method(Q.Method->decl());
    Scope.InStatic = MI.IsStatic;
    size_t Limit = std::min(Q.StmtIndex, Q.Method->body().size());
    for (unsigned Slot : Q.Method->localsInScopeAt(Limit))
      Scope.LocalByName[Q.Method->locals()[Slot].Name] = Slot;
  }
  return Scope;
}

const PartialExpr *Resolver::resolveQuery(const SynExpr *Q,
                                          const QueryScope &Scope) {
  ExprScope S = scopeFor(Scope);
  return resolvePartial(Q, S);
}

std::vector<MethodId> Resolver::methodsByName(const std::string &Name,
                                              size_t NumCallArgs) {
  std::vector<MethodId> Result;
  for (size_t M = 0; M != TS.numMethods(); ++M) {
    MethodId Id = static_cast<MethodId>(M);
    if (TS.method(Id).Name == Name && TS.numCallParams(Id) == NumCallArgs)
      Result.push_back(Id);
  }
  return Result;
}

const PartialExpr *Resolver::resolvePartial(const SynExpr *E,
                                            ExprScope &Scope) {
  Arena &A = Factory.arena();
  switch (E->Kind) {
  case SynExprKind::Hole:
    return A.create<HolePE>();

  case SynExprKind::IntLit:
    // In queries, the literal `0` is the don't-care marker (Fig. 5b).
    if (E->IntValue == 0)
      return A.create<DontCarePE>();
    return A.create<ConcretePE>(Factory.intLit(E->IntValue));

  case SynExprKind::FloatLit:
  case SynExprKind::BoolLit:
  case SynExprKind::StringLit:
  case SynExprKind::NullLit:
  case SynExprKind::Name:
  case SynExprKind::This:
  case SynExprKind::Member: {
    const Expr *V = resolveValue(E, Scope);
    if (!V)
      return nullptr;
    return A.create<ConcretePE>(V);
  }

  case SynExprKind::Suffix: {
    const PartialExpr *Base = resolvePartial(E->Base.get(), Scope);
    if (!Base)
      return nullptr;
    return A.create<SuffixPE>(Base, E->Sfx);
  }

  case SynExprKind::UnknownCall: {
    std::vector<const PartialExpr *> Args;
    for (const SynExprPtr &Arg : E->Args) {
      const PartialExpr *PA = resolvePartial(Arg.get(), Scope);
      if (!PA)
        return nullptr;
      Args.push_back(PA);
    }
    return A.create<UnknownCallPE>(std::move(Args));
  }

  case SynExprKind::Call:
    return resolvePartialCall(E, Scope);

  case SynExprKind::Compare: {
    const PartialExpr *L = resolvePartial(E->Base.get(), Scope);
    const PartialExpr *R = resolvePartial(E->Rhs.get(), Scope);
    if (!L || !R)
      return nullptr;
    return A.create<ComparePE>(E->CmpOp, L, R);
  }

  case SynExprKind::Assign: {
    const PartialExpr *L = resolvePartial(E->Base.get(), Scope);
    const PartialExpr *R = resolvePartial(E->Rhs.get(), Scope);
    if (!L || !R)
      return nullptr;
    return A.create<AssignPE>(L, R);
  }
  }
  return nullptr;
}

const PartialExpr *Resolver::resolvePartialCall(const SynExpr *E,
                                                ExprScope &Scope) {
  Arena &A = Factory.arena();

  // Resolve the arguments as partials.
  std::vector<const PartialExpr *> Args;
  bool AllConcrete = true;
  for (const SynExprPtr &Arg : E->Args) {
    const PartialExpr *PA = resolvePartial(Arg.get(), Scope);
    if (!PA)
      return nullptr;
    AllConcrete &= isa<ConcretePE>(PA);
    Args.push_back(PA);
  }

  // Resolve the callee context. Per the receiver-as-first-argument
  // convention (§3), an instance receiver becomes argument 0.
  std::vector<MethodId> Resolved;
  if (E->Base) {
    Entity Base = resolveEntity(E->Base.get(), Scope);
    switch (Base.Kind) {
    case Entity::Value: {
      Args.insert(Args.begin(), A.create<ConcretePE>(Base.E));
      AllConcrete &= true;
      for (MethodId M : TS.findMethods(Base.E->type(), E->Name))
        if (!TS.method(M).IsStatic &&
            TS.numCallParams(M) == Args.size())
          Resolved.push_back(M);
      break;
    }
    case Entity::TypeE:
      for (MethodId M : TS.findMethods(Base.T, E->Name))
        if (TS.method(M).IsStatic && TS.numCallParams(M) == Args.size())
          Resolved.push_back(M);
      break;
    case Entity::NamespaceE:
      Diags.error(E->Loc, "namespace name used as a call receiver");
      return nullptr;
    case Entity::None:
      return nullptr;
    }
  } else {
    // Unqualified: any method with this simple name whose call signature
    // matches the argument count (the paper's Distance(point, ?) treats the
    // callee name as a global search key).
    Resolved = methodsByName(E->Name, Args.size());
  }

  if (Resolved.empty()) {
    Diags.error(E->Loc, "no method named '" + E->Name + "' accepts " +
                            std::to_string(Args.size()) + " argument(s)");
    return nullptr;
  }

  // If everything is concrete and exactly resolvable, produce a concrete
  // call so it can be used verbatim inside larger queries.
  if (AllConcrete) {
    std::vector<const Expr *> ArgExprs;
    for (const PartialExpr *PA : Args)
      ArgExprs.push_back(cast<ConcretePE>(PA)->expr());
    for (MethodId M : Resolved) {
      const MethodInfo &MI = TS.method(M);
      bool Match = true;
      size_t Offset = MI.IsStatic ? 0 : 1;
      if (!MI.IsStatic &&
          !TS.implicitlyConvertible(ArgExprs[0]->type(), MI.Owner))
        continue;
      for (size_t I = 0; I + Offset < ArgExprs.size() && Match; ++I)
        Match = TS.implicitlyConvertible(ArgExprs[I + Offset]->type(),
                                         MI.Params[I].Type);
      if (!Match)
        continue;
      const Expr *Receiver = MI.IsStatic ? nullptr : ArgExprs[0];
      std::vector<const Expr *> DeclArgs(ArgExprs.begin() + Offset,
                                         ArgExprs.end());
      return A.create<ConcretePE>(Factory.call(M, Receiver, DeclArgs));
    }
    // Fall through: keep it as a known call; the engine will find nothing,
    // which is the honest answer for a type-incorrect concrete call.
  }

  return A.create<KnownCallPE>(E->Name, std::move(Args), std::move(Resolved));
}

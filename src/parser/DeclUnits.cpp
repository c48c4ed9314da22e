//===- parser/DeclUnits.cpp - Declaration-unit content hashing ------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "parser/DeclUnits.h"

using namespace petal;

namespace {

/// FNV-1a, 64-bit. Every hashed datum is prefixed with a small tag (or its
/// length, for strings) so that adjacent fields cannot alias — e.g. the
/// member lists ("ab","c") and ("a","bc") hash differently.
class Hasher {
public:
  void byte(uint8_t B) { H = (H ^ B) * 0x100000001b3ull; }

  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      byte(static_cast<uint8_t>(V >> (I * 8)));
  }

  void tag(char C) { byte(static_cast<uint8_t>(C)); }

  void str(const std::string &S) {
    u64(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }

  void segs(const std::vector<std::string> &Path) {
    u64(Path.size());
    for (const std::string &S : Path)
      str(S);
  }

  uint64_t get() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ull; // FNV offset basis
};

void hashExpr(Hasher &H, const SynExpr *E) {
  if (!E) {
    H.tag('0');
    return;
  }
  H.tag('E');
  H.byte(static_cast<uint8_t>(E->Kind));
  H.str(E->Name);
  H.byte(static_cast<uint8_t>(E->CmpOp));
  H.byte(static_cast<uint8_t>(E->Sfx));
  H.byte(E->HasParens ? 1 : 0);
  H.u64(static_cast<uint64_t>(E->IntValue));
  // Bit-pattern the double so canonical hashing never depends on printing.
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(E->FloatValue));
  __builtin_memcpy(&Bits, &E->FloatValue, sizeof(Bits));
  H.u64(Bits);
  H.byte(E->BoolValue ? 1 : 0);
  H.str(E->StrValue);
  hashExpr(H, E->Base.get());
  hashExpr(H, E->Rhs.get());
  H.u64(E->Args.size());
  for (const SynExprPtr &A : E->Args)
    hashExpr(H, A.get());
}

void hashStmt(Hasher &H, const SynStmt &S) {
  H.tag('S');
  H.byte(static_cast<uint8_t>(S.Kind));
  H.segs(S.DeclTypeSegs);
  H.str(S.Name);
  hashExpr(H, S.Value.get());
}

/// Everything about a member except its body. Parameter *names* are
/// included deliberately: they become method locals, appear in printed
/// completions, and scope query identifiers — a rename is not body-local.
void hashMemberSig(Hasher &H, const SynMember &M) {
  H.tag('M');
  H.byte(static_cast<uint8_t>(M.Kind));
  H.byte(M.IsStatic ? 1 : 0);
  H.byte(M.IsVoid ? 1 : 0);
  H.segs(M.TypeSegs);
  H.str(M.Name);
  H.u64(M.Params.size());
  for (const SynParam &P : M.Params) {
    H.segs(P.TypeSegs);
    H.str(P.Name);
  }
  H.byte(M.HasBody ? 1 : 0);
}

uint64_t sigHashOf(const SynType &T) {
  Hasher H;
  H.tag('T');
  H.byte(static_cast<uint8_t>(T.Kind));
  H.byte(T.Comparable ? 1 : 0);
  H.str(T.Name);
  H.str(T.NamespaceName);
  H.u64(T.Bases.size());
  for (const auto &B : T.Bases)
    H.segs(B);
  H.segs(T.Enumerators);
  H.u64(T.Members.size());
  for (const SynMember &M : T.Members)
    hashMemberSig(H, M);
  return H.get();
}

uint64_t bodyHashOf(const SynType &T) {
  Hasher H;
  H.tag('B');
  H.u64(T.Members.size());
  for (const SynMember &M : T.Members) {
    H.u64(M.Body.size());
    for (const SynStmt &S : M.Body)
      hashStmt(H, S);
  }
  return H.get();
}

} // namespace

const DeclUnit *DocumentShape::findUnit(const std::string &QualName) const {
  for (const DeclUnit &U : Units)
    if (U.QualName == QualName)
      return &U;
  return nullptr;
}

bool DocumentShape::unitUnchanged(const DocumentShape &Prev,
                                  const std::string &QualName) const {
  const DeclUnit *Now = findUnit(QualName);
  const DeclUnit *Was = Prev.findUnit(QualName);
  return Now && Was && Now->SigHash == Was->SigHash &&
         Now->BodyHash == Was->BodyHash;
}

void DocumentShape::combineUnits() {
  Hasher Graph, Code;
  for (const DeclUnit &U : Units) {
    Graph.u64(U.SigHash);
    Code.u64(U.SigHash);
    Code.u64(U.BodyHash);
  }
  TypeGraphHash = Graph.get();
  CodeHash = Code.get();
}

DeclUnit petal::declUnitOf(const SynType &T) {
  DeclUnit U;
  U.QualName =
      T.NamespaceName.empty() ? T.Name : T.NamespaceName + "." + T.Name;
  U.SigHash = sigHashOf(T);
  U.BodyHash = bodyHashOf(T);
  return U;
}

DocumentShape petal::shapeOfFile(const SynFile &File) {
  DocumentShape Shape;
  Shape.Units.reserve(File.Types.size());
  for (const auto &T : File.Types)
    Shape.Units.push_back(declUnitOf(*T));
  Shape.combineUnits();
  return Shape;
}

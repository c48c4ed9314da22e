//===- infer/AbstractTypes.h - Usage-based abstract type inference -*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's abstract type inference (§4.1), in the style of Lackwit
/// [O'Callahan & Jackson, ICSE'97]: an abstract-type variable is assigned to
/// every local variable, formal parameter, formal return type, and field;
/// an equality constraint is added whenever a value is assigned or used as a
/// method-call argument. All constraints are equalities on atoms, so the
/// solution is a union-find.
///
/// Special cases from the paper:
///  * methods defined on Object (ToString, GetHashCode, ...) are treated as
///    distinct methods for every receiver type, so calling ToString does not
///    merge everything;
///  * overriding methods share their parameter/return variables with the
///    base-most declaration.
///
/// The evaluation harness re-runs inference for each query site, excluding
/// the query statement and everything after it in the enclosing method (the
/// expression "does not exist yet"); constraints therefore carry their
/// origin, and solving takes an exclusion filter.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_INFER_ABSTRACTTYPES_H
#define PETAL_INFER_ABSTRACTTYPES_H

#include "code/Code.h"
#include "model/TypeSystem.h"
#include "support/Span.h"
#include "support/UnionFind.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace petal {

/// A solved abstract-type assignment: a partition of the abstract-type
/// variables into usage classes.
///
/// The forest is fully compressed at construction, so sameAbstractType()
/// performs no writes and one solution may be shared by any number of
/// concurrent query threads (BatchExecutor relies on this).
class AbsTypeSolution {
public:
  AbsTypeSolution() = default;
  explicit AbsTypeSolution(UnionFind UF) : UF(std::move(UF)) {
    this->UF.compress();
  }

  /// Reconstructs a solution from a serialized parent array (the snapshot
  /// store's whole-corpus solution section). The caller must have validated
  /// every entry is < Parents.size(); the constructor re-compresses, so the
  /// no-writes-in-find invariant holds regardless of how flat the stored
  /// forest was.
  explicit AbsTypeSolution(std::vector<uint32_t> Parents)
      : UF(std::move(Parents)) {
    UF.compress();
  }

  /// The fully compressed parent array (what the snapshot store persists).
  Span<const uint32_t> parents() const { return UF.parents(); }

  /// True if both variables exist and were unified. Per the paper's note on
  /// Fig. 7, two "undefined" abstract types are NOT considered equal, so any
  /// missing variable compares unequal.
  bool sameAbstractType(uint32_t A, uint32_t B) const;

  size_t numClasses() const { return UF.numSets(); }

private:
  UnionFind UF;
};

/// Builds abstract-type variables and equality constraints for a whole
/// program, and solves them (optionally excluding a suffix of one method).
///
/// Every constraint comes from one method body, so one class's constraints
/// are a unit of reuse (DESIGN.md §12). The harvest of a class is kept as
/// a record whose local variables are numbered relative to the record, and
/// the inference is the records replayed in class order: the replay
/// allocates the variables and maps the constraints to them. A successor
/// built over the same TypeSystem (the incremental document build) shares
/// the declared variables and the record of every class it shares by
/// pointer, and harvests only the others; its variables, constraints and
/// solution equal a fresh build's exactly.
///
/// In overlay mode (base/overlay workspace, DESIGN.md §14) the object
/// harvests only the document's methods: variable numbering continues
/// after the shared base inference's (base entities keep their base
/// variables), declaration slots and field variables of base entities
/// forward to the base inference, and solving extends the frozen base
/// solution with the local constraints instead of replaying the base
/// corpus's constraint set.
class AbstractTypeInference {
public:
  /// Sentinel for "no abstract-type variable" (literals, don't-cares,
  /// unseen Object-method specializations).
  static constexpr uint32_t NoVar = 0xFFFFFFFFu;

  /// One equality constraint and where it came from: statement
  /// \p StmtIndex of \p Origin (0 for a parameter's binding).
  struct Constraint {
    uint32_t A;
    uint32_t B;
    const CodeMethod *Origin;
    uint32_t StmtIndex;
  };

  /// Harvests variables and constraints from \p P. The program must outlive
  /// this object. \p Prev, when given, is the inference of a previous
  /// version of \p P over the same TypeSystem: its declared variables and
  /// the records of the classes \p P shares with it at the same position
  /// are reused, and only the other classes are harvested. The result is
  /// the same as without \p Prev.
  explicit AbstractTypeInference(const Program &P,
                                 const AbstractTypeInference *Prev = nullptr);

  /// Overlay constructor: \p P holds only the document's classes, resolved
  /// against the base layer; \p BaseInferIn / \p BaseSolutionIn are the
  /// shared base inference and its fully-solved partition. Both must
  /// outlive this object. \p Prev as above, over the same base.
  AbstractTypeInference(const Program &P,
                        std::shared_ptr<const AbstractTypeInference> BaseInferIn,
                        std::shared_ptr<const AbsTypeSolution> BaseSolutionIn,
                        const AbstractTypeInference *Prev = nullptr);

  /// Solves with every constraint included.
  AbsTypeSolution solve() const;

  /// Solves excluding constraints originating from statements
  /// [FromStmt, end) of \p M — the evaluation's "the query expression and
  /// everything after it do not exist yet" rule (§5).
  AbsTypeSolution solveExcluding(const CodeMethod *M, size_t FromStmt) const;

  /// The abstract-type variable of expression \p E occurring in method
  /// \p Ctx; NoVar when the expression has none (literals, comparisons,
  /// don't-cares).
  uint32_t varOfExpr(const Expr *E, const CodeMethod *Ctx) const;

  /// The variable of call-signature parameter \p CallParamIdx of \p M
  /// (index 0 of an instance method is the receiver). \p ReceiverTy selects
  /// the per-type specialization for methods declared on Object; pass the
  /// static receiver type (or InvalidId when unknown).
  uint32_t varOfCallParam(MethodId M, size_t CallParamIdx,
                          TypeId ReceiverTy) const;

  /// The variable of the return value of \p M (same Object-method rule).
  uint32_t varOfReturn(MethodId M, TypeId ReceiverTy) const;

  size_t numVars() const { return NumVars; }
  size_t numConstraints() const { return Constraints.size(); }

  /// This layer's constraints, in harvest order.
  const std::vector<Constraint> &constraints() const { return Constraints; }

  /// The (base declaration, receiver type) keys of this layer's
  /// Object-method specializations, packed as (MethodId << 32 | TypeId),
  /// in ascending order.
  std::vector<uint64_t> objectSpecializationKeys() const;

  /// Classes harvested by this build; the others' records were reused.
  size_t numHarvested() const { return Harvested; }

  /// The base-most declaration that \p M overrides (or \p M itself).
  MethodId baseDeclaration(MethodId M) const {
    if (static_cast<size_t>(M) < NumBaseMethods)
      return BaseInfer->baseDeclaration(M);
    return Decls->BaseDecl[M - NumBaseMethods];
  }

  /// Approximate heap bytes owned by this layer (the shared base is not
  /// re-counted; declared variables and records shared with a previous
  /// version are).
  size_t memoryBytes() const;

private:
  struct MethodSlots {
    uint32_t Receiver = NoVar;
    std::vector<uint32_t> Params;
    uint32_t Return = NoVar;
  };

  /// The variables that depend on the TypeSystem alone: the slots of every
  /// base-most local method declaration and one variable per local field,
  /// numbered first. Shared by every inference over the same TypeSystem.
  struct Declared {
    std::vector<MethodId> BaseDecl;     // per local MethodId
    std::vector<MethodSlots> DeclSlots; // per local MethodId (base decls only)
    std::vector<bool> HasDeclSlots;     // per local MethodId
    std::vector<uint32_t> FieldVars;    // per local FieldId
    uint32_t End = 0;                   ///< one past the last declared var
  };

  /// One class's harvest, placed nowhere. Blocks lists the variables the
  /// harvest allocated, in order: each method's locals (Key == LocalsKey,
  /// one block per method in method order) and each Object-method
  /// specialization the class meets, at its first meeting (Key = its key).
  /// A constraint variable with the Relative bit set is the variable at
  /// that index in the blocks' concatenation; any other is a declared or
  /// base variable.
  struct ClassHarvest {
    static constexpr uint64_t LocalsKey = ~uint64_t(0);
    static constexpr uint32_t Relative = 0x80000000u;
    struct Block {
      uint64_t Key;
      uint32_t Size;
    };
    std::vector<Block> Blocks;
    std::vector<Constraint> Constraints;
  };
  class Harvester;

  /// CodeMethod -> first variable of its locals: an open-addressing table
  /// rebuilt by every replay, one entry per method.
  class LocalTable {
  public:
    void reset(size_t Entries);
    void insert(const CodeMethod *M, uint32_t FirstVar);
    uint32_t find(const CodeMethod *M) const;
    size_t memoryBytes() const {
      return Slots.capacity() * sizeof(Slots[0]);
    }

  private:
    size_t home(const CodeMethod *M) const;
    std::vector<std::pair<const CodeMethod *, uint32_t>> Slots;
  };

  /// Shared body of the constructors: declared variables (reused from
  /// \p Prev when it has them for this TypeSystem), records, replay.
  void build(const AbstractTypeInference *Prev);

  /// Slots of \p M resolved through baseDeclaration(), with the
  /// Object-method specialization applied for \p ReceiverTy (base-layer
  /// specializations win; a document cannot re-specialize a pair the base
  /// corpus already materialized). Null if no slots exist (e.g. an
  /// Object-method specialization never materialized).
  const MethodSlots *slotsFor(MethodId M, TypeId ReceiverTy) const;

  /// The specialization \p Key's slots: the base's or this layer's,
  /// materialized with fresh variables if neither has it.
  const MethodSlots &specialization(uint64_t Key);

  /// Whether \p M's base-most declaration is declared on Object (so its
  /// slots are per receiver type).
  bool objectDeclared(MethodId M) const {
    return TS.method(baseDeclaration(M)).Owner == TS.objectType();
  }

  /// The abstract-type variable of field \p F, in whichever layer owns it.
  uint32_t fieldVar(FieldId F) const {
    if (static_cast<size_t>(F) < NumBaseFields)
      return BaseInfer->fieldVar(F);
    return Decls->FieldVars[F - NumBaseFields];
  }

  /// The starting union-find for a solve: empty (monolithic) or a copy of
  /// the solved base partition grown to numVars() (overlay).
  UnionFind seedForest() const;

  std::shared_ptr<const Declared> declare();
  ClassHarvest harvestClass(const CodeClass &C) const;
  void replay(const CodeClass &C, const ClassHarvest &R,
              std::vector<uint32_t> &Placed);

  const Program &P;
  const TypeSystem &TS;
  /// Overlay mode: the shared base inference/solution and the entity counts
  /// they cover. The per-entity vectors below are indexed by
  /// id - NumBase{Methods,Fields} (0 in monolithic mode).
  std::shared_ptr<const AbstractTypeInference> BaseInfer;
  std::shared_ptr<const AbsTypeSolution> BaseSolution;
  size_t NumBaseMethods = 0;
  size_t NumBaseFields = 0;
  /// Total variable count; overlay numbering starts at the base's numVars()
  /// so base variables keep their ids.
  uint32_t NumVars = 0;

  std::shared_ptr<const Declared> Decls;
  /// One record per class of P, in class order.
  std::vector<std::shared_ptr<const ClassHarvest>> Records;
  size_t Harvested = 0;
  LocalTable LocalVars;
  /// Object-declared methods: (base decl, receiver type) -> slots. Holds
  /// only this layer's specializations; lookups consult the base map first.
  std::unordered_map<uint64_t, MethodSlots> ObjectMethodSlots;
  /// This layer's constraints only; the base corpus's constraints are
  /// already folded into BaseSolution.
  std::vector<Constraint> Constraints;
};

} // namespace petal

#endif // PETAL_INFER_ABSTRACTTYPES_H

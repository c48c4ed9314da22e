//===- wirebench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Oracle.h"

#include "code/ExprPrinter.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "corpus/SourceWriter.h"
#include "eval/Harvest.h"
#include "partial/PartialExpr.h"
#include "support/Arena.h"
#include "support/Rng.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

using namespace petal;
using namespace wirebench;

namespace {

// Corpus sizes. complete-miss/complete-hit serve the seven paper projects
// at scale 2 (1.18 MB of source); edit-type edits one project large enough
// that a full build takes hundreds of milliseconds; workspace-overlay
// serves one project's framework classes as the base and its client
// classes as documents, with a base large enough that the daemon's peak
// RSS is mostly the corpus, not allocator slack.
constexpr double ProjectsScale = 2.0;
constexpr double EditScale = 4.0;
constexpr double OverlayScale = 4.0;

/// Query family mix per ten completions (method, argument, lookup).
constexpr int FamilyDeck[3] = {4, 3, 3};
/// Edit kind mix per ten edits (body, noop, signature): signature edits
/// stay well above 10% so edit_ready_p90_ms reads inside their cluster.
constexpr int EditDeck[3] = {5, 3, 2};

constexpr size_t HitPrimed = 512;    ///< fits the daemon's 1024-entry cache
/// Passes over the primed set in complete-hit's script: more than a 20 s
/// run gets through (replays run at up to ~45k/s).
constexpr size_t HitPasses = 2000;
/// Event intervals: complete-miss and complete-hit get ~250 edits and ~80
/// opens in 20 s; edit-type, whose opens cost a full build, ~30 opens.
constexpr double ProjectEventEveryMs = 60;
constexpr double EditEventEveryMs = 600;
constexpr size_t EventCycles = 1000; ///< more than any run gets through
constexpr size_t ProbesPerDoc = 40; ///< complete-miss edits per document
constexpr size_t EditVariants = 3;   ///< text variants per edit kind
constexpr size_t TimedCycles = 4000; ///< more than any run gets through

uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    Lines.push_back(L);
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

bool startsWith(const std::string &S, const char *P) {
  return S.rfind(P, 0) == 0;
}

/// A client method in SourceWriter output: namespaces at column 0,
/// classes at 2, members at 4, statements at 6.
struct MethodLoc {
  std::string Class; ///< qualified
  std::string Method;
  size_t ClassLine = 0, HeaderLine = 0, EndLine = 0;
};

std::vector<MethodLoc> clientMethods(const std::vector<std::string> &Lines) {
  std::vector<MethodLoc> Out;
  std::string Ns, Class;
  size_t ClassLine = 0;
  for (size_t I = 0; I != Lines.size(); ++I) {
    const std::string &L = Lines[I];
    if (startsWith(L, "namespace ")) {
      Ns = L.substr(10, L.find(' ', 10) - 10);
      Class.clear();
    } else if (startsWith(L, "  class ")) {
      std::string Name = L.substr(8, L.find_first_of(" :{", 8) - 8);
      Class = Name.find("Client") != std::string::npos ? Ns + "." + Name : "";
      ClassLine = I;
    } else if (!Class.empty() && startsWith(L, "    ") && L[4] != ' ' &&
               L.back() == '{' && L.find('(') != std::string::npos) {
      size_t Paren = L.find('(');
      size_t NameStart = L.rfind(' ', Paren) + 1;
      MethodLoc M{Class, L.substr(NameStart, Paren - NameStart), ClassLine,
                  I, I};
      while (M.EndLine + 1 < Lines.size() && Lines[M.EndLine + 1] != "    }")
        ++M.EndLine;
      M.EndLine += 1;
      Out.push_back(M);
    }
  }
  return Out;
}

const MethodLoc *findMethod(const std::vector<MethodLoc> &Ms,
                            const std::string &Class,
                            const std::string &Method) {
  for (const MethodLoc &M : Ms)
    if (M.Class == Class && M.Method == Method)
      return &M;
  return nullptr;
}

/// `Type vN = ...;` declares a local; duplicating it would not resolve.
bool isDeclaration(const std::string &Line) {
  std::istringstream In(Line);
  std::string Type, Name, Eq;
  In >> Type >> Name >> Eq;
  return Eq == "=" && Name.size() > 1 && Name[0] == 'v' &&
         std::all_of(Name.begin() + 1, Name.end(),
                     [](char C) { return std::isdigit(C); });
}

/// Strips one trailing lookup (field access or nullary call), as §5.3's
/// experiments do; null when \p E does not end in one.
const Expr *stripLookup(const Expr *E) {
  const Expr *Base = nullptr;
  if (const auto *FA = dyn_cast<FieldAccessExpr>(E))
    Base = FA->base();
  else if (const auto *C = dyn_cast<CallExpr>(E);
           C && C->args().empty() && C->receiver())
    Base = C->receiver();
  if (!Base || isa<TypeRefExpr>(Base))
    return nullptr;
  return Base;
}

/// The §5 queries at every call site, assignment and comparison of the
/// classes in \p Classes (all client classes when empty) that parse at
/// the end of their method in \p P.
std::vector<QuerySpec> harvestQueries(Program &P,
                                      const std::set<std::string> &Classes) {
  const TypeSystem &TS = P.typeSystem();
  HarvestResult H = harvestProgram(P);
  Arena A;
  std::vector<QuerySpec> Out;
  std::set<std::string> Seen;
  auto Add = [&](const CodeSite &Site, std::string Text, Family F) {
    QuerySpec Q;
    Q.Class = TS.qualifiedName(Site.Class->type());
    Q.Method = TS.method(Site.Method->decl()).Name;
    if (!Classes.empty() && !Classes.count(Q.Class))
      return;
    Q.Text = std::move(Text);
    Q.Fam = F;
    if (Seen.insert(Q.Class + "#" + Q.Method + "#" + Q.Text).second)
      Out.push_back(std::move(Q));
  };
  auto Concrete = [&](const Expr *E) -> const PartialExpr * {
    return A.create<ConcretePE>(E);
  };
  auto Lookup = [&](const Expr *E) -> const PartialExpr * {
    return A.create<SuffixPE>(Concrete(E), SuffixKind::Member);
  };

  for (const CallSiteInfo &CS : H.Calls) {
    std::vector<const Expr *> Slots;
    if (CS.Call->receiver())
      Slots.push_back(CS.Call->receiver());
    Slots.insert(Slots.end(), CS.Call->args().begin(), CS.Call->args().end());

    // Method queries: ?({a}) for each guessable argument and ?({a, b})
    // for each pair of them.
    std::vector<std::string> Args;
    for (const Expr *E : Slots)
      if (isGuessableExpr(E)) {
        std::string N = printExpr(TS, E);
        if (std::find(Args.begin(), Args.end(), N) == Args.end())
          Args.push_back(N);
      }
    for (size_t I = 0; I != Args.size(); ++I) {
      Add(CS.Site, "?({" + Args[I] + "})", Family::Method);
      for (size_t J = I + 1; J < Args.size(); ++J)
        Add(CS.Site, "?({" + Args[I] + ", " + Args[J] + "})", Family::Method);
    }

    // Argument queries: m(..., ?, ...) for each guessable argument.
    const MethodInfo &MI = TS.method(CS.Call->method());
    for (size_t Pos = 0; Pos != Slots.size(); ++Pos) {
      if (classifyExprForm(Slots[Pos]) == ExprForm::NotGuessable)
        continue;
      std::vector<const PartialExpr *> Args;
      for (size_t I = 0; I != Slots.size(); ++I)
        Args.push_back(I == Pos ? A.create<HolePE>() : Concrete(Slots[I]));
      const PartialExpr *PE = A.create<KnownCallPE>(
          MI.Name, std::move(Args), std::vector<MethodId>{CS.Call->method()});
      Add(CS.Site, printPartialExpr(TS, PE), Family::Argument);
    }
  }

  // Lookup queries: `.?m` after a stripped lookup on either side.
  for (const AssignSiteInfo &AS : H.Assigns) {
    const Expr *L = AS.Assign->lhs(), *R = AS.Assign->rhs();
    if (const Expr *LB = stripLookup(L))
      Add(AS.Site,
          printPartialExpr(TS, A.create<AssignPE>(Lookup(LB), Lookup(R))),
          Family::Lookup);
    if (const Expr *RB = stripLookup(R))
      Add(AS.Site,
          printPartialExpr(TS, A.create<AssignPE>(Lookup(L), Lookup(RB))),
          Family::Lookup);
  }
  for (const CompareSiteInfo &CS : H.Compares) {
    const Expr *L = CS.Compare->lhs(), *R = CS.Compare->rhs();
    CompareOp Op = CS.Compare->op();
    if (const Expr *LB = stripLookup(L))
      Add(CS.Site,
          printPartialExpr(TS,
                           A.create<ComparePE>(Op, Lookup(LB), Lookup(R))),
          Family::Lookup);
    if (const Expr *RB = stripLookup(R))
      Add(CS.Site,
          printPartialExpr(TS,
                           A.create<ComparePE>(Op, Lookup(L), Lookup(RB))),
          Family::Lookup);
  }
  return Out;
}

TextVersion original(std::string Text) {
  TextVersion V;
  V.Text = std::move(Text);
  return V;
}

std::string projectSource(ProjectProfile Prof, uint64_t Seed) {
  Prof.Seed = Seed;
  TypeSystem TS;
  Program P(TS);
  CorpusGenerator Gen(Prof);
  Gen.generate(P);
  return writeProgramSource(P);
}

/// Harvests \p D's queries on its original text and keeps those that parse.
void harvestInto(DocSpec &D, uint32_t DocIndex, Oracle &O,
                 const std::set<std::string> &Classes = {}) {
  Program *P = O.program(DocIndex, 0, D.Versions[0].Text);
  if (!P)
    return;
  for (QuerySpec &Q : harvestQueries(*P, Classes))
    if (O.queryParses(DocIndex, 0, D.Versions[0].Text, Q))
      D.Queries.push_back(std::move(Q));
}

/// Indexes of \p D's queries posed in each "class#method".
std::map<std::string, std::vector<uint32_t>> queriesByMethod(const DocSpec &D) {
  std::map<std::string, std::vector<uint32_t>> M;
  for (uint32_t I = 0; I != D.Queries.size(); ++I)
    M[D.Queries[I].Class + "#" + D.Queries[I].Method].push_back(I);
  return M;
}

/// Duplicates a seeded statement of \p Method: a body edit.
std::string bodyEdit(const std::string &Text, const std::string &Class,
                     const std::string &Method, uint64_t Seed) {
  std::vector<std::string> Lines = splitLines(Text);
  std::vector<MethodLoc> Ms = clientMethods(Lines);
  const MethodLoc *M = findMethod(Ms, Class, Method);
  if (!M)
    return {};
  std::vector<size_t> Candidates;
  for (size_t I = M->HeaderLine + 1; I < M->EndLine; ++I)
    if (!isDeclaration(Lines[I]) &&
        Lines[I].find("return") == std::string::npos)
      Candidates.push_back(I);
  if (Candidates.empty())
    return {};
  size_t At = Candidates[Seed % Candidates.size()];
  Lines.insert(Lines.begin() + At + 1, Lines[At]);
  return joinLines(Lines);
}

/// Inserts a comment line into \p Method: a token-identical edit.
std::string noopEdit(const std::string &Text, const std::string &Class,
                     const std::string &Method, uint64_t Seed) {
  std::vector<std::string> Lines = splitLines(Text);
  std::vector<MethodLoc> Ms = clientMethods(Lines);
  const MethodLoc *M = findMethod(Ms, Class, Method);
  if (!M || M->EndLine <= M->HeaderLine + 1)
    return {};
  size_t At = M->HeaderLine + 1 + Seed % (M->EndLine - M->HeaderLine - 1);
  Lines.insert(Lines.begin() + At,
               "      // reviewed " + std::to_string(Seed % 100000));
  return joinLines(Lines);
}

/// Adds a field to \p Class: an edit of the type graph.
std::string signatureEdit(const std::string &Text, const std::string &Class,
                          uint64_t Seed) {
  std::vector<std::string> Lines = splitLines(Text);
  for (const MethodLoc &M : clientMethods(Lines))
    if (M.Class == Class) {
      Lines.insert(Lines.begin() + M.ClassLine + 1,
                   "    int mEdit" + std::to_string(Seed % 100000) + ";");
      return joinLines(Lines);
    }
  return {};
}

/// The first completion after an open or an edit measures readiness. It
/// is always a method query (§5.1's family), so readiness does not swing
/// with the family drawn; these are the candidates among \p From.
std::vector<uint32_t> probes(const DocSpec &D,
                             const std::vector<uint32_t> &From) {
  std::vector<uint32_t> Out;
  for (uint32_t I : From)
    if (D.Queries[I].Fam == Family::Method)
      Out.push_back(I);
  return Out;
}

std::vector<uint32_t> allQueries(const DocSpec &D) {
  std::vector<uint32_t> All(D.Queries.size());
  for (uint32_t I = 0; I != All.size(); ++I)
    All[I] = I;
  return All;
}

/// Adds up to \p PerKind edited versions of each kind to \p D, each
/// touching a seeded method that has at least \p MinQueries queries, one
/// of them a readiness probe.
void addVariants(DocSpec &D, uint64_t Seed, size_t PerKind,
                 const std::vector<EditKind> &Kinds, size_t MinQueries) {
  const std::string Base = D.Versions[0].Text; // Versions grows below
  std::vector<MethodLoc> Methods = clientMethods(splitLines(Base));
  auto ByMethod = queriesByMethod(D);
  std::vector<const MethodLoc *> Targets;
  for (const MethodLoc &M : Methods)
    if (const std::vector<uint32_t> &Qs = ByMethod[M.Class + "#" + M.Method];
        Qs.size() >= MinQueries && !probes(D, Qs).empty())
      Targets.push_back(&M);
  Rng R(Seed);
  shuffle(Targets, R);
  size_t Next = 0;
  for (EditKind K : Kinds)
    for (size_t N = 0; N != PerKind && Next < Targets.size() * 4; ++Next) {
      const MethodLoc &M = *Targets[Next % Targets.size()];
      uint64_t S = R.next();
      std::string Text =
          K == EditKind::Body   ? bodyEdit(Base, M.Class, M.Method, S)
          : K == EditKind::Noop ? noopEdit(Base, M.Class, M.Method, S)
                                : signatureEdit(Base, M.Class, S);
      if (Text.empty())
        continue;
      D.Versions.push_back({std::move(Text), K, M.Class, M.Method});
      ++N;
    }
}

/// Interleaves per-family queues in FamilyDeck proportions, shuffling each
/// deck of ten; stops as soon as a family runs dry so the mix never
/// drifts. Queue entries are (doc, query) pairs.
std::vector<std::pair<uint32_t, uint32_t>>
deckOrder(std::vector<std::pair<uint32_t, uint32_t>> (&Queues)[3], Rng &R,
          size_t Limit) {
  std::vector<std::pair<uint32_t, uint32_t>> Out;
  size_t Pos[3] = {0, 0, 0};
  std::vector<int> Deck;
  for (int F = 0; F != 3; ++F)
    Deck.insert(Deck.end(), FamilyDeck[F], F);
  while (Out.size() < Limit) {
    shuffle(Deck, R);
    for (int F = 0; F != 3; ++F)
      if (Pos[F] + FamilyDeck[F] > Queues[F].size())
        return Out;
    for (int F : Deck)
      Out.push_back(Queues[F][Pos[F]++]);
  }
  return Out;
}

/// Deals a document's queries in FamilyDeck proportions, one shuffled deck
/// of ten at a time, so that the family mix (and with it where
/// complete_p50_us falls) does not depend on what the corpus harvests.
class FamilyDealer {
public:
  explicit FamilyDealer(const std::vector<DocSpec> &Docs) : Docs(Docs) {
    for (int F = 0; F != 3; ++F) {
      for (const DocSpec &D : Docs) {
        ByFamily[F].emplace_back();
        for (uint32_t I = 0; I != D.Queries.size(); ++I)
          if (static_cast<int>(D.Queries[I].Fam) == F)
            ByFamily[F].back().push_back(I);
      }
      Deck.insert(Deck.end(), FamilyDeck[F], F);
    }
  }

  /// The next query of document \p Doc.
  uint32_t next(uint32_t Doc, Rng &R) {
    if (Pos++ % Deck.size() == 0)
      shuffle(Deck, R);
    const std::vector<uint32_t> &Of =
        ByFamily[Deck[(Pos - 1) % Deck.size()]][Doc];
    return Of.empty()
               ? static_cast<uint32_t>(R.below(Docs[Doc].Queries.size()))
               : Of[R.below(Of.size())];
  }

private:
  const std::vector<DocSpec> &Docs;
  std::vector<std::vector<uint32_t>> ByFamily[3];
  std::vector<int> Deck;
  size_t Pos = 0;
};

Op open(uint32_t Doc, uint32_t Version, uint32_t Slot = 0,
        bool CycleStart = false) {
  return {OpKind::Open, Doc, Version, 0, Slot, CycleStart};
}
Op change(uint32_t Doc, uint32_t Version, uint32_t Slot = 0,
          bool CycleStart = false) {
  return {OpKind::Change, Doc, Version, 0, Slot, CycleStart};
}
Op closeOp(uint32_t Doc, uint32_t Slot = 0, bool CycleStart = false) {
  return {OpKind::Close, Doc, 0, 0, Slot, CycleStart};
}
Op complete(uint32_t Doc, uint32_t Query, uint32_t Slot = 0,
            bool CycleStart = false) {
  return {OpKind::Complete, Doc, 0, Query, Slot, CycleStart};
}

/// The seven paper projects as documents, with one comment-only variant
/// each (the edit complete-miss and complete-hit sample readiness with).
void projectDocs(Inputs &In, Oracle &O) {
  std::vector<ProjectProfile> Profiles = paperProjectProfiles(ProjectsScale);
  for (uint32_t I = 0; I != Profiles.size(); ++I) {
    DocSpec D;
    D.Name = Profiles[I].Name + ".cs";
    D.Versions.push_back(
        original(projectSource(Profiles[I], subSeed(In.Seed, I))));
    harvestInto(D, I, O);
    addVariants(D, subSeed(In.Seed, 100 + I), 1, {EditKind::Noop}, 1);
    In.Docs.push_back(std::move(D));
  }
}

/// Queries of every document split by family, each queue shuffled.
void familyQueues(const Inputs &In, Rng &R,
                  std::vector<std::pair<uint32_t, uint32_t>> (&Q)[3]) {
  for (uint32_t D = 0; D != In.Docs.size(); ++D)
    for (uint32_t I = 0; I != In.Docs[D].Queries.size(); ++I)
      Q[static_cast<int>(In.Docs[D].Queries[I].Fam)].push_back({D, I});
  for (auto &V : Q)
    shuffle(V, R);
}

/// Event cycles for complete-miss and complete-hit: three comment-only
/// edits (each toggling a document between its original text and its
/// variant) to every open of a fresh copy of a document, which is closed
/// again at once. Each is followed by one completion, its readiness probe.
class DocEvents {
public:
  DocEvents(Inputs &In, Rng &R)
      : In(In), Order(In.Docs.size()), Current(In.Docs.size(), 0) {
    for (uint32_t D = 0; D != Order.size(); ++D)
      Order[D] = D;
    shuffle(Order, R);
  }

  template <typename PickQuery> void emit(PickQuery Probe) {
    uint32_t D = Order[Next % Order.size()];
    if (Next++ % 4 == 3) {
      uint32_t Slot = NextSlot++;
      In.Events.push_back(open(D, 0, Slot, true));
      In.Events.push_back(complete(D, Probe(D, Slot), Slot));
      In.Events.push_back(closeOp(D, Slot));
      return;
    }
    Current[D] ^= 1;
    In.Events.push_back(change(D, Current[D], 0, true));
    In.Events.push_back(complete(D, Probe(D, 0)));
  }

private:
  Inputs &In;
  std::vector<uint32_t> Order, Current;
  size_t Next = 0;
  uint32_t NextSlot = 1;
};

void completeMiss(Inputs &In, Oracle &O) {
  projectDocs(In, O);
  Rng R(subSeed(In.Seed, 1000));
  // Probes after an edit are set aside per document, so no (document,
  // query) pair is sent twice: an edit re-keys cached answers, and a
  // repeat would be a replay.
  std::vector<std::vector<uint32_t>> Reserved(In.Docs.size());
  std::vector<std::set<uint32_t>> Taken(In.Docs.size());
  for (uint32_t D = 0; D != In.Docs.size(); ++D) {
    std::vector<uint32_t> Probes = probes(In.Docs[D], allQueries(In.Docs[D]));
    shuffle(Probes, R);
    Probes.resize(std::min(Probes.size(), ProbesPerDoc));
    Reserved[D] = Probes;
    Taken[D].insert(Probes.begin(), Probes.end());
  }
  std::vector<std::pair<uint32_t, uint32_t>> Q[3];
  familyQueues(In, R, Q);
  for (auto &V : Q)
    V.erase(std::remove_if(
                V.begin(), V.end(),
                [&](auto P) { return Taken[P.first].count(P.second) > 0; }),
            V.end());

  std::vector<size_t> Next(In.Docs.size(), 0);
  auto Probe = [&](uint32_t D, uint32_t Slot) {
    // A fresh copy has no answers yet: any reserved probe is new to it.
    return Slot ? Reserved[D][R.below(Reserved[D].size())]
                : Reserved[D][Next[D]++ % Reserved[D].size()];
  };
  for (uint32_t D = 0; D != In.Docs.size(); ++D) {
    In.Setup.push_back(open(D, 0));
    In.Setup.push_back(complete(D, Probe(D, 0)));
  }
  for (auto [D, I] : deckOrder(Q, R, SIZE_MAX))
    In.Timed.push_back(complete(D, I, 0, true));
  DocEvents Events(In, R);
  for (size_t I = 0; I != EventCycles; ++I)
    Events.emit(Probe);
  In.EventEveryMs = ProjectEventEveryMs;
}

void completeHit(Inputs &In, Oracle &O) {
  projectDocs(In, O);
  Rng R(subSeed(In.Seed, 1000));
  std::vector<std::pair<uint32_t, uint32_t>> Q[3];
  familyQueues(In, R, Q);
  std::vector<std::pair<uint32_t, uint32_t>> Primed =
      deckOrder(Q, R, HitPrimed);
  std::vector<std::vector<uint32_t>> PrimedOf(In.Docs.size());
  for (auto [D, I] : Primed)
    PrimedOf[D].push_back(I);
  std::vector<std::vector<uint32_t>> Probes(In.Docs.size());
  for (uint32_t D = 0; D != In.Docs.size(); ++D) {
    Probes[D] = probes(In.Docs[D], PrimedOf[D]);
    if (Probes[D].empty()) { // prime one for a document the deck missed
      Probes[D] = probes(In.Docs[D], allQueries(In.Docs[D]));
      Probes[D].resize(1);
      Primed.push_back({D, Probes[D][0]});
    }
  }

  // Set-up: open every document (its first completion is a primed query),
  // then prime the rest of the set.
  std::set<std::pair<uint32_t, uint32_t>> Sent;
  for (uint32_t D = 0; D != In.Docs.size(); ++D) {
    In.Setup.push_back(open(D, 0));
    In.Setup.push_back(complete(D, Probes[D].front()));
    Sent.insert({D, Probes[D].front()});
  }
  for (auto P : Primed)
    if (Sent.insert(P).second)
      In.Setup.push_back(complete(P.first, P.second));

  // Comment-only edits keep every cached answer (re-keyed to the new
  // version), so the probe after each is still a replay. Copies are
  // closed right after their probe, which drops their one cache entry.
  std::vector<size_t> Next(In.Docs.size(), 0);
  auto Probe = [&](uint32_t D, uint32_t) {
    return Probes[D][Next[D]++ % Probes[D].size()];
  };
  for (size_t Pass = 0; Pass != HitPasses; ++Pass) {
    shuffle(Primed, R);
    for (auto [D, I] : Primed)
      In.Timed.push_back(complete(D, I, 0, true));
  }
  DocEvents Events(In, R);
  for (size_t I = 0; I != EventCycles; ++I)
    Events.emit(Probe);
  In.EventEveryMs = ProjectEventEveryMs;
}

/// The edit loop shared by edit-type and workspace-overlay: from the
/// original text, apply the next kind off a shuffled EditDeck; from an
/// edited version, edit back. Either way the first completion lands in
/// the edited method.
struct EditCycler {
  const DocSpec &D;
  std::map<std::string, std::vector<uint32_t>> ByMethod;
  std::vector<uint32_t> OfKind[3];
  size_t NextOfKind[3] = {0, 0, 0};
  std::vector<int> Deck;
  size_t DeckPos = 0;
  uint32_t Current = 0;

  explicit EditCycler(const DocSpec &D) : D(D), ByMethod(queriesByMethod(D)) {
    for (uint32_t V = 1; V != D.Versions.size(); ++V)
      OfKind[static_cast<int>(D.Versions[V].Kind) - 1].push_back(V);
    for (int K = 0; K != 3; ++K)
      Deck.insert(Deck.end(), EditDeck[K], K);
  }

  /// The version the next edit moves to.
  uint32_t next(Rng &R) {
    if (Current != 0)
      return Current = 0;
    if (DeckPos % Deck.size() == 0)
      shuffle(Deck, R);
    int K = Deck[DeckPos++ % Deck.size()];
    std::vector<uint32_t> &Vs = OfKind[K];
    return Current = Vs[NextOfKind[K]++ % Vs.size()];
  }

  const std::vector<uint32_t> &inMethod(uint32_t Edited) const {
    const TextVersion &V = D.Versions[Edited];
    return ByMethod.at(V.EditClass + "#" + V.EditMethod);
  }

  /// The edit op for the next cycle plus \p Completions completions in the
  /// edited method, the first of them a readiness probe.
  void edit(std::vector<Op> &Ops, uint32_t Doc, uint32_t Slot,
            int Completions, Rng &R, bool CycleStart) {
    uint32_t Prev = Current;
    uint32_t To = next(R);
    Ops.push_back(change(Doc, To, Slot, CycleStart));
    const std::vector<uint32_t> &Local = inMethod(To ? To : Prev);
    std::vector<uint32_t> Probes = probes(D, Local);
    Ops.push_back(complete(Doc, Probes[R.below(Probes.size())], Slot));
    for (int I = 1; I < Completions; ++I)
      Ops.push_back(complete(Doc, Local[R.below(Local.size())], Slot));
  }
};

void editType(Inputs &In, Oracle &O) {
  ProjectProfile Prof = paperProjectProfiles(EditScale)[0];
  DocSpec D;
  D.Name = Prof.Name + ".cs";
  D.Versions.push_back(original(projectSource(Prof, subSeed(In.Seed, 0))));
  harvestInto(D, 0, O);
  addVariants(D, subSeed(In.Seed, 100), EditVariants,
              {EditKind::Body, EditKind::Noop, EditKind::Signature}, 3);
  In.Docs.push_back(std::move(D));
  const DocSpec &Doc = In.Docs[0];

  Rng R(subSeed(In.Seed, 1000));
  FamilyDealer Any(In.Docs);
  std::vector<uint32_t> Probes = probes(Doc, allQueries(Doc));
  auto Probe = [&] { return Probes[R.below(Probes.size())]; };
  In.Setup.push_back(open(0, 0));
  In.Setup.push_back(complete(0, Probe()));

  EditCycler C(Doc);
  for (size_t Cycle = 0; Cycle != TimedCycles; ++Cycle) {
    C.edit(In.Timed, 0, 0, 3, R, true);
    for (int I = 0; I != 24; ++I)
      In.Timed.push_back(complete(0, Any.next(0, R)));
  }
  // The edit loop has no opens: events open a copy of the document, probe
  // it and close it.
  for (uint32_t Slot = 1; Slot <= EventCycles; ++Slot) {
    In.Events.push_back(open(0, 0, Slot, true));
    In.Events.push_back(complete(0, Probe(), Slot));
    In.Events.push_back(closeOp(0, Slot));
  }
  In.EventEveryMs = EditEventEveryMs;
}

/// Splits a project's source into its framework (the base) and its client
/// classes, each wrapped in its namespace so base + document is the
/// project again up to class order.
void splitClients(const std::string &Source, std::string &Base,
                  std::vector<std::pair<std::string, std::string>> &Clients) {
  std::vector<std::string> Lines = splitLines(Source), Kept;
  std::string NsLine;
  for (size_t I = 0; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    if (startsWith(L, "namespace "))
      NsLine = L;
    if (startsWith(L, "  class ") && L.find("Client") != std::string::npos) {
      std::string Name = L.substr(8, L.find_first_of(" :{", 8) - 8);
      std::vector<std::string> Block{NsLine};
      for (; I < Lines.size(); ++I) {
        Block.push_back(Lines[I]);
        if (Lines[I] == "  }")
          break;
      }
      Block.push_back("}");
      std::string Ns = NsLine.substr(10, NsLine.find(' ', 10) - 10);
      Clients.push_back({Ns + "." + Name, joinLines(Block)});
      continue;
    }
    Kept.push_back(L);
  }
  Base = joinLines(Kept);
}

void workspaceOverlay(Inputs &In, Oracle &O) {
  ProjectProfile Prof = paperProjectProfiles(OverlayScale)[0];
  std::string Source = projectSource(Prof, subSeed(In.Seed, 0));
  std::vector<std::pair<std::string, std::string>> Clients;
  splitClients(Source, In.BaseSource, Clients);

  // Harvest once over the whole project; base + document differs from it
  // only in class order, and each document's queries stay in its class.
  // Every client class is a document, so a run's traffic covers the whole
  // client side of the project whatever the seed.
  Rng R(subSeed(In.Seed, 1000));
  shuffle(Clients, R);
  DocSpec Whole;
  Whole.Versions.push_back(original(Source));
  std::set<std::string> Names;
  for (auto &C : Clients)
    Names.insert(C.first);
  const uint32_t WholeIndex = 1u << 20; // oracle slot outside the doc range
  harvestInto(Whole, WholeIndex, O, Names);
  for (uint32_t I = 0; I != Clients.size(); ++I) {
    DocSpec D;
    D.Name = Clients[I].first.substr(Clients[I].first.rfind('.') + 1) + ".cs";
    D.Versions.push_back(original(Clients[I].second));
    for (const QuerySpec &Q : Whole.Queries)
      if (Q.Class == Clients[I].first)
        D.Queries.push_back(Q);
    addVariants(D, subSeed(In.Seed, 100 + I), 1,
                {EditKind::Body, EditKind::Noop, EditKind::Signature}, 3);
    In.Docs.push_back(std::move(D));
  }

  // The completions elsewhere in a document follow FamilyDeck, as in
  // complete-miss: small documents differ in their family mix, and the
  // slow argument queries would otherwise set the tail by which documents
  // the cycles happened to visit.
  FamilyDealer Any(In.Docs);
  std::vector<std::vector<uint32_t>> Probes;
  for (const DocSpec &D : In.Docs)
    Probes.push_back(probes(D, allQueries(D)));
  auto Probe = [&](uint32_t D) {
    return Probes[D][R.below(Probes[D].size())];
  };
  // Set-up opens every document once: the base is adopted and each
  // overlay built and queried before the timed phase.
  for (uint32_t D = 0; D != In.Docs.size(); ++D) {
    In.Setup.push_back(open(D, 0, 1));
    In.Setup.push_back(complete(D, Probe(D), 1));
  }
  std::vector<EditCycler> Cyclers;
  for (const DocSpec &D : In.Docs)
    Cyclers.emplace_back(D);
  // Cycles deal the documents from a deck reshuffled every round, so each
  // is visited equally often.
  std::vector<uint32_t> Deal(In.Docs.size());
  for (uint32_t D = 0; D != Deal.size(); ++D)
    Deal[D] = D;
  for (uint32_t Cycle = 0; Cycle != TimedCycles; ++Cycle) {
    if (Cycle % Deal.size() == 0)
      shuffle(Deal, R);
    uint32_t D = Deal[Cycle % Deal.size()];
    uint32_t Slot = 2 + Cycle;
    In.Timed.push_back(open(D, 0, Slot, true));
    In.Timed.push_back(complete(D, Probe(D), Slot));
    EditCycler &C = Cyclers[D];
    C.Current = 0; // every cycle opens the original text
    for (int E = 0; E != 3; ++E)
      C.edit(In.Timed, D, Slot, 2, R, false);
    for (int I = 0; I != 6; ++I)
      In.Timed.push_back(complete(D, Any.next(D, R), Slot));
    In.Timed.push_back(closeOp(D, Slot));
  }
}

} // namespace

const char *wirebench::workloadName(Workload W) {
  switch (W) {
  case Workload::CompleteMiss:
    return "complete-miss";
  case Workload::CompleteHit:
    return "complete-hit";
  case Workload::EditType:
    return "edit-type";
  case Workload::WorkspaceOverlay:
    return "workspace-overlay";
  }
  return "?";
}

bool wirebench::parseWorkload(const std::string &Name, Workload &Out) {
  for (Workload W : {Workload::CompleteMiss, Workload::CompleteHit,
                     Workload::EditType, Workload::WorkspaceOverlay})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

const char *wirebench::familyName(Family F) {
  switch (F) {
  case Family::Method:
    return "method";
  case Family::Argument:
    return "argument";
  case Family::Lookup:
    return "lookup";
  }
  return "?";
}

const char *wirebench::editKindName(EditKind K) {
  switch (K) {
  case EditKind::None:
    return "none";
  case EditKind::Body:
    return "body";
  case EditKind::Noop:
    return "noop";
  case EditKind::Signature:
    return "signature";
  }
  return "?";
}

const char *wirebench::expectedRoute(EditKind K) {
  switch (K) {
  case EditKind::Body:
    return "incremental-body";
  case EditKind::Noop:
    return "incremental-noop";
  case EditKind::None:
  case EditKind::Signature:
    return "full";
  }
  return "?";
}

uint64_t wirebench::subSeed(uint64_t Seed, uint64_t Index) {
  return mix(mix(Seed) ^ mix(Index + 0x5EEDull));
}

std::string Inputs::wireName(uint32_t Doc, uint32_t Slot) const {
  const std::string &N = Docs[Doc].Name;
  return Slot == 0 ? N : "s" + std::to_string(Slot) + "/" + N;
}

uint64_t Inputs::digest() const {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Bytes = [&](const void *P, size_t N) {
    for (size_t I = 0; I != N; ++I) {
      H ^= static_cast<const unsigned char *>(P)[I];
      H *= 0x100000001b3ull;
    }
  };
  auto Str = [&](const std::string &S) {
    uint64_t N = S.size();
    Bytes(&N, sizeof(N));
    Bytes(S.data(), S.size());
  };
  Str(BaseSource);
  Str(std::to_string(EventEveryMs));
  for (const DocSpec &D : Docs) {
    Str(D.Name);
    for (const TextVersion &V : D.Versions) {
      Str(V.Text);
      Str(editKindName(V.Kind));
    }
    for (const QuerySpec &Q : D.Queries) {
      Str(Q.Class + "#" + Q.Method + "#" + Q.Text);
      Str(familyName(Q.Fam));
    }
  }
  for (const std::vector<Op> *Ops : {&Setup, &Timed, &Events})
    for (const Op &O : *Ops) {
      uint32_t Fields[6] = {static_cast<uint32_t>(O.Kind), O.Doc, O.Version,
                            O.Query, O.Slot, O.CycleStart};
      Bytes(Fields, sizeof(Fields));
    }
  return H;
}

Inputs wirebench::generateInputs(Workload W, uint64_t Seed, Oracle &O) {
  Inputs In;
  In.W = W;
  In.Seed = Seed;
  switch (W) {
  case Workload::CompleteMiss:
    completeMiss(In, O);
    break;
  case Workload::CompleteHit:
    completeHit(In, O);
    break;
  case Workload::EditType:
    editType(In, O);
    break;
  case Workload::WorkspaceOverlay:
    workspaceOverlay(In, O);
    O.setBase(In.BaseSource);
    break;
  }
  return In;
}

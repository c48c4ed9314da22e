//===- wirebench/src/Oracle.cpp - Direct-engine reference answers ---------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "code/ExprPrinter.h"
#include "complete/BatchExecutor.h"
#include "parser/Frontend.h"
#include "service/Protocol.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>

using namespace petal;
using namespace wirebench;

struct Oracle::Entry {
  bool Ok = false;
  std::unique_ptr<TypeSystem> TS;
  std::unique_ptr<Program> P;
  std::unique_ptr<CompletionIndexes> Idx;
};

Oracle::Oracle() = default;
Oracle::~Oracle() = default;

void Oracle::setBase(std::string B) { Base = std::move(B); }

/// Parses \p Source into a fresh entry.
static std::unique_ptr<Oracle::Entry> buildEntry(const std::string &Source) {
  auto E = std::make_unique<Oracle::Entry>();
  E->TS = std::make_unique<TypeSystem>();
  E->P = std::make_unique<Program>(*E->TS);
  DiagnosticEngine Diags;
  E->Ok = loadProgramText(Source, *E->P, Diags);
  if (E->Ok)
    E->Idx = std::make_unique<CompletionIndexes>(*E->P);
  return E;
}

Oracle::Entry *Oracle::entry(uint32_t Doc, uint32_t Version,
                             const std::string &Text) {
  std::unique_ptr<Entry> &E = Entries[{Doc, Version}];
  if (!E)
    E = buildEntry(Base.empty() ? Text : Base + "\n" + Text);
  return E->Ok ? E.get() : nullptr;
}

Program *Oracle::program(uint32_t Doc, uint32_t Version,
                         const std::string &Text) {
  Entry *E = entry(Doc, Version, Text);
  return E ? E->P.get() : nullptr;
}

static const PartialExpr *parseAt(Program &P, const QuerySpec &Q,
                                  CodeSite &Site) {
  const CodeClass *Class = findCodeClass(P, Q.Class);
  if (!Class)
    return nullptr;
  const CodeMethod *Method = findCodeMethod(P, *Class, Q.Method);
  if (!Method)
    return nullptr;
  QueryScope Scope = scopeAtEnd(Class, Method);
  DiagnosticEngine Diags;
  Site = CodeSite{Class, Method, Scope.StmtIndex};
  return parseQueryText(Q.Text, P, Scope, Diags);
}

static std::string answerKey(const QuerySpec &Q) {
  return Q.Class + '\x1f' + Q.Method + '\x1f' + Q.Text;
}

bool Oracle::queryParses(uint32_t Doc, uint32_t Version,
                         const std::string &Text, const QuerySpec &Q) {
  Program *P = program(Doc, Version, Text);
  CodeSite Site;
  return P && parseAt(*P, Q, Site);
}

/// Answers \p Asks, all on \p E's text, into \p Out (serialized exactly as
/// service/Session.cpp runCompletion does, so the comparison is on bytes).
static void answer(Oracle::Entry &E,
                   const std::vector<const Oracle::Ask *> &Asks,
                   std::unordered_map<std::string, std::string> &Out) {
  BatchExecutor Exec(*E.P, *E.Idx, 1);
  std::vector<BatchExecutor::Request> Requests;
  std::vector<std::string *> Slots;
  for (const Oracle::Ask *A : Asks) {
    auto [It, Fresh] = Out.try_emplace(answerKey(*A->Q));
    CodeSite Site;
    const PartialExpr *PE = Fresh ? parseAt(*E.P, *A->Q, Site) : nullptr;
    if (!PE)
      continue;
    BatchExecutor::Request R;
    R.Query = PE;
    R.Site = Site;
    R.N = ResultsPerQuery;
    Requests.push_back(R);
    Slots.push_back(&It->second);
  }
  // In chunks, so that the results of one chunk are serialized and freed
  // before the next: a batch keeps every result it found alive.
  constexpr size_t Chunk = 256;
  for (size_t Begin = 0; Begin < Requests.size(); Begin += Chunk) {
    size_t End = std::min(Requests.size(), Begin + Chunk);
    BatchExecutor::BatchResult B = Exec.completeBatch(
        {Requests.begin() + Begin, Requests.begin() + End});
    for (size_t I = Begin; I != End; ++I) {
      json::Value List = json::Value::array();
      for (const Completion &C : B.Results[I - Begin]) {
        json::Value Item = json::Value::object();
        Item.set("expr", printExpr(*E.TS, C.E));
        Item.set("score", static_cast<int64_t>(C.Score));
        List.push(std::move(Item));
      }
      *Slots[I] = List.write();
    }
  }
}

void Oracle::precompute(const std::vector<Ask> &Asks, size_t Threads) {
  std::map<Key, std::vector<const Ask *>> ByDoc;
  for (const Ask &A : Asks)
    ByDoc[{A.Doc, A.Version}].push_back(&A);

  // One text per task, Threads at a time. Each task parses its text (or
  // takes the parse kept from input generation), answers its queries and
  // drops the parse, so memory holds at most Threads parses.
  struct Task {
    std::unique_ptr<Entry> *Parse;
    std::unordered_map<std::string, std::string> *Out;
    const std::vector<const Ask *> *List;
  };
  std::vector<Task> Tasks;
  for (auto &[K, List] : ByDoc)
    Tasks.push_back({&Entries[K], &Answers[K], &List});
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next++) < Tasks.size();) {
      const Task &T = Tasks[I];
      if (!*T.Parse) {
        const std::string &Text = *T.List->front()->Text;
        *T.Parse = buildEntry(Base.empty() ? Text : Base + "\n" + Text);
      }
      if ((*T.Parse)->Ok)
        answer(**T.Parse, *T.List, *T.Out);
      T.Parse->reset();
    }
  };
  std::vector<std::thread> Pool;
  for (size_t T = 1; T < std::min(Threads, Tasks.size()); ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}

const std::string &Oracle::completions(uint32_t Doc, uint32_t Version,
                                       const std::string &Text,
                                       const QuerySpec &Q) {
  static const std::string None;
  std::string K = answerKey(Q);
  auto Find = [&]() -> const std::string * {
    auto D = Answers.find({Doc, Version});
    if (D == Answers.end())
      return nullptr;
    auto It = D->second.find(K);
    return It == D->second.end() ? nullptr : &It->second;
  };
  if (const std::string *A = Find())
    return *A;
  precompute({{Doc, Version, &Text, &Q}}, 1);
  const std::string *A = Find();
  return A ? *A : None;
}

std::string
wirebench::expectedCompleteResponse(int64_t Id, const std::string &Doc,
                                    int64_t Version,
                                    const std::string &Completions) {
  json::Value List;
  std::string Error;
  if (!json::parse(Completions, List, Error))
    return {};
  json::Value R = json::Value::object();
  R.set("doc", Doc);
  R.set("version", Version);
  R.set("completions", std::move(List));
  rpc::RequestId RId;
  RId.Present = true;
  RId.Num = Id;
  return rpc::makeResult(RId, std::move(R)).write();
}

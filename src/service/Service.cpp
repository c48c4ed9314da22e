//===- service/Service.cpp - The petald completion service ----------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "service/Transport.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <istream>
#include <ostream>

using namespace petal;
using json::Value;

//===----------------------------------------------------------------------===//
// Construction / teardown
//===----------------------------------------------------------------------===//

PetalService::PetalService(const Options &Opts, ResponseSink Sink)
    : Opts(Opts), Sink(std::move(Sink)), Cache(Opts.CacheCapacity) {
  size_t Workers = std::max<size_t>(1, this->Opts.Workers);
  this->Opts.Workers = Workers;
  WorkerThreads.reserve(Workers);
  for (size_t W = 0; W != Workers; ++W)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  if (this->Opts.WatchdogMs > 0)
    WatchdogThread = std::thread([this] { watchdogLoop(); });
}

PetalService::~PetalService() {
  {
    std::lock_guard<std::mutex> L(M);
    StopWorkers = true;
    // Open every gate so a blocked $/test/block cannot wedge the join.
    for (auto &[Token, G] : Gates) {
      std::lock_guard<std::mutex> GL(G->GM);
      G->Opened = true;
      G->GCV.notify_all();
    }
  }
  WorkCV.notify_all();
  WatchdogCV.notify_all();
  for (std::thread &T : WorkerThreads)
    T.join();
  if (WatchdogThread.joinable())
    WatchdogThread.join();
}

//===----------------------------------------------------------------------===//
// Response plumbing
//===----------------------------------------------------------------------===//

void PetalService::respond(const Value &Message) {
  if (Sink)
    Sink(Message);
}

void PetalService::respondResult(const rpc::RequestId &Id, Value Result) {
  if (!Id.Present)
    return; // notification: no response channel
  respond(rpc::makeResult(Id, std::move(Result)));
}

void PetalService::respondError(const rpc::RequestId &Id, int Code,
                                const std::string &Message) {
  {
    std::lock_guard<std::mutex> L(StatsM);
    ++ErrorCount;
  }
  if (!Id.Present)
    return;
  respond(rpc::makeError(Id, Code, Message));
}

void PetalService::taskResult(Task &T, Value Result) {
  if (claim(T))
    respondResult(T.Id, std::move(Result));
}

void PetalService::taskError(Task &T, int Code, const std::string &Message) {
  if (claim(T))
    respondError(T.Id, Code, Message);
}

void PetalService::recordLatency(const Task &T) {
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T.Enqueued)
                  .count();
  std::lock_guard<std::mutex> L(StatsM);
  ++QueryCount;
  if (LatencyMs.size() < (1u << 20))
    LatencyMs.push_back(Ms);
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

bool PetalService::handleMessage(std::string_view Payload) {
  Value Message;
  std::string Error;
  if (!json::parse(Payload, Message, Error)) {
    {
      std::lock_guard<std::mutex> L(StatsM);
      ++ReceivedCount;
    }
    respond(rpc::makeError(rpc::RequestId(), rpc::ParseError,
                           "invalid JSON: " + Error));
    return true;
  }
  return handleParsed(std::move(Message));
}

bool PetalService::handleParsed(const Value &Message) {
  return handleParsed(Value(Message));
}

bool PetalService::handleParsed(Value &&Message) {
  {
    std::lock_guard<std::mutex> L(StatsM);
    ++ReceivedCount;
  }
  if (!Message.isObject()) {
    respond(rpc::makeError(rpc::RequestId(), rpc::InvalidRequest,
                           "message is not an object"));
    return true;
  }
  rpc::RequestId Id = rpc::RequestId::of(Message);
  std::string Method = Message.getString("method");
  if (Method.empty()) {
    respondError(Id, rpc::InvalidRequest, "missing 'method'");
    return true;
  }
  // The params move on to the task; a change's text is not copied.
  Value Params = Message.find("params") ? Message.take("params")
                                        : Value::object();
  try {
    dispatch(Message, Id, Method, std::move(Params));
  } catch (const std::exception &E) {
    // Crash-safe dispatch: a request that blows up while being routed
    // fails alone; the connection (and every other session) keeps going.
    {
      std::lock_guard<std::mutex> L(StatsM);
      ++IsolatedErrorCount;
    }
    respondError(Id, rpc::InternalError,
                 std::string("internal error during dispatch: ") + E.what());
  }
  return !exitRequested();
}

void PetalService::attachCtl(Task &T) {
  if (!T.Id.Present)
    return; // notification: nothing to answer, cancel, or watch
  auto Ctl = std::make_shared<RequestCtl>();
  Ctl->Id = T.Id;
  Ctl->Method = T.Method;
  if (T.DeadlineMs > 0) {
    Ctl->Sig.Deadline =
        T.Enqueued + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             T.DeadlineMs));
    Ctl->Sig.HasDeadline = true;
  }
  T.Ctl = std::move(Ctl);
}

void PetalService::shed(const rpc::RequestId &Id, size_t QueueDepth,
                        const std::string &Why) {
  double RetryMs;
  {
    std::lock_guard<std::mutex> L(StatsM);
    ++ShedCount;
    ++ErrorCount;
    // Little's-law flavored estimate: with Outstanding tasks ahead and
    // Workers draining at ~EwmaTaskMs each, the backlog clears in about
    // Outstanding x EwmaTaskMs / Workers. Never less than 1ms — "retry
    // immediately" defeats the point of shedding.
    RetryMs = std::max(
        1.0, EwmaTaskMs * static_cast<double>(QueueDepth) /
                 static_cast<double>(std::max<size_t>(1, Opts.Workers)));
  }
  if (!Id.Present)
    return;
  Value Data = Value::object();
  Data.set("retryAfterMs", RetryMs);
  respond(rpc::makeError(Id, rpc::ServerOverloaded,
                         "server overloaded: " + Why, std::move(Data)));
}

void PetalService::dispatch(const Value &, const rpc::RequestId &Id,
                            const std::string &Method, Value Params) {
  if (Method == "initialize") {
    Value Caps = Value::object();
    Caps.set("documentSync", "full");
    Caps.set("completion", true);
    Caps.set("cancel", true);
    Caps.set("stats", true);
    Value R = Value::object();
    R.set("name", "petald");
    R.set("version", "0.1.0");
    R.set("capabilities", std::move(Caps));
    respondResult(Id, std::move(R));
    return;
  }
  if (Method == "shutdown") {
    {
      std::lock_guard<std::mutex> L(M);
      ShuttingDown = true;
    }
    respondResult(Id, Value());
    return;
  }
  if (Method == "exit") {
    Exit.store(true, std::memory_order_relaxed);
    return;
  }
  if (Method == "$/cancelRequest") {
    rpc::RequestId Target = rpc::RequestId::of(Params);
    if (Target.Present) {
      bool InFlight = false;
      {
        std::lock_guard<std::mutex> L(M);
        // A currently-executing request gets its abort signal raised, so
        // in-flight deadline/abort checks abandon it at the next phase or
        // bucket boundary — not just queued ones, as LSP would allow.
        auto It = Executing.find(Target.key());
        if (It != Executing.end()) {
          It->second->AbortCode.store(rpc::RequestCancelled,
                                      std::memory_order_relaxed);
          It->second->Sig.abort();
          InFlight = true;
        } else if (QueuedIds.count(Target.key())) {
          // Only requests known to be waiting are marked; marking unknown
          // ids would let a hostile client grow the set without bound.
          CancelledIds.insert(Target.key());
        }
      }
      if (InFlight) {
        std::lock_guard<std::mutex> L(StatsM);
        ++CancelledInFlightCount;
      }
    }
    return; // notification
  }
  if (Method == "$/stats") {
    respondResult(Id, statsJson());
    return;
  }

  bool Rejected;
  {
    std::lock_guard<std::mutex> L(M);
    Rejected = ShuttingDown;
  }
  if (Rejected) {
    respondError(Id, rpc::ShuttingDown, "service is shutting down");
    return;
  }

  if (Method == "$/test/block" || Method == "$/test/release") {
    if (!Opts.EnableTestHooks) {
      respondError(Id, rpc::MethodNotFound,
                   "test hooks are disabled (" + Method + ")");
      return;
    }
    if (Method == "$/test/release") {
      releaseGate(Params.getString("token"));
      respondResult(Id, Value());
      return;
    }
    std::string Doc = Params.getString("doc");
    double DeadlineMs = Params.getNumber("deadlineMs", 0);
    Task T{Id, Method, std::move(Params), std::chrono::steady_clock::now(),
           DeadlineMs, nullptr};
    attachCtl(T);
    if (Doc.empty()) {
      enqueueGlobal(std::move(T));
      return;
    }
    std::shared_ptr<SessionState> S;
    {
      std::lock_guard<std::mutex> L(M);
      auto It = Sessions.find(Doc);
      if (It != Sessions.end())
        S = It->second;
    }
    if (!S) {
      respondError(Id, rpc::UnknownDocument, "no open document '" + Doc + "'");
      return;
    }
    enqueueSession(S, std::move(T));
    return;
  }

  bool IsOpen = Method == "petal/open";
  bool IsChange = Method == "petal/change";
  bool IsClose = Method == "petal/close";
  bool IsComplete = Method == "petal/complete";
  if (!IsOpen && !IsChange && !IsClose && !IsComplete) {
    respondError(Id, rpc::MethodNotFound, "unknown method '" + Method + "'");
    return;
  }

  std::string Doc = Params.getString("doc");
  if (Doc.empty()) {
    respondError(Id, rpc::InvalidParams, "missing string param 'doc'");
    return;
  }
  if (IsOpen || IsChange) {
    const Value *Text = Params.find("text");
    const Value *Version = Params.find("version");
    if (!Text || !Text->isString() || !Version || !Version->isNumber()) {
      respondError(Id, rpc::InvalidParams,
                   Method + " needs 'text' (string) and 'version' (number)");
      return;
    }
  }

  double DeadlineMs = Params.getNumber("deadlineMs", 0);
  Task T{Id, Method, std::move(Params), std::chrono::steady_clock::now(),
         DeadlineMs, nullptr};

  // Admission control, decided under the service lock *before* any session
  // state is created, so the admitted set is a pure function of arrival
  // order. FIFO-fair: admission never reorders — the first MaxQueue
  // arrivals are admitted, everything after them is shed until capacity
  // frees up.
  if (Opts.MaxQueue != 0) {
    size_t Depth;
    bool Shed;
    {
      std::lock_guard<std::mutex> L(M);
      Depth = Outstanding;
      Shed = Outstanding >= Opts.MaxQueue;
    }
    if (Shed) {
      shed(Id, Depth, "run queue is full (" + std::to_string(Depth) + "/" +
                          std::to_string(Opts.MaxQueue) + " outstanding)");
      return;
    }
  }

  std::shared_ptr<SessionState> S;
  bool AlreadyOpen = false;
  bool StrandFull = false;
  size_t StrandDepth = 0;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Sessions.find(Doc);
    if (It != Sessions.end())
      S = It->second;
    if (IsOpen) {
      if (S) {
        AlreadyOpen = true;
      } else {
        S = std::make_shared<SessionState>();
        S->Name = Doc;
        Sessions[Doc] = S;
      }
    }
    if (S && Opts.MaxStrandDepth != 0 &&
        S->Pending.size() >= Opts.MaxStrandDepth) {
      StrandFull = true;
      StrandDepth = S->Pending.size();
    }
  }
  if (AlreadyOpen) {
    respondError(Id, rpc::InvalidParams,
                 "document '" + Doc + "' is already open");
    return;
  }
  if (!S) {
    respondError(Id, rpc::UnknownDocument, "no open document '" + Doc + "'");
    return;
  }
  if (StrandFull) {
    shed(Id, StrandDepth,
         "session '" + Doc + "' strand is full (" +
             std::to_string(StrandDepth) + "/" +
             std::to_string(Opts.MaxStrandDepth) + " pending)");
    return;
  }
  if (IsOpen && Opts.MaxSessions != 0)
    enforceSessionCap(S.get());
  attachCtl(T);
  enqueueSession(S, std::move(T));
}

void PetalService::enforceSessionCap(const SessionState *Keep) {
  std::vector<std::shared_ptr<SessionState>> Evicted;
  {
    std::lock_guard<std::mutex> L(M);
    while (Sessions.size() > Opts.MaxSessions) {
      // Least-recently-touched *idle* victim: nothing queued and no worker
      // on its strand, so nobody but us can reach its DocumentState. Busy
      // sessions are spared even if older — evicting one would yank state
      // out from under its running strand; the cap is then temporarily
      // exceeded until they drain.
      SessionState *Victim = nullptr;
      for (auto &[Name, SS] : Sessions) {
        if (SS.get() == Keep || !SS->Pending.empty() || SS->Scheduled)
          continue;
        if (!Victim || SS->LastTouched < Victim->LastTouched)
          Victim = SS.get();
      }
      if (!Victim)
        break;
      Victim->Open = false;
      auto It = Sessions.find(Victim->Name);
      Evicted.push_back(std::move(It->second));
      Sessions.erase(It);
    }
  }
  for (const std::shared_ptr<SessionState> &S : Evicted) {
    S->Doc.reset();
    Cache.invalidate(S->Name);
  }
  if (!Evicted.empty()) {
    std::lock_guard<std::mutex> L(StatsM);
    EvictedCount += Evicted.size();
    for (const std::shared_ptr<SessionState> &S : Evicted)
      SessionBytes.erase(S->Name);
  }
}

void PetalService::enqueueSession(const std::shared_ptr<SessionState> &S,
                                  Task T) {
  {
    std::lock_guard<std::mutex> L(M);
    if (T.Id.Present)
      QueuedIds.insert(T.Id.key());
    ++Outstanding;
    QueueHighWater = std::max(QueueHighWater, Outstanding);
    S->LastTouched = ++TouchCounter; // recency for --max-sessions eviction
    S->Pending.push_back(std::move(T));
    StrandHighWater = std::max(StrandHighWater, S->Pending.size());
    if (!S->Scheduled) {
      S->Scheduled = true;
      RunQueue.push_back(RunItem{S, Task{}});
    }
  }
  WorkCV.notify_one();
}

void PetalService::enqueueGlobal(Task T) {
  {
    std::lock_guard<std::mutex> L(M);
    if (T.Id.Present)
      QueuedIds.insert(T.Id.key());
    ++Outstanding;
    QueueHighWater = std::max(QueueHighWater, Outstanding);
    RunQueue.push_back(RunItem{nullptr, std::move(T)});
  }
  WorkCV.notify_one();
}

void PetalService::waitIdle() {
  std::unique_lock<std::mutex> L(M);
  IdleCV.wait(L, [&] { return Outstanding == 0; });
}

void PetalService::releaseGate(const std::string &Token) {
  std::shared_ptr<Gate> G;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Gates.find(Token);
    if (It == Gates.end()) {
      // Release-before-block: create the gate already opened so the
      // upcoming block falls straight through.
      G = std::make_shared<Gate>();
      Gates[Token] = G;
    } else {
      G = It->second;
    }
  }
  std::lock_guard<std::mutex> GL(G->GM);
  G->Opened = true;
  G->GCV.notify_all();
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void PetalService::workerLoop() {
  for (;;) {
    std::shared_ptr<SessionState> S;
    Task T;
    {
      std::unique_lock<std::mutex> L(M);
      WorkCV.wait(L, [&] { return StopWorkers || !RunQueue.empty(); });
      if (RunQueue.empty())
        return; // StopWorkers and fully drained
      RunItem Item = std::move(RunQueue.front());
      RunQueue.pop_front();
      if (Item.Session) {
        S = std::move(Item.Session);
        T = std::move(S->Pending.front());
        S->Pending.pop_front();
      } else {
        T = std::move(Item.Global);
      }
      if (T.Ctl) {
        // Publish the task as executing: from here until the erase below,
        // $/cancelRequest aborts it in flight and the watchdog patrols it.
        T.Ctl->Started = std::chrono::steady_clock::now();
        Executing[T.Id.key()] = T.Ctl;
      }
    }

    auto RunStart = std::chrono::steady_clock::now();
    // Per-request isolation: an exception escaping a task — a genuine bug
    // or an injected build fault — becomes an InternalError on *this*
    // request; the worker, the session, and every other request live on.
    try {
      runTask(S, T);
    } catch (const InjectedFault &E) {
      // The only injected fault that propagates this far is BuildThrow
      // (the others recover inside their own layer); surviving it cleanly
      // IS its recovery path.
      FaultInjector::instance().noteRecovered(Fault::BuildThrow);
      {
        std::lock_guard<std::mutex> L(StatsM);
        ++IsolatedErrorCount;
      }
      taskError(T, rpc::InternalError,
                std::string("internal error: ") + E.what());
    } catch (const std::exception &E) {
      {
        std::lock_guard<std::mutex> L(StatsM);
        ++IsolatedErrorCount;
      }
      taskError(T, rpc::InternalError,
                std::string("internal error: ") + E.what());
    } catch (...) {
      {
        std::lock_guard<std::mutex> L(StatsM);
        ++IsolatedErrorCount;
      }
      taskError(T, rpc::InternalError, "internal error: unknown exception");
    }
    // Exactly-one-response backstop: a task that slipped through every
    // response path still answers (claim() makes the double-response
    // direction impossible; this closes the zero-response one).
    if (T.Ctl && !T.Ctl->Responded.load(std::memory_order_acquire))
      taskError(T, rpc::InternalError,
                "internal error: task finished without a response");

    {
      double TaskMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - RunStart)
                          .count();
      std::lock_guard<std::mutex> L(StatsM);
      EwmaTaskMs = EwmaTaskMs == 0 ? TaskMs : 0.8 * EwmaTaskMs + 0.2 * TaskMs;
    }

    {
      std::lock_guard<std::mutex> L(M);
      if (S) {
        if (!S->Pending.empty())
          RunQueue.push_back(RunItem{S, Task{}});
        else
          S->Scheduled = false;
      }
      if (T.Id.Present) {
        QueuedIds.erase(T.Id.key());
        CancelledIds.erase(T.Id.key());
        Executing.erase(T.Id.key());
      }
      if (--Outstanding == 0)
        IdleCV.notify_all();
      if (!RunQueue.empty())
        WorkCV.notify_one();
    }
  }
}

void PetalService::watchdogLoop() {
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    // Patrol at a fraction of the budget so an overrun is caught within
    // ~1.25x WatchdogMs of starting, without busy-polling.
    WatchdogCV.wait_for(
        L, std::chrono::duration<double, std::milli>(
               std::max(1.0, Opts.WatchdogMs / 4.0)),
        [&] { return StopWorkers; });
    if (StopWorkers)
      return;
    auto Now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<RequestCtl>> Victims;
    for (auto &[Key, Ctl] : Executing) {
      double RanMs = std::chrono::duration<double, std::milli>(
                         Now - Ctl->Started)
                         .count();
      if (RanMs > Opts.WatchdogMs &&
          !Ctl->Responded.load(std::memory_order_acquire))
        Victims.push_back(Ctl);
    }
    if (Victims.empty())
      continue;
    // Respond outside M: the sink may block, and lock order is sink-free.
    L.unlock();
    uint64_t Fired = 0;
    for (const std::shared_ptr<RequestCtl> &Ctl : Victims) {
      Ctl->AbortCode.store(rpc::InternalError, std::memory_order_relaxed);
      Ctl->Sig.abort();
      if (!Ctl->Responded.exchange(true)) {
        ++Fired;
        respondError(Ctl->Id, rpc::InternalError,
                     "watchdog: " + Ctl->Method + " exceeded the " +
                         std::to_string(Opts.WatchdogMs) +
                         " ms execution budget");
      }
    }
    if (Fired) {
      std::lock_guard<std::mutex> SL(StatsM);
      WatchdogFiredCount += Fired;
    }
    L.lock();
  }
}

void PetalService::respondAborted(Task &T, const std::string &What) {
  int Code = T.Ctl ? T.Ctl->AbortCode.load(std::memory_order_relaxed) : 0;
  if (Code == 0) {
    // No explicit aborter: the deadline itself expired mid-execution.
    Code = rpc::DeadlineExceeded;
    std::lock_guard<std::mutex> L(StatsM);
    ++DeadlineAbandonedCount;
  }
  taskError(T, Code, What + " abandoned mid-execution (" +
                         (Code == rpc::RequestCancelled ? "cancelled"
                          : Code == rpc::DeadlineExceeded
                              ? "deadline expired"
                              : "aborted") +
                         ")");
}

void PetalService::runTask(const std::shared_ptr<SessionState> &S, Task &T) {
  if (T.Id.Present) {
    bool Cancelled;
    {
      std::lock_guard<std::mutex> L(M);
      Cancelled = CancelledIds.count(T.Id.key()) != 0;
    }
    if (Cancelled) {
      {
        std::lock_guard<std::mutex> L(StatsM);
        ++CancelledCount;
      }
      taskError(T, rpc::RequestCancelled, "request cancelled");
      return;
    }
  }
  if (T.DeadlineMs > 0) {
    double WaitedMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - T.Enqueued)
                          .count();
    if (WaitedMs > T.DeadlineMs) {
      {
        std::lock_guard<std::mutex> L(StatsM);
        ++DeadlineCount;
      }
      taskError(T, rpc::DeadlineExceeded,
                "deadline of " + std::to_string(T.DeadlineMs) +
                    " ms expired before execution");
      return;
    }
  }

  if (T.Method == "$/test/block") {
    execBlock(T);
    return;
  }
  if (!S) {
    taskError(T, rpc::InvalidRequest,
              "internal: session task without session");
    return;
  }
  if (T.Method == "petal/open")
    execOpenChange(*S, T, /*IsChange=*/false);
  else if (T.Method == "petal/change")
    execOpenChange(*S, T, /*IsChange=*/true);
  else if (T.Method == "petal/close")
    execClose(*S, T);
  else if (T.Method == "petal/complete")
    execComplete(*S, T);
  else
    taskError(T, rpc::MethodNotFound,
              "unknown session method '" + T.Method + "'");
}

void PetalService::execOpenChange(SessionState &S, Task &T, bool IsChange) {
  {
    std::lock_guard<std::mutex> L(M);
    if (!S.Open) {
      // Closed while this task was queued behind the close.
      taskError(T, rpc::UnknownDocument,
                "document '" + S.Name + "' was closed");
      return;
    }
  }
  int64_t Version = T.Params.getInt("version", 0);
  if (IsChange && S.Doc && Version <= S.Doc->Version) {
    taskError(T, rpc::InvalidParams,
              "version must increase (current " +
                  std::to_string(S.Doc->Version) + ", got " +
                  std::to_string(Version) + ")");
    return;
  }

  std::string Error;
  // An edit hands the previous state in as the incremental-build baseline;
  // an open always builds fresh (as an overlay when the workspace has a
  // shared base corpus). S.Doc is safe to read here: session strands
  // serialize everything that touches it.
  const DocumentState *Prev = IsChange ? S.Doc.get() : nullptr;
  const AbortSignal *Sig = T.Ctl ? &T.Ctl->Sig : nullptr;
  std::unique_ptr<DocumentState> Built;
  bool Threw = false;
  try {
    // The text moves from the request into the document: a large edit's
    // text is never copied between the wire and the build.
    Built = buildDocumentState(S.Name, T.Params.takeString("text"), Version,
                               /*DocThreads=*/1, Error, Prev, Opts.Base, Sig);
  } catch (const InjectedFault &E) {
    // BuildThrow's recovery path: surviving with the session in a defined
    // state IS the recovery (DESIGN.md §15).
    FaultInjector::instance().noteRecovered(Fault::BuildThrow);
    Threw = true;
    Error = E.what();
  } catch (const std::exception &E) {
    Threw = true;
    Error = E.what();
  }
  if (Threw) {
    // A build that threw (rather than returning an error) is still
    // confined to this request, with the same session guarantees a failed
    // build gives: an open holds no session (the name is immediately
    // reusable), a change keeps answering from its previous version. The
    // generic workerLoop wrapper would catch this too, but could not
    // clean up the half-opened session.
    {
      std::lock_guard<std::mutex> L(StatsM);
      ++IsolatedErrorCount;
    }
    if (!IsChange) {
      std::lock_guard<std::mutex> L(M);
      S.Open = false;
      auto It = Sessions.find(S.Name);
      if (It != Sessions.end() && It->second.get() == &S)
        Sessions.erase(It);
    }
    taskError(T, rpc::InternalError,
              "internal error: " +
                  std::string(IsChange ? "change" : "open") + " of '" +
                  S.Name + "' threw (" + Error + "); document " +
                  (IsChange ? "keeps version " +
                                  std::to_string(S.Doc ? S.Doc->Version : 0)
                            : "not opened"));
    return;
  }
  if (!Built && Sig && Sig->aborted()) {
    // Abandoned, not failed: the session state is exactly what it was —
    // an open holds no session, a change keeps its previous version.
    if (!IsChange) {
      std::lock_guard<std::mutex> L(M);
      S.Open = false;
      auto It = Sessions.find(S.Name);
      if (It != Sessions.end() && It->second.get() == &S)
        Sessions.erase(It);
    }
    respondAborted(T, std::string(IsChange ? "change" : "open") + " of '" +
                          S.Name + "'");
    return;
  }
  if (!Built) {
    {
      std::lock_guard<std::mutex> L(StatsM);
      ++BuildFailCount;
    }
    if (!IsChange) {
      // A document that never had a good build holds no session open.
      std::lock_guard<std::mutex> L(M);
      S.Open = false;
      auto It = Sessions.find(S.Name);
      if (It != Sessions.end() && It->second.get() == &S)
        Sessions.erase(It);
    }
    // On change: the previous DocumentState — text, version, indexes — is
    // untouched; the session keeps answering queries against it.
    taskError(T, rpc::BuildFailed,
              std::string(IsChange ? "change" : "open") +
                  " failed; document " +
                  (IsChange
                       ? "keeps version " +
                             std::to_string(S.Doc ? S.Doc->Version : 0)
                       : "not opened") +
                  ": " + Error);
    return;
  }

  size_t Retained = 0;
  if (IsChange) {
    if (Built->incremental() && S.Doc) {
      // Scoped invalidation: an entry survives the version bump iff its
      // engine inputs are provably unchanged — the type graph matched
      // (or we would not be incremental), its declaration unit's
      // signature *and* bodies are hash-identical, and, when the entry's
      // ranking read the corpus-wide abstract-type solution, that
      // solution carried over (no-op edits only). Survivors are re-keyed
      // to the new version and replayed with it stamped in.
      const bool SolutionShared = Built->sharedSolution();
      const DocumentShape &OldShape = S.Doc->Parsed.Shape;
      const DocumentShape &NewShape = Built->Parsed.Shape;
      Retained = Cache.retarget(
          S.Name, Version, [&](const ResultCache::EntryMeta &E) {
            if (E.UsesAbstract && !SolutionShared)
              return false;
            return NewShape.unitUnchanged(OldShape, E.Class);
          });
    } else {
      Cache.invalidate(S.Name);
    }
  }
  double BuiltMs = Built->BuildMillis;
  size_t NumTypes = Built->TS->numTypes();
  size_t NumMethods = Built->TS->numMethods();
  size_t DocBytes = Built->memoryBytes();
  DocumentState::BuildKind Kind = Built->Kind;
  bool Degraded = Built->DegradedMonolithic;
  S.Doc = std::move(Built);
  {
    std::lock_guard<std::mutex> L(StatsM);
    SessionBytes[S.Name] = DocBytes;
    ++BuildCount;
    if (Degraded)
      ++DegradedBuildCount;
    if (Kind == DocumentState::BuildKind::Full) {
      ++FullBuildCount;
    } else {
      ++IncrementalBuildCount;
      ++ReuseTypeSystemCount;
      ++ReuseIndexesCount;
      if (Kind == DocumentState::BuildKind::IncrementalNoop)
        ++ReuseSolutionCount;
    }
    CacheRetainedCount += Retained;
    BuildMs.push_back(BuiltMs);
  }

  Value R = Value::object();
  R.set("doc", S.Name);
  R.set("version", Version);
  R.set("types", NumTypes);
  R.set("methods", NumMethods);
  R.set("buildMs", BuiltMs);
  R.set("build", Kind == DocumentState::BuildKind::Full ? "full"
                 : Kind == DocumentState::BuildKind::IncrementalBody
                     ? "incremental-body"
                     : "incremental-noop");
  R.set("cacheRetained", Retained);
  if (Degraded)
    R.set("degraded", "monolithic");
  taskResult(T, std::move(R));
}

void PetalService::execClose(SessionState &S, Task &T) {
  {
    std::lock_guard<std::mutex> L(M);
    if (!S.Open) {
      taskError(T, rpc::UnknownDocument,
                "document '" + S.Name + "' was closed");
      return;
    }
    S.Open = false;
    auto It = Sessions.find(S.Name);
    if (It != Sessions.end() && It->second.get() == &S)
      Sessions.erase(It);
  }
  S.Doc.reset();
  Cache.invalidate(S.Name);
  {
    std::lock_guard<std::mutex> L(StatsM);
    SessionBytes.erase(S.Name);
  }
  taskResult(T, Value());
}

void PetalService::execComplete(SessionState &S, Task &T) {
  {
    std::lock_guard<std::mutex> L(M);
    if (!S.Open) {
      taskError(T, rpc::UnknownDocument,
                "document '" + S.Name + "' was closed");
      return;
    }
  }
  if (!S.Doc) {
    taskError(T, rpc::UnknownDocument,
              "document '" + S.Name + "' has no built version");
    return;
  }

  CompleteSpec Spec;
  std::string Error;
  if (!parseCompleteSpec(T.Params, Spec, Error)) {
    taskError(T, rpc::InvalidParams, Error);
    return;
  }

  if (const Value *V = T.Params.find("version")) {
    if (V->isNumber() && V->intValue() != S.Doc->Version) {
      {
        std::lock_guard<std::mutex> L(StatsM);
        ++StaleCount;
      }
      taskError(T, rpc::ContentModified,
                "stale version " + std::to_string(V->intValue()) +
                    " (current " + std::to_string(S.Doc->Version) + ")");
      return;
    }
  }

  std::string SpecKey = encodeSpecKey(Spec);
  int64_t DocVersion = S.Doc->Version;
  std::string CachedPayload;
  bool Hit = Cache.probe(S.Name, DocVersion, SpecKey, CachedPayload);
  bool FromExplain = false;
  if (!Hit && !Spec.Opts.Explain) {
    // An explain=true payload strictly contains the explain=false answer
    // (same expressions, same scores, plus the per-term breakdowns), so a
    // plain request can be served from the explain variant's entry by
    // stripping the extras on replay.
    CompleteSpec Twin = Spec;
    Twin.Opts.Explain = true;
    Hit = Cache.probe(S.Name, DocVersion, encodeSpecKey(Twin),
                      CachedPayload);
    FromExplain = Hit;
  }
  if (!Hit)
    Cache.noteMiss();
  if (Hit) {
    Value Completions;
    std::string ParseErr;
    bool Ok = json::parse(CachedPayload, Completions, ParseErr);
    (void)Ok;
    assert(Ok && "cache holds only service-serialized results");
    if (FromExplain) {
      // Keep exactly the members a plain run would have produced, in the
      // order it produces them, so the replayed bytes stay identical to a
      // computed plain answer.
      Value Plain = Value::array();
      for (const Value &Item : Completions.elements()) {
        Value P = Value::object();
        if (const Value *E = Item.find("expr"))
          P.set("expr", *E);
        if (const Value *Sc = Item.find("score"))
          P.set("score", *Sc);
        Plain.push(std::move(P));
      }
      Completions = std::move(Plain);
    }
    Value R = Value::object();
    R.set("doc", S.Name);
    R.set("version", DocVersion);
    R.set("completions", std::move(Completions));
    recordLatency(T);
    taskResult(T, std::move(R));
    return;
  }

  // Thread the request's abort signal into the engine: a cancel, expired
  // deadline, or watchdog strike abandons the enumeration at the next
  // score-bucket boundary. Set only now — after the cache key was
  // computed — so the signal can never leak into keying or replay.
  if (T.Ctl)
    Spec.Opts.Abort = &T.Ctl->Sig;
  QueryOutcome O = runCompletion(*S.Doc, Spec);
  if (O.Stats.Abandoned) {
    respondAborted(T, "petal/complete on '" + S.Name + "'");
    return; // partial results: never cached, never returned
  }
  if (!O.Ok) {
    taskError(T, O.ErrCode, O.ErrMsg);
    return;
  }
  {
    std::lock_guard<std::mutex> L(StatsM);
    if (O.Stats.ScoreCeilingHit)
      ++ScoreCeilingHitCount;
    if (O.Explained) {
      ++ExplainedCount;
      for (size_t I = 0; I != NumScoreTerms; ++I)
        TermTotals[I] += O.TermTotals[I];
    }
  }
  // The cached payload is the completions array alone; doc and version are
  // stamped on at replay time, which is what lets retarget() carry an
  // entry across an edit without rewriting its bytes.
  bool UsesAbstract =
      Spec.Opts.UseAbstractTypes && Spec.Opts.Rank.UseAbstractTypes;
  Cache.insert(S.Name, DocVersion, SpecKey,
               {O.ClassQualName, Spec.Method, UsesAbstract},
               O.Completions.write());
  Value R = Value::object();
  R.set("doc", S.Name);
  R.set("version", DocVersion);
  R.set("completions", std::move(O.Completions));
  recordLatency(T);
  taskResult(T, std::move(R));
}

void PetalService::execBlock(Task &T) {
  std::string Token = T.Params.getString("token");
  std::shared_ptr<Gate> G;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Gates.find(Token);
    if (It == Gates.end()) {
      G = std::make_shared<Gate>();
      Gates[Token] = G;
    } else {
      G = It->second;
    }
  }
  {
    // Poll rather than wait unconditionally: an aborter (cancel, deadline,
    // watchdog) cannot know which gate this task sits on, so the task
    // itself must notice the signal and walk away.
    std::unique_lock<std::mutex> GL(G->GM);
    while (!G->Opened) {
      if (T.Ctl && T.Ctl->Sig.aborted()) {
        GL.unlock();
        respondAborted(T, "$/test/block on '" + Token + "'");
        return;
      }
      G->GCV.wait_for(GL, std::chrono::milliseconds(2));
    }
  }
  Value R = Value::object();
  R.set("released", Token);
  taskResult(T, std::move(R));
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

/// The \p Q-th percentile (nearest-rank) of \p Samples; 0 when empty.
static double percentileOf(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  size_t Rank = static_cast<size_t>(Q / 100.0 *
                                    static_cast<double>(Samples.size() - 1));
  std::nth_element(Samples.begin(),
                   Samples.begin() + static_cast<ptrdiff_t>(Rank),
                   Samples.end());
  return Samples[Rank];
}

json::Value PetalService::statsJson() {
  size_t NumSessions;
  size_t QueueDepth;
  size_t QueueHigh, StrandHigh, ExecutingNow;
  {
    std::lock_guard<std::mutex> L(M);
    NumSessions = Sessions.size();
    QueueDepth = Outstanding;
    QueueHigh = QueueHighWater;
    StrandHigh = StrandHighWater;
    ExecutingNow = Executing.size();
  }
  uint64_t Received, Queries, Cancelled, Deadline, Stale, Errors, Builds,
      BuildFails, Explained, CeilingHits, FullBuilds, IncBuilds, ReuseTS,
      ReuseIdx, ReuseSol, Retained, Evictions;
  uint64_t Shed, Abandoned, Isolated, Watchdogged, CancelledLive, Degraded;
  size_t OverlayBytes = 0;
  std::array<uint64_t, NumScoreTerms> Terms{};
  std::vector<double> Lat, Bld;
  {
    std::lock_guard<std::mutex> L(StatsM);
    Received = ReceivedCount;
    Queries = QueryCount;
    Cancelled = CancelledCount;
    Deadline = DeadlineCount;
    Stale = StaleCount;
    Errors = ErrorCount;
    Builds = BuildCount;
    BuildFails = BuildFailCount;
    Explained = ExplainedCount;
    CeilingHits = ScoreCeilingHitCount;
    FullBuilds = FullBuildCount;
    IncBuilds = IncrementalBuildCount;
    ReuseTS = ReuseTypeSystemCount;
    ReuseIdx = ReuseIndexesCount;
    ReuseSol = ReuseSolutionCount;
    Retained = CacheRetainedCount;
    Evictions = EvictedCount;
    Shed = ShedCount;
    Abandoned = DeadlineAbandonedCount;
    Isolated = IsolatedErrorCount;
    Watchdogged = WatchdogFiredCount;
    CancelledLive = CancelledInFlightCount;
    Degraded = DegradedBuildCount;
    for (const auto &[Name, Bytes] : SessionBytes)
      OverlayBytes += Bytes;
    Terms = TermTotals;
    Lat = LatencyMs;
    Bld = BuildMs;
  }
  uint64_t Hits = Cache.hits(), Misses = Cache.misses();

  Value CacheV = Value::object();
  CacheV.set("size", Cache.size());
  CacheV.set("capacity", Cache.capacity());
  CacheV.set("hits", Hits);
  CacheV.set("misses", Misses);
  CacheV.set("hitRate", Hits + Misses == 0
                            ? 0.0
                            : static_cast<double>(Hits) /
                                  static_cast<double>(Hits + Misses));

  Value LatV = Value::object();
  LatV.set("count", Lat.size());
  LatV.set("p50", percentileOf(Lat, 50));
  LatV.set("p90", percentileOf(Lat, 90));
  LatV.set("p99", percentileOf(Lat, 99));
  LatV.set("max", Lat.empty() ? 0.0
                              : *std::max_element(Lat.begin(), Lat.end()));

  Value R = Value::object();
  R.set("service", "petald");
  R.set("workers", Opts.Workers);
  R.set("sessions", NumSessions);
  R.set("maxSessions", Opts.MaxSessions);
  R.set("evictions", Evictions);
  R.set("outstanding", QueueDepth);
  R.set("received", Received);
  R.set("queries", Queries);
  R.set("cancelled", Cancelled);
  R.set("deadlineExpired", Deadline);
  R.set("staleRejected", Stale);
  R.set("errors", Errors);
  R.set("builds", Builds);
  R.set("buildFailures", BuildFails);
  R.set("scoreCeilingHits", CeilingHits);

  // Per-term cost aggregates over explained completions: the live
  // sensitivity view — which Fig. 7 terms are actually separating
  // candidates in this workload.
  Value TermsV = Value::object();
  for (ScoreTerm Term : AllScoreTerms)
    TermsV.set(std::string(1, scoreTermLetter(Term)),
               Terms[static_cast<size_t>(Term)]);
  Value ExplainV = Value::object();
  ExplainV.set("queries", Explained);
  ExplainV.set("termTotals", std::move(TermsV));
  R.set("explain", std::move(ExplainV));

  // Document-build telemetry: how edits are being served. Healthy editing
  // sessions show builds.incremental tracking body-only edits, the reuse
  // counters confirming which layers carried over, and buildMs.p50 far
  // below the full-build cost (the point of DESIGN.md §12).
  Value BuildsV = Value::object();
  BuildsV.set("total", Builds);
  BuildsV.set("full", FullBuilds);
  BuildsV.set("incremental", IncBuilds);
  Value ReuseV = Value::object();
  ReuseV.set("typesystem", ReuseTS);
  ReuseV.set("indexes", ReuseIdx);
  ReuseV.set("solution", ReuseSol);
  Value BuildMsV = Value::object();
  BuildMsV.set("count", Bld.size());
  BuildMsV.set("p50", percentileOf(Bld, 50));
  BuildMsV.set("p95", percentileOf(Bld, 95));
  Value DocsV = Value::object();
  DocsV.set("builds", std::move(BuildsV));
  DocsV.set("reuse", std::move(ReuseV));
  DocsV.set("buildMs", std::move(BuildMsV));
  DocsV.set("cacheRetained", Retained);
  R.set("documents", std::move(DocsV));

  // Workspace memory accounting: the shared base corpus is one copy no
  // matter how many sessions are open; each session adds only its overlay
  // delta. The base figure is a property of Opts (immutable after
  // construction), the overlay figure sums the per-session bytes the
  // build path records.
  size_t BaseBytes = Opts.Base ? Opts.Base->memoryBytes() : 0;
  Value MemV = Value::object();
  MemV.set("baseBytes", BaseBytes);
  MemV.set("overlayBytes", OverlayBytes);
  MemV.set("totalBytes", BaseBytes + OverlayBytes);
  R.set("memory", std::move(MemV));

  // Robustness telemetry: what the backpressure, isolation, watchdog, and
  // degradation machinery is doing, plus the fault injector's ledger (the
  // injected == recovered invariant is the chaos tests' core assertion).
  Value HealthV = Value::object();
  HealthV.set("shedRequests", Shed);
  HealthV.set("deadlineAbandoned", Abandoned);
  HealthV.set("isolatedErrors", Isolated);
  HealthV.set("watchdogFired", Watchdogged);
  HealthV.set("cancelledInFlight", CancelledLive);
  HealthV.set("degradedBuilds", Degraded);
  HealthV.set("faultsInjected", FaultInjector::instance().injectedTotal());
  HealthV.set("faultsRecovered", FaultInjector::instance().recoveredTotal());
  HealthV.set("queueHighWater", QueueHigh);
  HealthV.set("strandHighWater", StrandHigh);
  HealthV.set("executing", ExecutingNow);
  R.set("health", std::move(HealthV));

  R.set("cache", std::move(CacheV));
  R.set("latencyMs", std::move(LatV));
  return R;
}

//===----------------------------------------------------------------------===//
// Transport loop
//===----------------------------------------------------------------------===//

void petal::serveStream(std::istream &In, std::ostream &Out,
                        const PetalService::Options &Opts) {
  FramedWriter Writer(Out);
  PetalService Service(Opts, [&Writer](const Value &Message) {
    Writer.write(Message.write());
  });
  FramedReader Reader(In, Opts.MaxFrameBytes);
  std::string Payload;
  for (;;) {
    FramedReader::Status St = Reader.read(Payload);
    if (St == FramedReader::Status::Eof)
      break;
    if (St == FramedReader::Status::Error) {
      // A framing violation leaves the stream position unknown — tell the
      // client why, then drop the connection. (Garbage *payloads* inside
      // well-formed frames are answered with ParseError by handleMessage
      // and the connection continues; only broken framing is fatal.)
      Writer.write(rpc::makeError(rpc::RequestId(), rpc::ParseError,
                                  "framing error: " + Reader.message())
                       .write());
      break;
    }
    if (!Service.handleMessage(Payload))
      break; // exit requested
  }
  Service.waitIdle(); // drain in-flight work before tearing down
}

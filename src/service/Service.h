//===- service/Service.h - The petald completion service --------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident completion daemon behind `petal_serve`: JSON-RPC requests
/// in (already unframed — see Transport.h), responses out through a
/// thread-safe sink. The design:
///
///  * **Dispatch** is cheap and synchronous: the transport thread parses
///    the message, answers trivial requests (initialize, $/stats,
///    $/cancelRequest) inline, and enqueues everything else. Document
///    parsing and completion queries never run on the transport thread.
///
///  * **Sessions are strands.** Each open document owns a FIFO of pending
///    tasks; a session is enqueued on the global run queue only while it
///    has work, and at most one worker executes a given session's tasks at
///    a time. This serializes open → change → complete per document (so
///    version bookkeeping needs no locks around the engine) while letting
///    different documents proceed in parallel across the worker pool.
///    Queries themselves are routed through the session's BatchExecutor,
///    i.e. onto the existing ThreadPool execution layer.
///
///  * **One base, many overlays.** With Options::Base set (petal_serve
///    --base / --base-snapshot), the daemon holds one shared frozen
///    framework corpus, and every session's document builds as a thin
///    overlay over it (Session.h, DESIGN.md §14). The base is immutable
///    after construction, so concurrent strands read it without locks;
///    per-session memory is the overlay delta, reported in $/stats
///    "memory". Options::MaxSessions caps the number of open sessions:
///    when an open would exceed it, the least-recently-touched *idle*
///    sessions (no queued or running strand work) are evicted, exactly as
///    if the client had closed them.
///
///  * **Versioned rejection.** Every edit builds a fresh DocumentState
///    with a client-supplied monotonic version; a petal/complete carrying
///    a version other than the current one is rejected with
///    ContentModified rather than silently answered from the wrong text.
///
///  * **Cancellation and deadlines.** $/cancelRequest marks a queued
///    request; workers check the mark (and the request's deadlineMs
///    budget) when they pick a task up, answering RequestCancelled /
///    DeadlineExceeded without touching the engine. A request that
///    already started carries an AbortSignal threaded into its build and
///    query: cancelling it (or its deadline passing) makes the work
///    abandon at the next phase/bucket boundary instead of running to
///    completion. Abandoned partial results are never returned or cached.
///
///  * **Backpressure and isolation** (DESIGN.md §15). Options::MaxQueue /
///    MaxStrandDepth shed excess load at dispatch with ServerOverloaded
///    (+retryAfterMs); an optional watchdog fails tasks that exceed
///    Options::WatchdogMs; every strand task runs inside an isolation
///    wrapper that converts an escaped exception into an InternalError on
///    that request alone; and each id-bearing request is answered exactly
///    once, enforced by an atomic claim on its control block. The $/stats
///    "health" block reports what this machinery is doing.
///
///  * **Result cache.** An LRU keyed by (document, version, query, every
///    option knob) fronts the engine. A hit replays the stored serialized
///    completions — byte-identical to recomputing — stamped with the
///    current version. Invalidation is scoped to what an edit could have
///    changed: a full rebuild drops the document's entries wholesale,
///    while an incremental rebuild keeps entries whose declaration unit
///    is untouched (and whose abstract-type term, if enabled, is backed
///    by an unchanged corpus-wide solution), re-keying them to the new
///    version. An explain=true entry strictly contains the explain=false
///    answer, so a non-explain miss is served from the explain variant by
///    stripping the per-term breakdowns on replay.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_SERVICE_SERVICE_H
#define PETAL_SERVICE_SERVICE_H

#include "service/Protocol.h"
#include "service/ResultCache.h"
#include "service/Session.h"
#include "support/Abort.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace petal {

/// The service. Construct one per connection (sessions are per-service
/// state); handleMessage() is the wire entry point, handleParsed() the
/// in-process one.
class PetalService {
public:
  struct Options {
    /// Service worker threads executing session tasks (builds + queries).
    size_t Workers = 2;
    /// Result cache capacity in entries; 0 disables caching.
    size_t CacheCapacity = 1024;
    /// Enables $/test/block and $/test/release, the deterministic
    /// scheduling hooks the cancellation/deadline tests use. Off in
    /// production daemons.
    bool EnableTestHooks = false;
    /// The workspace's shared frozen framework corpus; when set, every
    /// document build is an overlay build.
    std::shared_ptr<const BaseCorpus> Base;
    /// Cap on concurrently open sessions (0 = unlimited). On an open that
    /// would exceed it, least-recently-touched idle sessions are evicted.
    size_t MaxSessions = 0;
    /// Admission control: cap on globally outstanding tasks (0 = no cap).
    /// A session request arriving while Outstanding >= MaxQueue is shed
    /// at dispatch with ServerOverloaded (error data: {retryAfterMs}),
    /// deterministically — admission is decided under the service lock
    /// before any state is created, so the admitted set depends only on
    /// arrival order, never on worker timing.
    size_t MaxQueue = 0;
    /// Cap on one session's pending strand depth (0 = no cap); requests
    /// beyond it shed with ServerOverloaded, so one hot document cannot
    /// monopolize the run queue.
    size_t MaxStrandDepth = 0;
    /// Watchdog budget in ms (0 = disabled): a strand task executing
    /// longer than this is failed with InternalError on its behalf and
    /// its abort signal raised, so a hung build or query cannot wedge the
    /// daemon silently.
    double WatchdogMs = 0;
    /// Per-frame payload cap handed to the transport by serveStream
    /// (0 = FramedReader::DefaultMaxPayloadBytes).
    size_t MaxFrameBytes = 0;
  };

  /// Receives every outgoing response message. Called from worker threads
  /// and the dispatch thread concurrently; must be thread-safe.
  using ResponseSink = std::function<void(const json::Value &)>;

  PetalService(const Options &Opts, ResponseSink Sink);
  ~PetalService();

  PetalService(const PetalService &) = delete;
  PetalService &operator=(const PetalService &) = delete;

  /// Parses one framed payload and dispatches it. Returns false once the
  /// client sent `exit` (the transport loop should stop).
  bool handleMessage(std::string_view Payload);

  /// Dispatches an already-parsed message (the in-process client path).
  /// The message is copied; pass an rvalue to move it in instead, so that
  /// a change's text is never copied on its way to the document build.
  bool handleParsed(const json::Value &Message);
  bool handleParsed(json::Value &&Message);

  /// Blocks until every enqueued task has finished. Used by tests, the
  /// bench driver, and the daemon's drain-on-exit.
  void waitIdle();

  bool exitRequested() const { return Exit.load(std::memory_order_relaxed); }
  const Options &options() const { return Opts; }

  /// Opens a named test gate, releasing any $/test/block waiting on it
  /// (tests may also do this via the $/test/release request).
  void releaseGate(const std::string &Token);

private:
  /// Per-request control block, created for every id-bearing task at
  /// admission. It is the request's identity across threads: the abort
  /// signal builds and queries poll, the exactly-one-response claim flag,
  /// and the execution timestamp the watchdog measures against. Shared
  /// between the owning worker, the dispatch thread ($/cancelRequest),
  /// and the watchdog — every field is a plain atomic or written once
  /// before sharing.
  struct RequestCtl {
    AbortSignal Sig;
    /// Set (exchange) by whoever answers the request first — the worker,
    /// the watchdog, or the isolation wrapper. Losers drop their response.
    std::atomic<bool> Responded{false};
    rpc::RequestId Id;
    std::string Method;
    /// When the task started executing (set at worker pickup, under M).
    std::chrono::steady_clock::time_point Started{};
    /// The error code an aborter wants reported (RequestCancelled for
    /// $/cancelRequest; 0 = abort came from the deadline alone).
    std::atomic<int> AbortCode{0};
  };

  /// One queued request.
  struct Task {
    rpc::RequestId Id;
    std::string Method;
    json::Value Params;
    std::chrono::steady_clock::time_point Enqueued;
    double DeadlineMs = 0; ///< <= 0 means no deadline
    /// Control block; null for notifications (no response expected, so
    /// nothing to claim, cancel, or watch).
    std::shared_ptr<RequestCtl> Ctl;
  };

  /// One open document: the strand of pending tasks plus the current
  /// built state. Pending/Scheduled/Open are guarded by M; Doc is only
  /// touched by the worker currently running this session's strand.
  struct SessionState {
    std::string Name;
    bool Open = true;
    std::shared_ptr<DocumentState> Doc;
    std::deque<Task> Pending;
    bool Scheduled = false;
    /// Monotonic enqueue stamp (from TouchCounter, under M); the
    /// --max-sessions eviction order. 0 = never touched.
    uint64_t LastTouched = 0;
  };

  /// A named condition the test hooks block on.
  struct Gate {
    std::mutex GM;
    std::condition_variable GCV;
    bool Opened = false;
  };

  /// An entry on the global run queue: either a session with pending
  /// strand work, or a free-standing task (test gates without a document).
  struct RunItem {
    std::shared_ptr<SessionState> Session; ///< null for global tasks
    Task Global;
  };

  // Dispatch (transport thread).
  void dispatch(const json::Value &Message, const rpc::RequestId &Id,
                const std::string &Method, json::Value Params);
  void enqueueSession(const std::shared_ptr<SessionState> &S, Task T);
  void enqueueGlobal(Task T);
  json::Value statsJson();
  /// Evicts least-recently-touched idle sessions until at most
  /// Opts.MaxSessions remain, sparing \p Keep (the session being opened).
  /// Called from dispatch with no locks held.
  void enforceSessionCap(const SessionState *Keep);

  /// Makes \p T's control block for id-bearing requests (deadline baked
  /// into the abort signal) — call once, at admission.
  void attachCtl(Task &T);
  /// Sheds \p Id with ServerOverloaded + {retryAfterMs}. \p QueueDepth is
  /// the Outstanding value observed when the shed was decided.
  void shed(const rpc::RequestId &Id, size_t QueueDepth,
            const std::string &Why);

  // Execution (worker threads).
  void workerLoop();
  void watchdogLoop();
  void runTask(const std::shared_ptr<SessionState> &S, Task &T);
  void execOpenChange(SessionState &S, Task &T, bool IsChange);
  void execClose(SessionState &S, Task &T);
  void execComplete(SessionState &S, Task &T);
  void execBlock(Task &T);
  /// Responds to an aborted-in-flight task with the aborter's code (or
  /// DeadlineExceeded when the abort came from the deadline alone, which
  /// also counts as a deadline abandonment).
  void respondAborted(Task &T, const std::string &What);

  // Response plumbing. taskResult/taskError are the only response paths
  // workers use: they claim the control block first, so a request the
  // watchdog (or the isolation wrapper) already answered is never
  // answered twice.
  void respond(const json::Value &Message);
  void respondResult(const rpc::RequestId &Id, json::Value Result);
  void respondError(const rpc::RequestId &Id, int Code,
                    const std::string &Message);
  static bool claim(Task &T) {
    return !T.Ctl || !T.Ctl->Responded.exchange(true);
  }
  void taskResult(Task &T, json::Value Result);
  void taskError(Task &T, int Code, const std::string &Message);
  void recordLatency(const Task &T);

  Options Opts;
  ResponseSink Sink;
  ResultCache Cache;

  std::mutex M;
  std::condition_variable WorkCV;
  std::condition_variable IdleCV;
  std::deque<RunItem> RunQueue;
  std::unordered_map<std::string, std::shared_ptr<SessionState>> Sessions;
  std::unordered_set<std::string> QueuedIds;    ///< ids awaiting execution
  std::unordered_set<std::string> CancelledIds; ///< marked via $/cancelRequest
  /// Control blocks of tasks currently executing, by id key — what
  /// $/cancelRequest aborts in flight and the watchdog patrols.
  std::unordered_map<std::string, std::shared_ptr<RequestCtl>> Executing;
  std::unordered_map<std::string, std::shared_ptr<Gate>> Gates;
  size_t Outstanding = 0;
  size_t QueueHighWater = 0;  ///< max Outstanding ever (guarded by M)
  size_t StrandHighWater = 0; ///< max one session's Pending depth (M)
  uint64_t TouchCounter = 0; ///< feeds SessionState::LastTouched
  bool ShuttingDown = false;
  bool StopWorkers = false;
  std::atomic<bool> Exit{false};

  // Counters (guarded by StatsM; latencies only for petal/complete).
  mutable std::mutex StatsM;
  uint64_t ReceivedCount = 0;
  uint64_t QueryCount = 0;
  uint64_t CancelledCount = 0;
  uint64_t DeadlineCount = 0;
  uint64_t StaleCount = 0;
  uint64_t ErrorCount = 0;
  uint64_t BuildCount = 0;
  uint64_t BuildFailCount = 0;
  // Document-build telemetry ($/stats "documents"): how many builds went
  // incremental, which shared components they reused, and the build-time
  // distribution. Reuse counters are per component per build: an
  // incremental build bumps typesystem + indexes, a no-op edit bumps
  // solution too.
  uint64_t FullBuildCount = 0;
  uint64_t IncrementalBuildCount = 0;
  uint64_t ReuseTypeSystemCount = 0;
  uint64_t ReuseIndexesCount = 0;
  uint64_t ReuseSolutionCount = 0;
  uint64_t CacheRetainedCount = 0; ///< entries surviving edits via retarget
  uint64_t EvictedCount = 0;   ///< sessions closed by the --max-sessions cap
  // Robustness telemetry ($/stats "health"): what the backpressure,
  // isolation, and degradation machinery is actually doing.
  uint64_t ShedCount = 0;              ///< requests refused at admission
  uint64_t DeadlineAbandonedCount = 0; ///< started, then abandoned mid-work
  uint64_t IsolatedErrorCount = 0;     ///< exceptions confined to one request
  uint64_t WatchdogFiredCount = 0;     ///< tasks failed by the watchdog
  uint64_t CancelledInFlightCount = 0; ///< $/cancelRequest hit a running task
  uint64_t DegradedBuildCount = 0;     ///< overlay builds served monolithically
  /// EWMA of task execution time, the retryAfterMs estimator backpressure
  /// hands shed clients.
  double EwmaTaskMs = 0;
  /// Per-open-session overlay heap bytes (DocumentState::memoryBytes of
  /// the current build), keyed by document name. Maintained by the build
  /// and close paths so statsJson never dereferences SessionState::Doc —
  /// that pointer belongs to the session strand.
  std::unordered_map<std::string, size_t> SessionBytes;
  std::vector<double> BuildMs;
  uint64_t ExplainedCount = 0;     ///< queries answered with explain on
  uint64_t ScoreCeilingHitCount = 0; ///< queries the score ceiling cut short
  /// Summed per-term costs over every explained completion served (cache
  /// replays excluded — they repeat bytes, not work).
  std::array<uint64_t, NumScoreTerms> TermTotals{};
  std::vector<double> LatencyMs;

  std::vector<std::thread> WorkerThreads;
  std::thread WatchdogThread; ///< running iff Opts.WatchdogMs > 0
  std::condition_variable WatchdogCV; ///< waits on M; dtor wakes it
};

/// The daemon's transport loop: reads Content-Length framed messages from
/// \p In (cap: Options::MaxFrameBytes), dispatches each into a PetalService
/// whose responses are framed onto \p Out, and returns when the client
/// sends `exit` or the stream ends — after draining in-flight work. One
/// connection per call. Crash-safe: a framing violation is answered with a
/// ParseError before the connection drops, a dispatch-time exception is
/// answered with InternalError and the loop continues — a poisoned request
/// never takes the daemon down.
void serveStream(std::istream &In, std::ostream &Out,
                 const PetalService::Options &Opts);

} // namespace petal

#endif // PETAL_SERVICE_SERVICE_H

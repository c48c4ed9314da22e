//===- wirebench/src/Runner.cpp - Closed-loop runs and their metrics ------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Runner.h"

#include "Oracle.h"
#include "Stats.h"
#include "Trace.h"
#include "Wire.h"

#include "code/ExprPrinter.h"
#include "service/ResultCache.h"
#include "service/Service.h"
#include "service/Session.h"
#include "service/Transport.h"
#include "snapshot/Snapshot.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <condition_variable>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>

using namespace petal;
using namespace wirebench;

namespace {

/// Set-up is timed on fresh daemons in two groups, one before the timed
/// phase and one after it, so that one slow stretch of the host does not
/// decide setup_s. The first group runs at least MinSetups set-ups and
/// goes on for SetupGroupS seconds (at most MaxSetups); the second runs as
/// many. setup_s is the median of all of them.
constexpr size_t MinSetups = 3, MaxSetups = 15;
constexpr double SetupGroupS = 1;
/// A timed phase ends at the first cycle boundary after its time budget
/// at which these many samples exist, or at MaxStretch times the budget.
constexpr size_t MinCompletions = 1000; // complete_p99_us, printed
constexpr size_t MinEdits = 100;        // edit_ready_p90_ms
constexpr size_t MinOpens = 20;         // open_p50_ms
constexpr double MaxStretch = 1.5;
/// Reference slices run before each set-up, to scale it by.
constexpr size_t SlicesPerSetup = 3;

uint64_t docKey(uint32_t Doc, uint32_t Slot) {
  return (static_cast<uint64_t>(Doc) << 32) | Slot;
}

bool isResult(const std::string &Resp) {
  // A result payload starts {"jsonrpc":"2.0","id":N,"result":...; an
  // error payload has "error" there instead.
  return Resp.compare(0, 2, "{\"") == 0 &&
         Resp.find("\"result\":") < 64;
}

/// Request payloads, with each document text JSON-escaped once.
class Requests {
public:
  explicit Requests(const Inputs &In) : In(In) {}

  std::string open(const std::string &Name, uint32_t Doc, uint32_t Text,
                   int64_t Id, bool Change, int64_t Version) {
    return head(Id, Change ? "petal/change" : "petal/open") +
           "{\"doc\":" + quote(Name) + ",\"text\":" + escaped(Doc, Text) +
           ",\"version\":" + std::to_string(Version) + "}}";
  }
  std::string close(const std::string &Name, int64_t Id) {
    return head(Id, "petal/close") + "{\"doc\":" + quote(Name) + "}}";
  }
  std::string complete(const std::string &Name, const QuerySpec &Q,
                       int64_t Id, int64_t Version) {
    return head(Id, "petal/complete") + "{\"doc\":" + quote(Name) +
           ",\"version\":" + std::to_string(Version) +
           ",\"class\":" + quote(Q.Class) + ",\"method\":" + quote(Q.Method) +
           ",\"query\":" + quote(Q.Text) +
           ",\"n\":" + std::to_string(ResultsPerQuery) + "}}";
  }

private:
  static std::string quote(const std::string &S) {
    return json::Value(S).write();
  }
  static std::string head(int64_t Id, const char *Method) {
    return "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(Id) +
           ",\"method\":\"" + Method + "\",\"params\":";
  }
  const std::string &escaped(uint32_t Doc, uint32_t Text) {
    std::string &E = Escaped[{Doc, Text}];
    if (E.empty())
      E = quote(In.Docs[Doc].Versions[Text].Text);
    return E;
  }

  const Inputs &In;
  std::map<std::pair<uint32_t, uint32_t>, std::string> Escaped;
};

class LayerProbe;

/// Runs op lists over one endpoint, one request in flight. In a traced
/// replay, \p Probe is called around every request.
class Loop {
public:
  Loop(const Inputs &In, Requests &Req, LayerProbe *Probe = nullptr)
      : In(In), Req(Req), Probe(Probe) {
    for (const std::vector<Op> *Ops : {&In.Timed, &In.Events})
      for (const Op &O : *Ops) {
        NeedEdits |= O.Kind == OpKind::Change;
        NeedOpens |= O.Kind == OpKind::Open;
      }
  }

  void attach(Endpoint &E) {
    Ep = &E;
    Docs.clear();
  }

  /// Runs a reference slice every HostSpeed::EveryUs of the timed phase,
  /// at cycle boundaries.
  void sampleHostSpeed(HostSpeed &H) { Host = &H; }

  /// Runs the set-up ops.
  bool setup() {
    for (const Op &O : In.Setup)
      if (!step(O, Phase::Setup))
        return false;
    return true;
  }

  /// Runs the timed ops, with an event cycle at the first cycle boundary
  /// after each Inputs::EventEveryMs. Stops at the first cycle boundary
  /// past \p SoftEndUs with its samples complete, or past \p HardEndUs.
  /// Returns false if the endpoint stopped answering.
  bool timed(double SoftEndUs, double HardEndUs) {
    const std::vector<Op> &Events = In.Events;
    size_t NextEvent = 0;
    double EveryUs = In.EventEveryMs * 1000, EventAt = nowUs() + EveryUs;
    double SliceAt = nowUs();
    for (const Op &O : In.Timed) {
      if (O.CycleStart) {
        double Now = nowUs();
        if (Host && Now >= SliceAt) {
          Host->sample(Now);
          SliceAt = std::max(SliceAt + HostSpeed::EveryUs, Now);
          PauseUs += nowUs() - Now;
          Now = nowUs();
        }
        if (Now >= HardEndUs || (Now >= SoftEndUs && timedSamplesComplete())) {
          if (Host)
            Host->sample(Now);
          return true;
        }
        if (EveryUs > 0 && Now >= EventAt && NextEvent < Events.size()) {
          do
            if (!step(Events[NextEvent++], Phase::Timed, true))
              return false;
          while (NextEvent < Events.size() && !Events[NextEvent].CycleStart);
          // No catch-up bursts after a slow stretch.
          EventAt = std::max(EventAt + EveryUs, nowUs());
        }
      }
      if (!step(O, Phase::Timed))
        return false;
    }
    Exhausted = true;
    return true;
  }

  std::vector<Executed> Ex;
  std::vector<std::string> Payloads;
  bool Exhausted = false;
  int64_t NextId = 1;

private:
  bool timedSamplesComplete() const {
    return TimedCompletes >= MinCompletions + TimedChanges + TimedOpens &&
           (!NeedEdits || TimedChanges >= MinEdits) &&
           (!NeedOpens || TimedOpens >= MinOpens);
  }

  bool step(const Op &O, Phase Ph, bool Event = false);

  struct DocState {
    int64_t Version = 0;
    uint32_t Text = 0;
  };
  const Inputs &In;
  Requests &Req;
  LayerProbe *Probe;
  HostSpeed *Host = nullptr;
  double PauseUs = 0; ///< spent on slices since the last request
  Endpoint *Ep = nullptr;
  std::map<uint64_t, DocState> Docs;
  bool NeedEdits = false, NeedOpens = false;
  size_t TimedCompletes = 0, TimedChanges = 0, TimedOpens = 0;
};

std::string initializeRequest() {
  return "{\"jsonrpc\":\"2.0\",\"id\":0,\"method\":\"initialize\","
         "\"params\":{}}";
}

std::string fmt(double V, int Digits = 2) {
  std::ostringstream OS;
  OS << std::fixed << std::setprecision(Digits) << V;
  return OS.str();
}

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every run reports; the BENCHMARK.json end_to_end
/// list.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},            {"complete_p50_us", "us"},
    {"open_p50_ms", "ms"},       {"edit_ready_p50_ms", "ms"},
    {"edit_ready_p90_ms", "ms"}, {"rss_mib", "MiB"},
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};
void printResult(std::ostream &Out, const Verdict &V,
                 const std::vector<Metric> &Ms) {
  json::Value Metrics = json::Value::object();
  for (const Metric &M : Ms) {
    json::Value Entry = json::Value::object();
    Entry.set("value", M.Value);
    Entry.set("unit", M.Unit);
    Metrics.set(M.Name, std::move(Entry));
  }
  json::Value R = json::Value::object();
  R.set("correct", V.correct());
  R.set("attempted", V.Attempted);
  R.set("failed", V.Failed);
  R.set("metrics", std::move(Metrics));
  // json::Value prints numbers with %.17g, every digit measured.
  Out << R.write() << "\n";
}

void printEnvironment(std::ostream &Out, const RunOptions &Opts, int Cpu,
                      const std::vector<std::string> &Flags,
                      const Inputs &In) {
  json::Value Env = json::Value::object();
  Env.set("workload", workloadName(Opts.W));
  Env.set("seed", static_cast<int64_t>(Opts.Seed));
  Env.set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  Env.set("cpu", Cpu);
  Env.set("build_type", Opts.BuildType);
  json::Value F = json::Value::array();
  for (const std::string &S : Flags)
    F.push(S);
  Env.set("daemon_flags", std::move(F));
  std::ostringstream Digest;
  Digest << std::hex << In.digest();
  Env.set("inputs_digest", Digest.str());
  Env.set("trace", Opts.Trace);
  Out << "env " << Env.write() << "\n";
}

//===----------------------------------------------------------------------===//
// End-to-end run over the wire
//===----------------------------------------------------------------------===//

int runWire(const RunOptions &Opts, const Inputs &In, Oracle &O,
            const std::vector<std::string> &Flags, std::ostream &Out) {
  Requests Req(In);
  Loop L(In, Req);
  std::vector<double> SetupRawS, SetupAtUs;
  HostSpeed Host;
  L.sampleHostSpeed(Host);
  std::unique_ptr<Daemon> D;
  std::string LogPath = Opts.WorkDir + "/daemon.log";
  // Spawns a daemon and runs the set-up ops on it, timed.
  auto SetUp = [&] {
    for (size_t I = 0; I != SlicesPerSetup; ++I)
      Host.sample(nowUs());
    double Start = nowUs();
    std::string Error, Resp;
    D = Daemon::spawn(Opts.DaemonPath, Flags, LogPath, Error);
    if (!D || !D->call(initializeRequest(), Resp) || !isResult(Resp)) {
      std::cerr << "wirebench: daemon did not start: " << Error << Resp
                << "\n";
      return false;
    }
    L.attach(*D);
    if (!L.setup()) {
      std::cerr << "wirebench: daemon stopped answering during set-up\n";
      return false;
    }
    SetupRawS.push_back((nowUs() - Start) / 1e6);
    SetupAtUs.push_back(Start);
    return true;
  };
  auto Stop = [&] {
    bool Clean = D->stop();
    D.reset();
    if (!Clean)
      std::cerr << "wirebench: daemon did not exit cleanly; see " << LogPath
                << "\n";
    return Clean;
  };

  double GroupStart = nowUs();
  while (true) {
    if (!SetUp())
      return 2;
    if (SetupRawS.size() == MaxSetups ||
        (SetupRawS.size() >= MinSetups &&
         nowUs() - GroupStart >= SetupGroupS * 1e6))
      break;
    if (!Stop())
      return 2;
  }
  size_t Group = SetupRawS.size();

  double TimedStart = nowUs();
  double Budget = Opts.Seconds * 1e6;
  bool Ok = L.timed(TimedStart + Budget, TimedStart + MaxStretch * Budget);
  double TimedEnd = nowUs(), TimedSeconds = (TimedEnd - TimedStart) / 1e6;
  if (!Ok) {
    std::cerr << "wirebench: daemon stopped answering; see " << LogPath
              << "\n";
    return 2;
  }
  double RssMib = D->peakRssMib();
  if (!Stop())
    return 2;
  for (size_t I = 0; I != Group; ++I)
    if (!SetUp() || !Stop())
      return 2;

  if (Host.size() == 0) {
    std::cerr << "wirebench: the reference slice could not run\n";
    return 2;
  }
  Verdict V =
      verify(In, O, L.Ex, L.Payloads, std::min<size_t>(4, releaseCpus()));
  Samples Raw = classify(L.Ex);
  Samples S{atNominalSpeed(Raw.Complete, Host), atNominalSpeed(Raw.Open, Host),
            atNominalSpeed(Raw.Edit, Host)};
  std::vector<double> SetupS;
  for (size_t I = 0; I != SetupRawS.size(); ++I)
    SetupS.push_back(SetupRawS[I] * Host.scaleAt(SetupAtUs[I]));

  // Diagnostics: the families and edit routes behind the percentiles.
  std::map<std::string, std::vector<double>> ByFamily, ByRoute;
  {
    std::map<uint64_t, std::pair<EditKind, double>> Pending;
    for (const Executed &X : L.Ex) {
      uint64_t K = docKey(X.Doc, X.Slot);
      if (X.Kind == OpKind::Change)
        Pending[K] = {X.Route, X.StartUs};
      if (X.Kind != OpKind::Complete)
        continue;
      auto It = Pending.find(K);
      if (It != Pending.end()) {
        ByRoute[expectedRoute(It->second.first)].push_back(
            (X.EndUs - It->second.second) / 1000.0);
        Pending.erase(It);
      } else if (X.Ph == Phase::Timed) {
        ByFamily[familyName(In.Docs[X.Doc].Queries[X.Query].Fam)].push_back(
            X.EndUs - X.StartUs);
      }
    }
  }
  Out << "timed phase: " << fmt(TimedSeconds, 3) << " s"
      << (L.Exhausted ? " (script exhausted)" : "") << "; setup_s runs:";
  for (double X : SetupRawS)
    Out << " " << fmt(X, 3);
  Out << "\n";
  Out << "host speed: " << Host.size() << " reference slices, median "
      << fmt(Host.medianCpuUs(), 1) << " us CPU (nominal "
      << fmt(HostSpeed::NominalUs, 0) << ")\n";

  for (auto &[Name, Us] : ByFamily)
    Out << "  completions " << Name << ": n=" << Us.size() << " p50="
        << fmt(median(Us), 1) << " us\n";
  for (auto &[Name, Ms] : ByRoute)
    Out << "  edits " << Name << ": n=" << Ms.size() << " p50="
        << fmt(median(Ms), 2) << " ms\n";
  {
    std::map<long, std::vector<double>> Windows;
    for (size_t I = 0; I != S.Complete.size(); ++I)
      Windows[static_cast<long>((S.Complete.AtUs[I] - TimedStart) / 1e6)]
          .push_back(S.Complete.Values[I]);
    Out << "per-second completions (n, p50 us at nominal speed):";
    for (auto &[W, V] : Windows)
      Out << " " << V.size() << "/" << fmt(median(V), 1);
    Out << "\n";
  }
  Out << "samples: complete=" << S.Complete.size()
      << " open=" << S.Open.size() << " edit=" << S.Edit.size() << "\n";
  Out << "verified: attempted=" << V.Attempted << " failed=" << V.Failed
      << " mismatched=" << V.Mismatched << "\n";
  if (!V.FirstProblem.empty())
    Out << "first problem: " << V.FirstProblem << "\n";

  // Every figure twice: at nominal host speed (the reported one), and as
  // measured. The completion tail and rate are printed but not reported:
  // the generated corpus, not the program, sets them (see README.md).
  std::map<std::string, double> Values, RawValues;
  Values["setup_s"] = median(SetupS);
  RawValues["setup_s"] = median(SetupRawS);
  Values["complete_per_s"] = completionRate(L.Ex, TimedStart, &Host);
  RawValues["complete_per_s"] = completionRate(L.Ex, TimedStart);
  Values["rss_mib"] = RawValues["rss_mib"] = RssMib;
  for (auto [To, From] : {std::pair{&Values, &S}, std::pair{&RawValues, &Raw}}) {
    const std::tuple<const char *, const Series *, double> Ps[] = {
        {"complete_p50_us", &From->Complete, 0.5},
        {"complete_p99_us", &From->Complete, 0.99},
        {"open_p50_ms", &From->Open, 0.5},
        {"edit_ready_p50_ms", &From->Edit, 0.5},
        {"edit_ready_p90_ms", &From->Edit, 0.9}};
    for (auto [Name, Of, Q] : Ps)
      if (std::optional<double> P = percentile(Of->Values, Q))
        (*To)[Name] = *P;
  }
  for (const MetricSpec &M : EndToEnd)
    if (!Values.count(M.Name)) {
      std::cerr << "wirebench: " << M.Name << " has too few samples\n";
      return 3;
    }
  for (auto [Label, From] : {std::pair{"at nominal speed:", &Values},
                             std::pair{"as measured:", &RawValues}}) {
    Out << Label;
    for (auto &[Name, Value] : *From)
      Out << " " << Name << "=" << fmt(Value, 4);
    Out << "\n";
  }
  std::vector<Metric> Ms;
  for (const MetricSpec &M : EndToEnd)
    Ms.push_back({M.Name, Values.at(M.Name), M.Unit});
  printResult(Out, V, Ms);
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced in-process replay
//===----------------------------------------------------------------------===//

/// petald in-process behind the same framing and JSON the daemon uses,
/// with a span around each of those layers when the call is traced.
class InProcess : public Endpoint {
public:
  InProcess(const PetalService::Options &O, Tracer &T) : T(T) {
    Svc = std::make_unique<PetalService>(
        O, [this](const json::Value &Msg) { sink(Msg); });
  }
  ~InProcess() override { Svc.reset(); }

  bool call(const std::string &Request, std::string &Response) override {
    std::ostringstream Wire;
    FramedWriter(Wire).write(Request);
    std::istringstream In(Wire.str());
    FramedReader Reader(In);
    Tracer *Tr = Traced ? &T : nullptr;
    uint64_t R = Rid;
    double Start = nowUs();
    std::string Payload;
    {
      Scope S(Tr, "transport.read", R, Parent);
      if (Reader.read(Payload) != FramedReader::Status::Ok)
        return false;
    }
    {
      Scope S(Tr, "json.parse", R, Parent);
      std::string Error;
      if (!json::parse(Payload, LastRequest, Error))
        return false;
    }
    int64_t Rt = Tr ? static_cast<int64_t>(T.open("service.roundtrip", R,
                                                  Parent))
                    : -1;
    {
      std::lock_guard<std::mutex> G(M);
      Done = false;
      RtSpan = Rt;
      SinkRid = R;
    }
    {
      Scope S(Tr, "service.handle", R, Rt);
      Svc->handleParsed(LastRequest);
    }
    {
      std::unique_lock<std::mutex> G(M);
      CV.wait(G, [&] { return Done; });
      Response = std::move(Resp);
    }
    if (Tr)
      LastRoundtripUs = T.close(static_cast<size_t>(Rt));
    LastServiceUs = nowUs() - Start;
    return true;
  }

  /// The service's result cache hits and misses so far, from $/stats,
  /// called untraced.
  bool cacheCounts(double &Hits, double &Misses) {
    bool WasTraced = Traced;
    Traced = false;
    std::string Resp, Error;
    json::Value Stats;
    bool Ok = call("{\"jsonrpc\":\"2.0\",\"id\":-1,\"method\":\"$/stats\"}",
                   Resp) &&
              json::parse(Resp, Stats, Error);
    Traced = WasTraced;
    const json::Value *R = Ok ? Stats.find("result") : nullptr;
    const json::Value *C = R ? R->find("cache") : nullptr;
    if (!C)
      return false;
    Hits = C->getNumber("hits", 0);
    Misses = C->getNumber("misses", 0);
    return true;
  }

  /// Per-call trace context, set before call().
  bool Traced = false;
  uint64_t Rid = 0;
  int64_t Parent = -1;
  /// Outputs of the last call.
  json::Value LastRequest;
  double LastServiceUs = 0;
  double LastRoundtripUs = 0;

private:
  void sink(const json::Value &Msg) {
    int64_t Rt;
    uint64_t R;
    {
      std::lock_guard<std::mutex> G(M);
      Rt = RtSpan;
      R = SinkRid;
    }
    Tracer *Tr = Rt >= 0 ? &T : nullptr;
    std::string Text;
    {
      Scope S(Tr, "json.write", R, Rt);
      Text = Msg.write();
    }
    std::ostringstream Wire;
    {
      Scope S(Tr, "transport.write", R, Rt);
      FramedWriter(Wire).write(Text);
    }
    std::lock_guard<std::mutex> G(M);
    Resp = std::move(Text);
    Done = true;
    CV.notify_all();
  }

  Tracer &T;
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  std::string Resp;
  int64_t RtSpan = -1;
  uint64_t SinkRid = 0;
  std::unique_ptr<PetalService> Svc; ///< last: its workers call sink()
};

/// Times the public entry point of each layer on the benchmark's own private
/// document states, for the same requests the service just answered.
class LayerProbe {
public:
  LayerProbe(const Inputs &In, Tracer &T, InProcess &Svc,
             std::shared_ptr<const BaseCorpus> Base, uint64_t Seed)
      : In(In), T(T), Svc(Svc), Base(std::move(Base)), Coin(Seed) {}

  void before(const Executed &X) {
    // Half of the timed completions run untraced: their latency against
    // the traced half is the tracing overhead.
    Untraced = X.Ph == Phase::Timed && X.Kind == OpKind::Complete &&
               Coin.chance(0.5);
    Root = Untraced ? -1
                    : static_cast<int64_t>(T.open("request", X.Id));
    Svc.Traced = !Untraced;
    Svc.Rid = static_cast<uint64_t>(X.Id);
    Svc.Parent = Root;
  }

  void after(const Executed &X, const std::string &Request,
             const std::string &Response) {
    ReqBytes.push_back(static_cast<double>(frame(Request).size()));
    RespBytes.push_back(static_cast<double>(frame(Response).size()));
    bool TimedCompletion = X.Ph == Phase::Timed && X.Kind == OpKind::Complete;
    if (TimedCompletion)
      (Untraced ? UntracedUs : TracedUs).push_back(Svc.LastServiceUs);
    double RoundtripUs = Svc.LastRoundtripUs;
    RunUs = -1;
    if (!Untraced) {
      switch (X.Kind) {
      case OpKind::Open:
      case OpKind::Change:
        build(X, Response);
        break;
      case OpKind::Close:
        Chain.erase(docKey(X.Doc, X.Slot));
        Scratch.invalidate(name(X));
        break;
      case OpKind::Complete:
        completion(X);
        break;
      }
      T.close(static_cast<size_t>(Root));
    }
    if (!TimedCompletion)
      return;
    // Whether the service ran the query or replayed a cached answer, by its
    // own miss counter, read untraced once the request's spans are closed.
    double Hits, Misses;
    if (!Svc.cacheCounts(Hits, Misses))
      return;
    bool Computed = Misses > LastMisses;
    LastMisses = Misses;
    if (RunUs >= 0)
      Overhead.push_back(RoundtripUs - (Computed ? RunUs : 0));
  }

  std::vector<double> ReqBytes, RespBytes, SourceKib, DocBytes, IndexBytes,
      Retained, LastBucket, Overhead, TracedUs, UntracedUs;
  uint64_t RouteMismatches = 0, CeilingHits = 0;
  double LastMisses = 0; ///< the service's cache misses so far

private:
  std::string name(const Executed &X) const {
    return In.wireName(X.Doc, X.Slot);
  }

  void build(const Executed &X, const std::string &Response) {
    uint64_t Id = static_cast<uint64_t>(X.Id);
    const std::string &Text = In.Docs[X.Doc].Versions[X.Text].Text;
    std::unique_ptr<DocumentState> &Slot = Chain[docKey(X.Doc, X.Slot)];
    const DocumentState *Prev = X.Kind == OpKind::Change ? Slot.get() : nullptr;

    std::string Error;
    double S0 = nowUs();
    std::unique_ptr<DocumentState> Built = buildDocumentState(
        name(X), Text, X.Version, 1, Error, Prev, Base);
    double S1 = nowUs();
    if (!Built) {
      ++RouteMismatches;
      return;
    }
    const char *Span = !Built->incremental() ? (Base ? "build.overlay"
                                                     : "build.full")
                       : Built->sharedSolution() ? "build.incremental_noop"
                                                 : "build.incremental_body";
    T.add(Span, Id, Root, S0, S1);
    const char *Route = Built->Kind == DocumentState::BuildKind::Full
                            ? "full"
                        : Built->sharedSolution() ? "incremental-noop"
                                                  : "incremental-body";
    if (std::string(Route) != expectedRoute(X.Route))
      ++RouteMismatches;
    SourceKib.push_back(static_cast<double>(Text.size()) / 1024.0);
    DocBytes.push_back(static_cast<double>(Built->memoryBytes()));
    IndexBytes.push_back(static_cast<double>(Built->Idx->memoryBytes()));

    // The same build, stage by stage, through each layer's entry point.
    DiagnosticEngine Diags;
    SynFile File;
    {
      Scope S(&T, "parse.source", Id, Root);
      parseSourceFile(Text, File, Diags);
    }
    {
      Scope S(&T, "shape", Id, Root);
      (void)shapeOfFile(File);
    }
    if (Built->incremental() && Prev) {
      Program P(*Prev->TS);
      Scope S(&T, "resolve.reuse", Id, Root);
      resolveParsedFileReusingDecls(File, P, Diags);
    } else {
      auto TS = Base ? std::make_shared<TypeSystem>(Base->TS)
                     : std::make_shared<TypeSystem>();
      Program P(*TS);
      {
        Scope S(&T, "resolve.full", Id, Root);
        resolveParsedFile(File, P, Diags);
      }
      std::unique_ptr<CompletionIndexes> Idx;
      std::unique_ptr<BatchExecutor> Exec;
      {
        Scope S(&T, "index.build", Id, Root);
        Idx = Base ? std::make_unique<CompletionIndexes>(P, Base)
                   : std::make_unique<CompletionIndexes>(P);
        Exec = std::make_unique<BatchExecutor>(P, *Idx, 1);
      }
      {
        Scope S(&T, "infer.solve", Id, Root);
        Exec->fullSolution();
      }
    }

    Scratch.invalidate(name(X));
    if (X.Kind == OpKind::Change) {
      json::Value R;
      std::string Err;
      if (json::parse(Response, R, Err))
        if (const json::Value *Res = R.find("result"))
          Retained.push_back(Res->getNumber("cacheRetained", 0));
    }
    Slot = std::move(Built);
  }

  void completion(const Executed &X) {
    uint64_t Id = static_cast<uint64_t>(X.Id);
    DocumentState *Doc = Chain[docKey(X.Doc, X.Slot)].get();
    const json::Value *Params = Svc.LastRequest.find("params");
    if (!Doc || !Params)
      return;
    CompleteSpec Spec;
    std::string Key, Error, Payload;
    {
      Scope S(&T, "session.spec", Id, Root);
      if (!parseCompleteSpec(*Params, Spec, Error))
        return;
      Key = encodeSpecKey(Spec);
    }
    // Probe and insert are timed on a scratch cache that only ever drops a
    // document's entries when it is rebuilt or closed: it holds the same
    // kind of keys and payloads as the service's, not the same entries.
    std::string Name = name(X);
    {
      Scope S(&T, "cache.probe", Id, Root);
      (void)Scratch.probe(Name, X.Version, Key, Payload);
    }
    size_t Run = T.open("session.run", Id, Root);
    QueryOutcome O = runCompletion(*Doc, Spec);
    RunUs = T.close(Run);
    Payload = O.Completions.write();
    {
      Scope S(&T, "cache.insert", Id, Root);
      Scratch.insert(Name, X.Version, Key,
                     {O.ClassQualName, Spec.Method,
                      Spec.Opts.UseAbstractTypes &&
                          Spec.Opts.Rank.UseAbstractTypes},
                     std::move(Payload));
    }

    // The same query through the parser, engine and printer directly.
    const QuerySpec &Q = In.Docs[X.Doc].Queries[X.Query];
    const PartialExpr *PE = nullptr;
    CodeSite Site;
    {
      Scope S(&T, "parse.query", Id, Root);
      const CodeClass *Class = findCodeClass(*Doc->P, Spec.Class);
      const CodeMethod *Method =
          Class ? findCodeMethod(*Doc->P, *Class, Spec.Method) : nullptr;
      if (Method) {
        QueryScope QS = scopeAtEnd(Class, Method);
        DiagnosticEngine Diags;
        PE = parseQueryText(Spec.Query, *Doc->P, QS, Diags);
        Site = CodeSite{Class, Method, QS.StmtIndex};
      }
    }
    if (!PE)
      return;
    static const char *const EngineSpan[] = {"engine.method",
                                             "engine.argument",
                                             "engine.lookup"};
    BatchExecutor::BatchResult B;
    {
      Scope S(&T, EngineSpan[static_cast<int>(Q.Fam)], Id, Root);
      B = Doc->Exec->completeBatch({{PE, Site, Spec.N, Spec.Opts, nullptr}});
    }
    LastBucket.push_back(B.Stats.front().LastBucket);
    CeilingHits += B.Stats.front().ScoreCeilingHit;
    {
      Scope S(&T, "print", Id, Root);
      for (const Completion &C : B.Results.front())
        (void)printExpr(*Doc->TS, C.E);
    }
  }

  const Inputs &In;
  Tracer &T;
  InProcess &Svc;
  std::shared_ptr<const BaseCorpus> Base;
  Rng Coin;
  bool Untraced = false;
  int64_t Root = -1;
  double RunUs = -1; ///< the private session.run of the last completion
  std::map<uint64_t, std::unique_ptr<DocumentState>> Chain;
  ResultCache Scratch{PetalService::Options().CacheCapacity};
};

bool Loop::step(const Op &O, Phase Ph, bool Event) {
  Executed X;
  X.Ph = Ph;
  X.Event = Event;
  X.Kind = O.Kind;
  X.Doc = O.Doc;
  X.Slot = O.Slot;
  X.Query = O.Query;
  X.Id = NextId++;
  std::string Name = In.wireName(O.Doc, O.Slot);
  DocState &S = Docs[docKey(O.Doc, O.Slot)];
  std::string Request;
  switch (O.Kind) {
  case OpKind::Open:
    S = {1, O.Version};
    X.Route = In.Docs[O.Doc].Versions[O.Version].Kind;
    Request = Req.open(Name, O.Doc, O.Version, X.Id, false, 1);
    break;
  case OpKind::Change: {
    uint32_t Edited = O.Version ? O.Version : S.Text;
    X.Route = In.Docs[O.Doc].Versions[Edited].Kind;
    S = {S.Version + 1, O.Version};
    Request = Req.open(Name, O.Doc, O.Version, X.Id, true, S.Version);
    break;
  }
  case OpKind::Close:
    Request = Req.close(Name, X.Id);
    break;
  case OpKind::Complete:
    Request = Req.complete(Name, In.Docs[O.Doc].Queries[O.Query], X.Id,
                           S.Version);
    break;
  }
  X.Text = S.Text;
  X.Version = S.Version;
  if (O.Kind == OpKind::Close)
    Docs.erase(docKey(O.Doc, O.Slot));

  if (Probe)
    Probe->before(X);
  std::string Resp;
  X.PauseUs = PauseUs;
  PauseUs = 0;
  X.StartUs = nowUs();
  bool Ok = Ep->call(Request, Resp);
  X.EndUs = nowUs();
  X.Error = !Ok || !isResult(Resp);
  X.Hash = fnv1a(Resp);
  if (O.Kind != OpKind::Complete || X.Error) {
    X.Payload = static_cast<int32_t>(Payloads.size());
    Payloads.push_back(Resp);
  }
  if (Ph == Phase::Timed) {
    TimedCompletes += O.Kind == OpKind::Complete;
    TimedChanges += O.Kind == OpKind::Change;
    TimedOpens += O.Kind == OpKind::Open;
  }
  if (Probe)
    Probe->after(X, Request, Resp);
  Ex.push_back(X);
  return Ok;
}

/// The per-layer metrics every workload's traced run produces; the
/// BENCHMARK.json per_layer list.
const MetricSpec CoreLayers[] = {
    {"transport.read_us", "us"},      {"transport.write_us", "us"},
    {"transport.request_bytes", "bytes"},
    {"transport.response_bytes", "bytes"},
    {"json.parse_us", "us"},          {"json.write_us", "us"},
    {"service.handle_us", "us"},      {"service.roundtrip_us", "us"},
    {"service.overhead_us", "us"},    {"cache.probe_us", "us"},
    {"cache.insert_us", "us"},        {"cache.hit_ratio", "ratio"},
    {"cache.retained_per_edit", "count"},
    {"session.spec_us", "us"},        {"session.run_us", "us"},
    {"build.incremental_noop_ms", "ms"},
    {"build.route_mismatches", "count"},
    {"doc.bytes", "bytes"},           {"parse.source_ms", "ms"},
    {"parse.source_kib", "KiB"},      {"shape.ms", "ms"},
    {"resolve.full_ms", "ms"},        {"resolve.reuse_ms", "ms"},
    {"parse.query_us", "us"},         {"index.build_ms", "ms"},
    {"index.bytes", "bytes"},         {"infer.solve_ms", "ms"},
    {"engine.method_p50_us", "us"},   {"engine.argument_p50_us", "us"},
    {"engine.lookup_p50_us", "us"},   {"engine.last_bucket", "count"},
    {"engine.ceiling_hits", "count"}, {"print.us", "us"},
    {"trace.overhead_pct", "%"},
};

int runTraced(const RunOptions &Opts, const Inputs &In, Oracle &O,
              const std::string &BasePath, std::ostream &Out) {
  Tracer T;
  PetalService::Options SvcOpts;
  SvcOpts.Workers = 1; // as the daemon runs
  std::shared_ptr<const BaseCorpus> Base;
  std::map<std::string, std::vector<double>> Extra;
  if (!BasePath.empty()) {
    std::string Error;
    for (size_t R = 0; R != MinSetups; ++R) {
      double S0 = nowUs();
      std::shared_ptr<const snapshot::LoadedSnapshot> Snap =
          snapshot::loadSnapshot(BasePath, Error);
      double S1 = nowUs();
      if (!Snap) {
        std::cerr << "wirebench: base snapshot rejected: " << Error << "\n";
        return 2;
      }
      Base = baseCorpusFromSnapshot(Snap);
      double S2 = nowUs();
      T.add("snapshot.load", 0, -1, S0, S1);
      T.add("base.adopt", 0, -1, S1, S2);
      Extra["snapshot.bytes"] = {static_cast<double>(Snap->Bytes)};
      Extra["base.bytes"] = {static_cast<double>(Base->memoryBytes())};
    }
    SvcOpts.Base = Base;
  }

  std::unique_ptr<InProcess> Svc = std::make_unique<InProcess>(SvcOpts, T);
  LayerProbe Probe(In, T, *Svc, Base, subSeed(Opts.Seed, 7));
  Requests Req(In);
  Loop L(In, Req, &Probe);
  L.attach(*Svc);
  std::string Resp;
  double Hits0 = 0, Misses0 = 0, Hits1 = 0, Misses1 = 0;
  bool Ok = Svc->call(initializeRequest(), Resp) && L.setup() &&
            Svc->cacheCounts(Hits0, Misses0);
  Probe.LastMisses = Misses0;
  double Start = nowUs(), Budget = Opts.Seconds * 1e6;
  // Per-layer figures need no minimum sample count: stop on time.
  Ok = Ok && L.timed(Start + Budget, Start + Budget) &&
       Svc->cacheCounts(Hits1, Misses1);
  Svc.reset();
  if (!Ok) {
    std::cerr << "wirebench: in-process service stopped answering\n";
    return 2;
  }
  Verdict V =
      verify(In, O, L.Ex, L.Payloads, std::min<size_t>(4, releaseCpus()));

  // Span statistics: every span name's duration and self time.
  std::vector<wirebench::Span> Spans = T.spans();
  std::vector<double> Self = selfTimesUs(Spans);
  std::map<std::string, std::vector<double>> Dur, SelfOf;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Dur[Spans[I].Name].push_back(Spans[I].durationUs());
    SelfOf[Spans[I].Name].push_back(Self[I]);
  }
  std::map<std::string, double> Values;
  auto FromSpans = [&](const char *Metric, const char *Name, double Scale) {
    auto It = Dur.find(Name);
    if (It != Dur.end())
      Values[Metric] = median(It->second) * Scale;
  };
  const double Us = 1, Ms = 1e-3;
  FromSpans("transport.read_us", "transport.read", Us);
  FromSpans("transport.write_us", "transport.write", Us);
  FromSpans("json.parse_us", "json.parse", Us);
  FromSpans("json.write_us", "json.write", Us);
  FromSpans("service.handle_us", "service.handle", Us);
  FromSpans("service.roundtrip_us", "service.roundtrip", Us);
  FromSpans("cache.probe_us", "cache.probe", Us);
  FromSpans("cache.insert_us", "cache.insert", Us);
  FromSpans("session.spec_us", "session.spec", Us);
  FromSpans("session.run_us", "session.run", Us);
  FromSpans("build.full_ms", "build.full", Ms);
  FromSpans("build.incremental_body_ms", "build.incremental_body", Ms);
  FromSpans("build.incremental_noop_ms", "build.incremental_noop", Ms);
  FromSpans("build.overlay_ms", "build.overlay", Ms);
  FromSpans("parse.source_ms", "parse.source", Ms);
  FromSpans("shape.ms", "shape", Ms);
  FromSpans("resolve.full_ms", "resolve.full", Ms);
  FromSpans("resolve.reuse_ms", "resolve.reuse", Ms);
  FromSpans("parse.query_us", "parse.query", Us);
  FromSpans("index.build_ms", "index.build", Ms);
  FromSpans("infer.solve_ms", "infer.solve", Ms);
  FromSpans("print.us", "print", Us);
  FromSpans("snapshot.load_ms", "snapshot.load", Ms);
  FromSpans("base.adopt_ms", "base.adopt", Ms);
  for (const char *F : {"method", "argument", "lookup"}) {
    auto It = Dur.find(std::string("engine.") + F);
    if (It == Dur.end())
      continue;
    // The median is reported even below the density rule's 20 samples;
    // the sample count is printed next to it.
    Values[std::string("engine.") + F + "_p50_us"] =
        percentile(It->second, 0.5).value_or(median(It->second));
    if (std::optional<double> P99 = percentile(It->second, 0.99))
      Values[std::string("engine.") + F + "_p99_us"] = *P99;
  }
  Values["transport.request_bytes"] = median(Probe.ReqBytes);
  Values["transport.response_bytes"] = median(Probe.RespBytes);
  // The timed phase's hit ratio, by the service's own counters.
  double Asked = (Hits1 - Hits0) + (Misses1 - Misses0);
  Values["cache.hit_ratio"] = Asked > 0 ? (Hits1 - Hits0) / Asked : 0;
  if (!Probe.Overhead.empty())
    Values["service.overhead_us"] = median(Probe.Overhead);
  if (!Probe.Retained.empty())
    Values["cache.retained_per_edit"] = mean(Probe.Retained);
  Values["build.route_mismatches"] = static_cast<double>(Probe.RouteMismatches);
  if (!Probe.DocBytes.empty()) {
    Values["doc.bytes"] = median(Probe.DocBytes);
    Values["index.bytes"] = median(Probe.IndexBytes);
    Values["parse.source_kib"] = mean(Probe.SourceKib);
  }
  if (!Probe.LastBucket.empty())
    Values["engine.last_bucket"] = mean(Probe.LastBucket);
  Values["engine.ceiling_hits"] = static_cast<double>(Probe.CeilingHits);
  for (auto &[Name, V] : Extra)
    Values[Name] = median(V);
  if (!Probe.TracedUs.empty() && !Probe.UntracedUs.empty())
    Values["trace.overhead_pct"] =
        (median(Probe.TracedUs) / median(Probe.UntracedUs) - 1) * 100;

  Out << "spans: " << Spans.size() << "; per name: count, median duration "
      << "and median self time (us)\n";
  for (auto &[Name, D] : Dur)
    Out << "  " << std::left << std::setw(24) << Name << std::right
        << std::setw(8) << D.size() << std::setw(12) << fmt(median(D), 1)
        << std::setw(12) << fmt(median(SelfOf[Name]), 1) << "\n";
  Out << "per-layer metrics (all this workload produces):\n";
  for (auto &[Name, V] : Values)
    Out << "  " << std::left << std::setw(28) << Name << std::right
        << fmt(V, 3) << "\n";
  Out << "verified: attempted=" << V.Attempted << " failed=" << V.Failed
      << " mismatched=" << V.Mismatched << "\n";
  if (!V.FirstProblem.empty())
    Out << "first problem: " << V.FirstProblem << "\n";

  std::string TracePath = Opts.WorkDir + "/trace-" + workloadName(Opts.W) +
                          "-" + std::to_string(Opts.Seed) + ".jsonl";
  std::ofstream TraceOut(TracePath);
  T.writeJsonLines(TraceOut);
  Out << "spans written to " << TracePath << "\n";

  std::vector<Metric> Result;
  for (const MetricSpec &M : CoreLayers) {
    auto It = Values.find(M.Name);
    if (It == Values.end()) {
      std::cerr << "wirebench: traced run produced no " << M.Name << "\n";
      return 3;
    }
    Result.push_back({M.Name, It->second, M.Unit});
  }
  printResult(Out, V, Result);
  return 0;
}

} // namespace

uint64_t wirebench::fnv1a(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

Samples wirebench::classify(const std::vector<Executed> &Ex) {
  Samples S;
  std::map<uint64_t, std::pair<OpKind, double>> Pending;
  for (const Executed &X : Ex) {
    uint64_t K = docKey(X.Doc, X.Slot);
    switch (X.Kind) {
    case OpKind::Open:
    case OpKind::Change:
      if (X.Ph == Phase::Timed)
        Pending[K] = {X.Kind, X.StartUs};
      else
        Pending.erase(K);
      break;
    case OpKind::Close:
      Pending.erase(K);
      break;
    case OpKind::Complete: {
      auto It = Pending.find(K);
      if (It != Pending.end()) {
        double Ms = (X.EndUs - It->second.second) / 1000.0;
        (It->second.first == OpKind::Open ? S.Open : S.Edit).add(Ms, X.EndUs);
        Pending.erase(It);
      } else if (X.Ph == Phase::Timed) {
        S.Complete.add(X.EndUs - X.StartUs, X.EndUs);
      }
      break;
    }
    }
  }
  return S;
}

Series wirebench::atNominalSpeed(const Series &S, const HostSpeed &Host) {
  Series Out;
  for (size_t I = 0; I != S.size(); ++I)
    Out.add(S.Values[I] * Host.scaleAt(S.AtUs[I]), S.AtUs[I]);
  return Out;
}

double wirebench::completionRate(const std::vector<Executed> &Ex,
                                 double TimedStartUs, const HostSpeed *Host) {
  size_t Completions = 0;
  double LoopUs = 0, PrevEnd = TimedStartUs;
  for (const Executed &X : Ex) {
    if (X.Ph != Phase::Timed)
      continue;
    if (!X.Event) {
      LoopUs += (X.EndUs - PrevEnd - X.PauseUs) *
                (Host ? Host->scaleAt(X.EndUs) : 1);
      Completions += X.Kind == OpKind::Complete;
    }
    PrevEnd = X.EndUs;
  }
  return LoopUs > 0 ? static_cast<double>(Completions) * 1e6 / LoopUs : 0;
}

Verdict wirebench::verify(const Inputs &In, Oracle &O,
                          const std::vector<Executed> &Ex,
                          const std::vector<std::string> &Payloads,
                          size_t Threads) {
  std::vector<Oracle::Ask> Asks;
  for (const Executed &X : Ex)
    if (X.Kind == OpKind::Complete && !X.Error)
      Asks.push_back({X.Doc, X.Text, &In.Docs[X.Doc].Versions[X.Text].Text,
                      &In.Docs[X.Doc].Queries[X.Query]});
  O.precompute(Asks, Threads);
  Verdict V;
  auto Problem = [&](const Executed &X, const std::string &What) {
    if (V.FirstProblem.empty())
      V.FirstProblem = "request " + std::to_string(X.Id) + ": " + What;
  };
  for (const Executed &X : Ex) {
    ++V.Attempted;
    if (X.Error) {
      ++V.Failed;
      Problem(X, X.Payload >= 0 ? Payloads[X.Payload] : "no response");
      continue;
    }
    const DocSpec &D = In.Docs[X.Doc];
    if (X.Kind == OpKind::Complete) {
      const std::string &Ref =
          O.completions(X.Doc, X.Text, D.Versions[X.Text].Text,
                        D.Queries[X.Query]);
      std::string Want = Ref.empty()
                             ? std::string()
                             : expectedCompleteResponse(
                                   X.Id, In.wireName(X.Doc, X.Slot),
                                   X.Version, Ref);
      if (Want.empty() || fnv1a(Want) != X.Hash) {
        ++V.Mismatched;
        Problem(X, "completion differs from the reference " + Want);
      }
      continue;
    }
    if (X.Kind == OpKind::Close)
      continue;
    json::Value R;
    std::string Error;
    const json::Value *Res = nullptr;
    if (json::parse(Payloads[X.Payload], R, Error))
      Res = R.find("result");
    if (!Res || Res->getString("build") != expectedRoute(X.Route) ||
        Res->getInt("version", -1) != X.Version) {
      ++V.Mismatched;
      Problem(X, std::string("expected build '") + expectedRoute(X.Route) +
                     "', got " + Payloads[X.Payload]);
    }
  }
  return V;
}

std::vector<std::pair<std::string, std::string>>
wirebench::endToEndMetrics() {
  std::vector<std::pair<std::string, std::string>> N;
  for (const MetricSpec &M : EndToEnd)
    N.push_back({M.Name, M.Unit});
  return N;
}

std::vector<std::pair<std::string, std::string>>
wirebench::coreLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> N;
  for (const MetricSpec &M : CoreLayers)
    N.push_back({M.Name, M.Unit});
  return N;
}

int wirebench::runBenchmark(const RunOptions &Opts, std::ostream &Out) {
  std::string Error;
  int Cpu = confineToOneCpu(Error);
  if (Cpu < 0) {
    std::cerr << "wirebench: " << Error << "\n";
    return 2;
  }
  Oracle O;
  double G0 = nowUs();
  Inputs In = generateInputs(Opts.W, Opts.Seed, O);
  Out << "inputs: " << In.Docs.size() << " documents, ";
  size_t Queries = 0, Bytes = In.BaseSource.size();
  for (const DocSpec &D : In.Docs) {
    Queries += D.Queries.size();
    Bytes += D.Versions[0].Text.size();
  }
  Out << Queries << " queries, " << Bytes / 1024 << " KiB of source; "
      << In.Timed.size() << " timed ops; generated in "
      << fmt((nowUs() - G0) / 1e6, 2) << " s\n";
  // The daemon's flags: one worker, since the run has one CPU, plus the
  // base snapshot this process writes for workspace-overlay.
  std::vector<std::string> Flags = {"--workers", "1"};
  std::string BasePath;
  if (In.W == Workload::WorkspaceOverlay) {
    BasePath = Opts.WorkDir + "/base.snap";
    std::shared_ptr<const BaseCorpus> Base =
        baseCorpusFromSource(In.BaseSource, Error);
    if (!Base || !snapshot::writeSnapshot(BasePath, In.BaseSource,
                                          Base->Shape, *Base->Idx,
                                          *Base->Solution, Error)) {
      std::cerr << "wirebench: cannot write the base snapshot: " << Error
                << "\n";
      return 2;
    }
    Flags.insert(Flags.end(), {"--base-snapshot", BasePath});
  }
  printEnvironment(Out, Opts, Cpu, Flags, In);
  return Opts.Trace ? runTraced(Opts, In, O, BasePath, Out)
                    : runWire(Opts, In, O, Flags, Out);
}

//===- wirebench/src/Runner.h - Closed-loop runs, metrics -------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a workload's script against petald in a closed loop and turns
/// what happened into metrics. The end-to-end run drives the real daemon
/// over its stdio; the traced run replays the same inputs in-process and
/// records a span around every call into a petal layer.
///
//===----------------------------------------------------------------------===//

#ifndef WIREBENCH_RUNNER_H
#define WIREBENCH_RUNNER_H

#include "HostSpeed.h"
#include "Inputs.h"
#include "Stats.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wirebench {

class Oracle;

struct RunOptions {
  Workload W = Workload::CompleteMiss;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string DaemonPath;
  std::string WorkDir; ///< working files: base snapshot, daemon log, spans
  std::string BuildType;
};

enum class Phase : uint8_t { Setup, Timed };

/// One request as it went over the wire.
struct Executed {
  Phase Ph = Phase::Setup;
  OpKind Kind = OpKind::Complete;
  uint32_t Doc = 0;
  uint32_t Slot = 0;
  uint32_t Text = 0;  ///< text version the document holds after the op
  uint32_t Query = 0; ///< Complete only
  EditKind Route = EditKind::None; ///< Open/Change: the build expected
  int64_t Id = 0;
  int64_t Version = 0; ///< document version after the op
  double StartUs = 0;  ///< request about to be written
  double EndUs = 0;    ///< response fully read
  uint64_t Hash = 0;   ///< FNV-1a of the response payload
  bool Error = false;  ///< no response, or an error response
  bool Event = false;  ///< part of an event cycle in the timed phase
  double PauseUs = 0;  ///< client time before it spent on reference slices
  int32_t Payload = -1; ///< index of the kept payload (non-completions)
};

/// The latency samples a run yields, all from the timed phase. The first
/// completion after an open or an edit of a document measures readiness
/// (Open / Edit, in ms) and is never a completion sample (us). Each sample
/// is stamped with the time its answer arrived.
struct Samples {
  Series Complete, Open, Edit;
};
Samples classify(const std::vector<Executed> &Ex);

/// \p S with every sample scaled to nominal host speed.
Series atNominalSpeed(const Series &S, const HostSpeed &Host);

/// Completions answered per second of timed loop time outside event
/// cycles: the time from the end of one request to the end of the next
/// counts, less reference slices, unless the next belongs to an event
/// cycle. With \p Host, each stretch is scaled to nominal host speed.
double completionRate(const std::vector<Executed> &Ex, double TimedStartUs,
                      const HostSpeed *Host = nullptr);

/// The outcome of checking every response.
struct Verdict {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;     ///< transport failures and error responses
  uint64_t Mismatched = 0; ///< answers that differ from the reference
  std::string FirstProblem;
  bool correct() const { return Failed == 0 && Mismatched == 0; }
};
/// Checks each completion byte for byte against \p O (computing its
/// answers on \p Threads threads) and each open and change for the build
/// route its edit must take.
Verdict verify(const Inputs &In, Oracle &O, const std::vector<Executed> &Ex,
               const std::vector<std::string> &Payloads, size_t Threads = 1);

uint64_t fnv1a(std::string_view S);

/// Runs one workload end to end and prints the report; the last line is
/// the result object. Returns the process exit code.
int runBenchmark(const RunOptions &Opts, std::ostream &Out);

/// The (name, unit) of every metric an end-to-end run reports, in order.
std::vector<std::pair<std::string, std::string>> endToEndMetrics();
/// The (name, unit) of every metric a traced run reports, in order.
std::vector<std::pair<std::string, std::string>> coreLayerMetrics();

} // namespace wirebench

#endif // WIREBENCH_RUNNER_H

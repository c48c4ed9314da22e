//===- wirebench/src/Wire.h - The daemon as a child process -----*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// petal_serve as a child process spoken to over its stdio with
/// Content-Length framing, one request in flight at a time: what an
/// editor does. Running it out of process keeps the client's memory out
/// of the daemon's peak RSS.
///
//===----------------------------------------------------------------------===//

#ifndef WIREBENCH_WIRE_H
#define WIREBENCH_WIRE_H

#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

namespace wirebench {

/// A request/response channel to a petald service.
class Endpoint {
public:
  virtual ~Endpoint() = default;
  /// Sends one framed request and reads the next framed response.
  virtual bool call(const std::string &Request, std::string &Response) = 0;
};

class Daemon : public Endpoint {
public:
  /// Starts \p Path with \p Args and this process's environment; its
  /// stderr goes to \p LogPath.
  static std::unique_ptr<Daemon> spawn(const std::string &Path,
                                       const std::vector<std::string> &Args,
                                       const std::string &LogPath,
                                       std::string &Error);
  /// Kills the process if it is still running, and reaps it.
  ~Daemon() override;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool call(const std::string &Request, std::string &Response) override;

  /// The daemon's peak resident set (VmHWM) in MiB, 0 if unreadable.
  double peakRssMib() const;
  /// shutdown + exit, then waits for the process to end (killing it after
  /// a grace period). True if it exited with status 0.
  bool stop();

private:
  Daemon() = default;
  bool writeFrame(const std::string &Payload);
  bool readFrame(std::string &Payload);

  pid_t Pid = -1;
  int ToChild = -1;
  int FromChild = -1;
  std::string Buf;
  size_t BufPos = 0;
};

/// Confines the calling process (and every child it spawns later) to one
/// CPU it is allowed to run on, the last one. Returns the CPU, or -1 with
/// \p Error set.
int confineToOneCpu(std::string &Error);
/// Lets the calling thread use every CPU it was allowed before
/// confineToOneCpu (after measuring: the oracle check runs in parallel).
/// Returns how many that is.
size_t releaseCpus();

/// Frames \p Payload the way petald's FramedReader expects.
std::string frame(const std::string &Payload);

} // namespace wirebench

#endif // WIREBENCH_WIRE_H

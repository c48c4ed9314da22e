//===- wirebench/src/HostSpeed.h - How fast the host runs right now -*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared hosts this benchmark runs on change speed for seconds to
/// minutes at a time, by up to 1.6 times. The drift is largest in what
/// crosses into the kernel: a context switch, a system call, a page fault.
/// A petald request is made of those (pipe reads and writes, the hand-off
/// from the dispatch thread to a worker, fresh allocations), so no length
/// of run averages the drift away.
///
/// The client therefore times a reference slice that touches no petal
/// code, every EveryUs of the timed phase and before every set-up: a fixed
/// number of one-byte round trips over a pipe pair to an echo thread of its
/// own, on the same CPU, in the CPU time of the client process (so time the
/// daemon takes on the shared CPU meanwhile does not count). Each time the
/// benchmark reports is scaled by the host's speed at that moment, NominalUs
/// over the median of the Nearest slices around it: a reported time is the
/// time the request would take on a host that runs the slice in NominalUs.
/// wirebench/README.md has the measurements behind this choice.
///
//===----------------------------------------------------------------------===//

#ifndef WIREBENCH_HOSTSPEED_H
#define WIREBENCH_HOSTSPEED_H

#include <cstddef>
#include <thread>
#include <vector>

namespace wirebench {

class HostSpeed {
public:
  /// CPU time of one reference slice at nominal host speed.
  static constexpr double NominalUs = 1500;
  /// How often the timed phase runs a reference slice.
  static constexpr double EveryUs = 250e3;
  /// How many slices, nearest in time, one scale factor is the median of.
  static constexpr size_t Nearest = 7;

  /// Starts the echo thread.
  HostSpeed();
  /// Stops the echo thread and waits for it.
  ~HostSpeed();
  HostSpeed(const HostSpeed &) = delete;
  HostSpeed &operator=(const HostSpeed &) = delete;

  /// Runs one reference slice and records its CPU time at \p AtUs.
  void sample(double AtUs);
  /// Records a slice that took \p CpuUs at \p AtUs.
  void record(double AtUs, double CpuUs);

  /// NominalUs over the median CPU time of the Nearest slices closest to
  /// \p AtUs: multiply a time measured then by this. 1 with no slices.
  double scaleAt(double AtUs) const;

  size_t size() const { return AtUs.size(); }
  /// The median CPU time of every slice recorded.
  double medianCpuUs() const;

private:
  std::vector<double> AtUs, CpuUs; ///< in time order
  int ToEcho[2] = {-1, -1}, FromEcho[2] = {-1, -1};
  std::thread Echo;
};

} // namespace wirebench

#endif // WIREBENCH_HOSTSPEED_H

//===- wirebench/src/HostSpeed.cpp - How fast the host runs right now -----===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"

#include "Stats.h"

#include <algorithm>

#include <time.h>
#include <unistd.h>

using namespace wirebench;

namespace {

/// Round trips in one reference slice.
constexpr int RoundTrips = 400;

double processCpuUs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e6 +
         static_cast<double>(T.tv_nsec) / 1e3;
}

} // namespace

HostSpeed::HostSpeed() {
  if (::pipe(ToEcho) != 0 || ::pipe(FromEcho) != 0)
    return;
  Echo = std::thread([this] {
    char C;
    while (::read(ToEcho[0], &C, 1) == 1)
      if (::write(FromEcho[1], &C, 1) != 1)
        break;
  });
}

HostSpeed::~HostSpeed() {
  // End of input stops the echo thread.
  if (ToEcho[1] >= 0)
    ::close(ToEcho[1]);
  if (Echo.joinable())
    Echo.join();
  for (int Fd : {ToEcho[0], FromEcho[0], FromEcho[1]})
    if (Fd >= 0)
      ::close(Fd);
}

void HostSpeed::sample(double At) {
  if (!Echo.joinable())
    return;
  double C0 = processCpuUs();
  char C = 'x';
  for (int I = 0; I != RoundTrips; ++I)
    if (::write(ToEcho[1], &C, 1) != 1 || ::read(FromEcho[0], &C, 1) != 1)
      return;
  record(At, processCpuUs() - C0);
}

void HostSpeed::record(double At, double Cpu) {
  AtUs.push_back(At);
  CpuUs.push_back(Cpu);
}

double HostSpeed::scaleAt(double At) const {
  if (AtUs.empty())
    return 1;
  // The Nearest slices around At: a window of that size (or all slices)
  // slid to where its two ends are closest to At.
  size_t N = std::min(Nearest, AtUs.size());
  size_t Hi = static_cast<size_t>(
      std::lower_bound(AtUs.begin(), AtUs.end(), At) - AtUs.begin());
  size_t Lo = Hi >= N / 2 ? Hi - N / 2 : 0;
  Lo = std::min(Lo, AtUs.size() - N);
  while (Lo > 0 && At - AtUs[Lo - 1] < AtUs[Lo + N - 1] - At)
    --Lo;
  while (Lo + N < AtUs.size() && AtUs[Lo + N] - At < At - AtUs[Lo])
    ++Lo;
  std::vector<double> Window(CpuUs.begin() + static_cast<long>(Lo),
                             CpuUs.begin() + static_cast<long>(Lo + N));
  return NominalUs / median(std::move(Window));
}

double HostSpeed::medianCpuUs() const { return median(CpuUs); }

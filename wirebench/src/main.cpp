//===- wirebench/src/main.cpp - petald wire benchmark client --------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
//   wirebench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Runs one workload (complete-miss, complete-hit, edit-type,
// workspace-overlay; see wirebench/README.md) and prints a report whose
// last line is the result object.
//
//===----------------------------------------------------------------------===//

#include "Runner.h"

#include <cstdlib>
#include <iostream>

#include <sys/stat.h>

using namespace wirebench;

static bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End && *End == '\0' && End != S;
}

int main(int argc, char **argv) {
  RunOptions Opts;
  Opts.DaemonPath = WIREBENCH_DAEMON;
  Opts.BuildType = WIREBENCH_BUILD_TYPE;
  Opts.WorkDir = ".bench_build/wirebench-work";
  std::string Workload;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    double N = 0;
    const char *V = I + 1 < argc ? argv[++I] : nullptr;
    if (!V) {
      std::cerr << "wirebench: " << A << " needs a value\n";
      return 2;
    }
    if (A == "--workload")
      Workload = V;
    else if (A == "--seed" && parseNumber(V, N) && N >= 0)
      Opts.Seed = static_cast<uint64_t>(N), HaveSeed = true;
    else if (A == "--seconds" && parseNumber(V, N) && N > 0)
      Opts.Seconds = N;
    else if (A == "--trace" && parseNumber(V, N) && (N == 0 || N == 1))
      Opts.Trace = N == 1;
    else if (A == "--work-dir")
      Opts.WorkDir = V;
    else {
      std::cerr << "wirebench: bad argument " << A << " " << V << "\n";
      return 2;
    }
  }
  if (!parseWorkload(Workload, Opts.W) || !HaveSeed) {
    std::cerr << "usage: wirebench --workload complete-miss|complete-hit|"
                 "edit-type|workspace-overlay --seed N [--seconds S] "
                 "[--trace 0|1] [--work-dir DIR]\n";
    return 2;
  }
  ::mkdir(Opts.WorkDir.c_str(), 0755);
  return runBenchmark(Opts, std::cout);
}

//===- wirebench/src/Trace.h - Spans for the traced run ---------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the traced run records around each call into a petal layer: name,
/// start, end, parent span, and the request the work belongs to. Spans stay
/// in memory until the run ends (writing them out mid-run would perturb
/// what is measured). A span's self time is its duration minus the part of
/// its interval that its children cover; children may overlap each other
/// (a response callback on a worker thread can run while the request's
/// dispatch span is still open), so coverage is a union, not a sum.
///
//===----------------------------------------------------------------------===//

#ifndef WIREBENCH_TRACE_H
#define WIREBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

namespace wirebench {

using Clock = std::chrono::steady_clock;

/// Microseconds since a process-wide epoch.
double nowUs();

struct Span {
  const char *Name = "";
  int64_t Parent = -1; ///< index of the parent span, -1 for a root
  uint64_t Request = 0;
  double StartUs = 0;
  double EndUs = 0;
  double durationUs() const { return EndUs - StartUs; }
};

/// Thread-safe span store. Spans are opened and closed by index, so a span
/// opened on one thread may be parented under a span of another.
class Tracer {
public:
  size_t open(const char *Name, uint64_t Request, int64_t Parent = -1);
  /// Ends the span and returns its duration in microseconds.
  double close(size_t Index);
  /// Records an already-measured interval.
  size_t add(const char *Name, uint64_t Request, int64_t Parent,
             double StartUs, double EndUs);

  /// A copy of every span recorded so far.
  std::vector<Span> spans() const;
  /// Writes one JSON object per span per line.
  void writeJsonLines(std::ostream &OS) const;

private:
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint64_t Request, int64_t Parent = -1)
      : T(T), Index(T ? T->open(Name, Request, Parent) : 0) {}
  ~Scope() {
    if (T)
      T->close(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  /// This span's index, for parenting children under it (-1 untraced).
  int64_t index() const { return T ? static_cast<int64_t>(Index) : -1; }

private:
  Tracer *T;
  size_t Index;
};

/// Self time of every span in \p Spans, in the same order.
std::vector<double> selfTimesUs(const std::vector<Span> &Spans);

} // namespace wirebench

#endif // WIREBENCH_TRACE_H

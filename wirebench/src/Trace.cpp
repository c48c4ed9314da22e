//===- wirebench/src/Trace.cpp - In-memory spans for the traced run -------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <ostream>

using namespace wirebench;

double wirebench::nowUs() {
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

size_t Tracer::open(const char *Name, uint64_t Request, int64_t Parent) {
  double Start = nowUs();
  std::lock_guard<std::mutex> L(M);
  Spans.push_back({Name, Parent, Request, Start, Start});
  return Spans.size() - 1;
}

double Tracer::close(size_t Index) {
  double End = nowUs();
  std::lock_guard<std::mutex> L(M);
  Spans[Index].EndUs = End;
  return Spans[Index].durationUs();
}

size_t Tracer::add(const char *Name, uint64_t Request, int64_t Parent,
                   double StartUs, double EndUs) {
  std::lock_guard<std::mutex> L(M);
  Spans.push_back({Name, Parent, Request, StartUs, EndUs});
  return Spans.size() - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(M);
  return Spans;
}

void Tracer::writeJsonLines(std::ostream &OS) const {
  std::lock_guard<std::mutex> L(M);
  for (const Span &S : Spans)
    OS << "{\"name\":\"" << S.Name << "\",\"request\":" << S.Request
       << ",\"parent\":" << S.Parent << ",\"start_us\":" << S.StartUs
       << ",\"end_us\":" << S.EndUs << "}\n";
}

std::vector<double> wirebench::selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Children[S.Parent].push_back({S.StartUs, S.EndUs});

  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    // Union of the children's intervals, clipped to the parent's.
    double Covered = 0, RunStart = 0, RunEnd = 0;
    bool InRun = false;
    for (auto [S, E] : C) {
      S = std::max(S, P.StartUs);
      E = std::min(E, P.EndUs);
      if (E <= S)
        continue;
      if (InRun && S <= RunEnd) {
        RunEnd = std::max(RunEnd, E);
        continue;
      }
      if (InRun)
        Covered += RunEnd - RunStart;
      RunStart = S;
      RunEnd = E;
      InRun = true;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    Self[I] = std::max(0.0, P.durationUs() - Covered);
  }
  return Self;
}

//===- synthbench/Spans.h - In-memory spans of the traced run ----*- C++ -*-===//
//
// Part of the Migrator project: a reproduction of "Synthesizing Database
// Programs for Schema Refactoring" (Wang et al., PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The benchmark opens one span around each
/// call it makes into a layer (the library itself is not instrumented);
/// every span keeps its name, start, end, parent and scenario id. Spans stay
/// in memory and are written out once, when the run ends. Single-threaded:
/// the traced pipeline runs on the calling thread.
///
//===----------------------------------------------------------------------===//

#ifndef MIGRATOR_SYNTHBENCH_SPANS_H
#define MIGRATOR_SYNTHBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace synthbench {

struct Span {
  std::string Name;
  double StartS = 0; ///< Seconds since the recorder was created.
  double EndS = 0;
  int Parent = -1;   ///< Index of the parent span, -1 for a root.
  int Scenario = -1;

  double durationS() const { return EndS - StartS; }
};

class SpanRecorder {
public:
  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string &Name, int Scenario) {
    Span S;
    S.Name = Name;
    S.StartS = now();
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Scenario = Scenario;
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }

  void close(int Index) {
    Spans[Index].EndS = now();
    if (!Stack.empty() && Stack.back() == Index)
      Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Per span: its duration minus the time its child spans cover. Spans
  /// nest without overlap (one thread), so the children's durations sum to
  /// the covered time.
  std::vector<double> selfTimesS() const {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[I] = Spans[I].durationS();
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= S.durationS();
    return Self;
  }

  /// Self time summed per span name.
  std::map<std::string, double> selfTimeByName() const {
    std::vector<double> Self = selfTimesS();
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] += Self[I];
    return Out;
  }

  /// Writes every span as Chrome trace-event JSON ("X" events, one lane per
  /// scenario), loadable in Perfetto or chrome://tracing; the parent index
  /// and scenario id ride along in "args". Returns false on I/O failure.
  bool writeJson(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"traceEvents\":[\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"scenario\":%d}}\n",
                   I ? "," : "", S.Name.c_str(), S.Scenario + 1,
                   S.StartS * 1e6, S.durationS() * 1e6, I, S.Parent,
                   S.Scenario);
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Origin)
        .count();
  }

  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span: open on construction, close on destruction.
class SpanScope {
public:
  SpanScope(SpanRecorder &R, const std::string &Name, int Scenario)
      : R(R), Index(R.open(Name, Scenario)) {}
  ~SpanScope() { R.close(Index); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  int index() const { return Index; }

private:
  SpanRecorder &R;
  int Index;
};

} // namespace synthbench

#endif // MIGRATOR_SYNTHBENCH_SPANS_H

//===- Harness.h - Shared state of the end-to-end benchmark ----*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the end-to-end benchmark shares: the run
/// options, the result being built (metrics, operation counts, correctness
/// verdict), an in-memory span recorder for traced runs, and small
/// statistics and memory helpers. See README.md for the metric contract.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_E2EBENCH_HARNESS_H
#define CHET_E2EBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

/// One benchmark run: what the workload measured and whether every output
/// it checked was right. Untraced runs set the end-to-end metrics, traced
/// runs the per-layer ones (which start at 0; a layer the workload does
/// not exercise stays 0).
class Run {
public:
  explicit Run(RunOptions Options);

  const RunOptions &options() const { return Opts; }
  bool traced() const { return Opts.Trace; }

  /// Sets a metric; the name must be one the benchmark declares for the
  /// current mode (end-to-end when untraced, per-layer when traced).
  void metric(const std::string &Name, double Value);

  /// Records a wrong output. The run keeps going so every check reports,
  /// but its result says correct = false.
  void fail(const std::string &What);

  /// Operations attempted and failed (an operation that threw).
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Spans (traced runs only; no-ops otherwise). Times are seconds since
  /// process start. \p Request groups the spans of one request.
  int beginSpan(const std::string &Name, int Parent = -1,
                uint64_t Request = 0);
  void endSpan(int Id);
  void addSpan(const std::string &Name, double Start, double End,
               int Parent = -1, uint64_t Request = 0);

  /// The one-line result object, or "" with \p Error set when a declared
  /// metric was never measured.
  std::string resultJson(std::string &Error) const;
  /// The trace file body: options, per-layer metrics and spans.
  std::string traceJson() const;

private:
  struct Span {
    std::string Name;
    double Start = 0, End = 0;
    int Parent = -1;
    uint64_t Request = 0;
  };

  RunOptions Opts;
  std::map<std::string, double> Metrics;
  std::vector<Span> Spans;
  bool Correct = true;
};

/// Seconds since process start (static initialization of the harness).
double sinceStart();

/// RAII span: begins on construction, ends on destruction.
class SpanScope {
public:
  SpanScope(Run &R, const std::string &Name, int Parent = -1,
            uint64_t Request = 0)
      : R(R), Id(R.beginSpan(Name, Parent, Request)) {}
  ~SpanScope() { R.endSpan(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Run &R;
  int Id;
};

/// Median (mean of the middle two of an even count); 0 when empty.
double median(std::vector<double> V);
double sum(const std::vector<double> &V);

/// Resident set size now, and the process's peak so far (getrusage).
uint64_t currentRssBytes();
double peakRssMb();
inline double toMb(uint64_t Bytes) { return double(Bytes) / (1 << 20); }

/// Workload entry points.
void runLenetClient(Run &R);
void runCompileZoo(Run &R);
void runServeMt(Run &R);

} // namespace e2e

#endif // CHET_E2EBENCH_HARNESS_H

//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// sweep-ilp, sweep-pb and service-mix: their timed runs (end-to-end
// metrics) and traced runs (per-layer metrics). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Committed verdict reference (perfbench/reference/loops.tsv).
  std::string ReferencePath;
  /// Directory holding the determinism gate's counts from earlier runs of
  /// this build; empty disables the cross-run comparison.
  std::string GateDir;
  /// Identifies the build, so a rebuilt binary starts a fresh gate.
  std::string BuildId;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunResult {
  bool Correct = true;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// Name, unit and direction of every metric, and the workloads it applies
/// to ("*" for all); end-to-end first, then per-layer.
struct MetricInfo {
  const char *Name;
  const char *Unit;
  const char *Better;
  const char *Workloads;
};
const std::vector<MetricInfo> &endToEndMetrics();
const std::vector<MetricInfo> &perLayerMetrics();

const std::vector<std::string> &workloadNames();

/// Runs one workload; human-readable lines (percentiles with their sample
/// counts, failures, gate verdicts) go to \p Report.
RunResult runWorkload(const RunOptions &Opts, std::FILE *Report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

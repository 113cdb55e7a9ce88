//===- bench/Harness.h - Shared experiment harness --------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common infrastructure for the experiment binaries: the benchmark suite
/// (hand kernels + calibrated synthetic loops standing in for the paper's
/// 1327 Fortran loops), per-loop result records, and printers for the
/// paper's table layout (min / freq-of-min / median / average / max).
///
/// Budgets are configurable through the environment so the default run
/// finishes in minutes while a patient user can approach the paper's
/// 15-minute-per-loop setting:
///   MODSCHED_BENCH_LOOPS      number of synthetic loops (default 110)
///   MODSCHED_BENCH_TIMELIMIT  per-loop seconds (default 2.0)
///   MODSCHED_BENCH_SEED       suite seed (default 20260705)
///   MODSCHED_BENCH_WARMSTART  0 disables warm-started node LPs (default 1;
///                             the knob behind warm-vs-cold A/B runs)
///   MODSCHED_BENCH_BACKEND    exact engine behind every attempt: "ilp"
///                             (LP-based branch-and-bound), "pb" (CDCL
///                             pseudo-Boolean), or "auto" (a fixed rule
///                             over the objective) — the knob behind
///                             backend A/B runs; the compiled-in default
///                             follows MODSCHED_BACKEND
///   MODSCHED_BENCH_JOBS       worker threads for the per-loop sweep
///                             (default 1 = serial; loops are scheduled
///                             concurrently, records stay in suite order)
///   MODSCHED_BENCH_EXPLAIN    0 disables solve forensics (default 1:
///                             every infeasible II attempt carries a
///                             re-verified witness and every solved one
///                             an optimality audit; see
///                             docs/OBSERVABILITY.md)
///   MODSCHED_BENCH_CACHE      1 enables the content-addressed solution
///                             cache (default 0 so effort columns
///                             measure the solver; the compiled-in
///                             default follows MODSCHED_CACHE)
///
/// Malformed or out-of-range values are rejected with a warning on
/// stderr and the compiled-in default is kept — "MODSCHED_BENCH_LOOPS=
/// ten" or a negative time limit never silently becomes 0.
///
/// Every experiment binary also writes its per-loop records and resolved
/// configuration to bench_results/BENCH_<experiment>.json (see BenchJson
/// below); the directory is overridden with
///   MODSCHED_BENCH_RESULTS_DIR  output directory (default bench_results)
/// and the solver-level observability switches (docs/OBSERVABILITY.md)
/// compose freely with any bench run (MODSCHED_BENCH_JOBS included —
/// worker-thread telemetry merges through the thread shards):
///   MODSCHED_TRACE=<file>     Chrome trace_event (.json) / JSONL trace
///   MODSCHED_STATS=1          counter/timer report on stderr at exit
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_HARNESS_H
#define MODSCHED_BENCH_HARNESS_H

#include "graph/DependenceGraph.h"
#include "ilpsched/OptimalScheduler.h"
#include "machine/MachineModel.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace modsched {
namespace bench {

/// Budgets and suite shape for one experiment run.
struct BenchConfig {
  int SyntheticLoops = 110;
  uint64_t Seed = 20260705;
  double TimeLimitSeconds = 2.0;
  int64_t NodeLimit = 200000;
  /// Largest synthetic loop body.
  int LargeCap = 32;
  /// Warm-start node LPs from the parent basis (SchedulerOptions::
  /// WarmStart); MODSCHED_BENCH_WARMSTART=0 turns it off for A/B runs.
  bool WarmStart = true;
  /// Exact engine behind every attempt (SchedulerOptions::Backend):
  /// ILP branch-and-bound, the CDCL pseudo-Boolean solver, or the auto
  /// rule picking one of them (or racing both on MinReg) per objective.
  /// MODSCHED_BENCH_BACKEND=ilp|pb|auto overrides for A/B runs;
  /// the compiled-in default follows MODSCHED_BACKEND (ilpsched/
  /// OptimalScheduler.h). Formulations the PB backend cannot encode
  /// fall back to ILP per attempt with a one-time warning.
  SchedulerBackend Backend = defaultSchedulerBackend();
  /// Worker threads for the per-loop sweep (MODSCHED_BENCH_JOBS). One
  /// loop is one task; with >1 the sweep runs on a ThreadPool, each
  /// attempt under its own SolveContext, and the record vector keeps
  /// suite order regardless of completion order.
  int Jobs = 1;
  /// Solve forensics (SchedulerOptions::Explain): infeasibility
  /// witnesses and optimality audits on every attempt record.
  /// MODSCHED_BENCH_EXPLAIN=0 turns it off for overhead A/B runs.
  bool Explain = true;
  /// Content-addressed solution cache (SchedulerOptions::Cache). Off by
  /// default so effort columns (nodes, iterations, conflicts) measure
  /// the solver, not cache replay; MODSCHED_BENCH_CACHE=1 turns it on
  /// (the compiled-in default follows MODSCHED_CACHE). Cache-served
  /// records report cache_hit=true with zero solver effort and are
  /// excluded from solver-time comparisons by scripts/bench_compare.py.
  bool Cache = defaultCacheEnabled();

  /// Reads the MODSCHED_BENCH_* environment overrides. Invalid values
  /// warn on stderr and keep the defaults above.
  static BenchConfig fromEnv();
};

/// Per-loop outcome of one scheduler configuration.
struct LoopRecord {
  std::string Name;
  int NumOps = 0;
  bool Solved = false;
  bool TimedOut = false;
  /// Node budget exhausted (deterministic censoring, distinct from the
  /// machine-dependent wall-clock timeout; both can be set).
  bool NodeLimitHit = false;
  /// Served from the solution cache: the schedule was replayed from a
  /// previous verified solve of a canonically identical problem; every
  /// solver-effort field below is 0 and Attempts is empty.
  bool CacheHit = false;
  int II = 0;
  int Mii = 0;
  int64_t Nodes = 0;
  int64_t SimplexIterations = 0;
  /// CDCL conflicts / unit propagations summed over all PB solves (see
  /// ScheduleResult; zeros for ILP-backend records).
  int64_t PbConflicts = 0;
  int64_t PbPropagations = 0;
  /// Warm-started / cold node LP solves and the iterations spent inside
  /// warm solves (see MipResult; zeros for pre-warm-start records).
  int64_t WarmLpSolves = 0;
  int64_t ColdLpSolves = 0;
  int64_t WarmLpIterations = 0;
  /// Basis refactorizations / eta nonzeros summed over all node LPs
  /// (see MipResult; zeros for dense-engine and pre-sparse records).
  int64_t LpRefactorizations = 0;
  int64_t LpEtaNonzeros = 0;
  int Variables = 0;
  int Constraints = 0;
  double Seconds = 0.0;
  double Secondary = 0.0;
  int MaxLive = 0;
  long TotalLifetime = 0;
  long Buffers = 0;
  /// Per-tentative-II telemetry copied from ScheduleResult.
  std::vector<IiAttempt> Attempts;
  /// Human-readable witness per attempt (parallel to Attempts; empty
  /// when the attempt carries no witness or fromResult had no machine
  /// model to render against).
  std::vector<std::string> AttemptDetails;
  /// Infeasible attempts that carry / lack a graph-level witness (the
  /// <5%-unexplained acceptance metric; both 0 when forensics are off).
  int ExplainedAttempts = 0;
  int UnexplainedAttempts = 0;

  /// Builds the record from one scheduling run — the single place where
  /// ScheduleResult fields are copied into the bench layer, so adding a
  /// field cannot silently drift between experiment binaries. Computes
  /// the concrete register pressure when a schedule was found. \p M,
  /// when non-null, lets witnesses be rendered into AttemptDetails.
  static LoopRecord fromResult(const DependenceGraph &G,
                               const ScheduleResult &R,
                               const MachineModel *M = nullptr);

  /// "solved", "timeout", "node_limit", or "unsolved" (proved
  /// infeasible / gave up). A run censored by both budgets reports
  /// "timeout" (the wall clock is what the paper's tables censor on);
  /// the node_limit_hit field still records the node budget.
  const char *status() const {
    if (Solved)
      return "solved";
    if (TimedOut)
      return "timeout";
    if (NodeLimitHit)
      return "node_limit";
    return "unsolved";
  }
};

/// The benchmark suite: hand kernels followed by synthetic loops.
std::vector<DependenceGraph> benchSuite(const MachineModel &M,
                                        const BenchConfig &Config);

/// Runs one optimal-scheduler configuration over the whole suite.
std::vector<LoopRecord> runOptimal(const MachineModel &M,
                                   const std::vector<DependenceGraph> &Suite,
                                   Objective Obj, DependenceStyle Dep,
                                   const BenchConfig &Config);

/// Prints one scheduler's statistics block in the layout of the paper's
/// Tables 1/2 (variables, constraints, nodes, iterations, II, N), over
/// the solved loops in \p Records.
void printPaperTableBlock(const std::string &SchedulerName,
                          const std::vector<LoopRecord> &Records);

/// Number of solved records.
int countSolved(const std::vector<LoopRecord> &Records);

/// Prints one line counting the attempts of \p Records by the engine
/// that committed each verdict (IiAttempt::Engine).
void printEngineTally(const std::string &Label,
                      const std::vector<LoopRecord> &Records);

/// Indices of loops solved in every record set.
std::vector<int>
commonlySolved(const std::vector<std::vector<LoopRecord>> &RecordSets);

/// Closed-loop service benchmark summary (bench/service_bench): QPS,
/// latency percentiles, cache behavior and admission-control outcomes
/// of one request-replay phase, emitted as the optional top-level
/// "service" object of the artifact. Status keys must come
/// from the service protocol's closed status set ("ok", "timeout",
/// "node_limit", "unsolved", "cancelled", "error", "retry_after") —
/// scripts/check_bench_json.py rejects unknown strings.
struct ServiceSummary {
  std::int64_t Requests = 0;    ///< Requests submitted (incl. shed).
  std::int64_t Shed = 0;        ///< retry_after replies.
  std::int64_t Errors = 0;      ///< error replies.
  std::int64_t CacheHits = 0;   ///< ok replies served from the cache.
  double Qps = 0.0;             ///< Completed requests per second.
  double P50Ms = 0.0;           ///< Median end-to-end latency.
  double P95Ms = 0.0;
  double P99Ms = 0.0;
  double CacheHitRate = 0.0;    ///< CacheHits / ok replies (0 when none).
  /// Response-status histogram over every reply received.
  std::map<std::string, std::int64_t> Statuses;
};

/// Machine-readable result artifact for one experiment binary.
///
/// Usage: construct with the experiment name, register the resolved
/// BenchConfig, add headline metrics and every record set as they are
/// produced, and call write() before exiting. The artifact is
///   <dir>/BENCH_<experiment>.json
/// with <dir> = $MODSCHED_BENCH_RESULTS_DIR or "bench_results" (created
/// if missing). The schema (schema_version 11: config, headline
/// metrics, cache counters, the optional "service" object and the
/// per-loop record sets with their per-attempt forensics) is validated
/// by scripts/check_bench_json.py, which accepts only the current
/// version, and documented in docs/OBSERVABILITY.md.
class BenchJson {
public:
  explicit BenchJson(std::string Experiment);

  /// Records the resolved configuration (after env overrides).
  void setConfig(const BenchConfig &Config) { Cfg = Config; }

  /// Adds one experiment-specific headline number (coverage, ratios,
  /// ...). Keys should be snake_case.
  void addMetric(std::string Key, double Value);

  /// Registers the service-bench replay summary, emitted as the
  /// top-level "service" object (absent when never set).
  void setServiceSummary(ServiceSummary Summary);

  /// Adds one labelled set of per-loop records (one per scheduler
  /// configuration, typically).
  void addRecordSet(std::string Label, std::vector<LoopRecord> Records);

  /// Serializes and writes the artifact. Returns the path written, or
  /// an empty string on I/O failure (a warning is printed to stderr;
  /// experiments report their tables regardless).
  std::string write() const;

private:
  std::string Experiment;
  BenchConfig Cfg;
  std::vector<std::pair<std::string, double>> Metrics;
  /// Set iff setServiceSummary was called (optional block).
  std::optional<ServiceSummary> Service;
  struct RecordSet {
    std::string Label;
    std::vector<LoopRecord> Records;
  };
  std::vector<RecordSet> Sets;
};

} // namespace bench
} // namespace modsched

#endif // MODSCHED_BENCH_HARNESS_H

//===- perfbench/src/Bench.h - Shared pieces of the repo benchmark -*- C++ -*-===//
//
// Inputs, statistics, the verdict reference, the determinism gate and the
// span recorder shared by the three workloads (sweep-ilp, sweep-pb,
// service-mix) and by the reference generator. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"
#include "sched/Problem.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Seed of the generated loop pools. Fixed: a seeded draw of *which* loops
/// run moved one sweep from 5.1 s to 15.5 s across six seeds, so the run's
/// own seed only orders, samples and relabels loops from these pools.
inline constexpr uint64_t PoolSeed = 20260705;
/// Generated loops in the sweep-ilp suite (plus the 18 hand kernels).
inline constexpr int SweepIlpLoops = 235;
/// Generated loops in the sweep-pb pool (plus the 18 hand kernels).
inline constexpr int SweepPbLoops = 2000;
/// Largest generated loop body (the bench harness default).
inline constexpr int LargeCap = 32;
/// Per-loop search budget: branch-and-bound nodes on the ILP engine,
/// CDCL conflicts on the PB engine. Every verdict is censored by it.
inline constexpr int64_t NodeBudget = 2000;
/// Wall-clock backstop per loop; a loop that reaches it is a failure.
inline constexpr double BackstopSeconds = 30.0;

/// The machine every workload schedules for.
modsched::MachineModel benchMachine();
/// The 18 hand kernels plus SweepIlpLoops generated loops.
std::vector<modsched::DependenceGraph>
sweepIlpSuite(const modsched::MachineModel &M);
/// The 18 hand kernels plus SweepPbLoops generated loops.
std::vector<modsched::DependenceGraph>
sweepPbPool(const modsched::MachineModel &M);

/// Structural digest of a loop (operation classes, edges, registers; not
/// names). Keys the verdict reference.
uint64_t loopDigest(const modsched::DependenceGraph &G);

/// Small seeded generator owned by the benchmark (SplitMix64), so the
/// benchmark's own draws do not depend on the program's Rng.
class SplitMix {
public:
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, Bound); Bound > 0.
  uint64_t below(uint64_t Bound);
  /// Uniform in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// Zipf sampler over ranks [0, K): P(k) proportional to 1 / (k + 1)^S.
class Zipf {
public:
  Zipf(size_t K, double S);
  size_t sample(SplitMix &R) const;
  double probability(size_t Rank) const;
  size_t size() const { return Cdf.size(); }

private:
  std::vector<double> Cdf;
};

/// A loop and its machine rendered as text, relabeled: operations renamed
/// and listed in a permuted order, machine units and classes renamed.
/// Canonically equal to the original, textually different.
struct LoopText {
  std::string Machine; ///< textio machine description.
  std::string Ddg;     ///< textio .ddg description.
};
LoopText relabeledText(const modsched::DependenceGraph &G,
                       const modsched::MachineModel &M, SplitMix &R);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile with its sample count. Ok only when at least
/// ten samples lie beyond the percentile; callers refuse to emit the value
/// otherwise.
struct Percentile {
  double Value = 0.0;
  size_t Samples = 0;
  size_t Beyond = 0;
  bool Ok = false;
};
Percentile percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// Each request's least time over the passes of a run: PerPass[P][I] is
/// request I's time in pass P. Every pass does the same work (the
/// determinism gate proves it), so time above a request's least is the
/// host's interference, which drifts by tens of percent over tens of
/// seconds on a shared machine.
std::vector<double>
leastPerRequest(const std::vector<std::vector<double>> &PerPass);

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// A fixed sparse floating-point kernel owned by the benchmark (no program
/// code), timed between requests to measure how fast the host runs at
/// that moment. On a shared host the speed of memory- and FP-bound code
/// drifts by tens of percent over minutes; this kernel drifts with the
/// ILP engine's LP code to within a few percent.
class SpeedProbe {
public:
  SpeedProbe();
  /// One untimed sweep to warm the probe's data, then ProbeSweeps timed
  /// sweeps. Returns the timed part in milliseconds.
  double run();
  /// Value computed by the sweeps; fixed for a given number of runs.
  double checksum() const;

private:
  std::vector<double> A, X, Y;
  std::vector<uint32_t> Col;
  void sweep();
};
inline constexpr int ProbeSweeps = 4;
/// A fixed reference time for the probe: about its fast level (10th
/// percentile) on the host the benchmark was sized on. Time metrics are
/// reported at the host speed where the probe takes this long.
inline constexpr double ProbeReferenceMs = 1.5;

//===----------------------------------------------------------------------===//
// Verdict reference and output checks
//===----------------------------------------------------------------------===//

/// Known answers for one loop, computed offline by perfbench_reference.
struct RefEntry {
  int NoObjIi = -1;          ///< Minimum II; -1 when unknown.
  std::string NoObjSource;   ///< Engine that settled it.
  int MinBuffIi = -1;        ///< II of the MinBuff optimum; -1 if unknown.
  int64_t MinBuffObj = -1;   ///< Optimal MinBuff objective at that II.
  std::string MinBuffSource; ///< Engine that settled it.
};
using Reference = std::unordered_map<uint64_t, RefEntry>;

bool loadReference(const std::string &Path, Reference &Out,
                   std::string *Error);

/// The engine ("ilp" or "pb") that settled the reference answer for
/// \p Obj on this loop; empty when there is none. A workload leaves out
/// the loops whose answer its own engine settled, so every verdict it
/// checks comes from the other exact engine.
std::string referenceSource(const Reference &Ref, uint64_t Digest,
                            modsched::Objective Obj);

/// What one scheduled request produced, as the benchmark saw it.
struct Outcome {
  bool Failed = false;   ///< Error, shed or backstop hit.
  std::string Message;   ///< Why it failed.
  bool Decided = false;  ///< A proved verdict within the budget.
  int II = 0;
  double Objective = 0.0;
  std::vector<int> Times; ///< Schedule start times (decided only).
};

/// Compares a decided verdict against the reference. Returns the reason
/// when the loop has no reference or the verdict differs.
std::optional<std::string> checkVerdict(const Reference &Ref,
                                        uint64_t Digest,
                                        modsched::Objective Obj, int II,
                                        double Objective);

/// Full check of one outcome: failure flag, verdict against the reference,
/// and the schedule re-run through sched/PipelineSimulator.
std::optional<std::string> checkOutcome(const Reference &Ref, uint64_t Digest,
                                        const modsched::DependenceGraph &G,
                                        const modsched::MachineModel &M,
                                        modsched::Objective Obj,
                                        const Outcome &O);

//===----------------------------------------------------------------------===//
// Determinism gate
//===----------------------------------------------------------------------===//

/// Exact effort and verdict counts of one pass. Equal across every pass
/// and run of the same code and seed, timed or traced. A field a pass
/// cannot observe (the service replies carry no simplex counts) is
/// Unknown and is skipped by the comparison.
inline constexpr int64_t Unknown = -1;
struct Counts {
  int64_t Decided = 0;
  int64_t Attempts = 0;
  int64_t Nodes = 0;
  int64_t Iterations = 0;
  int64_t Refactorizations = 0;
  int64_t EtaNonzeros = 0;
  int64_t WarmLpSolves = 0;
  int64_t ColdLpSolves = 0;
  int64_t Conflicts = 0;
  int64_t Propagations = 0;
  int64_t Restarts = 0;
  int64_t Learned = 0;
  int64_t CacheHits = 0;
  int64_t CacheMisses = 0;
  int64_t CacheInserts = 0;
};
/// Differences between the fields both sides know, as "name a vs b".
std::vector<std::string> diffCounts(const Counts &A, const Counts &B);
/// Adds \p C into \p Into; Unknown on either side stays Unknown.
void addCounts(Counts &Into, const Counts &C);
/// Sets each Unknown field of \p Into to \p From's value.
void fillUnknown(Counts &Into, const Counts &From);
std::string formatCounts(const Counts &C);
bool parseCounts(const std::string &Text, Counts &C);

//===----------------------------------------------------------------------===//
// Spans (traced runs only)
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Per-thread, in-memory span buffer. Recording is off unless enabled;
/// spans are aggregated after the traced pass.
namespace spans {
void setEnabled(bool On);
bool enabled();
/// Durations (seconds) of every span recorded on the calling thread.
std::map<std::string, std::vector<double>> &threadLog();
/// Moves the calling thread's spans into \p Into.
void drainInto(std::map<std::string, std::vector<double>> &Into);
/// Records a span named \p Name from \p Start to now, when enabled.
inline void record(const char *Name, Clock::time_point Start) {
  if (enabled())
    threadLog()[Name].push_back(secondsSince(Start));
}
} // namespace spans

class Span {
public:
  explicit Span(const char *Name)
      : Name(Name), On(spans::enabled()), Start(On ? Clock::now()
                                                   : Clock::time_point()) {}
  ~Span() {
    if (On)
      spans::record(Name, Start);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  bool On;
  Clock::time_point Start;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

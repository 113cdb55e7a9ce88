//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Each workload has a timed run and a traced run.
//
// Timed run: whole passes over the workload's fixed request sequence until
// --seconds have elapsed; the first warms up and is not timed. Every pass
// does the same work, so each request's latency is its least time over the
// timed passes; the end-to-end metrics are taken over those least times.
// Set-up is repeated at SetupSamples evenly spaced moments of the run (the
// live set-up is torn down first, so two never coexist) and its median
// reported. A speed probe between requests measures the host's drift, and
// the time metrics are scaled to the probe's reference speed. Outputs are
// checked after each pass, outside the timed window.
//
// Traced run: triples of passes. U takes the timed path with tracing off;
// I and T take the benchmark's own request path, which calls each module's
// public entry points, with spans off (I) and on (T). I and T must
// reproduce U's counts exactly. The per-layer metrics come from T, scaled
// to U's time; the tracing overhead is T / I.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Bench.h"

#include "ilp/BranchAndBound.h"
#include "ilpsched/Formulation.h"
#include "ilpsched/OptimalScheduler.h"
#include "ilpsched/PbFormulation.h"
#include "ilpsched/SolutionCache.h"
#include "lp/SolveContext.h"
#include "sched/Mii.h"
#include "sched/Verifier.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/Telemetry.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <streambuf>
#include <thread>

using namespace modsched;

namespace perfbench {

namespace {

/// Set-up is short next to a pass, so it is repeated and its median kept.
/// The repeats are spread evenly over the run rather than back to back:
/// the host's speed drifts, and consecutive set-ups of a few milliseconds
/// all land in one phase of it.
constexpr size_t SetupSamples = 31;

// service-mix traffic. Clients plus workers equal the 4 cores the
// benchmark was sized on; each client is closed-loop (one request in
// flight), so the 64-deep queue can never shed. The zipf exponent is
// bench/service_bench's default. The other shares are assumptions, not
// measurements of compiler traffic (see perfbench/README.md).
constexpr int ServiceClients = 2;
constexpr int ServiceWorkers = 2;
constexpr int ServiceClassesPerClient = 100; // zipf-ranked loops
constexpr int ServiceFirstTimePerClient = 40; // loops sent once per pass
constexpr int ServiceRequestsPerClient = 600;
constexpr int ServiceVariantsPerClient = 112; // relabeled zipf requests
constexpr double ServiceZipfS = 1.1;
/// Largest loop sent: keeps a miss at milliseconds on the PB engine.
constexpr int ServiceMaxOps = 16;
constexpr int ServiceWarmRequests = 18; // the hand kernels

double toMs(double S) { return S * 1e3; }

/// Peak resident set of this process image (VmHWM). getrusage's maxrss
/// would also count the launcher's peak, which survives exec.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0.0;
}

SchedulerOptions sweepOptions(Objective Obj, SchedulerBackend Backend) {
  SchedulerOptions O;
  O.Formulation.Obj = Obj;
  O.Formulation.DepStyle = DependenceStyle::Structured;
  O.Backend = Backend;
  O.NodeLimit = NodeBudget;
  O.TimeLimitSeconds = BackstopSeconds;
  O.Search = IiSearchKind::Sequential;
  O.Explain = false;
  O.Cache = false;
  return O;
}

/// What the service's request handler builds from a SCHED frame with
/// objective=minbuff nodes=<NodeBudget>.
SchedulerOptions serviceOptions() {
  SchedulerOptions O = sweepOptions(Objective::MinBuff, SchedulerBackend::Pb);
  O.Cache = true;
  return O;
}

Counts countsOf(const ScheduleResult &R) {
  Counts C;
  C.Decided = R.Found ? 1 : 0;
  C.Attempts = int64_t(R.Attempts.size());
  C.Nodes = R.Nodes;
  C.Iterations = R.SimplexIterations;
  C.Refactorizations = R.LpRefactorizations;
  C.EtaNonzeros = R.LpEtaNonzeros;
  C.WarmLpSolves = R.WarmLpSolves;
  C.ColdLpSolves = R.ColdLpSolves;
  C.Conflicts = R.PbConflicts;
  C.Propagations = R.PbPropagations;
  C.Restarts = R.PbRestarts;
  C.Learned = R.PbLearned;
  return C;
}

Outcome outcomeOf(const ScheduleResult &R) {
  Outcome O;
  if (R.TimedOut) {
    O.Failed = true;
    O.Message = "wall-clock backstop fired";
    return O;
  }
  O.Decided = R.Found;
  if (R.Found) {
    O.II = R.II;
    O.Objective = R.SecondaryObjective;
    O.Times = R.Schedule.times();
  }
  return O;
}

//===----------------------------------------------------------------------===//
// The benchmark's own II ladder (traced passes)
//===----------------------------------------------------------------------===//
//
// Mirrors the sequential min-II search behind OptimalModuloScheduler for
// the single-engine ILP and PB backends, calling Formulation /
// PbFormulation, MipSolver::solve / pb::Solver::solve, decode and
// verifySchedule directly so each call can carry a span. The determinism
// gate proves it reproduces the scheduler's effort counts exactly.

std::optional<ModuloSchedule> ilpAttempt(const DependenceGraph &G,
                                         const MachineModel &M,
                                         const SchedulerOptions &Opts, int II,
                                         double Remaining, ScheduleResult &R,
                                         std::string &Fault) {
  Clock::time_point T0 = Clock::now();
  Formulation F(G, M, II, Opts.Formulation);
  spans::record("ilpsched.formulation_build", T0);
  if (!F.valid())
    return std::nullopt;

  ilp::MipOptions MO;
  MO.TimeLimitSeconds = Remaining;
  MO.NodeLimit = Opts.NodeLimit - R.budgetNodes();
  MO.Branching = Opts.Branching;
  MO.StopAtFirstSolution = Opts.Formulation.Obj == Objective::None;
  MO.WarmStart = Opts.WarmStart;
  MO.Lp.Engine = Opts.LpEngine;
  lp::SolveContext Ctx;
  T0 = Clock::now();
  ilp::MipResult MR = ilp::MipSolver(MO).solve(F.model(), Ctx);
  spans::record("ilp.solve", T0);
  R.Nodes += MR.Nodes;
  R.SimplexIterations += MR.SimplexIterations;
  R.WarmLpSolves += MR.WarmLpSolves;
  R.ColdLpSolves += MR.ColdLpSolves;
  R.WarmLpIterations += MR.WarmLpIterations;
  R.LpRefactorizations += MR.LpRefactorizations;
  R.LpEtaNonzeros += MR.LpEtaNonzeros;
  if (MR.Status == ilp::MipStatus::Cancelled)
    return std::nullopt;
  if (MR.Status == ilp::MipStatus::Limit) {
    if (MR.HitNodeLimit)
      R.NodeLimitHit = true;
    if (MR.HitTimeLimit || !MR.HitNodeLimit)
      R.TimedOut = true;
    return std::nullopt;
  }
  if (!MR.HasSolution)
    return std::nullopt;
  R.SecondaryObjective = MR.Objective;
  T0 = Clock::now();
  ModuloSchedule S = F.decode(MR.Values);
  spans::record("ilpsched.decode", T0);
  Span V("sched.verify");
  if (std::optional<std::string> Err = verifySchedule(G, M, S, F.maxTime()))
    Fault = "verifier rejects the ILP schedule: " + *Err;
  return S;
}

std::optional<ModuloSchedule> pbAttempt(const DependenceGraph &G,
                                        const MachineModel &M,
                                        const SchedulerOptions &Opts, int II,
                                        double Remaining, ScheduleResult &R,
                                        std::string &Fault) {
  Clock::time_point T0 = Clock::now();
  PbFormulation F(G, M, II, Opts.Formulation);
  spans::record("ilpsched.pb_formulation_build", T0);
  if (!F.valid())
    return std::nullopt;

  lp::SolveContext Ctx;
  lp::DeadlineScope Deadline(Ctx, Remaining);
  pb::Solver &S = F.solver();
  S.DeadlineSeconds = Ctx.DeadlineSeconds;
  const pb::SolverStats Before = S.stats();
  auto Account = [&] {
    const pb::SolverStats &After = S.stats();
    R.PbConflicts += After.Conflicts - Before.Conflicts;
    R.PbPropagations += After.Propagations - Before.Propagations;
    R.PbRestarts += After.Restarts - Before.Restarts;
    R.PbLearned += After.Learned - Before.Learned;
  };
  auto ConflictsLeft = [&] {
    return Opts.NodeLimit - R.budgetNodes() -
           (S.stats().Conflicts - Before.Conflicts);
  };

  bool HaveIncumbent = false;
  int64_t BestObj = 0;
  ModuloSchedule Best;
  for (;;) {
    int64_t Left = ConflictsLeft();
    if (Left <= 0) {
      R.NodeLimitHit = true;
      Account();
      return std::nullopt;
    }
    S.ConflictLimit = Left;
    T0 = Clock::now();
    pb::SolveStatus Status = S.solve(F.assumptions());
    spans::record("pb.solve", T0);
    if (Status == pb::SolveStatus::Sat) {
      T0 = Clock::now();
      ModuloSchedule Sched = F.decode();
      spans::record("ilpsched.decode", T0);
      {
        Span V("sched.verify");
        if (std::optional<std::string> Err =
                verifySchedule(G, M, Sched, F.maxTime()))
          Fault = "verifier rejects the PB schedule: " + *Err;
      }
      Best = std::move(Sched);
      BestObj = F.evalObjective();
      HaveIncumbent = true;
      if (!F.hasObjective())
        break;
      T0 = Clock::now();
      bool Open = F.pushObjectiveBound(BestObj - 1);
      spans::record("ilpsched.pb_bound", T0);
      if (!Open)
        break;
      continue;
    }
    if (Status == pb::SolveStatus::Unsat) {
      if (HaveIncumbent)
        break;
      Account();
      return std::nullopt;
    }
    // Limit: the conflict budget or the wall-clock backstop.
    if (ConflictsLeft() <= 0)
      R.NodeLimitHit = true;
    else
      R.TimedOut = true;
    Account();
    return std::nullopt;
  }
  Account();
  R.SecondaryObjective = double(BestObj);
  return Best;
}

/// The sequential min-II ladder from MII upward, as the scheduler runs it.
void inlineLadder(const DependenceGraph &G, const MachineModel &M,
                  const SchedulerOptions &Opts, ScheduleResult &R,
                  std::string &Fault) {
  Clock::time_point Start = Clock::now();
  for (int II = R.Mii; II <= R.Mii + Opts.MaxIiIncrease; ++II) {
    double Remaining = Opts.TimeLimitSeconds - secondsSince(Start);
    if (Remaining <= 0) {
      R.TimedOut = true;
      break;
    }
    if (R.budgetNodes() >= Opts.NodeLimit) {
      R.NodeLimitHit = true;
      break;
    }
    R.Attempts.emplace_back();
    R.Attempts.back().II = II;
    std::optional<ModuloSchedule> S =
        Opts.Backend == SchedulerBackend::Pb
            ? pbAttempt(G, M, Opts, II, Remaining, R, Fault)
            : ilpAttempt(G, M, Opts, II, Remaining, R, Fault);
    if (S) {
      // The scheduler's uniform gate re-verifies every engine's schedule.
      Span V("sched.verify");
      if (std::optional<std::string> Err = verifySchedule(G, M, *S))
        Fault = "verifier rejects the schedule: " + *Err;
    }
    if (R.TimedOut || R.NodeLimitHit)
      break;
    if (S) {
      R.Found = true;
      R.II = II;
      R.Schedule = std::move(*S);
      break;
    }
  }
}

/// Sweep loop through the benchmark's own II ladder, spans on.
ScheduleResult tracedSweepLoop(const DependenceGraph &G, const MachineModel &M,
                               const SchedulerOptions &Opts,
                               std::string &Fault) {
  ScheduleResult R;
  {
    Span S("sched.mii");
    R.Mii = mii(G, M);
  }
  inlineLadder(G, M, Opts, R, Fault);
  return R;
}

//===----------------------------------------------------------------------===//
// Shared reporting
//===----------------------------------------------------------------------===//

struct Reporter {
  std::FILE *Out;
  RunResult &Result;

  void metric(const std::string &Name, double Value, const char *Unit) {
    Result.Metrics.push_back({Name, Value, Unit});
    std::fprintf(Out, "  %-34s %14.6g %s\n", Name.c_str(), Value, Unit);
  }
  /// A percentile of the requests' least times. Refused (reported as 0,
  /// and failing the run when \p Required) when fewer than ten samples lie
  /// beyond it.
  void percentileMetric(const std::string &Name,
                        const std::vector<double> &Least, size_t Passes,
                        double Q, bool Required) {
    Percentile P = percentile(Least, Q);
    if (!P.Ok) {
      std::fprintf(Out,
                   "  %-34s refused: n=%zu leaves %zu beyond p%g (need 10)\n",
                   Name.c_str(), P.Samples, P.Beyond, Q * 100);
      if (Required)
        Result.Correct = false;
      Result.Metrics.push_back({Name, 0.0, "ms"});
      return;
    }
    Result.Metrics.push_back({Name, P.Value, "ms"});
    std::fprintf(Out,
                 "  %-34s %14.6g ms  (p%g, n=%zu requests, %zu beyond, each "
                 "request's least of %zu passes)\n",
                 Name.c_str(), P.Value, Q * 100, P.Samples, P.Beyond, Passes);
  }
  void fail(const std::string &What) {
    Result.Correct = false;
    std::fprintf(Out, "FAIL %s\n", What.c_str());
  }
};

/// Spaces the repeated set-ups evenly over a run: at most SetupSamples in
/// all, at least Seconds / SetupSamples apart.
class SetupSpacing {
public:
  explicit SetupSpacing(double RunSeconds)
      : Gap(RunSeconds / double(SetupSamples)), Next(Clock::now()) {}
  /// True when another set-up is due after \p Taken of them; a true
  /// answer starts the wait for the next one.
  bool due(size_t Taken) {
    if (Taken >= SetupSamples || Clock::now() < Next)
      return false;
    Next = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(Gap));
    return true;
  }

private:
  double Gap;
  Clock::time_point Next;
};

/// Probes the host's speed (SpeedProbe) at least ProbeGapSeconds apart
/// over a timed run. Time metrics are scaled by a factor from the probes,
/// so they read as if the host ran at the speed the probe's reference
/// time was taken at: the host's drift moves the probe and the program
/// alike.
class HostSpeed {
public:
  /// Probes when one is due; returns the seconds it took, which the
  /// caller excludes from the pass.
  double maybeProbe() {
    Clock::time_point T0 = Clock::now();
    if (!Ms.empty() && T0 < Next)
      return 0.0;
    if (!Probe)
      Probe = std::make_unique<SpeedProbe>();
    Ms.push_back(Probe->run());
    Next = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(ProbeGapSeconds));
    return secondsSince(T0);
  }
  /// Multiply a time (divide a rate) by these to give it at reference
  /// speed. Like is scaled by like: a least time over the run by the
  /// probe's fast level (its 10th percentile, robust where its least is
  /// not), a median by the probe's median.
  double leastFactor() const {
    return ProbeReferenceMs / percentile(Ms, 0.10).Value;
  }
  double medianFactor() const { return ProbeReferenceMs / median(Ms); }
  void report(std::FILE *Out) const {
    std::fprintf(Out,
                 "host speed: %zu probes, p10 %.4f ms, median %.4f ms "
                 "(reference %.4f ms); least times scaled by %.4f, "
                 "set-up by %.4f\n",
                 Ms.size(), percentile(Ms, 0.10).Value, median(Ms),
                 ProbeReferenceMs, leastFactor(), medianFactor());
  }

private:
  static constexpr double ProbeGapSeconds = 0.25;
  std::unique_ptr<SpeedProbe> Probe; ///< Built after the peak RSS is read.
  std::vector<double> Ms;
  Clock::time_point Next;
};

/// Scales every value by \p F.
std::vector<double> scaled(std::vector<double> V, double F) {
  for (double &X : V)
    X *= F;
  return V;
}

void reportSetups(std::FILE *Out, const std::vector<double> &Seconds) {
  std::fprintf(Out, "set-up (%zu times):", Seconds.size());
  for (double S : Seconds)
    std::fprintf(Out, " %.2f", toMs(S));
  std::fprintf(Out, " ms\n");
}

/// Compares \p C with the counts an earlier run of this build and seed
/// stored, then stores the union of what both know.
void crossRunGate(const RunOptions &Opts, const Counts &C, Reporter &Rep) {
  if (Opts.GateDir.empty())
    return;
  std::string Path = Opts.GateDir + "/" + Opts.Workload + "-" +
                     std::to_string(Opts.Seed) + ".counts";
  Counts Stored = C;
  bool Have = false;
  {
    std::ifstream In(Path);
    std::string Id, Line;
    if (In && std::getline(In, Id) && Id == Opts.BuildId &&
        std::getline(In, Line) && parseCounts(Line, Stored))
      Have = true;
  }
  if (Have) {
    std::vector<std::string> D = diffCounts(Stored, C);
    for (const std::string &X : D)
      Rep.fail("determinism gate (earlier run, same build and seed): " + X);
    if (D.empty())
      std::fprintf(Rep.Out, "gate: counts equal an earlier run of this "
                            "build and seed\n");
    fillUnknown(Stored, C);
  }
  std::ofstream Out(Path, std::ios::trunc);
  Out << Opts.BuildId << "\n" << formatCounts(Stored) << "\n";
}

void passGate(const Counts &First, const Counts &C, int Pass, Reporter &Rep) {
  for (const std::string &X : diffCounts(First, C))
    Rep.fail("determinism gate (pass " + std::to_string(Pass) +
             " vs pass 1): " + X);
}

/// Per-layer self times from the traced passes (T), with the time of the
/// paired untraced passes along the timed path (U) and along the
/// benchmark's own path (I).
struct LayerTimes {
  std::map<std::string, std::vector<double>> Spans; ///< seconds per call
  double LpSeconds = 0;       ///< lp/simplex.solve phase timer
  double BbSeconds = 0;       ///< ilp/bb.solve phase timer
  double FormulationSeconds = 0; ///< ilpsched/formulation.build timer
  double TracedSeconds = 0;   ///< T: own path, spans on
  double OwnSeconds = 0;      ///< I: own path, spans off
  double UntracedSeconds = 0; ///< U: the timed path
  /// U went through service::Server, whose dispatch, admission, reply
  /// and hand-offs the own path leaves out.
  bool ServerPath = false;
  int Passes = 0;

  double sum(const std::string &Name) const {
    auto It = Spans.find(Name);
    double S = 0;
    if (It != Spans.end())
      for (double D : It->second)
        S += D;
    return S;
  }
  std::vector<double> samplesUs(const std::string &Name) const {
    std::vector<double> V;
    auto It = Spans.find(Name);
    if (It != Spans.end())
      for (double D : It->second)
        V.push_back(D * 1e6);
    return V;
  }
};

struct PhaseTimers {
  double Lp, Bb, Formulation;
  static PhaseTimers read() {
    auto Get = [](const char *N) {
      telemetry::PhaseTimer *T = telemetry::findPhaseTimer(N);
      return T ? T->seconds() : 0.0;
    };
    return {Get("lp/simplex.solve"), Get("ilp/bb.solve"),
            Get("ilpsched/formulation.build")};
  }
};

int64_t counterValue(const char *Name) {
  telemetry::Counter *C = telemetry::findCounter(Name);
  return C ? C->value() : 0;
}

/// Latencies of the untraced passes of a traced run, for the tail and
/// cache-split percentiles that not every workload can support.
struct UntracedLatencies {
  std::vector<std::vector<double>> PerPass; ///< ms, per request
  std::vector<bool> Hit; ///< Per request; the same in every pass.
};

void reportLayers(const LayerTimes &L, const Counts &C,
                  const std::vector<double> &Overheads,
                  const UntracedLatencies &U, int64_t Evictions,
                  int64_t Shed, int64_t Errors, double GenerateSeconds,
                  Reporter &Rep) {
  const double P = std::max(1, L.Passes);
  auto Ms = [&](double S) { return toMs(S) / P; };
  auto P50 = [&](const std::string &Metric, const std::string &SpanName) {
    Percentile Pc = percentile(L.samplesUs(SpanName), 0.5);
    Rep.Result.Metrics.push_back({Metric, Pc.Ok ? Pc.Value : 0.0, "us"});
    if (Pc.Ok)
      std::fprintf(Rep.Out, "  %-34s %14.6g us  (p50, n=%zu, %zu beyond)\n",
                   Metric.c_str(), Pc.Value, Pc.Samples, Pc.Beyond);
    else
      std::fprintf(Rep.Out, "  %-34s not emitted: n=%zu (reported as 0)\n",
                   Metric.c_str(), Pc.Samples);
  };

  double LpSelf = L.LpSeconds;
  double IlpSelf = std::max(0.0, L.sum("ilp.solve") - LpSelf);
  double PbSelf = L.sum("pb.solve");
  double IlpschedSelf = L.sum("ilpsched.formulation_build") +
                        L.sum("ilpsched.pb_formulation_build") +
                        L.sum("ilpsched.pb_bound") + L.sum("ilpsched.decode") +
                        L.sum("ilpsched.cache_lookup") +
                        L.sum("ilpsched.cache_insert");
  double SchedSelf = L.sum("sched.mii") + L.sum("sched.problem_hash") +
                     L.sum("sched.verify");
  double TextioSelf = L.sum("textio.parse");
  double ServiceSelf = L.sum("service.frame_parse");

  // Shares of the timed path's time. A layer's share of T is scaled by
  // I / U, the share of the timed path's time the own path takes. What
  // the own path leaves out is the server's dispatch on service-mix, and
  // the scheduler's own bookkeeping around the II ladder on the sweeps,
  // which no span covers.
  const double OwnShare =
      L.UntracedSeconds > 0 ? L.OwnSeconds / L.UntracedSeconds : 0.0;
  auto Frac = [&](double Self) {
    return L.TracedSeconds > 0 ? Self / L.TracedSeconds * OwnShare : 0.0;
  };
  const double Dispatch = L.ServerPath ? 1.0 - OwnShare : 0.0;

  std::fprintf(Rep.Out,
               "program phase timers over the traced passes: "
               "lp/simplex.solve %.3f ms, ilp/bb.solve %.3f ms, "
               "ilpsched/formulation.build %.3f ms (span total %.3f ms)\n",
               toMs(L.LpSeconds), toMs(L.BbSeconds),
               toMs(L.FormulationSeconds),
               toMs(L.sum("ilpsched.formulation_build")));
  std::fprintf(Rep.Out,
               "time over %d triples: timed path (U) %.3f s, own path "
               "(I) %.3f s, traced own path (T) %.3f s; I/U %.4f\n",
               L.Passes, L.UntracedSeconds, L.OwnSeconds, L.TracedSeconds,
               OwnShare);

  Rep.metric("lp.simplex_iterations", double(C.Iterations), "count");
  Rep.metric("lp.refactorizations", double(C.Refactorizations), "count");
  Rep.metric("lp.eta_nnz", double(C.EtaNonzeros), "count");
  int64_t LpSolves = C.WarmLpSolves + C.ColdLpSolves;
  Rep.metric("lp.warm_solve_frac",
             LpSolves ? double(C.WarmLpSolves) / double(LpSolves) : 0.0,
             "ratio");
  Rep.metric("lp.solve_ms", Ms(LpSelf), "ms");
  Rep.metric("lp.us_per_iteration",
             C.Iterations ? LpSelf / P * 1e6 / double(C.Iterations) : 0.0,
             "us");
  Rep.metric("ilp.nodes", double(C.Nodes), "count");
  Rep.metric("ilp.bb_self_ms", Ms(IlpSelf), "ms");
  Rep.metric("pb.conflicts", double(C.Conflicts), "count");
  Rep.metric("pb.propagations", double(C.Propagations), "count");
  Rep.metric("pb.restarts", double(C.Restarts), "count");
  Rep.metric("pb.learned", double(C.Learned), "count");
  Rep.metric("pb.solve_ms", Ms(PbSelf), "ms");
  Rep.metric("pb.propagations_per_s",
             PbSelf > 0 ? double(C.Propagations) * P / PbSelf : 0.0, "1/s");
  Rep.metric("ilpsched.attempts", double(C.Attempts), "count");
  Rep.metric("ilpsched.formulation_build_ms",
             Ms(L.sum("ilpsched.formulation_build")), "ms");
  Rep.metric("ilpsched.pb_formulation_build_ms",
             Ms(L.sum("ilpsched.pb_formulation_build") +
                L.sum("ilpsched.pb_bound")),
             "ms");
  Rep.metric("ilpsched.decode_ms", Ms(L.sum("ilpsched.decode")), "ms");
  Rep.metric("ilpsched.cache_hits", double(C.CacheHits), "count");
  Rep.metric("ilpsched.cache_misses", double(C.CacheMisses), "count");
  Rep.metric("ilpsched.cache_inserts", double(C.CacheInserts), "count");
  Rep.metric("ilpsched.cache_evictions", double(Evictions), "count");
  P50("ilpsched.cache_lookup_us_p50", "ilpsched.cache_lookup");
  P50("sched.mii_us", "sched.mii");
  P50("sched.problem_hash_us_p50", "sched.problem_hash");
  P50("sched.verify_us_p50", "sched.verify");
  P50("textio.parse_us_p50", "textio.parse");
  P50("service.frame_parse_us_p50", "service.frame_parse");

  const size_t Passes = U.PerPass.size();
  std::vector<double> Least = leastPerRequest(U.PerPass), Hit, Miss;
  for (size_t I = 0; I < Least.size() && I < U.Hit.size(); ++I)
    (U.Hit[I] ? Hit : Miss).push_back(Least[I]);
  Rep.percentileMetric("latency_p99_ms", Least, Passes, 0.99, false);
  Rep.percentileMetric("service.hit_latency_p50_ms", Hit, Passes, 0.50,
                       false);
  Rep.percentileMetric("service.miss_latency_p50_ms", Miss, Passes, 0.50,
                       false);
  Rep.metric("service.shed", double(Shed), "count");
  Rep.metric("service.errors", double(Errors), "count");
  Rep.metric("workloads.generate_ms", toMs(GenerateSeconds), "ms");

  const double Fracs[] = {Frac(LpSelf),      Frac(IlpSelf),
                          Frac(PbSelf),      Frac(IlpschedSelf),
                          Frac(SchedSelf),   Frac(TextioSelf),
                          Frac(ServiceSelf) + Dispatch};
  Rep.metric("lp.self_frac", Fracs[0], "ratio");
  Rep.metric("ilp.self_frac", Fracs[1], "ratio");
  Rep.metric("pb.self_frac", Fracs[2], "ratio");
  Rep.metric("ilpsched.self_frac", Fracs[3], "ratio");
  Rep.metric("sched.self_frac", Fracs[4], "ratio");
  Rep.metric("textio.self_frac", Fracs[5], "ratio");
  Rep.metric("service.self_frac", Fracs[6], "ratio");
  Rep.metric("service.dispatch_frac", Dispatch, "ratio");
  double Covered = 0;
  for (double F : Fracs)
    Covered += F;
  Rep.metric("unattributed_frac", 1.0 - Covered, "ratio");
  Rep.metric("trace.overhead_frac", median(Overheads), "ratio");
}

//===----------------------------------------------------------------------===//
// Sweeps
//===----------------------------------------------------------------------===//

struct SweepSetup {
  MachineModel M = benchMachine();
  std::vector<DependenceGraph> Loops;
  std::vector<uint64_t> Digests;
  std::vector<size_t> Order; ///< Submission order, drawn from the seed.
  std::unique_ptr<OptimalModuloScheduler> Scheduler;
  double GenerateSeconds = 0;
  size_t LeftOut = 0; ///< Loops whose reference the workload's engine set.
};

struct SweepSpec {
  Objective Obj;
  SchedulerBackend Backend;
  bool Pool; ///< sweep-pb pool instead of the sweep-ilp suite
};

std::unique_ptr<SweepSetup> setupSweep(const SweepSpec &Spec, uint64_t Seed,
                                       const Reference &Ref) {
  auto S = std::make_unique<SweepSetup>();
  Clock::time_point T0 = Clock::now();
  std::vector<DependenceGraph> All =
      Spec.Pool ? sweepPbPool(S->M) : sweepIlpSuite(S->M);
  S->GenerateSeconds = secondsSince(T0);
  const std::string Own = toString(Spec.Backend);
  for (DependenceGraph &G : All) {
    uint64_t D = loopDigest(G);
    if (referenceSource(Ref, D, Spec.Obj) == Own) {
      ++S->LeftOut;
      continue;
    }
    S->Loops.push_back(std::move(G));
    S->Digests.push_back(D);
  }
  S->Order.resize(S->Loops.size());
  for (size_t I = 0; I < S->Order.size(); ++I)
    S->Order[I] = I;
  SplitMix R(Seed);
  R.shuffle(S->Order);
  S->Scheduler = std::make_unique<OptimalModuloScheduler>(
      S->M, sweepOptions(Spec.Obj, Spec.Backend));
  return S;
}

struct SweepPass {
  double Seconds = 0;
  std::vector<double> LatencyMs; ///< Indexed like SweepSetup::Loops.
  std::vector<Outcome> Outcomes; ///< Indexed like SweepSetup::Loops.
  Counts C;
};

/// One sweep pass along the timed path (OptimalModuloScheduler). Between
/// loops, \p Between may probe the host or replace \p S with a fresh
/// set-up of the same loops; the time it takes is excluded from the pass.
SweepPass timedSweepPass(std::unique_ptr<SweepSetup> &S,
                         const std::function<void()> &Between = nullptr) {
  SweepPass P;
  const size_t N = S->Loops.size();
  P.Outcomes.resize(N);
  P.LatencyMs.resize(N);
  std::vector<ScheduleResult> Results(N);
  double Excluded = 0;
  Clock::time_point Start = Clock::now();
  for (size_t K = 0; K < N; ++K) {
    size_t I = S->Order[K];
    Clock::time_point T0 = Clock::now();
    Results[I] = S->Scheduler->schedule(S->Loops[I]);
    P.LatencyMs[I] = toMs(secondsSince(T0));
    if (Between) {
      Clock::time_point T1 = Clock::now();
      Between();
      Excluded += secondsSince(T1);
    }
  }
  P.Seconds = secondsSince(Start) - Excluded;
  for (size_t I = 0; I < N; ++I) {
    addCounts(P.C, countsOf(Results[I]));
    P.Outcomes[I] = outcomeOf(Results[I]);
  }
  return P;
}

/// One sweep pass through the benchmark's own II ladder; spans are
/// recorded when enabled.
SweepPass ownSweepPass(const SweepSetup &S) {
  SweepPass P;
  P.Outcomes.resize(S.Loops.size());
  std::vector<ScheduleResult> Results(S.Loops.size());
  std::vector<std::string> Faults(S.Loops.size());
  const SchedulerOptions &Opts = S.Scheduler->options();
  Clock::time_point Start = Clock::now();
  for (size_t I : S.Order)
    Results[I] = tracedSweepLoop(S.Loops[I], S.M, Opts, Faults[I]);
  P.Seconds = secondsSince(Start);
  for (size_t I = 0; I < S.Loops.size(); ++I) {
    addCounts(P.C, countsOf(Results[I]));
    P.Outcomes[I] = outcomeOf(Results[I]);
    if (!Faults[I].empty()) {
      P.Outcomes[I].Failed = true;
      P.Outcomes[I].Message = Faults[I];
    }
  }
  return P;
}

/// Checks every outcome of a pass; returns the number of failures.
int64_t checkSweepPass(const SweepSetup &S, const SweepPass &P,
                       const Reference &Ref, Objective Obj, Reporter &Rep) {
  int64_t Failed = 0;
  for (size_t I = 0; I < S.Loops.size(); ++I)
    if (std::optional<std::string> Err = checkOutcome(
            Ref, S.Digests[I], S.Loops[I], S.M, Obj, P.Outcomes[I])) {
      ++Failed;
      if (Failed <= 20)
        Rep.fail(S.Loops[I].name() + ": " + *Err);
    }
  return Failed;
}

RunResult runSweep(const SweepSpec &Spec, const RunOptions &Opts,
                   const Reference &Ref, std::FILE *Out) {
  RunResult Result;
  Reporter Rep{Out, Result};

  std::vector<double> SetupTimes;
  auto TimedSetup = [&] {
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<SweepSetup> New = setupSweep(Spec, Opts.Seed, Ref);
    SetupTimes.push_back(secondsSince(T0));
    return New;
  };
  std::unique_ptr<SweepSetup> S = TimedSetup();
  const size_t N = S->Loops.size();
  std::fprintf(Out, "%s: %zu loops, %s engine, objective %s, budget %lld "
                    "per loop; %zu loops left out because their reference "
                    "came from this engine\n",
               Opts.Workload.c_str(), N, toString(Spec.Backend),
               toString(Spec.Obj), (long long)NodeBudget, S->LeftOut);

  Clock::time_point RunStart = Clock::now();
  SetupSpacing Spacing(Opts.Seconds);
  HostSpeed Speed;
  // Between loops of the second and later passes: probe the host, and
  // repeat the set-up when due. The live set-up goes first, so two never
  // coexist in memory.
  auto Between = [&] {
    Speed.maybeProbe();
    if (!Spacing.due(SetupTimes.size()))
      return;
    S.reset();
    S = TimedSetup();
  };
  std::optional<Counts> First;
  int Pass = 0;
  auto Absorb = [&](const SweepPass &P) {
    Result.Attempted += int64_t(N);
    Result.Failed += checkSweepPass(*S, P, Ref, Spec.Obj, Rep);
  };
  if (!Opts.Trace) {
    std::vector<std::vector<double>> Lat; ///< Of the timed passes.
    double PeakRss = 0;
    do {
      SweepPass P = timedSweepPass(
          S, Pass ? std::function<void()>(Between) : nullptr);
      ++Pass;
      // The first pass warms up and is not timed. It runs on the run's
      // own set-up alone, without the probe, so the peak it leaves is the
      // program's.
      if (Pass == 1)
        PeakRss = peakRssMb();
      Absorb(P);
      if (!First)
        First = P.C;
      passGate(*First, P.C, Pass, Rep);
      std::fprintf(Out, "pass %d: %.3f s, %s\n", Pass, P.Seconds,
                   formatCounts(P.C).c_str());
      if (Pass > 1)
        Lat.push_back(std::move(P.LatencyMs));
    } while (Pass < 2 || secondsSince(RunStart) < Opts.Seconds);
    reportSetups(Out, SetupTimes);
    Speed.maybeProbe();
    Speed.report(Out);

    auto Sum = [](const std::vector<double> &V) {
      double S = 0;
      for (double X : V)
        S += X;
      return S;
    };
    std::vector<double> Least = leastPerRequest(Lat);
    std::fprintf(Out, "raw: setup %.6f s, %.4f loops/s, p50 %.6f ms, p95 "
                      "%.6f ms\n",
                 median(SetupTimes), double(N) / (Sum(Least) / 1e3),
                 percentile(Least, 0.50).Value, percentile(Least, 0.95).Value);
    Least = scaled(std::move(Least), Speed.leastFactor());
    std::fprintf(Out, "end-to-end metrics (each loop's least time of %zu "
                      "timed passes, at reference speed; their sum %.3f "
                      "s):\n",
                 Lat.size(), Sum(Least) / 1e3);
    Rep.metric("setup_s", median(SetupTimes) * Speed.medianFactor(), "s");
    Rep.metric("peak_rss_mb", PeakRss, "MB");
    Rep.metric("requests_per_s", double(N) / (Sum(Least) / 1e3), "1/s");
    Rep.percentileMetric("latency_p50_ms", Least, Lat.size(), 0.50, true);
    Rep.percentileMetric("latency_p95_ms", Least, Lat.size(), 0.95, true);
    Rep.metric("decided_frac", double(First->Decided) / double(N), "ratio");
    Rep.metric("ok_frac",
               1.0 - double(Result.Failed) / double(Result.Attempted),
               "ratio");
  } else {
    LayerTimes L;
    std::vector<double> Overheads;
    UntracedLatencies ULat;
    Counts TracedCounts;
    do {
      SweepPass U = timedSweepPass(S);
      ++Pass;
      Absorb(U);
      if (!First)
        First = U.C;
      passGate(*First, U.C, Pass, Rep);

      // I and T alternate which goes first, so the order cancels out of
      // the median overhead.
      SweepPass I, T;
      auto RunTraced = [&] {
        telemetry::setStatsEnabled(true);
        spans::setEnabled(true);
        PhaseTimers Before = PhaseTimers::read();
        T = ownSweepPass(*S);
        PhaseTimers After = PhaseTimers::read();
        spans::setEnabled(false);
        telemetry::setStatsEnabled(false);
        spans::drainInto(L.Spans);
        L.LpSeconds += After.Lp - Before.Lp;
        L.BbSeconds += After.Bb - Before.Bb;
        L.FormulationSeconds += After.Formulation - Before.Formulation;
      };
      if (Pass % 2 == 0)
        RunTraced();
      I = ownSweepPass(*S);
      if (Pass % 2 == 1)
        RunTraced();
      Absorb(I);
      for (const std::string &X : diffCounts(U.C, I.C))
        Rep.fail("own path does not reproduce the timed path: " + X);
      Absorb(T);
      for (const std::string &X : diffCounts(U.C, T.C))
        Rep.fail("traced pass does not reproduce the timed path: " + X);

      L.UntracedSeconds += U.Seconds;
      L.OwnSeconds += I.Seconds;
      L.TracedSeconds += T.Seconds;
      ++L.Passes;
      ULat.PerPass.push_back(U.LatencyMs);
      TracedCounts = T.C;
      Overheads.push_back(T.Seconds / I.Seconds - 1.0);
      std::fprintf(Out, "triple %d: timed path %.3f s, own path %.3f s, "
                        "traced %.3f s, %s\n",
                   Pass, U.Seconds, I.Seconds, T.Seconds,
                   formatCounts(T.C).c_str());
    } while (secondsSince(RunStart) < Opts.Seconds);
    std::fprintf(Out, "per-layer metrics (%d traced passes):\n", L.Passes);
    reportLayers(L, TracedCounts, Overheads, ULat, 0, 0, 0,
                 S->GenerateSeconds, Rep);
  }
  crossRunGate(Opts, *First, Rep);
  return Result;
}

//===----------------------------------------------------------------------===//
// service-mix
//===----------------------------------------------------------------------===//

/// One-directional in-process byte stream with blocking reads: the wire
/// between a client and Server::serveStream.
class Channel {
public:
  void write(const char *Data, size_t N) {
    std::lock_guard<std::mutex> Lock(Mu);
    Buf.append(Data, N);
    Cv.notify_all();
  }
  void close() {
    std::lock_guard<std::mutex> Lock(Mu);
    Closed = true;
    Cv.notify_all();
  }
  /// Blocks until data or close; 0 means end of stream.
  size_t read(char *Out, size_t N) {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Pos < Buf.size() || Closed; });
    size_t K = std::min(N, Buf.size() - Pos);
    Buf.copy(Out, K, Pos);
    consume(K);
    return K;
  }
  /// Blocks for one whole line (without its newline); false at close.
  bool readLine(std::string &Line) {
    std::unique_lock<std::mutex> Lock(Mu);
    size_t Nl = std::string::npos;
    Cv.wait(Lock, [&] {
      Nl = Buf.find('\n', Pos);
      return Nl != std::string::npos || Closed;
    });
    if (Nl == std::string::npos)
      return false;
    Line.assign(Buf, Pos, Nl - Pos);
    consume(Nl + 1 - Pos);
    return true;
  }

private:
  void consume(size_t K) {
    Pos += K;
    if (Pos == Buf.size()) {
      Buf.clear();
      Pos = 0;
    }
  }
  std::mutex Mu;
  std::condition_variable Cv;
  std::string Buf;
  size_t Pos = 0;
  bool Closed = false;
};

class ChannelReadBuf : public std::streambuf {
public:
  explicit ChannelReadBuf(Channel &C) : C(C) { setg(Buf, Buf, Buf); }

protected:
  int_type underflow() override {
    size_t N = C.read(Buf, sizeof(Buf));
    if (N == 0)
      return traits_type::eof();
    setg(Buf, Buf, Buf + N);
    return traits_type::to_int_type(*gptr());
  }

private:
  Channel &C;
  char Buf[4096];
};

class ChannelWriteBuf : public std::streambuf {
public:
  explicit ChannelWriteBuf(Channel &C) : C(C) {}

protected:
  int_type overflow(int_type Ch) override {
    if (!traits_type::eq_int_type(Ch, traits_type::eof()))
      Pending.push_back(traits_type::to_char_type(Ch));
    return traits_type::not_eof(Ch);
  }
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    Pending.append(S, size_t(N));
    return N;
  }
  int sync() override {
    C.write(Pending.data(), Pending.size());
    Pending.clear();
    return 0;
  }

private:
  Channel &C;
  std::string Pending;
};

/// One client connection: the two wires and the server's reader thread.
struct Connection {
  Channel ToServer, ToClient;
  ChannelReadBuf InBuf{ToServer};
  ChannelWriteBuf OutBuf{ToClient};
  std::istream In{&InBuf};
  std::ostream Out{&OutBuf};
  std::thread Reader;

  std::string roundTrip(const std::string &Frame) {
    ToServer.write(Frame.data(), Frame.size());
    std::string Reply;
    if (!ToClient.readLine(Reply))
      Reply = "{\"status\":\"closed\"}";
    return Reply;
  }
};

/// An in-process service::Server with ServiceClients connections.
class ServiceRig {
public:
  ServiceRig() {
    service::ServerOptions O;
    O.Workers = ServiceWorkers;
    O.QueueLimit = 64;
    O.ClientInFlightLimit = 16;
    O.DefaultTimeLimitSeconds = BackstopSeconds;
    O.MaxTimeLimitSeconds = BackstopSeconds;
    O.Cache = true;
    O.Backend = SchedulerBackend::Pb;
    O.EmitSchedules = true;
    Server = std::make_unique<service::Server>(O);
    for (int C = 0; C < ServiceClients; ++C) {
      Conns.push_back(std::make_unique<Connection>());
      Connection &Conn = *Conns.back();
      Conn.Reader = std::thread([this, &Conn, C] {
        telemetry::ThreadShardScope Shard;
        Server->serveStream(Conn.In, Conn.Out, "client-" + std::to_string(C));
      });
    }
  }
  ~ServiceRig() {
    for (auto &C : Conns)
      C->ToServer.close();
    for (auto &C : Conns)
      C->Reader.join();
  }
  ServiceRig(const ServiceRig &) = delete;
  ServiceRig &operator=(const ServiceRig &) = delete;

  std::unique_ptr<service::Server> Server;
  std::vector<std::unique_ptr<Connection>> Conns;
};

/// One request of the traffic mix and what checking its reply needs.
struct ServiceRequest {
  std::string Frame;
  const DependenceGraph *G = nullptr; ///< As the server will parse it.
  const MachineModel *M = nullptr;
  uint64_t RefDigest = 0; ///< Reference key of the underlying loop.
  bool Variant = false;
};

struct Relabeled {
  MachineModel M;
  DependenceGraph G;
};

struct ServiceSetup {
  MachineModel M = benchMachine();
  /// The loops the clients send, indexed like the candidate list, then
  /// the hand kernels of the warm pass.
  std::vector<DependenceGraph> Loops;
  std::deque<Relabeled> Variants;
  std::vector<std::vector<ServiceRequest>> Streams; ///< One per client.
  std::unique_ptr<ServiceRig> Rig;
  double GenerateSeconds = 0;
  size_t LeftOut = 0; ///< Small loops whose reference the PB engine set.
};

std::string frameFor(const std::string &Id, const std::string *MachineText,
                     const std::string &Ddg) {
  auto Lines = [](const std::string &T) {
    return std::to_string(std::count(T.begin(), T.end(), '\n'));
  };
  std::string F = "SCHED id=" + Id + " objective=minbuff nodes=" +
                  std::to_string(NodeBudget) + " time=" +
                  std::to_string(int(BackstopSeconds));
  if (!MachineText)
    F += " machine=cydra\n";
  else
    F += "\nMACHINE " + Lines(*MachineText) + "\n" + *MachineText;
  F += "DDG " + Lines(Ddg) + "\n" + Ddg + "END\n";
  return F;
}

std::unique_ptr<ServiceSetup> setupService(uint64_t Seed,
                                           const Reference &Ref) {
  auto S = std::make_unique<ServiceSetup>();
  Clock::time_point T0 = Clock::now();
  std::vector<DependenceGraph> Pool = sweepPbPool(S->M);
  S->GenerateSeconds = secondsSince(T0);

  // Candidate loops: small, exactly hashable, pairwise canonically
  // distinct (so no two clients share a cache entry and every client's
  // hit/miss sequence is its own), with a reference from the ILP engine,
  // in pool order.
  const FormulationOptions FOpts = serviceOptions().Formulation;
  std::set<uint64_t> Hashes;
  const size_t Need = size_t(ServiceClients) *
                      (ServiceClassesPerClient + ServiceFirstTimePerClient);
  for (size_t I = 0; I < Pool.size() && S->Loops.size() < Need; ++I) {
    if (Pool[I].numOperations() > ServiceMaxOps)
      continue;
    if (referenceSource(Ref, loopDigest(Pool[I]), Objective::MinBuff) ==
        "pb") {
      ++S->LeftOut;
      continue;
    }
    Problem P(Pool[I], S->M, FOpts);
    if (P.hashExact() && Hashes.insert(P.canonicalHash()).second)
      S->Loops.push_back(Pool[I]);
  }
  if (S->Loops.size() < Need) {
    std::fprintf(stderr, "perfbench: only %zu service candidates\n",
                 S->Loops.size());
    std::exit(1);
  }
  // The pool starts with the hand kernels.
  for (int I = 0; I < ServiceWarmRequests; ++I)
    S->Loops.push_back(Pool[size_t(I)]);
  Pool.clear();
  Pool.shrink_to_fit();

  // Which loops a client owns is fixed; the seed assigns their zipf
  // ranks and orders the requests. Seeded membership made the set of
  // misses, and so the pass cost, depend on the seed.
  SplitMix R(Seed);
  Zipf Z(ServiceClassesPerClient, ServiceZipfS);
  for (int C = 0; C < ServiceClients; ++C) {
    auto Slice = [&](size_t From, size_t N) {
      std::vector<size_t> V(N);
      for (size_t K = 0; K < N; ++K)
        V[K] = From + K;
      return V;
    };
    std::vector<size_t> Classes =
        Slice(size_t(C) * ServiceClassesPerClient, ServiceClassesPerClient);
    R.shuffle(Classes);
    std::vector<size_t> FirstTime =
        Slice(size_t(ServiceClients) * ServiceClassesPerClient +
                  size_t(C) * ServiceFirstTimePerClient,
              ServiceFirstTimePerClient);
    // Roles by position: first-time loops, relabeled variants, exact
    // zipf repeats, in a seeded order.
    std::vector<int> Role(ServiceRequestsPerClient, 0);
    for (int I = 0; I < ServiceFirstTimePerClient; ++I)
      Role[size_t(I)] = 1;
    for (int I = 0; I < ServiceVariantsPerClient; ++I)
      Role[size_t(ServiceFirstTimePerClient + I)] = 2;
    R.shuffle(Role);
    std::vector<ServiceRequest> Stream;
    size_t NextFirst = 0;
    for (int I = 0; I < ServiceRequestsPerClient; ++I) {
      size_t Loop = Role[size_t(I)] == 1 ? FirstTime[NextFirst++]
                                         : Classes[Z.sample(R)];
      const DependenceGraph &G = S->Loops[Loop];
      ServiceRequest Req;
      Req.RefDigest = loopDigest(G);
      std::string Id = std::to_string(C) + "-" + std::to_string(I);
      if (Role[size_t(I)] == 2) {
        LoopText T = relabeledText(G, S->M, R);
        std::optional<MachineModel> VM = parseMachine(T.Machine);
        std::optional<DependenceGraph> VG =
            VM ? parseDdg(T.Ddg, *VM) : std::nullopt;
        if (!VG) {
          std::fprintf(stderr, "perfbench: relabeling %s failed\n",
                       G.name().c_str());
          std::exit(1);
        }
        S->Variants.push_back({std::move(*VM), std::move(*VG)});
        Req.G = &S->Variants.back().G;
        Req.M = &S->Variants.back().M;
        Req.Variant = true;
        Req.Frame = frameFor(Id, &T.Machine, T.Ddg);
      } else {
        Req.G = &G;
        Req.M = &S->M;
        Req.Frame = frameFor(Id, nullptr, printDdg(G, S->M));
      }
      Stream.push_back(std::move(Req));
    }
    S->Streams.push_back(std::move(Stream));
  }

  S->Rig = std::make_unique<ServiceRig>();
  // Warm pass over the hand kernels: starts the reader and worker threads
  // and their solver state, then forgets what it cached.
  for (auto &Conn : S->Rig->Conns)
    for (size_t I = Need; I < S->Loops.size(); ++I)
      Conn->roundTrip(frameFor("warm-" + std::to_string(I - Need), nullptr,
                               printDdg(S->Loops[I], S->M)));
  SolutionCache::global().clear();
  return S;
}

// Minimal readers for the service's one-line JSON replies.
std::optional<std::string> jsonField(const std::string &Line,
                                     const std::string &Key) {
  std::string Pat = "\"" + Key + "\":";
  size_t At = Line.find(Pat);
  if (At == std::string::npos)
    return std::nullopt;
  At += Pat.size();
  size_t End = At;
  if (At < Line.size() && Line[At] == '"') {
    End = Line.find('"', At + 1);
    return Line.substr(At + 1, End - At - 1);
  }
  if (At < Line.size() && Line[At] == '[') {
    End = Line.find(']', At);
    return Line.substr(At + 1, End - At - 1);
  }
  while (End < Line.size() && Line[End] != ',' && Line[End] != '}')
    ++End;
  return Line.substr(At, End - At);
}

int64_t jsonInt(const std::string &Line, const std::string &Key) {
  std::optional<std::string> V = jsonField(Line, Key);
  return V ? std::stoll(*V) : 0;
}

struct ServicePass {
  double Seconds = 0;          ///< Wall time.
  double LatencySeconds = 0;   ///< Summed over requests.
  std::vector<double> LatencyMs; ///< Per request, streams in client order.
  std::vector<bool> Hit;       ///< Per request, in the same order.
  Counts C;
  int64_t Failed = 0;
  int64_t Attempted = 0;
  int64_t Shed = 0, Errors = 0;
  std::vector<std::string> Failures;
};

ServicePass timedServicePass(ServiceSetup &S, const Reference &Ref) {
  ServicePass P;
  SolutionCache::global().clear();
  service::ServerStats Before = S.Rig->Server->stats();
  std::vector<std::vector<std::string>> Replies(S.Streams.size());
  std::vector<std::vector<double>> Lat(S.Streams.size());
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < S.Streams.size(); ++C)
    Clients.emplace_back([&, C] {
      Connection &Conn = *S.Rig->Conns[C];
      Replies[C].reserve(S.Streams[C].size());
      Lat[C].reserve(S.Streams[C].size());
      for (const ServiceRequest &Req : S.Streams[C]) {
        Clock::time_point T0 = Clock::now();
        Replies[C].push_back(Conn.roundTrip(Req.Frame));
        Lat[C].push_back(toMs(secondsSince(T0)));
      }
    });
  for (std::thread &T : Clients)
    T.join();
  P.Seconds = secondsSince(Start);
  service::ServerStats After = S.Rig->Server->stats();

  P.C.Attempts = P.C.Iterations = P.C.Refactorizations = Unknown;
  P.C.EtaNonzeros = P.C.WarmLpSolves = P.C.ColdLpSolves = Unknown;
  P.C.Propagations = P.C.Restarts = P.C.Learned = Unknown;
  for (size_t C = 0; C < S.Streams.size(); ++C)
    for (size_t I = 0; I < S.Streams[C].size(); ++I) {
      const ServiceRequest &Req = S.Streams[C][I];
      const std::string &Reply = Replies[C][I];
      ++P.Attempted;
      P.LatencyMs.push_back(Lat[C][I]);
      P.LatencySeconds += Lat[C][I] / 1e3;
      Outcome O;
      std::string Status = jsonField(Reply, "status").value_or("?");
      bool Hit = jsonField(Reply, "cache_hit").value_or("") == "true";
      P.Hit.push_back(Hit);
      if (Status == "ok") {
        O.Decided = true;
        O.II = int(jsonInt(Reply, "ii"));
        O.Objective = std::stod(jsonField(Reply, "secondary").value_or("0"));
        std::istringstream Times(jsonField(Reply, "times").value_or(""));
        for (std::string T; std::getline(Times, T, ',');)
          O.Times.push_back(std::stoi(T));
      } else if (Status != "node_limit") {
        O.Failed = true;
        O.Message = "status " + Status + ": " + Reply;
      }
      if (!O.Failed) {
        ++(Hit ? P.C.CacheHits : P.C.CacheMisses);
        P.C.Decided += O.Decided;
        P.C.Nodes += jsonInt(Reply, "nodes");
        P.C.Conflicts += jsonInt(Reply, "pb_conflicts");
      }
      if (std::optional<std::string> Err = checkOutcome(
              Ref, Req.RefDigest, *Req.G, *Req.M, Objective::MinBuff, O)) {
        ++P.Failed;
        P.Failures.push_back(Req.G->name() + (Req.Variant ? " (variant)" : "") +
                             ": " + *Err);
      }
    }
  P.C.CacheInserts = int64_t(SolutionCache::global().size());
  P.Shed = After.Shed - Before.Shed;
  P.Errors = After.Errors - Before.Errors;
  if (P.Shed || P.Errors)
    P.Failures.push_back("server shed " + std::to_string(P.Shed) +
                         " and errored " + std::to_string(P.Errors));
  return P;
}

/// One request through the benchmark's own copy of the request path,
/// calling readFrame, parseMachine / parseDdg, mii, Problem's
/// canonicalHash, SolutionCache lookup / insert and the PB ladder
/// directly, each inside a span.
void tracedServiceRequest(const ServiceRequest &Req,
                          const SchedulerOptions &Opts, uint64_t Key,
                          const Reference &Ref, Counts &C,
                          std::vector<std::string> &Failures) {
  Clock::time_point T0 = Clock::now();
  std::istringstream In(Req.Frame);
  service::Frame F = service::readFrame(In, service::ProtocolLimits());
  spans::record("service.frame_parse", T0);
  if (F.Kind != service::FrameKind::Sched) {
    Failures.push_back("frame did not parse: " + F.Error);
    return;
  }
  std::optional<MachineModel> M;
  if (F.Req.BuiltinMachine == "cydra") {
    M = MachineModel::cydraLike();
  } else {
    T0 = Clock::now();
    M = parseMachine(F.Req.MachineText);
    spans::record("textio.parse", T0);
  }
  T0 = Clock::now();
  std::optional<DependenceGraph> G =
      M ? parseDdg(F.Req.DdgText, *M) : std::nullopt;
  spans::record("textio.parse", T0);
  if (!G) {
    Failures.push_back("payload did not parse");
    return;
  }
  ScheduleResult R;
  {
    Span S("sched.mii");
    R.Mii = mii(*G, *M);
  }
  Problem P(*G, *M, Opts.Formulation);
  {
    Span S("sched.problem_hash");
    if (P.hashExact())
      (void)P.canonicalHash();
  }
  std::optional<SolutionCache::Hit> Hit;
  {
    Span S("ilpsched.cache_lookup");
    Hit = SolutionCache::global().lookup(P, Key);
  }
  std::string Fault;
  if (Hit) {
    R.Found = true;
    R.CacheHit = true;
    R.II = Hit->II;
    R.SecondaryObjective = Hit->SecondaryObjective;
    R.Schedule = std::move(Hit->Schedule);
    ++C.CacheHits;
  } else {
    inlineLadder(*G, *M, Opts, R, Fault);
    Span S("ilpsched.cache_insert");
    SolutionCache::global().insert(P, Key, R);
    ++C.CacheMisses;
  }
  Counts RC = countsOf(R);
  RC.CacheHits = RC.CacheMisses = RC.CacheInserts = 0;
  addCounts(C, RC);
  Outcome O = outcomeOf(R);
  if (!Fault.empty()) {
    O.Failed = true;
    O.Message = Fault;
  }
  // The reply is checked against the request as sent (the variant's own
  // graph and machine, which is what this request parsed).
  if (std::optional<std::string> Err = checkOutcome(
          Ref, Req.RefDigest, *Req.G, *Req.M, Objective::MinBuff, O))
    Failures.push_back(G->name() + ": " + *Err);
}

struct OwnServicePass {
  Counts C;
  double ThreadSeconds = 0; ///< Summed over client threads.
  std::vector<std::string> Failures;
  std::map<std::string, std::vector<double>> Spans;
  int64_t Evictions = 0;
};

/// Every client's requests through the benchmark's own request path, on
/// the client threads; spans are recorded when enabled.
OwnServicePass ownServicePass(const ServiceSetup &S, const Reference &Ref) {
  OwnServicePass P;
  SolutionCache::global().clear();
  const SchedulerOptions Opts = serviceOptions();
  const uint64_t Key = SolutionCache::requestKey(Opts);
  const int64_t EvictionsBefore = counterValue("ilpsched/cache.evictions");
  std::vector<Counts> PerClient(S.Streams.size());
  std::vector<double> Busy(S.Streams.size());
  std::vector<std::vector<std::string>> Failures(S.Streams.size());
  std::mutex SpanMu;
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < S.Streams.size(); ++C)
    Clients.emplace_back([&, C] {
      telemetry::ThreadShardScope Shard;
      Clock::time_point T0 = Clock::now();
      for (const ServiceRequest &Req : S.Streams[C])
        tracedServiceRequest(Req, Opts, Key, Ref, PerClient[C], Failures[C]);
      Busy[C] = secondsSince(T0);
      std::lock_guard<std::mutex> Lock(SpanMu);
      spans::drainInto(P.Spans);
    });
  for (std::thread &T : Clients)
    T.join();
  for (size_t C = 0; C < S.Streams.size(); ++C) {
    addCounts(P.C, PerClient[C]);
    P.ThreadSeconds += Busy[C];
    P.Failures.insert(P.Failures.end(), Failures[C].begin(),
                      Failures[C].end());
  }
  P.C.CacheInserts = int64_t(SolutionCache::global().size());
  P.Evictions = counterValue("ilpsched/cache.evictions") - EvictionsBefore;
  return P;
}

RunResult runServiceMix(const RunOptions &Opts, const Reference &Ref,
                        std::FILE *Out) {
  RunResult Result;
  Reporter Rep{Out, Result};

  std::vector<double> SetupTimes;
  auto TimedSetup = [&] {
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<ServiceSetup> New = setupService(Opts.Seed, Ref);
    SetupTimes.push_back(secondsSince(T0));
    return New;
  };
  std::unique_ptr<ServiceSetup> S = TimedSetup();
  std::fprintf(Out,
               "service-mix: %d closed-loop clients x %d requests, %d "
               "workers, PB engine, minbuff, budget %lld conflicts; %zu "
               "small loops left out because their reference came from "
               "the PB engine\n",
               ServiceClients, ServiceRequestsPerClient, ServiceWorkers,
               (long long)NodeBudget, S->LeftOut);

  auto Absorb = [&](int64_t Attempted, const std::vector<std::string> &F) {
    Result.Attempted += Attempted;
    Result.Failed += int64_t(F.size());
    for (size_t I = 0; I < F.size() && I < 20; ++I)
      Rep.fail(F[I]);
  };

  Clock::time_point RunStart = Clock::now();
  std::optional<Counts> First;
  int Pass = 0;
  if (!Opts.Trace) {
    SetupSpacing Spacing(Opts.Seconds);
    HostSpeed Speed;
    std::vector<std::vector<double>> Lat;
    double PeakRss = 0;
    int64_t PerPass = 0;
    do {
      // From the second pass on, probe the host and repeat the set-up
      // between passes (its warm pass clears the shared solution cache,
      // so it cannot run inside one). The live set-up goes first, so two
      // never coexist in memory.
      if (Pass) {
        Speed.maybeProbe();
        if (Spacing.due(SetupTimes.size())) {
          S.reset();
          S = TimedSetup();
        }
      }
      ServicePass P = timedServicePass(*S, Ref);
      ++Pass;
      if (Pass == 1)
        PeakRss = peakRssMb();
      Absorb(P.Attempted, P.Failures);
      if (!First)
        First = P.C;
      passGate(*First, P.C, Pass, Rep);
      if (Pass <= 3)
        std::fprintf(Out, "pass %d: %.3f s, %s\n", Pass, P.Seconds,
                     formatCounts(P.C).c_str());
      PerPass = P.Attempted;
      // The first pass warms up and is not timed.
      if (Pass > 1)
        Lat.push_back(std::move(P.LatencyMs));
    } while (Pass < 2 || secondsSince(RunStart) < Opts.Seconds);
    reportSetups(Out, SetupTimes);
    Speed.report(Out);

    const double F = Speed.leastFactor();
    std::vector<double> Least = leastPerRequest(Lat);
    // The clients run side by side, each one request after another, so a
    // pass at its best lasts as long as the busier client's least
    // latencies add up to.
    double BusiestMs = 0;
    for (size_t C = 0, From = 0; C < S->Streams.size(); ++C) {
      double Sum = 0;
      for (size_t I = 0; I < S->Streams[C].size(); ++I)
        Sum += Least[From + I];
      From += S->Streams[C].size();
      BusiestMs = std::max(BusiestMs, Sum);
    }
    std::fprintf(Out, "raw: setup %.6f s, %.4f requests/s, p50 %.6f ms, "
                      "p95 %.6f ms\n",
                 median(SetupTimes), double(PerPass) / (BusiestMs / 1e3),
                 percentile(Least, 0.50).Value, percentile(Least, 0.95).Value);
    std::fprintf(Out, "end-to-end metrics (each request's least latency of "
                      "%zu timed passes; busiest client's sum %.3f s; at "
                      "reference speed):\n",
                 Lat.size(), BusiestMs / 1e3);
    Rep.metric("setup_s", median(SetupTimes) * Speed.medianFactor(), "s");
    Rep.metric("peak_rss_mb", PeakRss, "MB");
    Rep.metric("requests_per_s", double(PerPass) / (BusiestMs / 1e3 * F),
               "1/s");
    Least = scaled(std::move(Least), F);
    Rep.percentileMetric("latency_p50_ms", Least, Lat.size(), 0.50, true);
    Rep.percentileMetric("latency_p95_ms", Least, Lat.size(), 0.95, true);
    Rep.metric("decided_frac", double(First->Decided) / double(PerPass),
               "ratio");
    Rep.metric("ok_frac",
               1.0 - double(Result.Failed) / double(Result.Attempted),
               "ratio");
  } else {
    LayerTimes L;
    L.ServerPath = true;
    std::vector<double> Overheads;
    UntracedLatencies ULat;
    Counts TracedCounts;
    int64_t Shed = 0, Errors = 0, Evictions = 0;
    do {
      ServicePass U = timedServicePass(*S, Ref);
      Shed += U.Shed;
      Errors += U.Errors;
      ++Pass;
      Absorb(U.Attempted, U.Failures);
      if (!First)
        First = U.C;
      passGate(*First, U.C, Pass, Rep);

      // I and T alternate which goes first, so the order cancels out of
      // the median overhead.
      OwnServicePass I, T;
      auto RunTraced = [&] {
        telemetry::setStatsEnabled(true);
        spans::setEnabled(true);
        T = ownServicePass(*S, Ref);
        spans::setEnabled(false);
        telemetry::setStatsEnabled(false);
      };
      if (Pass % 2 == 0)
        RunTraced();
      I = ownServicePass(*S, Ref);
      if (Pass % 2 == 1)
        RunTraced();
      Absorb(U.Attempted, I.Failures);
      for (const std::string &X : diffCounts(U.C, I.C))
        Rep.fail("own path does not reproduce the server's counts: " + X);
      for (auto &[Name, D] : T.Spans)
        L.Spans[Name].insert(L.Spans[Name].end(), D.begin(), D.end());
      Absorb(U.Attempted, T.Failures);
      for (const std::string &X : diffCounts(U.C, T.C))
        Rep.fail("traced pass does not reproduce the server's counts: " + X);
      for (const std::string &X : diffCounts(I.C, T.C))
        Rep.fail("traced pass does not reproduce the own path: " + X);

      L.UntracedSeconds += U.LatencySeconds;
      L.OwnSeconds += I.ThreadSeconds;
      L.TracedSeconds += T.ThreadSeconds;
      ++L.Passes;
      Evictions += T.Evictions;
      ULat.PerPass.push_back(U.LatencyMs);
      ULat.Hit = U.Hit;
      // The own path knows the counts the replies do not carry.
      First = T.C;
      TracedCounts = T.C;
      Overheads.push_back(T.ThreadSeconds / I.ThreadSeconds - 1.0);
      std::fprintf(Out,
                   "triple %d: server latency %.3f s, own path %.3f s, "
                   "traced %.3f s (summed over requests), %s\n",
                   Pass, U.LatencySeconds, I.ThreadSeconds, T.ThreadSeconds,
                   formatCounts(T.C).c_str());
    } while (secondsSince(RunStart) < Opts.Seconds);
    std::fprintf(Out, "per-layer metrics (%d traced passes):\n", L.Passes);
    reportLayers(L, TracedCounts, Overheads, ULat, Evictions, Shed, Errors,
                 S->GenerateSeconds, Rep);
  }
  crossRunGate(Opts, *First, Rep);
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Metric catalogue and dispatch
//===----------------------------------------------------------------------===//

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"sweep-ilp", "sweep-pb",
                                                 "service-mix"};
  return Names;
}

const std::vector<MetricInfo> &endToEndMetrics() {
  static const std::vector<MetricInfo> M = {
      {"setup_s", "s", "lower", "*"},
      {"peak_rss_mb", "MB", "lower", "*"},
      {"requests_per_s", "1/s", "higher", "*"},
      {"latency_p50_ms", "ms", "lower", "*"},
      {"latency_p95_ms", "ms", "lower", "*"},
      {"decided_frac", "ratio", "higher", "*"},
      {"ok_frac", "ratio", "higher", "*"},
  };
  return M;
}

const std::vector<MetricInfo> &perLayerMetrics() {
  static const std::vector<MetricInfo> M = {
      {"lp.simplex_iterations", "count", "lower", "sweep-ilp"},
      {"lp.refactorizations", "count", "lower", "sweep-ilp"},
      {"lp.eta_nnz", "count", "lower", "sweep-ilp"},
      {"lp.warm_solve_frac", "ratio", "higher", "sweep-ilp"},
      {"lp.solve_ms", "ms", "lower", "sweep-ilp"},
      {"lp.us_per_iteration", "us", "lower", "sweep-ilp"},
      {"ilp.nodes", "count", "lower", "sweep-ilp"},
      {"ilp.bb_self_ms", "ms", "lower", "sweep-ilp"},
      {"pb.conflicts", "count", "lower", "sweep-pb service-mix"},
      {"pb.propagations", "count", "lower", "sweep-pb service-mix"},
      {"pb.restarts", "count", "lower", "sweep-pb service-mix"},
      {"pb.learned", "count", "lower", "sweep-pb service-mix"},
      {"pb.solve_ms", "ms", "lower", "sweep-pb service-mix"},
      {"pb.propagations_per_s", "1/s", "higher", "sweep-pb service-mix"},
      {"ilpsched.attempts", "count", "lower", "*"},
      {"ilpsched.formulation_build_ms", "ms", "lower", "sweep-ilp"},
      {"ilpsched.pb_formulation_build_ms", "ms", "lower", "sweep-pb service-mix"},
      {"ilpsched.decode_ms", "ms", "lower", "*"},
      {"ilpsched.cache_hits", "count", "higher", "service-mix"},
      {"ilpsched.cache_misses", "count", "lower", "service-mix"},
      {"ilpsched.cache_inserts", "count", "lower", "service-mix"},
      {"ilpsched.cache_evictions", "count", "lower", "service-mix"},
      {"ilpsched.cache_lookup_us_p50", "us", "lower", "service-mix"},
      {"sched.mii_us", "us", "lower", "*"},
      {"sched.problem_hash_us_p50", "us", "lower", "service-mix"},
      {"sched.verify_us_p50", "us", "lower", "*"},
      {"textio.parse_us_p50", "us", "lower", "service-mix"},
      {"service.frame_parse_us_p50", "us", "lower", "service-mix"},
      {"latency_p99_ms", "ms", "lower", "sweep-pb service-mix"},
      {"service.hit_latency_p50_ms", "ms", "lower", "service-mix"},
      {"service.miss_latency_p50_ms", "ms", "lower", "service-mix"},
      {"service.shed", "count", "lower", "service-mix"},
      {"service.errors", "count", "lower", "service-mix"},
      {"workloads.generate_ms", "ms", "lower", "*"},
      {"lp.self_frac", "ratio", "lower", "sweep-ilp"},
      {"ilp.self_frac", "ratio", "lower", "sweep-ilp"},
      {"pb.self_frac", "ratio", "lower", "sweep-pb service-mix"},
      {"ilpsched.self_frac", "ratio", "lower", "*"},
      {"sched.self_frac", "ratio", "lower", "*"},
      {"textio.self_frac", "ratio", "lower", "service-mix"},
      {"service.self_frac", "ratio", "lower", "service-mix"},
      {"service.dispatch_frac", "ratio", "lower", "service-mix"},
      {"unattributed_frac", "ratio", "lower", "*"},
      {"trace.overhead_frac", "ratio", "lower", "*"},
  };
  return M;
}

RunResult runWorkload(const RunOptions &Opts, std::FILE *Report) {
  Reference Ref;
  std::string Error;
  if (!loadReference(Opts.ReferencePath, Ref, &Error)) {
    std::fprintf(Report, "FAIL %s\n", Error.c_str());
    RunResult R;
    R.Correct = false;
    return R;
  }
  if (Opts.Workload == "sweep-ilp")
    return runSweep({Objective::None, SchedulerBackend::Ilp, false},
                    Opts, Ref, Report);
  if (Opts.Workload == "sweep-pb")
    return runSweep({Objective::MinBuff, SchedulerBackend::Pb, true},
                    Opts, Ref, Report);
  return runServiceMix(Opts, Ref, Report);
}

} // namespace perfbench

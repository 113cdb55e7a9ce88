//===- ilpsched/OptimalScheduler.cpp - Min-II ILP search ------------------===//

#include "ilpsched/OptimalScheduler.h"

#include "ilpsched/AttemptEngine.h"
#include "ilpsched/PbFormulation.h"
#include "ilpsched/SolutionCache.h"
#include "lp/SolveContext.h"
#include "sched/Mii.h"
#include "sched/Verifier.h"
#include "support/Telemetry.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

using namespace modsched;
using namespace modsched::ilp;

const char *modsched::toString(SchedulerBackend Backend) {
  switch (Backend) {
  case SchedulerBackend::Ilp:
    return "ilp";
  case SchedulerBackend::Pb:
    return "pb";
  case SchedulerBackend::Auto:
    return "auto";
  }
  return "unknown";
}

SchedulerBackend modsched::defaultSchedulerBackend() {
  static const SchedulerBackend Cached = [] {
    const char *Env = std::getenv("MODSCHED_BACKEND");
    if (!Env || !*Env)
      return SchedulerBackend::Ilp;
    if (std::strcmp(Env, "ilp") == 0)
      return SchedulerBackend::Ilp;
    if (std::strcmp(Env, "pb") == 0)
      return SchedulerBackend::Pb;
    if (std::strcmp(Env, "auto") == 0)
      return SchedulerBackend::Auto;
    std::fprintf(stderr,
                 "modsched: unrecognized MODSCHED_BACKEND='%s' "
                 "(want ilp|pb|auto); keeping ilp\n",
                 Env);
    return SchedulerBackend::Ilp;
  }();
  return Cached;
}

bool modsched::defaultExplainEnabled() {
  static const bool Cached = [] {
    const char *Env = std::getenv("MODSCHED_EXPLAIN");
    if (!Env || !*Env)
      return false;
    if (std::strcmp(Env, "1") == 0 || std::strcmp(Env, "on") == 0)
      return true;
    if (std::strcmp(Env, "0") == 0 || std::strcmp(Env, "off") == 0)
      return false;
    std::fprintf(stderr,
                 "modsched: unrecognized MODSCHED_EXPLAIN='%s' "
                 "(want 0|1|on|off); keeping off\n",
                 Env);
    return false;
  }();
  return Cached;
}

bool modsched::defaultCacheEnabled() {
  static const bool Cached = [] {
    const char *Env = std::getenv("MODSCHED_CACHE");
    if (!Env || !*Env)
      return false;
    if (std::strcmp(Env, "1") == 0 || std::strcmp(Env, "on") == 0)
      return true;
    if (std::strcmp(Env, "0") == 0 || std::strcmp(Env, "off") == 0)
      return false;
    std::fprintf(stderr,
                 "modsched: unrecognized MODSCHED_CACHE='%s' "
                 "(want 0|1|on|off); keeping off\n",
                 Env);
    return false;
  }();
  return Cached;
}

namespace {

telemetry::Counter StatLoops("ilpsched", "scheduler.loops",
                             "Loops submitted to the optimal scheduler");
telemetry::Counter StatAttempts("ilpsched", "scheduler.attempts",
                                "Tentative IIs attempted (incl. window-"
                                "infeasible)");
telemetry::Counter StatScheduled("ilpsched", "scheduler.scheduled",
                                 "Loops scheduled successfully");
telemetry::Counter StatTimeouts("ilpsched", "scheduler.timeouts",
                                "Loops abandoned on wall-clock budget "
                                "expiry");
telemetry::Counter StatNodeLimits("ilpsched", "scheduler.node_limits",
                                  "Loops abandoned on node-budget "
                                  "exhaustion");
telemetry::PhaseTimer TimeSchedule("ilpsched", "scheduler.schedule",
                                   "End-to-end min-II search");

/// Who decides one attempt.
enum class Pick { Ilp, Pb, Race };

/// The backend's engine for \p P. Auto is a fixed rule over the
/// formulation options (EXPERIMENTS.md E13): PB wins NoObj and MinBuff
/// outright, ILP wins MinLife, and only MinReg gains from engine
/// diversity. The PB backend falls back to the ILP, warning once per
/// Problem.
Pick pickEngine(SchedulerBackend Backend, const Problem &P) {
  const FormulationOptions &O = P.options();
  switch (Backend) {
  case SchedulerBackend::Ilp:
    return Pick::Ilp;
  case SchedulerBackend::Pb:
    if (PbFormulation::supports(O))
      return Pick::Pb;
    if (P.claimPbFallbackWarning())
      std::fprintf(stderr,
                   "modsched: PB backend does not support this formulation "
                   "(instance mapping, MinSL, or traditional objective "
                   "style); falling back to ILP\n");
    return Pick::Ilp;
  case SchedulerBackend::Auto:
    if (!PbFormulation::supports(O))
      return Pick::Ilp;
    if (O.Obj == Objective::None || O.Obj == Objective::MinBuff)
      return Pick::Pb;
    return O.Obj == Objective::MinReg ? Pick::Race : Pick::Ilp;
  }
  return Pick::Ilp;
}

} // namespace

OptimalModuloScheduler::OptimalModuloScheduler(const MachineModel &M,
                                               SchedulerOptions Options)
    : M(M), Opts(std::move(Options)),
      IlpE(std::make_unique<IlpEngine>(Opts)),
      PbE(std::make_unique<PbEngine>(Opts)) {}

OptimalModuloScheduler::~OptimalModuloScheduler() = default;

std::optional<ModuloSchedule>
OptimalModuloScheduler::scheduleAtIi(const Problem &P, int II,
                                     ScheduleResult &Stats, double TimeBudget,
                                     lp::SolveContext *Ctx) const {
  ++StatAttempts;
  Stopwatch AttemptWatch;
  telemetry::SpanScope Span("ilpsched", "scheduler.attempt", {{"ii", II}});

  IiAttempt Attempt;
  Attempt.II = II;
  // Publishes the attempt record on every exit path; the engines have
  // several returns each and every one must leave a truthful telemetry
  // row behind.
  struct PublishOnExit {
    ScheduleResult &Stats;
    IiAttempt &Attempt;
    Stopwatch &Watch;
    ~PublishOnExit() {
      Attempt.Seconds = Watch.seconds();
      Stats.Attempts.push_back(Attempt);
      if (telemetry::tracingEnabled())
        telemetry::instant(
            "ilpsched", "scheduler.attempt_done",
            {{"ii", Attempt.II},
             {"status", ilp::toString(Attempt.Status)},
             {"scheduled", int64_t(Attempt.Scheduled ? 1 : 0)},
             {"window_infeasible",
              int64_t(Attempt.WindowInfeasible ? 1 : 0)},
             {"cancelled", int64_t(Attempt.Cancelled ? 1 : 0)},
             {"nodes", Attempt.Nodes},
             {"pb_conflicts", Attempt.PbConflicts},
             {"seconds", Attempt.Seconds},
             {"witness", Attempt.Explain
                             ? witnessName(Attempt.Explain->Kind)
                             : witnessName(WitnessKind::None)},
             {"witness_source", Attempt.Explain
                                    ? sourceName(Attempt.Explain->Source)
                                    : sourceName(ExplainSource::None)},
             {"witness_verified",
              int64_t(Attempt.Explain && Attempt.Explain->Verified ? 1
                                                                   : 0)},
             {"engine", Attempt.Engine.c_str()}});
    }
  } Publish{Stats, Attempt, AttemptWatch};

  AttemptContext C{P, II, Stats, TimeBudget, Ctx, Attempt};
  std::optional<ModuloSchedule> S;
  switch (pickEngine(Opts.Backend, P)) {
  case Pick::Ilp:
    Attempt.Engine = IlpE->name();
    S = IlpE->solveAttempt(C);
    break;
  case Pick::Pb:
    Attempt.Engine = PbE->name();
    S = PbE->solveAttempt(C);
    break;
  case Pick::Race:
    S = raceEngines(*IlpE, *PbE, C);
    break;
  }

  // Uniform gate: whatever engine produced the schedule, it does not
  // leave the seam unverified.
  if (S)
    if (std::optional<std::string> Err =
            verifySchedule(P.graph(), P.machine(), *S)) {
      std::fprintf(stderr,
                   "fatal: engine '%s' emitted a schedule the verifier "
                   "rejects: %s\n",
                   Attempt.Engine.c_str(), Err->c_str());
      std::abort();
    }
  return S;
}

std::optional<ModuloSchedule>
OptimalModuloScheduler::scheduleAtIi(const DependenceGraph &G, int II,
                                     ScheduleResult &Stats, double TimeBudget,
                                     lp::SolveContext *Ctx) const {
  Problem P(G, M, Opts.Formulation);
  return scheduleAtIi(P, II, Stats, TimeBudget, Ctx);
}

ScheduleResult
OptimalModuloScheduler::schedule(const DependenceGraph &G,
                                 lp::SolveContext *Ctx) const {
  ++StatLoops;
  telemetry::TimerScope Time(TimeSchedule,
                             {{"ops", int64_t(G.numOperations())}});
  Stopwatch Watch;
  ScheduleResult Result;
  Result.Mii = mii(G, M);

  Problem P(G, M, Opts.Formulation);
  const uint64_t RequestKey = SolutionCache::requestKey(Opts);
  if (Opts.Cache && P.hashExact()) {
    Result.CacheCanonicalHash = P.canonicalHash();
    Result.CacheRequestKey = RequestKey;
  }
  if (Opts.Cache)
    if (std::optional<SolutionCache::Hit> Hit =
            SolutionCache::global().lookup(P, RequestKey)) {
      // Served from the cache: the stored canonical solve, re-verified
      // against THIS graph/machine on lookup. No solver effort fields
      // are synthesized — a hit honestly reports zero attempts.
      Result.Found = true;
      Result.CacheHit = true;
      Result.II = Hit->II;
      Result.SecondaryObjective = Hit->SecondaryObjective;
      Result.Schedule = std::move(Hit->Schedule);
      Result.Seconds = Watch.seconds();
      ++StatScheduled;
      if (telemetry::tracingEnabled())
        telemetry::instant("ilpsched", "scheduler.done",
                           {{"mii", Result.Mii},
                            {"ii", Result.II},
                            {"found", int64_t(1)},
                            {"cache_hit", int64_t(1)},
                            {"timed_out", int64_t(0)},
                            {"node_limit_hit", int64_t(0)},
                            {"nodes", int64_t(0)},
                            {"seconds", Result.Seconds}});
      return Result;
    }

  // The paper's loop: one II at a time, MII upward, stop at the first
  // feasible one or when a budget runs out.
  Stopwatch Ladder;
  for (int II = Result.Mii; II <= Result.Mii + Opts.MaxIiIncrease; ++II) {
    double Remaining = Opts.TimeLimitSeconds - Ladder.seconds();
    if (Remaining <= 0) {
      Result.TimedOut = true;
      break;
    }
    if (Result.budgetNodes() >= Opts.NodeLimit) {
      Result.NodeLimitHit = true;
      break;
    }
    std::optional<ModuloSchedule> S =
        scheduleAtIi(P, II, Result, Remaining, Ctx);
    // A cancelled attempt means the caller's token fired: every higher
    // II would be cancelled too.
    if (Result.TimedOut || Result.NodeLimitHit ||
        Result.Attempts.back().Cancelled)
      break;
    if (S) {
      Result.Found = true;
      Result.II = II;
      Result.Schedule = std::move(*S);
      break;
    }
  }

  Result.Seconds = Watch.seconds();
  if (Opts.Cache)
    SolutionCache::global().insert(P, RequestKey, Result);
  if (Result.Found)
    ++StatScheduled;
  if (Result.TimedOut)
    ++StatTimeouts;
  if (Result.NodeLimitHit)
    ++StatNodeLimits;
  if (telemetry::tracingEnabled())
    telemetry::instant(
        "ilpsched", "scheduler.done",
        {{"mii", Result.Mii},
         {"ii", Result.II},
         {"found", int64_t(Result.Found ? 1 : 0)},
         {"cache_hit", int64_t(0)},
         {"timed_out", int64_t(Result.TimedOut ? 1 : 0)},
         {"node_limit_hit", int64_t(Result.NodeLimitHit ? 1 : 0)},
         {"nodes", Result.Nodes},
         {"seconds", Result.Seconds}});
  return Result;
}

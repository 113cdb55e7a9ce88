//===- ilpsched/AttemptEngine.h - Uniform solve-attempt seam ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine seam: every exact backend that can decide one tentative II
/// of a Problem implements AttemptEngine, and everything an attempt
/// needs — the problem, the deterministic budget ledger, the deadline /
/// cancellation context and the telemetry scope — rides in one
/// AttemptContext instead of being threaded ad hoc.
///
///   IlpEngine   LP-relaxation branch-and-bound (the default).
///   PbEngine    conflict-driven pseudo-Boolean search.
///   raceEngines both of them on one attempt, first conclusive verdict
///               wins (SchedulerBackend::Auto's MinReg rule).
///
/// Contract: a conclusive solveAttempt() yields the true optimum (or
/// true infeasibility) at its II — engine choice never changes a
/// verdict, only the effort spent reaching it. Every schedule an engine
/// returns has already passed sched/Verifier (engines abort on a
/// self-check failure); OptimalModuloScheduler::scheduleAtIi re-verifies
/// once more as the uniform gate.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_ATTEMPTENGINE_H
#define MODSCHED_ILPSCHED_ATTEMPTENGINE_H

#include "ilpsched/OptimalScheduler.h"
#include "sched/Problem.h"

#include <optional>

namespace modsched {

/// Everything one solve attempt carries through the seam.
struct AttemptContext {
  /// The problem (graph + machine + formulation options).
  const Problem &P;
  /// The tentative initiation interval under trial.
  int II;
  /// Loop-level ledger: deterministic budget spend (budgetNodes()),
  /// work counters, and verdict flags accumulate here.
  ScheduleResult &Stats;
  /// Wall-clock seconds this attempt may spend.
  double TimeBudget;
  /// Deadline / cancellation environment; null = a fresh local context
  /// (the historical sequential behavior).
  lp::SolveContext *Ctx = nullptr;
  /// Telemetry scope: the attempt record this solve must fill
  /// truthfully on every exit path.
  IiAttempt &Attempt;
};

/// One exact engine capable of deciding "is there a schedule at this II,
/// and what is the optimal secondary objective?".
class AttemptEngine {
public:
  virtual ~AttemptEngine();

  /// Stable printable name ("ilp", "pb"); used for IiAttempt::Engine and
  /// bench records.
  virtual const char *name() const = 0;

  /// Hard capability: can this engine decide (\p P, \p II) at all?
  /// solveAttempt must never be invoked when this is false — the seam
  /// filters first, and engines assert it.
  virtual bool supports(const Problem &P, int II) const = 0;

  /// Decides one tentative II. Returns the verified optimal schedule,
  /// or nullopt on infeasibility / censoring / cancellation, with
  /// C.Attempt and C.Stats telling the truthful story either way.
  virtual std::optional<ModuloSchedule>
  solveAttempt(AttemptContext &C) const = 0;
};

/// LP-relaxation branch-and-bound over ilpsched/Formulation.
class IlpEngine : public AttemptEngine {
public:
  explicit IlpEngine(const SchedulerOptions &Opts) : Opts(Opts) {}

  const char *name() const override { return "ilp"; }
  bool supports(const Problem &P, int II) const override;
  std::optional<ModuloSchedule>
  solveAttempt(AttemptContext &C) const override;

private:
  const SchedulerOptions &Opts;
};

/// Conflict-driven pseudo-Boolean search over ilpsched/PbFormulation.
class PbEngine : public AttemptEngine {
public:
  explicit PbEngine(const SchedulerOptions &Opts) : Opts(Opts) {}

  const char *name() const override { return "pb"; }
  bool supports(const Problem &P, int II) const override;
  std::optional<ModuloSchedule>
  solveAttempt(AttemptContext &C) const override;

private:
  const SchedulerOptions &Opts;
};

/// Races \p Ilp and \p Pb on one attempt. Each engine runs on its own
/// thread under a private SolveContext with the remaining budget; the
/// first conclusive verdict cancels the other engine, and the caller's
/// token (C.Ctx) stops both. When both conclude, the ILP verdict is
/// committed and the two are cross-checked (abort on mismatch). Both
/// engines' effort is charged to C.Stats and C.Attempt.
std::optional<ModuloSchedule> raceEngines(const IlpEngine &Ilp,
                                          const PbEngine &Pb,
                                          AttemptContext &C);

} // namespace modsched

#endif // MODSCHED_ILPSCHED_ATTEMPTENGINE_H

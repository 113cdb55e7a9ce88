//===- ilpsched/AttemptEngine.cpp - ILP and PB attempt engines ------------===//

#include "ilpsched/AttemptEngine.h"

#include "ilpsched/Formulation.h"
#include "ilpsched/PbFormulation.h"
#include "lp/SolveContext.h"
#include "sched/Verifier.h"
#include "support/Cancellation.h"
#include "support/Telemetry.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>

using namespace modsched;
using namespace modsched::ilp;

AttemptEngine::~AttemptEngine() = default;

namespace {

telemetry::Counter StatExplainCycle("ilpsched", "explain.cycle_witnesses",
                                    "Infeasible IIs explained by a "
                                    "recurrence cycle");
telemetry::Counter StatExplainResource("ilpsched",
                                       "explain.resource_witnesses",
                                       "Infeasible IIs explained by a "
                                       "saturated resource");
telemetry::Counter StatExplainWindow("ilpsched", "explain.window_witnesses",
                                     "Infeasible IIs explained by an empty "
                                     "schedule window");
telemetry::Counter StatExplainNone("ilpsched", "explain.unexplained",
                                   "Infeasible IIs with no checkable "
                                   "witness");

/// Verifies \p E against the graph/machine arithmetic, bumps the witness
/// counters, and attaches it to \p Attempt. A nullopt (or a witness of
/// kind None) counts as unexplained and attaches nothing.
void attachExplanation(const DependenceGraph &G, const MachineModel &M,
                       int II, int Slack, IiAttempt &Attempt,
                       std::optional<Explanation> E) {
  if (!E || E->Kind == WitnessKind::None) {
    ++StatExplainNone;
    return;
  }
  E->Verified = checkExplanation(G, M, II, Slack, *E);
  switch (E->Kind) {
  case WitnessKind::RecurrenceCycle:
    ++StatExplainCycle;
    break;
  case WitnessKind::ResourceSaturation:
    ++StatExplainResource;
    break;
  case WitnessKind::ScheduleWindow:
    ++StatExplainWindow;
    break;
  case WitnessKind::None:
    break;
  }
  Attempt.Explain = std::move(*E);
}

/// Builds the audit record for a solved (or censored-with-incumbent) ILP
/// attempt from the MIP result's bound evidence.
OptimalityAudit makeIlpAudit(MipResult &R, const char *Proof) {
  OptimalityAudit A;
  A.HasRootBound = R.HasRootBound;
  A.RootBound = R.RootBound;
  A.FinalObjective = R.Objective;
  A.Gap = R.HasRootBound ? R.Objective - R.RootBound : 0.0;
  if (std::abs(A.Gap) < 1e-6)
    A.Gap = 0.0; // Strip LP round-off from a proved-tight bound.
  A.Proof = Proof;
  A.Trajectory = std::move(R.Trajectory);
  return A;
}

/// PB-backend infeasibility forensics: re-encodes the attempt with every
/// dependence edge and modeled resource gated behind a selector (the
/// objective machinery is dropped — it cannot cause primary
/// infeasibility — but a RegisterLimit constraint is kept), solves under
/// the group assumptions, and maps the unsat core's origins to a
/// witness. Falls back to pure graph analysis whenever the re-solve
/// yields no usable core (deadline expiry, empty core, unmappable
/// evidence).
std::optional<Explanation> explainPbUnsat(const DependenceGraph &G,
                                          const MachineModel &M, int II,
                                          const FormulationOptions &FOpts,
                                          lp::SolveContext &C) {
  FormulationOptions ExOpts = FOpts;
  ExOpts.Obj = Objective::None;
  PbFormulation F(G, M, II, ExOpts, /*ExplainGroups=*/true);
  if (F.valid()) {
    pb::Solver &S = F.solver();
    S.DeadlineSeconds = C.DeadlineSeconds;
    S.Cancel = C.Cancel;
    if (S.solve(F.explainAssumptions()) == pb::SolveStatus::Unsat) {
      std::vector<RowOrigin> Core = F.coreOrigins();
      if (!Core.empty())
        if (std::optional<Explanation> E =
                explainFromOrigins(G, M, II, FOpts.ScheduleLengthSlack, Core,
                                   ExplainSource::UnsatCore))
          return E;
    }
  }
  return explainInfeasibleIi(G, M, II, FOpts.ScheduleLengthSlack);
}

} // namespace

//===----------------------------------------------------------------------===//
// IlpEngine
//===----------------------------------------------------------------------===//

bool IlpEngine::supports(const Problem &, int) const {
  return true; // The ILP formulation encodes every option combination.
}

std::optional<ModuloSchedule>
IlpEngine::solveAttempt(AttemptContext &C) const {
  assert(supports(C.P, C.II) && "seam dispatched an unsupported attempt");
  const DependenceGraph &G = C.P.graph();
  const MachineModel &M = C.P.machine();
  const FormulationOptions &FOpts = C.P.options();
  const int II = C.II;
  ScheduleResult &Stats = C.Stats;
  IiAttempt &Attempt = C.Attempt;

  Formulation F(G, M, II, FOpts);
  Attempt.Variables = F.model().numVariables();
  Attempt.Constraints = F.model().numConstraints();
  const int Slack = FOpts.ScheduleLengthSlack;
  if (!F.valid()) {
    Attempt.WindowInfeasible = true;
    if (Opts.Explain)
      attachExplanation(G, M, II, Slack, Attempt,
                        explainInfeasibleIi(G, M, II, Slack));
    return std::nullopt; // II infeasible within the window budget.
  }

  MipOptions MipOpts;
  MipOpts.TimeLimitSeconds = C.TimeBudget;
  MipOpts.NodeLimit = Opts.NodeLimit - Stats.budgetNodes();
  MipOpts.Branching = Opts.Branching;
  MipOpts.StopAtFirstSolution = FOpts.Obj == Objective::None;
  MipOpts.WarmStart = Opts.WarmStart;
  MipOpts.CollectFarkas = Opts.Explain;
  MipOpts.CollectTrajectory = Opts.Explain;
  MipSolver Solver(MipOpts);

  // Solve under the caller's context (a raced engine brings its own,
  // wired to the race's cancellation source) or a fresh local one.
  lp::SolveContext LocalCtx;
  MipResult R = Solver.solve(F.model(), C.Ctx ? *C.Ctx : LocalCtx);
  Stats.Nodes += R.Nodes;
  Stats.SimplexIterations += R.SimplexIterations;
  Stats.WarmLpSolves += R.WarmLpSolves;
  Stats.ColdLpSolves += R.ColdLpSolves;
  Stats.WarmLpIterations += R.WarmLpIterations;
  Stats.LpRefactorizations += R.LpRefactorizations;
  Stats.LpEtaNonzeros += R.LpEtaNonzeros;
  Attempt.Status = R.Status;
  Attempt.Nodes = R.Nodes;
  Attempt.SimplexIterations = R.SimplexIterations;

  if (R.Status == MipStatus::Cancelled) {
    // The caller's token stopped the search (e.g. the other engine of a
    // race concluded first). No verdict about this II; in particular no
    // half-decoded schedule ever escapes a cancelled solve.
    Attempt.Cancelled = true;
    return std::nullopt;
  }
  if (R.Status == MipStatus::Limit) {
    // Budget expired. A feasible-but-unproven incumbent is not reported
    // as an optimal schedule; the caller records which budget censored
    // the attempt (both flags can trip in the same pass).
    if (R.HitNodeLimit)
      Stats.NodeLimitHit = true;
    if (R.HitTimeLimit || !R.HitNodeLimit)
      Stats.TimedOut = true;
    if (Opts.Explain && R.HasSolution)
      Attempt.Audit = makeIlpAudit(R, "censored");
    return std::nullopt;
  }
  if (!R.HasSolution) {
    // Proved infeasible at this II. Map the node LPs' Farkas evidence
    // through the formulation's provenance table into a graph witness;
    // fall back to pure graph analysis when the search never ran an LP
    // (root presolve infeasibility) or the support does not localize.
    if (Opts.Explain) {
      std::vector<RowOrigin> Support;
      const std::vector<RowOrigin> &Origins = F.rowOrigins();
      for (int Row : R.FarkasRows)
        if (Row >= 0 && size_t(Row) < Origins.size())
          Support.push_back(Origins[size_t(Row)]);
      std::optional<Explanation> E;
      if (!Support.empty())
        E = explainFromOrigins(G, M, II, Slack, Support,
                               ExplainSource::FarkasRay);
      if (!E)
        E = explainInfeasibleIi(G, M, II, Slack);
      attachExplanation(G, M, II, Slack, Attempt, std::move(E));
    }
    return std::nullopt;
  }
  Stats.Variables = F.model().numVariables();
  Stats.Constraints = F.model().numConstraints();
  Stats.SecondaryObjective = R.Objective;
  ModuloSchedule S = F.decode(R.Values);
  // Every ILP schedule is independently re-verified; a failure here means
  // a formulation bug and must never be silently reported as a result.
  if (std::optional<std::string> Err = verifySchedule(G, M, S, F.maxTime())) {
    std::fprintf(stderr, "fatal: ILP produced an invalid schedule: %s\n",
                 Err->c_str());
    std::abort();
  }
  Attempt.Scheduled = true;
  if (Opts.Explain)
    Attempt.Audit = makeIlpAudit(
        R, MipOpts.StopAtFirstSolution ? "first_solution" : "optimal");
  return S;
}

//===----------------------------------------------------------------------===//
// PbEngine
//===----------------------------------------------------------------------===//

bool PbEngine::supports(const Problem &P, int) const {
  return PbFormulation::supports(P.options());
}

std::optional<ModuloSchedule>
PbEngine::solveAttempt(AttemptContext &C) const {
  assert(supports(C.P, C.II) &&
         "seam dispatched a PB attempt the encoding cannot express");
  const DependenceGraph &G = C.P.graph();
  const MachineModel &M = C.P.machine();
  const FormulationOptions &FOpts = C.P.options();
  const int II = C.II;
  ScheduleResult &Stats = C.Stats;
  IiAttempt &Attempt = C.Attempt;

  PbFormulation F(G, M, II, FOpts);
  Attempt.Variables = F.numVariables();
  Attempt.Constraints = F.numConstraints();
  const int Slack = FOpts.ScheduleLengthSlack;
  if (!F.valid()) {
    Attempt.WindowInfeasible = true;
    if (Opts.Explain)
      attachExplanation(G, M, II, Slack, Attempt,
                        explainInfeasibleIi(G, M, II, Slack));
    return std::nullopt; // II infeasible within the window budget.
  }

  lp::SolveContext LocalCtx;
  lp::SolveContext &Ctx = C.Ctx ? *C.Ctx : LocalCtx;
  lp::DeadlineScope Deadline(Ctx, C.TimeBudget);

  pb::Solver &S = F.solver();
  S.DeadlineSeconds = Ctx.DeadlineSeconds;
  S.Cancel = Ctx.Cancel;

  // PB effort accounting on every exit path, mirroring PublishOnExit:
  // conflicts are the backend's "nodes" and feed the shared budget.
  struct AccountOnExit {
    pb::Solver &S;
    pb::SolverStats Before;
    ScheduleResult &Stats;
    IiAttempt &Attempt;
    ~AccountOnExit() {
      const pb::SolverStats &After = S.stats();
      Attempt.PbConflicts = After.Conflicts - Before.Conflicts;
      Attempt.PbPropagations = After.Propagations - Before.Propagations;
      Stats.PbConflicts += Attempt.PbConflicts;
      Stats.PbPropagations += Attempt.PbPropagations;
      Stats.PbRestarts += After.Restarts - Before.Restarts;
      Stats.PbLearned += After.Learned - Before.Learned;
    }
  } Account{S, S.stats(), Stats, Attempt};

  const bool BoundedNodes = Opts.NodeLimit != INT64_MAX;
  // Conflicts the shared node budget still allows this attempt; the II
  // search guarantees it is positive on entry.
  auto ConflictsLeft = [&]() {
    int64_t Spent = S.stats().Conflicts - Account.Before.Conflicts;
    return Opts.NodeLimit - Stats.budgetNodes() - Spent;
  };

  // Solution-improving descent: each Sat answer becomes the incumbent
  // and tightens the (selector-gated) objective bound; Unsat with an
  // incumbent proves it optimal. Without an objective the first model
  // wins outright (the NoObj scheduler's StopAtFirstSolution).
  bool HaveIncumbent = false;
  int64_t BestObj = 0;
  ModuloSchedule Best;
  for (;;) {
    if (BoundedNodes) {
      int64_t Left = ConflictsLeft();
      if (Left <= 0) {
        Attempt.Status = MipStatus::Limit;
        Stats.NodeLimitHit = true;
        return std::nullopt;
      }
      S.ConflictLimit = Left;
    }
    pb::SolveStatus R = S.solve(F.assumptions());

    if (R == pb::SolveStatus::Sat) {
      ModuloSchedule Sched = F.decode();
      // Every PB schedule is independently re-verified; a failure here
      // means an encoding bug and must never be reported as a result.
      if (std::optional<std::string> Err =
              verifySchedule(G, M, Sched, F.maxTime())) {
        std::fprintf(stderr,
                     "fatal: PB backend produced an invalid schedule: %s\n",
                     Err->c_str());
        std::abort();
      }
      Best = std::move(Sched);
      BestObj = F.evalObjective();
      HaveIncumbent = true;
      if (!F.hasObjective())
        break; // Feasibility answer: done.
      if (!F.pushObjectiveBound(BestObj - 1))
        break; // Bound is root-level unsat: the incumbent is optimal.
      continue;
    }
    if (R == pb::SolveStatus::Unsat) {
      if (HaveIncumbent)
        break; // No better schedule exists: the incumbent is optimal.
      Attempt.Status = MipStatus::Infeasible;
      if (Opts.Explain)
        attachExplanation(G, M, II, Slack, Attempt,
                          explainPbUnsat(G, M, II, FOpts, Ctx));
      return std::nullopt; // Proved infeasible at this II.
    }
    if (R == pb::SolveStatus::Cancelled) {
      // Mirrors the ILP path: a cancelled solve yields no verdict, and
      // no possibly-unproven incumbent escapes it.
      Attempt.Status = MipStatus::Cancelled;
      Attempt.Cancelled = true;
      return std::nullopt;
    }
    // Limit: deadline or conflict budget, attributed like the ILP's
    // HitTimeLimit / HitNodeLimit pair.
    Attempt.Status = MipStatus::Limit;
    if (BoundedNodes && ConflictsLeft() <= 0)
      Stats.NodeLimitHit = true;
    else
      Stats.TimedOut = true;
    return std::nullopt;
  }

  Attempt.Status = MipStatus::Optimal;
  Stats.Variables = F.numVariables();
  Stats.Constraints = F.numConstraints();
  Stats.SecondaryObjective = double(BestObj);
  Attempt.Scheduled = true;
  if (Opts.Explain) {
    // The PB backend proves optimality by exhausting the bound descent;
    // there is no numeric relaxation bound to audit against.
    OptimalityAudit A;
    A.FinalObjective = double(BestObj);
    A.Proof = F.hasObjective() ? "optimal" : "first_solution";
    Attempt.Audit = std::move(A);
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// raceEngines
//===----------------------------------------------------------------------===//

namespace {

/// One engine's side of a race: a private context and ledger, so the
/// two engines share no mutable state while they run.
struct Lane {
  explicit Lane(const AttemptEngine &E) : E(E) {}
  Lane(const Lane &) = delete; // Its engine thread holds its address.
  Lane &operator=(const Lane &) = delete;

  const AttemptEngine &E;
  lp::SolveContext Ctx;
  ScheduleResult Stats;
  IiAttempt Attempt;
  std::optional<ModuloSchedule> Schedule;
};

/// A verdict about the II: a verified optimum or an infeasibility proof.
/// Budget expiry and cancellation decide nothing.
bool conclusive(const IiAttempt &A) {
  return !A.Cancelled && (A.Scheduled || A.Status == MipStatus::Infeasible);
}

/// Charges the work \p L did beyond the \p Seed* budget spend it started
/// from to the loop ledger \p Into.
void chargeEffort(ScheduleResult &Into, IiAttempt &Attempt, const Lane &L,
                  int64_t SeedNodes, int64_t SeedConflicts) {
  Into.Nodes += L.Stats.Nodes - SeedNodes;
  Into.PbConflicts += L.Stats.PbConflicts - SeedConflicts;
  Into.SimplexIterations += L.Stats.SimplexIterations;
  Into.WarmLpSolves += L.Stats.WarmLpSolves;
  Into.ColdLpSolves += L.Stats.ColdLpSolves;
  Into.WarmLpIterations += L.Stats.WarmLpIterations;
  Into.LpRefactorizations += L.Stats.LpRefactorizations;
  Into.LpEtaNonzeros += L.Stats.LpEtaNonzeros;
  Into.PbPropagations += L.Stats.PbPropagations;
  Into.PbRestarts += L.Stats.PbRestarts;
  Into.PbLearned += L.Stats.PbLearned;
  Attempt.Nodes += L.Attempt.Nodes;
  Attempt.SimplexIterations += L.Attempt.SimplexIterations;
  Attempt.PbConflicts += L.Attempt.PbConflicts;
  Attempt.PbPropagations += L.Attempt.PbPropagations;
}

} // namespace

std::optional<ModuloSchedule> modsched::raceEngines(const IlpEngine &Ilp,
                                                    const PbEngine &Pb,
                                                    AttemptContext &C) {
  assert(Ilp.supports(C.P, C.II) && Pb.supports(C.P, C.II) &&
         "both racers must support the attempt");
  lp::SolveContext LocalCtx;
  const lp::SolveContext &Parent = C.Ctx ? *C.Ctx : LocalCtx;
  // Each engine starts from the loop's budget spend so far, so the node
  // budget grants each of them what is left.
  const int64_t SeedNodes = C.Stats.Nodes;
  const int64_t SeedConflicts = C.Stats.PbConflicts;
  CancellationSource Stop;
  Lane IlpLane(Ilp), PbLane(Pb);
  for (Lane *L : {&IlpLane, &PbLane}) {
    L->Ctx.DeadlineSeconds = Parent.DeadlineSeconds;
    L->Ctx.Cancel = Stop.token();
    L->Attempt.II = C.II;
    L->Stats.Nodes = SeedNodes;
    L->Stats.PbConflicts = SeedConflicts;
  }

  std::mutex Mu;
  std::condition_variable Done;
  int Running = 2;
  const auto Run = [&](Lane &L) {
    telemetry::ThreadShardScope Shard;
    AttemptContext LC{C.P, C.II, L.Stats, C.TimeBudget, &L.Ctx, L.Attempt};
    L.Schedule = L.E.solveAttempt(LC);
    std::lock_guard<std::mutex> Lock(Mu);
    --Running;
    if (conclusive(L.Attempt))
      Stop.cancel(); // First verdict wins; stop the other engine.
    Done.notify_all();
  };
  {
    // jthreads join on every exit from this scope, exceptions included.
    std::jthread IlpThread(Run, std::ref(IlpLane));
    std::jthread PbThread(Run, std::ref(PbLane));
    // Tokens do not chain, so the caller's is polled here and forwarded.
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Done.wait_for(Lock, std::chrono::milliseconds(1),
                          [&] { return Running == 0; }))
      if (Parent.cancelled())
        Stop.cancel();
  }

  IiAttempt &Attempt = C.Attempt;
  chargeEffort(C.Stats, Attempt, IlpLane, SeedNodes, SeedConflicts);
  chargeEffort(C.Stats, Attempt, PbLane, SeedNodes, SeedConflicts);

  const bool IlpDecided = conclusive(IlpLane.Attempt);
  const bool PbDecided = conclusive(PbLane.Attempt);
  if (IlpDecided && PbDecided) {
    // Two independent exact answers must agree; a mismatch is an engine
    // bug, never a result.
    const bool Agree =
        IlpLane.Schedule.has_value() == PbLane.Schedule.has_value() &&
        (!IlpLane.Schedule ||
         std::llround(IlpLane.Stats.SecondaryObjective) ==
             std::llround(PbLane.Stats.SecondaryObjective));
    if (!Agree) {
      std::fprintf(stderr,
                   "fatal: raced engines disagree at II=%d: "
                   "ilp={scheduled=%d obj=%g} pb={scheduled=%d obj=%g}\n",
                   C.II, IlpLane.Schedule ? 1 : 0,
                   IlpLane.Stats.SecondaryObjective, PbLane.Schedule ? 1 : 0,
                   PbLane.Stats.SecondaryObjective);
      std::abort();
    }
  }
  if (!IlpDecided && !PbDecided) {
    // Neither engine decided the II: the caller cancelled the race, or
    // both were censored by their budgets.
    Attempt.Engine = "ilp+pb";
    if (Parent.cancelled()) {
      Attempt.Status = MipStatus::Cancelled;
      Attempt.Cancelled = true;
      return std::nullopt;
    }
    Attempt.Status = MipStatus::Limit;
    for (Lane *L : {&IlpLane, &PbLane}) {
      C.Stats.TimedOut |= L->Stats.TimedOut;
      C.Stats.NodeLimitHit |= L->Stats.NodeLimitHit;
    }
    Attempt.Audit = std::move(IlpLane.Attempt.Audit); // Censored incumbent.
    return std::nullopt;
  }

  Lane &W = IlpDecided ? IlpLane : PbLane;
  Attempt.Engine = W.E.name();
  Attempt.Status = W.Attempt.Status;
  Attempt.Scheduled = W.Attempt.Scheduled;
  Attempt.WindowInfeasible = W.Attempt.WindowInfeasible;
  Attempt.Variables = W.Attempt.Variables;
  Attempt.Constraints = W.Attempt.Constraints;
  Attempt.Explain = std::move(W.Attempt.Explain);
  Attempt.Audit = std::move(W.Attempt.Audit);
  if (W.Schedule) {
    C.Stats.Variables = W.Stats.Variables;
    C.Stats.Constraints = W.Stats.Constraints;
    C.Stats.SecondaryObjective = W.Stats.SecondaryObjective;
  }
  return std::move(W.Schedule);
}

//===- lp/Simplex.cpp - Bounded-variable primal/dual simplex --------------===//
//
// The SimplexSolver front end: bound sanity, the warm-start attempt with
// its cold fallback, telemetry, certificate and basis export. The pivots
// themselves run in the sparse revised simplex engine
// (lp/SparseRevisedSimplex.cpp).
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include "lp/SolveContext.h"
#include "lp/SparseRevisedSimplex.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>

namespace {

// Telemetry: aggregate solver-stack counters (MODSCHED_STATS=1) and the
// simplex phase timer (clock only read when telemetry is enabled).
modsched::telemetry::Counter StatSolves("lp", "simplex.solves",
                                        "LP solves performed");
modsched::telemetry::Counter StatIterations("lp", "simplex.iterations",
                                            "total simplex pivots");
modsched::telemetry::Counter
    StatDegenerate("lp", "simplex.degenerate_pivots",
                   "pivots with ~zero step length");
modsched::telemetry::Counter StatFlips("lp", "simplex.bound_flips",
                                       "entering-variable bound flips");
modsched::telemetry::Counter
    StatRefactor("lp", "simplex.refactorizations",
                 "LU basis refactorizations");
modsched::telemetry::Counter StatInfeasible("lp", "simplex.infeasible",
                                            "LP solves proved infeasible");
modsched::telemetry::Counter
    StatWarmSolves("lp", "warm_solves",
                   "LP solves warm-started from a basis (dual simplex)");
modsched::telemetry::Counter
    StatWarmIterations("lp", "warm_iterations",
                       "simplex pivots inside warm-started solves");
modsched::telemetry::Counter
    StatColdSolves("lp", "cold_solves",
                   "LP solves from scratch (two-phase primal)");
modsched::telemetry::Counter
    StatWarmFallbacks("lp", "warm_fallbacks",
                      "warm-start attempts that fell back to a cold solve");
modsched::telemetry::Counter
    StatBasisRebuilds("lp", "basis_rebuilds",
                      "warm starts that refactorized the requested basis");
modsched::telemetry::PhaseTimer TimeSolve("lp", "simplex.solve",
                                          "wall time in LP solves");

} // namespace

using namespace modsched;
using namespace modsched::lp;

const char *lp::toString(LpStatus Status) {
  switch (Status) {
  case LpStatus::Optimal:
    return "optimal";
  case LpStatus::Infeasible:
    return "infeasible";
  case LpStatus::Unbounded:
    return "unbounded";
  case LpStatus::IterationLimit:
    return "iteration-limit";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// SimplexWorkspace
//===----------------------------------------------------------------------===//

SimplexWorkspace::SimplexWorkspace()
    : Engine(std::make_unique<SparseRevisedSimplex>()) {}
SimplexWorkspace::~SimplexWorkspace() = default;
SimplexWorkspace::SimplexWorkspace(SimplexWorkspace &&) noexcept = default;
SimplexWorkspace &
SimplexWorkspace::operator=(SimplexWorkspace &&) noexcept = default;

//===----------------------------------------------------------------------===//
// SimplexSolver
//===----------------------------------------------------------------------===//

LpResult SimplexSolver::solve(const Model &M) {
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  return solve(M, Lower, Upper);
}

namespace {

/// The solve flow on engine \p E: warm attempt (with cold fallback), the
/// matching run loop, telemetry, certificate and basis export. \p E is
/// \p Ctx's workspace engine when \p Ctx is set, else a one-shot local.
LpResult solveWith(SparseRevisedSimplex &E, const Model &M,
                   const std::vector<double> &Lower,
                   const std::vector<double> &Upper,
                   const SimplexOptions &Opts, SolveContext *Ctx,
                   const Basis *Start) {
  LpResult Result;
  E.setContext(Ctx);
  const bool Persistent = Ctx != nullptr;

  bool Warm = false;
  if (Persistent && Start && !Start->empty()) {
    Warm = E.tryInitWarm(M, Lower, Upper, *Start, Opts);
    if (!Warm)
      ++StatWarmFallbacks;
  }

  LpStatus S;
  if (Warm) {
    if (E.didRebuildBasis())
      ++StatBasisRebuilds;
    S = E.runWarm();
    ++StatWarmSolves;
  } else {
    E.initCold(M, Lower, Upper, Opts);
    S = E.run();
    ++StatColdSolves;
  }

  Result.Iterations = E.iterations();
  Result.DegeneratePivots = E.degeneratePivots();
  Result.BoundFlips = E.boundFlips();
  Result.Refactorizations = E.refactorizations();
  Result.Phase1Iterations = E.phase1Iterations();
  Result.DualIterations = E.dualIterations();
  Result.EtaNonzeros = E.etaNonzeros();
  Result.WarmStarted = Warm;
  Result.Status = S;

  StatIterations += Result.Iterations;
  StatDegenerate += Result.DegeneratePivots;
  StatFlips += Result.BoundFlips;
  StatRefactor += Result.Refactorizations;
  if (Warm)
    StatWarmIterations += Result.Iterations;
  if (S == LpStatus::Infeasible) {
    ++StatInfeasible;
    if (Opts.CollectCertificate) {
      Result.FarkasRows = E.farkasRows();
      std::sort(Result.FarkasRows.begin(), Result.FarkasRows.end());
      Result.FarkasRows.erase(
          std::unique(Result.FarkasRows.begin(), Result.FarkasRows.end()),
          Result.FarkasRows.end());
      Result.Duals = E.farkasRay();
    }
  }

  if (S != LpStatus::Optimal) {
    if (Persistent)
      E.invalidateStamp();
    return Result;
  }
  Result.Values = E.structuralValues();
  Result.Objective = M.evaluateObjective(Result.Values);
  if (Opts.CollectCertificate)
    Result.Duals = E.rowDuals();

  // Export the optimal basis for future warm starts (workspace callers
  // only: the stamp ties it to the persisted engine state).
  if (Persistent) {
    if (E.extractBasis(Result.FinalBasis))
      E.stamp(Result.FinalBasis);
    else
      E.invalidateStamp();
  }
  return Result;
}

} // namespace

LpResult SimplexSolver::solve(const Model &M,
                              const std::vector<double> &Lower,
                              const std::vector<double> &Upper,
                              SolveContext *Ctx, const Basis *Start) {
  assert(static_cast<int>(Lower.size()) == M.numVariables() &&
         static_cast<int>(Upper.size()) == M.numVariables() &&
         "bounds arrays must cover every variable");
  telemetry::TimerScope Time(TimeSolve);
  ++StatSolves;

  // An empty bound interval anywhere makes the node trivially infeasible
  // (the empty box is its own certificate; see lp/Certificate.h).
  for (int Col = 0; Col < M.numVariables(); ++Col)
    if (Lower[Col] > Upper[Col]) {
      ++StatInfeasible;
      return LpResult(); // Status defaults to Infeasible.
    }

  // Context-less calls get a one-shot local engine (and no deadline or
  // cancellation to observe).
  if (Ctx)
    return solveWith(*Ctx->Workspace.Engine, M, Lower, Upper, Opts, Ctx,
                     Start);
  SparseRevisedSimplex Local;
  return solveWith(Local, M, Lower, Upper, Opts, nullptr, Start);
}

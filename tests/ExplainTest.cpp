//===- tests/ExplainTest.cpp - solve forensics tests ----------------------===//
//
// Constraint provenance, Farkas/unsat-core extraction, and graph-level
// infeasibility witnesses. The contract under test: every infeasible II
// attempt below the achieved II carries an Explanation that an
// independent arithmetic checker (sched/Explain.h checkExplanation)
// confirms against the dependence graph and machine model alone — the
// solver's evidence is never trusted as produced.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/OptimalScheduler.h"

#include "ilpsched/PbFormulation.h"
#include "lp/Certificate.h"
#include "lp/Simplex.h"
#include "lp/SolveContext.h"
#include "sched/Explain.h"
#include "sched/Mii.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace modsched;

namespace {

/// Effort budget of every solve here: B&B nodes on the ILP, conflicts
/// on PB. PB decides every kernel's II = MII - 1 attempt within 100
/// conflicts, except the two censors pinned below, so the budget, not a
/// wall clock, decides what these tests check.
constexpr int64_t EffortBudget = 10000;

SchedulerOptions makeExplainOpts(SchedulerBackend Backend) {
  SchedulerOptions Opts;
  Opts.Formulation.Obj = Objective::None;
  Opts.Formulation.DepStyle = DependenceStyle::Structured;
  Opts.Backend = Backend;
  Opts.TimeLimitSeconds = lp::NoDeadline;
  Opts.NodeLimit = EffortBudget;
  Opts.Explain = true;
  return Opts;
}

/// Runs one attempt at \p II and returns its record (the attempt vector
/// holds exactly the one attempt scheduleAtIi published).
IiAttempt attemptAt(const MachineModel &M, const DependenceGraph &G, int II,
                    SchedulerBackend Backend) {
  OptimalModuloScheduler Sched(M, makeExplainOpts(Backend));
  ScheduleResult Stats;
  Sched.scheduleAtIi(G, II, Stats, /*TimeBudget=*/lp::NoDeadline);
  EXPECT_EQ(Stats.Attempts.size(), 1u);
  return Stats.Attempts.empty() ? IiAttempt() : Stats.Attempts.back();
}

} // namespace

//===----------------------------------------------------------------------===//
// Constraint provenance
//===----------------------------------------------------------------------===//

TEST(Provenance, IlpSideTableCoversEveryRow) {
  MachineModel M = MachineModel::cydraLike();
  for (Objective Obj :
       {Objective::None, Objective::MinReg, Objective::MinBuff}) {
    for (const DependenceGraph &G : allKernels(M)) {
      FormulationOptions FOpts;
      FOpts.Obj = Obj;
      Formulation F(G, M, mii(G, M), FOpts);
      if (!F.valid())
        continue;
      const std::vector<RowOrigin> &Origins = F.rowOrigins();
      ASSERT_EQ(Origins.size(), size_t(F.model().numConstraints())) << G.name();
      for (const RowOrigin &O : Origins)
        EXPECT_NE(O.Kind, RowOriginKind::Unknown) << G.name();
    }
  }
}

TEST(Provenance, PbSideTableCoversEveryRow) {
  MachineModel M = MachineModel::cydraLike();
  for (Objective Obj : {Objective::None, Objective::MinReg}) {
    for (const DependenceGraph &G : allKernels(M)) {
      FormulationOptions FOpts;
      FOpts.Obj = Obj;
      if (!PbFormulation::supports(FOpts))
        continue;
      PbFormulation F(G, M, mii(G, M), FOpts);
      if (!F.valid())
        continue;
      ASSERT_EQ(F.rowOrigins().size(), size_t(F.numConstraints()))
          << G.name();
      for (const RowOrigin &O : F.rowOrigins())
        EXPECT_NE(O.Kind, RowOriginKind::Unknown) << G.name();
    }
  }
}

TEST(Provenance, DepEdgeOriginsPointAtRealEdges) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = allKernels(M).front();
  Formulation F(G, M, mii(G, M), FormulationOptions());
  ASSERT_TRUE(F.valid());
  int DepRows = 0;
  for (const RowOrigin &O : F.rowOrigins()) {
    if (O.Kind != RowOriginKind::DepEdge || O.EdgeIndex < 0)
      continue;
    ++DepRows;
    ASSERT_LT(O.EdgeIndex, G.numSchedEdges());
    const SchedEdge &E = G.schedEdges()[size_t(O.EdgeIndex)];
    EXPECT_EQ(O.Src, E.Src);
    EXPECT_EQ(O.Dst, E.Dst);
    EXPECT_EQ(O.Latency, E.Latency);
    EXPECT_EQ(O.Distance, E.Distance);
  }
  EXPECT_GT(DepRows, 0);
}

//===----------------------------------------------------------------------===//
// LP Farkas extraction
//===----------------------------------------------------------------------===//

TEST(Farkas, ReportsSupportRowsAndRay) {
  // x + y >= 4 conflicts with x <= 1, y <= 1 (rows 1 and 2): the
  // certificate must implicate row 0 and at least one of the bounds'
  // rows, and its ray must pass the engine-independent check.
  lp::Model M;
  int X = M.addVariable("x", 0, 10);
  int Y = M.addVariable("y", 0, 10);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, lp::ConstraintSense::GE, 4.0);
  M.addConstraint({{X, 1.0}}, lp::ConstraintSense::LE, 1.0);
  M.addConstraint({{Y, 1.0}}, lp::ConstraintSense::LE, 1.0);
  lp::SimplexOptions Opts;
  Opts.CollectCertificate = true;
  lp::SimplexSolver S(Opts);
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  lp::LpResult R = S.solve(M, Lower, Upper);
  ASSERT_EQ(R.Status, lp::LpStatus::Infeasible);
  ASSERT_FALSE(R.FarkasRows.empty());
  EXPECT_EQ(R.FarkasRows.front(), 0);
  for (int Row : R.FarkasRows) {
    EXPECT_GE(Row, 0);
    EXPECT_LT(Row, M.numConstraints());
  }
  std::optional<std::string> Why =
      lp::checkLpCertificate(M, Lower, Upper, R);
  EXPECT_FALSE(Why.has_value()) << Why.value_or("");
}

TEST(Farkas, OffByDefaultCostsNothing) {
  lp::Model M;
  int X = M.addVariable("x", 0, 10);
  M.addConstraint({{X, 1.0}}, lp::ConstraintSense::GE, 20.0);
  lp::SimplexSolver S;
  lp::LpResult R = S.solve(M);
  ASSERT_EQ(R.Status, lp::LpStatus::Infeasible);
  EXPECT_TRUE(R.FarkasRows.empty());
  EXPECT_TRUE(R.Duals.empty());
}

//===----------------------------------------------------------------------===//
// Witnesses at II = MII - 1: every kernel, both backends
//===----------------------------------------------------------------------===//

namespace {

/// Checks every kernel's II = MII - 1 attempt and collects the names of
/// the kernels the effort budget censored into \p Censored.
void checkKernelsBelowMii(SchedulerBackend Backend,
                          std::set<std::string> &Censored) {
  MachineModel M = MachineModel::cydraLike();
  int Checked = 0;
  for (const DependenceGraph &G : allKernels(M)) {
    int Mii_ = mii(G, M);
    if (Mii_ < 2)
      continue; // II=0 is not a schedulable request.
    IiAttempt A = attemptAt(M, G, Mii_ - 1, Backend);
    if (A.Status == ilp::MipStatus::Limit ||
        A.Status == ilp::MipStatus::Cancelled) {
      Censored.insert(G.name()); // No verdict, no witness owed.
      continue;
    }
    ASSERT_EQ(A.Status, ilp::MipStatus::Infeasible)
        << G.name() << ": II below MII cannot be feasible";
    ASSERT_TRUE(A.Explain.has_value())
        << G.name() << ": infeasible attempt below MII must be explained";
    EXPECT_NE(A.Explain->Kind, WitnessKind::None) << G.name();
    EXPECT_TRUE(A.Explain->Verified)
        << G.name() << ": witness failed the independent checker";
    // Re-run the independent checker ourselves — Verified must not be a
    // cached lie.
    EXPECT_TRUE(checkExplanation(G, M, Mii_ - 1, 20, *A.Explain))
        << G.name();
    ++Checked;
  }
  EXPECT_GT(Checked, 0) << "suite produced no checkable attempts";
}

} // namespace

TEST(Explain, EveryKernelBelowMiiIlp) {
  // The root LP refutes every attempt.
  std::set<std::string> Censored;
  checkKernelsBelowMii(SchedulerBackend::Ilp, Censored);
  EXPECT_EQ(Censored, std::set<std::string>());
}

TEST(Explain, EveryKernelBelowMiiPb) {
  // Clause learning cannot count: both censors are resource-saturation
  // refutations the ILP finds at the root (ROADMAP item 5). A kernel
  // leaving or joining this set is a coverage change, not noise.
  std::set<std::string> Censored;
  checkKernelsBelowMii(SchedulerBackend::Pb, Censored);
  EXPECT_EQ(Censored,
            (std::set<std::string>{"hydro2d-fragment", "livermore7-eos"}));
}

TEST(Explain, DifferentialBackendsAgreeBelowMii) {
  // Differential smoke: at II = MII - 1 both engines must reach the same
  // verdict and both witnesses must check out against the same graph.
  MachineModel M = MachineModel::cydraLike();
  int Compared = 0;
  for (const DependenceGraph &G : allKernels(M)) {
    int Mii_ = mii(G, M);
    if (Mii_ < 2 || Compared >= 6)
      continue;
    IiAttempt Ilp = attemptAt(M, G, Mii_ - 1, SchedulerBackend::Ilp);
    IiAttempt Pb = attemptAt(M, G, Mii_ - 1, SchedulerBackend::Pb);
    if (Ilp.Status != ilp::MipStatus::Infeasible ||
        Pb.Status != ilp::MipStatus::Infeasible)
      continue; // One side censored; nothing to compare.
    ASSERT_TRUE(Ilp.Explain.has_value()) << G.name();
    ASSERT_TRUE(Pb.Explain.has_value()) << G.name();
    EXPECT_TRUE(Ilp.Explain->Verified) << G.name();
    EXPECT_TRUE(Pb.Explain->Verified) << G.name();
    ++Compared;
  }
  EXPECT_GT(Compared, 0);
}

//===----------------------------------------------------------------------===//
// The checker is genuinely independent
//===----------------------------------------------------------------------===//

TEST(Explain, CheckerRejectsTamperedWitnesses) {
  MachineModel M = MachineModel::cydraLike();
  for (const DependenceGraph &G : allKernels(M)) {
    int Mii_ = mii(G, M);
    if (Mii_ < 2)
      continue;
    std::optional<Explanation> E = explainInfeasibleIi(G, M, Mii_ - 1, 20);
    ASSERT_TRUE(E.has_value()) << G.name();
    ASSERT_TRUE(checkExplanation(G, M, Mii_ - 1, 20, *E)) << G.name();
    // A witness of II infeasibility is not one for the achievable II:
    // the arithmetic re-check must fail once II is raised past the
    // bound the witness implies.
    if (E->Kind == WitnessKind::RecurrenceCycle) {
      EXPECT_FALSE(checkExplanation(G, M, E->Cycle.iiBound(), 20, *E))
          << G.name();
      // Corrupting the recorded totals must also be caught.
      Explanation Tampered = *E;
      Tampered.Cycle.TotalLatency += 1;
      EXPECT_FALSE(checkExplanation(G, M, Mii_ - 1, 20, Tampered))
          << G.name();
    } else if (E->Kind == WitnessKind::ResourceSaturation) {
      Explanation Tampered = *E;
      Tampered.ResourceUses += 1; // No longer matches the recount.
      EXPECT_FALSE(checkExplanation(G, M, Mii_ - 1, 20, Tampered))
          << G.name();
    }
    Explanation None;
    EXPECT_FALSE(checkExplanation(G, M, Mii_ - 1, 20, None));
  }
}

TEST(Explain, DescribeRendersEveryWitnessKind) {
  MachineModel M = MachineModel::cydraLike();
  for (const DependenceGraph &G : allKernels(M)) {
    int Mii_ = mii(G, M);
    if (Mii_ < 2)
      continue;
    std::optional<Explanation> E = explainInfeasibleIi(G, M, Mii_ - 1, 20);
    ASSERT_TRUE(E.has_value()) << G.name();
    std::string Text = describeExplanation(G, M, Mii_ - 1, *E);
    EXPECT_FALSE(Text.empty()) << G.name();
  }
}

//===----------------------------------------------------------------------===//
// Zero cost when off; audits when on
//===----------------------------------------------------------------------===//

TEST(Explain, OffMeansNoRecords) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = allKernels(M).front();
  SchedulerOptions Opts = makeExplainOpts(SchedulerBackend::Ilp);
  Opts.Explain = false;
  OptimalModuloScheduler Sched(M, Opts);
  ScheduleResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  for (const IiAttempt &A : R.Attempts) {
    EXPECT_FALSE(A.Explain.has_value());
    EXPECT_FALSE(A.Audit.has_value());
  }
}

TEST(Explain, SolvedAttemptsCarryAudits) {
  MachineModel M = MachineModel::cydraLike();
  for (SchedulerBackend Backend :
       {SchedulerBackend::Ilp, SchedulerBackend::Pb}) {
    DependenceGraph G = allKernels(M).front();
    SchedulerOptions Opts = makeExplainOpts(Backend);
    Opts.Formulation.Obj = Objective::MinReg;
    OptimalModuloScheduler Sched(M, Opts);
    ScheduleResult R = Sched.schedule(G);
    ASSERT_TRUE(R.Found);
    ASSERT_FALSE(R.Attempts.empty());
    const IiAttempt &Last = R.Attempts.back();
    ASSERT_TRUE(Last.Scheduled);
    ASSERT_TRUE(Last.Audit.has_value()) << toString(Backend);
    EXPECT_EQ(Last.Audit->Proof, "optimal");
    EXPECT_NEAR(Last.Audit->FinalObjective, R.SecondaryObjective, 1e-9);
    if (Backend == SchedulerBackend::Ilp && Last.Audit->HasRootBound) {
      EXPECT_LE(Last.Audit->RootBound,
                Last.Audit->FinalObjective + 1e-9);
      EXPECT_GE(Last.Audit->Gap, 0.0);
      EXPECT_FALSE(Last.Audit->Trajectory.empty());
    }
  }
}

TEST(Explain, NoObjAuditsSayFirstSolution) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = allKernels(M).front();
  OptimalModuloScheduler Sched(M, makeExplainOpts(SchedulerBackend::Ilp));
  ScheduleResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  ASSERT_TRUE(R.Attempts.back().Audit.has_value());
  EXPECT_EQ(R.Attempts.back().Audit->Proof, "first_solution");
}

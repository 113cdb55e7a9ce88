//===- tests/AutoBackendTest.cpp - auto backend rule and MinReg race ------===//
//
// SchedulerBackend::Auto is a fixed rule over the formulation options:
// PB for NoObj and MinBuff, a two-engine race for MinReg, ILP for the
// rest. These tests pin the rule through the engine each attempt
// records, and check the race's contract: verdicts equal the ILP's,
// the ledger carries both engines' effort, and the caller's token stops
// both engines. Differentials run under a node budget, never a
// wall-clock one, and assert how many loops they compared.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/OptimalScheduler.h"
#include "lp/SolveContext.h"
#include "sched/Verifier.h"
#include "support/Cancellation.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

using namespace modsched;

namespace {

SchedulerOptions budgetedOpts(SchedulerBackend Backend,
                              const FormulationOptions &F, int64_t Budget) {
  SchedulerOptions Opts;
  Opts.Backend = Backend;
  Opts.Formulation = F;
  Opts.NodeLimit = Budget;
  Opts.TimeLimitSeconds = 1e9; // Censoring comes from the budget alone.
  return Opts;
}

/// Sums of the per-attempt effort fields, which must equal the loop
/// ledger's totals.
void expectLedgerMatchesAttempts(const ScheduleResult &R,
                                 const std::string &Where) {
  int64_t Nodes = 0, Iterations = 0, Conflicts = 0, Propagations = 0;
  for (const IiAttempt &A : R.Attempts) {
    Nodes += A.Nodes;
    Iterations += A.SimplexIterations;
    Conflicts += A.PbConflicts;
    Propagations += A.PbPropagations;
  }
  EXPECT_EQ(Nodes, R.Nodes) << Where;
  EXPECT_EQ(Iterations, R.SimplexIterations) << Where;
  EXPECT_EQ(Conflicts, R.PbConflicts) << Where;
  EXPECT_EQ(Propagations, R.PbPropagations) << Where;
}

} // namespace

TEST(AutoBackend, RulePicksTheEnginePerObjective) {
  struct Case {
    const char *Label;
    Objective Obj;
    ObjectiveStyle Style;
    bool InstanceMapped;
    const char *Engine; ///< nullptr = raced (either engine may commit).
  };
  const Case Cases[] = {
      {"noobj", Objective::None, ObjectiveStyle::Structured, false, "pb"},
      {"minbuff", Objective::MinBuff, ObjectiveStyle::Structured, false,
       "pb"},
      {"minreg", Objective::MinReg, ObjectiveStyle::Structured, false,
       nullptr},
      {"minlife", Objective::MinLife, ObjectiveStyle::Structured, false,
       "ilp"},
      {"minsl", Objective::MinSL, ObjectiveStyle::Structured, false, "ilp"},
      {"minbuff/traditional", Objective::MinBuff,
       ObjectiveStyle::Traditional, false, "ilp"},
      {"minreg/traditional", Objective::MinReg, ObjectiveStyle::Traditional,
       false, "ilp"},
      {"noobj/instance-mapped", Objective::None, ObjectiveStyle::Structured,
       true, "ilp"},
  };
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  for (const Case &C : Cases) {
    FormulationOptions F;
    F.Obj = C.Obj;
    F.ObjStyle = C.Style;
    F.InstanceMapped = C.InstanceMapped;
    ScheduleResult Auto =
        OptimalModuloScheduler(M, budgetedOpts(SchedulerBackend::Auto, F,
                                               20000))
            .schedule(G);
    ScheduleResult Ilp =
        OptimalModuloScheduler(M, budgetedOpts(SchedulerBackend::Ilp, F,
                                               20000))
            .schedule(G);
    ASSERT_TRUE(Auto.Found && Ilp.Found) << C.Label;
    EXPECT_EQ(Auto.II, Ilp.II) << C.Label;
    EXPECT_NEAR(Auto.SecondaryObjective, Ilp.SecondaryObjective, 1e-6)
        << C.Label;
    EXPECT_FALSE(verifySchedule(G, M, Auto.Schedule).has_value()) << C.Label;
    ASSERT_FALSE(Auto.Attempts.empty()) << C.Label;
    for (const IiAttempt &A : Auto.Attempts) {
      if (C.Engine) {
        EXPECT_EQ(A.Engine, C.Engine) << C.Label << " II=" << A.II;
      } else {
        EXPECT_TRUE(A.Engine == "ilp" || A.Engine == "pb")
            << C.Label << " II=" << A.II << " engine=" << A.Engine;
      }
    }
    // A single engine leaves the other's effort counters untouched.
    if (C.Engine && std::string(C.Engine) == "pb") {
      EXPECT_EQ(Auto.Nodes, 0) << C.Label;
      EXPECT_GT(Auto.PbPropagations, 0) << C.Label;
    } else if (C.Engine) {
      EXPECT_EQ(Auto.PbConflicts, 0) << C.Label;
      EXPECT_EQ(Auto.PbPropagations, 0) << C.Label;
    }
    expectLedgerMatchesAttempts(Auto, C.Label);
  }
}

TEST(AutoBackend, MinRegRaceMatchesIlpOnEveryKernel) {
  // Both engines race every MinReg attempt, each with the remaining
  // budget. Every kernel schedules at MII here, so each loop is one
  // attempt, and the race decides exactly the 15 kernels the ILP decides
  // alone in 100 nodes. Which engine commits, and how far the loser got,
  // depends on timing; on the three censored kernels both engines run
  // to their budgets, so at least those show both engines' effort.
  MachineModel M = MachineModel::example3();
  FormulationOptions F;
  F.Obj = Objective::MinReg;
  int Compared = 0, BothEnginesWorked = 0;
  for (const DependenceGraph &G : allKernels(M)) {
    ScheduleResult Ilp =
        OptimalModuloScheduler(M, budgetedOpts(SchedulerBackend::Ilp, F, 100))
            .schedule(G);
    ScheduleResult Race =
        OptimalModuloScheduler(M,
                               budgetedOpts(SchedulerBackend::Auto, F, 100))
            .schedule(G);
    expectLedgerMatchesAttempts(Race, G.name());
    if (Race.Nodes + Race.SimplexIterations > 0 && Race.PbPropagations > 0)
      ++BothEnginesWorked;
    if (Ilp.NodeLimitHit || Race.NodeLimitHit)
      continue;
    ++Compared;
    ASSERT_TRUE(Ilp.Found && Race.Found) << G.name();
    EXPECT_EQ(Ilp.II, Race.II) << G.name();
    EXPECT_NEAR(Ilp.SecondaryObjective, Race.SecondaryObjective, 1e-6)
        << G.name();
    EXPECT_FALSE(verifySchedule(G, M, Race.Schedule).has_value())
        << G.name();
    for (const IiAttempt &A : Race.Attempts)
      EXPECT_TRUE(A.Engine == "ilp" || A.Engine == "pb")
          << G.name() << " II=" << A.II << " engine=" << A.Engine;
  }
  EXPECT_GE(Compared, 15) << "of 18 kernels";
  EXPECT_GE(BothEnginesWorked, 3) << "of 18 kernels";
}

TEST(AutoBackend, CallerTokenStopsBothRacers) {
  // livermore7-eos under MinReg keeps both engines busy for seconds
  // (neither decides it in 2000 nodes or conflicts), so only the
  // caller's token can end this race quickly.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = livermore7(M);
  FormulationOptions F;
  F.Obj = Objective::MinReg;
  CancellationSource Source;
  lp::SolveContext Ctx;
  Ctx.Cancel = Source.token();
  Source.cancel();
  ScheduleResult R =
      OptimalModuloScheduler(M, budgetedOpts(SchedulerBackend::Auto, F,
                                             INT64_MAX))
          .schedule(G, &Ctx);
  EXPECT_FALSE(R.Found);
  EXPECT_FALSE(R.TimedOut);
  EXPECT_FALSE(R.NodeLimitHit);
  ASSERT_EQ(R.Attempts.size(), 1u) << "the ladder stops at a cancelled II";
  const IiAttempt &A = R.Attempts.front();
  EXPECT_TRUE(A.Cancelled);
  EXPECT_EQ(A.Status, ilp::MipStatus::Cancelled);
  EXPECT_EQ(A.Engine, "ilp+pb");
  EXPECT_LT(R.Seconds, 5.0);
}

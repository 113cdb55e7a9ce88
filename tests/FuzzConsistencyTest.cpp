//===- tests/FuzzConsistencyTest.cpp - verifier/simulator agreement --------===//
//
// Mutation fuzzing: start from a valid schedule, randomly perturb start
// times, and require the static verifier and the dynamic pipeline
// simulator to AGREE on validity. The two checkers share no code (one
// folds constraints onto the MRT, the other executes cycles), so
// agreement on thousands of mutants is strong evidence both are right.
//
// A second differential leg fuzzes the two exact BACKENDS against each
// other: on random loops the branch-and-bound ILP and the CDCL
// pseudo-Boolean engine must agree on the feasible-II verdict, the
// achieved II, and the optimal objective value — they share no solver
// code, only the formulation's mathematics.
//
//===----------------------------------------------------------------------===//

#include "heuristic/IterativeModuloScheduler.h"
#include "ilpsched/OptimalScheduler.h"
#include "sched/PipelineSimulator.h"
#include "sched/Verifier.h"
#include "support/Rng.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

using namespace modsched;

namespace {

/// Iterations needed so every steady-state overlap (and thus every MRT
/// conflict) materializes dynamically.
int enoughIterations(const ModuloSchedule &S) {
  return S.numStages() + 24;
}

} // namespace

class FuzzConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzConsistencyTest, VerifierAndSimulatorAgree) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 101 + 41);
  SyntheticOptions Opts;
  Opts.MinOps = 3;
  Opts.MaxOps = 10;
  DependenceGraph G = generateLoop(M, R, Opts);
  IterativeModuloScheduler Ims(M);
  ImsResult H = Ims.schedule(G);
  if (!H.Found)
    GTEST_SKIP();

  // The pristine schedule passes both checkers.
  ASSERT_FALSE(verifySchedule(G, M, H.Schedule).has_value());
  ASSERT_FALSE(simulateSchedule(G, M, H.Schedule,
                                enoughIterations(H.Schedule))
                   .Violation.has_value());

  int MaxTime = H.Schedule.scheduleLength() + 2 * H.Schedule.ii();
  for (int Mutant = 0; Mutant < 40; ++Mutant) {
    ModuloSchedule S = H.Schedule;
    // Perturb 1-2 operations.
    int NumMutations = 1 + (R.nextBool(0.4) ? 1 : 0);
    for (int K = 0; K < NumMutations; ++K) {
      int Op = static_cast<int>(R.nextBelow(G.numOperations()));
      S.times()[Op] = static_cast<int>(R.nextInRange(0, MaxTime));
    }
    bool StaticOk = !verifySchedule(G, M, S).has_value();
    SimulationReport Sim = simulateSchedule(G, M, S, enoughIterations(S));
    bool DynamicOk = !Sim.Violation.has_value();
    EXPECT_EQ(StaticOk, DynamicOk)
        << "static=" << StaticOk << " dynamic="
        << (Sim.Violation ? *Sim.Violation : std::string("ok")) << "\n"
        << G.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzConsistencyTest,
                         ::testing::Range<uint64_t>(0, 25));

//===----------------------------------------------------------------------===//
// PB-vs-ILP backend differential fuzz
//===----------------------------------------------------------------------===//

class BackendDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendDifferentialTest, PbAndIlpAgree) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 131 + 7);
  SyntheticOptions Gen;
  Gen.MinOps = 3;
  Gen.MaxOps = 10;

  // Four loops per seed x 25 seeds = 100 random loops through both
  // exact engines. Loop 0 of each seed additionally runs the MinBuff
  // descent so optimal objective VALUES (not just verdicts) differ-test.
  for (int LoopIdx = 0; LoopIdx < 4; ++LoopIdx) {
    DependenceGraph G = generateLoop(M, R, Gen);
    for (Objective Obj : {Objective::None, Objective::MinBuff}) {
      if (Obj == Objective::MinBuff && LoopIdx != 0)
        continue;
      SchedulerOptions IlpOpts, PbOpts;
      IlpOpts.Backend = SchedulerBackend::Ilp;
      PbOpts.Backend = SchedulerBackend::Pb;
      IlpOpts.Formulation.Obj = PbOpts.Formulation.Obj = Obj;
      IlpOpts.TimeLimitSeconds = PbOpts.TimeLimitSeconds = 20.0;
      ScheduleResult A = OptimalModuloScheduler(M, IlpOpts).schedule(G);
      ScheduleResult B = OptimalModuloScheduler(M, PbOpts).schedule(G);
      if (A.TimedOut || A.NodeLimitHit || B.TimedOut || B.NodeLimitHit)
        continue; // Censored solves prove nothing; skip, don't fail.
      ASSERT_EQ(A.Found, B.Found)
          << toString(Obj) << " loop " << LoopIdx << "\n" << G.toString();
      if (!A.Found)
        continue;
      EXPECT_EQ(A.II, B.II)
          << toString(Obj) << " loop " << LoopIdx << "\n" << G.toString();
      EXPECT_NEAR(A.SecondaryObjective, B.SecondaryObjective, 1e-6)
          << toString(Obj) << " loop " << LoopIdx << "\n" << G.toString();
      // The PB schedule passes both independent checkers.
      EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value())
          << G.toString();
      EXPECT_FALSE(simulateSchedule(G, M, B.Schedule,
                                    enoughIterations(B.Schedule))
                       .Violation.has_value())
          << G.toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendDifferentialTest,
                         ::testing::Range<uint64_t>(0, 25));

//===----------------------------------------------------------------------===//
// Auto-vs-ILP differential fuzz
//===----------------------------------------------------------------------===//

class AutoDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutoDifferentialTest, AutoAndIlpAgree) {
  // The auto backend routes each objective to one engine, or races both
  // on MinReg; its committed verdicts must equal the sequential ILP's
  // whatever the race timing. Two loops per seed x 10 seeds; loop 0
  // additionally runs MinBuff (the PB route) and MinReg (the race).
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 197 + 3);
  SyntheticOptions Gen;
  Gen.MinOps = 3;
  Gen.MaxOps = 10;
  for (int LoopIdx = 0; LoopIdx < 2; ++LoopIdx) {
    DependenceGraph G = generateLoop(M, R, Gen);
    for (Objective Obj :
         {Objective::None, Objective::MinBuff, Objective::MinReg}) {
      if (Obj != Objective::None && LoopIdx != 0)
        continue;
      SchedulerOptions IlpOpts, AutoOpts;
      IlpOpts.Backend = SchedulerBackend::Ilp;
      AutoOpts.Backend = SchedulerBackend::Auto;
      IlpOpts.Formulation.Obj = AutoOpts.Formulation.Obj = Obj;
      // A node budget censors the hard MinReg loops in milliseconds.
      IlpOpts.NodeLimit = AutoOpts.NodeLimit = 50;
      IlpOpts.TimeLimitSeconds = AutoOpts.TimeLimitSeconds = 20.0;
      ScheduleResult A = OptimalModuloScheduler(M, IlpOpts).schedule(G);
      ScheduleResult B = OptimalModuloScheduler(M, AutoOpts).schedule(G);
      if (A.TimedOut || A.NodeLimitHit || B.TimedOut || B.NodeLimitHit)
        continue; // Censored solves prove nothing; skip, don't fail.
      ASSERT_EQ(A.Found, B.Found)
          << toString(Obj) << " loop " << LoopIdx << "\n" << G.toString();
      if (!A.Found)
        continue;
      EXPECT_EQ(A.II, B.II)
          << toString(Obj) << " loop " << LoopIdx << "\n" << G.toString();
      EXPECT_NEAR(A.SecondaryObjective, B.SecondaryObjective, 1e-6)
          << toString(Obj) << " loop " << LoopIdx << "\n" << G.toString();
      // The auto schedule passes both independent checkers.
      EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value())
          << G.toString();
      EXPECT_FALSE(simulateSchedule(G, M, B.Schedule,
                                    enoughIterations(B.Schedule))
                       .Violation.has_value())
          << G.toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutoDifferentialTest,
                         ::testing::Range<uint64_t>(0, 10));

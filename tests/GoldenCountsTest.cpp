//===- tests/GoldenCountsTest.cpp - size and effort regression pins --------===//
//
// Pins the variable/constraint counts of every formulation variant to
// first-principles formulas, so accidental changes to constraint
// emission are caught immediately. Counts are "prior to any
// simplifications", exactly what the paper's Tables 1-2 report.
//
// Also pins the ILP engine's deterministic effort (simplex iterations,
// refactorizations, eta nonzeros, B&B nodes, warm- and cold-started node
// LPs) over a node-budgeted kernel sweep, so a kernel refactor that
// claims to preserve the arithmetic has to prove it, and a search that
// stops warm-starting node LPs from the parent basis fails here.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/Formulation.h"
#include "ilpsched/OptimalScheduler.h"

#include "sched/Mii.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

using namespace modsched;

namespace {

/// Resource types actually modeled: total usage exceeds multiplicity.
int activeResourceTypes(const DependenceGraph &G, const MachineModel &M) {
  std::vector<int> Uses(M.numResources(), 0);
  for (const Operation &Op : G.operations())
    for (const ResourceUsage &U : M.opClass(Op.OpClass).Usages)
      ++Uses[U.Resource];
  int Active = 0;
  for (int R = 0; R < M.numResources(); ++R)
    Active += Uses[R] > M.resource(R).Count;
  return Active;
}

int totalUses(const DependenceGraph &G) {
  int Uses = 0;
  for (const VirtualRegister &R : G.registers())
    Uses += static_cast<int>(R.Uses.size());
  return Uses;
}

struct Sizes {
  int Vars;
  int Cons;
};

Sizes sizesOf(const DependenceGraph &G, const MachineModel &M, int II,
              Objective Obj, DependenceStyle Dep,
              ObjectiveStyle ObjStyle = ObjectiveStyle::Structured) {
  FormulationOptions Opts;
  Opts.Obj = Obj;
  Opts.DepStyle = Dep;
  Opts.ObjStyle = ObjStyle;
  Formulation F(G, M, II, Opts);
  EXPECT_TRUE(F.valid());
  return {F.model().numVariables(), F.model().numConstraints()};
}

} // namespace

class GoldenCounts : public ::testing::TestWithParam<int> {
protected:
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = allKernels(M)[GetParam()];
  int N = G.numOperations();
  int E = G.numSchedEdges();
  int R = G.numRegisters();
  int U = totalUses(G);
  int Q = activeResourceTypes(G, M);
  int II = mii(G, M);
};

TEST_P(GoldenCounts, NoObjStructured) {
  Sizes S = sizesOf(G, M, II, Objective::None, DependenceStyle::Structured);
  EXPECT_EQ(S.Vars, II * N + N);
  EXPECT_EQ(S.Cons, N + E * II + Q * II);
}

TEST_P(GoldenCounts, NoObjTraditional) {
  Sizes S =
      sizesOf(G, M, II, Objective::None, DependenceStyle::Traditional);
  EXPECT_EQ(S.Vars, II * N + N);
  EXPECT_EQ(S.Cons, N + E + Q * II);
}

TEST_P(GoldenCounts, MinRegStructured) {
  // Adds per register: II kill-row binaries + 1 kill stage + 1 kill
  // assignment + (1 def-edge + uses) * II kill dependence rows; plus the
  // MaxLive variable and II MaxLive rows.
  Sizes Base =
      sizesOf(G, M, II, Objective::None, DependenceStyle::Structured);
  Sizes S = sizesOf(G, M, II, Objective::MinReg,
                    DependenceStyle::Structured);
  EXPECT_EQ(S.Vars, Base.Vars + R * (II + 1) + 1);
  EXPECT_EQ(S.Cons, Base.Cons + R + (R + U) * II + II);
}

TEST_P(GoldenCounts, MinRegTraditional) {
  // Same objective machinery, but kill dependences are single rows.
  Sizes Base =
      sizesOf(G, M, II, Objective::None, DependenceStyle::Traditional);
  Sizes S = sizesOf(G, M, II, Objective::MinReg,
                    DependenceStyle::Traditional);
  EXPECT_EQ(S.Vars, Base.Vars + R * (II + 1) + 1);
  EXPECT_EQ(S.Cons, Base.Cons + R + (R + U) + II);
}

TEST_P(GoldenCounts, MinBuffStructured) {
  // One buffer variable per register; II rows per use; no kill ops.
  Sizes Base =
      sizesOf(G, M, II, Objective::None, DependenceStyle::Structured);
  Sizes S = sizesOf(G, M, II, Objective::MinBuff,
                    DependenceStyle::Structured);
  EXPECT_EQ(S.Vars, Base.Vars + R);
  EXPECT_EQ(S.Cons, Base.Cons + U * II);
}

TEST_P(GoldenCounts, MinBuffTraditional) {
  Sizes Base =
      sizesOf(G, M, II, Objective::None, DependenceStyle::Structured);
  Sizes S =
      sizesOf(G, M, II, Objective::MinBuff, DependenceStyle::Structured,
              ObjectiveStyle::Traditional);
  EXPECT_EQ(S.Vars, Base.Vars + R);
  EXPECT_EQ(S.Cons, Base.Cons + U); // One row per use.
}

TEST_P(GoldenCounts, MinLifeStructured) {
  // Kill machinery, no auxiliary variables (objective-only encoding).
  Sizes Base =
      sizesOf(G, M, II, Objective::None, DependenceStyle::Structured);
  Sizes S = sizesOf(G, M, II, Objective::MinLife,
                    DependenceStyle::Structured);
  EXPECT_EQ(S.Vars, Base.Vars + R * (II + 1));
  EXPECT_EQ(S.Cons, Base.Cons + R + (R + U) * II);
}

TEST_P(GoldenCounts, MinLifeTraditional) {
  // Kill machinery + one lifetime variable and defining row per register.
  Sizes Base =
      sizesOf(G, M, II, Objective::None, DependenceStyle::Structured);
  Sizes S =
      sizesOf(G, M, II, Objective::MinLife, DependenceStyle::Structured,
              ObjectiveStyle::Traditional);
  EXPECT_EQ(S.Vars, Base.Vars + R * (II + 1) + R);
  EXPECT_EQ(S.Cons, Base.Cons + R + (R + U) * II + R);
}

TEST_P(GoldenCounts, MinSl) {
  // Sink: II row binaries + 1 stage + 1 assignment + N * II dependences.
  Sizes Base =
      sizesOf(G, M, II, Objective::None, DependenceStyle::Structured);
  Sizes S = sizesOf(G, M, II, Objective::MinSL,
                    DependenceStyle::Structured);
  EXPECT_EQ(S.Vars, Base.Vars + II + 1);
  EXPECT_EQ(S.Cons, Base.Cons + 1 + N * II);
}

// Kernels 0..9 cover the original library (small to medium sizes).
INSTANTIATE_TEST_SUITE_P(Kernels, GoldenCounts, ::testing::Range(0, 10));

namespace {

/// Effort and verdicts summed over the 18 kernels on example3.
struct SweepTotals {
  int64_t Iterations = 0;
  int64_t Refactorizations = 0;
  int64_t EtaNonzeros = 0;
  int64_t Nodes = 0;
  int64_t WarmLpSolves = 0;
  int64_t ColdLpSolves = 0;
  int Found = 0;
  int NodeLimitHits = 0;
  int IiSum = 0;
  double ObjectiveSum = 0.0;
};

SweepTotals ilpSweep(Objective Obj) {
  MachineModel M = MachineModel::example3();
  SchedulerOptions Opts;
  Opts.Formulation.Obj = Obj;
  Opts.Formulation.DepStyle = DependenceStyle::Structured;
  Opts.Backend = SchedulerBackend::Ilp;
  Opts.NodeLimit = 300;
  Opts.TimeLimitSeconds = 1e9; // Censored by nodes only.
  Opts.Explain = false;
  Opts.Cache = false;
  OptimalModuloScheduler Sched(M, Opts);
  SweepTotals T;
  for (const DependenceGraph &G : allKernels(M)) {
    ScheduleResult R = Sched.schedule(G);
    EXPECT_FALSE(R.TimedOut) << G.name();
    T.Iterations += R.SimplexIterations;
    T.Refactorizations += R.LpRefactorizations;
    T.EtaNonzeros += R.LpEtaNonzeros;
    T.Nodes += R.Nodes;
    T.WarmLpSolves += R.WarmLpSolves;
    T.ColdLpSolves += R.ColdLpSolves;
    T.Found += R.Found;
    T.NodeLimitHits += R.NodeLimitHit;
    if (R.Found) {
      T.IiSum += R.II;
      T.ObjectiveSum += R.SecondaryObjective;
    }
  }
  return T;
}

} // namespace

// Counter-exact gates: every pivot, refactorization and branching
// decision of the LP/B&B stack is deterministic, so these sums are
// bit-for-bit reproducible. A change to the LP kernels that keeps every
// floating-point operation and its order (e.g. a faster triangular
// solve) must leave them untouched. The pins may change only in a
// change that means to alter the search and says so in CHANGES.md.
TEST(EffortPins, IlpNoObjKernelSweep) {
  SweepTotals T = ilpSweep(Objective::None);
  EXPECT_EQ(T.Found, 18);
  EXPECT_EQ(T.NodeLimitHits, 0);
  EXPECT_EQ(T.IiSum, 69);
  EXPECT_EQ(T.Iterations, 1072);
  EXPECT_EQ(T.Refactorizations, 30);
  EXPECT_EQ(T.EtaNonzeros, 59605);
  EXPECT_EQ(T.Nodes, 45);
  EXPECT_EQ(T.WarmLpSolves, 45);
  EXPECT_EQ(T.ColdLpSolves, 18);
}

TEST(EffortPins, IlpMinBuffKernelSweep) {
  SweepTotals T = ilpSweep(Objective::MinBuff);
  EXPECT_EQ(T.Found, 18);
  EXPECT_EQ(T.NodeLimitHits, 0);
  EXPECT_EQ(T.IiSum, 69);
  EXPECT_DOUBLE_EQ(T.ObjectiveSum, 158.0);
  EXPECT_EQ(T.Iterations, 2108);
  EXPECT_EQ(T.Refactorizations, 112);
  EXPECT_EQ(T.EtaNonzeros, 224174);
  EXPECT_EQ(T.Nodes, 138);
  EXPECT_EQ(T.WarmLpSolves, 138);
  EXPECT_EQ(T.ColdLpSolves, 18);
}

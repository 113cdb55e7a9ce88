//===- bench/micro_solver.cpp - Solver microbenchmarks + ablations --------===//
//
// google-benchmark timings of the solver stack on representative
// formulations, plus the ablations called out in DESIGN.md:
//  * structured vs traditional vs structured-without-tightening (Ineq. 19)
//  * branch-rule variants
//  * integral-objective bound rounding on/off
//  * ASAP/ALAP stage-bound tightening on/off
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ilp/BranchAndBound.h"
#include "sched/Mii.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <benchmark/benchmark.h>

#include <algorithm>

using namespace modsched;
using namespace modsched::ilp;

namespace {

/// Representative solve outcomes collected as the benchmarks run, then
/// written to bench_results/BENCH_micro_solver.json by main(). Each
/// benchmark records its LAST solve (google-benchmark re-enters the
/// function while calibrating, so records are deduplicated by name).
std::vector<bench::LoopRecord> &solveRecords() {
  static std::vector<bench::LoopRecord> Records;
  return Records;
}

void upsertRecord(bench::LoopRecord Rec) {
  for (bench::LoopRecord &E : solveRecords())
    if (E.Name == Rec.Name) {
      E = std::move(Rec);
      return;
    }
  solveRecords().push_back(std::move(Rec));
}

void recordSolve(std::string Name, const DependenceGraph &G,
                 const MipResult &R) {
  bench::LoopRecord Rec;
  Rec.Name = std::move(Name);
  Rec.NumOps = G.numOperations();
  Rec.Solved = R.HasSolution;
  Rec.TimedOut = R.Status == MipStatus::Limit;
  Rec.Nodes = R.Nodes;
  Rec.SimplexIterations = R.SimplexIterations;
  Rec.WarmLpSolves = R.WarmLpSolves;
  Rec.ColdLpSolves = R.ColdLpSolves;
  Rec.WarmLpIterations = R.WarmLpIterations;
  Rec.LpRefactorizations = R.LpRefactorizations;
  Rec.LpEtaNonzeros = R.LpEtaNonzeros;
  Rec.Seconds = R.Seconds;
  Rec.Secondary = R.Objective;
  upsertRecord(std::move(Rec));
}

/// A medium-size fixed loop for the ablations (deterministic seed).
DependenceGraph benchLoop(const MachineModel &M) {
  Rng R(424242);
  SyntheticOptions Opts;
  Opts.MinOps = 12;
  Opts.MaxOps = 12;
  return generateLoop(M, R, Opts);
}

MipResult solveLoop(const MachineModel &M, const DependenceGraph &G,
                    Objective Obj, DependenceStyle Dep,
                    MipOptions MipOpts = {}, bool Tighten = true) {
  FormulationOptions FOpts;
  FOpts.Obj = Obj;
  FOpts.DepStyle = Dep;
  FOpts.TightenStageBounds = Tighten;
  // The traditional formulation may not prove optimality in reasonable
  // time (that is the paper's point); budget each solve and accept the
  // incumbent, so the benchmark measures time-to-solution under a cap.
  if (MipOpts.TimeLimitSeconds > 1e29)
    MipOpts.TimeLimitSeconds = 20.0;
  int Mii = mii(G, M);
  MipResult Last;
  for (int II = Mii; II <= Mii + 64; ++II) {
    Formulation F(G, M, II, FOpts);
    if (!F.valid())
      continue;
    Last = MipSolver(MipOpts).solve(F.model());
    if (Last.HasSolution)
      return Last;
  }
  return Last;
}

void BM_LpSimplexExample1(benchmark::State &State) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  FormulationOptions Opts;
  Opts.Obj = Objective::MinReg;
  Formulation F(G, M, 2, Opts);
  lp::SimplexSolver Solver;
  lp::LpResult Last;
  for (auto _ : State) {
    Last = Solver.solve(F.model());
    benchmark::DoNotOptimize(Last.Objective);
  }
  bench::LoopRecord Rec;
  Rec.Name = "BM_LpSimplexExample1";
  Rec.NumOps = G.numOperations();
  Rec.Solved = Last.Status == lp::LpStatus::Optimal;
  Rec.SimplexIterations = Last.Iterations;
  Rec.Secondary = Last.Objective;
  upsertRecord(std::move(Rec));
}
BENCHMARK(BM_LpSimplexExample1);

void BM_MipStructured(benchmark::State &State) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  MipResult Last;
  for (auto _ : State) {
    Last = solveLoop(M, G, Objective::MinReg, DependenceStyle::Structured);
    benchmark::DoNotOptimize(Last.Objective);
  }
  State.counters["bb_nodes"] = static_cast<double>(Last.Nodes);
  recordSolve("BM_MipStructured", G, Last);
}
BENCHMARK(BM_MipStructured)->Unit(benchmark::kMillisecond);

void BM_MipStructuredLoose(benchmark::State &State) {
  // Ablation: Ineq. (19) without the Chaudhuri tightening.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  MipResult Last;
  for (auto _ : State) {
    Last = solveLoop(M, G, Objective::MinReg,
                     DependenceStyle::StructuredLoose);
    benchmark::DoNotOptimize(Last.Objective);
  }
  State.counters["bb_nodes"] = static_cast<double>(Last.Nodes);
  recordSolve("BM_MipStructuredLoose", G, Last);
}
BENCHMARK(BM_MipStructuredLoose)->Unit(benchmark::kMillisecond);

void BM_MipTraditional(benchmark::State &State) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  MipResult Last;
  for (auto _ : State) {
    Last = solveLoop(M, G, Objective::MinReg, DependenceStyle::Traditional);
    benchmark::DoNotOptimize(Last.Objective);
  }
  State.counters["bb_nodes"] = static_cast<double>(Last.Nodes);
  recordSolve("BM_MipTraditional", G, Last);
}
BENCHMARK(BM_MipTraditional)->Unit(benchmark::kMillisecond);

void BM_BranchRule(benchmark::State &State) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  MipOptions Opts;
  Opts.Branching = static_cast<BranchRule>(State.range(0));
  MipResult Last;
  for (auto _ : State) {
    Last = solveLoop(M, G, Objective::MinReg, DependenceStyle::Structured,
                     Opts);
    benchmark::DoNotOptimize(Last.Objective);
  }
  State.counters["bb_nodes"] = static_cast<double>(Last.Nodes);
  recordSolve("BM_BranchRule/" + std::to_string(State.range(0)), G, Last);
}
BENCHMARK(BM_BranchRule)
    ->Arg(0) // MostFractional
    ->Arg(1) // FirstFractional
    ->Arg(2) // LastFractional
    ->Unit(benchmark::kMillisecond);

void BM_IntegralObjectiveRounding(benchmark::State &State) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  MipOptions Opts;
  Opts.IntegralObjective = State.range(0) != 0;
  MipResult Last;
  for (auto _ : State) {
    Last = solveLoop(M, G, Objective::MinReg, DependenceStyle::Structured,
                     Opts);
    benchmark::DoNotOptimize(Last.Objective);
  }
  recordSolve("BM_IntegralObjectiveRounding/" +
                  std::to_string(State.range(0)),
              G, Last);
}
BENCHMARK(BM_IntegralObjectiveRounding)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_StageBoundTightening(benchmark::State &State) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  MipResult Last;
  for (auto _ : State) {
    Last = solveLoop(M, G, Objective::MinReg, DependenceStyle::Structured,
                     {}, /*Tighten=*/State.range(0) != 0);
    benchmark::DoNotOptimize(Last.Objective);
  }
  recordSolve("BM_StageBoundTightening/" + std::to_string(State.range(0)),
              G, Last);
}
BENCHMARK(BM_StageBoundTightening)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_NodePresolve(benchmark::State &State) {
  // Ablation: bound propagation at every branch-and-bound node.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  MipOptions Opts;
  Opts.NodePresolve = State.range(0) != 0;
  MipResult Last;
  for (auto _ : State) {
    Last = solveLoop(M, G, Objective::MinReg, DependenceStyle::Structured,
                     Opts);
    benchmark::DoNotOptimize(Last.Objective);
  }
  State.counters["bb_nodes"] = static_cast<double>(Last.Nodes);
  recordSolve("BM_NodePresolve/" + std::to_string(State.range(0)), G, Last);
}
BENCHMARK(BM_NodePresolve)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_InstanceMapping(benchmark::State &State) {
  // Counting (Ineq. 5) vs instance-mapped ([5]) resource constraints.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  FormulationOptions FOpts;
  FOpts.Obj = Objective::None;
  FOpts.InstanceMapped = State.range(0) != 0;
  int II = mii(G, M);
  MipResult Last;
  int AchievedIi = 0;
  for (auto _ : State) {
    for (int Try = II;; ++Try) {
      Formulation F(G, M, Try, FOpts);
      if (!F.valid())
        continue;
      MipOptions Opts;
      Opts.StopAtFirstSolution = true;
      MipResult R = MipSolver(Opts).solve(F.model());
      if (R.HasSolution) {
        benchmark::DoNotOptimize(R.Objective);
        State.counters["achieved_ii"] = Try;
        Last = std::move(R);
        AchievedIi = Try;
        break;
      }
    }
  }
  bench::LoopRecord Rec;
  Rec.Name = "BM_InstanceMapping/" + std::to_string(State.range(0));
  Rec.NumOps = G.numOperations();
  Rec.Solved = Last.HasSolution;
  Rec.Nodes = Last.Nodes;
  Rec.SimplexIterations = Last.SimplexIterations;
  Rec.Seconds = Last.Seconds;
  Rec.II = AchievedIi;
  Rec.Mii = II;
  upsertRecord(std::move(Rec));
}
BENCHMARK(BM_InstanceMapping)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

// Custom main (instead of BENCHMARK_MAIN) so the collected solve
// records land in bench_results/ like every other experiment binary.
int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Microbenchmarks use a fixed 12-op loop and a 20 s solve cap (see
  // solveLoop); record that effective configuration.
  bench::BenchConfig Config;
  Config.SyntheticLoops = 1;
  Config.TimeLimitSeconds = 20.0;
  bench::BenchJson Json("micro_solver");
  Json.setConfig(Config);

  Json.addRecordSet("last_solves", solveRecords());
  Json.write();
  return 0;
}

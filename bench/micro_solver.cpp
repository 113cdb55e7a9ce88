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

void BM_MipWarmStart(benchmark::State &State) {
  // A/B ablation of the warm-started dual simplex: identical search with
  // node LPs either warm-started from the parent basis (Arg 1) or solved
  // cold by the two-phase primal (Arg 0). The persistent workspace is
  // active in both arms, so the delta isolates basis reuse. Results land
  // in BENCH_micro_solver.json as BM_MipWarmStart/{0,1} records with the
  // warm_solves / cold_solves / warm_iterations fields.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  MipOptions Opts;
  Opts.WarmStart = State.range(0) != 0;
  MipResult Last;
  for (auto _ : State) {
    Last = solveLoop(M, G, Objective::MinReg, DependenceStyle::Structured,
                     Opts);
    benchmark::DoNotOptimize(Last.Objective);
  }
  State.counters["bb_nodes"] = static_cast<double>(Last.Nodes);
  State.counters["simplex_iters"] =
      static_cast<double>(Last.SimplexIterations);
  State.counters["warm_lps"] = static_cast<double>(Last.WarmLpSolves);
  recordSolve("BM_MipWarmStart/" + std::to_string(State.range(0)), G, Last);
}
BENCHMARK(BM_MipWarmStart)
    ->Arg(0) // cold two-phase primal at every node
    ->Arg(1) // warm dual simplex from the parent basis
    ->Unit(benchmark::kMillisecond);

void BM_PbVsIlp(benchmark::State &State) {
  // A/B smoke of the exact backends: the full II search on the fixed
  // 12-op loop solved by LP-based branch-and-bound (Arg 0) or by the
  // CDCL pseudo-Boolean engine (Arg 1), identical formulation options.
  // Results land in BENCH_micro_solver.json as BM_PbVsIlp/{0,1} records;
  // the PB arm reports pb_conflicts / pb_propagations and zero nodes,
  // the ILP arm the reverse. The arms must agree on II and the MinBuff
  // objective — the cheap always-on companion of tests/PbBackendTest.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = benchLoop(M);
  SchedulerOptions Opts;
  Opts.Formulation.Obj = Objective::MinBuff;
  Opts.TimeLimitSeconds = 20.0;
  Opts.Backend = State.range(0) != 0 ? SchedulerBackend::Pb
                                     : SchedulerBackend::Ilp;
  OptimalModuloScheduler Scheduler(M, Opts);
  ScheduleResult Last;
  for (auto _ : State) {
    Last = Scheduler.schedule(G);
    benchmark::DoNotOptimize(Last.II);
  }
  State.counters["ii"] = Last.II;
  State.counters["bb_nodes"] = static_cast<double>(Last.Nodes);
  State.counters["pb_conflicts"] = static_cast<double>(Last.PbConflicts);
  bench::LoopRecord Rec = bench::LoopRecord::fromResult(G, Last);
  Rec.Name = "BM_PbVsIlp/" + std::to_string(State.range(0));
  upsertRecord(std::move(Rec));
}
BENCHMARK(BM_PbVsIlp)
    ->Arg(0) // ILP branch-and-bound backend
    ->Arg(1) // CDCL pseudo-Boolean backend
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

  // Headline warm-vs-cold metrics from the BM_MipWarmStart A/B arms.
  const bench::LoopRecord *Cold = nullptr, *Warm = nullptr;
  for (const bench::LoopRecord &R : solveRecords()) {
    if (R.Name == "BM_MipWarmStart/0")
      Cold = &R;
    if (R.Name == "BM_MipWarmStart/1")
      Warm = &R;
  }
  if (Cold && Warm) {
    if (Warm->SimplexIterations > 0)
      Json.addMetric("warm_start_iteration_speedup",
                     static_cast<double>(Cold->SimplexIterations) /
                         static_cast<double>(Warm->SimplexIterations));
    if (Warm->Seconds > 0)
      Json.addMetric("warm_start_time_speedup",
                     Cold->Seconds / Warm->Seconds);
    int64_t WarmLps = Warm->WarmLpSolves + Warm->ColdLpSolves;
    if (WarmLps > 0)
      Json.addMetric("warm_start_lp_fraction",
                     static_cast<double>(Warm->WarmLpSolves) /
                         static_cast<double>(WarmLps));
  }

  // Headline PB-vs-ILP metrics from the BM_PbVsIlp A/B arms. The
  // agreement metric is 1.0 iff both backends solved and returned the
  // same II and MinBuff objective (the smoke counterpart of the test
  // suite's differential).
  const bench::LoopRecord *Ilp = nullptr, *Pb = nullptr;
  for (const bench::LoopRecord &R : solveRecords()) {
    if (R.Name == "BM_PbVsIlp/0")
      Ilp = &R;
    if (R.Name == "BM_PbVsIlp/1")
      Pb = &R;
  }
  if (Ilp && Pb) {
    Json.addMetric("pb_vs_ilp_agree",
                   Ilp->Solved && Pb->Solved && Ilp->II == Pb->II &&
                           Ilp->Secondary == Pb->Secondary
                       ? 1.0
                       : 0.0);
    if (Pb->Seconds > 0)
      Json.addMetric("pb_vs_ilp_time_ratio", Ilp->Seconds / Pb->Seconds);
  }

  Json.addRecordSet("last_solves", solveRecords());
  Json.write();
  return 0;
}

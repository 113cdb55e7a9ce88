//===- bench/fig2_bb_nodes.cpp - Reproduces Figure 2 ----------------------===//
//
// Paper Figure 2: average number of branch-and-bound nodes visited by the
// solver for the four schedulers (NoObj, MinBuff, MinLife, MinReg), with
// the traditional and the structured formulation of the dependence
// constraints, over the loops solved by every configuration.
//
// Expected shape: the structured formulation reduces the average node
// count by one to two orders of magnitude for every scheduler.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Statistics.h"

#include <cstdio>

using namespace modsched;
using namespace modsched::bench;

int main() {
  BenchConfig Config = BenchConfig::fromEnv();
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Suite = benchSuite(M, Config);
  std::printf("Figure 2: average branch-and-bound nodes "
              "(suite: %zu loops, %.1fs/loop budget, backend=%s)\n\n",
              Suite.size(), Config.TimeLimitSeconds,
              toString(Config.Backend));

  const Objective Objs[] = {Objective::None, Objective::MinBuff,
                            Objective::MinLife, Objective::MinReg};
  const DependenceStyle Styles[] = {DependenceStyle::Traditional,
                                    DependenceStyle::Structured};

  BenchJson Json("fig2_bb_nodes");
  Json.setConfig(Config);

  // Run all eight configurations.
  std::vector<std::vector<LoopRecord>> All;
  for (Objective Obj : Objs)
    for (DependenceStyle Dep : Styles) {
      std::fprintf(stderr, "running %s/%s...\n", toString(Obj),
                   toString(Dep));
      All.push_back(runOptimal(M, Suite, Obj, Dep, Config));
      printEngineTally(std::string(toString(Obj)) + "/" +
                                toString(Dep),
                            All.back());
      Json.addRecordSet(std::string(toString(Obj)) + "/" + toString(Dep),
                        All.back());
    }

  // Figure 2 averages over the loops solved by EVERY configuration
  // (the paper's 653-loop common subset).
  std::vector<int> Common = commonlySolved(All);
  std::printf("loops solved by all 8 configurations: %zu\n\n",
              Common.size());
  Json.addMetric("commonly_solved", Common.size());

  std::printf("%-10s %22s %22s %8s\n", "scheduler", "traditional nodes",
              "structured nodes", "ratio");
  for (size_t O = 0; O < 4; ++O) {
    SummaryStats Trad, Struct;
    for (int Loop : Common) {
      Trad.add(static_cast<double>(All[O * 2 + 0][Loop].Nodes));
      Struct.add(static_cast<double>(All[O * 2 + 1][Loop].Nodes));
    }
    double Ratio = Struct.average() > 0
                       ? Trad.average() / Struct.average()
                       : (Trad.average() > 0 ? 1e9 : 1.0);
    std::printf("%-10s %22.2f %22.2f %7.1fx\n", toString(Objs[O]),
                Trad.average(), Struct.average(), Ratio);
    Json.addMetric(std::string("node_ratio_") + toString(Objs[O]), Ratio);
  }
  std::printf("\n(paper: MinReg 124.5x, MinLife 167.4x node reduction; "
              "absolute values differ with the solver/suite)\n");
  Json.write();
  return 0;
}

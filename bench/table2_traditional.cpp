//===- bench/table2_traditional.cpp - Reproduces Table 2 ------------------===//
//
// Paper Table 2: "Measurements with traditional scheduling constraints" —
// the same statistics as Table 1 but with the traditional (Ineq. 4)
// dependence constraints. Expected shape versus Table 1: fewer loops
// solved, far more branch-and-bound nodes, fewer-but-denser constraints.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>

using namespace modsched;
using namespace modsched::bench;

int main() {
  BenchConfig Config = BenchConfig::fromEnv();
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Suite = benchSuite(M, Config);
  std::printf("Table 2: measurements with TRADITIONAL scheduling "
              "constraints (suite: %zu loops, %.1fs/loop, backend=%s)\n\n",
              Suite.size(), Config.TimeLimitSeconds,
              toString(Config.Backend));

  BenchJson Json("table2_traditional");
  Json.setConfig(Config);

  const Objective Objs[] = {Objective::None, Objective::MinBuff,
                            Objective::MinLife, Objective::MinReg};
  const char *Names[] = {"NoObj Modulo-Sched", "MinBuff Modulo-Sched",
                         "MinLife Modulo-Sched", "MinReg Modulo-Sched"};
  for (int O = 0; O < 4; ++O) {
    std::fprintf(stderr, "running %s...\n", Names[O]);
    std::vector<LoopRecord> Records =
        runOptimal(M, Suite, Objs[O], DependenceStyle::Traditional, Config);
    printPaperTableBlock(Names[O], Records);
    printEngineTally(Names[O], Records);
    Json.addMetric(std::string("solved_") + toString(Objs[O]),
                   countSolved(Records));
    Json.addRecordSet(Names[O], std::move(Records));
  }
  Json.write();
  return 0;
}

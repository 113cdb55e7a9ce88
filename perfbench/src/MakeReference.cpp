//===- perfbench/src/MakeReference.cpp - Offline verdict reference --------===//
//
// Computes the committed known answers (perfbench/reference/loops.tsv) for
// every loop the workloads can draw, each with the exact engine the
// workload does NOT use and a budget far above the workload's:
//
//   NoObj minimum II (checks sweep-ilp, which runs the ILP engine):
//     the PB engine with 1,000,000 conflicts.
//   MinBuff II and objective (checks sweep-pb and service-mix, which run
//     the PB engine): the ILP engine with 100,000 nodes and
//     --ilp-seconds per loop. Loops the ILP cannot settle in that time
//     fall back to the PB engine with 200,000 conflicts and are tagged
//     "pb" in the file. The PB-engine workloads leave those loops out, so
//     no verdict is checked against the engine that produced it.
//
// Usage: perfbench_reference <out.tsv> [--threads N] [--ilp-seconds S]
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ilpsched/OptimalScheduler.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

using namespace modsched;
using namespace perfbench;

namespace {

struct Row {
  std::string Name;
  int Ops = 0;
  bool NeedMinBuff = false;
  RefEntry E;
};

ScheduleResult solve(const MachineModel &M, const DependenceGraph &G,
                     Objective Obj, SchedulerBackend Backend, int64_t Budget,
                     double Seconds) {
  SchedulerOptions O;
  O.Formulation.Obj = Obj;
  O.Backend = Backend;
  O.NodeLimit = Budget;
  O.TimeLimitSeconds = Seconds;
  O.Cache = false;
  O.Explain = false;
  return OptimalModuloScheduler(M, O).schedule(G);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: %s <out.tsv> [--threads N] "
                         "[--ilp-seconds S]\n",
                 Argv[0]);
    return 2;
  }
  int Threads = 1;
  double IlpSeconds = 4.0;
  for (int I = 2; I + 1 < Argc; I += 2) {
    if (!std::strcmp(Argv[I], "--threads"))
      Threads = std::max(1, std::atoi(Argv[I + 1]));
    else if (!std::strcmp(Argv[I], "--ilp-seconds"))
      IlpSeconds = std::atof(Argv[I + 1]);
  }

  MachineModel M = benchMachine();
  std::vector<DependenceGraph> Loops;
  std::vector<bool> NeedMinBuff;
  std::set<uint64_t> Seen;
  auto AddAll = [&](std::vector<DependenceGraph> Set, bool MinBuff) {
    for (DependenceGraph &G : Set) {
      uint64_t D = loopDigest(G);
      if (!Seen.insert(D).second) {
        if (MinBuff)
          for (size_t I = 0; I < Loops.size(); ++I)
            if (loopDigest(Loops[I]) == D)
              NeedMinBuff[I] = true;
        continue;
      }
      Loops.push_back(std::move(G));
      NeedMinBuff.push_back(MinBuff);
    }
  };
  AddAll(sweepIlpSuite(M), false);
  AddAll(sweepPbPool(M), true);

  std::vector<Row> Rows(Loops.size());
  std::atomic<size_t> Next{0};
  std::mutex Mu;
  int Mismatches = 0;
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Loops.size();) {
      const DependenceGraph &G = Loops[I];
      Row R;
      R.Name = G.name();
      R.Ops = G.numOperations();
      ScheduleResult N =
          solve(M, G, Objective::None, SchedulerBackend::Pb, 1000000, 600);
      if (N.Found) {
        R.E.NoObjIi = N.II;
        R.E.NoObjSource = "pb";
      }
      if (NeedMinBuff[I]) {
        ScheduleResult B = solve(M, G, Objective::MinBuff,
                                 SchedulerBackend::Ilp, 100000, IlpSeconds);
        const char *Src = "ilp";
        if (!B.Found) {
          B = solve(M, G, Objective::MinBuff, SchedulerBackend::Pb, 200000,
                    600);
          Src = "pb";
        }
        if (B.Found) {
          R.E.MinBuffIi = B.II;
          R.E.MinBuffObj = std::llround(B.SecondaryObjective);
          R.E.MinBuffSource = Src;
        }
      }
      std::lock_guard<std::mutex> Lock(Mu);
      if (R.E.NoObjIi >= 0 && R.E.MinBuffIi >= 0 &&
          R.E.NoObjIi != R.E.MinBuffIi) {
        std::fprintf(stderr, "MISMATCH %s: NoObj II %d vs MinBuff II %d\n",
                     R.Name.c_str(), R.E.NoObjIi, R.E.MinBuffIi);
        ++Mismatches;
      }
      Rows[I] = std::move(R);
      std::fprintf(stderr, "\r%zu/%zu", I + 1, Loops.size());
    }
  };
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
  std::fprintf(stderr, "\n");

  std::FILE *Out = std::fopen(Argv[1], "w");
  if (!Out) {
    std::perror(Argv[1]);
    return 1;
  }
  std::fprintf(Out,
               "# perfbench verdict reference (perfbench_reference, ILP "
               "%.1f s/loop)\n"
               "# digest name ops noobj_ii noobj_src minbuff_ii "
               "minbuff_obj minbuff_src\n",
               IlpSeconds);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(Out, "%016llx %s %d %d %s %d %lld %s\n",
                 (unsigned long long)loopDigest(Loops[I]), R.Name.c_str(),
                 R.Ops, R.E.NoObjIi,
                 R.E.NoObjSource.empty() ? "-" : R.E.NoObjSource.c_str(),
                 R.E.MinBuffIi, (long long)R.E.MinBuffObj,
                 R.E.MinBuffSource.empty() ? "-" : R.E.MinBuffSource.c_str());
  }
  std::fclose(Out);
  return Mismatches ? 1 : 0;
}

//===- perfbench/tests/SelfTest.cpp - Tests of the benchmark's own code ---===//
//
// Run with `python3 perfbench/run.py --selftest` (or ctest in the
// benchmark's build directory). Exits non-zero on the first failed check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ilpsched/OptimalScheduler.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"
#include "workloads/KernelLibrary.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace modsched;
using namespace perfbench;

namespace {

int Checks = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    ++Checks;                                                                  \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      std::exit(1);                                                            \
    }                                                                          \
  } while (0)

void zipfMatchesItsDistribution() {
  const size_t K = 50;
  Zipf Z(K, 1.0);
  double Total = 0;
  for (size_t I = 0; I < K; ++I) {
    Total += Z.probability(I);
    if (I)
      CHECK(Z.probability(I) < Z.probability(I - 1));
  }
  CHECK(std::fabs(Total - 1.0) < 1e-12);
  // P(rank 0) / P(rank 9) = 10 for s = 1.
  CHECK(std::fabs(Z.probability(0) / Z.probability(9) - 10.0) < 1e-9);

  const int N = 200000;
  std::vector<int> Hist(K + 1);
  SplitMix R(7);
  for (int I = 0; I < N; ++I)
    ++Hist[std::min(Z.sample(R), K)];
  CHECK(Hist[K] == 0);
  // Pearson chi-square over 50 bins: 49 degrees of freedom, so a correct
  // sampler stays far below 100 (p < 1e-4 beyond it).
  double Chi2 = 0;
  for (size_t I = 0; I < K; ++I) {
    double E = N * Z.probability(I);
    Chi2 += (Hist[I] - E) * (Hist[I] - E) / E;
  }
  CHECK(Chi2 < 100);
  // A uniform sampler must fail the same test.
  double Uniform = 0;
  for (size_t I = 0; I < K; ++I) {
    double E = N * Z.probability(I), O = double(N) / K;
    Uniform += (O - E) * (O - E) / E;
  }
  CHECK(Uniform > 1000);
}

void percentileCountsItsSupport() {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  Percentile P50 = percentile(V, 0.50);
  CHECK(P50.Value == 50 && P50.Samples == 100 && P50.Beyond == 50 && P50.Ok);
  Percentile P95 = percentile(V, 0.95);
  CHECK(P95.Value == 95 && P95.Beyond == 5 && !P95.Ok); // Refused.
  Percentile P90 = percentile(V, 0.90);
  CHECK(P90.Value == 90 && P90.Beyond == 10 && P90.Ok);
  V.clear();
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  Percentile P99 = percentile(V, 0.99);
  CHECK(P99.Value == 990 && P99.Beyond == 10 && P99.Ok);
  CHECK(!percentile({}, 0.5).Ok);
  CHECK(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5);
}

void leastTimeIsPerRequest() {
  // Request I's least time over the passes, not the least pass.
  std::vector<double> Least = leastPerRequest({{5, 1, 9}, {2, 4, 8}, {3, 3, 7}});
  CHECK((Least == std::vector<double>{2, 1, 7}));
  CHECK(leastPerRequest({}).empty());
}

void speedProbeRepeats() {
  // The probe's work is fixed: the same runs compute the same values.
  SpeedProbe A, B;
  CHECK(A.run() > 0 && B.run() > 0);
  CHECK(A.checksum() == B.checksum());
}

void variantsHashEqualFramesDiffer() {
  MachineModel M = benchMachine();
  std::vector<DependenceGraph> Loops = allKernels(M);
  std::vector<DependenceGraph> Suite = sweepIlpSuite(M);
  Loops.insert(Loops.end(), Suite.begin() + 18, Suite.begin() + 60);
  FormulationOptions Opts;
  Opts.Obj = Objective::MinBuff;
  SplitMix R(11);
  int Compared = 0;
  for (const DependenceGraph &G : Loops) {
    Problem P(G, M, Opts);
    if (!P.hashExact())
      continue;
    LoopText T = relabeledText(G, M, R);
    CHECK(T.Ddg != printDdg(G, M));
    CHECK(T.Machine != printMachine(M));
    std::optional<MachineModel> VM = parseMachine(T.Machine);
    CHECK(VM.has_value());
    std::optional<DependenceGraph> VG = parseDdg(T.Ddg, *VM);
    CHECK(VG.has_value());
    CHECK(VG->numOperations() == G.numOperations());
    Problem V(*VG, *VM, Opts);
    CHECK(V.hashExact());
    CHECK(V.canonicalHash() == P.canonicalHash());
    ++Compared;
  }
  CHECK(Compared >= 50);
}

void referenceFlagsAWrongVerdict() {
  MachineModel M = benchMachine();
  DependenceGraph G = livermore1(M);
  SchedulerOptions O;
  O.Formulation.Obj = Objective::MinBuff;
  O.Backend = SchedulerBackend::Pb;
  O.Cache = false;
  ScheduleResult Res = OptimalModuloScheduler(M, O).schedule(G);
  CHECK(Res.Found);

  Reference Ref;
  RefEntry E;
  E.NoObjIi = Res.II;
  E.MinBuffIi = Res.II;
  E.MinBuffObj = std::llround(Res.SecondaryObjective);
  const uint64_t D = loopDigest(G);
  Ref[D] = E;

  Outcome Good;
  Good.Decided = true;
  Good.II = Res.II;
  Good.Objective = Res.SecondaryObjective;
  Good.Times = Res.Schedule.times();
  CHECK(!checkOutcome(Ref, D, G, M, Objective::MinBuff, Good));
  CHECK(!checkVerdict(Ref, D, Objective::None, Res.II, 0));

  Outcome WrongIi = Good;
  WrongIi.II = Res.II + 1;
  CHECK(checkVerdict(Ref, D, Objective::None, Res.II + 1, 0));
  CHECK(checkOutcome(Ref, D, G, M, Objective::MinBuff, WrongIi));

  Outcome WrongObj = Good;
  WrongObj.Objective += 1;
  CHECK(checkOutcome(Ref, D, G, M, Objective::MinBuff, WrongObj));

  // A schedule the simulator rejects: every operation in cycle 0 breaks
  // the loop's dependences.
  Outcome Broken = Good;
  for (int &T : Broken.Times)
    T = 0;
  std::optional<std::string> Err =
      checkOutcome(Ref, D, G, M, Objective::MinBuff, Broken);
  CHECK(Err && Err->find("simulator") != std::string::npos);

  // No reference: listed, never passed.
  std::optional<std::string> Missing =
      checkOutcome(Ref, D + 1, G, M, Objective::MinBuff, Good);
  CHECK(Missing && *Missing == "no reference");

  // Which engine set an answer decides whether a workload may check
  // against it.
  Ref[D].NoObjSource = "pb";
  Ref[D].MinBuffSource = "ilp";
  CHECK(referenceSource(Ref, D, Objective::None) == "pb");
  CHECK(referenceSource(Ref, D, Objective::MinBuff) == "ilp");
  CHECK(referenceSource(Ref, D + 1, Objective::MinBuff).empty());

  // Censored outcomes carry no verdict; failures always count.
  Outcome Censored;
  CHECK(!checkOutcome(Ref, D + 1, G, M, Objective::MinBuff, Censored));
  Outcome Failed;
  Failed.Failed = true;
  CHECK(checkOutcome(Ref, D, G, M, Objective::MinBuff, Failed));
}

void gateFlagsAPerturbedCount() {
  Counts A;
  A.Decided = 253;
  A.Attempts = 301;
  A.Nodes = 2867;
  A.Iterations = 69036;
  A.Conflicts = 0;
  CHECK(diffCounts(A, A).empty());

  Counts B = A;
  B.Nodes += 1;
  std::vector<std::string> D = diffCounts(A, B);
  CHECK(D.size() == 1 && D[0].find("ilp.nodes") == 0);

  Counts C = A;
  C.CacheHits = 5;
  C.Iterations = Unknown; // Not observable on this side: skipped.
  D = diffCounts(A, C);
  CHECK(D.size() == 1 && D[0].find("ilpsched.cache_hits") == 0);

  Counts Parsed;
  CHECK(parseCounts(formatCounts(B), Parsed));
  CHECK(diffCounts(B, Parsed).empty());
  CHECK(!parseCounts("decided=1", Parsed));
}

} // namespace

int main() {
  zipfMatchesItsDistribution();
  percentileCountsItsSupport();
  leastTimeIsPerRequest();
  speedProbeRepeats();
  variantsHashEqualFramesDiffer();
  referenceFlagsAWrongVerdict();
  gateFlagsAPerturbedCount();
  std::printf("perfbench self-test: %d checks passed\n", Checks);
  return 0;
}

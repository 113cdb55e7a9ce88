//===- perfbench/src/Bench.cpp - Shared pieces of the repo benchmark ------===//

#include "Bench.h"

#include "sched/ModuloSchedule.h"
#include "sched/PipelineSimulator.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"
#include "workloads/SyntheticGenerator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace modsched;

namespace perfbench {

MachineModel benchMachine() { return MachineModel::cydraLike(); }

std::vector<DependenceGraph> sweepIlpSuite(const MachineModel &M) {
  return generateSuite(M, SweepIlpLoops, PoolSeed, /*IncludeKernels=*/true,
                       LargeCap);
}

std::vector<DependenceGraph> sweepPbPool(const MachineModel &M) {
  return generateSuite(M, SweepPbLoops, PoolSeed, /*IncludeKernels=*/true,
                       LargeCap);
}

namespace {
struct Fnv {
  uint64_t H = 1469598103934665603ULL;
  void add(int64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= uint64_t(V >> (8 * I)) & 0xff;
      H *= 1099511628211ULL;
    }
  }
};
} // namespace

uint64_t loopDigest(const DependenceGraph &G) {
  Fnv F;
  F.add(G.numOperations());
  for (const Operation &Op : G.operations())
    F.add(Op.OpClass);
  F.add(G.numSchedEdges());
  for (const SchedEdge &E : G.schedEdges()) {
    F.add(E.Src);
    F.add(E.Dst);
    F.add(E.Latency);
    F.add(E.Distance);
  }
  F.add(G.numRegisters());
  for (const VirtualRegister &R : G.registers()) {
    F.add(R.Def);
    F.add(int64_t(R.Uses.size()));
    for (const RegisterUse &U : R.Uses) {
      F.add(U.Consumer);
      F.add(U.Distance);
    }
  }
  return F.H;
}

//===----------------------------------------------------------------------===//
// Seeded draws
//===----------------------------------------------------------------------===//

uint64_t SplitMix::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

uint64_t SplitMix::below(uint64_t Bound) {
  uint64_t Threshold = (0 - Bound) % Bound;
  for (;;) {
    uint64_t V = next();
    if (V >= Threshold)
      return V % Bound;
  }
}

Zipf::Zipf(size_t K, double S) : Cdf(K) {
  double Sum = 0;
  for (size_t I = 0; I < K; ++I)
    Cdf[I] = (Sum += 1.0 / std::pow(double(I + 1), S));
  for (double &C : Cdf)
    C /= Sum;
}

size_t Zipf::sample(SplitMix &R) const {
  double U = R.uniform();
  size_t I = size_t(std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
  return std::min(I, Cdf.size() - 1);
}

double Zipf::probability(size_t Rank) const {
  return Cdf[Rank] - (Rank ? Cdf[Rank - 1] : 0.0);
}

namespace {
std::vector<std::string> splitWords(const std::string &Line) {
  std::istringstream In(Line);
  std::vector<std::string> W;
  for (std::string S; In >> S;)
    W.push_back(S);
  return W;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    if (!L.empty())
      Lines.push_back(L);
  return Lines;
}

std::string join(const std::vector<std::string> &W) {
  std::string S;
  for (const std::string &X : W)
    S += (S.empty() ? "" : " ") + X;
  return S;
}
} // namespace

LoopText relabeledText(const DependenceGraph &G, const MachineModel &M,
                       SplitMix &R) {
  // Rename machine units and classes. Their declaration order is kept:
  // the canonical hash is promised invariant under renaming, and
  // reordering the declarations does change it.
  std::map<std::string, std::string> UnitName, ClassName;
  std::vector<std::string> Units, Classes, MachineHead;
  for (const std::string &L : splitLines(printMachine(M))) {
    std::vector<std::string> W = splitWords(L);
    if (W.size() >= 2 && W[0] == "resource") {
      UnitName[W[1]] = "u" + std::to_string(R.below(1u << 30));
      Units.push_back(L);
    } else if (W.size() >= 2 && W[0] == "class") {
      ClassName[W[1]] = "k" + std::to_string(R.below(1u << 30));
      Classes.push_back(L);
    } else {
      MachineHead.push_back(L);
    }
  }
  LoopText Out;
  for (const std::string &L : MachineHead)
    Out.Machine += L + "\n";
  for (const std::string &L : Units) {
    std::vector<std::string> W = splitWords(L);
    W[1] = UnitName[W[1]];
    Out.Machine += join(W) + "\n";
  }
  for (const std::string &L : Classes) {
    std::vector<std::string> W = splitWords(L);
    W[1] = ClassName[W[1]];
    for (std::string &Tok : W)
      if (Tok.rfind("uses=", 0) == 0) {
        // uses=<unit>@<cycle>,<unit>@<cycle>,...
        std::string Rewritten = "uses=";
        std::istringstream Uses(Tok.substr(5));
        bool First = true;
        for (std::string U; std::getline(Uses, U, ',');) {
          size_t At = U.find('@');
          Rewritten += (First ? "" : ",") + UnitName[U.substr(0, At)] +
                       U.substr(At);
          First = false;
        }
        Tok = Rewritten;
      }
    Out.Machine += join(W) + "\n";
  }

  // Rename operations and shuffle operation and edge lines.
  std::map<std::string, std::string> OpName;
  std::vector<std::string> Ops, Edges, LoopHead;
  for (const std::string &L : splitLines(printDdg(G, M))) {
    std::vector<std::string> W = splitWords(L);
    if (W.size() >= 3 && W[0] == "op") {
      OpName[W[1]] = "n" + std::to_string(OpName.size()) + "_" +
                     std::to_string(R.below(1u << 20));
      W[1] = OpName[W[1]];
      W[2] = ClassName[W[2]];
      Ops.push_back(join(W));
    } else if (W.size() >= 3 && (W[0] == "flow" || W[0] == "edge")) {
      Edges.push_back(L);
    } else {
      LoopHead.push_back(L);
    }
  }
  R.shuffle(Ops);
  R.shuffle(Edges);
  for (const std::string &L : LoopHead)
    Out.Ddg += L + "\n";
  for (const std::string &L : Ops)
    Out.Ddg += L + "\n";
  for (const std::string &L : Edges) {
    std::vector<std::string> W = splitWords(L);
    W[1] = OpName[W[1]];
    W[2] = OpName[W[2]];
    Out.Ddg += join(W) + "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

Percentile percentile(std::vector<double> V, double Q) {
  Percentile P;
  P.Samples = V.size();
  if (V.empty())
    return P;
  std::sort(V.begin(), V.end());
  // Nearest rank: the smallest value with at least Q of the samples at
  // or below it.
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  P.Value = V[Rank - 1];
  P.Beyond = V.size() - Rank;
  P.Ok = P.Beyond >= 10;
  return P;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::vector<double>
leastPerRequest(const std::vector<std::vector<double>> &PerPass) {
  std::vector<double> Least;
  for (const std::vector<double> &Pass : PerPass) {
    if (Least.empty())
      Least = Pass;
    for (size_t I = 0; I < Least.size() && I < Pass.size(); ++I)
      Least[I] = std::min(Least[I], Pass[I]);
  }
  return Least;
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

namespace {
constexpr size_t ProbeRows = 1 << 16;
constexpr size_t ProbeRowNonzeros = 4;
} // namespace

SpeedProbe::SpeedProbe()
    : A(ProbeRows * ProbeRowNonzeros), X(ProbeRows, 1.0), Y(ProbeRows),
      Col(ProbeRows * ProbeRowNonzeros) {
  SplitMix R(PoolSeed);
  for (size_t K = 0; K < A.size(); ++K) {
    A[K] = 1.0 + double(R.below(1000)) * 1e-4;
    Col[K] = uint32_t(R.below(ProbeRows));
  }
}

void SpeedProbe::sweep() {
  for (size_t I = 0; I < ProbeRows; ++I) {
    double S = 0;
    for (size_t K = I * ProbeRowNonzeros; K < (I + 1) * ProbeRowNonzeros; ++K)
      S += A[K] * X[Col[K]];
    Y[I] = S;
  }
  for (size_t I = 0; I < ProbeRows; ++I)
    X[I] = Y[I] * 0.25 + 1.0 / (1.0 + Y[I]);
}

double SpeedProbe::run() {
  sweep();
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I < ProbeSweeps; ++I)
    sweep();
  return secondsSince(T0) * 1e3;
}

double SpeedProbe::checksum() const {
  double S = 0;
  for (double V : X)
    S += V;
  return S;
}

//===----------------------------------------------------------------------===//
// Reference
//===----------------------------------------------------------------------===//

bool loadReference(const std::string &Path, Reference &Out,
                   std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  int LineNo = 0;
  for (std::string Line; std::getline(In, Line);) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    // digest name ops noobj_ii noobj_src minbuff_ii minbuff_obj minbuff_src
    std::vector<std::string> W = splitWords(Line);
    if (W.size() != 8) {
      if (Error)
        *Error = Path + ":" + std::to_string(LineNo) + ": want 8 fields";
      return false;
    }
    RefEntry E;
    E.NoObjIi = std::stoi(W[3]);
    E.NoObjSource = W[4];
    E.MinBuffIi = std::stoi(W[5]);
    E.MinBuffObj = std::stoll(W[6]);
    E.MinBuffSource = W[7];
    Out[std::stoull(W[0], nullptr, 16)] = E;
  }
  return true;
}

std::string referenceSource(const Reference &Ref, uint64_t Digest,
                            Objective Obj) {
  auto It = Ref.find(Digest);
  if (It == Ref.end())
    return "";
  const RefEntry &E = It->second;
  if (Obj == Objective::None)
    return E.NoObjIi >= 0 ? E.NoObjSource : "";
  if (Obj == Objective::MinBuff)
    return E.MinBuffIi >= 0 ? E.MinBuffSource : "";
  return "";
}

std::optional<std::string> checkVerdict(const Reference &Ref, uint64_t Digest,
                                        Objective Obj, int II,
                                        double Objective) {
  auto It = Ref.find(Digest);
  if (It == Ref.end())
    return std::string("no reference");
  const RefEntry &E = It->second;
  if (Obj == Objective::None) {
    if (E.NoObjIi < 0)
      return std::string("no reference");
    if (II != E.NoObjIi)
      return "II " + std::to_string(II) + " != reference " +
             std::to_string(E.NoObjIi);
    return std::nullopt;
  }
  if (Obj != Objective::MinBuff || E.MinBuffIi < 0)
    return std::string("no reference");
  if (II != E.MinBuffIi)
    return "II " + std::to_string(II) + " != reference " +
           std::to_string(E.MinBuffIi);
  if (std::llround(Objective) != E.MinBuffObj)
    return "MinBuff " + std::to_string(std::llround(Objective)) +
           " != reference " + std::to_string(E.MinBuffObj);
  return std::nullopt;
}

std::optional<std::string> checkOutcome(const Reference &Ref, uint64_t Digest,
                                        const DependenceGraph &G,
                                        const MachineModel &M, Objective Obj,
                                        const Outcome &O) {
  if (O.Failed)
    return O.Message.empty() ? std::string("failed") : O.Message;
  if (!O.Decided)
    return std::nullopt; // Censored by the budget: no verdict to check.
  if (std::optional<std::string> Err =
          checkVerdict(Ref, Digest, Obj, O.II, O.Objective))
    return Err;
  if (int(O.Times.size()) != G.numOperations() || O.II < 1)
    return std::string("schedule has the wrong shape");
  ModuloSchedule S(O.II, O.Times);
  SimulationReport Sim = simulateSchedule(G, M, S, /*Iterations=*/8);
  if (Sim.Violation)
    return "simulator: " + *Sim.Violation;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Determinism gate
//===----------------------------------------------------------------------===//

namespace {
struct CountField {
  const char *Name;
  int64_t Counts::*Field;
};
constexpr CountField CountFields[] = {
    {"decided", &Counts::Decided},
    {"ilpsched.attempts", &Counts::Attempts},
    {"ilp.nodes", &Counts::Nodes},
    {"lp.simplex_iterations", &Counts::Iterations},
    {"lp.refactorizations", &Counts::Refactorizations},
    {"lp.eta_nnz", &Counts::EtaNonzeros},
    {"lp.warm_solves", &Counts::WarmLpSolves},
    {"lp.cold_solves", &Counts::ColdLpSolves},
    {"pb.conflicts", &Counts::Conflicts},
    {"pb.propagations", &Counts::Propagations},
    {"pb.restarts", &Counts::Restarts},
    {"pb.learned", &Counts::Learned},
    {"ilpsched.cache_hits", &Counts::CacheHits},
    {"ilpsched.cache_misses", &Counts::CacheMisses},
    {"ilpsched.cache_inserts", &Counts::CacheInserts},
};
} // namespace

std::vector<std::string> diffCounts(const Counts &A, const Counts &B) {
  std::vector<std::string> D;
  for (const CountField &F : CountFields)
    if (A.*F.Field != Unknown && B.*F.Field != Unknown &&
        A.*F.Field != B.*F.Field)
      D.push_back(std::string(F.Name) + " " + std::to_string(A.*F.Field) +
                  " vs " + std::to_string(B.*F.Field));
  return D;
}

void addCounts(Counts &Into, const Counts &C) {
  for (const CountField &F : CountFields) {
    int64_t &A = Into.*F.Field;
    A = (A == Unknown || C.*F.Field == Unknown) ? Unknown : A + C.*F.Field;
  }
}

void fillUnknown(Counts &Into, const Counts &From) {
  for (const CountField &F : CountFields)
    if (Into.*F.Field == Unknown)
      Into.*F.Field = From.*F.Field;
}

std::string formatCounts(const Counts &C) {
  std::string S;
  for (const CountField &F : CountFields)
    S += std::string(F.Name) + "=" + std::to_string(C.*F.Field) + " ";
  return S;
}

bool parseCounts(const std::string &Text, Counts &C) {
  size_t Found = 0;
  for (const std::string &W : splitWords(Text)) {
    size_t Eq = W.find('=');
    if (Eq == std::string::npos)
      return false;
    for (const CountField &F : CountFields)
      if (W.compare(0, Eq, F.Name) == 0 && std::string(F.Name).size() == Eq) {
        C.*F.Field = std::stoll(W.substr(Eq + 1));
        ++Found;
      }
  }
  return Found == std::size(CountFields);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace spans {
namespace {
std::atomic<bool> Enabled{false};
} // namespace

void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool enabled() { return Enabled.load(std::memory_order_relaxed); }

std::map<std::string, std::vector<double>> &threadLog() {
  thread_local std::map<std::string, std::vector<double>> Log;
  return Log;
}

void drainInto(std::map<std::string, std::vector<double>> &Into) {
  for (auto &[Name, D] : threadLog())
    Into[Name].insert(Into[Name].end(), D.begin(), D.end());
  threadLog().clear();
}
} // namespace spans

} // namespace perfbench

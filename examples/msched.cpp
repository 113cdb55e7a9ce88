//===- examples/msched.cpp - Command-line modulo scheduler ----------------===//
//
// A complete command-line driver over the public API:
//
//   msched [options] (<loop.ddg> | --kernel=<name> | --list-kernels)
//
// Options:
//   --machine=example3|cydra|vliw2     target machine (default cydra)
//   --machine-file=<file.mdesc>        custom machine description
//   --objective=noobj|minreg|minbuff|minlife|minsl   (default minreg)
//   --formulation=structured|traditional|loose       (default structured)
//   --instance-mapped                  Altman-style instance mapping
//   --heuristic                        use the Iterative Modulo Scheduler
//   --stage-schedule                   run the stage-scheduling post-pass
//   --time=<seconds>                   per-loop budget (default 60)
//   --explain                          solve forensics: print a verified
//                                      witness for every infeasible II
//                                      and the optimality audit trail
//   --cache                            consult the content-addressed
//                                      solution cache before solving
//                                      (equivalent to MODSCHED_CACHE=1)
//   --simulate=<iterations>            run the pipeline simulator
//   --emit-code                        emit prologue/kernel/epilogue
//   --print-model                      dump the ILP in CPLEX LP format
//   --print-ddg                        dump the loop in .ddg format
//
//===----------------------------------------------------------------------===//

#include "codegen/KernelEmitter.h"
#include "frontend/LoopDsl.h"
#include "heuristic/IterativeModuloScheduler.h"
#include "heuristic/StageScheduler.h"
#include "ilpsched/OptimalScheduler.h"
#include "sched/CriticalCycle.h"
#include "sched/Mii.h"
#include "sched/PipelineSimulator.h"
#include "sched/RegisterPressure.h"
#include "textio/DdgFormat.h"
#include "textio/LpWriter.h"
#include "textio/MachineFormat.h"
#include "workloads/KernelLibrary.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

using namespace modsched;

namespace {

struct CliOptions {
  std::string MachineName = "cydra";
  std::string MachineFile;
  std::string ObjectiveName = "minreg";
  std::string FormulationName = "structured";
  std::string KernelName;
  std::string DdgPath;
  bool UseHeuristic = false;
  bool InstanceMapped = false;
  bool StageSchedule = false;
  bool PrintModel = false;
  bool PrintDdg = false;
  bool Explain = false;
  bool Cache = false;
  bool ListKernels = false;
  bool EmitCode = false;
  int SimulateIterations = 0;
  double TimeLimit = 60.0;
};

bool parseFlag(const char *Arg, const char *Name, std::string &Out) {
  std::string Prefix = std::string("--") + Name + "=";
  if (std::strncmp(Arg, Prefix.c_str(), Prefix.size()) != 0)
    return false;
  Out = Arg + Prefix.size();
  return true;
}

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [options] (<loop.ddg> | --kernel=<name> | "
               "--list-kernels)\nsee the file header for options\n",
               Argv0);
  std::exit(2);
}

std::optional<CliOptions> parseArgs(int Argc, char **Argv) {
  CliOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    std::string Value;
    if (parseFlag(Arg, "machine", Opts.MachineName) ||
        parseFlag(Arg, "machine-file", Opts.MachineFile) ||
        parseFlag(Arg, "objective", Opts.ObjectiveName) ||
        parseFlag(Arg, "formulation", Opts.FormulationName) ||
        parseFlag(Arg, "kernel", Opts.KernelName))
      continue;
    if (parseFlag(Arg, "time", Value)) {
      Opts.TimeLimit = std::atof(Value.c_str());
      continue;
    }
    if (parseFlag(Arg, "simulate", Value)) {
      Opts.SimulateIterations = std::atoi(Value.c_str());
      continue;
    }
    if (!std::strcmp(Arg, "--emit-code")) {
      Opts.EmitCode = true;
      continue;
    }
    if (!std::strcmp(Arg, "--heuristic")) {
      Opts.UseHeuristic = true;
      continue;
    }
    if (!std::strcmp(Arg, "--instance-mapped")) {
      Opts.InstanceMapped = true;
      continue;
    }
    if (!std::strcmp(Arg, "--stage-schedule")) {
      Opts.StageSchedule = true;
      continue;
    }
    if (!std::strcmp(Arg, "--print-model")) {
      Opts.PrintModel = true;
      continue;
    }
    if (!std::strcmp(Arg, "--print-ddg")) {
      Opts.PrintDdg = true;
      continue;
    }
    if (!std::strcmp(Arg, "--explain")) {
      Opts.Explain = true;
      continue;
    }
    if (!std::strcmp(Arg, "--cache")) {
      Opts.Cache = true;
      continue;
    }
    if (!std::strcmp(Arg, "--list-kernels")) {
      Opts.ListKernels = true;
      continue;
    }
    if (Arg[0] == '-')
      return std::nullopt;
    if (!Opts.DdgPath.empty())
      return std::nullopt;
    Opts.DdgPath = Arg;
  }
  return Opts;
}

void emitExtras(const CliOptions &Cli, const DependenceGraph &G,
                const MachineModel &M, const ModuloSchedule &S) {
  if (Cli.SimulateIterations > 0) {
    SimulationReport Sim =
        simulateSchedule(G, M, S, Cli.SimulateIterations);
    if (Sim.Violation) {
      std::printf("\nsimulation violation: %s\n", Sim.Violation->c_str());
      return;
    }
    std::printf("\nsimulated %d iterations: %ld cycles "
                "(%.2f cycles/iter), steady-state live values %d\n",
                Sim.Iterations, Sim.TotalCycles, Sim.CyclesPerIteration,
                Sim.SteadyStateLiveValues);
  }
  if (Cli.EmitCode) {
    PipelinedLoop Code = emitPipelinedLoop(G, M, S);
    std::printf("\n%s", Code.text(G).c_str());
  }
}

void printSchedule(const DependenceGraph &G, const MachineModel &M,
                   const ModuloSchedule &S) {
  std::printf("\nschedule (II=%d, length=%d, stages=%d):\n", S.ii(),
              S.scheduleLength(), S.numStages());
  for (int Op = 0; Op < G.numOperations(); ++Op)
    std::printf("  %-16s time=%3d row=%2d stage=%d\n",
                G.operation(Op).Name.c_str(), S.time(Op), S.row(Op),
                S.stage(Op));
  Mrt Table(G, M, S);
  std::printf("\nMRT:\n%s", Table.toString(M).c_str());
  RegisterPressure P = computeRegisterPressure(G, S);
  std::printf("\nMaxLive=%d  total-lifetime=%ld  buffers=%ld\n", P.MaxLive,
              P.TotalLifetime, P.Buffers);
}

} // namespace

int main(int Argc, char **Argv) {
  std::optional<CliOptions> OptsOr = parseArgs(Argc, Argv);
  if (!OptsOr)
    usage(Argv[0]);
  CliOptions &Cli = *OptsOr;

  MachineModel Machine = Cli.MachineName == "example3"
                             ? MachineModel::example3()
                         : Cli.MachineName == "vliw2"
                             ? MachineModel::vliw2()
                             : MachineModel::cydraLike();
  if (!Cli.MachineFile.empty()) {
    std::ifstream In(Cli.MachineFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   Cli.MachineFile.c_str());
      return 1;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    std::string Error;
    auto Parsed = parseMachine(Buffer.str(), &Error);
    if (!Parsed) {
      std::fprintf(stderr, "error: %s: %s\n", Cli.MachineFile.c_str(),
                   Error.c_str());
      return 1;
    }
    Machine = std::move(*Parsed);
  }

  if (Cli.ListKernels) {
    for (const DependenceGraph &G : allKernels(Machine))
      std::printf("%-28s %2d ops, %2d edges, %2d vregs, MII %d\n",
                  G.name().c_str(), G.numOperations(), G.numSchedEdges(),
                  G.numRegisters(), mii(G, Machine));
    return 0;
  }

  // Load the loop.
  std::optional<DependenceGraph> Loop;
  if (!Cli.KernelName.empty()) {
    for (DependenceGraph &G : allKernels(Machine))
      if (G.name() == Cli.KernelName)
        Loop = std::move(G);
    if (!Loop) {
      std::fprintf(stderr, "error: unknown kernel %s (try --list-kernels)\n",
                   Cli.KernelName.c_str());
      return 1;
    }
  } else if (!Cli.DdgPath.empty()) {
    std::string Error;
    bool IsDsl = Cli.DdgPath.size() > 5 &&
                 Cli.DdgPath.rfind(".loop") == Cli.DdgPath.size() - 5;
    if (IsDsl) {
      // Source-level input: compile the loop language to a DDG.
      std::ifstream In(Cli.DdgPath);
      if (!In) {
        std::fprintf(stderr, "error: cannot open %s\n",
                     Cli.DdgPath.c_str());
        return 1;
      }
      std::stringstream Buffer;
      Buffer << In.rdbuf();
      Loop = compileLoopDsl(Buffer.str(), Machine, &Error);
    } else {
      Loop = loadDdgFile(Cli.DdgPath, Machine, &Error);
    }
    if (!Loop) {
      std::fprintf(stderr, "error: %s: %s\n", Cli.DdgPath.c_str(),
                   Error.c_str());
      return 1;
    }
  } else {
    usage(Argv[0]);
  }

  if (Cli.PrintDdg)
    std::printf("%s", printDdg(*Loop, Machine).c_str());

  std::printf("loop '%s' on machine '%s': %d ops, MII=%d "
              "(ResMII=%d, RecMII=%d)\n",
              Loop->name().c_str(), Machine.name().c_str(),
              Loop->numOperations(), mii(*Loop, Machine),
              resMii(*Loop, Machine), recMii(*Loop));
  if (recMii(*Loop) >= resMii(*Loop, Machine)) {
    if (auto Cycle = findCriticalCycle(*Loop))
      std::printf("binding recurrence: %s\n",
                  describeCycle(*Loop, *Cycle).c_str());
  }

  if (Cli.UseHeuristic) {
    IterativeModuloScheduler Ims(Machine);
    ImsResult R = Ims.schedule(*Loop);
    if (!R.Found) {
      std::fprintf(stderr, "heuristic failed to find a schedule\n");
      return 1;
    }
    ModuloSchedule S = R.Schedule;
    if (Cli.StageSchedule) {
      StageSchedulerOptions StageOpts;
      StageOpts.Metric = StageMetric::MaxLive;
      S = stageSchedule(*Loop, S, StageOpts);
    }
    std::printf("iterative modulo scheduler%s\n",
                Cli.StageSchedule ? " + stage scheduling" : "");
    printSchedule(*Loop, Machine, S);
    emitExtras(Cli, *Loop, Machine, S);
    return 0;
  }

  SchedulerOptions Opts;
  Opts.TimeLimitSeconds = Cli.TimeLimit;
  Opts.Formulation.Obj = Cli.ObjectiveName == "noobj"     ? Objective::None
                         : Cli.ObjectiveName == "minbuff" ? Objective::MinBuff
                         : Cli.ObjectiveName == "minlife" ? Objective::MinLife
                         : Cli.ObjectiveName == "minsl"   ? Objective::MinSL
                                                          : Objective::MinReg;
  Opts.Formulation.DepStyle =
      Cli.FormulationName == "traditional" ? DependenceStyle::Traditional
      : Cli.FormulationName == "loose"     ? DependenceStyle::StructuredLoose
                                           : DependenceStyle::Structured;
  Opts.Formulation.InstanceMapped = Cli.InstanceMapped;
  if (Cli.Explain)
    Opts.Explain = true;
  if (Cli.Cache)
    Opts.Cache = true;

  if (Cli.PrintModel) {
    Formulation F(*Loop, Machine, mii(*Loop, Machine), Opts.Formulation);
    if (F.valid())
      std::printf("%s", writeLpFormat(F.model()).c_str());
    else
      std::printf("\\ MII infeasible within the schedule-length budget\n");
  }

  OptimalModuloScheduler Scheduler(Machine, Opts);
  ScheduleResult R = Scheduler.schedule(*Loop);

  // Solve forensics: one line per attempt — the verified witness behind
  // every infeasible II and the optimality evidence of the solved one.
  // Printed whenever records were collected, so MODSCHED_EXPLAIN=1
  // works without the flag.
  if (Opts.Explain) {
    std::printf("\nsolve forensics:\n");
    // Cache-served results carry no attempt records (a hit honestly
    // reports zero solver effort), so the forensics section states the
    // provenance instead: cache_hit plus the content address the reply
    // was served under — the same fields bench records and the service
    // protocol report.
    if (R.CacheHit)
      std::printf("  cache_hit canonical=%016llx request=%016llx II=%d "
                  "(verifier re-checked replay; no solver attempts)\n",
                  static_cast<unsigned long long>(R.CacheCanonicalHash),
                  static_cast<unsigned long long>(R.CacheRequestKey), R.II);
    for (const IiAttempt &A : R.Attempts) {
      std::printf("  II=%-3d %-10s", A.II, ilp::toString(A.Status));
      std::printf(" engine=%s", A.Engine.c_str());
      if (A.Explain)
        std::printf(" [%s, %s] %s", sourceName(A.Explain->Source),
                    A.Explain->Verified ? "verified" : "UNVERIFIED",
                    describeExplanation(*Loop, Machine, A.II,
                                        *A.Explain).c_str());
      else if (!A.Scheduled && !A.Cancelled &&
               A.Status == ilp::MipStatus::Infeasible)
        std::printf(" (unexplained)");
      if (A.Audit) {
        std::printf(" proof=%s objective=%g", A.Audit->Proof.c_str(),
                    A.Audit->FinalObjective);
        if (A.Audit->HasRootBound)
          std::printf(" root-bound=%g gap=%g", A.Audit->RootBound,
                      A.Audit->Gap);
        for (const ilp::BoundSample &B : A.Audit->Trajectory)
          if (B.Incumbent < 1e300)
            std::printf("\n      incumbent %g at %.3fs (%lld nodes)",
                        B.Incumbent, B.Seconds,
                        static_cast<long long>(B.Nodes));
      }
      std::printf("\n");
    }
  }

  if (!R.Found) {
    std::fprintf(stderr, "no schedule within budget (%.0fs); nodes=%lld\n",
                 Cli.TimeLimit, static_cast<long long>(R.Nodes));
    return 1;
  }
  std::printf("optimal %s schedule (%s formulation): II=%d, secondary=%g%s\n"
              "nodes=%lld simplex-iterations=%lld vars=%d cons=%d "
              "time=%.2fs\n",
              toString(Opts.Formulation.Obj),
              toString(Opts.Formulation.DepStyle), R.II,
              R.SecondaryObjective,
              R.CacheHit ? " [solution cache]" : "",
              static_cast<long long>(R.Nodes),
              static_cast<long long>(R.SimplexIterations), R.Variables,
              R.Constraints, R.Seconds);
  printSchedule(*Loop, Machine, R.Schedule);
  emitExtras(Cli, *Loop, Machine, R.Schedule);
  return 0;
}

//===- perfbench/src/Main.cpp - The repo benchmark's command line ---------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --reference <loops.tsv> [--gate-dir <dir>]
//   perfbench --list-metrics
//
// Prints a human-readable report, a host block, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero when the run is incorrect.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/personality.h>

using namespace perfbench;

namespace {

std::string readFirstLine(const char *Path) {
  std::ifstream In(Path);
  std::string Line;
  std::getline(In, Line);
  return Line;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

/// Digest of the benchmark binary itself: the determinism gate only
/// compares runs of one build.
std::string buildId(const char *Argv0) {
  std::ifstream In(Argv0, std::ios::binary);
  uint64_t H = 1469598103934665603ULL;
  char Buf[1 << 16];
  while (In.read(Buf, sizeof(Buf)) || In.gcount() > 0) {
    for (std::streamsize I = 0; I < In.gcount(); ++I) {
      H ^= uint8_t(Buf[I]);
      H *= 1099511628211ULL;
    }
    if (!In)
      break;
  }
  char Out[17];
  std::snprintf(Out, sizeof(Out), "%016llx", (unsigned long long)H);
  return Out;
}

void printHost(const RunOptions &Opts) {
  std::string S;
  modsched::json::JsonWriter W(S);
  W.beginObject();
  W.key("workload").value(Opts.Workload);
  W.key("seed").value(static_cast<uint64_t>(Opts.Seed));
  W.key("seconds").value(Opts.Seconds);
  W.key("trace").value(Opts.Trace);
  W.key("cores").value(int(std::thread::hardware_concurrency()));
  W.key("cpu").value(cpuModel());
  W.key("compiler").value(__VERSION__);
  W.key("build_type").value(PERFBENCH_BUILD_TYPE);
  int Persona = personality(0xffffffff);
  W.key("aslr").value(
      "system " + readFirstLine("/proc/sys/kernel/randomize_va_space") +
      (Persona != -1 && (Persona & ADDR_NO_RANDOMIZE) ? ", off for this run"
                                                       : ", on for this run"));
  W.key("loadavg").value(readFirstLine("/proc/loadavg"));
  W.endObject();
  std::printf("host %s\n", S.c_str());
}

void listMetrics() {
  std::printf("%-34s %-6s %-6s %s\n", "metric", "unit", "better",
              "workloads");
  std::printf("end-to-end (--trace 0):\n");
  for (const MetricInfo &M : endToEndMetrics())
    std::printf("  %-32s %-6s %-6s %s\n", M.Name, M.Unit, M.Better,
                M.Workloads);
  std::printf("per-layer (--trace 1):\n");
  for (const MetricInfo &M : perLayerMetrics())
    std::printf("  %-32s %-6s %-6s %s\n", M.Name, M.Unit, M.Better,
                M.Workloads);
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <sweep-ilp|sweep-pb|service-mix> "
               "--seed <n> --seconds <s> --trace <0|1> --reference <tsv> "
               "[--gate-dir <dir>]\n       %s --list-metrics\n",
               Argv0, Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--list-metrics") {
      listMetrics();
      return 0;
    }
    if (I + 1 >= Argc)
      return usage(Argv[0]);
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      Opts.Workload = V;
    else if (A == "--seed")
      Opts.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (A == "--seconds")
      Opts.Seconds = std::strtod(V.c_str(), &End);
    else if (A == "--trace")
      Opts.Trace = V == "1";
    else if (A == "--reference")
      Opts.ReferencePath = V;
    else if (A == "--gate-dir")
      Opts.GateDir = V;
    else
      return usage(Argv[0]);
    if (End && *End)
      return usage(Argv[0]);
  }
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Opts.Workload) == Names.end() ||
      Opts.ReferencePath.empty() || !(Opts.Seconds > 0))
    return usage(Argv[0]);
  Opts.BuildId = buildId(Argv[0]);

  RunResult R = runWorkload(Opts, stdout);
  printHost(Opts);

  // Every declared metric must be present.
  const std::vector<MetricInfo> &Declared =
      Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  auto Find = [&](const MetricInfo &M) {
    return std::find_if(R.Metrics.begin(), R.Metrics.end(),
                        [&](const Metric &X) { return X.Name == M.Name; });
  };
  for (const MetricInfo &M : Declared)
    if (Find(M) == R.Metrics.end()) {
      std::printf("FAIL metric %s was not measured\n", M.Name);
      R.Correct = false;
    }
  std::string Out;
  modsched::json::JsonWriter W(Out);
  W.beginObject();
  W.key("correct").value(R.Correct && R.Failed == 0);
  W.key("attempted").value(R.Attempted);
  W.key("failed").value(R.Failed);
  W.key("metrics").beginObject();
  for (const MetricInfo &M : Declared) {
    auto It = Find(M);
    if (It == R.Metrics.end())
      continue;
    W.key(M.Name).beginObject();
    W.key("value").value(It->Value);
    W.key("unit").value(M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::fflush(stdout);
  std::printf("%s\n", Out.c_str());
  return R.Correct && R.Failed == 0 ? 0 : 1;
}

//===- perfbench/src/Main.cpp - Benchmark command line ------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_run --workload W --seed N --seconds S --trace 0|1
///               [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
///
/// Prints the host fingerprint, one line per metric, and as the last line
/// of standard output the result object
/// {"correct", "attempted", "failed", "metrics"}. With --out-dir it also
/// writes the full result (fingerprint, metrics, report) there and, when
/// traced, the spans as JSON lines.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <string>
#include <thread>

using namespace perfbench;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string hostJson(const std::string &GitSha, const std::string &Digest) {
  std::ostringstream O;
  O << "{\"cores\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": \"" << jsonEscape(cpuModel())
    << "\", \"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER)
    << "\", \"flags\": \"" << jsonEscape(PERFBENCH_FLAGS)
    << "\", \"build_type\": \"" << jsonEscape(PERFBENCH_BUILD_TYPE)
    << "\", \"git_sha\": \"" << jsonEscape(GitSha)
    << "\", \"source_digest\": \"" << jsonEscape(Digest) << "\"}";
  return O.str();
}

std::string metricsJson(const std::map<std::string, Metric> &M) {
  std::ostringstream O;
  O.precision(17);
  O << "{";
  bool First = true;
  for (const auto &[Name, Mt] : M) {
    O << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": " << Mt.Value
      << ", \"unit\": \"" << Mt.Unit << "\"}";
    First = false;
  }
  O << "}";
  return O.str();
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload W "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--git-sha SHA] [--source-digest HEX]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts;
  std::string OutDir, GitSha = "unknown", Digest = "unknown";
  bool HaveWorkload = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload") {
      Opts.Workload = Val;
      HaveWorkload = true;
    } else if (Key == "--seed") {
      Opts.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    } else if (Key == "--seconds") {
      Opts.Seconds = std::strtod(Val.c_str(), nullptr);
    } else if (Key == "--trace") {
      Opts.Trace = Val == "1";
    } else if (Key == "--out-dir") {
      OutDir = Val;
    } else if (Key == "--git-sha") {
      GitSha = Val;
    } else if (Key == "--source-digest") {
      Digest = Val;
    } else {
      return usage(("unknown option " + Key).c_str());
    }
  }
  if (Argc % 2 == 0)
    return usage("every option takes a value");
  bool Known = false;
  for (const std::string &N : workloadNames())
    Known = Known || N == Opts.Workload;
  if (!HaveWorkload || !Known)
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());
  if (!(Opts.Seconds > 0))
    return usage("--seconds must be positive");

  // A fixed mmap threshold turns off glibc's adaptive one, so every
  // allocation of 1 MiB or more (lock table, workload arrays) is mapped
  // on allocation and unmapped on free. peak_rss_mb then measures the
  // largest live set rather than the allocator's reuse history.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  const std::string Host = hostJson(GitSha, Digest);
  std::printf("host %s\n", Host.c_str());
  std::fflush(stdout);

  BenchResult R;
  runBenchmark(Opts, R);

  for (const auto &[Name, M] : R.Metrics)
    std::printf("metric %-32s %.6g %s\n", Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const auto &[Name, M] : R.Report)
    std::printf("report %-32s %.6g %s\n", Name.c_str(), M.Value,
                M.Unit.c_str());

  std::ostringstream Result;
  Result << "{\"correct\": " << (R.Checks.correct() ? "true" : "false")
         << ", \"attempted\": " << R.Checks.attempted()
         << ", \"failed\": " << R.Checks.failed()
         << ", \"metrics\": " << metricsJson(R.Metrics) << "}";

  if (!OutDir.empty()) {
    std::string Stem = OutDir + "/" + Opts.Workload + "-seed" +
                       std::to_string(Opts.Seed) + "-trace" +
                       (Opts.Trace ? "1" : "0");
    std::ofstream F(Stem + ".json");
    F << "{\"workload\": \"" << Opts.Workload << "\", \"seed\": " << Opts.Seed
      << ", \"seconds\": " << Opts.Seconds << ", \"host\": " << Host
      << ", \"result\": " << Result.str()
      << ", \"report\": " << metricsJson(R.Report) << "}\n";
    if (Opts.Trace && !R.Spans.writeJsonLines(Stem + ".spans.jsonl"))
      std::fprintf(stderr, "perfbench_run: cannot write spans under %s\n",
                   OutDir.c_str());
  }

  std::printf("%s\n", Result.str().c_str());
  return 0;
}

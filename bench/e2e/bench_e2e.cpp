// bench_e2e — runs one workload of the end-to-end benchmark in this
// process (bench/e2e/README.md; normally started through run.py).
//
//   bench_e2e --workload fuse-cold|kernels-hot|serve-sim
//             --scratch DIR [--seed S] [--seconds N] [--trace 0|1]
//             [--trace-file F] [--setup-reps N]
//
// Each workload runs in its own process, so the jit cache, RSS and
// thread pools never carry over between workloads.  An untraced run
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics and writes the spans as Chrome trace-event JSON to
// --trace-file.  The last stdout line is {"workload", "seed", "trace",
// "correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
// run.py checks it against BENCHMARK.json.  Exit 0 only when every output
// check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "fuse_cold.hpp"
#include "harness.hpp"
#include "kernels_hot.hpp"
#include "serve_sim.hpp"

namespace {

using namespace mcf::e2e;

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload fuse-cold|kernels-hot|serve-sim\n"
               "                 --scratch DIR [--seed S] [--seconds N] [--trace 0|1]\n"
               "                 [--trace-file F] [--setup-reps N]\n",
               why);
  return 2;
}

void print_result(const std::string& workload, const RunConfig& cfg,
                  const WorkloadResult& r) {
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::fprintf(stderr, "%s (seed %llu, %s): %lld checked, %lld failed\n",
               workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.trace ? "traced" : "untraced", static_cast<long long>(r.attempted),
               static_cast<long long>(r.failed));
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
              "\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
              workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? 1 : 0, correct ? "true" : "false",
              static_cast<long long>(r.attempted), static_cast<long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    // Non-finite values are not JSON; run.py rejects the null.
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep, name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("%s\"%s\":{\"value\":null,\"unit\":\"%s\"}", sep, name.c_str(),
                  m.unit.c_str());
    }
    sep = ",";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--scratch") {
      cfg.scratch = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      cfg.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--setup-reps") {
      cfg.setup_reps = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return usage(("not a number: " + flag + " " + value).c_str());
    }
  }
  if (cfg.scratch.empty()) return usage("--scratch is required");
  if (!(cfg.seconds > 0) || cfg.setup_reps < 1) return usage("bad --seconds/--setup-reps");
  if (cfg.trace && trace_file.empty()) return usage("--trace 1 needs --trace-file");

  try {
    std::filesystem::create_directories(cfg.scratch);
    Trace trace;
    WorkloadResult r;
    if (workload == "fuse-cold") {
      r = run_fuse_cold(cfg, trace);
    } else if (workload == "kernels-hot") {
      r = run_kernels_hot(cfg, trace);
    } else if (workload == "serve-sim") {
      r = run_serve_sim(cfg, trace);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
    if (cfg.trace) r.check(trace.write_chrome(trace_file), "writing " + trace_file);
    print_result(workload, cfg, r);
    return r.failed == 0 && r.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
}

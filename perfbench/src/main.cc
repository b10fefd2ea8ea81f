// perfbench: the PRIMA benchmark program.
//
//   perfbench --workload mmo|mmo_wire|cad --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--fault 1]
//
// Prints one JSON line on stdout: {"correct", "attempted", "failed",
// "metrics"}; the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. --fault 1 makes one expected value wrong, so the run must
// report correct = false (the self-test of the checks).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workload.h"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  perfbench::Env env;
  env.workdir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      env.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--fault") {
      cfg.fault = value == "1";
    } else if (key == "--workdir") {
      env.workdir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (cfg.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(env.workdir, ec);
  cfg.workdir = env.workdir;

  std::unique_ptr<perfbench::Workload> w;
  if (cfg.workload == "mmo") {
    w = perfbench::MakeMmo(env);
  } else if (cfg.workload == "mmo_wire") {
    env.wire = true;
    w = perfbench::MakeMmo(env);
  } else if (cfg.workload == "cad") {
    w = perfbench::MakeCad(env);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  return perfbench::RunBenchmark(*w, cfg);
}

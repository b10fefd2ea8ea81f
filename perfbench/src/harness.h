// The run: set up several times, run whole rounds of ops for the given
// number of seconds, checkpoint, crash after a fixed tail, restart several
// times, check the outputs, and print one JSON result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <string>

#include "workload.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  double seconds = 10;
  bool trace = false;
  bool fault = false;  ///< self-test: one expected value is made wrong
  std::string workdir;
};

/// Runs `w` and prints the result line. Returns the process exit code.
int RunBenchmark(Workload& w, const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

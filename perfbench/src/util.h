// Small helpers shared by every part of the benchmark: clocks, a seeded
// generator that does not depend on the kernel's own, and order statistics.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace perfbench {

using prima::util::Result;
using prima::util::Status;

inline uint64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
inline uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
inline uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
inline uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

/// splitmix64: every op of every workload draws from a generator seeded by
/// (run seed, op sequence number), so an op is reproducible on its own.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  static Rng ForOp(uint64_t seed, uint64_t stream, uint64_t seq) {
    Rng r(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xBF58476D1CE4E5B9ull ^
          seq * 0xD6E8FEB86659FD93ull);
    r.Next();
    return r;
  }
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }
  /// Skewed pick in [0, n): index = n * u^3, so the lowest 1% of the keys
  /// receive about a fifth of the picks (hot players, hot items).
  uint64_t Skewed(uint64_t n) {
    const double u = Unit();
    const uint64_t i = static_cast<uint64_t>(static_cast<double>(n) * u * u * u);
    return i >= n ? n - 1 : i;
  }

 private:
  uint64_t state_;
};

/// Nearest-rank percentile of an unsorted sample (p in (0, 100]).
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank == 0) rank = 1;
  return static_cast<double>(v[std::min(rank, v.size()) - 1]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  if (v.empty()) return 0.0;
  std::vector<T> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? static_cast<double>(s[n / 2])
                    : (static_cast<double>(s[n / 2 - 1]) + s[n / 2]) / 2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_

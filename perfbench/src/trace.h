// Benchmark-side spans for the traced run. Every op gets a span; inside it,
// every session or client call, every cursor Next() and every device call
// gets one, keyed by the op's sequence number. Spans stay in memory and are
// written out as JSON lines when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

/// Span depths: the op itself, the calls the op makes into the kernel's
/// public API, and the device calls the kernel makes underneath them (from
/// whichever thread issues them).
enum SpanDepth : uint8_t { kOpDepth = 0, kCallDepth = 1, kDeviceDepth = 2 };

struct Span {
  uint64_t op = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  const char* name = "";  ///< "<layer>.<call>", static storage
  uint8_t depth = 0;
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  /// Sequence number of the op in flight (device spans from kernel threads
  /// are charged to it).
  uint64_t current_op() const { return op_.load(std::memory_order_relaxed); }
  void set_current_op(uint64_t seq) { op_.store(seq, std::memory_order_relaxed); }

  void Record(const char* name, uint8_t depth, uint64_t start, uint64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{current_op(), start, end, name, depth});
  }
  /// The recorded spans (call once recording has stopped).
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> op_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// The run's tracer, or null in an untraced run.
Tracer* ActiveTracer();
void InstallTracer(Tracer* tracer);

/// Times one call when the tracer is recording; costs one load otherwise.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint8_t depth)
      : tracer_(ActiveTracer()), name_(name), depth_(depth) {
    if (tracer_ != nullptr && tracer_->on()) {
      start_ = NowNs();
    } else {
      tracer_ = nullptr;
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Record(name_, depth_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  uint8_t depth_;
  uint64_t start_ = 0;
};

/// Self time per layer over every traced op. Each instant of an op's wall
/// time is charged to the deepest span covering it (the latest-starting one
/// on ties); instants no call span covers are the op's own, reported as
/// "unattributed". One cursor sweeps each op from start to end, so its
/// charges add up to its wall time exactly, by construction.
struct Attribution {
  uint64_t ops = 0;
  uint64_t wall_ns = 0;
  std::map<std::string, uint64_t> self_ns;     ///< layer -> ns; "unattributed"
  std::map<std::string, std::vector<uint64_t>> call_ns;  ///< span name -> durations
};

Attribution Attribute(const std::vector<Span>& spans);

/// Write the spans of the first `max_ops` traced ops as JSON lines:
/// {"op","name","start_ns","end_ns","parent"}, where parent names the
/// enclosing span ("op" for calls).
Status WriteSpans(const std::vector<Span>& spans, uint64_t max_ops,
                  const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

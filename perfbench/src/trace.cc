#include "trace.h"

#include <cstdio>
#include <cstring>
#include <set>
#include <tuple>

namespace perfbench {

namespace {
/// Read by kernel threads (device calls) while the harness installs it.
std::atomic<Tracer*> g_tracer{nullptr};

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

/// Spans of one op, sorted by start, op span first.
void AttributeOp(const std::vector<const Span*>& spans, Attribution* out) {
  const Span* op = nullptr;
  for (const Span* s : spans) {
    if (s->depth == kOpDepth) op = s;
  }
  if (op == nullptr) return;
  const uint64_t lo = op->start, hi = op->end;
  // Sweep events over the clipped child spans: (time, is_start, index).
  std::vector<std::tuple<uint64_t, int, size_t>> events;
  std::vector<const Span*> kids;
  for (const Span* s : spans) {
    if (s == op) continue;
    const uint64_t a = std::max(s->start, lo), b = std::min(s->end, hi);
    if (a >= b) continue;
    kids.push_back(s);
    events.emplace_back(a, 1, kids.size() - 1);
    events.emplace_back(b, 0, kids.size() - 1);
  }
  std::sort(events.begin(), events.end());
  // Active set ordered so that the last element is the deepest span, the
  // latest-starting among equals.
  auto key = [&](size_t i) {
    return std::make_tuple(kids[i]->depth, std::max(kids[i]->start, lo), i);
  };
  std::set<std::tuple<uint8_t, uint64_t, size_t>> active;
  uint64_t cursor = lo;
  auto charge = [&](uint64_t until) {
    if (until <= cursor) return;
    const uint64_t d = until - cursor;
    const std::string layer =
        active.empty() ? "unattributed"
                       : LayerOf(kids[std::get<2>(*active.rbegin())]->name);
    out->self_ns[layer] += d;
    cursor = until;
  };
  for (const auto& [t, is_start, i] : events) {
    charge(t);
    if (is_start) {
      active.insert(key(i));
    } else {
      active.erase(key(i));
    }
  }
  charge(hi);
  out->ops++;
  out->wall_ns += hi - lo;
  for (const Span* s : kids) out->call_ns[s->name].push_back(s->end - s->start);
}
}  // namespace

Tracer* ActiveTracer() { return g_tracer.load(std::memory_order_acquire); }
void InstallTracer(Tracer* tracer) { g_tracer.store(tracer, std::memory_order_release); }

Attribution Attribute(const std::vector<Span>& spans) {
  std::vector<const Span*> sorted;
  sorted.reserve(spans.size());
  for (const Span& s : spans) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(), [](const Span* a, const Span* b) {
    return std::tie(a->op, a->start, a->depth) < std::tie(b->op, b->start, b->depth);
  });
  Attribution out;
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i;
    while (j < sorted.size() && sorted[j]->op == sorted[i]->op) ++j;
    if (sorted[i]->op != 0) {
      AttributeOp(std::vector<const Span*>(sorted.begin() + i, sorted.begin() + j),
                  &out);
    }
    i = j;
  }
  return out;
}

Status WriteSpans(const std::vector<Span>& spans, uint64_t max_ops,
                  const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::set<uint64_t> ops;
  for (const Span& s : spans) {
    if (s.depth == kOpDepth && ops.size() < max_ops) ops.insert(s.op);
  }
  // Call spans of the benchmark thread never overlap, so a device span's parent
  // is the call span of its op that was open when it started.
  std::vector<const Span*> calls;
  for (const Span& s : spans) {
    if (s.depth == kCallDepth) calls.push_back(&s);
  }
  std::sort(calls.begin(), calls.end(), [](const Span* a, const Span* b) {
    return std::tie(a->op, a->start) < std::tie(b->op, b->start);
  });
  for (const Span& s : spans) {
    if (ops.count(s.op) == 0) continue;
    const char* parent = "";
    if (s.depth == kCallDepth) {
      parent = "op";
    } else if (s.depth == kDeviceDepth) {
      parent = "op";
      auto it = std::upper_bound(
          calls.begin(), calls.end(), std::make_pair(s.op, s.start),
          [](const std::pair<uint64_t, uint64_t>& v, const Span* c) {
            return v < std::make_pair(c->op, c->start);
          });
      if (it != calls.begin()) {
        const Span* c = *(it - 1);
        if (c->op == s.op && c->end >= s.start) parent = c->name;
      }
    }
    std::fprintf(f,
                 "{\"op\":%llu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":\"%s\"}\n",
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end), parent);
  }
  return std::fclose(f) == 0 ? Status::Ok() : Status::IoError("write " + path);
}

}  // namespace perfbench

#include "harness.h"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "trace.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Traced ops whose spans are written out (all of them feed the metrics).
constexpr uint64_t kSpansWritten = 1000;
/// Set-ups and restarts per timed run; setup_s and restart_s are medians.
constexpr int kSetups = 3;
constexpr int kRestarts = 21;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Hist {
  uint64_t count = 0;
  uint64_t sum = 0;
};

Hist Of(const prima::obs::HistogramSnapshot& h) { return {h.count, h.sum}; }

/// Every public counter the per-layer table is built from, at one instant.
struct Snap {
  prima::core::PrimaStatsSnapshot stats;
  Hist parse, plan, force, request, encode;
  DeviceCounters dev;
  ConnCounters conn;
};

Snap Take(Workload& w) {
  Snap s;
  prima::core::Prima* db = w.db();
  s.stats = db->stats();
  prima::obs::Telemetry* t = db->telemetry();
  s.parse = Of(t->parse_us()->Snapshot());
  s.plan = Of(t->plan_us()->Snapshot());
  s.force = Of(t->commit_force_us()->Snapshot());
  s.request = Of(t->net_request_us()->Snapshot());
  s.encode = Of(t->net_encode_us()->Snapshot());
  s.dev = w.device()->counters();
  s.conn = w.conn()->counters();
  return s;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }
double MeanOf(const Hist& a, const Hist& b) {
  return Ratio(static_cast<double>(a.sum - b.sum),
               static_cast<double>(a.count - b.count));
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;
}

/// EXPLAIN ANALYZE total minus what its phases explain, in microseconds. A
/// top-level phase explains its own time or, when it is only a container
/// (execute), the sum of its direct children.
Result<double> Unattributed(const std::string& rendered) {
  std::istringstream in(rendered);
  std::string line;
  double total = -1, phases = 0, own = 0, children = 0;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string name, number, unit;
    words >> name >> number >> unit;
    if (name == "total") {
      total = std::stod(number);
      continue;
    }
    if (total < 0 || unit != "us") continue;
    const size_t indent = line.find_first_not_of(' ');
    if (indent == 0) {
      phases += std::max(own, children);
      own = std::stod(number);
      children = 0;
    } else if (indent == 2) {
      children += std::stod(number);
    }
  }
  if (total < 0) return Status::Corruption("no total in EXPLAIN ANALYZE output");
  return total - phases - std::max(own, children);
}

/// Median over a few runs of each statement shape, averaged over shapes.
/// The last tree of each shape is appended to `trees`.
Result<double> ExplainUnattributed(Workload& w, prima::core::Prima* db,
                                   std::string* trees) {
  auto session = db->OpenSession();
  double sum = 0;
  const auto shapes = w.ExplainShapes();
  for (const auto& shape : shapes) {
    std::vector<double> runs;
    std::string last;
    for (int i = 0; i < 7; ++i) {
      if (shape.dml) PRIMA_RETURN_IF_ERROR(session->Execute("BEGIN WORK").status());
      auto r = session->Execute("EXPLAIN ANALYZE " + shape.text);
      if (shape.dml) PRIMA_RETURN_IF_ERROR(session->Execute("ABORT WORK").status());
      if (!r.ok()) return r.status();
      PRIMA_ASSIGN_OR_RETURN(const double u, Unattributed(r->text));
      runs.push_back(u);
      last = r->text;
    }
    sum += Median(runs);
    *trees += shape.text + "\n" + last + "unattributed (median of 7) " +
              std::to_string(Median(runs)) + " us\n\n";
  }
  return Ratio(sum, static_cast<double>(shapes.size()));
}

void Print(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int RunBenchmark(Workload& w, const RunConfig& cfg) {
  std::vector<std::string> problems;
  auto problem = [&](const std::string& what) {
    std::fprintf(stderr, "perfbench %s: %s\n", cfg.workload.c_str(), what.c_str());
    problems.push_back(what);
  };

  // --- set-up, repeated; the last one is kept --------------------------------
  std::vector<double> setup_s;
  const int setups = cfg.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    const uint64_t t0 = NowNs();
    Status st = w.Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench %s: setup failed: %s\n",
                   cfg.workload.c_str(), st.ToString().c_str());
      return 1;
    }
    if (i + 1 < setups) w.Teardown();
  }

  // --- timed phase: whole rounds until the time is up --------------------------
  Tracer tracer;
  if (cfg.trace) InstallTracer(&tracer);
  const auto& op_spans = w.kind_spans();
  std::vector<uint64_t> lat_all;
  std::vector<uint64_t> lat_cls[4];
  uint64_t attempted = 0, failed = 0, writes = 0;
  uint64_t traced_ops = 0, traced_ns = 0, plain_ops = 0, plain_ns = 0;
  uint64_t plain_cpu_ns = 0;
  uint64_t seq = 0;
  std::string first_error;
  const Snap before = Take(w);
  const uint64_t start = NowNs();
  const uint64_t deadline = static_cast<uint64_t>(cfg.seconds * 1e9);
  for (uint64_t round = 0;; ++round) {
    const bool traced = cfg.trace && round % 2 == 1;
    tracer.set_on(traced);
    const uint64_t r0 = NowNs(), c0 = ProcessCpuNs();
    for (size_t i = 0; i < w.round_ops(); ++i) {
      ++seq;
      tracer.set_current_op(seq);
      const uint64_t t0 = NowNs();
      Result<OpOutcome> r = w.RunOp(seq);
      const uint64_t t1 = NowNs();
      ++attempted;
      if (!r.ok()) {
        if (failed++ == 0) first_error = r.status().ToString();
        continue;
      }
      if (traced) tracer.Record(op_spans[r->kind], kOpDepth, t0, t1);
      lat_all.push_back(t1 - t0);
      lat_cls[static_cast<int>(r->cls)].push_back(t1 - t0);
      if (r->cls == OpClass::kWrite) ++writes;
    }
    const uint64_t r1 = NowNs();
    if (traced) {
      traced_ops += w.round_ops();
      traced_ns += r1 - r0;
    } else {
      plain_ops += w.round_ops();
      plain_ns += r1 - r0;
      plain_cpu_ns += ProcessCpuNs() - c0;
    }
    // At least 1000 samples, so that 10 lie beyond op_p99_us.
    if (r1 - start >= deadline && lat_all.size() >= 1000) break;
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  tracer.set_on(false);
  tracer.set_current_op(0);
  const Snap after = Take(w);
  if (failed > 0) {
    std::fprintf(stderr, "perfbench %s: %llu failed ops, first: %s\n",
                 cfg.workload.c_str(), static_cast<unsigned long long>(failed),
                 first_error.c_str());
  }

  // --- final checkpoint, then a fixed tail of ops and the crash image ---------
  Status st = w.db()->Flush();
  if (!st.ok()) problem("checkpoint: " + st.ToString());
  const double db_mb = static_cast<double>(w.device()->DataBytes()) / kMiB;
  // The tail is the same work in every run, right after a checkpoint, so
  // its log volume per write transaction does not depend on how many
  // daemon checkpoints (and full-page images) the timed phase happened to
  // include.
  const uint64_t log_before_tail = w.db()->stats().wal.bytes_appended;
  uint64_t tail_writes = 0;
  for (size_t i = 0; i < w.tail_ops(); ++i) {
    Result<OpOutcome> r = w.RunOp(++seq);
    if (!r.ok()) {
      problem("tail op: " + r.status().ToString());
      break;
    }
    if (r->cls == OpClass::kWrite) ++tail_writes;
  }
  const uint64_t tail_log_bytes = w.db()->stats().wal.bytes_appended - log_before_tail;
  const double tail_log_mb = static_cast<double>(tail_log_bytes) / kMiB;
  // Read before the crash image and its restart copies exist: the peak so
  // far covers set-up, the timed phase and the tail, and nothing the
  // benchmark copies afterwards.
  const double peak_rss_mb = PeakRssMb();
  st = w.SaveCrashImage();
  if (!st.ok()) problem("crash image: " + st.ToString());

  // --- checks after the run ----------------------------------------------------
  if (cfg.fault) w.InjectFault();
  if (w.mismatches() > 0) {
    problem(std::to_string(w.mismatches()) +
            " op results disagreed with the shadow, first: " + w.first_mismatch());
  }
  st = w.Check(w.db(), true);
  if (!st.ok()) problem("check after run: " + st.ToString());
  w.Teardown();

  // --- restarts over fresh copies of the crash image -----------------------------
  std::vector<double> restart_s;
  uint64_t redo_records = 0;
  double unattributed_us = 0;
  std::string explain_trees;
  const int restarts = cfg.trace ? 2 : kRestarts;
  for (int i = 0; i < restarts && problems.empty(); ++i) {
    double open_s = 0;
    auto restarted = w.OpenCrashCopy(&open_s);
    if (!restarted.ok()) {
      problem("restart: " + restarted.status().ToString());
      break;
    }
    restart_s.push_back(open_s);
    prima::core::Prima* db = (*restarted)->db();
    redo_records = db->wal_stats().redo_records_applied;
    st = w.Check(db, i == 0);
    if (!st.ok()) problem("check after restart: " + st.ToString());
    if (cfg.trace && i + 1 == restarts) {
      auto u = ExplainUnattributed(w, db, &explain_trees);
      if (!u.ok()) {
        problem("explain analyze: " + u.status().ToString());
      } else {
        unattributed_us = *u;
      }
    }
  }
  w.DropCrashImage();

  const bool correct = problems.empty();
  const double ops = static_cast<double>(attempted - failed);
  std::vector<Metric> m;
  if (!cfg.trace) {
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"ops_per_s", ops / wall_s, "1/s"});
    m.push_back({"op_p50_us", Percentile(lat_all, 50) / 1e3, "us"});
    m.push_back({"op_p99_us", Percentile(lat_all, 99) / 1e3, "us"});
    m.push_back({"read_p50_us", Median(lat_cls[0]) / 1e3, "us"});
    m.push_back({"write_txn_p50_us", Median(lat_cls[1]) / 1e3, "us"});
    m.push_back({"molecule_p50_us", Median(lat_cls[2]) / 1e3, "us"});
    m.push_back({"restart_s", Median(restart_s), "s"});
    m.push_back({"log_bytes_per_txn",
                 Ratio(static_cast<double>(tail_log_bytes), static_cast<double>(tail_writes)),
                 "B"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    m.push_back({"db_mb", db_mb, "MB"});
    Print(correct, attempted, failed, m);
    return 0;
  }

  // --- per-layer table (traced run) ------------------------------------------------
  const auto& a = after.stats;
  const auto& b = before.stats;
  auto per_op = [&](double v) { return Ratio(v, ops); };
  auto per_txn = [&](double v) { return Ratio(v, static_cast<double>(writes)); };
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(x - y); };
  const std::vector<Span> recorded = tracer.Take();
  const Attribution attr = Attribute(recorded);
  const double tops = static_cast<double>(attr.ops);
  auto median_us = [&](std::initializer_list<const char*> names) {
    std::vector<uint64_t> all;
    for (const char* n : names) {
      auto it = attr.call_ns.find(n);
      if (it != attr.call_ns.end()) all.insert(all.end(), it->second.begin(), it->second.end());
    }
    return Median(all) / 1e3;
  };
  auto self_us = [&](const char* layer) {
    auto it = attr.self_ns.find(layer);
    return it == attr.self_ns.end() ? 0.0 : Ratio(static_cast<double>(it->second), tops) / 1e3;
  };
  double net_calls = 0, net_call_ns = 0, device_ns = 0;
  for (const auto& [name, durations] : attr.call_ns) {
    for (uint64_t ns : durations) {
      if (name.rfind("net.", 0) == 0) {
        net_calls += 1;
        net_call_ns += static_cast<double>(ns);
      } else if (name.rfind("storage.", 0) == 0) {
        device_ns += static_cast<double>(ns);
      }
    }
  }
  const double client_call_us = Ratio(net_call_ns, net_calls) / 1e3;
  const double server_request_us = MeanOf(after.request, before.request);
  const double built = d(a.data.molecules_built, b.data.molecules_built);
  const double hits = d(a.buffer.hits, b.buffer.hits);
  const double misses = d(a.buffer.misses, b.buffer.misses);
  const DeviceCounters dev = after.dev.Minus(before.dev);
  const double plain_rate = Ratio(static_cast<double>(plain_ops), static_cast<double>(plain_ns));
  const double traced_rate = Ratio(static_cast<double>(traced_ops), static_cast<double>(traced_ns));

  m.push_back({"core.begin_us", median_us({"core.begin", "net.begin"}), "us"});
  m.push_back({"core.commit_us", median_us({"core.commit", "net.commit"}), "us"});
  m.push_back({"core.statements_per_op",
               per_op(d(after.conn.statements, before.conn.statements)), "count"});
  m.push_back({"core.txns_per_op", per_op(d(a.txn.begun, b.txn.begun)), "count"});
  m.push_back({"core.cpu_us_per_op",
               Ratio(static_cast<double>(plain_cpu_ns), static_cast<double>(plain_ops)) / 1e3,
               "us"});
  m.push_back({"mql.parse_us_per_op", per_op(d(after.parse.sum, before.parse.sum)), "us"});
  m.push_back({"mql.plan_us_per_op", per_op(d(after.plan.sum, before.plan.sum)), "us"});
  m.push_back({"mql.parses_per_op", per_op(d(after.parse.count, before.parse.count)), "count"});
  m.push_back({"mql.plans_per_op", per_op(d(after.plan.count, before.plan.count)), "count"});
  m.push_back({"mql.molecules_built_per_op", per_op(built), "count"});
  m.push_back({"mql.useful_molecule_ratio",
               Ratio(d(after.conn.molecules, before.conn.molecules), built), "ratio"});
  m.push_back({"mql.cursor_next_us", median_us({"mql.next", "net.next"}), "us"});
  m.push_back({"mql.cursor_offcpu_us_per_op",
               Ratio(d(after.conn.cursor_offcpu_ns, before.conn.cursor_offcpu_ns), tops) / 1e3,
               "us"});
  m.push_back({"mql.unattributed_us", unattributed_us, "us"});
  m.push_back({"access.atoms_read_per_op", per_op(d(a.access.atoms_read, b.access.atoms_read)),
               "count"});
  m.push_back({"access.atoms_modified_per_op",
               per_op(d(a.access.atoms_modified, b.access.atoms_modified)), "count"});
  m.push_back({"access.key_lookups_per_op", per_op(d(a.data.key_lookups, b.data.key_lookups)),
               "count"});
  m.push_back({"access.backref_updates_per_op",
               per_op(d(a.access.backref_maintenance, b.access.backref_maintenance)), "count"});
  m.push_back({"access.versions_installed_per_txn",
               per_txn(d(a.versions.versions_installed, b.versions.versions_installed)),
               "count"});
  m.push_back({"access.chain_walks_per_op",
               per_op(d(a.versions.chain_walks, b.versions.chain_walks)), "count"});
  m.push_back({"storage.buffer_hits_per_op", per_op(hits), "count"});
  m.push_back({"storage.buffer_misses_per_op", per_op(misses), "count"});
  m.push_back({"storage.hit_ratio", Ratio(hits, hits + misses), "ratio"});
  m.push_back({"storage.evictions_per_op", per_op(d(a.buffer.evictions, b.buffer.evictions)),
               "count"});
  m.push_back({"storage.writebacks_per_op", per_op(d(a.buffer.writebacks, b.buffer.writebacks)),
               "count"});
  m.push_back({"storage.prefetched_pages_per_op",
               per_op(d(a.buffer.prefetched_pages, b.buffer.prefetched_pages)), "count"});
  m.push_back({"storage.device_reads_per_op",
               per_op(static_cast<double>(dev.reads + dev.chained_reads)), "count"});
  m.push_back({"storage.device_writes_per_op",
               per_op(static_cast<double>(dev.writes + dev.chained_writes)), "count"});
  m.push_back({"storage.device_chained_per_op",
               per_op(static_cast<double>(dev.chained_reads + dev.chained_writes)), "count"});
  m.push_back({"storage.device_syncs_per_op", per_op(static_cast<double>(dev.syncs)), "count"});
  m.push_back({"storage.device_us_per_op", Ratio(device_ns, tops) / 1e3, "us"});
  m.push_back({"recovery.log_records_per_txn",
               per_txn(d(a.wal.records_appended, b.wal.records_appended)), "count"});
  m.push_back({"recovery.fpi_bytes_per_txn",
               per_txn(d(a.wal.full_page_image_bytes, b.wal.full_page_image_bytes)), "B"});
  m.push_back({"recovery.forces_per_op", per_op(d(a.wal.forces, b.wal.forces)), "count"});
  m.push_back({"recovery.commit_force_us", MeanOf(after.force, before.force), "us"});
  m.push_back({"recovery.redo_records", static_cast<double>(redo_records), "count"});
  m.push_back({"recovery.restart_log_mb", tail_log_mb, "MB"});
  m.push_back({"recovery.restart_s", Median(restart_s), "s"});
  m.push_back({"net.round_trips_per_op", per_op(d(after.request.count, before.request.count)),
               "count"});
  m.push_back({"net.client_call_us", client_call_us, "us"});
  m.push_back({"net.server_request_us", server_request_us, "us"});
  m.push_back({"net.transport_us_per_call",
               net_calls > 0 ? client_call_us - server_request_us : 0.0, "us"});
  m.push_back({"net.encode_us", MeanOf(after.encode, before.encode), "us"});
  m.push_back({"obs.trace_overhead_pct", (Ratio(plain_rate, traced_rate) - 1.0) * 100.0, "%"});
  m.push_back({"obs.op_wall_us", Ratio(static_cast<double>(attr.wall_ns), tops) / 1e3, "us"});
  m.push_back({"obs.core_self_us_per_op", self_us("core"), "us"});
  m.push_back({"obs.mql_self_us_per_op", self_us("mql"), "us"});
  m.push_back({"obs.net_self_us_per_op", self_us("net"), "us"});
  m.push_back({"obs.storage_self_us_per_op", self_us("storage"), "us"});
  m.push_back({"obs.unattributed_us_per_op", self_us("unattributed"), "us"});

  st = WriteSpans(recorded, kSpansWritten,
                  cfg.workdir + "/spans-" + cfg.workload + ".jsonl");
  if (!st.ok()) problem(st.ToString());
  if (FILE* f = std::fopen((cfg.workdir + "/explain-" + cfg.workload + ".txt").c_str(), "w")) {
    std::fputs(explain_trees.c_str(), f);
    std::fclose(f);
  }
  InstallTracer(nullptr);
  Print(problems.empty(), attempted, failed, m);
  return 0;
}

}  // namespace perfbench

#include "conn.h"

#include "net/server.h"
#include "trace.h"

namespace perfbench {

namespace {

Status StatusOf(const Result<ExecResult>& r) {
  return r.ok() ? Status::Ok() : r.status();
}

/// Drain a local or remote cursor. In traced rounds every Next() is a span,
/// and its wall time minus the calling thread's CPU time is the time the
/// caller spent waiting off-CPU (for a pool worker or the server).
template <typename Cursor>
Result<uint64_t> Drain(Cursor& cursor, const char* span_name,
                       const std::function<void(const Molecule&)>& visit,
                       ConnCounters* counters) {
  Tracer* tracer = ActiveTracer();
  uint64_t n = 0;
  while (true) {
    const bool traced = tracer != nullptr && tracer->on();
    const uint64_t wall0 = traced ? NowNs() : 0;
    const uint64_t cpu0 = traced ? ThreadCpuNs() : 0;
    auto next = cursor.Next();
    if (traced) {
      const uint64_t cpu = ThreadCpuNs() - cpu0;
      const uint64_t wall1 = NowNs();
      tracer->Record(span_name, kCallDepth, wall0, wall1);
      if (wall1 - wall0 > cpu) counters->cursor_offcpu_ns += wall1 - wall0 - cpu;
    }
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    visit(**next);
    ++n;
  }
  counters->molecules += n;
  return n;
}

class LocalConn final : public Conn {
 public:
  explicit LocalConn(prima::core::Prima* db) : session_(db->OpenSession()) {}

  Result<ExecResult> Execute(const std::string& mql) override {
    ScopedSpan span("core.execute", kCallDepth);
    return Run(mql);
  }
  Status Begin() override {
    ScopedSpan span("core.begin", kCallDepth);
    return StatusOf(Run("BEGIN WORK"));
  }
  Status Commit() override {
    ScopedSpan span("core.commit", kCallDepth);
    return StatusOf(Run("COMMIT WORK"));
  }
  Status Abort() override {
    ScopedSpan span("core.abort", kCallDepth);
    return StatusOf(Run("ABORT WORK"));
  }
  Status Prepare(size_t slot, const std::string& mql) override {
    if (slots_.size() <= slot) slots_.resize(slot + 1);
    PRIMA_ASSIGN_OR_RETURN(auto stmt, session_->Prepare(mql));
    slots_[slot].emplace(std::move(stmt));
    return Status::Ok();
  }
  Status Bind(size_t slot, size_t index, const Value& v) override {
    ScopedSpan span("core.bind", kCallDepth);
    return slots_[slot]->Bind(index, v);
  }
  Result<ExecResult> ExecutePrepared(size_t slot) override {
    ScopedSpan span("core.execute_prepared", kCallDepth);
    counters_.statements++;
    Result<ExecResult> r = slots_[slot]->Execute();
    if (r.ok()) counters_.molecules += r->molecules.molecules.size();
    return r;
  }
  Result<uint64_t> Scan(
      size_t slot,
      const std::function<void(const Molecule&)>& visit) override {
    Result<prima::mql::MoleculeCursor> opened = [&] {
      ScopedSpan span("core.query", kCallDepth);
      counters_.statements++;
      return slots_[slot]->Query();
    }();
    if (!opened.ok()) return opened.status();
    return Drain(*opened, "mql.next", visit, &counters_);
  }

 private:
  Result<ExecResult> Run(const std::string& mql) {
    counters_.statements++;
    Result<ExecResult> r = session_->Execute(mql);
    if (r.ok()) counters_.molecules += r->molecules.molecules.size();
    return r;
  }

  std::unique_ptr<prima::core::Session> session_;
  std::vector<std::optional<prima::core::PreparedStatement>> slots_;
};

class WireConn final : public Conn {
 public:
  explicit WireConn(std::unique_ptr<prima::net::Client> client)
      : client_(std::move(client)) {}
  ~WireConn() override {
    slots_.clear();
    (void)client_->Close();
  }

  Result<ExecResult> Execute(const std::string& mql) override {
    ScopedSpan span("net.execute", kCallDepth);
    return Run(mql);
  }
  Status Begin() override {
    ScopedSpan span("net.begin", kCallDepth);
    return StatusOf(Run("BEGIN WORK"));
  }
  Status Commit() override {
    ScopedSpan span("net.commit", kCallDepth);
    return StatusOf(Run("COMMIT WORK"));
  }
  Status Abort() override {
    ScopedSpan span("net.abort", kCallDepth);
    return StatusOf(Run("ABORT WORK"));
  }
  Status Prepare(size_t slot, const std::string& mql) override {
    if (slots_.size() <= slot) slots_.resize(slot + 1);
    PRIMA_ASSIGN_OR_RETURN(auto stmt, client_->Prepare(mql));
    slots_[slot].emplace(std::move(stmt));
    return Status::Ok();
  }
  Status Bind(size_t slot, size_t index, const Value& v) override {
    ScopedSpan span("net.bind", kCallDepth);
    return slots_[slot]->Bind(static_cast<uint32_t>(index), v);
  }
  Result<ExecResult> ExecutePrepared(size_t slot) override {
    ScopedSpan span("net.execute_prepared", kCallDepth);
    counters_.statements++;
    Result<ExecResult> r = slots_[slot]->Execute();
    if (r.ok()) counters_.molecules += r->molecules.molecules.size();
    return r;
  }
  Result<uint64_t> Scan(
      size_t slot,
      const std::function<void(const Molecule&)>& visit) override {
    Result<prima::net::RemoteCursor> opened = [&] {
      ScopedSpan span("net.query", kCallDepth);
      counters_.statements++;
      return slots_[slot]->Query(64);
    }();
    if (!opened.ok()) return opened.status();
    PRIMA_ASSIGN_OR_RETURN(const uint64_t n,
                           Drain(*opened, "net.next", visit, &counters_));
    ScopedSpan span("net.close", kCallDepth);
    PRIMA_RETURN_IF_ERROR(opened->Close());
    return n;
  }

 private:
  Result<ExecResult> Run(const std::string& mql) {
    counters_.statements++;
    Result<ExecResult> r = client_->Execute(mql);
    if (r.ok()) counters_.molecules += r->molecules.molecules.size();
    return r;
  }

  std::unique_ptr<prima::net::Client> client_;
  std::vector<std::optional<prima::net::RemoteStatement>> slots_;
};

}  // namespace

std::unique_ptr<Conn> OpenLocalConn(prima::core::Prima* db) {
  return std::make_unique<LocalConn>(db);
}

Result<std::unique_ptr<Conn>> OpenWireConn(prima::core::Prima* db) {
  if (db->net_server() == nullptr) {
    return Status::InvalidArgument("database has no network server");
  }
  PRIMA_ASSIGN_OR_RETURN(
      auto client,
      prima::net::Client::Connect("127.0.0.1", db->net_server()->port()));
  return std::unique_ptr<Conn>(new WireConn(std::move(client)));
}

}  // namespace perfbench

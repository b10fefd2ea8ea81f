// One transport-neutral connection: an in-process core::Session or one
// net::Client connection, driven through the same calls so that `mmo` and
// `mmo_wire` run the identical op stream. Every call is a span in the traced
// run and is counted in every run.
#ifndef PERFBENCH_CONN_H_
#define PERFBENCH_CONN_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/prima.h"
#include "net/client.h"
#include "util.h"

namespace perfbench {

using prima::access::Tid;
using prima::access::Value;
using prima::mql::ExecResult;
using prima::mql::Molecule;

struct ConnCounters {
  uint64_t statements = 0;  ///< statements executed, cursor opens included
  uint64_t molecules = 0;   ///< molecules handed back to the benchmark
  uint64_t cursor_offcpu_ns = 0;  ///< traced rounds: Next() wall minus CPU
};

class Conn {
 public:
  Conn() = default;
  virtual ~Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  virtual Result<ExecResult> Execute(const std::string& mql) = 0;
  /// BEGIN WORK / COMMIT WORK / ABORT WORK, sent as statements.
  virtual Status Begin() = 0;
  virtual Status Commit() = 0;
  virtual Status Abort() = 0;
  virtual Status Prepare(size_t slot, const std::string& mql) = 0;
  virtual Status Bind(size_t slot, size_t index, const Value& v) = 0;
  virtual Result<ExecResult> ExecutePrepared(size_t slot) = 0;
  /// Open a cursor on the prepared SELECT in `slot` and drain it, handing
  /// every molecule to `visit`. Returns the molecule count.
  virtual Result<uint64_t> Scan(size_t slot,
                                const std::function<void(const Molecule&)>& visit) = 0;

  const ConnCounters& counters() const { return counters_; }

 protected:
  ConnCounters counters_;
};

/// A session of `db` in this process.
std::unique_ptr<Conn> OpenLocalConn(prima::core::Prima* db);
/// One client connection to `db`'s network server.
Result<std::unique_ptr<Conn>> OpenWireConn(prima::core::Prima* db);

}  // namespace perfbench

#endif  // PERFBENCH_CONN_H_

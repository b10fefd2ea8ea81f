// The interface the harness drives, and the database plumbing the three
// workloads share: a fresh device per setup (memory or a directory of
// segment files), wrapped in a CountingDevice, and copies of a crashed
// end-of-run image for the restart measurement.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "conn.h"
#include "core/prima.h"
#include "device.h"
#include "util.h"

namespace perfbench {

/// Which end-to-end latency an op also feeds besides op_p50/op_p99.
enum class OpClass : uint8_t {
  kRead,      ///< read_p50_us: the point read
  kWrite,     ///< write_txn_p50_us: a committed write transaction
  kMolecule,  ///< molecule_p50_us: the structural molecule query
  kOther,
};

struct OpOutcome {
  int kind = 0;
  OpClass cls = OpClass::kOther;
};

struct Env {
  uint64_t seed = 1;
  std::string workdir;  ///< scratch space inside the checkout
  bool wire = false;    ///< drive the op stream over one net::Client
};

/// A database opened on a copy of the crash image; the copy is deleted
/// when the database has closed.
class RestartedDb {
 public:
  RestartedDb(std::unique_ptr<prima::core::Prima> db, std::string dir)
      : db_(std::move(db)), dir_(std::move(dir)) {}
  ~RestartedDb();
  RestartedDb(const RestartedDb&) = delete;
  RestartedDb& operator=(const RestartedDb&) = delete;
  prima::core::Prima* db() { return db_.get(); }

 private:
  std::unique_ptr<prima::core::Prima> db_;
  std::string dir_;  ///< empty for memory images
};

class Workload {
 public:
  explicit Workload(Env env) : env_(std::move(env)) {}
  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Open a fresh database and bring it up to the first timed op: schema,
  /// population, the final checkpoint, the connection and its prepared
  /// statements.
  virtual Status Setup() = 0;
  /// Run op `seq` (1-based) of the seeded op stream and check what it read.
  virtual Result<OpOutcome> RunOp(uint64_t seq) = 0;
  /// Ops per round: the harness always runs whole rounds.
  virtual size_t round_ops() const = 0;
  /// Untimed ops run after the final checkpoint, so that the crash image
  /// holds the same amount of log to replay in every run.
  virtual size_t tail_ops() const = 0;
  /// Op kind names, indexed by OpOutcome::kind ("op.<kind>" span names).
  virtual const std::vector<const char*>& kind_spans() const = 0;
  /// Audit `db` against the benchmark's shadow. `full` = every atom.
  virtual Status Check(prima::core::Prima* db, bool full) = 0;
  /// Statement shapes for EXPLAIN ANALYZE; DML shapes run inside a
  /// transaction that is rolled back.
  struct Shape {
    std::string text;
    bool dml = false;
  };
  virtual std::vector<Shape> ExplainShapes() const = 0;
  /// Self-test: make one expected value wrong.
  virtual void InjectFault() = 0;

  /// Close connection and database (a clean close).
  void Teardown();

  prima::core::Prima* db() { return db_.get(); }
  CountingDevice* device() { return device_.get(); }
  Conn* conn() { return conn_.get(); }
  /// Mismatches the in-op checks found, with the first one's description.
  uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

  /// Keep the device as it stands now (no checkpoint, no shutdown) as the
  /// crashed image.
  Status SaveCrashImage();
  /// Open a fresh copy of the crash image (restart recovery runs here).
  Result<std::unique_ptr<RestartedDb>> OpenCrashCopy(double* open_seconds);
  void DropCrashImage();

 protected:
  /// Open db_ on a fresh device with WAL on and commit_delay_us = 0.
  Status OpenFresh(prima::core::PrimaOptions options, bool file_backed);
  /// Open the connection the op stream runs on (local or wire).
  Status OpenConn();
  void Mismatch(const std::string& what);
  /// A wrong result the op cannot go on from: recorded as a mismatch (so
  /// the run's output is not correct) and returned to abort the op.
  Status Wrong(const std::string& what) {
    Mismatch(what);
    return Status::Corruption(what);
  }

  Env env_;
  prima::core::PrimaOptions options_;
  bool file_backed_ = false;
  std::string dir_;
  std::shared_ptr<prima::storage::MemoryBlockDevice> mem_;
  std::shared_ptr<CountingDevice> device_;
  std::unique_ptr<prima::core::Prima> db_;
  std::unique_ptr<Conn> conn_;

 private:
  std::string NewDir(const char* tag);

  std::shared_ptr<prima::storage::MemoryBlockDevice> mem_image_;
  std::string dir_image_;
  uint64_t dirs_made_ = 0;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
};

std::unique_ptr<Workload> MakeMmo(Env env);
std::unique_ptr<Workload> MakeCad(Env env);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

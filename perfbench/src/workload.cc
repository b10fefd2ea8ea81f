#include "workload.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

namespace perfbench {

namespace fs = std::filesystem;

namespace {
constexpr uint64_t kWalCapBytes = 64ull << 20;

/// fsync every file of a copied image, so that a timed restart does not
/// also pay for writing back the copy's dirty page cache.
Status SyncFiles(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) return Status::IoError("open " + entry.path().string());
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Status::IoError("fsync " + entry.path().string());
  }
  if (ec) return Status::IoError("list " + dir + ": " + ec.message());
  return Status::Ok();
}
}  // namespace

RestartedDb::~RestartedDb() {
  db_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
}

Workload::~Workload() {
  Teardown();
  DropCrashImage();
}

void Workload::Teardown() {
  conn_.reset();
  db_.reset();
  device_.reset();
  mem_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    dir_.clear();
  }
}

std::string Workload::NewDir(const char* tag) {
  const std::string dir = env_.workdir + "/" + tag + "-" +
                          std::to_string(getpid()) + "-" +
                          std::to_string(dirs_made_++);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

Status Workload::OpenFresh(prima::core::PrimaOptions options,
                           bool file_backed) {
  Teardown();
  file_backed_ = file_backed;
  std::shared_ptr<prima::storage::BlockDevice> inner;
  if (file_backed) {
    dir_ = NewDir("db");
    inner = std::make_shared<prima::storage::FileBlockDevice>(dir_);
  } else {
    mem_ = std::make_shared<prima::storage::MemoryBlockDevice>();
    inner = mem_;
  }
  device_ = std::make_shared<CountingDevice>(inner);
  options.wal = true;
  options.commit_delay_us = 0;
  // Every commit force seals a 4 KiB log block, so an uncapped log grows by
  // a block per transaction; the cap keeps the log (and, on the memory
  // device, the process) bounded, with the checkpoint daemon recycling it.
  options.wal_max_bytes = kWalCapBytes;
  options.device = device_;
  if (env_.wire) options.listen_port = 0;
  options_ = options;
  PRIMA_ASSIGN_OR_RETURN(db_, prima::core::Prima::Open(options));
  return Status::Ok();
}

Status Workload::OpenConn() {
  if (!env_.wire) {
    conn_ = OpenLocalConn(db_.get());
    return Status::Ok();
  }
  PRIMA_ASSIGN_OR_RETURN(conn_, OpenWireConn(db_.get()));
  return Status::Ok();
}

void Workload::Mismatch(const std::string& what) {
  if (mismatches_++ == 0) first_mismatch_ = what;
}

Status Workload::SaveCrashImage() {
  DropCrashImage();
  if (!file_backed_) {
    mem_image_ = mem_->Clone();
    return Status::Ok();
  }
  dir_image_ = NewDir("crash");
  std::error_code ec;
  fs::copy(dir_, dir_image_, fs::copy_options::recursive |
                                 fs::copy_options::overwrite_existing, ec);
  if (ec) return Status::IoError("copy crash image: " + ec.message());
  return Status::Ok();
}

Result<std::unique_ptr<RestartedDb>> Workload::OpenCrashCopy(
    double* open_seconds) {
  prima::core::PrimaOptions options = options_;
  options.listen_port = -1;
  std::string dir;
  std::shared_ptr<prima::storage::BlockDevice> inner;
  if (!file_backed_) {
    inner = std::shared_ptr<prima::storage::BlockDevice>(mem_image_->Clone());
  } else {
    dir = NewDir("restart");
    std::error_code ec;
    fs::copy(dir_image_, dir, fs::copy_options::recursive |
                                  fs::copy_options::overwrite_existing, ec);
    if (ec) return Status::IoError("copy crash image: " + ec.message());
    PRIMA_RETURN_IF_ERROR(SyncFiles(dir));
    inner = std::make_shared<prima::storage::FileBlockDevice>(dir);
  }
  options.device = std::make_shared<CountingDevice>(inner);
  const uint64_t t0 = NowNs();
  auto db = prima::core::Prima::Open(options);
  *open_seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (!db.ok()) {
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
    return db.status();
  }
  return std::make_unique<RestartedDb>(std::move(*db), dir);
}

void Workload::DropCrashImage() {
  mem_image_.reset();
  if (!dir_image_.empty()) {
    std::error_code ec;
    fs::remove_all(dir_image_, ec);
    dir_image_.clear();
  }
}

}  // namespace perfbench

// A storage::BlockDevice wrapper installed through PrimaOptions::device in
// every run. It counts reads, writes, chained transfers and syncs, tracks
// each file's extent (for the data-segment size), and in the traced run
// records a span per call, which also times the calls.
#ifndef PERFBENCH_DEVICE_H_
#define PERFBENCH_DEVICE_H_

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "storage/block_device.h"
#include "storage/wal.h"
#include "trace.h"

namespace perfbench {

struct DeviceCounters {
  uint64_t reads = 0;           ///< single-block reads
  uint64_t writes = 0;          ///< single-block writes
  uint64_t chained_reads = 0;
  uint64_t chained_writes = 0;
  uint64_t syncs = 0;

  DeviceCounters Minus(const DeviceCounters& o) const {
    return {reads - o.reads, writes - o.writes, chained_reads - o.chained_reads,
            chained_writes - o.chained_writes, syncs - o.syncs};
  }
};

class CountingDevice : public prima::storage::BlockDevice {
 public:
  using BlockDevice = prima::storage::BlockDevice;
  explicit CountingDevice(std::shared_ptr<BlockDevice> inner)
      : inner_(std::move(inner)) {}

  DeviceCounters counters() const {
    DeviceCounters c;
    c.reads = reads_.load();
    c.writes = writes_.load();
    c.chained_reads = chained_reads_.load();
    c.chained_writes = chained_writes_.load();
    c.syncs = syncs_.load();
    return c;
  }

  /// Bytes of the data segments this device has written (block extent times
  /// block size), the log files excluded.
  uint64_t DataBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t bytes = 0;
    for (const auto& [file, extent] : extent_) {
      if (prima::storage::IsReservedFileId(file)) continue;
      auto size = inner_->BlockSizeOf(file);
      if (size.ok()) bytes += extent * *size;
    }
    return bytes;
  }

  prima::util::Status Create(FileId file, uint32_t block_size) override {
    ScopedSpan span("storage.create", kDeviceDepth);
    {
      std::lock_guard<std::mutex> lock(mu_);
      extent_[file] = 0;
    }
    return inner_->Create(file, block_size);
  }
  prima::util::Status Remove(FileId file) override {
    ScopedSpan span("storage.remove", kDeviceDepth);
    {
      std::lock_guard<std::mutex> lock(mu_);
      extent_.erase(file);
    }
    return inner_->Remove(file);
  }
  bool Exists(FileId file) const override { return inner_->Exists(file); }
  prima::util::Result<uint32_t> BlockSizeOf(FileId file) const override {
    return inner_->BlockSizeOf(file);
  }
  std::vector<FileId> ListFiles() const override { return inner_->ListFiles(); }

  prima::util::Status Read(FileId file, uint64_t block, char* dst) override {
    ScopedSpan span("storage.read", kDeviceDepth);
    reads_++;
    return inner_->Read(file, block, dst);
  }
  prima::util::Status Write(FileId file, uint64_t block,
                            const char* src) override {
    ScopedSpan span("storage.write", kDeviceDepth);
    writes_++;
    Extend(file, block + 1);
    return inner_->Write(file, block, src);
  }
  prima::util::Status ReadChained(FileId file,
                                  const std::vector<uint64_t>& blocks,
                                  char* dst) override {
    ScopedSpan span("storage.read_chained", kDeviceDepth);
    chained_reads_++;
    return inner_->ReadChained(file, blocks, dst);
  }
  prima::util::Status WriteChained(FileId file,
                                   const std::vector<uint64_t>& blocks,
                                   const char* src) override {
    ScopedSpan span("storage.write_chained", kDeviceDepth);
    chained_writes_++;
    uint64_t top = 0;
    for (uint64_t b : blocks) top = std::max(top, b + 1);
    Extend(file, top);
    return inner_->WriteChained(file, blocks, src);
  }
  prima::util::Status Sync() override {
    ScopedSpan span("storage.sync", kDeviceDepth);
    syncs_++;
    return inner_->Sync();
  }

 private:
  void Extend(FileId file, uint64_t extent) {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t& e = extent_[file];
    if (extent > e) e = extent;
  }

  std::shared_ptr<BlockDevice> inner_;
  mutable std::mutex mu_;
  std::map<FileId, uint64_t> extent_;
  std::atomic<uint64_t> reads_{0}, writes_{0}, chained_reads_{0},
      chained_writes_{0}, syncs_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_DEVICE_H_

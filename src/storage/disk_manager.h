#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/page.h"

namespace harmony {

namespace testing {
class FaultInjector;
}

/// Latency model for the underlying device. The paper's default cluster uses
/// SATA/NVMe SSDs; Section 5.8 swaps the SSD for a RAMDisk. We reproduce both
/// by injecting per-operation latency around real file I/O.
struct DiskModel {
  uint64_t read_latency_us = 90;   ///< per-page read latency (SSD-class)
  uint64_t write_latency_us = 25;  ///< per-page write latency (SSD-class)
  uint64_t fsync_latency_us = 150;
  /// Device queue depth: at most this many I/Os proceed concurrently;
  /// the rest wait. This is what makes block size (= concurrency degree)
  /// saturate instead of scaling forever (Section 5.2).
  uint32_t queue_depth = 16;
  /// Optional deterministic fault injector (src/testing/fault.h): consulted
  /// on every page read, every page write and every Sync for delayed,
  /// failed, and short I/O.
  /// Not owned; must outlive every DiskManager built from this model.
  testing::FaultInjector* fault = nullptr;

  static DiskModel Ssd() { return DiskModel{}; }
  static DiskModel RamDisk() { return DiskModel{0, 0, 0, 0}; }
};

/// Counters exposed to benchmarks ("useful work done per I/O").
struct DiskStats {
  std::atomic<uint64_t> page_reads{0};
  std::atomic<uint64_t> page_writes{0};
  std::atomic<uint64_t> fsyncs{0};
};

/// Page-granular file storage. Thread-safe: pread/pwrite on distinct offsets
/// are independent; allocation is serialized.
class DiskManager {
 public:
  /// Opens (creating if necessary) the page file at `path`. A file that
  /// cannot be opened leaves the manager unusable; status() says why.
  DiskManager(std::string path, DiskModel model);
  ~DiskManager();

  /// OK once the page file is open; IOError naming the path otherwise.
  Status status() const;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  Status ReadPage(PageId page_id, Page* out);
  Status WritePage(PageId page_id, const Page& page);
  /// Writes `n` consecutive pages starting at `first` (pages[i] goes to
  /// page first + i): AdmitWrites(n), then WriteAdmitted of what it
  /// admitted. A fault at page k persists pages [0, k) (plus the prefix of
  /// page k on a short write) and returns the error.
  Status WritePages(PageId first, const Page* const* pages, size_t n);

  /// What AdmitWrites let through: the pages admitted before the first
  /// fault, and that fault.
  struct WriteAdmission {
    size_t pages = 0;
    /// Bytes of page `pages` a short-write fault still persists (0 for
    /// any other fault, or none).
    size_t prefix = 0;
    Status status;  ///< the fault; OK when every page was admitted
  };
  /// Charges the device model for `n` page writes in waves. A wave takes
  /// every free queue slot (at least one, at most the pages left; reads in
  /// flight hold slots too, so no more than queue_depth I/Os ever are),
  /// consults the fault injector once per page in order, sleeps one write
  /// latency and releases its slots; queue_depth 0 is a single wave. Each
  /// page still costs one slot, one latency charge and one fault check,
  /// but on an idle device n pages take ceil(n / queue_depth) latencies
  /// of wall time, not n. The first fault stops admission.
  WriteAdmission AdmitWrites(size_t n);
  /// Writes the first `bytes` bytes of the consecutive pages starting at
  /// `first` (pages[i] goes to page first + i) with pwritev, in chunks of
  /// IOV_MAX, without charging the device: the caller admitted them with
  /// AdmitWrites. `page_writes` counts the whole pages written.
  Status WriteAdmitted(PageId first, const Page* const* pages, size_t bytes);
  Status Sync();

  /// Reads a page without charging device latency or occupying a queue
  /// slot. Only for maintenance paths whose cost a production engine hides
  /// (checkpoint journaling reads pre-images it effectively already has in
  /// its double-write/WAL machinery); never use on the transaction path.
  Status ReadPageRaw(PageId page_id, Page* out);

  /// Allocates a fresh page id (extends the file lazily on first write).
  PageId AllocatePage();

  /// Number of pages ever allocated (== file length in pages after sync).
  PageId num_pages() const { return next_page_.load(); }

  /// The file's length in whole pages. Pages reach the file only through a
  /// checkpoint flush (the pool is no-steal), so outside a checkpoint this
  /// is the last checkpointed image; num_pages() also counts allocations
  /// not yet written.
  Result<PageId> FilePages() const;

  /// Cuts the file back to `pages` pages and forgets every allocation past
  /// them (a torn checkpoint's rollback to its image).
  Status Truncate(PageId pages);

  const DiskStats& stats() const { return stats_; }
  const DiskModel& model() const { return model_; }
  const std::string& path() const { return path_; }

 private:
  /// Occupies device queue slots for the duration of one wave of I/O:
  /// waits for a free slot, then takes every free one up to `want` (all
  /// `want` when queue_depth is 0, i.e. unlimited).
  class IoSlots {
   public:
    IoSlots(DiskManager* dm, size_t want);
    ~IoSlots();
    IoSlots(const IoSlots&) = delete;
    IoSlots& operator=(const IoSlots&) = delete;
    size_t count() const { return count_; }

   private:
    DiskManager* dm_;
    size_t count_;
  };

  std::string path_;
  DiskModel model_;
  int fd_ = -1;
  int open_errno_ = 0;  ///< errno of the failed open (fd_ < 0)
  std::atomic<PageId> next_page_{0};
  DiskStats stats_;

  std::mutex io_mu_;
  std::condition_variable io_cv_;
  uint32_t inflight_io_ = 0;
};

}  // namespace harmony

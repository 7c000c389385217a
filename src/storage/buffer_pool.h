#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace harmony {

class BufferPool;

/// RAII pin on a buffer frame. While alive, the page stays in memory and can
/// be read; call MarkDirty() after mutating.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t stripe, size_t frame, Page* page)
      : pool_(pool), stripe_(stripe), frame_(frame), page_(page) {}
  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return page_ != nullptr; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }
  char* data() { return page_->data; }
  const char* data() const { return page_->data; }

  void MarkDirty();
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t stripe_ = 0;
  size_t frame_ = 0;
  Page* page_ = nullptr;
};

/// Point-in-time aggregate of the per-stripe counters (Snap()). A snapshot
/// taken after an operation completed is guaranteed to include it; snapshots
/// never under-report.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t dirty_evictions = 0;  ///< emergency grows (no-steal)
  uint64_t flushed_pages = 0;    ///< pages written back by FlushAll
  uint64_t flushes = 0;          ///< completed FlushAll calls
};

/// DRAM page cache, sharded into cache-line-padded stripes. Each stripe owns
/// a disjoint slice of the page-id space (page_id % stripes) with its own
/// latch, page table, and CLOCK hand, so fetches on different stripes never
/// contend. Eviction runs per stripe.
///
/// Recovery contract (no-steal): dirty pages are never written back outside
/// FlushAll(). If every unpinned frame of a stripe is dirty, that stripe
/// grows temporarily instead of stealing, so the on-disk image always equals
/// the last checkpoint — the precondition for deterministic logical-log
/// replay (Section 4, "Recovery"). FlushAll() shrinks the stripes back.
///
/// FlushAll() is one pass over the dirty set in page order. It admits the
/// whole set with one DiskManager::AdmitWrites, so the device's queue stays
/// full even when the set is many short runs, then writes each run of
/// consecutive pages with one pwritev. The checkpoint stall is about
/// dirty / queue_depth write latencies, and a freshly appended heap costs
/// one syscall, not one per page.
class BufferPool {
 public:
  static constexpr size_t kDefaultStripes = 8;
  /// Stripes below this many frames degenerate to contention without
  /// capacity; small pools collapse to fewer stripes.
  static constexpr size_t kMinPagesPerStripe = 8;

  BufferPool(DiskManager* disk, size_t capacity,
             size_t stripes = kDefaultStripes);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId page_id);

  /// Pins a brand-new zeroed page (no disk read).
  Result<PageGuard> NewPage(PageId page_id);

  /// Writes every dirty page to disk (checkpoint path). Pages stay cached.
  /// Safe to call concurrently with fetches; concurrent FlushAll calls
  /// serialize against each other. A device fault at the k-th dirty page
  /// in page order returns the error with the pages before it on disk
  /// (plus a short write's prefix of page k) and pages k on still dirty.
  Status FlushAll();

  /// Page ids currently dirty in the pool (checkpoint journaling).
  std::vector<PageId> DirtyPageIds() const;

  /// Aggregates the per-stripe lock-free counters into a value snapshot.
  BufferPoolStats Snap() const;
  BufferPoolStats stats() const { return Snap(); }

  size_t capacity() const { return capacity_; }
  size_t num_stripes() const { return stripes_.size(); }
  size_t num_frames() const;

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool loading = false;
    bool referenced = false;
    /// Bumped by every MarkDirty. FlushAll clears `dirty` only when the
    /// generation still matches its snapshot, so a page re-dirtied while
    /// its write-back was in flight stays dirty for the next flush.
    uint64_t dirty_gen = 0;
  };

  /// One shard of the pool. alignas keeps the hot latch + counters of
  /// neighbouring stripes on distinct cache lines.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::condition_variable load_cv;
    std::vector<Frame*> frames;
    std::unordered_map<PageId, size_t> page_table;
    size_t clock_hand = 0;
    size_t capacity = 0;
    /// Frames with `dirty` set. When it equals frames.size(), no-steal
    /// leaves no victim, so PickVictimLocked grows without sweeping.
    size_t dirty_frames = 0;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> dirty_evictions{0};
  };

  Stripe& StripeFor(PageId page_id) {
    return *stripes_[page_id % stripes_.size()];
  }

  void Unpin(size_t stripe, size_t frame);
  void MarkDirtyFrame(size_t stripe, size_t frame);

  /// Picks a victim frame (clean + unpinned) inside `s`, growing the stripe
  /// if all candidates are dirty. Caller holds s.mu.
  size_t PickVictimLocked(Stripe& s);

  DiskManager* disk_;
  size_t capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// Serializes whole FlushAll calls: the write phase runs without stripe
  /// latches, so two overlapping flushes could otherwise race the shrink.
  std::mutex flush_mu_;
  std::atomic<uint64_t> flushed_pages_{0};
  std::atomic<uint64_t> flushes_{0};
};

}  // namespace harmony

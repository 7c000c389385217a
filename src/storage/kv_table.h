#pragma once

#include <array>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/spin_lock.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/flat_index.h"
#include "storage/slotted_page.h"

namespace harmony {

/// One row of a bulk load: a key and its value bytes, which the caller
/// keeps alive for the call. Rows of a batch may share their bytes.
struct KvRow {
  Key key;
  std::string_view value;
};

/// Disk-backed key-value table: heap of slotted pages behind a buffer pool,
/// plus an in-memory hash index (Key -> Rid, a FlatIndex). The index is
/// rebuilt by a heap scan on open — the same recovery model as main-memory
/// indexes over a disk heap; persistence of record data goes through
/// checkpoints.
///
/// Thread-safety: concurrent Get/Put/Erase on distinct keys are safe
/// (per-page latches serialize byte-level page access); Puts that allocate
/// serialize on the allocation mutex. A Get or Put that finds its key's
/// slot moved or erased by another key's writer after its index lookup
/// follows the index again (CheckMoved); lock order is index, then
/// allocation, then page latch.
class KvTable {
 public:
  KvTable(DiskManager* disk, BufferPool* pool);

  /// Scans the heap and rebuilds the index (open/recovery path).
  Status RebuildIndex();

  /// Reads the latest value. Returns NotFound for absent keys.
  Status Get(Key key, std::string* out);

  /// Inserts or updates. If old_value != nullptr, receives the pre-image
  /// (unset if the key was absent).
  Status Put(Key key, std::string_view value,
             std::optional<std::string>* old_value = nullptr);

  /// Bulk load (genesis, snapshot install): the rows in order, each with
  /// the result of Put(key, value). The batch takes the index and
  /// allocation locks once, sizes the index once for every row, and
  /// appends through a load cursor that keeps the heap's tail page pinned
  /// (and latched for the run of rows that lands on it) across rows and
  /// batches, so a page costs one NewPage instead of a fetch, dirty mark
  /// and unpin per row. Rows land on exactly the pages and slots Put would
  /// pick. A key already present, or repeated in the batch, drops the
  /// locks and goes through Put. Other calls may interleave between
  /// batches; Checkpoint must ReleaseLoadCursor first.
  Status Load(const std::vector<KvRow>& rows);

  /// Marks the cursor's page dirty and unpins it. Idempotent.
  void ReleaseLoadCursor();

  /// Removes the key (no-op if absent). Pre-image reported like Put.
  Status Erase(Key key, std::optional<std::string>* old_value = nullptr);

  /// Number of live keys.
  size_t size() const;

  /// Iterates all (key, value) pairs. Not concurrent with writers.
  Status ScanAll(const std::function<void(Key, std::string_view)>& fn);

 private:
  SpinLock& PageLatch(PageId id) { return latches_[id % kLatchCount]; }

  /// The page latch an insert holds: at most one page's at a time, kept
  /// across a batch's rows only while they land on the load cursor's page.
  /// Taking the latch per row instead made a million-row load about a
  /// tenth slower.
  class HeldLatch {
   public:
    explicit HeldLatch(KvTable* t) : t_(t) {}
    ~HeldLatch() { Release(); }
    HeldLatch(const HeldLatch&) = delete;
    HeldLatch& operator=(const HeldLatch&) = delete;

    void Hold(PageId page) {
      if (page == page_) return;
      Release();
      t_->PageLatch(page).lock();
      page_ = page;
    }
    void Release() {
      if (page_ == kInvalidPageId) return;
      t_->PageLatch(page_).unlock();
      page_ = kInvalidPageId;
    }

   private:
    KvTable* t_;
    PageId page_ = kInvalidPageId;
  };

  /// The key's Rid, or NotFound.
  Status Lookup(Key key, Rid* rid) const;
  /// After a read of `rid` (pinned by `guard`) found another key or none:
  /// NotFound when the key is gone, OK when the index now names another
  /// slot or the slot holds the key again (the caller looks again), and
  /// Corruption only when the index still names `rid` and it does not hold
  /// the key.
  Status CheckMoved(Key key, Rid rid, PageGuard& guard);
  /// Moves a record that outgrew its slot: frees the slot, inserts the new
  /// value and repoints the index, all under the exclusive index lock.
  Status Relocate(Key key, std::string_view value, Rid rid, PageGuard& guard);

  /// Inserts into some page with room; returns the Rid. Caller must not hold
  /// page latches. Takes alloc_mu_, then a page latch.
  Result<Rid> InsertRecord(Key key, std::string_view value);
  /// InsertRecord under alloc_mu_, latching through `latch`, which on
  /// return holds at most the load cursor's page. With `load`, a new page
  /// becomes the load cursor.
  Result<Rid> InsertLocked(Key key, std::string_view value, bool load,
                           HeldLatch* latch);
  void ReleaseLoadCursorLocked();
  /// Erases `rid`'s slot from its pinned page and returns the freed room to
  /// the page's free-space estimate (and the bound on older pages), so the
  /// next inserts reuse it. Takes alloc_mu_, then the page latch — the
  /// order InsertRecord takes them in.
  void EraseSlot(Rid rid, PageGuard& guard);

  static constexpr size_t kLatchCount = 1024;

  DiskManager* disk_;
  BufferPool* pool_;

  mutable std::shared_mutex index_mu_;
  FlatIndex index_;

  std::mutex alloc_mu_;
  /// Pages with estimated free space, most-recently-allocated last. Every
  /// page is allocated through this table and RebuildIndex lists them all,
  /// so entry i is page i.
  std::vector<std::pair<PageId, size_t>> free_pages_;
  /// Upper bound on the estimate of every free page but the newest.
  size_t older_free_max_ = kPageSize;
  /// Load cursor: the page the last Load allocated, kept pinned (and dirty)
  /// until ReleaseLoadCursor. Guarded by alloc_mu_.
  PageGuard load_guard_;
  PageId load_page_ = kInvalidPageId;

  std::array<SpinLock, kLatchCount> latches_;
};

}  // namespace harmony

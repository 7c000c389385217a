#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/spin_lock.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/kv_table.h"

namespace harmony {

namespace obs {
class EventLog;
}

/// Storage engine behind the versioned store. Holds the *latest committed*
/// value of every key. Two implementations:
///  - DiskBackend:   buffer pool + heap file (the paper's default,
///                   disk-oriented database layer);
///  - MemoryBackend: sharded hash map (the Section 5.8 "memory engine").
class StateBackend {
 public:
  virtual ~StateBackend() = default;

  /// Latest value; NotFound if absent.
  virtual Status Get(Key key, std::string* out) = 0;

  /// Writes the latest value; reports the pre-image via old_value
  /// (unset if the key was absent).
  virtual Status Put(Key key, std::string_view value,
                     std::optional<std::string>* old_value) = 0;

  /// Bulk load (genesis rows, snapshot install): the rows in order, each
  /// with the result of Put(row.key, row.value, nullptr). This default is
  /// that loop of Puts; DiskBackend loads a batch under one take of its
  /// locks, through an append path that Checkpoint closes.
  virtual Status Load(const std::vector<KvRow>& rows) {
    for (const auto& [key, value] : rows) {
      HARMONY_RETURN_NOT_OK(Put(key, value, nullptr));
    }
    return Status::OK();
  }

  /// Deletes the key; pre-image like Put.
  virtual Status Erase(Key key, std::optional<std::string>* old_value) = 0;

  /// Durably persists current state (checkpoint). Crash-safe: a crash during
  /// checkpointing must leave the previous checkpoint recoverable.
  ///
  /// `commit_epoch` ties the checkpoint to an external commit record (the
  /// replica passes checkpointed-block-id + 1, matching the manifest it
  /// writes *after* this returns): the rollback journal stays on disk,
  /// stamped with the epoch, and the next Open() rolls the pages back
  /// unless the caller proves the epoch committed. Without it, a crash
  /// after the journal retired but before the manifest advanced would
  /// replay already-applied blocks onto the new checkpoint (double-apply).
  /// commit_epoch == 0 is standalone mode — no external commit record, the
  /// journal retires as soon as the flush completes, and a crash before
  /// that rolls back on the next Open().
  virtual Status Checkpoint(uint64_t commit_epoch = 0) = 0;

  virtual size_t size() const = 0;

  virtual Status ScanAll(
      const std::function<void(Key, std::string_view)>& fn) = 0;

  /// I/O counters; zero for the memory backend.
  virtual uint64_t page_reads() const { return 0; }
  virtual uint64_t page_writes() const { return 0; }
  virtual uint64_t pool_hits() const { return 0; }
  virtual uint64_t pool_misses() const { return 0; }
  /// Buffer-pool counter snapshot; all-zero for the memory backend.
  virtual BufferPoolStats pool_stats() const { return {}; }
  /// Resident buffer-pool frames; zero for the memory backend.
  virtual size_t pool_frames() const { return 0; }
};

/// Disk-oriented backend: data pages on "SSD" behind a DRAM buffer pool.
/// Checkpoints use a rollback journal (pre-images of dirty pages) so that a
/// crash mid-checkpoint recovers to the previous checkpoint — mirroring how
/// HarmonyBC keeps the previous checkpoint reachable through PostgreSQL's
/// multi-versioned storage.
class DiskBackend : public StateBackend {
 public:
  /// Files created: <dir>/<name>.tbl and <dir>/<name>.journal.
  /// `pool_stripes` shards the buffer pool's page table / latches.
  DiskBackend(const std::string& dir, const std::string& name, DiskModel model,
              size_t pool_pages,
              size_t pool_stripes = BufferPool::kDefaultStripes);

  /// Runs journal rollback if a previous checkpoint was interrupted, then
  /// rebuilds the index. Must be called before use. `committed_epoch` is
  /// the highest epoch the caller's commit record proves durable (the
  /// replica passes manifest block id + 1; 0 = no commit record): a
  /// complete journal stamped with a higher epoch is an uncommitted
  /// checkpoint and is rolled back. A journal in the retired v2 layout is
  /// NotSupported, and Open then leaves every file as it found it.
  Status Open(uint64_t committed_epoch = 0);

  /// Optional structured event log: Open() emits a journal_recover event
  /// when it rolls pages back. Set before Open(); nullptr disables.
  void SetEventLog(obs::EventLog* events) { events_ = events; }

  Status Get(Key key, std::string* out) override;
  Status Put(Key key, std::string_view value,
             std::optional<std::string>* old_value) override;
  Status Load(const std::vector<KvRow>& rows) override {
    return table_->Load(rows);
  }
  Status Erase(Key key, std::optional<std::string>* old_value) override;
  Status Checkpoint(uint64_t commit_epoch = 0) override;
  size_t size() const override { return table_->size(); }
  Status ScanAll(const std::function<void(Key, std::string_view)>& fn) override {
    return table_->ScanAll(fn);
  }

  uint64_t page_reads() const override { return disk_->stats().page_reads; }
  uint64_t page_writes() const override { return disk_->stats().page_writes; }
  uint64_t pool_hits() const override { return pool_->stats().hits; }
  uint64_t pool_misses() const override { return pool_->stats().misses; }
  BufferPoolStats pool_stats() const override { return pool_->Snap(); }
  size_t pool_frames() const override { return pool_->num_frames(); }

  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }

 private:
  Status RollbackJournalIfNeeded(uint64_t committed_epoch);
  Status WriteJournal(uint64_t commit_epoch);

  std::string journal_path_;
  obs::EventLog* events_ = nullptr;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<KvTable> table_;
};

/// Main-memory backend (Section 5.8): no pages, no buffer pool; checkpoints
/// are a no-op (memory blockchains group-commit their logical log instead,
/// which the chain layer already persists).
class MemoryBackend : public StateBackend {
 public:
  MemoryBackend() = default;

  Status Get(Key key, std::string* out) override;
  Status Put(Key key, std::string_view value,
             std::optional<std::string>* old_value) override;
  Status Erase(Key key, std::optional<std::string>* old_value) override;
  Status Checkpoint(uint64_t = 0) override { return Status::OK(); }
  size_t size() const override;
  Status ScanAll(const std::function<void(Key, std::string_view)>& fn) override;

 private:
  static constexpr size_t kShards = 64;
  struct Shard {
    mutable SpinLock mu;
    std::unordered_map<Key, std::string> map;
  };
  Shard& ShardFor(Key k) { return shards_[Mix64(k) % kShards]; }

  std::array<Shard, kShards> shards_;
};

}  // namespace harmony

#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "chain/block.h"
#include "chain/block_store.h"
#include "common/thread_pool.h"
#include "dcc/protocol.h"
#include "storage/state_backend.h"
#include "storage/versioned_store.h"

namespace harmony {

namespace obs {
class EventLog;
class TxnTracer;
}

/// Node configuration.
struct ReplicaOptions {
  std::string dir;                ///< working directory (files live here)
  std::string name = "replica";   ///< file prefix
  DccKind dcc = DccKind::kHarmony;
  DccConfig dcc_cfg;

  /// Section 5.8 memory engine. Its checkpoint saves nothing, so it writes
  /// no manifest and recovery replays the whole log over the genesis rows
  /// the caller reloads.
  bool in_memory = false;
  DiskModel disk = DiskModel::Ssd();
  size_t pool_pages = 4096;       ///< buffer pool capacity (16 MiB default)
  /// Buffer-pool stripes (page table / latch shards; small pools collapse
  /// to fewer — see BufferPool).
  size_t pool_stripes = BufferPool::kDefaultStripes;
  /// No effect; read only by harmonybench's context line.
  size_t flush_threads = 0;
  size_t threads = 8;             ///< execution worker threads

  /// Block-log retention: at each checkpoint at block B, keep at least the
  /// last log_retain_blocks records, cutting at the safe point at or below
  /// B - log_retain_blocks + 1 (BlockStore::TruncateBefore: the start of
  /// that block's interval, so fewer than log_retain_blocks + one interval
  /// of at most 64 blocks stay), bounding disk usage at O(retention +
  /// checkpoint period) instead of O(chain).
  /// Minimum effective retention is 1 block (recovery anchors the chain
  /// audit at the first retained record). 0 disables truncation. Disk
  /// engine only: Open() rejects it with in_memory.
  uint64_t log_retain_blocks = 0;
  /// Copy truncated records to <name>.chain.archive before dropping them
  /// (tooling/torture ground truth; production leaves this off).
  bool archive_truncated = false;

  size_t checkpoint_every = 10;   ///< checkpoint period p, in blocks
  std::string orderer_secret = "orderer-secret";
  bool persist_blocks = true;     ///< append input blocks to the logical log
  /// Codec for the block log's sealed-txn sections (per-block raw fallback
  /// when a section does not shrink). Applies to blocks this replica
  /// encodes; a replicated block is stored as the leader encoded it unless
  /// its derived header or references reach below this log
  /// (BlockStore::Append).
  Compression block_compression = Compression::kHlz;
  /// Optional txn-lifecycle tracer: records per-block execute (Simulate)
  /// and commit durations. Replayed blocks (Recover) are not recorded.
  obs::TxnTracer* tracer = nullptr;
  /// Optional structured event log (obs/events.h): storage transitions —
  /// block-log truncation, rollback-journal recovery — emit typed events
  /// here. Mirrors `tracer`; nullptr disables emission.
  obs::EventLog* events = nullptr;
};

/// Invoked (on the commit thread, in block order) after each block commits.
using CommitCallback =
    std::function<void(const Block& block, const BlockResult& result)>;

/// A HarmonyBC database node: disk-oriented storage engine + versioned
/// snapshot store + a deterministic concurrency control protocol + the
/// hash-chained logical log. Replicas receive blocks from the ordering
/// service and execute them independently; determinism guarantees replica
/// consistency without coordination.
class Replica {
 public:
  explicit Replica(ReplicaOptions opts);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Opens storage, rolls back interrupted checkpoints, and replays the
  /// logical log past the last checkpoint (crash recovery).
  Status Open();

  /// Loads initial data directly into the backend (the genesis state,
  /// "block 0"): a batch of rows, each a key and a Value::Encode() image
  /// (StateBackend::Load). Must precede any SubmitBlock. Call Checkpoint()
  /// after the last batch to make genesis durable — recovery replays
  /// blocks on top of the latest checkpoint, so an uncheckpointed genesis
  /// is lost by a crash before the first periodic checkpoint. On the disk
  /// engine a batch takes the table's locks once and appends through the
  /// backend's load cursor, which keeps the heap's tail page pinned until
  /// the next checkpoint releases it; the memory engine puts row by row.
  /// Rows may share their bytes: a caller loading many alike rows encodes
  /// one and points every row at it.
  Status LoadRows(const std::vector<KvRow>& rows);
  /// A batch of one.
  Status LoadRow(Key key, const Value& v) {
    const std::string encoded = v.Encode();
    return LoadRows({{key, encoded}});
  }

  /// Crash recovery: loads the checkpoint manifest and deterministically
  /// re-executes every logged block after it. Call after Open() and
  /// procedure registration (and after genesis loading on first boot —
  /// replay is a no-op then). Returns the recovered chain tip. When the log
  /// holds a record, `tip_record` (optional) receives the last one's header;
  /// otherwise it is left untouched (a fresh chain, or a snapshot-installed
  /// follower that has appended nothing since the install). An in-memory
  /// replica reloads genesis on every boot and replays the whole log;
  /// NotSupported once a snapshot install re-based that log.
  Result<BlockId> Recover(BlockHeader* tip_record = nullptr);

  /// Registers a stored procedure (smart contract). All replicas of a chain
  /// must register the same set.
  void RegisterProcedure(uint32_t proc_id, std::string name, ProcedureFn fn);

  /// Feeds the next block. With an inter-block-parallel protocol this
  /// returns once the block's simulation has been scheduled (the previous
  /// block may still be committing); otherwise it blocks until commit.
  /// Blocks must arrive in increasing block-id order. The block carries its
  /// stored record (Block::record) to the commit callback: the leader's
  /// record as received when the log could keep it verbatim, else the one
  /// the log encoded.
  Status SubmitBlock(Block block);

  /// Waits until every submitted block has committed.
  Status Drain();

  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }

  /// Installs a leader state snapshot (src/repl/follower.cc): loads the raw
  /// backend rows, re-bases the block log and the chain verifier at block
  /// `base` (whose block hash is `tip_hash`), and checkpoints so a restart
  /// replays only blocks after the snapshot. Accepts a fresh replica or a
  /// quiesced one whose tip is behind `base` — the rejoin-after-leader-
  /// truncation path: existing state is dropped wholesale (rows, version
  /// chains, and any log records at or below `base`) before the install.
  /// InvalidArgument when blocks are mid-flight or `base` is not ahead of
  /// the local tip.
  Status InstallSnapshot(BlockId base, const Digest& tip_hash,
                         const std::vector<std::pair<Key, std::string>>& rows);

  /// Copies every backend row (key + encoded value bytes) — the snapshot
  /// source on the leader. Not a consistent cut by itself; see
  /// repl::Replicator::BuildSnapshot for the stability protocol.
  Status ScanState(std::vector<std::pair<Key, std::string>>* out);

  /// Latest committed value of a key (read-your-writes after Drain()).
  Status Query(Key key, std::optional<Value>* out);

  /// SHA-256 over the sorted latest state — the replica-consistency check.
  Result<Digest> StateDigest();

  /// Forces a checkpoint now (flush + manifest). On the memory engine it
  /// only drains.
  Status Checkpoint();

  /// Reads the whole chain back and verifies hashes + signatures.
  Status AuditChain();

  const ProtocolStats& protocol_stats() const { return protocol_->stats(); }
  StateBackend* backend() { return backend_.get(); }
  /// The logical block log (compression accounting lives here).
  BlockStore* block_store() { return block_store_.get(); }
  DccProtocol* protocol() { return protocol_.get(); }
  BlockId last_committed() const;
  const ReplicaOptions& options() const { return opts_; }

 private:
  Status ExecuteBlockPipelined(Block block);
  Status CommitLoopStep();
  void CommitWorker();
  /// Appends the block to the log and attaches the record it stored.
  Status AppendToLog(Block* block);
  Status AfterCommit(const Block& block, const BlockResult& result);
  Status ReplayFrom(BlockId checkpointed, BlockHeader* tip_record);
  /// The chain-verifier anchor a snapshot install persists: with no block
  /// records below the snapshot base, the tip hash must survive restarts
  /// somewhere, or the next replicated block could not be chain-checked.
  std::string AnchorPath() const;
  Status WriteAnchor(const Digest& d) const;
  bool ReadAnchor(Digest* out) const;

  ReplicaOptions opts_;
  std::unique_ptr<StateBackend> backend_;
  std::unique_ptr<VersionedStore> store_;
  std::unique_ptr<ThreadPool> pool_;
  ProcedureRegistry procs_;
  std::unique_ptr<DccProtocol> protocol_;
  std::unique_ptr<BlockStore> block_store_;
  std::unique_ptr<CheckpointManifest> manifest_;
  std::unique_ptr<ChainVerifier> verifier_;
  CommitCallback commit_cb_;

  // Pipeline state (inter-block parallelism).
  struct InFlight {
    Block block;
    Status sim_status;
    std::thread sim_thread;  ///< joined by the commit worker
    /// Non-null when this block's stages should be recorded (tracing on and
    /// not a replay) — decided at submit time, where replaying_ is stable.
    obs::TxnTracer* tracer = nullptr;
  };
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::shared_ptr<InFlight>> commit_queue_;
  BlockId last_committed_ = 0;
  BlockId last_submitted_ = 0;
  Status pipeline_error_;
  bool stop_ = false;
  std::thread commit_thread_;
  bool replaying_ = false;
};

}  // namespace harmony

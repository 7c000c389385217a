#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chain/block.h"
#include "common/status.h"

namespace harmony {

namespace obs {
class EventLog;
}

/// Append-only logical log of input blocks (Section 4, "Recovery"): because
/// execution is deterministic, persisting the *inputs* is sufficient for
/// recovery — no ARIES-style physical log.
///
/// ## File format (block log v10 — docs/FORMATS.md is the authoritative
/// byte-level reference)
///
/// ```
///   offset 0: u32 magic           = 0x4C434248 ("HBCL" read as bytes,
///                                   little-endian on disk)
///   offset 4: u32 format_version  = kLogVersion (10, chain/block.h)
///   offset 8: records...
///
///   record:   u32 payload_len
///             payload             (BlockCodec::EncodeRecord bytes:
///                                  block id and flags, a full header or
///                                  one derived from the previous block's,
///                                  the signature, compression envelope
///                                  over the column-wise txn section of
///                                  varint or bit-packed columns)
///             u32 crc32(payload)  — CRC of the payload *as stored*, i.e.
///                                   over the compressed bytes
/// ```
///
/// Fixed-width integers are little-endian (the codec's native byte order).
/// The record encoding is a storage concern only: TxnRoot, block hashes and
/// signatures are computed over the canonical BlockCodec::EncodeTxn bytes,
/// which a decoded record reproduces exactly (reads rebuild both digests).
///
/// ### Derived headers, references and safe cuts
/// Within an *interval* (block ids from one `id % checkpoint_every == 1` to
/// the next, also split at every `id % 64 == 1` when longer than 64 blocks
/// or when checkpointing is off), Append derives each record's header from
/// the previous record's when that record is still in the log (no
/// prev_hash; first_tid and the order time as deltas), and stores a CC
/// retry as a reference to the same canonical txn in an earlier record.
/// A derived header counts as a reference of reach 1. A record is a *safe
/// cut* when no record at or after it references a block before it: those
/// are exactly the full-header records, the log's first record and every
/// interval start. Readers decode in order from a safe cut, and
/// TruncateBefore cuts only at one.
///
/// ### One version
/// Only v10 is read or written. A v1–v9 log (v1 files have no header at all)
/// is refused with NotSupported naming the version; there is no migration.
///
/// ### Failure semantics
/// Open walks the frames without decoding them. A record that is short,
/// fails its CRC or its prefix (BlockCodec::Peek), or whose block id does
/// not follow its predecessor's is a torn tail (crash mid-append) and is
/// truncated with everything after it — wherever in the file it lies.
/// Open then decodes the last safe cut through the tip with digests, so
/// the next Append can derive its header from the tip's block_hash, and
/// truncates at the first of those records that does not decode; a failed
/// read there fails Open instead. A CRC-valid record before that last
/// interval is never parsed on open and never truncated: if its payload
/// does not decode it is Corruption on read (ReadAll, ReadBlocksAfter, and
/// so Replica::Recover) — the log holds a replica's only copy of its
/// committed inputs. An unrecognized
/// magic or any other format version is an explicit NotSupported open
/// error, never a silent truncation — treating an unknown log as one giant
/// torn tail would wipe the chain. TruncateBefore rebuilds no digest.
class BlockStore {
 public:
  /// `sync_latency_us` is the modelled group-commit flush cost charged per
  /// append (the simulated device's fsync latency). The host-filesystem
  /// fsync is intentionally not issued on the hot path — the simulation
  /// never hard-kills the process, and a real fsync would inject the host
  /// disk's uncontrolled latency into every block. `compression` is the
  /// codec Append encodes blocks with (per-block raw fallback; kNone writes
  /// every section raw). `checkpoint_every` is the replica's checkpoint
  /// period, which bounds references (0: checkpointing off).
  explicit BlockStore(std::string path, uint64_t sync_latency_us = 150,
                      Compression compression = Compression::kHlz,
                      uint64_t checkpoint_every = 0);
  ~BlockStore();

  /// Optional structured event log: TruncateBefore emits a log_truncate
  /// event. nullptr disables.
  void SetEventLog(obs::EventLog* events) { events_ = events; }

  /// When enabled, TruncateBefore appends the records it drops to
  /// <path>.archive before committing the rewrite, so tooling (the torture
  /// harness, audits) can reconstruct the full chain. Crash-redo may append
  /// the same records twice; ReadArchivedBlocks dedups by block id.
  void SetArchiveTruncated(bool on) { archive_truncated_ = on; }

  /// Opens the log and walks its frames, truncating a torn tail or an
  /// undecodable record in the last interval (see class comment).
  /// NotSupported for a file without the v10 header.
  Status Open();

  /// Calls `fn` with the stored payload of each whole record of the log at
  /// `path`, in order, reading only: nothing is repaired, and the scan ends
  /// quietly at a torn or CRC-failing tail. NotSupported for a file without
  /// the v10 header, like Open; IOError when the file cannot be read.
  static Status ScanRecords(const std::string& path,
                            const std::function<void(std::string_view)>& fn);

  /// Appends one block with the modelled group-commit flush. `b.record`,
  /// when set (a replicated block: the caller vouches that it encodes `b`),
  /// is stored verbatim if every block it references — its predecessor,
  /// for a derived header — is in this log's reference window; otherwise,
  /// and for a block without a record, Append encodes the block itself,
  /// deriving its header and storing retries as references where it can.
  /// A block's header.block_hash must be its real hash (Seal and Decode
  /// set it): the next block's derived header is taken from it.
  /// `stored`, when non-null, receives the payload written. Thread-safe
  /// and strictly ordered: a call for block n+1 waits until block n is
  /// appended (pipelined replicas append from concurrent simulation
  /// threads).
  Status Append(const Block& b, std::string* stored = nullptr);

  /// Reads every block with id > after_block (recovery replay source),
  /// decoding from the safe cut at or below after_block + 1.
  Status ReadBlocksAfter(BlockId after_block, std::vector<Block>* out);

  /// Reads the stored record payloads of up to `max_count` blocks with
  /// id > after_block, in id order, as (block id, payload) pairs — the
  /// bytes as written, without decoding them (REPLICATE's cold path).
  Status ReadRecordsAfter(BlockId after_block, size_t max_count,
                          std::vector<std::pair<BlockId, std::string>>* out);

  /// The first block a reader must decode to resolve the references of
  /// block `next` and of every block appended after it: a safe cut at or
  /// below `next` that no later Append will reference across. A
  /// replication session sends the records from here through next - 1
  /// before streaming `next` (docs/REPLICATION.md). Returns `next` when
  /// nothing below it can be referenced.
  BlockId ContextStart(BlockId next) const;

  /// Re-bases an *empty* log so the next Append may be block id+1 — the
  /// snapshot-install path (src/repl/follower.cc): a follower that installs
  /// state as of block `id` has no records below it and never will. A log
  /// that already holds blocks through `id` is a no-op; a non-empty log
  /// behind `id` is InvalidArgument (appending past a gap would wedge the
  /// strict-ordering wait forever and hide missing records).
  Status ResetTail(BlockId id);

  /// Reads the whole chain (audit).
  Status ReadAll(std::vector<Block>* out) { return ReadBlocksAfter(0, out); }

  /// Drops the records below the largest safe cut at or below `keep_from`
  /// (the start of keep_from's interval, or the log's first record if that
  /// is later; every record when `keep_from` is past the tip) — the
  /// checkpoint-anchored retention path:
  /// once the manifest proves state through block B durable, records below
  /// the retention window are dead weight for recovery. The kept records
  /// stay byte-identical. Rewrites the log via write-temp
  /// (<path>.truncate) + rename: a SIGKILL anywhere yields either the old
  /// log or the new one, never a torn mix. Waits for in-flight appends; the
  /// chain tip and last_block_id() are unchanged. No-op when nothing falls
  /// below the cut.
  Status TruncateBefore(BlockId keep_from);

  /// Reads <path>.archive (see SetArchiveTruncated): every record ever
  /// truncated out of the live log, deduped by block id and tolerant of a
  /// torn tail. OK with an empty vector when no archive exists.
  Status ReadArchivedBlocks(std::vector<Block>* out);

  /// Reads the chain tip (the highest-id block), decoding from the last
  /// safe cut — a few records, never an O(chain) scan. NotFound on an
  /// empty log. Safe against concurrent Append: waits for in-flight record
  /// writes.
  Status ReadLast(Block* out);

  /// Locked like first_block_id(): concurrent Appends advance the tip.
  BlockId last_block_id() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_block_id_;
  }
  /// Lowest block id still present in the live log; 0 when the log is
  /// empty. A value > 1 means older records were truncated (or the log was
  /// rebased by a snapshot install) — a joiner behind first_block_id() - 1
  /// cannot be served by streaming and needs a snapshot.
  BlockId first_block_id() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_block_id_;
  }
  size_t num_blocks() const {
    std::lock_guard<std::mutex> lk(mu_);
    return records_.size();
  }

  // --- truncation accounting (relaxed, monotonic) -----------------------
  /// Records dropped from the live log across every TruncateBefore.
  uint64_t truncated_blocks() const {
    return truncated_blocks_.load(std::memory_order_relaxed);
  }
  /// Completed TruncateBefore rewrites (no-ops excluded).
  uint64_t truncations() const {
    return truncations_.load(std::memory_order_relaxed);
  }
  /// Current live-log size in bytes (header + retained records).
  uint64_t live_log_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return append_offset_;
  }

  // --- compression accounting (relaxed, monotonic; harmonybench reports
  // chain.log_bytes_per_txn and chain.compress_ratio from these) ---------
  /// The appended blocks' txns measured in the canonical fixed-width
  /// BlockCodec::EncodeTxn layout (not the varint section), summed over
  /// every Append on this handle. A fixed base: disk/raw is the whole
  /// storage encoding's ratio, references, varint columns and compression
  /// together.
  uint64_t appended_raw_bytes() const {
    return raw_bytes_.load(std::memory_order_relaxed);
  }
  /// Record bytes actually written (framing + header + envelope + stored
  /// section).
  uint64_t appended_disk_bytes() const {
    return disk_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Where a live record sits, and how far back its references reach.
  struct RecordPos {
    uint64_t offset = 0;
    uint32_t reach = 0;
  };

  Status ScanAndRepair();
  /// The largest safe cut at or below `k` (first_block_id_ <= k <=
  /// last_block_id_). Requires mu_.
  BlockId SafeCutLocked(BlockId k) const;
  /// The oldest block a record for block `id` may reference. Requires mu_.
  BlockId RefFloorLocked(BlockId id) const;

  std::string path_;
  uint64_t sync_latency_us_;
  Compression compression_;
  uint64_t interval_;  ///< references never cross an id % interval_ == 1
  obs::EventLog* events_ = nullptr;
  bool archive_truncated_ = false;
  std::atomic<uint64_t> raw_bytes_{0};
  std::atomic<uint64_t> disk_bytes_{0};
  std::atomic<uint64_t> truncated_blocks_{0};
  std::atomic<uint64_t> truncations_{0};
  int fd_ = -1;
  mutable std::mutex mu_;
  std::condition_variable order_cv_;
  uint64_t append_offset_ = 0;
  size_t writes_in_flight_ = 0;      ///< records reserved but not yet written
  BlockId last_block_id_ = 0;
  BlockId first_block_id_ = 0;       ///< lowest id in the live log (0 = empty)
  /// One entry per live record, block first_block_id_ + i at index i.
  std::vector<RecordPos> records_;
  /// The blocks the next Append may reference: the tail of the live log
  /// within the next block's interval.
  RefWindow window_;
};

/// Tiny atomically-replaced manifest recording the latest checkpointed block
/// (the paper's block_checkpoint_log). Recovery loads the checkpointed state
/// and deterministically re-executes blocks after it.
class CheckpointManifest {
 public:
  explicit CheckpointManifest(std::string path) : path_(std::move(path)) {}

  /// Returns the checkpointed block id, or 0 if no checkpoint exists.
  BlockId Read() const;

  /// True when a manifest file exists. Distinguishes "checkpointed at
  /// block 0" (a durable genesis checkpoint) from "never checkpointed" —
  /// Read() returns 0 for both, but the storage layer's journal-epoch
  /// commit rule needs the difference (see DiskBackend::Open).
  bool Exists() const;

  /// Durably records a new checkpoint (write-temp + rename).
  Status Write(BlockId block_id) const;

  /// Removes a stale write-temp left by a crash between Write()'s fwrite
  /// and rename. Harmless litter (Write truncates it), but recovery paths
  /// call this so torn checkpoints leave no debris behind.
  void RemoveStaleTemp() const;

 private:
  std::string path_;
};

/// Replaces the small file at `path` with `bytes`: writes <path>.tmp,
/// flushes and fsyncs it, then renames it over `path`, so a crash leaves the
/// old file or the new one. A failed write removes the temp instead of
/// renaming it. The crash point `crash_point`, when non-null, fires between
/// the write and the rename.
Status WriteFileAtomically(const std::string& path, std::string_view bytes,
                           const char* crash_point = nullptr);

}  // namespace harmony

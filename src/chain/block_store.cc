#include "chain/block_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/clock.h"
#include "common/codec.h"
#include "obs/events.h"
#include "testing/crash_point.h"

namespace harmony {

namespace {

// "HBCL" + the record codec version (kLogVersion, chain/block.h).
constexpr uint32_t kLogMagic = 0x4C434248u;
constexpr uint64_t kLogHeaderBytes = 8;

/// Reads one record (length, payload, CRC) at `off`. Returns false on a
/// short read or CRC mismatch — a torn or corrupt tail from the scanner's
/// point of view. `*rec_len` is the full on-disk record size.
bool ReadRecordAt(int fd, off_t off, std::string* payload, size_t* rec_len) {
  uint32_t len = 0;
  if (::pread(fd, &len, 4, off) != 4) return false;
  // An absurd length (flipped bits, a torn length field) must
  // fail the read, not size a multi-gigabyte allocation.
  if (len > (256u << 20)) return false;
  payload->assign(len, '\0');
  if (::pread(fd, payload->data(), len, off + 4) != static_cast<ssize_t>(len)) {
    return false;
  }
  uint32_t crc = 0;
  if (::pread(fd, &crc, 4, off + 4 + len) != 4) return false;
  if (Crc32(*payload) != crc) return false;
  *rec_len = 8 + static_cast<size_t>(len);
  return true;
}

/// The one record walk: reads the whole records of `fd` from `off` on, in
/// order, and calls `fn(offset, payload)` for each, at most `max` of them.
/// Stops at the first record that is short or fails its CRC, or whose `fn`
/// returns false. Returns the offset just past the last record accepted.
template <typename Fn>
uint64_t WalkRecords(int fd, uint64_t off, size_t max, Fn&& fn) {
  std::string payload;
  size_t rec_len = 0;
  for (size_t n = 0;
       n < max && ReadRecordAt(fd, static_cast<off_t>(off), &payload,
                               &rec_len) && fn(off, payload);
       n++) {
    off += rec_len;
  }
  return off;
}

/// Copies `len` bytes at `from_off` of `from` to `to_off` of `to`, in
/// bounded chunks.
bool CopyRange(int from, uint64_t from_off, uint64_t len, int to,
               uint64_t to_off) {
  std::string buf;
  while (len > 0) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(len, 1u << 20));
    buf.resize(n);
    if (::pread(from, buf.data(), n, static_cast<off_t>(from_off)) !=
            static_cast<ssize_t>(n) ||
        ::pwrite(to, buf.data(), n, static_cast<off_t>(to_off)) !=
            static_cast<ssize_t>(n)) {
      return false;
    }
    from_off += n;
    to_off += n;
    len -= n;
  }
  return true;
}

/// NotSupported unless `header` is the HBCL magic and this build's version:
/// never guess at an unknown file — treating it as one giant torn tail
/// would wipe the chain.
Status CheckHeader(const uint32_t header[2], const std::string& path) {
  if (header[0] != kLogMagic) {
    return Status::NotSupported(
        "block log has no HBCL header (headerless v1 logs are not supported; "
        "this build reads only v" +
        std::to_string(kLogVersion) + "): " + path);
  }
  if (header[1] != kLogVersion) {
    return Status::NotSupported("block log format v" +
                                std::to_string(header[1]) +
                                " (this build reads only v" +
                                std::to_string(kLogVersion) + "): " + path);
  }
  return Status::OK();
}

/// Decodes `n` consecutive records starting at `off` of `fd` (the first a
/// safe cut, so each reference resolves in the blocks decoded before it)
/// and keeps the blocks with id > after, each with its stored payload in
/// Block::record, so an Append of it elsewhere stores those bytes verbatim
/// instead of encoding the block again. Closes `fd`. A record that reads
/// whole but does not decode sets `*undecodable`; a failed read does not.
Status DecodeRecords(int fd, uint64_t off, size_t n, BlockId after,
                     std::vector<Block>* out, bool* undecodable = nullptr) {
  RefWindow window;
  Status s;
  size_t decoded = 0;
  const uint64_t end =
      WalkRecords(fd, off, n, [&](uint64_t, std::string& payload) {
        Block b;
        s = BlockCodec::Decode(payload, &b, &window);
        if (!s.ok()) {
          if (undecodable != nullptr) *undecodable = true;
          return false;
        }
        window.Push(b);
        if (b.header.block_id > after) {
          b.record = std::move(payload);
          out->push_back(std::move(b));
        }
        decoded++;
        return true;
      });
  ::close(fd);
  if (s.ok() && decoded < n) {
    s = Status::Corruption("block log record at offset " + std::to_string(end));
  }
  return s;
}

}  // namespace

BlockStore::BlockStore(std::string path, uint64_t sync_latency_us,
                       Compression compression, uint64_t checkpoint_every)
    : path_(std::move(path)),
      sync_latency_us_(sync_latency_us),
      compression_(compression),
      interval_(checkpoint_every != 0 ? checkpoint_every : kMaxRefReach) {}

BlockStore::~BlockStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status BlockStore::Open() {
  // A crash between TruncateBefore's temp write and its rename leaves the
  // temp behind; the original log survives and the next checkpoint simply
  // truncates again, so drop the debris.
  ::unlink((path_ + ".truncate").c_str());
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return Status::IOError("open block log");

  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < static_cast<off_t>(kLogHeaderBytes)) {
    // Fresh log (or a crash tore the header before any record could ever
    // have been written): stamp the current format.
    if (::ftruncate(fd_, 0) != 0) return Status::IOError("truncate block log");
    uint32_t header[2] = {kLogMagic, kLogVersion};
    if (::pwrite(fd_, header, kLogHeaderBytes, 0) !=
        static_cast<ssize_t>(kLogHeaderBytes)) {
      return Status::IOError("write block log header");
    }
    return ScanAndRepair();
  }
  uint32_t header[2] = {0, 0};
  if (::pread(fd_, header, kLogHeaderBytes, 0) !=
      static_cast<ssize_t>(kLogHeaderBytes)) {
    return Status::IOError("read block log header");
  }
  HARMONY_RETURN_NOT_OK(CheckHeader(header, path_));
  return ScanAndRepair();
}

Status BlockStore::ScanRecords(
    const std::string& path, const std::function<void(std::string_view)>& fn) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("open block log " + path);
  uint32_t header[2] = {0, 0};
  Status s;
  if (::pread(fd, header, kLogHeaderBytes, 0) !=
      static_cast<ssize_t>(kLogHeaderBytes)) {
    s = Status::IOError("read block log header: " + path);
  } else {
    s = CheckHeader(header, path);
  }
  if (s.ok()) {
    WalkRecords(fd, kLogHeaderBytes, SIZE_MAX,
                [&](uint64_t, const std::string& payload) {
                  fn(payload);
                  return true;
                });
  }
  ::close(fd);
  return s;
}

Status BlockStore::ScanAndRepair() {
  last_block_id_ = 0;
  first_block_id_ = 0;
  records_.clear();
  window_.Clear();
  // Walk the frames only: a record whose length, CRC, prefix or block id
  // does not follow is a torn tail. Payloads are not decoded here.
  append_offset_ = WalkRecords(
      fd_, kLogHeaderBytes, SIZE_MAX,
      [&](uint64_t off, const std::string& payload) {
        BlockId id = 0;
        uint32_t reach = 0;
        if (!BlockCodec::Peek(payload, &id, &reach) ||
            (!records_.empty() && id != last_block_id_ + 1)) {
          return false;
        }
        if (records_.empty()) first_block_id_ = id;
        last_block_id_ = id;
        records_.push_back(RecordPos{off, reach});
        return true;
      });
  // Append derives the next header from the tip's block_hash: decode the
  // last safe cut through the tip with digests (at most one interval of
  // records), and cut the log at the first of them that does not decode.
  // A failed re-read of a frame the walk just accepted is an error, not a
  // bad record. Records before that interval are left to the readers,
  // which report a bad one as Corruption.
  if (!records_.empty()) {
    const BlockId from = SafeCutLocked(last_block_id_);
    const int fd = ::dup(fd_);
    if (fd < 0) return Status::IOError("dup block log");
    std::vector<Block> tail;
    bool undecodable = false;
    const Status s =
        DecodeRecords(fd, records_[from - first_block_id_].offset,
                      last_block_id_ + 1 - from, from - 1, &tail, &undecodable);
    if (!s.ok()) {
      if (!undecodable) return s;
      const size_t keep = from - first_block_id_ + tail.size();
      append_offset_ = records_[keep].offset;
      records_.resize(keep);
      last_block_id_ = keep > 0 ? first_block_id_ + keep - 1 : 0;
      if (keep == 0) first_block_id_ = 0;
    }
    for (const Block& b : tail) window_.Push(b);
  }
  // Drop any torn tail so future appends start from a clean record boundary.
  if (::ftruncate(fd_, static_cast<off_t>(append_offset_)) != 0) {
    return Status::IOError("truncate block log");
  }
  return Status::OK();
}

BlockId BlockStore::RefFloorLocked(BlockId id) const {
  if (records_.empty()) return id;
  BlockId interval_start = id - (id - 1) % interval_;
  // Longer intervals are split every kMaxRefReach blocks too, which bounds
  // how far back a reader or a replication session starts decoding.
  if (interval_ > kMaxRefReach) {
    interval_start = std::max(interval_start, id - (id - 1) % kMaxRefReach);
  }
  return std::max(interval_start, first_block_id_);
}

BlockId BlockStore::SafeCutLocked(BlockId k) const {
  // Walk back from the tip, tracking the lowest block any record at or
  // after j references; j is a safe cut when that is not below j.
  BlockId lowest = last_block_id_;
  for (size_t i = records_.size(); i-- > 0;) {
    const BlockId j = first_block_id_ + i;
    lowest = std::min(lowest, j - records_[i].reach);
    if (j <= k && lowest >= j) return j;
  }
  return first_block_id_;
}

BlockId BlockStore::ContextStart(BlockId next) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (records_.empty() || next <= first_block_id_ ||
      next > last_block_id_ + 1) {
    return next;
  }
  // Later appends reference no further back than next's floor; records
  // already stored may reach below it, so start at a safe cut under it.
  return SafeCutLocked(std::min(RefFloorLocked(next), last_block_id_));
}

Status BlockStore::Append(const Block& b, std::string* stored) {
  const BlockId id = b.header.block_id;
  size_t canonical = 0;
  for (const TxnRequest& t : b.batch.txns) {
    canonical += BlockCodec::EncodedTxnSize(t);
  }
  std::string rec;
  uint64_t off;
  {
    // Strict ordering: block n appends only after block n-1 (fresh stores
    // have last_block_id_ == 0 and block ids start at 1). Encoding happens
    // here, ordered against every other append and TruncateBefore, so the
    // window holds exactly the blocks a reader decodes before this one.
    std::unique_lock<std::mutex> lk(mu_);
    order_cv_.wait(lk, [&] { return last_block_id_ + 1 == id; });
    window_.DropBefore(RefFloorLocked(id));
    std::string payload;
    RecordShape shape;
    const bool peeked =
        !b.record.empty() && BlockCodec::Peek(b.record, &shape);
    const uint32_t need = shape.reach();
    if (peeked &&
        (need == 0 || (need < id && window_.Find(id - need) != nullptr)) &&
        (!shape.derived || window_.Follows(b.header))) {
      payload = b.record;
    } else {
      // No record yet, or one that reaches below this log's window (a
      // snapshot base, a truncation, a different interval).
      payload = BlockCodec::EncodeRecord(b, compression_, &window_);
      BlockCodec::Peek(payload, &shape);
    }
    const uint32_t reach = shape.reach();
    window_.Push(b);
    rec.reserve(payload.size() + 8);
    codec::AppendU32(&rec, static_cast<uint32_t>(payload.size()));
    rec.append(payload);
    codec::AppendU32(&rec, Crc32(payload));
    off = append_offset_;
    append_offset_ += rec.size();
    if (records_.empty()) first_block_id_ = id;
    records_.push_back(RecordPos{off, reach});
    last_block_id_ = id;
    writes_in_flight_++;
    if (stored != nullptr) *stored = std::move(payload);
  }
  raw_bytes_.fetch_add(canonical, std::memory_order_relaxed);
  disk_bytes_.fetch_add(rec.size(), std::memory_order_relaxed);
  HARMONY_CRASH_POINT("chain.append.before_write");
  if (testing::g_crash_points_armed.load(std::memory_order_relaxed)) {
    double frac = 1.0;
    if (testing::CrashPointTorn("chain.append.torn_write", &frac)) {
      // Persist a prefix of the record, then die: the torn tail the open
      // scan must detect and truncate.
      const size_t n = static_cast<size_t>(frac * rec.size());
      (void)::pwrite(fd_, rec.data(), n, static_cast<off_t>(off));
      testing::CrashNow();
    }
  }
  const bool wrote =
      ::pwrite(fd_, rec.data(), rec.size(), static_cast<off_t>(off)) ==
      static_cast<ssize_t>(rec.size());
  HARMONY_CRASH_POINT("chain.append.after_write");
  {
    std::lock_guard<std::mutex> lk(mu_);
    writes_in_flight_--;
  }
  if (!wrote) {
    order_cv_.notify_all();
    return Status::IOError("append block");
  }
  SimulateDelayMicros(sync_latency_us_);  // modelled group-commit flush
  // One wake-up for both waiter kinds (successor appends, readers); kept
  // after the delay so consecutive flushes stay serialized as modelled.
  order_cv_.notify_all();
  return Status::OK();
}

Status BlockStore::ResetTail(BlockId id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!records_.empty()) {
    if (last_block_id_ >= id) return Status::OK();
    return Status::InvalidArgument(
        "ResetTail(" + std::to_string(id) + ") over a log ending at " +
        std::to_string(last_block_id_));
  }
  // An empty log can still be positioned past `id` (everything through the
  // old tip was truncated away); never rewind.
  last_block_id_ = std::max(last_block_id_, id);
  window_.Clear();
  order_cv_.notify_all();
  return Status::OK();
}

Status BlockStore::TruncateBefore(BlockId keep_from) {
  std::unique_lock<std::mutex> lk(mu_);
  // The rewrite reads the live file and swaps fd_; wait out reserved
  // records so every copied byte is on disk. New appends queue on mu_ for
  // the duration.
  order_cv_.wait(lk, [&] { return writes_in_flight_ == 0; });
  if (records_.empty() || keep_from <= first_block_id_) return Status::OK();
  // Kept records stay verbatim, so the cut must not split a reference.
  const BlockId cut = keep_from > last_block_id_ ? last_block_id_ + 1
                                                 : SafeCutLocked(keep_from);
  if (cut <= first_block_id_) return Status::OK();
  const size_t dropped = cut - first_block_id_;
  const size_t kept = records_.size() - dropped;
  const uint64_t cut_off = kept > 0 ? records_[dropped].offset : append_offset_;

  const std::string tmp = path_ + ".truncate";
  int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) return Status::IOError("open truncation temp");
  uint32_t header[2] = {kLogMagic, kLogVersion};
  bool ok = ::pwrite(tfd, header, kLogHeaderBytes, 0) ==
            static_cast<ssize_t>(kLogHeaderBytes);

  // Dropped records go to the archive *before* the rename commits the
  // rewrite: a crash in between redoes the truncation and re-archives the
  // same records, which the archive reader dedups — duplicates are
  // recoverable, silently lost records are not.
  int afd = -1;
  off_t aoff = 0;
  if (archive_truncated_) {
    afd = ::open((path_ + ".archive").c_str(), O_RDWR | O_CREAT, 0644);
    if (afd < 0) {
      ::close(tfd);
      ::unlink(tmp.c_str());
      return Status::IOError("open truncation archive");
    }
    const off_t asz = ::lseek(afd, 0, SEEK_END);
    aoff = static_cast<off_t>(kLogHeaderBytes);
    if (asz < static_cast<off_t>(kLogHeaderBytes)) {
      ok = ok && ::ftruncate(afd, 0) == 0 &&
           ::pwrite(afd, header, kLogHeaderBytes, 0) ==
               static_cast<ssize_t>(kLogHeaderBytes);
    } else {
      // A crash mid-archive-append can leave a torn tail; appending after
      // it would strand everything behind the tear. Scan to the last whole
      // record and drop the rest (read-side dedup absorbs the re-archive).
      aoff = static_cast<off_t>(
          WalkRecords(afd, kLogHeaderBytes, SIZE_MAX,
                      [](uint64_t, const std::string&) { return true; }));
      ok = ok && ::ftruncate(afd, aoff) == 0;
    }
    // Every dropped record starts at a safe cut of the archive too: the
    // batch opens with what was the log's first record.
    ok = ok && CopyRange(fd_, kLogHeaderBytes, cut_off - kLogHeaderBytes,
                         afd, static_cast<uint64_t>(aoff));
  }
  // The kept records, byte-identical in their new home.
  ok = ok && CopyRange(fd_, cut_off, append_offset_ - cut_off, tfd,
                       kLogHeaderBytes);
  if (ok && afd >= 0) ok = ::fsync(afd) == 0;
  if (afd >= 0) ::close(afd);
  if (ok) ok = ::fsync(tfd) == 0;
  ::close(tfd);
  if (!ok) {
    ::unlink(tmp.c_str());
    return Status::IOError("write truncated block log");
  }
  ::close(fd_);
  fd_ = -1;
  HARMONY_CRASH_POINT("chain.truncate.before_rename");
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::IOError("rename truncated block log");
  }
  HARMONY_CRASH_POINT("chain.truncate.after_rename");
  fd_ = ::open(path_.c_str(), O_RDWR, 0644);
  if (fd_ < 0) return Status::IOError("reopen truncated block log");
  const uint64_t shift = cut_off - kLogHeaderBytes;
  records_.erase(records_.begin(), records_.begin() + dropped);
  for (RecordPos& p : records_) p.offset -= shift;
  append_offset_ -= shift;
  first_block_id_ = kept > 0 ? cut : 0;  // 0 when everything was dropped
  window_.DropBefore(cut);
  // last_block_id_ is untouched: the tip (and the strict-append ordering
  // anchored on it) is unaffected by retiring the prefix.
  truncated_blocks_.fetch_add(dropped, std::memory_order_relaxed);
  truncations_.fetch_add(1, std::memory_order_relaxed);
  if (events_ != nullptr) {
    events_->Emit(obs::EventSeverity::kInfo, obs::EventCode::kLogTruncate,
                  "dropped " + std::to_string(dropped) + " blocks below " +
                      std::to_string(cut) + " (asked " +
                      std::to_string(keep_from) + "), kept " +
                      std::to_string(kept) + ": " + path_);
  }
  return Status::OK();
}

Status BlockStore::ReadArchivedBlocks(std::vector<Block>* out) {
  out->clear();
  int fd = ::open((path_ + ".archive").c_str(), O_RDONLY);
  if (fd < 0) return Status::OK();  // never archived anything
  BlockId last_seen = 0;
  RefWindow window;
  WalkRecords(fd, kLogHeaderBytes, SIZE_MAX,
              [&](uint64_t, const std::string& payload) {
                // Crash-redo duplicates re-archive a prefix already present;
                // the block ids run monotonically within each truncation
                // batch, so a non-increasing id is a replayed record.
                BlockId id = 0;
                uint32_t reach = 0;
                if (!BlockCodec::Peek(payload, &id, &reach)) return false;
                if (id <= last_seen) return true;
                Block b;
                if (!BlockCodec::Decode(payload, &b, &window).ok()) {
                  return false;
                }
                last_seen = id;
                window.Push(b);
                out->push_back(std::move(b));
                return true;
              });
  ::close(fd);
  return Status::OK();
}

Status BlockStore::ReadBlocksAfter(BlockId after_block,
                                   std::vector<Block>* out) {
  out->clear();
  int fd = -1;
  uint64_t off = 0;
  size_t n = 0;
  {
    // Wait out reserved records so every one read is on disk, and read
    // through a dup: TruncateBefore swaps fd_ for the rewritten file, but
    // the dup keeps the pre-truncation inode (and the offsets taken here)
    // alive.
    std::unique_lock<std::mutex> lk(mu_);
    order_cv_.wait(lk, [&] { return writes_in_flight_ == 0; });
    if (records_.empty() || after_block >= last_block_id_) {
      return Status::OK();
    }
    const BlockId from =
        SafeCutLocked(std::max(after_block + 1, first_block_id_));
    off = records_[from - first_block_id_].offset;
    n = last_block_id_ + 1 - from;
    fd = fd_ >= 0 ? ::dup(fd_) : -1;
  }
  if (fd < 0) return Status::IOError("block log not open");
  out->reserve(n);
  return DecodeRecords(fd, off, n, after_block, out);
}

Status BlockStore::ReadRecordsAfter(
    BlockId after_block, size_t max_count,
    std::vector<std::pair<BlockId, std::string>>* out) {
  out->clear();
  int fd = -1;
  BlockId from = 0;
  uint64_t off = 0;
  size_t n = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);  // dup: see ReadBlocksAfter
    if (records_.empty() || after_block >= last_block_id_) {
      return Status::OK();
    }
    from = std::max(after_block + 1, first_block_id_);
    off = records_[from - first_block_id_].offset;
    n = std::min<uint64_t>(max_count, last_block_id_ + 1 - from);
    fd = fd_ >= 0 ? ::dup(fd_) : -1;
  }
  if (fd < 0) return Status::IOError("block log not open");
  const uint64_t end =
      WalkRecords(fd, off, n, [&](uint64_t, std::string& payload) {
        out->emplace_back(from + out->size(), std::move(payload));
        return true;
      });
  ::close(fd);
  if (out->size() < n) {
    return Status::Corruption("block log record at offset " +
                              std::to_string(end));
  }
  return Status::OK();
}

Status BlockStore::ReadLast(Block* out) {
  // Appends racing this read only move the tip further: take the newest.
  const BlockId last = last_block_id();
  std::vector<Block> tip;
  HARMONY_RETURN_NOT_OK(ReadBlocksAfter(last > 0 ? last - 1 : 0, &tip));
  if (tip.empty()) return Status::NotFound("empty block log");
  *out = std::move(tip.back());
  return Status::OK();
}

BlockId CheckpointManifest::Read() const {
  FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return 0;
  uint64_t block_id = 0;
  uint32_t crc = 0;
  const bool ok = std::fread(&block_id, 8, 1, f) == 1 &&
                  std::fread(&crc, 4, 1, f) == 1 &&
                  Crc32(&block_id, 8) == crc;
  std::fclose(f);
  return ok ? block_id : 0;
}

Status CheckpointManifest::Write(BlockId block_id) const {
  std::string bytes;
  codec::AppendU64(&bytes, block_id);
  codec::AppendU32(&bytes, Crc32(&block_id, 8));
  return WriteFileAtomically(path_, bytes, "chain.manifest.before_rename");
}

bool CheckpointManifest::Exists() const {
  return ::access(path_.c_str(), F_OK) == 0;
}

void CheckpointManifest::RemoveStaleTemp() const {
  ::unlink((path_ + ".tmp").c_str());
}

Status WriteFileAtomically(const std::string& path, std::string_view bytes,
                           const char* crash_point) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("open " + tmp);
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
            std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    // Never rename a temp that may not hold the bytes over the good file.
    ::unlink(tmp.c_str());
    return Status::IOError("write " + tmp);
  }
  if (crash_point != nullptr) HARMONY_CRASH_POINT(crash_point);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp);
  }
  return Status::OK();
}

}  // namespace harmony

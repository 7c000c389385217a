#include "storage/state_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "obs/events.h"
#include "testing/crash_point.h"

namespace harmony {

namespace {
// Journal format v1 (legacy): magic1 | count | entries | magic1. Retired
// eagerly at the end of Checkpoint() — which leaves a crash window against
// an external commit record (see Checkpoint below); kept readable so a log
// written by an older build still rolls back.
constexpr uint64_t kJournalMagic = 0x4841524d4f4e5931ULL;  // "HARMONY1"
// Journal format v2: magic2 | epoch | count | entries | magic2. The epoch
// (checkpointed block id + 1, so always >= 1) ties the journal to the
// caller's commit record; rollback happens iff the epoch never committed.
constexpr uint64_t kJournalMagic2 = 0x4841524d4f4e5932ULL;  // "HARMONY2"
}

DiskBackend::DiskBackend(const std::string& dir, const std::string& name,
                         DiskModel model, size_t pool_pages,
                         size_t pool_stripes, size_t flush_threads)
    : journal_path_(dir + "/" + name + ".journal"),
      disk_(std::make_unique<DiskManager>(dir + "/" + name + ".tbl", model)),
      pool_(std::make_unique<BufferPool>(disk_.get(), pool_pages, pool_stripes,
                                         flush_threads)),
      table_(std::make_unique<KvTable>(disk_.get(), pool_.get())) {}

Status DiskBackend::Open(uint64_t committed_epoch) {
  HARMONY_RETURN_NOT_OK(disk_->status());
  HARMONY_RETURN_NOT_OK(RollbackJournalIfNeeded(committed_epoch));
  return table_->RebuildIndex();
}

Status DiskBackend::Get(Key key, std::string* out) {
  return table_->Get(key, out);
}

Status DiskBackend::Put(Key key, std::string_view value,
                        std::optional<std::string>* old_value) {
  return table_->Put(key, value, old_value);
}

Status DiskBackend::Erase(Key key, std::optional<std::string>* old_value) {
  return table_->Erase(key, old_value);
}

Status DiskBackend::WriteJournal(uint64_t commit_epoch) {
  // Journal v2: magic2 | epoch | count | count * (page_id, page image) |
  // magic2. The trailing magic commits the journal; a torn journal is
  // ignored.
  std::vector<PageId> dirty;
  {
    // The buffer pool does not expose dirty ids directly; conservatively
    // journal the pre-image of every allocated page that differs... To keep
    // the journal proportional to the dirty set, we reuse FlushAll's
    // contract: pages that were written since the last checkpoint are dirty
    // in the pool. We read their *on-disk* pre-images before FlushAll
    // overwrites them.
    dirty = pool_->DirtyPageIds();
  }
  if (dirty.empty()) return Status::OK();
  int fd = ::open(journal_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("open journal");
  const uint64_t count = dirty.size();
  ::pwrite(fd, &kJournalMagic2, 8, 0);
  ::pwrite(fd, &commit_epoch, 8, 8);
  ::pwrite(fd, &count, 8, 16);
  off_t off = 24;
  Page img;
  for (PageId pid : dirty) {
    // Pre-image straight from disk, bypassing the pool and the device
    // latency model (see DiskManager::ReadPageRaw).
    HARMONY_RETURN_NOT_OK(disk_->ReadPageRaw(pid, &img));
    uint64_t pid64 = pid;
    ::pwrite(fd, &pid64, 8, off);
    ::pwrite(fd, img.data, kPageSize, off + 8);
    off += 8 + static_cast<off_t>(kPageSize);
  }
  // Trailing magic marks the journal complete (modelled flush; see
  // DiskManager::Sync).
  ::pwrite(fd, &kJournalMagic2, 8, off);
  ::close(fd);
  return Status::OK();
}

Status DiskBackend::RollbackJournalIfNeeded(uint64_t committed_epoch) {
  int fd = ::open(journal_path_.c_str(), O_RDONLY);
  if (fd < 0) return Status::OK();  // no journal, nothing to do
  uint64_t magic = 0, epoch = 0, count = 0;
  if (::pread(fd, &magic, 8, 0) != 8 ||
      (magic != kJournalMagic && magic != kJournalMagic2)) {
    ::close(fd);
    ::unlink(journal_path_.c_str());
    return Status::OK();  // torn/empty journal: previous checkpoint completed
  }
  const bool v2 = magic == kJournalMagic2;
  const off_t count_off = v2 ? 16 : 8;
  if ((v2 && ::pread(fd, &epoch, 8, 8) != 8) ||
      ::pread(fd, &count, 8, count_off) != 8) {
    ::close(fd);
    ::unlink(journal_path_.c_str());
    return Status::OK();
  }
  const off_t body = count_off + 8;
  const off_t tail = body + static_cast<off_t>(count) * (8 + kPageSize);
  uint64_t trailer = 0;
  if (::pread(fd, &trailer, 8, tail) != 8 || trailer != magic) {
    ::close(fd);
    ::unlink(journal_path_.c_str());
    return Status::OK();  // incomplete journal: checkpoint never started
  }
  // Complete journal. A v2 journal whose epoch the caller's commit record
  // covers belongs to a *committed* checkpoint (the crash hit between the
  // flush and the journal's lazy retirement): keep the pages, drop the
  // journal. Only an uncommitted epoch rolls back. Legacy v1 journals have
  // no epoch and always roll back (their writers retired them eagerly, so
  // a surviving complete journal means an interrupted flush).
  if (v2 && epoch <= committed_epoch) {
    ::close(fd);
    ::unlink(journal_path_.c_str());
    return Status::OK();
  }
  off_t off = body;
  Page img;
  for (uint64_t i = 0; i < count; i++) {
    uint64_t pid64 = 0;
    if (::pread(fd, &pid64, 8, off) != 8 ||
        ::pread(fd, img.data, kPageSize, off + 8) !=
            static_cast<ssize_t>(kPageSize)) {
      ::close(fd);
      return Status::Corruption("journal body truncated");
    }
    HARMONY_RETURN_NOT_OK(disk_->WritePage(static_cast<PageId>(pid64), img));
    off += 8 + static_cast<off_t>(kPageSize);
  }
  ::close(fd);
  HARMONY_RETURN_NOT_OK(disk_->Sync());
  ::unlink(journal_path_.c_str());
  if (events_ != nullptr) {
    events_->Emit(obs::EventSeverity::kWarn, obs::EventCode::kJournalRecover,
                  "rolled back " + std::to_string(count) +
                      " pages (epoch " + std::to_string(epoch) + ")");
  }
  return Status::OK();
}

Status DiskBackend::Checkpoint(uint64_t commit_epoch) {
  HARMONY_RETURN_NOT_OK(WriteJournal(commit_epoch));
  HARMONY_CRASH_POINT("storage.checkpoint.after_journal");
  HARMONY_RETURN_NOT_OK(pool_->FlushAll());
  HARMONY_RETURN_NOT_OK(disk_->Sync());
  if (commit_epoch == 0) {
    // Standalone mode: no external commit record to coordinate with — the
    // completed flush is the commit point, retire the journal now.
    ::unlink(journal_path_.c_str());
  }
  // Coordinated mode (commit_epoch > 0): the journal stays until the
  // caller's commit record (the replica's manifest) advances past the
  // epoch. It is retired lazily — overwritten by the next checkpoint's
  // journal, or unlinked by the next Open() once the epoch proves
  // committed. A crash anywhere in between rolls back to the pre-images,
  // which is exactly the state the commit record describes.
  return Status::OK();
}

Status MemoryBackend::Get(Key key, std::string* out) {
  Shard& s = ShardFor(key);
  std::lock_guard<SpinLock> lk(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) return Status::NotFound();
  *out = it->second;
  return Status::OK();
}

Status MemoryBackend::Put(Key key, std::string_view value,
                          std::optional<std::string>* old_value) {
  Shard& s = ShardFor(key);
  std::lock_guard<SpinLock> lk(s.mu);
  auto it = s.map.find(key);
  if (old_value != nullptr) {
    if (it != s.map.end()) {
      old_value->emplace(it->second);
    } else {
      old_value->reset();
    }
  }
  if (it != s.map.end()) {
    it->second.assign(value.data(), value.size());
  } else {
    s.map.emplace(key, std::string(value));
  }
  return Status::OK();
}

Status MemoryBackend::Erase(Key key, std::optional<std::string>* old_value) {
  Shard& s = ShardFor(key);
  std::lock_guard<SpinLock> lk(s.mu);
  auto it = s.map.find(key);
  if (old_value != nullptr) {
    if (it != s.map.end()) {
      old_value->emplace(it->second);
    } else {
      old_value->reset();
    }
  }
  if (it != s.map.end()) s.map.erase(it);
  return Status::OK();
}

size_t MemoryBackend::size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<SpinLock> lk(s.mu);
    n += s.map.size();
  }
  return n;
}

Status MemoryBackend::ScanAll(
    const std::function<void(Key, std::string_view)>& fn) {
  for (auto& s : shards_) {
    std::lock_guard<SpinLock> lk(s.mu);
    for (const auto& [k, v] : s.map) fn(k, v);
  }
  return Status::OK();
}

}  // namespace harmony

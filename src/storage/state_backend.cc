#include "storage/state_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <vector>

#include "obs/events.h"
#include "testing/crash_point.h"

namespace harmony {

namespace {
// Journal format v3 (see WriteJournal). The epoch (checkpointed block id
// + 1, so always >= 1; 0 = standalone) ties the journal to the caller's
// commit record; rollback happens iff the epoch never committed.
constexpr uint64_t kJournalMagic3 = 0x4841524d4f4e5933ULL;  // "HARMONY3"
// Journal format v2, which had no image page count and journaled every
// dirty page; no build writes it any more, and Open refuses one.
constexpr uint64_t kJournalMagic2 = 0x4841524d4f4e5932ULL;  // "HARMONY2"
// Bytes per journal entry: u64 page id, then the page image.
constexpr off_t kJournalEntryBytes = 8 + static_cast<off_t>(kPageSize);

// Writes `n` bytes at `off`; false with errno set on a failed or short
// write (EIO for a short one).
bool PwriteAll(int fd, const void* buf, size_t n, off_t off) {
  const ssize_t w = ::pwrite(fd, buf, n, off);
  if (w == static_cast<ssize_t>(n)) return true;
  if (w >= 0) errno = EIO;
  return false;
}
}  // namespace

DiskBackend::DiskBackend(const std::string& dir, const std::string& name,
                         DiskModel model, size_t pool_pages,
                         size_t pool_stripes)
    : journal_path_(dir + "/" + name + ".journal"),
      disk_(std::make_unique<DiskManager>(dir + "/" + name + ".tbl", model)),
      pool_(std::make_unique<BufferPool>(disk_.get(), pool_pages,
                                         pool_stripes)),
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
  // Journal v3: magic3 | epoch | image_pages | count | count * (page_id,
  // page image) | magic3. image_pages is the page file's length, which
  // outside a checkpoint is the last checkpointed image (the pool is
  // no-steal). Only a dirty page below it has a pre-image; a page at or
  // past it is new since the image, and rollback drops it by truncating
  // the file back to image_pages. The trailing magic commits the journal;
  // a torn journal is ignored.
  const std::vector<PageId> dirty = pool_->DirtyPageIds();
  if (dirty.empty()) return Status::OK();
  Result<PageId> image_pages = disk_->FilePages();
  HARMONY_RETURN_NOT_OK(image_pages.status());
  std::vector<PageId> journaled;
  for (PageId pid : dirty) {
    if (pid < *image_pages) journaled.push_back(pid);
  }
  int fd = ::open(journal_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open journal " + journal_path_ + ": " +
                           std::strerror(errno));
  }
  auto write_failed = [&] {
    const int err = errno;
    ::close(fd);
    return Status::IOError("write journal " + journal_path_ + ": " +
                           std::strerror(err));
  };
  const uint64_t header[4] = {kJournalMagic3, commit_epoch, *image_pages,
                              journaled.size()};
  if (!PwriteAll(fd, header, sizeof(header), 0)) return write_failed();
  off_t off = sizeof(header);
  Page img;
  for (PageId pid : journaled) {
    // Pre-image straight from disk, bypassing the pool and the device
    // latency model (see DiskManager::ReadPageRaw).
    Status st = disk_->ReadPageRaw(pid, &img);
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
    const uint64_t pid64 = pid;
    if (!PwriteAll(fd, &pid64, 8, off) ||
        !PwriteAll(fd, img.data, kPageSize, off + 8)) {
      return write_failed();
    }
    off += kJournalEntryBytes;
  }
  // Trailing magic marks the journal complete (modelled flush; see
  // DiskManager::Sync).
  if (!PwriteAll(fd, &kJournalMagic3, 8, off)) return write_failed();
  if (::close(fd) != 0) {
    return Status::IOError("close journal " + journal_path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status DiskBackend::RollbackJournalIfNeeded(uint64_t committed_epoch) {
  int fd = ::open(journal_path_.c_str(), O_RDONLY);
  if (fd < 0) return Status::OK();  // no journal, nothing to do
  auto read_u64 = [fd](uint64_t* v, off_t off) {
    return ::pread(fd, v, 8, off) == 8;
  };
  uint64_t magic = 0, epoch = 0, image_pages = 0, count = 0, trailer = 0;
  const bool has_magic = read_u64(&magic, 0);
  if (has_magic && magic == kJournalMagic2) {
    ::close(fd);
    return Status::NotSupported(
        "checkpoint journal v2 (this build reads v3): " + journal_path_);
  }
  constexpr off_t kBody = 32;  // magic, epoch, image_pages, count
  const bool complete =
      has_magic && magic == kJournalMagic3 && read_u64(&epoch, 8) &&
      read_u64(&image_pages, 16) && read_u64(&count, 24) &&
      count <= static_cast<uint64_t>(
                   (std::numeric_limits<off_t>::max() - kBody - 8) /
                   kJournalEntryBytes) &&
      read_u64(&trailer,
               kBody + static_cast<off_t>(count) * kJournalEntryBytes) &&
      trailer == magic;
  // A torn or empty journal means its checkpoint never started flushing.
  // Otherwise the journal is complete, and an epoch the caller's commit
  // record covers belongs to a *committed* checkpoint (the crash hit
  // between the flush and the journal's lazy retirement): keep the pages,
  // drop the journal. Epoch 0 is a standalone checkpoint, which has no
  // commit record and retires its journal as soon as the flush completes,
  // so a complete one that survived is an interrupted flush: it rolls
  // back like any uncommitted epoch.
  if (!complete || (epoch != 0 && epoch <= committed_epoch)) {
    ::close(fd);
    ::unlink(journal_path_.c_str());
    return Status::OK();
  }
  if (image_pages > std::numeric_limits<PageId>::max()) {
    ::close(fd);
    return Status::Corruption("journal image page count out of range");
  }
  off_t off = kBody;
  Page img;
  for (uint64_t i = 0; i < count; i++) {
    uint64_t pid64 = 0;
    if (!read_u64(&pid64, off) ||
        ::pread(fd, img.data, kPageSize, off + 8) !=
            static_cast<ssize_t>(kPageSize)) {
      ::close(fd);
      return Status::Corruption("journal body truncated");
    }
    Status st = disk_->WritePage(static_cast<PageId>(pid64), img);
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
    off += kJournalEntryBytes;
  }
  ::close(fd);
  // Pages the torn flush appended past the image hold rows the image never
  // had: cut them off, so neither the file nor the allocator sees them.
  HARMONY_RETURN_NOT_OK(disk_->Truncate(static_cast<PageId>(image_pages)));
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
  // The load cursor's page joins the dirty set the journal and flush see.
  table_->ReleaseLoadCursor();
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

#include "storage/kv_table.h"

#include <algorithm>
#include <cassert>

namespace harmony {

KvTable::KvTable(DiskManager* disk, BufferPool* pool)
    : disk_(disk), pool_(pool) {}

Status KvTable::RebuildIndex() {
  std::unique_lock<std::shared_mutex> ilk(index_mu_);
  index_.Clear();
  std::lock_guard<std::mutex> alk(alloc_mu_);
  ReleaseLoadCursorLocked();
  free_pages_.clear();
  older_free_max_ = kPageSize;  // unknown until the next full scan
  const PageId n = disk_->num_pages();
  for (PageId p = 0; p < n; p++) {
    auto guard = pool_->FetchPage(p);
    HARMONY_RETURN_NOT_OK(guard.status());
    const char* d = guard->data();
    slotted::ForEach(d, [&](uint16_t slot, Key k, std::string_view) {
      index_.Set(k, Rid{p, slot});
    });
    free_pages_.emplace_back(p, slotted::TotalFree(d));
  }
  return Status::OK();
}

Status KvTable::Get(Key key, std::string* out) {
  for (;;) {
    Rid rid;
    HARMONY_RETURN_NOT_OK(Lookup(key, &rid));
    auto guard = pool_->FetchPage(rid.page);
    HARMONY_RETURN_NOT_OK(guard.status());
    Key k;
    std::string_view v;
    {
      std::lock_guard<SpinLock> latch(PageLatch(rid.page));
      if (slotted::Read(guard->data(), rid.slot, &k, &v) && k == key) {
        out->assign(v.data(), v.size());
        return Status::OK();
      }
    }
    // A writer moved or erased the key after the lookup: retry where the
    // index points now.
    HARMONY_RETURN_NOT_OK(CheckMoved(key, rid, *guard));
  }
}

Status KvTable::Lookup(Key key, Rid* rid) const {
  std::shared_lock<std::shared_mutex> lk(index_mu_);
  const Rid* found = index_.Find(key);
  if (found == nullptr) return Status::NotFound();
  *rid = *found;
  return Status::OK();
}

Status KvTable::CheckMoved(Key key, Rid rid, PageGuard& guard) {
  // Under the index lock no writer can move or erase the key (both change
  // the index first, and relocation holds it exclusively throughout), so
  // an index that still names the slot must find the key there.
  std::shared_lock<std::shared_mutex> lk(index_mu_);
  const Rid* found = index_.Find(key);
  if (found == nullptr) return Status::NotFound();
  if (!(*found == rid)) return Status::OK();
  std::lock_guard<SpinLock> latch(PageLatch(rid.page));
  Key k;
  std::string_view v;
  if (slotted::Read(guard.data(), rid.slot, &k, &v) && k == key) {
    return Status::OK();
  }
  return Status::Corruption("index points at stale slot");
}

Result<Rid> KvTable::InsertRecord(Key key, std::string_view value) {
  std::lock_guard<std::mutex> alk(alloc_mu_);
  HeldLatch latch(this);
  return InsertLocked(key, value, /*load=*/false, &latch);
}

Result<Rid> KvTable::InsertLocked(Key key, std::string_view value, bool load,
                                  HeldLatch* latch) {
  const size_t need = slotted::kRecordHeader + value.size() + slotted::kSlotSize;
  // Try recently allocated pages first (they have the most room). When no
  // older page can have room, try only the newest: a bulk load would
  // otherwise rescan every page for each new one.
  const size_t n = free_pages_.size();
  const size_t tries = older_free_max_ < need ? std::min<size_t>(n, 1) : n;
  size_t older_max = 0;
  for (size_t attempt = 0; attempt < tries; attempt++) {
    auto& [pid, free_est] = free_pages_[n - 1 - attempt];
    if (free_est >= need) {
      PageGuard fetched;
      PageGuard* guard = &load_guard_;
      if (pid != load_page_) {
        latch->Release();
        auto g = pool_->FetchPage(pid);
        HARMONY_RETURN_NOT_OK(g.status());
        fetched = std::move(*g);
        guard = &fetched;
      }
      latch->Hold(pid);
      const int slot = slotted::Insert(guard->data(), key, value);
      free_est = slotted::TotalFree(guard->data());
      // Only the cursor's page stays latched: `fetched` unpins it on return.
      if (guard == &fetched) latch->Release();
      if (slot >= 0) {
        if (attempt > 0) older_free_max_ = std::max(older_free_max_, free_est);
        // A load into the cursor's page skips the mark: the cursor marks
        // it when it moves on.
        if (!load || guard == &fetched) guard->MarkDirty();
        return Rid{pid, static_cast<uint16_t>(slot)};
      }
    }
    if (attempt > 0) older_max = std::max(older_max, free_est);
  }
  if (tries == n) older_free_max_ = older_max;  // a full scan is exact
  // No page fits: allocate a new one.
  if (n > 0) {
    older_free_max_ = std::max(older_free_max_, free_pages_.back().second);
  }
  latch->Release();
  const PageId pid = disk_->AllocatePage();
  auto guard = pool_->NewPage(pid);
  HARMONY_RETURN_NOT_OK(guard.status());
  latch->Hold(pid);
  slotted::Init(guard->data());
  const int slot = slotted::Insert(guard->data(), key, value);
  if (slot >= 0) {
    free_pages_.emplace_back(pid, slotted::TotalFree(guard->data()));
  }
  if (!load || slot < 0) latch->Release();
  if (slot < 0) return Status::InvalidArgument("record too large for a page");
  guard->MarkDirty();
  if (load) {
    ReleaseLoadCursorLocked();
    load_guard_ = std::move(*guard);
    load_page_ = pid;
  }
  return Rid{pid, static_cast<uint16_t>(slot)};
}

Status KvTable::Load(const std::vector<KvRow>& rows) {
  std::unique_lock<std::shared_mutex> ilk(index_mu_);
  // No rehash below, so an entry from Slot stays put until its Claim.
  index_.Reserve(index_.size() + rows.size());
  std::unique_lock<std::mutex> alk(alloc_mu_);
  HeldLatch latch(this);
  for (size_t i = 0; i < rows.size(); i++) {
    const auto& [key, value] = rows[i];
    FlatIndex::Entry* e = index_.Slot(key);
    if (e->rid.valid()) {
      // A key already present, or repeated in the batch: Put it, which
      // takes the locks itself, then take them again for the rest.
      latch.Release();
      alk.unlock();
      ilk.unlock();
      HARMONY_RETURN_NOT_OK(Put(key, value));
      ilk.lock();
      index_.Reserve(index_.size() + rows.size() - i - 1);
      alk.lock();
      continue;
    }
    auto rid = InsertLocked(key, value, /*load=*/true, &latch);
    HARMONY_RETURN_NOT_OK(rid.status());
    index_.Claim(e, key, *rid);
  }
  return Status::OK();
}

void KvTable::ReleaseLoadCursor() {
  std::lock_guard<std::mutex> alk(alloc_mu_);
  ReleaseLoadCursorLocked();
}

void KvTable::ReleaseLoadCursorLocked() {
  if (!load_guard_.valid()) return;
  load_guard_.MarkDirty();
  load_guard_.Release();
  load_page_ = kInvalidPageId;
}

Status KvTable::Put(Key key, std::string_view value,
                    std::optional<std::string>* old_value) {
  for (;;) {
    if (old_value != nullptr) old_value->reset();
    Rid rid;
    Status s = Lookup(key, &rid);
    if (s.IsNotFound()) break;
    auto guard = pool_->FetchPage(rid.page);
    HARMONY_RETURN_NOT_OK(guard.status());
    bool held = false;
    {
      std::lock_guard<SpinLock> latch(PageLatch(rid.page));
      Key k;
      std::string_view v;
      held = slotted::Read(guard->data(), rid.slot, &k, &v) && k == key;
      if (held) {
        if (old_value != nullptr) old_value->emplace(v.data(), v.size());
        if (slotted::UpdateInPlace(guard->data(), rid.slot, value)) {
          guard->MarkDirty();
          return Status::OK();
        }
      }
    }
    if (held) return Relocate(key, value, rid, *guard);
    // The key moved or went away after the lookup: look again.
    s = CheckMoved(key, rid, *guard);
    if (s.IsNotFound()) break;
    HARMONY_RETURN_NOT_OK(s);
  }
  auto new_rid = InsertRecord(key, value);
  HARMONY_RETURN_NOT_OK(new_rid.status());
  std::unique_lock<std::shared_mutex> lk(index_mu_);
  index_.Set(key, *new_rid);
  return Status::OK();
}

Status KvTable::Relocate(Key key, std::string_view value, Rid rid,
                         PageGuard& guard) {
  // The record no longer fits its allocation. Its slot is freed first, so
  // the new record may take the room it leaves (the page file grows by the
  // extra bytes only), and the index lock is held until the index names
  // the new slot: a reader that finds the old slot empty re-checks the
  // index under that lock (CheckMoved) and follows the key.
  std::unique_lock<std::shared_mutex> lk(index_mu_);
  EraseSlot(rid, guard);
  auto new_rid = InsertRecord(key, value);
  HARMONY_RETURN_NOT_OK(new_rid.status());
  index_.Set(key, *new_rid);
  return Status::OK();
}

Status KvTable::Erase(Key key, std::optional<std::string>* old_value) {
  if (old_value != nullptr) old_value->reset();
  Rid rid;
  {
    std::unique_lock<std::shared_mutex> lk(index_mu_);
    if (!index_.Erase(key, &rid)) return Status::OK();
  }
  auto guard = pool_->FetchPage(rid.page);
  HARMONY_RETURN_NOT_OK(guard.status());
  if (old_value != nullptr) {
    std::lock_guard<SpinLock> latch(PageLatch(rid.page));
    Key k;
    std::string_view v;
    if (slotted::Read(guard->data(), rid.slot, &k, &v) && k == key) {
      old_value->emplace(v.data(), v.size());
    }
  }
  EraseSlot(rid, *guard);
  return Status::OK();
}

void KvTable::EraseSlot(Rid rid, PageGuard& guard) {
  std::lock_guard<std::mutex> alk(alloc_mu_);
  std::lock_guard<SpinLock> latch(PageLatch(rid.page));
  slotted::Erase(guard.data(), rid.slot);
  guard.MarkDirty();
  if (rid.page >= free_pages_.size() ||
      free_pages_[rid.page].first != rid.page) {
    return;  // a page this table never listed
  }
  size_t& free_est = free_pages_[rid.page].second;
  free_est = slotted::TotalFree(guard.data());
  if (rid.page + 1 != free_pages_.size()) {
    older_free_max_ = std::max(older_free_max_, free_est);
  }
}

size_t KvTable::size() const {
  std::shared_lock<std::shared_mutex> lk(index_mu_);
  return index_.size();
}

Status KvTable::ScanAll(const std::function<void(Key, std::string_view)>& fn) {
  const PageId n = disk_->num_pages();
  for (PageId p = 0; p < n; p++) {
    auto guard = pool_->FetchPage(p);
    HARMONY_RETURN_NOT_OK(guard.status());
    slotted::ForEach(guard->data(),
                     [&](uint16_t, Key k, std::string_view v) { fn(k, v); });
  }
  return Status::OK();
}

}  // namespace harmony

#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>

#include "testing/crash_point.h"

namespace harmony {

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    stripe_ = o.stripe_;
    frame_ = o.frame_;
    page_ = o.page_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  if (pool_ != nullptr) pool_->MarkDirtyFrame(stripe_, frame_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(stripe_, frame_);
    pool_ = nullptr;
    page_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity, size_t stripes)
    : disk_(disk), capacity_(capacity == 0 ? 1 : capacity) {
  // Small pools collapse to fewer stripes so each shard keeps enough frames
  // for CLOCK to have real choices (and the seed tests' exact capacity
  // semantics survive: a 2-page pool is still one stripe of 2 frames).
  size_t n = std::max<size_t>(1, std::min(stripes == 0 ? 1 : stripes,
                                          capacity_ / kMinPagesPerStripe));
  stripes_.reserve(n);
  const size_t base = capacity_ / n;
  size_t rem = capacity_ % n;
  for (size_t i = 0; i < n; i++) {
    auto s = std::make_unique<Stripe>();
    s->capacity = base + (rem > 0 ? 1 : 0);
    if (rem > 0) rem--;
    s->frames.reserve(s->capacity);
    stripes_.push_back(std::move(s));
  }
}

BufferPool::~BufferPool() {
  // Deliberately no flush: durability is the checkpoint's job (no-steal
  // contract). Tearing down with dirty pages == losing un-checkpointed
  // work, exactly like a crash; recovery replays the logical log.
  for (auto& s : stripes_) {
    for (Frame* f : s->frames) delete f;
  }
}

size_t BufferPool::num_frames() const {
  size_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    total += s->frames.size();
  }
  return total;
}

BufferPoolStats BufferPool::Snap() const {
  BufferPoolStats out;
  for (const auto& s : stripes_) {
    out.hits += s->hits.load(std::memory_order_relaxed);
    out.misses += s->misses.load(std::memory_order_relaxed);
    out.dirty_evictions += s->dirty_evictions.load(std::memory_order_relaxed);
  }
  out.flushed_pages = flushed_pages_.load(std::memory_order_relaxed);
  out.flushes = flushes_.load(std::memory_order_relaxed);
  return out;
}

size_t BufferPool::PickVictimLocked(Stripe& s) {
  // Room to allocate a fresh frame. `new Frame` leaves its page bytes
  // uninitialized: FetchPage reads over them and NewPage zeroes them.
  if (s.frames.size() < s.capacity) {
    s.frames.push_back(new Frame);
    return s.frames.size() - 1;
  }
  // CLOCK sweep over clean, unpinned, non-loading frames. Two full sweeps:
  // the first clears reference bits, the second takes the first candidate.
  // A stripe whose every frame is dirty has none, so it skips the sweep
  // (a bulk load would otherwise sweep the whole stripe per new page).
  const size_t n = s.dirty_frames < s.frames.size() ? s.frames.size() : 0;
  for (size_t step = 0; step < 2 * n; step++) {
    Frame& f = *s.frames[s.clock_hand];
    const size_t idx = s.clock_hand;
    s.clock_hand = (s.clock_hand + 1) % n;
    if (f.pin_count > 0 || f.loading) continue;
    if (f.dirty) continue;  // no-steal: never write back outside FlushAll
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (f.page_id != kInvalidPageId) s.page_table.erase(f.page_id);
    f.page_id = kInvalidPageId;
    return idx;
  }
  // Every unpinned frame of this stripe is dirty: grow instead of stealing.
  s.dirty_evictions.fetch_add(1, std::memory_order_relaxed);
  s.frames.push_back(new Frame);
  return s.frames.size() - 1;
}

Result<PageGuard> BufferPool::FetchPage(PageId page_id) {
  const size_t si = page_id % stripes_.size();
  Stripe& s = *stripes_[si];
  std::unique_lock<std::mutex> lk(s.mu);
  while (true) {
    auto it = s.page_table.find(page_id);
    if (it != s.page_table.end()) {
      Frame& f = *s.frames[it->second];
      if (f.loading) {
        // Another thread is reading this page from disk; wait for it.
        s.load_cv.wait(lk);
        continue;
      }
      f.pin_count++;
      f.referenced = true;
      s.hits.fetch_add(1, std::memory_order_relaxed);
      return PageGuard(this, si, it->second, &f.page);
    }
    break;
  }
  const size_t victim = PickVictimLocked(s);
  Frame& f = *s.frames[victim];
  f.page_id = page_id;
  f.pin_count = 1;
  f.loading = true;
  f.dirty = false;
  f.referenced = true;
  s.page_table[page_id] = victim;
  s.misses.fetch_add(1, std::memory_order_relaxed);
  lk.unlock();

  Status st = disk_->ReadPage(page_id, &f.page);

  lk.lock();
  f.loading = false;
  s.load_cv.notify_all();
  if (!st.ok()) {
    f.pin_count--;
    s.page_table.erase(page_id);
    f.page_id = kInvalidPageId;
    return st;
  }
  return PageGuard(this, si, victim, &f.page);
}

Result<PageGuard> BufferPool::NewPage(PageId page_id) {
  const size_t si = page_id % stripes_.size();
  Stripe& s = *stripes_[si];
  std::unique_lock<std::mutex> lk(s.mu);
  assert(s.page_table.find(page_id) == s.page_table.end());
  const size_t victim = PickVictimLocked(s);
  Frame& f = *s.frames[victim];
  f.page_id = page_id;
  f.pin_count = 1;
  f.loading = false;
  f.dirty = true;  // a new page must reach disk eventually
  s.dirty_frames++;  // victims are clean
  f.dirty_gen++;
  f.referenced = true;
  f.page.Zero();
  s.page_table[page_id] = victim;
  return PageGuard(this, si, victim, &f.page);
}

Status BufferPool::FlushAll() {
  // One flush at a time: the write phase runs without stripe latches, and
  // the trailing shrink deletes frames — overlap would be use-after-free.
  std::lock_guard<std::mutex> flush_lk(flush_mu_);

  // Snapshot the dirty set under the stripe latches, write outside them.
  // The production checkpoint runs quiesced; concurrent mutators (property
  // tests) are handled by the dirty generation: a frame re-dirtied while
  // its write-back is in flight keeps its dirty bit for the next flush.
  struct Item {
    Stripe* stripe;
    Frame* frame;
    PageId page_id;
    uint64_t gen;
  };
  std::vector<Item> dirty;
  for (auto& sp : stripes_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    for (Frame* f : sp->frames) {
      if (f->page_id != kInvalidPageId && f->dirty) {
        dirty.push_back(Item{sp.get(), f, f->page_id, f->dirty_gen});
      }
    }
  }
  // Page order turns the dirty set into runs of consecutive pages, each
  // one write call.
  std::sort(dirty.begin(), dirty.end(), [](const Item& a, const Item& b) {
    return a.page_id < b.page_id;
  });
  std::vector<const Page*> pages;
  pages.reserve(dirty.size());
  for (const Item& it : dirty) pages.push_back(&it.frame->page);

  // Admit the whole set at once, so scattered runs share the device's
  // queue, then write each run up to the page a fault stopped at: the
  // pages before it plus a short write's prefix, as if written one by one.
  const DiskManager::WriteAdmission adm = disk_->AdmitWrites(dirty.size());
  const size_t reach = adm.pages * kPageSize + adm.prefix;
  for (size_t i = 0; i * kPageSize < reach;) {
    size_t end = i + 1;
    while (end < dirty.size() &&
           dirty[end].page_id == dirty[end - 1].page_id + 1) {
      end++;
    }
    Status st = disk_->WriteAdmitted(
        dirty[i].page_id, &pages[i],
        std::min(end * kPageSize, reach) - i * kPageSize);
    // Between any two write calls the on-disk image mixes two
    // checkpoints — the window the rollback journal exists for.
    HARMONY_CRASH_POINT("storage.flush.mid");
    HARMONY_RETURN_NOT_OK(st);
    for (; i < std::min(end, adm.pages); i++) {
      Stripe& s = *dirty[i].stripe;
      Frame& f = *dirty[i].frame;
      std::lock_guard<std::mutex> lk(s.mu);
      if (f.dirty_gen == dirty[i].gen) {
        f.dirty = false;
        s.dirty_frames--;
      }
    }
    i = end;
  }
  HARMONY_RETURN_NOT_OK(adm.status);
  flushed_pages_.fetch_add(dirty.size(), std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);

  // Shrink emergency growth: drop clean unpinned frames beyond each
  // stripe's capacity.
  for (auto& sp : stripes_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    while (sp->frames.size() > sp->capacity) {
      Frame* f = sp->frames.back();
      if (f->pin_count > 0 || f->dirty || f->loading) break;
      if (f->page_id != kInvalidPageId) sp->page_table.erase(f->page_id);
      delete f;
      sp->frames.pop_back();
    }
    if (sp->clock_hand >= sp->frames.size()) sp->clock_hand = 0;
  }
  return Status::OK();
}

std::vector<PageId> BufferPool::DirtyPageIds() const {
  std::vector<PageId> out;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    for (const Frame* f : s->frames) {
      if (f->page_id != kInvalidPageId && f->dirty) out.push_back(f->page_id);
    }
  }
  return out;
}

void BufferPool::Unpin(size_t stripe, size_t frame) {
  Stripe& s = *stripes_[stripe];
  std::lock_guard<std::mutex> lk(s.mu);
  Frame& f = *s.frames[frame];
  assert(f.pin_count > 0);
  f.pin_count--;
}

void BufferPool::MarkDirtyFrame(size_t stripe, size_t frame) {
  Stripe& s = *stripes_[stripe];
  std::lock_guard<std::mutex> lk(s.mu);
  Frame& f = *s.frames[frame];
  if (!f.dirty) s.dirty_frames++;
  f.dirty = true;
  f.dirty_gen++;
}

}  // namespace harmony

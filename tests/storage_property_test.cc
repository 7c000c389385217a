// Property tests for the storage substrates: randomized op sequences checked
// against reference models (std::map for the KV table; a shadow byte map for
// slotted pages).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/thread_pool.h"
#include "storage/flat_index.h"
#include "storage/kv_table.h"
#include "storage/slotted_page.h"
#include "storage/state_backend.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

TEST(SlottedPageProperty, RandomOpsMatchReferenceModel) {
  Rng rng(404);
  for (int trial = 0; trial < 20; trial++) {
    Page p;
    p.Zero();
    slotted::Init(p.data);
    std::map<uint16_t, std::pair<Key, std::string>> model;  // slot -> (k, v)
    for (int step = 0; step < 400; step++) {
      const uint64_t dice = rng.Uniform(10);
      if (dice < 5) {
        // Insert a random record.
        const Key k = rng.Next();
        const std::string v(1 + rng.Uniform(120), static_cast<char>('a' + rng.Uniform(26)));
        const int slot = slotted::Insert(p.data, k, v);
        if (slot >= 0) {
          ASSERT_EQ(model.count(static_cast<uint16_t>(slot)), 0u);
          model[static_cast<uint16_t>(slot)] = {k, v};
        }
      } else if (dice < 7 && !model.empty()) {
        // Delete a random live slot.
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        slotted::Erase(p.data, it->first);
        model.erase(it);
      } else if (!model.empty()) {
        // Update a random live slot (may or may not fit in place).
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        const std::string v(1 + rng.Uniform(120), 'u');
        if (slotted::UpdateInPlace(p.data, it->first, v)) {
          it->second.second = v;
        }
      }
      if (step % 97 == 0) slotted::Compact(p.data);
    }
    // Verify everything the model holds is readable and correct.
    size_t live = 0;
    slotted::ForEach(p.data, [&](uint16_t slot, Key k, std::string_view v) {
      auto it = model.find(slot);
      ASSERT_NE(it, model.end()) << "phantom slot " << slot;
      EXPECT_EQ(it->second.first, k);
      EXPECT_EQ(it->second.second, std::string(v));
      live++;
    });
    EXPECT_EQ(live, model.size());
  }
}

TEST(KvTableProperty, RandomOpsMatchStdMap) {
  TempDir dir("kvprop");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 32);  // small pool: forces eviction traffic
  KvTable t(&dm, &pool);
  std::map<Key, std::string> model;
  Rng rng(777);
  for (int step = 0; step < 4000; step++) {
    const Key k = rng.Uniform(300);
    const uint64_t dice = rng.Uniform(11);
    if (dice == 10) {
      // A batch load of up to 12 rows: fresh keys, present keys, repeats.
      std::vector<std::string> values;
      std::vector<KvRow> rows;
      const size_t n = 1 + rng.Uniform(12);
      values.reserve(n);
      for (size_t i = 0; i < n; i++) {
        const Key bk = i == 0 ? k : rng.Uniform(300);
        values.emplace_back(1 + rng.Uniform(200),
                            static_cast<char>('a' + bk % 26));
        rows.push_back({bk, values.back()});
        model[bk] = values.back();
      }
      ASSERT_OK(t.Load(rows));
    } else if (dice < 5) {
      const std::string v(1 + rng.Uniform(200), static_cast<char>('A' + k % 26));
      std::optional<std::string> old;
      ASSERT_OK(t.Put(k, v, &old));
      auto it = model.find(k);
      ASSERT_EQ(old.has_value(), it != model.end());
      if (old.has_value()) EXPECT_EQ(*old, it->second);
      model[k] = v;
    } else if (dice < 7) {
      std::optional<std::string> old;
      ASSERT_OK(t.Erase(k, &old));
      EXPECT_EQ(old.has_value(), model.count(k) != 0);
      model.erase(k);
    } else {
      std::string v;
      Status s = t.Get(k, &v);
      auto it = model.find(k);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_OK(s);
        EXPECT_EQ(v, it->second);
      }
    }
  }
  EXPECT_EQ(t.size(), model.size());
  // Full scan agrees with the model.
  std::map<Key, std::string> scanned;
  ASSERT_OK(t.ScanAll([&](Key k, std::string_view v) {
    scanned[k] = std::string(v);
  }));
  EXPECT_EQ(scanned, model);
}

TEST(FlatIndexProperty, RandomOpsMatchStdMap) {
  // A key space a few times the table's size, so probe chains run long,
  // wrap and cross; every op is checked against a std::map, and a full
  // sweep runs after every rehash and at the end.
  FlatIndex index;
  std::map<Key, Rid> model;
  Rng rng(4242);
  size_t capacity = index.capacity();
  auto sweep = [&] {
    ASSERT_EQ(index.size(), model.size());
    for (Key k = 0; k < 3000; k++) {
      const Rid* got = index.Find(k);
      const auto it = model.find(k);
      ASSERT_EQ(got != nullptr, it != model.end()) << "key " << k;
      if (got != nullptr) {
        ASSERT_TRUE(*got == it->second) << "key " << k;
      }
    }
  };
  for (int step = 0; step < 40000; step++) {
    // The live set drifts up and down, so the table grows in steps.
    const Key span = 200 + (step / 4000 % 5) * 500;
    const Key k = rng.Uniform(span);
    if (rng.Chance(0.55)) {
      const Rid rid{static_cast<PageId>(rng.Uniform(1u << 20)),
                    static_cast<uint16_t>(step)};
      index.Set(k, rid);
      model[k] = rid;
    } else {
      Rid rid;
      const bool erased = index.Erase(k, &rid);
      const auto it = model.find(k);
      ASSERT_EQ(erased, it != model.end()) << "key " << k;
      if (erased) {
        ASSERT_TRUE(rid == it->second);
        model.erase(it);
      }
    }
    ASSERT_LE(index.size() * 4, index.capacity() * 3);
    if (index.capacity() != capacity) {
      capacity = index.capacity();
      sweep();
    }
  }
  sweep();
}

TEST(KvTableProperty, SurvivesReopenAfterCheckpoint) {
  TempDir dir("kvprop2");
  std::map<Key, std::string> model;
  Rng rng(888);
  {
    DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
    ASSERT_OK(b.Open());
    for (int step = 0; step < 1000; step++) {
      const Key k = rng.Uniform(150);
      if (rng.Chance(0.8)) {
        const std::string v(1 + rng.Uniform(80), 'x');
        ASSERT_OK(b.Put(k, v, nullptr));
        model[k] = v;
      } else {
        ASSERT_OK(b.Erase(k, nullptr));
        model.erase(k);
      }
    }
    ASSERT_OK(b.Checkpoint());
  }
  DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
  ASSERT_OK(b.Open());
  EXPECT_EQ(b.size(), model.size());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_OK(b.Get(k, &got));
    EXPECT_EQ(got, v);
  }
}

// ------------------------------------------------- striped buffer pool --

/// Stamps a recognizable (page, version) pattern into the first 64 bytes.
void StampPage(char* data, PageId id, uint64_t ver) {
  for (size_t i = 0; i < 8; i++) {
    const uint64_t w = Mix64(id * 1000003 + ver * 31 + i);
    std::memcpy(data + i * 8, &w, 8);
  }
}

bool CheckPage(const char* data, PageId id, uint64_t ver) {
  for (size_t i = 0; i < 8; i++) {
    const uint64_t want = Mix64(id * 1000003 + ver * 31 + i);
    uint64_t got;
    std::memcpy(&got, data + i * 8, 8);
    if (got != want) return false;
  }
  return true;
}

TEST(StripedPoolProperty, ConcurrentFetchFlushEvictMatchesModel) {
  // 8 mutator threads over disjoint page sets, racing a checkpoint thread
  // that flushes mid-stream. The pool (capacity 32 = 4 stripes) is far
  // smaller than the 160-page working set, so eviction and no-steal growth
  // run constantly. Mutators and the flusher share an rwlock mirroring the
  // production contract (page *bytes* are never mutated during FlushAll;
  // fetches and evictions race it freely).
  constexpr size_t kPages = 160;
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 2500;
  TempDir dir("striped");
  DiskManager dm(dir.path() + "/pool.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 32, /*stripes=*/8);
  ASSERT_EQ(pool.num_stripes(), 4u);  // 32 frames / 8-per-stripe floor

  std::vector<uint64_t> version(kPages, 0);
  for (PageId p = 0; p < kPages; p++) {
    auto g = pool.NewPage(p);
    ASSERT_OK(g.status());
    StampPage(g->data(), p, 0);
    g->MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());

  std::shared_mutex flush_gate;
  std::atomic<uint64_t> total_fetches{0};
  std::atomic<bool> failed{false};
  auto worker = [&](size_t t) {
    Rng rng(0xBEEF + t);
    uint64_t fetches = 0;
    for (size_t op = 0; op < kOpsPerThread && !failed.load(); op++) {
      const PageId p = (rng.Uniform(kPages / kThreads)) * kThreads + t;
      auto g = pool.FetchPage(p);
      fetches++;
      if (!g.ok()) {
        failed.store(true);
        ADD_FAILURE() << "fetch " << p << ": " << g.status().ToString();
        break;
      }
      if (!CheckPage(g->data(), p, version[p])) {
        failed.store(true);
        ADD_FAILURE() << "page " << p << " lost version " << version[p];
        break;
      }
      if (rng.Chance(0.5)) {
        // Byte mutation excluded from FlushAll's write phase (see above);
        // only the owner thread touches this page's bytes and version.
        std::shared_lock<std::shared_mutex> lk(flush_gate);
        version[p]++;
        StampPage(g->data(), p, version[p]);
        g->MarkDirty();
      }
    }
    total_fetches.fetch_add(fetches);
  };
  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    Rng rng(0xF1005);
    while (!stop.load()) {
      {
        std::unique_lock<std::shared_mutex> lk(flush_gate);
        ASSERT_OK(pool.FlushAll());
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.Uniform(500)));
    }
  });
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  stop.store(true);
  flusher.join();
  ASSERT_FALSE(failed.load());
  ASSERT_OK(pool.FlushAll());
  EXPECT_TRUE(pool.DirtyPageIds().empty());

  // Snap() accounting is exact once quiesced: every fetch was one hit or
  // one miss, every disk write came from a flush, every read from a miss.
  const BufferPoolStats snap = pool.Snap();
  EXPECT_EQ(snap.hits + snap.misses, total_fetches.load());
  EXPECT_EQ(dm.stats().page_writes.load(), snap.flushed_pages);
  EXPECT_EQ(dm.stats().page_reads.load(), snap.misses);
  EXPECT_GT(snap.misses, 0u);  // working set >> capacity: evictions happened

  // The durable image matches the model exactly (a fresh pool sees only
  // what FlushAll persisted).
  BufferPool verify(&dm, 32);
  for (PageId p = 0; p < kPages; p++) {
    auto g = verify.FetchPage(p);
    ASSERT_OK(g.status());
    EXPECT_TRUE(CheckPage(g->data(), p, version[p])) << "page " << p;
  }
}

TEST(StripedPoolProperty, NoStealGrowsInsteadOfWritingDirtyPages) {
  // Dirty every page of a working set 6x the pool with no flush: the pool
  // must grow (dirty_evictions) rather than write a single page back —
  // the on-disk image stays the previous checkpoint, bit for bit.
  constexpr size_t kPages = 192;
  TempDir dir("nosteal");
  DiskManager dm(dir.path() + "/pool.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 32, 8);
  for (PageId p = 0; p < kPages; p++) {
    auto g = pool.NewPage(p);
    ASSERT_OK(g.status());
    StampPage(g->data(), p, 7);
    g->MarkDirty();
  }
  EXPECT_EQ(dm.stats().page_writes.load(), 0u);  // the invariant
  EXPECT_EQ(pool.num_frames(), kPages);          // grew to hold it all
  const BufferPoolStats before = pool.Snap();
  EXPECT_EQ(before.dirty_evictions, kPages - 32);

  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(dm.stats().page_writes.load(), kPages);
  EXPECT_EQ(pool.num_frames(), 32u);  // shrunk back to capacity
  const BufferPoolStats after = pool.Snap();
  EXPECT_EQ(after.flushed_pages, kPages);
  EXPECT_EQ(after.flushes, 1u);
  for (PageId p = 0; p < kPages; p += 17) {
    auto g = pool.FetchPage(p);
    ASSERT_OK(g.status());
    EXPECT_TRUE(CheckPage(g->data(), p, 7)) << "page " << p;
  }
}

TEST(StripedPoolProperty, SnapNeverRegressesUnderConcurrency) {
  // A sampler races mutators + a flusher and asserts every counter is
  // monotone across snapshots — Snap() may lag but never un-counts.
  constexpr size_t kPages = 96;
  constexpr size_t kThreads = 6;
  TempDir dir("snapmono");
  DiskManager dm(dir.path() + "/pool.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 32, 8);
  for (PageId p = 0; p < kPages; p++) {
    auto g = pool.NewPage(p);
    ASSERT_OK(g.status());
    StampPage(g->data(), p, 0);
    g->MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());

  std::shared_mutex flush_gate;
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    BufferPoolStats prev;
    while (!stop.load()) {
      const BufferPoolStats cur = pool.Snap();
      EXPECT_GE(cur.hits, prev.hits);
      EXPECT_GE(cur.misses, prev.misses);
      EXPECT_GE(cur.dirty_evictions, prev.dirty_evictions);
      EXPECT_GE(cur.flushed_pages, prev.flushed_pages);
      EXPECT_GE(cur.flushes, prev.flushes);
      prev = cur;
      (void)pool.num_frames();  // stress the per-stripe latches too
    }
  });
  std::thread flusher([&] {
    while (!stop.load()) {
      std::unique_lock<std::shared_mutex> lk(flush_gate);
      ASSERT_OK(pool.FlushAll());
    }
  });
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(51 + t);
      for (size_t op = 0; op < 3000; op++) {
        const PageId p = rng.Uniform(kPages / kThreads) * kThreads + t;
        auto g = pool.FetchPage(p);
        ASSERT_OK(g.status());
        if (rng.Chance(0.4)) {
          std::shared_lock<std::shared_mutex> lk(flush_gate);
          StampPage(g->data(), p, op);
          g->MarkDirty();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true);
  flusher.join();
  sampler.join();
}

TEST(VersionedStoreProperty, RandomHistoryMatchesReference) {
  // Apply randomized block write sets; every snapshot read must return the
  // newest write at or below the snapshot, under interleaved pruning.
  MemoryBackend backend;
  VersionedStore store(&backend);
  Rng rng(999);
  // reference[k] = vector of (block, value or erase)
  std::map<Key, std::vector<std::pair<BlockId, std::optional<std::string>>>>
      reference;
  for (Key k = 0; k < 20; k++) {
    const std::string v = "g" + std::to_string(k);
    ASSERT_OK(backend.Put(k, v, nullptr));
    reference[k].emplace_back(0, v);
  }
  BlockId pruned_to = 0;
  for (BlockId b = 1; b <= 40; b++) {
    for (Key k = 0; k < 20; k++) {
      if (!rng.Chance(0.3)) continue;
      std::optional<std::string> v;
      if (rng.Chance(0.85)) v = "b" + std::to_string(b) + "k" + std::to_string(k);
      ASSERT_OK(store.ApplyWrite(k, b, v));
      reference[k].emplace_back(b, v);
    }
    if (b % 7 == 0 && b >= 3) {
      pruned_to = b - 3;
      store.Prune(pruned_to);
    }
    // Validate reads at every still-valid snapshot.
    for (BlockId snap = pruned_to; snap <= b; snap++) {
      for (Key k = 0; k < 20; k++) {
        std::optional<std::string> got;
        ASSERT_OK(store.ReadAtSnapshot(k, snap, &got));
        std::optional<std::string> want;
        for (const auto& [wb, wv] : reference[k]) {
          if (wb <= snap) want = wv;
        }
        ASSERT_EQ(got, want) << "key " << k << " snap " << snap << " block " << b;
      }
    }
  }
}

}  // namespace
}  // namespace harmony

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/flat_index.h"
#include "storage/kv_table.h"
#include "storage/slotted_page.h"
#include "storage/state_backend.h"
#include "testing/crash_point.h"
#include "testing/fault.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

TEST(SlottedPage, InsertReadUpdateDelete) {
  Page p;
  p.Zero();
  slotted::Init(p.data);
  const int s0 = slotted::Insert(p.data, 100, "alpha");
  const int s1 = slotted::Insert(p.data, 200, "beta");
  ASSERT_GE(s0, 0);
  ASSERT_GE(s1, 0);

  Key k;
  std::string_view v;
  ASSERT_TRUE(slotted::Read(p.data, static_cast<uint16_t>(s0), &k, &v));
  EXPECT_EQ(k, 100u);
  EXPECT_EQ(v, "alpha");

  // In-place update (same size).
  ASSERT_TRUE(slotted::UpdateInPlace(p.data, static_cast<uint16_t>(s0), "gamma"));
  ASSERT_TRUE(slotted::Read(p.data, static_cast<uint16_t>(s0), &k, &v));
  EXPECT_EQ(v, "gamma");

  // Larger update fails in place.
  EXPECT_FALSE(slotted::UpdateInPlace(p.data, static_cast<uint16_t>(s0),
                                      std::string(100, 'x')));

  slotted::Erase(p.data, static_cast<uint16_t>(s0));
  EXPECT_FALSE(slotted::Read(p.data, static_cast<uint16_t>(s0), &k, &v));
  // Slot is reused.
  const int s2 = slotted::Insert(p.data, 300, "delta");
  EXPECT_EQ(s2, s0);
}

TEST(SlottedPage, CompactionReclaimsDeadSpace) {
  Page p;
  p.Zero();
  slotted::Init(p.data);
  std::vector<int> slots;
  const std::string big(300, 'b');
  int n = 0;
  while (true) {
    const int s = slotted::Insert(p.data, static_cast<Key>(n), big);
    if (s < 0) break;
    slots.push_back(s);
    n++;
  }
  ASSERT_GT(n, 5);
  // Delete every other record; contiguous space stays small but dead space
  // grows, so the next insert must trigger compaction and succeed.
  for (size_t i = 0; i < slots.size(); i += 2) {
    slotted::Erase(p.data, static_cast<uint16_t>(slots[i]));
  }
  EXPECT_GE(slotted::Insert(p.data, 9999, big), 0);
  Key k;
  std::string_view v;
  // Survivors are intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    ASSERT_TRUE(slotted::Read(p.data, static_cast<uint16_t>(slots[i]), &k, &v));
    EXPECT_EQ(v, big);
  }
}

TEST(SlottedPage, RejectsOversizedRecord) {
  Page p;
  p.Zero();
  slotted::Init(p.data);
  EXPECT_LT(slotted::Insert(p.data, 1, std::string(kPageSize, 'x')), 0);
}

TEST(DiskManager, ReadWriteRoundTrip) {
  TempDir dir("disk");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  const PageId p0 = dm.AllocatePage();
  Page w, r;
  w.Zero();
  std::snprintf(w.data, 32, "hello page");
  ASSERT_OK(dm.WritePage(p0, w));
  ASSERT_OK(dm.ReadPage(p0, &r));
  EXPECT_STREQ(r.data, "hello page");
  EXPECT_EQ(dm.stats().page_reads.load(), 1u);
  EXPECT_EQ(dm.stats().page_writes.load(), 1u);
  ASSERT_OK(dm.Sync());
}

TEST(DiskManager, UnwrittenPageReadsAsZero) {
  TempDir dir("disk0");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  const PageId p = dm.AllocatePage();
  Page r;
  ASSERT_OK(dm.ReadPage(p, &r));
  for (size_t i = 0; i < kPageSize; i++) ASSERT_EQ(r.data[i], 0);
}

// Page i of a test run: its index in every byte.
Page RunPage(size_t i) {
  Page p;
  std::memset(p.data, static_cast<int>('a' + i), kPageSize);
  return p;
}

TEST(DiskManager, WritePagesWritesARunAndCountsPages) {
  TempDir dir("disk-run");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  std::vector<Page> pages;
  std::vector<const Page*> run;
  for (size_t i = 0; i < 5; i++) pages.push_back(RunPage(i));
  for (const Page& p : pages) run.push_back(&p);
  ASSERT_OK(dm.WritePages(2, run.data(), run.size()));
  EXPECT_EQ(dm.stats().page_writes.load(), 5u);
  const std::string file = ReadFileBytes(dir.path() + "/t.db");
  ASSERT_EQ(file.size(), 7 * kPageSize);
  for (size_t i = 0; i < 5; i++) {
    EXPECT_EQ(file.compare((2 + i) * kPageSize, kPageSize, pages[i].data,
                           kPageSize),
              0)
        << "page " << 2 + i;
  }
}

// A short-write fault at page k of a run persists pages [0, k) and the
// prefix of page k, fails the call, and counts only the k whole pages.
TEST(DiskManager, WritePagesShortWriteAtPageKPersistsThePrefix) {
  constexpr size_t kRun = 8;
  testing::FaultInjector::Options o;
  o.seed = 5;  // faults at page 5 of 8
  o.short_write_prob = 0.25;
  // A twin injector with the same seed predicts where the fault lands:
  // WritePages consults its injector once per page, in order.
  testing::FaultInjector twin(o);
  size_t k = 0;
  size_t prefix = 0;
  while (twin.OnWrite(kPageSize, &prefix).ok()) k++;
  ASSERT_GE(k, 1u) << "pick a seed that faults inside the run";
  ASSERT_LT(k, kRun) << "pick a seed that faults inside the run";

  TempDir dir("disk-run-short");
  testing::FaultInjector inj(o);
  DiskModel model = DiskModel::RamDisk();
  model.fault = &inj;
  DiskManager dm(dir.path() + "/t.db", model);
  std::vector<Page> pages;
  std::vector<const Page*> run;
  for (size_t i = 0; i < kRun; i++) pages.push_back(RunPage(i));
  for (const Page& p : pages) run.push_back(&p);
  EXPECT_TRUE(dm.WritePages(0, run.data(), run.size()).IsIOError());
  EXPECT_EQ(dm.stats().page_writes.load(), k);
  EXPECT_EQ(inj.stats().short_writes.load(), 1u);
  const std::string file = ReadFileBytes(dir.path() + "/t.db");
  ASSERT_EQ(file.size(), k * kPageSize + prefix);
  for (size_t i = 0; i <= k; i++) {
    const size_t len = i < k ? kPageSize : prefix;
    EXPECT_EQ(file.compare(i * kPageSize, len, pages[i].data, len), 0)
        << "page " << i;
  }
}

// Write waves and page reads share the device queue: rewrites of a run
// racing three readers on a qd2 device finish, and every I/O counts once.
TEST(DiskManager, WriteWavesShareTheQueueWithReads) {
  constexpr size_t kPages = 64;
  TempDir dir("disk-qd-mixed");
  DiskManager dm(dir.path() + "/t.db", DiskModel{20, 20, 0, 2});
  std::vector<Page> pages;
  std::vector<const Page*> run;
  for (size_t i = 0; i < kPages; i++) pages.push_back(RunPage(i % 26));
  for (const Page& p : pages) run.push_back(&p);
  ASSERT_OK(dm.WritePages(0, run.data(), kPages));
  std::atomic<size_t> bad{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      Page r;
      for (size_t i = t; i < kPages; i += 3) {
        if (!dm.ReadPage(static_cast<PageId>(i), &r).ok() ||
            r.data[0] != pages[i].data[0]) {
          bad++;
        }
      }
    });
  }
  for (int round = 0; round < 4; round++) {
    EXPECT_OK(dm.WritePages(0, run.data(), kPages));
  }
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(dm.stats().page_writes.load(), 5 * kPages);
  EXPECT_EQ(dm.stats().page_reads.load(), kPages);
}

TEST(BufferPool, HitAndMissAccounting) {
  TempDir dir("bp");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 4);
  const PageId p = dm.AllocatePage();
  {
    auto g = pool.NewPage(p);
    ASSERT_TRUE(g.ok());
    std::snprintf(g->data(), 16, "v1");
    g->MarkDirty();
  }
  {
    auto g = pool.FetchPage(p);
    ASSERT_TRUE(g.ok());
    EXPECT_STREQ(g->data(), "v1");
  }
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPool, NoStealGrowsInsteadOfWritingDirty) {
  TempDir dir("bp2");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 2);
  // Dirty three pages with capacity two: pool must grow, not write back.
  for (int i = 0; i < 3; i++) {
    const PageId p = dm.AllocatePage();
    auto g = pool.NewPage(p);
    ASSERT_TRUE(g.ok());
    g->MarkDirty();
  }
  EXPECT_EQ(dm.stats().page_writes.load(), 0u);
  EXPECT_GE(pool.num_frames(), 3u);
  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(dm.stats().page_writes.load(), 3u);
  // After the flush the pool shrinks back to capacity.
  EXPECT_LE(pool.num_frames(), 2u);
}

// The group flush writes each run of consecutive dirty pages with one
// write call (one storage.flush.mid hit) and still counts pages.
TEST(BufferPool, FlushAllWritesRunsOfConsecutivePages) {
  TempDir dir("bp-runs");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 64);
  for (PageId p = 0; p < 12; p++) {
    auto g = pool.NewPage(dm.AllocatePage());
    ASSERT_TRUE(g.ok());
    g->data()[0] = static_cast<char>('a' + p);
  }
  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(dm.stats().page_writes.load(), 12u);
  // Dirty {1, 2, 3, 7, 8, 11}: three runs.
  for (PageId p : {1, 2, 3, 7, 8, 11}) {
    auto g = pool.FetchPage(p);
    ASSERT_TRUE(g.ok());
    g->data()[1] = 'x';
    g->MarkDirty();
  }
  testing::ArmCrashPointForTest("storage.flush.mid", 1000, [] {});
  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(testing::CrashPointHits("storage.flush.mid"), 3u);
  testing::DisarmCrashPoints();
  EXPECT_EQ(dm.stats().page_writes.load(), 18u);
  EXPECT_EQ(pool.stats().flushed_pages, 18u);
  EXPECT_TRUE(pool.DirtyPageIds().empty());
  const std::string file = ReadFileBytes(dir.path() + "/t.db");
  ASSERT_EQ(file.size(), 12 * kPageSize);
  for (PageId p = 0; p < 12; p++) {
    EXPECT_EQ(file[p * kPageSize], static_cast<char>('a' + p));
    const bool rewritten = p == 1 || p == 2 || p == 3 || p == 7 || p == 8 ||
                           p == 11;
    EXPECT_EQ(file[p * kPageSize + 1], rewritten ? 'x' : '\0') << p;
  }
}

// The flush admits its whole dirty set in waves of queue_depth pages, so 64
// scattered pages on a qd16 device take four write latencies, not one per
// page (nor one per page per writer, as a four-writer flush paid).
TEST(BufferPool, FlushKeepsTheDeviceQueueFull) {
  constexpr uint64_t kWriteUs = 5000;
  constexpr PageId kDirty = 64;
  TempDir dir("bp-qd");
  DiskManager dm(dir.path() + "/t.db", DiskModel{0, kWriteUs, 0, 16});
  BufferPool pool(&dm, 2 * kDirty);
  for (PageId p = 0; p < 2 * kDirty; p++) dm.AllocatePage();
  for (PageId p = 0; p < 2 * kDirty; p += 2) {  // 64 runs of one page
    auto g = pool.NewPage(p);
    ASSERT_TRUE(g.ok());
    g->data()[0] = 'q';
  }
  const uint64_t t0 = NowMicros();
  ASSERT_OK(pool.FlushAll());
  const uint64_t us = NowMicros() - t0;
  EXPECT_GE(us, kDirty / 16 * kWriteUs) << "a wave skipped its latency";
  EXPECT_LT(us, kDirty / 4 * kWriteUs) << "the queue was not kept full";
  EXPECT_EQ(dm.stats().page_writes.load(), kDirty);
  EXPECT_TRUE(pool.DirtyPageIds().empty());
}

// A fault at the k-th dirty page in page order leaves exactly the pages
// before it (and a short write's prefix of page k) on disk, whatever run
// they sit in; page k and every later page stay dirty until a flush on the
// healed device writes them.
TEST(BufferPool, FlushFaultStopsAtThePageInPageOrder) {
  const std::vector<PageId> dirty = {0, 1, 2, 5, 6, 7, 8, 11, 12, 13};
  constexpr PageId kPages = 16;
  testing::FaultInjector::Options o;
  o.seed = 5;  // a short write at page 7, inside the second run
  o.short_write_prob = 0.2;
  // The flush consults its injector once per dirty page, in page order.
  testing::FaultInjector twin(o);
  size_t k = 0;
  size_t prefix = 0;
  while (twin.OnWrite(kPageSize, &prefix).ok()) k++;
  ASSERT_GE(k, 4u) << "pick a seed that faults past the first run";
  ASSERT_LT(k, dirty.size()) << "pick a seed that faults inside the flush";

  TempDir dir("bp-fault");
  const std::string path = dir.path() + "/t.db";
  Page old;
  std::memset(old.data, '.', kPageSize);
  {
    DiskManager base(path, DiskModel::RamDisk());
    for (PageId p = 0; p < kPages; p++) {
      ASSERT_OK(base.WritePage(base.AllocatePage(), old));
    }
  }
  testing::FaultInjector inj(o);
  DiskModel model = DiskModel::RamDisk();
  model.fault = &inj;
  DiskManager dm(path, model);
  BufferPool pool(&dm, 64);
  for (PageId p : dirty) {
    auto g = pool.NewPage(p);
    ASSERT_TRUE(g.ok());
    std::memset(g->data(), 'a' + static_cast<int>(p), kPageSize);
  }
  EXPECT_TRUE(pool.FlushAll().IsIOError());
  EXPECT_EQ(inj.stats().short_writes.load(), 1u);
  EXPECT_EQ(dm.stats().page_writes.load(), k);
  std::vector<PageId> still = pool.DirtyPageIds();
  std::sort(still.begin(), still.end());
  EXPECT_EQ(still, std::vector<PageId>(dirty.begin() + k, dirty.end()));

  std::string file = ReadFileBytes(path);
  ASSERT_EQ(file.size(), kPages * kPageSize);
  for (PageId p = 0; p < kPages; p++) {
    const auto at = std::find(dirty.begin(), dirty.end(), p);
    const size_t idx = static_cast<size_t>(at - dirty.begin());
    const size_t fresh = idx < k ? kPageSize : idx == k ? prefix : 0;
    const std::string want =
        std::string(fresh, static_cast<char>('a' + p)) +
        std::string(kPageSize - fresh, '.');
    EXPECT_EQ(file.compare(p * kPageSize, kPageSize, want), 0) << "page " << p;
  }

  inj.Heal();
  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(dm.stats().page_writes.load(), dirty.size());
  EXPECT_TRUE(pool.DirtyPageIds().empty());
  file = ReadFileBytes(path);
  for (PageId p : dirty) {
    EXPECT_EQ(file.compare(p * kPageSize, kPageSize,
                           std::string(kPageSize, static_cast<char>('a' + p))),
              0)
        << "page " << p;
  }
}

TEST(BufferPool, EvictsCleanPagesUnderPressure) {
  TempDir dir("bp3");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  // Write 8 pages directly, then stream reads through a 2-frame pool.
  for (int i = 0; i < 8; i++) {
    Page p;
    p.Zero();
    p.data[0] = static_cast<char>('a' + i);
    ASSERT_OK(dm.WritePage(dm.AllocatePage(), p));
  }
  BufferPool pool(&dm, 2);
  for (int round = 0; round < 3; round++) {
    for (PageId i = 0; i < 8; i++) {
      auto g = pool.FetchPage(i);
      ASSERT_TRUE(g.ok());
      EXPECT_EQ(g->data()[0], static_cast<char>('a' + i));
    }
  }
  EXPECT_LE(pool.num_frames(), 2u);
  EXPECT_GT(pool.stats().misses, 8u);  // capacity misses happened
}

TEST(BufferPool, ConcurrentFetchSamePage) {
  TempDir dir("bp4");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  Page p;
  p.Zero();
  p.data[0] = 'z';
  ASSERT_OK(dm.WritePage(dm.AllocatePage(), p));
  BufferPool pool(&dm, 4);
  ThreadPool tp(8);
  std::atomic<int> ok{0};
  tp.ParallelFor(64, [&](size_t) {
    auto g = pool.FetchPage(0);
    if (g.ok() && g->data()[0] == 'z') ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 64);
}

TEST(KvTable, PutGetEraseAndRelocation) {
  TempDir dir("kv");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 64);
  KvTable t(&dm, &pool);

  ASSERT_OK(t.Put(1, "one"));
  ASSERT_OK(t.Put(2, "two"));
  std::string v;
  ASSERT_OK(t.Get(1, &v));
  EXPECT_EQ(v, "one");
  EXPECT_TRUE(t.Get(3, &v).IsNotFound());

  // Update with pre-image.
  std::optional<std::string> old;
  ASSERT_OK(t.Put(1, "uno", &old));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, "one");

  // Update that outgrows the allocation relocates; value survives.
  ASSERT_OK(t.Put(1, std::string(500, 'L')));
  ASSERT_OK(t.Get(1, &v));
  EXPECT_EQ(v.size(), 500u);

  ASSERT_OK(t.Erase(2, &old));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, "two");
  EXPECT_TRUE(t.Get(2, &v).IsNotFound());
  EXPECT_EQ(t.size(), 1u);
}

// The room an erase frees goes back to the page's free-space estimate, so
// later inserts reuse it instead of growing the file: 1000 rows put, erased
// and put again fill exactly the pages the first 1000 took (without the
// estimate update the file grew from 29 to 57 pages, and a follower's
// snapshot install, which erases every row before loading, doubled its
// page file). A relocating update frees its old slot the same way.
TEST(KvTable, ErasedRoomIsReused) {
  TempDir dir("kv-reuse");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 64);
  KvTable t(&dm, &pool);
  const std::string row(100, 'r');
  for (Key k = 0; k < 1000; k++) ASSERT_OK(t.Put(k, row));
  const PageId pages = dm.num_pages();
  EXPECT_EQ(pages, 29u);
  for (Key k = 0; k < 1000; k++) ASSERT_OK(t.Erase(k));
  EXPECT_EQ(t.size(), 0u);
  for (Key k = 1000; k < 2000; k++) ASSERT_OK(t.Put(k, row));
  EXPECT_EQ(dm.num_pages(), pages);

  // Every row outgrows its slot and relocates: the file grows only by the
  // extra bytes, not by a second copy of every row.
  const std::string longer(140, 'l');
  for (Key k = 1000; k < 2000; k++) ASSERT_OK(t.Put(k, longer));
  EXPECT_LE(dm.num_pages(), pages * 140 / 100 + 2);
  std::string v;
  for (Key k = 1000; k < 2000; k += 97) {
    ASSERT_OK(t.Get(k, &v));
    EXPECT_EQ(v, longer);
  }
  EXPECT_EQ(t.size(), 1000u);
}

TEST(KvTable, ManyKeysSpanPagesAndRebuild) {
  TempDir dir("kv2");
  {
    DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
    BufferPool pool(&dm, 256);
    KvTable t(&dm, &pool);
    for (Key k = 0; k < 2000; k++) {
      ASSERT_OK(t.Put(k, "value-" + std::to_string(k)));
    }
    ASSERT_OK(pool.FlushAll());
    ASSERT_OK(dm.Sync());
    EXPECT_GT(dm.num_pages(), 5u);
  }
  // Reopen: rebuild the index by heap scan.
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 256);
  KvTable t(&dm, &pool);
  ASSERT_OK(t.RebuildIndex());
  EXPECT_EQ(t.size(), 2000u);
  std::string v;
  ASSERT_OK(t.Get(1234, &v));
  EXPECT_EQ(v, "value-1234");
}

TEST(KvTable, ConcurrentDistinctKeys) {
  TempDir dir("kv3");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 256);
  KvTable t(&dm, &pool);
  for (Key k = 0; k < 500; k++) ASSERT_OK(t.Put(k, "init"));
  ThreadPool tp(8);
  std::atomic<int> fail{0};
  tp.ParallelFor(500, [&](size_t i) {
    if (!t.Put(static_cast<Key>(i), "updated-" + std::to_string(i)).ok()) {
      fail.fetch_add(1);
    }
  });
  EXPECT_EQ(fail.load(), 0);
  std::string v;
  ASSERT_OK(t.Get(123, &v));
  EXPECT_EQ(v, "updated-123");
}

// Rows of uneven size, so a short row can still fit an older page after
// the tail page turned a longer one away: the load cursor must pick the
// same page as Put.
std::string LoadRowValue(Key k) {
  return std::string(20 + (k * 37) % 300, static_cast<char>('a' + k % 26));
}

using Rows = std::vector<std::pair<Key, std::string>>;

// Applies `rows` in order: one Put each (batch == 0), or Load batches of
// `batch` rows.
void ApplyRows(DiskBackend* b, const Rows& rows, size_t batch) {
  if (batch == 0) {
    for (const auto& [k, v] : rows) EXPECT_OK(b->Put(k, v, nullptr));
    return;
  }
  for (size_t first = 0; first < rows.size(); first += batch) {
    std::vector<KvRow> chunk;
    for (size_t i = first; i < std::min(first + batch, rows.size()); i++) {
      chunk.push_back({rows[i].first, rows[i].second});
    }
    EXPECT_OK(b->Load(chunk));
  }
}

// The load script: rows [0, 1000); then an Erase of the last three, one
// of which sits on the load cursor's page; then rows [1000, 2000) with a
// key of the first part again (it outgrows its slot and relocates) and
// two keys of their own repeated, one shorter (in place) and one longer.
Rows FirstRows() {
  Rows rows;
  for (Key k = 0; k < 1000; k++) rows.emplace_back(k, LoadRowValue(k));
  return rows;
}
Rows SecondRows() {
  Rows rows;
  for (Key k = 1000; k < 2000; k++) rows.emplace_back(k, LoadRowValue(k));
  rows.insert(rows.begin() + 900, {1300, std::string(350, 'R')});
  rows.insert(rows.begin() + 500, {1200, "short"});
  rows.insert(rows.begin() + 3, {5, std::string(400, 'L')});
  return rows;
}

// Runs the load script into a fresh backend under `dir` (see ApplyRows)
// and checkpoints; returns the page file.
std::string LoadedPageFile(const std::string& dir, size_t batch) {
  DiskBackend b(dir, "s", DiskModel::RamDisk(), 16);
  EXPECT_OK(b.Open());
  ApplyRows(&b, FirstRows(), batch);
  for (Key k = 997; k < 1000; k++) EXPECT_OK(b.Erase(k, nullptr));
  ApplyRows(&b, SecondRows(), batch);
  EXPECT_OK(b.Checkpoint());
  return ReadFileBytes(dir + "/s.tbl");
}

TEST(KvTable, BatchLoadWritesThePagesPutWould) {
  TempDir put_dir("load-put");
  const std::string by_put = LoadedPageFile(put_dir.path(), 0);
  ASSERT_GT(by_put.size(), 16 * kPageSize);  // past the pool: it grew
  std::map<Key, std::string> model;
  for (const auto& [k, v] : FirstRows()) model[k] = v;
  for (Key k = 997; k < 1000; k++) model.erase(k);
  for (const auto& [k, v] : SecondRows()) model[k] = v;
  for (size_t batch : {1, 7, 2000}) {
    TempDir load_dir("load-batch");
    const std::string by_load = LoadedPageFile(load_dir.path(), batch);
    EXPECT_TRUE(by_load == by_put) << "batches of " << batch
                                   << ": the page files differ";

    DiskBackend b(load_dir.path(), "s", DiskModel::RamDisk(), 16);
    ASSERT_OK(b.Open());
    std::map<Key, std::string> stored;
    ASSERT_OK(b.ScanAll(
        [&](Key k, std::string_view v) { stored[k] = std::string(v); }));
    EXPECT_TRUE(stored == model) << "batches of " << batch;
  }
}

// The first `n` keys (from 1 up) whose probe starts at `home` in a table
// of `index`'s capacity.
std::vector<Key> KeysHomedAt(const FlatIndex& index, size_t home, size_t n) {
  std::vector<Key> keys;
  for (Key k = 1; keys.size() < n; k++) {
    if (index.HomeSlot(k) == home) keys.push_back(k);
  }
  return keys;
}

// Keys that share a home slot form one probe chain; erasing from its
// middle must shift the rest back, so every later key (and a key homed
// past the chain, whose probe the chain pushed along) is still found.
// The chain starts at the last slot, so it wraps around to slot 0.
TEST(FlatIndex, EraseFromTheMiddleOfACollidingProbeChain) {
  FlatIndex index;
  const size_t last = index.capacity() - 1;
  const std::vector<Key> chain = KeysHomedAt(index, last, 5);
  const std::vector<Key> next = KeysHomedAt(index, 0, 2);
  const std::vector<Key> third = KeysHomedAt(index, 2, 1);
  std::map<Key, Rid> model;
  uint16_t stamp = 0;
  auto put = [&](Key k) {
    const Rid rid{static_cast<PageId>(k % 1000), ++stamp};
    index.Set(k, rid);
    model[k] = rid;
  };
  // Interleaved, so the chain and the keys it displaces mix.
  put(chain[0]);
  put(next[0]);
  put(chain[1]);
  put(chain[2]);
  put(third[0]);
  put(next[1]);
  put(chain[3]);
  put(chain[4]);
  ASSERT_EQ(index.capacity(), FlatIndex::kMinCapacity);  // no growth
  auto check = [&] {
    ASSERT_EQ(index.size(), model.size());
    for (Key k : chain) {
      const Rid* got = index.Find(k);
      ASSERT_EQ(got != nullptr, model.count(k) == 1) << "key " << k;
      if (got != nullptr) {
        EXPECT_TRUE(*got == model[k]) << "key " << k;
      }
    }
    for (const auto& [k, rid] : model) {
      ASSERT_NE(index.Find(k), nullptr) << "key " << k;
      EXPECT_TRUE(*index.Find(k) == rid) << "key " << k;
    }
  };
  Rid erased;
  ASSERT_TRUE(index.Erase(chain[2], &erased));
  EXPECT_TRUE(erased == model[chain[2]]);
  model.erase(chain[2]);
  check();
  ASSERT_TRUE(index.Erase(next[0]));
  model.erase(next[0]);
  check();
  EXPECT_FALSE(index.Erase(chain[2]));
  ASSERT_TRUE(index.Erase(chain[0]));
  model.erase(chain[0]);
  check();
  put(chain[2]);  // back into the chain
  put(chain[4]);  // overwrite in place
  check();
  for (Key k : {chain[1], chain[3], chain[4], chain[2], next[1], third[0]}) {
    ASSERT_TRUE(index.Erase(k));
    model.erase(k);
    check();
  }
  EXPECT_EQ(index.size(), 0u);
}

// The index grows across several rehashes while whole batches load, with
// Put, Get and Erase between the batches.
TEST(KvTable, IndexGrowsAcrossRehashesBetweenBatches) {
  TempDir dir("kv-grow");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 64);
  KvTable t(&dm, &pool);
  std::map<Key, std::string> model;
  Key next = 0;
  for (int round = 0; round < 40; round++) {
    // Batches grow, so some fit the table and some rehash it.
    std::vector<std::string> values;
    std::vector<KvRow> rows;
    const size_t n = 10 + round * round;
    values.reserve(n);
    for (size_t i = 0; i < n; i++) {
      const Key k = next++ * 7919;
      values.push_back(LoadRowValue(k));
      rows.push_back({k, values.back()});
      model[k] = values.back();
    }
    ASSERT_OK(t.Load(rows));
    const Key old = (next / 2) * 7919;
    ASSERT_OK(t.Put(old, "put-" + std::to_string(round)));
    model[old] = "put-" + std::to_string(round);
    const Key gone = (next / 3) * 7919;
    ASSERT_OK(t.Erase(gone));
    model.erase(gone);
    std::string v;
    for (Key k = 0; k < next; k += 1 + next / 50) {
      const auto it = model.find(k * 7919);
      if (it == model.end()) {
        EXPECT_TRUE(t.Get(k * 7919, &v).IsNotFound());
      } else {
        ASSERT_OK(t.Get(k * 7919, &v));
        EXPECT_EQ(v, it->second);
      }
    }
  }
  EXPECT_EQ(t.size(), model.size());
  for (const auto& [k, want] : model) {
    std::string v;
    ASSERT_OK(t.Get(k, &v));
    EXPECT_EQ(v, want);
  }
}

// RebuildIndex over a heap with erased slots and relocated records finds
// every live row at its slot, on the same table and after a reopen.
TEST(KvTable, RebuildIndexAfterErasesAndRelocations) {
  TempDir dir("kv-rebuild");
  std::map<Key, std::string> model;
  auto check = [&](KvTable& t) {
    EXPECT_EQ(t.size(), model.size());
    std::string v;
    for (Key k = 0; k < 1200; k++) {
      const auto it = model.find(k);
      if (it == model.end()) {
        EXPECT_TRUE(t.Get(k, &v).IsNotFound()) << "key " << k;
      } else {
        ASSERT_OK(t.Get(k, &v));
        EXPECT_EQ(v, it->second) << "key " << k;
      }
    }
  };
  {
    DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
    BufferPool pool(&dm, 64);
    KvTable t(&dm, &pool);
    for (Key k = 0; k < 1000; k++) {
      ASSERT_OK(t.Put(k, LoadRowValue(k)));
      model[k] = LoadRowValue(k);
    }
    for (Key k = 0; k < 1000; k += 3) {
      ASSERT_OK(t.Erase(k));
      model.erase(k);
    }
    for (Key k = 1; k < 1000; k += 5) {  // longer: most relocate
      ASSERT_OK(t.Put(k, LoadRowValue(k) + std::string(150, '+')));
      model[k] = LoadRowValue(k) + std::string(150, '+');
    }
    for (Key k = 1000; k < 1200; k++) {  // fill the erased room
      ASSERT_OK(t.Put(k, "late"));
      model[k] = "late";
    }
    ASSERT_OK(t.RebuildIndex());
    check(t);
    ASSERT_OK(pool.FlushAll());
    ASSERT_OK(dm.Sync());
  }
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 64);
  KvTable t(&dm, &pool);
  ASSERT_OK(t.RebuildIndex());
  check(t);
}

// Batches load new keys while other threads Get and Put keys loaded
// before: the locks a batch holds across rows, and drops for a repeated
// key's Put, must neither block them for good nor let them see a torn row.
TEST(KvTable, GetAndPutRunBesideBatchLoads) {
  TempDir dir("kv-batch-race");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 64);
  KvTable t(&dm, &pool);
  constexpr Key kOld = 400;
  for (Key k = 0; k < kOld; k++) ASSERT_OK(t.Put(k, LoadRowValue(k)));
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (Key th = 0; th < 3; th++) {
    threads.emplace_back([&, th] {
      std::string v;
      for (int i = 0; !done.load(); i++) {
        const Key k = (th + 3 * static_cast<Key>(i)) % kOld;
        if (k % 3 != th) continue;  // each thread writes its own keys
        if (i % 2 == 0) {
          if (!t.Put(k, LoadRowValue(k)).ok()) bad.fetch_add(1);
        } else if (!t.Get(k, &v).ok() || v != LoadRowValue(k)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  // The first round loads fresh keys; later rounds load them again with
  // other sizes, so rows update in place or relocate.
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; round++) {
    for (Key first = kOld; first < kOld + 3000; first += 150) {
      std::vector<std::string> values;
      std::vector<KvRow> rows;
      values.reserve(150);
      for (Key k = first; k < first + 150; k++) {
        values.push_back(LoadRowValue(k + round));
        rows.push_back({k, values.back()});
      }
      ASSERT_OK(t.Load(rows));
    }
  }
  done.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(t.size(), kOld + 3000);
  std::string v;
  for (Key k = 0; k < kOld + 3000; k += 7) {
    ASSERT_OK(t.Get(k, &v));
    EXPECT_EQ(v, LoadRowValue(k < kOld ? k : k + kRounds - 1));
  }
}

// A row the newest page cannot take goes to an older page with room
// before a new page is allocated.
TEST(KvTable, LoadFillsAnOlderPageBeforeAllocating) {
  TempDir dir("load-older");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 16);
  KvTable t(&dm, &pool);
  // 950-byte values take 964 bytes with key and slot: four fill a page to
  // 234 bytes free. Page 0 keeps them; page 1 also takes a 214-byte row.
  const std::string big(950, 'b');
  for (Key k = 0; k < 8; k++) ASSERT_OK(t.Load({{k, big}}));
  ASSERT_OK(t.Load({{8, std::string(200, 'm')}}));
  ASSERT_EQ(dm.num_pages(), 2u);
  // 114 bytes: too many for page 1 (20 free), enough for page 0.
  ASSERT_OK(t.Load({{9, std::string(100, 's')}}));
  EXPECT_EQ(dm.num_pages(), 2u);
  std::string v;
  ASSERT_OK(t.Get(9, &v));
  EXPECT_EQ(v, std::string(100, 's'));
}

TEST(KvTable, LoadOfAnExistingKeyUpdatesItLikePut) {
  TempDir dir("load-dup");
  DiskManager dm(dir.path() + "/t.db", DiskModel::RamDisk());
  BufferPool pool(&dm, 16);
  KvTable t(&dm, &pool);
  ASSERT_OK(t.Load({{1, "first"}}));
  ASSERT_OK(t.Load({{2, "two"}}));
  ASSERT_OK(t.Load({{1, "second"}}));
  ASSERT_OK(t.Load({{2, std::string(600, 'L')}}));  // outgrows: relocates
  EXPECT_EQ(t.size(), 2u);
  std::string v;
  ASSERT_OK(t.Get(1, &v));
  EXPECT_EQ(v, "second");
  ASSERT_OK(t.Get(2, &v));
  EXPECT_EQ(v, std::string(600, 'L'));
}

// Put, Get and Erase interleaved with a run of loads see and keep every
// row, across the cursor's page turns and a checkpoint and reopen.
TEST(KvTable, PutGetEraseBetweenLoadsStayCorrect) {
  TempDir dir("load-mixed");
  std::map<Key, std::string> model;
  {
    DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 16);
    ASSERT_OK(b.Open());
    std::string v;
    for (Key k = 0; k < 600; k++) {
      const std::string row = LoadRowValue(k);
      ASSERT_OK(b.Load({{k, row}}));
      model[k] = LoadRowValue(k);
      if (k % 7 == 3) {
        ASSERT_OK(b.Erase(k - 2, nullptr));
        model.erase(k - 2);
      }
      if (k % 11 == 5) {  // a longer value relocates, maybe to the cursor
        ASSERT_OK(b.Put(k - 4, LoadRowValue(k) + "-put", nullptr));
        model[k - 4] = LoadRowValue(k) + "-put";
      }
      if (k % 13 == 0) {
        ASSERT_OK(b.Put(100000 + k, "fresh", nullptr));
        model[100000 + k] = "fresh";
      }
      const Key probe = k - k % 5;
      const auto it = model.find(probe);
      if (it == model.end()) {
        EXPECT_TRUE(b.Get(probe, &v).IsNotFound());
      } else {
        ASSERT_OK(b.Get(probe, &v));
        EXPECT_EQ(v, it->second);
      }
    }
    ASSERT_OK(b.Checkpoint());
    EXPECT_TRUE(b.pool()->DirtyPageIds().empty());
    EXPECT_EQ(b.size(), model.size());
  }
  DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 16);
  ASSERT_OK(b.Open());
  std::map<Key, std::string> stored;
  ASSERT_OK(b.ScanAll(
      [&](Key k, std::string_view v) { stored[k] = std::string(v); }));
  EXPECT_TRUE(stored == model);
}

TEST(StateBackend, MemoryBackendBasics) {
  MemoryBackend m;
  std::optional<std::string> old;
  ASSERT_OK(m.Put(1, "a", &old));
  EXPECT_FALSE(old.has_value());
  ASSERT_OK(m.Put(1, "b", &old));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, "a");
  std::string v;
  ASSERT_OK(m.Get(1, &v));
  EXPECT_EQ(v, "b");
  ASSERT_OK(m.Erase(1, &old));
  EXPECT_EQ(*old, "b");
  EXPECT_TRUE(m.Get(1, &v).IsNotFound());
  EXPECT_EQ(m.size(), 0u);
}

TEST(StateBackend, DiskBackendPersistsAcrossReopen) {
  TempDir dir("backend");
  {
    DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
    ASSERT_OK(b.Open());
    ASSERT_OK(b.Put(7, "seven", nullptr));
    ASSERT_OK(b.Checkpoint());
  }
  DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
  ASSERT_OK(b.Open());
  std::string v;
  ASSERT_OK(b.Get(7, &v));
  EXPECT_EQ(v, "seven");
}

TEST(StateBackend, JournalRollsBackTornCheckpoint) {
  TempDir dir("journal");
  {
    DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
    ASSERT_OK(b.Open());
    ASSERT_OK(b.Put(1, "committed", nullptr));
    ASSERT_OK(b.Checkpoint());
    // Never checkpointed: the no-steal pool keeps it off the page file.
    ASSERT_OK(b.Put(1, "uncheckpointed", nullptr));
  }
  // Reopen without a checkpoint: state must be the checkpoint. A checkpoint
  // torn mid-flush is the death test below.
  DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
  ASSERT_OK(b.Open());
  std::string v;
  ASSERT_OK(b.Get(1, &v));
  EXPECT_EQ(v, "committed");
}

// A rollback journal that cannot take its bytes (/dev/full fails every
// write with ENOSPC) must fail the checkpoint before any page is flushed:
// a flush over the image with no journal behind it could not be rolled
// back by a crash before the commit record.
TEST(StateBackend, FailedJournalWriteFailsTheCheckpointBeforeTheFlush) {
  TempDir dir("journal-full");
  const std::string tbl = dir.path() + "/s.tbl";
  DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
  ASSERT_OK(b.Open());
  ASSERT_OK(b.Put(1, "committed", nullptr));
  ASSERT_OK(b.Checkpoint(1));
  const std::string image = ReadFileBytes(tbl);
  ASSERT_EQ(image.size(), kPageSize);
  ASSERT_OK(b.Put(1, "uncheckpointed", nullptr));
  const std::string journal = dir.path() + "/s.journal";
  ::unlink(journal.c_str());
  ASSERT_EQ(::symlink("/dev/full", journal.c_str()), 0);
  Status st = b.Checkpoint(2);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(ReadFileBytes(tbl) == image) << "the flush overwrote the image";
  EXPECT_EQ(b.pool()->DirtyPageIds().size(), 1u);  // still owed a flush
}

// A journal in the previous format (v2: no image page count, written by
// builds before v3) still rolls a torn checkpoint back.
// No build writes the v2 journal layout any more: a complete v2 journal
// is refused, and the page file and the journal stay as they were.
TEST(StateBackend, V2JournalIsNotSupported) {
  TempDir dir("journal-v2");
  const std::string tbl = dir.path() + "/s.tbl";
  std::string image;
  {
    DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
    ASSERT_OK(b.Open());
    ASSERT_OK(b.Put(1, "committed", nullptr));
    ASSERT_OK(b.Checkpoint());
    image = ReadFileBytes(tbl);
    // The torn flush: the next state reaches the page file.
    ASSERT_OK(b.Put(1, "torn", nullptr));
    ASSERT_OK(b.pool()->FlushAll());
  }
  ASSERT_EQ(image.size(), kPageSize);
  const std::string torn = ReadFileBytes(tbl);
  ASSERT_NE(torn, image);
  // v2: magic2 | epoch | count | (page id, pre-image) | magic2.
  const uint64_t kMagic2 = 0x4841524d4f4e5932ULL;  // "HARMONY2"
  std::string journal;
  auto put64 = [&journal](uint64_t v) {
    journal.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put64(kMagic2);
  put64(/*epoch=*/5);
  put64(/*count=*/1);
  put64(/*page id=*/0);
  journal += image;
  put64(kMagic2);
  const std::string journal_path = dir.path() + "/s.journal";
  {
    std::ofstream out(journal_path, std::ios::binary);
    out << journal;
  }
  DiskBackend b(dir.path(), "s", DiskModel::RamDisk(), 64);
  const Status s = b.Open(/*committed_epoch=*/4);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
  EXPECT_NE(s.message().find("journal v2"), std::string::npos) << s.ToString();
  EXPECT_TRUE(ReadFileBytes(tbl) == torn);
  EXPECT_TRUE(ReadFileBytes(journal_path) == journal);
}

constexpr Key kImageRows = 30;
constexpr Key kAppendedRows = 60;

std::string RowValue(Key k, char tag) {
  return std::string(1, tag) + std::string(199, static_cast<char>('a' + k % 26));
}

DiskBackend TornTestBackend(const std::string& dir) {
  return DiskBackend(dir, "s", DiskModel::RamDisk(), 64);
}

// Write calls a flush makes for `dirty`: one per run of consecutive page
// ids, in page order.
size_t FlushWriteCalls(std::vector<PageId> dirty) {
  std::sort(dirty.begin(), dirty.end());
  size_t runs = 0;
  for (size_t i = 0; i < dirty.size(); i++) {
    if (i == 0 || dirty[i] != dirty[i - 1] + 1) runs++;
  }
  return runs;
}

// Child half of the torn-checkpoint test: rewrites every row of the image
// and appends pages of new rows, then checkpoints with the flush armed to
// SIGKILL the process after its last write call. The dirty pages form one
// run, so every page is on disk at the kill, but the checkpoint never
// syncs or retires its journal. Returns only on a failure (the kill never
// returns).
Status RunTornCheckpoint(const std::string& dir) {
  DiskBackend b = TornTestBackend(dir);
  HARMONY_RETURN_NOT_OK(b.Open());
  for (Key k = 0; k < kImageRows; k++) {
    HARMONY_RETURN_NOT_OK(b.Put(k, RowValue(k, 'N'), nullptr));
  }
  for (Key k = 0; k < kAppendedRows; k++) {
    HARMONY_RETURN_NOT_OK(b.Put(1000 + k, RowValue(k, 'A'), nullptr));
  }
  const std::vector<PageId> dirty = b.pool()->DirtyPageIds();
  if (dirty.size() < 4) return Status::InvalidArgument("too few dirty pages");
  testing::ArmCrashPointForTest("storage.flush.mid", FlushWriteCalls(dirty),
                                nullptr);
  HARMONY_RETURN_NOT_OK(b.Checkpoint());
  return Status::Aborted("checkpoint survived the armed crash point");
}

// A checkpoint killed mid-flush must roll back to its image exactly: the
// rewritten pages get their pre-images back, and the pages the flush
// appended are cut off the file and out of the allocator. The child shares
// the parent's temp dir, so this needs gtest's default ("fast", fork-only)
// death-test style.
TEST(StateBackendDeathTest, TornCheckpointRollsBackToTheImage) {
  TempDir dir("journal-torn");
  const std::string tbl = dir.path() + "/s.tbl";
  {
    DiskBackend b = TornTestBackend(dir.path());
    ASSERT_OK(b.Open());
    for (Key k = 0; k < kImageRows; k++) {
      ASSERT_OK(b.Put(k, RowValue(k, 'I'), nullptr));
    }
    ASSERT_OK(b.Checkpoint());
    ASSERT_EQ(b.disk()->num_pages(), 2u);
  }
  const std::string image = ReadFileBytes(tbl);
  ASSERT_EQ(image.size(), 2 * kPageSize);

  EXPECT_EXIT(
      {
        Status st = RunTornCheckpoint(dir.path());
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        std::_Exit(1);
      },
      ::testing::KilledBySignal(SIGKILL), "");

  // The tear is real: an image page was overwritten and the file grew.
  const std::string torn = ReadFileBytes(tbl);
  ASSERT_GT(torn.size(), image.size());
  EXPECT_FALSE(torn.compare(0, image.size(), image) == 0);

  {
    DiskBackend b = TornTestBackend(dir.path());
    ASSERT_OK(b.Open());
    const std::string rolled_back = ReadFileBytes(tbl);
    EXPECT_EQ(rolled_back.size(), image.size());
    EXPECT_TRUE(rolled_back == image) << "the image's pages were not restored";
    EXPECT_EQ(b.disk()->num_pages(), 2u);
    EXPECT_EQ(b.size(), kImageRows);
    std::string v;
    Key not_image = 0;
    for (Key k = 0; k < kImageRows; k++) {
      ASSERT_OK(b.Get(k, &v));
      if (v != RowValue(k, 'I')) not_image++;
    }
    EXPECT_EQ(not_image, 0u) << "rows holding the torn checkpoint's values";
    EXPECT_TRUE(b.Get(1000, &v).IsNotFound());
    // The rolled-back backend keeps working: a new row checkpoints and
    // survives a reopen.
    ASSERT_OK(b.Put(7000, "after", nullptr));
    ASSERT_OK(b.Checkpoint());
  }
  DiskBackend b = TornTestBackend(dir.path());
  ASSERT_OK(b.Open());
  std::string v;
  ASSERT_OK(b.Get(7000, &v));
  EXPECT_EQ(v, "after");
  ASSERT_OK(b.Get(0, &v));
  EXPECT_EQ(v, RowValue(0, 'I'));
  EXPECT_EQ(b.size(), kImageRows + 1);
}

constexpr Key kRowsPerPage = 19;  // RowValue rows: 214 bytes with slot
constexpr Key kThreePageImageRows = 3 * kRowsPerPage;

// Child half of the two-run test: rewrites the rows of image pages 0 and
// 2 (not 1), so the dirty set is two runs, and kills the checkpoint after
// its first write call.
Status RunTwoRunTornCheckpoint(const std::string& dir) {
  DiskBackend b = TornTestBackend(dir);
  HARMONY_RETURN_NOT_OK(b.Open());
  for (Key k = 0; k < kThreePageImageRows; k++) {
    if (k / kRowsPerPage == 1) continue;
    HARMONY_RETURN_NOT_OK(b.Put(k, RowValue(k, 'N'), nullptr));
  }
  std::vector<PageId> dirty = b.pool()->DirtyPageIds();
  std::sort(dirty.begin(), dirty.end());
  if (dirty != std::vector<PageId>{0, 2}) {
    return Status::InvalidArgument("dirty set is not pages {0, 2}");
  }
  testing::ArmCrashPointForTest("storage.flush.mid", 1, nullptr);
  HARMONY_RETURN_NOT_OK(b.Checkpoint());
  return Status::Aborted("checkpoint survived the armed crash point");
}

// A flush killed between its two write calls leaves one rewritten image
// page on disk and another not yet rewritten; reopening restores the
// image byte for byte.
TEST(StateBackendDeathTest, TornCheckpointBetweenRunsRollsBackToTheImage) {
  TempDir dir("journal-two-runs");
  const std::string tbl = dir.path() + "/s.tbl";
  {
    DiskBackend b = TornTestBackend(dir.path());
    ASSERT_OK(b.Open());
    for (Key k = 0; k < kThreePageImageRows; k++) {
      ASSERT_OK(b.Put(k, RowValue(k, 'I'), nullptr));
    }
    ASSERT_OK(b.Checkpoint());
    ASSERT_EQ(b.disk()->num_pages(), 3u);
  }
  const std::string image = ReadFileBytes(tbl);
  ASSERT_EQ(image.size(), 3 * kPageSize);

  EXPECT_EXIT(
      {
        Status st = RunTwoRunTornCheckpoint(dir.path());
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        std::_Exit(1);
      },
      ::testing::KilledBySignal(SIGKILL), "");

  const std::string torn = ReadFileBytes(tbl);
  ASSERT_EQ(torn.size(), image.size());
  EXPECT_NE(torn.compare(0, kPageSize, image, 0, kPageSize), 0)
      << "the first run (page 0) was not written";
  EXPECT_EQ(torn.compare(kPageSize, 2 * kPageSize, image, kPageSize,
                         2 * kPageSize),
            0)
      << "pages 1 and 2 changed before the second write call";

  DiskBackend b = TornTestBackend(dir.path());
  ASSERT_OK(b.Open());
  EXPECT_TRUE(ReadFileBytes(tbl) == image)
      << "the image's pages were not restored";
  EXPECT_EQ(b.size(), kThreePageImageRows);
  std::string v;
  for (Key k = 0; k < kThreePageImageRows; k++) {
    ASSERT_OK(b.Get(k, &v));
    EXPECT_EQ(v, RowValue(k, 'I')) << k;
  }
}

}  // namespace
}  // namespace harmony

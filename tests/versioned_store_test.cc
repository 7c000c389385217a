#include <gtest/gtest.h>

#include <functional>

#include "common/thread_pool.h"
#include "storage/state_backend.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

class VersionedStoreTest : public ::testing::Test {
 protected:
  MemoryBackend backend_;
  VersionedStore store_{&backend_};

  void Apply(Key k, BlockId b, const std::string& v) {
    ASSERT_OK(store_.ApplyWrite(k, b, v));
  }
  std::optional<std::string> Read(Key k, BlockId snap) {
    std::optional<std::string> out;
    EXPECT_OK(store_.ReadAtSnapshot(k, snap, &out));
    return out;
  }
};

TEST_F(VersionedStoreTest, SnapshotIsolation) {
  ASSERT_OK(backend_.Put(1, "genesis", nullptr));
  Apply(1, 5, "v5");
  Apply(1, 8, "v8");

  EXPECT_EQ(Read(1, 3), "genesis");   // before any retained write
  EXPECT_EQ(Read(1, 5), "v5");
  EXPECT_EQ(Read(1, 7), "v5");
  EXPECT_EQ(Read(1, 8), "v8");
  EXPECT_EQ(Read(1, 100), "v8");

  // Backend holds the newest (write-through).
  std::string latest;
  ASSERT_OK(backend_.Get(1, &latest));
  EXPECT_EQ(latest, "v8");
}

TEST_F(VersionedStoreTest, AbsentKeyAndDelete) {
  EXPECT_FALSE(Read(42, 10).has_value());
  Apply(42, 5, "born");
  EXPECT_FALSE(Read(42, 4).has_value());
  EXPECT_EQ(Read(42, 5), "born");
  ASSERT_OK(store_.ApplyWrite(42, 7, std::nullopt));  // delete at block 7
  EXPECT_EQ(Read(42, 6), "born");
  EXPECT_FALSE(Read(42, 7).has_value());
  std::string v;
  EXPECT_TRUE(backend_.Get(42, &v).IsNotFound());
}

TEST_F(VersionedStoreTest, PruneCollapsesOldVersions) {
  ASSERT_OK(backend_.Put(1, "g", nullptr));
  Apply(1, 2, "v2");
  Apply(1, 4, "v4");
  Apply(1, 6, "v6");
  EXPECT_EQ(store_.retained_keys(), 1u);

  store_.Prune(4);  // snapshots >= 4 must stay readable
  EXPECT_EQ(Read(1, 4), "v4");
  EXPECT_EQ(Read(1, 5), "v4");
  EXPECT_EQ(Read(1, 6), "v6");

  store_.Prune(10);  // everything collapsible -> chain dropped entirely
  EXPECT_EQ(store_.retained_keys(), 0u);
  EXPECT_EQ(Read(1, 10), "v6");
}

TEST_F(VersionedStoreTest, VersionReads) {
  ASSERT_OK(backend_.Put(1, "g", nullptr));
  Apply(1, 3, "v3");
  std::optional<std::string> out;
  BlockId ver = 99;
  ASSERT_OK(store_.ReadVersionAtSnapshot(1, 2, &out, &ver));
  EXPECT_EQ(ver, 0u);  // base (pre-retained-window)
  ASSERT_OK(store_.ReadVersionAtSnapshot(1, 3, &out, &ver));
  EXPECT_EQ(ver, 3u);
  ASSERT_OK(store_.ReadVersionAtSnapshot(2, 5, &out, &ver));
  EXPECT_EQ(ver, 0u);
  EXPECT_FALSE(out.has_value());
}

TEST_F(VersionedStoreTest, SameBlockOverwriteLastWins) {
  Apply(1, 4, "first");
  Apply(1, 4, "second");
  EXPECT_EQ(Read(1, 4), "second");
}

TEST_F(VersionedStoreTest, ConcurrentReadersDuringApply) {
  for (Key k = 0; k < 200; k++) {
    ASSERT_OK(backend_.Put(k, "base", nullptr));
  }
  ThreadPool pool(8);
  std::atomic<int> bad{0};
  // Writers apply block 2 while readers read snapshot 1: readers must only
  // ever see "base".
  pool.ParallelFor(400, [&](size_t i) {
    const Key k = static_cast<Key>(i % 200);
    if (i % 2 == 0) {
      if (!store_.ApplyWrite(k, 2, "new").ok()) bad.fetch_add(1);
    } else {
      std::optional<std::string> out;
      if (!store_.ReadAtSnapshot(k, 1, &out).ok() || !out.has_value() ||
          *out != "base") {
        bad.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

/// A backend whose next Get first runs a hook — the deterministic stand-in
/// for a commit that lands while a snapshot read is inside the backend.
class InterleavingBackend : public MemoryBackend {
 public:
  std::function<void()> before_next_get;

  Status Get(Key key, std::string* out) override {
    if (before_next_get) {
      auto hook = std::move(before_next_get);
      before_next_get = nullptr;
      hook();
    }
    return MemoryBackend::Get(key, out);
  }
};

TEST(VersionedStoreRace, CommitDuringBackendReadKeepsSnapshot) {
  // Block 2 installs k's chain and writes through while a snapshot-1 read
  // that found no chain is reading the backend. The read must still see
  // the pre-image, not block 2's value.
  InterleavingBackend backend;
  VersionedStore store(&backend);
  const Key k = 7;
  ASSERT_OK(backend.Put(k, "old", nullptr));
  for (bool with_version : {false, true}) {
    store.Clear();
    ASSERT_OK(backend.Put(k, "old", nullptr));
    backend.before_next_get = [&] {
      ASSERT_OK(store.ApplyWrite(k, 2, std::string("new")));
    };
    std::optional<std::string> out;
    BlockId version = 99;
    if (with_version) {
      ASSERT_OK(store.ReadVersionAtSnapshot(k, 1, &out, &version));
      EXPECT_EQ(version, 0u);
    } else {
      ASSERT_OK(store.ReadAtSnapshot(k, 1, &out));
    }
    EXPECT_EQ(out, "old") << "with_version=" << with_version;
    ASSERT_OK(store.ReadVersionAtSnapshot(k, 2, &out, &version));
    EXPECT_EQ(out, "new");
    EXPECT_EQ(version, 2u);
  }
}

TEST_F(VersionedStoreTest, DiskBackedSnapshotFallback) {
  TempDir dir("vs");
  DiskBackend disk(dir.path(), "t", DiskModel::RamDisk(), 64);
  ASSERT_OK(disk.Open());
  VersionedStore vs(&disk);
  ASSERT_OK(disk.Put(9, "old", nullptr));
  ASSERT_OK(vs.ApplyWrite(9, 4, std::string("new")));
  std::optional<std::string> out;
  ASSERT_OK(vs.ReadAtSnapshot(9, 3, &out));
  EXPECT_EQ(*out, "old");
  ASSERT_OK(vs.ReadAtSnapshot(9, 4, &out));
  EXPECT_EQ(*out, "new");
  std::string v;
  ASSERT_OK(disk.Get(9, &v));
  EXPECT_EQ(v, "new");
}

}  // namespace
}  // namespace harmony

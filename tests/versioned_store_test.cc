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

/// A value tagged with its key, `pad` bytes longer than the tag.
std::string Tagged(Key k, size_t pad) {
  return "k" + std::to_string(k) + ":" + std::string(pad, 'x');
}

/// Applies `blocks` blocks of `write_block(b)` to a VersionedStore over a
/// disk table, pruning after each so that snapshot reads fall through to
/// the table while its slots change, and meanwhile reads `read_key(i, s)`
/// on another thread at the newest committed snapshot `s`. Returns the
/// first write or read that failed, or a read that returned another key's
/// value.
Status ReadWhileWriting(const std::string& dir, BlockId blocks,
                        const std::function<Status(VersionedStore&, BlockId)>&
                            write_block,
                        const std::function<Key(uint64_t, BlockId)>& read_key) {
  DiskBackend disk(dir, "t", DiskModel::RamDisk(), 256);
  HARMONY_RETURN_NOT_OK(disk.Open());
  VersionedStore vs(&disk);
  HARMONY_RETURN_NOT_OK(write_block(vs, 0));
  std::atomic<BlockId> committed{0};
  std::atomic<bool> done{false};
  Status read_status;
  std::thread reader([&] {
    for (uint64_t i = 0; !done.load(); i++) {
      const BlockId snapshot = committed.load();
      const Key k = read_key(i, snapshot);
      std::optional<std::string> out;
      Status st = vs.ReadAtSnapshot(k, snapshot, &out);
      if (st.ok() && out.has_value() &&
          out->rfind(Tagged(k, 0), 0) != 0) {
        st = Status::Corruption("read another key's value: " + *out);
      }
      if (!st.ok()) {
        read_status = st;
        return;
      }
    }
  });
  Status write_status;
  for (BlockId b = 1; b <= blocks && write_status.ok(); b++) {
    write_status = write_block(vs, b);
    committed = b;
    vs.Prune(b);
  }
  done = true;
  reader.join();
  HARMONY_RETURN_NOT_OK(write_status);
  return read_status;
}

// Every write outgrows its slot, so the table relocates the record while a
// snapshot read of the same key may be reading the old slot. The read must
// follow the key to its new slot, never report the stale slot.
TEST(VersionedStoreRace, DiskReadFollowsARelocatedRecord) {
  TempDir dir("vs-relocate");
  constexpr Key kKeys = 64;
  ASSERT_OK(ReadWhileWriting(
      dir.path(), 300,
      [](VersionedStore& vs, BlockId b) {
        for (Key k = 0; k < kKeys; k++) {
          HARMONY_RETURN_NOT_OK(vs.ApplyWrite(k, b, Tagged(k, b)));
        }
        return Status::OK();
      },
      [](uint64_t i, BlockId) { return static_cast<Key>(i % kKeys); }));
}

// Each block erases the 64 oldest keys and inserts 64 new ones of the same
// size, which reuse the erased slots. A snapshot read of an erased key
// that lands on its reused slot must see the key gone (and answer from the
// version chain), never the other key's record or a stale-slot error.
TEST(VersionedStoreRace, DiskReadSurvivesAnErasedSlotsReuse) {
  TempDir dir("vs-erase");
  constexpr Key kLive = 512, kChurn = 64;
  ASSERT_OK(ReadWhileWriting(
      dir.path(), 300,
      [](VersionedStore& vs, BlockId b) {
        if (b == 0) {
          for (Key k = 0; k < kLive; k++) {
            HARMONY_RETURN_NOT_OK(vs.ApplyWrite(k, 0, Tagged(k, 100)));
          }
          return Status::OK();
        }
        const Key lo = (b - 1) * kChurn;
        for (Key k = lo; k < lo + kChurn; k++) {
          HARMONY_RETURN_NOT_OK(vs.ApplyWrite(k, b, std::nullopt));
          const Key fresh = k + kLive;
          HARMONY_RETURN_NOT_OK(vs.ApplyWrite(
              fresh, b, Tagged(fresh, 100 + Tagged(k, 0).size() -
                                          Tagged(fresh, 0).size())));
        }
        return Status::OK();
      },
      // The keys live at the snapshot that the next block erases.
      [](uint64_t i, BlockId snapshot) {
        return static_cast<Key>(snapshot * kChurn + i % kChurn);
      }));
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

#include <gtest/gtest.h>

#include <fstream>

#include "core/harmonybc.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

Status Transfer(TxnContext& ctx, const ProcArgs& a) {
  Value src;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
  if (src.field(0) < a.at(2)) return Status::Aborted("insufficient");
  ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
  ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
  return Status::OK();
}

HarmonyBC::Options FastOpts(const std::string& dir) {
  HarmonyBC::Options o;
  o.dir = dir;
  o.disk = DiskModel::RamDisk();
  o.block_size = 8;
  o.threads = 4;
  o.checkpoint_every = 4;
  return o;
}

TEST(HarmonyBC, QuickstartFlow) {
  TempDir dir("bc1");
  auto db = HarmonyBC::Open(FastOpts(dir.path()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 10; k++) {
    ASSERT_OK((*db)->Load(k, Value({1000})));
  }
  auto tip = (*db)->Recover();
  ASSERT_TRUE(tip.ok());
  EXPECT_EQ(*tip, 0u);

  auto session = (*db)->OpenSession();
  for (int i = 0; i < 40; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {i % 10, (i + 1) % 10, 10};
    ASSERT_OK(AdmitStatus(session->Submit(std::move(t))));
  }
  ASSERT_OK((*db)->Sync());
  EXPECT_GE((*db)->height(), 5u);

  int64_t total = 0;
  for (Key k = 0; k < 10; k++) {
    std::optional<Value> v;
    ASSERT_OK((*db)->Query(k, &v));
    total += v->field(0);
  }
  EXPECT_EQ(total, 10000);  // transfers conserve money
  ASSERT_OK((*db)->AuditChain());
  EXPECT_GT((*db)->stats().committed.load(), 0u);
}

// A directory the engine cannot create its files in is an IOError from
// Open, not a dead process: the page file used to abort() on open failure.
TEST(HarmonyBC, OpenOnAnUnusableDirectoryIsIOError) {
  TempDir dir("bc-baddir");
  const std::string missing = dir.path() + "/does/not/exist";
  // A regular file where a directory should be fails even for root.
  const std::string not_a_dir = dir.path() + "/file";
  std::ofstream(not_a_dir) << "x";
  for (const std::string& path : {missing, not_a_dir + "/db"}) {
    SCOPED_TRACE(path);
    for (bool in_memory : {false, true}) {
      HarmonyBC::Options o = FastOpts(path);
      o.in_memory = in_memory;
      auto db = HarmonyBC::Open(o);
      ASSERT_FALSE(db.ok());
      EXPECT_TRUE(db.status().IsIOError()) << db.status().ToString();
    }
  }
}

TEST(HarmonyBC, RestartRecoversAndExtendsChain) {
  TempDir dir("bc2");
  Digest before;
  {
    auto db = HarmonyBC::Open(FastOpts(dir.path()));
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "transfer", Transfer);
    for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({500})));
    ASSERT_OK((*db)->Recover().status());
    auto session = (*db)->OpenSession();
    for (int i = 0; i < 20; i++) {
      TxnRequest t;
      t.proc_id = 1;
      t.args.ints = {i % 4, (i + 1) % 4, 5};
      ASSERT_OK(AdmitStatus(session->Submit(std::move(t))));
    }
    ASSERT_OK((*db)->Sync());
    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    before = *d;
    // No clean shutdown: dirty pages beyond the last checkpoint are lost.
  }
  {
    auto db = HarmonyBC::Open(FastOpts(dir.path()));
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "transfer", Transfer);
    auto tip = (*db)->Recover();
    ASSERT_TRUE(tip.ok()) << tip.status().ToString();
    EXPECT_GT(*tip, 0u);
    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(DigestToHex(*d), DigestToHex(before));

    // The chain keeps extending after recovery.
    auto session = (*db)->OpenSession();
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1, 1};
    ASSERT_OK(AdmitStatus(session->Submit(std::move(t))));
    ASSERT_OK((*db)->Sync());
    ASSERT_OK((*db)->AuditChain());
  }
}

// The memory engine's checkpoint saves nothing, so a restarted in-memory
// node must rebuild its state from the reloaded genesis plus the whole log,
// including the blocks at and below its checkpoint barriers.
TEST(HarmonyBC, InMemoryRestartReplaysWholeLog) {
  TempDir dir("bc-mem-restart");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.in_memory = true;
  auto load = [](HarmonyBC* db) {
    db->RegisterProcedure(1, "transfer", Transfer);
    for (Key k = 0; k < 8; k++) ASSERT_OK(db->Load(k, Value({1000})));
  };
  Digest before;
  BlockId height = 0;
  {
    auto db = HarmonyBC::Open(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    load(db->get());
    ASSERT_OK((*db)->Recover().status());
    auto session = (*db)->OpenSession();
    for (int i = 0; (*db)->height() < 12; i++) {
      TxnRequest t;
      t.proc_id = 1;
      t.args.ints = {i % 8, (i + 3) % 8, 1 + i % 5};
      ASSERT_OK(AdmitStatus(session->Submit(std::move(t))));
      if (i % 8 == 7) ASSERT_OK((*db)->Sync());
    }
    ASSERT_OK((*db)->Sync());
    height = (*db)->height();
    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    before = *d;
  }
  ASSERT_GE(height, 12u);  // three checkpoint barriers at checkpoint_every 4
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  load(db->get());
  auto tip = (*db)->Recover();
  ASSERT_TRUE(tip.ok()) << tip.status().ToString();
  EXPECT_EQ(*tip, height);
  EXPECT_EQ((*db)->height(), height);
  auto d = (*db)->StateDigest();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(DigestToHex(*d), DigestToHex(before));
}

// Retention would cut the log an in-memory node recovers from.
TEST(HarmonyBC, InMemoryRejectsLogRetention) {
  TempDir dir("bc-mem-retain");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.in_memory = true;
  o.log_retain_blocks = 8;
  auto db = HarmonyBC::Open(o);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsInvalidArgument()) << db.status().ToString();
}

TEST(HarmonyBC, AllProtocolsViaFacade) {
  for (DccKind kind : {DccKind::kHarmony, DccKind::kAria, DccKind::kRbc,
                       DccKind::kFabric, DccKind::kFastFabric}) {
    TempDir dir("bc3");
    HarmonyBC::Options o = FastOpts(dir.path());
    o.protocol = kind;
    auto db = HarmonyBC::Open(o);
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "transfer", Transfer);
    for (Key k = 0; k < 6; k++) ASSERT_OK((*db)->Load(k, Value({100})));
    auto session = (*db)->OpenSession();
    for (int i = 0; i < 24; i++) {
      TxnRequest t;
      t.proc_id = 1;
      t.args.ints = {i % 6, (i + 2) % 6, 3};
      ASSERT_OK(AdmitStatus(session->Submit(std::move(t))));
    }
    ASSERT_OK((*db)->Sync());
    int64_t total = 0;
    for (Key k = 0; k < 6; k++) {
      std::optional<Value> v;
      ASSERT_OK((*db)->Query(k, &v));
      total += v->field(0);
    }
    EXPECT_EQ(total, 600) << DccKindName(kind);
  }
}

}  // namespace
}  // namespace harmony

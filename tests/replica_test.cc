#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <mutex>

#include "consensus/orderer.h"
#include "core/harmonybc.h"
#include "replica/replica.h"
#include "tests/test_util.h"
#include "workload/smallbank.h"

namespace harmony {
namespace {

ReplicaOptions FastOptions(const std::string& dir, DccKind dcc) {
  ReplicaOptions ro;
  ro.dir = dir;
  ro.dcc = dcc;
  ro.disk = DiskModel::RamDisk();
  ro.threads = 4;
  ro.pool_pages = 512;
  ro.checkpoint_every = 5;
  return ro;
}

void RegisterCounterProc(Replica& r) {
  r.RegisterProcedure(1, "incr", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
    return Status::OK();
  });
}

Block NextBlock(Orderer& ord, std::vector<TxnRequest> txns) {
  return ord.SealBlock(std::move(txns), 0);
}

TxnRequest Incr(Key k, int64_t d) {
  TxnRequest t;
  t.proc_id = 1;
  t.args.ints = {static_cast<int64_t>(k), d};
  return t;
}

TEST(Replica, EndToEndCommitAndQuery) {
  TempDir dir("rep1");
  Replica r(FastOptions(dir.path(), DccKind::kHarmony));
  ASSERT_OK(r.Open());
  RegisterCounterProc(r);
  ASSERT_OK(r.LoadRow(1, Value({100})));

  KafkaOrderer ord("orderer-secret", NetworkModel{});
  for (int b = 0; b < 12; b++) {
    ASSERT_OK(r.SubmitBlock(NextBlock(ord, {Incr(1, 1), Incr(1, 2)})));
  }
  ASSERT_OK(r.Drain());
  EXPECT_EQ(r.last_committed(), 12u);

  std::optional<Value> v;
  ASSERT_OK(r.Query(1, &v));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->field(0), 100 + 12 * 3);
  ASSERT_OK(r.AuditChain());
}

TEST(Replica, RejectsTamperedBlock) {
  TempDir dir("rep2");
  Replica r(FastOptions(dir.path(), DccKind::kHarmony));
  ASSERT_OK(r.Open());
  RegisterCounterProc(r);
  ASSERT_OK(r.LoadRow(1, Value({0})));
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  Block b = NextBlock(ord, {Incr(1, 5)});
  b.batch.txns[0].args.ints[1] = 5000000;  // tamper
  EXPECT_TRUE(r.SubmitBlock(std::move(b)).IsCorruption());
}

/// Up to `n` leading bytes of a file (bounded: a path that resolves to a
/// device must not read forever).
std::string LeadingBytes(const std::string& path, size_t n) {
  std::string out(n, '\0');
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  out.resize(std::fread(out.data(), 1, n, f));
  std::fclose(f);
  return out;
}

// A snapshot install whose anchor temp cannot take the bytes (/dev/full
// fails the flush with ENOSPC) must fail with IOError and keep the previous
// anchor: renaming the temp over it would lose the chain position a
// restart resumes from.
TEST(Replica, FailedAnchorWriteKeepsThePreviousAnchor) {
  TempDir dir("rep-anchor");
  Replica r(FastOptions(dir.path(), DccKind::kHarmony));
  ASSERT_OK(r.Open());
  RegisterCounterProc(r);
  Digest first;
  first.fill(0x11);
  ASSERT_OK(r.InstallSnapshot(5, first, {}));
  const std::string anchor = dir.path() + "/replica.anchor";
  const std::string before = LeadingBytes(anchor, 64);
  ASSERT_EQ(before.size(), first.size() + 4);  // digest + CRC
  ASSERT_EQ(::symlink("/dev/full", (anchor + ".tmp").c_str()), 0);
  Digest second;
  second.fill(0x22);
  EXPECT_TRUE(r.InstallSnapshot(9, second, {}).IsIOError());
  EXPECT_EQ(LeadingBytes(anchor, 64), before);
  EXPECT_NE(::access((anchor + ".tmp").c_str(), F_OK), 0);
}

TEST(Replica, RecoveryReplaysToIdenticalState) {
  TempDir dir_a("recov-a");
  TempDir dir_b("recov-b");
  // Twin A runs straight through. Twin B "crashes" (destructed without a
  // final checkpoint) and recovers by replaying its logical log.
  Digest digest_a, digest_b;
  KafkaOrderer ord_a("orderer-secret", NetworkModel{});
  KafkaOrderer ord_b("orderer-secret", NetworkModel{});
  std::vector<std::vector<TxnRequest>> blocks;
  Rng rng(5);
  for (int b = 0; b < 17; b++) {  // 17: not a checkpoint multiple
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 6; i++) {
      txns.push_back(Incr(rng.Uniform(10), rng.UniformRange(1, 9)));
    }
    blocks.push_back(std::move(txns));
  }
  {
    Replica a(FastOptions(dir_a.path(), DccKind::kHarmony));
    ASSERT_OK(a.Open());
    RegisterCounterProc(a);
    for (Key k = 0; k < 10; k++) ASSERT_OK(a.LoadRow(k, Value({0})));
    for (auto& t : blocks) ASSERT_OK(a.SubmitBlock(NextBlock(ord_a, t)));
    ASSERT_OK(a.Drain());
    auto d = a.StateDigest();
    ASSERT_TRUE(d.ok());
    digest_a = *d;
  }
  {
    Replica b(FastOptions(dir_b.path(), DccKind::kHarmony));
    ASSERT_OK(b.Open());
    RegisterCounterProc(b);
    for (Key k = 0; k < 10; k++) ASSERT_OK(b.LoadRow(k, Value({0})));
    for (auto& t : blocks) ASSERT_OK(b.SubmitBlock(NextBlock(ord_b, t)));
    ASSERT_OK(b.Drain());
    // Crash: destructor drops dirty pages; blocks after the checkpoint at
    // block 15 are un-checkpointed.
  }
  {
    Replica b(FastOptions(dir_b.path(), DccKind::kHarmony));
    ASSERT_OK(b.Open());
    RegisterCounterProc(b);
    auto tip = b.Recover();
    ASSERT_TRUE(tip.ok()) << tip.status().ToString();
    EXPECT_EQ(*tip, 17u);
    auto d = b.StateDigest();
    ASSERT_TRUE(d.ok());
    digest_b = *d;
  }
  EXPECT_EQ(DigestToHex(digest_a), DigestToHex(digest_b));
}

TEST(Replica, RecoveryIsIdempotent) {
  TempDir dir("recov2");
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  {
    Replica r(FastOptions(dir.path(), DccKind::kHarmony));
    ASSERT_OK(r.Open());
    RegisterCounterProc(r);
    ASSERT_OK(r.LoadRow(1, Value({0})));
    for (int b = 0; b < 7; b++) {
      ASSERT_OK(r.SubmitBlock(NextBlock(ord, {Incr(1, 1)})));
    }
    ASSERT_OK(r.Drain());
  }
  for (int round = 0; round < 2; round++) {
    Replica r(FastOptions(dir.path(), DccKind::kHarmony));
    ASSERT_OK(r.Open());
    RegisterCounterProc(r);
    auto tip = r.Recover();
    ASSERT_TRUE(tip.ok());
    std::optional<Value> v;
    ASSERT_OK(r.Query(1, &v));
    EXPECT_EQ(v->field(0), 7);
    ASSERT_OK(r.Checkpoint());
  }
}

// An in-memory replica recovers by replaying its whole log over the genesis
// rows it reloads. After a snapshot install the rows below the snapshot
// base lived only in memory, so Recover must refuse, not replay the tail
// onto genesis.
TEST(Replica, InMemoryRestartAfterSnapshotInstallIsRefused) {
  TempDir dir("rep-mem-snap");
  ReplicaOptions ro = FastOptions(dir.path(), DccKind::kHarmony);
  ro.in_memory = true;
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  Digest base_hash{};
  for (int b = 0; b < 5; b++) {
    base_hash = NextBlock(ord, {Incr(1, 1)}).header.block_hash;
  }
  {
    Replica r(ro);
    ASSERT_OK(r.Open());
    RegisterCounterProc(r);
    ASSERT_OK(r.InstallSnapshot(5, base_hash, {{1, Value({5}).Encode()}}));
    for (int b = 0; b < 3; b++) {
      ASSERT_OK(r.SubmitBlock(NextBlock(ord, {Incr(1, 1)})));
    }
    ASSERT_OK(r.Drain());
    std::optional<Value> v;
    ASSERT_OK(r.Query(1, &v));
    ASSERT_EQ(v->field(0), 8);
  }
  // Either trace of the install refuses: the log's first record past block
  // 1, or (with nothing appended yet) the persisted chain anchor alone.
  for (bool with_log : {true, false}) {
    SCOPED_TRACE(with_log);
    if (!with_log) {
      ASSERT_EQ(std::remove((dir.path() + "/replica.chain").c_str()), 0);
    }
    Replica r(ro);
    ASSERT_OK(r.Open());
    RegisterCounterProc(r);
    ASSERT_OK(r.LoadRow(1, Value({0})));  // genesis
    auto tip = r.Recover();
    ASSERT_FALSE(tip.ok());
    EXPECT_TRUE(tip.status().IsNotSupported()) << tip.status().ToString();
    EXPECT_NE(tip.status().ToString().find("snapshot"), std::string::npos);
  }
}

Status Unset(TxnContext&, const ProcArgs&) {
  return Status::InvalidArgument("procedure not installed by Workload::Setup");
}

// One leader runs contended Smallbank through the production pipeline
// (session -> admission -> mempool -> sealer -> replica, CC-abort retries
// included); three fresh replicas fed the blocks it committed must end in
// the leader's exact state.
class ChainDeterminismTest : public ::testing::TestWithParam<DccKind> {};

TEST_P(ChainDeterminismTest, FreshReplicasReplayingTheChainMatchTheLeader) {
  TempDir leader_dir("det-leader");
  SmallbankConfig sb;
  sb.num_accounts = 200;
  sb.skew = 0.9;  // contentious: aborts + retries exercised
  constexpr size_t kTxns = 300;

  HarmonyBC::Options o;
  o.dir = leader_dir.path();
  o.protocol = GetParam();
  o.dcc.harmony_inter_block = true;
  o.disk = DiskModel::RamDisk();
  o.threads = 4;
  o.pool_pages = 512;
  o.checkpoint_every = 5;
  o.block_size = 10;
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  SmallbankWorkload workload(sb);
  for (uint32_t id : {SmallbankWorkload::kProcAmalgamate,
                      SmallbankWorkload::kProcBalance,
                      SmallbankWorkload::kProcDepositChecking,
                      SmallbankWorkload::kProcSendPayment,
                      SmallbankWorkload::kProcTransactSavings,
                      SmallbankWorkload::kProcWriteCheck}) {
    (*db)->RegisterProcedure(id, "unset", Unset);
  }
  ASSERT_OK(workload.Setup(*(*db)->replica()));
  ASSERT_TRUE((*db)->Recover().ok());

  std::mutex mu;
  std::vector<Block> chain;
  (*db)->SetCommittedBlockHook([&](const Block& b) {
    std::lock_guard<std::mutex> lk(mu);
    chain.push_back(b);
  });
  auto session = (*db)->OpenSession();
  std::vector<TxnRequest> reqs;
  for (size_t i = 0; i < kTxns; i++) reqs.push_back(workload.Next());
  const std::vector<TxnTicket> tickets = session->SubmitBatch(std::move(reqs));
  ASSERT_OK((*db)->Sync());
  (*db)->SetCommittedBlockHook(nullptr);

  for (const TxnTicket& t : tickets) {
    const std::optional<TxnReceipt> r = t.TryGet();
    ASSERT_TRUE(r.has_value()) << "seq " << t.client_seq() << " not terminal";
    EXPECT_NE(r->outcome, ReceiptOutcome::kRejected) << r->status.ToString();
  }
  const SessionStats& st = session->stats();
  EXPECT_EQ(st.committed + st.logic_aborted + st.dropped, kTxns);
  EXPECT_GT(st.committed.load(), 250u);
  auto leader = (*db)->StateDigest();
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();

  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(chain.size(), (*db)->height());
  for (int i = 0; i < 3; i++) {
    TempDir dir("det-replica");
    ReplicaOptions ro = FastOptions(dir.path(), GetParam());
    ro.dcc_cfg.harmony_inter_block = true;
    Replica r(ro);
    ASSERT_OK(r.Open());
    SmallbankWorkload genesis(sb);
    ASSERT_OK(genesis.Setup(r));
    for (const Block& b : chain) ASSERT_OK(r.SubmitBlock(b));
    ASSERT_OK(r.Drain());
    auto d = r.StateDigest();
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(DigestToHex(*d), DigestToHex(*leader)) << "replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChainDeterminismTest,
                         ::testing::Values(DccKind::kHarmony, DccKind::kAria,
                                           DccKind::kRbc, DccKind::kFabric,
                                           DccKind::kFastFabric),
                         [](const ::testing::TestParamInfo<DccKind>& info) {
                           std::string s(DccKindName(info.param));
                           for (char& c : s) {
                             if (c == '#') c = 'S';
                           }
                           return s;
                         });

}  // namespace
}  // namespace harmony

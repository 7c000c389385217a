#include <gtest/gtest.h>

#include <set>

#include "consensus/orderer.h"
#include "tests/test_util.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace harmony {
namespace {

ReplicaOptions MemOptions(const std::string& dir) {
  ReplicaOptions ro;
  ro.dir = dir;
  ro.dcc = DccKind::kHarmony;
  // Functional workload tests want block i to observe block i-1's writes
  // directly, so disable the lag-2 pipeline.
  ro.dcc_cfg.harmony_inter_block = false;
  ro.in_memory = true;
  ro.threads = 4;
  ro.checkpoint_every = 0;
  ro.persist_blocks = false;
  return ro;
}

TEST(Ycsb, GeneratorIsDeterministic) {
  YcsbConfig cfg;
  cfg.num_keys = 100;
  YcsbWorkload a(cfg), b(cfg);
  for (int i = 0; i < 50; i++) {
    const TxnRequest ra = a.Next(), rb = b.Next();
    EXPECT_EQ(ra.args.ints, rb.args.ints);
  }
}

TEST(Ycsb, HotspotModeEmitsRmwOps) {
  YcsbConfig cfg;
  cfg.num_keys = 1000;
  cfg.hotspot_prob = 1.0;
  YcsbWorkload w(cfg);
  const TxnRequest r = w.Next();
  // All ops are RMW updates on the hotspot range (1% of keys).
  for (size_t i = 0; i < 10; i++) {
    EXPECT_EQ(r.args.ints[1 + i * 3], 2 /*kRmwUpdate*/);
    EXPECT_LT(r.args.ints[2 + i * 3], 10);
  }
}

TEST(Ycsb, EndToEndRun) {
  TempDir dir("wl-ycsb");
  Replica r(MemOptions(dir.path()));
  ASSERT_OK(r.Open());
  YcsbConfig cfg;
  cfg.num_keys = 200;
  cfg.payload_bytes = 8;
  YcsbWorkload w(cfg);
  ASSERT_OK(w.Setup(r));
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  for (int b = 0; b < 5; b++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 10; i++) txns.push_back(w.Next());
    ASSERT_OK(r.SubmitBlock(ord.SealBlock(std::move(txns), 0)));
  }
  ASSERT_OK(r.Drain());
  EXPECT_GT(r.protocol_stats().committed.load(), 0u);
}

TEST(Smallbank, SetupLoadsAllAccounts) {
  TempDir dir("wl-sb");
  Replica r(MemOptions(dir.path()));
  ASSERT_OK(r.Open());
  SmallbankConfig cfg;
  cfg.num_accounts = 50;
  SmallbankWorkload w(cfg);
  ASSERT_OK(w.Setup(r));
  EXPECT_EQ(r.backend()->size(), 100u);  // savings + checking
  std::optional<Value> v;
  ASSERT_OK(r.Query(MakeKey(SmallbankWorkload::kChecking, 7), &v));
  EXPECT_EQ(v->field(0), cfg.initial_balance);
}

TEST(Smallbank, MoneyNeverCreatedBySendPayment) {
  TempDir dir("wl-sb2");
  Replica r(MemOptions(dir.path()));
  ASSERT_OK(r.Open());
  SmallbankConfig cfg;
  cfg.num_accounts = 20;
  cfg.skew = 0.99;
  SmallbankWorkload w(cfg);
  ASSERT_OK(w.Setup(r));
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  // Only SendPayment conserves money exactly; filter the generator.
  int sent = 0;
  std::vector<TxnRequest> txns;
  while (sent < 60) {
    TxnRequest t = w.Next();
    if (t.proc_id != SmallbankWorkload::kProcSendPayment) continue;
    txns.push_back(std::move(t));
    sent++;
    if (txns.size() == 10) {
      ASSERT_OK(r.SubmitBlock(ord.SealBlock(std::move(txns), 0)));
      txns.clear();
    }
  }
  ASSERT_OK(r.Drain());
  int64_t total = 0;
  for (uint64_t a = 0; a < cfg.num_accounts; a++) {
    std::optional<Value> sv, cv;
    ASSERT_OK(r.Query(MakeKey(SmallbankWorkload::kSavings, a), &sv));
    ASSERT_OK(r.Query(MakeKey(SmallbankWorkload::kChecking, a), &cv));
    EXPECT_GE(cv->field(0), 0);
    total += sv->field(0) + cv->field(0);
  }
  EXPECT_EQ(total, static_cast<int64_t>(2 * cfg.num_accounts) *
                       cfg.initial_balance);
}

// Genesis encodes each workload's rows once and patches them; the state
// must equal loading one separately encoded Value per row. The disk engine
// also takes the rows through its load cursor.
Result<Digest> GenesisDigest(const std::string& dir, Workload* w) {
  ReplicaOptions ro = MemOptions(dir);
  ro.in_memory = false;
  ro.disk = DiskModel::RamDisk();
  ro.pool_pages = 64;
  Replica r(ro);
  HARMONY_RETURN_NOT_OK(r.Open());
  HARMONY_RETURN_NOT_OK(w->Setup(r));
  return r.StateDigest();
}

Result<Digest> PerRowDigest(const std::string& dir,
                            const std::vector<std::pair<Key, Value>>& rows) {
  ReplicaOptions ro = MemOptions(dir);
  Replica r(ro);
  HARMONY_RETURN_NOT_OK(r.Open());
  for (const auto& [k, v] : rows) HARMONY_RETURN_NOT_OK(r.LoadRow(k, v));
  return r.StateDigest();
}

TEST(Smallbank, GenesisDigestEqualsPerRowEncoding) {
  TempDir a("wl-sb-genesis"), b("wl-sb-rows");
  SmallbankConfig cfg;
  cfg.num_accounts = 700;
  SmallbankWorkload w(cfg);
  auto loaded = GenesisDigest(a.path(), &w);
  ASSERT_OK(loaded.status());
  std::vector<std::pair<Key, Value>> rows;
  for (uint64_t acct = 0; acct < cfg.num_accounts; acct++) {
    for (uint8_t table :
         {SmallbankWorkload::kSavings, SmallbankWorkload::kChecking}) {
      rows.emplace_back(MakeKey(table, acct),
                        Value({cfg.initial_balance},
                              std::string(cfg.payload_bytes, 'b')));
    }
  }
  auto expected = PerRowDigest(b.path(), rows);
  ASSERT_OK(expected.status());
  EXPECT_TRUE(*loaded == *expected);
}

TEST(Ycsb, GenesisDigestEqualsPerRowEncoding) {
  TempDir a("wl-ycsb-genesis"), b("wl-ycsb-rows");
  YcsbConfig cfg;
  cfg.num_keys = 1500;
  YcsbWorkload w(cfg);
  auto loaded = GenesisDigest(a.path(), &w);
  ASSERT_OK(loaded.status());
  std::vector<std::pair<Key, Value>> rows;
  for (uint64_t k = 0; k < cfg.num_keys; k++) {
    rows.emplace_back(MakeKey(YcsbWorkload::kTable, k),
                      Value({static_cast<int64_t>(k)},
                            std::string(cfg.payload_bytes, 'y')));
  }
  auto expected = PerRowDigest(b.path(), rows);
  ASSERT_OK(expected.status());
  EXPECT_TRUE(*loaded == *expected);
}

class TpccFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("wl-tpcc");
    replica_ = std::make_unique<Replica>(MemOptions(dir_->path()));
    ASSERT_OK(replica_->Open());
    TpccConfig cfg;
    cfg.warehouses = 2;
    cfg.items = 50;
    cfg.customers_per_district = 10;
    workload_ = std::make_unique<TpccWorkload>(cfg);
    ASSERT_OK(workload_->Setup(*replica_));
    orderer_ = std::make_unique<KafkaOrderer>("orderer-secret", NetworkModel{});
  }

  Status RunOne(TxnRequest t) {
    HARMONY_RETURN_NOT_OK(
        replica_->SubmitBlock(orderer_->SealBlock({std::move(t)}, 0)));
    return replica_->Drain();
  }

  int64_t Field(Key k, size_t f) {
    std::optional<Value> v;
    EXPECT_OK(replica_->Query(k, &v));
    EXPECT_TRUE(v.has_value());
    return v->field(f);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Replica> replica_;
  std::unique_ptr<TpccWorkload> workload_;
  std::unique_ptr<KafkaOrderer> orderer_;
};

TEST_F(TpccFixture, SetupCardinalities) {
  // 50 items + per warehouse: 1 wh + 50 stock + 10 districts + 100 customers.
  EXPECT_EQ(replica_->backend()->size(), 50 + 2 * (1 + 50 + 10 + 100));
}

TEST_F(TpccFixture, NewOrderCreatesOrderAndLines) {
  TxnRequest t;
  t.proc_id = TpccWorkload::kProcNewOrder;
  t.args.ints = {1, 1, 1, 2, /*item*/ 5, 1, 3, /*item*/ 7, 1, 2};
  ASSERT_OK(RunOne(std::move(t)));
  EXPECT_EQ(Field(TpccWorkload::DistrictKey(1, 1), 2), 2);  // next_o_id bumped
  EXPECT_EQ(Field(TpccWorkload::OrderKey(1, 1, 1), 3), 2);  // ol_cnt
  EXPECT_EQ(Field(TpccWorkload::OrderLineKey(1, 1, 1, 0), 0), 5);
  EXPECT_EQ(Field(TpccWorkload::OrderLineKey(1, 1, 1, 1), 2), 2);  // qty
  EXPECT_EQ(Field(TpccWorkload::CustomerKey(1, 1, 1), 4), 1);  // last order
}

TEST_F(TpccFixture, NewOrderInvalidItemRollsBack) {
  TxnRequest t;
  t.proc_id = TpccWorkload::kProcNewOrder;
  t.args.ints = {1, 1, 1, 1, /*bad item*/ 999, 1, 3};
  ASSERT_OK(RunOne(std::move(t)));
  EXPECT_EQ(replica_->protocol_stats().logic_aborted.load(), 1u);
  EXPECT_EQ(Field(TpccWorkload::DistrictKey(1, 1), 2), 1);  // untouched
}

TEST_F(TpccFixture, PaymentUpdatesYtdAndCustomer) {
  TxnRequest t;
  t.proc_id = TpccWorkload::kProcPayment;
  t.args.ints = {1, 2, 1, 2, 3, 500, 1};
  ASSERT_OK(RunOne(std::move(t)));
  EXPECT_EQ(Field(TpccWorkload::WarehouseKey(1), 0), 500);
  EXPECT_EQ(Field(TpccWorkload::DistrictKey(1, 2), 0), 500);
  EXPECT_EQ(Field(TpccWorkload::CustomerKey(1, 2, 3), 0), -1000 - 500);
  EXPECT_EQ(Field(TpccWorkload::CustomerKey(1, 2, 3), 2), 1);
  EXPECT_EQ(Field(TpccWorkload::HistoryKey(1, 2, 1), 0), 500);
}

TEST_F(TpccFixture, DeliveryAdvancesCursorAndPaysCustomer) {
  TxnRequest no;
  no.proc_id = TpccWorkload::kProcNewOrder;
  no.args.ints = {1, 1, 4, 1, /*item*/ 3, 1, 2};
  ASSERT_OK(RunOne(std::move(no)));

  TxnRequest del;
  del.proc_id = TpccWorkload::kProcDelivery;
  del.args.ints = {1, /*carrier*/ 7, /*districts*/ 10};
  ASSERT_OK(RunOne(std::move(del)));

  EXPECT_EQ(Field(TpccWorkload::DistrictKey(1, 1), 3), 2);  // cursor advanced
  EXPECT_EQ(Field(TpccWorkload::OrderKey(1, 1, 1), 2), 7);  // carrier stamped
  // Customer 4 got credited with the order total (= qty * price > 0).
  EXPECT_GT(Field(TpccWorkload::CustomerKey(1, 1, 4), 0), -1000);
  EXPECT_EQ(Field(TpccWorkload::CustomerKey(1, 1, 4), 3), 1);
}

TEST_F(TpccFixture, OrderStatusAndStockLevelRunClean) {
  TxnRequest no;
  no.proc_id = TpccWorkload::kProcNewOrder;
  no.args.ints = {2, 3, 5, 1, /*item*/ 9, 2, 4};
  ASSERT_OK(RunOne(std::move(no)));

  TxnRequest os;
  os.proc_id = TpccWorkload::kProcOrderStatus;
  os.args.ints = {2, 3, 5};
  ASSERT_OK(RunOne(std::move(os)));

  TxnRequest sl;
  sl.proc_id = TpccWorkload::kProcStockLevel;
  sl.args.ints = {2, 3, 100};
  ASSERT_OK(RunOne(std::move(sl)));
  EXPECT_EQ(replica_->protocol_stats().cc_aborted.load(), 0u);
  EXPECT_EQ(replica_->protocol_stats().logic_aborted.load(), 0u);
}

TEST_F(TpccFixture, MixedStreamCommitsUnderContention) {
  TpccConfig cfg;
  cfg.warehouses = 1;  // maximum contention
  cfg.items = 50;
  cfg.customers_per_district = 10;
  TpccWorkload hot(cfg);
  // Re-setup in a fresh replica for warehouse count 1.
  TempDir dir2("wl-tpcc-hot");
  Replica r(MemOptions(dir2.path()));
  ASSERT_OK(r.Open());
  ASSERT_OK(hot.Setup(r));
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  for (int b = 0; b < 10; b++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 8; i++) txns.push_back(hot.Next());
    ASSERT_OK(r.SubmitBlock(ord.SealBlock(std::move(txns), 0)));
  }
  ASSERT_OK(r.Drain());
  const auto& s = r.protocol_stats();
  EXPECT_GT(s.committed.load(), 0u);
  // District sequence integrity: next_o_id - 1 == committed NewOrders for
  // that district (every committed NewOrder bumps it exactly once).
  int64_t allocated = 0;
  for (uint32_t d = 1; d <= 10; d++) {
    std::optional<Value> v;
    ASSERT_OK(r.Query(TpccWorkload::DistrictKey(1, d), &v));
    allocated += v->field(2) - 1;
    EXPECT_GE(v->field(3), 1);           // delivery cursor valid
    EXPECT_LE(v->field(3), v->field(2)); // never beyond allocation
  }
  EXPECT_GT(allocated, 0);
}

TEST(TpccGenerator, MixRoughlyMatchesSpec) {
  TpccConfig cfg;
  TpccWorkload w(cfg);
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 5000;
  for (int i = 0; i < n; i++) {
    counts[w.Next().proc_id - TpccWorkload::kProcNewOrder]++;
  }
  EXPECT_NEAR(counts[0], n * 0.45, n * 0.03);  // NewOrder
  EXPECT_NEAR(counts[1], n * 0.43, n * 0.03);  // Payment
  EXPECT_NEAR(counts[2], n * 0.04, n * 0.02);  // OrderStatus
  EXPECT_NEAR(counts[3], n * 0.04, n * 0.02);  // Delivery
  EXPECT_NEAR(counts[4], n * 0.04, n * 0.02);  // StockLevel
}

TEST(TpccKeys, EncodingsAreDisjoint) {
  // Distinct logical rows map to distinct keys across the whole schema.
  std::set<Key> keys;
  for (int64_t w = 1; w <= 3; w++) {
    keys.insert(TpccWorkload::WarehouseKey(w));
    for (int64_t d = 1; d <= 10; d++) {
      keys.insert(TpccWorkload::DistrictKey(w, d));
      for (int64_t c = 1; c <= 5; c++) {
        keys.insert(TpccWorkload::CustomerKey(w, d, c));
      }
      for (int64_t o = 1; o <= 4; o++) {
        keys.insert(TpccWorkload::OrderKey(w, d, o));
        for (int64_t l = 0; l < 3; l++) {
          keys.insert(TpccWorkload::OrderLineKey(w, d, o, l));
        }
      }
      keys.insert(TpccWorkload::HistoryKey(w, d, 1));
    }
    for (int64_t i = 1; i <= 20; i++) {
      keys.insert(TpccWorkload::ItemKey(i));
      keys.insert(TpccWorkload::StockKey(w, i));
    }
  }
  const size_t expected = 3 * (1 + 10 * (1 + 5 + 4 * (1 + 3) + 1)) + 20 +
                          3 * 20;
  EXPECT_EQ(keys.size(), expected);
}

}  // namespace
}  // namespace harmony

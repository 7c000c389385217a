// The workload adapter: paper workloads run through the HarmonyBC facade
// with their real procedures, and a workload's genesis is a pure function
// of its configuration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "adapter.h"
#include "common/types.h"
#include "core/harmonybc.h"

namespace harmonybench {
namespace {

using harmony::HarmonyBC;
using harmony::ReceiptOutcome;
using harmony::TxnReceipt;
using harmony::TxnRequest;

constexpr uint64_t kWaitUs = 30'000'000;

class AdapterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("harmonybench-adapter-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// A node of `spec`'s system with the workload set up through the
  /// adapter. In-memory engine over a RAM disk keeps the test fast.
  std::unique_ptr<HarmonyBC> OpenNode(const WorkloadSpec& spec,
                                      const std::string& name,
                                      uint64_t seed) {
    HarmonyBC::Options o = spec.db;
    o.dir = (root_ / name).string();
    o.in_memory = true;
    o.disk = harmony::DiskModel::RamDisk();
    o.threads = 2;
    std::filesystem::create_directories(o.dir);
    auto db = HarmonyBC::Open(o);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    auto workload = MakeWorkload(spec, seed);
    EXPECT_TRUE(SetupWorkload(db->get(), workload.get(), spec.mix).ok());
    EXPECT_TRUE((*db)->Recover().ok());
    return std::move(*db);
  }

  static TxnReceipt SubmitAndWait(HarmonyBC* db, TxnRequest req) {
    auto session = db->OpenSession();
    TxnReceipt r;
    EXPECT_TRUE(session->Submit(std::move(req)).WaitFor(kWaitUs, &r));
    return r;
  }

  static int64_t Field0(HarmonyBC* db, harmony::Key key) {
    std::optional<harmony::Value> v;
    EXPECT_TRUE(db->Query(key, &v).ok());
    return v.has_value() ? v->field(0) : -1;
  }

  std::filesystem::path root_;
};

TEST_F(AdapterTest, SmallbankTxnCommitsWithRealProcedure) {
  const WorkloadSpec* spec = FindWorkload("smallbank_ssd");
  ASSERT_NE(spec, nullptr);
  auto db = OpenNode(*spec, "sb", 1);
  const harmony::Key checking =
      harmony::MakeKey(harmony::SmallbankWorkload::kChecking, 7);
  const int64_t before = Field0(db.get(), checking);

  TxnRequest deposit;
  deposit.proc_id = harmony::SmallbankWorkload::kProcDepositChecking;
  deposit.args.ints = {7, 55};
  const TxnReceipt r = SubmitAndWait(db.get(), deposit);
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(Field0(db.get(), checking), before + 55);
}

TEST_F(AdapterTest, YcsbTxnCommitsWithRealProcedure) {
  const WorkloadSpec* spec = FindWorkload("ycsb_contended_mem");
  ASSERT_NE(spec, nullptr);
  auto db = OpenNode(*spec, "ycsb", 1);
  // [op_count, (code, key, value)*]; code 1 is a blind UPDATE.
  TxnRequest update;
  update.proc_id = harmony::YcsbWorkload::kProcTxn;
  update.args.ints = {1, 1, 42, 777};
  const TxnReceipt r = SubmitAndWait(db.get(), update);
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(Field0(db.get(),
                   harmony::MakeKey(harmony::YcsbWorkload::kTable, 42)),
            777);
}

TEST_F(AdapterTest, GeneratedTxnsPassAdmission) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    auto db = OpenNode(spec, spec.name, 3);
    auto gen = MakeWorkload(spec, 3);
    for (int i = 0; i < 20; i++) {
      TxnRequest req = gen->Next();
      req.client_seq = 0;
      const TxnReceipt r = SubmitAndWait(db.get(), std::move(req));
      EXPECT_TRUE(r.outcome == ReceiptOutcome::kCommitted ||
                  r.outcome == ReceiptOutcome::kLogicAborted)
          << spec.name << ": " << r.status.ToString();
    }
  }
}

TEST_F(AdapterTest, SameSeedSameGenesisDigest) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    auto a = OpenNode(spec, spec.name + "-a", 9);
    auto b = OpenNode(spec, spec.name + "-b", 9);
    auto da = a->StateDigest();
    auto db = b->StateDigest();
    ASSERT_TRUE(da.ok() && db.ok());
    EXPECT_EQ(*da, *db) << spec.name;
  }
}

}  // namespace
}  // namespace harmonybench

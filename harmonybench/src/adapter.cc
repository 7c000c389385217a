#include "adapter.h"

#include "common/types.h"

namespace harmonybench {

using harmony::DiskModel;
using harmony::HarmonyBC;
using harmony::SmallbankWorkload;
using harmony::Status;
using harmony::YcsbWorkload;

namespace {

/// Options every workload shares; each spec then overrides what it varies.
HarmonyBC::Options BaseOptions() {
  HarmonyBC::Options o;
  o.protocol = harmony::DccKind::kHarmony;
  o.block_size = 100;
  o.checkpoint_every = 10;
  // A seal deadline is required for an open loop: without one a partial
  // block seals only on Sync and the tail of the schedule would stall.
  o.max_block_delay_us = 2'000;
  o.mempool_capacity = 1 << 16;
  return o;
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> all;

  // Disk-bound: the paper's disk-oriented case. A 96-page pool (as in
  // Figure 21) holds a fraction of the ~20k-row state, so Simulate pays
  // modelled SSD page reads and every checkpoint pays a group flush.
  {
    WorkloadSpec w;
    w.name = "smallbank_ssd";
    w.mix = Mix::kSmallbank;
    w.smallbank.num_accounts = 10'000;
    w.smallbank.skew = 0.6;
    w.db = BaseOptions();
    w.db.in_memory = false;
    w.db.disk = DiskModel::Ssd();
    w.db.pool_pages = 96;
    // Execution workers sleep in modelled I/O, so the pool is sized above
    // the core count: one worker per device queue slot.
    w.db.threads = 16;
    // Closed loops keep a few blocks in flight rather than saturating the
    // host: saturated throughput tracks the CPU a shared host lends the
    // process and reads 2-4x apart from run to run.
    w.clients = 2;
    w.window = 32;
    w.offered_rate = 2'000;
    all.push_back(w);
  }

  // Contention-bound: YCSB at high skew plus Figure 14 hotspot rewriting.
  // The memory engine bypasses storage; DCC aborts, retries, reordering
  // and coalescing dominate.
  {
    WorkloadSpec w;
    w.name = "ycsb_contended_mem";
    w.mix = Mix::kYcsb;
    w.ycsb.num_keys = 10'000;
    w.ycsb.ops_per_txn = 10;
    w.ycsb.skew = 0.8;
    w.ycsb.hotspot_prob = 0.2;
    w.ycsb.hotspot_ratio = 0.01;
    w.db = BaseOptions();
    w.db.in_memory = true;
    w.db.disk = DiskModel::RamDisk();
    w.db.threads = 4;
    // The paper's YCSB block size; conflicts grow with it.
    w.db.block_size = 25;
    // Hot transactions retry many times; none may be dropped.
    w.db.max_txn_retries = 1'000;
    // Fewer txns in flight than a block holds: blocks seal on the deadline,
    // so throughput is useful commits per block, which the abort rate sets.
    w.clients = 2;
    w.window = 8;
    w.offered_rate = 900;
    all.push_back(w);
  }

  // Serving-path-bound: cheap uniform Smallbank over loopback NetClients
  // into a 3-node quorum-ack cluster; the pool holds the whole state.
  {
    WorkloadSpec w;
    w.name = "smallbank_wire_cluster3";
    w.mix = Mix::kSmallbank;
    w.smallbank.num_accounts = 10'000;
    w.smallbank.skew = 0.0;
    w.db = BaseOptions();
    w.db.in_memory = false;
    w.db.disk = DiskModel::RamDisk();
    w.db.pool_pages = 4096;
    w.db.threads = 4;
    // Open-loop blocks are small and frequent; a longer period keeps the
    // checkpoints (each with a real manifest fsync) off the serving path.
    w.db.checkpoint_every = 100;
    w.cluster = true;
    w.cluster_size = 3;
    w.reactor_threads = 2;
    w.net_batch_txns = 16;
    w.net_batch_delay_us = 200;
    // One NetClient has its own reader and flusher threads: one load
    // thread plus those two stays within a 4-core load budget.
    w.clients = 1;
    w.window = 64;
    w.offered_rate = 3'000;
    all.push_back(w);
  }
  return all;
}

Status Placeholder(harmony::TxnContext&, const harmony::ProcArgs&) {
  return Status::InvalidArgument(
      "placeholder procedure: Workload::Setup did not replace it");
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = BuildWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return harmony::Mix64(seed * 0x9e3779b97f4a7c15ULL + stream + 1);
}

std::unique_ptr<harmony::Workload> MakeWorkload(const WorkloadSpec& spec,
                                                uint64_t seed) {
  if (spec.mix == Mix::kSmallbank) {
    harmony::SmallbankConfig c = spec.smallbank;
    c.seed = seed;
    return std::make_unique<SmallbankWorkload>(c);
  }
  harmony::YcsbConfig c = spec.ycsb;
  c.seed = seed;
  return std::make_unique<YcsbWorkload>(c);
}

std::vector<uint32_t> ProcedureIds(Mix mix) {
  if (mix == Mix::kSmallbank) {
    return {SmallbankWorkload::kProcAmalgamate,
            SmallbankWorkload::kProcBalance,
            SmallbankWorkload::kProcDepositChecking,
            SmallbankWorkload::kProcSendPayment,
            SmallbankWorkload::kProcTransactSavings,
            SmallbankWorkload::kProcWriteCheck};
  }
  return {YcsbWorkload::kProcTxn};
}

Status SetupWorkload(HarmonyBC* db, harmony::Workload* workload, Mix mix) {
  for (uint32_t id : ProcedureIds(mix)) {
    db->RegisterProcedure(id, "placeholder", Placeholder);
  }
  return workload->Setup(*db->replica());
}

}  // namespace harmonybench

#include "bench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "core/harmonybc.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace harmony {
namespace bench {

double Scale() {
  const char* s = std::getenv("HARMONY_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

size_t ScaledTxns(size_t base) {
  const size_t n = static_cast<size_t>(static_cast<double>(base) * Scale());
  return n < 100 ? 100 : n;
}

SystemSpec HarmonySpec() { return {"HarmonyBC", DccKind::kHarmony, {}, false}; }
SystemSpec AriaSpec() { return {"AriaBC", DccKind::kAria, {}, false}; }
SystemSpec RbcSpec() { return {"RBC", DccKind::kRbc, {}, false}; }
SystemSpec FabricSpec() { return {"Fabric", DccKind::kFabric, {}, true}; }
SystemSpec FastFabricSpec() {
  return {"FastFabric#", DccKind::kFastFabric, {}, true};
}

std::vector<SystemSpec> AllSystems() {
  return {FabricSpec(), FastFabricSpec(), RbcSpec(), AriaSpec(),
          HarmonySpec()};
}

std::vector<SystemSpec> RelationalSystems() {
  return {RbcSpec(), AriaSpec(), HarmonySpec()};
}

namespace {

/// The paper's default deployment: four replicas behind a Kafka orderer.
constexpr uint32_t kModelledReplicas = 4;
/// CC-abort resubmissions per transaction before its receipt is dropped.
constexpr uint32_t kMaxTxnRetries = 20;
/// Unresolved receipts the driver allows, in blocks: enough to keep the
/// deepest pipeline busy (HarmonyBC's inter-block snapshot lag of two, the
/// block being sealed and the one filling). The driver refills the window
/// a block at a time, so it wakes once per block rather than per receipt.
constexpr size_t kWindowBlocks = 4;
// The driver waits while more than (window - 1 block) receipts are open. At
// least one full block must then be sealable, or retries alone (which never
// fill a block) would wait forever for a seal.
static_assert(kWindowBlocks >= 2, "a 1-block window can stall on retries");

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

Status Unset(TxnContext&, const ProcArgs&) {
  return Status::InvalidArgument("procedure not installed by Workload::Setup");
}

/// The procedure ids a workload's stream submits. Admission learns them
/// through HarmonyBC::RegisterProcedure; Workload::Setup then installs the
/// real bodies on the replica.
std::vector<uint32_t> ProcedureIds(const Workload& w) {
  if (dynamic_cast<const SmallbankWorkload*>(&w) != nullptr) {
    return {SmallbankWorkload::kProcAmalgamate, SmallbankWorkload::kProcBalance,
            SmallbankWorkload::kProcDepositChecking,
            SmallbankWorkload::kProcSendPayment,
            SmallbankWorkload::kProcTransactSavings,
            SmallbankWorkload::kProcWriteCheck};
  }
  if (dynamic_cast<const YcsbWorkload*>(&w) != nullptr) {
    return {YcsbWorkload::kProcTxn};
  }
  if (dynamic_cast<const TpccWorkload*>(&w) != nullptr) {
    return {TpccWorkload::kProcNewOrder, TpccWorkload::kProcPayment,
            TpccWorkload::kProcOrderStatus, TpccWorkload::kProcDelivery,
            TpccWorkload::kProcStockLevel};
  }
  return {};
}

Result<RunReport> Measure(const BenchParams& params, Workload* workload,
                          const std::string& dir) {
  HarmonyBC::Options o;
  o.dir = dir;
  o.protocol = params.system.kind;
  o.dcc = params.system.cfg;
  o.dcc.enable_false_abort_oracle = params.false_abort_oracle;
  o.in_memory = params.in_memory;
  o.disk = params.disk;
  o.pool_pages = params.pool_pages;
  o.threads = params.threads;
  o.block_size = params.block_size;
  o.max_txn_retries = kMaxTxnRetries;
  auto opened = HarmonyBC::Open(o);
  HARMONY_RETURN_NOT_OK(opened.status());
  std::unique_ptr<HarmonyBC> db = std::move(*opened);
  for (uint32_t id : ProcedureIds(*workload)) {
    db->RegisterProcedure(id, "unset", Unset);
  }
  HARMONY_RETURN_NOT_OK(workload->Setup(*db->replica()));
  // On a fresh chain Recover() checkpoints the genesis state, so the
  // measured phase starts disk-resident and pays real buffer-pool misses.
  HARMONY_RETURN_NOT_OK(db->Recover().status());

  const uint64_t window = kWindowBlocks * params.block_size;
  const uint64_t refill_at = window - params.block_size;
  std::mutex mu;
  std::condition_variable freed;
  uint64_t submitted = 0;  // guarded by mu, like everything below
  uint64_t resolved = 0;
  uint64_t committed = 0;
  uint64_t latency_sum_us = 0;
  const ReceiptCallback on_receipt = [&](const TxnReceipt& r) {
    bool wake;
    {
      std::lock_guard<std::mutex> lk(mu);
      resolved++;
      if (r.outcome == ReceiptOutcome::kCommitted) {
        committed++;
        latency_sum_us += r.latency_us;
      }
      wake = submitted - resolved <= refill_at;
    }
    if (wake) freed.notify_one();
  };

  auto session = db->OpenSession();
  const double cpu_before = ProcessCpuSeconds();
  Timer wall;
  for (;;) {
    uint64_t n;
    {
      std::unique_lock<std::mutex> lk(mu);
      if (submitted == params.total_txns) break;
      freed.wait(lk, [&] { return submitted - resolved <= refill_at; });
      n = std::min<uint64_t>(window - (submitted - resolved),
                             params.total_txns - submitted);
      submitted += n;
    }
    // Rejections resolve synchronously on this thread, so `mu` is released
    // before submitting.
    std::vector<TxnRequest> batch(n);
    for (TxnRequest& t : batch) t = workload->Next();
    session->SubmitBatch(std::move(batch), on_receipt);
  }
  HARMONY_RETURN_NOT_OK(db->Sync());
  const double wall_s = wall.ElapsedSeconds();
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  if (const uint64_t rejected = session->stats().rejected.load();
      rejected > 0) {
    return Status::Aborted(std::to_string(rejected) + " of " +
                           std::to_string(params.total_txns) +
                           " submissions rejected by admission");
  }

  RunReport rep;
  {
    std::lock_guard<std::mutex> lk(mu);
    rep.exec_tps = static_cast<double>(committed) / wall_s;
    rep.mean_latency_ms =
        committed > 0 ? static_cast<double>(latency_sum_us) /
                            static_cast<double>(committed) / 1e3
                      : 0;
  }
  const ProtocolStats& ps = db->stats();
  rep.abort_rate = ps.abort_rate();
  rep.false_abort_rate = ps.false_abort_rate();
  rep.dangerous_hit_rate = ps.dangerous_hit_rate();
  // Relative to the cores actually available: simulated I/O sleeps release
  // the CPU, so idle gaps show up here as they would in the paper's
  // CPU-utilization row (Figure 20).
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  rep.cpu_util = std::min(1.0, cpu_s / (wall_s * cores));

  NetworkModel net;
  net.nodes = kModelledReplicas;
  net.bandwidth_gbps = params.bandwidth_gbps;
  const KafkaOrderer kafka("orderer", net);
  rep.end_to_end = BehindOrderer(
      rep.exec_tps, rep.mean_latency_ms,
      kafka.Profile(params.block_size, workload->avg_txn_bytes()), net,
      params.system.sov ? workload->avg_rwset_bytes() : 0);
  return rep;
}

}  // namespace

EndToEnd BehindOrderer(double exec_tps, double exec_latency_ms,
                       const ConsensusProfile& prof, const NetworkModel& net,
                       size_t sov_rwset_bytes) {
  EndToEnd e;
  e.tps = std::min(exec_tps, prof.max_txns_per_sec);
  e.latency_ms =
      exec_latency_ms + static_cast<double>(prof.block_latency_us) / 1e3;
  if (sov_rwset_bytes > 0) {
    const double per_txn_us =
        static_cast<double>(net.TransferUs(sov_rwset_bytes * net.nodes));
    if (per_txn_us > 0) e.tps = std::min(e.tps, 1e6 / per_txn_us);
    e.latency_ms += 2.0 * static_cast<double>(net.lan_one_way_us) / 1e3;
  }
  return e;
}

Result<RunReport> RunPoint(
    const BenchParams& params,
    const std::function<std::unique_ptr<Workload>()>& make_workload) {
  static int run_counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("harmony-bench-" + std::to_string(::getpid()) + "-" +
        std::to_string(run_counter++)))
          .string();
  std::filesystem::create_directories(dir);
  std::unique_ptr<Workload> workload = make_workload();
  Result<RunReport> report = Measure(params, workload.get(), dir);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return report;
}

namespace {
// Cells pad to 14 columns; a cell that is already that wide still gets a
// two-space separator instead of running into the next column.
void PrintCell(const std::string& c) {
  if (c.size() >= 14) {
    std::printf("%s  ", c.c_str());
  } else {
    std::printf("%-14s", c.c_str());
  }
}
}  // namespace

void PrintHeader(const std::string& title,
                 const std::vector<std::string>& cols) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& c : cols) PrintCell(c);
  std::printf("\n");
  for (size_t i = 0; i < cols.size(); i++) std::printf("%-14s", "------------");
  std::printf("\n");
  std::fflush(stdout);
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const auto& c : cells) PrintCell(c);
  std::printf("\n");
  std::fflush(stdout);
}

std::string Fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

}  // namespace bench
}  // namespace harmony

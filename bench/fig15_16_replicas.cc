// Figures 15 & 16: impact of the number of replicas (cloud cluster, LAN).
// OE systems (HarmonyBC / AriaBC / RBC) only receive small command blocks,
// so their throughput is flat in the replica count; SOV systems ship signed
// read-write sets to every replica and degrade. Execution throughput is
// measured once per system; the per-N network ceilings come from the
// cluster's network model (Section 1 substitution table in DESIGN.md).
//
// --wire swaps the analytic sweep for a ground-truth check: it spawns a
// real N-process harmonyd cluster (leader + --join followers over the
// wire REPLICATE/ACK frames, quorum-ack receipts; docs/REPLICATION.md),
// drives the leader with blind increments, and prints the measured
// cluster throughput/latency next to the Kafka orderer model's columns
// for the same N — the model the analytic figures lean on, validated
// against actual processes and sockets.
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "bench/cluster_util.h"
#include "bench/harness.h"
#include "common/rng.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

using namespace harmony;
using namespace harmony::bench;

namespace {

int RunFigure(const std::string& title,
              const std::function<std::unique_ptr<Workload>()>& mk,
              size_t txns) {
  PrintHeader(title, {"replicas", "system", "txns/s", "lat_ms"});
  auto workload_meta = mk();
  for (const SystemSpec& sys : AllSystems()) {
    BenchParams p;
    p.system = sys;
    p.total_txns = ScaledTxns(txns);
    p.bandwidth_gbps = 5.0;  // cloud cluster NICs
    auto base = RunPoint(p, mk);
    if (!base.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", sys.label.c_str(),
                   base.status().ToString().c_str());
      return 1;
    }
    for (uint32_t n : {4u, 20u, 40u, 60u, 80u}) {
      NetworkModel net;
      net.nodes = n;
      net.bandwidth_gbps = p.bandwidth_gbps;
      const KafkaOrderer ord("s", net);
      const EndToEnd e = BehindOrderer(
          base->exec_tps, base->mean_latency_ms,
          ord.Profile(p.block_size, workload_meta->avg_txn_bytes()), net,
          sys.sov ? workload_meta->avg_rwset_bytes() : 0);
      PrintRow({std::to_string(n), sys.label, Fmt(e.tps, 0),
                Fmt(e.latency_ms, 1)});
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --wire: real multi-process cluster vs the orderer model.
// ---------------------------------------------------------------------------

struct WireLoadResult {
  double wall_s = 0;
  uint64_t committed = 0;
  double p50_ms = 0;  ///< submit -> committed receipt (bucket estimate)
};

/// Open-loop blind increments against the leader: coalesced BATCH_SUBMITs
/// under a bounded per-connection window.
WireLoadResult DriveLeader(uint16_t port, size_t conns, size_t per_conn,
                           size_t window) {
  WireLoadResult res;
  std::atomic<uint64_t> committed{0};
  obs::LatencyHistogram latency_us;
  Timer wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; c++) {
    threads.emplace_back([&, c] {
      net::NetClientOptions co;
      co.port = port;
      co.batch_max_txns = 16;
      co.batch_max_delay_us = 200;
      auto client = net::NetClient::Connect(co);
      if (!client.ok()) return;
      Rng rng(17 * (c + 1));
      for (size_t i = 0; i < per_conn; i++) {
        while ((*client)->stats().inflight.load(std::memory_order_acquire) >=
               window) {
          std::this_thread::yield();
        }
        TxnRequest t;
        t.proc_id = 2;  // increment(key, delta); keys match genesis accounts
        t.args.ints = {rng.UniformRange(0, 1023), 1};
        (*client)->Submit(std::move(t), [&](const TxnReceipt& r) {
          if (r.outcome == ReceiptOutcome::kCommitted) {
            committed.fetch_add(1, std::memory_order_relaxed);
            latency_us.Record(r.latency_us);
          }
        });
      }
      (void)(*client)->Sync(/*timeout_us=*/60'000'000);
    });
  }
  for (auto& t : threads) t.join();
  res.wall_s = wall.ElapsedSeconds();
  res.committed = committed.load();
  res.p50_ms = latency_us.Snap().Percentile(50) / 1e3;
  return res;
}

int RunWireFigure(const std::string& harmonyd_flag) {
  const std::string harmonyd =
      harmonyd_flag.empty() ? DefaultHarmonydPath() : harmonyd_flag;
  if (!std::filesystem::exists(harmonyd)) {
    std::fprintf(stderr,
                 "wire: harmonyd binary not found at %s "
                 "(build it, or pass --harmonyd PATH)\n",
                 harmonyd.c_str());
    return 1;
  }
  // The model columns use the same block size harmonyd serves with (100)
  // and the rough wire footprint of a blind increment SUBMIT.
  constexpr size_t kBlockSize = 100;
  constexpr size_t kAvgTxnBytes = 96;
  const size_t conns = 8;
  const size_t per_conn = ScaledTxns(400);

  PrintHeader(
      "Figures 15/16 ground truth: real N-process cluster over wire "
      "REPLICATE/ACK (quorum-ack receipts, blind increments, " +
          std::to_string(conns) + " conns x " + std::to_string(per_conn) +
          " txns) next to the Kafka orderer network model for the same N",
      {"replicas", "model ktxn/s", "model blk lat ms", "wire ktxn/s",
       "wire p50 ms", "committed"});

  for (uint32_t n : {2u, 3u, 5u}) {
    NetworkModel net;
    net.nodes = n;
    net.bandwidth_gbps = 5.0;
    KafkaOrderer ord("s", net);
    const ConsensusProfile prof = ord.Profile(kBlockSize, kAvgTxnBytes);

    const std::string root =
        (std::filesystem::temp_directory_path() /
         ("harmony-fig15-wire-" + std::to_string(::getpid()) + "-n" +
          std::to_string(n)))
            .string();
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    std::vector<NodeProc> nodes(n);
    nodes[0].name = "leader";
    nodes[0].dir = root + "/leader";
    nodes[0].log = root + "/leader.log";
    nodes[0].role_flags = {"--leader", std::to_string(n), "--quorum-ack"};
    SpawnNode(harmonyd, &nodes[0]);
    nodes[0].port = WaitForServePort(nodes[0], 15.0);
    const std::string leader_addr =
        "127.0.0.1:" + std::to_string(nodes[0].port);
    for (uint32_t i = 1; i < n; i++) {
      nodes[i].name = "follower-" + std::to_string(i);
      nodes[i].dir = root + "/" + nodes[i].name;
      nodes[i].log = root + "/" + nodes[i].name + ".log";
      nodes[i].role_flags = {"--join", leader_addr, "--node", nodes[i].name};
      SpawnNode(harmonyd, &nodes[i]);
      nodes[i].port = WaitForServePort(nodes[i], 15.0);
    }

    const WireLoadResult r =
        DriveLeader(nodes[0].port, conns, per_conn, /*window=*/256);

    for (size_t i = nodes.size(); i-- > 0;) ::kill(nodes[i].pid, SIGTERM);
    bool clean = true;
    for (const NodeProc& node : nodes) {
      if (WaitExit(node.pid, 30.0) != 0) {
        std::fprintf(stderr, "wire: %s exited dirty (log %s)\n",
                     node.name.c_str(), node.log.c_str());
        clean = false;
      }
    }
    if (!clean || r.committed == 0) {
      std::fprintf(stderr, "wire: N=%u run failed; logs under %s\n", n,
                   root.c_str());
      return 1;
    }

    PrintRow({std::to_string(n), Fmt(prof.max_txns_per_sec / 1e3, 1),
              Fmt(static_cast<double>(prof.block_latency_us) / 1e3, 2),
              Fmt(r.wall_s > 0
                      ? static_cast<double>(r.committed) / r.wall_s / 1e3
                      : 0,
                  1),
              Fmt(r.p50_ms, 2),
              std::to_string(r.committed)});
    std::filesystem::remove_all(root);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool wire = false;
  std::string harmonyd_path;
  for (int i = 1; i < argc; i++) {
    if (!std::strcmp(argv[i], "--wire")) wire = true;
    else if (!std::strcmp(argv[i], "--harmonyd") && i + 1 < argc) harmonyd_path = argv[++i];
    else { std::fprintf(stderr, "unknown flag %s\n", argv[i]); return 2; }
  }
  if (wire) return RunWireFigure(harmonyd_path);

  auto sb = [] {
    SmallbankConfig c;
    c.skew = 0.6;
    return std::make_unique<SmallbankWorkload>(c);
  };
  if (RunFigure("Figure 15: replica sweep, Smallbank", sb, 2000) != 0) {
    return 1;
  }
  auto ycsb = [] {
    YcsbConfig c;
    c.skew = 0.6;
    return std::make_unique<YcsbWorkload>(c);
  };
  return RunFigure("Figure 16: replica sweep, YCSB", ycsb, 1500);
}

// Figures 17 & 18: HarmonyBC under BFT consensus (HotStuff) vs crash-fault
// Kafka, scaling consensus nodes from 4 (single region) to 80 (four
// continents). Execution throughput is measured once; consensus latency and
// ceilings come from the HotStuff/Kafka profiles over the WAN matrix.
#include "bench/harness.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

using namespace harmony;
using namespace harmony::bench;

namespace {

int RunFigure(const std::string& title,
              const std::function<std::unique_ptr<Workload>()>& mk,
              size_t txns) {
  PrintHeader(title, {"nodes", "consensus", "txns/s", "lat_ms"});
  auto meta = mk();
  BenchParams p;
  p.system = HarmonySpec();
  p.total_txns = ScaledTxns(txns);
  p.bandwidth_gbps = 5.0;
  auto base = RunPoint(p, mk);
  if (!base.ok()) {
    std::fprintf(stderr, "failed: %s\n", base.status().ToString().c_str());
    return 1;
  }
  for (uint32_t n : {4u, 20u, 40u, 60u, 80u}) {
    NetworkModel net;
    net.nodes = n;
    net.bandwidth_gbps = 5.0;
    net.wan = n > 20;  // the first 20 instances share a region (Section 5.5)
    HotStuffOrderer hs("s", net);
    KafkaOrderer kafka("s", net);
    for (const auto* which : {"BFT", "Kafka"}) {
      const ConsensusProfile prof =
          std::string(which) == "BFT"
              ? hs.Profile(p.block_size, meta->avg_txn_bytes())
              : kafka.Profile(p.block_size, meta->avg_txn_bytes());
      const EndToEnd e = BehindOrderer(base->exec_tps, base->mean_latency_ms,
                                       prof, net, /*sov_rwset_bytes=*/0);
      PrintRow({std::to_string(n), which, Fmt(e.tps, 0),
                Fmt(e.latency_ms, 1)});
    }
  }
  return 0;
}

}  // namespace

int main() {
  auto sb = [] {
    SmallbankConfig c;
    c.skew = 0.6;
    return std::make_unique<SmallbankWorkload>(c);
  };
  if (RunFigure("Figure 17: BFT vs Kafka, Smallbank (HarmonyBC)", sb, 2000) !=
      0) {
    return 1;
  }
  auto ycsb = [] {
    YcsbConfig c;
    c.skew = 0.6;
    return std::make_unique<YcsbWorkload>(c);
  };
  return RunFigure("Figure 18: BFT vs Kafka, YCSB (HarmonyBC)", ycsb, 1500);
}

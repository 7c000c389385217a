// Figure 19: TPC-C warehouse sweep (1 warehouse = highest contention).
// Fabric / FastFabric# are excluded: no relational model, as in the paper.
#include "bench/harness.h"
#include "workload/tpcc.h"

using namespace harmony;
using namespace harmony::bench;

int main() {
  PrintHeader("Figure 19: TPC-C warehouse sweep",
              {"warehouses", "system", "txns/s", "lat_ms", "abort"});
  for (uint32_t wh : {1u, 20u, 40u, 60u, 80u}) {
    auto mk = [wh] {
      TpccConfig c;
      c.warehouses = wh;
      return std::make_unique<TpccWorkload>(c);
    };
    for (const SystemSpec& sys : RelationalSystems()) {
      BenchParams p;
      p.system = sys;
      p.block_size = sys.kind == DccKind::kRbc ? 10 : 25;
      p.total_txns = ScaledTxns(800);
      p.pool_pages = 512;  // TPC-C working set is larger
      auto r = RunPoint(p, mk);
      if (!r.ok()) {
        std::fprintf(stderr, "%s @ %u failed: %s\n", sys.label.c_str(), wh,
                     r.status().ToString().c_str());
        return 1;
      }
      PrintRow({std::to_string(wh), sys.label, Fmt(r->end_to_end.tps, 0),
                Fmt(r->end_to_end.latency_ms, 1), Fmt(r->abort_rate, 3)});
    }
  }
  return 0;
}

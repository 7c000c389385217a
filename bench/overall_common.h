#pragma once

// Shared driver for the "overall performance" and sweep figures: runs every
// system at one parameter point and prints throughput + latency (+ abort
// rates when requested).
#include "bench/harness.h"

namespace harmony {
namespace bench {

struct SweepOptions {
  bool print_aborts = false;
  bool print_false_aborts = false;
  size_t txns_per_point = 2000;
  size_t pool_pages = 96;
  size_t threads = 8;
};

template <typename MakeWorkload>
inline int RunSystemsAtPoint(const std::string& point_label,
                             const std::vector<SystemSpec>& systems,
                             size_t block_size, const MakeWorkload& mk,
                             const SweepOptions& opt) {
  for (const SystemSpec& sys : systems) {
    BenchParams p;
    p.system = sys;
    p.block_size = block_size;
    p.total_txns = ScaledTxns(opt.txns_per_point);
    p.pool_pages = opt.pool_pages;
    p.threads = opt.threads;
    p.false_abort_oracle = opt.print_false_aborts;
    auto r = RunPoint(p, mk);
    if (!r.ok()) {
      std::fprintf(stderr, "%s @ %s failed: %s\n", sys.label.c_str(),
                   point_label.c_str(), r.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> row = {point_label, sys.label,
                                    Fmt(r->end_to_end.tps, 0),
                                    Fmt(r->end_to_end.latency_ms, 1)};
    if (opt.print_aborts) row.push_back(Fmt(r->abort_rate, 3));
    if (opt.print_false_aborts) row.push_back(Fmt(r->false_abort_rate, 3));
    PrintRow(row);
  }
  return 0;
}

}  // namespace bench
}  // namespace harmony

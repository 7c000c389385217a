#pragma once

#include <cstdint>

namespace harmony {
namespace obs {

/// Per-transaction lifecycle stamps, threaded through the ingest path
/// alongside the request itself (TxnRequest::trace). In-process only: the
/// block codec and the wire never serialize these — a replica stamps its
/// own clocks. Zero means "stage not reached (or tracing off)".
///
/// Block-scoped stages (seal / execute / commit) are recorded per block by
/// the sealer and replica; these two per-txn stamps are what the
/// completion path needs to split a receipt's latency into queue wait
/// (admit -> lane dequeue) and commit lag (lane dequeue -> resolution).
struct TraceClock {
  uint64_t admit_us = 0;    ///< stamped by HarmonyBC's admission path
  uint64_t dequeue_us = 0;  ///< stamped by the sealer after Mempool::TakeBatch
};

}  // namespace obs
}  // namespace harmony

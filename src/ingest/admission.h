#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/spin_lock.h"
#include "common/status.h"
#include "txn/procedure.h"

namespace harmony {

/// Admission-control knobs.
struct AdmissionOptions {
  /// Token-bucket refill rate per client, in transactions per second.
  /// 0 disables rate limiting.
  double rate_per_client_tps = 0;
  /// Bucket depth (max burst). 0 defaults to one second of refill.
  double burst = 0;
  size_t max_args = 256;           ///< max positional ints per request
  size_t max_blob_bytes = 1 << 20; ///< max opaque payload size
};

/// Ingress counters, exported through HarmonyBC. Queue depth is read live
/// from the mempool; everything else accumulates here.
struct IngestStats {
  std::atomic<uint64_t> submitted{0};      ///< Submit() calls seen
  std::atomic<uint64_t> admitted{0};       ///< entered the mempool
  std::atomic<uint64_t> duplicates{0};     ///< dedup rejections
  std::atomic<uint64_t> rejected{0};       ///< failed validation
  std::atomic<uint64_t> rate_limited{0};   ///< token bucket empty
  std::atomic<uint64_t> backpressured{0};  ///< mempool full -> Busy
  std::atomic<uint64_t> retries_enqueued{0};  ///< CC aborts re-admitted
  std::atomic<uint64_t> retries_dropped{0};   ///< exceeded max_txn_retries
  std::atomic<uint64_t> sealed_blocks{0};
  std::atomic<uint64_t> sealed_txns{0};
  std::atomic<uint64_t> size_seals{0};      ///< blocks cut because full
  std::atomic<uint64_t> deadline_seals{0};  ///< blocks cut by the deadline
  std::atomic<uint64_t> flush_seals{0};     ///< blocks cut by Sync()/Flush
  std::atomic<uint64_t> sealed_retry_txns{0};  ///< drained from retry lane
};

/// Validates and rate-limits transactions before they reach the mempool.
///
/// Validation is structural (known procedure, bounded argument sizes);
/// anything deeper belongs to the procedure itself at execution time.
/// Rate limiting is a classic token bucket per client_id, lazily refilled
/// from the submit timestamp, under a striped spin lock so concurrent
/// clients rarely contend.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions opts);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Registers a procedure id as valid (mirrors Replica::RegisterProcedure).
  void AllowProcedure(uint32_t proc_id);

  /// Checks one transaction. Returns:
  ///  - OK               -> pass it to the mempool;
  ///  - InvalidArgument  -> malformed (unknown procedure, oversized args);
  ///  - Busy             -> client over its rate limit (retry later).
  /// `now_us` is the admission clock (token refill reference).
  Status Admit(const TxnRequest& req, uint64_t now_us);

  IngestStats* stats() { return &stats_; }
  const IngestStats& stats() const { return stats_; }

 private:
  struct Bucket {
    double tokens = 0;
    uint64_t last_refill_us = 0;
  };
  struct BucketShard {
    SpinLock mu;
    std::unordered_map<uint64_t, Bucket> buckets;
  };
  static constexpr size_t kBucketShards = 16;  ///< power of two

  AdmissionOptions opts_;
  IngestStats stats_;

  SpinLock procs_mu_;
  std::unordered_set<uint32_t> procs_;

  BucketShard bucket_shards_[kBucketShards];
};

}  // namespace harmony

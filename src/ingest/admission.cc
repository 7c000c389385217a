#include "ingest/admission.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "common/types.h"

namespace harmony {

AdmissionController::AdmissionController(AdmissionOptions opts)
    : opts_(opts) {
  if (opts_.rate_per_client_tps > 0) {
    if (opts_.burst <= 0) {
      opts_.burst = opts_.rate_per_client_tps;  // one second of refill
    }
    // A bucket shallower than one token could never admit anything (a
    // fractional rate caps refills below the admission threshold).
    opts_.burst = std::max(1.0, opts_.burst);
  }
}

void AdmissionController::AllowProcedure(uint32_t proc_id) {
  std::lock_guard<SpinLock> lk(procs_mu_);
  procs_.insert(proc_id);
}

Status AdmissionController::Admit(const TxnRequest& req, uint64_t now_us) {
  if (req.args.ints.size() > opts_.max_args) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("too many txn arguments (" +
                                   std::to_string(req.args.ints.size()) + ")");
  }
  if (req.args.blob.size() > opts_.max_blob_bytes) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("txn payload too large (" +
                                   std::to_string(req.args.blob.size()) +
                                   " bytes)");
  }
  {
    std::lock_guard<SpinLock> lk(procs_mu_);
    if (procs_.find(req.proc_id) == procs_.end()) {
      stats_.rejected.fetch_add(1, std::memory_order_relaxed);
      return Status::InvalidArgument("unknown procedure id " +
                                     std::to_string(req.proc_id));
    }
  }

  if (opts_.rate_per_client_tps > 0) {
    BucketShard& shard =
        bucket_shards_[Mix64(req.client_id) & (kBucketShards - 1)];
    std::lock_guard<SpinLock> lk(shard.mu);
    Bucket& b = shard.buckets[req.client_id];
    if (b.last_refill_us == 0) {
      b.tokens = opts_.burst;  // new client starts with a full bucket
      b.last_refill_us = now_us;
    } else if (now_us > b.last_refill_us) {
      const double elapsed_s =
          static_cast<double>(now_us - b.last_refill_us) / 1e6;
      b.tokens = std::min(opts_.burst,
                          b.tokens + elapsed_s * opts_.rate_per_client_tps);
      b.last_refill_us = now_us;
    }
    if (b.tokens < 1.0) {
      stats_.rate_limited.fetch_add(1, std::memory_order_relaxed);
      return Status::Busy("client " + std::to_string(req.client_id) +
                          " over its admission rate");
    }
    b.tokens -= 1.0;
  }
  return Status::OK();
}

}  // namespace harmony

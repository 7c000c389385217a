#include "ingest/mempool.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "common/clock.h"

namespace harmony {

Mempool::Mempool(MempoolOptions opts) : opts_(opts) {
  const size_t n = RoundUpPow2(std::max<size_t>(1, opts_.shards));
  shard_mask_ = n - 1;
  dedup_per_shard_ =
      opts_.dedup_window == 0 ? 0 : std::max<size_t>(1, opts_.dedup_window / n);

  std::array<size_t, kNumLanes> caps;
  if (opts_.ring_capacity != 0) {
    caps.fill(opts_.ring_capacity);
  } else {
    // 2x the uniform per-shard share, so one lane absorbing *all* traffic
    // still has ring headroom beyond the global capacity bound. Rings
    // reserve their slots up front (shards * lanes * cap cells of address
    // space, resident only once filled), so the derived size is capped,
    // and lanes that cannot carry full traffic get small rings: with fee
    // promotion off the high lane is reachable only through an explicit
    // lane, and the low lane is a weight-1 trickle by design. A pool whose
    // capacity outruns the cap leans on
    // ring-full Busy under extreme single-lane skew; callers with measured
    // needs set ring_capacity explicitly.
    const size_t base = std::clamp<size_t>(
        RoundUpPow2((2 * opts_.capacity) / n), 64, 4096);
    caps[static_cast<size_t>(IngestLane::kHigh)] =
        opts_.high_fee_threshold != 0 ? base : 64;
    caps[static_cast<size_t>(IngestLane::kNormal)] = base;
    caps[static_cast<size_t>(IngestLane::kLow)] =
        std::max<size_t>(64, base / 4);
  }
  shards_.reserve(n);
  for (size_t i = 0; i < n; i++) {
    shards_.push_back(std::make_unique<Shard>(caps));
  }
}

size_t Mempool::ring_capacity() const {
  return shards_[0]->lanes[static_cast<size_t>(IngestLane::kNormal)].capacity();
}

size_t Mempool::AddBatch(std::vector<TxnRequest>* reqs,
                         const std::vector<IngestLane>& lanes,
                         std::vector<Status>* statuses) {
  const size_t n = reqs->size();
  statuses->assign(n, Status::OK());
  // One CAS reserves capacity for as much of the batch as fits; the
  // shortfall lands on the trailing requests as Busy.
  size_t granted = 0;
  size_t cur = size_.load(std::memory_order_relaxed);
  do {
    granted = cur < opts_.capacity
                  ? std::min(n, opts_.capacity - cur)
                  : 0;
    if (granted == 0) break;
  } while (!size_.compare_exchange_weak(cur, cur + granted,
                                        std::memory_order_relaxed));

  size_t slots = granted;
  size_t enqueued = 0;
  for (size_t i = 0; i < n; i++) {
    if (slots == 0) {
      (*statuses)[i] =
          Status::Busy("mempool full (" + std::to_string(cur) + " / " +
                       std::to_string(opts_.capacity) + ")");
      continue;
    }
    Status s = AddWithSlot(&(*reqs)[i], lanes[i]);
    if (s.ok()) {
      slots--;  // the slot is now owned by the enqueued request
      enqueued++;
    }
    (*statuses)[i] = std::move(s);
  }
  if (slots > 0) size_.fetch_sub(slots, std::memory_order_relaxed);
  return enqueued;
}

Status Mempool::AddWithSlot(TxnRequest* req, IngestLane lane) {
  const bool dedup = req->client_seq != 0;
  const uint64_t key = DedupKey(*req);
  Shard& s = shard_for(key);
  if (dedup) {
    std::lock_guard<SpinLock> lk(s.dedup_mu);
    if (!s.seen.insert(key).second) {
      return Status::InvalidArgument(
          "duplicate transaction (client " + std::to_string(req->client_id) +
          ", seq " + std::to_string(req->client_seq) + ")");
    }
    if (dedup_per_shard_ != 0) {
      s.seen_fifo.push_back(key);
      if (s.seen_fifo.size() > dedup_per_shard_) {
        s.seen.erase(s.seen_fifo.front());
        s.seen_fifo.pop_front();
      }
    }
  }

  // The deadline anchor must be read before the push moves the request away.
  const uint64_t t =
      req->submit_time_us != 0 ? req->submit_time_us : NowMicros();
  const size_t li = static_cast<size_t>(lane);
  // Count into the lane *before* the push: the consumer can pop a pushed
  // item instantly, and its fetch_sub must never run ahead of this
  // fetch_add or the counter underflows to SIZE_MAX. Counting first keeps
  // the invariant "lane_size_ >= items actually poppable" at all times.
  if (lane_size_[li].fetch_add(1, std::memory_order_relaxed) == 0) {
    lane_since_us_[li].store(t, std::memory_order_relaxed);
  }
  if (!s.lanes[li].TryPush(*req)) {
    // Ring full (pathological shard/lane skew, or a deliberately tiny
    // ring). Roll the admission back so the client may retry: un-remember
    // the dedup key. The matching seen_fifo entry stays behind — if the key
    // is later re-admitted, that stale entry can age it out of the window
    // one eviction early, which only *narrows* the best-effort window.
    // A just-stored deadline anchor is deliberately left alone: clearing it
    // would race a concurrent producer's store, and a stale anchor merely
    // seals early once before the next empty->occupied transition resets it.
    lane_size_[li].fetch_sub(1, std::memory_order_relaxed);
    if (dedup) {
      std::lock_guard<SpinLock> lk(s.dedup_mu);
      s.seen.erase(key);
    }
    return Status::Busy(std::string("mempool shard ring full (") +
                        LaneName(lane) + " lane)");
  }
  return Status::OK();
}

void Mempool::AddRetry(TxnRequest req) {
  std::lock_guard<SpinLock> lk(retry_mu_);
  if (retry_q_.empty()) {
    retry_since_us_.store(NowMicros(), std::memory_order_relaxed);
  }
  retry_q_.push_back(std::move(req));
  retry_size_.fetch_add(1, std::memory_order_relaxed);
}

size_t Mempool::DrainLane(size_t lane, size_t quota,
                          std::vector<TxnRequest>* out) {
  if (quota == 0) return 0;
  const size_t n = shards_.size();
  const size_t start = lane_cursor_[lane].fetch_add(1, std::memory_order_relaxed);
  size_t taken = 0;
  TxnRequest req;
  for (size_t i = 0; i < n && taken < quota; i++) {
    MpscRing<TxnRequest>& ring = shards_[(start + i) & shard_mask_]->lanes[lane];
    while (taken < quota && ring.TryPop(&req)) {
      out->push_back(std::move(req));
      taken++;
    }
  }
  if (taken > 0) {
    if (lane_size_[lane].fetch_sub(taken, std::memory_order_relaxed) == taken) {
      // Lane went empty: clear its deadline anchor. A producer refilling the
      // lane concurrently may lose its fresh anchor to this 0-store; the
      // sealer treats 0 as "count from now", so the deadline is only
      // delayed by one race window, never lost.
      lane_since_us_[lane].store(0, std::memory_order_relaxed);
    }
  }
  return taken;
}

size_t Mempool::TakeBatch(size_t max, std::vector<TxnRequest>* out,
                          LaneTakeCounts* counts) {
  const size_t before = out->size();

  // Retry lane first: aborted transactions jump every priority lane,
  // matching the old retries-then-fresh assembly order (determinism for
  // replay/tests) and keeping Sync() deadlock-free.
  {
    std::lock_guard<SpinLock> lk(retry_mu_);
    while (out->size() - before < max && !retry_q_.empty()) {
      out->push_back(std::move(retry_q_.front()));
      retry_q_.pop_front();
      retry_size_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (retry_q_.empty()) {
      retry_since_us_.store(0, std::memory_order_relaxed);
    }
  }
  if (counts != nullptr) counts->retry = out->size() - before;

  size_t budget = max - (out->size() - before);
  size_t taken_fresh = 0;
  if (budget > 0) {
    // Weighted drain over the priority lanes. Occupancy is sampled once
    // (racily — a push finishing mid-batch is simply caught next batch):
    size_t avail[kNumLanes];
    uint64_t wsum = 0;
    for (size_t l = 0; l < kNumLanes; l++) {
      avail[l] = lane_size_[l].load(std::memory_order_relaxed);
      if (avail[l] > 0) wsum += opts_.lane_weights[l];
    }
    if (wsum > 0) {
      // Pass 1 — starvation-freedom floor: one guaranteed slot per
      // non-empty lane (priority order, in case budget < #lanes), then the
      // rest of the budget split by weight. Floors round down, so pass 2
      // hands any remainder to the highest-priority lane with traffic.
      size_t quota[kNumLanes] = {0, 0, 0};
      size_t reserved = 0;
      for (size_t l = 0; l < kNumLanes && reserved < budget; l++) {
        if (avail[l] > 0) {
          quota[l] = 1;
          reserved++;
        }
      }
      const size_t spread = budget - reserved;
      for (size_t l = 0; l < kNumLanes; l++) {
        if (avail[l] > 0) {
          quota[l] += static_cast<size_t>(
              static_cast<uint64_t>(spread) * opts_.lane_weights[l] / wsum);
        }
      }
      for (size_t l = 0; l < kNumLanes && taken_fresh < budget; l++) {
        const size_t got =
            DrainLane(l, std::min(quota[l], budget - taken_fresh), out);
        taken_fresh += got;
        if (counts != nullptr) counts->lane[l] += got;
      }
      // Pass 2 — spend leftover budget (floor rounding, or lanes that had
      // fewer transactions than their quota) strictly by priority.
      for (size_t l = 0; l < kNumLanes && taken_fresh < budget; l++) {
        const size_t got = DrainLane(l, budget - taken_fresh, out);
        taken_fresh += got;
        if (counts != nullptr) counts->lane[l] += got;
      }
    }
  }
  if (taken_fresh > 0) {
    size_.fetch_sub(taken_fresh, std::memory_order_relaxed);
  }
  return out->size() - before;
}

uint64_t Mempool::oldest_submit_us() const {
  uint64_t oldest = retry_since_us_.load(std::memory_order_relaxed);
  for (size_t l = 0; l < kNumLanes; l++) {
    const uint64_t t = lane_since_us_[l].load(std::memory_order_relaxed);
    if (t != 0 && (oldest == 0 || t < oldest)) oldest = t;
  }
  return oldest;
}

}  // namespace harmony

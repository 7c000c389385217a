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

  // 2x the uniform per-shard share, so a skewed key distribution still has
  // ring headroom beyond the global capacity bound. Rings reserve their
  // slots up front (shards * cap cells of address space, resident only once
  // filled), so the derived size is capped; a pool whose capacity outruns
  // the cap leans on ring-full Busy under extreme shard skew, and callers
  // with measured needs set ring_capacity explicitly.
  const size_t cap =
      opts_.ring_capacity != 0
          ? opts_.ring_capacity
          : std::clamp<size_t>(RoundUpPow2((2 * opts_.capacity) / n), 64,
                               4096);
  shards_.reserve(n);
  for (size_t i = 0; i < n; i++) {
    shards_.push_back(std::make_unique<Shard>(cap));
  }
}

size_t Mempool::AddBatch(std::vector<TxnRequest>* reqs,
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
    Status s = AddWithSlot(&(*reqs)[i]);
    if (s.ok()) {
      slots--;  // the slot is now owned by the enqueued request
      enqueued++;
    }
    (*statuses)[i] = std::move(s);
  }
  if (slots > 0) size_.fetch_sub(slots, std::memory_order_relaxed);
  return enqueued;
}

Status Mempool::AddWithSlot(TxnRequest* req) {
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
  // Count *before* the push: the consumer can pop a pushed item instantly,
  // and its fetch_sub must never run ahead of this fetch_add or the counter
  // underflows to SIZE_MAX. Counting first keeps the invariant
  // "fresh_size_ >= items actually poppable" at all times.
  if (fresh_size_.fetch_add(1, std::memory_order_relaxed) == 0) {
    fresh_since_us_.store(t, std::memory_order_relaxed);
  }
  if (!s.ring.TryPush(*req)) {
    // Ring full (pathological shard skew, or a deliberately tiny ring).
    // Roll the admission back so the client may retry: un-remember the
    // dedup key. The matching seen_fifo entry stays behind — if the key is
    // later re-admitted, that stale entry can age it out of the window one
    // eviction early, which only *narrows* the best-effort window.
    // A just-stored deadline anchor is deliberately left alone: clearing it
    // would race a concurrent producer's store, and a stale anchor merely
    // seals early once before the next empty->occupied transition resets it.
    fresh_size_.fetch_sub(1, std::memory_order_relaxed);
    if (dedup) {
      std::lock_guard<SpinLock> lk(s.dedup_mu);
      s.seen.erase(key);
    }
    return Status::Busy("mempool shard ring full");
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

size_t Mempool::TakeBatch(size_t max, std::vector<TxnRequest>* out,
                          size_t* retries) {
  const size_t before = out->size();

  // Retry lane first: aborted transactions go before fresh work, so a
  // Sync() waiting on them cannot live-lock behind new submissions.
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
  const size_t from_retry = out->size() - before;
  if (retries != nullptr) *retries = from_retry;

  // Then the fresh rings, round-robin over the shards from a start that
  // advances every batch so no shard is always drained last.
  const size_t budget = max - from_retry;
  size_t taken = 0;
  if (budget > 0 && fresh_size_.load(std::memory_order_relaxed) > 0) {
    const size_t n = shards_.size();
    const size_t start = cursor_++;
    TxnRequest req;
    for (size_t i = 0; i < n && taken < budget; i++) {
      MpscRing<TxnRequest>& ring = shards_[(start + i) & shard_mask_]->ring;
      while (taken < budget && ring.TryPop(&req)) {
        out->push_back(std::move(req));
        taken++;
      }
    }
  }
  if (taken > 0) {
    if (fresh_size_.fetch_sub(taken, std::memory_order_relaxed) == taken) {
      // The rings went empty: clear the deadline anchor. A producer
      // refilling them concurrently may lose its fresh anchor to this
      // 0-store; the sealer treats 0 as "count from now", so the deadline
      // is only delayed by one race window, never lost.
      fresh_since_us_.store(0, std::memory_order_relaxed);
    }
    size_.fetch_sub(taken, std::memory_order_relaxed);
  }
  return out->size() - before;
}

uint64_t Mempool::oldest_submit_us() const {
  const uint64_t retry = retry_since_us_.load(std::memory_order_relaxed);
  const uint64_t fresh = fresh_since_us_.load(std::memory_order_relaxed);
  if (retry == 0) return fresh;
  if (fresh == 0) return retry;
  return std::min(retry, fresh);
}

}  // namespace harmony

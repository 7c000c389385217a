#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/mpsc_ring.h"
#include "common/spin_lock.h"
#include "common/status.h"
#include "txn/procedure.h"

namespace harmony {

/// Mempool sizing / behaviour knobs.
struct MempoolOptions {
  size_t capacity = 1 << 16;  ///< max buffered fresh txns (across all shards)
  size_t shards = 16;         ///< queue stripes; rounded up to a power of two
  /// Per-shard bound on remembered (client_id, client_seq) dedup keys; the
  /// oldest keys are forgotten FIFO once the window fills. 0 = remember all.
  size_t dedup_window = 1 << 20;
  /// Slots per shard MPSC ring (rounded up to a power of two). 0 derives
  /// the bound from capacity/shards with headroom for skewed key
  /// distributions, so the global `capacity` check, not the rings, is what
  /// normally produces Busy. Ring slots are reserved up front but
  /// materialise on first use.
  size_t ring_capacity = 0;
};

/// Lock-free, capacity-bounded transaction pool in front of the orderer.
///
/// Layout: `shards` stripes, each holding one bounded MPSC ring of fresh
/// transactions plus a small spin-locked window of recently seen
/// (client_id, client_seq) keys for duplicate rejection. A transaction
/// hashes to one shard by its dedup key; the enqueue itself is a lock-free
/// ring push (one CAS + one release store), so concurrent producers only
/// ever contend on the ring tail of their own shard — never on a mutex.
/// Requests with client_seq == 0 carry no client identity and bypass dedup
/// (HarmonyBC assigns a sequence to such requests before they get here;
/// workload generators number their own).
///
/// CC-aborted transactions re-enter through a separate unbounded retry
/// lane: they already passed admission once, must not be double-rejected as
/// duplicates of themselves, and dropping them to backpressure would
/// deadlock a Sync() that is waiting for them to commit. TakeBatch drains
/// the retry lane first, then the fresh rings round-robin over the shards
/// (clients resubmit aborted work before new work). A private chain has no
/// fee market: the lanes alone set the order.
///
/// Thread-safety: AddBatch/AddRetry from any number of producer threads, and
/// AddRetry from the replica's commit thread, all concurrently with one
/// drainer. TakeBatch and oldest-age accounting assume a *single logical
/// consumer*: concurrent TakeBatch callers must serialize externally (the
/// sealer serializes every drain under its seal mutex — see BlockSealer).
class Mempool {
 public:
  explicit Mempool(MempoolOptions opts);

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  /// Enqueues fresh transactions (the only fresh-admission entry point; a
  /// single submit is a batch of one). A *single* capacity reservation CAS
  /// covers the whole batch, then each request runs the dedup + ring push.
  /// Per-request statuses:
  ///  - OK               -> enqueued;
  ///  - InvalidArgument  -> duplicate (client_id, client_seq) within the
  ///                        dedup window;
  ///  - Busy             -> capacity the batch could not reserve (the
  ///                        trailing requests), or this shard's ring is
  ///                        full (backpressure: retry later).
  /// A failed request frees its slot back to the batch's local credit, so
  /// one rejected request cannot starve the rest. `reqs` and `statuses` are
  /// parallel arrays; returns the number enqueued. A request is moved from
  /// only when it is enqueued.
  size_t AddBatch(std::vector<TxnRequest>* reqs, std::vector<Status>* statuses);

  /// Re-admits a CC-aborted transaction via the retry lane (no dedup, no
  /// capacity check — see class comment).
  void AddRetry(TxnRequest req);

  /// Pops up to `max` transactions: the retry lane first, then the fresh
  /// rings round-robin over the shards. Returns the number taken;
  /// `retries` (optional) receives how many came from the retry lane.
  /// Dedup keys stay remembered, so a replayed duplicate is still rejected
  /// after its original sealed. Single logical consumer only (see class
  /// comment).
  size_t TakeBatch(size_t max, std::vector<TxnRequest>* out,
                   size_t* retries = nullptr);

  /// Fresh transactions currently buffered (excludes the retry lane).
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Retry-lane depth.
  size_t retry_size() const {
    return retry_size_.load(std::memory_order_relaxed);
  }

  bool empty() const { return size() == 0 && retry_size() == 0; }

  /// Earliest wait-start among buffered transactions (0 when empty); drives
  /// the sealer's block deadline. The retry lane and the fresh rings each
  /// count from when they last became non-empty: while one stays occupied
  /// across partial drains its anchor never resets, so the deadline can
  /// only fire *early* relative to the true oldest waiter — the latency
  /// bound holds. The early-firing is self-limiting: a drain that empties
  /// a queue resets its anchor, and occupancy that survives a full
  /// TakeBatch means the size trigger, not the deadline, is cutting blocks.
  uint64_t oldest_submit_us() const;

  size_t capacity() const { return opts_.capacity; }
  size_t shard_count() const { return shards_.size(); }
  /// Effective slots per shard ring.
  size_t ring_capacity() const { return shards_[0]->ring.capacity(); }

 private:
  /// One queue stripe: a bounded lock-free ring plus the spin-locked dedup
  /// window. The ring carries the hot path; the dedup lock guards only a
  /// hash-set probe (no allocation-heavy deque push behind it), so
  /// producers hold it for a handful of nanoseconds.
  struct Shard {
    explicit Shard(size_t cap) : ring(cap) {}

    MpscRing<TxnRequest> ring;
    mutable SpinLock dedup_mu;
    std::unordered_set<uint64_t> seen;
    std::deque<uint64_t> seen_fifo;  ///< eviction order for the dedup window
  };

  static uint64_t DedupKey(const TxnRequest& req) {
    // Mix both halves so clients with sequential ids/seqs spread uniformly.
    return Mix64(req.client_id ^ Mix64(req.client_seq));
  }

  Shard& shard_for(uint64_t key) { return *shards_[key & shard_mask_]; }

  /// Dedup + ring push with the capacity slot already reserved by the
  /// caller. Does NOT touch size_ — on failure the caller keeps (or
  /// refunds) the slot. Moves from *req only on success.
  Status AddWithSlot(TxnRequest* req);

  MempoolOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_;
  size_t dedup_per_shard_;
  std::atomic<size_t> size_{0};  ///< capacity reservations (fresh rings)
  std::atomic<size_t> fresh_size_{0};  ///< txns pushed into the fresh rings
  /// Fresh deadline anchor: wall time the rings last went empty->occupied
  /// (0 = empty). Same scheme as the retry lane; see oldest_submit_us().
  std::atomic<uint64_t> fresh_since_us_{0};
  size_t cursor_ = 0;  ///< round-robin start shard; consumer-only

  std::atomic<size_t> retry_size_{0};
  SpinLock retry_mu_;
  std::deque<TxnRequest> retry_q_;
  std::atomic<uint64_t> retry_since_us_{0};  ///< lane became non-empty at
};

}  // namespace harmony

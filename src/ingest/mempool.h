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
#include "ingest/lanes.h"
#include "txn/procedure.h"

namespace harmony {

/// Mempool sizing / behaviour knobs.
struct MempoolOptions {
  size_t capacity = 1 << 16;  ///< max buffered fresh txns (across all shards)
  size_t shards = 16;         ///< queue stripes; rounded up to a power of two
  /// Per-shard bound on remembered (client_id, client_seq) dedup keys; the
  /// oldest keys are forgotten FIFO once the window fills. 0 = remember all.
  size_t dedup_window = 1 << 20;
  /// Slots per shard-lane MPSC ring (rounded up to a power of two; applied
  /// to every lane). 0 derives per-lane bounds from capacity/shards with
  /// headroom for skewed key distributions, so the global `capacity` check,
  /// not the rings, is what normally produces Busy — and lanes that the
  /// configuration makes unreachable or trickle-only (high with fee
  /// promotion disabled; low always, by its weight-1 role) get small rings.
  /// Ring slots are reserved up front but materialise on first use.
  size_t ring_capacity = 0;
  /// Transactions with fee >= this ride the high-priority lane. 0 disables
  /// fee-based promotion (every fresh txn lands in the normal lane).
  uint64_t high_fee_threshold = 0;
  /// Weighted-drain shares for {high, normal, low}; see lanes.h.
  LaneWeights lane_weights = kDefaultLaneWeights;
};

/// Lock-free, capacity-bounded, priority-laned transaction pool in front of
/// the orderer.
///
/// Layout: `shards` stripes, each holding one bounded MPSC ring per
/// priority lane (high / normal / low) plus a small spin-locked window of
/// recently seen (client_id, client_seq) keys for duplicate rejection. A
/// transaction hashes to one shard by its dedup key; the enqueue itself is
/// a lock-free ring push (one CAS + one release store), so concurrent
/// producers only ever contend on the ring tail of their own shard-lane —
/// never on a mutex. Requests with client_seq == 0 carry no client identity
/// and bypass dedup (HarmonyBC assigns a sequence to such requests before
/// they get here; workload generators number their own).
///
/// Lane assignment: fee >= high_fee_threshold -> high lane; admission-
/// demoted clients -> low lane (the caller passes each request's lane to
/// AddBatch); everything else -> normal. TakeBatch drains lanes by
/// weighted shares (MempoolOptions::lane_weights), so high-fee traffic is
/// served first but a sustained high-lane flood cannot starve the low lane:
/// every non-empty lane is guaranteed its weighted fraction of each batch
/// (>= 1 slot).
///
/// CC-aborted transactions re-enter through a separate unbounded retry
/// lane: they already passed admission once, must not be double-rejected as
/// duplicates of themselves, and dropping them to backpressure would
/// deadlock a Sync() that is waiting for them to commit. TakeBatch drains
/// the retry lane first, before any priority lane (clients resubmit aborted
/// work before new work).
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
  /// covers the whole batch, then each request runs the dedup + ring push
  /// into its caller-chosen lane (LaneFor, or IngestLane::kLow for an
  /// admission-demoted client). Per-request statuses:
  ///  - OK               -> enqueued;
  ///  - InvalidArgument  -> duplicate (client_id, client_seq) within the
  ///                        dedup window;
  ///  - Busy             -> capacity the batch could not reserve (the
  ///                        trailing requests), or this shard-lane's ring is
  ///                        full (backpressure: retry later).
  /// A failed request frees its slot back to the batch's local credit, so
  /// one rejected request cannot starve the rest. `reqs`, `lanes`, and
  /// `statuses` are parallel arrays; returns the number enqueued. A request
  /// is moved from only when it is enqueued.
  size_t AddBatch(std::vector<TxnRequest>* reqs,
                  const std::vector<IngestLane>& lanes,
                  std::vector<Status>* statuses);

  /// Re-admits a CC-aborted transaction via the retry lane (no dedup, no
  /// capacity check — see class comment).
  void AddRetry(TxnRequest req);

  /// Per-lane breakdown of one TakeBatch (the sealer feeds these into
  /// IngestStats' per-lane seal counters).
  struct LaneTakeCounts {
    size_t retry = 0;
    size_t lane[kNumLanes] = {};
  };

  /// Pops up to `max` transactions: the retry lane first, then the priority
  /// lanes by weighted share, round-robin over the shards inside each lane.
  /// Returns the number taken; `counts` (optional) receives the per-lane
  /// split. Dedup keys stay remembered, so a replayed duplicate is still
  /// rejected after its original sealed. Single logical consumer only (see
  /// class comment).
  size_t TakeBatch(size_t max, std::vector<TxnRequest>* out,
                   LaneTakeCounts* counts = nullptr);

  /// Fresh transactions currently buffered (excludes the retry lane).
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Fresh transactions buffered in one priority lane.
  size_t lane_size(IngestLane lane) const {
    return lane_size_[static_cast<size_t>(lane)].load(
        std::memory_order_relaxed);
  }

  /// Retry-lane depth.
  size_t retry_size() const {
    return retry_size_.load(std::memory_order_relaxed);
  }

  bool empty() const { return size() == 0 && retry_size() == 0; }

  /// Earliest wait-start among buffered transactions (0 when empty); drives
  /// the sealer's block deadline. Each lane (retry included) counts from
  /// when it last became non-empty: while a lane stays occupied across
  /// partial drains the anchor never resets, so the deadline can only fire
  /// *early* relative to the true oldest waiter — the latency bound holds.
  /// The early-firing is self-limiting: a drain that empties the lane
  /// resets the anchor, and occupancy that survives a full TakeBatch means
  /// the size trigger, not the deadline, is cutting blocks.
  uint64_t oldest_submit_us() const;

  /// Lane the mempool would pick for this request's fee.
  IngestLane LaneFor(const TxnRequest& req) const {
    return (opts_.high_fee_threshold != 0 &&
            req.fee >= opts_.high_fee_threshold)
               ? IngestLane::kHigh
               : IngestLane::kNormal;
  }

  size_t capacity() const { return opts_.capacity; }
  size_t shard_count() const { return shards_.size(); }
  /// Effective slots per shard ring on the normal lane (high/low lanes may
  /// be sized smaller — see MempoolOptions::ring_capacity).
  size_t ring_capacity() const;

 private:
  /// One queue stripe: a bounded lock-free ring per priority lane, plus the
  /// spin-locked dedup window. The rings carry the hot path; the dedup lock
  /// guards only a hash-set probe (no allocation-heavy deque push behind
  /// it), so producers hold it for a handful of nanoseconds.
  struct Shard {
    explicit Shard(const std::array<size_t, kNumLanes>& caps)
        : lanes{MpscRing<TxnRequest>(caps[0]), MpscRing<TxnRequest>(caps[1]),
                MpscRing<TxnRequest>(caps[2])} {}

    MpscRing<TxnRequest> lanes[kNumLanes];
    mutable SpinLock dedup_mu;
    std::unordered_set<uint64_t> seen;
    std::deque<uint64_t> seen_fifo;  ///< eviction order for the dedup window
  };

  static uint64_t DedupKey(const TxnRequest& req) {
    // Mix both halves so clients with sequential ids/seqs spread uniformly.
    return Mix64(req.client_id ^ Mix64(req.client_seq));
  }

  Shard& shard_for(uint64_t key) { return *shards_[key & shard_mask_]; }

  /// Pops up to `quota` txns from one lane, round-robin across shards.
  size_t DrainLane(size_t lane, size_t quota, std::vector<TxnRequest>* out);

  /// Dedup + ring push with the capacity slot already reserved by the
  /// caller. Does NOT touch size_ — on failure the caller keeps (or
  /// refunds) the slot. Moves from *req only on success.
  Status AddWithSlot(TxnRequest* req, IngestLane lane);

  MempoolOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_;
  size_t dedup_per_shard_;
  std::atomic<size_t> size_{0};  ///< capacity reservations (fresh lanes)
  std::atomic<size_t> lane_size_[kNumLanes] = {};
  /// Per-lane deadline anchor: wall time the lane last went empty->occupied
  /// (0 = empty). Same scheme as the retry lane in PR 1; see
  /// oldest_submit_us().
  std::atomic<uint64_t> lane_since_us_[kNumLanes] = {};
  std::atomic<size_t> lane_cursor_[kNumLanes] = {};  ///< round-robin starts

  std::atomic<size_t> retry_size_{0};
  SpinLock retry_mu_;
  std::deque<TxnRequest> retry_q_;
  std::atomic<uint64_t> retry_since_us_{0};  ///< lane became non-empty at
};

}  // namespace harmony

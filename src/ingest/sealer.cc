#include "ingest/sealer.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/clock.h"
#include "consensus/orderer.h"
#include "obs/trace.h"
#include "testing/crash_point.h"

namespace harmony {

BlockSealer::BlockSealer(SealerOptions opts, Mempool* pool, Orderer* orderer,
                         IngestStats* stats, DeliverFn deliver,
                         obs::TxnTracer* tracer)
    : opts_(opts),
      pool_(pool),
      orderer_(orderer),
      stats_(stats),
      deliver_(std::move(deliver)),
      tracer_(tracer) {}

BlockSealer::~BlockSealer() { Stop(); }

void BlockSealer::Start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!stop_) return;  // already running
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void BlockSealer::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void BlockSealer::Notify() {
  // Dekker-style pairing with Loop: the producer enqueued (relaxed counter
  // bump) before this fence; the sealer publishes parked_ and then re-reads
  // the depth after its own fence. Whichever fence comes second sees the
  // other side's write, so either we observe parked_ == true here or the
  // sealer's re-check observes the new transaction — a wakeup is never
  // lost, and the fast path costs no lock.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!parked_.load(std::memory_order_relaxed)) return;
  // The empty critical section ensures the sealer is fully inside cv wait
  // (it sets parked_ under mu_), so the notify cannot land between its
  // re-check and the wait.
  { std::lock_guard<std::mutex> lk(mu_); }
  cv_.notify_one();
}

Status BlockSealer::background_error() const {
  std::lock_guard<std::mutex> lk(mu_);
  return error_;
}

uint64_t BlockSealer::delivered() {
  std::lock_guard<std::mutex> lk(seal_mu_);
  return delivered_;
}

size_t BlockSealer::SealOnce(SealCause cause) {
  std::lock_guard<std::mutex> lk(seal_mu_);
  return SealLocked(cause);
}

size_t BlockSealer::SealLocked(SealCause cause) {
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const uint64_t seal_start = tracing ? NowMicros() : 0;
  std::vector<TxnRequest> txns;
  txns.reserve(opts_.block_size);
  size_t retries = 0;
  pool_->TakeBatch(opts_.block_size, &txns, &retries);
  if (txns.empty()) return 0;
  const size_t n = txns.size();

  if (tracing) {
    // One clock read covers the whole batch: stamp the dequeue clock
    // (carried into the sealed block for commit-lag attribution) and close
    // each txn's admit -> dequeue queue-wait interval.
    const uint64_t dequeue = NowMicros();
    for (TxnRequest& t : txns) {
      t.trace.dequeue_us = dequeue;
      if (t.trace.admit_us != 0 && dequeue >= t.trace.admit_us) {
        tracer_->queue_wait->Record(dequeue - t.trace.admit_us);
      }
    }
  }

  Block block = orderer_->SealBlock(std::move(txns), NowMicros());
  if (tracing) {
    tracer_->block_seal->Record(NowMicros() - seal_start);
    tracer_->blocks_traced->Add(1);
  }
  if (stats_ != nullptr) {
    stats_->sealed_blocks.fetch_add(1, std::memory_order_relaxed);
    stats_->sealed_txns.fetch_add(n, std::memory_order_relaxed);
    stats_->sealed_retry_txns.fetch_add(retries, std::memory_order_relaxed);
    switch (cause) {
      case SealCause::kSize:
        stats_->size_seals.fetch_add(1, std::memory_order_relaxed);
        break;
      case SealCause::kDeadline:
        stats_->deadline_seals.fetch_add(1, std::memory_order_relaxed);
        break;
      case SealCause::kFlush:
        stats_->flush_seals.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

  // Delivery is the pipeline handoff: SubmitBlock schedules the block's
  // simulation and returns, so the next block seals while this one runs.
  HARMONY_CRASH_POINT("ingest.seal.before_deliver");
  Status s = deliver_(std::move(block));
  delivered_++;
  if (!s.ok()) {
    std::lock_guard<std::mutex> elk(mu_);
    if (error_.ok()) error_ = s;
  }
  return n;
}

Status BlockSealer::Flush() {
  // Hold seal_mu_ across the depth check: if the background thread is
  // mid-seal (batch popped, not yet delivered), the pool can look empty
  // while a block is still on its way to the replica — returning then would
  // let a subsequent Replica::Drain() miss it. Under the lock, every batch
  // counted here has been handed to the replica by return.
  //
  // The work is bounded by the depth observed at entry: under a concurrent
  // open-loop flood the pool may *never* drain to empty, and Sync() — whose
  // quiescence is completion-based, not emptiness-based — only needs the
  // transactions buffered before the call sealed. Callers that want more
  // simply flush again.
  {
    std::lock_guard<std::mutex> lk(seal_mu_);
    size_t remaining = pool_->size() + pool_->retry_size();
    while (remaining > 0) {
      const size_t n = SealLocked(SealCause::kFlush);
      if (n == 0) break;
      remaining -= std::min(n, remaining);
    }
  }
  return background_error();
}

void BlockSealer::Loop() {
  // Fallback deadline anchor for a rare mempool race: a drain that empties
  // the fresh rings can zero their anchor just as a producer refills them,
  // leaving buffered work whose oldest_submit_us() reads 0. Treating 0 as
  // "now" on *every* wakeup would slide the deadline forever for a pool
  // that stays occupied below block_size; instead the first wakeup that
  // observes the condition pins the anchor here, bounding the extra wait
  // to one deadline period.
  uint64_t zero_anchor_since = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    const size_t depth = pool_->size() + pool_->retry_size();
    if (depth >= opts_.block_size) {
      lk.unlock();
      SealOnce(SealCause::kSize);
      lk.lock();
      zero_anchor_since = 0;
      continue;
    }

    // Publish parked_ *before* re-reading the depth (pairs with Notify's
    // fence — see there); a transaction admitted in the meantime is caught
    // by the re-check instead of relying on its notify.
    parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (pool_->size() + pool_->retry_size() != depth) {
      parked_.store(false, std::memory_order_relaxed);
      continue;
    }

    if (opts_.max_block_delay_us > 0 && depth > 0) {
      // The oldest waiter anchors the deadline (the mempool counts the retry
      // lane and the fresh rings each from when it last became non-empty).
      uint64_t oldest = pool_->oldest_submit_us();
      const uint64_t now = NowMicros();
      if (oldest == 0) {
        if (zero_anchor_since == 0) zero_anchor_since = now;
        oldest = zero_anchor_since;  // sticky: see comment at the top
      } else {
        zero_anchor_since = 0;
      }
      if (oldest > now) oldest = now;
      const uint64_t deadline = oldest + opts_.max_block_delay_us;
      if (now >= deadline) {
        parked_.store(false, std::memory_order_relaxed);
        lk.unlock();
        SealOnce(SealCause::kDeadline);
        lk.lock();
        zero_anchor_since = 0;
        continue;
      }
      cv_.wait_for(lk, std::chrono::microseconds(deadline - now));
    } else {
      zero_anchor_since = 0;
      cv_.wait(lk);
    }
    parked_.store(false, std::memory_order_relaxed);
  }
}

}  // namespace harmony

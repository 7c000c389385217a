#include "core/completion.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"

namespace harmony {

const char* ReceiptOutcomeName(ReceiptOutcome o) {
  switch (o) {
    case ReceiptOutcome::kCommitted:
      return "committed";
    case ReceiptOutcome::kLogicAborted:
      return "logic_abort";
    case ReceiptOutcome::kDropped:
      return "dropped";
    case ReceiptOutcome::kRejected:
      return "rejected";
  }
  return "?";
}

void PendingTxn::Resolve(TxnReceipt receipt) {
  ReceiptCallback cb;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (resolved_) return;
    receipt_ = std::move(receipt);
    cb = std::move(cb_);
    cb_ = nullptr;
    // Session stats are updated before resolved_ becomes observable (any
    // Wait/TryGet reads it under mu_), so `ticket.Wait()` followed by a
    // stats read sees this receipt already counted.
    if (session_ != nullptr) {
      // Balances the increment at submit (HarmonyBC's admission path, or
      // NetClient::Submit);
      // frees a flow-control slot the moment the fate is known.
      session_->inflight.fetch_sub(1, std::memory_order_acq_rel);
      switch (receipt_.outcome) {
        case ReceiptOutcome::kCommitted:
          session_->committed.fetch_add(1, std::memory_order_relaxed);
          break;
        case ReceiptOutcome::kLogicAborted:
          session_->logic_aborted.fetch_add(1, std::memory_order_relaxed);
          break;
        case ReceiptOutcome::kDropped:
          session_->dropped.fetch_add(1, std::memory_order_relaxed);
          break;
        case ReceiptOutcome::kRejected:
          session_->rejected.fetch_add(1, std::memory_order_relaxed);
          break;
      }
      if (receipt_.outcome == ReceiptOutcome::kCommitted ||
          receipt_.outcome == ReceiptOutcome::kLogicAborted) {
        session_->latency_sum_us.fetch_add(receipt_.latency_us,
                                           std::memory_order_relaxed);
        uint64_t prev =
            session_->latency_max_us.load(std::memory_order_relaxed);
        while (prev < receipt_.latency_us &&
               !session_->latency_max_us.compare_exchange_weak(
                   prev, receipt_.latency_us, std::memory_order_relaxed)) {
        }
      }
    }
    resolved_ = true;
  }
  cv_.notify_all();
  // receipt_ is immutable once resolved_ is set, so reading it without the
  // lock here (and in the callback) is safe.
  if (cb) cb(receipt_);
}

const TxnReceipt& PendingTxn::Wait() const {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return resolved_; });
  return receipt_;
}

std::optional<TxnReceipt> PendingTxn::TryGet() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (!resolved_) return std::nullopt;
  return receipt_;
}

bool PendingTxn::WaitFor(uint64_t timeout_us, TxnReceipt* out) const {
  std::unique_lock<std::mutex> lk(mu_);
  if (!cv_.wait_for(lk, std::chrono::microseconds(timeout_us),
                    [&] { return resolved_; })) {
    return false;
  }
  *out = receipt_;
  return true;
}

void ResolvePending(PendingTxn* entry, const TxnRequest& req,
                    ReceiptOutcome outcome, Status status, BlockId block_id,
                    uint64_t now_us) {
  TxnReceipt r;
  r.outcome = outcome;
  r.status = std::move(status);
  r.block_id = block_id;
  r.client_id = req.client_id;
  r.client_seq = req.client_seq;
  r.retries = req.retries;
  const uint64_t t0 = entry->submit_time_us();
  r.latency_us = now_us > t0 ? now_us - t0 : 0;
  entry->Resolve(std::move(r));
}

CompletionRouter::CompletionRouter(size_t shards)
    : shards_(RoundUpPow2(std::max<size_t>(1, shards))),
      shard_mask_(shards_.size() - 1) {}

std::shared_ptr<PendingTxn> CompletionRouter::Register(
    const TxnRequest& req, ReceiptCallback cb,
    std::shared_ptr<SessionStats> session, bool* duplicate) {
  const uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_acq_rel);
  auto entry = std::make_shared<PendingTxn>(req.submit_time_us, ticket,
                                            std::move(cb), std::move(session));
  Shard& s = shard_for(req.client_id, req.client_seq);
  std::lock_guard<std::mutex> lk(s.mu);
  auto [it, inserted] =
      s.entries.emplace(std::make_pair(req.client_id, req.client_seq), entry);
  (void)it;
  *duplicate = !inserted;
  return entry;
}

void CompletionRouter::Discard(uint64_t client_id, uint64_t client_seq) {
  Shard& s = shard_for(client_id, client_seq);
  std::lock_guard<std::mutex> lk(s.mu);
  s.entries.erase(std::make_pair(client_id, client_seq));
}

void CompletionRouter::Resolve(const TxnRequest& req, ReceiptOutcome outcome,
                               Status status, BlockId block_id,
                               uint64_t now_us) {
  std::shared_ptr<PendingTxn> entry;
  Shard& s = shard_for(req.client_id, req.client_seq);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.entries.find(std::make_pair(req.client_id, req.client_seq));
    if (it == s.entries.end()) return;
    entry = it->second;
  }
  // Stage attribution for executed transactions (tracing on): split the
  // receipt's latency at the lane-dequeue stamp and offer the trace to the
  // slowest-N ring. queue_wait + commit_lag == total exactly — all three
  // derive from the same three clock reads.
  if (tracer_ != nullptr && tracer_->enabled() && req.trace.admit_us != 0 &&
      (outcome == ReceiptOutcome::kCommitted ||
       outcome == ReceiptOutcome::kLogicAborted)) {
    const uint64_t admit = req.trace.admit_us;
    const uint64_t total = now_us > admit ? now_us - admit : 0;
    tracer_->resolve->Record(total);
    tracer_->txns_traced->Add(1);
    obs::SlowTxnTrace t;
    t.client_id = req.client_id;
    t.client_seq = req.client_seq;
    t.block_id = block_id;
    t.retries = req.retries;
    t.total_us = total;
    const uint64_t dq = req.trace.dequeue_us;
    if (dq >= admit && dq - admit <= total) {
      t.queue_wait_us = dq - admit;
      t.commit_lag_us = total - t.queue_wait_us;
      tracer_->commit_lag->Record(t.commit_lag_us);
    }
    tracer_->RecordSlow(t);
  }
  // Fulfill while still registered, unmap after: HasPendingBefore() turning
  // false then proves every receipt (callback included) has been delivered —
  // the ordering Sync()'s quiescence answer relies on. The exactly-once
  // guard in PendingTxn::Resolve absorbs a racing FailAll.
  ResolvePending(entry.get(), req, outcome, std::move(status), block_id,
                 now_us);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.entries.erase(std::make_pair(req.client_id, req.client_seq));
  }
}

bool CompletionRouter::HasPendingBefore(uint64_t watermark) const {
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    for (const auto& [key, entry] : s.entries) {
      (void)key;
      if (entry->ticket() < watermark) return true;
    }
  }
  return false;
}

size_t CompletionRouter::pending() const {
  size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    n += s.entries.size();
  }
  return n;
}

void CompletionRouter::FailAll(const Status& why, uint64_t now_us) {
  for (Shard& s : shards_) {
    std::vector<std::pair<std::pair<uint64_t, uint64_t>,
                          std::shared_ptr<PendingTxn>>>
        doomed;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      doomed.assign(s.entries.begin(), s.entries.end());
    }
    // Same ordering contract as Resolve: fulfill while still registered
    // (outside the lock — completion callbacks are arbitrary user code),
    // unmap after, so HasPendingBefore() turning false proves every
    // receipt has been delivered.
    for (auto& [key, entry] : doomed) {
      TxnRequest id;
      id.client_id = key.first;
      id.client_seq = key.second;
      ResolvePending(entry.get(), id, ReceiptOutcome::kDropped, why,
                     /*block_id=*/0, now_us);
    }
    {
      std::lock_guard<std::mutex> lk(s.mu);
      for (auto& [key, entry] : doomed) s.entries.erase(key);
    }
  }
}

}  // namespace harmony

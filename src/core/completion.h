#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/procedure.h"

namespace harmony {

namespace obs {
class TxnTracer;
}

/// Terminal fate of a submitted transaction, as reported to the client.
/// Exactly one receipt is delivered per accepted Submit call.
enum class ReceiptOutcome : uint8_t {
  kCommitted = 0,   ///< executed and committed in `block_id`
  kLogicAborted,    ///< the procedure itself aborted (deterministic)
  kDropped,         ///< gave up: max_txn_retries exhausted, Recover(), close
  kRejected,        ///< never admitted (validation / rate limit / Busy / dup)
};

const char* ReceiptOutcomeName(ReceiptOutcome o);

/// The per-transaction verdict a client receives — the same submit→commit
/// accounting the paper's latency figures measure, surfaced per txn.
struct TxnReceipt {
  ReceiptOutcome outcome = ReceiptOutcome::kRejected;
  /// OK for kCommitted; otherwise the reason (the admission Status for
  /// kRejected, Aborted for logic aborts, Busy for retry exhaustion, ...).
  Status status;
  /// Block the transaction's fate was decided in (0 for kRejected and for
  /// kDropped receipts issued by Recover()/shutdown).
  BlockId block_id = 0;
  uint64_t client_id = 0;
  uint64_t client_seq = 0;
  uint32_t retries = 0;     ///< CC-abort resubmissions it took
  uint64_t latency_us = 0;  ///< submit -> receipt resolution
};

/// Completion-callback mode: invoked exactly once, on whichever thread
/// resolves the receipt — the replica's commit thread for executed
/// transactions, the submitting thread for synchronous rejections. Must not
/// block; it runs inside the commit path.
using ReceiptCallback = std::function<void(const TxnReceipt&)>;

/// Per-session counters, updated as receipts resolve. latency_sum_us /
/// latency_max_us cover executed receipts (committed + logic-aborted), so
/// mean commit latency = latency_sum_us / (committed + logic_aborted).
struct SessionStats {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> logic_aborted{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> latency_sum_us{0};
  std::atomic<uint64_t> latency_max_us{0};
  /// Transactions submitted but not yet resolved; the session flow-control
  /// cap (Options::max_inflight_per_session) gates on this. Incremented by
  /// the admission path (and NetClient::Submit), decremented by
  /// PendingTxn::Resolve — every submit, including the Busy-rejected ones,
  /// passes through both sides.
  std::atomic<uint64_t> inflight{0};
  /// Submits bounced by the flow-control cap (a subset of `rejected`).
  std::atomic<uint64_t> flow_rejected{0};
};

/// Waitable completion state shared between a client's TxnTicket and the
/// CompletionRouter. Resolution is exactly-once: the first Resolve wins and
/// later calls are no-ops (e.g. a commit racing a shutdown FailAll).
class PendingTxn {
 public:
  PendingTxn(uint64_t submit_time_us, uint64_t ticket, ReceiptCallback cb,
             std::shared_ptr<SessionStats> session)
      : submit_time_us_(submit_time_us),
        ticket_(ticket),
        cb_(std::move(cb)),
        session_(std::move(session)) {}

  PendingTxn(const PendingTxn&) = delete;
  PendingTxn& operator=(const PendingTxn&) = delete;

  /// Fulfills the receipt: records it, updates session stats, invokes the
  /// completion callback (on this thread), and wakes every waiter. No-op if
  /// already resolved.
  void Resolve(TxnReceipt receipt);

  /// Blocks until resolved.
  const TxnReceipt& Wait() const;

  /// Non-blocking probe; empty while unresolved.
  std::optional<TxnReceipt> TryGet() const;

  /// Bounded wait; returns false (and leaves *out alone) on timeout.
  bool WaitFor(uint64_t timeout_us, TxnReceipt* out) const;

  uint64_t submit_time_us() const { return submit_time_us_; }
  uint64_t ticket() const { return ticket_; }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool resolved_ = false;
  TxnReceipt receipt_;

  const uint64_t submit_time_us_;
  const uint64_t ticket_;  ///< admission order; drives the Sync() watermark
  ReceiptCallback cb_;     ///< cleared after the one invocation
  std::shared_ptr<SessionStats> session_;
};

/// Sharded registry of in-flight transactions keyed by
/// (client_id, client_seq) — the bridge between the many submitting threads
/// and the replica's commit thread, which resolves receipts in block order.
///
/// Lifecycle of an entry: Register at Submit (before the mempool sees the
/// request), then exactly one of
///  - Resolve   (commit callback: committed / logic abort / dropped), or
///  - Discard   (admission rejected it; the caller resolves the detached
///               PendingTxn itself), or
///  - FailAll   (Recover()/shutdown fails every pending ticket).
///
/// Every Register stamps a monotonic admission ticket. watermark() returns
/// the next ticket to be issued; HasPendingBefore(w) answers "is any
/// transaction registered before w still unresolved?" — which is exactly
/// the quiescence question HarmonyBC::Sync needs under concurrent Submits.
///
/// Thread-safety: all methods are safe from any thread.
class CompletionRouter {
 public:
  explicit CompletionRouter(size_t shards = 16);

  CompletionRouter(const CompletionRouter&) = delete;
  CompletionRouter& operator=(const CompletionRouter&) = delete;

  /// Registers an in-flight transaction. When the key is already pending
  /// (a duplicate submit racing the original's completion), sets
  /// *duplicate and returns a *detached* entry — never routed, but still
  /// carrying the caller's callback and session stats so the rejection
  /// receipt is delivered normally; the original's receipt is undisturbed.
  std::shared_ptr<PendingTxn> Register(const TxnRequest& req,
                                       ReceiptCallback cb,
                                       std::shared_ptr<SessionStats> session,
                                       bool* duplicate);

  /// Unregisters without resolving (the admission-rejection path: the
  /// caller holds the entry and resolves it as kRejected itself).
  void Discard(uint64_t client_id, uint64_t client_seq);

  /// Resolves and removes the entry for `req`, building the receipt from
  /// the transaction's fate. No-op for unknown keys (transactions that did
  /// not enter through a session, e.g. replayed blocks from other runs).
  void Resolve(const TxnRequest& req, ReceiptOutcome outcome, Status status,
               BlockId block_id, uint64_t now_us);

  /// Installs the txn-lifecycle tracer (may be null). When enabled, Resolve
  /// records the commit-lag / resolve stage histograms and offers each
  /// executed txn to the slowest-N ring. Set before any Resolve can run.
  void SetTracer(obs::TxnTracer* tracer) { tracer_ = tracer; }

  /// Any transaction with admission ticket < `watermark` still pending?
  bool HasPendingBefore(uint64_t watermark) const;

  /// The next admission ticket to be issued. Every Submit that returned
  /// before this call holds a ticket below the returned value.
  uint64_t watermark() const {
    return next_ticket_.load(std::memory_order_acquire);
  }

  size_t pending() const;

  /// Resolves every pending entry as kDropped with `why` — Recover() and
  /// shutdown use this so no ticket ever hangs. The dropped outcome here
  /// means "fate unknown to this process", not "guaranteed not applied".
  void FailAll(const Status& why, uint64_t now_us);

 private:
  struct KeyHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
      return static_cast<size_t>(Mix64(k.first ^ Mix64(k.second)));
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::pair<uint64_t, uint64_t>,
                       std::shared_ptr<PendingTxn>, KeyHash>
        entries;
  };

  Shard& shard_for(uint64_t client_id, uint64_t client_seq) {
    return shards_[Mix64(client_id ^ Mix64(client_seq)) & shard_mask_];
  }
  const Shard& shard_for(uint64_t client_id, uint64_t client_seq) const {
    return shards_[Mix64(client_id ^ Mix64(client_seq)) & shard_mask_];
  }

  std::vector<Shard> shards_;
  size_t shard_mask_;
  std::atomic<uint64_t> next_ticket_{0};
  obs::TxnTracer* tracer_ = nullptr;
};

/// Fills a receipt's identity/latency fields from the request and resolves
/// `entry` (used for both routed and detached entries).
void ResolvePending(PendingTxn* entry, const TxnRequest& req,
                    ReceiptOutcome outcome, Status status, BlockId block_id,
                    uint64_t now_us);

}  // namespace harmony

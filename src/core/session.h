#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/completion.h"
#include "txn/procedure.h"

namespace harmony {

class HarmonyBC;
class Session;
namespace net {
class NetClient;
}

/// A client's handle on one in-flight transaction. Cheap to copy (shared
/// state under the hood); default-constructed tickets are invalid.
///
/// Every ticket resolves to exactly one TxnReceipt — synchronously for
/// admission rejections, otherwise when the replica's commit thread settles
/// the transaction's block (or when Recover()/shutdown fails it). Tickets
/// may outlive their Session and even the HarmonyBC instance (shutdown
/// resolves them as kDropped first, so Wait() never hangs).
class TxnTicket {
 public:
  TxnTicket() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the receipt arrives.
  const TxnReceipt& Wait() const { return state_->Wait(); }

  /// Non-blocking probe; empty while the transaction is still in flight.
  std::optional<TxnReceipt> TryGet() const { return state_->TryGet(); }

  /// Bounded wait; false on timeout (*out untouched).
  bool WaitFor(uint64_t timeout_us, TxnReceipt* out) const {
    return state_->WaitFor(timeout_us, out);
  }

  uint64_t client_id() const { return client_id_; }
  uint64_t client_seq() const { return client_seq_; }

 private:
  friend class HarmonyBC;       ///< issues every in-process ticket
  friend class net::NetClient;  ///< wire tickets share the same state type
  TxnTicket(std::shared_ptr<PendingTxn> state, uint64_t client_id,
            uint64_t client_seq)
      : state_(std::move(state)),
        client_id_(client_id),
        client_seq_(client_seq) {}

  std::shared_ptr<PendingTxn> state_;
  uint64_t client_id_ = 0;
  uint64_t client_seq_ = 0;
};

/// A per-client submission handle — the production entry point for anything
/// that needs to know what happened to *its* transactions:
///
///   auto session = db->OpenSession();
///   TxnTicket t = session->Submit({.proc_id = 1, .args = {{from, to, amt}}});
///   const TxnReceipt& r = t.Wait();
///   if (r.outcome == ReceiptOutcome::kCommitted) { ... r.block_id ... }
///
/// The session stamps its client_id on every request and auto-assigns a
/// monotonically increasing client_seq (callers may pre-set client_seq for
/// their own idempotency schemes; duplicates resolve as kRejected).
/// Submit is thread-safe; a session may be shared across threads or one
/// opened per thread — they are cheap.
///
/// Sessions must not outlive the HarmonyBC that opened them; tickets and
/// their receipts may.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Submits one transaction and returns its ticket. Never fails outright:
  /// admission rejections (validation, rate limiting, Busy backpressure,
  /// duplicate client_seq) come back as an already-resolved kRejected
  /// receipt whose status carries the reason.
  TxnTicket Submit(TxnRequest req) { return Submit(std::move(req), nullptr); }

  /// Completion-callback mode: `cb` fires exactly once with the receipt —
  /// on the submitting thread for synchronous rejections, on the replica's
  /// commit thread otherwise. It must not block. The ticket is still
  /// returned for callers that also want to poll/wait. A batch of one.
  TxnTicket Submit(TxnRequest req, ReceiptCallback cb);

  /// Batch submission — the one submit path: every request gets its own
  /// ticket and exactly one receipt, `cb` (shared, may be null) fires once
  /// per request, and the whole batch pays one clock read, one admission
  /// pass per txn into a *single* mempool capacity reservation, and one
  /// sealer wake. Per-request failures (flow-control cap, duplicate, Busy)
  /// resolve synchronously as kRejected without disturbing the rest of the
  /// batch.
  std::vector<TxnTicket> SubmitBatch(std::vector<TxnRequest> reqs,
                                     ReceiptCallback cb = nullptr);

  /// Stamped on every request this session submits (never 0).
  uint64_t client_id() const { return client_id_; }

  const SessionStats& stats() const { return *stats_; }

 private:
  friend class HarmonyBC;
  Session(HarmonyBC* db, uint64_t client_id)
      : db_(db), client_id_(client_id),
        stats_(std::make_shared<SessionStats>()) {}

  /// Stamps the session's client_id and auto-assigns (or advances past) the
  /// request's client_seq.
  void StampIdentity(TxnRequest* req);

  HarmonyBC* db_;
  const uint64_t client_id_;
  std::atomic<uint64_t> next_seq_{0};
  /// Shared with in-flight PendingTxns so receipts resolving after the
  /// session closes still have somewhere safe to count.
  std::shared_ptr<SessionStats> stats_;
};

}  // namespace harmony

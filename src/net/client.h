#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "core/session.h"
#include "net/wire.h"

namespace harmony {
namespace net {

struct NetClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t max_frame_payload = kMaxFramePayload;
  /// Submit coalescing: Submit()s buffer and ship as one BATCH_SUBMIT frame
  /// once this many are pending (clamped to [1, kMaxBatchTxns]) — or once
  /// the oldest buffered submit has waited batch_max_delay_us. 1 frames
  /// each submit on its own, inline, as a one-entry BATCH_SUBMIT.
  size_t batch_max_txns = 1;
  /// Latency bound on coalescing: a partial batch is flushed once its
  /// oldest submit is this old. 0 flushes only on the next Submit at the size
  /// bound or the next control call.
  uint64_t batch_max_delay_us = 200;
};

/// Blocking + callback client for the HarmonyBC wire protocol — the remote
/// mirror of Session::Submit/TxnTicket:
///
///   auto client = net::NetClient::Connect({.host = "...", .port = p});
///   TxnTicket t = (*client)->Submit({.proc_id = 1, .args = {{a, b, amt}}});
///   const TxnReceipt& r = t.Wait();       // same receipt type as in-process
///
/// One TCP connection, one server-side session. Submit stamps a
/// monotonically increasing client_seq (callers may pre-set one; a seq
/// already in flight on this connection is rejected locally), encodes the
/// request with the block codec, and frames it onto the socket inside a
/// BATCH_SUBMIT. A background reader thread resolves tickets from
/// BATCH_RECEIPT frames and hands control-call replies to their callers.
///
/// Receipt fidelity: outcome/status/block_id/retries arrive exactly as the
/// server resolved them. `latency_us` is rewritten to the *wire* round trip
/// (local submit -> receipt decoded) so remote callers measure what they
/// actually experienced, clock skew excluded. Callbacks run on the reader
/// thread and must not block.
///
/// If the connection drops (server close, overload eviction, corrupt
/// stream), every in-flight ticket resolves as kDropped with the close
/// reason — receipts are never silently lost; "dropped" here means "fate
/// unknown to this client", exactly like the in-process Recover()/shutdown
/// contract.
///
/// Thread-safe: every method may be called from any thread; concurrent
/// control calls are told apart by their request ids.
class NetClient {
 public:
  static Result<std::unique_ptr<NetClient>> Connect(
      const NetClientOptions& opts);

  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  TxnTicket Submit(TxnRequest req) { return Submit(std::move(req), nullptr); }
  TxnTicket Submit(TxnRequest req, ReceiptCallback cb);

  /// Waits until every receipt for Submits that returned before this call
  /// has been delivered to this client (server-side per-connection
  /// watermark + wire round trip). False on timeout or connection loss.
  bool Sync(uint64_t timeout_us);

  /// Fetches the server's metrics registry snapshot (per-stage histograms,
  /// slow-txn ring, ingest.* counters — docs/OBSERVABILITY.md).
  Result<obs::MetricsSnapshot> Metrics(uint64_t timeout_us);

  /// Fetches the node's HEALTH self-report (role, chain position, peer
  /// count — docs/OBSERVABILITY.md). Cheap on the server; poll freely.
  Result<WireHealth> Health(uint64_t timeout_us);

  /// One kOpEvents exchange: the retained events from `cursor` on plus the
  /// cursor to pass next time (tail -f loop: feed next_cursor back in).
  struct EventsBatch {
    uint64_t next_cursor = 0;
    std::vector<obs::EventRecord> events;
  };
  Result<EventsBatch> Events(uint64_t cursor, uint64_t timeout_us);

  /// Local aggregate receipt counters (inflight included), mirroring
  /// Session::stats() for the remote session.
  const SessionStats& stats() const { return *stats_; }

  bool connected() const { return !broken_.load(std::memory_order_acquire); }

 private:
  NetClient() : stats_(std::make_shared<SessionStats>()) {}

  void ReaderLoop();
  void FlusherLoop();
  /// Sends the buffered batch now (no-op when empty). Called by Submit at
  /// the size bound, by the flusher at the delay bound, and by Call and the
  /// destructor so nothing they promise is still sitting local.
  void FlushBatch();
  /// One control call (SYNC/METRICS/HEALTH/EVENTS): sends `payload` under
  /// a fresh request id and waits for the reply with that id. Busy on
  /// timeout; the connection's close reason once it is broken.
  Result<std::string> Call(Opcode op, std::string_view payload,
                           uint64_t timeout_us);
  /// Breaks the connection over a reply that does not decode.
  Status BadReply(Opcode op);
  /// Fails every pending ticket and control call with `why`.
  void BreakConnection(const Status& why);
  Status WriteFrame(Opcode op, std::string_view payload,
                    uint16_t request_id = 0);
  void ResolveSeq(uint64_t client_seq, const TxnReceipt& receipt);

  int fd_ = -1;
  size_t max_frame_payload_ = kMaxFramePayload;
  size_t batch_max_txns_ = 1;
  uint64_t batch_max_delay_us_ = 0;
  std::shared_ptr<SessionStats> stats_;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<bool> broken_{false};
  std::thread reader_;

  /// Coalescing buffer: EncodeTxn bytes of Submit()s not yet framed. The
  /// flusher thread enforces the delay bound; Submit enforces the size
  /// bound inline. Buffered submits are already registered in pending_, so
  /// connection loss fails them like any other in-flight ticket.
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::string batch_buf_;
  uint32_t batch_count_ = 0;
  uint64_t batch_oldest_us_ = 0;
  bool flusher_stop_ = false;
  std::thread flusher_;

  std::mutex write_mu_;  ///< serializes whole-frame socket writes

  std::mutex mu_;  ///< pending_ + calls_ + broken_why_
  std::condition_variable cv_;
  struct PendingEntry {
    std::shared_ptr<PendingTxn> entry;
    uint64_t send_time_us = 0;
  };
  std::unordered_map<uint64_t, PendingEntry> pending_;  ///< by client_seq
  /// Control calls by request id. An id stays reserved until its reply
  /// arrives — even after its caller timed out (`abandoned`) — so a stale
  /// reply can never satisfy a newer call.
  struct CallSlot {
    bool replied = false;
    bool abandoned = false;
    std::string reply;
  };
  std::unordered_map<uint16_t, CallSlot> calls_;
  uint16_t next_call_id_ = 0;
  Status broken_why_;
};

}  // namespace net
}  // namespace harmony

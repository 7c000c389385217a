#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/harmonybc.h"
#include "net/wire.h"

namespace harmony {

namespace repl {
class Replicator;
}

namespace net {

struct NetServerOptions {
  std::string bind_addr = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = kernel-assigned; read it back via port()
  /// Acceptor/reactor threads. Each runs its own epoll loop; accepted
  /// connections are dealt round-robin across them.
  size_t reactor_threads = 2;
  size_t max_frame_payload = kMaxFramePayload;
  /// Per-connection bound on queued outbound bytes (receipts the client has
  /// not read yet). A push past this marks the consumer too slow: the queue
  /// is sealed with one ERROR{overloaded} frame and the connection closes
  /// once it flushes — bounded memory, never a silent drop on a live
  /// connection.
  size_t max_write_queue_bytes = 4u << 20;
  /// Stop() waits this long for in-flight receipts to resolve and flush
  /// before tearing connections down.
  uint64_t drain_timeout_us = 10'000'000;
  /// Non-empty = this node is a replication follower fronting no ingress:
  /// BATCH_SUBMIT is answered with a connection-terminal
  /// ERROR{not_supported, "not leader; redirect to <addr>"} so clients
  /// re-dial the leader (docs/REPLICATION.md).
  std::string redirect_addr;
  /// Name this node reports in HEALTH replies (docs/OBSERVABILITY.md).
  std::string node_name;
};

/// Whole-server counters (relaxed; monotonic).
struct NetServerStats {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> closed{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> frames_out{0};
  std::atomic<uint64_t> submits{0};            ///< txns submitted
  std::atomic<uint64_t> batch_submits{0};      ///< BATCH_SUBMIT frames in
  std::atomic<uint64_t> receipts{0};
  std::atomic<uint64_t> batch_receipts{0};     ///< BATCH_RECEIPT frames out
  std::atomic<uint64_t> overloaded_closes{0};  ///< write queue overflow
  std::atomic<uint64_t> corrupt_closes{0};     ///< bad frames / protocol
};

/// Epoll-based TCP frontend over the session API.
///
/// Threading model (docs/NET.md has the full contract):
///  - `reactor_threads` event loops; the listen socket lives on reactor 0
///    and accepted connections are assigned round-robin. Each connection is
///    owned by exactly one reactor: all reads, frame dispatch, epoll
///    re-arming, and the final close happen on that thread.
///  - Each connection gets its own HarmonyBC Session. BATCH_SUBMIT frames
///    are decoded and pushed through Session::SubmitBatch in
///    completion-callback mode; the receipt callback — running on the
///    replica's commit thread (or inline on the reactor for synchronous
///    rejections) — appends a receipt entry to the connection's coalescing
///    buffer and wakes the owning reactor via its eventfd, whose next flush
///    packs the buffer into BATCH_RECEIPT frames. The queue mutex is the
///    only cross-thread touch point per connection.
///  - Every outcome, Busy rejections included (session flow-control cap,
///    admission rate limiting, mempool backpressure), ships as a receipt
///    entry; ERROR frames only ever precede a close.
///
/// Shutdown: Stop() parks all reads, closes the listener, then drains via
/// the completion watermark (HarmonyBC::Sync) so every admitted transaction
/// resolves, waits for per-connection write queues to flush (bounded by
/// drain_timeout_us), and only then tears the reactors down — no receipt
/// for an admitted transaction is silently dropped on a clean shutdown.
///
/// Receipt callbacks registered with the session API may outlive Stop()
/// only until the HarmonyBC resolves them, so destroy the NetServer before
/// the HarmonyBC it fronts; the callbacks themselves hold no raw NetServer
/// pointer (only weak connection references and shared stats), which makes
/// that ordering sufficient rather than load-bearing.
class NetServer {
 public:
  NetServer(HarmonyBC* db, NetServerOptions opts);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  Status Start();
  void Stop();

  /// Wires the leader's replicator in (before Start): REPL_JOIN frames
  /// register their connection as a replication peer, REPLICATE_ACK frames
  /// feed its ack tracking, and peer close unregisters. Without one, every
  /// replication opcode is a protocol violation.
  void SetReplicator(repl::Replicator* r) { replicator_ = r; }

  /// Bound port (after Start); useful with port = 0.
  uint16_t port() const { return port_; }

  const NetServerStats& stats() const { return *stats_; }
  size_t open_connections() const;

 private:
  struct Reactor;

  struct Conn {
    int fd = -1;
    /// Kept as shared_ptrs so a receipt callback that locked this Conn can
    /// finish (queue mutex, eventfd wake, stats bumps) even while the
    /// NetServer is tearing down.
    std::shared_ptr<Reactor> owner;
    std::shared_ptr<NetServerStats> srv_stats;
    size_t wq_cap = 0;
    std::unique_ptr<Session> session;
    FrameReassembler reasm;
    /// Transactions submitted on this connection (owning reactor only; a
    /// BATCH_SUBMIT counts each txn it carries).
    std::atomic<uint64_t> submitted{0};
    /// Receipts resolved; incremented under mu so SYNC-ack registration
    /// cannot miss the catch-up.
    std::atomic<uint64_t> resolved{0};
    /// Set when the connection sent REPL_JOIN (owning reactor only): acks
    /// route to the replicator and close unregisters the peer.
    bool is_repl_peer = false;
    std::string peer_node;

    /// The server's net.flush_us histogram when txn tracing is on, else
    /// null. Set at accept, read under mu (raw pointer into the fronted
    /// HarmonyBC's registry, which outlives the server).
    obs::LatencyHistogram* flush_hist = nullptr;
    /// The fronted HarmonyBC's event log. Set at accept (same lifetime
    /// argument as flush_hist) so the static overload-seal path can emit
    /// an overload_seal event without a NetServer pointer.
    obs::EventLog* events = nullptr;

    // Write side — shared between the owning reactor and receipt callbacks.
    std::mutex mu;
    std::deque<std::string> outq;
    /// Enqueue timestamps, in lockstep with outq (0 = tracing off): each
    /// fully-sent frame records enqueue -> socket write as net.flush_us.
    std::deque<uint64_t> outq_stamps;
    size_t out_bytes = 0;
    size_t out_off = 0;  ///< partial-write offset into outq.front()
    /// Coalescing buffer: length-prefixed receipt entries appended by
    /// receipt callbacks, packed into one or more BATCH_RECEIPT frames by
    /// the owning reactor's next flush. Counted against wq_cap.
    std::string batch_entries;
    uint32_t batch_count = 0;
    /// SYNCs waiting for receipts: (submitted watermark, request id).
    std::vector<std::pair<uint64_t, uint16_t>> pending_syncs;
    bool want_write = false;  ///< EPOLLOUT armed
    bool close_after_flush = false;
    bool overloaded = false;
    bool closed = false;  ///< fd closed; drop further pushes
  };

  struct Reactor {
    ~Reactor();
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: cross-thread "this reactor has work"
    std::thread thread;
    std::mutex mu;  ///< guards conns + incoming + dirty
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    std::vector<std::shared_ptr<Conn>> incoming;  ///< accepted, not yet added
    /// Connections with queued writes. Weak on purpose: a receipt callback
    /// racing Stop() may push here after the reactor was torn down, and a
    /// strong ref would close the Conn::owner ↔ Reactor::dirty cycle into
    /// a leak.
    std::vector<std::weak_ptr<Conn>> dirty;
  };

  void ReactorLoop(size_t idx);
  void AcceptReady();
  void HandleReadable(Reactor& r, const std::shared_ptr<Conn>& conn);
  /// Dispatches one decoded frame; false = protocol error, close.
  bool Dispatch(const std::shared_ptr<Conn>& conn, Frame frame);
  /// Appends a frame to the write queue (overflow -> overloaded seal) and
  /// returns true when the owning reactor must be woken to flush it.
  /// Requires conn.mu.
  static bool EnqueueLocked(Conn& conn, Opcode op, std::string_view payload,
                            uint16_t request_id = 0);
  /// Seals the queue with one terminal ERROR{overloaded} frame (slow
  /// consumer); the connection closes once it flushes. Requires conn.mu.
  static void SealOverloadedLocked(Conn& conn);
  /// Packs the coalescing buffer into BATCH_RECEIPT frame(s) on the write
  /// queue, splitting at kMaxBatchTxns / frame-payload bounds. Requires
  /// conn.mu.
  static void PackBatchLocked(Conn& conn);
  /// Receipt-callback path: buffers the receipt entry, then queues due SYNC
  /// acks behind it. Static on purpose — must stay valid without the
  /// NetServer.
  static void PushReceipt(const std::weak_ptr<Conn>& weak,
                          const TxnReceipt& r);
  /// Writes until EAGAIN/empty; arms/disarms EPOLLOUT; closes after flush
  /// when requested. Runs on the owning reactor.
  void FlushConn(Reactor& r, const std::shared_ptr<Conn>& conn);
  void CloseConn(Reactor& r, const std::shared_ptr<Conn>& conn);
  static void Wake(Reactor& r);

  HarmonyBC* db_;
  NetServerOptions opts_;
  repl::Replicator* replicator_ = nullptr;
  /// net.redirects (docs/OBSERVABILITY.md): submits bounced with a
  /// not-leader redirect. Resolved once from the fronted registry.
  obs::Counter* c_redirects_ = nullptr;
  std::shared_ptr<NetServerStats> stats_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::shared_ptr<Reactor>> reactors_;
  std::atomic<size_t> next_reactor_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  ///< reads parked; accept closed
};

}  // namespace net
}  // namespace harmony

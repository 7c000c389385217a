#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "repl/repl_log.h"
#include "testing/fault.h"

namespace harmony {

class HarmonyBC;
struct Block;

namespace repl {

/// Receipt durability levels (docs/REPLICATION.md).
enum class Durability {
  kLeaderOnly,  ///< receipts resolve once the leader commits (no gate)
  kQuorumAck,   ///< receipts wait for a majority of the cluster to apply
};

struct ReplicatorOptions {
  /// Total voting nodes, leader included; quorum = cluster_size / 2 + 1.
  size_t cluster_size = 1;
  Durability durability = Durability::kLeaderOnly;
  /// A fresh follower (tip 0) joining more than this many blocks behind is
  /// offered a state snapshot instead of the whole block log.
  uint64_t snapshot_after = 64;
};

/// The leader half of networked replication: fans committed blocks out to
/// follower peers, tracks cumulative acks, and (at quorum durability) gates
/// client receipt resolution on a majority of the cluster having applied
/// the block.
///
/// Peers are NetServer connections that sent REPL_JOIN; the server hands
/// each one in as a SendFn (enqueue a frame on that connection, false once
/// it is gone) so this class never touches sockets or reactors directly.
///
/// Threading: OnCommitted runs on the replica's commit thread, OnAck /
/// AddPeer / RemovePeer on reactor threads, GateCommit on the commit
/// thread. One mutex serializes peer/watermark state; gated closures run
/// outside it, in block order.
class Replicator {
 public:
  using SendFn = std::function<bool(net::Opcode, std::string_view)>;

  Replicator(HarmonyBC* db, ReplicatorOptions opts);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Installs the committed-block hook (fan-out) and, at kQuorumAck, the
  /// commit gate on the fronted HarmonyBC. Call once, before traffic.
  void Attach();

  /// Clears both hooks and drops pending gated closures. Call before the
  /// NetServer stops (its drain waits on receipts this gate may hold) and
  /// follow with HarmonyBC::FailPendingReceipts.
  void Detach();

  /// Registers/replaces a replication peer at its reported durable tip.
  /// Fresh peers far behind the chain get a snapshot when one can be built
  /// (see ReplicatorOptions::snapshot_after); everyone then streams the
  /// block tail inside the send window.
  void AddPeer(const std::string& node, BlockId peer_tip, SendFn send);
  void RemovePeer(const std::string& node);

  /// Cumulative ack from a peer: everything through `acked` is applied
  /// there. Advances the quorum watermark and releases due receipts.
  void OnAck(const std::string& node, BlockId acked);

  /// Committed-block hook (HarmonyBC::SetCommittedBlockHook).
  void OnCommitted(const Block& b);

  /// Commit gate (HarmonyBC::SetCommitGate): runs `resolve` once the block
  /// reaches quorum durability (immediately when it already has, or when
  /// the cluster needs no follower acks).
  void GateCommit(BlockId id, std::function<void()> resolve);

  /// Drops gated closures without running them (teardown; the receipts are
  /// failed by HarmonyBC::FailPendingReceipts afterwards).
  void DropPending();

  /// Re-pumps every peer (tests: after healing a partition).
  void PumpAll();

  /// Partition injection for tests: sends to peers the plan cuts off from
  /// the leader (node 0) are suppressed until the plan is cleared. The
  /// plan must outlive its installation; pass nullptr to heal.
  void SetFaultPlan(const testing::NetFaultPlan* plan) {
    fault_plan_.store(plan, std::memory_order_release);
  }

  /// Highest block id known applied by a quorum of the cluster (monotonic;
  /// 0 until the first qualifying ack).
  BlockId quorum_watermark() const;
  size_t num_peers() const;
  uint64_t snapshots_sent() const {
    return snapshots_sent_.load(std::memory_order_relaxed);
  }

 private:
  struct Peer {
    NodeId node_id = 0;  ///< fault-plan id (leader is 0)
    BlockId acked = 0;
    BlockId sent = 0;
    /// First stored record still owed as REPL_CONTEXT (0: none): the
    /// session-start records, from a safe cut through `sent`, that later
    /// REPLICATE records may reference.
    BlockId context_from = 0;
    /// Which AddPeer call owns the peer (unique per join, never reused).
    uint64_t join_gen = 0;
    /// Set while that AddPeer builds the peer's snapshot: PumpLocked sends
    /// nothing, so the stream cannot start from the peer's tip first.
    bool awaiting_snapshot = false;
    SendFn send;
    /// Per-peer instruments (docs/OBSERVABILITY.md), resolved once at
    /// AddPeer — registry names are "<base>.<node>".
    obs::Gauge* g_ack_watermark = nullptr;
    obs::Gauge* g_lag_blocks = nullptr;
    obs::Gauge* g_window_inflight = nullptr;
    /// (block id, send stamp) for in-flight blocks, FIFO; bounded by the
    /// send window. A cumulative ack pops every covered entry and records
    /// send -> ack into repl.ack_rtt_us (leader-side edges only, so the
    /// measurement is clock-skew-free).
    std::deque<std::pair<BlockId, uint64_t>> send_stamps;
  };

  /// Sends any owed REPL_CONTEXT records, then streams blocks (sent, tip]
  /// to the peer inside the send window. Requires mu_.
  void PumpLocked(Peer& p);
  /// Owes the peer the context for a session that streams from sent + 1.
  /// Requires mu_.
  void ResetContextLocked(Peer& p);
  /// Ends the peer's stream with a terminal ERROR telling it to rejoin.
  /// Requires mu_.
  void AbortPeerLocked(Peer& p, const std::string& why);
  /// Refreshes the peer's ack/lag/window gauges. Requires mu_.
  void UpdatePeerGaugesLocked(Peer& p);
  /// Recomputes the watermark from peer acks and moves due gated closures
  /// into `due` (id order). Requires mu_.
  void AdvanceWatermarkLocked(std::vector<std::function<void()>>* due);
  /// Builds a state snapshot at an exact base
  /// (DccProtocol::IsExactSnapshotBase): the drained tip when it is one,
  /// else the next one the commit thread captures while blocks keep
  /// coming. An idle leader stopped short of one is snapshotted at its tip.
  /// Any non-OK means "stream the log tail instead".
  Status BuildSnapshot(net::WireSnapshot* out);
  /// Waits for MaybeCaptureSnapshot while the leader keeps committing.
  /// Busy once a wait slice passes without a commit (idle leader).
  Status AwaitCapturedSnapshot(net::WireSnapshot* out);
  /// Scans the state at committed block `b` for waiting BuildSnapshot
  /// calls when `b` is an exact base. Commit thread only, after `b`'s
  /// writes and before the next block's.
  void MaybeCaptureSnapshot(const Block& b);

  HarmonyBC* db_;
  const ReplicatorOptions opts_;
  ReplicationLog log_;
  std::atomic<const testing::NetFaultPlan*> fault_plan_{nullptr};
  std::atomic<uint64_t> snapshots_sent_{0};
  /// Leader-side instruments (per instance; resolved in the constructor
  /// from the fronted HarmonyBC's registry).
  obs::Gauge* g_peers_connected_ = nullptr;
  obs::Counter* c_snapshots_sent_ = nullptr;
  obs::LatencyHistogram* h_ack_rtt_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, Peer> peers_;
  NodeId next_node_id_ = 1;
  uint64_t last_join_gen_ = 0;
  BlockId quorum_wm_ = 0;
  std::map<BlockId, std::vector<std::function<void()>>> pending_;

  /// Snapshots captured on the commit thread (MaybeCaptureSnapshot).
  std::mutex capture_mu_;
  std::condition_variable capture_cv_;
  std::atomic<size_t> capture_waiters_{0};
  uint64_t capture_gen_ = 0;  ///< bumped per capture; guarded by capture_mu_
  Status capture_status_;
  net::WireSnapshot captured_;
};

}  // namespace repl
}  // namespace harmony

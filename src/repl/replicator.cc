#include "repl/replicator.h"

#include <algorithm>
#include <chrono>

#include "chain/block.h"
#include "common/clock.h"
#include "core/harmonybc.h"
#include "obs/events.h"
#include "testing/crash_point.h"

namespace harmony {
namespace repl {

namespace {
/// Per-peer in-flight bound: blocks sent but not yet acked.
constexpr size_t kSendWindow = 64;
}  // namespace

Replicator::Replicator(HarmonyBC* db, ReplicatorOptions opts)
    : db_(db),
      opts_(opts),
      log_(db->replica()->block_store()) {
  obs::MetricsRegistry* reg = db_->metrics();
  g_peers_connected_ = reg->GetGauge(obs::kGaugePeersConnected);
  c_snapshots_sent_ = reg->GetCounter(obs::kCounterSnapshotsSent);
  h_ack_rtt_ = reg->GetHistogram(obs::kHistAckRtt);
}

Replicator::~Replicator() { Detach(); }

void Replicator::Attach() {
  db_->SetCommittedBlockHook([this](const Block& b) { OnCommitted(b); });
  if (opts_.durability == Durability::kQuorumAck) {
    db_->SetCommitGate([this](BlockId id, std::function<void()> resolve) {
      GateCommit(id, std::move(resolve));
    });
  }
}

void Replicator::Detach() {
  db_->SetCommittedBlockHook(nullptr);
  db_->SetCommitGate(nullptr);
  DropPending();
}

void Replicator::AddPeer(const std::string& node, BlockId peer_tip,
                         SendFn send) {
  uint64_t gen;
  bool want_snapshot;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Peer& p = peers_[node];
    if (p.node_id == 0) p.node_id = next_node_id_++;
    if (p.g_ack_watermark == nullptr) {
      obs::MetricsRegistry* reg = db_->metrics();
      p.g_ack_watermark =
          reg->GetGauge(std::string(obs::kGaugePeerAckWatermark) + "." + node);
      p.g_lag_blocks =
          reg->GetGauge(std::string(obs::kGaugePeerLagBlocks) + "." + node);
      p.g_window_inflight = reg->GetGauge(
          std::string(obs::kGaugePeerWindowInflight) + "." + node);
    }
    p.acked = peer_tip;
    p.sent = peer_tip;
    ResetContextLocked(p);
    p.send = std::move(send);
    p.send_stamps.clear();  // a rejoin invalidates old send edges
    UpdatePeerGaugesLocked(p);
    g_peers_connected_->Set(static_cast<int64_t>(peers_.size()));
    // A snapshot is warranted for a fresh joiner with a long log tail, and
    // *required* for a joiner whose next block was truncated away: the
    // first retained record is first_block_id(), so a peer at tip t can
    // only be caught up from the log when t + 1 >= first.
    const BlockId first = db_->replica()->block_store()->first_block_id();
    want_snapshot =
        (peer_tip == 0 && log_.tip() > opts_.snapshot_after) ||
        (first > 1 && peer_tip + 1 < first);
    gen = p.join_gen = ++last_join_gen_;
    // Hold the stream until the snapshot is sent or given up; otherwise the
    // commit hook would stream the peer from its tip in the meantime.
    p.awaiting_snapshot = want_snapshot;
  }
  db_->events()->Emit(obs::EventSeverity::kInfo,
                      obs::EventCode::kFollowerJoin,
                      node + " @ tip " + std::to_string(peer_tip));
  net::WireSnapshot snap;
  std::string payload;
  // A failed build or an oversized payload gives the snapshot up: the log
  // tail covers the peer instead.
  bool have_snapshot = false;
  if (want_snapshot && BuildSnapshot(&snap).ok() &&
      snap.base_block > peer_tip) {
    net::EncodeSnapshot(snap, &payload);
    have_snapshot = payload.size() <= net::kMaxFramePayload;
  }
  bool sent = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = peers_.find(node);
    // The peer may have dropped, or re-joined and so belong to a newer
    // AddPeer, while the snapshot was building.
    if (it == peers_.end() || it->second.join_gen != gen) return;
    Peer& p = it->second;
    p.awaiting_snapshot = false;
    if (have_snapshot && p.send) {
      if (p.send(net::Opcode::kOpReplSnapshot, payload)) {
        p.sent = snap.base_block;
        ResetContextLocked(p);
        snapshots_sent_.fetch_add(1, std::memory_order_relaxed);
        c_snapshots_sent_->Add(1);
        sent = true;
      } else {
        p.send = nullptr;  // connection gone; RemovePeer follows from close
      }
    }
    PumpLocked(p);
  }
  if (sent) {
    db_->events()->Emit(obs::EventSeverity::kInfo,
                        obs::EventCode::kSnapshotSent,
                        node + " @ base " + std::to_string(snap.base_block));
  }
}

void Replicator::RemovePeer(const std::string& node) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = peers_.find(node);
    if (it == peers_.end()) return;
    // The gauges survive the peer entry: last-known ack/lag stay readable
    // (a rejoin re-resolves the same names), but nothing is in flight.
    if (it->second.g_window_inflight != nullptr) {
      it->second.g_window_inflight->Set(0);
    }
    peers_.erase(it);
    g_peers_connected_->Set(static_cast<int64_t>(peers_.size()));
    // The watermark stays: blocks a departed follower acked are still
    // applied on its disk; monotonicity is what the gated receipts relied
    // on.
  }
  db_->events()->Emit(obs::EventSeverity::kWarn,
                      obs::EventCode::kFollowerLeave, node);
}

void Replicator::OnAck(const std::string& node, BlockId acked) {
  std::vector<std::function<void()>> due;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = peers_.find(node);
    if (it == peers_.end()) return;
    Peer& p = it->second;
    if (acked > p.acked) p.acked = acked;
    if (acked > p.sent) p.sent = acked;  // snapshot install acks past sent
    if (!p.send_stamps.empty() && p.send_stamps.front().first <= acked) {
      // One clock read per ack covers every block the cumulative ack
      // retired; both edges are leader-local, so skew cannot distort it.
      const uint64_t now = NowMicros();
      while (!p.send_stamps.empty() &&
             p.send_stamps.front().first <= acked) {
        const uint64_t sent_at = p.send_stamps.front().second;
        h_ack_rtt_->Record(now > sent_at ? now - sent_at : 0);
        p.send_stamps.pop_front();
      }
    }
    AdvanceWatermarkLocked(&due);
    PumpLocked(p);
    UpdatePeerGaugesLocked(p);
  }
  for (auto& resolve : due) resolve();
}

void Replicator::OnCommitted(const Block& b) {
  HARMONY_CRASH_POINT("repl.leader.before_fanout");
  log_.Append(b);
  MaybeCaptureSnapshot(b);
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [node, p] : peers_) PumpLocked(p);
}

void Replicator::GateCommit(BlockId id, std::function<void()> resolve) {
  const size_t quorum = opts_.cluster_size / 2 + 1;
  const size_t follower_acks_needed = quorum - 1;  // the leader is one vote
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (opts_.durability == Durability::kQuorumAck &&
        follower_acks_needed > 0 && id > quorum_wm_) {
      pending_[id].push_back(std::move(resolve));
      return;
    }
  }
  resolve();
}

void Replicator::DropPending() {
  std::lock_guard<std::mutex> lk(mu_);
  pending_.clear();
}

void Replicator::PumpAll() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [node, p] : peers_) PumpLocked(p);
}

BlockId Replicator::quorum_watermark() const {
  std::lock_guard<std::mutex> lk(mu_);
  return quorum_wm_;
}

size_t Replicator::num_peers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peers_.size();
}

void Replicator::ResetContextLocked(Peer& p) {
  const BlockId next = p.sent + 1;
  const BlockId from = db_->replica()->block_store()->ContextStart(next);
  p.context_from = from < next ? from : 0;
}

void Replicator::AbortPeerLocked(Peer& p, const std::string& why) {
  net::WireError err;
  err.code = Status::Code::kAborted;
  err.message = why;
  std::string payload;
  net::EncodeError(err, &payload);
  p.send(net::Opcode::kOpError, payload);
  p.send = nullptr;  // terminal for this connection; close follows
  UpdatePeerGaugesLocked(p);
}

void Replicator::PumpLocked(Peer& p) {
  if (!p.send || p.awaiting_snapshot) return;
  const testing::NetFaultPlan* plan =
      fault_plan_.load(std::memory_order_acquire);
  if (plan != nullptr && plan->Partitioned(/*leader=*/0, p.node_id)) return;
  if (p.context_from != 0) {
    // Session start: the stored records from a safe cut through the peer's
    // start, so the follower can resolve references into them. They are
    // the same stored bytes REPLICATE would carry; nothing is decoded.
    const size_t n = p.sent + 1 - p.context_from;
    std::vector<std::pair<BlockId, std::string>> context;
    if (!log_.Fetch(p.context_from - 1, n, &context).ok() ||
        context.size() != n || context.front().first != p.context_from) {
      AbortPeerLocked(p, "log truncated below " +
                             std::to_string(p.context_from) +
                             "; rejoin for a snapshot");
      return;
    }
    for (auto& [id, payload] : context) {
      if (!p.send(net::Opcode::kOpReplContext, payload)) {
        p.send = nullptr;  // connection gone; RemovePeer follows from close
        UpdatePeerGaugesLocked(p);
        return;
      }
    }
    p.context_from = 0;
  }
  const BlockId tip = log_.tip();
  while (p.sent < tip && p.sent - p.acked < kSendWindow) {
    const size_t room = kSendWindow - (p.sent - p.acked);
    std::vector<std::pair<BlockId, std::string>> batch;
    // Store reads under mu_ stall fan-out, not commits' durability — the
    // commit thread only enters here after the block is locally durable.
    if (!log_.Fetch(p.sent, room, &batch).ok() || batch.empty()) break;
    if (batch.front().first != p.sent + 1) {
      // Retention truncated the blocks this peer needs out from under it
      // (it joined before the tail was dropped). Streaming the gap would
      // desync the follower's chain; tell it to rejoin — the fresh AddPeer
      // sees first_block_id() > peer tip and serves a snapshot instead.
      AbortPeerLocked(p, "log truncated below " +
                             std::to_string(batch.front().first) +
                             "; rejoin for a snapshot");
      return;
    }
    const uint64_t now = NowMicros();  // one stamp per fetched batch
    for (auto& [id, payload] : batch) {
      if (!p.send(net::Opcode::kOpReplicate, payload)) {
        p.send = nullptr;  // connection gone; RemovePeer follows from close
        UpdatePeerGaugesLocked(p);
        return;
      }
      p.sent = id;
      p.send_stamps.emplace_back(id, now);
    }
  }
  UpdatePeerGaugesLocked(p);
}

void Replicator::UpdatePeerGaugesLocked(Peer& p) {
  if (p.g_ack_watermark == nullptr) return;
  const BlockId tip = log_.tip();
  p.g_ack_watermark->Set(static_cast<int64_t>(p.acked));
  p.g_lag_blocks->Set(
      tip > p.acked ? static_cast<int64_t>(tip - p.acked) : 0);
  p.g_window_inflight->Set(
      p.sent > p.acked ? static_cast<int64_t>(p.sent - p.acked) : 0);
}

void Replicator::AdvanceWatermarkLocked(
    std::vector<std::function<void()>>* due) {
  const size_t quorum = opts_.cluster_size / 2 + 1;
  const size_t k = quorum - 1;  // follower acks needed per block
  if (k == 0) return;           // nothing ever gates
  std::vector<BlockId> acks;
  acks.reserve(peers_.size());
  for (const auto& [node, p] : peers_) acks.push_back(p.acked);
  if (acks.size() < k) return;
  std::sort(acks.begin(), acks.end(), std::greater<BlockId>());
  const BlockId candidate = acks[k - 1];  // k-th highest cumulative ack
  if (candidate <= quorum_wm_) return;
  quorum_wm_ = candidate;
  while (!pending_.empty() && pending_.begin()->first <= quorum_wm_) {
    for (auto& resolve : pending_.begin()->second) {
      due->push_back(std::move(resolve));
    }
    pending_.erase(pending_.begin());
  }
}

Status Replicator::BuildSnapshot(net::WireSnapshot* out) {
  Replica* rep = db_->replica();
  // Stability protocol: drain / scan / drain. If the committed tip is the
  // same on both sides of the scan, no commit wrote the backend during it
  // (a commit in flight during the scan finishes inside the second Drain
  // and bumps the tip, which we would see). Bounded retries; a leader too
  // busy to hold still just streams the log tail instead.
  bool idle_at_tip = false;
  for (int attempt = 0; attempt < 5; attempt++) {
    HARMONY_RETURN_NOT_OK(rep->Drain());
    const BlockId before = rep->last_committed();
    if (before == 0) return Status::NotFound("nothing to snapshot");
    if (!idle_at_tip && !rep->protocol()->IsExactSnapshotBase(before)) {
      // The follower could not execute the next block exactly from this
      // state. Take the next exact base if blocks keep coming.
      Status s = AwaitCapturedSnapshot(out);
      if (!s.IsBusy()) return s;
      idle_at_tip = true;
      continue;
    }
    out->rows.clear();
    HARMONY_RETURN_NOT_OK(rep->ScanState(&out->rows));
    HARMONY_RETURN_NOT_OK(rep->Drain());
    if (rep->last_committed() != before) continue;
    if (out->rows.size() > net::kMaxSnapshotRows) {
      return Status::NotSupported("state too large for a snapshot frame");
    }
    Block tip_block;
    HARMONY_RETURN_NOT_OK(rep->block_store()->ReadLast(&tip_block));
    if (tip_block.header.block_id != before) continue;
    out->base_block = before;
    out->tip_hash = tip_block.header.block_hash;
    out->leader_tip = log_.tip();
    return Status::OK();
  }
  return Status::Busy("leader too busy for a stable snapshot");
}

Status Replicator::AwaitCapturedSnapshot(net::WireSnapshot* out) {
  Replica* rep = db_->replica();
  std::unique_lock<std::mutex> lk(capture_mu_);
  const uint64_t gen = capture_gen_;
  capture_waiters_.fetch_add(1, std::memory_order_acq_rel);
  bool captured = false;
  BlockId seen = rep->last_committed();
  // Wait while the leader keeps committing; a slice without a commit means
  // it went idle short of an exact base.
  for (int slice = 0; slice < 50 && !captured; slice++) {
    captured = capture_cv_.wait_for(lk, std::chrono::milliseconds(200),
                                    [&] { return capture_gen_ != gen; });
    const BlockId now = rep->last_committed();
    if (now == seen) break;
    seen = now;
  }
  capture_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  if (!captured) {
    return Status::Busy("leader idle short of an exact snapshot base");
  }
  HARMONY_RETURN_NOT_OK(capture_status_);
  *out = captured_;
  out->leader_tip = log_.tip();
  return Status::OK();
}

void Replicator::MaybeCaptureSnapshot(const Block& b) {
  if (capture_waiters_.load(std::memory_order_acquire) == 0) return;
  Replica* rep = db_->replica();
  const BlockId id = b.header.block_id;
  if (!rep->protocol()->IsExactSnapshotBase(id)) return;
  // Commits run one at a time on this thread, so the backend holds exactly
  // the state at `id` until this returns.
  net::WireSnapshot snap;
  Status s = rep->ScanState(&snap.rows);
  if (s.ok() && snap.rows.size() > net::kMaxSnapshotRows) {
    s = Status::NotSupported("state too large for a snapshot frame");
  }
  snap.base_block = id;
  snap.tip_hash = b.header.block_hash;
  {
    std::lock_guard<std::mutex> lk(capture_mu_);
    capture_status_ = s;
    captured_ = std::move(snap);
    capture_gen_++;
  }
  capture_cv_.notify_all();
}

}  // namespace repl
}  // namespace harmony

#include "repl/follower.h"

#include <algorithm>
#include <chrono>

#include "chain/block.h"
#include "common/clock.h"
#include "core/harmonybc.h"
#include "obs/events.h"
#include "testing/crash_point.h"

namespace harmony {
namespace repl {

Follower::Follower(HarmonyBC* db, FollowerOptions opts)
    : db_(db), opts_(std::move(opts)) {
  obs::MetricsRegistry* reg = db_->metrics();
  g_durable_tip_ = reg->GetGauge(obs::kGaugeDurableTip);
  c_reconnects_ = reg->GetCounter(obs::kCounterReconnects);
  c_gap_rejects_ = reg->GetCounter(obs::kCounterGapRejects);
  h_apply_ = reg->GetHistogram(obs::kHistReplApply);
}

Follower::~Follower() { Stop(); }

Status Follower::Start() {
  if (thread_.joinable()) {
    return Status::InvalidArgument("follower already started");
  }
  if (!db_->options().follower_mode) {
    return Status::InvalidArgument(
        "Follower requires HarmonyBC::Options::follower_mode");
  }
  stop_.store(false, std::memory_order_release);
  // Ack from the commit hook: the block is applied (executed + committed)
  // here before the ack leaves — the leader's quorum counts real
  // durability, not receipt of bytes.
  db_->SetCommittedBlockHook([this](const Block& b) {
    HARMONY_CRASH_POINT("repl.follower.before_ack");
    last_applied_.store(b.header.block_id, std::memory_order_release);
    g_durable_tip_->Set(static_cast<int64_t>(b.header.block_id));
    if (std::shared_ptr<PeerLink> l = link()) {
      std::string payload;
      net::EncodeReplAck(b.header.block_id, &payload);
      (void)l->Send(net::Opcode::kOpReplicateAck, payload);
      // A failed send means the link died; the apply loop sees the same
      // failure and re-joins at its durable tip, which re-acks implicitly.
    }
  });
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Follower::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  wait_cv_.notify_all();
  if (std::shared_ptr<PeerLink> l = link()) l->Close();
  thread_.join();
  db_->SetCommittedBlockHook(nullptr);
  // A commit in flight when the hook cleared may still run a copy of it;
  // drain so nothing touches a dead link after we return.
  (void)db_->replica()->Drain();
  {
    std::lock_guard<std::mutex> lk(link_mu_);
    link_.reset();
  }
}

void Follower::Loop() {
  uint64_t backoff = opts_.reconnect_backoff_us;
  while (!stop_.load(std::memory_order_acquire)) {
    const Status why = RunSession();
    connected_.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(link_mu_);
      if (link_) link_->Close();
      link_.reset();
    }
    if (stop_.load(std::memory_order_acquire)) break;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    c_reconnects_->Add(1);
    db_->events()->Emit(
        obs::EventSeverity::kWarn, obs::EventCode::kReconnect,
        why.ToString() + "; retry in " + std::to_string(backoff) + "us");
    std::unique_lock<std::mutex> lk(wait_mu_);
    wait_cv_.wait_for(lk, std::chrono::microseconds(backoff), [this] {
      return stop_.load(std::memory_order_acquire);
    });
    backoff = std::min(backoff * 2, opts_.reconnect_backoff_max_us);
  }
}

Status Follower::RunSession() {
  auto dialed = PeerLink::Dial(opts_.leader_host, opts_.leader_port);
  if (!dialed.ok()) return dialed.status();
  std::shared_ptr<PeerLink> l = std::move(dialed.value());
  {
    std::lock_guard<std::mutex> lk(link_mu_);
    link_ = l;
  }
  if (stop_.load(std::memory_order_acquire)) {
    return Status::Aborted("stopping");
  }

  // Join at the durable chain tip: every block at or below it is in the
  // local log (recovery replays it), so the leader must resume after it.
  BlockId tip = db_->replica()->block_store()->last_block_id();
  net::WireReplJoin join;
  join.node = opts_.node;
  join.last_block_id = tip;
  std::string payload;
  net::EncodeReplJoin(join, &payload);
  HARMONY_RETURN_NOT_OK(l->Send(net::Opcode::kOpReplJoin, payload));
  connected_.store(true, std::memory_order_release);

  // This session's recent blocks, context and streamed alike: REPLICATE
  // records may reference them (docs/REPLICATION.md).
  RefWindow window;
  for (;;) {
    net::Frame frame;
    HARMONY_RETURN_NOT_OK(l->Recv(&frame));
    switch (frame.opcode) {
      case net::Opcode::kOpReplContext:
      case net::Opcode::kOpReplicate: {
        Block b;
        if (!net::DecodeReplicate(frame.payload, &b, &window)) {
          return Status::Corruption(std::string("bad ") +
                                    net::OpcodeName(frame.opcode) +
                                    " payload");
        }
        window.Push(b);
        const BlockId id = b.header.block_id;
        if (frame.opcode == net::Opcode::kOpReplContext) {
          // Context only seeds the window; it is never applied.
          if (id > tip) {
            return Status::Corruption("REPL_CONTEXT past the durable tip");
          }
          break;
        }
        if (id <= tip) {
          // Resend of something already durable here (an ack the leader
          // missed): re-ack cumulatively instead of re-applying.
          std::string ack;
          net::EncodeReplAck(tip, &ack);
          HARMONY_RETURN_NOT_OK(l->Send(net::Opcode::kOpReplicateAck, ack));
          continue;
        }
        if (id != tip + 1) {
          c_gap_rejects_->Add(1);
          db_->events()->Emit(
              obs::EventSeverity::kError, obs::EventCode::kGapReject,
              "have " + std::to_string(tip) + ", got " + std::to_string(id));
          return Status::Corruption(
              "replication gap: have " + std::to_string(tip) + ", got " +
              std::to_string(id));
        }
        HARMONY_CRASH_POINT("repl.follower.before_apply");
        const uint64_t t0 = NowMicros();
        HARMONY_RETURN_NOT_OK(db_->replica()->SubmitBlock(std::move(b)));
        const uint64_t t1 = NowMicros();
        h_apply_->Record(t1 > t0 ? t1 - t0 : 0);
        tip = id;  // pipelined: applied (and acked) by the commit thread
        break;
      }
      case net::Opcode::kOpReplSnapshot: {
        net::WireSnapshot snap;
        if (!net::DecodeSnapshot(frame.payload, &snap)) {
          return Status::Corruption("bad SNAPSHOT payload");
        }
        HARMONY_RETURN_NOT_OK(db_->replica()->InstallSnapshot(
            snap.base_block, snap.tip_hash, snap.rows));
        snapshots_.fetch_add(1, std::memory_order_relaxed);
        tip = snap.base_block;
        last_applied_.store(tip, std::memory_order_release);
        g_durable_tip_->Set(static_cast<int64_t>(tip));
        db_->events()->Emit(
            obs::EventSeverity::kInfo, obs::EventCode::kSnapshotInstall,
            "base " + std::to_string(tip) + ", " +
                std::to_string(snap.rows.size()) + " rows");
        // No commit fires for an installed snapshot; ack it explicitly so
        // the leader's window opens past the base.
        std::string ack;
        net::EncodeReplAck(tip, &ack);
        HARMONY_RETURN_NOT_OK(l->Send(net::Opcode::kOpReplicateAck, ack));
        break;
      }
      case net::Opcode::kOpError: {
        net::WireError e;
        std::string msg = "leader closed the stream";
        if (net::DecodeError(frame.payload, &e)) msg = e.message;
        return Status::Aborted(msg);
      }
      default:
        return Status::Corruption(
            std::string("unexpected opcode on replication link: ") +
            net::OpcodeName(frame.opcode));
    }
  }
}

}  // namespace repl
}  // namespace harmony

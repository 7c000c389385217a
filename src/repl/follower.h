#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "repl/peer_link.h"

namespace harmony {

class HarmonyBC;

namespace repl {

struct FollowerOptions {
  std::string node = "follower";        ///< name reported in REPL_JOIN
  std::string leader_host = "127.0.0.1";
  uint16_t leader_port = 0;
  uint64_t reconnect_backoff_us = 200'000;      ///< initial; doubles
  uint64_t reconnect_backoff_max_us = 2'000'000;
};

/// The follower half of networked replication: dials the leader, announces
/// its durable chain tip with REPL_JOIN, applies the REPLICATE stream
/// through the local replica's ordinary SubmitBlock path (chain-verified,
/// persisted, executed — exactly like a locally sealed block, except that
/// the log appends the leader's record bytes as received wherever their
/// references resolve in it), and acks
/// each block from the commit hook once it is applied. A fresh follower too
/// far behind receives a REPL_SNAPSHOT first and installs it. Each session
/// opens with REPL_CONTEXT records, decoded into the session's reference
/// window but not applied.
///
/// The fronted HarmonyBC must have Options::follower_mode set: its sealer
/// never runs and its commit callback must not requeue CC aborts (the
/// leader's retries arrive as later replicated blocks).
///
/// A lost link re-dials with exponential backoff and re-joins at the new
/// durable tip, so the leader resumes (or snapshots) from the right place —
/// kill/rejoin catch-up needs no special casing.
class Follower {
 public:
  Follower(HarmonyBC* db, FollowerOptions opts);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Installs the ack hook and starts the connect/apply loop.
  Status Start();
  /// Clears the hook, closes the link, joins the loop.
  void Stop();

  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  /// Highest block id applied (committed) through the replication stream.
  BlockId last_applied() const {
    return last_applied_.load(std::memory_order_acquire);
  }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  uint64_t snapshots_installed() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  /// One connect -> join -> apply session; returns why it ended.
  Status RunSession();
  std::shared_ptr<PeerLink> link() {
    std::lock_guard<std::mutex> lk(link_mu_);
    return link_;
  }

  HarmonyBC* db_;
  const FollowerOptions opts_;

  /// Follower-side instruments (docs/OBSERVABILITY.md), resolved once in
  /// the constructor from the fronted HarmonyBC's registry. Apply latency
  /// and durable tip are timed/read entirely on this node, so the metrics
  /// are clock-skew-free.
  obs::Gauge* g_durable_tip_ = nullptr;
  obs::Counter* c_reconnects_ = nullptr;
  obs::Counter* c_gap_rejects_ = nullptr;
  obs::LatencyHistogram* h_apply_ = nullptr;

  std::mutex link_mu_;
  std::shared_ptr<PeerLink> link_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> connected_{false};
  std::atomic<BlockId> last_applied_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> snapshots_{0};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;  ///< interruptible backoff sleep
  std::thread thread_;
};

}  // namespace repl
}  // namespace harmony

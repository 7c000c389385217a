#pragma once

// The system under test, built through its production surface: a single
// HarmonyBC served to in-process sessions, or a leader (HarmonyBC +
// repl::Replicator + net::NetServer) with in-process repl::Follower nodes,
// served to loopback net::NetClients — wired the way harmonyd wires them.

#include <memory>
#include <string>
#include <vector>

#include "adapter.h"
#include "core/harmonybc.h"
#include "ledger.h"
#include "net/client.h"
#include "net/server.h"
#include "repl/follower.h"
#include "repl/replicator.h"

namespace harmonybench {

/// One load thread's connection: an in-process Session or a NetClient.
class LoadClient {
 public:
  virtual ~LoadClient() = default;
  virtual void Submit(harmony::TxnRequest req,
                      harmony::ReceiptCallback cb) = 0;
};

class Deployment {
 public:
  /// Opens every node under `dir` (which must not exist yet), loads the
  /// workload's genesis, recovers, and — for a cluster — starts the
  /// frontend and waits until every follower has joined and caught up.
  /// `spans` (may be null) receives one span per public call.
  static harmony::Result<std::unique_ptr<Deployment>> Create(
      const WorkloadSpec& spec, const std::string& dir, bool tracing,
      SpanLog* spans);

  /// Stops followers, detaches replication, stops the frontend, then
  /// closes every node. Clients must be destroyed first.
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  harmony::Result<std::unique_ptr<LoadClient>> NewClient();

  harmony::HarmonyBC* leader() { return leader_.get(); }
  /// Followers' databases (empty in-process).
  std::vector<harmony::HarmonyBC*> followers();
  const std::string& leader_dir() const { return leader_dir_; }
  /// Names the followers join under (leader gauges are keyed by them).
  std::vector<std::string> follower_names() const;

  /// Waits until every follower has applied through the leader's height.
  harmony::Status WaitReplicated(uint64_t timeout_us);

 private:
  explicit Deployment(const WorkloadSpec& spec) : spec_(spec) {}

  struct FollowerNode {
    std::string name;
    std::unique_ptr<harmony::HarmonyBC> db;
    std::unique_ptr<harmony::repl::Follower> repl;
  };

  harmony::Result<std::unique_ptr<harmony::HarmonyBC>> OpenNode(
      const std::string& dir, bool follower, bool tracing, SpanLog* spans,
      uint64_t parent);

  const WorkloadSpec spec_;
  std::string leader_dir_;
  std::unique_ptr<harmony::HarmonyBC> leader_;
  std::unique_ptr<harmony::repl::Replicator> replicator_;
  std::unique_ptr<harmony::net::NetServer> server_;
  std::vector<FollowerNode> followers_;
};

}  // namespace harmonybench

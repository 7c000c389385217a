#include "deployment.h"

#include <filesystem>
#include <thread>

#include "common/clock.h"

namespace harmonybench {

using harmony::HarmonyBC;
using harmony::Result;
using harmony::Status;

namespace {

class SessionClient : public LoadClient {
 public:
  explicit SessionClient(std::unique_ptr<harmony::Session> session)
      : session_(std::move(session)) {}
  void Submit(harmony::TxnRequest req, harmony::ReceiptCallback cb) override {
    session_->Submit(std::move(req), std::move(cb));
  }

 private:
  std::unique_ptr<harmony::Session> session_;
};

class WireClient : public LoadClient {
 public:
  explicit WireClient(std::unique_ptr<harmony::net::NetClient> client)
      : client_(std::move(client)) {}
  void Submit(harmony::TxnRequest req, harmony::ReceiptCallback cb) override {
    client_->Submit(std::move(req), std::move(cb));
  }

 private:
  std::unique_ptr<harmony::net::NetClient> client_;
};

constexpr uint64_t kJoinTimeoutUs = 30'000'000;

}  // namespace

Result<std::unique_ptr<HarmonyBC>> Deployment::OpenNode(
    const std::string& dir, bool follower, bool tracing, SpanLog* spans,
    uint64_t parent) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
  HarmonyBC::Options o = spec_.db;
  o.dir = dir;
  o.enable_tracing = tracing;
  o.follower_mode = follower;
  if (tracing) o.dcc.enable_false_abort_oracle = true;

  std::unique_ptr<HarmonyBC> db;
  {
    ScopedSpan span(spans, "HarmonyBC::Open", parent);
    auto opened = HarmonyBC::Open(o);
    if (!opened.ok()) return opened.status();
    db = std::move(*opened);
  }
  {
    ScopedSpan span(spans, "Workload::Setup", parent);
    // Genesis does not depend on the stream seed; every node loads the
    // same rows.
    auto genesis = MakeWorkload(spec_, /*seed=*/0);
    HARMONY_RETURN_NOT_OK(SetupWorkload(db.get(), genesis.get(), spec_.mix));
  }
  {
    ScopedSpan span(spans, "HarmonyBC::Recover", parent);
    auto tip = db->Recover();
    if (!tip.ok()) return tip.status();
  }
  return db;
}

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const WorkloadSpec& spec, const std::string& dir, bool tracing,
    SpanLog* spans) {
  std::unique_ptr<Deployment> d(new Deployment(spec));
  ScopedSpan setup(spans, "setup");
  d->leader_dir_ = dir + "/leader";
  auto leader = d->OpenNode(d->leader_dir_, /*follower=*/false, tracing,
                            spans, setup.id());
  if (!leader.ok()) return leader.status();
  d->leader_ = std::move(*leader);
  if (!spec.cluster) return d;

  harmony::repl::ReplicatorOptions ro;
  ro.cluster_size = spec.cluster_size;
  ro.durability = harmony::repl::Durability::kQuorumAck;
  d->replicator_ =
      std::make_unique<harmony::repl::Replicator>(d->leader_.get(), ro);
  d->replicator_->Attach();

  harmony::net::NetServerOptions so;
  so.port = 0;
  so.reactor_threads = spec.reactor_threads;
  so.node_name = "leader";
  d->server_ =
      std::make_unique<harmony::net::NetServer>(d->leader_.get(), so);
  d->server_->SetReplicator(d->replicator_.get());
  {
    ScopedSpan span(spans, "NetServer::Start", setup.id());
    HARMONY_RETURN_NOT_OK(d->server_->Start());
  }

  for (size_t i = 1; i < spec.cluster_size; i++) {
    FollowerNode f;
    f.name = "f" + std::to_string(i);
    auto db = d->OpenNode(dir + "/" + f.name, /*follower=*/true, tracing,
                          spans, setup.id());
    if (!db.ok()) return db.status();
    f.db = std::move(*db);
    harmony::repl::FollowerOptions fo;
    fo.node = f.name;
    fo.leader_port = d->server_->port();
    fo.reconnect_backoff_us = 20'000;
    fo.reconnect_backoff_max_us = 100'000;
    f.repl = std::make_unique<harmony::repl::Follower>(f.db.get(), fo);
    {
      ScopedSpan span(spans, "Follower::Start", setup.id());
      HARMONY_RETURN_NOT_OK(f.repl->Start());
    }
    d->followers_.push_back(std::move(f));
  }

  ScopedSpan catch_up(spans, "follower catch-up", setup.id());
  const uint64_t deadline = harmony::NowMicros() + kJoinTimeoutUs;
  while (d->replicator_->num_peers() + 1 < spec.cluster_size) {
    if (harmony::NowMicros() > deadline) {
      return Status::Busy("followers did not join the leader");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  HARMONY_RETURN_NOT_OK(d->WaitReplicated(kJoinTimeoutUs));
  return d;
}

Deployment::~Deployment() {
  // harmonyd's shutdown order: followers stop dialling, the leader drops
  // its commit gate (the frontend drain would otherwise wait on receipts
  // no ack can release) and fails what it held, then the frontend stops.
  for (FollowerNode& f : followers_) {
    if (f.repl != nullptr) f.repl->Stop();
  }
  if (replicator_ != nullptr) {
    replicator_->Detach();
    leader_->FailPendingReceipts(Status::Aborted("benchmark teardown"));
  }
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  replicator_.reset();
  followers_.clear();
  leader_.reset();
}

Result<std::unique_ptr<LoadClient>> Deployment::NewClient() {
  if (!spec_.cluster) {
    return std::unique_ptr<LoadClient>(
        new SessionClient(leader_->OpenSession()));
  }
  harmony::net::NetClientOptions co;
  co.port = server_->port();
  co.batch_max_txns = spec_.net_batch_txns;
  co.batch_max_delay_us = spec_.net_batch_delay_us;
  auto client = harmony::net::NetClient::Connect(co);
  if (!client.ok()) return client.status();
  return std::unique_ptr<LoadClient>(new WireClient(std::move(*client)));
}

std::vector<HarmonyBC*> Deployment::followers() {
  std::vector<HarmonyBC*> out;
  for (FollowerNode& f : followers_) out.push_back(f.db.get());
  return out;
}

std::vector<std::string> Deployment::follower_names() const {
  std::vector<std::string> out;
  for (const FollowerNode& f : followers_) out.push_back(f.name);
  return out;
}

Status Deployment::WaitReplicated(uint64_t timeout_us) {
  const uint64_t deadline = harmony::NowMicros() + timeout_us;
  for (;;) {
    const harmony::BlockId tip = leader_->height();
    bool all = true;
    for (FollowerNode& f : followers_) {
      all = all && f.repl->connected() && f.repl->last_applied() >= tip &&
            f.db->height() >= tip;
    }
    if (all) return Status::OK();
    if (harmony::NowMicros() > deadline) {
      return Status::Busy("followers stuck below leader tip " +
                          std::to_string(tip));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace harmonybench

// Networked replication (src/repl/, docs/REPLICATION.md): codec hostility,
// leader -> follower loopback end-to-end, byte-identical follower logs,
// refusal of tampered records, quorum-ack receipt gating, kill/rejoin
// catch-up, snapshot install, and partition behaviour — all in-process over
// real sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chain/block.h"
#include "chain/block_store.h"
#include "common/clock.h"
#include "core/harmonybc.h"
#include "replica/replica.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/events.h"
#include "repl/follower.h"
#include "repl/replicator.h"
#include "testing/fault.h"
#include "tests/test_util.h"
#include "txn/txn_context.h"

namespace harmony {
namespace {

using net::Frame;
using net::FrameReassembler;
using net::Opcode;

constexpr uint64_t kWaitUs = 30'000'000;

Status Transfer(TxnContext& ctx, const ProcArgs& a) {
  Value src;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
  if (src.field(0) < a.at(2)) return Status::Aborted("insufficient");
  ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
  ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
  return Status::OK();
}

Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
  return Status::OK();
}

HarmonyBC::Options FastOpts(const std::string& dir) {
  HarmonyBC::Options o;
  o.dir = dir;
  o.disk = DiskModel::RamDisk();
  o.block_size = 8;
  o.threads = 4;
  o.checkpoint_every = 4;
  o.max_block_delay_us = 5'000;
  return o;
}

TxnRequest TransferReq(int64_t from, int64_t to, int64_t amount) {
  TxnRequest t;
  t.proc_id = 1;
  t.args.ints = {from, to, amount};
  return t;
}

bool WaitUntil(const std::function<bool()>& pred,
               uint64_t timeout_us = kWaitUs) {
  const uint64_t deadline = NowMicros() + timeout_us;
  while (NowMicros() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Adjusts a node's options before it opens (nullptr: FastOpts as is).
using OptionsTweak = std::function<void(HarmonyBC::Options*)>;

/// A leader process in miniature: HarmonyBC + Replicator + NetServer, all
/// wired the way harmonyd wires them (docs/REPLICATION.md).
struct LeaderNode {
  LeaderNode(size_t cluster, repl::Durability durability,
             uint64_t snapshot_after = 64, uint64_t retain_blocks = 0,
             const OptionsTweak& tweak = nullptr) {
    HarmonyBC::Options o = FastOpts(dir.path());
    if (tweak) tweak(&o);
    o.log_retain_blocks = retain_blocks;
    auto opened = HarmonyBC::Open(o);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(*opened);
    db->RegisterProcedure(1, "transfer", Transfer);
    db->RegisterProcedure(2, "increment", Increment);
    for (Key k = 0; k < 64; k++) {
      EXPECT_OK(db->Load(k, Value({1000})));
    }
    EXPECT_TRUE(db->Recover().ok());

    repl::ReplicatorOptions ro;
    ro.cluster_size = cluster;
    ro.durability = durability;
    ro.snapshot_after = snapshot_after;
    replicator = std::make_unique<repl::Replicator>(db.get(), ro);
    replicator->Attach();

    net::NetServerOptions so;
    so.port = 0;
    so.reactor_threads = 2;
    server = std::make_unique<net::NetServer>(db.get(), so);
    server->SetReplicator(replicator.get());
    EXPECT_OK(server->Start());
  }

  ~LeaderNode() {
    // harmonyd's shutdown order: drop the gate (the server drain would
    // otherwise wait on receipts no ack can release), fail what it held,
    // then stop the frontend.
    replicator->Detach();
    db->FailPendingReceipts(Status::Aborted("test teardown"));
    server->Stop();
    server.reset();
    replicator.reset();
    db.reset();
  }

  uint16_t port() const { return server->port(); }

  TempDir dir{"repl-leader"};
  std::unique_ptr<HarmonyBC> db;
  std::unique_ptr<repl::Replicator> replicator;
  std::unique_ptr<net::NetServer> server;
};

/// A follower process in miniature: follower-mode HarmonyBC + Follower.
/// OpenDb/CloseDb are split so tests can kill and restart it on the same
/// directory (catch-up + recovery paths).
struct FollowerNode {
  explicit FollowerNode(OptionsTweak tweak = nullptr)
      : tweak_(std::move(tweak)) {
    OpenDb();
  }
  ~FollowerNode() { CloseDb(); }

  void OpenDb() {
    HarmonyBC::Options o = FastOpts(dir.path());
    if (tweak_) tweak_(&o);
    o.follower_mode = true;
    auto opened = HarmonyBC::Open(o);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(*opened);
    db->RegisterProcedure(1, "transfer", Transfer);
    db->RegisterProcedure(2, "increment", Increment);
    if (!loaded_) {
      // Same genesis as the leader; a restart recovers from its own disk
      // instead (re-loading would clobber the evolved state).
      for (Key k = 0; k < 64; k++) {
        EXPECT_OK(db->Load(k, Value({1000})));
      }
      loaded_ = true;
    }
    auto tip = db->Recover();
    EXPECT_TRUE(tip.ok()) << tip.status().ToString();
    recovered_tip = tip.ok() ? *tip : 0;
  }

  void Join(uint16_t leader_port, const std::string& node = "f1",
            const std::string& leader_host = "127.0.0.1") {
    repl::FollowerOptions fo;
    fo.node = node;
    fo.leader_host = leader_host;
    fo.leader_port = leader_port;
    fo.reconnect_backoff_us = 20'000;
    fo.reconnect_backoff_max_us = 100'000;
    repl = std::make_unique<repl::Follower>(db.get(), fo);
    EXPECT_OK(repl->Start());
  }

  void StopRepl() {
    if (repl != nullptr) {
      repl->Stop();
      repl.reset();
    }
  }

  void CloseDb() {
    StopRepl();
    db.reset();
  }

  TempDir dir{"repl-follower"};
  std::unique_ptr<HarmonyBC> db;
  std::unique_ptr<repl::Follower> repl;
  BlockId recovered_tip = 0;  ///< what the last OpenDb's Recover() returned

 private:
  const OptionsTweak tweak_;
  bool loaded_ = false;
};

Digest DigestOf(HarmonyBC* db) {
  auto d = db->StateDigest();
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return d.ok() ? *d : Digest{};
}

// ------------------------------------------------------------ wire codecs --

/// A sealed one-txn block, chained from the zero hash and signed with the
/// test nodes' orderer secret (FastOpts keeps the default).
Block MakeBlock(BlockId id) {
  TxnBatch batch;
  batch.block_id = id;
  batch.first_tid = 100;
  TxnRequest t = TransferReq(1, 2, 3);
  t.client_id = 5;
  t.client_seq = 6;
  batch.txns.push_back(t);
  BlockBuilder builder(HarmonyBC::Options().orderer_secret);
  return builder.Seal(std::move(batch), 777);
}

/// The REPLICATE payload a leader ships for `b`: its stored record.
std::string ReplicatePayload(const Block& b) {
  std::string payload;
  net::EncodeReplicate(b.header.block_id,
                       BlockCodec::EncodeRecord(b, Compression::kHlz),
                       &payload);
  return payload;
}

TEST(ReplWire, RoundTripEveryReplOpcode) {
  net::WireReplJoin join;
  join.node = "follower-a";
  join.last_block_id = 41;
  std::string join_payload;
  net::EncodeReplJoin(join, &join_payload);

  const Block blk = MakeBlock(7);
  const std::string record = BlockCodec::EncodeRecord(blk, Compression::kHlz);
  std::string repl_payload;
  net::EncodeReplicate(blk.header.block_id, record, &repl_payload);

  std::string ack_payload;
  net::EncodeReplAck(99, &ack_payload);

  net::WireSnapshot snap;
  snap.base_block = 12;
  snap.tip_hash.fill(0x5c);
  snap.leader_tip = 20;
  snap.rows = {{3, "abc"}, {9, std::string(100, 'x')}};
  std::string snap_payload;
  net::EncodeSnapshot(snap, &snap_payload);

  // Stream all four frames byte-by-byte through the reassembler. Each is
  // stamped with the one wire version.
  const std::pair<Opcode, std::string> sent[] = {
      {Opcode::kOpReplJoin, join_payload},
      {Opcode::kOpReplicate, repl_payload},
      {Opcode::kOpReplicateAck, ack_payload},
      {Opcode::kOpReplSnapshot, snap_payload},
  };
  std::string stream;
  for (const auto& [op, payload] : sent) {
    const std::string frame = net::EncodeFrame(op, payload);
    EXPECT_EQ(static_cast<uint8_t>(frame[4]), net::kWireVersion);
    stream += frame;
  }

  FrameReassembler reasm;
  std::vector<Frame> frames;
  for (char c : stream) {
    reasm.Feed(&c, 1);
    Frame f;
    while (reasm.Next(&f).ok()) frames.push_back(std::move(f));
  }
  ASSERT_EQ(frames.size(), 4u);

  net::WireReplJoin join2;
  ASSERT_TRUE(net::DecodeReplJoin(frames[0].payload, &join2));
  EXPECT_EQ(join2.node, "follower-a");
  EXPECT_EQ(join2.last_block_id, 41u);

  Block blk2;
  ASSERT_TRUE(net::DecodeReplicate(frames[1].payload, &blk2));
  EXPECT_EQ(blk2.header.block_id, 7u);
  ASSERT_EQ(blk2.batch.txns.size(), 1u);
  EXPECT_EQ(blk2.batch.txns[0].client_seq, 6u);
  EXPECT_EQ(blk2.header.block_hash, blk.header.block_hash);
  EXPECT_EQ(blk2.record, record);  // kept verbatim for the follower's log

  BlockId acked = 0;
  ASSERT_TRUE(net::DecodeReplAck(frames[2].payload, &acked));
  EXPECT_EQ(acked, 99u);

  net::WireSnapshot snap2;
  ASSERT_TRUE(net::DecodeSnapshot(frames[3].payload, &snap2));
  EXPECT_EQ(snap2.base_block, 12u);
  EXPECT_EQ(snap2.tip_hash, snap.tip_hash);
  EXPECT_EQ(snap2.leader_tip, 20u);
  ASSERT_EQ(snap2.rows.size(), 2u);
  EXPECT_EQ(snap2.rows[0].first, 3u);
  EXPECT_EQ(snap2.rows[1].second, std::string(100, 'x'));
}

TEST(ReplWire, HostileInputsRejected) {
  // Truncations of every payload must fail, never crash.
  net::WireReplJoin join;
  join.node = "n";
  join.last_block_id = 1;
  std::string p;
  net::EncodeReplJoin(join, &p);
  for (size_t len = 0; len < p.size(); len++) {
    net::WireReplJoin out;
    EXPECT_FALSE(net::DecodeReplJoin(std::string_view(p.data(), len), &out));
  }

  // Node name over the cap.
  net::WireReplJoin big;
  big.node = std::string(net::kMaxReplNodeName + 1, 'z');
  std::string bigp;
  net::EncodeReplJoin(big, &bigp);
  net::WireReplJoin out;
  EXPECT_FALSE(net::DecodeReplJoin(bigp, &out));

  // REPLICATE whose outer id disagrees with the decoded header.
  const std::string rp = ReplicatePayload(MakeBlock(7));
  Block rb;
  ASSERT_TRUE(net::DecodeReplicate(rp, &rb));
  std::string lying = rp;
  lying[0] ^= 1;  // leading u64 is the outer block id (little-endian)
  EXPECT_FALSE(net::DecodeReplicate(lying, &rb));
  for (size_t len = 0; len < rp.size(); len++) {
    EXPECT_FALSE(net::DecodeReplicate(std::string_view(rp.data(), len), &rb));
  }

  // ACK with the wrong length.
  BlockId id = 0;
  EXPECT_FALSE(net::DecodeReplAck("1234567", &id));
  EXPECT_FALSE(net::DecodeReplAck("123456789", &id));

  // SNAPSHOT with a row count past the cap (and past the payload).
  net::WireSnapshot snap;
  snap.base_block = 1;
  snap.rows = {{1, "v"}};
  std::string sp;
  net::EncodeSnapshot(snap, &sp);
  net::WireSnapshot sout;
  ASSERT_TRUE(net::DecodeSnapshot(sp, &sout));
  std::string hostile = sp;
  // The row count is the u32 after u64 base + 32B hash + u64 leader_tip.
  const size_t count_off = 8 + 32 + 8;
  hostile[count_off] = static_cast<char>(0xff);
  hostile[count_off + 1] = static_cast<char>(0xff);
  hostile[count_off + 2] = static_cast<char>(0xff);
  hostile[count_off + 3] = static_cast<char>(0xff);
  EXPECT_FALSE(net::DecodeSnapshot(hostile, &sout));
  for (size_t len = 0; len < sp.size(); len += 5) {
    EXPECT_FALSE(net::DecodeSnapshot(std::string_view(sp.data(), len), &sout));
  }
}

// ------------------------------------------------------------- end-to-end --

// Also with the follower dialing its leader by name, as a NetClient does:
// "localhost" resolves, connects and catches up to the leader's state.
TEST(Repl, LoopbackEndToEndDigestIdentical) {
  for (const char* host : {"127.0.0.1", "localhost"}) {
    SCOPED_TRACE(host);
    LeaderNode leader(2, repl::Durability::kLeaderOnly);
    FollowerNode follower;
    follower.Join(leader.port(), "f1", host);

    auto session = leader.db->OpenSession();
    std::vector<TxnTicket> tickets;
    for (int i = 0; i < 200; i++) {
      tickets.push_back(session->Submit(TransferReq(i % 64, (i + 1) % 64, 1)));
    }
    for (const TxnTicket& t : tickets) {
      TxnReceipt r;
      ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    }
    // Receipts resolve *before* height() advances past their block (the
    // commit thread updates last_committed after the callbacks, so Drain()
    // implies every callback fired) — quiesce the pipeline before reading
    // the tip or the last block would race the comparison.
    ASSERT_OK(leader.db->Sync());
    const BlockId tip = leader.db->height();
    ASSERT_GT(tip, 0u);

    // last_applied() moves in the commit callback, before the follower's
    // height() does; wait for both before comparing heights.
    ASSERT_TRUE(WaitUntil([&] {
      return follower.repl->last_applied() >= tip &&
             follower.db->height() >= tip;
    })) << "follower stalled at " << follower.repl->last_applied() << "/"
        << tip;
    EXPECT_EQ(follower.db->height(), tip);
    EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));
    EXPECT_TRUE(follower.repl->connected());

    follower.StopRepl();
  }
}

// REPLICATE ships the leader's stored record and the follower appends it
// verbatim, so with no retention every node's log is the same file — also
// on a contended chain whose records reference earlier CC retries. The
// retry count is the leader's in-memory metadata, never stored: a re-sealed
// txn's receipt still reports it, and it still marks the txn the encoder
// stores as a reference.
TEST(Repl, FollowerLogsAreByteIdenticalToTheLeaders) {
  LeaderNode leader(3, repl::Durability::kQuorumAck);
  // A probe peer that records every REPLICATE payload the leader ships (it
  // never acks; the two real followers make the quorum), decoding each in
  // the session's reference window as a follower does.
  std::mutex shipped_mu;
  std::map<BlockId, std::string> shipped;
  RefWindow probe_window;
  leader.replicator->AddPeer(
      "probe", 0, [&](Opcode op, std::string_view payload) {
        if (op != Opcode::kOpReplicate) return true;
        std::lock_guard<std::mutex> lk(shipped_mu);
        Block b;
        EXPECT_TRUE(net::DecodeReplicate(payload, &b, &probe_window));
        probe_window.Push(b);
        shipped[b.header.block_id] = b.record;
        return true;
      });
  FollowerNode f1, f2;
  f1.Join(leader.port(), "f1");
  f2.Join(leader.port(), "f2");

  auto session = leader.db->OpenSession();
  std::vector<TxnTicket> tickets;
  for (int i = 0; i < 160; i++) {
    // Every txn touches account 0 or 1, so blocks CC-abort txns and seal
    // them again as retries.
    tickets.push_back(session->Submit(TransferReq(i % 2, 2 + i % 62, 1)));
  }
  std::vector<TxnReceipt> receipts(tickets.size());
  for (size_t i = 0; i < tickets.size(); i++) {
    ASSERT_TRUE(tickets[i].WaitFor(kWaitUs, &receipts[i]));
  }
  ASSERT_OK(leader.db->Sync());
  const BlockId tip = leader.db->height();
  ASSERT_GT(tip, 1u);
  for (FollowerNode* f : {&f1, &f2}) {
    ASSERT_TRUE(WaitUntil([&] {
      return f->repl->last_applied() >= tip && f->db->height() >= tip;
    }));
  }
  leader.replicator->RemovePeer("probe");

  BlockStore* store = leader.db->replica()->block_store();
  std::vector<std::pair<BlockId, std::string>> stored;
  ASSERT_OK(store->ReadRecordsAfter(0, SIZE_MAX, &stored));
  ASSERT_EQ(stored.size(), tip);
  size_t with_refs = 0;
  std::vector<RecordShape> shapes;
  for (const auto& [id, record] : stored) {
    RecordShape shape;
    ASSERT_TRUE(BlockCodec::Peek(record, &shape));
    if (shape.ref_reach > 0) with_refs++;
    shapes.push_back(shape);
  }
  EXPECT_GT(with_refs, 0u) << "the contended chain stored no retry by "
                              "reference";
  // Committed after at least one CC abort: the receipt counts the retries,
  // and the record that sealed the txn again stores references.
  size_t retried = 0, retried_by_ref = 0;
  for (const TxnReceipt& r : receipts) {
    if (r.outcome != ReceiptOutcome::kCommitted || r.retries == 0) continue;
    retried++;
    ASSERT_GE(r.block_id, 1u);
    ASSERT_LE(r.block_id, tip);
    if (shapes[r.block_id - 1].ref_reach > 0) retried_by_ref++;
  }
  EXPECT_GT(retried, 0u) << "no receipt reported a retry";
  EXPECT_GT(retried_by_ref, 0u)
      << "no retried txn's block stored a reference";
  {
    std::lock_guard<std::mutex> lk(shipped_mu);
    ASSERT_FALSE(shipped.empty());
    for (const auto& [id, record] : shipped) {
      ASSERT_LE(id, tip);
      EXPECT_EQ(record, stored[id - 1].second) << "block " << id;
    }
  }
  // The cold path (a follower behind the in-memory window) ships the same
  // bytes, read from the log without decoding them.
  repl::ReplicationLog cold(store, /*window_blocks=*/1);
  std::vector<std::pair<BlockId, std::string>> fetched;
  ASSERT_OK(cold.Fetch(0, SIZE_MAX, &fetched));
  ASSERT_EQ(fetched.size(), stored.size());
  for (size_t i = 0; i < fetched.size(); i++) {
    EXPECT_EQ(fetched[i].first, stored[i].first);
    EXPECT_EQ(fetched[i].second.substr(8), stored[i].second);
  }

  f1.StopRepl();
  f2.StopRepl();
  const std::string leader_log = ReadFileBytes(leader.dir.path() +
                                               "/replica.chain");
  ASSERT_GT(leader_log.size(), 8u);
  EXPECT_TRUE(leader_log == ReadFileBytes(f1.dir.path() + "/replica.chain"));
  EXPECT_TRUE(leader_log == ReadFileBytes(f2.dir.path() + "/replica.chain"));
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(f1.db.get()));
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(f2.db.get()));
}

/// A one-shot stand-in leader on a loopback socket: accepts one follower,
/// reads its REPL_JOIN, sends one REPLICATE frame, then holds the link
/// until the follower hangs up.
class OneShotLeader {
 public:
  explicit OneShotLeader(std::string replicate_payload)
      : payload_(std::move(replicate_payload)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~OneShotLeader() {
    thread_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }
  /// True once the follower closed the link after the REPLICATE frame.
  bool hung_up() const { return hung_up_.load(); }

 private:
  void Serve() {
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 30'000) != 1) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    FrameReassembler reasm;
    char buf[4096];
    Frame join;
    while (!reasm.Next(&join).ok()) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        ::close(fd);
        return;
      }
      reasm.Feed(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(join.opcode, Opcode::kOpReplJoin);
    const std::string frame = net::EncodeFrame(Opcode::kOpReplicate, payload_);
    EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    hung_up_.store(true);
    ::close(fd);
  }

  std::string payload_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> hung_up_{false};
  std::thread thread_;
};

// A follower verifies a shipped record before its log sees a byte of it: a
// tampered record (CRC-valid frame) is refused and nothing is appended.
TEST(Repl, FollowerRefusesATamperedRecordAndAppendsNothing) {
  const Block blk = MakeBlock(1);
  const std::string good = ReplicatePayload(blk);
  // Offsets into the payload (u64 outer id first): the signature's first
  // byte, the record's order time (shifts every txn's submit time), and the
  // last byte of the stored txn section.
  const size_t order_time_at = 8 + 3;  // varints: id 1, first_tid 100, count 1
  const size_t signature_at = 8 + 5 + 32;
  for (size_t at : {signature_at, order_time_at, good.size() - 1}) {
    SCOPED_TRACE(at);
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    FollowerNode follower;
    {
      OneShotLeader fake(bad);
      follower.Join(fake.port());
      ASSERT_TRUE(WaitUntil([&] { return fake.hung_up(); }));
      follower.StopRepl();
    }
    BlockStore* store = follower.db->replica()->block_store();
    EXPECT_EQ(store->num_blocks(), 0u);
    EXPECT_EQ(follower.db->height(), 0u);
    EXPECT_EQ(ReadFileBytes(follower.dir.path() + "/replica.chain").size(),
              8u);  // the log header alone
  }
  // Control: the untampered record through the same stand-in is applied.
  FollowerNode follower;
  {
    OneShotLeader fake(good);
    follower.Join(fake.port());
    ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= 1; }));
    follower.StopRepl();
  }
  std::vector<std::pair<BlockId, std::string>> stored;
  ASSERT_OK(
      follower.db->replica()->block_store()->ReadRecordsAfter(0, 1, &stored));
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].second, good.substr(8));
}

TEST(Repl, QuorumAckGatesReceipts) {
  // Cluster of two at quorum durability: every receipt needs one follower
  // ack. With no follower connected the leader still commits, but the
  // receipt must stay gated.
  LeaderNode leader(2, repl::Durability::kQuorumAck);
  auto session = leader.db->OpenSession();
  TxnTicket gated = session->Submit(TransferReq(1, 2, 10));

  ASSERT_TRUE(WaitUntil([&] { return leader.db->height() > 0; }))
      << "leader never committed the block locally";
  TxnReceipt r;
  EXPECT_FALSE(gated.WaitFor(300'000, &r))
      << "receipt resolved without a follower ack";

  // A follower joins, applies, acks: the receipt resolves committed.
  FollowerNode follower;
  follower.Join(leader.port());
  ASSERT_TRUE(gated.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  EXPECT_GE(leader.replicator->quorum_watermark(), r.block_id);

  follower.StopRepl();
}

TEST(Repl, KillRejoinCatchUpExactlyOnce) {
  LeaderNode leader(2, repl::Durability::kQuorumAck);
  FollowerNode follower;
  follower.Join(leader.port());

  auto session = leader.db->OpenSession();
  for (int i = 0; i < 40; i++) {
    TxnReceipt r;
    TxnTicket t = session->Submit(TransferReq(i % 64, (i + 7) % 64, 1));
    if ((i + 1) % 8 == 0) {
      ASSERT_TRUE(t.WaitFor(kWaitUs, &r));  // keep some blocks fully settled
    }
  }
  ASSERT_TRUE(WaitUntil([&] {
    return follower.repl->last_applied() >= leader.db->height() &&
           leader.db->height() > 0;
  }));

  // Kill the follower (process death: replication loop AND database).
  follower.CloseDb();

  // The leader keeps committing; receipts are gated until the quorum
  // returns. Every ticket must resolve exactly once after the rejoin.
  std::vector<TxnTicket> gated;
  for (int i = 0; i < 24; i++) {
    gated.push_back(session->Submit(TransferReq(i % 64, (i + 3) % 64, 1)));
  }
  TxnReceipt probe;
  EXPECT_FALSE(gated.back().WaitFor(300'000, &probe))
      << "receipt resolved while the quorum was down";

  // Restart: recover from its own disk, rejoin at the recovered tip.
  follower.OpenDb();
  follower.Join(leader.port());

  size_t committed = 0;
  for (const TxnTicket& t : gated) {
    TxnReceipt r;
    ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    if (r.outcome == ReceiptOutcome::kCommitted) committed++;
  }
  EXPECT_GT(committed, 0u);

  ASSERT_OK(leader.db->Sync());  // height() lags the last block's receipts
  const BlockId tip = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip; }));
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));

  follower.StopRepl();
}

TEST(Repl, SnapshotCatchUpAndRestart) {
  // Leader far ahead; a fresh follower (tip 0) past snapshot_after gets a
  // state snapshot instead of the whole block log.
  LeaderNode leader(2, repl::Durability::kLeaderOnly, /*snapshot_after=*/4);
  auto session = leader.db->OpenSession();
  for (int i = 0; i < 100; i++) {
    TxnRequest t;
    t.proc_id = 2;
    t.args.ints = {i % 64, 1};
    TxnTicket tk = session->Submit(std::move(t));
    TxnReceipt r;
    ASSERT_TRUE(tk.WaitFor(kWaitUs, &r));
  }
  ASSERT_OK(leader.db->Sync());  // height() lags the last block's receipts
  const BlockId tip = leader.db->height();
  ASSERT_GT(tip, 4u);

  FollowerNode follower;
  follower.Join(leader.port());
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip; }));
  EXPECT_EQ(leader.replicator->snapshots_sent(), 1u);
  EXPECT_EQ(follower.repl->snapshots_installed(), 1u);
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));

  // Restart before any block lands on the snapshot: the log is empty and
  // the checkpoint sits at the base. Recover() must return the base, not
  // fail looking for a tip record to resume the orderer from (a follower
  // never seals).
  ASSERT_EQ(follower.db->replica()->block_store()->num_blocks(), 0u);
  follower.CloseDb();
  follower.OpenDb();
  EXPECT_EQ(follower.recovered_tip, tip);
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));
  follower.Join(leader.port(), "f1-restarted");

  // More traffic streams normally on top of the installed snapshot.
  for (int i = 0; i < 20; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i % 64, (i + 1) % 64, 2)).WaitFor(kWaitUs,
                                                                      &r));
  }
  ASSERT_OK(leader.db->Sync());  // height() lags the last block's receipts
  const BlockId tip2 = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip2; }));

  // Restart the follower: its block log starts past the snapshot base, so
  // recovery must anchor the chain audit at the snapshot tip.
  follower.CloseDb();
  follower.OpenDb();
  EXPECT_EQ(follower.db->height(), tip2);
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));

  follower.Join(leader.port(), "f1-rejoined");
  for (int i = 0; i < 10; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i, i + 32, 1)).WaitFor(kWaitUs, &r));
  }
  ASSERT_OK(leader.db->Sync());  // height() lags the last block's receipts
  const BlockId tip3 = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip3; }));
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));

  follower.StopRepl();
}

/// Submits contended transfers (every one touches account 0 or 1, so
/// blocks CC-abort txns and seal them again as retries) until stopped.
class ContendedLoad {
 public:
  explicit ContendedLoad(HarmonyBC* db)
      : thread_([this, db] {
          auto session = db->OpenSession();
          for (int round = 0; !stop_.load(); round++) {
            std::vector<TxnTicket> tickets;
            for (int i = 0; i < 16; i++) {
              tickets.push_back(
                  session->Submit(TransferReq(i % 2, 2 + (round + i) % 62, 1)));
            }
            for (const TxnTicket& t : tickets) {
              TxnReceipt r;
              EXPECT_TRUE(t.WaitFor(kWaitUs, &r));
            }
          }
        }) {}
  ~ContendedLoad() { Stop(); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Records of `db`'s block log that store some txn by reference.
size_t RecordsWithRefs(HarmonyBC* db) {
  std::vector<std::pair<BlockId, std::string>> records;
  EXPECT_OK(db->replica()->block_store()->ReadRecordsAfter(0, SIZE_MAX,
                                                           &records));
  size_t n = 0;
  for (const auto& [id, record] : records) {
    RecordShape shape;
    EXPECT_TRUE(BlockCodec::Peek(record, &shape));
    if (shape.ref_reach > 0) n++;
  }
  return n;
}

// A follower joins by snapshot while contended traffic runs, so the base
// falls inside a reference interval (1000 blocks here) and the leader's
// next records reference blocks the follower never receives as REPLICATE:
// the session's REPL_CONTEXT records resolve them, and the follower's log,
// which starts past the base, stores those records re-encoded. It catches
// up and passes the audit, and after a kill and restart (more contended
// traffic meanwhile) rejoins with the leader's state digest.
//
// Harmony runs without inter-block pipelining here: with it, the block
// after a snapshot base reads the leader's snapshot of base - 1 and the
// base's reservations, which a row snapshot does not carry, so a busy
// leader snapshots only at a checkpoint barrier and the base could not fall
// inside an interval (see SnapshotJoinUnderLoadWithPipeliningLandsOnABarrier).
TEST(Repl, SnapshotJoinMidIntervalUnderContention) {
  constexpr size_t kInterval = 1000;
  const OptionsTweak mid_interval = [](HarmonyBC::Options* o) {
    o->checkpoint_every = kInterval;
    o->dcc.harmony_inter_block = false;
  };
  LeaderNode leader(2, repl::Durability::kLeaderOnly, /*snapshot_after=*/4,
                    /*retain_blocks=*/0, mid_interval);
  ContendedLoad load(leader.db.get());
  ASSERT_TRUE(WaitUntil([&] { return leader.db->height() > 8; }));
  FollowerNode follower(mid_interval);
  follower.Join(leader.port());
  ASSERT_TRUE(
      WaitUntil([&] { return follower.repl->snapshots_installed() == 1; }));
  ASSERT_TRUE(WaitUntil([&] {
    return follower.repl->last_applied() > leader.db->height() / 2 + 8;
  }));
  load.Stop();
  ASSERT_OK(leader.db->Sync());
  const BlockId tip = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] {
    return follower.repl->last_applied() >= tip && follower.db->height() >= tip;
  }));
  const BlockId base =
      follower.db->replica()->block_store()->first_block_id() - 1;
  EXPECT_GT(base, 0u);
  EXPECT_NE(base % kInterval, 0u);
  EXPECT_GT(RecordsWithRefs(leader.db.get()), 0u);
  EXPECT_GT(RecordsWithRefs(follower.db.get()), 0u);
  // The follower keeps the leader's bytes except where they reference
  // blocks below its log.
  std::vector<std::pair<BlockId, std::string>> ours, theirs;
  ASSERT_OK(follower.db->replica()->block_store()->ReadRecordsAfter(
      0, SIZE_MAX, &ours));
  ASSERT_OK(leader.db->replica()->block_store()->ReadRecordsAfter(
      base, SIZE_MAX, &theirs));
  ASSERT_EQ(ours.size(), theirs.size());
  for (size_t i = 0; i < ours.size(); i++) {
    BlockId id = 0;
    uint32_t reach = 0;
    ASSERT_TRUE(BlockCodec::Peek(theirs[i].second, &id, &reach));
    if (id - reach > base) {
      EXPECT_EQ(ours[i].second, theirs[i].second) << id;
    }
  }
  EXPECT_OK(follower.db->AuditChain());
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));

  // Kill and restart: recovery decodes the follower's own log, and the
  // rejoin's context covers the blocks the restarted session references.
  follower.CloseDb();
  ContendedLoad more(leader.db.get());
  ASSERT_TRUE(WaitUntil([&] { return leader.db->height() > tip + 8; }));
  follower.OpenDb();
  follower.Join(leader.port(), "f1-restarted");
  more.Stop();
  ASSERT_OK(leader.db->Sync());
  const BlockId tip2 = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] {
    return follower.repl->last_applied() >= tip2 &&
           follower.db->height() >= tip2;
  }));
  EXPECT_EQ(follower.repl->snapshots_installed(), 0u);  // a new session
  EXPECT_OK(follower.db->AuditChain());
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));
  follower.StopRepl();
}

// With inter-block pipelining on, the block after a snapshot base reads the
// leader's snapshot of base - 1 and the base's reservations, which a row
// snapshot does not carry, unless the base is a checkpoint barrier. A join
// while blocks keep committing must therefore land on a barrier, and the
// follower must then match the leader.
TEST(Repl, SnapshotJoinUnderLoadWithPipeliningLandsOnABarrier) {
  LeaderNode leader(2, repl::Durability::kLeaderOnly, /*snapshot_after=*/4);
  ContendedLoad load(leader.db.get());
  ASSERT_TRUE(WaitUntil([&] { return leader.db->height() > 8; }));
  FollowerNode follower;
  follower.Join(leader.port());
  ASSERT_TRUE(
      WaitUntil([&] { return follower.repl->snapshots_installed() == 1; }));
  ASSERT_TRUE(WaitUntil([&] {
    return follower.repl->last_applied() > leader.db->height() / 2 + 8;
  }));
  load.Stop();
  ASSERT_OK(leader.db->Sync());
  const BlockId tip = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] {
    return follower.repl->last_applied() >= tip && follower.db->height() >= tip;
  }));
  const BlockId base =
      follower.db->replica()->block_store()->first_block_id() - 1;
  EXPECT_GT(base, 0u);
  EXPECT_EQ(base % FastOpts("").checkpoint_every, 0u) << base;
  EXPECT_OK(follower.db->AuditChain());
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));
  follower.StopRepl();
}

// ------------------------------------------------------------- truncation --

TEST(ReplTruncate, FreshJoinerPastTruncationGetsSnapshotNotGapReject) {
  // Retention has truncated the leader's block log below the checkpoint
  // frontier. A fresh follower (tip 0) can no longer be caught up from the
  // log — block 1 is gone — so the leader must hand it a state snapshot
  // even though the backlog is far below snapshot_after. Before the
  // truncation-aware join logic this path gap-rejected the peer forever.
  LeaderNode leader(2, repl::Durability::kLeaderOnly,
                    /*snapshot_after=*/1'000'000, /*retain_blocks=*/2);
  auto session = leader.db->OpenSession();
  for (int i = 0; i < 100; i++) {
    TxnRequest t;
    t.proc_id = 2;
    t.args.ints = {i % 64, 1};
    TxnReceipt r;
    ASSERT_TRUE(session->Submit(std::move(t)).WaitFor(kWaitUs, &r));
  }
  ASSERT_OK(leader.db->Sync());
  const BlockId tip = leader.db->height();
  BlockStore* store = leader.db->replica()->block_store();
  ASSERT_TRUE(WaitUntil([&] { return store->first_block_id() > 1; }))
      << "retention never truncated the log (tip " << tip << ")";
  const BlockId first = store->first_block_id();
  ASSERT_GT(first, 1u);
  ASSERT_LT(first, tip);

  FollowerNode follower;
  follower.Join(leader.port());
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip; }))
      << "joiner stalled at " << follower.repl->last_applied() << "/" << tip
      << " (log starts at " << first << ")";
  EXPECT_EQ(leader.replicator->snapshots_sent(), 1u);
  EXPECT_EQ(follower.repl->snapshots_installed(), 1u);
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));

  // New traffic streams on top of the installed snapshot, and a restart
  // recovers from a local log whose first record sits past the truncation
  // point (the chain audit anchors at the snapshot tip).
  for (int i = 0; i < 20; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i % 64, (i + 1) % 64, 1)).WaitFor(kWaitUs,
                                                                      &r));
  }
  ASSERT_OK(leader.db->Sync());
  const BlockId tip2 = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip2; }));
  follower.CloseDb();
  follower.OpenDb();
  EXPECT_EQ(follower.db->height(), tip2);
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));
}

TEST(ReplTruncate, KillRejoinAcrossTruncationExactlyOnce) {
  // A follower dies; while it is down the leader's retention truncates past
  // the follower's recovered tip. On rejoin the follower's tip+1 is below
  // first_block_id, so the leader must snapshot it back in — and every
  // receipt gated on the quorum while it was down must resolve exactly once.
  LeaderNode leader(2, repl::Durability::kQuorumAck,
                    /*snapshot_after=*/1'000'000, /*retain_blocks=*/2);
  FollowerNode follower;
  follower.Join(leader.port());

  auto session = leader.db->OpenSession();
  for (int i = 0; i < 24; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i % 64, (i + 7) % 64, 1)).WaitFor(kWaitUs,
                                                                      &r));
  }
  ASSERT_OK(leader.db->Sync());
  // The commit callback advances last_applied() before the follower's
  // height() moves past the block, so wait on both: reading height() on
  // last_applied() alone can capture tip - 1.
  ASSERT_TRUE(WaitUntil([&] {
    return follower.repl->last_applied() >= leader.db->height() &&
           follower.db->height() >= leader.db->height();
  }));
  const BlockId follower_tip = follower.db->height();
  ASSERT_GT(follower_tip, 0u);

  // Kill the follower (replication loop AND database).
  follower.CloseDb();

  // The leader keeps committing (receipts gate, blocks don't); its
  // checkpoints march retention past the dead follower's tip.
  std::vector<TxnTicket> gated;
  for (int i = 0; i < 64; i++) {
    gated.push_back(session->Submit(TransferReq(i % 64, (i + 3) % 64, 1)));
  }
  BlockStore* store = leader.db->replica()->block_store();
  ASSERT_TRUE(WaitUntil([&] {
    return store->first_block_id() > follower_tip + 1;
  })) << "retention never passed the follower's tip " << follower_tip
      << " (log starts at " << store->first_block_id() << ")";
  TxnReceipt probe;
  EXPECT_FALSE(gated.back().WaitFor(300'000, &probe))
      << "receipt resolved while the quorum was down";

  // Restart: the recovered tip is unreachable from the leader's log, so
  // the rejoin must come back as a snapshot install, not a gap-reject.
  follower.OpenDb();
  EXPECT_EQ(follower.db->height(), follower_tip);
  follower.Join(leader.port());

  size_t committed = 0;
  for (const TxnTicket& t : gated) {
    TxnReceipt r;
    ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    if (r.outcome == ReceiptOutcome::kCommitted) committed++;
  }
  EXPECT_GT(committed, 0u);
  EXPECT_EQ(leader.replicator->snapshots_sent(), 1u);
  EXPECT_EQ(follower.repl->snapshots_installed(), 1u);

  ASSERT_OK(leader.db->Sync());  // height() lags the last block's receipts
  const BlockId tip = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip; }));
  EXPECT_TRUE(follower.repl->connected());
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(follower.db.get()));

  follower.StopRepl();
}

// -------------------------------------------------------------- partition --

TEST(Repl, PartitionLeaderOnlyKeepsServing) {
  LeaderNode leader(3, repl::Durability::kLeaderOnly);
  FollowerNode f1;
  FollowerNode f2;
  f1.Join(leader.port(), "f1");
  f2.Join(leader.port(), "f2");

  auto session = leader.db->OpenSession();
  for (int i = 0; i < 16; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i, i + 16, 1)).WaitFor(kWaitUs, &r));
  }
  ASSERT_OK(leader.db->Sync());  // height() lags the last block's receipts
  const BlockId before = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] {
    return f1.repl->last_applied() >= before &&
           f2.repl->last_applied() >= before;
  }));

  // Cut the leader (node 0) off from every follower.
  testing::NetFaultPlan plan;
  plan.partition_boundary = 1;
  leader.replicator->SetFaultPlan(&plan);

  // At leader-only durability the leader keeps serving through the
  // partition; the followers stall.
  for (int i = 0; i < 16; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i + 16, i, 1)).WaitFor(kWaitUs, &r))
        << "leader stopped serving during a partition at leader_only";
  }
  ASSERT_OK(leader.db->Sync());  // height() lags the last block's receipts
  const BlockId after = leader.db->height();
  ASSERT_GT(after, before);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(f1.repl->last_applied(), after);
  EXPECT_LT(f2.repl->last_applied(), after);

  // Heal: pumping resumes and both followers converge.
  leader.replicator->SetFaultPlan(nullptr);
  leader.replicator->PumpAll();
  ASSERT_TRUE(WaitUntil([&] {
    return f1.repl->last_applied() >= after &&
           f2.repl->last_applied() >= after;
  }));
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(f1.db.get()));
  EXPECT_EQ(DigestOf(leader.db.get()), DigestOf(f2.db.get()));

  f1.StopRepl();
  f2.StopRepl();
}

TEST(Repl, PartitionQuorumStallsThenHeals) {
  // Cluster of three at quorum durability: receipts need one follower ack.
  LeaderNode leader(3, repl::Durability::kQuorumAck);
  FollowerNode follower;
  follower.Join(leader.port());

  auto session = leader.db->OpenSession();
  {
    TxnReceipt r;
    ASSERT_TRUE(session->Submit(TransferReq(0, 1, 5)).WaitFor(kWaitUs, &r));
    EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  }

  testing::NetFaultPlan plan;
  plan.partition_boundary = 1;
  leader.replicator->SetFaultPlan(&plan);

  TxnTicket gated = session->Submit(TransferReq(1, 0, 5));
  TxnReceipt r;
  EXPECT_FALSE(gated.WaitFor(500'000, &r))
      << "quorum receipt resolved through a partition";

  leader.replicator->SetFaultPlan(nullptr);
  leader.replicator->PumpAll();
  ASSERT_TRUE(gated.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);

  follower.StopRepl();
}

// --------------------------------------------------------------- redirect --

TEST(Repl, FollowerRedirectsClients) {
  // A follower's frontend refuses ingress with a connection-terminal error
  // naming the leader; the client surfaces it on every pending ticket.
  TempDir dir("repl-redirect");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.follower_mode = true;
  auto opened = HarmonyBC::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(*opened);
  db->RegisterProcedure(1, "transfer", Transfer);
  ASSERT_TRUE(db->Recover().ok());

  net::NetServerOptions so;
  so.port = 0;
  so.redirect_addr = "127.0.0.1:7450";
  net::NetServer server(db.get(), so);
  ASSERT_OK(server.Start());

  net::NetClientOptions co;
  co.port = server.port();
  auto client = net::NetClient::Connect(co);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  TxnTicket t = (*client)->Submit(TransferReq(1, 2, 3));
  TxnReceipt r;
  ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kDropped);
  EXPECT_NE(r.status.ToString().find("redirect to 127.0.0.1:7450"),
            std::string::npos)
      << r.status.ToString();

  client->reset();
  server.Stop();
}

// ----------------------------------------------------- observability --------

size_t CountEvents(HarmonyBC* db, obs::EventCode code) {
  std::vector<obs::EventRecord> evs;
  db->events()->Since(0, 1024, &evs);
  size_t n = 0;
  for (const obs::EventRecord& e : evs) {
    if (e.code == static_cast<uint16_t>(code)) n++;
  }
  return n;
}

TEST(ReplObs, LagGaugeConvergesToZeroAfterCatchUp) {
  // Build a real backlog before anyone is listening, then watch the
  // leader's per-peer gauges drain as the follower catches up: the lag
  // gauge must converge to exactly 0 and the ack watermark to the tip —
  // these are the numbers `harmonyd cluster-status` scrapes, so "0 means
  // caught up" is a contract, not a vibe.
  LeaderNode leader(2, repl::Durability::kLeaderOnly);
  auto session = leader.db->OpenSession();
  for (int i = 0; i < 60; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i % 64, (i + 9) % 64, 1)).WaitFor(kWaitUs,
                                                                      &r));
  }
  ASSERT_OK(leader.db->Sync());
  const BlockId tip = leader.db->height();
  ASSERT_GT(tip, 0u);

  FollowerNode follower;
  follower.Join(leader.port());
  obs::MetricsRegistry* reg = leader.db->metrics();
  obs::Gauge* lag =
      reg->GetGauge(std::string(obs::kGaugePeerLagBlocks) + ".f1");
  obs::Gauge* ack =
      reg->GetGauge(std::string(obs::kGaugePeerAckWatermark) + ".f1");
  obs::Gauge* inflight =
      reg->GetGauge(std::string(obs::kGaugePeerWindowInflight) + ".f1");
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip; }));
  ASSERT_TRUE(WaitUntil([&] {
    return lag->Value() == 0 && ack->Value() == static_cast<int64_t>(tip) &&
           inflight->Value() == 0;
  })) << "lag=" << lag->Value() << " ack=" << ack->Value()
      << " inflight=" << inflight->Value() << " tip=" << tip;
  EXPECT_EQ(reg->GetGauge(obs::kGaugePeersConnected)->Value(), 1);

  // The RTT histogram saw every acked send (leader-local edges only).
  EXPECT_GT(reg->GetHistogram(obs::kHistAckRtt)->Snap().count, 0u);
  // Follower-side instruments moved too, on the follower's own clock.
  obs::MetricsRegistry* freg = follower.db->metrics();
  EXPECT_EQ(freg->GetGauge(obs::kGaugeDurableTip)->Value(),
            static_cast<int64_t>(tip));
  EXPECT_GT(freg->GetHistogram(obs::kHistReplApply)->Snap().count, 0u);

  // More traffic while connected: lag re-converges to 0 at the new tip.
  for (int i = 0; i < 20; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i, (i + 17) % 64, 1)).WaitFor(kWaitUs,
                                                                  &r));
  }
  ASSERT_OK(leader.db->Sync());
  const BlockId tip2 = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] {
    return lag->Value() == 0 && ack->Value() == static_cast<int64_t>(tip2);
  }));

  // The per-peer names land in the registry snapshot — what kOpMetrics
  // serializes and the cluster scraper greps.
  const obs::MetricsSnapshot snap = reg->Snapshot();
  bool found = false;
  for (const auto& g : snap.gauges) {
    if (g.name == std::string(obs::kGaugePeerLagBlocks) + ".f1") found = true;
  }
  EXPECT_TRUE(found);

  follower.StopRepl();
}

TEST(ReplObs, SnapshotAndMembershipEventsFireExactlyOnceOnKillRejoin) {
  // One snapshot catch-up then one kill/rejoin cycle: every discrete
  // transition lands in the event logs exactly once — no duplicates from
  // the retry machinery, no spurious reconnects on a clean stop, and no
  // second snapshot for a caught-up rejoiner.
  LeaderNode leader(2, repl::Durability::kLeaderOnly, /*snapshot_after=*/4);
  auto session = leader.db->OpenSession();
  for (int i = 0; i < 100; i++) {
    TxnRequest t;
    t.proc_id = 2;
    t.args.ints = {i % 64, 1};
    TxnReceipt r;
    ASSERT_TRUE(session->Submit(std::move(t)).WaitFor(kWaitUs, &r));
  }
  ASSERT_OK(leader.db->Sync());
  const BlockId tip = leader.db->height();
  ASSERT_GT(tip, 4u);

  FollowerNode follower;
  follower.Join(leader.port());
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip; }));

  EXPECT_EQ(CountEvents(follower.db.get(), obs::EventCode::kSnapshotInstall),
            1u);
  EXPECT_EQ(CountEvents(follower.db.get(), obs::EventCode::kReconnect), 0u);
  EXPECT_EQ(CountEvents(leader.db.get(), obs::EventCode::kSnapshotSent), 1u);
  EXPECT_EQ(CountEvents(leader.db.get(), obs::EventCode::kFollowerJoin), 1u);
  EXPECT_EQ(CountEvents(leader.db.get(), obs::EventCode::kFollowerLeave), 0u);

  // Kill the replication half; the leader notices the conn drop once.
  follower.StopRepl();
  ASSERT_TRUE(WaitUntil([&] {
    return CountEvents(leader.db.get(), obs::EventCode::kFollowerLeave) == 1;
  }));

  // Rejoin at the durable tip: a second join event, but no second
  // snapshot — the follower is caught up, so the block log streams.
  follower.Join(leader.port());
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->connected(); }));
  for (int i = 0; i < 10; i++) {
    TxnReceipt r;
    ASSERT_TRUE(
        session->Submit(TransferReq(i, i + 32, 1)).WaitFor(kWaitUs, &r));
  }
  ASSERT_OK(leader.db->Sync());
  const BlockId tip2 = leader.db->height();
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->last_applied() >= tip2; }));

  EXPECT_EQ(CountEvents(leader.db.get(), obs::EventCode::kFollowerJoin), 2u);
  EXPECT_EQ(CountEvents(leader.db.get(), obs::EventCode::kFollowerLeave), 1u);
  EXPECT_EQ(CountEvents(leader.db.get(), obs::EventCode::kSnapshotSent), 1u);
  EXPECT_EQ(CountEvents(follower.db.get(), obs::EventCode::kSnapshotInstall),
            1u);
  EXPECT_EQ(CountEvents(follower.db.get(), obs::EventCode::kReconnect), 0u);

  follower.StopRepl();
}

TEST(ReplObs, ReconnectEventsMatchRetriesOneToOne) {
  // Every failed session emits exactly one reconnect event — the event log
  // and the reconnects() counter move in lockstep, so a log reader and a
  // metrics scraper never tell different stories.
  FollowerNode follower;
  {
    LeaderNode leader(2, repl::Durability::kLeaderOnly);
    follower.Join(leader.port());
    ASSERT_TRUE(WaitUntil([&] { return follower.repl->connected(); }));
  }  // leader gone: the live link dies, every redial is refused
  ASSERT_TRUE(WaitUntil([&] { return follower.repl->reconnects() >= 3; }));
  follower.repl->Stop();  // freezes the counter and the log together

  const uint64_t retries = follower.repl->reconnects();
  EXPECT_EQ(CountEvents(follower.db.get(), obs::EventCode::kReconnect),
            retries);
  // The wire-visible counter agrees too.
  const obs::MetricsSnapshot snap = follower.db->metrics()->Snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == obs::kCounterReconnects) EXPECT_EQ(c.value, retries);
  }
}

}  // namespace
}  // namespace harmony

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "chain/block.h"
#include "common/clock.h"
#include "core/harmonybc.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "txn/txn_context.h"

namespace harmony {
namespace {

using net::Frame;
using net::FrameReassembler;
using net::Opcode;
using net::WireError;

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

struct Harness {
  explicit Harness(const std::string& dir, HarmonyBC::Options opts) {
    auto db = HarmonyBC::Open(opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    this->db = std::move(*db);
    this->db->RegisterProcedure(1, "transfer", Transfer);
    this->db->RegisterProcedure(2, "increment", Increment);
    for (Key k = 0; k < 64; k++) {
      EXPECT_TRUE(this->db->Load(k, Value({1000})).ok());
    }
    EXPECT_TRUE(this->db->Recover().ok());
    net::NetServerOptions so;
    so.port = 0;
    so.reactor_threads = 2;
    server = std::make_unique<net::NetServer>(this->db.get(), so);
    EXPECT_TRUE(server->Start().ok());
  }
  ~Harness() {
    server->Stop();
    server.reset();
    db.reset();
  }
  std::unique_ptr<net::NetClient> Client(size_t batch_max_txns = 1,
                                         uint64_t batch_max_delay_us = 500) {
    net::NetClientOptions co;
    co.port = server->port();
    co.batch_max_txns = batch_max_txns;
    co.batch_max_delay_us = batch_max_delay_us;
    auto c = net::NetClient::Connect(co);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(*c);
  }
  std::unique_ptr<HarmonyBC> db;
  std::unique_ptr<net::NetServer> server;
};

/// A frame with every header field chosen by the caller (valid CRCs), for
/// shapes EncodeFrame never produces.
std::string RawFrame(uint8_t version, uint8_t opcode, uint16_t request_id,
                     std::string_view payload) {
  std::string frame;
  codec::AppendU32(&frame, net::kWireMagic);
  frame.push_back(static_cast<char>(version));
  frame.push_back(static_cast<char>(opcode));
  codec::AppendU16(&frame, request_id);
  codec::AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  codec::AppendU32(&frame, payload.empty() ? 0 : Crc32(payload));
  codec::AppendU32(&frame, Crc32(frame.data(), 16));
  frame.append(payload.data(), payload.size());
  return frame;
}

/// Raw loopback socket to `port` (no NetClient framing); reads time out
/// after 30 s so a server that never closes fails the test, not hangs it.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until EOF; true when the server sent exactly one well-formed ERROR
/// frame and then closed. `*error` receives its payload.
bool ReadErrorThenEof(int fd, WireError* error) {
  FrameReassembler reasm;
  char buf[4096];
  int frames = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) return false;
    reasm.Feed(buf, static_cast<size_t>(n));
    Frame f;
    while (reasm.Next(&f).ok()) {
      frames++;
      if (f.opcode != Opcode::kOpError || !net::DecodeError(f.payload, error)) {
        return false;
      }
    }
  }
  return frames == 1;
}

TxnRequest TransferReq(int64_t from, int64_t to, int64_t amount) {
  TxnRequest t;
  t.proc_id = 1;
  t.args.ints = {from, to, amount};
  return t;
}

// ---------------------------------------------------------------- framing --

TEST(Wire, FrameRoundTripEveryClientOpcode) {
  // BATCH_SUBMIT: TxnRequests through the block codec.
  TxnRequest req = TransferReq(3, 4, 77);
  req.client_id = 9;
  req.client_seq = 12;
  // In-process metadata the entry does not carry: the server stamps its own
  // submit time, and a fresh submit has no retries.
  req.submit_time_us = 500;
  req.retries = 3;
  std::string submit_payload;
  net::EncodeBatchSubmit({req}, &submit_payload);
  // ERROR
  WireError we;
  we.code = Status::Code::kBusy;
  we.message = "overloaded";
  std::string error_payload;
  net::EncodeError(we, &error_payload);
  std::string events_payload;
  net::EncodeEventsReq(42, &events_payload);

  struct Sent {
    Opcode op;
    uint16_t request_id;
    std::string payload;
  };
  const Sent frames[] = {
      {Opcode::kOpBatchSubmit, 0, submit_payload},
      {Opcode::kOpSync, 1, ""},
      {Opcode::kOpMetrics, 2, ""},
      {Opcode::kOpHealth, 0xffff, ""},
      {Opcode::kOpEvents, 3, events_payload},
      {Opcode::kOpError, 0, error_payload},
  };
  FrameReassembler reasm;
  std::string stream;
  for (const Sent& f : frames) {
    const std::string frame = net::EncodeFrame(f.op, f.payload, f.request_id);
    EXPECT_EQ(static_cast<uint8_t>(frame[4]), net::kWireVersion);
    stream += frame;
  }
  // Feed byte by byte: reassembly must work across arbitrary fragmentation.
  for (char c : stream) reasm.Feed(&c, 1);
  for (const Sent& sent : frames) {
    Frame f;
    ASSERT_OK(reasm.Next(&f));
    EXPECT_EQ(f.opcode, sent.op);
    EXPECT_EQ(f.request_id, sent.request_id);
    EXPECT_EQ(f.payload, sent.payload);
  }
  Frame f;
  EXPECT_TRUE(reasm.Next(&f).IsNotFound());

  // Decoded payloads match what went in.
  std::vector<TxnRequest> txns;
  ASSERT_TRUE(net::DecodeBatchSubmit(submit_payload, &txns));
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_EQ(txns[0].client_seq, 12u);
  EXPECT_EQ(txns[0].submit_time_us, 0u);
  EXPECT_EQ(txns[0].retries, 0u);
  // u32 count + one 28-byte canonical txn with its ints.
  EXPECT_EQ(submit_payload.size(), 4 + 28 + 8 * req.args.ints.size());
  WireError we2;
  ASSERT_TRUE(net::DecodeError(error_payload, &we2));
  EXPECT_EQ(we2.code, Status::Code::kBusy);
  EXPECT_EQ(we2.message, "overloaded");
  uint64_t cursor = 0;
  ASSERT_TRUE(net::DecodeEventsReq(events_payload, &cursor));
  EXPECT_EQ(cursor, 42u);
}

TEST(Wire, TruncatedFrameIsIncompleteNotCorrupt) {
  std::string frame = net::EncodeFrame(Opcode::kOpSync, std::string(8, 'x'));
  FrameReassembler reasm;
  reasm.Feed(frame.data(), frame.size() - 1);
  Frame f;
  EXPECT_TRUE(reasm.Next(&f).IsNotFound());
  reasm.Feed(frame.data() + frame.size() - 1, 1);
  EXPECT_OK(reasm.Next(&f));
}

TEST(Wire, CorruptFramesRejected) {
  // Bad magic.
  {
    std::string frame = net::EncodeFrame(Opcode::kOpSync, "12345678");
    frame[0] ^= 0x5a;
    FrameReassembler reasm;
    reasm.Feed(frame.data(), frame.size());
    Frame f;
    EXPECT_TRUE(reasm.Next(&f).IsCorruption());
  }
  // Flipped header byte (length): header CRC catches it before the length
  // is trusted.
  {
    std::string frame = net::EncodeFrame(Opcode::kOpSync, "12345678");
    frame[9] ^= 0x01;
    FrameReassembler reasm;
    reasm.Feed(frame.data(), frame.size());
    Frame f;
    EXPECT_TRUE(reasm.Next(&f).IsCorruption());
  }
  // Flipped payload byte: payload CRC.
  {
    std::string frame = net::EncodeFrame(Opcode::kOpSync, "12345678");
    frame[net::kHeaderSize + 3] ^= 0x40;
    FrameReassembler reasm;
    reasm.Feed(frame.data(), frame.size());
    Frame f;
    EXPECT_TRUE(reasm.Next(&f).IsCorruption());
  }
  // Unknown opcode.
  {
    const std::string frame = RawFrame(net::kWireVersion, 0x7f, 0, "12345678");
    FrameReassembler reasm;
    reasm.Feed(frame.data(), frame.size());
    Frame f;
    EXPECT_TRUE(reasm.Next(&f).IsCorruption());
  }
  // Oversized payload_len with a valid header CRC: rejected by the cap.
  {
    std::string frame;
    codec::AppendU32(&frame, net::kWireMagic);
    frame.push_back(static_cast<char>(net::kWireVersion));
    frame.push_back(static_cast<char>(Opcode::kOpBatchSubmit));
    codec::AppendU16(&frame, 0);
    codec::AppendU32(&frame, 64u << 20);
    codec::AppendU32(&frame, 0);
    codec::AppendU32(&frame, Crc32(frame.data(), 16));
    FrameReassembler reasm;
    reasm.Feed(frame.data(), frame.size());
    Frame f;
    EXPECT_TRUE(reasm.Next(&f).IsCorruption());
  }
}

TEST(Wire, OldVersionsRetiredOpcodesAndStrayRequestIdsAreCorruption) {
  std::vector<TxnRequest> txns = {TransferReq(1, 2, 3)};
  std::string batch;
  net::EncodeBatchSubmit(txns, &batch);
  auto refused = [](const std::string& frame) {
    FrameReassembler reasm;
    reasm.Feed(frame.data(), frame.size());
    Frame f;
    return reasm.Next(&f);
  };
  // Older wire versions are refused outright: v3 is the last before
  // REPLICATE carried the stored record, v7 the last whose BATCH_SUBMIT
  // entries carried submit_time_us, retries and fee.
  for (uint8_t version : {1, 2, 3, 7}) {
    const Status s = refused(RawFrame(
        version, static_cast<uint8_t>(Opcode::kOpBatchSubmit), 0, batch));
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("wire version " + std::to_string(version)),
              std::string::npos)
        << s.ToString();
  }
  // Retired opcodes: 1 (SUBMIT), 2 (RECEIPT), 4 (STATS).
  std::string single;
  BlockCodec::EncodeTxn(txns[0], &single);
  for (uint8_t op : {1, 2, 4}) {
    const Status s = refused(RawFrame(net::kWireVersion, op, 0, single));
    EXPECT_TRUE(s.IsCorruption()) << "opcode " << int{op};
    EXPECT_NE(s.ToString().find("unknown opcode"), std::string::npos)
        << s.ToString();
  }
  // A request id belongs to control calls only.
  for (Opcode op : {Opcode::kOpBatchSubmit, Opcode::kOpBatchReceipt,
                    Opcode::kOpError, Opcode::kOpReplJoin,
                    Opcode::kOpReplicate, Opcode::kOpReplicateAck,
                    Opcode::kOpReplSnapshot, Opcode::kOpReplContext}) {
    EXPECT_TRUE(refused(net::EncodeFrame(op, batch, 5)).IsCorruption())
        << net::OpcodeName(op);
    EXPECT_OK(refused(net::EncodeFrame(op, batch, 0)));
  }
  for (Opcode op : {Opcode::kOpSync, Opcode::kOpMetrics, Opcode::kOpHealth,
                    Opcode::kOpEvents}) {
    EXPECT_OK(refused(net::EncodeFrame(op, "", 5)));
  }
}

// ---------------------------------------------------------- batch codec ----

TEST(WireBatch, BatchFrameRoundTrip) {
  std::vector<TxnRequest> txns;
  for (int i = 0; i < 5; i++) {
    TxnRequest t = TransferReq(i, i + 1, 10 * i);
    t.client_id = 7;
    t.client_seq = 100 + i;
    txns.push_back(std::move(t));
  }
  std::string payload;
  net::EncodeBatchSubmit(txns, &payload);
  const std::string frame = net::EncodeFrame(Opcode::kOpBatchSubmit, payload);

  FrameReassembler reasm;
  reasm.Feed(frame.data(), frame.size());
  Frame f;
  ASSERT_OK(reasm.Next(&f));
  EXPECT_EQ(f.opcode, Opcode::kOpBatchSubmit);
  std::vector<TxnRequest> out;
  ASSERT_TRUE(net::DecodeBatchSubmit(f.payload, &out));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[3].client_seq, 103u);
  EXPECT_EQ(out[3].args.ints[2], 30);

  // BATCH_RECEIPT: entries accumulate, the count seals at flush.
  std::string entries;
  for (int i = 0; i < 3; i++) {
    TxnReceipt rc;
    rc.outcome = i == 1 ? ReceiptOutcome::kRejected : ReceiptOutcome::kCommitted;
    rc.status = i == 1 ? Status::Busy("flow") : Status::OK();
    rc.client_seq = 200 + i;
    rc.block_id = 9;
    net::AppendBatchReceiptEntry(rc, &entries);
  }
  const std::string rpayload = net::SealBatchPayload(3, entries);
  std::vector<TxnReceipt> receipts;
  ASSERT_TRUE(net::DecodeBatchReceipt(rpayload, &receipts));
  ASSERT_EQ(receipts.size(), 3u);
  EXPECT_EQ(receipts[1].outcome, ReceiptOutcome::kRejected);
  EXPECT_TRUE(receipts[1].status.IsBusy());
  EXPECT_EQ(receipts[2].client_seq, 202u);
}

TEST(WireBatch, BatchPayloadRejects) {
  std::vector<TxnRequest> out;
  // Empty batch, oversized count, truncation, trailing bytes.
  EXPECT_FALSE(net::DecodeBatchSubmit(net::SealBatchPayload(0, ""), &out));
  EXPECT_FALSE(net::DecodeBatchSubmit(
      net::SealBatchPayload(net::kMaxBatchTxns + 1, ""), &out));
  EXPECT_FALSE(net::DecodeBatchSubmit(net::SealBatchPayload(3, "xy"), &out));
  std::vector<TxnRequest> txns = {TransferReq(1, 2, 3)};
  std::string payload;
  net::EncodeBatchSubmit(txns, &payload);
  payload += "trailing";
  EXPECT_FALSE(net::DecodeBatchSubmit(payload, &out));

  std::vector<TxnReceipt> rout;
  EXPECT_FALSE(net::DecodeBatchReceipt(net::SealBatchPayload(0, ""), &rout));
  EXPECT_FALSE(net::DecodeBatchReceipt(net::SealBatchPayload(1, "xx"), &rout));
}

// ----------------------------------------------------------- end to end ----

TEST(NetServer, LoopbackSubmitReceiptSync) {
  TempDir dir("net-e2e");
  Harness h(dir.path(), FastOpts(dir.path()));
  // batch_max_txns = 1: every submit leaves inline as a one-entry batch.
  auto client = h.Client(/*batch_max_txns=*/1);

  TxnTicket t = client->Submit(TransferReq(0, 1, 25));
  ASSERT_TRUE(t.valid());
  TxnReceipt r;
  ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  ASSERT_OK(r.status);
  EXPECT_GE(r.block_id, 1u);
  EXPECT_GT(r.client_id, 0u);  // the server-side session's identity
  EXPECT_EQ(r.client_seq, 1u);
  EXPECT_GT(r.latency_us, 0u);  // wire round trip

  // A logic abort travels with its reason.
  TxnTicket t2 = client->Submit(TransferReq(0, 1, 1'000'000));
  ASSERT_TRUE(t2.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kLogicAborted);
  EXPECT_TRUE(r.status.IsAborted());

  // The committed effect is queryable on the server side.
  std::optional<Value> v;
  ASSERT_OK(h.db->Query(1, &v));
  EXPECT_EQ(v->field(0), 1025);

  // SYNC: all receipts for prior submits are already delivered.
  EXPECT_TRUE(client->Sync(kWaitUs));
  EXPECT_EQ(h.server->stats().batch_submits.load(), 2u);

  // Client-side mirror counters agree.
  EXPECT_EQ(client->stats().submitted.load(), 2u);
  EXPECT_EQ(client->stats().committed.load(), 1u);
  EXPECT_EQ(client->stats().inflight.load(), 0u);
}

TEST(NetServer, AbandonedControlCallsNeverSatisfyLaterOnes) {
  TempDir dir("net-calls");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.enable_tracing = true;
  Harness h(dir.path(), o);
  // Coalescing client with a far-off delay bound: submits buffer locally
  // until the next control call flushes them, which lets the test queue
  // real dispatch work ahead of each reply.
  auto client = h.Client(/*batch_max_txns=*/1024,
                         /*batch_max_delay_us=*/60'000'000);

  // Commit one txn so the stage histograms carry data (Sync flushes it).
  TxnTicket first = client->Submit(TransferReq(0, 1, 5));
  ASSERT_TRUE(client->Sync(kWaitUs));
  TxnReceipt r;
  ASSERT_TRUE(first.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  ASSERT_OK(h.db->Sync());
  auto events0 = client->Events(0, kWaitUs);
  ASSERT_TRUE(events0.ok()) << events0.status().ToString();

  // Abandon one call of every control opcode: buffer a batch, then
  // zero-timeout all four. The first call flushes the batch, whose
  // decode+submit work queues ahead of every reply on the one stream (and
  // SYNC's ack waits for the batch's receipts), so none can beat a 0us
  // wait. Retried for robustness; a call that does resolve is harmless.
  uint64_t submitted = 1;
  bool all_abandoned = false;
  for (int i = 0; i < 20 && !all_abandoned; i++) {
    for (int j = 0; j < 256; j++) {
      TxnRequest req;
      req.proc_id = 2;
      req.args.ints = {j % 64, 1};
      client->Submit(std::move(req));
    }
    submitted += 256;
    const bool sy = !client->Sync(/*timeout_us=*/0);
    const bool m = !client->Metrics(/*timeout_us=*/0).ok();
    const bool hl = !client->Health(/*timeout_us=*/0).ok();
    const bool ev = !client->Events(0, /*timeout_us=*/0).ok();
    all_abandoned = sy && m && hl && ev;
  }
  ASSERT_TRUE(all_abandoned);
  EXPECT_TRUE(client->connected());

  // With a stale reply of each opcode owed on the stream, every next call
  // resolves with its own, fresh reply.
  ASSERT_TRUE(client->Sync(kWaitUs));
  EXPECT_EQ(client->stats().inflight.load(), 0u);  // every receipt is in
  ASSERT_OK(h.db->Sync());
  const uint64_t height = h.db->height();
  auto metrics = client->Metrics(kWaitUs);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  uint64_t admitted = 0;
  bool saw_resolve = false;
  for (const auto& c : metrics->counters) {
    if (c.name == obs::kCounterIngestAdmitted) admitted = c.value;
  }
  for (const auto& hist : metrics->histograms) {
    if (hist.name == obs::kHistResolve && hist.count > 0) saw_resolve = true;
  }
  EXPECT_GE(admitted, submitted);
  EXPECT_TRUE(saw_resolve);
  EXPECT_FALSE(metrics->slow_txns.empty());
  auto health = client->Health(kWaitUs);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->role, net::WireHealth::kStandalone);
  EXPECT_GE(health->height, height);
  EXPECT_GT(health->uptime_us, 0u);
  EXPECT_EQ(health->peer_count, 0u);
  auto events = client->Events(events0->next_cursor, kWaitUs);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_GE(events->next_cursor, events0->next_cursor);
}

TEST(NetServer, ConcurrentControlCallsShareOneConnection) {
  TempDir dir("net-calls-mt");
  Harness h(dir.path(), FastOpts(dir.path()));
  auto client = h.Client(/*batch_max_txns=*/8, /*batch_max_delay_us=*/200);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; i++) {
        client->Submit(TransferReq(t, t + 8, 1));
        bool ok = false;
        switch ((t + i) % 4) {
          case 0:
            ok = client->Sync(kWaitUs);
            break;
          case 1:
            ok = client->Metrics(kWaitUs).ok();
            break;
          case 2:
            ok = client->Health(kWaitUs).ok();
            break;
          default:
            ok = client->Events(0, kWaitUs).ok();
            break;
        }
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(client->Sync(kWaitUs));
  EXPECT_EQ(client->stats().submitted.load(), 100u);
  EXPECT_EQ(client->stats().inflight.load(), 0u);
}

TEST(NetServer, MetricsCarryIngestCounters) {
  TempDir dir("net-ingest-metrics");
  Harness h(dir.path(), FastOpts(dir.path()));
  auto client = h.Client(/*batch_max_txns=*/4);
  constexpr uint64_t kTxns = 10;
  std::vector<TxnTicket> tickets;
  for (uint64_t i = 0; i < kTxns; i++) {
    const int64_t k = static_cast<int64_t>(2 * i);  // disjoint pairs
    tickets.push_back(client->Submit(TransferReq(k, k + 1, 1)));
  }
  ASSERT_TRUE(client->Sync(kWaitUs));
  for (auto& t : tickets) {
    TxnReceipt r;
    ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    ASSERT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  }
  auto metrics = client->Metrics(kWaitUs);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  auto counter = [&](const char* name) -> std::optional<uint64_t> {
    for (const auto& c : metrics->counters) {
      if (c.name == name) return c.value;
    }
    return std::nullopt;
  };
  ASSERT_TRUE(counter(obs::kCounterIngestAdmitted).has_value());
  EXPECT_GE(*counter(obs::kCounterIngestAdmitted), kTxns);
  EXPECT_GE(counter(obs::kCounterIngestSubmitted).value_or(0), kTxns);
  EXPECT_GE(counter(obs::kCounterIngestSealedTxns).value_or(0), kTxns);
  EXPECT_GE(counter(obs::kCounterIngestSealedBlocks).value_or(0), 1u);
}

TEST(NetServer, RequestIdOnBatchSubmitIsProtocolViolation) {
  TempDir dir("net-reqid");
  Harness h(dir.path(), FastOpts(dir.path()));
  const int fd = RawConnect(h.server->port());
  ASSERT_GE(fd, 0);
  std::string payload;
  net::EncodeBatchSubmit({TransferReq(0, 1, 1)}, &payload);
  const std::string frame =
      net::EncodeFrame(Opcode::kOpBatchSubmit, payload, /*request_id=*/9);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  WireError e;
  EXPECT_TRUE(ReadErrorThenEof(fd, &e));
  EXPECT_EQ(e.code, Status::Code::kCorruption);
  EXPECT_NE(e.message.find("request id"), std::string::npos) << e.message;
  ::close(fd);
  EXPECT_GE(h.server->stats().corrupt_closes.load(), 1u);
  EXPECT_EQ(h.server->stats().submits.load(), 0u);  // nothing was admitted
}

TEST(NetServer, CallbackModeDeliversOnReaderThread) {
  TempDir dir("net-cb");
  Harness h(dir.path(), FastOpts(dir.path()));
  auto client = h.Client();
  std::atomic<int> fired{0};
  TxnReceipt got;
  TxnTicket t = client->Submit(TransferReq(2, 3, 5), [&](const TxnReceipt& r) {
    got = r;
    fired.fetch_add(1, std::memory_order_release);
  });
  TxnReceipt r;
  ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
  // PendingTxn::Resolve wakes waiters before it runs the callback, so the
  // ticket can resolve a moment before the callback has fired.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(kWaitUs);
  while (fired.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(fired.load(std::memory_order_acquire), 1);
  EXPECT_EQ(got.outcome, ReceiptOutcome::kCommitted);
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
}

TEST(NetServer, SessionFlowControlMapsToBusyRejection) {
  TempDir dir("net-flow");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;            // nothing seals on size
  o.max_block_delay_us = 50'000; // first txn resolves only after 50ms
  o.max_inflight_per_session = 1;
  Harness h(dir.path(), o);
  auto client = h.Client(/*batch_max_txns=*/1);

  TxnTicket first = client->Submit(TransferReq(0, 1, 1));
  // The first submit holds the only inflight slot; this one must bounce
  // as a Busy kRejected receipt — long before the first resolves — and
  // the connection lives on.
  TxnTicket second = client->Submit(TransferReq(2, 3, 1));
  TxnReceipt r;
  ASSERT_TRUE(second.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kRejected);
  EXPECT_TRUE(r.status.IsBusy()) << r.status.ToString();
  ASSERT_TRUE(first.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  EXPECT_TRUE(client->connected());
}

TEST(NetServer, CorruptStreamGetsErrorThenClose) {
  TempDir dir("net-corrupt");
  Harness h(dir.path(), FastOpts(dir.path()));

  // Raw socket: handshake-free protocol, so just connect and write noise.
  const int fd = RawConnect(h.server->port());
  ASSERT_GE(fd, 0);
  const char garbage[64] = "this is definitely not a wire frame.............";
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));

  // Expect one well-formed ERROR frame, then EOF — the server must not
  // crash, hang, or stream garbage back.
  WireError e;
  EXPECT_TRUE(ReadErrorThenEof(fd, &e));
  EXPECT_EQ(e.code, Status::Code::kCorruption);
  ::close(fd);

  // The server is still serving healthy connections.
  auto client = h.Client();
  TxnTicket t = client->Submit(TransferReq(0, 1, 1));
  TxnReceipt r;
  ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  EXPECT_GE(h.server->stats().corrupt_closes.load(), 1u);
}

TEST(NetServer, ConnectionLossFailsPendingTickets) {
  TempDir dir("net-drop");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;
  o.max_block_delay_us = 200'000;  // receipts held back long enough
  Harness h(dir.path(), o);
  auto client = h.Client();
  TxnTicket t = client->Submit(TransferReq(0, 1, 1));
  // Kill the server out from under the client mid-flight.
  h.server->Stop();
  TxnReceipt r;
  ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
  // Either the drain delivered the real receipt (committed) or the close
  // failed it as dropped — never a hang, never silence.
  EXPECT_TRUE(r.outcome == ReceiptOutcome::kCommitted ||
              r.outcome == ReceiptOutcome::kDropped)
      << ReceiptOutcomeName(r.outcome);
}

TEST(NetServer, CleanShutdownDrainsReceipts) {
  TempDir dir("net-drain");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.max_block_delay_us = 2'000;
  Harness h(dir.path(), o);
  auto client = h.Client();
  std::vector<TxnTicket> tickets;
  for (int i = 0; i < 50; i++) {
    tickets.push_back(client->Submit(TransferReq(i % 8, (i + 1) % 8, 1)));
  }
  // Writing a frame is not admission: Stop() parks the reactors, and
  // anything still in the socket buffer then legitimately fails as dropped
  // on close. Wait until the server has *read* all 50 submits, so every
  // ticket is covered by the drain contract.
  const uint64_t deadline = NowMicros() + kWaitUs;
  while (h.server->stats().submits.load(std::memory_order_acquire) < 50 &&
         NowMicros() < deadline) {
    std::this_thread::yield();
  }
  h.server->Stop();  // drains via the completion watermark before closing
  size_t committed = 0;
  for (auto& t : tickets) {
    TxnReceipt r;
    ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    if (r.outcome == ReceiptOutcome::kCommitted) committed++;
  }
  // The drain contract: everything the server admitted before Stop()
  // resolves, and its receipt reaches the client before the close.
  EXPECT_EQ(committed, tickets.size());
}

TEST(NetServer, ManyConnectionsExactlyOnceReceipts) {
  TempDir dir("net-many");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 64;
  o.max_block_delay_us = 2'000;
  o.mempool_capacity = 1 << 14;
  Harness h(dir.path(), o);

  constexpr size_t kConns = 16;
  constexpr size_t kTxns = 150;
  std::atomic<uint64_t> resolved{0}, committed{0}, duplicated{0};
  std::atomic<int64_t> delta_sum{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConns; c++) {
    threads.emplace_back([&] {
      std::vector<std::atomic<uint8_t>> seen(kTxns + 1);
      auto client = h.Client();
      for (size_t i = 0; i < kTxns; i++) {
        TxnRequest t;
        t.proc_id = 2;
        t.args.ints = {static_cast<int64_t>(i % 64), 1};
        client->Submit(std::move(t), [&](const TxnReceipt& r) {
          if (r.client_seq == 0 || r.client_seq > kTxns ||
              seen[r.client_seq].fetch_add(1, std::memory_order_acq_rel) !=
                  0) {
            duplicated.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          resolved.fetch_add(1, std::memory_order_relaxed);
          if (r.outcome == ReceiptOutcome::kCommitted) {
            committed.fetch_add(1, std::memory_order_relaxed);
            delta_sum.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      EXPECT_TRUE(client->Sync(kWaitUs));
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(duplicated.load(), 0u);
  EXPECT_EQ(resolved.load(), kConns * kTxns);

  // Conservation: the sum of committed increments equals the state delta.
  ASSERT_OK(h.db->Sync());
  int64_t total = 0;
  for (Key k = 0; k < 64; k++) {
    std::optional<Value> v;
    ASSERT_OK(h.db->Query(k, &v));
    total += v->field(0) - 1000;
  }
  EXPECT_EQ(total, delta_sum.load());
  EXPECT_EQ(committed.load(), static_cast<uint64_t>(delta_sum.load()));
}

// -------------------------------------------------------- batched wire -----

TEST(NetServerBatch, BatchedLoopbackEndToEnd) {
  TempDir dir("net-batch");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 32;
  o.max_block_delay_us = 2'000;
  Harness h(dir.path(), o);

  constexpr size_t kTxns = 200;
  std::vector<std::atomic<uint8_t>> seen(kTxns + 1);
  std::atomic<uint64_t> resolved{0}, committed{0}, duplicated{0};
  auto client = h.Client(/*batch_max_txns=*/16, /*batch_max_delay_us=*/500);
  for (size_t i = 0; i < kTxns; i++) {
    TxnRequest t;
    t.proc_id = 2;
    t.args.ints = {static_cast<int64_t>(i % 64), 1};
    client->Submit(std::move(t), [&](const TxnReceipt& r) {
      if (r.client_seq == 0 || r.client_seq > kTxns ||
          seen[r.client_seq].fetch_add(1, std::memory_order_acq_rel) != 0) {
        duplicated.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      resolved.fetch_add(1, std::memory_order_relaxed);
      if (r.outcome == ReceiptOutcome::kCommitted) {
        committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Sync flushes the coalescing buffer and covers every prior submit.
  EXPECT_TRUE(client->Sync(kWaitUs));
  EXPECT_EQ(duplicated.load(), 0u);
  EXPECT_EQ(resolved.load(), kTxns);
  EXPECT_EQ(committed.load(), kTxns);

  // The wire actually batched: fewer frames than transactions, in both
  // directions.
  EXPECT_GT(h.server->stats().batch_submits.load(), 0u);
  EXPECT_LT(h.server->stats().batch_submits.load(), kTxns);
  EXPECT_GT(h.server->stats().batch_receipts.load(), 0u);
  EXPECT_EQ(h.server->stats().submits.load(), kTxns);

  // State agrees with the receipts.
  ASSERT_OK(h.db->Sync());
  int64_t total = 0;
  for (Key k = 0; k < 64; k++) {
    std::optional<Value> v;
    ASSERT_OK(h.db->Query(k, &v));
    total += v->field(0) - 1000;
  }
  EXPECT_EQ(total, static_cast<int64_t>(committed.load()));
}

TEST(NetServerBatch, BusyRejectionsFanOutPerTxn) {
  TempDir dir("net-batch-busy");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;
  o.max_block_delay_us = 50'000;  // nothing resolves for a while
  o.max_inflight_per_session = 2;
  Harness h(dir.path(), o);
  // delay 0: the batch flushes only when full — all 6 in one frame.
  auto client = h.Client(/*batch_max_txns=*/6, /*batch_max_delay_us=*/0);

  std::vector<TxnTicket> tickets;
  for (int i = 0; i < 6; i++) {
    tickets.push_back(client->Submit(TransferReq(0, 1, 1)));
  }
  // The first two occupy the session window; the rest bounce as Busy —
  // delivered inside the coalesced BATCH_RECEIPT, connection intact.
  size_t busy = 0, pending_or_committed = 0;
  for (auto& t : tickets) {
    TxnReceipt r;
    if (t.WaitFor(/*timeout_us=*/5'000'000, &r) &&
        r.outcome == ReceiptOutcome::kRejected) {
      EXPECT_TRUE(r.status.IsBusy());
      busy++;
    } else {
      pending_or_committed++;
    }
  }
  EXPECT_EQ(busy, 4u);
  EXPECT_EQ(pending_or_committed, 2u);
  EXPECT_TRUE(client->connected());
  // The connection still works after the rejections.
  EXPECT_TRUE(client->Sync(kWaitUs));
}

TEST(NetServerBatch, MixedBatchingAndPlainClients) {
  TempDir dir("net-batch-mixed");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 32;
  o.max_block_delay_us = 2'000;
  Harness h(dir.path(), o);

  constexpr size_t kTxns = 100;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int mode = 0; mode < 2; mode++) {
    threads.emplace_back([&, mode] {
      // mode 0: one-entry batches sent inline; mode 1: coalesced batches.
      auto client = mode == 0 ? h.Client() : h.Client(8, 300);
      for (size_t i = 0; i < kTxns; i++) {
        TxnRequest t;
        t.proc_id = 2;
        t.args.ints = {static_cast<int64_t>(i % 64), 1};
        client->Submit(std::move(t), [&](const TxnReceipt& r) {
          if (r.outcome == ReceiptOutcome::kCommitted) {
            committed.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      EXPECT_TRUE(client->Sync(kWaitUs));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(committed.load(), 2 * kTxns);
}

// --------------------------------------------------- in-process satellite --

TEST(SessionFlowControl, InflightCapBouncesAndRecovers) {
  TempDir dir("flow-local");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;
  o.max_block_delay_us = 0;  // nothing seals until Sync
  o.max_inflight_per_session = 2;
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 8; k++) ASSERT_OK((*db)->Load(k, Value({1000})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  TxnTicket a = session->Submit(TransferReq(0, 1, 1));
  TxnTicket b = session->Submit(TransferReq(2, 3, 1));
  EXPECT_EQ(session->stats().inflight.load(), 2u);

  // Third submit is over the cap: synchronous Busy rejection.
  TxnTicket c = session->Submit(TransferReq(4, 5, 1));
  auto r = c.TryGet();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->outcome, ReceiptOutcome::kRejected);
  EXPECT_TRUE(r->status.IsBusy());
  EXPECT_EQ(session->stats().flow_rejected.load(), 1u);
  // The bounced submit released its slot immediately.
  EXPECT_EQ(session->stats().inflight.load(), 2u);

  // Resolving the backlog frees the slots for new submits.
  ASSERT_OK((*db)->Sync());
  TxnReceipt rr;
  ASSERT_TRUE(a.WaitFor(kWaitUs, &rr));
  EXPECT_EQ(rr.outcome, ReceiptOutcome::kCommitted);
  ASSERT_TRUE(b.WaitFor(kWaitUs, &rr));
  EXPECT_EQ(rr.outcome, ReceiptOutcome::kCommitted);
  EXPECT_EQ(session->stats().inflight.load(), 0u);

  TxnTicket d = session->Submit(TransferReq(6, 7, 1));
  EXPECT_FALSE(d.TryGet().has_value());  // admitted, not bounced
  ASSERT_OK((*db)->Sync());
  ASSERT_TRUE(d.WaitFor(kWaitUs, &rr));
  EXPECT_EQ(rr.outcome, ReceiptOutcome::kCommitted);
}

}  // namespace
}  // namespace harmony

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/harmonybc.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

constexpr uint64_t kWaitUs = 30'000'000;  ///< generous per-ticket bound

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
  // Receipt-waiting clients need partial blocks (e.g. retry tails) sealed
  // without a Sync: bound the wait.
  o.max_block_delay_us = 5'000;
  return o;
}

TxnRequest TransferReq(int64_t from, int64_t to, int64_t amount) {
  TxnRequest t;
  t.proc_id = 1;
  t.args.ints = {from, to, amount};
  return t;
}

TEST(Session, CommittedReceiptCarriesBlockRetriesLatency) {
  TempDir dir("sess1");
  auto db = HarmonyBC::Open(FastOpts(dir.path()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({1000})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  EXPECT_GT(session->client_id(), 0u);

  TxnTicket t = session->Submit(TransferReq(0, 1, 25));
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.client_id(), session->client_id());
  EXPECT_EQ(t.client_seq(), 1u);  // auto-assigned, starts at 1

  TxnReceipt r;
  ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  ASSERT_OK(r.status);
  EXPECT_GE(r.block_id, 1u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.client_id, session->client_id());
  EXPECT_EQ(r.client_seq, 1u);

  // The committed effect is visible by the time the receipt resolves.
  std::optional<Value> v;
  ASSERT_OK((*db)->Query(1, &v));
  EXPECT_EQ(v->field(0), 1025);

  EXPECT_EQ(session->stats().submitted.load(), 1u);
  EXPECT_EQ(session->stats().committed.load(), 1u);
}

TEST(Session, LogicAbortReceipt) {
  TempDir dir("sess2");
  auto db = HarmonyBC::Open(FastOpts(dir.path()));
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 2; k++) ASSERT_OK((*db)->Load(k, Value({10})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  TxnTicket t = session->Submit(TransferReq(0, 1, 9999));  // overdraft
  TxnReceipt r;
  ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kLogicAborted);
  EXPECT_TRUE(r.status.IsAborted());
  EXPECT_GE(r.block_id, 1u);  // logic aborts happen *in* a block

  // No effect was applied.
  std::optional<Value> v;
  ASSERT_OK((*db)->Query(1, &v));
  EXPECT_EQ(v->field(0), 10);
  EXPECT_EQ(session->stats().logic_aborted.load(), 1u);
}

TEST(Session, RejectedReceiptsResolveSynchronously) {
  TempDir dir("sess3");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;       // nothing seals on size
  o.max_block_delay_us = 0; // ...or on deadline
  o.mempool_capacity = 4;
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  ASSERT_OK((*db)->Load(0, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();

  // Unknown procedure: rejected before the mempool, immediately resolved.
  TxnRequest bad;
  bad.proc_id = 77;
  auto r = session->Submit(std::move(bad)).TryGet();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->outcome, ReceiptOutcome::kRejected);
  EXPECT_TRUE(r->status.IsInvalidArgument());

  // Busy backpressure: the 5th and 6th submissions bounce off the full
  // mempool with an already-resolved rejected receipt.
  int busy = 0;
  for (int i = 0; i < 6; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1};
    auto receipt = session->Submit(std::move(t)).TryGet();
    if (receipt.has_value()) {
      EXPECT_EQ(receipt->outcome, ReceiptOutcome::kRejected);
      EXPECT_TRUE(receipt->status.IsBusy()) << receipt->status.ToString();
      busy++;
    }
  }
  EXPECT_EQ(busy, 2);
  EXPECT_EQ(session->stats().rejected.load(), 3u);

  // A duplicate client_seq while the original is in flight: rejected
  // without disturbing the original's receipt. (Seq 1 went to the rejected
  // unknown-procedure request; seq 2 is the first *admitted* increment,
  // still parked in the unsealing mempool.)
  TxnRequest dup;
  dup.proc_id = 1;
  dup.client_seq = 2;
  dup.args.ints = {0, 1};
  // Callback mode still fires for the duplicate rejection, and the session
  // counts it.
  std::atomic<int> dup_cb{0};
  auto dr = session
                ->Submit(std::move(dup),
                         [&](const TxnReceipt& r) {
                           if (r.outcome == ReceiptOutcome::kRejected) {
                             dup_cb.fetch_add(1);
                           }
                         })
                .TryGet();
  ASSERT_TRUE(dr.has_value());
  EXPECT_EQ(dr->outcome, ReceiptOutcome::kRejected);
  EXPECT_TRUE(dr->status.IsInvalidArgument());
  EXPECT_EQ(dup_cb.load(), 1);
  EXPECT_EQ(session->stats().rejected.load(), 4u);
  EXPECT_GE((*db)->ingest_stats().duplicates.load(), 1u);

  ASSERT_OK((*db)->Sync());
}

TEST(Session, DroppedReceiptWhenRetriesExhausted) {
  TempDir dir("sess4");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.protocol = DccKind::kAria;  // aborts on intra-block write conflicts
  o.max_txn_retries = 0;        // drop on first CC abort
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({1000})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  std::vector<TxnTicket> tickets;
  for (int i = 0; i < 16; i++) {
    // Every transfer touches account 0: heavy conflicts, guaranteed aborts.
    tickets.push_back(session->Submit(TransferReq(0, 1 + (i % 3), 1)));
  }

  size_t committed = 0, dropped = 0;
  for (TxnTicket& t : tickets) {
    TxnReceipt r;
    ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    if (r.outcome == ReceiptOutcome::kCommitted) {
      committed++;
    } else {
      ASSERT_EQ(r.outcome, ReceiptOutcome::kDropped);
      EXPECT_TRUE(r.status.IsBusy());
      EXPECT_GE(r.block_id, 1u);  // dropped by a block's commit, not shutdown
      dropped++;
    }
  }
  EXPECT_EQ(committed + dropped, 16u);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(dropped, (*db)->dropped());

  // Replica state matches the receipts exactly: only committed transfers
  // moved money.
  ASSERT_OK((*db)->Sync());
  std::optional<Value> v;
  ASSERT_OK((*db)->Query(0, &v));
  EXPECT_EQ(v->field(0), 1000 - static_cast<int64_t>(committed));
}

// The acceptance check: N threads x M txns, each gets exactly one receipt,
// and the set of committed receipts matches replica state key by key.
TEST(Session, ConcurrentSessionsExactlyOneReceiptMatchingState) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  constexpr int kKeys = 8;

  TempDir dir("sess5");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.protocol = DccKind::kAria;  // real CC aborts under write conflicts
  o.max_txn_retries = 2;        // some txns genuinely drop
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  for (Key k = 0; k < kKeys; k++) ASSERT_OK((*db)->Load(k, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  std::vector<std::unique_ptr<Session>> sessions;
  for (int t = 0; t < kThreads; t++) sessions.push_back((*db)->OpenSession());

  // committed_per_key[k] counts committed receipts of increments on key k.
  std::atomic<int64_t> committed_per_key[kKeys] = {};
  std::atomic<uint64_t> receipts{0}, committed{0}, dropped{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<TxnTicket, int>> tickets;
      for (int i = 0; i < kPerThread; i++) {
        const int key = (t * kPerThread + i) % kKeys;
        TxnRequest req;
        req.proc_id = 1;
        req.args.ints = {key, 1};
        tickets.emplace_back(sessions[t]->Submit(std::move(req)), key);
      }
      for (auto& [ticket, key] : tickets) {
        TxnReceipt r;
        ASSERT_TRUE(ticket.WaitFor(kWaitUs, &r));
        receipts.fetch_add(1);
        if (r.outcome == ReceiptOutcome::kCommitted) {
          committed.fetch_add(1);
          committed_per_key[key].fetch_add(1);
        } else {
          ASSERT_EQ(r.outcome, ReceiptOutcome::kDropped)
              << ReceiptOutcomeName(r.outcome) << ": " << r.status.ToString();
          dropped.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Exactly one receipt per submission, none lost, none duplicated.
  EXPECT_EQ(receipts.load(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(committed.load() + dropped.load(), receipts.load());
  EXPECT_EQ(dropped.load(), (*db)->dropped());

  // Key by key, replica state equals the committed receipts — dropped
  // increments left no trace.
  ASSERT_OK((*db)->Sync());
  for (Key k = 0; k < kKeys; k++) {
    std::optional<Value> v;
    ASSERT_OK((*db)->Query(k, &v));
    EXPECT_EQ(v->field(0), committed_per_key[k].load()) << "key " << k;
  }

  // Per-session stats add up to the totals.
  uint64_t sess_committed = 0, sess_dropped = 0;
  for (const auto& s : sessions) {
    EXPECT_EQ(s->stats().submitted.load(),
              static_cast<uint64_t>(kPerThread));
    sess_committed += s->stats().committed.load();
    sess_dropped += s->stats().dropped.load();
  }
  EXPECT_EQ(sess_committed, committed.load());
  EXPECT_EQ(sess_dropped, dropped.load());
  ASSERT_OK((*db)->AuditChain());
}

TEST(Session, CallbackModeFiresExactlyOncePerTxn) {
  TempDir dir("sess6");
  auto db = HarmonyBC::Open(FastOpts(dir.path()));
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  ASSERT_OK((*db)->Load(0, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  std::atomic<int> fired{0};
  std::atomic<int> committed{0};
  for (int i = 0; i < 20; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1};
    session->Submit(std::move(t), [&](const TxnReceipt& r) {
      fired.fetch_add(1);
      if (r.outcome == ReceiptOutcome::kCommitted) committed.fetch_add(1);
    });
  }
  ASSERT_OK((*db)->Sync());
  // Sync's watermark quiescence implies every callback has returned.
  EXPECT_EQ(fired.load(), 20);
  EXPECT_EQ(committed.load(), 20);
}

// Satellite: the Sync-vs-concurrent-Submit contract. Everything admitted
// before the call is terminal when Sync returns, even while another client
// keeps the mempool busy the whole time.
TEST(Session, SyncCoversEverythingAdmittedBeforeTheCall) {
  TempDir dir("sess7");
  auto db = HarmonyBC::Open(FastOpts(dir.path()));
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  for (Key k = 0; k < 2; k++) ASSERT_OK((*db)->Load(k, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  auto mine = (*db)->OpenSession();
  auto theirs = (*db)->OpenSession();

  std::atomic<bool> stop{false};
  std::thread flood([&] {
    while (!stop.load()) {
      TxnRequest t;
      t.proc_id = 1;
      t.args.ints = {1, 1};
      auto r = theirs->Submit(std::move(t)).TryGet();
      if (r.has_value()) std::this_thread::yield();  // Busy: back off
    }
  });

  constexpr int kMine = 50;
  std::vector<TxnTicket> tickets;
  for (int i = 0; i < kMine;) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1};
    TxnTicket ticket = mine->Submit(std::move(t));
    auto r = ticket.TryGet();
    if (r.has_value() && r->outcome == ReceiptOutcome::kRejected) {
      ASSERT_TRUE(r->status.IsBusy()) << r->status.ToString();
      std::this_thread::yield();
      continue;
    }
    tickets.push_back(std::move(ticket));
    i++;
  }

  ASSERT_OK((*db)->Sync());
  // The contract: every ticket from before the Sync call is resolved now —
  // no Wait needed — while the flood is still running.
  for (const TxnTicket& t : tickets) {
    auto r = t.TryGet();
    ASSERT_TRUE(r.has_value()) << "ticket unresolved after Sync()";
    EXPECT_EQ(r->outcome, ReceiptOutcome::kCommitted);
  }
  std::optional<Value> v;
  ASSERT_OK((*db)->Query(0, &v));
  EXPECT_EQ(v->field(0), kMine);

  stop.store(true);
  flood.join();
}

TEST(Session, RecoverFailsPendingTicketsInsteadOfHanging) {
  TempDir dir("sess8");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;        // nothing seals on size
  o.max_block_delay_us = 0;  // ...or deadline: tickets stay pending
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  ASSERT_OK((*db)->Load(0, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  std::vector<TxnTicket> tickets;
  for (int i = 0; i < 3; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1};
    tickets.push_back(session->Submit(std::move(t)));
  }
  EXPECT_EQ((*db)->pending_receipts(), 3u);

  ASSERT_OK((*db)->Recover().status());
  EXPECT_EQ((*db)->pending_receipts(), 0u);
  for (TxnTicket& t : tickets) {
    TxnReceipt r;
    ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    EXPECT_EQ(r.outcome, ReceiptOutcome::kDropped);
    EXPECT_TRUE(r.status.IsAborted());
    EXPECT_EQ(r.block_id, 0u);
  }
}

TEST(Session, ShutdownFailsPendingTicketsInsteadOfHanging) {
  TempDir dir("sess9");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;
  o.max_block_delay_us = 0;
  TxnTicket ticket;
  {
    auto db = HarmonyBC::Open(o);
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "inc", Increment);
    ASSERT_OK((*db)->Load(0, Value({0})));
    ASSERT_OK((*db)->Recover().status());
    auto session = (*db)->OpenSession();
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1};
    ticket = session->Submit(std::move(t));
    EXPECT_FALSE(ticket.TryGet().has_value());
    // db (and the session) die here with the ticket still pending.
  }
  TxnReceipt r;
  ASSERT_TRUE(ticket.WaitFor(kWaitUs, &r));
  EXPECT_EQ(r.outcome, ReceiptOutcome::kDropped);
  EXPECT_TRUE(r.status.IsAborted());
}

// Regression: recovery replay must not requeue CC-aborted transactions —
// their retries are already later blocks of the chain, and re-sealing them
// after replay double-applies their effects.
TEST(Session, RecoveryReplayDoesNotRequeueRetries) {
  TempDir dir("sess10");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.protocol = DccKind::kAria;  // conflict-heavy: the chain contains aborts
  Digest before;
  BlockId tip = 0;
  {
    auto db = HarmonyBC::Open(o);
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "transfer", Transfer);
    for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({1000})));
    ASSERT_OK((*db)->Recover().status());
    auto session = (*db)->OpenSession();
    for (int i = 0; i < 32; i++) {
      ASSERT_OK(AdmitStatus(session->Submit(TransferReq(0, 1 + (i % 3), 1))));
    }
    ASSERT_OK((*db)->Sync());
    ASSERT_GT((*db)->ingest_stats().retries_enqueued.load(), 0u);
    tip = (*db)->height();
    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    before = *d;
  }
  {
    auto db = HarmonyBC::Open(o);
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "transfer", Transfer);
    auto recovered = (*db)->Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(*recovered, tip);
    // Replay put nothing back into the mempool: Sync seals nothing, the
    // chain does not grow, and the state digest is reproduced exactly.
    EXPECT_EQ((*db)->queue_depth(), 0u);
    ASSERT_OK((*db)->Sync());
    EXPECT_EQ((*db)->height(), tip);
    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(DigestToHex(*d), DigestToHex(before));
  }
}

// SubmitBatch is semantically Submit-per-request: per-txn tickets and
// receipts, with failures (duplicate, flow cap) isolated to their slot.
TEST(Session, SubmitBatchMatchesPerTxnSemantics) {
  TempDir dir("sess-batch");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.max_inflight_per_session = 6;
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(2, "increment", Increment);
  for (Key k = 0; k < 8; k++) ASSERT_OK((*db)->Load(k, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  std::atomic<int> cb_fired{0};
  std::vector<TxnRequest> reqs;
  for (int i = 0; i < 5; i++) {
    TxnRequest t;
    t.proc_id = 2;
    t.args.ints = {i % 8, 1};
    if (i == 3) t.client_seq = 1;  // duplicates the batch's first auto-seq
    reqs.push_back(std::move(t));
  }
  std::vector<TxnTicket> tickets = session->SubmitBatch(
      std::move(reqs), [&](const TxnReceipt&) {
        cb_fired.fetch_add(1, std::memory_order_relaxed);
      });
  ASSERT_EQ(tickets.size(), 5u);
  ASSERT_OK((*db)->Sync());

  int committed = 0, rejected = 0;
  for (auto& t : tickets) {
    ASSERT_TRUE(t.valid());
    TxnReceipt r;
    ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    if (r.outcome == ReceiptOutcome::kCommitted) committed++;
    if (r.outcome == ReceiptOutcome::kRejected) {
      EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
      rejected++;
    }
  }
  EXPECT_EQ(committed, 4);
  EXPECT_EQ(rejected, 1);  // the duplicate, alone
  EXPECT_EQ(cb_fired.load(), 5);
  EXPECT_EQ(session->stats().submitted.load(), 5u);
  EXPECT_EQ(session->stats().inflight.load(), 0u);

  // Flow control inside a batch: cap 6, batch of 8 -> exactly 2 bounce.
  std::vector<TxnRequest> burst(8);
  for (int i = 0; i < 8; i++) {
    burst[i].proc_id = 2;
    burst[i].args.ints = {i % 8, 1};
  }
  std::vector<TxnTicket> burst_tickets =
      session->SubmitBatch(std::move(burst));
  int busy = 0;
  for (auto& t : burst_tickets) {
    if (auto r = t.TryGet();
        r.has_value() && r->outcome == ReceiptOutcome::kRejected &&
        r->status.IsBusy()) {
      busy++;
    }
  }
  EXPECT_EQ(busy, 2);
  EXPECT_EQ(session->stats().flow_rejected.load(), 2u);
  ASSERT_OK((*db)->Sync());
  EXPECT_EQ(session->stats().inflight.load(), 0u);
}

}  // namespace
}  // namespace harmony

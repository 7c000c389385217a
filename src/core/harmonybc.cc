#include "core/harmonybc.h"

#include <thread>

#include "chain/block.h"
#include "common/clock.h"
#include "testing/crash_point.h"

namespace harmony {

namespace {

/// Seal+drain rounds before Sync gives up on transactions that keep
/// CC-aborting.
constexpr uint32_t kMaxSyncRounds = 200;

}  // namespace

Result<std::unique_ptr<HarmonyBC>> HarmonyBC::Open(const Options& options) {
  // A sealed block must stay decodable: the log refuses records past
  // kMaxBlockTxns.
  if (options.block_size > kMaxBlockTxns) {
    return Status::InvalidArgument(
        "block_size " + std::to_string(options.block_size) +
        " exceeds the block log's limit of " + std::to_string(kMaxBlockTxns) +
        " txns");
  }
  auto db = std::unique_ptr<HarmonyBC>(new HarmonyBC());
  db->opts_ = options;
  db->open_time_us_ = NowMicros();
  db->metrics_ = std::make_unique<obs::MetricsRegistry>();
  db->events_ = std::make_unique<obs::EventLog>();
  // Crash-point armings land in the most recently opened instance's event
  // stream (the torture child and harmonyd run one instance per process).
  testing::SetCrashPointEventLog(db->events_.get());
  db->tracer_ = std::make_unique<obs::TxnTracer>(db->metrics_.get(),
                                                 options.enable_tracing);
  db->completion_ = std::make_unique<CompletionRouter>();
  db->completion_->SetTracer(db->tracer_.get());

  ReplicaOptions ro;
  ro.dir = options.dir;
  ro.dcc = options.protocol;
  ro.dcc_cfg = options.dcc;
  ro.in_memory = options.in_memory;
  ro.disk = options.disk;
  ro.pool_pages = options.pool_pages;
  ro.pool_stripes = options.pool_stripes;
  ro.log_retain_blocks = options.log_retain_blocks;
  ro.archive_truncated = options.archive_truncated;
  ro.threads = options.threads;
  ro.checkpoint_every = options.checkpoint_every;
  ro.orderer_secret = options.orderer_secret;
  ro.block_compression = options.block_compression;
  ro.tracer = db->tracer_.get();
  ro.events = db->events_.get();
  db->replica_ = std::make_unique<Replica>(ro);
  HARMONY_RETURN_NOT_OK(db->replica_->Open());

  NetworkModel net;
  db->orderer_ =
      std::make_unique<KafkaOrderer>(options.orderer_secret, net);

  AdmissionOptions ao;
  ao.rate_per_client_tps = options.admit_rate_per_client;
  db->admission_ = std::make_unique<AdmissionController>(ao);

  MempoolOptions mo;
  mo.capacity = options.mempool_capacity;
  db->mempool_ = std::make_unique<Mempool>(mo);

  // The commit callback (replica commit thread, block order) settles every
  // transaction's fate: committed / logic-aborted receipts resolve from
  // BlockResult::outcomes; CC aborts flow back through the mempool's retry
  // lane until max_txn_retries, then resolve as dropped. (AddRetry and the
  // completion router are thread-safe.)
  HarmonyBC* raw = db.get();
  db->replica_->SetCommitCallback(
      [raw](const Block& blk, const BlockResult& res) {
        // Replayed blocks (Recover) were settled in a previous run: their
        // receipts belong to clients of that run, and requeueing their CC
        // aborts would re-seal transactions whose retries are already in
        // the chain — a double apply.
        if (raw->recovering_.load(std::memory_order_acquire)) return;
        // Replication first (docs/REPLICATION.md): the leader fans the block
        // out to followers, a follower acks it back — in both cases the
        // block is already committed locally when the hook sees it.
        std::function<void(const Block&)> hook;
        std::function<void(BlockId, std::function<void()>)> gate;
        {
          std::lock_guard<std::mutex> lk(raw->repl_mu_);
          hook = raw->committed_hook_;
          gate = raw->commit_gate_;
        }
        if (hook) hook(blk);
        // A follower's transactions were settled by the leader: it holds no
        // client receipts for them, and requeueing its CC aborts would seal
        // a second, divergent chain — the leader's retries arrive as later
        // replicated blocks.
        if (raw->opts_.follower_mode) return;
        IngestStats* stats = raw->admission_->stats();
        const uint64_t now = NowMicros();
        const BlockId id = blk.header.block_id;
        // Under a commit gate, committed/logic-aborted receipts wait for the
        // cluster durability decision; retries and drops are leader-local
        // and resolve inline either way. The gate's closure must not
        // capture blk (the commit pipeline recycles it), so it copies the
        // batch; the gate may run it inline (leader_only, or the watermark
        // already covers this block) or hold it until enough follower acks
        // arrive.
        if (gate) {
          gate(id, [raw, id, txns = blk.batch.txns, outcomes = res.outcomes] {
            raw->ResolveExecuted(txns, outcomes, id, NowMicros());
          });
        } else {
          raw->ResolveExecuted(blk.batch.txns, res.outcomes, id, now);
        }
        bool enqueued = false;
        for (size_t i = 0; i < res.outcomes.size(); i++) {
          if (res.outcomes[i] != TxnOutcome::kCcAborted) continue;
          const TxnRequest& t = blk.batch.txns[i];
          if (t.retries < raw->opts_.max_txn_retries) {
            TxnRequest retry = t;
            retry.retries++;
            // Re-entering the retry lane is a fresh admit for stage
            // attribution: queue_wait measures time *in queue* per attempt,
            // while the receipt's latency_us keeps covering submit -> final
            // resolution end to end.
            retry.trace.admit_us = now;
            retry.trace.dequeue_us = 0;
            raw->mempool_->AddRetry(std::move(retry));
            stats->retries_enqueued.fetch_add(1, std::memory_order_relaxed);
            enqueued = true;
          } else {
            raw->dropped_.fetch_add(1, std::memory_order_relaxed);
            stats->retries_dropped.fetch_add(1, std::memory_order_relaxed);
            raw->completion_->Resolve(
                t, ReceiptOutcome::kDropped,
                Status::Busy("dropped after " + std::to_string(t.retries) +
                             " CC aborts"),
                id, now);
          }
        }
        // Without this wake a retry landing in an otherwise idle pool would
        // sit until the next Submit or Sync instead of sealing on deadline.
        if (enqueued && raw->sealer_ != nullptr) raw->sealer_->Notify();
      });

  SealerOptions so;
  so.block_size = options.block_size;
  so.max_block_delay_us = options.max_block_delay_us;
  db->sealer_ = std::make_unique<BlockSealer>(
      so, db->mempool_.get(), db->orderer_.get(), db->admission_->stats(),
      [raw](Block block) { return raw->replica_->SubmitBlock(std::move(block)); },
      db->tracer_.get());
  db->sealer_->Start();
  return db;
}

HarmonyBC::~HarmonyBC() {
  if (events_ != nullptr) testing::ClearCrashPointEventLog(events_.get());
  if (sealer_ != nullptr) sealer_->Stop();
  // The replica's commit thread invokes the retry/receipt callback, which
  // touches the mempool and completion router — join it (via destruction)
  // while both still exist.
  replica_.reset();
  // No commits can arrive anymore: whatever is still pending (unsealed
  // mempool remains, in-flight retries) will never resolve — fail the
  // tickets so no client Wait() outlives the database.
  if (completion_ != nullptr) {
    completion_->FailAll(Status::Aborted("HarmonyBC closed"), NowMicros());
  }
}

void HarmonyBC::SetCommittedBlockHook(std::function<void(const Block&)> hook) {
  std::lock_guard<std::mutex> lk(repl_mu_);
  committed_hook_ = std::move(hook);
}

void HarmonyBC::SetCommitGate(
    std::function<void(BlockId, std::function<void()>)> gate) {
  std::lock_guard<std::mutex> lk(repl_mu_);
  commit_gate_ = std::move(gate);
}

void HarmonyBC::FailPendingReceipts(const Status& why) {
  completion_->FailAll(why, NowMicros());
}

std::unique_ptr<Session> HarmonyBC::OpenSession(uint64_t client_id) {
  if (client_id == 0) {
    client_id = next_client_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return std::unique_ptr<Session>(new Session(this, client_id));
}

Result<BlockId> HarmonyBC::Recover() {
  // Let any block already handed to the replica settle *before* the replay
  // guard goes up: its outcomes belong to this run (receipts, retries,
  // drop accounting), not to the replay. Recover must not race Submit —
  // it is a boot-time / quiesced-ingress operation — but a deadline seal
  // from just before the call is drained here rather than dropped.
  HARMONY_RETURN_NOT_OK(replica_->Drain());
  recovering_.store(true, std::memory_order_release);
  BlockHeader last;  // block_id stays 0 unless the log holds a record
  auto tip = replica_->Recover(&last);
  recovering_.store(false, std::memory_order_release);
  // Tickets that were in flight when Recover() was called cannot be settled
  // against the replayed state — fail them instead of letting Wait() hang.
  completion_->FailAll(Status::Aborted("interrupted by Recover()"),
                       NowMicros());
  HARMONY_RETURN_NOT_OK(tip.status());
  if (*tip == 0) {
    // First boot: make the genesis state durable before any block executes
    // (a crash before the first periodic checkpoint must not lose it).
    HARMONY_RETURN_NOT_OK(replica_->Checkpoint());
  }
  if (last.block_id != 0) {
    // Resume the embedded orderer from the tip record the replay decoded,
    // so future blocks extend the same hash chain. A snapshot-installed
    // follower may have no record yet; it never seals, so there is nothing
    // to resume.
    orderer_->ResumeFrom(last.block_id, last.first_tid + last.txn_count,
                         last.block_hash);
  }
  return *tip;
}

Status HarmonyBC::SealPending() { return sealer_->Flush(); }

uint64_t HarmonyBC::uptime_us() const {
  const uint64_t now = NowMicros();
  return now > open_time_us_ ? now - open_time_us_ : 0;
}

obs::MetricsSnapshot HarmonyBC::CollectMetrics() {
  // Refresh the chain gauges at snapshot time — they are sampled state,
  // not event streams.
  tracer_->height->Set(static_cast<int64_t>(height()));
  tracer_->pending_receipts->Set(static_cast<int64_t>(pending_receipts()));
  tracer_->queue_depth->Set(static_cast<int64_t>(queue_depth()));
  // Storage and ingest instruments are sampled the same way: the pool, the
  // block log and admission keep their own relaxed counters; this mirrors
  // them into the registry so one snapshot carries everything. Counters
  // advance by delta (registry counters are monotonic), gauges overwrite.
  {
    auto sync = [this](const char* name, uint64_t v) {
      obs::Counter* c = metrics_->GetCounter(name);
      const uint64_t cur = c->Value();
      if (v > cur) c->Add(v - cur);
    };
    const BufferPoolStats ps = replica_->backend()->pool_stats();
    const uint64_t lookups = ps.hits + ps.misses;
    metrics_->GetGauge(obs::kGaugePoolHitRate)
        ->Set(lookups == 0
                  ? 0
                  : static_cast<int64_t>((ps.hits * 100) / lookups));
    metrics_->GetGauge(obs::kGaugePoolFrames)
        ->Set(static_cast<int64_t>(replica_->backend()->pool_frames()));
    sync(obs::kCounterPoolDirtyEvictions, ps.dirty_evictions);
    sync(obs::kCounterFlushPages, ps.flushed_pages);
    sync(obs::kCounterFlushBatches, ps.flushes);
    BlockStore* bs = replica_->block_store();
    sync(obs::kCounterLogTruncatedBlocks, bs->truncated_blocks());
    metrics_->GetGauge(obs::kGaugeLogLiveBytes)
        ->Set(static_cast<int64_t>(bs->live_log_bytes()));
    const IngestStats& is = *admission_->stats();
    auto ingest = [&](const char* name, const std::atomic<uint64_t>& v) {
      sync(name, v.load(std::memory_order_relaxed));
    };
    ingest(obs::kCounterIngestSubmitted, is.submitted);
    ingest(obs::kCounterIngestAdmitted, is.admitted);
    ingest(obs::kCounterIngestDuplicates, is.duplicates);
    ingest(obs::kCounterIngestRejected, is.rejected);
    ingest(obs::kCounterIngestRateLimited, is.rate_limited);
    ingest(obs::kCounterIngestBackpressured, is.backpressured);
    ingest(obs::kCounterIngestRetriesEnqueued, is.retries_enqueued);
    ingest(obs::kCounterIngestRetriesDropped, is.retries_dropped);
    ingest(obs::kCounterIngestSealedBlocks, is.sealed_blocks);
    ingest(obs::kCounterIngestSealedTxns, is.sealed_txns);
    ingest(obs::kCounterIngestSealedRetry, is.sealed_retry_txns);
  }
  obs::MetricsSnapshot snap = metrics_->Snapshot();
  snap.slow_txns = tracer_->SlowTxns();
  return snap;
}

std::vector<TxnTicket> HarmonyBC::SubmitBatchWithReceipt(
    std::vector<TxnRequest> reqs, const ReceiptCallback& cb,
    const std::shared_ptr<SessionStats>& session) {
  IngestStats* stats = admission_->stats();
  const size_t n = reqs.size();
  const uint64_t now = NowMicros();
  const uint64_t cap = opts_.max_inflight_per_session;
  session->submitted.fetch_add(n, std::memory_order_relaxed);

  std::vector<TxnTicket> tickets(n);
  // Resolves request i's entry as rejected. `req` is intact: the mempool
  // moves from a request only when it enqueues it.
  auto reject = [&](size_t i, const TxnRequest& req, Status why) {
    ResolvePending(tickets[i].state_.get(), req, ReceiptOutcome::kRejected,
                   std::move(why), /*block_id=*/0, NowMicros());
  };

  // Phase 1 — per request: flow control, register, admit. Survivors are
  // compacted to the front of `reqs` for the one-pass mempool enqueue;
  // `ticket_of[j]` maps survivor j back to its ticket.
  std::vector<size_t> ticket_of;
  ticket_of.reserve(n);
  size_t reached_admission = 0;
  for (size_t i = 0; i < n; i++) {
    TxnRequest& req = reqs[i];
    if (req.submit_time_us == 0) req.submit_time_us = now;
    // Admit stamp for txn-lifecycle tracing: a plain store of a clock value
    // already read, so it is unconditional (see docs/OBSERVABILITY.md).
    req.trace.admit_us = now;

    // Session flow control: every submit takes an inflight slot that
    // PendingTxn::Resolve releases. Past the cap the request never reaches
    // admission.
    const uint64_t inflight =
        session->inflight.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (cap != 0 && inflight > cap) {
      session->flow_rejected.fetch_add(1, std::memory_order_relaxed);
      tickets[i] = TxnTicket(
          std::make_shared<PendingTxn>(now, /*ticket=*/0, cb, session),
          req.client_id, req.client_seq);
      reject(i, req,
             Status::Busy("session inflight cap (" + std::to_string(cap) +
                          ") reached"));
      continue;
    }
    reached_admission++;

    // Register before the mempool sees the request: the commit path can
    // only resolve receipts it can find, and a sealed block can commit
    // within microseconds of the enqueue.
    bool duplicate = false;
    tickets[i] =
        TxnTicket(completion_->Register(req, cb, session, &duplicate),
                  req.client_id, req.client_seq);
    if (duplicate) {
      // The same (client_id, client_seq) is still in flight; its receipt
      // belongs to the original submission. This entry is detached (never
      // routed) but still carries this call's callback and session stats.
      stats->duplicates.fetch_add(1, std::memory_order_relaxed);
      reject(i, req,
             Status::InvalidArgument(
                 "duplicate transaction in flight (client " +
                 std::to_string(req.client_id) + ", seq " +
                 std::to_string(req.client_seq) + ")"));
      continue;
    }
    // Rate limiting must run on the server's clock — submit_time_us is
    // caller-supplied, and a forged future timestamp would refill (or
    // permanently poison) the client's token bucket.
    if (Status s = admission_->Admit(req, now); !s.ok()) {
      completion_->Discard(req.client_id, req.client_seq);
      reject(i, req, std::move(s));
      continue;
    }
    if (ticket_of.size() != i) reqs[ticket_of.size()] = std::move(req);
    ticket_of.push_back(i);
  }
  stats->submitted.fetch_add(reached_admission, std::memory_order_relaxed);
  if (ticket_of.empty()) return tickets;

  // Phase 2 — one capacity reservation for every survivor.
  reqs.resize(ticket_of.size());
  std::vector<Status> statuses;
  const size_t enqueued = mempool_->AddBatch(&reqs, &statuses);
  for (size_t j = 0; j < ticket_of.size(); j++) {
    if (statuses[j].ok()) continue;
    if (statuses[j].IsBusy()) {
      stats->backpressured.fetch_add(1, std::memory_order_relaxed);
    } else if (statuses[j].IsInvalidArgument()) {
      // Duplicate within the mempool's dedup window (e.g. a replay of a
      // client_seq whose receipt already resolved).
      stats->duplicates.fetch_add(1, std::memory_order_relaxed);
    }
    completion_->Discard(reqs[j].client_id, reqs[j].client_seq);
    reject(ticket_of[j], reqs[j], std::move(statuses[j]));
  }
  if (enqueued > 0) {
    stats->admitted.fetch_add(enqueued, std::memory_order_relaxed);
    sealer_->Notify();
  }
  return tickets;
}

void HarmonyBC::ResolveExecuted(const std::vector<TxnRequest>& txns,
                                const std::vector<TxnOutcome>& outcomes,
                                BlockId id, uint64_t now) {
  for (size_t i = 0; i < outcomes.size(); i++) {
    if (outcomes[i] == TxnOutcome::kCommitted) {
      completion_->Resolve(txns[i], ReceiptOutcome::kCommitted, Status::OK(),
                           id, now);
    } else if (outcomes[i] == TxnOutcome::kLogicAborted) {
      completion_->Resolve(txns[i], ReceiptOutcome::kLogicAborted,
                           Status::Aborted("procedure aborted"), id, now);
    }
  }
}

Status HarmonyBC::Sync() {
  // Quiescence is completion-based, not queue-emptiness-based: every
  // admitted transaction holds a completion-router entry until its receipt
  // resolves, so "no entry older than the watermark" proves every Submit
  // that returned before this call is terminal — even while concurrent
  // Submits keep the mempool busy (the race the previous delivered-count
  // handshake could not cover).
  const uint64_t watermark = completion_->watermark();
  uint32_t round = 0;
  while (round < kMaxSyncRounds) {
    HARMONY_RETURN_NOT_OK(SealPending());
    HARMONY_RETURN_NOT_OK(replica_->Drain());
    if (!completion_->HasPendingBefore(watermark)) {
      return Status::OK();
    }
    // Pre-watermark work still pending with an empty pool means a racing
    // Submit holds a ticket but has not reached the mempool yet (anything
    // sealed was just drained and resolved). That gap contains no blocking
    // calls, so yield until it lands — without burning the round budget,
    // which exists to bound abort-retry cycles, not scheduler preemption.
    if (mempool_->empty()) {
      std::this_thread::yield();
      continue;
    }
    round++;
  }
  return Status::Busy(
      "transactions kept aborting after " +
      std::to_string(kMaxSyncRounds) + " rounds (" +
      std::to_string(dropped_.load(std::memory_order_relaxed)) +
      " dropped, " + std::to_string(queue_depth()) + " still pending)");
}

}  // namespace harmony

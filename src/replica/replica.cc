#include "replica/replica.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/clock.h"
#include "obs/trace.h"
#include "testing/crash_point.h"

namespace harmony {

Replica::Replica(ReplicaOptions opts) : opts_(std::move(opts)) {}

Replica::~Replica() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (commit_thread_.joinable()) commit_thread_.join();
}

Status Replica::Open() {
  // Checkpoint barriers and the checkpoint period must agree (see
  // DccConfig::barrier_every).
  opts_.dcc_cfg.barrier_every = opts_.checkpoint_every;
  // The memory engine's checkpoint is a no-op, so its whole log is its only
  // durable state: retention would cut the records recovery replays.
  if (opts_.in_memory && opts_.log_retain_blocks > 0) {
    return Status::InvalidArgument(
        "log_retain_blocks needs the disk engine: an in-memory replica "
        "recovers by replaying its whole log");
  }

  // The manifest is read before storage opens: its block id is the proof of
  // which checkpoint epoch committed, which decides whether a surviving
  // rollback journal undoes a torn checkpoint (manifest behind the flush)
  // or is simply retired (crash after the flush, before the journal's lazy
  // retirement). See DiskBackend::Checkpoint.
  manifest_ = std::make_unique<CheckpointManifest>(opts_.dir + "/" +
                                                   opts_.name + ".ckpt");
  manifest_->RemoveStaleTemp();
  if (opts_.in_memory) {
    backend_ = std::make_unique<MemoryBackend>();
  } else {
    const uint64_t committed_epoch =
        manifest_->Exists() ? manifest_->Read() + 1 : 0;
    auto disk = std::make_unique<DiskBackend>(opts_.dir, opts_.name, opts_.disk,
                                              opts_.pool_pages,
                                              opts_.pool_stripes);
    disk->SetEventLog(opts_.events);
    HARMONY_RETURN_NOT_OK(disk->Open(committed_epoch));
    backend_ = std::move(disk);
  }
  store_ = std::make_unique<VersionedStore>(backend_.get());
  pool_ = std::make_unique<ThreadPool>(opts_.threads);
  protocol_ = MakeProtocol(opts_.dcc, store_.get(), &procs_, pool_.get(),
                           opts_.dcc_cfg);
  block_store_ = std::make_unique<BlockStore>(
      opts_.dir + "/" + opts_.name + ".chain", opts_.disk.fsync_latency_us,
      opts_.block_compression, opts_.checkpoint_every);
  block_store_->SetEventLog(opts_.events);
  block_store_->SetArchiveTruncated(opts_.archive_truncated);
  HARMONY_RETURN_NOT_OK(block_store_->Open());
  verifier_ = std::make_unique<ChainVerifier>(opts_.orderer_secret);

  if (protocol_->supports_inter_block()) {
    commit_thread_ = std::thread([this] { CommitWorker(); });
  }
  return Status::OK();
}

Status Replica::LoadRows(const std::vector<KvRow>& rows) {
  return backend_->Load(rows);
}

void Replica::RegisterProcedure(uint32_t proc_id, std::string name,
                                ProcedureFn fn) {
  procs_.Register(proc_id, std::move(name), std::move(fn));
}

Result<BlockId> Replica::Recover(BlockHeader* tip_record) {
  if (opts_.in_memory) {
    // The reloaded genesis plus the whole log is the state, unless a
    // snapshot install re-based the log: the rows below its base lived only
    // in memory.
    Digest anchor{};
    if (block_store_->first_block_id() > 1 || ReadAnchor(&anchor)) {
      return Status::NotSupported(
          "in-memory replica: a snapshot install re-based its block log, so "
          "the rows below the snapshot base cannot be rebuilt from genesis");
    }
    HARMONY_RETURN_NOT_OK(ReplayFrom(0, tip_record));
    return block_store_->last_block_id();
  }
  const BlockId checkpointed = manifest_->Read();
  HARMONY_RETURN_NOT_OK(ReplayFrom(checkpointed, tip_record));
  // A snapshot-installed follower can be checkpointed past its (possibly
  // empty) block log — the records below the snapshot base never existed
  // here. The recovered tip is whichever is further along.
  return std::max(block_store_->last_block_id(), checkpointed);
}

Status Replica::ReplayFrom(BlockId checkpointed, BlockHeader* tip_record) {
  std::vector<Block> blocks;
  HARMONY_RETURN_NOT_OK(block_store_->ReadAll(&blocks));
  // Audit the whole chain before trusting it, then fast-forward the live
  // verifier to the chain tip. A log whose first record is past block 1
  // belongs to a snapshot-installed follower: the records below the base
  // were never shipped, so the audit anchors at the first record's stated
  // predecessor (every surviving record is still signature-checked).
  ChainVerifier v(opts_.orderer_secret);
  if (!blocks.empty() && blocks.front().header.block_id > 1) {
    v.Reset(blocks.front().header.prev_hash);
  }
  for (const Block& b : blocks) {
    HARMONY_RETURN_NOT_OK(v.Verify(b));
  }
  if (!blocks.empty()) {
    verifier_->Reset(blocks.back().header.block_hash);
    if (tip_record != nullptr) *tip_record = blocks.back().header;
  } else if (checkpointed != 0) {
    // Snapshot installed, no blocks appended since: the persisted anchor is
    // the only record of what the next block must chain from.
    Digest anchor{};
    if (ReadAnchor(&anchor)) verifier_->Reset(anchor);
  }
  if (checkpointed > block_store_->last_block_id()) {
    // Re-base the (empty) log so the next append at checkpointed+1 is legal.
    HARMONY_RETURN_NOT_OK(block_store_->ResetTail(checkpointed));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_committed_ = std::max(last_committed_, checkpointed);
    last_submitted_ = std::max(last_submitted_, checkpointed);
  }
  replaying_ = true;
  for (Block& b : blocks) {
    if (b.header.block_id <= checkpointed) continue;
    Status s = SubmitBlock(std::move(b));
    if (!s.ok()) {
      replaying_ = false;
      return s;
    }
  }
  Status s = Drain();
  replaying_ = false;
  return s;
}

std::string Replica::AnchorPath() const {
  return opts_.dir + "/" + opts_.name + ".anchor";
}

Status Replica::WriteAnchor(const Digest& d) const {
  std::string bytes(reinterpret_cast<const char*>(d.data()), d.size());
  codec::AppendU32(&bytes, Crc32(d.data(), d.size()));
  return WriteFileAtomically(AnchorPath(), bytes);
}

bool Replica::ReadAnchor(Digest* out) const {
  FILE* f = std::fopen(AnchorPath().c_str(), "rb");
  if (f == nullptr) return false;
  uint32_t crc = 0;
  const bool ok = std::fread(out->data(), out->size(), 1, f) == 1 &&
                  std::fread(&crc, 4, 1, f) == 1 &&
                  Crc32(out->data(), out->size()) == crc;
  std::fclose(f);
  return ok;
}

Status Replica::InstallSnapshot(
    BlockId base, const Digest& tip_hash,
    const std::vector<std::pair<Key, std::string>>& rows) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (last_submitted_ != last_committed_) {
      return Status::InvalidArgument("InstallSnapshot on a busy replica");
    }
    if (base <= last_committed_) {
      return Status::InvalidArgument(
          "InstallSnapshot base " + std::to_string(base) +
          " not ahead of local tip " + std::to_string(last_committed_));
    }
  }
  // The snapshot is the leader's *complete* state, superseding everything
  // local. A fresh follower may have loaded its genesis rows already (all
  // nodes boot from the same genesis config); a rejoining follower whose
  // leader truncated past its tip carries a whole recovered state. Either
  // way, drop it first so keys the leader has since erased don't survive
  // as stale residue and skew the state digest.
  std::vector<Key> existing;
  HARMONY_RETURN_NOT_OK(backend_->ScanAll(
      [&](Key k, std::string_view) { existing.push_back(k); }));
  for (Key k : existing) {
    HARMONY_RETURN_NOT_OK(backend_->Erase(k, nullptr));
  }
  // Retained version chains would shadow the installed rows on snapshot
  // reads; the replica is quiesced, so the chains carry nothing a future
  // simulation may still need.
  store_->Clear();
  std::vector<KvRow> batch;
  batch.reserve(rows.size());
  for (const auto& [k, v] : rows) batch.push_back({k, v});
  HARMONY_RETURN_NOT_OK(backend_->Load(batch));
  if (block_store_->last_block_id() < base && block_store_->num_blocks() > 0) {
    // Rejoin path: local records at or below `base` describe a history the
    // snapshot replaces. Empty the log so the rebase below is legal.
    HARMONY_RETURN_NOT_OK(block_store_->TruncateBefore(base + 1));
  }
  HARMONY_RETURN_NOT_OK(block_store_->ResetTail(base));
  verifier_->Reset(tip_hash);
  HARMONY_RETURN_NOT_OK(WriteAnchor(tip_hash));
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_committed_ = base;
    last_submitted_ = base;
  }
  // Make the installed state durable under a manifest at `base`: a restart
  // then replays only blocks after the snapshot, exactly like a checkpoint.
  // The memory engine cannot, so its Recover refuses a re-based log.
  if (opts_.in_memory) return Status::OK();
  HARMONY_RETURN_NOT_OK(backend_->Checkpoint(base + 1));
  return manifest_->Write(base);
}

Status Replica::ScanState(std::vector<std::pair<Key, std::string>>* out) {
  out->clear();
  return backend_->ScanAll([&](Key k, std::string_view v) {
    out->emplace_back(k, std::string(v));
  });
}

Status Replica::SubmitBlock(Block block) {
  const BlockId id = block.header.block_id;
  if (!replaying_) {
    // Incremental verification against the replica's view of the chain head.
    HARMONY_RETURN_NOT_OK(verifier_->Verify(block));
  }
  if (opts_.persist_blocks && !replaying_ &&
      !protocol_->supports_inter_block()) {
    // Logical logging: persist the input block before execution (Section 4).
    // (The pipelined path overlaps this append with simulation instead.)
    HARMONY_RETURN_NOT_OK(AppendToLog(&block));
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    last_submitted_ = id;
  }
  // Stage tracing: decided here, where replaying_ is stable (set and
  // cleared by the thread driving the replay).
  obs::TxnTracer* tracer =
      (opts_.tracer != nullptr && opts_.tracer->enabled() && !replaying_)
          ? opts_.tracer
          : nullptr;
  if (!protocol_->supports_inter_block()) {
    // Serial pipeline: simulate + commit inline, in block order.
    uint64_t t0 = tracer != nullptr ? NowMicros() : 0;
    HARMONY_RETURN_NOT_OK(protocol_->Simulate(block.batch));
    if (tracer != nullptr) {
      const uint64_t t1 = NowMicros();
      tracer->block_execute->Record(t1 - t0);
      t0 = t1;
    }
    BlockResult result;
    HARMONY_RETURN_NOT_OK(protocol_->Commit(block.batch, &result));
    if (tracer != nullptr) tracer->block_commit->Record(NowMicros() - t0);
    HARMONY_RETURN_NOT_OK(AfterCommit(block, result));
    {
      std::lock_guard<std::mutex> lk(mu_);
      last_committed_ = id;
    }
    // A Drain() may be parked on another thread (the ingest sealer commits
    // serial-protocol blocks on its own thread); wake it.
    cv_.notify_all();
    return Status::OK();
  }
  return ExecuteBlockPipelined(std::move(block));
}

Status Replica::ExecuteBlockPipelined(Block block) {
  const BlockId id = block.header.block_id;
  const BlockId lag = protocol_->snapshot_lag();
  // Barrier followers additionally need the previous block fully committed
  // (their snapshot is block id-1 and they carry no pipeline state).
  const BlockId need_committed =
      protocol_->IsBarrierFollower(id) ? id - 1 : (id >= lag ? id - lag : 0);
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      return !pipeline_error_.ok() || stop_ || last_committed_ >= need_committed;
    });
    if (!pipeline_error_.ok()) return pipeline_error_;
    if (stop_) return Status::Aborted("replica shutting down");
  }

  // Simulation runs on its own thread: consecutive blocks' simulations
  // overlap with each other and with the commit worker — a straggler in
  // block i does not detain block i+1 (Section 3.4). The logical-log append
  // (group commit of the input) overlaps with simulation; it only has to
  // complete before the block's own commit step, which joins this thread.
  const bool persist_inflight = opts_.persist_blocks && !replaying_;
  auto inflight = std::make_shared<InFlight>();
  inflight->block = std::move(block);
  inflight->tracer =
      (opts_.tracer != nullptr && opts_.tracer->enabled() && !replaying_)
          ? opts_.tracer
          : nullptr;
  inflight->sim_thread = std::thread([this, inflight, persist_inflight] {
    if (persist_inflight) {
      inflight->sim_status = AppendToLog(&inflight->block);
      if (!inflight->sim_status.ok()) return;
    }
    // The log append above overlaps simulation conceptually; only the
    // Simulate itself counts as the execute stage.
    const uint64_t t0 = inflight->tracer != nullptr ? NowMicros() : 0;
    inflight->sim_status = protocol_->Simulate(inflight->block.batch);
    if (inflight->tracer != nullptr) {
      inflight->tracer->block_execute->Record(NowMicros() - t0);
    }
  });
  {
    std::lock_guard<std::mutex> lk(mu_);
    commit_queue_.push(inflight);
  }
  cv_.notify_all();
  return Status::OK();
}

void Replica::CommitWorker() {
  while (true) {
    std::shared_ptr<InFlight> item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !commit_queue_.empty(); });
      if (commit_queue_.empty()) {
        if (stop_) return;
        continue;
      }
      item = commit_queue_.front();
      commit_queue_.pop();
    }
    if (item->sim_thread.joinable()) item->sim_thread.join();
    Status s = item->sim_status;
    BlockResult result;
    const uint64_t t0 = item->tracer != nullptr ? NowMicros() : 0;
    if (s.ok()) s = protocol_->Commit(item->block.batch, &result);
    if (s.ok() && item->tracer != nullptr) {
      item->tracer->block_commit->Record(NowMicros() - t0);
    }
    if (s.ok()) {
      // Callbacks and checkpointing complete before the block counts as
      // committed: Drain() then implies every callback has fired, and the
      // barrier-follower wait covers the checkpoint itself.
      s = AfterCommit(item->block, result);
      std::lock_guard<std::mutex> lk(mu_);
      if (s.ok()) last_committed_ = item->block.header.block_id;
    }
    if (!s.ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      pipeline_error_ = s;
    }
    cv_.notify_all();
  }
}

Status Replica::AppendToLog(Block* block) {
  // The log stores (and reports back) the block's one encoding, so the
  // commit hook can ship the same bytes over REPLICATE. A replicated block
  // arrives with the leader's record, which the log keeps verbatim when its
  // references resolve here.
  return block_store_->Append(*block, &block->record);
}

Status Replica::AfterCommit(const Block& block, const BlockResult& result) {
  const BlockId id = block.header.block_id;
  // A memory-engine checkpoint saves nothing, so it must not write a
  // manifest: recovery would skip blocks whose effects were never saved.
  if (!opts_.in_memory && opts_.checkpoint_every != 0 &&
      id % opts_.checkpoint_every == 0) {
    // Epoch id+1 keeps the journal alive until the manifest write below
    // lands; a crash between the two rolls the flush back instead of
    // leaving state@id under a manifest that says an older block — which
    // would double-apply the gap on replay.
    HARMONY_RETURN_NOT_OK(backend_->Checkpoint(id + 1));
    HARMONY_CRASH_POINT("replica.checkpoint.before_manifest");
    HARMONY_RETURN_NOT_OK(manifest_->Write(id));
    HARMONY_CRASH_POINT("replica.checkpoint.after_manifest");
    if (opts_.log_retain_blocks > 0 && opts_.persist_blocks) {
      // The manifest just proved state through `id` durable; records below
      // the retention window no longer serve recovery. The store cuts at a
      // safe point at or below keep_from, so at least the checkpoint block
      // itself is kept: the log is never left empty, and the recovery audit
      // can always anchor at the first retained record.
      const BlockId keep_from =
          id > opts_.log_retain_blocks ? id - opts_.log_retain_blocks + 1 : 1;
      if (keep_from > 1) {
        HARMONY_RETURN_NOT_OK(block_store_->TruncateBefore(keep_from));
      }
    }
  }
  if (commit_cb_) commit_cb_(block, result);
  return Status::OK();
}

Status Replica::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] {
    return !pipeline_error_.ok() || last_committed_ >= last_submitted_;
  });
  return pipeline_error_;
}

Status Replica::Query(Key key, std::optional<Value>* out) {
  std::string raw;
  Status s = backend_->Get(key, &raw);
  if (s.IsNotFound()) {
    out->reset();
    return Status::OK();
  }
  HARMONY_RETURN_NOT_OK(s);
  out->emplace(Value::Decode(raw));
  return Status::OK();
}

Result<Digest> Replica::StateDigest() {
  std::vector<std::pair<Key, std::string>> rows;
  Status s = backend_->ScanAll([&](Key k, std::string_view v) {
    rows.emplace_back(k, std::string(v));
  });
  HARMONY_RETURN_NOT_OK(s);
  std::sort(rows.begin(), rows.end());
  Sha256 h;
  for (const auto& [k, v] : rows) {
    h.UpdateInt(k);
    h.Update(v);
  }
  return h.Finalize();
}

Status Replica::Checkpoint() {
  HARMONY_RETURN_NOT_OK(Drain());
  if (opts_.in_memory) return Status::OK();  // see AfterCommit
  const BlockId id = last_committed();
  HARMONY_RETURN_NOT_OK(backend_->Checkpoint(id + 1));
  return manifest_->Write(id);
}

Status Replica::AuditChain() {
  std::vector<Block> blocks;
  HARMONY_RETURN_NOT_OK(block_store_->ReadAll(&blocks));
  return ChainVerifier::VerifyChain(blocks, opts_.orderer_secret);
}

BlockId Replica::last_committed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_committed_;
}

}  // namespace harmony

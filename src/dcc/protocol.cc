#include "dcc/protocol.h"

#include <cassert>

#include "common/clock.h"
#include "dcc/false_abort_oracle.h"
#include "dcc/harmony.h"
#include "dcc/aria.h"
#include "dcc/rbc.h"
#include "dcc/sov.h"

namespace harmony {

std::string_view DccKindName(DccKind k) {
  switch (k) {
    case DccKind::kHarmony: return "Harmony";
    case DccKind::kAria: return "Aria";
    case DccKind::kRbc: return "RBC";
    case DccKind::kFabric: return "Fabric";
    case DccKind::kFastFabric: return "FastFabric#";
  }
  return "?";
}

Status DccProtocol::SimulateBatch(const TxnBatch& batch, BlockId snapshot,
                                  bool register_reservations, SimState* out) {
  Timer timer;
  const size_t n = batch.size();
  out->records.assign(n, SimRecord{});
  if (register_reservations) {
    out->reservations = std::make_unique<ReservationTable>();
  }

  FirstStoreError read_error;
  pool_->ParallelFor(n, [&](size_t i) {
    SimRecord& rec = out->records[i];
    rec.tid = batch.tid_of(i);

    // Deterministic straggler injection (latency variance inside a block).
    if (cfg_.straggler_prob > 0 &&
        static_cast<double>(Mix64(rec.tid) % 1000000) <
            cfg_.straggler_prob * 1e6) {
      SimulateDelayMicros(cfg_.straggler_us);
    }

    const TxnRequest& req = batch.txns[i];
    const ProcedureFn* fn = procs_->Find(req.proc_id);
    if (fn == nullptr) {
      rec.logic_abort = true;  // unknown contract: deterministic rejection
      return;
    }
    TxnContext ctx(rec.tid, batch.block_id,
                   [&](Key k, std::optional<Value>* v) -> Status {
                     std::optional<std::string> raw;
                     Status s = read_error.Note(
                         store_->ReadAtSnapshot(k, snapshot, &raw));
                     if (!s.ok()) return s;
                     if (raw.has_value()) {
                       v->emplace(Value::Decode(*raw));
                     } else {
                       v->reset();
                     }
                     return Status::OK();
                   });
    Status s = (*fn)(ctx, req.args);
    if (!s.ok()) {
      rec.logic_abort = true;  // deterministic: same on every replica
      rec.reads = ctx.read_set();
      return;
    }
    rec.reads = ctx.read_set();
    rec.writes = std::move(ctx.mutable_write_set());
    if (register_reservations) {
      for (Key k : rec.reads) out->reservations->RegisterRead(k, rec.tid);
      for (const auto& [k, cmd] : rec.writes) {
        out->reservations->RegisterWrite(k, rec.tid, static_cast<uint32_t>(i));
      }
    }
  });
  HARMONY_RETURN_NOT_OK(read_error.status());
  out->sim_micros = timer.ElapsedMicros();
  return Status::OK();
}

void DccProtocol::StashSimState(BlockId block, SimState state) {
  std::lock_guard<std::mutex> lk(pending_mu_);
  pending_[block] = std::move(state);
}

SimState DccProtocol::TakeSimState(BlockId block) {
  std::lock_guard<std::mutex> lk(pending_mu_);
  auto it = pending_.find(block);
  assert(it != pending_.end() && "Commit without Simulate");
  SimState s = std::move(it->second);
  pending_.erase(it);
  return s;
}

size_t DccProtocol::CountFalseAborts(const SimState& state) const {
  return FalseAbortOracle::Count(state.records);
}

std::unique_ptr<DccProtocol> MakeProtocol(DccKind kind, VersionedStore* store,
                                          const ProcedureRegistry* procs,
                                          ThreadPool* pool,
                                          const DccConfig& cfg) {
  switch (kind) {
    case DccKind::kHarmony:
      return std::make_unique<HarmonyProtocol>(store, procs, pool, cfg);
    case DccKind::kAria:
      return std::make_unique<AriaProtocol>(store, procs, pool, cfg);
    case DccKind::kRbc:
      return std::make_unique<RbcProtocol>(store, procs, pool, cfg);
    case DccKind::kFabric:
      return std::make_unique<FabricProtocol>(store, procs, pool, cfg);
    case DccKind::kFastFabric:
      return std::make_unique<FastFabricProtocol>(store, procs, pool, cfg);
  }
  return nullptr;
}

}  // namespace harmony

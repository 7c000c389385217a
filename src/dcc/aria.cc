#include "dcc/aria.h"

#include "common/clock.h"

namespace harmony {

Status AriaProtocol::Simulate(const TxnBatch& batch) {
  const BlockId snapshot = batch.block_id >= 1 ? batch.block_id - 1 : 0;
  SimState st;
  HARMONY_RETURN_NOT_OK(SimulateBatch(batch, snapshot,
                                      /*register_reservations=*/true, &st));
  StashSimState(batch.block_id, std::move(st));
  return Status::OK();
}

Status AriaProtocol::Commit(const TxnBatch& batch, BlockResult* result) {
  SimState st = TakeSimState(batch.block_id);
  auto& records = st.records;
  const ReservationTable& res = *st.reservations;
  const size_t n = records.size();

  Timer timer;

  // Parallel validation from the read-only reservation aggregates.
  pool_->ParallelFor(n, [&](size_t i) {
    SimRecord& rec = records[i];
    if (rec.logic_abort) return;
    const TxnId tid = rec.tid;

    bool waw = false, war = false;
    for (const auto& [k, cmd] : rec.writes) {
      (void)cmd;
      const auto* e = res.Find(k);
      if (e == nullptr) continue;
      if (e->MinWriterExcluding(tid) < tid) waw = true;
      if (e->MinReaderExcluding(tid) < tid) war = true;
      if (waw && war) break;
    }
    bool raw = false;
    if (!waw) {
      for (Key k : rec.reads) {
        const auto* e = res.Find(k);
        if (e != nullptr && e->MinWriterExcluding(tid) < tid) {
          raw = true;
          break;
        }
      }
    }
    rec.cc_abort = cfg_.aria_deterministic_reordering ? (waw || (raw && war))
                                                      : (waw || raw);
  });

  // Parallel apply: waw aborts guarantee at most one surviving writer per
  // key, so committed write sets are disjoint.
  const BlockId base_snapshot = batch.block_id - 1;
  // As in Harmony's apply: the first store failure fails the block with
  // its own status, and a key whose base read failed is not written.
  FirstStoreError apply_error;
  pool_->ParallelFor(n, [&](size_t i) {
    SimRecord& rec = records[i];
    if (rec.logic_abort || rec.cc_abort) return;
    for (const auto& [key, cmd] : rec.writes) {
      std::optional<Value> slot;
      if (cmd.kind() != UpdateCommand::Kind::kPut &&
          cmd.kind() != UpdateCommand::Kind::kErase) {
        // Aria evaluates against the snapshot it executed on.
        std::optional<std::string> raw;
        if (!apply_error
                 .Note(store_->ReadAtSnapshot(key, base_snapshot, &raw))
                 .ok()) {
          continue;
        }
        if (raw.has_value()) slot.emplace(Value::Decode(*raw));
      }
      cmd.Apply(&slot);
      std::optional<std::string> encoded;
      if (slot.has_value()) encoded.emplace(slot->Encode());
      apply_error.Note(store_->ApplyWrite(key, batch.block_id, encoded));
    }
  });
  HARMONY_RETURN_NOT_OK(apply_error.status());

  result->block_id = batch.block_id;
  result->outcomes.resize(n);
  for (size_t i = 0; i < n; i++) {
    const SimRecord& rec = records[i];
    if (rec.logic_abort) {
      result->outcomes[i] = TxnOutcome::kLogicAborted;
      result->logic_aborted++;
    } else if (rec.cc_abort) {
      result->outcomes[i] = TxnOutcome::kCcAborted;
      result->cc_aborted++;
    } else {
      result->outcomes[i] = TxnOutcome::kCommitted;
      result->committed++;
    }
  }
  if (cfg_.enable_false_abort_oracle) {
    result->false_aborts = CountFalseAborts(st);
  }
  result->sim_micros = st.sim_micros;
  result->commit_micros = timer.ElapsedMicros();
  stats_.Accumulate(*result);
  store_->Prune(batch.block_id);
  return Status::OK();
}

}  // namespace harmony

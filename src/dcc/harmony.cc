#include "dcc/harmony.h"

#include <algorithm>
#include <cassert>

#include "common/clock.h"

namespace harmony {

Status HarmonyProtocol::Simulate(const TxnBatch& batch) {
  const BlockId lag = snapshot_lag();
  const BlockId snapshot = ClampSnapshot(
      batch.block_id >= lag ? batch.block_id - lag : 0, batch.block_id);
  SimState st;
  HARMONY_RETURN_NOT_OK(SimulateBatch(batch, snapshot,
                                      /*register_reservations=*/true, &st));
  StashSimState(batch.block_id, std::move(st));
  return Status::OK();
}

Status HarmonyProtocol::Commit(const TxnBatch& batch, BlockResult* result) {
  SimState st = TakeSimState(batch.block_id);
  auto& records = st.records;
  const ReservationTable& res = *st.reservations;
  const size_t n = records.size();
  // Inter-block dependencies never cross a checkpoint barrier (the previous
  // block's pipeline state is not part of the checkpoint).
  const bool inter =
      cfg_.harmony_inter_block && !IsBarrierFollower(batch.block_id);

  Timer timer;
  std::vector<uint8_t> dangerous(n, 0);

  // ---- Validation: Algorithm 1 (+ Rule 3 with inter-block parallelism).
  // Fully parallel: each transaction derives min_out / max_in from the
  // read-only reservation aggregates, then checks the (generalized)
  // backward dangerous structure locally.
  pool_->ParallelFor(n, [&](size_t i) {
    SimRecord& rec = records[i];
    if (rec.logic_abort) return;
    const TxnId tid = rec.tid;

    TxnId min_out = tid + 1;  // "no outgoing edge" sentinel (Algorithm 1)
    for (Key k : rec.reads) {
      const auto* e = res.Find(k);
      if (e == nullptr) continue;
      const TxnId w = e->MinWriterExcluding(tid);
      if (w != kInvalidTxnId) min_out = std::min(min_out, w);
    }
    TxnId max_in = kNoIncomingTid;
    for (const auto& [k, cmd] : rec.writes) {
      (void)cmd;
      const auto* e = res.Find(k);
      if (e == nullptr) continue;
      max_in = std::max(max_in, e->MaxReaderExcluding(tid));
    }

    // Inter-block edges (Rule 3). A transaction of block i that read a key
    // written by a *committed* transaction W of block i-1 read W's
    // before-image (its snapshot is block i-2): an inter-rw out-edge.
    TxnId min_out_eff = min_out;
    bool inter_abort = false;
    bool has_inter_out = false;
    if (inter && !prev_.writes.empty()) {
      for (Key k : rec.reads) {
        auto it = prev_.writes.find(k);
        if (it == prev_.writes.end()) continue;
        has_inter_out = true;
        min_out_eff = std::min(min_out_eff, it->second.tid);
        // Policy (ii): T_i <- W <- T with W in the earlier block. The
        // designated victim of a cross-block structure whose middle already
        // committed can only be the later transaction.
        if (it->second.gen_min_out < it->second.tid) inter_abort = true;
      }
      if (min_out_eff < tid && !inter_abort) {
        // Generalized structure T_i <- T <- W2 where W2 is a committed
        // previous-block writer that T overwrites (W2 precedes T via ww,
        // while T_i = min_out_eff must follow T). Rule 3 designates Tk=W2,
        // but W2 already committed, so the later transaction aborts —
        // deterministic on every replica since commit steps are sequenced.
        for (const auto& [k, cmd] : rec.writes) {
          (void)cmd;
          auto it = prev_.writes.find(k);
          if (it != prev_.writes.end() && min_out_eff <= it->second.tid) {
            inter_abort = true;
            break;
          }
        }
      }
      (void)has_inter_out;
    }

    rec.min_out = min_out;
    rec.max_in = max_in;
    rec.gen_min_out = min_out_eff;

    // Rule 1 / Rule 3 check (line #12 of Algorithm 1, generalized).
    const bool rule_hit =
        (min_out_eff < tid) && (min_out_eff <= max_in);
    if (rule_hit || inter_abort) {
      rec.cc_abort = true;
      dangerous[i] = 1;
      return;
    }

    // Ablation: with update reordering disabled, fall back to Aria's
    // first-writer-wins ww abort (Section 5.7).
    if (!cfg_.harmony_update_reordering) {
      for (const auto& [k, cmd] : rec.writes) {
        (void)cmd;
        const auto* e = res.Find(k);
        if (e != nullptr && e->MinWriterExcluding(tid) < tid) {
          rec.cc_abort = true;
          return;
        }
      }
    }
  });

  // ---- Apply: update reordering (Rule 2) + coalescence (Algorithm 2).
  // Parallel over transactions; exactly one transaction claims each key and
  // applies its whole (filtered, sorted, coalesced) command list.
  const BlockId base_snapshot = batch.block_id - 1;
  // A failed base read or write fails the block with the store's own
  // status; a key whose base read failed is not written.
  FirstStoreError apply_error;
  pool_->ParallelFor(n, [&](size_t i) {
    SimRecord& rec = records[i];
    if (rec.logic_abort || rec.cc_abort) return;
    for (const auto& [key, own_cmd] : rec.writes) {
      (void)own_cmd;
      if (!st.reservations->ClaimHandled(key)) continue;
      const auto* e = res.Find(key);
      assert(e != nullptr);

      // Gather surviving writers of this key.
      struct Item {
        TxnId order;  // gen_min_out (== min_out when intra-block only)
        TxnId tid;
        const UpdateCommand* cmd;
      };
      std::vector<Item> items;
      items.reserve(e->writer_idx.size());
      for (uint32_t idx : e->writer_idx) {
        const SimRecord& w = records[idx];
        if (w.cc_abort || w.logic_abort) continue;
        for (const auto& [wk, wcmd] : w.writes) {
          if (wk == key) {
            items.push_back(Item{w.gen_min_out, w.tid, &wcmd});
            break;
          }
        }
      }
      if (items.empty()) continue;
      // Rule 2: ascending min_out, ties by TID — a topological order of the
      // acyclic rw-subgraph (Theorem 2).
      std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        return a.order != b.order ? a.order < b.order : a.tid < b.tid;
      });

      std::optional<Value> slot;
      auto read_base = [&]() -> Status {
        std::optional<std::string> raw;
        HARMONY_RETURN_NOT_OK(store_->ReadAtSnapshot(key, base_snapshot, &raw));
        if (raw.has_value()) slot.emplace(Value::Decode(*raw));
        return Status::OK();
      };

      if (cfg_.harmony_update_coalescing) {
        UpdateCommand merged = *items[0].cmd;
        for (size_t j = 1; j < items.size(); j++) merged.Coalesce(*items[j].cmd);
        if (merged.kind() != UpdateCommand::Kind::kPut &&
            merged.kind() != UpdateCommand::Kind::kErase) {
          if (!apply_error.Note(read_base()).ok()) continue;
        }
        merged.Apply(&slot);
      } else {
        // Ablation: apply each command separately — every command pays its
        // own record lookup (the duplicated physical work of Figure 5a).
        bool read_failed = false;
        for (size_t j = 0; j < items.size(); j++) {
          std::optional<std::string> raw;
          Status rs = apply_error.Note(
              store_->ReadAtSnapshot(key, base_snapshot, &raw));
          if (!rs.ok()) {
            read_failed = true;
            break;
          }
          if (j == 0 && raw.has_value()) slot.emplace(Value::Decode(*raw));
          items[j].cmd->Apply(&slot);
        }
        if (read_failed) continue;
      }

      std::optional<std::string> encoded;
      if (slot.has_value()) encoded.emplace(slot->Encode());
      apply_error.Note(store_->ApplyWrite(key, batch.block_id, encoded));
    }
  });
  HARMONY_RETURN_NOT_OK(apply_error.status());

  // ---- Bookkeeping for the next block's Rule 3 evaluation.
  if (cfg_.harmony_inter_block) {
    prev_.Clear();
    for (const SimRecord& rec : records) {
      if (rec.cc_abort || rec.logic_abort) continue;
      for (const auto& [k, cmd] : rec.writes) {
        (void)cmd;
        prev_.writes[k] = PrevBlockInfo::WriterInfo{rec.tid, rec.gen_min_out};
      }
    }
  }

  // ---- Result assembly.
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
      if (dangerous[i]) result->dangerous_hits++;
    } else {
      result->outcomes[i] = TxnOutcome::kCommitted;
      result->committed++;
    }
  }
  if (cfg_.enable_false_abort_oracle) {
    result->false_aborts = CountFalseAborts(st);
  }
  // The schedule is equivalent to serial execution in ascending
  // (gen_min_out, tid) — the order update reordering enforces (Theorem 2).
  {
    std::vector<std::pair<TxnId, TxnId>> order;
    for (const SimRecord& rec : records) {
      if (!rec.cc_abort && !rec.logic_abort) {
        order.emplace_back(rec.gen_min_out, rec.tid);
      }
    }
    std::sort(order.begin(), order.end());
    result->equivalent_serial_order.reserve(order.size());
    for (const auto& [mo, tid] : order) {
      (void)mo;
      result->equivalent_serial_order.push_back(tid);
    }
  }
  result->sim_micros = st.sim_micros;
  result->commit_micros = timer.ElapsedMicros();
  stats_.Accumulate(*result);

  // Snapshots older than what the next simulations read can be collapsed.
  const BlockId lag = snapshot_lag();
  if (batch.block_id + 1 >= lag) store_->Prune(batch.block_id + 1 - lag);
  return Status::OK();
}

}  // namespace harmony

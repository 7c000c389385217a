#include "dcc/sov.h"

#include <algorithm>
#include <unordered_map>

#include "common/clock.h"
#include "dcc/false_abort_oracle.h"

namespace harmony {

Status SovProtocolBase::Simulate(const TxnBatch& batch) {
  // Endorsement state: lag blocks behind the validating state (clamped to
  // the last checkpoint barrier so recovery replays deterministically).
  const BlockId lag = 1 + cfg_.sov_endorsement_lag;
  const BlockId endorse_snapshot = ClampSnapshot(
      batch.block_id >= lag ? batch.block_id - lag : 0, batch.block_id);

  Timer timer;
  SimState st;
  const size_t n = batch.size();
  st.records.assign(n, SimRecord{});

  FirstStoreError read_error;
  pool_->ParallelFor(n, [&](size_t i) {
    SimRecord& rec = st.records[i];
    rec.tid = batch.tid_of(i);
    const TxnRequest& req = batch.txns[i];
    const ProcedureFn* fn = procs_->Find(req.proc_id);
    if (fn == nullptr) {
      rec.logic_abort = true;
      return;
    }
    // Endorsement read: record (key, version) pairs for validation.
    TxnContext ctx(rec.tid, batch.block_id,
                   [&](Key k, std::optional<Value>* v) -> Status {
                     std::optional<std::string> raw;
                     BlockId version = 0;
                     Status s = read_error.Note(store_->ReadVersionAtSnapshot(
                         k, endorse_snapshot, &raw, &version));
                     if (!s.ok()) return s;
                     rec.read_versions.emplace_back(k, version);
                     if (raw.has_value()) {
                       v->emplace(Value::Decode(*raw));
                     } else {
                       v->reset();
                     }
                     return Status::OK();
                   });
    Status s = (*fn)(ctx, req.args);
    rec.reads = ctx.read_set();
    if (!s.ok()) {
      rec.logic_abort = true;
      rec.read_versions.clear();
      return;
    }
    // Endorsers ship evaluated values, not commands: evaluate every update
    // command against the endorsement state now.
    rec.writes = std::move(ctx.mutable_write_set());
    rec.write_values.reserve(rec.writes.size());
    for (const auto& [key, cmd] : rec.writes) {
      std::optional<Value> slot;
      if (cmd.kind() != UpdateCommand::Kind::kPut &&
          cmd.kind() != UpdateCommand::Kind::kErase) {
        std::optional<std::string> raw;
        BlockId version = 0;
        Status rs = read_error.Note(store_->ReadVersionAtSnapshot(
            key, endorse_snapshot, &raw, &version));
        if (!rs.ok()) return;  // fails the block: see FirstStoreError
        // A read-modify-write update is a logical read and must be
        // validated; a blind field set only needs the physical pre-image to
        // materialize the full record (Fabric's PutState without GetState).
        if (cmd.reads_prior_state()) {
          rec.read_versions.emplace_back(key, version);
        }
        if (raw.has_value()) slot.emplace(Value::Decode(*raw));
      }
      cmd.Apply(&slot);
      rec.write_values.emplace_back(key, std::move(slot));
    }
  });

  HARMONY_RETURN_NOT_OK(read_error.status());
  st.sim_micros = timer.ElapsedMicros();
  StashSimState(batch.block_id, std::move(st));
  return Status::OK();
}

Status SovProtocolBase::ApplyValues(const SimRecord& rec, BlockId block) {
  for (const auto& [key, value] : rec.write_values) {
    std::optional<std::string> encoded;
    if (value.has_value()) encoded.emplace(value->Encode());
    HARMONY_RETURN_NOT_OK(store_->ApplyWrite(key, block, encoded));
  }
  return Status::OK();
}

Status SovProtocolBase::FinishBlock(const TxnBatch& batch, SimState st,
                                    uint64_t commit_us, BlockResult* result) {
  const size_t n = st.records.size();
  result->block_id = batch.block_id;
  result->outcomes.resize(n);
  for (size_t i = 0; i < n; i++) {
    const SimRecord& rec = st.records[i];
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
    result->false_aborts = FalseAbortOracle::Count(st.records);
  }
  result->sim_micros = st.sim_micros;
  result->commit_micros = commit_us;
  stats_.Accumulate(*result);
  // Keep version history back to the oldest endorsement snapshot in flight.
  const BlockId lag = 1 + cfg_.sov_endorsement_lag;
  if (batch.block_id + 1 >= lag) store_->Prune(batch.block_id + 1 - lag);
  return Status::OK();
}

Status FabricProtocol::Commit(const TxnBatch& batch, BlockResult* result) {
  SimState st = TakeSimState(batch.block_id);
  auto& records = st.records;
  const BlockId current_snapshot = batch.block_id - 1;

  Timer timer;
  // Serial validation in TID order: any stale read aborts. Earlier commits
  // of the same block bump versions via block_overlay.
  std::unordered_map<Key, bool> block_overlay;  // keys written so far
  for (SimRecord& rec : records) {
    if (rec.logic_abort) continue;
    bool stale = false;
    for (const auto& [key, endorsed_version] : rec.read_versions) {
      if (block_overlay.count(key) != 0) {
        stale = true;  // an earlier txn of this block updated the key
        break;
      }
      std::optional<std::string> ignored;
      BlockId current_version = 0;
      HARMONY_RETURN_NOT_OK(store_->ReadVersionAtSnapshot(
          key, current_snapshot, &ignored, &current_version));
      if (current_version != endorsed_version) {
        stale = true;  // the key changed between endorsement and validation
        break;
      }
    }
    if (stale) {
      rec.cc_abort = true;
      continue;
    }
    HARMONY_RETURN_NOT_OK(ApplyValues(rec, batch.block_id));
    for (const auto& [key, value] : rec.write_values) {
      (void)value;
      block_overlay[key] = true;
    }
  }
  return FinishBlock(batch, std::move(st), timer.ElapsedMicros(), result);
}

Status FastFabricProtocol::Commit(const TxnBatch& batch, BlockResult* result) {
  SimState st = TakeSimState(batch.block_id);
  auto& records = st.records;
  const size_t n = records.size();
  const BlockId current_snapshot = batch.block_id - 1;

  Timer timer;

  // ---- Cross-block staleness first: the orderer validates endorsed
  // versions against its current state; stale transactions never make it
  // into the graph.
  for (SimRecord& rec : records) {
    if (rec.logic_abort) continue;
    for (const auto& [key, endorsed_version] : rec.read_versions) {
      std::optional<std::string> ignored;
      BlockId current_version = 0;
      HARMONY_RETURN_NOT_OK(store_->ReadVersionAtSnapshot(
          key, current_snapshot, &ignored, &current_version));
      if (current_version != endorsed_version) {
        rec.cc_abort = true;
        break;
      }
    }
  }

  // ---- Build the in-block dependency graph (serial — this is the
  // traversal the paper profiles as the bottleneck).
  auto alive = [&](size_t i) {
    return !records[i].logic_abort && !records[i].cc_abort;
  };
  auto build_graph = [&](std::vector<std::vector<int>>* adj, size_t* edges) {
    adj->assign(n, {});
    *edges = 0;
    std::unordered_map<Key, std::pair<std::vector<int>, std::vector<int>>> by_key;
    for (size_t i = 0; i < n; i++) {
      if (!alive(i)) continue;
      for (const auto& [k, v] : records[i].read_versions) {
        (void)v;
        by_key[k].first.push_back(static_cast<int>(i));
      }
      for (const auto& [k, v] : records[i].write_values) {
        (void)v;
        by_key[k].second.push_back(static_cast<int>(i));
      }
    }
    for (auto& [key, rw] : by_key) {
      (void)key;
      auto& [readers, writers] = rw;
      for (int r : readers) {
        for (int w : writers) {
          if (r != w) {
            (*adj)[r].push_back(w);  // reader must precede writer
            (*edges)++;
          }
        }
      }
      // ww edges: deterministic TID order among writers.
      std::sort(writers.begin(), writers.end());
      for (size_t a = 0; a + 1 < writers.size(); a++) {
        (*adj)[writers[a]].push_back(writers[a + 1]);
        (*edges)++;
      }
    }
  };

  std::vector<std::vector<int>> adj;
  size_t edges = 0;
  build_graph(&adj, &edges);

  // Graph too large: drop the highest-degree transactions (the paper notes
  // FastFabric#'s implementation sheds load this way).
  while (edges > cfg_.ff_graph_edge_cap) {
    std::vector<size_t> degree(n, 0);
    for (size_t i = 0; i < n; i++) {
      degree[i] += adj[i].size();
      for (int w : adj[i]) degree[w]++;
    }
    size_t worst = 0;
    for (size_t i = 1; i < n; i++) {
      if (alive(i) && degree[i] > degree[worst]) worst = i;
    }
    if (!alive(worst)) break;
    records[worst].cc_abort = true;
    build_graph(&adj, &edges);
  }

  // ---- Cycle elimination: abort the highest-degree member of each
  // non-trivial SCC, rebuild, repeat until acyclic.
  while (true) {
    std::vector<int> comp_size;
    std::vector<int> comp = FalseAbortOracle::Scc(adj, &comp_size);
    bool has_cycle = false;
    for (size_t i = 0; i < n; i++) {
      if (alive(i) && comp_size[comp[i]] > 1) {
        has_cycle = true;
        break;
      }
    }
    if (!has_cycle) break;
    // One victim per cyclic SCC per iteration.
    std::unordered_map<int, int> victim;  // comp -> node
    std::vector<size_t> degree(n, 0);
    for (size_t i = 0; i < n; i++) {
      degree[i] += adj[i].size();
      for (int w : adj[i]) degree[w]++;
    }
    for (size_t i = 0; i < n; i++) {
      if (!alive(i) || comp_size[comp[i]] <= 1) continue;
      auto it = victim.find(comp[i]);
      if (it == victim.end() ||
          degree[static_cast<size_t>(it->second)] < degree[i]) {
        victim[comp[i]] = static_cast<int>(i);
      }
    }
    for (const auto& [c, v] : victim) {
      (void)c;
      records[static_cast<size_t>(v)].cc_abort = true;
    }
    build_graph(&adj, &edges);
  }

  // ---- Serial apply in topological order. Kahn's algorithm on the acyclic
  // survivor graph; ties broken by TID for determinism.
  std::vector<int> indeg(n, 0);
  for (size_t i = 0; i < n; i++) {
    if (!alive(i)) continue;
    for (int w : adj[i]) {
      if (alive(static_cast<size_t>(w))) indeg[w]++;
    }
  }
  std::vector<int> ready;
  for (size_t i = 0; i < n; i++) {
    if (alive(i) && indeg[i] == 0) ready.push_back(static_cast<int>(i));
  }
  std::sort(ready.begin(), ready.end());
  std::vector<int> order;
  while (!ready.empty()) {
    // Smallest TID first among ready nodes (pop_front of a sorted list).
    const int v = ready.front();
    ready.erase(ready.begin());
    order.push_back(v);
    for (int w : adj[v]) {
      if (!alive(static_cast<size_t>(w))) continue;
      if (--indeg[w] == 0) {
        ready.insert(std::upper_bound(ready.begin(), ready.end(), w), w);
      }
    }
  }
  for (int v : order) {
    HARMONY_RETURN_NOT_OK(ApplyValues(records[static_cast<size_t>(v)],
                                      batch.block_id));
  }

  return FinishBlock(batch, std::move(st), timer.ElapsedMicros(), result);
}

}  // namespace harmony

#pragma once

#include <unordered_map>
#include <unordered_set>

#include "dcc/protocol.h"

namespace harmony {

/// Harmony (Section 3): optimistic DCC with
///  - abort-minimizing validation — Rule 1's backward dangerous structure
///    over the rw-subgraph, O(e) per transaction, fully parallel;
///  - update reordering (Rule 2) — ww/wr dependencies never abort; update
///    commands on a key are applied in ascending (min_out, tid) order, a
///    topological order of the acyclic rw-subgraph (Theorem 2);
///  - update coalescence — one transaction applies each key's commands,
///    merged into a single physical update (affine composition);
///  - inter-block parallelism — block i simulates against snapshot i-2 while
///    block i-1 finishes; Rule 3's generalized backward dangerous structure
///    keeps commits deterministic despite inter-block rw-dependencies.
class HarmonyProtocol : public DccProtocol {
 public:
  using DccProtocol::DccProtocol;

  DccKind kind() const override { return DccKind::kHarmony; }
  BlockId snapshot_lag() const override {
    return cfg_.harmony_inter_block ? 2 : 1;
  }
  bool supports_inter_block() const override {
    return cfg_.harmony_inter_block;
  }
  bool carries_state_across_blocks() const override {
    return cfg_.harmony_inter_block;
  }

  Status Simulate(const TxnBatch& batch) override;
  Status Commit(const TxnBatch& batch, BlockResult* result) override;

 private:
  /// What the next block needs to know about this block's committed
  /// transactions to evaluate Rule 3 (only kept with inter-block on).
  struct PrevBlockInfo {
    struct WriterInfo {
      TxnId tid = 0;
      TxnId gen_min_out = 0;  ///< generalized min_out at W's commit
    };
    std::unordered_map<Key, WriterInfo> writes;  ///< committed writers by key
    void Clear() { writes.clear(); }
  };

  PrevBlockInfo prev_;
};

}  // namespace harmony

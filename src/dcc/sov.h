#pragma once

#include "dcc/protocol.h"

namespace harmony {

/// Shared machinery for the Simulate-Order-Validate blockchains. The
/// "simulation" stage models endorsement: transactions execute against a
/// state that is `sov_endorsement_lag` blocks older than the validating
/// state (client round trip + ordering queue), capturing read *versions* and
/// evaluated write *values* — exactly what endorsers sign and ship.
class SovProtocolBase : public DccProtocol {
 public:
  using DccProtocol::DccProtocol;

  Status Simulate(const TxnBatch& batch) override;
  bool carries_state_across_blocks() const override {
    return cfg_.sov_endorsement_lag > 0;
  }

 protected:
  /// Applies a committed transaction's endorsed write values at `block`.
  Status ApplyValues(const SimRecord& rec, BlockId block);

  /// Assembles BlockResult/outcome counters and prunes old versions.
  Status FinishBlock(const TxnBatch& batch, SimState st, uint64_t commit_us,
                     BlockResult* result);
};

/// Hyperledger Fabric (v2.x) validation: serial, in TID order; a transaction
/// aborts on any stale read — i.e. the endorsed version of any read key
/// differs from the key's current version (including bumps by earlier
/// transactions of the same block). Cheap but the most conservative rule in
/// the taxonomy (any rw-dependency on an earlier committer aborts).
class FabricProtocol : public SovProtocolBase {
 public:
  using SovProtocolBase::SovProtocolBase;

  DccKind kind() const override { return DccKind::kFabric; }

  Status Commit(const TxnBatch& batch, BlockResult* result) override;
};

/// FastFabric# [Ruan et al., SIGMOD'20]: the ordering service builds the
/// block's transaction dependency graph (rw edges reader->writer, ww edges
/// by TID), breaks cycles by aborting high-degree members (dropping
/// transactions outright when the graph exceeds the edge cap), then applies
/// the survivors serially in topological order. Eliminates in-block false
/// aborts at the price of an expensive, unparallelizable graph traversal —
/// the bottleneck the paper profiles at 75% of runtime on YCSB.
class FastFabricProtocol : public SovProtocolBase {
 public:
  using SovProtocolBase::SovProtocolBase;

  DccKind kind() const override { return DccKind::kFastFabric; }

  Status Commit(const TxnBatch& batch, BlockResult* result) override;
};

}  // namespace harmony

#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "dcc/batch.h"
#include "dcc/reservation.h"
#include "storage/versioned_store.h"
#include "txn/txn_context.h"

namespace harmony {

/// Which deterministic concurrency control protocol a replica runs.
enum class DccKind {
  kHarmony,      ///< this paper (Section 3)
  kAria,         ///< Aria [VLDB'20] chainified (AriaBC)
  kRbc,          ///< RBC [VLDB'19]: OE + serial SSI validation
  kFabric,       ///< Fabric v2.x SOV: stale-read (version) validation
  kFastFabric,   ///< FastFabric#: orderer-side dependency-graph reordering
};

std::string_view DccKindName(DccKind k);

/// Tuning/ablation switches. Defaults reproduce each protocol as evaluated
/// in the paper; the harmony_* flags drive the Figure 20 ablation.
struct DccConfig {
  /// Build the per-block rw-subgraph and count CC aborts that are not part
  /// of any rw-cycle (Figure 13). Costs an extra SCC pass per block.
  bool enable_false_abort_oracle = false;

  // --- Harmony ablation flags (Figure 20) ---
  bool harmony_update_reordering = true;  ///< off => Aria-style ww aborts
  bool harmony_update_coalescing = true;  ///< off => one lookup per command
  bool harmony_inter_block = true;        ///< off => snapshot lag 1, no Rule 3

  // --- Aria ---
  bool aria_deterministic_reordering = true;  ///< waw ∨ (raw ∧ war) vs waw ∨ raw

  // --- SOV (Fabric / FastFabric#) ---
  /// Blocks between endorsement and validation (client round-trip + ordering
  /// queue depth). Staleness aborts grow with this lag.
  size_t sov_endorsement_lag = 2;
  /// FastFabric# drops transactions once the block dependency graph exceeds
  /// this many edges (matches the paper's observation in Section 5.3).
  size_t ff_graph_edge_cap = 20000;

  /// Straggler injection: with probability p a transaction's simulation
  /// stalls for `straggler_us` (models I/O+network latency variance inside a
  /// block, the motivation for inter-block parallelism).
  double straggler_prob = 0.0;
  uint64_t straggler_us = 0;

  /// Deterministic pipeline barrier period (= the replica's checkpoint
  /// period p). Snapshots never reach past the last barrier, so recovery
  /// from a checkpoint replays with byte-identical snapshot choices. The
  /// period is part of the chain configuration, hence identical on every
  /// replica — barriers cannot break determinism. 0 disables barriers.
  size_t barrier_every = 10;
};

/// One simulated transaction: read/write sets captured by the simulation
/// step plus the per-protocol validation scratch state.
struct SimRecord {
  TxnId tid = 0;
  bool logic_abort = false;
  bool cc_abort = false;

  std::vector<Key> reads;
  std::vector<std::pair<Key, UpdateCommand>> writes;

  /// SOV protocols ship evaluated values + read versions instead of commands.
  std::vector<std::pair<Key, std::optional<Value>>> write_values;
  std::vector<std::pair<Key, BlockId>> read_versions;

  // Harmony Algorithm 1 summary (filled in the commit step).
  TxnId min_out = 0;   ///< min outgoing rw TID (init tid+1)
  TxnId max_in = 0;    ///< max incoming rw TID (init kNoIncomingTid)
  TxnId gen_min_out = 0;  ///< generalized min_out incl. inter-block edges
};

/// State carried from a block's simulation step to its commit step.
struct SimState {
  std::vector<SimRecord> records;
  std::unique_ptr<ReservationTable> reservations;
  uint64_t sim_micros = 0;
};

/// The first failure among a block's store reads, recorded by the parallel
/// simulation workers. A failed read is a fault of this replica's storage,
/// not a deterministic outcome of the transaction, so it fails the whole
/// block — whatever the procedure made of it — instead of becoming a logic
/// abort that every other replica would disagree with.
class FirstStoreError {
 public:
  /// Remembers `s` if it is the first non-OK status; returns `s`.
  Status Note(Status s) {
    if (!s.ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      if (first_.ok()) first_ = s;
    }
    return s;
  }

  /// OK, or the first failure noted.
  Status status() {
    std::lock_guard<std::mutex> lk(mu_);
    return first_;
  }

 private:
  std::mutex mu_;
  Status first_;
};

/// A deterministic concurrency control protocol.
///
/// Execution is two-staged so the replica pipeline can overlap stages across
/// blocks (inter-block parallelism, Section 3.4):
///   Simulate(batch)  — obtains deterministic read-write sets; thread-safe
///                      with respect to earlier blocks' Commit;
///   Commit(batch)    — validation + apply; MUST be invoked in block order.
/// ExecuteBlock() runs both back-to-back for callers without a pipeline.
class DccProtocol {
 public:
  DccProtocol(VersionedStore* store, const ProcedureRegistry* procs,
              ThreadPool* pool, DccConfig cfg)
      : store_(store), procs_(procs), pool_(pool), cfg_(cfg) {}
  virtual ~DccProtocol() = default;

  virtual DccKind kind() const = 0;
  std::string_view name() const { return DccKindName(kind()); }

  /// Which earlier block's snapshot the simulation step reads. Harmony with
  /// inter-block parallelism uses lag 2 (snapshot of block i-2); everything
  /// else uses lag 1.
  virtual BlockId snapshot_lag() const { return 1; }

  /// Whether Simulate(i) may run concurrently with Commit(i-1).
  virtual bool supports_inter_block() const { return false; }

  /// Whether executing block i+1 depends on more than the committed state
  /// at block i: reads of older snapshots or inter-block dependencies.
  virtual bool carries_state_across_blocks() const { return false; }

  /// Whether the committed state at `block` alone decides how every later
  /// block executes, so that a state snapshot taken there is exact. A
  /// protocol that carries state across blocks reaches that point only at a
  /// checkpoint barrier.
  bool IsExactSnapshotBase(BlockId block) const {
    return !carries_state_across_blocks() ||
           (cfg_.barrier_every != 0 && block % cfg_.barrier_every == 0);
  }

  /// True for the first block after a checkpoint barrier: it must not carry
  /// pipeline state (snapshots, inter-block dependencies) across the
  /// barrier, so that recovery from the checkpoint is deterministic.
  bool IsBarrierFollower(BlockId block) const {
    return cfg_.barrier_every != 0 && block > 1 &&
           block == LastBarrierBefore(block) + 1;
  }

  virtual Status Simulate(const TxnBatch& batch) = 0;
  virtual Status Commit(const TxnBatch& batch, BlockResult* result) = 0;

  Status ExecuteBlock(const TxnBatch& batch, BlockResult* result) {
    HARMONY_RETURN_NOT_OK(Simulate(batch));
    return Commit(batch, result);
  }

  const ProtocolStats& stats() const { return stats_; }
  const DccConfig& config() const { return cfg_; }

 protected:
  /// Runs every transaction of the batch against `snapshot`, collecting
  /// read/write sets (and, when register_reservations, filling the
  /// reservation table). Parallel across transactions. A failed store read
  /// fails the batch with its status (see FirstStoreError).
  Status SimulateBatch(const TxnBatch& batch, BlockId snapshot,
                       bool register_reservations, SimState* out);

  /// Moves a completed SimState into / out of the pending map (pipeline).
  void StashSimState(BlockId block, SimState state);
  SimState TakeSimState(BlockId block);

  /// Computes false aborts for a finished block (oracle; see DccConfig).
  size_t CountFalseAborts(const SimState& state) const;

  /// Latest checkpoint barrier strictly before `block` (0 if none).
  BlockId LastBarrierBefore(BlockId block) const {
    if (cfg_.barrier_every == 0 || block == 0) return 0;
    return ((block - 1) / cfg_.barrier_every) * cfg_.barrier_every;
  }

  /// Clamps a desired snapshot so it never reaches past the last barrier.
  BlockId ClampSnapshot(BlockId desired, BlockId block) const {
    const BlockId barrier = LastBarrierBefore(block);
    return desired > barrier ? desired : barrier;
  }

  VersionedStore* store_;
  const ProcedureRegistry* procs_;
  ThreadPool* pool_;
  DccConfig cfg_;
  ProtocolStats stats_;

 private:
  std::mutex pending_mu_;
  std::unordered_map<BlockId, SimState> pending_;
};

/// Factory.
std::unique_ptr<DccProtocol> MakeProtocol(DccKind kind, VersionedStore* store,
                                          const ProcedureRegistry* procs,
                                          ThreadPool* pool,
                                          const DccConfig& cfg);

}  // namespace harmony

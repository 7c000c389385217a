#pragma once

#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/spin_lock.h"
#include "common/status.h"
#include "storage/state_backend.h"

namespace harmony {

/// Block-snapshot layer over a StateBackend.
///
/// Optimistic DCC protocols execute every transaction of block i against the
/// deterministic *block snapshot* of block i-1 (or i-2 with inter-block
/// parallelism). The backend always holds the newest committed value; this
/// layer keeps a short in-DRAM version chain per recently-written key so that
/// concurrent simulations can read older snapshots:
///
///   chain(k) = [base (pre-image before the oldest retained write),
///               (block b1, v1), (block b2, v2), ...]
///
/// ReadAtSnapshot(k, s) returns the newest version with block <= s, falling
/// back to the backend when k has no retained chain. Prune(t) collapses
/// versions <= t into the base once no simulation needs snapshots < t.
///
/// Invariant: the backend value of a key is older than every retained
/// snapshot only while the key has no chain. ApplyWrite installs the chain
/// (base = pre-image) *before* it writes through, and no lock is held across
/// backend I/O, so a read that found no chain re-checks after its backend
/// read: a chain that appeared in between answers instead, because the
/// backend value may already be the new write.
class VersionedStore {
 public:
  explicit VersionedStore(StateBackend* backend) : backend_(backend) {}

  /// Snapshot read. *out is nullopt when the key does not exist at `snapshot`.
  Status ReadAtSnapshot(Key key, BlockId snapshot,
                        std::optional<std::string>* out);

  /// Snapshot read that also reports the *version* (block id of the write
  /// that produced the value; 0 for values older than the retained window).
  /// SOV endorsement records these versions; validation detects stale reads
  /// by comparing them against the current version.
  Status ReadVersionAtSnapshot(Key key, BlockId snapshot,
                               std::optional<std::string>* out,
                               BlockId* version);

  /// Installs the value written by block `block` (nullopt = delete) and
  /// writes through to the backend. At most one writer per (key, block);
  /// blocks must apply in increasing block order for a given key.
  Status ApplyWrite(Key key, BlockId block,
                    const std::optional<std::string>& value);

  /// Drops version data not needed by snapshots >= `oldest_needed`.
  void Prune(BlockId oldest_needed);

  /// Drops every retained chain (snapshot install on a quiesced replica:
  /// the backend is about to be replaced wholesale, and a surviving chain
  /// would shadow the installed rows). Caller guarantees no concurrent
  /// simulation needs any retained snapshot.
  void Clear();

  /// Number of keys with retained version chains (tests/introspection).
  size_t retained_keys() const;

  StateBackend* backend() { return backend_; }

 private:
  struct Version {
    BlockId block;                     ///< 0 = base (older than any snapshot)
    std::optional<std::string> value;  ///< nullopt = key absent
  };
  struct Chain {
    std::vector<Version> versions;  ///< ascending block order
  };
  static constexpr size_t kShards = 256;
  struct Shard {
    mutable SpinLock mu;
    std::unordered_map<Key, Chain> chains;
  };

  Shard& ShardFor(Key k) { return shards_[Mix64(k) % kShards]; }
  /// Answers a snapshot read from k's chain; false when k has none.
  bool ReadChain(Key key, BlockId snapshot, std::optional<std::string>* out,
                 BlockId* version);

  StateBackend* backend_;
  std::array<Shard, kShards> shards_;
};

}  // namespace harmony

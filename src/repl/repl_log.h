#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chain/block_store.h"
#include "common/status.h"

namespace harmony {
namespace repl {

/// The leader's outbound block stream: a bounded in-memory window of
/// REPLICATE payloads over the persistent block log. Every payload carries
/// the block's stored log record verbatim, so nothing here encodes a block:
/// the hot path (a follower keeping up) is served from the window, and a
/// follower further behind falls through to a read of the stored record
/// bytes (docs/REPLICATION.md).
///
/// Thread-safe: Append runs on the replica's commit thread (block order),
/// Fetch on reactor threads (acks) and the commit thread (fan-out).
class ReplicationLog {
 public:
  /// `window_blocks` bounds the in-memory payload cache; the BlockStore
  /// backs everything older.
  explicit ReplicationLog(BlockStore* store, size_t window_blocks = 256);

  /// Caches the block's REPLICATE payload, built around `b.record` (the
  /// record the replica logged), and advances the tip. Blocks must arrive
  /// in increasing id order (the commit thread's order).
  void Append(const Block& b);

  /// REPLICATE payloads for blocks (after, after + max_count], in id order,
  /// stopping at the tip. Serves from the window when possible, else reads
  /// the stored records from the block log. `out` entries are
  /// (block_id, payload).
  Status Fetch(BlockId after, size_t max_count,
               std::vector<std::pair<BlockId, std::string>>* out);

  /// Highest block id Append has seen (seeded from the store's tip).
  BlockId tip() const;

 private:
  BlockStore* store_;
  const size_t window_;
  mutable std::mutex mu_;
  /// Contiguous ids; back() is the tip once non-empty.
  std::deque<std::pair<BlockId, std::string>> entries_;
  BlockId tip_ = 0;
};

}  // namespace repl
}  // namespace harmony

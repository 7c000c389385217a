#include "repl/repl_log.h"

#include <algorithm>

#include "chain/block.h"
#include "net/wire.h"

namespace harmony {
namespace repl {

ReplicationLog::ReplicationLog(BlockStore* store, size_t window_blocks)
    : store_(store), window_(window_blocks == 0 ? 1 : window_blocks) {
  tip_ = store_->last_block_id();
}

void ReplicationLog::Append(const Block& b) {
  std::lock_guard<std::mutex> lk(mu_);
  // Replays/duplicates (a Recover re-commit racing attach) must not fork
  // the window's contiguity; the store already holds them.
  if (b.header.block_id <= tip_ && tip_ != 0) return;
  std::string payload;
  net::EncodeReplicate(b.header.block_id, b.record, &payload);
  if (!entries_.empty() && entries_.back().first + 1 != b.header.block_id) {
    // Gap (first Append after a store-seeded tip): drop the stale window,
    // the store covers everything below.
    entries_.clear();
  }
  entries_.emplace_back(b.header.block_id, std::move(payload));
  while (entries_.size() > window_) entries_.pop_front();
  tip_ = b.header.block_id;
}

Status ReplicationLog::Fetch(
    BlockId after, size_t max_count,
    std::vector<std::pair<BlockId, std::string>>* out) {
  out->clear();
  if (max_count == 0) return Status::OK();
  BlockId window_front = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (after >= tip_) return Status::OK();
    // Never past the tip: the store may hold records still being written.
    max_count = std::min<size_t>(max_count, tip_ - after);
    if (!entries_.empty()) window_front = entries_.front().first;
    if (window_front != 0 && after + 1 >= window_front) {
      for (const auto& [id, payload] : entries_) {
        if (id <= after) continue;
        out->emplace_back(id, payload);
        if (out->size() >= max_count) break;
      }
      return Status::OK();
    }
  }
  // Cold path: the follower is behind the window — frame the stored
  // records as the log holds them. No lock held across the I/O.
  std::vector<std::pair<BlockId, std::string>> records;
  HARMONY_RETURN_NOT_OK(store_->ReadRecordsAfter(after, max_count, &records));
  for (const auto& [id, record] : records) {
    std::string payload;
    net::EncodeReplicate(id, record, &payload);
    out->emplace_back(id, std::move(payload));
  }
  return Status::OK();
}

BlockId ReplicationLog::tip() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tip_;
}

}  // namespace repl
}  // namespace harmony

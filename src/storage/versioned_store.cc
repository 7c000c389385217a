#include "storage/versioned_store.h"

#include <cassert>

namespace harmony {

bool VersionedStore::ReadChain(Key key, BlockId snapshot,
                               std::optional<std::string>* out,
                               BlockId* version) {
  Shard& shard = ShardFor(key);
  std::lock_guard<SpinLock> lk(shard.mu);
  auto it = shard.chains.find(key);
  if (it == shard.chains.end()) return false;
  const auto& versions = it->second.versions;
  for (auto rit = versions.rbegin(); rit != versions.rend(); ++rit) {
    if (rit->block <= snapshot) {
      *out = rit->value;
      *version = rit->block;
      return true;
    }
  }
  // A chain always starts with a base version (block 0 <= snapshot), so
  // falling through here is impossible.
  assert(false && "version chain without base");
  return false;
}

Status VersionedStore::ReadAtSnapshot(Key key, BlockId snapshot,
                                      std::optional<std::string>* out) {
  BlockId version = 0;
  return ReadVersionAtSnapshot(key, snapshot, out, &version);
}

Status VersionedStore::ReadVersionAtSnapshot(Key key, BlockId snapshot,
                                             std::optional<std::string>* out,
                                             BlockId* version) {
  if (ReadChain(key, snapshot, out, version)) return Status::OK();
  std::string v;
  Status s = backend_->Get(key, &v);
  if (!s.ok() && !s.IsNotFound()) return s;
  // A commit may have installed a chain and written through while the
  // backend was being read, so `v` may be newer than `snapshot`. The chain
  // was installed before the write-through and its base is the pre-image:
  // if one exists now, it has the answer.
  if (ReadChain(key, snapshot, out, version)) return Status::OK();
  // Still no chain: nothing wrote this key since the backend read began,
  // so the value predates every retained snapshot.
  *version = 0;
  if (s.IsNotFound()) {
    out->reset();
  } else {
    out->emplace(std::move(v));
  }
  return Status::OK();
}

Status VersionedStore::ApplyWrite(Key key, BlockId block,
                                  const std::optional<std::string>& value) {
  Shard& shard = ShardFor(key);
  // Fast path: chain exists, append.
  {
    std::lock_guard<SpinLock> lk(shard.mu);
    auto it = shard.chains.find(key);
    if (it != shard.chains.end()) {
      auto& versions = it->second.versions;
      assert(!versions.empty() && versions.back().block <= block);
      if (versions.back().block == block) {
        // Same-block overwrite (e.g. two serialized blind writers under
        // FastFabric#): last write wins.
        versions.back().value = value;
      } else {
        versions.push_back(Version{block, value});
      }
      goto write_through;
    }
  }
  {
    // First retained write to this key: capture the backend pre-image as the
    // base *before* writing through, so older snapshots stay readable.
    std::optional<std::string> base;
    std::string cur;
    Status s = backend_->Get(key, &cur);
    if (s.ok()) {
      base.emplace(std::move(cur));
    } else if (!s.IsNotFound()) {
      return s;
    }
    std::lock_guard<SpinLock> lk(shard.mu);
    auto& chain = shard.chains[key];
    if (chain.versions.empty()) {
      chain.versions.push_back(Version{0, std::move(base)});
    }
    assert(chain.versions.back().block <= block);
    if (chain.versions.back().block == block) {
      chain.versions.back().value = value;
    } else {
      chain.versions.push_back(Version{block, value});
    }
  }

write_through:
  if (value.has_value()) {
    return backend_->Put(key, *value, nullptr);
  }
  return backend_->Erase(key, nullptr);
}

void VersionedStore::Prune(BlockId oldest_needed) {
  for (auto& shard : shards_) {
    std::lock_guard<SpinLock> lk(shard.mu);
    for (auto it = shard.chains.begin(); it != shard.chains.end();) {
      auto& versions = it->second.versions;
      // Find the newest version with block <= oldest_needed; it becomes the
      // new base. Everything older is unreachable.
      size_t keep_from = 0;
      for (size_t i = 0; i < versions.size(); i++) {
        if (versions[i].block <= oldest_needed) keep_from = i;
      }
      if (keep_from + 1 == versions.size()) {
        // Only the base would remain: the backend already holds this value
        // (write-through), so the whole chain can go.
        it = shard.chains.erase(it);
        continue;
      }
      if (keep_from > 0) {
        versions.erase(versions.begin(), versions.begin() + keep_from);
      }
      versions.front().block = 0;  // collapsed into base
      ++it;
    }
  }
}

void VersionedStore::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<SpinLock> lk(shard.mu);
    shard.chains.clear();
  }
}

size_t VersionedStore::retained_keys() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<SpinLock> lk(shard.mu);
    n += shard.chains.size();
  }
  return n;
}

}  // namespace harmony

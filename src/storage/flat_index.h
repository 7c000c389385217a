#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"
#include "storage/page.h"

namespace harmony {

/// KvTable's Key -> Rid index: one flat array of 16-byte entries, open
/// addressing with linear probing from Mix64(key), a power-of-two capacity
/// kept at most 3/4 full, and backward-shift deletion, so there are no
/// tombstones and a probe stops at the first empty entry. An entry whose
/// `rid.page` is kInvalidPageId is empty. Not thread-safe: KvTable guards
/// it with its index lock.
class FlatIndex {
 public:
  struct Entry {
    Key key = 0;
    Rid rid;  ///< invalid: the entry is empty
  };
  static_assert(sizeof(Entry) == 16, "index entries are 16 bytes");

  static constexpr size_t kMinCapacity = 16;

  FlatIndex() : slots_(kMinCapacity), mask_(kMinCapacity - 1) {}

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// Where the key's probe starts.
  size_t HomeSlot(Key key) const { return Mix64(key) & mask_; }

  /// The key's Rid, or nullptr.
  const Rid* Find(Key key) const {
    const Entry& e = slots_[Probe(key)];
    return e.rid.valid() ? &e.rid : nullptr;
  }

  /// The entry holding `key`, or the empty entry a new `key` takes: fill
  /// that through Claim, with no Set, Erase or Reserve in between.
  Entry* Slot(Key key) { return &slots_[Probe(key)]; }
  void Claim(Entry* e, Key key, Rid rid) {
    e->key = key;
    e->rid = rid;
    size_++;
  }

  /// Inserts or overwrites.
  void Set(Key key, Rid rid) {
    Reserve(size_ + 1);
    Entry* e = Slot(key);
    if (e->rid.valid()) {
      e->rid = rid;
    } else {
      Claim(e, key, rid);
    }
  }

  /// Removes `key`; false if absent. With `rid`, receives its Rid.
  bool Erase(Key key, Rid* rid = nullptr) {
    size_t hole = Probe(key);
    if (!slots_[hole].rid.valid()) return false;
    if (rid != nullptr) *rid = slots_[hole].rid;
    // Backward shift: pull each later entry of the run whose probe passes
    // the hole into it, so the run has no gap a probe would stop at.
    for (size_t j = (hole + 1) & mask_; slots_[j].rid.valid();
         j = (j + 1) & mask_) {
      if (((j - HomeSlot(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].rid = Rid{};
    size_--;
    return true;
  }

  /// Sizes the table so `n` keys fit without a rehash.
  void Reserve(size_t n) {
    size_t cap = slots_.size();
    while (n > cap / 4 * 3) cap *= 2;
    if (cap != slots_.size()) Rehash(cap);
  }

  void Clear() {
    slots_.assign(kMinCapacity, Entry{});
    mask_ = kMinCapacity - 1;
    size_ = 0;
  }

 private:
  /// Index of the entry holding `key`, or of the empty entry ending its
  /// probe. The load-factor cap leaves an empty entry to stop at.
  size_t Probe(Key key) const {
    size_t i = HomeSlot(key);
    while (slots_[i].rid.valid() && slots_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  void Rehash(size_t cap) {
    const std::vector<Entry> old =
        std::exchange(slots_, std::vector<Entry>(cap));
    mask_ = cap - 1;
    for (const Entry& e : old) {
      if (e.rid.valid()) slots_[Probe(e.key)] = e;
    }
  }

  std::vector<Entry> slots_;
  size_t mask_;
  size_t size_ = 0;
};

}  // namespace harmony

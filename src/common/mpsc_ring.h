#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <utility>

namespace harmony {

/// Bounded lock-free multi-producer / single-consumer ring buffer
/// (Vyukov-style: per-slot sequence numbers instead of a shared head/tail
/// lock). Producers claim slots with one CAS on the tail; the consumer pops
/// with plain loads/stores on the head. No operation ever blocks: a full
/// ring fails the push (backpressure), an empty ring fails the pop.
///
/// Memory-ordering contract (see docs/INGEST.md for the full walkthrough):
///  - each slot carries a `seq` ticket. `seq == pos` means "free for the
///    producer claiming position pos"; `seq == pos + 1` means "filled, ready
///    for the consumer at position pos"; after the consumer empties it the
///    slot is re-ticketed `pos + capacity` for the next lap. A slot stores
///    its ticket minus its own index, so a never-touched slot (zero bytes)
///    reads as "free on lap 0".
///  - producers: `tail` is claimed with a relaxed CAS (the ticket, not the
///    tail, orders the payload); the payload construction is published by
///    the *release* store of `seq = pos + 1`, which the consumer's
///    *acquire* load of `seq` synchronizes with.
///  - consumer: reads the payload only after the acquire load observes
///    `seq == pos + 1`; the *release* store of `seq = pos + capacity` hands
///    the slot back, and a producer's *acquire* load of that ticket orders
///    its payload construction after the consumer's destruction.
///
/// Slots materialise on first use: the slot array is zero-filled anonymous
/// memory, the push that fills a slot constructs its payload in place and
/// the pop that empties it destroys it, and the destructor destroys
/// whatever is still queued. A ring that is never pushed to costs no page
/// faults; a busy one faults its pages in during its first lap, one write
/// fault per page: on lap 0 neither side reads a slot before a producer
/// has claimed it.
///
/// TryPop (and Peek-style accessors, if added) must be called by one thread
/// at a time — callers with several draining threads must serialize them
/// externally (the sealer does so under its seal mutex). TryPush is safe
/// from any number of threads concurrently with the consumer. Neither may
/// race the destructor.
///
/// Capacity is rounded up to a power of two. Slots are cache-line aligned
/// so two producers filling adjacent slots never false-share, and the
/// producer-side tail and consumer-side head live on separate lines.
template <typename T>
class MpscRing {
 public:
  explicit MpscRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    void* mem = ::mmap(nullptr, cap * sizeof(Cell), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
    cells_ = static_cast<Cell*>(mem);
  }

  ~MpscRing() {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (uint64_t pos = head_.load(std::memory_order_relaxed); pos != tail;
         pos++) {
      cells_[pos & mask_].payload()->~T();
    }
    ::munmap(cells_, capacity() * sizeof(Cell));
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Multi-producer enqueue. Returns false when the ring is full (the value
  /// is left untouched so the caller can surface backpressure or retry).
  bool TryPush(T& v) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      const size_t idx = pos & mask_;
      Cell& c = cells_[idx];
      // On lap 0 the slot is free by construction and the ring cannot be
      // full, so the claim skips the ticket read: the first touch of a
      // fresh page is then this write, not a read that maps the shared
      // zero page and a copy-on-write fault after it.
      const uint64_t seq =
          pos <= mask_ ? pos : c.seq.load(std::memory_order_acquire) + idx;
      const int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        // Slot is free this lap; claim it. The CAS can be relaxed: payload
        // visibility rides on the seq ticket, not on the tail counter.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          new (c.storage) T(std::move(v));
          c.seq.store(pos + 1 - idx, std::memory_order_release);
          return true;
        }
        // CAS refreshed pos with the current tail; retry there.
      } else if (dif < 0) {
        // The slot still holds last lap's ticket: the consumer hasn't freed
        // it, so the ring is full *at this instant*. (A concurrent pop can
        // make room immediately after — callers that want to wait out
        // backpressure simply call again.)
        return false;
      } else {
        // Another producer claimed pos; chase the tail.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  bool TryPush(T&& v) { return TryPush(v); }

  /// Single-consumer dequeue. Returns false when empty. A slot whose
  /// producer has claimed but not yet published (CAS done, release store
  /// pending) reads as empty — the item becomes visible a few instructions
  /// later, never out of order with earlier pushes by the same producer.
  bool TryPop(T* out) {
    const uint64_t pos = head_.load(std::memory_order_relaxed);
    // Never read a lap-0 slot no producer has claimed: it may sit on a
    // page nobody has touched yet (see TryPush).
    if (pos <= mask_ && pos == tail_.load(std::memory_order_relaxed)) {
      return false;
    }
    const size_t idx = pos & mask_;
    Cell& c = cells_[idx];
    const uint64_t seq = c.seq.load(std::memory_order_acquire) + idx;
    if (seq != pos + 1) return false;  // empty (or mid-publish)
    T* val = c.payload();
    *out = std::move(*val);
    val->~T();  // drop payload-owned memory now, not a full lap later
    c.seq.store(pos + mask_ + 1 - idx, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate occupancy (racy by nature; monitoring / heuristics only).
  size_t size() const {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    return t >= h ? static_cast<size_t>(t - h) : 0;
  }

  bool empty() const { return size() == 0; }
  size_t capacity() const { return mask_ + 1; }

 private:
  /// Never constructed: the zero bytes of fresh anonymous memory are a
  /// valid cell (ticket offset 0, no payload).
  struct alignas(64) Cell {
    std::atomic<uint64_t> seq;  ///< ticket minus this cell's index
    alignas(T) unsigned char storage[sizeof(T)];

    T* payload() { return std::launder(reinterpret_cast<T*>(storage)); }
  };

  Cell* cells_ = nullptr;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< producers CAS this
  alignas(64) std::atomic<uint64_t> head_{0};  ///< consumer-only
};

}  // namespace harmony

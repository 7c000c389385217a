#pragma once

// The benchmark's own bookkeeping: the exactly-once receipt ledger every
// load thread keeps, and the in-memory span log of the traced run.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/completion.h"

namespace harmonybench {

/// steady_clock in nanoseconds (the same clock as harmony::NowMicros).
int64_t NowNs();

/// One submitted transaction. The submitting thread writes the plain
/// fields before and after its Submit call; the receipt fields are written
/// by whichever thread resolves the receipt.
struct Slot {
  int64_t due_ns = 0;           ///< open loop: scheduled send time
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  std::atomic<int64_t> recv_ns{0};
  std::atomic<uint8_t> outcome{0};   ///< ReceiptOutcome + 1 once resolved
  std::atomic<uint8_t> receipts{0};  ///< must end at exactly 1
};

/// Per-client ledger keyed by client_seq. The benchmark assigns seqs
/// 1, 2, 3, ... itself, so a receipt for a seq never issued, or a second
/// receipt for one seq, is an anomaly the correctness check fails on.
class Ledger {
 public:
  Ledger();

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Submitting thread only: issues the next seq and returns its slot.
  Slot* Issue(uint64_t* seq);

  /// Any thread: records a receipt. Returns false for an anomaly.
  bool Resolve(const harmony::TxnReceipt& r, int64_t now_ns);

  uint64_t issued() const { return issued_.load(std::memory_order_acquire); }
  uint64_t anomalies() const {
    return anomalies_.load(std::memory_order_relaxed);
  }
  /// Slot of an issued seq (1-based).
  Slot& at(uint64_t seq) {
    Slot* chunk =
        table_[(seq - 1) >> kChunkBits].load(std::memory_order_acquire);
    return chunk[(seq - 1) & (kChunk - 1)];
  }

  /// Issued seqs whose receipt count is not exactly one.
  uint64_t CountUnresolved();

 private:
  static constexpr size_t kChunkBits = 14;
  static constexpr size_t kChunk = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = 1 << 12;

  /// Fixed table of chunk pointers: a chunk is published before the seqs
  /// in it are issued, so resolving threads never see a table reallocate.
  std::unique_ptr<std::atomic<Slot*>[]> table_;
  std::vector<std::unique_ptr<Slot[]>> owned_;  ///< issuing thread only
  std::atomic<uint64_t> issued_{0};
  std::atomic<uint64_t> anomalies_{0};
};

/// Spans recorded by the benchmark around the public calls it makes: name,
/// start, end, parent span, transaction. Kept in memory, written at exit.
class SpanLog {
 public:
  SpanLog() : epoch_ns_(NowNs()) {}

  /// Opens a span; returns its id (ids start at 1, 0 = no parent).
  uint64_t Begin(std::string_view name, uint64_t parent);
  void End(uint64_t id);
  /// Records a span whose times are already known.
  uint64_t Add(std::string_view name, uint64_t parent, uint64_t txn,
               int64_t start_ns, int64_t end_ns);

  size_t size() const;

  /// One span per line: id, parent, name, txn, start and end in ns since
  /// the log was created.
  harmony::Status WriteTsv(const std::string& path) const;

 private:
  struct Span {
    uint32_t name = 0;
    uint64_t parent = 0;
    uint64_t txn = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  uint32_t NameIdLocked(std::string_view name);

  const int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, uint64_t parent = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

}  // namespace harmonybench

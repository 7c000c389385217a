#pragma once

// Lock-free metrics: named counters, gauges, and fixed-bucket log-scale
// latency histograms behind a registry with a consistent Snapshot().
//
// LatencyHistogram is the repo's one latency histogram, safe on hot paths:
// recording is a handful of relaxed atomic ops into cache-line-padded
// per-thread stripes, memory is fixed at construction (no allocation per
// sample), and stripes merge on snapshot. Precision is ~12.5% worst-case
// relative error (4 sub-buckets per octave), which is plenty for p50/p99
// stage attribution and bench percentiles.
//
// Ownership: a MetricsRegistry owns its instruments; Get* returns stable
// pointers that live as long as the registry. Each HarmonyBC instance owns
// one registry (so tests do not pollute each other); standalone code can
// use MetricsRegistry::Default(), the process-wide instance.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace harmony {
namespace obs {

/// Escape a string for embedding in a JSON double-quoted literal.
std::string JsonEscape(std::string_view s);

/// Monotonic event counter. fetch_add(relaxed); cache-line padded so
/// adjacent registry entries do not false-share.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<uint64_t> v_{0};
};

/// Last-writer-wins instantaneous value (heights, queue depths).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<int64_t> v_{0};
};

/// Merged read-side view of one histogram. Also the wire/JSON shape: only
/// non-zero buckets are materialized, as (bucket index, count) pairs sorted
/// by index.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<std::pair<uint32_t, uint64_t>> buckets;

  double Mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
  /// Percentile estimate (p in [0,100]) from bucket midpoints; exact for
  /// values < 8 (unit-width buckets), <=12.5% relative error above.
  double Percentile(double p) const;
};

/// Fixed-memory log-scale histogram of microsecond latencies.
///
/// Bucketing (HdrHistogram-lite): values 0..2*kSub-1 get exact unit
/// buckets; above that, each power-of-two octave splits into kSub
/// sub-buckets keyed by the top kSubBits mantissa bits. 252 buckets cover
/// the full uint64 range.
///
/// Write side: kStripes cache-line-padded stripes of relaxed atomics; a
/// thread picks its stripe by hashed thread id, so concurrent recorders
/// rarely contend on a line. Snap() merges stripes; it reads each stripe's
/// count *before* its buckets (and Record bumps the bucket before the
/// count), so an in-flight sample can only make sum(buckets) >= count —
/// snapshots never under-report buckets relative to count.
class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBits = 2;           ///< 4 sub-buckets/octave
  static constexpr uint32_t kSub = 1u << kSubBits;
  static constexpr uint32_t kBuckets = (64 - kSubBits) * kSub + kSub;

  /// Bucket index for a value (monotone in v).
  static uint32_t BucketFor(uint64_t v) {
    if (v < 2 * kSub) return static_cast<uint32_t>(v);
    const uint32_t h = 63u - static_cast<uint32_t>(__builtin_clzll(v));
    const uint32_t sub =
        static_cast<uint32_t>(v >> (h - kSubBits)) & (kSub - 1);
    return (h - kSubBits + 1) * kSub + sub;
  }

  /// Smallest value mapping to bucket idx (inverse of BucketFor).
  static uint64_t BucketLow(uint32_t idx) {
    if (idx < 2 * kSub) return idx;
    const uint32_t h = idx / kSub - 1 + kSubBits;
    const uint64_t sub = idx % kSub;
    return (uint64_t{1} << h) + (sub << (h - kSubBits));
  }

  LatencyHistogram();

  void Record(uint64_t value_us);

  /// Merge all stripes into one view. Safe concurrently with Record; see
  /// class comment for the (weak but useful) ordering guarantee.
  HistogramSnapshot Snap() const;

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> buckets[kBuckets] = {};
  };
  static size_t StripeIndex();

  std::unique_ptr<Stripe[]> stripes_;
};

/// One slowest-txn forensic record, assembled at receipt resolution from
/// the txn's TraceClock stamps. queue_wait_us + commit_lag_us ==
/// total_us exactly (all three derive from the same clock reads).
struct SlowTxnTrace {
  uint64_t client_id = 0;
  uint64_t client_seq = 0;
  uint64_t block_id = 0;
  uint64_t queue_wait_us = 0;  ///< admit -> lane dequeue
  uint64_t commit_lag_us = 0;  ///< lane dequeue -> receipt resolution
  uint64_t total_us = 0;       ///< admit -> receipt resolution
  uint32_t retries = 0;
};

/// Point-in-time copy of a whole registry, renderable as a text table or
/// JSON and serializable over the wire (net/wire.h EncodeMetrics).
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    int64_t value = 0;
  };

  std::vector<CounterEntry> counters;       // sorted by name
  std::vector<GaugeEntry> gauges;           // sorted by name
  std::vector<HistogramSnapshot> histograms;  // sorted by name
  std::vector<SlowTxnTrace> slow_txns;      // slowest first

  std::string RenderTable() const;
  std::string RenderJson() const;
  /// Prometheus text exposition (docs/OBSERVABILITY.md): counters and
  /// gauges as-is (dots mapped to underscores, "harmony_" prefix),
  /// histograms as summaries (p50/p99 quantiles + _sum/_count), per-peer
  /// replication gauges with the peer name as a node="..." label.
  std::string RenderProm() const;
};

/// Named-instrument registry. Get* is get-or-create under a mutex (cold
/// path — callers cache the returned pointer); the instruments themselves
/// are lock-free. Snapshot() walks everything under the same mutex.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// The process-wide registry, for code with no HarmonyBC instance.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> hists_;
};

}  // namespace obs
}  // namespace harmony

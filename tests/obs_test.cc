#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/harmonybc.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fuzz.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

using obs::LatencyHistogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::SlowTxnTrace;
using obs::TxnTracer;

constexpr uint64_t kWaitUs = 30'000'000;

Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
  return Status::OK();
}

// ----------------------------------------------------- bucket math ----------

TEST(LatencyHistogramTest, BucketMappingIsMonotoneAndInvertible) {
  // Exact unit buckets below 2*kSub.
  for (uint64_t v = 0; v < 2 * LatencyHistogram::kSub; v++) {
    EXPECT_EQ(LatencyHistogram::BucketFor(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLow(static_cast<uint32_t>(v)), v);
  }
  // BucketLow is the smallest value mapping to its bucket, and BucketFor
  // never decreases as v grows.
  uint32_t prev = 0;
  for (uint64_t v = 0; v < 100'000; v++) {
    const uint32_t idx = LatencyHistogram::BucketFor(v);
    EXPECT_GE(idx, prev);
    EXPECT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::BucketLow(idx), v);
    prev = idx;
  }
  // Spot-check the top of the range.
  for (uint64_t v :
       {uint64_t{1} << 32, uint64_t{1} << 47, ~uint64_t{0} >> 1, ~uint64_t{0}}) {
    const uint32_t idx = LatencyHistogram::BucketFor(v);
    EXPECT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::BucketLow(idx), v);
    EXPECT_EQ(LatencyHistogram::BucketFor(LatencyHistogram::BucketLow(idx)),
              idx);
  }
}

TEST(LatencyHistogramTest, PercentileWithinRelativeErrorBound) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10'000; v++) h.Record(v);
  const obs::HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, 10'000u);
  EXPECT_EQ(s.max, 10'000u);
  // 4 sub-buckets per octave -> <= 12.5% relative error per sample.
  EXPECT_NEAR(s.Percentile(50), 5000.0, 5000.0 * 0.125);
  EXPECT_NEAR(s.Percentile(99), 9900.0, 9900.0 * 0.125);
  EXPECT_NEAR(s.Mean(), 5000.5, 0.1);
}

// ------------------------------------------ concurrent record vs snap -------

TEST(LatencyHistogramTest, ConcurrentRecordAndSnapKeepInvariant) {
  LatencyHistogram h;
  constexpr size_t kThreads = 4;
  constexpr uint64_t kPerThread = 20'000;
  std::atomic<bool> stop{false};

  std::thread snapper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::HistogramSnapshot s = h.Snap();
      uint64_t bucket_total = 0;
      for (const auto& [idx, cnt] : s.buckets) {
        EXPECT_LT(idx, LatencyHistogram::kBuckets);
        bucket_total += cnt;
      }
      // Record bumps the bucket before the count and Snap reads the count
      // before the buckets, so a snapshot may see a sample's bucket without
      // its count — never the reverse.
      EXPECT_GE(bucket_total, s.count);
    }
  });

  std::vector<std::thread> recorders;
  for (size_t t = 0; t < kThreads; t++) {
    recorders.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        h.Record((i * (t + 1)) % 4096);
      }
    });
  }
  for (auto& t : recorders) t.join();
  stop.store(true, std::memory_order_release);
  snapper.join();

  // Quiescent: the final snapshot is exact.
  const obs::HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t bucket_total = 0, expected_sum = 0;
  for (const auto& [idx, cnt] : s.buckets) bucket_total += cnt;
  EXPECT_EQ(bucket_total, s.count);
  for (size_t t = 0; t < kThreads; t++) {
    for (uint64_t i = 0; i < kPerThread; i++) expected_sum += (i * (t + 1)) % 4096;
  }
  EXPECT_EQ(s.sum, expected_sum);
}

TEST(MetricsRegistryTest, ConcurrentCountersAndSnapshot) {
  MetricsRegistry reg;
  constexpr size_t kThreads = 4;
  constexpr uint64_t kPerThread = 50'000;
  std::atomic<bool> stop{false};

  std::thread snapper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)reg.Snapshot();
    }
  });
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; t++) {
    workers.emplace_back([&] {
      obs::Counter* c = reg.GetCounter("test.events");
      obs::Gauge* g = reg.GetGauge("test.depth");
      for (uint64_t i = 0; i < kPerThread; i++) {
        c->Add(1);
        g->Set(static_cast<int64_t>(i));
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_release);
  snapper.join();

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "test.events");
  EXPECT_EQ(snap.counters[0].value, kThreads * kPerThread);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, static_cast<int64_t>(kPerThread - 1));
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("a");
  EXPECT_EQ(reg.GetCounter("a"), c);
  EXPECT_NE(reg.GetCounter("b"), c);
  LatencyHistogram* h = reg.GetHistogram("h");
  EXPECT_EQ(reg.GetHistogram("h"), h);
}

// ----------------------------------------------------- slow-txn ring --------

TEST(TxnTracerTest, SlowRingMinReplaceEvictionOrder) {
  MetricsRegistry reg;
  TxnTracer tracer(&reg, /*enabled=*/true, /*slow_capacity=*/4);
  for (uint64_t total : {10, 20, 5, 30, 40}) {
    SlowTxnTrace t;
    t.client_seq = total;  // tag so we can tell entries apart
    t.total_us = total;
    tracer.RecordSlow(t);
  }
  const std::vector<SlowTxnTrace> slow = tracer.SlowTxns();
  ASSERT_EQ(slow.size(), 4u);
  EXPECT_EQ(slow[0].total_us, 40u);
  EXPECT_EQ(slow[1].total_us, 30u);
  EXPECT_EQ(slow[2].total_us, 20u);
  EXPECT_EQ(slow[3].total_us, 10u);  // 5 was evicted (never entered)

  // A trace no slower than the current floor is rejected.
  SlowTxnTrace still_fast;
  still_fast.total_us = 10;
  tracer.RecordSlow(still_fast);
  EXPECT_EQ(tracer.SlowTxns().back().total_us, 10u);
  SlowTxnTrace slower;
  slower.total_us = 15;
  tracer.RecordSlow(slower);
  EXPECT_EQ(tracer.SlowTxns().back().total_us, 15u);
}

// ------------------------------------------- end-to-end stage stamps --------

TEST(TracingTest, StageStampsAreMonotonicPerReceipt) {
  TempDir dir("obs-stages");
  HarmonyBC::Options o;
  o.dir = dir.path();
  o.disk = DiskModel::RamDisk();
  o.block_size = 8;
  o.threads = 4;
  o.max_block_delay_us = 5'000;
  o.enable_tracing = true;
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->RegisterProcedure(1, "inc", Increment);
  for (Key k = 0; k < 8; k++) ASSERT_OK((*db)->Load(k, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  std::vector<TxnTicket> tickets;
  for (int i = 0; i < 64; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {i % 8, 1};
    tickets.push_back(session->Submit(std::move(t)));
  }
  for (auto& t : tickets) {
    TxnReceipt r;
    ASSERT_TRUE(t.WaitFor(kWaitUs, &r));
    EXPECT_EQ(r.outcome, ReceiptOutcome::kCommitted);
  }
  ASSERT_OK((*db)->Sync());

  const MetricsSnapshot snap = (*db)->CollectMetrics();
  // Every committed txn went through the resolve histogram.
  uint64_t resolved = 0, traced = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == obs::kHistResolve) resolved = h.count;
  }
  for (const auto& c : snap.counters) {
    if (c.name == obs::kCounterTxnsTraced) traced = c.value;
  }
  EXPECT_EQ(resolved, 64u);
  EXPECT_EQ(traced, 64u);

  // Slow-ring entries decompose exactly: queue_wait + commit_lag == total,
  // i.e. the stage stamps are monotone admit <= dequeue <= resolve.
  ASSERT_FALSE(snap.slow_txns.empty());
  for (const SlowTxnTrace& t : snap.slow_txns) {
    EXPECT_EQ(t.queue_wait_us + t.commit_lag_us, t.total_us);
    EXPECT_GT(t.block_id, 0u);
  }
  // Slowest-first ordering.
  for (size_t i = 1; i < snap.slow_txns.size(); i++) {
    EXPECT_GE(snap.slow_txns[i - 1].total_us, snap.slow_txns[i].total_us);
  }

  // The gauges were refreshed by CollectMetrics.
  for (const auto& g : snap.gauges) {
    if (g.name == obs::kGaugeHeight) EXPECT_GT(g.value, 0);
  }

  // Renderers cover every section without crashing and emit valid-looking
  // output (spot checks; the JSON shape is consumed by harmonyd --json).
  const std::string json = snap.RenderJson();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find(obs::kHistQueueWait), std::string::npos);
  EXPECT_NE(json.find("\"slow_txns\""), std::string::npos);
  const std::string table = snap.RenderTable();
  EXPECT_NE(table.find(obs::kHistCommitLag), std::string::npos);
}

TEST(TracingTest, DisabledTracingRecordsNothing) {
  TempDir dir("obs-off");
  HarmonyBC::Options o;
  o.dir = dir.path();
  o.disk = DiskModel::RamDisk();
  o.block_size = 4;
  o.threads = 2;
  o.max_block_delay_us = 2'000;
  ASSERT_FALSE(o.enable_tracing);  // off by default
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  ASSERT_OK((*db)->Load(0, Value({0})));
  ASSERT_OK((*db)->Recover().status());
  auto session = (*db)->OpenSession();
  TxnRequest t;
  t.proc_id = 1;
  t.args.ints = {0, 1};
  TxnReceipt r;
  ASSERT_TRUE(session->Submit(std::move(t)).WaitFor(kWaitUs, &r));
  ASSERT_OK((*db)->Sync());

  const MetricsSnapshot snap = (*db)->CollectMetrics();
  // The schema is stable (instruments exist) but nothing was recorded.
  for (const auto& h : snap.histograms) EXPECT_EQ(h.count, 0u) << h.name;
  EXPECT_TRUE(snap.slow_txns.empty());
}

// ------------------------------------------------- wire round trip ----------

TEST(WireMetricsTest, EncodeDecodeRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("txn.traced")->Add(7);
  reg.GetGauge("chain.height")->Set(-3);  // negative survives the u64 cast
  LatencyHistogram* h = reg.GetHistogram("txn.resolve_us");
  for (uint64_t v : {1, 5, 100, 100'000}) h->Record(v);
  MetricsSnapshot snap = reg.Snapshot();
  SlowTxnTrace t;
  t.client_id = 9;
  t.client_seq = 4;
  t.block_id = 2;
  t.queue_wait_us = 10;
  t.commit_lag_us = 30;
  t.total_us = 40;
  t.retries = 1;
  snap.slow_txns.push_back(t);

  std::string payload;
  net::EncodeMetrics(snap, &payload);
  MetricsSnapshot back;
  ASSERT_TRUE(net::DecodeMetrics(payload, &back));

  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].name, "txn.traced");
  EXPECT_EQ(back.counters[0].value, 7u);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_EQ(back.gauges[0].value, -3);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].name, "txn.resolve_us");
  EXPECT_EQ(back.histograms[0].count, 4u);
  EXPECT_EQ(back.histograms[0].sum, 100'106u);
  EXPECT_EQ(back.histograms[0].max, 100'000u);
  EXPECT_EQ(back.histograms[0].buckets, snap.histograms[0].buckets);
  ASSERT_EQ(back.slow_txns.size(), 1u);
  EXPECT_EQ(back.slow_txns[0].client_id, 9u);
  EXPECT_EQ(back.slow_txns[0].commit_lag_us, 30u);
  EXPECT_EQ(back.slow_txns[0].retries, 1u);
}

TEST(WireMetricsTest, DecodeRejectsHostileInput) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Add(1);
  reg.GetHistogram("h")->Record(5);
  MetricsSnapshot snap = reg.Snapshot();
  std::string payload;
  net::EncodeMetrics(snap, &payload);

  MetricsSnapshot out;
  // Truncations at every boundary must fail cleanly, never crash or
  // over-allocate.
  for (size_t cut = 0; cut < payload.size(); cut++) {
    EXPECT_FALSE(net::DecodeMetrics(payload.substr(0, cut), &out))
        << "cut at " << cut;
  }
  // Trailing garbage is a protocol error too.
  EXPECT_FALSE(net::DecodeMetrics(payload + "x", &out));
  // An absurd entry count fails the plausibility check before any resize.
  std::string bomb;
  bomb.append("\xff\xff\xff\xff", 4);  // n_counters = 2^32-1
  EXPECT_FALSE(net::DecodeMetrics(bomb, &out));
}

TEST(WireMetricsTest, MutatedPayloadsNeverCrashDecode) {
  // kOpMetrics payloads under the shared structure-aware mutator
  // (src/testing/fuzz.h): DecodeMetrics must reject or accept every mutant
  // without crashing, and an accepted mutant must be internally consistent
  // enough to re-encode. fuzz_harness --target metrics runs the same
  // invariant orders of magnitude deeper.
  MetricsRegistry reg;
  reg.GetCounter("txn.traced")->Add(3);
  reg.GetGauge("chain.height")->Set(12);
  LatencyHistogram* h = reg.GetHistogram("txn.resolve_us");
  for (uint64_t v : {2, 40, 9'000}) h->Record(v);
  MetricsSnapshot snap = reg.Snapshot();
  SlowTxnTrace t;
  t.client_id = 1;
  t.client_seq = 2;
  t.total_us = 50;
  snap.slow_txns.push_back(t);
  std::string valid;
  net::EncodeMetrics(snap, &valid);

  const std::vector<std::string> corpus = {valid};
  const testing::Mutator mutator(&corpus);
  for (uint64_t iter = 0; iter < 500; iter++) {
    testing::FuzzRng rng(testing::CaseSeed(/*run_seed=*/7, iter));
    std::string mutant = valid;
    mutator.Mutate(rng, &mutant);
    MetricsSnapshot out;
    if (net::DecodeMetrics(mutant, &out)) {
      std::string reencoded;
      net::EncodeMetrics(out, &reencoded);
      EXPECT_FALSE(reencoded.empty()) << "iter " << iter;
    }
  }
  // The unmutated payload always decodes.
  MetricsSnapshot back;
  ASSERT_TRUE(net::DecodeMetrics(valid, &back));
  EXPECT_EQ(back.counters.size(), 1u);
}

// ----------------------------------------------------- event log ------------

TEST(EventLogTest, EmitSinceAndDetailTruncation) {
  obs::EventLog log(/*capacity=*/8);
  EXPECT_EQ(log.head(), 0u);
  std::vector<obs::EventRecord> out;
  EXPECT_EQ(log.Since(0, 16, &out), 0u);
  EXPECT_TRUE(out.empty());

  log.Emit(obs::EventSeverity::kInfo, obs::EventCode::kFollowerJoin,
           "f1 @ tip 0");
  log.Emit(obs::EventSeverity::kWarn, obs::EventCode::kReconnect,
           std::string(500, 'x'));
  const uint64_t next = log.Since(0, 16, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(next, 2u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[0].code,
            static_cast<uint16_t>(obs::EventCode::kFollowerJoin));
  EXPECT_EQ(out[0].severity, static_cast<uint8_t>(obs::EventSeverity::kInfo));
  EXPECT_EQ(out[0].detail, "f1 @ tip 0");
  // Oversized detail is truncated at Emit, not rejected.
  EXPECT_EQ(out[1].detail, std::string(obs::EventLog::kMaxDetail, 'x'));

  // Resuming from the returned cursor yields nothing until a new Emit.
  out.clear();
  EXPECT_EQ(log.Since(next, 16, &out), next);
  EXPECT_TRUE(out.empty());
}

TEST(EventLogTest, WrapAroundEvictsOldestAndFastForwardsStaleCursor) {
  obs::EventLog log(/*capacity=*/8);
  for (int i = 0; i < 20; i++) {
    log.Emit(obs::EventSeverity::kInfo, obs::EventCode::kRedirect,
             "e" + std::to_string(i));
  }
  // Cursor 0 points at long-evicted events: the read fast-forwards to the
  // oldest retained seq (12) instead of returning garbage or failing.
  std::vector<obs::EventRecord> out;
  EXPECT_EQ(log.Since(0, 64, &out), 20u);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(out.front().seq, 12u);
  EXPECT_EQ(out.back().seq, 19u);
  for (size_t i = 0; i < out.size(); i++) {
    EXPECT_EQ(out[i].seq, 12u + i);
    EXPECT_EQ(out[i].detail, "e" + std::to_string(12 + i));
  }
  // max_entries caps a batch; the returned cursor resumes mid-ring.
  out.clear();
  uint64_t c = log.Since(12, 3, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(c, 15u);
  out.clear();
  c = log.Since(c, 64, &out);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(c, 20u);
}

TEST(EventLogTest, ConcurrentEmitVsSinceNeverTears) {
  // A deliberately tiny ring under heavy multi-writer churn: readers race
  // the wrap-around constantly. The per-slot seqlock must never let a torn
  // slot escape — every record handed back carries the exact payload some
  // writer emitted, and seqs within a batch are monotone (gaps are fine:
  // a slot mid-overwrite is skipped, a slow poller loses the middle).
  obs::EventLog log(/*capacity=*/16);
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 20'000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    uint64_t cursor = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<obs::EventRecord> out;
      const uint64_t next = log.Since(cursor, 64, &out);
      EXPECT_GE(next, cursor);
      uint64_t floor = cursor;
      for (const obs::EventRecord& e : out) {
        EXPECT_GE(e.seq, floor);
        EXPECT_LT(e.seq, next);
        floor = e.seq + 1;
        EXPECT_EQ(e.code,
                  static_cast<uint16_t>(obs::EventCode::kFollowerJoin));
        // Torn-read canary: every writer emits "w<writer>:<i>", so any
        // mixed-slot copy shows up as a malformed detail.
        ASSERT_FALSE(e.detail.empty());
        EXPECT_EQ(e.detail[0], 'w');
        EXPECT_NE(e.detail.find(':'), std::string::npos) << e.detail;
      }
      cursor = next;
    }
  });

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      const std::string tag = "w" + std::to_string(t) + ":";
      for (uint64_t i = 0; i < kPerWriter; i++) {
        log.Emit(obs::EventSeverity::kInfo, obs::EventCode::kFollowerJoin,
                 tag + std::to_string(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(log.head(), kWriters * kPerWriter);
  // Quiescent: exactly the last `capacity` events are retained and clean.
  std::vector<obs::EventRecord> out;
  EXPECT_EQ(log.Since(0, 64, &out), log.head());
  EXPECT_EQ(out.size(), log.capacity());
}

// ------------------------------------- health/events wire round trip --------

TEST(WireHealthTest, EncodeDecodeRoundTripAndHostileInput) {
  net::WireHealth h;
  h.role = net::WireHealth::kFollower;
  h.node = "follower-2";
  h.height = 123;
  h.durable_tip = 120;
  h.leader_addr = "127.0.0.1:7777";
  h.peer_count = 0;
  h.uptime_us = 5'000'000;
  std::string payload;
  net::EncodeHealth(h, &payload);

  net::WireHealth back;
  ASSERT_TRUE(net::DecodeHealth(payload, &back));
  EXPECT_EQ(back.role, net::WireHealth::kFollower);
  EXPECT_EQ(back.node, "follower-2");
  EXPECT_EQ(back.height, 123u);
  EXPECT_EQ(back.durable_tip, 120u);
  EXPECT_EQ(back.leader_addr, "127.0.0.1:7777");
  EXPECT_EQ(back.uptime_us, 5'000'000u);

  // Truncation at every boundary and trailing garbage fail cleanly.
  net::WireHealth out;
  for (size_t cut = 0; cut < payload.size(); cut++) {
    EXPECT_FALSE(net::DecodeHealth(payload.substr(0, cut), &out))
        << "cut at " << cut;
  }
  EXPECT_FALSE(net::DecodeHealth(payload + "x", &out));
  // Role outside the enum is a protocol error, not a passthrough.
  std::string bad_role = payload;
  bad_role[0] = 3;
  EXPECT_FALSE(net::DecodeHealth(bad_role, &out));
}

TEST(WireEventsTest, EncodeDecodeRoundTripAndHostileInput) {
  std::vector<obs::EventRecord> events;
  for (int i = 0; i < 3; i++) {
    obs::EventRecord e;
    e.seq = 40 + i;
    e.time_us = 1'000'000 + i;
    e.severity = static_cast<uint8_t>(i % 3);
    e.code = static_cast<uint16_t>(obs::EventCode::kSnapshotInstall);
    e.detail = "detail " + std::to_string(i);
    events.push_back(e);
  }
  std::string payload;
  net::EncodeEvents(/*next_cursor=*/43, events, &payload);

  uint64_t next = 0;
  std::vector<obs::EventRecord> back;
  ASSERT_TRUE(net::DecodeEvents(payload, &next, &back));
  EXPECT_EQ(next, 43u);
  ASSERT_EQ(back.size(), 3u);
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(back[i].seq, 40u + i);
    EXPECT_EQ(back[i].time_us, 1'000'000u + i);
    EXPECT_EQ(back[i].severity, static_cast<uint8_t>(i % 3));
    EXPECT_EQ(back[i].detail, "detail " + std::to_string(i));
  }

  uint64_t n2 = 0;
  std::vector<obs::EventRecord> out;
  for (size_t cut = 0; cut < payload.size(); cut++) {
    EXPECT_FALSE(net::DecodeEvents(payload.substr(0, cut), &n2, &out))
        << "cut at " << cut;
  }
  EXPECT_FALSE(net::DecodeEvents(payload + "x", &n2, &out));
  // Count bomb: an absurd entry count fails the plausibility check before
  // any resize.
  std::string bomb;
  bomb.append(8, '\0');                  // next_cursor
  bomb.append("\xff\xff\xff\xff", 4);    // count = 2^32-1
  EXPECT_FALSE(net::DecodeEvents(bomb, &n2, &out));
  // Severity outside the enum is rejected per entry.
  std::string bad_sev = payload;
  bad_sev[8 + 4 + 8 + 8] = 9;  // first entry's severity byte
  EXPECT_FALSE(net::DecodeEvents(bad_sev, &n2, &out));

  // The request codec is exactly one u64.
  std::string req;
  net::EncodeEventsReq(77, &req);
  uint64_t cursor = 0;
  ASSERT_TRUE(net::DecodeEventsReq(req, &cursor));
  EXPECT_EQ(cursor, 77u);
  EXPECT_FALSE(net::DecodeEventsReq(req.substr(0, 7), &cursor));
  EXPECT_FALSE(net::DecodeEventsReq(req + "x", &cursor));
}

TEST(WireEventsTest, MutatedHealthAndEventsPayloadsNeverCrashDecode) {
  // kOpHealth/kOpEvents payloads under the shared structure-aware mutator
  // (src/testing/fuzz.h), same discipline as the METRICS mutant test above;
  // fuzz_harness --target health_payload / events_payload runs the same
  // invariant orders of magnitude deeper under ASan+UBSan.
  net::WireHealth h;
  h.role = net::WireHealth::kLeader;
  h.node = "leader-1";
  h.height = 99;
  h.durable_tip = 99;
  h.peer_count = 2;
  h.uptime_us = 123'456;
  std::string health_valid;
  net::EncodeHealth(h, &health_valid);

  std::vector<obs::EventRecord> events;
  obs::EventRecord e;
  e.seq = 5;
  e.time_us = 42;
  e.severity = static_cast<uint8_t>(obs::EventSeverity::kWarn);
  e.code = static_cast<uint16_t>(obs::EventCode::kReconnect);
  e.detail = "refused; retry in 100000us";
  events.push_back(e);
  std::string events_valid;
  net::EncodeEvents(6, events, &events_valid);

  const std::vector<std::string> corpus = {health_valid, events_valid};
  const testing::Mutator mutator(&corpus);
  for (uint64_t iter = 0; iter < 500; iter++) {
    testing::FuzzRng rng(testing::CaseSeed(/*run_seed=*/13, iter));
    std::string mutant = (iter % 2 == 0) ? health_valid : events_valid;
    mutator.Mutate(rng, &mutant);
    net::WireHealth hout;
    if (net::DecodeHealth(mutant, &hout)) {
      EXPECT_LE(hout.role, net::WireHealth::kFollower);
      EXPECT_LE(hout.node.size(), net::kMaxReplNodeName);
      EXPECT_LE(hout.leader_addr.size(), net::kMaxLeaderAddr);
    }
    uint64_t next = 0;
    std::vector<obs::EventRecord> eout;
    if (net::DecodeEvents(mutant, &next, &eout)) {
      EXPECT_LE(eout.size(), net::kMaxEventEntries);
      for (const obs::EventRecord& rec : eout) {
        EXPECT_LE(rec.severity,
                  static_cast<uint8_t>(obs::EventSeverity::kError));
        EXPECT_LE(rec.detail.size(), net::kMaxEventDetail);
      }
    }
  }
  // The unmutated payloads always decode.
  net::WireHealth hback;
  EXPECT_TRUE(net::DecodeHealth(health_valid, &hback));
  uint64_t next = 0;
  std::vector<obs::EventRecord> eback;
  EXPECT_TRUE(net::DecodeEvents(events_valid, &next, &eback));
}

}  // namespace
}  // namespace harmony

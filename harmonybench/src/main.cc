// harmonybench: runs one named workload through HarmonyBC's production
// surface and prints its metrics.
//
//   harmonybench --workload NAME --seed N --seconds S --trace 0|1
//                --workdir DIR [--spans-out FILE] [--context JSON]
//
// One run = setup (timed; repeated, median reported) -> warm-up -> closed
// loop (C clients x W in flight: throughput, CPU) -> open loop (one
// generator on a fixed schedule at the workload's offered rate: latency,
// timed from each txn's scheduled send time) -> correctness checks.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: it runs the workload untraced a few times with a shorter closed
// loop, then once with the program's own tracing on (stage histograms,
// false-abort oracle) plus the benchmark's spans around every public call,
// then replays the traced run's chain into a fresh Replica.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A failed correctness check exits 1.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adapter.h"
#include "chain/block_store.h"
#include "common/clock.h"
#include "deployment.h"
#include "ledger.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "replica/replica.h"
#include "storage/state_backend.h"

namespace harmonybench {
namespace {

using harmony::HarmonyBC;
using harmony::ReceiptOutcome;
using harmony::Status;
using harmony::TxnReceipt;
using harmony::TxnRequest;
using harmony::obs::HistogramSnapshot;
using harmony::obs::MetricsSnapshot;

constexpr int kSetupRepeats = 11;
/// The closed and open phases are measured in windows of this length and
/// report the median window, so a burst of host contention moves one
/// window rather than the result.
constexpr double kWindowS = 1.0;
constexpr int kUntracedSegments = 3;
constexpr uint64_t kDrainTimeoutUs = 60'000'000;
/// The open-loop generator counts as fallen behind (run invalid) when its
/// own lateness p99 exceeds this.
constexpr double kMaxLateMsP99 = 100.0;

// --------------------------------------------------------------- helpers --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string spans_out;
  std::string context = "{}";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (flag == "--trace") a->trace = v == "1";
    else if (flag == "--workdir") a->workdir = v;
    else if (flag == "--spans-out") a->spans_out = v;
    else if (flag == "--context") a->context = v;
    else return false;
  }
  return !a->workload.empty() && !a->workdir.empty() && a->seconds > 0;
}

double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// Nearest-rank percentile; +inf entries sort last.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(s * 1e6)));
}

/// Histogram of what was recorded between two snapshots of one registry.
HistogramSnapshot HistDelta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after,
                            const std::string& name) {
  HistogramSnapshot d;
  d.name = name;
  const HistogramSnapshot* a = nullptr;
  const HistogramSnapshot* b = nullptr;
  for (const auto& h : after.histograms) {
    if (h.name == name) a = &h;
  }
  for (const auto& h : before.histograms) {
    if (h.name == name) b = &h;
  }
  if (a == nullptr) return d;
  std::map<uint32_t, uint64_t> base;
  if (b != nullptr) {
    for (const auto& [idx, c] : b->buckets) base[idx] = c;
  }
  for (const auto& [idx, c] : a->buckets) {
    const uint64_t prev = base.count(idx) ? base[idx] : 0;
    if (c > prev) {
      d.buckets.emplace_back(idx, c - prev);
      d.count += c - prev;
    }
  }
  return d;
}

/// Sum of several histograms (same bucket layout).
HistogramSnapshot HistSum(const std::vector<HistogramSnapshot>& hs) {
  std::map<uint32_t, uint64_t> acc;
  HistogramSnapshot out;
  for (const auto& h : hs) {
    for (const auto& [idx, c] : h.buckets) acc[idx] += c;
    out.count += h.count;
  }
  out.buckets.assign(acc.begin(), acc.end());
  return out;
}

// ------------------------------------------------------------- load side --

/// Receipt tallies shared by every load thread of one instance.
struct Totals {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> committed_retries{0};

  void Count(const TxnReceipt& r) {
    switch (r.outcome) {
      case ReceiptOutcome::kCommitted:
        committed.fetch_add(1, std::memory_order_relaxed);
        committed_retries.fetch_add(r.retries, std::memory_order_relaxed);
        break;
      case ReceiptOutcome::kLogicAborted:  // a valid outcome, not a failure
        break;
      case ReceiptOutcome::kDropped:
        dropped.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReceiptOutcome::kRejected:
        rejected.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
};

/// One load thread: its ledger, generator and flow control. The client it
/// submits through is owned by the Stage (closed before the deployment,
/// while this state — which receipt callbacks point at — outlives both).
struct LoadThread {
  LoadThread(size_t index, Totals* totals, bool closed_loop, size_t window)
      : index(index),
        totals(totals),
        closed_loop(closed_loop),
        window(window) {}

  void OnReceipt(const TxnReceipt& r) {
    if (!ledger.Resolve(r, NowNs())) return;  // the ledger counts it
    totals->Count(r);
    const uint64_t prev = inflight.fetch_sub(1, std::memory_order_acq_rel);
    // Closed loop: wake the thread once half its window has resolved.
    if (closed_loop && prev == window / 2 + 1) {
      std::lock_guard<std::mutex> lk(mu);
      cv.notify_one();
    }
  }

  void SubmitOne(int64_t due_ns) {
    TxnRequest req = gen->Next();
    uint64_t seq = 0;
    Slot* slot = ledger.Issue(&seq);
    req.client_seq = seq;
    slot->due_ns = due_ns;
    inflight.fetch_add(1, std::memory_order_relaxed);
    totals->attempted.fetch_add(1, std::memory_order_relaxed);
    slot->submit_start_ns = NowNs();
    client->Submit(std::move(req),
                   [this](const TxnReceipt& r) { OnReceipt(r); });
    slot->submit_end_ns = NowNs();
  }

  void ClosedLoop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] {
          return stop ||
                 inflight.load(std::memory_order_acquire) <= window / 2;
        });
        if (stop) return;
      }
      while (inflight.load(std::memory_order_acquire) < window) {
        SubmitOne(/*due_ns=*/0);
      }
    }
  }

  /// Transaction id for spans: load-thread index and client_seq.
  uint64_t TxnId(uint64_t seq) const { return (uint64_t{index} << 40) | seq; }

  const size_t index;
  Totals* const totals;
  const bool closed_loop;
  const size_t window;
  Ledger ledger;
  std::unique_ptr<harmony::Workload> gen;
  LoadClient* client = nullptr;
  std::atomic<uint64_t> inflight{0};
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;  ///< guarded by mu
  std::thread thread;
};

/// A deployment with its load threads. Destruction order matters: clients
/// close first, then the deployment (whose teardown may still fail
/// receipts into the callbacks), then the load-thread state.
struct Stage {
  std::vector<std::unique_ptr<LoadThread>> threads;
  std::unique_ptr<Deployment> dep;
  std::vector<std::unique_ptr<LoadClient>> clients;
  double setup_s = 0;

  LoadThread* AddThread(const WorkloadSpec& spec, uint64_t seed,
                        Totals* totals, bool closed_loop,
                        std::unique_ptr<LoadClient> client) {
    const size_t index = threads.size() + 1;
    threads.push_back(std::make_unique<LoadThread>(index, totals, closed_loop,
                                                   spec.window));
    LoadThread* lt = threads.back().get();
    lt->gen = MakeWorkload(spec, StreamSeed(seed, index));
    lt->client = client.get();
    clients.push_back(std::move(client));
    return lt;
  }

  /// Closes the clients of `lts` (their receipts have all resolved).
  void CloseClients(const std::vector<LoadThread*>& lts) {
    for (LoadThread* lt : lts) {
      for (auto& c : clients) {
        if (c.get() == lt->client) c.reset();
      }
      lt->client = nullptr;
    }
  }
};

harmony::Result<std::unique_ptr<Stage>> SetUp(const WorkloadSpec& spec,
                                              const std::string& dir,
                                              bool traced, SpanLog* spans,
                                              uint64_t seed, Totals* totals) {
  auto st = std::make_unique<Stage>();
  const int64_t t0 = NowNs();
  auto dep = Deployment::Create(spec, dir, traced, spans);
  if (!dep.ok()) return dep.status();
  st->dep = std::move(*dep);
  for (size_t c = 0; c < spec.clients; c++) {
    auto client = st->dep->NewClient();
    if (!client.ok()) return client.status();
    st->AddThread(spec, seed, totals, /*closed_loop=*/true,
                  std::move(*client));
  }
  st->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return st;
}

bool WaitDrained(const std::vector<LoadThread*>& lts) {
  const uint64_t deadline = harmony::NowMicros() + kDrainTimeoutUs;
  for (;;) {
    bool idle = true;
    for (LoadThread* lt : lts) {
      idle = idle && lt->inflight.load(std::memory_order_acquire) == 0;
    }
    if (idle) return true;
    if (harmony::NowMicros() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------- measurement --

/// Engine counters at one instant (leader node).
struct EngineView {
  uint64_t blocks = 0, simulated = 0, committed = 0, cc_aborted = 0,
           false_aborts = 0, sim_us = 0, commit_us = 0;
  uint64_t backpressured = 0, sealed_blocks = 0, sealed_txns = 0,
           deadline_seals = 0, sealed_retry_txns = 0;
  uint64_t pool_hits = 0, pool_misses = 0, flushed_pages = 0, flushes = 0,
           page_reads = 0, page_writes = 0, fsyncs = 0;
  uint64_t log_disk_bytes = 0, log_raw_bytes = 0;
  uint64_t data_bytes = 0;  ///< block log + page file
};

EngineView ReadEngine(HarmonyBC* db, const std::string& dir) {
  EngineView v;
  const harmony::ProtocolStats& ps = db->stats();
  v.blocks = ps.blocks.load();
  v.simulated = ps.simulated.load();
  v.committed = ps.committed.load();
  v.cc_aborted = ps.cc_aborted.load();
  v.false_aborts = ps.false_aborts.load();
  v.sim_us = ps.sim_micros.load();
  v.commit_us = ps.commit_micros.load();
  const harmony::IngestStats& is = db->ingest_stats();
  v.backpressured = is.backpressured.load();
  v.sealed_blocks = is.sealed_blocks.load();
  v.sealed_txns = is.sealed_txns.load();
  v.deadline_seals = is.deadline_seals.load();
  v.sealed_retry_txns = is.sealed_retry_txns.load();
  harmony::StateBackend* be = db->replica()->backend();
  const harmony::BufferPoolStats pool = be->pool_stats();
  v.pool_hits = pool.hits;
  v.pool_misses = pool.misses;
  v.flushed_pages = pool.flushed_pages;
  v.flushes = pool.flushes;
  v.page_reads = be->page_reads();
  v.page_writes = be->page_writes();
  if (auto* disk = dynamic_cast<harmony::DiskBackend*>(be)) {
    v.fsyncs = disk->disk()->stats().fsyncs.load();
  }
  harmony::BlockStore* log = db->replica()->block_store();
  v.log_disk_bytes = log->appended_disk_bytes();
  v.log_raw_bytes = log->appended_raw_bytes();
  v.data_bytes =
      FileBytes(dir + "/replica.chain") + FileBytes(dir + "/replica.tbl");
  return v;
}

/// Everything read at a phase boundary.
struct Mark {
  int64_t t_ns = 0;
  double cpu_s = 0;
  uint64_t attempted = 0, committed = 0, committed_retries = 0;
  EngineView engine;
  MetricsSnapshot leader;
  std::vector<MetricsSnapshot> followers;
};

Mark TakeMark(Deployment* dep, const Totals& totals, bool traced) {
  Mark m;
  m.t_ns = NowNs();
  m.cpu_s = CpuSeconds();
  m.attempted = totals.attempted.load();
  m.committed = totals.committed.load();
  m.committed_retries = totals.committed_retries.load();
  m.engine = ReadEngine(dep->leader(), dep->leader_dir());
  if (traced) {
    m.leader = dep->leader()->CollectMetrics();
    for (HarmonyBC* f : dep->followers()) {
      m.followers.push_back(f->CollectMetrics());
    }
  }
  return m;
}

struct Plan {
  double warmup_s = 0;
  double closed_s = 0;
  double open_s = 0;  ///< 0 = closed loop only
};

/// Results of one measured instance.
struct Instance {
  double setup_s = 0;
  double commit_tps = 0;
  double cpu_us_per_txn = 0;
  double cpu_util = 0;
  double receipt_p50_ms = 0;
  double receipt_p99_ms = 0;
  uint64_t open_samples = 0;
  size_t open_windows = 0;
  std::vector<double> late_ms;  ///< generator lateness per txn
  double disk_bytes_per_txn = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  harmony::Digest live_digest{};
  std::vector<std::string> errors;  ///< failed correctness checks
  std::map<std::string, double> layers;
};

void PerLayer(const Mark& b0, const Mark& b2, const WorkloadSpec& spec,
              Instance* out) {
  const EngineView& e0 = b0.engine;
  const EngineView& e2 = b2.engine;
  auto d = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b >= a ? b - a : 0);
  };
  const double blocks = d(e0.blocks, e2.blocks);
  const double simulated = d(e0.simulated, e2.simulated);
  const double committed = d(b0.committed, b2.committed);
  const double sealed_blocks = d(e0.sealed_blocks, e2.sealed_blocks);
  const double sealed_txns = d(e0.sealed_txns, e2.sealed_txns);
  auto hist = [&](const std::string& name) {
    return HistDelta(b0.leader, b2.leader, name);
  };
  auto& L = out->layers;
  L["ingest.queue_wait_us_p50"] =
      hist(harmony::obs::kHistQueueWait).Percentile(50);
  L["ingest.block_fill"] =
      Ratio(sealed_txns,
            sealed_blocks * static_cast<double>(spec.db.block_size));
  L["ingest.deadline_seal_frac"] =
      Ratio(d(e0.deadline_seals, e2.deadline_seals), sealed_blocks);
  L["ingest.retry_frac"] =
      Ratio(d(e0.sealed_retry_txns, e2.sealed_retry_txns), sealed_txns);
  L["ingest.backpressured_per_ktxn"] =
      1000 * Ratio(d(e0.backpressured, e2.backpressured),
                   d(b0.attempted, b2.attempted));
  L["consensus.seal_us_p50"] =
      hist(harmony::obs::kHistBlockSeal).Percentile(50);
  L["dcc.simulate_ms_per_block"] = Ratio(d(e0.sim_us, e2.sim_us), blocks) / 1e3;
  L["dcc.commit_ms_per_block"] =
      Ratio(d(e0.commit_us, e2.commit_us), blocks) / 1e3;
  L["dcc.execute_us_p99"] =
      hist(harmony::obs::kHistBlockExecute).Percentile(99);
  L["dcc.abort_rate"] = Ratio(d(e0.cc_aborted, e2.cc_aborted), simulated);
  L["dcc.useful_frac"] = Ratio(d(e0.committed, e2.committed), simulated);
  L["dcc.false_abort_rate"] =
      Ratio(d(e0.false_aborts, e2.false_aborts), simulated);
  L["dcc.retries_per_commit"] =
      Ratio(d(b0.committed_retries, b2.committed_retries), committed);
  L["storage.pool_hit_rate"] =
      Ratio(d(e0.pool_hits, e2.pool_hits),
            d(e0.pool_hits, e2.pool_hits) + d(e0.pool_misses, e2.pool_misses));
  L["storage.page_reads_per_txn"] =
      Ratio(d(e0.page_reads, e2.page_reads), committed);
  L["storage.page_writes_per_txn"] =
      Ratio(d(e0.page_writes, e2.page_writes), committed);
  L["storage.flushed_pages_per_checkpoint"] =
      Ratio(d(e0.flushed_pages, e2.flushed_pages), d(e0.flushes, e2.flushes));
  // Device time the DiskModel charges (summed sleeps, not wall time): page
  // reads and writes, page-file syncs, and one log flush per appended block.
  const harmony::DiskModel& m = spec.db.disk;
  const double io_us =
      d(e0.page_reads, e2.page_reads) * static_cast<double>(m.read_latency_us) +
      d(e0.page_writes, e2.page_writes) *
          static_cast<double>(m.write_latency_us) +
      (d(e0.fsyncs, e2.fsyncs) + blocks) *
          static_cast<double>(m.fsync_latency_us);
  L["storage.modelled_io_ms_per_block"] = Ratio(io_us, blocks) / 1e3;
  const HistogramSnapshot commit = hist(harmony::obs::kHistBlockCommit);
  L["chain.commit_us_p50"] = commit.Percentile(50);
  L["chain.commit_us_p99"] = commit.Percentile(99);
  L["chain.log_bytes_per_txn"] =
      Ratio(d(e0.log_disk_bytes, e2.log_disk_bytes), committed);
  L["chain.compress_ratio"] = Ratio(d(e0.log_disk_bytes, e2.log_disk_bytes),
                                    d(e0.log_raw_bytes, e2.log_raw_bytes));
  L["core.commit_lag_us_p50"] =
      hist(harmony::obs::kHistCommitLag).Percentile(50);
  const HistogramSnapshot resolve = hist(harmony::obs::kHistResolve);
  L["core.resolve_us_p99"] = resolve.Percentile(99);
  L["net.flush_us_p50"] = hist(harmony::obs::kHistWireFlush).Percentile(50);
  const HistogramSnapshot ack = hist(harmony::obs::kHistAckRtt);
  L["repl.ack_rtt_us_p50"] = ack.Percentile(50);
  L["repl.ack_rtt_us_p99"] = ack.Percentile(99);
  std::vector<HistogramSnapshot> applies;
  for (size_t i = 0; i < b2.followers.size() && i < b0.followers.size();
       i++) {
    applies.push_back(HistDelta(b0.followers[i], b2.followers[i],
                                harmony::obs::kHistReplApply));
  }
  L["repl.apply_us_p50"] = HistSum(applies).Percentile(50);
  L["core.resolve_us_p50"] = resolve.Percentile(50);  // for net overhead
}

/// Runs the loaded stage through warm-up, closed loop and (optionally) the
/// open loop, then checks correctness.
Instance Measure(Stage* st, const WorkloadSpec& spec, const Plan& plan,
                 bool traced, SpanLog* spans, Totals* totals, uint64_t seed) {
  Instance out;
  Deployment* dep = st->dep.get();
  std::vector<LoadThread*> closed;
  for (auto& lt : st->threads) closed.push_back(lt.get());

  // Lag sampler (traced cluster runs): the leader's own per-peer gauges.
  std::atomic<bool> sampling{false};
  std::atomic<bool> sampler_stop{false};
  std::vector<double> lag_samples;
  std::thread sampler;
  if (traced && spec.cluster) {
    std::vector<harmony::obs::Gauge*> gauges;
    for (const std::string& name : dep->follower_names()) {
      gauges.push_back(dep->leader()->metrics()->GetGauge(
          std::string(harmony::obs::kGaugePeerLagBlocks) + "." + name));
    }
    sampler = std::thread([&, gauges] {
      while (!sampler_stop.load(std::memory_order_acquire)) {
        if (sampling.load(std::memory_order_acquire)) {
          for (harmony::obs::Gauge* g : gauges) {
            lag_samples.push_back(static_cast<double>(g->Value()));
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  auto stop_sampler = [&] {
    if (sampler.joinable()) {
      sampler_stop.store(true, std::memory_order_release);
      sampler.join();
    }
  };

  for (LoadThread* lt : closed) {
    lt->thread = std::thread([lt] { lt->ClosedLoop(); });
  }
  SleepSeconds(plan.warmup_s);
  const Mark b0 = TakeMark(dep, *totals, traced);
  sampling.store(true, std::memory_order_release);
  std::vector<double> window_tps;
  std::vector<double> window_cpu_us;
  const int n_windows =
      std::max(1, static_cast<int>(std::lround(plan.closed_s / kWindowS)));
  const double window_ns = plan.closed_s * 1e9 / n_windows;
  int64_t t_prev = b0.t_ns;
  double cpu_prev = b0.cpu_s;
  uint64_t committed_prev = b0.committed;
  for (int w = 1; w <= n_windows; w++) {
    const int64_t end = b0.t_ns + static_cast<int64_t>(w * window_ns);
    std::this_thread::sleep_for(std::chrono::nanoseconds(end - NowNs()));
    const int64_t t = NowNs();
    const double cpu = CpuSeconds();
    const uint64_t committed = totals->committed.load();
    const double n = static_cast<double>(committed - committed_prev);
    window_tps.push_back(Ratio(n, static_cast<double>(t - t_prev) / 1e9));
    window_cpu_us.push_back(Ratio((cpu - cpu_prev) * 1e6, n));
    t_prev = t;
    cpu_prev = cpu;
    committed_prev = committed;
  }
  const Mark b1 = TakeMark(dep, *totals, traced);
  for (LoadThread* lt : closed) {
    {
      std::lock_guard<std::mutex> lk(lt->mu);
      lt->stop = true;
    }
    lt->cv.notify_one();
    lt->thread.join();
  }
  if (!WaitDrained(closed)) out.errors.push_back("closed-loop receipts hang");
  st->CloseClients(closed);

  const double closed_wall = static_cast<double>(b1.t_ns - b0.t_ns) / 1e9;
  out.commit_tps = Median(window_tps);
  out.cpu_us_per_txn = Median(window_cpu_us);
  out.cpu_util =
      Ratio(b1.cpu_s - b0.cpu_s,
            closed_wall * static_cast<double>(std::thread::hardware_concurrency()));

  // Open loop: one generator thread on a fixed schedule.
  LoadThread* gen = nullptr;
  if (plan.open_s > 0) {
    auto client = dep->NewClient();
    if (!client.ok()) {
      out.errors.push_back("open-loop client: " + client.status().ToString());
    } else {
      gen = st->AddThread(spec, seed, totals, /*closed_loop=*/false,
                          std::move(*client));
      const uint64_t n = static_cast<uint64_t>(
          std::llround(spec.offered_rate * plan.open_s));
      const double period_ns = 1e9 / spec.offered_rate;
      gen->thread = std::thread([gen, n, period_ns] {
#ifdef PR_SET_TIMERSLACK
        ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
#endif
        const int64_t t0 = NowNs() + 1'000'000;
        for (uint64_t i = 0; i < n; i++) {
          const int64_t due =
              t0 + static_cast<int64_t>(static_cast<double>(i) * period_ns);
          const int64_t now = NowNs();
          if (due > now) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          }
          gen->SubmitOne(due);
        }
      });
      gen->thread.join();
      if (!WaitDrained({gen})) out.errors.push_back("open-loop receipts hang");
      st->CloseClients({gen});
    }
  }
  sampling.store(false, std::memory_order_release);
  stop_sampler();
  const Mark b2 = TakeMark(dep, *totals, traced);

  if (gen != nullptr && gen->ledger.issued() > 0) {
    // Latency from each txn's scheduled send time; a failed or refused txn
    // is infinitely late. Windows are cut by scheduled time.
    const uint64_t n = gen->ledger.issued();
    const int64_t first_due = gen->ledger.at(1).due_ns;
    std::vector<std::vector<double>> windows;
    for (uint64_t seq = 1; seq <= n; seq++) {
      Slot& s = gen->ledger.at(seq);
      const uint8_t o = s.outcome.load(std::memory_order_acquire);
      const bool ok =
          o == static_cast<uint8_t>(ReceiptOutcome::kCommitted) + 1 ||
          o == static_cast<uint8_t>(ReceiptOutcome::kLogicAborted) + 1;
      const size_t w = static_cast<size_t>(
          static_cast<double>(s.due_ns - first_due) / (kWindowS * 1e9));
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(
          ok ? static_cast<double>(s.recv_ns.load() - s.due_ns) / 1e6
             : std::numeric_limits<double>::infinity());
      out.late_ms.push_back(
          static_cast<double>(s.submit_start_ns - s.due_ns) / 1e6);
    }
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (const auto& w : windows) {
      p50s.push_back(Percentile(w, 50));
      p99s.push_back(Percentile(w, 99));
    }
    out.receipt_p50_ms = Median(p50s);
    out.receipt_p99_ms = Median(p99s);
    out.open_samples = n;
    out.open_windows = windows.size();
    if (Percentile(out.late_ms, 99) > kMaxLateMsP99) {
      out.errors.push_back("open-loop generator fell behind its schedule");
    }
  }
  out.disk_bytes_per_txn =
      Ratio(static_cast<double>(b2.engine.data_bytes) -
                static_cast<double>(b0.engine.data_bytes),
            static_cast<double>(b2.committed - b0.committed));

  // ---- correctness checks
  HarmonyBC* leader = dep->leader();
  uint64_t unresolved = 0;
  uint64_t anomalies = 0;
  for (auto& lt : st->threads) {
    unresolved += lt->ledger.CountUnresolved();
    anomalies += lt->ledger.anomalies();
  }
  if (unresolved != 0 || anomalies != 0) {
    out.errors.push_back("receipt ledger: " + std::to_string(unresolved) +
                         " txns without exactly one receipt, " +
                         std::to_string(anomalies) + " stray receipts");
  }
  {
    ScopedSpan span(spans, "HarmonyBC::Sync");
    if (Status s = leader->Sync(); !s.ok()) {
      out.errors.push_back("Sync: " + s.ToString());
    }
  }
  if (totals->committed.load() != leader->stats().committed.load()) {
    out.errors.push_back(
        "committed receipts " + std::to_string(totals->committed.load()) +
        " != leader ProtocolStats::committed " +
        std::to_string(leader->stats().committed.load()));
  }
  if (Status s = dep->WaitReplicated(kDrainTimeoutUs); !s.ok()) {
    out.errors.push_back(s.ToString());
  }
  std::vector<HarmonyBC*> nodes = {leader};
  for (HarmonyBC* f : dep->followers()) nodes.push_back(f);
  for (size_t i = 0; i < nodes.size(); i++) {
    {
      ScopedSpan span(spans, "HarmonyBC::AuditChain");
      if (Status s = nodes[i]->AuditChain(); !s.ok()) {
        out.errors.push_back("AuditChain node " + std::to_string(i) + ": " +
                             s.ToString());
      }
    }
    ScopedSpan span(spans, "HarmonyBC::StateDigest");
    auto digest = nodes[i]->StateDigest();
    if (!digest.ok()) {
      out.errors.push_back("StateDigest: " + digest.status().ToString());
    } else if (i == 0) {
      out.live_digest = *digest;
    } else if (*digest != out.live_digest) {
      out.errors.push_back("node " + std::to_string(i) +
                           " state digest differs from the leader's");
    }
  }

  out.attempted = totals->attempted.load();
  out.failed = totals->dropped.load() + totals->rejected.load() +
               anomalies + unresolved;

  if (traced) {
    PerLayer(b0, b2, spec, &out);
    std::sort(lag_samples.begin(), lag_samples.end());
    out.layers["repl.lag_blocks_p99"] = Percentile(lag_samples, 99);
    out.layers["loadgen.late_ms_p99"] = Percentile(out.late_ms, 99);
    out.layers["proc.cpu_util"] = out.cpu_util;
    // Per-txn spans (submit, with the receipt as its child) from the
    // ledgers, and the submit-call / client-receipt distributions of the
    // measured window.
    std::vector<double> submit_us;
    std::vector<double> client_receipt_us;
    for (auto& lt : st->threads) {
      const uint64_t n = lt->ledger.issued();
      for (uint64_t seq = 1; seq <= n; seq++) {
        Slot& s = lt->ledger.at(seq);
        const uint64_t txn = lt->TxnId(seq);
        const uint64_t id = spans->Add("Submit", 0, txn, s.submit_start_ns,
                                       s.submit_end_ns);
        spans->Add("receipt", id, txn, s.submit_end_ns, s.recv_ns.load());
        if (s.submit_start_ns < b0.t_ns) continue;
        submit_us.push_back(
            static_cast<double>(s.submit_end_ns - s.submit_start_ns) / 1e3);
        client_receipt_us.push_back(
            static_cast<double>(s.recv_ns.load() - s.submit_start_ns) / 1e3);
      }
    }
    out.layers["ingest.submit_call_us_p50"] = Median(submit_us);
    out.layers["net.client_overhead_us_p50"] =
        Median(client_receipt_us) - out.layers["core.resolve_us_p50"];
    out.layers.erase("core.resolve_us_p50");
    out.layers["loadgen.failed_frac"] =
        Ratio(static_cast<double>(out.failed),
              static_cast<double>(out.attempted));
  }
  return out;
}

/// Feeds the traced run's chain into a fresh Replica with the same genesis
/// and checkpoint period (barrier placement depends on it): execution with
/// no ingress in front of it.
struct ReplayResult {
  uint64_t blocks = 0;
  double us_per_block = 0;
  harmony::Digest digest{};
};

harmony::Result<ReplayResult> Replay(const WorkloadSpec& spec,
                                     const std::string& chain_dir,
                                     const std::string& dir, SpanLog* spans) {
  ScopedSpan root(spans, "replay");
  std::vector<harmony::Block> blocks;
  {
    ScopedSpan span(spans, "BlockStore::ReadAll", root.id());
    harmony::BlockStore store(chain_dir + "/replica.chain",
                              /*sync_latency_us=*/0,
                              spec.db.block_compression);
    HARMONY_RETURN_NOT_OK(store.Open());
    HARMONY_RETURN_NOT_OK(store.ReadAll(&blocks));
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  harmony::ReplicaOptions ro;
  ro.dir = dir;
  ro.dcc = spec.db.protocol;
  ro.dcc_cfg = spec.db.dcc;
  ro.dcc_cfg.enable_false_abort_oracle = true;
  ro.in_memory = spec.db.in_memory;
  ro.disk = spec.db.disk;
  ro.pool_pages = spec.db.pool_pages;
  ro.pool_stripes = spec.db.pool_stripes;
  ro.flush_threads = spec.db.flush_threads;
  ro.threads = spec.db.threads;
  ro.checkpoint_every = spec.db.checkpoint_every;
  ro.orderer_secret = spec.db.orderer_secret;
  ro.block_compression = spec.db.block_compression;
  harmony::Replica replica(ro);
  {
    ScopedSpan span(spans, "Replica::Open", root.id());
    HARMONY_RETURN_NOT_OK(replica.Open());
  }
  {
    ScopedSpan span(spans, "Workload::Setup", root.id());
    auto genesis = MakeWorkload(spec, /*seed=*/0);
    HARMONY_RETURN_NOT_OK(genesis->Setup(replica));
  }
  {
    ScopedSpan span(spans, "Replica::Recover", root.id());
    auto tip = replica.Recover();
    if (!tip.ok()) return tip.status();
    HARMONY_RETURN_NOT_OK(replica.Checkpoint());
  }
  ReplayResult r;
  r.blocks = blocks.size();
  const int64_t t0 = NowNs();
  for (harmony::Block& b : blocks) {
    ScopedSpan span(spans, "Replica::SubmitBlock", root.id());
    HARMONY_RETURN_NOT_OK(replica.SubmitBlock(std::move(b)));
  }
  {
    ScopedSpan span(spans, "Replica::Drain", root.id());
    HARMONY_RETURN_NOT_OK(replica.Drain());
  }
  r.us_per_block =
      Ratio(static_cast<double>(NowNs() - t0) / 1e3,
            static_cast<double>(r.blocks));
  ScopedSpan span(spans, "Replica::StateDigest", root.id());
  auto digest = replica.StateDigest();
  if (!digest.ok()) return digest.status();
  r.digest = *digest;
  return r;
}

// --------------------------------------------------------------- output --

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The bounded end-to-end metrics (BENCHMARK.json). The other end-to-end
/// metrics are printed but not bounded: see README.md.
const MetricDef kEndToEnd[] = {
    {"disk_bytes_per_txn", "B"},
    {"setup_s", "s"},
};

const MetricDef kPerLayer[] = {
    {"ingest.submit_call_us_p50", "us"},
    {"ingest.queue_wait_us_p50", "us"},
    {"ingest.block_fill", "ratio"},
    {"ingest.deadline_seal_frac", "ratio"},
    {"ingest.retry_frac", "ratio"},
    {"ingest.backpressured_per_ktxn", "1/ktxn"},
    {"consensus.seal_us_p50", "us"},
    {"dcc.simulate_ms_per_block", "ms"},
    {"dcc.commit_ms_per_block", "ms"},
    {"dcc.execute_us_p99", "us"},
    {"dcc.abort_rate", "ratio"},
    {"dcc.useful_frac", "ratio"},
    {"dcc.false_abort_rate", "ratio"},
    {"dcc.retries_per_commit", "count"},
    {"storage.pool_hit_rate", "ratio"},
    {"storage.page_reads_per_txn", "pages/txn"},
    {"storage.page_writes_per_txn", "pages/txn"},
    {"storage.flushed_pages_per_checkpoint", "pages"},
    {"storage.modelled_io_ms_per_block", "ms-modelled"},
    {"chain.commit_us_p50", "us"},
    {"chain.commit_us_p99", "us"},
    {"chain.log_bytes_per_txn", "B/txn"},
    {"chain.compress_ratio", "ratio"},
    {"core.commit_lag_us_p50", "us"},
    {"core.resolve_us_p99", "us"},
    {"net.flush_us_p50", "us"},
    {"net.client_overhead_us_p50", "us"},
    {"repl.ack_rtt_us_p50", "us"},
    {"repl.ack_rtt_us_p99", "us"},
    {"repl.apply_us_p50", "us"},
    {"repl.lag_blocks_p99", "blocks"},
    {"replica.replay_us_per_block", "us"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.failed_frac", "ratio"},
    {"proc.cpu_util", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.untraced_tps_range_pct", "%"},
};

/// Layers a workload's path does not touch: printed as n/a, reported 0.
bool Bypassed(const WorkloadSpec& spec, const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (!spec.cluster && (starts("net.") || starts("repl."))) return true;
  if (spec.db.in_memory && starts("storage.") &&
      name != "storage.modelled_io_ms_per_block") {
    return true;
  }
  return false;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ContextJson(const WorkloadSpec& w, const Args& args,
                        const Plan& plan) {
  const harmony::HarmonyBC::Options& o = w.db;
  char buf[8192];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"harness\": %s, "
      "\"phases_s\": {\"warmup\": %g, \"closed\": %g, \"open\": %g, "
      "\"setup_repeats\": %d}, "
      "\"mix\": \"%s\", \"state\": {\"rows\": %llu, \"skew\": %g, "
      "\"ops_per_txn\": %zu, \"hotspot_prob\": %g, \"hotspot_ratio\": %g}, "
      "\"system\": {\"engine\": \"%s\", \"protocol\": \"harmony\", "
      "\"block_size\": %zu, \"max_block_delay_us\": %llu, "
      "\"checkpoint_every\": %zu, \"pool_pages\": %zu, "
      "\"pool_stripes\": %zu, \"flush_threads\": %zu, "
      "\"exec_threads\": %zu, \"max_txn_retries\": %u, "
      "\"mempool_capacity\": %zu, \"block_compression\": \"%s\", "
      "\"disk_model\": {\"read_us\": %llu, \"write_us\": %llu, "
      "\"fsync_us\": %llu, \"queue_depth\": %u}, "
      "\"durability\": \"modelled: DiskModel sleeps stand in for device "
      "latency; the block log is appended without fsync\"}, "
      "\"target\": {\"path\": \"%s\", \"cluster_size\": %zu, "
      "\"receipts\": \"%s\", \"reactor_threads\": %zu, "
      "\"net_batch_txns\": %zu, \"net_batch_delay_us\": %llu}, "
      "\"load\": {\"closed_clients\": %zu, \"window\": %zu, "
      "\"open_rate_tps\": %g, \"open_generators\": 1}}",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      HARMONYBENCH_BUILD_TYPE, __VERSION__, args.context.c_str(),
      plan.warmup_s, plan.closed_s, plan.open_s,
      args.trace ? 1 : kSetupRepeats,
      w.mix == Mix::kSmallbank ? "smallbank" : "ycsb",
      static_cast<unsigned long long>(w.mix == Mix::kSmallbank
                                          ? 2 * w.smallbank.num_accounts
                                          : w.ycsb.num_keys),
      w.mix == Mix::kSmallbank ? w.smallbank.skew : w.ycsb.skew,
      w.mix == Mix::kSmallbank ? size_t{1} : w.ycsb.ops_per_txn,
      w.mix == Mix::kSmallbank ? 0.0 : w.ycsb.hotspot_prob,
      w.mix == Mix::kSmallbank ? 0.0 : w.ycsb.hotspot_ratio,
      o.in_memory ? "memory" : "disk", o.block_size,
      static_cast<unsigned long long>(o.max_block_delay_us),
      o.checkpoint_every, o.pool_pages, o.pool_stripes, o.flush_threads,
      o.threads, o.max_txn_retries, o.mempool_capacity,
      o.block_compression == harmony::Compression::kHlz ? "hlz" : "none",
      static_cast<unsigned long long>(o.disk.read_latency_us),
      static_cast<unsigned long long>(o.disk.write_latency_us),
      static_cast<unsigned long long>(o.disk.fsync_latency_us),
      o.disk.queue_depth, w.cluster ? "wire" : "in-process",
      w.cluster ? w.cluster_size : size_t{1},
      w.cluster ? "quorum_ack" : "leader_only",
      w.cluster ? w.reactor_threads : size_t{0},
      w.cluster ? w.net_batch_txns : size_t{0},
      static_cast<unsigned long long>(w.cluster ? w.net_batch_delay_us : 0),
      w.clients, w.window, w.offered_rate);
  return buf;
}

void PrintMetric(const std::string& name, double v, const char* unit,
                 const std::string& note) {
  std::printf("%-38s %16.6f %-11s %s\n", name.c_str(), v, unit, note.c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<const MetricDef*, double>>& ms) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); i++) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(ms[i].first->name) + "\": {\"value\": " +
            JsonNumber(ms[i].second) + ", \"unit\": \"" +
            ms[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReportErrors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
}

// ------------------------------------------------------------------ runs --

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  const double s = args.seconds;
  Plan plan{0.1 * s, 0.45 * s, 0.45 * s};
  std::printf("# harmonybench %s seed=%llu seconds=%g trace=0\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              s);
  std::printf("# context %s\n", ContextJson(spec, args, plan).c_str());

  // Setup is repeated; the last deployment is the one measured.
  Totals totals;
  std::vector<double> setups;
  std::unique_ptr<Stage> st;
  for (int k = 0; k < kSetupRepeats; k++) {
    st.reset();
    const std::string dir = args.workdir + "/setup" + std::to_string(k);
    auto staged = SetUp(spec, dir, /*traced=*/false, nullptr, args.seed,
                        &totals);
    if (!staged.ok()) {
      std::fprintf(stderr, "setup: %s\n", staged.status().ToString().c_str());
      return 1;
    }
    st = std::move(*staged);
    setups.push_back(st->setup_s);
    if (k + 1 < kSetupRepeats) {
      st.reset();
      std::filesystem::remove_all(dir);
    }
  }
  Instance r = Measure(st.get(), spec, plan, /*traced=*/false, nullptr,
                       &totals, args.seed);
  st.reset();
  r.setup_s = Median(setups);

  const double p50 = r.receipt_p50_ms;
  const double p99 = r.receipt_p99_ms;
  const double rss = PeakRssMb();
  const std::string samples =
      "(open loop at " + JsonNumber(spec.offered_rate) + " txn/s: " +
      std::to_string(r.open_samples) + " samples; median of " +
      std::to_string(r.open_windows) + " windows)";
  PrintMetric("commit_tps", r.commit_tps, "txn/s",
              "(closed loop; median of 1-s windows)");
  PrintMetric("receipt_p50_ms", p50, "ms", samples);
  PrintMetric("receipt_p99_ms", p99, "ms", samples);
  PrintMetric("cpu_us_per_txn", r.cpu_us_per_txn, "us",
              "(closed loop; median of 1-s windows)");
  PrintMetric("failed_frac",
              Ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
              "ratio",
              "(" + std::to_string(r.failed) + " of " +
                  std::to_string(r.attempted) + " attempted)");
  PrintMetric("disk_bytes_per_txn", r.disk_bytes_per_txn, "B",
              "(block log + page file growth)");
  PrintMetric("peak_rss_mb", rss, "MiB", "");
  PrintMetric("setup_s", r.setup_s, "s",
              "(median of " + std::to_string(kSetupRepeats) + " setups)");
  PrintMetric("loadgen.late_ms_p99", Percentile(r.late_ms, 99), "ms",
              "(generator lateness)");
  ReportErrors(r.errors);

  std::vector<std::pair<const MetricDef*, double>> ms;
  const double values[] = {r.disk_bytes_per_txn, r.setup_s};
  for (size_t i = 0; i < std::size(kEndToEnd); i++) {
    ms.emplace_back(&kEndToEnd[i], values[i]);
  }
  const bool correct = r.errors.empty();
  PrintResult(correct, r.attempted, r.failed, ms);
  return correct ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  const double s = args.seconds;
  const Plan untraced_plan{0.1 * s, 0.2 * s, 0};
  const Plan traced_plan{0.1 * s, 0.2 * s, 0.2 * s};
  std::printf("# harmonybench %s seed=%llu seconds=%g trace=1\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              s);
  std::printf("# context %s\n",
              ContextJson(spec, args, traced_plan).c_str());

  // Untraced closed-loop segments around one traced run (U T U U), so the
  // tracing overhead is judged against a median with its spread.
  std::vector<double> untraced_tps;
  std::vector<std::string> errors;
  SpanLog spans;
  Instance traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string traced_dir;
  for (int k = 0; k <= kUntracedSegments; k++) {
    const bool is_traced = k == 1;
    const std::string dir = args.workdir + "/run" + std::to_string(k);
    Totals totals;
    auto staged = SetUp(spec, dir, is_traced, is_traced ? &spans : nullptr,
                        args.seed + static_cast<uint64_t>(k), &totals);
    if (!staged.ok()) {
      std::fprintf(stderr, "setup: %s\n", staged.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Stage> st = std::move(*staged);
    Instance r = Measure(st.get(), spec, is_traced ? traced_plan : untraced_plan,
                         is_traced, is_traced ? &spans : nullptr, &totals,
                         args.seed + static_cast<uint64_t>(k));
    const std::string leader_dir = st->dep->leader_dir();
    st.reset();
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    attempted += r.attempted;
    failed += r.failed;
    if (is_traced) {
      traced = std::move(r);
      traced_dir = leader_dir;
    } else {
      untraced_tps.push_back(r.commit_tps);
      std::filesystem::remove_all(dir);
    }
  }

  auto replay = Replay(spec, traced_dir, args.workdir + "/replay", &spans);
  if (!replay.ok()) {
    errors.push_back("replay: " + replay.status().ToString());
  } else {
    traced.layers["replica.replay_us_per_block"] = replay->us_per_block;
    if (replay->digest != traced.live_digest) {
      errors.push_back("replayed state digest differs from the live one");
    }
  }

  const double base = Median(untraced_tps);
  const auto [lo, hi] =
      std::minmax_element(untraced_tps.begin(), untraced_tps.end());
  traced.layers["trace.overhead_pct"] =
      100.0 * Ratio(base - traced.commit_tps, base);
  traced.layers["trace.untraced_tps_range_pct"] =
      100.0 * Ratio(*hi - *lo, base);

  std::printf("# untraced commit_tps:");
  for (double v : untraced_tps) std::printf(" %.1f", v);
  std::printf("  traced: %.1f\n", traced.commit_tps);
  // Modelled device time against the DCC's wall time per block (simulate +
  // commit): the share of a block the storage model accounts for.
  std::printf("# modelled I/O / (simulate + commit) per block: %.3f\n",
              Ratio(traced.layers["storage.modelled_io_ms_per_block"],
                    traced.layers["dcc.simulate_ms_per_block"] +
                        traced.layers["dcc.commit_ms_per_block"]));
  std::vector<std::pair<const MetricDef*, double>> ms;
  for (const MetricDef& m : kPerLayer) {
    const double v = traced.layers.count(m.name) ? traced.layers[m.name] : 0;
    if (Bypassed(spec, m.name)) {
      std::printf("%-38s %16s %-11s (layer bypassed; reported as 0)\n",
                  m.name, "n/a", m.unit);
      ms.emplace_back(&m, 0.0);
    } else {
      PrintMetric(m.name, v, m.unit, "");
      ms.emplace_back(&m, v);
    }
  }
  if (!args.spans_out.empty()) {
    if (Status st = spans.WriteTsv(args.spans_out); !st.ok()) {
      std::fprintf(stderr, "spans: %s\n", st.ToString().c_str());
    } else {
      std::printf("# %zu spans written to %s\n", spans.size(),
                  args.spans_out.c_str());
    }
  }
  ReportErrors(errors);
  const bool correct = errors.empty();
  PrintResult(correct, attempted, failed, ms);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace harmonybench

int main(int argc, char** argv) {
  harmonybench::Args args;
  if (!harmonybench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--spans-out FILE] [--context JSON]\n",
                 argv[0]);
    return 2;
  }
  const harmonybench::WorkloadSpec* spec =
      harmonybench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::filesystem::create_directories(args.workdir, ec);
  const int rc = args.trace ? harmonybench::RunTraced(*spec, args)
                            : harmonybench::RunEndToEnd(*spec, args);
  std::filesystem::remove_all(args.workdir, ec);
  return rc;
}

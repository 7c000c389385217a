// Large-state storage bench: state far bigger than the buffer pool.
//
// Three tables:
//  0. Block-log open on a 20k-block HLZ log of 25 Smallbank txns per block:
//     BlockStore::Open (a frame walk plus a digest decode of the last
//     interval), the bare frame walk (BlockStore::ScanRecords + Peek), and
//     ReadAll (recovery's decode of every record). Median and range of 5
//     runs each, on a warm page cache.
//  1. FlushAll against the device's queue depth — the checkpoint stall
//     claim (docs/ARCHITECTURE.md storage section): the flush admits its
//     dirty pages in waves of queue_depth writes, so on the SSD model its
//     wall-clock falls about in proportion to queue_depth (1, 4, 16).
//     Reported as per-round p50/p99 so tail stalls show too.
//  2. End-to-end engine under a 10M-account working set >> pool: genesis
//     load time (rows into a pool far smaller than the state, which grows
//     under no-steal until the genesis checkpoint), pool hit rate,
//     checkpoint flush volume, disk bytes before/after block-log
//     truncation (docs/FORMATS.md retention), and cold recovery time.
//
// Scaled by HARMONY_BENCH_SCALE like every other bench; --accounts and
// --txns override. CI runs the 1M-account smoke via --accounts.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/harness.h"
#include "chain/block_store.h"
#include "common/clock.h"
#include "common/types.h"
#include "core/harmonybc.h"
#include "replica/replica.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "txn/txn_context.h"
#include "workload/smallbank.h"

using namespace harmony;
using namespace harmony::bench;

namespace {

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("harmony-large-state-" + tag + "-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Status Transfer(TxnContext& ctx, const ProcArgs& a) {
  Value src;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
  if (src.field(0) < a.at(2)) return Status::Aborted("insufficient");
  ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
  ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
  return Status::OK();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

// ---------------------------------------------------- 0. block-log open --

/// Times `fn` `runs` times and prints a row of its median and range (ms).
template <typename Fn>
bool TimeRow(const std::string& step, size_t runs, Fn&& fn) {
  std::vector<double> ms;
  for (size_t r = 0; r < runs; r++) {
    const uint64_t t0 = NowMicros();
    if (!fn()) return false;
    ms.push_back(static_cast<double>(NowMicros() - t0) / 1e3);
  }
  PrintRow({step, Fmt(Quantile(ms, 0.5), 1),
            Fmt(*std::min_element(ms.begin(), ms.end()), 1),
            Fmt(*std::max_element(ms.begin(), ms.end()), 1)});
  return true;
}

int RunLogOpenTable(size_t blocks, size_t txns_per_block) {
  const std::string dir = FreshDir("log");
  const std::string path = dir + "/replica.chain";
  constexpr uint64_t kCheckpointEvery = 50;  // harmonyd's default
  uint64_t bytes = 0;
  {
    BlockStore store(path, /*sync_latency_us=*/0, Compression::kHlz,
                     kCheckpointEvery);
    if (!store.Open().ok()) return 1;
    SmallbankWorkload wl(SmallbankConfig{});
    BlockBuilder builder("bench-secret");
    TxnId tid = 1;
    for (BlockId id = 1; id <= blocks; id++) {
      TxnBatch batch;
      batch.block_id = id;
      batch.first_tid = tid;
      for (size_t i = 0; i < txns_per_block; i++) {
        TxnRequest t = wl.Next();
        t.client_id = 1 + t.client_seq % 16;
        batch.txns.push_back(std::move(t));
      }
      tid += txns_per_block;
      if (!store.Append(builder.Seal(std::move(batch), 1'000'000 + 1000 * id))
               .ok()) {
        return 1;
      }
    }
    bytes = store.live_log_bytes();
  }
  PrintHeader("Block-log open: " + std::to_string(blocks) + " blocks x " +
                  std::to_string(txns_per_block) + " Smallbank txns, HLZ, " +
                  Fmt(static_cast<double>(bytes) / 1e6, 2) + " MB",
              {"step", "median_ms", "min_ms", "max_ms"});
  constexpr size_t kRuns = 5;
  BlockStore reader(path, 0, Compression::kHlz, kCheckpointEvery);
  const bool ok =
      reader.Open().ok() &&
      TimeRow("Open", kRuns,
              [&] {
                BlockStore store(path, 0, Compression::kHlz, kCheckpointEvery);
                return store.Open().ok() && store.num_blocks() == blocks;
              }) &&
      TimeRow("frame walk", kRuns,
              [&] {
                size_t n = 0;
                const Status s = BlockStore::ScanRecords(
                    path, [&](std::string_view p) {
                      BlockId id = 0;
                      uint32_t reach = 0;
                      n += BlockCodec::Peek(p, &id, &reach) ? 1 : 0;
                    });
                return s.ok() && n == blocks;
              }) &&
      TimeRow("ReadAll", kRuns, [&] {
        std::vector<Block> all;
        return reader.ReadAll(&all).ok() && all.size() == blocks;
      });
  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}

// ------------------------------------------ 1. flush against queue depth --

int RunFlushTable(size_t dirty_pages, size_t rounds) {
  PrintHeader("Large-state flush: group flush against device queue depth (SSD)",
              {"queue_depth", "dirty_pages", "p50_ms", "p99_ms", "MB/s",
               "speedup"});
  const std::string dir = FreshDir("flush");
  double serial_p50 = 0;
  for (uint32_t qd : {1u, 4u, 16u}) {
    DiskModel model = DiskModel::Ssd();
    model.queue_depth = qd;
    DiskManager dm(dir + "/pool-" + std::to_string(qd) + ".pages", model);
    BufferPool pool(&dm, dirty_pages);
    // Materialize the working set once (writes excluded from timing).
    for (PageId p = 0; p < dirty_pages; p++) {
      auto g = pool.NewPage(p);
      if (!g.ok()) {
        std::fprintf(stderr, "NewPage: %s\n", g.status().ToString().c_str());
        return 1;
      }
      std::memset(g->data(), 0x5a, kPageSize);
      g->MarkDirty();
    }
    if (!pool.FlushAll().ok()) return 1;

    std::vector<double> ms;
    for (size_t r = 0; r < rounds; r++) {
      for (PageId p = 0; p < dirty_pages; p++) {
        auto g = pool.FetchPage(p);
        if (!g.ok()) return 1;
        std::memcpy(g->data(), &r, sizeof(r));
        g->MarkDirty();
      }
      const uint64_t t0 = NowMicros();
      if (!pool.FlushAll().ok()) return 1;
      ms.push_back(static_cast<double>(NowMicros() - t0) / 1e3);
    }
    const double p50 = Quantile(ms, 0.5);
    const double p99 = Quantile(ms, 0.99);
    if (qd == 1) serial_p50 = p50;
    const double mbs =
        static_cast<double>(dirty_pages) * kPageSize / (p50 * 1e3);
    PrintRow({std::to_string(qd), std::to_string(dirty_pages),
              Fmt(p50, 2), Fmt(p99, 2), Fmt(mbs, 1),
              p50 > 0 ? Fmt(serial_p50 / p50, 2) + "x" : "-"});
  }
  std::filesystem::remove_all(dir);
  return 0;
}

// ------------------------------------------- 2. end-to-end large-state run --

int RunEngineTable(size_t accounts, size_t txns) {
  // Pool deliberately far below the data size: ~accounts/512 pages covers a
  // few percent of the key space, so the transfer workload churns the pool.
  const size_t pool_pages =
      std::min<size_t>(8192, std::max<size_t>(128, accounts / 512));
  const std::string dir = FreshDir("engine");

  HarmonyBC::Options o;
  o.dir = dir;
  o.disk = DiskModel::Ssd();
  o.pool_pages = pool_pages;
  o.block_size = 100;
  o.threads = 8;
  o.checkpoint_every = 8;
  o.max_block_delay_us = 2'000;
  o.mempool_capacity = 1 << 15;

  auto opened = HarmonyBC::Open(o);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*opened);
  db->RegisterProcedure(1, "transfer", Transfer);
  const uint64_t load_t0 = NowMicros();
  // Alike rows that share one encoded row, loaded in chunks that bound the
  // size of the row vector.
  constexpr uint64_t kChunkRows = 1 << 16;
  const std::string row = Value({1'000'000}).Encode();
  std::vector<KvRow> rows;
  for (Key first = 0; first < accounts; first += kChunkRows) {
    rows.clear();
    const Key end = std::min<Key>(first + kChunkRows, accounts);
    for (Key k = first; k < end; k++) rows.push_back({k, row});
    if (!db->LoadRows(rows).ok()) return 1;
  }
  const double genesis_s =
      static_cast<double>(NowMicros() - load_t0) / 1e6;
  if (!db->Recover().ok()) return 1;

  // Uniform-random transfers across the whole key space: every block touches
  // pages the pool evicted long ago.
  const BufferPoolStats base = db->replica()->backend()->pool_stats();
  auto session = db->OpenSession();
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  auto rnd = [&seed] { return seed = Mix64(seed + 0x632be59bd9b4e019ull); };
  std::vector<TxnTicket> tickets;
  for (size_t i = 0; i < txns; i++) {
    TxnRequest t;
    t.proc_id = 1;
    const int64_t from = static_cast<int64_t>(rnd() % accounts);
    const int64_t to = static_cast<int64_t>(rnd() % accounts);
    t.args.ints = {from, to == from ? (to + 1) % static_cast<int64_t>(accounts)
                                    : to,
                   1};
    tickets.push_back(session->Submit(std::move(t)));
    if (tickets.size() >= 1024) {
      TxnReceipt r;
      for (TxnTicket& tk : tickets) {
        if (!tk.WaitFor(60'000'000, &r)) return 1;
      }
      tickets.clear();
    }
  }
  TxnReceipt r;
  for (TxnTicket& tk : tickets) {
    if (!tk.WaitFor(60'000'000, &r)) return 1;
  }
  if (!db->Sync().ok()) return 1;

  const BufferPoolStats ps = db->replica()->backend()->pool_stats();
  const uint64_t lookups = (ps.hits - base.hits) + (ps.misses - base.misses);
  const double hit_rate =
      lookups == 0 ? 0
                   : 100.0 * static_cast<double>(ps.hits - base.hits) /
                         static_cast<double>(lookups);

  // Retention: keep the last 8 blocks, drop the rest. The log bytes after
  // must be bounded by retention, not by history length.
  BlockStore* store = db->replica()->block_store();
  const BlockId tip = store->last_block_id();
  const uint64_t log_pre = store->live_log_bytes();
  constexpr uint64_t kRetain = 8;
  if (tip > kRetain) {
    if (!store->TruncateBefore(tip - kRetain + 1).ok()) return 1;
  }
  const uint64_t log_post = store->live_log_bytes();

  // Cold recovery on the truncated log: journal check, index rebuild, replay
  // of the blocks past the last checkpoint.
  const BlockId height = db->height();
  db.reset();
  const uint64_t t0 = NowMicros();
  auto reopened = HarmonyBC::Open(o);
  if (!reopened.ok()) {
    std::fprintf(stderr, "reopen: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  (*reopened)->RegisterProcedure(1, "transfer", Transfer);
  if (!(*reopened)->Recover().ok()) return 1;
  const double recovery_s = static_cast<double>(NowMicros() - t0) / 1e6;
  if ((*reopened)->height() != height) {
    std::fprintf(stderr, "recovered height %llu != %llu\n",
                 static_cast<unsigned long long>((*reopened)->height()),
                 static_cast<unsigned long long>(height));
    return 1;
  }

  PrintRow({std::to_string(accounts), std::to_string(pool_pages),
            Fmt(genesis_s, 3), Fmt(hit_rate, 1), Fmt(recovery_s, 2),
            Fmt(static_cast<double>(log_pre) / (1 << 20), 2),
            Fmt(static_cast<double>(log_post) / (1 << 20), 2),
            std::to_string(ps.flushed_pages)});
  reopened->reset();
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t accounts = 0;
  size_t txns = 0;
  auto next = [&](int& i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; i++) {
    if (!std::strcmp(argv[i], "--accounts"))
      accounts = std::strtoul(next(i), nullptr, 10);
    else if (!std::strcmp(argv[i], "--txns"))
      txns = std::strtoul(next(i), nullptr, 10);
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (accounts == 0) accounts = std::max<size_t>(10'000, ScaledTxns(10'000'000));
  if (txns == 0) txns = std::max<size_t>(2'000, ScaledTxns(20'000));

  if (RunLogOpenTable(20'000, 25) != 0) return 1;
  if (RunFlushTable(std::max<size_t>(256, ScaledTxns(4096)), 12) != 0)
    return 1;

  PrintHeader("Large-state engine: working set >> pool",
              {"accounts", "pool_pages", "genesis_s", "hit_rate%",
               "recovery_s",
               "log_MB_pre", "log_MB_post", "flushed_pages"});
  return RunEngineTable(accounts, txns);
}

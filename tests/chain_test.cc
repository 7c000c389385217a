#include <gtest/gtest.h>

#include "chain/block.h"
#include "chain/block_store.h"
#include "replica/replica.h"
#include "testing/crash_point.h"
#include "testing/fuzz.h"
#include "tests/test_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>

namespace harmony {
namespace {

TxnBatch MakeBatch(BlockId id, TxnId first_tid, size_t n) {
  TxnBatch b;
  b.block_id = id;
  b.first_tid = first_tid;
  for (size_t i = 0; i < n; i++) {
    TxnRequest t;
    t.proc_id = 7;
    t.client_seq = first_tid + i;
    t.args.ints = {static_cast<int64_t>(i), -5, 123456789};
    t.args.blob = "blob-" + std::to_string(i);
    b.txns.push_back(std::move(t));
  }
  return b;
}

TEST(BlockCodec, RoundTrip) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 5), 12345);
  const std::string bytes = BlockCodec::EncodeRecord(b, Compression::kHlz);
  Block d;
  ASSERT_OK(BlockCodec::Decode(bytes, &d));
  EXPECT_EQ(d.header.block_id, 1u);
  EXPECT_EQ(d.header.txn_count, 5u);
  EXPECT_EQ(d.header.order_time_us, 12345u);
  EXPECT_EQ(d.header.block_hash, b.header.block_hash);
  EXPECT_EQ(d.header.signature, b.header.signature);
  ASSERT_EQ(d.batch.txns.size(), 5u);
  EXPECT_EQ(d.batch.txns[3].args.blob, "blob-3");
  EXPECT_EQ(d.batch.txns[3].args.ints[2], 123456789);
  EXPECT_EQ(d.batch.txns[3].client_seq, 4u);
  EXPECT_EQ(BlockCodec::TxnRoot(d.batch), b.header.txn_root);
}

std::string Hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  for (uint8_t c : d) {
    s += kHex[c >> 4];
    s += kHex[c & 0xF];
  }
  return s;
}

/// Block `id` (1 or 2) of the pinned identity chain: three txns, the i-th
/// submitted at `submit_us + 250 i` and retried `retries + i` times.
TxnBatch IdentityBatch(BlockId id, uint64_t submit_us, uint32_t retries) {
  TxnBatch batch;
  batch.block_id = id;
  batch.first_tid = 1 + (id - 1) * 3;
  for (uint32_t i = 0; i < 3; i++) {
    TxnRequest t;
    t.proc_id = 1 + i;
    t.client_id = 7 + i % 2;
    t.client_seq = 100 + i + 3 * id;
    t.submit_time_us = submit_us + 250 * i;
    t.retries = retries + i;
    t.args.ints = {INT64_MIN, -1, 0, 42, INT64_MAX};
    t.args.blob = std::string(i * 3, 'b');
    batch.txns.push_back(t);
  }
  return batch;
}

// Chain identity is computed over the canonical EncodeTxn bytes, never over
// the log record: these digests were produced from the 28-byte canonical
// txn and a block hash that covers the order time (log v10; before it the
// canonical txn also held submit_time_us, retries and fee, and the order
// time was covered only through the stored submit times), and a standalone
// SHA-256/HMAC over that layout reproduces them. They must not move when
// the storage encoding does. A decoded record re-derives the same
// txn_root.
TEST(BlockCodec, ChainIdentityIsPinnedAcrossRecordFormats) {
  const char* kWant[2][3] = {
      {"679dbf1e2abc0d61b0d792048d855e9924061238aef22b3b07b7a4f86da20af4",
       "27cf802139bf9509a9d3a52ac5d5c42ce50513c769dfa957a223f7caf7b3d6b4",
       "43a451b9fc6ec35d3bd02771cada2b18a520f1ac0caa623cbf7eb3c798b70c63"},
      {"5ecf3d5833d872c4f78f03b172c6d43bfeb56d6f054249f08ac902b7c0ef15c5",
       "2fa48370bcc91ea46a7b6205d2c4108fdd25dd2691324404c3aa5d9f36b18313",
       "1efd775188033a358f564f18ac821ebf3c26e9c076b5e8063be8a486c9e1588d"}};
  BlockBuilder builder("orderer-secret");
  for (BlockId id = 1; id <= 2; id++) {
    SCOPED_TRACE(id);
    const Block b = builder.Seal(IdentityBatch(id, 1'000'000, 0), 1'000'900);
    EXPECT_EQ(Hex(b.header.txn_root), kWant[id - 1][0]);
    EXPECT_EQ(Hex(b.header.block_hash), kWant[id - 1][1]);
    EXPECT_EQ(Hex(b.header.signature), kWant[id - 1][2]);
    for (Compression c : {Compression::kNone, Compression::kHlz}) {
      Block d;
      ASSERT_OK(BlockCodec::Decode(BlockCodec::EncodeRecord(b, c), &d));
      EXPECT_EQ(Hex(BlockCodec::TxnRoot(d.batch)), kWant[id - 1][0]);
      EXPECT_EQ(Hex(BlockCodec::HashHeader(d.header)), kWant[id - 1][1]);
    }
  }
}

// Submit time and retry count are the leader's in-process metadata: no
// value of either moves txn_root, block_hash or the signature, nor the
// stored record, and a decoded txn carries neither.
TEST(BlockCodec, IngressMetadataLeavesChainIdentityAlone) {
  const Block pinned =
      BlockBuilder("orderer-secret").Seal(IdentityBatch(1, 1'000'000, 0),
                                          1'000'900);
  const std::string record =
      BlockCodec::EncodeRecord(pinned, Compression::kHlz);
  const struct {
    uint64_t submit_us;
    uint32_t retries;
  } kCases[] = {{0, 0}, {1'000'900, 1}, {UINT64_MAX - 600, 7},
                {5, UINT32_MAX - 2}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(::testing::Message() << c.submit_us << " " << c.retries);
    const Block b = BlockBuilder("orderer-secret")
                        .Seal(IdentityBatch(1, c.submit_us, c.retries),
                              1'000'900);
    EXPECT_EQ(b.header.txn_root, pinned.header.txn_root);
    EXPECT_EQ(b.header.block_hash, pinned.header.block_hash);
    EXPECT_EQ(b.header.signature, pinned.header.signature);
    EXPECT_EQ(BlockCodec::EncodeRecord(b, Compression::kHlz), record);
    Block d;
    ASSERT_OK(BlockCodec::Decode(record, &d));
    for (const TxnRequest& t : d.batch.txns) {
      EXPECT_EQ(t.submit_time_us, 0u);
      EXPECT_EQ(t.retries, 0u);
    }
  }
  // The order time, by contrast, is under the block hash.
  const Block later = BlockBuilder("orderer-secret")
                          .Seal(IdentityBatch(1, 1'000'000, 0), 1'000'901);
  EXPECT_EQ(later.header.txn_root, pinned.header.txn_root);
  EXPECT_NE(later.header.block_hash, pinned.header.block_hash);
}

TEST(BlockCodec, DecodeRejectsTruncation) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 3), 0);
  for (Compression c : {Compression::kNone, Compression::kHlz}) {
    const std::string bytes = BlockCodec::EncodeRecord(b, c);
    Block d;
    for (size_t cut = 0; cut < bytes.size(); cut++) {
      EXPECT_FALSE(BlockCodec::Decode(bytes.substr(0, cut), &d).ok()) << cut;
    }
  }
}

TEST(BlockCodec, EncodedTxnSizeMatchesEncodeTxn) {
  for (const TxnRequest& t : MakeBatch(1, 1, 4).txns) {
    std::string buf;
    BlockCodec::EncodeTxn(t, &buf);
    EXPECT_EQ(BlockCodec::EncodedTxnSize(t), buf.size());
  }
}

// A Smallbank-shaped block (a few small account/amount ints, no blob, a
// handful of clients with consecutive sequence numbers) must cost fewer
// log bytes than its canonical txn bytes — with or without HLZ on top.
TEST(BlockStore, DiskBytesBelowCanonicalForSmallbankBlock) {
  for (Compression c : {Compression::kNone, Compression::kHlz}) {
    SCOPED_TRACE(CompressionName(c));
    TempDir dir("bs-smallbank");
    BlockStore store(dir.path() + "/chain.log", 0, c);
    ASSERT_OK(store.Open());
    TxnBatch batch;
    batch.block_id = 1;
    batch.first_tid = 1;
    for (uint64_t i = 0; i < 100; i++) {
      TxnRequest t;
      t.proc_id = static_cast<uint32_t>(1 + i % 6);
      t.client_id = 1 + i % 8;
      t.client_seq = 1000 + i / 8;
      t.args.ints = {static_cast<int64_t>((i * 7919) % 20000),
                     static_cast<int64_t>((i * 104729) % 20000),
                     static_cast<int64_t>(1 + i % 50)};
      batch.txns.push_back(std::move(t));
    }
    BlockBuilder builder("secret");
    ASSERT_OK(store.Append(builder.Seal(std::move(batch), 5'000'000)));
    EXPECT_EQ(store.appended_raw_bytes(), 100u * (28 + 3 * 8));
    EXPECT_LT(store.appended_disk_bytes(), store.appended_raw_bytes());
  }
}

TEST(ChainVerifier, AcceptsHonestChain) {
  BlockBuilder builder("secret");
  ChainVerifier v("secret");
  TxnId tid = 1;
  for (BlockId i = 1; i <= 5; i++) {
    Block b = builder.Seal(MakeBatch(i, tid, 4), 0);
    tid += 4;
    ASSERT_OK(v.Verify(b));
  }
}

TEST(ChainVerifier, DetectsTamperedTransaction) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 4), 0);
  b.batch.txns[2].args.ints[0] = 9999;  // tamper after sealing
  ChainVerifier v("secret");
  EXPECT_TRUE(v.Verify(b).IsCorruption());
}

TEST(ChainVerifier, DetectsBrokenChainLink) {
  BlockBuilder builder("secret");
  Block b1 = builder.Seal(MakeBatch(1, 1, 2), 0);
  Block b2 = builder.Seal(MakeBatch(2, 3, 2), 0);
  b2.header.prev_hash.fill(0xAB);  // break the link (and the header hash)
  ChainVerifier v("secret");
  ASSERT_OK(v.Verify(b1));
  EXPECT_TRUE(v.Verify(b2).IsCorruption());
}

TEST(ChainVerifier, DetectsForgedSignature) {
  BlockBuilder builder("wrong-secret");
  Block b = builder.Seal(MakeBatch(1, 1, 2), 0);
  ChainVerifier v("secret");
  EXPECT_TRUE(v.Verify(b).IsCorruption());
}

TEST(ChainVerifier, WholeChainAudit) {
  BlockBuilder builder("secret");
  std::vector<Block> chain;
  TxnId tid = 1;
  for (BlockId i = 1; i <= 8; i++) {
    chain.push_back(builder.Seal(MakeBatch(i, tid, 3), 0));
    tid += 3;
  }
  ASSERT_OK(ChainVerifier::VerifyChain(chain, "secret"));
  // Tamper with a middle block: audit must fail.
  chain[4].batch.txns[0].proc_id = 42;
  EXPECT_TRUE(ChainVerifier::VerifyChain(chain, "secret").IsCorruption());
}

TEST(BlockStore, AppendAndReadBack) {
  TempDir dir("bs");
  BlockStore store(dir.path() + "/chain.log");
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  TxnId tid = 1;
  for (BlockId i = 1; i <= 6; i++) {
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(i, tid, 2), 0)));
    tid += 2;
  }
  EXPECT_EQ(store.last_block_id(), 6u);
  EXPECT_EQ(store.num_blocks(), 6u);

  std::vector<Block> all;
  ASSERT_OK(store.ReadAll(&all));
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[5].header.block_id, 6u);

  std::vector<Block> after;
  ASSERT_OK(store.ReadBlocksAfter(4, &after));
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].header.block_id, 5u);
}

// Pipelined replicas append from concurrent threads, and Append encodes
// each block in id order against the blocks before it. Every record must
// land whole and in order — half of each block's txns retries of the
// previous block's, stored by reference — while readers poll the tip.
TEST(BlockStore, ConcurrentAppendsLandInIdOrder) {
  TempDir dir("bs-concurrent");
  BlockStore store(dir.path() + "/chain.log", 0);
  ASSERT_OK(store.Open());
  constexpr size_t kBlocks = 64, kThreads = 4, kTxns = 6;
  BlockBuilder builder("secret");
  std::vector<Block> blocks;
  for (BlockId i = 1; i <= kBlocks; i++) {
    TxnBatch batch = MakeBatch(i, 1 + (i - 1) * kTxns, kTxns);
    for (size_t k = 0; i > 1 && k < kTxns / 2; k++) {
      batch.txns[k] = blocks.back().batch.txns[kTxns / 2 + k];
      batch.txns[k].retries++;
    }
    blocks.push_back(builder.Seal(std::move(batch), i));
  }
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      Block tip;
      Status s = store.ReadLast(&tip);
      EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      if (s.ok()) EXPECT_LE(tip.header.block_id, kBlocks);
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (size_t i = t; i < kBlocks; i += kThreads) {
        EXPECT_OK(store.Append(blocks[i]));
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  std::vector<Block> all;
  ASSERT_OK(store.ReadAll(&all));
  ASSERT_EQ(all.size(), kBlocks);
  for (size_t i = 0; i < kBlocks; i++) {
    EXPECT_EQ(all[i].header.block_hash, blocks[i].header.block_hash);
  }
  EXPECT_OK(ChainVerifier::VerifyChain(all, "secret"));
  std::vector<std::pair<BlockId, std::string>> records;
  ASSERT_OK(store.ReadRecordsAfter(0, SIZE_MAX, &records));
  for (const auto& [id, record] : records) {
    BlockId peeked = 0;
    uint32_t reach = 0;
    ASSERT_TRUE(BlockCodec::Peek(record, &peeked, &reach));
    EXPECT_EQ(reach, id % kMaxRefReach == 1 ? 0u : 1u) << id;
  }
}

TEST(BlockStore, SurvivesReopenAndRepairsTornTail) {
  TempDir dir("bs2");
  const std::string path = dir.path() + "/chain.log";
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(1, 1, 2), 0)));
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(2, 3, 2), 0)));
  }
  // Simulate a torn append: garbage partial record at the tail.
  {
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const uint32_t bogus_len = 100000;
    ASSERT_EQ(::write(fd, &bogus_len, 4), 4);
    ASSERT_EQ(::write(fd, "garbage", 7), 7);
    ::close(fd);
  }
  BlockStore store(path);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 2u);
  std::vector<Block> all;
  ASSERT_OK(store.ReadAll(&all));
  EXPECT_EQ(all.size(), 2u);
  // Appends continue cleanly after repair.
  BlockBuilder builder2("secret");
  builder2.ResumeFrom(all.back().header.block_hash);
  Block b3;
  {
    TxnBatch batch = MakeBatch(3, 5, 1);
    b3 = builder2.Seal(std::move(batch), 0);
  }
  ASSERT_OK(store.Append(b3));
  ASSERT_OK(store.ReadAll(&all));
  EXPECT_EQ(all.size(), 3u);
  ASSERT_OK(ChainVerifier::VerifyChain(all, "secret"));
}

// ------------------------------------------------------------ truncation --

std::string SlurpFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

void SpillFile(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

bool PathExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// The first block of `id`'s reference interval (docs/FORMATS.md,
/// "References"): the largest safe cut at or below `id` on a log one
/// encoder wrote without gaps.
BlockId IntervalStart(BlockId id, uint64_t checkpoint_every) {
  const BlockId grid = id - (id - 1) % kMaxRefReach;
  if (checkpoint_every == 0) return grid;
  const BlockId start = id - (id - 1) % checkpoint_every;
  return checkpoint_every > kMaxRefReach ? std::max(start, grid) : start;
}

/// checkpoint_every for a store whose every block starts an interval: no
/// record derives its header or references another, so every record is a
/// safe cut and TruncateBefore cuts exactly where asked. The rewrite,
/// crash-window and archive tests below use it; BlockStoreTruncate
/// .EveryBoundary and BlockStoreRefs cover cuts between derived records.
constexpr uint64_t kEveryBlockACut = 1;

/// Appends blocks first_id..last_id (2 txns each) to an open store.
void FillChain(BlockStore* store, BlockBuilder* builder, BlockId first_id,
               BlockId last_id) {
  for (BlockId i = first_id; i <= last_id; i++) {
    ASSERT_OK(store->Append(builder->Seal(MakeBatch(i, 1 + (i - 1) * 2, 2), 0)));
  }
}

TEST(BlockStoreTruncate, EveryBoundary) {
  // TruncateBefore at every keep_from in [0, tip+1], with every block an
  // interval start and with 3-block intervals: the live log must hold
  // exactly the records from the largest safe cut at or below keep_from
  // (keep_from itself when every record is one), stay audit-clean, survive
  // a reopen, and keep accepting appends at the (unchanged) tip.
  constexpr BlockId kTip = 8;
  for (uint64_t every : {kEveryBlockACut, uint64_t{3}}) {
    for (BlockId keep_from = 0; keep_from <= kTip + 1; keep_from++) {
      SCOPED_TRACE(::testing::Message() << "every " << every << " keep_from "
                                        << keep_from);
      TempDir dir("trunc-bound");
      const std::string path = dir.path() + "/chain.log";
      BlockBuilder builder("secret");
      const BlockId cut = keep_from == 0      ? 1
                          : keep_from > kTip ? kTip + 1
                                             : IntervalStart(keep_from, every);
      const size_t expect_kept = kTip + 1 - cut;
      {
        BlockStore store(path, 150, Compression::kHlz, every);
        ASSERT_OK(store.Open());
        FillChain(&store, &builder, 1, kTip);
        ASSERT_OK(store.TruncateBefore(keep_from));
        EXPECT_EQ(store.num_blocks(), expect_kept);
        EXPECT_EQ(store.last_block_id(), kTip);
        EXPECT_EQ(store.first_block_id(), expect_kept > 0 ? cut : 0u);
        if (cut > 1) {
          EXPECT_EQ(store.truncations(), 1u);
          EXPECT_EQ(store.truncated_blocks(), static_cast<uint64_t>(cut - 1));
        } else {
          EXPECT_EQ(store.truncations(), 0u);  // no-op keeps the file alone
        }
        std::vector<Block> live;
        ASSERT_OK(store.ReadAll(&live));
        ASSERT_EQ(live.size(), expect_kept);
        for (size_t i = 0; i < live.size(); i++) {
          EXPECT_EQ(live[i].header.block_id, cut + i);
        }
        ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
      }
      // Reopen: the rewrite is the durable truth, not handle state.
      BlockStore store(path, 150, Compression::kHlz, every);
      ASSERT_OK(store.Open());
      EXPECT_EQ(store.num_blocks(), expect_kept);
      EXPECT_EQ(store.first_block_id(), expect_kept > 0 ? cut : 0u);
      if (expect_kept > 0) {
        // Appends continue at the durable tip.
        Block last;
        ASSERT_OK(store.ReadLast(&last));
        EXPECT_EQ(last.header.block_id, kTip);
        BlockBuilder more("secret");
        more.ResumeFrom(last.header.block_hash);
        ASSERT_OK(store.Append(more.Seal(MakeBatch(kTip + 1, 1000, 2), 0)));
        EXPECT_EQ(store.last_block_id(), kTip + 1);
        std::vector<Block> live;
        ASSERT_OK(store.ReadAll(&live));
        ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
      }
    }
  }
}

TEST(BlockStoreTruncate, DiskBytesShrink) {
  TempDir dir("trunc-bytes");
  BlockStore store(dir.path() + "/chain.log", 150, Compression::kHlz,
                   kEveryBlockACut);
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  FillChain(&store, &builder, 1, 32);
  const uint64_t before = store.live_log_bytes();
  ASSERT_OK(store.TruncateBefore(29));
  EXPECT_LT(store.live_log_bytes(), before / 4);  // 4 of 32 blocks remain
  EXPECT_EQ(store.num_blocks(), 4u);
}

TEST(BlockStoreTruncate, CrashPointsFireDuringRewrite) {
  TempDir dir("trunc-cp");
  BlockStore store(dir.path() + "/chain.log", 150, Compression::kHlz,
                   kEveryBlockACut);
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  FillChain(&store, &builder, 1, 6);
  // Arm with hit counts the rewrite never reaches, so both points count
  // their hit without killing the test process.
  testing::ArmCrashPointForTest("chain.truncate.before_rename", 100, [] {});
  ASSERT_OK(store.TruncateBefore(4));
  EXPECT_EQ(testing::CrashPointHits("chain.truncate.before_rename"), 1u);
  testing::ArmCrashPointForTest("chain.truncate.after_rename", 100, [] {});
  ASSERT_OK(store.TruncateBefore(6));
  EXPECT_EQ(testing::CrashPointHits("chain.truncate.after_rename"), 1u);
  testing::DisarmCrashPoints();
  EXPECT_EQ(store.first_block_id(), 6u);
}

TEST(BlockStoreTruncate, CrashBeforeRenameKeepsOldLog) {
  // The temp is fully written but the rename never happened: reopening must
  // serve the *old* log and clear the stale temp.
  TempDir dir("trunc-before");
  const std::string path = dir.path() + "/chain.log";
  std::string truncated_bytes;
  {
    BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
    ASSERT_OK(store.TruncateBefore(4));
    truncated_bytes = SlurpFile(path);  // what the temp would have held
  }
  {
    // Rebuild the full log, then plant the would-be temp beside it.
    ASSERT_EQ(::unlink(path.c_str()), 0);
    BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
  }
  SpillFile(path + ".truncate", truncated_bytes);
  BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 6u);
  EXPECT_EQ(store.first_block_id(), 1u);
  EXPECT_FALSE(PathExists(path + ".truncate"));
}

TEST(BlockStoreTruncate, CrashAfterRenameServesNewLog) {
  TempDir dir("trunc-after");
  const std::string path = dir.path() + "/chain.log";
  {
    BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
    ASSERT_OK(store.TruncateBefore(4));
    // A crash here (post-rename) loses only the handle, not the rewrite.
  }
  BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 3u);
  EXPECT_EQ(store.first_block_id(), 4u);
  std::vector<Block> live;
  ASSERT_OK(store.ReadAll(&live));
  ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
}

TEST(BlockStoreTruncate, TornTempSweepNeverCorruptsLiveLog) {
  // Byte-sweep the crash-before-rename window with the shared structure-
  // aware mutator: whatever half-written garbage the temp holds, Open()
  // must serve the intact live log and remove the temp.
  TempDir dir("trunc-torn");
  const std::string path = dir.path() + "/chain.log";
  std::string temp_base;
  {
    BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
    ASSERT_OK(store.TruncateBefore(4));
    temp_base = SlurpFile(path);
  }
  ASSERT_EQ(::unlink(path.c_str()), 0);
  std::string live_bytes;
  {
    BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
    live_bytes = SlurpFile(path);
  }
  const std::vector<std::string> corpus = {temp_base, live_bytes};
  const testing::Mutator mutator(&corpus);
  for (uint64_t iter = 0; iter < 60; iter++) {
    SCOPED_TRACE(iter);
    testing::FuzzRng rng(testing::CaseSeed(/*run_seed=*/77, iter));
    std::string mutant = temp_base;
    if (rng.Chance(0.5)) {
      mutant.resize(rng.Index(mutant.size() + 1));  // plain torn prefix
    } else {
      mutator.Mutate(rng, &mutant);
    }
    SpillFile(path, live_bytes);
    SpillFile(path + ".truncate", mutant);
    BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
    ASSERT_OK(store.Open());
    EXPECT_EQ(store.num_blocks(), 6u);
    EXPECT_EQ(store.first_block_id(), 1u);
    EXPECT_FALSE(PathExists(path + ".truncate"));
    std::vector<Block> live;
    ASSERT_OK(store.ReadAll(&live));
    ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
  }
}

TEST(BlockStoreTruncate, StaleTempCleanupRegression) {
  // Pure-garbage temp (not even a log header) beside a healthy log.
  TempDir dir("trunc-stale");
  const std::string path = dir.path() + "/chain.log";
  {
    BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 3);
  }
  SpillFile(path + ".truncate", "not a block log at all");
  BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 3u);
  EXPECT_FALSE(PathExists(path + ".truncate"));
  ASSERT_OK(store.TruncateBefore(3));  // and truncation still works after
  EXPECT_EQ(store.first_block_id(), 3u);
}

TEST(BlockStoreTruncate, ArchivePreservesDroppedRecords) {
  TempDir dir("trunc-arch");
  const std::string path = dir.path() + "/chain.log";
  BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
  store.SetArchiveTruncated(true);
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  FillChain(&store, &builder, 1, 10);
  ASSERT_OK(store.TruncateBefore(4));
  ASSERT_OK(store.TruncateBefore(8));
  std::vector<Block> archived;
  ASSERT_OK(store.ReadArchivedBlocks(&archived));
  ASSERT_EQ(archived.size(), 7u);  // 1..7, deduped, ascending
  for (size_t i = 0; i < archived.size(); i++) {
    EXPECT_EQ(archived[i].header.block_id, i + 1);
  }
  // Archive + live log reassembles the full, audit-clean chain.
  std::vector<Block> live;
  ASSERT_OK(store.ReadAll(&live));
  std::vector<Block> full = archived;
  full.insert(full.end(), live.begin(), live.end());
  ASSERT_EQ(full.size(), 10u);
  ASSERT_OK(ChainVerifier::VerifyChain(full, "secret"));
}

TEST(BlockStoreTruncate, ArchiveSurvivesTornArchiveTail) {
  // A crash mid-archive-append leaves a torn tail; the next truncation must
  // repair it and the reader must still return every whole record once.
  TempDir dir("trunc-arch-torn");
  const std::string path = dir.path() + "/chain.log";
  BlockStore store(path, 150, Compression::kHlz, kEveryBlockACut);
  store.SetArchiveTruncated(true);
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  FillChain(&store, &builder, 1, 8);
  ASSERT_OK(store.TruncateBefore(3));  // archives 1..2
  {
    int fd = ::open((path + ".archive").c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const uint32_t bogus_len = 999999;
    ASSERT_EQ(::write(fd, &bogus_len, 4), 4);
    ASSERT_EQ(::write(fd, "torn", 4), 4);
    ::close(fd);
  }
  ASSERT_OK(store.TruncateBefore(6));  // repairs tail, archives 3..5
  std::vector<Block> archived;
  ASSERT_OK(store.ReadArchivedBlocks(&archived));
  ASSERT_EQ(archived.size(), 5u);
  for (size_t i = 0; i < archived.size(); i++) {
    EXPECT_EQ(archived[i].header.block_id, i + 1);
  }
}

TEST(CheckpointManifest, RoundTripAndMissing) {
  TempDir dir("ckpt");
  CheckpointManifest m(dir.path() + "/m");
  EXPECT_EQ(m.Read(), 0u);
  ASSERT_OK(m.Write(42));
  EXPECT_EQ(m.Read(), 42u);
  ASSERT_OK(m.Write(100));
  EXPECT_EQ(m.Read(), 100u);
}

// A symlinked temp that cannot take the bytes (/dev/full fails the flush
// with ENOSPC) must fail the write and leave the good manifest in place —
// never rename a half-written temp over it.
TEST(CheckpointManifest, FailedWriteKeepsThePreviousManifest) {
  TempDir dir("ckpt-full");
  const std::string path = dir.path() + "/replica.ckpt";
  CheckpointManifest m(path);
  ASSERT_OK(m.Write(7));
  ASSERT_EQ(::symlink("/dev/full", (path + ".tmp").c_str()), 0);
  EXPECT_TRUE(m.Write(9).IsIOError());
  EXPECT_EQ(m.Read(), 7u);
  EXPECT_FALSE(PathExists(path + ".tmp"));
  ASSERT_OK(m.Write(9));  // the next write goes through
  EXPECT_EQ(m.Read(), 9u);
}

// ------------------------------------------------------------ open scan --

/// Overwrites the stored txn section of block `id`'s record in the log at
/// `path` with 0xFF bytes (an invalid HLZ stream) and re-stamps the
/// record's CRC, so the damage passes the frame check and reaches the
/// decoder.
void BreakRecordSection(const std::string& path, BlockId id) {
  std::string file = SlurpFile(path);
  for (size_t off = 8; off + 4 <= file.size();) {
    uint32_t len = 0;
    std::memcpy(&len, file.data() + off, 4);
    ASSERT_LE(off + 8 + len, file.size());
    RecordShape shape;
    ASSERT_TRUE(
        BlockCodec::Peek(std::string_view(file).substr(off + 4, len), &shape));
    if (shape.block_id == id) {
      for (size_t i = shape.section_offset; i < len; i++) {
        file[off + 4 + i] = static_cast<char>(0xFF);
      }
      const uint32_t crc = Crc32(std::string_view(file).substr(off + 4, len));
      std::memcpy(file.data() + off + 4 + len, &crc, 4);
      SpillFile(path, file);
      return;
    }
    off += 8 + len;
  }
  FAIL() << "no record for block " << id;
}

/// Writes blocks 1..12 (16 txns each, HLZ) to a log whose intervals are
/// 1-4, 5-8 and 9-12, so block 9 is the last safe cut.
constexpr uint64_t kOpenEvery = 4;
void WriteTwelveBlocks(const std::string& path) {
  BlockStore store(path, 0, Compression::kHlz, kOpenEvery);
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  for (BlockId i = 1; i <= 12; i++) {
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(i, 1 + (i - 1) * 16, 16), 0)));
  }
}

// A record whose CRC holds but whose payload does not decode, before the
// log's last interval, is a committed block gone bad, not a torn tail: Open
// leaves the file as it is, and the readers report Corruption. Recovery
// refuses the log instead of replaying a chain cut short.
TEST(BlockStoreOpen, UndecodableRecordBeforeTheLastIntervalIsCorruptionOnRead) {
  TempDir dir("open-early");
  const std::string path = dir.path() + "/replica.chain";
  WriteTwelveBlocks(path);
  BreakRecordSection(path, 5);
  const std::string before = SlurpFile(path);
  {
    BlockStore store(path, 0, Compression::kHlz, kOpenEvery);
    ASSERT_OK(store.Open());
    EXPECT_EQ(store.num_blocks(), 12u);
    EXPECT_EQ(store.last_block_id(), 12u);
    EXPECT_TRUE(SlurpFile(path) == before);  // not a byte cut
    std::vector<Block> blocks;
    EXPECT_TRUE(store.ReadAll(&blocks).IsCorruption());
    EXPECT_TRUE(store.ReadBlocksAfter(6, &blocks).IsCorruption());
    // The intervals after the bad record still read.
    ASSERT_OK(store.ReadBlocksAfter(8, &blocks));
    EXPECT_EQ(blocks.size(), 4u);
    Block tip;
    ASSERT_OK(store.ReadLast(&tip));
    EXPECT_EQ(tip.header.block_id, 12u);
  }
  ReplicaOptions ro;
  ro.dir = dir.path();
  ro.disk = DiskModel::RamDisk();
  ro.threads = 2;
  ro.pool_pages = 64;
  ro.checkpoint_every = kOpenEvery;
  ro.orderer_secret = "secret";
  Replica replica(ro);
  ASSERT_OK(replica.Open());
  EXPECT_TRUE(replica.Recover().status().IsCorruption());
  EXPECT_TRUE(SlurpFile(path) == before);
}

// The same damage inside the last interval is repaired like a torn tail:
// Open cuts the log at that record (Append derives the next header from
// the tip it decodes there), and appends resume after it. A bad record in
// an earlier interval stays where it is.
TEST(BlockStoreOpen, UndecodableRecordInTheLastIntervalIsCutThere) {
  TempDir dir("open-last");
  const std::string path = dir.path() + "/replica.chain";
  WriteTwelveBlocks(path);
  std::vector<std::pair<BlockId, std::string>> records;
  {
    BlockStore store(path, 0, Compression::kHlz, kOpenEvery);
    ASSERT_OK(store.Open());
    ASSERT_OK(store.ReadRecordsAfter(0, SIZE_MAX, &records));
  }
  uint64_t cut = 8;  // the file offset of block 11's record
  for (BlockId i = 1; i <= 10; i++) cut += 8 + records[i - 1].second.size();
  BreakRecordSection(path, 2);
  BreakRecordSection(path, 11);
  BlockStore store(path, 0, Compression::kHlz, kOpenEvery);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 10u);
  EXPECT_EQ(store.last_block_id(), 10u);
  EXPECT_EQ(store.live_log_bytes(), cut);
  EXPECT_EQ(SlurpFile(path).size(), cut);
  std::vector<Block> blocks;
  EXPECT_TRUE(store.ReadAll(&blocks).IsCorruption());
  ASSERT_OK(store.ReadBlocksAfter(8, &blocks));
  ASSERT_EQ(blocks.size(), 2u);
  BlockBuilder builder("secret");
  builder.ResumeFrom(blocks.back().header.block_hash);
  ASSERT_OK(store.Append(builder.Seal(MakeBatch(11, 161, 16), 0)));
  ASSERT_OK(store.ReadBlocksAfter(8, &blocks));
  ASSERT_EQ(blocks.size(), 3u);
  ASSERT_OK(ChainVerifier::VerifyChain(blocks, "secret"));
}

// ------------------------------------------------------------ references --

/// Sealed blocks 1..n whose txns are fresh or CC retries: a sealed txn is
/// aborted with probability `p_retry` and sealed again (retries + 1) 1..3
/// blocks later — occasionally more than kMaxRefReach later — so retry
/// chains of random depth cross blocks, interval starts and the reach
/// limit. Some retries change their args on the way (no longer the same
/// canonical txn), and some blocks hold the same txn twice.
std::vector<Block> RetryChain(uint64_t seed, BlockId n, double p_retry) {
  Rng rng(seed);
  BlockBuilder builder("secret");
  std::multimap<BlockId, TxnRequest> due;  // block -> txn sealed there again
  std::vector<Block> chain;
  TxnId tid = 1;
  uint64_t seq = 1;
  for (BlockId id = 1; id <= n; id++) {
    TxnBatch batch;
    batch.block_id = id;
    batch.first_tid = tid;
    for (auto [it, end] = due.equal_range(id); it != end; ++it) {
      batch.txns.push_back(it->second);
    }
    due.erase(id);
    for (uint64_t k = rng.Uniform(6); k > 0; k--) {
      TxnRequest t;
      t.proc_id = 1 + static_cast<uint32_t>(rng.Uniform(3));
      t.client_id = rng.Uniform(3);
      t.client_seq = seq++;
      t.submit_time_us = 1000 * id - rng.Uniform(500);
      t.args.ints = {static_cast<int64_t>(rng.Uniform(50)), -1};
      if (rng.Chance(0.2)) {
        t.args.blob.assign(rng.Uniform(20), static_cast<char>('a' + seq % 26));
      }
      batch.txns.push_back(std::move(t));
    }
    if (rng.Chance(0.1) && !batch.txns.empty()) {
      batch.txns.push_back(batch.txns.front());  // the same txn twice
    }
    for (const TxnRequest& t : batch.txns) {
      if (!rng.Chance(p_retry)) continue;
      TxnRequest again = t;
      again.retries++;
      if (rng.Chance(0.1)) again.args.ints.push_back(9);
      const BlockId later =
          id + (rng.Chance(0.05) ? kMaxRefReach + rng.Uniform(8)
                                 : 1 + rng.Uniform(3));
      due.emplace(later, std::move(again));
    }
    tid += batch.txns.size();
    chain.push_back(builder.Seal(std::move(batch), 1000 * id));
  }
  return chain;
}

/// Canonical equality: the rebuilt block hash covers the header fields and
/// the txn root, which covers every txn's EncodeTxn bytes.
void ExpectChainSlice(const std::vector<Block>& got,
                      const std::vector<Block>& chain, BlockId first) {
  ASSERT_EQ(got.size(), chain.size() + 1 - first);
  for (size_t i = 0; i < got.size(); i++) {
    const Block& want = chain[first - 1 + i];
    EXPECT_EQ(got[i].header.block_id, want.header.block_id);
    EXPECT_EQ(got[i].header.block_hash, want.header.block_hash);
    EXPECT_EQ(BlockCodec::TxnRoot(got[i].batch), want.header.txn_root);
  }
}

/// Every stored record's references and derived header stay at or above
/// the log's first record and inside its own interval, and a record stores
/// a full header exactly when it is a safe cut (no record at or after it
/// reaches below it). Returns how many records store a txn by reference.
size_t CheckReferenceRules(BlockStore* store, uint64_t checkpoint_every) {
  std::vector<std::pair<BlockId, std::string>> records;
  EXPECT_OK(store->ReadRecordsAfter(0, SIZE_MAX, &records));
  std::vector<RecordShape> shapes(records.size());
  size_t with_refs = 0;
  for (size_t i = 0; i < records.size(); i++) {
    const BlockId id = records[i].first;
    RecordShape& shape = shapes[i];
    EXPECT_TRUE(BlockCodec::Peek(records[i].second, &shape));
    EXPECT_EQ(shape.block_id, id);
    if (shape.ref_reach > 0) with_refs++;
    if (shape.reach() == 0) continue;
    EXPECT_GE(id - shape.reach(), store->first_block_id()) << "block " << id;
    EXPECT_GE(id - shape.reach(), IntervalStart(id, checkpoint_every))
        << "block " << id;
  }
  BlockId lowest = records.empty() ? 0 : records.back().first;
  for (size_t i = records.size(); i-- > 0;) {
    const BlockId id = records[i].first;
    lowest = std::min(lowest, id - shapes[i].reach());
    EXPECT_EQ(!shapes[i].derived, lowest >= id) << "block " << id;
  }
  return with_refs;
}

// Seeded chains with retry chains of random depth under a random
// checkpoint interval: every read path returns the sealed blocks, before
// and after random truncations and a reopen, and no stored record reaches
// below its log's first record or across an interval start.
TEST(BlockStoreRefs, SeededChainsReadBackThroughEveryPath) {
  constexpr uint64_t kIntervals[] = {0, 1, 2, 3, 5, 10, 100};
  size_t total_refs = 0;
  for (uint64_t seed = 1; seed <= 24; seed++) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 7919);
    const uint64_t every = kIntervals[rng.Uniform(7)];
    const BlockId n = 20 + rng.Uniform(80);
    const std::vector<Block> chain = RetryChain(seed, n, 0.4);
    TempDir dir("refs-prop");
    const std::string path = dir.path() + "/chain.log";
    BlockStore store(path, 0,
                     rng.Chance(0.5) ? Compression::kHlz : Compression::kNone,
                     every);
    store.SetArchiveTruncated(true);
    ASSERT_OK(store.Open());
    for (const Block& b : chain) {
      std::string stored;
      ASSERT_OK(store.Append(b, &stored));
      EXPECT_FALSE(stored.empty());
    }
    total_refs += CheckReferenceRules(&store, every);
    std::vector<Block> got;
    ASSERT_OK(store.ReadAll(&got));
    ExpectChainSlice(got, chain, 1);
    for (int k = 0; k < 4; k++) {
      const BlockId after = rng.Uniform(n + 1);
      ASSERT_OK(store.ReadBlocksAfter(after, &got));
      if (after < n) {
        ExpectChainSlice(got, chain, after + 1);
      } else {
        EXPECT_TRUE(got.empty());
      }
    }
    Block last;
    ASSERT_OK(store.ReadLast(&last));
    EXPECT_EQ(last.header.block_hash, chain.back().header.block_hash);

    // Random truncations: each cut is a safe cut at or below the ask, the
    // kept records are unchanged, and archive + live is the whole chain.
    BlockId keep_from = 1;
    for (int t = 0; t < 3; t++) {
      keep_from += rng.Uniform(n / 3 + 1);
      ASSERT_OK(store.TruncateBefore(keep_from));
      if (store.num_blocks() > 0) {
        EXPECT_LE(store.first_block_id(), std::max<BlockId>(keep_from, 1));
        CheckReferenceRules(&store, every);
        ASSERT_OK(store.ReadAll(&got));
        ExpectChainSlice(got, chain, store.first_block_id());
        ASSERT_OK(store.ReadLast(&last));
        EXPECT_EQ(last.header.block_hash, chain.back().header.block_hash);
      }
      std::vector<Block> archived;
      ASSERT_OK(store.ReadArchivedBlocks(&archived));
      ASSERT_OK(store.ReadAll(&got));
      archived.insert(archived.end(), got.begin(), got.end());
      ExpectChainSlice(archived, chain, 1);
    }
    // Open decodes the last interval of the survivors, and the reopened
    // store derives the next block's header from the tip (its digests
    // rebuilt at Open) unless that block starts an interval.
    const BlockId first = store.first_block_id();
    BlockStore reopened(path, 0, Compression::kHlz, every);
    ASSERT_OK(reopened.Open());
    EXPECT_EQ(reopened.first_block_id(), first);
    if (first != 0) {
      ASSERT_OK(reopened.ReadAll(&got));
      ExpectChainSlice(got, chain, first);
      const Block next = RetryChain(seed, n + 1, 0.4).back();
      std::string stored;
      ASSERT_OK(reopened.Append(next, &stored));
      RecordShape shape;
      ASSERT_TRUE(BlockCodec::Peek(stored, &shape));
      EXPECT_EQ(shape.derived, IntervalStart(n + 1, every) <= n);
      CheckReferenceRules(&reopened, every);
      ASSERT_OK(reopened.ReadLast(&last));
      EXPECT_EQ(last.header.block_hash, next.header.block_hash);
    }
  }
  EXPECT_GT(total_refs, 0u);
}

// A log without retries never stores a reference, but every record whose
// predecessor is in its interval derives its header from it, so the safe
// cuts are exactly the interval starts (and the log's first record), and
// truncation lands on the largest interval start at or below keep_from —
// never above it, so the retention contract ("keep at least N") holds.
TEST(BlockStoreRefs, RetryFreeLogCutsAtTheIntervalStart) {
  constexpr uint64_t kEvery = 10;
  for (uint64_t seed = 1; seed <= 8; seed++) {
    SCOPED_TRACE(seed);
    const std::vector<Block> chain = RetryChain(seed, 40, 0.0);
    TempDir dir("refs-exact");
    BlockStore store(dir.path() + "/chain.log", 0, Compression::kHlz, kEvery);
    ASSERT_OK(store.Open());
    for (const Block& b : chain) ASSERT_OK(store.Append(b));
    EXPECT_EQ(CheckReferenceRules(&store, kEvery), 0u);
    Rng rng(seed);
    BlockId keep_from = 1;
    for (int t = 0; t < 4; t++) {
      keep_from += 1 + rng.Uniform(9);
      const BlockId was = store.first_block_id();
      ASSERT_OK(store.TruncateBefore(keep_from));
      const BlockId cut = std::max(was, IntervalStart(keep_from, kEvery));
      EXPECT_EQ(store.first_block_id(), cut);
      EXPECT_LE(store.first_block_id(), keep_from);
      EXPECT_EQ(CheckReferenceRules(&store, kEvery), 0u);
      std::vector<Block> got;
      ASSERT_OK(store.ReadAll(&got));
      ExpectChainSlice(got, chain, cut);
    }
  }
}

// Every read path hands back each block with the payload its log stores,
// so appending the blocks read from one log to a fresh log with the same
// interval stores those bytes verbatim — whatever the fresh log's own
// compression — instead of encoding each block again.
TEST(BlockStoreRefs, ReadBlocksCarryTheirStoredRecords) {
  constexpr uint64_t kEvery = 10;
  const std::vector<Block> chain = RetryChain(11, 60, 0.4);
  TempDir dir("refs-record");
  const std::string path = dir.path() + "/chain.log";
  BlockStore store(path, 0, Compression::kHlz, kEvery);
  ASSERT_OK(store.Open());
  std::vector<std::string> stored(chain.size());
  for (size_t i = 0; i < chain.size(); i++) {
    ASSERT_OK(store.Append(chain[i], &stored[i]));
  }
  std::vector<Block> got;
  ASSERT_OK(store.ReadAll(&got));
  ASSERT_EQ(got.size(), chain.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i].record, stored[i]) << "block " << i + 1;
  }
  std::vector<Block> after;
  ASSERT_OK(store.ReadBlocksAfter(37, &after));
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.front().record, stored[37]);
  Block last;
  ASSERT_OK(store.ReadLast(&last));
  EXPECT_EQ(last.record, stored.back());

  for (Compression c : {Compression::kHlz, Compression::kNone}) {
    const std::string copy_path =
        dir.path() + "/copy" + std::to_string(static_cast<int>(c)) + ".log";
    BlockStore copy(copy_path, 0, c, kEvery);
    ASSERT_OK(copy.Open());
    for (const Block& b : got) ASSERT_OK(copy.Append(b));
    EXPECT_EQ(ReadFileBytes(copy_path), ReadFileBytes(path));
  }
}

// A replicated record is stored verbatim only when it decodes to the block
// handed to Append in this log: a derived header over a predecessor that
// is not the block's parent (a log that forked from the leader's) would
// take another prev_hash, so the store re-encodes it with the full header.
TEST(BlockStoreRefs, DerivedRecordOverAnotherParentIsReencoded) {
  const std::vector<Block> chain = RetryChain(5, 3, 0.0);
  RefWindow leader;
  leader.Push(chain[0]);
  leader.Push(chain[1]);
  Block b3 = chain[2];
  b3.record = BlockCodec::EncodeRecord(b3, Compression::kHlz, &leader);
  RecordShape shape;
  ASSERT_TRUE(BlockCodec::Peek(b3.record, &shape));
  ASSERT_TRUE(shape.derived);

  TempDir dir("refs-fork");
  BlockStore store(dir.path() + "/chain.log", 0, Compression::kHlz, 10);
  ASSERT_OK(store.Open());
  ASSERT_OK(store.Append(chain[0]));
  BlockBuilder other("secret");
  other.ResumeFrom(chain[0].header.block_hash);
  TxnBatch fork = chain[1].batch;
  fork.txns.emplace_back();
  ASSERT_OK(store.Append(other.Seal(std::move(fork), 2000)));
  std::string stored;
  ASSERT_OK(store.Append(b3, &stored));
  EXPECT_NE(stored, b3.record);
  ASSERT_TRUE(BlockCodec::Peek(stored, &shape));
  EXPECT_FALSE(shape.derived);
  Block last;
  ASSERT_OK(store.ReadLast(&last));
  EXPECT_EQ(last.header.prev_hash, b3.header.prev_hash);
  EXPECT_EQ(last.header.block_hash, b3.header.block_hash);
}

// A replication session starting at block `next` decodes the leader's
// stored records from ContextStart(next) on, including records appended
// after the session started; a follower that installed a snapshot at a
// random base stores the leader's records verbatim wherever their
// references resolve in its own log, and re-encodes the rest.
TEST(BlockStoreRefs, SessionContextAndSnapshotBases) {
  constexpr uint64_t kIntervals[] = {0, 2, 3, 7, 10};
  size_t verbatim = 0;
  for (uint64_t seed = 1; seed <= 24; seed++) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 104729);
    const uint64_t every = kIntervals[rng.Uniform(5)];
    const BlockId n = 20 + rng.Uniform(60);
    const std::vector<Block> chain = RetryChain(seed + 1000, n, 0.4);
    TempDir dir("refs-session");
    BlockStore leader(dir.path() + "/leader.log", 0, Compression::kHlz,
                      every);
    ASSERT_OK(leader.Open());
    const BlockId split = 1 + rng.Uniform(n);
    for (BlockId id = 1; id <= split; id++) {
      ASSERT_OK(leader.Append(chain[id - 1]));
    }
    if (rng.Chance(0.5)) ASSERT_OK(leader.TruncateBefore(rng.Uniform(split)));
    const BlockId first = leader.first_block_id();
    const BlockId next = first + rng.Uniform(split + 2 - first);
    const BlockId from = leader.ContextStart(next);
    EXPECT_LE(from, next);
    EXPECT_GE(from, first);
    for (BlockId id = split + 1; id <= n; id++) {
      ASSERT_OK(leader.Append(chain[id - 1]));
    }
    std::vector<std::pair<BlockId, std::string>> records;
    ASSERT_OK(leader.ReadRecordsAfter(from - 1, SIZE_MAX, &records));
    RefWindow session;
    for (const auto& [id, record] : records) {
      Block b;
      SCOPED_TRACE(id);
      ASSERT_OK(BlockCodec::Decode(record, &b, &session));
      session.Push(b);
      EXPECT_EQ(b.header.block_hash, chain[id - 1].header.block_hash);
    }

    // A follower rebased at `base` (a snapshot install) appends the
    // leader's blocks with the leader's record bytes attached.
    const BlockId base = from - 1 + rng.Uniform(n + 2 - from);
    BlockStore follower(dir.path() + "/follower.log", 0, Compression::kNone,
                        every);
    ASSERT_OK(follower.Open());
    ASSERT_OK(follower.ResetTail(base));
    for (const auto& [id, record] : records) {
      if (id <= base) continue;
      Block b = chain[id - 1];
      b.record = record;
      std::string stored;
      ASSERT_OK(follower.Append(b, &stored));
      BlockId peeked = 0;
      uint32_t reach = 0;
      ASSERT_TRUE(BlockCodec::Peek(record, &peeked, &reach));
      // Exactly the records reaching below the follower's first block (its
      // derived header or a reference) are re-encoded.
      if (id - reach > base) {
        EXPECT_EQ(stored, record) << "block " << id;
        verbatim++;
      } else {
        EXPECT_NE(stored, record) << "block " << id;
      }
    }
    if (base < n) {
      CheckReferenceRules(&follower, every);
      std::vector<Block> got;
      ASSERT_OK(follower.ReadAll(&got));
      ExpectChainSlice(got, chain, base + 1);
    }
  }
  EXPECT_GT(verbatim, 0u);
}

}  // namespace
}  // namespace harmony

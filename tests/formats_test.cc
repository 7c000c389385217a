// Block log format coverage (docs/FORMATS.md): the HLZ codec, the v10
// record (a full header with prev_hash, or one derived from the previous
// block's; the signature; then a column-wise txn section of varint or
// bit-packed columns over the canonical txn fields, with retries stored as
// references, under a compression envelope) — seeded round-trips at the
// codec's edges, packed columns at widths 0 and 64, derived headers,
// hostile hand-built sections, headers and references, and a byte-flip
// sweep showing every stored byte is covered by the signature or the chain
// — refusal of v1-v9 logs, and corrupt-compressed-payload rejection.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/block_store.h"
#include "common/codec.h"
#include "common/compress.h"
#include "common/rng.h"
#include "core/harmonybc.h"
#include "testing/fuzz.h"
#include "tests/test_util.h"
#include "txn/txn_context.h"

namespace harmony {
namespace {

// ------------------------------------------------------------------- hlz --

std::string Repetitive(size_t n) {
  std::string s;
  while (s.size() < n) s += "transfer(acct-12345, acct-67890, amount=100);";
  s.resize(n);
  return s;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rng.UniformRange(0, 255));
  return s;
}

TEST(Hlz, RoundTripRepetitive) {
  const std::string src = Repetitive(64 << 10);
  std::string comp;
  HlzCompress(src, &comp);
  EXPECT_LT(comp.size(), src.size() / 4);  // highly repetitive: big win
  std::string out;
  ASSERT_OK(HlzDecompress(comp, src.size(), &out));
  EXPECT_EQ(out, src);
}

TEST(Hlz, RoundTripEdgeSizes) {
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 255u, 256u, 4096u}) {
    SCOPED_TRACE(n);
    const std::string src = RandomBytes(n, 7 * n + 1);
    std::string comp;
    HlzCompress(src, &comp);
    std::string out;
    ASSERT_OK(HlzDecompress(comp, src.size(), &out));
    EXPECT_EQ(out, src);
  }
}

TEST(Hlz, RoundTripIncompressible) {
  // Random bytes cannot shrink, but the stream must still round-trip.
  const std::string src = RandomBytes(32 << 10, 99);
  std::string comp;
  HlzCompress(src, &comp);
  std::string out;
  ASSERT_OK(HlzDecompress(comp, src.size(), &out));
  EXPECT_EQ(out, src);
}

TEST(Hlz, RejectsWrongRawLen) {
  const std::string src = Repetitive(4096);
  std::string comp;
  HlzCompress(src, &comp);
  std::string out;
  EXPECT_TRUE(HlzDecompress(comp, src.size() + 1, &out).IsCorruption());
  EXPECT_TRUE(HlzDecompress(comp, src.size() - 1, &out).IsCorruption());
  EXPECT_TRUE(HlzDecompress(comp, 1u << 31, &out).IsCorruption());
}

TEST(Hlz, GarbageNeverCrashes) {
  // Deterministic pseudo-fuzz on the shared structure-aware mutator
  // (src/testing/fuzz.h — the same engine fuzz_harness drives much deeper).
  // Mutants of a valid stream must either round-trip or fail cleanly with
  // Corruption; a "success" must at least produce the declared size.
  const std::string valid_src = Repetitive(8192);
  std::string valid;
  HlzCompress(valid_src, &valid);
  const std::vector<std::string> corpus = {valid, RandomBytes(64, 3)};
  const testing::Mutator mutator(&corpus);
  std::string out;
  for (uint64_t iter = 0; iter < 400; iter++) {
    testing::FuzzRng rng(testing::CaseSeed(/*run_seed=*/42, iter));
    std::string mutant = valid;
    mutator.Mutate(rng, &mutant);
    const size_t claimed =
        rng.Chance(0.5) ? valid_src.size() : rng.Index(valid_src.size() + 2);
    if (HlzDecompress(mutant, claimed, &out).ok()) {
      EXPECT_EQ(out.size(), claimed) << "iter " << iter;
    }
  }
  // Truncations of a valid stream can never satisfy the declared raw size.
  for (size_t cut = 0; cut < valid.size(); cut += 13) {
    EXPECT_FALSE(HlzDecompress(valid.substr(0, cut), valid_src.size(), &out)
                     .ok());
  }
}

// ------------------------------------------------------ v10 record codec --

TxnBatch MakeBatch(BlockId id, TxnId first_tid, size_t n) {
  TxnBatch b;
  b.block_id = id;
  b.first_tid = first_tid;
  for (size_t i = 0; i < n; i++) {
    TxnRequest t;
    t.proc_id = 7;
    t.client_id = 40 + (i % 4);
    t.client_seq = first_tid + i;
    t.args.ints = {static_cast<int64_t>(i), -5, 123456789};
    t.args.blob = "blob-" + std::to_string(i);
    b.txns.push_back(std::move(t));
  }
  return b;
}

/// The flags byte's bits (docs/FORMATS.md): the codec, a derived header,
/// stored references.
constexpr uint8_t kCodecBits = 0x3F;
constexpr uint8_t kDerivedBit = 0x40;
constexpr uint8_t kRefsBit = 0x80;

/// Offset of a record's flags byte: right after the block_id varint.
size_t FlagsOffset(BlockId id) {
  std::string head;
  codec::AppendVarint(&head, id);
  return head.size();
}

/// Offset of the stored txn section, past the header, the signature, the
/// reach and the varint raw length.
size_t StoredSectionOffset(const std::string& payload) {
  RecordShape shape;
  EXPECT_TRUE(BlockCodec::Peek(payload, &shape));
  return shape.section_offset;
}

void ExpectSameTxns(const TxnBatch& got, const TxnBatch& want) {
  ASSERT_EQ(got.txns.size(), want.txns.size());
  for (size_t i = 0; i < want.txns.size(); i++) {
    SCOPED_TRACE(i);
    const TxnRequest& g = got.txns[i];
    const TxnRequest& w = want.txns[i];
    EXPECT_EQ(g.proc_id, w.proc_id);
    EXPECT_EQ(g.client_id, w.client_id);
    EXPECT_EQ(g.client_seq, w.client_seq);
    EXPECT_EQ(g.args.ints, w.args.ints);
    EXPECT_EQ(g.args.blob, w.args.blob);
    // The record stores no ingress metadata.
    EXPECT_EQ(g.submit_time_us, 0u);
    EXPECT_EQ(g.retries, 0u);
  }
}

TEST(BlockCodecV6, RecordRoundTripBothCodecs) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 20), 777);
  size_t canonical = 0;
  for (const TxnRequest& t : b.batch.txns) {
    std::string buf;
    BlockCodec::EncodeTxn(t, &buf);
    canonical += buf.size();
  }
  for (Compression c : {Compression::kNone, Compression::kHlz}) {
    SCOPED_TRACE(CompressionName(c));
    const std::string payload = BlockCodec::EncodeRecord(b, c);
    EXPECT_LT(payload.size(), canonical);
    EXPECT_EQ(static_cast<uint8_t>(payload[FlagsOffset(b.header.block_id)]),
              static_cast<uint8_t>(c));
    Block d;
    ASSERT_OK(BlockCodec::Decode(payload, &d));
    // Both digests are rebuilt from the record's contents, and the
    // verifier accepts the decoded block unchanged.
    EXPECT_EQ(d.header.txn_root, b.header.txn_root);
    EXPECT_EQ(d.header.block_hash, b.header.block_hash);
    EXPECT_EQ(d.header.order_time_us, 777u);
    ExpectSameTxns(d.batch, b.batch);
    ChainVerifier v("secret");
    EXPECT_OK(v.Verify(d));
    BlockId id = 0;
    uint32_t reach = 7;
    ASSERT_TRUE(BlockCodec::Peek(payload, &id, &reach));
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(reach, 0u);
  }
}

// Seeded random blocks at the codec's edges: extreme ints, sequence numbers
// at 0 and UINT64_MAX (wrapping deltas, forwards and backwards), empty and
// 4 KiB blobs, 0- and 1-txn blocks, and many interleaved clients, with
// ingress metadata the record must not store (submit times ahead of the
// order time, retry counts at the u32 ceiling). Every canonical field must
// come back exactly, under both codecs.
TEST(BlockCodecV6, SeededRandomBlocksRoundTripAtTheEdges) {
  constexpr int64_t kEdgeInts[] = {INT64_MIN, INT64_MAX, 0, -1, 1, 63, -64,
                                   64};
  constexpr uint64_t kEdgeU64[] = {0, 1, 127, 128, UINT64_MAX - 1,
                                   UINT64_MAX};
  for (uint64_t seed = 1; seed <= 60; seed++) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    TxnBatch batch;
    batch.block_id = 1 + rng.Uniform(1 << 20);
    batch.first_tid = rng.Uniform(2) == 0 ? 1 : rng.Next();
    const size_t n = seed % 10 == 0   ? 0
                     : seed % 10 == 1 ? 1
                                      : 1 + rng.Uniform(64);
    const uint64_t clients = 1 + rng.Uniform(40);
    const uint64_t order_time = kEdgeU64[rng.Uniform(6)] ^ rng.Uniform(1000);
    for (size_t i = 0; i < n; i++) {
      TxnRequest t;
      t.proc_id = rng.Uniform(8) == 0 ? UINT32_MAX
                                      : static_cast<uint32_t>(rng.Uniform(9));
      t.client_id = rng.Uniform(4) == 0 ? UINT64_MAX - rng.Uniform(clients)
                                        : rng.Uniform(clients);
      t.client_seq =
          rng.Uniform(3) == 0 ? kEdgeU64[rng.Uniform(6)] : rng.Next();
      // Behind, at, or ahead of the order time (a skewed client clock).
      t.submit_time_us = rng.Uniform(3) == 0 ? kEdgeU64[rng.Uniform(6)]
                                             : order_time + rng.UniformRange(
                                                                -5000, 5000);
      t.retries = rng.Uniform(6) == 0 ? UINT32_MAX
                                      : static_cast<uint32_t>(rng.Uniform(4));
      const size_t n_ints = rng.Uniform(12);
      for (size_t k = 0; k < n_ints; k++) {
        t.args.ints.push_back(rng.Uniform(2) == 0
                                  ? kEdgeInts[rng.Uniform(8)]
                                  : static_cast<int64_t>(rng.Next()));
      }
      switch (rng.Uniform(4)) {
        case 0:
          break;  // empty blob
        case 1:
          t.args.blob = RandomBytes(4 << 10, rng.Next());
          break;
        default:
          t.args.blob = RandomBytes(rng.Uniform(40), rng.Next());
      }
      batch.txns.push_back(std::move(t));
    }
    BlockBuilder builder("secret");
    const Block b = builder.Seal(batch, order_time);
    for (Compression c : {Compression::kNone, Compression::kHlz}) {
      SCOPED_TRACE(CompressionName(c));
      Block d;
      ASSERT_OK(BlockCodec::Decode(BlockCodec::EncodeRecord(b, c), &d));
      EXPECT_EQ(d.header.block_id, b.header.block_id);
      EXPECT_EQ(d.header.first_tid, b.header.first_tid);
      EXPECT_EQ(d.header.txn_count, b.header.txn_count);
      EXPECT_EQ(d.header.order_time_us, b.header.order_time_us);
      EXPECT_EQ(d.header.prev_hash, b.header.prev_hash);
      EXPECT_EQ(d.header.signature, b.header.signature);
      ExpectSameTxns(d.batch, b.batch);
      EXPECT_EQ(BlockCodec::TxnRoot(d.batch), b.header.txn_root);
    }
  }
}

TEST(BlockCodecV6, CorruptEnvelopeRejected) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 8), 0);
  std::string payload = BlockCodec::EncodeRecord(b, Compression::kHlz);
  const size_t env = FlagsOffset(b.header.block_id);
  ASSERT_EQ(static_cast<uint8_t>(payload[env]), 1u);  // Compression::kHlz
  Block d;
  // Unknown codec byte.
  std::string bad = payload;
  bad[env] = 9;
  EXPECT_TRUE(BlockCodec::Decode(bad, &d).IsCorruption());
  // Garbage compressed section of the right stored length.
  bad = payload;
  for (size_t i = StoredSectionOffset(payload); i < bad.size(); i++) {
    bad[i] = static_cast<char>(0xFF);
  }
  EXPECT_TRUE(BlockCodec::Decode(bad, &d).IsCorruption());
  // Truncation anywhere, and a byte too many.
  for (size_t cut = 0; cut < payload.size(); cut++) {
    EXPECT_FALSE(BlockCodec::Decode(payload.substr(0, cut), &d).ok()) << cut;
  }
  EXPECT_FALSE(BlockCodec::Decode(payload + '\0', &d).ok());
}

// ------------------------------------------- hostile hand-built sections --

/// A v10 record payload (full header, no references) around a hand-built
/// txn section stored raw.
std::string RawRecord(uint64_t txn_count, const std::string& section) {
  std::string p;
  codec::AppendVarint(&p, 1);  // block_id
  codec::AppendU8(&p, static_cast<uint8_t>(Compression::kNone));  // flags
  codec::AppendVarint(&p, 1);  // first_tid
  codec::AppendVarint(&p, txn_count);
  codec::AppendVarint(&p, 1000);  // order_time_us
  p.append(2 * 32, '\0');         // prev_hash, signature
  codec::AppendVarint(&p, section.size());
  return p + section;
}

/// One txn's section, every column in varint mode: the fixed columns' mode
/// byte, then proc, client, seq delta, `n_ints`, the position columns
/// (`ints`, pre-encoded with their mode bitmap), and `blob_len` with `blob`
/// bytes.
std::string OneTxnSection(uint64_t n_ints, const std::string& ints,
                          uint64_t blob_len, const std::string& blob) {
  std::string s(1, '\0');
  for (uint64_t v : {1, 2, 2}) codec::AppendVarint(&s, v);
  codec::AppendVarint(&s, n_ints);
  s += ints;
  codec::AppendVarint(&s, blob_len);
  return s + blob;
}

TEST(BlockCodecV6, HandBuiltSectionDecodes) {
  std::string ints(1, '\0');  // position 0 in varint mode
  codec::AppendVarint(&ints, codec::ZigzagEncode(-3));
  Block d;
  ASSERT_OK(BlockCodec::Decode(RawRecord(1, OneTxnSection(1, ints, 2, "ab")),
                               &d));
  ASSERT_EQ(d.batch.txns.size(), 1u);
  const TxnRequest& t = d.batch.txns[0];
  EXPECT_EQ(t.proc_id, 1u);
  EXPECT_EQ(t.client_id, 2u);
  EXPECT_EQ(t.client_seq, 1u);  // zigzag(1) = 2, from base 0
  EXPECT_EQ(t.submit_time_us, 0u);
  EXPECT_EQ(t.args.ints, std::vector<int64_t>({-3}));
  EXPECT_EQ(t.args.blob, "ab");
}

TEST(BlockCodecV6, HostileCountsFailBeforeAllocating) {
  Block d;
  const std::string ok_section = OneTxnSection(0, "", 0, "");
  // A txn count the section cannot hold (header says ~4 billion).
  EXPECT_TRUE(
      BlockCodec::Decode(RawRecord(UINT32_MAX, ok_section), &d).IsCorruption());
  // A txn count past u32.
  EXPECT_TRUE(BlockCodec::Decode(RawRecord(uint64_t{1} << 40, ok_section), &d)
                  .IsCorruption());
  // An int count far beyond the remaining bytes.
  EXPECT_TRUE(BlockCodec::Decode(RawRecord(1, OneTxnSection(UINT32_MAX, "", 0,
                                                            "")),
                                 &d)
                  .IsCorruption());
  // An int count past u32.
  EXPECT_TRUE(BlockCodec::Decode(RawRecord(1, OneTxnSection(uint64_t{1} << 33,
                                                            "", 0, "")),
                                 &d)
                  .IsCorruption());
  // Blob lengths near 2^64: must not wrap the running total or size a
  // string.
  EXPECT_TRUE(
      BlockCodec::Decode(RawRecord(1, OneTxnSection(0, "", UINT64_MAX, "x")),
                         &d)
          .IsCorruption());
  EXPECT_TRUE(BlockCodec::Decode(
                  RawRecord(1, OneTxnSection(0, "", uint64_t{1} << 62, "x")),
                  &d)
                  .IsCorruption());
  // Two txns whose blob lengths each fit but together exceed the bytes.
  std::string two(1, '\0');
  for (uint64_t v : {1, 1, 2, 2, 2, 4, 0, 0, 2, 2}) {
    codec::AppendVarint(&two, v);
  }
  EXPECT_TRUE(
      BlockCodec::Decode(RawRecord(2, two + "xy"), &d).IsCorruption());
  // A proc_id wider than u32.
  std::string wide(1, '\0');
  codec::AppendVarint(&wide, uint64_t{1} << 32);
  wide += ok_section.substr(2);
  EXPECT_TRUE(BlockCodec::Decode(RawRecord(1, wide), &d).IsCorruption());
}

TEST(BlockCodecV6, TrailingSectionBytesAreCorruption) {
  Block d;
  const std::string section = OneTxnSection(0, "", 1, "z");
  ASSERT_OK(BlockCodec::Decode(RawRecord(1, section), &d));
  EXPECT_TRUE(
      BlockCodec::Decode(RawRecord(1, section + '\0'), &d).IsCorruption());
  // A 0-txn block carries an empty section; anything in it is trailing.
  ASSERT_OK(BlockCodec::Decode(RawRecord(0, ""), &d));
  EXPECT_TRUE(d.batch.txns.empty());
  EXPECT_TRUE(BlockCodec::Decode(RawRecord(0, "\x01"), &d).IsCorruption());
  // A raw envelope whose declared length disagrees with the stored bytes.
  std::string lying = RawRecord(1, section);
  lying.back() = 'z';
  lying += 'q';
  EXPECT_TRUE(BlockCodec::Decode(lying, &d).IsCorruption());
}

TEST(BlockCodecV6, OverlongVarintsAreCorruption) {
  Block d;
  // 11 bytes: ten continuation bytes, then a terminator.
  const std::string eleven = std::string(10, '\x80') + '\x01';
  // 10 bytes whose last byte carries bits past 2^64.
  const std::string overflow = std::string(9, '\xFF') + '\x02';
  // A value that fits but is padded with a zero high group.
  const std::string padded = "\x81\x00";
  for (const std::string& bad : {eleven, overflow, padded}) {
    SCOPED_TRACE(bad.size());
    // In the header (block_id)...
    const std::string good = RawRecord(0, "");
    EXPECT_TRUE(BlockCodec::Decode(bad + good.substr(1), &d).IsCorruption());
    // ...and as the first entry of the proc_id column.
    const std::string section = OneTxnSection(0, "", 0, "");
    EXPECT_TRUE(
        BlockCodec::Decode(RawRecord(1, section.substr(0, 1) + bad +
                                            section.substr(2)),
                           &d)
            .IsCorruption());
  }
}

TEST(BlockCodecV6, TruncatedColumnIsCorruption) {
  // Two txns with ints and blobs, cut at every byte. The envelope declares
  // the cut length, so each cut reaches the column decoder and must fail
  // there, whichever column it lands in.
  std::string ints;
  for (int64_t v : {INT64_MIN, int64_t{300}}) {
    codec::AppendVarint(&ints, codec::ZigzagEncode(v));
  }
  std::string section(1, '\0');  // every fixed column in varint mode
  for (uint64_t v : {3, 3, 9, 9, 40, 42}) {
    codec::AppendVarint(&section, v);  // proc .. seq columns, 2 txns each
  }
  codec::AppendVarint(&section, 1);  // n_ints, txn 0
  codec::AppendVarint(&section, 1);  // n_ints, txn 1
  section += '\0';                  // position 0 in varint mode
  section += ints;
  codec::AppendVarint(&section, 2);  // blob length, txn 0
  codec::AppendVarint(&section, 3);  // blob length, txn 1
  section += "abcde";
  Block d;
  ASSERT_OK(BlockCodec::Decode(RawRecord(2, section), &d));
  EXPECT_EQ(d.batch.txns[0].args.ints, std::vector<int64_t>({INT64_MIN}));
  EXPECT_EQ(d.batch.txns[1].args.blob, "cde");
  for (size_t cut = 0; cut < section.size(); cut++) {
    EXPECT_TRUE(
        BlockCodec::Decode(RawRecord(2, section.substr(0, cut)), &d)
            .IsCorruption())
        << cut;
  }
}

// ------------------------------------------------------- packed columns --

/// Decodes `payload` and reports how its section stored its columns.
SectionStats StatsOf(const std::string& payload,
                     const RefWindow* window = nullptr) {
  Block parsed;
  SectionStats stats;
  EXPECT_OK(BlockCodec::Decode(payload, &parsed, window, &stats));
  return stats;
}

// Columns the encoder packs: equal values at width 0, and at width 64 a
// client_id column spanning 0..UINT64_MAX and an args.ints position
// holding INT64_MIN and INT64_MAX; sequence numbers and client ids at
// UINT64_MAX. Every field comes back exactly under both codecs.
TEST(BlockCodecV9, PackedColumnsRoundTripAtWidthsZeroAnd64) {
  TxnBatch batch;
  batch.block_id = 3;
  batch.first_tid = 11;
  for (size_t i = 0; i < 12; i++) {
    TxnRequest t;
    t.proc_id = 4;
    t.client_id = i == 0 ? 0 : UINT64_MAX;
    t.client_seq = UINT64_MAX - i % 2;
    t.args.ints = {i % 2 == 0 ? INT64_MIN : INT64_MAX, 7};
    batch.txns.push_back(std::move(t));
  }
  const Block b = BlockBuilder("secret").Seal(batch, 5'000);
  for (Compression c : {Compression::kNone, Compression::kHlz}) {
    SCOPED_TRACE(CompressionName(c));
    const std::string payload = BlockCodec::EncodeRecord(b, c);
    Block d;
    ASSERT_OK(BlockCodec::Decode(payload, &d));
    ExpectSameTxns(d.batch, b.batch);
    EXPECT_EQ(d.header.block_hash, b.header.block_hash);
    // Five fixed columns and two positions; only the sequence numbers,
    // whose per-client deltas take a byte each, stay varint.
    const SectionStats stats = StatsOf(payload);
    EXPECT_EQ(stats.columns, 7u);
    EXPECT_EQ(stats.packed_columns, 6u);
  }
  // No txn with ints: no position columns.
  for (TxnRequest& t : batch.txns) t.args.ints.clear();
  const Block none = BlockBuilder("secret").Seal(batch, 5'000);
  const std::string payload = BlockCodec::EncodeRecord(none,
                                                       Compression::kNone);
  Block d;
  ASSERT_OK(BlockCodec::Decode(payload, &d));
  ExpectSameTxns(d.batch, none.batch);
  EXPECT_EQ(StatsOf(payload).columns, 5u);
}

// The encoder stores each column in the mode that takes fewer bytes: a
// one-txn block keeps every small value a one-byte varint, and a block of
// many txns packs the columns whose values repeat.
TEST(BlockCodecV9, EachColumnTakesTheSmallerMode) {
  const Block one = BlockBuilder("secret").Seal(MakeBatch(1, 1, 1), 0);
  EXPECT_EQ(StatsOf(BlockCodec::EncodeRecord(one, Compression::kNone))
                .packed_columns,
            0u);
  // MakeBatch's values span a few bits per column, or none where every
  // txn repeats them (proc_id, n_ints, the last two ints).
  const Block many = BlockBuilder("secret").Seal(MakeBatch(1, 1, 40), 0);
  const SectionStats stats =
      StatsOf(BlockCodec::EncodeRecord(many, Compression::kNone));
  EXPECT_EQ(stats.columns, 8u);
  EXPECT_EQ(stats.packed_columns, 8u);
}

/// Three txns of one client: proc_id packed from base 5 at width 2 (5, 6,
/// 8 as offsets 0, 1, 3: `proc_bits`), the other fixed columns varint, one
/// int each, packed from INT64_MIN at `int_width` (offsets 0, 2^64 - 1, 1).
std::string PackedSection(uint8_t proc_width, uint8_t proc_bits,
                          uint8_t int_modes, uint8_t int_width) {
  std::string s(1, '\x01');  // proc_id packed, the rest varint
  codec::AppendVarint(&s, 5);
  codec::AppendU8(&s, proc_width);
  codec::AppendU8(&s, proc_bits);
  for (uint64_t v : {1, 1, 1, 2, 2, 2, 1, 1, 1}) {
    codec::AppendVarint(&s, v);  // client, seq deltas, n_ints
  }
  codec::AppendU8(&s, int_modes);
  codec::AppendVarint(&s, codec::ZigzagEncode(INT64_MIN));
  codec::AppendU8(&s, int_width);
  for (uint64_t v : {uint64_t{0}, UINT64_MAX, uint64_t{1}}) {
    codec::AppendU64(&s, v);
  }
  for (int i = 0; i < 3; i++) codec::AppendVarint(&s, 0);  // blob lengths
  return s;
}

TEST(BlockCodecV9, HandBuiltPackedSectionDecodes) {
  Block d;
  ASSERT_OK(BlockCodec::Decode(RawRecord(3, PackedSection(2, 0x34, 1, 64)),
                               &d));
  ASSERT_EQ(d.batch.txns.size(), 3u);
  const std::vector<uint32_t> procs = {5, 6, 8};
  const std::vector<int64_t> ints = {INT64_MIN, INT64_MAX, INT64_MIN + 1};
  for (size_t i = 0; i < 3; i++) {
    EXPECT_EQ(d.batch.txns[i].proc_id, procs[i]);
    EXPECT_EQ(d.batch.txns[i].client_seq, i + 1);
    EXPECT_EQ(d.batch.txns[i].args.ints, std::vector<int64_t>({ints[i]}));
  }
}

TEST(BlockCodecV9, HostilePackedColumnsAreCorruption) {
  Block d;
  const auto bad = [&](const std::string& section) {
    return BlockCodec::Decode(RawRecord(3, section), &d).IsCorruption();
  };
  EXPECT_TRUE(bad(PackedSection(65, 0x34, 1, 64)));   // width past 64
  EXPECT_TRUE(bad(PackedSection(2, 0x34, 1, 65)));
  EXPECT_TRUE(bad(PackedSection(2, 0xB4, 1, 64)));    // padding bit set
  EXPECT_TRUE(bad(PackedSection(2, 0x34, 3, 64)));    // bitmap padding set
  // Truncated anywhere, packed bits included.
  const std::string section = PackedSection(2, 0x34, 1, 64);
  for (size_t cut = 0; cut < section.size(); cut++) {
    EXPECT_TRUE(bad(section.substr(0, cut))) << cut;
  }
  // A proc_id column whose base plus offset passes u32.
  std::string base;
  codec::AppendVarint(&base, UINT32_MAX);
  EXPECT_TRUE(bad(std::string(section).replace(1, 1, base)));
}

// Packed columns of equal values take no bytes per entry, so a section
// cannot bound the txn or int count: the caps do, before anything is sized.
TEST(BlockCodecV9, CountsPastTheBlockLimitsFailBeforeAllocating) {
  // Every column packed at width 0 from base 0, n_ints (column 3) from
  // `n_ints`.
  const auto section = [](uint64_t n_ints) {
    std::string s(1, '\x1F');
    for (int c = 0; c < 5; c++) {
      codec::AppendVarint(&s, c == 3 ? n_ints : 0);
      codec::AppendU8(&s, 0);
      if (c == 3 && n_ints > 0) {
        // One position column per int, each packed at width 0.
        std::string modes((n_ints + 7) / 8, '\xFF');
        if (n_ints % 8 != 0) {
          modes.back() = static_cast<char>((1 << (n_ints % 8)) - 1);
        }
        s += modes;
        for (uint64_t p = 0; p < n_ints; p++) s += std::string(2, '\0');
      }
    }
    return s;
  };
  Block d;
  ASSERT_OK(BlockCodec::Decode(RawRecord(kMaxBlockTxns, section(0)), &d));
  EXPECT_EQ(d.batch.txns.size(), kMaxBlockTxns);
  ASSERT_OK(BlockCodec::Decode(RawRecord(8, section(3)), &d));
  EXPECT_EQ(d.batch.txns[7].args.ints, std::vector<int64_t>({0, 0, 0}));
  EXPECT_TRUE(BlockCodec::Decode(RawRecord(kMaxBlockTxns + 1, section(0)), &d)
                  .IsCorruption());
  EXPECT_TRUE(
      BlockCodec::Decode(RawRecord(UINT32_MAX, section(0)), &d).IsCorruption());
  // 257 ints per txn: a few txns decode, kMaxBlockTxns of them pass
  // kMaxBlockInts.
  ASSERT_OK(BlockCodec::Decode(RawRecord(4, section(257)), &d));
  EXPECT_EQ(d.batch.txns[3].args.ints.size(), 257u);
  EXPECT_TRUE(BlockCodec::Decode(RawRecord(kMaxBlockTxns, section(257)), &d)
                  .IsCorruption());
  // A block_size no record could hold is refused when the instance opens.
  TempDir dir("block-size-cap");
  HarmonyBC::Options o;
  o.dir = dir.path();
  o.in_memory = true;
  o.block_size = kMaxBlockTxns + 1;
  auto db = HarmonyBC::Open(o);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsInvalidArgument()) << db.status().ToString();
}

/// A v10 record payload for block `id` (full header) whose raw section
/// opens with the reference columns, flagged with `reach`.
std::string RefRecord(BlockId id, uint64_t txn_count, uint64_t reach,
                      const std::string& section) {
  std::string p;
  codec::AppendVarint(&p, id);
  codec::AppendU8(&p, kRefsBit | static_cast<uint8_t>(Compression::kNone));
  codec::AppendVarint(&p, 1);  // first_tid
  codec::AppendVarint(&p, txn_count);
  codec::AppendVarint(&p, 1000);  // order_time_us
  p.append(2 * 32, '\0');         // prev_hash, signature
  codec::AppendVarint(&p, reach);
  codec::AppendVarint(&p, section.size());
  return p + section;
}

/// Reference columns for one-txn-per-reference sections: each pair is a
/// (distance, index) reference, in txn order.
std::string RefColumns(
    const std::vector<std::pair<uint64_t, uint64_t>>& refs) {
  std::string s;
  for (const auto& r : refs) codec::AppendVarint(&s, r.first);
  for (const auto& r : refs) codec::AppendVarint(&s, r.second);
  return s;
}

TEST(BlockCodecV8, HostileReferencesAreCorruption) {
  // Block 9 holds two txns. A reference decodes to exactly the canonical
  // txn it names, whatever in-process metadata the window's copy came with.
  Block prev;
  prev.header.block_id = 9;
  prev.batch.txns.resize(2);
  prev.batch.txns[0].client_seq = 77;
  prev.batch.txns[0].retries = 4;
  prev.batch.txns[1].client_seq = 78;
  prev.batch.txns[1].submit_time_us = 123;
  prev.batch.txns[1].retries = UINT32_MAX;
  RefWindow window;
  window.Push(prev);

  Block d;
  for (uint64_t index : {0, 1}) {
    SCOPED_TRACE(index);
    ASSERT_OK(BlockCodec::Decode(
        RefRecord(10, 1, 1, RefColumns({{1, index}})), &d, &window));
    ASSERT_EQ(d.batch.txns.size(), 1u);
    EXPECT_EQ(d.batch.txns[0].client_seq, 77 + index);
    EXPECT_EQ(d.batch.txns[0].submit_time_us, 0u);
    EXPECT_EQ(d.batch.txns[0].retries, 0u);
  }

  const auto bad = [&](BlockId id, uint64_t count, uint64_t reach,
                       const std::string& section, const RefWindow* w) {
    return BlockCodec::Decode(RefRecord(id, count, reach, section), &d, w)
        .IsCorruption();
  };
  const std::string one = RefColumns({{1, 0}});
  EXPECT_TRUE(bad(10, 1, 1, one, nullptr));          // no window at all
  EXPECT_TRUE(bad(10, 1, 0, one, &window));          // flag with reach 0
  EXPECT_TRUE(bad(10, 1, kMaxRefReach + 1, one, &window));
  EXPECT_TRUE(bad(10, 1, uint64_t{1} << 33, one, &window));
  EXPECT_TRUE(bad(10, 1, 2, one, &window));          // reach past the refs
  EXPECT_TRUE(bad(10, 1, 1, RefColumns({{2, 0}}), &window));  // past reach
  EXPECT_TRUE(bad(11, 1, 2, RefColumns({{2, 5}}), &window));  // no such txn
  EXPECT_TRUE(bad(11, 1, 1, one, &window));          // block 10 not held
  EXPECT_TRUE(bad(1, 1, 1, one, &window));           // before block 1
  EXPECT_TRUE(bad(10, 1, 1, RefColumns({{1, uint64_t{1} << 40}}), &window));
  // A distance column shorter than the txn count, a missing index, and a
  // byte past the last column.
  EXPECT_TRUE(bad(10, 2, 1, one, &window));
  std::string no_index;
  codec::AppendVarint(&no_index, 1);
  EXPECT_TRUE(bad(10, 1, 1, no_index, &window));
  EXPECT_TRUE(bad(10, 1, 1, one + '\0', &window));
  // Every reference resolved, none stored in full: the literal columns are
  // empty, and a txn count of zero cannot carry a reach.
  EXPECT_TRUE(bad(10, 0, 1, "", &window));
}

// ------------------------------------------------------- derived headers --

/// Block `prev.block_id + 1` chained onto `prev` (prev_hash = its
/// block_hash), with the given first_tid and order time.
Block NextBlock(const Block& prev, TxnId first_tid, uint64_t order_time_us,
                size_t n = 3) {
  BlockBuilder builder("secret");
  builder.ResumeFrom(prev.header.block_hash);
  return builder.Seal(MakeBatch(prev.header.block_id + 1, first_tid, n),
                      order_time_us);
}

void ExpectSameHeader(const BlockHeader& got, const BlockHeader& want) {
  EXPECT_EQ(got.block_id, want.block_id);
  EXPECT_EQ(got.first_tid, want.first_tid);
  EXPECT_EQ(got.txn_count, want.txn_count);
  EXPECT_EQ(got.order_time_us, want.order_time_us);
  EXPECT_EQ(got.prev_hash, want.prev_hash);
  EXPECT_EQ(got.txn_root, want.txn_root);
  EXPECT_EQ(got.block_hash, want.block_hash);
  EXPECT_EQ(got.signature, want.signature);
}

// A record whose predecessor the encoder holds derives its header from it:
// no prev_hash, first_tid and the order time as zigzag deltas. Every header
// field comes back exactly — a first_tid that follows (one byte), one after
// a gap or behind, an order time that goes backwards or wraps — under both
// codecs, and the derived record is smaller than the full one: by at least
// the 32-byte prev_hash when the block follows on.
TEST(BlockCodecV8, DerivedHeadersRoundTrip) {
  BlockBuilder builder("secret");
  const Block prev = builder.Seal(MakeBatch(5, 100, 3), 50'000);
  RefWindow window;
  window.Push(prev);
  const struct {
    TxnId first_tid;
    uint64_t order_time_us;
  } kCases[] = {{103, 50'900},  {110, 51'000}, {90, 50'900},
                {103, 10},      {103, 50'000}, {1, UINT64_MAX},
                {UINT64_MAX, 0}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(::testing::Message() << c.first_tid << " " << c.order_time_us);
    const Block b = NextBlock(prev, c.first_tid, c.order_time_us);
    for (Compression codec : {Compression::kNone, Compression::kHlz}) {
      const std::string derived = BlockCodec::EncodeRecord(b, codec, &window);
      const std::string full = BlockCodec::EncodeRecord(b, codec);
      RecordShape shape;
      ASSERT_TRUE(BlockCodec::Peek(derived, &shape));
      EXPECT_TRUE(shape.derived);
      EXPECT_EQ(shape.ref_reach, 0u);
      EXPECT_EQ(shape.reach(), 1u);
      EXPECT_EQ(shape.txn_count, 3u);
      ASSERT_TRUE(BlockCodec::Peek(full, &shape));
      EXPECT_FALSE(shape.derived);
      EXPECT_EQ(shape.reach(), 0u);
      EXPECT_LT(derived.size(), full.size());
      Block d;
      ASSERT_OK(BlockCodec::Decode(derived, &d, &window));
      ExpectSameHeader(d.header, b.header);
      ExpectSameTxns(d.batch, b.batch);
      EXPECT_EQ(d.batch.first_tid, b.header.first_tid);
      ChainVerifier v("secret");
      v.Reset(prev.header.block_hash);
      EXPECT_OK(v.Verify(d));
    }
  }
  // A first_tid that follows costs one byte, as does a zero time delta.
  const Block follows = NextBlock(prev, 103, 50'000);
  const std::string rec = BlockCodec::EncodeRecord(follows, Compression::kNone,
                                                   &window);
  const size_t flags_at = FlagsOffset(follows.header.block_id);
  EXPECT_EQ(static_cast<uint8_t>(rec[flags_at + 1]), 0u);
  EXPECT_EQ(static_cast<uint8_t>(rec[flags_at + 3]), 0u);
  EXPECT_LE(rec.size() + 32,
            BlockCodec::EncodeRecord(follows, Compression::kNone).size());
}

// The encoder derives a header only from a predecessor it holds with a
// computed hash equal to the block's prev_hash; otherwise the record keeps
// the full header and decodes alone.
TEST(BlockCodecV8, FullHeaderWithoutAUsablePredecessor) {
  BlockBuilder builder("secret");
  const Block b4 = builder.Seal(MakeBatch(4, 90, 2), 1'000);
  const Block prev = builder.Seal(MakeBatch(5, 92, 3), 2'000);
  const Block b = NextBlock(prev, 95, 3'000);
  // Its predecessor is not in the window: no window, one ending at block 4,
  // one holding only a later block.
  RefWindow only_b4;
  only_b4.Push(b4);
  RefWindow later;
  later.Push(NextBlock(b, 98, 4'000));
  // The predecessor held, but not usable: a hash that never was computed,
  // or a prev_hash that names another block.
  RefWindow hashless;
  {
    Block unhashed = prev;
    unhashed.header.block_hash = Digest{};
    hashless.Push(unhashed);
  }
  RefWindow holds_prev;
  holds_prev.Push(prev);
  Block forked = b;
  forked.header.prev_hash = b4.header.block_hash;
  forked.header.block_hash = BlockCodec::HashHeader(forked.header);
  for (const auto& [block, w] :
       std::vector<std::pair<const Block*, const RefWindow*>>{
           {&b, nullptr},
           {&b, &only_b4},
           {&b, &later},
           {&b, &hashless},
           {&forked, &holds_prev}}) {
    const std::string rec =
        BlockCodec::EncodeRecord(*block, Compression::kHlz, w);
    RecordShape shape;
    ASSERT_TRUE(BlockCodec::Peek(rec, &shape));
    EXPECT_FALSE(shape.derived);
    EXPECT_EQ(shape.reach(), 0u);
    Block d;
    ASSERT_OK(BlockCodec::Decode(rec, &d));
    ExpectSameHeader(d.header, block->header);
  }
}

// A derived header that cannot be resolved is Corruption: no window, a
// window without the predecessor, and block 1 (it has none).
TEST(BlockCodecV8, UnresolvableDerivedHeadersAreCorruption) {
  BlockBuilder builder("secret");
  const Block prev = builder.Seal(MakeBatch(5, 100, 3), 50'000);
  const Block b = NextBlock(prev, 103, 51'000);
  RefWindow window;
  window.Push(prev);
  const std::string rec = BlockCodec::EncodeRecord(b, Compression::kNone,
                                                   &window);
  Block d;
  ASSERT_OK(BlockCodec::Decode(rec, &d, &window));
  EXPECT_TRUE(BlockCodec::Decode(rec, &d).IsCorruption());
  RefWindow empty;
  EXPECT_TRUE(BlockCodec::Decode(rec, &d, &empty).IsCorruption());
  RefWindow gap;  // holds block 4, not 5
  gap.Push(builder.Seal(MakeBatch(4, 90, 2), 0));
  EXPECT_TRUE(BlockCodec::Decode(rec, &d, &gap).IsCorruption());
  RefWindow ahead;  // holds blocks 6.. only
  ahead.Push(b);
  EXPECT_TRUE(BlockCodec::Decode(rec, &d, &ahead).IsCorruption());

  // The derived flag on block 1, which has no predecessor to derive from.
  const Block one = BlockBuilder("secret").Seal(MakeBatch(1, 1, 2), 0);
  std::string first = BlockCodec::EncodeRecord(one, Compression::kNone);
  first[FlagsOffset(one.header.block_id)] =
      static_cast<char>(first[FlagsOffset(one.header.block_id)] | kDerivedBit);
  RefWindow holds_one;
  holds_one.Push(one);
  EXPECT_TRUE(BlockCodec::Decode(first, &d, &holds_one).IsCorruption());
  // Truncated derived headers, at every byte before the section.
  for (size_t cut = 0; cut < StoredSectionOffset(rec); cut++) {
    EXPECT_TRUE(
        BlockCodec::Decode(rec.substr(0, cut), &d, &window).IsCorruption())
        << cut;
  }
}

// --------------------------------------------------------- file helpers --

void AppendRecord(std::string* file, const std::string& payload) {
  codec::AppendU32(file, static_cast<uint32_t>(payload.size()));
  file->append(payload);
  codec::AppendU32(file, Crc32(payload));
}

void WriteFile(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

/// Block `id`: the first `retried` txns of `prev` sealed again after a CC
/// abort (retries one higher), then `fresh` new txns.
TxnBatch RetryBatch(const TxnBatch& prev, BlockId id, TxnId first_tid,
                    size_t retried, size_t fresh) {
  TxnBatch b = MakeBatch(id, first_tid, fresh);
  for (size_t i = 0; i < retried; i++) {
    TxnRequest t = prev.txns[i];
    t.retries++;
    b.txns.insert(b.txns.begin() + static_cast<ptrdiff_t>(i), std::move(t));
  }
  return b;
}

/// The literal columns of v5-v9 (and the whole section without
/// references): one varint column per field over `txns`, client_seq as
/// zigzag per-client deltas, submit times back from `order_time_us`, a fee
/// column (0: today's txns carry no fee), then v5-v8's args.ints zigzag txn
/// by txn, the blob lengths and bytes. v9 (`v9`) opens with the fixed
/// columns' mode byte and stores args.ints as a mode bitmap and one column
/// per position; every column here is in varint mode.
std::string VarintColumns(const std::vector<const TxnRequest*>& txns,
                          uint64_t order_time_us, bool v9 = false) {
  std::string s(v9 ? 1 : 0, '\0');
  const auto zigzag = [&s](uint64_t v) {
    codec::AppendVarint(&s, codec::ZigzagEncode(static_cast<int64_t>(v)));
  };
  for (const TxnRequest* t : txns) codec::AppendVarint(&s, t->proc_id);
  for (const TxnRequest* t : txns) codec::AppendVarint(&s, t->client_id);
  std::map<uint64_t, uint64_t> last_seq;
  for (const TxnRequest* t : txns) {
    zigzag(t->client_seq - last_seq[t->client_id]);
    last_seq[t->client_id] = t->client_seq;
  }
  for (const TxnRequest* t : txns) zigzag(order_time_us - t->submit_time_us);
  for (const TxnRequest* t : txns) codec::AppendVarint(&s, t->retries);
  for (size_t i = 0; i < txns.size(); i++) codec::AppendVarint(&s, 0);
  size_t positions = 0;
  for (const TxnRequest* t : txns) {
    codec::AppendVarint(&s, t->args.ints.size());
    positions = std::max(positions, t->args.ints.size());
  }
  if (v9) {
    s.append((positions + 7) / 8, '\0');
    for (size_t p = 0; p < positions; p++) {
      for (const TxnRequest* t : txns) {
        if (p < t->args.ints.size()) {
          zigzag(static_cast<uint64_t>(t->args.ints[p]));
        }
      }
    }
  } else {
    for (const TxnRequest* t : txns) {
      for (int64_t v : t->args.ints) zigzag(static_cast<uint64_t>(v));
    }
  }
  for (const TxnRequest* t : txns) {
    codec::AppendVarint(&s, t->args.blob.size());
  }
  for (const TxnRequest* t : txns) s += t->args.blob;
  return s;
}

/// A record payload in a retired layout, as the build that wrote `version`
/// (1-9) laid it out. v1-v4 are fixed-width: u64/u32 header fields, the
/// four digests, then the txns (v1 without client_id and fee, v2 without
/// fee); v4 puts the v3 txns under a compression envelope (u8 codec + pad
/// byte, u32 raw_len, u32 stored_len + stored bytes). v3 txns are the
/// v4-v9 canonical txn: today's EncodeTxn fields plus submit_time_us,
/// retries and fee after client_seq. v5-v9 store today's reference columns
/// followed by VarintColumns, under HLZ unless that does not shrink it. v8
/// and v9 are today's record around that section, deriving their header
/// from and storing retries of `refs`' txns by reference. v7 has the flags byte
/// (codec and reference bits; v7 had no derived header) after the
/// signature instead of after block_id and the full header; v6 is a v7
/// record without references, and v5 that record with txn_root and
/// block_hash stored between prev_hash and the signature.
std::string LegacyRecord(const Block& b, uint32_t version,
                         const RefWindow* refs = nullptr) {
  const BlockHeader& h = b.header;
  std::string out;
  if (version >= 5) {
    const std::string today = BlockCodec::EncodeRecord(
        b, Compression::kNone, version >= 7 ? refs : nullptr);
    RecordShape shape;
    EXPECT_TRUE(BlockCodec::Peek(today, &shape));
    // Keep the reference columns; re-store the literal txns as varints.
    const std::string_view stored = std::string_view(today).substr(
        shape.section_offset);
    codec::Reader r(stored);
    std::vector<const TxnRequest*> literals;
    size_t n_refs = 0;
    for (const TxnRequest& t : b.batch.txns) {
      uint64_t distance = 0;
      if (shape.ref_reach > 0) EXPECT_TRUE(r.ReadVarint(&distance));
      if (distance == 0) literals.push_back(&t);
      if (distance != 0) n_refs++;
    }
    for (size_t i = 0; i < n_refs; i++) {
      uint64_t index = 0;
      EXPECT_TRUE(r.ReadVarint(&index));
    }
    const std::string section =
        std::string(stored.substr(0, stored.size() - r.remaining())) +
        (literals.empty() ? ""
                          : VarintColumns(literals, h.order_time_us,
                                          /*v9=*/version == 9));
    std::string compressed;
    CompressPayload(Compression::kHlz, section, &compressed);
    const bool hlz = compressed.size() < section.size();
    const uint8_t codec_bits = static_cast<uint8_t>(
        hlz ? Compression::kHlz : Compression::kNone);
    const uint8_t flags =
        static_cast<uint8_t>(today[FlagsOffset(h.block_id)]) | codec_bits;
    if (version >= 8) {
      out = today.substr(0, shape.section_offset -
                                codec::VarintSize(shape.raw_len));
      out[FlagsOffset(h.block_id)] = static_cast<char>(flags);
    } else {
      for (uint64_t v : {h.block_id, h.first_tid, uint64_t{h.txn_count},
                         h.order_time_us}) {
        codec::AppendVarint(&out, v);
      }
      std::vector<const Digest*> digests = {&h.prev_hash};
      if (version == 5) {
        digests.insert(digests.end(), {&h.txn_root, &h.block_hash});
      }
      digests.push_back(&h.signature);
      for (const Digest* d : digests) {
        out.append(reinterpret_cast<const char*>(d->data()), d->size());
      }
      out += static_cast<char>(flags & ~kDerivedBit);
      if (shape.ref_reach > 0) codec::AppendVarint(&out, shape.ref_reach);
    }
    codec::AppendVarint(&out, section.size());
    return out + (hlz ? compressed : section);
  }
  codec::AppendU64(&out, h.block_id);
  codec::AppendU64(&out, h.first_tid);
  codec::AppendU32(&out, h.txn_count);
  codec::AppendU64(&out, h.order_time_us);
  for (const Digest* d : {&h.prev_hash, &h.txn_root, &h.block_hash,
                          &h.signature}) {
    out.append(reinterpret_cast<const char*>(d->data()), d->size());
  }
  std::string section;
  for (const TxnRequest& t : b.batch.txns) {
    codec::AppendU32(&section, t.proc_id);
    if (version >= 2) codec::AppendU64(&section, t.client_id);
    codec::AppendU64(&section, t.client_seq);
    codec::AppendU64(&section, t.submit_time_us);
    codec::AppendU32(&section, t.retries);
    if (version >= 3) codec::AppendU64(&section, 0);  // fee
    codec::AppendU32(&section, static_cast<uint32_t>(t.args.ints.size()));
    for (int64_t v : t.args.ints) codec::AppendI64(&section, v);
    codec::AppendBytes(&section, t.args.blob);
  }
  if (version < 4) return out + section;
  codec::AppendU16(&out, static_cast<uint16_t>(Compression::kNone));
  codec::AppendU32(&out, static_cast<uint32_t>(section.size()));
  codec::AppendBytes(&out, section);
  return out;
}

/// A log file as the build that wrote `version` left it: v1 files have no
/// header at all, v2+ start with "HBCL" + version. Blocks 2.. retry two of
/// their predecessor's txns, which v7 and later store by reference; records
/// before v10 use LegacyRecord, v10 (and a made-up future version) today's
/// encoder. v8 and later also derive their headers.
std::string LogFile(uint32_t version, size_t n) {
  std::string file;
  if (version >= 2) {
    codec::AppendU32(&file, 0x4C434248u);  // "HBCL"
    codec::AppendU32(&file, version);
  }
  BlockBuilder builder("secret");
  RefWindow window;
  Block prev;
  for (BlockId i = 1; i <= n; i++) {
    const TxnId tid = 1 + (i - 1) * 4;
    Block b = builder.Seal(
        i == 1 ? MakeBatch(i, tid, 4) : RetryBatch(prev.batch, i, tid, 2, 2),
        0);
    AppendRecord(&file,
                 version < kLogVersion
                     ? LegacyRecord(b, version, &window)
                     : BlockCodec::EncodeRecord(b, Compression::kHlz, &window));
    window.Push(b);
    prev = std::move(b);
  }
  return file;
}

// v10 stores neither txn_root nor block_hash, derives a record's header —
// prev_hash, first_tid and the order time — from its predecessor's, stores
// a retry as a reference to an earlier block's txn, and bit-packs the
// columns where that is smaller, so every stored byte — the flags, the
// derived header's deltas, the reach, the reference columns and the packed
// columns' bases, widths and bits included — must still be covered by
// something a reader checks. Flip every bit of every byte of a stored
// record that derives its header from its predecessor, references it and
// packs columns (with the record CRC re-stamped, so the flip gets past the
// log's framing): each flip must fail Decode against the predecessor's
// window, or decode to a block the chain verifier rejects — by the
// whole-chain audit too.
TEST(BlockCodecV8, EveryByteOfAStoredRecordIsCovered) {
  TempDir dir("v8-flip");
  const std::string path = dir.path() + "/chain.log";
  BlockBuilder builder("secret");
  const Block b1 = builder.Seal(MakeBatch(1, 1, 6), 5'000);
  const Block b2 = builder.Seal(RetryBatch(b1.batch, 2, 7, 3, 8), 9'000);
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    ASSERT_OK(store.Append(b1));
    ASSERT_OK(store.Append(b2));
  }
  std::vector<std::pair<BlockId, std::string>> records;
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    ASSERT_OK(store.ReadRecordsAfter(1, 1, &records));
  }
  ASSERT_EQ(records.size(), 1u);
  const std::string stored = records[0].second;
  BlockId id = 0;
  uint32_t reach = 0;
  ASSERT_TRUE(BlockCodec::Peek(stored, &id, &reach));
  EXPECT_EQ(id, 2u);
  ASSERT_EQ(reach, 1u);  // the header and three retries point one block back
  const uint8_t flags =
      static_cast<uint8_t>(stored[FlagsOffset(b2.header.block_id)]);
  ASSERT_NE(flags & kRefsBit, 0);
  ASSERT_NE(flags & kDerivedBit, 0);
  RefWindow window;
  window.Push(b1);
  // The fresh txns' repeated procedure, int count and ints are packed.
  EXPECT_GE(StatsOf(stored, &window).packed_columns, 3u);
  Block intact;
  ASSERT_OK(BlockCodec::Decode(stored, &intact, &window));
  ExpectSameTxns(intact.batch, b2.batch);
  EXPECT_EQ(intact.header.prev_hash, b1.header.block_hash);
  ChainVerifier v("secret");
  v.Reset(b1.header.block_hash);
  ASSERT_OK(v.Verify(intact));
  // Without its predecessor the record does not decode at all.
  Block alone;
  EXPECT_TRUE(BlockCodec::Decode(stored, &alone).IsCorruption());

  size_t decode_rejects = 0, verify_rejects = 0;
  for (size_t i = 0; i < stored.size(); i++) {
    for (int bit = 0; bit < 8; bit++) {
      SCOPED_TRACE(::testing::Message() << "byte " << i << " bit " << bit);
      std::string bad = stored;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      Block d;
      if (!BlockCodec::Decode(bad, &d, &window).ok()) {
        decode_rejects++;
        continue;
      }
      ChainVerifier fresh("secret");
      fresh.Reset(b1.header.block_hash);
      EXPECT_TRUE(fresh.Verify(d).IsCorruption());
      verify_rejects++;
      if (bit != 0) continue;
      // Once per byte, the same flip through the log: re-stamp the CRC and
      // reopen. The record decodes, so Open keeps it, and the whole-chain
      // audit must fail.
      std::string file = ReadFileBytes(path);
      const size_t at = file.size() - 4 - bad.size();
      file.replace(at, bad.size(), bad);
      const uint32_t crc = Crc32(bad);
      std::memcpy(file.data() + file.size() - 4, &crc, 4);
      const std::string flipped = dir.path() + "/flipped.log";
      WriteFile(flipped, file);
      BlockStore store(flipped);
      ASSERT_OK(store.Open());
      ASSERT_EQ(store.num_blocks(), 2u);
      std::vector<Block> chain;
      ASSERT_OK(store.ReadAll(&chain));
      EXPECT_TRUE(ChainVerifier::VerifyChain(chain, "secret").IsCorruption());
    }
  }
  EXPECT_EQ(decode_rejects + verify_rejects, 8 * stored.size());
  // Both layers take part: header and digest flips parse and fail the
  // signature or the chain, envelope and section flips mostly fail parsing.
  EXPECT_GT(decode_rejects, 0u);
  EXPECT_GT(verify_rejects, 0u);
}

// ------------------------------------------------------ retired versions --

TEST(BlockStoreOldVersions, V1HeaderlessLogIsNotSupported) {
  TempDir dir("old-v1");
  const std::string path = dir.path() + "/chain.log";
  const std::string file = LogFile(1, 3);
  WriteFile(path, file);
  BlockStore store(path);
  const Status s = store.Open();
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
  EXPECT_NE(s.message().find("headerless v1"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(ReadFileBytes(path), file);  // refused, never rewritten
}

TEST(BlockStoreOldVersions, GarbageWithoutHeaderIsNotSupported) {
  TempDir dir("old-garbage");
  const std::string path = dir.path() + "/chain.log";
  WriteFile(path, RandomBytes(4096, 5));
  BlockStore store(path);
  EXPECT_TRUE(store.Open().IsNotSupported());
}

TEST(BlockStoreOldVersions, OtherVersionsAreNotSupportedAndUntouched) {
  TempDir dir("old-versions");
  for (uint32_t v : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 11u}) {
    SCOPED_TRACE(v);
    const std::string path = dir.path() + "/chain" + std::to_string(v);
    const std::string file = LogFile(v, 2);
    if (v == 7) {
      // A genuine v7 log: its second record stores retries by reference,
      // flagged in the envelope byte after the four header varints and the
      // two digests.
      uint32_t len1 = 0;
      std::memcpy(&len1, file.data() + 8, 4);
      codec::Reader r(std::string_view(file).substr(8 + 8 + len1 + 4));
      uint64_t field = 0;
      for (int i = 0; i < 4; i++) ASSERT_TRUE(r.ReadVarint(&field));
      std::string digests(64, '\0');
      ASSERT_TRUE(r.ReadFixed(digests.data(), digests.size()));
      uint8_t envelope = 0;
      ASSERT_TRUE(r.ReadU8(&envelope));
      EXPECT_EQ(envelope, kRefsBit | static_cast<uint8_t>(Compression::kHlz));
    }
    if (v == 8 || v == 9) {
      // A genuine v8 or v9 log: its second record derives its header,
      // stores retries by reference, and holds the section its version
      // wrote (with the submit time, retry and fee columns).
      uint32_t len1 = 0, len2 = 0;
      std::memcpy(&len1, file.data() + 8, 4);
      std::memcpy(&len2, file.data() + 8 + 8 + len1, 4);
      const std::string second = file.substr(8 + 8 + len1 + 4, len2);
      const uint8_t flags = static_cast<uint8_t>(second[FlagsOffset(2)]);
      EXPECT_EQ(flags, kDerivedBit | kRefsBit |
                           static_cast<uint8_t>(Compression::kHlz));
      EXPECT_NE(file.substr(8), LogFile(kLogVersion, 2).substr(8));
    }
    WriteFile(path, file);
    BlockStore store(path);
    const Status s = store.Open();
    EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
    EXPECT_NE(s.message().find("format v" + std::to_string(v)),
              std::string::npos)
        << s.ToString();
    EXPECT_EQ(ReadFileBytes(path), file);
  }
}

TEST(BlockStoreOldVersions, EveryPrefixOfV4AndV5LogIsFreshOrRefused) {
  // An old log cut at any byte: below the 8-byte header it is a torn fresh
  // log (restamped v10, empty); from the header on it is refused whole,
  // also a v6-v9 log, whose records differ from v10's only in where the
  // flags byte sits and in the layout of their literal columns.
  TempDir dir("old-prefix");
  const std::string path = dir.path() + "/chain.log";
  for (uint32_t version : {4u, 5u, 6u, 7u, 8u, 9u}) {
    const std::string full = LogFile(version, 2);
    for (size_t cut = 0; cut <= full.size(); cut++) {
      SCOPED_TRACE(::testing::Message() << "v" << version << " cut " << cut);
      WriteFile(path, full.substr(0, cut));
      BlockStore store(path);
      const Status s = store.Open();
      if (cut < 8) {
        ASSERT_OK(s);
        EXPECT_EQ(store.num_blocks(), 0u);
      } else {
        EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
        EXPECT_EQ(ReadFileBytes(path), full.substr(0, cut));
      }
    }
  }
}

// Opens every byte-prefix of a v10 log: every prefix opens (a cut inside the
// 8-byte header is a fresh log) and exposes a (block-wise) prefix of the
// original chain with a consistent count.
void TruncationSweep(const std::string& dir, const std::string& full,
                     const std::vector<Digest>& hashes) {
  for (size_t cut = 0; cut <= full.size(); cut++) {
    const std::string path = dir + "/trunc.log";
    WriteFile(path, full.substr(0, cut));
    BlockStore store(path);
    SCOPED_TRACE(cut);
    ASSERT_OK(store.Open());
    std::vector<Block> all;
    ASSERT_OK(store.ReadAll(&all));
    ASSERT_LE(all.size(), hashes.size());
    EXPECT_EQ(store.num_blocks(), all.size());
    Block last;
    if (!all.empty()) {
      ASSERT_OK(store.ReadLast(&last));
      EXPECT_EQ(last.header.block_hash, all.back().header.block_hash);
    }
    for (size_t i = 0; i < all.size(); i++) {
      EXPECT_EQ(all[i].header.block_hash, hashes[i]) << "cut " << cut;
    }
  }
}

TEST(BlockStoreTruncation, EveryByteOffsetOfV6Log) {
  TempDir dir("trunc-v6");
  const std::string path = dir.path() + "/chain.log";
  BlockBuilder builder("secret");
  std::vector<Digest> hashes;
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    TxnId tid = 1;
    for (BlockId i = 1; i <= 3; i++) {
      Block b = builder.Seal(MakeBatch(i, tid, 8), 0);
      tid += 8;
      hashes.push_back(b.header.block_hash);
      ASSERT_OK(store.Append(b));
    }
  }
  TruncationSweep(dir.path(), ReadFileBytes(path), hashes);
}

TEST(BlockStoreV6, CorruptCompressedPayloadTruncatesWithoutCrash) {
  TempDir dir("corrupt6");
  const std::string path = dir.path() + "/chain.log";
  BlockBuilder builder("secret");
  size_t good_blocks = 3;
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    TxnId tid = 1;
    for (BlockId i = 1; i <= good_blocks + 1; i++) {
      ASSERT_OK(store.Append(builder.Seal(MakeBatch(i, tid, 16), 0)));
      tid += 16;
    }
    // Every record stores its section under HLZ.
    std::vector<std::pair<BlockId, std::string>> records;
    ASSERT_OK(store.ReadRecordsAfter(0, SIZE_MAX, &records));
    ASSERT_EQ(records.size(), good_blocks + 1);
    RefWindow window;
    for (const auto& [id, record] : records) {
      Block d;
      ASSERT_OK(BlockCodec::Decode(record, &d, &window));
      window.Push(d);
      ASSERT_EQ(static_cast<uint8_t>(record[FlagsOffset(d.header.block_id)]) &
                    kCodecBits,
                static_cast<uint8_t>(Compression::kHlz));
    }
  }
  // Corrupt the *last* record's compressed section deterministically (all
  // 0xFF is an invalid HLZ stream) and re-stamp the record CRC so the
  // corruption reaches the decompressor, not the CRC check.
  {
    int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    off_t off = 8;
    uint32_t len = 0;
    off_t last_off = -1;
    uint32_t last_len = 0;
    while (::pread(fd, &len, 4, off) == 4) {
      std::string payload(len, '\0');
      if (::pread(fd, payload.data(), len, off + 4) !=
          static_cast<ssize_t>(len)) {
        break;
      }
      last_off = off;
      last_len = len;
      off += 8 + len;
    }
    ASSERT_GT(last_off, 0);
    std::string payload(last_len, '\0');
    ASSERT_EQ(::pread(fd, payload.data(), last_len, last_off + 4),
              static_cast<ssize_t>(last_len));
    RecordShape shape;
    ASSERT_TRUE(BlockCodec::Peek(payload, &shape));
    ASSERT_EQ(shape.block_id, good_blocks + 1);
    ASSERT_EQ(static_cast<uint8_t>(payload[FlagsOffset(shape.block_id)]) &
                  kCodecBits,
              1u);  // Compression::kHlz
    for (size_t i = shape.section_offset; i < payload.size(); i++) {
      payload[i] = static_cast<char>(0xFF);
    }
    const uint32_t crc = Crc32(payload);
    ASSERT_EQ(::pwrite(fd, payload.data(), last_len, last_off + 4),
              static_cast<ssize_t>(last_len));
    ASSERT_EQ(::pwrite(fd, &crc, 4, last_off + 4 + last_len), 4);
    ::close(fd);
  }
  // Open() treats the undecodable record as a torn tail: truncated, no
  // crash, and the intact prefix reads back fine.
  BlockStore store(path);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), good_blocks);
  std::vector<Block> all;
  ASSERT_OK(store.ReadAll(&all));
  EXPECT_EQ(all.size(), good_blocks);
}

// ------------------------------------------ end-to-end v10 / old chains --

Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
  return Status::OK();
}

HarmonyBC::Options DbOpts(const std::string& dir) {
  HarmonyBC::Options o;
  o.dir = dir;
  o.disk = DiskModel::RamDisk();
  o.block_size = 8;
  o.threads = 4;
  o.checkpoint_every = 1000;  // keep every block in the replay window
  o.max_block_delay_us = 2'000;
  return o;
}

std::unique_ptr<HarmonyBC> OpenDb(const std::string& dir) {
  auto db = HarmonyBC::Open(DbOpts(dir));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  (*db)->RegisterProcedure(2, "increment", Increment);
  for (Key k = 0; k < 16; k++) {
    EXPECT_OK((*db)->Load(k, Value({0})));
  }
  EXPECT_TRUE((*db)->Recover().ok());
  return std::move(*db);
}

void SubmitRange(HarmonyBC* db, uint64_t client, uint64_t seq0, size_t n) {
  auto session = db->OpenSession(client);
  for (size_t i = 0; i < n; i++) {
    TxnRequest t;
    t.proc_id = 2;
    t.client_seq = seq0 + i;
    t.args.ints = {static_cast<int64_t>(i % 16), 1};
    session->Submit(std::move(t));
  }
  ASSERT_OK(db->Sync());
}

TEST(OldVersionChain, V6ChainReplaysAndV5StampIsRefused) {
  TempDir a("v6-replay"), b("v6-control");
  Digest da;
  {
    auto db = OpenDb(a.path());
    SubmitRange(db.get(), 1, 1, 40);
    SubmitRange(db.get(), 2, 1, 40);
    auto d = db->StateDigest();
    ASSERT_TRUE(d.ok());
    da = *d;
  }
  // The checkpoint predates most blocks; drop it so recovery replays the
  // whole v10 log from genesis.
  std::remove((a.path() + "/replica.ckpt").c_str());
  {
    auto db = OpenDb(a.path());
    auto d = db->StateDigest();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, da);
    ASSERT_OK(db->AuditChain());
  }
  // Control: the same workload on a second instance reaches the same
  // state.
  {
    auto db = OpenDb(b.path());
    SubmitRange(db.get(), 1, 1, 40);
    SubmitRange(db.get(), 2, 1, 40);
    auto d = db->StateDigest();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, da);
  }
  // The same directory with its log stamped v5 no longer opens: the
  // instance refuses with NotSupported and leaves the chain untouched.
  const std::string chain = a.path() + "/replica.chain";
  std::string bytes = ReadFileBytes(chain);
  ASSERT_GT(bytes.size(), 8u);
  const uint32_t v5 = 5;
  std::memcpy(bytes.data() + 4, &v5, 4);
  WriteFile(chain, bytes);
  auto db = HarmonyBC::Open(DbOpts(a.path()));
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsNotSupported()) << db.status().ToString();
  EXPECT_EQ(ReadFileBytes(chain), bytes);
}

}  // namespace
}  // namespace harmony

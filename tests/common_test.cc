#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/codec.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/spin_lock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status nf = Status::NotFound("x");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "NotFound: x");
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::IOError().IsIOError());
}

TEST(Result, ValueAndStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad(Status::InvalidArgument("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(Types, KeyEncoding) {
  const Key k = MakeKey(17, 0x123456789abcULL);
  EXPECT_EQ(KeyTable(k), 17);
  EXPECT_EQ(KeyRow(k), 0x123456789abcULL);
  EXPECT_NE(MakeKey(1, 5), MakeKey(2, 5));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool diff = false;
  Rng a2(42);
  for (int i = 0; i < 100; i++) {
    if (a2.Next() != c.Next()) diff = true;
  }
  EXPECT_TRUE(diff);
}

TEST(Rng, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
    const int64_t w = r.UniformRange(-5, 5);
    EXPECT_GE(w, -5);
    EXPECT_LE(w, 5);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipfian, SkewConcentratesMass) {
  Rng r(1);
  ZipfianGenerator hot(1000, 0.99);
  ZipfianGenerator uni(1000, 0.0);
  int hot_low = 0, uni_low = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    if (hot.Next(r) < 10) hot_low++;
    if (uni.Next(r) < 10) uni_low++;
  }
  // Under heavy skew the 1% hottest keys draw a large share of accesses.
  EXPECT_GT(hot_low, n / 4);
  EXPECT_LT(uni_low, n / 20);
}

TEST(Zipfian, InRange) {
  Rng r(3);
  ZipfianGenerator z(100, 0.8);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(z.Next(r), 100u);
  }
}

TEST(Sha256, Fips180Vectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data(100000, 'x');
  Sha256 h;
  for (size_t i = 0; i < data.size(); i += 977) {
    h.Update(data.substr(i, 977));
  }
  EXPECT_EQ(h.Finalize(), Sha256::Hash(data));
}

TEST(Hmac, Rfc4231Vector) {
  // RFC 4231 test case 2: key "Jefe", data "what do ya want for nothing?".
  const Digest d = HmacSha256("Jefe", "what do ya want for nothing?", 28);
  EXPECT_EQ(DigestToHex(d),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Crc32, KnownVector) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

/// The plain bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320): the
/// reference the table-driven Crc32 must agree with.
uint32_t BitwiseCrc32(const uint8_t* p, size_t len) {
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < len; i++) {
    c ^= p[i];
    for (int k = 0; k < 8; k++) c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

// Every length 0..1024 at every start alignment 0..7, so each split of a
// buffer into 8-byte steps and a byte tail is covered.
TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(31);
  std::vector<uint8_t> buf(1024 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; align++) {
    for (size_t len = 0; len <= 1024; len++) {
      ASSERT_EQ(Crc32(buf.data() + align, len),
                BitwiseCrc32(buf.data() + align, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Codec, RoundTrip) {
  std::string buf;
  codec::AppendU16(&buf, 7);
  codec::AppendU32(&buf, 123456);
  codec::AppendU64(&buf, 0xdeadbeefcafeULL);
  codec::AppendI64(&buf, -42);
  codec::AppendBytes(&buf, "hello");
  codec::Reader r(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  int64_t d;
  std::string e;
  ASSERT_TRUE(r.ReadU16(&a));
  ASSERT_TRUE(r.ReadU32(&b));
  ASSERT_TRUE(r.ReadU64(&c));
  ASSERT_TRUE(r.ReadI64(&d));
  ASSERT_TRUE(r.ReadBytes(&e));
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 123456u);
  EXPECT_EQ(c, 0xdeadbeefcafeULL);
  EXPECT_EQ(d, -42);
  EXPECT_EQ(e, "hello");
  EXPECT_EQ(r.remaining(), 0u);
  uint64_t overflow;
  EXPECT_FALSE(r.ReadU64(&overflow));
}

TEST(Codec, U8RoundTrip) {
  std::string buf;
  codec::AppendU8(&buf, 0);
  codec::AppendU8(&buf, 0xFF);
  ASSERT_EQ(buf.size(), 2u);
  codec::Reader r(buf);
  uint8_t a = 1, b = 0, c = 0;
  ASSERT_TRUE(r.ReadU8(&a));
  ASSERT_TRUE(r.ReadU8(&b));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 0xFF);
  EXPECT_FALSE(r.ReadU8(&c));
}

TEST(Codec, VarintBoundaryValues) {
  const struct {
    uint64_t v;
    size_t bytes;
  } cases[] = {{0, 1},          {127, 1},        {128, 2},
               {16383, 2},      {16384, 3},      {UINT32_MAX, 5},
               {1ULL << 63, 10}, {UINT64_MAX, 10}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.v);
    std::string buf;
    codec::AppendVarint(&buf, c.v);
    EXPECT_EQ(buf.size(), c.bytes);
    codec::Reader r(buf);
    uint64_t out = 0;
    ASSERT_TRUE(r.ReadVarint(&out));
    EXPECT_EQ(out, c.v);
    EXPECT_EQ(r.remaining(), 0u);
  }
  std::string buf;
  codec::AppendVarint(&buf, 128);
  EXPECT_EQ(buf, std::string("\x80\x01", 2));
}

TEST(Codec, ZigzagRoundTrip) {
  EXPECT_EQ(codec::ZigzagEncode(0), 0u);
  EXPECT_EQ(codec::ZigzagEncode(-1), 1u);
  EXPECT_EQ(codec::ZigzagEncode(1), 2u);
  EXPECT_EQ(codec::ZigzagEncode(INT64_MAX), UINT64_MAX - 1);
  EXPECT_EQ(codec::ZigzagEncode(INT64_MIN), UINT64_MAX);
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                    int64_t{63}, INT64_MIN, INT64_MAX, INT64_MIN + 1}) {
    SCOPED_TRACE(v);
    EXPECT_EQ(codec::ZigzagDecode(codec::ZigzagEncode(v)), v);
    std::string buf;
    codec::AppendVarint(&buf, codec::ZigzagEncode(v));
    codec::Reader r(buf);
    uint64_t raw = 0;
    ASSERT_TRUE(r.ReadVarint(&raw));
    EXPECT_EQ(codec::ZigzagDecode(raw), v);
  }
}

TEST(Codec, VarintRejectsOverlongAndOverflow) {
  uint64_t v = 0;
  // Overlong: the same value with a redundant trailing zero group.
  for (const std::string& bad :
       {std::string("\x80\x00", 2), std::string("\xFF\x00", 2),
        std::string("\x80\x80\x80\x00", 4)}) {
    codec::Reader r(bad);
    EXPECT_FALSE(r.ReadVarint(&v));
  }
  // Eleven bytes: longer than any 64-bit value needs.
  std::string eleven(10, '\x80');
  eleven.push_back('\x01');
  codec::Reader r11(eleven);
  EXPECT_FALSE(r11.ReadVarint(&v));
  // A 10th byte carrying bits past 2^64.
  std::string overflow(9, '\xFF');
  overflow.push_back('\x02');
  codec::Reader ro(overflow);
  EXPECT_FALSE(ro.ReadVarint(&v));
  // ...while UINT64_MAX itself (10th byte 0x01) is accepted.
  std::string max(9, '\xFF');
  max.push_back('\x01');
  codec::Reader rm(max);
  ASSERT_TRUE(rm.ReadVarint(&v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(Codec, VarintRejectsTruncation) {
  uint64_t v = 0;
  codec::Reader empty("");
  EXPECT_FALSE(empty.ReadVarint(&v));
  std::string full;
  codec::AppendVarint(&full, UINT64_MAX);
  for (size_t cut = 0; cut < full.size(); cut++) {
    const std::string prefix = full.substr(0, cut);
    codec::Reader r(prefix);
    EXPECT_FALSE(r.ReadVarint(&v)) << cut;
  }
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(10, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; i++) {
    pool.Submit([&] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 50);
}

TEST(SpinLock, MutualExclusion) {
  SpinLock mu;
  int counter = 0;
  ThreadPool pool(4);
  pool.ParallelFor(4000, [&](size_t) {
    std::lock_guard<SpinLock> lk(mu);
    counter++;
  });
  EXPECT_EQ(counter, 4000);
}

TEST(SpinLock, AtomicMinMax) {
  std::atomic<uint64_t> mn{100}, mx{0};
  ThreadPool pool(4);
  pool.ParallelFor(1000, [&](size_t i) {
    AtomicFetchMin(&mn, static_cast<uint64_t>(i));
    AtomicFetchMax(&mx, static_cast<uint64_t>(i));
  });
  EXPECT_EQ(mn.load(), 0u);
  EXPECT_EQ(mx.load(), 999u);
}

}  // namespace
}  // namespace harmony

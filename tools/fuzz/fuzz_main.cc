// Structure-aware fuzz harness (docs/TESTING.md).
//
// One binary, many targets: each target builds *valid* inputs with a seeded
// FuzzRng, runs them through the shared Mutator (tools and tests use the
// same one), and feeds the mutants to one decode surface. Validity-aware
// generation matters: blind byte noise dies at the outermost magic/CRC
// check, while mutating a well-formed input reaches the parsers behind it.
//
// Determinism is the contract. Every case derives all randomness from
// CaseSeed(run_seed, case_index); any failure prints
//
//   reproduce: fuzz_harness --target <t> --seed <S> --case <K>
//
// and that exact invocation replays the failing case — no corpus state or
// environment involved. The repro line is also emitted from fatal-signal
// handlers and the sanitizer death callback, so an ASan abort deep inside a
// decoder still tells you which case to replay.
//
//   fuzz_harness --list
//   fuzz_harness --target wire_reassembler --iters 100000 --seed 7
//   fuzz_harness --target log_open --seed 7 --case 4242
//   fuzz_harness --write-corpus tools/fuzz/corpus
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/block_store.h"
#include "common/codec.h"
#include "common/compress.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "testing/fuzz.h"

extern "C" {
// Present under ASan/UBSan, absent in plain builds (weak): lets the
// sanitizer's own abort still print the case repro line.
void __sanitizer_set_death_callback(void (*)(void)) __attribute__((weak));
}

namespace harmony {
namespace {

using testing::CaseSeed;
using testing::FuzzRng;
using testing::Mutator;

// Pre-formatted repro line for the current case, written with async-signal-
// safe write(2) from fatal-signal handlers. Updated before each case runs.
char g_repro[256];
size_t g_repro_len = 0;

void PrintReproRaw() {
  if (g_repro_len > 0) {
    ssize_t ignored = ::write(STDERR_FILENO, g_repro, g_repro_len);
    (void)ignored;
  }
}

void FatalSignal(int sig) {
  PrintReproRaw();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void InstallCrashReporters() {
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::signal(sig, FatalSignal);
  }
  if (&__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback(PrintReproRaw);
  }
}

[[noreturn]] void FailCase(const char* what) {
  std::fprintf(stderr, "FUZZ FAILURE: %s\n", what);
  PrintReproRaw();
  std::abort();
}

#define FUZZ_CHECK(cond, what) \
  do {                         \
    if (!(cond)) FailCase(what); \
  } while (0)

// ------------------------------------------------------ input generators --

TxnRequest MakeTxn(FuzzRng& rng) {
  TxnRequest t;
  t.proc_id = static_cast<uint32_t>(rng.Index(16));
  t.client_id = rng.Range(1, 64);
  t.client_seq = rng.Range(1, 1 << 20);
  const size_t n_ints = rng.Index(6);
  for (size_t i = 0; i < n_ints; i++) {
    t.args.ints.push_back(static_cast<int64_t>(rng.U64()));
  }
  t.args.blob = rng.Bytes(rng.SkewedSize(256));
  return t;
}

TxnReceipt MakeReceipt(FuzzRng& rng) {
  TxnReceipt r;
  r.outcome = static_cast<ReceiptOutcome>(rng.Index(4));
  r.status = net::WireStatus(static_cast<Status::Code>(rng.Index(8)),
                             rng.Bytes(rng.SkewedSize(64)));
  r.block_id = rng.Index(1 << 20);
  r.client_id = rng.Range(1, 64);
  r.client_seq = rng.U64();
  r.retries = static_cast<uint32_t>(rng.Index(4));
  r.latency_us = rng.Index(1 << 20);
  return r;
}

/// Txns shaped like a Smallbank block's: one procedure, client and blob
/// length, and account-id ints from a narrow range, so a record packs
/// those columns (at width 0 where every txn repeats the value).
struct PackableShape {
  uint32_t proc_id;
  uint64_t client_id;
  size_t blob_len;
  size_t n_ints;
  int64_t lo;

  static PackableShape Draw(FuzzRng& rng) {
    return PackableShape{static_cast<uint32_t>(rng.Index(16)),
                         rng.Range(1, 64),
                         rng.Index(8),
                         rng.Index(4),
                         static_cast<int64_t>(rng.Range(0, 1 << 20))};
  }

  TxnRequest Txn(FuzzRng& rng) const {
    TxnRequest t;
    t.proc_id = proc_id;
    t.client_id = client_id;
    t.client_seq = rng.Range(1, 1 << 20);
    for (size_t i = 0; i < n_ints; i++) {
      t.args.ints.push_back(lo + static_cast<int64_t>(rng.Index(6000)));
    }
    t.args.blob = rng.Bytes(blob_len);
    return t;
  }
};

/// With `shape`, 4-15 txns of that shape, whose record packs at least its
/// procedure and client columns; otherwise 1-8 txns from MakeTxn.
Block MakeBlock(FuzzRng& rng, BlockBuilder& builder, BlockId id,
                TxnId first_tid, const PackableShape* shape = nullptr) {
  TxnBatch batch;
  batch.block_id = id;
  batch.first_tid = first_tid;
  const size_t n = shape != nullptr ? 4 + rng.Index(12) : 1 + rng.Index(8);
  for (size_t i = 0; i < n; i++) {
    batch.txns.push_back(shape != nullptr ? shape->Txn(rng) : MakeTxn(rng));
  }
  return builder.Seal(std::move(batch), rng.Range(1, 1 << 30));
}

/// A PackableShape half of the time.
std::optional<PackableShape> MaybeShape(FuzzRng& rng) {
  if (!rng.Chance(0.5)) return std::nullopt;
  return PackableShape::Draw(rng);
}

const PackableShape* ShapeOf(const std::optional<PackableShape>& s) {
  return s.has_value() ? &*s : nullptr;
}

/// A block whose txns sit at the record codec's edges: extreme ints, wrapped
/// sequence deltas, empty blocks.
Block MakeEdgeBlock(FuzzRng& rng, BlockBuilder& builder) {
  constexpr int64_t kEdgeInts[] = {INT64_MIN, INT64_MAX, 0, -1, 1, 63, -64};
  constexpr uint64_t kEdgeU64[] = {0, 1, 127, 128, UINT64_MAX};
  TxnBatch batch;
  batch.block_id = 1;
  batch.first_tid = 1;
  const size_t n = rng.Index(8);  // 0-txn blocks included
  for (size_t i = 0; i < n; i++) {
    TxnRequest t = MakeTxn(rng);
    t.client_id = rng.Index(3);
    t.client_seq = kEdgeU64[rng.Index(5)];
    if (rng.Chance(0.2)) t.proc_id = UINT32_MAX;
    for (int64_t& v : t.args.ints) v = kEdgeInts[rng.Index(7)];
    batch.txns.push_back(std::move(t));
  }
  return builder.Seal(std::move(batch), kEdgeU64[rng.Index(5)]);
}

/// Block `id` after `prev`, chained onto it: some of `prev`'s txns sealed
/// again after a CC abort (the same canonical txn, its in-memory retries
/// one higher), among fresh ones (of `shape`, when given) — what a record
/// stores as references, under a header derived from `prev`'s.
Block MakeRetryBlock(FuzzRng& rng, BlockBuilder& builder, const Block& prev,
                     const PackableShape* shape = nullptr) {
  TxnBatch batch;
  batch.block_id = prev.header.block_id + 1;
  batch.first_tid = prev.header.first_tid + prev.header.txn_count;
  const size_t n = 1 + rng.Index(8);
  for (size_t i = 0; i < n; i++) {
    if (!prev.batch.txns.empty() && rng.Chance(0.6)) {
      TxnRequest t = prev.batch.txns[rng.Index(prev.batch.txns.size())];
      t.retries++;
      batch.txns.push_back(std::move(t));
    } else {
      batch.txns.push_back(shape != nullptr ? shape->Txn(rng) : MakeTxn(rng));
    }
  }
  return builder.Seal(std::move(batch), rng.Range(1, 1 << 30));
}

/// One record payload, HLZ or raw section; with `refs`, the header is
/// derived from the window's previous block and retries of the window's
/// txns are stored as references.
std::string EncodeRecord(FuzzRng& rng, const Block& b,
                         const RefWindow* refs = nullptr) {
  return BlockCodec::EncodeRecord(
      b, rng.Chance(0.5) ? Compression::kHlz : Compression::kNone, refs);
}

void AppendRecord(std::string* file, const std::string& payload) {
  codec::AppendU32(file, static_cast<uint32_t>(payload.size()));
  file->append(payload);
  codec::AppendU32(file, Crc32(payload));
}

/// Offset of a record's flags byte (codec bits, kDerivedFlag, kRefsFlag)
/// in the payload of block `id`: right after the block_id varint.
constexpr uint8_t kDerivedFlag = 0x40;
size_t FlagsOffset(BlockId id) {
  std::string head;
  codec::AppendVarint(&head, id);
  return head.size();
}

/// The record payloads of a freshly chained block sequence 1..n in which
/// later blocks derive their headers from the one before and retry earlier
/// blocks' txns, stored by reference; half the time the fresh txns share a
/// PackableShape. Every `interval`-th record starts an interval: it stores
/// its header and txns in full, so it is a safe cut.
std::vector<std::string> BuildLogRecords(FuzzRng& rng, size_t n_blocks,
                                         size_t interval = SIZE_MAX) {
  std::vector<std::string> records;
  BlockBuilder builder("fuzz-secret");
  RefWindow window;
  Block prev;
  const std::optional<PackableShape> shape = MaybeShape(rng);
  for (size_t i = 0; i < n_blocks; i++) {
    Block b = i == 0 ? MakeBlock(rng, builder, 1, 1, ShapeOf(shape))
                     : MakeRetryBlock(rng, builder, prev, ShapeOf(shape));
    if (i % interval == 0) window.Clear();  // an interval starts here
    records.push_back(EncodeRecord(rng, b, &window));
    window.Push(b);
    prev = std::move(b);
  }
  return records;
}

/// A whole block-log file: the current header, then `records` framed.
std::string LogFileOf(const std::vector<std::string>& records) {
  std::string file;
  codec::AppendU32(&file, 0x4C434248u);  // kLogMagic ("HBCL")
  codec::AppendU32(&file, kLogVersion);
  for (const std::string& r : records) AppendRecord(&file, r);
  return file;
}

std::string BuildLogFile(FuzzRng& rng, size_t n_blocks) {
  return LogFileOf(BuildLogRecords(rng, n_blocks));
}

/// True when a record decoded from a tampered payload still passes the
/// chain verifier as the block after `prev_hash` — which no tampering may
/// achieve.
bool VerifiesAfter(const Block& d, const Digest& prev_hash) {
  ChainVerifier v("fuzz-secret");
  v.Reset(prev_hash);
  return v.Verify(d).ok();
}

obs::MetricsSnapshot MakeSnapshot(FuzzRng& rng) {
  obs::MetricsSnapshot m;
  const size_t nc = rng.Index(5);
  for (size_t i = 0; i < nc; i++) {
    m.counters.push_back({"c_" + rng.Bytes(rng.Index(12)), rng.U64()});
  }
  const size_t ng = rng.Index(4);
  for (size_t i = 0; i < ng; i++) {
    m.gauges.push_back(
        {"g_" + rng.Bytes(rng.Index(12)), static_cast<int64_t>(rng.U64())});
  }
  const size_t nh = rng.Index(4);
  for (size_t i = 0; i < nh; i++) {
    obs::HistogramSnapshot h;
    h.name = "h_" + rng.Bytes(rng.Index(12));
    const size_t nb = rng.Index(8);
    for (size_t j = 0; j < nb; j++) {
      const uint32_t idx =
          static_cast<uint32_t>(rng.Index(obs::LatencyHistogram::kBuckets));
      const uint64_t cnt = rng.Range(1, 1000);
      h.buckets.emplace_back(idx, cnt);
      h.count += cnt;
      h.sum += cnt * obs::LatencyHistogram::BucketLow(idx);
      h.max = std::max(h.max, obs::LatencyHistogram::BucketLow(idx));
    }
    m.histograms.push_back(std::move(h));
  }
  const size_t ns = rng.Index(4);
  for (size_t i = 0; i < ns; i++) {
    obs::SlowTxnTrace t;
    t.client_id = rng.Range(1, 64);
    t.client_seq = rng.U64();
    t.block_id = rng.Index(1 << 20);
    t.queue_wait_us = rng.Index(1 << 20);
    t.commit_lag_us = rng.Index(1 << 20);
    t.total_us = t.queue_wait_us + t.commit_lag_us;
    t.retries = static_cast<uint32_t>(rng.Index(4));
    m.slow_txns.push_back(t);
  }
  return m;
}

// -------------------------------------------------------------- targets --

struct Ctx {
  Mutator mut;
  std::string tmp_dir;  // scratch for file-backed targets (log_open)
};

/// HLZ codec: structured round-trips plus mutated streams and raw_len lies.
/// A mutated stream may decode to anything, but a success must produce
/// exactly the declared size (the bounds the decoder promises).
void CaseHlz(FuzzRng& rng, Ctx& ctx) {
  std::string src;
  const size_t n = rng.SkewedSize(32 << 10);
  while (src.size() < n) {
    if (rng.Chance(0.7)) {
      src += "transfer(acct-12345, acct-67890, amount=100);";
    } else {
      src += rng.Bytes(1 + rng.Index(16));
    }
  }
  src.resize(n);
  std::string comp;
  HlzCompress(src, &comp);
  std::string out;
  FUZZ_CHECK(HlzDecompress(comp, src.size(), &out).ok() && out == src,
             "hlz round-trip of fresh compression");

  std::string mutant = comp;
  ctx.mut.Mutate(rng, &mutant);
  if (HlzDecompress(mutant, src.size(), &out).ok()) {
    FUZZ_CHECK(out.size() == src.size(),
               "hlz success with wrong output size");
  }
  // Lie about the raw length of a *valid* stream.
  const size_t lie = rng.SkewedSize(1 << 20);
  if (HlzDecompress(comp, lie, &out).ok()) {
    FUZZ_CHECK(lie == src.size(), "hlz accepted a raw_len lie");
  }
}

/// FrameReassembler: mutated multi-frame streams fed in random chunk sizes.
/// Unmutated streams must yield every frame intact; Corruption is terminal
/// (the caller's contract is to close the connection — a second Next() must
/// not "resync" into garbage).
void CaseWireReassembler(FuzzRng& rng, Ctx& ctx) {
  std::vector<net::Frame> built;
  std::string stream;
  const size_t n_frames = 1 + rng.Index(3);
  static constexpr net::Opcode kOpcodes[] = {
      net::Opcode::kOpSync,         net::Opcode::kOpError,
      net::Opcode::kOpBatchSubmit,  net::Opcode::kOpBatchReceipt,
      net::Opcode::kOpMetrics,      net::Opcode::kOpReplJoin,
      net::Opcode::kOpReplicate,    net::Opcode::kOpReplicateAck,
      net::Opcode::kOpReplSnapshot, net::Opcode::kOpHealth,
      net::Opcode::kOpEvents,       net::Opcode::kOpReplContext,
  };
  for (size_t i = 0; i < n_frames; i++) {
    net::Frame f;
    f.opcode = kOpcodes[rng.Index(std::size(kOpcodes))];
    if (net::IsControlCall(f.opcode)) {
      f.request_id = static_cast<uint16_t>(rng.U64());
    }
    f.payload = rng.Bytes(rng.SkewedSize(2048));
    stream += net::EncodeFrame(f.opcode, f.payload, f.request_id);
    built.push_back(std::move(f));
  }
  const bool mutated = rng.Chance(0.85);
  if (mutated) ctx.mut.Mutate(rng, &stream);

  net::FrameReassembler r;
  std::vector<net::Frame> got;
  bool corrupted = false;
  size_t fed = 0;
  while (true) {
    net::Frame f;
    Status s = r.Next(&f);
    if (s.ok()) {
      got.push_back(std::move(f));
      continue;
    }
    if (s.IsCorruption()) {
      corrupted = true;
      break;
    }
    // NotFound: need more bytes.
    if (fed >= stream.size()) break;
    const size_t chunk =
        std::min(stream.size() - fed, 1 + rng.SkewedSize(stream.size()));
    r.Feed(stream.data() + fed, chunk);
    fed += chunk;
  }
  if (corrupted) {
    // Terminal: more bytes (even valid frames) must not revive the stream.
    r.Feed(stream.data(), std::min<size_t>(stream.size(), 64));
    net::Frame f;
    FUZZ_CHECK(r.Next(&f).IsCorruption(),
               "FrameReassembler resynced after Corruption");
  }
  if (!mutated) {
    FUZZ_CHECK(!corrupted, "valid stream reported Corruption");
    FUZZ_CHECK(got.size() == built.size(), "valid stream lost frames");
    for (size_t i = 0; i < got.size(); i++) {
      FUZZ_CHECK(got[i].opcode == built[i].opcode &&
                     got[i].request_id == built[i].request_id &&
                     got[i].payload == built[i].payload,
                 "valid frame decoded differently");
    }
  }
}

/// The client/server payload decoders (ERROR, METRICS, BATCH_SUBMIT,
/// BATCH_RECEIPT), mutated and unmutated. Decoders return bool; the
/// invariant is "no crash, no OOB" (sanitizers enforce) plus unmutated
/// payloads must decode.
void CaseWirePayload(FuzzRng& rng, Ctx& ctx) {
  const size_t kind = rng.Index(4);
  std::string payload;
  switch (kind) {
    case 0: {
      net::WireError e;
      e.code = static_cast<Status::Code>(rng.Index(8));
      e.message = rng.Bytes(rng.SkewedSize(64));
      net::EncodeError(e, &payload);
      break;
    }
    case 1:
      net::EncodeMetrics(MakeSnapshot(rng), &payload);
      break;
    case 2: {
      std::vector<TxnRequest> txns;
      const size_t n = 1 + rng.Index(6);
      for (size_t i = 0; i < n; i++) txns.push_back(MakeTxn(rng));
      net::EncodeBatchSubmit(txns, &payload);
      break;
    }
    default: {
      std::string entries;
      const size_t n = 1 + rng.Index(6);
      for (size_t i = 0; i < n; i++) {
        net::AppendBatchReceiptEntry(MakeReceipt(rng), &entries);
      }
      payload = net::SealBatchPayload(static_cast<uint32_t>(n), entries);
      break;
    }
  }

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  switch (kind) {
    case 0: {
      net::WireError e;
      const bool ok = net::DecodeError(payload, &e);
      if (!mutated) FUZZ_CHECK(ok, "valid ERROR payload rejected");
      break;
    }
    case 1: {
      obs::MetricsSnapshot m;
      const bool ok = net::DecodeMetrics(payload, &m);
      if (!mutated) FUZZ_CHECK(ok, "valid METRICS payload rejected");
      break;
    }
    case 2: {
      std::vector<TxnRequest> txns;
      const bool ok = net::DecodeBatchSubmit(payload, &txns);
      if (!mutated) FUZZ_CHECK(ok, "valid BATCH_SUBMIT payload rejected");
      break;
    }
    default: {
      std::vector<TxnReceipt> rcpts;
      const bool ok = net::DecodeBatchReceipt(payload, &rcpts);
      if (!mutated) FUZZ_CHECK(ok, "valid BATCH_RECEIPT payload rejected");
      break;
    }
  }
}

/// A raw-section record split at its reference fields, so a case can
/// rewrite one and reassemble the rest verbatim.
struct RefFields {
  std::string head;  ///< block_id, flags, header fields and the signature
  uint64_t reach = 0;
  std::vector<uint64_t> distance;  ///< one per txn
  std::vector<uint64_t> index;     ///< one per referencing txn
  std::string literals;            ///< the rest of the section

  bool Parse(std::string_view record) {
    RecordShape shape;
    if (!BlockCodec::Peek(record, &shape) || shape.ref_reach == 0) {
      return false;
    }
    reach = shape.ref_reach;
    const std::string_view section = record.substr(shape.section_offset);
    // The reach and the raw length precede a raw section; a compressed one
    // would store another length.
    std::string lengths;
    codec::AppendVarint(&lengths, reach);
    codec::AppendVarint(&lengths, section.size());
    if (lengths.size() > shape.section_offset) return false;
    const size_t head_len = shape.section_offset - lengths.size();
    if (record.substr(head_len, lengths.size()) != lengths) return false;
    head = std::string(record.substr(0, head_len));
    distance.resize(shape.txn_count);
    codec::Reader r(section);
    for (uint64_t& d : distance) {
      if (!r.ReadVarint(&d)) return false;
      if (d != 0) index.push_back(0);
    }
    for (uint64_t& i : index) {
      if (!r.ReadVarint(&i)) return false;
    }
    literals = std::string(section.substr(section.size() - r.remaining()));
    return true;
  }

  std::string Build() const {
    std::string section;
    for (uint64_t d : distance) codec::AppendVarint(&section, d);
    for (uint64_t i : index) codec::AppendVarint(&section, i);
    section += literals;
    std::string out = head;
    codec::AppendVarint(&out, reach);
    codec::AppendVarint(&out, section.size());
    return out + section;
  }
};

/// Rewrites one reference field of a raw-section record with references to
/// a value the decoder must refuse: a reach of 0, past kMaxRefReach or
/// unequal to the farthest distance; a distance past the reach or to a block
/// the window lacks; an index past the referenced block. False when the
/// record carries no reference to rewrite.
bool BreakReference(FuzzRng& rng, const RefWindow& window, BlockId id,
                    std::string* record) {
  RefFields f;
  if (!f.Parse(*record) || f.index.empty()) return false;
  size_t ref = rng.Index(f.index.size());
  size_t at = 0;  // position of the `ref`-th reference in the distance column
  for (size_t seen = 0;; at++) {
    if (f.distance[at] != 0 && seen++ == ref) break;
  }
  switch (rng.Index(6)) {
    case 0:
      f.reach = 0;
      break;
    case 1:
      f.reach = kMaxRefReach + 1 + rng.Index(1 << 20);
      break;
    case 2:
      f.reach++;
      break;
    case 3:
      f.distance[at] = f.reach + 1 + rng.Index(4);
      break;
    case 4:  // a block the window does not hold, within a widened reach
      f.distance[at] = id - window.front_id() + 1 + rng.Index(2);
      f.reach = std::max(f.reach, f.distance[at]);
      if (f.reach > kMaxRefReach) return false;
      break;
    default: {
      const std::vector<TxnRequest>* src = window.Find(id - f.distance[at]);
      f.index[ref] = (src != nullptr ? src->size() : 0) + rng.Index(1 << 20);
      break;
    }
  }
  *record = f.Build();
  return true;
}

/// Encodes `b` against `window` with a raw section and checks each stored
/// reference: the decoded txn, the window txn it names and `b`'s txn must
/// have the same EncodeTxn bytes.
void CheckReferencesResolve(const Block& b, const RefWindow& window) {
  const std::string record =
      BlockCodec::EncodeRecord(b, Compression::kNone, &window);
  RefFields f;
  if (!f.Parse(record)) return;  // no references stored
  Block d;
  FUZZ_CHECK(BlockCodec::Decode(record, &d, &window).ok(),
             "a record with references did not decode");
  const auto bytes = [](const TxnRequest& t) {
    std::string out;
    BlockCodec::EncodeTxn(t, &out);
    return out;
  };
  size_t ref = 0;
  for (size_t i = 0; i < f.distance.size(); i++) {
    if (f.distance[i] == 0) continue;
    const std::vector<TxnRequest>* src =
        window.Find(b.header.block_id - f.distance[i]);
    FUZZ_CHECK(src != nullptr && f.index[ref] < src->size(),
               "a stored reference names no window txn");
    const std::string target = bytes((*src)[f.index[ref++]]);
    FUZZ_CHECK(bytes(d.batch.txns[i]) == target &&
                   bytes(b.batch.txns[i]) == target,
               "a reference decoded to other canonical bytes than its target");
  }
}

/// BlockCodec::Decode on record payloads, ordinary, edge-valued, with
/// packed columns, and retries stored as references to the previous block
/// under a header derived from it (decoded against that block's window).
/// Unmutated records must decode to the same txns (same TxnRoot and rebuilt
/// block hash), and a block of a PackableShape must store packed columns.
/// Every reference of an unmutated record must decode to a txn whose
/// EncodeTxn bytes equal both its target's and the encoded block's txn. A
/// record whose reach, distance or index is rewritten out of range must be
/// Corruption; so must a derived header whose predecessor the window lacks. A record
/// whose derived-header flag is flipped must be Corruption or decode to a
/// block the chain verifier rejects.
void CaseBlockRecord(FuzzRng& rng, Ctx& ctx) {
  BlockBuilder builder("fuzz-secret");
  RefWindow window;
  Block b;
  Block prev;
  const bool has_prev = rng.Chance(0.5);
  const std::optional<PackableShape> shape = MaybeShape(rng);
  if (has_prev) {
    prev = MakeBlock(rng, builder, 1 + rng.Index(1 << 20), 1, ShapeOf(shape));
    b = MakeRetryBlock(rng, builder, prev, ShapeOf(shape));
    window.Push(prev);
  } else {
    b = !shape && rng.Chance(0.3) ? MakeEdgeBlock(rng, builder)
                                  : MakeBlock(rng, builder, 1, 1,
                                              ShapeOf(shape));
  }
  std::string payload = EncodeRecord(rng, b, &window);

  if (rng.Chance(0.2)) {
    std::string broken = BlockCodec::EncodeRecord(b, Compression::kNone,
                                                  &window);
    if (BreakReference(rng, window, b.header.block_id, &broken)) {
      Block d;
      FUZZ_CHECK(BlockCodec::Decode(broken, &d, &window).IsCorruption(),
                 "an out-of-range reference was not Corruption");
      return;
    }
  }

  if (rng.Chance(0.2)) {
    RecordShape shape;
    FUZZ_CHECK(BlockCodec::Peek(payload, &shape), "record unreadable");
    FUZZ_CHECK(shape.derived == has_prev,
               "a header was not derived from the window's previous block");
    Block d;
    std::string flipped = payload;
    flipped[FlagsOffset(b.header.block_id)] ^= static_cast<char>(kDerivedFlag);
    const Status st = BlockCodec::Decode(flipped, &d, &window);
    FUZZ_CHECK(!st.ok() || !VerifiesAfter(d, b.header.prev_hash),
               "a flipped derived-header flag decoded to a valid block");
    if (!st.ok()) {
      FUZZ_CHECK(st.IsCorruption(), "a flipped flag failed as non-Corruption");
    }
    if (has_prev) {
      // The predecessor dropped from the window.
      RefWindow dropped;
      FUZZ_CHECK(BlockCodec::Decode(payload, &d, &dropped).IsCorruption() &&
                     BlockCodec::Decode(payload, &d).IsCorruption(),
                 "a derived header without its predecessor was not Corruption");
    }
    return;
  }

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  Block d;
  SectionStats stats;
  Status s = BlockCodec::Decode(payload, &d, &window, &stats);
  if (!mutated) {
    FUZZ_CHECK(s.ok(), "valid record payload rejected");
    FUZZ_CHECK(d.header.block_hash == b.header.block_hash &&
                   d.header.txn_root == b.header.txn_root,
               "valid record decoded differently");
    if (shape && !has_prev) {
      FUZZ_CHECK(stats.packed_columns >= 2,
                 "a block of one procedure and client packed neither column");
    }
    CheckReferencesResolve(b, window);
  }
}

/// BlockStore::Open on whole mutated log files (exercises header/version
/// detection, torn-tail repair, CRC validation). The invariant: whatever
/// Open accepts, ReadAll either parses into a chain that agrees with the
/// open scan, or reports Corruption — Open repairs only a torn tail, so a
/// record broken before the last interval (a mutation can splice in a
/// CRC-valid one, or cut the log's head) surfaces on read. ReadLast
/// returns the opened tip or Corruption, and always the tip when the log
/// is unmutated or ReadAll parses. An intact file must read back whole,
/// and one stamped with an older version must be refused with
/// NotSupported. Structural breaks with valid CRCs, on logs of one or more
/// intervals: a record dropped from the middle breaks the id sequence, so
/// the opened log ends before it; with the first record dropped, a log of
/// one-record intervals reads back from block 2, and otherwise block 2's
/// derived header has no predecessor — Open cuts it when it lies in the
/// last interval, else ReadAll is Corruption; a record whose derived-
/// header flag is flipped ends the log there (in the last interval), makes
/// ReadAll Corruption (before it), or fails the audit — it never yields a
/// chain that passes it.
void CaseLogOpen(FuzzRng& rng, Ctx& ctx) {
  const size_t interval = 1 + rng.Index(4);
  std::vector<std::string> records =
      BuildLogRecords(rng, rng.Index(6), interval);
  enum class Break { kNone, kFlip, kDrop } brk = Break::kNone;
  size_t at = 0;
  if (records.size() >= 2 && rng.Chance(0.2)) {
    if (rng.Chance(0.5)) {
      brk = Break::kFlip;
      at = rng.Index(records.size());
      records[at][FlagsOffset(at + 1)] ^= static_cast<char>(kDerivedFlag);
    } else {
      brk = Break::kDrop;
      at = rng.Index(records.size() - 1);
      records.erase(records.begin() + static_cast<ptrdiff_t>(at));
    }
  }
  const bool head_dropped = brk == Break::kDrop && at == 0;
  std::string file = LogFileOf(records);
  const bool old_version = brk == Break::kNone && rng.Chance(0.1);
  if (old_version) {
    const uint32_t v = static_cast<uint32_t>(1 + rng.Index(kLogVersion - 1));
    std::memcpy(file.data() + 4, &v, 4);
  }
  const bool mutated = brk == Break::kNone && rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &file);

  const std::string path = ctx.tmp_dir + "/log_open.chain";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    FUZZ_CHECK(f != nullptr, "cannot write scratch log file");
    if (!file.empty()) {
      FUZZ_CHECK(std::fwrite(file.data(), 1, file.size(), f) == file.size(),
                 "short write to scratch log file");
    }
    std::fclose(f);
  }
  {
    BlockStore store(path, /*sync_latency_us=*/0);
    Status s = store.Open();
    if (old_version && !mutated) {
      FUZZ_CHECK(s.IsNotSupported(), "an older-version log not refused");
    }
    if (brk != Break::kNone) FUZZ_CHECK(s.ok(), "a current-version log did not open");
    std::vector<Block> blocks;
    const Status read = s.ok() ? store.ReadAll(&blocks) : s;
    if (s.ok()) {
      FUZZ_CHECK(read.ok() || read.IsCorruption(),
                 "ReadAll on an opened log failed as non-Corruption");
      if (!mutated && brk != Break::kFlip && !head_dropped) {
        FUZZ_CHECK(read.ok(), "Open() accepted a log ReadAll cannot parse");
      }
      if (head_dropped) {
        // records[0] is now block 2, an interval start only when every
        // record is one; a later interval start keeps it out of Open's
        // tail decode.
        if (interval == 1) {
          FUZZ_CHECK(read.ok() && blocks.size() == records.size() &&
                         blocks.front().header.block_id == 2,
                     "a log of whole records did not read back from block 2");
        } else if (records.size() >= interval) {
          FUZZ_CHECK(read.IsCorruption(),
                     "an orphaned derived header before the last interval "
                     "was not Corruption");
        } else {
          FUZZ_CHECK(store.num_blocks() == 0,
                     "an orphaned derived header in the last interval was "
                     "not cut");
        }
      }
      if (store.num_blocks() > 0) {
        Block tip;
        const Status last = store.ReadLast(&tip);
        FUZZ_CHECK(last.ok() || last.IsCorruption(),
                   "ReadLast on an opened log failed as non-Corruption");
        if (!mutated || read.ok()) {
          FUZZ_CHECK(last.ok(), "ReadLast could not read the opened tip");
        }
        if (last.ok()) {
          FUZZ_CHECK(tip.header.block_id == store.last_block_id(),
                     "ReadLast disagrees with the open scan's tip");
        }
      } else {
        Block tip;
        FUZZ_CHECK(store.ReadLast(&tip).IsNotFound(),
                   "ReadLast on empty log not NotFound");
      }
    }
    if (read.ok()) {
      FUZZ_CHECK(blocks.size() == store.num_blocks(),
                 "ReadAll count disagrees with open scan");
      if (!mutated && brk == Break::kNone) {
        FUZZ_CHECK(blocks.size() == records.size(),
                   "an intact log did not read back whole");
      }
      if (brk == Break::kDrop && at > 0) {
        FUZZ_CHECK(blocks.size() == at,
                   "a record whose predecessor was dropped was served");
      }
      if (brk == Break::kFlip && blocks.size() > at) {
        FUZZ_CHECK(!ChainVerifier::VerifyChain(blocks, "fuzz-secret").ok(),
                   "a flipped derived-header flag passed the chain audit");
      }
    }
  }
  ::unlink(path.c_str());
}

net::WireSnapshot MakeWireSnapshot(FuzzRng& rng) {
  net::WireSnapshot s;
  s.base_block = rng.Range(1, 1 << 20);
  s.leader_tip = s.base_block + rng.Index(1 << 10);
  for (size_t i = 0; i < 32; i++) {
    s.tip_hash[i] = static_cast<uint8_t>(rng.Index(256));
  }
  const size_t n = rng.Index(32);
  for (size_t i = 0; i < n; i++) {
    s.rows.emplace_back(rng.U64(), rng.Bytes(rng.SkewedSize(128)));
  }
  return s;
}

/// Replication payload codecs (JOIN / REPLICATE / ACK / SNAPSHOT; a
/// REPLICATE record references the session's previous block): mutated and
/// unmutated. These payloads cross process boundaries from a peer that
/// may be arbitrarily broken, so the decoders carry the same no-crash
/// contract as the client-facing ones — plus REPLICATE's outer-id/header
/// consistency check.
void CaseReplPayload(FuzzRng& rng, Ctx& ctx) {
  const size_t kind = rng.Index(4);
  std::string payload;
  Block blk;
  RefWindow window;
  switch (kind) {
    case 0: {
      net::WireReplJoin j;
      j.node = rng.Bytes(rng.Index(net::kMaxReplNodeName));
      j.last_block_id = rng.U64();
      net::EncodeReplJoin(j, &payload);
      break;
    }
    case 1: {
      // A block retrying txns of the session's previous block: the stored
      // record derives its header from it and references it, and decodes
      // only against its window.
      BlockBuilder builder("fuzz-secret");
      const std::optional<PackableShape> shape = MaybeShape(rng);
      const Block prev =
          MakeBlock(rng, builder, static_cast<BlockId>(rng.Range(1, 1 << 20)),
                    1, ShapeOf(shape));
      window.Push(prev);
      blk = MakeRetryBlock(rng, builder, prev, ShapeOf(shape));
      net::EncodeReplicate(blk.header.block_id,
                           EncodeRecord(rng, blk, &window), &payload);
      break;
    }
    case 2:
      net::EncodeReplAck(rng.U64(), &payload);
      break;
    default:
      net::EncodeSnapshot(MakeWireSnapshot(rng), &payload);
      break;
  }

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  switch (kind) {
    case 0: {
      net::WireReplJoin j;
      const bool ok = net::DecodeReplJoin(payload, &j);
      if (!mutated) FUZZ_CHECK(ok, "valid REPL_JOIN payload rejected");
      if (ok) {
        FUZZ_CHECK(j.node.size() <= net::kMaxReplNodeName,
                   "REPL_JOIN accepted an oversized node name");
      }
      break;
    }
    case 1: {
      Block d;
      const bool ok = net::DecodeReplicate(payload, &d, &window);
      if (!mutated) {
        FUZZ_CHECK(ok, "valid REPLICATE payload rejected");
        FUZZ_CHECK(d.header.block_id == blk.header.block_id &&
                       d.header.block_hash == blk.header.block_hash &&
                       d.record == payload.substr(8),
                   "valid REPLICATE decoded differently");
        // A session without the previous block cannot resolve the derived
        // header; a flipped flag never yields a block the verifier takes.
        RefWindow empty;
        FUZZ_CHECK(!net::DecodeReplicate(payload, &d, &empty),
                   "a REPLICATE record decoded without its predecessor");
        std::string flipped = payload;
        flipped[8 + FlagsOffset(blk.header.block_id)] ^=
            static_cast<char>(kDerivedFlag);
        FUZZ_CHECK(!net::DecodeReplicate(flipped, &d, &window) ||
                       !VerifiesAfter(d, blk.header.prev_hash),
                   "a flipped derived-header flag decoded to a valid block");
      }
      break;
    }
    case 2: {
      BlockId id = 0;
      const bool ok = net::DecodeReplAck(payload, &id);
      if (!mutated) FUZZ_CHECK(ok, "valid REPLICATE_ACK payload rejected");
      break;
    }
    default: {
      net::WireSnapshot s;
      const bool ok = net::DecodeSnapshot(payload, &s);
      if (!mutated) FUZZ_CHECK(ok, "valid REPL_SNAPSHOT payload rejected");
      if (ok) {
        FUZZ_CHECK(s.rows.size() <= net::kMaxSnapshotRows,
                   "REPL_SNAPSHOT accepted too many rows");
      }
      break;
    }
  }
}

/// A whole replication session's byte stream (JOIN, a REPL_CONTEXT record,
/// then interleaved REPLICATE / SNAPSHOT / ACK frames) through the FrameReassembler in
/// random chunk sizes — what PeerLink::Recv and the leader's reactor
/// actually see from a hostile or corrupted peer. Unmutated streams must
/// reassemble every frame AND payload-decode them.
void CaseReplReassembler(FuzzRng& rng, Ctx& ctx) {
  std::string stream;
  std::vector<std::pair<net::Opcode, std::string>> built;
  auto add = [&](net::Opcode op, std::string payload) {
    stream += net::EncodeFrame(op, payload);
    built.emplace_back(op, std::move(payload));
  };

  net::WireReplJoin join;
  join.node = "fuzz-follower";
  join.last_block_id = rng.Index(1 << 20);
  std::string jp;
  net::EncodeReplJoin(join, &jp);
  add(net::Opcode::kOpReplJoin, std::move(jp));

  // The session opens with a context record (the follower's tip block),
  // then streams blocks that derive their headers from the one before and
  // retry earlier ones, stored by reference.
  BlockBuilder builder("fuzz-secret");
  RefWindow leader_window;
  Block prev = MakeBlock(rng, builder, join.last_block_id, 1);
  {
    std::string cp;
    net::EncodeReplicate(prev.header.block_id, EncodeRecord(rng, prev), &cp);
    add(net::Opcode::kOpReplContext, std::move(cp));
    leader_window.Push(prev);
  }
  const size_t n = 1 + rng.Index(4);
  for (size_t i = 0; i < n; i++) {
    if (rng.Chance(0.2)) {
      std::string sp;
      net::EncodeSnapshot(MakeWireSnapshot(rng), &sp);
      add(net::Opcode::kOpReplSnapshot, std::move(sp));
    } else if (rng.Chance(0.3)) {
      std::string ap;
      net::EncodeReplAck(rng.Index(1 << 20), &ap);
      add(net::Opcode::kOpReplicateAck, std::move(ap));
    } else {
      Block b = MakeRetryBlock(rng, builder, prev);
      std::string rp;
      net::EncodeReplicate(b.header.block_id,
                           EncodeRecord(rng, b, &leader_window), &rp);
      add(net::Opcode::kOpReplicate, std::move(rp));
      leader_window.Push(b);
      prev = std::move(b);
    }
  }

  const bool mutated = rng.Chance(0.85);
  if (mutated) ctx.mut.Mutate(rng, &stream);

  net::FrameReassembler r;
  std::vector<net::Frame> got;
  bool corrupted = false;
  size_t fed = 0;
  while (true) {
    net::Frame f;
    Status s = r.Next(&f);
    if (s.ok()) {
      got.push_back(std::move(f));
      continue;
    }
    if (s.IsCorruption()) {
      corrupted = true;
      break;
    }
    if (fed >= stream.size()) break;
    const size_t chunk =
        std::min(stream.size() - fed, 1 + rng.SkewedSize(stream.size()));
    r.Feed(stream.data() + fed, chunk);
    fed += chunk;
  }

  // Whatever reassembled — even from a mutated stream — goes through the
  // payload decoders, like a real session would, block records against the
  // session's window. No decoder may crash; an unmutated stream decodes.
  RefWindow session;
  bool records_ok = true;
  for (const net::Frame& f : got) {
    switch (f.opcode) {
      case net::Opcode::kOpReplJoin: {
        net::WireReplJoin j;
        (void)net::DecodeReplJoin(f.payload, &j);
        break;
      }
      case net::Opcode::kOpReplContext:
      case net::Opcode::kOpReplicate: {
        Block b;
        if (net::DecodeReplicate(f.payload, &b, &session)) {
          session.Push(b);
        } else {
          records_ok = false;
        }
        break;
      }
      case net::Opcode::kOpReplicateAck: {
        BlockId a = 0;
        (void)net::DecodeReplAck(f.payload, &a);
        break;
      }
      case net::Opcode::kOpReplSnapshot: {
        net::WireSnapshot s;
        (void)net::DecodeSnapshot(f.payload, &s);
        break;
      }
      default:
        break;
    }
  }

  if (!mutated) {
    FUZZ_CHECK(!corrupted, "valid repl stream reported Corruption");
    FUZZ_CHECK(records_ok, "valid repl stream's records did not decode");
    FUZZ_CHECK(got.size() == built.size(), "valid repl stream lost frames");
    for (size_t i = 0; i < got.size(); i++) {
      FUZZ_CHECK(got[i].opcode == built[i].first &&
                     got[i].payload == built[i].second,
                 "valid repl frame decoded differently");
    }
    // Without the context record the session holds no predecessor for the
    // first REPLICATE's derived header.
    RefWindow no_context;
    for (const net::Frame& f : got) {
      if (f.opcode != net::Opcode::kOpReplicate) continue;
      Block b;
      FUZZ_CHECK(!net::DecodeReplicate(f.payload, &b, &no_context),
                 "a REPLICATE record decoded without the context record");
      break;
    }
  }
}

net::WireHealth MakeWireHealth(FuzzRng& rng) {
  net::WireHealth h;
  h.role = static_cast<uint8_t>(rng.Index(3));
  h.node = rng.Bytes(rng.Index(net::kMaxReplNodeName));
  h.height = rng.U64();
  h.durable_tip = rng.U64();
  h.leader_addr = rng.Bytes(rng.Index(64));
  h.peer_count = static_cast<uint32_t>(rng.Index(16));
  h.uptime_us = rng.U64();
  return h;
}

/// kOpHealth payloads: the node self-report the cluster scraper polls.
/// Accepted mutants must respect every documented bound (role range, name
/// and address caps); unmutated payloads round-trip exactly.
void CaseHealthPayload(FuzzRng& rng, Ctx& ctx) {
  const net::WireHealth h = MakeWireHealth(rng);
  std::string payload;
  net::EncodeHealth(h, &payload);

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  net::WireHealth d;
  const bool ok = net::DecodeHealth(payload, &d);
  if (!mutated) {
    FUZZ_CHECK(ok, "valid HEALTH payload rejected");
    FUZZ_CHECK(d.role == h.role && d.node == h.node &&
                   d.height == h.height && d.durable_tip == h.durable_tip &&
                   d.leader_addr == h.leader_addr &&
                   d.peer_count == h.peer_count && d.uptime_us == h.uptime_us,
               "valid HEALTH decoded differently");
  }
  if (ok) {
    FUZZ_CHECK(d.role <= net::WireHealth::kFollower,
               "HEALTH accepted an out-of-range role");
    FUZZ_CHECK(d.node.size() <= net::kMaxReplNodeName,
               "HEALTH accepted an oversized node name");
    FUZZ_CHECK(d.leader_addr.size() <= net::kMaxLeaderAddr,
               "HEALTH accepted an oversized leader addr");
  }
}

/// kOpEvents payloads (reply and the u64-cursor request): count bombs must
/// die at the plausibility check, accepted entries must respect the
/// severity range and the detail cap.
void CaseEventsPayload(FuzzRng& rng, Ctx& ctx) {
  if (rng.Chance(0.15)) {  // the request side is exactly one u64
    std::string req;
    net::EncodeEventsReq(rng.U64(), &req);
    const bool mutated = rng.Chance(0.9);
    if (mutated) ctx.mut.Mutate(rng, &req);
    uint64_t cursor = 0;
    const bool ok = net::DecodeEventsReq(req, &cursor);
    if (!mutated) FUZZ_CHECK(ok, "valid EVENTS request rejected");
    return;
  }

  std::vector<obs::EventRecord> events;
  const size_t n = rng.Index(8);
  for (size_t i = 0; i < n; i++) {
    obs::EventRecord e;
    e.seq = rng.U64();
    e.time_us = rng.U64();
    e.severity = static_cast<uint8_t>(rng.Index(3));
    e.code = static_cast<uint16_t>(rng.Index(16));
    e.detail = rng.Bytes(rng.Index(net::kMaxEventDetail + 1));
    events.push_back(std::move(e));
  }
  std::string payload;
  net::EncodeEvents(rng.U64(), events, &payload);

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  uint64_t next = 0;
  std::vector<obs::EventRecord> d;
  const bool ok = net::DecodeEvents(payload, &next, &d);
  if (!mutated) {
    FUZZ_CHECK(ok, "valid EVENTS payload rejected");
    FUZZ_CHECK(d.size() == events.size(),
               "valid EVENTS round-trip changed entry count");
  }
  if (ok) {
    FUZZ_CHECK(d.size() <= net::kMaxEventEntries,
               "EVENTS accepted too many entries");
    for (const obs::EventRecord& e : d) {
      FUZZ_CHECK(
          e.severity <= static_cast<uint8_t>(obs::EventSeverity::kError),
          "EVENTS accepted an out-of-range severity");
      FUZZ_CHECK(e.detail.size() <= net::kMaxEventDetail,
                 "EVENTS accepted an oversized detail");
    }
    // Whatever decoded renders without crashing (harmonyd events path).
    (void)obs::RenderEventsText(d);
    (void)obs::RenderEventsJson(d);
  }
}

/// kOpMetrics snapshot codec at scale (richer snapshots than wire_payload's
/// occasional case 5).
void CaseMetrics(FuzzRng& rng, Ctx& ctx) {
  obs::MetricsSnapshot m = MakeSnapshot(rng);
  std::string payload;
  net::EncodeMetrics(m, &payload);

  obs::MetricsSnapshot d;
  FUZZ_CHECK(net::DecodeMetrics(payload, &d), "valid metrics rejected");
  FUZZ_CHECK(d.counters.size() == m.counters.size() &&
                 d.gauges.size() == m.gauges.size() &&
                 d.histograms.size() == m.histograms.size() &&
                 d.slow_txns.size() == m.slow_txns.size(),
             "metrics round-trip changed entry counts");

  ctx.mut.Mutate(rng, &payload);
  obs::MetricsSnapshot junk;
  (void)net::DecodeMetrics(payload, &junk);  // must not crash or OOM
}

struct Target {
  const char* name;
  void (*fn)(FuzzRng&, Ctx&);
  const char* what;
};

const Target kTargets[] = {
    {"hlz", CaseHlz, "HLZ compress/decompress (common/compress.h)"},
    {"wire_reassembler", CaseWireReassembler,
     "frame reassembly over mutated byte streams (net/wire.h)"},
    {"wire_payload", CaseWirePayload,
     "ERROR/METRICS/BATCH_SUBMIT/BATCH_RECEIPT payload decoders"},
    {"block_record", CaseBlockRecord,
     "BlockCodec::Decode on v10 records: edge values, packed columns, "
     "derived headers, refs"},
    {"log_open", CaseLogOpen,
     "BlockStore::Open + ReadAll on mutated log files"},
    {"metrics", CaseMetrics, "kOpMetrics snapshot codec round-trips"},
    {"health_payload", CaseHealthPayload,
     "kOpHealth node self-report codec (cluster scraper surface)"},
    {"events_payload", CaseEventsPayload,
     "kOpEvents request/reply codec: count bombs, severity, detail caps"},
    {"repl_payload", CaseReplPayload,
     "replication payload codecs: JOIN/REPLICATE/ACK/SNAPSHOT (src/repl/)"},
    {"repl_reassembler", CaseReplReassembler,
     "whole replication-session streams through reassembly + decode"},
};

// --------------------------------------------------------------- corpus --

/// Writes one canonical valid input per decode surface as commented hex —
/// the checked-in seed corpus the Mutator splices from. Regenerate with
/// `fuzz_harness --write-corpus tools/fuzz/corpus` after format changes.
int WriteCorpus(const std::string& dir) {
  struct Entry {
    const char* file;
    const char* comment;
    std::string bytes;
  };
  FuzzRng rng(42);
  Ctx ctx;
  std::vector<Entry> entries;

  entries.push_back(
      {"wire_sync_frame.hex",
       "# one complete SYNC frame (header only: empty payload, request id 7)",
       net::EncodeFrame(net::Opcode::kOpSync, "", /*request_id=*/7)});

  std::vector<TxnRequest> batch;
  for (int i = 0; i < 3; i++) batch.push_back(MakeTxn(rng));
  std::string batch_payload;
  net::EncodeBatchSubmit(batch, &batch_payload);
  entries.push_back({"wire_batch_submit.hex",
                     "# BATCH_SUBMIT payload: u32 count + 3x EncodeTxn",
                     batch_payload});

  std::string metrics_payload;
  net::EncodeMetrics(MakeSnapshot(rng), &metrics_payload);
  entries.push_back({"wire_metrics.hex",
                     "# METRICS payload: one MetricsSnapshot", metrics_payload});
  entries.push_back(
      {"wire_metrics_frame.hex",
       "# one complete METRICS reply frame (request id 0x0102 + snapshot)",
       net::EncodeFrame(net::Opcode::kOpMetrics, metrics_payload,
                        /*request_id=*/0x0102)});

  net::WireHealth health;
  health.role = net::WireHealth::kFollower;
  health.node = "corpus-follower";
  health.height = 128;
  health.durable_tip = 127;
  health.leader_addr = "127.0.0.1:7450";
  health.peer_count = 0;
  health.uptime_us = 99'000'000;
  std::string health_payload;
  net::EncodeHealth(health, &health_payload);
  entries.push_back({"wire_health.hex",
                     "# HEALTH payload: one follower self-report",
                     health_payload});

  std::vector<obs::EventRecord> evs;
  for (int i = 0; i < 3; i++) {
    obs::EventRecord e;
    e.seq = static_cast<uint64_t>(i);
    e.time_us = 1'000'000u + static_cast<uint64_t>(i);
    e.severity = static_cast<uint8_t>(i % 3);
    e.code = static_cast<uint16_t>(1 + i);
    e.detail = "corpus event " + std::to_string(i);
    evs.push_back(std::move(e));
  }
  std::string events_payload;
  net::EncodeEvents(/*next_cursor=*/3, evs, &events_payload);
  entries.push_back({"wire_events.hex",
                     "# EVENTS reply: next cursor + 3 entries",
                     events_payload});

  BlockBuilder builder("fuzz-secret");
  Block b = MakeBlock(rng, builder, 1, 1);
  // Repetitive blobs, so the HLZ seed really stores a compressed section.
  TxnBatch compressible = b.batch;
  for (TxnRequest& t : compressible.txns) {
    t.args.blob = "transfer(acct-12345, acct-67890, amount=100);";
  }
  BlockBuilder hlz_builder("fuzz-secret");
  const Block hb = hlz_builder.Seal(std::move(compressible), 1000);
  const std::string hlz_record = BlockCodec::EncodeRecord(hb, Compression::kHlz);
  entries.push_back({"block_record_v10.hex",
                     "# one v10 record payload (full header, HLZ section)",
                     hlz_record});
  entries.push_back({"block_record_v10_raw.hex",
                     "# one v10 record payload (full header, section raw)",
                     BlockCodec::EncodeRecord(b, Compression::kNone)});
  RefWindow window;
  window.Push(b);
  const Block rb = MakeRetryBlock(rng, builder, b);
  entries.push_back(
      {"block_record_v10_derived.hex",
       "# one v10 record payload whose header is derived from the raw seed's "
       "block and whose retries reference it",
       BlockCodec::EncodeRecord(rb, Compression::kNone, &window)});
  const PackableShape shape = PackableShape::Draw(rng);
  entries.push_back(
      {"block_record_v10_packed.hex",
       "# one v10 record payload (full header, section raw) of txns sharing a "
       "procedure, client and blob length: bit-packed columns",
       BlockCodec::EncodeRecord(MakeBlock(rng, builder, 1, 1, &shape),
                                Compression::kNone)});

  FuzzRng lrng(43);
  entries.push_back({"log_v10_three_blocks.hex",
                     "# complete v10 log file: header + 3 records, later ones "
                     "deriving their headers and storing retries by "
                     "reference",
                     BuildLogFile(lrng, 3)});
  FuzzRng l2rng(44);
  entries.push_back({"log_v10_one_block.hex",
                     "# complete v10 log file: header + 1 record",
                     BuildLogFile(l2rng, 1)});

  std::string hlz;
  HlzCompress("transfer(acct-12345, acct-67890, amount=100);"
              "transfer(acct-12345, acct-67890, amount=100);",
              &hlz);
  entries.push_back({"hlz_stream.hex", "# HLZ stream of a repetitive source",
                     hlz});

  net::WireReplJoin join;
  join.node = "corpus-follower";
  join.last_block_id = 41;
  std::string join_payload;
  net::EncodeReplJoin(join, &join_payload);
  entries.push_back(
      {"repl_join_frame.hex",
       "# one complete REPL_JOIN frame (wire v8 header + payload)",
       net::EncodeFrame(net::Opcode::kOpReplJoin, join_payload)});

  std::string repl_payload;
  net::EncodeReplicate(hb.header.block_id, hlz_record, &repl_payload);
  entries.push_back({"repl_replicate.hex",
                     "# REPLICATE payload: u64 block id + stored v10 record",
                     repl_payload});

  FuzzRng srng(45);
  std::string snap_payload;
  net::EncodeSnapshot(MakeWireSnapshot(srng), &snap_payload);
  entries.push_back(
      {"repl_snapshot.hex",
       "# REPL_SNAPSHOT payload: base + tip hash + leader tip + rows",
       snap_payload});

  for (const Entry& e : entries) {
    const std::string path = dir + "/" + e.file;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", e.comment);
    for (size_t i = 0; i < e.bytes.size(); i++) {
      std::fprintf(f, "%02x%s", static_cast<uint8_t>(e.bytes[i]),
                   (i + 1) % 32 == 0 ? "\n" : "");
    }
    if (e.bytes.size() % 32 != 0) std::fprintf(f, "\n");
    std::fclose(f);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), e.bytes.size());
  }
  return 0;
}

// ----------------------------------------------------------------- main --

int FuzzMain(int argc, char** argv) {
  std::string target;
  std::string corpus_dir;
  std::string write_corpus_dir;
  uint64_t iters = 100000;
  uint64_t seed = 1;
  uint64_t case_index = 0;
  bool have_case = false;
  bool list = false;

  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--target") {
      target = next();
    } else if (a == "--iters") {
      iters = std::strtoull(next(), nullptr, 0);
    } else if (a == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
    } else if (a == "--case") {
      case_index = std::strtoull(next(), nullptr, 0);
      have_case = true;
    } else if (a == "--corpus") {
      corpus_dir = next();
    } else if (a == "--write-corpus") {
      write_corpus_dir = next();
    } else if (a == "--list") {
      list = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }

  if (list) {
    for (const Target& t : kTargets) {
      std::printf("%-18s %s\n", t.name, t.what);
    }
    return 0;
  }
  if (!write_corpus_dir.empty()) return WriteCorpus(write_corpus_dir);

  const Target* tgt = nullptr;
  for (const Target& t : kTargets) {
    if (target == t.name) tgt = &t;
  }
  if (tgt == nullptr) {
    std::fprintf(stderr,
                 "--target required (one of:");
    for (const Target& t : kTargets) std::fprintf(stderr, " %s", t.name);
    std::fprintf(stderr, ")\n");
    return 2;
  }

  InstallCrashReporters();

  Ctx ctx;
  std::vector<std::string> corpus;
  if (!corpus_dir.empty()) {
    const size_t n = testing::LoadHexCorpusDir(corpus_dir, &corpus);
    std::printf("loaded %zu corpus entries from %s\n", n, corpus_dir.c_str());
  }
  ctx.mut = Mutator(&corpus);

  char tmpl[] = "/tmp/harmony_fuzz_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  ctx.tmp_dir = tmpl;

  const uint64_t first = have_case ? case_index : 0;
  const uint64_t last = have_case ? case_index + 1 : iters;
  for (uint64_t k = first; k < last; k++) {
    g_repro_len = static_cast<size_t>(std::snprintf(
        g_repro, sizeof(g_repro),
        "%s\n", testing::ReproduceHint("fuzz_harness", tgt->name, seed, k)
                    .c_str()));
    FuzzRng rng(CaseSeed(seed, k));
    tgt->fn(rng, ctx);
  }
  ::rmdir(ctx.tmp_dir.c_str());
  std::printf("target %s: %" PRIu64 " case(s) passed (seed %" PRIu64 ")\n",
              tgt->name, last - first, seed);
  return 0;
}

}  // namespace
}  // namespace harmony

int main(int argc, char** argv) { return harmony::FuzzMain(argc, argv); }

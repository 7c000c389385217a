#include "chain/block.h"

#include <unordered_map>

#include "common/codec.h"

namespace harmony {

void BlockCodec::EncodeTxn(const TxnRequest& t, std::string* out) {
  codec::AppendU32(out, t.proc_id);
  codec::AppendU64(out, t.client_id);
  codec::AppendU64(out, t.client_seq);
  codec::AppendU64(out, t.submit_time_us);
  codec::AppendU32(out, t.retries);
  codec::AppendU64(out, t.fee);
  codec::AppendU32(out, static_cast<uint32_t>(t.args.ints.size()));
  for (int64_t v : t.args.ints) codec::AppendI64(out, v);
  codec::AppendBytes(out, t.args.blob);
}

size_t BlockCodec::EncodedTxnSize(const TxnRequest& t) {
  // proc_id, client_id, client_seq, submit_time_us, retries, fee, n_ints,
  // blob length: 4 + 8 + 8 + 8 + 4 + 8 + 4 + 4.
  constexpr size_t kFixedBytes = 48;
  return kFixedBytes + 8 * t.args.ints.size() + t.args.blob.size();
}

bool BlockCodec::DecodeTxn(codec::Reader* r, TxnRequest* out) {
  uint32_t n_ints = 0;
  if (!r->ReadU32(&out->proc_id) || !r->ReadU64(&out->client_id) ||
      !r->ReadU64(&out->client_seq) || !r->ReadU64(&out->submit_time_us) ||
      !r->ReadU32(&out->retries) || !r->ReadU64(&out->fee) ||
      !r->ReadU32(&n_ints)) {
    return false;
  }
  // Bound the resize by the bytes actually present: a corrupt count must
  // fail the parse, not size a multi-gigabyte allocation.
  if (static_cast<uint64_t>(n_ints) * 8 > r->remaining()) return false;
  out->args.ints.resize(n_ints);
  for (uint32_t i = 0; i < n_ints; i++) {
    if (!r->ReadI64(&out->args.ints[i])) return false;
  }
  return r->ReadBytes(&out->args.blob);
}

namespace {

void AppendDigest(std::string* out, const Digest& d) {
  out->append(reinterpret_cast<const char*>(d.data()), d.size());
}

void AppendZigzag(std::string* out, int64_t v) {
  codec::AppendVarint(out, codec::ZigzagEncode(v));
}

/// The txn section: one varint column per field, in docs/FORMATS.md
/// order. Deltas use wrapping 64-bit arithmetic, so every value — including
/// 0/UINT64_MAX sequence numbers and submit times after the order time —
/// round-trips exactly.
void EncodeTxnSection(const Block& b, std::string* out) {
  const std::vector<TxnRequest>& txns = b.batch.txns;
  for (const TxnRequest& t : txns) codec::AppendVarint(out, t.proc_id);
  for (const TxnRequest& t : txns) codec::AppendVarint(out, t.client_id);
  // client_seq: delta from the same client's previous txn in this block
  // (base 0), so a client's consecutive submissions cost one byte each.
  std::unordered_map<uint64_t, uint64_t> last_seq;
  for (const TxnRequest& t : txns) {
    uint64_t& prev = last_seq[t.client_id];
    AppendZigzag(out, static_cast<int64_t>(t.client_seq - prev));
    prev = t.client_seq;
  }
  // submit_time_us: distance back from the block's order time.
  for (const TxnRequest& t : txns) {
    AppendZigzag(out, static_cast<int64_t>(b.header.order_time_us -
                                           t.submit_time_us));
  }
  for (const TxnRequest& t : txns) codec::AppendVarint(out, t.retries);
  for (const TxnRequest& t : txns) codec::AppendVarint(out, t.fee);
  for (const TxnRequest& t : txns) {
    codec::AppendVarint(out, t.args.ints.size());
  }
  for (const TxnRequest& t : txns) {
    for (int64_t v : t.args.ints) AppendZigzag(out, v);
  }
  for (const TxnRequest& t : txns) {
    codec::AppendVarint(out, t.args.blob.size());
  }
  for (const TxnRequest& t : txns) out->append(t.args.blob);
}

bool ReadVarintU32(codec::Reader* r, uint32_t* v) {
  uint64_t wide = 0;
  if (!r->ReadVarint(&wide) || wide > UINT32_MAX) return false;
  *v = static_cast<uint32_t>(wide);
  return true;
}

bool ReadZigzag(codec::Reader* r, int64_t* v) {
  uint64_t raw = 0;
  if (!r->ReadVarint(&raw)) return false;
  *v = codec::ZigzagDecode(raw);
  return true;
}

/// Inverse of EncodeTxnSection. Every entry of every column is at least one
/// byte, so each count is checked against the bytes still unread before it
/// sizes anything.
Status DecodeTxnSection(std::string_view section, uint64_t order_time_us,
                        uint32_t count, TxnBatch* batch) {
  const auto malformed = [] {
    return Status::Corruption("txn section truncated or malformed");
  };
  codec::Reader r(section);
  if (count > r.remaining()) {
    return Status::Corruption("txn count exceeds the txn section");
  }
  std::vector<TxnRequest>& txns = batch->txns;
  txns.assign(count, TxnRequest{});
  for (TxnRequest& t : txns) {
    if (!ReadVarintU32(&r, &t.proc_id)) return malformed();
  }
  for (TxnRequest& t : txns) {
    if (!r.ReadVarint(&t.client_id)) return malformed();
  }
  std::unordered_map<uint64_t, uint64_t> last_seq;
  for (TxnRequest& t : txns) {
    int64_t delta = 0;
    if (!ReadZigzag(&r, &delta)) return malformed();
    uint64_t& prev = last_seq[t.client_id];
    t.client_seq = prev + static_cast<uint64_t>(delta);
    prev = t.client_seq;
  }
  for (TxnRequest& t : txns) {
    int64_t back = 0;
    if (!ReadZigzag(&r, &back)) return malformed();
    t.submit_time_us = order_time_us - static_cast<uint64_t>(back);
  }
  for (TxnRequest& t : txns) {
    if (!ReadVarintU32(&r, &t.retries)) return malformed();
  }
  for (TxnRequest& t : txns) {
    if (!r.ReadVarint(&t.fee)) return malformed();
  }
  uint64_t total_ints = 0;
  for (TxnRequest& t : txns) {
    uint32_t n = 0;
    if (!ReadVarintU32(&r, &n)) return malformed();
    total_ints += n;
    if (total_ints > r.remaining()) {
      return Status::Corruption("int count exceeds the txn section");
    }
    t.args.ints.resize(n);
  }
  for (TxnRequest& t : txns) {
    for (int64_t& v : t.args.ints) {
      if (!ReadZigzag(&r, &v)) return malformed();
    }
  }
  uint64_t total_blob = 0;
  for (TxnRequest& t : txns) {
    uint64_t len = 0;
    if (!r.ReadVarint(&len)) return malformed();
    // Each check bounds its operand by the section size, so the sum
    // cannot wrap.
    if (len > r.remaining() || total_blob + len > r.remaining()) {
      return Status::Corruption("blob bytes exceed the txn section");
    }
    total_blob += len;
    t.args.blob.resize(len);
  }
  for (TxnRequest& t : txns) {
    if (!r.ReadFixed(t.args.blob.data(), t.args.blob.size())) {
      return malformed();
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing txn-section bytes");
  }
  return Status::OK();
}

/// Decode without the digest rebuild: header varints, prev_hash, signature,
/// then the compression envelope over the txn section.
Status ParseRecord(std::string_view bytes, Block* out) {
  codec::Reader r(bytes);
  uint64_t block_id = 0, first_tid = 0, order_time = 0;
  uint32_t txn_count = 0;
  if (!r.ReadVarint(&block_id) || !r.ReadVarint(&first_tid) ||
      !ReadVarintU32(&r, &txn_count) || !r.ReadVarint(&order_time)) {
    return Status::Corruption("block header truncated");
  }
  out->header.block_id = block_id;
  out->header.first_tid = first_tid;
  out->header.txn_count = txn_count;
  out->header.order_time_us = order_time;
  for (Digest* d : {&out->header.prev_hash, &out->header.signature}) {
    if (!r.ReadFixed(d->data(), d->size())) {
      return Status::Corruption("digest truncated");
    }
  }
  out->batch.block_id = block_id;
  out->batch.first_tid = first_tid;
  // Compression envelope: u8 codec, varint raw section length, then the
  // stored section through the end of the payload.
  uint8_t codec_byte = 0;
  uint64_t raw_len = 0;
  if (!r.ReadU8(&codec_byte) || !r.ReadVarint(&raw_len)) {
    return Status::Corruption("compression envelope truncated");
  }
  if (codec_byte > static_cast<uint8_t>(Compression::kHlz)) {
    return Status::Corruption("unknown block compression codec " +
                              std::to_string(codec_byte));
  }
  const std::string_view stored = bytes.substr(bytes.size() - r.remaining());
  std::string section;
  HARMONY_RETURN_NOT_OK(DecompressPayload(
      static_cast<Compression>(codec_byte), stored, raw_len, &section));
  return DecodeTxnSection(section, order_time, txn_count, &out->batch);
}

}  // namespace

std::string BlockCodec::EncodeRecord(const Block& b, Compression codec) {
  std::string out;
  codec::AppendVarint(&out, b.header.block_id);
  codec::AppendVarint(&out, b.header.first_tid);
  codec::AppendVarint(&out, b.header.txn_count);
  codec::AppendVarint(&out, b.header.order_time_us);
  AppendDigest(&out, b.header.prev_hash);
  AppendDigest(&out, b.header.signature);

  std::string section;
  EncodeTxnSection(b, &section);
  const size_t raw_len = section.size();
  std::string stored;
  if (codec != Compression::kNone) CompressPayload(codec, section, &stored);
  // Per-block fallback: a section compression cannot shrink is stored raw,
  // so the envelope never costs more than its codec byte and raw length.
  if (codec == Compression::kNone || stored.size() >= section.size()) {
    codec = Compression::kNone;
    stored = std::move(section);
  }
  codec::AppendU8(&out, static_cast<uint8_t>(codec));
  codec::AppendVarint(&out, raw_len);
  out.append(stored);  // the stored section runs to the end of the payload
  return out;
}

Status BlockCodec::Decode(std::string_view bytes, Block* out) {
  HARMONY_RETURN_NOT_OK(ParseRecord(bytes, out));
  out->header.txn_root = TxnRoot(out->batch);
  out->header.block_hash = HashHeader(out->header);
  return Status::OK();
}

Status BlockCodec::Validate(std::string_view bytes, BlockId* id) {
  Block b;
  HARMONY_RETURN_NOT_OK(ParseRecord(bytes, &b));
  *id = b.header.block_id;
  return Status::OK();
}

bool BlockCodec::PeekBlockId(std::string_view bytes, BlockId* id) {
  codec::Reader r(bytes);
  return r.ReadVarint(id);
}

Digest BlockCodec::TxnRoot(const TxnBatch& batch) {
  Sha256 h;
  h.UpdateInt(batch.block_id);
  h.UpdateInt(batch.first_tid);
  std::string buf;
  for (const TxnRequest& t : batch.txns) {
    buf.clear();
    EncodeTxn(t, &buf);
    h.Update(buf);
  }
  return h.Finalize();
}

Digest BlockCodec::HashHeader(const BlockHeader& h) {
  Sha256 s;
  s.UpdateInt(h.block_id);
  s.UpdateInt(h.first_tid);
  s.UpdateInt(h.txn_count);
  s.Update(h.prev_hash.data(), h.prev_hash.size());
  s.Update(h.txn_root.data(), h.txn_root.size());
  return s.Finalize();
}

Block BlockBuilder::Seal(TxnBatch batch, uint64_t order_time_us) {
  Block b;
  b.header.block_id = batch.block_id;
  b.header.first_tid = batch.first_tid;
  b.header.txn_count = static_cast<uint32_t>(batch.txns.size());
  b.header.order_time_us = order_time_us;
  b.header.prev_hash = prev_hash_;
  b.header.txn_root = BlockCodec::TxnRoot(batch);
  b.header.block_hash = BlockCodec::HashHeader(b.header);
  b.header.signature =
      HmacSha256(secret_, b.header.block_hash.data(), b.header.block_hash.size());
  b.batch = std::move(batch);
  prev_hash_ = b.header.block_hash;
  return b;
}

Status ChainVerifier::Verify(const Block& b) {
  if (b.header.prev_hash != expected_prev_) {
    return Status::Corruption("hash chain broken at block " +
                              std::to_string(b.header.block_id));
  }
  if (BlockCodec::TxnRoot(b.batch) != b.header.txn_root) {
    return Status::Corruption("transaction root mismatch");
  }
  if (BlockCodec::HashHeader(b.header) != b.header.block_hash) {
    return Status::Corruption("block hash mismatch");
  }
  const Digest expect_sig =
      HmacSha256(secret_, b.header.block_hash.data(), b.header.block_hash.size());
  if (expect_sig != b.header.signature) {
    return Status::Corruption("bad orderer signature");
  }
  expected_prev_ = b.header.block_hash;
  return Status::OK();
}

Status ChainVerifier::VerifyChain(const std::vector<Block>& blocks,
                                  const std::string& secret) {
  ChainVerifier v(secret);
  // A chain whose first record is past block 1 is a truncated or
  // snapshot-installed log: the records below it were retired, so the audit
  // anchors at the first record's stated predecessor (every surviving
  // record is still hash- and signature-checked).
  if (!blocks.empty() && blocks.front().header.block_id > 1) {
    v.Reset(blocks.front().header.prev_hash);
  }
  for (const Block& b : blocks) {
    HARMONY_RETURN_NOT_OK(v.Verify(b));
  }
  return Status::OK();
}

}  // namespace harmony

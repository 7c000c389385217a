#include "chain/block.h"

#include <algorithm>
#include <unordered_map>

#include "common/codec.h"

namespace harmony {

void BlockCodec::EncodeTxn(const TxnRequest& t, std::string* out) {
  codec::AppendU32(out, t.proc_id);
  codec::AppendU64(out, t.client_id);
  codec::AppendU64(out, t.client_seq);
  codec::AppendU32(out, static_cast<uint32_t>(t.args.ints.size()));
  for (int64_t v : t.args.ints) codec::AppendI64(out, v);
  codec::AppendBytes(out, t.args.blob);
}

size_t BlockCodec::EncodedTxnSize(const TxnRequest& t) {
  // proc_id, client_id, client_seq, n_ints, blob length: 4 + 8 + 8 + 4 + 4.
  constexpr size_t kFixedBytes = 28;
  return kFixedBytes + 8 * t.args.ints.size() + t.args.blob.size();
}

bool BlockCodec::DecodeTxn(codec::Reader* r, TxnRequest* out) {
  uint32_t n_ints = 0;
  if (!r->ReadU32(&out->proc_id) || !r->ReadU64(&out->client_id) ||
      !r->ReadU64(&out->client_seq) || !r->ReadU32(&n_ints)) {
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

/// The flags byte after block_id: the low bits name the section's codec,
/// kDerivedFlag says the header is derived from the predecessor's, and
/// kRefsFlag that a varint reach follows the signature and the section
/// opens with the reference columns.
constexpr uint8_t kCodecMask = 0x3F;
constexpr uint8_t kDerivedFlag = 0x40;
constexpr uint8_t kRefsFlag = 0x80;

void AppendDigest(std::string* out, const Digest& d) {
  out->append(reinterpret_cast<const char*>(d.data()), d.size());
}

void AppendZigzag(std::string* out, int64_t v) {
  codec::AppendVarint(out, codec::ZigzagEncode(v));
}

/// True when `a` and `b` have equal canonical EncodeTxn bytes.
bool SameCanonicalTxn(const TxnRequest& a, const TxnRequest& b) {
  return a.client_id == b.client_id && a.client_seq == b.client_seq &&
         a.proc_id == b.proc_id && a.args.ints == b.args.ints &&
         a.args.blob == b.args.blob;
}

/// Where a stored reference points: `distance` blocks back (0 = stored in
/// full), txn `index` of that block.
struct TxnRef {
  uint32_t distance = 0;
  uint32_t index = 0;
};

struct ClientKey {
  uint64_t client_id;
  uint64_t client_seq;
  bool operator==(const ClientKey& o) const {
    return client_id == o.client_id && client_seq == o.client_seq;
  }
};

struct ClientKeyHash {
  size_t operator()(const ClientKey& k) const {
    return std::hash<uint64_t>()(k.client_id * 0x9E3779B97F4A7C15ull ^
                                 k.client_seq);
  }
};

/// The reference for each txn of `b` that repeats a txn in `window`: the
/// newest earlier txn with the same canonical bytes wins, so retries reach
/// back as little as they can. Only retried txns (in-memory retries > 0)
/// are looked up, and the scan stops once each has found its match.
std::vector<TxnRef> FindRefs(const Block& b, const RefWindow& window) {
  const std::vector<TxnRequest>& txns = b.batch.txns;
  std::vector<TxnRef> refs(txns.size());
  const BlockId id = b.header.block_id;
  if (window.empty() || window.front_id() >= id) return refs;
  // Wanted (client, seq) -> position in `b` (the first, if a block holds
  // the same txn twice; the other copy is stored in full).
  std::unordered_map<ClientKey, uint32_t, ClientKeyHash> wanted;
  for (uint32_t i = 0; i < txns.size(); i++) {
    const TxnRequest& t = txns[i];
    if (t.retries == 0) continue;
    wanted.emplace(ClientKey{t.client_id, t.client_seq}, i);
  }
  const BlockId newest = std::min(window.back_id(), id - 1);
  const BlockId oldest =
      std::max(window.front_id(), id > kMaxRefReach ? id - kMaxRefReach : 1);
  for (BlockId src = newest; src >= oldest && !wanted.empty(); src--) {
    const std::vector<TxnRequest>& earlier = *window.Find(src);
    for (uint32_t j = 0; j < earlier.size(); j++) {
      const TxnRequest& e = earlier[j];
      auto it = wanted.find(ClientKey{e.client_id, e.client_seq});
      if (it == wanted.end() || !SameCanonicalTxn(txns[it->second], e)) {
        continue;
      }
      refs[it->second] = TxnRef{static_cast<uint32_t>(id - src), j};
      wanted.erase(it);
    }
  }
  return refs;
}

/// The fixed integer columns of the txn section, in stored order (the
/// blob bytes follow the last); bit i of the section's first byte says
/// column i is bit-packed. The position columns of args.ints sit between
/// kNInts and kBlobLen.
enum FixedColumn {
  kProcId,
  kClientId,
  kClientSeq,
  kNInts,
  kBlobLen,
  kFixedColumns,
};

/// How a column's values read: plain unsigned; signed (int64 bits, zigzag
/// as a varint and for a packed column's base); or client_seq, which its
/// varint mode stores as zigzag per-client deltas and its packed mode raw.
enum class ColumnKind { kUnsigned, kSigned, kSeq };

/// One integer column as the encoder holds it: `n` values (int64 bits for
/// a signed column) in a buffer the section encoder owns.
struct IntColumn {
  ColumnKind kind = ColumnKind::kUnsigned;
  const uint64_t* values = nullptr;
  size_t n = 0;
  const uint64_t* deltas = nullptr;  ///< kSeq: each entry's varint value

  uint64_t VarintAt(size_t i) const {
    switch (kind) {
      case ColumnKind::kSigned:
        return codec::ZigzagEncode(static_cast<int64_t>(values[i]));
      case ColumnKind::kSeq:
        return deltas[i];
      default:
        return values[i];
    }
  }
  /// The stored form of a packed column's base.
  uint64_t StoredBase(uint64_t base) const {
    return kind == ColumnKind::kSigned
               ? codec::ZigzagEncode(static_cast<int64_t>(base))
               : base;
  }
};

/// A column's packed layout: every entry is `base + offset`, each offset
/// `width` bits.
struct Packing {
  bool packed = false;
  uint64_t base = 0;
  uint8_t width = 0;
};

/// Sizes both modes of `c` in one pass and keeps the smaller; a tie, and an
/// empty column, stay varint.
Packing ChoosePacking(const IntColumn& c) {
  Packing p;
  if (c.n == 0) return p;
  // Flipping the sign bit orders int64 bits as unsigned values.
  const uint64_t flip = c.kind == ColumnKind::kSigned ? uint64_t{1} << 63 : 0;
  uint64_t lo = c.values[0] ^ flip, hi = lo;
  for (size_t i = 1; i < c.n; i++) {
    lo = std::min(lo, c.values[i] ^ flip);
    hi = std::max(hi, c.values[i] ^ flip);
  }
  size_t varint_bytes = 0;
  for (size_t i = 0; i < c.n; i++) {
    varint_bytes += codec::VarintSize(c.VarintAt(i));
  }
  p.base = lo ^ flip;
  const uint64_t range = hi - lo;
  p.width = static_cast<uint8_t>(range == 0 ? 0 : 64 - __builtin_clzll(range));
  const size_t packed_bytes = codec::VarintSize(c.StoredBase(p.base)) + 1 +
                              (c.n * p.width + 7) / 8;
  p.packed = packed_bytes < varint_bytes;
  return p;
}

void AppendColumn(const IntColumn& c, const Packing& p, std::string* out) {
  if (!p.packed) {
    for (size_t i = 0; i < c.n; i++) codec::AppendVarint(out, c.VarintAt(i));
    return;
  }
  codec::AppendVarint(out, c.StoredBase(p.base));
  codec::AppendU8(out, p.width);
  // Each `v - base` in `width` bits, LSB-first, through an accumulator
  // that holds fewer than 8 pending bits between values; the padding bits
  // of the last byte stay zero.
  const size_t start = out->size();
  out->resize(start + (c.n * p.width + 7) / 8);
  uint8_t* bits = reinterpret_cast<uint8_t*>(out->data() + start);
  unsigned __int128 acc = 0;
  unsigned pending = 0;
  for (size_t i = 0; i < c.n; i++) {
    acc |= static_cast<unsigned __int128>(c.values[i] - p.base) << pending;
    for (pending += p.width; pending >= 8; pending -= 8, acc >>= 8) {
      *bits++ = static_cast<uint8_t>(acc);
    }
  }
  if (pending > 0) *bits = static_cast<uint8_t>(acc);
}

/// Chooses each column's mode and appends the mode bitmap: bit i % 8 of
/// byte i / 8 set when column i is bit-packed, the padding bits zero.
std::vector<Packing> AppendModes(const std::vector<IntColumn>& cols,
                                 std::string* out) {
  std::vector<Packing> packing(cols.size());
  std::string bitmap((cols.size() + 7) / 8, '\0');
  for (size_t i = 0; i < cols.size(); i++) {
    packing[i] = ChoosePacking(cols[i]);
    if (packing[i].packed) bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
  }
  out->append(bitmap);
  return packing;
}

/// The txn section: with references, a distance column over every txn and
/// an index column over the referencing ones; then the integer columns of
/// the txns stored in full, in docs/FORMATS.md order, each as varints or
/// bit-packed (a mode bitmap ahead of the fixed columns, another ahead of
/// the args.ints position columns), then the blob bytes. Deltas and packed
/// offsets use wrapping 64-bit arithmetic, so every value — including
/// 0/UINT64_MAX sequence numbers and INT64_MIN/INT64_MAX ints — round-trips
/// exactly.
void EncodeTxnSection(const Block& b, const std::vector<TxnRef>& refs,
                      uint32_t reach, std::string* out) {
  std::vector<const TxnRequest*> txns;
  for (size_t i = 0; i < refs.size(); i++) {
    if (refs[i].distance == 0) txns.push_back(&b.batch.txns[i]);
  }
  if (reach > 0) {
    for (const TxnRef& r : refs) codec::AppendVarint(out, r.distance);
    for (const TxnRef& r : refs) {
      if (r.distance != 0) codec::AppendVarint(out, r.index);
    }
  }
  if (txns.empty()) return;
  // One buffer holds every fixed column, then client_seq's varint deltas.
  const size_t n = txns.size();
  std::vector<uint64_t> cells((kFixedColumns + 1) * n);
  std::vector<IntColumn> fixed(kFixedColumns);
  for (int c = 0; c < kFixedColumns; c++) {
    fixed[c].values = &cells[c * n];
    fixed[c].n = n;
  }
  fixed[kClientSeq].kind = ColumnKind::kSeq;
  fixed[kClientSeq].deltas = &cells[kFixedColumns * n];
  const auto cell = [&cells, n](int column, size_t i) -> uint64_t& {
    return cells[column * n + i];
  };
  // client_seq's varint mode stores the delta from the same client's
  // previous txn in this block (base 0), so a client's consecutive
  // submissions cost one byte each.
  std::unordered_map<uint64_t, uint64_t> last_seq;
  std::vector<size_t> per_position;  // entries of each position column
  for (size_t i = 0; i < n; i++) {
    const TxnRequest* t = txns[i];
    cell(kProcId, i) = t->proc_id;
    cell(kClientId, i) = t->client_id;
    cell(kClientSeq, i) = t->client_seq;
    uint64_t& prev = last_seq[t->client_id];
    cell(kFixedColumns, i) =
        codec::ZigzagEncode(static_cast<int64_t>(t->client_seq - prev));
    prev = t->client_seq;
    cell(kNInts, i) = t->args.ints.size();
    cell(kBlobLen, i) = t->args.blob.size();
    if (t->args.ints.size() > per_position.size()) {
      per_position.resize(t->args.ints.size());
    }
    for (size_t p = 0; p < t->args.ints.size(); p++) per_position[p]++;
  }
  // One bitmap covers the fixed columns; the blob lengths follow the
  // position columns, which carry their own.
  const std::vector<Packing> packing = AppendModes(fixed, out);
  for (int c = 0; c < kBlobLen; c++) AppendColumn(fixed[c], packing[c], out);
  if (!per_position.empty()) {
    // Column p: ints[p] of every txn with more than p ints, in block order,
    // the columns one after another in one buffer.
    std::vector<IntColumn> columns(per_position.size());
    std::vector<size_t> next(per_position.size());
    size_t total = 0;
    for (size_t p = 0; p < columns.size(); p++) {
      next[p] = total;
      total += per_position[p];
    }
    std::vector<uint64_t> ints(total);
    for (size_t p = 0; p < columns.size(); p++) {
      columns[p] = IntColumn{ColumnKind::kSigned, &ints[next[p]],
                             per_position[p], nullptr};
    }
    for (const TxnRequest* t : txns) {
      for (size_t p = 0; p < t->args.ints.size(); p++) {
        ints[next[p]++] = static_cast<uint64_t>(t->args.ints[p]);
      }
    }
    const std::vector<Packing> int_packing = AppendModes(columns, out);
    for (size_t p = 0; p < columns.size(); p++) {
      AppendColumn(columns[p], int_packing[p], out);
    }
  }
  AppendColumn(fixed[kBlobLen], packing[kBlobLen], out);
  for (const TxnRequest* t : txns) out->append(t->args.blob);
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

/// Resolves the reference columns: each referencing txn becomes a copy of
/// the window txn it names. Appends the txns
/// stored in full to `literals`. Every distance must lie within `reach`,
/// the farthest must equal it, and every target must be in `window`.
Status DecodeRefColumns(codec::Reader* r, BlockId id, uint32_t reach,
                        const RefWindow* window, std::vector<TxnRequest>* txns,
                        std::vector<TxnRequest*>* literals) {
  std::vector<uint32_t> distance(txns->size());
  uint32_t farthest = 0;
  for (uint32_t& d : distance) {
    if (!ReadVarintU32(r, &d)) {
      return Status::Corruption("reference column truncated or malformed");
    }
    if (d > reach) {
      return Status::Corruption("reference beyond the record's reach");
    }
    farthest = std::max(farthest, d);
  }
  if (farthest != reach) {
    return Status::Corruption("reach disagrees with the references");
  }
  for (size_t i = 0; i < distance.size(); i++) {
    TxnRequest& t = (*txns)[i];
    if (distance[i] == 0) {
      literals->push_back(&t);
      continue;
    }
    uint32_t index = 0;
    if (!ReadVarintU32(r, &index)) {
      return Status::Corruption("reference column truncated or malformed");
    }
    const std::vector<TxnRequest>* src =
        window != nullptr && distance[i] < id ? window->Find(id - distance[i])
                                              : nullptr;
    if (src == nullptr || index >= src->size()) {
      return Status::Corruption("reference to a txn outside the window");
    }
    t = (*src)[index];
  }
  return Status::OK();
}

/// Reads `width`-bit values LSB-first from `bits`.
class BitReader {
 public:
  BitReader(std::string_view bits, uint8_t width)
      : bits_(bits), width_(width) {}
  uint64_t Get() {
    uint64_t v = 0;
    for (unsigned got = 0; got < width_;) {
      const unsigned take = std::min<unsigned>(width_ - got, 8 - shift_);
      const uint64_t byte = static_cast<uint8_t>(bits_[pos_]) >> shift_;
      v |= (byte & ((1u << take) - 1)) << got;
      got += take;
      shift_ += take;
      if (shift_ == 8) {
        shift_ = 0;
        pos_++;
      }
    }
    return v;
  }
  /// True when the bits past the last value read are all zero.
  bool PaddingIsZero() const {
    return shift_ == 0 || (static_cast<uint8_t>(bits_[pos_]) >> shift_) == 0;
  }

 private:
  std::string_view bits_;
  uint8_t width_;
  size_t pos_ = 0;
  unsigned shift_ = 0;
};

/// Reads `n` entries of one column in the given mode into `out`, as
/// IntColumn holds them: a kSigned column yields int64 bits either way, and
/// a kSeq column its zigzag-decoded deltas in varint mode and raw values
/// when packed. A packed column is its base, a width of at most 64 and
/// ⌈n·width/8⌉ bytes whose padding bits are zero.
bool ReadColumn(codec::Reader* r, bool packed, ColumnKind kind, size_t n,
                std::vector<uint64_t>* out) {
  out->resize(n);
  if (!packed) {
    for (uint64_t& v : *out) {
      if (!r->ReadVarint(&v)) return false;
      if (kind != ColumnKind::kUnsigned) {
        v = static_cast<uint64_t>(codec::ZigzagDecode(v));
      }
    }
    return true;
  }
  uint64_t base = 0;
  uint8_t width = 0;
  if (!r->ReadVarint(&base) || !r->ReadU8(&width) || width > 64) return false;
  if (kind == ColumnKind::kSigned) {
    base = static_cast<uint64_t>(codec::ZigzagDecode(base));
  }
  std::string_view bits;
  if (!r->ReadView((n * width + 7) / 8, &bits)) return false;
  BitReader reader(bits, width);
  for (uint64_t& v : *out) v = base + reader.Get();
  return reader.PaddingIsZero();
}

/// Reads a mode bitmap over `n` columns; its padding bits must be zero.
bool ReadModes(codec::Reader* r, size_t n, std::vector<bool>* packed) {
  std::string_view bitmap;
  if (!r->ReadView((n + 7) / 8, &bitmap)) return false;
  packed->resize(n);
  for (size_t i = 0; i < n; i++) {
    (*packed)[i] = ((static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1) != 0;
  }
  return n % 8 == 0 ||
         (static_cast<uint8_t>(bitmap.back()) >> (n % 8)) == 0;
}

/// The literal columns of `txns`, the txns stored in full (at least one).
/// Their count is at most kMaxBlockTxns (ParsePrefix), and the int total is
/// checked against kMaxBlockInts before any txn's ints are sized: a packed
/// column may store no bytes per entry, so only the number of position
/// columns and the blob lengths are bounded by the bytes still unread.
Status DecodeLiteralColumns(codec::Reader* r,
                            const std::vector<TxnRequest*>& txns,
                            SectionStats* stats) {
  const auto malformed = [] {
    return Status::Corruption("txn section truncated or malformed");
  };
  std::vector<bool> packed;
  if (!ReadModes(r, kFixedColumns, &packed)) return malformed();
  std::vector<uint64_t> col;
  const auto read = [&](int c, ColumnKind kind) {
    return ReadColumn(r, packed[c], kind, txns.size(), &col);
  };
  const auto fits_u32 = [&col] {
    return std::all_of(col.begin(), col.end(),
                       [](uint64_t v) { return v <= UINT32_MAX; });
  };
  if (!read(kProcId, ColumnKind::kUnsigned) || !fits_u32()) {
    return malformed();
  }
  for (size_t i = 0; i < txns.size(); i++) {
    txns[i]->proc_id = static_cast<uint32_t>(col[i]);
  }
  if (!read(kClientId, ColumnKind::kUnsigned)) return malformed();
  for (size_t i = 0; i < txns.size(); i++) txns[i]->client_id = col[i];
  if (!read(kClientSeq, ColumnKind::kSeq)) return malformed();
  std::unordered_map<uint64_t, uint64_t> last_seq;
  for (size_t i = 0; i < txns.size(); i++) {
    TxnRequest* t = txns[i];
    if (packed[kClientSeq]) {
      t->client_seq = col[i];
      continue;
    }
    uint64_t& prev = last_seq[t->client_id];
    t->client_seq = prev + col[i];
    prev = t->client_seq;
  }
  if (!read(kNInts, ColumnKind::kUnsigned) || !fits_u32()) {
    return malformed();
  }
  uint64_t total_ints = 0, positions = 0;
  for (uint64_t n : col) {
    total_ints += n;
    positions = std::max(positions, n);
  }
  if (total_ints > kMaxBlockInts) {
    return Status::Corruption("int count exceeds the block limit");
  }
  // Every position column costs at least one byte.
  if (positions > r->remaining()) {
    return Status::Corruption("int count exceeds the txn section");
  }
  std::vector<TxnRequest*> active;
  for (size_t i = 0; i < txns.size(); i++) {
    txns[i]->args.ints.resize(col[i]);
    if (col[i] > 0) active.push_back(txns[i]);
  }
  std::vector<bool> int_packed;
  if (!ReadModes(r, positions, &int_packed)) return malformed();
  for (size_t p = 0; p < positions; p++) {
    if (!ReadColumn(r, int_packed[p], ColumnKind::kSigned, active.size(),
                    &col)) {
      return malformed();
    }
    for (size_t i = 0; i < active.size(); i++) {
      active[i]->args.ints[p] = static_cast<int64_t>(col[i]);
    }
    // Txns with no int past p drop out of the later columns.
    active.erase(std::remove_if(active.begin(), active.end(),
                                [p](const TxnRequest* t) {
                                  return t->args.ints.size() == p + 1;
                                }),
                 active.end());
  }
  if (!read(kBlobLen, ColumnKind::kUnsigned)) return malformed();
  uint64_t total_blob = 0;
  for (size_t i = 0; i < txns.size(); i++) {
    // Each check bounds its operand by the section size, so the sum
    // cannot wrap.
    if (col[i] > r->remaining() || total_blob + col[i] > r->remaining()) {
      return Status::Corruption("blob bytes exceed the txn section");
    }
    total_blob += col[i];
    txns[i]->args.blob.resize(col[i]);
  }
  for (TxnRequest* t : txns) {
    if (!r->ReadFixed(t->args.blob.data(), t->args.blob.size())) {
      return malformed();
    }
  }
  if (stats != nullptr) {
    stats->columns = kFixedColumns + static_cast<uint32_t>(positions);
    stats->packed_columns = static_cast<uint32_t>(
        std::count(packed.begin(), packed.end(), true) +
        std::count(int_packed.begin(), int_packed.end(), true));
  }
  return Status::OK();
}

/// Inverse of EncodeTxnSection.
Status DecodeTxnSection(std::string_view section, const BlockHeader& h,
                        uint32_t reach, const RefWindow* window,
                        TxnBatch* batch, SectionStats* stats) {
  codec::Reader r(section);
  std::vector<TxnRequest>& all = batch->txns;
  all.assign(h.txn_count, TxnRequest{});
  std::vector<TxnRequest*> txns;
  if (reach > 0) {
    HARMONY_RETURN_NOT_OK(
        DecodeRefColumns(&r, h.block_id, reach, window, &all, &txns));
  } else {
    for (TxnRequest& t : all) txns.push_back(&t);
  }
  if (stats != nullptr) *stats = SectionStats{};
  if (!txns.empty()) {
    HARMONY_RETURN_NOT_OK(DecodeLiteralColumns(&r, txns, stats));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing txn-section bytes");
  }
  return Status::OK();
}

/// A record's prefix: everything before the stored section. A derived
/// header holds its first_tid and order_time_us deltas until
/// ResolveHeader applies them to the predecessor's.
struct Prefix {
  BlockHeader header;
  Compression codec = Compression::kNone;
  RecordShape shape;
  int64_t tid_delta = 0;
  int64_t time_delta = 0;
};

/// Reads block_id, the flags byte, the full or derived header fields, the
/// signature, the reach when flagged, and the raw section length.
Status ParsePrefix(std::string_view bytes, Prefix* p) {
  const auto truncated = [] {
    return Status::Corruption("block header truncated");
  };
  codec::Reader r(bytes);
  BlockHeader& h = p->header;
  uint8_t flags = 0;
  if (!r.ReadVarint(&h.block_id) || !r.ReadU8(&flags)) return truncated();
  const uint8_t codec_byte = flags & kCodecMask;
  if (codec_byte > static_cast<uint8_t>(Compression::kHlz)) {
    return Status::Corruption("unknown block compression codec " +
                              std::to_string(codec_byte));
  }
  p->codec = static_cast<Compression>(codec_byte);
  p->shape.block_id = h.block_id;
  p->shape.derived = (flags & kDerivedFlag) != 0;
  if (p->shape.derived) {
    if (!ReadZigzag(&r, &p->tid_delta) ||
        !ReadVarintU32(&r, &p->shape.txn_count) ||
        !ReadZigzag(&r, &p->time_delta)) {
      return truncated();
    }
  } else if (!r.ReadVarint(&h.first_tid) ||
             !ReadVarintU32(&r, &p->shape.txn_count) ||
             !r.ReadVarint(&h.order_time_us) ||
             !r.ReadFixed(h.prev_hash.data(), h.prev_hash.size())) {
    return truncated();
  }
  if (p->shape.txn_count > kMaxBlockTxns) {
    return Status::Corruption("txn count " +
                              std::to_string(p->shape.txn_count) +
                              " exceeds the block limit");
  }
  h.txn_count = p->shape.txn_count;
  if (!r.ReadFixed(h.signature.data(), h.signature.size())) return truncated();
  uint32_t& reach = p->shape.ref_reach;
  if ((flags & kRefsFlag) != 0) {
    if (!ReadVarintU32(&r, &reach)) return truncated();
    if (reach == 0 || reach > kMaxRefReach) {
      return Status::Corruption("reference reach " + std::to_string(reach) +
                                " out of range");
    }
  }
  if (!r.ReadVarint(&p->shape.raw_len)) {
    return Status::Corruption("compression envelope truncated");
  }
  p->shape.section_offset = bytes.size() - r.remaining();
  return Status::OK();
}

/// Derives a derived header's first_tid, order_time_us and prev_hash from
/// its predecessor in `window`; a full header needs nothing.
Status ResolveHeader(const RefWindow* window, Prefix* p) {
  if (!p->shape.derived) return Status::OK();
  BlockHeader& h = p->header;
  const BlockHeader* prev = window != nullptr && h.block_id > 1
                                ? window->Header(h.block_id - 1)
                                : nullptr;
  if (prev == nullptr) {
    return Status::Corruption("derived header without its predecessor");
  }
  // Wrapping arithmetic, as in the encoder: every value round-trips.
  h.first_tid = prev->first_tid + prev->txn_count +
                static_cast<uint64_t>(p->tid_delta);
  h.order_time_us = prev->order_time_us + static_cast<uint64_t>(p->time_delta);
  h.prev_hash = prev->block_hash;
  return Status::OK();
}

}  // namespace

void RefWindow::Push(const Block& b) {
  if (blocks_.empty() || b.header.block_id != back_id() + 1) {
    blocks_.clear();
    front_id_ = b.header.block_id;
  }
  blocks_.push_back(Entry{b.header, b.batch.txns});
  // Only the canonical fields matter to a reference, and a reference
  // decodes to exactly them: drop the in-process metadata a decoded txn
  // never carries.
  for (TxnRequest& t : blocks_.back().txns) {
    t.submit_time_us = 0;
    t.retries = 0;
    t.trace = obs::TraceClock{};
  }
  if (blocks_.size() > kMaxRefReach) DropBefore(front_id_ + 1);
}

void RefWindow::DropBefore(BlockId id) {
  while (!blocks_.empty() && front_id_ < id) {
    blocks_.pop_front();
    front_id_++;
  }
}

const RefWindow::Entry* RefWindow::At(BlockId id) const {
  if (blocks_.empty() || id < front_id_ || id > back_id()) return nullptr;
  return &blocks_[id - front_id_];
}

const std::vector<TxnRequest>* RefWindow::Find(BlockId id) const {
  const Entry* e = At(id);
  return e != nullptr ? &e->txns : nullptr;
}

const BlockHeader* RefWindow::Header(BlockId id) const {
  const Entry* e = At(id);
  return e != nullptr ? &e->header : nullptr;
}

bool RefWindow::Follows(const BlockHeader& h) const {
  const BlockHeader* prev = h.block_id > 1 ? Header(h.block_id - 1) : nullptr;
  return prev != nullptr && prev->block_hash != Digest{} &&
         prev->block_hash == h.prev_hash;
}

std::string BlockCodec::EncodeRecord(const Block& b, Compression codec,
                                     const RefWindow* refs) {
  const BlockHeader& h = b.header;
  const std::vector<TxnRef> found = refs != nullptr
                                        ? FindRefs(b, *refs)
                                        : std::vector<TxnRef>(b.batch.txns.size());
  uint32_t reach = 0;
  for (const TxnRef& r : found) reach = std::max(reach, r.distance);
  std::string section;
  EncodeTxnSection(b, found, reach, &section);
  const size_t raw_len = section.size();
  std::string stored;
  if (codec != Compression::kNone) CompressPayload(codec, section, &stored);
  // Per-block fallback: a section compression cannot shrink is stored raw,
  // so the envelope never costs more than its codec bits and raw length.
  if (codec == Compression::kNone || stored.size() >= section.size()) {
    codec = Compression::kNone;
    stored = std::move(section);
  }

  const bool derived = refs != nullptr && refs->Follows(h);
  std::string out;
  codec::AppendVarint(&out, h.block_id);
  codec::AppendU8(&out, static_cast<uint8_t>(codec) |
                            (derived ? kDerivedFlag : uint8_t{0}) |
                            (reach > 0 ? kRefsFlag : uint8_t{0}));
  if (derived) {
    // prev_hash is the predecessor's block_hash; first_tid and the order
    // time are deltas from where the predecessor leaves them (wrapping).
    const BlockHeader& prev = *refs->Header(h.block_id - 1);
    AppendZigzag(&out, static_cast<int64_t>(
                           h.first_tid - (prev.first_tid + prev.txn_count)));
    codec::AppendVarint(&out, h.txn_count);
    AppendZigzag(&out,
                 static_cast<int64_t>(h.order_time_us - prev.order_time_us));
  } else {
    codec::AppendVarint(&out, h.first_tid);
    codec::AppendVarint(&out, h.txn_count);
    codec::AppendVarint(&out, h.order_time_us);
    AppendDigest(&out, h.prev_hash);
  }
  AppendDigest(&out, h.signature);
  if (reach > 0) codec::AppendVarint(&out, reach);
  codec::AppendVarint(&out, raw_len);
  out.append(stored);  // the stored section runs to the end of the payload
  return out;
}

Status BlockCodec::Decode(std::string_view bytes, Block* out,
                          const RefWindow* refs, SectionStats* stats) {
  // The prefix, the resolved header, then the compression envelope over the
  // txn section, which runs through the end of the payload.
  Prefix p;
  HARMONY_RETURN_NOT_OK(ParsePrefix(bytes, &p));
  HARMONY_RETURN_NOT_OK(ResolveHeader(refs, &p));
  out->header = p.header;
  out->batch.block_id = out->header.block_id;
  out->batch.first_tid = out->header.first_tid;
  std::string section;
  HARMONY_RETURN_NOT_OK(DecompressPayload(
      p.codec, bytes.substr(p.shape.section_offset), p.shape.raw_len,
      &section));
  HARMONY_RETURN_NOT_OK(DecodeTxnSection(section, out->header,
                                         p.shape.ref_reach, refs, &out->batch,
                                         stats));
  out->header.txn_root = TxnRoot(out->batch);
  out->header.block_hash = HashHeader(out->header);
  return Status::OK();
}

bool BlockCodec::Peek(std::string_view bytes, RecordShape* out) {
  Prefix p;
  if (!ParsePrefix(bytes, &p).ok()) return false;
  *out = p.shape;
  return true;
}

bool BlockCodec::Peek(std::string_view bytes, BlockId* id, uint32_t* reach) {
  RecordShape shape;
  if (!Peek(bytes, &shape)) return false;
  *id = shape.block_id;
  *reach = shape.reach();
  return true;
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
  s.UpdateInt(h.order_time_us);
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

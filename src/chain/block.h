#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/compress.h"
#include "common/sha256.h"
#include "common/status.h"
#include "dcc/batch.h"

namespace harmony {

/// Block log format version (docs/FORMATS.md has the byte-level reference
/// and the version history). v10 stores each block's txn section
/// column-wise under a per-block compression envelope, every integer column
/// either as LEB128 varints or bit-packed at the record's width over the
/// column's smallest value, whichever is smaller, with args.ints split into
/// one column per argument position. It stores only what replay needs: the
/// canonical txn fields, never the leader's ingress metadata (submit time,
/// retry count). Of the header digests it stores only the signature, plus
/// prev_hash when the record has no predecessor to derive it from: txn_root
/// and block_hash are rebuilt on decode. A record whose predecessor the
/// encoder holds stores a *derived header* (prev_hash from the
/// predecessor's block_hash, first_tid and order_time_us as deltas from
/// its), and a CC retry may be stored as a reference to the same canonical
/// txn in an earlier block (see RefWindow). BlockStore reads and writes
/// only this version and refuses v1–v9 logs with NotSupported.
inline constexpr uint32_t kLogVersion = 10;

/// Furthest back, in blocks, a record may reference; decoders keep at most
/// this many earlier blocks.
inline constexpr uint32_t kMaxRefReach = 64;

/// Most txns one block may hold. A bit-packed column of equal values takes
/// no bytes per entry, so the decoder cannot bound a txn count by the bytes
/// it has; it refuses a larger count before sizing anything, and
/// HarmonyBC::Open refuses a larger block_size.
inline constexpr uint32_t kMaxBlockTxns = 1 << 14;

/// Most args.ints one block may hold in all: kMaxBlockTxns txns at
/// admission's default limit of 256 args each. Checked like kMaxBlockTxns.
inline constexpr uint64_t kMaxBlockInts = uint64_t{kMaxBlockTxns} * 256;

/// A ledger block: the ordered transaction batch plus the tamper-evidence
/// header. Each block carries the hash of its predecessor (Section 4,
/// "Security"), so any tampered block is detected by back-tracing hashes
/// from the chain head.
struct BlockHeader {
  BlockId block_id = 0;
  TxnId first_tid = 1;
  uint32_t txn_count = 0;
  uint64_t order_time_us = 0;  ///< when the ordering service sealed the block
  Digest prev_hash{};          ///< hash of the previous block
  /// Digest of the serialized transactions. Derived, never stored:
  /// BlockBuilder::Seal and BlockCodec::Decode compute it from the batch.
  Digest txn_root{};
  /// Hash over (id, tids, order time, prev_hash, txn_root); derived like
  /// txn_root.
  Digest block_hash{};
  Digest signature{};          ///< orderer HMAC over block_hash
};

struct Block {
  BlockHeader header;
  TxnBatch batch;
  /// The block's stored log record (BlockCodec::EncodeRecord) once it has
  /// one: BlockStore::Append reports the bytes it stored, and
  /// net::DecodeReplicate keeps the bytes a follower received. REPLICATE
  /// ships the leader's stored record verbatim, and a follower's Append
  /// stores it verbatim whenever its references resolve in the follower's
  /// log. Empty until then.
  std::string record;
};

/// The earlier blocks a record may reference: the headers and txns of up
/// to kMaxRefReach consecutive blocks, oldest first. A reader fills one in
/// block order from a safe cut (docs/FORMATS.md, "References"), and
/// BlockStore::Append keeps one for its encoder. A record with a derived
/// header needs its predecessor's header here, block_hash included.
class RefWindow {
 public:
  /// Adds `b`'s header and txns as the newest block. A block that does not
  /// directly follow the newest one restarts the window at it; past
  /// kMaxRefReach blocks the oldest is dropped.
  void Push(const Block& b);
  /// Drops every block below `id`.
  void DropBefore(BlockId id);
  void Clear() { blocks_.clear(); }
  bool empty() const { return blocks_.empty(); }
  /// Oldest and newest block held (meaningless when empty).
  BlockId front_id() const { return front_id_; }
  BlockId back_id() const { return front_id_ + blocks_.size() - 1; }
  /// The txns of block `id`, or nullptr when the window does not hold it.
  const std::vector<TxnRequest>* Find(BlockId id) const;
  /// The header of block `id`, or nullptr when the window does not hold it.
  const BlockHeader* Header(BlockId id) const;
  /// True when `h`'s predecessor is held with a computed block_hash equal
  /// to h.prev_hash: the encoder may then derive h's header from it.
  bool Follows(const BlockHeader& h) const;

 private:
  struct Entry {
    BlockHeader header;
    std::vector<TxnRequest> txns;
  };
  const Entry* At(BlockId id) const;

  BlockId front_id_ = 0;
  std::deque<Entry> blocks_;
};

/// What a record's prefix states, read without a window and without
/// decompressing anything (BlockCodec::Peek).
struct RecordShape {
  BlockId block_id = 0;
  uint32_t txn_count = 0;
  bool derived = false;       ///< header derived from block block_id - 1's
  uint32_t ref_reach = 0;     ///< farthest txn reference back; 0: none
  size_t section_offset = 0;  ///< payload offset of the stored txn section
  uint64_t raw_len = 0;       ///< txn-section size before compression
  /// How many blocks back a reader must hold to decode the record: a
  /// derived header needs its predecessor, so it counts as reach 1.
  uint32_t reach() const {
    return derived && ref_reach == 0 ? 1 : ref_reach;
  }
};

/// How a decoded record stored its txn section (BlockCodec::Decode).
struct SectionStats {
  uint32_t columns = 0;         ///< integer columns, positions included
  uint32_t packed_columns = 0;  ///< of those, stored bit-packed
};

/// Serializes / parses transactions and blocks. Two encodings:
///  - the canonical fixed-width txn layout (EncodeTxn): the SUBMIT wire
///    payload and the input of TxnRoot, so chain identity and signatures
///    depend only on it;
///  - the v10 log record (EncodeRecord): block id and flags, a full or
///    derived header, the signature, and a column-wise txn section of
///    varint or bit-packed integer columns under a compression envelope —
///    the block log and the REPLICATE payload. Purely a storage encoding:
///    a derived header and a reference decode to the exact header and
///    canonical txn they stand for, and
///    decoding rebuilds txn_root and block_hash from the record's contents,
///    so a changed byte surfaces as a signature or chain mismatch.
class BlockCodec {
 public:
  /// Canonical transaction layout — proc_id, client_id, client_seq and the
  /// args, 28 fixed bytes plus the args — also a BATCH_SUBMIT entry. The
  /// in-process TxnRequest fields (submit time, retries, trace) are not
  /// part of it.
  static void EncodeTxn(const TxnRequest& t, std::string* out);
  /// Byte length EncodeTxn would produce for `t`, without encoding it.
  static size_t EncodedTxnSize(const TxnRequest& t);
  /// Inverse of EncodeTxn (SUBMIT and BATCH_SUBMIT payloads); false on a
  /// truncated or oversized input.
  static bool DecodeTxn(codec::Reader* r, TxnRequest* out);

  /// Encodes a v10 record payload, compressing the txn section with `codec`.
  /// Falls back to Compression::kNone per block when compression does not
  /// shrink the section. With `refs`, the header is derived from the
  /// predecessor's when `refs` Follows it, and each retried txn (in-memory
  /// `retries` > 0) whose canonical bytes equal a window txn's is stored as
  /// a reference to the newest such txn; the decoder must hold the same
  /// blocks. Without, the header and every txn are stored in full.
  static std::string EncodeRecord(const Block& b, Compression codec,
                                  const RefWindow* refs = nullptr);
  /// Parses one v10 record payload, resolving its derived header and its
  /// references in `refs` (nullptr: the record must carry neither), and
  /// rebuilds txn_root and block_hash. Every count and length is checked
  /// against the bytes that remain, or against kMaxBlockTxns and
  /// kMaxBlockInts where a packed column stores no bytes per entry, before
  /// anything is sized by it; a truncated, overlong, or trailing-garbage
  /// payload, a packed column wider than 64 bits or with non-zero padding,
  /// a derived header whose predecessor `refs` lacks, or a reference
  /// outside the window or past the reach, is Corruption. `stats`, when
  /// non-null, receives how the section stored its columns. Leaves
  /// `out->record` untouched.
  static Status Decode(std::string_view bytes, Block* out,
                       const RefWindow* refs = nullptr,
                       SectionStats* stats = nullptr);
  /// Reads a record's block id, header shape and reference reach, without
  /// a window and without decompressing anything. False on a truncated or
  /// malformed prefix.
  static bool Peek(std::string_view bytes, RecordShape* out);
  /// Peek's block id and RecordShape::reach(): 0 when the record decodes
  /// alone, else how many blocks back a reader must hold.
  static bool Peek(std::string_view bytes, BlockId* id, uint32_t* reach);

  /// Digest over the serialized transaction batch.
  static Digest TxnRoot(const TxnBatch& batch);

  /// Hash over the header's identity fields (order time included) +
  /// txn_root + prev_hash.
  static Digest HashHeader(const BlockHeader& h);
};

/// Builds signed, hash-chained blocks (the ordering service's last step).
class BlockBuilder {
 public:
  /// `secret` is the orderer's signing key (HMAC-SHA256 stands in for an
  /// asymmetric signature; replicas hold the verification secret).
  explicit BlockBuilder(std::string secret) : secret_(std::move(secret)) {
    prev_hash_.fill(0);
  }

  /// Seals a batch into the next block of the chain.
  Block Seal(TxnBatch batch, uint64_t order_time_us);

  /// Resumes chaining from an existing tip (orderer restart).
  void ResumeFrom(const Digest& tip) { prev_hash_ = tip; }

  const Digest& prev_hash() const { return prev_hash_; }

 private:
  std::string secret_;
  Digest prev_hash_;
};

/// Replica-side block verification: txn root, block hash, signature and
/// hash chain, all recomputed from the block's contents.
class ChainVerifier {
 public:
  explicit ChainVerifier(std::string secret) : secret_(std::move(secret)) {
    expected_prev_.fill(0);
  }

  /// Verifies block integrity and chain continuity; advances the expected
  /// predecessor hash on success.
  Status Verify(const Block& b);

  /// Fast-forwards the verifier to expect a block whose predecessor hash is
  /// `tip` (after replaying an already-audited chain).
  void Reset(const Digest& tip) { expected_prev_ = tip; }

  /// Re-checks an already-stored chain (audit / tamper detection).
  static Status VerifyChain(const std::vector<Block>& blocks,
                            const std::string& secret);

 private:
  std::string secret_;
  Digest expected_prev_;
};

}  // namespace harmony

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
/// and the version history). v7 stores each block's txn section column-wise
/// as LEB128 varints under a per-block compression envelope, and of the
/// header digests only prev_hash and the signature: txn_root and block_hash
/// are rebuilt on decode. A CC retry may be stored as a reference to its
/// previous incarnation in an earlier block (see RefWindow). BlockStore
/// reads and writes only this version and refuses v1–v6 logs with
/// NotSupported.
inline constexpr uint32_t kLogVersion = 7;

/// Furthest back, in blocks, a v7 record may reference; decoders keep at
/// most this many earlier blocks.
inline constexpr uint32_t kMaxRefReach = 64;

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
  /// Hash over (id, tids, prev_hash, txn_root); derived like txn_root.
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

/// The earlier blocks a v7 record may reference: the txns of up to
/// kMaxRefReach consecutive blocks, oldest first. A reader fills one in
/// block order from a safe cut (docs/FORMATS.md, "References"), and
/// BlockStore::Append keeps one for its encoder.
class RefWindow {
 public:
  /// Adds `b`'s txns as the newest block. A block that does not directly
  /// follow the newest one restarts the window at it; past kMaxRefReach
  /// blocks the oldest is dropped.
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

 private:
  BlockId front_id_ = 0;
  std::deque<std::vector<TxnRequest>> blocks_;
};

/// Serializes / parses transactions and blocks. Two encodings:
///  - the canonical fixed-width txn layout (EncodeTxn): the SUBMIT wire
///    payload and the input of TxnRoot, so chain identity and signatures
///    depend only on it;
///  - the v7 log record (EncodeRecord): header varints, prev_hash and the
///    signature, and a column-wise varint txn section under a compression
///    envelope — the block log and the REPLICATE payload. Purely a storage
///    encoding: a reference decodes to the exact canonical txn it stands
///    for, and decoding rebuilds txn_root and block_hash from the record's
///    contents, so a changed byte surfaces as a signature or chain mismatch.
class BlockCodec {
 public:
  /// Canonical transaction layout; also the wire SUBMIT payload.
  static void EncodeTxn(const TxnRequest& t, std::string* out);
  /// Byte length EncodeTxn would produce for `t`, without encoding it.
  static size_t EncodedTxnSize(const TxnRequest& t);
  /// Inverse of EncodeTxn (SUBMIT and BATCH_SUBMIT payloads); false on a
  /// truncated or oversized input.
  static bool DecodeTxn(codec::Reader* r, TxnRequest* out);

  /// Encodes a v7 record payload, compressing the txn section with `codec`.
  /// Falls back to Compression::kNone per block when compression does not
  /// shrink the section. With `refs`, each txn whose canonical bytes equal a
  /// window txn's except that `retries` is one higher is stored as a
  /// reference to the newest such txn; the decoder must hold the same
  /// blocks. Without, every txn is stored in full.
  static std::string EncodeRecord(const Block& b, Compression codec,
                                  const RefWindow* refs = nullptr);
  /// Parses one v7 record payload, resolving its references in `refs`
  /// (nullptr: the record must carry none), and rebuilds txn_root and
  /// block_hash. Every count and length is checked against the bytes that
  /// remain before anything is sized by it; a truncated, overlong, or
  /// trailing-garbage payload, or a reference outside the window or past
  /// the reach, is Corruption. Leaves `out->record` untouched.
  static Status Decode(std::string_view bytes, Block* out,
                       const RefWindow* refs = nullptr);
  /// Decode without the digest rebuild: the log's open scan needs only to
  /// know that a record parses, and its txns for the next record's window.
  static Status Validate(std::string_view bytes, Block* out,
                         const RefWindow* refs = nullptr);
  /// Reads only a record's block id and reference reach (0: the record
  /// references nothing; else its farthest reference is `reach` blocks
  /// back), without decompressing anything. False on a truncated prefix.
  static bool Peek(std::string_view bytes, BlockId* id, uint32_t* reach);

  /// Digest over the serialized transaction batch.
  static Digest TxnRoot(const TxnBatch& batch);

  /// Hash over the header's identity fields + txn_root + prev_hash.
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

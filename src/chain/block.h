#pragma once

#include <string>

#include "common/codec.h"
#include "common/compress.h"
#include "common/sha256.h"
#include "common/status.h"
#include "dcc/batch.h"

namespace harmony {

/// Block log format version (docs/FORMATS.md has the byte-level reference
/// and the version history). v6 stores each block's txn section column-wise
/// as LEB128 varints under a per-block compression envelope, and of the
/// header digests only prev_hash and the signature: txn_root and block_hash
/// are rebuilt on decode. BlockStore reads and writes only this version and
/// refuses v1–v5 logs with NotSupported.
inline constexpr uint32_t kLogVersion = 6;

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
  /// one: Replica encodes it for its log append, and net::DecodeReplicate
  /// keeps the bytes a follower received. BlockStore::Append writes it
  /// verbatim and REPLICATE ships it verbatim, so a block is encoded once
  /// on the leader and never on a follower. Empty until then.
  std::string record;
};

/// Serializes / parses transactions and blocks. Two encodings:
///  - the canonical fixed-width txn layout (EncodeTxn): the SUBMIT wire
///    payload and the input of TxnRoot, so chain identity and signatures
///    depend only on it;
///  - the v6 log record (EncodeRecord): header varints, prev_hash and the
///    signature, and a column-wise varint txn section under a compression
///    envelope — the block log and the REPLICATE payload. Purely a storage
///    encoding: decoding rebuilds txn_root and block_hash from the record's
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

  /// Encodes a v6 record payload, compressing the txn section with `codec`.
  /// Falls back to Compression::kNone per block when compression does not
  /// shrink the section.
  static std::string EncodeRecord(const Block& b, Compression codec);
  /// Parses one v6 record payload and rebuilds txn_root and block_hash.
  /// Every count and length is checked against the bytes that remain before
  /// anything is sized by it; a truncated, overlong, or trailing-garbage
  /// payload is Corruption. Leaves `out->record` untouched.
  static Status Decode(std::string_view bytes, Block* out);
  /// Decode's structural checks without the digest rebuild: the log's open
  /// scan needs only to know that a record parses, and its block id.
  static Status Validate(std::string_view bytes, BlockId* id);
  /// Reads only a record's leading block id (no other check): for paths
  /// that move already-validated record bytes around without decoding them.
  static bool PeekBlockId(std::string_view bytes, BlockId* id);

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

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/sha256.h"
#include "common/status.h"
#include "common/types.h"
#include "core/completion.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "txn/procedure.h"

namespace harmony {

struct Block;  // chain/block.h (REPLICATE frames carry whole blocks)
class RefWindow;

namespace net {

/// HarmonyBC wire protocol v8 — a versioned, length-prefixed binary frame
/// format spoken between NetClient and NetServer (docs/NET.md for the
/// contracts, docs/FORMATS.md for the authoritative byte-level reference).
///
/// Every frame is a fixed 20-byte header followed by `payload_len` bytes:
///
///   offset  size  field
///   0       4     magic        "HBC1" (0x31434248 little-endian)
///   4       1     version      kWireVersion; older versions are refused
///   5       1     opcode       Opcode
///   6       2     request_id   control calls only (see below), else 0
///   8       4     payload_len  bytes following the header
///   12      4     payload_crc  CRC32 of the payload (0 when empty)
///   16      4     header_crc   CRC32 of header bytes [0, 16)
///
/// The header CRC makes desynchronization detectable before `payload_len`
/// is trusted: a corrupt or misaligned header fails the CRC instead of
/// committing the reader to a garbage-length read. Payload encodings reuse
/// the little-endian helpers in common/codec.h (the same codec the block
/// log uses), and BATCH_SUBMIT entries are exactly BlockCodec::EncodeTxn:
/// the canonical fields only, so the server stamps each submit time
/// itself.
///
/// There is one request/reply shape per purpose. Submits are always
/// BATCH_SUBMIT frames and receipts always BATCH_RECEIPT frames (a Busy
/// rejection is a kRejected entry), so ERROR always ends the connection.
/// The control calls — SYNC, METRICS, HEALTH, EVENTS — carry a client-chosen
/// request id that the reply echoes; on every other opcode a non-zero id is
/// a protocol error.
inline constexpr uint32_t kWireMagic = 0x31434248;  // "HBC1"
inline constexpr uint8_t kWireVersion = 8;
inline constexpr size_t kHeaderSize = 20;
/// Frames advertising a larger payload are rejected as corrupt before any
/// allocation — the cap bounds per-connection memory against hostile or
/// desynchronized peers. Must admit a full BATCH_SUBMIT of admissible txns
/// (AdmissionOptions::max_blob_bytes plus slack) and the METRICS snapshot.
inline constexpr uint32_t kMaxFramePayload = 2u << 20;
/// Per-frame bound on BATCH_SUBMIT / BATCH_RECEIPT entry counts; a count
/// beyond this (or beyond what payload_len can carry) is a protocol error.
inline constexpr uint32_t kMaxBatchTxns = 4096;

/// Opcodes 1 (SUBMIT), 2 (RECEIPT) and 4 (STATS) are retired: readers
/// refuse them as unknown, and their numbers are never reused.
enum class Opcode : uint8_t {
  kOpSync = 3,          ///< C -> S: empty; S -> C: empty, once every prior
                        ///<         submit's receipt is queued ahead of it
  kOpError = 5,         ///< S -> C: WireError, then the connection closes
  kOpBatchSubmit = 6,   ///< C -> S: u32 count + count x EncodeTxn
  kOpBatchReceipt = 7,  ///< S -> C: u32 count + count x length-prefixed
                        ///<         receipt entries (coalesced per flush)
  kOpMetrics = 8,       ///< C -> S: empty; S -> C: EncodeMetrics — the
                        ///<         server's metrics registry snapshot
                        ///<         (per-stage histograms, slow-txn ring;
                        ///<         docs/OBSERVABILITY.md)
  // --- replication (docs/REPLICATION.md; follower dials the leader) ---
  kOpReplJoin = 9,      ///< F -> L: WireReplJoin — marks the connection as
                        ///<         a replication peer and reports the
                        ///<         follower's durable chain tip
  kOpReplicate = 10,    ///< L -> F: one sealed block as the leader's
                        ///<         stored block-log record, verbatim
  kOpReplicateAck = 11, ///< F -> L: u64 block id, cumulative — "everything
                        ///<         through this id is applied here"
  kOpReplSnapshot = 12, ///< L -> F: WireSnapshot — state rows at a
                        ///<         checkpointed base block, for followers
                        ///<         too far behind the log-tail window
  // --- cluster observability (docs/OBSERVABILITY.md) ---
  kOpHealth = 13,       ///< C -> S: empty; S -> C: WireHealth — role,
                        ///<         chain position, peer count; cheap
                        ///<         enough to poll every second
  kOpEvents = 14,       ///< C -> S: u64 cursor; S -> C: next cursor +
                        ///<         count-capped obs::EventRecord entries
                        ///<         from the instance's event ring
  kOpReplContext = 15,  ///< L -> F: a stored record at or below the
                        ///<         follower's tip, sent at session start
                        ///<         so later REPLICATE records' references
                        ///<         resolve; REPLICATE's payload, not applied
};

/// The opcode's wire name; nullptr for a number that is not a current
/// opcode (the retired ones included).
const char* OpcodeName(Opcode op);

/// True for the control calls whose frames carry a request id.
bool IsControlCall(Opcode op);

struct Frame {
  Opcode opcode = Opcode::kOpError;
  uint16_t request_id = 0;  ///< control calls only
  std::string payload;
};

/// ERROR payload: why the server is about to close the connection
/// (overloaded, corrupt stream, protocol violation, not-leader redirect).
struct WireError {
  Status::Code code = Status::Code::kAborted;
  std::string message;
};

/// Frames one payload: header (magic/version/opcode/request id/len/CRCs) +
/// payload. `request_id` must be 0 unless IsControlCall(op).
std::string EncodeFrame(Opcode op, std::string_view payload,
                        uint16_t request_id = 0);

/// Rebuilds a Status from its wire (code, message) pair.
Status WireStatus(Status::Code code, std::string msg);

// --- payload codecs ---------------------------------------------------------
// BATCH_SUBMIT is a u32 count followed by that many BlockCodec::EncodeTxn
// encodings back to back (chain/block.h): the wire ships the canonical txn
// bytes the block's TxnRoot is computed over (the log stores them
// re-encoded column-wise).

void EncodeError(const WireError& e, std::string* out);
bool DecodeError(std::string_view payload, WireError* out);

/// METRICS: a whole obs::MetricsSnapshot. Decode rejects entry counts
/// beyond kMaxMetricsEntries and bucket indexes beyond the histogram range
/// before sizing anything.
inline constexpr uint32_t kMaxMetricsEntries = 4096;
void EncodeMetrics(const obs::MetricsSnapshot& m, std::string* out);
bool DecodeMetrics(std::string_view payload, obs::MetricsSnapshot* out);

/// BATCH_SUBMIT: decodes the whole payload or fails (count 0, count over
/// kMaxBatchTxns, short/trailing bytes are all protocol errors).
void EncodeBatchSubmit(const std::vector<TxnRequest>& txns, std::string* out);
bool DecodeBatchSubmit(std::string_view payload,
                       std::vector<TxnRequest>* out);

/// BATCH_RECEIPT entries are length-prefixed receipt encodings so the
/// server can append them to a per-connection buffer as receipts resolve
/// and stamp the count at flush time (see NetServer's coalescing).
void AppendBatchReceiptEntry(const TxnReceipt& r, std::string* out);
/// Builds a "u32 count + concatenated bytes" batch payload — the shared
/// outer layout of BATCH_SUBMIT and BATCH_RECEIPT (both sides accumulate
/// bytes incrementally and stamp the count at flush time).
std::string SealBatchPayload(uint32_t count, std::string_view entries);
bool DecodeBatchReceipt(std::string_view payload,
                        std::vector<TxnReceipt>* out);

// --- replication payloads (src/repl/, docs/REPLICATION.md) ------------------

/// JOIN: the follower's first frame on a replication link. `node` names the
/// follower (diagnostics only); `last_block_id` is its durable chain tip, so
/// the leader can resume the stream (or send a snapshot) from the right
/// place.
struct WireReplJoin {
  std::string node;
  BlockId last_block_id = 0;
};
inline constexpr uint32_t kMaxReplNodeName = 256;
void EncodeReplJoin(const WireReplJoin& j, std::string* out);
bool DecodeReplJoin(std::string_view payload, WireReplJoin* out);

/// REPLICATE and REPL_CONTEXT: `u64 block_id`, then the leader's stored
/// block-log record for that block (BlockCodec::EncodeRecord bytes, exactly
/// as its log holds them) through the end of the payload. Nothing is
/// encoded for the link: the leader ships the record it logged, and the
/// follower's log appends the same bytes where their references resolve.
/// Decode parses the record, resolving its derived header and references
/// in `refs` (the session's earlier blocks; nullptr: neither allowed) and
/// rebuilding its digests, keeps
/// the bytes in `out->record`, and rejects an outer id that disagrees with
/// the decoded header, so a frame that passes the codec is internally
/// consistent before the follower touches it.
void EncodeReplicate(BlockId id, std::string_view record, std::string* out);
bool DecodeReplicate(std::string_view payload, Block* out,
                     const RefWindow* refs = nullptr);

/// REPLICATE_ACK: u64 block id, cumulative.
void EncodeReplAck(BlockId id, std::string* out);
bool DecodeReplAck(std::string_view payload, BlockId* id);

/// SNAPSHOT: the leader's state rows as of checkpointed block `base_block`
/// (whose block hash is `tip_hash` — the follower anchors its chain
/// verifier there), plus the leader's current tip for progress reporting.
/// Single frame: a snapshot that cannot fit the 2 MiB frame cap is not
/// sent (the leader streams the log tail instead).
struct WireSnapshot {
  BlockId base_block = 0;
  Digest tip_hash{};
  BlockId leader_tip = 0;
  std::vector<std::pair<Key, std::string>> rows;
};
inline constexpr uint32_t kMaxSnapshotRows = 65536;
void EncodeSnapshot(const WireSnapshot& s, std::string* out);
bool DecodeSnapshot(std::string_view payload, WireSnapshot* out);

// --- cluster observability payloads (docs/OBSERVABILITY.md) -----------------

/// HEALTH: one node's self-report — who it is, where its chain stands, and
/// who it talks to. Request payload is empty; the reply is cheap to build
/// (no histogram walk) so pollers can hit it every second.
struct WireHealth {
  enum Role : uint8_t { kStandalone = 0, kLeader = 1, kFollower = 2 };
  uint8_t role = kStandalone;
  std::string node;         ///< node name ("" for standalone/leader default)
  uint64_t height = 0;      ///< committed chain height
  uint64_t durable_tip = 0; ///< follower: last applied block; leader: height
  std::string leader_addr;  ///< follower: where submits are redirected
  uint32_t peer_count = 0;  ///< leader: connected replication peers
  uint64_t uptime_us = 0;   ///< microseconds since the instance opened
};
inline constexpr uint32_t kMaxLeaderAddr = 256;
void EncodeHealth(const WireHealth& h, std::string* out);
bool DecodeHealth(std::string_view payload, WireHealth* out);

/// EVENTS: request is exactly a u64 cursor (the value a previous reply
/// returned, or 0 for "from the oldest retained event"); the reply is the
/// next cursor followed by a count-capped run of event entries. Decode
/// applies the kOpMetrics hostile-input discipline: counts are checked for
/// plausibility against the remaining bytes before sizing anything, detail
/// strings are length-capped, and trailing bytes are a protocol error.
inline constexpr uint32_t kMaxEventEntries = 1024;
inline constexpr uint32_t kMaxEventDetail = 120;  // == obs::EventLog::kMaxDetail
void EncodeEventsReq(uint64_t cursor, std::string* out);
bool DecodeEventsReq(std::string_view payload, uint64_t* cursor);
void EncodeEvents(uint64_t next_cursor,
                  const std::vector<obs::EventRecord>& events,
                  std::string* out);
bool DecodeEvents(std::string_view payload, uint64_t* next_cursor,
                  std::vector<obs::EventRecord>* out);

/// Incremental frame reassembly over a byte stream: Feed() whatever the
/// socket produced, then drain complete frames with Next() until it
/// returns NotFound ("need more bytes").
///
///   - OK          -> *out holds one complete, CRC-verified frame
///   - NotFound    -> incomplete; Feed() more and retry
///   - Corruption  -> bad magic/version/opcode/request id/CRC or
///                    payload_len over the cap; the stream is unrecoverable
///                    (no resync point) — close the connection.
///
/// Single-threaded: one reassembler per connection, driven only by that
/// connection's reader.
class FrameReassembler {
 public:
  explicit FrameReassembler(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const char* data, size_t n) { buf_.append(data, n); }

  Status Next(Frame* out);

  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  size_t max_payload_;
};

}  // namespace net
}  // namespace harmony

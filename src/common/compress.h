#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace harmony {

/// Block-payload compression codecs (block log, docs/FORMATS.md). In-tree
/// and dependency-free on purpose: the container bakes no compression
/// library, and the sealed-txn sections the block store compresses are small
/// (tens of KB) and repetitive (runs of small varints, recurring blob
/// bytes), so a simple byte-oriented LZ does most of what a real LZ4
/// would.
enum class Compression : uint8_t {
  kNone = 0,  ///< stored raw (also the fallback when compression won't help)
  kHlz = 1,   ///< in-tree LZ4-style byte-pair codec (see below)
};

const char* CompressionName(Compression c);

/// HLZ: a greedy LZ77 with LZ4's sequence layout.
///
/// The stream is a run of sequences; each sequence is
///
///   token      1 byte: (literal_len << 4) | (match_len - kHlzMinMatch)
///   [lit ext]  literal_len == 15: 0xFF-run extension bytes, then one < 0xFF
///   literals   literal_len bytes, copied verbatim
///   offset     u16 LE, 1 .. kHlzMaxOffset back from the output cursor
///   [mat ext]  match_len nibble == 15: same 0xFF-run extension
///   (match bytes are copied *from the output*, overlap allowed: an
///    offset of 1 replicates the previous byte match_len times)
///
/// The final sequence carries literals only — its token's match nibble is 0
/// and the stream ends after the literals (no offset). Matches are at least
/// kHlzMinMatch bytes; the compressor finds them with a 4-byte-prefix hash
/// table over a 64 KiB window (greedy, first match wins).
///
/// HlzDecompress is safe on hostile input: every read and copy is bounds-
/// checked against the source and the caller-declared raw size, and any
/// violation (truncated sequence, offset past the start, output over- or
/// undershoot) returns Corruption without touching memory out of bounds.
inline constexpr size_t kHlzMinMatch = 4;
inline constexpr size_t kHlzMaxOffset = 65535;

/// Compresses `src` into `*out` (appended). Always produces a valid stream,
/// even for incompressible input (it just grows by the literal-run
/// overhead); callers that want the block store's "never worse than raw"
/// behaviour compare sizes and fall back to Compression::kNone themselves.
void HlzCompress(std::string_view src, std::string* out);

/// Decompresses a stream produced by HlzCompress into `*out` (overwritten).
/// `raw_len` is the expected decompressed size (the log record stores it);
/// a stream that decodes to any other size is Corruption.
Status HlzDecompress(std::string_view src, size_t raw_len, std::string* out);

/// Codec-dispatching convenience used by the block store: kNone copies,
/// kHlz compresses. Appends to `*out`.
void CompressPayload(Compression codec, std::string_view src,
                     std::string* out);

/// Inverse of CompressPayload; rejects unknown codec bytes as Corruption.
Status DecompressPayload(Compression codec, std::string_view src,
                         size_t raw_len, std::string* out);

}  // namespace harmony

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace harmony {

/// Append/consume helpers for on-disk and on-wire encoding: little-endian
/// fixed-width integers and LEB128 varints.
namespace codec {

/// Longest LEB128 encoding of a 64-bit value (ceil(64 / 7)).
inline constexpr size_t kMaxVarintBytes = 10;

inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void AppendU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), 2);
}
inline void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
inline void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
inline void AppendI64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
inline void AppendBytes(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}
/// Unsigned LEB128: 7 bits per byte, low group first, high bit set on every
/// byte but the last. 1 byte below 128, 10 bytes for values >= 2^63.
inline void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}
/// Bytes AppendVarint takes for `v`: one per started 7-bit group.
inline size_t VarintSize(uint64_t v) {
  return static_cast<size_t>(70 - __builtin_clzll(v | 1)) / 7;
}
/// Zigzag maps signed values of small magnitude to small unsigned ones
/// (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...) so they varint-encode short.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (0 - (v & 1)));
}

/// Cursor-style reader; all Read* return false on underflow.
class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  bool ReadU8(uint8_t* v) { return ReadRaw(v, 1); }
  bool ReadU16(uint16_t* v) { return ReadRaw(v, 2); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, 4); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, 8); }
  bool ReadI64(int64_t* v) { return ReadRaw(v, 8); }
  bool ReadBytes(std::string* out) {
    uint32_t len;
    if (!ReadU32(&len) || buf_.size() - pos_ < len) return false;
    out->assign(buf_.substr(pos_, len));
    pos_ += len;
    return true;
  }
  /// LEB128 (see AppendVarint). Rejects truncated input, encodings longer
  /// than kMaxVarintBytes or than the value needs (a trailing 0x00 group),
  /// and a 10th byte carrying bits past 2^64 — each value has exactly one
  /// accepted encoding.
  bool ReadVarint(uint64_t* v) {
    uint64_t result = 0;
    for (size_t i = 0; i < kMaxVarintBytes; i++) {
      if (pos_ == buf_.size()) return false;
      const uint8_t byte = static_cast<uint8_t>(buf_[pos_++]);
      if (i == kMaxVarintBytes - 1 && byte > 1) return false;  // overflow
      result |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (byte == 0 && i > 0) return false;  // overlong
        *v = result;
        return true;
      }
    }
    return false;
  }
  /// Fixed-width raw copy (e.g. 32-byte digests embedded without a length).
  bool ReadFixed(void* v, size_t n) { return ReadRaw(v, n); }
  /// The next `n` bytes, borrowed from the buffer without a copy.
  bool ReadView(size_t n, std::string_view* out) {
    if (buf_.size() - pos_ < n) return false;
    *out = buf_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool ReadRaw(void* v, size_t n) {
    if (buf_.size() - pos_ < n) return false;
    std::memcpy(v, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::string_view buf_;
  size_t pos_ = 0;
};

}  // namespace codec

/// CRC32 (IEEE 802.3 polynomial, table-driven). Guards log records against
/// torn writes and bit rot.
uint32_t Crc32(const void* data, size_t len);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

}  // namespace harmony

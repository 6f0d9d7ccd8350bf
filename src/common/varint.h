#ifndef PRIX_COMMON_VARINT_H_
#define PRIX_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prix {

/// LEB128 varints + zig-zag, the shared integer coding behind the delta
/// on-disk formats: B+-tree leaf pages, DocStore records, and RecordStore
/// catalogs (DESIGN.md §5h).
///
/// Wire format: 7 payload bits per byte, least-significant group first, high
/// bit set on every byte but the last. A uint64 takes at most 10 bytes.
/// Decoders are bounds-checked against an explicit `end` and reject both
/// truncation and over-long encodings (an 11th continuation byte), so a
/// garbled length can never walk a cursor past its buffer — the same
/// discipline as the PR-5 catalog deserializers.

inline constexpr size_t kMaxVarint64Bytes = 10;

/// Maps signed deltas onto small unsigned codes: 0,-1,1,-2,... -> 0,1,2,3,...
inline uint64_t ZigzagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);  // arithmetic shift: all-ones if <0
}
inline int64_t ZigzagDecode64(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Encodes `v` at `dst` (room for kMaxVarint64Bytes). Returns bytes written.
inline size_t EncodeVarint64(char* dst, uint64_t v) {
  size_t n = 0;
  while (v >= 0x80) {
    dst[n++] = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  dst[n++] = static_cast<char>(v);
  return n;
}

inline void PutVarint64(std::vector<char>* out, uint64_t v) {
  char buf[kMaxVarint64Bytes];
  size_t n = EncodeVarint64(buf, v);
  out->insert(out->end(), buf, buf + n);
}

/// Decodes one varint from [*p, end). On success advances *p and returns
/// true; returns false (leaving *p unspecified) on truncation or an
/// over-long/overflowing encoding.
inline bool GetVarint64(const char** p, const char* end, uint64_t* v) {
  uint64_t result = 0;
  const char* cur = *p;
  for (int shift = 0; shift <= 63 && cur < end; shift += 7) {
    uint64_t byte = static_cast<uint8_t>(*cur++);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      // Final byte: bits that would shift past 63 must be zero.
      if (shift == 63 && byte > 1) return false;
      result |= byte << shift;
      *p = cur;
      *v = result;
      return true;
    }
  }
  return false;  // ran off `end`, or an 11th continuation byte
}

/// uint32 flavors: same wire format, value-range checked on decode.
inline void PutVarint32(std::vector<char>* out, uint32_t v) {
  PutVarint64(out, v);
}
inline bool GetVarint32(const char** p, const char* end, uint32_t* v) {
  uint64_t wide;
  if (!GetVarint64(p, end, &wide) || wide > 0xffffffffull) return false;
  *v = static_cast<uint32_t>(wide);
  return true;
}

}  // namespace prix

#endif  // PRIX_COMMON_VARINT_H_

//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit hash mixing and combining. The solvers key hash tables by small
/// packed id tuples; naive shift-xor packing silently aliases once ids
/// outgrow their assumed bit widths, which degrades the tables to
/// near-linear probing on large runs. mix64 is the splitmix64 finalizer
/// (full avalanche); hashCombine folds one value into a running seed so a
/// tuple hash depends on every bit of every field.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SUPPORT_HASHING_H
#define SWIFT_SUPPORT_HASHING_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace swift {

/// The splitmix64 finalizer: a bijective full-avalanche mix of all 64
/// bits.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Folds \p Value into \p Seed. Unlike xor-of-shifted-fields, distinct
/// tuples collide only at the ~2^-64 birthday rate regardless of the
/// fields' magnitudes.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return mix64(Seed ^ (mix64(Value) + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                       (Seed >> 2)));
}

/// CRC-32 (IEEE 802.3 reflected polynomial, the zlib/PNG checksum) over
/// \p Size bytes, optionally continuing from a previous \p Seed. Used as
/// the corruption detector of the swift-ckpt v2 file framing — unlike
/// mix64-style hashes it has a fixed, documented value for any byte
/// string (crc32("123456789") == 0xCBF43926), so checkpoints written by
/// one build validate under any other.
inline uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0) {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = ~Seed;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I)
    C = Table[(C ^ P[I]) & 0xff] ^ (C >> 8);
  return ~C;
}

/// A CRC-32 as written in the `crc32 <hex8>` trailer every CRC-framed
/// record ends with (support/Frame.h): exactly 8 lowercase hex digits.
inline std::string hex8(uint32_t V) {
  char Buf[9];
  std::snprintf(Buf, sizeof(Buf), "%08x", V);
  return Buf;
}

/// A 64-bit hash as persisted records spell it (store procedure hashes,
/// spool program hashes): exactly 16 lowercase hex digits.
inline std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Parses exactly \p Digits lowercase hex digits (Digits <= 16).
inline bool parseHexExact(std::string_view T, size_t Digits, uint64_t &Out) {
  if (T.size() != Digits)
    return false;
  uint64_t V = 0;
  for (char C : T) {
    uint64_t D;
    if (C >= '0' && C <= '9')
      D = static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = static_cast<uint64_t>(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | D;
  }
  Out = V;
  return true;
}

/// The strict inverse of hex8: accepts exactly 8 lowercase hex digits,
/// so a padded, cut, or upper-cased trailer value is malformed.
inline bool parseHex8(std::string_view T, uint32_t &Out) {
  uint64_t V = 0;
  if (!parseHexExact(T, 8, V))
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

/// The strict inverse of hex16: exactly 16 lowercase hex digits.
inline bool parseHex16(std::string_view T, uint64_t &Out) {
  return parseHexExact(T, 16, Out);
}

} // namespace swift

#endif // SWIFT_SUPPORT_HASHING_H

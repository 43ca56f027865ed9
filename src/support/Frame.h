//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one CRC frame codec behind every persisted format: swift-ckpt v2
/// checkpoints, the swift-serve store, shard spool segments, and the
/// records of the swift-serve edit journal.
///
/// A frame is
///
///   <tag><payload byte count>\n<payload>crc32 <hex8>\n
///
/// where the tag names the format and version (e.g. "swift-spool v1 ")
/// and the trailer carries the CRC-32 of the payload. A journal record
/// is not length-prefixed this way (its header line carries two
/// lengths) but ends with the same trailer, computed over header and
/// payload. A new format is a new tag plus a payload grammar read with
/// FrameCursor; it never re-implements the framing.
///
/// unframe classifies every defect as Truncated (the bytes end before
/// the frame the header declares) or Corrupt (the frame is complete but
/// malformed or fails its CRC); checkpoints surface that split as typed
/// load errors.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SUPPORT_FRAME_H
#define SWIFT_SUPPORT_FRAME_H

#include "support/CliParse.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace swift {

/// "crc32 " + 8 hex digits + '\n'.
constexpr std::string_view CrcTrailerTag = "crc32 ";
constexpr size_t CrcTrailerSize = CrcTrailerTag.size() + 8 + 1;

/// The trailer that seals \p Covered: "crc32 <hex8>\n".
std::string crcTrailer(std::string_view Covered);

/// Checks that \p Trailer is exactly the trailer of \p Covered. On
/// failure returns false and, if \p Why is given, says why (malformed
/// trailer, malformed value, or CRC mismatch).
bool checkCrcTrailer(std::string_view Trailer, std::string_view Covered,
                     std::string *Why = nullptr);

/// Frames \p Payload under \p Tag.
std::string frame(std::string_view Tag, std::string_view Payload);

enum class FrameStatus { Ok, Truncated, Corrupt };

/// unframe's result: the payload (a view into the input) when Ok, else
/// the defect class and a human-readable reason.
struct Unframed {
  FrameStatus Status = FrameStatus::Ok;
  std::string_view Payload;
  std::string Reason;
};

/// Validates a whole frame image: tag, length, payload extent, and
/// trailer, with nothing after it.
Unframed unframe(std::string_view Tag, std::string_view Bytes);

/// Sequential reader over a validated payload. Every primitive checks
/// its input and throws ErrorT(Prefix + reason) on a defect, so a
/// format's decoder reports its own typed error.
template <class ErrorT> class FrameCursor {
public:
  FrameCursor(std::string_view Text, std::string_view Prefix)
      : Text(Text), Prefix(Prefix) {}

  [[noreturn]] void fail(const std::string &Why) const {
    throw ErrorT(std::string(Prefix) + Why);
  }

  /// The next '\n'-terminated line, without its newline.
  std::string_view line() {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string_view::npos)
      fail("payload truncated: missing newline");
    std::string_view L = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    return L;
  }

  /// The next line split at single spaces; an empty field (doubled,
  /// leading or trailing space) is malformed.
  std::vector<std::string_view> fields() {
    std::string_view L = line();
    std::vector<std::string_view> F;
    for (size_t Start = 0;;) {
      size_t Sp = L.find(' ', Start);
      std::string_view Field = L.substr(Start, Sp - Start);
      if (Field.empty())
        fail("malformed line '" + std::string(L) + "'");
      F.push_back(Field);
      if (Sp == std::string_view::npos)
        return F;
      Start = Sp + 1;
    }
  }

  /// The next \p N raw bytes.
  std::string_view bytes(uint64_t N) {
    if (N > Text.size() - Pos)
      fail("payload section truncated");
    std::string_view B = Text.substr(Pos, N);
    Pos += N;
    return B;
  }

  bool atEnd() const { return Pos == Text.size(); }

  /// A decimal field: digits only, overflow-checked (cli::parseU64).
  uint64_t dec(std::string_view Field) const {
    uint64_t N = 0;
    if (!cli::parseU64(Field, N))
      fail("malformed decimal field '" + std::string(Field) + "'");
    return N;
  }

private:
  std::string_view Text;
  std::string_view Prefix;
  size_t Pos = 0;
};

} // namespace swift

#endif // SWIFT_SUPPORT_FRAME_H

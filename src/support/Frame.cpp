//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Frame.h"

#include "support/Hashing.h"

using namespace swift;

std::string swift::crcTrailer(std::string_view Covered) {
  std::string T(CrcTrailerTag);
  T += hex8(crc32(Covered.data(), Covered.size()));
  T += '\n';
  return T;
}

bool swift::checkCrcTrailer(std::string_view Trailer,
                            std::string_view Covered, std::string *Why) {
  auto Fail = [Why](std::string Msg) {
    if (Why)
      *Why = std::move(Msg);
    return false;
  };
  if (Trailer.size() != CrcTrailerSize ||
      Trailer.substr(0, CrcTrailerTag.size()) != CrcTrailerTag ||
      Trailer.back() != '\n')
    return Fail("malformed CRC trailer");
  uint32_t Stored = 0;
  if (!parseHex8(Trailer.substr(CrcTrailerTag.size(), 8), Stored))
    return Fail("malformed CRC value");
  uint32_t Computed = crc32(Covered.data(), Covered.size());
  if (Computed != Stored)
    return Fail("CRC mismatch: stored " + hex8(Stored) + ", computed " +
                hex8(Computed));
  return true;
}

std::string swift::frame(std::string_view Tag, std::string_view Payload) {
  std::string Out;
  Out.reserve(Tag.size() + 21 + Payload.size() + CrcTrailerSize);
  Out.append(Tag);
  Out += std::to_string(Payload.size());
  Out += '\n';
  Out.append(Payload);
  Out += crcTrailer(Payload);
  return Out;
}

Unframed swift::unframe(std::string_view Tag, std::string_view Bytes) {
  auto Bad = [](FrameStatus S, std::string Why) {
    return Unframed{S, {}, std::move(Why)};
  };
  if (Bytes.substr(0, Tag.size()) != Tag)
    return Bad(FrameStatus::Corrupt,
               "missing '" + std::string(Tag) + "' magic");
  size_t Eol = Bytes.find('\n');
  if (Eol == std::string_view::npos)
    return Bad(FrameStatus::Truncated, "header line is cut short");
  std::string_view LenText = Bytes.substr(Tag.size(), Eol - Tag.size());
  uint64_t Len = 0;
  if (!cli::parseU64(LenText, Len))
    return Bad(FrameStatus::Corrupt,
               "malformed payload length '" + std::string(LenText) + "'");
  size_t Body = Eol + 1;
  if (Len > Bytes.size() - Body)
    return Bad(FrameStatus::Truncated,
               "payload truncated: header declares " + std::to_string(Len) +
                   " bytes, " + std::to_string(Bytes.size() - Body) +
                   " present");
  std::string_view Payload = Bytes.substr(Body, Len);
  std::string_view Rest = Bytes.substr(Body + Len);
  if (Rest.size() < CrcTrailerSize)
    return Bad(FrameStatus::Truncated, "CRC trailer is missing or cut");
  if (Rest.size() > CrcTrailerSize)
    return Bad(FrameStatus::Corrupt, "trailing data after CRC trailer");
  std::string Why;
  if (!checkCrcTrailer(Rest, Payload, &Why))
    return Bad(FrameStatus::Corrupt, std::move(Why));
  return Unframed{FrameStatus::Ok, Payload, {}};
}

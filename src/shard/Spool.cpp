//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "shard/Spool.h"

#include "ir/Dumper.h"
#include "support/AtomicFile.h"
#include "support/Hashing.h"

#include <cinttypes>
#include <cstdio>
#include <unistd.h>

using namespace swift;
using namespace swift::shard;

namespace {

constexpr std::string_view Magic = "swift-spool v1 ";

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

[[noreturn]] void bad(const std::string &Why) { throw SpoolError(Why); }

/// Sequential reader over the payload with line/byte primitives; every
/// primitive validates and throws SpoolError on malformed input.
struct Reader {
  std::string_view Text;
  size_t Pos = 0;

  std::string_view line() {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string_view::npos)
      bad("spool segment truncated: missing newline");
    std::string_view L = Text.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    return L;
  }

  std::string_view bytes(size_t N) {
    if (Text.size() - Pos < N)
      bad("spool segment truncated: short byte run");
    std::string_view B = Text.substr(Pos, N);
    Pos += N;
    return B;
  }

  bool atEnd() const { return Pos == Text.size(); }
};

uint64_t parseDec(std::string_view T, const char *What) {
  if (T.empty())
    bad(std::string("spool segment: empty ") + What);
  uint64_t V = 0;
  for (char C : T) {
    if (C < '0' || C > '9')
      bad(std::string("spool segment: malformed ") + What);
    if (V > UINT64_MAX / 10)
      bad(std::string("spool segment: ") + What + " out of range");
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  return V;
}

uint64_t parseHex(std::string_view T, const char *What) {
  if (T.empty() || T.size() > 16)
    bad(std::string("spool segment: malformed ") + What);
  uint64_t V = 0;
  for (char C : T) {
    int D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else
      bad(std::string("spool segment: malformed ") + What);
    V = V * 16 + static_cast<uint64_t>(D);
  }
  return V;
}

/// Splits \p L at single spaces into exactly \p N fields.
std::vector<std::string_view> fields(std::string_view L, size_t N,
                                     const char *What) {
  std::vector<std::string_view> F;
  size_t Pos = 0;
  while (F.size() + 1 < N) {
    size_t Sp = L.find(' ', Pos);
    if (Sp == std::string_view::npos)
      bad(std::string("spool segment: malformed ") + What + " line");
    F.push_back(L.substr(Pos, Sp - Pos));
    Pos = Sp + 1;
  }
  F.push_back(L.substr(Pos));
  return F;
}

} // namespace

uint64_t shard::programSpoolHash(const Program &Prog,
                                 std::string_view Tracked) {
  // FNV-1a: a fixed, documented byte-string hash (like the framing CRC,
  // and unlike mix64 chains whose constants this repo could re-tune), so
  // spools written by one build validate under another.
  uint64_t H = 1469598103934665603ULL;
  auto Eat = [&H](std::string_view Bytes) {
    for (unsigned char C : Bytes) {
      H ^= C;
      H *= 1099511628211ULL;
    }
  };
  Eat(programToText(Prog));
  Eat("\x1f");
  Eat(Tracked);
  return H;
}

std::string shard::segmentFileName(uint64_t Scc) {
  return "seg-" + std::to_string(Scc) + ".spool";
}

std::string shard::segmentPath(const std::string &Dir, uint64_t Scc) {
  return Dir + "/" + segmentFileName(Scc);
}

std::string shard::encodeSegment(const Segment &S) {
  std::string P;
  P += "prog " + hex16(S.ProgHash) + "\n";
  P += "scc " + std::to_string(S.Scc) + "\n";
  P += "procs " + std::to_string(S.Procs.size()) + "\n";
  for (const SegmentProc &Pr : S.Procs) {
    P += "proc " + Pr.Name + " " + std::to_string(Pr.SummaryText.size()) +
         "\n";
    P += Pr.SummaryText;
  }
  std::string Out;
  Out += Magic;
  Out += std::to_string(P.size());
  Out += '\n';
  Out += P;
  Out += "crc32 " + hex8(crc32(P.data(), P.size())) + "\n";
  return Out;
}

Segment shard::decodeSegment(std::string_view Bytes) {
  if (Bytes.substr(0, Magic.size()) != Magic)
    bad("spool segment: bad magic");
  Reader Frame{Bytes, Magic.size()};
  uint64_t Len = parseDec(Frame.line(), "payload length");
  std::string_view Payload = Frame.bytes(Len);
  std::vector<std::string_view> Trailer =
      fields(Frame.line(), 2, "crc trailer");
  if (Trailer[0] != "crc32")
    bad("spool segment: missing crc trailer");
  if (!Frame.atEnd())
    bad("spool segment: trailing bytes after crc");
  uint32_t Want = 0;
  if (!parseHex8(Trailer[1], Want))
    bad("spool segment: malformed crc");
  if (crc32(Payload.data(), Payload.size()) != Want)
    bad("spool segment: crc mismatch");

  Reader R{Payload, 0};
  Segment S;
  std::vector<std::string_view> F = fields(R.line(), 2, "prog");
  if (F[0] != "prog")
    bad("spool segment: expected prog line");
  S.ProgHash = parseHex(F[1], "program hash");
  F = fields(R.line(), 2, "scc");
  if (F[0] != "scc")
    bad("spool segment: expected scc line");
  S.Scc = parseDec(F[1], "scc index");
  F = fields(R.line(), 2, "procs");
  if (F[0] != "procs")
    bad("spool segment: expected procs line");
  uint64_t N = parseDec(F[1], "proc count");
  for (uint64_t I = 0; I != N; ++I) {
    F = fields(R.line(), 3, "proc");
    if (F[0] != "proc" || F[1].empty())
      bad("spool segment: expected proc line");
    SegmentProc Pr;
    Pr.Name = std::string(F[1]);
    Pr.SummaryText =
        std::string(R.bytes(parseDec(F[2], "summary length")));
    S.Procs.push_back(std::move(Pr));
  }
  if (!R.atEnd())
    bad("spool segment: trailing payload bytes");
  return S;
}

void shard::saveSegment(const std::string &Dir, const Segment &S) {
  writeFileAtomic(segmentPath(Dir, S.Scc), encodeSegment(S), "spool.save");
}

std::optional<Segment> shard::tryLoadSegment(const std::string &Dir,
                                             uint64_t Scc,
                                             uint64_t ExpectProgHash) {
  try {
    Segment S = decodeSegment(readWholeFile(segmentPath(Dir, Scc)));
    if (S.ProgHash != ExpectProgHash || S.Scc != Scc)
      return std::nullopt; // stale spool from another program/run shape
    return S;
  } catch (const std::exception &) {
    // Missing, unreadable, torn, or corrupt: all the same cache miss.
    return std::nullopt;
  }
}

std::string shard::heartbeatPath(const std::string &Dir, unsigned Shard) {
  return Dir + "/hb-" + std::to_string(Shard);
}

void shard::writeHeartbeat(const std::string &Dir, unsigned Shard,
                           uint64_t Pid, unsigned Incarnation,
                           uint64_t LastScc) {
  std::string Body = "pid " + std::to_string(Pid) + " inc " +
                     std::to_string(Incarnation) + " scc " +
                     std::to_string(LastScc) + "\n";
  try {
    writeFileAtomic(heartbeatPath(Dir, Shard), Body, "shard.hb");
  } catch (const std::exception &) {
    // Liveness telemetry only; the worker carries on and the coordinator
    // falls back to exit-status detection.
  }
}

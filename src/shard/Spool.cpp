//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "shard/Spool.h"

#include "ir/Dumper.h"
#include "support/AtomicFile.h"
#include "support/Frame.h"
#include "support/Hashing.h"

using namespace swift;
using namespace swift::shard;

namespace {

constexpr std::string_view Magic = "swift-spool v1 ";

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
  return frame(Magic, P);
}

Segment shard::decodeSegment(std::string_view Bytes) {
  Unframed U = unframe(Magic, Bytes);
  FrameCursor<SpoolError> R(U.Payload, "spool segment: ");
  if (U.Status != FrameStatus::Ok)
    R.fail(U.Reason);

  Segment S;
  std::vector<std::string_view> F = R.fields();
  if (F.size() != 2 || F[0] != "prog" || !parseHex16(F[1], S.ProgHash))
    R.fail("malformed prog line");
  F = R.fields();
  if (F.size() != 2 || F[0] != "scc")
    R.fail("malformed scc line");
  S.Scc = R.dec(F[1]);
  F = R.fields();
  if (F.size() != 2 || F[0] != "procs")
    R.fail("malformed procs line");
  uint64_t N = R.dec(F[1]);
  for (uint64_t I = 0; I != N; ++I) {
    F = R.fields();
    if (F.size() != 3 || F[0] != "proc")
      R.fail("malformed proc line");
    SegmentProc Pr;
    Pr.Name = std::string(F[1]);
    Pr.SummaryText = std::string(R.bytes(R.dec(F[2])));
    S.Procs.push_back(std::move(Pr));
  }
  if (!R.atEnd())
    R.fail("trailing payload bytes");
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

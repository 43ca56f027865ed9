//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summary spool: a crash-safe append-only exchange directory through
/// which sharded workers publish per-SCC relational summaries. One file
/// per SCC ("seg-<scc>.spool"), written via writeFileAtomic under the
/// "spool.save" failpoint prefix, in the shared frame of support/Frame.h
/// that checkpoints and the serve store use ("swift-spool v1 " + decimal
/// payload length + payload + "crc32 " hex trailer) so a reader never
/// observes a torn segment: after a worker dies at any instruction, each
/// segment is either absent or a complete, CRC-valid publication.
///
/// The spool is a CACHE, never a source of truth — the same contract as
/// the serve store. Every segment embeds the 64-bit hash of (program
/// text, tracked class); consumers verify frame, CRC, hash, and member
/// set before adopting, and treat ANY mismatch as a miss: the consumer
/// then recomputes the summaries itself, which the solver's determinism
/// makes byte-identical to what the owner would have published. Nothing a
/// corrupt or stale spool can contain changes an analysis result.
///
/// Heartbeat files ("hb-<shard>") ride in the same directory: tiny
/// atomically-replaced records whose mtime the coordinator polls to
/// distinguish a wedged worker from a slow one.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SHARD_SPOOL_H
#define SWIFT_SHARD_SPOOL_H

#include "ir/Program.h"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace swift {
namespace shard {

/// Typed load failure: truncated framing, CRC mismatch, malformed
/// payload. tryLoadSegment converts these into a cache miss; decode
/// surfaces them for tests and diagnostics.
class SpoolError : public std::runtime_error {
public:
  explicit SpoolError(const std::string &What) : std::runtime_error(What) {}
};

/// One procedure's published summary, as symbolic text (the serve-store
/// codec: names, never symbol ids, so segments are valid across
/// processes with different interning orders).
struct SegmentProc {
  std::string Name;
  std::string SummaryText;
};

/// One SCC's publication.
struct Segment {
  uint64_t ProgHash = 0; ///< programSpoolHash of the producing run.
  uint64_t Scc = 0;      ///< Condensation index.
  std::vector<SegmentProc> Procs;
};

/// Hash binding a spool to one (program, tracked class) configuration;
/// FNV-1a over the canonical program text and the tracked class name.
uint64_t programSpoolHash(const Program &Prog, std::string_view Tracked);

std::string segmentFileName(uint64_t Scc);
std::string segmentPath(const std::string &Dir, uint64_t Scc);

std::string encodeSegment(const Segment &S);
/// Throws SpoolError on any framing or payload defect.
Segment decodeSegment(std::string_view Bytes);

/// encodeSegment + writeFileAtomic (failpoint prefix "spool.save").
void saveSegment(const std::string &Dir, const Segment &S);

/// Verify-then-adopt: reads seg-<scc>, validates frame + CRC + program
/// hash + SCC index. Returns nullopt on ANY failure — missing file, I/O
/// error, corruption, stale hash — never throws. The caller still owns
/// member-set and summary-text validation (those need the Program).
std::optional<Segment> tryLoadSegment(const std::string &Dir, uint64_t Scc,
                                      uint64_t ExpectProgHash);

/// Atomically replaces this shard's heartbeat file (failpoint prefix
/// "shard.hb"). \p LastScc is the most recently published SCC (or ~0u
/// before the first). Heartbeat I/O failures are swallowed: liveness
/// reporting must never take a worker down.
void writeHeartbeat(const std::string &Dir, unsigned Shard, uint64_t Pid,
                    unsigned Incarnation, uint64_t LastScc);

std::string heartbeatPath(const std::string &Dir, unsigned Shard);

} // namespace shard
} // namespace swift

#endif // SWIFT_SHARD_SPOOL_H

//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only edit journal (see Journal.h). Appends are chunked like
/// writeFileAtomic's temp-file writes so a kill failpoint can land at
/// many byte positions inside one record — the torn tails those kills
/// produce are exactly what replayAndRepair's truncation contract is
/// tested against.
///
//===----------------------------------------------------------------------===//

#include "serve/Journal.h"

#include "support/AtomicFile.h"
#include "support/CliParse.h"
#include "support/FailPoint.h"
#include "support/Frame.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace swift;
using namespace swift::serve;

namespace {

/// Small append chunks for the same reason AtomicFile uses 512-byte
/// ones: kill schedules on journal.append.write must reach positions
/// *inside* a record, not just before it.
constexpr size_t AppendChunk = 256;

std::string opError(const char *Op, const std::string &Path, int Err) {
  return std::string(Op) + " '" + Path + "': " + std::strerror(Err);
}

/// Parses "edit <namelen> <bodylen>" (no trailing newline). Returns
/// false on any malformation — which replay treats as a torn tail. Each
/// length is capped below 10^12 (no record field is a terabyte), so the
/// record-extent sum cannot wrap.
bool parseRecordHeader(std::string_view Line, uint64_t &NameLen,
                       uint64_t &BodyLen) {
  constexpr std::string_view Tag = "edit ";
  if (Line.substr(0, Tag.size()) != Tag)
    return false;
  Line.remove_prefix(Tag.size());
  size_t Sp = Line.find(' ');
  if (Sp == std::string_view::npos)
    return false;
  constexpr uint64_t MaxLen = 999'999'999'999;
  return cli::parseU64(Line.substr(0, Sp), NameLen, MaxLen) &&
         cli::parseU64(Line.substr(Sp + 1), BodyLen, MaxLen);
}

} // namespace

std::string Journal::encodeRecord(const Record &R) {
  std::string Out = "edit " + std::to_string(R.ProcName.size()) + " " +
                    std::to_string(R.Body.size()) + "\n" + R.ProcName +
                    R.Body;
  Out += crcTrailer(Out);
  return Out;
}

void Journal::append(const Record &R) {
  if (SWIFT_FAILPOINT("journal.append.open"))
    throw IoError("open", Path,
                  opError("open", Path, EIO) + " (injected)");
  int Fd = ::open(Path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (Fd < 0)
    throw IoError("open", Path, opError("open", Path, errno));
  auto Fail = [&](const char *Op, int E, bool Injected = false) {
    std::string Msg = opError(Op, Path, E) + (Injected ? " (injected)" : "");
    ::close(Fd);
    throw IoError(Op, Path, Msg);
  };

  // A freshly created (empty) file gets the magic line first; the record
  // is appended behind it in the same fd so O_APPEND keeps ordering.
  std::string Bytes;
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    Fail("stat", errno);
  if (St.st_size == 0)
    Bytes.append(Magic);
  Bytes += encodeRecord(R);

  for (size_t Off = 0; Off != Bytes.size();) {
    if (SWIFT_FAILPOINT("journal.append.write"))
      Fail("write", EIO, /*Injected=*/true);
    size_t Want = std::min(AppendChunk, Bytes.size() - Off);
    ssize_t W = ::write(Fd, Bytes.data() + Off, Want);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Fail("write", errno);
    }
    Off += static_cast<size_t>(W);
  }

  // Durability point: the success response must not be sent before the
  // record is on stable storage.
  if (SWIFT_FAILPOINT("journal.append.flush"))
    Fail("fsync", EIO, /*Injected=*/true);
  if (::fsync(Fd) != 0)
    Fail("fsync", errno);
  if (SWIFT_FAILPOINT("journal.append.close"))
    Fail("close", EIO, /*Injected=*/true);
  if (::close(Fd) != 0)
    throw IoError("close", Path, opError("close", Path, errno));
}

std::vector<Journal::Record> Journal::replayAndRepair() const {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0) {
    if (errno == ENOENT)
      return {}; // no journal yet: nothing to replay
    throw IoError("stat", Path, opError("stat", Path, errno));
  }
  std::string Bytes = readWholeFile(Path, "journal.replay");
  if (Bytes.size() < Magic.size() ||
      std::string_view(Bytes).substr(0, Magic.size()) != Magic)
    throw JournalLoadError("swift-serve-journal: '" + Path +
                           "' has no journal magic line; refusing to "
                           "replay (wrong file?)");

  std::vector<Record> Out;
  size_t Pos = Magic.size();
  size_t Good = Pos; // end of the last fully validated record
  std::string_view T(Bytes);
  for (;;) {
    if (Pos == T.size())
      break;
    size_t Eol = T.find('\n', Pos);
    if (Eol == std::string_view::npos)
      break; // header line torn mid-write
    uint64_t NameLen = 0, BodyLen = 0;
    if (!parseRecordHeader(T.substr(Pos, Eol - Pos), NameLen, BodyLen))
      break;
    size_t PayloadBegin = Eol + 1;
    size_t TrailerBegin = PayloadBegin + NameLen + BodyLen;
    size_t RecordEnd = TrailerBegin + CrcTrailerSize;
    if (RecordEnd > T.size())
      break; // payload or trailer torn
    if (!checkCrcTrailer(T.substr(TrailerBegin, CrcTrailerSize),
                         T.substr(Pos, TrailerBegin - Pos)))
      break; // bit rot or a torn rewrite: stop at the last good record
    Record R;
    R.ProcName = std::string(T.substr(PayloadBegin, NameLen));
    R.Body = std::string(T.substr(PayloadBegin + NameLen, BodyLen));
    Out.push_back(std::move(R));
    Pos = Good = RecordEnd;
  }

  if (Good != Bytes.size()) {
    // Cut the torn tail so the next append starts at a record boundary —
    // otherwise every future record would be unreachable behind it.
    if (SWIFT_FAILPOINT("journal.replay.truncate"))
      throw IoError("truncate", Path,
                    opError("truncate", Path, EIO) + " (injected)");
    if (::truncate(Path.c_str(), static_cast<off_t>(Good)) != 0)
      throw IoError("truncate", Path, opError("truncate", Path, errno));
  }
  return Out;
}

void Journal::reset() const {
  writeFileAtomic(Path, Magic, "journal.compact");
}

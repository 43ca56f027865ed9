//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The warm-start summary store behind swift-serve: a crash-safe on-disk
/// snapshot of the incremental engine's per-procedure state (body hash,
/// oracle fingerprint, recorded summary->callee dependency edges, and the
/// full relational summary), plus the summary text codec the engine also
/// uses to translate retained summaries across a program edit.
///
/// Summaries are symbolic: every variable, field, procedure, and class is
/// written by *name*, never by Symbol id — a re-parse after an edit interns
/// symbols in a different order, and the codec's parse side takes the
/// target Program and re-interns, so decode(encode(S, OldProg), NewProg)
/// is exactly the old summary expressed in the new program's vocabulary.
/// Typestate indices and allocation-site ids are written numerically: the
/// spec block is not editable through procedure replacement, and the
/// parser's dense-site-id invariant pins every site id across any edit
/// that parses.
///
/// The file is framed by the shared codec of support/Frame.h
/// ("swift-serve-store v1 " + decimal payload length + payload + crc32
/// trailer, the same frame as a swift-ckpt v2 checkpoint) and goes to disk
/// through writeFileAtomic with failpoint prefix "serve.save", so the
/// crashtest kill campaign covers the store the same way it covers
/// checkpoints: the survivor of a mid-save crash is always a complete,
/// CRC-valid old or new snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SERVE_STORE_H
#define SWIFT_SERVE_STORE_H

#include "framework/RelationalSolver.h"
#include "typestate/Context.h"
#include "typestate/TsAnalysis.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace swift {
namespace serve {

using TsSummary = RelationalSolver<TsAnalysis>::Summary;

/// Thrown on any malformed store file or summary text: truncated framing,
/// CRC mismatch, unknown names, unsatisfiable replayed predicates.
class StoreError : public std::runtime_error {
public:
  explicit StoreError(const std::string &What) : std::runtime_error(What) {}
};

/// One procedure's persisted incremental state.
struct StoredProc {
  std::string Name;
  uint64_t BodyHash = 0;
  uint64_t OracleFp = 0;
  bool HasSummary = false;
  /// Names of callees whose summaries this procedure's summary read
  /// (recorded by the solver's dep recorder); meaningful iff HasSummary.
  std::vector<std::string> Deps;
  TsSummary Sum; ///< Meaningful iff HasSummary.
};

/// A decoded store: the program it was saved against plus per-proc state
/// (summaries already interned into *Prog's symbol table).
struct ParsedStore {
  std::unique_ptr<Program> Prog;
  std::string TrackedClass;
  std::vector<StoredProc> Procs;
};

//===----------------------------------------------------------------------===//
// Summary text codec
//===----------------------------------------------------------------------===//

/// Serializes \p S against \p Prog's symbol table (names, not ids).
std::string summaryToText(const Program &Prog, const TsSummary &S);

/// Parses \p Text, interning every name into \p Prog. Throws StoreError on
/// malformed input or names that do not resolve (procedure names in may-
/// alias constraints must exist in \p Prog). Relation vectors are
/// re-sorted after interning: symbol ids order relations, and ids shift
/// across programs.
TsSummary parseSummaryText(Program &Prog, std::string_view Text);

//===----------------------------------------------------------------------===//
// Store files
//===----------------------------------------------------------------------===//

/// Serializes a full store (program text embedded verbatim) and frames it
/// with the length header + crc32 trailer.
std::string encodeStore(const Program &Prog, const std::string &TrackedClass,
                        const std::vector<StoredProc> &Procs);

/// Validates the framing and decodes everything. Throws StoreError.
ParsedStore decodeStore(std::string_view Bytes);

/// encodeStore + writeFileAtomic (failpoint prefix "serve.save").
void saveStoreFile(const std::string &Path, const Program &Prog,
                   const std::string &TrackedClass,
                   const std::vector<StoredProc> &Procs);

/// readWholeFile + decodeStore. Throws StoreError / std::runtime_error.
ParsedStore loadStoreFile(const std::string &Path);

} // namespace serve
} // namespace swift

#endif // SWIFT_SERVE_STORE_H

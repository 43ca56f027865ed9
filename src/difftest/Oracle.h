//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing oracle, one for every analysis domain. For
/// typestate or any registered client domain it runs the domain's
/// concrete ground truth (the interpreter, or the client's witness
/// machine) and the domain's analysis-mode matrix (TD, pure BU, SWIFT at
/// several (k, theta) and thread counts; typestate adds async and
/// manifest-off runs), then checks every relation the paper guarantees:
///
///  * Soundness — every concretely reached report is reported: by every
///    complete manifest-on typestate run, or by the client's TD reference
///    (whose exit facts must also cover a completed witness run's).
///  * TD coincidence (Theorem 3.1) — SWIFT's report sites and main-exit
///    facts equal TD's at every configuration.
///  * BU agreement — the unpruned bottom-up analysis, instantiated on the
///    initial state, matches TD's report sites and main-exit facts.
///  * Thread determinism — synchronous runs differing only in worker
///    count agree in report sites and points, exit facts, and
///    summary/relation counts.
///
/// Typestate only, since only its matrix records error points and runs
/// without the observation manifest, and serve, shard and checkpoint are
/// typestate-only: error-point containment (a SWIFT error point off a
/// call node is a TD error point), the manifest-off ablation (values
/// coincide, report sites only under-approximate), partial soundness,
/// checkpoint-resume, incremental coincidence and shard invariance.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_DIFFTEST_ORACLE_H
#define SWIFT_DIFFTEST_ORACLE_H

#include "ir/Program.h"
#include "support/Timer.h"

#include <string>
#include <vector>

namespace swift {
namespace difftest {

enum class CheckKind {
  Soundness,
  TdCoincidence,
  ErrorPointSubset,
  BuAgreement,
  ManifestOff,
  ThreadDeterminism,
  /// Budget-limited governed runs return a sound subset: partial error
  /// sites are TD error sites, partial verdicts never claim Proved for a
  /// tracked-but-unresolved site, and a governed run that completes
  /// coincides with TD exactly.
  PartialSoundness,
  /// A run checkpointed at budget exhaustion and resumed (through a full
  /// checkpoint-text round trip) with an unlimited budget is bit-identical
  /// to the uninterrupted run — summaries, relations, error sites, error
  /// points, and main-exit states.
  CheckpointResume,
  /// The incremental serve engine, replaying a deterministic sequence of
  /// procedure-replacement edits with dependency-driven summary reuse,
  /// ends with exactly the error sites and per-site verdicts of a
  /// from-scratch solve of the final program (and its initial solve
  /// coincides with the TD reference).
  IncrementalCoincidence,
  /// The sharded pure-BU pipeline is shard-count invariant: K in
  /// {1, 2, 4} produce identical error sites, error points, main-exit
  /// states, and verdicts, all coinciding with the TD reference's error
  /// sites; and a run with a shard forced into permanent failure stays
  /// sound — its errors are TD errors and no tracked site whose
  /// resolution touched a degraded summary is claimed Proved.
  ShardInvariance,
};

const char *checkKindName(CheckKind K);

/// One oracle failure: which guarantee broke, on which configuration.
struct Violation {
  CheckKind Kind;
  std::string Config; ///< Matrix row, e.g. "swift/k1/th2/async".
  std::string Detail;
};

struct OracleOptions {
  /// Budget per analysis run. A run that times out is skipped by every
  /// check rather than reported (timeouts are resource facts, not bugs).
  RunLimits Limits{2'000'000, 10.0};
  /// Concrete schedules unioned into the ground truth.
  unsigned Schedules = 8;
  uint64_t InterpSeed = 1;
  uint64_t InterpMaxSteps = 20'000;
};

struct OracleResult {
  std::vector<Violation> Violations;
  unsigned RunsDone = 0;
  unsigned RunsTimedOut = 0;
  /// The TD reference run itself exhausted its budget: the checks needing
  /// a completed reference were skipped, not failed (for a client domain,
  /// every check). Tools report such runs with a distinct
  /// resource-exhausted exit code.
  bool ReferenceTimedOut = false;
  bool clean() const { return Violations.empty(); }
};

/// Runs \p Domain's matrix and all its checks on \p Prog. \p Domain is
/// "typestate" (which tracks the program's first typestate spec) or a
/// registered client domain. Throws std::runtime_error for an unknown
/// domain, or for typestate on a program that declares no spec.
OracleResult runOracle(const std::string &Domain, const Program &Prog,
                       const OracleOptions &Opts);

} // namespace difftest
} // namespace swift

#endif // SWIFT_DIFFTEST_ORACLE_H

//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delta-debugging reducer for oracle violations: given a program on which
/// the differential oracle fails, it greedily shrinks the program — drop
/// whole procedures, nop statements in ddmin-style chunks, prune branch
/// and loop edges, and merge the variable/field pools — re-checking after
/// every candidate that the oracle still reports a violation of the same
/// kind. Candidates are produced by re-rendering the program in the
/// swift-ir text format (allocation sites renumber densely in the
/// process) and re-parsing, so every accepted step is a well-formed,
/// self-contained reproducer.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_DIFFTEST_REDUCER_H
#define SWIFT_DIFFTEST_REDUCER_H

#include "difftest/Oracle.h"
#include "ir/Program.h"

#include <cstddef>
#include <functional>
#include <string>

namespace swift {
namespace difftest {

struct ReduceOptions {
  /// Oracle configuration used by the interestingness test. Keep the
  /// limits small: the oracle runs once per candidate.
  OracleOptions Oracle;
  /// Passes over all mutation phases; each pass runs every phase to a
  /// greedy fixpoint, so a couple of rounds normally suffice.
  size_t MaxRounds = 4;
  /// Hard cap on oracle evaluations (the expensive part).
  size_t MaxOracleRuns = 400;
};

struct ReduceResult {
  std::string Text;     ///< Reduced program, swift-ir v1 format.
  size_t NumProcs = 0;  ///< Procedures in the reduced program.
  size_t NumStmts = 0;  ///< Non-nop commands in the reduced program.
  size_t OracleRuns = 0;
};

/// Shrinks \p Prog while the typestate oracle keeps reporting a violation
/// of kind \p Kind. \p Prog itself must exhibit such a violation; if it
/// does not, the input is returned unreduced.
ReduceResult reduceViolation(const Program &Prog, CheckKind Kind,
                             const ReduceOptions &Opts);

/// The generic core behind reduceViolation: shrinks \p Prog while
/// \p StillFails keeps returning true on the candidate. The predicate is
/// the expensive part; \p MaxRuns caps its evaluations and \p MaxRounds
/// the passes over the mutation phases. Candidates that fail to re-parse
/// or are not CFG-sane are rejected without consuming a run. Used by
/// runCampaign, whose interestingness test is its domain's oracle.
ReduceResult
reducePredicate(const Program &Prog,
                const std::function<bool(const Program &)> &StillFails,
                size_t MaxRounds = 4, size_t MaxRuns = 400);

} // namespace difftest
} // namespace swift

#endif // SWIFT_DIFFTEST_REDUCER_H

//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "difftest/Oracle.h"

#include "clients/Concrete.h"
#include "clients/Registry.h"
#include "concrete/Interpreter.h"
#include "framework/Tabulation.h"
#include "govern/Checkpoint.h"
#include "ir/Dumper.h"
#include "serve/EditGen.h"
#include "serve/Engine.h"
#include "shard/Sharded.h"
#include "typestate/Runner.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <stdexcept>
#include <tuple>

#include <unistd.h>

using namespace swift;
using namespace swift::difftest;
using clients::DomainMode;

const char *swift::difftest::checkKindName(CheckKind K) {
  switch (K) {
  case CheckKind::Soundness:
    return "soundness";
  case CheckKind::TdCoincidence:
    return "td-coincidence";
  case CheckKind::ErrorPointSubset:
    return "error-point-subset";
  case CheckKind::BuAgreement:
    return "bu-agreement";
  case CheckKind::ManifestOff:
    return "manifest-off";
  case CheckKind::ThreadDeterminism:
    return "thread-determinism";
  case CheckKind::PartialSoundness:
    return "partial-soundness";
  case CheckKind::CheckpointResume:
    return "checkpoint-resume";
  case CheckKind::IncrementalCoincidence:
    return "incremental-coincidence";
  case CheckKind::ShardInvariance:
    return "shard-invariance";
  }
  return "?";
}

namespace {

//===----------------------------------------------------------------------===//
// Normalized results and their rendering
//===----------------------------------------------------------------------===//

/// Rendered report sites, points or facts: the one currency every check
/// compares in, whatever the domain's native result types.
using Keys = std::set<std::string>;

Keys setMinus(const Keys &A, const Keys &B) {
  Keys Out;
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::inserter(Out, Out.end()));
  return Out;
}

/// "{a; b; ...}", eliding past the eighth element.
std::string keysStr(const Keys &S) {
  std::string Out = "{";
  size_t I = 0;
  for (const std::string &K : S) {
    if (I == 8) {
      Out += "; ...";
      break;
    }
    Out += (I++ ? "; " : "") + K;
  }
  return Out + "}";
}

Keys siteKeys(const std::set<SiteId> &S) {
  Keys Out;
  for (SiteId Id : S)
    Out.insert("@" + std::to_string(Id));
  return Out;
}

std::string sitesStr(const std::set<SiteId> &S) {
  return keysStr(siteKeys(S));
}

/// Abstract states rendered through \p Prog's own symbol table, so states
/// of two programs with different interning orders compare by meaning.
Keys exitKeys(const Program &Prog, const std::set<TsAbstractState> &S) {
  Keys Out;
  for (const TsAbstractState &St : S)
    Out.insert(St.str(Prog));
  return Out;
}

std::string nodeStr(const Program &Prog, ProcId P, NodeId N) {
  return Prog.symbols().text(Prog.proc(P).name()) + ":" + std::to_string(N);
}

std::string errorPointStr(const Program &Prog, const TsError &E) {
  return "@" + std::to_string(E.Site) + " at " + nodeStr(Prog, E.Proc, E.Node);
}

/// One analysis run reduced to what the shared checks compare.
struct NormRun {
  bool Timeout = false;
  Keys Reports;   ///< Report sites: typestate "@site", clients "proc:node".
  Keys Points;    ///< Where reports were seen (typestate error points).
  Keys ExitFacts; ///< Non-report facts or states at main's exit.
  std::vector<uint64_t> Counts; ///< TD-summary and BU-relation counts.
};

//===----------------------------------------------------------------------===//
// The configuration matrix, one row per analysis run
//===----------------------------------------------------------------------===//

struct ConfigRow {
  std::string Name; ///< The Violation::Config of this run.
  DomainMode Mode = DomainMode::Td;
  uint64_t K = 0;     ///< SWIFT trigger threshold (Swift rows).
  uint64_t Theta = 1; ///< SWIFT pruning threshold (Swift rows).
  unsigned Threads = 1;
  bool Async = false;   ///< Triggered BU solves run on worker threads.
  bool Manifest = true; ///< Observation manifest on (off: ablation).
};

struct Matrix {
  std::vector<ConfigRow> Rows; ///< Rows[0] is the TD reference.
  /// Once a (mode, k, theta) times out, skip its other variants: the step
  /// budget bounds total work, so they would burn the same wall budget
  /// just to time out again.
  bool SkipTimedOutVariants = false;
  /// Every check compares against the reference, so a timed-out
  /// reference ends the oracle.
  bool StopOnReferenceTimeout = false;
};

/// TD (the ground truth of Theorem 3.1), pure BU at each thread count,
/// and SWIFT sync/async at several (k, theta) x threads x manifest.
Matrix typestateMatrix() {
  using KT = std::pair<uint64_t, uint64_t>;
  Matrix M{{{"td", DomainMode::Td}}, /*SkipTimedOutVariants=*/true,
           /*StopOnReferenceTimeout=*/false};
  for (unsigned T : {1u, 2u, 4u})
    M.Rows.push_back({"bu/t" + std::to_string(T), DomainMode::Bu, 0, 0, T});
  auto Swift = [&M](uint64_t K, uint64_t Theta, unsigned T, bool Async,
                    bool Manifest) {
    std::string N =
        "swift/k" + std::to_string(K) + "/th" + std::to_string(Theta);
    if (Async)
      N += "/async";
    if (T != 1)
      N += "/t" + std::to_string(T);
    if (!Manifest)
      N += "/nomanifest";
    M.Rows.push_back({N, DomainMode::Swift, K, Theta, T, Async, Manifest});
  };
  // The trigger fires at different times at each (k, theta), so these
  // cover very different mixes of analyzed vs served calls.
  for (auto [K, Theta] : {KT{0, 1}, {1, 1}, {2, 1}, {1, 2}, {3, 2}, {5, 2}})
    Swift(K, Theta, 1, false, true);
  // Bottom-up worker threads: results must be bit-identical at every
  // count, so two representative (k, theta) points suffice per count.
  for (unsigned T : {2u, 4u})
    for (auto [K, Theta] : {KT{2, 1}, {5, 2}})
      Swift(K, Theta, T, false, true);
  // The asynchronous trigger (Section 7): the summary install point moves,
  // the result must not.
  for (auto [K, Theta] : {KT{1, 1}, {2, 2}})
    for (unsigned T : {1u, 4u})
      Swift(K, Theta, T, true, true);
  for (auto [K, Theta] : {KT{2, 1}, {5, 2}})
    Swift(K, Theta, 1, false, false);
  return M;
}

/// TD, SWIFT k in {1, 3} x theta in {1, 2} x threads in {1, 2, 4}, and
/// BU at threads {1, 2, 4}; every name begins with the domain, so a
/// reproducer header records which domain to replay it under.
Matrix clientMatrix(const std::string &Domain) {
  Matrix M{{{Domain + "/td", DomainMode::Td}},
           /*SkipTimedOutVariants=*/false, /*StopOnReferenceTimeout=*/true};
  for (uint64_t K : {1, 3})
    for (uint64_t Theta : {1, 2})
      for (unsigned T : {1u, 2u, 4u})
        M.Rows.push_back({Domain + "/swift/k" + std::to_string(K) +
                              "/theta" + std::to_string(Theta) + "/th" +
                              std::to_string(T),
                          DomainMode::Swift, K, Theta, T});
  for (unsigned T : {1u, 2u, 4u})
    M.Rows.push_back(
        {Domain + "/bu/th" + std::to_string(T), DomainMode::Bu, 0, 0, T});
  return M;
}

//===----------------------------------------------------------------------===//
// The matrix loop and the checks every domain shares
//===----------------------------------------------------------------------===//

class MatrixOracle {
public:
  MatrixOracle(const Program &Prog, const OracleOptions &Opts, Matrix M)
      : Prog(Prog), Opts(Opts), M(std::move(M)) {}

  OracleResult run();

protected:
  virtual NormRun runRow(const ConfigRow &Row) = 0;
  /// Checks completed run \p I against the domain's concrete ground truth.
  virtual void checkGroundTruth(size_t I) = 0;
  /// Domain-only checks of completed run \p I against the completed
  /// reference, after the shared ones.
  virtual void checkAgainstReference(size_t I) { (void)I; }
  /// Domain-only checks beyond the matrix; need a completed reference.
  virtual void checkBeyondMatrix() {}

  void add(CheckKind Kind, const std::string &Config, std::string Detail) {
    Res.Violations.push_back(Violation{Kind, Config, std::move(Detail)});
  }

  const Program &Prog;
  const OracleOptions &Opts;
  Matrix M;
  std::vector<const ConfigRow *> Ran; ///< Rows run; Ran[0] is TD.
  std::vector<NormRun> Runs;          ///< Parallel to Ran.

private:
  void compareWithReference(size_t I);
  void checkThreadDeterminism();

  OracleResult Res;
};

OracleResult MatrixOracle::run() {
  std::set<std::tuple<DomainMode, uint64_t, uint64_t>> TimedOut;
  for (const ConfigRow &Row : M.Rows) {
    auto Variant = std::make_tuple(Row.Mode, Row.K, Row.Theta);
    if (M.SkipTimedOutVariants && TimedOut.count(Variant))
      continue;
    Ran.push_back(&Row);
    Runs.push_back(runRow(Row));
    ++Res.RunsDone;
    if (Runs.back().Timeout) {
      ++Res.RunsTimedOut;
      TimedOut.insert(Variant);
    }
    // A timed-out reference is a resource fact, not a bug: reference-
    // dependent checks are skipped, and the flag lets tools exit with the
    // distinct resource-exhausted code instead of silently passing.
    if (Runs.size() == 1 && Runs[0].Timeout) {
      Res.ReferenceTimedOut = true;
      if (M.StopOnReferenceTimeout)
        return std::move(Res);
    }
  }

  bool RefOk = !Res.ReferenceTimedOut;
  for (size_t I = 0; I != Runs.size(); ++I) {
    if (Runs[I].Timeout)
      continue;
    checkGroundTruth(I);
    if (RefOk && I != 0) {
      compareWithReference(I);
      checkAgainstReference(I);
    }
  }
  checkThreadDeterminism();
  if (RefOk)
    checkBeyondMatrix();
  return std::move(Res);
}

/// Theorem 3.1 and BU agreement: exact coincidence of report sites and
/// main-exit facts with TD. Manifest off is an ablation: the manifest
/// only affects reporting, so values must still coincide and report sites
/// may only under-approximate TD's, never over-approximate.
void MatrixOracle::compareWithReference(size_t I) {
  const ConfigRow &Row = *Ran[I];
  const NormRun &Got = Runs[I], &Ref = Runs[0];
  CheckKind Kind = Row.Mode == DomainMode::Bu ? CheckKind::BuAgreement
                   : Row.Manifest             ? CheckKind::TdCoincidence
                                              : CheckKind::ManifestOff;
  auto Diverge = [&](const char *What, const Keys &Want, const Keys &Have) {
    add(Kind, Row.Name,
        std::string(What) + " diverge from td: missing=" +
            keysStr(setMinus(Want, Have)) +
            " extra=" + keysStr(setMinus(Have, Want)));
  };
  if (Row.Manifest ? Got.Reports != Ref.Reports
                   : !std::includes(Ref.Reports.begin(), Ref.Reports.end(),
                                    Got.Reports.begin(), Got.Reports.end()))
    Diverge("report sites", Ref.Reports, Got.Reports);
  if (Got.ExitFacts != Ref.ExitFacts)
    Diverge("main-exit facts", Ref.ExitFacts, Got.ExitFacts);
}

/// Synchronous runs differing only in worker count must agree in every
/// normalized field. Async runs are excluded: the summary install point
/// depends on scheduling, so summary counts and report points may differ
/// run to run (sites and exit facts may not, which compareWithReference
/// already enforces).
void MatrixOracle::checkThreadDeterminism() {
  std::map<std::tuple<DomainMode, uint64_t, uint64_t, bool>, size_t> First;
  for (size_t I = 0; I != Runs.size(); ++I) {
    const ConfigRow &Row = *Ran[I];
    if (Runs[I].Timeout || Row.Async)
      continue;
    auto [It, Inserted] = First.emplace(
        std::make_tuple(Row.Mode, Row.K, Row.Theta, Row.Manifest), I);
    if (Inserted)
      continue;
    const NormRun &A = Runs[It->second], &B = Runs[I];
    auto Mismatch = [&](const char *What) {
      add(CheckKind::ThreadDeterminism, Row.Name,
          std::string(What) + " differ from " + Ran[It->second]->Name);
    };
    if (A.Reports != B.Reports)
      Mismatch("report sites");
    if (A.Points != B.Points)
      Mismatch("report points");
    if (A.ExitFacts != B.ExitFacts)
      Mismatch("main-exit facts");
    if (A.Counts != B.Counts)
      Mismatch("summary/relation counts");
  }
}

//===----------------------------------------------------------------------===//
// Typestate: the concrete interpreter and the typestate-only checks
//===----------------------------------------------------------------------===//

/// Edits replayed per program by the incremental check.
constexpr unsigned IncrementalEdits = 3;

/// The class the typestate oracle verifies: the program's first spec
/// (fuzz programs declare exactly one, "File").
Symbol firstSpecClass(const Program &Prog) {
  if (Prog.numSpecs() == 0)
    throw std::runtime_error("difftest oracle: program has no typestate spec");
  return Prog.spec(0).name();
}

class TypestateOracle : public MatrixOracle {
public:
  TypestateOracle(const Program &Prog, const OracleOptions &Opts)
      : MatrixOracle(Prog, Opts, typestateMatrix()),
        Tracked(firstSpecClass(Prog)), Ctx(Prog, Tracked) {
    // Ground truth: union of the error sites seen by several concrete
    // schedules. Errors recorded before a budget exhaustion are still
    // real executions, so incomplete runs contribute too.
    for (unsigned I = 0; I != Opts.Schedules; ++I) {
      InterpConfig IC;
      IC.Seed = Opts.InterpSeed + I;
      IC.MaxSteps = Opts.InterpMaxSteps;
      // Alternate loop appetites so both quick exits and deep iteration
      // get explored.
      IC.LoopContinuePerMille = (I % 2) ? 700 : 300;
      for (SiteId S : interpret(Prog, IC).ErrorSites)
        Concrete.insert("@" + std::to_string(S));
    }
  }

private:
  NormRun runRow(const ConfigRow &Row) override;
  void checkGroundTruth(size_t I) override;
  void checkAgainstReference(size_t I) override;
  void checkBeyondMatrix() override {
    checkPartialSoundness(Raw[0]);
    checkCheckpointResume(Raw[0]);
    checkIncremental(Raw[0]);
    checkShardInvariance(Raw[0]);
  }

  void checkPartialSoundness(const TsRunResult &Td);
  void checkCheckpointResume(const TsRunResult &Td);
  void checkIncremental(const TsRunResult &Td);
  void checkShardInvariance(const TsRunResult &Td);

  Symbol Tracked;
  TsContext Ctx;
  Keys Concrete;                ///< Sites concretely driven into error.
  std::vector<TsRunResult> Raw; ///< Parallel to Runs.
};

NormRun TypestateOracle::runRow(const ConfigRow &Row) {
  TsRunResult R;
  switch (Row.Mode) {
  case DomainMode::Td:
    R = runTypestateTd(Ctx, Opts.Limits);
    break;
  case DomainMode::Bu:
    R = runTypestateBu(Ctx, Opts.Limits, Row.Threads);
    break;
  case DomainMode::Swift:
    R = runTypestateSwift(
        Ctx, SwiftRunConfig{Row.K, Row.Theta, Row.Async, Row.Threads,
                            Row.Manifest},
        Opts.Limits);
    break;
  }
  NormRun N;
  N.Timeout = R.Timeout;
  N.Reports = siteKeys(R.ErrorSites);
  for (const TsError &E : R.ErrorPoints)
    N.Points.insert(errorPointStr(Prog, E));
  N.ExitFacts = exitKeys(Prog, R.MainExit);
  N.Counts = R.TdSummariesPerProc;
  N.Counts.push_back(R.TdSummaries);
  N.Counts.push_back(R.BuRelations);
  Raw.push_back(std::move(R));
  return N;
}

/// The concrete semantics only enters error states the manifest-on
/// analyses are required to report.
void TypestateOracle::checkGroundTruth(size_t I) {
  const ConfigRow &Row = *Ran[I];
  Keys Missed = setMinus(Concrete, Runs[I].Reports);
  if (Row.Manifest && !Missed.empty())
    add(CheckKind::Soundness, Row.Name,
        "concretely erroring sites not reported: " + keysStr(Missed) +
            "; reported " + keysStr(Runs[I].Reports));
}

/// Error points: SWIFT may move a point to the serving call site, but a
/// point at a non-call node must be one TD computed too.
void TypestateOracle::checkAgainstReference(size_t I) {
  const ConfigRow &Row = *Ran[I];
  if (Row.Mode != DomainMode::Swift || !Row.Manifest)
    return;
  for (const TsError &E : Raw[I].ErrorPoints)
    if (!Raw[0].ErrorPoints.count(E) &&
        Prog.proc(E.Proc).node(E.Node).Cmd.Kind != CmdKind::Call)
      add(CheckKind::ErrorPointSubset, Row.Name,
          "error point " + errorPointStr(Prog, E) +
              " is at a non-call node and td never computed it");
}

/// Budget-limited governed runs at fractions of the reference run's step
/// count must return sound subsets: partial error sites are TD error
/// sites, partial verdicts never claim Proved for an unresolved tracked
/// site, and a governed run that happens to complete coincides with TD.
void TypestateOracle::checkPartialSoundness(const TsRunResult &Td) {
  struct Probe {
    const char *Name;
    SwiftRunConfig Config;
    uint64_t MaxSteps;
  };
  uint64_t Quarter = std::max<uint64_t>(20, Td.Steps / 4);
  uint64_t Half = std::max<uint64_t>(20, Td.Steps / 2);
  SwiftRunConfig TdCfg;
  TdCfg.K = NoBuTrigger;
  TdCfg.Theta = 1;
  SwiftRunConfig HybridCfg;
  HybridCfg.K = 1;
  HybridCfg.Theta = 1;
  const Probe Probes[] = {
      {"governed-td/quarter", TdCfg, Quarter},
      {"governed-td/half", TdCfg, Half},
      {"governed-swift/half", HybridCfg, Half},
  };

  for (const Probe &P : Probes) {
    GovernedRunOptions GO;
    GO.Config = P.Config;
    GO.Limits.MaxSteps = P.MaxSteps;
    TsGovernedResult G = runTypestateGoverned(Ctx, GO);

    // Partial or complete, reported error sites must be TD error sites.
    Keys Extra = setMinus(siteKeys(G.Run.ErrorSites), siteKeys(Td.ErrorSites));
    if (!Extra.empty())
      add(CheckKind::PartialSoundness, P.Name,
          "partial run reports error sites td does not: " + keysStr(Extra));

    for (uint32_t S = 0; S != G.Verdicts.size(); ++S) {
      TsVerdict V = G.Verdicts[S];
      if (V == TsVerdict::ErrorReported && !Td.ErrorSites.count(S))
        add(CheckKind::PartialSoundness, P.Name,
            "verdict for @" + std::to_string(S) +
                " is error but td never reports it");
      if (V == TsVerdict::Proved && G.Partial && Ctx.isTrackedSite(S))
        add(CheckKind::PartialSoundness, P.Name,
            "partial run claims Proved for tracked site @" +
                std::to_string(S));
      if (V == TsVerdict::Proved && !G.Partial && Td.ErrorSites.count(S))
        add(CheckKind::PartialSoundness, P.Name,
            "complete governed run claims Proved for @" +
                std::to_string(S) + " but td reports it");
    }

    if (!G.Partial) {
      // A completed governed run is an ordinary run; full coincidence.
      if (G.Run.ErrorSites != Td.ErrorSites)
        add(CheckKind::PartialSoundness, P.Name,
            "complete governed run's error sites " +
                sitesStr(G.Run.ErrorSites) + " != td " +
                sitesStr(Td.ErrorSites));
      if (G.Run.MainExit != Td.MainExit)
        add(CheckKind::PartialSoundness, P.Name,
            "complete governed run's main-exit states " +
                keysStr(exitKeys(Prog, G.Run.MainExit)) + " != td " +
                keysStr(exitKeys(Prog, Td.MainExit)));
    }
  }
}

/// Exhaust a governed TD run at half the reference step count, serialize
/// the checkpoint, parse it back, resume with an unlimited budget, and
/// demand bit-identity with the uninterrupted reference in every result
/// field.
void TypestateOracle::checkCheckpointResume(const TsRunResult &Td) {
  const char *Name = "checkpoint-resume/td-half";
  SwiftRunConfig TdCfg;
  TdCfg.K = NoBuTrigger;
  TdCfg.Theta = 1;

  TsTabSnapshot Snap;
  GovernedRunOptions GO;
  GO.Config = TdCfg;
  GO.Limits.MaxSteps = std::max<uint64_t>(20, Td.Steps / 2);
  GO.CheckpointOut = &Snap;
  TsGovernedResult G = runTypestateGoverned(Ctx, GO);

  if (!G.Partial) {
    // Tiny program: nothing was checkpointed, the run just completed —
    // the coincidence half of the contract still applies.
    if (G.Run.ErrorSites != Td.ErrorSites || G.Run.MainExit != Td.MainExit)
      add(CheckKind::CheckpointResume, Name,
          "governed run completed under the limited budget but "
          "does not coincide with td");
    return;
  }

  // Serialize, parse, and resume on the *parsed* program — the round trip
  // itself is under test.
  TsCheckpoint C;
  C.Config = TdCfg;
  C.TrackedClass = Prog.symbols().text(Tracked);
  C.StepsConsumed = Snap.StepsConsumed;
  C.Snapshot = std::move(Snap);

  ParsedCheckpoint PC;
  try {
    PC = parseCheckpointText(checkpointToText(Prog, C));
  } catch (const std::exception &E) {
    add(CheckKind::CheckpointResume, Name,
        std::string("checkpoint text round trip failed: ") +
            E.what());
    return;
  }

  TsContext ResumedCtx(*PC.Prog, PC.Prog->symbols().intern(
                                     PC.Checkpoint.TrackedClass));
  GovernedRunOptions RO;
  RO.Config = PC.Checkpoint.Config;
  RO.ResumeFrom = &PC.Checkpoint.Snapshot;
  TsGovernedResult R = runTypestateGoverned(ResumedCtx, RO);

  if (R.Partial) {
    add(CheckKind::CheckpointResume, Name,
        "resumed run with unlimited budget did not complete");
    return;
  }
  auto Mismatch = [&](const char *What, const std::string &Detail) {
    add(CheckKind::CheckpointResume, Name,
        std::string(What) + " of resumed run differs from the "
                            "uninterrupted run: " +
            Detail);
  };
  if (R.Run.ErrorSites != Td.ErrorSites)
    Mismatch("error sites", sitesStr(R.Run.ErrorSites) + " != " +
                                sitesStr(Td.ErrorSites));
  if (R.Run.ErrorPoints != Td.ErrorPoints)
    Mismatch("error points", "set contents differ");
  // The resumed run lives in the re-parsed program's symbol-id space:
  // site, proc, and node ids survive the checkpoint text round trip by
  // construction, but symbols re-intern in textual order, which need not
  // match the original program's interning order (a generator-built
  // program interns in generation order). Abstract states carry access
  // paths — Symbols — so they must be compared by rendered text through
  // each run's own symbol table; comparing raw ids flags identical states
  // as different (and prints them with swapped names) whenever the two
  // orders disagree.
  Keys Resumed = exitKeys(*PC.Prog, R.Run.MainExit);
  Keys Uninterrupted = exitKeys(Prog, Td.MainExit);
  if (Resumed != Uninterrupted)
    Mismatch("main-exit states",
             keysStr(Resumed) + " != " + keysStr(Uninterrupted));
  if (R.Run.TdSummaries != Td.TdSummaries)
    Mismatch("td-summary count",
             std::to_string(R.Run.TdSummaries) + " != " +
                 std::to_string(Td.TdSummaries));
  if (R.Run.TdSummariesPerProc != Td.TdSummariesPerProc)
    Mismatch("per-procedure td-summary counts", "vectors differ");
  if (R.Run.BuRelations != Td.BuRelations)
    Mismatch("bu-relation count",
             std::to_string(R.Run.BuRelations) + " != " +
                 std::to_string(Td.BuRelations));
}

/// Replay a deterministic procedure-replacement edit sequence on the
/// incremental serve engine and demand its final verdicts coincide with a
/// from-scratch solve of the final program text. Blow-ups — the serve
/// engine's per-request step budget or its per-point relation cap — are
/// resource facts, not bugs: the check skips the program, mirroring how
/// the other checks skip timed-out runs. The relation cap is deliberately
/// tight so unprunable fuzz programs fail fast instead of stalling the
/// seed loop.
void TypestateOracle::checkIncremental(const TsRunResult &Td) {
  const char *Name = "incremental/edit-replay";
  serve::EngineOptions EO;
  EO.TrackedClass = Prog.symbols().text(Tracked);
  EO.MaxStepsPerRequest = Opts.Limits.MaxSteps;
  EO.MaxRelsPerPoint = 1 << 12;

  std::unique_ptr<serve::ServeEngine> Inc;
  try {
    Inc = std::make_unique<serve::ServeEngine>(programToText(Prog), EO);
  } catch (const std::exception &E) {
    add(CheckKind::IncrementalCoincidence, Name,
        std::string("engine rejected canonical program text: ") +
            E.what());
    return;
  }
  if (!Inc->solveInitial().Ok)
    return; // Budget or relation-cap exhaustion: skip, don't fail.

  // The cold solve is an unpruned BU run; its error sites must coincide
  // with the TD reference (site ids survive the text round trip).
  if (Inc->errorSites() != Td.ErrorSites) {
    add(CheckKind::IncrementalCoincidence, Name,
        "initial serve solve's error sites " +
            sitesStr(Inc->errorSites()) + " != td " +
            sitesStr(Td.ErrorSites));
    return;
  }

  // Replay edits. A budget-exhausted edit is transactional and skipped;
  // any other rejection of a generated edit is a generator/engine bug.
  unsigned Applied = 0;
  for (uint64_t K = 0;
       K != 2 * IncrementalEdits && Applied != IncrementalEdits;
       ++K) {
    std::optional<serve::FuzzEdit> E =
        serve::makeFuzzEdit(Inc->programText(), Opts.InterpSeed, K);
    if (!E)
      break; // Nothing editable (e.g. every command is an allocation).
    serve::EditResult R = Inc->applyEdit(E->ProcName, E->Body);
    if (R.BudgetExhausted)
      continue;
    if (!R.Ok) {
      add(CheckKind::IncrementalCoincidence, Name,
          "generated edit #" + std::to_string(K) + " on '" +
              E->ProcName + "' rejected: " + R.Error);
      return;
    }
    ++Applied;
  }
  if (Applied == 0)
    return;

  serve::ServeEngine Fresh(Inc->programText(), EO);
  if (!Fresh.solveInitial().Ok)
    return; // The edited program blew up from scratch: skip.

  if (Fresh.errorSites() != Inc->errorSites()) {
    add(CheckKind::IncrementalCoincidence, Name,
        "after " + std::to_string(Applied) +
            " edits, incremental error sites " +
            sitesStr(Inc->errorSites()) + " != from-scratch " +
            sitesStr(Fresh.errorSites()));
    return;
  }
  for (SiteId S = 0; S != Fresh.program().numSites(); ++S)
    if (Fresh.verdict(S) != Inc->verdict(S)) {
      add(CheckKind::IncrementalCoincidence, Name,
          "after " + std::to_string(Applied) +
              " edits, verdict for @" + std::to_string(S) +
              " differs: incremental " +
              tsVerdictName(Inc->verdict(S)) + " != from-scratch " +
              tsVerdictName(Fresh.verdict(S)));
      return;
    }

  // Journal-replay coincidence: walk the same deterministic edit
  // sequence through a *journaled* engine (fsync'd WAL append before
  // every commit), then recover crash-style — verified store plus
  // journal tail — into a third engine. The recovered state must equal
  // the resident incremental engine's exactly.
  namespace fs = std::filesystem;
  std::string Base =
      (fs::temp_directory_path() /
       ("swift-oracle-journal-" + std::to_string(::getpid()) + "-" +
        std::to_string(Opts.InterpSeed)))
          .string();
  std::string StPath = Base + ".swiftstore";
  std::string JPath = Base + ".swiftjournal";
  auto Cleanup = [&] {
    std::error_code EC;
    fs::remove(StPath, EC);
    fs::remove(JPath, EC);
  };
  try {
    serve::EngineOptions JEO = EO;
    JEO.StorePath = StPath;
    JEO.JournalPath = JPath;
    serve::ServeEngine J(programToText(Prog), JEO);
    if (!J.solveInitial().Ok) {
      Cleanup();
      return;
    }
    J.resetJournal();
    unsigned JApplied = 0;
    for (uint64_t K = 0;
         K != 2 * IncrementalEdits && JApplied != IncrementalEdits;
         ++K) {
      std::optional<serve::FuzzEdit> E =
          serve::makeFuzzEdit(J.programText(), Opts.InterpSeed, K);
      if (!E)
        break;
      serve::EditResult R = J.applyEdit(E->ProcName, E->Body);
      if (R.BudgetExhausted)
        continue;
      if (!R.Ok)
        break;
      ++JApplied;
    }
    if (JApplied != Applied || J.programText() != Inc->programText()) {
      add(CheckKind::IncrementalCoincidence, Name,
          "journaled engine diverged from the in-memory edit "
          "sequence (same generator, same caps)");
      Cleanup();
      return;
    }
    serve::ServeEngine Rec(serve::ServeEngine::FromStore{StPath}, JEO);
    size_t Replayed = 0;
    if (!Rec.solveInitial().Ok || !Rec.replayJournal(&Replayed).Ok) {
      add(CheckKind::IncrementalCoincidence, Name,
          "store+journal recovery failed to re-solve edits the "
          "journaled engine had accepted");
      Cleanup();
      return;
    }
    bool Same = Replayed == JApplied &&
                Rec.programText() == Inc->programText() &&
                Rec.errorSites() == Inc->errorSites();
    for (SiteId S = 0; Same && S != Rec.program().numSites(); ++S)
      Same = Rec.verdict(S) == Inc->verdict(S);
    if (!Same)
      add(CheckKind::IncrementalCoincidence, Name,
          "store+journal recovery diverges from the resident "
          "incremental engine after " +
              std::to_string(JApplied) + " journaled edits");
  } catch (const std::exception &E) {
    add(CheckKind::IncrementalCoincidence, Name,
        std::string("journal-replay coincidence check failed: ") +
            E.what());
  }
  Cleanup();
}

/// Shard-count invariance: the sharded pure-BU pipeline (plan, worker
/// simulation, segment exchange through the spool codec, assembly) must
/// produce identical results at K = 1, 2, and 4 — and their error sites
/// must be TD's, since each sharded run is runTypestateBu by another
/// route. A forced permanent failure of shard 0 must keep the remaining
/// verdicts sound: reported errors are TD errors, and no tracked site
/// whose resolution touched a degraded summary is claimed Proved.
void TypestateOracle::checkShardInvariance(const TsRunResult &Td) {
  // The sharded runner adopts summaries back through the text codec,
  // which interns symbols — it needs a mutable program. Run it on a
  // private text round trip; site ids survive the round trip, so error
  // sites and verdict vectors compare directly against TD's.
  std::unique_ptr<Program> Copy;
  try {
    Copy = parseProgramText(programToText(Prog));
  } catch (const std::exception &E) {
    add(CheckKind::ShardInvariance, "shard/setup",
        std::string("program text round trip failed: ") + E.what());
    return;
  }
  std::string Class = Prog.symbols().text(Tracked);

  shard::ShardedOptions SO;
  SO.MaxSteps = Opts.Limits.MaxSteps;
  std::optional<shard::ShardedResult> Ref;
  std::string RefName;
  for (unsigned K : {1u, 2u, 4u}) {
    SO.NumShards = K;
    shard::ShardedResult R = shard::runShardedInProcess(*Copy, Class, SO);
    if (!R.Complete)
      return; // budget exhaustion is a resource fact: skip, don't fail
    std::string KName = "shard/k" + std::to_string(K);
    if (R.ErrorSites != Td.ErrorSites)
      add(CheckKind::ShardInvariance, KName,
          "error sites " + sitesStr(R.ErrorSites) + " != td " +
              sitesStr(Td.ErrorSites));
    if (!Ref) {
      Ref = std::move(R);
      RefName = KName;
      continue;
    }
    auto Mismatch = [&](const char *What) {
      add(CheckKind::ShardInvariance, KName,
          std::string(What) + " differ from " + RefName);
    };
    if (R.ErrorSites != Ref->ErrorSites)
      Mismatch("error sites");
    if (R.ErrorPoints != Ref->ErrorPoints)
      Mismatch("error points");
    if (R.MainExit != Ref->MainExit)
      Mismatch("main-exit states");
    if (R.Verdicts != Ref->Verdicts)
      Mismatch("verdicts");
  }

  // Forced permanent failure of shard 0 of 2 — the deepest callees'
  // summaries degrade to ignore-all.
  SO.NumShards = 2;
  SO.DegradedShards = {0};
  shard::ShardedResult D = shard::runShardedInProcess(*Copy, Class, SO);
  if (!D.Complete)
    return;
  const char *DName = "shard/k2-degraded0";
  Keys Extra = setMinus(siteKeys(D.ErrorSites), siteKeys(Td.ErrorSites));
  if (!Extra.empty())
    add(CheckKind::ShardInvariance, DName,
        "degraded run reports error sites td does not: " + keysStr(Extra));
  if (D.Degraded) {
    for (uint32_t S = 0; S != D.Verdicts.size(); ++S)
      if (D.Verdicts[S] == TsVerdict::Proved && Ctx.isTrackedSite(S))
        add(CheckKind::ShardInvariance, DName,
            "degraded run claims Proved for tracked site @" +
                std::to_string(S));
  } else if (D.ErrorSites != Td.ErrorSites) {
    // Shard 0 fell outside main's closure, so the run was full after all
    // and owes exact coincidence.
    add(CheckKind::ShardInvariance, DName,
        "error sites " + sitesStr(D.ErrorSites) + " != td " +
            sitesStr(Td.ErrorSites));
  }
}

//===----------------------------------------------------------------------===//
// Client domains: the witness machine against the TD reference
//===----------------------------------------------------------------------===//

class ClientOracle : public MatrixOracle {
public:
  ClientOracle(const std::string &Domain, const Program &Prog,
               const OracleOptions &Opts)
      : MatrixOracle(Prog, Opts, clientMatrix(Domain)), Domain(Domain) {}

private:
  NormRun runRow(const ConfigRow &Row) override {
    clients::DomainRunResult R = clients::runClientDomain(
        Domain, Prog, Row.Mode, Row.K, Row.Theta, Row.Threads, Opts.Limits);
    NormRun N;
    N.Timeout = R.Timeout;
    for (const auto &[P, Node] : R.Reports)
      N.Reports.insert(nodeStr(Prog, P, Node));
    N.ExitFacts = std::move(R.ExitFacts);
    N.Counts = {R.TdSummaries, R.BuRelations};
    return N;
  }

  /// Witness schedules against the TD reference (coincidence carries the
  /// result to every other configuration). One violation per schedule
  /// and component at most: the first miss names the schedule, further
  /// misses on it add no information.
  void checkGroundTruth(size_t I) override {
    if (I != 0)
      return;
    const NormRun &Ref = Runs[0];
    for (unsigned S = 0; S != Opts.Schedules; ++S) {
      clients::WitnessConfig WC;
      WC.Seed = Opts.InterpSeed + S;
      WC.MaxSteps = Opts.InterpMaxSteps;
      clients::WitnessResult W = clients::runClientWitness(Domain, Prog, WC);
      std::string Config = Ran[0]->Name + "/schedule" + std::to_string(S);
      for (const auto &[P, Node] : W.Events)
        if (!Ref.Reports.count(nodeStr(Prog, P, Node))) {
          add(CheckKind::Soundness, Config,
              "concrete report at " + nodeStr(Prog, P, Node) +
                  " missing from the TD reference's report sites");
          break;
        }
      if (W.ExitFactsValid)
        for (const std::string &F : W.ExitFacts)
          if (!Ref.ExitFacts.count(F)) {
            add(CheckKind::Soundness, Config,
                "concrete exit fact '" + F +
                    "' missing from the TD reference's main-exit facts");
            break;
          }
    }
  }

  std::string Domain;
};

} // namespace

OracleResult swift::difftest::runOracle(const std::string &Domain,
                                        const Program &Prog,
                                        const OracleOptions &Opts) {
  if (Domain == "typestate")
    return TypestateOracle(Prog, Opts).run();
  if (!clients::isClientDomain(Domain))
    throw std::runtime_error("unknown analysis domain '" + Domain + "'");
  return ClientOracle(Domain, Prog, Opts).run();
}

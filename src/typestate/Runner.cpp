//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "typestate/Runner.h"

#include "framework/RelationalSolver.h"
#include "framework/Tabulation.h"

using namespace swift;

namespace {

/// Collects errors and summary counts out of a finished tabulation.
/// \p HarvestPartial: governed runs harvest even on budget exhaustion —
/// tabulation only accumulates, so the partial facts are a sound subset
/// of the fixpoint's. Ungoverned runs keep the historical contract that a
/// timed-out run reports only the timeout.
TsRunResult harvest(const TsContext &Ctx,
                    TabulationSolver<TsAnalysis> &Solver, Budget &Bud,
                    bool Finished, Stats Stat, bool HarvestPartial = false) {
  const Program &Prog = Ctx.program();
  TsRunResult R;
  R.Timeout = !Finished;
  R.Seconds = Bud.seconds();
  R.Steps = Bud.steps();
  R.Stat = std::move(Stat);

  R.TdSummariesPerProc.resize(Prog.numProcs());
  // Same contract as the bottom-up runner: a timed-out run reports only
  // the timeout, never partially harvested summaries/errors/exit states.
  if (!Finished && !HarvestPartial)
    return R;
  for (ProcId P = 0; P != Prog.numProcs(); ++P)
    R.TdSummariesPerProc[P] = Solver.numTdSummaries(P);
  R.TdSummaries = Solver.totalTdSummaries();
  R.BuRelations = Solver.totalBuRelations();

  TState Error = Ctx.spec().errorState();
  Solver.forEachFact([&](ProcId P, NodeId N, const TsAbstractState &Entry,
                         const TsAbstractState &Cur) {
    (void)Entry;
    if (!Cur.isLambda() && Cur.tstate() == Error) {
      R.ErrorSites.insert(Cur.site());
      R.ErrorPoints.insert(TsError{Cur.site(), P, N});
    }
  });
  Solver.forEachObserved([&](ProcId P, NodeId N,
                             const TsAbstractState &S) {
    assert(!S.isLambda() && S.tstate() == Error);
    R.ErrorSites.insert(S.site());
    // The report point is the serving call site; the true point is inside
    // the (not re-analyzed) callee.
    R.ErrorPoints.insert(TsError{S.site(), P, N});
  });
  Solver.forEachSummary(Prog.mainProc(),
                        [&](const TsAbstractState &Entry,
                            const TsAbstractState &Exit) {
                          if (Entry.isLambda())
                            R.MainExit.insert(Exit);
                        });
  return R;
}

TsRunResult runTabulating(const TsContext &Ctx, const SwiftRunConfig &SC,
                          RunLimits Limits) {
  Budget Bud(Limits.MaxSteps, Limits.MaxSeconds);
  Stats Stat;
  TabulationSolver<TsAnalysis>::Config Cfg;
  Cfg.K = SC.K;
  Cfg.Theta = SC.Theta;
  Cfg.AsyncBu = SC.AsyncBu;
  Cfg.BuThreads = SC.Threads;
  Cfg.ObservationManifest = SC.ObservationManifest;
  TabulationSolver<TsAnalysis> Solver(Ctx, Ctx.program(), Ctx.callGraph(),
                                      Cfg, Bud, Stat);
  bool Finished = Solver.run();
  return harvest(Ctx, Solver, Bud, Finished, std::move(Stat));
}

} // namespace

TsRunResult swift::runTypestateTd(const TsContext &Ctx, RunLimits Limits) {
  SwiftRunConfig SC;
  SC.K = NoBuTrigger;
  SC.Theta = 1;
  return runTabulating(Ctx, SC, Limits);
}

TsRunResult swift::runTypestateSwift(const TsContext &Ctx, uint64_t K,
                                     uint64_t Theta, RunLimits Limits,
                                     bool AsyncBu, unsigned Threads) {
  SwiftRunConfig SC;
  SC.K = K;
  SC.Theta = Theta;
  SC.AsyncBu = AsyncBu;
  SC.Threads = Threads;
  return runTabulating(Ctx, SC, Limits);
}

TsRunResult swift::runTypestateSwift(const TsContext &Ctx,
                                     const SwiftRunConfig &Cfg,
                                     RunLimits Limits) {
  return runTabulating(Ctx, Cfg, Limits);
}

const char *swift::tsVerdictName(TsVerdict V) {
  switch (V) {
  case TsVerdict::Proved:
    return "proved";
  case TsVerdict::ErrorReported:
    return "error";
  case TsVerdict::Unresolved:
    return "unresolved";
  }
  return "?";
}

TsGovernedResult swift::runTypestateGoverned(const TsContext &Ctx,
                                             const GovernedRunOptions &Opts) {
  const Program &Prog = Ctx.program();
  ResourceGovernor Gov(Opts.Limits);
  // Publish the governor for signal handlers; cleared on every exit path
  // before Gov dies (the slot outlives the run, the governor does not).
  struct SlotGuard {
    std::atomic<ResourceGovernor *> *Slot;
    ~SlotGuard() {
      if (Slot)
        Slot->store(nullptr, std::memory_order_release);
    }
  } Guard{Opts.GovSlot};
  if (Opts.GovSlot)
    Opts.GovSlot->store(&Gov, std::memory_order_release);
  Stats Stat;
  TabulationSolver<TsAnalysis>::Config Cfg;
  Cfg.K = Opts.Config.K;
  Cfg.Theta = Opts.Config.Theta;
  Cfg.AsyncBu = Opts.Config.AsyncBu;
  Cfg.BuThreads = Opts.Config.Threads;
  Cfg.ObservationManifest = Opts.Config.ObservationManifest;
  Cfg.Gov = &Gov;
  TabulationSolver<TsAnalysis> Solver(Ctx, Prog, Ctx.callGraph(), Cfg,
                                      Gov.budget(), Stat);
  if (Opts.ResumeFrom)
    Solver.restore(*Opts.ResumeFrom);
  bool Finished = Solver.run();
  Gov.recompute(); // Final telemetry, past the poll throttle.

  TsGovernedResult G;
  G.Partial = !Finished;
  G.Peak = Gov.level();
  G.PeakMemoryBytes = Gov.peakMemoryBytes();

  // Checkpoint before harvesting: snapshot() wants the solver untouched,
  // and harvest only reads.
  if (Opts.CheckpointOut && !Finished) {
    *Opts.CheckpointOut = Solver.snapshot();
    Opts.CheckpointOut->StepsConsumed = Gov.budget().steps();
  }

  G.Run = harvest(Ctx, Solver, Gov.budget(), Finished, std::move(Stat),
                  /*HarvestPartial=*/true);

  // Per-site verdicts. Untracked sites are trivially Proved; a tracked
  // site without a reported error is Proved only when the run completed —
  // a partial run must not claim absence of errors it did not finish
  // looking for.
  G.Verdicts.assign(Prog.numSites(), TsVerdict::Proved);
  for (uint32_t S = 0; S != Prog.numSites(); ++S) {
    if (!Ctx.isTrackedSite(S))
      continue;
    if (G.Run.ErrorSites.count(S))
      G.Verdicts[S] = TsVerdict::ErrorReported;
    else if (G.Partial)
      G.Verdicts[S] = TsVerdict::Unresolved;
  }
  return G;
}

TsRunResult swift::runTypestateBu(const TsContext &Ctx, RunLimits Limits,
                                  unsigned Threads) {
  const Program &Prog = Ctx.program();
  Budget Bud(Limits.MaxSteps, Limits.MaxSeconds);
  Stats Stat;
  RelationalSolver<TsAnalysis> Solver(
      Ctx, Prog, Ctx.callGraph(), NoPruning,
      [](ProcId) -> const std::unordered_map<TsAbstractState, uint64_t> * {
        return nullptr;
      },
      Bud, Stat, DefaultMaxRelsPerPoint, /*CollectObservations=*/true,
      Threads);

  std::vector<ProcId> All = Ctx.callGraph().reachableFrom(Prog.mainProc());
  bool Finished = Solver.run(All);

  TsRunResult R;
  R.Timeout = !Finished;
  R.Seconds = Bud.seconds();
  R.Steps = Bud.steps();
  R.Stat = std::move(Stat);
  R.TdSummariesPerProc.resize(Prog.numProcs());
  // On timeout, report nothing but the timeout itself: a partially
  // populated relation count (or main-exit set) is indistinguishable from
  // a completed run's, and consumers must key off Timeout alone.
  if (!Finished)
    return R;
  R.BuRelations = Solver.totalRelations();

  // Instantiate main's summary on the initial (Lambda) state: the only
  // top-down work the bottom-up approach performs.
  const auto &Main = Solver.summary(Prog.mainProc());
  TState Error = Ctx.spec().errorState();
  if (Main.LambdaExit)
    R.MainExit.insert(TsAbstractState::lambda());
  for (const TsRelation &Rel : Main.Rels)
    if (std::optional<TsAbstractState> Out =
            Rel.apply(Ctx, TsAbstractState::lambda()))
      R.MainExit.insert(*Out);
  for (const TsAbstractState &S : R.MainExit)
    if (!S.isLambda() && S.tstate() == Error) {
      R.ErrorSites.insert(S.site());
      R.ErrorPoints.insert(
          TsError{S.site(), Prog.mainProc(), Prog.proc(Prog.mainProc()).exit()});
    }
  // Errors at internal points of any procedure, via the observation
  // manifest instantiated on the initial state.
  for (const TsRelation &Rel : Main.ObsRels)
    if (std::optional<TsAbstractState> Out =
            Rel.apply(Ctx, TsAbstractState::lambda()))
      if (!Out->isLambda() && Out->tstate() == Error) {
        R.ErrorSites.insert(Out->site());
        R.ErrorPoints.insert(TsError{Out->site(), Prog.mainProc(),
                                     Prog.proc(Prog.mainProc()).exit()});
      }
  return R;
}

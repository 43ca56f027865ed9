//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Directed tests of framework mechanics that the property tests only
/// exercise statistically: the observation manifest (errors on diverging
/// paths inside served callees), Lambda flow through never-returning
/// callees, trigger postponement, incremental triggers (summary reuse and
/// stale re-solves), budget exhaustion, and summary degradation
/// soundness.
///
//===----------------------------------------------------------------------===//

#include "framework/Tabulation.h"
#include "genprog/Fuzzer.h"
#include "lang/Lower.h"
#include "typestate/Runner.h"
#include "typestate/TsAnalysis.h"

#include <gtest/gtest.h>

using namespace swift;

namespace {

struct VariantResult {
  std::set<SiteId> Errors;
  std::set<TsAbstractState> MainExit;
  uint64_t Served = 0;
  bool Finished = true;
};

VariantResult runVariant(const TsContext &Ctx, uint64_t K, uint64_t Theta,
                         bool Manifest, uint64_t MaxSteps = UINT64_MAX) {
  Budget Bud(MaxSteps, 120.0);
  Stats Stat;
  TabulationSolver<TsAnalysis>::Config Cfg;
  Cfg.K = K;
  Cfg.Theta = Theta;
  Cfg.ObservationManifest = Manifest;
  TabulationSolver<TsAnalysis> Solver(Ctx, Ctx.program(), Ctx.callGraph(),
                                      Cfg, Bud, Stat);
  VariantResult R;
  R.Finished = Solver.run();
  R.Served = Stat.get("td.bu_served_calls");
  TState Err = Ctx.spec().errorState();
  Solver.forEachFact([&](ProcId, NodeId, const TsAbstractState &,
                         const TsAbstractState &Cur) {
    if (!Cur.isLambda() && Cur.tstate() == Err)
      R.Errors.insert(Cur.site());
  });
  Solver.forEachObserved([&](ProcId, NodeId, const TsAbstractState &S) {
    R.Errors.insert(S.site());
  });
  Solver.forEachSummary(Ctx.program().mainProc(),
                        [&](const TsAbstractState &E,
                            const TsAbstractState &X) {
                          if (E.isLambda())
                            R.MainExit.insert(X);
                        });
  return R;
}

/// A callee that errs and then diverges: the error never reaches its
/// exit relations, so only the observation manifest can report it for
/// summary-served contexts.
const char *DivergingError = R"(
  typestate File { start c; error e; c -open-> o; o -close-> c; }
  proc spin(x) { spin(x); }
  proc bad(f) {
    if (*) {
      f.close();    // protocol violation (still closed)
      spin(f);      // ... and the path never returns
    }
  }
  proc main() {
    a = new File; bad(a);
    b = new File; bad(b);
    d = new File; bad(d);
    g = new File; bad(g);
  }
)";

TEST(FrameworkTest, ObservationManifestCatchesDivergingErrors) {
  std::unique_ptr<Program> Prog = parseProgram(DivergingError);
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));

  // TD ground truth: all four sites err.
  TsRunResult Td = runTypestateTd(Ctx);
  ASSERT_EQ(Td.ErrorSites.size(), 4u);

  // SWIFT with the manifest reports exactly the same sites, and still
  // serves calls from summaries.
  VariantResult WithManifest = runVariant(Ctx, 1, 8, true);
  EXPECT_EQ(WithManifest.Errors, Td.ErrorSites);

  // The plain (paper-shaped) variant serves calls but loses the
  // diverging-path errors for the served contexts — the gap the manifest
  // closes. (If it served nothing the comparison would be vacuous.)
  VariantResult Plain = runVariant(Ctx, 1, 8, false);
  ASSERT_GT(Plain.Served, 0u);
  EXPECT_LT(Plain.Errors.size(), Td.ErrorSites.size());
  // Both agree on main's exit states regardless (Theorem 3.1 is about
  // values, not observations).
  EXPECT_EQ(Plain.MainExit, WithManifest.MainExit);
}

TEST(FrameworkTest, NeverReturningCalleeBlocksLambda) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc forever() { forever(); }
    proc main() {
      a = new File;
      forever();
      b = new File;   // unreachable in any terminating sense
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  // Nothing flows past the non-returning call: main's exit is empty.
  EXPECT_TRUE(Td.MainExit.empty());

  // The same through bottom-up summaries.
  TsRunResult Bu = runTypestateBu(Ctx);
  ASSERT_FALSE(Bu.Timeout);
  EXPECT_TRUE(Bu.MainExit.empty());
}

TEST(FrameworkTest, TriggerPostponedUntilCalleesSeen) {
  // f's callee g is only reachable through f itself; on the very first
  // flood of distinct states into f, g has not been entered yet, so the
  // first trigger attempts postpone (the paper's Section 4 scenario 1).
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc g(x) { x.open(); x.close(); }
    proc f(y) { g(y); }
    proc main() {
      a = new File; f(a);
      b = new File; f(b);
      d = new File; f(d);
      h = new File; f(h);
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Sw = runTypestateSwift(Ctx, 1, 2);
  // Eventually triggers (g gets entered during f's own top-down
  // analysis); some earlier attempts may postpone. Either way the result
  // is coincident.
  TsRunResult Td = runTypestateTd(Ctx);
  EXPECT_EQ(Sw.MainExit, Td.MainExit);
  EXPECT_GE(Sw.Stat.get("swift.bu_triggers") +
                Sw.Stat.get("swift.bu_postponed"),
            1u);
}

TEST(FrameworkTest, UpToDateCalleeSummariesAreReused) {
  // g trips first and is summarized alone. f1 and f2 trip later; their
  // frontiers {f1, g} and {f2, g} find g's summary installed and up to
  // date, so each trigger solves only its own root. Every SCC here is a
  // single non-recursive procedure: one pass to compute its summary, one
  // to confirm it. Re-solving g on every trigger would cost 2 * 5.
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc g(x) { x.open(); x.close(); }
    proc f1(y) { g(y); }
    proc f2(z) { g(z); }
    proc main() {
      a = new File; b = new File; d = new File; h = new File;
      g(a); g(b);
      f1(a); f1(b); f1(d); f1(h);
      f2(a); f2(b); f2(d); f2(h);
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  TsRunResult Sw = runTypestateSwift(Ctx, 1, 2);
  ASSERT_FALSE(Sw.Timeout);
  EXPECT_EQ(Sw.Stat.get("swift.bu_triggers"), 3u);
  EXPECT_EQ(Sw.Stat.get("swift.bu_reused_summaries"), 2u);
  EXPECT_EQ(Sw.Stat.get("swift.bu_stale_resolves"), 0u);
  EXPECT_EQ(Sw.Stat.get("bu.proc_analyses"), 2u * 3u);
  EXPECT_EQ(Sw.MainExit, Td.MainExit);
  EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites);
}

TEST(FrameworkTest, StaleCalleeSummaryIsResolved) {
  // g trips on its second entry state (a closed, then a open) and is
  // pruned on those two. g(b) then brings entry states the pruning never
  // saw, so when f trips, g's summary is stale and f's trigger re-solves
  // it along with f: four passes, on top of g's first two.
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc g(x) { x.open(); x.close(); }
    proc f(y) { g(y); }
    proc main() {
      a = new File;
      g(a);
      a.open();
      g(a);
      b = new File;
      g(b);
      f(a);
      f(b);
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  TsRunResult Sw = runTypestateSwift(Ctx, 1, 2);
  ASSERT_FALSE(Sw.Timeout);
  EXPECT_EQ(Sw.Stat.get("swift.bu_triggers"), 2u);
  EXPECT_EQ(Sw.Stat.get("swift.bu_stale_resolves"), 1u);
  EXPECT_EQ(Sw.Stat.get("swift.bu_reused_summaries"), 0u);
  EXPECT_EQ(Sw.Stat.get("bu.proc_analyses"), 2u + 4u);
  EXPECT_EQ(Sw.MainExit, Td.MainExit);
  EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites);
}

TEST(FrameworkTest, IncrementalTriggersStayCoincident) {
  // Reused and re-solved summaries mix freely across triggers; the
  // served results must still equal TD's (Theorem 3.1), synchronously
  // and asynchronously, at every theta.
  uint64_t Reused = 0, Stale = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    FuzzConfig FC;
    FC.Seed = Seed;
    FC.NumProcs = 4 + Seed % 5;
    FC.StmtsPerProc = 6 + Seed % 6;
    FC.NumVars = 3;
    std::unique_ptr<Program> Prog = generateFuzzProgram(FC);
    TsContext Ctx(*Prog, Prog->symbols().intern("File"));
    TsRunResult Td = runTypestateTd(Ctx);
    ASSERT_FALSE(Td.Timeout);
    for (uint64_t Theta : {1u, 2u, 4u})
      for (bool Async : {false, true}) {
        TsRunResult Sw =
            runTypestateSwift(Ctx, 1, Theta, RunLimits{}, Async);
        ASSERT_FALSE(Sw.Timeout);
        EXPECT_EQ(Sw.MainExit, Td.MainExit)
            << "seed " << Seed << " theta " << Theta << " async " << Async;
        EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites)
            << "seed " << Seed << " theta " << Theta << " async " << Async;
        Reused += Sw.Stat.get("swift.bu_reused_summaries");
        Stale += Sw.Stat.get("swift.bu_stale_resolves");
      }
  }
  // The sweep exercises both halves of the incremental trigger.
  EXPECT_GT(Reused, 0u);
  EXPECT_GT(Stale, 0u);
}

TEST(FrameworkTest, BudgetExhaustionIsReportedNotFatal) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc use(x) { x.open(); x.close(); }
    proc main() {
      while (*) {
        v = new File;
        use(v);
      }
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  RunLimits Tight;
  Tight.MaxSteps = 10;
  TsRunResult R = runTypestateSwift(Ctx, 2, 1, Tight);
  EXPECT_TRUE(R.Timeout);
  // Partial results are well-formed (no crash, counts consistent).
  EXPECT_LE(R.Steps, 12u);
}

/// A pathological recursive SCC whose pruned summaries would keep
/// refining: degradation must kick in, and the result must still be
/// coincident with TD.
TEST(FrameworkTest, DegradedSummariesStayCoincident) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc twist(x, y) {
      if (*) { x.open(); x.close(); }
      if (*) { twist(y, x); }
      if (*) { y.open(); y.close(); }
    }
    proc main() {
      a = new File; b = new File;
      twist(a, b);
      twist(b, a);
      d = new File; twist(d, d);
      g = new File; twist(g, a);
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  for (uint64_t Theta : {1u, 2u}) {
    TsRunResult Sw = runTypestateSwift(Ctx, 1, Theta);
    ASSERT_FALSE(Sw.Timeout);
    EXPECT_EQ(Sw.MainExit, Td.MainExit) << "theta " << Theta;
    EXPECT_EQ(Sw.ErrorSites, Td.ErrorSites) << "theta " << Theta;
  }
}

/// TD as a special case: with the trigger disabled no bottom-up work
/// happens at all.
TEST(FrameworkTest, PureTopDownNeverTriggers) {
  std::unique_ptr<Program> Prog = parseProgram(R"(
    typestate File { start c; error e; c -open-> o; o -close-> c; }
    proc use(x) { x.open(); x.close(); }
    proc main() {
      a = new File; use(a);
      b = new File; use(b);
      d = new File; use(d);
    }
  )");
  TsContext Ctx(*Prog, Prog->symbols().intern("File"));
  TsRunResult Td = runTypestateTd(Ctx);
  EXPECT_EQ(Td.Stat.get("swift.bu_triggers"), 0u);
  EXPECT_EQ(Td.Stat.get("td.bu_served_calls"), 0u);
  EXPECT_EQ(Td.BuRelations, 0u);
}

} // namespace

//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "clients/Registry.h"

#include "clients/ifds/IfdsAnalysis.h"
#include "clients/ifds/NullDerefProblem.h"
#include "clients/ifds/ReachingDefsProblem.h"
#include "clients/ifds/TaintProblem.h"
#include "clients/interval/IntervalAnalysis.h"
#include "framework/RelationalSolver.h"
#include "framework/Tabulation.h"
#include "support/Timer.h"

#include <memory>
#include <stdexcept>

using namespace swift;
using namespace swift::clients;

const std::vector<std::string> &clients::clientDomainNames() {
  static const std::vector<std::string> Names{"taint", "nullderef",
                                             "reachdefs", "interval"};
  return Names;
}

bool clients::isClientDomain(const std::string &Domain) {
  for (const std::string &N : clientDomainNames())
    if (N == Domain)
      return true;
  return false;
}

namespace {

/// Const-safe symbol lookup: scans the table instead of interning.
Symbol findSymbol(const SymbolTable &Syms, const std::string &Text) {
  for (uint32_t I = 1; I <= Syms.size(); ++I)
    if (Syms.text(Symbol(I)) == Text)
      return Symbol(I);
  return Symbol();
}

std::set<Symbol> findAll(const SymbolTable &Syms,
                         std::initializer_list<const char *> Names) {
  std::set<Symbol> Out;
  for (const char *N : Names)
    if (Symbol S = findSymbol(Syms, N); S.isValid())
      Out.insert(S);
  return Out;
}

using Site = std::pair<ProcId, NodeId>;

/// Shared tabulating path (pure TD and SWIFT): run, then normalize
/// reports (fact-embedded sites + observation manifest) and main-exit
/// facts. \p RS maps a state to its report site (nullopt for non-report
/// states); \p FS renders a non-report, non-Lambda state.
template <typename AN, typename ReportSiteFn, typename FactStrFn>
DomainRunResult runTabulatingT(const typename AN::Context &Ctx, uint64_t K,
                               uint64_t Theta, unsigned Threads,
                               RunLimits Limits, ReportSiteFn RS,
                               FactStrFn FS) {
  const Program &Prog = Ctx.program();
  Budget Bud(Limits.MaxSteps, Limits.MaxSeconds);
  Stats Stat;
  typename TabulationSolver<AN>::Config Cfg;
  Cfg.K = K;
  Cfg.Theta = Theta;
  Cfg.BuThreads = Threads;
  TabulationSolver<AN> Solver(Ctx, Prog, Ctx.callGraph(), Cfg, Bud, Stat);
  bool Finished = Solver.run();

  DomainRunResult R;
  R.Timeout = !Finished;
  R.Seconds = Bud.seconds();
  R.Steps = Bud.steps();
  R.Stat = std::move(Stat);
  R.TdSummaries = Solver.totalTdSummaries();
  R.BuRelations = Solver.totalBuRelations();

  const NodeId ExitN = Prog.proc(Prog.mainProc()).exit();
  Solver.forEachFact([&](ProcId P, NodeId N, const typename AN::State &E,
                         const typename AN::State &Cur) {
    (void)E;
    if (std::optional<Site> S = RS(Cur)) {
      R.Reports.insert(*S);
      return;
    }
    if (P == Prog.mainProc() && N == ExitN && !AN::isLambda(Cur))
      R.ExitFacts.insert(FS(Cur));
  });
  Solver.forEachObserved(
      [&](ProcId P, NodeId N, const typename AN::State &S) {
        (void)P;
        (void)N;
        if (std::optional<Site> Where = RS(S))
          R.Reports.insert(*Where);
      });
  return R;
}

/// Pure bottom-up path: unpruned summaries for everything reachable from
/// main, then instantiate main's summary on Lambda.
template <typename AN, typename ReportSiteFn, typename FactStrFn>
DomainRunResult runBuT(const typename AN::Context &Ctx, unsigned Threads,
                       RunLimits Limits, ReportSiteFn RS,
                       FactStrFn FS) {
  const Program &Prog = Ctx.program();
  Budget Bud(Limits.MaxSteps, Limits.MaxSeconds);
  Stats Stat;
  RelationalSolver<AN> Solver(
      Ctx, Prog, Ctx.callGraph(), NoPruning,
      [](ProcId) -> const std::unordered_map<typename AN::State,
                                             uint64_t> * {
        return nullptr;
      },
      Bud, Stat, DefaultMaxRelsPerPoint, /*CollectObservations=*/true,
      Threads);

  std::vector<ProcId> All = Ctx.callGraph().reachableFrom(Prog.mainProc());
  bool Finished = Solver.run(All);

  DomainRunResult R;
  R.Timeout = !Finished;
  R.Seconds = Bud.seconds();
  R.Steps = Bud.steps();
  R.Stat = std::move(Stat);
  R.BuRelations = Solver.totalRelations();
  if (!Finished)
    return R;

  const auto &Main = Solver.summary(Prog.mainProc());
  for (const typename AN::Rel &Rel : Main.Rels)
    if (std::optional<typename AN::State> Out =
            AN::applyRel(Ctx, Rel, AN::lambda())) {
      if (std::optional<Site> S = RS(*Out))
        R.Reports.insert(*S);
      else if (!AN::isLambda(*Out))
        R.ExitFacts.insert(FS(*Out));
    }
  // Observation relations reach *internal* points, so only their
  // observable outputs count (as reports), never as exit facts.
  for (const typename AN::Rel &Rel : Main.ObsRels)
    if (std::optional<typename AN::State> Out =
            AN::applyRel(Ctx, Rel, AN::lambda()))
      if (std::optional<Site> S = RS(*Out))
        R.Reports.insert(*S);
  return R;
}

template <typename AN, typename ReportSiteFn, typename FactStrFn>
DomainRunResult runModeT(const typename AN::Context &Ctx, DomainMode Mode,
                         uint64_t K, uint64_t Theta, unsigned Threads,
                         RunLimits Limits, ReportSiteFn RS,
                         FactStrFn FS) {
  switch (Mode) {
  case DomainMode::Td:
    return runTabulatingT<AN>(Ctx, NoBuTrigger, 1, Threads, Limits, RS,
                              FS);
  case DomainMode::Swift:
    return runTabulatingT<AN>(Ctx, K, Theta, Threads, Limits, RS, FS);
  case DomainMode::Bu:
    return runBuT<AN>(Ctx, Threads, Limits, RS, FS);
  }
  return {};
}

std::unique_ptr<ifds::IfdsProblem> makeProblem(const std::string &Domain,
                                               const Program &Prog) {
  if (Domain == "taint")
    return std::make_unique<ifds::TaintProblem>(
        Prog, taintSourceClasses(Prog), taintSinkMethods(Prog));
  if (Domain == "nullderef")
    return std::make_unique<ifds::NullDerefProblem>(Prog);
  if (Domain == "reachdefs")
    return std::make_unique<ifds::ReachingDefsProblem>(Prog);
  return nullptr;
}

} // namespace

std::set<Symbol> clients::taintSourceClasses(const Program &Prog) {
  return findAll(Prog.symbols(), {"File", "Source"});
}

std::set<Symbol> clients::taintSinkMethods(const Program &Prog) {
  return findAll(Prog.symbols(), {"open", "sink"});
}

DomainRunResult clients::runClientDomain(const std::string &Domain,
                                         const Program &Prog,
                                         DomainMode Mode, uint64_t K,
                                         uint64_t Theta, unsigned Threads,
                                         RunLimits Limits) {
  if (Domain == "interval") {
    interval::IvContext Ctx(Prog);
    auto RS = [](const interval::IvFact &F) -> std::optional<Site> {
      if (F.K == interval::IvFact::Kind::Under)
        return Site{F.P, F.N};
      return std::nullopt;
    };
    auto FS = [&Prog](const interval::IvFact &F) { return F.str(Prog); };
    return runModeT<interval::IvAnalysis>(Ctx, Mode, K, Theta, Threads,
                                          Limits, RS, FS);
  }

  std::unique_ptr<ifds::IfdsProblem> Pb = makeProblem(Domain, Prog);
  if (!Pb)
    throw std::runtime_error("unknown analysis domain '" + Domain + "'");
  ifds::IfdsContext Ctx(Prog, *Pb);
  auto RS = [&Pb](const ifds::IfdsFact &F) -> std::optional<Site> {
    ProcId P;
    NodeId N;
    if (Pb->reportSite(F.Id, P, N))
      return Site{P, N};
    return std::nullopt;
  };
  auto FS = [&Pb](const ifds::IfdsFact &F) { return Pb->factText(F.Id); };
  return runModeT<ifds::IfdsAnalysis>(Ctx, Mode, K, Theta, Threads, Limits,
                                      RS, FS);
}

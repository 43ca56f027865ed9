//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark binary. One invocation runs one workload in
/// one process with one solver thread:
///
///   ts-table2       typestate TD and SWIFT (k=5, theta=2) on the Table 2
///                   configs toba-s .. kawa-c
///   clients-hybrid  taint / nullderef / reachdefs / interval in TD, SWIFT
///                   (k=5, theta=4) and BU on kawa-c, avrora, rhino-a,
///                   sablecc-j
///   serve-edits     one closed-loop editor client against in-process
///                   ServeEngines (no store, no journal)
///
/// Every layer is timed from outside, around calls to its public entry
/// points; the solver counters come from the results those calls return.
/// The seed fixes the order of the operations. Setup is repeated before
/// the first round and at the start of every round; rounds of the
/// workload's operations repeat until the run ends nearest --seconds (at
/// least three rounds). Times are per-operation
/// medians over rounds; every analysis output is checked (Theorem 3.1
/// coincidence, client-mode coincidence, incremental-vs-fresh serve
/// verdicts) and every solver counter must repeat exactly across rounds.
///
/// With --trace 1 the benchmark records spans (name, label, start, end,
/// parent) in its own memory, alternating traced and untraced rounds, and
/// derives the per-layer metrics from them; the program's own
/// TraceRecorder stays off. The last stdout line is one JSON object that
/// perfbench/run.py turns into the benchmark result.
///
//===----------------------------------------------------------------------===//

#include "clients/Registry.h"
#include "genprog/Generator.h"
#include "genprog/Workloads.h"
#include "ir/Dumper.h"
#include "serve/EditGen.h"
#include "serve/Engine.h"
#include "support/Rng.h"
#include "typestate/Relation.h"
#include "typestate/Runner.h"
#include "typestate/Transfer.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace swift;

namespace {

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Span dump path (trace runs only).
  /// Self-test hook: corrupts one output so the named check must fire
  /// (ts-coincidence, clients-coincidence, serve-final, determinism).
  std::string Inject;
  bool Quick = false; ///< Self-test size: one small program, two rounds.
};

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  if (!*S || *S == '-')
    return false;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--quick") {
      A.Quick = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      if (!parseU64(V, A.Seed))
        return false;
    } else if (Flag == "--seconds") {
      if (!parseU64(V, N) || N == 0)
        return false;
      A.Seconds = double(N);
    } else if (Flag == "--trace") {
      if (!parseU64(V, N) || N > 1)
        return false;
      A.Trace = N == 1;
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else if (Flag == "--inject") {
      A.Inject = V;
    } else {
      return false;
    }
  }
  return A.Workload == "ts-table2" || A.Workload == "clients-hybrid" ||
         A.Workload == "serve-edits";
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

struct Span {
  std::string Name;  ///< The public call (or grouping) it wraps.
  std::string Label; ///< Which operation: "antlr/td", "kawa-c/taint/bu"...
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1;

  double seconds() const { return double(EndNs - StartNs) * 1e-9; }
};

/// Span recorder kept in the benchmark's own memory; begin/end are no-ops while
/// off. All spans of one run share RunId.
class Tracer {
public:
  bool On = false;
  uint64_t RunId = 0;

  int begin(const std::string &Name, const std::string &Label,
            uint64_t StartNs) {
    if (!On)
      return -1;
    Spans.push_back({Name, Label, StartNs, 0,
                     Stack.empty() ? -1 : Stack.back()});
    Stack.push_back(int(Spans.size()) - 1);
    return Stack.back();
  }

  void end(int Id, uint64_t EndNs) {
    if (Id < 0)
      return;
    Spans[Id].EndNs = EndNs;
    Stack.pop_back();
  }

  /// Median duration per label of the spans named \p Name, summed over
  /// labels: each label is one operation and occurs once per traced round
  /// (or setup repetition).
  double medianSum(const std::string &Name) const;

  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

Tracer TheTracer;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile of \p V (0 < P <= 100).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(P / 100.0 * double(V.size()) + 0.999999);
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double Tracer::medianSum(const std::string &Name) const {
  std::map<std::string, std::vector<double>> ByLabel;
  for (const Span &S : Spans)
    if (S.Name == Name)
      ByLabel[S.Label].push_back(S.seconds());
  double Sum = 0;
  for (auto &[Label, Durations] : ByLabel)
    Sum += median(Durations);
  return Sum;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream OS(Path);
  OS << "{\"run_id\": " << RunId << ", \"spans\": [";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"id\": " << I << ", \"name\": \""
       << jsonEscape(S.Name) << "\", \"label\": \"" << jsonEscape(S.Label)
       << "\", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
       << ", \"parent\": " << S.Parent << "}";
  }
  OS << "\n]}\n";
  return bool(OS);
}

/// Runs \p Fn under a span named \p Name (when tracing) and returns its
/// wall time in seconds; span and return value share the same clock reads.
template <class F>
double timed(const std::string &Name, const std::string &Label, F &&Fn) {
  uint64_t Start = nowNs();
  int Id = TheTracer.begin(Name, Label, Start);
  Fn();
  uint64_t End = nowNs();
  TheTracer.end(Id, End);
  return double(End - Start) * 1e-9;
}

/// A grouping span (a round, a setup repetition, an edit) that is closed
/// by its destructor.
class Scope {
public:
  Scope(const std::string &Name, const std::string &Label)
      : Id(TheTracer.begin(Name, Label, nowNs())) {}
  ~Scope() { TheTracer.end(Id, nowNs()); }

private:
  int Id;
};

//===----------------------------------------------------------------------===//
// Result accumulation
//===----------------------------------------------------------------------===//

/// The deterministic solver counters the benchmark reads from
/// TsRunResult::Stat / DomainRunResult::Stat.
const std::vector<std::string> &counterNames() {
  static const std::vector<std::string> Names = {
      "td.path_edges",       "td.summaries",        "budget.td_steps",
      "budget.sync_bu_steps", "bu.steps",           "bu.node_visits",
      "bu.scc_iterations",   "bu.pruned_relations", "bu.rel_cap_hits",
      "swift.bu_triggers",   "td.bu_served_calls",  "td.bu_fallback_calls"};
  return Names;
}

std::map<std::string, uint64_t> countersOf(const Stats &S) {
  std::map<std::string, uint64_t> Out;
  for (const std::string &N : counterNames())
    Out[N] = S.get(N);
  return Out;
}

struct Metric {
  double Value = 0;
  std::string Unit;
};

class Bench {
public:
  explicit Bench(Args A) : A(std::move(A)) {}

  Args A;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::map<std::string, Metric> Metrics;
  /// Count-valued metrics: must repeat exactly for a seed.
  std::map<std::string, uint64_t> Counts;
  /// Budget steps per "<config>/<mode>" (baseline cross-check).
  std::map<std::string, uint64_t> Steps;
  unsigned Rounds = 0;

  /// Counts one attempted operation.
  void attempt() { ++Attempted; }

  /// Marks the current operation failed (once per operation).
  void fail(const std::string &Msg) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(Msg);
    std::fprintf(stderr, "FAIL: %s\n", Msg.c_str());
  }

  void set(const std::string &Name, double V, const char *Unit) {
    Metrics[Name] = {V, Unit};
  }

  /// Records one operation's time; traced and untraced rounds are kept
  /// apart so trace overhead is measurable.
  void sample(const std::string &Op, double Seconds, bool Traced) {
    // Hand freed memory back after every operation so each one starts
    // from the same heap state whatever ran before it.
    malloc_trim(0);
    (Traced ? TracedOps : PlainOps)[Op].push_back(Seconds);
  }

  /// Sum over operations of each operation's median time, for the
  /// untraced (end-to-end) or traced rounds.
  double medianSum(bool Traced,
                   const std::function<bool(const std::string &)> &Keep =
                       nullptr) const {
    double Sum = 0;
    for (auto &[Op, V] : Traced ? TracedOps : PlainOps)
      if (!Keep || Keep(Op))
        Sum += median(V);
    return Sum;
  }

  /// Every sample of every operation (traced or untraced rounds).
  std::vector<double> allSamples(bool Traced) const {
    std::vector<double> Out;
    for (auto &[Op, V] : Traced ? TracedOps : PlainOps)
      Out.insert(Out.end(), V.begin(), V.end());
    return Out;
  }

  /// Round-loop control: at least three rounds, so that a median over
  /// rounds can reject one slow round, then as long as one more round (of
  /// the mean length so far) ends nearer to --seconds than stopping now.
  /// Self-test runs stop after two (one traced, one untraced).
  bool moreRounds(uint64_t MeasureStartNs) const {
    if (Rounds < 2)
      return true;
    if (A.Quick)
      return false;
    if (Rounds < 3)
      return true;
    double Elapsed = double(nowNs() - MeasureStartNs) * 1e-9;
    return Elapsed + 0.5 * Elapsed / Rounds < A.Seconds && Rounds < 64;
  }

  /// Is round \p R traced? Even rounds are, under --trace 1.
  bool tracedRound(unsigned R) const { return A.Trace && R % 2 == 0; }

  /// Compares \p Got with the first round's counters of operation \p Op
  /// (recording them on first sight); a difference fails the operation.
  bool checkDeterminism(const std::string &Op,
                        std::map<std::string, uint64_t> Got) {
    if (A.Inject == "determinism" && Rounds == 1 && !Injected) {
      Injected = true;
      Got.begin()->second += 1;
    }
    auto [It, Fresh] = FirstCounts.try_emplace(Op, Got);
    if (Fresh || It->second == Got)
      return true;
    for (auto &[Name, V] : Got)
      if (It->second[Name] != V) {
        fail(Op + ": counter " + Name + " is " + std::to_string(V) +
             " in round " + std::to_string(Rounds) + " but " +
             std::to_string(It->second[Name]) + " in the first round");
        break;
      }
    return false;
  }

  /// Adds an operation's first-round counters into the workload totals.
  void addCounts(const std::map<std::string, uint64_t> &C) {
    for (auto &[Name, V] : C)
      Counts[Name] += V;
  }

private:
  std::map<std::string, std::vector<double>> PlainOps, TracedOps;
  std::map<std::string, std::map<std::string, uint64_t>> FirstCounts;
  bool Injected = false;
};

/// Set-up runs at least MinSetupReps times and until MinSetupSeconds have
/// passed before the first round, then once per round and until
/// RoundSetupSeconds have passed, so that a cheap set-up still gets a
/// stable median.
constexpr unsigned MinSetupReps = 5;
constexpr unsigned MaxSetupReps = 1000;
constexpr double MinSetupSeconds = 0.2;
constexpr double RoundSetupSeconds = 0.2;

RunLimits runLimits() {
  RunLimits L;
  L.MaxSeconds = 15;
  L.MaxSteps = 200'000'000;
  return L;
}

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? double(Num) / double(Den) : 0.0;
}

/// Per-layer metrics every workload reports; a layer the workload does
/// not exercise reads 0.
void setCounterMetrics(Bench &B) {
  auto Count = [&B](const std::string &N) -> uint64_t {
    auto It = B.Counts.find(N);
    return It == B.Counts.end() ? 0 : It->second;
  };
  for (const std::string &N : counterNames())
    B.set(N, double(Count(N)), "count");
  uint64_t Served = Count("td.bu_served_calls");
  B.set("swift.summary_hit_ratio",
        ratio(Served, Served + Count("td.bu_fallback_calls")), "ratio");
}

//===----------------------------------------------------------------------===//
// Typestate domain operations and governed runs (traced runs only)
//===----------------------------------------------------------------------===//

/// Mean time per call of trans / rtrans / rcomp / wp over every
/// typestate-call command of the workload's programs.
struct DomainOpTimer {
  double Ns[4] = {0, 0, 0, 0};
  uint64_t Calls[4] = {0, 0, 0, 0};
  volatile size_t Sink = 0;

  void addProgram(const TsContext &Ctx, const std::string &Label) {
    const Program &Prog = Ctx.program();
    SiteId Tracked = 0;
    while (Tracked + 1 < Prog.numSites() && !Ctx.isTrackedSite(Tracked))
      ++Tracked;
    struct Cmd {
      ProcId P;
      const Command *C;
      std::vector<TsRelation> Prims;
    };
    std::vector<Cmd> Cmds;
    for (ProcId P = 0; P != Prog.numProcs(); ++P)
      for (const CfgNode &N : Prog.proc(P).nodes())
        if (N.Cmd.Kind == CmdKind::TsCall)
          Cmds.push_back({P, &N.Cmd, tsPrimRels(Ctx, P, N.Cmd)});
    if (Cmds.empty())
      return;
    TsRelation Identity = TsRelation::makeIdentity(Ctx.spec().numStates());
    TState Init = Ctx.spec().initState();

    // One pass over the commands per operation; passes repeat until the
    // operation has run for MinNs so short programs still time stably.
    const uint64_t MinNs = 20'000'000;
    auto Run = [&](int Op, const char *Name, auto &&Pass) {
      uint64_t Start = nowNs(), Spent = 0;
      int Id = TheTracer.begin(Name, Label, Start);
      do {
        Calls[Op] += Pass();
        Spent = nowNs() - Start;
      } while (Spent < MinNs);
      TheTracer.end(Id, Start + Spent);
      Ns[Op] += double(Spent);
    };
    Run(0, "tsTransfer", [&] {
      uint64_t N = 0;
      for (const Cmd &C : Cmds) {
        AccessPath Recv(C.C->Src);
        // The B1-B4 cases: receiver must-alias, must-not, and unknown.
        TsAbstractState In[3] = {
            TsAbstractState(Tracked, Init, ApSet({Recv}), ApSet()),
            TsAbstractState(Tracked, Init, ApSet(), ApSet({Recv})),
            TsAbstractState(Tracked, Init, ApSet(), ApSet())};
        for (const TsAbstractState &S : In)
          Sink = Sink + tsTransfer(Ctx, C.P, *C.C, S).size();
        N += 3;
      }
      return N;
    });
    Run(1, "tsRtrans", [&] {
      uint64_t N = 0;
      for (const Cmd &C : Cmds) {
        Sink = Sink + tsRtrans(Ctx, C.P, *C.C, Identity).size();
        ++N;
        for (const TsRelation &R : C.Prims) {
          Sink = Sink + tsRtrans(Ctx, C.P, *C.C, R).size();
          ++N;
        }
      }
      return N;
    });
    Run(2, "tsRcomp", [&] {
      uint64_t N = 0;
      for (const Cmd &C : Cmds)
        for (const TsRelation &R1 : C.Prims)
          for (const TsRelation &R2 : C.Prims) {
            Sink = Sink + tsRcomp(Ctx, R1, R2).has_value();
            ++N;
          }
      return N;
    });
    Run(3, "tsWpPred", [&] {
      uint64_t N = 0;
      for (const Cmd &C : Cmds)
        for (const TsRelation &R1 : C.Prims)
          for (const TsRelation &R2 : C.Prims) {
            Sink = Sink + tsWpPred(R1, R2.phi()).has_value();
            ++N;
          }
      return N;
    });
  }

  void report(Bench &B) const {
    const char *Names[4] = {"typestate.trans_ns", "typestate.rtrans_ns",
                            "typestate.rcomp_ns", "typestate.wp_ns"};
    for (int I = 0; I != 4; ++I)
      B.set(Names[I], Calls[I] ? Ns[I] / double(Calls[I]) : 0.0, "ns");
  }
};

/// A governed SWIFT run per program: its peak memory estimate goes next
/// to the process's RSS, and its (complete) result must match TD's.
struct GovernProbe {
  uint64_t PeakBytes = 0;

  void addProgram(Bench &B, const TsContext &Ctx, const std::string &Label,
                  const std::set<SiteId> &TdErrorSites) {
    GovernedRunOptions Opts;
    Opts.Config.K = 5;
    Opts.Config.Theta = 2;
    RunLimits L = runLimits();
    Opts.Limits.MaxSteps = L.MaxSteps;
    Opts.Limits.MaxSeconds = L.MaxSeconds;
    TsGovernedResult G;
    B.attempt();
    timed("runTypestateGoverned", Label,
          [&] { G = runTypestateGoverned(Ctx, Opts); });
    if (G.Partial || G.Run.Timeout)
      B.fail(Label + ": governed SWIFT run exhausted its budget");
    else if (G.Run.ErrorSites != TdErrorSites)
      B.fail(Label + ": governed SWIFT error sites differ from TD");
    PeakBytes = std::max(PeakBytes, G.PeakMemoryBytes);
  }

  void report(Bench &B) const {
    double EstMiB = double(PeakBytes) / (1024.0 * 1024.0);
    B.set("govern.mem_est_mib", EstMiB, "MiB");
    B.set("govern.est_over_rss", EstMiB / peakRssMiB(), "ratio");
  }
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// The canonical configs of \p Names (their own GenConfig::Seed): the
/// programs BENCH_baseline.json and the perf gate run.
std::vector<std::pair<std::string, GenConfig>>
configs(const std::vector<std::string> &Names) {
  std::vector<std::pair<std::string, GenConfig>> Out;
  for (const std::string &N : Names)
    Out.emplace_back(N, findWorkload(N)->Config);
  return Out;
}

/// The random source of the current round's operation order, seeded by
/// (benchmark seed, round): the seed fixes the order of every round.
Rng roundRng(const Bench &B) { return Rng(B.A.Seed * 1000003 + B.Rounds); }

/// 0 .. N-1 in an order drawn from \p R.
std::vector<size_t> shuffled(size_t N, Rng &R) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

/// Times set-up: each repetition builds the inputs from scratch with
/// \p Make, the previous ones freed first. It runs MinSetupReps times (and
/// until MinSetupSeconds) before the first round, then again at the start
/// of every round, so that the median, reported as setup_s, covers the
/// whole run as the operation medians do.
template <class T> class RepeatedSetup {
public:
  explicit RepeatedSetup(std::function<T()> Make) : Make(std::move(Make)) {}

  void repeat(T &Inputs, unsigned MinReps, double MinSeconds) {
    double Total = 0;
    for (unsigned R = 0;
         R < MinReps || (Total < MinSeconds && R < MaxSetupReps); ++R) {
      Inputs = T();
      Times.push_back(timed("setup.rep", std::to_string(Times.size()),
                            [&] { Inputs = Make(); }));
      Total += Times.back();
    }
  }

  void report(Bench &B) const { B.set("setup_s", median(Times), "s"); }

private:
  std::function<T()> Make;
  std::vector<double> Times;
};

/// Operation-label filter: labels ending in \p Suffix ("/td", "/bu"...).
std::function<bool(const std::string &)> endsWith(std::string Suffix) {
  return [Suffix](const std::string &Op) {
    return Op.size() >= Suffix.size() &&
           Op.compare(Op.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
  };
}

/// Splits SWIFT wall time into its synchronous BU part (the solver's
/// swift.bu_time_us) and the rest, the TD self time; per-round totals,
/// medians over traced rounds.
struct SwiftSplit {
  double Bu = 0, Self = 0;
  std::vector<double> BuSecs, SelfSecs;

  void add(double WallSeconds, const Stats &S) {
    double BuSec = double(S.get("swift.bu_time_us")) * 1e-6;
    Bu += BuSec;
    Self += WallSeconds - BuSec;
  }

  void endRound(bool Traced) {
    if (Traced) {
      BuSecs.push_back(Bu);
      SelfSecs.push_back(Self);
    }
    Bu = Self = 0;
  }

  void report(Bench &B) const {
    B.set("bu.sync_s", median(BuSecs), "s");
    B.set("td.self_s", median(SelfSecs), "s");
  }
};

struct TsInput {
  std::string Name;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<TsContext> Ctx;
};

/// Theorem 3.1 coincidence of SWIFT with TD, as the differential oracle
/// checks it: equal error sites and main-exit states, and every SWIFT
/// error point is a TD one unless SWIFT moved it to the call site a
/// summary served. Returns a mismatch description or "".
std::string tsMismatch(const Program &Prog, const TsRunResult &Td,
                       const TsRunResult &Sw) {
  if (Td.ErrorSites != Sw.ErrorSites)
    return "error sites";
  if (Td.MainExit != Sw.MainExit)
    return "main-exit states";
  for (const TsError &E : Sw.ErrorPoints)
    if (!Td.ErrorPoints.count(E) &&
        Prog.proc(E.Proc).node(E.Node).Cmd.Kind != CmdKind::Call)
      return "error points";
  return "";
}

bool sameTsResult(const TsRunResult &A, const TsRunResult &B) {
  return A.ErrorSites == B.ErrorSites && A.ErrorPoints == B.ErrorPoints &&
         A.MainExit == B.MainExit;
}

void runTsTable2(Bench &B) {
  std::vector<std::string> Names = {"toba-s", "javasrc-p", "hedc",
                                    "antlr",  "luindex",   "lusearch",
                                    "kawa-c"};
  if (B.A.Quick)
    Names = {"toba-s"};
  auto Cfgs = configs(Names);
  RepeatedSetup<std::vector<TsInput>> Setup([&] {
    std::vector<TsInput> In;
    for (auto &[Name, Cfg] : Cfgs) {
      TsInput I;
      I.Name = Name;
      timed("generateWorkload", Name,
            [&] { I.Prog = generateWorkload(Cfg); });
      timed("TsContext", Name, [&] {
        I.Ctx = std::make_unique<TsContext>(
            *I.Prog, I.Prog->symbols().intern("File"));
      });
      In.push_back(std::move(I));
    }
    return In;
  });
  std::vector<TsInput> Inputs;
  Setup.repeat(Inputs, MinSetupReps, MinSetupSeconds);

  RunLimits L = runLimits();
  SwiftRunConfig SwCfg; // k = 5, theta = 2, sync BU, one thread.
  SwCfg.K = 5;
  SwCfg.Theta = 2;
  std::map<std::string, std::pair<TsRunResult, TsRunResult>> First;
  SwiftSplit Split;
  uint64_t MeasureStart = nowNs();
  for (; B.moreRounds(MeasureStart); ++B.Rounds) {
    bool Traced = B.tracedRound(B.Rounds);
    TheTracer.On = Traced;
    Scope RoundSpan("round", std::to_string(B.Rounds));
    Setup.repeat(Inputs, 1, RoundSetupSeconds);
    // Programs in seeded order, each one's TD and SWIFT solve back to
    // back (in seeded order too), checked and released before the next
    // program, so that no results stay resident across solves.
    Rng Order = roundRng(B);
    for (size_t I : shuffled(Inputs.size(), Order)) {
      TsInput &In = Inputs[I];
      TsRunResult Res[2]; // TD, SWIFT.
      for (size_t Mode : shuffled(2, Order)) {
        bool IsSwift = Mode == 1;
        std::string Name = In.Name + (IsSwift ? "/swift" : "/td");
        B.attempt();
        double T = timed(IsSwift ? "runTypestateSwift" : "runTypestateTd",
                         Name, [&] {
                           Res[Mode] =
                               IsSwift ? runTypestateSwift(*In.Ctx, SwCfg, L)
                                       : runTypestateTd(*In.Ctx, L);
                         });
        B.sample(Name, T, Traced);
        if (IsSwift)
          Split.add(T, Res[Mode].Stat);
      }
      TsRunResult &Td = Res[0], &Sw = Res[1];
      if (Td.Timeout || Sw.Timeout) {
        B.fail(In.Name + ": " + (Td.Timeout ? "td" : "swift") +
               " exceeded the 15 s / 200M-step budget");
        continue;
      }
      if (B.A.Inject == "ts-coincidence" && B.Rounds == 0)
        Sw.ErrorSites.insert(~SiteId(0));
      std::string Diff = tsMismatch(*In.Prog, Td, Sw);
      if (!Diff.empty()) {
        B.fail(In.Name + ": SWIFT and TD " + Diff + " differ");
        continue;
      }
      auto TdC = countersOf(Td.Stat), SwC = countersOf(Sw.Stat);
      // The first complete round records totals and reference outputs;
      // later rounds must reproduce them.
      auto [Ref, Fresh] =
          First.try_emplace(In.Name, std::move(Td), std::move(Sw));
      if (Fresh) {
        B.addCounts(TdC);
        B.addCounts(SwC);
        // SWIFT and TD steps as BENCH_baseline.json counts them.
        B.Steps[In.Name + "/td"] =
            TdC["budget.td_steps"] + TdC["budget.sync_bu_steps"];
        B.Steps[In.Name + "/swift"] =
            SwC["budget.td_steps"] + SwC["budget.sync_bu_steps"];
      } else if (!sameTsResult(Ref->second.first, Td) ||
                 !sameTsResult(Ref->second.second, Sw)) {
        B.fail(In.Name + ": results changed between rounds");
        continue;
      }
      if (B.checkDeterminism(In.Name + "/td", TdC))
        B.checkDeterminism(In.Name + "/swift", SwC);
    }
    Split.endRound(Traced);
  }
  TheTracer.On = B.A.Trace;
  Setup.report(B);

  B.set("verdict_s", B.medianSum(false), "s");
  if (!B.A.Trace)
    return;
  B.set("mode.td_s", B.medianSum(true, endsWith("/td")), "s");
  B.set("mode.swift_s", B.medianSum(true, endsWith("/swift")), "s");
  Split.report(B);
  B.set("genprog.generate_s", TheTracer.medianSum("generateWorkload"), "s");
  B.set("alias.context_s", TheTracer.medianSum("TsContext"), "s");

  DomainOpTimer Ops;
  GovernProbe Gov;
  for (TsInput &In : Inputs) {
    Ops.addProgram(*In.Ctx, In.Name);
    Gov.addProgram(B, *In.Ctx, In.Name, First[In.Name].first.ErrorSites);
  }
  Ops.report(B);
  Gov.report(B);
}

struct ClientInput {
  std::string Name;
  std::unique_ptr<Program> Prog;
};

/// Client-mode coincidence: a mismatch description or "".
std::string clientMismatch(const clients::DomainRunResult &Ref,
                           const clients::DomainRunResult &R) {
  if (Ref.Reports != R.Reports)
    return "reports";
  if (Ref.ExitFacts != R.ExitFacts)
    return "exit facts";
  return "";
}

void runClientsHybrid(Bench &B) {
  using namespace swift::clients;
  std::vector<std::string> Names = {"kawa-c", "avrora", "rhino-a",
                                    "sablecc-j"};
  if (B.A.Quick)
    Names = {"toba-s"};
  auto Cfgs = configs(Names);
  RepeatedSetup<std::vector<ClientInput>> Setup([&] {
    std::vector<ClientInput> In;
    for (auto &[Name, Cfg] : Cfgs) {
      ClientInput I{Name, nullptr};
      timed("generateWorkload", Name,
            [&] { I.Prog = generateWorkload(Cfg); });
      In.push_back(std::move(I));
    }
    return In;
  });
  std::vector<ClientInput> Inputs;
  Setup.repeat(Inputs, MinSetupReps, MinSetupSeconds);

  DomainRunLimits L;
  L.MaxSeconds = runLimits().MaxSeconds;
  L.MaxSteps = runLimits().MaxSteps;
  const std::pair<DomainMode, const char *> Modes[] = {
      {DomainMode::Td, "td"}, {DomainMode::Swift, "swift"},
      {DomainMode::Bu, "bu"}};
  std::map<std::string, DomainRunResult> First; // By "<prog>/<domain>".
  std::map<std::string, std::pair<uint64_t, uint64_t>> Lookups; // Per domain.
  SwiftSplit Split;
  uint64_t MeasureStart = nowNs();
  for (; B.moreRounds(MeasureStart); ++B.Rounds) {
    bool Traced = B.tracedRound(B.Rounds);
    TheTracer.On = Traced;
    Scope RoundSpan("round", std::to_string(B.Rounds));
    Setup.repeat(Inputs, 1, RoundSetupSeconds);
    // (program, domain) units in seeded order, each unit's three modes
    // back to back (in seeded order too) and checked before the next unit.
    const std::vector<std::string> &Domains = clientDomainNames();
    Rng Order = roundRng(B);
    for (size_t Unit : shuffled(Inputs.size() * Domains.size(), Order)) {
      const ClientInput &In = Inputs[Unit / Domains.size()];
      const std::string &Domain = Domains[Unit % Domains.size()];
      std::string Key = In.Name + "/" + Domain;
      auto OpName = [&](size_t M) { return Key + "/" + Modes[M].second; };
      DomainRunResult Res[3];
      for (size_t M : shuffled(3, Order)) {
        B.attempt();
        double T = timed("runClientDomain", OpName(M), [&] {
          Res[M] = runClientDomain(Domain, *In.Prog, Modes[M].first, 5, 4,
                                   /*Threads=*/1, L);
        });
        B.sample(OpName(M), T, Traced);
        if (Modes[M].first == DomainMode::Swift)
          Split.add(T, Res[M].Stat);
      }
      bool Bad = false;
      for (size_t M = 0; M != 3; ++M)
        if (Res[M].Timeout) {
          B.fail(OpName(M) + " exceeded the 15 s / 200M-step budget");
          Bad = true;
        }
      if (Bad)
        continue;
      if (B.A.Inject == "clients-coincidence" && B.Rounds == 0)
        Res[2].ExitFacts.insert("injected-fact");
      for (size_t M = 1; M != 3; ++M) {
        std::string Diff = clientMismatch(Res[0], Res[M]);
        if (!Diff.empty()) {
          B.fail(Key + ": " + Modes[M].second + " and td " + Diff +
                 " differ");
          Bad = true;
        }
      }
      if (Bad)
        continue;
      auto [Ref, Fresh] = First.try_emplace(Key, Res[0]);
      if (Fresh) {
        for (size_t M = 0; M != 3; ++M) {
          B.addCounts(countersOf(Res[M].Stat));
          B.Steps[OpName(M)] = Res[M].Steps;
        }
        auto &[Served, Fallback] = Lookups[Domain];
        Served += Res[1].Stat.get("td.bu_served_calls");
        Fallback += Res[1].Stat.get("td.bu_fallback_calls");
      } else if (!clientMismatch(Ref->second, Res[0]).empty()) {
        B.fail(Key + ": results changed between rounds");
        continue;
      }
      for (size_t M = 0; M != 3; ++M)
        if (!B.checkDeterminism(OpName(M), countersOf(Res[M].Stat)))
          break;
    }
    Split.endRound(Traced);
  }
  TheTracer.On = B.A.Trace;
  Setup.report(B);

  B.set("verdict_s", B.medianSum(false), "s");
  if (!B.A.Trace)
    return;
  for (const char *Mode : {"td", "swift", "bu"})
    B.set(std::string("mode.") + Mode + "_s",
          B.medianSum(true, endsWith(std::string("/") + Mode)), "s");
  Split.report(B);
  for (const std::string &Domain : clientDomainNames()) {
    for (const char *Mode : {"td", "swift", "bu"})
      B.set("clients." + Domain + "." + Mode + "_s",
            B.medianSum(true, endsWith("/" + Domain + "/" + Mode)), "s");
    auto [Served, Fallback] = Lookups[Domain];
    B.set("clients." + Domain + ".summary_hit_ratio",
          ratio(Served, Served + Fallback), "ratio");
  }
  B.set("genprog.generate_s", TheTracer.medianSum("generateWorkload"), "s");
}

struct ServeProgram {
  std::string Name;
  GenConfig Cfg;
  std::vector<serve::FuzzEdit> Edits; ///< Fixed after round 0.
  std::vector<TsVerdict> FinalVerdicts;
};

std::vector<TsVerdict> allVerdicts(const serve::ServeEngine &E) {
  std::vector<TsVerdict> V;
  for (SiteId S = 0; S != E.program().numSites(); ++S)
    V.push_back(E.verdict(S));
  return V;
}

void runServeEdits(Bench &B) {
  // GenConfig defaults at 3 layers x 8 procs with no Gnarly procedures:
  // the unpruned cold BU solve finishes in well under a second.
  const unsigned NumPrograms = B.A.Quick ? 1 : 4;
  const unsigned EditsPerProgram = B.A.Quick ? 4 : 24;
  std::vector<ServeProgram> Progs;
  for (unsigned I = 0; I != NumPrograms; ++I) {
    ServeProgram P;
    P.Name = "serve" + std::to_string(I);
    P.Cfg.Seed = 400 + I;
    P.Cfg.Layers = 3;
    P.Cfg.ProcsPerLayer = 8;
    P.Cfg.GnarlyPerMille = 0;
    Progs.push_back(std::move(P));
  }
  // A fixed edit stream: the cost of an edit depends so much on which
  // procedure it hits that seeded streams moved verdict_s by 2x between
  // seeds; the benchmark seed only orders the programs within a round.
  const uint64_t EditSeed = 0;
  serve::EngineOptions EO;
  EO.TrackedClass = "File";

  std::vector<double> SetupTimes;
  std::map<std::string, uint64_t> EditCounts;
  uint64_t NumEdits = 0;
  uint64_t MeasureStart = nowNs();
  for (; B.moreRounds(MeasureStart); ++B.Rounds) {
    bool Traced = B.tracedRound(B.Rounds);
    TheTracer.On = Traced;
    Scope RoundSpan("round", std::to_string(B.Rounds));
    double Setup = 0;
    Rng Order = roundRng(B);
    for (size_t PI : shuffled(Progs.size(), Order)) {
      ServeProgram &P = Progs[PI];
      std::unique_ptr<serve::ServeEngine> E;
      serve::EditResult Cold;
      B.attempt();
      Setup += timed("setup.rep", P.Name, [&] {
        std::unique_ptr<Program> Prog;
        timed("generateWorkload", P.Name,
              [&] { Prog = generateWorkload(P.Cfg); });
        std::string Text = programToText(*Prog);
        timed("ServeEngine", P.Name, [&] {
          E = std::make_unique<serve::ServeEngine>(Text, EO);
        });
        timed("ServeEngine::solveInitial", P.Name,
              [&] { Cold = E->solveInitial(); });
      });
      if (!Cold.Ok) {
        B.fail(P.Name + ": cold solve failed: " + Cold.Error);
        continue;
      }
      std::vector<SiteId> Tracked;
      for (SiteId S = 0; S != E->program().numSites(); ++S)
        if (E->trackedSite(S))
          Tracked.push_back(S);

      for (unsigned K = 0; K != EditsPerProgram; ++K) {
        if (B.Rounds == 0) {
          std::optional<serve::FuzzEdit> Ed =
              serve::makeFuzzEdit(E->programText(), EditSeed, K);
          if (!Ed)
            break; // Nothing editable left.
          P.Edits.push_back(std::move(*Ed));
        }
        if (K >= P.Edits.size())
          break;
        const serve::FuzzEdit &Ed = P.Edits[K];
        std::string Op = P.Name + "#" + std::to_string(K);
        serve::EditResult R;
        size_t Unresolved = 0;
        B.attempt();
        double T = timed("edit-to-verdict", Op, [&] {
          timed("ServeEngine::applyEdit", Op,
                [&] { R = E->applyEdit(Ed.ProcName, Ed.Body); });
          timed("ServeEngine::verdict", Op, [&] {
            for (SiteId S : Tracked)
              Unresolved += E->verdict(S) == TsVerdict::Unresolved;
          });
        });
        B.sample(Op, T, Traced);
        if (!R.Ok || R.Degraded || Unresolved) {
          B.fail(Op + ": edit rejected or degraded (" + R.Error + ", " +
                 std::to_string(Unresolved) + " unresolved sites)");
          continue;
        }
        std::map<std::string, uint64_t> C = {
            {"serve.invalidated", R.Invalidated},
            {"serve.reanalyzed", R.Reanalyzed},
            {"serve.reused", R.Reused}};
        B.checkDeterminism(Op, C);
        if (B.Rounds == 0) {
          for (auto &[Name, V] : C)
            EditCounts[Name] += V;
          ++NumEdits;
        }
      }

      std::vector<TsVerdict> Final = allVerdicts(*E);
      if (B.Rounds != 0) {
        if (Final != P.FinalVerdicts)
          B.fail(P.Name + ": final verdicts changed between rounds");
        continue;
      }
      // The incremental engine's final verdicts must equal a fresh
      // engine's cold solve of the final program text.
      P.FinalVerdicts = Final;
      B.attempt();
      serve::ServeEngine Fresh(E->programText(), EO);
      serve::EditResult FR = Fresh.solveInitial();
      if (B.A.Inject == "serve-final")
        Final.back() = Final.back() == TsVerdict::Proved
                           ? TsVerdict::ErrorReported
                           : TsVerdict::Proved;
      if (!FR.Ok)
        B.fail(P.Name + ": fresh solve of the final text failed");
      else if (Fresh.errorSites() != E->errorSites() ||
               allVerdicts(Fresh) != Final)
        B.fail(P.Name + ": incremental verdicts differ from a fresh solve");
    }
    SetupTimes.push_back(Setup);
  }
  TheTracer.On = B.A.Trace;

  B.set("setup_s", median(SetupTimes), "s");
  B.set("verdict_s", B.medianSum(false), "s");
  B.Counts["serve.edits"] = NumEdits;
  for (auto &[Name, V] : EditCounts)
    B.Counts[Name] = V;
  if (!B.A.Trace)
    return;
  // Latency over every traced edit request; p95 keeps at least ten
  // samples above it from about 200 edits on.
  std::vector<double> EditMs;
  for (double S : B.allSamples(true))
    EditMs.push_back(S * 1e3);
  B.set("serve.edit_ms.p50", percentile(EditMs, 50), "ms");
  B.set("serve.edit_ms.p95", percentile(EditMs, 95), "ms");
  B.set("serve.edit_samples", double(EditMs.size()), "count");
  B.set("serve.invalidated_per_edit",
        ratio(EditCounts["serve.invalidated"], NumEdits), "count");
  B.set("serve.reanalyzed_per_edit",
        ratio(EditCounts["serve.reanalyzed"], NumEdits), "count");
  B.set("serve.reused_per_edit", ratio(EditCounts["serve.reused"], NumEdits),
        "count");
  B.set("genprog.generate_s", TheTracer.medianSum("generateWorkload"), "s");

  // Domain operations and governed runs on the generated programs.
  DomainOpTimer Ops;
  GovernProbe Gov;
  for (ServeProgram &P : Progs) {
    std::unique_ptr<Program> Prog = generateWorkload(P.Cfg);
    TsContext Ctx(*Prog, Prog->symbols().intern("File"));
    TsRunResult Td = runTypestateTd(Ctx, runLimits());
    Ops.addProgram(Ctx, P.Name);
    Gov.addProgram(B, Ctx, P.Name, Td.ErrorSites);
  }
  Ops.report(B);
  Gov.report(B);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Fills every per-layer metric the workload did not set with 0: that
/// layer is idle on this workload.
void fillIdleLayers(Bench &B) {
  const std::pair<const char *, const char *> All[] = {
      {"genprog.generate_s", "s"},   {"alias.context_s", "s"},
      {"mode.td_s", "s"},            {"mode.swift_s", "s"},
      {"mode.bu_s", "s"},            {"td.self_s", "s"},
      {"bu.sync_s", "s"},            {"typestate.trans_ns", "ns"},
      {"typestate.rtrans_ns", "ns"}, {"typestate.rcomp_ns", "ns"},
      {"typestate.wp_ns", "ns"},     {"serve.edit_ms.p50", "ms"},
      {"serve.edit_ms.p95", "ms"},   {"serve.edit_samples", "count"},
      {"serve.reanalyzed_per_edit", "count"},
      {"serve.invalidated_per_edit", "count"},
      {"serve.reused_per_edit", "count"},
      {"govern.mem_est_mib", "MiB"}, {"govern.est_over_rss", "ratio"}};
  for (auto [Name, Unit] : All)
    if (!B.Metrics.count(Name))
      B.set(Name, 0, Unit);
  for (const std::string &Domain : clients::clientDomainNames()) {
    for (const char *Mode : {"td", "swift", "bu"}) {
      std::string N = "clients." + Domain + "." + Mode + "_s";
      if (!B.Metrics.count(N))
        B.set(N, 0, "s");
    }
    std::string N = "clients." + Domain + ".summary_hit_ratio";
    if (!B.Metrics.count(N))
      B.set(N, 0, "ratio");
  }
}

void printResult(const Bench &B) {
  std::string Out = "{\"workload\": \"" + B.A.Workload + "\"";
  Out += ", \"seed\": " + std::to_string(B.A.Seed);
  Out += ", \"trace\": " + std::to_string(B.A.Trace ? 1 : 0);
  Out += ", \"rounds\": " + std::to_string(B.Rounds);
  Out += ", \"attempted\": " + std::to_string(B.Attempted);
  Out += ", \"failed\": " + std::to_string(B.Failed);
  Out += ", \"failures\": [";
  for (size_t I = 0; I != B.Failures.size(); ++I)
    Out += (I ? ", \"" : "\"") + jsonEscape(B.Failures[I]) + "\"";
  Out += "], \"metrics\": {";
  bool FirstM = true;
  for (auto &[Name, M] : B.Metrics) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Out += std::string(FirstM ? "" : ", ") + "\"" + Name +
           "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
    FirstM = false;
  }
  auto Dict = [&](const char *Key, const std::map<std::string, uint64_t> &M) {
    Out += std::string("}, \"") + Key + "\": {";
    bool First = true;
    for (auto &[Name, V] : M) {
      Out += std::string(First ? "" : ", ") + "\"" + Name +
             "\": " + std::to_string(V);
      First = false;
    }
  };
  Dict("counts", B.Counts);
  Dict("steps", B.Steps);
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload ts-table2|clients-hybrid|serve-edits "
                 "[--seed N] [--seconds N] [--trace 0|1] [--trace-out F] "
                 "[--quick] [--inject CHECK]\n",
                 Argv[0]);
    return 2;
  }
  Bench B(A);
  TheTracer.On = A.Trace;
  TheTracer.RunId = nowNs() ^ (A.Seed << 20);
  try {
    Scope Run("workload", A.Workload);
    if (A.Workload == "ts-table2")
      runTsTable2(B);
    else if (A.Workload == "clients-hybrid")
      runClientsHybrid(B);
    else
      runServeEdits(B);
    B.set("rss_peak_mib", peakRssMiB(), "MiB");
    if (A.Trace) {
      setCounterMetrics(B);
      fillIdleLayers(B);
      B.set("obs.trace_overhead",
            B.medianSum(true) / std::max(B.medianSum(false), 1e-12),
            "ratio");
      B.set("fail_frac", ratio(B.Failed, B.Attempted), "ratio");
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  TheTracer.On = false;
  if (A.Trace && !A.TraceOut.empty() && !TheTracer.write(A.TraceOut)) {
    std::fprintf(stderr, "error: cannot write %s\n", A.TraceOut.c_str());
    return 1;
  }
  printResult(B);
  return 0;
}

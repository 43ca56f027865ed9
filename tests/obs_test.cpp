//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the observability layer (src/obs): the disabled-mode
/// zero-allocation contract, span nesting under ThreadPool concurrency
/// (also a TSan target for the lock-free trace buffers), Chrome-trace and
/// metrics-snapshot JSON round-trips through the bundled parser,
/// histogram bucket known-answer tests, the bottom-up run span args, and
/// the failpoint-driven flush write-failure path proving a trace I/O error
/// never affects analysis results.
///
//===----------------------------------------------------------------------===//

#include "genprog/Fuzzer.h"
#include "lang/Lower.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceMerge.h"
#include "support/AtomicFile.h"
#include "support/FailPoint.h"
#include "support/ThreadPool.h"
#include "typestate/Runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

using namespace swift;
using namespace swift::obs;

//===----------------------------------------------------------------------===//
// Global allocation counter (for the disabled-mode zero-allocation test)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocCount{0};
} // namespace

// noinline: if the optimizer inlines these replaced operators it pairs
// the visible std::free with the standard operator new it assumes
// callers used, and -Wmismatched-new-delete misfires (the replacement
// new also uses malloc, so the pairing is actually correct).
[[gnu::noinline]] void *operator new(std::size_t N) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

[[gnu::noinline]] void *operator new[](std::size_t N) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete[](void *P, std::size_t) noexcept {
  std::free(P);
}

namespace {

//===----------------------------------------------------------------------===//
// Disabled-mode overhead contract
//===----------------------------------------------------------------------===//

TEST(TraceDisabledTest, HotPathDoesNotAllocate) {
  obs::TraceRecorder::instance().reset(); // ensure tracing is off
  obs::MetricsRegistry::instance().disable();
  ASSERT_FALSE(obs::tracingEnabled());
  ASSERT_FALSE(obs::metricsEnabled());

  // Resolve instruments up front — hot paths intern once, sample many.
  obs::Histogram *H = obs::MetricsRegistry::instance().histogram("t.h");
  obs::Gauge *G = obs::MetricsRegistry::instance().gauge("t.g");

  uint64_t Before = GAllocCount.load(std::memory_order_relaxed);
  for (int I = 0; I != 10'000; ++I) {
    obs::TraceSpan Span("test", "span", {"a", 1});
    obs::instant("test", "tick", {"b", 2});
    obs::counterEvent("test.ctr", "v", 3);
    if (obs::metricsEnabled()) { // the instrumentation-site idiom
      H->record(7);
      G->set(9);
    }
  }
  EXPECT_EQ(GAllocCount.load(std::memory_order_relaxed), Before)
      << "disabled-mode tracing must not allocate";

  // Enabled-mode metric recording is allocation-free too (relaxed
  // atomics only); only event *tracing* buffers allocate, chunk-wise.
  obs::MetricsRegistry::instance().enable();
  Before = GAllocCount.load(std::memory_order_relaxed);
  for (int I = 0; I != 10'000; ++I) {
    H->record(static_cast<uint64_t>(I));
    G->set(static_cast<uint64_t>(I));
  }
  EXPECT_EQ(GAllocCount.load(std::memory_order_relaxed), Before)
      << "histogram/gauge sampling must not allocate";
  obs::MetricsRegistry::instance().disable();
  obs::MetricsRegistry::instance().reset();
}

//===----------------------------------------------------------------------===//
// Histogram known-answer tests
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketMappingKnownAnswers) {
  using H = obs::Histogram;
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(H::bucketOf(0), 0u);
  EXPECT_EQ(H::bucketOf(1), 1u);
  EXPECT_EQ(H::bucketOf(2), 2u);
  EXPECT_EQ(H::bucketOf(3), 2u);
  EXPECT_EQ(H::bucketOf(4), 3u);
  EXPECT_EQ(H::bucketOf(7), 3u);
  EXPECT_EQ(H::bucketOf(8), 4u);
  EXPECT_EQ(H::bucketOf(1023), 10u);
  EXPECT_EQ(H::bucketOf(1024), 11u);
  EXPECT_EQ(H::bucketOf(UINT64_MAX), 64u);

  EXPECT_EQ(H::bucketLo(0), 0u);
  EXPECT_EQ(H::bucketHi(0), 0u);
  EXPECT_EQ(H::bucketLo(1), 1u);
  EXPECT_EQ(H::bucketHi(1), 1u);
  EXPECT_EQ(H::bucketLo(11), 1024u);
  EXPECT_EQ(H::bucketHi(11), 2047u);
  EXPECT_EQ(H::bucketLo(64), uint64_t{1} << 63);
  EXPECT_EQ(H::bucketHi(64), UINT64_MAX);
  // Every value falls inside its own bucket's bounds.
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(5), uint64_t(100),
                     uint64_t(1u << 20), UINT64_MAX}) {
    unsigned B = H::bucketOf(V);
    EXPECT_GE(V, H::bucketLo(B)) << V;
    EXPECT_LE(V, H::bucketHi(B)) << V;
  }
}

TEST(HistogramTest, RecordAggregates) {
  obs::Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u); // empty histogram reports 0, not UINT64_MAX
  EXPECT_EQ(H.max(), 0u);

  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(3), uint64_t(3),
                     uint64_t(1000)})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1007u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucketCount(0), 1u);  // the 0
  EXPECT_EQ(H.bucketCount(1), 1u);  // the 1
  EXPECT_EQ(H.bucketCount(2), 2u);  // the two 3s
  EXPECT_EQ(H.bucketCount(10), 1u); // 1000 in [512, 1024)

  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.bucketCount(2), 0u);
}

TEST(GaugeTest, LastValueAndRunningMax) {
  obs::Gauge G;
  G.set(5);
  G.set(9);
  G.set(2);
  EXPECT_EQ(G.value(), 2u);
  EXPECT_EQ(G.max(), 9u);
  G.reset();
  EXPECT_EQ(G.value(), 0u);
  EXPECT_EQ(G.max(), 0u);
}

//===----------------------------------------------------------------------===//
// Concurrent span nesting + trace JSON round-trip
//===----------------------------------------------------------------------===//

struct SpanIv {
  uint64_t Tid, Ts, End;
};

TEST(TraceTest, ConcurrentSpansNestAndRoundTrip) {
  obs::TraceRecorder &R = obs::TraceRecorder::instance();
  R.start();
  {
    obs::TraceSpan Outer("test", "outer", {"which", 1});
    ThreadPool Pool(4);
    for (int I = 0; I != 64; ++I)
      Pool.submit([] {
        obs::TraceSpan Inner("test", "inner");
        obs::instant("test", "tick", {"i", 7});
      });
    Pool.wait();
    Outer.setArg("done", 1);
  }
  R.stop();
  // outer + 64 * (pool.task + inner + tick) + queue-depth counters.
  EXPECT_GE(R.eventCount(), 193u);

  json::Value Root = json::parse(R.toJson()); // throws on malformed JSON
  const json::Value *Events = Root.find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());

  std::vector<SpanIv> Tasks; // pool.task spans, per worker thread
  std::vector<SpanIv> Inner;
  std::set<uint64_t> Tids;
  uint64_t Ticks = 0, ThreadNames = 0, Outers = 0;
  for (const json::Value &E : Events->Arr) {
    ASSERT_TRUE(E.isObject());
    const json::Value *Name = E.find("name");
    const json::Value *Ph = E.find("ph");
    ASSERT_TRUE(Name && Name->isString());
    ASSERT_TRUE(Ph && Ph->isString());
    if (Ph->Str == "M") {
      ThreadNames += Name->Str == "thread_name";
      continue;
    }
    const json::Value *Tid = E.find("tid");
    const json::Value *Ts = E.find("ts");
    ASSERT_TRUE(Tid && Tid->isNumber());
    ASSERT_TRUE(Ts && Ts->isNumber());
    Tids.insert(Tid->asU64());
    if (Ph->Str == "X") {
      const json::Value *Dur = E.find("dur");
      ASSERT_TRUE(Dur && Dur->isNumber());
      SpanIv Iv{Tid->asU64(), Ts->asU64(), Ts->asU64() + Dur->asU64()};
      if (Name->Str == "pool.task")
        Tasks.push_back(Iv);
      else if (Name->Str == "inner")
        Inner.push_back(Iv);
      else if (Name->Str == "outer") {
        ++Outers;
        // setArg surfaced in the serialized args object.
        const json::Value *Args = E.find("args");
        ASSERT_TRUE(Args && Args->isObject());
        const json::Value *Done = Args->find("done");
        ASSERT_TRUE(Done && Done->isNumber());
        EXPECT_EQ(Done->asU64(), 1u);
      }
    } else if (Ph->Str == "i" && Name->Str == "tick") {
      ++Ticks;
      const json::Value *Args = E.find("args");
      ASSERT_TRUE(Args && Args->isObject());
      const json::Value *IArg = Args->find("i");
      ASSERT_TRUE(IArg && IArg->isNumber());
      EXPECT_EQ(IArg->asU64(), 7u);
    }
  }
  EXPECT_EQ(Outers, 1u);
  EXPECT_EQ(Inner.size(), 64u);
  EXPECT_EQ(Tasks.size(), 64u);
  EXPECT_EQ(Ticks, 64u);
  // Thread buffers register lazily (a worker that never emitted has no
  // buffer), so thread-name metadata matches the tids actually seen:
  // the main thread plus every worker a task landed on.
  EXPECT_GE(Tids.size(), 2u);
  EXPECT_EQ(ThreadNames, Tids.size());

  // Nesting: every inner span lies within some pool.task span on the
  // same thread (the pool wraps each executed task body in a span).
  for (const SpanIv &I : Inner) {
    bool Nested = false;
    for (const SpanIv &T : Tasks)
      if (T.Tid == I.Tid && T.Ts <= I.Ts && I.End <= T.End) {
        Nested = true;
        break;
      }
    EXPECT_TRUE(Nested) << "inner span on tid " << I.Tid
                        << " not nested in any pool.task span";
  }
  R.reset();
}

TEST(TraceTest, StartResetsTimelineAndBuffers) {
  obs::TraceRecorder &R = obs::TraceRecorder::instance();
  R.start();
  obs::instant("test", "first");
  R.stop();
  EXPECT_EQ(R.eventCount(), 1u);
  R.start(); // drops the buffered event, re-zeroes the clock
  EXPECT_EQ(R.eventCount(), 0u);
  obs::instant("test", "second");
  R.stop();
  EXPECT_EQ(R.eventCount(), 1u);
  json::Value Root = json::parse(R.toJson());
  const json::Value *Events = Root.find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  bool SawSecond = false;
  for (const json::Value &E : Events->Arr) {
    const json::Value *Name = E.find("name");
    ASSERT_TRUE(Name && Name->isString());
    EXPECT_NE(Name->Str, "first");
    SawSecond |= Name->Str == "second";
  }
  EXPECT_TRUE(SawSecond);
  R.reset();
}

//===----------------------------------------------------------------------===//
// Metrics snapshot round-trip
//===----------------------------------------------------------------------===//

TEST(MetricsTest, SnapshotJsonRoundTrip) {
  obs::MetricsRegistry &MR = obs::MetricsRegistry::instance();
  MR.reset();
  MR.enable();
  obs::Gauge *G = MR.gauge("test.gauge");
  G->set(5);
  G->set(3);
  obs::Histogram *H = MR.histogram("test.hist");
  uint64_t Sum = 0, Count = 0;
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(2), uint64_t(3),
                     uint64_t(1000), uint64_t(1024)}) {
    H->record(V);
    Sum += V;
    ++Count;
  }
  Stats S;
  S.counter("test.counter") = 42;

  json::Value Root = json::parse(MR.snapshotJson(&S));
  const json::Value *Format = Root.find("format");
  const json::Value *Version = Root.find("version");
  ASSERT_TRUE(Format && Format->isString());
  ASSERT_TRUE(Version && Version->isNumber());
  EXPECT_EQ(Format->Str, "swift-metrics");
  EXPECT_EQ(Version->asU64(), 1u);

  const json::Value *Counters = Root.find("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  const json::Value *Ctr = Counters->find("test.counter");
  ASSERT_TRUE(Ctr && Ctr->isNumber());
  EXPECT_EQ(Ctr->asU64(), 42u);

  const json::Value *Gauges = Root.find("gauges");
  ASSERT_TRUE(Gauges && Gauges->isObject());
  const json::Value *TG = Gauges->find("test.gauge");
  ASSERT_TRUE(TG && TG->isObject());
  EXPECT_EQ(TG->find("value")->asU64(), 3u);
  EXPECT_EQ(TG->find("max")->asU64(), 5u);

  const json::Value *Hists = Root.find("histograms");
  ASSERT_TRUE(Hists && Hists->isObject());
  const json::Value *TH = Hists->find("test.hist");
  ASSERT_TRUE(TH && TH->isObject());
  EXPECT_EQ(TH->find("count")->asU64(), Count);
  EXPECT_EQ(TH->find("sum")->asU64(), Sum);
  EXPECT_EQ(TH->find("min")->asU64(), 0u);
  EXPECT_EQ(TH->find("max")->asU64(), 1024u);
  const json::Value *Buckets = TH->find("buckets");
  ASSERT_TRUE(Buckets && Buckets->isArray());
  uint64_t BucketTotal = 0;
  for (const json::Value &B : Buckets->Arr) {
    ASSERT_TRUE(B.isObject());
    const json::Value *N = B.find("n");
    ASSERT_TRUE(N && N->isNumber());
    EXPECT_GT(N->asU64(), 0u); // only non-empty buckets are emitted
    BucketTotal += N->asU64();
    EXPECT_LE(B.find("lo")->asU64(), B.find("hi")->asU64());
  }
  EXPECT_EQ(BucketTotal, Count);

  MR.disable();
  MR.reset();
}

//===----------------------------------------------------------------------===//
// JSON parser corners (the bundled parser backs tracecat + the tests)
//===----------------------------------------------------------------------===//

TEST(JsonTest, ParseDumpRoundTrip) {
  const char *Src = "{\"a\":[1,2.5,true,null,\"s\\n\\u0041\"],"
                    "\"b\":{\"nested\":-3}}";
  json::Value V = json::parse(Src);
  std::string Dumped = json::dump(V);
  json::Value V2 = json::parse(Dumped); // dump output reparses
  const json::Value *A = V2.find("a");
  ASSERT_TRUE(A && A->isArray());
  ASSERT_EQ(A->Arr.size(), 5u);
  EXPECT_EQ(A->Arr[0].asU64(), 1u);
  EXPECT_EQ(A->Arr[4].Str, "s\nA");
  EXPECT_EQ(V2.find("b")->find("nested")->Num, -3.0);
}

TEST(JsonTest, IntegersAbove2To53RoundTripExactly) {
  // 2^53 is the last integer a double represents exactly; the lexemes
  // around it (and UINT64_MAX) must survive parse -> dump unchanged. A
  // double-only number model would collapse 9007199254740993 to ...992.
  const char *Cases[] = {
      "9007199254740992",     // 2^53
      "9007199254740993",     // 2^53 + 1: first double casualty
      "18446744073709551615", // UINT64_MAX
      "-9007199254740993",    // 2^53 + 1, negated
      "-9223372036854775808", // INT64_MIN
  };
  for (const char *Lexeme : Cases) {
    json::Value V = json::parse(Lexeme);
    EXPECT_EQ(json::dump(V), Lexeme) << Lexeme;
  }

  json::Value U = json::parse("9007199254740993");
  EXPECT_EQ(U.NR, json::Value::NumRep::U64);
  EXPECT_EQ(U.asU64(), 9007199254740993ull);
  json::Value I = json::parse("-9007199254740993");
  EXPECT_EQ(I.NR, json::Value::NumRep::I64);
  EXPECT_EQ(I.I, -9007199254740993ll);

  // The factories hit the same exact paths as the parser.
  EXPECT_EQ(json::dump(json::Value::u64(18446744073709551615ull)),
            "18446744073709551615");
  EXPECT_EQ(json::dump(json::Value::i64(-9007199254740993ll)),
            "-9007199254740993");

  // Non-integer lexemes still take the double path.
  EXPECT_EQ(json::parse("9007199254740993.0").NR,
            json::Value::NumRep::Dbl);
  EXPECT_EQ(json::parse("9e3").NR, json::Value::NumRep::Dbl);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), std::runtime_error);
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("\"\\q\""), std::runtime_error);
  EXPECT_THROW(json::parse("nul"), std::runtime_error);
  EXPECT_THROW(json::parse("1.2.3"), std::runtime_error);
}

//===----------------------------------------------------------------------===//
// Flush failure: trace I/O errors never affect analysis results
//===----------------------------------------------------------------------===//

TEST(TraceTest, FlushFailureDoesNotAffectAnalysis) {
  FuzzConfig FC;
  FC.Seed = 11;
  FC.NumProcs = 4;
  FC.StmtsPerProc = 10;
  std::unique_ptr<Program> Prog = generateFuzzProgram(FC);
  TsContext Ctx(*Prog, Prog->spec(0).name());

  TsRunResult Baseline = runTypestateTd(Ctx);

  obs::TraceRecorder &R = obs::TraceRecorder::instance();
  R.start();
  TsRunResult Traced = runTypestateTd(Ctx);
  R.stop();
  ASSERT_GT(R.eventCount(), 0u);

  const std::string Path = "obs_test.tmp.trace.json";
  {
    failpoint::ScopedArm Arm("obs.flush.open=always");
    std::string Err;
    EXPECT_FALSE(R.flushToFile(Path, &Err));
    EXPECT_FALSE(Err.empty());
  }
  // The same flush succeeds once the fault is disarmed, and the file is
  // a valid Chrome trace.
  std::string Err;
  ASSERT_TRUE(R.flushToFile(Path, &Err)) << Err;
  json::Value Root = json::parse(readWholeFile(Path));
  EXPECT_TRUE(Root.find("traceEvents"));
  std::remove(Path.c_str());

  // Tracing — including the failed flush — changed nothing about the
  // analysis itself.
  EXPECT_EQ(Traced.ErrorSites, Baseline.ErrorSites);
  EXPECT_EQ(Traced.ErrorPoints, Baseline.ErrorPoints);
  EXPECT_EQ(Traced.MainExit, Baseline.MainExit);
  EXPECT_EQ(Traced.Steps, Baseline.Steps);
  EXPECT_EQ(Traced.TdSummaries, Baseline.TdSummaries);
  R.reset();
}

TEST(TraceTest, BuSyncSpansSplitFrontierIntoSolvedAndReused) {
  // g trips first; f1 and f2 trip later and reuse g's up-to-date summary
  // (framework_test's UpToDateCalleeSummariesAreReused). Each bu.sync
  // span carries the four args, in order, with solved + reused ==
  // frontier.
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
  obs::TraceRecorder &R = obs::TraceRecorder::instance();
  R.start();
  TsRunResult Sw = runTypestateSwift(Ctx, 1, 2);
  R.stop();
  ASSERT_FALSE(Sw.Timeout);

  json::Value Root = json::parse(R.toJson());
  const json::Value *Events = Root.find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  uint64_t Spans = 0, Solved = 0, Reused = 0;
  for (const json::Value &E : Events->Arr) {
    const json::Value *Name = E.find("name");
    if (!Name || Name->Str != "bu.sync")
      continue;
    ++Spans;
    const json::Value *Args = E.find("args");
    ASSERT_TRUE(Args && Args->isObject());
    std::vector<std::string> Keys;
    for (const auto &[K, V] : Args->Obj) {
      ASSERT_TRUE(V.isNumber()) << K;
      Keys.push_back(K);
    }
    EXPECT_EQ(Keys, (std::vector<std::string>{"root", "frontier", "solved",
                                              "reused"}));
    uint64_t S = Args->find("solved")->asU64();
    uint64_t U = Args->find("reused")->asU64();
    EXPECT_EQ(S + U, Args->find("frontier")->asU64());
    EXPECT_EQ(S, 1u); // Only the tripping procedure is solved.
    Solved += S;
    Reused += U;
  }
  EXPECT_EQ(Spans, Sw.Stat.get("swift.bu_triggers"));
  EXPECT_EQ(Spans, 3u);
  EXPECT_EQ(Reused, Sw.Stat.get("swift.bu_reused_summaries"));
  EXPECT_EQ(Reused, 2u);
  R.reset();
}

//===----------------------------------------------------------------------===//
// Trace merging (obs/TraceMerge.h)
//===----------------------------------------------------------------------===//

TEST(TraceMergeTest, DuplicateProcessNamesGetOccurrenceSuffixes) {
  // Two incarnations of the same restarted worker emit the same embedded
  // process_name; the third input has no embedded name at all and falls
  // back to its label.
  const char *WorkerTrace =
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"shard-2\"}},"
      "{\"name\":\"solve\",\"cat\":\"bu\",\"ph\":\"X\",\"ts\":5,"
      "\"dur\":7,\"pid\":1,\"tid\":1}"
      "]}";
  const char *Unnamed =
      "{\"traceEvents\":["
      "{\"name\":\"tick\",\"cat\":\"misc\",\"ph\":\"i\",\"ts\":9,"
      "\"pid\":1,\"tid\":1}"
      "]}";
  TraceMergeStats Stats;
  std::string Out = mergeTraces({{"a.json", WorkerTrace},
                                 {"b.json", WorkerTrace},
                                 {"c.json", Unnamed}},
                                &Stats);
  EXPECT_EQ(Stats.Renamed, 1u);

  json::Value Root = json::parse(Out);
  const json::Value *Events = Root.find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  // 3 process_name records + 2 worker events + 1 unnamed event.
  EXPECT_EQ(Events->Arr.size(), 6u);
  EXPECT_EQ(Stats.Events, 6u);

  std::vector<std::string> Names;
  std::set<uint64_t> NamePids;
  for (const json::Value &E : Events->Arr) {
    if (E.find("name")->Str != "process_name")
      continue;
    Names.push_back(E.find("args")->find("name")->Str);
    NamePids.insert(E.find("pid")->asU64());
  }
  EXPECT_EQ(Names, (std::vector<std::string>{"shard-2", "shard-2 #2",
                                             "c.json"}));
  EXPECT_EQ(NamePids, (std::set<uint64_t>{1, 2, 3}));

  // Every non-metadata event was re-pidded to its input's track.
  for (const json::Value &E : Events->Arr)
    if (E.find("name")->Str == "solve") {
      EXPECT_GE(E.find("pid")->asU64(), 1u);
    }
}

TEST(TraceMergeTest, MalformedInputIsAHardErrorNamingTheLabel) {
  try {
    mergeTraces({{"good.json", "{\"traceEvents\":[]}"},
                 {"bad.json", "{\"notATrace\":true}"}});
    FAIL() << "malformed input accepted";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("bad.json"), std::string::npos)
        << E.what();
  }
  EXPECT_THROW(mergeTraces({{"x.json", "not json at all"}}),
               std::runtime_error);
}

TEST(TraceTest, SetProcessNameIsEmbeddedInJson) {
  obs::TraceRecorder &R = obs::TraceRecorder::instance();
  R.start();
  obs::instant("test", "ping");
  R.stop();
  R.setProcessName("swift-shard-worker 3 inc 1");
  json::Value Root = json::parse(R.toJson());
  bool Found = false;
  for (const json::Value &E : Root.find("traceEvents")->Arr)
    if (E.find("name")->Str == "process_name") {
      EXPECT_EQ(E.find("args")->find("name")->Str,
                "swift-shard-worker 3 inc 1");
      Found = true;
    }
  EXPECT_TRUE(Found);
  R.setProcessName("swift"); // restore the default for later tests
  R.reset();
}

TEST(MetricsTest, SnapshotWriteFailureIsAdvisory) {
  obs::MetricsRegistry &MR = obs::MetricsRegistry::instance();
  MR.reset();
  MR.gauge("test.g2")->set(1);
  const std::string Path = "obs_test.tmp.metrics.json";
  {
    failpoint::ScopedArm Arm("obs.metrics.rename=always");
    std::string Err;
    EXPECT_FALSE(MR.writeSnapshot(Path, nullptr, &Err));
    EXPECT_FALSE(Err.empty());
  }
  std::string Err;
  ASSERT_TRUE(MR.writeSnapshot(Path, nullptr, &Err)) << Err;
  json::Value Root = json::parse(readWholeFile(Path));
  EXPECT_EQ(Root.find("format")->Str, "swift-metrics");
  std::remove(Path.c_str());
  MR.reset();
}

} // namespace

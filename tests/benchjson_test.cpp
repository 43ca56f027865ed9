//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the "swift-bench" v1 result format (obs/BenchResult.h): the
/// schema round-trip through the JSON parser, the byte-stable key order
/// of serialized snapshots, schema-validation rejections, and the
/// swift-benchdiff comparison semantics as known-answer cases
/// (improvement / within-noise / regression / timeout flips / schema
/// mismatch).
///
//===----------------------------------------------------------------------===//

#include "obs/BenchResult.h"

#include "obs/Json.h"
#include "support/AtomicFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace swift;
using namespace swift::obs;
using namespace swift::obs::benchjson;

namespace {

Report sampleReport() {
  Report R;
  R.Bench = "bench_table2";
  R.Context.emplace_back("budget_seconds", 15.0);
  R.Context.emplace_back("budget_steps", 200'000'000.0);
  R.Context.emplace_back("threads", 1.0);
  Row &A = R.newRow("jpat-p", "td");
  A.set("seconds", 0.125);
  A.set("steps", 10120.0);
  A.set("td_summaries", 423.0);
  Row &B = R.newRow("jpat-p", "swift_k5_th2");
  B.set("seconds", 0.031);
  B.set("steps", 2048.0);
  B.set("td_summaries", 97.0);
  Row &C = R.newRow("sablecc-j", "td");
  C.Timeout = true;
  C.set("seconds", 15.0);
  C.set("steps", 180'000'000.0);
  C.set("td_summaries", 0.0);
  return R;
}

//===----------------------------------------------------------------------===//
// Schema round-trip + determinism
//===----------------------------------------------------------------------===//

TEST(BenchJsonTest, RoundTripPreservesEverything) {
  Report R = sampleReport();
  std::string Text = dumpReport(R);

  Report Back;
  std::string Err;
  ASSERT_TRUE(parseReport(Text, Back, &Err)) << Err;
  EXPECT_EQ(Back.Bench, R.Bench);
  ASSERT_EQ(Back.Context.size(), R.Context.size());
  for (size_t I = 0; I != R.Context.size(); ++I) {
    EXPECT_EQ(Back.Context[I].first, R.Context[I].first);
    EXPECT_EQ(Back.Context[I].second, R.Context[I].second);
  }
  ASSERT_EQ(Back.Rows.size(), R.Rows.size());
  for (size_t I = 0; I != R.Rows.size(); ++I) {
    EXPECT_EQ(Back.Rows[I].Workload, R.Rows[I].Workload);
    EXPECT_EQ(Back.Rows[I].Config, R.Rows[I].Config);
    EXPECT_EQ(Back.Rows[I].Timeout, R.Rows[I].Timeout);
    EXPECT_EQ(Back.Rows[I].Metrics, R.Rows[I].Metrics);
  }
  // Serialize-parse-serialize is byte-identical: key order is fixed by
  // construction, so snapshot diffs are stable across runs/platforms.
  EXPECT_EQ(dumpReport(Back), Text);
}

TEST(BenchJsonTest, DumpIsByteDeterministic) {
  EXPECT_EQ(dumpReport(sampleReport()), dumpReport(sampleReport()));
  // Schema keys lead in fixed order, metric keys follow insertion order.
  std::string Text = dumpReport(sampleReport());
  size_t Format = Text.find("\"format\"");
  size_t Version = Text.find("\"version\"");
  size_t Bench = Text.find("\"bench\"");
  size_t Context = Text.find("\"context\"");
  size_t Rows = Text.find("\"rows\"");
  EXPECT_LT(Format, Version);
  EXPECT_LT(Version, Bench);
  EXPECT_LT(Bench, Context);
  EXPECT_LT(Context, Rows);
  EXPECT_LT(Text.find("\"seconds\""), Text.find("\"steps\""));
}

TEST(BenchJsonTest, ParsesThroughGenericJsonParser) {
  // The emitted text is plain JSON for any consumer, not just our
  // schema-aware parser.
  json::Value V = json::parse(dumpReport(sampleReport()));
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("format")->Str, "swift-bench");
  EXPECT_EQ(V.find("version")->asU64(), 1u);
  EXPECT_EQ(V.find("rows")->Arr.size(), 3u);
}

TEST(BenchJsonTest, WriteReportLandsOnDisk) {
  std::string Path = ::testing::TempDir() + "benchjson_test_result.json";
  std::string Err;
  ASSERT_TRUE(writeReport(sampleReport(), Path, &Err)) << Err;
  Report Back;
  ASSERT_TRUE(parseReport(readWholeFile(Path), Back, &Err)) << Err;
  EXPECT_EQ(Back.Rows.size(), 3u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Schema rejections
//===----------------------------------------------------------------------===//

TEST(BenchJsonTest, RejectsSchemaViolations) {
  struct Case {
    const char *Text;
    const char *WantErrPiece;
  };
  const Case Cases[] = {
      {"not json", "parse error"},
      {"[1,2]", "not an object"},
      {R"({"format":"swift-trace","version":1,"bench":"b",)"
       R"("rows":[{"workload":"w","config":"c","timeout":false,)"
       R"("metrics":{"seconds":1}}]})",
       "format"},
      {R"({"format":"swift-bench","version":2,"bench":"b",)"
       R"("rows":[{"workload":"w","config":"c","timeout":false,)"
       R"("metrics":{"seconds":1}}]})",
       "version"},
      {R"({"format":"swift-bench","version":1,"bench":"",)"
       R"("rows":[{"workload":"w","config":"c","timeout":false,)"
       R"("metrics":{"seconds":1}}]})",
       "bench"},
      {R"({"format":"swift-bench","version":1,"bench":"b","rows":[]})",
       "rows"},
      {R"({"format":"swift-bench","version":1,"bench":"b",)"
       R"("rows":[{"workload":"w","config":"c","timeout":"no",)"
       R"("metrics":{"seconds":1}}]})",
       "timeout"},
      {R"({"format":"swift-bench","version":1,"bench":"b",)"
       R"("rows":[{"workload":"w","config":"c","timeout":false,)"
       R"("metrics":{}}]})",
       "metrics"},
      {R"({"format":"swift-bench","version":1,"bench":"b",)"
       R"("rows":[{"workload":"w","config":"c","timeout":false,)"
       R"("metrics":{"seconds":-1}}]})",
       "negative"},
      {R"({"format":"swift-bench","version":1,"bench":"b",)"
       R"("rows":[{"workload":"w","config":"c","timeout":false,)"
       R"("metrics":{"seconds":1}},{"workload":"w","config":"c",)"
       R"("timeout":false,"metrics":{"seconds":2}}]})",
       "duplicate"},
  };
  for (const Case &C : Cases) {
    Report R;
    std::string Err;
    EXPECT_FALSE(parseReport(C.Text, R, &Err)) << C.Text;
    EXPECT_NE(Err.find(C.WantErrPiece), std::string::npos)
        << "error '" << Err << "' should mention '" << C.WantErrPiece
        << "'";
  }
}

//===----------------------------------------------------------------------===//
// swift-benchdiff known-answer cases
//===----------------------------------------------------------------------===//

Report oneRowReport(double Seconds, double Steps, bool Timeout = false) {
  Report R;
  R.Bench = "bench_table2";
  Row &W = R.newRow("antlr", "swift_k5_th2");
  W.Timeout = Timeout;
  W.set("seconds", Seconds);
  W.set("steps", Steps);
  return R;
}

const DiffEntry *findEntry(const DiffResult &D, std::string_view Name) {
  for (const DiffEntry &E : D.Entries)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

TEST(BenchDiffTest, ImprovementIsNotARegression) {
  DiffResult D = diffReports(oneRowReport(4.0, 1000.0),
                             oneRowReport(1.0, 400.0), DiffOptions());
  EXPECT_FALSE(D.hasRegression());
  ASSERT_NE(findEntry(D, "seconds"), nullptr);
  EXPECT_EQ(findEntry(D, "seconds")->V, DiffEntry::Verdict::Improved);
  EXPECT_EQ(findEntry(D, "steps")->V, DiffEntry::Verdict::Improved);
}

TEST(BenchDiffTest, WithinNoiseIsQuiet) {
  // +20% with a 25% threshold: within noise, both directions.
  DiffResult D = diffReports(oneRowReport(1.0, 1000.0),
                             oneRowReport(1.2, 1100.0), DiffOptions());
  EXPECT_FALSE(D.hasRegression());
  EXPECT_EQ(findEntry(D, "seconds")->V, DiffEntry::Verdict::Within);
  EXPECT_EQ(findEntry(D, "steps")->V, DiffEntry::Verdict::Within);
}

TEST(BenchDiffTest, RegressionTrips) {
  DiffResult D = diffReports(oneRowReport(1.0, 1000.0),
                             oneRowReport(1.6, 2000.0), DiffOptions());
  EXPECT_TRUE(D.hasRegression());
  EXPECT_EQ(findEntry(D, "seconds")->V, DiffEntry::Verdict::Regressed);
  EXPECT_EQ(findEntry(D, "steps")->V, DiffEntry::Verdict::Regressed);
}

TEST(BenchDiffTest, AbsoluteFloorsSuppressTinyDeltas) {
  // 10ms -> 18ms is +80% but under the 50ms seconds floor; 4 -> 7 steps
  // is +75% but under the count floor of 8.
  DiffResult D = diffReports(oneRowReport(0.010, 4.0),
                             oneRowReport(0.018, 7.0), DiffOptions());
  EXPECT_FALSE(D.hasRegression());
  EXPECT_EQ(findEntry(D, "seconds")->V, DiffEntry::Verdict::Within);
  EXPECT_EQ(findEntry(D, "steps")->V, DiffEntry::Verdict::Within);
}

TEST(BenchDiffTest, MissingBaselineRowsAreTheirOwnFailureCategory) {
  // The new result dropped the only row: not a regression (nothing got
  // slower) but hasMissingRows() must trip so swift-benchdiff can exit 4
  // — a shrunken bench set must not read as a pass.
  Report Base = oneRowReport(1.0, 1000.0);
  Report Empty;
  Empty.Bench = Base.Bench;
  DiffResult D = diffReports(Base, Empty, DiffOptions());
  EXPECT_FALSE(D.hasRegression());
  EXPECT_TRUE(D.hasMissingRows());
  ASSERT_EQ(D.OnlyBaseline.size(), 1u);
  EXPECT_EQ(D.OnlyBaseline[0], "antlr/swift_k5_th2");

  // The rendering names the missing row either way; only the verdict
  // line changes with the opt-in.
  DiffOptions Strict;
  std::string StrictText = formatDiff(D, Strict);
  EXPECT_NE(StrictText.find("antlr/swift_k5_th2"), std::string::npos);
  EXPECT_NE(StrictText.find("MISSING"), std::string::npos);

  DiffOptions Allow;
  Allow.AllowMissingRows = true;
  DiffResult DA = diffReports(Base, Empty, Allow);
  EXPECT_TRUE(DA.hasMissingRows()); // the fact is reported either way
  EXPECT_FALSE(DA.hasRegression()); // the caller decides via the flag

  // Rows only in the NEW result are informational, never failing.
  DiffResult Grown = diffReports(Empty, Base, DiffOptions());
  EXPECT_FALSE(Grown.hasRegression());
  EXPECT_FALSE(Grown.hasMissingRows());
  ASSERT_EQ(Grown.OnlyNew.size(), 1u);
}

TEST(BenchDiffTest, MetricFilterSelectsDimension) {
  DiffOptions O;
  O.Metric = DiffOptions::Filter::StepsOnly;
  // Time regresses 4x (machine noise), steps are clean: the CI steps
  // gate must stay green.
  DiffResult D = diffReports(oneRowReport(1.0, 1000.0),
                             oneRowReport(4.0, 1000.0), O);
  EXPECT_FALSE(D.hasRegression());
  EXPECT_EQ(findEntry(D, "seconds"), nullptr);
  ASSERT_NE(findEntry(D, "steps"), nullptr);

  O.Metric = DiffOptions::Filter::TimeOnly;
  DiffResult T = diffReports(oneRowReport(1.0, 1000.0),
                             oneRowReport(4.0, 1000.0), O);
  EXPECT_TRUE(T.hasRegression());
  EXPECT_EQ(findEntry(T, "steps"), nullptr);
}

TEST(BenchDiffTest, TimeoutFlipsGateCorrectly) {
  // completed -> timeout is a regression even though no metric compares.
  DiffResult Worse =
      diffReports(oneRowReport(1.0, 1000.0),
                  oneRowReport(15.0, 9e7, /*Timeout=*/true), DiffOptions());
  EXPECT_TRUE(Worse.hasRegression());
  EXPECT_TRUE(Worse.Entries.empty());
  ASSERT_EQ(Worse.NewTimeouts.size(), 1u);
  EXPECT_EQ(Worse.NewTimeouts[0], "antlr/swift_k5_th2");

  // timeout -> completed is an improvement.
  DiffResult Better =
      diffReports(oneRowReport(15.0, 9e7, /*Timeout=*/true),
                  oneRowReport(1.0, 1000.0), DiffOptions());
  EXPECT_FALSE(Better.hasRegression());
  EXPECT_EQ(Better.FixedTimeouts.size(), 1u);

  // timeout on both sides: budget-truncated numbers never compare.
  DiffResult Both =
      diffReports(oneRowReport(15.0, 9e7, /*Timeout=*/true),
                  oneRowReport(15.0, 5e7, /*Timeout=*/true), DiffOptions());
  EXPECT_FALSE(Both.hasRegression());
  EXPECT_TRUE(Both.Entries.empty());
}

TEST(BenchDiffTest, RowSetChangesAreNotesNotRegressions) {
  Report Base = oneRowReport(1.0, 1000.0);
  Report New;
  New.Bench = "bench_table2";
  Row &W = New.newRow("bloat", "td");
  W.set("seconds", 2.0);
  DiffResult D = diffReports(Base, New, DiffOptions());
  EXPECT_FALSE(D.hasRegression());
  ASSERT_EQ(D.OnlyBaseline.size(), 1u);
  ASSERT_EQ(D.OnlyNew.size(), 1u);
  EXPECT_EQ(D.OnlyBaseline[0], "antlr/swift_k5_th2");
  EXPECT_EQ(D.OnlyNew[0], "bloat/td");
}

TEST(BenchDiffTest, FormatDiffSummarizesVerdict) {
  DiffOptions O;
  DiffResult Ok = diffReports(oneRowReport(1.0, 1000.0),
                              oneRowReport(1.0, 1000.0), O);
  EXPECT_NE(formatDiff(Ok, O).find("OK"), std::string::npos);
  DiffResult Bad = diffReports(oneRowReport(1.0, 1000.0),
                               oneRowReport(9.0, 9000.0), O);
  EXPECT_NE(formatDiff(Bad, O).find("REGRESSION"), std::string::npos);
}

TEST(BenchDiffTest, FormatDiffPrintsCountsExactly) {
  // A one-step change on a million-step row must be readable in the
  // report; six-significant-digit %g would print both sides the same.
  DiffOptions O;
  std::string Text = formatDiff(diffReports(oneRowReport(0.25, 1299860.0),
                                            oneRowReport(0.5, 1299861.0), O),
                                O);
  EXPECT_NE(Text.find("1299860 -> 1299861"), std::string::npos) << Text;
  // Fractional values keep their %g rendering.
  EXPECT_NE(Text.find("0.25 -> 0.5"), std::string::npos) << Text;
}

} // namespace

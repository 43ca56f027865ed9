//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "obs/BenchResult.h"

#include "obs/Json.h"
#include "support/AtomicFile.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

using namespace swift;
using namespace swift::obs;
using namespace swift::obs::benchjson;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

json::Value num(double V) {
  json::Value N;
  N.K = json::Value::Kind::Number;
  N.Num = V;
  return N;
}

json::Value str(std::string S) {
  json::Value V;
  V.K = json::Value::Kind::String;
  V.Str = std::move(S);
  return V;
}

json::Value boolean(bool B) {
  json::Value V;
  V.K = json::Value::Kind::Bool;
  V.B = B;
  return V;
}

json::Value
numObj(const std::vector<std::pair<std::string, double>> &Pairs) {
  json::Value O;
  O.K = json::Value::Kind::Object;
  for (const auto &[K, V] : Pairs)
    O.Obj.emplace_back(K, num(V));
  return O;
}

} // namespace

std::string benchjson::dumpReport(const Report &R) {
  json::Value Root;
  Root.K = json::Value::Kind::Object;
  Root.Obj.emplace_back("format", str(FormatName));
  Root.Obj.emplace_back("version", num(double(FormatVersion)));
  Root.Obj.emplace_back("bench", str(R.Bench));
  Root.Obj.emplace_back("context", numObj(R.Context));
  json::Value Rows;
  Rows.K = json::Value::Kind::Array;
  for (const Row &W : R.Rows) {
    json::Value JR;
    JR.K = json::Value::Kind::Object;
    JR.Obj.emplace_back("workload", str(W.Workload));
    JR.Obj.emplace_back("config", str(W.Config));
    JR.Obj.emplace_back("timeout", boolean(W.Timeout));
    JR.Obj.emplace_back("metrics", numObj(W.Metrics));
    Rows.Arr.push_back(std::move(JR));
  }
  Root.Obj.emplace_back("rows", std::move(Rows));
  return json::dump(Root) + "\n";
}

//===----------------------------------------------------------------------===//
// Parsing + schema validation
//===----------------------------------------------------------------------===//

namespace {

bool failParse(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
  return false;
}

/// Reads an all-numeric object (context/metrics) into \p Out, rejecting
/// non-finite or negative values.
bool readNumObj(const json::Value &V, const char *What,
                std::vector<std::pair<std::string, double>> &Out,
                std::string *Err) {
  if (!V.isObject())
    return failParse(Err, std::string(What) + " is not an object");
  std::set<std::string> Seen;
  for (const auto &[K, E] : V.Obj) {
    if (!E.isNumber())
      return failParse(Err, std::string(What) + "." + K + " is not a number");
    if (!std::isfinite(E.Num) || E.Num < 0)
      return failParse(Err, std::string(What) + "." + K +
                                " is negative or non-finite");
    if (!Seen.insert(K).second)
      return failParse(Err, std::string(What) + " has duplicate key '" + K +
                                "'");
    Out.emplace_back(K, E.Num);
  }
  return true;
}

} // namespace

bool benchjson::parseReport(std::string_view Text, Report &R,
                            std::string *Err) {
  json::Value Root;
  try {
    Root = json::parse(Text);
  } catch (const std::runtime_error &E) {
    return failParse(Err, E.what());
  }
  if (!Root.isObject())
    return failParse(Err, "top level is not an object");

  const json::Value *Format = Root.find("format");
  if (!Format || !Format->isString() || Format->Str != FormatName)
    return failParse(Err, "missing or wrong \"format\" (want \"" +
                              std::string(FormatName) + "\")");
  const json::Value *Version = Root.find("version");
  if (!Version || !Version->isNumber() ||
      Version->asU64() != FormatVersion || Version->Num != FormatVersion)
    return failParse(Err, "missing or unsupported \"version\" (want " +
                              std::to_string(FormatVersion) + ")");
  const json::Value *Bench = Root.find("bench");
  if (!Bench || !Bench->isString() || Bench->Str.empty())
    return failParse(Err, "missing or empty \"bench\" name");

  Report Out;
  Out.Bench = Bench->Str;
  if (const json::Value *Ctx = Root.find("context"))
    if (!readNumObj(*Ctx, "context", Out.Context, Err))
      return false;

  const json::Value *Rows = Root.find("rows");
  if (!Rows || !Rows->isArray() || Rows->Arr.empty())
    return failParse(Err, "missing or empty \"rows\" array");

  std::set<std::string> Keys;
  for (size_t I = 0; I != Rows->Arr.size(); ++I) {
    const json::Value &JR = Rows->Arr[I];
    std::string Where = "rows[" + std::to_string(I) + "]";
    if (!JR.isObject())
      return failParse(Err, Where + " is not an object");
    const json::Value *Workload = JR.find("workload");
    const json::Value *Config = JR.find("config");
    const json::Value *Timeout = JR.find("timeout");
    const json::Value *Metrics = JR.find("metrics");
    if (!Workload || !Workload->isString() || Workload->Str.empty())
      return failParse(Err, Where + ": missing or empty \"workload\"");
    if (!Config || !Config->isString() || Config->Str.empty())
      return failParse(Err, Where + ": missing or empty \"config\"");
    if (!Timeout || !Timeout->isBool())
      return failParse(Err, Where + ": missing or non-bool \"timeout\"");
    if (!Metrics)
      return failParse(Err, Where + ": missing \"metrics\"");
    Row W;
    W.Workload = Workload->Str;
    W.Config = Config->Str;
    W.Timeout = Timeout->B;
    if (!readNumObj(*Metrics, (Where + ".metrics").c_str(), W.Metrics, Err))
      return false;
    if (W.Metrics.empty())
      return failParse(Err, Where + ".metrics is empty");
    if (!Keys.insert(W.key()).second)
      return failParse(Err, Where + ": duplicate row key '" + W.key() + "'");
    Out.Rows.push_back(std::move(W));
  }
  R = std::move(Out);
  return true;
}

bool benchjson::writeReport(const Report &R, const std::string &Path,
                            std::string *Err) {
  try {
    writeFileAtomic(Path, dumpReport(R), "obs.bench");
  } catch (const std::runtime_error &E) {
    return failParse(Err, E.what());
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Diffing
//===----------------------------------------------------------------------===//

namespace {

bool isTimeMetric(std::string_view Name) {
  if (Name == "seconds")
    return true;
  return Name.size() > 8 &&
         Name.substr(Name.size() - 8) == "_seconds";
}

bool wantMetric(std::string_view Name, DiffOptions::Filter F) {
  switch (F) {
  case DiffOptions::Filter::All:
    return true;
  case DiffOptions::Filter::TimeOnly:
    return isTimeMetric(Name);
  case DiffOptions::Filter::StepsOnly:
    return Name == "steps";
  }
  return true;
}

} // namespace

DiffResult benchjson::diffReports(const Report &Base, const Report &New,
                                  const DiffOptions &O) {
  DiffResult D;
  D.BenchNameMismatch = Base.Bench != New.Bench;
  for (const Row &B : Base.Rows) {
    const Row *N = New.findRow(B.key());
    if (!N) {
      D.OnlyBaseline.push_back(B.key());
      continue;
    }
    if (B.Timeout != N->Timeout) {
      (N->Timeout ? D.NewTimeouts : D.FixedTimeouts).push_back(B.key());
      continue; // Budget-truncated metrics are not comparable.
    }
    if (B.Timeout)
      continue; // Both truncated by the budget: nothing comparable.
    for (const auto &[Name, OldV] : B.Metrics) {
      if (!wantMetric(Name, O.Metric))
        continue;
      const double *NewV = N->find(Name);
      if (!NewV)
        continue; // Metric sets may evolve; only common ones compare.
      DiffEntry E;
      E.RowKey = B.key();
      E.Name = Name;
      E.Old = OldV;
      E.New = *NewV;
      double Floor = isTimeMetric(Name) ? O.MinSeconds : O.MinCount;
      double Delta = E.New - E.Old;
      if (Delta > OldV * O.Threshold && Delta > Floor)
        E.V = DiffEntry::Verdict::Regressed;
      else if (-Delta > OldV * O.Threshold && -Delta > Floor)
        E.V = DiffEntry::Verdict::Improved;
      D.Entries.push_back(std::move(E));
    }
  }
  for (const Row &N : New.Rows)
    if (!Base.findRow(N.key()))
      D.OnlyNew.push_back(N.key());
  return D;
}

namespace {

/// One metric value in the diff table. Integral values (steps and work
/// counts) print exactly, so a change of one step on a million-step row
/// stays visible; fractional values (seconds, MiB) print as %g.
std::string diffValue(double V) {
  char Buf[32];
  if (std::nearbyint(V) == V && std::fabs(V) < 9007199254740992.0) // 2^53
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%g", V);
  return Buf;
}

} // namespace

std::string benchjson::formatDiff(const DiffResult &D,
                                  const DiffOptions &O) {
  std::string Out;
  char Buf[256];
  unsigned Regressed = 0, Improved = 0, Within = 0;
  for (const DiffEntry &E : D.Entries) {
    const char *Tag = "  within";
    if (E.V == DiffEntry::Verdict::Regressed) {
      Tag = "REGRESSED";
      ++Regressed;
    } else if (E.V == DiffEntry::Verdict::Improved) {
      Tag = "improved";
      ++Improved;
    } else {
      ++Within;
    }
    double Ratio = E.Old > 0 ? E.New / E.Old : (E.New > 0 ? HUGE_VAL : 1.0);
    std::snprintf(Buf, sizeof(Buf),
                  "%-9s %-28s %-12s %14s -> %-14s (%.2fx)\n", Tag,
                  E.RowKey.c_str(), E.Name.c_str(), diffValue(E.Old).c_str(),
                  diffValue(E.New).c_str(), Ratio);
    Out += Buf;
  }
  for (const std::string &K : D.NewTimeouts)
    Out += "REGRESSED " + K + " completed in baseline, times out now\n";
  for (const std::string &K : D.FixedTimeouts)
    Out += "improved  " + K + " timed out in baseline, completes now\n";
  bool MissingFail = D.hasMissingRows() && !O.AllowMissingRows;
  for (const std::string &K : D.OnlyBaseline)
    Out += (MissingFail ? "MISSING   " : "note      ") + K +
           " only in baseline\n";
  for (const std::string &K : D.OnlyNew)
    Out += "note      " + K + " only in new result\n";
  if (D.BenchNameMismatch)
    Out += "note      bench names differ\n";
  const char *Tail = D.hasRegression() ? "REGRESSION"
                     : MissingFail     ? "MISSING ROWS"
                                       : "OK";
  std::snprintf(Buf, sizeof(Buf),
                "swift-benchdiff: %s — %u regressed, %u improved, %u "
                "within %.0f%% noise, %zu timeout flip(s), %zu missing "
                "row(s)\n",
                Tail, Regressed, Improved, Within, O.Threshold * 100,
                D.NewTimeouts.size() + D.FixedTimeouts.size(),
                D.OnlyBaseline.size());
  Out += Buf;
  return Out;
}

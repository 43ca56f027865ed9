//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include "support/CliParse.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unistd.h>

using namespace swift;

namespace {

enum class Trigger { Nth, EveryNth, Prob };
enum class Action { Fail, Kill };

struct FailPoint {
  Trigger Trig = Trigger::Nth;
  uint64_t N = 1;      ///< nth / every parameter.
  double P = 0.0;      ///< prob parameter.
  Rng ProbRng{0};      ///< prob: seeded per-failpoint stream.
  Action Act = Action::Fail;
  uint64_t Hits = 0;
  uint64_t Fires = 0;
};

/// Registry guard. The fast path never takes it; arming and armed-site
/// evaluation (rare by construction — faults, not steady state) do.
std::mutex RegistryMutex;

std::map<std::string, FailPoint> &registry() {
  static std::map<std::string, FailPoint> R;
  return R;
}

[[noreturn]] void badSpec(std::string_view Spec, const std::string &Why) {
  throw std::runtime_error("malformed failpoint spec '" +
                           std::string(Spec) + "': " + Why);
}

/// Parses the parenthesized argument list of a trigger: "name(args" was
/// already split; returns the text between '(' and the closing ')'.
std::string_view parenArgs(std::string_view T, std::string_view Spec) {
  size_t Open = T.find('(');
  if (Open == std::string_view::npos || T.back() != ')')
    badSpec(Spec, "expected '" + std::string(T.substr(0, Open)) + "(...)'");
  return T.substr(Open + 1, T.size() - Open - 2);
}

uint64_t parseCount(std::string_view T, std::string_view Spec) {
  if (T.empty())
    badSpec(Spec, "empty count");
  uint64_t V;
  if (!cli::parseU64(T, V))
    badSpec(Spec, T.find_first_not_of("0123456789") == std::string_view::npos
                      ? "count out of range"
                      : "expected a number, got '" + std::string(T) + "'");
  if (V == 0)
    badSpec(Spec, "count must be positive");
  return V;
}

FailPoint parseEntry(std::string_view Entry, std::string_view Spec,
                     std::string &NameOut) {
  size_t Eq = Entry.find('=');
  if (Eq == std::string_view::npos || Eq == 0)
    badSpec(Spec, "expected 'name=trigger'");
  NameOut = std::string(Entry.substr(0, Eq));
  std::string_view T = Entry.substr(Eq + 1);

  FailPoint F;
  if (size_t Bang = T.rfind("!kill"); Bang != std::string_view::npos) {
    if (Bang + 5 != T.size())
      badSpec(Spec, "'!kill' must be the entry suffix");
    F.Act = Action::Kill;
    T = T.substr(0, Bang);
  }

  if (T == "always") {
    F.Trig = Trigger::EveryNth;
    F.N = 1;
  } else if (T.rfind("nth(", 0) == 0 || T.rfind("every(", 0) == 0) {
    F.Trig = T[0] == 'n' ? Trigger::Nth : Trigger::EveryNth;
    F.N = parseCount(parenArgs(T, Spec), Spec);
  } else if (T.rfind("prob(", 0) == 0) {
    std::string_view Args = parenArgs(T, Spec);
    size_t Comma = Args.find(',');
    if (Comma == std::string_view::npos)
      badSpec(Spec, "prob needs '(probability,seed)'");
    std::string PText(Args.substr(0, Comma));
    char *End = nullptr;
    F.P = std::strtod(PText.c_str(), &End);
    if (End != PText.c_str() + PText.size() || F.P < 0.0 || F.P > 1.0)
      badSpec(Spec, "probability must be a number in [0, 1]");
    F.Trig = Trigger::Prob;
    F.ProbRng = Rng(parseCount(Args.substr(Comma + 1), Spec));
  } else {
    badSpec(Spec, "unknown trigger '" + std::string(T) + "'");
  }
  return F;
}

} // namespace

std::atomic<bool> failpoint::detail::AnyArmed{false};

bool failpoint::detail::shouldFailSlow(const char *Name) {
  std::lock_guard<std::mutex> L(RegistryMutex);
  auto It = registry().find(Name);
  if (It == registry().end())
    return false;
  FailPoint &F = It->second;
  ++F.Hits;
  bool Fire = false;
  switch (F.Trig) {
  case Trigger::Nth:
    Fire = F.Hits == F.N;
    break;
  case Trigger::EveryNth:
    Fire = F.Hits % F.N == 0;
    break;
  case Trigger::Prob:
    Fire = F.ProbRng.unit() < F.P;
    break;
  }
  if (!Fire)
    return false;
  ++F.Fires;
  // An injected crash: no stream flush, no destructors, no atexit — the
  // process dies exactly as it would on a power cut or SIGKILL.
  if (F.Act == Action::Kill)
    ::_exit(KillExitCode);
  return true;
}

void failpoint::armSpec(std::string_view Spec) {
  // Parse every entry before touching the registry so a malformed spec
  // arms nothing.
  std::vector<std::pair<std::string, FailPoint>> Parsed;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Semi = Spec.find(';', Pos);
    if (Semi == std::string_view::npos)
      Semi = Spec.size();
    std::string_view Entry = Spec.substr(Pos, Semi - Pos);
    Pos = Semi + 1;
    if (Entry.empty())
      continue;
    std::string Name;
    FailPoint F = parseEntry(Entry, Spec, Name);
    for (const auto &[Seen, Ignored] : Parsed) {
      (void)Ignored;
      // Within one spec, last-wins would silently drop the earlier
      // trigger; a duplicate is always a harness bug, so reject it.
      if (Seen == Name)
        badSpec(Spec, "duplicate failpoint '" + Name + "'");
    }
    Parsed.emplace_back(std::move(Name), std::move(F));
  }
  if (Parsed.empty())
    return;
  std::lock_guard<std::mutex> L(RegistryMutex);
  for (auto &[Name, F] : Parsed)
    registry()[Name] = std::move(F);
  detail::AnyArmed.store(true, std::memory_order_relaxed);
}

bool failpoint::armFromEnv() {
  const char *Env = std::getenv("SWIFT_FAILPOINTS");
  if (!Env || !*Env)
    return false;
  armSpec(Env);
  return true;
}

void failpoint::disarmAll() {
  std::lock_guard<std::mutex> L(RegistryMutex);
  registry().clear();
  detail::AnyArmed.store(false, std::memory_order_relaxed);
}

uint64_t failpoint::hits(const std::string &Name) {
  std::lock_guard<std::mutex> L(RegistryMutex);
  auto It = registry().find(Name);
  return It == registry().end() ? 0 : It->second.Hits;
}

uint64_t failpoint::fires(const std::string &Name) {
  std::lock_guard<std::mutex> L(RegistryMutex);
  auto It = registry().find(Name);
  return It == registry().end() ? 0 : It->second.Fires;
}

std::vector<std::string> failpoint::armedNames() {
  std::lock_guard<std::mutex> L(RegistryMutex);
  std::vector<std::string> Names;
  for (const auto &[Name, F] : registry()) {
    (void)F;
    Names.push_back(Name);
  }
  return Names;
}

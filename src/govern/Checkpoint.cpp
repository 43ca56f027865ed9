//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "govern/Checkpoint.h"

#include "framework/Tabulation.h"
#include "ir/Dumper.h"
#include "ir/Program.h"
#include "support/AtomicFile.h"
#include "support/CliParse.h"
#include "support/Frame.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

using namespace swift;

namespace {

[[noreturn]] void fail(size_t Line, const std::string &Msg) {
  throw std::runtime_error("swift-ckpt line " + std::to_string(Line) + ": " +
                           Msg);
}

std::string pathStr(const AccessPath &P, const SymbolTable &Syms) {
  return P.str(Syms);
}

void printState(std::ostream &OS, const TsAbstractState &S,
                const Program &Prog, const TypestateSpec &Spec) {
  if (S.isLambda()) {
    OS << "s L\n";
    return;
  }
  const SymbolTable &Syms = Prog.symbols();
  OS << "s " << S.site() << ' ' << Syms.text(Spec.stateName(S.tstate()))
     << ' ' << S.must().size();
  for (const AccessPath &P : S.must())
    OS << ' ' << pathStr(P, Syms);
  OS << ' ' << S.mustNot().size();
  for (const AccessPath &P : S.mustNot())
    OS << ' ' << pathStr(P, Syms);
  OS << '\n';
}

/// Splits one line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Toks;
  std::istringstream IS(Line);
  std::string T;
  while (IS >> T)
    Toks.push_back(T);
  return Toks;
}

uint64_t parseU64(const std::string &T, size_t Line) {
  uint64_t V = 0;
  if (!cli::parseU64(T, V))
    fail(Line, "expected a number, got '" + T + "'");
  return V;
}

AccessPath parsePath(const std::string &T, Program &Prog, size_t Line) {
  // v, v.f, or v.f.g — dotted identifiers.
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Dot = T.find('.', Start);
    Parts.push_back(T.substr(Start, Dot - Start));
    if (Dot == std::string::npos)
      break;
    Start = Dot + 1;
  }
  if (Parts.empty() || Parts.size() > 3 || Parts[0].empty())
    fail(Line, "malformed access path '" + T + "'");
  SymbolTable &Syms = Prog.symbols();
  Symbol Base = Syms.intern(Parts[0]);
  if (Parts.size() == 1)
    return AccessPath(Base);
  if (Parts.size() == 2)
    return AccessPath(Base, Syms.intern(Parts[1]));
  return AccessPath(Base, Syms.intern(Parts[1]), Syms.intern(Parts[2]));
}

/// Line-oriented reader over the checkpoint text.
struct Reader {
  std::string_view Text;
  size_t Pos = 0;
  size_t Line = 0;

  /// Next line, '#' comments and blank lines skipped.
  bool next(std::string &Out) {
    while (Pos < Text.size()) {
      size_t End = Text.find('\n', Pos);
      if (End == std::string_view::npos)
        End = Text.size();
      Out.assign(Text.substr(Pos, End - Pos));
      Pos = End + 1;
      ++Line;
      if (!Out.empty() && Out.back() == '\r')
        Out.pop_back();
      size_t First = Out.find_first_not_of(" \t");
      if (First == std::string::npos || Out[First] == '#')
        continue;
      return true;
    }
    return false;
  }

  /// Next raw line (no skipping) — used inside the verbatim program block.
  bool nextRaw(std::string &Out) {
    if (Pos >= Text.size())
      return false;
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    Out.assign(Text.substr(Pos, End - Pos));
    Pos = End + 1;
    ++Line;
    if (!Out.empty() && Out.back() == '\r')
      Out.pop_back();
    return true;
  }
};

ProcId procByName(Program &Prog, const std::string &Name, size_t Line) {
  ProcId P = Prog.procId(Prog.symbols().intern(Name));
  if (P == InvalidProc)
    fail(Line, "unknown procedure '" + Name + "'");
  return P;
}

TState stateByName(const TypestateSpec &Spec, const SymbolTable &Syms,
                   const std::string &Name, size_t Line) {
  for (size_t T = 0; T != Spec.numStates(); ++T)
    if (Syms.text(Spec.stateName(static_cast<TState>(T))) == Name)
      return static_cast<TState>(T);
  fail(Line, "unknown typestate '" + Name + "'");
}

/// Spec lookup by class name that works on a const Program (no interning).
const TypestateSpec *specByName(const Program &Prog,
                                const std::string &Class) {
  for (size_t I = 0; I != Prog.numSpecs(); ++I)
    if (Prog.symbols().text(Prog.spec(I).name()) == Class)
      return &Prog.spec(I);
  return nullptr;
}

} // namespace

std::string swift::checkpointToText(const Program &Prog,
                                    const TsCheckpoint &C) {
  const TypestateSpec *Spec = specByName(Prog, C.TrackedClass);
  if (!Spec)
    throw std::runtime_error("checkpointToText: no spec for class '" +
                             C.TrackedClass + "'");
  const SymbolTable &Syms = Prog.symbols();
  const TsTabSnapshot &S = C.Snapshot;
  std::ostringstream OS;
  OS << "swift-ckpt v1\n";
  OS << "tracked " << C.TrackedClass << '\n';
  OS << "config k ";
  if (C.Config.K == NoBuTrigger)
    OS << "td";
  else
    OS << C.Config.K;
  OS << " theta " << C.Config.Theta << " manifest "
     << (C.Config.ObservationManifest ? 1 : 0) << " async "
     << (C.Config.AsyncBu ? 1 : 0) << " threads " << C.Config.Threads
     << '\n';
  OS << "steps " << C.StepsConsumed << '\n';
  OS << "program begin\n";
  OS << programToText(Prog);
  OS << "program end\n";

  OS << "states " << S.States.size() << '\n';
  for (const TsAbstractState &St : S.States)
    printState(OS, St, Prog, *Spec);

  OS << "edges " << S.Edges.size() << '\n';
  for (const auto &E : S.Edges)
    OS << "e " << Syms.text(Prog.proc(E.Proc).name()) << ' ' << E.Node
       << ' ' << E.Entry << ' ' << E.Cur << '\n';

  OS << "work " << S.Work.size() << '\n';
  for (const auto &W : S.Work)
    OS << "w " << Syms.text(Prog.proc(W.Proc).name()) << ' ' << W.Node
       << ' ' << W.Entry << ' ' << W.Cur << '\n';

  OS << "summaries " << S.Summaries.size() << '\n';
  for (const auto &Row : S.Summaries) {
    OS << "y " << Syms.text(Prog.proc(Row.Proc).name()) << ' ' << Row.Entry
       << ' ' << Row.Exits.size();
    for (uint32_t X : Row.Exits)
      OS << ' ' << X;
    OS << '\n';
  }

  OS << "deps " << S.Dependents.size() << '\n';
  for (const auto &D : S.Dependents)
    OS << "d " << Syms.text(Prog.proc(D.Callee).name()) << ' ' << D.Entry
       << ' ' << Syms.text(Prog.proc(D.CallerProc).name()) << ' '
       << D.CallNode << ' ' << D.CallerEntry << ' ' << D.Frame << '\n';

  OS << "incoming " << S.Incoming.size() << '\n';
  for (const auto &I : S.Incoming)
    OS << "i " << Syms.text(Prog.proc(I.Proc).name()) << ' ' << I.Entry
       << ' ' << I.Count << '\n';

  OS << "evercalled " << S.EverCalled.size() << '\n';
  for (size_t P = 0; P != S.EverCalled.size(); ++P)
    OS << "c " << Syms.text(Prog.proc(static_cast<ProcId>(P)).name()) << ' '
       << (S.EverCalled[P] ? 1 : 0) << '\n';

  OS << "observed " << S.Observed.size() << '\n';
  for (const auto &O : S.Observed)
    OS << "o " << Syms.text(Prog.proc(O.Proc).name()) << ' ' << O.Node
       << ' ' << O.StateId << '\n';

  return OS.str();
}

ParsedCheckpoint swift::parseCheckpointText(std::string_view Text) {
  Reader R{Text};
  std::string L;

  if (!R.next(L) || L != "swift-ckpt v1")
    fail(R.Line, "expected 'swift-ckpt v1' header");

  ParsedCheckpoint PC;
  TsCheckpoint &C = PC.Checkpoint;

  if (!R.next(L))
    fail(R.Line, "unexpected end of file");
  {
    std::vector<std::string> T = tokenize(L);
    if (T.size() != 2 || T[0] != "tracked")
      fail(R.Line, "expected 'tracked <class>'");
    C.TrackedClass = T[1];
  }

  if (!R.next(L))
    fail(R.Line, "unexpected end of file");
  {
    std::vector<std::string> T = tokenize(L);
    if (T.size() != 11 || T[0] != "config" || T[1] != "k" ||
        T[3] != "theta" || T[5] != "manifest" || T[7] != "async" ||
        T[9] != "threads")
      fail(R.Line, "malformed config line");
    C.Config.K = T[2] == "td" ? NoBuTrigger : parseU64(T[2], R.Line);
    C.Config.Theta = parseU64(T[4], R.Line);
    C.Config.ObservationManifest = parseU64(T[6], R.Line) != 0;
    C.Config.AsyncBu = parseU64(T[8], R.Line) != 0;
    C.Config.Threads =
        static_cast<unsigned>(parseU64(T[10], R.Line));
  }

  if (!R.next(L))
    fail(R.Line, "unexpected end of file");
  {
    std::vector<std::string> T = tokenize(L);
    if (T.size() != 2 || T[0] != "steps")
      fail(R.Line, "expected 'steps <n>'");
    C.StepsConsumed = parseU64(T[1], R.Line);
  }

  if (!R.next(L) || L != "program begin")
    fail(R.Line, "expected 'program begin'");
  std::string ProgText;
  for (;;) {
    if (!R.nextRaw(L))
      fail(R.Line, "unterminated program block");
    if (L == "program end")
      break;
    ProgText += L;
    ProgText += '\n';
  }
  PC.Prog = parseProgramText(ProgText);
  Program &Prog = *PC.Prog;
  const TypestateSpec *Spec =
      Prog.specFor(Prog.symbols().intern(C.TrackedClass));
  if (!Spec)
    fail(R.Line, "program has no spec for tracked class '" +
                     C.TrackedClass + "'");

  auto expectSection = [&](const char *Name) -> uint64_t {
    if (!R.next(L))
      fail(R.Line, std::string("expected '") + Name + " <n>'");
    std::vector<std::string> T = tokenize(L);
    if (T.size() != 2 || T[0] != Name)
      fail(R.Line, std::string("expected '") + Name + " <n>', got '" + L +
                       "'");
    uint64_t N = parseU64(T[1], R.Line);
    // Sanity limit before any reserve: every row costs at least two
    // bytes of input, so a count beyond half the remaining text is a
    // mutation — fail fast instead of allocating for it.
    size_t Remaining = Text.size() - std::min(R.Pos, Text.size());
    if (N > Remaining / 2 + 1)
      fail(R.Line, std::string(Name) + " count " + T[1] +
                       " exceeds the remaining input size");
    return N;
  };
  auto row = [&](const char *Tag, size_t MinToks) -> std::vector<std::string> {
    if (!R.next(L))
      fail(R.Line, std::string("unexpected end of '") + Tag + "' row");
    std::vector<std::string> T = tokenize(L);
    if (T.size() < MinToks || T[0] != Tag)
      fail(R.Line, std::string("malformed '") + Tag + "' row: '" + L + "'");
    return T;
  };

  TsTabSnapshot &S = C.Snapshot;
  S.StepsConsumed = C.StepsConsumed;

  uint64_t N = expectSection("states");
  S.States.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string> T = row("s", 2);
    if (T[1] == "L") {
      if (T.size() != 2)
        fail(R.Line, "trailing tokens on Lambda state");
      S.States.push_back(TsAbstractState::lambda());
      continue;
    }
    if (T.size() < 4)
      fail(R.Line, "truncated state row");
    uint64_t Site = parseU64(T[1], R.Line);
    if (Site >= Prog.numSites())
      fail(R.Line, "allocation site out of range");
    TState TS = stateByName(*Spec, Prog.symbols(), T[2], R.Line);
    size_t Idx = 3;
    auto readPaths = [&]() -> ApSet {
      if (Idx >= T.size())
        fail(R.Line, "truncated state row");
      uint64_t Count = parseU64(T[Idx++], R.Line);
      std::vector<AccessPath> Paths;
      for (uint64_t K = 0; K != Count; ++K) {
        if (Idx >= T.size())
          fail(R.Line, "truncated access-path list");
        Paths.push_back(parsePath(T[Idx++], Prog, R.Line));
      }
      return ApSet(std::move(Paths));
    };
    ApSet Must = readPaths();
    ApSet MustNot = readPaths();
    if (Idx != T.size())
      fail(R.Line, "trailing tokens on state row");
    for (const AccessPath &P : Must)
      if (MustNot.contains(P))
        fail(R.Line, "must and must-not sets overlap");
    S.States.push_back(TsAbstractState(static_cast<SiteId>(Site), TS,
                                       std::move(Must),
                                       std::move(MustNot)));
  }
  auto checkStateId = [&](uint64_t Id) -> uint32_t {
    if (Id >= S.States.size())
      fail(R.Line, "state id out of range");
    return static_cast<uint32_t>(Id);
  };
  auto checkNode = [&](ProcId P, uint64_t Node) -> NodeId {
    if (Node >= Prog.proc(P).numNodes())
      fail(R.Line, "node id out of range");
    return static_cast<NodeId>(Node);
  };

  N = expectSection("edges");
  S.Edges.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string> T = row("e", 5);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.Edges.push_back({P, checkNode(P, parseU64(T[2], R.Line)),
                       checkStateId(parseU64(T[3], R.Line)),
                       checkStateId(parseU64(T[4], R.Line))});
  }

  N = expectSection("work");
  S.Work.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string> T = row("w", 5);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.Work.push_back({P, checkNode(P, parseU64(T[2], R.Line)),
                      checkStateId(parseU64(T[3], R.Line)),
                      checkStateId(parseU64(T[4], R.Line))});
  }

  N = expectSection("summaries");
  S.Summaries.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string> T = row("y", 4);
    TsTabSnapshot::SummaryRow Row;
    Row.Proc = procByName(Prog, T[1], R.Line);
    Row.Entry = checkStateId(parseU64(T[2], R.Line));
    uint64_t NumExits = parseU64(T[3], R.Line);
    // Bound before the arithmetic below: a near-2^64 count would wrap
    // 4 + NumExits and walk T out of bounds.
    if (NumExits > T.size() || T.size() != 4 + NumExits)
      fail(R.Line, "summary exit count mismatch");
    for (uint64_t K = 0; K != NumExits; ++K)
      Row.Exits.push_back(checkStateId(parseU64(T[4 + K], R.Line)));
    S.Summaries.push_back(std::move(Row));
  }

  N = expectSection("deps");
  S.Dependents.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string> T = row("d", 7);
    TsTabSnapshot::DependentRow D;
    D.Callee = procByName(Prog, T[1], R.Line);
    D.Entry = checkStateId(parseU64(T[2], R.Line));
    D.CallerProc = procByName(Prog, T[3], R.Line);
    D.CallNode = checkNode(D.CallerProc, parseU64(T[4], R.Line));
    D.CallerEntry = checkStateId(parseU64(T[5], R.Line));
    D.Frame = checkStateId(parseU64(T[6], R.Line));
    S.Dependents.push_back(D);
  }

  N = expectSection("incoming");
  S.Incoming.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string> T = row("i", 4);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.Incoming.push_back(
        {P, checkStateId(parseU64(T[2], R.Line)), parseU64(T[3], R.Line)});
  }

  N = expectSection("evercalled");
  S.EverCalled.assign(Prog.numProcs(), 0);
  if (N != Prog.numProcs())
    fail(R.Line, "evercalled count does not match procedure count");
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string> T = row("c", 3);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.EverCalled[P] = parseU64(T[2], R.Line) != 0 ? 1 : 0;
  }

  N = expectSection("observed");
  S.Observed.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::vector<std::string> T = row("o", 4);
    ProcId P = procByName(Prog, T[1], R.Line);
    S.Observed.push_back({P, checkNode(P, parseU64(T[2], R.Line)),
                          checkStateId(parseU64(T[3], R.Line))});
  }

  if (R.next(L))
    fail(R.Line, "trailing content after checkpoint: '" + L + "'");
  return PC;
}

//===----------------------------------------------------------------------===//
// v2 file framing: length header + CRC32 trailer around the v1 payload
//===----------------------------------------------------------------------===//

const char *swift::loadErrorKindName(LoadErrorKind K) {
  switch (K) {
  case LoadErrorKind::IoError:
    return "io-error";
  case LoadErrorKind::Truncated:
    return "truncated";
  case LoadErrorKind::Corrupt:
    return "corrupt";
  case LoadErrorKind::VersionMismatch:
    return "version-mismatch";
  }
  return "?";
}

namespace {

constexpr std::string_view MagicV1 = "swift-ckpt v1";
constexpr std::string_view HeaderV2 = "swift-ckpt v2 ";

[[noreturn]] void loadFail(LoadErrorKind K, const std::string &Msg) {
  throw CheckpointLoadError(K, "swift-ckpt: " + Msg + " [" +
                                   loadErrorKindName(K) + "]");
}

} // namespace

std::string swift::frameCheckpointV2(std::string_view Payload) {
  return frame(HeaderV2, Payload);
}

ParsedCheckpoint swift::parseCheckpointFile(std::string_view Text) {
  if (Text.empty())
    loadFail(LoadErrorKind::Truncated, "empty checkpoint file");

  // Legacy bare v1: the whole file is the payload, no framing to check.
  if (Text.substr(0, MagicV1.size()) == MagicV1) {
    try {
      return parseCheckpointText(Text);
    } catch (const std::exception &E) {
      loadFail(LoadErrorKind::Corrupt,
               std::string("invalid v1 checkpoint: ") + E.what());
    }
  }

  if (Text.substr(0, HeaderV2.size()) == HeaderV2) {
    Unframed U = unframe(HeaderV2, Text);
    if (U.Status != FrameStatus::Ok)
      loadFail(U.Status == FrameStatus::Truncated ? LoadErrorKind::Truncated
                                                  : LoadErrorKind::Corrupt,
               U.Reason);
    try {
      return parseCheckpointText(U.Payload);
    } catch (const std::exception &E) {
      // The frame validated but the payload does not parse: a producer
      // bug or a collision-rate event, not a torn file.
      loadFail(LoadErrorKind::Corrupt,
               std::string("invalid v2 payload: ") + E.what());
    }
  }

  if (Text.substr(0, 10) == "swift-ckpt") {
    size_t Eol = std::min(Text.find('\n'), Text.size());
    loadFail(LoadErrorKind::VersionMismatch,
             "unsupported checkpoint version '" +
                 std::string(Text.substr(0, std::min<size_t>(Eol, 32))) +
                 "' (this build reads v1 and v2)");
  }
  loadFail(LoadErrorKind::Corrupt, "not a swift-ckpt file");
}

void swift::saveCheckpointFile(const std::string &Path, const Program &Prog,
                               const TsCheckpoint &C) {
  writeFileAtomic(Path, frameCheckpointV2(checkpointToText(Prog, C)),
                  "ckpt.save");
}

ParsedCheckpoint swift::loadCheckpointFile(const std::string &Path) {
  std::string Bytes;
  try {
    Bytes = readWholeFile(Path, "ckpt.load");
  } catch (const std::exception &E) {
    throw CheckpointLoadError(LoadErrorKind::IoError,
                              std::string("swift-ckpt: ") + E.what() +
                                  " [io-error]");
  }
  return parseCheckpointFile(Bytes);
}

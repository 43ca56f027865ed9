//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Summary text codec and framed store files (see Store.h). The codec is a
/// whitespace-separated token stream: every count-prefixed sequence makes
/// the grammar self-delimiting, and symbolic entities travel as names so
/// the parse side can intern them into *any* program — that one property
/// is both the warm-start path and the cross-edit summary translator.
///
//===----------------------------------------------------------------------===//

#include "serve/Store.h"

#include "ir/Dumper.h"
#include "support/AtomicFile.h"
#include "support/Frame.h"
#include "support/Hashing.h"

#include <algorithm>

using namespace swift;
using namespace swift::serve;

//===----------------------------------------------------------------------===//
// Token writer / reader
//===----------------------------------------------------------------------===//

namespace {

[[noreturn]] void fail(const std::string &Msg) {
  throw StoreError("swift-serve-store: " + Msg);
}

class TokenWriter {
public:
  void tok(std::string_view T) {
    if (!Out.empty() && Out.back() != '\n')
      Out += ' ';
    Out.append(T);
  }
  void num(uint64_t N) { tok(std::to_string(N)); }
  void nl() {
    if (Out.empty() || Out.back() != '\n')
      Out += '\n';
  }
  std::string take() {
    nl();
    return std::move(Out);
  }

private:
  std::string Out;
};

class TokenReader {
public:
  explicit TokenReader(std::string_view Text) : T(Text) {}

  bool atEnd() {
    skipWs();
    return Pos == T.size();
  }

  std::string_view tok() {
    skipWs();
    if (Pos == T.size())
      fail("unexpected end of summary text");
    size_t Start = Pos;
    while (Pos < T.size() && !isWs(T[Pos]))
      ++Pos;
    return T.substr(Start, Pos - Start);
  }

  /// Consumes a token and demands it equals \p Want (a grammar keyword).
  void expect(std::string_view Want) {
    std::string_view Got = tok();
    if (Got != Want)
      fail("expected '" + std::string(Want) + "', got '" + std::string(Got) +
           "'");
  }

  uint64_t num() {
    std::string_view V = tok();
    uint64_t N = 0;
    if (V.empty())
      fail("empty number");
    for (char C : V) {
      if (C < '0' || C > '9')
        fail("malformed number '" + std::string(V) + "'");
      if (N > UINT64_MAX / 10)
        fail("number out of range '" + std::string(V) + "'");
      N = N * 10 + static_cast<uint64_t>(C - '0');
    }
    return N;
  }

  bool flag() {
    uint64_t N = num();
    if (N > 1)
      fail("expected 0 or 1, got " + std::to_string(N));
    return N != 0;
  }

private:
  static bool isWs(char C) {
    return C == ' ' || C == '\n' || C == '\t' || C == '\r';
  }
  void skipWs() {
    while (Pos < T.size() && isWs(T[Pos]))
      ++Pos;
  }

  std::string_view T;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Encoders (names, never Symbol ids)
//===----------------------------------------------------------------------===//

void writePath(TokenWriter &W, const SymbolTable &Syms, const AccessPath &P) {
  std::string T = Syms.text(P.base());
  if (P.field1().isValid())
    T += "." + Syms.text(P.field1());
  if (P.field2().isValid())
    T += "." + Syms.text(P.field2());
  W.tok(T);
}

void writeApSet(TokenWriter &W, const SymbolTable &Syms, const ApSet &S) {
  W.num(S.size());
  for (const AccessPath &P : S)
    writePath(W, Syms, P);
}

void writeKill(TokenWriter &W, const SymbolTable &Syms, const KillSpec &K) {
  W.tok("kb");
  W.num(K.bases().size());
  for (Symbol B : K.bases())
    W.tok(Syms.text(B));
  W.tok("kd");
  W.num(K.defaultFields().size());
  for (Symbol F : K.defaultFields())
    W.tok(Syms.text(F));
  W.tok("kbb");
  W.num(K.byBase().size());
  for (const auto &[Base, Fields] : K.byBase()) {
    W.tok(Syms.text(Base));
    W.num(Fields.size());
    for (Symbol F : Fields)
      W.tok(Syms.text(F));
  }
}

void writePred(TokenWriter &W, const Program &Prog, const TsPred &P) {
  const SymbolTable &Syms = Prog.symbols();
  W.tok("ap");
  W.num(P.apConstraints().size());
  for (const TsPred::ApConstraint &C : P.apConstraints()) {
    writePath(W, Syms, C.Path);
    W.num(static_cast<uint64_t>(C.InMust));
    W.num(static_cast<uint64_t>(C.InNot));
  }
  W.tok("may");
  W.num(P.mayConstraints().size());
  for (const TsPred::MayConstraint &C : P.mayConstraints()) {
    W.tok(Syms.text(Prog.proc(C.Proc).name()));
    W.tok(Syms.text(C.Var));
    W.num(C.Want ? 1 : 0);
  }
}

void writeState(TokenWriter &W, const SymbolTable &Syms,
                const TsAbstractState &S) {
  if (S.isLambda())
    fail("cannot serialize a Lambda alloc output");
  W.num(S.site());
  W.num(S.tstate());
  writeApSet(W, Syms, S.must());
  writeApSet(W, Syms, S.mustNot());
}

void writeRel(TokenWriter &W, const Program &Prog, const TsRelation &R) {
  const SymbolTable &Syms = Prog.symbols();
  if (R.isAlloc()) {
    W.tok("A");
    writeState(W, Syms, R.out());
    return;
  }
  W.tok("T");
  W.tok("iota");
  W.num(R.iota().size());
  for (TState T : R.iota())
    W.num(T);
  W.tok("killa");
  writeKill(W, Syms, R.killA());
  W.tok("gena");
  writeApSet(W, Syms, R.genA());
  W.tok("killn");
  writeKill(W, Syms, R.killN());
  W.tok("genn");
  writeApSet(W, Syms, R.genN());
  W.tok("phi");
  writePred(W, Prog, R.phi());
}

void writeIgnore(TokenWriter &W, const Program &Prog, const char *Key,
                 const TsIgnoreSet &S) {
  W.tok(Key);
  W.num(S.containsLambda() ? 1 : 0);
  W.num(S.disjuncts().size());
  for (const TsPred &P : S.disjuncts())
    writePred(W, Prog, P);
}

//===----------------------------------------------------------------------===//
// Decoders (interning into the target program)
//===----------------------------------------------------------------------===//

AccessPath readPath(TokenReader &R, Program &Prog) {
  std::string_view T = R.tok();
  size_t D1 = T.find('.');
  SymbolTable &Syms = Prog.symbols();
  if (D1 == std::string_view::npos)
    return AccessPath(Syms.intern(T));
  size_t D2 = T.find('.', D1 + 1);
  if (D1 == 0 || D1 + 1 == T.size())
    fail("malformed access path '" + std::string(T) + "'");
  Symbol Base = Syms.intern(T.substr(0, D1));
  if (D2 == std::string_view::npos)
    return AccessPath(Base, Syms.intern(T.substr(D1 + 1)));
  if (D2 + 1 == T.size() || T.find('.', D2 + 1) != std::string_view::npos)
    fail("malformed access path '" + std::string(T) + "'");
  return AccessPath(Base, Syms.intern(T.substr(D1 + 1, D2 - D1 - 1)),
                    Syms.intern(T.substr(D2 + 1)));
}

ApSet readApSet(TokenReader &R, Program &Prog) {
  uint64_t N = R.num();
  std::vector<AccessPath> Paths;
  Paths.reserve(N);
  for (uint64_t I = 0; I != N; ++I)
    Paths.push_back(readPath(R, Prog));
  return ApSet(std::move(Paths));
}

KillSpec readKill(TokenReader &R, Program &Prog) {
  SymbolTable &Syms = Prog.symbols();
  R.expect("kb");
  uint64_t NB = R.num();
  std::vector<Symbol> Bases;
  for (uint64_t I = 0; I != NB; ++I)
    Bases.push_back(Syms.intern(R.tok()));
  R.expect("kd");
  uint64_t ND = R.num();
  std::vector<Symbol> Defaults;
  for (uint64_t I = 0; I != ND; ++I)
    Defaults.push_back(Syms.intern(R.tok()));
  R.expect("kbb");
  uint64_t NBB = R.num();
  std::vector<std::pair<Symbol, std::vector<Symbol>>> ByBase;
  for (uint64_t I = 0; I != NBB; ++I) {
    Symbol Base = Syms.intern(R.tok());
    uint64_t NF = R.num();
    std::vector<Symbol> Fields;
    for (uint64_t J = 0; J != NF; ++J)
      Fields.push_back(Syms.intern(R.tok()));
    ByBase.emplace_back(Base, std::move(Fields));
  }
  // Replay order matters: defaults first (ByBase is still empty, so
  // addFieldEverywhere touches only Default), then the per-base overrides
  // with their exact stored field sets, then whole-base kills (the stored
  // spec never has a ByBase entry for a killed base, so nothing is lost).
  KillSpec K;
  for (Symbol F : Defaults)
    K.addFieldEverywhere(F);
  for (auto &[Base, Fields] : ByBase)
    K.setBaseFields(Base, std::move(Fields));
  for (Symbol B : Bases)
    K.addBase(B);
  return K;
}

TsPred readPred(TokenReader &R, Program &Prog) {
  TsPred P;
  R.expect("ap");
  uint64_t NA = R.num();
  for (uint64_t I = 0; I != NA; ++I) {
    AccessPath Path = readPath(R, Prog);
    uint64_t InMust = R.num(), InNot = R.num();
    if (InMust > 2 || InNot > 2)
      fail("three-valued constraint out of range");
    // Stored predicates are satisfiable by construction, so a failing
    // replay means the text was corrupted, not that the edit is bad.
    if (InMust != 0 &&
        !P.requireMust(Path, InMust == uint64_t(ThreeVal::Yes)))
      fail("unsatisfiable replayed must constraint");
    if (InNot != 0 && !P.requireNot(Path, InNot == uint64_t(ThreeVal::Yes)))
      fail("unsatisfiable replayed must-not constraint");
  }
  R.expect("may");
  uint64_t NM = R.num();
  for (uint64_t I = 0; I != NM; ++I) {
    std::string_view ProcName = R.tok();
    ProcId Proc = Prog.procId(Prog.symbols().intern(ProcName));
    if (Proc == InvalidProc)
      fail("may-alias constraint names unknown procedure '" +
           std::string(ProcName) + "'");
    Symbol Var = Prog.symbols().intern(R.tok());
    bool Want = R.flag();
    if (!P.requireMay(Proc, Var, Want))
      fail("unsatisfiable replayed may-alias constraint");
  }
  return P;
}

TsAbstractState readState(TokenReader &R, Program &Prog) {
  uint64_t Site = R.num();
  if (Site >= Prog.numSites())
    fail("allocation site @" + std::to_string(Site) + " out of range");
  uint64_t T = R.num();
  ApSet Must = readApSet(R, Prog);
  ApSet MustNot = readApSet(R, Prog);
  for (const AccessPath &P : Must)
    if (MustNot.contains(P))
      fail("must and must-not sets overlap");
  return TsAbstractState(static_cast<SiteId>(Site), static_cast<TState>(T),
                         std::move(Must), std::move(MustNot));
}

TsRelation readRel(TokenReader &R, Program &Prog) {
  std::string_view Kind = R.tok();
  if (Kind == "A")
    return TsRelation::makeAlloc(readState(R, Prog));
  if (Kind != "T")
    fail("unknown relation kind '" + std::string(Kind) + "'");
  R.expect("iota");
  uint64_t NI = R.num();
  std::vector<TState> Iota;
  Iota.reserve(NI);
  for (uint64_t I = 0; I != NI; ++I)
    Iota.push_back(static_cast<TState>(R.num()));
  R.expect("killa");
  KillSpec KillA = readKill(R, Prog);
  R.expect("gena");
  ApSet GenA = readApSet(R, Prog);
  R.expect("killn");
  KillSpec KillN = readKill(R, Prog);
  R.expect("genn");
  ApSet GenN = readApSet(R, Prog);
  R.expect("phi");
  TsPred Phi = readPred(R, Prog);
  // makeTrans requires each generated path to be killed on the other
  // side; every stored relation satisfies this, a corrupted one may not.
  for (const AccessPath &P : GenA)
    if (!KillN.kills(P))
      fail("gena path not protected by killn");
  for (const AccessPath &P : GenN)
    if (!KillA.kills(P))
      fail("genn path not protected by killa");
  return TsRelation::makeTrans(std::move(Iota), std::move(KillA),
                               std::move(GenA), std::move(KillN),
                               std::move(GenN), std::move(Phi));
}

std::vector<TsRelation> readRels(TokenReader &R, Program &Prog,
                                 const char *Key) {
  R.expect(Key);
  uint64_t N = R.num();
  std::vector<TsRelation> Rels;
  Rels.reserve(N);
  for (uint64_t I = 0; I != N; ++I)
    Rels.push_back(readRel(R, Prog));
  // Relation order follows symbol ids, which shift across programs; the
  // solver's sorted-unique invariant must hold in the *target* program.
  std::sort(Rels.begin(), Rels.end());
  Rels.erase(std::unique(Rels.begin(), Rels.end()), Rels.end());
  return Rels;
}

TsIgnoreSet readIgnore(TokenReader &R, Program &Prog, const char *Key) {
  R.expect(Key);
  TsIgnoreSet S;
  if (R.flag())
    S.addLambda();
  uint64_t N = R.num();
  for (uint64_t I = 0; I != N; ++I)
    (void)S.addPred(readPred(R, Prog)); // In-order replay; see header.
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Summary codec entry points
//===----------------------------------------------------------------------===//

std::string serve::summaryToText(const Program &Prog, const TsSummary &S) {
  TokenWriter W;
  W.tok("rels");
  W.num(S.Rels.size());
  W.nl();
  for (const TsRelation &R : S.Rels) {
    writeRel(W, Prog, R);
    W.nl();
  }
  W.tok("obsrels");
  W.num(S.ObsRels.size());
  W.nl();
  for (const TsRelation &R : S.ObsRels) {
    writeRel(W, Prog, R);
    W.nl();
  }
  writeIgnore(W, Prog, "sigma", S.Sigma);
  W.nl();
  writeIgnore(W, Prog, "sigmaall", S.SigmaAll);
  W.nl();
  W.tok("lambdaexit");
  W.num(S.LambdaExit ? 1 : 0);
  return W.take();
}

TsSummary serve::parseSummaryText(Program &Prog, std::string_view Text) {
  TokenReader R(Text);
  TsSummary S;
  S.Rels = readRels(R, Prog, "rels");
  S.ObsRels = readRels(R, Prog, "obsrels");
  S.Sigma = readIgnore(R, Prog, "sigma");
  S.SigmaAll = readIgnore(R, Prog, "sigmaall");
  R.expect("lambdaexit");
  S.LambdaExit = R.flag();
  if (!R.atEnd())
    fail("trailing tokens after summary");
  return S;
}

//===----------------------------------------------------------------------===//
// Store files
//===----------------------------------------------------------------------===//

namespace {

constexpr std::string_view StoreHeader = "swift-serve-store v1 ";
constexpr std::string_view ProgramBegin = "program-begin";
constexpr std::string_view ProgramEnd = "program-end";

} // namespace

std::string serve::encodeStore(const Program &Prog,
                               const std::string &TrackedClass,
                               const std::vector<StoredProc> &Procs) {
  std::string Payload;
  Payload += "tracked " + TrackedClass + "\n";
  // The program travels verbatim inside the store: a warm start must
  // solve exactly the program the summaries were computed against, and
  // the dense-length framing keeps the embedded text unambiguous.
  std::string ProgText = programToText(Prog);
  Payload.append(ProgramBegin);
  Payload += ' ';
  Payload += std::to_string(ProgText.size());
  Payload += '\n';
  Payload += ProgText;
  Payload.append(ProgramEnd);
  Payload += '\n';
  Payload += "procs " + std::to_string(Procs.size()) + "\n";
  for (const StoredProc &P : Procs) {
    Payload += "proc " + P.Name + " hash " + hex16(P.BodyHash) + " fp " +
               hex16(P.OracleFp) + " valid " + (P.HasSummary ? "1" : "0") +
               " deps " + std::to_string(P.Deps.size());
    for (const std::string &D : P.Deps)
      Payload += " " + D;
    Payload += '\n';
    if (P.HasSummary) {
      std::string Sum = summaryToText(Prog, P.Sum);
      Payload += "summary " + std::to_string(Sum.size()) + "\n";
      Payload += Sum;
    }
  }
  return frame(StoreHeader, Payload);
}

ParsedStore serve::decodeStore(std::string_view Bytes) {
  Unframed U = unframe(StoreHeader, Bytes);
  if (U.Status != FrameStatus::Ok)
    fail(U.Reason);

  FrameCursor<StoreError> R(U.Payload, "swift-serve-store: ");
  std::vector<std::string_view> F = R.fields();
  if (F.size() != 2 || F[0] != "tracked")
    fail("malformed tracked-class line");
  ParsedStore PS;
  PS.TrackedClass = std::string(F[1]);

  F = R.fields();
  if (F.size() != 2 || F[0] != ProgramBegin)
    fail("malformed program-begin line");
  std::string_view ProgText = R.bytes(R.dec(F[1]));
  if (R.line() != ProgramEnd)
    fail("malformed program-end line");
  try {
    PS.Prog = parseProgramText(ProgText);
  } catch (const std::exception &E) {
    fail(std::string("embedded program does not parse: ") + E.what());
  }

  F = R.fields();
  if (F.size() != 2 || F[0] != "procs")
    fail("malformed procs line");
  uint64_t NumProcs = R.dec(F[1]);
  if (NumProcs != PS.Prog->numProcs())
    fail("store lists " + std::to_string(NumProcs) +
         " procedures, embedded program has " +
         std::to_string(PS.Prog->numProcs()));
  for (uint64_t I = 0; I != NumProcs; ++I) {
    F = R.fields();
    if (F.size() < 10 || F[0] != "proc" || F[2] != "hash" || F[4] != "fp" ||
        F[6] != "valid" || F[8] != "deps")
      fail("malformed proc line");
    StoredProc P;
    P.Name = std::string(F[1]);
    if (!parseHex16(F[3], P.BodyHash) || !parseHex16(F[5], P.OracleFp))
      fail("malformed proc hash field");
    uint64_t Valid = R.dec(F[7]);
    if (Valid > 1)
      fail("malformed valid flag");
    P.HasSummary = Valid != 0;
    uint64_t ND = R.dec(F[9]);
    if (F.size() - 10 != ND)
      fail("proc line dep count does not match fields");
    for (uint64_t D = 0; D != ND; ++D)
      P.Deps.emplace_back(F[10 + D]);
    if (PS.Prog->procId(PS.Prog->symbols().intern(P.Name)) == InvalidProc)
      fail("store names unknown procedure '" + P.Name + "'");
    if (P.HasSummary) {
      F = R.fields();
      if (F.size() != 2 || F[0] != "summary")
        fail("malformed summary header line");
      P.Sum = parseSummaryText(*PS.Prog, R.bytes(R.dec(F[1])));
    }
    PS.Procs.push_back(std::move(P));
  }
  if (!R.atEnd())
    fail("trailing data after last procedure record");
  return PS;
}

void serve::saveStoreFile(const std::string &Path, const Program &Prog,
                          const std::string &TrackedClass,
                          const std::vector<StoredProc> &Procs) {
  writeFileAtomic(Path, encodeStore(Prog, TrackedClass, Procs),
                  "serve.save");
}

ParsedStore serve::loadStoreFile(const std::string &Path) {
  return decodeStore(readWholeFile(Path, "serve.load"));
}

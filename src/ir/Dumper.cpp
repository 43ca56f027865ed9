//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "ir/Dumper.h"

#include "support/AtomicFile.h"
#include "support/CliParse.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

using namespace swift;

void swift::dumpCfg(const Program &Prog, std::ostream &OS) {
  const SymbolTable &Syms = Prog.symbols();
  for (size_t P = 0; P != Prog.numProcs(); ++P) {
    const Procedure &Proc = Prog.proc(static_cast<ProcId>(P));
    OS << "proc " << Syms.text(Proc.name()) << "(";
    for (size_t I = 0; I != Proc.params().size(); ++I) {
      if (I)
        OS << ", ";
      OS << Syms.text(Proc.params()[I]);
    }
    OS << ")  entry=" << Proc.entry() << " exit=" << Proc.exit() << "\n";
    for (NodeId N : Proc.reachableRpo()) {
      const CfgNode &Node = Proc.node(N);
      OS << "  " << N << ": " << Node.Cmd.str(Prog) << "  ->";
      for (NodeId S : Node.Succs)
        OS << " " << S;
      OS << "\n";
    }
  }
}

size_t swift::sourceLineEstimate(const Program &Prog) {
  size_t Lines = 0;
  for (size_t I = 0; I != Prog.numSpecs(); ++I) {
    const TypestateSpec &Spec = Prog.spec(I);
    Lines += 2 + Spec.numStates();
    for (const auto &[M, Tr] : Spec.methods()) {
      (void)M;
      Lines += Tr.size();
    }
  }
  for (size_t P = 0; P != Prog.numProcs(); ++P) {
    Lines += 2; // header + closing brace
    for (const CfgNode &Node : Prog.proc(static_cast<ProcId>(P)).nodes())
      if (Node.Cmd.Kind != CmdKind::Nop)
        ++Lines;
  }
  return Lines;
}

//===----------------------------------------------------------------------===//
// Round-trippable "swift-ir v1" serialization.
//===----------------------------------------------------------------------===//

namespace {

/// Names are printed bare, so they must survive the tokenizer: no
/// whitespace, none of the structural characters, no '.', and not a
/// command keyword (a variable literally named "null" would make
/// `x = null` ambiguous). TSL and the fuzzer only produce plain
/// identifiers; anything else is a bug at the producer.
bool nameIsPrintable(const std::string &S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r' || C == '.' ||
        C == '(' || C == ')' || C == '{' || C == '}' || C == ':' ||
        C == '=' || C == '@' || C == '#')
      return false;
  return S != "null" && S != "new" && S != "call" && S != "nop" &&
         S != "->";
}

void printCommand(const Program &Prog, const Command &C, std::ostream &OS) {
  const SymbolTable &Syms = Prog.symbols();
  auto T = [&](Symbol S) -> const std::string & {
    const std::string &Text = Syms.text(S);
    assert(nameIsPrintable(Text) && "name not serializable");
    return Text;
  };
  switch (C.Kind) {
  case CmdKind::Nop:
    OS << "nop";
    break;
  case CmdKind::Alloc:
    OS << T(C.Dst) << " = new " << T(C.Class) << " @" << C.Site;
    break;
  case CmdKind::Copy:
    OS << T(C.Dst) << " = " << T(C.Src);
    break;
  case CmdKind::AssignNull:
    OS << T(C.Dst) << " = null";
    break;
  case CmdKind::Load:
    OS << T(C.Dst) << " = " << T(C.Src) << "." << T(C.Field);
    break;
  case CmdKind::Store:
    OS << T(C.Dst) << "." << T(C.Field) << " = " << T(C.Src);
    break;
  case CmdKind::TsCall:
    OS << T(C.Src) << "." << T(C.Method) << "()";
    break;
  case CmdKind::Call: {
    if (C.Dst.isValid())
      OS << T(C.Dst) << " = ";
    assert(C.Callee != InvalidProc && "unresolved call");
    OS << "call " << T(Prog.proc(C.Callee).name()) << "(";
    for (size_t I = 0; I != C.Args.size(); ++I) {
      if (I)
        OS << " ";
      OS << T(C.Args[I]);
    }
    OS << ")";
    break;
  }
  }
}

} // namespace

void swift::printProgramText(const Program &Prog, std::ostream &OS) {
  const SymbolTable &Syms = Prog.symbols();
  OS << "# swift-ir v1\n";

  for (size_t I = 0; I != Prog.numSpecs(); ++I) {
    const TypestateSpec &Spec = Prog.spec(I);
    OS << "typestate " << Syms.text(Spec.name()) << " {\n";
    OS << "  states";
    for (size_t S = 0; S != Spec.numStates(); ++S)
      OS << " " << Syms.text(Spec.stateName(static_cast<TState>(S)));
    OS << "\n";
    OS << "  init " << Syms.text(Spec.stateName(Spec.initState())) << "\n";
    OS << "  error " << Syms.text(Spec.stateName(Spec.errorState())) << "\n";
    // methods() is an unordered_map; sort by name text so equal programs
    // print equal text.
    std::vector<Symbol> Methods;
    for (const auto &[M, Tr] : Spec.methods()) {
      (void)Tr;
      Methods.push_back(M);
    }
    std::sort(Methods.begin(), Methods.end(), [&](Symbol A, Symbol B) {
      return Syms.text(A) < Syms.text(B);
    });
    for (Symbol M : Methods) {
      OS << "  method " << Syms.text(M) << " =";
      for (TState To : Spec.transformer(M))
        OS << " " << Syms.text(Spec.stateName(To));
      OS << "\n";
    }
    OS << "}\n";
  }

  for (size_t P = 0; P != Prog.numProcs(); ++P) {
    const Procedure &Proc = Prog.proc(static_cast<ProcId>(P));
    OS << "proc " << Syms.text(Proc.name()) << "(";
    for (size_t I = 0; I != Proc.params().size(); ++I) {
      if (I)
        OS << " ";
      OS << Syms.text(Proc.params()[I]);
    }
    OS << ") entry " << Proc.entry() << " exit " << Proc.exit() << " nodes "
       << Proc.numNodes() << " {\n";
    // Every node, dead ones included, so node ids (and thus allocation-site
    // positions and analysis results) survive the round trip exactly.
    for (NodeId N = 0; N != Proc.numNodes(); ++N) {
      const CfgNode &Node = Proc.node(N);
      OS << "  " << N << ": ";
      printCommand(Prog, Node.Cmd, OS);
      OS << " ->";
      for (NodeId S : Node.Succs)
        OS << " " << S;
      OS << "\n";
    }
    OS << "}\n";
  }

  assert(Prog.mainProc() != InvalidProc && "program without main");
  OS << "main " << Syms.text(Prog.proc(Prog.mainProc()).name()) << "\n";
}

std::string swift::programToText(const Program &Prog) {
  std::ostringstream OS;
  printProgramText(Prog, OS);
  return OS.str();
}

void swift::saveProgramTextFile(const std::string &Path,
                                const Program &Prog) {
  writeFileAtomic(Path, programToText(Prog), "ir.save");
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace swift {

/// Parser for the swift-ir v1 format. A friend of Program/Procedure: it
/// fills the same private fields ProgramBuilder does, but placing nodes at
/// explicit ids instead of growing structured control flow.
class ProgramParser {
public:
  explicit ProgramParser(std::string_view Text) : Text(Text) {}

  std::unique_ptr<Program> parse();

private:
  [[noreturn]] void fail(const std::string &Msg) const {
    throw std::runtime_error("swift-ir line " + std::to_string(LineNo) +
                             ": " + Msg);
  }

  /// Reads the next non-empty, non-comment line and tokenizes it.
  /// Structural characters (){}:=@ are single tokens, "->" is a token,
  /// anything else (including '.') accumulates into one word.
  bool nextLine();

  const std::string &tok(size_t I) const {
    if (I >= Toks.size())
      fail("unexpected end of line");
    return Toks[I];
  }
  void expect(size_t I, const char *Want) const {
    if (tok(I) != Want)
      fail("expected '" + std::string(Want) + "', got '" + tok(I) + "'");
  }
  void expectEnd(size_t I) const {
    if (I != Toks.size())
      fail("trailing tokens after '" + Toks[I - 1] + "'");
  }
  uint32_t number(const std::string &S) const;

  void parseTypestate();
  void parseProc();
  Command parseCommand(size_t &I);
  void finalize(Symbol MainName);

  std::string_view Text;
  size_t Pos = 0;
  size_t LineNo = 0;
  std::vector<std::string> Toks;
  std::unique_ptr<Program> Prog = std::make_unique<Program>();

  struct PendingCall {
    ProcId Proc;
    NodeId Node;
    Symbol Callee;
  };
  std::vector<PendingCall> Pending;
};

} // namespace swift

uint32_t ProgramParser::number(const std::string &S) const {
  if (S.empty())
    fail("expected a number");
  uint64_t V;
  if (!cli::parseU64(S, V, UINT32_MAX))
    fail(S.find_first_not_of("0123456789") == std::string::npos
             ? "number out of range: '" + S + "'"
             : "expected a number, got '" + S + "'");
  return static_cast<uint32_t>(V);
}

bool ProgramParser::nextLine() {
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;

    Toks.clear();
    size_t I = 0;
    auto IsSpace = [](char C) {
      return C == ' ' || C == '\t' || C == '\r';
    };
    auto IsStructural = [](char C) {
      return C == '(' || C == ')' || C == '{' || C == '}' || C == ':' ||
             C == '=' || C == '@';
    };
    while (I < Line.size()) {
      char C = Line[I];
      if (IsSpace(C)) {
        ++I;
        continue;
      }
      if (C == '#')
        break; // comment to end of line
      if (IsStructural(C)) {
        Toks.emplace_back(1, C);
        ++I;
        continue;
      }
      if (C == '-' && I + 1 < Line.size() && Line[I + 1] == '>') {
        Toks.emplace_back("->");
        I += 2;
        continue;
      }
      size_t Start = I;
      while (I < Line.size() && !IsSpace(Line[I]) &&
             !IsStructural(Line[I]) && Line[I] != '#' &&
             !(Line[I] == '-' && I + 1 < Line.size() && Line[I + 1] == '>'))
        ++I;
      Toks.emplace_back(Line.substr(Start, I - Start));
    }
    if (!Toks.empty())
      return true;
  }
  return false;
}

void ProgramParser::parseTypestate() {
  // typestate <name> {
  Symbol Name = Prog->Syms.intern(tok(1));
  expect(2, "{");
  expectEnd(3);
  if (Prog->SpecIndex.count(Name))
    fail("duplicate typestate class '" + tok(1) + "'");

  // states <s...>
  if (!nextLine() || tok(0) != "states" || Toks.size() < 2)
    fail("expected 'states <name...>'");
  std::vector<Symbol> States;
  std::unordered_map<Symbol, TState> StateIdx;
  for (size_t I = 1; I != Toks.size(); ++I) {
    Symbol S = Prog->Syms.intern(Toks[I]);
    if (!StateIdx.emplace(S, static_cast<TState>(States.size())).second)
      fail("duplicate state '" + Toks[I] + "'");
    States.push_back(S);
  }
  auto FindState = [&](const std::string &S) -> TState {
    auto It = StateIdx.find(Prog->Syms.intern(S));
    if (It == StateIdx.end())
      fail("unknown state '" + S + "'");
    return It->second;
  };

  // init <s> / error <s>
  if (!nextLine() || tok(0) != "init")
    fail("expected 'init <state>'");
  TState Init = FindState(tok(1));
  expectEnd(2);
  if (!nextLine() || tok(0) != "error")
    fail("expected 'error <state>'");
  TState Error = FindState(tok(1));
  expectEnd(2);

  TypestateSpec Spec(Name, std::move(States), Init, Error);

  // method <m> = <to-state per from-state> ... then }
  for (;;) {
    if (!nextLine())
      fail("unterminated typestate block");
    if (tok(0) == "}") {
      expectEnd(1);
      break;
    }
    if (tok(0) != "method")
      fail("expected 'method' or '}'");
    Symbol M = Prog->Syms.intern(tok(1));
    if (Spec.hasMethod(M))
      fail("duplicate method '" + tok(1) + "'");
    expect(2, "=");
    if (Toks.size() != 3 + Spec.numStates())
      fail("method transformer must list one target state per state");
    for (size_t From = 0; From != Spec.numStates(); ++From)
      Spec.addTransition(M, static_cast<TState>(From),
                         FindState(tok(3 + From)));
  }

  Prog->SpecIndex.emplace(Name, Prog->Specs.size());
  Prog->Specs.push_back(std::move(Spec));
}

Command ProgramParser::parseCommand(size_t &I) {
  auto SplitDot = [&](const std::string &S) -> std::pair<Symbol, Symbol> {
    size_t Dot = S.find('.');
    if (Dot == 0 || Dot == std::string::npos || Dot + 1 == S.size())
      fail("malformed qualified name '" + S + "'");
    return {Prog->Syms.intern(S.substr(0, Dot)),
            Prog->Syms.intern(S.substr(Dot + 1))};
  };
  auto ParseCallTail = [&](Symbol Dst) -> Command {
    // call <name> ( <args...> )
    Symbol Callee = Prog->Syms.intern(tok(I + 1));
    expect(I + 2, "(");
    I += 3;
    std::vector<Symbol> Args;
    while (tok(I) != ")")
      Args.push_back(Prog->Syms.intern(Toks[I++]));
    ++I; // ')'
    Command C = Command::makeCall(Dst, InvalidProc, std::move(Args));
    Pending.push_back(
        PendingCall{static_cast<ProcId>(Prog->Procs.size() - 1),
                    static_cast<NodeId>(Prog->Procs.back().Nodes.size()),
                    Callee});
    return C;
  };

  const std::string &First = tok(I);
  if (First == "nop") {
    ++I;
    return Command::makeNop();
  }
  if (First == "call")
    return ParseCallTail(Symbol());
  if (First.find('.') != std::string::npos) {
    auto [Base, Member] = SplitDot(First);
    if (tok(I + 1) == "(") {
      // recv.method ( )
      expect(I + 2, ")");
      I += 3;
      Command C = Command::makeTsCall(Base, Member);
      return C;
    }
    // base.field = src
    expect(I + 1, "=");
    Symbol Src = Prog->Syms.intern(tok(I + 2));
    I += 3;
    return Command::makeStore(Base, Member, Src);
  }
  // <dst> = ...
  Symbol Dst = Prog->Syms.intern(First);
  expect(I + 1, "=");
  const std::string &Rhs = tok(I + 2);
  if (Rhs == "null") {
    I += 3;
    return Command::makeAssignNull(Dst);
  }
  if (Rhs == "new") {
    // dst = new <class> @ <site>
    Symbol Class = Prog->Syms.intern(tok(I + 3));
    expect(I + 4, "@");
    SiteId Site = number(tok(I + 5));
    I += 6;
    return Command::makeAlloc(Dst, Class, Site);
  }
  if (Rhs == "call") {
    I += 2;
    return ParseCallTail(Dst);
  }
  if (Rhs.find('.') != std::string::npos) {
    auto [Base, Field] = SplitDot(Rhs);
    I += 3;
    return Command::makeLoad(Dst, Base, Field);
  }
  Symbol Src = Prog->Syms.intern(Rhs);
  I += 3;
  return Command::makeCopy(Dst, Src);
}

void ProgramParser::parseProc() {
  // proc <name> ( <params...> ) entry <n> exit <n> nodes <n> {
  Symbol Name = Prog->Syms.intern(tok(1));
  if (Prog->ProcIndex.count(Name))
    fail("duplicate procedure '" + tok(1) + "'");
  expect(2, "(");
  size_t I = 3;
  std::vector<Symbol> Params;
  while (tok(I) != ")")
    Params.push_back(Prog->Syms.intern(Toks[I++]));
  ++I;
  expect(I, "entry");
  NodeId Entry = number(tok(I + 1));
  expect(I + 2, "exit");
  NodeId Exit = number(tok(I + 3));
  expect(I + 4, "nodes");
  uint32_t NumNodes = number(tok(I + 5));
  expect(I + 6, "{");
  expectEnd(I + 7);
  if (NumNodes == 0 || Entry >= NumNodes || Exit >= NumNodes)
    fail("entry/exit out of range");
  // Sanity limit before the reserve: every node occupies at least a
  // "N: nop ->" line, so a count beyond a quarter of the remaining bytes
  // is a mutated input — fail fast instead of reserving gigabytes.
  if (NumNodes > (Text.size() - std::min(Pos, Text.size())) / 4 + 1)
    fail("node count " + std::to_string(NumNodes) +
         " exceeds the remaining input size");

  ProcId Id = static_cast<ProcId>(Prog->Procs.size());
  Prog->ProcIndex.emplace(Name, Id);
  Prog->Procs.emplace_back(Name, Id, std::move(Params));
  Procedure &P = Prog->Procs.back();
  P.Entry = Entry;
  P.Exit = Exit;
  P.Nodes.reserve(NumNodes);

  // <id>: <command> -> <succs...>, node ids in order 0..NumNodes-1.
  for (NodeId N = 0; N != NumNodes; ++N) {
    if (!nextLine())
      fail("unterminated procedure body");
    if (number(tok(0)) != N)
      fail("expected node " + std::to_string(N) + ", got '" + tok(0) + "'");
    expect(1, ":");
    size_t Cur = 2;
    Command Cmd = parseCommand(Cur);
    Cmd.Self = N;
    expect(Cur, "->");
    ++Cur;
    std::vector<NodeId> Succs;
    for (; Cur != Toks.size(); ++Cur) {
      NodeId S = number(Toks[Cur]);
      if (S >= NumNodes)
        fail("successor out of range: " + Toks[Cur]);
      Succs.push_back(S);
    }
    P.Nodes.push_back(CfgNode{std::move(Cmd), std::move(Succs)});
  }

  if (!nextLine() || tok(0) != "}")
    fail("expected '}' closing procedure body");
  expectEnd(1);
}

void ProgramParser::finalize(Symbol MainName) {
  // Resolve call targets by name (procedures may call forward).
  for (const PendingCall &PC : Pending) {
    auto It = Prog->ProcIndex.find(PC.Callee);
    if (It == Prog->ProcIndex.end())
      fail("call to undeclared procedure '" + Prog->Syms.text(PC.Callee) +
           "'");
    Command &Cmd = Prog->Procs[PC.Proc].Nodes[PC.Node].Cmd;
    Cmd.Callee = It->second;
    if (Prog->Procs[It->second].params().size() != Cmd.Args.size())
      fail("arity mismatch calling " + Prog->Syms.text(PC.Callee));
  }

  // Rebuild the dense allocation-site table from the Alloc commands. Ids
  // must be exactly 0..N-1 with no duplicates, or the round trip (and every
  // analysis keyed on SiteId) would be skewed.
  std::vector<AllocSite> Sites;
  for (Procedure &P : Prog->Procs)
    for (CfgNode &Node : P.Nodes) {
      if (Node.Cmd.Kind != CmdKind::Alloc)
        continue;
      if (!Prog->SpecIndex.count(Node.Cmd.Class))
        fail("allocation of undeclared class '" +
             Prog->Syms.text(Node.Cmd.Class) + "'");
      SiteId S = Node.Cmd.Site;
      if (S >= Sites.size())
        Sites.resize(S + 1);
      if (Sites[S].Proc != InvalidProc)
        fail("duplicate allocation site @" + std::to_string(S));
      Sites[S] = AllocSite{Node.Cmd.Class, P.Id, Node.Cmd.Self};
    }
  for (size_t S = 0; S != Sites.size(); ++S)
    if (Sites[S].Proc == InvalidProc)
      fail("allocation-site ids not dense: missing @" + std::to_string(S));
  Prog->Sites = std::move(Sites);

  // Recompute the derived per-procedure data the builder tracks during
  // construction: reachable RPO, the variable list, and the reassigned set
  // ($ret is deliberately in neither, matching ProgramBuilder::ret).
  Symbol Ret = Prog->RetVar;
  for (Procedure &P : Prog->Procs) {
    P.Rpo = detail::computeRpo(P.Nodes, P.Entry);

    auto NoteVar = [&](Symbol V) {
      if (!V.isValid() || V == Ret)
        return;
      if (std::find(P.Vars.begin(), P.Vars.end(), V) == P.Vars.end())
        P.Vars.push_back(V);
    };
    auto NoteDef = [&](Symbol V) {
      NoteVar(V);
      if (V.isValid() && V != Ret)
        P.Reassigned[V] = true;
    };
    for (Symbol S : P.Params)
      NoteVar(S);
    for (const CfgNode &Node : P.Nodes) {
      const Command &C = Node.Cmd;
      switch (C.Kind) {
      case CmdKind::Nop:
        break;
      case CmdKind::Alloc:
      case CmdKind::AssignNull:
        NoteDef(C.Dst);
        break;
      case CmdKind::Copy:
      case CmdKind::Load:
        NoteDef(C.Dst);
        NoteVar(C.Src);
        break;
      case CmdKind::Store:
        NoteVar(C.Dst);
        NoteVar(C.Src);
        break;
      case CmdKind::TsCall:
        NoteVar(C.Src);
        break;
      case CmdKind::Call:
        for (Symbol A : C.Args)
          NoteVar(A);
        NoteDef(C.Dst);
        break;
      }
    }
  }

  auto It = Prog->ProcIndex.find(MainName);
  if (It == Prog->ProcIndex.end())
    fail("no procedure named '" + Prog->Syms.text(MainName) + "'");
  Prog->Main = It->second;
  if (!Prog->Procs[Prog->Main].params().empty())
    fail("main procedure must take no parameters");
}

std::unique_ptr<Program> ProgramParser::parse() {
  Prog->RetVar = Prog->Syms.intern("$ret");

  Symbol MainName;
  bool SawMain = false;
  while (nextLine()) {
    if (tok(0) == "typestate") {
      if (!Prog->Procs.empty())
        fail("typestate blocks must precede procedures");
      parseTypestate();
    } else if (tok(0) == "proc") {
      parseProc();
    } else if (tok(0) == "main") {
      MainName = Prog->Syms.intern(tok(1));
      expectEnd(2);
      SawMain = true;
      if (nextLine())
        fail("content after 'main' line");
      break;
    } else {
      fail("expected 'typestate', 'proc', or 'main', got '" + tok(0) + "'");
    }
  }
  if (!SawMain)
    fail("missing 'main <proc>' line");

  finalize(MainName);
  return std::move(Prog);
}

std::unique_ptr<Program> swift::parseProgramText(std::string_view Text) {
  ProgramParser P(Text);
  return P.parse();
}

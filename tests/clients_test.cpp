//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the client-domain layer: the interval transformer
/// algebra (the C2 exactness the relational summaries rely on), the
/// per-client abstract semantics on handcrafted programs, the
/// `IfdsProblem` contract the synthesized bottom-up side relies on
/// (checked fact by fact for every IFDS client), and the in-process
/// sharded-BU wavefront smoke (worker count never changes any result).
///
//===----------------------------------------------------------------------===//

#include "clients/Registry.h"
#include "clients/ifds/IfdsAnalysis.h"
#include "clients/ifds/NullDerefProblem.h"
#include "clients/ifds/ReachingDefsProblem.h"
#include "clients/ifds/TaintProblem.h"
#include "clients/interval/IntervalDomain.h"
#include "difftest/Difftest.h"
#include "genprog/Fuzzer.h"
#include "ir/Dumper.h"
#include "lang/Lower.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace swift;
using namespace swift::clients;

namespace {

//===----------------------------------------------------------------------===//
// Interval transformer algebra
//===----------------------------------------------------------------------===//

std::vector<interval::Transformer> sampleTransformers() {
  using T = interval::Transformer;
  std::vector<T> Out{T::identity(),    T::inc(),
                     T::dec(),         T::constant(0),
                     T::constant(2),   T::step(0),
                     T::normalize(2, interval::Neg, 1),
                     T::normalize(-2, -1, interval::Pos)};
  return Out;
}

std::vector<int> sampleValues() {
  std::vector<int> Vs{interval::Neg, interval::Pos};
  for (int V = -interval::Cap; V <= interval::Cap; ++V)
    Vs.push_back(V);
  return Vs;
}

TEST(IntervalTransformer, ComposeIsPointwiseExact) {
  // C2 for the interval family: compose(G, F) computes exactly G after F
  // on every representable counter value, so call-site composition in the
  // relational solver loses no precision.
  for (const auto &G : sampleTransformers())
    for (const auto &F : sampleTransformers()) {
      interval::Transformer C = compose(G, F);
      for (int V : sampleValues())
        EXPECT_EQ(C.eval(V), G.eval(F.eval(V)))
            << "G=" << G.str() << " F=" << F.str() << " V=" << V;
    }
}

TEST(IntervalTransformer, ComposeIsCanonical) {
  // Structural equality must be semantic equality after compose: composing
  // two canonical transformers yields the canonical form again, so the
  // solver's relation dedup works.
  for (const auto &G : sampleTransformers())
    for (const auto &F : sampleTransformers()) {
      interval::Transformer C = compose(G, F);
      interval::Transformer CC = compose(C, interval::Transformer::identity());
      EXPECT_EQ(C, CC) << "G=" << G.str() << " F=" << F.str();
    }
}

TEST(IntervalTransformer, ApplyMapsEndpoints) {
  for (const auto &T : sampleTransformers())
    for (int Lo = -interval::Cap; Lo <= interval::Cap; ++Lo)
      for (int Hi = Lo; Hi <= interval::Cap; ++Hi) {
        interval::Interval I{Lo, Hi};
        interval::Interval A = T.apply(I);
        for (int V = Lo; V <= Hi; ++V)
          EXPECT_TRUE(A.contains(T.eval(V)))
              << T.str() << " on " << I.str();
      }
}

//===----------------------------------------------------------------------===//
// Registry surface
//===----------------------------------------------------------------------===//

TEST(ClientRegistry, DomainNamesAndLookup) {
  const auto &Names = clientDomainNames();
  ASSERT_EQ(Names.size(), 4u);
  EXPECT_EQ(Names[0], "taint");
  EXPECT_EQ(Names[1], "nullderef");
  EXPECT_EQ(Names[2], "reachdefs");
  EXPECT_EQ(Names[3], "interval");
  for (const std::string &N : Names)
    EXPECT_TRUE(isClientDomain(N));
  EXPECT_FALSE(isClientDomain("typestate"));
  EXPECT_FALSE(isClientDomain("bogus"));
}

TEST(ClientRegistry, UnknownDomainThrows) {
  auto Prog = parseProgramText("typestate File {\n"
                               "  states closed opened err\n"
                               "  init closed\n"
                               "  error err\n"
                               "  method open = opened err err\n"
                               "}\n"
                               "proc main() entry 0 exit 1 nodes 2 {\n"
                               "  0: nop -> 1\n"
                               "  1: nop ->\n"
                               "}\n"
                               "main main\n");
  ASSERT_NE(Prog, nullptr);
  EXPECT_THROW(runClientDomain("bogus", *Prog, DomainMode::Td, 1, 1, 1),
               std::runtime_error);
}

//===----------------------------------------------------------------------===//
// Handcrafted per-client semantics
//===----------------------------------------------------------------------===//

const char *TsHeader = "typestate File {\n"
                       "  states closed opened err\n"
                       "  init closed\n"
                       "  error err\n"
                       "  method close = err closed err\n"
                       "  method open = opened err err\n"
                       "  method reset = closed closed err\n"
                       "}\n";

std::unique_ptr<Program> parse(const std::string &Body) {
  auto Prog = parseProgramText(TsHeader + Body + "main main\n");
  EXPECT_NE(Prog, nullptr);
  return Prog;
}

/// Runs \p Domain in all three modes and checks reports and exit facts
/// coincide (Theorem 3.1 on the client layer), returning the TD result.
DomainRunResult runAllModes(const std::string &Domain, const Program &P) {
  DomainRunResult Td = runClientDomain(Domain, P, DomainMode::Td, 1, 1, 1);
  DomainRunResult Sw = runClientDomain(Domain, P, DomainMode::Swift, 1, 2, 1);
  DomainRunResult Bu = runClientDomain(Domain, P, DomainMode::Bu, 1, 1, 1);
  EXPECT_FALSE(Td.Timeout);
  EXPECT_EQ(Td.Reports, Sw.Reports) << Domain << ": swift reports";
  EXPECT_EQ(Td.ExitFacts, Sw.ExitFacts) << Domain << ": swift exit facts";
  EXPECT_EQ(Td.Reports, Bu.Reports) << Domain << ": bu reports";
  EXPECT_EQ(Td.ExitFacts, Bu.ExitFacts) << Domain << ": bu exit facts";
  return Td;
}

TEST(ClientSemantics, TaintFlowsThroughHeap) {
  auto P = parse("proc main() entry 0 exit 1 nodes 8 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v0 = new File @0 -> 3\n"
                 "  3: v1 = new File @1 -> 4\n"
                 "  4: v1.g0 = v0 -> 5\n"
                 "  5: v2 = v1.g0 -> 6\n"
                 "  6: v2.open() -> 7\n"
                 "  7: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("taint", *P);
  std::set<std::pair<ProcId, NodeId>> Want{{P->mainProc(), 6}};
  EXPECT_EQ(R.Reports, Want);
}

/// Runs the taint client on a source-language program under the File/open
/// convention in all three modes and returns the procedure of every leak
/// site, in site order.
std::vector<std::string> taintLeakProcs(const char *Source) {
  std::unique_ptr<Program> P = parseProgram(Source);
  DomainRunResult R = runAllModes("taint", *P);
  std::vector<std::string> Got;
  for (const auto &[Proc, Node] : R.Reports) {
    (void)Node;
    Got.push_back(P->symbols().text(P->proc(Proc).name()));
  }
  return Got;
}

// The taint client is the kill/gen instantiation of Section 5.2; these
// are its source-language cases.
TEST(KillGenTest, DirectLeak) {
  EXPECT_EQ(taintLeakProcs(R"(
    typestate File { start s; error e; s -open-> s; }
    proc main() {
      v = new File;
      v.open();
    }
  )"),
            std::vector<std::string>{"main"});
}

TEST(KillGenTest, LeakThroughCopyAndCall) {
  // The leak is attributed to the callee whose sink call it is; close is
  // not a sink.
  EXPECT_EQ(taintLeakProcs(R"(
    typestate File { start s; error e; s -open-> s; s -close-> s; }
    proc main() {
      v = new File;
      w = v;
      use(w);
      u = new File;
      u.close();
    }
    proc use(f) { f.open(); }
  )"),
            std::vector<std::string>{"use"});
}

TEST(KillGenTest, KillByOverwrite) {
  // Rebinding v to a non-source value kills its taint.
  EXPECT_TRUE(taintLeakProcs(R"(
    typestate File { start s; error e; s -open-> s; }
    typestate Clean { start c; error ec; c -open-> c; }
    proc main() {
      v = new File;
      v = new Clean;
      v.open();
    }
  )")
                  .empty());
}

TEST(KillGenTest, ReturnValuePropagatesTaint) {
  EXPECT_EQ(taintLeakProcs(R"(
    typestate File { start s; error e; s -open-> s; }
    proc make() { t = new File; return t; }
    proc main() {
      x = make();
      x.open();
    }
  )"),
            std::vector<std::string>{"main"});
}

TEST(ClientSemantics, NullDerefThroughFieldAndDirect) {
  auto P = parse("proc main() entry 0 exit 1 nodes 8 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v1 = new File @0 -> 3\n"
                 "  3: v0 = null -> 4\n"
                 "  4: v1.g0 = v0 -> 5\n"
                 "  5: v2 = v1.g0 -> 6\n"
                 "  6: v2.open() -> 7\n"
                 "  7: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("nullderef", *P);
  // The loaded null dereferences at 6; the explicitly-null v0 never does.
  std::set<std::pair<ProcId, NodeId>> Want{{P->mainProc(), 6}};
  EXPECT_EQ(R.Reports, Want);
}

TEST(ClientSemantics, ReachingDefsKillsAndCallUntracks) {
  auto P = parse("proc q0() entry 0 exit 1 nodes 3 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: $ret = null -> 1\n"
                 "}\n"
                 "proc main() entry 0 exit 1 nodes 7 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v0 = new File @0 -> 3\n"
                 "  3: v0 = null -> 4\n"
                 "  4: v1 = new File @1 -> 5\n"
                 "  5: v1 = call q0() -> 6\n"
                 "  6: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("reachdefs", *P);
  // v0's alloc def is killed by the null assignment; v1's def is
  // untracked by the call; $ret's def at 6 survives.
  EXPECT_EQ(R.ExitFacts, (std::set<std::string>{"def(v0@main:3)",
                                                "def($ret@main:6)"}));
}

TEST(ClientSemantics, IntervalUnderflowAndFieldFacts) {
  auto P = parse("proc main() entry 0 exit 1 nodes 8 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v0 = new File @0 -> 3\n"
                 "  3: v0.open() -> 4\n"
                 "  4: v0.g0 = v0 -> 5\n"
                 "  5: v0.close() -> 6\n"
                 "  6: v0.close() -> 7\n"
                 "  7: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("interval", *P);
  // open raises the counter to 1, the field snapshot holds [1,1], the
  // first close is safe (counter 1), the second underflows (counter 0).
  std::set<std::pair<ProcId, NodeId>> Want{{P->mainProc(), 6}};
  EXPECT_EQ(R.Reports, Want);
  EXPECT_TRUE(R.ExitFacts.count("in(*.g0,[1,1])"))
      << "field fact missing";
}

TEST(ClientSemantics, IntervalCalleeStoreRoutesThroughCall) {
  // Regression for the bottom-up call footprint: an actual's value
  // funneled into a field by the callee must surface in the caller's
  // summary (the identity row alone would route it around the call).
  auto P = parse("proc q0(p0) entry 0 exit 1 nodes 3 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: p0.g0 = p0 -> 1\n"
                 "}\n"
                 "proc main() entry 0 exit 1 nodes 5 {\n"
                 "  0: nop -> 2\n"
                 "  1: nop ->\n"
                 "  2: v0 = new File @0 -> 3\n"
                 "  3: call q0(v0) -> 4\n"
                 "  4: $ret = null -> 1\n"
                 "}\n");
  DomainRunResult R = runAllModes("interval", *P);
  EXPECT_TRUE(R.ExitFacts.count("in(*.g0,[0,0])"))
      << "callee field store lost";
}

//===----------------------------------------------------------------------===//
// IfdsProblem contract
//===----------------------------------------------------------------------===//

/// Checks, for every non-Lambda fact of \p Pb at every reachable command
/// of its program, the contract the synthesized bottom-up side relies on
/// (IfdsProblem.h): facts outside `affected` / `callFootprint` pass
/// through unchanged, report facts are absorbing, and rtrans of the
/// identity relation equals the fact-level transfer (C1 with r = id).
void checkIfdsContract(const ifds::IfdsProblem &Pb) {
  using ifds::FactId;
  const Program &Prog = Pb.program();
  ifds::IfdsContext Ctx(Prog, Pb);
  auto Has = [](const std::vector<FactId> &V, FactId F) {
    return std::find(V.begin(), V.end(), F) != V.end();
  };
  std::vector<FactId> Footprint, Out, Entered, Local, Combined;
  for (ProcId P = 0; P != Prog.numProcs(); ++P) {
    const Procedure &Proc = Prog.proc(P);
    for (NodeId N : Proc.reachableRpo()) {
      const Command &Cmd = Proc.node(N).Cmd;
      Footprint.clear();
      if (Cmd.Kind == CmdKind::Call) {
        clients::Binding B(Prog, Cmd);
        Pb.callFootprint(B, Footprint);
        for (FactId F = 1; F != Pb.numFacts(); ++F) {
          Entered.clear();
          Local.clear();
          Combined.clear();
          Pb.enter(B, F, Entered);
          Pb.callLocal(B, F, Local);
          Pb.combineExit(B, F, Combined);
          if (!Has(Footprint, F)) {
            EXPECT_TRUE(Entered.empty())
                << Cmd.str(Prog) << " enters " << Pb.factText(F);
            EXPECT_EQ(Local, std::vector<FactId>{F})
                << Cmd.str(Prog) << " callLocal " << Pb.factText(F);
          }
          if (Pb.isReport(F)) {
            EXPECT_EQ(Local, std::vector<FactId>{F})
                << Cmd.str(Prog) << " callLocal " << Pb.factText(F);
            EXPECT_EQ(Combined, std::vector<FactId>{F})
                << Cmd.str(Prog) << " combineExit " << Pb.factText(F);
          }
        }
        continue;
      }
      Pb.affected(Cmd, Footprint);
      std::vector<ifds::IfdsRel> Id = ifds::IfdsAnalysis::rtrans(
          Ctx, P, Cmd, ifds::IfdsRel::identity());
      for (FactId F = 1; F != Pb.numFacts(); ++F) {
        Out.clear();
        Pb.transfer(P, Cmd, F, Out);
        if (!Has(Footprint, F) || Pb.isReport(F)) {
          EXPECT_EQ(Out, std::vector<FactId>{F})
              << Cmd.str(Prog) << " transfer " << Pb.factText(F);
        }
        std::set<FactId> Lhs, Rhs(Out.begin(), Out.end());
        for (const ifds::IfdsRel &R : Id)
          if (std::optional<ifds::IfdsFact> O = ifds::IfdsAnalysis::applyRel(
                  Ctx, R, ifds::IfdsFact::of(F)))
            Lhs.insert(O->Id);
        EXPECT_EQ(Lhs, Rhs) << Cmd.str(Prog) << " rtrans(id) "
                            << Pb.factText(F);
      }
    }
  }
}

template <typename MakeProblem> void checkContractOnSeeds(MakeProblem Make) {
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    auto Prog = generateFuzzProgram(difftest::fuzzConfigForSeed(Seed));
    ASSERT_NE(Prog, nullptr);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    checkIfdsContract(*Make(*Prog));
  }
}

TEST(IfdsProblemContract, Taint) {
  checkContractOnSeeds([](const Program &P) {
    return std::make_unique<ifds::TaintProblem>(P, taintSourceClasses(P),
                                                taintSinkMethods(P));
  });
}

TEST(IfdsProblemContract, NullDeref) {
  checkContractOnSeeds([](const Program &P) {
    return std::make_unique<ifds::NullDerefProblem>(P);
  });
}

TEST(IfdsProblemContract, ReachingDefs) {
  checkContractOnSeeds([](const Program &P) {
    return std::make_unique<ifds::ReachingDefsProblem>(P);
  });
}

//===----------------------------------------------------------------------===//
// Sharded-BU wavefront smoke: worker count is invisible
//===----------------------------------------------------------------------===//

TEST(ClientSharding, WorkerCountNeverChangesResults) {
  // The same in-process SCC-DAG wavefront that backs the shard tooling
  // runs under Swift and Bu modes; every observable — reports, exit
  // facts, summary and relation counts — must be identical at any width.
  for (uint64_t Seed : {3u, 7u, 11u}) {
    auto Prog = generateFuzzProgram(difftest::fuzzConfigForSeed(Seed));
    ASSERT_NE(Prog, nullptr);
    for (const std::string &Domain : clientDomainNames()) {
      for (DomainMode Mode : {DomainMode::Swift, DomainMode::Bu}) {
        DomainRunResult Base =
            runClientDomain(Domain, *Prog, Mode, 1, 2, 1);
        ASSERT_FALSE(Base.Timeout) << Domain << " seed " << Seed;
        for (unsigned Threads : {2u, 4u}) {
          DomainRunResult R =
              runClientDomain(Domain, *Prog, Mode, 1, 2, Threads);
          EXPECT_EQ(R.Reports, Base.Reports)
              << Domain << " seed " << Seed << " th" << Threads;
          EXPECT_EQ(R.ExitFacts, Base.ExitFacts)
              << Domain << " seed " << Seed << " th" << Threads;
          EXPECT_EQ(R.BuRelations, Base.BuRelations)
              << Domain << " seed " << Seed << " th" << Threads;
          EXPECT_EQ(R.TdSummaries, Base.TdSummaries)
              << Domain << " seed " << Seed << " th" << Threads;
        }
      }
    }
  }
}

} // namespace

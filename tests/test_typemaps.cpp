//===- test_typemaps.cpp - Entry maps type only the slots a tree uses ----===//
//
// A root's entry type map types the slots its loop's code names and the
// slots its recording used; every other global or stack slot is Boxed, so
// a type change there does not split the tree (trace/typemap.h). Each
// program runs traced on both backends and must agree with the
// interpreter on the printed output and on every global's final value; the
// tree counts come from the engine's own statistics and fragment profiles.
//
// A local dead at the loop header (written before it is read on every path)
// is Boxed in every root's entry map and dropped at the back edge, and a
// root recording that leaves the loop at its test before any body op is
// discarded once, so the body becomes the trunk.
//
// The corpus test checks the same properties over every perfbench program:
// no two roots at one anchor with the same frame chain agree on every slot
// both type and that is live at the header (such a pair would be one tree
// split on a slot it ignores), and no root is an exit-only trunk.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "api/engine.h"
#include "trace/helpers.h"
#include "trace/monitor.h"

using namespace tracejit;

namespace {

struct Observed {
  bool Ok = false;
  std::string Error;
  std::string Out;
  std::vector<std::string> Globals; ///< "name=value", in slot order.
  VMStats Stats;
  std::vector<FragmentProfile> Profiles;
};

Observed observe(const std::string &Src, EngineOptions O) {
  O.CollectStats = true;
  Engine E(O);
  Observed R;
  E.setPrintHook([&](const std::string &S) { R.Out += S; });
  auto Res = E.eval(Src);
  R.Ok = Res.ok();
  R.Error = Res.Err.describe();
  const GlobalTable &G = E.context().Globals;
  for (uint32_t I = 0; I < G.size(); ++I)
    R.Globals.push_back(std::string(G.Names[I]->view()) + "=" +
                        valueToString(G.Values[I]));
  R.Stats = E.stats();
  R.Profiles = E.fragmentProfiles();
  return R;
}

/// Compiled roots per anchor (script id, loop header pc).
std::map<std::pair<uint32_t, uint32_t>, unsigned>
rootsPerAnchor(const std::vector<FragmentProfile> &Profiles) {
  std::map<std::pair<uint32_t, uint32_t>, unsigned> N;
  for (const FragmentProfile &P : Profiles)
    if (P.IsRoot && P.LirAfterFilters)
      ++N[{P.ScriptId, P.AnchorPc}];
  return N;
}

/// A root whose trunk leaves its loop at the loop's test: its last
/// control-flow guard is a conditional jump in the anchor frame whose
/// target, past the loop, is where the trunk's LoopExit resumes. The
/// recording saw the test fail before any body op.
bool isExitOnlyTrunk(const Fragment &F) {
  if (F.Kind != FragmentKind::Root || F.Body.empty() || !F.Loop)
    return false;
  const LIns *T = F.Body.back();
  if (T->Op != LOp::Exit || T->Exit->Kind != ExitKind::LoopExit)
    return false;
  const ExitDescriptor *Test = nullptr;
  for (const LIns *I : F.Body)
    if (I->isGuard() && I->Exit && I->Exit->Kind == ExitKind::Branch)
      Test = I->Exit;
  if (!Test || Test->Frames.size() != T->Exit->Frames.size() ||
      Test->Pc < F.Loop->HeaderPc || Test->Pc >= F.Loop->EndPc)
    return false;
  const FunctionScript &S = *F.AnchorScript;
  return (S.opAt(Test->Pc) == Op::JumpIfFalse ||
          S.opAt(Test->Pc) == Op::JumpIfTrue) &&
         S.u32At(Test->Pc + 1) == T->Exit->Pc;
}

class TypeMaps : public ::testing::TestWithParam<Backend> {
protected:
  EngineOptions traced() const {
    EngineOptions O;
    O.EnableJit = true;
    O.JitBackend = GetParam();
    O.VerifyLir = true;
    return O;
  }

  /// Run \p Src traced on this backend; it must match the interpreter.
  Observed runAgainstInterpreter(const std::string &Src) {
    EngineOptions Interp;
    Interp.EnableJit = false;
    Observed Want = observe(Src, Interp);
    EXPECT_TRUE(Want.Ok) << Want.Error;
    Observed Got = observe(Src, traced());
    EXPECT_TRUE(Got.Ok) << Got.Error;
    EXPECT_EQ(Got.Out, Want.Out);
    EXPECT_EQ(Got.Globals, Want.Globals);
    EXPECT_EQ(Got.Stats.VerifyFailures, 0u);
    return Got;
  }
};

} // namespace

// (a) f's loop is entered six times while global g, which the loop never
// touches, and the caller's pending left operand (a slot of the top-level
// frame, below f's frame) go int -> double -> string. The loop depends on
// neither, so it compiles one tree and enters it on every call.
TEST_P(TypeMaps, UntouchedGlobalAndCallerOperandDoNotSplitTheTree) {
  Observed R = runAgainstInterpreter(
      "function f(n) { var s = 0; for (var i = 0; i < n; ++i) s = s + i;"
      " return s; }\n"
      "var g = 1; var r1 = 0; var r2 = 0; var r3 = 0;\n"
      "r1 = 1 + f(300);\n"
      "g = 0.5; r2 = 1.5 + f(300);\n"
      "g = 'str'; r3 = 'a' + f(300);\n"
      "g = 2; r1 = 2 + f(300);\n"
      "g = 2.5; r2 = 2.5 + f(300);\n"
      "g = 'x'; r3 = 'b' + f(300);\n"
      "print(r1, r2, r3, g);\n");
  EXPECT_EQ(R.Out, "44852 44852.5 b44850 x\n");
  EXPECT_EQ(R.Stats.TreesCompiled, 1u);
  for (const auto &A : rootsPerAnchor(R.Profiles))
    EXPECT_EQ(A.second, 1u) << "anchor " << A.first.first << ":"
                            << A.first.second;
  // Entered on every call after the one that recorded it.
  EXPECT_GE(R.Stats.TraceEnters, 5u);
  for (const FragmentProfile &P : R.Profiles)
    if (P.IsRoot && P.LirAfterFilters) {
      // s, i and n are typed; neither g nor the caller's operand is.
      EXPECT_EQ(P.EntrySlots, 3u);
    }
}

// (b) The trunk never touches global cnt; a branch taken every eighth
// iteration inlines bump(), which reads cnt from the interpreter, writes
// it, and boxes it back before jumping to the trunk. cnt's type changes
// between the loop's entries.
TEST_P(TypeMaps, BranchReadsAndWritesASlotTheTrunkLeavesBoxed) {
  Observed R = runAgainstInterpreter(
      "var cnt = 0;\n"
      "function bump() { cnt = cnt + 1; }\n"
      "function run(n) { var s = 0;\n"
      "  for (var i = 0; i < n; ++i) { if (i % 8 == 7) bump(); s = s + i; }\n"
      "  return s; }\n"
      "var t = 0;\n"
      "t = t + run(400);\n"
      "cnt = 0.5; t = t + run(400);\n"
      "cnt = 's'; t = t + run(80);\n"
      "cnt = 7; t = t + run(400);\n"
      "print(t, cnt);\n");
  EXPECT_EQ(R.Out, "242560 57\n");
  EXPECT_GE(R.Stats.BranchesCompiled, 1u);
  for (const auto &A : rootsPerAnchor(R.Profiles))
    EXPECT_EQ(A.second, 1u) << "anchor " << A.first.first << ":"
                            << A.first.second;
}

// (c) The inner loop, in g, is typed on global gw; outer's loop never
// names it. outer calls g's tree on every iteration while gw goes
// int -> double -> string between outer's entries.
TEST_P(TypeMaps, InnerTreeTypedOnASlotTheOuterTreeNeverNames) {
  Observed R = runAgainstInterpreter(
      "var gw = 0;\n"
      "function g(m) { var s = 0;\n"
      "  for (var j = 0; j < m; ++j) { s = s + j; gw = gw + 1; }\n"
      "  return s; }\n"
      "function outer(n) { var t = 0;\n"
      "  for (var i = 0; i < n; ++i) t = t + g(8);\n"
      "  return t; }\n"
      "var r = 0;\n"
      "r = r + outer(40);\n"
      "gw = 0.5; r = r + outer(40);\n"
      "gw = 's'; r = r + outer(3);\n"
      "gw = 1; r = r + outer(40);\n"
      "print(r, gw);\n");
  EXPECT_EQ(R.Out, "3444 321\n");
  EXPECT_GE(R.Stats.TreeCalls, 1u);
}

// The outer loop keeps kept (written every iteration, never named by the
// inner loop) in the TAR across the inner tree call instead of boxing it
// into the interpreter. On the one iteration where the inner tree leaves
// through an exit the call site does not expect, the monitor must write
// kept back from the call site's map.
TEST_P(TypeMaps, NestedExitWritesBackWhatTheCallSiteKept) {
  Observed R = runAgainstInterpreter(
      "function f(n) { var kept = 0; var acc = 0;\n"
      "  for (var i = 0; i < n; ++i) {\n"
      "    kept = kept + 3;\n"
      "    for (var j = 0; j < 10; ++j) {\n"
      "      if (i == 37 && j == 5) acc = acc + 1000;\n"
      "      acc = acc + j;\n"
      "    }\n"
      "  }\n"
      "  return kept * 100000 + acc; }\n"
      "var r = f(60);\n"
      "print(r);\n");
  EXPECT_EQ(R.Out, "18003700\n");
  EXPECT_GE(R.Stats.TreeCalls, 1u);
}

// A trace that leaves its loop straight into another loop's header ends
// there instead of calling that loop's tree: a tree's fragments run only
// its own loop's code, which is what lets a call site keep the slots that
// code never names (here b and k around the call to the first inner loop,
// whose exit is followed at once by the while loop's header).
TEST_P(TypeMaps, TraceEndsAtAnAdjacentLoopHeader) {
  Observed R = runAgainstInterpreter(
      "function h(n) { var a = 0, b = 0, k = 0;\n"
      "  for (var r = 0; r < n; ++r) {\n"
      "    k = 0;\n"
      "    for (var i = 0; i < 3; ++i) a = a + i;\n"
      "    while (k < 4) { b = b + a; k = k + 1; }\n"
      "  }\n"
      "  return b; }\n"
      "var r = h(50);\n"
      "print(r);\n");
  EXPECT_EQ(R.Out, "15300\n");
}

// (d) The megamorphic perfbench loop with 40 more globals it never uses
// records, enters and specializes exactly as the plain script does.
TEST_P(TypeMaps, FortyUnusedGlobalsChangeNothing) {
  const std::string Loop = "var objs = [];\n"
                           "for (var i = 0; i < 8; ++i) {\n"
                           "  var o = {};\n"
                           "  if (i == 0) { o.a = 1; }\n"
                           "  if (i == 1) { o.b = 1; o.a = 2; }\n"
                           "  if (i == 2) { o.c = 1; o.a = 3; }\n"
                           "  if (i == 3) { o.d = 1; o.a = 4; }\n"
                           "  if (i == 4) { o.e = 1; o.a = 5; }\n"
                           "  if (i == 5) { o.f = 1; o.a = 6; }\n"
                           "  if (i == 6) { o.g = 1; o.a = 7; }\n"
                           "  if (i == 7) { o.h = 1; o.a = 8; }\n"
                           "  objs[i] = o;\n"
                           "}\n"
                           "var t = 0;\n"
                           "for (var j = 0; j < 40000; ++j) {\n"
                           "  t = t + objs[j % 8].a;\n"
                           "}\n"
                           "print(t);\n";
  std::string Unused;
  for (int K = 0; K < 40; ++K)
    Unused += "var unused" + std::to_string(K) + " = " +
              (K % 3 == 0   ? std::to_string(K)
               : K % 3 == 1 ? std::to_string(K) + ".5"
                            : "'s" + std::to_string(K) + "'") +
              ";\n";
  Observed Plain = runAgainstInterpreter(Loop);
  Observed Padded = runAgainstInterpreter(Unused + Loop);
  EXPECT_EQ(Padded.Out, Plain.Out);
  EXPECT_EQ(Padded.Stats.TracesStarted, Plain.Stats.TracesStarted);
  EXPECT_EQ(Padded.Stats.TraceEnters, Plain.Stats.TraceEnters);
  EXPECT_EQ(Padded.Stats.SideExits, Plain.Stats.SideExits);
  auto Slots = [](const Observed &O) {
    std::vector<uint32_t> S;
    for (const FragmentProfile &P : O.Profiles)
      S.push_back(P.EntrySlots);
    return S;
  };
  EXPECT_EQ(Slots(Padded), Slots(Plain));
}

// run() is called six times; its loop assigns t before reading it, so t is
// undefined at the first crossing of each call and an int after. The root
// is recorded in the first call with t an int, yet t is dead at the header:
// no root types it, the back edge drops it, and that one root serves every
// later call from its first crossing on.
TEST_P(TypeMaps, WriteBeforeReadLocalDoesNotSplitTheTree) {
  const char *Src =
      "function run(n, k) { var s = 0;\n"
      "  for (var i = 0; i < n; ++i) { var t = i * 3 + k; s = s + t; }\n"
      "  return s; }\n"
      "var r = 0;\n"
      "r = r + run(60, 1); r = r + run(61, 2); r = r + run(62, 3);\n"
      "r = r + run(63, 4); r = r + run(64, 5); r = r + run(65, 6);\n"
      "print(r);\n";
  Observed R = runAgainstInterpreter(Src);
  EXPECT_EQ(R.Out, "35950\n");
  EXPECT_EQ(R.Stats.TreesCompiled, 1u);
  for (const auto &A : rootsPerAnchor(R.Profiles))
    EXPECT_EQ(A.second, 1u) << "anchor " << A.first.first << ":"
                            << A.first.second;
  EXPECT_GE(R.Stats.TraceEnters, 5u);
  for (const FragmentProfile &P : R.Profiles) {
    if (P.IsRoot && P.LirAfterFilters) {
      EXPECT_EQ(P.EntrySlots, 4u) << "n, k, s and i; not t";
    }
  }
}

// t is a double written before it is read. The back edge drops it rather
// than boxing it into the interpreter, so no fragment of the loop's tree
// allocates a double cell per iteration.
TEST_P(TypeMaps, DeadDoubleIsDroppedNotBoxed) {
  EngineOptions O = traced();
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(
      E.eval("function run(n) { var s = 0.1;\n"
             "  for (var i = 0; i < n; ++i) {\n"
             "    var t = i + 0.25; s = s + t * 2; }\n"
             "  return s; }\n"
             "var r = 0;\n"
             "for (var e = 0; e < 6; ++e) r = r + run(50 + e);\n"
             "print(r);\n")
          .ok());
  EXPECT_EQ(Out, "16398.1\n");
  unsigned Fragments = 0;
  for (const auto &F : E.context().Monitor->fragments()) {
    if (F->Body.empty() || F->AnchorScript->Name != "run")
      continue;
    ++Fragments;
    for (const LIns *I : F->Body)
      EXPECT_FALSE(I->Op == LOp::Call && I->CI == &helperCalls().BoxDouble)
          << "fragment " << F->Id << ": " << formatIns(I);
  }
  EXPECT_GE(Fragments, 1u);
}

// The loop writes x before reading it, but the code after the loop reads
// it, so x is live at the header and every way out of the loop writes it
// back: the loop condition failing (cut = -1) and the guard on i == cut
// failing mid-iteration, after x was written.
TEST_P(TypeMaps, LocalReadAfterTheLoopIsWrittenBack) {
  Observed R = runAgainstInterpreter(
      "function f(n, cut) { var x = 0; var s = 0;\n"
      "  for (var i = 0; i < n; ++i) {\n"
      "    x = i * 1.5;\n"
      "    if (i == cut) break;\n"
      "    s = s + 1;\n"
      "  }\n"
      "  return x * 1000 + s; }\n"
      "var a = 0, b = 0;\n"
      "for (var e = 0; e < 8; ++e) { a = a + f(40 + e, -1);"
      " b = b + f(40 + e, 30 + e); }\n"
      "print(a, b);\n");
  EXPECT_EQ(R.Out, "510348 402268\n");
  EXPECT_GE(R.Stats.TraceEnters, 8u);
}

// f's loop runs one iteration per call, so its second crossing in a call
// is where the condition fails. Recording starts at the second crossing
// overall: that trunk would only exit. It is discarded, and the next call
// records the body as the trunk.
TEST_P(TypeMaps, ExitOnlyCrossingIsNotARoot) {
  EngineOptions O = traced();
  O.CollectStats = true;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval("function f(a) { var s = 0;\n"
                     "  for (var i = 0; i < 1; ++i) s = s + a * 2;\n"
                     "  return s; }\n"
                     "var r = 0;\n"
                     "for (var k = 0; k < 200; ++k) r = r + f(k);\n"
                     "print(r);\n")
                  .ok());
  EXPECT_EQ(Out, "39800\n");
  const VMStats &S = E.stats();
  EXPECT_EQ(S.AbortsByReason[(size_t)AbortReason::ExitOnlyCrossing], 1u);
  EXPECT_EQ(S.VerifyFailures, 0u);
  EXPECT_EQ(S.LoopsBlacklisted, 0u);
  unsigned Roots = 0;
  for (const auto &F : E.context().Monitor->fragments()) {
    EXPECT_FALSE(isExitOnlyTrunk(*F)) << "fragment " << F->Id;
    Roots += F->Kind == FragmentKind::Root && !F->Body.empty();
  }
  EXPECT_GE(Roots, 1u);
}

// Loops that run one iteration per entry and leave it somewhere other
// than a top test: a do-while whose body has no branch, and a while (true)
// whose only way out is a break at the end of the body. Every recording
// passes through the body before it leaves, so none is discarded, and the
// body runs natively from the first recording on.
TEST_P(TypeMaps, LoopsLeftAfterTheBodyAreNotExitOnly) {
  for (const char *Loop :
       {"do { s = s + a * 2; i = i + 1; } while (i < 1);",
        "while (true) { s = s + a * 2; i = i + 1; if (i >= 1) break; }"}) {
    SCOPED_TRACE(Loop);
    std::string Src = std::string("function f(a) { var s = 0; var i = 0;\n") +
                      Loop +
                      "\n  return s; }\n"
                      "var r = 0;\n"
                      "for (var k = 0; k < 200; ++k) r = r + f(k);\n"
                      "print(r);\n";
    Observed R = runAgainstInterpreter(Src);
    EXPECT_EQ(R.Out, "39800\n");
    EXPECT_EQ(R.Stats.AbortsByReason[(size_t)AbortReason::ExitOnlyCrossing],
              0u);
    EXPECT_EQ(R.Stats.LoopsBlacklisted, 0u);
    EngineOptions Interp;
    Interp.EnableJit = false;
    EXPECT_LT(R.Stats.BytecodesInterpreted * 4,
              observe(Src, Interp).Stats.BytecodesInterpreted)
        << "f's loop runs on trace";
  }
}

// A loop that is hot but never iterates: every recording leaves it at its
// test. The first one is discarded and the second kept as an exit-only
// trunk, which every later call enters; the loop is recorded twice in
// all, with or without blacklisting, and never blacklisted.
TEST_P(TypeMaps, HotLoopThatNeverIteratesStopsRecording) {
  const char *Src =
      "function f(n) { var s = 7; for (var i = 0; i < n; ++i) s = s + i;"
      " return s; }\n"
      "var r = 0;\n"
      "for (var k = 0; k < 300; ++k) r = r + f(0);\n"
      "print(r);\n";
  for (bool Blacklisting : {true, false}) {
    SCOPED_TRACE(Blacklisting ? "blacklisting" : "no blacklisting");
    EngineOptions O = traced();
    O.EnableBlacklisting = Blacklisting;
    O.CollectStats = true;
    Engine E(O);
    std::string Out;
    E.setPrintHook([&](const std::string &S) { Out += S; });
    ASSERT_TRUE(E.eval(Src).ok());
    EXPECT_EQ(Out, "2100\n");
    const VMStats &S = E.stats();
    EXPECT_EQ(S.AbortsByReason[(size_t)AbortReason::ExitOnlyCrossing],
              TierPolicy::MaxExitOnlyDiscards);
    EXPECT_EQ(S.LoopsBlacklisted, 0u);
    EXPECT_EQ(S.VerifyFailures, 0u);
    unsigned ExitOnly = 0, Started = 0;
    for (const auto &F : E.context().Monitor->fragments()) {
      ExitOnly += isExitOnlyTrunk(*F);
      Started += F->Kind == FragmentKind::Root && F->AnchorScript->Name == "f";
    }
    EXPECT_EQ(ExitOnly, 1u);
    EXPECT_EQ(Started, TierPolicy::MaxExitOnlyDiscards + 1);
    EngineOptions Interp;
    Interp.EnableJit = false;
    EXPECT_LT(S.BytecodesInterpreted * 4,
              observe(Src, Interp).Stats.BytecodesInterpreted)
        << "every call after the second recording runs on trace";
  }
}

// Every perfbench program, traced: it prints its .expected, no two
// compiled roots at one anchor with the same frame chain agree on every
// slot typed in both and live at the header, and no root is an exit-only
// trunk.
TEST_P(TypeMaps, CorpusHasNoRootsSplitOnUntypedSlots) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Programs;
  for (const auto &Ent : fs::directory_iterator(TRACEJIT_PERFBENCH_PROGRAMS))
    if (Ent.path().extension() == ".js")
      Programs.push_back(Ent.path());
  std::sort(Programs.begin(), Programs.end());
  ASSERT_FALSE(Programs.empty());
  auto Slurp = [](const fs::path &P) {
    std::ifstream F(P);
    std::stringstream S;
    S << F.rdbuf();
    return S.str();
  };
  for (const fs::path &P : Programs) {
    Engine E(traced());
    std::string Out;
    E.setPrintHook([&](const std::string &S) { Out += S; });
    EvalResult R = E.eval(Slurp(P));
    ASSERT_TRUE(R.ok()) << P << ": " << R.Err.describe();
    fs::path Expected = P;
    Expected.replace_extension(".expected");
    EXPECT_EQ(Out, Slurp(Expected)) << P;

    std::vector<const Fragment *> Roots;
    for (const auto &F : E.context().Monitor->fragments()) {
      EXPECT_FALSE(isExitOnlyTrunk(*F))
          << P.filename() << ": root " << F->Id << " at pc " << F->AnchorPc
          << " only exits";
      if (F->Kind == FragmentKind::Root && !F->Body.empty())
        Roots.push_back(F.get());
    }
    for (size_t A = 0; A < Roots.size(); ++A)
      for (size_t B = A + 1; B < Roots.size(); ++B) {
        const Fragment &X = *Roots[A], &Y = *Roots[B];
        if (X.AnchorScript != Y.AnchorScript || X.AnchorPc != Y.AnchorPc ||
            X.EntryTypes.NumGlobals != Y.EntryTypes.NumGlobals ||
            X.EntryTypes.size() != Y.EntryTypes.size() ||
            X.EntryFrames.size() != Y.EntryFrames.size())
          continue;
        bool SameFrames = true;
        for (size_t D = 0; D < X.EntryFrames.size(); ++D)
          SameFrames &= X.EntryFrames[D].Script == Y.EntryFrames[D].Script &&
                        X.EntryFrames[D].Base == Y.EntryFrames[D].Base;
        if (!SameFrames)
          continue;
        // The anchor frame's locals that are dead at the header: a type
        // there is one the tree must not specialize on.
        std::vector<uint8_t> Dead(X.EntryTypes.size(), 0);
        const std::vector<uint8_t> &Live =
            loopLiveLocals(*X.AnchorScript, *X.Loop);
        uint32_t Base = X.EntryTypes.NumGlobals + X.EntryFrames.back().Base;
        for (uint32_t K = 0; K < Live.size(); ++K)
          Dead[Base + K] = !Live[K];
        bool Differ = false;
        for (uint32_t S = 0; S < X.EntryTypes.size(); ++S)
          Differ |= !Dead[S] && X.EntryTypes.typed(S) &&
                    Y.EntryTypes.typed(S) &&
                    X.EntryTypes.Types[S] != Y.EntryTypes.Types[S];
        EXPECT_TRUE(Differ)
            << P.filename() << ": roots " << X.Id << " and " << Y.Id
            << " at pc " << X.AnchorPc << " differ only in slots one of them "
            << "leaves Boxed or that are dead at the header: "
            << X.EntryTypes.describe() << " vs " << Y.EntryTypes.describe();
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Traced, TypeMaps,
                         ::testing::Values(Backend::Native, Backend::Executor),
                         [](const ::testing::TestParamInfo<Backend> &I) {
                           return std::string(I.param == Backend::Native
                                                  ? "Native"
                                                  : "Executor");
                         });

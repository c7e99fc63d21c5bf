//===- test_generic_access.cpp - Megamorphic property sites on trace -----------===//
//
// At a megamorphic site the recorder emits a call to the generic lookup
// (tj_GetPropGeneric) or the generic store (tj_InitProp) instead of a shape
// guard, and guards only the type of a read's result. Every program here
// runs with the interpreter, then with the JIT on the native and executor
// backends, and the outputs must match. The last test drives a fragment
// with more exit stubs than rel8 jumps to its exit tail can reach.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"

using namespace tracejit;

namespace {

struct JsRun {
  std::string Out;
  VMStats Stats;
  std::vector<FragmentProfile> Profiles;
};

JsRun runOnce(const std::string &Src, bool Jit, Backend B) {
  EngineOptions O;
  O.EnableJit = Jit;
  O.JitBackend = B;
  // Megamorphic verdicts come from IC feedback; opt in even where the
  // build defaults ICs off.
  O.EnableIC = true;
  O.CollectStats = true;
  Engine E(O);
  JsRun R;
  E.setPrintHook([&](const std::string &S) { R.Out += S; });
  auto Res = E.eval(Src);
  EXPECT_TRUE(Res.ok()) << Res.Err.describe();
  R.Stats = E.stats();
  R.Profiles = E.fragmentProfiles();
  return R;
}

/// Runs \p Src interpreted and on both JIT backends; every output must
/// equal the interpreter's. Returns {native, executor}.
std::vector<JsRun> runAll(const std::string &Src) {
  JsRun I = runOnce(Src, /*Jit=*/false, Backend::Native);
  EXPECT_FALSE(I.Out.empty());
  std::vector<JsRun> Rs;
  for (Backend B : {Backend::Native, Backend::Executor}) {
    Rs.push_back(runOnce(Src, /*Jit=*/true, B));
    EXPECT_EQ(Rs.back().Out, I.Out)
        << (B == Backend::Native ? "native" : "executor");
  }
  return Rs;
}

/// shaped(k) builds an object of the k-th of eight distinct shapes.
const char *EightShapes = R"js(
function shaped(k) {
  var o = {};
  if (k == 0) { o.a0 = 1; }
  if (k == 1) { o.a1 = 1; o.b1 = 1; }
  if (k == 2) { o.a2 = 1; }
  if (k == 3) { o.a3 = 1; o.b3 = 1; o.c3 = 1; }
  if (k == 4) { o.a4 = 1; }
  if (k == 5) { o.a5 = 1; o.b5 = 1; }
  if (k == 6) { o.a6 = 1; }
  if (k == 7) { o.a7 = 1; o.b7 = 1; }
  return o;
}
)js";

} // namespace

TEST(GenericPropAccess, AbsentPropertyReadsUndefined) {
  // Odd objects lack `v`: the generic lookup returns undefined for them,
  // which the recorded type guard sends to a branch trace.
  std::string Src = std::string(EightShapes) + R"js(
var os = [];
for (var k = 0; k < 8; ++k) {
  var o = shaped(k);
  if (k % 2 == 0) o.v = k;
  os[k] = o;
}
var s = 0; var missing = 0;
for (var i = 0; i < 4000; ++i) {
  var v = os[i % 8].v;
  if (v === undefined) missing = missing + 1; else s = s + v;
}
print(s); print(missing);
)js";
  for (const JsRun &R : runAll(Src)) {
    EXPECT_GE(R.Stats.IcRecorderGeneric, 1u);
    EXPECT_LT(R.Stats.SideExits, 40u);
  }
}

TEST(GenericPropAccess, ValueTypeFlipsMidLoop) {
  // The same site yields ints, then doubles, then strings: each flip fails
  // the result's type guard once and grows a branch for the new type.
  std::string Src = std::string(EightShapes) + R"js(
var words = ["a", "bb", "ccc"];
var ints = []; var dbls = []; var strs = [];
for (var k = 0; k < 8; ++k) {
  var a = shaped(k); a.v = k; ints[k] = a;
  var b = shaped(k); b.v = k + 0.5; dbls[k] = b;
  var c = shaped(k); c.v = words[k % 3]; strs[k] = c;
}
var s = 0; var n = 0;
for (var i = 0; i < 6000; ++i) {
  var cur = ints;
  if (i >= 2000) cur = dbls;
  if (i >= 4000) cur = strs;
  var v = cur[i % 8].v;
  if (i < 4000) s = s + v; else n = n + v.length;
}
print(s); print(n);
)js";
  for (const JsRun &R : runAll(Src)) {
    EXPECT_GE(R.Stats.IcRecorderGeneric, 1u);
    EXPECT_LT(R.Stats.SideExits, 100u);
  }
}

TEST(GenericPropAccess, LengthOverArraysAndPlainObjects) {
  // Arrays answer `length` through the array-length path, plain objects
  // through the generic lookup, at one megamorphic site.
  std::string Src = std::string(EightShapes) + R"js(
var xs = [];
for (var k = 0; k < 8; ++k) {
  if (k % 3 == 0) { xs[k] = Array(k + 1); }
  else { var o = shaped(k); o.length = 10 * k; xs[k] = o; }
}
var t = 0;
for (var i = 0; i < 4000; ++i) t = t + xs[i % 8].length;
print(t);
)js";
  for (const JsRun &R : runAll(Src)) {
    EXPECT_GE(R.Stats.IcRecorderGeneric, 1u);
    EXPECT_LT(R.Stats.SideExits, 40u);
  }
}

TEST(GenericPropAccess, MegamorphicStoreAddsSlotBeforeGuardedRead) {
  // put()'s store site is megamorphic, so on trace it is a call to the
  // generic store, which adds `extra` and moves `o` to a new shape. The
  // read of o.extra right after it is a mono site with a shape guard and a
  // slot load: both must re-read the object after the call, or the guard
  // compares the old shape and the load uses the old slot array.
  std::string Src = std::string(EightShapes) + R"js(
function put(o, v) { o.extra = v; }
for (var k = 0; k < 8; ++k) put(shaped(k), k);
var s = 0;
for (var i = 0; i < 3000; ++i) {
  var o = {a: i, b: 1, c: 2, d: 3};
  var before = o.a;
  put(o, i * 2);
  s = s + o.extra + before;
}
print(s);
)js";
  for (const JsRun &R : runAll(Src)) {
    EXPECT_GE(R.Stats.IcRecorderGeneric, 1u);
    // A guard against the stale shape would fail on every iteration, and
    // the branch grown there would hide the exits behind a stitched jump.
    EXPECT_LT(R.Stats.SideExits, 20u);
    EXPECT_EQ(R.Stats.BranchesCompiled, 0u);
  }
}

TEST(GenericPropAccess, GcInLoopWithMegamorphicDoubleReads) {
  // Each iteration reads a double through the generic lookup and stores a
  // freshly boxed one through the generic store; every 64th iteration
  // collects, freeing the cells the loop replaced.
  std::string Src = std::string(EightShapes) + R"js(
var os = [];
for (var k = 0; k < 8; ++k) { var o = shaped(k); o.d = k + 0.25; os[k] = o; }
var s = 0;
for (var i = 0; i < 4000; ++i) {
  var o = os[i % 8];
  var d = o.d;
  o.d = d + 0.5;
  s = s + d;
  if ((i & 63) == 63) gc();
}
print(s);
)js";
  for (const JsRun &R : runAll(Src)) {
    EXPECT_GE(R.Stats.IcRecorderGeneric, 2u);
    EXPECT_GE(R.Stats.GCs, 1u);
  }
}

TEST(GenericPropAccess, ManyExitStubsReportTheSameGuardHits) {
  // One root fragment with more than 19 exit stubs, so the earliest stubs
  // reach the exit tail with jmp rel32 and the rest with jmp rel8. Each
  // `i == K` guard fails exactly once, on iteration K; the exits are too
  // cold to grow branches, so every taken guard reports Hits == 1, the
  // same on both backends.
  std::string Body;
  for (int K = 0; K < 30; ++K)
    Body += "  if (i == " + std::to_string(1000 + K * 37) + ") t = t + " +
            std::to_string(K + 1) + ";\n";
  std::string Src = "var t = 0;\nfor (var i = 0; i < 3000; ++i) {\n" + Body +
                    "  t = t + 1;\n}\nprint(t);\n";
  std::vector<JsRun> Rs = runAll(Src);
  ASSERT_EQ(Rs.size(), 2u);
  auto rootGuards = [](const JsRun &R) {
    std::vector<uint64_t> Hits;
    for (const FragmentProfile &P : R.Profiles)
      if (P.IsRoot && P.Guards.size() > Hits.size()) {
        Hits.clear();
        for (const GuardProfile &G : P.Guards)
          Hits.push_back(G.Hits);
      }
    return Hits;
  };
  std::vector<uint64_t> Native = rootGuards(Rs[0]);
  std::vector<uint64_t> Exec = rootGuards(Rs[1]);
  ASSERT_GT(Native.size(), 30u);
  EXPECT_EQ(Native, Exec);
  uint32_t TakenOnce = 0;
  for (uint64_t H : Native)
    TakenOnce += H == 1;
  EXPECT_GE(TakenOnce, 30u);
}

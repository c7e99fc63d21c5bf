//===- ablations.cpp - The paper's design claims, one section each --------===//
//
// The ungated companion of bench/snapshot: one table per design choice the
// paper backs with its own evaluation. Each section is data (suite.h
// Section): the claim, its programs with their expected output, named
// engine configurations and the VMStats counters that show the mechanism
// at work. Sections, in paper order:
//
//   sieve      §2 running example (Figs. 1-4): speedup, trace topology,
//              listener and verifier cost, the hottest fragment's size
//   threshold  §3.2 hot-loop threshold sweep
//   blacklist  §3.3 blacklisting of an untraceable hot loop
//   nesting    §4 nested trace trees on vs. off
//   filters    §5.1 LIR pass pipeline, one pass left out at a time
//   stitching  §6.2 trace stitching on vs. off
//   preempt    §6.4 preemption-guard cost
//   cache      code-cache flush churn under a one-page cache
//   ic         property inline caches: mono-, poly- and megamorphic sites
//
// Timing protocol: every program runs its configurations on fresh engines,
// interleaved rep by rep (one warm-up rep, then Reps timed reps); a row is
// the median. Every run, warm-up included, must print the program's
// expected output. Counters come from a configuration's last timed rep, so
// only configurations that set CollectStats show them (they also pay for
// counting in their time).
//
// Usage: ablations [section...]
//   Runs the named sections (all by default). Exits 1 if any run fails its
//   output check, 2 on an unknown section name.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

namespace {

EngineOptions withStats(EngineOptions O) {
  O.CollectStats = true;
  return O;
}

// --- §2: the sieve of Figure 1 -----------------------------------------------

const char *const SieveSource = R"js(
var n = 30000;
var primes = Array(n);
var count = 0;
for (var rep = 0; rep < 10; rep++) {
  for (var p = 0; p < n; ++p) primes[p] = true;
  for (var i = 2; i < n; ++i) {
    if (!primes[i]) continue;
    for (var k = i + i; k < n; k += i)
      primes[k] = false;
  }
  count = 0;
  for (var q = 2; q < n; ++q) if (primes[q]) count = count + 1;
}
print(count);
)js";

/// The per-iteration footprint of the hottest fragment (the Figure 3/4
/// analog) and the size of the captured event stream, from one untimed
/// stats-on run.
void sieveDetail(const BenchProgram &P) {
  Engine E(withStats(tracingOptions()));
  ChromeTraceCollector Events;
  E.addEventListener(&Events);
  E.setPrintHook([](const std::string &) {});
  if (!E.eval(P.Source).ok())
    return;
  std::vector<FragmentProfile> Profiles = E.fragmentProfiles();
  const FragmentProfile *Hot = nullptr;
  for (const FragmentProfile &F : Profiles)
    if (F.NativeBytes && (!Hot || F.Iterations > Hot->Iterations))
      Hot = &F;
  if (Hot)
    printf("  hottest fragment: %u LIR instructions, %u native bytes, "
           "covering %u bytecodes per iteration\n",
           Hot->LirAfterFilters, Hot->NativeBytes, Hot->BytecodesCovered);
  printf("  jit+listener captures %zu JIT events per run\n",
         Events.events().size());
}

Section sieve() {
  EngineOptions Jit = tracingOptions();
  Jit.VerifyLir = true;
  EngineOptions Listener = Jit;
  Listener.CaptureTraceEvents = true;
  EngineOptions NoVerify = Jit;
  NoVerify.VerifyLir = false;
  return {"sieve",
          "§2 running example: the sieve of Eratosthenes (Figures 1-4)",
          "The §2 narrative plays out on this loop nest: inner tree T45, "
          "outer tree T16 calling it,\nbranch T23,1 at the hot `continue` "
          "exit. Figure 4: \"The 17 instructions generated by the\ncompiler "
          "compare favorably with the 100+ instructions that the interpreter "
          "would execute\".\njit+listener and jit-verify against jit give "
          "the event listener's and the LIR verifier's\ncost; both should be "
          "within noise (the verifier runs at compile time only).",
          {{"sieve", SieveSource, "3245\n", true}},
          {{"interp", interpreterOptions()},
           {"jit+stats", withStats(Jit)},
           {"jit", Jit},
           {"jit+listener", Listener},
           {"jit-verify", NoVerify}},
          {{"trees", &VMStats::TreesCompiled},
           {"branches", &VMStats::BranchesCompiled},
           {"treecalls", &VMStats::TreeCalls},
           {"stitched", &VMStats::StitchedTransfers},
           {"facts", &VMStats::AnalysisFacts},
           {"elided", &VMStats::StaticGuardsElided},
           {"verified", &VMStats::TracesVerified},
           {"lir-verified", &VMStats::LirInsVerified},
           {"verify-fail", &VMStats::VerifyFailures}},
          5,
          sieveDetail};
}

// --- §3.2: hot-loop threshold --------------------------------------------------

Section threshold() {
  std::vector<NamedConfig> Configs;
  for (uint32_t T : {2u, 8u, 32u, 128u, 1024u}) {
    EngineOptions O = tracingOptions();
    O.HotLoopThreshold = T;
    Configs.push_back({"hot=" + std::to_string(T), O});
  }
  return {"threshold",
          "§3.2 ablation: hot-loop threshold sweep",
          "\"TraceMonkey starts a tree when a given loop header has been "
          "executed a certain number of\ntimes (2 in the current "
          "implementation).\" SunSpider programs are short, so the low\n"
          "threshold should be best or near-best; large thresholds leave "
          "loops interpreted.",
          suite(),
          Configs,
          {},
          3};
}

// --- §3.3: blacklisting ----------------------------------------------------------

Section blacklist() {
  EngineOptions Off = tracingOptions();
  Off.EnableBlacklisting = false;
  return {"blacklist",
          "§3.3 ablation: blacklisting of untraceable hot loops",
          "\"If a hot loop contains traces that always fail, the VM could "
          "potentially run much more\nslowly than the base interpreter.\" "
          "Every recording of this loop aborts (recursive callee).\nWith "
          "blacklisting the cost over the interpreter stays bounded; without "
          "it recording\nattempts keep accumulating.",
          {{"untraceable-hot-loop",
            "function fib(n) { if (n < 2) return n; return fib(n-1) + "
            "fib(n-2); }\n"
            "var s = 0;\n"
            "for (var i = 0; i < 60000; ++i) s += fib(3) + (i & 7);\n"
            "print(s);",
            "330000\n", false}},
          {{"interp", interpreterOptions()},
           {"blacklist", withStats(tracingOptions())},
           {"no-blacklist", withStats(Off)}},
          {{"aborts", &VMStats::TracesAborted},
           {"blacklisted", &VMStats::LoopsBlacklisted}}};
}

// --- §4: nested trace trees --------------------------------------------------

Section nesting() {
  EngineOptions Off = tracingOptions();
  Off.EnableNesting = false;
  return {"nesting",
          "§4 ablation: nested trace trees on vs. off",
          "Without nesting a tracing VM must duplicate outer-loop code or "
          "give up on outer loops;\nEnableNesting=false is the second "
          "strawman. Nesting should win where the outer loop\ncarries real "
          "work per iteration.",
          {{"nest2-uniform",
            "var c = 0;\n"
            "for (var i = 0; i < 2000; ++i)\n"
            "  for (var j = 0; j < 200; ++j)\n"
            "    c = c + 1;\n"
            "print(c);",
            "400000\n", true},
           {"nest2-branchy-inner",
            "var a = 0, b = 0;\n"
            "for (var i = 0; i < 2000; ++i)\n"
            "  for (var j = 0; j < 200; ++j)\n"
            "    if ((i + j) % 3 == 0) a += 1; else b += 1;\n"
            "print(a, b);",
            "133333 266667\n", true},
           {"nest3-deep",
            "var c = 0;\n"
            "for (var i = 0; i < 64; ++i)\n"
            "  for (var j = 0; j < 64; ++j)\n"
            "    for (var k = 0; k < 64; ++k)\n"
            "      c = c + 1;\n"
            "print(c);",
            "262144\n", true},
           {"nest2-short-outer-work",
            "var s = 0;\n"
            "for (var i = 0; i < 30000; ++i) {\n"
            "  s += i & 7;\n"
            "  for (var j = 0; j < 8; ++j) s += 1;\n"
            "}\n"
            "print(s);",
            "345000\n", true}},
          {{"no-nest", withStats(Off)},
           {"nested", withStats(tracingOptions())}},
          {{"traces", &VMStats::TracesCompleted}}};
}

// --- §5.1: the LIR pass pipeline ----------------------------------------------

Section filters() {
  auto Pipeline = [](OptPipeline Passes) {
    EngineOptions O = withStats(tracingOptions());
    O.Passes = Passes;
    return O;
  };
  std::vector<NamedConfig> Configs = {{"-O2", Pipeline(OptPipeline::level(2))},
                                      {"-O0", Pipeline(OptPipeline::level(0))}};
  for (uint32_t B = 0; B < (uint32_t)OptPass::NumPasses; ++B) {
    OptPass P = (OptPass)B;
    Configs.push_back({std::string("no-") + optPassName(P),
                       Pipeline(OptPipeline::level(2).remove(P))});
  }
  Configs.push_back({"none", Pipeline(OptPipeline())});
  // A pass-sensitive subset: redundant loads and stores, guards and
  // loop-invariant address arithmetic.
  std::vector<BenchProgram> Programs;
  for (const char *Name : {"bitops-3bit-bits-in-byte", "math-cordic",
                           "access-nsieve", "crypto-sha1", "3d-morph"})
    Programs.push_back(loadProgram(Name));
  return {"filters",
          "§5.1 ablation: LIR pass pipeline",
          "-O levels, then -O2 minus one pass at a time. The §5.1 filters "
          "shrink the LIR stream (dead\nstack stores dominate the removals); "
          "CSE drops dominated guards and hoisting cuts the\nper-iteration "
          "guard count on loop kernels. Only time and counters may move.",
          Programs,
          Configs,
          {{"lir-after", &VMStats::LirAfterBackwardFilters},
           {"guards-elim", &VMStats::GuardsEliminated},
           {"ins-hoisted", &VMStats::InsHoisted},
           {"guards-hoisted", &VMStats::GuardsHoisted}}};
}

// --- §6.2: trace stitching ----------------------------------------------------

Section stitching() {
  EngineOptions Off = tracingOptions();
  Off.EnableStitching = false;
  return {"stitching",
          "§6.2 ablation: trace stitching on vs. off",
          "\"Transitions from a trace to a branch trace at a side exit avoid "
          "the costs of calling\ntraces from the monitor.\" With stitching "
          "off no branch traces grow: branchy loops should\ndegrade sharply, "
          "rare branches barely care.",
          {{"alternating-branches",
            "var a = 0, b = 0;\n"
            "for (var i = 0; i < 400000; ++i) {\n"
            "  if ((i & 1) == 0) a += i; else b += i;\n"
            "}\n"
            "print(a, b);",
            "39999800000 40000000000\n", true},
           {"three-way-mod",
            "var x = 0, y = 0, z = 0;\n"
            "for (var i = 0; i < 300000; ++i) {\n"
            "  var m = i % 3;\n"
            "  if (m == 0) x += 1; else if (m == 1) y += 2; else z += 3;\n"
            "}\n"
            "print(x, y, z);",
            "100000 200000 300000\n", true},
           {"rare-branch",
            "var s = 0;\n"
            "for (var i = 0; i < 400000; ++i) {\n"
            "  if ((i & 1023) == 0) s += 100; else s += 1;\n"
            "}\n"
            "print(s);",
            "438709\n", true}},
          {{"no-stitch", withStats(Off)},
           {"stitch", withStats(tracingOptions())}},
          {{"branches", &VMStats::BranchesCompiled},
           {"side-exits", &VMStats::SideExits}}};
}

// --- §6.4: preemption guard -----------------------------------------------------

Section preempt() {
  EngineOptions Off = tracingOptions();
  Off.EnablePreemptGuard = false;
  std::vector<BenchProgram> Programs = suite();
  // Very short loop body: the worst case the paper calls out.
  Programs.push_back({"short-loop-worst-case",
                      "var s = 0;\n"
                      "for (var r = 0; r < 4000; ++r)\n"
                      "  for (var i = 0; i < 100; ++i) s += 1;\n"
                      "print(s);",
                      "400000\n", true});
  std::string Claim =
      "\"We measured less than a 1% increase in runtime on most benchmarks "
      "for this extra guard.\nIn practice, the cost is detectable only for "
      "programs with very short loops.\"\nWith the guard off, a GC request "
      "never reaches code on trace either: on the\nprograms that "
      "allocate on trace (access-nbody, string-base64) the guard-off "
      "rows\ncollect less often (1 vs 5 and 0 vs 3 times) and measure "
      "heap growth, not the guard.\nThe timed rows collect no stats; "
      "the two +stats rows count the collections.";
  return {"preempt",
          "§6.4: preemption-guard overhead (guard off / on)",
          Claim,
          Programs,
          {{"guard-off", Off},
           {"guard-on", tracingOptions()},
           {"guard-off+stats", withStats(Off)},
           {"guard-on+stats", withStats(tracingOptions())}},
          {{"GCs", &VMStats::GCs}}};
}

// --- Code-cache lifecycle ---------------------------------------------------------

/// \p Loops distinct loop headers, each hot and each a distinct fragment.
std::string churnSource(int Loops, int Iters) {
  std::string S = "var total = 0;\n";
  for (int L = 0; L < Loops; ++L) {
    std::string I = "i";
    I += std::to_string(L);
    std::string A = "a";
    A += std::to_string(L);
    S += "var " + A + " = 0;\n";
    S += "for (var " + I + " = 0; " + I + " < " + std::to_string(Iters) +
         "; ++" + I + ") { " + A + " += " + I + " * " +
         std::to_string(L + 1) + " + " + std::to_string(L % 5) + "; }\n";
    S += "total += " + A + ";\n";
  }
  S += "print(total);";
  return S;
}

Section cache() {
  EngineOptions Tiny = withStats(tracingOptions());
  Tiny.CodeCacheBytes = 4096;      // one page: a handful of fragments at most
  Tiny.MaxCacheFlushes = 1u << 20; // measure churn, not the kill switch
  return {"cache",
          "code-cache lifecycle: flush churn under a bounded cache",
          "24 distinct hot loops. The default 32 MiB cache compiles each "
          "loop once and never flushes;\nthe one-page cache flushes "
          "repeatedly, yet stays correct and bounded: each flush costs one\n"
          "pool reset plus re-warming the retired loops.",
          {{"cache-churn-24-loops", churnSource(24, 20000), "59997920000\n",
            false}},
          {{"interp", interpreterOptions()},
           {"32MiB-cache", withStats(tracingOptions())},
           {"4KiB-cache", Tiny}},
          {{"trees", &VMStats::TreesCompiled},
           {"flushes", &VMStats::CacheFlushes},
           {"retired", &VMStats::FragmentsRetired},
           {"reclaimed(B)", &VMStats::CacheBytesReclaimed}}};
}

// --- Property inline caches ---------------------------------------------------------

// One shape per site, and property reads dominate the loop: four walks of
// a seven-deep object chain per iteration (28 GetProps against ~5
// GetGlobals), plus one SetProp for the write IC.
const char *const MonoSource = R"js(
var t = {}; t.v = 3;
var c6 = {}; c6.g = t;
var c5 = {}; c5.f = c6;
var c4 = {}; c4.e = c5;
var c3 = {}; c3.d = c4;
var c2 = {}; c2.c = c3;
var r = {}; r.b = c2;
var s = 0;
for (var i = 0; i < 400000; ++i) {
  s = s + r.b.c.d.e.f.g.v + r.b.c.d.e.f.g.v
        + r.b.c.d.e.f.g.v + r.b.c.d.e.f.g.v;
  t.v = 3 + s % 2;
}
print(s);
)js";

// Four shapes (different property orders), all with `x` and `y`; the
// access site cycles through them.
const char *const PolySource = R"js(
function mk0() { var o = {}; o.x = 1; o.y = 2; return o; }
function mk1() { var o = {}; o.y = 2; o.x = 1; return o; }
function mk2() { var o = {}; o.x = 1; o.z = 0; o.y = 2; return o; }
function mk3() { var o = {}; o.w = 0; o.x = 1; o.y = 2; return o; }
var os = Array(4);
os[0] = mk0(); os[1] = mk1(); os[2] = mk2(); os[3] = mk3();
var s = 0;
for (var i = 0; i < 400000; ++i) {
  var o = os[i % 4];
  s = s + o.x + o.y;
}
print(s);
)js";

// Eight shapes overflow PropertyIC::MaxEntries: the site goes megamorphic.
const char *const MegaSource = R"js(
function mkA() { var o = {}; o.x = 1; o.p0 = 0; return o; }
function mkB() { var o = {}; o.p1 = 0; o.x = 1; return o; }
function mkC() { var o = {}; o.p2 = 0; o.p3 = 0; o.x = 1; return o; }
function mkD() { var o = {}; o.x = 1; o.p4 = 0; o.p5 = 0; return o; }
function mkE() { var o = {}; o.p6 = 0; o.x = 1; o.p7 = 0; return o; }
function mkF() { var o = {}; o.p8 = 0; o.p9 = 0; o.pa = 0; o.x = 1; return o; }
function mkG() { var o = {}; o.pb = 0; o.x = 1; o.pc = 0; o.pd = 0; return o; }
function mkH() { var o = {}; o.pe = 0; o.pf = 0; o.x = 1; o.pg = 0; return o; }
var os = Array(8);
os[0] = mkA(); os[1] = mkB(); os[2] = mkC(); os[3] = mkD();
os[4] = mkE(); os[5] = mkF(); os[6] = mkG(); os[7] = mkH();
var s = 0;
for (var i = 0; i < 400000; ++i) {
  var o = os[i % 8];
  s = s + o.x;
}
print(s);
)js";

Section ic() {
  return {"ic",
          "property-access inline caches",
          "Per-site ICs (vm/ic.h) spare the interpreter a shape-dictionary "
          "lookup per GetProp/SetProp.\nmono and poly sites hit; the "
          "eight-shape site goes megamorphic and falls back to the\n"
          "dictionary. On trace, mono/poly sites feed the recorder "
          "(rec-hits) and the megamorphic one\nis recorded as a generic "
          "lookup call (rec-generic).",
          {{"mono", MonoSource, "4800000\n", true},
           {"poly", PolySource, "1200000\n", true},
           {"mega", MegaSource, "400000\n", true}},
          {{"interp", interpreterOptions()},
           {"interp+stats", withStats(interpreterOptions())},
           {"jit+stats", withStats(tracingOptions())}},
          {{"ic-hits", &VMStats::IcHits},
           {"ic-misses", &VMStats::IcMisses},
           {"rec-hits", &VMStats::IcRecorderHits},
           {"rec-generic", &VMStats::IcRecorderGeneric},
           {"mega-sites", &VMStats::IcMegaSites},
           {"traces", &VMStats::TracesCompleted}}};
}

} // namespace

int main(int argc, char **argv) {
  const std::vector<Section> All = {sieve(),   threshold(), blacklist(),
                                    nesting(), filters(),   stitching(),
                                    preempt(), cache(),     ic()};
  std::set<std::string> Chosen(argv + 1, argv + argc), Unknown = Chosen;
  for (const Section &S : All)
    Unknown.erase(S.Name);
  if (!Unknown.empty()) {
    fprintf(stderr, "unknown section %s; sections:", Unknown.begin()->c_str());
    for (const Section &S : All)
      fprintf(stderr, " %s", S.Name);
    fprintf(stderr, "\n");
    return 2;
  }
  bool AllOk = true;
  for (const Section &S : All)
    if (Chosen.empty() || Chosen.count(S.Name))
      AllOk = runSection(S) && AllOk;
  return AllOk ? 0 : 1;
}

//===- test_string_number.cpp - Unit strings, concatenation, ToInt32 ------===//
//
// charAt, s[i] and one-argument String.fromCharCode return interned unit
// strings; concatenation writes straight into the new cell; ToInt32
// truncates through int64_t below 2^63. Each program runs traced on both
// backends and must agree with the interpreter on the printed output and on
// every global's final value.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "api/engine.h"
#include "interp/interpreter.h"

using namespace tracejit;

namespace {

/// ECMA-262 ToInt32 as the interpreter computed it before the int64_t fast
/// path: the reference the fast path must reproduce.
int32_t referenceToInt32(double D) {
  if (std::isnan(D) || std::isinf(D))
    return 0;
  double T = std::trunc(D);
  double M = std::fmod(T, 4294967296.0);
  if (M < 0)
    M += 4294967296.0;
  return (int32_t)(uint32_t)M;
}

struct Observed {
  bool Ok = false;
  std::string Error;
  std::string Out;
  std::vector<std::string> Globals; ///< "name=value", in slot order.
  VMStats Stats;
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
  return R;
}

class StringNumber : public ::testing::TestWithParam<Backend> {
protected:
  /// Run \p Src traced on this backend; it must match the interpreter.
  Observed runAgainstInterpreter(const std::string &Src) {
    EngineOptions Interp;
    Interp.EnableJit = false;
    Observed Want = observe(Src, Interp);
    EXPECT_TRUE(Want.Ok) << Want.Error;
    EngineOptions O;
    O.EnableJit = true;
    O.JitBackend = GetParam();
    Observed Got = observe(Src, O);
    EXPECT_TRUE(Got.Ok) << Got.Error;
    EXPECT_EQ(Got.Out, Want.Out);
    EXPECT_EQ(Got.Globals, Want.Globals);
    return Got;
  }
};

} // namespace

TEST(ToInt32, MatchesTheTruncFmodReference) {
  const double P31 = 2147483648.0, P32 = 4294967296.0;
  const double P53 = 9007199254740992.0, P63 = 9223372036854775808.0;
  const double Inf = std::numeric_limits<double>::infinity();
  const std::vector<double> Values = {
      0.0,        -0.0,        0.5,         -0.5,
      P31 - 1,    -(P31 - 1),  P31,         -P31,
      P32,        -P32,        P32 + 5,     P53,
      -P53,       P53 + 2,     P63 - 1024,  -(P63 - 1024),
      -P63,       P63,         P63 + 2048,  1e300,
      -1e300,     5e-324,      -5e-324,     std::nan(""),
      Inf,        -Inf,        123456.75,   -98765.25,
      P32 * 3 + 7.9, -(P32 * 5) - 3.1};
  for (double D : Values)
    EXPECT_EQ(Interpreter::toInt32(D), referenceToInt32(D)) << D;
  EXPECT_EQ(Interpreter::toInt32(P31), INT32_MIN);
  EXPECT_EQ(Interpreter::toInt32(P32 + 5), 5);
  EXPECT_EQ(Interpreter::toInt32(P63 - 1024), -1024);
}

TEST_P(StringNumber, UnitStringsAndConcatenationMatchTheInterpreter) {
  // charAt in and out of range, s[i], fromCharCode with one and two
  // arguments, === between a unit string and an equal concatenated one,
  // string + number in both orders, and += growth across gc() calls.
  Observed R = runAgainstInterpreter(R"(
    var s = "abcdefghij", hits = 0, same = 0, acc = "", empties = 0;
    var sn = "", ns = "", two = "", found = 0;
    for (var i = 0; i < 300; ++i) {
      var c = s.charAt(i % 12);
      var d = s[i % 10];
      var e = String.fromCharCode(97 + (i % 26));
      var f = String.fromCharCode(104, 105 + (i % 3));
      if (c === "") empties = empties + 1;
      var cat = "" + d;
      if (cat === d) same = same + 1;
      if (e === "q") hits = hits + 1;
      if (("x" + e).charAt(1) === e) hits = hits + 1;
      if (s.indexOf(d) == i % 10) found = found + 1;
      sn = "n" + (i * 0.25);
      ns = (i + 0.5) + "x" + i;
      two = f + c + d + e;
      if (i % 50 == 0) print(i, c, d, e, f, cat, sn, ns, two);
    }
    for (var k = 0; k < 6; ++k) {
      for (var j = 0; j < 40; ++j)
        acc += s.charAt(j % 10) + j;
      gc();
    }
    print(acc.length, acc.charAt(100), hits, same, empties, found);
  )");
  EXPECT_NE(R.Out.find("660 6 311 300 50 300"), std::string::npos) << R.Out;
  // The += loop compiles one tree; its loop test exits through its own
  // LoopExit, so no branch is grown there.
  EXPECT_GE(R.Stats.TracesCompleted, 1u);
  EXPECT_GE(R.Stats.GCs, 6u);
}

TEST_P(StringNumber, ToInt32OnTraceMatchesTheInterpreter) {
  // Doubles spanning every ToInt32 boundary through `| 0`, `>> 3` and
  // `>>> 0` in a traced loop.
  Observed R = runAgainstInterpreter(R"(
    var p32 = 4294967296, p31 = 2147483648;
    var p53 = p32 * 2097152, p63 = p53 * 1024;
    var xs = [0, -0, 0.5, -0.5, p31 - 1, 1 - p31, p31, -p31, p32, -p32,
              p32 + 5, p53, -p53, p53 + 2, p63 - 1024, 1024 - p63, -p63, p63,
              p63 + 2048, 1e300, 5e-324, 0 / 0, 1 / 0, -1 / 0, 123456.75,
              -98765.25];
    var n = xs.length, a = 0, b = 0, c = 0, line = "";
    for (var k = 0; k < 2600; ++k) {
      var x = xs[k % n];
      a = (a + (x | 0)) | 0;
      b = (b + (x >> 3)) | 0;
      c = (c + (x >>> 0)) % 1000000007;
      if (k < n)
        line = line + (x | 0) + "," + (x >> 3) + "," + (x >>> 0) + ";";
    }
    print(line);
    print(a, b, c);
  )");
  EXPECT_NE(R.Out.find("2674600 -2147149548 989580981"), std::string::npos)
      << R.Out;
  EXPECT_GE(R.Stats.TracesCompleted, 1u);
}

TEST_P(StringNumber, NaNAndInfinityAreNumberConstants) {
  // NaN and Infinity are read-only globals in ES5: at top level, in a hot
  // loop and inside a function they read as numbers, unless a parameter or
  // local of that name shadows them.
  Observed R = runAgainstInterpreter(R"(
    print(NaN, Infinity, -Infinity, NaN + 1, NaN == NaN);
    function shadow(NaN) { var Infinity = 2; return NaN + Infinity; }
    function inner(x) { return x < Infinity && x == x ? x : NaN; }
    var nans = 0, infs = 0, sum = 0, sh = 0;
    for (var i = 0; i < 500; ++i) {
      if (inner(i % 7 == 0 ? NaN : i) != inner(i % 7 == 0 ? NaN : i))
        nans = nans + 1;
      if (i / 0 == Infinity) infs = infs + 1;
      if (-i / 0 == -Infinity) infs = infs + 1;
      sum = sum + (i < Infinity ? 1 : 0);
      sh = sh + shadow(i);
    }
    print(nans, infs, sum, sh, Infinity - Infinity, 1 / Infinity);
  )");
  EXPECT_EQ(R.Out, "NaN Infinity -Infinity NaN false\n"
                   "72 998 500 125750 NaN 0\n");
  EXPECT_GE(R.Stats.TracesCompleted, 1u);
}

INSTANTIATE_TEST_SUITE_P(Runtime, StringNumber,
                         ::testing::Values(Backend::Native, Backend::Executor),
                         [](const ::testing::TestParamInfo<Backend> &I) {
                           return std::string(I.param == Backend::Native
                                                  ? "Native"
                                                  : "Executor");
                         });

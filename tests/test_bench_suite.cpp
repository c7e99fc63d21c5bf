//===- test_bench_suite.cpp - The bench/ harness and its program loader ---===//
//
// bench/ times the perfbench programs, read in place with their committed
// .expected output, and the ablation sections' own programs with theirs.
// These tests pin the suite's shape and show that the harness checks every
// run against that output: a run that prints something else fails instead
// of being timed, and fails its section.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

TEST(BenchSuite, LoadsSixteenProgramsWithSourceAndExpectedOutput) {
  const std::vector<BenchProgram> &S = suite();
  ASSERT_EQ(S.size(), 16u);
  EXPECT_STREQ(S.front().Name, "bitops-bitwise-and");
  EXPECT_STREQ(S.back().Name, "string-validate-input");
  std::set<std::string> Names;
  for (const BenchProgram &P : S) {
    EXPECT_TRUE(Names.insert(P.Name).second) << "duplicate " << P.Name;
    EXPECT_FALSE(P.Source.empty()) << P.Name;
    EXPECT_FALSE(P.Expected.empty()) << P.Name;
  }
}

TEST(BenchSuite, TimeConfigsMatchesTheCommittedOutput) {
  const BenchProgram P = loadProgram("bitops-bitwise-and");
  Timing T = timeConfigs(P, {interpreterOptions(), tracingOptions()},
                         /*Reps=*/3);
  ASSERT_TRUE(T.Ok) << T.Error;
  ASSERT_EQ(T.MedianMs.size(), 2u);
  ASSERT_EQ(T.Stats.size(), 2u);
  EXPECT_GT(T.MedianMs[0], 0);
  EXPECT_GT(T.MedianMs[1], 0);
}

TEST(BenchSuite, TimeConfigsRejectsOutputThatDiffersFromExpected) {
  BenchProgram P = loadProgram("bitops-bitwise-and");
  P.Expected = "1" + P.Expected;
  for (const EngineOptions &O : {interpreterOptions(), tracingOptions()}) {
    Timing T = timeConfigs(P, {O}, /*Reps=*/1);
    EXPECT_FALSE(T.Ok);
    EXPECT_NE(T.Error.find("output mismatch"), std::string::npos) << T.Error;
  }
}

TEST(BenchSuite, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(BenchSuite, RunSectionFailsWhenAProgramMissesItsExpectedOutput) {
  const BenchProgram Good{"count", "var s = 0;\n"
                                   "for (var i = 0; i < 100; ++i) s += i;\n"
                                   "print(s);",
                          "4950\n", true};
  BenchProgram Bad = Good;
  Bad.Expected = "4951\n";
  for (const EngineOptions &O : {interpreterOptions(), tracingOptions()}) {
    Section S{"check", "output check", "", {Good}, {{"config", O}}, {}, 1};
    EXPECT_TRUE(runSection(S));
    S.Programs.push_back(Bad);
    EXPECT_FALSE(runSection(S)) << "JIT " << O.EnableJit;
  }
}

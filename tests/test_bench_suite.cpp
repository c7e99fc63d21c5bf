//===- test_bench_suite.cpp - The bench/ harness and its program loader ---===//
//
// bench/ times the perfbench programs, read in place with their committed
// .expected output. These tests pin the suite's shape and show that the
// harness checks every run against that output: a run that prints
// something else fails instead of being timed.
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

TEST(BenchSuite, RunProgramMatchesTheCommittedOutput) {
  const BenchProgram P = loadProgram("bitops-bitwise-and");
  for (const EngineOptions &O : {interpreterOptions(), tracingOptions()}) {
    RunResult R = runProgram(P, O, /*Runs=*/1);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_GT(R.MeanMs, 0);
  }
}

TEST(BenchSuite, RunProgramRejectsOutputThatDiffersFromExpected) {
  BenchProgram P = loadProgram("bitops-bitwise-and");
  P.Expected = "1" + P.Expected;
  for (const EngineOptions &O : {interpreterOptions(), tracingOptions()}) {
    RunResult R = runProgram(P, O, /*Runs=*/1);
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("output mismatch"), std::string::npos) << R.Error;
  }
}

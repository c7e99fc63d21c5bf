//===- test_name_tables.cpp - Enum name-table completeness --------------------===//
//
// The X-macro lists in support/events.cpp pin each name table's size and
// order at compile time; this suite re-checks the runtime-visible half of
// the contract: every in-range enumerator resolves to a real, distinct
// name (never the "?" fallback), and out-of-range lookups degrade to "?"
// instead of reading past the table.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "lir/lir.h"
#include "support/events.h"

using namespace tracejit;

namespace {

template <typename EnumT, typename NameFn>
void checkTable(size_t Count, NameFn Name, const char *What) {
  std::set<std::string> Seen;
  for (size_t I = 0; I < Count; ++I) {
    const char *S = Name((EnumT)I);
    ASSERT_NE(S, nullptr) << What << " value " << I;
    EXPECT_STRNE(S, "?") << What << " value " << I << " has no name";
    EXPECT_GT(std::strlen(S), 0u) << What << " value " << I;
    EXPECT_TRUE(Seen.insert(S).second)
        << What << " name '" << S << "' appears twice";
  }
  EXPECT_STREQ(Name((EnumT)Count), "?") << What << " out-of-range lookup";
}

} // namespace

TEST(NameTables, AbortReasonsAllNamed) {
  checkTable<AbortReason>((size_t)AbortReason::NumReasons, abortReasonName,
                          "AbortReason");
}

TEST(NameTables, VerifyRulesAllNamed) {
  checkTable<VerifyRule>((size_t)VerifyRule::NumRules, verifyRuleName,
                         "VerifyRule");
}

TEST(NameTables, JitEventKindsAllNamed) {
  checkTable<JitEventKind>((size_t)JitEventKind::NumKinds, jitEventKindName,
                           "JitEventKind");
}

TEST(NameTables, LirOpsAllNamed) {
  checkTable<LOp>((size_t)LOp::NumOps, lopName, "LOp");
}

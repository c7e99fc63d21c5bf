//===- tier.cpp - Tier name tables ------------------------------------------===//

#include "trace/tier.h"

namespace tracejit {

const char *tierName(Tier T) {
  switch (T) {
  case Tier::Interpreter:
    return "interpreter";
  case Tier::Trace:
    return "trace";
  case Tier::Method:
    return "method";
  }
  return "?";
}

const char *tierChangeReasonName(TierChangeReason R) {
  switch (R) {
  case TierChangeReason::None:
    return "none";
  case TierChangeReason::BranchOverflow:
    return "branch-overflow";
  case TierChangeReason::RepeatedAborts:
    return "repeated-aborts";
  case TierChangeReason::MethodByPolicy:
    return "method-by-policy";
  case TierChangeReason::MethodCompileFailed:
    return "method-compile-failed";
  case TierChangeReason::Blacklisted:
    return "blacklisted";
  case TierChangeReason::NumReasons:
    break;
  }
  return "?";
}

} // namespace tracejit

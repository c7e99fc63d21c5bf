//===- result.h - Structured evaluation results -----------------------------===//
//
// Error/result types for the embedding API. Kept separate from engine.h so
// the frontend can report structured errors without depending on the Engine.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_API_RESULT_H
#define TRACEJIT_API_RESULT_H

#include <cstdint>
#include <string>

#include "vm/value.h"

namespace tracejit {

/// Which stage of evaluation produced an error -- or, for the resource-
/// governance kinds, which governor terminated the script. The governance
/// kinds (StackOverflow, Timeout, Interrupted, OutOfMemory) all leave the
/// engine fully reusable: heap, trace cache, and ICs survive the unwind.
enum class ErrorKind : uint8_t {
  None,
  Lex,
  Parse,
  Runtime,
  StackOverflow, ///< EngineOptions::MaxFrames (or the value stack) exceeded.
  Timeout,       ///< A deadline fired (EvalDeadlineMs or a per-eval deadline).
  Interrupted,   ///< The host asked for termination (Engine::requestInterrupt).
  OutOfMemory,   ///< Collection could not get under the heap quota
                 ///< (EngineOptions::MaxHeapBytes), or an array's storage
                 ///< could not be allocated or grow.
};

inline const char *errorKindName(ErrorKind K) {
  switch (K) {
  case ErrorKind::None:
    return "none";
  case ErrorKind::Lex:
    return "lex";
  case ErrorKind::Parse:
    return "parse";
  case ErrorKind::Runtime:
    return "runtime";
  case ErrorKind::StackOverflow:
    return "stack-overflow";
  case ErrorKind::Timeout:
    return "timeout";
  case ErrorKind::Interrupted:
    return "interrupted";
  case ErrorKind::OutOfMemory:
    return "out-of-memory";
  }
  return "?";
}

struct EngineError {
  ErrorKind Kind = ErrorKind::None;
  uint32_t Line = 0; ///< 1-based; 0 when unknown (typical for runtime errors).
  uint32_t Col = 0;  ///< 1-based; 0 when unknown.
  std::string File; ///< Source name from Engine::eval(Source, FileName); may
                    ///< be empty (anonymous eval).
  std::string Message;

  explicit operator bool() const { return Kind != ErrorKind::None; }

  /// One-line rendering, e.g. "SyntaxError: line 3, col 7: expected ';'"
  /// or, with a file name, "SyntaxError: fib.js:3:7: expected ';'".
  std::string describe() const {
    if (Kind == ErrorKind::None)
      return "";
    const char *Prefix = "SyntaxError: ";
    switch (Kind) {
    case ErrorKind::Runtime:
      Prefix = "RuntimeError: ";
      break;
    case ErrorKind::StackOverflow:
      Prefix = "StackOverflowError: ";
      break;
    case ErrorKind::Timeout:
      Prefix = "TimeoutError: ";
      break;
    case ErrorKind::Interrupted:
      Prefix = "InterruptedError: ";
      break;
    case ErrorKind::OutOfMemory:
      Prefix = "OutOfMemoryError: ";
      break;
    default:
      break;
    }
    std::string Out = Prefix;
    if (!File.empty()) {
      Out += File;
      if (Line) {
        Out += ':';
        Out += std::to_string(Line);
        if (Col) {
          Out += ':';
          Out += std::to_string(Col);
        }
      }
      Out += ": ";
    } else if (Line) {
      Out += "line ";
      Out += std::to_string(Line);
      if (Col) {
        Out += ", col ";
        Out += std::to_string(Col);
      }
      Out += ": ";
    }
    Out += Message;
    return Out;
  }
};

/// Result of Engine::eval. On success LastValue holds the value of the
/// program's last top-level expression statement (undefined when there is
/// none); on failure Err describes what went wrong and where.
struct EvalResult {
  EngineError Err;
  Value LastValue = Value::undefined();

  bool ok() const { return Err.Kind == ErrorKind::None; }
};

} // namespace tracejit

#endif // TRACEJIT_API_RESULT_H

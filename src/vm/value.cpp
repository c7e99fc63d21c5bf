//===- value.cpp - Tagged value helpers ------------------------------------===//

#include "vm/value.h"

#include <charconv>
#include <cmath>
#include <cstring>

#include "vm/gc.h"
#include "vm/object.h"
#include "vm/string.h"

namespace tracejit {

bool Value::truthy() const {
  if (isInt())
    return toInt() != 0;
  if (isDoubleCell()) {
    double D = toDoubleCell()->Val;
    return D != 0 && !std::isnan(D);
  }
  if (isString())
    return toString()->length() != 0;
  if (isSpecial())
    return specialPayload() == SpecialTrue;
  return true; // objects
}

size_t formatNumber(double D, char *Buf) {
  auto Put = [Buf](std::string_view S) {
    std::memcpy(Buf, S.data(), S.size());
    return S.size();
  };
  if (std::isnan(D))
    return Put("NaN");
  if (std::isinf(D))
    return Put(D > 0 ? "Infinity" : "-Infinity");
  // Integral values in the safe range print without a fraction, as in JS
  // (and -0 as "-0", as printf's "%.0f" does).
  if (D == std::floor(D) && std::fabs(D) < 1e15) {
    if (D == 0 && std::signbit(D))
      return Put("-0");
    return (size_t)(std::to_chars(Buf, Buf + NumberBufSize, (int64_t)D).ptr -
                    Buf);
  }
  // Shortest round-trip representation.
  return (size_t)(std::to_chars(Buf, Buf + NumberBufSize, D).ptr - Buf);
}

std::string numberToString(double D) {
  char Buf[NumberBufSize];
  return std::string(Buf, formatNumber(D, Buf));
}

std::string valueToString(const Value &V) {
  if (!V.isObject()) {
    char Buf[NumberBufSize];
    std::string Unused;
    return std::string(valueToStringView(V, Buf, Unused));
  }
  Object *O = V.toObject();
  if (O->isFunction())
    return "[function]";
  if (O->isArray()) {
    std::string S;
    for (uint32_t I = 0; I < O->arrayLength(); ++I) {
      if (I)
        S += ",";
      Value E = O->getElement(I);
      if (!E.isUndefined() && !E.isNull())
        S += valueToString(E);
    }
    return S;
  }
  return "[object Object]";
}

std::string_view valueToStringView(const Value &V, char *Buf,
                                   std::string &Slow) {
  if (V.isString())
    return V.toString()->view();
  if (V.isNumber())
    return {Buf, formatNumber(V.numberValue(), Buf)};
  if (V.isSpecial()) {
    switch (V.specialPayload()) {
    case SpecialFalse:
      return "false";
    case SpecialTrue:
      return "true";
    case SpecialNull:
      return "null";
    default:
      return "undefined";
    }
  }
  if (!V.isObject())
    return {};
  Slow = valueToString(V);
  return Slow;
}

} // namespace tracejit

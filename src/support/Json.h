//===- support/Json.h - JSON value model, parser, and writer --------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained JSON implementation. It backs (1) the converters for
/// JSON-based profiler formats (Chrome trace, Speedscope, Scalene,
/// pyinstrument) and (2) the LSP-style JSON-RPC transport of the Profile
/// Viewer Protocol in src/ide/.
///
/// The value model is a tagged union with object key order preserved, which
/// keeps serialized output deterministic for golden tests.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_SUPPORT_JSON_H
#define EASYVIEW_SUPPORT_JSON_H

#include "support/Result.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ev {
namespace json {

class Value;

/// JSON array.
using Array = std::vector<Value>;

/// JSON object with insertion-ordered keys.
class Object {
public:
  /// \returns the value for \p Key, or null when absent.
  const Value *find(std::string_view Key) const;
  Value *find(std::string_view Key);

  /// Inserts or overwrites \p Key.
  void set(std::string Key, Value V);

  /// \returns true when \p Key is present.
  bool contains(std::string_view Key) const { return find(Key) != nullptr; }

  size_t size() const { return Members.size(); }
  bool empty() const { return Members.empty(); }

  auto begin() const { return Members.begin(); }
  auto end() const { return Members.end(); }

private:
  std::vector<std::pair<std::string, Value>> Members;
};

/// Discriminator for Value. A Serialized value is compact JSON text that
/// was written once and is spliced into every dump() as it is.
enum class Kind {
  Null,
  Bool,
  Number,
  String,
  ArrayKind,
  ObjectKind,
  Serialized
};

/// A JSON value. Numbers carry a double representation plus, when the
/// source was integral and fits, an exact int64 representation: pprof
/// location/function ids and metric values routinely exceed 2^53, where
/// double rounds silently, so integers survive parse -> asInt() ->
/// serialize round-trips bit-exactly. (uint64 values above INT64_MAX fall
/// back to the double representation.)
class Value {
public:
  Value() : TheKind(Kind::Null) {}
  /*implicit*/ Value(std::nullptr_t) : TheKind(Kind::Null) {}
  /*implicit*/ Value(bool B) : TheKind(Kind::Bool), BoolValue(B) {}
  /*implicit*/ Value(double N) : TheKind(Kind::Number), NumberValue(N) {}
  /*implicit*/ Value(int N) : Value(static_cast<int64_t>(N)) {}
  /*implicit*/ Value(int64_t N)
      : TheKind(Kind::Number), IsInt(true),
        NumberValue(static_cast<double>(N)), IntValue(N) {}
  /*implicit*/ Value(uint64_t N)
      : TheKind(Kind::Number), NumberValue(static_cast<double>(N)) {
    if (N <= static_cast<uint64_t>(INT64_MAX)) {
      IsInt = true;
      IntValue = static_cast<int64_t>(N);
    }
  }
  /*implicit*/ Value(unsigned N) : Value(static_cast<int64_t>(N)) {}
  /*implicit*/ Value(std::string S)
      : TheKind(Kind::String), StringValue(std::move(S)) {}
  /*implicit*/ Value(std::string_view S)
      : TheKind(Kind::String), StringValue(S) {}
  /*implicit*/ Value(const char *S) : TheKind(Kind::String), StringValue(S) {}
  /*implicit*/ Value(Array A)
      : TheKind(Kind::ArrayKind),
        ArrayValue(std::make_shared<Array>(std::move(A))) {}
  /*implicit*/ Value(Object O)
      : TheKind(Kind::ObjectKind),
        ObjectValue(std::make_shared<Object>(std::move(O))) {}

  /// A value that dumps as \p Text, which must be compact JSON. The text is
  /// shared and immutable, so copying the value copies a pointer.
  static Value serialized(std::shared_ptr<const std::string> Text) {
    Value V;
    V.TheKind = Kind::Serialized;
    V.SerializedValue = std::move(Text);
    return V;
  }
  static Value serialized(std::string Text) {
    return serialized(std::make_shared<const std::string>(std::move(Text)));
  }

  Kind kind() const { return TheKind; }
  bool isNull() const { return TheKind == Kind::Null; }
  bool isBool() const { return TheKind == Kind::Bool; }
  bool isNumber() const { return TheKind == Kind::Number; }
  bool isString() const { return TheKind == Kind::String; }
  bool isArray() const { return TheKind == Kind::ArrayKind; }
  bool isObject() const { return TheKind == Kind::ObjectKind; }
  bool isSerialized() const { return TheKind == Kind::Serialized; }

  bool asBool() const {
    assert(isBool() && "not a bool");
    return BoolValue;
  }
  double asNumber() const {
    assert(isNumber() && "not a number");
    return NumberValue;
  }
  /// True when the number carries an exact int64 representation (integral
  /// literal or integer-constructed). Double-backed numbers return false
  /// even when integral; use getInteger() to accept those too.
  bool isInteger() const { return TheKind == Kind::Number && IsInt; }
  int64_t asInt() const {
    assert(isNumber() && "not a number");
    return IsInt ? IntValue : static_cast<int64_t>(NumberValue);
  }
  /// Strict integer extraction: \returns true and sets \p Out when the
  /// value is a number exactly representable as int64 — an integer-backed
  /// number, or a finite double with no fractional part inside the int64
  /// range. NaN, infinities, fractional and out-of-range doubles (and
  /// non-numbers) return false. RPC parameter validation uses this so
  /// hostile numbers are rejected instead of truncated (UB for NaN).
  bool getInteger(int64_t &Out) const;
  const std::string &asString() const {
    assert(isString() && "not a string");
    return StringValue;
  }
  const Array &asArray() const {
    assert(isArray() && "not an array");
    return *ArrayValue;
  }
  Array &asArray() {
    assert(isArray() && "not an array");
    return *ArrayValue;
  }
  const Object &asObject() const {
    assert(isObject() && "not an object");
    return *ObjectValue;
  }
  Object &asObject() {
    assert(isObject() && "not an object");
    return *ObjectValue;
  }
  const std::shared_ptr<const std::string> &serializedText() const {
    assert(isSerialized() && "not serialized");
    return SerializedValue;
  }

  /// Convenience typed getters that tolerate missing/mistyped data:
  /// they return the fallback instead of asserting. Used heavily by the
  /// converters, which must survive malformed third-party files.
  double numberOr(double Fallback) const {
    return isNumber() ? NumberValue : Fallback;
  }
  std::string_view stringOr(std::string_view Fallback) const {
    return isString() ? std::string_view(StringValue) : Fallback;
  }
  bool boolOr(bool Fallback) const { return isBool() ? BoolValue : Fallback; }

  /// Serializes to compact JSON text (no insignificant whitespace).
  std::string dump() const;
  /// As dump(), appending to \p Out.
  void dump(std::string &Out) const { dumpImpl(Out, /*Indent=*/0, 0); }

  /// Serializes with two-space indentation for human inspection. Serialized
  /// members stay compact.
  std::string dumpPretty() const;

private:
  void dumpImpl(std::string &Out, int Indent, int Depth) const;

  Kind TheKind;
  bool BoolValue = false;
  bool IsInt = false; ///< Number kind only: IntValue is exact.
  double NumberValue = 0.0;
  int64_t IntValue = 0;
  std::string StringValue;
  // shared_ptr keeps Value cheaply copyable; analysis code treats parsed
  // documents as immutable.
  std::shared_ptr<Array> ArrayValue;
  std::shared_ptr<Object> ObjectValue;
  std::shared_ptr<const std::string> SerializedValue;
};

/// The formatters dump() writes scalars with, for writers that emit JSON
/// text without building a Value: an integer; a double (integral values
/// inside the int64 range as integers, NaN and infinities as null); a
/// string, quoted and escaped.
void appendInt(std::string &Out, int64_t N);
void appendNumber(std::string &Out, double N);
void appendString(std::string &Out, std::string_view S);

/// Parses \p Text. \returns the document or a parse error with offset
/// information in the message.
Result<Value> parse(std::string_view Text);

} // namespace json
} // namespace ev

#endif // EASYVIEW_SUPPORT_JSON_H

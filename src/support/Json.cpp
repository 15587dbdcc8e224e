//===- support/Json.cpp - JSON value model, parser, and writer ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Strings.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace ev {
namespace json {

const Value *Object::find(std::string_view Key) const {
  for (const auto &Member : Members)
    if (Member.first == Key)
      return &Member.second;
  return nullptr;
}

Value *Object::find(std::string_view Key) {
  for (auto &Member : Members)
    if (Member.first == Key)
      return &Member.second;
  return nullptr;
}

void Object::set(std::string Key, Value V) {
  if (Value *Existing = find(Key)) {
    *Existing = std::move(V);
    return;
  }
  Members.emplace_back(std::move(Key), std::move(V));
}

namespace {

/// Recursive-descent JSON parser with offset-annotated errors.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Result<Value> run() {
    skipWhitespace();
    Result<Value> Doc = parseValue();
    if (!Doc)
      return Doc;
    skipWhitespace();
    if (Pos != Text.size())
      return fail("trailing characters after JSON document");
    return Doc;
  }

private:
  Error fail(std::string Message) {
    return makeError(Message + " at offset " + std::to_string(Pos));
  }

  void skipWhitespace() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        return;
      ++Pos;
    }
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  Result<Value> parseValue() {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
      return parseObject();
    case '[':
      return parseArray();
    case '"': {
      Result<std::string> S = parseString();
      if (!S)
        return makeError(S.error());
      return Value(S.take());
    }
    case 't':
      return parseKeyword("true", Value(true));
    case 'f':
      return parseKeyword("false", Value(false));
    case 'n':
      return parseKeyword("null", Value(nullptr));
    default:
      return parseNumber();
    }
  }

  Result<Value> parseKeyword(std::string_view Word, Value V) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail("invalid literal");
    Pos += Word.size();
    return V;
  }

  Result<Value> parseNumber() {
    size_t Start = Pos;
    bool Integral = true;
    if (consume('-')) {
    }
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-')) {
      if (Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E')
        Integral = false;
      ++Pos;
    }
    std::string_view Token = Text.substr(Start, Pos - Start);
    // Integral literals that fit keep their exact int64 value; everything
    // else (fractions, exponents, magnitudes past INT64 range) stays a
    // double exactly as before.
    if (Integral && !Token.empty()) {
      errno = 0;
      char *End = nullptr;
      std::string Buf(Token);
      long long N = std::strtoll(Buf.c_str(), &End, 10);
      if (errno == 0 && End == Buf.c_str() + Buf.size())
        return Value(static_cast<int64_t>(N));
    }
    double Number;
    if (Pos == Start || !parseDouble(Token, Number))
      return fail("invalid number");
    return Value(Number);
  }

  Result<std::string> parseString() {
    if (!consume('"'))
      return fail("expected '\"'");
    std::string Out;
    // The next '"' at or after Pos, or Text.size() when there is none. It
    // is searched again only once an escape has consumed it, so a
    // multi-MB string without escapes costs two memchr calls and one copy.
    size_t Quote = 0;
    while (true) {
      if (Quote < Pos) {
        const void *Q = std::memchr(Text.data() + Pos, '"', Text.size() - Pos);
        Quote = Q ? static_cast<const char *>(Q) - Text.data() : Text.size();
      }
      // Copy the run up to the next quote or backslash as it is.
      const void *S = std::memchr(Text.data() + Pos, '\\', Quote - Pos);
      size_t RunEnd = S ? static_cast<const char *>(S) - Text.data() : Quote;
      Out.append(Text.data() + Pos, RunEnd - Pos);
      Pos = RunEnd;
      if (Pos == Text.size())
        return fail("unterminated string");
      if (Text[Pos++] == '"')
        return Out;
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("invalid \\u escape");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("unknown escape character");
      }
    }
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out.push_back(static_cast<char>(Code));
      return;
    }
    if (Code < 0x800) {
      Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
      return;
    }
    Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
    Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
    Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
  }

  Result<Value> parseArray() {
    consume('[');
    ++Depth;
    Array Items;
    skipWhitespace();
    if (consume(']')) {
      --Depth;
      return Value(std::move(Items));
    }
    while (true) {
      skipWhitespace();
      Result<Value> Item = parseValue();
      if (!Item)
        return Item;
      Items.push_back(Item.take());
      skipWhitespace();
      if (consume(','))
        continue;
      if (consume(']')) {
        --Depth;
        return Value(std::move(Items));
      }
      return fail("expected ',' or ']'");
    }
  }

  Result<Value> parseObject() {
    consume('{');
    ++Depth;
    Object Obj;
    skipWhitespace();
    if (consume('}')) {
      --Depth;
      return Value(std::move(Obj));
    }
    while (true) {
      skipWhitespace();
      Result<std::string> Key = parseString();
      if (!Key)
        return makeError(Key.error());
      skipWhitespace();
      if (!consume(':'))
        return fail("expected ':'");
      skipWhitespace();
      Result<Value> Member = parseValue();
      if (!Member)
        return Member;
      Obj.set(Key.take(), Member.take());
      skipWhitespace();
      if (consume(','))
        continue;
      if (consume('}')) {
        --Depth;
        return Value(std::move(Obj));
      }
      return fail("expected ',' or '}'");
    }
  }

  static constexpr int MaxDepth = 256;

  std::string_view Text;
  size_t Pos = 0;
  int Depth = 0;
};

} // namespace

void appendInt(std::string &Out, int64_t N) {
  // std::to_chars is locale-independent by definition; snprintf("%lld")
  // honors LC_NUMERIC grouping in some locales.
  char Buffer[32];
  auto [End, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), N);
  (void)Ec; // int64 always fits in 32 bytes.
  Out.append(Buffer, End);
}

void appendNumber(std::string &Out, double N) {
  if (!std::isfinite(N)) {
    Out += "null"; // JSON has no Inf/NaN.
    return;
  }
  // Integral doubles inside the int64 range print as integers. The range
  // check must precede the cast: casting an out-of-range double to int64
  // is undefined behavior. 2^63 itself rounds to exactly
  // 9223372036854775808.0, hence the strict <.
  if (N >= -9223372036854775808.0 && N < 9223372036854775808.0 &&
      N == static_cast<double>(static_cast<int64_t>(N))) {
    appendInt(Out, static_cast<int64_t>(N));
    return;
  }
  // Shortest round-trip form, locale-independent (snprintf "%.17g" is
  // neither: a de_DE LC_NUMERIC emits "3,14", which is invalid JSON).
  char Buffer[64];
  auto [End, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), N);
  (void)Ec; // Shortest form of a finite double always fits in 64 bytes.
  Out.append(Buffer, End);
}

void appendString(std::string &Out, std::string_view S) {
  Out.push_back('"');
  Out += escapeJson(S);
  Out.push_back('"');
}

bool Value::getInteger(int64_t &Out) const {
  if (TheKind != Kind::Number)
    return false;
  if (IsInt) {
    Out = IntValue;
    return true;
  }
  // A double-backed number is accepted only when it is finite, has no
  // fractional part, and sits inside the int64 range. The range check uses
  // the -2^63 .. 2^63 bounds as doubles; 2^63 itself rounds to exactly
  // 9223372036854775808.0, which is out of range, hence the strict <.
  if (!std::isfinite(NumberValue) ||
      NumberValue != std::trunc(NumberValue) ||
      NumberValue < -9223372036854775808.0 ||
      NumberValue >= 9223372036854775808.0)
    return false;
  Out = static_cast<int64_t>(NumberValue);
  return true;
}

void Value::dumpImpl(std::string &Out, int Indent, int Depth) const {
  auto Newline = [&](int D) {
    if (Indent <= 0)
      return;
    Out.push_back('\n');
    Out.append(static_cast<size_t>(Indent * D), ' ');
  };
  switch (TheKind) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += BoolValue ? "true" : "false";
    return;
  case Kind::Number:
    if (IsInt) {
      appendInt(Out, IntValue);
    } else {
      appendNumber(Out, NumberValue);
    }
    return;
  case Kind::String:
    appendString(Out, StringValue);
    return;
  case Kind::Serialized:
    Out += *SerializedValue;
    return;
  case Kind::ArrayKind: {
    const Array &Items = *ArrayValue;
    if (Items.empty()) {
      Out += "[]";
      return;
    }
    Out.push_back('[');
    for (size_t I = 0; I < Items.size(); ++I) {
      if (I)
        Out.push_back(',');
      Newline(Depth + 1);
      Items[I].dumpImpl(Out, Indent, Depth + 1);
    }
    Newline(Depth);
    Out.push_back(']');
    return;
  }
  case Kind::ObjectKind: {
    const Object &Obj = *ObjectValue;
    if (Obj.empty()) {
      Out += "{}";
      return;
    }
    Out.push_back('{');
    bool First = true;
    for (const auto &Member : Obj) {
      if (!First)
        Out.push_back(',');
      First = false;
      Newline(Depth + 1);
      appendString(Out, Member.first);
      Out += Indent > 0 ? ": " : ":";
      Member.second.dumpImpl(Out, Indent, Depth + 1);
    }
    Newline(Depth);
    Out.push_back('}');
    return;
  }
  }
}

std::string Value::dump() const {
  std::string Out;
  dumpImpl(Out, /*Indent=*/0, /*Depth=*/0);
  return Out;
}

std::string Value::dumpPretty() const {
  std::string Out;
  dumpImpl(Out, /*Indent=*/2, /*Depth=*/0);
  return Out;
}

Result<Value> parse(std::string_view Text) { return Parser(Text).run(); }

} // namespace json
} // namespace ev

//===- support/Strings.cpp - Small string utilities -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Strings.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace ev {

std::vector<std::string_view> splitString(std::string_view Text,
                                          char Separator) {
  std::vector<std::string_view> Pieces;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Separator, Start);
    if (Pos == std::string_view::npos) {
      Pieces.push_back(Text.substr(Start));
      return Pieces;
    }
    Pieces.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::vector<std::string_view> splitLines(std::string_view Text) {
  std::vector<std::string_view> Lines;
  size_t Start = 0;
  while (Start < Text.size()) {
    size_t Pos = Text.find('\n', Start);
    if (Pos == std::string_view::npos) {
      Lines.push_back(Text.substr(Start));
      break;
    }
    size_t End = Pos;
    if (End > Start && Text[End - 1] == '\r')
      --End;
    Lines.push_back(Text.substr(Start, End - Start));
    Start = Pos + 1;
  }
  return Lines;
}

std::string_view trim(std::string_view Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

bool endsWith(std::string_view Text, std::string_view Suffix) {
  return Text.size() >= Suffix.size() &&
         Text.compare(Text.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

bool parseUnsigned(std::string_view Text, uint64_t &Value) {
  if (Text.empty())
    return false;
  auto [Ptr, Ec] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Value);
  return Ec == std::errc() && Ptr == Text.data() + Text.size();
}

bool parseDouble(std::string_view Text, double &Value) {
  if (Text.empty())
    return false;
  // std::from_chars for double is available in libstdc++ 11+.
  auto [Ptr, Ec] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Value);
  return Ec == std::errc() && Ptr == Text.data() + Text.size();
}

std::string formatDouble(double Value, int Digits) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Digits, Value);
  return Buffer;
}

std::string formatBytes(double Bytes) {
  static const char *Units[] = {"B", "KB", "MB", "GB", "TB"};
  int Unit = 0;
  while (Bytes >= 1024.0 && Unit < 4) {
    Bytes /= 1024.0;
    ++Unit;
  }
  return formatDouble(Bytes, Unit == 0 ? 0 : 1) + " " + Units[Unit];
}

std::string formatMetric(double Value, std::string_view Unit) {
  if (Unit == "bytes")
    return formatBytes(Value);
  if (Unit == "nanoseconds") {
    if (Value >= 1e9)
      return formatDouble(Value / 1e9, 2) + " s";
    if (Value >= 1e6)
      return formatDouble(Value / 1e6, 2) + " ms";
    if (Value >= 1e3)
      return formatDouble(Value / 1e3, 2) + " us";
    return formatDouble(Value, 0) + " ns";
  }
  std::string Out = formatDouble(Value, Value == static_cast<int64_t>(Value)
                                            ? 0
                                            : 2);
  if (!Unit.empty()) {
    Out.push_back(' ');
    Out.append(Unit);
  }
  return Out;
}

std::string escapeXml(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    case '"':
      Out += "&quot;";
      break;
    default:
      Out.push_back(C);
    }
  }
  return Out;
}

std::string escapeJson(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size() + 2);
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      // RFC 8259: every control byte below 0x20 (including NUL, which must
      // survive round-trips of interned frame names) escapes as \u00XX.
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char Hex[] = "0123456789abcdef";
        unsigned char U = static_cast<unsigned char>(C);
        Out += "\\u00";
        Out.push_back(Hex[U >> 4]);
        Out.push_back(Hex[U & 0xF]);
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}

std::string base64Encode(std::string_view Bytes) {
  static const char Alphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string Out;
  Out.reserve((Bytes.size() + 2) / 3 * 4);
  size_t I = 0;
  while (I + 3 <= Bytes.size()) {
    uint32_t Triple = (static_cast<unsigned char>(Bytes[I]) << 16) |
                      (static_cast<unsigned char>(Bytes[I + 1]) << 8) |
                      static_cast<unsigned char>(Bytes[I + 2]);
    Out.push_back(Alphabet[(Triple >> 18) & 0x3F]);
    Out.push_back(Alphabet[(Triple >> 12) & 0x3F]);
    Out.push_back(Alphabet[(Triple >> 6) & 0x3F]);
    Out.push_back(Alphabet[Triple & 0x3F]);
    I += 3;
  }
  size_t Rest = Bytes.size() - I;
  if (Rest == 1) {
    uint32_t Triple = static_cast<unsigned char>(Bytes[I]) << 16;
    Out.push_back(Alphabet[(Triple >> 18) & 0x3F]);
    Out.push_back(Alphabet[(Triple >> 12) & 0x3F]);
    Out += "==";
  } else if (Rest == 2) {
    uint32_t Triple = (static_cast<unsigned char>(Bytes[I]) << 16) |
                      (static_cast<unsigned char>(Bytes[I + 1]) << 8);
    Out.push_back(Alphabet[(Triple >> 18) & 0x3F]);
    Out.push_back(Alphabet[(Triple >> 12) & 0x3F]);
    Out.push_back(Alphabet[(Triple >> 6) & 0x3F]);
    Out.push_back('=');
  }
  return Out;
}

bool base64Decode(std::string_view Text, std::string &Out) {
  // Each byte's 6-bit value; Pad for '=', Bad for bytes outside the
  // alphabet. Both have a high bit set, so one test rejects either.
  static constexpr uint8_t Pad = 0x40, Bad = 0x80;
  static constexpr std::array<uint8_t, 256> Values = [] {
    std::array<uint8_t, 256> V{};
    V.fill(Bad);
    const char Alphabet[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    for (uint8_t I = 0; I < 64; ++I)
      V[static_cast<unsigned char>(Alphabet[I])] = I;
    V['='] = Pad;
    return V;
  }();
  auto Value = [](char C) { return Values[static_cast<unsigned char>(C)]; };

  Out.clear();
  if (Text.size() % 4 != 0)
    return false;
  if (Text.empty())
    return true;
  Out.resize(Text.size() / 4 * 3);
  char *Dst = Out.data();
  // Every group but the last holds four alphabet characters.
  const char *Src = Text.data();
  const char *Last = Src + Text.size() - 4;
  for (; Src != Last; Src += 4, Dst += 3) {
    uint32_t A = Value(Src[0]), B = Value(Src[1]), C = Value(Src[2]),
             D = Value(Src[3]);
    if ((A | B | C | D) & (Pad | Bad))
      return false;
    uint32_t Triple = A << 18 | B << 12 | C << 6 | D;
    Dst[0] = static_cast<char>(Triple >> 16);
    Dst[1] = static_cast<char>(Triple >> 8);
    Dst[2] = static_cast<char>(Triple);
  }
  // The last group may end in "=" or "==", and nothing follows a '='.
  uint32_t A = Value(Last[0]), B = Value(Last[1]), C = Value(Last[2]),
           D = Value(Last[3]);
  size_t Padding = D == Pad ? (C == Pad ? 2 : 1) : 0;
  if (Padding == 2)
    C = 0;
  if (Padding)
    D = 0;
  if ((A | B | C | D) & (Pad | Bad))
    return false;
  uint32_t Triple = A << 18 | B << 12 | C << 6 | D;
  Dst[0] = static_cast<char>(Triple >> 16);
  Dst[1] = static_cast<char>(Triple >> 8);
  Dst[2] = static_cast<char>(Triple);
  Out.resize(Out.size() - Padding);
  return true;
}

} // namespace ev

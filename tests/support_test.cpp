//===- tests/support_test.cpp - support/ substrate tests ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/ProtoWire.h"
#include "support/Result.h"
#include "support/Rng.h"
#include "support/StringInterner.h"
#include "support/Strings.h"
#include "support/Varint.h"
#include "support/Xml.h"

#include <clocale>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

using namespace ev;

//===----------------------------------------------------------------------===
// Result
//===----------------------------------------------------------------------===

TEST(Result, HoldsValue) {
  Result<int> R(42);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, 42);
}

TEST(Result, HoldsError) {
  Result<int> R = makeError("boom");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error(), "boom");
}

TEST(Result, TakeMovesValue) {
  Result<std::string> R(std::string("payload"));
  std::string S = R.take();
  EXPECT_EQ(S, "payload");
}

//===----------------------------------------------------------------------===
// Varint
//===----------------------------------------------------------------------===

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, EncodeDecode) {
  std::string Buffer;
  appendVarint(Buffer, GetParam());
  VarintReader R(Buffer);
  EXPECT_EQ(R.readVarint(), GetParam());
  EXPECT_FALSE(R.failed());
  EXPECT_TRUE(R.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Values, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL,
                                           300ULL, 16383ULL, 16384ULL,
                                           (1ULL << 32) - 1, 1ULL << 32,
                                           ~0ULL));

class SignedVarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(SignedVarintRoundTrip, ZigzagEncodeDecode) {
  std::string Buffer;
  appendSignedVarint(Buffer, GetParam());
  VarintReader R(Buffer);
  EXPECT_EQ(R.readSignedVarint(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Values, SignedVarintRoundTrip,
                         ::testing::Values(0LL, 1LL, -1LL, 63LL, -64LL,
                                           1LL << 40, -(1LL << 40),
                                           INT64_MAX, INT64_MIN));

TEST(Varint, SmallValuesEncodeSmall) {
  std::string Buffer;
  appendVarint(Buffer, 100);
  EXPECT_EQ(Buffer.size(), 1u);
  Buffer.clear();
  appendVarint(Buffer, 1000);
  EXPECT_EQ(Buffer.size(), 2u);
}

TEST(Varint, TruncatedInputFails) {
  std::string Buffer;
  appendVarint(Buffer, ~0ULL);
  VarintReader R(Buffer.data(), Buffer.size() - 1);
  (void)R.readVarint();
  EXPECT_TRUE(R.failed());
}

TEST(Varint, OverlongInputFails) {
  std::string Buffer(11, '\x80');
  VarintReader R(Buffer);
  (void)R.readVarint();
  EXPECT_TRUE(R.failed());
}

TEST(Varint, SkipPastEndFails) {
  VarintReader R("ab", 2);
  R.skip(3);
  EXPECT_TRUE(R.failed());
}

TEST(Varint, TenByteEncodingRoundTripsMax) {
  std::string Buffer;
  appendVarint(Buffer, ~0ULL);
  ASSERT_EQ(Buffer.size(), 10u);
  VarintReader R(Buffer);
  EXPECT_EQ(R.readVarint(), ~0ULL);
  EXPECT_FALSE(R.failed());
}

TEST(Varint, RejectsBitsShiftedPastSixtyFour) {
  // Nine continuation bytes followed by 0x02: the payload bit lands at
  // position 64. Accepting it would decode to the same value as the
  // encoding without it — two distinct encodings, one value.
  std::string Overflowing(9, '\x81');
  Overflowing.push_back('\x02');
  VarintReader R(Overflowing);
  (void)R.readVarint();
  EXPECT_TRUE(R.failed());

  // The same prefix with 0x01 is the canonical top bit and stays valid.
  std::string Valid(9, '\x81');
  Valid.push_back('\x01');
  VarintReader V(Valid);
  (void)V.readVarint();
  EXPECT_FALSE(V.failed());
}

TEST(Varint, RejectsTenByteContinuation) {
  // A continuation bit on the tenth byte always overflows 64 bits.
  std::string Buffer(9, '\x80');
  Buffer.push_back('\x81');
  Buffer.push_back('\x00');
  VarintReader R(Buffer);
  (void)R.readVarint();
  EXPECT_TRUE(R.failed());
}

TEST(Zigzag, MapsSignOntoLowBit) {
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(1), 2u);
  EXPECT_EQ(zigzagEncode(-2), 3u);
}

//===----------------------------------------------------------------------===
// ProtoWire
//===----------------------------------------------------------------------===

TEST(ProtoWire, VarintField) {
  ProtoWriter W;
  W.writeVarint(3, 777);
  ProtoReader R(W.buffer());
  ASSERT_TRUE(R.next());
  EXPECT_EQ(R.fieldNumber(), 3u);
  EXPECT_EQ(R.wireType(), WireType::Varint);
  EXPECT_EQ(R.varint(), 777u);
  EXPECT_FALSE(R.next());
  EXPECT_FALSE(R.failed());
}

TEST(ProtoWire, DoubleField) {
  ProtoWriter W;
  W.writeDouble(2, 3.25);
  ProtoReader R(W.buffer());
  ASSERT_TRUE(R.next());
  EXPECT_DOUBLE_EQ(R.fixedDouble(), 3.25);
}

TEST(ProtoWire, BytesField) {
  ProtoWriter W;
  W.writeBytes(1, "hello\0world");
  ProtoReader R(W.buffer());
  ASSERT_TRUE(R.next());
  EXPECT_EQ(R.bytes(), "hello");
}

TEST(ProtoWire, NegativeInt64TakesTenBytes) {
  ProtoWriter W;
  W.writeInt64(1, -1);
  // 1 tag byte + 10 varint bytes.
  EXPECT_EQ(W.buffer().size(), 11u);
  ProtoReader R(W.buffer());
  ASSERT_TRUE(R.next());
  EXPECT_EQ(R.int64(), -1);
}

TEST(ProtoWire, PackedVarints) {
  ProtoWriter W;
  uint64_t Values[] = {1, 128, 99999};
  W.writePackedVarints(4, Values, 3);
  ProtoReader R(W.buffer());
  ASSERT_TRUE(R.next());
  std::string_view Packed = R.bytes();
  VarintReader VR(Packed.data(), Packed.size());
  EXPECT_EQ(VR.readVarint(), 1u);
  EXPECT_EQ(VR.readVarint(), 128u);
  EXPECT_EQ(VR.readVarint(), 99999u);
  EXPECT_TRUE(VR.atEnd());
}

TEST(ProtoWire, SkipUnknownFields) {
  ProtoWriter W;
  W.writeVarint(1, 5);
  W.writeBytes(2, "skip me");
  W.writeDouble(3, 1.5);
  W.writeVarint(4, 9);
  ProtoReader R(W.buffer());
  uint64_t Seen = 0;
  while (R.next()) {
    if (R.fieldNumber() == 4)
      Seen = R.varint();
    else
      R.skip();
  }
  EXPECT_FALSE(R.failed());
  EXPECT_EQ(Seen, 9u);
}

TEST(ProtoWire, NextAutoSkipsUnconsumedField) {
  ProtoWriter W;
  W.writeBytes(1, "abc");
  W.writeVarint(2, 7);
  ProtoReader R(W.buffer());
  ASSERT_TRUE(R.next()); // Field 1 never consumed.
  ASSERT_TRUE(R.next());
  EXPECT_EQ(R.fieldNumber(), 2u);
  EXPECT_EQ(R.varint(), 7u);
}

TEST(ProtoWire, MalformedLengthFails) {
  std::string Bad;
  appendVarint(Bad, (1 << 3) | 2); // Field 1, length-delimited.
  appendVarint(Bad, 1000);         // Length longer than the buffer.
  ProtoReader R(Bad);
  ASSERT_TRUE(R.next());
  (void)R.bytes();
  EXPECT_TRUE(R.failed());
}

TEST(ProtoWire, FieldNumberZeroFails) {
  std::string Bad;
  appendVarint(Bad, 0); // Tag with field number 0.
  ProtoReader R(Bad);
  EXPECT_FALSE(R.next());
  EXPECT_TRUE(R.failed());
}

TEST(ProtoWire, WrongTypeAccessFails) {
  ProtoWriter W;
  W.writeVarint(1, 5);
  ProtoReader R(W.buffer());
  ASSERT_TRUE(R.next());
  (void)R.bytes(); // Varint field read as bytes.
  EXPECT_TRUE(R.failed());
}

//===----------------------------------------------------------------------===
// StringInterner
//===----------------------------------------------------------------------===

TEST(StringInterner, EmptyStringIsIdZero) {
  StringInterner I;
  EXPECT_EQ(I.intern(""), 0u);
  EXPECT_EQ(I.text(0), "");
}

TEST(StringInterner, Deduplicates) {
  StringInterner I;
  StringId A = I.intern("hello");
  StringId B = I.intern("world");
  EXPECT_NE(A, B);
  EXPECT_EQ(I.intern("hello"), A);
  EXPECT_EQ(I.size(), 3u);
}

TEST(StringInterner, SurvivesGrowth) {
  StringInterner I;
  std::vector<StringId> Ids;
  for (int K = 0; K < 5000; ++K)
    Ids.push_back(I.intern("key" + std::to_string(K)));
  for (int K = 0; K < 5000; ++K) {
    EXPECT_EQ(I.text(Ids[K]), "key" + std::to_string(K));
    EXPECT_EQ(I.intern("key" + std::to_string(K)), Ids[K]);
  }
}

TEST(StringInterner, TracksPayload) {
  StringInterner I;
  I.intern("abcd");
  EXPECT_EQ(I.payloadBytes(), 4u);
}

//===----------------------------------------------------------------------===
// Strings
//===----------------------------------------------------------------------===

TEST(Strings, SplitKeepsEmptyPieces) {
  auto Pieces = splitString("a;;b", ';');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[1], "");
}

TEST(Strings, SplitLinesHandlesCrLf) {
  auto Lines = splitLines("a\r\nb\nc");
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(Lines[0], "a");
  EXPECT_EQ(Lines[1], "b");
  EXPECT_EQ(Lines[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(endsWith("foobar", "bar"));
  EXPECT_FALSE(endsWith("ar", "bar"));
}

TEST(Strings, ParseUnsigned) {
  uint64_t V;
  EXPECT_TRUE(parseUnsigned("123", V));
  EXPECT_EQ(V, 123u);
  EXPECT_FALSE(parseUnsigned("12x", V));
  EXPECT_FALSE(parseUnsigned("", V));
  EXPECT_FALSE(parseUnsigned("-3", V));
}

TEST(Strings, ParseDouble) {
  double V;
  EXPECT_TRUE(parseDouble("1.5e3", V));
  EXPECT_DOUBLE_EQ(V, 1500.0);
  EXPECT_FALSE(parseDouble("1.5x", V));
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(1536), "1.5 KB");
  EXPECT_EQ(formatBytes(3.0 * 1024 * 1024), "3.0 MB");
}

TEST(Strings, FormatMetricNanoseconds) {
  EXPECT_EQ(formatMetric(1.5e9, "nanoseconds"), "1.50 s");
  EXPECT_EQ(formatMetric(2.5e6, "nanoseconds"), "2.50 ms");
  EXPECT_EQ(formatMetric(900, "nanoseconds"), "900 ns");
}

TEST(Strings, EscapeXml) {
  EXPECT_EQ(escapeXml("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
}

TEST(Strings, EscapeJson) {
  EXPECT_EQ(escapeJson("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(escapeJson(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Strings, EscapeJsonAllControlChars) {
  // RFC 8259: every byte below 0x20 must be escaped. The writer names
  // the common whitespace escapes \t \n \r; everything else (including
  // \b and \f) gets the \u00XX form, which is equally valid JSON.
  for (int C = 0; C < 0x20; ++C) {
    char Byte = static_cast<char>(C);
    std::string Escaped = escapeJson(std::string_view(&Byte, 1));
    std::string Expected;
    switch (C) {
    case '\t':
      Expected = "\\t";
      break;
    case '\n':
      Expected = "\\n";
      break;
    case '\r':
      Expected = "\\r";
      break;
    default: {
      static const char Hex[] = "0123456789abcdef";
      Expected = "\\u00";
      Expected.push_back(Hex[C >> 4]);
      Expected.push_back(Hex[C & 0xF]);
      break;
    }
    }
    EXPECT_EQ(Escaped, Expected) << "control char " << C;
  }
}

TEST(Strings, EscapeJsonNulRoundTripsThroughParser) {
  // A NUL inside a string must survive dump -> parse, not truncate it.
  std::string Raw("a\0b", 3);
  json::Object O;
  O.set("s", Raw);
  std::string Dumped = json::Value(std::move(O)).dump();
  EXPECT_NE(Dumped.find("\\u0000"), std::string::npos);
  Result<json::Value> Back = json::parse(Dumped);
  ASSERT_TRUE(Back.ok()) << Back.error();
  EXPECT_EQ(Back->asObject().find("s")->asString(), Raw);
}

class Base64RoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(Base64RoundTrip, EncodeDecode) {
  std::string Encoded = base64Encode(GetParam());
  std::string Decoded;
  ASSERT_TRUE(base64Decode(Encoded, Decoded));
  EXPECT_EQ(Decoded, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, Base64RoundTrip,
    ::testing::Values("", "a", "ab", "abc", "abcd", std::string("\0\x01\xff", 3),
                      std::string(1000, 'x')));

TEST(Base64, KnownVectors) {
  EXPECT_EQ(base64Encode("Man"), "TWFu");
  EXPECT_EQ(base64Encode("Ma"), "TWE=");
  EXPECT_EQ(base64Encode("M"), "TQ==");
}

TEST(Base64, RejectsBadInput) {
  std::string Out;
  EXPECT_FALSE(base64Decode("abc", Out));   // Not a multiple of 4.
  EXPECT_FALSE(base64Decode("a!cd", Out));  // Invalid character.
  EXPECT_FALSE(base64Decode("=abc", Out));  // Padding in front.
}

TEST(Base64, DecodeEdgeCaseTable) {
  struct Case {
    std::string_view In;
    bool Ok;
    std::string_view Out;
  };
  const Case Cases[] = {
      {"", true, ""},
      {"TWFu", true, "Man"},
      {"TWE=", true, "Ma"},
      {"TQ==", true, "M"},
      {"TWFuTWFu", true, "ManMan"},
      {"TWFuTQ==", true, "ManM"},
      {"TWFuTWE=", true, "ManMa"},
      {"////", true, "\xff\xff\xff"},
      {"++++", true, "\xfb\xef\xbe"},
      // Padding only in the last group's last two slots.
      {"=AAA", false, ""},
      {"A=AA", false, ""},
      {"==AA", false, ""},
      {"====", false, ""},
      {"A===", false, ""},
      {"TQ==TWFu", false, ""},
      {"TWE=TWFu", false, ""},
      // Nothing after '='.
      {"TQ=u", false, ""},
      {"TWFuTQ=u", false, ""},
      // Length a multiple of 4.
      {"T", false, ""},
      {"TW", false, ""},
      {"TWF", false, ""},
      {"TWFuT", false, ""},
      {"TQ=", false, ""},
      {"TQ", false, ""},
      // No whitespace, URL-safe alphabet or NUL.
      {"TW u", false, ""},
      {"TWF\n", false, ""},
      {"TW-_", false, ""},
      {std::string_view("TW\0u", 4), false, ""},
  };
  for (const Case &C : Cases) {
    std::string Out = "stale";
    EXPECT_EQ(base64Decode(C.In, Out), C.Ok) << '"' << C.In << '"';
    if (C.Ok) {
      EXPECT_EQ(Out, C.Out) << '"' << C.In << '"';
    }
  }
}

TEST(Base64, EveryInvalidByteIsRejectedInEverySlot) {
  const std::string_view Alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  for (int B = 0; B < 256; ++B) {
    char C = static_cast<char>(B);
    bool Valid = Alphabet.find(C) != std::string_view::npos;
    for (size_t Slot = 0; Slot < 4; ++Slot) {
      // In a middle group, where even '=' is invalid.
      std::string Text = "QUJDQUJDQUJD";
      Text[4 + Slot] = C;
      std::string Out;
      EXPECT_EQ(base64Decode(Text, Out), Valid) << "byte " << B << " slot "
                                                << Slot;
      // In the last group, where '=' is valid only in slots 2 and 3 (and
      // slot 2 only when slot 3 is '=' too).
      std::string Last = "QUJDQUJD";
      Last[4 + Slot] = C;
      bool LastOk = Valid || (C == '=' && Slot == 3);
      EXPECT_EQ(base64Decode(Last, Out), LastOk) << "byte " << B
                                                 << " last slot " << Slot;
    }
  }
}

TEST(Base64, SeededRandomRoundTrips) {
  Rng R(20261018);
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::string Bytes(R.below(300), '\0');
    for (char &C : Bytes)
      C = static_cast<char>(R.below(256));
    std::string Encoded = base64Encode(Bytes);
    ASSERT_EQ(Encoded.size() % 4, 0u);
    std::string Decoded = "stale";
    ASSERT_TRUE(base64Decode(Encoded, Decoded)) << Trial;
    EXPECT_EQ(Decoded, Bytes) << Trial;
  }
}

//===----------------------------------------------------------------------===
// Json
//===----------------------------------------------------------------------===

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null")->isNull());
  EXPECT_TRUE(json::parse("true")->asBool());
  EXPECT_FALSE(json::parse("false")->asBool());
  EXPECT_DOUBLE_EQ(json::parse("-2.5e2")->asNumber(), -250.0);
  EXPECT_EQ(json::parse("\"hi\"")->asString(), "hi");
}

TEST(Json, ParsesNested) {
  Result<json::Value> Doc =
      json::parse(R"({"a": [1, {"b": "c"}], "d": null})");
  ASSERT_TRUE(Doc.ok());
  const json::Object &Root = Doc->asObject();
  ASSERT_TRUE(Root.find("a")->isArray());
  EXPECT_EQ(Root.find("a")->asArray()[1].asObject().find("b")->asString(),
            "c");
  EXPECT_TRUE(Root.find("d")->isNull());
}

TEST(Json, StringEscapes) {
  Result<json::Value> Doc = json::parse(R"("a\n\t\"\\A")");
  ASSERT_TRUE(Doc.ok());
  EXPECT_EQ(Doc->asString(), "a\n\t\"\\A");
}

TEST(Json, UnicodeEscapeUtf8) {
  Result<json::Value> Doc = json::parse(R"("é")");
  ASSERT_TRUE(Doc.ok());
  EXPECT_EQ(Doc->asString(), "\xc3\xa9");
}

TEST(Json, LongStringEscapesAtStartMiddleAndEnd) {
  // A string past 64 KB with escapes at its first, middle and last
  // characters: the parser must splice runs between escapes exactly.
  std::string Raw(70000, 'x');
  Raw[0] = '\n';
  Raw[35000] = '"';
  Raw[35001] = '\\';
  Raw[69999] = '\t';
  std::string Text = json::Value(Raw).dump();
  ASSERT_EQ(Text.front(), '"');
  EXPECT_EQ(Text.substr(0, 3), "\"\\n");
  EXPECT_EQ(Text.substr(Text.size() - 3), "\\t\"");
  Result<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(Doc.ok()) << Doc.error();
  EXPECT_EQ(Doc->asString(), Raw);

  // The same string as an object member, followed by another member.
  Result<json::Value> Obj =
      json::parse("{\"k\":" + Text + ",\"n\":\"\\\\\"}");
  ASSERT_TRUE(Obj.ok()) << Obj.error();
  EXPECT_EQ(Obj->asObject().find("k")->asString(), Raw);
  EXPECT_EQ(Obj->asObject().find("n")->asString(), "\\");
}

TEST(Json, StringEscapeTable) {
  struct Case {
    std::string_view Text;
    std::string_view Value;
  };
  const Case Cases[] = {
      {R"("")", ""},
      {R"("\"")", "\""},
      {R"("\\")", "\\"},
      {R"("\/")", "/"},
      {R"("\b\f\n\r\t")", "\b\f\n\r\t"},
      {R"("\u0041")", "A"},
      {R"("\u00e9\u00E9")", "\xc3\xa9\xc3\xa9"},
      {R"("\u20ac")", "\xe2\x82\xac"},
      {R"("a\u0000b")", std::string_view("a\0b", 3)},
      {R"("\u007f\u0080\u07ff\u0800")", "\x7f\xc2\x80\xdf\xbf\xe0\xa0\x80"},
      {R"("pre\npost")", "pre\npost"},
      // Raw bytes outside escapes pass through as they are: an embedded
      // NUL, a raw control byte and UTF-8.
      {std::string_view("\"a\0b\"", 5), std::string_view("a\0b", 3)},
      {"\"tab\there\"", "tab\there"},
      {"\"\xc3\xa9\"", "\xc3\xa9"},
  };
  for (const Case &C : Cases) {
    Result<json::Value> Doc = json::parse(C.Text);
    ASSERT_TRUE(Doc.ok()) << C.Text << ": " << Doc.error();
    EXPECT_EQ(Doc->asString(), C.Value) << C.Text;
  }
}

TEST(Json, MalformedStringErrorsKeepTheirOffsets) {
  struct Case {
    std::string_view Text;
    std::string_view Error;
  };
  const Case Cases[] = {
      {"\"abc", "unterminated string at offset 4"},
      {"\"", "unterminated string at offset 1"},
      {"\"abc\\", "unterminated escape at offset 5"},
      {"\"ab\\q\"", "unknown escape character at offset 5"},
      {"\"\\u12\"", "truncated \\u escape at offset 3"},
      {"\"\\u12xy\"", "invalid \\u escape at offset 6"},
      {"\"\\u12", "truncated \\u escape at offset 3"},
      {"\"\\u00zz\"", "invalid \\u escape at offset 6"},
      {"{\"k\":\"v", "unterminated string at offset 7"},
      {"{\"k", "unterminated string at offset 3"},
      {std::string_view("\"a\0b", 4), "unterminated string at offset 4"},
  };
  for (const Case &C : Cases) {
    Result<json::Value> Doc = json::parse(C.Text);
    ASSERT_FALSE(Doc.ok()) << C.Text;
    EXPECT_EQ(Doc.error(), C.Error) << C.Text;
  }
  // An unterminated string past 64 KB reports the end of input.
  std::string Long = "\"" + std::string(70000, 'y') + "\\n" +
                     std::string(100, 'z');
  Result<json::Value> Doc = json::parse(Long);
  ASSERT_FALSE(Doc.ok());
  EXPECT_EQ(Doc.error(),
            "unterminated string at offset " + std::to_string(Long.size()));
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("tru").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
  EXPECT_FALSE(json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::parse("1 2").ok());
}

TEST(Json, ErrorsCarryOffset) {
  Result<json::Value> Doc = json::parse("[1, x]");
  ASSERT_FALSE(Doc.ok());
  EXPECT_NE(Doc.error().find("offset"), std::string::npos);
}

TEST(Json, DeepNestingIsRejected) {
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  EXPECT_FALSE(json::parse(Deep).ok());
}

TEST(Json, ObjectPreservesInsertionOrder) {
  json::Object O;
  O.set("z", 1);
  O.set("a", 2);
  EXPECT_EQ(json::Value(O).dump(), R"({"z":1,"a":2})");
}

TEST(Json, SetOverwrites) {
  json::Object O;
  O.set("k", 1);
  O.set("k", 2);
  EXPECT_EQ(O.size(), 1u);
  EXPECT_EQ(O.find("k")->asInt(), 2);
}

TEST(Json, DumpParseRoundTrip) {
  const char *Src = R"({"n":-1.5,"s":"x\"y","b":true,"v":null,"a":[1,2]})";
  Result<json::Value> Doc = json::parse(Src);
  ASSERT_TRUE(Doc.ok());
  Result<json::Value> Again = json::parse(Doc->dump());
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(Doc->dump(), Again->dump());
}

TEST(Json, IntegersDumpWithoutDecimalPoint) {
  EXPECT_EQ(json::Value(42).dump(), "42");
  EXPECT_EQ(json::Value(-7).dump(), "-7");
}

TEST(Json, TolerantGetters) {
  json::Value V("str");
  EXPECT_DOUBLE_EQ(V.numberOr(5.0), 5.0);
  EXPECT_EQ(json::Value(2.0).stringOr("d"), "d");
  EXPECT_TRUE(json::Value(1.0).boolOr(true));
}

TEST(Json, Int64SurvivesBeyondDoublePrecision) {
  // 2^53 is the last double-exact integer; the values either side of it
  // collapse to the same double. The int64 variant must keep them apart
  // through parse -> asInt -> dump.
  const int64_t P53 = 9007199254740992; // 2^53
  for (int64_t N : {P53 - 1, P53, P53 + 1}) {
    Result<json::Value> Doc = json::parse(std::to_string(N));
    ASSERT_TRUE(Doc.ok());
    EXPECT_TRUE(Doc->isInteger());
    EXPECT_EQ(Doc->asInt(), N);
    EXPECT_EQ(Doc->dump(), std::to_string(N));
  }
}

TEST(Json, Int64ExtremesRoundTrip) {
  for (int64_t N : {INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX}) {
    Result<json::Value> Doc = json::parse(std::to_string(N));
    ASSERT_TRUE(Doc.ok()) << N;
    EXPECT_EQ(Doc->asInt(), N);
    EXPECT_EQ(Doc->dump(), std::to_string(N));
    // Construction from int64 preserves the exact value too.
    EXPECT_EQ(json::Value(N).dump(), std::to_string(N));
  }
}

TEST(Json, GetIntegerIsStrict) {
  int64_t Out = 0;
  EXPECT_TRUE(json::Value(int64_t{42}).getInteger(Out));
  EXPECT_EQ(Out, 42);
  // Integral doubles are accepted (JSON has one number type on the wire).
  EXPECT_TRUE(json::Value(7.0).getInteger(Out));
  EXPECT_EQ(Out, 7);
  // Fractional, non-finite, out-of-range, and non-numbers are rejected.
  EXPECT_FALSE(json::Value(1.5).getInteger(Out));
  EXPECT_FALSE(json::Value(std::nan("")).getInteger(Out));
  EXPECT_FALSE(
      json::Value(std::numeric_limits<double>::infinity()).getInteger(Out));
  EXPECT_FALSE(json::Value(1e300).getInteger(Out));
  EXPECT_FALSE(json::Value("12").getInteger(Out));
  EXPECT_FALSE(json::Value(true).getInteger(Out));
}

TEST(Json, NumberFormattingIgnoresLocale) {
  // The old snprintf("%.17g") writer emitted "1,5" under a comma-decimal
  // locale — invalid JSON on the PVP wire. std::to_chars is
  // locale-independent by definition; prove it by dumping and parsing
  // with LC_NUMERIC set to a comma-decimal locale.
  const char *Prev = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (!Prev)
    Prev = std::setlocale(LC_NUMERIC, "de_DE.utf8");
  if (!Prev)
    GTEST_SKIP() << "no comma-decimal locale installed in this image";

  json::Object O;
  O.set("half", 0.5);
  O.set("big", 1.25e30);
  O.set("neg", -3.75);
  O.set("int", int64_t{-9007199254740993});
  std::string Dumped = json::Value(std::move(O)).dump();
  Result<json::Value> Back = json::parse(Dumped);

  std::setlocale(LC_NUMERIC, "C"); // Restore before asserting.
  EXPECT_EQ(Dumped.find(','), std::string::npos) << Dumped;
  ASSERT_TRUE(Back.ok()) << Back.error();
  EXPECT_DOUBLE_EQ(Back->asObject().find("half")->asNumber(), 0.5);
  EXPECT_DOUBLE_EQ(Back->asObject().find("big")->asNumber(), 1.25e30);
  EXPECT_DOUBLE_EQ(Back->asObject().find("neg")->asNumber(), -3.75);
  EXPECT_EQ(Back->asObject().find("int")->asInt(), -9007199254740993ll);
}

TEST(Json, DoubleDumpIsShortestRoundTrip) {
  // to_chars picks the shortest digit string that parses back exactly.
  EXPECT_EQ(json::Value(0.1).dump(), "0.1");
  EXPECT_EQ(json::Value(1.0 / 3.0).dump(), "0.3333333333333333");
  for (double D : {0.1, 2.5e-15, 1.7976931348623157e308, -4.9e-324}) {
    Result<json::Value> Back = json::parse(json::Value(D).dump());
    ASSERT_TRUE(Back.ok());
    EXPECT_EQ(Back->asNumber(), D);
  }
}

TEST(Json, NonFiniteDumpsAsNull) {
  EXPECT_EQ(json::Value(std::nan("")).dump(), "null");
  EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(Json, FractionalLiteralsAreNotIntegers) {
  Result<json::Value> Doc = json::parse("3.25");
  ASSERT_TRUE(Doc.ok());
  EXPECT_FALSE(Doc->isInteger());
  int64_t Out = 0;
  EXPECT_FALSE(Doc->getInteger(Out));
  // Exponent forms that land on integers still extract.
  Result<json::Value> Exp = json::parse("2e3");
  ASSERT_TRUE(Exp.ok());
  EXPECT_TRUE(Exp->getInteger(Out));
  EXPECT_EQ(Out, 2000);
}

//===----------------------------------------------------------------------===
// Xml
//===----------------------------------------------------------------------===

TEST(Xml, ParsesElementTree) {
  auto Doc = xml::parse("<a x=\"1\"><b>text</b><b y='2'/></a>");
  ASSERT_TRUE(Doc.ok());
  const xml::Element &Root = **Doc;
  EXPECT_EQ(Root.Name, "a");
  EXPECT_EQ(Root.attribute("x"), "1");
  ASSERT_EQ(Root.Children.size(), 2u);
  EXPECT_EQ(Root.Children[0]->Text, "text");
  EXPECT_EQ(Root.Children[1]->attribute("y"), "2");
}

TEST(Xml, SkipsPrologCommentsDoctype) {
  auto Doc = xml::parse("<?xml version=\"1.0\"?>\n"
                        "<!DOCTYPE r [<!ELEMENT r ANY>]>\n"
                        "<!-- comment -->\n<r/>");
  ASSERT_TRUE(Doc.ok());
  EXPECT_EQ((*Doc)->Name, "r");
}

TEST(Xml, DecodesEntities) {
  auto Doc = xml::parse("<a t=\"&lt;&amp;&gt;\">&quot;&#65;&apos;</a>");
  ASSERT_TRUE(Doc.ok());
  EXPECT_EQ((*Doc)->attribute("t"), "<&>");
  EXPECT_EQ((*Doc)->Text, "\"A'");
}

TEST(Xml, HandlesCdata) {
  auto Doc = xml::parse("<a><![CDATA[1 < 2 & 3]]></a>");
  ASSERT_TRUE(Doc.ok());
  EXPECT_EQ((*Doc)->Text, "1 < 2 & 3");
}

TEST(Xml, InnerComments) {
  auto Doc = xml::parse("<a><!-- hi --><b/></a>");
  ASSERT_TRUE(Doc.ok());
  EXPECT_EQ((*Doc)->Children.size(), 1u);
}

TEST(Xml, RejectsMismatchedTags) {
  EXPECT_FALSE(xml::parse("<a><b></a></b>").ok());
}

TEST(Xml, RejectsUnterminated) {
  EXPECT_FALSE(xml::parse("<a>").ok());
  EXPECT_FALSE(xml::parse("<a x=>").ok());
  EXPECT_FALSE(xml::parse("<a x=\"1>").ok());
}

TEST(Xml, FirstChildAndChildren) {
  auto Doc = xml::parse("<a><b i=\"1\"/><c/><b i=\"2\"/></a>");
  ASSERT_TRUE(Doc.ok());
  ASSERT_NE((*Doc)->firstChild("b"), nullptr);
  EXPECT_EQ((*Doc)->firstChild("b")->attribute("i"), "1");
  EXPECT_EQ((*Doc)->children("b").size(), 2u);
  EXPECT_EQ((*Doc)->firstChild("zzz"), nullptr);
}

//===----------------------------------------------------------------------===
// Rng
//===----------------------------------------------------------------------===

TEST(Rng, DeterministicBySeed) {
  Rng A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(Rng, UniformInRange) {
  Rng R(1);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
    int64_t V = R.range(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(Rng, NormalHasReasonableMoments) {
  Rng R(7);
  double Sum = 0.0, SumSq = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double X = R.normal();
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.05);
  EXPECT_NEAR(Var, 1.0, 0.08);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng R(9);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    if (R.chance(0.25))
      ++Hits;
  EXPECT_NEAR(Hits / 10000.0, 0.25, 0.03);
}

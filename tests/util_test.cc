#include <gtest/gtest.h>

#include "util/bitops.h"
#include "util/clock.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace ipsa {
namespace {

// --- status ------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing table");
}

TEST(StatusTest, ResultHoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(StatusTest, ResultHoldsError) {
  Result<int> r = InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  IPSA_ASSIGN_OR_RETURN(int h, Half(x));
  IPSA_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

// --- bitops -------------------------------------------------------------------

TEST(BitopsTest, BigEndianLoadStore) {
  uint8_t buf[8];
  util::StoreBe16(buf, 0xABCD);
  EXPECT_EQ(util::LoadBe16(buf), 0xABCD);
  util::StoreBe32(buf, 0x01020304);
  EXPECT_EQ(util::LoadBe32(buf), 0x01020304u);
}

// --- hash ---------------------------------------------------------------------

TEST(HashTest, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (standard check value).
  const char* s = "123456789";
  EXPECT_EQ(util::Crc32(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(s), 9)),
            0xCBF43926u);
}

TEST(HashTest, Fnv1aDiffersBySeed) {
  EXPECT_NE(util::Fnv1a64("hello", 1), util::Fnv1a64("hello", 2));
  EXPECT_EQ(util::Fnv1a64("hello", 1), util::Fnv1a64("hello", 1));
}

TEST(HashTest, Mix64IsInjectiveish) {
  EXPECT_NE(util::Mix64(0), util::Mix64(1));
  EXPECT_NE(util::Mix64(1), util::Mix64(2));
}

// --- json ---------------------------------------------------------------------

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(util::Json::Parse("null")->is_null());
  EXPECT_EQ(util::Json::Parse("true")->as_bool(), true);
  EXPECT_EQ(util::Json::Parse("42")->as_int(), 42);
  EXPECT_EQ(util::Json::Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(util::Json::Parse("2.5")->as_double(), 2.5);
  EXPECT_EQ(util::Json::Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParseNested) {
  auto j = util::Json::Parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(j->Find("a")->as_array().size(), 3u);
  EXPECT_EQ(j->Find("a")->as_array()[2].GetString("b"), "c");
  EXPECT_TRUE(j->Find("d")->as_object().empty());
}

TEST(JsonTest, StringEscapes) {
  auto j = util::Json::Parse(R"("a\nb\t\"q\" A")");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->as_string(), "a\nb\t\"q\" A");
}

TEST(JsonTest, DumpParseRoundTrip) {
  util::Json obj = util::Json::Object();
  obj["name"] = "ecmp";
  obj["size"] = 4096;
  obj["ratio"] = 0.25;
  util::Json arr = util::Json::Array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(nullptr);
  obj["items"] = std::move(arr);
  for (int indent : {0, 2}) {
    auto parsed = util::Json::Parse(obj.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(*parsed == obj) << "indent=" << indent;
  }
}

TEST(JsonTest, PreservesKeyOrder) {
  auto j = util::Json::Parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(j.ok());
  std::vector<std::string> keys;
  for (const auto& [k, v] : j->as_object()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(util::Json::Parse("{").ok());
  EXPECT_FALSE(util::Json::Parse("[1,]2").ok());
  EXPECT_FALSE(util::Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(util::Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(util::Json::Parse("tru").ok());
  EXPECT_FALSE(util::Json::Parse("01x").ok());
}

TEST(JsonTest, TypedGettersWithFallbacks) {
  auto j = util::Json::Parse(R"({"n": 7, "s": "x", "b": true, "f": 1.5})");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->GetInt("n"), 7);
  EXPECT_EQ(j->GetInt("missing", 42), 42);
  EXPECT_EQ(j->GetInt("s", 9), 9);  // wrong type -> fallback
  EXPECT_EQ(j->GetString("s"), "x");
  EXPECT_EQ(j->GetString("n", "d"), "d");
  EXPECT_TRUE(j->GetBool("b"));
  EXPECT_TRUE(j->GetBool("missing", true));
  EXPECT_EQ(j->GetInt("f"), 1);  // double coerces to int
}

TEST(JsonTest, FindOnNonObjectIsNull) {
  auto j = util::Json::Parse("[1,2]");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->Find("x"), nullptr);
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, Split) {
  EXPECT_EQ(util::Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(util::Split("a,,c", ','), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(util::Split("a,,c", ',', true),
            (std::vector<std::string>{"a", "", "c"}));
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(util::SplitWhitespace("  add_link  a\tb \n"),
            (std::vector<std::string>{"add_link", "a", "b"}));
  EXPECT_TRUE(util::SplitWhitespace("   ").empty());
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(util::TrimView("  x  "), "x");
  EXPECT_EQ(util::TrimView(""), "");
  EXPECT_EQ(util::TrimView(" \t\n "), "");
}

TEST(StringsTest, ParseUint) {
  EXPECT_EQ(util::ParseUint("123"), 123u);
  EXPECT_EQ(util::ParseUint("0x1F"), 31u);
  EXPECT_EQ(util::ParseUint(" 42 "), 42u);
  EXPECT_FALSE(util::ParseUint("").has_value());
  EXPECT_FALSE(util::ParseUint("12a").has_value());
  EXPECT_FALSE(util::ParseUint("0x").has_value());
}

TEST(StringsTest, Format) {
  EXPECT_EQ(util::Format("%d-%s", 7, "x"), "7-x");
}

// --- rng / clock ----------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  util::Rng a(99), b(99), c(100);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundsRespected) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(ClockTest, SimClockAdvances) {
  util::SimClock clock;
  clock.Advance(200);
  EXPECT_EQ(clock.cycles(), 200u);
  EXPECT_DOUBLE_EQ(clock.SecondsAt(200e6), 1e-6);
}

// --- logging -----------------------------------------------------------------

// A log line below the threshold evaluates none of its operands (and so
// builds no stream); one at or above it evaluates each exactly once.
TEST(LoggingTest, DisabledLogDoesNotEvaluateItsOperands) {
  const util::LogLevel saved = util::GetLogLevel();
  int evaluated = 0;
  auto operand = [&evaluated] {
    ++evaluated;
    return std::string("operand");
  };

  util::SetLogLevel(util::LogLevel::kWarning);
  IPSA_LOG(kDebug) << operand();
  IPSA_LOG(kInfo) << operand() << operand();
  EXPECT_EQ(evaluated, 0);

  util::SetLogLevel(util::LogLevel::kOff);
  IPSA_LOG(kError) << operand();
  EXPECT_EQ(evaluated, 0);

  // An if/else around the macro still binds as written.
  if (evaluated == 0)
    IPSA_LOG(kDebug) << operand();
  else
    ++evaluated;
  EXPECT_EQ(evaluated, 0);

  util::SetLogLevel(util::LogLevel::kDebug);
  testing::internal::CaptureStderr();
  IPSA_LOG(kInfo) << operand() << " " << 7;
  const std::string line = testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(line, "[INFO] operand 7\n");

  util::SetLogLevel(saved);
}

}  // namespace
}  // namespace ipsa

// Observability layer tests: the JSON value/writer/parser, report
// exporters for all three simulation stacks and deployments, per-node
// labeled series, histogram metrics and bench reports.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "baseline/smac_simulation.hpp"
#include "core/multi_cluster_sim.hpp"
#include "core/polling_simulation.hpp"
#include "exp/bench_json.hpp"
#include "metrics/registry.hpp"
#include "net/deployment.hpp"
#include "obs/json.hpp"
#include "obs/report_json.hpp"
#include "obs/run_recorder.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

using obs::Json;
using obs::parse_json;

// ---------- Json value tree ----------

TEST(Json, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json(std::uint64_t{7}).as_uint(), 7u);
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);  // int reads as number too
  EXPECT_EQ(Json("hi").as_string(), "hi");
  EXPECT_THROW(Json("hi").as_int(), std::logic_error);
  EXPECT_THROW(Json(-1).as_uint(), std::out_of_range);
  // uint64 beyond int64 is unrepresentable: throws, never wraps.
  EXPECT_THROW(Json(~std::uint64_t{0}), std::overflow_error);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json o = Json::object();
  o.set("zebra", Json(1)).set("apple", Json(2)).set("mango", Json(3));
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o.items()[0].first, "zebra");
  EXPECT_EQ(o.items()[1].first, "apple");
  EXPECT_EQ(o.items()[2].first, "mango");
  o.set("apple", Json(9));  // overwrite keeps position
  EXPECT_EQ(o.items()[1].first, "apple");
  EXPECT_EQ(o.at("apple").as_int(), 9);
  EXPECT_EQ(o.find("missing"), nullptr);
  EXPECT_THROW(o.at("missing"), std::out_of_range);
}

TEST(Json, AppendSkipsTheScanAndSetStillOverwrites) {
  Json o;
  o.append("a", Json(1)).append("b", Json(2));  // null becomes an object
  o.set("a", Json(5));  // set finds appended keys: overwrite in place
  o.set("c", Json(3));
  EXPECT_EQ(o.dump(), R"({"a":5,"b":2,"c":3})");
  EXPECT_THROW(Json::array().append("k", Json(1)), std::logic_error);
}

TEST(Json, LargeObjectsLookUpEveryKeyLikeAScan) {
  // Past a few members an object looks keys up through a hash index;
  // every lookup must still answer as a scan from the front would.
  Json o = Json::object();
  for (int k = 0; k < 1000; ++k) o.set(std::to_string(k), Json(k));
  for (int k = 0; k < 1000; k += 3) o.set(std::to_string(k), Json(-k));
  o.append("7", Json("dup"));  // a duplicate: the first "7" still wins
  ASSERT_EQ(o.size(), 1001u);
  for (int k = 0; k < 1000; ++k) {
    EXPECT_EQ(o.items()[k].first, std::to_string(k));
    EXPECT_EQ(o.at(std::to_string(k)).as_int(), k % 3 == 0 ? -k : k);
  }
  EXPECT_EQ(o.find("1000"), nullptr);

  Json copy = o;  // the copy's lookups see the copy's own members
  copy.set("1", Json("changed")).set("new", Json(true));
  EXPECT_EQ(o.at("1").as_int(), 1);
  EXPECT_EQ(o.find("new"), nullptr);
  EXPECT_EQ(copy.at("1").as_string(), "changed");
  EXPECT_TRUE(copy.at("new").as_bool());
  EXPECT_EQ(copy.items().back().first, "new");

  Json taken = std::move(copy);
  EXPECT_EQ(taken.at("998").as_int(), 998);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is pinned
  copy.set("a", Json(1));
  EXPECT_EQ(copy.at("a").as_int(), 1);

  // Parsing a duplicate key keeps its first position and its last value.
  std::string text = "{";
  for (int k = 0; k < 40; ++k)
    text.append(1, '"').append(std::to_string(k)).append("\":0,");
  text += "\"5\":1}";
  const Json parsed = parse_json(text);
  ASSERT_EQ(parsed.size(), 40u);
  EXPECT_EQ(parsed.items()[5].first, "5");
  EXPECT_EQ(parsed.at("5").as_int(), 1);
}

TEST(Json, ReportBlocksKeepEveryMapKeyInOrder) {
  // The counters and per-node blocks append their std::map keys; the dump
  // still lists each key once, in map order, with its value.
  MetricsSnapshot snap;
  for (std::uint64_t node = 0; node < 3000; ++node)
    snap.counters[std::string(metric::kNodeRelayed) + "{node=" +
                  std::to_string(node) + "}"] = node * 7;
  snap.counters["zeta"] = 1;
  snap.gauges["g"] = {2.0, 1.5};
  const Json back = parse_json(obs::to_json(snap).dump());
  const Json& counters = back.at("counters");
  ASSERT_EQ(counters.size(), snap.counters.size());
  std::size_t i = 0;
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(counters.items()[i].first, name);
    EXPECT_EQ(counters.items()[i].second.as_uint(), value);
    ++i;
  }
  const Json& relayed = back.at("per_node").at(metric::kNodeRelayed);
  ASSERT_EQ(relayed.size(), 3000u);
  for (std::uint64_t node = 0; node < 3000; ++node) {
    EXPECT_EQ(relayed.items()[node].first, std::to_string(node));
    EXPECT_EQ(relayed.items()[node].second.as_uint(), node * 7);
  }
  EXPECT_DOUBLE_EQ(back.at("gauges").at("g").at("mean").as_double(), 1.5);
}

TEST(Json, CompactAndPrettyWriting) {
  Json o = Json::object();
  o.set("n", Json(1)).set("s", Json("x"));
  Json arr = Json::array();
  arr.push_back(Json(true));
  arr.push_back(Json());
  o.set("a", std::move(arr));
  EXPECT_EQ(o.dump(), "{\"n\":1,\"s\":\"x\",\"a\":[true,null]}");
  const std::string pretty = o.dump(2);
  EXPECT_NE(pretty.find("{\n  \"n\": 1,"), std::string::npos);
}

// A node holds one alternative (a std::string is the largest) plus its
// index; report trees of millions of nodes pay this per value.
static_assert(sizeof(Json) <= 40);

TEST(Json, TypeMatchesEveryConstructor) {
  using T = Json::Type;
  EXPECT_EQ(Json().type(), T::kNull);
  EXPECT_EQ(Json(false).type(), T::kBool);
  EXPECT_EQ(Json(-1).type(), T::kInt);
  EXPECT_EQ(Json(-2L).type(), T::kInt);
  EXPECT_EQ(Json(-3LL).type(), T::kInt);
  EXPECT_EQ(Json(4000000000U).type(), T::kInt);
  EXPECT_EQ(Json(4000000000U).as_int(), 4000000000LL);
  EXPECT_EQ(Json(5UL).type(), T::kInt);
  EXPECT_EQ(Json(6ULL).type(), T::kInt);
  EXPECT_EQ(Json(1.5).type(), T::kDouble);
  EXPECT_EQ(Json(2.0).type(), T::kDouble);
  EXPECT_EQ(Json("c").type(), T::kString);
  EXPECT_EQ(Json(std::string("s")).type(), T::kString);
  EXPECT_EQ(Json(std::string_view("v")).as_string(), "v");
  EXPECT_EQ(Json::array().type(), T::kArray);
  EXPECT_EQ(Json::object().type(), T::kObject);
  // The largest unsigned that fits int64 is an int; one more throws.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto max_ul = static_cast<unsigned long>(kMax);
  EXPECT_EQ(Json(max_ul).type(), T::kInt);
  EXPECT_EQ(Json(max_ul).as_int(), kMax);
  EXPECT_THROW(Json(max_ul + 1), std::overflow_error);
  const auto max_ull = static_cast<unsigned long long>(kMax);
  EXPECT_EQ(Json(max_ull).as_uint(), static_cast<std::uint64_t>(kMax));
  EXPECT_THROW(Json(max_ull + 1), std::overflow_error);
}

TEST(Json, CopiesAreDeep) {
  Json arr = Json::array();
  arr.push_back(Json(1));
  arr.push_back(Json("x"));
  Json arr_copy = arr;
  arr_copy.push_back(Json(2));
  EXPECT_EQ(arr.dump(), R"([1,"x"])");
  EXPECT_EQ(arr_copy.dump(), R"([1,"x",2])");

  Json obj = Json::object();
  obj.set("a", arr);
  Json obj_copy = obj;
  obj_copy.find("a")->push_back(Json(3));
  obj_copy.set("b", Json(true));
  EXPECT_EQ(obj.dump(), R"({"a":[1,"x"]})");
  EXPECT_EQ(obj_copy.dump(), R"({"a":[1,"x",3],"b":true})");

  Json assigned = Json::array();
  assigned = obj;  // copy assignment over another alternative
  assigned.set("a", Json(0));
  EXPECT_EQ(obj.dump(), R"({"a":[1,"x"]})");
  EXPECT_EQ(assigned.dump(), R"({"a":0})");

  const Json str("abc");
  Json str_copy = str;
  str_copy = Json("z");
  EXPECT_EQ(str.as_string(), "abc");
  EXPECT_EQ(str_copy.as_string(), "z");
}

TEST(Json, MovedFromContainersKeepTheirTypeAndStayUsable) {
  Json arr = Json::array();
  arr.push_back(Json(1));
  const Json taken = std::move(arr);
  EXPECT_EQ(taken.dump(), "[1]");
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is pinned
  EXPECT_TRUE(arr.is_array());
  arr.push_back(Json(2));
  EXPECT_EQ(arr.at(arr.size() - 1).as_int(), 2);

  Json obj = Json::object();
  obj.set("a", Json(1));
  Json target;
  target = std::move(obj);
  EXPECT_EQ(target.dump(), R"({"a":1})");
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is pinned
  EXPECT_TRUE(obj.is_object());
  obj.set("b", Json(2));
  EXPECT_EQ(obj.at("b").as_int(), 2);
}

TEST(Json, BuildersPromoteNull) {
  Json arr;
  arr.push_back(Json(1));
  EXPECT_TRUE(arr.is_array());
  EXPECT_EQ(arr.dump(), "[1]");
  Json set;
  set.set("k", Json(1));
  EXPECT_TRUE(set.is_object());
  EXPECT_EQ(set.dump(), R"({"k":1})");
  Json appended;
  appended.append("k", Json(2));
  EXPECT_TRUE(appended.is_object());
  EXPECT_EQ(appended.dump(), R"({"k":2})");
}

TEST(Json, MismatchedAccessThrowsLogicError) {
  const auto message = [](auto&& access) {
    try {
      access();
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message([] { static_cast<void>(Json(1).as_string()); }),
            "Json: value is not a string");
  EXPECT_EQ(message([] { Json::object().push_back(Json(1)); }),
            "Json: value is not an array");
  EXPECT_EQ(message([] { static_cast<void>(Json::array().items()); }),
            "Json: value is not an object");
  EXPECT_EQ(message([] { Json(true).set("k", Json(1)); }),
            "Json: value is not an object");
  EXPECT_EQ(message([] { static_cast<void>(Json("1").as_double()); }),
            "Json: value is not a number");
  EXPECT_EQ(message([] { static_cast<void>(Json(0).as_bool()); }),
            "Json: value is not a bool");
  EXPECT_EQ(message([] { static_cast<void>(Json::object().at(0)); }),
            "Json: value is not an array");
  EXPECT_EQ(message([] { static_cast<void>(Json(1.5).as_int()); }),
            "Json: value is not an integer");
  // Reads that are not a type mismatch keep their own answers.
  EXPECT_EQ(Json(7).size(), 0u);
  EXPECT_EQ(Json::array().find("k"), nullptr);
}

TEST(Json, ShippedScenariosDumpToAFixedPoint) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(MHP_SOURCE_DIR) + "/examples/scenarios")) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    for (const int indent : {-1, 2}) {
      const std::string once = parse_json(text.str()).dump(indent);
      EXPECT_EQ(parse_json(once).dump(indent), once)
          << entry.path() << " indent " << indent;
    }
    ++files;
  }
  EXPECT_GE(files, 6u);
}

TEST(Json, EscapingRoundTrips) {
  const std::string nasty = "quote\" slash\\ nl\n tab\t ctl\x01 end";
  const Json v(nasty);
  const std::string text = v.dump();
  EXPECT_EQ(parse_json(text).as_string(), nasty);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
}

TEST(Json, NumbersRoundTripExactly) {
  // Integers stay integers; doubles reparse to the same bit pattern.
  EXPECT_TRUE(parse_json("123").is_int());
  EXPECT_FALSE(parse_json("123.0").is_int());
  EXPECT_EQ(parse_json(Json(1234567890123456789LL).dump()).as_int(),
            1234567890123456789LL);
  const double tricky = 245.33333333333331;
  EXPECT_EQ(parse_json(Json(tricky).dump()).as_double(), tricky);
  EXPECT_EQ(parse_json("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_double(), 1000.0);
}

TEST(Json, ParserIsStrict) {
  EXPECT_THROW(parse_json(""), obs::JsonParseError);
  EXPECT_THROW(parse_json("{\"a\":1,}"), obs::JsonParseError);
  EXPECT_THROW(parse_json("[1 2]"), obs::JsonParseError);
  EXPECT_THROW(parse_json("tru"), obs::JsonParseError);
  EXPECT_THROW(parse_json("{} trailing"), obs::JsonParseError);
  EXPECT_THROW(parse_json("\"unterminated"), obs::JsonParseError);
  // Nested structures parse fine.
  const Json v = parse_json(R"({"a":[1,{"b":null}], "c":"é"})");
  EXPECT_EQ(v.at("a").at(1).at("b").type(), Json::Type::kNull);
  EXPECT_EQ(v.at("c").as_string(), "\xc3\xa9");  // UTF-8 é
}

/// `depth` arrays, or objects keyed "k", nested inside one another.
std::string nested(std::size_t depth, bool objects) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) text += objects ? "{\"k\":" : "[";
  text += "0";
  text.append(depth, objects ? '}' : ']');
  return text;
}

TEST(Json, NestingIsCappedAtTheNamedDepth) {
  for (const bool objects : {false, true}) {
    SCOPED_TRACE(objects ? "objects" : "arrays");
    const Json deepest = parse_json(nested(obs::kMaxJsonDepth, objects));
    EXPECT_EQ(deepest.size(), 1u);
    try {
      parse_json(nested(obs::kMaxJsonDepth + 1, objects));
      ADD_FAILURE() << "one level past the cap parsed";
    } catch (const obs::JsonParseError& e) {
      // The offset is the opening bracket of the level past the cap.
      const std::size_t per_level = objects ? 5 : 1;
      EXPECT_EQ(e.offset(), obs::kMaxJsonDepth * per_level);
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos);
    }
  }
  // Deep enough to overflow the stack of an uncapped recursive parser.
  EXPECT_THROW(parse_json(std::string(100000, '[')), obs::JsonParseError);
  EXPECT_THROW(parse_json(nested(100000, true)), obs::JsonParseError);
}

// A chain of set() calls on a temporary stays an rvalue, so returning it
// moves the built tree instead of copying it.
static_assert(
    std::is_same_v<decltype(Json::object().set("k", Json(1))), Json&&>);
static_assert(std::is_same_v<decltype(std::declval<Json&>().set("k", Json(1))),
                             Json&>);

TEST(Json, MalformedNumbersRejectedWholeToken) {
  // The number scanner's character class admits these shapes; the
  // whole-token conversion check must reject them instead of silently
  // keeping a numeric prefix (the old strtod-based parser turned "1..2"
  // into 1.0).
  for (const char* text : {"1..2", "1e+5e-2", "1e", "1e+", "1e-", "1.2.3",
                           "1-2", "--1", "+1", "1e5e2", "-", "2-", "3.4.5e1"})
    EXPECT_THROW(parse_json(text), obs::JsonParseError) << text;
  // Inside containers too, with the offending token in the message.
  try {
    parse_json("[1, 1..2]");
    FAIL() << "expected JsonParseError";
  } catch (const obs::JsonParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_GE(e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("1..2"), std::string::npos);
  }
}

TEST(Json, AsIntRangeChecksDoubles) {
  // Integral doubles convert exactly.
  EXPECT_EQ(Json(2.0).as_int(), 2);
  EXPECT_EQ(Json(-0.0).as_int(), 0);
  EXPECT_EQ(Json(9007199254740992.0).as_int(), 9007199254740992LL);  // 2^53
  // -2^63 is exactly representable and in range; +2^63 is out.
  EXPECT_EQ(Json(-9223372036854775808.0).as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(Json(9223372036854775808.0).as_int(), std::out_of_range);
  // Non-integral values used to truncate silently (1.7 read as 1).
  EXPECT_THROW(Json(1.7).as_int(), std::logic_error);
  EXPECT_THROW(Json(-0.5).as_int(), std::logic_error);
  // Out-of-range values used to be undefined behavior in the cast.
  EXPECT_THROW(Json(1e300).as_int(), std::out_of_range);
  EXPECT_THROW(Json(-1e300).as_int(), std::out_of_range);
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).as_int(),
               std::out_of_range);
  EXPECT_THROW(Json(std::numeric_limits<double>::quiet_NaN()).as_int(),
               std::out_of_range);
  // as_uint rides on as_int and inherits the checks.
  EXPECT_THROW(Json(1e300).as_uint(), std::out_of_range);
}

/// Flip both the C locale and the C++ global locale (they reach printf
/// and ostreams respectively), restoring C/classic on scope exit.
class GlobalLocaleFlip {
 public:
  explicit GlobalLocaleFlip(const char* name) {
    c_ok_ = std::setlocale(LC_ALL, name) != nullptr;
    try {
      old_ = std::locale::global(std::locale(name));
      cpp_ok_ = true;
    } catch (const std::runtime_error&) {
      // The C++ runtime may not ship this locale even when libc does.
    }
  }
  ~GlobalLocaleFlip() {
    std::setlocale(LC_ALL, "C");
    if (cpp_ok_) std::locale::global(old_);
  }
  bool c_ok() const { return c_ok_; }

 private:
  bool c_ok_ = false;
  bool cpp_ok_ = false;
  std::locale old_;
};

TEST(Json, NumberCodecIgnoresGlobalLocale) {
  // A comma-decimal, dot-grouping locale used to leak into the codec:
  // snprintf("%.17g") wrote "1,5" and ostream << int wrote "1.234.567".
  const char* chosen = nullptr;
  for (const char* c : {"de_DE.UTF-8", "de_DE.utf8", "de_DE"})
    if (std::setlocale(LC_ALL, c) != nullptr) {
      chosen = c;
      break;
    }
  std::setlocale(LC_ALL, "C");
  if (chosen == nullptr)
    GTEST_SKIP() << "no comma-decimal locale installed (CI generates one)";

  GlobalLocaleFlip flip(chosen);
  ASSERT_TRUE(flip.c_ok());
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json(0.25).dump(), "0.25");
  EXPECT_EQ(Json(1234567).dump(), "1234567");
  EXPECT_EQ(Json(-9876543210LL).dump(), "-9876543210");
  EXPECT_EQ(parse_json("1.5").as_double(), 1.5);
  EXPECT_EQ(parse_json("[1234567, -2.5e3]").dump(), "[1234567,-2500.0]");
}

TEST(Json, DumpParseDumpIsIdentityOnBoundaryNumbers) {
  // dump → parse → dump must be byte-identical, and the reparsed value
  // bit-exact (17 significant digits are value-faithful for doubles).
  // Subnormals are the historical trap: glibc's stod raises ERANGE on
  // them, so 5e-324 used to come back as a parse error.
  const double doubles[] = {
      0.0,
      -0.0,
      0.5,
      1.0 / 3.0,
      245.33333333333331,
      1e-300,
      1e300,
      std::numeric_limits<double>::denorm_min(),  // 5e-324
      4.9406564584124654e-324,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      9007199254740993.0,            // first double above 2^53
      9223372036854775808.0,         // 2^63
      -9223372036854775808.0,        // -2^63
      1.7976931348623157e308,
  };
  for (const double v : doubles) {
    const std::string once = Json(v).dump();
    const Json back = parse_json(once);
    ASSERT_EQ(back.type(), Json::Type::kDouble) << once;
    EXPECT_EQ(back.dump(), once);
    EXPECT_EQ(back.as_double(), v) << once;
    EXPECT_EQ(std::signbit(back.as_double()), std::signbit(v)) << once;
  }
  const std::int64_t ints[] = {
      0,
      1,
      -1,
      9007199254740993LL,  // not representable as a double
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (const std::int64_t v : ints) {
    const std::string once = Json(v).dump();
    const Json back = parse_json(once);
    ASSERT_TRUE(back.is_int()) << once;
    EXPECT_EQ(back.dump(), once);
    EXPECT_EQ(back.as_int(), v) << once;
  }
}

// ---------- Histogram metric + labeled series ----------

TEST(Metrics, HistogramQuantilesAndMoments) {
  MetricsRegistry m;
  HistogramMetric& h = m.histogram("lat", 0.0, 10.0, 100);
  for (int i = 1; i <= 100; ++i) h.observe(i / 10.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_NEAR(h.mean(), 5.05, 1e-9);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  EXPECT_NEAR(h.quantile(0.95), 9.5, 0.2);
  // Same name returns the same histogram; shape params ignored after
  // first use.
  EXPECT_EQ(&m.histogram("lat", 0.0, 1.0, 2), &h);
  const MetricsSnapshot snap = m.snapshot(Time::sec(1));
  EXPECT_EQ(snap.histogram("lat").count, 100u);
  EXPECT_NEAR(snap.histogram("lat").p50, 5.0, 0.2);
  EXPECT_EQ(snap.histogram("absent").count, 0u);
}

TEST(Metrics, NodeMetricNamesRoundTripThroughSnapshots) {
  EXPECT_EQ(node_metric("node.energy_j", 7), "node.energy_j{node=7}");
  MetricsRegistry m;
  m.counter(node_metric("node.packets_relayed", 0)).add(5);
  m.counter(node_metric("node.packets_relayed", 12)).add(9);
  m.counter("node.packets_relayed_other{node=1}").add(99);  // different base
  m.gauge(node_metric("node.energy_j", 3)).set(Time::sec(1), 0.25);
  const MetricsSnapshot snap = m.snapshot(Time::sec(2));
  const auto relayed = snap.labeled_counters("node.packets_relayed");
  ASSERT_EQ(relayed.size(), 2u);
  EXPECT_EQ(relayed.at(0), 5u);
  EXPECT_EQ(relayed.at(12), 9u);
  const auto energy = snap.labeled_gauges("node.energy_j");
  ASSERT_EQ(energy.size(), 1u);
  EXPECT_DOUBLE_EQ(energy.at(3), 0.25);
}

// ---------- Report serialization: all three stacks ----------

Deployment small_deployment(std::uint64_t seed, std::size_t n = 10) {
  Rng rng(seed);
  return deploy_connected_uniform_square(n, 150.0, 60.0, rng);
}

/// Serialize, reparse, and check the envelope plus exact round-trip of
/// the standard metric:: counters.  `stats_key` descends one level first
/// for reports whose RunStats is nested (multi-cluster "totals").
Json roundtrip_and_check(const Json& doc, const char* kind,
                         const MetricsSnapshot& snap,
                         const char* stats_key = nullptr) {
  const Json back = parse_json(doc.dump(2));
  EXPECT_EQ(back.at("schema").as_int(), obs::kReportSchemaVersion);
  EXPECT_EQ(back.at("kind").as_string(), kind);
  const Json& stats = stats_key != nullptr ? back.at("report").at(stats_key)
                                           : back.at("report");
  const Json& counters = stats.at("metrics").at("counters");
  for (const char* name :
       {metric::kPacketsGenerated, metric::kPacketsDelivered,
        metric::kBytesDelivered, metric::kChannelFramesTx}) {
    const Json* v = counters.find(name);
    EXPECT_NE(v, nullptr) << name;
    if (v != nullptr) {
      EXPECT_EQ(v->as_uint(), snap.counter(name)) << name;
    }
  }
  return back;
}

TEST(ReportJson, PollingReportRoundTrips) {
  ProtocolConfig cfg;
  PollingSimulation sim(small_deployment(1, 12), cfg, 20.0);
  const SimulationReport rep = sim.run(Time::sec(30), Time::sec(10));
  const Json back =
      roundtrip_and_check(obs::to_json(rep), "polling", rep.metrics);
  const Json& r = back.at("report");
  EXPECT_EQ(r.at("packets_generated").as_uint(), rep.packets_generated);
  EXPECT_EQ(r.at("delivery_ratio").as_double(), rep.delivery_ratio);
  EXPECT_EQ(r.at("sectors").as_uint(), rep.sectors);
  // Latency percentiles come from the registry histogram.
  EXPECT_GT(rep.latency_p95_s, 0.0);
  EXPECT_GE(rep.latency_p95_s, rep.latency_p50_s);
  EXPECT_GE(rep.latency_p99_s, rep.latency_p95_s);
  EXPECT_EQ(r.at("latency_p95_s").as_double(), rep.latency_p95_s);
  EXPECT_GT(r.at("queue_depth_p50").as_double(), 0.0);
  // Run recorder fields are stamped (non-deterministic, so >-checks only).
  EXPECT_GT(r.at("run").at("events_processed").as_uint(), 0u);
  EXPECT_GT(r.at("run").at("wall_seconds").as_double(), 0.0);
  EXPECT_GT(r.at("run").at("events_per_sec").as_double(), 0.0);
  // Per-node series present for every sensor, both flat and regrouped.
  const Json& per_node = r.at("metrics").at("per_node");
  EXPECT_EQ(per_node.at(metric::kNodeEnergyJ).size(), 12u);
  EXPECT_EQ(per_node.at(metric::kNodeRelayed).size(), 12u);
  EXPECT_EQ(per_node.at(metric::kNodeAwakeS).size(), 12u);
  const auto energy = rep.metrics.labeled_gauges(metric::kNodeEnergyJ);
  for (const auto& [id, value] : energy) {
    EXPECT_GT(value, 0.0);
    EXPECT_EQ(per_node.at(metric::kNodeEnergyJ)
                  .at(std::to_string(id))
                  .as_double(),
              value);
  }
}

TEST(ReportJson, SmacReportRoundTrips) {
  SmacConfig cfg;
  SmacSimulation sim(small_deployment(1), cfg, 15.0);
  const SmacReport rep = sim.run(Time::sec(20), Time::sec(5));
  const Json back =
      roundtrip_and_check(obs::to_json(rep), "smac", rep.metrics);
  const Json& r = back.at("report");
  EXPECT_EQ(r.at("control_frames").as_uint(), rep.control_frames);
  EXPECT_EQ(r.at("packets_dropped").as_uint(), rep.packets_dropped);
  // Per-node accounting covers the sensors (sink excluded).
  EXPECT_EQ(rep.metrics.labeled_gauges(metric::kNodeEnergyJ).size(), 10u);
  EXPECT_EQ(rep.metrics.labeled_counters(metric::kNodeRelayed).size(), 10u);
  // S-MAC relays via intermediate hops: someone forwarded something.
  std::uint64_t total_relayed = 0;
  for (const auto& [id, v] :
       rep.metrics.labeled_counters(metric::kNodeRelayed))
    total_relayed += v;
  EXPECT_GT(total_relayed, 0u);
}

TEST(ReportJson, MultiClusterReportRoundTrips) {
  std::vector<ClusterSpec> specs;
  Rng rng(3);
  for (int i = 0; i < 2; ++i) {
    ClusterSpec spec;
    spec.deployment = deploy_connected_uniform_square(8, 150.0, 60.0, rng);
    spec.origin = {i * 200.0, 0.0};
    specs.push_back(std::move(spec));
  }
  ProtocolConfig cfg;
  cfg.seed = 3;
  MultiClusterSimulation sim(specs, cfg, InterClusterMode::kColored, 30.0);
  const MultiClusterReport rep = sim.run(Time::sec(25), Time::sec(10));
  const Json back = roundtrip_and_check(obs::to_json(rep), "multi_cluster",
                                        rep.totals.metrics, "totals");
  const Json& r = back.at("report");
  EXPECT_EQ(r.at("channels_used").as_int(), rep.channels_used);
  ASSERT_EQ(r.at("clusters").size(), 2u);
  EXPECT_EQ(r.at("clusters").at(0).at("delivery_ratio").as_double(),
            rep.delivery_ratio[0]);
  // Field-wide per-node ids are unique across clusters: 8 + 8 sensors.
  EXPECT_EQ(rep.totals.metrics.labeled_gauges(metric::kNodeEnergyJ).size(),
            16u);
}

// ---------- Deployment serialization ----------

TEST(ReportJson, DeploymentSerializes) {
  const Deployment dep = small_deployment(5);
  const Json d = obs::to_json(dep);
  EXPECT_EQ(d.at("num_sensors").as_uint(), dep.num_sensors());
  EXPECT_EQ(d.at("sensors").size(), dep.num_sensors());
  EXPECT_EQ(parse_json(d.dump()).at("head").at("x").as_double(),
            dep.head_pos().x);
}

// ---------- Bench reports ----------

TEST(BenchJson, TableAndRecorderSerializeAndParseBack) {
  Table table({"sensors", "rate B/s", "note"});
  table.add_row({static_cast<long long>(10), 20.5, std::string("ok")});
  table.add_row({static_cast<long long>(20), 40.25, std::string("sat")});
  obs::RunRecorder recorder;
  recorder.add_events(12345);

  const std::string path = "BENCH_test_obs_tmp.json";
  ASSERT_TRUE(exp::save_bench_json("test_obs_tmp", table, recorder, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  const Json v = parse_json(buf.str());
  std::remove(path.c_str());

  EXPECT_EQ(v.at("schema").as_int(), obs::kReportSchemaVersion);
  EXPECT_EQ(v.at("bench").as_string(), "test_obs_tmp");
  EXPECT_EQ(v.at("run").at("events_processed").as_uint(), 12345u);
  EXPECT_GE(v.at("run").at("wall_seconds").as_double(), 0.0);
  ASSERT_EQ(v.at("points").size(), 2u);
  const Json& p0 = v.at("points").at(0);
  EXPECT_TRUE(p0.at("sensors").is_int());  // cell types survive
  EXPECT_EQ(p0.at("sensors").as_int(), 10);
  EXPECT_DOUBLE_EQ(p0.at("rate B/s").as_double(), 20.5);
  EXPECT_EQ(v.at("points").at(1).at("note").as_string(), "sat");
}

// ---------- Routing policy: load balance acceptance ----------

TEST(RoutingPolicy, BalancedRoutingLowersWorstRelayLoad) {
  // Same fixed-seed deployment under both policies; the max-flow plan
  // (§III-A) must spread relaying so its worst sensor forwards fewer
  // packets than under hop-count shortest paths.
  Rng rng(1);
  const Deployment dep = deploy_connected_uniform_square(24, 200.0, 60.0,
                                                         rng);
  auto worst_relayed = [&dep](RoutingPolicy policy) {
    ProtocolConfig cfg;
    cfg.routing = policy;
    PollingSimulation sim(dep, cfg, 40.0);
    const SimulationReport rep = sim.run(Time::sec(30), Time::sec(10));
    EXPECT_GT(rep.delivery_ratio, 0.9);
    std::uint64_t worst = 0;
    for (const auto& [id, v] :
         rep.metrics.labeled_counters(metric::kNodeRelayed))
      worst = std::max(worst, v);
    return worst;
  };
  const std::uint64_t balanced =
      worst_relayed(RoutingPolicy::kBalancedMaxFlow);
  const std::uint64_t shortest = worst_relayed(RoutingPolicy::kShortestPath);
  EXPECT_GT(shortest, 0u);
  EXPECT_LT(balanced, shortest);
}

}  // namespace
}  // namespace mhp

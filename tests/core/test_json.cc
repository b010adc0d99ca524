/**
 * @file
 * Tests for the JSON export of RunResult.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hh"

namespace microscale::core
{
namespace
{

ExperimentConfig
fastConfig()
{
    ExperimentConfig c;
    c.machine = topo::small8();
    c.app.store.categories = 4;
    c.app.store.productsPerCategory = 10;
    c.app.store.users = 20;
    c.sizing.webui = {1, 8};
    c.sizing.auth = {1, 4};
    c.sizing.persistence = {1, 8};
    c.sizing.recommender = {1, 2};
    c.sizing.image = {1, 8};
    c.sizing.registry = {1, 1};
    c.load.users = 40;
    c.load.meanThink = 50 * kMillisecond;
    c.warmup = 150 * kMillisecond;
    c.measure = 300 * kMillisecond;
    return c;
}

/** Count balanced braces/brackets and validate basic wellformedness. */
bool
balanced(const std::string &s)
{
    int braces = 0, brackets = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '"' && (i == 0 || s[i - 1] != '\\'))
            in_string = !in_string;
        if (in_string)
            continue;
        if (c == '{')
            ++braces;
        if (c == '}')
            --braces;
        if (c == '[')
            ++brackets;
        if (c == ']')
            --brackets;
        if (braces < 0 || brackets < 0)
            return false;
    }
    return braces == 0 && brackets == 0 && !in_string;
}

TEST(Json, WellFormedAndComplete)
{
    const RunResult r = runExperiment(fastConfig());
    const std::string j = toJson(r);
    EXPECT_TRUE(balanced(j)) << j.substr(0, 400);
    for (const char *key :
         {"\"throughput_rps\"", "\"latency\"", "\"per_op\"",
          "\"services\"", "\"total\"", "\"sched\"", "\"breakdown\"",
          "\"webui\"", "\"placement\"", "\"p99_ms\"",
          "\"context_switches\""}) {
        EXPECT_NE(j.find(key), std::string::npos) << key;
    }
    // No trailing commas (",}" or ",]") anywhere.
    EXPECT_EQ(j.find(",}"), std::string::npos);
    EXPECT_EQ(j.find(",]"), std::string::npos);
}

TEST(Json, DeterministicForSameRun)
{
    const RunResult r = runExperiment(fastConfig());
    EXPECT_EQ(toJson(r), toJson(r));
}

TEST(Json, ReflectsResultValues)
{
    RunResult r = runExperiment(fastConfig());
    const std::string j = toJson(r);
    // The throughput value appears verbatim (setprecision(10)).
    std::ostringstream expect;
    expect << std::setprecision(10) << r.throughputRps;
    EXPECT_NE(j.find(expect.str()), std::string::npos);
}

TEST(Json, ParseRoundTripsRunResult)
{
    const RunResult r = runExperiment(fastConfig());
    const JsonValue v = parseJson(toJson(r));
    ASSERT_TRUE(v.isObject());
    const JsonValue &tput = v.at("throughput_rps");
    ASSERT_TRUE(tput.isNumber());
    // The writer emits 10 significant digits.
    EXPECT_NEAR(tput.numberValue, r.throughputRps,
                1e-9 * std::abs(r.throughputRps) + 1e-12);
    const JsonValue &p99 = v.at("latency").at("p99_ms");
    ASSERT_TRUE(p99.isNumber());
    EXPECT_NEAR(p99.numberValue, r.latency.p99Ms,
                1e-9 * std::abs(r.latency.p99Ms) + 1e-12);
    // Service map keys survive the trip.
    const JsonValue &services = v.at("services");
    ASSERT_TRUE(services.isObject());
    EXPECT_NE(services.find("webui"), nullptr);
}

TEST(Json, ParseHandlesEscapesAndLiterals)
{
    const JsonValue v = parseJson(
        "{\"s\": \"a\\\"b\\\\c\\n\", \"t\": true, \"f\": false,"
        " \"n\": null, \"a\": [1, -2.5, 3e2]}");
    EXPECT_EQ(v.at("s").stringValue, "a\"b\\c\n");
    EXPECT_TRUE(v.at("t").boolValue);
    EXPECT_FALSE(v.at("f").boolValue);
    EXPECT_EQ(v.at("n").kind, JsonValue::Kind::Null);
    ASSERT_EQ(v.at("a").elements.size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").elements[1].numberValue, -2.5);
    EXPECT_DOUBLE_EQ(v.at("a").elements[2].numberValue, 300.0);
}

TEST(Json, NonFiniteNumbersEmitNull)
{
    // A broken metric pipeline (0/0, log of 0) must not corrupt the
    // document: the writer emits null for NaN/Inf, never the raw
    // "nan"/"inf" literals no parser accepts.
    RunResult r;
    r.throughputRps = std::nan("");
    r.latency.meanMs = std::numeric_limits<double>::infinity();
    r.latency.p50Ms = -std::numeric_limits<double>::infinity();
    const std::string j = toJson(r);
    EXPECT_EQ(j.find("nan"), std::string::npos);
    EXPECT_EQ(j.find("inf"), std::string::npos);
    const JsonValue v = parseJson(j);
    EXPECT_EQ(v.at("throughput_rps").kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.at("latency").at("mean_ms").kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.at("latency").at("p50_ms").kind, JsonValue::Kind::Null);
    // Finite neighbors are untouched.
    EXPECT_TRUE(v.at("latency").at("p99_ms").isNumber());
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": 1,}"), std::runtime_error);
    EXPECT_THROW(parseJson("[1, 2"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": 1} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
}

TEST(Json, ParseRejectsMalformedNumbers)
{
    // Each once slipped through as a prefix (-, 1.2.3, 1e, 1-2) or
    // as an empty token.
    for (const char *text :
         {"-", "1.2.3", "1e", "1-2", "[--]", "[1e+]", "01", ".5", "1.",
          "+1", "[1,-]", "{\"a\": -x}"}) {
        EXPECT_THROW(parseJson(text), std::runtime_error) << text;
    }
}

TEST(Json, ParseAcceptsEveryNumberForm)
{
    const JsonValue v =
        parseJson("[0, -0, 12, -3.25, 1e3, 1E-2, 2.5e+2, 10.0e0]");
    const std::vector<double> want = {0, 0, 12, -3.25, 1000, 0.01, 250, 10};
    ASSERT_EQ(v.elements.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_DOUBLE_EQ(v.elements[i].numberValue, want[i]) << i;
    // Out-of-range exponents stay infinite, for json_check to flag.
    EXPECT_TRUE(std::isinf(parseJson("1e999").numberValue));
    EXPECT_TRUE(std::isinf(parseJson("-1e999").numberValue));
}

TEST(Json, ParseRequiresFourHexDigitsInUnicodeEscapes)
{
    for (const char *text :
         {"\"\\uZZZZ\"", "\"\\u12\"", "\"\\u00G1\"", "\"\\u 041\"",
          "\"\\u"}) {
        EXPECT_THROW(parseJson(text), std::runtime_error) << text;
    }
    EXPECT_EQ(parseJson("\"\\u0041\\u001f\"").stringValue, "A\x1f");
}

TEST(Json, ParseDecodesUnicodeEscapesToUtf8)
{
    EXPECT_EQ(parseJson("\"\\u00e9\\u4e2d\"").stringValue,
              "\xc3\xa9\xe4\xb8\xad"); // U+00E9 U+4E2D
    // A surrogate pair is one 4-byte code point (U+1F600).
    EXPECT_EQ(parseJson("\"\\ud83d\\ude00\"").stringValue,
              "\xf0\x9f\x98\x80");
    // Escapes below 0x80 stay single bytes.
    EXPECT_EQ(parseJson("\"\\u0000\\u007f\\u0022\"").stringValue,
              std::string("\0\x7f\"", 3));
    for (const char *text :
         {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83dx\"",
          "\"\\ud83d\\u0041\"", "\"\\ud83d\\ud83d\"",
          "\"\\ud83d\\n\""}) {
        EXPECT_THROW(parseJson(text), std::runtime_error) << text;
    }
}

TEST(Json, WriterEscapesKeysAndStrings)
{
    // Map keys and string fields are written through jsonEscape, so
    // a name with a quote or a backslash round-trips.
    RunResult r;
    r.throughputRps = 1.0;
    r.perOp["say \"hi\" \\ bye"].count = 3;
    r.servicePerf["tab\tsvc"].ipc = 1.5;
    r.elastic.active = true;
    r.elastic.schedule = "spike \"x\"";
    r.elastic.policy = "p";
    r.elastic.placer = "q";
    r.elastic.peakReplicas["a\\b"] = 2;
    const JsonValue v = parseJson(toJson(r));
    EXPECT_EQ(v.at("per_op").at("say \"hi\" \\ bye").at("count").numberValue,
              3.0);
    EXPECT_EQ(v.at("services").at("tab\tsvc").at("ipc").numberValue, 1.5);
    const JsonValue &el = v.at("elastic");
    EXPECT_EQ(el.at("schedule").stringValue, "spike \"x\"");
    EXPECT_EQ(el.at("peak_replicas").at("a\\b").numberValue, 2.0);
}

TEST(Json, EscapeProducesValidStrings)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    const JsonValue v =
        parseJson("\"" + jsonEscape("mix: \"q\" \\ \n\t\x01") + "\"");
    EXPECT_EQ(v.stringValue, "mix: \"q\" \\ \n\t\x01");
}

} // namespace
} // namespace microscale::core

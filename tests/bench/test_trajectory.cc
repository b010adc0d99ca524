/**
 * @file
 * Schema test for the committed perfbench trajectory,
 * BENCH_perfbench.json at the repository root: every record names a
 * workload that BENCHMARK.json declares and carries every field with a
 * non-empty or positive value, so a later change can compare against
 * it without guessing.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/json.hh"

#ifndef MICROSCALE_SOURCE_DIR
#error "MICROSCALE_SOURCE_DIR must be defined by the build"
#endif

namespace microscale
{
namespace
{

const char *const kTextFields[] = {"workload", "side", "commit", "host"};
const char *const kPositiveFields[] = {
    "seed",    "runs",       "sim_s_per_wall_s", "sim_s_per_wall_s_iqr",
    "setup_s", "peak_rss_mb"};

core::JsonValue
load(const std::string &name)
{
    std::ifstream in(std::string(MICROSCALE_SOURCE_DIR) + "/" + name);
    std::ostringstream buf;
    buf << in.rdbuf();
    return core::parseJson(buf.str());
}

/** Why `rec` is not a valid trajectory record, or "" when it is. */
std::string
recordProblem(const core::JsonValue &rec,
              const std::set<std::string> &workloads)
{
    if (!rec.isObject())
        return "record is not an object";
    for (const char *f : kTextFields) {
        const core::JsonValue *v = rec.find(f);
        if (!v || !v->isString() || v->stringValue.empty())
            return std::string("missing or empty \"") + f + "\"";
    }
    for (const char *f : kPositiveFields) {
        const core::JsonValue *v = rec.find(f);
        if (!v || !v->isNumber() || !(v->numberValue > 0.0))
            return std::string("missing or non-positive \"") + f + "\"";
    }
    const std::string &side = rec.at("side").stringValue;
    if (side != "parent" && side != "change")
        return "side \"" + side + "\" is neither parent nor change";
    if (!workloads.count(rec.at("workload").stringValue))
        return "workload \"" + rec.at("workload").stringValue +
               "\" is not in BENCHMARK.json";
    return "";
}

std::set<std::string>
declaredWorkloads()
{
    const core::JsonValue bench = load("BENCHMARK.json");
    std::set<std::string> names;
    for (const core::JsonValue &w : bench.at("workloads").elements)
        names.insert(w.at("name").stringValue);
    return names;
}

TEST(Trajectory, CommittedRecordsAreComplete)
{
    const std::set<std::string> workloads = declaredWorkloads();
    ASSERT_FALSE(workloads.empty());
    const core::JsonValue doc = load("BENCH_perfbench.json");
    const core::JsonValue *records = doc.find("records");
    ASSERT_TRUE(records && records->isArray());
    ASSERT_FALSE(records->elements.empty());
    std::set<std::string> sides;
    for (const core::JsonValue &rec : records->elements) {
        EXPECT_EQ(recordProblem(rec, workloads), "");
        if (rec.isObject() && rec.find("side"))
            sides.insert(rec.at("side").stringValue);
    }
    // A speedup is read from a parent and a change of one session.
    EXPECT_EQ(sides.size(), 2u);
}

TEST(Trajectory, RejectsMissingOrNonPositiveFields)
{
    const std::set<std::string> workloads = declaredWorkloads();
    const core::JsonValue good = core::parseJson(R"({
        "workload": "socialnet-hedged", "seed": 1, "side": "parent",
        "commit": "0123abc", "host": "x86-64, 4 vCPU", "runs": 3,
        "sim_s_per_wall_s": 5.0, "sim_s_per_wall_s_iqr": 0.4,
        "setup_s": 0.001, "peak_rss_mb": 6.7})");
    ASSERT_EQ(recordProblem(good, workloads), "");

    auto without = [&](const std::string &key) {
        core::JsonValue rec = good;
        std::erase_if(rec.members,
                      [&](const auto &m) { return m.first == key; });
        return rec;
    };
    auto with = [&](const std::string &key, core::JsonValue value) {
        core::JsonValue rec = good;
        for (auto &m : rec.members) {
            if (m.first == key)
                m.second = value;
        }
        return rec;
    };
    core::JsonValue zero = core::parseJson("0");
    core::JsonValue negative = core::parseJson("-1.5");
    core::JsonValue text = core::parseJson("\"5\"");
    core::JsonValue empty = core::parseJson("\"\"");

    for (const char *f : kPositiveFields) {
        EXPECT_NE(recordProblem(without(f), workloads), "") << f;
        EXPECT_NE(recordProblem(with(f, zero), workloads), "") << f;
        EXPECT_NE(recordProblem(with(f, negative), workloads), "") << f;
        EXPECT_NE(recordProblem(with(f, text), workloads), "") << f;
    }
    for (const char *f : kTextFields) {
        EXPECT_NE(recordProblem(without(f), workloads), "") << f;
        EXPECT_NE(recordProblem(with(f, empty), workloads), "") << f;
    }
    EXPECT_NE(recordProblem(with("side", core::parseJson("\"mid\"")),
                            workloads),
              "");
    EXPECT_NE(recordProblem(with("workload", core::parseJson("\"nope\"")),
                            workloads),
              "");
    EXPECT_NE(recordProblem(core::parseJson("[1]"), workloads), "");
}

} // namespace
} // namespace microscale

/**
 * @file
 * Black-box tests for the json_check validator. A SeriesReporter
 * emits one artifact whose single point carries every gated result
 * block (resilience, overload, elastic, trace, grayfail, scaleout,
 * replication, fanout) with plausible values; json_check must accept
 * it under every flag. Each test then breaks the document in one way
 * - a key deleted, a number made negative, a string emptied, a
 * cross-field rule violated, a flagged block removed - and requires
 * json_check to exit 1.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "base/table.hh"
#include "common.hh"
#include "core/json.hh"

#ifndef MICROSCALE_JSON_CHECK
#error "MICROSCALE_JSON_CHECK must be defined by the build"
#endif

namespace microscale
{
namespace
{

using core::JsonValue;

const std::vector<std::string> kAllFlags = {
    "--elastic",  "--overload",    "--trace", "--grayfail",
    "--scaleout", "--replication", "--fanout"};

/** A result with all eight blocks active and mutually consistent. */
core::RunResult
fullResult()
{
    core::RunResult r;
    r.throughputRps = 250.0;
    r.eventsProcessed = 5000;
    r.latency = {500, 4.0, 3.0, 8.0, 12.0};
    r.perOp["home"] = r.latency;

    core::ResilienceSummary &rs = r.resilience;
    rs.active = true;
    rs.goodputRps = 240.0;
    rs.errorRate = 0.04;
    rs.degradedShare = 0.01;
    rs.okCount = 480;
    rs.timeoutCount = 10;
    rs.overloadCount = 5;
    rs.unavailableCount = 3;
    rs.rejectedCount = 2;
    rs.degradedCount = 5;
    rs.retries = 7;
    rs.retriesDenied = 1;
    rs.clientTimeouts = 4;
    rs.shed = 6;
    rs.deadlineDrops = 2;
    rs.breakerOpens = 1;

    core::OverloadSummary &ov = r.overload;
    ov.active = true;
    ov.admission = "gradient";
    ov.codel = true;
    ov.adaptiveLifo = true;
    ov.criticalityAware = true;
    ov.brownout = true;
    ov.shedCritical = 1;
    ov.shedNormal = 3;
    ov.shedSheddable = 9;
    ov.codelDrops = 4;
    ov.lifoDequeues = 11;
    ov.rejectedTotal = 2;
    ov.limitInitial = 32.0;
    ov.limitMin = 8.0;
    ov.limitMax = 40.0;
    ov.limitFinal = 20.0;
    ov.brownoutDutyCycle = 0.25;
    ov.dimmerMin = 0.5;
    ov.dimmerFinal = 0.75;
    ov.brownoutSkips = 12;

    core::ElasticSummary &es = r.elastic;
    es.active = true;
    es.schedule = "spike";
    es.policy = "threshold";
    es.placer = "topology-aware";
    es.offeredMeanRps = 300.0;
    es.offeredPeakRps = 900.0;
    es.sloP99Ms = 50.0;
    es.sloViolationSeconds = 0.4;
    es.coreSecondsGranted = 12.5;
    es.steadyStateCpus = 4.0;
    es.scaleOutLagMeanMs = 80.0;
    es.scaleOuts = 3;
    es.scaleIns = 1;
    es.peakReplicas["webui"] = 3;
    es.peakReplicas["persistence"] = 2;

    // Four traces, 10 ms mean end to end: 0.5 ms unattributed plus
    // 9.5 ms of service components.
    core::TraceSummary &tr = r.trace;
    tr.active = true;
    tr.sampleRate = 1.0;
    tr.rootsSeen = 6;
    tr.tracesSampled = 6;
    tr.tracesAnalyzed = 4;
    tr.spanCount = 40;
    tr.meanE2eMs = 10.0;
    tr.attribution.traces = 4;
    tr.attribution.e2eNs = 40e6;
    tr.attribution.unattributedNs = 2e6;
    trace::ServiceAttribution &web = tr.attribution.services["webui"];
    web.queueNs = 4e6;
    web.computeNs = 8e6;
    web.stallNs = 2e6;
    web.fanoutNs = 2e6;
    web.backoffNs = 1e6;
    web.shedNs = 1e6;
    web.networkNs = 2e6;
    web.fabricNs = 1e6;
    trace::ServiceAttribution &db = tr.attribution.services["persistence"];
    db.queueNs = 4e6;
    db.computeNs = 8e6;
    db.stallNs = 2e6;
    db.fanoutNs = 1e6;
    db.backoffNs = 1e6;
    db.shedNs = 0.0;
    db.networkNs = 2e6;
    db.fabricNs = 2e6;

    core::GrayFailSummary &gf = r.grayfail;
    gf.active = true;
    gf.ejectionEnabled = true;
    gf.ejections = 3;
    gf.unejections = 2;
    gf.ejectionsDenied = 1;
    gf.ejectedAtEnd = 1;
    gf.packetsDropped = 5;
    gf.packetsDuplicated = 2;
    gf.packetsBlackholed = 1;
    gf.faultsApplied = 2;
    gf.faultsSkipped = 1;

    core::ScaleoutSummary &so = r.scaleout;
    so.active = true;
    so.nodes = 4;
    so.activeNodesEnd = 3;
    so.shards = 2;
    so.cacheNodes = 1;
    so.fabricMessages = 900;
    so.fabricBytes = 123456;
    so.fabricShare = 0.3;
    so.cacheHits = 80;
    so.cacheMisses = 20;
    so.cacheInvalidations = 4;
    so.cacheEvictions = 2;
    so.cacheHitRate = 0.8;
    so.shardRequests = 30;
    so.shardLoadCv = 0.1;
    so.nodesProvisioned = 3;
    so.warmProvisions = 2;
    so.coldProvisions = 1;
    so.provisionLagMeanMs = 150.0;

    core::ReplicationSummary &rp = r.replication;
    rp.active = true;
    rp.factor = 3;
    rp.writeQuorum = 2;
    rp.readQuorum = 2;
    rp.quorumWrites = 100;
    rp.writeFailures = 1;
    rp.writeAckP50Ms = 1.5;
    rp.writeAckP99Ms = 6.0;
    rp.quorumReads = 200;
    rp.readFailures = 2;
    rp.readRepairs = 3;
    rp.readRefetches = 1;
    rp.readP50Ms = 1.0;
    rp.readP99Ms = 4.0;
    rp.hintsQueued = 5;
    rp.hintsReplayed = 4;
    rp.hintsDropped = 1;
    rp.hintDepthPeak = 3;
    rp.rebalancesStarted = 2;
    rp.rebalancesCompleted = 1;
    rp.rebalanceBatches = 6;
    rp.rebalanceBytes = 4096;
    rp.dualReads = 7;
    rp.rebalanceMsTotal = 30.0;
    rp.consistencyChecked = true;
    rp.ackedWrites = 99;
    rp.lostAckedWrites = 0;
    rp.staleQuorumReads = 0;

    core::FanoutSummary &fo = r.fanout;
    fo.active = true;
    fo.app = "socialnet";
    fo.depth = 4;
    fo.services = 12;
    fo.fanWidth = 4;
    fo.hedged = true;
    fo.hedgeDelayMs = 1.2;
    fo.hedgeQuantile = 0.95;
    fo.hedgeBudgetRatio = 0.5;
    fo.firstAttempts = 100;
    fo.hedgesLaunched = 10;
    fo.hedgeWins = 4;
    fo.hedgesDenied = 2;
    fo.hedgesCancelled = 5;
    fo.hedgeShare = 0.1;
    fo.p50Ms = 3.0;
    fo.p99Ms = 9.0;
    fo.amplification = 3.0;
    return r;
}

/** Serialize a parsed document back to JSON text. */
void
dump(std::ostream &os, const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        os << "null";
        break;
      case JsonValue::Kind::Bool:
        os << (v.boolValue ? "true" : "false");
        break;
      case JsonValue::Kind::Number:
        os << std::setprecision(17) << v.numberValue;
        break;
      case JsonValue::Kind::String:
        os << '"' << core::jsonEscape(v.stringValue) << '"';
        break;
      case JsonValue::Kind::Object: {
        os << '{';
        const char *sep = "";
        for (const auto &[key, member] : v.members) {
            os << sep << '"' << core::jsonEscape(key) << "\":";
            dump(os, member);
            sep = ",";
        }
        os << '}';
        break;
      }
      case JsonValue::Kind::Array: {
        os << '[';
        const char *sep = "";
        for (const JsonValue &e : v.elements) {
            os << sep;
            dump(os, e);
            sep = ",";
        }
        os << ']';
        break;
      }
    }
}

JsonValue &
member(JsonValue &obj, const std::string &key)
{
    for (auto &[k, v] : obj.members) {
        if (k == key)
            return v;
    }
    ADD_FAILURE() << "no member '" << key << "'";
    static JsonValue none;
    return none;
}

void
erase(JsonValue &obj, const std::string &key)
{
    for (auto it = obj.members.begin(); it != obj.members.end(); ++it) {
        if (it->first == key) {
            obj.members.erase(it);
            return;
        }
    }
    ADD_FAILURE() << "no member '" << key << "' to erase";
}

JsonValue
number(double x)
{
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.numberValue = x;
    return v;
}

JsonValue
text(const std::string &s)
{
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    v.stringValue = s;
    return v;
}

/** Runs json_check on mutated copies of the full-blocks artifact. */
class JsonCheck : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        const std::string dir = ::testing::TempDir();
        ASSERT_EQ(setenv("MICROSCALE_BENCH_OUT_DIR", dir.c_str(), 1), 0);
        {
            core::ExperimentConfig reference;
            reference.machine = topo::small8();
            benchx::SeriesReporter rep("TEST-JC", stem(),
                                       "every gated block", reference);
            rep.add("all-blocks", fullResult());
            TextTable t({"point", "tput"});
            t.row().cell("all-blocks").cell(250.0, 1);
            rep.table(t, "one table");
            rep.finish();
        }
        ASSERT_EQ(unsetenv("MICROSCALE_BENCH_OUT_DIR"), 0);
        std::ifstream is(dir + "/BENCH_" + stem() + ".json");
        std::ostringstream buf;
        buf << is.rdbuf();
        base_ = new JsonValue(core::parseJson(buf.str()));
    }

    static void
    TearDownTestSuite()
    {
        delete base_;
        base_ = nullptr;
    }

    /** Per-process file names: ctest runs each test in its own
     * process, several at once. */
    static std::string
    stem()
    {
        return "test_json_check_" + std::to_string(getpid());
    }

    /** A fresh copy of the artifact. */
    static JsonValue
    doc()
    {
        return *base_;
    }

    /** The single point's result object inside `d`. */
    static JsonValue &
    result(JsonValue &d)
    {
        return member(member(d, "points").elements.at(0), "result");
    }

    /** One block of the point's result inside `d`. */
    static JsonValue &
    block(JsonValue &d, const std::string &name)
    {
        return member(result(d), name);
    }

    /** Raw wait status of json_check run with `args`. */
    static int
    runRaw(const std::string &args)
    {
        const std::string cmd = std::string(MICROSCALE_JSON_CHECK) + " " +
                                args + " >/dev/null 2>&1";
        return std::system(cmd.c_str());
    }

    /** Exit code of json_check FLAGS FILE 1 on document `d`; -1 when
     * it did not exit normally. */
    static int
    check(const JsonValue &d, const std::vector<std::string> &flags)
    {
        const std::string path =
            ::testing::TempDir() + "/" + stem() + "_case.json";
        {
            std::ofstream os(path);
            dump(os, d);
        }
        std::string args;
        for (const std::string &f : flags)
            args += f + " ";
        const int status = runRaw(args + path + " 1");
        if (!WIFEXITED(status))
            return -1;
        return WEXITSTATUS(status);
    }

    static int
    check(const JsonValue &d)
    {
        return check(d, kAllFlags);
    }

    static JsonValue *base_;
};

JsonValue *JsonCheck::base_ = nullptr;

/** The 118 per-block keys json_check validates, by block. */
struct BlockKeys
{
    const char *block;
    std::vector<std::string> strings;
    std::vector<std::string> numbers;
};

const std::vector<BlockKeys> &
blockKeys()
{
    static const std::vector<BlockKeys> keys = {
        {"elastic",
         {"schedule", "policy", "placer"},
         {"offered_mean_rps", "offered_peak_rps", "slo_p99_ms",
          "slo_violation_seconds", "core_seconds_granted",
          "steady_state_cpus", "scale_out_lag_mean_ms", "scale_outs",
          "scale_ins"}},
        {"overload",
         {"admission"},
         {"codel", "adaptive_lifo", "criticality_aware", "brownout",
          "shed_critical", "shed_normal", "shed_sheddable", "codel_drops",
          "lifo_dequeues", "rejected_total", "limit_initial", "limit_min",
          "limit_max", "limit_final", "brownout_duty_cycle", "dimmer_min",
          "dimmer_final", "brownout_skips"}},
        {"trace",
         {},
         {"sample_rate", "roots_seen", "traces_sampled",
          "traces_analyzed", "spans", "mean_e2e_ms"}},
        {"grayfail",
         {},
         {"ejection_enabled", "ejections", "unejections",
          "ejections_denied", "ejected_at_end", "packets_dropped",
          "packets_duplicated", "packets_blackholed", "faults_applied",
          "faults_skipped"}},
        {"scaleout",
         {},
         {"nodes", "active_nodes_end", "shards", "cache_nodes",
          "fabric_messages", "fabric_bytes", "fabric_share", "cache_hits",
          "cache_misses", "cache_invalidations", "cache_evictions",
          "cache_hit_rate", "shard_requests", "shard_load_cv",
          "nodes_provisioned", "warm_provisions", "cold_provisions",
          "provision_lag_mean_ms"}},
        {"replication",
         {},
         {"factor", "write_quorum", "read_quorum", "quorum_writes",
          "write_failures", "write_ack_p50_ms", "write_ack_p99_ms",
          "quorum_reads", "read_failures", "read_repairs",
          "read_refetches", "read_p50_ms", "read_p99_ms", "hints_queued",
          "hints_replayed", "hints_dropped", "hint_depth_peak",
          "rebalances_started", "rebalances_completed",
          "rebalance_batches", "rebalance_bytes", "dual_reads",
          "rebalance_ms_total", "consistency_checked", "acked_writes",
          "lost_acked_writes", "stale_quorum_reads"}},
        {"fanout",
         {"app"},
         {"depth", "services", "fan_width", "hedged", "hedge_delay_ms",
          "hedge_quantile", "hedge_budget_ratio", "first_attempts",
          "hedges_launched", "hedge_wins", "hedges_denied",
          "hedges_cancelled", "hedge_share", "p50_ms", "p99_ms",
          "amplification"}},
    };
    return keys;
}

/** Per-service trace attribution keys (all non-negative numbers). */
const std::vector<std::string> kAttributionKeys = {
    "queue_ms",         "compute_ms", "stall_ms",   "fanout_wait_ms",
    "retry_backoff_ms", "shed_ms",    "network_ms", "total_ms"};

TEST_F(JsonCheck, AcceptsAllBlocksUnderEveryFlag)
{
    EXPECT_EQ(check(doc(), {}), 0);
    EXPECT_EQ(check(doc()), 0);
    for (const std::string &flag : kAllFlags)
        EXPECT_EQ(check(doc(), {flag}), 0) << flag;
}

TEST_F(JsonCheck, RejectsEachMissingBlockKey)
{
    std::size_t keys = 0;
    for (const BlockKeys &b : blockKeys()) {
        std::vector<std::string> all = b.strings;
        all.insert(all.end(), b.numbers.begin(), b.numbers.end());
        for (const std::string &key : all) {
            JsonValue d = doc();
            erase(block(d, b.block), key);
            EXPECT_EQ(check(d), 1) << b.block << "." << key << " deleted";
            ++keys;
        }
    }
    {
        JsonValue d = doc();
        erase(block(d, "trace"), "unattributed_ms");
        EXPECT_EQ(check(d), 1) << "trace.unattributed_ms deleted";
        ++keys;
    }
    for (const std::string &key : kAttributionKeys) {
        JsonValue d = doc();
        erase(member(member(block(d, "trace"), "attribution"), "webui"),
              key);
        EXPECT_EQ(check(d), 1) << "attribution.webui." << key
                               << " deleted";
        ++keys;
    }
    EXPECT_EQ(keys, 118u);
}

TEST_F(JsonCheck, RejectsEachNegativeNumber)
{
    for (const BlockKeys &b : blockKeys()) {
        for (const std::string &key : b.numbers) {
            JsonValue d = doc();
            member(block(d, b.block), key) = number(-1.0);
            EXPECT_EQ(check(d), 1) << b.block << "." << key << " = -1";
        }
    }
    for (const std::string &key : kAttributionKeys) {
        JsonValue d = doc();
        member(member(member(block(d, "trace"), "attribution"), "webui"),
               key) = number(-1.0);
        EXPECT_EQ(check(d), 1) << "attribution.webui." << key << " = -1";
    }
}

TEST_F(JsonCheck, RejectsEachEmptyString)
{
    for (const BlockKeys &b : blockKeys()) {
        for (const std::string &key : b.strings) {
            JsonValue d = doc();
            member(block(d, b.block), key) = text("");
            EXPECT_EQ(check(d), 1) << b.block << "." << key << " = \"\"";
        }
    }
}

TEST_F(JsonCheck, AcceptsASignedUnattributedResidue)
{
    // The residue is the only signed metric: a clamped attribution
    // may overshoot the end-to-end latency by a hair.
    JsonValue d = doc();
    JsonValue &tr = block(d, "trace");
    const double un = member(tr, "unattributed_ms").numberValue;
    member(tr, "unattributed_ms") = number(-0.25);
    member(tr, "mean_e2e_ms") =
        number(member(tr, "mean_e2e_ms").numberValue - un - 0.25);
    EXPECT_EQ(check(d), 0);
}

/** One document per cross-field rule, each violating only that rule. */
TEST_F(JsonCheck, RejectsEachCrossFieldViolation)
{
    struct Case
    {
        const char *block;
        const char *key;
        double value;
    };
    const std::vector<Case> cases = {
        {"overload", "brownout_duty_cycle", 1.5},
        {"overload", "dimmer_min", 1.5},
        {"overload", "dimmer_final", 1.5},
        {"trace", "mean_e2e_ms", 20.0},
        {"trace", "unattributed_ms", 5.0},
        {"grayfail", "ejection_enabled", 2.0},
        {"grayfail", "ejected_at_end", 4.0},
        {"scaleout", "nodes", 0.0},
        {"scaleout", "active_nodes_end", 0.0},
        {"scaleout", "active_nodes_end", 5.0},
        {"scaleout", "fabric_share", 1.5},
        {"scaleout", "cache_hit_rate", 1.5},
        {"scaleout", "cold_provisions", 2.0},
        {"replication", "factor", 1.0},
        {"replication", "write_quorum", 0.0},
        {"replication", "write_quorum", 4.0},
        {"replication", "read_quorum", 0.0},
        {"replication", "read_quorum", 4.0},
        {"replication", "hints_replayed", 6.0},
        {"replication", "rebalances_completed", 3.0},
        {"replication", "consistency_checked", 2.0},
        {"replication", "lost_acked_writes", 1.0},
        {"replication", "stale_quorum_reads", 1.0},
        {"fanout", "depth", 0.0},
        {"fanout", "services", 0.0},
        {"fanout", "hedged", 2.0},
        {"fanout", "hedged", 0.0},
        {"fanout", "hedge_wins", 11.0},
        {"fanout", "hedges_cancelled", 11.0},
    };
    for (const Case &c : cases) {
        JsonValue d = doc();
        member(block(d, c.block), c.key) = number(c.value);
        EXPECT_EQ(check(d, {}), 1)
            << c.block << "." << c.key << " = " << c.value;
    }
    // A per-service component that breaks the sum to end to end.
    JsonValue d = doc();
    member(member(member(block(d, "trace"), "attribution"), "webui"),
           "queue_ms") = number(50.0);
    EXPECT_EQ(check(d, {}), 1) << "attribution sum";
}

TEST_F(JsonCheck, ReplicationFlagRequiresTheConsistencySweep)
{
    JsonValue d = doc();
    member(block(d, "replication"), "consistency_checked") = number(0.0);
    EXPECT_EQ(check(d, {}), 0);
    EXPECT_EQ(check(d, {"--replication"}), 1);
}

TEST_F(JsonCheck, RejectsEachFlagWhoseBlockIsMissing)
{
    for (const std::string &flag : kAllFlags) {
        const std::string name = flag.substr(2);
        JsonValue d = doc();
        erase(result(d), name);
        std::vector<std::string> others;
        for (const std::string &f : kAllFlags) {
            if (f != flag)
                others.push_back(f);
        }
        EXPECT_EQ(check(d, others), 0) << name << " removed, " << flag
                                       << " not passed";
        EXPECT_EQ(check(d, {flag}), 1) << name << " removed, " << flag;
    }
}

TEST_F(JsonCheck, EveryPointFlagsCheckEachPoint)
{
    // Two points, the second without one block: the flags of blocks a
    // baseline arm may lack (overload, replication) still pass.
    for (const std::string &flag : kAllFlags) {
        const std::string name = flag.substr(2);
        JsonValue d = doc();
        std::vector<JsonValue> &points = member(d, "points").elements;
        points.push_back(points.at(0));
        member(points.back(), "label") = text("second");
        erase(member(points.back(), "result"), name);
        const bool somePoint =
            name == "overload" || name == "replication";
        EXPECT_EQ(check(d, {flag}), somePoint ? 0 : 1) << flag;
    }
}

TEST_F(JsonCheck, RejectsTooFewPointsAndMissingLabels)
{
    JsonValue d = doc();
    EXPECT_EQ(check(d, {"--trace"}), 0);
    const std::string path =
        ::testing::TempDir() + "/" + stem() + "_points.json";
    {
        std::ofstream os(path);
        dump(os, d);
    }
    EXPECT_EQ(WEXITSTATUS(runRaw(path + " 2")), 1);
    EXPECT_EQ(WEXITSTATUS(runRaw(path + " 1 all-blocks")), 0);
    EXPECT_EQ(WEXITSTATUS(runRaw(path + " 1 no-such-point")), 1);
}

TEST_F(JsonCheck, RejectsAMalformedPointCount)
{
    JsonValue d = doc();
    const std::string path =
        ::testing::TempDir() + "/" + stem() + "_count.json";
    {
        std::ofstream os(path);
        dump(os, d);
    }
    EXPECT_EQ(WEXITSTATUS(runRaw(path + " 1")), 0);
    // Exit 1 with the usage line, never an abort or a wrapped count.
    for (const char *count : {"abc", "-1", "1x", "+1", "", " 1",
                              "99999999999999999999999"}) {
        const int status =
            runRaw(path + " '" + std::string(count) + "'");
        ASSERT_TRUE(WIFEXITED(status)) << "'" << count << "'";
        EXPECT_EQ(WEXITSTATUS(status), 1) << "'" << count << "'";
    }
}

/** One field of core::visitBlocks' lists, found in a full result. */
struct ListedField
{
    /** Member names from the result object down to the field. */
    std::vector<std::string> path;
    bool isString = false;
    bool isSigned = false;
    /** An entry of a map (a data-driven key, absent when the map
     * lacks it) rather than a fixed key. */
    bool mapEntry = false;
};

/** Collects every field core::visitBlocks lists for a result. */
struct FieldCollector
{
    std::vector<std::string> path;
    std::vector<ListedField> fields;

    template <typename Body>
    void
    block(const std::string &name, bool active, Body &&body)
    {
        if (!active)
            return;
        path.push_back(name);
        body();
        path.pop_back();
    }

    template <typename T>
    void
    operator()(const std::string &key, const T &)
    {
        add(key, std::is_same_v<T, std::string>, false, false);
    }

    void
    ms(const std::string &key, double, double)
    {
        add(key, false, false, false);
    }

    void
    signedMs(const std::string &key, double, double)
    {
        add(key, false, true, false);
    }

    template <typename Map>
    void
    map(const std::string &key, const Map &m)
    {
        path.push_back(key);
        for (const auto &entry : m)
            add(entry.first, false, false, true);
        path.pop_back();
    }

    template <typename Map, typename Body>
    void
    map(const std::string &key, const Map &m, Body &&body)
    {
        path.push_back(key);
        for (const auto &[name, entry] : m)
            block(name, true, [&] { body(entry); });
        path.pop_back();
    }

    void
    add(const std::string &key, bool isString, bool isSigned, bool entry)
    {
        ListedField f{path, isString, isSigned, entry};
        f.path.push_back(key);
        fields.push_back(f);
    }
};

/** The object holding field `f` inside the point's result of `d`. */
JsonValue &
parentOf(JsonValue &d, const ListedField &f)
{
    JsonValue *o =
        &member(member(d, "points").elements.at(0), "result");
    for (std::size_t i = 0; i + 1 < f.path.size(); ++i)
        o = &member(*o, f.path[i]);
    return *o;
}

std::string
joined(const ListedField &f)
{
    std::string out;
    for (const std::string &p : f.path)
        out += (out.empty() ? "" : ".") + p;
    return out;
}

/**
 * Walks the same field lists the writer renders, so every field of
 * every block (the resilience block and the conditional fields
 * included) is proven to be checked: deleting a fixed key, making a
 * non-negative number -1 or emptying a string each exits 1.
 */
TEST_F(JsonCheck, RejectsEachBrokenFieldOfEveryList)
{
    const core::RunResult full = fullResult();
    FieldCollector c;
    core::visitBlocks(full, c);
    EXPECT_GT(c.fields.size(), 118u);
    for (const ListedField &f : c.fields) {
        const std::string &key = f.path.back();
        if (!f.mapEntry) {
            JsonValue d = doc();
            erase(parentOf(d, f), key);
            EXPECT_EQ(check(d), 1) << joined(f) << " deleted";
        }
        JsonValue d = doc();
        if (f.isString) {
            member(parentOf(d, f), key) = text("");
            EXPECT_EQ(check(d), 1) << joined(f) << " = \"\"";
        } else if (!f.isSigned) {
            member(parentOf(d, f), key) = number(-1.0);
            EXPECT_EQ(check(d), 1) << joined(f) << " = -1";
        }
    }
}

TEST_F(JsonCheck, ConditionalFieldsFollowTheirBlock)
{
    // resilience.rejected exists only beside an overload block and
    // trace fabric_ms only beside a scaleout block.
    JsonValue d = doc();
    erase(result(d), "overload");
    erase(block(d, "resilience"), "rejected");
    EXPECT_EQ(check(d, {}), 0);
    erase(result(d), "scaleout");
    JsonValue &att = member(block(d, "trace"), "attribution");
    for (auto &[name, a] : att.members)
        erase(a, "fabric_ms");
    EXPECT_EQ(check(d, {}), 0);
}

TEST_F(JsonCheck, RejectsFractionalCountsAndFlags)
{
    for (const auto &[blk, key] :
         std::vector<std::pair<std::string, std::string>>{
             {"elastic", "scale_outs"},
             {"grayfail", "ejection_enabled"},
             {"replication", "factor"}}) {
        JsonValue d = doc();
        JsonValue &n = member(block(d, blk), key);
        n = number(n.numberValue + 0.5);
        EXPECT_EQ(check(d, {}), 1) << blk << "." << key;
    }
}

} // namespace
} // namespace microscale

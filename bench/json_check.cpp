/**
 * @file
 * json_check: CI validator for emitted BENCH_*.json artifacts.
 *
 *   json_check [--elastic] [--overload] [--trace] [--grayfail]
 *              [--scaleout] [--replication] [--fanout]
 *              FILE MIN_POINTS [LABEL...]
 *
 * Parses FILE with core::parseJson and requires the sweep-harness
 * schema: artifact/caption/machine strings, the expected
 * schema_version, the v3 speed stamps (finite non-negative
 * wall_seconds and events_processed), a points array of at least
 * MIN_POINTS entries each carrying a label and a result with a
 * positive throughput_rps, and a non-empty tables array. Any LABEL
 * arguments must appear among the point labels.
 *
 * Every gated result block a point carries is read back through the
 * field lists of core::visitBlocks: each listed field must be present
 * and of its type, then the block's cross-field rules must hold (see
 * checkRules). A flag --<block> requires that block on every point,
 * or on at least one point for overload and replication; with
 * --replication every replication block must also report that its
 * consistency sweep ran. EXPERIMENTS.md tabulates the rules.
 * Independently of any flag, every number in the document must
 * be finite: the writer emits null for NaN/Inf, so a raw non-finite
 * literal (or a null where a metric belongs) fails the check. Exits
 * 1 with a diagnostic on the first violation.
 */

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common.hh"
#include "core/json.hh"

using namespace microscale;

namespace
{

[[noreturn]] void
die(const std::string &what)
{
    std::cerr << "json_check: " << what << "\n";
    std::exit(1);
}

/**
 * Reads one point's result blocks back into a RunResult through
 * core::visitBlocks, checking every listed field on the way: present
 * and of its type, strings non-empty, numbers finite and (unless
 * signed) non-negative, flags 0/1, counts whole. Durations in ms are
 * read back in ms. A field list may depend on whether another block is
 * present, so a first pass (`marking`) only records which blocks the
 * point carries.
 */
class BlockReader
{
  public:
    BlockReader(std::string where, const core::JsonValue &result)
        : where_(std::move(where)), obj_(&result)
    {
    }

    bool marking = true;

    template <typename Body>
    void
    block(const std::string &name, bool &active, Body &&body)
    {
        const core::JsonValue *b = obj_->find(name);
        active = b != nullptr;
        if (b && !marking)
            within(*b, name, body);
    }

    template <typename T>
    void
    operator()(const std::string &key, T &&x)
    {
        read(key, std::forward<T>(x), false);
    }

    void
    ms(const std::string &key, double &ns, double)
    {
        read(key, ns, false);
    }

    void
    signedMs(const std::string &key, double &ns, double)
    {
        read(key, ns, true);
    }

    template <typename Map>
    void
    map(const std::string &key, Map &m)
    {
        const core::JsonValue &o = member(key);
        within(o, key, [&] {
            for (const auto &entry : o.members)
                (*this)(entry.first, m[entry.first]);
        });
    }

    template <typename Map, typename Body>
    void
    map(const std::string &key, Map &m, Body &&body)
    {
        const core::JsonValue &o = member(key);
        within(o, key, [&] {
            for (const auto &[name, entry] : o.members)
                within(entry, name, [&] { body(m[name]); });
        });
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        die(where_ + ": " + what);
    }

    const core::JsonValue &
    member(const std::string &key) const
    {
        const core::JsonValue *m = obj_->find(key);
        if (!m)
            fail("missing '" + key + "'");
        return *m;
    }

    /** Run body() with `o` (the member `name`) as the current object. */
    template <typename Body>
    void
    within(const core::JsonValue &o, const std::string &name, Body &&body)
    {
        if (!o.isObject())
            fail("'" + name + "' is not an object");
        const std::string outer = where_;
        const core::JsonValue *outerObj = obj_;
        where_ += " " + name;
        obj_ = &o;
        body();
        where_ = outer;
        obj_ = outerObj;
    }

    /** Check member `key` against x's type; store it unless x is a
     * computed temporary. */
    template <typename T>
    void
    read(const std::string &key, T &&x, bool isSigned)
    {
        using U = std::remove_cvref_t<T>;
        const core::JsonValue *n = obj_->find(key);
        if constexpr (std::is_same_v<U, std::string>) {
            if (!n || !n->isString() || n->stringValue.empty())
                fail("missing or empty '" + key + "'");
            if constexpr (std::is_lvalue_reference_v<T>)
                x = n->stringValue;
        } else {
            if (!n || !n->isNumber())
                fail("missing or non-numeric '" + key + "'");
            const double d = n->numberValue;
            if (!std::isfinite(d))
                fail("'" + key + "' is not finite");
            if (d < 0 && !isSigned)
                fail("'" + key + "' is negative");
            if constexpr (std::is_same_v<U, bool>) {
                if (d != 0 && d != 1)
                    fail("'" + key + "' is not 0/1");
            } else if constexpr (std::is_integral_v<U>) {
                if (d != std::floor(d) ||
                    d >= std::ldexp(1.0, std::numeric_limits<U>::digits))
                    fail("'" + key + "' is not a whole count");
            }
            if constexpr (std::is_lvalue_reference_v<T>)
                x = static_cast<U>(d);
        }
    }

    std::string where_;
    const core::JsonValue *obj_;
};

/**
 * The cross-field rules: what holds between the fields of a block that
 * BlockReader has read. `sweepRequired` (--replication) demands the
 * post-drain consistency sweep ran.
 */
void
checkRules(const std::string &where, const core::RunResult &r,
           bool sweepRequired)
{
    const auto require = [&](bool ok, const std::string &what) {
        if (!ok)
            die(where + " " + what);
    };
    if (const core::OverloadSummary &ov = r.overload; ov.active) {
        require(ov.brownoutDutyCycle <= 1 && ov.dimmerMin <= 1 &&
                    ov.dimmerFinal <= 1,
                "overload: the dimmed share of the window or a dimmer level "
                "exceeds 1");
    }
    // Read back in ms: the service components plus the unattributed
    // residue partition the mean end-to-end latency exactly; 0.1%
    // absorbs the rounding of the written values.
    if (const core::TraceSummary &tr = r.trace;
        tr.active && tr.tracesAnalyzed > 0) {
        const double sum = tr.attribution.attributedNs();
        const double e2e = tr.attribution.e2eNs;
        require(std::abs(sum - e2e) <= std::max(1e-6, e2e * 1e-3),
                "trace: attribution sums to " + std::to_string(sum) +
                    " ms but the mean end-to-end latency is " +
                    std::to_string(e2e) + " ms");
    }
    if (const core::GrayFailSummary &gf = r.grayfail; gf.active) {
        require(gf.ejectedAtEnd <= gf.ejections,
                "grayfail: more replicas still out at the end than were "
                "ever ejected");
    }
    if (const core::ScaleoutSummary &so = r.scaleout; so.active) {
        require(so.nodes >= 1, "scaleout: an empty cluster");
        require(so.activeNodesEnd >= 1 && so.activeNodesEnd <= so.nodes,
                "scaleout: machines serving at the end outside [1, "
                "cluster size]");
        require(so.fabricShare <= 1 && so.cacheHitRate <= 1,
                "scaleout: fabric share or cache hit rate exceeds 1");
        require(so.warmProvisions + so.coldProvisions ==
                    so.nodesProvisioned,
                "scaleout: warm and cold provisions do not add up to "
                "the provision count");
    }
    if (const core::ReplicationSummary &rp = r.replication; rp.active) {
        require(rp.factor >= 2,
                "replication: block present on an unreplicated run");
        require(rp.writeQuorum >= 1 && rp.writeQuorum <= rp.factor &&
                    rp.readQuorum >= 1 && rp.readQuorum <= rp.factor,
                "replication: a quorum below 1 or above the replica count");
        require(rp.hintsReplayed <= rp.hintsQueued,
                "replication: more hints replayed than queued");
        require(rp.rebalancesCompleted <= rp.rebalancesStarted,
                "replication: more rebalances completed than started");
        require(rp.consistencyChecked || !sweepRequired,
                "replication: consistency sweep did not run (--replication)");
        // The invariants themselves: no acknowledged write may be lost
        // and no quorum read may have returned stale data.
        require(rp.lostAckedWrites == 0,
                "replication: lost acked writes reported");
        require(rp.staleQuorumReads == 0,
                "replication: stale quorum reads reported");
    }
    if (const core::FanoutSummary &fo = r.fanout; fo.active) {
        require(fo.depth >= 1 && fo.services >= 1,
                "fanout: an empty call graph");
        require(fo.hedged || fo.hedgesLaunched == 0,
                "fanout: hedges launched on an unhedged point");
        require(fo.hedgeWins <= fo.hedgesLaunched &&
                    fo.hedgesCancelled <= fo.hedgesLaunched,
                "fanout: hedge wins or cancellations exceed hedges launched");
    }
}

/**
 * Reject any non-finite number anywhere in the document. The writer
 * turns NaN/Inf into null, and the parser accepts 1e999 as infinity;
 * either way a non-finite value means a metric pipeline is broken.
 */
void
rejectNonFinite(const std::string &path, const core::JsonValue &v)
{
    switch (v.kind) {
    case core::JsonValue::Kind::Number:
        if (!std::isfinite(v.numberValue))
            die(path + ": non-finite number in document");
        break;
    case core::JsonValue::Kind::Object:
        for (const auto &[key, member] : v.members)
            rejectNonFinite(path, member);
        break;
    case core::JsonValue::Kind::Array:
        for (const core::JsonValue &e : v.elements)
            rejectNonFinite(path, e);
        break;
    default:
        break;
    }
}

/**
 * The blocks a flag can require, by name: on every point, or (for the
 * blocks a sweep's baseline arms legitimately lack) on at least one.
 */
struct Flag
{
    const char *block;
    bool everyPoint;
    bool set = false;
    std::size_t points = 0;
};

/** The flag for `block`; null when no flag names it. */
Flag *
named(std::span<Flag> flags, std::string_view block)
{
    for (Flag &f : flags) {
        if (f.block == block)
            return &f;
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    Flag flags[] = {{"elastic", true},  {"overload", false},
                    {"trace", true},    {"grayfail", true},
                    {"scaleout", true}, {"replication", false},
                    {"fanout", true}};
    std::string usage = "usage: json_check";
    for (const Flag &f : flags)
        usage += std::string(" [--") + f.block + "]";
    usage += " FILE MIN_POINTS [LABEL...]";

    int arg = 1;
    for (; arg < argc; ++arg) {
        const std::string_view a = argv[arg];
        Flag *f = a.starts_with("--") ? named(flags, a.substr(2)) : nullptr;
        if (!f)
            break;
        f->set = true;
    }
    if (argc - arg < 2)
        die(usage);
    const std::string path = argv[arg++];
    // Digits only: no sign, no suffix, no overflow.
    const std::string_view count = argv[arg++];
    unsigned long min_points = 0;
    const auto [end, ec] = std::from_chars(
        count.data(), count.data() + count.size(), min_points);
    if (ec != std::errc() || end != count.data() + count.size())
        die(usage);

    std::ifstream is(path);
    if (!is)
        die("cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();

    core::JsonValue v;
    try {
        v = core::parseJson(buf.str());
    } catch (const std::exception &e) {
        die(path + ": " + e.what());
    }

    if (!v.isObject())
        die(path + ": top level is not an object");
    for (const char *key : {"artifact", "caption", "machine"}) {
        const core::JsonValue *s = v.find(key);
        if (!s || !s->isString() || s->stringValue.empty())
            die(path + ": missing or empty '" + key + "'");
    }
    const core::JsonValue *schema = v.find("schema_version");
    if (!schema || !schema->isNumber())
        die(path + ": missing 'schema_version'");
    if (schema->numberValue != benchx::kBenchSchemaVersion) {
        die(path + ": schema_version " +
            std::to_string(schema->numberValue) + " != expected " +
            std::to_string(benchx::kBenchSchemaVersion));
    }
    const core::JsonValue *jobs = v.find("jobs");
    if (!jobs || !jobs->isNumber() || jobs->numberValue < 1)
        die(path + ": missing or bad 'jobs'");
    // Schema v3 speed stamps: every artifact reports how long it took
    // and how many engine events it processed.
    const core::JsonValue *wall = v.find("wall_seconds");
    if (!wall || !wall->isNumber() || !std::isfinite(wall->numberValue) ||
        wall->numberValue < 0)
        die(path + ": missing or bad 'wall_seconds'");
    const core::JsonValue *events = v.find("events_processed");
    if (!events || !events->isNumber() ||
        !std::isfinite(events->numberValue) || events->numberValue < 0)
        die(path + ": missing or bad 'events_processed'");

    const core::JsonValue *points = v.find("points");
    if (!points || !points->isArray())
        die(path + ": missing 'points' array");
    if (points->elements.size() < min_points) {
        die(path + ": expected >= " + std::to_string(min_points) +
            " points, got " + std::to_string(points->elements.size()));
    }
    const bool sweepRequired = named(flags, "replication")->set;
    for (const core::JsonValue &p : points->elements) {
        const core::JsonValue *label = p.find("label");
        if (!label || !label->isString() || label->stringValue.empty())
            die(path + ": point without a label");
        const std::string where =
            path + ": point '" + label->stringValue + "'";
        // A failed sweep point carries an "error" instead of a result;
        // an artifact with one is never valid.
        if (const core::JsonValue *err = p.find("error"))
            die(where + " failed: " +
                (err->isString() ? err->stringValue : "unknown error"));
        const core::JsonValue *result = p.find("result");
        if (!result || !result->isObject())
            die(where + " without a result");
        const core::JsonValue *tput = result->find("throughput_rps");
        if (!tput || !tput->isNumber() || !(tput->numberValue > 0))
            die(where + " without a positive throughput_rps");

        core::RunResult read;
        BlockReader reader(where, *result);
        core::visitBlocks(read, reader);
        reader.marking = false;
        core::visitBlocks(read, reader);
        checkRules(where, read, sweepRequired);

        for (Flag &f : flags) {
            if (result->find(f.block))
                ++f.points;
            else if (f.set && f.everyPoint)
                die(where + " without a " + f.block + " block (--" +
                    f.block + ")");
        }
    }
    for (const Flag &f : flags) {
        if (f.set && f.points == 0)
            die(path + ": no point carries a " + f.block + " block (--" +
                f.block + ")");
    }

    rejectNonFinite(path, v);

    const core::JsonValue *tables = v.find("tables");
    if (!tables || !tables->isArray() || tables->elements.empty())
        die(path + ": missing or empty 'tables' array");

    for (int i = arg; i < argc; ++i) {
        const std::string want = argv[i];
        bool found = false;
        for (const core::JsonValue &p : points->elements) {
            if (p.at("label").stringValue == want) {
                found = true;
                break;
            }
        }
        if (!found)
            die(path + ": no point labeled '" + want + "'");
    }

    std::cout << "json_check: " << path << " ok ("
              << points->elements.size() << " points, "
              << tables->elements.size() << " tables)\n";
    return 0;
}

#include "core/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace microscale::core
{

namespace
{

/** Minimal JSON writer: objects/arrays with correct comma placement. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os)
    {
        os_ << std::setprecision(10);
    }

    void
    beginObject()
    {
        comma();
        os_ << "{";
        first_ = true;
    }

    void
    endObject()
    {
        os_ << "}";
        first_ = false;
    }

    void
    key(const std::string &k)
    {
        comma();
        os_ << '"' << jsonEscape(k) << "\":";
        first_ = true; // value follows without comma
    }

    void
    value(double v)
    {
        comma();
        // JSON has no NaN/Inf literals; a raw `os_ << v` would print
        // "nan"/"inf" and corrupt the document. Emit null so parsers
        // survive and validators can flag the broken metric.
        if (!std::isfinite(v)) {
            os_ << "null";
            return;
        }
        os_ << v;
    }

    void
    value(std::uint64_t v)
    {
        comma();
        os_ << v;
    }

    void
    value(const std::string &v)
    {
        comma();
        os_ << '"' << jsonEscape(v) << '"';
    }

    void
    field(const std::string &k, double v)
    {
        key(k);
        value(v);
    }

    void
    field(const std::string &k, std::uint64_t v)
    {
        key(k);
        value(v);
    }

    void
    field(const std::string &k, unsigned v)
    {
        key(k);
        value(static_cast<std::uint64_t>(v));
    }

    void
    field(const std::string &k, const std::string &v)
    {
        key(k);
        value(v);
    }

    /** Flags are written as 0/1. */
    void
    field(const std::string &k, bool v)
    {
        field(k, static_cast<std::uint64_t>(v ? 1 : 0));
    }

  private:
    void
    comma()
    {
        if (!first_)
            os_ << ",";
        first_ = false;
    }

    std::ostream &os_;
    bool first_ = true;
};

/** Renders visitBlocks' field lists through a JsonWriter. */
struct BlockWriter
{
    JsonWriter &w;

    template <typename Body>
    void
    block(const std::string &name, bool active, Body &&body)
    {
        if (!active)
            return;
        w.key(name);
        w.beginObject();
        body();
        w.endObject();
    }

    template <typename T>
    void
    operator()(const std::string &key, const T &x)
    {
        w.field(key, x);
    }

    void
    ms(const std::string &key, double ns, double toMs)
    {
        w.field(key, ns * toMs);
    }

    void
    signedMs(const std::string &key, double ns, double toMs)
    {
        ms(key, ns, toMs);
    }

    template <typename Map>
    void
    map(const std::string &key, const Map &m)
    {
        w.key(key);
        w.beginObject();
        for (const auto &[name, x] : m)
            w.field(name, x);
        w.endObject();
    }

    template <typename Map, typename Body>
    void
    map(const std::string &key, const Map &m, Body &&body)
    {
        w.key(key);
        w.beginObject();
        for (const auto &[name, entry] : m)
            block(name, true, [&] { body(entry); });
        w.endObject();
    }
};

void
writeOpLatency(JsonWriter &w, const OpLatency &l)
{
    w.beginObject();
    w.field("count", l.count);
    w.field("mean_ms", l.meanMs);
    w.field("p50_ms", l.p50Ms);
    w.field("p95_ms", l.p95Ms);
    w.field("p99_ms", l.p99Ms);
    w.endObject();
}

void
writePerfRow(JsonWriter &w, const perf::PerfRow &r)
{
    w.beginObject();
    w.field("cpus_busy", r.utilizationCpus);
    w.field("ipc", r.ipc);
    w.field("ghz", r.ghz);
    w.field("l3_mpki", r.l3Mpki);
    w.field("l3_miss_ratio", r.l3MissRatio);
    w.field("branch_mpki", r.branchMpki);
    w.field("icache_mpki", r.icacheMpki);
    w.field("kernel_share", r.kernelShare);
    w.field("smt_share", r.smtShare);
    w.field("cs_per_sec", r.csPerSec);
    w.field("migrations_per_sec", r.migrationsPerSec);
    w.field("ccx_migrations_per_sec", r.ccxMigrationsPerSec);
    w.field("mips", r.mips);
    w.endObject();
}

} // namespace

void
writeJson(std::ostream &os, const RunResult &result)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("placement", std::string(placementName(result.plan.kind)));
    w.field("throughput_rps", result.throughputRps);
    w.field("budget_cpus", result.budgetCpus);
    w.field("cpu_utilization", result.cpuUtilization);
    w.field("avg_freq_ghz", result.avgFreqGhz);
    w.field("events_processed", result.eventsProcessed);

    w.key("latency");
    writeOpLatency(w, result.latency);

    w.key("per_op");
    w.beginObject();
    for (const auto &[name, lat] : result.perOp) {
        w.key(name);
        writeOpLatency(w, lat);
    }
    w.endObject();

    w.key("services");
    w.beginObject();
    for (const auto &[name, row] : result.servicePerf) {
        w.key(name);
        writePerfRow(w, row);
    }
    w.endObject();

    w.key("total");
    writePerfRow(w, result.total);

    w.key("sched");
    w.beginObject();
    w.field("wakeups", result.sched.wakeups);
    w.field("context_switches", result.sched.contextSwitches);
    w.field("preemptions", result.sched.preemptions);
    w.field("migrations", result.sched.migrations);
    w.field("ccx_migrations", result.sched.ccxMigrations);
    w.field("balance_pulls", result.sched.balancePulls);
    w.field("new_idle_pulls", result.sched.newIdlePulls);
    w.endObject();

    w.key("breakdown");
    w.beginObject();
    for (const auto &[svc_name, ops] : result.breakdown) {
        w.key(svc_name);
        w.beginObject();
        for (const auto &[op, b] : ops) {
            w.key(op);
            w.beginObject();
            w.field("count", b.count);
            w.field("service_time_mean_ms", b.serviceTimeMeanMs);
            w.field("queue_wait_mean_ms", b.queueWaitMeanMs);
            w.field("compute_mean_ms", b.computeMeanMs);
            w.field("stall_mean_ms", b.stallMeanMs);
            w.field("service_time_p99_ms", b.serviceTimeP99Ms);
            if (result.resilience.active) {
                w.field("ok", b.okCount);
                w.field("timeout", b.timeoutCount);
                w.field("overload", b.overloadCount);
                w.field("unavailable", b.unavailableCount);
            }
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();

    // A block is written only when its layer was active in the run,
    // so the output of runs that never enabled a layer stays
    // byte-identical to the output from before the layer existed.
    visitBlocks(result, BlockWriter{w});

    w.endObject();
    os << "\n";
}

std::string
toJson(const RunResult &result)
{
    std::ostringstream os;
    writeJson(os, result);
    return os.str();
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (const JsonValue *v = find(key))
        return *v;
    throw std::out_of_range("no JSON member '" + key + "'");
}

namespace
{

/** Recursive-descent parser over the full supported grammar. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("bad literal");
        pos_ += word.size();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                unsigned code = hex4();
                if (code >= 0xd800 && code <= 0xdbff &&
                    text_.substr(pos_, 2) == "\\u") {
                    // A high surrogate pairs with the low one after it.
                    pos_ += 2;
                    const unsigned low = hex4();
                    if (low < 0xdc00 || low > 0xdfff)
                        fail("lone surrogate in \\u escape");
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                } else if (code >= 0xd800 && code <= 0xdfff) {
                    fail("lone surrogate in \\u escape");
                }
                appendUtf8(out, code);
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    /** The four hex digits of a \u escape, consumed. */
    unsigned
    hex4()
    {
        unsigned code = 0;
        const char *p = text_.data() + pos_;
        if (text_.size() - pos_ < 4 ||
            std::from_chars(p, p + 4, code, 16).ptr != p + 4)
            fail("bad \\u escape");
        pos_ += 4;
        return code;
    }

    /** Append code point `code` (<= 0x10ffff) as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
            return;
        }
        // Lead byte (110xxxxx, 1110xxxx or 11110xxx), then 10xxxxxx
        // continuation bytes, most significant bits first.
        const unsigned extra = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
        out += static_cast<char>(((0xff00u >> (extra + 1)) & 0xffu) |
                                 (code >> (6 * extra)));
        for (unsigned i = extra; i-- > 0;)
            out += static_cast<char>(0x80u | ((code >> (6 * i)) & 0x3fu));
    }

    /** Skip one of `chars`; false (nothing skipped) otherwise. */
    bool
    skipOne(std::string_view chars)
    {
        if (pos_ >= text_.size() ||
            chars.find(text_[pos_]) == std::string_view::npos)
            return false;
        ++pos_;
        return true;
    }

    void
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == start)
            fail("bad number");
    }

    /**
     * The JSON number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
     * Out-of-range exponents (1e999) parse as infinity.
     */
    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        skipOne("-");
        if (!skipOne("0"))
            digits();
        if (skipOne("."))
            digits();
        if (skipOne("eE")) {
            skipOne("+-");
            digits();
        }
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.numberValue = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("bad number");
        return v;
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        JsonValue v;
        switch (c) {
          case '{': {
            ++pos_;
            v.kind = JsonValue::Kind::Object;
            if (consume('}'))
                return v;
            do {
                std::string key = (skipSpace(), parseString());
                expect(':');
                v.members.emplace_back(std::move(key), parseValue());
            } while (consume(','));
            expect('}');
            return v;
          }
          case '[': {
            ++pos_;
            v.kind = JsonValue::Kind::Array;
            if (consume(']'))
                return v;
            do {
                v.elements.push_back(parseValue());
            } while (consume(','));
            expect(']');
            return v;
          }
          case '"':
            v.kind = JsonValue::Kind::String;
            v.stringValue = parseString();
            return v;
          case 't':
            literal("true");
            v.kind = JsonValue::Kind::Bool;
            v.boolValue = true;
            return v;
          case 'f':
            literal("false");
            v.kind = JsonValue::Kind::Bool;
            v.boolValue = false;
            return v;
          case 'n':
            literal("null");
            v.kind = JsonValue::Kind::Null;
            return v;
          default:
            return parseNumber();
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return JsonParser(text).parse();
}

} // namespace microscale::core

/**
 * @file
 * JSON export of experiment results, for scripting and plotting
 * pipelines (msim --json, notebooks, CI dashboards).
 */

#ifndef MICROSCALE_CORE_JSON_HH
#define MICROSCALE_CORE_JSON_HH

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hh"

namespace microscale::core
{

/**
 * The gated result blocks of a RunResult, one field list each, in
 * output order. writeJson renders them and json_check reads them back,
 * so a new field is one line here. `R` is RunResult or const
 * RunResult; the visitor `v` provides:
 *
 *   v.block(name, active, body)  a block; body() visits its fields
 *   v(key, x)                    a field of x's type: std::string
 *                                (non-empty), bool (a 0/1 flag), an
 *                                unsigned count, or a double; numbers
 *                                are finite and non-negative
 *   v.ms(key, ns, toMs)          a double kept in ns, written as
 *                                ns * toMs
 *   v.signedMs(key, ns, toMs)    the same, and it may be negative
 *   v.map(key, m)                an object of m's entries, one field
 *                                each
 *   v.map(key, m, body)          an object of m's entries, one object
 *                                each; body(entry) visits its fields
 *
 * A field passed as a computed temporary is written but not read
 * back. A field under `if` is present exactly when its condition
 * holds.
 */
template <typename R, typename V>
void
visitBlocks(R &r, V &&v)
{
    v.block("resilience", r.resilience.active, [&] {
        auto &s = r.resilience;
        v("goodput_rps", s.goodputRps);
        v("error_rate", s.errorRate);
        v("degraded_share", s.degradedShare);
        v("ok", s.okCount);
        v("timeout", s.timeoutCount);
        v("overload", s.overloadCount);
        v("unavailable", s.unavailableCount);
        // Only overload-controlled runs shed with Rejected.
        if (r.overload.active)
            v("rejected", s.rejectedCount);
        v("degraded", s.degradedCount);
        v("retries", s.retries);
        v("retries_denied", s.retriesDenied);
        v("client_timeouts", s.clientTimeouts);
        v("shed", s.shed);
        v("deadline_drops", s.deadlineDrops);
        v("breaker_opens", s.breakerOpens);
    });
    v.block("overload", r.overload.active, [&] {
        auto &s = r.overload;
        v("admission", s.admission);
        v("codel", s.codel);
        v("adaptive_lifo", s.adaptiveLifo);
        v("criticality_aware", s.criticalityAware);
        v("brownout", s.brownout);
        v("shed_critical", s.shedCritical);
        v("shed_normal", s.shedNormal);
        v("shed_sheddable", s.shedSheddable);
        v("codel_drops", s.codelDrops);
        v("lifo_dequeues", s.lifoDequeues);
        v("rejected_total", s.rejectedTotal);
        v("limit_initial", s.limitInitial);
        v("limit_min", s.limitMin);
        v("limit_max", s.limitMax);
        v("limit_final", s.limitFinal);
        v("brownout_duty_cycle", s.brownoutDutyCycle);
        v("dimmer_min", s.dimmerMin);
        v("dimmer_final", s.dimmerFinal);
        v("brownout_skips", s.brownoutSkips);
    });
    v.block("elastic", r.elastic.active, [&] {
        auto &s = r.elastic;
        v("schedule", s.schedule);
        v("policy", s.policy);
        v("placer", s.placer);
        v("offered_mean_rps", s.offeredMeanRps);
        v("offered_peak_rps", s.offeredPeakRps);
        v("slo_p99_ms", s.sloP99Ms);
        v("slo_violation_seconds", s.sloViolationSeconds);
        v("core_seconds_granted", s.coreSecondsGranted);
        v("steady_state_cpus", s.steadyStateCpus);
        v("scale_out_lag_mean_ms", s.scaleOutLagMeanMs);
        v("scale_outs", s.scaleOuts);
        v("scale_ins", s.scaleIns);
        v.map("peak_replicas", s.peakReplicas);
    });
    v.block("trace", r.trace.active, [&] {
        auto &s = r.trace;
        // Per-trace means in ms; with nothing analyzed everything is
        // zero and the divisor is moot.
        const double toMs =
            s.attribution.traces
                ? 1.0 / (static_cast<double>(s.attribution.traces) * 1e6)
                : 0.0;
        v("sample_rate", s.sampleRate);
        v("roots_seen", s.rootsSeen);
        v("traces_sampled", s.tracesSampled);
        v("traces_analyzed", s.tracesAnalyzed);
        v("spans", s.spanCount);
        v.ms("mean_e2e_ms", s.attribution.e2eNs, toMs);
        v.signedMs("unattributed_ms", s.attribution.unattributedNs, toMs);
        v.map("attribution", s.attribution.services, [&](auto &a) {
            v.ms("queue_ms", a.queueNs, toMs);
            v.ms("compute_ms", a.computeNs, toMs);
            v.ms("stall_ms", a.stallNs, toMs);
            v.ms("fanout_wait_ms", a.fanoutNs, toMs);
            v.ms("retry_backoff_ms", a.backoffNs, toMs);
            v.ms("shed_ms", a.shedNs, toMs);
            v.ms("network_ms", a.networkNs, toMs);
            // The cross-machine slice of network_ms, not an eighth
            // component; only cluster runs have a fabric.
            if (r.scaleout.active)
                v.ms("fabric_ms", a.fabricNs, toMs);
            v("total_ms", a.totalNs() * toMs);
        });
    });
    v.block("grayfail", r.grayfail.active, [&] {
        auto &s = r.grayfail;
        v("ejection_enabled", s.ejectionEnabled);
        v("ejections", s.ejections);
        v("unejections", s.unejections);
        v("ejections_denied", s.ejectionsDenied);
        v("ejected_at_end", s.ejectedAtEnd);
        v("packets_dropped", s.packetsDropped);
        v("packets_duplicated", s.packetsDuplicated);
        v("packets_blackholed", s.packetsBlackholed);
        v("faults_applied", s.faultsApplied);
        v("faults_skipped", s.faultsSkipped);
    });
    v.block("scaleout", r.scaleout.active, [&] {
        auto &s = r.scaleout;
        v("nodes", s.nodes);
        v("active_nodes_end", s.activeNodesEnd);
        v("shards", s.shards);
        v("cache_nodes", s.cacheNodes);
        v("fabric_messages", s.fabricMessages);
        v("fabric_bytes", s.fabricBytes);
        v("fabric_share", s.fabricShare);
        v("cache_hits", s.cacheHits);
        v("cache_misses", s.cacheMisses);
        v("cache_invalidations", s.cacheInvalidations);
        v("cache_evictions", s.cacheEvictions);
        v("cache_hit_rate", s.cacheHitRate);
        v("shard_requests", s.shardRequests);
        v("shard_load_cv", s.shardLoadCv);
        v("nodes_provisioned", s.nodesProvisioned);
        v("warm_provisions", s.warmProvisions);
        v("cold_provisions", s.coldProvisions);
        v("provision_lag_mean_ms", s.provisionLagMeanMs);
    });
    v.block("replication", r.replication.active, [&] {
        auto &s = r.replication;
        v("factor", s.factor);
        v("write_quorum", s.writeQuorum);
        v("read_quorum", s.readQuorum);
        v("quorum_writes", s.quorumWrites);
        v("write_failures", s.writeFailures);
        v("write_ack_p50_ms", s.writeAckP50Ms);
        v("write_ack_p99_ms", s.writeAckP99Ms);
        v("quorum_reads", s.quorumReads);
        v("read_failures", s.readFailures);
        v("read_repairs", s.readRepairs);
        v("read_refetches", s.readRefetches);
        v("read_p50_ms", s.readP50Ms);
        v("read_p99_ms", s.readP99Ms);
        v("hints_queued", s.hintsQueued);
        v("hints_replayed", s.hintsReplayed);
        v("hints_dropped", s.hintsDropped);
        v("hint_depth_peak", s.hintDepthPeak);
        v("rebalances_started", s.rebalancesStarted);
        v("rebalances_completed", s.rebalancesCompleted);
        v("rebalance_batches", s.rebalanceBatches);
        v("rebalance_bytes", s.rebalanceBytes);
        v("dual_reads", s.dualReads);
        v("rebalance_ms_total", s.rebalanceMsTotal);
        v("consistency_checked", s.consistencyChecked);
        v("acked_writes", s.ackedWrites);
        v("lost_acked_writes", s.lostAckedWrites);
        v("stale_quorum_reads", s.staleQuorumReads);
    });
    v.block("fanout", r.fanout.active, [&] {
        auto &s = r.fanout;
        v("app", s.app);
        v("depth", s.depth);
        v("services", s.services);
        v("fan_width", s.fanWidth);
        v("hedged", s.hedged);
        v("hedge_delay_ms", s.hedgeDelayMs);
        v("hedge_quantile", s.hedgeQuantile);
        v("hedge_budget_ratio", s.hedgeBudgetRatio);
        v("first_attempts", s.firstAttempts);
        v("hedges_launched", s.hedgesLaunched);
        v("hedge_wins", s.hedgeWins);
        v("hedges_denied", s.hedgesDenied);
        v("hedges_cancelled", s.hedgesCancelled);
        v("hedge_share", s.hedgeShare);
        v("p50_ms", s.p50Ms);
        v("p99_ms", s.p99Ms);
        v("amplification", s.amplification);
    });
}

/**
 * Serialize a RunResult as a single JSON object: headline metrics,
 * per-op latency, per-service counters, scheduler stats, the per-op
 * breakdowns and the active blocks of visitBlocks. Deterministic key
 * order (maps are sorted).
 */
void writeJson(std::ostream &os, const RunResult &result);

/** Convenience: writeJson into a string. */
std::string toJson(const RunResult &result);

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view s);

/**
 * A parsed JSON document node, for validating and consuming the
 * harness's own emissions (round-trip tests, bench_smoke checks).
 * Object member order is preserved.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object
    std::vector<JsonValue> elements;                        ///< Array

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member access; throws std::out_of_range when absent. */
    const JsonValue &at(const std::string &key) const;
};

/**
 * Parse a complete JSON document (trailing whitespace allowed).
 * Throws std::runtime_error with a position message on malformed
 * input.
 */
JsonValue parseJson(std::string_view text);

} // namespace microscale::core

#endif // MICROSCALE_CORE_JSON_HH

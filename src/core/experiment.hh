/**
 * @file
 * The scale-up experiment runner: assembles machine + OS + application
 * + load, runs warmup and measurement windows, and returns the metrics
 * the paper reports (throughput, latency percentiles, per-service
 * microarchitectural counters, scheduler activity, utilization).
 */

#ifndef MICROSCALE_CORE_EXPERIMENT_HH
#define MICROSCALE_CORE_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "core/placement.hh"
#include "loadgen/driver.hh"
#include "net/network.hh"
#include "os/kernel.hh"
#include "perf/report.hh"
#include "svc/fault.hh"
#include "svc/mesh.hh"
#include "svc/overload.hh"
#include "svc/resilience.hh"
#include "teastore/app.hh"
#include "topo/presets.hh"
#include "trace/critical_path.hh"
#include "trace/trace.hh"

namespace microscale::chaos
{
class RequestLedger;
}

namespace microscale::core
{

struct RunResult;

/** Everything one run needs. */
struct ExperimentConfig
{
    topo::MachineParams machine = topo::rome128();

    /** Physical cores in the budget; 0 = all. */
    unsigned cores = 0;
    /** Include SMT siblings of the budget cores. */
    bool smt = true;

    PlacementKind placement = PlacementKind::OsDefault;
    DemandShares demand;
    BaselineSizing sizing;

    teastore::AppParams app;

    /** Request mix driving either load generator. */
    loadgen::BrowseMix mix{};

    /** Closed-loop load (the default). */
    loadgen::ClosedLoopParams load{/*users=*/768,
                                   /*meanThink=*/250 * kMillisecond,
                                   /*rampTime=*/100 * kMillisecond};

    /** When > 0, use an open-loop driver at this arrival rate instead. */
    double openLoopRps = 0.0;

    Tick warmup = 500 * kMillisecond;
    Tick measure = 2 * kSecond;

    os::SchedParams sched;
    net::NetParams net;
    svc::RpcCostParams rpc;

    /** Resilience policy for the mesh (inactive by default). */
    svc::ResilienceConfig resilience;

    /** Overload-control layer (inactive by default). */
    svc::OverloadConfig overload;

    /** Scripted faults applied during the run (empty = none). */
    svc::FaultScript faults;

    /** Per-request tracing (off by default; off = byte-identical). */
    trace::TraceParams trace;

    /**
     * Request-conservation ledger handed to the load driver (chaos
     * harness). Null (default) records nothing.
     */
    chaos::RequestLedger *ledger = nullptr;

    /**
     * After harvesting, stop the drivers and run the simulation until
     * every foreground event has drained (in-flight requests complete
     * or time out). Measurement results are window-gated and therefore
     * unchanged; this only exists so end-of-run invariants (ledger
     * conservation, zero queued work) can be checked against a
     * quiesced world. Off by default.
     */
    bool drainAtEnd = false;

    /**
     * Rate schedule of the open-loop driver. A non-empty schedule
     * selects the open-loop driver and sets its rate over time
     * (non-homogeneous Poisson arrivals thinned against the schedule's
     * own peak), so openLoopRps is then ignored. Empty (the default):
     * openLoopRps > 0 selects a fixed-rate open loop, otherwise the
     * closed loop runs.
     */
    loadgen::LoadSchedule loadSchedule;

    std::uint64_t seed = 42;
};

/** Per-op latency summary in milliseconds. */
struct OpLatency
{
    std::uint64_t count = 0;
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
};

/**
 * Where one service op's time goes (means over the window, ms):
 * waiting for a worker, computing on a CPU, or stalled (blocked on
 * downstream calls / preempted).
 */
struct OpBreakdown
{
    std::uint64_t count = 0;
    double serviceTimeMeanMs = 0.0;
    double queueWaitMeanMs = 0.0;
    double computeMeanMs = 0.0;
    double stallMeanMs = 0.0;
    double serviceTimeP99Ms = 0.0;
    /** Outcomes by status (counts shed/dropped/rejected requests too). */
    std::uint64_t okCount = 0;
    std::uint64_t timeoutCount = 0;
    std::uint64_t overloadCount = 0;
    std::uint64_t unavailableCount = 0;
};

/**
 * Resilience outcome of one run. `active` only when the run used a
 * resilience policy, a fault script or degraded fallbacks; inactive
 * summaries are elided from reports so healthy-baseline output is
 * unchanged.
 */
struct ResilienceSummary
{
    bool active = false;
    /** OK responses per second of window time. */
    double goodputRps = 0.0;
    /** Non-OK share of all window responses. */
    double errorRate = 0.0;
    /** Degraded share of OK window responses. */
    double degradedShare = 0.0;
    std::uint64_t okCount = 0;
    std::uint64_t timeoutCount = 0;
    std::uint64_t overloadCount = 0;
    std::uint64_t unavailableCount = 0;
    /** Admission/CoDel rejections seen by clients (overload layer). */
    std::uint64_t rejectedCount = 0;
    std::uint64_t degradedCount = 0;
    /** Mesh-level retry accounting (whole run). */
    std::uint64_t retries = 0;
    std::uint64_t retriesDenied = 0;
    std::uint64_t clientTimeouts = 0;
    /** Service-level shedding/drop accounting summed over services. */
    std::uint64_t shed = 0;
    std::uint64_t deadlineDrops = 0;
    std::uint64_t breakerOpens = 0;
};

/**
 * Overload-control outcome of one run. `active` only when the run
 * enabled any part of the overload layer (admission, CoDel,
 * criticality-aware shedding or brownout); inactive summaries are
 * elided from reports so pre-existing output is unchanged.
 */
struct OverloadSummary
{
    bool active = false;
    /** Admission limiter family ("off", "aimd", "gradient"). */
    std::string admission;
    bool codel = false;
    bool adaptiveLifo = false;
    bool criticalityAware = false;
    bool brownout = false;
    /** Admission rejections by criticality tier, summed over services. */
    std::uint64_t shedCritical = 0;
    std::uint64_t shedNormal = 0;
    std::uint64_t shedSheddable = 0;
    /** CoDel head drops, summed over services. */
    std::uint64_t codelDrops = 0;
    /** Requests served newest-first while CoDel was dropping. */
    std::uint64_t lifoDequeues = 0;
    /** Client-visible Rejected responses in the window. */
    std::uint64_t rejectedTotal = 0;
    /** WebUI concurrency-limit trajectory (0 = limiter never built). */
    double limitInitial = 0.0;
    double limitMin = 0.0;
    double limitMax = 0.0;
    double limitFinal = 0.0;
    /** Fraction of the window the dimmer spent below 1. */
    double brownoutDutyCycle = 0.0;
    double dimmerMin = 1.0;
    double dimmerFinal = 1.0;
    /** Optional page legs skipped by the dimmer (whole run). */
    std::uint64_t brownoutSkips = 0;
};

/**
 * Elasticity outcome of one run (filled by autoscale::ElasticController).
 * `active` only when the run used a load schedule or an autoscaler;
 * inactive summaries are elided from reports so fixed-rate baseline
 * output is unchanged.
 */
struct ElasticSummary
{
    bool active = false;
    /** Schedule driving the open-loop arrivals ("spike", ...). */
    std::string schedule;
    /** Scaling policy ("static", "threshold", "queue-law", ...). */
    std::string policy;
    /** Replica placement flavor ("topology-aware", "os-default"). */
    std::string placer;
    /** Mean / peak offered rate over the measurement window, rps. */
    double offeredMeanRps = 0.0;
    double offeredPeakRps = 0.0;
    /** The p99 bound the SLO monitor enforced, ms. */
    double sloP99Ms = 0.0;
    /** Window seconds spent in SLO violation. */
    double sloViolationSeconds = 0.0;
    /** Integral of granted capacity over the window, CPU-seconds. */
    double coreSecondsGranted = 0.0;
    /** Lowest granted-capacity level in the window, CPUs. */
    double steadyStateCpus = 0.0;
    /** Mean decision-to-Active lag over all scale-outs, ms (0 = none). */
    double scaleOutLagMeanMs = 0.0;
    std::uint64_t scaleOuts = 0;
    std::uint64_t scaleIns = 0;
    /** Max concurrent (active + warming) replicas, per service. */
    std::map<std::string, unsigned> peakReplicas;
};

/**
 * Tracing outcome of one run. `active` only when the run enabled
 * tracing; inactive summaries are elided from reports so untraced
 * output is unchanged. The attribution covers root requests that
 * completed inside the measurement window; its per-service components
 * plus `unattributedNs` sum exactly to `e2eNs` (see
 * trace/critical_path.hh for the partition).
 */
struct TraceSummary
{
    bool active = false;
    double sampleRate = 0.0;
    /** External requests seen while tracing was installed. */
    std::uint64_t rootsSeen = 0;
    /** Traces actually sampled (≤ rootsSeen). */
    std::uint64_t tracesSampled = 0;
    /** Sampled traces whose root completed inside the window. */
    std::uint64_t tracesAnalyzed = 0;
    /** Spans recorded across all sampled traces. */
    std::uint64_t spanCount = 0;
    /** Mean end-to-end latency of the analyzed traces, ms. */
    double meanE2eMs = 0.0;
    /** Critical-path attribution totals (ns, summed over traces). */
    trace::Attribution attribution;
    /** The raw store, for exporters (Chrome trace). */
    std::shared_ptr<const trace::TraceStore> store;
};

/**
 * Gray-failure outcome of one run. `active` only when the run enabled
 * outlier ejection or scripted a gray fault (replica-slow, packet
 * loss/dup, partition, correlated crash); inactive summaries are
 * elided from reports so pre-existing output is unchanged.
 */
struct GrayFailSummary
{
    bool active = false;
    bool ejectionEnabled = false;
    /** Outlier-ejection events summed over services (whole run). */
    std::uint64_t ejections = 0;
    std::uint64_t unejections = 0;
    std::uint64_t ejectionsDenied = 0;
    /** Replicas still ejected when the run ended. */
    std::uint64_t ejectedAtEnd = 0;
    /** Link-fault transport accounting (whole run). */
    std::uint64_t packetsDropped = 0;
    std::uint64_t packetsDuplicated = 0;
    std::uint64_t packetsBlackholed = 0;
    /** Fault-script apply/skip accounting. */
    std::uint64_t faultsApplied = 0;
    std::uint64_t faultsSkipped = 0;
};

/**
 * Cluster scale-out outcome of one run (filled by
 * cluster::runScaleout's controller). `active` only when the run
 * modeled a multi-machine cluster with cache/shard tiers; inactive
 * summaries are elided from reports so single-machine output is
 * unchanged.
 */
struct ScaleoutSummary
{
    bool active = false;
    /** Machines in the cluster (provisioned pool, including cold). */
    unsigned nodes = 0;
    /** Machines serving traffic when the run ended. */
    unsigned activeNodesEnd = 0;
    unsigned shards = 0;
    unsigned cacheNodes = 0;
    /** Fabric transport accounting (whole run). */
    std::uint64_t fabricMessages = 0;
    std::uint64_t fabricBytes = 0;
    /** Fabric share of all transported messages. */
    double fabricShare = 0.0;
    /** Cache tier accounting (whole run). */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheInvalidations = 0;
    std::uint64_t cacheEvictions = 0;
    double cacheHitRate = 0.0;
    /** Requests the shard tier actually served (cache misses+writes). */
    std::uint64_t shardRequests = 0;
    /** Coefficient of variation of per-shard request counts (ring
     * balance; 0 = perfectly even). */
    double shardLoadCv = 0.0;
    /** Node-scaler accounting (0s when the scaler was off). */
    std::uint64_t nodesProvisioned = 0;
    std::uint64_t warmProvisions = 0;
    std::uint64_t coldProvisions = 0;
    /** Mean decision-to-serving lag over node provisions, ms. */
    double provisionLagMeanMs = 0.0;
};

/**
 * Replicated-data-tier outcome of one cluster run (filled by the
 * cluster quorum coordinator; `active` only when the replication
 * factor exceeds 1, so R=1 runs stay byte-identical to FIG-17).
 */
struct ReplicationSummary
{
    bool active = false;
    unsigned factor = 0;
    unsigned writeQuorum = 0;
    unsigned readQuorum = 0;
    /** Quorum write path (whole run). */
    std::uint64_t quorumWrites = 0;
    std::uint64_t writeFailures = 0; ///< acks < W (Unavailable)
    double writeAckP50Ms = 0.0;
    double writeAckP99Ms = 0.0;
    /** Quorum read path (whole run). */
    std::uint64_t quorumReads = 0;
    std::uint64_t readFailures = 0; ///< reachable < R_q
    std::uint64_t readRepairs = 0;  ///< stale replicas repaired
    std::uint64_t readRefetches = 0; ///< primary stale, refetched
    double readP50Ms = 0.0;
    double readP99Ms = 0.0;
    /** Hinted handoff. */
    std::uint64_t hintsQueued = 0;
    std::uint64_t hintsReplayed = 0;
    std::uint64_t hintsDropped = 0; ///< queue-cap overflow
    std::uint64_t hintDepthPeak = 0;
    /** Scale-event rebalancing. */
    std::uint64_t rebalancesStarted = 0;
    std::uint64_t rebalancesCompleted = 0;
    std::uint64_t rebalanceBatches = 0;
    std::uint64_t rebalanceBytes = 0;
    std::uint64_t dualReads = 0;
    double rebalanceMsTotal = 0.0;
    /** Post-drain invariant verification (consistencyChecked gates the
     * two violation counters: both must be 0 on a correct run). */
    bool consistencyChecked = false;
    std::uint64_t ackedWrites = 0;
    std::uint64_t lostAckedWrites = 0;
    std::uint64_t staleQuorumReads = 0;
};

/**
 * Deep-fan-out app-graph run (src/apps/socialnet): graph shape,
 * hedged-request accounting and the tail-amplification metrics the
 * FIG-19 sweep asserts on. Inactive (and absent from the JSON) for
 * every TeaStore run.
 */
struct FanoutSummary
{
    bool active = false;
    /** App graph the run modeled ("socialnet"). */
    std::string app;
    /** Maximum call-chain depth of the (possibly truncated) graph. */
    unsigned depth = 0;
    /** Services in the graph. */
    unsigned services = 0;
    /** Parallel storage legs per timeline read. */
    unsigned fanWidth = 0;
    /** Hedging enabled on the fan-out edges. */
    bool hedged = false;
    double hedgeDelayMs = 0.0;
    double hedgeQuantile = 0.0;
    double hedgeBudgetRatio = 0.0;
    /** Mesh hedge accounting (see svc::HedgeStats). */
    std::uint64_t firstAttempts = 0;
    std::uint64_t hedgesLaunched = 0;
    std::uint64_t hedgeWins = 0;
    std::uint64_t hedgesDenied = 0;
    std::uint64_t hedgesCancelled = 0;
    /** hedgesLaunched / firstAttempts (the realized hedge rate). */
    double hedgeShare = 0.0;
    /** Client latency of the fan-out read path (the timeline read op),
     * not the overall mix: the write/compose ops have separate latency
     * modes that would mask the synchronization tail. */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    /** Tail amplification of the read path: p99 / p50. */
    double amplification = 0.0;
};

/** Results of one run. */
struct RunResult
{
    double throughputRps = 0.0;
    OpLatency latency; ///< over all ops
    std::map<std::string, OpLatency> perOp;

    std::map<std::string, perf::PerfRow> servicePerf;
    perf::PerfRow total; ///< aggregate over all services

    /** Per service, per op: where the time goes (window only). */
    std::map<std::string, std::map<std::string, OpBreakdown>> breakdown;

    ResilienceSummary resilience;
    OverloadSummary overload;
    ElasticSummary elastic;
    TraceSummary trace;
    GrayFailSummary grayfail;
    ScaleoutSummary scaleout;
    ReplicationSummary replication;
    FanoutSummary fanout;

    os::SchedStats sched;
    /** Busy fraction of the CPU budget during the window. */
    double cpuUtilization = 0.0;
    double avgFreqGhz = 0.0;
    unsigned budgetCpus = 0;
    std::uint64_t eventsProcessed = 0;
    PlacementPlan plan;
};

class World;

/**
 * A plug-in that attaches to one run. runExperiment calls every phase
 * of every controller, in list order, at fixed points of its one
 * assembly sequence; each default is a no-op.
 */
class Controller
{
  public:
    virtual ~Controller() = default;

    /**
     * Supply the placement plan the app is built and pinned from.
     * Return true when the plan was filled; the first controller to
     * do so wins and buildPlacement over the budget is skipped.
     */
    virtual bool plan(World &, PlacementPlan &) { return false; }

    /**
     * After the app and the brownout controller are built, before the
     * fault injector arms (so fault scripts validate against services
     * a controller adds) and before the load driver exists.
     */
    virtual void build(World &, teastore::App &) {}

    /** After the app and the brownout start, before the driver does. */
    virtual void start() {}

    /** After the standard harvest, before the optional drain. */
    virtual void harvest(RunResult &) {}

    /** After the drain (drainAtEnd only), on the quiesced world. */
    virtual void drained(World &, teastore::App &, RunResult &) {}

    /** At teardown: after the driver stops issuing, before the app
     * stops. */
    virtual void stop() {}
};

/** Run one experiment end to end, with `controllers` attached. */
RunResult runExperiment(const ExperimentConfig &config,
                        const std::vector<Controller *> &controllers = {});

/**
 * Fill result.trace from a finished run's mesh: critical-path
 * attribution of sampled requests rooted at service `root` that
 * complete inside the config's measurement window. No-op when tracing
 * was off.
 */
void harvestTrace(const ExperimentConfig &config, const svc::Mesh &mesh,
                  const std::string &root, RunResult &result);

/**
 * Measure per-service demand shares with a short OsDefault run of the
 * given configuration (placement/duration overridden internally).
 */
DemandShares measureDemand(ExperimentConfig config);

/**
 * Demand shares implied by a finished run: each service's CPU time
 * per completed request, normalized. Taken from a *pinned* run these
 * reflect pinned-regime IPC, which differs per service (cache-bound
 * services speed up more under CCX affinity than frontend-bound ones).
 */
DemandShares demandFromRun(const RunResult &result);

/**
 * What runRefined learned: the demand shares each refinement round
 * partitioned with, and the shares implied by the final run.
 */
struct RefineTrace
{
    /** Shares used to build round i's partition (round 0 = seed). */
    std::vector<DemandShares> perRound;
    /** Shares implied by the final run (demandFromRun of it). */
    DemandShares final;
};

/**
 * Run a pinned placement with iterative partition refinement: run,
 * re-derive demand from the observed per-service CPU cost, re-
 * partition, repeat. `rounds` extra runs (1-2 is enough to converge).
 * The returned result is the final run; config.demand seeds round 0.
 * One working copy of the config is built up front and reused across
 * rounds; only its demand shares change between runs.
 */
RunResult runRefined(const ExperimentConfig &config, unsigned rounds = 2,
                     RefineTrace *trace = nullptr);

/** One-line summary: "tput=... p50=... p99=...". */
std::string summarize(const RunResult &r);

} // namespace microscale::core

#endif // MICROSCALE_CORE_EXPERIMENT_HH

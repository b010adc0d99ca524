/**
 * @file
 * msim: command-line front end to the scale-up experiment runner.
 *
 *   msim --machine rome128 --placement ccx-aware --users 4000
 *   msim --cores 32 --no-smt... (see --help)
 *
 * Prints a one-line summary plus per-service and per-op tables;
 * --csv switches the tables to CSV for scripting.
 */

#include <chrono>
#include <iostream>

#include "apps/socialnet/runner.hh"
#include "autoscale/elastic.hh"
#include "base/args.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "chaos/search.hh"
#include "cluster/cluster.hh"
#include "core/experiment.hh"
#include "core/json.hh"
#include "core/sweep.hh"
#include "perf/report.hh"
#include "teastore/chaos.hh"
#include "teastore/criticality.hh"
#include "topo/presets.hh"
#include "trace/export.hh"

using namespace microscale;

namespace
{

core::PlacementKind
placementByName(const std::string &name)
{
    for (core::PlacementKind k : core::allPlacements()) {
        if (name == core::placementName(k))
            return k;
    }
    fatal("unknown placement '", name,
          "' (try os-default, node-aware, ccx-aware, ccx-striped-mem)");
}

svc::FaultScript
faultScriptByName(const std::string &name, Tick warmup, Tick measure)
{
    teastore::GrayScenario gray;
    if (teastore::grayByName(name, gray))
        return teastore::makeGrayScript(gray, warmup, measure);
    for (teastore::ChaosScenario s : teastore::allChaosScenarios()) {
        if (name == teastore::chaosName(s))
            return teastore::makeChaosScript(s, warmup, measure);
    }
    fatal("unknown fault scenario '", name,
          "' (try healthy, crash, brownout, spike, gray-persistence, "
          "gray-webui, gray-auth, gray-persistence-pair)");
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(
        "msim - microservice scale-up experiments on modeled servers");
    args.addString("machine", "rome128",
                   "machine preset (see topology_explorer)");
    args.addString("placement", "os-default", "placement policy");
    args.addString("app", "teastore",
                   "application graph: teastore (default), socialnet "
                   "(deep fan-out graph; open-loop only, see "
                   "--open-loop-rps and the --fan-*/--hedge-* knobs)");
    args.addInt("fan-depth", 5,
                "socialnet call-chain depth (1-5; shallower graphs "
                "absorb the pruned subtree's work locally)");
    args.addInt("fan-width", 4,
                "socialnet parallel post-storage legs per timeline "
                "read");
    args.addDouble("hedge-delay", 0.0,
                   "hedge the socialnet fan-out edges: launch a backup "
                   "leg after this many milliseconds (0 = no hedging)");
    args.addDouble("hedge-budget", 0.2,
                   "hedge tokens accrued per first attempt on hedged "
                   "edges (caps the duplicate-load ratio)");
    args.addDouble("straggler", 1.0,
                   "slow one socialnet post-storage replica's compute "
                   "by this factor (1 = healthy fleet)");
    args.addInt("users", 3000, "closed-loop users");
    args.addInt("fluid-threshold", 0,
                "aggregate closed-loop users into the O(1) fluid "
                "population model at or above this user count "
                "(0 = always per-user; see DESIGN.md engine internals)");
    args.addDouble("open-loop-rps", 0.0,
                   "use open-loop arrivals at this rate instead");
    args.addInt("cores", 0, "physical-core budget (0 = all)");
    args.addFlag("no-smt", "exclude SMT siblings from the budget");
    args.addDouble("warmup-s", 0.6, "warmup window, seconds");
    args.addDouble("measure-s", 1.5, "measurement window, seconds");
    args.addInt("refine", 0,
                "partition-refinement rounds (pinned placements)");
    args.addInt("jobs", 0,
                "sweep worker threads (0 = MICROSCALE_BENCH_JOBS or "
                "hardware)");
    args.addInt("seed", 42, "random seed");
    args.addString("faults", "healthy",
                   "fault scenario: healthy, crash, brownout, spike, "
                   "gray-persistence, gray-webui, gray-auth, "
                   "gray-persistence-pair");
    args.addFlag("eject",
                 "passive outlier ejection on top of --resilience "
                 "(implies it): gray replicas are pulled from the "
                 "rotation when their latency/error EWMAs diverge");
    args.addInt("chaos-schedules", 0,
                "run this many seeded chaos fault schedules through the "
                "conservation-ledger harness instead of an experiment "
                "(see tools/chaos_search)");
    args.addInt("chaos-seed", 1,
                "first schedule seed for --chaos-schedules");
    args.addString("schedule", "",
                   "time-varying open-loop schedule: constant, spike, "
                   "diurnal (empty = fixed-rate drivers; use windows of "
                   "tens of seconds, e.g. --warmup-s 3 --measure-s 48)");
    args.addDouble("base-rps", 600.0, "schedule base rate, req/s");
    args.addDouble("peak-rps", 5000.0,
                   "schedule peak rate (spike top / diurnal crest)");
    args.addString("autoscale", "",
                   "autoscaling policy for --schedule runs: threshold, "
                   "queue-law, predictive (empty = static deployment)");
    args.addString("placer", "topology-aware",
                   "placement for scaled-out replicas: topology-aware, "
                   "os-default");
    args.addInt("initial-cores", 0,
                "physical cores of the initial deployment for "
                "--schedule runs (0 = the full budget)");
    args.addInt("nodes", 1,
                "cluster size: scale out over this many copies of "
                "--machine joined by the --fabric model (cluster runs "
                "take whole nodes, so --cores must stay 0)");
    args.addString("fabric", "ideal",
                   "cluster fabric preset: ideal, lan, oversub");
    args.addInt("shards", 0,
                "persistence shards behind the consistent-hash tier "
                "(0 = unsharded local persistence)");
    args.addInt("cache-nodes", 0,
                "cache nodes fronting the shards (requires --shards)");
    args.addInt("data-replication", 1,
                "replicas per shard key range (1-3): >1 turns on "
                "quorum writes/reads, hinted handoff and scale-event "
                "rebalancing, and the run drains to verify no acked "
                "write was lost (needs --shards and enough nodes)");
    args.addInt("write-quorum", 0,
                "acks required before a replicated write succeeds "
                "(0 = majority; requires --data-replication > 1)");
    args.addInt("read-quorum", 0,
                "replicas a quorum read must reach (0 = R-W+1, the "
                "smallest that intersects every write quorum; "
                "requires --data-replication > 1)");
    args.addFlag("node-scaler",
                 "whole-node autoscaling: serve from --initial-nodes "
                 "machines and provision spares (warm pool first, "
                 "then cold boots) when the hottest service saturates");
    args.addInt("initial-nodes", 0,
                "nodes serving traffic from the start (0 = all; fewer "
                "than --nodes leaves spares for --node-scaler)");
    args.addFlag("resilience",
                 "enable the resilient mesh policy (timeouts, retries, "
                 "breaker, shedding) plus degraded page fallbacks");
    args.addString("admission", "off",
                   "adaptive admission control with CoDel queues: aimd, "
                   "gradient, off");
    args.addFlag("criticality",
                 "criticality-aware shedding (checkout/login last, "
                 "recommender/image first)");
    args.addFlag("brownout",
                 "brownout dimmer on optional page content (implies "
                 "degraded fallbacks)");
    args.addFlag("trace",
                 "per-request distributed tracing with critical-path "
                 "latency attribution");
    args.addDouble("trace-sample", 1.0,
                   "fraction of external requests to trace");
    args.addString("trace-out", "",
                   "write the sampled spans as Chrome trace_event JSON "
                   "to this file (chrome://tracing, Perfetto)");
    args.addFlag("report-speed",
                 "print engine speed after the run: wall seconds, "
                 "simulated-seconds-per-wall-second and events/sec");
    args.addFlag("csv", "emit tables as CSV");
    args.addFlag("json", "emit the full result as JSON and exit");
    args.addFlag("plan", "print the placement plan");
    if (!args.parse(argc, argv))
        return 1;

    core::ExperimentConfig config;
    config.machine = topo::presetByName(args.getString("machine"));
    config.placement = placementByName(args.getString("placement"));
    config.load.users = static_cast<unsigned>(args.getInt("users"));
    config.load.fluidThreshold =
        static_cast<unsigned>(args.getInt("fluid-threshold"));
    config.openLoopRps = args.getDouble("open-loop-rps");
    config.cores = static_cast<unsigned>(args.getInt("cores"));
    config.smt = !args.getFlag("no-smt");
    config.warmup = secondsToTicks(args.getDouble("warmup-s"));
    config.measure = secondsToTicks(args.getDouble("measure-s"));
    config.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    // Pinned-regime demand shares calibrated for the browse profile.
    config.demand.webui = 0.45;
    config.demand.auth = 0.03;
    config.demand.persistence = 0.065;
    config.demand.recommender = 0.045;
    config.demand.image = 0.41;

    const std::string app = args.getString("app");
    if (app != "teastore" && app != "socialnet")
        fatal("unknown --app '", app, "' (teastore, socialnet)");
    const bool socialnet_mode = app == "socialnet";
    if (!socialnet_mode &&
        (args.getDouble("hedge-delay") > 0.0 ||
         args.getInt("fan-depth") != 5 ||
         args.getInt("fan-width") != 4 ||
         args.getDouble("straggler") != 1.0))
        fatal("--fan-depth/--fan-width/--hedge-delay/--straggler shape "
              "the socialnet graph; add --app socialnet");
    if (socialnet_mode && args.getInt("chaos-schedules") > 0)
        fatal("--chaos-schedules drives TeaStore fault schedules; "
              "drop --app socialnet");

    if (args.getInt("chaos-schedules") > 0) {
        chaos::SearchOptions so;
        so.seed =
            static_cast<std::uint64_t>(args.getInt("chaos-seed"));
        so.schedules =
            static_cast<unsigned>(args.getInt("chaos-schedules"));
        so.run.eject = args.getFlag("eject");
        so.run.experimentSeed = config.seed;
        const chaos::SearchResult res =
            chaos::runSearch(so, std::cout);
        return res.violating == 0 ? 0 : 1;
    }

    if (socialnet_mode) {
        if (args.getString("faults") != "healthy" ||
            args.getFlag("eject") || args.getFlag("resilience"))
            fatal("--faults/--eject/--resilience are TeaStore policy "
                  "presets; socialnet plants its gray replica via "
                  "--straggler and hedges via --hedge-delay");
    } else {
        config.faults = faultScriptByName(args.getString("faults"),
                                          config.warmup,
                                          config.measure);
        if (args.getFlag("eject")) {
            config.resilience = teastore::ejectionPolicy();
            config.app.degradedFallbacks = true;
        } else if (args.getFlag("resilience")) {
            config.resilience = teastore::resilientPolicy();
            config.app.degradedFallbacks = true;
        }
    }

    // Overload layer: start from the tuned preset and keep only the
    // parts the flags ask for, so each knob works on its own.
    const svc::AdmissionKind admission =
        svc::admissionByName(args.getString("admission"));
    if (admission != svc::AdmissionKind::Off ||
        args.getFlag("criticality") || args.getFlag("brownout")) {
        if (socialnet_mode)
            fatal("--admission/--criticality/--brownout apply the "
                  "TeaStore overload preset; not available with "
                  "--app socialnet yet");
        svc::OverloadConfig oc = teastore::overloadAwarePolicy();
        oc.admission.kind = admission;
        oc.codel.enabled = admission != svc::AdmissionKind::Off;
        oc.criticalityAware = args.getFlag("criticality");
        if (!oc.criticalityAware)
            oc.rules.clear();
        oc.brownout.enabled = args.getFlag("brownout");
        if (oc.brownout.enabled)
            config.app.degradedFallbacks = true;
        config.overload = oc;
    }

    if (args.getFlag("trace") || !args.getString("trace-out").empty()) {
        config.trace.enabled = true;
        config.trace.sampleRate = args.getDouble("trace-sample");
    }

    // Run through the sweep harness so msim shares the thread pool,
    // per-point logging tags and error handling with the bench suite.
    core::SweepPoint point;
    point.label = args.getString("machine") + "/" +
                  args.getString("placement");
    point.config = config;
    point.refineRounds = static_cast<unsigned>(args.getInt("refine"));

    // Cluster mode: any scale-out knob reroutes the run through
    // cluster::runScaleout, which joins --nodes copies of --machine
    // over the fabric and layers the cache/shard tier and node scaler
    // on top. A --schedule then modulates the open-loop driver
    // directly (whole-node elasticity replaces the core autoscaler).
    const unsigned cluster_nodes =
        static_cast<unsigned>(args.getInt("nodes"));
    const bool cluster_mode =
        cluster_nodes > 1 || args.getInt("shards") > 0 ||
        args.getInt("cache-nodes") > 0 ||
        args.getInt("initial-nodes") > 0 ||
        args.getFlag("node-scaler") ||
        args.getInt("data-replication") > 1 ||
        args.getString("fabric") != "ideal";

    const std::string schedule = args.getString("schedule");
    if (!schedule.empty() && !socialnet_mode)
        point.config.loadSchedule = autoscale::makeSchedule(
            schedule, args.getDouble("base-rps"),
            args.getDouble("peak-rps"), config.warmup, config.measure);
    if (socialnet_mode) {
        if (cluster_mode)
            fatal("--app socialnet runs on one machine; drop the "
                  "cluster flags (--nodes/--shards/--cache-nodes/"
                  "--node-scaler/--fabric/--data-replication)");
        if (!schedule.empty() || !args.getString("autoscale").empty())
            fatal("--schedule/--autoscale drive the TeaStore runner; "
                  "socialnet runs a fixed open-loop rate");
        if (point.refineRounds != 0)
            fatal("--refine does not apply to --app socialnet");
        if (config.cores != 0 || !config.smt)
            fatal("--app socialnet spreads the graph over the whole "
                  "machine; drop --cores/--no-smt");
        if (config.openLoopRps <= 0.0)
            fatal("--app socialnet is open-loop; add "
                  "--open-loop-rps RATE (e.g. 600)");
        socialnet::RunOptions opts;
        const int depth = args.getInt("fan-depth");
        if (depth < 1 || depth > 5)
            fatal("--fan-depth ", depth, " out of range (1-5)");
        opts.app.depth = static_cast<unsigned>(depth);
        const int width = args.getInt("fan-width");
        if (width < 1)
            fatal("--fan-width must be at least 1");
        opts.app.fanWidth = static_cast<unsigned>(width);
        opts.stragglerFactor = args.getDouble("straggler");
        if (opts.stragglerFactor < 1.0)
            fatal("--straggler slows a replica; use a factor >= 1");
        const double hedge_ms = args.getDouble("hedge-delay");
        opts.hedge = hedge_ms > 0.0;
        opts.hedgeDelay = secondsToTicks(hedge_ms / 1e3);
        opts.hedgeBudget = args.getDouble("hedge-budget");
        if (opts.hedgeBudget <= 0.0 || opts.hedgeBudget > 1.0)
            fatal("--hedge-budget ", opts.hedgeBudget,
                  " out of range (0, 1]");
        point.label = "socialnet/depth" + std::to_string(depth) +
                      (opts.hedge ? "/hedge" : "");
        point.runner = [opts](const core::ExperimentConfig &c) {
            return socialnet::runSocialnet(c, opts);
        };
    } else if (cluster_mode) {
        if (!args.getString("autoscale").empty())
            fatal("--autoscale grows cores on one machine; cluster "
                  "runs grow whole nodes, use --node-scaler");
        if (point.refineRounds != 0)
            fatal("--refine does not apply to cluster runs");
        cluster::ClusterParams cp;
        cp.nodes = cluster_nodes;
        cp.initialNodes =
            static_cast<unsigned>(args.getInt("initial-nodes"));
        cp.nodeMachine = config.machine;
        cluster::applyFabricPreset(cp, args.getString("fabric"));
        cp.shards = static_cast<unsigned>(args.getInt("shards"));
        cp.cacheNodes =
            static_cast<unsigned>(args.getInt("cache-nodes"));
        const int repl = args.getInt("data-replication");
        const int write_quorum = args.getInt("write-quorum");
        const int read_quorum = args.getInt("read-quorum");
        if (repl < 1 || repl > 3)
            fatal("--data-replication ", repl, " out of range (1-3)");
        if (repl == 1 && (write_quorum > 0 || read_quorum > 0))
            fatal("--write-quorum/--read-quorum need "
                  "--data-replication > 1 (an unreplicated tier has "
                  "no quorums)");
        if (repl > 1) {
            if (cp.shards == 0)
                fatal("--data-replication replicates shard key "
                      "ranges; add --shards N");
            const unsigned active =
                cp.initialNodes > 0 ? cp.initialNodes : cp.nodes;
            if (active < static_cast<unsigned>(repl))
                fatal("--data-replication ", repl, " places replicas "
                      "on distinct machines; raise --nodes (or "
                      "--initial-nodes) to at least ", repl);
            if (write_quorum > repl)
                fatal("--write-quorum ", write_quorum, " exceeds "
                      "--data-replication ", repl);
            if (read_quorum > repl)
                fatal("--read-quorum ", read_quorum, " exceeds "
                      "--data-replication ", repl);
            cp.replication.factor = static_cast<unsigned>(repl);
            cp.replication.writeQuorum =
                static_cast<unsigned>(write_quorum);
            cp.replication.readQuorum =
                static_cast<unsigned>(read_quorum);
            // Drain so the post-run acked-write sweep can certify the
            // run (replication: ... verified in the summary).
            point.config.drainAtEnd = true;
        }
        cp.scaler.enabled = args.getFlag("node-scaler");
        point.runner = [cp](const core::ExperimentConfig &c) {
            return cluster::runScaleout(c, cp);
        };
    } else if (!schedule.empty()) {
        autoscale::ElasticConfig ec;
        ec.base = point.config;
        ec.initialCores =
            static_cast<unsigned>(args.getInt("initial-cores"));
        const std::string policy = args.getString("autoscale");
        ec.autoscale = !policy.empty();
        if (ec.autoscale)
            ec.autoscaler.policy = autoscale::policyByName(policy);
        ec.autoscaler.placer =
            autoscale::placerByName(args.getString("placer"));
        if (point.refineRounds != 0)
            fatal("--refine does not apply to --schedule runs");
        point.runner = [ec](const core::ExperimentConfig &) {
            return autoscale::runElastic(ec);
        };
    } else if (!args.getString("autoscale").empty()) {
        fatal("--autoscale needs --schedule");
    }

    core::SweepOptions so;
    so.jobs = static_cast<unsigned>(args.getInt("jobs"));
    so.progress = false;
    const core::SweepRunner runner(so);
    const auto wall_start = std::chrono::steady_clock::now();
    const core::SweepOutcome out = runner.run({point})[0];
    const double wall_seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - wall_start).count();
    if (!out.ok)
        fatal("run failed: ", out.error);
    const core::RunResult &r = out.result;

    const std::string trace_out = args.getString("trace-out");
    if (!trace_out.empty()) {
        if (!r.trace.store)
            fatal("--trace-out needs a traced run");
        if (!trace::writeChromeTraceFile(trace_out, *r.trace.store))
            fatal("cannot write trace file '", trace_out, "'");
    }

    if (args.getFlag("json")) {
        core::writeJson(std::cout, r);
        return 0;
    }

    std::cout << core::summarize(r) << "\n";
    if (args.getFlag("report-speed")) {
        const double sim_seconds =
            ticksToSeconds(config.warmup + config.measure);
        std::cout << "speed: wall="
                  << formatDouble(wall_seconds, 2) << "s  sim/wall="
                  << formatDouble(wall_seconds > 0
                                      ? sim_seconds / wall_seconds
                                      : 0.0, 2)
                  << "  events=" << r.eventsProcessed << "  events/s="
                  << formatDouble(
                         wall_seconds > 0
                             ? static_cast<double>(r.eventsProcessed) /
                                   wall_seconds
                             : 0.0, 0)
                  << "\n";
    }
    if (r.elastic.active) {
        const core::ElasticSummary &es = r.elastic;
        std::cout << "elastic: schedule=" << es.schedule
                  << " policy=" << es.policy << " placer=" << es.placer
                  << "  offered=" << formatDouble(es.offeredMeanRps, 0)
                  << "/" << formatDouble(es.offeredPeakRps, 0)
                  << " req/s  slo_viol="
                  << formatDouble(es.sloViolationSeconds, 2)
                  << "s  core_s="
                  << formatDouble(es.coreSecondsGranted, 0)
                  << "  steady_cpus="
                  << formatDouble(es.steadyStateCpus, 0)
                  << "  outs=" << es.scaleOuts << " ins=" << es.scaleIns
                  << "  lag=" << formatDouble(es.scaleOutLagMeanMs, 0)
                  << "ms\n";
    }
    if (r.scaleout.active) {
        const core::ScaleoutSummary &so = r.scaleout;
        std::cout << "scaleout: nodes=" << so.activeNodesEnd << "/"
                  << so.nodes << "  fabric=" << so.fabricMessages
                  << " msgs ("
                  << formatDouble(so.fabricShare * 100.0, 1) << "%)"
                  << "  cache hit="
                  << formatDouble(so.cacheHitRate, 2)
                  << " inval=" << so.cacheInvalidations
                  << "  shard reqs=" << so.shardRequests
                  << " cv=" << formatDouble(so.shardLoadCv, 2)
                  << "  provisioned=" << so.nodesProvisioned
                  << " (warm " << so.warmProvisions << "/cold "
                  << so.coldProvisions << ", lag "
                  << formatDouble(so.provisionLagMeanMs, 0)
                  << "ms)\n";
    }
    if (r.replication.active) {
        const core::ReplicationSummary &rp = r.replication;
        std::cout << "replication: R=" << rp.factor << " W="
                  << rp.writeQuorum << " Rq=" << rp.readQuorum
                  << "  writes=" << rp.quorumWrites << " (fail "
                  << rp.writeFailures << ", ack p99 "
                  << formatDouble(rp.writeAckP99Ms, 2) << "ms)"
                  << "  reads=" << rp.quorumReads << " (repair "
                  << rp.readRepairs << ")"
                  << "  hints q/rep/drop=" << rp.hintsQueued << "/"
                  << rp.hintsReplayed << "/" << rp.hintsDropped
                  << "  rebalance=" << rp.rebalancesCompleted << "/"
                  << rp.rebalancesStarted << " ("
                  << formatDouble(rp.rebalanceMsTotal, 2) << "ms, "
                  << rp.rebalanceBytes << "B)";
        if (rp.consistencyChecked) {
            std::cout << "  verified lost=" << rp.lostAckedWrites
                      << " stale=" << rp.staleQuorumReads;
        }
        std::cout << "\n";
    }
    if (r.fanout.active) {
        const core::FanoutSummary &fo = r.fanout;
        std::cout << "fanout: app=" << fo.app << " depth=" << fo.depth
                  << " services=" << fo.services
                  << " width=" << fo.fanWidth
                  << "  read p50/p99="
                  << formatDouble(fo.p50Ms, 2) << "/"
                  << formatDouble(fo.p99Ms, 2) << "ms  amp="
                  << formatDouble(fo.amplification, 2);
        if (fo.hedged) {
            std::cout << "  hedges=" << fo.hedgesLaunched << "/"
                      << fo.firstAttempts << " (wins " << fo.hedgeWins
                      << ", denied " << fo.hedgesDenied << ", share "
                      << formatDouble(fo.hedgeShare, 3) << ")";
        }
        std::cout << "\n";
    }
    if (r.resilience.active) {
        const core::ResilienceSummary &rs = r.resilience;
        std::cout << "resilience: goodput="
                  << formatDouble(rs.goodputRps, 0) << " req/s"
                  << "  errors="
                  << formatDouble(rs.errorRate * 100.0, 2) << "%"
                  << "  degraded="
                  << formatDouble(rs.degradedShare * 100.0, 2) << "%"
                  << "  retries=" << rs.retries << "  shed=" << rs.shed
                  << "  deadline_drops=" << rs.deadlineDrops
                  << "  breaker_opens=" << rs.breakerOpens << "\n";
    }
    if (r.overload.active) {
        const core::OverloadSummary &ov = r.overload;
        std::cout << "overload: admission=" << ov.admission
                  << " limit=" << formatDouble(ov.limitInitial, 0) << "->"
                  << formatDouble(ov.limitFinal, 0) << " ["
                  << formatDouble(ov.limitMin, 0) << ","
                  << formatDouble(ov.limitMax, 0) << "]"
                  << "  shed crit/norm/shed=" << ov.shedCritical << "/"
                  << ov.shedNormal << "/" << ov.shedSheddable
                  << "  codel_drops=" << ov.codelDrops
                  << "  rejected=" << ov.rejectedTotal
                  << "  brownout_duty="
                  << formatDouble(ov.brownoutDutyCycle * 100.0, 1)
                  << "%  dimmer="
                  << formatDouble(ov.dimmerFinal, 2) << "\n";
    }
    if (r.trace.active) {
        const core::TraceSummary &tr = r.trace;
        std::cout << "trace: sampled=" << tr.tracesSampled << "/"
                  << tr.rootsSeen << "  analyzed=" << tr.tracesAnalyzed
                  << "  spans=" << tr.spanCount
                  << "  mean_e2e=" << formatDouble(tr.meanE2eMs, 2)
                  << "ms\n";
        if (tr.tracesAnalyzed > 0) {
            const double toMs =
                1.0 / (static_cast<double>(tr.attribution.traces) * 1e6);
            TextTable att({"service", "queue", "compute", "stall",
                           "fanout", "backoff", "shed", "net",
                           "total (ms)"});
            for (const auto &[name, a] : tr.attribution.services) {
                att.row()
                    .cell(name)
                    .cell(a.queueNs * toMs, 3)
                    .cell(a.computeNs * toMs, 3)
                    .cell(a.stallNs * toMs, 3)
                    .cell(a.fanoutNs * toMs, 3)
                    .cell(a.backoffNs * toMs, 3)
                    .cell(a.shedNs * toMs, 3)
                    .cell(a.networkNs * toMs, 3)
                    .cell(a.totalNs() * toMs, 3);
            }
            att.printWithCaption(
                "critical-path attribution (per-trace means)");
        }
    }
    if (args.getFlag("plan"))
        std::cout << "\n" << r.plan.describe();

    std::vector<perf::PerfRow> rows;
    for (const auto &[name, row] : r.servicePerf)
        rows.push_back(row);
    rows.push_back(r.total);
    TextTable services = perf::microarchTable(rows);

    TextTable ops({"op", "count", "mean (ms)", "p50 (ms)", "p95 (ms)",
                   "p99 (ms)"});
    for (const auto &[name, lat] : r.perOp) {
        ops.row()
            .cell(name)
            .cell(lat.count)
            .cell(lat.meanMs, 2)
            .cell(lat.p50Ms, 2)
            .cell(lat.p95Ms, 2)
            .cell(lat.p99Ms, 2);
    }

    if (args.getFlag("csv")) {
        services.printCsv(std::cout);
        std::cout << "\n";
        ops.printCsv(std::cout);
    } else {
        services.printWithCaption("per-service counters");
        ops.printWithCaption("per-op end-to-end latency");
    }
    return 0;
}

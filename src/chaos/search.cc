#include "chaos/search.hh"

#include <algorithm>
#include <ostream>
#include <utility>

#include "base/logging.hh"
#include "chaos/ledger.hh"
#include "cluster/cluster.hh"
#include "core/world.hh"
#include "sim/simulation.hh"
#include "svc/mesh.hh"
#include "svc/service.hh"
#include "teastore/app.hh"
#include "teastore/chaos.hh"
#include "topo/machine.hh"
#include "topo/presets.hh"
#include "trace/trace.hh"

namespace microscale::chaos
{

namespace
{

/**
 * The fixed harness topology: rome128 with CCX-aware placement, so
 * every service gets several CCX-pinned replicas - per-replica gray
 * faults leave healthy peers to route around and correlated CCX
 * crashes have real blast domains. The load is light (the search
 * checks invariants, not saturation), so one schedule run stays a
 * fraction of a second.
 */
constexpr Tick kWarmup = 120 * kMillisecond;
constexpr Tick kMeasure = 500 * kMillisecond;
constexpr unsigned kUsers = 40;

/**
 * The cluster variant of the harness: two active small8 machines (a
 * third joins mid-window through the scripted scale event, streaming
 * a rebalance under fire) over a LAN fabric, persistence sharded two
 * ways at replication factor 2 behind a single cache node — so node
 * loss takes out stateful tier members, not just app replicas, and
 * every schedule exercises the quorum/hint/read-repair machinery. The
 * small hint queue makes overflow reachable. The scaler stays off -
 * schedules, not load, drive the run.
 */
cluster::ClusterParams
clusterHarnessParams()
{
    cluster::ClusterParams p;
    p.nodes = 3;
    p.initialNodes = 2;
    p.nodeMachine = topo::small8();
    cluster::applyFabricPreset(p, "lan");
    p.shards = 2;
    p.cacheNodes = 1;
    p.cacheCapacity = 256;
    p.shardWorkers = 4;
    p.cacheWorkers = 4;
    p.replication.factor = 2;
    p.replication.writeQuorum = 1;
    p.replication.hintQueueCap = 16;
    p.replication.scaleAddNodeAt = 250 * kMillisecond;
    p.replication.rebalanceBatchEntities = 8;
    return p;
}

core::ExperimentConfig
harnessConfig(const ChaosRunOptions &opts)
{
    core::ExperimentConfig c;
    c.machine = topo::rome128();
    c.placement = core::PlacementKind::CcxAware;
    c.app.store.categories = 4;
    c.app.store.productsPerCategory = 10;
    c.app.store.users = 20;
    c.app.degradedFallbacks = true;
    // Flatter-than-calibrated demand shares spread the 16 CCX groups
    // across all five services (several replicas each).
    c.demand.webui = 0.30;
    c.demand.auth = 0.15;
    c.demand.persistence = 0.25;
    c.demand.recommender = 0.10;
    c.demand.image = 0.20;
    c.sizing.webui.workers = 6;
    c.sizing.auth.workers = 4;
    c.sizing.persistence.workers = 6;
    c.sizing.recommender.workers = 2;
    c.sizing.image.workers = 6;
    c.sizing.registry = {1, 1};
    if (opts.cluster) {
        // Per-node sizing for the small8 node machine; runScaleout
        // ignores c.machine and builds 2 x small8 instead.
        c.sizing.webui = {1, 8};
        c.sizing.auth = {1, 4};
        c.sizing.persistence = {1, 8};
        c.sizing.recommender = {1, 2};
        c.sizing.image = {1, 8};
    }
    c.load.users = kUsers;
    c.load.meanThink = 50 * kMillisecond;
    c.warmup = kWarmup;
    c.measure = kMeasure;
    c.seed = opts.experimentSeed;

    c.resilience = opts.eject ? teastore::ejectionPolicy()
                              : teastore::resilientPolicy();
    // Every external request must terminate no matter which link the
    // schedule blackholes, so the external->webui edge carries the
    // top-level deadline (one attempt: retries against a dead frontend
    // only stretch the tail).
    svc::EdgeRule external;
    external.client = svc::kExternalClient;
    external.server = teastore::names::kWebui;
    external.policy.timeout = 500 * kMillisecond;
    external.policy.maxAttempts = 1;
    c.resilience.edges.push_back(std::move(external));

    // Fabric partitions blackhole EVERY edge crossing the node pair -
    // including the cache/shard tier calls, which have no specific
    // rule above. A catch-all timeout (first match wins, so it only
    // covers otherwise-unruled edges) keeps blackholed workers from
    // hanging past the drain.
    if (opts.cluster) {
        svc::EdgeRule any;
        any.client = "*";
        any.server = "*";
        any.policy.timeout = 500 * kMillisecond;
        any.policy.maxAttempts = 1;
        c.resilience.edges.push_back(std::move(any));
    }

    // Full tracing feeds the deadline-monotonicity invariant.
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    return c;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
verdictLine(const ChaosVerdict &v)
{
    std::string s = "issued=" + std::to_string(v.issued) +
                    " terminals=" + std::to_string(v.terminals);
    for (unsigned i = 0; i < svc::kNumStatuses; ++i) {
        if (v.byStatus[i] == 0)
            continue;
        s += std::string(" ") +
             svc::statusName(static_cast<svc::Status>(i)) + "=" +
             std::to_string(v.byStatus[i]);
    }
    s += " applied=" + std::to_string(v.faultsApplied);
    if (v.faultsSkipped > 0)
        s += " skipped=" + std::to_string(v.faultsSkipped);
    if (v.ackedWrites > 0) {
        s += " ackedWrites=" + std::to_string(v.ackedWrites) +
             " lostAcked=" + std::to_string(v.lostAckedWrites) +
             " staleReads=" + std::to_string(v.staleQuorumReads);
    }
    return s;
}

} // namespace

void
InvariantChecker::drained(core::World &world, teastore::App &,
                          core::RunResult &)
{
    const sim::Simulation &sim = world.sim;
    std::vector<std::string> &out = violations_;
    if (sim.foregroundQueued() != 0) {
        out.push_back("drain: " + std::to_string(sim.foregroundQueued()) +
                      " foreground event(s) still queued");
    }

    const svc::ResilienceConfig &rc = world.mesh.resilience();
    for (const auto &svc_ptr : world.mesh.services()) {
        const svc::Service &s = *svc_ptr;
        if (s.busyWorkers() != 0) {
            out.push_back("drain: " + s.name() + " has " +
                          std::to_string(s.busyWorkers()) +
                          " busy worker(s) after drain");
        }
        if (s.queuedRequests() != 0) {
            out.push_back("drain: " + s.name() + " has " +
                          std::to_string(s.queuedRequests()) +
                          " queued request(s) after drain");
        }
        if (rc.breaker.enabled) {
            for (unsigned r = 0; r < s.replicaCount(); ++r) {
                const svc::BreakerState &b = s.breakerState(r);
                if (b.probeInFlight &&
                    b.state != svc::BreakerState::State::HalfOpen) {
                    out.push_back("breaker: " + s.name() + "#" +
                                  std::to_string(r) +
                                  " probeInFlight outside HalfOpen");
                }
                const unsigned fails = static_cast<unsigned>(
                    std::count(b.window.begin(), b.window.end(), true));
                if (fails != b.windowFailures) {
                    out.push_back(
                        "breaker: " + s.name() + "#" + std::to_string(r) +
                        " windowFailures " +
                        std::to_string(b.windowFailures) + " != recount " +
                        std::to_string(fails));
                }
                if (b.window.size() > rc.breaker.windowSize) {
                    out.push_back("breaker: " + s.name() + "#" +
                                  std::to_string(r) + " window overflow");
                }
                if (b.state == svc::BreakerState::State::Closed &&
                    b.consecutiveFailures >=
                        rc.breaker.consecutiveFailures) {
                    out.push_back("breaker: " + s.name() + "#" +
                                  std::to_string(r) +
                                  " Closed at/above trip threshold");
                }
            }
        }
        if (rc.outlier.enabled) {
            const unsigned cap =
                static_cast<unsigned>(rc.outlier.maxEjectFraction *
                                      s.activeReplicaCount());
            if (s.ejectedReplicaCount() > cap) {
                out.push_back("ejection: " + s.name() + " has " +
                              std::to_string(s.ejectedReplicaCount()) +
                              " ejected replica(s), bound " +
                              std::to_string(cap));
            }
        }
    }

    if (const auto &store = world.mesh.traceStore()) {
        std::uint64_t bad = 0;
        for (const auto &t : store->traces()) {
            for (const trace::Span &span : t->spans()) {
                if (span.parent == trace::kNoSpan)
                    continue;
                const trace::Span &parent = t->span(span.parent);
                if (span.deadline != kTickNever &&
                    parent.deadline != kTickNever &&
                    span.deadline > parent.deadline) {
                    ++bad;
                }
            }
        }
        if (bad > 0) {
            out.push_back("deadline: " + std::to_string(bad) +
                          " span(s) with deadline beyond their parent's");
        }
    }
}

FaultSpace
harnessFaultSpace(bool clusterHarness)
{
    // Derive replica counts from the actual placement plan so the
    // space can never drift from what the harness builds. In cluster
    // mode the plan is built per node (runScaleout concatenates the
    // per-node plans node-major), so replica counts scale by the node
    // count and the node/fabric families are armed.
    ChaosRunOptions space_opts;
    space_opts.cluster = clusterHarness;
    const core::ExperimentConfig c = harnessConfig(space_opts);

    unsigned replica_scale = 1;
    unsigned cluster_nodes = 0;
    topo::MachineParams machine_params = c.machine;
    CpuMask plan_budget;
    if (clusterHarness) {
        const cluster::ClusterParams cp = clusterHarnessParams();
        machine_params = cluster::clusterMachine(cp);
        const topo::Machine super(machine_params);
        for (unsigned s = 0; s < cp.nodeMachine.sockets; ++s)
            plan_budget = plan_budget | super.cpusOfSocket(s);
        replica_scale = cp.nodes;
        cluster_nodes = cp.nodes;
    }
    const topo::Machine machine(machine_params);
    if (!clusterHarness)
        plan_budget = core::budgetMask(machine, c.cores, c.smt);
    const core::PlacementPlan plan = core::buildPlacement(
        c.placement, machine, plan_budget, c.demand, c.sizing);

    FaultSpace space;
    for (const char *name :
         {teastore::names::kWebui, teastore::names::kAuth,
          teastore::names::kPersistence, teastore::names::kRecommender,
          teastore::names::kImage}) {
        const auto it = plan.services.find(name);
        if (it == plan.services.end())
            fatal("harnessFaultSpace: plan lacks service '", name, "'");
        space.services.push_back(
            {name, it->second.replicas * replica_scale});
    }
    space.clusterNodes = cluster_nodes;
    if (clusterHarness) {
        const cluster::ClusterParams cp = clusterHarnessParams();
        if (cp.replication.factor > 1) {
            // Arm the data-tier families against the initial shards
            // (shard j lands on node j % initialNodes, matching
            // buildDataTier's round-robin placement).
            const unsigned initial = cp.initialNodes == 0
                                         ? cp.nodes
                                         : cp.initialNodes;
            space.dataShards = cp.shards;
            for (unsigned j = 0; j < cp.shards; ++j)
                space.dataShardNodes.push_back(j % initial);
        }
    }
    // Only edges whose client applies a timeout (see FaultSpace docs).
    space.links = {
        {svc::kExternalClient, teastore::names::kWebui},
        {teastore::names::kWebui, teastore::names::kAuth},
        {teastore::names::kWebui, teastore::names::kPersistence},
        {teastore::names::kWebui, teastore::names::kRecommender},
        {teastore::names::kWebui, teastore::names::kImage},
        {teastore::names::kAuth, teastore::names::kPersistence},
    };
    space.ccxDomains = machine.numCcxs();
    return space;
}

void
harnessWindow(Tick &start, Tick &end)
{
    start = kWarmup / 2;
    end = kWarmup + kMeasure;
}

ChaosVerdict
runSchedule(const svc::FaultScript &script, const ChaosRunOptions &opts)
{
    ChaosVerdict verdict;
    RequestLedger ledger;
    if (opts.injectBug)
        ledger.setDropStatus(svc::Status::Timeout);

    core::ExperimentConfig config = harnessConfig(opts);
    config.faults = script;
    config.ledger = &ledger;
    config.drainAtEnd = true;
    InvariantChecker checker(verdict.violations);

    const core::RunResult result =
        opts.cluster ? cluster::runScaleout(config, clusterHarnessParams(),
                                            {&checker})
                     : core::runExperiment(config, {&checker});

    ledger.verify(verdict.violations);
    // The replication invariants (no lost acked write, no stale quorum
    // read); trivially clean for runs without quorum writes.
    ledger.verifyReplication(verdict.violations);
    verdict.issued = ledger.issued();
    verdict.terminals = ledger.terminals();
    for (unsigned i = 0; i < svc::kNumStatuses; ++i)
        verdict.byStatus[i] =
            ledger.terminals(static_cast<svc::Status>(i));
    verdict.faultsApplied = result.grayfail.faultsApplied;
    verdict.faultsSkipped = result.grayfail.faultsSkipped;
    verdict.ackedWrites = ledger.ackedWriteCount();
    verdict.lostAckedWrites = ledger.lostAckedWrites();
    verdict.staleQuorumReads = ledger.staleQuorumReads();
    return verdict;
}

std::uint64_t
fingerprint(const svc::FaultScript &script, const ChaosVerdict &verdict)
{
    std::uint64_t h = fnv1a(describeFaultScript(script));
    h = fnv1a(verdictLine(verdict), h);
    for (const std::string &v : verdict.violations)
        h = fnv1a(v, h);
    return h;
}

svc::FaultScript
shrinkSchedule(const svc::FaultScript &script,
               const ChaosRunOptions &opts, unsigned *runsOut)
{
    unsigned runs = 0;
    auto violates = [&](const std::vector<svc::FaultEvent> &events) {
        svc::FaultScript s;
        s.events = events;
        ++runs;
        return !runSchedule(s, opts).clean();
    };

    std::vector<svc::FaultEvent> cur = script.events;
    if (cur.empty() || !violates(cur)) {
        if (runsOut)
            *runsOut = runs;
        return script;
    }

    // Classic ddmin over complements: split into n chunks and keep any
    // complement that still violates, refining granularity when stuck.
    std::size_t n = 2;
    while (cur.size() >= 2) {
        const std::size_t chunk = (cur.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t lo = i * chunk;
            if (lo >= cur.size())
                break;
            const std::size_t hi = std::min(cur.size(), lo + chunk);
            std::vector<svc::FaultEvent> complement;
            complement.reserve(cur.size() - (hi - lo));
            complement.insert(complement.end(), cur.begin(),
                              cur.begin() + lo);
            complement.insert(complement.end(), cur.begin() + hi,
                              cur.end());
            if (complement.empty())
                continue;
            if (violates(complement)) {
                cur = std::move(complement);
                n = std::max<std::size_t>(2, n - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= cur.size())
                break;
            n = std::min(cur.size(), 2 * n);
        }
    }

    // Finish with a one-minimal pass: no single event is removable.
    bool changed = true;
    while (changed && cur.size() > 1) {
        changed = false;
        for (std::size_t i = 0; i < cur.size(); ++i) {
            std::vector<svc::FaultEvent> without = cur;
            without.erase(without.begin() +
                          static_cast<std::ptrdiff_t>(i));
            if (violates(without)) {
                cur = std::move(without);
                changed = true;
                break;
            }
        }
    }

    if (runsOut)
        *runsOut = runs;
    svc::FaultScript out;
    out.events = std::move(cur);
    return out;
}

SearchResult
runSearch(const SearchOptions &opts, std::ostream &os)
{
    SearchResult result;
    const FaultSpace space = harnessFaultSpace(opts.run.cluster);
    Tick window_start = 0;
    Tick window_end = 0;
    harnessWindow(window_start, window_end);

    std::uint64_t combined = 1469598103934665603ull;
    for (unsigned i = 0; i < opts.schedules; ++i) {
        const std::uint64_t schedule_seed = opts.seed + i;
        const svc::FaultScript script = randomSchedule(
            schedule_seed, space, opts.maxEvents, window_start,
            window_end);
        const ChaosVerdict verdict = runSchedule(script, opts.run);
        const std::uint64_t fp = fingerprint(script, verdict);
        combined = fnv1a(std::to_string(fp), combined);
        ++result.ran;

        os << "schedule seed=" << schedule_seed
           << " events=" << script.events.size() << " "
           << verdictLine(verdict) << " fp=" << std::hex << fp
           << std::dec
           << (verdict.clean() ? " CLEAN" : " VIOLATION") << "\n";
        if (!verdict.clean()) {
            ++result.violating;
            for (const std::string &v : verdict.violations)
                os << "  violation: " << v << "\n";
            os << describeFaultScript(script);
            if (opts.run.injectBug) {
                unsigned shrink_runs = 0;
                const svc::FaultScript minimal =
                    shrinkSchedule(script, opts.run, &shrink_runs);
                result.shrunkEvents =
                    static_cast<unsigned>(minimal.events.size());
                os << "minimal repro (" << minimal.events.size()
                   << " event(s), " << shrink_runs
                   << " shrink run(s)):\n"
                   << describeFaultScript(minimal);
                break;
            }
        }
    }
    result.combinedFingerprint = combined;
    os << "chaos search: " << result.ran << " schedule(s), "
       << result.violating << " violating, fingerprint=" << std::hex
       << result.combinedFingerprint << std::dec << "\n";
    return result;
}

} // namespace microscale::chaos

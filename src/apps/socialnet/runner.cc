#include "apps/socialnet/runner.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "core/world.hh"

namespace microscale::socialnet
{

namespace
{

/** Arrival-process state shared with the event closures. */
struct LoadState
{
    explicit LoadState(std::uint64_t seed) : rng(seed, "socialnet.load")
    {
    }

    Rng rng;
    bool stopped = false;
};

} // namespace

core::RunResult
runSocialnet(const core::ExperimentConfig &config, const RunOptions &opts)
{
    if (config.openLoopRps <= 0.0)
        fatal("socialnet runner requires open-loop load "
              "(config.openLoopRps > 0)");
    if (config.cores != 0 || !config.smt)
        fatal("socialnet runs on the whole machine; a CPU budget "
              "(cores/smt) is not supported");

    // Base policy from the config, plus hedging on the wide fan-out
    // edges: the timeline mget legs are idempotent reads, the textbook
    // hedge candidates.
    core::ExperimentConfig world_config = config;
    svc::ResilienceConfig &rc = world_config.resilience;
    if (opts.hedge) {
        rc.hedgeBudgetRatio = opts.hedgeBudget;
        svc::EdgePolicy hp;
        hp.hedge.delay = opts.hedgeDelay;
        hp.hedge.delayQuantile = opts.hedgeQuantile;
        hp.hedge.maxHedges = opts.maxHedges;
        rc.edges.push_back(
            {names::kHomeTimeline, names::kPostStorage, hp});
        rc.edges.push_back(
            {names::kUserTimeline, names::kPostStorage, hp});
    }
    // Declared before the world: responses may still be pending in the
    // mesh when it is destroyed.
    loadgen::Measurement measurement(kNumOps);
    measurement.setWindow(config.warmup, config.warmup + config.measure);
    core::World world(world_config);
    App app(world.mesh, opts.app, config.seed);

    // Plant the gray straggler in the fan-out tier: the last
    // post-storage replica computes slower but keeps answering, so
    // round-robin keeps routing ~1/replicas of the mget legs into it.
    if (opts.stragglerFactor > 1.0 && opts.app.storage.replicas >= 2) {
        world.mesh.service(names::kPostStorage)
            .setReplicaSlow(opts.app.storage.replicas - 1,
                            opts.stragglerFactor);
    }

    auto state = std::make_shared<LoadState>(config.seed);
    const double mean_gap_ns =
        static_cast<double>(kSecond) / config.openLoopRps;

    // Self-scheduling Poisson arrivals; the closure lives in `arrive`,
    // which is destroyed before the world (its pending events never
    // run).
    auto arrive = std::make_shared<std::function<void()>>();
    *arrive = [state, &world, &app, &measurement, mean_gap_ns,
               ap = arrive.get()]() {
        if (state->stopped)
            return;
        const OpType op = app.sampleOp(state->rng);
        svc::Payload req = app.sampleRequest(op, state->rng);
        const Tick t0 = world.sim.now();
        world.mesh.callExternalS(
            names::kFrontend, opName(op), std::move(req),
            [&world, &measurement, t0, op](const svc::Payload &,
                                           svc::Status st) {
                measurement.record(static_cast<unsigned>(op), t0,
                                   world.sim.now(), st, false);
            });
        const double gap = state->rng.exponential(mean_gap_ns);
        world.sim.scheduleAfter(
            std::max<Tick>(1, static_cast<Tick>(std::llround(gap))),
            [ap] { (*ap)(); });
    };

    world.kernel.start();
    app.start();
    world.sim.scheduleAfter(1, [ap = arrive.get()] { (*ap)(); });

    core::RunResult result;
    world.runWindows(app.services(), result);
    state->stopped = true;

    std::vector<std::string> op_names;
    for (OpType op : allOps())
        op_names.push_back(opName(op));
    core::harvestLoad(measurement, op_names, result);
    result.resilience.active = rc.active();
    core::harvestTrace(world_config, world.mesh, names::kFrontend, result);

    {
        constexpr double kMs = static_cast<double>(kMillisecond);
        core::FanoutSummary &fo = result.fanout;
        fo.active = true;
        fo.app = "socialnet";
        fo.depth = opts.app.depth;
        fo.services = app.serviceCount();
        fo.fanWidth = opts.app.fanWidth;
        fo.hedged = opts.hedge;
        fo.hedgeDelayMs = static_cast<double>(opts.hedgeDelay) / kMs;
        fo.hedgeQuantile = opts.hedgeQuantile;
        fo.hedgeBudgetRatio = opts.hedge ? opts.hedgeBudget : 0.0;
        const svc::HedgeStats &hs = world.mesh.hedgeStats();
        fo.firstAttempts = hs.firstAttempts;
        fo.hedgesLaunched = hs.launched;
        fo.hedgeWins = hs.wins;
        fo.hedgesDenied = hs.budgetDenied;
        fo.hedgesCancelled = hs.cancelled;
        fo.hedgeShare =
            hs.firstAttempts > 0
                ? static_cast<double>(hs.launched) /
                      static_cast<double>(hs.firstAttempts)
                : 0.0;
        // Tail amplification is read off the fan-out read path, not
        // the overall mix: the write/compose ops have their own
        // latency modes that would mask the synchronization tail.
        const QuantileHistogram &read = measurement.latencyNsFor(
            static_cast<unsigned>(OpType::ReadHome));
        fo.p50Ms = read.p50() / kMs;
        fo.p99Ms = read.p99() / kMs;
        fo.amplification =
            fo.p50Ms > 0.0 ? fo.p99Ms / fo.p50Ms : 0.0;
    }

    app.stop();
    world.kernel.stop();
    return result;
}

} // namespace microscale::socialnet

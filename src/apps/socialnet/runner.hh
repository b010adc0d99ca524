/**
 * @file
 * End-to-end runner for the socialnet application graph.
 *
 * The stack, the window protocol and the shared harvest come from
 * core::World, core::harvestLoad and core::harvestTrace (rooted at the
 * socialnet frontend). What stays app-specific here: the hedge edges
 * added to the mesh policy, the gray straggler, the open-loop Poisson
 * arrivals on the dedicated "socialnet.load" stream, and the `fanout`
 * summary block. The TeaStore runner never learns socialnet's names.
 */

#ifndef MICROSCALE_APPS_SOCIALNET_RUNNER_HH
#define MICROSCALE_APPS_SOCIALNET_RUNNER_HH

#include "apps/socialnet/app.hh"
#include "core/experiment.hh"

namespace microscale::socialnet
{

/** Socialnet-specific run options (graph shape, hedging, straggler). */
struct RunOptions
{
    AppParams app;

    /** Hedge the wide fan-out edges (timeline -> post-storage). */
    bool hedge = false;
    /** Fixed hedge delay (used until the quantile trigger warms up). */
    Tick hedgeDelay = 0;
    /** Hedge after this observed-latency quantile (0 = fixed only). */
    double hedgeQuantile = 0.0;
    /** Hedge tokens accrued per first attempt (see ResilienceConfig). */
    double hedgeBudget = 0.2;
    /** Extra legs beyond the first per call. */
    unsigned maxHedges = 1;

    /**
     * Plant a straggler: the last post-storage replica runs its
     * compute this many times slower (a gray replica in the fan-out
     * tier — the pathology hedging exists for). 1.0 disables.
     */
    double stragglerFactor = 6.0;
};

/**
 * Run the socialnet graph under open-loop Poisson load. Uses
 * config.machine/seed/warmup/measure/openLoopRps/net/rpc/sched/trace
 * and config.resilience as the base mesh policy (hedge edges are
 * appended per `opts`). The graph spreads over the whole machine:
 * fatal() when config.openLoopRps <= 0 or the config asks for a CPU
 * budget (cores != 0 or smt off).
 */
core::RunResult runSocialnet(const core::ExperimentConfig &config,
                             const RunOptions &opts);

} // namespace microscale::socialnet

#endif // MICROSCALE_APPS_SOCIALNET_RUNNER_HH

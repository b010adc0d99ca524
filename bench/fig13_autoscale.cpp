/**
 * @file
 * FIG-13: online elasticity. Time-varying load schedules (flash-crowd
 * spike, diurnal sine, constant load under a recommender brownout)
 * drive the open-loop driver against three provisioning regimes: a
 * static deployment tuned for nominal load, a reactive threshold
 * autoscaler and a predictive (Holt forecast) autoscaler, the latter
 * two placing new replicas either topology-aware (least-loaded CCX,
 * memory homed) or OS-default (unpinned, same capacity bill). The
 * figure reports SLO-violation seconds, core-seconds of granted
 * capacity and scale-out lag per cell, and asserts the two headline
 * claims: autoscaling beats the static baseline on both violation
 * seconds and core-seconds for the spike, and topology-aware
 * placement beats OS-default during scale-out.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "autoscale/elastic.hh"
#include "base/logging.hh"
#include "common.hh"
#include "teastore/chaos.hh"

using namespace microscale;

namespace
{

struct Arm
{
    const char *name;
    bool autoscale;
    autoscale::PolicyKind policy;
    autoscale::PlacerKind placer;
};

/** Short label suffix: "static", "reactive/ccx", "predictive/os". */
std::string
armLabel(const Arm &arm)
{
    if (!arm.autoscale)
        return "static";
    std::string s = arm.name;
    s += arm.placer == autoscale::PlacerKind::TopologyAware ? "/ccx"
                                                            : "/os";
    return s;
}

const core::RunResult &
byLabel(const std::vector<core::SweepOutcome> &runs,
        const std::string &label)
{
    for (const core::SweepOutcome &o : runs) {
        if (o.label == label)
            return o.result;
    }
    fatal("fig13: no sweep point labeled '", label, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    benchx::init(argc, argv);
    const bool fast = benchx::fastMode();

    // Windows are much longer than the other figures: the control
    // loop needs room for several scale-out/scale-in episodes.
    const Tick warmup = fast ? 2 * kSecond : 3 * kSecond;
    const Tick measure = fast ? 24 * kSecond : 48 * kSecond;

    // Nominal load a single replica per service handles comfortably;
    // the spike overwhelms the static deployment (its webui partition
    // saturates around 2.3k req/s) but stays within what the
    // autoscaler can reach by growing into the idle CCXs.
    const double base_rps = 600.0;
    const double spike_rps = 5000.0;
    const double diurnal_crest = 3000.0;
    const double chaos_rps = 1600.0;

    loadgen::LoadSchedule spike = autoscale::makeSchedule(
        "spike", base_rps, spike_rps, warmup, measure);
    loadgen::LoadSchedule diurnal = autoscale::makeSchedule(
        "diurnal", base_rps, diurnal_crest, warmup, measure);
    loadgen::LoadSchedule brownout = autoscale::makeSchedule(
        "constant", chaos_rps, chaos_rps, warmup, measure);
    brownout.setName("chaos-brownout");

    core::ExperimentConfig base = benchx::paperConfig();
    base.warmup = warmup;
    base.measure = measure;
    // Initial deployments are the tuned CCX partitioning of a 7-CCX
    // slice (webui 2 / image 2 / one CCX each for the rest); the
    // remaining 9 CCXs are the headroom the autoscaler grows into.
    base.placement = core::PlacementKind::CcxAware;

    autoscale::AutoscalerParams as;
    as.period = fast ? 250 * kMillisecond : 500 * kMillisecond;
    as.warmup.registrationDelay = fast ? 1 * kSecond : 2 * kSecond;
    as.warmup.coldWindow = fast ? 2 * kSecond : 4 * kSecond;
    as.scaleOutCooldown = fast ? 500 * kMillisecond : 1 * kSecond;
    as.scaleInCooldown = fast ? 1 * kSecond : 2 * kSecond;
    as.minReplicas = 1;
    as.maxReplicas = 6;
    // Two replicas per scale-out so the reactive policy climbs out of
    // a flash crowd in a few control periods; the forecast horizon
    // matches the replica warm-up time (registration + half the cold
    // window), i.e. "scale now for the load when capacity arrives".
    as.policyParams.scaleOutStep = 2;
    as.policyParams.horizon =
        as.warmup.registrationDelay + as.warmup.coldWindow / 2;

    const std::vector<loadgen::LoadSchedule *> schedules = {
        &spike, &diurnal, &brownout};
    const std::vector<Arm> arms = {
        {"static", false, autoscale::PolicyKind::Static,
         autoscale::PlacerKind::TopologyAware},
        {"reactive", true, autoscale::PolicyKind::Threshold,
         autoscale::PlacerKind::TopologyAware},
        {"reactive", true, autoscale::PolicyKind::Threshold,
         autoscale::PlacerKind::OsDefault},
        {"predictive", true, autoscale::PolicyKind::Predictive,
         autoscale::PlacerKind::TopologyAware},
        {"predictive", true, autoscale::PolicyKind::Predictive,
         autoscale::PlacerKind::OsDefault},
    };

    benchx::SeriesReporter rep(
        "FIG-13", "fig13_autoscale",
        "SLO-violation seconds, core-seconds and scale-out lag under "
        "time-varying load: static-tuned vs reactive vs predictive "
        "autoscaling, topology-aware vs OS-default placement",
        base);

    std::vector<core::SweepPoint> points;
    for (const loadgen::LoadSchedule *sched : schedules) {
        for (const Arm &arm : arms) {
            autoscale::ElasticConfig ec;
            ec.base = base;
            ec.base.loadSchedule = *sched;
            ec.initialCores = 28; // 7 of rome128's 16 CCXs
            ec.autoscale = arm.autoscale;
            ec.autoscaler = as;
            ec.autoscaler.policy = arm.policy;
            ec.autoscaler.placer = arm.placer;
            if (sched->name() == "chaos-brownout") {
                ec.base.faults = teastore::makeChaosScript(
                    teastore::ChaosScenario::Brownout, warmup, measure);
                ec.base.resilience = teastore::resilientPolicy();
                ec.base.app.degradedFallbacks = true;
            }

            core::SweepPoint p;
            p.label = sched->name() + "/" + armLabel(arm);
            p.config = ec.base;
            p.runner = [ec](const core::ExperimentConfig &) {
                return autoscale::runElastic(ec);
            };
            points.push_back(std::move(p));
        }
    }
    const std::vector<core::SweepOutcome> runs =
        benchx::runSweep(points, rep);

    TextTable t({"schedule", "arm", "offered (req/s)", "tput (req/s)",
                 "p99 (ms)", "SLO viol (s)", "core-s", "steady cpus",
                 "outs", "ins", "lag (ms)", "peak webui", "peak image"});
    std::size_t i = 0;
    for (const loadgen::LoadSchedule *sched : schedules) {
        for (const Arm &arm : arms) {
            const core::RunResult &r = runs[i++].result;
            const core::ElasticSummary &es = r.elastic;
            auto peak = [&es](const char *svc) -> unsigned {
                auto it = es.peakReplicas.find(svc);
                return it == es.peakReplicas.end() ? 0 : it->second;
            };
            t.row()
                .cell(sched->name())
                .cell(armLabel(arm))
                .cell(es.offeredMeanRps, 0)
                .cell(r.throughputRps, 0)
                .cell(r.latency.p99Ms, 1)
                .cell(es.sloViolationSeconds, 2)
                .cell(es.coreSecondsGranted, 0)
                .cell(es.steadyStateCpus, 0)
                .cell(es.scaleOuts)
                .cell(es.scaleIns)
                .cell(es.scaleOutLagMeanMs, 0)
                .cell(peak("webui"))
                .cell(peak("image"));
        }
    }
    rep.table(t, "FIG-13 | Elasticity under time-varying load "
                 "(policy x placement x schedule)");
    rep.finish();

    // Headline claims. (a) On the spike, both autoscaling policies cut
    // SLO-violation seconds below the static baseline while running at
    // a lower steady-state capacity level off-peak (the static
    // deployment holds its full grant around the clock).
    const core::ElasticSummary &st = byLabel(runs, "spike/static").elastic;
    bool ok = true;
    for (const char *label : {"spike/reactive/ccx", "spike/predictive/ccx"}) {
        const core::ElasticSummary &es = byLabel(runs, label).elastic;
        const bool pass = es.sloViolationSeconds < st.sloViolationSeconds &&
                          es.steadyStateCpus < st.steadyStateCpus;
        std::printf("check (a) %-22s viol %6.2fs vs static %6.2fs, "
                    "steady cpus %4.0f vs %4.0f  [%s]\n",
                    label, es.sloViolationSeconds, st.sloViolationSeconds,
                    es.steadyStateCpus, st.steadyStateCpus,
                    pass ? "PASS" : "FAIL");
        ok = ok && pass;
    }
    // (b) Topology-aware placement beats OS-default during scale-out:
    // no worse on throughput AND better tail latency (or vice versa).
    for (const char *pol : {"reactive", "predictive"}) {
        const core::RunResult &ccx =
            byLabel(runs, std::string("spike/") + pol + "/ccx");
        const core::RunResult &os =
            byLabel(runs, std::string("spike/") + pol + "/os");
        const bool pass =
            (ccx.throughputRps >= 0.99 * os.throughputRps &&
             ccx.latency.p99Ms < os.latency.p99Ms) ||
            (ccx.latency.p99Ms <= 1.01 * os.latency.p99Ms &&
             ccx.throughputRps > os.throughputRps);
        std::printf("check (b) spike/%-11s ccx %5.0f req/s p99 %6.1fms "
                    "vs os %5.0f req/s p99 %6.1fms  [%s]\n",
                    pol, ccx.throughputRps, ccx.latency.p99Ms,
                    os.throughputRps, os.latency.p99Ms,
                    pass ? "PASS" : "FAIL");
        ok = ok && pass;
    }
    if (!ok)
        fatal("FIG-13 headline claims not met (see checks above)");
    return 0;
}

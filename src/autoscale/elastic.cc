#include "autoscale/elastic.hh"

#include <memory>

#include "base/logging.hh"
#include "core/world.hh"

namespace microscale::autoscale
{

loadgen::LoadSchedule
makeSchedule(const std::string &name, double baseRps, double peakRps,
             Tick warmup, Tick measure)
{
    if (name == "constant")
        return loadgen::LoadSchedule::constant(baseRps);
    if (name == "spike") {
        return loadgen::LoadSchedule::spike(
            baseRps, peakRps, warmup + measure / 3, measure / 12,
            measure / 6, measure / 24);
    }
    if (name == "diurnal") {
        return loadgen::LoadSchedule::diurnal(
            baseRps, peakRps - baseRps, measure / 2,
            warmup + 2 * measure);
    }
    fatal("unknown load schedule '", name,
          "' (try constant, spike, diurnal)");
}

core::RunResult
runElastic(const ElasticConfig &config, AutoscalerTelemetry *telemetryOut)
{
    if (config.schedule.empty())
        fatal("runElastic needs a non-empty load schedule");
    const core::ExperimentConfig &base = config.base;

    core::World world(base);
    CpuMask initial_budget = world.budget;
    if (config.initialCores != 0)
        initial_budget =
            core::budgetMask(world.machine, config.initialCores, base.smt);
    if (!initial_budget.subsetOf(world.budget))
        fatal("runElastic: initialCores exceeds the CPU budget");
    core::PlacementPlan plan = core::buildPlacement(
        base.placement, world.machine, initial_budget, base.demand,
        base.sizing);

    teastore::AppParams app_params = base.app;
    core::sizeAppFromPlan(app_params, plan);
    teastore::App app(world.mesh, app_params, base.seed);
    core::applyPlacement(app, plan);

    std::unique_ptr<svc::BrownoutController> brownout;
    if (base.overload.brownout.enabled) {
        brownout = std::make_unique<svc::BrownoutController>(
            app.webui(), base.overload.brownout);
        brownout->setAccountingWindow(base.warmup,
                                      base.warmup + base.measure);
        app.setBrownout(brownout.get());
    }

    std::unique_ptr<svc::FaultInjector> injector;
    if (!base.faults.empty()) {
        injector =
            std::make_unique<svc::FaultInjector>(world.mesh, base.faults);
        injector->arm();
    }

    AutoscalerParams as_params = config.autoscaler;
    if (!config.autoscale)
        as_params.policy = PolicyKind::Static;
    Autoscaler autoscaler(app, world.machine, world.budget, plan,
                          as_params);
    autoscaler.setAccountingWindow(base.warmup,
                                   base.warmup + base.measure);
    autoscaler.recordTimeline(config.recordTimeline);

    loadgen::OpenLoopParams lp;
    lp.schedule = config.schedule;
    loadgen::OpenLoopDriver driver(app, base.mix, lp, base.seed);
    loadgen::Measurement &measurement = driver.measurement();
    measurement.setWindow(base.warmup, base.warmup + base.measure);

    world.kernel.start();
    app.start();
    if (brownout)
        brownout->start();
    autoscaler.start();
    driver.start();

    core::RunResult result;
    result.plan = plan;
    world.runWindows(app.services(), result);
    core::harvestLoad(measurement, core::teastoreOpNames(), result);
    result.resilience.active =
        base.resilience.active() || !base.faults.empty() ||
        app_params.degradedFallbacks || base.overload.active();
    core::harvestOverload(base, app, measurement, brownout.get(),
                          result);
    core::harvestTrace(base, world.mesh, teastore::names::kWebui, result);
    core::harvestGrayFail(base, app, world.network, injector.get(),
                          result);

    {
        const AutoscalerTelemetry &t = autoscaler.telemetry();
        core::ElasticSummary &es = result.elastic;
        es.active = true;
        es.schedule = config.schedule.name();
        es.policy = policyName(as_params.policy);
        es.placer = placerName(as_params.placer);
        es.offeredMeanRps = config.schedule.meanRate(
            base.warmup, base.warmup + base.measure);
        es.offeredPeakRps = config.schedule.peakRate();
        es.sloP99Ms = as_params.sloP99Ms;
        es.sloViolationSeconds = t.sloViolationSeconds;
        es.coreSecondsGranted = t.coreSecondsGranted;
        es.steadyStateCpus = t.steadyStateCpus;
        es.scaleOuts = t.scaleOuts;
        es.scaleIns = t.scaleIns;
        if (!t.scaleOutLagMs.empty()) {
            double sum = 0.0;
            for (double v : t.scaleOutLagMs)
                sum += v;
            es.scaleOutLagMeanMs =
                sum / static_cast<double>(t.scaleOutLagMs.size());
        }
        es.peakReplicas = t.peakReplicas;
        if (telemetryOut)
            *telemetryOut = t;
    }

    driver.stopIssuing();
    autoscaler.stop();
    if (brownout) {
        app.setBrownout(nullptr);
        brownout->stop();
    }
    app.stop();
    world.kernel.stop();
    return result;
}

} // namespace microscale::autoscale

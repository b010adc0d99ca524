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

namespace
{

/** The autoscaler attached to one run. */
class ElasticController : public core::Controller
{
  public:
    ElasticController(const ElasticConfig &config,
                      AutoscalerTelemetry *telemetryOut)
        : config_(config), telemetry_out_(telemetryOut)
    {
    }

    bool
    plan(core::World &world, core::PlacementPlan &plan) override
    {
        const core::ExperimentConfig &base = config_.base;
        CpuMask initial_budget = world.budget;
        if (config_.initialCores != 0)
            initial_budget = core::budgetMask(
                world.machine, config_.initialCores, base.smt);
        if (!initial_budget.subsetOf(world.budget))
            fatal("runElastic: initialCores exceeds the CPU budget");
        plan = core::buildPlacement(base.placement, world.machine,
                                    initial_budget, base.demand,
                                    base.sizing);
        plan_ = plan;
        return true;
    }

    void
    build(core::World &world, teastore::App &app) override
    {
        AutoscalerParams params = config_.autoscaler;
        if (!config_.autoscale)
            params.policy = PolicyKind::Static;
        autoscaler_ = std::make_unique<Autoscaler>(
            app, world.machine, world.budget, plan_, params);
        const Tick warmup = config_.base.warmup;
        autoscaler_->setAccountingWindow(warmup,
                                         warmup + config_.base.measure);
        autoscaler_->recordTimeline(config_.recordTimeline);
    }

    void start() override { autoscaler_->start(); }

    void
    harvest(core::RunResult &result) override
    {
        const core::ExperimentConfig &base = config_.base;
        const loadgen::LoadSchedule &schedule = base.loadSchedule;
        const AutoscalerParams &params = autoscaler_->params();
        const AutoscalerTelemetry &t = autoscaler_->telemetry();
        core::ElasticSummary &es = result.elastic;
        es.active = true;
        es.schedule = schedule.name();
        es.policy = policyName(params.policy);
        es.placer = placerName(params.placer);
        es.offeredMeanRps =
            schedule.meanRate(base.warmup, base.warmup + base.measure);
        es.offeredPeakRps = schedule.peakRate();
        es.sloP99Ms = params.sloP99Ms;
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
        if (telemetry_out_)
            *telemetry_out_ = t;
    }

    void stop() override { autoscaler_->stop(); }

  private:
    const ElasticConfig &config_;
    AutoscalerTelemetry *telemetry_out_;
    core::PlacementPlan plan_;
    std::unique_ptr<Autoscaler> autoscaler_;
};

} // namespace

core::RunResult
runElastic(const ElasticConfig &config, AutoscalerTelemetry *telemetryOut,
           const std::vector<core::Controller *> &extra)
{
    if (config.base.loadSchedule.empty())
        fatal("runElastic needs a non-empty load schedule");
    ElasticController elastic(config, telemetryOut);
    std::vector<core::Controller *> controllers{&elastic};
    controllers.insert(controllers.end(), extra.begin(), extra.end());
    return core::runExperiment(config.base, controllers);
}

} // namespace microscale::autoscale

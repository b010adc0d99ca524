#include "core/experiment.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "base/logging.hh"
#include "core/world.hh"

namespace microscale::core
{

namespace
{

/** Fill result.overload from a finished run. */
void
harvestOverload(const ExperimentConfig &config, teastore::App &app,
                const loadgen::Measurement &measurement,
                const svc::BrownoutController *brownout,
                RunResult &result)
{
    OverloadSummary &ov = result.overload;
    ov.active = config.overload.active();
    if (!ov.active)
        return;
    ov.admission = svc::admissionName(config.overload.admission.kind);
    ov.codel = config.overload.codel.enabled;
    ov.adaptiveLifo = config.overload.codel.lifoUnderOverload;
    ov.criticalityAware = config.overload.criticalityAware;
    ov.brownout = config.overload.brownout.enabled;
    using svc::Criticality;
    for (svc::Service *s : app.services()) {
        const svc::OverloadCounters &c = s->overloadCounters();
        ov.shedCritical +=
            c.admissionRejects[svc::criticalityIndex(Criticality::Critical)];
        ov.shedNormal +=
            c.admissionRejects[svc::criticalityIndex(Criticality::Normal)];
        ov.shedSheddable +=
            c.admissionRejects[svc::criticalityIndex(Criticality::Sheddable)];
        ov.codelDrops += c.codelDrops;
        ov.lifoDequeues += c.lifoDequeues;
    }
    ov.rejectedTotal = measurement.statusCount(svc::Status::Rejected);
    const svc::LimiterTrace trace = app.webui().limiterSummary();
    if (trace.valid) {
        ov.limitInitial = trace.initial;
        ov.limitMin = trace.minSeen;
        ov.limitMax = trace.maxSeen;
        ov.limitFinal = trace.last;
    }
    if (brownout) {
        const auto &t = brownout->telemetry();
        ov.brownoutDutyCycle = t.windowSeconds > 0.0
                                   ? t.dutyCycleSeconds / t.windowSeconds
                                   : 0.0;
        ov.dimmerMin = t.dimmerMin;
        ov.dimmerFinal = t.dimmerLast;
        ov.brownoutSkips = t.skips;
    }
}

/** Fill result.grayfail; active with ejection or a gray-fault script. */
void
harvestGrayFail(const ExperimentConfig &config, teastore::App &app,
                const net::Network &network,
                const svc::FaultInjector *injector, RunResult &result)
{
    GrayFailSummary &gf = result.grayfail;
    bool gray_script = false;
    for (const svc::FaultEvent &e : config.faults.events) {
        switch (e.kind) {
        case svc::FaultEvent::Kind::ReplicaSlow:
        case svc::FaultEvent::Kind::PacketLoss:
        case svc::FaultEvent::Kind::PacketDup:
        case svc::FaultEvent::Kind::Partition:
        case svc::FaultEvent::Kind::PartitionHeal:
        case svc::FaultEvent::Kind::CorrelatedDown:
        case svc::FaultEvent::Kind::CorrelatedUp:
        case svc::FaultEvent::Kind::NodeDown:
        case svc::FaultEvent::Kind::NodeUp:
        case svc::FaultEvent::Kind::FabricLoss:
        case svc::FaultEvent::Kind::FabricPartition:
        case svc::FaultEvent::Kind::FabricHeal:
            gray_script = true;
            break;
        default:
            break;
        }
    }
    gf.ejectionEnabled = config.resilience.outlier.enabled;
    gf.active = gf.ejectionEnabled || gray_script;
    if (!gf.active)
        return;
    for (svc::Service *s : app.services()) {
        const svc::ResilienceCounters &c = s->resilienceCounters();
        gf.ejections += c.outlierEjections;
        gf.unejections += c.outlierUnejections;
        gf.ejectionsDenied += c.outlierEjectionsDenied;
        gf.ejectedAtEnd += s->ejectedReplicaCount();
    }
    gf.packetsDropped = network.stats().dropped;
    gf.packetsDuplicated = network.stats().duplicated;
    gf.packetsBlackholed = network.stats().blackholed;
    if (injector) {
        gf.faultsApplied = injector->applied();
        gf.faultsSkipped = injector->skipped();
    }
}

} // namespace

RunResult
runExperiment(const ExperimentConfig &config,
              const std::vector<Controller *> &controllers)
{
    World world(config);
    PlacementPlan plan;
    if (std::none_of(controllers.begin(), controllers.end(),
                     [&](Controller *c) { return c->plan(world, plan); }))
        plan = buildPlacement(config.placement, world.machine, world.budget,
                              config.demand, config.sizing);

    teastore::AppParams app_params = config.app;
    sizeAppFromPlan(app_params, plan);
    teastore::App app(world.mesh, app_params, config.seed);
    applyPlacement(app, plan);

    std::unique_ptr<svc::BrownoutController> brownout;
    if (config.overload.brownout.enabled) {
        brownout = std::make_unique<svc::BrownoutController>(
            app.webui(), config.overload.brownout);
        brownout->setAccountingWindow(config.warmup,
                                      config.warmup + config.measure);
        app.setBrownout(brownout.get());
    }

    for (Controller *c : controllers)
        c->build(world, app);

    std::unique_ptr<svc::FaultInjector> injector;
    if (!config.faults.empty()) {
        injector =
            std::make_unique<svc::FaultInjector>(world.mesh, config.faults);
        injector->arm();
    }

    const loadgen::BrowseMix &mix = config.mix;
    std::unique_ptr<loadgen::ClosedLoopDriver> closed;
    std::unique_ptr<loadgen::OpenLoopDriver> open;
    loadgen::Measurement *measurement = nullptr;
    if (config.openLoopRps > 0.0 || !config.loadSchedule.empty()) {
        loadgen::OpenLoopParams p;
        p.arrivalRps = config.openLoopRps;
        p.schedule = config.loadSchedule;
        p.ledger = config.ledger;
        open = std::make_unique<loadgen::OpenLoopDriver>(app, mix, p,
                                                         config.seed);
        measurement = &open->measurement();
    } else {
        loadgen::ClosedLoopParams lp = config.load;
        lp.ledger = config.ledger;
        closed = std::make_unique<loadgen::ClosedLoopDriver>(
            app, mix, lp, config.seed);
        measurement = &closed->measurement();
    }
    measurement->setWindow(config.warmup, config.warmup + config.measure);

    world.kernel.start();
    app.start();
    if (brownout)
        brownout->start();
    for (Controller *c : controllers)
        c->start();
    if (closed)
        closed->start();
    else
        open->start();

    RunResult result;
    result.plan = plan;
    world.runWindows(app.services(), result);
    std::vector<std::string> op_names;
    for (teastore::OpType op : teastore::allOps())
        op_names.push_back(teastore::opName(op));
    harvestLoad(*measurement, op_names, result);
    result.resilience.active =
        config.resilience.active() || !config.faults.empty() ||
        app_params.degradedFallbacks || config.overload.active();
    harvestOverload(config, app, *measurement, brownout.get(), result);
    harvestTrace(config, world.mesh, teastore::names::kWebui, result);
    harvestGrayFail(config, app, world.network, injector.get(), result);
    for (Controller *c : controllers)
        c->harvest(result);

    // Orderly teardown: stop sources before the world is destroyed.
    if (closed)
        closed->stopIssuing();
    else
        open->stopIssuing();
    // Optional quiesce: let in-flight work finish (complete or time
    // out). Every periodic timer in the system is a background event,
    // so run() terminates once the last foreground request settles.
    // Harvesting already happened — results are unaffected; this exists
    // for end-of-run invariant checks.
    if (config.drainAtEnd) {
        world.sim.run();
        for (Controller *c : controllers)
            c->drained(world, app, result);
    }
    for (Controller *c : controllers)
        c->stop();
    if (brownout) {
        app.setBrownout(nullptr);
        brownout->stop();
    }
    app.stop();
    world.kernel.stop();
    return result;
}

void
harvestTrace(const ExperimentConfig &config, const svc::Mesh &mesh,
             const std::string &root, RunResult &result)
{
    TraceSummary &tr = result.trace;
    const std::shared_ptr<trace::TraceStore> &store = mesh.traceStore();
    tr.active = static_cast<bool>(store);
    if (!tr.active)
        return;
    tr.sampleRate = config.trace.sampleRate;
    tr.rootsSeen = store->rootsSeen();
    tr.tracesSampled = store->traces().size();
    tr.spanCount = store->spanCount();
    tr.attribution = trace::attributeTraces(
        *store, root, config.warmup, config.warmup + config.measure);
    tr.tracesAnalyzed = tr.attribution.traces;
    tr.meanE2eMs = tr.tracesAnalyzed
                       ? tr.attribution.e2eNs /
                             (static_cast<double>(tr.tracesAnalyzed) *
                              static_cast<double>(kMillisecond))
                       : 0.0;
    tr.store = store;
}

DemandShares
measureDemand(ExperimentConfig config)
{
    config.placement = PlacementKind::OsDefault;
    config.warmup = 300 * kMillisecond;
    config.measure = 700 * kMillisecond;
    return demandFromRun(runExperiment(config));
}

DemandShares
demandFromRun(const RunResult &result)
{
    DemandShares d;
    d.webui =
        result.servicePerf.at(teastore::names::kWebui).utilizationCpus;
    d.auth =
        result.servicePerf.at(teastore::names::kAuth).utilizationCpus;
    d.persistence = result.servicePerf.at(teastore::names::kPersistence)
                        .utilizationCpus;
    d.recommender = result.servicePerf.at(teastore::names::kRecommender)
                        .utilizationCpus;
    d.image =
        result.servicePerf.at(teastore::names::kImage).utilizationCpus;
    d.normalize();
    return d;
}

RunResult
runRefined(const ExperimentConfig &config, unsigned rounds,
           RefineTrace *trace)
{
    // One working copy for all rounds; only the demand shares change
    // between runs.
    ExperimentConfig work = config;
    if (trace) {
        trace->perRound.clear();
        trace->perRound.push_back(work.demand);
    }
    RunResult result = runExperiment(work);
    for (unsigned i = 0; i < rounds; ++i) {
        work.demand = demandFromRun(result);
        if (trace)
            trace->perRound.push_back(work.demand);
        result = runExperiment(work);
    }
    if (trace)
        trace->final = demandFromRun(result);
    return result;
}

std::string
summarize(const RunResult &r)
{
    std::ostringstream os;
    os << "tput=" << formatDouble(r.throughputRps, 0) << " req/s"
       << "  p50=" << formatDouble(r.latency.p50Ms, 2) << "ms"
       << "  p95=" << formatDouble(r.latency.p95Ms, 2) << "ms"
       << "  p99=" << formatDouble(r.latency.p99Ms, 2) << "ms"
       << "  util=" << formatDouble(r.cpuUtilization * 100.0, 1) << "%"
       << "  freq=" << formatDouble(r.avgFreqGhz, 2) << "GHz";
    return os.str();
}

} // namespace microscale::core

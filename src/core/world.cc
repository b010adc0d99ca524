#include "core/world.hh"

#include <map>

namespace microscale::core
{

namespace
{

OpLatency
summarizeHistogram(const QuantileHistogram &h)
{
    OpLatency l;
    l.count = h.count();
    l.meanMs = h.mean() / static_cast<double>(kMillisecond);
    l.p50Ms = h.p50() / static_cast<double>(kMillisecond);
    l.p95Ms = h.p95() / static_cast<double>(kMillisecond);
    l.p99Ms = h.p99() / static_cast<double>(kMillisecond);
    return l;
}

os::SchedStats
schedDelta(const os::SchedStats &end, const os::SchedStats &start)
{
    os::SchedStats d;
    d.wakeups = end.wakeups - start.wakeups;
    d.contextSwitches = end.contextSwitches - start.contextSwitches;
    d.preemptions = end.preemptions - start.preemptions;
    d.migrations = end.migrations - start.migrations;
    d.ccxMigrations = end.ccxMigrations - start.ccxMigrations;
    d.balancePulls = end.balancePulls - start.balancePulls;
    d.newIdlePulls = end.newIdlePulls - start.newIdlePulls;
    return d;
}

} // namespace

World::World(const ExperimentConfig &config)
    : machine(config.machine),
      engine(sim, machine),
      kernel(sim, machine, engine, config.sched, config.seed),
      network(sim, config.net, config.seed),
      mesh(kernel, network, config.rpc, config.seed),
      budget(budgetMask(machine, config.cores, config.smt)),
      warmup_(config.warmup),
      measure_(config.measure)
{
    mesh.setResilience(config.resilience);
    mesh.setOverload(config.overload);
    mesh.setTrace(config.trace);
}

void
World::runWindows(const std::vector<svc::Service *> &services,
                  RunResult &result)
{
    // Warmup, then snapshot everything.
    sim.runUntil(warmup_);
    engine.bankAll();
    std::map<std::string, cpu::PerfCounters> at_warmup;
    for (svc::Service *s : services)
        at_warmup[s->name()] = s->aggregateCounters();
    const os::SchedStats sched_at_warmup = kernel.stats();
    const std::vector<double> busy_at_warmup = engine.cpuBusySnapshot();
    // Per-op histograms restart at the window so breakdowns are clean.
    for (svc::Service *s : services)
        s->resetStats();

    // Measurement window.
    sim.runUntil(warmup_ + measure_);
    engine.bankAll();

    result.budgetCpus = budget.count();
    result.eventsProcessed = sim.eventsProcessed();

    cpu::PerfCounters total;
    for (svc::Service *s : services) {
        const cpu::PerfCounters delta =
            s->aggregateCounters().delta(at_warmup[s->name()]);
        result.servicePerf[s->name()] =
            perf::makeRow(s->name(), delta, measure_);
        total.merge(delta);
    }
    result.total = perf::makeRow("total", total, measure_);
    result.sched = schedDelta(kernel.stats(), sched_at_warmup);
    result.avgFreqGhz = total.ghz();

    constexpr double kMs = static_cast<double>(kMillisecond);
    for (svc::Service *s : services) {
        for (const auto &[op, stats] : s->opStats()) {
            OpBreakdown b;
            b.count = stats.requests;
            b.serviceTimeMeanMs = stats.serviceTimeNs.mean() / kMs;
            b.queueWaitMeanMs = stats.queueWaitNs.mean() / kMs;
            b.computeMeanMs = stats.computeNs.mean() / kMs;
            b.stallMeanMs = stats.stallNs.mean() / kMs;
            b.serviceTimeP99Ms = stats.serviceTimeNs.p99() / kMs;
            b.okCount = stats.statusCounts[svc::statusIndex(svc::Status::Ok)];
            b.timeoutCount =
                stats.statusCounts[svc::statusIndex(svc::Status::Timeout)];
            b.overloadCount =
                stats.statusCounts[svc::statusIndex(svc::Status::Overload)];
            b.unavailableCount = stats.statusCounts[svc::statusIndex(
                svc::Status::Unavailable)];
            result.breakdown[s->name()][op] = b;
        }
    }

    ResilienceSummary &rs = result.resilience;
    rs.retries = mesh.retryStats().retries;
    rs.retriesDenied = mesh.retryStats().budgetDenied;
    rs.clientTimeouts = mesh.retryStats().clientTimeouts;
    for (svc::Service *s : services) {
        const svc::ResilienceCounters &c = s->resilienceCounters();
        rs.shed += c.shed;
        rs.deadlineDrops += c.deadlineDrops;
        rs.breakerOpens += c.breakerOpens;
    }

    const std::vector<double> busy_at_end = engine.cpuBusySnapshot();
    double busy = 0.0;
    for (CpuId c : budget)
        busy += busy_at_end[c] - busy_at_warmup[c];
    result.cpuUtilization =
        busy / (static_cast<double>(budget.count()) *
                static_cast<double>(measure_));
}

void
harvestLoad(const loadgen::Measurement &measurement,
            const std::vector<std::string> &opNames, RunResult &result)
{
    result.throughputRps = measurement.throughputRps();
    result.latency = summarizeHistogram(measurement.latencyNs());
    for (unsigned op = 0; op < opNames.size(); ++op) {
        result.perOp[opNames[op]] =
            summarizeHistogram(measurement.latencyNsFor(op));
    }

    ResilienceSummary &rs = result.resilience;
    rs.goodputRps = measurement.goodputRps();
    const std::uint64_t completed = measurement.completed();
    rs.okCount = measurement.statusCount(svc::Status::Ok);
    rs.timeoutCount = measurement.statusCount(svc::Status::Timeout);
    rs.overloadCount = measurement.statusCount(svc::Status::Overload);
    rs.unavailableCount = measurement.statusCount(svc::Status::Unavailable);
    rs.rejectedCount = measurement.statusCount(svc::Status::Rejected);
    rs.degradedCount = measurement.degradedCount();
    rs.errorRate =
        completed > 0 ? static_cast<double>(measurement.errorCount()) /
                            static_cast<double>(completed)
                      : 0.0;
    rs.degradedShare = rs.okCount > 0
                           ? static_cast<double>(rs.degradedCount) /
                                 static_cast<double>(rs.okCount)
                           : 0.0;
}

} // namespace microscale::core

/**
 * @file
 * utilization_timeline: attach a TimeSeriesSampler to a live run and
 * emit a CSV timeline (busy CPUs, frequency, queue depths, completed
 * requests per interval) - the raw material for warmup/stability
 * plots. Demonstrates composing the library's layers manually instead
 * of going through core::runExperiment. A second section rides the
 * autoscaler through a flash-crowd spike and emits the control loop's
 * own timeline: per-service replica counts, queue depths and
 * utilization per control interval.
 */

#include <iostream>

#include "autoscale/elastic.hh"
#include "base/table.hh"
#include "core/placement.hh"
#include "loadgen/driver.hh"
#include "perf/sampler.hh"
#include "topo/presets.hh"

using namespace microscale;

int
main()
{
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    cpu::ExecEngine engine(sim, machine);
    os::Kernel kernel(sim, machine, engine, os::SchedParams{}, 42);
    net::Network network(sim, net::NetParams{}, 42);
    svc::Mesh mesh(kernel, network, svc::RpcCostParams{}, 42);

    // Tuned baseline sizing, OS-default placement.
    core::BaselineSizing sizing;
    core::PlacementPlan plan = core::buildPlacement(
        core::PlacementKind::OsDefault, machine,
        core::budgetMask(machine, 0, true), core::DemandShares{},
        sizing);
    teastore::AppParams app_params;
    core::sizeAppFromPlan(app_params, plan);
    teastore::App app(mesh, app_params, 42);
    core::applyPlacement(app, plan);

    loadgen::ClosedLoopParams load;
    load.users = 3000;
    loadgen::ClosedLoopDriver driver(app, loadgen::BrowseMix{}, load,
                                     42);
    driver.measurement().setWindow(0, 3 * kSecond);

    perf::TimeSeriesSampler sampler(sim, engine, kernel, mesh,
                                    50 * kMillisecond);

    kernel.start();
    app.start();
    driver.start();
    sampler.start();

    sim.runUntil(3 * kSecond);
    sampler.stop();
    driver.stopIssuing();

    std::cerr << "sampled " << sampler.samples().size()
              << " points; mean busy CPUs = "
              << formatDouble(sampler.meanBusyCpus(), 1) << "\n";
    sampler.printCsv(std::cout);

    // Part 2: the autoscaler's own timeline. Ride a flash-crowd spike
    // with the threshold policy and emit per-service replica counts,
    // queue depths and utilization per control interval - the raw
    // material for elasticity plots (FIG-13 companions).
    autoscale::ElasticConfig ec;
    ec.base.machine = topo::rome128();
    ec.base.placement = core::PlacementKind::CcxAware;
    ec.base.warmup = 1 * kSecond;
    ec.base.measure = 11 * kSecond;
    ec.base.loadSchedule = autoscale::makeSchedule(
        "spike", 600.0, 3000.0, ec.base.warmup, ec.base.measure);
    ec.initialCores = 28; // 7 of rome128's 16 CCXs
    ec.autoscaler.period = 250 * kMillisecond;
    ec.autoscaler.warmup.registrationDelay = 500 * kMillisecond;
    ec.autoscaler.warmup.coldWindow = 1 * kSecond;
    ec.autoscaler.scaleOutCooldown = 500 * kMillisecond;
    ec.autoscaler.scaleInCooldown = 1 * kSecond;
    ec.autoscaler.maxReplicas = 6;
    ec.recordTimeline = true;

    autoscale::AutoscalerTelemetry telemetry;
    autoscale::runElastic(ec, &telemetry);

    std::cerr << "\nautoscaler timeline: " << telemetry.timeline.size()
              << " control intervals, " << telemetry.scaleOuts
              << " scale-outs, " << telemetry.scaleIns
              << " scale-ins\n";
    if (telemetry.timeline.empty())
        return 0;

    std::cout << "\ntime_s";
    for (const autoscale::ServiceSample &s : telemetry.timeline.front())
        std::cout << "," << s.service << "_replicas," << s.service
                  << "_queue," << s.service << "_util";
    std::cout << "\n";
    for (const auto &interval : telemetry.timeline) {
        std::cout << formatDouble(ticksToSeconds(interval.front().at), 2);
        for (const autoscale::ServiceSample &s : interval) {
            std::cout << "," << (s.activeReplicas + s.warmingReplicas)
                      << "," << s.queueDepth << ","
                      << formatDouble(s.utilization, 3);
        }
        std::cout << "\n";
    }
    return 0;
}

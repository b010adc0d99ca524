/**
 * @file
 * World: the simulated stack every runner measures, the warm-up and
 * measurement window protocol, and the harvest shared by all runners.
 *
 * A run measures one world - machine, OS, network and service mesh
 * under an app and a load - warmed up, then observed over a window.
 * World builds that stack from one ExperimentConfig. The runners
 * (core::runExperiment with its controllers, socialnet::runSocialnet)
 * put their app, drivers and controllers on top, call runWindows(),
 * then fill only the RunResult blocks that are theirs.
 */

#ifndef MICROSCALE_CORE_WORLD_HH
#define MICROSCALE_CORE_WORLD_HH

#include <string>
#include <vector>

#include "base/cpumask.hh"
#include "core/experiment.hh"
#include "cpu/exec.hh"
#include "loadgen/driver.hh"
#include "net/network.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "svc/mesh.hh"
#include "topo/machine.hh"

namespace microscale::core
{

/** The simulated stack of one run, built from one config. */
class World
{
  public:
    /**
     * Build the stack in dependency order, seeded from config.seed, and
     * apply the config's resilience, overload and trace policies to the
     * mesh. Only the config's windows are kept.
     */
    explicit World(const ExperimentConfig &config);

    World(const World &) = delete;
    World &operator=(const World &) = delete;

    /**
     * The window protocol over `services`: run to the end of warm-up,
     * bank CPU time, snapshot counters, scheduler stats and busy time,
     * restart the services' per-op stats, run to the end of the window
     * and bank again. Then fill every result field that does not depend
     * on the load driver: eventsProcessed, budgetCpus, servicePerf,
     * total, sched, avgFreqGhz, breakdown, cpuUtilization, and the
     * resilience summary's mesh and service counters.
     */
    void runWindows(const std::vector<svc::Service *> &services,
                    RunResult &result);

    sim::Simulation sim;
    topo::Machine machine;
    cpu::ExecEngine engine;
    os::Kernel kernel;
    net::Network network;
    svc::Mesh mesh;
    /** The config's CPU budget: budgetMask(machine, cores, smt). */
    const CpuMask budget;

  private:
    const Tick warmup_;
    const Tick measure_;
};

/**
 * Fill throughputRps, latency, perOp and the resilience summary's
 * status, goodput, error and degraded fields from a finished window.
 * opNames[i] names the measurement's op index i.
 */
void harvestLoad(const loadgen::Measurement &measurement,
                 const std::vector<std::string> &opNames,
                 RunResult &result);

} // namespace microscale::core

#endif // MICROSCALE_CORE_WORLD_HH

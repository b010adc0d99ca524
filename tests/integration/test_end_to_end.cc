/**
 * @file
 * End-to-end integration tests, including the headline regression:
 * on the paper's 128-logical-CPU machine, CCX-aware placement must
 * beat the tuned OS-default baseline on both throughput and p99.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace microscale::core
{
namespace
{

/** The paper's machine at a saturating operating point (short run). */
ExperimentConfig
paperConfig()
{
    ExperimentConfig c;
    c.machine = topo::rome128();
    c.load.users = 3000;
    c.warmup = 500 * kMillisecond;
    c.measure = 800 * kMillisecond;
    // Calibrated demand shares (measureDemand + runRefined on this
    // workload; pinned-regime values).
    c.demand.webui = 0.45;
    c.demand.auth = 0.03;
    c.demand.persistence = 0.065;
    c.demand.recommender = 0.045;
    c.demand.image = 0.41;
    return c;
}

TEST(EndToEnd, BaselineSaturatesTheMachine)
{
    ExperimentConfig c = paperConfig();
    c.placement = PlacementKind::OsDefault;
    const RunResult r = runExperiment(c);
    EXPECT_GT(r.cpuUtilization, 0.9);
    EXPECT_GT(r.throughputRps, 1000.0);
    // At full load the socket runs at the all-core frequency.
    EXPECT_NEAR(r.avgFreqGhz, c.machine.freq.allCoreGhz, 0.15);
    // The default scheduler migrates heavily.
    EXPECT_GT(r.sched.migrations, 1000u);
}

TEST(EndToEnd, HeadlineCcxAwareBeatsBaseline)
{
    ExperimentConfig c = paperConfig();
    c.placement = PlacementKind::OsDefault;
    const RunResult base = runExperiment(c);
    c.placement = PlacementKind::CcxAware;
    const RunResult ccx = runExperiment(c);

    const double tput_gain =
        ccx.throughputRps / base.throughputRps - 1.0;
    const double p99_delta = ccx.latency.p99Ms / base.latency.p99Ms - 1.0;

    // Paper: +22% throughput, -18% latency. Require the shape: a
    // double-digit throughput win and a clear latency cut.
    EXPECT_GT(tput_gain, 0.10) << "tput gain " << tput_gain;
    EXPECT_LT(tput_gain, 0.45) << "tput gain " << tput_gain;
    EXPECT_LT(p99_delta, -0.10) << "p99 delta " << p99_delta;

    // Mechanisms: no cross-CCX migrations, far better cache behaviour.
    EXPECT_EQ(ccx.sched.ccxMigrations, 0u);
    EXPECT_LT(ccx.total.l3MissRatio, base.total.l3MissRatio * 0.5);
    EXPECT_GT(ccx.total.ipc, base.total.ipc * 1.1);
}

TEST(EndToEnd, MicroservicesLookLikeThePaperSays)
{
    ExperimentConfig c = paperConfig();
    c.placement = PlacementKind::OsDefault;
    const RunResult r = runExperiment(c);
    // Low IPC, high context-switch rate, large kernel share - the
    // contrast with conventional CPU-design workloads.
    EXPECT_LT(r.total.ipc, 0.8);
    EXPECT_GT(r.total.csPerSec, 10000.0);
    EXPECT_GT(r.total.kernelShare, 0.15);
    EXPECT_GT(r.total.icacheMpki, 5.0);
    // Every service saw traffic.
    for (const auto &[name, row] : r.servicePerf) {
        if (name != teastore::names::kRegistry) {
            EXPECT_GT(row.utilizationCpus, 0.0) << name;
        }
    }
}

TEST(EndToEnd, ClosedLoopLittleLawHolds)
{
    // Little's law sanity: users = tput * (latency + think).
    ExperimentConfig c = paperConfig();
    c.load.users = 1000; // below saturation
    c.placement = PlacementKind::OsDefault;
    const RunResult r = runExperiment(c);
    const double think_s = ticksToSeconds(c.load.meanThink);
    const double lat_s = r.latency.meanMs / 1e3;
    const double users_est = r.throughputRps * (lat_s + think_s);
    EXPECT_NEAR(users_est, 1000.0, 150.0);
}

} // namespace
} // namespace microscale::core

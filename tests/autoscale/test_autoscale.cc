/**
 * @file
 * Tests for the autoscale subsystem: name lookups, the three scaling
 * policy families, the replica placer's capacity accounting, the
 * canonical schedule factory, and an end-to-end runElastic smoke run
 * including determinism across repeated and parallel sweeps.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "autoscale/elastic.hh"
#include "autoscale/placer.hh"
#include "autoscale/policy.hh"
#include "core/json.hh"
#include "core/sweep.hh"
#include "teastore/chaos.hh"
#include "topo/presets.hh"

namespace microscale::autoscale
{
namespace
{

TEST(Names, PolicyRoundTrip)
{
    for (PolicyKind k : {PolicyKind::Static, PolicyKind::Threshold,
                         PolicyKind::QueueLaw, PolicyKind::Predictive})
        EXPECT_EQ(policyByName(policyName(k)), k);
    EXPECT_DEATH(policyByName("bogus"), "unknown scaling policy");
}

TEST(Names, PlacerRoundTrip)
{
    for (PlacerKind k : {PlacerKind::TopologyAware, PlacerKind::OsDefault})
        EXPECT_EQ(placerByName(placerName(k)), k);
    EXPECT_DEATH(placerByName("bogus"), "unknown placer");
}

ServiceSample
sampleAt(double utilization, unsigned active = 2, unsigned workers = 8,
         std::uint64_t queue = 0)
{
    ServiceSample s;
    s.service = "webui";
    s.intervalSec = 0.5;
    s.activeReplicas = active;
    s.workersPerReplica = workers;
    s.utilization = utilization;
    s.queueDepth = queue;
    return s;
}

TEST(ThresholdPolicy, HysteresisBands)
{
    PolicyParams p;
    auto policy = makePolicy(PolicyKind::Threshold, p);
    // Above the high-water mark: out by scaleOutStep.
    EXPECT_EQ(policy->desiredReplicas(sampleAt(0.9), 2), 3u);
    // In the dead band: hold.
    EXPECT_EQ(policy->desiredReplicas(sampleAt(0.5), 2), 2u);
    // Below the low-water mark with an empty queue: in by one.
    EXPECT_EQ(policy->desiredReplicas(sampleAt(0.1), 2), 1u);
    // Below the low-water mark but a queue remains: hold.
    EXPECT_EQ(policy->desiredReplicas(sampleAt(0.1, 2, 8, 5), 2), 2u);
}

TEST(ThresholdPolicy, DeepBacklogForcesScaleOutEvenAtLowUtil)
{
    PolicyParams p;
    auto policy = makePolicy(PolicyKind::Threshold, p);
    // queueDepth > active x workers means saturation regardless of
    // the instantaneous busy share.
    EXPECT_EQ(policy->desiredReplicas(sampleAt(0.4, 2, 8, 17), 2), 3u);
}

TEST(ThresholdPolicy, ScaleOutStepIsConfigurable)
{
    PolicyParams p;
    p.scaleOutStep = 3;
    auto policy = makePolicy(PolicyKind::Threshold, p);
    EXPECT_EQ(policy->desiredReplicas(sampleAt(0.9), 2), 5u);
}

TEST(StaticPolicy, NeverMoves)
{
    auto policy = makePolicy(PolicyKind::Static, PolicyParams{});
    EXPECT_EQ(policy->desiredReplicas(sampleAt(0.99, 1, 8, 100), 1), 1u);
    EXPECT_EQ(policy->desiredReplicas(sampleAt(0.0), 4), 4u);
}

TEST(QueueLawPolicy, SizesFromLittlesLaw)
{
    PolicyParams p;
    p.targetUtil = 0.5;
    auto policy = makePolicy(PolicyKind::QueueLaw, p);
    ServiceSample s = sampleAt(0.5, 2, 8);
    s.completionsPerSec = 380.0;
    s.failuresPerSec = 20.0;
    s.meanServiceMs = 20.0;
    // 400 req/s x 0.02 s = 8 busy workers; / (8 workers x 0.5 target)
    // = 2 replicas.
    EXPECT_EQ(policy->desiredReplicas(s, 1), 2u);
    // Double the demand: 4 replicas.
    s.completionsPerSec = 780.0;
    EXPECT_EQ(policy->desiredReplicas(s, 1), 4u);
    // No signal: hold.
    ServiceSample idle = sampleAt(0.0);
    EXPECT_EQ(policy->desiredReplicas(idle, 3), 3u);
}

TEST(PredictivePolicy, ScalesOnForecastBeforeThresholdIsHit)
{
    PolicyParams p;
    p.horizon = 4 * kSecond; // 8 control intervals of 0.5 s
    auto policy = makePolicy(PolicyKind::Predictive, p);
    // Feed a steady upward ramp that never crosses utilHigh itself;
    // the Holt forecast 8 steps ahead must cross it first.
    unsigned target = 2;
    bool scaled_out = false;
    double util = 0.30;
    for (int i = 0; i < 12 && !scaled_out; ++i, util += 0.04) {
        const unsigned desired =
            policy->desiredReplicas(sampleAt(util), target);
        if (desired > target)
            scaled_out = true;
    }
    EXPECT_TRUE(scaled_out);
    EXPECT_LT(util, 0.75); // fired before the reactive rule would
}

TEST(PredictivePolicy, FlatSignalHoldsSteady)
{
    PolicyParams p;
    auto policy = makePolicy(PolicyKind::Predictive, p);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(policy->desiredReplicas(sampleAt(0.5), 2), 2u);
}

class PlacerTest : public ::testing::Test
{
  protected:
    PlacerTest() : machine_(topo::rome128()) {}

    CpuMask
    budget(unsigned cores) const
    {
        return core::budgetMask(machine_, cores, /*smt=*/true);
    }

    topo::Machine machine_;
};

TEST_F(PlacerTest, TopologyAwareGrantsPinToLeastLoadedCcx)
{
    ReplicaPlacer placer(machine_, budget(16), PlacerKind::TopologyAware);
    ASSERT_EQ(placer.groupCount(), 4u); // 16 cores = 4 CCXs with SMT
    const PlacerGrant a = placer.grant();
    const PlacerGrant b = placer.grant();
    EXPECT_EQ(a.mask.count(), placer.quantumCpus());
    EXPECT_NE(a.home, kInvalidNode);
    // Different CCXs while idle groups remain.
    EXPECT_FALSE(a.mask.intersects(b.mask));
    EXPECT_DOUBLE_EQ(placer.grantedCpus(), a.cpus + b.cpus);
    EXPECT_EQ(placer.outstanding(), 2u);
}

TEST_F(PlacerTest, OsDefaultGrantsRoamTheOwnedMaskAtTheSameBill)
{
    ReplicaPlacer topo_placer(machine_, budget(16),
                              PlacerKind::TopologyAware);
    ReplicaPlacer os_placer(machine_, budget(16), PlacerKind::OsDefault);
    const PlacerGrant t = topo_placer.grant();
    const PlacerGrant o = os_placer.grant();
    // Identical capacity bill, different affinity: the OS-default
    // replica roams everything the app owns.
    EXPECT_DOUBLE_EQ(o.cpus, t.cpus);
    EXPECT_EQ(o.home, kInvalidNode);
    EXPECT_EQ(o.mask, os_placer.ownedMask());
    // A second grant reserves a second group; the owned mask grows.
    const CpuMask owned_before = os_placer.ownedMask();
    os_placer.grant();
    EXPECT_GT(os_placer.ownedMask().count(), owned_before.count());
}

TEST_F(PlacerTest, ReleaseReturnsCapacityAndReusesTheGroup)
{
    ReplicaPlacer placer(machine_, budget(16), PlacerKind::TopologyAware);
    const PlacerGrant a = placer.grant();
    const double after_one = placer.grantedCpus();
    placer.release(a.id);
    EXPECT_DOUBLE_EQ(placer.grantedCpus(), 0.0);
    EXPECT_EQ(placer.outstanding(), 0u);
    // The freed group is the least-loaded again.
    const PlacerGrant b = placer.grant();
    EXPECT_EQ(b.mask, a.mask);
    EXPECT_DOUBLE_EQ(placer.grantedCpus(), after_one);
}

TEST_F(PlacerTest, AdoptChargesExistingReplicas)
{
    ReplicaPlacer placer(machine_, budget(16), PlacerKind::TopologyAware);
    const PlacerGrant probe = placer.grant();
    placer.release(probe.id);
    // Adopting a single-CCX mask loads that group: the next grant
    // avoids it.
    const unsigned id = placer.adopt(probe.mask, probe.home);
    EXPECT_DOUBLE_EQ(placer.grantedCpus(), probe.cpus);
    const PlacerGrant next = placer.grant();
    EXPECT_FALSE(next.mask.intersects(probe.mask));
    placer.release(id);
}

TEST(MakeSchedule, CanonicalShapes)
{
    const Tick warmup = 2 * kSecond;
    const Tick measure = 24 * kSecond;
    const loadgen::LoadSchedule c =
        makeSchedule("constant", 600.0, 600.0, warmup, measure);
    EXPECT_EQ(c.name(), "constant");
    EXPECT_DOUBLE_EQ(c.rateAt(10 * kSecond), 600.0);

    const loadgen::LoadSchedule s =
        makeSchedule("spike", 600.0, 5000.0, warmup, measure);
    EXPECT_EQ(s.name(), "spike");
    EXPECT_DOUBLE_EQ(s.peakRate(), 5000.0);
    EXPECT_DOUBLE_EQ(s.rateAt(warmup), 600.0);
    // Plateau: spikeAt + rampUp landed, hold still running.
    EXPECT_DOUBLE_EQ(s.rateAt(warmup + measure / 3 + measure / 12 +
                              measure / 12),
                     5000.0);

    const loadgen::LoadSchedule d =
        makeSchedule("diurnal", 600.0, 3000.0, warmup, measure);
    EXPECT_EQ(d.name(), "diurnal");
    EXPECT_NEAR(d.peakRate(), 3000.0, 30.0);

    EXPECT_DEATH(makeSchedule("bogus", 1.0, 1.0, warmup, measure),
                 "unknown load schedule");
}

/** A small elastic config that runs in well under a second. */
ElasticConfig
smokeConfig()
{
    ElasticConfig ec;
    ec.base.machine = topo::rome128();
    ec.base.cores = 16;
    ec.base.placement = core::PlacementKind::CcxAware;
    ec.base.warmup = 300 * kMillisecond;
    ec.base.measure = 1200 * kMillisecond;
    ec.base.loadSchedule = makeSchedule("spike", 200.0, 1200.0,
                                        ec.base.warmup, ec.base.measure);
    ec.initialCores = 8;
    ec.autoscaler.period = 100 * kMillisecond;
    ec.autoscaler.warmup.registrationDelay = 100 * kMillisecond;
    ec.autoscaler.warmup.coldWindow = 200 * kMillisecond;
    ec.autoscaler.scaleOutCooldown = 100 * kMillisecond;
    ec.autoscaler.scaleInCooldown = 200 * kMillisecond;
    ec.autoscaler.maxReplicas = 3;
    return ec;
}

std::string
runToJson(const ElasticConfig &ec)
{
    std::ostringstream os;
    core::writeJson(os, runElastic(ec));
    return os.str();
}

TEST(RunElastic, FillsTheElasticSummary)
{
    AutoscalerTelemetry telemetry;
    const ElasticConfig ec = smokeConfig();
    const core::RunResult r = runElastic(ec, &telemetry);
    EXPECT_TRUE(r.elastic.active);
    EXPECT_EQ(r.elastic.schedule, "spike");
    EXPECT_EQ(r.elastic.policy, "threshold");
    EXPECT_EQ(r.elastic.placer, "topology-aware");
    EXPECT_GT(r.throughputRps, 0.0);
    EXPECT_GT(r.elastic.offeredPeakRps, r.elastic.offeredMeanRps);
    EXPECT_GT(r.elastic.coreSecondsGranted, 0.0);
    EXPECT_GT(r.elastic.steadyStateCpus, 0.0);
    EXPECT_FALSE(r.elastic.peakReplicas.empty());
    // Telemetry timeline only on request.
    EXPECT_TRUE(telemetry.timeline.empty());
}

TEST(RunElastic, TimelineRecordsEveryControlInterval)
{
    AutoscalerTelemetry telemetry;
    ElasticConfig ec = smokeConfig();
    ec.recordTimeline = true;
    runElastic(ec, &telemetry);
    ASSERT_FALSE(telemetry.timeline.empty());
    // One sample per scaled service per interval, in canonical order.
    for (const auto &interval : telemetry.timeline) {
        ASSERT_EQ(interval.size(), 5u);
        EXPECT_EQ(interval.front().service, "webui");
        EXPECT_EQ(interval.back().service, "image");
    }
}

TEST(RunElastic, HarvestsGrayFailures)
{
    // msim --schedule spike --faults gray-persistence --eject: the
    // injector is armed, so the grayfail block must report it.
    ElasticConfig ec = smokeConfig();
    ec.base.faults = teastore::makeGrayScript(
        teastore::GrayScenario::SlowPersistence, ec.base.warmup,
        ec.base.measure);
    ec.base.resilience = teastore::ejectionPolicy();
    const core::RunResult r = runElastic(ec);
    ASSERT_TRUE(r.grayfail.active);
    EXPECT_TRUE(r.grayfail.ejectionEnabled);
    EXPECT_GT(r.grayfail.faultsApplied, 0u);
}

TEST(RunElastic, DeterministicAcrossRepeatedRuns)
{
    EXPECT_EQ(runToJson(smokeConfig()), runToJson(smokeConfig()));
}

TEST(RunElastic, DeterministicAcrossSweepJobCounts)
{
    // The FIG-13 pattern: elastic points run through the parallel
    // SweepRunner via a custom runner hook. Serial and parallel sweeps
    // must produce byte-identical results in submission order.
    auto build = []() {
        std::vector<core::SweepPoint> points;
        for (const char *policy : {"threshold", "predictive"}) {
            ElasticConfig ec = smokeConfig();
            ec.autoscaler.policy = policyByName(policy);
            core::SweepPoint p;
            p.label = policy;
            p.config = ec.base;
            p.runner = [ec](const core::ExperimentConfig &) {
                return runElastic(ec);
            };
            points.push_back(std::move(p));
        }
        return points;
    };
    auto sweep = [&](unsigned jobs) {
        core::SweepOptions so;
        so.jobs = jobs;
        so.progress = false;
        std::string out;
        for (const core::SweepOutcome &o :
             core::SweepRunner(so).run(build())) {
            EXPECT_TRUE(o.ok) << o.error;
            std::ostringstream os;
            core::writeJson(os, o.result);
            out += o.label + "\n" + os.str();
        }
        return out;
    };
    EXPECT_EQ(sweep(1), sweep(2));
}

} // namespace
} // namespace microscale::autoscale

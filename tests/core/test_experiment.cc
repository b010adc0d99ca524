/**
 * @file
 * Tests for the experiment runner and demand measurement (fast
 * configurations on small machines).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/tuner.hh"
#include "core/world.hh"
#include "topo/machine.hh"

namespace microscale::core
{
namespace
{

/** A fast config on the small machine. */
ExperimentConfig
fastConfig()
{
    ExperimentConfig c;
    c.machine = topo::small8();
    c.app.store.categories = 4;
    c.app.store.productsPerCategory = 10;
    c.app.store.users = 20;
    c.sizing.webui = {1, 8};
    c.sizing.auth = {1, 4};
    c.sizing.persistence = {1, 8};
    c.sizing.recommender = {1, 2};
    c.sizing.image = {1, 8};
    c.sizing.registry = {1, 1};
    c.load.users = 40;
    c.load.meanThink = 50 * kMillisecond;
    c.warmup = 200 * kMillisecond;
    c.measure = 400 * kMillisecond;
    return c;
}

TEST(Experiment, ProducesCompleteResult)
{
    const RunResult r = runExperiment(fastConfig());
    EXPECT_GT(r.throughputRps, 0.0);
    EXPECT_GT(r.latency.count, 0u);
    EXPECT_GT(r.latency.p99Ms, r.latency.p50Ms * 0.99);
    EXPECT_EQ(r.perOp.size(), teastore::kNumOps);
    EXPECT_EQ(r.servicePerf.size(), 6u);
    EXPECT_GT(r.cpuUtilization, 0.0);
    EXPECT_LE(r.cpuUtilization, 1.0 + 1e-9);
    EXPECT_EQ(r.budgetCpus, 8u);
    EXPECT_GT(r.eventsProcessed, 0u);
    EXPECT_GT(r.avgFreqGhz, 0.0);
    EXPECT_GT(r.total.ipc, 0.0);
}

TEST(Experiment, DeterministicForSameSeed)
{
    const RunResult a = runExperiment(fastConfig());
    const RunResult b = runExperiment(fastConfig());
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.latency.p99Ms, b.latency.p99Ms);
    EXPECT_EQ(a.sched.contextSwitches, b.sched.contextSwitches);
}

TEST(Experiment, SeedChangesOutcome)
{
    ExperimentConfig c = fastConfig();
    const RunResult a = runExperiment(c);
    c.seed = 99;
    const RunResult b = runExperiment(c);
    EXPECT_NE(a.throughputRps, b.throughputRps);
}

TEST(Experiment, MoreCoresMoreThroughputAtSaturation)
{
    ExperimentConfig c = fastConfig();
    c.load.users = 200;
    c.load.meanThink = 10 * kMillisecond;
    c.cores = 2;
    const RunResult small = runExperiment(c);
    c.cores = 4;
    const RunResult big = runExperiment(c);
    EXPECT_EQ(small.budgetCpus, 4u);
    EXPECT_EQ(big.budgetCpus, 8u);
    EXPECT_GT(big.throughputRps, small.throughputRps * 1.2);
}

TEST(Experiment, SmtBudgetAddsCapacity)
{
    ExperimentConfig c = fastConfig();
    c.load.users = 200;
    c.load.meanThink = 10 * kMillisecond;
    c.smt = false;
    const RunResult off = runExperiment(c);
    c.smt = true;
    const RunResult on = runExperiment(c);
    EXPECT_EQ(off.budgetCpus, 4u);
    EXPECT_EQ(on.budgetCpus, 8u);
    // SMT adds capacity, but far less than 2x.
    EXPECT_GT(on.throughputRps, off.throughputRps * 1.05);
    EXPECT_LT(on.throughputRps, off.throughputRps * 1.8);
}

TEST(Experiment, OpenLoopModeRuns)
{
    ExperimentConfig c = fastConfig();
    c.openLoopRps = 100.0;
    const RunResult r = runExperiment(c);
    EXPECT_GT(r.throughputRps, 50.0);
    EXPECT_LT(r.throughputRps, 150.0);
}

TEST(Experiment, MeasureDemandNormalized)
{
    const DemandShares d = measureDemand(fastConfig());
    const double sum =
        d.webui + d.auth + d.persistence + d.recommender + d.image;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // WebUI and image dominate the browse profile's CPU demand.
    EXPECT_GT(d.webui, d.auth);
    EXPECT_GT(d.image, d.recommender);
}

TEST(Experiment, SummarizeMentionsKeyFields)
{
    const RunResult r = runExperiment(fastConfig());
    const std::string s = summarize(r);
    EXPECT_NE(s.find("tput="), std::string::npos);
    EXPECT_NE(s.find("p99="), std::string::npos);
    EXPECT_NE(s.find("util="), std::string::npos);
}

TEST(Experiment, PerOpCountsSumToTotal)
{
    const RunResult r = runExperiment(fastConfig());
    std::uint64_t sum = 0;
    for (const auto &[name, lat] : r.perOp)
        sum += lat.count;
    EXPECT_EQ(sum, r.latency.count);
}

TEST(Experiment, PlacementPoliciesAllRun)
{
    ExperimentConfig c = fastConfig();
    for (PlacementKind k : allPlacements()) {
        c.placement = k;
        const RunResult r = runExperiment(c);
        EXPECT_GT(r.throughputRps, 0.0) << placementName(k);
        EXPECT_EQ(r.plan.kind, k);
    }
}

TEST(Experiment, BreakdownCoversWebuiOps)
{
    const RunResult r = runExperiment(fastConfig());
    const auto &webui = r.breakdown.at(teastore::names::kWebui);
    EXPECT_FALSE(webui.empty());
    for (const auto &[op, b] : webui) {
        EXPECT_GT(b.count, 0u) << op;
        EXPECT_GT(b.serviceTimeMeanMs, 0.0) << op;
        EXPECT_GT(b.computeMeanMs, 0.0) << op;
        // Components never exceed the total.
        EXPECT_LE(b.queueWaitMeanMs + b.computeMeanMs + b.stallMeanMs,
                  b.serviceTimeMeanMs * 1.01)
            << op;
    }
}

TEST(Experiment, DemandFromRunIsNormalized)
{
    const RunResult r = runExperiment(fastConfig());
    const DemandShares d = demandFromRun(r);
    EXPECT_NEAR(d.webui + d.auth + d.persistence + d.recommender +
                    d.image,
                1.0, 1e-9);
}

TEST(Experiment, RunRefinedIsDeterministic)
{
    ExperimentConfig c = fastConfig();
    c.placement = PlacementKind::CcxAware;
    RefineTrace t1, t2;
    const RunResult a = runRefined(c, 1, &t1);
    const RunResult b = runRefined(c, 1, &t2);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(t1.final.webui, t2.final.webui);
}

TEST(Experiment, RunRefinedTraceRecordsPerRoundShares)
{
    ExperimentConfig c = fastConfig();
    c.placement = PlacementKind::CcxAware;
    RefineTrace trace;
    runRefined(c, 2, &trace);
    // Round 0 is the seed demand; rounds 1..N the refined partitions.
    ASSERT_EQ(trace.perRound.size(), 3u);
    EXPECT_DOUBLE_EQ(trace.perRound[0].webui, c.demand.webui);
    for (const DemandShares &d : trace.perRound) {
        EXPECT_NEAR(d.webui + d.auth + d.persistence + d.recommender +
                        d.image,
                    1.0, 1e-9);
    }
}

TEST(Experiment, CustomMixShiftsOpCounts)
{
    // A mix that never leaves Home.
    std::array<std::array<double, teastore::kNumOps>, teastore::kNumOps>
        t{};
    for (auto &row : t)
        row[0] = 1.0;
    ExperimentConfig c = fastConfig();
    c.mix = loadgen::BrowseMix(t);
    const RunResult r = runExperiment(c);
    EXPECT_GT(r.perOp.at("home").count, 0u);
    EXPECT_EQ(r.perOp.at("product").count, 0u);
    EXPECT_EQ(r.perOp.at("checkout").count, 0u);
}

/** Logs "<tag>.<phase>" for every phase it is called in. */
class RecordingController : public Controller
{
  public:
    RecordingController(std::string tag, std::vector<std::string> &log)
        : tag_(std::move(tag)), log_(log)
    {
    }

    bool
    plan(World &, PlacementPlan &) override
    {
        log_.push_back(tag_ + ".plan");
        return false;
    }
    void
    build(World &, teastore::App &) override
    {
        log_.push_back(tag_ + ".build");
    }
    void start() override { log_.push_back(tag_ + ".start"); }
    void
    harvest(RunResult &result) override
    {
        // The standard harvest already ran.
        EXPECT_GT(result.throughputRps, 0.0);
        log_.push_back(tag_ + ".harvest");
    }
    void
    drained(World &world, teastore::App &, RunResult &) override
    {
        EXPECT_EQ(world.sim.foregroundQueued(), 0u);
        log_.push_back(tag_ + ".drained");
    }
    void stop() override { log_.push_back(tag_ + ".stop"); }

  private:
    std::string tag_;
    std::vector<std::string> &log_;
};

TEST(Controller, PhasesRunInOrder)
{
    std::vector<std::string> log;
    RecordingController a("a", log);
    runExperiment(fastConfig(), {&a});
    EXPECT_EQ(log, (std::vector<std::string>{"a.plan", "a.build", "a.start",
                                             "a.harvest", "a.stop"}));

    // The drained phase runs only when the run drains.
    log.clear();
    ExperimentConfig c = fastConfig();
    c.drainAtEnd = true;
    runExperiment(c, {&a});
    EXPECT_EQ(log, (std::vector<std::string>{"a.plan", "a.build", "a.start",
                                             "a.harvest", "a.drained",
                                             "a.stop"}));
}

TEST(Controller, EveryControllerSeesEveryPhaseInListOrder)
{
    std::vector<std::string> log;
    RecordingController a("a", log);
    RecordingController b("b", log);
    ExperimentConfig c = fastConfig();
    c.drainAtEnd = true;
    runExperiment(c, {&a, &b});
    EXPECT_EQ(log, (std::vector<std::string>{
                       "a.plan", "b.plan", "a.build", "b.build", "a.start",
                       "b.start", "a.harvest", "b.harvest", "a.drained",
                       "b.drained", "a.stop", "b.stop"}));
}

TEST(Controller, DecliningPlanKeepsBuildPlacementsPlan)
{
    ExperimentConfig c = fastConfig();
    c.placement = PlacementKind::CcxAware;
    std::vector<std::string> log;
    RecordingController a("a", log);
    const RunResult r = runExperiment(c, {&a});
    const topo::Machine machine(c.machine);
    const PlacementPlan expected =
        buildPlacement(c.placement, machine,
                       budgetMask(machine, c.cores, c.smt), c.demand,
                       c.sizing);
    EXPECT_EQ(r.plan.kind, PlacementKind::CcxAware);
    EXPECT_EQ(r.plan.describe(), expected.describe());
}

TEST(Controller, FirstPlanningControllerSuppliesThePlan)
{
    /** Plans OsDefault over the budget whatever the config says. */
    struct OsDefaultPlanner : Controller
    {
        bool
        plan(World &world, PlacementPlan &plan) override
        {
            plan = buildPlacement(PlacementKind::OsDefault, world.machine,
                                  world.budget, DemandShares{},
                                  fastConfig().sizing);
            return true;
        }
    };
    ExperimentConfig c = fastConfig();
    c.placement = PlacementKind::CcxAware;
    OsDefaultPlanner planner;
    std::vector<std::string> log;
    RecordingController late("late", log);
    const RunResult r = runExperiment(c, {&planner, &late});
    EXPECT_EQ(r.plan.kind, PlacementKind::OsDefault);
    EXPECT_GT(r.throughputRps, 0.0);
    // A later controller is not asked once the plan is supplied.
    EXPECT_EQ(log.front(), "late.build");
}

TEST(Tuner, AcceptsOnlyImprovingSteps)
{
    ExperimentConfig c = fastConfig();
    c.warmup = 100 * kMillisecond;
    c.measure = 200 * kMillisecond;
    c.load.users = 100;
    c.load.meanThink = 20 * kMillisecond;
    TunerParams tp;
    tp.maxRounds = 1;
    tp.maxReplicasPerService = 2;
    const TunerResult r = tuneReplicas(c, tp);
    EXPECT_GE(r.steps.size(), 1u);
    EXPECT_GT(r.throughputRps, 0.0);
    // The reported best throughput is the max over accepted steps.
    for (const TunerStep &s : r.steps) {
        if (s.accepted) {
            EXPECT_LE(s.throughputRps, r.throughputRps + 1e-9);
        }
    }
    // Replica counts never exceed the cap.
    EXPECT_LE(r.best.webui.replicas, 2u);
}

} // namespace
} // namespace microscale::core

/**
 * @file
 * Golden-output byte-equality tests for the engine hot path.
 *
 * Each scenario is a reduced FIG-01/05/12/14/15-style experiment; its
 * RunResult JSON (core::writeJson) must stay byte-identical to the
 * captured golden produced by the pre-refactor engine. These pin the
 * event-core refactor: any change to event ordering, RNG draw
 * sequences or histogram accumulation in the default (per-user) mode
 * shows up as a diff here. ElasticSpike, ClusterQuorumDrained and
 * SocialnetTraced pin the other runners — autoscale::runElastic,
 * cluster::runScaleout with a drained R=2 data tier, and traced
 * socialnet::runSocialnet — so the world assembly, window protocol and
 * harvest they share cannot drift. GrayFailEjection and ClusterTraced
 * pin the two result blocks no other golden carries: grayfail, and
 * the trace attribution's fabric_ms slice.
 *
 * Regenerating (only when an intentional behavior change lands):
 *   MICROSCALE_REGEN_GOLDENS=1 ./test_integration \
 *       --gtest_filter='Golden.*'
 * then commit the updated files under tests/integration/golden/.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/socialnet/runner.hh"
#include "autoscale/elastic.hh"
#include "cluster/cluster.hh"
#include "core/experiment.hh"
#include "core/json.hh"
#include "teastore/chaos.hh"
#include "teastore/criticality.hh"
#include "topo/machine.hh"

#ifndef MICROSCALE_GOLDEN_DIR
#error "MICROSCALE_GOLDEN_DIR must be defined by the build"
#endif

namespace microscale::core
{
namespace
{

/** The reduced base scenario: small machine, short windows. */
ExperimentConfig
baseConfig()
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
    c.load.users = 60;
    c.load.meanThink = 50 * kMillisecond;
    c.warmup = 200 * kMillisecond;
    c.measure = 400 * kMillisecond;
    return c;
}

std::string
resultJson(const RunResult &r)
{
    std::ostringstream os;
    writeJson(os, r);
    os << "\n";
    return os.str();
}

/** Compare against (or regenerate) tests/integration/golden/<name>. */
void
checkGolden(const std::string &name, const std::string &json)
{
    const std::string path =
        std::string(MICROSCALE_GOLDEN_DIR) + "/" + name;
    if (std::getenv("MICROSCALE_REGEN_GOLDENS") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << json;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with MICROSCALE_REGEN_GOLDENS=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(json, want.str()) << name << " diverged from golden";
}

TEST(Golden, Fig01ClosedLoop)
{
    const RunResult r = runExperiment(baseConfig());
    checkGolden("fig01_closed_loop.json", resultJson(r));
}

TEST(Golden, Fig05PlacementRefined)
{
    ExperimentConfig c = baseConfig();
    c.placement = PlacementKind::CcxAware;
    const RunResult r = runRefined(c, 1, nullptr);
    checkGolden("fig05_placement.json", resultJson(r));
}

TEST(Golden, Fig12ResilientChaos)
{
    ExperimentConfig c = baseConfig();
    c.faults = teastore::makeChaosScript(
        teastore::allChaosScenarios().front(), c.warmup, c.measure);
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;
    const RunResult r = runExperiment(c);
    checkGolden("fig12_resilience.json", resultJson(r));
}

TEST(Golden, Fig14OverloadOpenLoop)
{
    ExperimentConfig c = baseConfig();
    c.openLoopRps = 400.0;
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;
    c.overload = teastore::overloadAwarePolicy();
    const RunResult r = runExperiment(c);
    checkGolden("fig14_overload.json", resultJson(r));
}

TEST(Golden, Fig15TraceAttribution)
{
    ExperimentConfig c = baseConfig();
    c.placement = PlacementKind::CcxAware;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    const RunResult r = runExperiment(c);
    checkGolden("fig15_trace.json", resultJson(r));
}

/**
 * The paper's saturated point at reduced windows: rome128 under
 * os-default placement with 3000 closed-loop users. Unlike the small8
 * scenarios above, no CPU is idle for most of the run, so wake
 * placement takes the least-loaded-queue branch on a 128-CPU machine
 * and 8-CPU CCXs run several threads of one profile at once.
 */
TEST(Golden, Rome128Saturated)
{
    ExperimentConfig c;
    c.machine = topo::rome128();
    c.placement = PlacementKind::OsDefault;
    c.load.users = 3000;
    c.warmup = 200 * kMillisecond;
    c.measure = 200 * kMillisecond;
    const RunResult r = runExperiment(c);
    checkGolden("rome128_saturated.json", resultJson(r));
}

/** The deep hedged socialnet graph on rome128, at short windows. */
TEST(Golden, SocialnetHedged)
{
    ExperimentConfig c;
    c.machine = topo::rome128();
    c.openLoopRps = 1200.0;
    c.warmup = 100 * kMillisecond;
    c.measure = 300 * kMillisecond;
    socialnet::RunOptions opts;
    opts.app.depth = 4;
    opts.app.fanWidth = 4;
    opts.stragglerFactor = 10.0;
    opts.hedge = true;
    opts.hedgeDelay = 1200 * kMicrosecond;
    opts.hedgeBudget = 0.5;
    const RunResult r = socialnet::runSocialnet(c, opts);
    checkGolden("socialnet_hedged.json", resultJson(r));
}

/**
 * An elastic run on small8: spike schedule, threshold autoscaler
 * growing from a 2-core initial deployment into the 4-core budget,
 * with FIG-13's chaos-brownout fault script and resilient policy (the
 * fault injector and the resilience harvest; no gray-failure kinds).
 */
TEST(Golden, ElasticSpike)
{
    autoscale::ElasticConfig ec;
    ec.base = baseConfig();
    ec.base.placement = PlacementKind::CcxAware;
    ec.base.faults = teastore::makeChaosScript(
        teastore::ChaosScenario::Brownout, ec.base.warmup,
        ec.base.measure);
    ec.base.resilience = teastore::resilientPolicy();
    ec.base.app.degradedFallbacks = true;
    ec.base.loadSchedule = autoscale::makeSchedule(
        "spike", 200.0, 1200.0, ec.base.warmup, ec.base.measure);
    ec.initialCores = 2;
    ec.autoscaler.policy = autoscale::PolicyKind::Threshold;
    ec.autoscaler.period = 50 * kMillisecond;
    ec.autoscaler.warmup.registrationDelay = 40 * kMillisecond;
    ec.autoscaler.warmup.coldWindow = 80 * kMillisecond;
    ec.autoscaler.scaleOutCooldown = 50 * kMillisecond;
    ec.autoscaler.scaleInCooldown = 100 * kMillisecond;
    ec.autoscaler.maxReplicas = 3;
    const RunResult r = autoscale::runElastic(ec);
    checkGolden("elastic_spike.json", resultJson(r));
}

/**
 * Two small8 nodes with a 2-shard, R=2 quorum-replicated data tier,
 * drained at the end: covers runScaleout's harvest phase and the
 * post-drain replication verification that patches the result.
 */
TEST(Golden, ClusterQuorumDrained)
{
    cluster::ClusterParams params;
    params.nodes = 2;
    params.nodeMachine = topo::small8();
    cluster::applyFabricPreset(params, "lan");
    params.shards = 2;
    params.replication.factor = 2;
    ExperimentConfig c = baseConfig();
    c.drainAtEnd = true;
    const RunResult r = cluster::runScaleout(c, params);
    checkGolden("cluster_quorum_drained.json", resultJson(r));
}

/** The hedged socialnet world with full tracing: the trace harvest
 * rooted at the socialnet frontend. */
TEST(Golden, SocialnetTraced)
{
    ExperimentConfig c;
    c.machine = topo::rome128();
    c.openLoopRps = 1200.0;
    c.warmup = 100 * kMillisecond;
    c.measure = 300 * kMillisecond;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    socialnet::RunOptions opts;
    opts.app.depth = 4;
    opts.app.fanWidth = 4;
    opts.stragglerFactor = 10.0;
    opts.hedge = true;
    opts.hedgeDelay = 1200 * kMicrosecond;
    opts.hedgeBudget = 0.5;
    const RunResult r = socialnet::runSocialnet(c, opts);
    checkGolden("socialnet_traced.json", resultJson(r));
}

/** One gray persistence replica of three under passive outlier
 * ejection: the grayfail block (ejection and fault-injector counters). */
TEST(Golden, GrayFailEjection)
{
    ExperimentConfig c = baseConfig();
    c.sizing.persistence = {3, 8};
    c.faults = teastore::makeGrayScript(
        teastore::GrayScenario::SlowPersistence, c.warmup, c.measure);
    c.resilience = teastore::ejectionPolicy();
    c.app.degradedFallbacks = true;
    const RunResult r = runExperiment(c);
    checkGolden("grayfail_ejection.json", resultJson(r));
}

/** Two small8 nodes on a LAN fabric with full tracing: the trace
 * attribution carries each service's fabric_ms slice. */
TEST(Golden, ClusterTraced)
{
    cluster::ClusterParams params;
    params.nodes = 2;
    params.nodeMachine = topo::small8();
    cluster::applyFabricPreset(params, "lan");
    params.shards = 2;
    ExperimentConfig c = baseConfig();
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    const RunResult r = cluster::runScaleout(c, params);
    checkGolden("cluster_traced.json", resultJson(r));
}

} // namespace
} // namespace microscale::core

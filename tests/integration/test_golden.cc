/**
 * @file
 * Golden-output byte-equality tests for the engine hot path.
 *
 * Each scenario is a reduced FIG-01/05/12/14/15-style experiment; its
 * RunResult JSON (core::writeJson) must stay byte-identical to the
 * captured golden produced by the pre-refactor engine. These pin the
 * event-core refactor: any change to event ordering, RNG draw
 * sequences or histogram accumulation in the default (per-user) mode
 * shows up as a diff here.
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

} // namespace
} // namespace microscale::core

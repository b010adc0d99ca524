/**
 * @file
 * Request-conservation coverage over the golden workloads: the five
 * reduced FIG-01/05/12/14/15 scenarios pinned by the byte-identity
 * goldens all run with the ledger attached and a full drain, and
 * every one must balance — zero leaks, zero double closes, issued ==
 * terminals. A final test plants a broken counter in the FIG-12 run
 * and checks the ledger flags it, proving the green results above
 * mean something. An elastic run checks the same books, plus the
 * drained-world invariants, while the autoscaler scales in under an
 * active fault.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "autoscale/elastic.hh"
#include "chaos/ledger.hh"
#include "chaos/search.hh"
#include "core/experiment.hh"
#include "teastore/chaos.hh"
#include "teastore/criticality.hh"
#include "topo/machine.hh"

namespace microscale::chaos
{
namespace
{

/** The reduced golden base scenario (tests/integration/test_golden). */
core::ExperimentConfig
goldenBase()
{
    core::ExperimentConfig c;
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

/** Run one config with the ledger attached and expect balanced books. */
void
expectConserved(core::ExperimentConfig config, const std::string &what)
{
    RequestLedger ledger;
    config.ledger = &ledger;
    config.drainAtEnd = true;
    core::runExperiment(config);

    std::vector<std::string> violations;
    EXPECT_TRUE(ledger.verify(violations))
        << what << ": "
        << (violations.empty() ? "" : violations.front());
    EXPECT_GT(ledger.issued(), 0u) << what;
    EXPECT_EQ(ledger.issued(), ledger.terminals()) << what;
    EXPECT_EQ(ledger.openCount(), 0u) << what;
}

TEST(Conservation, Fig01ClosedLoop)
{
    expectConserved(goldenBase(), "fig01");
}

TEST(Conservation, Fig05PlacementCcxAware)
{
    core::ExperimentConfig c = goldenBase();
    c.placement = core::PlacementKind::CcxAware;
    expectConserved(c, "fig05");
}

TEST(Conservation, Fig12ResilientChaos)
{
    core::ExperimentConfig c = goldenBase();
    c.faults = teastore::makeChaosScript(
        teastore::allChaosScenarios().front(), c.warmup, c.measure);
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;
    expectConserved(c, "fig12");
}

TEST(Conservation, Fig14OverloadOpenLoop)
{
    core::ExperimentConfig c = goldenBase();
    c.openLoopRps = 400.0;
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;
    c.overload = teastore::overloadAwarePolicy();
    expectConserved(c, "fig14");
}

TEST(Conservation, Fig15TraceAttribution)
{
    core::ExperimentConfig c = goldenBase();
    c.placement = core::PlacementKind::CcxAware;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    expectConserved(c, "fig15");
}

TEST(Conservation, BrokenCounterIsCaught)
{
    core::ExperimentConfig c = goldenBase();
    c.faults = teastore::makeChaosScript(
        teastore::allChaosScenarios().front(), c.warmup, c.measure);
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;

    RequestLedger ledger;
    ledger.breakNextTerminal(); // the deliberately broken counter
    c.ledger = &ledger;
    c.drainAtEnd = true;
    core::runExperiment(c);

    std::vector<std::string> violations;
    EXPECT_FALSE(ledger.verify(violations));
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations.front().find("never reached a terminal state"),
              std::string::npos);
    EXPECT_EQ(ledger.openCount(), 1u);
}

TEST(Conservation, ElasticScaleInUnderFaults)
{
    // The ElasticSpike golden's world: a spike the threshold autoscaler
    // grows into from 2 cores, with a recommender brownout active from
    // before the spike until after it.
    autoscale::ElasticConfig ec;
    ec.base = goldenBase();
    ec.base.placement = core::PlacementKind::CcxAware;
    ec.base.faults = teastore::makeChaosScript(
        teastore::ChaosScenario::Brownout, ec.base.warmup, ec.base.measure);
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
    ec.recordTimeline = true;

    RequestLedger ledger;
    ec.base.ledger = &ledger;
    ec.base.drainAtEnd = true;
    autoscale::AutoscalerTelemetry telemetry;
    std::vector<std::string> violations;
    InvariantChecker checker(violations);
    const core::RunResult r =
        autoscale::runElastic(ec, &telemetry, {&checker});

    // The autoscaler scaled in, and a service's active replica count
    // fell between two control intervals while the brownout was on.
    EXPECT_GT(r.elastic.scaleIns, 0u);
    const Tick onset = ec.base.faults.events.front().at;
    const Tick recovery = ec.base.faults.events.back().at;
    std::map<std::string, unsigned> active;
    bool scaledInUnderFault = false;
    for (const auto &interval : telemetry.timeline) {
        for (const autoscale::ServiceSample &s : interval) {
            const auto it = active.find(s.service);
            if (it != active.end() && s.activeReplicas < it->second &&
                s.at > onset && s.at <= recovery)
                scaledInUnderFault = true;
            active[s.service] = s.activeReplicas;
        }
    }
    EXPECT_TRUE(scaledInUnderFault);

    ledger.verify(violations);
    EXPECT_TRUE(violations.empty()) << violations.front();
    EXPECT_GT(ledger.issued(), 0u);
    EXPECT_EQ(ledger.issued(), ledger.terminals());
    EXPECT_EQ(ledger.openCount(), 0u);
}

} // namespace
} // namespace microscale::chaos

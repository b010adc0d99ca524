/**
 * @file
 * Tests for the socialnet application graph: graph shape, op-mix
 * determinism on its dedicated RNG stream, end-to-end completion of
 * every frontend op at full and truncated depth, and the runner's
 * fanout summary + exact trace attribution.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "apps/socialnet/runner.hh"
#include "net/network.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "svc/mesh.hh"
#include "topo/presets.hh"

namespace microscale::socialnet
{
namespace
{

/** World harness: mesh + app on a small machine. */
class SocialnetTest : public ::testing::Test
{
  protected:
    SocialnetTest()
        : machine_(topo::small8()),
          engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, os::SchedParams{}, 1),
          network_(sim_, net::NetParams{}, 1),
          mesh_(kernel_, network_, svc::RpcCostParams{}, 1)
    {
        kernel_.start();
    }

    App &
    makeApp(AppParams params = AppParams{})
    {
        app_ = std::make_unique<App>(mesh_, params, 1);
        return *app_;
    }

    sim::Simulation sim_;
    topo::Machine machine_;
    cpu::ExecEngine engine_;
    os::Kernel kernel_;
    net::Network network_;
    svc::Mesh mesh_;
    std::unique_ptr<App> app_;
};

TEST_F(SocialnetTest, FullGraphRegistersTwentyOneServices)
{
    App &app = makeApp();
    EXPECT_EQ(app.serviceCount(), 21u);
    EXPECT_GE(app.serviceCount(), 15u); // DeathStarBench-scale floor
    std::set<std::string> seen;
    for (const svc::Service *s : app.services())
        seen.insert(s->name());
    EXPECT_EQ(seen.size(), app.serviceCount()) << "duplicate names";
    EXPECT_TRUE(seen.count(names::kFrontend));
    EXPECT_TRUE(seen.count(names::kPostStorage));
    EXPECT_TRUE(seen.count(names::kTimelineDb));
}

TEST_F(SocialnetTest, OpMixIsDeterministicPerSeed)
{
    App &app = makeApp();
    Rng a(7, "socialnet.load");
    Rng b(7, "socialnet.load");
    Rng c(8, "socialnet.load");
    std::vector<OpType> sa, sb, sc;
    for (int i = 0; i < 200; ++i) {
        sa.push_back(app.sampleOp(a));
        sb.push_back(app.sampleOp(b));
        sc.push_back(app.sampleOp(c));
    }
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa, sc);
    // The mix covers every op type over a couple hundred draws.
    std::set<OpType> kinds(sa.begin(), sa.end());
    EXPECT_EQ(kinds.size(), static_cast<std::size_t>(kNumOps));
}

TEST_F(SocialnetTest, EveryOpCompletesAtFullDepth)
{
    App &app = makeApp();
    Rng rng(3, "socialnet.load");
    int pending = 0;
    for (OpType op : allOps()) {
        ++pending;
        mesh_.callExternalS(
            names::kFrontend, opName(op), app.sampleRequest(op, rng),
            [&pending, op](const svc::Payload &, svc::Status st) {
                EXPECT_EQ(st, svc::Status::Ok) << opName(op);
                --pending;
            });
    }
    sim_.run();
    EXPECT_EQ(pending, 0);
}

TEST_F(SocialnetTest, TruncatedDepthStillCompletesEveryOp)
{
    AppParams params;
    params.depth = 1; // frontend absorbs the whole graph
    App &app = makeApp(params);
    Rng rng(3, "socialnet.load");
    int ok = 0;
    for (OpType op : allOps()) {
        mesh_.callExternalS(
            names::kFrontend, opName(op), app.sampleRequest(op, rng),
            [&ok](const svc::Payload &, svc::Status st) {
                if (st == svc::Status::Ok)
                    ++ok;
            });
    }
    sim_.run();
    EXPECT_EQ(ok, static_cast<int>(kNumOps));
    // Depth 1 truncates at the frontend: downstream tiers never see
    // a request.
    EXPECT_EQ(mesh_.service(names::kPostStorage).requestsProcessed(),
              0u);
}

core::ExperimentConfig
runnerConfig()
{
    core::ExperimentConfig c;
    c.machine = topo::small8();
    c.openLoopRps = 150.0;
    c.warmup = 100 * kMillisecond;
    c.measure = 300 * kMillisecond;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    return c;
}

TEST(SocialnetRunner, FillsFanoutBlockAndAttributionIsExact)
{
    RunOptions opts;
    opts.stragglerFactor = 8.0;
    opts.hedge = true;
    opts.hedgeDelay = 1200 * kMicrosecond;
    opts.hedgeBudget = 0.5;
    const core::RunResult r = runSocialnet(runnerConfig(), opts);

    EXPECT_GT(r.throughputRps, 0.0);
    ASSERT_TRUE(r.fanout.active);
    EXPECT_EQ(r.fanout.app, "socialnet");
    EXPECT_EQ(r.fanout.depth, 5u);
    EXPECT_EQ(r.fanout.services, 21u);
    EXPECT_TRUE(r.fanout.hedged);
    EXPECT_GT(r.fanout.firstAttempts, 0u);
    EXPECT_GT(r.fanout.p99Ms, 0.0);
    EXPECT_GE(r.fanout.amplification, 1.0);

    ASSERT_TRUE(r.trace.active);
    ASSERT_GT(r.trace.tracesAnalyzed, 0u);
    const double sum = r.trace.attribution.attributedNs();
    const double e2e = r.trace.attribution.e2eNs;
    ASSERT_GT(e2e, 0.0);
    EXPECT_LE(std::abs(sum - e2e), 0.01 * e2e)
        << "attribution must partition mean e2e within 1%";
}

TEST(SocialnetRunner, SameSeedRunsAreIdentical)
{
    RunOptions opts;
    opts.stragglerFactor = 8.0;
    opts.hedge = true;
    opts.hedgeDelay = 1200 * kMicrosecond;
    const core::RunResult a = runSocialnet(runnerConfig(), opts);
    const core::RunResult b = runSocialnet(runnerConfig(), opts);
    EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.latency.p99Ms, b.latency.p99Ms);
    EXPECT_EQ(a.fanout.hedgesLaunched, b.fanout.hedgesLaunched);
    EXPECT_EQ(a.fanout.hedgeWins, b.fanout.hedgeWins);
}

TEST(SocialnetRunnerDeathTest, RejectsACpuBudget)
{
    // The graph spreads over the whole machine, so a budget would make
    // budgetCpus and cpuUtilization describe CPUs the run never used.
    core::ExperimentConfig cores = runnerConfig();
    cores.cores = 2;
    EXPECT_EXIT(runSocialnet(cores, RunOptions{}),
                ::testing::ExitedWithCode(1), "whole machine");
    core::ExperimentConfig no_smt = runnerConfig();
    no_smt.smt = false;
    EXPECT_EXIT(runSocialnet(no_smt, RunOptions{}),
                ::testing::ExitedWithCode(1), "whole machine");
}

} // namespace
} // namespace microscale::socialnet

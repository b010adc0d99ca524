/**
 * @file
 * Tests for the execution engine: rates, SMT, cache sharing, NUMA,
 * cold-cache migration, frequency scaling, banking and accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "cpu/exec.hh"
#include "sim/simulation.hh"
#include "topo/presets.hh"

namespace microscale::cpu
{
namespace
{

class ExecTest : public ::testing::Test
{
  protected:
    ExecTest()
        : machine_(topo::rome128()), engine_(sim_, machine_)
    {
        small_.name = "small-wss";
        small_.ipcBase = 1.0;
        small_.l3Apki = 10.0;
        small_.wssBytes = 4.0 * 1024 * 1024;
        small_.branchMpki = 0.0;
        small_.icacheMpki = 0.0;
        small_.smtYield = 0.6;

        big_ = small_;
        big_.name = "big-wss";
        big_.wssBytes = 64.0 * 1024 * 1024;

        other_ = small_;
        other_.name = "other-small";
    }

    ExecContext *
    makeCtx(const std::string &name, NodeId home = kInvalidNode)
    {
        ctxs_.push_back(std::make_unique<ExecContext>(name, home));
        return ctxs_.back().get();
    }

    /** Attach `instr` of `profile`, flagging completion. */
    void
    give(ExecContext *ctx, const WorkProfile &profile, double instr,
         bool *done = nullptr)
    {
        engine_.setWork(*ctx, profile, instr, [done] {
            if (done)
                *done = true;
        });
    }

    sim::Simulation sim_;
    topo::Machine machine_;
    ExecEngine engine_;
    WorkProfile small_, big_, other_;
    std::vector<std::unique_ptr<ExecContext>> ctxs_;
};

TEST_F(ExecTest, SoloRunsAtComputedRate)
{
    auto *ctx = makeCtx("t0");
    bool done = false;
    give(ctx, small_, 1e6, &done);
    const double rate = engine_.rateOn(*ctx, 0);
    EXPECT_GT(rate, 0.0);
    engine_.startRun(*ctx, 0);
    sim_.run();
    EXPECT_TRUE(done);
    const double expected_ns = 1e6 / rate;
    EXPECT_NEAR(static_cast<double>(sim_.now()), expected_ns,
                expected_ns * 0.01);
}

TEST_F(ExecTest, CountersMatchBudget)
{
    auto *ctx = makeCtx("t0");
    give(ctx, small_, 2e6);
    engine_.startRun(*ctx, 0);
    sim_.run();
    const PerfCounters &c = ctx->counters();
    EXPECT_NEAR(c.instructions, 2e6, 1e3);
    EXPECT_GT(c.cycles, 0.0);
    EXPECT_GT(c.busyNs, 0.0);
    // Fully resident working set: misses at the floor ratio.
    EXPECT_NEAR(c.l3MissRatio(), engine_.params().missFloor, 1e-6);
    EXPECT_NEAR(c.l3Accesses, 2e6 * small_.l3Apki / 1000.0, 10.0);
    EXPECT_DOUBLE_EQ(c.branchMisses, 0.0);
    EXPECT_NEAR(c.kernelInstructions, 2e6 * small_.kernelShare, 1e3);
}

TEST_F(ExecTest, IpcReflectsCacheStalls)
{
    auto *fits = makeCtx("fits");
    give(fits, small_, 1e6);
    engine_.startRun(*fits, 0);
    sim_.run();

    auto *spills = makeCtx("spills");
    give(spills, big_, 1e6);
    engine_.startRun(*spills, 8); // different CCX, clean state
    sim_.run();

    EXPECT_GT(fits->counters().ipc(), spills->counters().ipc());
    EXPECT_GT(spills->counters().l3MissRatio(), 0.5);
}

TEST_F(ExecTest, SmtSiblingReducesRate)
{
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e9);
    give(b, small_, 1e9);
    engine_.startRun(*a, 0);
    const double solo = engine_.rateOn(*a, 0);
    engine_.startRun(*b, 64); // SMT sibling of cpu 0
    const double shared = engine_.rateOn(*a, 0);
    EXPECT_NEAR(shared / solo, small_.smtYield, 1e-9);
}

TEST_F(ExecTest, HeterogeneousSmtPairIsSlower)
{
    auto *a = makeCtx("a");
    auto *same = makeCtx("same");
    auto *diff = makeCtx("diff");
    give(a, small_, 1e9);
    give(same, small_, 1e9);
    give(diff, other_, 1e9);

    engine_.startRun(*a, 0);
    engine_.startRun(*same, 64);
    const double homo = engine_.rateOn(*a, 0);
    engine_.stopRun(*same);
    engine_.startRun(*diff, 64);
    const double hetero = engine_.rateOn(*a, 0);
    EXPECT_NEAR(hetero / homo, engine_.params().smtHeteroFactor, 1e-9);
}

TEST_F(ExecTest, SameProfileSharesFootprint)
{
    // Two threads of the same service on one CCX: no extra pressure.
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e9);
    give(b, small_, 1e9);
    engine_.startRun(*a, 0);
    const double solo = engine_.rateOn(*a, 0);
    engine_.startRun(*b, 1); // same CCX, different core
    const double together = engine_.rateOn(*a, 0);
    EXPECT_DOUBLE_EQ(together, solo);
}

TEST_F(ExecTest, DistinctProfilesContendForL3)
{
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e9);
    give(b, big_, 1e9);
    engine_.startRun(*a, 0);
    const double solo = engine_.rateOn(*a, 0);
    engine_.startRun(*b, 1); // same CCX
    const double contended = engine_.rateOn(*a, 0);
    EXPECT_LT(contended, solo);
}

TEST_F(ExecTest, RemoteMemoryIsSlower)
{
    auto *local = makeCtx("local", machine_.nodeOf(0));
    auto *remote = makeCtx("remote", 3); // cpu 0 is on node 0
    give(local, big_, 1e9);
    give(remote, big_, 1e9);
    const double local_rate = engine_.rateOn(*local, 0);
    const double remote_rate = engine_.rateOn(*remote, 0);
    EXPECT_LT(remote_rate, local_rate);
}

TEST_F(ExecTest, FirstTouchSetsHomeNode)
{
    auto *ctx = makeCtx("t", kInvalidNode);
    give(ctx, small_, 1e6);
    engine_.startRun(*ctx, 20); // node 1 on rome128 (ccx 5)
    EXPECT_EQ(ctx->homeNode(), machine_.nodeOf(20));
    sim_.run();
}

TEST_F(ExecTest, CrossCcxMigrationGoesCold)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e9);
    engine_.startRun(*ctx, 0);
    sim_.runUntil(10 * kMicrosecond);
    engine_.stopRun(*ctx);
    engine_.startRun(*ctx, 8); // different CCX
    EXPECT_EQ(ctx->counters().ccxMigrations, 1u);
    const double cold_rate = engine_.rateOn(*ctx, 8);
    // Run long enough to warm up, then compare.
    sim_.runUntil(sim_.now() + 5 * kMillisecond);
    const double warm_rate = engine_.rateOn(*ctx, 8);
    EXPECT_GT(warm_rate, cold_rate * 1.5);
    EXPECT_GT(ctx->counters().coldNs, 0.0);
}

TEST_F(ExecTest, SameCcxMoveStaysWarm)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e9);
    engine_.startRun(*ctx, 0);
    sim_.runUntil(10 * kMicrosecond);
    engine_.stopRun(*ctx);
    engine_.startRun(*ctx, 1); // same CCX
    EXPECT_EQ(ctx->counters().ccxMigrations, 0u);
    EXPECT_EQ(ctx->counters().migrations, 1u);
    EXPECT_DOUBLE_EQ(ctx->counters().coldNs, 0.0);
}

TEST_F(ExecTest, WarmPeerSuppressesColdRefill)
{
    auto *peer = makeCtx("peer");
    give(peer, small_, 1e9);
    engine_.startRun(*peer, 8); // ccx 2's first cpu... cpu 8 -> ccx 2
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e9);
    engine_.startRun(*ctx, 0);
    sim_.runUntil(10 * kMicrosecond);
    engine_.stopRun(*ctx);
    engine_.startRun(*ctx, 9); // peer's CCX, same profile running
    EXPECT_EQ(ctx->counters().ccxMigrations, 1u);
    const double rate = engine_.rateOn(*ctx, 9);
    // No cold surcharge: rate matches the warm shared-footprint rate.
    const double peer_rate = engine_.rateOn(*peer, 8);
    EXPECT_NEAR(rate, peer_rate, peer_rate * 1e-9);
}

TEST_F(ExecTest, FrequencyDropsWithActiveCores)
{
    const double idle_freq = engine_.socketFreqGhz(0);
    EXPECT_DOUBLE_EQ(idle_freq, machine_.params().freq.boostGhz);

    std::vector<ExecContext *> all;
    for (unsigned i = 0; i < 64; ++i) {
        auto *c = makeCtx(std::string("t").append(std::to_string(i)));
        give(c, small_, 1e12);
        engine_.startRun(*c, i);
        all.push_back(c);
    }
    EXPECT_EQ(engine_.activeCores(0), 64u);
    EXPECT_DOUBLE_EQ(engine_.socketFreqGhz(0),
                     machine_.params().freq.allCoreGhz);
    for (auto *c : all)
        engine_.stopRun(*c);
    EXPECT_DOUBLE_EQ(engine_.socketFreqGhz(0),
                     machine_.params().freq.boostGhz);
}

TEST_F(ExecTest, PreemptionBanksProgress)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 10e6);
    engine_.startRun(*ctx, 0);
    const double rate = engine_.rateOn(*ctx, 0);
    sim_.runUntil(100 * kMicrosecond);
    engine_.stopRun(*ctx);
    const double expected_retired = rate * 100 * kMicrosecond;
    EXPECT_NEAR(ctx->counters().instructions, expected_retired,
                expected_retired * 0.01);
    EXPECT_NEAR(ctx->remainingInstructions(),
                10e6 - expected_retired, expected_retired * 0.01);
    EXPECT_FALSE(ctx->running());
    EXPECT_TRUE(ctx->hasWork());

    // Resume and finish.
    bool done = false;
    engine_.startRun(*ctx, 0);
    sim_.run();
    EXPECT_NEAR(ctx->counters().instructions, 10e6, 1e4);
    (void)done;
}

TEST_F(ExecTest, ChargeOverheadCountsKernelTime)
{
    PerfCounters c;
    engine_.chargeOverhead(0, 2 * kMicrosecond, &c);
    EXPECT_DOUBLE_EQ(c.busyNs, 2000.0);
    EXPECT_GT(c.kernelInstructions, 0.0);
    EXPECT_DOUBLE_EQ(c.kernelInstructions, c.instructions);
    EXPECT_DOUBLE_EQ(engine_.cpuBusyNs(0), 2000.0);
}

TEST_F(ExecTest, CompletionDetachesAndCallsBack)
{
    auto *ctx = makeCtx("t");
    bool done = false;
    give(ctx, small_, 1e5, &done);
    engine_.startRun(*ctx, 3);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(ctx->running());
    EXPECT_FALSE(ctx->hasWork());
    EXPECT_EQ(ctx->lastCpu(), 3u);
    EXPECT_EQ(engine_.runningOn(3), nullptr);
}

TEST_F(ExecTest, SmtBusyTimeTracked)
{
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e9);
    give(b, small_, 1e7);
    engine_.startRun(*a, 0);
    engine_.startRun(*b, 64);
    sim_.runUntil(kMillisecond);
    engine_.bankAll();
    EXPECT_GT(a->counters().smtBusyNs, 0.0);
    EXPECT_LE(a->counters().smtBusyNs, a->counters().busyNs);
}

TEST_F(ExecTest, DeathOnDoubleStart)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e6);
    engine_.startRun(*ctx, 0);
    EXPECT_DEATH(engine_.startRun(*ctx, 1), "already-running");
}

TEST_F(ExecTest, DeathOnBusyCpu)
{
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e6);
    give(b, small_, 1e6);
    engine_.startRun(*a, 0);
    EXPECT_DEATH(engine_.startRun(*b, 0), "busy cpu");
}

TEST_F(ExecTest, DeathOnSetWorkTwice)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e6);
    EXPECT_DEATH(give(ctx, small_, 1e6), "pending work");
}

/**
 * Property: instructions are conserved across arbitrary preempt/move
 * schedules - every context ends with exactly its submitted budget.
 */
class ExecConservation : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ExecConservation, InstructionsConserved)
{
    sim::Simulation sim;
    topo::Machine machine(topo::small8());
    cpu::ExecEngine engine(sim, machine);
    Rng rng(GetParam());

    WorkProfile p;
    p.name = "prop";
    p.ipcBase = 1.2;
    p.l3Apki = 6.0;
    p.wssBytes = 6.0 * 1024 * 1024;

    constexpr unsigned kThreads = 6;
    const double budget = 5e6;
    std::vector<std::unique_ptr<ExecContext>> ctxs;
    unsigned completed = 0;
    for (unsigned i = 0; i < kThreads; ++i) {
        ctxs.push_back(std::make_unique<ExecContext>(
            std::string("p").append(std::to_string(i)), kInvalidNode));
        engine.setWork(*ctxs[i], p, budget, [&completed] { ++completed; });
    }

    // Random schedule churn: start/stop contexts on random free CPUs.
    for (int step = 0; step < 400 && completed < kThreads; ++step) {
        sim.runUntil(sim.now() + rng.uniformInt(1, 50) * kMicrosecond);
        for (auto &ctx : ctxs) {
            if (!ctx->hasWork())
                continue;
            if (ctx->running()) {
                if (rng.chance(0.4))
                    engine.stopRun(*ctx);
            } else if (rng.chance(0.6)) {
                // Find a free cpu.
                for (CpuId c = 0; c < machine.numCpus(); ++c) {
                    if (!engine.runningOn(c)) {
                        engine.startRun(*ctx, c);
                        break;
                    }
                }
            }
        }
    }
    // Drain: run everything to completion.
    for (auto &ctx : ctxs) {
        if (ctx->hasWork() && !ctx->running()) {
            for (CpuId c = 0; c < machine.numCpus(); ++c) {
                if (!engine.runningOn(c)) {
                    engine.startRun(*ctx, c);
                    break;
                }
            }
        }
    }
    sim.run();
    EXPECT_EQ(completed, kThreads);
    for (auto &ctx : ctxs) {
        EXPECT_NEAR(ctx->counters().instructions, budget, budget * 0.001)
            << ctx->name();
        EXPECT_FALSE(ctx->running());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecConservation,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/**
 * Property: adding load never speeds anyone up - starting another
 * context on the same core/CCX/socket can only lower (or keep) an
 * existing context's retire rate.
 */
class ExecMonotonicity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ExecMonotonicity, NeighborsNeverHelp)
{
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    cpu::ExecEngine engine(sim, machine);
    Rng rng(GetParam());

    // A palette of distinct profiles.
    std::vector<WorkProfile> profiles(4);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        profiles[i].name = "mono" + std::to_string(i);
        profiles[i].ipcBase = rng.uniformReal(0.6, 2.0);
        profiles[i].l3Apki = rng.uniformReal(1.0, 15.0);
        profiles[i].wssBytes = rng.uniformReal(1.0, 30.0) * 1024 * 1024;
        profiles[i].smtYield = rng.uniformReal(0.55, 0.8);
    }

    ExecContext subject("subject", 0);
    engine.setWork(subject, profiles[0], 1e12, [] {});
    engine.startRun(subject, 0);

    std::vector<std::unique_ptr<ExecContext>> others;
    double prev_rate = engine.rateOn(subject, 0);
    for (int step = 0; step < 20; ++step) {
        // Start a random other context on a random free CPU.
        const CpuId cpu =
            static_cast<CpuId>(rng.uniformInt(1, machine.numCpus() - 1));
        if (engine.runningOn(cpu))
            continue;
        others.push_back(std::make_unique<ExecContext>(
            "n" + std::to_string(step), kInvalidNode));
        engine.setWork(*others.back(),
                       profiles[rng.index(profiles.size())], 1e12,
                       [] {});
        engine.startRun(*others.back(), cpu);
        const double rate = engine.rateOn(subject, 0);
        EXPECT_LE(rate, prev_rate * (1.0 + 1e-9))
            << "adding load on cpu " << cpu << " raised the rate";
        prev_rate = rate;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecMonotonicity,
                         ::testing::Values(10, 20, 30, 40));

TEST(ExecSharing, EachWorkingSetCountsOnceInALargeCcx)
{
    // A 16-core SMT2 CCX (32 logical CPUs) running 21 distinct
    // profiles, the last five of them twice: every working set must
    // enter the L3 share once, however many distinct profiles precede
    // its second appearance in the CCX scan.
    topo::MachineParams params = topo::rome128();
    params.coresPerCcx = 16;
    params.ccxsPerNode = 1;
    params.cache.l3BytesPerCcx = 64ull * 1024 * 1024;
    sim::Simulation sim;
    topo::Machine machine(params);
    ASSERT_EQ(machine.cpusPerCcx(), 32u);
    ExecEngine engine(sim, machine);

    constexpr unsigned kProfiles = 21;
    std::vector<WorkProfile> profiles(kProfiles);
    for (unsigned i = 0; i < kProfiles; ++i) {
        profiles[i].name = "svc" + std::to_string(i);
        profiles[i].ipcBase = 1.0;
        profiles[i].l3Apki = 10.0;
        profiles[i].wssBytes = 4.0 * 1024 * 1024;
    }

    // CCX 0 scans CPUs 0-15, then their siblings 64-79.
    std::vector<CpuId> cpus;
    for (CpuId c = 0; c < 16; ++c)
        cpus.push_back(c);
    for (CpuId c = 64; c < 80; ++c)
        cpus.push_back(c);
    std::vector<const WorkProfile *> placed;
    for (unsigned i = 0; i < kProfiles; ++i)
        placed.push_back(&profiles[i]);
    for (unsigned i = kProfiles - 5; i < kProfiles; ++i)
        placed.push_back(&profiles[i]);
    ASSERT_LE(placed.size(), cpus.size());

    std::vector<std::unique_ptr<ExecContext>> ctxs;
    for (std::size_t i = 0; i < placed.size(); ++i) {
        ctxs.push_back(std::make_unique<ExecContext>(
            "c" + std::to_string(i), kInvalidNode));
        engine.setWork(*ctxs.back(), *placed[i], 1e12, [] {});
        engine.startRun(*ctxs.back(), cpus[i]);
    }
    sim.runUntil(kMillisecond);
    engine.bankAll();

    const PerfModelParams &pm = engine.params();
    const double wss = profiles[0].wssBytes;
    const double share =
        static_cast<double>(params.cache.l3BytesPerCcx) * wss /
        (kProfiles * wss);
    const double expected =
        pm.missFloor + (1.0 - pm.missFloor) * (1.0 - share / wss);
    const PerfCounters &c = ctxs[0]->counters();
    ASSERT_GT(c.l3Accesses, 0.0);
    EXPECT_NEAR(c.l3Misses / c.l3Accesses, expected, 1e-12);
}

} // namespace
} // namespace microscale::cpu

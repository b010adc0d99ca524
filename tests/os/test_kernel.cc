/**
 * @file
 * Tests for the OS scheduler: dispatch, wake placement, preemption,
 * affinity enforcement, stealing and fairness.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/random.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "topo/presets.hh"

namespace microscale::os
{
namespace
{

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest()
        : machine_(topo::small8()),
          engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, SchedParams{}, 1)
    {
        profile_.name = "test-work";
        profile_.ipcBase = 1.0;
        profile_.branchMpki = 0.0;
        profile_.icacheMpki = 0.0;
        profile_.l3Apki = 0.0;
        profile_.wssBytes = 1024 * 1024;
    }

    /** ~1ms of work at 2.5-3 GHz. */
    static constexpr double kChunk = 3e6;

    sim::Simulation sim_;
    topo::Machine machine_;
    cpu::ExecEngine engine_;
    Kernel kernel_;
    cpu::WorkProfile profile_;
};

TEST_F(KernelTest, ThreadStartsBlocked)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    EXPECT_EQ(t->state(), Thread::State::Blocked);
    EXPECT_EQ(t->cpuTimeNs(), 0.0);
}

TEST_F(KernelTest, RunExecutesAndBlocksAgain)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    bool done = false;
    t->run(profile_, kChunk, [&] { done = true; });
    EXPECT_EQ(t->state(), Thread::State::Running);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(t->state(), Thread::State::Blocked);
    EXPECT_GT(t->cpuTimeNs(), 0.0);
    EXPECT_EQ(kernel_.stats().wakeups, 1u);
}

TEST_F(KernelTest, CallbackCanChainWork)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    int rounds = 0;
    std::function<void()> again = [&] {
        if (++rounds < 5)
            t->run(profile_, kChunk, again);
    };
    t->run(profile_, kChunk, again);
    sim_.run();
    EXPECT_EQ(rounds, 5);
}

TEST_F(KernelTest, AffinityIsRespected)
{
    Thread *t = kernel_.createThread("t", CpuMask::single(2));
    kernel_.start();
    int rounds = 0;
    std::function<void()> again = [&] {
        EXPECT_EQ(t->ec().lastCpu(), 2u);
        if (++rounds < 10)
            t->run(profile_, kChunk, again);
    };
    t->run(profile_, kChunk, again);
    sim_.run();
    EXPECT_EQ(rounds, 10);
    EXPECT_EQ(t->ec().counters().migrations, 0u);
}

TEST_F(KernelTest, WakePrefersLastCpu)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    t->run(profile_, kChunk, [] {});
    sim_.run();
    const CpuId first = t->ec().lastCpu();
    t->run(profile_, kChunk, [] {});
    sim_.run();
    EXPECT_EQ(t->ec().lastCpu(), first);
}

TEST_F(KernelTest, TwoThreadsShareOnePinnedCpu)
{
    kernel_.start();
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    Thread *b = kernel_.createThread("b", CpuMask::single(0));
    bool da = false, db = false;
    // Long enough that preemption must interleave them (several ms).
    a->run(profile_, 12 * kChunk, [&] { da = true; });
    b->run(profile_, 12 * kChunk, [&] { db = true; });
    sim_.run();
    EXPECT_TRUE(da);
    EXPECT_TRUE(db);
    EXPECT_GT(kernel_.stats().preemptions, 0u);
    EXPECT_GT(kernel_.stats().contextSwitches, 0u);
    // Fairness: preemption interleaves, so CPU time is comparable.
    EXPECT_NEAR(a->cpuTimeNs() / b->cpuTimeNs(), 1.0, 0.5);
}

TEST_F(KernelTest, ParallelThreadsUseDifferentCpus)
{
    kernel_.start();
    std::vector<Thread *> threads;
    for (int i = 0; i < 4; ++i) {
        threads.push_back(kernel_.createThread(
            std::string("t").append(std::to_string(i)), machine_.allCpus()));
    }
    for (auto *t : threads)
        t->run(profile_, kChunk, [] {});
    // All should be dispatched to distinct CPUs immediately.
    sim_.runUntil(kernel_.params().switchCost + 1);
    std::vector<bool> used(machine_.numCpus(), false);
    unsigned running = 0;
    for (CpuId c = 0; c < machine_.numCpus(); ++c) {
        if (engine_.runningOn(c)) {
            ++running;
            used[c] = true;
        }
    }
    EXPECT_EQ(running, 4u);
    sim_.run();
}

TEST_F(KernelTest, NewIdleStealRebalances)
{
    kernel_.start();
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    Thread *b = kernel_.createThread("b", CpuMask::single(1));
    Thread *c = kernel_.createThread("c", CpuMask::range(0, 1));

    a->run(profile_, 30 * kChunk, [] {});
    b->run(profile_, kChunk / 2, [] {});
    bool c_done = false;
    c->run(profile_, 2 * kChunk, [&] { c_done = true; });
    // c lands behind a or b; when b finishes, cpu 1 must steal c
    // rather than idle while c waits behind a.
    sim_.run();
    EXPECT_TRUE(c_done);
    EXPECT_GT(kernel_.stats().newIdlePulls + kernel_.stats().balancePulls,
              0u);
}

TEST_F(KernelTest, SetAffinityMigratesRunningThread)
{
    kernel_.start();
    Thread *t = kernel_.createThread("t", CpuMask::single(0));
    t->run(profile_, 30 * kChunk, [] {});
    sim_.runUntil(kMillisecond);
    EXPECT_EQ(t->ec().cpu(), 0u);
    t->setAffinity(CpuMask::single(3));
    sim_.runUntil(2 * kMillisecond);
    EXPECT_EQ(t->ec().cpu(), 3u);
    sim_.run();
    EXPECT_EQ(t->ec().lastCpu(), 3u);
}

TEST_F(KernelTest, SwitchCostChargesKernelWork)
{
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    bool done = false;
    a->run(profile_, kChunk, [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    // The initial dispatch switches from idle: cost charged.
    EXPECT_GT(a->ec().counters().kernelInstructions, 0.0);
}

TEST_F(KernelTest, QueueDepthVisible)
{
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    Thread *b = kernel_.createThread("b", CpuMask::single(0));
    a->run(profile_, 10 * kChunk, [] {});
    b->run(profile_, 10 * kChunk, [] {});
    EXPECT_EQ(kernel_.queueDepth(0), 1u);
    sim_.run();
    EXPECT_EQ(kernel_.queueDepth(0), 0u);
}

TEST_F(KernelTest, StatsCountWakeups)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    for (int i = 0; i < 3; ++i) {
        t->run(profile_, kChunk, [] {});
        sim_.run();
    }
    EXPECT_EQ(kernel_.stats().wakeups, 3u);
    EXPECT_EQ(t->ec().counters().wakeups, 3u);
}

TEST_F(KernelTest, DeathOnRunWhileRunning)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    t->run(profile_, kChunk, [] {});
    EXPECT_DEATH(t->run(profile_, kChunk, [] {}), "non-blocked");
}

TEST_F(KernelTest, DeathOnEmptyAffinity)
{
    EXPECT_EXIT(kernel_.createThread("bad", CpuMask()),
                ::testing::ExitedWithCode(1), "affinity");
}

TEST_F(KernelTest, DeathOnBadHomeNode)
{
    EXPECT_EXIT(kernel_.createThread("bad", machine_.allCpus(), 99),
                ::testing::ExitedWithCode(1), "home node");
}

/**
 * Property: random workloads with random affinities all complete, and
 * every thread only ever runs inside its affinity mask.
 */
class KernelProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(KernelProperty, AllWorkCompletesWithinAffinity)
{
    sim::Simulation sim;
    topo::Machine machine(topo::small8());
    cpu::ExecEngine engine(sim, machine);
    Kernel kernel(sim, machine, engine, SchedParams{}, GetParam());
    kernel.start();
    Rng rng(GetParam());

    cpu::WorkProfile profile;
    profile.name = "prop";
    profile.ipcBase = 1.5;
    profile.l3Apki = 2.0;
    profile.wssBytes = 2.0 * 1024 * 1024;

    constexpr int kThreads = 12;
    constexpr int kRounds = 8;
    int completions = 0;
    struct Job
    {
        Thread *thread;
        CpuMask affinity;
        int rounds = 0;
    };
    std::vector<Job> jobs;
    jobs.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        const CpuId lo =
            static_cast<CpuId>(rng.uniformInt(0, machine.numCpus() - 1));
        const CpuId hi = static_cast<CpuId>(
            rng.uniformInt(lo, machine.numCpus() - 1));
        const CpuMask mask = CpuMask::range(lo, hi);
        const std::string name = std::string("p").append(std::to_string(i));
        jobs.push_back(Job{kernel.createThread(name, mask), mask});
    }

    std::function<void(int)> submit = [&](int i) {
        Job &job = jobs[i];
        job.thread->run(
            profile, rng.uniformReal(0.5e6, 4e6), [&, i] {
                Job &j = jobs[i];
                EXPECT_TRUE(j.affinity.test(j.thread->ec().lastCpu()))
                    << "thread " << i << " ran on cpu "
                    << j.thread->ec().lastCpu() << " outside "
                    << j.affinity.toString();
                ++completions;
                if (++j.rounds < kRounds)
                    submit(i);
            });
    };
    for (int i = 0; i < kThreads; ++i)
        submit(i);
    sim.run();
    EXPECT_EQ(completions, kThreads * kRounds);
    kernel.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace microscale::os

/**
 * @file
 * Second wave of scheduler tests: fairness, vruntime floors, balance
 * configuration flags and switch-cost edge cases.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "topo/presets.hh"

namespace microscale::os
{
namespace
{

class Kernel2Test : public ::testing::Test
{
  protected:
    explicit Kernel2Test(SchedParams params = SchedParams{})
        : machine_(topo::small8()),
          engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, params, 1)
    {
        profile_.name = "k2";
        profile_.ipcBase = 1.0;
        profile_.branchMpki = 0.0;
        profile_.icacheMpki = 0.0;
        profile_.l3Apki = 0.0;
        profile_.kernelShare = 0.0;
    }

    static constexpr double kChunk = 3e6; // ~1ms

    sim::Simulation sim_;
    topo::Machine machine_;
    cpu::ExecEngine engine_;
    Kernel kernel_;
    cpu::WorkProfile profile_;
};

TEST_F(Kernel2Test, ThreeWayFairnessOnOneCpu)
{
    kernel_.start();
    Thread *t[3];
    for (int i = 0; i < 3; ++i) {
        t[i] = kernel_.createThread(
            std::string("f").append(std::to_string(i)), CpuMask::single(0));
        t[i]->run(profile_, 20 * kChunk, [] {});
    }
    sim_.run();
    // Everyone consumed the same work; CPU time within 2x of each
    // other (scheduling quantization allows some skew).
    for (int i = 1; i < 3; ++i) {
        EXPECT_GT(t[i]->cpuTimeNs(), t[0]->cpuTimeNs() * 0.5);
        EXPECT_LT(t[i]->cpuTimeNs(), t[0]->cpuTimeNs() * 2.0);
    }
}

TEST_F(Kernel2Test, LongSleeperDoesNotMonopolize)
{
    kernel_.start();
    Thread *busy = kernel_.createThread("busy", CpuMask::single(0));
    Thread *sleeper = kernel_.createThread("sleeper", CpuMask::single(0));

    // busy accumulates lots of vruntime first.
    busy->run(profile_, 30 * kChunk, [] {});
    sim_.runUntil(5 * kMillisecond);
    // sleeper wakes with vruntime 0 - the enqueue floor must place it
    // near the queue min, not let it run for 10ms uninterrupted.
    bool busy_done = false;
    sleeper->run(profile_, 30 * kChunk, [] {});
    sim_.run();
    (void)busy_done;
    // Both finished; the sleeper was throttled by the min_vruntime
    // floor so busy wasn't starved for its whole remaining runtime.
    EXPECT_GT(busy->cpuTimeNs(), 0.0);
    EXPECT_GT(sleeper->cpuTimeNs(), 0.0);
}

TEST_F(Kernel2Test, StatsAreMonotonic)
{
    kernel_.start();
    Thread *a = kernel_.createThread("a", CpuMask::range(0, 1));
    std::function<void()> chain;
    int rounds = 0;
    chain = [&] {
        if (++rounds < 6)
            a->run(profile_, kChunk, chain);
    };
    a->run(profile_, kChunk, chain);
    const SchedStats before = kernel_.stats();
    sim_.run();
    const SchedStats after = kernel_.stats();
    EXPECT_GE(after.wakeups, before.wakeups + 5);
    EXPECT_GE(after.contextSwitches, before.contextSwitches);
}

class NoStealTest : public Kernel2Test
{
  protected:
    static SchedParams
    params()
    {
        SchedParams p;
        p.newIdleSteal = false;
        p.loadBalance = false;
        return p;
    }
    NoStealTest() : Kernel2Test(params()) {}
};

TEST_F(NoStealTest, DisabledStealLeavesWorkQueued)
{
    kernel_.start();
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    Thread *c = kernel_.createThread("c", CpuMask::range(0, 1));
    a->run(profile_, 10 * kChunk, [] {});
    // c wakes while cpu0 is busy; wake placement puts it on idle cpu1,
    // so force the queueing case by pinning after wake is impossible -
    // instead verify the flag holds: no pulls ever counted.
    c->run(profile_, 2 * kChunk, [] {});
    sim_.run();
    EXPECT_EQ(kernel_.stats().newIdlePulls, 0u);
    EXPECT_EQ(kernel_.stats().balancePulls, 0u);
}

class FreeSwitchTest : public Kernel2Test
{
  protected:
    static SchedParams
    params()
    {
        SchedParams p;
        p.switchCost = 0;
        return p;
    }
    FreeSwitchTest() : Kernel2Test(params()) {}
};

TEST_F(FreeSwitchTest, ZeroSwitchCostRunsImmediately)
{
    Thread *t = kernel_.createThread("t", CpuMask::single(0));
    bool done = false;
    t->run(profile_, kChunk, [&] { done = true; });
    // Dispatched synchronously: the engine already sees it running.
    EXPECT_NE(engine_.runningOn(0), nullptr);
    sim_.run();
    EXPECT_TRUE(done);
    // No switch cost => no kernel-overhead instructions charged.
    EXPECT_DOUBLE_EQ(t->ec().counters().kernelInstructions, 0.0);
}

TEST_F(Kernel2Test, AffinityToOtherNodeMovesMemoryHome)
{
    // small8 has one node; use rome128 for a cross-node move.
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    cpu::ExecEngine engine(sim, machine);
    Kernel kernel(sim, machine, engine, SchedParams{}, 1);
    kernel.start();
    Thread *t = kernel.createThread("t", machine.cpusOfNode(0));
    t->run(profile_, 10 * kChunk, [] {});
    sim.runUntil(kMillisecond);
    EXPECT_EQ(t->ec().homeNode(), 0u); // first touch on node 0
    // Re-pin to node 2: thread migrates but memory home stays (no
    // automatic page migration, as on real Linux).
    t->setAffinity(machine.cpusOfNode(2));
    sim.run();
    EXPECT_EQ(machine.nodeOf(t->ec().lastCpu()), 2u);
    EXPECT_EQ(t->ec().homeNode(), 0u);
    kernel.stop();
}

TEST_F(Kernel2Test, ManyThreadsManyCpusAllFinish)
{
    kernel_.start();
    int done = 0;
    for (int i = 0; i < 32; ++i) {
        Thread *t = kernel_.createThread(
            std::string("m").append(std::to_string(i)), machine_.allCpus());
        t->run(profile_, kChunk * (1 + i % 4), [&done] { ++done; });
    }
    sim_.run();
    EXPECT_EQ(done, 32);
}

TEST(KernelIdleMasks, MatchRecomputationThroughASaturatedRun)
{
    // FIG-01-style churn on rome128: more threads than CPUs, bursts
    // and sleeps, a quarter of the threads pinned to one CPU and a
    // quarter to one CCX, and affinity changes mid-run, with
    // preemption, new-idle stealing and load balancing all on. The
    // incrementally kept idle masks must equal a recomputation from
    // cpuIdle() at every check.
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    cpu::ExecEngine engine(sim, machine);
    SchedParams params;
    params.timeslice = 200 * kMicrosecond;
    params.balancePeriod = 250 * kMicrosecond;
    Kernel kernel(sim, machine, engine, params, 3);
    ASSERT_TRUE(kernel.idleMasksConsistent());
    kernel.start();
    Rng rng(17);

    cpu::WorkProfile profile;
    profile.name = "churn";
    profile.ipcBase = 1.2;
    profile.l3Apki = 2.0;
    profile.wssBytes = 2.0 * 1024 * 1024;

    constexpr int kThreads = 160;
    constexpr Tick kEnd = 40 * kMillisecond;
    std::vector<Thread *> threads;
    for (int i = 0; i < kThreads; ++i) {
        CpuMask affinity = machine.allCpus();
        if (i % 4 == 0)
            affinity = CpuMask::single(static_cast<CpuId>(i) % 64);
        else if (i % 4 == 2)
            affinity = machine.ccxMask(i % machine.numCcxs());
        threads.push_back(kernel.createThread(
            std::string("w").append(std::to_string(i)), affinity));
    }

    int mismatches = 0;
    int deep_queues = 0; // checks that saw a queue two threads deep
    auto check = [&] {
        if (!kernel.idleMasksConsistent())
            ++mismatches;
        for (CpuId c = 0; c < machine.numCpus(); ++c) {
            if (kernel.queueDepth(c) >= 2) {
                ++deep_queues;
                break;
            }
        }
    };
    std::function<void(int)> submit = [&](int i) {
        threads[i]->run(profile, rng.uniformReal(1e6, 12e6), [&, i] {
            check();
            if (sim.now() >= kEnd)
                return;
            if (rng.uniformReal(0.0, 1.0) < 0.5) {
                submit(i);
            } else {
                sim.scheduleAfter(
                    static_cast<Tick>(rng.uniformInt(1, 500)) *
                        kMicrosecond,
                    [&, i] { submit(i); });
            }
        });
    };
    for (int i = 0; i < kThreads; ++i)
        submit(i);

    sim::PeriodicEvent checker;
    checker.start(sim, 25 * kMicrosecond, check);
    sim::PeriodicEvent repin;
    int prev_outside = 0; // repins that left the last CPU disallowed
    repin.start(sim, 2 * kMillisecond, [&] {
        Thread *t = threads[rng.index(threads.size())];
        const CcxId ccx =
            static_cast<CcxId>(rng.uniformInt(0, machine.numCcxs() - 1));
        const CpuMask &allowed = rng.uniformReal(0.0, 1.0) < 0.5
                                     ? machine.ccxMask(ccx)
                                     : machine.allCpus();
        if (t->ec().lastCpu() != kInvalidCpu &&
            !allowed.test(t->ec().lastCpu()))
            ++prev_outside;
        t->setAffinity(allowed);
        check();
    });
    sim.run();
    checker.stop();
    repin.stop();
    kernel.stop();

    EXPECT_EQ(mismatches, 0);
    EXPECT_TRUE(kernel.idleMasksConsistent());
    // The run reached what the load index serves: deep queues, both
    // kinds of stealing, and placement with the last CPU disallowed.
    EXPECT_GT(deep_queues, 0);
    EXPECT_GT(kernel.stats().newIdlePulls, 0u);
    EXPECT_GT(kernel.stats().balancePulls, 0u);
    EXPECT_GT(prev_outside, 0);
    const SchedStats &st = kernel.stats();
    EXPECT_GT(st.preemptions, 0u);
    EXPECT_GT(st.newIdlePulls, 0u);
    EXPECT_GT(st.balancePulls, 0u);

    // No golden reaches a balance pull or an affinity-filtered steal,
    // so this run pins them: the exact end-of-run counters and a digest
    // of every thread's placement history, from the linear steal scan
    // over every CPU of each domain that the occupancy masks replaced.
    EXPECT_EQ(st.wakeups, 1106u);
    EXPECT_EQ(st.contextSwitches, 3492u);
    EXPECT_EQ(st.preemptions, 2386u);
    EXPECT_EQ(st.migrations, 587u);
    EXPECT_EQ(st.ccxMigrations, 186u);
    EXPECT_EQ(st.balancePulls, 7u);
    EXPECT_EQ(st.newIdlePulls, 298u);
    std::string history;
    for (const Thread *t : threads) {
        const cpu::PerfCounters &c = t->ec().counters();
        history.append(std::to_string(c.migrations))
            .append(",")
            .append(std::to_string(c.ccxMigrations))
            .append(",")
            .append(std::to_string(c.contextSwitches))
            .append(",")
            .append(std::to_string(
                std::bit_cast<std::uint64_t>(c.instructions)))
            .append(";");
    }
    EXPECT_EQ(hashLabel(history), 0xb5f7949d81a28fceull);
}

} // namespace
} // namespace microscale::os

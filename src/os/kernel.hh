/**
 * @file
 * os::Kernel - the operating-system scheduler model.
 *
 * Approximates the behaviour of a general-purpose (CFS-like) scheduler
 * on a big SMT server, because the paper's optimizations consist of
 * *overriding* exactly this behaviour with topology knowledge:
 *
 *  - per-CPU run queues ordered by vruntime;
 *  - wake placement that prefers the last CPU, then an idle CPU in the
 *    same LLC (CCX) domain, then the node, then anywhere allowed;
 *  - periodic preemption at a fixed timeslice;
 *  - new-idle stealing when a CPU runs out of work;
 *  - periodic load balancing that pulls work to idle CPUs.
 *
 * Context switches cost CPU time, and cross-CCX migrations trigger the
 * execution engine's cold-cache refill penalty.
 */

#ifndef MICROSCALE_OS_KERNEL_HH
#define MICROSCALE_OS_KERNEL_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/cpumask.hh"
#include "base/random.hh"
#include "base/types.hh"
#include "cpu/exec.hh"
#include "os/thread.hh"
#include "sim/simulation.hh"
#include "topo/machine.hh"

namespace microscale::os
{

/** Scheduler tunables. */
struct SchedParams
{
    /** Preemption quantum. */
    Tick timeslice = kMillisecond;
    /** Period of the load-balancing pass. */
    Tick balancePeriod = 4 * kMillisecond;
    /** CPU cost of switching between two distinct threads. */
    Tick switchCost = 2 * kMicrosecond;
    /** Enable the periodic load balancer. */
    bool loadBalance = true;
    /** Enable stealing when a CPU becomes idle. */
    bool newIdleSteal = true;
};

/**
 * Per-CPU run-queue loads (running or reserved, plus queued) indexed
 * by value: one CpuMask per load holds the CPUs at that load, so the
 * load-0 mask is the idle set and the least-loaded CPU of a mask is
 * found by walking the buckets upward instead of scanning CPUs.
 */
class LoadIndex
{
  public:
    /** CPUs [0, num_cpus), all at load 0. */
    explicit LoadIndex(CpuId num_cpus)
        : load_(num_cpus, 0), by_load_(1, CpuMask::firstN(num_cpus))
    {
    }

    unsigned load(CpuId cpu) const { return load_[cpu]; }

    /** CPUs at load 0. */
    const CpuMask &idle() const { return by_load_.front(); }

    /** Move `cpu` to bucket `load`. */
    void set(CpuId cpu, unsigned load)
    {
        const unsigned old = load_[cpu];
        if (load == old)
            return;
        by_load_[old].clear(cpu);
        if (load >= by_load_.size())
            by_load_.resize(load + 1);
        by_load_[load].set(cpu);
        load_[cpu] = load;
    }

    /**
     * Least-loaded CPU of `mask`, or kInvalidCpu when `mask` has none.
     * Ties go to the first CPU after `hint` in circular order (the
     * hint itself last). When `hint` is not in `mask` (kInvalidCpu
     * included) there is no circle: ties go to the lowest CPU. That
     * is what the two-sweep scan this index replaced returned, and
     * keeping it keeps placement after an affinity change that leaves
     * the previous CPU outside the mask byte-identical.
     */
    CpuId leastLoaded(const CpuMask &mask, CpuId hint) const;

    /** True when each CPU sits in exactly the bucket of its load. */
    bool consistent() const;

  private:
    std::vector<unsigned> load_;   // per cpu
    std::vector<CpuMask> by_load_; // CPUs per load value
};

/** Aggregate scheduler activity over a run. */
struct SchedStats
{
    std::uint64_t wakeups = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t migrations = 0;
    std::uint64_t ccxMigrations = 0;
    std::uint64_t balancePulls = 0;
    std::uint64_t newIdlePulls = 0;
};

/**
 * The scheduler. Owns all threads; drives the cpu::ExecEngine.
 */
class Kernel
{
  public:
    Kernel(sim::Simulation &sim, const topo::Machine &machine,
           cpu::ExecEngine &engine, SchedParams params,
           std::uint64_t seed = 1);

    ~Kernel();
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    const topo::Machine &machine() const { return machine_; }
    cpu::ExecEngine &engine() { return engine_; }
    sim::Simulation &sim() { return sim_; }
    const SchedParams &params() const { return params_; }

    /**
     * Create a thread.
     * @param affinity allowed CPUs (must intersect the machine).
     * @param home_node NUMA node for the thread's memory, or
     *        kInvalidNode for first-touch (node of first dispatch).
     */
    Thread *createThread(std::string name, CpuMask affinity,
                         NodeId home_node = kInvalidNode);

    /** All threads, in creation order. */
    const std::vector<std::unique_ptr<Thread>> &threads() const
    {
        return threads_;
    }

    /** Start the periodic tick and balancer (idempotent). */
    void start();

    /** Stop periodic machinery (e.g. at teardown). */
    void stop();

    /** Scheduler activity counters. */
    const SchedStats &stats() const { return stats_; }

    /** Runnable-but-waiting thread count (queue depth) on a CPU. */
    std::size_t queueDepth(CpuId cpu) const { return rq_[cpu].size(); }

    /**
     * Test hook: true when the incrementally kept load index, idle-core
     * mask and queued-CPU mask equal a recomputation from cpuLoad(),
     * cpuIdle() and the run queues over every CPU.
     */
    bool idleMasksConsistent() const;

  private:
    friend class Thread;

    /** Called by Thread::run to make a thread runnable. */
    void wake(Thread *t);

    /** Called by Thread::setAffinity to re-place the thread if needed. */
    void onAffinityChanged(Thread *t);

    /** Wake placement: choose the CPU to enqueue a waking thread on. */
    CpuId selectCpu(Thread *t);

    /** True when the CPU has no running, reserved, or queued thread. */
    bool cpuIdle(CpuId cpu) const;

    /** Instantaneous load: running (incl. reserved) + queued. */
    unsigned cpuLoad(CpuId cpu) const;

    /** First idle allowed CPU in `mask`, preferring whole idle cores. */
    CpuId findIdleIn(const CpuMask &mask) const;

    /**
     * Re-derive the load_ entry and queued_ bit of `cpu` and the
     * idle_core_ bits of `cpu` and its SMT sibling. Called after every
     * change to a CPU's queue, reservation or running context.
     */
    void refreshLoad(CpuId cpu);

    void enqueue(Thread *t, CpuId cpu);
    Thread *dequeueNext(CpuId cpu);
    void removeFromQueue(Thread *t);

    /** If `cpu` is free, dispatch the next queued thread onto it. */
    void schedule(CpuId cpu);

    /** Place a specific thread onto a free CPU (handles switch cost). */
    void dispatch(Thread *t, CpuId cpu);

    /** Engine callback: thread's work item retired. */
    void onWorkComplete(Thread *t);

    /** Periodic preemption pass over all busy CPUs. */
    void preemptTick();

    /** Preempt the running thread on a CPU (stays runnable). */
    void preempt(CpuId cpu);

    /** Periodic load balancing: pull work towards idle CPUs. */
    void balancePass();

    /** Steal one runnable thread for a newly idle CPU. */
    bool newIdlePull(CpuId cpu);

    /** Steal for `cpu` from its CCX, then its node, then anywhere. */
    Thread *stealFor(CpuId cpu);

    /** Try to steal for `for_cpu` from the other queues in `domain`. */
    Thread *stealFrom(const CpuMask &domain, CpuId for_cpu);

    sim::Simulation &sim_;
    const topo::Machine &machine_;
    cpu::ExecEngine &engine_;
    SchedParams params_;
    Rng rng_;

    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<std::deque<Thread *>> rq_; // per-cpu runnable threads
    std::vector<Thread *> on_cpu_;         // dispatched thread per cpu
    std::vector<Thread *> reserved_;       // mid-switch occupant per cpu
    std::vector<Thread *> last_ran_;       // previous occupant per cpu
    std::vector<double> min_vruntime_;     // per-cpu floor
    LoadIndex load_;    // cpuLoad() per cpu; load 0 = cpuIdle()
    CpuMask idle_core_; // idle CPUs whose SMT sibling is idle (or absent)
    CpuMask queued_;    // CPUs whose run queue is non-empty

    sim::PeriodicEvent tick_;
    sim::PeriodicEvent balancer_;
    bool started_ = false;

    SchedStats stats_;
    std::uint32_t next_tid_ = 1;
};

} // namespace microscale::os

#endif // MICROSCALE_OS_KERNEL_HH

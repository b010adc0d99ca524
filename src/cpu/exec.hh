/**
 * @file
 * The execution engine: piecewise-constant-rate instruction retirement.
 *
 * An ExecContext is the CPU-side of a schedulable thread. The OS layer
 * assigns work (a WorkProfile plus an instruction budget) and places
 * the context on logical CPUs; the engine converts dynamic machine
 * conditions into a retire rate and fires a completion callback when
 * the budget is exhausted.
 *
 * Rate = freq(socket) / CPI / smt, where
 *   CPI = 1/ipcBase
 *       + branchMpki/1000 * branchPenalty
 *       + icacheMpki/1000 * l2Latency
 *       + l3Apki/1000 * [ miss * memLatencyCycles(NUMA)
 *                       + (1-miss) * l3LatencyCycles ]
 * and the L3 miss ratio follows a proportional-share occupancy model
 * over the threads currently running on the same CCX, with a cold-cache
 * surcharge after cross-CCX migrations.
 *
 * Whenever conditions change (SMT sibling start/stop, CCX occupancy
 * change, socket frequency bucket crossing), affected contexts bank
 * their progress at the old rate and move their pending completion
 * event to the new finish tick (Simulation::rearmAt).
 */

#ifndef MICROSCALE_CPU_EXEC_HH
#define MICROSCALE_CPU_EXEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/cpumask.hh"
#include "base/types.hh"
#include "cpu/counters.hh"
#include "cpu/work.hh"
#include "sim/simulation.hh"
#include "topo/machine.hh"

namespace microscale::cpu
{

class ExecEngine;

/** Tunables of the performance model beyond topology parameters. */
struct PerfModelParams
{
    /** Cycles lost per mispredicted branch. */
    double branchPenaltyCycles = 16.0;
    /** Miss ratio floor (compulsory misses) when fully L3-resident. */
    double missFloor = 0.03;
    /** Miss ratio while refilling after a cross-CCX migration. */
    double coldMissRatio = 0.95;
    /** Minimum L3 share a workload can be squeezed to (bytes). */
    double minL3ShareBytes = 512.0 * 1024;
    /**
     * Bytes a migrating thread must refill before its cache is warm
     * (its private hot data; the service-shared portion may already be
     * resident on the target CCX).
     */
    double coldRefillBytes = 2.0 * 1024 * 1024;
    /**
     * Extra throughput multiplier (on top of smtYield) when the SMT
     * sibling runs a *different* profile: heterogeneous pairs thrash
     * the private caches and partitioned core resources harder than
     * homogeneous pairs.
     */
    double smtHeteroFactor = 0.92;
};

/**
 * CPU-side state of one schedulable thread.
 *
 * Mutable execution fields are owned by the ExecEngine; users only set
 * identity and read counters.
 */
class ExecContext
{
  public:
    ExecContext(std::string name, NodeId home_node)
        : name_(std::move(name)), home_node_(home_node)
    {
    }

    ExecContext(const ExecContext &) = delete;
    ExecContext &operator=(const ExecContext &) = delete;

    const std::string &name() const { return name_; }

    /** NUMA node where this thread's memory is homed. */
    NodeId homeNode() const { return home_node_; }
    /** Re-home memory (models migration of pages, used by policies). */
    void setHomeNode(NodeId node) { home_node_ = node; }

    /** Counters accumulated since construction (or last reset). */
    PerfCounters &counters() { return counters_; }
    const PerfCounters &counters() const { return counters_; }

    /** True while a work item is attached (complete or not). */
    bool hasWork() const { return profile_ != nullptr; }
    /** Instructions left in the current work item. */
    double remainingInstructions() const { return remaining_; }
    /** Currently scheduled CPU, or kInvalidCpu. */
    CpuId cpu() const { return cpu_; }
    /** True while placed on a CPU. */
    bool running() const { return cpu_ != kInvalidCpu; }
    /** CPU this context last ran on (for wake placement). */
    CpuId lastCpu() const { return last_cpu_; }
    /** Profile of the attached work item, or nullptr. */
    const WorkProfile *profile() const { return profile_; }
    /** True while refilling its cache after a cross-CCX migration. */
    bool cold() const { return cold_accesses_left_ > 0.0; }
    /** L3 miss ratio of the last rate computation. */
    double missRatio() const { return miss_ratio_; }

  private:
    friend class ExecEngine;

    std::string name_;
    NodeId home_node_;
    PerfCounters counters_;

    // Current work item.
    const WorkProfile *profile_ = nullptr;
    double remaining_ = 0.0;
    sim::EventFn on_complete_;

    // Execution state managed by the engine.
    CpuId cpu_ = kInvalidCpu;
    CpuId last_cpu_ = kInvalidCpu;
    CcxId last_ccx_ = ~CcxId(0);
    bool ever_ran_ = false;
    double cold_accesses_left_ = 0.0;
    Tick last_bank_ = 0;
    double rate_ = 0.0;       // instructions per ns at last computation
    double miss_ratio_ = 0.0; // L3 miss ratio at last computation
    bool sibling_busy_ = false;
    sim::EventHandle completion_;
};

/**
 * The machine-wide execution engine. One instance per simulation.
 */
class ExecEngine
{
  public:
    ExecEngine(sim::Simulation &sim, const topo::Machine &machine,
               PerfModelParams params = {});

    const topo::Machine &machine() const { return machine_; }
    const PerfModelParams &params() const { return params_; }

    /**
     * Attach a work item to an idle context. The callback fires (from
     * the event loop) once the instruction budget retires; by then the
     * context has already been removed from its CPU.
     */
    void setWork(ExecContext &ctx, const WorkProfile &profile,
                 double instructions, sim::EventFn on_complete);

    /** Begin executing the context's work on an idle CPU. */
    void startRun(ExecContext &ctx, CpuId cpu);

    /**
     * Preempt: bank progress and free the CPU. The work item stays
     * attached and resumes at the next startRun.
     */
    void stopRun(ExecContext &ctx);

    /** Context currently on `cpu`, or nullptr. */
    ExecContext *runningOn(CpuId cpu) const { return running_[cpu]; }

    /** CPUs with a running context: {c : runningOn(c) != nullptr}. */
    const CpuMask &busyCpus() const { return busy_; }

    /**
     * Charge non-retiring busy time (e.g. a context-switch) to a CPU;
     * counted as kernel cycles in `attribute_to` when given.
     */
    void chargeOverhead(CpuId cpu, Tick duration,
                        PerfCounters *attribute_to);

    /**
     * Bank the progress of every running context up to now. Counters
     * are otherwise only updated at events; call this before taking
     * measurement snapshots so windows are exact.
     */
    void bankAll();

    /** Busy nanoseconds accumulated on a CPU (work + overhead). */
    double cpuBusyNs(CpuId cpu) const { return cpu_busy_ns_[cpu]; }

    /** Snapshot of all per-CPU busy counters. */
    std::vector<double> cpuBusySnapshot() const { return cpu_busy_ns_; }

    /**
     * Instantaneous retire rate (instructions/ns) the engine would give
     * this context on this CPU under current conditions. Exposed for
     * tests and for what-if queries by placement policies.
     */
    double rateOn(const ExecContext &ctx, CpuId cpu) const;

    /** The L3 miss ratio behind rateOn(ctx, cpu). */
    double missRatioOn(const ExecContext &ctx, CpuId cpu) const;

    /** Current socket frequency in GHz. */
    double socketFreqGhz(SocketId socket) const;

    /** Number of cores with at least one busy hardware thread. */
    unsigned activeCores(SocketId socket) const
    {
        return active_cores_[socket];
    }

  private:
    /** Bank progress of a running context up to now at its old rate. */
    void bank(ExecContext &ctx);

    /**
     * Recompute rate and re-arm the completion event. The profiles of
     * the context's CCX must be collected (collectProfiles).
     */
    void reprice(ExecContext &ctx);

    /** Bank + reprice every running context in a CCX. */
    void repriceCcx(CcxId ccx);

    /** Bank + reprice every running context in a socket. */
    void repriceSocket(SocketId socket);

    /** Completion event body. */
    void complete(ExecContext &ctx);

    /** Detach from CPU and update occupancy (shared by stop/complete). */
    void detach(ExecContext &ctx);

    /**
     * Collect the distinct profiles running on `ccx` into prof_, in
     * first-occurrence CPU order, and forget their memoized ratios.
     * The set holds until a context starts or stops on the CCX.
     */
    void collectProfiles(CcxId ccx) const;

    /**
     * L3 miss ratio of a thread running `p` on the CCX last collected.
     * The non-cold ratio is memoized per profile slot, so threads of
     * one profile share it until the next collectProfiles.
     */
    double missRatio(const WorkProfile &p, bool cold) const;
    /** Retire rate on `cpu` given an already computed L3 miss ratio. */
    double computeRate(const ExecContext &ctx, CpuId cpu, bool sibling_busy,
                       double miss) const;
    bool siblingBusy(CpuId cpu) const;

    /**
     * Refresh socket frequency; returns true if it changed. Only an
     * active-core count change can change it, so callers skip it
     * otherwise.
     */
    bool updateSocketFreq(SocketId socket);

    sim::Simulation &sim_;
    const topo::Machine &machine_;
    PerfModelParams params_;

    std::vector<ExecContext *> running_;  // per cpu
    CpuMask busy_;                        // CPUs with running_ set
    std::vector<unsigned> core_busy_;     // busy hw threads per core
    std::vector<unsigned> active_cores_;  // per socket
    std::vector<double> socket_freq_ghz_; // per socket (quantized)
    std::vector<double> cpu_busy_ns_;     // per cpu
    // collectProfiles' distinct-profile set (room for a whole CCX) and
    // missRatio's memo per slot (NaN = not yet computed).
    mutable std::vector<const WorkProfile *> prof_;
    mutable std::vector<double> prof_ratio_;
    mutable unsigned n_prof_ = 0;
};

} // namespace microscale::cpu

#endif // MICROSCALE_CPU_EXEC_HH

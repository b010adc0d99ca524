/**
 * @file
 * Machine: the immutable topology object every other module consults.
 *
 * Logical CPU numbering follows the Linux convention on SMT x86
 * servers: CPUs [0, cores) are the first hardware thread of each core,
 * CPUs [cores, 2*cores) are the SMT siblings, i.e. CPU c and CPU
 * c + numCores() share a core. Cores are numbered contiguously within
 * a CCX, CCXs within a node, nodes within a socket.
 *
 * Every per-CPU relation and every domain mask is precomputed at
 * construction into flat tables, so the hot-path lookups the exec
 * model and the scheduler make per event are a single load.
 */

#ifndef MICROSCALE_TOPO_MACHINE_HH
#define MICROSCALE_TOPO_MACHINE_HH

#include <span>
#include <vector>

#include "base/cpumask.hh"
#include "base/types.hh"
#include "topo/params.hh"

namespace microscale::topo
{

/**
 * Immutable machine topology with O(1) structural lookups.
 */
class Machine
{
  public:
    /** Build from validated parameters (validate() is called here). */
    explicit Machine(MachineParams params);

    const MachineParams &params() const { return params_; }
    const std::string &name() const { return params_.name; }

    unsigned numCpus() const { return params_.totalCpus(); }
    unsigned numCores() const { return params_.totalCores(); }
    unsigned numCcxs() const
    {
        return params_.sockets * params_.nodesPerSocket *
               params_.ccxsPerNode;
    }
    unsigned numNodes() const
    {
        return params_.sockets * params_.nodesPerSocket;
    }
    unsigned numSockets() const { return params_.sockets; }
    unsigned threadsPerCore() const { return params_.threadsPerCore; }
    unsigned coresPerCcx() const { return params_.coresPerCcx; }

    /** Physical core of a logical CPU. */
    CoreId coreOf(CpuId cpu) const
    {
        if (cpu >= core_of_.size())
            cpuOutOfRange("coreOf", cpu);
        return core_of_[cpu];
    }
    /** CCX (shared-L3 domain) of a logical CPU. */
    CcxId ccxOf(CpuId cpu) const
    {
        if (cpu >= ccx_of_.size())
            cpuOutOfRange("ccxOf", cpu);
        return ccx_of_[cpu];
    }
    /** NUMA node of a logical CPU. */
    NodeId nodeOf(CpuId cpu) const
    {
        if (cpu >= node_of_.size())
            cpuOutOfRange("nodeOf", cpu);
        return node_of_[cpu];
    }
    /** Socket of a logical CPU. */
    SocketId socketOf(CpuId cpu) const
    {
        if (cpu >= socket_of_.size())
            cpuOutOfRange("socketOf", cpu);
        return socket_of_[cpu];
    }

    /** SMT sibling CPU, or kInvalidCpu when SMT is off. */
    CpuId siblingOf(CpuId cpu) const
    {
        if (cpu >= sibling_of_.size())
            cpuOutOfRange("siblingOf", cpu);
        return sibling_of_[cpu];
    }
    /** True when `cpu` is the first hardware thread of its core. */
    bool isPrimaryThread(CpuId cpu) const { return cpu < numCores(); }

    /** All logical CPUs of one core. */
    CpuMask cpusOfCore(CoreId core) const;
    /** All logical CPUs of one CCX. */
    CpuMask cpusOfCcx(CcxId ccx) const;
    /** All logical CPUs of one NUMA node. */
    CpuMask cpusOfNode(NodeId node) const;
    /** All logical CPUs of one socket. */
    CpuMask cpusOfSocket(SocketId socket) const;
    /** Every logical CPU in the machine. */
    const CpuMask &allCpus() const { return all_cpus_; }
    /** The first hardware thread of every core (the SMT-off view). */
    const CpuMask &primaryThreads() const { return primary_threads_; }

    /** All logical CPUs of one CCX, without a copy. */
    const CpuMask &ccxMask(CcxId ccx) const
    {
        if (ccx >= ccx_masks_.size())
            domainOutOfRange("ccxMask", ccx);
        return ccx_masks_[ccx];
    }
    /** All logical CPUs of one NUMA node, without a copy. */
    const CpuMask &nodeMask(NodeId node) const
    {
        if (node >= node_masks_.size())
            domainOutOfRange("nodeMask", node);
        return node_masks_[node];
    }
    /** All logical CPUs of one socket, without a copy. */
    const CpuMask &socketMask(SocketId socket) const
    {
        if (socket >= socket_masks_.size())
            domainOutOfRange("socketMask", socket);
        return socket_masks_[socket];
    }
    /** The logical CPUs of one CCX in ascending order. */
    std::span<const CpuId> ccxCpus(CcxId ccx) const
    {
        if (ccx >= ccx_masks_.size())
            domainOutOfRange("ccxCpus", ccx);
        return {ccx_cpus_.data() + std::size_t(ccx) * cpus_per_ccx_,
                cpus_per_ccx_};
    }
    /** Logical CPUs per CCX (every CCX has the same count). */
    unsigned cpusPerCcx() const { return cpus_per_ccx_; }

    /** NUMA node a CCX belongs to. */
    NodeId nodeOfCcx(CcxId ccx) const;
    /** Socket a NUMA node belongs to. */
    SocketId socketOfNode(NodeId node) const;
    /** CCX ids belonging to a node. */
    std::vector<CcxId> ccxsOfNode(NodeId node) const;

    /**
     * DRAM access latency in nanoseconds for a core on node `from`
     * touching memory homed on node `to`.
     */
    double memLatencyNs(NodeId from, NodeId to) const;

    /** One-line summary, e.g. "rome128: 1S x 4N x 4CCX x 4C x SMT2". */
    std::string describe() const;

  private:
    [[noreturn]] static void cpuOutOfRange(const char *what, CpuId cpu);
    [[noreturn]] static void domainOutOfRange(const char *what,
                                              unsigned id);

    MachineParams params_;
    CpuMask all_cpus_;
    CpuMask primary_threads_;
    std::vector<double> mem_latency_; // numNodes x numNodes

    // Per-CPU relations, indexed by CpuId.
    std::vector<CoreId> core_of_;
    std::vector<CcxId> ccx_of_;
    std::vector<NodeId> node_of_;
    std::vector<SocketId> socket_of_;
    std::vector<CpuId> sibling_of_;
    // Domain masks, indexed by domain id.
    std::vector<CpuMask> ccx_masks_;
    std::vector<CpuMask> node_masks_;
    std::vector<CpuMask> socket_masks_;
    // CPUs of each CCX in ascending order, cpus_per_ccx_ per CCX.
    std::vector<CpuId> ccx_cpus_;
    unsigned cpus_per_ccx_ = 0;
};

} // namespace microscale::topo

#endif // MICROSCALE_TOPO_MACHINE_HH

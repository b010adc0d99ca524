#include "topo/machine.hh"

#include <sstream>

#include "base/logging.hh"

namespace microscale::topo
{

Machine::Machine(MachineParams params) : params_(std::move(params))
{
    params_.validate();
    all_cpus_ = CpuMask::firstN(numCpus());
    primary_threads_ = CpuMask::firstN(numCores());

    const unsigned nodes = numNodes();
    mem_latency_.resize(static_cast<std::size_t>(nodes) * nodes);
    for (NodeId from = 0; from < nodes; ++from) {
        for (NodeId to = 0; to < nodes; ++to) {
            double lat = params_.mem.localLatencyNs;
            if (from != to) {
                lat *= socketOfNode(from) == socketOfNode(to)
                           ? params_.mem.intraSocketFactor
                           : params_.mem.interSocketFactor;
            }
            mem_latency_[static_cast<std::size_t>(from) * nodes + to] = lat;
        }
    }

    const unsigned cpus = numCpus();
    const unsigned cores = numCores();
    ccx_masks_.resize(numCcxs());
    node_masks_.resize(nodes);
    socket_masks_.resize(numSockets());
    for (CpuId cpu = 0; cpu < cpus; ++cpu) {
        const CoreId core = cpu % cores;
        const CcxId ccx = core / params_.coresPerCcx;
        const NodeId node = ccx / params_.ccxsPerNode;
        const SocketId socket = node / params_.nodesPerSocket;
        core_of_.push_back(core);
        ccx_of_.push_back(ccx);
        node_of_.push_back(node);
        socket_of_.push_back(socket);
        sibling_of_.push_back(params_.threadsPerCore < 2 ? kInvalidCpu
                              : cpu < cores             ? cpu + cores
                                                        : cpu - cores);
        ccx_masks_[ccx].set(cpu);
        node_masks_[node].set(cpu);
        socket_masks_[socket].set(cpu);
    }
    cpus_per_ccx_ = params_.coresPerCcx * params_.threadsPerCore;
    for (const CpuMask &m : ccx_masks_) {
        for (CpuId cpu : m)
            ccx_cpus_.push_back(cpu);
    }
}

void
Machine::cpuOutOfRange(const char *what, CpuId cpu)
{
    MS_PANIC(what, ": cpu ", cpu, " out of range");
}

void
Machine::domainOutOfRange(const char *what, unsigned id)
{
    MS_PANIC(what, ": id ", id, " out of range");
}

CpuMask
Machine::cpusOfCore(CoreId core) const
{
    if (core >= numCores())
        MS_PANIC("cpusOfCore: core ", core, " out of range");
    CpuMask m = CpuMask::single(core);
    if (params_.threadsPerCore == 2)
        m.set(core + numCores());
    return m;
}

CpuMask
Machine::cpusOfCcx(CcxId ccx) const
{
    return ccxMask(ccx);
}

CpuMask
Machine::cpusOfNode(NodeId node) const
{
    return nodeMask(node);
}

CpuMask
Machine::cpusOfSocket(SocketId socket) const
{
    return socketMask(socket);
}

NodeId
Machine::nodeOfCcx(CcxId ccx) const
{
    if (ccx >= numCcxs())
        MS_PANIC("nodeOfCcx: ccx ", ccx, " out of range");
    return ccx / params_.ccxsPerNode;
}

SocketId
Machine::socketOfNode(NodeId node) const
{
    if (node >= numNodes())
        MS_PANIC("socketOfNode: node ", node, " out of range");
    return node / params_.nodesPerSocket;
}

std::vector<CcxId>
Machine::ccxsOfNode(NodeId node) const
{
    if (node >= numNodes())
        MS_PANIC("ccxsOfNode: node ", node, " out of range");
    std::vector<CcxId> out;
    const CcxId first = node * params_.ccxsPerNode;
    for (CcxId x = first; x < first + params_.ccxsPerNode; ++x)
        out.push_back(x);
    return out;
}

double
Machine::memLatencyNs(NodeId from, NodeId to) const
{
    const unsigned nodes = numNodes();
    if (from >= nodes || to >= nodes)
        MS_PANIC("memLatencyNs: node out of range: ", from, ", ", to);
    return mem_latency_[static_cast<std::size_t>(from) * nodes + to];
}

std::string
Machine::describe() const
{
    std::ostringstream os;
    os << params_.name << ": " << params_.sockets << "S x "
       << params_.nodesPerSocket << "N x " << params_.ccxsPerNode
       << "CCX x " << params_.coresPerCcx << "C x SMT"
       << params_.threadsPerCore << " = " << numCpus() << " logical CPUs, "
       << params_.cache.l3BytesPerCcx / (1024 * 1024) << "MB L3/CCX, "
       << params_.freq.boostGhz << "-" << params_.freq.allCoreGhz
       << " GHz";
    return os.str();
}

} // namespace microscale::topo

/**
 * @file
 * Tests for the machine topology model, parameterized over every
 * preset to check structural invariants.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "topo/machine.hh"
#include "topo/presets.hh"

namespace microscale::topo
{
namespace
{

TEST(Machine, Rome128Shape)
{
    Machine m(rome128());
    EXPECT_EQ(m.numCpus(), 128u);
    EXPECT_EQ(m.numCores(), 64u);
    EXPECT_EQ(m.numCcxs(), 16u);
    EXPECT_EQ(m.numNodes(), 4u);
    EXPECT_EQ(m.numSockets(), 1u);
    EXPECT_EQ(m.threadsPerCore(), 2u);
}

TEST(Machine, LinuxStyleSmtNumbering)
{
    Machine m(rome128());
    // CPU c and c+64 share a core.
    EXPECT_EQ(m.siblingOf(0), 64u);
    EXPECT_EQ(m.siblingOf(64), 0u);
    EXPECT_EQ(m.siblingOf(63), 127u);
    EXPECT_EQ(m.coreOf(5), m.coreOf(69));
    EXPECT_TRUE(m.isPrimaryThread(5));
    EXPECT_FALSE(m.isPrimaryThread(69));
}

TEST(Machine, SmtOffHasNoSibling)
{
    Machine m(rome64smtOff());
    EXPECT_EQ(m.numCpus(), 64u);
    EXPECT_EQ(m.siblingOf(0), kInvalidCpu);
}

TEST(Machine, CcxAndNodeStructure)
{
    Machine m(rome128());
    // Cores 0-3 form CCX 0; cores 4-7 form CCX 1.
    EXPECT_EQ(m.ccxOf(0), 0u);
    EXPECT_EQ(m.ccxOf(3), 0u);
    EXPECT_EQ(m.ccxOf(4), 1u);
    // The SMT sibling is in the same CCX.
    EXPECT_EQ(m.ccxOf(64), 0u);
    // 4 CCXs per node.
    EXPECT_EQ(m.nodeOf(0), 0u);
    EXPECT_EQ(m.nodeOf(15), 0u);
    EXPECT_EQ(m.nodeOf(16), 1u);
    EXPECT_EQ(m.nodeOfCcx(3), 0u);
    EXPECT_EQ(m.nodeOfCcx(4), 1u);
    EXPECT_EQ(m.ccxsOfNode(1), (std::vector<CcxId>{4, 5, 6, 7}));
}

TEST(Machine, CpusOfCcxContainsBothThreads)
{
    Machine m(rome128());
    const CpuMask ccx0 = m.cpusOfCcx(0);
    EXPECT_EQ(ccx0.count(), 8u);
    EXPECT_TRUE(ccx0.test(0));
    EXPECT_TRUE(ccx0.test(3));
    EXPECT_TRUE(ccx0.test(64));
    EXPECT_TRUE(ccx0.test(67));
    EXPECT_FALSE(ccx0.test(4));
}

TEST(Machine, MemLatencyMatrix)
{
    const MachineParams p = rome128();
    Machine m(p);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(0, 0), p.mem.localLatencyNs);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(0, 1),
                     p.mem.localLatencyNs * p.mem.intraSocketFactor);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(1, 0), m.memLatencyNs(0, 1));
}

TEST(Machine, CrossSocketLatency)
{
    const MachineParams p = rome128x2();
    Machine m(p);
    EXPECT_EQ(m.numNodes(), 8u);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(0, 7),
                     p.mem.localLatencyNs * p.mem.interSocketFactor);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(0, 3),
                     p.mem.localLatencyNs * p.mem.intraSocketFactor);
}

TEST(Machine, DescribeMentionsName)
{
    Machine m(small8());
    EXPECT_NE(m.describe().find("small8"), std::string::npos);
}

TEST(MachineDeathTest, OutOfRangeLookupsPanic)
{
    Machine m(small8());
    EXPECT_DEATH(m.coreOf(m.numCpus()), "out of range");
    EXPECT_DEATH(m.cpusOfCcx(m.numCcxs()), "out of range");
    EXPECT_DEATH(m.memLatencyNs(9, 0), "out of range");
}

TEST(MachineDeathTest, InvalidParamsFatal)
{
    MachineParams p = small8();
    p.threadsPerCore = 3;
    EXPECT_EXIT(Machine{p}, ::testing::ExitedWithCode(1),
                "threadsPerCore");
}

TEST(Presets, LookupByName)
{
    for (const auto &name : presetNames()) {
        const MachineParams p = presetByName(name);
        EXPECT_EQ(p.name, name);
    }
}

TEST(PresetsDeathTest, UnknownNameFatal)
{
    EXPECT_EXIT(presetByName("not-a-machine"),
                ::testing::ExitedWithCode(1), "unknown machine preset");
}

/** Structural invariants that must hold for every preset. */
class PresetInvariants : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetInvariants, PartitionsAreConsistent)
{
    Machine m(presetByName(GetParam()));

    // Every CPU belongs to exactly the structures its ids claim.
    CpuMask all_from_ccxs;
    for (CcxId x = 0; x < m.numCcxs(); ++x) {
        const CpuMask mask = m.cpusOfCcx(x);
        EXPECT_EQ(mask.count(), m.coresPerCcx() * m.threadsPerCore());
        EXPECT_FALSE(all_from_ccxs.intersects(mask)); // disjoint
        all_from_ccxs |= mask;
        for (CpuId c : mask)
            EXPECT_EQ(m.ccxOf(c), x);
    }
    EXPECT_EQ(all_from_ccxs, m.allCpus());

    CpuMask all_from_nodes;
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        const CpuMask mask = m.cpusOfNode(n);
        EXPECT_FALSE(all_from_nodes.intersects(mask));
        all_from_nodes |= mask;
        for (CpuId c : mask)
            EXPECT_EQ(m.nodeOf(c), n);
    }
    EXPECT_EQ(all_from_nodes, m.allCpus());

    CpuMask all_from_sockets;
    for (SocketId s = 0; s < m.numSockets(); ++s)
        all_from_sockets |= m.cpusOfSocket(s);
    EXPECT_EQ(all_from_sockets, m.allCpus());

    // Sibling relation is an involution within the same core.
    for (CpuId c = 0; c < m.numCpus(); ++c) {
        const CpuId sib = m.siblingOf(c);
        if (m.threadsPerCore() == 1) {
            EXPECT_EQ(sib, kInvalidCpu);
        } else {
            EXPECT_NE(sib, c);
            EXPECT_EQ(m.siblingOf(sib), c);
            EXPECT_EQ(m.coreOf(sib), m.coreOf(c));
        }
    }

    // Primary threads cover each core exactly once.
    EXPECT_EQ(m.primaryThreads().count(), m.numCores());

    // Memory latency is symmetric and minimal on the diagonal.
    for (NodeId a = 0; a < m.numNodes(); ++a) {
        for (NodeId b = 0; b < m.numNodes(); ++b) {
            EXPECT_DOUBLE_EQ(m.memLatencyNs(a, b), m.memLatencyNs(b, a));
            EXPECT_GE(m.memLatencyNs(a, b), m.memLatencyNs(a, a));
        }
    }
}

/**
 * Every flat table and every mask accessor equals its arithmetic
 * definition from the Linux-style numbering.
 */
void
expectTablesMatchArithmetic(const Machine &m)
{
    SCOPED_TRACE(m.describe());
    const MachineParams &p = m.params();
    const unsigned cores = m.numCores();
    std::vector<CpuMask> ccxs(m.numCcxs()), nodes(m.numNodes()),
        sockets(m.numSockets());
    for (CpuId c = 0; c < m.numCpus(); ++c) {
        const CoreId core = c % cores;
        const CcxId ccx = core / p.coresPerCcx;
        const NodeId node = ccx / p.ccxsPerNode;
        const SocketId socket = node / p.nodesPerSocket;
        const CpuId sib = p.threadsPerCore < 2 ? kInvalidCpu
                          : c < cores         ? c + cores
                                              : c - cores;
        EXPECT_EQ(m.coreOf(c), core) << "cpu " << c;
        EXPECT_EQ(m.ccxOf(c), ccx) << "cpu " << c;
        EXPECT_EQ(m.nodeOf(c), node) << "cpu " << c;
        EXPECT_EQ(m.socketOf(c), socket) << "cpu " << c;
        EXPECT_EQ(m.siblingOf(c), sib) << "cpu " << c;
        ccxs[ccx].set(c);
        nodes[node].set(c);
        sockets[socket].set(c);
    }
    EXPECT_EQ(m.cpusPerCcx(), p.coresPerCcx * p.threadsPerCore);
    for (CcxId x = 0; x < m.numCcxs(); ++x) {
        EXPECT_EQ(m.ccxMask(x), ccxs[x]) << "ccx " << x;
        EXPECT_EQ(m.cpusOfCcx(x), ccxs[x]) << "ccx " << x;
        const std::vector<CpuId> listed(m.ccxCpus(x).begin(),
                                        m.ccxCpus(x).end());
        std::vector<CpuId> ascending;
        for (CpuId c : ccxs[x])
            ascending.push_back(c);
        EXPECT_EQ(listed, ascending) << "ccx " << x;
    }
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        EXPECT_EQ(m.nodeMask(n), nodes[n]) << "node " << n;
        EXPECT_EQ(m.cpusOfNode(n), nodes[n]) << "node " << n;
    }
    for (SocketId s = 0; s < m.numSockets(); ++s) {
        EXPECT_EQ(m.socketMask(s), sockets[s]) << "socket " << s;
        EXPECT_EQ(m.cpusOfSocket(s), sockets[s]) << "socket " << s;
    }
}

TEST_P(PresetInvariants, TablesMatchArithmetic)
{
    expectTablesMatchArithmetic(Machine(presetByName(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetInvariants,
                         ::testing::ValuesIn(presetNames()));

TEST(MachineTables, SmtOffMatchesArithmetic)
{
    for (MachineParams p : {rome128(), small8(), rome128x2()}) {
        p.threadsPerCore = 1;
        expectTablesMatchArithmetic(Machine(p));
    }
}

TEST(MachineTables, Fig10CcxSizesMatchArithmetic)
{
    // FIG-10's shapes: 16 cores per node cut into CCXs of 2-16 cores.
    for (unsigned cores_per_ccx : {2u, 4u, 8u, 16u}) {
        MachineParams p = rome128();
        p.coresPerCcx = cores_per_ccx;
        p.ccxsPerNode = 16 / cores_per_ccx;
        expectTablesMatchArithmetic(Machine(p));
    }
}

TEST(MachineTables, SixteenNodeClusterMatchesArithmetic)
{
    cluster::ClusterParams cp;
    cp.nodes = 16;
    cp.nodeMachine = server32();
    const Machine m(cluster::clusterMachine(cp));
    ASSERT_EQ(m.numCpus(), kMaxCpus);
    expectTablesMatchArithmetic(m);
}

} // namespace
} // namespace microscale::topo

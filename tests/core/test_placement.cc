/**
 * @file
 * Tests for budget masks and placement planning.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/placement.hh"
#include "topo/presets.hh"

namespace microscale::core
{
namespace
{

namespace ts = teastore;

class PlacementTest : public ::testing::Test
{
  protected:
    PlacementTest() : machine_(topo::rome128()) {}

    topo::Machine machine_;
    DemandShares demand_;
    BaselineSizing sizing_;
};

TEST_F(PlacementTest, BudgetMaskFullMachine)
{
    EXPECT_EQ(budgetMask(machine_, 0, true), machine_.allCpus());
    EXPECT_EQ(budgetMask(machine_, 64, true).count(), 128u);
}

TEST_F(PlacementTest, BudgetMaskSmtOff)
{
    const CpuMask m = budgetMask(machine_, 0, false);
    EXPECT_EQ(m, machine_.primaryThreads());
    EXPECT_EQ(m.count(), 64u);
}

TEST_F(PlacementTest, BudgetMaskPartialCores)
{
    const CpuMask m = budgetMask(machine_, 16, true);
    EXPECT_EQ(m.count(), 32u);
    EXPECT_TRUE(m.test(15));
    EXPECT_FALSE(m.test(16));
    EXPECT_TRUE(m.test(64 + 15)); // sibling included
    EXPECT_FALSE(m.test(64 + 16));
}

TEST_F(PlacementTest, DemandNormalize)
{
    DemandShares d;
    d.webui = 2;
    d.auth = 1;
    d.persistence = 1;
    d.recommender = 1;
    d.image = 5;
    d.normalize();
    EXPECT_NEAR(d.webui + d.auth + d.persistence + d.recommender +
                    d.image,
                1.0, 1e-12);
    EXPECT_NEAR(d.image, 0.5, 1e-12);
}

TEST_F(PlacementTest, DemandOfLookup)
{
    EXPECT_DOUBLE_EQ(demand_.of(ts::names::kWebui), demand_.webui);
    EXPECT_EXIT(demand_.of("nope"), ::testing::ExitedWithCode(1),
                "demand share");
}

TEST_F(PlacementTest, OsDefaultPlanUsesWholeBudget)
{
    const CpuMask budget = budgetMask(machine_, 0, true);
    const PlacementPlan plan = buildPlacement(
        PlacementKind::OsDefault, machine_, budget, demand_, sizing_);
    EXPECT_EQ(plan.services.size(), 6u);
    const ServicePlan &webui = plan.services.at(ts::names::kWebui);
    EXPECT_EQ(webui.replicas, sizing_.webui.replicas);
    for (const CpuMask &m : webui.masks)
        EXPECT_EQ(m, budget);
    for (NodeId h : webui.homes)
        EXPECT_EQ(h, kInvalidNode);
}

TEST_F(PlacementTest, CcxAwareCoversAllCcxsDisjointly)
{
    const CpuMask budget = budgetMask(machine_, 0, true);
    const PlacementPlan plan = buildPlacement(
        PlacementKind::CcxAware, machine_, budget, demand_, sizing_);

    unsigned total_replicas = 0;
    CpuMask covered;
    for (const auto &[name, sp] : plan.services) {
        if (name == ts::names::kRegistry)
            continue; // co-located, shares a CCX
        total_replicas += sp.replicas;
        for (unsigned r = 0; r < sp.replicas; ++r) {
            const CpuMask &m = sp.masks[r];
            // Each replica owns exactly one CCX.
            EXPECT_EQ(m.count(), 8u);
            for (CpuId c : m)
                EXPECT_EQ(machine_.ccxOf(c), machine_.ccxOf(m.first()));
            // Disjoint from everything assigned so far.
            EXPECT_FALSE(covered.intersects(m));
            covered |= m;
            // Memory homed on the CCX's node.
            EXPECT_EQ(sp.homes[r], machine_.nodeOfCcx(
                                       machine_.ccxOf(m.first())));
        }
    }
    EXPECT_EQ(total_replicas, machine_.numCcxs());
    EXPECT_EQ(covered, machine_.allCpus());
}

TEST_F(PlacementTest, CcxAwareFollowsDemand)
{
    const CpuMask budget = budgetMask(machine_, 0, true);
    const PlacementPlan plan = buildPlacement(
        PlacementKind::CcxAware, machine_, budget, demand_, sizing_);
    // image (0.35) gets more CCXs than auth (0.08).
    EXPECT_GT(plan.services.at(ts::names::kImage).replicas,
              plan.services.at(ts::names::kAuth).replicas);
    // Everyone gets at least one.
    for (const auto &[name, sp] : plan.services)
        EXPECT_GE(sp.replicas, 1u) << name;
}

TEST_F(PlacementTest, RegistryColocatedWithAuth)
{
    const PlacementPlan plan = buildPlacement(
        PlacementKind::CcxAware, machine_,
        budgetMask(machine_, 0, true), demand_, sizing_);
    EXPECT_EQ(plan.services.at(ts::names::kRegistry).masks[0],
              plan.services.at(ts::names::kAuth).masks[0]);
}

TEST_F(PlacementTest, NodeAwareConfinesReplicasToNodes)
{
    const PlacementPlan plan = buildPlacement(
        PlacementKind::NodeAware, machine_,
        budgetMask(machine_, 0, true), demand_, sizing_);
    for (const auto &[name, sp] : plan.services) {
        for (unsigned r = 0; r < sp.replicas; ++r) {
            const NodeId home = sp.homes[r];
            ASSERT_NE(home, kInvalidNode);
            EXPECT_EQ(sp.masks[r], machine_.cpusOfNode(home)) << name;
        }
    }
    // Baseline replica counts preserved.
    EXPECT_EQ(plan.services.at(ts::names::kWebui).replicas,
              sizing_.webui.replicas);
}

TEST_F(PlacementTest, StripedMemSpreadsHomes)
{
    const PlacementPlan plan = buildPlacement(
        PlacementKind::CcxStripedMem, machine_,
        budgetMask(machine_, 0, true), demand_, sizing_);
    std::set<NodeId> homes;
    for (const auto &[name, sp] : plan.services) {
        for (NodeId h : sp.homes)
            homes.insert(h);
    }
    EXPECT_EQ(homes.size(), machine_.numNodes());
    // At least one replica must be remote from its CCX's node.
    bool any_remote = false;
    for (const auto &[name, sp] : plan.services) {
        for (unsigned r = 0; r < sp.replicas; ++r) {
            const NodeId local =
                machine_.nodeOfCcx(machine_.ccxOf(sp.masks[r].first()));
            if (sp.homes[r] != local)
                any_remote = true;
        }
    }
    EXPECT_TRUE(any_remote);
}

TEST_F(PlacementTest, SmallBudgetStillPlacesEveryService)
{
    // 8 cores (2 CCXs) for 5 services: CCXs must be shared.
    const CpuMask budget = budgetMask(machine_, 8, true);
    const PlacementPlan plan = buildPlacement(
        PlacementKind::CcxAware, machine_, budget, demand_, sizing_);
    for (const auto &[name, sp] : plan.services) {
        EXPECT_GE(sp.replicas, 1u);
        for (const CpuMask &m : sp.masks) {
            EXPECT_FALSE(m.empty());
            EXPECT_TRUE(m.subsetOf(budget)) << name;
        }
    }
}

TEST_F(PlacementTest, SizeAppFromPlanCopiesCounts)
{
    const PlacementPlan plan = buildPlacement(
        PlacementKind::CcxAware, machine_,
        budgetMask(machine_, 0, true), demand_, sizing_);
    teastore::AppParams params;
    sizeAppFromPlan(params, plan);
    EXPECT_EQ(params.webui.replicas,
              plan.services.at(ts::names::kWebui).replicas);
    EXPECT_EQ(params.image.replicas,
              plan.services.at(ts::names::kImage).replicas);
}

TEST_F(PlacementTest, DescribeMentionsEveryService)
{
    const PlacementPlan plan = buildPlacement(
        PlacementKind::CcxAware, machine_,
        budgetMask(machine_, 0, true), demand_, sizing_);
    const std::string desc = plan.describe();
    for (const char *name :
         {ts::names::kWebui, ts::names::kAuth, ts::names::kPersistence,
          ts::names::kRecommender, ts::names::kImage,
          ts::names::kRegistry}) {
        EXPECT_NE(desc.find(name), std::string::npos) << name;
    }
}

TEST_F(PlacementTest, PlacementNamesUnique)
{
    std::set<std::string> names;
    for (PlacementKind k : allPlacements())
        names.insert(placementName(k));
    EXPECT_EQ(names.size(), allPlacements().size());
}

TEST_F(PlacementTest, DeathOnEmptyBudget)
{
    EXPECT_EXIT(buildPlacement(PlacementKind::CcxAware, machine_,
                               CpuMask(), demand_, sizing_),
                ::testing::ExitedWithCode(1), "empty");
}

/**
 * Property: for random demand shares and random budgets, every
 * policy's plan is structurally valid - every service present, masks
 * non-empty and within budget, CCX-aware masks confined to one CCX,
 * homes valid nodes (or first-touch).
 */
class PlacementProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PlacementProperty, PlansAreAlwaysValid)
{
    Rng rng(GetParam());
    topo::Machine machine(topo::rome128());
    BaselineSizing sizing;

    for (int round = 0; round < 20; ++round) {
        DemandShares d;
        d.webui = rng.uniformReal(0.01, 1.0);
        d.auth = rng.uniformReal(0.01, 1.0);
        d.persistence = rng.uniformReal(0.01, 1.0);
        d.recommender = rng.uniformReal(0.01, 1.0);
        d.image = rng.uniformReal(0.01, 1.0);
        const unsigned cores =
            static_cast<unsigned>(rng.uniformInt(4, 64));
        const bool smt = rng.chance(0.5);
        const CpuMask budget = budgetMask(machine, cores, smt);

        for (PlacementKind kind : allPlacements()) {
            const PlacementPlan plan =
                buildPlacement(kind, machine, budget, d, sizing);
            EXPECT_EQ(plan.services.size(), 6u);
            for (const auto &[name, sp] : plan.services) {
                ASSERT_GE(sp.replicas, 1u) << name;
                ASSERT_EQ(sp.masks.size(), sp.replicas) << name;
                ASSERT_EQ(sp.homes.size(), sp.replicas) << name;
                for (unsigned r = 0; r < sp.replicas; ++r) {
                    EXPECT_FALSE(sp.masks[r].empty()) << name;
                    EXPECT_TRUE(sp.masks[r].subsetOf(budget)) << name;
                    if (sp.homes[r] != kInvalidNode) {
                        EXPECT_LT(sp.homes[r], machine.numNodes());
                    }
                    if (kind == PlacementKind::CcxAware ||
                        kind == PlacementKind::CcxStripedMem) {
                        const CcxId ccx =
                            machine.ccxOf(sp.masks[r].first());
                        for (CpuId c : sp.masks[r])
                            EXPECT_EQ(machine.ccxOf(c), ccx) << name;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementProperty,
                         ::testing::Values(11, 22, 33, 44));

} // namespace
} // namespace microscale::core

/**
 * @file
 * Second wave of application-model tests: database-driven costs,
 * payload shapes, profile op chains, and placement interaction.
 */

#include <gtest/gtest.h>

#include "net/network.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "teastore/app.hh"
#include "topo/presets.hh"

namespace microscale::teastore
{
namespace
{

/** A fresh world around an App with the given store size. */
struct World
{
    sim::Simulation sim;
    topo::Machine machine{topo::small8()};
    cpu::ExecEngine engine{sim, machine};
    os::Kernel kernel{sim, machine, engine, os::SchedParams{}, 1};
    net::Network network{sim, net::NetParams{}, 1};
    svc::Mesh mesh{kernel, network, svc::RpcCostParams{}, 1};
    App app;

    explicit World(AppParams p) : app(mesh, p, 1) { kernel.start(); }

    /** Run one external op to completion; returns true on response. */
    bool
    runOp(const char *op, svc::Payload req)
    {
        bool got = false;
        mesh.callExternal(names::kWebui, op, req,
                          [&](const svc::Payload &) { got = true; });
        sim.run();
        return got;
    }
};

AppParams
tiny(unsigned products_per_category = 10)
{
    AppParams p;
    p.store.categories = 4;
    p.store.productsPerCategory = products_per_category;
    p.store.users = 10;
    p.webui = {1, 4};
    p.auth = {1, 4};
    p.persistence = {1, 4};
    p.recommender = {1, 2};
    p.image = {1, 4};
    p.registry = {1, 1};
    p.heartbeats = false;
    return p;
}

TEST(App2, BiggerPagesCostMorePersistenceWork)
{
    // Category page cost scales with rows touched.
    AppParams small_catalog = tiny(10);
    AppParams big_catalog = tiny(100); // full 20-product pages

    World a(small_catalog);
    svc::Payload req;
    req.arg0 = 1;
    req.arg1 = 0;
    ASSERT_TRUE(a.runOp("category", req));
    const double small_work =
        a.app.persistence().aggregateCounters().instructions;

    World b(big_catalog);
    ASSERT_TRUE(b.runOp("category", req));
    const double big_work =
        b.app.persistence().aggregateCounters().instructions;

    EXPECT_GT(big_work, small_work * 1.2);
}

TEST(App2, ImageWorkScalesWithPreviewCount)
{
    // home fetches 4 previews; category fetches a full page (10 here).
    World a(tiny());
    ASSERT_TRUE(a.runOp("home", svc::Payload{}));
    const double home_img =
        a.app.image().aggregateCounters().instructions;

    World b(tiny());
    svc::Payload req;
    req.arg0 = 1;
    req.arg1 = 0;
    ASSERT_TRUE(b.runOp("category", req));
    const double cat_img =
        b.app.image().aggregateCounters().instructions;
    EXPECT_GT(cat_img, home_img * 1.5);
}

TEST(App2, CacheHitRatioControlsImageWork)
{
    AppParams hot = tiny();
    hot.imageCacheHitRatio = 1.0;
    AppParams cold = tiny();
    cold.imageCacheHitRatio = 0.0;

    svc::Payload req;
    req.arg0 = 1;
    req.arg1 = 0;
    World a(hot);
    ASSERT_TRUE(a.runOp("category", req));
    World b(cold);
    ASSERT_TRUE(b.runOp("category", req));
    EXPECT_GT(b.app.image().aggregateCounters().instructions,
              a.app.image().aggregateCounters().instructions * 3.0);
}

TEST(App2, ProfileOpQueriesUserAndOrders)
{
    World w(tiny());
    svc::Payload req;
    req.arg0 = 3; // user
    ASSERT_TRUE(w.runOp("profile", req));
    // user + ordersOfUser = two persistence requests.
    EXPECT_EQ(w.app.persistence().requestsProcessed(), 2u);
    EXPECT_EQ(
        w.app.persistence().opStats().at("ordersOfUser").requests, 1u);
}

TEST(App2, CheckoutThenProfileSeesOrders)
{
    World w(tiny());
    svc::Payload req;
    req.arg0 = 5; // user
    ASSERT_TRUE(w.runOp("checkout", req));
    ASSERT_TRUE(w.runOp("checkout", req));
    EXPECT_EQ(w.app.store().orderCount(), 2u);
    db::QueryCost cost;
    EXPECT_EQ(w.app.store().ordersOfUser(5, 10, cost).size(), 2u);
}

TEST(App2, UnknownProductIsHandledGracefully)
{
    World w(tiny());
    svc::Payload req;
    req.arg0 = 999999; // not in the catalog
    req.arg1 = 1;
    EXPECT_TRUE(w.runOp("product", req));
}

TEST(App2, PinningAppServicesKeepsThemInPlace)
{
    World w(tiny());
    const CpuMask ccx1 = w.machine.cpusOfCcx(1);
    for (unsigned r = 0; r < w.app.image().replicaCount(); ++r)
        w.app.image().setReplicaPlacement(r, ccx1, 0);

    svc::Payload req;
    req.arg0 = 1;
    req.arg1 = 0;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(w.runOp("category", req));
    for (const svc::Worker &worker : w.app.image().workers()) {
        const CpuId last = worker.thread->ec().lastCpu();
        if (last != kInvalidCpu) {
            EXPECT_TRUE(ccx1.test(last));
        }
    }
}

TEST(App2, WebuiResponseSizesDifferByOp)
{
    World w(tiny());
    std::uint32_t home_bytes = 0, category_bytes = 0;
    w.mesh.callExternal(names::kWebui, "home", svc::Payload{},
                        [&](const svc::Payload &r) {
                            home_bytes = r.bytes;
                        });
    w.sim.run();
    svc::Payload req;
    req.arg0 = 1;
    w.mesh.callExternal(names::kWebui, "category", req,
                        [&](const svc::Payload &r) {
                            category_bytes = r.bytes;
                        });
    w.sim.run();
    EXPECT_GT(home_bytes, 0u);
    EXPECT_GT(category_bytes, home_bytes);
}

TEST(App2, DeterministicAcrossIdenticalWorlds)
{
    auto run = [] {
        World w(tiny());
        svc::Payload req;
        req.arg0 = 2;
        req.arg1 = 0;
        w.runOp("category", req);
        return w.sim.now();
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace microscale::teastore

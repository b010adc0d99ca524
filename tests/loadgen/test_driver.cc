/**
 * @file
 * Tests for the load drivers and the measurement window.
 */

#include <gtest/gtest.h>

#include "loadgen/driver.hh"
#include "net/network.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "topo/presets.hh"

namespace microscale::loadgen
{
namespace
{

using teastore::OpType;

/** TeaStore op indexes, as the drivers record them. */
constexpr unsigned kHome = static_cast<unsigned>(OpType::Home);
constexpr unsigned kProduct = static_cast<unsigned>(OpType::Product);

TEST(Measurement, WindowFilters)
{
    Measurement m(teastore::kNumOps);
    m.setWindow(100, 200);
    m.record(kHome, 50, 99);   // before window
    m.record(kHome, 90, 100);  // at start: counted
    m.record(kHome, 150, 199); // inside
    m.record(kHome, 150, 200); // at end: excluded
    EXPECT_EQ(m.completed(), 2u);
    EXPECT_EQ(m.completedFor(kHome), 2u);
    EXPECT_EQ(m.completedFor(kProduct), 0u);
}

TEST(Measurement, ThroughputUsesWindowLength)
{
    Measurement m(teastore::kNumOps);
    m.setWindow(0, kSecond);
    for (int i = 0; i < 500; ++i)
        m.record(kHome, 0, kMillisecond);
    EXPECT_DOUBLE_EQ(m.throughputRps(), 500.0);
}

TEST(Measurement, LatencyDistributionPerOp)
{
    Measurement m(teastore::kNumOps);
    m.setWindow(0, kSecond);
    m.record(kHome, 0, 10 * kMillisecond);
    m.record(kProduct, 0, 30 * kMillisecond);
    EXPECT_NEAR(m.latencyNsFor(kHome).mean(),
                10.0 * kMillisecond, 1.0);
    EXPECT_NEAR(m.latencyNsFor(kProduct).mean(),
                30.0 * kMillisecond, 1.0);
    EXPECT_EQ(m.latencyNs().count(), 2u);
}

TEST(Measurement, StatusAccountingSplitsGoodputFromErrors)
{
    Measurement m(teastore::kNumOps);
    m.setWindow(0, kSecond);
    m.record(kHome, 0, kMillisecond, svc::Status::Ok, false);
    m.record(kHome, 0, 2 * kMillisecond, svc::Status::Ok,
             /*degraded=*/true);
    m.record(kHome, 0, 3 * kMillisecond, svc::Status::Timeout,
             false);
    m.record(kProduct, 0, 4 * kMillisecond,
             svc::Status::Unavailable, false);
    m.record(kProduct, 0, 5 * kMillisecond, svc::Status::Overload,
             false);

    // Every response counts toward throughput; only OK ones toward
    // goodput, latency and per-op counts.
    EXPECT_EQ(m.completed(), 5u);
    EXPECT_DOUBLE_EQ(m.throughputRps(), 5.0);
    EXPECT_DOUBLE_EQ(m.goodputRps(), 2.0);
    EXPECT_EQ(m.errorCount(), 3u);
    EXPECT_EQ(m.statusCount(svc::Status::Ok), 2u);
    EXPECT_EQ(m.statusCount(svc::Status::Timeout), 1u);
    EXPECT_EQ(m.statusCount(svc::Status::Overload), 1u);
    EXPECT_EQ(m.statusCount(svc::Status::Unavailable), 1u);
    EXPECT_EQ(m.degradedCount(), 1u);
    EXPECT_EQ(m.latencyNs().count(), 2u);
    EXPECT_EQ(m.completedFor(kHome), 2u);
    EXPECT_EQ(m.completedFor(kProduct), 0u);
    // The legacy 3-arg overload means OK and undegraded.
    m.record(kHome, 0, 6 * kMillisecond);
    EXPECT_EQ(m.statusCount(svc::Status::Ok), 3u);
    EXPECT_EQ(m.degradedCount(), 1u);
}

TEST(Measurement, RecordsPerOpForAnyOpCount)
{
    // Sized for another app's four ops (socialnet records this way).
    Measurement m(4);
    m.setWindow(0, kSecond);
    m.record(0, 0, 2 * kMillisecond);
    m.record(3, 0, 6 * kMillisecond);
    m.record(3, 0, 8 * kMillisecond);
    m.record(3, 0, 9 * kMillisecond, svc::Status::Timeout, false);
    m.record(1, 0, 4 * kMillisecond, svc::Status::Ok, /*degraded=*/true);
    EXPECT_EQ(m.completed(), 5u);
    EXPECT_EQ(m.completedFor(0), 1u);
    EXPECT_EQ(m.completedFor(1), 1u);
    EXPECT_EQ(m.completedFor(2), 0u);
    EXPECT_EQ(m.completedFor(3), 2u);
    EXPECT_NEAR(m.latencyNsFor(3).mean(), 7.0 * kMillisecond, 1.0);
    EXPECT_EQ(m.latencyNsFor(2).count(), 0u);
    EXPECT_EQ(m.latencyNs().count(), 4u);
    EXPECT_EQ(m.statusCount(svc::Status::Timeout), 1u);
    EXPECT_EQ(m.degradedCount(), 1u);
}

TEST(MeasurementDeathTest, OpAtOrAboveOpCountPanics)
{
    Measurement m(4);
    m.setWindow(0, kSecond);
    m.record(3, 0, kMillisecond);
    EXPECT_DEATH(m.record(4, 0, kMillisecond), "op index");
    EXPECT_DEATH(m.record(7, 0, kMillisecond, svc::Status::Timeout,
                          false),
                 "op index");
}

TEST(MeasurementDeathTest, BadWindowPanics)
{
    Measurement m(teastore::kNumOps);
    EXPECT_DEATH(m.setWindow(100, 100), "window");
}

/** Full-stack fixture on the small machine. */
class DriverTest : public ::testing::Test
{
  protected:
    DriverTest()
        : machine_(topo::small8()),
          engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, os::SchedParams{}, 1),
          network_(sim_, net::NetParams{}, 1),
          mesh_(kernel_, network_, svc::RpcCostParams{}, 1),
          app_(mesh_, appParams(), 1)
    {
        kernel_.start();
    }

  public:
    static teastore::AppParams
    appParams()
    {
        teastore::AppParams p;
        p.store.categories = 4;
        p.store.productsPerCategory = 10;
        p.store.users = 10;
        p.webui = {1, 8};
        p.auth = {1, 4};
        p.persistence = {1, 8};
        p.recommender = {1, 2};
        p.image = {1, 8};
        p.registry = {1, 1};
        p.heartbeats = false;
        return p;
    }

  protected:
    sim::Simulation sim_;
    topo::Machine machine_;
    cpu::ExecEngine engine_;
    os::Kernel kernel_;
    net::Network network_;
    svc::Mesh mesh_;
    teastore::App app_;
};

TEST_F(DriverTest, ClosedLoopCompletesRequests)
{
    ClosedLoopParams p;
    p.users = 4;
    p.meanThink = 20 * kMillisecond;
    ClosedLoopDriver driver(app_, BrowseMix{}, p, 7);
    driver.measurement().setWindow(100 * kMillisecond, kSecond);
    driver.start();
    sim_.runUntil(kSecond);
    EXPECT_GT(driver.issued(), 10u);
    EXPECT_GT(driver.measurement().completed(), 10u);
    EXPECT_GT(driver.measurement().throughputRps(), 0.0);
    EXPECT_GT(driver.measurement().latencyNs().p50(), 0.0);
    driver.stopIssuing();
}

TEST_F(DriverTest, ClosedLoopBoundsInFlight)
{
    ClosedLoopParams p;
    p.users = 3;
    p.meanThink = kMillisecond;
    ClosedLoopDriver driver(app_, BrowseMix{}, p, 7);
    driver.measurement().setWindow(0, kSecond);
    driver.start();
    sim_.runUntil(500 * kMillisecond);
    // In a closed loop, completions can never exceed issues, and the
    // gap is bounded by the user count.
    EXPECT_LE(driver.measurement().completed(), driver.issued());
    EXPECT_LE(driver.issued() - driver.measurement().completed(),
              3u + 3u); // in-flight + think-time slack
    driver.stopIssuing();
}

TEST_F(DriverTest, ClosedLoopDeterministicAcrossRuns)
{
    auto run_once = [](std::uint64_t seed) {
        sim::Simulation sim;
        topo::Machine machine(topo::small8());
        cpu::ExecEngine engine(sim, machine);
        os::Kernel kernel(sim, machine, engine, os::SchedParams{}, 1);
        net::Network network(sim, net::NetParams{}, 1);
        svc::Mesh mesh(kernel, network, svc::RpcCostParams{}, 1);
        teastore::App app(mesh, appParams(), 1);
        kernel.start();
        ClosedLoopParams p;
        p.users = 4;
        p.meanThink = 20 * kMillisecond;
        ClosedLoopDriver driver(app, BrowseMix{}, p, seed);
        driver.measurement().setWindow(0, kSecond);
        driver.start();
        sim.runUntil(kSecond);
        return driver.measurement().completed();
    };
    EXPECT_EQ(run_once(7), run_once(7));
    EXPECT_NE(run_once(7), run_once(8));
}

TEST_F(DriverTest, OpenLoopIssuesAtConfiguredRate)
{
    OpenLoopParams p;
    p.arrivalRps = 200.0;
    OpenLoopDriver driver(app_, BrowseMix{}, p, 7);
    driver.measurement().setWindow(0, 2 * kSecond);
    driver.start();
    sim_.runUntil(2 * kSecond);
    // Poisson(400) arrivals over 2s.
    EXPECT_NEAR(static_cast<double>(driver.issued()), 400.0, 60.0);
    EXPECT_GT(driver.measurement().completed(), 300u);
    driver.stopIssuing();
}

TEST_F(DriverTest, OpenLoopStopCeasesArrivals)
{
    OpenLoopParams p;
    p.arrivalRps = 500.0;
    OpenLoopDriver driver(app_, BrowseMix{}, p, 7);
    driver.measurement().setWindow(0, kSecond);
    driver.start();
    sim_.runUntil(200 * kMillisecond);
    driver.stopIssuing();
    const auto issued = driver.issued();
    sim_.runUntil(kSecond);
    EXPECT_EQ(driver.issued(), issued);
    // In-flight requests drained.
    EXPECT_EQ(driver.inFlight(), 0u);
}

/** Arrival ticks of one fresh-world open-loop run. */
std::vector<Tick>
openLoopArrivals(std::uint64_t seed, const LoadSchedule &schedule,
                 Tick horizon)
{
    sim::Simulation sim;
    topo::Machine machine(topo::small8());
    cpu::ExecEngine engine(sim, machine);
    os::Kernel kernel(sim, machine, engine, os::SchedParams{}, 1);
    net::Network network(sim, net::NetParams{}, 1);
    svc::Mesh mesh(kernel, network, svc::RpcCostParams{}, 1);
    teastore::App app(mesh, DriverTest::appParams(), 1);
    kernel.start();

    std::vector<Tick> log;
    OpenLoopParams p;
    p.arrivalRps = 200.0;
    p.schedule = schedule;
    p.arrivalLog = &log;
    OpenLoopDriver driver(app, BrowseMix{}, p, seed);
    driver.measurement().setWindow(0, horizon);
    driver.start();
    sim.runUntil(horizon);
    driver.stopIssuing();
    return log;
}

TEST_F(DriverTest, OpenLoopArrivalsDeterministicPerSeed)
{
    const LoadSchedule none;
    const auto a = openLoopArrivals(7, none, kSecond);
    const auto b = openLoopArrivals(7, none, kSecond);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, openLoopArrivals(8, none, kSecond));
}

TEST_F(DriverTest, ScheduledArrivalsDeterministicPerSeed)
{
    const LoadSchedule spike = LoadSchedule::spike(
        200.0, 1000.0, 200 * kMillisecond, 100 * kMillisecond,
        200 * kMillisecond, 100 * kMillisecond);
    const auto a = openLoopArrivals(7, spike, kSecond);
    const auto b = openLoopArrivals(7, spike, kSecond);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, openLoopArrivals(8, spike, kSecond));
}

TEST_F(DriverTest, ScheduledArrivalRateTracksTheSchedule)
{
    // Step from 100 to 1000 req/s halfway through: the two halves
    // must see arrival counts near their own rates, not the mean.
    LoadSchedule sched;
    sched.addPoint(0, 100.0).addStep(kSecond, 1000.0);
    const auto log = openLoopArrivals(7, sched, 2 * kSecond);
    std::size_t lo = 0, hi = 0;
    for (Tick t : log)
        (t < kSecond ? lo : hi)++;
    EXPECT_NEAR(static_cast<double>(lo), 100.0, 40.0);
    EXPECT_NEAR(static_cast<double>(hi), 1000.0, 120.0);
}

TEST_F(DriverTest, OpenLoopCurrentRateFollowsSchedule)
{
    OpenLoopParams p;
    LoadSchedule sched;
    sched.addPoint(0, 100.0).addPoint(kSecond, 300.0);
    p.schedule = sched;
    OpenLoopDriver driver(app_, BrowseMix{}, p, 7);
    driver.start();
    sim_.runUntil(kSecond / 2);
    EXPECT_NEAR(driver.currentRate(), 200.0, 1e-6);
    driver.stopIssuing();
}

TEST_F(DriverTest, DeathOnDoubleStart)
{
    ClosedLoopParams p;
    p.users = 1;
    ClosedLoopDriver driver(app_, BrowseMix{}, p, 7);
    driver.start();
    EXPECT_DEATH(driver.start(), "twice");
}

TEST_F(DriverTest, DeathOnZeroUsers)
{
    ClosedLoopParams p;
    p.users = 0;
    EXPECT_EXIT(ClosedLoopDriver(app_, BrowseMix{}, p, 7),
                ::testing::ExitedWithCode(1), "user");
}

/** Measurement of one fresh-world closed-loop run. */
struct ClosedRun
{
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    double throughputRps = 0.0;
    double p50Ns = 0.0;
};

ClosedRun
closedLoopRun(std::uint64_t seed, unsigned users, unsigned fluid_threshold)
{
    sim::Simulation sim;
    topo::Machine machine(topo::small8());
    cpu::ExecEngine engine(sim, machine);
    os::Kernel kernel(sim, machine, engine, os::SchedParams{}, 1);
    net::Network network(sim, net::NetParams{}, 1);
    svc::Mesh mesh(kernel, network, svc::RpcCostParams{}, 1);
    teastore::App app(mesh, DriverTest::appParams(), 1);
    kernel.start();
    ClosedLoopParams p;
    p.users = users;
    p.meanThink = 50 * kMillisecond;
    p.fluidThreshold = fluid_threshold;
    ClosedLoopDriver driver(app, BrowseMix{}, p, seed);
    driver.measurement().setWindow(500 * kMillisecond, 3 * kSecond);
    driver.start();
    sim.runUntil(3 * kSecond);
    driver.stopIssuing();
    ClosedRun r;
    r.issued = driver.issued();
    r.completed = driver.measurement().completed();
    r.throughputRps = driver.measurement().throughputRps();
    r.p50Ns = driver.measurement().latencyNs().p50();
    return r;
}

TEST_F(DriverTest, FluidMatchesPerUserWithinTolerance)
{
    // The aggregated population model must reproduce the per-user
    // closed loop's operating point: same offered-load statistics in,
    // so throughput and median latency agree within sampling noise.
    const ClosedRun per_user = closedLoopRun(7, 60, 0);
    const ClosedRun fluid = closedLoopRun(7, 60, 1);
    ASSERT_GT(per_user.completed, 100u);
    ASSERT_GT(fluid.completed, 100u);
    EXPECT_NEAR(fluid.throughputRps, per_user.throughputRps,
                0.15 * per_user.throughputRps);
    EXPECT_NEAR(fluid.p50Ns, per_user.p50Ns, 0.35 * per_user.p50Ns);
}

TEST_F(DriverTest, FluidDeterministicPerSeed)
{
    const ClosedRun a = closedLoopRun(7, 40, 1);
    const ClosedRun b = closedLoopRun(7, 40, 1);
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p50Ns, b.p50Ns);
    EXPECT_NE(closedLoopRun(8, 40, 1).issued, a.issued);
}

TEST_F(DriverTest, FluidKeepsClosedLoopInvariant)
{
    // A closed loop never has more requests in flight than users,
    // fluid or not.
    ClosedLoopParams p;
    p.users = 10;
    p.meanThink = 5 * kMillisecond;
    p.fluidThreshold = 1;
    ClosedLoopDriver driver(app_, BrowseMix{}, p, 7);
    driver.measurement().setWindow(0, kSecond);
    driver.start();
    sim_.runUntil(500 * kMillisecond);
    EXPECT_LE(driver.measurement().completed(), driver.issued());
    EXPECT_LE(driver.issued() - driver.measurement().completed(), 10u);
    driver.stopIssuing();
}

TEST_F(DriverTest, FluidBelowThresholdStaysPerUser)
{
    // users < fluidThreshold keeps the byte-identical per-user path:
    // same seed, same completions as an explicit per-user run.
    const ClosedRun per_user = closedLoopRun(7, 8, 0);
    const ClosedRun gated = closedLoopRun(7, 8, 100);
    EXPECT_EQ(gated.issued, per_user.issued);
    EXPECT_EQ(gated.completed, per_user.completed);
    EXPECT_DOUBLE_EQ(gated.p50Ns, per_user.p50Ns);
}

TEST_F(DriverTest, OpenLoopBatchedArrivalsKeepTheRate)
{
    OpenLoopParams p;
    p.arrivalRps = 200.0;
    p.batchedArrivals = true;
    OpenLoopDriver driver(app_, BrowseMix{}, p, 7);
    driver.measurement().setWindow(0, 2 * kSecond);
    driver.start();
    sim_.runUntil(2 * kSecond);
    // Still Poisson(400) over 2s, just pre-drawn in blocks.
    EXPECT_NEAR(static_cast<double>(driver.issued()), 400.0, 60.0);
    EXPECT_GT(driver.measurement().completed(), 300u);
    driver.stopIssuing();
}

TEST(RetreatBackoff, ExponentialWithCappedShift)
{
    const Tick base = kMillisecond;
    EXPECT_EQ(retreatBackoff(base, 1), base);
    EXPECT_EQ(retreatBackoff(base, 2), base << 1);
    EXPECT_EQ(retreatBackoff(base, 4), base << 3);
    EXPECT_EQ(retreatBackoff(base, 7), base << 6);
    // A long failure streak holds at the 64x ceiling instead of
    // shifting further.
    EXPECT_EQ(retreatBackoff(base, 8), base << 6);
    EXPECT_EQ(retreatBackoff(base, 1u << 30), base << 6);
    // Defensive: zero failures behaves like the first one.
    EXPECT_EQ(retreatBackoff(base, 0), base);
}

TEST(RetreatBackoff, SaturatesInsteadOfOverflowing)
{
    constexpr Tick kCap = kTickNever / 2;
    // Pathological bases saturate at the cap rather than wrapping
    // around Tick or aliasing into the kTickNever sentinel.
    EXPECT_EQ(retreatBackoff(kTickNever, 7), kCap);
    EXPECT_EQ(retreatBackoff(kCap, 2), kCap);
    EXPECT_EQ(retreatBackoff((kCap >> 6) + 1, 7), kCap);
    EXPECT_LT(retreatBackoff(kTickNever - 1, 64), kTickNever);
    // The largest base that still fits shifts exactly, not clamped.
    EXPECT_EQ(retreatBackoff(kCap >> 6, 7), (kCap >> 6) << 6);
}

} // namespace
} // namespace microscale::loadgen

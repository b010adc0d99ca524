/**
 * @file
 * Tests for the resilience layer: bounded queues and OVERLOAD
 * shedding, deadline propagation and timeout unwinding, retries with
 * a budget, per-replica circuit breakers, and scripted faults
 * (crash/restart, brownout, latency inflation).
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "svc/fault.hh"
#include "svc/mesh.hh"
#include "topo/presets.hh"

namespace microscale::svc
{
namespace
{

class ResilienceTest : public ::testing::Test
{
  protected:
    ResilienceTest()
        : machine_(topo::small8()),
          engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, os::SchedParams{}, 1),
          network_(sim_, quietNet(), 1),
          mesh_(kernel_, network_, RpcCostParams{}, 1)
    {
        kernel_.start();
        profile_.name = "resilience-test";
        profile_.ipcBase = 1.0;
        profile_.l3Apki = 1.0;
        profile_.wssBytes = 1024 * 1024;
    }

    static net::NetParams
    quietNet()
    {
        net::NetParams p;
        p.jitterCv = 0.0;
        return p;
    }

    Service *
    makeService(const std::string &name, unsigned replicas = 1,
                unsigned workers = 2)
    {
        ServiceParams p;
        p.name = name;
        p.profile = profile_;
        p.replicas = replicas;
        p.workersPerReplica = workers;
        p.computeCv = 0.0;
        return mesh_.createService(p);
    }

    sim::Simulation sim_;
    topo::Machine machine_;
    cpu::ExecEngine engine_;
    os::Kernel kernel_;
    net::Network network_;
    Mesh mesh_;
    cpu::WorkProfile profile_;
};

TEST_F(ResilienceTest, BoundedQueueShedsBeyondCapacity)
{
    ResilienceConfig rc;
    rc.maxQueueDepth = 2;
    mesh_.setResilience(rc);

    Service *s = makeService("narrow", 1, 1); // one worker
    s->addOp("slow", [](HandlerCtx &ctx) {
        ctx.compute(10e6, [&ctx] { ctx.done(); });
    });

    // 1 on the worker + 2 queued fit; the last 2 must be shed.
    std::vector<Status> statuses;
    std::vector<int> completion_order;
    for (int i = 0; i < 5; ++i) {
        mesh_.callExternalS("narrow", "slow", Payload{},
                            [&, i](const Payload &, Status st) {
                                statuses.push_back(st);
                                completion_order.push_back(i);
                            });
    }
    sim_.run();

    ASSERT_EQ(statuses.size(), 5u);
    int ok = 0, overload = 0;
    for (Status st : statuses) {
        if (st == Status::Ok)
            ++ok;
        else if (st == Status::Overload)
            ++overload;
    }
    EXPECT_EQ(ok, 3);
    EXPECT_EQ(overload, 2);
    EXPECT_EQ(s->resilienceCounters().shed, 2u);
    // Shed requests never reached a worker.
    EXPECT_EQ(s->requestsProcessed(), 3u);
    EXPECT_EQ(s->opStats().at("slow").requests, 3u);
    EXPECT_EQ(s->opStats().at("slow").statusCounts[statusIndex(
                  Status::Overload)],
              2u);

    // Rejections are fail-fast: requests 3 and 4 finish first, then
    // the accepted ones drain through the single worker in FIFO order.
    ASSERT_EQ(completion_order.size(), 5u);
    EXPECT_EQ(completion_order[0], 3);
    EXPECT_EQ(completion_order[1], 4);
    EXPECT_EQ(completion_order[2], 0);
    EXPECT_EQ(completion_order[3], 1);
    EXPECT_EQ(completion_order[4], 2);
}

TEST_F(ResilienceTest, ShedOnlyWhenNoIdleWorker)
{
    ResilienceConfig rc;
    rc.maxQueueDepth = 1;
    mesh_.setResilience(rc);

    // Plenty of workers: nothing queues, nothing is shed.
    Service *s = makeService("wide", 1, 8);
    s->addOp("work", [](HandlerCtx &ctx) {
        ctx.compute(1e6, [&ctx] { ctx.done(); });
    });
    int ok = 0;
    for (int i = 0; i < 6; ++i) {
        mesh_.callExternalS("wide", "work", Payload{},
                            [&](const Payload &, Status st) {
                                if (st == Status::Ok)
                                    ++ok;
                            });
    }
    sim_.run();
    EXPECT_EQ(ok, 6);
    EXPECT_EQ(s->resilienceCounters().shed, 0u);
}

TEST_F(ResilienceTest, ClientTimeoutUnwindsBeforeSlowResponse)
{
    ResilienceConfig rc;
    EdgeRule rule;
    rule.client = kExternalClient;
    rule.server = "sluggish";
    rule.policy.timeout = 1 * kMillisecond;
    rc.edges.push_back(rule);
    mesh_.setResilience(rc);

    Service *s = makeService("sluggish");
    s->addOp("slow", [](HandlerCtx &ctx) {
        // ~20ms of compute, far past the 1ms deadline.
        ctx.compute(50e6, [&ctx] { ctx.done(); });
    });

    Status got = Status::Ok;
    Tick completed = 0;
    int responses = 0;
    mesh_.callExternalS("sluggish", "slow", Payload{},
                        [&](const Payload &, Status st) {
                            got = st;
                            completed = sim_.now();
                            ++responses;
                        });
    sim_.run();
    EXPECT_EQ(got, Status::Timeout);
    EXPECT_EQ(responses, 1); // the late real response is swallowed
    EXPECT_EQ(completed, 1 * kMillisecond);
    EXPECT_EQ(mesh_.retryStats().clientTimeouts, 1u);
    // The handler itself still ran to completion.
    EXPECT_EQ(s->requestsProcessed(), 1u);
}

TEST_F(ResilienceTest, DeadlinePropagatesDownstream)
{
    ResilienceConfig rc;
    EdgeRule rule;
    rule.client = kExternalClient;
    rule.server = "front";
    rule.policy.timeout = 5 * kMillisecond;
    rc.edges.push_back(rule);
    mesh_.setResilience(rc);

    Service *front = makeService("front");
    Service *back = makeService("back");
    Tick back_deadline = kTickNever;
    back->addOp("inner", [&back_deadline](HandlerCtx &ctx) {
        back_deadline = ctx.deadline();
        ctx.compute(50e6, [&ctx] { ctx.done(); }); // ~20ms
    });
    front->addOp("outer", [](HandlerCtx &ctx) {
        // 1-arg call: a downstream failure fails this handler with
        // the same status.
        ctx.call("back", "inner", Payload{},
                 [&ctx](const Payload &) { ctx.done(); });
    });

    Status got = Status::Ok;
    Tick completed = 0;
    mesh_.callExternalS("front", "outer", Payload{},
                        [&](const Payload &, Status st) {
                            got = st;
                            completed = sim_.now();
                        });
    sim_.run();
    // The back handler saw the deadline the external edge stamped.
    EXPECT_EQ(back_deadline, 5 * kMillisecond);
    EXPECT_EQ(got, Status::Timeout);
    // Unwinds at the deadline, not after back's 20ms compute.
    EXPECT_LE(completed, 6 * kMillisecond);
}

TEST_F(ResilienceTest, RetrySucceedsAfterUnavailableReplica)
{
    ResilienceConfig rc;
    rc.retryBudgetRatio = 1.0;
    EdgeRule rule;
    rule.client = kExternalClient;
    rule.server = "flaky";
    rule.policy.maxAttempts = 2;
    rule.policy.backoffBase = 100 * kMicrosecond;
    rc.edges.push_back(rule);
    mesh_.setResilience(rc);

    Service *s = makeService("flaky", 2, 1);
    s->addOp("work", [](HandlerCtx &ctx) { ctx.done(); });
    s->setReplicaDown(0, true);

    // Blind round-robin hits the dead replica 0 first; the retry lands
    // on replica 1.
    Status got = Status::Unavailable;
    mesh_.callExternalS("flaky", "work", Payload{},
                        [&](const Payload &, Status st) { got = st; });
    sim_.run();
    EXPECT_EQ(got, Status::Ok);
    EXPECT_EQ(mesh_.retryStats().retries, 1u);
    EXPECT_EQ(s->resilienceCounters().downRejects, 1u);
    EXPECT_EQ(s->requestsProcessed(), 1u);
}

TEST_F(ResilienceTest, RetryBudgetDeniesWhenExhausted)
{
    ResilienceConfig rc;
    // One first attempt accrues only 0.1 token; a retry needs 1.0.
    rc.retryBudgetRatio = 0.1;
    EdgeRule rule;
    rule.client = kExternalClient;
    rule.server = "dead";
    rule.policy.maxAttempts = 3;
    rc.edges.push_back(rule);
    mesh_.setResilience(rc);

    Service *s = makeService("dead", 1, 1);
    s->addOp("work", [](HandlerCtx &ctx) { ctx.done(); });
    s->setReplicaDown(0, true);

    Status got = Status::Ok;
    mesh_.callExternalS("dead", "work", Payload{},
                        [&](const Payload &, Status st) { got = st; });
    sim_.run();
    EXPECT_EQ(got, Status::Unavailable);
    EXPECT_EQ(mesh_.retryStats().retries, 0u);
    EXPECT_EQ(mesh_.retryStats().budgetDenied, 1u);
}

TEST_F(ResilienceTest, HealthAwareBalancingSkipsDownReplica)
{
    ResilienceConfig rc;
    rc.healthAwareBalancing = true;
    mesh_.setResilience(rc);

    Service *s = makeService("pair", 2, 2);
    s->addOp("work", [](HandlerCtx &ctx) { ctx.done(); });
    s->setReplicaDown(0, true);

    int ok = 0;
    for (int i = 0; i < 6; ++i) {
        mesh_.callExternalS("pair", "work", Payload{},
                            [&](const Payload &, Status st) {
                                if (st == Status::Ok)
                                    ++ok;
                            });
    }
    sim_.run();
    // All traffic routed around the dead replica, no retries needed.
    EXPECT_EQ(ok, 6);
    EXPECT_EQ(s->resilienceCounters().downRejects, 0u);
    for (const Worker &w : s->workers()) {
        if (w.replica == 0) {
            EXPECT_EQ(w.thread->ec().counters().instructions, 0.0);
        }
    }
}

TEST_F(ResilienceTest, BreakerOpensAfterConsecutiveFailuresAndRecovers)
{
    ResilienceConfig rc;
    rc.healthAwareBalancing = true;
    rc.breaker.enabled = true;
    rc.breaker.consecutiveFailures = 3;
    rc.breaker.windowMin = 100; // keep the rate rule out of the way
    rc.breaker.openFor = 5 * kMillisecond;
    mesh_.setResilience(rc);

    Service *s = makeService("shaky", 1, 2);
    bool failing = true;
    s->addOp("work", [&failing](HandlerCtx &ctx) {
        if (failing)
            ctx.fail(Status::Unavailable);
        else
            ctx.done();
    });

    std::vector<Status> statuses;
    auto send = [&] {
        mesh_.callExternalS("shaky", "work", Payload{},
                            [&](const Payload &, Status st) {
                                statuses.push_back(st);
                            });
    };

    // Three spaced failures trip the breaker...
    for (int i = 0; i < 3; ++i)
        sim_.scheduleAt(i * kMillisecond, send);
    sim_.run();
    ASSERT_EQ(statuses.size(), 3u);
    EXPECT_EQ(s->breakerState(0).state, BreakerState::State::Open);
    EXPECT_EQ(s->resilienceCounters().breakerOpens, 1u);

    // ...so the next request finds no admissible replica.
    sim_.scheduleAt(sim_.now() + kMillisecond, send);
    sim_.run();
    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_EQ(statuses[3], Status::Unavailable);
    EXPECT_EQ(s->resilienceCounters().noReplica, 1u);

    // After openFor, the service heals: the half-open probe succeeds
    // and the breaker closes again.
    failing = false;
    sim_.scheduleAt(sim_.now() + 6 * kMillisecond, send);
    sim_.run();
    ASSERT_EQ(statuses.size(), 5u);
    EXPECT_EQ(statuses[4], Status::Ok);
    EXPECT_EQ(s->breakerState(0).state, BreakerState::State::Closed);

    sim_.scheduleAt(sim_.now() + kMillisecond, send);
    sim_.run();
    ASSERT_EQ(statuses.size(), 6u);
    EXPECT_EQ(statuses[5], Status::Ok);
}

TEST_F(ResilienceTest, BreakerReopensOnFailedProbe)
{
    ResilienceConfig rc;
    rc.healthAwareBalancing = true;
    rc.breaker.enabled = true;
    rc.breaker.consecutiveFailures = 2;
    rc.breaker.windowMin = 100;
    rc.breaker.openFor = 5 * kMillisecond;
    mesh_.setResilience(rc);

    Service *s = makeService("broken", 1, 2);
    s->addOp("work",
             [](HandlerCtx &ctx) { ctx.fail(Status::Unavailable); });

    std::vector<Status> statuses;
    auto send = [&] {
        mesh_.callExternalS("broken", "work", Payload{},
                            [&](const Payload &, Status st) {
                                statuses.push_back(st);
                            });
    };
    for (int i = 0; i < 2; ++i)
        sim_.scheduleAt(i * kMillisecond, send);
    sim_.run();
    EXPECT_EQ(s->breakerState(0).state, BreakerState::State::Open);

    // The probe after openFor fails: open again, second trip counted.
    sim_.scheduleAt(sim_.now() + 6 * kMillisecond, send);
    sim_.run();
    ASSERT_EQ(statuses.size(), 3u);
    EXPECT_EQ(statuses[2], Status::Unavailable);
    EXPECT_EQ(s->breakerState(0).state, BreakerState::State::Open);
    EXPECT_EQ(s->resilienceCounters().breakerOpens, 2u);
}

TEST_F(ResilienceTest, CrashFailsQueuedAndRestartRestoresService)
{
    Service *s = makeService("target", 1, 1);
    s->addOp("slow", [](HandlerCtx &ctx) {
        ctx.compute(10e6, [&ctx] { ctx.done(); });
    });

    FaultScript script;
    FaultEvent down;
    down.kind = FaultEvent::Kind::ReplicaDown;
    down.at = 1 * kMillisecond;
    down.service = "target";
    script.events.push_back(down);
    FaultEvent up;
    up.kind = FaultEvent::Kind::ReplicaUp;
    up.at = 20 * kMillisecond;
    up.service = "target";
    script.events.push_back(up);
    FaultInjector injector(mesh_, script);
    injector.arm();

    std::vector<Status> statuses;
    auto send = [&] {
        mesh_.callExternalS("target", "slow", Payload{},
                            [&](const Payload &, Status st) {
                                statuses.push_back(st);
                            });
    };
    // Two requests before the crash: one on the worker, one queued.
    // The queued one dies with the replica; the in-flight one finishes
    // (no mid-handler abort). One request lands mid-crash and one
    // after the restart.
    send();
    send();
    sim_.scheduleAt(10 * kMillisecond, send);
    sim_.scheduleAt(25 * kMillisecond, send);
    sim_.run();

    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_EQ(injector.applied(), 2u);
    int ok = 0, unavailable = 0;
    for (Status st : statuses) {
        if (st == Status::Ok)
            ++ok;
        else if (st == Status::Unavailable)
            ++unavailable;
    }
    EXPECT_EQ(ok, 2);          // in-flight + post-restart
    EXPECT_EQ(unavailable, 2); // queued-at-crash + mid-crash
    EXPECT_FALSE(s->replicaDown(0));
    EXPECT_EQ(s->resilienceCounters().downRejects, 1u);
}

TEST_F(ResilienceTest, SlowdownScalesComputeTime)
{
    Service *fast = makeService("fast-svc", 1, 1);
    Service *slow = makeService("slow-svc", 1, 1);
    for (Service *s : {fast, slow}) {
        s->addOp("work", [](HandlerCtx &ctx) {
            ctx.compute(4e6, [&ctx] { ctx.done(); });
        });
    }
    slow->setSlowdown(4.0);
    EXPECT_DOUBLE_EQ(slow->slowdown(), 4.0);

    int got = 0;
    for (const char *name : {"fast-svc", "slow-svc"}) {
        mesh_.callExternalS(name, "work", Payload{},
                            [&](const Payload &, Status) { ++got; });
    }
    sim_.run();
    ASSERT_EQ(got, 2);
    const double fast_ns = fast->opStats().at("work").computeNs.mean();
    const double slow_ns = slow->opStats().at("work").computeNs.mean();
    // Serialization work is unscaled, so the ratio is a bit under 4.
    EXPECT_GT(slow_ns, fast_ns * 2.5);
    EXPECT_LT(slow_ns, fast_ns * 4.5);
}

TEST_F(ResilienceTest, LatencyFactorInflatesRoundTrips)
{
    Service *s = makeService("echo");
    s->addOp("ping", [](HandlerCtx &ctx) { ctx.done(); });

    Tick first = 0, second = 0;
    mesh_.callExternalS("echo", "ping", Payload{},
                        [&](const Payload &, Status) {
                            first = sim_.now();
                        });
    sim_.run();
    ASSERT_GT(first, 0u);

    network_.setLatencyFactor(10.0);
    EXPECT_DOUBLE_EQ(network_.latencyFactor(), 10.0);
    const Tick base = sim_.now();
    mesh_.callExternalS("echo", "ping", Payload{},
                        [&](const Payload &, Status) {
                            second = sim_.now() - base;
                        });
    sim_.run();
    // Two hops at 10x latency dominate the round trip.
    EXPECT_GT(second, first * 3);

    network_.setLatencyFactor(1.0);
    EXPECT_EXIT(network_.setLatencyFactor(0.0),
                ::testing::ExitedWithCode(1), "latency factor");
}

TEST_F(ResilienceTest, DegradedFlagTravelsWithResponse)
{
    Service *s = makeService("partial");
    s->addOp("page", [](HandlerCtx &ctx) {
        ctx.response().degraded = true;
        ctx.done();
    });
    bool degraded = false;
    mesh_.callExternalS("partial", "page", Payload{},
                        [&](const Payload &resp, Status st) {
                            EXPECT_EQ(st, Status::Ok);
                            degraded = resp.degraded;
                        });
    sim_.run();
    EXPECT_TRUE(degraded);
}

TEST_F(ResilienceTest, FaultScriptStaleReplicaSkippedAtApplyTime)
{
    // A replica index out of range is not an arm-time error: the
    // autoscaler may add (or retire) replicas after arm(). The event
    // is skipped with a warning when it fires instead.
    makeService("known", 1, 1);
    FaultScript script;
    FaultEvent e;
    e.kind = FaultEvent::Kind::ReplicaDown;
    e.at = 5 * kMillisecond;
    e.service = "known";
    e.replica = 7; // out of range at apply time
    script.events.push_back(e);
    FaultInjector injector(mesh_, script);
    injector.arm();
    sim_.runUntil(10 * kMillisecond);
    EXPECT_EQ(injector.applied(), 0u);
    EXPECT_EQ(injector.skipped(), 1u);
    EXPECT_FALSE(mesh_.service("known").replicaDown(0));
}

TEST_F(ResilienceTest, FaultScriptUnknownServiceStillFatalAtArm)
{
    FaultScript script;
    FaultEvent e;
    e.kind = FaultEvent::Kind::ReplicaDown;
    e.service = "nonexistent";
    script.events.push_back(e);
    FaultInjector injector(mesh_, script);
    EXPECT_EXIT(injector.arm(), ::testing::ExitedWithCode(1),
                "unknown service");
}

TEST_F(ResilienceTest, PolicyLookupMatchesWildcardsFirstWins)
{
    ResilienceConfig rc;
    EdgeRule exact;
    exact.client = "a";
    exact.server = "b";
    exact.policy.timeout = 1 * kMillisecond;
    EdgeRule wild;
    wild.client = "*";
    wild.server = "b";
    wild.policy.timeout = 9 * kMillisecond;
    rc.edges.push_back(exact);
    rc.edges.push_back(wild);

    EXPECT_EQ(rc.policyFor("a", "b").timeout, 1 * kMillisecond);
    EXPECT_EQ(rc.policyFor("z", "b").timeout, 9 * kMillisecond);
    EXPECT_FALSE(rc.policyFor("z", "q").hasTimeout());
    EXPECT_FALSE(rc.policyFor("z", "q").canRetry());
}

/** Regression: floor(maxEjectFraction * active) truncates to zero for
 * small fleets (0.45 * 2 = 0.9), which used to leave a fully-gray
 * replica of a 2-replica fleet permanently in rotation. The cap now
 * floors at one ejection whenever the fraction is positive and at
 * least two replicas are active. */
TEST_F(ResilienceTest, TwoReplicaFleetCanStillEjectItsGrayReplica)
{
    ResilienceConfig rc;
    rc.outlier.enabled = true;
    rc.outlier.minSamples = 10;
    rc.outlier.latencyFactor = 1.5;
    rc.outlier.maxEjectFraction = 0.45;
    rc.outlier.ejectFor = 50 * kMillisecond;
    mesh_.setResilience(rc);

    Service *s = makeService("pair", 2, 2);
    s->addOp("get", [](HandlerCtx &ctx) {
        ctx.compute(0.5e6, [&ctx] { ctx.done(); });
    });
    s->setReplicaSlow(0, 20.0);

    // Sequential closed loop: each completion feeds the outlier
    // EWMAs and kicks off the next request.
    int completed = 0;
    std::function<void()> next = [&] {
        mesh_.callExternalS("pair", "get", Payload{},
                            [&](const Payload &, Status) {
                                ++completed;
                                EXPECT_LE(s->ejectedReplicaCount(), 1u);
                                if (completed < 80)
                                    next();
                            });
    };
    next();
    sim_.run();

    EXPECT_EQ(completed, 80);
    EXPECT_GE(s->resilienceCounters().outlierEjections, 1u);
}

/** A zero fraction still means "never eject": the small-fleet floor
 * only applies when ejection is allowed at all. */
TEST_F(ResilienceTest, ZeroEjectFractionNeverEjects)
{
    ResilienceConfig rc;
    rc.outlier.enabled = true;
    rc.outlier.minSamples = 10;
    rc.outlier.latencyFactor = 1.5;
    rc.outlier.maxEjectFraction = 0.0;
    mesh_.setResilience(rc);

    Service *s = makeService("pair", 2, 2);
    s->addOp("get", [](HandlerCtx &ctx) {
        ctx.compute(0.5e6, [&ctx] { ctx.done(); });
    });
    s->setReplicaSlow(0, 20.0);

    int completed = 0;
    std::function<void()> next = [&] {
        mesh_.callExternalS("pair", "get", Payload{},
                            [&](const Payload &, Status) {
                                ++completed;
                                if (completed < 80)
                                    next();
                            });
    };
    next();
    sim_.run();

    EXPECT_EQ(completed, 80);
    EXPECT_EQ(s->resilienceCounters().outlierEjections, 0u);
    EXPECT_EQ(s->ejectedReplicaCount(), 0u);
}

} // namespace
} // namespace microscale::svc

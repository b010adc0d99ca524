/**
 * @file
 * Load drivers for the TeaStore application model.
 *
 * ClosedLoopDriver models N concurrent users (issue, wait, think,
 * repeat) - the saturation-style load the paper's throughput numbers
 * come from. OpenLoopDriver issues Poisson arrivals at a fixed rate -
 * used for throughput-latency curves. Both record latencies only
 * inside a configurable measurement window.
 */

#ifndef MICROSCALE_LOADGEN_DRIVER_HH
#define MICROSCALE_LOADGEN_DRIVER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "loadgen/mix.hh"
#include "loadgen/schedule.hh"
#include "svc/resilience.hh"
#include "teastore/app.hh"

namespace microscale::chaos
{
class RequestLedger;
}

namespace microscale::loadgen
{

/**
 * Latency/throughput results collected in the measurement window.
 * Ops are recorded by index (an app's op enum value), below the op
 * count the measurement was built for.
 */
class Measurement
{
  public:
    explicit Measurement(unsigned numOps);

    /** Define the window [start, end). */
    void setWindow(Tick start, Tick end);

    Tick windowStart() const { return start_; }
    Tick windowEnd() const { return end_; }

    /** Record one successful completed request. */
    void record(unsigned op, Tick issued, Tick completed);

    /**
     * Record one response with its outcome. Latency histograms and
     * per-op counts cover OK responses only; failures contribute to
     * completed() and the status counters. Panics when `op` is not
     * below the constructed op count.
     */
    void record(unsigned op, Tick issued, Tick completed,
                svc::Status status, bool degraded);

    /** Responses inside the window (any status). */
    std::uint64_t completed() const { return completed_; }

    /** Responses per second of window time (any status). */
    double throughputRps() const;

    /** OK responses per second of window time. */
    double goodputRps() const;

    /** Window responses that finished with `status`. */
    std::uint64_t statusCount(svc::Status status) const
    {
        return status_counts_[static_cast<unsigned>(status)];
    }

    /** Non-OK window responses. */
    std::uint64_t errorCount() const;

    /** OK window responses served from a degraded fallback. */
    std::uint64_t degradedCount() const { return degraded_; }

    /** End-to-end latency distribution over all ops, in ns. */
    const QuantileHistogram &latencyNs() const { return latency_; }

    /** Per-op latency distribution, in ns. */
    const QuantileHistogram &latencyNsFor(unsigned op) const
    {
        return per_op_[op];
    }

    /** Per-op completion count. */
    std::uint64_t completedFor(unsigned op) const
    {
        return per_op_count_[op];
    }

  private:
    Tick start_ = 0;
    Tick end_ = kTickNever;
    std::uint64_t completed_ = 0;
    QuantileHistogram latency_;
    std::vector<QuantileHistogram> per_op_;
    std::vector<std::uint64_t> per_op_count_;
    std::array<std::uint64_t, svc::kNumStatuses> status_counts_{};
    std::uint64_t degraded_ = 0;
};

/**
 * Retreat wait after `consecutiveFailures` (≥ 1) straight non-OK
 * responses: base << min(failures - 1, 6), saturating at kTickNever/2
 * instead of overflowing Tick for huge bases. Values that fit are
 * returned exactly, so enabling the cap changed no in-range schedule.
 * Deterministic (no RNG draw) by design; see ClosedLoopParams.
 */
inline Tick
retreatBackoff(Tick base, unsigned consecutiveFailures)
{
    const unsigned shift = std::min(
        consecutiveFailures > 0 ? consecutiveFailures - 1 : 0u, 6u);
    // kTickNever is the "no deadline" sentinel; saturate safely below
    // it so a pathological base can never alias into it or wrap.
    constexpr Tick kCap = kTickNever / 2;
    if (base > (kCap >> shift))
        return kCap;
    return base << shift;
}

/** Closed-loop driver parameters. */
struct ClosedLoopParams
{
    unsigned users = 128;
    /** Mean exponential think time between a response and the next
     * request of the same user. */
    Tick meanThink = 250 * kMillisecond;
    /** Users ramp in uniformly over this interval after start(). */
    Tick rampTime = 100 * kMillisecond;
    /**
     * Backpressure retreat: after a non-OK response the user waits
     * retreatBackoff(retreatBase, consecutiveFailures) instead of a
     * think time, backing away from a server that is shedding load
     * (deterministic, no RNG draw). 0 (default) disables the retreat
     * and keeps the legacy think-time behavior bit-identical.
     */
    Tick retreatBase = 0;
    /**
     * Fluid population mode: at or above this user count the driver
     * replaces per-user state (one RNG stream, Markov position and
     * pending think event per user) with an aggregated population
     * model whose request stream has the same statistics — O(1) state
     * instead of O(users), which is what makes 100x bigger populations
     * simulable. 0 (default) disables fluid mode; per-user mode stays
     * byte-identical. See DESIGN.md "engine internals" for the
     * approximation boundary (stationary op mix, pooled ramp hazard,
     * first-level retreat).
     */
    unsigned fluidThreshold = 0;
    /**
     * Request-conservation ledger (chaos harness): every issued
     * request opens an entry, every response closes it with its
     * terminal status. Null (default) records nothing.
     */
    chaos::RequestLedger *ledger = nullptr;
};

/**
 * N simulated users walking the browse-profile Markov chain.
 */
class ClosedLoopDriver
{
  public:
    ClosedLoopDriver(teastore::App &app, BrowseMix mix,
                     ClosedLoopParams params, std::uint64_t seed);

    /** Begin all user sessions. */
    void start();

    /** Stop issuing new requests (in-flight ones still complete). */
    void stopIssuing() { stopped_ = true; }

    Measurement &measurement() { return measurement_; }
    const Measurement &measurement() const { return measurement_; }

    /** Requests issued (any time). */
    std::uint64_t issued() const { return issued_; }

  private:
    struct User
    {
        Rng rng;
        teastore::OpType current;
        /** Non-OK responses since the last OK (retreat backoff). */
        unsigned consecutiveFailures = 0;
        explicit User(Rng r, teastore::OpType op)
            : rng(std::move(r)), current(op)
        {
        }
    };

    /**
     * Aggregated population state for fluid mode. The three pools
     * (not-yet-ramped-in, thinking, in flight) replace per-user
     * objects; with exponential think times the pooled next-issue
     * process is itself exponential, so one pending event plus a
     * cancel-and-redraw on every pool change reproduces the per-user
     * arrival statistics exactly for the think component.
     */
    struct FluidState
    {
        /** Op sampling and category choices. */
        Rng rng;
        /** Dedicated stream drained in batches for inter-issue gaps. */
        Rng gapRng;
        /** Pre-drawn unit-mean exponential gaps. */
        SampleBatch gaps;
        unsigned notYetIn = 0;
        unsigned thinking = 0;
        unsigned retreating = 0;
        std::uint64_t inflight = 0;
        Tick rampEnd = 0;
        sim::EventHandle next;

        explicit FluidState(std::uint64_t seed)
            : rng(seed, "loadgen.fluid"),
              gapRng(seed, "loadgen.fluid.gaps"),
              gaps(gapRng, SampleBatch::Kind::Exponential, 1.0)
        {
        }
    };

    bool fluidMode() const { return fluid_ != nullptr; }

    void issue(std::size_t user_index);
    void onResponse(std::size_t user_index, teastore::OpType op,
                    Tick issued_at, svc::Status status, bool degraded);

    /** Pooled issue rates right now, in events per tick. */
    void fluidRates(Tick now, double &ramp, double &think) const;
    /** (Re)arm the single pending issue event from the pooled rates. */
    void scheduleNextFluid();
    /** One pooled issue event fired: pick a pool, issue, re-arm. */
    void fluidFire();
    void issueFluid();
    void onFluidResponse(teastore::OpType op, Tick issued_at,
                         svc::Status status, bool degraded);

    teastore::App &app_;
    BrowseMix mix_;
    ClosedLoopParams params_;
    std::vector<std::unique_ptr<User>> users_;
    std::unique_ptr<FluidState> fluid_;
    Measurement measurement_{teastore::kNumOps};
    std::uint64_t issued_ = 0;
    bool stopped_ = false;
    bool started_ = false;
};

/** Open-loop driver parameters. */
struct OpenLoopParams
{
    /** Mean arrival rate, requests per second. */
    double arrivalRps = 1000.0;
    /**
     * Time-varying rate; when non-empty it overrides arrivalRps and
     * arrivals follow a non-homogeneous Poisson process (thinning).
     * Empty keeps the legacy fixed-rate arrival stream bit-identical.
     */
    LoadSchedule schedule;
    /** When set, every arrival tick is appended (determinism tests). */
    std::vector<Tick> *arrivalLog = nullptr;
    /**
     * Draw fixed-rate inter-arrival gaps in batches from a dedicated
     * RNG stream instead of one-at-a-time from the shared driver
     * stream. Opt-in: the arrival times differ from the legacy stream
     * (a different but equally valid Poisson process), so the default
     * stays bit-identical.
     */
    bool batchedArrivals = false;
    /** Request-conservation ledger; see ClosedLoopParams::ledger. */
    chaos::RequestLedger *ledger = nullptr;
};

/**
 * Poisson arrivals sampled from the stationary mix, at a fixed rate or
 * along a LoadSchedule.
 */
class OpenLoopDriver
{
  public:
    OpenLoopDriver(teastore::App &app, BrowseMix mix,
                   OpenLoopParams params, std::uint64_t seed);

    /** Begin the arrival process. */
    void start();

    /** Stop generating new arrivals. */
    void stopIssuing() { stopped_ = true; }

    Measurement &measurement() { return measurement_; }
    const Measurement &measurement() const { return measurement_; }

    std::uint64_t issued() const { return issued_; }
    /** Requests issued but not yet answered. */
    std::uint64_t inFlight() const { return in_flight_; }

    /** The scheduled rate right now (fixed rate without a schedule). */
    double currentRate() const;

  private:
    void scheduleNext();
    void arrival();

    teastore::App &app_;
    BrowseMix mix_;
    OpenLoopParams params_;
    Rng rng_;
    /** Batched-arrival state (only with params_.batchedArrivals). */
    std::unique_ptr<Rng> gap_rng_;
    std::unique_ptr<SampleBatch> gaps_;
    Measurement measurement_{teastore::kNumOps};
    std::uint64_t issued_ = 0;
    std::uint64_t in_flight_ = 0;
    bool stopped_ = false;
    bool started_ = false;
};

} // namespace microscale::loadgen

#endif // MICROSCALE_LOADGEN_DRIVER_HH

#include "loadgen/driver.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "base/logging.hh"
#include "chaos/ledger.hh"

namespace microscale::loadgen
{

using teastore::OpType;

Measurement::Measurement(unsigned numOps)
    : per_op_(numOps), per_op_count_(numOps, 0)
{
}

void
Measurement::setWindow(Tick start, Tick end)
{
    if (end <= start)
        MS_PANIC("measurement window end <= start");
    start_ = start;
    end_ = end;
}

void
Measurement::record(unsigned op, Tick issued, Tick completed)
{
    record(op, issued, completed, svc::Status::Ok, false);
}

void
Measurement::record(unsigned op, Tick issued, Tick completed,
                    svc::Status status, bool degraded)
{
    if (op >= per_op_.size())
        MS_PANIC("measurement op index out of range");
    if (completed < start_ || completed >= end_)
        return;
    ++completed_;
    ++status_counts_[static_cast<unsigned>(status)];
    if (status != svc::Status::Ok)
        return;
    if (degraded)
        ++degraded_;
    const double lat = static_cast<double>(completed - issued);
    latency_.add(lat);
    per_op_[op].add(lat);
    ++per_op_count_[op];
}

double
Measurement::throughputRps() const
{
    if (end_ == kTickNever || end_ <= start_)
        return 0.0;
    const double window_s = ticksToSeconds(end_ - start_);
    return static_cast<double>(completed_) / window_s;
}

double
Measurement::goodputRps() const
{
    if (end_ == kTickNever || end_ <= start_)
        return 0.0;
    const double window_s = ticksToSeconds(end_ - start_);
    return static_cast<double>(statusCount(svc::Status::Ok)) / window_s;
}

std::uint64_t
Measurement::errorCount() const
{
    return completed_ - statusCount(svc::Status::Ok);
}

ClosedLoopDriver::ClosedLoopDriver(teastore::App &app, BrowseMix mix,
                                   ClosedLoopParams params,
                                   std::uint64_t seed)
    : app_(app), mix_(std::move(mix)), params_(params)
{
    if (params_.users == 0)
        fatal("closed-loop driver needs at least one user");
    if (params_.fluidThreshold > 0 &&
        params_.users >= params_.fluidThreshold) {
        fluid_ = std::make_unique<FluidState>(seed);
        return;
    }
    users_.reserve(params_.users);
    for (unsigned u = 0; u < params_.users; ++u) {
        users_.push_back(std::make_unique<User>(
            Rng(seed, "loadgen.user." + std::to_string(u)),
            mix_.initialOp()));
    }
}

void
ClosedLoopDriver::start()
{
    if (started_)
        MS_PANIC("ClosedLoopDriver started twice");
    started_ = true;
    auto &sim = app_.mesh().kernel().sim();
    if (fluidMode()) {
        fluid_->notYetIn = params_.users;
        fluid_->rampEnd =
            sim.now() + std::max<Tick>(1, params_.rampTime);
        scheduleNextFluid();
        return;
    }
    for (std::size_t u = 0; u < users_.size(); ++u) {
        const Tick ramp =
            params_.rampTime > 0
                ? static_cast<Tick>(users_[u]->rng.uniformReal(
                      0.0, static_cast<double>(params_.rampTime)))
                : 0;
        sim.scheduleAfter(std::max<Tick>(1, ramp),
                          [this, u] { issue(u); });
    }
}

void
ClosedLoopDriver::fluidRates(Tick now, double &ramp, double &think) const
{
    // Ramp pool: per-user mode draws N first-issue times uniform over
    // [0, rampTime]; with k of them still outside at time t the
    // order-statistics hazard is k / (rampEnd - t). Think pool: the
    // minimum of M exponential(Z) think timers is exponential(Z/M),
    // so the pooled rate is M/Z. Both in events per tick.
    ramp = 0.0;
    if (fluid_->notYetIn > 0 && now < fluid_->rampEnd)
        ramp = static_cast<double>(fluid_->notYetIn) /
               static_cast<double>(fluid_->rampEnd - now);
    think = static_cast<double>(fluid_->thinking) /
            static_cast<double>(params_.meanThink);
}

void
ClosedLoopDriver::scheduleNextFluid()
{
    if (stopped_)
        return;
    auto &sim = app_.mesh().kernel().sim();
    const Tick now = sim.now();
    if (fluid_->notYetIn > 0 && now >= fluid_->rampEnd) {
        // Ramp window closed with users still outside (the window is
        // open-ended in per-user mode too: draws at exactly rampTime
        // round up). Drain them immediately, one per tick.
        fluid_->next = sim.scheduleAfter(1, [this] { fluidFire(); });
        return;
    }
    double ramp = 0.0, think = 0.0;
    fluidRates(now, ramp, think);
    const double rate = ramp + think;
    if (rate <= 0.0)
        return; // every user is in flight; responses re-arm
    // The pooled hazard is piecewise constant between state changes
    // (exact for the think pool, the ramp hazard varies slowly), and
    // every state change cancels and redraws, so drawing a single
    // exponential gap at the combined rate is faithful.
    const double gap = fluid_->gaps.next() / rate;
    fluid_->next = sim.scheduleAfter(
        std::max<Tick>(1, static_cast<Tick>(std::llround(gap))),
        [this] { fluidFire(); });
}

void
ClosedLoopDriver::fluidFire()
{
    if (stopped_)
        return;
    double ramp = 0.0, think = 0.0;
    fluidRates(app_.mesh().kernel().sim().now(), ramp, think);
    bool from_ramp;
    if (fluid_->notYetIn == 0) {
        from_ramp = false;
    } else if (think <= 0.0 || ramp <= 0.0) {
        // Nobody thinking, or the ramp window closed with users still
        // outside (post-window drain): the firing must come from the
        // ramp pool.
        from_ramp = true;
    } else {
        from_ramp =
            fluid_->rng.uniform01() * (ramp + think) < ramp;
    }
    if (from_ramp) {
        --fluid_->notYetIn;
    } else if (fluid_->thinking > 0) {
        --fluid_->thinking;
    } else {
        scheduleNextFluid();
        return;
    }
    issueFluid();
    scheduleNextFluid();
}

void
ClosedLoopDriver::issueFluid()
{
    // Ops come from the stationary distribution of the browse chain
    // rather than per-user Markov walks: the pooled stream sees the
    // time-average mix, which is what the chain converges to.
    const OpType op = mix_.sampleStationary(fluid_->rng);
    const Tick issued_at = app_.mesh().kernel().sim().now();
    ++issued_;
    ++fluid_->inflight;
    const std::uint64_t lid =
        params_.ledger ? params_.ledger->open() : 0;
    svc::Payload req = app_.sampleRequest(op, fluid_->rng);
    app_.mesh().callExternalS(
        teastore::names::kWebui, teastore::opName(op), req,
        [this, op, issued_at, lid](const svc::Payload &resp,
                                   svc::Status status) {
            if (params_.ledger)
                params_.ledger->close(lid, status);
            onFluidResponse(op, issued_at, status, resp.degraded);
        });
}

void
ClosedLoopDriver::onFluidResponse(OpType op, Tick issued_at,
                                  svc::Status status, bool degraded)
{
    auto &sim = app_.mesh().kernel().sim();
    measurement_.record(static_cast<unsigned>(op), issued_at, sim.now(),
                        status, degraded);
    --fluid_->inflight;
    if (stopped_)
        return;
    if (params_.retreatBase > 0 && status != svc::Status::Ok) {
        // First-level retreat only: the pool cannot know which user
        // failed how many times in a row, so every failure waits the
        // base backoff. Under sustained shedding this under-retreats
        // relative to per-user mode; acceptable at fluid scale.
        ++fluid_->retreating;
        sim.scheduleAfter(retreatBackoff(params_.retreatBase, 1),
                          [this] {
                              --fluid_->retreating;
                              if (stopped_)
                                  return;
                              ++fluid_->thinking;
                              fluid_->next.cancel();
                              scheduleNextFluid();
                          });
        return;
    }
    ++fluid_->thinking;
    // Memorylessness makes cancel-and-redraw at the new pooled rate
    // distributionally exact; no per-user timer needs to survive.
    fluid_->next.cancel();
    scheduleNextFluid();
}

void
ClosedLoopDriver::issue(std::size_t user_index)
{
    if (stopped_)
        return;
    User &user = *users_[user_index];
    const OpType op = user.current;
    const Tick issued_at = app_.mesh().kernel().sim().now();
    ++issued_;
    const std::uint64_t lid =
        params_.ledger ? params_.ledger->open() : 0;
    svc::Payload req = app_.sampleRequest(op, user.rng);
    app_.mesh().callExternalS(
        teastore::names::kWebui, teastore::opName(op), req,
        [this, user_index, op, issued_at, lid](const svc::Payload &resp,
                                               svc::Status status) {
            if (params_.ledger)
                params_.ledger->close(lid, status);
            onResponse(user_index, op, issued_at, status,
                       resp.degraded);
        });
}

void
ClosedLoopDriver::onResponse(std::size_t user_index, OpType op,
                             Tick issued_at, svc::Status status,
                             bool degraded)
{
    auto &sim = app_.mesh().kernel().sim();
    measurement_.record(static_cast<unsigned>(op), issued_at, sim.now(),
                        status, degraded);
    if (stopped_)
        return;
    User &user = *users_[user_index];
    user.current = mix_.next(op, user.rng);
    if (params_.retreatBase > 0 && status != svc::Status::Ok) {
        // Backpressure retreat: a shedding or failing server gets
        // exponentially longer pauses, not immediate re-offers. The
        // wait is deterministic so enabling the retreat never
        // perturbs the user's RNG stream.
        ++user.consecutiveFailures;
        sim.scheduleAfter(
            retreatBackoff(params_.retreatBase, user.consecutiveFailures),
            [this, user_index] { issue(user_index); });
        return;
    }
    user.consecutiveFailures = 0;
    const double think = user.rng.exponential(
        static_cast<double>(params_.meanThink));
    sim.scheduleAfter(
        std::max<Tick>(1, static_cast<Tick>(std::llround(think))),
        [this, user_index] { issue(user_index); });
}

OpenLoopDriver::OpenLoopDriver(teastore::App &app, BrowseMix mix,
                               OpenLoopParams params, std::uint64_t seed)
    : app_(app),
      mix_(std::move(mix)),
      params_(std::move(params)),
      rng_(seed, "loadgen.openloop")
{
    if (params_.schedule.empty()) {
        if (params_.arrivalRps <= 0.0)
            fatal("open-loop driver needs a positive arrival rate");
    } else if (params_.schedule.peakRate() <= 0.0) {
        fatal("open-loop schedule needs a positive peak rate");
    }
    if (params_.batchedArrivals && params_.schedule.empty()) {
        // Fixed-rate gaps come pre-drawn in blocks from their own
        // stream; op and payload draws stay on rng_, so the two
        // consumers never interleave on one engine.
        gap_rng_ = std::make_unique<Rng>(seed, "loadgen.openloop.gaps");
        gaps_ = std::make_unique<SampleBatch>(
            *gap_rng_, SampleBatch::Kind::Exponential,
            static_cast<double>(kSecond) / params_.arrivalRps);
    }
}

void
OpenLoopDriver::start()
{
    if (started_)
        MS_PANIC("OpenLoopDriver started twice");
    started_ = true;
    scheduleNext();
}

double
OpenLoopDriver::currentRate() const
{
    if (params_.schedule.empty())
        return params_.arrivalRps;
    return params_.schedule.rateAt(app_.mesh().kernel().sim().now());
}

void
OpenLoopDriver::scheduleNext()
{
    if (stopped_)
        return;
    auto &sim = app_.mesh().kernel().sim();
    if (params_.schedule.empty()) {
        const double mean_gap_ns =
            static_cast<double>(kSecond) / params_.arrivalRps;
        const double gap =
            gaps_ ? gaps_->next() : rng_.exponential(mean_gap_ns);
        sim.scheduleAfter(
            std::max<Tick>(1, static_cast<Tick>(std::llround(gap))),
            [this] { arrival(); });
        return;
    }
    // Non-homogeneous Poisson by thinning (Lewis-Shedler): draw
    // candidate gaps at the schedule's peak rate and accept each
    // candidate with probability rate(t)/peak. Rejected candidates
    // advance time without scheduling an event.
    const double peak = params_.schedule.peakRate();
    const double mean_gap_ns = static_cast<double>(kSecond) / peak;
    Tick t = sim.now();
    for (unsigned draws = 0;; ++draws) {
        if (draws > 10'000'000)
            fatal("open-loop thinning failed to accept an arrival; "
                  "does the schedule decay to zero?");
        const double gap = rng_.exponential(mean_gap_ns);
        t += std::max<Tick>(1, static_cast<Tick>(std::llround(gap)));
        if (rng_.uniform01() * peak <= params_.schedule.rateAt(t))
            break;
    }
    sim.scheduleAt(t, [this] { arrival(); });
}

void
OpenLoopDriver::arrival()
{
    if (stopped_)
        return;
    const OpType op = mix_.sampleStationary(rng_);
    const Tick issued_at = app_.mesh().kernel().sim().now();
    if (params_.arrivalLog)
        params_.arrivalLog->push_back(issued_at);
    ++issued_;
    ++in_flight_;
    const std::uint64_t lid =
        params_.ledger ? params_.ledger->open() : 0;
    svc::Payload req = app_.sampleRequest(op, rng_);
    app_.mesh().callExternalS(
        teastore::names::kWebui, teastore::opName(op), req,
        [this, op, issued_at, lid](const svc::Payload &resp,
                                   svc::Status status) {
            --in_flight_;
            if (params_.ledger)
                params_.ledger->close(lid, status);
            measurement_.record(static_cast<unsigned>(op), issued_at,
                                app_.mesh().kernel().sim().now(),
                                status, resp.degraded);
        });
    scheduleNext();
}

} // namespace microscale::loadgen

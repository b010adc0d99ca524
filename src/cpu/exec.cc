#include "cpu/exec.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace microscale::cpu
{

namespace
{
/** IPC assumed for context-switch/overhead kernel code. */
constexpr double kOverheadIpc = 0.5;
} // namespace

ExecEngine::ExecEngine(sim::Simulation &sim, const topo::Machine &machine,
                       PerfModelParams params)
    : sim_(sim),
      machine_(machine),
      params_(params),
      running_(machine.numCpus(), nullptr),
      core_busy_(machine.numCores(), 0),
      active_cores_(machine.numSockets(), 0),
      socket_freq_ghz_(machine.numSockets(), 0.0),
      cpu_busy_ns_(machine.numCpus(), 0.0),
      prof_(machine.cpusPerCcx(), nullptr),
      prof_ratio_(machine.cpusPerCcx(), 0.0)
{
    for (SocketId s = 0; s < machine_.numSockets(); ++s)
        updateSocketFreq(s);
}

void
ExecEngine::setWork(ExecContext &ctx, const WorkProfile &profile,
                    double instructions,
                    sim::EventFn on_complete)
{
    if (ctx.running())
        MS_PANIC("setWork on running context ", ctx.name());
    if (ctx.hasWork())
        MS_PANIC("setWork on context ", ctx.name(), " with pending work");
    if (instructions <= 0.0)
        MS_PANIC("setWork with non-positive budget: ", instructions);
    profile.validate();
    ctx.profile_ = &profile;
    ctx.remaining_ = instructions;
    ctx.on_complete_ = std::move(on_complete);
}

bool
ExecEngine::siblingBusy(CpuId cpu) const
{
    const CpuId sib = machine_.siblingOf(cpu);
    return sib != kInvalidCpu && running_[sib] != nullptr;
}

void
ExecEngine::collectProfiles(CcxId ccx) const
{
    n_prof_ = 0;
    for (CpuId c : machine_.ccxCpus(ccx)) {
        const ExecContext *r = running_[c];
        if (!r)
            continue;
        const WorkProfile *q = r->profile_;
        if (std::find(prof_.begin(), prof_.begin() + n_prof_, q) ==
            prof_.begin() + n_prof_) {
            prof_ratio_[n_prof_] = std::numeric_limits<double>::quiet_NaN();
            prof_[n_prof_++] = q;
        }
    }
}

double
ExecEngine::missRatio(const WorkProfile &p, bool cold) const
{
    if (p.wssBytes <= 0.0)
        return params_.missFloor;

    const unsigned slot = static_cast<unsigned>(
        std::find(prof_.begin(), prof_.begin() + n_prof_, &p) -
        prof_.begin());
    double ratio = slot < n_prof_ ? prof_ratio_[slot]
                                  : std::numeric_limits<double>::quiet_NaN();
    if (std::isnan(ratio)) {
        // Sum the *distinct* working sets competing for this CCX's L3:
        // threads of the same service share code and heap, so a
        // profile's footprint counts once no matter how many of its
        // threads run here. This is the mechanism that rewards
        // same-service CCX affinity and punishes the default
        // scheduler's service mixing. Self comes first, then the other
        // profiles in first-occurrence CPU order: that order fixes the
        // floating-point sum, and so the result.
        double wss_sum = p.wssBytes;
        for (unsigned i = 0; i < n_prof_; ++i) {
            if (i != slot)
                wss_sum += prof_[i]->wssBytes;
        }
        const double l3 =
            static_cast<double>(machine_.params().cache.l3BytesPerCcx);
        double share = wss_sum > 0.0 ? l3 * (p.wssBytes / wss_sum) : l3;
        share = std::max(share, params_.minL3ShareBytes);
        const double resident = std::min(share, p.wssBytes);
        ratio = params_.missFloor + (1.0 - params_.missFloor) *
                                        (1.0 - resident / p.wssBytes);
        if (slot < n_prof_)
            prof_ratio_[slot] = ratio;
    }
    if (cold)
        ratio = std::max(ratio, params_.coldMissRatio);
    return ratio;
}

double
ExecEngine::computeRate(const ExecContext &ctx, CpuId cpu,
                        bool sibling_busy, double miss) const
{
    const WorkProfile &p = *ctx.profile_;
    const auto &cache = machine_.params().cache;
    const SocketId socket = machine_.socketOf(cpu);
    const double freq = socket_freq_ghz_[socket]; // cycles per ns

    NodeId home = ctx.homeNode();
    if (home == kInvalidNode)
        home = machine_.nodeOf(cpu);
    const double mem_lat_cycles =
        machine_.memLatencyNs(machine_.nodeOf(cpu), home) * freq;

    double cpi = 1.0 / p.ipcBase;
    cpi += p.branchMpki / 1000.0 * params_.branchPenaltyCycles;
    cpi += p.icacheMpki / 1000.0 * cache.l2LatencyCycles;
    cpi += p.l3Apki / 1000.0 *
           (miss * mem_lat_cycles + (1.0 - miss) * cache.l3LatencyCycles);

    double rate = freq / cpi;
    if (sibling_busy) {
        rate *= p.smtYield;
        const CpuId sib = machine_.siblingOf(cpu);
        const ExecContext *other =
            sib != kInvalidCpu ? running_[sib] : nullptr;
        if (other && other != &ctx && other->profile_ != &p)
            rate *= params_.smtHeteroFactor;
    }
    return rate;
}

double
ExecEngine::rateOn(const ExecContext &ctx, CpuId cpu) const
{
    if (!ctx.hasWork())
        MS_PANIC("rateOn without work attached");
    bool sibling = siblingBusy(cpu);
    // Ignore self when already on this very cpu's sibling slot.
    const CpuId sib = machine_.siblingOf(cpu);
    if (sib != kInvalidCpu && running_[sib] == &ctx)
        sibling = false;
    return computeRate(ctx, cpu, sibling, missRatioOn(ctx, cpu));
}

double
ExecEngine::missRatioOn(const ExecContext &ctx, CpuId cpu) const
{
    if (!ctx.hasWork())
        MS_PANIC("missRatioOn without work attached");
    collectProfiles(machine_.ccxOf(cpu));
    return missRatio(*ctx.profile_, ctx.cold());
}

double
ExecEngine::socketFreqGhz(SocketId socket) const
{
    if (socket >= machine_.numSockets())
        MS_PANIC("socketFreqGhz: socket ", socket, " out of range");
    return socket_freq_ghz_[socket];
}

bool
ExecEngine::updateSocketFreq(SocketId socket)
{
    const unsigned cores_per_socket =
        machine_.numCores() / machine_.numSockets();
    const double f = machine_.params().freq.freqGhz(active_cores_[socket],
                                                    cores_per_socket);
    if (f == socket_freq_ghz_[socket])
        return false;
    socket_freq_ghz_[socket] = f;
    return true;
}

void
ExecEngine::bank(ExecContext &ctx)
{
    if (!ctx.running())
        return;
    const Tick now = sim_.now();
    const Tick dt_ticks = now - ctx.last_bank_;
    ctx.last_bank_ = now;
    if (dt_ticks == 0 || ctx.rate_ <= 0.0)
        return;

    const double dt = static_cast<double>(dt_ticks);
    const double retired = std::min(ctx.remaining_, ctx.rate_ * dt);
    const WorkProfile &p = *ctx.profile_;
    const SocketId socket = machine_.socketOf(ctx.cpu_);
    const double freq = socket_freq_ghz_[socket];

    PerfCounters &c = ctx.counters_;
    c.instructions += retired;
    c.cycles += dt * freq;
    c.busyNs += dt;
    const double accesses = retired * p.l3Apki / 1000.0;
    c.l3Accesses += accesses;
    c.l3Misses += accesses * ctx.miss_ratio_;
    c.branchMisses += retired * p.branchMpki / 1000.0;
    c.icacheMisses += retired * p.icacheMpki / 1000.0;
    c.kernelInstructions += retired * p.kernelShare;
    if (ctx.sibling_busy_)
        c.smtBusyNs += dt;
    if (ctx.cold_accesses_left_ > 0.0) {
        c.coldNs += dt;
        ctx.cold_accesses_left_ =
            std::max(0.0, ctx.cold_accesses_left_ - accesses);
    }

    cpu_busy_ns_[ctx.cpu_] += dt;
    ctx.remaining_ -= retired;
}

void
ExecEngine::reprice(ExecContext &ctx)
{
    bank(ctx);
    ctx.sibling_busy_ = siblingBusy(ctx.cpu_);
    const bool cold = ctx.cold();
    ctx.miss_ratio_ = missRatio(*ctx.profile_, cold);
    ctx.rate_ =
        computeRate(ctx, ctx.cpu_, ctx.sibling_busy_, ctx.miss_ratio_);
    Tick delay = 1;
    if (ctx.remaining_ > 0.0) {
        if (ctx.rate_ <= 0.0)
            MS_PANIC("non-positive retire rate for ", ctx.name());
        delay = std::max<Tick>(
            1, static_cast<Tick>(std::ceil(ctx.remaining_ / ctx.rate_)));
        // If the context is cold, the rate will improve once the refill
        // completes; bound the slice so we reprice at warm-up time.
        if (cold) {
            const double access_rate = ctx.rate_ * ctx.profile_->l3Apki /
                                       1000.0; // accesses per ns
            if (access_rate > 0.0) {
                const Tick warm = std::max<Tick>(
                    1, static_cast<Tick>(std::ceil(
                           ctx.cold_accesses_left_ / access_rate)));
                delay = std::min(delay, warm);
            }
        }
    }
    // Moving the pending completion takes one seq, like cancel plus
    // schedule, so same-tick order is unchanged. Only a fired (or
    // never scheduled) completion needs a new event.
    if (!sim_.rearmAt(ctx.completion_, sim_.now() + delay)) {
        ctx.completion_ =
            sim_.scheduleAfter(delay, [this, &ctx] { complete(ctx); });
    }
}

void
ExecEngine::repriceCcx(CcxId ccx)
{
    collectProfiles(ccx);
    for (CpuId c : machine_.ccxCpus(ccx)) {
        if (running_[c])
            reprice(*running_[c]);
    }
}

void
ExecEngine::repriceSocket(SocketId socket)
{
    // Ascending CPU order across the socket, not CCX by CCX: a CCX's
    // SMT siblings sit numCores() further on, and the order of the
    // re-arms fixes how same-tick completions are sequenced.
    CcxId collected = ~CcxId(0);
    for (CpuId c : machine_.socketMask(socket) & busy_) {
        ExecContext *r = running_[c];
        const CcxId ccx = machine_.ccxOf(c);
        if (ccx != collected) {
            collectProfiles(ccx);
            collected = ccx;
        }
        reprice(*r);
    }
}

void
ExecEngine::startRun(ExecContext &ctx, CpuId cpu)
{
    if (cpu >= machine_.numCpus())
        MS_PANIC("startRun: cpu ", cpu, " out of range");
    if (!ctx.hasWork())
        MS_PANIC("startRun without work: ", ctx.name());
    if (ctx.running())
        MS_PANIC("startRun on already-running context ", ctx.name());
    if (running_[cpu])
        MS_PANIC("startRun on busy cpu ", cpu);

    const CcxId ccx = machine_.ccxOf(cpu);
    if (ctx.ever_ran_) {
        if (ctx.last_cpu_ != cpu)
            ++ctx.counters_.migrations;
        if (ctx.last_ccx_ != ccx) {
            ++ctx.counters_.ccxMigrations;
            // Refill the private hot set; if a same-service thread is
            // already running here, the shared footprint is warm and
            // the move is nearly free.
            bool shared_warm = false;
            for (CpuId c : machine_.ccxCpus(ccx)) {
                const ExecContext *r = running_[c];
                if (r && r->profile_ == ctx.profile_) {
                    shared_warm = true;
                    break;
                }
            }
            if (!shared_warm) {
                ctx.cold_accesses_left_ =
                    std::min(ctx.profile_->wssBytes,
                             params_.coldRefillBytes) /
                    64.0;
            }
        }
    }
    ctx.ever_ran_ = true;
    ctx.last_cpu_ = cpu;
    ctx.last_ccx_ = ccx;

    // First-touch NUMA policy: memory is homed on the node where the
    // thread first executes, as Linux does by default.
    if (ctx.home_node_ == kInvalidNode)
        ctx.home_node_ = machine_.nodeOf(cpu);

    // Occupancy update.
    const CoreId core = machine_.coreOf(cpu);
    const SocketId socket = machine_.socketOf(cpu);
    running_[cpu] = &ctx;
    busy_.set(cpu);
    const bool core_woke = core_busy_[core]++ == 0;
    if (core_woke)
        ++active_cores_[socket];

    ctx.cpu_ = cpu;
    ctx.last_bank_ = sim_.now();
    ctx.rate_ = 0.0;

    // Reprice everyone affected: whole socket on a frequency-bucket
    // crossing, otherwise just this CCX (covers the SMT sibling too).
    if (core_woke && updateSocketFreq(socket))
        repriceSocket(socket);
    else
        repriceCcx(ccx);
}

void
ExecEngine::detach(ExecContext &ctx)
{
    bank(ctx);
    ctx.completion_.cancel();

    const CpuId cpu = ctx.cpu_;
    const CoreId core = machine_.coreOf(cpu);
    const CcxId ccx = machine_.ccxOf(cpu);
    const SocketId socket = machine_.socketOf(cpu);

    running_[cpu] = nullptr;
    busy_.clear(cpu);
    const bool core_slept = --core_busy_[core] == 0;
    if (core_slept)
        --active_cores_[socket];
    ctx.cpu_ = kInvalidCpu;
    ctx.rate_ = 0.0;

    if (core_slept && updateSocketFreq(socket))
        repriceSocket(socket);
    else
        repriceCcx(ccx);
}

void
ExecEngine::stopRun(ExecContext &ctx)
{
    if (!ctx.running())
        MS_PANIC("stopRun on idle context ", ctx.name());
    detach(ctx);
}

void
ExecEngine::complete(ExecContext &ctx)
{
    bank(ctx);
    if (ctx.remaining_ > 0.0) {
        // Woke early (cold-refill boundary or rounding): re-evaluate.
        collectProfiles(machine_.ccxOf(ctx.cpu_));
        reprice(ctx);
        return;
    }
    // The completion has fired: drop its handle, so detach has no
    // pending event to cancel.
    ctx.completion_ = {};
    detach(ctx);
    ctx.profile_ = nullptr;
    ctx.remaining_ = 0.0;
    sim::EventFn fn = std::move(ctx.on_complete_);
    if (fn)
        fn();
}

void
ExecEngine::bankAll()
{
    for (CpuId c : busy_)
        bank(*running_[c]);
}

void
ExecEngine::chargeOverhead(CpuId cpu, Tick duration,
                           PerfCounters *attribute_to)
{
    if (cpu >= machine_.numCpus())
        MS_PANIC("chargeOverhead: cpu ", cpu, " out of range");
    const double dt = static_cast<double>(duration);
    cpu_busy_ns_[cpu] += dt;
    if (attribute_to) {
        const double freq = socket_freq_ghz_[machine_.socketOf(cpu)];
        const double instrs = dt * freq * kOverheadIpc;
        attribute_to->busyNs += dt;
        attribute_to->cycles += dt * freq;
        attribute_to->instructions += instrs;
        attribute_to->kernelInstructions += instrs;
    }
}

} // namespace microscale::cpu

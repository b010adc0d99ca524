/**
 * @file
 * Cross-checks of the exec model's reprice pass against the
 * per-context scan it replaced.
 *
 * The engine collects a CCX's distinct running profiles once per
 * reprice and shares each profile's miss ratio between its threads.
 * The reference below is the old scan, which rebuilt the set for every
 * context: self first, then each new profile in ascending CCX CPU
 * order. Both must give the same double, bit for bit, because the
 * summation order fixes the result and every later event tick.
 *
 * The same runs check the engine's occupancy index and its socket
 * frequencies, which change only when a core goes idle or busy,
 * against a recomputation from runningOn().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "cpu/exec.hh"
#include "sim/simulation.hh"
#include "topo/presets.hh"

namespace microscale::cpu
{
namespace
{

/** The per-context scan the engine used to run for every reprice. */
double
referenceMissRatio(const ExecEngine &engine, const WorkProfile &p,
                   CcxId ccx, bool cold)
{
    const PerfModelParams &pm = engine.params();
    const topo::Machine &m = engine.machine();
    if (p.wssBytes <= 0.0)
        return pm.missFloor;
    double wss_sum = p.wssBytes;
    std::vector<const WorkProfile *> seen{&p};
    for (CpuId c : m.ccxCpus(ccx)) {
        const ExecContext *r = engine.runningOn(c);
        if (!r)
            continue;
        const WorkProfile *q = r->profile();
        if (std::find(seen.begin(), seen.end(), q) == seen.end()) {
            seen.push_back(q);
            wss_sum += q->wssBytes;
        }
    }
    const double l3 = static_cast<double>(m.params().cache.l3BytesPerCcx);
    double share = wss_sum > 0.0 ? l3 * (p.wssBytes / wss_sum) : l3;
    share = std::max(share, pm.minL3ShareBytes);
    const double resident = std::min(share, p.wssBytes);
    double ratio = pm.missFloor +
                   (1.0 - pm.missFloor) * (1.0 - resident / p.wssBytes);
    if (cold)
        ratio = std::max(ratio, pm.coldMissRatio);
    return ratio;
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/** What the randomized checks reached, so a test can insist on it. */
struct Reached
{
    unsigned checks = 0;
    unsigned duplicates = 0;    // another thread of the profile on the CCX
    unsigned cold = 0;          // refilling after a cross-CCX move
    unsigned smtPairs = 0;      // SMT sibling running too
    unsigned offCcx = 0;        // rateOn for a context not on the CCX
    unsigned maxDistinct = 0;   // distinct profiles on one CCX
    unsigned mismatches = 0;
    unsigned indexChecks = 0;   // busy-mask and frequency checks
    std::vector<unsigned> freqChanges; // per socket, between checks
};

/**
 * Count a failure unless busyCpus() equals {c : runningOn(c)} and each
 * socket's frequency equals the curve at its recomputed active-core
 * count. `freq` holds the frequencies of the previous check.
 */
void
checkIndex(const ExecEngine &engine, std::vector<double> &freq, Reached &got)
{
    const topo::Machine &m = engine.machine();
    CpuMask busy;
    std::vector<bool> core_active(m.numCores(), false);
    std::vector<unsigned> active(m.numSockets(), 0);
    for (CpuId c = 0; c < m.numCpus(); ++c) {
        if (!engine.runningOn(c))
            continue;
        busy.set(c);
        if (!core_active[m.coreOf(c)]) {
            core_active[m.coreOf(c)] = true;
            ++active[m.socketOf(c)];
        }
    }
    ++got.indexChecks;
    if (engine.busyCpus() != busy) {
        ++got.mismatches;
        ADD_FAILURE() << "busy mask " << engine.busyCpus().toString()
                      << " != running " << busy.toString();
    }
    const unsigned cores_per_socket = m.numCores() / m.numSockets();
    got.freqChanges.resize(m.numSockets(), 0);
    freq.resize(m.numSockets(), 0.0);
    for (SocketId s = 0; s < m.numSockets(); ++s) {
        const double want =
            m.params().freq.freqGhz(active[s], cores_per_socket);
        const double have = engine.socketFreqGhz(s);
        if (bits(have) != bits(want)) {
            ++got.mismatches;
            ADD_FAILURE() << "socket " << s << " at " << have
                          << " GHz, curve gives " << want << " for "
                          << active[s] << " active cores";
        }
        if (have != freq[s])
            ++got.freqChanges[s];
        freq[s] = have;
    }
}

/**
 * Random starts, stops and completions of `contexts` contexts over the
 * CPUs of the CCXs `ccxs`, drawing each work item's profile from
 * `profiles`. After every step, each running context's miss ratio and
 * missRatioOn, and missRatioOn for every waiting context on a random
 * CPU, must equal the reference bit for bit. The occupancy index and
 * socket frequencies are checked after every step and every
 * completion; the only other events, cold-refill wake-ups, leave
 * occupancy alone.
 */
Reached
runRandomized(const topo::MachineParams &params,
              const std::vector<CcxId> &ccxs,
              unsigned n_profiles, unsigned contexts, unsigned steps,
              std::uint64_t seed)
{
    sim::Simulation sim;
    topo::Machine machine(params);
    ExecEngine engine(sim, machine);
    Rng rng(seed);

    std::vector<WorkProfile> profiles(n_profiles);
    for (unsigned i = 0; i < n_profiles; ++i) {
        WorkProfile &p = profiles[i];
        p.name = std::string("p").append(std::to_string(i));
        p.ipcBase = rng.uniformReal(0.5, 2.0);
        p.l3Apki = rng.uniformReal(1.0, 20.0);
        p.wssBytes = rng.uniformReal(0.5, 24.0) * 1024 * 1024;
        p.smtYield = rng.uniformReal(0.5, 0.7);
    }
    // One profile without a working set takes missRatio's early exit.
    profiles.back().wssBytes = 0.0;

    std::vector<CpuId> cpus;
    for (CcxId x : ccxs) {
        for (CpuId c : machine.ccxCpus(x))
            cpus.push_back(c);
    }

    std::vector<std::unique_ptr<ExecContext>> ctxs;
    for (unsigned i = 0; i < contexts; ++i) {
        ctxs.push_back(std::make_unique<ExecContext>(
            std::string("c").append(std::to_string(i)), kInvalidNode));
    }

    Reached got;
    std::vector<double> freq;
    auto expectRatio = [&](const ExecContext &ctx, CpuId cpu,
                           double have) {
        const double want = referenceMissRatio(
            engine, *ctx.profile(), machine.ccxOf(cpu), ctx.cold());
        ++got.checks;
        if (bits(have) != bits(want)) {
            ++got.mismatches;
            ADD_FAILURE() << ctx.name() << " on cpu " << cpu << ": "
                          << have << " != reference " << want;
        }
    };
    auto checkAll = [&] {
        checkIndex(engine, freq, got);
        for (CcxId x : ccxs) {
            std::vector<const WorkProfile *> distinct;
            for (CpuId c : machine.ccxCpus(x)) {
                const ExecContext *r = engine.runningOn(c);
                if (!r)
                    continue;
                if (std::find(distinct.begin(), distinct.end(),
                              r->profile()) != distinct.end())
                    ++got.duplicates;
                else
                    distinct.push_back(r->profile());
                const CpuId sib = machine.siblingOf(c);
                if (sib != kInvalidCpu && engine.runningOn(sib))
                    ++got.smtPairs;
                if (r->cold())
                    ++got.cold;
                expectRatio(*r, c, r->missRatio());
                expectRatio(*r, c, engine.missRatioOn(*r, c));
            }
            got.maxDistinct = std::max(
                got.maxDistinct, static_cast<unsigned>(distinct.size()));
        }
        for (const auto &ctx : ctxs) {
            if (ctx->running() || !ctx->hasWork())
                continue;
            const CpuId cpu = cpus[rng.index(cpus.size())];
            expectRatio(*ctx, cpu, engine.missRatioOn(*ctx, cpu));
            if (engine.rateOn(*ctx, cpu) <= 0.0)
                ADD_FAILURE() << "non-positive rateOn";
            ++got.offCcx;
        }
    };

    for (unsigned step = 0; step < steps; ++step) {
        sim.runUntil(sim.now() +
                     static_cast<Tick>(rng.uniformInt(0, 30)) *
                         kMicrosecond);
        checkAll();
        // Starts outnumber stops 2:1, so the CPUs fill up.
        std::vector<ExecContext *> running, waiting;
        for (const auto &ctx : ctxs)
            (ctx->running() ? running : waiting).push_back(ctx.get());
        std::vector<CpuId> idle;
        for (CpuId c : cpus) {
            if (!engine.runningOn(c))
                idle.push_back(c);
        }
        const bool start = !waiting.empty() && !idle.empty() &&
                           (running.empty() || rng.index(3) != 0);
        if (start) {
            ExecContext &ctx = *waiting[rng.index(waiting.size())];
            if (!ctx.hasWork()) {
                engine.setWork(ctx, profiles[rng.index(n_profiles)],
                               rng.uniformReal(1e4, 5e6), [&] {
                                   checkIndex(engine, freq, got);
                               });
            }
            engine.startRun(ctx, idle[rng.index(idle.size())]);
        } else if (!running.empty()) {
            engine.stopRun(*running[rng.index(running.size())]);
        }
        checkAll();
    }
    return got;
}

TEST(ExecReprice, MatchesPerContextScanOnRome128)
{
    // Three 8-CPU CCXs, five profiles, 30 threads: CCXs run the same
    // profile several times over, SMT pairs form, threads migrate and
    // go cold, completions reprice single contexts, and active-core
    // changes cross frequency buckets.
    const Reached r =
        runRandomized(topo::rome128(), {0, 1, 2}, 5, 30, 3000, 11);
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_GT(r.checks, 10000u);
    EXPECT_GT(r.duplicates, 1000u);
    EXPECT_GT(r.cold, 100u);
    EXPECT_GT(r.smtPairs, 1000u);
    EXPECT_GT(r.offCcx, 1000u);
}

TEST(ExecReprice, MatchesPerContextScanOnA32CpuCcx)
{
    // Two 16-core SMT2 CCXs with 40 profiles: the distinct-profile
    // list of a CCX grows past 20 entries.
    topo::MachineParams params = topo::rome128();
    params.coresPerCcx = 16;
    params.ccxsPerNode = 1;
    params.cache.l3BytesPerCcx = 64ull * 1024 * 1024;
    ASSERT_EQ(topo::Machine(params).cpusPerCcx(), 32u);
    const Reached r = runRandomized(params, {0, 1}, 40, 100, 3000, 12);
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_GE(r.maxDistinct, 20u);
    EXPECT_GT(r.duplicates, 100u);
    EXPECT_GT(r.cold, 0u);
}

TEST(ExecReprice, OccupancyIndexMatchesRunningOnTwoSockets)
{
    // Five CCXs on each socket of rome128x2, 64 threads: the active
    // core count of both sockets crosses the 8-core frequency buckets
    // up and down while the busy mask and socket frequencies are
    // checked against a recomputation.
    const topo::Machine machine(topo::rome128x2());
    const unsigned per_socket = machine.numCcxs() / machine.numSockets();
    std::vector<CcxId> ccxs;
    for (SocketId s = 0; s < machine.numSockets(); ++s) {
        for (CcxId x = 0; x < 5; ++x) {
            ccxs.push_back(s * per_socket + x);
            ASSERT_EQ(machine.socketOf(machine.ccxCpus(ccxs.back()).front()),
                      s);
        }
    }
    const Reached r = runRandomized(topo::rome128x2(), ccxs, 6, 64, 3000, 13);
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_GT(r.indexChecks, 6000u);
    ASSERT_EQ(r.freqChanges.size(), 2u);
    EXPECT_GT(r.freqChanges[0], 10u);
    EXPECT_GT(r.freqChanges[1], 10u);
}

TEST(ExecReprice, FrequencyCrossingRearmsInSocketCpuOrder)
{
    // Probes with equal work and equal conditions finish on the same
    // tick, each on its own CCX with an SMT sibling that keeps its
    // core active. Their last re-arm is the socket-wide reprice of a
    // frequency-bucket crossing, so they must complete in ascending
    // socket CPU order. On rome128 a CCX's SMT threads sit 64 CPUs
    // above its cores, so a CCX-by-CCX reprice would finish the probe
    // on CPU 64 (CCX 0) before the one on CPU 4 (CCX 1).
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    ExecEngine engine(sim, machine);
    WorkProfile p;
    p.name = "probe";
    p.ipcBase = 1.0;
    p.l3Apki = 10.0;
    p.wssBytes = 4.0 * 1024 * 1024;

    std::vector<std::unique_ptr<ExecContext>> ctxs;
    std::vector<CpuId> finished;
    std::vector<Tick> finished_at;
    auto start = [&](CpuId cpu, double instr) {
        ctxs.push_back(std::make_unique<ExecContext>(
            "on" + std::to_string(cpu), kInvalidNode));
        ExecContext *ctx = ctxs.back().get();
        engine.setWork(*ctx, p, instr, [&, ctx] {
            finished.push_back(ctx->lastCpu());
            finished_at.push_back(sim.now());
        });
        engine.startRun(*ctx, cpu);
    };

    // Probes alternate between a CCX's SMT half and its core half.
    const unsigned cores = machine.numCores();
    std::vector<CpuId> probes;
    for (CcxId x = 0; x < 4; ++x) {
        const CpuId core0 = machine.ccxCpus(x).front();
        ASSERT_LT(core0, cores);
        probes.push_back(x % 2 == 0 ? core0 + cores : core0);
    }
    constexpr double kFiller = 1e15;
    for (CpuId probe : probes)
        start(machine.siblingOf(probe), kFiller);

    // Fill cores on other CCXs up to the edge of a frequency bucket.
    const topo::FreqCurve &freq = machine.params().freq;
    CpuId next_core = machine.ccxCpus(4).front();
    while (freq.freqGhz(engine.activeCores(0), cores) ==
           freq.freqGhz(engine.activeCores(0) + 1, cores)) {
        start(next_core++, kFiller);
        ASSERT_LT(next_core, cores);
    }

    for (CpuId probe : probes)
        start(probe, 2e6);
    sim.runUntil(sim.now() + 100 * kMicrosecond);
    ASSERT_TRUE(finished.empty());

    const double before = engine.socketFreqGhz(0);
    start(next_core, kFiller);
    ASSERT_NE(engine.socketFreqGhz(0), before) << "no bucket crossing";

    sim.runUntil(sim.now() + 10 * kMillisecond);
    ASSERT_EQ(finished.size(), probes.size());
    for (Tick t : finished_at)
        EXPECT_EQ(t, finished_at.front()) << "probes must finish together";
    std::vector<CpuId> socket_order = probes;
    std::sort(socket_order.begin(), socket_order.end());
    EXPECT_EQ(finished, socket_order);
}

} // namespace
} // namespace microscale::cpu

/**
 * @file
 * Deterministic chaos search: run seeded random fault schedules
 * against a fixed TeaStore harness and check a battery of
 * conservation/consistency invariants after every run.
 *
 * Each schedule runs a full experiment (warmup + measurement + drain)
 * with the request-conservation ledger attached; afterwards the
 * harness verifies:
 *
 *   1. Ledger conservation - every admitted request reached exactly
 *      one terminal state (no leaks, no double counting).
 *   2. Quiescence - the drained simulation holds zero foreground
 *      events, zero queued requests and zero busy workers.
 *   3. Breaker/ejection consistency - probe flags imply HalfOpen,
 *      rolling windows re-count exactly, Closed breakers sit below
 *      their trip threshold, ejections respect the configured bound.
 *   4. Deadline monotonicity - along every traced retry/call chain a
 *      child attempt's effective deadline never exceeds its parent's.
 *
 * Verdicts are deterministic: the same schedule seed produces a
 * byte-identical script, run and fingerprint. When a schedule
 * violates, the ddmin shrinker reduces it to a minimal replayable
 * repro (every subset of a script is valid; see schedule.hh).
 */

#ifndef MICROSCALE_CHAOS_SEARCH_HH
#define MICROSCALE_CHAOS_SEARCH_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/types.hh"
#include "chaos/schedule.hh"
#include "core/experiment.hh"
#include "svc/fault.hh"
#include "svc/resilience.hh"

namespace microscale::chaos
{

/** Per-run knobs of the chaos harness. */
struct ChaosRunOptions
{
    /** Turn on passive outlier ejection (teastore::ejectionPolicy). */
    bool eject = false;
    /**
     * Sabotage the ledger: swallow every Timeout terminal, the
     * "deliberately broken counter" the search must catch and the
     * shrinker must minimize.
     */
    bool injectBug = false;
    /**
     * Run the cluster harness instead: two small8 machines over a LAN
     * fabric with a sharded persistence tier behind one cache node
     * (cluster::runScaleout). Arms the node-outage and fabric
     * loss/partition fault families on top of the usual ones, so the
     * ledger must conserve requests across whole-node loss.
     */
    bool cluster = false;
    /** Experiment seed (fixed across schedules; the schedule seed is
     *  what varies). */
    std::uint64_t experimentSeed = 42;
};

/** Outcome of one schedule run. */
struct ChaosVerdict
{
    std::uint64_t issued = 0;
    std::uint64_t terminals = 0;
    /** Terminal counts by svc::Status index. */
    std::array<std::uint64_t, svc::kNumStatuses> byStatus{};
    std::uint64_t faultsApplied = 0;
    std::uint64_t faultsSkipped = 0;
    /** Replicated-data-tier tallies (cluster harness only; all zero
     * when the run had no quorum writes). */
    std::uint64_t ackedWrites = 0;
    std::uint64_t lostAckedWrites = 0;
    std::uint64_t staleQuorumReads = 0;
    /** One line per broken invariant; empty = clean run. */
    std::vector<std::string> violations;

    bool clean() const { return violations.empty(); }
};

/** The fault space matching the harness topology (see search.cc).
 * With `clusterHarness` the space describes the cluster harness (two
 * active nodes plus a scripted mid-window join): replica counts span
 * the machines, the node/fabric fault families are armed, and the
 * replicated data tier (R = 2) arms the shard-outage / hint-pressure
 * / quorum-split families. */
FaultSpace harnessFaultSpace(bool clusterHarness = false);

/** Fault-injection window of the harness run, for randomSchedule. */
void harnessWindow(Tick &start, Tick &end);

/** Checks invariants 2-4 on a drained world (attach it to a
 * drainAtEnd run); appends one line per violation. */
class InvariantChecker : public core::Controller
{
  public:
    explicit InvariantChecker(std::vector<std::string> &violations)
        : violations_(violations)
    {
    }

    void drained(core::World &world, teastore::App &app,
                 core::RunResult &result) override;

  private:
    std::vector<std::string> &violations_;
};

/** Run one schedule through the harness and judge it. */
ChaosVerdict runSchedule(const svc::FaultScript &script,
                         const ChaosRunOptions &opts);

/**
 * FNV-1a fingerprint over the canonical script rendering and the
 * verdict counters/violations. Two runs agree on the fingerprint iff
 * they saw the same schedule and the same outcome - the determinism
 * check `chaos_search --seed S` twice relies on this.
 */
std::uint64_t fingerprint(const svc::FaultScript &script,
                          const ChaosVerdict &verdict);

/**
 * ddmin schedule shrinker: the smallest sub-script of `script` that
 * still yields a violating run under `opts`. `runsOut` (optional)
 * receives the number of harness runs spent. Returns `script`
 * unchanged when it does not violate in the first place.
 */
svc::FaultScript shrinkSchedule(const svc::FaultScript &script,
                                const ChaosRunOptions &opts,
                                unsigned *runsOut = nullptr);

/** Search configuration (tools/chaos_search and msim --chaos-*). */
struct SearchOptions
{
    /** First schedule seed; schedule i uses seed + i. */
    std::uint64_t seed = 1;
    /** Schedules to run (inject-bug mode: stop at first violation). */
    unsigned schedules = 200;
    /** Max fault events per schedule. */
    unsigned maxEvents = 12;
    ChaosRunOptions run;
};

/** Aggregate outcome of a search. */
struct SearchResult
{
    unsigned ran = 0;
    unsigned violating = 0;
    /** FNV-1a over every run's fingerprint, in order. */
    std::uint64_t combinedFingerprint = 0;
    /** Events in the minimal repro (inject-bug mode; 0 = none found). */
    unsigned shrunkEvents = 0;
};

/**
 * Run the search, streaming one line per schedule to `os`. In
 * inject-bug mode the first violating schedule is shrunk and the
 * minimal FaultScript printed.
 */
SearchResult runSearch(const SearchOptions &opts, std::ostream &os);

} // namespace microscale::chaos

#endif // MICROSCALE_CHAOS_SEARCH_HH

/**
 * @file
 * Run probe linked into both benchmark builds of msim.
 *
 * It wraps the event-loop entry points Simulation::runUntil and
 * Simulation::run, which a run calls a handful of times, and from them
 * stamps:
 *   - setup_ns: process start (static initialisation) to the first
 *     event-loop call, i.e. machine, placement, app and data-store
 *     build;
 *   - loop_ns: first event-loop entry to last event-loop exit;
 *   - sim_end_ticks and events_fired of the simulation;
 *   - peak_rss_kb of the process at exit.
 * Both loop calls are also timed entries; their self time is the event
 * core's residual (dispatch plus callback bodies under no other
 * wrapped entry).
 *
 * At exit it writes one JSON object, with the build stamp and every
 * registered entry, to the file named by PERFBENCH_PROBE_OUT (nothing
 * when unset).
 */

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "span.hh"
#include "sim/simulation.hh"

namespace perfbench
{
namespace
{

constexpr std::size_t kMaxEntries = 64;
Entry *g_entries[kMaxEntries];
std::size_t g_entry_count = 0;

std::uint64_t g_start_ns = 0;
std::uint64_t g_first_loop_ns = 0;
std::uint64_t g_last_loop_ns = 0;
std::uint64_t g_loop_calls = 0;
std::uint64_t g_events_fired = 0;
microscale::Tick g_sim_end = 0;

__attribute__((constructor(101))) void
stampStart()
{
    g_start_ns = nowNs();
}

/** Stamps loop wall time and event counts around one loop call. */
class LoopStamp
{
  public:
    explicit LoopStamp(const microscale::sim::Simulation *sim)
        : sim_(sim), events_before_(sim->eventsProcessed())
    {
        if (g_loop_calls++ == 0)
            g_first_loop_ns = nowNs();
    }

    ~LoopStamp()
    {
        g_last_loop_ns = nowNs();
        g_sim_end = sim_->now();
        g_events_fired += sim_->eventsProcessed() - events_before_;
    }

    LoopStamp(const LoopStamp &) = delete;
    LoopStamp &operator=(const LoopStamp &) = delete;

  private:
    const microscale::sim::Simulation *sim_;
    std::uint64_t events_before_;
};

const char *
sanitizers()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "on";
#else
    return "none";
#endif
}

/** CPU brand string from cpuid, trimmed; "unknown" off x86. */
void
cpuModel(char (&out)[49])
{
    std::strcpy(out, "unknown");
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12];
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return;
    }
    std::memcpy(out, regs, sizeof(regs));
    out[48] = '\0';
    char *start = out;
    while (*start == ' ')
        ++start;
    std::memmove(out, start, std::strlen(start) + 1);
    for (std::size_t n = std::strlen(out); n > 0 && out[n - 1] == ' '; --n)
        out[n - 1] = '\0';
#endif
}

/**
 * Peak resident set of this process image (VmHWM). getrusage's maxrss
 * would also count the parent's memory from before exec.
 */
unsigned long long
peakRssKb()
{
    unsigned long long kb = 0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof(line), f)) {
            if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
                break;
        }
        std::fclose(f);
    }
    return kb;
}

void
writeReport()
{
    const char *path = std::getenv("PERFBENCH_PROBE_OUT");
    if (!path || !*path)
        return;
    std::FILE *f = std::fopen(path, "w");
    if (!f)
        return;
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    char cpu[49];
    cpuModel(cpu);
    std::fprintf(f,
                 "{\"variant\": \"%s\", \"build_type\": \"%s\", "
                 "\"flags\": \"%s\", \"compiler\": \"gcc %s\", "
                 "\"ndebug\": %s, \"sanitizers\": \"%s\", "
                 "\"cpu\": \"%s\",\n",
                 PERFBENCH_VARIANT, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
                 __VERSION__, ndebug ? "true" : "false", sanitizers(), cpu);
    const std::uint64_t setup_ns =
        g_loop_calls ? g_first_loop_ns - g_start_ns : 0;
    const std::uint64_t loop_ns =
        g_loop_calls ? g_last_loop_ns - g_first_loop_ns : 0;
    std::fprintf(f,
                 " \"setup_ns\": %llu, \"loop_ns\": %llu, "
                 "\"loop_calls\": %llu, \"sim_end_ticks\": %llu, "
                 "\"events_fired\": %llu, \"peak_rss_kb\": %llu,\n"
                 " \"entries\": [",
                 static_cast<unsigned long long>(setup_ns),
                 static_cast<unsigned long long>(loop_ns),
                 static_cast<unsigned long long>(g_loop_calls),
                 static_cast<unsigned long long>(g_sim_end),
                 static_cast<unsigned long long>(g_events_fired),
                 peakRssKb());
    for (std::size_t i = 0; i < g_entry_count; ++i) {
        const Entry &e = *g_entries[i];
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"layer\": \"%s\", "
                     "\"timed\": %s, \"present\": %s, \"calls\": %llu, "
                     "\"self_ns\": %llu, \"by_layer\": {",
                     i ? "," : "", e.name, kLayerNames[e.layer],
                     e.timed ? "true" : "false",
                     e.present ? "true" : "false",
                     static_cast<unsigned long long>(e.calls),
                     static_cast<unsigned long long>(e.self_ns));
        for (unsigned l = 0; l < kLayers; ++l) {
            std::fprintf(f, "%s\"%s\": %llu", l ? ", " : "",
                         kLayerNames[l],
                         static_cast<unsigned long long>(e.by_layer[l]));
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

/** Writes the report once static destruction begins (normal exit). */
struct ReportAtExit
{
    ~ReportAtExit() { writeReport(); }
} g_report_at_exit;

} // namespace

Entry::Entry(const char *name_, Layer layer_, bool timed_, bool present_)
    : name(name_), layer(layer_), timed(timed_), present(present_)
{
    if (g_entry_count == kMaxEntries) {
        std::fprintf(stderr, "perfbench: more than %zu entries\n",
                     kMaxEntries);
        std::abort();
    }
    g_entries[g_entry_count++] = this;
}

} // namespace perfbench

using microscale::Tick;
using microscale::sim::Simulation;
using perfbench::kSim;

// The event loop: stamped and timed in both builds.
extern "C" Tick __real__ZN10microscale3sim10Simulation8runUntilEm(
    Simulation *, Tick) __attribute__((weak));
static perfbench::Entry entry_runUntil(
    "sim.Simulation.runUntil", kSim, true,
    &__real__ZN10microscale3sim10Simulation8runUntilEm != nullptr);
extern "C" Tick
__wrap__ZN10microscale3sim10Simulation8runUntilEm(Simulation *self,
                                                  Tick until)
{
    perfbench::LoopStamp stamp(self);
    perfbench::Span span(entry_runUntil);
    return __real__ZN10microscale3sim10Simulation8runUntilEm(self, until);
}

extern "C" Tick __real__ZN10microscale3sim10Simulation3runEv(Simulation *)
    __attribute__((weak));
static perfbench::Entry entry_run(
    "sim.Simulation.run", kSim, true,
    &__real__ZN10microscale3sim10Simulation3runEv != nullptr);
extern "C" Tick
__wrap__ZN10microscale3sim10Simulation3runEv(Simulation *self)
{
    perfbench::LoopStamp stamp(self);
    perfbench::Span span(entry_run);
    return __real__ZN10microscale3sim10Simulation3runEv(self);
}

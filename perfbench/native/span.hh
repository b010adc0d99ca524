/**
 * @file
 * Spans and counters for link-wrapped entry points.
 *
 * Every wrapped entry point owns one Entry. A timed entry opens a Span
 * around the call into the real function; a Span's self time is its
 * inclusive time minus the time of the spans nested inside it. A
 * counted entry only bumps its call count, split by the layer of the
 * innermost open span (the layer that caused the call).
 *
 * The simulation runs on one thread (msim --jobs 1); the counters are
 * plain integers for that reason.
 */

#ifndef PERFBENCH_SPAN_HH
#define PERFBENCH_SPAN_HH

#include <chrono>
#include <cstdint>

namespace perfbench
{

/** Layers a call can be charged to. kCore is the runner's set-up. */
enum Layer : unsigned
{
    kCore,
    kSim,
    kCpu,
    kOs,
    kTopo,
    kBase,
    kNet,
    kSvc,
    kDb,
    kCluster,
    kApp,
    kLayers
};

inline constexpr const char *kLayerNames[kLayers] = {
    "core", "sim", "cpu", "os", "topo", "base",
    "net", "svc", "db", "cluster", "app"};

/** One wrapped entry point. Constructed during static initialisation. */
struct Entry
{
    /** Registers the entry with the run report (probe.cc). */
    Entry(const char *name, Layer layer, bool timed, bool present);

    const char *name;
    Layer layer;
    bool timed;
    /** False when the weak __real_ symbol resolved to null. */
    bool present;
    std::uint64_t calls = 0;
    std::uint64_t self_ns = 0;
    /** Counted entries: calls split by the caller's layer. */
    std::uint64_t by_layer[kLayers] = {};
};

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Times one call of a timed entry. */
class Span
{
  public:
    explicit Span(Entry &entry)
        : entry_(entry), parent_(current_), start_(nowNs())
    {
        ++entry.calls;
        current_ = this;
    }

    ~Span()
    {
        const std::uint64_t incl = nowNs() - start_;
        entry_.self_ns += incl - child_ns_;
        if (parent_)
            parent_->child_ns_ += incl;
        current_ = parent_;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Layer of the innermost open span; kCore outside any span. */
    static Layer currentLayer()
    {
        return current_ ? current_->entry_.layer : kCore;
    }

  private:
    Entry &entry_;
    Span *parent_;
    std::uint64_t start_;
    std::uint64_t child_ns_ = 0;
    static inline thread_local Span *current_ = nullptr;
};

/** Counts one call of a counted entry. */
class Count
{
  public:
    explicit Count(Entry &entry)
    {
        ++entry.calls;
        ++entry.by_layer[Span::currentLayer()];
    }
};

} // namespace perfbench

/**
 * Wrap one entry point. `M` is its mangled name, which the build also
 * passes to the linker as --wrap=M (perfbench/native/CMakeLists.txt
 * collects every line that starts with "WRAP(_Z"). `Params` is the
 * real signature with the object pointer first, `Args` forwards it.
 * The __real_ symbol is weak: an entry point that no longer exists
 * under this name links as null and is reported absent.
 */
#define WRAP(M, name, layer, Scope, Ret, Params, Args)                       \
    extern "C" Ret __real_##M Params __attribute__((weak));                   \
    static ::perfbench::Entry entry_##M(name, layer, Scope##_IS_TIMED,        \
                                        &__real_##M != nullptr);              \
    extern "C" Ret __wrap_##M Params                                          \
    {                                                                         \
        ::perfbench::Scope scope(entry_##M);                                  \
        return __real_##M Args;                                               \
    }

#define Span_IS_TIMED true
#define Count_IS_TIMED false

#endif // PERFBENCH_SPAN_HH

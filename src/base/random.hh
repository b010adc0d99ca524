/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component owns its own Rng stream, derived from a
 * master seed plus a stream label, so that adding or removing one
 * component never perturbs the draws seen by another. This keeps
 * experiments reproducible and A/B comparisons paired.
 */

#ifndef MICROSCALE_BASE_RANDOM_HH
#define MICROSCALE_BASE_RANDOM_HH

#include <cstdint>
#include <memory>
#include <random>
#include <string_view>
#include <vector>

namespace microscale
{

/**
 * std::mt19937_64, output for output, holding no state array until its
 * 157th draw.
 *
 * After seeding, output k < 156 of the first twist depends only on the
 * seeded words x_k, x_{k+1} and x_{k+156}, none of which that twist has
 * overwritten yet. Two cursors walk the seeding recurrence to supply
 * them. The 157th draw builds a std::mt19937_64 from the same seed,
 * discards 156 values and delegates to it from then on. A stream that
 * draws at most 156 values (a simulated user in a short run) costs
 * about 40 bytes instead of 2.5 KB and never runs the full seeding.
 */
class LazyMt19937_64
{
  public:
    using result_type = std::uint64_t;

    /** Draws served before the standard engine is built. */
    static constexpr std::uint32_t lazyDraws =
        std::mt19937_64::state_size - std::mt19937_64::shift_size;

    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }

    explicit LazyMt19937_64(result_type seed) : seed_(seed), lo_(seed) {}

    LazyMt19937_64(const LazyMt19937_64 &other);
    LazyMt19937_64 &operator=(const LazyMt19937_64 &other);
    LazyMt19937_64(LazyMt19937_64 &&) noexcept = default;
    LazyMt19937_64 &operator=(LazyMt19937_64 &&) noexcept = default;

    result_type operator()()
    {
        if (full_)
            return (*full_)();
        return lazyDraw();
    }

    /** Whether the standard engine has been built (past draw 156). */
    bool materialized() const { return full_ != nullptr; }

  private:
    result_type lazyDraw();

    result_type seed_;
    /** x_k, where k is the number of values drawn so far. */
    std::uint64_t lo_;
    /** x_{k+156}; walked from the seed on the first draw. */
    std::uint64_t hi_ = 0;
    std::uint32_t drawn_ = 0;
    std::unique_ptr<std::mt19937_64> full_;
};

/**
 * A self-contained pseudo-random stream (splitmix-seeded mt19937_64).
 */
class Rng
{
  public:
    /** Construct from a raw 64-bit seed. */
    explicit Rng(std::uint64_t seed);

    /**
     * Construct a named substream: the label is hashed into the seed so
     * distinct components get decorrelated streams from one master seed.
     */
    Rng(std::uint64_t master_seed, std::string_view stream_label);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Uniform real in [0, 1). */
    double uniform01() { return uniformReal(0.0, 1.0); }

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Normally distributed value. */
    double normal(double mean, double stddev);

    /**
     * Log-normal with the given mean and coefficient of variation of the
     * resulting distribution (not of the underlying normal).
     */
    double lognormal(double mean, double cv);

    /** Bernoulli draw. */
    bool chance(double probability);

    /**
     * Sample an index from a discrete distribution given by weights.
     * Weights need not be normalized; all must be >= 0 and their sum > 0.
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /** Pick a uniformly random element index of a container of size n. */
    std::size_t index(std::size_t n);

    /**
     * Batched draws: fill `out[0..n)` with n consecutive draws from
     * this stream. Each fill consumes exactly the same engine state
     * as n scalar calls, so mixing scalar and batched consumption of
     * one stream stays reproducible. Batching amortizes the
     * distribution setup and keeps the engine state hot; the fluid
     * load mode and the speed harness drain thousands of inter-arrival
     * gaps per refill through these.
     */
    void fillUniform01(double *out, std::size_t n);

    /** Batched exponential draws with the given mean. */
    void fillExponential(double *out, std::size_t n, double mean);

    /**
     * Batched unit-mean lognormal draws with the given coefficient of
     * variation. Scale by m to get LogNormal draws of mean m: the
     * lognormal family is closed under scaling, so m * lognormalUnit(cv)
     * equals lognormal(m, cv) up to floating-point rounding.
     */
    void fillLognormalUnit(double *out, std::size_t n, double cv);

  private:
    LazyMt19937_64 engine_;
};

/**
 * A refillable batch of pre-drawn samples from one Rng stream.
 *
 * Wraps the fill-N APIs with a cursor: next() hands out the buffered
 * draws in order and refills when exhausted. Draw order is identical
 * to calling the scalar API each time, so a SampleBatch can front any
 * single-distribution stream without perturbing determinism — but do
 * NOT front a stream whose other draw kinds interleave with these
 * draws, because prefetching would reorder them.
 */
class SampleBatch
{
  public:
    enum class Kind
    {
        Uniform01,
        Exponential,
        LognormalUnit,
    };

    /**
     * @param param the distribution parameter (exponential mean or
     *        lognormal cv; unused for Uniform01).
     */
    SampleBatch(Rng &rng, Kind kind, double param,
                std::size_t capacity = 1024);

    /** Next sample (refills transparently). */
    double next()
    {
        if (pos_ == buf_.size())
            refill();
        return buf_[pos_++];
    }

    /** Buffered samples not yet handed out. */
    std::size_t buffered() const { return buf_.size() - pos_; }

  private:
    void refill();

    Rng &rng_;
    Kind kind_;
    double param_;
    std::vector<double> buf_;
    std::size_t pos_;
};

/** Stable 64-bit FNV-1a hash of a string, for stream derivation. */
std::uint64_t hashLabel(std::string_view label);

} // namespace microscale

#endif // MICROSCALE_BASE_RANDOM_HH

#include "base/random.hh"

#include <cmath>

#include "base/logging.hh"

namespace microscale
{

std::uint64_t
hashLabel(std::string_view label)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : label) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace
{

// splitmix64: decorrelates nearby seeds before feeding mt19937_64.
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
mixSeed(std::uint64_t seed)
{
    std::uint64_t s = seed;
    return splitmix64(s);
}

// One step of the standard's seeding recurrence: x_i from x_{i-1}.
std::uint64_t
seedStep(std::uint64_t prev, std::uint64_t i)
{
    using E = std::mt19937_64;
    return E::initialization_multiplier *
               (prev ^ (prev >> (E::word_size - 2))) +
           i;
}

} // namespace

LazyMt19937_64::LazyMt19937_64(const LazyMt19937_64 &other)
    : seed_(other.seed_), lo_(other.lo_), hi_(other.hi_),
      drawn_(other.drawn_),
      full_(other.full_ ? std::make_unique<std::mt19937_64>(*other.full_)
                        : nullptr)
{
}

LazyMt19937_64 &
LazyMt19937_64::operator=(const LazyMt19937_64 &other)
{
    return *this = LazyMt19937_64(other);
}

LazyMt19937_64::result_type
LazyMt19937_64::lazyDraw()
{
    using E = std::mt19937_64;
    if (drawn_ == lazyDraws) {
        full_ = std::make_unique<E>(seed_);
        full_->discard(lazyDraws);
        return (*full_)();
    }
    if (drawn_ == 0) {
        hi_ = seed_;
        for (std::uint64_t i = 1; i <= E::shift_size; ++i)
            hi_ = seedStep(hi_, i);
    }
    // First twist, word k: only seeded words are read.
    const std::uint64_t k = drawn_++;
    const std::uint64_t next = seedStep(lo_, k + 1);
    constexpr std::uint64_t upper = ~std::uint64_t(0) << E::mask_bits;
    const std::uint64_t y = (lo_ & upper) | (next & ~upper);
    std::uint64_t z = hi_ ^ (y >> 1) ^ ((y & 1) ? E::xor_mask : 0);
    lo_ = next;
    hi_ = seedStep(hi_, k + E::shift_size + 1);
    z ^= (z >> E::tempering_u) & E::tempering_d;
    z ^= (z << E::tempering_s) & E::tempering_b;
    z ^= (z << E::tempering_t) & E::tempering_c;
    z ^= z >> E::tempering_l;
    return z;
}

Rng::Rng(std::uint64_t seed) : engine_(mixSeed(seed))
{
}

Rng::Rng(std::uint64_t master_seed, std::string_view stream_label)
    : engine_(mixSeed(master_seed ^ hashLabel(stream_label)))
{
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        MS_PANIC("uniformInt with lo > hi: ", lo, " > ", hi);
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::uniformReal(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        MS_PANIC("exponential with non-positive mean: ", mean);
    std::exponential_distribution<double> dist(1.0 / mean);
    return dist(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

double
Rng::lognormal(double mean, double cv)
{
    if (mean <= 0.0)
        MS_PANIC("lognormal with non-positive mean: ", mean);
    if (cv <= 0.0)
        return mean;
    // For LogNormal(mu, sigma): mean = exp(mu + sigma^2/2),
    // cv^2 = exp(sigma^2) - 1.
    const double sigma2 = std::log1p(cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    std::lognormal_distribution<double> dist(mu, std::sqrt(sigma2));
    return dist(engine_);
}

bool
Rng::chance(double probability)
{
    if (probability <= 0.0)
        return false;
    if (probability >= 1.0)
        return true;
    return uniform01() < probability;
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            MS_PANIC("negative weight in weightedIndex");
        total += w;
    }
    if (total <= 0.0)
        MS_PANIC("weightedIndex with zero total weight");
    double x = uniformReal(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (x < weights[i])
            return i;
        x -= weights[i];
    }
    return weights.size() - 1;
}

std::size_t
Rng::index(std::size_t n)
{
    if (n == 0)
        MS_PANIC("index() over empty range");
    return static_cast<std::size_t>(uniformInt(0, n - 1));
}

void
Rng::fillUniform01(double *out, std::size_t n)
{
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = dist(engine_);
}

void
Rng::fillExponential(double *out, std::size_t n, double mean)
{
    if (mean <= 0.0)
        MS_PANIC("exponential with non-positive mean: ", mean);
    std::exponential_distribution<double> dist(1.0 / mean);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = dist(engine_);
}

void
Rng::fillLognormalUnit(double *out, std::size_t n, double cv)
{
    if (cv <= 0.0) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = 1.0;
        return;
    }
    const double sigma2 = std::log1p(cv * cv);
    const double mu = -0.5 * sigma2;
    std::lognormal_distribution<double> dist(mu, std::sqrt(sigma2));
    for (std::size_t i = 0; i < n; ++i) {
        // Drop the cached Box-Muller second value so each draw
        // consumes the engine exactly like a fresh scalar call.
        dist.reset();
        out[i] = dist(engine_);
    }
}

SampleBatch::SampleBatch(Rng &rng, Kind kind, double param,
                         std::size_t capacity)
    : rng_(rng), kind_(kind), param_(param)
{
    if (capacity == 0)
        MS_PANIC("SampleBatch with zero capacity");
    buf_.resize(capacity);
    pos_ = buf_.size(); // force a refill on first next()
}

void
SampleBatch::refill()
{
    switch (kind_) {
    case Kind::Uniform01:
        rng_.fillUniform01(buf_.data(), buf_.size());
        break;
    case Kind::Exponential:
        rng_.fillExponential(buf_.data(), buf_.size(), param_);
        break;
    case Kind::LognormalUnit:
        rng_.fillLognormalUnit(buf_.data(), buf_.size(), param_);
        break;
    }
    pos_ = 0;
}

} // namespace microscale

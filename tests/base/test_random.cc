/**
 * @file
 * Tests for base/random: determinism, stream independence and
 * distribution sanity.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"

namespace microscale
{
namespace
{

TEST(Random, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(42);
    Rng b(43);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniformInt(0, 1000000) == b.uniformInt(0, 1000000))
            ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Random, NamedStreamsAreIndependent)
{
    Rng a(42, "stream-a");
    Rng b(42, "stream-b");
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniformInt(0, 1000000) == b.uniformInt(0, 1000000))
            ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Random, SameLabelSameStream)
{
    Rng a(42, "stream");
    Rng b(42, "stream");
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a.uniformInt(0, 1u << 30), b.uniformInt(0, 1u << 30));
}

TEST(Random, UniformIntBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Random, UniformIntDegenerate)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Random, UniformRealBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Random, ExponentialMean)
{
    Rng rng(7);
    SampleStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.exponential(5.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.1);
    EXPECT_GE(s.min(), 0.0);
}

TEST(Random, LognormalMeanAndCv)
{
    Rng rng(7);
    SampleStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.lognormal(10.0, 0.3));
    EXPECT_NEAR(s.mean(), 10.0, 0.15);
    EXPECT_NEAR(s.stddev() / s.mean(), 0.3, 0.02);
}

TEST(Random, LognormalZeroCvIsDeterministic)
{
    Rng rng(7);
    EXPECT_DOUBLE_EQ(rng.lognormal(8.0, 0.0), 8.0);
}

TEST(Random, ChanceExtremes)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Random, ChanceFrequency)
{
    Rng rng(7);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Random, WeightedIndexRespectsWeights)
{
    Rng rng(7);
    std::vector<double> w = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.weightedIndex(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / 100000.0, 0.25, 0.01);
    EXPECT_NEAR(counts[2] / 100000.0, 0.75, 0.01);
}

TEST(Random, WeightedIndexSingleElement)
{
    Rng rng(7);
    EXPECT_EQ(rng.weightedIndex({2.5}), 0u);
}

TEST(Random, IndexCoversRange)
{
    Rng rng(7);
    std::set<std::size_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.index(4));
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(*seen.rbegin(), 3u);
}

TEST(Random, HashLabelStable)
{
    EXPECT_EQ(hashLabel("abc"), hashLabel("abc"));
    EXPECT_NE(hashLabel("abc"), hashLabel("abd"));
    EXPECT_NE(hashLabel(""), hashLabel("a"));
}

TEST(Random, FillExponentialMatchesScalarSequence)
{
    // A batched fill must consume the engine exactly like n scalar
    // draws, so batched and scalar consumers of one stream agree.
    Rng a(42, "batch");
    Rng b(42, "batch");
    double batch[64];
    a.fillExponential(batch, 64, 3.0);
    for (double v : batch)
        EXPECT_DOUBLE_EQ(v, b.exponential(3.0));
    // Engine states stay in lockstep after the fill.
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Random, FillUniform01MatchesScalarSequence)
{
    Rng a(7, "u");
    Rng b(7, "u");
    double batch[16];
    a.fillUniform01(batch, 16);
    for (double v : batch) {
        EXPECT_DOUBLE_EQ(v, b.uniform01());
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Random, FillLognormalUnitScalesToLognormal)
{
    // lognormal(mean, cv) == mean * lognormalUnit(cv) up to rounding:
    // the family is closed under scaling, and the unit draw differs
    // only by the log(mean) shift inside the exp (a few ULPs).
    Rng a(9, "ln");
    Rng b(9, "ln");
    double unit[32];
    a.fillLognormalUnit(unit, 32, 0.5);
    for (double v : unit) {
        const double want = b.lognormal(2.5, 0.5);
        EXPECT_NEAR(2.5 * v, want, 1e-12 * want);
    }
}

TEST(Random, FillLognormalUnitZeroCvIsDegenerate)
{
    Rng a(9, "ln0");
    double unit[4];
    a.fillLognormalUnit(unit, 4, 0.0);
    for (double v : unit)
        EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Random, SampleBatchRefillsTransparently)
{
    Rng a(13, "sb");
    Rng b(13, "sb");
    SampleBatch batch(a, SampleBatch::Kind::Exponential, 2.0,
                      /*capacity=*/8);
    // Drain past several refill boundaries; order must match scalar.
    for (int i = 0; i < 30; ++i)
        EXPECT_DOUBLE_EQ(batch.next(), b.exponential(2.0));
    EXPECT_GT(batch.buffered(), 0u);
}

// Seeds for the oracle tests: the edge values plus a spread of others.
std::vector<std::uint64_t>
oracleSeeds()
{
    std::vector<std::uint64_t> seeds = {0, 1, ~0ull};
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    while (seeds.size() < 1000) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        seeds.push_back(x ^ (x >> 29));
    }
    return seeds;
}

TEST(Random, LazyEngineMatchesStandardEngine)
{
    // 1,000 raw outputs cross the lazy/standard boundary at 156 and
    // two full twists of the 312-word state.
    for (std::uint64_t seed : oracleSeeds()) {
        LazyMt19937_64 lazy(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(lazy(), oracle()) << "seed " << seed << " draw " << i;
    }
}

TEST(Random, LazyEngineCopiesContinueIdentically)
{
    for (std::uint64_t seed : {std::uint64_t(0), std::uint64_t(5),
                               ~std::uint64_t(0)}) {
        for (int at : {0, 1, 155, 156, 157, 700}) {
            LazyMt19937_64 lazy(seed);
            std::mt19937_64 oracle(seed);
            for (int i = 0; i < at; ++i)
                ASSERT_EQ(lazy(), oracle());
            const std::mt19937_64 oracleCopy = oracle;
            LazyMt19937_64 copy = lazy;
            LazyMt19937_64 assigned(seed + 1);
            assigned();
            assigned = lazy;
            // Advance the original first: the copies must not share state.
            std::mt19937_64 o1 = oracleCopy;
            for (int i = 0; i < 400; ++i)
                ASSERT_EQ(lazy(), o1()) << "at " << at << " draw " << i;
            std::mt19937_64 o2 = oracleCopy;
            std::mt19937_64 o3 = oracleCopy;
            for (int i = 0; i < 400; ++i) {
                ASSERT_EQ(copy(), o2()) << "at " << at << " draw " << i;
                ASSERT_EQ(assigned(), o3()) << "at " << at << " draw " << i;
            }
            LazyMt19937_64 moved = std::move(copy);
            EXPECT_EQ(moved(), o2());
        }
    }
}

TEST(Random, LazyEngineBuildsTheStandardEngineOnDraw157)
{
    LazyMt19937_64 lazy(3);
    LazyMt19937_64 untouched(3);
    for (int i = 0; i < 156; ++i)
        lazy();
    EXPECT_FALSE(lazy.materialized());
    lazy();
    EXPECT_TRUE(lazy.materialized());
    EXPECT_FALSE(untouched.materialized());
    const LazyMt19937_64 copy = lazy;
    EXPECT_TRUE(copy.materialized());
}

TEST(Random, RngFitsInOneCacheLine)
{
    // A simulated user holds one Rng; before its 157th draw the stream
    // is a few words, not a 2.5 KB engine.
    EXPECT_LE(sizeof(Rng), 64u);
}

TEST(Random, RngCopiesAndMovesKeepTheStreamPosition)
{
    for (int at : {0, 156, 200}) {
        Rng a(11, "copy");
        for (int i = 0; i < at; ++i)
            a.uniform01();
        Rng b = a;
        Rng c(1);
        c = a;
        std::vector<double> want;
        for (int i = 0; i < 300; ++i)
            want.push_back(a.uniform01());
        Rng d = std::move(c);
        for (double v : want) {
            EXPECT_EQ(b.uniform01(), v);
            EXPECT_EQ(d.uniform01(), v);
        }
    }
}

TEST(Random, RngStreamsArePinned)
{
    // FNV-1a digest of raw draws from three streams, taken before the
    // engine became lazy: the seed mixing and engine output must not
    // move, or every golden run moves with them.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (Rng rng : {Rng(0), Rng(1, "loadgen.user.0"), Rng(7, "net")}) {
        for (int i = 0; i < 400; ++i) {
            h ^= rng.uniformInt(0, ~std::uint64_t(0));
            h *= 0x100000001b3ULL;
        }
    }
    EXPECT_EQ(h, 0x2c9b0fb13bd523baull);
}

} // namespace
} // namespace microscale

/**
 * @file
 * Tests for os::LoadIndex, the scheduler's load-bucketed placement
 * index, against the two-sweep scan it replaced.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "base/cpumask.hh"
#include "base/random.hh"
#include "os/kernel.hh"

namespace microscale::os
{
namespace
{

/**
 * The scan LoadIndex::leastLoaded replaced: least-loaded CPU of
 * `mask`, scanning from `hint`+1 with wraparound (two sweeps emulate
 * the circle), first minimum wins.
 */
CpuId
referenceLeastLoaded(const CpuMask &mask, CpuId hint,
                     const std::vector<unsigned> &load)
{
    CpuId best = kInvalidCpu;
    unsigned best_load = std::numeric_limits<unsigned>::max();
    auto consider = [&](CpuId c) {
        if (load[c] < best_load) {
            best_load = load[c];
            best = c;
        }
    };
    bool past_hint = hint == kInvalidCpu;
    for (CpuId c : mask) {
        if (past_hint)
            consider(c);
        if (c == hint)
            past_hint = true;
    }
    for (CpuId c : mask) {
        consider(c);
        if (c == hint)
            break;
    }
    return best;
}

/** An index over `load.size()` CPUs holding `load`. */
LoadIndex
indexOf(const std::vector<unsigned> &load)
{
    LoadIndex index(static_cast<CpuId>(load.size()));
    for (CpuId c = 0; c < load.size(); ++c)
        index.set(c, load[c]);
    return index;
}

TEST(LoadIndex, StartsIdleAndMovesCpusBetweenBuckets)
{
    LoadIndex index(8);
    EXPECT_EQ(index.idle(), CpuMask::firstN(8));
    index.set(3, 2);
    index.set(5, 7);
    index.set(3, 1);
    EXPECT_EQ(index.load(3), 1u);
    EXPECT_EQ(index.load(5), 7u);
    EXPECT_FALSE(index.idle().test(3));
    EXPECT_TRUE(index.consistent());
    index.set(5, 0);
    EXPECT_TRUE(index.idle().test(5));
    EXPECT_TRUE(index.consistent());
}

TEST(LoadIndex, MatchesTwoSweepScanOnRandomMasksAndLoads)
{
    Rng rng(41);
    unsigned compared = 0;
    for (CpuId n : {8u, 64u, 65u, 128u, 200u, 512u}) {
        for (int round = 0; round < 60; ++round) {
            std::vector<unsigned> load(n);
            const unsigned max_load = static_cast<unsigned>(
                rng.uniformInt(0, 5));
            for (unsigned &l : load)
                l = static_cast<unsigned>(rng.uniformInt(0, max_load));
            const LoadIndex index = indexOf(load);
            ASSERT_TRUE(index.consistent());

            const double density = rng.uniformReal(0.0, 1.0);
            CpuMask mask;
            for (CpuId c = 0; c < n; ++c) {
                if (rng.uniformReal(0.0, 1.0) < density)
                    mask.set(c);
            }
            std::vector<CpuId> hints = {kInvalidCpu, 0, n - 1};
            for (CpuId c : {63u, 64u, 511u}) {
                if (c < n)
                    hints.push_back(c);
            }
            for (int h = 0; h < 8; ++h)
                hints.push_back(static_cast<CpuId>(rng.index(n)));
            if (!mask.empty()) {
                CpuId last = mask.first();
                for (CpuId c : mask)
                    last = c;
                hints.push_back(mask.first());
                hints.push_back(last); // wraps to the front
            }
            for (CpuId hint : hints) {
                ASSERT_EQ(index.leastLoaded(mask, hint),
                          referenceLeastLoaded(mask, hint, load))
                    << "n=" << n << " hint=" << hint
                    << " mask=" << mask.toString();
                ++compared;
            }
        }
    }
    EXPECT_GT(compared, 4000u);
}

TEST(LoadIndex, EmptyMaskHasNoLeastLoadedCpu)
{
    const LoadIndex index = indexOf({0, 1, 2, 3});
    EXPECT_EQ(index.leastLoaded(CpuMask(), kInvalidCpu), kInvalidCpu);
    EXPECT_EQ(index.leastLoaded(CpuMask(), 2), kInvalidCpu);
}

TEST(LoadIndex, TiesGoToTheFirstCpuAfterTheHint)
{
    // CPUs 1, 4 and 6 tie at the least load.
    const LoadIndex index = indexOf({3, 1, 2, 2, 1, 3, 1, 2});
    const CpuMask all = CpuMask::firstN(8);
    EXPECT_EQ(index.leastLoaded(all, 1), 4u);
    EXPECT_EQ(index.leastLoaded(all, 4), 6u);
    EXPECT_EQ(index.leastLoaded(all, 5), 6u);
    // Past the last tie the scan wraps, and the hint itself comes last.
    EXPECT_EQ(index.leastLoaded(all, 6), 1u);
    EXPECT_EQ(index.leastLoaded(all, 7), 1u);
    EXPECT_EQ(index.leastLoaded(CpuMask::single(4), 4), 4u);
}

TEST(LoadIndex, HintOutsideMaskIgnoresHint)
{
    // Preserved quirk of the replaced scan: with the hint outside the
    // mask, the circular scan never starts, and the lowest-index
    // least-loaded CPU wins, not the first one after the hint. Wake
    // placement after an affinity change that leaves the previous CPU
    // outside the allowed set depends on it.
    const LoadIndex index = indexOf({0, 2, 0, 2, 0, 2, 0, 2});
    CpuMask even;
    for (CpuId c : {0u, 2u, 4u, 6u})
        even.set(c);
    EXPECT_EQ(index.leastLoaded(even, 3), 0u);
    EXPECT_EQ(index.leastLoaded(even, 5), 0u);
    EXPECT_EQ(index.leastLoaded(even, kInvalidCpu), 0u);
    // With the hint inside, the same mask and loads rotate.
    EXPECT_EQ(index.leastLoaded(even, 2), 4u);
    EXPECT_EQ(index.leastLoaded(even, 4), 6u);
}

TEST(LoadIndex, HighCpusAcrossWordBoundaries)
{
    // 512 CPUs at load 1, except 63, 64 and 511 at load 0.
    std::vector<unsigned> load(512, 1);
    load[63] = load[64] = load[511] = 0;
    const LoadIndex index = indexOf(load);
    const CpuMask all = CpuMask::firstN(512);
    EXPECT_EQ(index.leastLoaded(all, 62), 63u);
    EXPECT_EQ(index.leastLoaded(all, 63), 64u);
    EXPECT_EQ(index.leastLoaded(all, 64), 511u);
    EXPECT_EQ(index.leastLoaded(all, 511), 63u);
    EXPECT_EQ(index.leastLoaded(CpuMask::single(511), 511), 511u);
}

} // namespace
} // namespace microscale::os

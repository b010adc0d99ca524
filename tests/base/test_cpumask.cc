/**
 * @file
 * Tests for CpuMask, including a property test against std::set as a
 * reference implementation.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/cpumask.hh"
#include "base/random.hh"

namespace microscale
{
namespace
{

TEST(CpuMask, EmptyByDefault)
{
    CpuMask m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.count(), 0u);
    EXPECT_EQ(m.first(), kInvalidCpu);
}

TEST(CpuMask, SetTestClear)
{
    CpuMask m;
    m.set(5);
    EXPECT_TRUE(m.test(5));
    EXPECT_FALSE(m.test(4));
    EXPECT_EQ(m.count(), 1u);
    m.clear(5);
    EXPECT_TRUE(m.empty());
}

TEST(CpuMask, SingleAndRange)
{
    EXPECT_EQ(CpuMask::single(7).count(), 1u);
    EXPECT_TRUE(CpuMask::single(7).test(7));
    const CpuMask r = CpuMask::range(3, 9);
    EXPECT_EQ(r.count(), 7u);
    EXPECT_TRUE(r.test(3));
    EXPECT_TRUE(r.test(9));
    EXPECT_FALSE(r.test(2));
    EXPECT_FALSE(r.test(10));
}

TEST(CpuMask, FirstN)
{
    EXPECT_TRUE(CpuMask::firstN(0).empty());
    const CpuMask m = CpuMask::firstN(128);
    EXPECT_EQ(m.count(), 128u);
    EXPECT_TRUE(m.test(127));
    EXPECT_FALSE(m.test(128));
}

TEST(CpuMask, WordBoundaries)
{
    CpuMask m;
    for (CpuId c : {63u, 64u, 127u, 128u, 191u, 192u}) {
        m.set(c);
        EXPECT_TRUE(m.test(c));
    }
    EXPECT_EQ(m.count(), 6u);
    EXPECT_EQ(m.first(), 63u);
    EXPECT_EQ(m.next(63), 64u);
    EXPECT_EQ(m.next(64), 127u);
    EXPECT_EQ(m.next(192), kInvalidCpu);
}

TEST(CpuMask, Iteration)
{
    const CpuMask m = CpuMask::single(2) | CpuMask::single(70) |
                      CpuMask::single(200);
    std::vector<CpuId> seen;
    for (CpuId c : m)
        seen.push_back(c);
    EXPECT_EQ(seen, (std::vector<CpuId>{2, 70, 200}));
}

TEST(CpuMask, SetAlgebra)
{
    const CpuMask a = CpuMask::range(0, 9);
    const CpuMask b = CpuMask::range(5, 14);
    EXPECT_EQ((a | b).count(), 15u);
    EXPECT_EQ((a & b).count(), 5u);
    EXPECT_EQ((a - b).count(), 5u);
    EXPECT_TRUE((a - b).test(0));
    EXPECT_FALSE((a - b).test(5));
}

TEST(CpuMask, SubsetAndIntersects)
{
    const CpuMask a = CpuMask::range(0, 3);
    const CpuMask b = CpuMask::range(0, 7);
    EXPECT_TRUE(a.subsetOf(b));
    EXPECT_FALSE(b.subsetOf(a));
    EXPECT_TRUE(a.subsetOf(a));
    EXPECT_TRUE(a.intersects(b));
    EXPECT_FALSE(a.intersects(CpuMask::range(4, 7)));
    EXPECT_TRUE(CpuMask().subsetOf(a));
    EXPECT_FALSE(CpuMask().intersects(a));
}

TEST(CpuMask, Equality)
{
    EXPECT_EQ(CpuMask::range(1, 3),
              CpuMask::single(1) | CpuMask::single(2) | CpuMask::single(3));
    EXPECT_NE(CpuMask::range(1, 3), CpuMask::range(1, 4));
}

TEST(CpuMask, ToString)
{
    EXPECT_EQ(CpuMask().toString(), "(empty)");
    EXPECT_EQ(CpuMask::single(4).toString(), "4");
    EXPECT_EQ(CpuMask::range(0, 3).toString(), "0-3");
    EXPECT_EQ((CpuMask::range(0, 3) | CpuMask::single(8) |
               CpuMask::range(12, 15))
                  .toString(),
              "0-3,8,12-15");
}

TEST(CpuMask, TestOutOfRangeIsFalse)
{
    CpuMask m;
    EXPECT_FALSE(m.test(kMaxCpus));
    EXPECT_FALSE(m.test(kInvalidCpu));
}

/** Property test: random operation sequences match std::set. */
class CpuMaskProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CpuMaskProperty, MatchesReferenceSet)
{
    Rng rng(GetParam());
    CpuMask mask;
    std::set<CpuId> ref;
    for (int step = 0; step < 2000; ++step) {
        const CpuId cpu =
            static_cast<CpuId>(rng.uniformInt(0, kMaxCpus - 1));
        switch (rng.uniformInt(0, 2)) {
          case 0:
            mask.set(cpu);
            ref.insert(cpu);
            break;
          case 1:
            mask.clear(cpu);
            ref.erase(cpu);
            break;
          default:
            EXPECT_EQ(mask.test(cpu), ref.count(cpu) != 0);
            break;
        }
    }
    EXPECT_EQ(mask.count(), ref.size());
    std::vector<CpuId> from_mask;
    for (CpuId c : mask)
        from_mask.push_back(c);
    std::vector<CpuId> from_ref(ref.begin(), ref.end());
    EXPECT_EQ(from_mask, from_ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuMaskProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CpuMask, InlineIteratorMatchesNextWalk)
{
    std::vector<CpuMask> masks = {
        CpuMask(),
        CpuMask::single(0),
        CpuMask::single(63),
        CpuMask::single(64),
        CpuMask::single(kMaxCpus - 1),
        CpuMask::range(63, 64),
        CpuMask::single(0) | CpuMask::single(kMaxCpus - 1),
        CpuMask::firstN(kMaxCpus),
    };
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        CpuMask m;
        const std::uint64_t bits = rng.uniformInt(0, 40);
        for (std::uint64_t k = 0; k < bits; ++k)
            m.set(static_cast<CpuId>(rng.uniformInt(0, kMaxCpus - 1)));
        if (i % 4 == 0) {
            m.set(63);
            m.set(64);
            m.set(kMaxCpus - 1);
        }
        masks.push_back(m);
    }

    for (std::size_t i = 0; i < masks.size(); ++i) {
        const CpuMask &m = masks[i];
        std::vector<CpuId> walked;
        for (CpuId c = m.first(); c != kInvalidCpu; c = m.next(c))
            walked.push_back(c);
        std::vector<CpuId> iterated;
        for (CpuId c : m)
            iterated.push_back(c);
        EXPECT_EQ(iterated, walked) << m.toString();

        const CpuMask &o = masks[(i + 1) % masks.size()];
        EXPECT_EQ(m.firstCommon(o), (m & o).first())
            << m.toString() << " & " << o.toString();
    }
}

TEST(CpuMask, FirstCommonFromMatchesNextWalk)
{
    Rng rng(123);
    for (int i = 0; i < 300; ++i) {
        CpuMask a, b;
        const double density = rng.uniformReal(0.0, 0.2);
        for (CpuId c = 0; c < kMaxCpus; ++c) {
            if (rng.uniformReal(0.0, 1.0) < density)
                a.set(c);
            if (rng.uniformReal(0.0, 1.0) < 0.5)
                b.set(c);
        }
        if (i % 3 == 0) {
            a.set(63);
            a.set(64);
            a.set(kMaxCpus - 1);
            b.set(64);
            b.set(kMaxCpus - 1);
        }
        const CpuMask both = a & b;
        for (CpuId from : {0u, 1u, 62u, 63u, 64u, 65u, 127u, 128u,
                           kMaxCpus - 1, kMaxCpus, kMaxCpus + 7,
                           kInvalidCpu}) {
            // The walk: first common CPU, then next() until >= from.
            CpuId want = both.first();
            while (want != kInvalidCpu && want < from)
                want = both.next(want);
            EXPECT_EQ(a.firstCommonFrom(b, from), want)
                << "from " << from << " in " << both.toString();
        }
    }
}

} // namespace
} // namespace microscale

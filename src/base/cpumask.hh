/**
 * @file
 * CpuMask: an affinity set over logical CPUs, like Linux cpumask_t.
 *
 * Fixed capacity of kMaxCpus (512) covers any topology this library
 * builds (the paper's machine has 128 logical CPUs per socket).
 */

#ifndef MICROSCALE_BASE_CPUMASK_HH
#define MICROSCALE_BASE_CPUMASK_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "base/types.hh"

namespace microscale
{

/** Upper bound on logical CPUs in any modeled machine. */
constexpr CpuId kMaxCpus = 512;

/**
 * A set of logical CPU ids with the usual set algebra, used for thread
 * affinity, scheduling domains, and placement policies.
 */
class CpuMask
{
    static constexpr unsigned kWords = kMaxCpus / 64;

  public:
    /** The empty mask. */
    CpuMask() : words_{} {}

    /** Mask containing the single CPU `cpu`. */
    static CpuMask single(CpuId cpu);

    /** Mask containing CPUs [first, last] inclusive. */
    static CpuMask range(CpuId first, CpuId last);

    /** Mask containing all CPUs in [0, count). */
    static CpuMask firstN(CpuId count);

    /** Add a CPU. */
    void set(CpuId cpu)
    {
        if (cpu >= kMaxCpus)
            outOfRange(cpu);
        words_[cpu / 64] |= std::uint64_t(1) << (cpu % 64);
    }
    /** Remove a CPU. */
    void clear(CpuId cpu)
    {
        if (cpu >= kMaxCpus)
            outOfRange(cpu);
        words_[cpu / 64] &= ~(std::uint64_t(1) << (cpu % 64));
    }
    /** Membership test. */
    bool test(CpuId cpu) const
    {
        return cpu < kMaxCpus && ((words_[cpu / 64] >> (cpu % 64)) & 1);
    }

    /** True when no CPU is set. */
    bool empty() const;
    /** Number of CPUs set. */
    unsigned count() const;

    /** Lowest CPU set, or kInvalidCpu when empty. */
    CpuId first() const;
    /** Lowest CPU set that is > `cpu`, or kInvalidCpu. */
    CpuId next(CpuId cpu) const;
    /** Lowest CPU set in both this mask and `o`, or kInvalidCpu. */
    CpuId firstCommon(const CpuMask &o) const
    {
        for (unsigned i = 0; i < kWords; ++i) {
            if (const std::uint64_t w = words_[i] & o.words_[i])
                return i * 64 + std::countr_zero(w);
        }
        return kInvalidCpu;
    }
    /**
     * Lowest CPU >= `from` set in both this mask and `o`, or
     * kInvalidCpu (also when `from` is past the capacity).
     */
    CpuId firstCommonFrom(const CpuMask &o, CpuId from) const
    {
        if (from >= kMaxCpus)
            return kInvalidCpu;
        unsigned i = from / 64;
        std::uint64_t w =
            words_[i] & o.words_[i] & (~std::uint64_t(0) << (from % 64));
        while (w == 0) {
            if (++i == kWords)
                return kInvalidCpu;
            w = words_[i] & o.words_[i];
        }
        return i * 64 + std::countr_zero(w);
    }

    /** Set union. */
    CpuMask operator|(const CpuMask &o) const;
    /** Set intersection. */
    CpuMask operator&(const CpuMask &o) const;
    /** Set difference (this minus o). */
    CpuMask operator-(const CpuMask &o) const;
    CpuMask &operator|=(const CpuMask &o);
    CpuMask &operator&=(const CpuMask &o);

    bool operator==(const CpuMask &o) const { return words_ == o.words_; }
    bool operator!=(const CpuMask &o) const { return !(*this == o); }

    /** True when every CPU in this mask is also in `o`. */
    bool subsetOf(const CpuMask &o) const;
    /** True when the two masks share at least one CPU. */
    bool intersects(const CpuMask &o) const;

    /** Compact human-readable form, e.g. "0-3,8,12-15". */
    std::string toString() const;

    /**
     * Iteration support: for (CpuId c : mask), in ascending order.
     * Walks the words inline; the mask must not change mid-loop.
     */
    class Iterator
    {
      public:
        Iterator(const CpuMask *mask, unsigned word)
            : mask_(mask), word_(word), bits_(0)
        {
            if (word_ < kWords) {
                bits_ = mask_->words_[word_];
                skipEmpty();
            }
        }
        CpuId operator*() const
        {
            return word_ * 64 + std::countr_zero(bits_);
        }
        Iterator &operator++()
        {
            bits_ &= bits_ - 1;
            skipEmpty();
            return *this;
        }
        bool operator!=(const Iterator &o) const
        {
            return word_ != o.word_ || bits_ != o.bits_;
        }

      private:
        void skipEmpty()
        {
            while (bits_ == 0 && ++word_ < kWords)
                bits_ = mask_->words_[word_];
        }

        const CpuMask *mask_;
        unsigned word_;
        std::uint64_t bits_;
    };

    Iterator begin() const { return Iterator(this, 0); }
    Iterator end() const { return Iterator(this, kWords); }

  private:
    [[noreturn]] static void outOfRange(CpuId cpu);

    std::array<std::uint64_t, kWords> words_;
};

} // namespace microscale

#endif // MICROSCALE_BASE_CPUMASK_HH

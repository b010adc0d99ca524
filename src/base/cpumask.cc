#include "base/cpumask.hh"

#include <bit>
#include <sstream>

#include "base/logging.hh"

namespace microscale
{

void
CpuMask::outOfRange(CpuId cpu)
{
    MS_PANIC("CpuMask: cpu id ", cpu, " out of range");
}

CpuMask
CpuMask::single(CpuId cpu)
{
    CpuMask m;
    m.set(cpu);
    return m;
}

CpuMask
CpuMask::range(CpuId first, CpuId last)
{
    CpuMask m;
    for (CpuId c = first; c <= last; ++c)
        m.set(c);
    return m;
}

CpuMask
CpuMask::firstN(CpuId count)
{
    if (count == 0)
        return CpuMask();
    return range(0, count - 1);
}

bool
CpuMask::empty() const
{
    for (auto w : words_) {
        if (w)
            return false;
    }
    return true;
}

unsigned
CpuMask::count() const
{
    unsigned n = 0;
    for (auto w : words_)
        n += std::popcount(w);
    return n;
}

CpuId
CpuMask::first() const
{
    for (unsigned i = 0; i < kWords; ++i) {
        if (words_[i])
            return i * 64 + std::countr_zero(words_[i]);
    }
    return kInvalidCpu;
}

CpuId
CpuMask::next(CpuId cpu) const
{
    if (cpu == kInvalidCpu || cpu + 1 >= kMaxCpus)
        return kInvalidCpu;
    CpuId start = cpu + 1;
    unsigned word = start / 64;
    std::uint64_t w = words_[word] >> (start % 64);
    if (w)
        return start + std::countr_zero(w);
    for (unsigned i = word + 1; i < kWords; ++i) {
        if (words_[i])
            return i * 64 + std::countr_zero(words_[i]);
    }
    return kInvalidCpu;
}

CpuMask
CpuMask::operator|(const CpuMask &o) const
{
    CpuMask r;
    for (unsigned i = 0; i < kWords; ++i)
        r.words_[i] = words_[i] | o.words_[i];
    return r;
}

CpuMask
CpuMask::operator&(const CpuMask &o) const
{
    CpuMask r;
    for (unsigned i = 0; i < kWords; ++i)
        r.words_[i] = words_[i] & o.words_[i];
    return r;
}

CpuMask
CpuMask::operator-(const CpuMask &o) const
{
    CpuMask r;
    for (unsigned i = 0; i < kWords; ++i)
        r.words_[i] = words_[i] & ~o.words_[i];
    return r;
}

CpuMask &
CpuMask::operator|=(const CpuMask &o)
{
    for (unsigned i = 0; i < kWords; ++i)
        words_[i] |= o.words_[i];
    return *this;
}

CpuMask &
CpuMask::operator&=(const CpuMask &o)
{
    for (unsigned i = 0; i < kWords; ++i)
        words_[i] &= o.words_[i];
    return *this;
}

bool
CpuMask::subsetOf(const CpuMask &o) const
{
    for (unsigned i = 0; i < kWords; ++i) {
        if (words_[i] & ~o.words_[i])
            return false;
    }
    return true;
}

bool
CpuMask::intersects(const CpuMask &o) const
{
    for (unsigned i = 0; i < kWords; ++i) {
        if (words_[i] & o.words_[i])
            return true;
    }
    return false;
}

std::string
CpuMask::toString() const
{
    std::ostringstream os;
    bool first_range = true;
    CpuId c = first();
    while (c != kInvalidCpu) {
        CpuId run_start = c;
        CpuId run_end = c;
        CpuId n = next(c);
        while (n == run_end + 1) {
            run_end = n;
            n = next(n);
        }
        if (!first_range)
            os << ",";
        first_range = false;
        if (run_start == run_end)
            os << run_start;
        else
            os << run_start << "-" << run_end;
        c = n;
    }
    if (first_range)
        os << "(empty)";
    return os.str();
}

} // namespace microscale

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every simulator component draws from its own named Rng stream,
 * derived from a global experiment seed plus the component name, so a
 * run is reproducible and components' draws are independent of each
 * other's call order. The generator is xoshiro256**, seeded via
 * splitmix64.
 *
 * The hot helpers (next, uniformInt, uniformReal, withProbability)
 * are defined inline here so the batched stream-fill loops
 * (mem/address_stream.cc) compile down to straight-line generator
 * code. Their emitted value sequences are part of the determinism
 * contract and must never change (docs/TESTING.md).
 *
 * uniformInt(lo, hi) and withProbability(p) are the reference
 * semantics. IntRange and Chance are the same draws with their
 * per-call arithmetic precomputed once, for loops that draw from one
 * fixed range or probability many times: an IntRange replaces the
 * two 64-bit divisions of uniformInt with a mask (power-of-two
 * spans) or a multiply by an invariant-divisor reciprocal, and a
 * Chance replaces the double compare with an exact integer one.
 * Rng::uniformInt(IntRange) and Rng::withProbability(Chance) consume
 * exactly the draws and return exactly the values of their reference
 * twins (pinned by Rng.IntRangeMatchesUniformInt and
 * Rng.ChanceMatchesWithProbability).
 */

#ifndef HISS_SIM_RANDOM_H_
#define HISS_SIM_RANDOM_H_

#include <cstdint>
#include <string>

namespace hiss {

namespace snap {
struct Access;
}

/**
 * A fixed inclusive range [lo, hi] prepared for repeated
 * Rng::uniformInt draws. Holds the rejection bound and an exact
 * remainder-by-span: a mask for power-of-two spans, otherwise the
 * Granlund-Montgomery round-up reciprocal (the libdivide u64
 * "branchfree" scheme), so `draw % span` costs two multiplies.
 */
class IntRange
{
  public:
    /** Requires lo <= hi (panics otherwise, as uniformInt does). */
    IntRange(std::uint64_t lo, std::uint64_t hi);

    /** First value of the range. */
    std::uint64_t lo() const { return lo_; }

    /** True if uniformInt rejects @p draw and draws again. */
    bool rejects(std::uint64_t draw) const { return draw > accept_max_; }

    /** draw % span, exactly, for any 64-bit @p draw. */
    std::uint64_t
    offset(std::uint64_t draw) const
    {
        if (magic_ == 0)
            return draw & mask_;
        const auto q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(draw) * magic_) >> 64);
        const std::uint64_t quot = (((draw - q) >> 1) + q) >> shift_;
        return draw - quot * span_;
    }

  private:
    std::uint64_t lo_;
    /** Largest accepted draw: limit - 1 of uniformInt's rejection
     *  loop (2^64 - 1 for the full range, which accepts every draw). */
    std::uint64_t accept_max_;
    std::uint64_t span_;  ///< hi - lo + 1 (0 for the full range).
    std::uint64_t mask_;  ///< span - 1 when span is a power of two.
    std::uint64_t magic_; ///< Reciprocal; 0 selects the mask path.
    std::uint32_t shift_; ///< floor(log2(span)) on the magic path.
};

/**
 * A fixed probability prepared for repeated Rng::withProbability
 * draws. withProbability(p) compares u * 2^-53 < p for the 53-bit
 * integer u = next() >> 11; scaling by 2^53 is exact, so that is
 * u < p * 2^53, and for integer u it is u < ceil(p * 2^53). p <= 0 and
 * p >= 1 draw nothing; NaN draws once and is never true, exactly as
 * withProbability does (NaN is never converted to an integer).
 */
class Chance
{
  public:
    explicit Chance(double p);

    /** True if a draw is taken (p is in (0, 1) or NaN). */
    bool draws() const { return draws_; }
    /** Result without a draw (only meaningful when !draws()). */
    bool always() const { return always_; }
    /** A drawn u = next() >> 11 succeeds iff u < threshold(). */
    std::uint64_t threshold() const { return threshold_; }

  private:
    std::uint64_t threshold_ = 0;
    bool draws_ = false;
    bool always_ = false;
};

/** A self-contained deterministic random stream. */
class Rng
{
  public:
    /** Seed directly from a 64-bit value. */
    explicit Rng(std::uint64_t seed);

    /**
     * Derive an independent stream from an experiment seed and a
     * component name (e.g. "core0.workload").
     */
    Rng(std::uint64_t experiment_seed, const std::string &stream_name);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        if (lo > hi)
            uniformIntRangeError(lo, hi);
        const std::uint64_t range = hi - lo;
        if (range == ~std::uint64_t{0})
            return next();
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t span = range + 1;
        const std::uint64_t limit =
            ~std::uint64_t{0} - (~std::uint64_t{0} % span);
        std::uint64_t draw;
        do {
            draw = next();
        } while (draw >= limit);
        return lo + draw % span;
    }

    /** uniformInt(range.lo, range.hi), without the divisions. */
    std::uint64_t
    uniformInt(const IntRange &range)
    {
        std::uint64_t draw;
        do {
            draw = next();
        } while (range.rejects(draw));
        return range.lo() + range.offset(draw);
    }

    /** Uniform real in [0, 1). */
    double
    uniformReal()
    {
        // 53 random bits into the mantissa.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo, double hi)
    {
        return lo + (hi - lo) * uniformReal();
    }

    /** Bernoulli draw: true with probability @p p (clamped to [0,1]). */
    bool
    withProbability(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

    /** withProbability(p) for the p @p chance was built from. */
    bool
    withProbability(const Chance &chance)
    {
        if (!chance.draws())
            return chance.always();
        return (next() >> 11) < chance.threshold();
    }

    /** Exponential variate with the given mean (> 0). */
    double exponential(double mean);

    /** Normal variate (Box-Muller). */
    double normal(double mean, double stddev);

  private:
    /** Snapshot layer serializes/restores the raw state words. */
    friend struct snap::Access;

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    [[noreturn]] static void uniformIntRangeError(std::uint64_t lo,
                                                  std::uint64_t hi);

    std::uint64_t s_[4];
};

} // namespace hiss

#endif // HISS_SIM_RANDOM_H_

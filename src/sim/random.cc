#include "sim/random.h"

#include <cmath>

#include "sim/logging.h"

namespace hiss {
namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a hash of a string, for stream-name derivation. */
std::uint64_t
hashName(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

IntRange::IntRange(std::uint64_t lo, std::uint64_t hi)
    : lo_(lo), span_(hi - lo + 1), mask_(0), magic_(0), shift_(0)
{
    if (lo > hi)
        panic("IntRange: lo (%llu) > hi (%llu)",
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    if (span_ == 0) {
        // Full range: uniformInt returns next() unfiltered.
        accept_max_ = kMax;
        mask_ = kMax;
        return;
    }
    accept_max_ = kMax - (kMax % span_) - 1;
    if ((span_ & (span_ - 1)) == 0) {
        mask_ = span_ - 1;
        return;
    }
    // Not a power of two, so 2^l < span < 2^(l+1) and the 65-bit
    // reciprocal 2^64 + magic = floor(2^(64+l+1) / span) + 1 gives
    // draw / span == (((draw - q) >> 1) + q) >> l with
    // q = mulhi(draw, magic), for every 64-bit draw.
    shift_ = 63 - static_cast<std::uint32_t>(__builtin_clzll(span_));
    const unsigned __int128 num = static_cast<unsigned __int128>(1)
        << (64 + shift_);
    std::uint64_t m = static_cast<std::uint64_t>(num / span_);
    const auto rem = static_cast<std::uint64_t>(num % span_);
    m += m;
    const std::uint64_t twice_rem = rem + rem;
    if (twice_rem >= span_ || twice_rem < rem)
        m += 1;
    magic_ = m + 1;
}

Chance::Chance(double p)
{
    if (p <= 0.0)
        return; // Never, without a draw.
    if (p >= 1.0) {
        always_ = true;
        return;
    }
    draws_ = true;
    // NaN fails every comparison: one draw, never true (threshold 0).
    if (!std::isnan(p))
        threshold_ = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

Rng::Rng(std::uint64_t experiment_seed, const std::string &stream_name)
    : Rng(experiment_seed ^ hashName(stream_name))
{
}

void
Rng::uniformIntRangeError(std::uint64_t lo, std::uint64_t hi)
{
    panic("Rng::uniformInt: lo (%llu) > hi (%llu)",
          static_cast<unsigned long long>(lo),
          static_cast<unsigned long long>(hi));
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        panic("Rng::exponential: non-positive mean %f", mean);
    double u;
    do {
        u = uniformReal();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal(double mean, double stddev)
{
    double u1;
    do {
        u1 = uniformReal();
    } while (u1 <= 0.0);
    const double u2 = uniformReal();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

} // namespace hiss

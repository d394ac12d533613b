/**
 * @file
 * Deterministic random number generation for workload generators.
 *
 * All stochastic behaviour in cxlmemo flows through Rng so that every
 * experiment is reproducible bit-for-bit from its seed. The engine is
 * xoshiro256** seeded via SplitMix64, the combination recommended by
 * the xoshiro authors; it is much faster than std::mt19937_64 and has
 * no observable bias at the scales used here.
 *
 * ZipfianGenerator implements the Gray et al. "quickly generating
 * billion-record synthetic databases" algorithm that YCSB uses,
 * including the scrambled variant that decorrelates popularity from
 * key order.
 */

#ifndef CXLMEMO_SIM_RNG_HH
#define CXLMEMO_SIM_RNG_HH

#include <cmath>
#include <cstdint>

#include "sim/logging.hh"

namespace cxlmemo
{

/** SplitMix64 step, used for seeding and key scrambling. */
constexpr std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** xoshiro256** PRNG with convenience distributions. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

    /** Re-seed the engine deterministically from a single value. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x = splitMix64(x);
            word = x;
        }
        // Guard against the all-zero state, which is a fixed point.
        if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0)
            state_[0] = 1;
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    below(std::uint64_t bound)
    {
        CXLMEMO_ASSERT(bound > 0, "below() with zero bound");
        // Lemire's nearly-divisionless bounded generation (the small
        // modulo bias of the simple multiply-shift is unacceptable for
        // address generation over power-of-two ranges).
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = (-bound) % bound;
            while (lo < threshold) {
                m = static_cast<__uint128_t>(next()) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Exponentially distributed value with the given mean. */
    double
    exponential(double mean)
    {
        double u = uniform();
        // uniform() can return exactly 0; avoid log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        return -mean * std::log(u);
    }

    /** Bernoulli trial. */
    bool chance(double p) { return uniform() < p; }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Zipfian item generator over [0, n) with skew @p theta (YCSB default
 * 0.99). Popularity rank equals item index: item 0 is the hottest.
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta = 0.99)
        : items_(n), theta_(theta)
    {
        CXLMEMO_ASSERT(n > 0, "zipfian over empty domain");
        zeta_ = zetaStatic(n, theta);
        alpha_ = 1.0 / (1.0 - theta_);
        zeta2_ = zetaStatic(2, theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta_))
               / (1.0 - zeta2_ / zeta_);
    }

    /** Draw the next item using randomness from @p rng. */
    std::uint64_t
    next(Rng &rng)
    {
        const double u = rng.uniform();
        const double uz = u * zeta_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        auto idx = static_cast<std::uint64_t>(
            static_cast<double>(items_)
            * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return idx >= items_ ? items_ - 1 : idx;
    }

  private:
    static double
    zetaStatic(std::uint64_t n, double theta)
    {
        // Exact summation is O(n); for the multi-million-key domains
        // used by the YCSB driver we use the standard Euler-Maclaurin
        // style approximation above a cutoff, which matches the exact
        // sum to < 0.1% for theta = 0.99.
        constexpr std::uint64_t exactCutoff = 1'000'000;
        if (n <= exactCutoff) {
            double sum = 0.0;
            for (std::uint64_t i = 1; i <= n; ++i)
                sum += 1.0 / std::pow(static_cast<double>(i), theta);
            return sum;
        }
        double sum = zetaStatic(exactCutoff, theta);
        // Integral approximation of the tail.
        const double a = static_cast<double>(exactCutoff);
        const double b = static_cast<double>(n);
        sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta))
               / (1.0 - theta);
        return sum;
    }

    std::uint64_t items_;
    double theta_;
    double zeta_;
    double zeta2_;
    double alpha_;
    double eta_;
};

/**
 * Scrambled zipfian: zipfian popularity, but the popular items are
 * scattered uniformly over the key space (YCSB's default request
 * distribution for workloads A-C/F).
 */
class ScrambledZipfianGenerator
{
  public:
    explicit ScrambledZipfianGenerator(std::uint64_t n, double theta = 0.99)
        : base_(n, theta), items_(n)
    {}

    std::uint64_t
    next(Rng &rng)
    {
        return splitMix64(base_.next(rng)) % items_;
    }

  private:
    ZipfianGenerator base_;
    std::uint64_t items_;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_RNG_HH

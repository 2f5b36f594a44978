/**
 * @file
 * Deterministic random number generation for reproducible simulations.
 */

#ifndef QUMA_COMMON_RNG_HH
#define QUMA_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace quma {

namespace detail {

/**
 * Precomputed tables for the ziggurat normal sampler (Marsaglia &
 * Tsang 2000, in the double-precision formulation of Doornik 2005).
 *
 * The standard-normal density is covered by kLayers horizontal strips
 * of equal area; x[i] are the strip widths (decreasing, x[kLayers] = 0,
 * x[0] is the virtual width of the base strip whose overhang is the
 * tail beyond r), f[i] = exp(-x[i]^2 / 2) the density at the strip
 * edges, and ratio[i] = x[i+1] / x[i] the rectangular accept bound.
 */
struct ZigguratTables
{
    static constexpr int kLayers = 256;
    /** Tail cut-off for 256 layers. */
    static constexpr double kR = 3.6541528853610088;

    double x[kLayers + 1];
    double f[kLayers + 1];
    double ratio[kLayers];

    ZigguratTables()
    {
        auto density = [](double v) { return std::exp(-0.5 * v * v); };
        // Area per strip: r * f(r) plus the tail beyond r.
        double tail =
            std::sqrt(std::atan(1.0) * 2.0) * std::erfc(kR / std::sqrt(2.0));
        double area = kR * density(kR) + tail;

        x[0] = area / density(kR);
        x[1] = kR;
        f[0] = density(x[0]);
        f[1] = density(kR);
        for (int i = 2; i < kLayers; ++i) {
            // Equal areas: f(x[i]) = area / x[i-1] + f(x[i-1]).
            double fi = area / x[i - 1] + f[i - 1];
            x[i] = std::sqrt(-2.0 * std::log(fi));
            f[i] = fi;
        }
        x[kLayers] = 0.0;
        f[kLayers] = 1.0;
        for (int i = 0; i < kLayers; ++i)
            ratio[i] = x[i + 1] / x[i];
    }
};

inline const ZigguratTables &
zigguratTables()
{
    static const ZigguratTables tables;
    return tables;
}

} // namespace detail

/**
 * A seedable random source built on xoshiro256++ (Blackman & Vigna).
 *
 * Every stochastic component (readout noise, qubit projection, stall
 * injection) owns or borrows an Rng so experiments are exactly
 * reproducible from a single seed. The generator sits on the per-shot
 * hot path (projection, decay and integrated readout noise), so both
 * the engine and the distributions are implemented inline without
 * libstdc++ distribution machinery. The engine and the integer/uniform
 * paths are bit-deterministic everywhere; gaussian() is
 * bit-deterministic for a given libm (the ~1% of draws taking the
 * ziggurat wedge/tail branch go through std::exp/std::log, which are
 * not correctly rounded, so
 * streams can differ between C libraries -- though not between C++
 * standard libraries, unlike std::normal_distribution).
 *
 * Rng itself satisfies UniformRandomBitGenerator, so it can be handed
 * to std::shuffle and friends directly.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x5eed) { reseed(seed); }

    /**
     * Re-seed the generator: the four state words are independent
     * derive() streams, decorrelated even for adjacent or zero seeds.
     */
    void
    reseed(std::uint64_t seed)
    {
        for (std::uint64_t i = 0; i < 4; ++i)
            state[i] = derive(seed, i);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Raw 64-bit draw (xoshiro256++). */
    result_type
    operator()()
    {
        auto rotl = [](std::uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        std::uint64_t result = rotl(state[0] + state[3], 23) + state[0];
        std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [lo, hi] inclusive (unbiased). */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        std::uint64_t span = hi - lo + 1;
        if (span == 0)
            return (*this)(); // full 64-bit range
        // Lemire's multiply-shift rejection method.
        for (;;) {
            std::uint64_t v = (*this)();
            auto m = static_cast<unsigned __int128>(v) * span;
            auto low = static_cast<std::uint64_t>(m);
            if (low >= span || low >= (-span) % span)
                return lo + static_cast<std::uint64_t>(m >> 64);
        }
    }

    /**
     * Normally distributed double, drawn with a 256-layer ziggurat:
     * one engine draw and one multiply ~99% of the time.
     */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return mean + stddev * standardNormal();
    }

    /** Bernoulli trial with success probability p. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * Derive an independent stream seed from a base seed and a stream
     * index (splitmix64). Used wherever one logical seed must fan out
     * into several decorrelated generators -- e.g. a runtime job seed
     * feeding both the chip-noise and the stall-injection RNGs.
     */
    static std::uint64_t
    derive(std::uint64_t seed, std::uint64_t stream)
    {
        std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Standard normal draw via the ziggurat tables. */
    double
    standardNormal()
    {
        const auto &z = detail::zigguratTables();
        for (;;) {
            std::uint64_t bits = (*this)();
            int i = static_cast<int>(bits &
                                     (detail::ZigguratTables::kLayers - 1));
            // Signed uniform in [-1, 1) from the top 53 bits.
            double u =
                2.0 * (static_cast<double>(bits >> 11) * 0x1.0p-53) - 1.0;
            if (std::abs(u) < z.ratio[i])
                return u * z.x[i]; // strictly inside the rectangle
            if (i == 0) {
                // Base strip overhang: exact samples from the tail
                // beyond r (Marsaglia's exponential-rejection tail).
                double xx, yy;
                do {
                    xx = -std::log(unitOpen()) / z.kR;
                    yy = -std::log(unitOpen());
                } while (yy + yy < xx * xx);
                return u < 0 ? -(z.kR + xx) : z.kR + xx;
            }
            // Wedge between the rectangle and the density curve.
            double x = u * z.x[i];
            double y = z.f[i] + uniform() * (z.f[i + 1] - z.f[i]);
            if (y < std::exp(-0.5 * x * x))
                return x;
        }
    }

  private:
    /** Uniform double in (0, 1], safe as a std::log argument. */
    double
    unitOpen()
    {
        return (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;
    }

    std::uint64_t state[4];
};

} // namespace quma

#endif // QUMA_COMMON_RNG_HH

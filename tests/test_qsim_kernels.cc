/**
 * @file
 * Equivalence and allocation tests for the hot-path kernel overhaul:
 * the fused density-matrix conjugations and the closed-form
 * idle/diagonal fast paths must agree with naive matrix references and
 * the generic Kraus machinery to 1e-12; the phasor-recurrence signal
 * chain must match direct per-sample sin/cos loops; the ziggurat
 * gaussian must produce standard-normal statistics; the one-block
 * case of a one-qubit register must match the generic walk bit for
 * bit; and none of the steady-state kernels may touch the heap.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <numbers>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "measure/mdu.hh"
#include "qsim/channels.hh"
#include "qsim/density.hh"
#include "qsim/readout.hh"
#include "qsim/transmon.hh"
#include "signal/modulation.hh"
#include "signal/phasor.hh"

// ------------------------------------------------------------ alloc probe
//
// Global operator new replacement counting allocations while
// g_countAllocs is set. The zero-allocation guarantees of the kernel
// overhaul are verified with this counter, not by inspection.

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<bool> g_countAllocs{false};
} // namespace

// The replaced operators pair malloc with free consistently; GCC
// cannot see that and reports a mismatched allocation function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace quma::qsim {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// ------------------------------------------------------- naive references

using FullMatrix = std::vector<Complex>;

/** Expand a single-qubit operator to the full 2^nq space. */
FullMatrix
embed1(unsigned nq, unsigned q, const Mat2 &u)
{
    std::size_t n = std::size_t{1} << nq;
    std::size_t mask = std::size_t{1} << q;
    FullMatrix m(n * n, Complex{0, 0});
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            if ((i & ~mask) != (j & ~mask))
                continue;
            unsigned bi = (i & mask) ? 1 : 0;
            unsigned bj = (j & mask) ? 1 : 0;
            m[i * n + j] = u[bi * 2 + bj];
        }
    return m;
}

/** Expand a two-qubit operator to the full 2^nq space. */
FullMatrix
embed2(unsigned nq, unsigned q_high, unsigned q_low, const Mat4 &u)
{
    std::size_t n = std::size_t{1} << nq;
    std::size_t mh = std::size_t{1} << q_high;
    std::size_t ml = std::size_t{1} << q_low;
    std::size_t rest = ~(mh | ml);
    FullMatrix m(n * n, Complex{0, 0});
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            if ((i & rest) != (j & rest))
                continue;
            unsigned ri = ((i & mh) ? 2 : 0) | ((i & ml) ? 1 : 0);
            unsigned cj = ((j & mh) ? 2 : 0) | ((j & ml) ? 1 : 0);
            m[i * n + j] = u[ri * 4 + cj];
        }
    return m;
}

FullMatrix
matmulFull(const FullMatrix &a, const FullMatrix &b, std::size_t n)
{
    FullMatrix out(n * n, Complex{0, 0});
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < n; ++k) {
            Complex aik = a[i * n + k];
            if (aik == Complex{0, 0})
                continue;
            for (std::size_t j = 0; j < n; ++j)
                out[i * n + j] += aik * b[k * n + j];
        }
    return out;
}

FullMatrix
adjointFull(const FullMatrix &a, std::size_t n)
{
    FullMatrix out(n * n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            out[i * n + j] = std::conj(a[j * n + i]);
    return out;
}

FullMatrix
densityToFull(const DensityMatrix &rho)
{
    std::size_t n = rho.dim();
    FullMatrix out(n * n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            out[i * n + j] = rho.element(i, j);
    return out;
}

double
maxAbsDiff(const DensityMatrix &rho, const FullMatrix &ref)
{
    std::size_t n = rho.dim();
    double worst = 0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            worst = std::max(worst,
                             std::abs(rho.element(i, j) - ref[i * n + j]));
    return worst;
}

double
maxAbsDiff(const DensityMatrix &a, const DensityMatrix &b)
{
    std::size_t n = a.dim();
    double worst = 0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            worst = std::max(worst,
                             std::abs(a.element(i, j) - b.element(i, j)));
    return worst;
}

/** A seeded, entangled, slightly mixed state exercising all elements. */
DensityMatrix
randomState(unsigned nq, Rng &rng)
{
    DensityMatrix rho(nq);
    for (unsigned q = 0; q < nq; ++q)
        rho.apply1(q, gates::raxis(rng.uniform(0.0, kTwoPi),
                                   rng.uniform(0.0, kTwoPi)));
    for (unsigned q = 0; q + 1 < nq; ++q)
        rho.apply2(q + 1, q, gates::cnot());
    for (unsigned q = 0; q < nq; ++q)
        rho.applyKraus1(q, depolarizing(rng.uniform(0.0, 0.2)));
    return rho;
}

// ------------------------------------------------- fused kernel equivalence

TEST(FusedKernels, Apply1MatchesNaiveConjugation)
{
    Rng rng(0xfeed1);
    for (unsigned nq : {1u, 2u, 3u, 5u}) {
        for (int trial = 0; trial < 4; ++trial) {
            DensityMatrix rho = randomState(nq, rng);
            unsigned q = static_cast<unsigned>(
                rng.uniformInt(0, nq - 1));
            Mat2 u = gates::raxis(rng.uniform(0.0, kTwoPi),
                                  rng.uniform(0.0, kTwoPi));
            std::size_t n = rho.dim();
            FullMatrix uf = embed1(nq, q, u);
            FullMatrix ref = matmulFull(
                matmulFull(uf, densityToFull(rho), n),
                adjointFull(uf, n), n);
            rho.apply1(q, u);
            EXPECT_LT(maxAbsDiff(rho, ref), 1e-12);
        }
    }
}

TEST(FusedKernels, Apply2MatchesNaiveConjugation)
{
    Rng rng(0xfeed2);
    for (unsigned nq : {2u, 3u, 5u}) {
        for (int trial = 0; trial < 4; ++trial) {
            DensityMatrix rho = randomState(nq, rng);
            unsigned a = static_cast<unsigned>(
                rng.uniformInt(0, nq - 1));
            unsigned b = (a + 1 + static_cast<unsigned>(rng.uniformInt(
                                      0, nq - 2))) %
                         nq;
            unsigned hi = std::max(a, b), lo = std::min(a, b);
            Mat4 u = trial % 2 == 0
                         ? gates::cnot()
                         : kron(gates::raxis(0.3, 1.1),
                                gates::raxis(2.2, 0.7));
            std::size_t n = rho.dim();
            FullMatrix uf = embed2(nq, hi, lo, u);
            FullMatrix ref = matmulFull(
                matmulFull(uf, densityToFull(rho), n),
                adjointFull(uf, n), n);
            rho.apply2(hi, lo, u);
            EXPECT_LT(maxAbsDiff(rho, ref), 1e-12);
        }
    }
}

TEST(FusedKernels, KrausMatchesNaiveSum)
{
    Rng rng(0xfeed3);
    for (unsigned nq : {1u, 3u, 4u}) {
        DensityMatrix rho = randomState(nq, rng);
        auto kraus = idleChannel(250.0, 30000.0, 25000.0);
        std::size_t n = rho.dim();
        FullMatrix start = densityToFull(rho);
        FullMatrix ref(n * n, Complex{0, 0});
        for (const Mat2 &k : kraus) {
            unsigned q = 1 % nq;
            FullMatrix kf = embed1(nq, q, k);
            FullMatrix term = matmulFull(matmulFull(kf, start, n),
                                         adjointFull(kf, n), n);
            for (std::size_t i = 0; i < n * n; ++i)
                ref[i] += term[i];
        }
        rho.applyKraus1(1 % nq, kraus);
        EXPECT_LT(maxAbsDiff(rho, ref), 1e-12);
    }
}

// --------------------------------------------- closed-form channel paths

TEST(ClosedFormPaths, IdleMatchesGenericKrausPlusRz)
{
    Rng rng(0xfeed4);
    for (unsigned nq : {1u, 2u, 4u}) {
        for (int trial = 0; trial < 6; ++trial) {
            DensityMatrix fast = randomState(nq, rng);
            DensityMatrix slow = fast;
            unsigned q = static_cast<unsigned>(
                rng.uniformInt(0, nq - 1));
            double dt = rng.uniform(1.0, 5000.0);
            double t1 = 30000.0, t2 = 22000.0;
            double phase = rng.uniform(-1.0, 1.0);

            IdleChannelParams p = idleChannelParams(dt, t1, t2);
            fast.applyIdle(q, p.gamma, p.lambda, phase);

            slow.applyKraus1(q, idleChannel(dt, t1, t2));
            slow.apply1(q, gates::rz(phase));

            EXPECT_LT(maxAbsDiff(fast, slow), 1e-12)
                << "nq=" << nq << " q=" << q << " dt=" << dt;
        }
    }
}

TEST(ClosedFormPaths, IdleAtT2LimitHasNoPureDephasing)
{
    // T2 = 2 T1: lambda must vanish and coherence decay follow T1 only.
    IdleChannelParams p = idleChannelParams(100.0, 10000.0, 20000.0);
    EXPECT_DOUBLE_EQ(p.lambda, 0.0);
    EXPECT_NEAR(p.gamma, 1.0 - std::exp(-100.0 / 10000.0), 1e-15);
}

TEST(ClosedFormPaths, RzFastPathMatchesConjugation)
{
    Rng rng(0xfeed5);
    for (unsigned nq : {1u, 3u, 5u}) {
        for (int trial = 0; trial < 4; ++trial) {
            DensityMatrix fast = randomState(nq, rng);
            DensityMatrix slow = fast;
            unsigned q = static_cast<unsigned>(
                rng.uniformInt(0, nq - 1));
            double theta = rng.uniform(-8.0, 8.0);
            fast.applyRz(q, theta);
            slow.apply1(q, gates::rz(theta));
            EXPECT_LT(maxAbsDiff(fast, slow), 1e-12);
        }
    }
}

TEST(ClosedFormPaths, CzFastPathMatchesConjugation)
{
    Rng rng(0xfeed6);
    for (unsigned nq : {2u, 4u, 6u}) {
        DensityMatrix fast = randomState(nq, rng);
        DensityMatrix slow = fast;
        unsigned lo = static_cast<unsigned>(rng.uniformInt(0, nq - 2));
        unsigned hi = nq - 1;
        fast.applyCzPhase(lo, hi);
        slow.apply2(hi, lo, gates::cz());
        EXPECT_LT(maxAbsDiff(fast, slow), 1e-12);
    }
}

TEST(ClosedFormPaths, ResetQubitMatchesKrausChannel)
{
    Rng rng(0xfeed7);
    for (unsigned nq : {1u, 2u, 4u}) {
        DensityMatrix fast = randomState(nq, rng);
        DensityMatrix slow = fast;
        unsigned q = static_cast<unsigned>(rng.uniformInt(0, nq - 1));
        fast.resetQubit(q);
        slow.applyKraus1(
            q, {Mat2{Complex{1, 0}, {0, 0}, {0, 0}, {0, 0}},
                Mat2{Complex{0, 0}, {1, 0}, {0, 0}, {0, 0}}});
        EXPECT_LT(maxAbsDiff(fast, slow), 1e-14);
        EXPECT_NEAR(fast.probabilityOne(q), 0.0, 1e-14);
        EXPECT_NEAR(fast.trace(), 1.0, 1e-12);
    }
}

TEST(ClosedFormPaths, ProjectMatchesNaiveProjector)
{
    // P rho P / Tr(P rho P) with P = |o><o| on qubit q; every entry
    // off the surviving rows and columns is exactly +0.
    Rng rng(0xfeed8);
    for (unsigned nq : {1u, 2u, 3u, 4u}) {
        for (int trial = 0; trial < 4; ++trial) {
            DensityMatrix rho = randomState(nq, rng);
            unsigned q = static_cast<unsigned>(
                rng.uniformInt(0, nq - 1));
            bool outcome = trial % 2 == 1;
            std::size_t n = rho.dim();
            const Complex on = outcome ? 0.0 : 1.0;
            const Complex off = outcome ? 1.0 : 0.0;
            Mat2 proj{on, Complex{0, 0}, Complex{0, 0}, off};
            FullMatrix pf = embed1(nq, q, proj);
            FullMatrix ref =
                matmulFull(matmulFull(pf, densityToFull(rho), n), pf, n);
            double tr = 0;
            for (std::size_t i = 0; i < n; ++i)
                tr += ref[i * n + i].real();
            for (Complex &v : ref)
                v /= tr;
            rho.project(q, outcome);
            EXPECT_LT(maxAbsDiff(rho, ref), 1e-12);
            std::size_t mask = std::size_t{1} << q;
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c < n; ++c)
                    if (((r & mask) != 0) != outcome ||
                        ((c & mask) != 0) != outcome) {
                        Complex v = rho.element(r, c);
                        EXPECT_TRUE(v.real() == 0 && v.imag() == 0 &&
                                    !std::signbit(v.real()) &&
                                    !std::signbit(v.imag()))
                            << "nq=" << nq << " q=" << q << " (" << r
                            << ", " << c << ")";
                    }
        }
    }
    // An outcome of (near) zero probability is fatal and writes
    // nothing.
    DensityMatrix ground(2);
    EXPECT_THROW(ground.project(1, true), FatalError);
    EXPECT_EQ(ground.element(0, 0), Complex(1, 0));
}

// ------------------------------------------------- one-block bit identity
//
// On a one-qubit register the single-qubit kernels visit the register
// as one block and project/probabilityOne read it directly. A fast
// path must compute the same expression per element in the same
// order, so each kernel must leave the very bits the generic walk of
// a two-qubit register leaves on the same block.

/**
 * A seeded mixed state of qubit q of `rho`, every other qubit left in
 * |0>: a rotation, a depolarizing channel and a detuned idle step,
 * so all four entries of the block are non-trivial.
 */
void
prepareOneQubit(DensityMatrix &rho, unsigned q, std::uint64_t seed)
{
    Rng rng(seed);
    rho.apply1(q, gates::raxis(rng.uniform(0.0, kTwoPi),
                               rng.uniform(0.0, kTwoPi)));
    rho.applyKraus1(q, depolarizing(rng.uniform(0.0, 0.2)));
    rho.applyIdle(q, rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1),
                  rng.uniform(-1.0, 1.0));
}

/** Qubit q's 2x2 block of `rho` when every other qubit is |0>. */
std::array<Complex, 4>
blockOf(const DensityMatrix &rho, unsigned q)
{
    std::size_t b = std::size_t{1} << q;
    return {rho.element(0, 0), rho.element(0, b), rho.element(b, 0),
            rho.element(b, b)};
}

bool
sameBits(const std::array<Complex, 4> &a, const std::array<Complex, 4> &b)
{
    return std::memcmp(a.data(), b.data(), sizeof a) == 0;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(OneBlock, KernelsMatchTheGenericWalkBitForBit)
{
    const Mat2 u = gates::raxis(0.7, 2.1);
    const std::vector<Mat2> kraus = idleChannel(250.0, 30000.0, 25000.0);
    const IdleCoeffs idle = DensityMatrix::idleCoeffs(0.03, 0.02, 0.4);
    const Complex d0 = std::polar(1.0, -0.3), d1 = std::polar(1.0, 0.9);
    struct Kernel
    {
        const char *name;
        std::function<void(DensityMatrix &, unsigned)> apply;
    };
    const Kernel kernels[] = {
        {"apply1", [&](DensityMatrix &r, unsigned q) { r.apply1(q, u); }},
        {"applyIdle",
         [&](DensityMatrix &r, unsigned q) { r.applyIdle(q, idle); }},
        {"applyKraus1",
         [&](DensityMatrix &r, unsigned q) { r.applyKraus1(q, kraus); }},
        {"resetQubit", [](DensityMatrix &r, unsigned q) { r.resetQubit(q); }},
        {"applyDiag1",
         [&](DensityMatrix &r, unsigned q) { r.applyDiag1(q, d0, d1); }},
        {"project(0)",
         [](DensityMatrix &r, unsigned q) { r.project(q, false); }},
        {"project(1)",
         [](DensityMatrix &r, unsigned q) { r.project(q, true); }},
    };
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const Kernel &k : kernels) {
            DensityMatrix one(1);
            prepareOneQubit(one, 0, seed);
            const std::array<Complex, 4> start = blockOf(one, 0);
            const double p1 = one.probabilityOne(0);
            k.apply(one, 0);
            for (unsigned q : {0u, 1u}) {
                DensityMatrix two(2);
                prepareOneQubit(two, q, seed);
                ASSERT_TRUE(sameBits(blockOf(two, q), start))
                    << "preparation, seed " << seed << " qubit " << q;
                EXPECT_TRUE(sameBits(two.probabilityOne(q), p1))
                    << "probabilityOne, seed " << seed << " qubit " << q;
                k.apply(two, q);
                EXPECT_TRUE(sameBits(blockOf(two, q), blockOf(one, 0)))
                    << k.name << ", seed " << seed << " qubit " << q;
                EXPECT_TRUE(
                    sameBits(two.probabilityOne(q), one.probabilityOne(0)))
                    << "probabilityOne after " << k.name << ", seed "
                    << seed << " qubit " << q;
            }
        }
    }
}

// ----------------------------------------------------- phasor recurrence

TEST(Phasor, TracksDirectEvaluationOverLongWindows)
{
    // At 100k steps the absolute phase reaches ~24500 rad, where one
    // ulp of the reference's own argument is already ~4e-12; the bound
    // covers a few ulps of that, not recurrence drift (which the
    // resync keeps well below it -- see the small-phase test).
    const double phi0 = 0.7321, dphi = 0.2451;
    signal::Phasor ph(phi0, dphi);
    double worst = 0;
    for (std::size_t k = 0; k < 100000; ++k) {
        double arg = phi0 + static_cast<double>(k) * dphi;
        worst = std::max(worst,
                         std::abs(ph.value() - std::polar(1.0, arg)));
        ph.advance();
    }
    EXPECT_LT(worst, 2e-11);
}

TEST(Phasor, SmallPhaseDriftStaysAtMachinePrecision)
{
    const double phi0 = 0.125, dphi = 1e-3;
    signal::Phasor ph(phi0, dphi);
    double worst = 0;
    for (std::size_t k = 0; k < 100000; ++k) {
        double arg = phi0 + static_cast<double>(k) * dphi;
        worst = std::max(worst,
                         std::abs(ph.value() - std::polar(1.0, arg)));
        ph.advance();
    }
    EXPECT_LT(worst, 1e-12);
}

TEST(Phasor, HandlesNegativeFrequency)
{
    signal::Phasor ph(-0.4, -0.313);
    for (std::size_t k = 0; k < 3000; ++k) {
        double arg = -0.4 - static_cast<double>(k) * 0.313;
        ASSERT_NEAR(std::abs(ph.value() - std::polar(1.0, arg)), 0.0,
                    1e-12);
        ph.advance();
    }
}

TEST(PhasorChain, DemodulateMatchesDirectSinCosLoop)
{
    Rng rng(0x2b00);
    std::vector<double> samples(750);
    for (auto &s : samples)
        s = rng.uniform(-100.0, 100.0);
    signal::Waveform trace(samples, kAdcSampleRateHz);

    double f = 40.0e6, t0 = 35.0;
    auto z = signal::demodulate(trace, f, t0);

    double dt_ns = 1e9 / trace.rateHz();
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t k = 0; k < trace.size(); ++k) {
        double t_s = (t0 + (static_cast<double>(k) + 0.5) * dt_ns) * 1e-9;
        double arg = kTwoPi * f * t_s;
        acc += trace[k] *
               std::complex<double>(std::cos(arg), -std::sin(arg));
    }
    acc *= 2.0 / static_cast<double>(trace.size());
    EXPECT_NEAR(std::abs(z - acc), 0.0, 1e-9);
}

TEST(PhasorChain, SsbModulateMatchesDirectSinCosLoop)
{
    std::vector<double> env(500);
    for (std::size_t k = 0; k < env.size(); ++k)
        env[k] = std::exp(-0.5 * (static_cast<double>(k) - 250.0) *
                          (static_cast<double>(k) - 250.0) / 2500.0);
    signal::Waveform base(env, kAwgSampleRateHz);
    double fssb = -50e6, t0 = 120.0, phi = 0.31;
    auto [i, q] = signal::ssbModulate(base, fssb, t0, phi);

    double dt_ns = 1e9 / base.rateHz();
    for (std::size_t k = 0; k < base.size(); ++k) {
        double t_s = (t0 + (static_cast<double>(k) + 0.5) * dt_ns) * 1e-9;
        double arg = kTwoPi * fssb * t_s + phi;
        ASSERT_NEAR(i[k], base[k] * std::cos(arg), 1e-11);
        ASSERT_NEAR(q[k], base[k] * std::sin(arg), 1e-11);
    }
}

TEST(PhasorChain, CalibrateMduMatchesDirectSinCosLoop)
{
    auto rp = paperQubitParams().readout;
    auto cal = measure::calibrateMdu(rp, 1500);

    double dt_ns = 1e9 / rp.adcRateHz;
    auto n = static_cast<std::size_t>(1500.0 / dt_ns);
    ASSERT_EQ(cal.weights.size(), n);
    double s0 = 0, s1 = 0;
    std::vector<double> weights(n);
    for (std::size_t k = 0; k < n; ++k) {
        double t_s = ((static_cast<double>(k) + 0.5) * dt_ns) * 1e-9;
        double arg = kTwoPi * rp.ifHz * t_s;
        double v0 = rp.c0.real() * std::cos(arg) -
                    rp.c0.imag() * std::sin(arg);
        double v1 = rp.c1.real() * std::cos(arg) -
                    rp.c1.imag() * std::sin(arg);
        weights[k] = v1 - v0;
        s0 += v0 * weights[k];
        s1 += v1 * weights[k];
    }
    double scale = 1.0 / static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_NEAR(cal.weights[k], weights[k] * scale, 1e-10);
    EXPECT_NEAR(cal.s0, s0 * scale, 1e-8);
    EXPECT_NEAR(cal.s1, s1 * scale, 1e-8);
}

TEST(PhasorChain, ReadoutToneMatchesDirectSinCosLoop)
{
    auto rp = paperQubitParams().readout;
    rp.noiseSigma = 0.0; // isolate the deterministic tone
    Rng rng(0x77);
    auto trace = simulateReadout(rp, false, 1500, 30000.0, rng);

    double dt_ns = 1e9 / rp.adcRateHz;
    for (std::size_t k = 0; k < trace.trace.size(); ++k) {
        double t_s = ((static_cast<double>(k) + 0.5) * dt_ns) * 1e-9;
        double arg = kTwoPi * rp.ifHz * t_s;
        double v = rp.c0.real() * std::cos(arg) -
                   rp.c0.imag() * std::sin(arg);
        ASSERT_NEAR(trace.trace[k], v, 1e-10);
    }
}

// ------------------------------------------------------ ziggurat gaussian

TEST(ZigguratGaussian, StandardNormalStatistics)
{
    Rng rng(0x5eed);
    const std::size_t n = 400000;
    double sum = 0, sumSq = 0, sumCube = 0;
    std::size_t within1 = 0, beyondTail = 0;
    for (std::size_t i = 0; i < n; ++i) {
        double x = rng.gaussian();
        sum += x;
        sumSq += x * x;
        sumCube += x * x * x;
        if (std::abs(x) <= 1.0)
            ++within1;
        if (std::abs(x) > 3.6541528853610088)
            ++beyondTail;
    }
    double mean = sum / static_cast<double>(n);
    double var = sumSq / static_cast<double>(n) - mean * mean;
    double skew = sumCube / static_cast<double>(n);
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(var, 1.0, 0.015);
    EXPECT_NEAR(skew, 0.0, 0.03);
    EXPECT_NEAR(static_cast<double>(within1) / static_cast<double>(n),
                0.6827, 0.005);
    // The tail beyond the ziggurat cut-off must be populated with the
    // right mass: 2 * (1 - Phi(r)) ~ 2.58e-4.
    EXPECT_GT(beyondTail, 20u);
    EXPECT_LT(beyondTail, 250u);
}

TEST(ZigguratGaussian, MeanAndScaleApplied)
{
    Rng rng(0xabc);
    double sum = 0;
    const std::size_t n = 100000;
    for (std::size_t i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 0.5);
    EXPECT_NEAR(sum / static_cast<double>(n), 5.0, 0.02);
}

TEST(ZigguratGaussian, DeterministicInSeed)
{
    Rng a(0x1234), b(0x1234);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.gaussian(), b.gaussian());
    Rng c(0x1235);
    bool differs = false;
    Rng d(0x1234);
    for (int i = 0; i < 100; ++i)
        differs |= (c.gaussian() != d.gaussian());
    EXPECT_TRUE(differs);
}

// -------------------------------------------------------- zero allocation

TEST(Allocation, SteadyStateDensityKernelsDoNotAllocate)
{
    DensityMatrix rho(4);
    auto chan = idleChannel(80.0, 30000.0, 25000.0);
    auto icp = idleChannelParams(80.0, 30000.0, 25000.0);
    Mat2 h = gates::hadamard();
    rho.apply1(0, h);
    rho.applyKraus1(0, chan); // first call sizes the persistent scratch
    // A one-qubit register: the one-block case of every kernel.
    DensityMatrix one(1);
    one.applyKraus1(0, chan);

    g_allocCount.store(0);
    g_countAllocs.store(true);
    rho.apply1(1, h);
    rho.applyRz(2, 0.3);
    rho.applyCzPhase(0, 3);
    rho.applyIdle(1, icp.gamma, icp.lambda, 0.01);
    rho.applyKraus1(1, chan);
    rho.resetQubit(2);
    rho.project(0, rho.probabilityOne(0) > 0.5);
    one.apply1(0, h);
    one.applyIdle(0, icp.gamma, icp.lambda, 0.01);
    one.applyKraus1(0, chan);
    one.project(0, one.probabilityOne(0) > 0.5);
    one.resetQubit(0);
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocCount.load(), 0u);
}

TEST(Allocation, IdleEvolutionPathDoesNotAllocate)
{
    TransmonChip chip({paperQubitParams(), paperQubitParams()});
    chip.newRound();
    chip.advanceTo(100);

    g_allocCount.store(0);
    g_countAllocs.store(true);
    chip.advanceTo(5000);
    chip.advanceTo(20000);
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocCount.load(), 0u);
}

TEST(Allocation, ReadoutShotPathDoesNotAllocate)
{
    // Measure + integrate in the integrated domain: no trace, so no
    // per-readout Waveform or noise buffer.
    TransmonParams p = paperQubitParams();
    TransmonChip chip({p});
    measure::Mdu mdu(measure::calibrateMdu(p.readout, 1500));
    chip.newRound();
    chip.state().apply1(0, gates::hadamard());

    g_allocCount.store(0);
    g_countAllocs.store(true);
    double acc = 0.0;
    for (TimeNs t0 = 0; t0 < 20 * 1500; t0 += 1500)
        acc += mdu.integrate(chip.measure(0, t0, 1500)).first;
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocCount.load(), 0u);
    EXPECT_TRUE(std::isfinite(acc));
}

} // namespace
} // namespace quma::qsim

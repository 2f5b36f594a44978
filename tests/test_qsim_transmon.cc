/**
 * @file
 * Unit tests for the pulse-level transmon model: drive calibration,
 * the timing-sets-the-axis property (paper §4.2.3), detuning,
 * decoherence and readout, and the split of the chip's clock from its
 * kernels (drive, idle, readout) with the idle-factor memo.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "common/logging.hh"
#include "common/rng.hh"
#include "qsim/channels.hh"
#include "qsim/transmon.hh"
#include "signal/envelope.hh"
#include "signal/modulation.hh"

namespace quma::qsim {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kSsb = -50.0e6;

TransmonParams
quietParams()
{
    TransmonParams p = paperQubitParams();
    p.t1Ns = 1e9; // effectively no decoherence
    p.t2Ns = 1e9;
    p.readout.noiseSigma = 0.0;
    return p;
}

/** Build a calibrated drive pulse for angle theta at phase phi. */
signal::DrivePulse
makePulse(const TransmonParams &p, double theta, double phi,
          TimeNs t0_ns)
{
    double gain = p.rabiRadPerAmpNs;
    signal::Envelope unit = signal::Envelope::gaussian(20.0, 1.0);
    double amp = theta / (gain * unit.area());
    signal::Envelope env = signal::Envelope::gaussian(20.0, amp);
    signal::Waveform base(env.sample(1e9), 1e9);
    auto [i, q] = signal::ssbModulate(base, kSsb, 0.0, phi);
    signal::DrivePulse pulse;
    pulse.t0Ns = t0_ns;
    pulse.i = i;
    pulse.q = q;
    pulse.ssbHz = kSsb;
    pulse.carrierHz = p.freqHz - kSsb;
    return pulse;
}

TEST(Transmon, CalibratedPiPulseExcites)
{
    TransmonChip chip({quietParams()}, 1);
    chip.applyDrive(0, makePulse(chip.qubitParams(0), kPi, 0.0, 0));
    EXPECT_NEAR(chip.probabilityOne(0), 1.0, 1e-3);
}

TEST(Transmon, HalfPiPulseReachesEquator)
{
    TransmonChip chip({quietParams()}, 1);
    chip.applyDrive(0, makePulse(chip.qubitParams(0), kPi / 2, 0.0, 0));
    EXPECT_NEAR(chip.probabilityOne(0), 0.5, 1e-3);
}

TEST(Transmon, TwoPiPulsesReturnToGround)
{
    TransmonChip chip({quietParams()}, 1);
    auto p = chip.qubitParams(0);
    chip.applyDrive(0, makePulse(p, kPi, 0.0, 0));
    chip.applyDrive(0, makePulse(p, kPi, 0.0, 20));
    EXPECT_NEAR(chip.probabilityOne(0), 0.0, 1e-3);
}

TEST(Transmon, PulsesAtTwentyNsGridKeepAxis)
{
    // With -50 MHz SSB, the carrier phase repeats every 20 ns, so
    // X90 followed by X90 20 ns later adds up to a pi rotation.
    TransmonChip chip({quietParams()}, 1);
    auto p = chip.qubitParams(0);
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 20));
    EXPECT_NEAR(chip.probabilityOne(0), 1.0, 1e-3);
}

TEST(Transmon, FiveNsShiftTurnsXIntoY)
{
    // THE paper property (§4.2.3): with 50 MHz SSB, playing the x
    // envelope 5 ns late rotates the axis by 90 degrees. An X90 at
    // t=0 followed by a shifted "X90" at t+5ns-grid behaves like a
    // y rotation: starting from |0>, X90 then Y90 leaves the qubit
    // on the equator rather than completing the flip.
    TransmonChip onGrid({quietParams()}, 1);
    auto p = onGrid.qubitParams(0);
    onGrid.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    onGrid.applyDrive(0, makePulse(p, kPi / 2, 0.0, 20));
    EXPECT_NEAR(onGrid.probabilityOne(0), 1.0, 1e-3);

    TransmonChip shifted({quietParams()}, 1);
    shifted.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    shifted.applyDrive(0, makePulse(p, kPi / 2, 0.0, 25));
    // X90 then (axis-shifted) Y90: P1 stays at 1/2.
    EXPECT_NEAR(shifted.probabilityOne(0), 0.5, 1e-3);
}

TEST(Transmon, TenNsShiftInvertsAxis)
{
    // 10 ns shift = 180 degrees: the second pulse undoes the first.
    TransmonChip chip({quietParams()}, 1);
    auto p = chip.qubitParams(0);
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 30));
    EXPECT_NEAR(chip.probabilityOne(0), 0.0, 1e-3);
}

TEST(Transmon, EnvelopePhaseSelectsAxis)
{
    // X90 then Y90 via envelope phase: equator either way.
    TransmonChip chip({quietParams()}, 1);
    auto p = chip.qubitParams(0);
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    chip.applyDrive(0, makePulse(p, kPi / 2, kPi / 2, 20));
    EXPECT_NEAR(chip.probabilityOne(0), 0.5, 1e-3);
}

TEST(Transmon, DetunedDriveRotatesLess)
{
    TransmonParams p = quietParams();
    TransmonChip resonant({p}, 1);
    resonant.applyDrive(0, makePulse(p, kPi, 0.0, 0));

    TransmonParams detunedParams = quietParams();
    detunedParams.freqHz += 30.0e6; // pulse stays at the old carrier
    TransmonChip detuned({detunedParams}, 1);
    auto pulse = makePulse(p, kPi, 0.0, 0);
    detuned.applyDrive(0, pulse);
    EXPECT_GT(resonant.probabilityOne(0),
              detuned.probabilityOne(0) + 0.05);
}

TEST(Transmon, IdleDecayFollowsT1)
{
    TransmonParams p = quietParams();
    p.t1Ns = 30000.0;
    p.t2Ns = 25000.0;
    TransmonChip chip({p}, 1);
    chip.applyDrive(0, makePulse(p, kPi, 0.0, 0));
    double p1 = chip.probabilityOne(0);
    chip.advanceTo(30020);
    EXPECT_NEAR(chip.probabilityOne(0), p1 * std::exp(-30000.0 / 30000.0),
                1e-3);
}

TEST(Transmon, AdvanceBackwardsIsFatal)
{
    setLogQuiet(true);
    TransmonChip chip({quietParams()}, 1);
    chip.advanceTo(100);
    EXPECT_THROW(chip.advanceTo(50), quma::FatalError);
    EXPECT_NO_THROW(chip.advanceAtLeast(50));
    setLogQuiet(false);
}

TEST(Transmon, MeasureCollapsesAndReportsTruth)
{
    TransmonChip chip({quietParams()}, 7);
    chip.applyDrive(0, makePulse(chip.qubitParams(0), kPi, 0.0, 0));
    auto trace = chip.measure(0, 100, 1500);
    EXPECT_TRUE(trace.initialOne);
    EXPECT_NEAR(chip.probabilityOne(0), trace.finalOne ? 1.0 : 0.0,
                1e-9);
}

TEST(Transmon, MeasureStatisticsFollowBornRule)
{
    TransmonParams p = quietParams();
    int ones = 0;
    const int shots = 2000;
    for (int s = 0; s < shots; ++s) {
        TransmonChip chip({p}, 1000 + s);
        chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
        ones += chip.measure(0, 100, 1500).initialOne;
    }
    EXPECT_NEAR(ones / static_cast<double>(shots), 0.5, 0.04);
}

TEST(Transmon, OverlappingReadoutIsFatal)
{
    setLogQuiet(true);
    TransmonChip chip({quietParams()}, 1);
    chip.measure(0, 0, 1500);
    EXPECT_THROW(chip.measure(0, 1000, 1500), quma::FatalError);
    setLogQuiet(false);
}

TEST(Transmon, DecayDuringReadoutResetsState)
{
    // With T1 much shorter than the readout window the excited state
    // nearly always decays inside the window and ends in |0>.
    TransmonParams p = quietParams();
    p.t1Ns = 100.0;
    p.t2Ns = 150.0;
    TransmonChip chip({p}, 99);
    chip.state().apply1(0, gates::pauliX());
    auto trace = chip.measure(0, 0, 5000);
    EXPECT_TRUE(trace.initialOne);
    EXPECT_FALSE(trace.finalOne);
    EXPECT_NEAR(chip.probabilityOne(0), 0.0, 1e-9);
    EXPECT_GE(trace.decayAtNs, 0.0);
}

TEST(Transmon, NewRoundResetsStateAndClock)
{
    TransmonChip chip({quietParams()}, 1);
    chip.applyDrive(0, makePulse(chip.qubitParams(0), kPi, 0.0, 0));
    chip.newRound();
    EXPECT_EQ(chip.now(), 0);
    EXPECT_NEAR(chip.probabilityOne(0), 0.0, 1e-12);
}

TEST(Transmon, QuasiStaticDetuningDephasesRamsey)
{
    // Chip-level Ramsey at zero artificial detuning: a round's
    // detuning delta precesses the qubit by 2*pi*delta*tau between
    // the two pi/2 pulses, so averaged over Gaussian draws of width
    // sigma, P(1) = 0.5 + 0.5 * exp(-(2*pi*sigma*tau)^2 / 2). Counting
    // delta twice (in the drive's frame as well as in the idles)
    // would dephase the fringe at 2*sigma.
    auto ramsey = [](double sigma_hz, TimeNs tau) {
        TransmonParams p = quietParams();
        p.quasiStaticDetuningSigmaHz = sigma_hz;
        double acc = 0;
        const int shots = 400;
        for (int s = 0; s < shots; ++s) {
            TransmonChip chip({p}, 5000 + s);
            chip.newRound();
            chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
            chip.advanceTo(20 + tau);
            chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 20 + tau));
            acc += chip.probabilityOne(0);
        }
        return acc / shots;
    };
    // tau on the 20 ns grid so the drive phase is unshifted; the
    // free precession runs between the pulse midpoints, tau + 20 ns.
    auto envelope = [](double sigma_hz, TimeNs tau) {
        double x = 2.0 * kPi * sigma_hz * static_cast<double>(tau + 20) *
                   1e-9;
        return 0.5 + 0.5 * std::exp(-x * x / 2.0);
    };
    EXPECT_NEAR(ramsey(0.0, 2000), 1.0, 0.05);
    // 400 draws: within 0.05 is about 3.5 standard errors at 2 us.
    for (TimeNs tau : {1000, 2000})
        EXPECT_NEAR(ramsey(100.0e3, tau), envelope(100.0e3, tau), 0.05)
            << "tau " << tau << " ns";
}

/** Bit-for-bit equality of two density matrices. */
void
expectSameState(const DensityMatrix &a, const DensityMatrix &b)
{
    ASSERT_EQ(a.dim(), b.dim());
    for (std::size_t r = 0; r < a.dim(); ++r)
        for (std::size_t c = 0; c < a.dim(); ++c)
            ASSERT_EQ(a.element(r, c), b.element(r, c))
                << "element (" << r << ", " << c << ")";
}

TEST(Transmon, ApplyDriveIsItsClockAroundRotate)
{
    // Random envelopes, phases, fire times and carrier detunings, on
    // a static and a drifting frame: the clock half (idle to the
    // midpoint, idle to the end) around the clock-free rotate must
    // reproduce the one-call drive bit for bit.
    Rng rng(0xd21e);
    TransmonParams drifting = paperQubitParams();
    drifting.freqHz = 6.1e9;
    drifting.quasiStaticDetuningSigmaHz = 300e3;
    const std::vector<TransmonParams> qubits{paperQubitParams(), drifting};
    TransmonChip whole(qubits, 42);
    TransmonChip split(qubits, 42);
    whole.newRound();
    split.newRound();
    TimeNs t = 0;
    for (int n = 0; n < 200; ++n) {
        const auto q = static_cast<unsigned>(rng.uniformInt(0, 1));
        signal::DrivePulse pulse =
            makePulse(qubits[q], rng.uniform(0.0, 2.0 * kPi),
                      rng.uniform(0.0, 2.0 * kPi), 0);
        pulse.carrierHz += rng.uniform(-20e6, 20e6);
        t += static_cast<TimeNs>(rng.uniformInt(0, 400));
        pulse.t0Ns = t;
        whole.applyDrive(q, pulse);
        const DriveGate gate = split.driveGate(q, pulse);
        EXPECT_EQ(gate.adjoint, adjoint(gate.rotation));
        split.advanceAtLeast(gate.midNs);
        split.rotate(q, gate);
        split.advanceAtLeast(gate.endNs);
        ASSERT_EQ(whole.now(), split.now());
        expectSameState(whole.state(), split.state());
        t += 20;
    }
}

TEST(Transmon, ScalarApplyIdleIsApplyIdleOfIdleCoeffs)
{
    Rng rng(0x1d1e);
    DensityMatrix a(3);
    for (unsigned q = 0; q < 3; ++q)
        a.apply1(q, gates::raxis(rng.uniform(0.0, 2.0 * kPi),
                                 rng.uniform(0.0, kPi)));
    DensityMatrix b = a;
    for (int n = 0; n < 100; ++n) {
        const auto q = static_cast<unsigned>(rng.uniformInt(0, 2));
        const double gamma = rng.uniform(0.0, 0.3);
        const double lambda = rng.uniform(0.0, 0.3);
        const double phase = rng.uniform(-4.0, 4.0);
        a.applyIdle(q, gamma, lambda, phase);
        b.applyIdle(q, DensityMatrix::idleCoeffs(gamma, lambda, phase));
        expectSameState(a, b);
    }
}

TEST(Transmon, MeasureIsItsClockThenReadout)
{
    // Same shot, same state and the same next draw: measure is the
    // overlap check and the idle to t0, then readout.
    TransmonParams drifting = paperQubitParams();
    drifting.quasiStaticDetuningSigmaHz = 300e3;
    const std::vector<TransmonParams> qubits{paperQubitParams(), drifting};
    Rng rng(0x3ea5);
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        TransmonChip whole(qubits, seed);
        whole.newRound();
        for (unsigned q = 0; q < 2; ++q)
            whole.state().apply1(q, gates::raxis(rng.uniform(0.0, kPi),
                                                 rng.uniform(0.0, kPi)));
        TransmonChip split = whole;
        const auto q = static_cast<unsigned>(seed % 2);
        const auto t0 = static_cast<TimeNs>(rng.uniformInt(0, 5000));
        const ReadoutShot a = whole.measure(q, t0, 1500);
        split.advanceAtLeast(t0);
        const ReadoutShot b = split.readout(q, 1500);
        ASSERT_EQ(a.initialOne, b.initialOne);
        ASSERT_EQ(a.finalOne, b.finalOne);
        ASSERT_EQ(a.decayAtNs, b.decayAtNs);
        ASSERT_EQ(a.durationNs, b.durationNs);
        ASSERT_EQ(a.noise, b.noise);
        expectSameState(whole.state(), split.state());
        ASSERT_EQ(whole.detuningHz(1), split.detuningHz(1));
        ASSERT_EQ(whole.rng()(), split.rng()());
    }
}

/** Bit-for-bit equality of two sets of idle factors. */
bool
sameCoeffs(const IdleCoeffs &a, const IdleCoeffs &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Transmon, TwoEntryIdleMemoMatchesFreshCoefficients)
{
    // A schedule's alternating intervals and a non-repeating run, on a
    // static and a drifting frame whose detuning is redrawn between
    // shots: every memoized answer equals the factors computed
    // afresh from idleChannelParams and the current frame.
    TransmonParams drifting = paperQubitParams();
    drifting.quasiStaticDetuningSigmaHz = 300e3;
    TransmonChip chip({paperQubitParams(), drifting}, 9);
    chip.newRound();
    std::vector<TimeNs> alternating, distinct;
    for (int shot = 0; shot < 20; ++shot)
        alternating.insert(alternating.end(), {198510, 10, 10, 10});
    for (TimeNs dt = 1; dt <= 80; ++dt)
        distinct.push_back(dt * 7);
    for (const auto *steps : {&alternating, &distinct}) {
        for (std::size_t n = 0; n < steps->size(); ++n) {
            const auto dt = static_cast<double>((*steps)[n]);
            for (unsigned q = 0; q < 2; ++q) {
                const TransmonParams &p = chip.qubitParams(q);
                IdleChannelParams icp =
                    idleChannelParams(dt, p.t1Ns, p.t2Ns);
                const double phase =
                    2.0 * kPi * chip.detuningHz(q) * dt * 1e-9;
                ASSERT_TRUE(sameCoeffs(
                    chip.idleCoeffs(q, dt),
                    DensityMatrix::idleCoeffs(icp.gamma, icp.lambda,
                                              phase)))
                    << "qubit " << q << " step " << n;
            }
            // Every fourth step ends a shot: the drifting frame moves.
            if (n % 4 == 3)
                chip.readout(1, 1500);
        }
    }
    EXPECT_EQ(chip.detuningHz(0), 0.0);
    EXPECT_NE(chip.detuningHz(1), 0.0);
}

TEST(Transmon, DriveGateIgnoresTheFrameDetuning)
{
    // The pulse is demodulated in the nominal frame: a drifting
    // qubit's gate is the static qubit's, whatever its detuning.
    TransmonParams drifting = quietParams();
    drifting.quasiStaticDetuningSigmaHz = 300e3;
    TransmonChip chip({quietParams(), drifting}, 3);
    EXPECT_TRUE(chip.staticFrame(0));
    EXPECT_FALSE(chip.staticFrame(1));

    signal::DrivePulse pulse = makePulse(quietParams(), kPi / 2, 0.3, 45);
    chip.newRound();
    const double before = chip.detuningHz(1);
    const DriveGate fixed = chip.driveGate(0, pulse);
    const DriveGate moving = chip.driveGate(1, pulse);
    EXPECT_EQ(fixed.midNs, 55);
    EXPECT_EQ(fixed.endNs, 65);
    EXPECT_TRUE(fixed.rotates);
    EXPECT_EQ(moving, fixed);
    // Redraw the drifting frame: its gate stays bit-equal.
    chip.measure(1, 100, 1500);
    chip.newRound();
    EXPECT_NE(chip.detuningHz(1), before);
    EXPECT_EQ(chip.driveGate(1, pulse), moving);
    EXPECT_EQ(chip.driveGate(0, pulse), fixed);
}

TEST(Transmon, MemoizedIdleMatchesIdleChannelParams)
{
    // Repeating intervals hit the per-qubit memo, changing ones miss
    // it; both must give the unmemoized channel's density matrix.
    TransmonParams a = paperQubitParams();
    TransmonParams b = paperQubitParams();
    b.t1Ns = 12000.0;
    b.t2Ns = 9000.0;
    TransmonChip chip({a, b}, 1);
    chip.state().apply1(0, gates::hadamard());
    chip.state().apply1(1, gates::raxis(0.4, 2.0));
    DensityMatrix reference = chip.state();

    const TimeNs steps[] = {10, 10, 10, 37, 10, 10, 500, 37, 37, 1,
                            2,  3,  10, 10, 4000, 4000, 7, 10, 10, 10};
    TimeNs t = 0;
    for (TimeNs dt : steps) {
        t += dt;
        chip.advanceTo(t);
        for (unsigned q = 0; q < 2; ++q) {
            const TransmonParams &p = chip.qubitParams(q);
            IdleChannelParams icp = idleChannelParams(
                static_cast<double>(dt), p.t1Ns, p.t2Ns);
            reference.applyIdle(q, icp.gamma, icp.lambda, 0.0);
        }
        expectSameState(chip.state(), reference);
    }
}

TEST(Readout, TraceSeparatesStates)
{
    ReadoutParams rp;
    rp.c0 = {30.0, 0.0};
    rp.c1 = {-30.0, 0.0};
    rp.noiseSigma = 0.0;
    Rng rng(1);
    auto t0 = simulateReadout(rp, false, 1500, 1e9, rng);
    auto t1 = simulateReadout(rp, true, 1500, 1e9, rng);
    auto z0 = signal::demodulate(t0.trace, rp.ifHz);
    auto z1 = signal::demodulate(t1.trace, rp.ifHz);
    EXPECT_NEAR(z0.real(), 30.0, 1.0);
    EXPECT_NEAR(z1.real(), -30.0, 1.0);
}

TEST(Readout, TraceLengthMatchesAdcRate)
{
    ReadoutParams rp;
    Rng rng(1);
    auto t = simulateReadout(rp, false, 1500, 1e9, rng);
    EXPECT_EQ(t.trace.size(), 300u); // 1500 ns at 200 MSa/s
}

} // namespace
} // namespace quma::qsim

/**
 * @file
 * Unit tests for the measurement subsystem: MDU calibration and
 * discrimination, trigger/shot ordering, the integrated-domain shot
 * against the trace reference, the digital output unit, and the data
 * collection unit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "measure/datacollector.hh"
#include "measure/digitaloutput.hh"
#include "measure/mdu.hh"
#include "qsim/transmon.hh"

namespace quma::measure {
namespace {

qsim::ReadoutParams
cleanReadout()
{
    qsim::ReadoutParams rp;
    rp.c0 = {30.0, 0.0};
    rp.c1 = {-30.0, 0.0};
    rp.noiseSigma = 0.0;
    return rp;
}

// -------------------------------------------------------------------- MDU

TEST(MduCalibration, SeparatesStates)
{
    auto cal = calibrateMdu(cleanReadout(), 1500);
    EXPECT_LT(cal.s0, cal.threshold);
    EXPECT_GT(cal.s1, cal.threshold);
    EXPECT_GT(cal.s1 - cal.s0, 0.0);
}

TEST(MduCalibration, RejectsTinyWindow)
{
    setLogQuiet(true);
    EXPECT_THROW(calibrateMdu(cleanReadout(), 1), quma::FatalError);
    setLogQuiet(false);
}

TEST(Mdu, DiscriminatesNoiselessTraces)
{
    auto rp = cleanReadout();
    Mdu mdu(calibrateMdu(rp, 1500));
    Rng rng(1);
    auto t0 = qsim::simulateReadout(rp, false, 1500, 1e12, rng);
    auto t1 = qsim::simulateReadout(rp, true, 1500, 1e12, rng);
    EXPECT_FALSE(mdu.integrate(t0.trace).second);
    EXPECT_TRUE(mdu.integrate(t1.trace).second);
}

TEST(Mdu, HighNoiseStillMostlyCorrect)
{
    auto rp = cleanReadout();
    rp.noiseSigma = 150.0;
    Mdu mdu(calibrateMdu(rp, 1500));
    Rng rng(7);
    int correct = 0;
    const int shots = 400;
    for (int s = 0; s < shots; ++s) {
        bool one = s % 2 == 1;
        auto t = qsim::simulateReadout(rp, one, 1500, 1e12, rng);
        correct += mdu.integrate(t.trace).second == one;
    }
    EXPECT_GT(correct, shots * 90 / 100);
}

TEST(Mdu, ShotThenTriggerCompletesAfterLatency)
{
    auto rp = cleanReadout();
    Mdu mdu(calibrateMdu(rp, 1500), /*latency=*/100);
    Rng rng(1);
    std::vector<MduResult> results;
    mdu.setResultSink(
        [&](const MduResult &r) { results.push_back(r); });

    auto shot = qsim::sampleReadoutShot(true, 1500, 1e12, rng);
    mdu.submitShot(shot, /*td=*/1000, /*duration=*/300);
    EXPECT_TRUE(mdu.hasPendingShot());
    mdu.discriminate(1000, 7, 0x1);
    EXPECT_FALSE(mdu.hasPendingShot());
    ASSERT_TRUE(mdu.nextEventCycle().has_value());
    // Window [1000, 1300] plus 100 cycles of latency.
    EXPECT_EQ(*mdu.nextEventCycle(), 1400u);
    mdu.advanceTo(1399);
    EXPECT_TRUE(results.empty());
    mdu.advanceTo(1400);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].bit);
    EXPECT_EQ(results[0].destReg, 7);
    EXPECT_EQ(results[0].completionCycle, 1400u);
}

TEST(Mdu, TriggerBeforeShotArms)
{
    auto rp = cleanReadout();
    Mdu mdu(calibrateMdu(rp, 1500), 100);
    Rng rng(1);
    std::vector<MduResult> results;
    mdu.setResultSink(
        [&](const MduResult &r) { results.push_back(r); });

    mdu.discriminate(1000, 5, 0x1);
    EXPECT_TRUE(mdu.armed());
    auto shot = qsim::sampleReadoutShot(false, 1500, 1e12, rng);
    mdu.submitShot(shot, 1018, 300);
    EXPECT_FALSE(mdu.armed());
    EXPECT_FALSE(mdu.hasPendingShot());
    // Window ends at 1318, plus latency.
    EXPECT_EQ(*mdu.nextEventCycle(), 1418u);
    mdu.advanceTo(2000);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].bit);
}

TEST(Mdu, DoubleTriggerIsFatal)
{
    setLogQuiet(true);
    Mdu mdu(calibrateMdu(cleanReadout(), 1500), 100);
    mdu.discriminate(0, 1, 0x1);
    EXPECT_THROW(mdu.discriminate(5, 1, 0x1), quma::FatalError);
    setLogQuiet(false);
}

TEST(Mdu, DoubleShotIsFatal)
{
    setLogQuiet(true);
    auto rp = cleanReadout();
    Mdu mdu(calibrateMdu(rp, 1500), 100);
    Rng rng(1);
    auto shot = qsim::sampleReadoutShot(false, 1500, 1e12, rng);
    mdu.submitShot(shot, 0, 300);
    EXPECT_THROW(mdu.submitShot(shot, 400, 300), quma::FatalError);
    setLogQuiet(false);
}

TEST(Mdu, ResetDropsPendingShotAndArmedTrigger)
{
    Mdu mdu(calibrateMdu(cleanReadout(), 1500), 100);
    Rng rng(1);
    mdu.submitShot(qsim::sampleReadoutShot(false, 1500, 1e12, rng), 0,
                   300);
    mdu.reset();
    EXPECT_FALSE(mdu.hasPendingShot());
    mdu.discriminate(0, 1, 0x1);
    mdu.reset();
    EXPECT_FALSE(mdu.armed());
    EXPECT_FALSE(mdu.nextEventCycle().has_value());
}

// ------------------------------------------------- integrated-domain shots

/**
 * A sigma = 0 |1> trace that decays exactly at `at_ns`: its first draw
 * is the decay uniform u, so T1 = at / -log(1 - u), nudged by ulps
 * (and over seeds, where rounding steps past `at_ns`) to hit it.
 */
qsim::ReadoutTrace
traceDecayingAt(const qsim::ReadoutParams &rp, TimeNs window, double at_ns)
{
    for (std::uint64_t seed = 1; seed < 64; ++seed) {
        Rng probe(seed);
        double tail = -std::log(1.0 - probe.uniform());
        double t1 = at_ns / tail;
        for (int i = 0; i < 4 && t1 * tail != at_ns; ++i)
            t1 = std::nextafter(t1, t1 * tail < at_ns ? 2.0 * t1 : 0.0);
        if (t1 * tail != at_ns)
            continue;
        Rng rng(seed);
        return qsim::simulateReadout(rp, true, window, t1, rng);
    }
    ADD_FAILURE() << "no seed decays exactly at " << at_ns;
    return {};
}

/** The shot a trace stands for (noise irrelevant at sigma = 0). */
qsim::ReadoutShot
shotOf(const qsim::ReadoutTrace &t, TimeNs duration_ns)
{
    qsim::ReadoutShot shot;
    shot.initialOne = t.initialOne;
    shot.finalOne = t.finalOne;
    shot.decayAtNs = t.decayAtNs;
    shot.durationNs = duration_ns;
    return shot;
}

TEST(MduShot, NoiselessMeanMatchesTraceIntegral)
{
    // The prefix-sum mean against integrate() over the sigma = 0 trace
    // the shot stands for: both states, decay at interior instants and
    // exactly on sample-centre boundaries (k + 0.5) * 5 ns, and
    // windows shorter than, equal to and longer than the calibration.
    qsim::ReadoutParams skewed = cleanReadout();
    skewed.c0 = {30.0, 12.0};
    skewed.c1 = {-22.0, 7.5};
    skewed.ifHz = 37.0e6;
    const double boundaries[] = {2.5, 7.5, 502.5, 997.5, 1497.5};
    const double interior[] = {0.1, 3.0, 499.99, 1000.01, 1499.9};
    std::size_t compared = 0;
    for (const qsim::ReadoutParams &rp : {cleanReadout(), skewed}) {
        Mdu mdu(calibrateMdu(rp, 1500));
        for (TimeNs window : {TimeNs{1000}, TimeNs{1500}, TimeNs{2000}}) {
            auto check = [&](const qsim::ReadoutTrace &t) {
                auto [want, wantBit] = mdu.integrate(t.trace);
                auto [got, gotBit] = mdu.integrate(shotOf(t, window));
                EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::abs(want)))
                    << "window " << window << " one " << t.initialOne
                    << " decay " << t.decayAtNs;
                EXPECT_EQ(gotBit, wantBit);
                ++compared;
            };
            Rng rng(11);
            check(qsim::simulateReadout(rp, false, window, 1e12, rng));
            Rng never(12);
            auto stays = qsim::simulateReadout(rp, true, window, 0.0, never);
            EXPECT_LT(stays.decayAtNs, 0.0);
            check(stays);
            for (const double *set : {boundaries, interior}) {
                for (int i = 0; i < 5; ++i) {
                    double at = set[i];
                    if (at >= static_cast<double>(window))
                        continue;
                    auto t = traceDecayingAt(rp, window, at);
                    EXPECT_EQ(t.decayAtNs, at);
                    check(t);
                }
            }
        }
    }
    EXPECT_EQ(compared, 2u * (3 * 2 + 7 + 10 + 10));
}

/** Two-sample Kolmogorov-Smirnov statistic. */
double
ksStatistic(std::vector<double> a, std::vector<double> b)
{
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::size_t i = 0, j = 0;
    double d = 0.0;
    while (i < a.size() && j < b.size()) {
        double x = std::min(a[i], b[j]);
        while (i < a.size() && a[i] == x)
            ++i;
        while (j < b.size() && b[j] == x)
            ++j;
        d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                                 static_cast<double>(j) / b.size()));
    }
    return d;
}

TEST(MduShot, MatchesTraceThenIntegrateDistribution)
{
    // Trace-then-integrate vs the one-draw shot, per initial state,
    // with T1 short enough that |1> usually decays inside the window
    // (so the mixture of decay instants is exercised, not just the
    // two pure tones).
    auto rp = qsim::paperQubitParams().readout;
    const TimeNs window = 1500;
    const double t1 = 1000.0;
    const std::size_t shots = 10000;
    Mdu mdu(calibrateMdu(rp, window));
    for (bool one : {false, true}) {
        Rng traceRng(one ? 21 : 20), shotRng(one ? 31 : 30);
        std::vector<double> viaTrace, viaShot;
        std::size_t decayed = 0;
        for (std::size_t s = 0; s < shots; ++s) {
            auto t = qsim::simulateReadout(rp, one, window, t1, traceRng);
            viaTrace.push_back(mdu.integrate(t.trace).first);
            auto shot = qsim::sampleReadoutShot(one, window, t1, shotRng);
            decayed += shot.initialOne && !shot.finalOne;
            viaShot.push_back(mdu.integrate(shot).first);
        }
        if (one) {
            EXPECT_GT(decayed, shots / 2);
        }
        // Critical value at alpha = 0.001: 1.949 * sqrt(2 / shots).
        double critical = 1.949 * std::sqrt(2.0 / shots);
        EXPECT_LT(ksStatistic(viaTrace, viaShot), critical)
            << "initial |" << one << ">";
    }
}

// --------------------------------------------------------- digital output

TEST(DigitalOutput, RaisesMarkersForMask)
{
    DigitalOutputUnit dig(8, 6.849e9);
    std::vector<std::pair<unsigned, signal::MeasurementPulse>> pulses;
    dig.setPulseSink([&](unsigned q, const signal::MeasurementPulse &p) {
        pulses.emplace_back(q, p);
    });
    dig.fire(0b101, 100, 300);
    dig.advanceTo(100);
    ASSERT_EQ(pulses.size(), 2u);
    EXPECT_EQ(pulses[0].first, 0u);
    EXPECT_EQ(pulses[1].first, 2u);
    EXPECT_EQ(pulses[0].second.t0Ns, 500);
    EXPECT_EQ(pulses[0].second.durationNs, 1500);
    ASSERT_EQ(dig.markers().size(), 2u);
    EXPECT_EQ(dig.markers()[0],
              (MarkerWindow{0, 100, 300}));
}

TEST(DigitalOutput, DeliveryIsScheduled)
{
    DigitalOutputUnit dig;
    int delivered = 0;
    dig.setPulseSink(
        [&](unsigned, const signal::MeasurementPulse &) {
            ++delivered;
        });
    dig.fire(0x1, 500, 300);
    EXPECT_EQ(*dig.nextEventCycle(), 500u);
    dig.advanceTo(499);
    EXPECT_EQ(delivered, 0);
    dig.advanceTo(500);
    EXPECT_EQ(delivered, 1);
    EXPECT_FALSE(dig.nextEventCycle().has_value());
}

TEST(DigitalOutput, RejectsZeroDuration)
{
    setLogQuiet(true);
    DigitalOutputUnit dig;
    EXPECT_THROW(dig.fire(0x1, 0, 0), quma::FatalError);
    setLogQuiet(false);
}

// ---------------------------------------------------------- data collector

TEST(DataCollector, RoundRobinBinning)
{
    DataCollectionUnit dcu;
    dcu.configure(3);
    // Two rounds: bins get (1,4), (2,5), (3,6).
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
        dcu.addSample(v);
    EXPECT_EQ(dcu.completedRounds(), 2u);
    auto avg = dcu.averages();
    ASSERT_EQ(avg.size(), 3u);
    EXPECT_DOUBLE_EQ(avg[0], 2.5);
    EXPECT_DOUBLE_EQ(avg[1], 3.5);
    EXPECT_DOUBLE_EQ(avg[2], 4.5);
}

TEST(DataCollector, PartialRound)
{
    DataCollectionUnit dcu;
    dcu.configure(2);
    dcu.addSample(10.0);
    dcu.addSample(20.0);
    dcu.addSample(30.0);
    auto avg = dcu.averages();
    EXPECT_DOUBLE_EQ(avg[0], 20.0);
    EXPECT_DOUBLE_EQ(avg[1], 20.0);
    EXPECT_EQ(dcu.completedRounds(), 1u);
}

TEST(DataCollector, BitAverages)
{
    DataCollectionUnit dcu;
    dcu.configure(2);
    dcu.addBit(true);
    dcu.addBit(false);
    dcu.addBit(true);
    dcu.addBit(false);
    auto avg = dcu.bitAverages();
    EXPECT_DOUBLE_EQ(avg[0], 1.0);
    EXPECT_DOUBLE_EQ(avg[1], 0.0);
}

TEST(DataCollector, UnconfiguredIsFatal)
{
    setLogQuiet(true);
    DataCollectionUnit dcu;
    EXPECT_THROW(dcu.addSample(1.0), quma::PanicError);
    setLogQuiet(false);
}

} // namespace
} // namespace quma::measure

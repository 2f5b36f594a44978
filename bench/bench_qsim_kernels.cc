/**
 * @file
 * Micro-benchmarks of the qsim hot-path kernels introduced by the
 * zero-allocation overhaul: fused density-matrix conjugations, the
 * closed-form idle (T1/T2) channel against the generic Kraus path it
 * replaced, the diagonal-gate fast paths against full conjugations,
 * the phasor-recurrence signal chain against direct per-sample
 * sin/cos evaluation, and the integrated-domain readout shot against
 * the trace it stands for. The stored-coefficient idle and the
 * probability-plus-projection rows are the forms a replayed round
 * calls. Prints a fixed-width table and, with
 * `--json <path>`, writes the machine-readable BENCH_qsim.json used to
 * track the kernel perf trajectory across PRs.
 *
 * `--smoke` runs every kernel exactly once (no timing claims): the
 * perf_smoke ctest label uses it to catch bit-rot in Debug builds.
 */

#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <numbers>
#include <string>

#include "bench/report.hh"
#include "common/rng.hh"
#include "measure/mdu.hh"
#include "qsim/channels.hh"
#include "qsim/density.hh"
#include "qsim/readout.hh"
#include "qsim/transmon.hh"
#include "signal/envelope.hh"
#include "signal/modulation.hh"

using namespace quma;

namespace {

bool g_smoke = false;
// Prevent the optimiser from discarding benchmark results.
volatile double benchmarkSink = 0.0;

/** Mean ns/op over enough iterations to fill a small time budget. */
template <class F>
double
timeNs(F &&body, std::size_t iters)
{
    if (g_smoke)
        iters = 1;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        body();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(iters);
}

void
report(bench::JsonReport &json, const char *name, double ns,
       double reference_ns = 0.0)
{
    if (reference_ns > 0.0)
        std::printf("%-36s %10.1f ns/op  (generic %10.1f ns, %5.1fx)\n",
                    name, ns, reference_ns, reference_ns / ns);
    else
        std::printf("%-36s %10.1f ns/op\n", name, ns);
    json.metric(name, ns, "ns/op");
}

/** A non-trivial mixed state to run kernels on. */
qsim::DensityMatrix
testState(unsigned nq)
{
    qsim::DensityMatrix rho(nq);
    for (unsigned q = 0; q < nq; ++q) {
        rho.apply1(q, qsim::gates::hadamard());
        rho.applyKraus1(q, qsim::depolarizing(0.05));
    }
    return rho;
}

void
benchDensity(bench::JsonReport &json)
{
    bench::banner("density-matrix kernels");
    for (unsigned nq : {1u, 2u, 4u, 6u}) {
        qsim::DensityMatrix rho = testState(nq);
        auto chan = qsim::idleChannel(100.0, 30000.0, 25000.0);
        auto icp = qsim::idleChannelParams(100.0, 30000.0, 25000.0);
        std::size_t iters = 400000 >> (2 * nq);
        // Each decaying row starts from a fresh state: a state idled
        // through the rows before it would reach subnormal entries,
        // whose arithmetic is many times slower.
        double generic = timeNs(
            [&] { rho.applyKraus1(0, chan); }, iters);
        rho = testState(nq);
        double closed = timeNs(
            [&] { rho.applyIdle(0, icp.gamma, icp.lambda); }, iters);
        std::string label = "idle_closed_form_nq" + std::to_string(nq);
        report(json, label.c_str(), closed, generic);
        json.metric("idle_generic_kraus_nq" + std::to_string(nq),
                    generic, "ns/op");
        // The replay form: factors computed once, the sweep alone.
        const qsim::IdleCoeffs coeffs =
            qsim::DensityMatrix::idleCoeffs(icp.gamma, icp.lambda);
        rho = testState(nq);
        double stored = timeNs([&] { rho.applyIdle(0, coeffs); }, iters);
        report(json, ("idle_stored_coeffs_nq" + std::to_string(nq)).c_str(),
               stored);

        double h = timeNs(
            [&] { rho.apply1(0, qsim::gates::hadamard()); }, iters);
        report(json, ("apply1_fused_nq" + std::to_string(nq)).c_str(),
               h);

        auto rz = qsim::gates::rz(0.137);
        double rzFull = timeNs([&] { rho.apply1(0, rz); }, iters);
        double rzFast = timeNs([&] { rho.applyRz(0, 0.137); }, iters);
        report(json, ("rz_fast_path_nq" + std::to_string(nq)).c_str(),
               rzFast, rzFull);

        if (nq >= 2) {
            auto cz = qsim::gates::cz();
            double czFull =
                timeNs([&] { rho.apply2(1, 0, cz); }, iters);
            double czFast =
                timeNs([&] { rho.applyCzPhase(1, 0); }, iters);
            report(json,
                   ("cz_fast_path_nq" + std::to_string(nq)).c_str(),
                   czFast, czFull);
        }

        // A readout's state update: the outcome probability, then the
        // projection onto the likelier outcome (after the first call
        // the same one every time, so every call does the same work).
        double project = timeNs(
            [&] {
                double p1 = rho.probabilityOne(0);
                benchmarkSink = p1;
                rho.project(0, p1 >= 0.5);
            },
            iters);
        report(json, ("measure_project_nq" + std::to_string(nq)).c_str(),
               project);
    }
}

void
benchSignalChain(bench::JsonReport &json)
{
    bench::banner("signal demodulation chain");
    auto rp = qsim::paperQubitParams().readout;
    Rng rng(0x9b1d);

    double readout = timeNs(
        [&] {
            auto t = qsim::simulateReadout(rp, false, 1500, 30000.0, rng);
            (void)t;
        },
        4000);
    report(json, "simulate_readout_1500ns", readout);

    double mduCal = timeNs(
        [&] {
            auto c = measure::calibrateMdu(rp, 1500);
            (void)c;
        },
        4000);
    report(json, "calibrate_mdu_1500ns", mduCal);

    // One readout as the machine takes it (a trace-free shot and its
    // closed-form integral) against synthesising and integrating the
    // trace it stands for.
    measure::Mdu mdu(measure::calibrateMdu(rp, 1500));
    double viaTrace = timeNs(
        [&] {
            auto t = qsim::simulateReadout(rp, true, 1500, 30000.0, rng);
            benchmarkSink = mdu.integrate(t.trace).first;
        },
        4000);
    double viaShot = timeNs(
        [&] {
            auto shot = qsim::sampleReadoutShot(true, 1500, 30000.0, rng);
            benchmarkSink = mdu.integrate(shot).first;
        },
        400000);
    report(json, "readout_shot_1500ns", viaShot, viaTrace);

    auto trace = qsim::simulateReadout(rp, true, 1500, 30000.0, rng);
    const double twoPi = 2.0 * std::numbers::pi;
    double direct = timeNs(
        [&] {
            // Direct sin/cos reference for the demodulator.
            double dt_ns = 1e9 / trace.trace.rateHz();
            std::complex<double> acc{0.0, 0.0};
            for (std::size_t k = 0; k < trace.trace.size(); ++k) {
                double t_s =
                    ((static_cast<double>(k) + 0.5) * dt_ns) * 1e-9;
                double arg = twoPi * rp.ifHz * t_s;
                acc += trace.trace[k] *
                       std::complex<double>(std::cos(arg),
                                            -std::sin(arg));
            }
            if (!trace.trace.empty())
                acc *= 2.0 / static_cast<double>(trace.trace.size());
            benchmarkSink = acc.real();
        },
        4000);
    double phasor = timeNs(
        [&] {
            auto z = signal::demodulate(trace.trace, rp.ifHz);
            benchmarkSink = z.real();
        },
        4000);
    report(json, "demodulate_300_samples", phasor, direct);

    double gauss = timeNs([&] { benchmarkSink = rng.gaussian(); },
                          2000000);
    report(json, "rng_gaussian", gauss);

    signal::Envelope env = signal::Envelope::gaussian(20.0, 1.0);
    signal::Waveform wf(env.sample(kAwgSampleRateHz), kAwgSampleRateHz);
    double ssb = timeNs(
        [&] {
            auto p = signal::ssbModulate(wf, -50e6, 0.0, 0.0);
            benchmarkSink = p.first[0];
        },
        40000);
    report(json, "ssb_modulate_20_samples", ssb);

    signal::DrivePulse pulse;
    auto [i, q] = signal::ssbModulate(wf, -50e6, 0.0, 0.0);
    pulse.t0Ns = 0;
    pulse.i = i;
    pulse.q = q;
    pulse.ssbHz = -50e6;
    pulse.carrierHz = 6.466e9 + 50e6;
    qsim::TransmonChip chip({qsim::paperQubitParams()});
    double drive = timeNs(
        [&] {
            chip.newRound();
            chip.applyDrive(0, pulse);
        },
        20000);
    report(json, "apply_drive_20_samples", drive);
}

} // namespace

int
main(int argc, char **argv)
{
    g_smoke = bench::argFlag(argc, argv, "--smoke");
    std::string jsonPath = bench::argValue(argc, argv, "--json");

    bench::JsonReport json("qsim_kernels");
    if (g_smoke)
        std::printf("(smoke mode: single iteration, timings "
                    "meaningless)\n");

    benchDensity(json);
    benchSignalChain(json);
    bench::rule();

    return json.writeTo(jsonPath) ? 0 : 1;
}

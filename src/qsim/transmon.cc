#include "qsim/transmon.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "qsim/channels.hh"
#include "signal/envelope.hh"
#include "signal/phasor.hh"

namespace quma::qsim {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/** TransmonChip::staticFrame of a qubit with these params. */
bool
staticFrameOf(const TransmonParams &p)
{
    return !(p.quasiStaticDetuningSigmaHz > 0);
}
} // namespace

TransmonChip::TransmonChip(std::vector<TransmonParams> qubit_params,
                           std::uint64_t seed)
    : params(std::move(qubit_params)),
      idleMemo(params.size()),
      roundDetuningHz(params.size(), 0.0),
      busyUntilNs(params.size(), 0),
      rho(params.empty() ? 1 : static_cast<unsigned>(params.size())),
      random(seed)
{
    if (params.empty())
        fatal("TransmonChip needs at least one qubit");
    for (auto &p : params) {
        if (p.rabiRadPerAmpNs == 0.0)
            p.rabiRadPerAmpNs = standardRabiGain();
        if (p.t2Ns > 2.0 * p.t1Ns)
            fatal("TransmonChip: T2 must be <= 2 * T1");
    }
}

const TransmonParams &
TransmonChip::qubitParams(unsigned q) const
{
    quma_assert(q < params.size(), "qubit index out of range");
    return params[q];
}

void
TransmonChip::reseed(std::uint64_t seed)
{
    random.reseed(seed);
    rho.reset();
    nowNs = 0;
    for (std::size_t q = 0; q < params.size(); ++q) {
        busyUntilNs[q] = 0;
        roundDetuningHz[q] = 0.0;
    }
}

void
TransmonChip::newRound()
{
    rho.reset();
    nowNs = 0;
    for (unsigned q = 0; q < params.size(); ++q) {
        busyUntilNs[q] = 0;
        roundDetuningHz[q] =
            staticFrame(q)
                ? 0.0
                : random.gaussian(0.0, params[q].quasiStaticDetuningSigmaHz);
    }
}

void
TransmonChip::idleEvolve(TimeNs from_ns, TimeNs to_ns)
{
    if (to_ns <= from_ns)
        return;
    for (unsigned q = 0; q < params.size(); ++q) {
        // The portion of the interval inside the qubit's readout
        // window is already accounted for by the sampled shot.
        TimeNs start = std::max(from_ns, busyUntilNs[q]);
        if (start >= to_ns)
            continue;
        if (kernelSink)
            kernelSink->idle(q, to_ns - start);
        applyIdle(q, idleCoeffs(q, static_cast<double>(to_ns - start)));
    }
}

IdleCoeffs
TransmonChip::idleCoeffs(unsigned q, double dt_ns)
{
    // Closed-form T1/T2 update fused with the quasi-static detuning
    // frame rotation: one allocation-free sweep instead of a generic
    // Kraus application plus an rz conjugation.
    double phase = kTwoPi * roundDetuningHz[q] * dt_ns * 1e-9;
    auto phaseBits = std::bit_cast<std::uint64_t>(phase);
    IdleMemo &memo = idleMemo[q];
    for (const IdleMemo::Entry &e : memo.entry)
        if (e.dtNs == dt_ns && e.phaseBits == phaseBits)
            return e.coeffs;
    IdleMemo::Entry &e = memo.entry[memo.victim];
    memo.victim ^= 1;
    IdleChannelParams channel =
        idleChannelParams(dt_ns, params[q].t1Ns, params[q].t2Ns);
    e.dtNs = dt_ns;
    e.phaseBits = phaseBits;
    e.coeffs = DensityMatrix::idleCoeffs(channel.gamma, channel.lambda,
                                         phase);
    return e.coeffs;
}

void
TransmonChip::advanceTo(TimeNs t_ns)
{
    if (t_ns < nowNs)
        fatal("TransmonChip::advanceTo: time moved backwards (now ",
              nowNs, " ns, requested ", t_ns, " ns)");
    idleEvolve(nowNs, t_ns);
    nowNs = t_ns;
}

void
TransmonChip::advanceAtLeast(TimeNs t_ns)
{
    if (t_ns > nowNs)
        advanceTo(t_ns);
}

void
TransmonChip::applyDrive(unsigned q, const signal::DrivePulse &pulse)
{
    DriveGate gate = driveGate(q, pulse);
    advanceAtLeast(gate.midNs);
    if (kernelSink)
        kernelSink->rotate(q, gate);
    rotate(q, gate);
    advanceAtLeast(gate.endNs);
}

DriveGate
TransmonChip::driveGate(unsigned q, const signal::DrivePulse &pulse) const
{
    quma_assert(q < params.size(), "qubit index out of range");
    quma_assert(pulse.i.size() == pulse.q.size(),
                "DrivePulse I/Q length mismatch");

    DriveGate gate;
    auto dur = static_cast<TimeNs>(std::llround(pulse.durationNs()));
    gate.midNs = pulse.t0Ns + dur / 2;
    gate.endNs = pulse.t0Ns + dur;

    // Demodulate the complex baseband against the qubit's nominal
    // rotating frame. A quasi-static detuning enters only through
    // idleCoeffs, which precesses the qubit in this same frame;
    // counting it here too would dephase a Ramsey at twice sigma.
    const TransmonParams &p = params[q];
    double f_rot = p.freqHz - pulse.carrierHz;
    double dt_ns = 1e9 / pulse.i.rateHz();
    // Incremental phasor over the uniform sample grid: one complex
    // multiply per sample instead of a sincos. The frame rotates at
    // -f_rot relative to the baseband samples.
    signal::Phasor ph = signal::gridPhasor(
        -f_rot, static_cast<double>(pulse.t0Ns), dt_ns);
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t k = 0; k < pulse.i.size(); ++k) {
        acc += std::complex<double>{pulse.i[k], pulse.q[k]} * ph.value();
        ph.advance();
    }
    acc *= dt_ns;

    double theta = p.rabiRadPerAmpNs * std::abs(acc);
    if (theta > 1e-12) {
        double phi = std::arg(acc);
        gate.rotation = gates::raxis(phi, theta);
        gate.adjoint = adjoint(gate.rotation);
        gate.rotates = true;
    }
    return gate;
}

void
TransmonChip::rotate(unsigned q, const DriveGate &gate)
{
    if (gate.rotates)
        rho.apply1(q, gate.rotation, gate.adjoint);
}

bool
TransmonChip::staticFrame(unsigned q) const
{
    return staticFrameOf(qubitParams(q));
}

void
TransmonChip::applyCz(unsigned a, unsigned b, TimeNs t0_ns,
                      TimeNs duration_ns)
{
    quma_assert(a < params.size() && b < params.size() && a != b,
                "bad CZ operands");
    advanceAtLeast(t0_ns + duration_ns / 2);
    if (kernelSink)
        kernelSink->czPhase(a, b, t0_ns, duration_ns);
    czPhase(a, b);
    advanceAtLeast(t0_ns + duration_ns);
}

void
TransmonChip::czPhase(unsigned a, unsigned b)
{
    // CZ is diagonal: an O(n^2) sign sweep, not a 4x4 conjugation.
    rho.applyCzPhase(a, b);
}

ReadoutShot
TransmonChip::measure(unsigned q, TimeNs t0_ns, TimeNs duration_ns)
{
    quma_assert(q < params.size(), "qubit index out of range");
    if (t0_ns < busyUntilNs[q])
        fatal("overlapping readout on qubit ", q, ": window at ", t0_ns,
              " ns starts before the previous one ends (",
              busyUntilNs[q], " ns)");
    advanceAtLeast(t0_ns);
    // The measured qubit's evolution during the window is decided by
    // the sampled shot (T1 decay included); decoherence inside the
    // window is suppressed via busyUntilNs so it is not applied
    // twice. Other qubits idle normally as time advances.
    busyUntilNs[q] = t0_ns + duration_ns;
    if (kernelSink)
        kernelSink->readout(q, t0_ns, duration_ns);
    return readout(q, duration_ns);
}

ReadoutShot
TransmonChip::readout(unsigned q, TimeNs duration_ns)
{
    const TransmonParams &p = qubitParams(q);
    double p1 = rho.probabilityOne(q);
    bool outcome = random.bernoulli(std::clamp(p1, 0.0, 1.0));
    rho.project(q, outcome);

    ReadoutShot shot = sampleReadoutShot(outcome, duration_ns, p.t1Ns,
                                         random);
    if (shot.initialOne && !shot.finalOne)
        rho.resetQubit(q);

    // Quasi-static noise decorrelates between shots: redraw the slow
    // frequency offset after each readout (measurements delimit
    // experiment shots in a continuous run).
    if (!staticFrameOf(p))
        roundDetuningHz[q] = random.gaussian(0.0, p.quasiStaticDetuningSigmaHz);
    return shot;
}

double
TransmonChip::probabilityOne(unsigned q) const
{
    return rho.probabilityOne(q);
}

double
standardRabiGain(double pulse_ns)
{
    signal::Envelope env = signal::Envelope::gaussian(pulse_ns, 1.0);
    double area = env.area();
    quma_assert(area > 0, "degenerate calibration envelope");
    return std::numbers::pi / area;
}

TransmonParams
paperQubitParams()
{
    TransmonParams p;
    p.freqHz = 6.466e9;
    p.resonatorHz = 6.850e9;
    p.t1Ns = 30000.0;
    p.t2Ns = 25000.0;
    p.quasiStaticDetuningSigmaHz = 0.0;
    p.rabiRadPerAmpNs = standardRabiGain();
    p.readout.c0 = {30.0, 0.0};
    p.readout.c1 = {-30.0, 0.0};
    p.readout.noiseSigma = 150.0;
    p.readout.ifHz = 40.0e6;
    return p;
}

} // namespace quma::qsim

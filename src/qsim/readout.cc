#include "qsim/readout.hh"

#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "signal/phasor.hh"

namespace quma::qsim {

namespace {

/**
 * Exponential T1 decay instant inside a window of `duration_ns` (ns
 * from its start), or -1 when the qubit starts in |0> or survives the
 * window. Draws one uniform iff the qubit starts in |1> with T1 > 0.
 */
double
sampleDecayNs(bool initial_one, TimeNs duration_ns, double t1_ns, Rng &rng)
{
    if (duration_ns <= 0)
        fatal("readout: non-positive duration");
    if (!initial_one || t1_ns <= 0)
        return -1.0;
    double u = rng.uniform();
    double t = -t1_ns * std::log(1.0 - u);
    return t < static_cast<double>(duration_ns) ? t : -1.0;
}

} // namespace

ReadoutTrace
simulateReadout(const ReadoutParams &params, bool initial_one,
                TimeNs duration_ns, double t1_ns, Rng &rng)
{
    ReadoutTrace out;
    out.initialOne = initial_one;
    double decay_ns = sampleDecayNs(initial_one, duration_ns, t1_ns, rng);
    out.finalOne = initial_one && decay_ns < 0;
    out.decayAtNs = decay_ns;

    double dt_ns = 1e9 / params.adcRateHz;
    auto n = static_cast<std::size_t>(
        std::floor(static_cast<double>(duration_ns) / dt_ns));
    std::vector<double> samples(n);

    // IF tone via an incremental phasor: the per-sample value is
    // Re(c * exp(i*arg)), one complex multiply instead of a sincos.
    signal::Phasor ph = signal::gridPhasor(params.ifHz, 0.0, dt_ns);
    const double sigma = params.noiseSigma;
    for (std::size_t k = 0; k < n; ++k) {
        double t_ns = (static_cast<double>(k) + 0.5) * dt_ns;
        bool one = initial_one && (decay_ns < 0 || t_ns < decay_ns);
        std::complex<double> c = one ? params.c1 : params.c0;
        samples[k] = c.real() * ph.cosine() - c.imag() * ph.sine() +
                     sigma * rng.standardNormal();
        ph.advance();
    }
    out.trace = signal::Waveform(std::move(samples), params.adcRateHz);
    return out;
}

ReadoutShot
sampleReadoutShot(bool initial_one, TimeNs duration_ns, double t1_ns,
                  Rng &rng)
{
    ReadoutShot shot;
    shot.initialOne = initial_one;
    shot.decayAtNs = sampleDecayNs(initial_one, duration_ns, t1_ns, rng);
    shot.finalOne = initial_one && shot.decayAtNs < 0;
    shot.durationNs = duration_ns;
    shot.noise = rng.standardNormal();
    return shot;
}

} // namespace quma::qsim

#include "measure/mdu.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "signal/phasor.hh"

namespace quma::measure {

MduCalibration
calibrateMdu(const qsim::ReadoutParams &params, TimeNs window_ns)
{
    MduCalibration cal;
    double dt_ns = 1e9 / params.adcRateHz;
    auto n = static_cast<std::size_t>(
        std::floor(static_cast<double>(window_ns) / dt_ns));
    if (n == 0)
        fatal("calibrateMdu: window shorter than one ADC sample");

    cal.weights.resize(n);
    cal.sampleNs = dt_ns;
    cal.noiseSigma = params.noiseSigma;
    cal.prefix0.assign(n + 1, 0.0);
    cal.prefix1.assign(n + 1, 0.0);
    cal.prefixW2.assign(n + 1, 0.0);
    // Normalise so the |0>-|1> separation is independent of window
    // length (keeps thresholds comparable across durations).
    double scale = 1.0 / static_cast<double>(n);
    // The noiseless |0>/|1> responses are Re(c * exp(i*arg)) on a
    // uniform phase grid: generate the tone incrementally.
    signal::Phasor ph = signal::gridPhasor(params.ifHz, 0.0, dt_ns);
    for (std::size_t k = 0; k < n; ++k) {
        double co = ph.cosine(), si = ph.sine();
        ph.advance();
        double v0 = params.c0.real() * co - params.c0.imag() * si;
        double v1 = params.c1.real() * co - params.c1.imag() * si;
        double w = (v1 - v0) * scale;
        cal.weights[k] = w;
        cal.prefix0[k + 1] = cal.prefix0[k] + w * v0;
        cal.prefix1[k + 1] = cal.prefix1[k] + w * v1;
        cal.prefixW2[k + 1] = cal.prefixW2[k] + w * w;
    }
    cal.s0 = cal.prefix0[n];
    cal.s1 = cal.prefix1[n];
    cal.threshold = (cal.s0 + cal.s1) / 2.0;
    return cal;
}

Mdu::Mdu(MduCalibration calibration, Cycle latency_cycles)
    : Mdu(std::make_shared<const MduCalibration>(std::move(calibration)),
          latency_cycles)
{
}

Mdu::Mdu(std::shared_ptr<const MduCalibration> calibration,
         Cycle latency_cycles)
    : cal(std::move(calibration)), latency(latency_cycles)
{
    if (!cal || cal->weights.empty())
        fatal("Mdu needs a non-empty weight function");
}

void
Mdu::submitShot(const qsim::ReadoutShot &shot, Cycle td,
                Cycle duration_cycles)
{
    if (pendingShot)
        fatal("Mdu: a second measurement started before the previous "
              "MD trigger consumed its shot");
    PendingShot pending{shot, td, duration_cycles};
    if (armedTrigger) {
        ArmedTrigger trigger = *armedTrigger;
        armedTrigger.reset();
        process(pending, trigger);
    } else {
        pendingShot = pending;
    }
}

std::pair<double, bool>
Mdu::integrate(const signal::Waveform &trace) const
{
    double s = 0;
    std::size_t n = std::min(trace.size(), cal->weights.size());
    for (std::size_t k = 0; k < n; ++k)
        s += trace[k] * cal->weights[k];
    return {s, s > cal->threshold};
}

std::pair<double, bool>
Mdu::integrate(const qsim::ReadoutShot &shot)
{
    const double dt = cal->sampleNs;
    if (shot.durationNs != window.durationNs) {
        // The trace's sample count (simulateReadout's floor), clamped
        // to the weights exactly as integrate(trace) clamps.
        window.durationNs = shot.durationNs;
        window.samples = std::min(
            static_cast<std::size_t>(
                std::floor(static_cast<double>(shot.durationNs) / dt)),
            cal->weights.size());
        window.noiseScale =
            cal->noiseSigma * std::sqrt(cal->prefixW2[window.samples]);
    }
    const std::size_t n = window.samples;
    // Samples carrying the |1> tone: those centred before the decay
    // instant. Estimate, then settle with simulateReadout's own
    // comparison so boundary samples classify identically.
    std::size_t ones = 0;
    if (shot.initialOne && shot.decayAtNs < 0) {
        ones = n;
    } else if (shot.initialOne) {
        auto centredBefore = [&](std::size_t k) {
            return (static_cast<double>(k) + 0.5) * dt < shot.decayAtNs;
        };
        ones = std::min(
            n, static_cast<std::size_t>(
                   std::max(0.0, std::ceil(shot.decayAtNs / dt - 0.5))));
        while (ones < n && centredBefore(ones))
            ++ones;
        while (ones > 0 && !centredBefore(ones - 1))
            --ones;
    }
    const MduCalibration &c = *cal;
    double s = c.prefix1[ones] + (c.prefix0[n] - c.prefix0[ones]) +
               window.noiseScale * shot.noise;
    return {s, s > c.threshold};
}

void
Mdu::discriminate(Cycle td, RegIndex dest_reg, QubitMask qubit)
{
    if (inFlight || armedTrigger)
        fatal("Mdu: discrimination already in progress");
    ArmedTrigger trigger{td, dest_reg, qubit};
    if (pendingShot) {
        PendingShot pending = *pendingShot;
        pendingShot.reset();
        process(pending, trigger);
    } else {
        armedTrigger = trigger;
    }
}

void
Mdu::process(const PendingShot &pending, const ArmedTrigger &trigger)
{
    auto [s, bit] = integrate(pending.shot);
    MduResult r;
    r.s = s;
    r.bit = bit;
    r.destReg = trigger.destReg;
    r.qubit = trigger.qubit;
    // The result is available after the integration window has been
    // captured plus the (fixed) discrimination pipeline latency.
    Cycle windowEnd =
        std::max(trigger.td, pending.td + pending.durationCycles);
    r.completionCycle = windowEnd + latency;
    inFlight = r;
}

std::optional<Cycle>
Mdu::nextEventCycle() const
{
    if (!inFlight)
        return std::nullopt;
    return inFlight->completionCycle;
}

void
Mdu::advanceTo(Cycle now)
{
    if (inFlight && inFlight->completionCycle <= now) {
        MduResult r = *inFlight;
        inFlight.reset();
        ++done;
        if (resultSink)
            resultSink(r);
    }
}

void
Mdu::reset()
{
    pendingShot.reset();
    armedTrigger.reset();
    inFlight.reset();
    done = 0;
}

} // namespace quma::measure

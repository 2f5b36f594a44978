/**
 * @file
 * Measurement discrimination unit (paper §4.2.1, §5.1.2).
 *
 * Hardware-based discrimination with sub-microsecond latency: the
 * digitised readout trace Va(t) is integrated against a calibrated
 * weight function Wq(t),
 *
 *     Sq = sum_t Va(t) * Wq(t),    Mq = (Sq > Tq) ? 1 : 0,
 *
 * and the binary result is written back for feedback control. The
 * integration result Sq also feeds the data collection unit for
 * ensemble averaging.
 *
 * On the machine path the trace is never synthesised: Sq is linear in
 * the trace's i.i.d. gaussian noise, so it is exactly gaussian, and
 * the MDU draws it from prefix sums taken at calibration (see
 * Mdu::integrate(const qsim::ReadoutShot &)). integrate() over an
 * explicit trace stays as the reference the shot path is tested
 * against.
 */

#ifndef QUMA_MEASURE_MDU_HH
#define QUMA_MEASURE_MDU_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "qsim/readout.hh"
#include "signal/waveform.hh"

namespace quma::measure {

/** Calibrated discrimination data for one qubit. */
struct MduCalibration
{
    /** Integration weights at the ADC sample rate. */
    std::vector<double> weights;
    /** Decision threshold on the integration result. */
    double threshold = 0.0;
    /** Expected S for |0> and |1> (diagnostics / rescaling). */
    double s0 = 0.0;
    double s1 = 0.0;
    /** ADC sample spacing the weights are laid out on (ns). */
    double sampleNs = 0.0;
    /** Per-sample noise std-dev of the calibrated readout. */
    double noiseSigma = 0.0;
    /**
     * Prefix sums over the first k samples (k = 0..weights.size()) of
     * w*v0 and w*v1 -- the weights against the noiseless |0>/|1>
     * tones -- and of w^2.
     */
    std::vector<double> prefix0, prefix1, prefixW2;
};

/**
 * Build a matched filter for the given readout response: weights
 * proportional to the difference of the noiseless |1> and |0>
 * responses over the window, threshold midway between the two
 * expected integration results. Also records the prefix sums that
 * let a ReadoutShot be integrated without its trace.
 */
MduCalibration calibrateMdu(const qsim::ReadoutParams &params,
                            TimeNs window_ns);

/** Result of one discrimination. */
struct MduResult
{
    double s = 0.0;
    bool bit = false;
    RegIndex destReg = 0;
    QubitMask qubit = 0;
    /** TD cycle at which the result becomes architecturally visible. */
    Cycle completionCycle = 0;
};

/**
 * One measurement discrimination unit instance (per qubit).
 *
 * Event-driven usage: the machine deposits the readout shot when the
 * measurement pulse fires, the MD event starts discrimination, and
 * the result is delivered after the integration window plus the
 * discrimination latency.
 */
class Mdu
{
  public:
    using ResultSink = std::function<void(const MduResult &)>;

    Mdu(MduCalibration calibration, Cycle latency_cycles = 100);
    /**
     * Share an immutable calibration: the runtime's program cache
     * hands every pooled machine with the same readout the same one.
     */
    Mdu(std::shared_ptr<const MduCalibration> calibration,
        Cycle latency_cycles = 100);

    const MduCalibration &calibration() const { return *cal; }
    Cycle latencyCycles() const { return latency; }

    void setResultSink(ResultSink sink) { resultSink = std::move(sink); }

    /** Deposit the readout shot of an in-flight measurement. */
    void submitShot(const qsim::ReadoutShot &shot, Cycle td,
                    Cycle duration_cycles);

    /** True while a submitted shot awaits its MD trigger. */
    bool hasPendingShot() const { return pendingShot.has_value(); }

    /**
     * MD trigger. If the readout shot has already arrived it is
     * integrated immediately; otherwise the discriminator is ARMED
     * and fires when submitShot delivers the window (the MD trigger
     * and the measurement pulse fire at the same timing label, but
     * the analog path has its own latency).
     */
    void discriminate(Cycle td, RegIndex dest_reg, QubitMask qubit);

    /** True while an MD trigger awaits its shot. */
    bool armed() const { return armedTrigger.has_value(); }

    /** Synchronous discrimination of an arbitrary trace (no events). */
    std::pair<double, bool> integrate(const signal::Waveform &trace) const;

    /**
     * Synchronous discrimination of a shot: S drawn from the exact
     * distribution integrate() has over the shot's trace,
     *
     *     S = P1[K] + (P0[n] - P0[K]) + sigma * sqrt(W2[n]) * z,
     *
     * with n the window's sample count (clamped to the weights, as
     * integrate() clamps), K the samples centred before the decay
     * instant (0 for |0>, n without decay) and z the shot's noise.
     * Assumes the calibration matches the readout that produced the
     * shot, as the machine's does. n and sigma * sqrt(W2[n]) are
     * recomputed only when the window length changes.
     */
    std::pair<double, bool> integrate(const qsim::ReadoutShot &shot);

    std::optional<Cycle> nextEventCycle() const;
    void advanceTo(Cycle now);

    std::size_t discriminationsDone() const { return done; }

    /**
     * Drop any pending shot / armed trigger / in-flight result and
     * zero the counters; the calibration is preserved (machine
     * re-arm).
     */
    void reset();

  private:
    std::shared_ptr<const MduCalibration> cal;
    Cycle latency;
    ResultSink resultSink;

    struct PendingShot
    {
        qsim::ReadoutShot shot;
        Cycle td;
        Cycle durationCycles;
    };
    struct ArmedTrigger
    {
        Cycle td;
        RegIndex destReg;
        QubitMask qubit;
    };

    void process(const PendingShot &pending, const ArmedTrigger &trigger);

    /**
     * The last integrated shot's window: its sample count n and noise
     * scale sigma * sqrt(W2[n]), functions of the calibration and the
     * window length alone. A schedule reads out with one window
     * length, so they are computed once per length, not per shot.
     */
    struct Window
    {
        TimeNs durationNs = -1;
        std::size_t samples = 0;
        double noiseScale = 0.0;
    };
    Window window;

    std::optional<PendingShot> pendingShot;
    std::optional<ArmedTrigger> armedTrigger;
    std::optional<MduResult> inFlight;
    std::size_t done = 0;
};

} // namespace quma::measure

#endif // QUMA_MEASURE_MDU_HH

/**
 * @file
 * Dispersive readout signal model.
 *
 * A measurement pulse probes the readout resonator; the transmitted
 * feedline signal is demodulated to an intermediate frequency (40 MHz
 * in the paper's setup) and digitised. The complex amplitude of the IF
 * tone depends on the qubit state; additive Gaussian noise and T1
 * decay during the readout window give a realistic readout fidelity
 * below one.
 */

#ifndef QUMA_QSIM_READOUT_HH
#define QUMA_QSIM_READOUT_HH

#include <complex>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "signal/waveform.hh"

namespace quma::qsim {

/** State-dependent IF response of one qubit's readout resonator. */
struct ReadoutParams
{
    /** Complex IF amplitude when the qubit is in |0>. */
    std::complex<double> c0{1.0, 0.0};
    /** Complex IF amplitude when the qubit is in |1>. */
    std::complex<double> c1{-1.0, 0.0};
    /** Std-dev of additive Gaussian noise per ADC sample. */
    double noiseSigma = 4.0;
    /** Intermediate (demodulated) frequency in Hz. */
    double ifHz = 40.0e6;
    /** ADC sampling rate for the digitised trace. */
    double adcRateHz = kAdcSampleRateHz;

    bool operator==(const ReadoutParams &) const = default;
};

/** A digitised readout trace plus ground-truth bookkeeping. */
struct ReadoutTrace
{
    /** IF trace as seen by the master controller's ADC. */
    signal::Waveform trace;
    /** True qubit state at the start of the readout window. */
    bool initialOne = false;
    /** True qubit state at the end of the window (after T1 decay). */
    bool finalOne = false;
    /** Decay instant within the window (ns from start), or -1. */
    double decayAtNs = -1.0;
};

/**
 * One readout reduced to what the MDU's integral depends on. The trace
 * simulateReadout synthesises is the |1> tone up to the decay instant,
 * the |0> tone after it, plus i.i.d. gaussian noise per sample; any
 * weighted sum of that noise is itself a single gaussian, so one
 * standard-normal draw stands in for the whole window's noise (see
 * Mdu::integrate(const ReadoutShot &)).
 */
struct ReadoutShot
{
    /** True qubit state at the start of the readout window. */
    bool initialOne = false;
    /** True qubit state at the end of the window (after T1 decay). */
    bool finalOne = false;
    /** Decay instant within the window (ns from start), or -1. */
    double decayAtNs = -1.0;
    /** Length of the readout window. */
    TimeNs durationNs = 0;
    /** Standard-normal draw scaling the integrated readout noise. */
    double noise = 0.0;
};

/**
 * Generate the digitised IF trace for one readout of one qubit.
 *
 * If the qubit starts in |1> it may decay during the window with the
 * exponential statistics of the supplied T1; the trace switches from
 * the |1> response to the |0> response at the decay instant. Draws
 * one uniform (decay instant, only for |1> with T1 > 0), then one
 * standard normal per ADC sample.
 *
 * The machine never builds a trace: this is the distributional
 * reference the integrated-domain shot is tested against.
 */
ReadoutTrace simulateReadout(const ReadoutParams &params, bool initial_one,
                             TimeNs duration_ns, double t1_ns, Rng &rng);

/**
 * Sample one readout in the integrated domain: the same decay draw as
 * simulateReadout, then a single standard normal for the noise.
 */
ReadoutShot sampleReadoutShot(bool initial_one, TimeNs duration_ns,
                              double t1_ns, Rng &rng);

} // namespace quma::qsim

#endif // QUMA_QSIM_READOUT_HH

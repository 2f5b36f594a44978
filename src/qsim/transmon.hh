/**
 * @file
 * Pulse-level transmon chip model.
 *
 * This stands in for the 10-transmon device of the paper's Figure 8.
 * Control fidelity is what matters for validating the
 * microarchitecture, so the model keeps exactly the sensitivities the
 * paper discusses:
 *
 *  - the rotation ANGLE is set by the integrated pulse envelope
 *    (amplitude errors show up as under/over-rotation);
 *  - the rotation AXIS is set by the SSB carrier phase at the global
 *    pulse start time (a 5 ns timing slip with 50 MHz SSB turns an x
 *    rotation into a y rotation, paper section 4.2.3);
 *  - detuned drives rotate less far and about a shifted axis;
 *  - idle periods decohere with T1 / T2;
 *  - readout includes additive noise and T1 decay during the window.
 */

#ifndef QUMA_QSIM_TRANSMON_HH
#define QUMA_QSIM_TRANSMON_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "qsim/channels.hh"
#include "qsim/density.hh"
#include "qsim/readout.hh"
#include "signal/pulse.hh"

namespace quma::qsim {

/** Static calibration data for one transmon. */
struct TransmonParams
{
    /** Qubit transition frequency (Hz); paper qubit 2: 6.466 GHz. */
    double freqHz = 6.466e9;
    /** Readout resonator fundamental (Hz); paper: 6.850 GHz. */
    double resonatorHz = 6.850e9;
    /** Relaxation time (ns). */
    double t1Ns = 30000.0;
    /** Markovian (echo) coherence time (ns); must be <= 2 * T1. */
    double t2Ns = 25000.0;
    /**
     * Std-dev (Hz) of a quasi-static per-round frequency offset.
     * Models low-frequency flux/charge noise: shortens the Ramsey
     * (T2*) decay but is refocused by an echo.
     */
    double quasiStaticDetuningSigmaHz = 0.0;
    /** Rotation angle per unit integrated envelope (rad / (amp * ns)). */
    double rabiRadPerAmpNs = 0.0;
    /** Readout response. */
    ReadoutParams readout;

    bool operator==(const TransmonParams &) const = default;
};

/**
 * What one drive pulse does to one qubit, computed apart from doing
 * it: the rotation its integrated envelope sets in the qubit's frame,
 * applied at the pulse midpoint, and the pulse end the chip then
 * idles to.
 */
struct DriveGate
{
    /** raxis(phi, theta) of the pulse integral. */
    Mat2 rotation{};
    /** adjoint(rotation), so applying the gate conjugates nothing. */
    Mat2 adjoint{};
    /** theta is above the no-op threshold: apply `rotation`. */
    bool rotates = false;
    TimeNs midNs = 0;
    TimeNs endNs = 0;

    bool operator==(const DriveGate &) const = default;
};

/**
 * Observer of the kernels a chip applies, told of each in call order
 * (TransmonChip::setKernelSink). The clock-driven entry points --
 * advanceTo, applyDrive, applyCz, measure -- report what they apply;
 * the clock-free kernels they call report nothing.
 */
class KernelSink
{
  public:
    virtual ~KernelSink() = default;
    /** Qubit q idled dt_ns: applyIdle(q, idleCoeffs(q, dt_ns)). */
    virtual void idle(unsigned q, TimeNs dt_ns) = 0;
    /** rotate(q, gate): the gate applyDrive computed, timing and all. */
    virtual void rotate(unsigned q, const DriveGate &gate) = 0;
    /** czPhase(a, b) of the CZ applyCz(a, b, t0_ns, duration_ns). */
    virtual void czPhase(unsigned a, unsigned b, TimeNs t0_ns,
                         TimeNs duration_ns) = 0;
    /** readout(q, duration_ns) of the window measure(q, t0_ns, ...). */
    virtual void readout(unsigned q, TimeNs t0_ns, TimeNs duration_ns) = 0;
};

/**
 * The quantum processor: a register of transmons behind a feedline.
 *
 * Simulated qubits are indexed 0..n-1; an experiment that addresses
 * the paper's "qubit 2" maps it to one of these slots at machine
 * configuration time.
 */
class TransmonChip
{
  public:
    TransmonChip(std::vector<TransmonParams> qubit_params,
                 std::uint64_t seed = 0x9b1d);

    unsigned numQubits() const
    {
        return static_cast<unsigned>(params.size());
    }
    const TransmonParams &qubitParams(unsigned q) const;

    /** Current simulation time (ns). */
    TimeNs now() const { return nowNs; }

    /**
     * Begin a new experiment round: reset all qubits to |0>, rewind
     * the clock and draw fresh quasi-static detunings.
     */
    void newRound();

    /**
     * Return the chip to its freshly-constructed state with the given
     * noise seed: all qubits in |0>, clock at zero, and the RNG
     * rewound so a subsequent run reproduces a fresh chip bit for
     * bit. Unlike newRound() this does NOT draw detunings (the next
     * newRound() performs the first draw, exactly as after
     * construction).
     */
    void reseed(std::uint64_t seed);

    // --- clock: the chip's time line, driving the kernels below ---

    /** Advance to an absolute time, applying idle decoherence. */
    void advanceTo(TimeNs t_ns);

    /** advanceTo that tolerates t_ns already being in the past. */
    void advanceAtLeast(TimeNs t_ns);

    /**
     * Apply a microwave drive pulse to qubit q. The pulse's I/Q
     * samples are interpreted in the qubit's nominal rotating frame
     * relative to the pulse's carrier; time is the global simulation time.
     * Exactly: gate = driveGate(q, pulse), idle to gate.midNs,
     * rotate(q, gate), idle to gate.endNs.
     */
    void applyDrive(unsigned q, const signal::DrivePulse &pulse);

    /**
     * Apply a two-qubit CZ between qubits a and b (idealised flux
     * pulse of the given duration): idle to its midpoint,
     * czPhase(a, b), idle to its end.
     */
    void applyCz(unsigned a, unsigned b, TimeNs t0_ns, TimeNs duration_ns);

    /**
     * Measure qubit q with a readout window starting at t0 lasting
     * duration_ns: reject a window overlapping the qubit's previous
     * one, idle to t0, suppress the qubit's idling inside the window,
     * then readout(q, duration_ns).
     */
    ReadoutShot measure(unsigned q, TimeNs t0_ns, TimeNs duration_ns);

    /** Report every kernel the clock applies to `sink` (null: none). */
    void setKernelSink(KernelSink *sink) { kernelSink = sink; }

    // --- kernels: clock-free, applied where the clock puts them ---

    /**
     * The factors of dt_ns of idling on qubit q in its current frame:
     * idleChannelParams(dt_ns, T1, T2) composed with the frame
     * rotation 2*pi*detuning*dt_ns. Pure in (dt_ns, phase), so a
     * two-entry memo per qubit serves the repeating intervals of a
     * schedule.
     */
    IdleCoeffs idleCoeffs(unsigned q, double dt_ns);

    /** One idle step on qubit q with the given factors. */
    void applyIdle(unsigned q, const IdleCoeffs &c)
    {
        rho.applyIdle(q, c);
    }

    /**
     * The gate `pulse` applies to qubit q: the pulse integral against
     * the qubit's nominal rotating frame (freqHz) and its rotation.
     * Reads only the qubit's params and the pulse, never the round's
     * detuning (idleCoeffs alone precesses a drifting qubit), so on
     * every frame it is the same on every shot.
     */
    DriveGate driveGate(unsigned q, const signal::DrivePulse &pulse) const;

    /** Apply the gate's rotation to qubit q (if it rotates at all). */
    void rotate(unsigned q, const DriveGate &gate);

    /** The CZ's diagonal phase on qubits a and b. */
    void czPhase(unsigned a, unsigned b);

    /**
     * Read qubit q out over a duration_ns window: project it, simulate
     * T1 decay during the window and return the readout as an
     * integrated-domain shot. Draws, in order: the projection
     * (bernoulli), the decay instant (one uniform, only for |1>), the
     * integrated noise (one standard normal), then the quasi-static
     * detuning redraw.
     */
    ReadoutShot readout(unsigned q, TimeNs duration_ns);

    /**
     * True when qubit q's rotating frame never moves: it has no
     * quasi-static detuning, so no draw ever shifts it and
     * idleCoeffs() of an interval is the same on every shot.
     * driveGate() is the same on every shot on any frame.
     */
    bool staticFrame(unsigned q) const;

    /** Qubit q's current quasi-static detuning (Hz; 0 on a static
     *  frame). */
    double detuningHz(unsigned q) const { return roundDetuningHz.at(q); }

    /** Probability of |1> right now (diagnostic; not a measurement). */
    double probabilityOne(unsigned q) const;

    /** Direct access for tests and fast-path experiments. */
    DensityMatrix &state() { return rho; }
    const DensityMatrix &state() const { return rho; }

    Rng &rng() { return random; }

  private:
    void idleEvolve(TimeNs from_ns, TimeNs to_ns);

    /** A qubit's two most recent distinct idle steps and their
     *  factors, keyed on (dt, phase bits); a schedule alternates
     *  between a long wait and short gate intervals, so one entry
     *  would miss on every change. dtNs < 0 means empty. */
    struct IdleMemo
    {
        struct Entry
        {
            double dtNs = -1.0;
            std::uint64_t phaseBits = 0;
            IdleCoeffs coeffs;
        };
        Entry entry[2];
        /** The entry the next miss overwrites. */
        unsigned victim = 0;
    };

    std::vector<TransmonParams> params;
    std::vector<IdleMemo> idleMemo;
    std::vector<double> roundDetuningHz;
    /**
     * End of each qubit's most recent readout window: its evolution
     * during the window is captured by the sampled shot, so idle
     * decoherence is suppressed until this time.
     */
    std::vector<TimeNs> busyUntilNs;
    DensityMatrix rho;
    Rng random;
    TimeNs nowNs = 0;
    KernelSink *kernelSink = nullptr;
};

/**
 * Default calibration: rabiRadPerAmpNs chosen so a unit-amplitude
 * 20 ns Gaussian (sigma 5 ns) rotates by pi.
 */
double standardRabiGain(double pulse_ns = 20.0);

/** Parameters mirroring the paper's measured qubit (qubit 2). */
TransmonParams paperQubitParams();

} // namespace quma::qsim

#endif // QUMA_QSIM_TRANSMON_HH

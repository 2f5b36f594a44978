/**
 * @file
 * Codeword-triggered pulse generation unit (paper §5.1.1).
 *
 * On receiving a codeword trigger the unit plays the stored pulse at
 * that lookup-table index through its DACs after a FIXED delay (80 ns
 * in the implemented control box). The fixed delay is what lets the
 * upper digital layers compose pulses purely by trigger timing.
 */

#ifndef QUMA_AWG_CTPG_HH
#define QUMA_AWG_CTPG_HH

#include <functional>
#include <optional>

#include "awg/wavememory.hh"
#include "common/heap.hh"
#include "signal/converters.hh"
#include "signal/pulse.hh"

namespace quma::awg {

/** Static configuration of one CTPG channel pair. */
struct CtpgConfig
{
    /** Trigger-to-output latency in cycles (80 ns / 5 ns = 16). */
    Cycle delayCycles = kCtpgDelayCycles;
    /** Upconversion carrier of the attached microwave source (Hz). */
    double carrierHz = 6.516e9;
    /** SSB frequency baked into the stored samples (Hz). */
    double ssbHz = -50.0e6;
    /** DAC resolution (paper: 14-bit DACs in each AWG). */
    unsigned dacBits = 14;
    /** DAC full-scale amplitude. */
    double dacFullScale = 1.0;
};

class Ctpg
{
  public:
    /**
     * Emitted pulse callback: the rendered analog pulse plus the
     * codeword and the qubit mask the trigger carried (simulation
     * plumbing so the machine can route the pulse to the chip).
     */
    using PulseSink = std::function<void(const signal::DrivePulse &,
                                         Codeword, QubitMask)>;

    explicit Ctpg(CtpgConfig config = {});

    const CtpgConfig &config() const { return cfg; }
    WaveMemory &waveMemory() { return memory; }
    const WaveMemory &waveMemory() const { return memory; }

    void setPulseSink(PulseSink sink) { pulseSink = std::move(sink); }

    /** Receive a codeword trigger at TD cycle `td`. */
    void trigger(Codeword cw, Cycle td, QubitMask mask);

    /** Cycle of the next pending pulse emission, if any. */
    std::optional<Cycle> nextEventCycle() const;

    /** Emit every pulse due at or before `now`. */
    void advanceTo(Cycle now);

    /** Number of pulses emitted so far. */
    std::size_t pulsesEmitted() const { return emitted; }

    /** Drop pending emissions and zero the counters (machine re-arm). */
    void reset();

  private:
    struct Pending
    {
        Cycle emitCycle;
        Codeword cw;
        QubitMask mask;
        std::uint64_t order; // FIFO tie-break for equal cycles

        bool
        operator>(const Pending &other) const
        {
            if (emitCycle != other.emitCycle)
                return emitCycle > other.emitCycle;
            return order > other.order;
        }
    };

    /** DAC-rendered I/Q of one stored pulse (immutable per upload). */
    struct Rendered
    {
        signal::Waveform i;
        signal::Waveform q;
    };

    /** Rendered pulse for a codeword, re-rendering only after uploads. */
    const Rendered &rendered(Codeword cw);

    CtpgConfig cfg;
    WaveMemory memory;
    signal::Dac dac;
    PulseSink pulseSink;
    /**
     * Render cache: stored samples and the DAC transfer function are
     * fixed between uploads, so each codeword is quantised once per
     * wave-memory version instead of on every trigger (the AllXY hot
     * loop fires thousands of triggers against a 7-entry LUT).
     */
    std::map<Codeword, Rendered> renderCache;
    std::uint64_t renderCacheVersion = 0;
    /**
     * Reused emission record: sinks receive it by const reference and
     * must not retain it past the callback (they don't -- the machine
     * routes it straight into the chip model).
     */
    signal::DrivePulse emitPulse;
    MinHeap<Pending> pending;
    std::uint64_t orderCounter = 0;
    std::size_t emitted = 0;
};

} // namespace quma::awg

#endif // QUMA_AWG_CTPG_HH

/**
 * @file
 * Digital output unit of the master controller (paper §7.1): converts
 * a measurement operation tuple (QAddr, D) into a '1' marker of D
 * cycles on the outputs masked by QAddr. Each marker gates a
 * pulse-modulated microwave source that produces the measurement
 * pulse for the addressed qubits.
 */

#ifndef QUMA_MEASURE_DIGITALOUTPUT_HH
#define QUMA_MEASURE_DIGITALOUTPUT_HH

#include <functional>
#include <optional>
#include <vector>

#include "common/heap.hh"
#include "common/types.hh"
#include "signal/pulse.hh"

namespace quma::measure {

/** A recorded marker window on one digital output. */
struct MarkerWindow
{
    unsigned output = 0;
    Cycle startCycle = 0;
    Cycle durationCycles = 0;

    bool operator==(const MarkerWindow &) const = default;
};

class DigitalOutputUnit
{
  public:
    /** Gated-source callback: measurement pulse for one qubit. */
    using PulseSink =
        std::function<void(unsigned qubit,
                           const signal::MeasurementPulse &)>;

    /**
     * @param num_outputs number of digital outputs (paper: 8)
     * @param msmt_carrier_hz the gated readout source (6.849 GHz)
     */
    explicit DigitalOutputUnit(unsigned num_outputs = 8,
                               double msmt_carrier_hz = 6.849e9);

    unsigned numOutputs() const { return outputs; }

    void setPulseSink(PulseSink sink) { pulseSink = std::move(sink); }

    /**
     * Schedule markers for the mask to rise at TD cycle `td` (which
     * may be in the future relative to the current machine cycle:
     * the measurement path's calibrated latency is applied by the
     * caller). Delivery happens in advanceTo so it stays ordered
     * with the other deterministic-domain events.
     */
    void fire(QubitMask mask, Cycle td, Cycle duration_cycles);

    std::optional<Cycle> nextEventCycle() const;
    void advanceTo(Cycle now);

    /** Every marker window raised so far (for trace reproduction). */
    const std::vector<MarkerWindow> &markers() const { return history; }
    void clearHistory() { history.clear(); }

    /** Drop pending markers and the history (machine re-arm). */
    void reset();

  private:
    struct Pending
    {
        Cycle cycle;
        unsigned qubit;
        Cycle durationCycles;
        std::uint64_t order;

        bool
        operator>(const Pending &other) const
        {
            if (cycle != other.cycle)
                return cycle > other.cycle;
            return order > other.order;
        }
    };

    unsigned outputs;
    double carrierHz;
    PulseSink pulseSink;
    std::vector<MarkerWindow> history;
    MinHeap<Pending> pending;
    std::uint64_t orderCounter = 0;
};

} // namespace quma::measure

#endif // QUMA_MEASURE_DIGITALOUTPUT_HH

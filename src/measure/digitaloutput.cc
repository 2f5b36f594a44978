#include "measure/digitaloutput.hh"

#include "common/logging.hh"

namespace quma::measure {

DigitalOutputUnit::DigitalOutputUnit(unsigned num_outputs,
                                     double msmt_carrier_hz)
    : outputs(num_outputs), carrierHz(msmt_carrier_hz)
{
    if (num_outputs == 0 || num_outputs > 32)
        fatal("DigitalOutputUnit supports 1..32 outputs");
}

void
DigitalOutputUnit::fire(QubitMask mask, Cycle td, Cycle duration_cycles)
{
    if (duration_cycles == 0)
        fatal("measurement pulse needs a positive duration");
    for (unsigned q = 0; q < outputs; ++q) {
        if (!(mask & (QubitMask{1} << q)))
            continue;
        pending.push(Pending{td, q, duration_cycles, orderCounter++});
    }
}

std::optional<Cycle>
DigitalOutputUnit::nextEventCycle() const
{
    if (pending.empty())
        return std::nullopt;
    return pending.top().cycle;
}

void
DigitalOutputUnit::advanceTo(Cycle now)
{
    while (!pending.empty() && pending.top().cycle <= now) {
        Pending p = pending.top();
        pending.pop();
        history.push_back(
            MarkerWindow{p.qubit, p.cycle, p.durationCycles});
        if (pulseSink) {
            signal::MeasurementPulse pulse;
            pulse.t0Ns = cyclesToNs(p.cycle);
            pulse.durationNs = cyclesToNs(p.durationCycles);
            pulse.carrierHz = carrierHz;
            pulseSink(p.qubit, pulse);
        }
    }
}

void
DigitalOutputUnit::reset()
{
    pending.clear();
    history.clear();
    orderCounter = 0;
}

} // namespace quma::measure

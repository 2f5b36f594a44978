#include "awg/uopunit.hh"

#include "common/logging.hh"

namespace quma::awg {

UopUnit::UopUnit(microcode::UopSequenceTable table, Cycle delay_cycles)
    : seqTable(std::move(table)), delta(delay_cycles)
{}

void
UopUnit::fire(std::uint8_t uop, Cycle td, QubitMask mask)
{
    const auto &seq = seqTable.sequenceFor(uop);
    Cycle offset = 0;
    for (const auto &entry : seq) {
        offset += entry.delta;
        pending.push(
            Pending{td + delta + offset, entry.codeword, mask,
                    orderCounter++});
    }
}

std::optional<Cycle>
UopUnit::nextEventCycle() const
{
    if (pending.empty())
        return std::nullopt;
    return pending.top().cycle;
}

void
UopUnit::advanceTo(Cycle now)
{
    while (!pending.empty() && pending.top().cycle <= now) {
        Pending p = pending.top();
        pending.pop();
        ++emitted;
        if (sink_)
            sink_(p.cw, p.cycle, p.mask);
    }
}

void
UopUnit::reset()
{
    pending.clear();
    orderCounter = 0;
    emitted = 0;
}

} // namespace quma::awg

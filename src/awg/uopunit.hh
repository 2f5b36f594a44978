/**
 * @file
 * Micro-operation unit (paper §5.3.2).
 *
 * Translates each fired micro-operation into its stored codeword
 * sequence Seq_i = ([0, cw0]; [dt1, cw1]; ...), emitting the
 * codeword triggers at exact cycle offsets after a fixed unit delay.
 * This is where commonly-used operations that have no primitive pulse
 * (Z rotations, Hadamard) get emulated from primitives.
 */

#ifndef QUMA_AWG_UOPUNIT_HH
#define QUMA_AWG_UOPUNIT_HH

#include <functional>
#include <optional>

#include "common/heap.hh"
#include "common/types.hh"
#include "microcode/seqtable.hh"

namespace quma::awg {

class UopUnit
{
  public:
    /** Codeword trigger output: (codeword, TD cycle, qubit mask). */
    using TriggerSink =
        std::function<void(Codeword, Cycle, QubitMask)>;

    /**
     * @param table the uploaded sequence table
     * @param delay_cycles the unit's fixed delay Delta (paper Table 5)
     */
    explicit UopUnit(microcode::UopSequenceTable table,
                     Cycle delay_cycles = 2);

    Cycle delayCycles() const { return delta; }
    const microcode::UopSequenceTable &table() const { return seqTable; }

    void setTriggerSink(TriggerSink sink) { sink_ = std::move(sink); }

    /** A micro-operation fired from the pulse queue at TD cycle td. */
    void fire(std::uint8_t uop, Cycle td, QubitMask mask);

    std::optional<Cycle> nextEventCycle() const;
    void advanceTo(Cycle now);

    std::size_t triggersEmitted() const { return emitted; }

    /** Drop pending triggers and zero the counters (machine re-arm). */
    void reset();

  private:
    struct Pending
    {
        Cycle cycle;
        Codeword cw;
        QubitMask mask;
        std::uint64_t order;

        bool
        operator>(const Pending &other) const
        {
            if (cycle != other.cycle)
                return cycle > other.cycle;
            return order > other.order;
        }
    };

    microcode::UopSequenceTable seqTable;
    Cycle delta;
    TriggerSink sink_;
    MinHeap<Pending> pending;
    std::uint64_t orderCounter = 0;
    std::size_t emitted = 0;
};

} // namespace quma::awg

#endif // QUMA_AWG_UOPUNIT_HH

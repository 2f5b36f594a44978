/**
 * @file
 * The Q control store: gate id -> microprogram, plus the expansion
 * performed by the physical microcode unit.
 */

#ifndef QUMA_MICROCODE_CONTROLSTORE_HH
#define QUMA_MICROCODE_CONTROLSTORE_HH

#include <array>
#include <cstdint>
#include <optional>

#include "common/ring.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "microcode/microprogram.hh"

namespace quma::microcode {

/**
 * Holds the uploaded microprograms and expands QIS instructions into
 * QuMIS instruction sequences.
 */
class QControlStore
{
  public:
    /** Upload (or replace) the microprogram for a gate id. */
    void define(std::uint8_t gate, Microprogram program);

    bool contains(std::uint8_t gate) const;
    const Microprogram &programFor(std::uint8_t gate) const;

    /** Number of stored microprograms. */
    std::size_t size() const { return defined; }

    /**
     * Append the expansion of `Apply gate, mask` to `out` by binding
     * the template roles (All -> mask). Appends
     * programFor(gate).body.size() microinstructions.
     */
    void expandApply(std::uint8_t gate, QubitMask mask,
                     RingBuffer<isa::Instruction> &out) const;

    /**
     * Append the expansion of `CNOT qt, qc`, using the microprogram
     * registered under the pseudo-gate id kCnotGate (paper
     * Algorithm 2).
     */
    void expandCnot(unsigned qt, unsigned qc,
                    RingBuffer<isa::Instruction> &out) const;

    /** Microinstructions expandMeasure appends (MPG + MD). */
    static constexpr std::size_t kMeasureLength = 2;

    /**
     * Append the expansion of `Measure mask, rd`: MPG + MD with the
     * configured measurement pulse duration.
     */
    void expandMeasure(QubitMask mask, RegIndex rd,
                       RingBuffer<isa::Instruction> &out) const;

    /** Measurement pulse duration used by expandMeasure (cycles). */
    Cycle measurementCycles() const { return msmtCycles; }
    void setMeasurementCycles(Cycle c) { msmtCycles = c; }

    /** Pseudo-gate id under which the CNOT microprogram is stored. */
    static constexpr std::uint8_t kCnotGate = 255;

    /**
     * The standard store: pass-through single-pulse microprograms for
     * the Table 1 primitives (each followed by the gate-time Wait),
     * composite Z/H programs, and the Algorithm 2 CNOT.
     *
     * @param gate_cycles spacing after a single-qubit gate (default
     *        4 cycles = 20 ns, the paper's pulse duration)
     */
    static QControlStore standard(Cycle gate_cycles = 4,
                                  Cycle msmt_cycles = 300);

  private:
    void expand(const Microprogram &prog, QubitMask all, QubitMask target,
                QubitMask control,
                RingBuffer<isa::Instruction> &out) const;

    /** Indexed by gate id: one slot per possible 8-bit id. */
    std::array<std::optional<Microprogram>, 256> store;
    std::size_t defined = 0;
    Cycle msmtCycles = 300;
};

} // namespace quma::microcode

#endif // QUMA_MICROCODE_CONTROLSTORE_HH

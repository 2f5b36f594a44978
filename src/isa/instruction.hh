/**
 * @file
 * The decoded instruction representation shared by the assembler,
 * encoder and execution pipeline.
 */

#ifndef QUMA_ISA_INSTRUCTION_HH
#define QUMA_ISA_INSTRUCTION_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace quma::isa {

/** One (qubit set, micro-operation) pair of a horizontal Pulse. */
struct PulseSlot
{
    QubitMask mask = 0;
    std::uint8_t uop = 0;

    bool operator==(const PulseSlot &) const = default;
};

/** Maximum (mask, uop) pairs encodable in one Pulse instruction. */
inline constexpr unsigned kMaxPulseSlots = 3;

/**
 * The slots of one Pulse, stored inline: at most kMaxPulseSlots (the
 * 2-bit count field of the encoding caps it there), so an Instruction
 * stays trivially copyable and moving one through the microcode unit
 * and the QMB never touches the heap.
 */
class PulseSlots
{
  public:
    PulseSlots() = default;
    PulseSlots(std::initializer_list<PulseSlot> init)
    {
        for (const PulseSlot &s : init)
            push_back(s);
    }

    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }
    bool full() const { return n == kMaxPulseSlots; }

    /** Append a slot; the list must not be full. */
    void push_back(const PulseSlot &s);

    const PulseSlot &operator[](std::size_t i) const { return items[i]; }
    const PulseSlot *begin() const { return items; }
    const PulseSlot *end() const { return items + n; }

    bool
    operator==(const PulseSlots &o) const
    {
        return std::equal(begin(), end(), o.begin(), o.end());
    }

  private:
    PulseSlot items[kMaxPulseSlots] = {};
    std::uint8_t n = 0;
};

/**
 * A decoded instruction. Fields are used according to the opcode's
 * format; unused fields stay zero so equality works across
 * encode/decode round trips.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    RegIndex rd = 0;
    RegIndex rs = 0;
    RegIndex rt = 0;
    /**
     * Immediate: mov/addi value, load/store offset, Wait cycles, MPG
     * duration, or branch target (absolute instruction index).
     */
    std::int64_t imm = 0;
    /** Addressed qubits for Mpg/Md/Apply/MeasureQ. */
    QubitMask qmask = 0;
    /** Gate identifier for Apply (index into the Q control store). */
    std::uint8_t gate = 0;
    /** Slots for Pulse. */
    PulseSlots slots;

    bool operator==(const Instruction &) const = default;

    static Instruction nop() { return {}; }
    static Instruction halt();
    static Instruction mov(RegIndex rd, std::int64_t imm);
    static Instruction add(RegIndex rd, RegIndex rs, RegIndex rt);
    static Instruction addi(RegIndex rd, RegIndex rs, std::int64_t imm);
    static Instruction sub(RegIndex rd, RegIndex rs, RegIndex rt);
    static Instruction load(RegIndex rd, RegIndex rs, std::int64_t off);
    static Instruction store(RegIndex rt, RegIndex rs, std::int64_t off);
    static Instruction beq(RegIndex rs, RegIndex rt, std::int64_t target);
    static Instruction bne(RegIndex rs, RegIndex rt, std::int64_t target);
    static Instruction br(std::int64_t target);
    static Instruction wait(std::int64_t cycles);
    static Instruction waitReg(RegIndex rs);
    static Instruction pulse(PulseSlots slots);
    static Instruction pulse1(QubitMask mask, std::uint8_t uop);
    static Instruction mpg(QubitMask mask, std::int64_t duration_cycles);
    static Instruction md(QubitMask mask, RegIndex rd);
    static Instruction apply(std::uint8_t gate, QubitMask mask);
    static Instruction measure(QubitMask mask, RegIndex rd);
    static Instruction cnot(RegIndex qt, RegIndex qc);
};

static_assert(std::is_trivially_copyable_v<Instruction>,
              "instructions are copied through the QMB by value");

/**
 * Render an instruction in assembly syntax. Micro-operation and gate
 * ids are printed numerically here; the disassembler resolves names
 * via its tables.
 */
std::string toString(const Instruction &inst);

/** Render a qubit mask as "{q0, q2, ...}". */
std::string maskToString(QubitMask mask);

} // namespace quma::isa

#endif // QUMA_ISA_INSTRUCTION_HH

/**
 * @file
 * Control-schedule replay: the physics tape of a run.
 *
 * The queue-based timing control fixes when every pulse, measurement
 * window and MD trigger fires. For a program whose control flow never
 * reads a measurement result, that schedule depends neither on the
 * chip's outcomes nor -- as long as no time point is late -- on when
 * the execution controller delivers events. Only the chip's draws
 * differ from run to run. A PhysicsTape records the physics side of
 * one run in call order:
 *
 *  - every drive pulse, CZ and measurement the machine applied to the
 *    chip, with its arguments (each (AWG, codeword) pulse rendering
 *    is stored once);
 *  - every MDU result delivery into the data collection unit, naming
 *    the measurement it integrates;
 *  - the run's RunResult and MachineStats.
 *
 * An accepted tape is also compiled: the deterministic half of its
 * physics is done once, when it is verified. Every drive on a qubit
 * whose frame is static (TransmonChip::staticFrame: no quasi-static
 * detuning, so nothing ever redraws it) stores its DriveGate -- the
 * pulse integral and rotation TransmonChip::driveGate computes from
 * the pulse and its fire time alone. A drifting-frame qubit's gate
 * changes with every detuning draw, so its drives keep the pulse.
 *
 * QumaMachine::replay() makes the same chip calls, the same
 * Mdu::integrate() and the same collector feeds in the same order,
 * so a replay is bit-identical to a full run by construction. A
 * stored gate is too: TransmonChip::applyDrive is exactly
 * applyDriveGate(driveGate()), the same code computed the stored
 * gate from the same inputs (a tape is keyed by program and machine
 * config), and the replay applies it where the run would have.
 *
 * Eligibility is checked, never configured. verifyTape() accepts a
 * program only when
 *
 *  - no instruction reads a register an Md/MeasureQ writes
 *    (feedbackFree), and tracing is off; and
 *  - two full runs bracketing the stall injection -- every stall 0,
 *    then every stall maxStallCycles -- both halt without timing
 *    violations and record equal tapes and RunResults.
 *
 * Stall injection only moves the cycles at which the execution
 * controller pushes events, and those push cycles are a max-plus
 * function of the stall draws against fixed fire times: monotone in
 * every draw. A draw vector between the two extremes therefore pushes
 * every event no earlier than the zero-stall run and no later than
 * the max-stall run; when both extremes are on time and agree, every
 * draw in between is on time and fires the same schedule.
 */

#ifndef QUMA_QUMA_TAPE_HH
#define QUMA_QUMA_TAPE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "qsim/transmon.hh"
#include "quma/machine.hh"
#include "signal/pulse.hh"

namespace quma::core {

/** One physics call of a run. */
struct TapeOp
{
    enum class Kind : std::uint8_t
    {
        /** chip.applyDrive for every qubit of `mask`. */
        Drive,
        /** chip.applyCz(qubit, qubit2, t0, duration). */
        Cz,
        /** chip.measure(qubit, t0, duration), integrated by MDU
         *  `qubit` into shot slot `index`. */
        Measure,
        /** Feed shot slot `index` into the data collection unit. */
        Deliver,
    };

    Kind kind = Kind::Drive;
    std::uint8_t qubit = 0;
    std::uint8_t qubit2 = 0;
    /** Drive: the AWG that played the pulse. */
    std::uint8_t awg = 0;
    Codeword cw = 0;
    QubitMask mask = 0;
    /** Drive: index into PhysicsTape::pulses; Measure/Deliver: the
     *  shot slot. */
    std::uint32_t index = 0;
    TimeNs t0 = 0;
    TimeNs duration = 0;

    bool operator==(const TapeOp &) const = default;
};

/** The ordered physics calls of one run (see the file comment). */
struct PhysicsTape
{
    std::vector<TapeOp> ops;
    /** Rendered pulse per (AWG, codeword), first use first; t0 = 0. */
    std::vector<signal::DrivePulse> pulses;
    /** Measurements taken (shot slots a replay needs). */
    std::size_t shots = 0;
    /** Qubits whose drives replay from `gates` (static frames). */
    QubitMask staticFrames = 0;
    /** The DriveGate of every drive on a `staticFrames` qubit, in
     *  op order and, within an op, in mask bit order. */
    std::vector<qsim::DriveGate> gates;
    RunResult result;
    /** The recorded run's counters; replayed rounds report these to
     *  admission. */
    MachineStats stats;

    /** Same physics calls and result (stats are not compared). */
    bool
    sameRun(const PhysicsTape &other) const
    {
        return ops == other.ops && shots == other.shots &&
               result == other.result;
    }
};

/**
 * Appends a run's physics calls to a tape; QumaMachine::recordRun
 * drives it from the machine's chip and MDU sinks.
 */
class TapeWriter
{
  public:
    TapeWriter(PhysicsTape &tape, unsigned num_qubits);

    void drive(unsigned awg, const signal::DrivePulse &pulse, Codeword cw,
               QubitMask mask);
    void cz(unsigned a, unsigned b, TimeNs t0, TimeNs duration);
    void measure(unsigned qubit, TimeNs t0, TimeNs duration);
    /** MDU `qubit` delivered its oldest undelivered shot. */
    void deliver(unsigned qubit);

  private:
    PhysicsTape &tape;
    std::map<std::pair<unsigned, Codeword>, std::uint32_t> pulseIndex;
    /** Per MDU: shot slots measured but not yet delivered. An MDU
     *  consumes its shots in order, so this is a FIFO. */
    std::vector<std::deque<std::uint32_t>> undelivered;
};

/**
 * True when no instruction reads a register that an Md or MeasureQ
 * writes: the source operands of ALU ops, load/store, branches,
 * QNopReg and Cnot are scanned against every measurement
 * destination. Active reset fails this check.
 */
bool feedbackFree(const isa::Program &program);

/**
 * The stall check: run `program` on `machine` with every stall 0 and
 * with every stall maxStallCycles (once when stall injection is off),
 * each after reset() and with `bins` collector bins, and return the
 * zero-stall run's tape if the program is eligible (see the file
 * comment); nullptr otherwise. The machine keeps its seeds but needs
 * the usual reset -> configure -> loadProgram before its next run.
 * An accepted tape comes compiled (staticFrames and gates).
 */
std::shared_ptr<const PhysicsTape> verifyTape(QumaMachine &machine,
                                              const isa::Program &program,
                                              std::size_t bins,
                                              Cycle max_cycles);

} // namespace quma::core

#endif // QUMA_QUMA_TAPE_HH

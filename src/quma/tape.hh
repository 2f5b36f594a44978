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
 * one run as the chip's own kernel stream, in call order:
 *
 *  - every kernel the chip's clock applied (qsim::KernelSink): each
 *    idle step (qubit, interval), each drive rotation (qubit and the
 *    DriveGate the chip applied, on every frame), each CZ phase and
 *    each readout (qubit, window);
 *  - every MDU result delivery into the data collection unit, naming
 *    the readout it integrates;
 *  - the run's RunResult and MachineStats.
 *
 * A drive's gate is a function of the pulse and the qubit's params
 * alone (TransmonChip::driveGate demodulates in the nominal frame),
 * so the gate the chip applied is stored as it was applied, one per
 * rotation, on every frame. An accepted tape is also compiled: on a
 * qubit whose frame is static (TransmonChip::staticFrame: no
 * quasi-static detuning, so nothing ever redraws it) each idle step
 * stores its IdleCoeffs -- one entry per distinct (qubit, interval).
 * A drifting-frame qubit's idle factors change with every detuning
 * draw, so its idles keep the interval.
 *
 * QumaMachine::replay() walks the stream once: it applies the stored
 * gates and idle factors, computes a drifting qubit's idle factors
 * from its current detuning with the same chip function, and makes
 * the same readouts, Mdu::integrate() calls and collector feeds in
 * the same order. It never touches the chip's clock: the stream
 * already holds every step the clock produced. A replay is therefore
 * bit-identical to a full run by construction. The run's clock calls
 * the same kernels -- applyIdle(q, idleCoeffs(q, dt)), rotate(q,
 * gate), czPhase, readout -- in this order, and a stored value is
 * what the same function returned for the same inputs (a tape is
 * keyed by program and machine config, a static frame's detuning is
 * always zero, and a gate reads no detuning).
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
 * Equal tapes compare gates, not pulses, and that is enough: a pulse
 * reaches the physics only through driveGate(q, pulse), a function
 * of the pulse and the params alone, and the gate's midNs and endNs
 * carry its timing. Equal gates at equal ops are therefore the same
 * kernel stream that replay applies.
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
#include <memory>
#include <vector>

#include "isa/program.hh"
#include "qsim/transmon.hh"
#include "quma/machine.hh"

namespace quma::core {

/** One kernel call of a run (see the file comment). */
struct TapeOp
{
    enum class Kind : std::uint8_t
    {
        /** chip.applyIdle on `qubit` over `duration` ns; compiled on
         *  a static frame: PhysicsTape::idles[index]. */
        Idle,
        /** chip.rotate on `qubit` by the gate PhysicsTape::gates
         *  [index], on every frame. */
        Rotate,
        /** chip.czPhase(qubit, qubit2) of the CZ fired at `t0` for
         *  `duration` ns. */
        Cz,
        /** chip.readout(qubit, duration) of the window at `t0`,
         *  integrated by MDU `qubit` into shot slot `index`. */
        Readout,
        /** Feed shot slot `index` into the data collection unit. */
        Deliver,
    };

    Kind kind = Kind::Idle;
    std::uint8_t qubit = 0;
    std::uint8_t qubit2 = 0;
    /** Into the side table or shot slots `kind` names. */
    std::uint32_t index = 0;
    TimeNs t0 = 0;
    TimeNs duration = 0;

    bool operator==(const TapeOp &) const = default;
};

/** The ordered kernel calls of one run (see the file comment). */
struct PhysicsTape
{
    std::vector<TapeOp> ops;
    /** Readouts taken (shot slots a replay needs). */
    std::size_t shots = 0;
    /** Qubits whose idles replay from `idles` (static frames). */
    QubitMask staticFrames = 0;
    /** Distinct idle factors of the static-frame qubits. */
    std::vector<qsim::IdleCoeffs> idles;
    /** The gate of every rotation on every qubit, in op order. */
    std::vector<qsim::DriveGate> gates;
    RunResult result;
    /** The recorded run's counters; replayed rounds report these to
     *  admission. */
    MachineStats stats;

    /** Same kernel calls, times, gates and stored idle factors, and
     *  the same result (stats are not compared). */
    bool sameRun(const PhysicsTape &other) const;

    /** Bytes of the ops and side tables a replay reads. */
    std::size_t bytes() const;
};

/**
 * Appends a run's kernel calls to a tape: QumaMachine::recordRun sets
 * it as the chip's KernelSink and reports MDU deliveries itself.
 */
class TapeWriter : public qsim::KernelSink
{
  public:
    TapeWriter(PhysicsTape &tape, unsigned num_qubits);

    void idle(unsigned q, TimeNs dt_ns) override;
    void rotate(unsigned q, const qsim::DriveGate &gate) override;
    void czPhase(unsigned a, unsigned b, TimeNs t0_ns,
                 TimeNs duration_ns) override;
    void readout(unsigned q, TimeNs t0_ns, TimeNs duration_ns) override;
    /** MDU `qubit` delivered its oldest undelivered shot. */
    void deliver(unsigned qubit);

  private:
    void push(TapeOp::Kind kind, unsigned q, std::uint32_t index,
              TimeNs t0, TimeNs duration);

    PhysicsTape &tape;
    /** Per MDU: shot slots read out but not yet delivered. An MDU
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
 * Compile `tape` for `chip` (see the file comment): mark the
 * static-frame qubits, then point each of their idle ops at a stored
 * IdleCoeffs, computed by the same chip function the run called.
 */
void compileKernels(PhysicsTape &tape, qsim::TransmonChip &chip);

/**
 * The stall check: run `program` on `machine` with every stall 0 and
 * with every stall maxStallCycles (once when stall injection is off),
 * each after reset() and with `bins` collector bins, and return the
 * zero-stall run's tape if the program is eligible (see the file
 * comment); nullptr otherwise. The machine keeps its seeds but needs
 * the usual reset -> configure -> loadProgram before its next run.
 * An accepted tape comes compiled (staticFrames and idles).
 */
std::shared_ptr<const PhysicsTape> verifyTape(QumaMachine &machine,
                                              const isa::Program &program,
                                              std::size_t bins,
                                              Cycle max_cycles);

} // namespace quma::core

#endif // QUMA_QUMA_TAPE_HH

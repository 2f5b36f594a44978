/**
 * @file
 * The physical microcode unit and quantum microinstruction buffer.
 *
 * The physical microcode unit translates QIS quantum instructions
 * into QuMIS microinstruction sequences using the Q control store
 * (paper §5.3.2). The quantum microinstruction buffer (QMB) then
 * decomposes microinstructions into micro-operations with timing
 * labels and pushes them into the timing control unit's queues:
 *
 *   Wait n  -> allocate the next timing label L, push (n, L) into
 *              the timing queue;
 *   Pulse   -> PulseEvent(L, mask, uop) into the pulse queue of each
 *              addressed AWG (horizontal: multiple qubits at once);
 *   MPG     -> MpgEvent(L, mask, D) into the MPG queue (bypassing
 *              the u-op stage, paper Table 5);
 *   MD      -> MdEvent(L, qubit, rd) into each addressed qubit's MD
 *              queue.
 *
 * Everything here runs in the non-deterministic timing domain: the
 * buffer drains as fast as the queues accept entries, and stalls on
 * backpressure without affecting deterministic output timing.
 */

#ifndef QUMA_QUMA_QMB_HH
#define QUMA_QUMA_QMB_HH

#include <optional>
#include <vector>

#include "common/ring.hh"
#include "microcode/controlstore.hh"
#include "quma/trace.hh"
#include "timing/controller.hh"

namespace quma::core {

/** Static routing of qubits onto hardware units. */
struct QubitRouting
{
    /** Pulse-queue (AWG) index for each qubit. */
    std::vector<unsigned> driveAwg;
    /** MD-queue (MDU) index for each qubit. */
    std::vector<unsigned> mdu;

    unsigned awgFor(unsigned qubit) const;
    unsigned mduFor(unsigned qubit) const;
};

class QuantumPipeline
{
  public:
    QuantumPipeline(microcode::QControlStore store, QubitRouting routing,
                    timing::TimingController &timing,
                    TraceRecorder &trace, std::size_t buffer_depth = 16,
                    unsigned drain_rate = 1);

    const microcode::QControlStore &controlStore() const { return cs; }

    /**
     * Accept one quantum instruction (registers already resolved:
     * QWaitReg arrives as a Wait). Returns false when the expansion
     * would overflow the microinstruction buffer.
     */
    bool tryDispatch(const isa::Instruction &inst);

    bool empty() const { return buffer.empty(); }
    std::size_t backlog() const { return buffer.size(); }

    /**
     * Drain up to the configured number of microinstructions into
     * the timing queues. Stalls (leaving entries buffered) when a
     * target queue is full.
     */
    void drainAt(Cycle now);

    /** Next cycle at which the buffer wants to do work. */
    std::optional<Cycle> nextEventCycle() const;

    /** Timing label of the most recently allocated time point. */
    TimingLabel currentLabel() const { return label; }

    /** Total microinstructions pushed into the timing queues. */
    std::size_t microInstsIssued() const { return issued; }

    /** Drop buffered microinstructions and restart label numbering. */
    void reset();

  private:
    bool pushOne(const isa::Instruction &inst);
    template <typename F>
    bool forEachPulse(const isa::Instruction &inst, F &&f) const;

    microcode::QControlStore cs;
    QubitRouting route;
    /** Qubits driven by each pulse queue (AWG), from the routing. */
    std::vector<QubitMask> awgQubits;
    /** pushOne's per-queue event counts of the instruction at hand
     *  (pulse queues by AWG, MD queues by MDU). */
    std::vector<std::size_t> pulseDemand;
    std::vector<std::size_t> mdDemand;
    timing::TimingController &tcu;
    TraceRecorder &recorder;
    /** The microinstruction buffer: a ring of the configured depth. */
    RingBuffer<isa::Instruction> buffer;
    unsigned drainRate;
    TimingLabel label = 0;
    Cycle lastDrainCycle = 0;
    bool drainedThisCycle = false;
    /** Set when the front entry hit a full queue; re-polled on events. */
    bool blockedOnQueue = false;
    std::size_t issued = 0;
};

} // namespace quma::core

#endif // QUMA_QUMA_QMB_HH

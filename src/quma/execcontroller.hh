/**
 * @file
 * The execution controller (paper §5.3.2, §7.2).
 *
 * Runs the auxiliary classical instructions of the QIS in a simple
 * pipeline (register update, program flow control) and streams
 * quantum instructions to the physical execution layer after reading
 * register values (e.g. QNopReg r15 becomes Wait 40000 with whatever
 * r15 holds at that moment).
 *
 * Instruction timing here is deliberately NON-deterministic: an
 * optional stall injector adds random extra cycles per instruction,
 * modelling the cache misses / communication jitter of a real host.
 * The queue-based timing control downstream guarantees the quantum
 * output timing is unaffected, which the property tests verify.
 */

#ifndef QUMA_QUMA_EXECCONTROLLER_HH
#define QUMA_QUMA_EXECCONTROLLER_HH

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "isa/program.hh"
#include "quma/qmb.hh"
#include "quma/registerfile.hh"

namespace quma::core {

struct ExecConfig
{
    /** Instructions issued per cycle (paper §6 proposes VLIW > 1). */
    unsigned issueWidth = 1;
    /** Enable random per-instruction stall injection. */
    bool stallInjection = false;
    /** Probability that an instruction incurs an extra stall. */
    double stallProbability = 0.15;
    /** Maximum injected stall in cycles. */
    unsigned maxStallCycles = 4;
    std::uint64_t seed = 1;
    /** Data memory size in 64-bit words. */
    std::size_t dataMemoryWords = 4096;

    bool operator==(const ExecConfig &) const = default;
};

/**
 * Stall draws of the execution controller. Drawn is the configured
 * stall injection; None and Max pin every stall to 0 or to
 * maxStallCycles -- the two extremes the control-schedule replay
 * check runs (quma/tape.hh). Internal: not part of ExecConfig, and
 * reset() returns to Drawn.
 */
enum class StallMode : std::uint8_t
{
    Drawn,
    None,
    Max,
};

struct ExecStats
{
    std::size_t classicalExecuted = 0;
    std::size_t quantumDispatched = 0;
    std::size_t stallCyclesInjected = 0;
    std::size_t dispatchRetries = 0;
    std::size_t registerStalls = 0;

    bool operator==(const ExecStats &) const = default;
};

class ExecutionController
{
  public:
    ExecutionController(ExecConfig config, QuantumPipeline &pipeline);

    /** Run `program` from its first instruction. The program is
     *  borrowed, not copied: it must outlive its use (the machine
     *  owns it). */
    void loadProgram(const isa::Program &program);
    const isa::Program &program() const { return *prog; }

    RegisterFile &registers() { return regs; }
    const RegisterFile &registers() const { return regs; }

    std::int64_t readDataMemory(std::size_t word) const;
    void writeDataMemory(std::size_t word, std::int64_t value);

    bool halted() const { return isHalted; }
    std::size_t pc() const { return pcReg; }

    /** Execute up to issueWidth instructions if ready at `now`. */
    void stepAt(Cycle now);

    /**
     * Cycle at which the controller next wants to run; nullopt when
     * halted or blocked with no self-scheduled wake-up (the machine
     * re-polls after every other event).
     */
    std::optional<Cycle> nextEventCycle() const;

    bool blocked() const { return isBlocked; }
    const ExecStats &stats() const { return execStats; }

    /**
     * Return to the freshly-constructed state: registers and data
     * memory zeroed, pc rewound, stats cleared, and the stall RNG
     * rewound to the configured seed. The loaded program is kept.
     */
    void reset();

    /** Replace the stall-injection seed used by the next reset(). */
    void reseed(std::uint64_t seed) { cfg.seed = seed; }

    /** Pin the stall draws until the next reset() (see StallMode). */
    void setStallMode(StallMode mode) { stallMode = mode; }

  private:
    /** Execute one instruction; false when blocked (pc unchanged). */
    bool executeOne(Cycle now);

    ExecConfig cfg;
    QuantumPipeline &qp;
    const isa::Program *prog;
    RegisterFile regs;
    std::vector<std::int64_t> dataMem;
    Rng rng;

    std::size_t pcReg = 0;
    bool isHalted = false;
    bool isBlocked = false;
    Cycle readyCycle = 0;
    StallMode stallMode = StallMode::Drawn;
    ExecStats execStats;
};

} // namespace quma::core

#endif // QUMA_QUMA_EXECCONTROLLER_HH

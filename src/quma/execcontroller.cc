#include "quma/execcontroller.hh"

#include <bit>

#include "common/logging.hh"

namespace quma::core {

namespace {

/** What a controller runs before its first loadProgram. */
const isa::Program kNoProgram;

} // namespace

ExecutionController::ExecutionController(ExecConfig config,
                                         QuantumPipeline &pipeline)
    : cfg(config), qp(pipeline), prog(&kNoProgram),
      dataMem(config.dataMemoryWords, 0), rng(config.seed)
{
    if (cfg.issueWidth == 0)
        fatal("issue width must be at least 1");
}

void
ExecutionController::loadProgram(const isa::Program &program)
{
    prog = &program;
    pcReg = 0;
    isHalted = prog->empty();
    isBlocked = false;
    readyCycle = 0;
}

void
ExecutionController::reset()
{
    pcReg = 0;
    isHalted = prog->empty();
    isBlocked = false;
    readyCycle = 0;
    stallMode = StallMode::Drawn;
    execStats = ExecStats{};
    regs.reset();
    dataMem.assign(cfg.dataMemoryWords, 0);
    rng.reseed(cfg.seed);
}

std::int64_t
ExecutionController::readDataMemory(std::size_t word) const
{
    if (word >= dataMem.size())
        fatal("data memory read out of bounds: word ", word);
    return dataMem[word];
}

void
ExecutionController::writeDataMemory(std::size_t word, std::int64_t value)
{
    if (word >= dataMem.size())
        fatal("data memory write out of bounds: word ", word);
    dataMem[word] = value;
}

bool
ExecutionController::executeOne(Cycle now)
{
    using isa::Opcode;
    const isa::Instruction &inst = prog->at(pcReg);

    // Register-operand scoreboard: reading a register that awaits an
    // MD write-back stalls the pipeline.
    auto readable = [&](RegIndex r) { return !regs.pending(r); };

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        isHalted = true;
        break;
      case Opcode::Mov:
        regs.write(inst.rd, inst.imm);
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor: {
        if (!readable(inst.rs) || !readable(inst.rt)) {
            ++execStats.registerStalls;
            return false;
        }
        std::int64_t a = regs.read(inst.rs);
        std::int64_t b = regs.read(inst.rt);
        std::int64_t r = 0;
        switch (inst.op) {
          case Opcode::Add:
            r = a + b;
            break;
          case Opcode::Sub:
            r = a - b;
            break;
          case Opcode::And:
            r = a & b;
            break;
          case Opcode::Or:
            r = a | b;
            break;
          default:
            r = a ^ b;
            break;
        }
        regs.write(inst.rd, r);
        break;
      }
      case Opcode::Addi:
      case Opcode::Shl:
      case Opcode::Shr: {
        if (!readable(inst.rs)) {
            ++execStats.registerStalls;
            return false;
        }
        std::int64_t a = regs.read(inst.rs);
        std::int64_t r = 0;
        if (inst.op == Opcode::Addi)
            r = a + inst.imm;
        else if (inst.op == Opcode::Shl)
            r = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(a) << (inst.imm & 63));
        else
            r = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(a) >> (inst.imm & 63));
        regs.write(inst.rd, r);
        break;
      }
      case Opcode::Load: {
        if (!readable(inst.rs)) {
            ++execStats.registerStalls;
            return false;
        }
        auto addr = static_cast<std::size_t>(regs.read(inst.rs) +
                                             inst.imm);
        regs.write(inst.rd, readDataMemory(addr));
        break;
      }
      case Opcode::Store: {
        if (!readable(inst.rs) || !readable(inst.rt)) {
            ++execStats.registerStalls;
            return false;
        }
        auto addr = static_cast<std::size_t>(regs.read(inst.rs) +
                                             inst.imm);
        writeDataMemory(addr, regs.read(inst.rt));
        break;
      }
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge: {
        if (!readable(inst.rs) || !readable(inst.rt)) {
            ++execStats.registerStalls;
            return false;
        }
        std::int64_t a = regs.read(inst.rs);
        std::int64_t b = regs.read(inst.rt);
        bool taken = false;
        switch (inst.op) {
          case Opcode::Beq:
            taken = a == b;
            break;
          case Opcode::Bne:
            taken = a != b;
            break;
          case Opcode::Blt:
            taken = a < b;
            break;
          default:
            taken = a >= b;
            break;
        }
        if (taken) {
            pcReg = static_cast<std::size_t>(inst.imm);
            ++execStats.classicalExecuted;
            return true;
        }
        break;
      }
      case Opcode::Br:
        pcReg = static_cast<std::size_t>(inst.imm);
        ++execStats.classicalExecuted;
        return true;

      // --- quantum instructions: resolve registers and dispatch ---
      case Opcode::QWaitReg: {
        if (!readable(inst.rs)) {
            ++execStats.registerStalls;
            return false;
        }
        std::int64_t cycles = regs.read(inst.rs);
        if (cycles <= 0)
            fatal("QNopReg r", static_cast<unsigned>(inst.rs),
                  " read a non-positive wait of ", cycles, " cycles");
        if (!qp.tryDispatch(isa::Instruction::wait(cycles))) {
            ++execStats.dispatchRetries;
            return false;
        }
        ++execStats.quantumDispatched;
        ++pcReg;
        return true;
      }
      case Opcode::QWait:
      case Opcode::Pulse:
      case Opcode::Mpg:
      case Opcode::Apply:
      case Opcode::Cnot:
        if (!qp.tryDispatch(inst)) {
            ++execStats.dispatchRetries;
            return false;
        }
        ++execStats.quantumDispatched;
        ++pcReg;
        return true;
      case Opcode::Md:
      case Opcode::MeasureQ: {
        if (!qp.tryDispatch(inst)) {
            ++execStats.dispatchRetries;
            return false;
        }
        // The destination register is written back asynchronously by
        // the MDU(s): scoreboard it with one write per qubit.
        auto writes = static_cast<unsigned>(
            std::popcount(static_cast<std::uint32_t>(inst.qmask)));
        regs.markPending(inst.rd, writes);
        ++execStats.quantumDispatched;
        ++pcReg;
        return true;
      }
      case Opcode::NumOpcodes:
        panic("invalid opcode reached execution");
    }

    if (!isHalted)
        ++pcReg;
    ++execStats.classicalExecuted;
    (void)now;
    return true;
}

void
ExecutionController::stepAt(Cycle now)
{
    isBlocked = false;
    if (isHalted || now < readyCycle)
        return;
    if (pcReg >= prog->size()) {
        isHalted = true;
        return;
    }
    bool progressed = false;
    for (unsigned i = 0; i < cfg.issueWidth; ++i) {
        if (isHalted || pcReg >= prog->size())
            break;
        if (!executeOne(now)) {
            isBlocked = true;
            break;
        }
        progressed = true;
    }
    if (progressed) {
        Cycle stall = 0;
        if (cfg.stallInjection) {
            if (stallMode == StallMode::Max)
                stall = cfg.maxStallCycles;
            else if (stallMode == StallMode::Drawn &&
                     rng.bernoulli(cfg.stallProbability))
                stall = rng.uniformInt(1, cfg.maxStallCycles);
            execStats.stallCyclesInjected += stall;
        }
        readyCycle = now + 1 + stall;
    }
    if (pcReg >= prog->size())
        isHalted = true;
}

std::optional<Cycle>
ExecutionController::nextEventCycle() const
{
    if (isHalted)
        return std::nullopt;
    if (isBlocked)
        return std::nullopt; // re-polled by the machine after events
    return readyCycle;
}

} // namespace quma::core

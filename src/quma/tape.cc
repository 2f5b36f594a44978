#include "quma/tape.hh"

#include <bitset>

#include "common/logging.hh"

namespace quma::core {

TapeWriter::TapeWriter(PhysicsTape &tape_, unsigned num_qubits)
    : tape(tape_), undelivered(num_qubits)
{
}

void
TapeWriter::drive(unsigned awg, const signal::DrivePulse &pulse,
                  Codeword cw, QubitMask mask)
{
    auto [it, added] = pulseIndex.emplace(
        std::pair{awg, cw}, static_cast<std::uint32_t>(tape.pulses.size()));
    if (added) {
        tape.pulses.push_back(pulse);
        tape.pulses.back().t0Ns = 0;
    }
    TapeOp op;
    op.kind = TapeOp::Kind::Drive;
    op.awg = static_cast<std::uint8_t>(awg);
    op.cw = cw;
    op.mask = mask;
    op.index = it->second;
    op.t0 = pulse.t0Ns;
    tape.ops.push_back(op);
}

void
TapeWriter::cz(unsigned a, unsigned b, TimeNs t0, TimeNs duration)
{
    TapeOp op;
    op.kind = TapeOp::Kind::Cz;
    op.qubit = static_cast<std::uint8_t>(a);
    op.qubit2 = static_cast<std::uint8_t>(b);
    op.t0 = t0;
    op.duration = duration;
    tape.ops.push_back(op);
}

void
TapeWriter::measure(unsigned qubit, TimeNs t0, TimeNs duration)
{
    auto slot = static_cast<std::uint32_t>(tape.shots++);
    undelivered.at(qubit).push_back(slot);
    TapeOp op;
    op.kind = TapeOp::Kind::Measure;
    op.qubit = static_cast<std::uint8_t>(qubit);
    op.index = slot;
    op.t0 = t0;
    op.duration = duration;
    tape.ops.push_back(op);
}

void
TapeWriter::deliver(unsigned qubit)
{
    auto &fifo = undelivered.at(qubit);
    quma_assert(!fifo.empty(), "MDU delivered a result it never measured");
    TapeOp op;
    op.kind = TapeOp::Kind::Deliver;
    op.qubit = static_cast<std::uint8_t>(qubit);
    op.index = fifo.front();
    fifo.pop_front();
    tape.ops.push_back(op);
}

bool
feedbackFree(const isa::Program &program)
{
    using isa::Opcode;
    std::bitset<kNumRegisters> measured, read;
    for (const isa::Instruction &inst : program.all()) {
        switch (inst.op) {
          case Opcode::Md:
          case Opcode::MeasureQ:
            measured.set(inst.rd);
            break;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Store:
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
            read.set(inst.rs);
            read.set(inst.rt);
            break;
          case Opcode::Addi:
          case Opcode::Shl:
          case Opcode::Shr:
          case Opcode::Load:
          case Opcode::QWaitReg:
            read.set(inst.rs);
            break;
          case Opcode::Cnot:
            read.set(inst.rd);
            read.set(inst.rs);
            break;
          default:
            break;
        }
    }
    return (measured & read).none();
}

namespace {

/** One full recording run of `program` with every stall at `mode`. */
PhysicsTape
recordWithStalls(QumaMachine &machine, const isa::Program &program,
                 std::size_t bins, Cycle max_cycles, StallMode mode)
{
    machine.reset();
    machine.configureDataCollection(bins);
    machine.loadProgram(program);
    machine.execController().setStallMode(mode);
    PhysicsTape tape;
    machine.recordRun(tape, max_cycles);
    tape.stats = machine.stats();
    return tape;
}

bool
onTime(const PhysicsTape &tape)
{
    return tape.result.halted && tape.result.violations.clean() &&
           tape.stats.queues.totalStaleDropped() == 0;
}

} // namespace

std::shared_ptr<const PhysicsTape>
verifyTape(QumaMachine &machine, const isa::Program &program,
           std::size_t bins, Cycle max_cycles)
{
    if (machine.config().traceEnabled || !feedbackFree(program))
        return nullptr;
    try {
        auto early = std::make_shared<PhysicsTape>(recordWithStalls(
            machine, program, bins, max_cycles, StallMode::None));
        if (!onTime(*early))
            return nullptr;
        if (machine.config().exec.stallInjection) {
            PhysicsTape late = recordWithStalls(
                machine, program, bins, max_cycles, StallMode::Max);
            if (!onTime(late) || !late.sameRun(*early))
                return nullptr;
        }
        return early;
    } catch (const FatalError &) {
        // A program that wedges or faults at a stall extreme is
        // simply not eligible; its own full run reports the fault if
        // the job's draws reach it.
        return nullptr;
    }
}

} // namespace quma::core

#include "quma/tape.hh"

#include <bitset>
#include <map>
#include <utility>

#include "common/logging.hh"

namespace quma::core {

bool
PhysicsTape::sameRun(const PhysicsTape &other) const
{
    return ops == other.ops && shots == other.shots &&
           result == other.result && staticFrames == other.staticFrames &&
           idles == other.idles && gates == other.gates;
}

std::size_t
PhysicsTape::bytes() const
{
    return ops.size() * sizeof(TapeOp) +
           idles.size() * sizeof(qsim::IdleCoeffs) +
           gates.size() * sizeof(qsim::DriveGate);
}

TapeWriter::TapeWriter(PhysicsTape &tape_, unsigned num_qubits)
    : tape(tape_), undelivered(num_qubits)
{
}

void
TapeWriter::push(TapeOp::Kind kind, unsigned q, std::uint32_t index,
                 TimeNs t0, TimeNs duration)
{
    TapeOp op;
    op.kind = kind;
    op.qubit = static_cast<std::uint8_t>(q);
    op.index = index;
    op.t0 = t0;
    op.duration = duration;
    tape.ops.push_back(op);
}

void
TapeWriter::idle(unsigned q, TimeNs dt_ns)
{
    push(TapeOp::Kind::Idle, q, 0, 0, dt_ns);
}

void
TapeWriter::rotate(unsigned q, const qsim::DriveGate &gate)
{
    // The frame phase at the fire time sets the axis, so gates rarely
    // repeat: one per rotation.
    push(TapeOp::Kind::Rotate, q,
         static_cast<std::uint32_t>(tape.gates.size()), 0, 0);
    tape.gates.push_back(gate);
}

void
TapeWriter::czPhase(unsigned a, unsigned b, TimeNs t0_ns,
                    TimeNs duration_ns)
{
    push(TapeOp::Kind::Cz, a, 0, t0_ns, duration_ns);
    tape.ops.back().qubit2 = static_cast<std::uint8_t>(b);
}

void
TapeWriter::readout(unsigned q, TimeNs t0_ns, TimeNs duration_ns)
{
    auto slot = static_cast<std::uint32_t>(tape.shots++);
    undelivered.at(q).push_back(slot);
    push(TapeOp::Kind::Readout, q, slot, t0_ns, duration_ns);
}

void
TapeWriter::deliver(unsigned qubit)
{
    auto &fifo = undelivered.at(qubit);
    quma_assert(!fifo.empty(), "MDU delivered a result it never measured");
    push(TapeOp::Kind::Deliver, qubit, fifo.front(), 0, 0);
    fifo.pop_front();
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

} // namespace

void
compileKernels(PhysicsTape &tape, qsim::TransmonChip &chip)
{
    for (unsigned q = 0; q < chip.numQubits(); ++q)
        if (chip.staticFrame(q))
            tape.staticFrames |= QubitMask{1} << q;
    std::map<std::pair<unsigned, TimeNs>, std::uint32_t> idleIndex;
    for (TapeOp &op : tape.ops) {
        if (op.kind != TapeOp::Kind::Idle ||
            !(tape.staticFrames & (QubitMask{1} << op.qubit)))
            continue;
        auto [it, added] = idleIndex.emplace(
            std::pair{unsigned{op.qubit}, op.duration},
            static_cast<std::uint32_t>(tape.idles.size()));
        if (added)
            tape.idles.push_back(chip.idleCoeffs(
                op.qubit, static_cast<double>(op.duration)));
        op.index = it->second;
    }
}

namespace {

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
        compileKernels(*early, machine.chip());
        return early;
    } catch (const FatalError &) {
        // A program that wedges or faults at a stall extreme is
        // simply not eligible; its own full run reports the fault if
        // the job's draws reach it.
        return nullptr;
    }
}

} // namespace quma::core

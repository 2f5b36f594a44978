#include "quma/tape.hh"

#include <bitset>
#include <map>
#include <utility>

#include "common/logging.hh"

namespace quma::core {

namespace {

/** Same samples, rate and frequencies; the fire time is not part of
 *  a rendering. */
bool
samePulse(const signal::DrivePulse &a, const signal::DrivePulse &b)
{
    return a.i.samples() == b.i.samples() && a.q.samples() == b.q.samples() &&
           a.i.rateHz() == b.i.rateHz() && a.q.rateHz() == b.q.rateHz() &&
           a.ssbHz == b.ssbHz && a.carrierHz == b.carrierHz;
}

} // namespace

bool
PhysicsTape::sameRun(const PhysicsTape &other) const
{
    if (ops != other.ops || shots != other.shots ||
        !(result == other.result) || staticFrames != other.staticFrames ||
        idles != other.idles || gates != other.gates ||
        pulses.size() != other.pulses.size())
        return false;
    for (std::size_t p = 0; p < pulses.size(); ++p)
        if (!samePulse(pulses[p], other.pulses[p]))
            return false;
    return true;
}

std::size_t
PhysicsTape::bytes() const
{
    std::size_t n = ops.size() * sizeof(TapeOp) +
                    idles.size() * sizeof(qsim::IdleCoeffs) +
                    gates.size() * sizeof(qsim::DriveGate);
    for (const signal::DrivePulse &p : pulses)
        n += sizeof p + (p.i.size() + p.q.size()) * sizeof(double);
    return n;
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
TapeWriter::rotate(unsigned q, const signal::DrivePulse &pulse)
{
    // A program plays a handful of distinct renderings; the latest
    // match is the likeliest.
    auto index = static_cast<std::uint32_t>(tape.pulses.size());
    for (std::uint32_t p = index; p-- > 0;)
        if (samePulse(tape.pulses[p], pulse)) {
            index = p;
            break;
        }
    if (index == tape.pulses.size()) {
        tape.pulses.push_back(pulse);
        tape.pulses.back().t0Ns = 0;
    }
    push(TapeOp::Kind::Rotate, q, index, pulse.t0Ns, 0);
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
    signal::DrivePulse pulse;
    for (TapeOp &op : tape.ops) {
        if (!(tape.staticFrames & (QubitMask{1} << op.qubit)))
            continue;
        if (op.kind == TapeOp::Kind::Idle) {
            auto [it, added] = idleIndex.emplace(
                std::pair{unsigned{op.qubit}, op.duration},
                static_cast<std::uint32_t>(tape.idles.size()));
            if (added)
                tape.idles.push_back(chip.idleCoeffs(
                    op.qubit, static_cast<double>(op.duration)));
            op.index = it->second;
        } else if (op.kind == TapeOp::Kind::Rotate) {
            // The frame phase at the fire time sets the axis, so
            // gates rarely repeat: one per rotation.
            pulse = tape.pulses[op.index];
            pulse.t0Ns = op.t0;
            op.index = static_cast<std::uint32_t>(tape.gates.size());
            tape.gates.push_back(chip.driveGate(op.qubit, pulse));
        }
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

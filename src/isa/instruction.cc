#include "isa/instruction.hh"

#include <sstream>

#include "common/logging.hh"

namespace quma::isa {

Instruction
Instruction::halt()
{
    Instruction i;
    i.op = Opcode::Halt;
    return i;
}

Instruction
Instruction::mov(RegIndex rd, std::int64_t imm)
{
    Instruction i;
    i.op = Opcode::Mov;
    i.rd = rd;
    i.imm = imm;
    return i;
}

Instruction
Instruction::add(RegIndex rd, RegIndex rs, RegIndex rt)
{
    Instruction i;
    i.op = Opcode::Add;
    i.rd = rd;
    i.rs = rs;
    i.rt = rt;
    return i;
}

Instruction
Instruction::addi(RegIndex rd, RegIndex rs, std::int64_t imm)
{
    Instruction i;
    i.op = Opcode::Addi;
    i.rd = rd;
    i.rs = rs;
    i.imm = imm;
    return i;
}

Instruction
Instruction::sub(RegIndex rd, RegIndex rs, RegIndex rt)
{
    Instruction i;
    i.op = Opcode::Sub;
    i.rd = rd;
    i.rs = rs;
    i.rt = rt;
    return i;
}

Instruction
Instruction::load(RegIndex rd, RegIndex rs, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::Load;
    i.rd = rd;
    i.rs = rs;
    i.imm = off;
    return i;
}

Instruction
Instruction::store(RegIndex rt, RegIndex rs, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::Store;
    i.rt = rt;
    i.rs = rs;
    i.imm = off;
    return i;
}

Instruction
Instruction::beq(RegIndex rs, RegIndex rt, std::int64_t target)
{
    Instruction i;
    i.op = Opcode::Beq;
    i.rs = rs;
    i.rt = rt;
    i.imm = target;
    return i;
}

Instruction
Instruction::bne(RegIndex rs, RegIndex rt, std::int64_t target)
{
    Instruction i;
    i.op = Opcode::Bne;
    i.rs = rs;
    i.rt = rt;
    i.imm = target;
    return i;
}

Instruction
Instruction::br(std::int64_t target)
{
    Instruction i;
    i.op = Opcode::Br;
    i.imm = target;
    return i;
}

Instruction
Instruction::wait(std::int64_t cycles)
{
    Instruction i;
    i.op = Opcode::QWait;
    i.imm = cycles;
    return i;
}

Instruction
Instruction::waitReg(RegIndex rs)
{
    Instruction i;
    i.op = Opcode::QWaitReg;
    i.rs = rs;
    return i;
}

void
PulseSlots::push_back(const PulseSlot &s)
{
    quma_assert(!full(), "Pulse supports at most ", kMaxPulseSlots,
                " slots");
    items[n++] = s;
}

Instruction
Instruction::pulse(PulseSlots slots)
{
    quma_assert(!slots.empty(), "Pulse supports 1..", kMaxPulseSlots,
                " slots");
    Instruction i;
    i.op = Opcode::Pulse;
    i.slots = slots;
    return i;
}

Instruction
Instruction::pulse1(QubitMask mask, std::uint8_t uop)
{
    return pulse({PulseSlot{mask, uop}});
}

Instruction
Instruction::mpg(QubitMask mask, std::int64_t duration_cycles)
{
    Instruction i;
    i.op = Opcode::Mpg;
    i.qmask = mask;
    i.imm = duration_cycles;
    return i;
}

Instruction
Instruction::md(QubitMask mask, RegIndex rd)
{
    Instruction i;
    i.op = Opcode::Md;
    i.qmask = mask;
    i.rd = rd;
    return i;
}

Instruction
Instruction::apply(std::uint8_t gate, QubitMask mask)
{
    Instruction i;
    i.op = Opcode::Apply;
    i.gate = gate;
    i.qmask = mask;
    return i;
}

Instruction
Instruction::measure(QubitMask mask, RegIndex rd)
{
    Instruction i;
    i.op = Opcode::MeasureQ;
    i.qmask = mask;
    i.rd = rd;
    return i;
}

Instruction
Instruction::cnot(RegIndex qt, RegIndex qc)
{
    Instruction i;
    i.op = Opcode::Cnot;
    i.rd = qt;
    i.rs = qc;
    return i;
}

std::string
maskToString(QubitMask mask)
{
    std::ostringstream oss;
    oss << "{";
    bool first = true;
    for (unsigned q = 0; q < 32; ++q) {
        if (mask & (QubitMask{1} << q)) {
            if (!first)
                oss << ", ";
            oss << "q" << q;
            first = false;
        }
    }
    oss << "}";
    return oss.str();
}

std::string
toString(const Instruction &inst)
{
    std::ostringstream oss;
    oss << mnemonic(inst.op);
    auto reg = [](RegIndex r) { return "r" + std::to_string(r); };
    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
        break;
      case Opcode::Mov:
        oss << " " << reg(inst.rd) << ", " << inst.imm;
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
        oss << " " << reg(inst.rd) << ", " << reg(inst.rs) << ", "
            << reg(inst.rt);
        break;
      case Opcode::Addi:
      case Opcode::Shl:
      case Opcode::Shr:
        oss << " " << reg(inst.rd) << ", " << reg(inst.rs) << ", "
            << inst.imm;
        break;
      case Opcode::Load:
        oss << " " << reg(inst.rd) << ", " << reg(inst.rs) << "["
            << inst.imm << "]";
        break;
      case Opcode::Store:
        oss << " " << reg(inst.rt) << ", " << reg(inst.rs) << "["
            << inst.imm << "]";
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        oss << " " << reg(inst.rs) << ", " << reg(inst.rt) << ", "
            << inst.imm;
        break;
      case Opcode::Br:
        oss << " " << inst.imm;
        break;
      case Opcode::QWait:
        oss << " " << inst.imm;
        break;
      case Opcode::QWaitReg:
        oss << " " << reg(inst.rs);
        break;
      case Opcode::Pulse: {
        bool first = true;
        for (const auto &s : inst.slots) {
            oss << (first ? " " : ", ") << "(" << maskToString(s.mask)
                << ", " << static_cast<unsigned>(s.uop) << ")";
            first = false;
        }
        break;
      }
      case Opcode::Mpg:
        oss << " " << maskToString(inst.qmask) << ", " << inst.imm;
        break;
      case Opcode::Md:
        oss << " " << maskToString(inst.qmask) << ", " << reg(inst.rd);
        break;
      case Opcode::Apply:
        oss << " " << static_cast<unsigned>(inst.gate) << ", "
            << maskToString(inst.qmask);
        break;
      case Opcode::MeasureQ:
        oss << " " << maskToString(inst.qmask) << ", " << reg(inst.rd);
        break;
      case Opcode::Cnot:
        oss << " q" << static_cast<unsigned>(inst.rd) << ", q"
            << static_cast<unsigned>(inst.rs);
        break;
      case Opcode::NumOpcodes:
        break;
    }
    return oss.str();
}

} // namespace quma::isa

#include "isa/encoding.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace quma::isa {

namespace {

void
checkImm32(std::int64_t imm, const Instruction &inst)
{
    if (imm < INT32_MIN || imm > INT32_MAX)
        fatal("immediate out of 32-bit range in '", toString(inst), "'");
}

std::uint64_t
imm32Field(std::int64_t imm)
{
    return static_cast<std::uint32_t>(static_cast<std::int32_t>(imm));
}

} // namespace

std::uint64_t
encode(const Instruction &inst)
{
    std::uint64_t w = 0;
    w = insertBits(w, 63, 58, static_cast<std::uint64_t>(inst.op));
    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
        w = insertBits(w, 57, 53, inst.rd);
        w = insertBits(w, 52, 48, inst.rs);
        w = insertBits(w, 47, 43, inst.rt);
        break;
      case Opcode::Mov:
      case Opcode::Addi:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Load:
      case Opcode::Store:
        checkImm32(inst.imm, inst);
        w = insertBits(w, 57, 53, inst.rd);
        w = insertBits(w, 52, 48, inst.rs);
        w = insertBits(w, 47, 43, inst.rt);
        w = insertBits(w, 31, 0, imm32Field(inst.imm));
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Br:
        checkImm32(inst.imm, inst);
        w = insertBits(w, 57, 53, inst.rs);
        w = insertBits(w, 52, 48, inst.rt);
        w = insertBits(w, 31, 0, imm32Field(inst.imm));
        break;
      case Opcode::QWait:
        checkImm32(inst.imm, inst);
        w = insertBits(w, 31, 0, imm32Field(inst.imm));
        break;
      case Opcode::QWaitReg:
        w = insertBits(w, 52, 48, inst.rs);
        break;
      case Opcode::Pulse: {
        if (inst.slots.empty())
            fatal("Pulse must carry 1..", kMaxPulseSlots, " slots");
        w = insertBits(w, 57, 56, inst.slots.size());
        for (std::size_t i = 0; i < inst.slots.size(); ++i) {
            const auto &s = inst.slots[i];
            if (s.mask > 0xff)
                fatal("Pulse qubit mask exceeds 8 encodable bits");
            unsigned base = static_cast<unsigned>(i) * 16;
            w = insertBits(w, base + 15, base + 8, s.mask);
            w = insertBits(w, base + 7, base, s.uop);
        }
        break;
      }
      case Opcode::Mpg:
        checkImm32(inst.imm, inst);
        if (inst.qmask > 0xffff)
            fatal("MPG qubit mask exceeds 16 encodable bits");
        w = insertBits(w, 55, 40, inst.qmask);
        w = insertBits(w, 31, 0, imm32Field(inst.imm));
        break;
      case Opcode::Md:
      case Opcode::MeasureQ:
        if (inst.qmask > 0xffff)
            fatal("MD/Measure qubit mask exceeds 16 encodable bits");
        w = insertBits(w, 55, 40, inst.qmask);
        w = insertBits(w, 39, 35, inst.rd);
        break;
      case Opcode::Apply:
        if (inst.qmask > 0xffff)
            fatal("Apply qubit mask exceeds 16 encodable bits");
        w = insertBits(w, 57, 50, inst.gate);
        w = insertBits(w, 15, 0, inst.qmask);
        break;
      case Opcode::Cnot:
        w = insertBits(w, 57, 53, inst.rd);
        w = insertBits(w, 52, 48, inst.rs);
        break;
      case Opcode::NumOpcodes:
        fatal("cannot encode invalid opcode");
    }
    return w;
}

Instruction
decode(std::uint64_t w)
{
    Instruction inst;
    auto opv = bits(w, 63, 58);
    if (opv >= static_cast<std::uint64_t>(Opcode::NumOpcodes))
        fatal("decode: invalid opcode value ", opv);
    inst.op = static_cast<Opcode>(opv);
    // Reject encodings in the reserved gaps.
    if (std::string(mnemonic(inst.op)) == "<invalid>")
        fatal("decode: reserved opcode value ", opv);

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
        inst.rd = static_cast<RegIndex>(bits(w, 57, 53));
        inst.rs = static_cast<RegIndex>(bits(w, 52, 48));
        inst.rt = static_cast<RegIndex>(bits(w, 47, 43));
        break;
      case Opcode::Mov:
      case Opcode::Addi:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Load:
      case Opcode::Store:
        inst.rd = static_cast<RegIndex>(bits(w, 57, 53));
        inst.rs = static_cast<RegIndex>(bits(w, 52, 48));
        inst.rt = static_cast<RegIndex>(bits(w, 47, 43));
        inst.imm = signExtend(bits(w, 31, 0), 32);
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Br:
        inst.rs = static_cast<RegIndex>(bits(w, 57, 53));
        inst.rt = static_cast<RegIndex>(bits(w, 52, 48));
        inst.imm = signExtend(bits(w, 31, 0), 32);
        break;
      case Opcode::QWait:
        inst.imm = signExtend(bits(w, 31, 0), 32);
        break;
      case Opcode::QWaitReg:
        inst.rs = static_cast<RegIndex>(bits(w, 52, 48));
        break;
      case Opcode::Pulse: {
        auto count = bits(w, 57, 56);
        if (count == 0 || count > kMaxPulseSlots)
            fatal("decode: Pulse with invalid slot count ", count);
        for (unsigned i = 0; i < count; ++i) {
            unsigned base = i * 16;
            PulseSlot s;
            s.mask = static_cast<QubitMask>(bits(w, base + 15, base + 8));
            s.uop = static_cast<std::uint8_t>(bits(w, base + 7, base));
            inst.slots.push_back(s);
        }
        break;
      }
      case Opcode::Mpg:
        inst.qmask = static_cast<QubitMask>(bits(w, 55, 40));
        inst.imm = signExtend(bits(w, 31, 0), 32);
        break;
      case Opcode::Md:
      case Opcode::MeasureQ:
        inst.qmask = static_cast<QubitMask>(bits(w, 55, 40));
        inst.rd = static_cast<RegIndex>(bits(w, 39, 35));
        break;
      case Opcode::Apply:
        inst.gate = static_cast<std::uint8_t>(bits(w, 57, 50));
        inst.qmask = static_cast<QubitMask>(bits(w, 15, 0));
        break;
      case Opcode::Cnot:
        inst.rd = static_cast<RegIndex>(bits(w, 57, 53));
        inst.rs = static_cast<RegIndex>(bits(w, 52, 48));
        break;
      case Opcode::NumOpcodes:
        break;
    }
    return inst;
}

std::vector<std::uint64_t>
encodeAll(const std::vector<Instruction> &prog)
{
    std::vector<std::uint64_t> out;
    out.reserve(prog.size());
    for (const auto &inst : prog)
        out.push_back(encode(inst));
    return out;
}

std::vector<Instruction>
decodeAll(const std::vector<std::uint64_t> &image)
{
    std::vector<Instruction> out;
    out.reserve(image.size());
    for (auto w : image)
        out.push_back(decode(w));
    return out;
}

} // namespace quma::isa

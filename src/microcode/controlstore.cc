#include "microcode/controlstore.hh"

#include "common/logging.hh"
#include "isa/nametable.hh"

namespace quma::microcode {

MicroStep
MicroStep::wait(Cycle cycles)
{
    MicroStep s;
    s.kind = Kind::Wait;
    s.cycles = cycles;
    return s;
}

MicroStep
MicroStep::pulse(QubitRole role, std::uint8_t uop)
{
    MicroStep s;
    s.kind = Kind::Pulse;
    s.slots.emplace_back(role, uop);
    return s;
}

MicroStep
MicroStep::pulseMulti(std::vector<std::pair<QubitRole, std::uint8_t>> slots)
{
    MicroStep s;
    s.kind = Kind::Pulse;
    s.slots = std::move(slots);
    return s;
}

void
QControlStore::define(std::uint8_t gate, Microprogram program)
{
    if (!store[gate])
        ++defined;
    store[gate] = std::move(program);
}

bool
QControlStore::contains(std::uint8_t gate) const
{
    return store[gate].has_value();
}

const Microprogram &
QControlStore::programFor(std::uint8_t gate) const
{
    if (!store[gate])
        fatal("Q control store has no microprogram for gate id ",
              static_cast<unsigned>(gate));
    return *store[gate];
}

void
QControlStore::expand(const Microprogram &prog, QubitMask all,
                      QubitMask target, QubitMask control,
                      RingBuffer<isa::Instruction> &out) const
{
    for (const auto &step : prog.body) {
        if (step.kind == MicroStep::Kind::Wait) {
            out.push_back(isa::Instruction::wait(
                static_cast<std::int64_t>(step.cycles)));
            continue;
        }
        isa::PulseSlots slots;
        for (const auto &[role, uop] : step.slots) {
            QubitMask mask = 0;
            switch (role) {
              case QubitRole::All:
                mask = all;
                break;
              case QubitRole::Target:
                mask = target;
                break;
              case QubitRole::Control:
                mask = control;
                break;
              case QubitRole::Both:
                mask = target | control;
                break;
            }
            if (mask == 0)
                fatal("microprogram '", prog.name,
                      "' references an unbound qubit role");
            slots.push_back({mask, uop});
        }
        out.push_back(isa::Instruction::pulse(slots));
    }
}

void
QControlStore::expandApply(std::uint8_t gate, QubitMask mask,
                           RingBuffer<isa::Instruction> &out) const
{
    expand(programFor(gate), mask, 0, 0, out);
}

void
QControlStore::expandCnot(unsigned qt, unsigned qc,
                          RingBuffer<isa::Instruction> &out) const
{
    QubitMask t = QubitMask{1} << qt;
    QubitMask c = QubitMask{1} << qc;
    expand(programFor(kCnotGate), t | c, t, c, out);
}

void
QControlStore::expandMeasure(QubitMask mask, RegIndex rd,
                             RingBuffer<isa::Instruction> &out) const
{
    out.push_back(
        isa::Instruction::mpg(mask, static_cast<std::int64_t>(msmtCycles)));
    out.push_back(isa::Instruction::md(mask, rd));
}

QControlStore
QControlStore::standard(Cycle gate_cycles, Cycle msmt_cycles)
{
    namespace u = isa::uops;
    QControlStore cs;
    cs.setMeasurementCycles(msmt_cycles);

    auto single = [&](std::uint8_t uop, const char *name) {
        Microprogram p;
        p.name = name;
        p.body.push_back(MicroStep::pulse(QubitRole::All, uop));
        p.body.push_back(MicroStep::wait(gate_cycles));
        cs.define(uop, std::move(p));
    };
    single(u::I, "I");
    single(u::X180, "X180");
    single(u::X90, "X90");
    single(u::Xm90, "Xm90");
    single(u::Y180, "Y180");
    single(u::Y90, "Y90");
    single(u::Ym90, "Ym90");
    // Composite micro-operations are still one Pulse at this level:
    // the u-op unit expands them into codeword sequences. Their
    // duration spans the emulated sequence.
    {
        Microprogram p;
        p.name = "Z180";
        p.body.push_back(MicroStep::pulse(QubitRole::All, u::Z180));
        p.body.push_back(MicroStep::wait(2 * gate_cycles));
        cs.define(u::Z180, std::move(p));
    }
    {
        Microprogram p;
        p.name = "Z90";
        p.body.push_back(MicroStep::pulse(QubitRole::All, u::Z90));
        p.body.push_back(MicroStep::wait(3 * gate_cycles));
        cs.define(u::Z90, std::move(p));
    }
    {
        Microprogram p;
        p.name = "Zm90";
        p.body.push_back(MicroStep::pulse(QubitRole::All, u::Zm90));
        p.body.push_back(MicroStep::wait(3 * gate_cycles));
        cs.define(u::Zm90, std::move(p));
    }
    {
        Microprogram p;
        p.name = "H";
        p.body.push_back(MicroStep::pulse(QubitRole::All, u::H));
        p.body.push_back(MicroStep::wait(2 * gate_cycles));
        cs.define(u::H, std::move(p));
    }

    // Paper Algorithm 2: CNOT qt, qc = Ym90(t); CZ; Y90(t).
    {
        Microprogram p;
        p.name = "CNOT";
        p.body.push_back(MicroStep::pulse(QubitRole::Target, u::Ym90));
        p.body.push_back(MicroStep::wait(gate_cycles));
        p.body.push_back(MicroStep::pulse(QubitRole::Both, u::Cz));
        p.body.push_back(MicroStep::wait(2 * gate_cycles));
        p.body.push_back(MicroStep::pulse(QubitRole::Target, u::Y90));
        p.body.push_back(MicroStep::wait(gate_cycles));
        cs.define(kCnotGate, std::move(p));
    }
    return cs;
}

} // namespace quma::microcode

#include "quma/qmb.hh"

#include <bit>

#include "common/logging.hh"
#include "isa/nametable.hh"

namespace quma::core {

unsigned
QubitRouting::awgFor(unsigned qubit) const
{
    quma_assert(qubit < driveAwg.size(), "qubit has no drive AWG");
    return driveAwg[qubit];
}

unsigned
QubitRouting::mduFor(unsigned qubit) const
{
    quma_assert(qubit < mdu.size(), "qubit has no MDU");
    return mdu[qubit];
}

QuantumPipeline::QuantumPipeline(microcode::QControlStore store,
                                 QubitRouting routing,
                                 timing::TimingController &timing,
                                 TraceRecorder &trace,
                                 std::size_t buffer_depth,
                                 unsigned drain_rate)
    : cs(std::move(store)), route(std::move(routing)), tcu(timing),
      recorder(trace), depth(buffer_depth), drainRate(drain_rate)
{
    if (buffer_depth == 0 || drain_rate == 0)
        fatal("QuantumPipeline needs positive buffer depth and drain "
              "rate");
}

bool
QuantumPipeline::tryDispatch(const isa::Instruction &inst)
{
    // Size the expansion from the microprogram before building it: a
    // backpressured dispatch is retried, and must cost no expansion.
    auto fits = [&](std::size_t length) {
        return buffer.size() + length <= depth;
    };
    switch (inst.op) {
      case isa::Opcode::Apply:
        if (!fits(cs.programFor(inst.gate).body.size()))
            return false;
        cs.expandApply(inst.gate, inst.qmask, buffer);
        return true;
      case isa::Opcode::MeasureQ:
        if (!fits(microcode::QControlStore::kMeasureLength))
            return false;
        cs.expandMeasure(inst.qmask, inst.rd, buffer);
        return true;
      case isa::Opcode::Cnot:
        if (!fits(cs.programFor(microcode::QControlStore::kCnotGate)
                      .body.size()))
            return false;
        cs.expandCnot(inst.rd, inst.rs, buffer);
        return true;
      case isa::Opcode::QWait:
      case isa::Opcode::Pulse:
      case isa::Opcode::Mpg:
      case isa::Opcode::Md:
        if (!fits(1))
            return false;
        buffer.push_back(inst);
        return true;
      case isa::Opcode::QWaitReg:
        panic("QWaitReg must be resolved to Wait before dispatch");
      default:
        panic("tryDispatch called with classical instruction '",
              isa::toString(inst), "'");
    }
}

bool
QuantumPipeline::pushOne(const isa::Instruction &inst)
{
    switch (inst.op) {
      case isa::Opcode::QWait: {
        // No pre-check: a full queue rejects the push itself, which
        // also feeds the saturation counters (pushFailed).
        TimingLabel next = label + 1;
        if (!tcu.pushTimePoint(static_cast<Cycle>(inst.imm), next))
            return false;
        label = next;
        return true;
      }
      case isa::Opcode::Pulse: {
        // All-or-nothing: verify capacity across the addressed
        // queues first. One event is pushed per (AWG, slot).
        std::vector<std::pair<unsigned, timing::PulseEvent>> pushes;
        for (const auto &slot : inst.slots) {
            // A CZ micro-operation is one flux pulse spanning both
            // qubits: route it whole (via the first qubit's unit)
            // instead of splitting it per drive AWG.
            if (slot.uop == isa::uops::Cz) {
                unsigned first = 0;
                while (first < 32 &&
                       !(slot.mask & (QubitMask{1} << first)))
                    ++first;
                quma_assert(first < 32, "CZ with empty mask");
                pushes.emplace_back(
                    route.awgFor(first),
                    timing::PulseEvent{label, slot.mask, slot.uop});
                continue;
            }
            // Group the slot's qubits by drive AWG.
            std::vector<QubitMask> byAwg(route.driveAwg.size(), 0);
            for (unsigned q = 0; q < 32; ++q) {
                if (!(slot.mask & (QubitMask{1} << q)))
                    continue;
                unsigned awg = route.awgFor(q);
                if (awg >= byAwg.size())
                    byAwg.resize(awg + 1, 0);
                byAwg[awg] |= QubitMask{1} << q;
            }
            for (unsigned awg = 0;
                 awg < static_cast<unsigned>(byAwg.size()); ++awg) {
                if (byAwg[awg] == 0)
                    continue;
                pushes.emplace_back(
                    awg, timing::PulseEvent{label, byAwg[awg],
                                            slot.uop});
            }
        }
        for (const auto &[awg, ev] : pushes)
            if (tcu.pulseQueueFull(awg))
                return false;
        for (const auto &[awg, ev] : pushes)
            tcu.pushPulse(awg, ev);
        return true;
      }
      case isa::Opcode::Mpg: {
        if (tcu.mpgQueueFull())
            return false;
        return tcu.pushMpg(timing::MpgEvent{
            label, inst.qmask, static_cast<Cycle>(inst.imm)});
      }
      case isa::Opcode::Md: {
        bool single =
            std::popcount(static_cast<std::uint32_t>(inst.qmask)) == 1;
        std::vector<std::pair<unsigned, timing::MdEvent>> pushes;
        for (unsigned q = 0; q < 32; ++q) {
            if (!(inst.qmask & (QubitMask{1} << q)))
                continue;
            pushes.emplace_back(
                route.mduFor(q),
                timing::MdEvent{label, QubitMask{1} << q, inst.rd,
                                single, q});
        }
        if (pushes.empty())
            fatal("MD with empty qubit mask");
        for (const auto &[mdu, ev] : pushes)
            if (tcu.mdQueueFull(mdu))
                return false;
        for (const auto &[mdu, ev] : pushes)
            tcu.pushMd(mdu, ev);
        return true;
      }
      default:
        panic("QMB holds a non-QuMIS instruction '",
              isa::toString(inst), "'");
    }
}

void
QuantumPipeline::drainAt(Cycle now)
{
    if (drainedThisCycle && lastDrainCycle == now)
        return;
    lastDrainCycle = now;
    drainedThisCycle = true;
    blockedOnQueue = false;
    for (unsigned i = 0; i < drainRate && !buffer.empty(); ++i) {
        const isa::Instruction &front = buffer.front();
        if (!pushOne(front)) {
            // Backpressure: park until a fire frees queue space (the
            // machine re-polls after every event).
            blockedOnQueue = true;
            break;
        }
        recorder.recordMicroInst({now, front});
        buffer.pop_front();
        ++issued;
    }
}

std::optional<Cycle>
QuantumPipeline::nextEventCycle() const
{
    if (buffer.empty() || blockedOnQueue)
        return std::nullopt;
    return lastDrainCycle + 1;
}

void
QuantumPipeline::reset()
{
    buffer.clear();
    label = 0;
    lastDrainCycle = 0;
    drainedThisCycle = false;
    blockedOnQueue = false;
    issued = 0;
}

} // namespace quma::core

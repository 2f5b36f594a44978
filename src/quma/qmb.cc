#include "quma/qmb.hh"

#include <algorithm>
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

namespace {

/** The buffer depth, once it and the drain rate are checked. */
std::size_t
checkedDepth(std::size_t depth, unsigned drain_rate)
{
    if (depth == 0 || drain_rate == 0)
        fatal("QuantumPipeline needs positive buffer depth and drain "
              "rate");
    return depth;
}

/**
 * Room check of one queue for an instruction that sends `demand` of
 * its events there: they fit when the queue has that many entries
 * free. A queue too shallow to ever hold them would stall the
 * pipeline forever, so that is a configuration error.
 */
bool
roomFor(std::size_t demand, std::size_t free, std::size_t capacity,
        const char *queue, const isa::Instruction &inst)
{
    if (demand > capacity)
        fatal("'", isa::toString(inst), "' sends ", demand,
              " events into one ", queue, " queue of depth ", capacity,
              "; it can never issue");
    return demand <= free;
}

} // namespace

QuantumPipeline::QuantumPipeline(microcode::QControlStore store,
                                 QubitRouting routing,
                                 timing::TimingController &timing,
                                 TraceRecorder &trace,
                                 std::size_t buffer_depth,
                                 unsigned drain_rate)
    : cs(std::move(store)), route(std::move(routing)), tcu(timing),
      recorder(trace),
      buffer(checkedDepth(buffer_depth, drain_rate)),
      drainRate(drain_rate)
{
    for (unsigned q = 0; q < route.driveAwg.size(); ++q) {
        unsigned awg = route.driveAwg[q];
        if (awg >= awgQubits.size())
            awgQubits.resize(awg + 1, 0);
        awgQubits[awg] |= QubitMask{1} << q;
    }
    pulseDemand.resize(awgQubits.size());
    for (unsigned mdu : route.mdu)
        mdDemand.resize(std::max<std::size_t>(mdDemand.size(), mdu + 1));
}

bool
QuantumPipeline::tryDispatch(const isa::Instruction &inst)
{
    // Size the expansion from the microprogram before building it: a
    // backpressured dispatch is retried, and must cost no expansion.
    auto fits = [&](std::size_t length) {
        return buffer.size() + length <= buffer.capacity();
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

/**
 * Call f(awg, event) for each pulse-queue push of a Pulse, in slot
 * order and, within a slot, in AWG order: one event per (slot, AWG)
 * pair carrying the slot's qubits that AWG drives. Stops and returns
 * false as soon as f does.
 */
template <typename F>
bool
QuantumPipeline::forEachPulse(const isa::Instruction &inst, F &&f) const
{
    for (const auto &slot : inst.slots) {
        // A CZ micro-operation is one flux pulse spanning both
        // qubits: route it whole (via the first qubit's unit)
        // instead of splitting it per drive AWG.
        if (slot.uop == isa::uops::Cz) {
            quma_assert(slot.mask != 0, "CZ with empty mask");
            unsigned first = static_cast<unsigned>(
                std::countr_zero(slot.mask));
            if (!f(route.awgFor(first),
                   timing::PulseEvent{label, slot.mask, slot.uop}))
                return false;
            continue;
        }
        QubitMask covered = 0;
        for (unsigned awg = 0; awg < awgQubits.size(); ++awg) {
            QubitMask mask = slot.mask & awgQubits[awg];
            covered |= mask;
            if (mask != 0 &&
                !f(awg, timing::PulseEvent{label, mask, slot.uop}))
                return false;
        }
        quma_assert(covered == slot.mask, "qubit has no drive AWG");
    }
    return true;
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
        // All-or-nothing: one event is pushed per (AWG, slot), and
        // slots may share an AWG, so each queue's events are counted
        // against its free entries before any is pushed.
        std::fill(pulseDemand.begin(), pulseDemand.end(), 0);
        bool room = forEachPulse(
            inst, [&](unsigned awg, const timing::PulseEvent &) {
                return roomFor(++pulseDemand[awg],
                               tcu.pulseQueueFree(awg),
                               tcu.config().pulseQueueCapacity, "pulse",
                               inst);
            });
        if (!room)
            return false;
        forEachPulse(inst,
                     [this](unsigned awg, const timing::PulseEvent &ev) {
                         tcu.pushPulse(awg, ev);
                         return true;
                     });
        return true;
      }
      case isa::Opcode::Mpg: {
        if (tcu.mpgQueueFull())
            return false;
        return tcu.pushMpg(timing::MpgEvent{
            label, inst.qmask, static_cast<Cycle>(inst.imm)});
      }
      case isa::Opcode::Md: {
        // One event per addressed qubit, into that qubit's MD queue;
        // all-or-nothing like Pulse, and qubits may share an MDU.
        if (inst.qmask == 0)
            fatal("MD with empty qubit mask");
        bool single = std::popcount(inst.qmask) == 1;
        std::fill(mdDemand.begin(), mdDemand.end(), 0);
        for (QubitMask m = inst.qmask; m != 0; m &= m - 1) {
            unsigned mdu =
                route.mduFor(static_cast<unsigned>(std::countr_zero(m)));
            if (!roomFor(++mdDemand[mdu], tcu.mdQueueFree(mdu),
                         tcu.config().mdQueueCapacity, "MD", inst))
                return false;
        }
        for (QubitMask m = inst.qmask; m != 0; m &= m - 1) {
            auto q = static_cast<unsigned>(std::countr_zero(m));
            tcu.pushMd(route.mduFor(q),
                       timing::MdEvent{label, QubitMask{1} << q, inst.rd,
                                       single, q});
        }
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

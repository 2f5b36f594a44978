/**
 * @file
 * Second-tier machine tests: the paper's load/add/store result
 * accumulation (Table 5 QIS listing), backpressure safety,
 * multi-AWG routing, randomized encode/assembler properties, and
 * timing-controller property sweeps.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "isa/disassembler.hh"
#include "isa/encoding.hh"
#include "quma/machine.hh"

namespace quma::core {
namespace {

/**
 * Paper Table 5 (QIS column): accumulate measurement results into
 * data memory across rounds with Load/Add/Store -- the hierarchical
 * averaging loop of Algorithm 1.
 */
TEST(MachineExtra, AccumulateResultsInDataMemory)
{
    MachineConfig cfg;
    cfg.qubits[0].readout.noiseSigma = 40.0;
    QumaMachine m(cfg);
    m.loadAssembly(R"(
        mov r1, 0
        mov r2, 10            # rounds
        mov r3, 0             # ResultMemAddr
        mov r15, 40000
        Outer_Loop:
        QNopReg r15
        Apply X180, q0
        Measure q0, r7
        Wait 600
        load r9, r3[0]
        add r9, r9, r7
        store r9, r3[0]
        addi r1, r1, 1
        bne r1, r2, Outer_Loop
        halt
    )");
    auto r = m.run(20'000'000);
    EXPECT_TRUE(r.halted);
    // Every X180 shot should read |1> except rare readout decay.
    std::int64_t sum = m.execController().readDataMemory(0);
    EXPECT_GE(sum, 8);
    EXPECT_LE(sum, 10);
}

TEST(MachineExtra, BackpressureThrottlesWithoutViolations)
{
    // Tiny queues force constant dispatch retries; with adequate
    // slack in the program the output timing must stay clean --
    // capacity throttles the pipeline, it never corrupts timing.
    MachineConfig cfg;
    cfg.timing.timingQueueCapacity = 2;
    cfg.timing.pulseQueueCapacity = 2;
    cfg.timing.mpgQueueCapacity = 2;
    cfg.timing.mdQueueCapacity = 2;
    cfg.qmbDepth = 4;
    QumaMachine m(cfg);
    std::string src = "mov r15, 40000\nQNopReg r15\n";
    for (int i = 0; i < 30; ++i) {
        src += "Pulse {q0}, X90\nWait 100\n";
    }
    src += "Wait 600\nhalt";
    m.loadAssembly(src);
    auto r = m.run(10'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.violations.clean());
    EXPECT_GT(m.execController().stats().dispatchRetries, 0u);
}

/**
 * Regression guard for the machine pool: reset() must clear the
 * timing event-queue saturation counters (pushFailed, high-water)
 * along with the exec/pipeline counters, or a pooled machine would
 * leak one job's backpressure statistics into the next job's
 * stats() -- and into any scheduler admission policy reading them.
 */
TEST(MachineExtra, ResetClearsQueueSaturationCounters)
{
    MachineConfig cfg;
    cfg.timing.timingQueueCapacity = 2;
    cfg.timing.pulseQueueCapacity = 2;
    QumaMachine m(cfg);
    std::string src = "mov r15, 40000\nQNopReg r15\n";
    for (int i = 0; i < 30; ++i)
        src += "Pulse {q0}, X90\nWait 100\n";
    src += "Wait 600\nhalt";
    m.loadAssembly(src);
    ASSERT_TRUE(m.run(10'000'000).halted);

    MachineStats before = m.stats();
    ASSERT_GT(before.queues.totalPushFailed(), 0u);
    ASSERT_GT(before.queues.timing.highWater, 0u);
    ASSERT_GT(before.microInstsIssued, 0u);

    m.reset();
    MachineStats after = m.stats();
    EXPECT_EQ(after.queues.totalPushFailed(), 0u);
    EXPECT_EQ(after.queues.timing.highWater, 0u);
    EXPECT_EQ(after.queues.mpg.pushFailed, 0u);
    for (const auto &q : after.queues.pulse) {
        EXPECT_EQ(q.pushFailed, 0u);
        EXPECT_EQ(q.highWater, 0u);
    }
    for (const auto &q : after.queues.md) {
        EXPECT_EQ(q.pushFailed, 0u);
        EXPECT_EQ(q.highWater, 0u);
    }
    EXPECT_EQ(after.exec.classicalExecuted, 0u);
    EXPECT_EQ(after.exec.dispatchRetries, 0u);
    EXPECT_EQ(after.microInstsIssued, 0u);

    // And the seeded reset used by the runtime clears them too.
    m.loadAssembly(src);
    ASSERT_TRUE(m.run(10'000'000).halted);
    m.reset(0x1234, 0x5678);
    EXPECT_EQ(m.stats().queues.totalPushFailed(), 0u);
    EXPECT_EQ(m.stats().queues.timing.highWater, 0u);
}

/** What a QuantumPipeline delivered through its timing queues. */
struct FanOutRun
{
    std::size_t delivered = 0;
    std::size_t pushFailed = 0;
    bool clean = false;
    bool drained = false;
};

/**
 * Two qubits share AWG 0 and MDU 0, and every pulse and MD queue
 * holds `depth` events. `opener` (one event, label 0) takes a queue
 * entry, a time point follows, then `fanout` sends two events with
 * label 1 into that same queue. Label 0 fires only after the first
 * drain, so the fan-out meets its queue with depth - 1 free entries.
 */
FanOutRun
runFanOut(std::size_t depth, const isa::Instruction &opener,
          const isa::Instruction &fanout)
{
    timing::TimingConfig tc;
    tc.pulseQueueCapacity = depth;
    tc.mdQueueCapacity = depth;
    tc.numPulseQueues = 1;
    tc.numMdQueues = 1;
    timing::TimingController tcu(tc);
    FanOutRun run;
    tcu.setPulseSink([&](unsigned, Cycle, const timing::PulseEvent &) {
        ++run.delivered;
    });
    tcu.setMdSink([&](unsigned, Cycle, const timing::MdEvent &) {
        ++run.delivered;
    });
    TraceRecorder trace;
    QuantumPipeline qp(microcode::QControlStore::standard(4, 300),
                       QubitRouting{{0, 0}, {0, 0}}, tcu, trace);
    for (const isa::Instruction &inst :
         {opener, isa::Instruction::wait(100), fanout})
        EXPECT_TRUE(qp.tryDispatch(inst));
    Cycle now = 0;
    auto drain = [&] {
        for (int i = 0; i < 8; ++i)
            qp.drainAt(++now);
    };
    drain();
    tcu.start(0); // label 0 fires: the opener leaves its queue
    drain();
    tcu.advanceTo(now + 1000);
    run.pushFailed = tcu.queueStats().totalPushFailed();
    run.clean = tcu.violations().clean();
    run.drained = qp.empty() && tcu.allQueuesEmpty();
    return run;
}

/**
 * One instruction can fan several events into ONE timing queue: a
 * Pulse with two slots on qubits of the same AWG, or an MD over two
 * qubits that share an MDU. The room check must count those events
 * against the queue's free entries -- not test "not full" once per
 * event, which let the second push fail and its event vanish. With
 * one free entry the fan-out waits for room and then issues whole;
 * with a queue too shallow to ever hold it, the machine refuses
 * loudly instead of dropping an event.
 */
TEST(MachineExtra, QueueFanOutCountsFreeEntriesPerQueue)
{
    using isa::Instruction;
    const Instruction pulseFanOut = Instruction::pulse(
        {{QubitMask{1}, isa::uops::X180}, {QubitMask{1}, isa::uops::Y90}});
    const Instruction mdFanOut = Instruction::md(QubitMask{0b11}, 7);
    const std::pair<Instruction, Instruction> cases[] = {
        {Instruction::pulse1(QubitMask{1}, isa::uops::X90), pulseFanOut},
        {Instruction::md(QubitMask{1}, 6), mdFanOut},
    };
    for (const auto &[opener, fanout] : cases) {
        FanOutRun run = runFanOut(2, opener, fanout);
        EXPECT_EQ(run.pushFailed, 0u) << isa::toString(fanout);
        EXPECT_EQ(run.delivered, 3u) << isa::toString(fanout);
        EXPECT_TRUE(run.clean) << isa::toString(fanout);
        EXPECT_TRUE(run.drained) << isa::toString(fanout);

        setLogQuiet(true);
        EXPECT_THROW(runFanOut(1, opener, fanout), FatalError)
            << isa::toString(fanout);
        setLogQuiet(false);
    }
}

TEST(MachineExtra, HorizontalPulseRoutesAcrossAwgs)
{
    MachineConfig cfg;
    cfg.qubits.assign(3, qsim::paperQubitParams());
    cfg.qubits[1].freqHz = 6.2e9;
    cfg.qubits[2].freqHz = 6.0e9;
    cfg.numAwgs = 3;
    cfg.driveAwg = {0, 1, 2};
    cfg.traceEnabled = true;
    QumaMachine m(cfg);
    m.loadAssembly(R"(
        Wait 100
        Pulse ({q0, q1, q2}, X180)
        Wait 600
        halt
    )");
    auto r = m.run(1'000'000);
    EXPECT_TRUE(r.violations.clean());
    // One micro-op fire per AWG, all at the same TD.
    const auto &uops = m.trace().uopFires();
    ASSERT_EQ(uops.size(), 3u);
    EXPECT_EQ(uops[0].td, uops[1].td);
    EXPECT_EQ(uops[1].td, uops[2].td);
    bool sawAwg[3] = {false, false, false};
    for (const auto &u : uops)
        sawAwg[u.awg] = true;
    EXPECT_TRUE(sawAwg[0] && sawAwg[1] && sawAwg[2]);
    // Every qubit flipped.
    for (unsigned q = 0; q < 3; ++q)
        EXPECT_GT(m.chip().probabilityOne(q), 0.99);
}

TEST(MachineExtra, DispatchOrderPreservedAcrossExpansion)
{
    // QIS instructions expanding to different lengths must still
    // produce monotonically ordered timing labels.
    MachineConfig cfg;
    cfg.traceEnabled = true;
    QumaMachine m(cfg);
    m.loadAssembly(R"(
        Wait 50
        Apply Z90, q0
        Apply X180, q0
        Apply H, q0
        Measure q0, r7
        Wait 600
        halt
    )");
    auto r = m.run(1'000'000);
    EXPECT_TRUE(r.violations.clean());
    const auto &cws = m.trace().codewords();
    // Z90 = 3 codewords, X180 = 1, H = 2.
    ASSERT_EQ(cws.size(), 6u);
    for (std::size_t i = 1; i < cws.size(); ++i)
        EXPECT_GT(cws[i].td, cws[i - 1].td);
}

// ------------------------------------------- randomized property tests

isa::Instruction
randomInstruction(Rng &rng)
{
    switch (rng.uniformInt(0, 9)) {
      case 0:
        return isa::Instruction::mov(
            static_cast<RegIndex>(rng.uniformInt(0, 31)),
            static_cast<std::int64_t>(rng.uniformInt(0, 1 << 30)) -
                (1 << 29));
      case 1:
        return isa::Instruction::add(
            static_cast<RegIndex>(rng.uniformInt(0, 31)),
            static_cast<RegIndex>(rng.uniformInt(0, 31)),
            static_cast<RegIndex>(rng.uniformInt(0, 31)));
      case 2:
        return isa::Instruction::load(
            static_cast<RegIndex>(rng.uniformInt(0, 31)),
            static_cast<RegIndex>(rng.uniformInt(0, 31)),
            static_cast<std::int64_t>(rng.uniformInt(0, 4095)));
      case 3:
        return isa::Instruction::bne(
            static_cast<RegIndex>(rng.uniformInt(0, 31)),
            static_cast<RegIndex>(rng.uniformInt(0, 31)),
            static_cast<std::int64_t>(rng.uniformInt(0, 10000)));
      case 4:
        return isa::Instruction::wait(
            static_cast<std::int64_t>(rng.uniformInt(1, 100000)));
      case 5: {
        isa::PulseSlots slots;
        auto n = rng.uniformInt(1, isa::kMaxPulseSlots);
        for (std::uint64_t i = 0; i < n; ++i)
            slots.push_back(
                {static_cast<QubitMask>(rng.uniformInt(1, 255)),
                 static_cast<std::uint8_t>(rng.uniformInt(0, 12))});
        return isa::Instruction::pulse(slots);
      }
      case 6:
        return isa::Instruction::mpg(
            static_cast<QubitMask>(rng.uniformInt(1, 0xffff)),
            static_cast<std::int64_t>(rng.uniformInt(1, 1000)));
      case 7:
        return isa::Instruction::md(
            static_cast<QubitMask>(rng.uniformInt(1, 0xffff)),
            static_cast<RegIndex>(rng.uniformInt(0, 31)));
      case 8:
        return isa::Instruction::apply(
            static_cast<std::uint8_t>(rng.uniformInt(0, 12)),
            static_cast<QubitMask>(rng.uniformInt(1, 0xffff)));
      default:
        return isa::Instruction::waitReg(
            static_cast<RegIndex>(rng.uniformInt(0, 31)));
    }
}

class RandomizedEncoding : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RandomizedEncoding, EncodeDecodeIdentity)
{
    Rng rng(GetParam());
    for (int i = 0; i < 500; ++i) {
        auto inst = randomInstruction(rng);
        EXPECT_EQ(isa::decode(isa::encode(inst)), inst)
            << isa::toString(inst);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEncoding,
                         ::testing::Values(1u, 2u, 3u, 4u));

class RandomizedDisassembly : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RandomizedDisassembly, AssembleDisassembleIdentity)
{
    Rng rng(100 + GetParam());
    isa::Program prog;
    for (int i = 0; i < 60; ++i) {
        auto inst = randomInstruction(rng);
        if (isa::isBranch(inst.op))
            inst.imm = static_cast<std::int64_t>(
                rng.uniformInt(0, 59)); // keep targets in range
        prog.push(inst);
    }
    isa::Disassembler dis;
    isa::Assembler as;
    isa::Program again = as.assemble(dis.render(prog));
    ASSERT_EQ(again.size(), prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i)
        EXPECT_EQ(again.at(i), prog.at(i)) << "instruction " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDisassembly,
                         ::testing::Values(1u, 2u, 3u));

class RandomizedTimingProperty
    : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RandomizedTimingProperty, FiresAtCumulativeIntervals)
{
    // Property: label k fires exactly at the cumulative sum of the
    // first k intervals, for any interval sequence.
    Rng rng(200 + GetParam());
    timing::TimingController tcu;
    std::vector<std::pair<Cycle, TimingLabel>> fires;
    tcu.setFireObserver([&](Cycle td, TimingLabel label) {
        fires.emplace_back(td, label);
    });
    std::vector<Cycle> intervals;
    Cycle total = 0;
    for (int k = 0; k < 40; ++k) {
        Cycle iv = rng.uniformInt(1, 5000);
        intervals.push_back(iv);
        total += iv;
        tcu.pushTimePoint(iv, static_cast<TimingLabel>(k + 1));
    }
    tcu.start(0);
    tcu.advanceTo(total);
    ASSERT_EQ(fires.size(), 41u); // implicit label 0 + 40
    Cycle cum = 0;
    for (int k = 0; k < 40; ++k) {
        cum += intervals[k];
        EXPECT_EQ(fires[k + 1].first, cum);
        EXPECT_EQ(fires[k + 1].second,
                  static_cast<TimingLabel>(k + 1));
    }
    EXPECT_TRUE(tcu.violations().clean());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedTimingProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

} // namespace
} // namespace quma::core

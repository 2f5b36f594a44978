/**
 * @file
 * Integration tests of the assembled machine: the Table 5 decode
 * timeline, the determinism-under-jitter property at the heart of
 * the paper, feedback control, hazard injection, and the QIS/QuMIS
 * equivalence.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "experiments/allxy.hh"
#include "quma/machine.hh"

namespace quma::core {
namespace {

/** The paper's two-round AllXY prefix (I,I then X180,X180). */
const char *kTwoRounds = R"(
    mov r15, 40000
    QNopReg r15
    Pulse {q0}, I
    Wait 4
    Pulse {q0}, I
    Wait 4
    MPG {q0}, 300
    MD {q0}, r7
    QNopReg r15
    Pulse {q0}, X180
    Wait 4
    Pulse {q0}, X180
    Wait 4
    MPG {q0}, 300
    MD {q0}, r7
    Wait 500
    halt
)";

TEST(Machine, Table5DecodeTimeline)
{
    MachineConfig cfg;
    cfg.traceEnabled = true;
    QumaMachine m(cfg);
    m.loadAssembly(kTwoRounds);
    auto r = m.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.violations.clean());

    // Micro-operations reach the u-op units at the label times of
    // paper Table 5: TD = 40000, 40004, 80008, 80012.
    const auto &uops = m.trace().uopFires();
    ASSERT_EQ(uops.size(), 4u);
    EXPECT_EQ(uops[0].td, 40000u);
    EXPECT_EQ(uops[1].td, 40004u);
    EXPECT_EQ(uops[2].td, 80008u);
    EXPECT_EQ(uops[3].td, 80012u);
    EXPECT_EQ(uops[0].uop, 0);
    EXPECT_EQ(uops[2].uop, 1);

    // Codeword triggers at TD + Delta (Delta = 2 cycles).
    const auto &cws = m.trace().codewords();
    ASSERT_EQ(cws.size(), 4u);
    EXPECT_EQ(cws[0].td, 40002u);
    EXPECT_EQ(cws[1].td, 40006u);
    EXPECT_EQ(cws[2].td, 80010u);
    EXPECT_EQ(cws[3].td, 80014u);
    EXPECT_EQ(cws[0].codeword, 0);
    EXPECT_EQ(cws[3].codeword, 1);

    // Measurement triggers at TD = 40008 and 80016 (MPG/MD bypass
    // the u-op stage).
    const auto &mpgs = m.trace().mpgFires();
    ASSERT_EQ(mpgs.size(), 2u);
    EXPECT_EQ(mpgs[0].td, 40008u);
    EXPECT_EQ(mpgs[1].td, 80016u);

    // Analog pulses leave the CTPG exactly 80 ns after the trigger.
    const auto &pulses = m.trace().pulses();
    ASSERT_EQ(pulses.size(), 4u);
    EXPECT_EQ(pulses[0].t0Ns, cyclesToNs(40002 + 16));
    EXPECT_EQ(pulses[1].t0Ns - pulses[0].t0Ns, 20);
}

TEST(Machine, XXReturnsToGroundIIStaysGround)
{
    MachineConfig cfg;
    cfg.traceEnabled = true;
    QumaMachine m(cfg);
    m.loadAssembly(kTwoRounds);
    m.run(2'000'000);
    const auto &msmts = m.trace().measurements();
    ASSERT_EQ(msmts.size(), 2u);
    EXPECT_FALSE(msmts[0].trueOutcome); // I, I
    EXPECT_FALSE(msmts[1].trueOutcome); // X180, X180 = identity
}

TEST(Machine, RepeatedX180ReadsMostlyOne)
{
    // Readout is stochastic (T1 decay inside the window plus noise),
    // so assert on the ensemble: 16 shots with full re-init waits.
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.configureDataCollection(1);
    m.loadAssembly(R"(
        mov r15, 40000
        mov r1, 0
        mov r2, 16
        L:
        QNopReg r15
        Pulse {q0}, X180
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        addi r1, r1, 1
        bne r1, r2, L
        halt
    )");
    m.run(20'000'000);
    EXPECT_EQ(m.dataCollector().sampleCount(), 16u);
    EXPECT_GT(m.dataCollector().bitAverages()[0], 0.8);
}

/**
 * The core property of queue-based timing control: instruction
 * execution timing is non-deterministic, output timing is exact.
 * Two runs with aggressive random stall injection under different
 * seeds must produce IDENTICAL pulse and measurement timelines.
 */
TEST(Machine, OutputTimingInvariantUnderExecutionJitter)
{
    auto runWithSeed = [](std::uint64_t seed) {
        MachineConfig cfg;
        cfg.traceEnabled = true;
        cfg.exec.stallInjection = true;
        cfg.exec.stallProbability = 0.5;
        cfg.exec.maxStallCycles = 8;
        cfg.exec.seed = seed;
        QumaMachine m(cfg);
        m.loadAssembly(kTwoRounds);
        auto r = m.run(2'000'000);
        EXPECT_TRUE(r.violations.clean());
        return std::make_pair(m.trace().codewords(),
                              m.trace().mpgFires());
    };
    auto [cwA, mpgA] = runWithSeed(1);
    auto [cwB, mpgB] = runWithSeed(0xdeadbeef);
    ASSERT_EQ(cwA.size(), cwB.size());
    for (std::size_t i = 0; i < cwA.size(); ++i) {
        EXPECT_EQ(cwA[i].td, cwB[i].td) << "codeword " << i;
        EXPECT_EQ(cwA[i].codeword, cwB[i].codeword);
    }
    ASSERT_EQ(mpgA.size(), mpgB.size());
    for (std::size_t i = 0; i < mpgA.size(); ++i)
        EXPECT_EQ(mpgA[i].td, mpgB[i].td);
}

TEST(Machine, QisAndQumisProduceIdenticalTimelines)
{
    // Apply/Measure (expanded by the control store at runtime) must
    // generate the same pulse schedule as hand-written QuMIS.
    auto timeline = [](const std::string &src) {
        MachineConfig cfg;
        cfg.traceEnabled = true;
        QumaMachine m(cfg);
        m.loadAssembly(src);
        m.run(2'000'000);
        return m.trace().codewords();
    };
    auto qis = timeline(R"(
        Wait 100
        Apply X180, q0
        Apply Y90, q0
        Measure q0, r7
        Wait 600
        halt
    )");
    auto qumis = timeline(R"(
        Wait 100
        Pulse {q0}, X180
        Wait 4
        Pulse {q0}, Y90
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        halt
    )");
    ASSERT_EQ(qis.size(), qumis.size());
    for (std::size_t i = 0; i < qis.size(); ++i) {
        EXPECT_EQ(qis[i].td, qumis[i].td);
        EXPECT_EQ(qis[i].codeword, qumis[i].codeword);
    }
}

TEST(Machine, CompositeUopExpandsViaSequenceTable)
{
    // Apply Z180: one micro-operation, two codewords (SeqZ).
    MachineConfig cfg;
    cfg.traceEnabled = true;
    QumaMachine m(cfg);
    m.loadAssembly(R"(
        Wait 100
        Apply Z180, q0
        Wait 600
        halt
    )");
    m.run(1'000'000);
    const auto &cws = m.trace().codewords();
    ASSERT_EQ(cws.size(), 2u);
    EXPECT_EQ(cws[0].codeword, 1); // X180 first (SeqZ = [0,1];[4,4])
    EXPECT_EQ(cws[1].codeword, 4); // then Y180
    EXPECT_EQ(cws[1].td - cws[0].td, 4u);
}

TEST(Machine, FeedbackActiveReset)
{
    // Measure; if the qubit read |1>, apply X180 to reset it; the
    // follow-up measurement must read |0> whatever the first
    // outcome was. Exercises MD write-back into the register file
    // and a conditional branch on the result (quantum feedback).
    MachineConfig cfg;
    cfg.qubits[0].readout.noiseSigma = 30.0; // high-fidelity readout
    QumaMachine m(cfg);
    m.loadAssembly(R"(
        Wait 10
        Pulse {q0}, X180
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 500
        beq r7, r0, measure_again
        Pulse {q0}, X180
        Wait 4
        measure_again:
        MPG {q0}, 300
        MD {q0}, r8
        Wait 600
        halt
    )");
    auto r = m.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.registers().read(8), 0);
}

TEST(Machine, UnderrunDetectedWithStarvedQueues)
{
    // A one-entry timing queue cannot stay ahead of back-to-back
    // 1-cycle waits: the controller reports late time points rather
    // than silently slipping.
    MachineConfig cfg;
    cfg.timing.timingQueueCapacity = 1;
    cfg.exec.stallInjection = true;
    cfg.exec.stallProbability = 1.0;
    cfg.exec.maxStallCycles = 4;
    QumaMachine m(cfg);
    std::string src;
    for (int i = 0; i < 40; ++i)
        src += "Wait 1\nPulse {q0}, I\n";
    src += "Wait 600\nhalt";
    m.loadAssembly(src);
    auto r = m.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(r.violations.latePoints, 0u);
}

TEST(Machine, WedgeDiagnosisOnImpossibleProgram)
{
    setLogQuiet(true);
    // MD with no preceding MPG arms the MDU forever; the reader of
    // r7 can never proceed -> the machine reports a wedge instead of
    // spinning.
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly(R"(
        Wait 10
        MD {q0}, r7
        Wait 200
        add r1, r7, r0
        halt
    )");
    EXPECT_THROW(m.run(1'000'000), FatalError);
    setLogQuiet(false);
}

TEST(Machine, RunIsOneShot)
{
    setLogQuiet(true);
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly("halt");
    m.run(1000);
    EXPECT_THROW(m.run(1000), FatalError);
    m.loadAssembly("halt");
    EXPECT_NO_THROW(m.run(1000));
    setLogQuiet(false);
}

TEST(Machine, RunCutOffByMaxCyclesReportsTheCut)
{
    // The Measure can fire only after the 40 000-cycle QNopReg, far
    // past a 1 000-cycle budget: the run stops at the budget without
    // claiming to have halted.
    const char *src = R"(
        mov r15, 40000
        QNopReg r15
        Measure q0, r7
        halt
    )";
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly(src);
    auto cut = m.run(1000);
    EXPECT_FALSE(cut.halted);
    EXPECT_EQ(cut.cyclesRun, 1000u);
    EXPECT_EQ(m.dataCollector().sampleCount(), 0u);

    // With room to finish, the same program halts after its Measure.
    m.reset();
    m.loadAssembly(src);
    auto full = m.run(2'000'000);
    EXPECT_TRUE(full.halted);
    EXPECT_GT(full.cyclesRun, 40'000u);
    EXPECT_EQ(m.dataCollector().sampleCount(), 1u);
}

/**
 * The pooled-machine contract: run -> reset -> run must reproduce the
 * fresh machine's results bit for bit, including the stochastic
 * readout (the chip RNG is rewound), the execution-stall stream, the
 * deterministic timeline, and the collected averages.
 */
TEST(Machine, ResetReproducesFreshRunBitForBit)
{
    MachineConfig cfg;
    cfg.traceEnabled = true;
    cfg.exec.stallInjection = true;
    cfg.exec.stallProbability = 0.4;
    cfg.exec.seed = 0xabc;
    cfg.chipSeed = 0x123;

    const char *src = R"(
        mov r15, 40000
        mov r1, 0
        mov r2, 6
        L:
        QNopReg r15
        Pulse {q0}, X90
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        addi r1, r1, 1
        bne r1, r2, L
        halt
    )";

    QumaMachine m(cfg);
    m.configureDataCollection(1);
    m.loadAssembly(src);
    auto firstRun = m.run(20'000'000);
    auto firstAvg = m.dataCollector().averages();
    auto firstBits = m.dataCollector().bitAverages();
    auto firstCws = m.trace().codewords();
    auto firstSamples = m.dataCollector().sampleCount();

    m.reset();
    m.configureDataCollection(1);
    m.loadAssembly(src);
    auto secondRun = m.run(20'000'000);

    EXPECT_EQ(firstRun, secondRun);
    EXPECT_EQ(firstAvg, m.dataCollector().averages());
    EXPECT_EQ(firstBits, m.dataCollector().bitAverages());
    EXPECT_EQ(firstSamples, m.dataCollector().sampleCount());
    const auto &secondCws = m.trace().codewords();
    ASSERT_EQ(firstCws.size(), secondCws.size());
    for (std::size_t i = 0; i < firstCws.size(); ++i) {
        EXPECT_EQ(firstCws[i].td, secondCws[i].td);
        EXPECT_EQ(firstCws[i].codeword, secondCws[i].codeword);
    }
}

/** reset(chip, exec) must equal a fresh machine built on those seeds. */
TEST(Machine, SeededResetMatchesFreshMachineWithThoseSeeds)
{
    const char *src = R"(
        Wait 100
        Apply X90, q0
        Measure q0, r7
        Wait 600
        halt
    )";
    auto runFresh = [&](std::uint64_t chip, std::uint64_t exec) {
        MachineConfig cfg;
        cfg.chipSeed = chip;
        cfg.exec.seed = exec;
        QumaMachine m(cfg);
        m.configureDataCollection(1);
        m.loadAssembly(src);
        m.run(2'000'000);
        return m.dataCollector().averages();
    };

    MachineConfig cfg;
    QumaMachine m(cfg);
    m.configureDataCollection(1);
    m.loadAssembly(src);
    m.run(2'000'000);

    m.reset(0x1111, 0x2222);
    m.configureDataCollection(1);
    m.loadAssembly(src);
    m.run(2'000'000);
    EXPECT_EQ(m.dataCollector().averages(), runFresh(0x1111, 0x2222));
}

TEST(Machine, StatsExposeQueueSaturation)
{
    // A long leading wait lets the pipeline run far ahead of the
    // deterministic clock; with a shallow timing queue its pushes
    // bounce, which must be visible in the machine-level counters a
    // pool scheduler watches.
    MachineConfig cfg;
    cfg.timing.timingQueueCapacity = 2;
    QumaMachine m(cfg);
    std::string src = "mov r15, 40000\nQNopReg r15\n";
    for (int i = 0; i < 20; ++i)
        src += "Pulse {q0}, I\nWait 4\n";
    src += "Wait 600\nhalt";
    m.loadAssembly(src);
    auto r = m.run(2'000'000);
    EXPECT_TRUE(r.halted);
    MachineStats stats = m.stats();
    EXPECT_GT(stats.queues.timing.pushFailed, 0u);
    EXPECT_EQ(stats.queues.timing.highWater, 2u);
    EXPECT_EQ(stats.queues.timing.capacity, 2u);
    EXPECT_GT(stats.microInstsIssued, 0u);
}

TEST(Machine, DataCollectionAveragesAcrossRounds)
{
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.configureDataCollection(1);
    m.loadAssembly(R"(
        mov r15, 40000
        mov r1, 0
        mov r2, 12
        L:
        QNopReg r15
        Pulse {q0}, X180
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        addi r1, r1, 1
        bne r1, r2, L
        halt
    )");
    m.run(20'000'000);
    EXPECT_EQ(m.dataCollector().sampleCount(), 12u);
    // Full 200 us re-init each round: nearly every shot reads 1
    // (residual errors are T1 decay inside the readout window).
    EXPECT_GT(m.dataCollector().bitAverages()[0], 0.75);
}

TEST(Machine, LutContentMatchesTable1)
{
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.uploadStandardCalibration();
    const auto &wm = m.awgModule(0).waveMemory();
    // Paper Table 1: codewords 0..6 hold I, X180, X90, Xm90, Y180,
    // Y90, Ym90.
    EXPECT_EQ(wm.lookup(0).name, "I");
    EXPECT_EQ(wm.lookup(1).name, "X180");
    EXPECT_EQ(wm.lookup(2).name, "X90");
    EXPECT_EQ(wm.lookup(3).name, "Xm90");
    EXPECT_EQ(wm.lookup(4).name, "Y180");
    EXPECT_EQ(wm.lookup(5).name, "Y90");
    EXPECT_EQ(wm.lookup(6).name, "Ym90");
    // 20 ns at 1 GSa/s.
    EXPECT_EQ(wm.lookup(1).i.size(), 20u);
}

TEST(Machine, AllxyMemoryFootprintMatchesPaper)
{
    // Paper §5.1.1: 7 stored pulses = 420 bytes (gate pulses only,
    // I and Q, 20 ns, 1 GSa/s, 12-bit samples).
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.uploadStandardCalibration();
    const auto &wm = m.awgModule(0).waveMemory();
    std::size_t gate_samples = 0;
    for (Codeword cw = 0; cw <= 6; ++cw)
        gate_samples += wm.lookup(cw).i.size() + wm.lookup(cw).q.size();
    EXPECT_EQ(gate_samples * kSampleResolutionBits / 8, 420u);
}

TEST(Machine, TimingSkewInjectionShiftsPulses)
{
    // One extra CTPG delay cycle = 5 ns: every pulse lands 5 ns late
    // (the error AllXY is designed to catch).
    auto firstPulse = [](Cycle extra) {
        MachineConfig cfg;
        cfg.traceEnabled = true;
        cfg.ctpgDelayCycles = kCtpgDelayCycles + extra;
        QumaMachine m(cfg);
        m.loadAssembly("Wait 100\nPulse {q0}, X90\nWait 600\nhalt");
        m.run(1'000'000);
        return m.trace().pulses().at(0).t0Ns;
    };
    EXPECT_EQ(firstPulse(1) - firstPulse(0), 5);
}

} // namespace
} // namespace quma::core

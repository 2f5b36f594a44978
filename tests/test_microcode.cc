/**
 * @file
 * Unit tests for the Q control store (QIS -> QuMIS expansion,
 * including the paper's Algorithm 2 CNOT microprogram) and the u-op
 * sequence tables (including the paper's SeqZ example), with unitary
 * verification that every emulation sequence implements its gate.
 */

#include <gtest/gtest.h>

#include <numbers>

#include "common/logging.hh"
#include "common/ring.hh"
#include "isa/nametable.hh"
#include "microcode/controlstore.hh"
#include "microcode/seqtable.hh"
#include "qsim/gates.hh"

namespace quma::microcode {
namespace {

namespace u = isa::uops;
constexpr double kPi = std::numbers::pi;

// ------------------------------------------------------------ controlstore

TEST(ControlStore, PrimitiveApplyIsPulsePlusWait)
{
    auto cs = QControlStore::standard();
    RingBuffer<isa::Instruction> seq(16);
    cs.expandApply(u::X180, 0x4, seq);
    ASSERT_EQ(seq.size(), 2u);
    EXPECT_EQ(seq[0], isa::Instruction::pulse1(0x4, u::X180));
    EXPECT_EQ(seq[1], isa::Instruction::wait(4));
}

TEST(ControlStore, ApplyBindsMask)
{
    auto cs = QControlStore::standard();
    RingBuffer<isa::Instruction> seq(16);
    cs.expandApply(u::Y90, 0x3, seq);
    EXPECT_EQ(seq[0].slots[0].mask, 0x3u);
}

TEST(ControlStore, CnotMatchesAlgorithm2)
{
    // Paper Algorithm 2:
    //   Pulse {qt}, Ym90 / Wait 4 / Pulse {qt, qc}, CZ / Wait 8 /
    //   Pulse {qt}, Y90 / Wait 4
    auto cs = QControlStore::standard();
    RingBuffer<isa::Instruction> seq(16);
    cs.expandCnot(/*qt=*/1, /*qc=*/2, seq);
    ASSERT_EQ(seq.size(), 6u);
    EXPECT_EQ(seq[0], isa::Instruction::pulse1(0x2, u::Ym90));
    EXPECT_EQ(seq[1], isa::Instruction::wait(4));
    EXPECT_EQ(seq[2], isa::Instruction::pulse1(0x6, u::Cz));
    EXPECT_EQ(seq[3], isa::Instruction::wait(8));
    EXPECT_EQ(seq[4], isa::Instruction::pulse1(0x2, u::Y90));
    EXPECT_EQ(seq[5], isa::Instruction::wait(4));
}

TEST(ControlStore, MeasureExpandsToMpgMd)
{
    auto cs = QControlStore::standard(4, 300);
    RingBuffer<isa::Instruction> seq(16);
    cs.expandMeasure(0x4, 7, seq);
    ASSERT_EQ(seq.size(), 2u);
    EXPECT_EQ(seq[0], isa::Instruction::mpg(0x4, 300));
    EXPECT_EQ(seq[1], isa::Instruction::md(0x4, 7));
}

TEST(ControlStore, MeasurementDurationConfigurable)
{
    auto cs = QControlStore::standard(4, 120);
    RingBuffer<isa::Instruction> seq(16);
    cs.expandMeasure(0x1, 0, seq);
    EXPECT_EQ(seq[0].imm, 120);
}

TEST(ControlStore, UnknownGateIsFatal)
{
    setLogQuiet(true);
    auto cs = QControlStore::standard();
    RingBuffer<isa::Instruction> seq(16);
    EXPECT_THROW(cs.expandApply(200, 0x1, seq), quma::FatalError);
    EXPECT_TRUE(seq.empty());
    setLogQuiet(false);
}

TEST(ControlStore, CustomMicroprogramUpload)
{
    // The Wilkes flexibility argument: redefine a gate without
    // touching hardware. Make "H" two pulses.
    QControlStore cs = QControlStore::standard();
    Microprogram p;
    p.name = "H-custom";
    p.body.push_back(MicroStep::pulse(QubitRole::All, u::Y90));
    p.body.push_back(MicroStep::wait(4));
    p.body.push_back(MicroStep::pulse(QubitRole::All, u::X180));
    p.body.push_back(MicroStep::wait(4));
    cs.define(u::H, std::move(p));
    RingBuffer<isa::Instruction> seq(16);
    cs.expandApply(u::H, 0x1, seq);
    ASSERT_EQ(seq.size(), 4u);
    EXPECT_EQ(seq[0].slots[0].uop, u::Y90);
    EXPECT_EQ(seq[2].slots[0].uop, u::X180);
}

TEST(ControlStore, HorizontalMicroStep)
{
    QControlStore cs;
    Microprogram p;
    p.name = "parallel";
    p.body.push_back(MicroStep::pulseMulti(
        {{QubitRole::All, u::X180}, {QubitRole::All, u::Y90}}));
    cs.define(42, std::move(p));
    RingBuffer<isa::Instruction> seq(16);
    cs.expandApply(42, 0x5, seq);
    ASSERT_EQ(seq.size(), 1u);
    ASSERT_EQ(seq[0].slots.size(), 2u);
    EXPECT_EQ(seq[0].slots[0].mask, 0x5u);
    EXPECT_EQ(seq[0].slots[1].uop, u::Y90);
}

// --------------------------------------------------------------- seqtable

TEST(SeqTable, PrimitivesPassThrough)
{
    auto t = UopSequenceTable::standard();
    for (std::uint8_t uop : {u::I, u::X180, u::X90, u::Xm90, u::Y180,
                             u::Y90, u::Ym90}) {
        const auto &seq = t.sequenceFor(uop);
        ASSERT_EQ(seq.size(), 1u);
        EXPECT_EQ(seq[0].delta, 0u);
        EXPECT_EQ(seq[0].codeword, uop);
    }
}

TEST(SeqTable, SeqZMatchesPaper)
{
    // Paper §5.3.2: SeqZ = ([0, 1]; [4, 4]).
    auto t = UopSequenceTable::standard();
    const auto &seq = t.sequenceFor(u::Z180);
    ASSERT_EQ(seq.size(), 2u);
    EXPECT_EQ(seq[0], (SeqEntry{0, 1}));
    EXPECT_EQ(seq[1], (SeqEntry{4, 4}));
    EXPECT_EQ(t.spanOf(u::Z180), 4u);
}

TEST(SeqTable, RejectsMalformedSequences)
{
    setLogQuiet(true);
    UopSequenceTable t;
    EXPECT_THROW(t.define(1, {}), quma::FatalError);
    EXPECT_THROW(t.define(1, {{4, 0}}), quma::FatalError);
    EXPECT_THROW(t.sequenceFor(99), quma::FatalError);
    setLogQuiet(false);
}

// Unitary verification: playing a sequence's codewords in temporal
// order must implement the intended gate (up to global phase).
struct EmulationCase
{
    const char *name;
    std::uint8_t uop;
    qsim::Mat2 expected;
};

class SeqUnitaryTest : public ::testing::TestWithParam<EmulationCase>
{};

TEST_P(SeqUnitaryTest, SequenceImplementsGate)
{
    const auto &c = GetParam();
    auto table = UopSequenceTable::standard();

    // Map Table 1 codewords to their pulse unitaries.
    auto cwUnitary = [](Codeword cw) -> qsim::Mat2 {
        switch (cw) {
          case u::I:
            return qsim::gates::identity();
          case u::X180:
            return qsim::gates::rx(kPi);
          case u::X90:
            return qsim::gates::rx(kPi / 2);
          case u::Xm90:
            return qsim::gates::rx(-kPi / 2);
          case u::Y180:
            return qsim::gates::ry(kPi);
          case u::Y90:
            return qsim::gates::ry(kPi / 2);
          case u::Ym90:
            return qsim::gates::ry(-kPi / 2);
          default:
            return qsim::gates::identity();
        }
    };

    qsim::Mat2 total = qsim::gates::identity();
    for (const auto &entry : table.sequenceFor(c.uop))
        total = qsim::matmul(cwUnitary(entry.codeword), total);
    EXPECT_TRUE(qsim::equalUpToPhase(total, c.expected, 1e-9))
        << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Emulations, SeqUnitaryTest,
    ::testing::Values(
        EmulationCase{"Z180", u::Z180, qsim::gates::pauliZ()},
        EmulationCase{"Z90", u::Z90, qsim::gates::rz(kPi / 2)},
        EmulationCase{"Zm90", u::Zm90, qsim::gates::rz(-kPi / 2)},
        EmulationCase{"H", u::H, qsim::gates::hadamard()},
        EmulationCase{"X180", u::X180, qsim::gates::pauliX()},
        EmulationCase{"Y90", u::Y90, qsim::gates::ry(kPi / 2)}),
    [](const auto &info) { return info.param.name; });

} // namespace
} // namespace quma::microcode

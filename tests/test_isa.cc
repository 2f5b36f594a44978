/**
 * @file
 * Unit tests for the instruction set: encoding round trips, the
 * assembler (including the paper's Algorithm 3 syntax), the
 * disassembler round-trip property, and the name tables.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/assembler.hh"
#include "isa/disassembler.hh"
#include "isa/encoding.hh"
#include "isa/nametable.hh"

namespace quma::isa {
namespace {

// ---------------------------------------------------------------- opcodes

TEST(Opcodes, MnemonicRoundTrip)
{
    for (unsigned v = 0; v < static_cast<unsigned>(Opcode::NumOpcodes);
         ++v) {
        auto op = static_cast<Opcode>(v);
        std::string m = mnemonic(op);
        if (m == "<invalid>")
            continue;
        auto back = opcodeFromMnemonic(m);
        ASSERT_TRUE(back.has_value()) << m;
        EXPECT_EQ(*back, op);
    }
}

TEST(Opcodes, LookupIsCaseInsensitive)
{
    EXPECT_EQ(opcodeFromMnemonic("WAIT"), Opcode::QWait);
    EXPECT_EQ(opcodeFromMnemonic("qnopreg"), Opcode::QWaitReg);
    EXPECT_EQ(opcodeFromMnemonic("mpg"), Opcode::Mpg);
    EXPECT_FALSE(opcodeFromMnemonic("frobnicate").has_value());
}

TEST(Opcodes, QuantumClassification)
{
    EXPECT_TRUE(isQuantum(Opcode::QWait));
    EXPECT_TRUE(isQuantum(Opcode::Pulse));
    EXPECT_TRUE(isQuantum(Opcode::Apply));
    EXPECT_FALSE(isQuantum(Opcode::Add));
    EXPECT_FALSE(isQuantum(Opcode::Bne));
    EXPECT_TRUE(isQis(Opcode::Apply));
    EXPECT_TRUE(isQis(Opcode::Cnot));
    EXPECT_FALSE(isQis(Opcode::Pulse));
    EXPECT_TRUE(isBranch(Opcode::Br));
    EXPECT_FALSE(isBranch(Opcode::Halt));
}

// --------------------------------------------------------------- encoding

class EncodingRoundTrip
    : public ::testing::TestWithParam<Instruction>
{};

TEST_P(EncodingRoundTrip, DecodeInvertsEncode)
{
    const Instruction &inst = GetParam();
    EXPECT_EQ(decode(encode(inst)), inst);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, EncodingRoundTrip,
    ::testing::Values(
        Instruction::nop(), Instruction::halt(),
        Instruction::mov(15, 40000), Instruction::mov(1, -7),
        Instruction::add(3, 4, 5), Instruction::sub(31, 30, 29),
        Instruction::addi(1, 1, 1), Instruction::addi(2, 3, -100),
        Instruction::load(9, 3, 0), Instruction::load(9, 3, 21),
        Instruction::store(9, 3, 1), Instruction::store(7, 0, -4),
        Instruction::beq(1, 2, 100), Instruction::bne(1, 2, 4),
        Instruction::br(0), Instruction::wait(40000),
        Instruction::wait(4), Instruction::waitReg(15),
        Instruction::pulse1(0x4, 1),
        Instruction::pulse({{0x1, 2}, {0x2, 5}}),
        Instruction::pulse({{0x1, 0}, {0x2, 1}, {0x4, 6}}),
        Instruction::mpg(0x4, 300), Instruction::mpg(0xff, 1),
        Instruction::md(0x4, 7), Instruction::md(0x3, 0),
        Instruction::apply(1, 0x4), Instruction::apply(12, 0xffff),
        Instruction::measure(0x4, 7), Instruction::cnot(1, 2)));

TEST(Encoding, RejectsOversizedFields)
{
    setLogQuiet(true);
    Instruction tooWide = Instruction::mov(1, 0x1'0000'0000LL);
    EXPECT_THROW(encode(tooWide), quma::FatalError);
    Instruction bigMask = Instruction::pulse1(0x100, 1);
    EXPECT_THROW(encode(bigMask), quma::FatalError);
    setLogQuiet(false);
}

TEST(Encoding, RejectsInvalidOpcodeWord)
{
    setLogQuiet(true);
    // Opcode 63 is far outside the defined range.
    EXPECT_THROW(decode(~std::uint64_t{0}), quma::FatalError);
    // Opcode 20 falls in the reserved gap between Halt and QWait.
    EXPECT_THROW(decode(std::uint64_t{20} << 58), quma::FatalError);
    setLogQuiet(false);
}

TEST(Encoding, BatchRoundTrip)
{
    std::vector<Instruction> prog{
        Instruction::mov(15, 40000), Instruction::waitReg(15),
        Instruction::pulse1(0x1, 1), Instruction::wait(4),
        Instruction::mpg(0x1, 300), Instruction::md(0x1, 7),
        Instruction::halt()};
    EXPECT_EQ(decodeAll(encodeAll(prog)), prog);
}

// -------------------------------------------------------------- nametable

TEST(NameTable, StandardUopsMatchTable1)
{
    auto t = NameTable::standardUops();
    // Paper Table 1 codeword assignments.
    EXPECT_EQ(t.idOf("I"), 0);
    EXPECT_EQ(t.idOf("X180"), 1);
    EXPECT_EQ(t.idOf("X90"), 2);
    EXPECT_EQ(t.idOf("Xm90"), 3);
    EXPECT_EQ(t.idOf("Y180"), 4);
    EXPECT_EQ(t.idOf("Y90"), 5);
    EXPECT_EQ(t.idOf("Ym90"), 6);
    EXPECT_EQ(t.nameOf(1), "X180");
}

TEST(NameTable, CaseInsensitiveLookup)
{
    auto t = NameTable::standardUops();
    EXPECT_EQ(t.idOf("x180"), 1);
    EXPECT_EQ(t.idOf("XM90"), 3);
    EXPECT_FALSE(t.idOf("nope").has_value());
}

TEST(NameTable, RejectsDuplicates)
{
    setLogQuiet(true);
    NameTable t;
    t.define("A", 1);
    EXPECT_THROW(t.define("a", 2), quma::FatalError);
    EXPECT_THROW(t.define("B", 1), quma::FatalError);
    setLogQuiet(false);
}

TEST(NameTable, EntriesSortedById)
{
    auto entries = NameTable::standardUops().entries();
    for (std::size_t i = 1; i < entries.size(); ++i)
        EXPECT_LT(entries[i - 1].second, entries[i].second);
}

// -------------------------------------------------------------- assembler

TEST(Assembler, PaperAlgorithm3Snippet)
{
    Assembler as;
    Program p = as.assemble(R"(
        mov r15 , 40000 # 200 us
        mov r1, 0 # loop counter
        mov r2, 25600 # number of averages
        Outer_Loop:
        QNopReg r15 # Identity , Identity
        Pulse {q2}, I
        Wait 4
        Pulse {q2}, I
        Wait 4
        MPG {q2}, 300
        MD {q2}
        addi r1, r1, 1
        bne r1, r2, Outer_Loop
    )");
    ASSERT_EQ(p.size(), 12u);
    EXPECT_EQ(p.at(0), Instruction::mov(15, 40000));
    EXPECT_EQ(p.at(3), Instruction::waitReg(15));
    EXPECT_EQ(p.at(4), Instruction::pulse1(0x4, 0));
    EXPECT_EQ(p.at(8), Instruction::mpg(0x4, 300));
    EXPECT_EQ(p.at(9), Instruction::md(0x4, 0));
    EXPECT_EQ(p.at(11), Instruction::bne(1, 2, 3));
    EXPECT_EQ(p.labelTarget("Outer_Loop"), 3u);
}

TEST(Assembler, MultiSlotPulse)
{
    Assembler as;
    auto inst =
        as.assembleLine("Pulse (q0, X180), ({q1, q2}, Y90)");
    ASSERT_EQ(inst.slots.size(), 2u);
    EXPECT_EQ(inst.slots[0].mask, 0x1u);
    EXPECT_EQ(inst.slots[0].uop, 1);
    EXPECT_EQ(inst.slots[1].mask, 0x6u);
    EXPECT_EQ(inst.slots[1].uop, 5);
}

TEST(Assembler, QisInstructions)
{
    Assembler as;
    auto apply = as.assembleLine("Apply X180, q2");
    EXPECT_EQ(apply.op, Opcode::Apply);
    EXPECT_EQ(apply.gate, 1);
    EXPECT_EQ(apply.qmask, 0x4u);
    auto measure = as.assembleLine("Measure q2, r7");
    EXPECT_EQ(measure.op, Opcode::MeasureQ);
    EXPECT_EQ(measure.rd, 7);
    auto cnot = as.assembleLine("CNOT q1, q2");
    EXPECT_EQ(cnot.op, Opcode::Cnot);
    EXPECT_EQ(cnot.rd, 1);
    EXPECT_EQ(cnot.rs, 2);
}

TEST(Assembler, MemoryOperands)
{
    Assembler as;
    auto load = as.assembleLine("load r9, r3[21]");
    EXPECT_EQ(load, Instruction::load(9, 3, 21));
    auto store = as.assembleLine("store r9, r3[0]");
    EXPECT_EQ(store, Instruction::store(9, 3, 0));
}

TEST(Assembler, NumericBranchTarget)
{
    Assembler as;
    Program p = as.assemble("br 0\nnop");
    EXPECT_EQ(p.at(0), Instruction::br(0));
}

TEST(Assembler, RejectsAFourthPulseSlot)
{
    setLogQuiet(true);
    Assembler as;
    EXPECT_NO_THROW(
        as.assemble("Pulse ({q0}, X180), ({q1}, Y90), ({q2}, I)"));
    try {
        as.assemble("Pulse ({q0}, X180), ({q1}, Y90), ({q2}, I), "
                    "({q3}, X90)");
        ADD_FAILURE() << "a 4-slot Pulse assembled";
    } catch (const quma::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("too many Pulse slots"),
                  std::string::npos)
            << e.what();
    }
    setLogQuiet(false);
}

struct BadSource
{
    const char *name;
    const char *text;
};

class AssemblerErrors : public ::testing::TestWithParam<BadSource>
{};

TEST_P(AssemblerErrors, Rejects)
{
    setLogQuiet(true);
    Assembler as;
    EXPECT_THROW(as.assemble(GetParam().text), quma::FatalError)
        << GetParam().name;
    setLogQuiet(false);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AssemblerErrors,
    ::testing::Values(
        BadSource{"unknown mnemonic", "frobnicate r1"},
        BadSource{"bad register", "mov r99, 1"},
        BadSource{"missing operand", "mov r1"},
        BadSource{"undefined label", "bne r1, r2, nowhere"},
        BadSource{"duplicate label", "L: nop\nL: nop"},
        BadSource{"bad qubit set", "Pulse {qx}, I"},
        BadSource{"unknown uop", "Pulse {q0}, BOGUS"},
        BadSource{"unknown gate", "Apply BOGUS, q0"},
        BadSource{"zero wait", "Wait 0"},
        BadSource{"negative mpg", "MPG {q0}, -5"},
        BadSource{"bad memory operand", "load r1, r2"}),
    [](const auto &info) {
        std::string n = info.param.name;
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// ----------------------------------------------------------- disassembler

TEST(Disassembler, RoundTripThroughAssembler)
{
    Assembler as;
    Program p = as.assemble(R"(
        mov r15, 40000
        mov r1, 0
        mov r2, 16
        Loop:
        QNopReg r15
        Pulse {q0}, X180
        Wait 4
        Pulse (q0, X90), (q1, Y90)
        Wait 4
        Apply Y180, q0
        CNOT q0, q1
        Measure q0, r7
        MPG {q0}, 300
        MD {q0}, r7
        load r9, r3[1]
        add r9, r9, r7
        store r9, r3[1]
        addi r1, r1, 1
        bne r1, r2, Loop
        halt
    )");
    Disassembler dis;
    Program again = as.assemble(dis.render(p));
    ASSERT_EQ(again.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(again.at(i), p.at(i)) << "instruction " << i;
}

TEST(Disassembler, UsesUopNames)
{
    Disassembler dis;
    auto text = dis.render(Instruction::pulse1(0x4, 1));
    EXPECT_NE(text.find("X180"), std::string::npos);
    EXPECT_NE(text.find("{q2}"), std::string::npos);
}

// ---------------------------------------------------------------- program

TEST(Program, BinaryRoundTrip)
{
    Assembler as;
    Program p = as.assemble("mov r1, 5\nWait 10\nhalt");
    Program q = Program::fromBinary(p.toBinary());
    ASSERT_EQ(q.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(q.at(i), p.at(i));
}

TEST(Program, LabelLookup)
{
    Program p;
    p.push(Instruction::nop());
    p.defineLabel("here");
    p.push(Instruction::halt());
    EXPECT_EQ(p.labelTarget("here"), 1u);
    EXPECT_EQ(p.labelAt(1), "here");
    EXPECT_FALSE(p.labelTarget("gone").has_value());
}

} // namespace
} // namespace quma::isa

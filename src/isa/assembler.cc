#include "isa/assembler.hh"

#include <cctype>

#include "common/logging.hh"
#include "common/strings.hh"

namespace quma::isa {

namespace {

/** Strip comments introduced by '#' or ';'. */
std::string
stripComment(const std::string &line)
{
    auto pos = line.find_first_of("#;");
    if (pos == std::string::npos)
        return line;
    return line.substr(0, pos);
}

/** Split an operand list on top-level commas (not inside () or {}). */
std::vector<std::string>
splitOperands(std::string_view s)
{
    std::vector<std::string> out;
    int depth = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || (s[i] == ',' && depth == 0)) {
            std::string field = trim(s.substr(start, i - start));
            if (!field.empty())
                out.push_back(field);
            start = i + 1;
            continue;
        }
        if (s[i] == '(' || s[i] == '{')
            ++depth;
        else if (s[i] == ')' || s[i] == '}')
            --depth;
    }
    return out;
}

struct LineRef
{
    std::size_t number;
    const std::string &text;
};

[[noreturn]] void
asmError(const LineRef &where, const std::string &what)
{
    fatal("assembly error at line ", where.number, ": ", what,
          "  [", trim(where.text), "]");
}

RegIndex
parseRegister(const std::string &tok, const LineRef &where)
{
    std::string t = toLower(trim(tok));
    if (t.size() < 2 || t[0] != 'r')
        asmError(where, "expected register, got '" + tok + "'");
    long long v;
    if (!parseInt(t.substr(1), v) || v < 0 ||
        v >= static_cast<long long>(kNumRegisters))
        asmError(where, "bad register '" + tok + "'");
    return static_cast<RegIndex>(v);
}

std::int64_t
parseImmediate(const std::string &tok, const LineRef &where)
{
    long long v;
    if (!parseInt(tok, v))
        asmError(where, "expected immediate, got '" + tok + "'");
    return v;
}

unsigned
parseQubit(const std::string &tok, const LineRef &where)
{
    std::string t = toLower(trim(tok));
    if (t.size() >= 2 && t[0] == 'q')
        t = t.substr(1);
    long long v;
    if (!parseInt(t, v) || v < 0 || v >= 32)
        asmError(where, "bad qubit '" + tok + "'");
    return static_cast<unsigned>(v);
}

/** Parse "{q0, q2}" or "q2" or "2" into a mask. */
QubitMask
parseQubitSet(const std::string &tok, const LineRef &where)
{
    std::string t = trim(tok);
    QubitMask mask = 0;
    if (!t.empty() && t.front() == '{') {
        if (t.back() != '}')
            asmError(where, "unterminated qubit set '" + tok + "'");
        for (const auto &part : split(t.substr(1, t.size() - 2), ','))
            mask |= QubitMask{1} << parseQubit(part, where);
        if (mask == 0)
            asmError(where, "empty qubit set");
        return mask;
    }
    return QubitMask{1} << parseQubit(t, where);
}

} // namespace

Assembler::Assembler()
    : uopTable(NameTable::standardUops()),
      gateTable(NameTable::standardGates())
{}

Assembler::Assembler(NameTable uop_names, NameTable gate_names)
    : uopTable(std::move(uop_names)), gateTable(std::move(gate_names))
{}

namespace {

/**
 * Intermediate form: an instruction that may still reference a label
 * by name (branch targets are resolved in the second pass).
 */
struct PendingInst
{
    Instruction inst;
    std::string pendingLabel; // empty when resolved
    std::size_t lineNumber = 0;
    std::string lineText;
};

} // namespace

Instruction
Assembler::assembleLine(const std::string &line) const
{
    // Delegate to assemble() so one code path handles parsing; a
    // branch in a single line cannot resolve a label.
    Program p = assemble(line);
    if (p.size() != 1)
        fatal("assembleLine expects exactly one instruction, got ",
              p.size());
    return p.at(0);
}

Program
Assembler::assemble(const std::string &source) const
{
    std::vector<PendingInst> pending;
    Program prog;

    std::vector<std::string> lines = split(source, '\n', true);
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
        LineRef where{ln + 1, lines[ln]};
        std::string text = trim(stripComment(lines[ln]));
        if (text.empty())
            continue;

        // Label definitions: "name:" optionally followed by code.
        while (true) {
            auto colon = text.find(':');
            if (colon == std::string::npos)
                break;
            std::string head = trim(text.substr(0, colon));
            bool isIdent = !head.empty();
            for (char c : head)
                if (!std::isalnum(static_cast<unsigned char>(c)) &&
                    c != '_')
                    isIdent = false;
            if (!isIdent)
                break;
            prog.defineLabelAt(head, pending.size());
            text = trim(text.substr(colon + 1));
            if (text.empty())
                break;
        }
        if (text.empty())
            continue;

        // Mnemonic and operand text.
        std::size_t sp = 0;
        while (sp < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[sp])))
            ++sp;
        std::string mn = text.substr(0, sp);
        std::string rest = trim(text.substr(sp));
        auto opOpt = opcodeFromMnemonic(mn);
        if (!opOpt)
            asmError(where, "unknown mnemonic '" + mn + "'");
        Opcode op = *opOpt;
        std::vector<std::string> ops = splitOperands(rest);

        PendingInst pi;
        pi.lineNumber = where.number;
        pi.lineText = lines[ln];
        Instruction &inst = pi.inst;
        inst.op = op;

        auto expect = [&](std::size_t n) {
            if (ops.size() != n)
                asmError(where, "expected " + std::to_string(n) +
                                    " operand(s), got " +
                                    std::to_string(ops.size()));
        };

        switch (op) {
          case Opcode::Nop:
          case Opcode::Halt:
            expect(0);
            break;
          case Opcode::Mov:
            expect(2);
            inst.rd = parseRegister(ops[0], where);
            inst.imm = parseImmediate(ops[1], where);
            break;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
            expect(3);
            inst.rd = parseRegister(ops[0], where);
            inst.rs = parseRegister(ops[1], where);
            inst.rt = parseRegister(ops[2], where);
            break;
          case Opcode::Addi:
          case Opcode::Shl:
          case Opcode::Shr:
            expect(3);
            inst.rd = parseRegister(ops[0], where);
            inst.rs = parseRegister(ops[1], where);
            inst.imm = parseImmediate(ops[2], where);
            break;
          case Opcode::Load:
          case Opcode::Store: {
            // load rd, rs[imm] / store rt, rs[imm]
            expect(2);
            RegIndex data = parseRegister(ops[0], where);
            std::string mem = trim(ops[1]);
            auto lb = mem.find('[');
            auto rb = mem.rfind(']');
            if (lb == std::string::npos || rb == std::string::npos ||
                rb < lb)
                asmError(where, "expected rs[offset], got '" + mem + "'");
            inst.rs = parseRegister(mem.substr(0, lb), where);
            inst.imm =
                parseImmediate(mem.substr(lb + 1, rb - lb - 1), where);
            if (op == Opcode::Load)
                inst.rd = data;
            else
                inst.rt = data;
            break;
          }
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
            expect(3);
            inst.rs = parseRegister(ops[0], where);
            inst.rt = parseRegister(ops[1], where);
            pi.pendingLabel = trim(ops[2]);
            break;
          case Opcode::Br:
            expect(1);
            pi.pendingLabel = trim(ops[0]);
            break;
          case Opcode::QWait:
            expect(1);
            inst.imm = parseImmediate(ops[0], where);
            if (inst.imm <= 0)
                asmError(where, "Wait interval must be positive");
            break;
          case Opcode::QWaitReg:
            expect(1);
            inst.rs = parseRegister(ops[0], where);
            break;
          case Opcode::Pulse: {
            if (ops.empty())
                asmError(where, "Pulse needs operands");
            if (!ops.empty() && ops[0].front() == '(') {
                // Multi-slot form: (set, uop), (set, uop) ...
                for (const auto &slot : ops) {
                    std::string t = trim(slot);
                    if (t.front() != '(' || t.back() != ')')
                        asmError(where, "bad Pulse slot '" + slot + "'");
                    auto parts =
                        splitOperands(t.substr(1, t.size() - 2));
                    if (parts.size() != 2)
                        asmError(where,
                                 "Pulse slot needs (qubits, uop)");
                    PulseSlot s;
                    s.mask = parseQubitSet(parts[0], where);
                    auto id = uopTable.idOf(parts[1]);
                    if (!id)
                        asmError(where, "unknown micro-operation '" +
                                            parts[1] + "'");
                    s.uop = *id;
                    if (inst.slots.full())
                        asmError(where, "too many Pulse slots");
                    inst.slots.push_back(s);
                }
            } else {
                // Short form: Pulse {q2}, I
                expect(2);
                PulseSlot s;
                s.mask = parseQubitSet(ops[0], where);
                auto id = uopTable.idOf(ops[1]);
                if (!id)
                    asmError(where, "unknown micro-operation '" +
                                        ops[1] + "'");
                s.uop = *id;
                inst.slots.push_back(s);
            }
            break;
          }
          case Opcode::Mpg:
            expect(2);
            inst.qmask = parseQubitSet(ops[0], where);
            inst.imm = parseImmediate(ops[1], where);
            if (inst.imm <= 0)
                asmError(where, "MPG duration must be positive");
            break;
          case Opcode::Md:
            if (ops.size() == 1) {
                inst.qmask = parseQubitSet(ops[0], where);
                inst.rd = 0;
            } else {
                expect(2);
                inst.qmask = parseQubitSet(ops[0], where);
                inst.rd = parseRegister(ops[1], where);
            }
            break;
          case Opcode::Apply:
            expect(2);
            {
                auto id = gateTable.idOf(ops[0]);
                if (!id)
                    asmError(where, "unknown gate '" + ops[0] + "'");
                inst.gate = *id;
            }
            inst.qmask = parseQubitSet(ops[1], where);
            break;
          case Opcode::MeasureQ:
            expect(2);
            inst.qmask = parseQubitSet(ops[0], where);
            inst.rd = parseRegister(ops[1], where);
            break;
          case Opcode::Cnot:
            expect(2);
            inst.rd = static_cast<RegIndex>(parseQubit(ops[0], where));
            inst.rs = static_cast<RegIndex>(parseQubit(ops[1], where));
            break;
          case Opcode::NumOpcodes:
            asmError(where, "invalid opcode");
        }
        pending.push_back(std::move(pi));
    }

    // Second pass: resolve branch targets.
    for (auto &pi : pending) {
        if (!pi.pendingLabel.empty()) {
            LineRef where{pi.lineNumber, pi.lineText};
            auto target = prog.labelTarget(pi.pendingLabel);
            if (target) {
                pi.inst.imm = static_cast<std::int64_t>(*target);
            } else {
                long long v;
                if (parseInt(pi.pendingLabel, v) && v >= 0)
                    pi.inst.imm = v; // numeric absolute target
                else
                    asmError(where,
                             "undefined label '" + pi.pendingLabel + "'");
            }
        }
        prog.push(std::move(pi.inst));
    }
    return prog;
}

} // namespace quma::isa

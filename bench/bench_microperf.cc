/**
 * @file
 * google-benchmark micro-benchmarks of the hot architectural paths:
 * instruction encode/decode, assembly, timing-queue operations,
 * control-store expansion, density-matrix updates, and a full
 * machine round. These document the simulator's own performance,
 * not the paper's hardware.
 */

#include <benchmark/benchmark.h>

#include "experiments/allxy.hh"
#include "isa/assembler.hh"
#include "isa/encoding.hh"
#include "microcode/controlstore.hh"
#include "qsim/channels.hh"
#include "qsim/density.hh"
#include "timing/controller.hh"

using namespace quma;

namespace {

void
BM_EncodeDecode(benchmark::State &state)
{
    auto inst = isa::Instruction::pulse({{0x1, 2}, {0x2, 5}});
    for (auto _ : state) {
        auto w = isa::encode(inst);
        benchmark::DoNotOptimize(isa::decode(w));
    }
}
BENCHMARK(BM_EncodeDecode);

void
BM_AssembleAllxyRound(benchmark::State &state)
{
    isa::Assembler as;
    const std::string src = R"(
        QNopReg r15
        Pulse {q2}, I
        Wait 4
        Pulse {q2}, I
        Wait 4
        MPG {q2}, 300
        MD {q2}, r7
    )";
    for (auto _ : state)
        benchmark::DoNotOptimize(as.assemble(src));
}
BENCHMARK(BM_AssembleAllxyRound);

void
BM_TimingQueueCycle(benchmark::State &state)
{
    timing::TimingController tcu;
    tcu.setPulseSink(
        [](unsigned, Cycle, const timing::PulseEvent &) {});
    tcu.start(0);
    Cycle now = 0;
    TimingLabel label = 0;
    for (auto _ : state) {
        ++label;
        tcu.pushTimePoint(4, label);
        tcu.pushPulse(0, {label, 0x1, 1});
        now += 4;
        tcu.advanceTo(now);
    }
}
BENCHMARK(BM_TimingQueueCycle);

void
BM_ControlStoreExpandCnot(benchmark::State &state)
{
    auto cs = microcode::QControlStore::standard();
    RingBuffer<isa::Instruction> out(16);
    for (auto _ : state) {
        out.clear();
        cs.expandCnot(0, 1, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ControlStoreExpandCnot);

void
BM_DensityIdleChannel(benchmark::State &state)
{
    qsim::DensityMatrix rho(static_cast<unsigned>(state.range(0)));
    rho.apply1(0, qsim::gates::hadamard());
    auto chan = qsim::idleChannel(100.0, 30000.0, 25000.0);
    for (auto _ : state)
        rho.applyKraus1(0, chan);
}
BENCHMARK(BM_DensityIdleChannel)->Arg(1)->Arg(2)->Arg(4);

void
BM_MachineAllxyRound(benchmark::State &state)
{
    using namespace quma::experiments;
    for (auto _ : state) {
        state.PauseTiming();
        AllxyConfig cfg;
        cfg.rounds = 1;
        cfg.stallInjection = false;
        state.ResumeTiming();
        benchmark::DoNotOptimize(runAllxy(cfg));
    }
}
BENCHMARK(BM_MachineAllxyRound)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Heap allocations of the machine's run loop. A warm machine (built,
 * calibrated and run once) must execute a program without touching
 * the heap: run() and a control-schedule replay() of the same job
 * make zero allocations, and so does a replay after a rebind that
 * kept the physics half -- a replay builds no control hardware. A
 * rejected config builds nothing. Its own executable, because it
 * replaces the global operator new.
 */

#include <gtest/gtest.h>

#include "common/alloc_count.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "experiments/allxy.hh"
#include "isa/assembler.hh"
#include "quma/machine.hh"
#include "quma/tape.hh"
#include "runtime/keys.hh"

namespace quma {
namespace {

runtime::JobSpec
allxyJobOf(std::size_t rounds)
{
    experiments::AllxyConfig cfg;
    cfg.rounds = rounds;
    cfg.shards = 1;
    return experiments::allxyJob(cfg);
}

/** Allocations made inside run() for one job on a warm machine. */
std::size_t
allocationsInRun(core::QumaMachine &machine, const runtime::JobSpec &job,
                 const isa::Program &program)
{
    machine.reset(Rng::derive(job.seed, runtime::kChipStream),
                  Rng::derive(job.seed, runtime::kExecStream));
    machine.configureDataCollection(job.bins);
    machine.loadProgram(program);
    std::size_t before = allocations();
    core::RunResult r = machine.run(job.maxCycles);
    std::size_t made = allocations() - before;
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.violations.clean());
    return made;
}

TEST(RunAllocations, WarmRunAllocatesNothing)
{
    runtime::JobSpec shortJob = allxyJobOf(4);
    runtime::JobSpec longJob = allxyJobOf(16);
    ASSERT_EQ(shortJob.rounds, 0u) << "expected one opaque looping program";
    isa::Assembler assembler;
    isa::Program shortProgram = assembler.assemble(shortJob.assembly);
    isa::Program longProgram = assembler.assemble(longJob.assembly);

    core::QumaMachine machine(longJob.machine);
    machine.uploadStandardCalibration();
    // Warm-up: the first runs size every reusable buffer.
    allocationsInRun(machine, longJob, longProgram);
    allocationsInRun(machine, shortJob, shortProgram);

    EXPECT_EQ(allocationsInRun(machine, shortJob, shortProgram), 0u);
    EXPECT_EQ(allocationsInRun(machine, longJob, longProgram), 0u);
    EXPECT_GT(machine.stats().cyclesVisited, 0u);
}

TEST(RunAllocations, WarmReplayAllocatesNothing)
{
    runtime::JobSpec job = allxyJobOf(16);
    isa::Program program = isa::Assembler().assemble(job.assembly);
    core::QumaMachine machine(job.machine);
    machine.uploadStandardCalibration();
    auto tape = core::verifyTape(machine, program, job.bins, job.maxCycles);
    ASSERT_NE(tape, nullptr);

    for (int warm = 0; warm < 2; ++warm) {
        machine.reset(Rng::derive(job.seed, runtime::kChipStream),
                      Rng::derive(job.seed, runtime::kExecStream));
        machine.configureDataCollection(job.bins);
        machine.loadProgram(program);
        std::size_t before = allocations();
        core::RunResult r = machine.replay(*tape);
        std::size_t made = allocations() - before;
        EXPECT_TRUE(r.halted);
        if (warm == 1) {
            EXPECT_EQ(made, 0u);
        }
    }
}

TEST(RunAllocations, ReplayAfterARebindBuildsNoControlHalf)
{
    runtime::JobSpec job = allxyJobOf(16);
    isa::Program program = isa::Assembler().assemble(job.assembly);
    core::MachineConfig other = job.machine;
    other.amplitudeError = 0.03;
    core::QumaMachine machine(job.machine);
    machine.uploadStandardCalibration();
    machine.rebind(other);
    auto tape = core::verifyTape(machine, program, job.bins, job.maxCycles);
    ASSERT_NE(tape, nullptr);

    auto replayAllocations = [&] {
        machine.reset(Rng::derive(job.seed, runtime::kChipStream),
                      Rng::derive(job.seed, runtime::kExecStream));
        machine.configureDataCollection(job.bins);
        machine.loadProgram(program);
        std::size_t before = allocations();
        core::RunResult r = machine.replay(*tape);
        std::size_t made = allocations() - before;
        EXPECT_TRUE(r.halted);
        return made;
    };
    replayAllocations(); // warm-up: sizes the replay scratch
    // Only the amplitude error differs: both rebinds keep the chip
    // and MDUs and drop the control half, which the replay must not
    // rebuild.
    machine.rebind(job.machine);
    machine.rebind(other);
    EXPECT_EQ(replayAllocations(), 0u);
}

TEST(RunAllocations, RejectingAHugeConfigBuildsNothing)
{
    setLogQuiet(true);
    core::MachineConfig hostile;
    hostile.numAwgs = 1u << 20;
    std::size_t before = allocations();
    EXPECT_THROW(core::QumaMachine{hostile}, FatalError);
    EXPECT_LT(allocations() - before, 64u);

    core::QumaMachine machine{core::MachineConfig{}};
    before = allocations();
    EXPECT_THROW(machine.rebind(hostile), FatalError);
    EXPECT_LT(allocations() - before, 64u);
    setLogQuiet(false);
}

} // namespace
} // namespace quma

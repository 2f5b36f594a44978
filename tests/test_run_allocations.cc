/**
 * @file
 * Heap allocations of the machine's run loop. A warm machine (built,
 * calibrated and run once) must execute a program without allocating
 * per instruction: the count inside run() may not grow with the
 * number of AllXY rounds. Its own executable, because it replaces the
 * global operator new.
 */

#include <gtest/gtest.h>

#include "common/alloc_count.hh"
#include "common/rng.hh"
#include "experiments/allxy.hh"
#include "isa/assembler.hh"
#include "quma/machine.hh"
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

TEST(RunAllocations, DoNotGrowWithInstructionsExecuted)
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

    std::size_t shortRun = allocationsInRun(machine, shortJob, shortProgram);
    std::size_t longRun = allocationsInRun(machine, longJob, longProgram);
    EXPECT_EQ(shortRun, longRun);
    EXPECT_GT(machine.stats().cyclesVisited, 0u);
}

} // namespace
} // namespace quma

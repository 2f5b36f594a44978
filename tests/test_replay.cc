/**
 * @file
 * Control-schedule replay (quma/tape.hh): jobs served from a verified
 * physics tape must be bit-identical to full machine runs, for every
 * experiment program, shard count and worker count; the stall check
 * must only accept tapes every stall draw reproduces; and programs
 * with measurement feedback, or whose timing breaks under stalls,
 * must keep the full path.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "compiler/codegen.hh"
#include "experiments/allxy.hh"
#include "experiments/coherence.hh"
#include "experiments/rb.hh"
#include "isa/assembler.hh"
#include "isa/nametable.hh"
#include "quma/tape.hh"
#include "runtime/keys.hh"
#include "runtime/service.hh"

namespace quma {
namespace {

using runtime::JobResult;
using runtime::JobSpec;

/** An in-process backend that keeps a copy of every submitted spec:
 *  the experiments' service-routed runners build their jobs here. */
class SpecRecorder : public runtime::IExperimentBackend
{
  public:
    std::vector<JobSpec> specs;

    std::optional<runtime::JobId>
    trySubmit(JobSpec spec, std::uint64_t trace_id) override
    {
        specs.push_back(spec);
        return service.trySubmit(std::move(spec), trace_id);
    }
    std::optional<runtime::JobId>
    submitFor(const JobSpec &spec, std::chrono::milliseconds timeout,
              std::uint64_t trace_id) override
    {
        specs.push_back(spec);
        return service.submitFor(spec, timeout, trace_id);
    }
    runtime::JobStatus
    status(runtime::JobId id) const override
    {
        return service.status(id);
    }
    std::optional<JobResult>
    poll(runtime::JobId id) const override
    {
        return service.poll(id);
    }
    bool cancel(runtime::JobId id) override { return service.cancel(id); }
    void
    subscribe(runtime::JobId id, CompletionCallback callback) override
    {
        service.subscribe(id, std::move(callback));
    }
    void
    subscribeProgress(runtime::JobId id, ProgressCallback callback) override
    {
        service.subscribeProgress(id, std::move(callback));
    }
    runtime::ServiceStats stats() const override { return service.stats(); }
    runtime::TraceDump
    traceDump() const override
    {
        return service.traceDump();
    }
    std::uint64_t
    traceNowNanos() const override
    {
        return service.traceNowNanos();
    }

  private:
    runtime::ExperimentService service;
};

/** The two-qubit CNOT program (paper Algorithm 2: Ym90 / CZ / Y90). */
JobSpec
cnotJob()
{
    JobSpec job;
    job.name = "cnot";
    qsim::TransmonParams q1 = qsim::paperQubitParams();
    q1.freqHz = 6.100e9;
    job.machine.qubits = {qsim::paperQubitParams(), q1};
    job.machine.numAwgs = 2;
    job.machine.driveAwg = {0, 1};
    job.machine.exec.stallInjection = true;
    job.assembly = R"(
        mov r1, 0
        mov r2, 3
        mov r15, 40000
        Round:
        QNopReg r15
        Pulse {q1}, X180
        Wait 4
        CNOT q0, q1
        Measure q0, r7
        Measure q1, r8
        Wait 600
        addi r1, r1, 1
        bne r1, r2, Round
        halt
    )";
    job.bins = 2;
    job.seed = 0xc2;
    job.maxCycles = 3 * 100000 + 1'000'000;
    return job;
}

/** One-qubit point program: `gates` then a measurement, `rounds`
 *  times, as the Rabi and spectroscopy sweeps build theirs. */
JobSpec
pointJob(const char *name, const std::vector<std::string> &gates,
         std::size_t rounds, std::size_t bins)
{
    compiler::QuantumProgram prog(name, 1, rounds);
    compiler::Kernel &k = prog.newKernel("point");
    k.init();
    for (const std::string &g : gates)
        k.gate(g, 0);
    k.measure(0, 7);
    JobSpec job;
    job.name = name;
    job.assembly = prog.compileToAssembly();
    job.bins = bins;
    job.seed = 0x9a;
    job.maxCycles = static_cast<Cycle>(rounds) * 50000 + 1'000'000;
    return job;
}

/** Every experiment program, opaque and round-structured. */
std::vector<JobSpec>
experimentJobs()
{
    std::vector<JobSpec> jobs;

    experiments::AllxyConfig allxy;
    allxy.rounds = 16;
    allxy.shards = 1; // opaque: the loop is in the program
    jobs.push_back(experiments::allxyJob(allxy));
    allxy.shards = 2; // round-structured
    allxy.seed = 0xa11;
    jobs.push_back(experiments::allxyJob(allxy));

    SpecRecorder recorder;
    experiments::RbConfig rb;
    rb.lengths = {2, 4, 8};
    rb.seedsPerLength = 2;
    rb.rounds = 8;
    rb.shards = 2;
    experiments::runRb(rb, recorder);

    auto coherence = experiments::CoherenceConfig::withLinearSweep(20000, 6);
    coherence.rounds = 4;
    coherence.shards = 1;
    experiments::runT1(coherence, recorder);
    experiments::runEcho(coherence, recorder);
    coherence.artificialDetuningHz = 200e3;
    experiments::runRamsey(coherence, recorder);
    jobs.insert(jobs.end(), recorder.specs.begin(), recorder.specs.end());

    JobSpec rabi = pointJob("rabi", {"X180"}, 6, 3);
    rabi.machine.amplitudeError = -0.4;
    jobs.push_back(rabi);
    JobSpec spectroscopy = pointJob("spectroscopy",
                                    {"X180", "X180", "X180"}, 6, 1);
    spectroscopy.machine.carrierDetuningHz = 2e6;
    spectroscopy.rounds = 6; // round-structured one-round body
    spectroscopy.assembly =
        pointJob("spectroscopy", {"X180", "X180", "X180"}, 1, 1).assembly;
    spectroscopy.maxCycles = 50000 + 1'000'000;
    jobs.push_back(spectroscopy);
    jobs.push_back(cnotJob());
    return jobs;
}

/** `job` with its program pre-assembled: it bypasses the program
 *  cache and so can never replay -- the full-path reference. */
JobSpec
fullPath(JobSpec job)
{
    job.program = isa::Assembler().assemble(job.assembly);
    return job;
}

std::vector<JobResult>
runAll(runtime::ExperimentService &service, const std::vector<JobSpec> &jobs)
{
    return service.awaitAll(service.submitAll(jobs));
}

TEST(Replay, ExperimentJobsMatchFullRunsAcrossShardsAndWorkers)
{
    const std::vector<JobSpec> jobs = experimentJobs();
    std::vector<JobResult> reference;
    {
        runtime::ServiceConfig sc;
        sc.workers = 1;
        runtime::ExperimentService service(sc);
        std::vector<JobSpec> full;
        for (const JobSpec &job : jobs)
            full.push_back(fullPath(job));
        reference = runAll(service, full);
        reference = runAll(service, full);
        EXPECT_EQ(service.stats().scheduler.roundsReplayed, 0u);
    }
    for (const JobResult &r : reference)
        ASSERT_FALSE(r.failed()) << r.error;

    for (std::size_t shards : {1u, 2u, 4u}) {
        for (unsigned workers : {1u, 4u}) {
            runtime::ServiceConfig sc;
            sc.workers = workers;
            runtime::ExperimentService service(sc);
            std::vector<JobSpec> sharded = jobs;
            for (JobSpec &job : sharded) {
                job.shards = shards;
                job.minRoundsPerShard = 1;
            }
            // Pass 0 notes every pair, pass 1 checks it, pass 2 on
            // replays whatever passed.
            for (int pass = 0; pass < 3; ++pass) {
                std::vector<JobResult> got = runAll(service, sharded);
                ASSERT_EQ(got.size(), reference.size());
                for (std::size_t i = 0; i < got.size(); ++i)
                    EXPECT_EQ(got[i], reference[i])
                        << jobs[i].name << " #" << i << " pass " << pass
                        << " shards " << shards << " workers " << workers;
            }
            runtime::ServiceStats st = service.stats();
            EXPECT_GT(st.scheduler.roundsReplayed, 0u);
            EXPECT_GT(st.cache.tapeHits, 0u);
            EXPECT_EQ(st.cache.tapeRejections, 0u)
                << "every experiment program is feedback-free and on time";
        }
    }
}

// ---------------------------------------------------- the stall check

/** A random feedback-free program of pulse bursts and measurements
 *  whose gaps are sometimes tighter than a stalling execution
 *  controller can fill: whether it keeps up depends on the stalls. */
isa::Program
randomProgram(Rng &rng)
{
    using isa::Instruction;
    static constexpr std::uint8_t kGates[] = {
        isa::uops::X180, isa::uops::X90, isa::uops::Y90, isa::uops::Y180,
        isa::uops::Xm90};
    isa::Program p;
    const std::int64_t loops = static_cast<std::int64_t>(rng.uniformInt(1, 3));
    p.push(Instruction::mov(1, 0));
    p.push(Instruction::mov(2, loops));
    const auto top = static_cast<std::int64_t>(p.size());
    const unsigned blocks = static_cast<unsigned>(rng.uniformInt(1, 3));
    for (unsigned b = 0; b < blocks; ++b) {
        const unsigned pulses = static_cast<unsigned>(rng.uniformInt(1, 8));
        for (unsigned i = 0; i < pulses; ++i) {
            // Mostly enough slack for a stalling controller, now and
            // then a gap it can only meet when it never stalls.
            const std::uint64_t gap = rng.bernoulli(0.85)
                                          ? rng.uniformInt(10, 30)
                                          : rng.uniformInt(1, 9);
            p.push(Instruction::wait(static_cast<std::int64_t>(gap)));
            p.push(Instruction::pulse1(1, kGates[rng.uniformInt(0, 4)]));
        }
        p.push(Instruction::wait(4));
        p.push(Instruction::mpg(1, 300));
        p.push(Instruction::md(1, 7));
        p.push(Instruction::wait(
            static_cast<std::int64_t>(rng.uniformInt(450, 600))));
    }
    p.push(Instruction::addi(1, 1, 1));
    p.push(Instruction::bne(1, 2, top));
    p.push(Instruction::halt());
    return p;
}

core::MachineConfig
stallingConfig()
{
    core::MachineConfig mc;
    mc.exec.stallInjection = true;
    mc.exec.stallProbability = 0.5;
    return mc;
}

TEST(Replay, EveryStallDrawReproducesAnAcceptedTape)
{
    constexpr Cycle kBudget = 10'000'000;
    core::QumaMachine machine(stallingConfig());
    machine.uploadStandardCalibration();
    Rng rng(0x7a9e);
    std::size_t accepted = 0, rejected = 0;
    for (int n = 0; n < 200; ++n) {
        isa::Program program = randomProgram(rng);
        machine.reset(Rng::derive(n, runtime::kChipStream),
                      Rng::derive(n, runtime::kExecStream));
        auto tape = core::verifyTape(machine, program, 1, kBudget);
        if (!tape) {
            ++rejected;
            continue;
        }
        ++accepted;
        for (std::uint64_t s = 0; s < 20; ++s) {
            machine.reset(Rng::derive(n, runtime::kChipStream),
                          Rng::derive(1000 + s, runtime::kExecStream));
            machine.configureDataCollection(1);
            machine.loadProgram(program);
            core::PhysicsTape drawn;
            machine.recordRun(drawn, kBudget);
            ASSERT_TRUE(drawn.sameRun(*tape))
                << "program " << n << " exec seed " << s;
        }
    }
    // The generator is tuned so both verdicts occur.
    EXPECT_GT(accepted, 20u);
    EXPECT_GT(rejected, 20u);
}

TEST(Replay, ReplayReproducesTheCollectorOfAFullRun)
{
    core::QumaMachine machine(stallingConfig());
    machine.uploadStandardCalibration();
    Rng rng(0x5eed);
    std::size_t checked = 0;
    for (int n = 0; n < 40; ++n) {
        isa::Program program = randomProgram(rng);
        machine.reset(11, 12);
        auto tape = core::verifyTape(machine, program, 2, 10'000'000);
        if (!tape)
            continue;
        ++checked;
        for (std::uint64_t chip : {21u, 22u}) {
            machine.reset(chip, 31);
            machine.configureDataCollection(2);
            machine.loadProgram(program);
            core::RunResult full = machine.run(10'000'000);
            std::vector<double> sums = machine.dataCollector().binSums();
            std::vector<double> bits = machine.dataCollector().bitBinSums();

            machine.reset(chip, 31);
            machine.configureDataCollection(2);
            machine.loadProgram(program);
            EXPECT_EQ(machine.replay(*tape), full);
            EXPECT_EQ(machine.dataCollector().binSums(), sums);
            EXPECT_EQ(machine.dataCollector().bitBinSums(), bits);
            EXPECT_EQ(machine.stats().cyclesVisited, 0u);
        }
    }
    EXPECT_GT(checked, 5u);
}

/** Active reset (examples/active_reset.cpp): the branch reads the MD
 *  result, so the control schedule depends on the chip. */
JobSpec
activeResetJob()
{
    JobSpec job;
    job.name = "active_reset";
    job.machine.qubits[0].readout.noiseSigma = 40.0;
    job.assembly = R"(
        mov r1, 0
        mov r2, 4
        mov r15, 40000
        Round:
        QNopReg r15
        Pulse {q0}, X90
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        beq r7, r0, Verify
        Pulse {q0}, X180
        Wait 4
        Verify:
        MPG {q0}, 300
        MD {q0}, r8
        Wait 600
        addi r1, r1, 1
        bne r1, r2, Round
        halt
    )";
    job.bins = 2;
    job.maxCycles = 4 * 100000 + 1'000'000;
    return job;
}

TEST(Replay, FeedbackFreeScanRejectsActiveReset)
{
    isa::Assembler assembler;
    EXPECT_FALSE(core::feedbackFree(assembler.assemble(activeResetJob().assembly)));
    EXPECT_TRUE(core::feedbackFree(assembler.assemble(cnotJob().assembly)));
    EXPECT_FALSE(core::feedbackFree(assembler.assemble(
        "MD {q0}, r3\nQNopReg r3\nhalt")));
    EXPECT_FALSE(core::feedbackFree(assembler.assemble(
        "Measure q0, r3\nstore r3, r0[0]\nhalt")));
}

/** Submit `job` three times (note, check, serve) and compare with its
 *  full-path result; returns the service's stats. */
runtime::ServiceStats
runThrice(const JobSpec &job)
{
    runtime::ServiceConfig sc;
    sc.workers = 1;
    runtime::ExperimentService service(sc);
    JobResult reference = service.runSync(fullPath(job));
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(service.runSync(job), reference) << job.name << " #" << i;
    return service.stats();
}

TEST(Replay, ActiveResetIsIneligibleAndNeverReplays)
{
    runtime::ServiceStats st = runThrice(activeResetJob());
    EXPECT_EQ(st.scheduler.roundsReplayed, 0u);
    EXPECT_EQ(st.cache.tapeRejections, 1u);
    EXPECT_EQ(st.cache.tapeHits, 0u);
}

/** Back-to-back pulses from cycle 0: on time when the execution
 *  controller never stalls, late when every instruction stalls. */
JobSpec
tightTimingJob()
{
    JobSpec job;
    job.name = "tight";
    job.machine = stallingConfig();
    job.assembly = R"(
        Wait 6
        Pulse {q0}, X90
        Wait 4
        Pulse {q0}, Y90
        Wait 4
        Pulse {q0}, X90
        Wait 4
        Pulse {q0}, Y90
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        halt
    )";
    job.bins = 1;
    job.maxCycles = 1'000'000;
    return job;
}

TEST(Replay, LateUnderMaxStallsIsRejectedAndRunsInFull)
{
    JobSpec job = tightTimingJob();
    isa::Program program = isa::Assembler().assemble(job.assembly);
    core::QumaMachine machine(job.machine);
    machine.uploadStandardCalibration();
    machine.reset(1, 2);
    machine.configureDataCollection(1);
    machine.loadProgram(program);
    machine.execController().setStallMode(core::StallMode::None);
    ASSERT_TRUE(machine.run(job.maxCycles).violations.clean())
        << "the zero-stall run must be on time";
    machine.reset(1, 2);
    machine.configureDataCollection(1);
    machine.loadProgram(program);
    machine.execController().setStallMode(core::StallMode::Max);
    ASSERT_GT(machine.run(job.maxCycles).violations.latePoints, 0u)
        << "the max-stall run must be late";
    EXPECT_EQ(core::verifyTape(machine, program, 1, job.maxCycles), nullptr);

    runtime::ServiceStats st = runThrice(job);
    EXPECT_EQ(st.scheduler.roundsReplayed, 0u);
    EXPECT_EQ(st.cache.tapeRejections, 1u);
}

TEST(Replay, AFreshServicesFirstJobIsNeverReplayed)
{
    experiments::AllxyConfig cfg;
    cfg.rounds = 16;
    cfg.shards = 1;
    JobSpec job = experiments::allxyJob(cfg);
    runtime::ServiceConfig sc;
    sc.workers = 1;
    runtime::ExperimentService service(sc);
    service.runSync(job);
    runtime::ServiceStats st = service.stats();
    EXPECT_EQ(st.scheduler.roundsReplayed, 0u);
    EXPECT_EQ(st.cache.tapeHits, 0u);
    EXPECT_EQ(st.cache.tapeMisses, 1u);
    const std::size_t visited = st.scheduler.eventsDispatched;
    EXPECT_GT(visited, 0u);
    // The second sighting checks the pair and already replays; the
    // third is served straight from the tape.
    service.runSync(job);
    EXPECT_EQ(service.stats().scheduler.roundsReplayed, 1u);
    service.runSync(job);
    st = service.stats();
    EXPECT_EQ(st.scheduler.roundsReplayed, 2u);
    EXPECT_EQ(st.cache.tapeHits, 1u);
    // Replayed rounds visit no cycles (nor do the check's runs).
    EXPECT_EQ(st.scheduler.eventsDispatched, visited);
}

TEST(Replay, TraceEnabledOrBudgetTooSmallKeepsTheFullPath)
{
    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    cfg.shards = 1;
    JobSpec traced = experiments::allxyJob(cfg);
    traced.machine.traceEnabled = true;
    EXPECT_EQ(runThrice(traced).scheduler.roundsReplayed, 0u);

    // A tape taken under a generous budget does not serve a job whose
    // budget would cut the run short.
    JobSpec job = experiments::allxyJob(cfg);
    runtime::ServiceConfig sc;
    sc.workers = 1;
    runtime::ExperimentService service(sc);
    service.runSync(job);
    service.runSync(job);
    ASSERT_EQ(service.stats().scheduler.roundsReplayed, 1u);
    JobSpec cut = job;
    cut.maxCycles = 1000;
    JobResult got = service.runSync(cut);
    EXPECT_FALSE(got.run.halted);
    EXPECT_EQ(got, service.runSync(fullPath(cut)));
    EXPECT_EQ(service.stats().scheduler.roundsReplayed, 1u);
}

} // namespace
} // namespace quma

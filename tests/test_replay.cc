/**
 * @file
 * Control-schedule replay (quma/tape.hh): jobs served from a verified
 * physics tape must be bit-identical to full machine runs, for every
 * experiment program, shard count and worker count; the stall check
 * must only accept tapes every stall draw reproduces; and programs
 * with measurement feedback, or whose timing breaks under stalls,
 * must keep the full path. A replayed drive applies the gate its
 * tape stores, on every frame; a replayed idle step applies the
 * stored factors on a static frame and computes them from the
 * current detuning on a drifting one. A
 * machine rebound to another config must run, record, check and
 * replay exactly as a fresh machine of that config.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/codegen.hh"
#include "experiments/allxy.hh"
#include "experiments/coherence.hh"
#include "experiments/rb.hh"
#include "isa/assembler.hh"
#include "isa/nametable.hh"
#include "quma/tape.hh"
#include "runtime/keys.hh"
#include "runtime/program_cache.hh"
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

/** One round of cz_one_drifting: both qubits driven around a CZ,
 *  then both measured. The 1 us wait spreads q1's gates in time: a
 *  gate axis that wrongly followed the detuning would then turn
 *  q1's gates by different angles, which the readout can see (a
 *  common turn of every gate is an rz the Z readout cannot see). */
constexpr const char *kDriftingCzRound = R"(
        QNopReg r15
        Pulse {q0, q1}, X90
        Wait 4
        CNOT q0, q1
        Wait 200
        Pulse {q0}, Y90
        Wait 4
        Pulse {q1}, X90
        Wait 4
        Measure q0, r7
        Measure q1, r8
        Wait 600
)";

/** Three rounds of kDriftingCzRound looped in one program, with only
 *  q1's frame drifting: a quasi-static detuning redrawn after every
 *  readout. */
JobSpec
driftingCzJob()
{
    JobSpec job = cnotJob();
    job.name = "cz_one_drifting";
    job.machine.qubits[1].quasiStaticDetuningSigmaHz = 250e3;
    job.assembly = std::string(R"(
        mov r1, 0
        mov r2, 3
        mov r15, 40000
        Round:)") + kDriftingCzRound + R"(
        addi r1, r1, 1
        bne r1, r2, Round
        halt
    )";
    job.seed = 0xd1;
    return job;
}

/** driftingCzJob round-structured: the program is one round and
 *  every round runs on its own chip stream, so a replayed round
 *  draws other detunings than the run its tape was verified on. */
JobSpec
driftingCzRoundsJob()
{
    JobSpec job = driftingCzJob();
    job.name = "cz_one_drifting_rounds";
    job.assembly = std::string(R"(
        mov r15, 40000)") + kDriftingCzRound + R"(
        halt
    )";
    job.rounds = 6;
    job.maxCycles = 100000 + 1'000'000;
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
    // A drifting frame: every idle follows the round's detuning. Once
    // looped in one program, once round-structured so each replayed
    // round draws its own detunings.
    coherence.qubitParams.quasiStaticDetuningSigmaHz = 150e3;
    experiments::runRamsey(coherence, recorder);
    coherence.shards = 2;
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
    jobs.push_back(driftingCzJob());
    jobs.push_back(driftingCzRoundsJob());
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
            core::compileKernels(drawn, machine.chip());
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
            // The kernel stream holds every step; the clock never ran.
            EXPECT_EQ(machine.chip().now(), 0);
        }
    }
    EXPECT_GT(checked, 5u);
}

// ------------------------------------------------- compiled kernels

/** The collector after a full run or a replay of `tape` under
 *  `chip_seed`; `tape` null means the full run. */
std::vector<double>
collectorAfter(core::QumaMachine &machine, const isa::Program &program,
               std::size_t bins, std::uint64_t chip_seed,
               const core::PhysicsTape *tape)
{
    machine.reset(chip_seed, 7);
    machine.configureDataCollection(bins);
    machine.loadProgram(program);
    if (tape)
        machine.replay(*tape);
    else
        machine.run(10'000'000);
    std::vector<double> out = machine.dataCollector().binSums();
    const auto &bits = machine.dataCollector().bitBinSums();
    out.insert(out.end(), bits.begin(), bits.end());
    return out;
}

/** Ops of `kind` in `tape` on the qubits of `qubits`. */
std::size_t
opsOn(const core::PhysicsTape &tape, core::TapeOp::Kind kind,
      QubitMask qubits)
{
    std::size_t n = 0;
    for (const core::TapeOp &op : tape.ops)
        if (op.kind == kind && (qubits & (QubitMask{1} << op.qubit)))
            ++n;
    return n;
}

/** `tape` with every stored gate a no-op: what a replay that
 *  applies stored gates can no longer reproduce. */
core::PhysicsTape
withoutGates(const core::PhysicsTape &tape)
{
    core::PhysicsTape copy = tape;
    for (qsim::DriveGate &g : copy.gates)
        g.rotates = false;
    return copy;
}

/** `tape` with every stored idle step a full decay to |0>: what a
 *  replay that applies stored idle factors can no longer reproduce. */
core::PhysicsTape
withDecayedIdles(const core::PhysicsTape &tape)
{
    core::PhysicsTape copy = tape;
    for (qsim::IdleCoeffs &c : copy.idles)
        c = qsim::DensityMatrix::idleCoeffs(1.0, 1.0);
    return copy;
}

/** `tape` with an identity idle step stored at every index any op
 *  names: a replay that reads them for a drifting qubit can no longer
 *  reproduce the run. */
core::PhysicsTape
withJunkIdles(const core::PhysicsTape &tape)
{
    core::PhysicsTape copy = tape;
    std::size_t size = 0;
    for (const core::TapeOp &op : tape.ops)
        size = std::max<std::size_t>(size, op.index + 1);
    copy.idles.assign(size, qsim::IdleCoeffs{});
    return copy;
}

/** withJunkIdles with a no-op gate stored at every index too. */
core::PhysicsTape
withJunkTables(const core::PhysicsTape &tape)
{
    core::PhysicsTape copy = withJunkIdles(tape);
    copy.gates.assign(copy.idles.size(), qsim::DriveGate{});
    return copy;
}

core::PhysicsTape
verifiedTape(core::QumaMachine &machine, const JobSpec &job,
             const isa::Program &program)
{
    machine.reset(1, 2);
    auto tape = core::verifyTape(machine, program, job.bins, job.maxCycles);
    EXPECT_NE(tape, nullptr) << job.name;
    return tape ? *tape : core::PhysicsTape{};
}

TEST(Replay, EveryFrameReplaysStoredGatesAndStaticFramesStoredIdles)
{
    using Kind = core::TapeOp::Kind;
    // Every qubit static: every idle step and rotation comes from the
    // tape's tables.
    {
        experiments::AllxyConfig cfg;
        cfg.rounds = 4;
        cfg.shards = 1;
        JobSpec job = experiments::allxyJob(cfg);
        isa::Program program = isa::Assembler().assemble(job.assembly);
        core::QumaMachine machine(job.machine);
        machine.uploadStandardCalibration();
        const core::PhysicsTape tape = verifiedTape(machine, job, program);
        EXPECT_EQ(tape.staticFrames, 1u);
        EXPECT_GT(tape.gates.size(), 0u);
        EXPECT_EQ(tape.gates.size(), opsOn(tape, Kind::Rotate, 1));
        // Deduplicated per interval: far fewer than the idle steps.
        EXPECT_GT(tape.idles.size(), 0u);
        EXPECT_LT(tape.idles.size(), opsOn(tape, Kind::Idle, 1));
        const auto full = collectorAfter(machine, program, job.bins, 5,
                                         nullptr);
        EXPECT_EQ(collectorAfter(machine, program, job.bins, 5, &tape),
                  full);
        core::PhysicsTape gateless = withoutGates(tape);
        EXPECT_NE(collectorAfter(machine, program, job.bins, 5, &gateless),
                  full);
        core::PhysicsTape decayed = withDecayedIdles(tape);
        EXPECT_NE(collectorAfter(machine, program, job.bins, 5, &decayed),
                  full);
    }
    // q0 static, q1 drifting: both qubits' gates and q0's idles come
    // from the tables, q1's idles from its interval, and the mix
    // replays bit-identically.
    {
        JobSpec job = driftingCzJob();
        isa::Program program = isa::Assembler().assemble(job.assembly);
        core::QumaMachine machine(job.machine);
        machine.uploadStandardCalibration();
        const core::PhysicsTape tape = verifiedTape(machine, job, program);
        EXPECT_EQ(tape.staticFrames, 1u);
        EXPECT_GT(opsOn(tape, Kind::Rotate, 1), 0u);
        EXPECT_GT(opsOn(tape, Kind::Rotate, 2), 0u);
        EXPECT_EQ(tape.gates.size(), opsOn(tape, Kind::Rotate, 3));
        EXPECT_GT(opsOn(tape, Kind::Cz, 3), 0u);
        for (std::uint64_t chip : {5u, 6u, 7u}) {
            const auto full = collectorAfter(machine, program, job.bins,
                                             chip, nullptr);
            EXPECT_EQ(collectorAfter(machine, program, job.bins, chip,
                                     &tape),
                      full);
            core::PhysicsTape gateless = withoutGates(tape);
            EXPECT_NE(collectorAfter(machine, program, job.bins, chip,
                                     &gateless),
                      full);
            core::PhysicsTape decayed = withDecayedIdles(tape);
            EXPECT_NE(collectorAfter(machine, program, job.bins, chip,
                                     &decayed),
                      full);
        }
    }
    // Both qubits drifting: only gates are stored. Junk idle factors
    // at every index an op names leave the replay bit-identical; junk
    // gates do not.
    {
        JobSpec job = driftingCzJob();
        job.machine.qubits[0].quasiStaticDetuningSigmaHz = 250e3;
        isa::Program program = isa::Assembler().assemble(job.assembly);
        core::QumaMachine machine(job.machine);
        machine.uploadStandardCalibration();
        const core::PhysicsTape tape = verifiedTape(machine, job, program);
        EXPECT_EQ(tape.staticFrames, 0u);
        EXPECT_TRUE(tape.idles.empty());
        EXPECT_EQ(tape.gates.size(), opsOn(tape, Kind::Rotate, 3));
        core::PhysicsTape junkIdles = withJunkIdles(tape);
        core::PhysicsTape junk = withJunkTables(tape);
        core::PhysicsTape gateless = withoutGates(tape);
        for (std::uint64_t chip : {5u, 6u}) {
            const auto full = collectorAfter(machine, program, job.bins,
                                             chip, nullptr);
            EXPECT_EQ(collectorAfter(machine, program, job.bins, chip,
                                     &tape),
                      full);
            EXPECT_EQ(collectorAfter(machine, program, job.bins, chip,
                                     &junkIdles),
                      full)
                << "a drifting qubit must not read the stored idles";
            EXPECT_NE(collectorAfter(machine, program, job.bins, chip,
                                     &junk),
                      full)
                << "a drifting qubit must apply the stored gates";
            EXPECT_NE(collectorAfter(machine, program, job.bins, chip,
                                     &gateless),
                      full);
        }
    }
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

TEST(Replay, ABudgetCutRejectionIsCheckedAgainUnderALargerBudget)
{
    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    cfg.shards = 1;
    JobSpec job = experiments::allxyJob(cfg);
    JobSpec cut = job;
    cut.maxCycles = 1000;
    runtime::ServiceConfig sc;
    sc.workers = 1;
    runtime::ExperimentService service(sc);
    // The cut job is noted, then checked: its budget cuts both check
    // runs short, so the pair is rejected under 1000 cycles.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(service.runSync(cut), service.runSync(fullPath(cut)));
    ASSERT_EQ(service.stats().cache.tapeRejections, 1u);
    ASSERT_EQ(service.stats().scheduler.roundsReplayed, 0u);

    // A normal budget checks the pair again, passes and replays.
    const JobResult reference = service.runSync(fullPath(job));
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(service.runSync(job), reference) << "#" << i;
    runtime::ServiceStats st = service.stats();
    EXPECT_EQ(st.scheduler.roundsReplayed, 2u);
    EXPECT_EQ(st.cache.tapeHits, 1u);
    EXPECT_EQ(st.cache.tapeRejections, 1u);
    // The cut job still cannot use the tape.
    EXPECT_EQ(service.runSync(cut), service.runSync(fullPath(cut)));
    EXPECT_EQ(service.stats().scheduler.roundsReplayed, 2u);
}

TEST(Replay, ARejectionIsCheckedAgainOnlyUnderALargerBudget)
{
    runtime::ProgramCache cache;
    const std::string src = "halt", cfg = "config";
    runtime::ProgramCache::TapeLookup l = cache.tape(src, cfg, 1000);
    EXPECT_FALSE(l.tape || l.verify || l.rejected) << "first sighting";
    EXPECT_TRUE(cache.tape(src, cfg, 1000).verify);
    cache.storeTape(src, cfg, nullptr, 1000);

    for (Cycle budget : {Cycle{1000}, Cycle{10}}) {
        l = cache.tape(src, cfg, budget);
        EXPECT_TRUE(l.rejected && !l.verify) << budget;
    }
    EXPECT_TRUE(cache.tape(src, cfg, 5000).verify);
    cache.storeTape(src, cfg, nullptr, 5000);
    EXPECT_TRUE(cache.tape(src, cfg, 5000).rejected);
    EXPECT_EQ(cache.stats().tapeRejections, 1u) << "one pair, one rejection";

    EXPECT_TRUE(cache.tape(src, cfg, 9000).verify);
    auto tape = std::make_shared<const core::PhysicsTape>();
    cache.storeTape(src, cfg, tape, 9000);
    EXPECT_EQ(cache.tape(src, cfg, 10).tape, tape);
    // A racing check's late rejection does not evict the tape.
    cache.storeTape(src, cfg, nullptr, 100);
    EXPECT_EQ(cache.tape(src, cfg, 10).tape, tape);
}

// ------------------------------------------------------------ rebind

/** Everything a caller can observe of one program on one machine: a
 *  full run on the seeds the machine holds (no reset first, as a
 *  fresh machine runs), then a recorded run, the stall check and a
 *  replay of the tape it accepts, each after its own reset. */
struct Observed
{
    core::RunResult run;
    std::vector<double> sums;
    std::vector<double> bits;
    core::MachineStats stats;
    core::TraceRecorder trace;
    core::PhysicsTape recorded;
    std::shared_ptr<const core::PhysicsTape> verified;
    core::RunResult replayed;
    std::vector<double> replaySums;
    std::vector<double> replayBits;
    core::MachineStats replayStats;
};

Observed
observe(core::QumaMachine &machine, const isa::Program &program)
{
    constexpr std::size_t kBins = 2;
    constexpr Cycle kBudget = 10'000'000;
    Observed o;
    machine.configureDataCollection(kBins);
    machine.loadProgram(program);
    o.run = machine.run(kBudget);
    o.sums = machine.dataCollector().binSums();
    o.bits = machine.dataCollector().bitBinSums();
    o.stats = machine.stats();
    o.trace = machine.trace();

    machine.reset(22, 32);
    machine.configureDataCollection(kBins);
    machine.loadProgram(program);
    machine.recordRun(o.recorded, kBudget);

    machine.reset(23, 33);
    o.verified = core::verifyTape(machine, program, kBins, kBudget);
    if (o.verified) {
        machine.reset(24, 34);
        machine.configureDataCollection(kBins);
        machine.loadProgram(program);
        o.replayed = machine.replay(*o.verified);
        o.replaySums = machine.dataCollector().binSums();
        o.replayBits = machine.dataCollector().bitBinSums();
        o.replayStats = machine.stats();
    }
    return o;
}

bool
sameTrace(const core::TraceRecorder &a, const core::TraceRecorder &b)
{
    return a.uopFires() == b.uopFires() && a.codewords() == b.codewords() &&
           a.pulses() == b.pulses() && a.mpgFires() == b.mpgFires() &&
           a.measurements() == b.measurements() &&
           a.mduResults() == b.mduResults() &&
           a.labelFires() == b.labelFires() &&
           a.microInsts() == b.microInsts();
}

void
expectSame(const Observed &got, const Observed &want, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.run, want.run);
    EXPECT_EQ(got.sums, want.sums);
    EXPECT_EQ(got.bits, want.bits);
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_TRUE(sameTrace(got.trace, want.trace));
    EXPECT_TRUE(got.recorded.sameRun(want.recorded));
    ASSERT_EQ(got.verified != nullptr, want.verified != nullptr);
    if (!want.verified)
        return;
    EXPECT_TRUE(got.verified->sameRun(*want.verified));
    EXPECT_EQ(got.replayed, want.replayed);
    EXPECT_EQ(got.replaySums, want.replaySums);
    EXPECT_EQ(got.replayBits, want.replayBits);
    EXPECT_EQ(got.replayStats, want.replayStats);
}

/** Run `program` on a machine of `a`, rebind it to `b`, and require
 *  everything observable to match a fresh machine of `b`. True when
 *  the stall check accepted a tape, so a replay was compared too. */
bool
expectRebindIsFresh(const core::MachineConfig &a,
                    const core::MachineConfig &b,
                    const isa::Program &program, const std::string &what)
{
    core::QumaMachine rebound(a);
    rebound.uploadStandardCalibration();
    observe(rebound, program);
    rebound.rebind(b);
    core::QumaMachine fresh(b);
    fresh.uploadStandardCalibration();
    const Observed want = observe(fresh, program);
    expectSame(observe(rebound, program), want, what);
    return want.verified != nullptr;
}

/** One edit per MachineConfig field (qubits several ways), each a
 *  config the random programs still run on. Applied in list order,
 *  any subset stays valid. */
std::vector<std::pair<std::string,
                      std::function<void(core::MachineConfig &)>>>
fieldEdits()
{
    using C = core::MachineConfig;
    return {
        {"two qubits",
         [](C &c) { c.qubits.push_back(qsim::paperQubitParams()); }},
        {"qubit freq", [](C &c) { c.qubits[0].freqHz += 2e6; }},
        {"qubit t1", [](C &c) { c.qubits[0].t1Ns = 20000; }},
        {"drifting frame",
         [](C &c) { c.qubits[0].quasiStaticDetuningSigmaHz = 2e5; }},
        {"rabi gain", [](C &c) { c.qubits[0].rabiRadPerAmpNs *= 1.02; }},
        {"readout noise", [](C &c) { c.qubits[0].readout.noiseSigma = 2; }},
        {"numAwgs", [](C &c) { c.numAwgs = 2; }},
        {"driveAwg",
         [](C &c) { c.driveAwg.assign(c.qubits.size(), c.numAwgs - 1); }},
        {"ssbHz", [](C &c) { c.ssbHz = -40e6; }},
        {"pulseNs", [](C &c) { c.pulseNs = 16.0; }},
        {"gateWaitCycles", [](C &c) { c.gateWaitCycles = 5; }},
        {"amplitudeError", [](C &c) { c.amplitudeError = 0.05; }},
        {"carrierDetuningHz", [](C &c) { c.carrierDetuningHz = 1e6; }},
        {"uopDelayCycles", [](C &c) { c.uopDelayCycles = 3; }},
        {"ctpgDelayCycles", [](C &c) { c.ctpgDelayCycles = 12; }},
        {"mduLatencyCycles", [](C &c) { c.mduLatencyCycles = 80; }},
        {"msmtCycles", [](C &c) { c.msmtCycles = 200; }},
        {"msmtPathDelayCycles", [](C &c) { c.msmtPathDelayCycles = 20; }},
        {"czDurationNs", [](C &c) { c.czDurationNs = 60; }},
        {"msmtCarrierHz", [](C &c) { c.msmtCarrierHz = 6.8e9; }},
        {"issueWidth", [](C &c) { c.exec.issueWidth = 2; }},
        {"stall injection off",
         [](C &c) { c.exec.stallInjection = false; }},
        {"stallProbability", [](C &c) { c.exec.stallProbability = 0.2; }},
        {"maxStallCycles", [](C &c) { c.exec.maxStallCycles = 9; }},
        {"dataMemoryWords", [](C &c) { c.exec.dataMemoryWords = 64; }},
        {"timing queues",
         [](C &c) {
             c.timing.timingQueueCapacity = 4;
             c.timing.pulseQueueCapacity = 4;
         }},
        {"qmbDepth", [](C &c) { c.qmbDepth = 4; }},
        {"qmbDrainRate", [](C &c) { c.qmbDrainRate = 2; }},
        {"chipSeed", [](C &c) { c.chipSeed = 77; }},
        {"trace on", [](C &c) { c.traceEnabled = true; }},
    };
}

TEST(Rebind, EachFieldChangedAloneMatchesAFreshMachine)
{
    Rng rng(0x4eb1);
    const core::MachineConfig base = stallingConfig();
    std::size_t replayed = 0;
    for (const auto &[name, edit] : fieldEdits()) {
        core::MachineConfig changed = base;
        edit(changed);
        const isa::Program program = randomProgram(rng);
        replayed += expectRebindIsFresh(base, changed, program,
                                        name + " (A -> B)");
        replayed += expectRebindIsFresh(changed, base, program,
                                        name + " (B -> A)");
    }
    EXPECT_GT(replayed, 10u);
}

TEST(Rebind, RandomConfigPairsMatchAFreshMachine)
{
    const auto edits = fieldEdits();
    Rng rng(0x4eb2);
    auto randomConfig = [&] {
        core::MachineConfig c = stallingConfig();
        for (const auto &[name, edit] : edits)
            if (rng.bernoulli(0.3))
                edit(c);
        return c;
    };
    std::size_t replayed = 0;
    for (int pair = 0; pair < 20; ++pair) {
        const core::MachineConfig a = randomConfig();
        const core::MachineConfig b = randomConfig();
        replayed += expectRebindIsFresh(a, b, randomProgram(rng),
                                        "pair " + std::to_string(pair));
    }
    EXPECT_GT(replayed, 3u);
}

TEST(Rebind, ToTheCurrentConfigIsAReset)
{
    Rng rng(0x4eb3);
    const isa::Program program = randomProgram(rng);
    core::QumaMachine machine(stallingConfig());
    machine.uploadStandardCalibration();
    observe(machine, program);
    const qsim::TransmonChip *chip = &machine.chip();
    machine.rebind(machine.config());
    EXPECT_EQ(&machine.chip(), chip); // nothing rebuilt
    // The seeds machine.config() holds are its last reset's; the
    // config it was built with brings back its own.
    machine.rebind(stallingConfig());
    core::QumaMachine fresh(stallingConfig());
    fresh.uploadStandardCalibration();
    expectSame(observe(machine, program), observe(fresh, program),
               "same config");
}

TEST(Rebind, ARejectedConfigLeavesTheMachineAsItWas)
{
    setLogQuiet(true);
    using C = core::MachineConfig;
    const std::vector<
        std::pair<std::string, std::function<void(C &)>>>
        invalid = {
            {"no qubits", [](C &c) { c.qubits.clear(); }},
            {"13 qubits",
             [](C &c) { c.qubits.assign(13, qsim::paperQubitParams()); }},
            {"no AWG", [](C &c) { c.numAwgs = 0; }},
            {"a million AWGs", [](C &c) { c.numAwgs = 1u << 20; }},
            {"AWG count wraps",
             [](C &c) { c.numAwgs = ~0u; }},
            {"driveAwg out of range", [](C &c) { c.driveAwg = {3}; }},
            {"driveAwg short",
             [](C &c) {
                 c.qubits.push_back(qsim::paperQubitParams());
                 c.driveAwg = {0};
             }},
            {"issue width 0", [](C &c) { c.exec.issueWidth = 0; }},
            {"QMB depth 0", [](C &c) { c.qmbDepth = 0; }},
            // Pass validation, fail the physics build: the chip...
            {"T2 > 2 T1",
             [](C &c) {
                 c.qubits.push_back(qsim::paperQubitParams());
                 c.qubits[1].t2Ns = 3 * c.qubits[1].t1Ns;
             }},
            // ...or the MDUs, after the chip built.
            {"empty readout window",
             [](C &c) {
                 c.qubits.push_back(qsim::paperQubitParams());
                 c.msmtCycles = 0;
             }},
        };
    Rng rng(0x4eb4);
    const isa::Program program = randomProgram(rng);
    core::QumaMachine fresh(stallingConfig());
    fresh.uploadStandardCalibration();
    const Observed want = observe(fresh, program);
    for (const auto &[name, edit] : invalid) {
        core::QumaMachine machine(stallingConfig());
        machine.uploadStandardCalibration();
        observe(machine, program);
        C bad = stallingConfig();
        edit(bad);
        EXPECT_THROW(machine.rebind(bad), FatalError) << name;
        // Back on A's own seeds, it runs as a fresh machine of A.
        machine.reset(stallingConfig().chipSeed,
                      stallingConfig().exec.seed);
        EXPECT_THROW(
            {
                core::QumaMachine built(bad);
                built.uploadStandardCalibration();
            },
            FatalError)
            << name;
        expectSame(observe(machine, program), want, name);
    }
    setLogQuiet(false);
}

} // namespace
} // namespace quma

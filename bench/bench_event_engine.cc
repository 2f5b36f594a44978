/**
 * @file
 * Per-layer bench of the machine's event loop: QumaMachine::run on a
 * warm machine (built, calibrated and run once) executing the AllXY
 * job of the repository benchmark's sweep (16 rounds, one looping
 * program). Reports the host cost per visited cycle, the cycles the
 * loop visits per job, and the heap allocations run() makes per job.
 * A second row times QumaMachine::replay of the same jobs from the
 * job's verified physics tape (control-schedule replay, quma/tape.hh)
 * and checks every replayed collector against the full run's. The
 * work a tape moves out of replay lands in its verification, so the
 * bench also reports the median verifyTape() time and the verified
 * tape's size (ops plus side tables).
 * Prints a summary and, with `--json <path>`, writes machine-readable
 * metrics per docs/benchmarks.md.
 *
 * `--smoke` runs one job each way (no timing claims): the perf_smoke
 * ctest label uses it to catch bit-rot in Debug builds, replay's
 * bit-identity included.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.hh"
#include "common/alloc_count.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "experiments/allxy.hh"
#include "isa/assembler.hh"
#include "quma/machine.hh"
#include "quma/tape.hh"
#include "runtime/keys.hh"

using namespace quma;

namespace {

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = bench::argFlag(argc, argv, "--smoke");
    std::string jsonPath = bench::argValue(argc, argv, "--json");

    bench::JsonReport json("event_engine");
    if (smoke)
        std::printf("(smoke mode: one job, timings meaningless)\n");

    experiments::AllxyConfig cfg;
    cfg.rounds = 16;
    cfg.shards = 1;
    runtime::JobSpec job = experiments::allxyJob(cfg);
    isa::Program program = isa::Assembler().assemble(job.assembly);

    core::QumaMachine machine(job.machine);
    machine.uploadStandardCalibration();

    std::size_t jobs = smoke ? 1 : 200;
    // Job i's seeds; reset() to them before every run and replay.
    auto arm = [&](std::size_t i) {
        std::uint64_t seed = job.seed + i;
        machine.reset(Rng::derive(seed, runtime::kChipStream),
                      Rng::derive(seed, runtime::kExecStream));
        machine.configureDataCollection(job.bins);
        machine.loadProgram(program);
    };
    std::vector<double> nsPerCycle, usPerJob, visited, allocs;
    std::vector<std::vector<double>> fullSums;
    // Job 0 warms the machine's reusable buffers and is not reported.
    for (std::size_t i = 0; i <= jobs; ++i) {
        arm(i);
        std::size_t a0 = allocations();
        auto t0 = std::chrono::steady_clock::now();
        core::RunResult r = machine.run(job.maxCycles);
        auto t1 = std::chrono::steady_clock::now();
        std::size_t made = allocations() - a0;
        if (!r.halted || !r.violations.clean())
            fatal("AllXY job ", i, " did not run cleanly");
        fullSums.push_back(machine.dataCollector().binSums());
        if (i == 0)
            continue;
        double ns = std::chrono::duration<double, std::nano>(t1 - t0)
                        .count();
        auto cycles = static_cast<double>(machine.stats().cyclesVisited);
        nsPerCycle.push_back(ns / cycles);
        usPerJob.push_back(ns / 1e3);
        visited.push_back(cycles);
        allocs.push_back(static_cast<double>(made));
    }

    // The same jobs replayed from the tape the runtime would verify;
    // verification (two recording runs and the compile step) is timed
    // on its own.
    std::shared_ptr<const core::PhysicsTape> tape;
    std::vector<double> verifyUs;
    for (std::size_t v = 0; v < (smoke ? 1 : 21); ++v) {
        machine.reset(Rng::derive(job.seed, runtime::kChipStream),
                      Rng::derive(job.seed, runtime::kExecStream));
        auto t0 = std::chrono::steady_clock::now();
        tape = core::verifyTape(machine, program, job.bins, job.maxCycles);
        auto t1 = std::chrono::steady_clock::now();
        if (!tape)
            fatal("the AllXY job failed the replay check");
        verifyUs.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    const auto tapeBytes = static_cast<double>(tape->bytes());
    std::vector<double> replayUs, replayAllocs;
    for (std::size_t i = 0; i <= jobs; ++i) {
        arm(i);
        std::size_t a0 = allocations();
        auto t0 = std::chrono::steady_clock::now();
        machine.replay(*tape);
        auto t1 = std::chrono::steady_clock::now();
        std::size_t made = allocations() - a0;
        if (machine.dataCollector().binSums() != fullSums[i])
            fatal("replay of AllXY job ", i, " differs from its full run");
        if (i == 0)
            continue;
        replayUs.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        replayAllocs.push_back(static_cast<double>(made));
    }

    bench::banner("machine event loop (warm AllXY job, 16 rounds)");
    std::printf("jobs timed                 %zu\n", jobs);
    std::printf("run() per job              %10.1f us (median)\n",
                median(usPerJob));
    std::printf("host cost per visited cycle%10.1f ns (median)\n",
                median(nsPerCycle));
    std::printf("visited cycles per job     %10.0f\n", median(visited));
    std::printf("heap allocations per job   %10.0f\n", median(allocs));
    std::printf("replay() per job           %10.1f us (median)\n",
                median(replayUs));
    std::printf("replay speed-up over run() %10.2fx\n",
                median(usPerJob) / median(replayUs));
    std::printf("replay heap allocations    %10.0f\n",
                median(replayAllocs));
    std::printf("verifyTape() per tape      %10.1f us (median)\n",
                median(verifyUs));
    std::printf("verified tape size         %10.0f bytes\n", tapeBytes);
    bench::rule();

    json.metric("run_ns_per_visited_cycle", median(nsPerCycle), "ns");
    json.metric("run_us_per_job", median(usPerJob), "us");
    json.metric("visited_cycles_per_job", median(visited), "count");
    json.metric("heap_allocs_per_job", median(allocs), "count");
    json.metric("replay_us_per_job", median(replayUs), "us");
    json.metric("replay_speedup", median(usPerJob) / median(replayUs));
    json.metric("verify_us", median(verifyUs), "us");
    json.metric("tape_bytes", tapeBytes, "bytes");
    return json.writeTo(jsonPath) ? 0 : 1;
}

/**
 * @file
 * Per-layer bench of the machine's event loop: QumaMachine::run on a
 * warm machine (built, calibrated and run once) executing the AllXY
 * job of the repository benchmark's sweep (16 rounds, one looping
 * program). Reports the host cost per visited cycle, the cycles the
 * loop visits per job, and the heap allocations run() makes per job.
 * Prints a summary and, with `--json <path>`, writes machine-readable
 * metrics per docs/benchmarks.md.
 *
 * `--smoke` runs one job (no timing claims): the perf_smoke ctest
 * label uses it to catch bit-rot in Debug builds.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.hh"
#include "common/alloc_count.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "experiments/allxy.hh"
#include "isa/assembler.hh"
#include "quma/machine.hh"
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
    std::vector<double> nsPerCycle, usPerJob, visited, allocs;
    // Job 0 warms the machine's reusable buffers and is not reported.
    for (std::size_t i = 0; i <= jobs; ++i) {
        std::uint64_t seed = job.seed + i;
        machine.reset(Rng::derive(seed, runtime::kChipStream),
                      Rng::derive(seed, runtime::kExecStream));
        machine.configureDataCollection(job.bins);
        machine.loadProgram(program);
        std::size_t a0 = allocations();
        auto t0 = std::chrono::steady_clock::now();
        core::RunResult r = machine.run(job.maxCycles);
        auto t1 = std::chrono::steady_clock::now();
        std::size_t made = allocations() - a0;
        if (!r.halted || !r.violations.clean())
            fatal("AllXY job ", i, " did not run cleanly");
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

    bench::banner("machine event loop (warm AllXY job, 16 rounds)");
    std::printf("jobs timed                 %zu\n", jobs);
    std::printf("run() per job              %10.1f us (median)\n",
                median(usPerJob));
    std::printf("host cost per visited cycle%10.1f ns (median)\n",
                median(nsPerCycle));
    std::printf("visited cycles per job     %10.0f\n", median(visited));
    std::printf("heap allocations per job   %10.0f\n", median(allocs));
    bench::rule();

    json.metric("run_ns_per_visited_cycle", median(nsPerCycle), "ns");
    json.metric("run_us_per_job", median(usPerJob), "us");
    json.metric("visited_cycles_per_job", median(visited), "count");
    json.metric("heap_allocs_per_job", median(allocs), "count");
    return json.writeTo(jsonPath) ? 0 : 1;
}

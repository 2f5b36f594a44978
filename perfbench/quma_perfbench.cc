/**
 * @file
 * Repository benchmark program: the AllXY amplitude sweep of
 * quma_remote_sweep, run back to back through the serving stack, with
 * end-to-end metrics from an untraced run and per-layer metrics from a
 * separate traced run.
 *
 *   quma_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * The traffic is the repository's own client and deployment defaults:
 *
 *   sweep     quma_remote_sweep with no options: 8 AllXY points (one
 *             machine config each, amplitude error 0.05 * i / 7),
 *             16 averaging rounds, 1 shard; submitted pipelined
 *             (submitAll) and collected as the jobs complete
 *             (awaitMany).
 *   service   quma_serve with no options: 4 workers, queue 256, the
 *             ServiceConfig default pool of workers + 2 = 6 machines.
 *   gateway   quma_gateway as its usage example runs it: backends
 *             named be-a and be-b, GatewayConfig defaults.
 *
 * Workloads (one line of why each exists is in BENCHMARK.json):
 *
 *   local     the sweep against an in-process ExperimentService
 *             (the IExperimentBackend path experiment fan-outs use):
 *             scheduler and machine layers, no wire.
 *   remote    QumaClient -> QumaServer over TCP loopback.
 *   fleet     QumaClient -> QumaGateway -> 2 QumaServers over TCP
 *             loopback. The sweep's 8 configs outnumber one backend's
 *             6-machine pool, so its machines stay warm only while
 *             config-affinity routing splits the configs between the
 *             backends.
 *
 * One client runs sweeps in a closed loop (submit a sweep, collect
 * all eight results, repeat) until --seconds have passed. The inputs
 * are a few sweeps whose job seeds are a pure function of --seed.
 *
 * Correctness: before anything is timed, every job of the input list
 * is run directly on a QumaMachine -- the same reset / load / run
 * sequence the scheduler performs for a one-shard job, with no
 * scheduler, pool, cache or wire in between -- and every result the
 * stack returns (set-up, warm-up and timed) must be bit-identical to
 * that reference. The error-free point must reproduce the AllXY
 * staircase, and no layer may report an error.
 *
 * Output: human-readable progress on stderr; the last line of stdout
 * is one JSON object {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 reports the end-to-end metrics: the median CPU time the
 * whole stack (client, gateway, servers, workers -- every thread of
 * this process) spends per sweep, and set-up time. CPU time, not wall
 * time, because on a shared virtual machine the wall time of a sweep
 * follows how often the host takes the vCPUs away; the CPU time does
 * not. --trace 1 enables the runtime's job trace recorder and reports
 * per-layer metrics instead: the median wall time of a sweep, machine
 * layers timed around the direct reference runs, wire codec cost, the
 * client's pipelined submit, runtime spans from the recorder, and the
 * work and traffic counters of the service, server and gateway layers
 * per job.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "experiments/allxy.hh"
#include "isa/assembler.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
#include "net/wire.hh"
#include "quma/machine.hh"
#include "runtime/keys.hh"
#include "runtime/service.hh"

using namespace quma;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** CPU time used so far by every thread of this process, in ms. */
double
processCpuMs()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ms = [](const timeval &t) {
        return 1e3 * static_cast<double>(t.tv_sec) +
               1e-3 * static_cast<double>(t.tv_usec);
    };
    return ms(usage.ru_utime) + ms(usage.ru_stime);
}

// --- workloads ---------------------------------------------------------------

enum class Path { Local, Remote, Fleet };

struct Workload
{
    const char *name;
    Path path;
};

constexpr Workload kWorkloads[] = {
    {"local", Path::Local},
    {"remote", Path::Remote},
    {"fleet", Path::Fleet},
};

/** quma_remote_sweep defaults: --points 8 --rounds 16 --shards 1. */
constexpr std::size_t kPoints = 8;
constexpr std::size_t kRounds = 16;
constexpr std::uint32_t kShards = 1;

/** quma_serve defaults: --workers 4 --queue 256 (pool left default). */
constexpr unsigned kWorkers = 4;
constexpr std::size_t kQueue = 256;

/** The backend names of quma_gateway's usage example. */
const char *const kBackendNames[] = {"be-a", "be-b"};

/** Distinct sweeps in the input list (cycled by the closed loop). */
constexpr std::size_t kSweeps = 4;

/**
 * Time between set-up samples; setup_s is their median. Sampling
 * across the whole run, not in one burst, lets the median see the
 * same host conditions as the sweeps.
 */
constexpr double kSetupEveryMs = 250.0;

/** splitmix64 finalizer: the input generator's only randomness. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

using Sweep = std::vector<runtime::JobSpec>;

/**
 * The input list: kSweeps sweeps built the way quma_remote_sweep
 * builds its one, except that job seeds come from --seed.
 */
std::vector<Sweep>
makeSweeps(std::uint64_t seed)
{
    std::vector<Sweep> sweeps(kSweeps);
    for (std::size_t s = 0; s < kSweeps; ++s) {
        for (std::size_t i = 0; i < kPoints; ++i) {
            experiments::AllxyConfig cfg;
            cfg.rounds = kRounds;
            cfg.shards = kShards;
            cfg.amplitudeError = 0.05 * static_cast<double>(i) /
                                 static_cast<double>(kPoints - 1);
            cfg.seed = mix(seed * 1315423911ULL + s * kPoints + i);
            sweeps[s].push_back(experiments::allxyJob(cfg));
        }
    }
    return sweeps;
}

// --- statistics --------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

// --- direct reference runs (machine layer) -----------------------------------

/** Host time of each machine layer, one sample per call. */
struct MachineSpans
{
    std::vector<double> buildMs;
    std::vector<double> calibrateMs;
    std::vector<double> assembleMs;
    std::vector<double> runSetupUs;
    std::vector<double> runMs;
    std::vector<double> nsPerCycle;
};

/**
 * Runs one-shard jobs straight on QumaMachines, one machine per
 * config key, replaying the scheduler's single-run execution.
 */
class DirectRunner
{
  public:
    runtime::JobResult
    run(const runtime::JobSpec &spec, MachineSpans &spans)
    {
        core::QumaMachine &machine = machineFor(spec.machine, spans);

        auto t0 = Clock::now();
        isa::Program program = assembler.assemble(spec.assembly);
        spans.assembleMs.push_back(msBetween(t0, Clock::now()));

        auto s0 = Clock::now();
        machine.reset(Rng::derive(spec.seed, runtime::kChipStream),
                      Rng::derive(spec.seed, runtime::kExecStream));
        machine.configureDataCollection(spec.bins ? spec.bins : 1);
        machine.loadProgram(program);
        auto s1 = Clock::now();
        runtime::JobResult result;
        result.run = machine.run(spec.maxCycles);
        auto s2 = Clock::now();
        spans.runSetupUs.push_back(1e3 * msBetween(s0, s1));
        spans.runMs.push_back(msBetween(s1, s2));
        if (result.run.cyclesRun > 0)
            spans.nsPerCycle.push_back(
                1e6 * msBetween(s1, s2) /
                static_cast<double>(result.run.cyclesRun));

        result.averages = machine.dataCollector().averages();
        result.bitAverages = machine.dataCollector().bitAverages();
        result.sampleCount = machine.dataCollector().sampleCount();
        return result;
    }

  private:
    core::QumaMachine &
    machineFor(const core::MachineConfig &config, MachineSpans &spans)
    {
        std::string key = runtime::configKey(config);
        auto it = machines.find(key);
        if (it != machines.end())
            return *it->second;
        auto t0 = Clock::now();
        auto m = std::make_unique<core::QumaMachine>(config);
        auto t1 = Clock::now();
        m->uploadStandardCalibration();
        auto t2 = Clock::now();
        spans.buildMs.push_back(msBetween(t0, t1));
        spans.calibrateMs.push_back(msBetween(t1, t2));
        return *machines.emplace(key, std::move(m)).first->second;
    }

    isa::Assembler assembler;
    std::unordered_map<std::string, std::unique_ptr<core::QumaMachine>>
        machines;
};

/** The error-free point (index 0 of every sweep) shows the staircase. */
bool
staircaseHolds(const std::vector<std::vector<runtime::JobResult>> &reference)
{
    std::vector<double> raw(42, 0.0);
    for (const auto &sweep : reference) {
        const runtime::JobResult &r = sweep.front();
        if (r.averages.size() != raw.size())
            return false;
        for (std::size_t i = 0; i < raw.size(); ++i)
            raw[i] += r.averages[i] / static_cast<double>(reference.size());
    }
    double deviation = meanAbsDeviation(experiments::rescaleAllxy(raw),
                                        experiments::idealAllxySignature());
    std::fprintf(stderr, "reference AllXY deviation: %.4f\n", deviation);
    return deviation < 0.1;
}

// --- wire codec layer --------------------------------------------------------

struct CodecSpans
{
    std::vector<double> specUs;
    std::vector<double> resultUs;
};

/** Encode + decode every job and its result the way the wire does. */
bool
measureCodec(const std::vector<Sweep> &sweeps,
             const std::vector<std::vector<runtime::JobResult>> &reference,
             CodecSpans &spans)
{
    bool ok = true;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        for (std::size_t i = 0; i < sweeps[s].size(); ++i) {
            const runtime::JobSpec &job = sweeps[s][i];
            auto t0 = Clock::now();
            net::Writer ws;
            net::encodeJobSpec(ws, job);
            net::Reader rs(ws.bytes());
            runtime::JobSpec spec = net::decodeJobSpec(rs);
            auto t1 = Clock::now();
            net::Writer wr;
            net::encodeJobResult(wr, reference[s][i]);
            net::Reader rr(wr.bytes());
            runtime::JobResult result = net::decodeJobResult(rr);
            auto t2 = Clock::now();
            ok = ok && spec.assembly == job.assembly &&
                 spec.seed == job.seed && result == reference[s][i];
            spans.specUs.push_back(1e3 * msBetween(t0, t1));
            spans.resultUs.push_back(1e3 * msBetween(t1, t2));
        }
    }
    return ok;
}

// --- the serving stack -------------------------------------------------------

/**
 * One instance of the workload's serving path. Members are destroyed
 * in reverse order: client, gateway, servers, then services.
 */
struct Stack
{
    std::vector<std::unique_ptr<runtime::ExperimentService>> services;
    std::vector<std::unique_ptr<net::QumaServer>> servers;
    std::unique_ptr<net::QumaGateway> gateway;
    std::unique_ptr<net::QumaClient> client;

    runtime::IExperimentBackend &
    backend()
    {
        if (client)
            return *client;
        return *services.front();
    }
};

std::unique_ptr<Stack>
buildStack(const Workload &w, bool traced)
{
    auto stack = std::make_unique<Stack>();
    runtime::ServiceConfig sc;
    sc.workers = kWorkers;
    sc.queueCapacity = kQueue;
    if (traced)
        sc.traceCapacity = std::size_t{1} << 21;
    std::size_t backends = w.path == Path::Fleet ? 2 : 1;
    for (std::size_t b = 0; b < backends; ++b)
        stack->services.push_back(
            std::make_unique<runtime::ExperimentService>(sc));
    if (w.path == Path::Local)
        return stack;

    std::vector<std::uint16_t> ports;
    for (auto &service : stack->services) {
        auto listener = std::make_unique<net::TcpListener>(0);
        ports.push_back(listener->port());
        stack->servers.push_back(std::make_unique<net::QumaServer>(
            *service, std::move(listener)));
    }
    std::uint16_t frontPort = ports.front();
    if (w.path == Path::Fleet) {
        // Named, not left to their ephemeral address: the affinity
        // hash covers the name, so the config split is the same on
        // every run.
        std::vector<net::GatewayBackend> list;
        for (std::size_t b = 0; b < ports.size(); ++b) {
            list.push_back(net::tcpBackend("127.0.0.1", ports[b]));
            list.back().name = kBackendNames[b];
        }
        auto listener = std::make_unique<net::TcpListener>(0);
        frontPort = listener->port();
        stack->gateway = std::make_unique<net::QumaGateway>(
            std::move(list), std::move(listener));
    }
    stack->client = std::make_unique<net::QumaClient>("127.0.0.1", frontPort);
    return stack;
}

/**
 * One sweep the way quma_remote_sweep runs it: a pipelined submitAll,
 * then the results as they complete (in-process: awaitAll). Results
 * come back in sweep order; `submitMs` receives the submitAll time.
 */
std::vector<runtime::JobResult>
runSweep(Stack &stack, const Sweep &sweep, double *submitMs = nullptr)
{
    auto t0 = Clock::now();
    std::vector<runtime::JobId> ids = stack.backend().submitAll(sweep);
    if (submitMs)
        *submitMs = msBetween(t0, Clock::now());
    if (!stack.client)
        return stack.backend().awaitAll(ids);
    std::unordered_map<runtime::JobId, std::size_t> indexOf;
    for (std::size_t i = 0; i < ids.size(); ++i)
        indexOf.emplace(ids[i], i);
    std::vector<runtime::JobResult> results(ids.size());
    for (auto &[id, result] : stack.client->awaitMany(ids))
        results[indexOf.at(id)] = std::move(result);
    return results;
}

// --- the closed loop ---------------------------------------------------------

struct LoopResult
{
    std::vector<double> sweepMs;
    std::vector<double> sweepCpuMs;
    std::vector<double> submitMs;
    std::vector<double> setupS;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t mismatched = 0;
    std::size_t setupMismatched = 0;
    double elapsedS = 0.0;
};

/**
 * Closed loop of sweeps on `stack`. When `setupOf` is given, every
 * kSetupEveryMs the loop pauses to time a fresh stack of that
 * workload answering its first job.
 */
LoopResult
closedLoop(Stack &stack, const std::vector<Sweep> &sweeps,
           const std::vector<std::vector<runtime::JobResult>> &reference,
           double seconds, const Workload *setupOf)
{
    LoopResult out;
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    auto lastSetup = start;
    for (std::size_t n = 0; Clock::now() < deadline; ++n) {
        if (setupOf && (out.setupS.empty() ||
                        msBetween(lastSetup, Clock::now()) >= kSetupEveryMs)) {
            auto t0 = Clock::now();
            auto fresh = buildStack(*setupOf, false);
            runtime::JobResult first =
                fresh->backend().runSync(sweeps.front().front());
            out.setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
            out.setupMismatched += first != reference.front().front();
            fresh.reset();
            lastSetup = Clock::now();
        }
        std::size_t s = n % sweeps.size();
        out.attempted += sweeps[s].size();
        try {
            double submitMs = 0.0;
            double cpu0 = processCpuMs();
            auto t0 = Clock::now();
            std::vector<runtime::JobResult> results =
                runSweep(stack, sweeps[s], &submitMs);
            out.sweepMs.push_back(msBetween(t0, Clock::now()));
            out.sweepCpuMs.push_back(processCpuMs() - cpu0);
            out.submitMs.push_back(submitMs);
            for (std::size_t i = 0; i < results.size(); ++i) {
                if (results[i].failed())
                    ++out.failed;
                else if (results[i] != reference[s][i])
                    ++out.mismatched;
            }
        } catch (const std::exception &ex) {
            std::fprintf(stderr, "sweep failed: %s\n", ex.what());
            out.failed += sweeps[s].size();
        }
    }
    out.elapsedS = msBetween(start, Clock::now()) / 1e3;
    return out;
}

// --- runtime layer spans from the job trace recorder -------------------------

struct RuntimeSpans
{
    std::vector<double> queueLeaseMs;
    std::vector<double> executeMs;
    std::size_t dropped = 0;
};

void
collectTrace(const runtime::JobTraceRecorder &recorder, RuntimeSpans &out)
{
    constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
    struct Job
    {
        std::uint64_t queued = kNone, leased = kNone;
        std::uint64_t start = kNone, finish = kNone;
    };
    std::map<runtime::JobId, Job> jobs;
    using P = runtime::TracePhase;
    for (const runtime::TraceEvent &e : recorder.events()) {
        Job &j = jobs[e.job];
        if (e.phase == P::Queued)
            j.queued = e.nanos;
        else if (e.phase == P::Leased)
            j.leased = e.nanos;
        else if (e.phase == P::ShardStart)
            j.start = e.nanos;
        else if (e.phase == P::ShardFinish)
            j.finish = e.nanos;
    }
    auto ms = [](std::uint64_t a, std::uint64_t b) {
        return 1e-6 * static_cast<double>(b - a);
    };
    for (const auto &[id, j] : jobs) {
        if (j.queued != kNone && j.leased != kNone)
            out.queueLeaseMs.push_back(ms(j.queued, j.leased));
        if (j.start != kNone && j.finish != kNone)
            out.executeMs.push_back(ms(j.start, j.finish));
    }
    out.dropped += recorder.dropped();
}

/** Counters of every layer in the stack, summed over its instances. */
struct LayerCounters
{
    std::size_t machinesBuilt = 0;
    std::size_t lutRenders = 0;
    std::size_t assemblies = 0;
    std::size_t serverBytes = 0;
    std::size_t serverRequests = 0;
    std::size_t gatewayRequests = 0;
    std::size_t gatewayResults = 0;
    /** Error replies, resubmissions and failovers: all must stay 0. */
    std::size_t errors = 0;
};

LayerCounters
countersOf(const Stack &stack)
{
    LayerCounters c;
    for (const auto &service : stack.services) {
        runtime::ServiceStats s = service->stats();
        c.machinesBuilt += s.pool.machinesCreated;
        c.lutRenders += s.cache.lutMisses;
        c.assemblies += s.cache.programMisses;
    }
    for (const auto &server : stack.servers) {
        net::QumaServer::Stats s = server->stats();
        c.serverBytes += s.link.bytesUp + s.link.bytesDown;
        c.serverRequests += s.requestsServed;
        c.errors += s.errorsReturned;
    }
    if (stack.gateway) {
        net::QumaGateway::Stats s = stack.gateway->stats();
        c.gatewayRequests += s.requestsForwarded;
        c.gatewayResults += s.resultsForwarded;
        c.errors += s.errorsReturned + s.jobsResubmitted + s.failovers;
    }
    return c;
}

// --- output ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "quma_perfbench: %s\nusage: quma_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1\nworkloads:",
                 why);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

int
runBenchmark(const Workload &w, std::uint64_t seed, double seconds,
             bool traced)
{
    std::vector<Sweep> sweeps = makeSweeps(seed);

    // Reference results, straight on the machine.
    MachineSpans machineSpans;
    std::vector<std::vector<runtime::JobResult>> reference(sweeps.size());
    {
        DirectRunner direct;
        for (std::size_t s = 0; s < sweeps.size(); ++s)
            for (const auto &job : sweeps[s])
                reference[s].push_back(direct.run(job, machineSpans));
    }
    bool correct = staircaseHolds(reference);

    auto stack = buildStack(w, traced);
    std::size_t warmupBad = 0;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        std::vector<runtime::JobResult> results = runSweep(*stack, sweeps[s]);
        for (std::size_t i = 0; i < results.size(); ++i)
            warmupBad += results[i] != reference[s][i] ? 1 : 0;
    }
    correct = correct && warmupBad == 0;
    for (auto &service : stack->services) {
        service->trace().clear();
        if (traced)
            service->trace().enable();
    }
    LayerCounters before = countersOf(*stack);
    LoopResult loop =
        closedLoop(*stack, sweeps, reference, seconds, traced ? nullptr : &w);
    LayerCounters after = countersOf(*stack);
    RuntimeSpans runtimeSpans;
    for (auto &service : stack->services) {
        service->trace().disable();
        collectTrace(service->trace(), runtimeSpans);
    }
    if (stack->gateway)
        for (const auto &b : stack->gateway->stats().backends)
            std::fprintf(stderr, "backend %s: %zu jobs routed\n",
                         b.name.c_str(), b.jobsRouted);
    stack.reset();

    std::fprintf(stderr,
                 "%s: %zu sweeps in %.2f s (%zu jobs failed, %zu "
                 "mismatched, %zu warm-up mismatches, %zu layer errors)\n",
                 w.name, loop.sweepMs.size(), loop.elapsedS, loop.failed,
                 loop.mismatched, warmupBad, after.errors);
    correct = correct && loop.failed == 0 && loop.mismatched == 0 &&
              loop.setupMismatched == 0 && after.errors == 0 &&
              !loop.sweepMs.empty();

    std::vector<Metric> metrics;
    if (!traced) {
        metrics = {
            {"sweep_cpu_ms", median(loop.sweepCpuMs), "ms"},
            {"setup_s", median(loop.setupS), "s"},
        };
    } else {
        CodecSpans codec;
        correct = measureCodec(sweeps, reference, codec) && correct;
        correct = correct && runtimeSpans.dropped == 0;
        double jobs = static_cast<double>(kPoints * loop.sweepMs.size());
        auto perJob = [&](std::size_t LayerCounters::*field) {
            return static_cast<double>(after.*field - before.*field) / jobs;
        };
        metrics = {
            {"sweep_wall_p50_ms", median(loop.sweepMs), "ms"},
            {"machine_build_ms", median(machineSpans.buildMs), "ms"},
            {"calibrate_ms", median(machineSpans.calibrateMs), "ms"},
            {"assemble_ms", median(machineSpans.assembleMs), "ms"},
            {"run_setup_us", median(machineSpans.runSetupUs), "us"},
            {"run_ms", median(machineSpans.runMs), "ms"},
            {"host_ns_per_cycle", median(machineSpans.nsPerCycle), "ns"},
            {"spec_codec_us", median(codec.specUs), "us"},
            {"result_codec_us", median(codec.resultUs), "us"},
            {"submit_all_ms", median(loop.submitMs), "ms"},
            {"queue_lease_ms", mean(runtimeSpans.queueLeaseMs), "ms"},
            {"execute_ms", mean(runtimeSpans.executeMs), "ms"},
            {"machines_built_per_job",
             perJob(&LayerCounters::machinesBuilt), "count"},
            {"lut_renders_per_job", perJob(&LayerCounters::lutRenders),
             "count"},
            {"assemblies_per_job", perJob(&LayerCounters::assemblies),
             "count"},
            {"server_bytes_per_job", perJob(&LayerCounters::serverBytes),
             "bytes"},
            {"server_requests_per_job",
             perJob(&LayerCounters::serverRequests), "count"},
            {"gateway_requests_per_job",
             perJob(&LayerCounters::gatewayRequests), "count"},
            {"gateway_results_per_job",
             perJob(&LayerCounters::gatewayResults), "count"},
        };
    }
    printResult(correct, loop.attempted, loop.failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    workload = &w;
            if (!workload)
                usage("unknown workload");
        } else if (arg == "--seed") {
            seed = std::strtoull(value, &end, 10);
            if (*end != '\0')
                usage("--seed takes an integer");
        } else if (arg == "--seconds") {
            seconds = std::strtod(value, &end);
            if (*end != '\0' || !(seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            trace = value[0] - '0';
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!workload || seconds <= 0.0 || trace < 0)
        usage("--workload, --seconds and --trace are required");

    setLogQuiet(true);
    try {
        return runBenchmark(*workload, seed, seconds, trace == 1);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "quma_perfbench: %s\n", ex.what());
        return 1;
    }
}

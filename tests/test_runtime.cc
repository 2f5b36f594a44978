/**
 * @file
 * Tests of the concurrent experiment runtime: program/LUT caching,
 * per-worker machines rebound between configs, bounded-queue
 * scheduling, failure reporting, and -- the core invariant -- result
 * determinism independent of worker count and scheduling order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "experiments/allxy.hh"
#include "experiments/coherence.hh"
#include "isa/assembler.hh"
#include "runtime/keys.hh"
#include "runtime/service.hh"

namespace quma::runtime {
namespace {

/** A small averaged measurement program (rounds x X180-measure). */
std::string
shotProgram(unsigned rounds)
{
    return R"(
        mov r15, 40000
        mov r1, 0
        mov r2, )" +
           std::to_string(rounds) + R"(
        L:
        QNopReg r15
        Pulse {q0}, X180
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        addi r1, r1, 1
        bne r1, r2, L
        halt
    )";
}

JobSpec
shotJob(unsigned rounds, std::uint64_t seed)
{
    JobSpec job;
    job.name = "shots";
    job.assembly = shotProgram(rounds);
    job.bins = 1;
    job.seed = seed;
    job.maxCycles = 50'000'000;
    return job;
}

TEST(ProgramCache, MemoizesAssembly)
{
    ProgramCache cache;
    auto a = cache.assemble("Wait 10\nhalt");
    auto b = cache.assemble("Wait 10\nhalt");
    EXPECT_EQ(a.get(), b.get());
    auto c = cache.assemble("Wait 20\nhalt");
    EXPECT_NE(a.get(), c.get());
    auto s = cache.stats();
    EXPECT_EQ(s.programHits, 1u);
    EXPECT_EQ(s.programMisses, 2u);
}

TEST(ProgramCache, BoundedWithFifoEviction)
{
    ProgramCache cache(2, 2);
    cache.assemble("Wait 1\nhalt");
    cache.assemble("Wait 2\nhalt");
    cache.assemble("Wait 3\nhalt"); // evicts "Wait 1"
    EXPECT_EQ(cache.stats().programEvictions, 1u);
    cache.assemble("Wait 1\nhalt"); // miss again
    EXPECT_EQ(cache.stats().programMisses, 4u);
}

TEST(ProgramCache, MemoizesLutRendering)
{
    ProgramCache cache;
    awg::CalibrationParams cp;
    cp.rabiRadPerAmpNs = qsim::standardRabiGain();
    auto a = cache.lut(cp);
    auto b = cache.lut(cp);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->size(), 9u); // Table 1: 7 gates + MSMT + CZ

    cp.amplitudeError = 0.05;
    auto c = cache.lut(cp);
    EXPECT_NE(a.get(), c.get());
    auto s = cache.stats();
    EXPECT_EQ(s.lutHits, 1u);
    EXPECT_EQ(s.lutMisses, 2u);
}

TEST(ProgramCache, CachedMduCalibrationIntegratesLikeAnOwnOne)
{
    ProgramCache cache;
    qsim::ReadoutParams rp = qsim::paperQubitParams().readout;
    auto shared = cache.mduCalibration(rp, 1500);
    EXPECT_EQ(shared.get(), cache.mduCalibration(rp, 1500).get());
    EXPECT_EQ(cache.stats().mduMisses, 1u);
    EXPECT_EQ(cache.stats().mduHits, 1u);

    measure::Mdu fromCache(shared);
    measure::Mdu own(measure::calibrateMdu(rp, 1500));
    Rng rng(0x3d);
    for (int i = 0; i < 500; ++i) {
        qsim::ReadoutShot shot =
            qsim::sampleReadoutShot(rng.bernoulli(0.5), 1500, 30000.0, rng);
        ASSERT_EQ(fromCache.integrate(shot), own.integrate(shot));
    }

    // A machine calibrated through the cache runs bit-identically to
    // one that calibrated itself.
    core::QumaMachine cached{core::MachineConfig{}};
    cached.uploadStandardCalibration(cache.lutProvider(),
                                     cache.mduProvider());
    core::QumaMachine self{core::MachineConfig{}};
    self.uploadStandardCalibration();
    for (core::QumaMachine *m : {&cached, &self}) {
        m->reset(5, 6);
        m->configureDataCollection(1);
        m->loadAssembly(shotProgram(20));
        m->run(50'000'000);
    }
    EXPECT_EQ(cached.dataCollector().binSums(),
              self.dataCollector().binSums());
    EXPECT_EQ(cached.dataCollector().bitBinSums(),
              self.dataCollector().bitBinSums());
}

TEST(Scheduler, RunsJobsAndReportsResults)
{
    ExperimentService svc({.workers = 2});
    JobId id = svc.submit(shotJob(8, 0x11));
    JobResult r = svc.await(id);
    ASSERT_FALSE(r.failed());
    EXPECT_TRUE(r.run.halted);
    EXPECT_EQ(r.sampleCount, 8u);
    ASSERT_EQ(r.bitAverages.size(), 1u);
    EXPECT_GT(r.bitAverages[0], 0.5);
    EXPECT_TRUE(svc.poll(id).has_value());
    EXPECT_EQ(svc.status(id), JobStatus::Done);
}

TEST(Scheduler, BoundedQueueRejectsWhenFull)
{
    ExperimentService svc({.workers = 1,
                           .queueCapacity = 2,
                           .startPaused = true});
    auto a = svc.trySubmit(shotJob(2, 1));
    auto b = svc.trySubmit(shotJob(2, 2));
    auto c = svc.trySubmit(shotJob(2, 3));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_FALSE(c.has_value());
    EXPECT_EQ(svc.scheduler().stats().rejected, 1u);

    svc.start();
    svc.drain();
    EXPECT_FALSE(svc.await(*a).failed());
    EXPECT_FALSE(svc.await(*b).failed());
    EXPECT_EQ(svc.scheduler().stats().queueHighWater, 2u);
}

TEST(Scheduler, SameConfigJobsReuseTheWorkersMachine)
{
    ExperimentService svc({.workers = 1, .startPaused = true});
    std::vector<JobId> ids;
    for (unsigned i = 0; i < 4; ++i)
        ids.push_back(svc.submit(shotJob(2, i)));
    svc.start();
    svc.drain();
    for (JobId id : ids)
        EXPECT_FALSE(svc.await(id).failed());
    // One worker, one config: the first job builds the worker's
    // machine and the rest run on it as it is.
    PoolStats pool = svc.stats().pool;
    EXPECT_EQ(pool.machinesCreated, 1u);
    EXPECT_EQ(pool.reuseHits, 3u);
    EXPECT_EQ(pool.rebinds, 0u);
    EXPECT_EQ(pool.acquisitions, 4u);
    EXPECT_EQ(pool.idleMachines, 1u);
    EXPECT_EQ(pool.leasedMachines, 0u);
}

TEST(Scheduler, FailedJobCarriesTheError)
{
    setLogQuiet(true);
    ExperimentService svc({.workers = 1});
    JobSpec bad;
    bad.assembly = "ThisIsNotAnInstruction r1, r2";
    JobResult r = svc.runSync(std::move(bad));
    EXPECT_TRUE(r.failed());
    EXPECT_FALSE(r.error.empty());
    setLogQuiet(false);
}

TEST(Scheduler, InvalidMachineConfigFailsTheJobNotTheService)
{
    setLogQuiet(true);
    ExperimentService svc({.workers = 1});
    // Machine construction itself must reject this config (T2 > 2*T1
    // is unphysical); the worker has to absorb the throw and fail the
    // job instead of terminating the process.
    JobSpec bad = shotJob(2, 0x1);
    bad.machine.qubits.assign(1, qsim::paperQubitParams());
    bad.machine.qubits[0].t2Ns = 3.0 * bad.machine.qubits[0].t1Ns;
    JobResult r = svc.runSync(std::move(bad));
    EXPECT_TRUE(r.failed());
    EXPECT_NE(r.error.find("machine unavailable"), std::string::npos);

    // The service keeps serving healthy jobs afterwards.
    JobResult ok = svc.runSync(shotJob(2, 0x2));
    EXPECT_FALSE(ok.failed());
    setLogQuiet(false);
}

TEST(Scheduler, BoundedResultRetentionAgesOutOldJobs)
{
    setLogQuiet(true);
    ExperimentService svc({.workers = 1, .maxRetainedResults = 2});
    JobId a = svc.submit(shotJob(2, 1));
    svc.await(a);
    JobId b = svc.submit(shotJob(2, 2));
    JobId c = svc.submit(shotJob(2, 3));
    svc.await(b);
    svc.await(c);
    svc.drain();
    // With two retained slots the oldest finished job has aged out.
    EXPECT_THROW(svc.poll(a), FatalError);
    EXPECT_TRUE(svc.poll(c).has_value());
    setLogQuiet(false);
}

/**
 * The runtime's core invariant: a job set's results depend only on
 * the job specs, not on worker count, which machine a job lands on,
 * or queue order. 1, 2 and 8 workers must aggregate identically.
 */
TEST(Scheduler, DeterministicAcrossWorkerCounts)
{
    auto runAll = [](unsigned workers) {
        ExperimentService svc({.workers = workers});
        std::vector<JobId> ids;
        core::MachineConfig twoQubit;
        twoQubit.qubits.assign(2, qsim::paperQubitParams());
        for (unsigned i = 0; i < 6; ++i) {
            JobSpec job = shotJob(4, 0x9000 + i);
            if (i % 2 == 1)
                job.machine = twoQubit; // two shards in flight
            ids.push_back(svc.submit(std::move(job)));
        }
        return svc.awaitAll(ids);
    };

    std::vector<JobResult> one = runAll(1);
    std::vector<JobResult> two = runAll(2);
    std::vector<JobResult> eight = runAll(8);
    ASSERT_EQ(one.size(), two.size());
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i], two[i]) << "job " << i;
        EXPECT_EQ(one[i], eight[i]) << "job " << i;
    }
}

TEST(Sharding, PartitionRoundsIsBalancedAndClamped)
{
    // Balanced: sizes differ by at most one and cover [0, N).
    auto p = partitionRounds(10, 3, 1);
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0].begin, 0u);
    EXPECT_EQ(p[0].end, 4u);
    EXPECT_EQ(p[1].end, 7u);
    EXPECT_EQ(p[2].end, 10u);

    // minRoundsPerShard clamps the width.
    EXPECT_EQ(partitionRounds(16, 8, 8).size(), 2u);
    EXPECT_EQ(partitionRounds(15, 8, 8).size(), 1u);
    // Never more shards than rounds; 0 shards means one.
    EXPECT_EQ(partitionRounds(3, 8, 1).size(), 3u);
    EXPECT_EQ(partitionRounds(8, 0, 1).size(), 1u);
    EXPECT_TRUE(partitionRounds(0, 4, 1).empty());
}

/**
 * The tentpole invariant: a round-structured job merges to the SAME
 * JobResult -- bit for bit -- no matter how its rounds are split
 * across machines or how many workers drain the shards. Each round
 * derives its RNG streams from (seed, round index) and the merge
 * re-sums per-round collector sums in global round order.
 */
TEST(Sharding, ShardMergeIsBitIdenticalAcrossSplitsAndWorkers)
{
    auto run = [](std::size_t shards, unsigned workers) {
        ExperimentService svc({.workers = workers});
        JobSpec job = shotJob(1, 0xdead); // one-round body
        job.rounds = 32;
        job.shards = shards;
        job.minRoundsPerShard = 8;
        return svc.runSync(std::move(job));
    };

    JobResult oneWay = run(1, 1);
    ASSERT_FALSE(oneWay.failed());
    EXPECT_TRUE(oneWay.run.halted);
    EXPECT_EQ(oneWay.sampleCount, 32u);

    EXPECT_EQ(oneWay, run(2, 1));
    EXPECT_EQ(oneWay, run(2, 4));
    EXPECT_EQ(oneWay, run(4, 2));
    EXPECT_EQ(oneWay, run(4, 4));
}

/**
 * A job computed directly on one fresh machine: every round on the
 * streams roundStreams() picks, its collector sums added in round
 * order as the scheduler's merge adds them. The reference a job must
 * reproduce whichever worker's (rebound) machine ran its rounds.
 */
JobResult
directRun(const JobSpec &job)
{
    const std::size_t bins = job.bins ? job.bins : 1;
    const isa::Program program = isa::Assembler().assemble(job.assembly);
    core::QumaMachine machine(job.machine);
    machine.uploadStandardCalibration();
    std::vector<double> sums(bins, 0.0);
    std::vector<double> bitSums(bins, 0.0);
    std::vector<std::size_t> cnt(bins, 0);
    std::vector<std::size_t> bitCnt(bins, 0);
    JobResult r;
    const std::size_t rounds = std::max<std::size_t>(job.rounds, 1);
    for (std::size_t round = 0; round < rounds; ++round) {
        const RoundStreams streams = roundStreams(job.rounds, round);
        machine.reset(Rng::derive(job.seed, streams.chip),
                      Rng::derive(job.seed, streams.exec));
        machine.configureDataCollection(bins);
        machine.loadProgram(program);
        r.run.accumulate(machine.run(job.maxCycles), round == 0);
        const auto &dc = machine.dataCollector();
        for (std::size_t b = 0; b < bins; ++b) {
            sums[b] += dc.binSums()[b];
            bitSums[b] += dc.bitBinSums()[b];
            cnt[b] += dc.binCounts()[b];
            bitCnt[b] += dc.bitBinCounts()[b];
        }
        r.sampleCount += dc.sampleCount();
    }
    r.averages.assign(bins, 0.0);
    r.bitAverages.assign(bins, 0.0);
    for (std::size_t b = 0; b < bins; ++b) {
        if (cnt[b] > 0)
            r.averages[b] = sums[b] / static_cast<double>(cnt[b]);
        if (bitCnt[b] > 0)
            r.bitAverages[b] = bitSums[b] / static_cast<double>(bitCnt[b]);
    }
    return r;
}

/**
 * Work stealing rebalances shards at round granularity, and because
 * every round's RNG streams are derived from (seed, round) and the
 * merge re-sums in global round order, the result must stay
 * bit-identical at every worker and shard count. An opaque job
 * (rounds == 0) runs the same path as one one-round shard and must
 * match a direct machine replay of its looping program.
 */
TEST(Sharding, StealingKeepsMergesBitIdentical)
{
    auto jobOf = [](std::size_t rounds, std::size_t shards) {
        // Opaque: the program loops 32 times; round-structured: the
        // one-round body, 32 rounds.
        JobSpec job = shotJob(rounds ? 1 : 32, 0x57ea1);
        job.rounds = rounds;
        job.shards = shards;
        job.minRoundsPerShard = 8;
        return job;
    };
    auto run = [&](std::size_t rounds, std::size_t shards,
                   unsigned workers) {
        ServiceConfig sc;
        sc.workers = workers;
        sc.minStealRounds = 2;
        ExperimentService svc(sc);
        return svc.runSync(jobOf(rounds, shards));
    };

    for (std::size_t rounds : {std::size_t{0}, std::size_t{32}}) {
        JobResult pinned = rounds ? run(rounds, 1, 1)
                                  : directRun(jobOf(0, 1));
        ASSERT_FALSE(pinned.failed());
        EXPECT_EQ(pinned.sampleCount, 32u);
        for (std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}})
            for (unsigned workers : {1u, 2u, 4u})
                EXPECT_EQ(pinned, run(rounds, shards, workers))
                    << "rounds=" << rounds << " shards=" << shards
                    << " workers=" << workers;
    }
}

/**
 * More configs than workers: eight AllXY points, each its own
 * amplitude error, run opaque and as 4-shard jobs with stealing on
 * 1, 2 and 4 workers. Each worker builds one machine and rebinds it
 * between points, and every result matches a direct run on a fresh
 * machine of its own config.
 */
TEST(Scheduler, MoreConfigsThanWorkersRebindEachWorkersMachine)
{
    for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        std::vector<JobSpec> jobs;
        std::vector<JobResult> direct;
        for (unsigned i = 0; i < 8; ++i) {
            experiments::AllxyConfig cfg;
            cfg.rounds = 8;
            cfg.shards = shards;
            cfg.amplitudeError = 0.01 * static_cast<double>(i);
            cfg.seed = 0x8c0 + i;
            JobSpec job = experiments::allxyJob(cfg);
            job.minRoundsPerShard = 2;
            ASSERT_EQ(job.rounds, shards == 1 ? 0u : 8u);
            direct.push_back(directRun(job));
            jobs.push_back(std::move(job));
        }
        for (unsigned workers : {1u, 2u, 4u}) {
            ServiceConfig sc;
            sc.workers = workers;
            sc.minStealRounds = 2;
            ExperimentService svc(sc);
            std::vector<JobId> ids;
            for (const JobSpec &job : jobs)
                ids.push_back(svc.submit(job));
            std::vector<JobResult> got = svc.awaitAll(ids);
            for (std::size_t i = 0; i < jobs.size(); ++i)
                EXPECT_EQ(got[i], direct[i])
                    << "point " << i << " shards=" << shards
                    << " workers=" << workers;
            PoolStats pool = svc.stats().pool;
            EXPECT_GE(pool.machinesCreated, 1u);
            EXPECT_LE(pool.machinesCreated, workers);
            EXPECT_GT(pool.rebinds, 0u);
            EXPECT_EQ(pool.acquisitions, pool.machinesCreated +
                                             pool.rebinds +
                                             pool.reuseHits);
        }
    }
}

/**
 * An opaque job has no rounds to report: a progress subscriber gets
 * exactly one frame, (0, 0), forced at finish and delivered ahead of
 * the result.
 */
TEST(Sharding, OpaqueJobReportsOneZeroProgressFrame)
{
    ExperimentService svc({.workers = 2,
                           .startPaused = true,
                           .progressInterval =
                               std::chrono::milliseconds(0)});
    JobId id = svc.submit(shotJob(8, 0x0fa));
    // Both callbacks run on the one notifier thread, in queue order.
    std::vector<std::pair<std::size_t, std::size_t>> frames;
    std::promise<std::size_t> framesBeforeResult;
    svc.scheduler().subscribeProgress(
        id, [&](JobId, std::size_t done, std::size_t total) {
            frames.emplace_back(done, total);
        });
    svc.scheduler().subscribe(
        id, [&](JobId, std::shared_ptr<const JobResult>) {
            framesBeforeResult.set_value(frames.size());
        });
    svc.start();
    ASSERT_FALSE(svc.await(id).failed());
    EXPECT_EQ(framesBeforeResult.get_future().get(), 1u);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], std::make_pair(std::size_t{0}, std::size_t{0}));
}

/**
 * The forced-slow-shard case: ONE shard holds every round of a large
 * sweep while three workers idle. The idle workers must split off
 * tail shards (stats().shardsStolen > 0) and the merged result must
 * still match the serial pin.
 */
TEST(Sharding, IdleWorkersStealFromASlowShard)
{
    // A 96-shot round body keeps each round busy long enough that
    // the idle workers' wakeup is never the bottleneck.
    JobResult pinned = [] {
        ExperimentService svc({.workers = 1});
        JobSpec job = shotJob(96, 0x5709);
        job.rounds = 64;
        job.shards = 1;
        return svc.runSync(std::move(job));
    }();
    ASSERT_FALSE(pinned.failed());

    ServiceConfig sc;
    sc.workers = 4;
    sc.minStealRounds = 2;
    ExperimentService svc(sc);
    JobSpec job = shotJob(96, 0x5709);
    job.rounds = 64;
    job.shards = 1; // everything lands on one worker...
    // ...and, pre-built, never replays: every round is a full machine
    // run. A replayed round is so cheap that the shard can finish
    // before an idle worker is scheduled, on one CPU or a loaded one.
    job.program = isa::Assembler().assemble(job.assembly);
    JobResult r = svc.runSync(std::move(job));
    ASSERT_FALSE(r.failed());
    EXPECT_EQ(r, pinned);
    // ...until the other three steal from its tail.
    auto s = svc.scheduler().stats();
    EXPECT_GT(s.shardsStolen, 0u);
    EXPECT_GT(s.roundsStolen, 0u);
    EXPECT_GE(s.shardsExecuted, 1u + s.shardsStolen);
    // The visited-cycle counts flow through the per-run samples.
    EXPECT_GT(s.eventsDispatched, 0u);
}

TEST(Sharding, ShardsRunInParallelAndCountersTrackThem)
{
    ExperimentService svc({.workers = 4});
    JobSpec job = shotJob(1, 0x7e57);
    job.rounds = 32;
    job.shards = 4;
    job.minRoundsPerShard = 8;
    JobResult r = svc.runSync(std::move(job));
    ASSERT_FALSE(r.failed());
    auto s = svc.scheduler().stats();
    EXPECT_EQ(s.shardedJobs, 1u);
    // Stealing may split the planned shards further; never fewer.
    EXPECT_GE(s.shardsExecuted, 4u);
    EXPECT_EQ(s.completed, 1u); // shards are tasks, not jobs
}

TEST(Sharding, ShardFailureFailsTheWholeJob)
{
    setLogQuiet(true);
    ExperimentService svc({.workers = 2});
    JobSpec job = shotJob(1, 0x1);
    job.assembly = "ThisIsNotAnInstruction r1, r2";
    job.rounds = 16;
    job.shards = 2;
    job.minRoundsPerShard = 8;
    JobResult r = svc.runSync(std::move(job));
    EXPECT_TRUE(r.failed());
    EXPECT_NE(r.error.find("shard"), std::string::npos);
    setLogQuiet(false);
}

TEST(Priority, HighClassOvertakesABacklog)
{
    // Paused single-worker service, aging off: drain order must be
    // exactly class order, FIFO within a class.
    ExperimentService svc({.workers = 1,
                           .startPaused = true,
                           .agingQuantum = 0});
    std::vector<JobId> normals;
    for (unsigned i = 0; i < 4; ++i)
        normals.push_back(svc.submit(shotJob(2, i)));
    JobSpec high = shotJob(2, 0x42);
    high.priority = JobPriority::High;
    JobSpec high2 = shotJob(2, 0x43);
    high2.priority = JobPriority::High;
    JobId h1 = svc.submit(std::move(high));
    JobId h2 = svc.submit(std::move(high2));

    svc.start();
    svc.drain();
    std::vector<JobId> order = svc.scheduler().finishedIds();
    std::vector<JobId> expected{h1, h2, normals[0], normals[1],
                                normals[2], normals[3]};
    EXPECT_EQ(order, expected);
}

TEST(Priority, AgingKeepsTheBacklogFromStarving)
{
    // One Batch job followed by a stream of 8 High jobs, aging one
    // class step per 2 newer submissions. By drain time the Batch
    // job has aged past the YOUNGEST High jobs (0 + 9/2 = 4 vs
    // 2 + 1/2 = 2) while the oldest High jobs still lead -- it is
    // overtaken, but not starved to the back of the line.
    ExperimentService svc({.workers = 1,
                           .startPaused = true,
                           .agingQuantum = 2});
    JobSpec batch = shotJob(2, 0xb);
    batch.priority = JobPriority::Batch;
    JobId b = svc.submit(std::move(batch));
    std::vector<JobId> highs;
    for (unsigned i = 0; i < 8; ++i) {
        JobSpec h = shotJob(2, 0x100 + i);
        h.priority = JobPriority::High;
        highs.push_back(svc.submit(std::move(h)));
    }
    svc.start();
    svc.drain();
    std::vector<JobId> order = svc.scheduler().finishedIds();
    ASSERT_EQ(order.size(), 9u);
    auto pos = std::find(order.begin(), order.end(), b) - order.begin();
    EXPECT_GT(pos, 0);                       // overtaken by High work
    EXPECT_LT(pos, static_cast<long>(order.size() - 1)); // not starved
}

/** A shotJob whose machine under-provisions the timing event queues:
 *  the pipeline hits push backpressure, which stats() reports. */
JobSpec
saturatingJob(unsigned rounds, std::uint64_t seed)
{
    JobSpec job = shotJob(rounds, seed);
    job.machine.timing.timingQueueCapacity = 4;
    job.machine.timing.pulseQueueCapacity = 4;
    return job;
}

/** Run `n` saturating jobs back to back on `svc` (1 worker: one
 *  saturation sample per job, in order). */
void
saturate(ExperimentService &svc, unsigned n, std::uint64_t seed)
{
    for (unsigned i = 0; i < n; ++i)
        ASSERT_FALSE(svc.runSync(saturatingJob(8, seed + i)).failed());
}

TEST(Admission, MachineSaturationTightensAndRecovers)
{
    ExperimentService svc({.workers = 1, .queueCapacity = 16});
    EXPECT_EQ(svc.scheduler().effectiveQueueCapacity(), 16u);

    // The EWMA (alpha 0.25) climbs 0.25 -> 0.4375 -> 0.578125: only
    // the third saturated run crosses the 0.5 threshold.
    saturate(svc, 2, 0x5a);
    EXPECT_DOUBLE_EQ(svc.scheduler().stats().machineSaturation, 0.4375);
    EXPECT_EQ(svc.scheduler().effectiveQueueCapacity(), 16u);
    saturate(svc, 1, 0x5c);
    auto s = svc.scheduler().stats();
    EXPECT_EQ(s.saturatedRuns, 3u);
    EXPECT_DOUBLE_EQ(s.machineSaturation, 0.578125);
    // Congested: a quarter of the hard bound (floored at workers).
    EXPECT_EQ(svc.scheduler().effectiveQueueCapacity(), 4u);

    // A clean run (default queue depths) decays the EWMA back under
    // the threshold and recovers full admission.
    ASSERT_FALSE(svc.runSync(shotJob(8, 0x5b)).failed());
    EXPECT_DOUBLE_EQ(svc.scheduler().stats().machineSaturation,
                     0.43359375);
    EXPECT_EQ(svc.scheduler().effectiveQueueCapacity(), 16u);
}

TEST(Admission, TrySubmitShedsLoadWhileSaturated)
{
    ExperimentService svc({.workers = 1, .queueCapacity = 32});
    saturate(svc, 3, 0x6a);
    ASSERT_EQ(svc.scheduler().effectiveQueueCapacity(), 8u);

    // Flood: the effective bound (8) rejects well below the hard
    // bound (32). The specs are built first so the submissions land
    // back to back, and each job is long: the worker can drain at
    // most a couple of jobs while this loop runs, so rejections are
    // guaranteed.
    std::vector<JobSpec> flood;
    for (unsigned i = 0; i < 32; ++i)
        flood.push_back(saturatingJob(64, 0x700 + i));
    std::vector<JobId> accepted;
    unsigned rejected = 0;
    for (JobSpec &spec : flood) {
        auto id = svc.trySubmit(std::move(spec));
        if (id)
            accepted.push_back(*id);
        else
            ++rejected;
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GE(svc.scheduler().stats().admissionSoftRejects, 1u);
    svc.drain();
    for (JobId id : accepted)
        EXPECT_FALSE(svc.await(id).failed());
}

TEST(ServiceExperiments, AllxyThroughServiceIsDeterministic)
{
    experiments::AllxyConfig cfg;
    cfg.rounds = 8;
    auto viaOne = [&] {
        ExperimentService svc({.workers = 1});
        return experiments::runAllxy(cfg, svc);
    }();
    auto viaFour = [&] {
        ExperimentService svc({.workers = 4});
        return experiments::runAllxy(cfg, svc);
    }();
    ASSERT_EQ(viaOne.rawS.size(), 42u);
    EXPECT_EQ(viaOne.rawS, viaFour.rawS);
    EXPECT_EQ(viaOne.fidelity, viaFour.fidelity);
}

TEST(ServiceExperiments, LargeAllxySweepShardsBitIdentically)
{
    // rounds >= kShardableRounds: the job ships a one-round body and
    // the runtime drives the averaging. Auto sharding picks 1 shard
    // on 1 worker and 4 shards on 4 workers -- the results must
    // still match bit for bit.
    experiments::AllxyConfig cfg;
    cfg.rounds = 32;
    auto viaOne = [&] {
        ExperimentService svc({.workers = 1});
        return experiments::runAllxy(cfg, svc);
    }();
    auto viaFour = [&] {
        ExperimentService svc({.workers = 4});
        auto out = experiments::runAllxy(cfg, svc);
        EXPECT_EQ(svc.scheduler().stats().shardedJobs, 1u);
        // Work stealing may split the planned 4 shards further when
        // a worker goes idle; never fewer.
        EXPECT_GE(svc.scheduler().stats().shardsExecuted, 4u);
        return out;
    }();
    ASSERT_EQ(viaOne.rawS.size(), 42u);
    EXPECT_EQ(viaOne.rawS, viaFour.rawS);
    EXPECT_EQ(viaOne.fidelity, viaFour.fidelity);
    // The staircase physics survives the per-round RNG restructure.
    EXPECT_LT(viaOne.deviation, 0.2);
}

TEST(ServiceExperiments, CoherenceSweepPointsRunAsParallelJobs)
{
    experiments::CoherenceConfig cfg =
        experiments::CoherenceConfig::withLinearSweep(4000, 4);
    // Enough rounds that the readout-rescaled first point clears the
    // threshold with margin for any RNG stream: the rescaling divides
    // by a calibration separation that is itself averaged over the
    // rounds, so very small counts have fat tails.
    cfg.rounds = 16;

    ExperimentService svc({.workers = 4});
    auto t1 = experiments::runT1(cfg, svc);
    ASSERT_EQ(t1.population.size(), 4u);
    EXPECT_TRUE(t1.run.halted);
    // Population decays from ~1: the first point must read excited.
    EXPECT_GT(t1.population.front(), 0.5);
    // One job per sweep point went through the scheduler, all four
    // on machines bound to the same config.
    EXPECT_EQ(svc.scheduler().stats().completed, 4u);

    // And the sweep is reproducible on a different worker count.
    ExperimentService svcOne({.workers = 1});
    auto t1Again = experiments::runT1(cfg, svcOne);
    EXPECT_EQ(t1.population, t1Again.population);
}

TEST(Latency, PerPriorityHistogramsTrackCompletions)
{
    ExperimentService svc({.workers = 2});
    std::vector<JobId> ids;
    for (unsigned i = 0; i < 4; ++i)
        ids.push_back(svc.submit(shotJob(2, 0x900 + i)));
    JobSpec high = shotJob(2, 0x990);
    high.priority = JobPriority::High;
    ids.push_back(svc.submit(std::move(high)));
    for (JobId id : ids)
        ASSERT_FALSE(svc.await(id).failed());

    auto stats = svc.scheduler().stats();
    const auto &normal =
        stats.latency[static_cast<std::size_t>(JobPriority::Normal)];
    const auto &highLat =
        stats.latency[static_cast<std::size_t>(JobPriority::High)];
    const auto &batch =
        stats.latency[static_cast<std::size_t>(JobPriority::Batch)];
    EXPECT_EQ(normal.count(), 4u);
    EXPECT_EQ(highLat.count(), 1u);
    EXPECT_EQ(batch.count(), 0u);
    // Submit->finish latencies are positive and bounded by the max.
    EXPECT_GT(normal.sum, 0.0);
    EXPECT_LE(normal.sum, static_cast<double>(normal.count()) * normal.max);
    EXPECT_GT(highLat.max, 0.0);
    EXPECT_EQ(batch, metrics::LatencyHistogram{});
}

TEST(Scheduler, FinishedHistoryIsABoundedRing)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.finishedHistoryLimit = 4;
    ExperimentService svc(sc);
    std::vector<JobId> ids;
    for (unsigned i = 0; i < 10; ++i)
        ids.push_back(svc.submit(shotJob(1, 0xb00 + i)));
    svc.drain();

    // Only the newest 4 completions are remembered...
    std::vector<JobId> history = svc.scheduler().finishedIds();
    ASSERT_EQ(history.size(), 4u);
    for (JobId id : history)
        EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end());
    // ...but result retention is independent: every job still polls.
    for (JobId id : ids)
        EXPECT_TRUE(svc.poll(id).has_value());
}

TEST(Scheduler, CancelDropsQueuedWorkOnly)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 8;
    sc.startPaused = true;
    ExperimentService svc(sc);
    JobId keep = svc.submit(shotJob(2, 1));
    JobId drop = svc.submit(shotJob(2, 2));

    EXPECT_TRUE(svc.scheduler().cancel(drop));
    EXPECT_FALSE(svc.scheduler().cancel(drop)); // already finished
    EXPECT_FALSE(svc.scheduler().cancel(999));  // unknown id
    EXPECT_EQ(svc.status(drop), JobStatus::Failed);
    JobResult dropped = svc.await(drop);
    EXPECT_TRUE(dropped.failed());
    EXPECT_NE(dropped.error.find("cancelled"), std::string::npos);

    svc.start();
    EXPECT_FALSE(svc.await(keep).failed());
    EXPECT_FALSE(svc.scheduler().cancel(keep)); // already done
    auto stats = svc.scheduler().stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 1u); // the cancelled job counts as failed
}

namespace {

/** Phases recorded for `id`, in record order. */
std::vector<TracePhase>
phasesOf(const std::vector<TraceEvent> &events, JobId id)
{
    std::vector<TracePhase> out;
    for (const TraceEvent &e : events)
        if (e.job == id)
            out.push_back(e.phase);
    return out;
}

bool
contains(const std::vector<TracePhase> &phases, TracePhase p)
{
    return std::find(phases.begin(), phases.end(), p) != phases.end();
}

} // namespace

TEST(Trace, DisabledByDefaultRecordsNothing)
{
    ExperimentService svc({.workers = 2});
    EXPECT_FALSE(svc.trace().enabled());
    EXPECT_FALSE(svc.await(svc.submit(shotJob(2, 0x1))).failed());
    EXPECT_EQ(svc.trace().eventCount(), 0u);
    EXPECT_EQ(svc.trace().dropped(), 0u);
}

TEST(Trace, EnabledRunCapturesTheFullLifecycle)
{
    ExperimentService svc({.workers = 2});
    svc.trace().enable();
    JobId id = svc.submit(shotJob(2, 0x2));
    EXPECT_FALSE(svc.await(id).failed());

    std::vector<TracePhase> phases =
        phasesOf(svc.trace().events(), id);
    for (TracePhase p :
         {TracePhase::Submitted, TracePhase::Admitted,
          TracePhase::Queued, TracePhase::Leased,
          TracePhase::ShardStart, TracePhase::ShardFinish,
          TracePhase::Finished})
        EXPECT_TRUE(contains(phases, p)) << tracePhaseName(p);
    // Causal order within the job's own event stream.
    EXPECT_EQ(phases.front(), TracePhase::Submitted);
    EXPECT_LT(std::find(phases.begin(), phases.end(),
                        TracePhase::ShardStart),
              std::find(phases.begin(), phases.end(),
                        TracePhase::ShardFinish));
    // Timestamps never run backwards (steady clock, record order).
    std::vector<TraceEvent> all = svc.trace().events();
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_GE(all[i].nanos, all[i - 1].nanos);
}

TEST(Trace, ShardedJobTracksEveryShard)
{
    // A round-structured job (rounds on the spec, one-round body):
    // only those shard, and only they have a merge step to trace.
    ExperimentService svc({.workers = 4});
    svc.trace().enable();
    experiments::AllxyConfig cfg;
    cfg.rounds = 32;
    cfg.shards = 4;
    JobId id = svc.submit(experiments::allxyJob(cfg));
    EXPECT_FALSE(svc.await(id).failed());

    std::vector<TraceEvent> events = svc.trace().events();
    std::set<std::uint32_t> started, finished;
    bool merged = false;
    for (const TraceEvent &e : events) {
        if (e.job != id)
            continue;
        if (e.phase == TracePhase::ShardStart)
            started.insert(e.shard);
        if (e.phase == TracePhase::ShardFinish)
            finished.insert(e.shard);
        if (e.phase == TracePhase::Merge)
            merged = true;
    }
    // At least the 4 planned shards; stealing may add split-off
    // shards, each with its own start/finish pair.
    EXPECT_GE(started.size(), 4u);
    EXPECT_EQ(finished, started);
    EXPECT_TRUE(merged);
}

TEST(Trace, OverflowDropsInsteadOfGrowing)
{
    JobTraceRecorder recorder(/*capacity=*/4);
    recorder.enable();
    for (JobId id = 1; id <= 10; ++id)
        recorder.record(id, TracePhase::Submitted);
    EXPECT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.dropped(), 6u);
    recorder.clear();
    EXPECT_EQ(recorder.eventCount(), 0u);
    EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(Trace, ChromeDumpPairsSlicesAndParses)
{
    ExperimentService svc({.workers = 2});
    svc.trace().enable();
    EXPECT_FALSE(svc.await(svc.submit(shotJob(2, 0x4))).failed());

    std::string json = svc.trace().chromeTraceJson();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_EQ(json.substr(json.size() - 2), "]}");
    // Shard execution renders as a complete slice, the lifecycle
    // points as instants.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"submitted\""), std::string::npos);
    // Balanced braces -- cheap structural sanity without a parser.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

} // namespace
} // namespace quma::runtime

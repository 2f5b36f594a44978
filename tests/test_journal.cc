/**
 * @file
 * Durability tests: the write-ahead job journal (record container,
 * recovery semantics, crash-recovery determinism across scheduler
 * shapes, corruption/truncation fuzz) and the capture/replay pair
 * (live round-trip, tamper detection, the checked-in golden AllXY
 * session). See docs/durability.md for the contracts pinned here.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "experiments/allxy.hh"
#include "net/capture.hh"
#include "net/client.hh"
#include "net/replay.hh"
#include "net/server.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "runtime/journal.hh"
#include "runtime/service.hh"

#ifndef QUMA_TEST_DATA_DIR
#define QUMA_TEST_DATA_DIR "tests/data"
#endif

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

/** The 32-round sharded job the crash matrix re-runs everywhere. */
JobSpec
matrixJob(std::size_t shards, std::uint64_t seed)
{
    JobSpec job = shotJob(1, seed); // one-round body
    job.rounds = 32;
    job.shards = shards;
    job.minRoundsPerShard = 8;
    return job;
}

/** Fresh path under the gtest temp dir; never reused across calls. */
std::string
tempPath(const std::string &tag)
{
    static std::atomic<unsigned> counter{0};
    return testing::TempDir() + "quma_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1));
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Spin (bounded) until `pred` holds; completion markers are
 *  appended by the scheduler's notifier thread, so tests that want
 *  them on disk must wait for the append, not just the result. */
bool
waitFor(const std::function<bool()> &pred,
        std::chrono::milliseconds limit = std::chrono::seconds(10))
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

// --- the shared record container --------------------------------------------

TEST(RecordContainer, Crc32MatchesTheIeeeCheckValue)
{
    // The canonical CRC-32 check value: crc("123456789").
    const std::uint8_t check[] = {'1', '2', '3', '4', '5',
                                  '6', '7', '8', '9'};
    EXPECT_EQ(crc32(check, sizeof check), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(RecordContainer, RecordsRoundTripThroughScan)
{
    std::vector<std::uint8_t> bytes(kJournalMagic.begin(),
                                    kJournalMagic.end());
    appendRecord(bytes, 7, {0xDE, 0xAD});
    appendRecord(bytes, 42, {});
    appendRecord(bytes, 0xBEEF, {1, 2, 3, 4, 5});

    ScanResult scan = scanRecords(bytes, kJournalMagic);
    EXPECT_TRUE(scan.magicValid);
    EXPECT_EQ(scan.corruptRecords, 0u);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[0].type, 7u);
    EXPECT_EQ(scan.records[0].payload,
              (std::vector<std::uint8_t>{0xDE, 0xAD}));
    EXPECT_EQ(scan.records[1].type, 42u);
    EXPECT_TRUE(scan.records[1].payload.empty());
    EXPECT_EQ(scan.records[2].type, 0xBEEFu);
    EXPECT_EQ(scan.records[2].payload.size(), 5u);
}

TEST(RecordContainer, ForeignMagicYieldsNothing)
{
    std::vector<std::uint8_t> foreign{'P', 'N', 'G', '!', 0, 1, 2, 3};
    appendRecord(foreign, 1, {9});
    ScanResult scan = scanRecords(foreign, kJournalMagic);
    EXPECT_FALSE(scan.magicValid);
    EXPECT_EQ(scan.corruptRecords, 1u);
    EXPECT_TRUE(scan.records.empty());

    // An EMPTY byte stream is merely not-a-record-file-yet.
    ScanResult empty = scanRecords({}, kJournalMagic);
    EXPECT_FALSE(empty.magicValid);
    EXPECT_EQ(empty.corruptRecords, 0u);
}

// --- journal append + recovery semantics ------------------------------------

TEST(Journal, MissingFileIsAFreshJournal)
{
    RecoveryReport rec = recoverJournal(tempPath("missing"));
    EXPECT_FALSE(rec.journalExisted);
    EXPECT_TRUE(rec.pending.empty());
    EXPECT_EQ(rec.corruptRecords, 0u);
}

TEST(Journal, SubmittedWithoutCompletionIsPending)
{
    const std::string path = tempPath("pending");
    JobSpec spec = matrixJob(2, 0xFEED);
    {
        JobJournal journal({path, FsyncPolicy::Batch});
        auto encoded = JobJournal::encodeSpec(spec);
        ASSERT_TRUE(encoded.has_value());
        journal.appendSubmitted(17, *encoded);
        journal.sync();
    } // close() on destruction

    RecoveryReport rec = recoverJournal(path);
    EXPECT_TRUE(rec.journalExisted);
    EXPECT_TRUE(rec.magicValid);
    EXPECT_EQ(rec.submitted, 1u);
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].journalId, 17u);

    // The spec round-trips through the wire codec exactly.
    const JobSpec &back = rec.pending[0].spec;
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.assembly, spec.assembly);
    EXPECT_EQ(back.bins, spec.bins);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.rounds, spec.rounds);
    EXPECT_EQ(back.shards, spec.shards);
    EXPECT_EQ(back.minRoundsPerShard, spec.minRoundsPerShard);
    std::remove(path.c_str());
}

TEST(Journal, CompletedAndCancelledRetirePendingEntries)
{
    const std::string path = tempPath("retire");
    auto encoded = *JobJournal::encodeSpec(shotJob(1, 1));
    {
        JobJournal journal({path, FsyncPolicy::Batch});
        journal.appendSubmitted(1, encoded);
        journal.appendSubmitted(2, encoded);
        journal.appendSubmitted(3, encoded);
        journal.appendCompleted(1, /*failed=*/false);
        journal.appendCancelled(2);
        journal.appendCompleted(99, /*failed=*/true); // unknown: harmless
        journal.sync();
    }
    RecoveryReport rec = recoverJournal(path);
    EXPECT_EQ(rec.recordsScanned, 6u);
    EXPECT_EQ(rec.submitted, 3u);
    EXPECT_EQ(rec.completed, 2u);
    EXPECT_EQ(rec.cancelled, 1u);
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].journalId, 3u);
    std::remove(path.c_str());
}

TEST(Journal, ResubmittedRetiresTheOldIdAndOpensTheNewOne)
{
    const std::string path = tempPath("resubmit");
    auto encoded = *JobJournal::encodeSpec(shotJob(1, 2));
    {
        JobJournal journal({path, FsyncPolicy::Batch});
        journal.appendSubmitted(5, encoded);
        journal.appendResubmitted(5, 9, encoded);
        journal.sync();
    }
    {
        RecoveryReport rec = recoverJournal(path);
        EXPECT_EQ(rec.resubmitted, 1u);
        ASSERT_EQ(rec.pending.size(), 1u);
        EXPECT_EQ(rec.pending[0].journalId, 9u);
    }
    {
        JobJournal journal({path, FsyncPolicy::Batch});
        journal.appendCompleted(9, false);
        journal.sync();
    }
    RecoveryReport rec = recoverJournal(path);
    EXPECT_TRUE(rec.pending.empty());
    std::remove(path.c_str());
}

TEST(Journal, UnknownRecordTypesAreSkippedNotFatal)
{
    const std::string path = tempPath("unknown");
    auto encoded = *JobJournal::encodeSpec(shotJob(1, 3));
    {
        JobJournal journal({path, FsyncPolicy::Batch});
        journal.appendSubmitted(1, encoded);
        journal.sync();
    }
    // Splice a future-version record (valid CRC, unknown type)
    // BETWEEN the existing record and a new completion.
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    appendRecord(bytes, 0x7777, {1, 2, 3});
    writeFileBytes(path, bytes);
    {
        JobJournal journal({path, FsyncPolicy::Batch});
        journal.appendCompleted(1, false);
        journal.sync();
    }
    RecoveryReport rec = recoverJournal(path);
    EXPECT_EQ(rec.corruptRecords, 0u);
    EXPECT_EQ(rec.recordsScanned, 3u);
    EXPECT_TRUE(rec.pending.empty()) << "the completion after the "
                                        "unknown record must count";
    std::remove(path.c_str());
}

TEST(Journal, AppendsAfterCloseAreNoOps)
{
    const std::string path = tempPath("closed");
    auto encoded = *JobJournal::encodeSpec(shotJob(1, 4));
    JobJournal journal({path, FsyncPolicy::Batch});
    journal.appendSubmitted(1, encoded);
    journal.close();
    journal.appendSubmitted(2, encoded);
    journal.appendCompleted(1, false);
    EXPECT_EQ(journal.stats().recordsAppended, 1u);
    RecoveryReport rec = recoverJournal(path);
    EXPECT_EQ(rec.recordsScanned, 1u);
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].journalId, 1u);
    std::remove(path.c_str());
}

TEST(Journal, FsyncPolicyNamesParse)
{
    EXPECT_EQ(fsyncPolicyFromName("none"), FsyncPolicy::None);
    EXPECT_EQ(fsyncPolicyFromName("batch"), FsyncPolicy::Batch);
    EXPECT_EQ(fsyncPolicyFromName("always"), FsyncPolicy::Always);
    EXPECT_FALSE(fsyncPolicyFromName("paranoid").has_value());
    EXPECT_FALSE(fsyncPolicyFromName("").has_value());
}

TEST(Journal, SyncIsDurableUnderEveryPolicy)
{
    for (FsyncPolicy policy : {FsyncPolicy::None, FsyncPolicy::Batch,
                               FsyncPolicy::Always}) {
        const std::string path = tempPath("policy");
        auto encoded = *JobJournal::encodeSpec(shotJob(1, 5));
        JobJournal journal({path, policy});
        journal.appendSubmitted(1, encoded);
        journal.sync();
        // Read the file WHILE the journal is still open: exactly
        // what a post-crash recovery sees.
        RecoveryReport rec = recoverJournal(path);
        ASSERT_EQ(rec.pending.size(), 1u)
            << "policy " << static_cast<int>(policy);
        EXPECT_GE(journal.stats().fsyncs, 1u)
            << "sync() must fsync under policy "
            << static_cast<int>(policy);
        journal.close();
        std::remove(path.c_str());
    }
}

TEST(Journal, PreassembledProgramsHaveNoSerializedForm)
{
    JobSpec spec = shotJob(1, 6);
    EXPECT_TRUE(JobJournal::encodeSpec(spec).has_value());
    spec.program = isa::Program{};
    EXPECT_FALSE(JobJournal::encodeSpec(spec).has_value());
}

// --- crash recovery through the service -------------------------------------

TEST(ServiceJournal, ShutdownFailureDoesNotMarkPendingWorkComplete)
{
    const std::string path = tempPath("crash");
    {
        ServiceConfig sc;
        sc.startPaused = true; // nothing runs: destruction == crash
        sc.journalPath = path;
        ExperimentService svc(sc);
        svc.submit(matrixJob(2, 0xC0FFEE));
        svc.journal()->sync();
    } // scheduler fails the queued job at shutdown; the journal is
      // already closed, so the failure cannot reach the disk
    RecoveryReport rec = recoverJournal(path);
    EXPECT_EQ(rec.submitted, 1u);
    EXPECT_EQ(rec.completed, 0u);
    EXPECT_EQ(rec.pending.size(), 1u);
    std::remove(path.c_str());
}

/**
 * THE TENTPOLE PIN: a job that crashed while queued is recovered and
 * re-run bit-identically at EVERY scheduler shape -- any shard
 * count, any worker count, however stealing rebalances the rounds.
 * Determinism makes the recovered result indistinguishable from the
 * uninterrupted one.
 */
TEST(ServiceJournal, CrashRecoveryIsBitIdenticalAcrossSchedulerShapes)
{
    auto reference = [](std::size_t shards) {
        ExperimentService svc({.workers = 1});
        return svc.runSync(matrixJob(shards, 0x57EA1));
    };

    auto crashWithQueued = [](const std::string &path,
                              std::size_t shards) {
        ServiceConfig sc;
        sc.startPaused = true;
        sc.journalPath = path;
        ExperimentService svc(sc);
        svc.submit(matrixJob(shards, 0x57EA1));
        svc.journal()->sync();
    };

    auto recoverAndRun = [](const std::string &path, unsigned workers) {
        ServiceConfig sc;
        sc.workers = workers;
        sc.minStealRounds = 2;
        sc.journalPath = path;
        ExperimentService svc(sc);
        EXPECT_EQ(svc.recoveredIds().size(), 1u);
        return svc.awaitAll(svc.recoveredIds()).at(0);
    };

    for (std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        const JobResult pinned = reference(shards);
        ASSERT_FALSE(pinned.failed());
        EXPECT_EQ(pinned.sampleCount, 32u);
        for (unsigned workers : {1u, 2u, 4u}) {
            const std::string path = tempPath("matrix");
            crashWithQueued(path, shards);
            EXPECT_EQ(pinned, recoverAndRun(path, workers))
                << "shards=" << shards << " workers=" << workers;
            std::remove(path.c_str());
        }
    }
}

TEST(ServiceJournal, GracefulCompletionLeavesNothingPending)
{
    const std::string path = tempPath("graceful");
    {
        ServiceConfig sc;
        sc.workers = 2;
        sc.journalPath = path;
        ExperimentService svc(sc);
        std::vector<JobId> ids{svc.submit(shotJob(4, 11)),
                               svc.submit(shotJob(4, 12))};
        for (const JobResult &r : svc.awaitAll(ids))
            EXPECT_FALSE(r.failed());
        // Completion markers land via the notifier thread; wait for
        // them to reach the journal before tearing it down.
        EXPECT_TRUE(waitFor([&] {
            return svc.journal()->stats().recordsAppended >= 4;
        }));
    }
    RecoveryReport rec = recoverJournal(path);
    EXPECT_EQ(rec.submitted, 2u);
    EXPECT_EQ(rec.completed, 2u);
    EXPECT_TRUE(rec.pending.empty());
    std::remove(path.c_str());
}

TEST(ServiceJournal, CancelledJobsDoNotComeBack)
{
    const std::string path = tempPath("cancel");
    {
        ServiceConfig sc;
        sc.startPaused = true;
        sc.journalPath = path;
        ExperimentService svc(sc);
        const JobId keep = svc.submit(matrixJob(1, 21));
        const JobId axed = svc.submit(matrixJob(1, 22));
        (void)keep;
        EXPECT_TRUE(svc.scheduler().cancel(axed));
        EXPECT_TRUE(waitFor([&] {
            return svc.journal()->stats().recordsAppended >= 3;
        })) << "submit+submit+cancel must reach the journal";
        svc.journal()->sync();
    }
    RecoveryReport rec = recoverJournal(path);
    EXPECT_EQ(rec.cancelled, 1u);
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].spec.seed, 21u);
    std::remove(path.c_str());
}

TEST(ServiceJournal, SecondCrashRecoversExactlyOnce)
{
    const std::string path = tempPath("twocrash");
    { // first crash: one job queued
        ServiceConfig sc;
        sc.startPaused = true;
        sc.journalPath = path;
        ExperimentService svc(sc);
        svc.submit(matrixJob(2, 31));
        svc.journal()->sync();
    }
    { // recovery that itself crashes before running anything
        ServiceConfig sc;
        sc.startPaused = true;
        sc.journalPath = path;
        ExperimentService svc(sc);
        EXPECT_EQ(svc.recoveredIds().size(), 1u);
        svc.journal()->sync();
    }
    { // second recovery: the Resubmitted record must have retired
      // the original id -- exactly ONE pending job, not two
        ServiceConfig sc;
        sc.workers = 2;
        sc.journalPath = path;
        ExperimentService svc(sc);
        EXPECT_GE(svc.recovery().resubmitted, 1u);
        ASSERT_EQ(svc.recoveredIds().size(), 1u);
        JobResult r = svc.awaitAll(svc.recoveredIds()).at(0);
        EXPECT_FALSE(r.failed());
        EXPECT_EQ(r.sampleCount, 32u);
        EXPECT_TRUE(waitFor([&] {
            return recoverJournal(path).pending.empty();
        }));
    }
    RecoveryReport rec = recoverJournal(path);
    EXPECT_TRUE(rec.pending.empty());
    std::remove(path.c_str());
}

// --- compaction -------------------------------------------------------------

/**
 * A journal with history: six jobs run to completion (12 retired
 * records), then a crash with two queued submits (2 live records).
 */
std::string
journalWithRetiredHistory(const std::string &tag)
{
    const std::string path = tempPath(tag);
    {
        ServiceConfig sc;
        sc.workers = 2;
        sc.journalPath = path;
        ExperimentService svc(sc);
        std::vector<JobId> ids;
        for (unsigned i = 0; i < 6; ++i)
            ids.push_back(svc.submit(shotJob(2, 100 + i)));
        for (const JobResult &r : svc.awaitAll(ids))
            EXPECT_FALSE(r.failed());
        EXPECT_TRUE(waitFor([&] {
            return svc.journal()->stats().recordsAppended >= 12;
        }));
    }
    {
        ServiceConfig sc;
        sc.startPaused = true;
        sc.journalPath = path;
        ExperimentService svc(sc);
        // The prior history must NOT trip recovery-time compaction
        // here: this service crashes with work queued, and the test
        // wants the un-compacted file. (Default trigger is 1024.)
        EXPECT_FALSE(svc.compaction().performed);
        svc.submit(matrixJob(2, 0x11f3));
        svc.submit(shotJob(3, 0xdead));
        svc.journal()->sync();
    }
    return path;
}

TEST(JournalCompaction, CompactedJournalRecoversIdentically)
{
    const std::string path = journalWithRetiredHistory("compact");

    RecoveryReport before = recoverJournal(path);
    EXPECT_EQ(before.recordsScanned, 14u);
    ASSERT_EQ(before.pending.size(), 2u);

    CompactionReport report = compactJournal(path, before);
    EXPECT_TRUE(report.performed);
    EXPECT_EQ(report.recordsBefore, 14u);
    EXPECT_EQ(report.recordsAfter, 2u);
    EXPECT_LT(report.bytesAfter, report.bytesBefore);

    // The compacted file recovers the SAME live set: same journal
    // ids, byte-identical specs, nothing retired resurrected.
    RecoveryReport after = recoverJournal(path);
    EXPECT_TRUE(after.magicValid);
    EXPECT_EQ(after.recordsScanned, 2u);
    EXPECT_EQ(after.corruptRecords, 0u);
    ASSERT_EQ(after.pending.size(), before.pending.size());
    for (std::size_t i = 0; i < after.pending.size(); ++i) {
        EXPECT_EQ(after.pending[i].journalId,
                  before.pending[i].journalId);
        EXPECT_EQ(*JobJournal::encodeSpec(after.pending[i].spec),
                  *JobJournal::encodeSpec(before.pending[i].spec))
            << "compaction changed pending spec " << i;
    }
    std::remove(path.c_str());
}

TEST(JournalCompaction, RecoveryTimeTriggerCompactsAndRunsPending)
{
    const std::string path = journalWithRetiredHistory("trigger");
    const JobResult pinnedMatrix = [] {
        ExperimentService svc({.workers = 1});
        return svc.runSync(matrixJob(2, 0x11f3));
    }();

    ServiceConfig sc;
    sc.workers = 2;
    sc.journalPath = path;
    sc.journalCompactMinRetired = 8; // 12 retired >= 8: compact
    ExperimentService svc(sc);
    EXPECT_TRUE(svc.compaction().performed);
    EXPECT_EQ(svc.compaction().recordsAfter, 2u);
    ASSERT_EQ(svc.recoveredIds().size(), 2u);
    std::vector<JobResult> results =
        svc.awaitAll(svc.recoveredIds());
    for (const JobResult &r : results)
        EXPECT_FALSE(r.failed());
    // Compaction must not perturb recovered execution: the matrix
    // job still reproduces its uninterrupted result bit for bit.
    EXPECT_EQ(results.at(0), pinnedMatrix);
    std::remove(path.c_str());
}

TEST(JournalCompaction, BelowThresholdLeavesTheJournalAlone)
{
    const std::string path = journalWithRetiredHistory("below");
    const std::vector<std::uint8_t> original = readFileBytes(path);
    {
        ServiceConfig sc;
        sc.startPaused = true;
        sc.journalPath = path;
        sc.journalCompactMinRetired = 64; // 12 retired < 64: keep
        ExperimentService svc(sc);
        EXPECT_FALSE(svc.compaction().performed);
        EXPECT_EQ(svc.recoveredIds().size(), 2u);
        svc.journal()->sync();
    }
    // No rewrite happened: the original file is still a prefix (the
    // recovery only APPENDED its Resubmitted records after it).
    const std::vector<std::uint8_t> after = readFileBytes(path);
    ASSERT_GE(after.size(), original.size());
    EXPECT_TRUE(std::equal(original.begin(), original.end(),
                           after.begin()));
    std::remove(path.c_str());
}

TEST(JournalCompaction, PendingSurvivesCompactionPlusSecondCrash)
{
    const std::string path = journalWithRetiredHistory("recrash");
    { // recovery WITH compaction that itself crashes before running
        ServiceConfig sc;
        sc.startPaused = true;
        sc.journalPath = path;
        sc.journalCompactMinRetired = 8;
        ExperimentService svc(sc);
        EXPECT_TRUE(svc.compaction().performed);
        EXPECT_EQ(svc.recoveredIds().size(), 2u);
        svc.journal()->sync();
    }
    { // second recovery off the compacted file: the Resubmitted
      // records retired the compacted ids -- still exactly two
        ServiceConfig sc;
        sc.workers = 2;
        sc.journalPath = path;
        ExperimentService svc(sc);
        EXPECT_GE(svc.recovery().resubmitted, 2u);
        ASSERT_EQ(svc.recoveredIds().size(), 2u);
        for (const JobResult &r : svc.awaitAll(svc.recoveredIds()))
            EXPECT_FALSE(r.failed());
        EXPECT_TRUE(waitFor([&] {
            return recoverJournal(path).pending.empty();
        }));
    }
    std::remove(path.c_str());
}

TEST(JournalCompaction, CompactionSubsumesDamagedTailTruncation)
{
    const std::string path = journalWithRetiredHistory("damage");
    // Garbage after the last valid record: recovery reports the
    // damage, compaction rewrites it away entirely.
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    for (int i = 0; i < 24; ++i)
        bytes.push_back(0xA5);
    writeFileBytes(path, bytes);

    RecoveryReport damaged = recoverJournal(path);
    EXPECT_GT(damaged.corruptRecords, 0u);
    ASSERT_EQ(damaged.pending.size(), 2u);

    CompactionReport report = compactJournal(path, damaged);
    EXPECT_TRUE(report.performed);
    RecoveryReport clean = recoverJournal(path);
    EXPECT_EQ(clean.corruptRecords, 0u);
    EXPECT_EQ(clean.pending.size(), 2u);
    EXPECT_EQ(clean.validPrefixBytes, readFileBytes(path).size());
    std::remove(path.c_str());
}

// --- corruption / truncation fuzz -------------------------------------------

/** A journal holding exactly two Submitted records, plus the byte
 *  offsets where each record ends. */
struct TwoRecordJournal
{
    std::vector<std::uint8_t> bytes;
    std::size_t endOfFirst = 0;  // magic + record 1
    std::size_t endOfSecond = 0; // the full file
};

TwoRecordJournal
buildTwoRecordJournal(const std::string &path)
{
    {
        JobJournal journal({path, FsyncPolicy::Batch});
        journal.appendSubmitted(1, *JobJournal::encodeSpec(shotJob(1, 41)));
        journal.appendSubmitted(2, *JobJournal::encodeSpec(shotJob(2, 42)));
        journal.sync();
    }
    TwoRecordJournal out;
    out.bytes = readFileBytes(path);
    ScanResult scan = scanRecords(out.bytes, kJournalMagic);
    EXPECT_EQ(scan.records.size(), 2u);
    // Container overhead per record: u32 len + u32 crc + u16 type.
    out.endOfFirst =
        kJournalMagic.size() + 8 + 2 + scan.records[0].payload.size();
    out.endOfSecond =
        out.endOfFirst + 8 + 2 + scan.records[1].payload.size();
    EXPECT_EQ(out.endOfSecond, out.bytes.size());
    return out;
}

TEST(JournalFuzz, EveryTruncationPointKeepsTheValidPrefix)
{
    const std::string path = tempPath("fuzztrunc");
    TwoRecordJournal j = buildTwoRecordJournal(path);
    const std::size_t magic = kJournalMagic.size();

    for (std::size_t cut = 0; cut < j.bytes.size(); ++cut) {
        writeFileBytes(path, {j.bytes.begin(), j.bytes.begin() + cut});
        RecoveryReport rec = recoverJournal(path); // must never throw
        if (cut == 0) {
            EXPECT_FALSE(rec.journalExisted) << "cut=" << cut;
            continue;
        }
        EXPECT_TRUE(rec.journalExisted) << "cut=" << cut;
        if (cut < magic) {
            // Not even a full magic: damage, nothing recovered.
            EXPECT_FALSE(rec.magicValid) << "cut=" << cut;
            EXPECT_EQ(rec.corruptRecords, 1u) << "cut=" << cut;
            EXPECT_TRUE(rec.pending.empty()) << "cut=" << cut;
        } else if (cut < j.endOfFirst) {
            // Torn first record: empty-but-clean or empty-and-torn.
            EXPECT_TRUE(rec.magicValid) << "cut=" << cut;
            EXPECT_EQ(rec.corruptRecords, cut == magic ? 0u : 1u)
                << "cut=" << cut;
            EXPECT_TRUE(rec.pending.empty()) << "cut=" << cut;
            EXPECT_EQ(rec.validPrefixBytes, magic) << "cut=" << cut;
        } else {
            // First record intact, second torn (unless cut is the
            // exact boundary).
            EXPECT_EQ(rec.corruptRecords, cut == j.endOfFirst ? 0u : 1u)
                << "cut=" << cut;
            ASSERT_EQ(rec.pending.size(), 1u) << "cut=" << cut;
            EXPECT_EQ(rec.pending[0].journalId, 1u) << "cut=" << cut;
            EXPECT_EQ(rec.validPrefixBytes, j.endOfFirst)
                << "cut=" << cut;
        }
    }
    std::remove(path.c_str());
}

TEST(JournalFuzz, FlippedCrcByteDropsOnlyTheDamagedSuffix)
{
    const std::string path = tempPath("fuzzcrc");
    TwoRecordJournal j = buildTwoRecordJournal(path);

    { // flip one CRC byte of the SECOND record: first survives
        std::vector<std::uint8_t> bytes = j.bytes;
        bytes[j.endOfFirst + 4] ^= 0xFF;
        writeFileBytes(path, bytes);
        RecoveryReport rec = recoverJournal(path);
        EXPECT_EQ(rec.corruptRecords, 1u);
        ASSERT_EQ(rec.pending.size(), 1u);
        EXPECT_EQ(rec.pending[0].journalId, 1u);
    }
    { // flip one BODY byte of the first record: scan stops at once
        std::vector<std::uint8_t> bytes = j.bytes;
        bytes[kJournalMagic.size() + 8 + 3] ^= 0x01;
        writeFileBytes(path, bytes);
        RecoveryReport rec = recoverJournal(path);
        EXPECT_EQ(rec.corruptRecords, 1u);
        EXPECT_TRUE(rec.pending.empty());
        EXPECT_EQ(rec.validPrefixBytes, kJournalMagic.size());
    }
    std::remove(path.c_str());
}

TEST(JournalFuzz, GarbageTailKeepsTheValidRecordsBeforeIt)
{
    const std::string path = tempPath("fuzzgarbage");
    TwoRecordJournal j = buildTwoRecordJournal(path);
    std::vector<std::uint8_t> bytes = j.bytes;
    bytes.insert(bytes.end(), 64, 0xA5); // absurd length field
    writeFileBytes(path, bytes);

    RecoveryReport rec = recoverJournal(path);
    EXPECT_EQ(rec.corruptRecords, 1u);
    EXPECT_EQ(rec.pending.size(), 2u);
    EXPECT_EQ(rec.validPrefixBytes, j.endOfSecond);
    std::remove(path.c_str());
}

TEST(JournalFuzz, DamagedTailIsTruncatedAwayOnServiceRecovery)
{
    const std::string path = tempPath("fuzzrepair");
    buildTwoRecordJournal(path);
    {
        std::vector<std::uint8_t> bytes = readFileBytes(path);
        bytes.insert(bytes.end(), 32, 0xA5);
        writeFileBytes(path, bytes);
    }
    { // recover through the service: runs both jobs AND repairs the
      // file by truncating the garbage before appending
        ServiceConfig sc;
        sc.workers = 2;
        sc.journalPath = path;
        ExperimentService svc(sc);
        EXPECT_EQ(svc.recovery().corruptRecords, 1u);
        ASSERT_EQ(svc.recoveredIds().size(), 2u);
        for (const JobResult &r : svc.awaitAll(svc.recoveredIds()))
            EXPECT_FALSE(r.failed());
        EXPECT_TRUE(waitFor([&] {
            return svc.journal()->stats().recordsAppended >= 4;
        }));
    }
    // The repaired journal reads clean end to end: the Resubmitted
    // and Completed records written after the repair are visible.
    RecoveryReport rec = recoverJournal(path);
    EXPECT_EQ(rec.corruptRecords, 0u);
    EXPECT_EQ(rec.resubmitted, 2u);
    EXPECT_TRUE(rec.pending.empty());
    std::remove(path.c_str());
}

TEST(JournalFuzz, ForeignFileIsRefusedNotClobbered)
{
    const std::string path = tempPath("foreign");
    writeFileBytes(path, {'n', 'o', 't', ' ', 'a', ' ', 'j', 'o',
                          'u', 'r', 'n', 'a', 'l'});
    ServiceConfig sc;
    sc.journalPath = path;
    EXPECT_THROW(ExperimentService svc(sc), FatalError);
    // ... and the operator's file is untouched.
    EXPECT_EQ(readFileBytes(path).size(), 13u);
    std::remove(path.c_str());
}

TEST(ServiceJournal, CorruptAndRecoveryCountersAreExported)
{
    const std::string path = tempPath("metrics");
    buildTwoRecordJournal(path);
    {
        std::vector<std::uint8_t> bytes = readFileBytes(path);
        bytes.push_back(0xA5); // torn tail
        writeFileBytes(path, bytes);
    }
    metrics::MetricsRegistry registry;
    ServiceConfig sc;
    sc.startPaused = true; // recovered jobs stay queued: cheap test
    sc.journalPath = path;
    ExperimentService svc(sc);
    svc.bindMetrics(registry);
    const std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("quma_journal_records_corrupt_total 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("quma_recovery_jobs_recovered_total 2"),
              std::string::npos);
    EXPECT_NE(text.find("quma_recovery_records_scanned_total 2"),
              std::string::npos);
    EXPECT_NE(text.find("quma_journal_records_total"),
              std::string::npos);
    EXPECT_NE(text.find("quma_journal_fsyncs_total"),
              std::string::npos);
    std::remove(path.c_str());
}

/**
 * Recovery submits in the service constructor, before any registry
 * can be bound: the scrape must still count those jobs, because a
 * counter reads the scheduler's lifetime total, not a tally kept
 * since the bind.
 */
TEST(ServiceJournal, RecoveredJobsAreCountedInTheScrape)
{
    const std::string path = tempPath("recovered-metrics");
    ServiceConfig sc;
    sc.startPaused = true; // nothing runs: destruction == crash
    sc.journalPath = path;
    {
        ExperimentService svc(sc);
        svc.submit(matrixJob(1, 31));
        svc.submit(matrixJob(1, 32));
        svc.journal()->sync();
    }
    ExperimentService svc(sc);
    ASSERT_EQ(svc.recoveredIds().size(), 2u);
    metrics::MetricsRegistry registry;
    svc.bindMetrics(registry);
    const std::string text = registry.renderPrometheus();
    EXPECT_EQ(svc.stats().scheduler.submitted, 2u);
    EXPECT_NE(text.find("\nquma_jobs_submitted_total 2\n"),
              std::string::npos)
        << text;
    std::remove(path.c_str());
}

/** Value of the sample line `series` in a scrape (-1 when absent). */
double
sampleValue(const std::string &scrape, const std::string &series)
{
    const std::string key = "\n" + series + " ";
    const std::size_t at = scrape.find(key);
    if (at == std::string::npos)
        return -1.0;
    return std::stod(scrape.substr(at + key.size()));
}

/**
 * Recovered jobs run -- and the journal fsyncs -- before any registry
 * is bound. The latency and fsync histograms are Stats fields read at
 * render time, so a scrape taken after the bind still counts all of
 * it, and the fsync histogram's count is the fsync counter.
 */
TEST(ServiceJournal, RecoveredRunsAndFsyncsAreCountedInTheScrape)
{
    const std::string path = tempPath("recovered-latency");
    ServiceConfig sc;
    sc.journalPath = path;
    sc.journalFsync = FsyncPolicy::Batch;
    {
        ServiceConfig paused = sc;
        paused.startPaused = true; // nothing runs: destruction == crash
        ExperimentService svc(paused);
        svc.submit(matrixJob(1, 41));
        svc.submit(matrixJob(1, 42));
        svc.journal()->sync();
    }
    sc.workers = 2;
    ExperimentService svc(sc);
    ASSERT_EQ(svc.recoveredIds().size(), 2u);
    for (const JobResult &r : svc.awaitAll(svc.recoveredIds()))
        EXPECT_FALSE(r.failed()) << r.error;
    // Completion markers land via the notifier thread; once they are
    // durable the journal has nothing left to fsync.
    EXPECT_TRUE(
        waitFor([&] { return recoverJournal(path).pending.empty(); }));
    svc.journal()->sync();

    metrics::MetricsRegistry registry;
    svc.bindMetrics(registry);
    const std::string text = registry.renderPrometheus();
    double latency = 0.0;
    for (const char *cls : {"batch", "normal", "high"})
        latency += sampleValue(text,
                               std::string("quma_job_latency_seconds_"
                                           "count{priority=\"") +
                                   cls + "\"}");
    EXPECT_EQ(latency, 2.0) << text;
    const double fsyncs = sampleValue(text, "quma_journal_fsyncs_total");
    EXPECT_GT(fsyncs, 0.0) << text;
    EXPECT_EQ(sampleValue(text, "quma_journal_fsync_seconds_count"),
              fsyncs)
        << text;
    EXPECT_EQ(svc.journal()->stats().fsyncSeconds.count(),
              svc.journal()->stats().fsyncs);
    std::remove(path.c_str());
}

/**
 * No component points into a registry: a registry destroyed before
 * the service it was bound to leaves the service fully usable.
 */
TEST(ServiceJournal, RegistryMayDieBeforeTheService)
{
    const std::string path = tempPath("registry-first");
    {
        ServiceConfig sc;
        sc.workers = 2;
        sc.journalPath = path;
        sc.journalFsync = FsyncPolicy::Always;
        ExperimentService svc(sc);
        {
            metrics::MetricsRegistry registry;
            svc.bindMetrics(registry);
            EXPECT_NE(registry.renderPrometheus().find(
                          "quma_journal_fsync_seconds_count 0\n"),
                      std::string::npos);
        }
        std::vector<JobId> ids{svc.submit(shotJob(2, 51)),
                               svc.submit(shotJob(2, 52))};
        for (const JobResult &r : svc.awaitAll(ids))
            EXPECT_FALSE(r.failed()) << r.error;
        const JournalStats js = svc.journal()->stats();
        EXPECT_GT(js.fsyncs, 0u);
        EXPECT_EQ(js.fsyncSeconds.count(), js.fsyncs);
        EXPECT_EQ(svc.stats()
                      .scheduler
                      .latency[static_cast<std::size_t>(
                          JobPriority::Normal)]
                      .count(),
                  2u);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace quma::runtime

// --- capture + replay --------------------------------------------------------

namespace quma::net {
namespace {

using runtime::ExperimentService;
using runtime::JobId;
using runtime::JobResult;
using runtime::JobSpec;
using runtime::ServiceConfig;

/** Record a real loopback session: submit `specs`, await them all,
 *  tear down cleanly, and return the connection's capture. */
CaptureFile
recordSession(const std::string &dir, std::vector<JobSpec> specs)
{
    ::mkdir(dir.c_str(), 0755);
    ServiceConfig sc;
    sc.workers = 2;
    ExperimentService service(sc);
    ServerConfig server_cfg;
    server_cfg.captureDir = dir;
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener), server_cfg);
    {
        QumaClient client(accept_side->connect());
        std::vector<JobId> ids = client.submitAll(std::move(specs));
        for (const JobResult &r : client.awaitAll(ids))
            EXPECT_FALSE(r.failed()) << r.error;
    } // client hangs up; the server reaps the connection
    server.stop();
    return readCapture(dir + "/conn-1.qcap");
}

std::vector<JobSpec>
sessionSpecs()
{
    std::vector<JobSpec> specs;
    for (std::uint64_t seed : {0xAAu, 0xBBu, 0xCCu}) {
        JobSpec job = runtime::shotJob(1, seed);
        job.rounds = 8;
        job.shards = 2;
        job.minRoundsPerShard = 2;
        specs.push_back(std::move(job));
    }
    return specs;
}

TEST(CaptureReplay, LiveSessionReplaysBitIdentical)
{
    const std::string dir = runtime::tempPath("capdir");
    CaptureFile capture = recordSession(dir, sessionSpecs());
    ASSERT_TRUE(capture.valid);
    EXPECT_EQ(capture.corruptRecords, 0u);
    // 3 submits + 3 awaits in; at least as many replies out.
    EXPECT_GE(capture.inboundCount(), 6u);
    EXPECT_GE(capture.frames.size() - capture.inboundCount(), 6u);

    ReplayReport report = replayCapture(capture);
    EXPECT_TRUE(report.ok()) << report.mismatches.size()
                             << " mismatches, " << report.timedOut
                             << " timeouts";
    EXPECT_EQ(report.awaitedResults, 3u);
    EXPECT_EQ(report.matchedResults, 3u);
    EXPECT_GE(report.framesSent, 6u);
}

TEST(CaptureReplay, TamperedResultIsDetected)
{
    const std::string dir = runtime::tempPath("capdir");
    std::vector<JobSpec> specs(1, sessionSpecs().front());
    CaptureFile capture = recordSession(dir, std::move(specs));
    ASSERT_TRUE(capture.valid);

    // Flip one byte inside a captured AwaitReply payload: the replay
    // diff MUST notice -- that is the whole point of the tool.
    bool tampered = false;
    for (CapturedFrame &f : capture.frames) {
        if (f.inbound || f.frame.size() <= kFrameHeaderBytes)
            continue;
        FrameHeader fh = decodeFrameHeader(f.frame.data());
        if (fh.type != MsgType::AwaitReply)
            continue;
        f.frame[f.frame.size() - 1] ^= 0x01;
        tampered = true;
        break;
    }
    ASSERT_TRUE(tampered) << "no AwaitReply captured?";

    ReplayReport report = replayCapture(capture);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.matchedResults, 0u);
    ASSERT_EQ(report.mismatches.size(), 1u);
    EXPECT_NE(report.mismatches[0].reason.find("AwaitReply"),
              std::string::npos);
}

TEST(CaptureReplay, TornCaptureTailKeepsTheValidPrefix)
{
    const std::string dir = runtime::tempPath("capdir");
    std::vector<JobSpec> specs(1, sessionSpecs().front());
    CaptureFile full = recordSession(dir, std::move(specs));
    ASSERT_TRUE(full.valid);

    const std::string file = dir + "/conn-1.qcap";
    std::vector<std::uint8_t> bytes = runtime::readFileBytes(file);
    // Cut into the middle of the last record.
    runtime::writeFileBytes(file,
                            {bytes.begin(), bytes.end() - 3});
    CaptureFile torn = readCapture(file);
    EXPECT_TRUE(torn.valid);
    EXPECT_EQ(torn.corruptRecords, 1u);
    EXPECT_EQ(torn.frames.size(), full.frames.size() - 1);
}

/**
 * THE GOLDEN FIXTURE: a checked-in AllXY session capture that every
 * build must replay bit-identically. A diff here means the simulated
 * physics, the wire codec, or the merge order changed -- all of
 * which are breaking changes to the determinism contract.
 *
 * Regenerate (after an INTENTIONAL contract change) with:
 *     QUMA_REGEN_GOLDEN=1 ./build/test_journal \
 *         --gtest_filter='*GoldenAllxySession*'
 */
TEST(CaptureReplay, GoldenAllxySessionReplaysBitIdentical)
{
    const std::string fixture =
        std::string(QUMA_TEST_DATA_DIR) + "/allxy_session.qcap";

    if (std::getenv("QUMA_REGEN_GOLDEN") != nullptr) {
        const std::string dir = runtime::tempPath("golden");
        std::vector<JobSpec> specs;
        for (double amplitudeError : {0.0, 0.05}) {
            experiments::AllxyConfig cfg;
            cfg.rounds = 32;
            cfg.seed = 0xA11C;
            cfg.shards = 2;
            cfg.amplitudeError = amplitudeError;
            specs.push_back(experiments::allxyJob(cfg));
        }
        CaptureFile session = recordSession(dir, std::move(specs));
        ASSERT_TRUE(session.valid);
        runtime::writeFileBytes(
            fixture, runtime::readFileBytes(dir + "/conn-1.qcap"));
    }

    CaptureFile capture = readCapture(fixture);
    ASSERT_TRUE(capture.valid)
        << "missing golden fixture " << fixture
        << " -- run with QUMA_REGEN_GOLDEN=1 to generate it";
    EXPECT_EQ(capture.corruptRecords, 0u);

    ReplayReport report = replayCapture(capture);
    EXPECT_TRUE(report.ok())
        << report.mismatches.size() << " mismatches, "
        << report.timedOut << " timeouts -- the determinism "
        << "contract broke (or changed intentionally: regenerate "
        << "the fixture, see the test comment)";
    EXPECT_EQ(report.awaitedResults, 2u);
    EXPECT_EQ(report.matchedResults, 2u);
}

/**
 * The JobResult codec is CANONICAL: decoding a captured AwaitReply
 * and encoding the result again gives back the exact bytes. A
 * gateway decodes backend results and re-encodes them for its
 * clients, so its byte-identity guarantee rests on this.
 */
TEST(CaptureReplay, GoldenResultsReencodeByteIdentical)
{
    CaptureFile capture = readCapture(std::string(QUMA_TEST_DATA_DIR) +
                                      "/allxy_session.qcap");
    ASSERT_TRUE(capture.valid);
    std::size_t results = 0;
    for (const CapturedFrame &f : capture.frames) {
        if (f.inbound)
            continue;
        ASSERT_GE(f.frame.size(), kFrameHeaderBytes);
        FrameHeader fh = decodeFrameHeader(f.frame.data());
        if (fh.type != MsgType::AwaitReply)
            continue;
        const std::vector<std::uint8_t> payload(
            f.frame.begin() + kFrameHeaderBytes, f.frame.end());
        Reader r(payload);
        runtime::JobResult result = decodeJobResult(r);
        r.expectEnd();
        Writer w;
        encodeJobResult(w, result);
        EXPECT_EQ(w.bytes(), payload)
            << "AwaitReply " << fh.requestId << " re-encoded differently";
        ++results;
    }
    EXPECT_EQ(results, 2u);
}

} // namespace
} // namespace quma::net

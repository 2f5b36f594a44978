/**
 * @file
 * Tests of the network serving layer: wire-format round-trips for
 * every message type, defensive rejection of malformed frames
 * (truncated, oversized, bad magic, foreign version -- no UB),
 * version checking (a v1 frame without a requestId, or a v3 frame,
 * is answered with a clean VersionMismatch error frame), truncation
 * fuzzing of the 20-byte multiplexed header, the in-process
 * loopback transport, the server's request dispatch and
 * cancel-on-disconnect, and -- the acceptance invariants -- a
 * sharded, priority-tagged AllXY job submitted through QumaClient
 * over a real TCP loopback connection producing the bit-identical
 * JobResult the in-process ExperimentService produces, and a whole
 * sweep PIPELINED over one connection with results streamed back by
 * server push (no polling) matching the in-process path bit for
 * bit.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "experiments/allxy.hh"
#include "experiments/coherence.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "runtime/service.hh"

namespace quma::net {
namespace {

using runtime::ExperimentService;
using runtime::JobPriority;
using runtime::JobResult;
using runtime::JobSpec;
using runtime::JobStatus;
using runtime::ServiceConfig;

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

/** A JobSpec exercising every serialized field non-trivially. */
JobSpec
fancySpec()
{
    JobSpec spec;
    spec.name = "fancy";
    spec.assembly = "Wait 10\nhalt";
    spec.machine.qubits.assign(2, qsim::paperQubitParams());
    spec.machine.qubits[1].freqHz = 5.1e9;
    spec.machine.qubits[1].readout.c1 = {-0.75, 0.25};
    spec.machine.qubits[1].readout.noiseSigma = 2.5;
    spec.machine.driveAwg = {2, 0};
    spec.machine.gateWaitCycles = 5;
    spec.machine.amplitudeError = 0.03;
    spec.machine.carrierDetuningHz = -1.25e5;
    spec.machine.msmtPathDelayCycles = -1;
    spec.machine.exec.stallInjection = true;
    spec.machine.exec.stallProbability = 0.05;
    spec.machine.timing.pulseQueueCapacity = 128;
    spec.machine.chipSeed = 0x1234;
    spec.bins = 42;
    spec.seed = 0xfeedface;
    spec.maxCycles = 123'456'789;
    spec.rounds = 96;
    spec.shards = 3;
    spec.minRoundsPerShard = 4;
    spec.priority = JobPriority::High;
    return spec;
}

// --- wire primitives --------------------------------------------------------

TEST(Wire, PrimitivesRoundTrip)
{
    Writer w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.f64(-1.5e-300);
    w.boolean(true);
    const std::string embeddedNul("hello \0 wire", 12);
    w.str(embeddedNul);
    w.vecF64({1.0, -0.0, 2.5});
    w.vecU64({7, 0, 9});

    Reader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), -1.5e-300);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.str(), embeddedNul);
    EXPECT_EQ(r.vecF64(), (std::vector<double>{1.0, -0.0, 2.5}));
    EXPECT_EQ(r.vecU64(), (std::vector<std::size_t>{7, 0, 9}));
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(Wire, IntegersAreLittleEndianOnTheWire)
{
    Writer w;
    w.u32(0x01020304u);
    ASSERT_EQ(w.bytes().size(), 4u);
    EXPECT_EQ(w.bytes()[0], 0x04);
    EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(Wire, ReaderRejectsTruncation)
{
    Writer w;
    w.u32(7);
    Reader r(w.bytes());
    EXPECT_EQ(r.u16(), 7);
    EXPECT_THROW(r.u32(), WireError);

    // A string length claiming more bytes than the payload holds.
    Writer s;
    s.u32(1000);
    Reader rs(s.bytes());
    EXPECT_THROW(rs.str(), WireError);

    // A vector length that would overflow the payload must be
    // rejected BEFORE any allocation happens.
    Writer v;
    v.u32(0x40000000u);
    Reader rv(v.bytes());
    EXPECT_THROW(rv.vecF64(), WireError);
}

TEST(Wire, ReaderRejectsTrailingGarbage)
{
    Writer w;
    w.u64(1);
    w.u8(0);
    Reader r(w.bytes());
    (void)r.u64();
    EXPECT_THROW(r.expectEnd(), WireError);
}

TEST(Wire, BooleanRejectsJunkByte)
{
    Writer w;
    w.u8(2);
    Reader r(w.bytes());
    EXPECT_THROW(r.boolean(), WireError);
}

// --- frame header -----------------------------------------------------------

TEST(Wire, FrameHeaderRoundTrip)
{
    Writer payload;
    payload.u64(99);
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::AwaitRequest, 0x1122334455667788ull,
                  payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + 8);
    FrameHeader fh = decodeFrameHeader(frame.data());
    EXPECT_EQ(fh.type, MsgType::AwaitRequest);
    EXPECT_EQ(fh.length, 8u);
    // The v2 demux key survives the trip exactly.
    EXPECT_EQ(fh.requestId, 0x1122334455667788ull);
}

TEST(Wire, FrameHeaderRejectsBadMagic)
{
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::StatsRequest, 1, Writer{});
    frame[0] ^= 0xff;
    EXPECT_THROW(decodeFrameHeader(frame.data()), WireError);
}

TEST(Wire, FrameHeaderRejectsForeignVersion)
{
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::StatsRequest, 1, Writer{});
    frame[4] = static_cast<std::uint8_t>(kWireVersion + 1);
    // A foreign version throws the SUBCLASS carrying the peer's
    // version, so a server can answer before hanging up.
    try {
        decodeFrameHeader(frame.data());
        FAIL() << "foreign version must be rejected";
    } catch (const WireVersionError &ex) {
        EXPECT_EQ(ex.peerVersion, kWireVersion + 1);
    }
    // Every older value is equally foreign, v3 and v4 included: the
    // header layout is unchanged since v2, but the server speaks v5
    // only.
    for (std::uint8_t legacy : {1, 3, 4}) {
        frame[4] = legacy;
        EXPECT_THROW(decodeFrameHeader(frame.data()), WireVersionError);
    }
}

TEST(Wire, FrameHeaderRejectsUnknownType)
{
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::StatsRequest, 1, Writer{});
    frame[6] = 60; // inside the request range but unassigned
    EXPECT_THROW(decodeFrameHeader(frame.data()), WireError);
}

TEST(Wire, FrameHeaderRejectsOversizedLength)
{
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::StatsRequest, 1, Writer{});
    // Patch the length field to just past the cap.
    Writer len;
    len.u32(kMaxPayloadBytes + 1);
    std::copy(len.bytes().begin(), len.bytes().end(),
              frame.begin() + 8);
    EXPECT_THROW(decodeFrameHeader(frame.data()), WireError);
}

// --- message payloads -------------------------------------------------------

TEST(Wire, JobSpecRoundTripIsLossless)
{
    JobSpec spec = fancySpec();
    Writer w;
    encodeJobSpec(w, spec);
    Reader r(w.bytes());
    JobSpec back = decodeJobSpec(r);
    EXPECT_NO_THROW(r.expectEnd());

    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.assembly, spec.assembly);
    EXPECT_EQ(back.bins, spec.bins);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.maxCycles, spec.maxCycles);
    EXPECT_EQ(back.rounds, spec.rounds);
    EXPECT_EQ(back.shards, spec.shards);
    EXPECT_EQ(back.minRoundsPerShard, spec.minRoundsPerShard);
    EXPECT_EQ(back.priority, spec.priority);
    // The machine configuration must survive bit-exactly: the shard
    // key is built from exact bit patterns.
    EXPECT_EQ(runtime::configKey(back.machine),
              runtime::configKey(spec.machine));
    EXPECT_EQ(back.machine.exec.seed, spec.machine.exec.seed);
    EXPECT_EQ(back.machine.chipSeed, spec.machine.chipSeed);

    // And re-encoding the decoded spec reproduces the same bytes.
    Writer again;
    encodeJobSpec(again, back);
    EXPECT_EQ(again.bytes(), w.bytes());
}

TEST(Wire, JobSpecRejectsPreassembledProgram)
{
    JobSpec spec = fancySpec();
    spec.program.emplace();
    Writer w;
    EXPECT_THROW(encodeJobSpec(w, spec), WireError);
}

TEST(Wire, JobSpecRejectsUnknownPriority)
{
    JobSpec spec = fancySpec();
    Writer w;
    encodeJobSpec(w, spec);
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes.back() = 9; // priority is the final byte
    Reader r(bytes.data(), bytes.size());
    EXPECT_THROW(decodeJobSpec(r), WireError);
}

TEST(Wire, JobSpecRejectsResourceBombValues)
{
    // A tiny frame claiming astronomical shard/round counts must be
    // refused at decode time: the scheduler would otherwise build
    // one task per shard (the denial-of-service vector).
    auto encodeWith = [](std::uint64_t bins, std::uint64_t rounds,
                         std::uint64_t shards) {
        Writer w;
        w.str("evil");
        w.str("halt");
        encodeMachineConfig(w, core::MachineConfig{});
        w.u64(bins);
        w.u64(0x5eed);     // seed
        w.u64(1'000'000);  // maxCycles
        w.u64(rounds);
        w.u64(shards);
        w.u64(1); // minRoundsPerShard
        w.u8(1);  // priority Normal
        return w.bytes();
    };

    auto expectRejected = [&](std::uint64_t bins, std::uint64_t rounds,
                              std::uint64_t shards) {
        std::vector<std::uint8_t> bytes =
            encodeWith(bins, rounds, shards);
        Reader r(bytes.data(), bytes.size());
        EXPECT_THROW(decodeJobSpec(r), WireError);
    };
    expectRejected(1, 100'000'000, 100'000'000); // shard bomb
    expectRejected(1, kMaxWireRounds + 1, 1);
    expectRejected(kMaxWireBins + 1, 0, 1);
    expectRejected(1u << 16, 1u << 16, 1); // rounds x bins bomb

    // Sanity: legitimate paper-scale values still decode.
    std::vector<std::uint8_t> ok = encodeWith(42, 25600, 8);
    Reader r(ok.data(), ok.size());
    EXPECT_NO_THROW(decodeJobSpec(r));
}

TEST(Wire, JobResultRoundTrip)
{
    JobResult result;
    result.run.cyclesRun = 123456;
    result.run.halted = true;
    result.run.violations.latePoints = 3;
    result.run.violations.staleEvents = 1;
    result.run.violations.totalLateCycles = 17;
    result.averages = {0.25, -1.0, 0.5};
    result.bitAverages = {1.0, 0.0, 0.5};
    result.sampleCount = 4242;
    result.error = "";

    Writer w;
    encodeJobResult(w, result);
    Reader r(w.bytes());
    JobResult back = decodeJobResult(r);
    EXPECT_NO_THROW(r.expectEnd());
    EXPECT_EQ(back, result);

    JobResult failure;
    failure.error = "it broke";
    Writer wf;
    encodeJobResult(wf, failure);
    Reader rf(wf.bytes());
    EXPECT_EQ(decodeJobResult(rf), failure);
}

TEST(Wire, StatsFrameRoundTrip)
{
    StatsFrame stats;
    stats.scheduler.submitted = 10;
    stats.scheduler.completed = 8;
    stats.scheduler.failed = 1;
    stats.scheduler.cancelled = 1;
    stats.scheduler.shardedJobs = 2;
    stats.scheduler.machineSaturation = 0.75;
    for (double v : {0.01, 0.02, 0.02, 0.05, 30.0})
        stats.scheduler.latency[1].observe(v);
    for (double v : {0.001, 0.004})
        stats.scheduler.latency[2].observe(v);
    stats.pool.machinesCreated = 3;
    stats.pool.reuseHits = 7;
    stats.pool.rebinds = 5;
    stats.pool.machineResets = 9;
    stats.cache.programHits = 11;
    stats.cache.programMisses = 4;
    stats.cache.programEvictions = 1;
    stats.cache.lutHits = 22;
    stats.cache.lutMisses = 6;
    stats.cache.lutEvictions = 2;
    stats.effectiveQueueCapacity = 16;

    Writer w;
    encodeStatsFrame(w, stats);
    // The v5 layout: 10 u64 + 1 f64 scheduler slots, 3 latency
    // histograms (14 u64 buckets + sum + max), 7 pool, 6 cache, 1
    // capacity.
    EXPECT_EQ(w.bytes().size(),
              10u * 8 + 8 + 3 * 128 + 7 * 8 + 6 * 8 + 8);
    Reader r(w.bytes());
    StatsFrame back = decodeStatsFrame(r);
    EXPECT_NO_THROW(r.expectEnd());
    EXPECT_EQ(back.scheduler.submitted, 10u);
    EXPECT_EQ(back.scheduler.cancelled, 1u);
    EXPECT_EQ(back.scheduler.machineSaturation, 0.75);
    EXPECT_EQ(back.scheduler.latency, stats.scheduler.latency);
    EXPECT_EQ(back.scheduler.latency[1].count(), 5u);
    EXPECT_EQ(back.scheduler.latency[1].buckets.back(), 1u);
    EXPECT_EQ(back.scheduler.latency[2].max, 0.004);
    EXPECT_EQ(back.pool.machinesCreated, 3u);
    EXPECT_EQ(back.pool.reuseHits, 7u);
    EXPECT_EQ(back.pool.rebinds, 5u);
    EXPECT_EQ(back.pool.machineResets, 9u);
    EXPECT_EQ(back.cache.programHits, 11u);
    EXPECT_EQ(back.cache.programMisses, 4u);
    EXPECT_EQ(back.cache.programEvictions, 1u);
    EXPECT_EQ(back.cache.lutHits, 22u);
    EXPECT_EQ(back.cache.lutMisses, 6u);
    EXPECT_EQ(back.cache.lutEvictions, 2u);
    EXPECT_EQ(back.effectiveQueueCapacity, 16u);
}

TEST(Wire, EveryRequestHasOneReplyAndProgressIsTheOnlyPush)
{
    // Walk the whole type space: the routing rule every reply router
    // shares (frameKind) must give each request exactly one reply
    // type of its own, and ProgressFrame must be the only push.
    std::map<MsgType, MsgType> requestOfReply;
    std::size_t requests = 0;
    std::size_t pushes = 0;
    for (std::uint32_t t = 0; t <= 0xFFFF; ++t) {
        const auto type = static_cast<MsgType>(t);
        switch (frameKind(type)) {
        case FrameKind::Request: {
            ++requests;
            std::optional<MsgType> reply = replyTypeFor(type);
            ASSERT_TRUE(reply.has_value()) << "request " << t;
            EXPECT_EQ(frameKind(*reply), FrameKind::Reply)
                << "request " << t;
            EXPECT_NE(*reply, MsgType::ErrorReply);
            EXPECT_TRUE(requestOfReply.emplace(*reply, type).second)
                << "reply " << static_cast<std::uint16_t>(*reply)
                << " answers two requests";
            break;
        }
        case FrameKind::Push:
            ++pushes;
            EXPECT_EQ(type, MsgType::ProgressFrame);
            EXPECT_FALSE(replyTypeFor(type).has_value());
            break;
        case FrameKind::Reply:
            EXPECT_FALSE(replyTypeFor(type).has_value());
            break;
        case FrameKind::Unknown:
            EXPECT_FALSE(replyTypeFor(type).has_value());
            break;
        }
    }
    EXPECT_EQ(requests, 9u);
    EXPECT_EQ(pushes, 1u);
    // Every reply but ErrorReply answers exactly one request.
    for (std::uint32_t t = 0; t <= 0xFFFF; ++t) {
        const auto type = static_cast<MsgType>(t);
        if (frameKind(type) == FrameKind::Reply &&
            type != MsgType::ErrorReply) {
            EXPECT_EQ(requestOfReply.count(type), 1u) << "reply " << t;
        }
    }
}

TEST(Wire, ErrorFrameRoundTrip)
{
    ErrorFrame e{WireErrorCode::UnknownJob, "job 7 is unknown"};
    Writer w;
    encodeErrorFrame(w, e);
    Reader r(w.bytes());
    ErrorFrame back = decodeErrorFrame(r);
    EXPECT_EQ(back.code, WireErrorCode::UnknownJob);
    EXPECT_EQ(back.message, "job 7 is unknown");

    Writer bad;
    bad.u16(999);
    bad.str("?");
    Reader rb(bad.bytes());
    EXPECT_THROW(decodeErrorFrame(rb), WireError);
}

// --- loopback transport and server dispatch ---------------------------------

TEST(Loopback, PairCarriesBytesBothWays)
{
    auto [a, b] = loopbackPair();
    std::uint8_t out[3] = {1, 2, 3};
    a->sendAll(out, 3);
    std::uint8_t in[3] = {};
    ASSERT_TRUE(b->recvAll(in, 3));
    EXPECT_EQ(in[2], 3);
    b->sendAll(in, 3);
    ASSERT_TRUE(a->recvAll(in, 3));
    a->close();
    // After close, the peer sees clean EOF between frames.
    EXPECT_FALSE(b->recvAll(in, 1));
}

TEST(Loopback, SubmitAwaitPollStatusAgainstServer)
{
    ExperimentService service({.workers = 2});
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    runtime::JobId id = client.submit(shotJob(4, 0x111));
    JobResult remote = client.await(id);
    EXPECT_FALSE(remote.failed());
    EXPECT_EQ(remote.sampleCount, 4u);
    // Once finished, status/poll agree.
    EXPECT_EQ(client.status(id), JobStatus::Done);
    std::optional<JobResult> polled = client.poll(id);
    ASSERT_TRUE(polled.has_value());
    EXPECT_EQ(*polled, remote);

    // Determinism across backends: a second, fresh local service
    // produces the bit-identical result for the same spec.
    ExperimentService local({.workers = 1});
    EXPECT_EQ(local.runSync(shotJob(4, 0x111)), remote);

    QumaServer::Stats ss = server.stats();
    EXPECT_EQ(ss.connectionsAccepted, 1u);
    EXPECT_GE(ss.requestsServed, 4u);
    EXPECT_GT(ss.link.bytesUp, 0u);
    EXPECT_GT(ss.link.bytesDown, 0u);
    core::LinkStats cs = client.linkStats();
    EXPECT_GT(cs.bytesUp, 0u);
    EXPECT_EQ(cs.uploads, ss.link.uploads);
}

TEST(Loopback, TrySubmitReportsAdmissionRejection)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 1;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    std::optional<runtime::JobId> first =
        client.trySubmit(shotJob(2, 1));
    ASSERT_TRUE(first.has_value());
    std::optional<runtime::JobId> second =
        client.trySubmit(shotJob(2, 2));
    EXPECT_FALSE(second.has_value());

    service.start();
    EXPECT_FALSE(client.await(*first).failed());
}

TEST(Loopback, ExplicitCancelOfQueuedJob)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 8;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    runtime::JobId keep = client.submit(shotJob(2, 1));
    runtime::JobId drop = client.submit(shotJob(2, 2));
    EXPECT_TRUE(client.cancel(drop));
    EXPECT_FALSE(client.cancel(drop)); // already finished (failed)
    EXPECT_EQ(client.status(drop), JobStatus::Failed);
    JobResult dropped = client.await(drop);
    EXPECT_TRUE(dropped.failed());
    EXPECT_NE(dropped.error.find("cancelled"), std::string::npos);

    service.start();
    EXPECT_FALSE(client.await(keep).failed());
    EXPECT_EQ(client.stats().scheduler.cancelled, 1u);
}

TEST(Loopback, CancelIsScopedToTheSubmittingConnection)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 8;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient alice(accept_side->connect());
    QumaClient mallory(accept_side->connect());

    runtime::JobId job = alice.submit(shotJob(2, 1));
    // Another connection cannot cancel a job it does not own, even
    // with a valid (guessed) id.
    EXPECT_FALSE(mallory.cancel(job));
    EXPECT_EQ(alice.status(job), JobStatus::Queued);
    // The owner still can.
    EXPECT_TRUE(alice.cancel(job));
    EXPECT_EQ(alice.status(job), JobStatus::Failed);
    service.start();
    service.drain();
}

TEST(Loopback, DisconnectCancelsQueuedJobs)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 8;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));

    {
        QumaClient client(accept_side->connect());
        client.submit(shotJob(2, 1));
        client.submit(shotJob(2, 2));
        client.disconnect();
    }
    // The serving thread notices EOF asynchronously.
    for (int i = 0; i < 500; ++i) {
        if (server.stats().jobsCancelledOnDisconnect == 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(server.stats().jobsCancelledOnDisconnect, 2u);
    EXPECT_EQ(service.scheduler().stats().cancelled, 2u);
    // The connection's serving state was reclaimed, not parked.
    EXPECT_EQ(server.stats().connectionsActive, 0u);
    service.start();
    service.drain();
}

TEST(Loopback, UnknownJobIdMirrorsLocalFatal)
{
    ExperimentService service({.workers = 1});
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());
    EXPECT_THROW(client.await(424242), FatalError);
    // The connection survives an error reply.
    EXPECT_FALSE(client.runSync(shotJob(2, 5)).failed());
}

TEST(Loopback, StatsFrameReflectsServedWork)
{
    ExperimentService service({.workers = 2});
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    JobSpec spec = shotJob(2, 0x77);
    spec.priority = JobPriority::High;
    EXPECT_FALSE(client.runSync(spec).failed());

    StatsFrame stats = client.stats();
    EXPECT_GE(stats.scheduler.completed, 1u);
    EXPECT_GT(stats.effectiveQueueCapacity, 0u);
    const auto &high = stats.scheduler.latency[static_cast<std::size_t>(
        JobPriority::High)];
    EXPECT_EQ(high.count(), 1u);
    EXPECT_GT(high.max, 0.0);
    EXPECT_EQ(high.sum, high.max);
    EXPECT_GE(stats.pool.machinesCreated, 1u);
}

/**
 * numAwgs travels as a plain u32: a remote job asking for a million
 * AWGs must be rejected by config validation before anything is
 * built, fail only itself, and leave the worker's machine bound to
 * its previous config -- the next job runs bit-identically to a
 * fresh service.
 */
TEST(Loopback, HostileMachineConfigFailsOnlyItsJob)
{
    setLogQuiet(true);
    ExperimentService service({.workers = 1});
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    EXPECT_FALSE(client.runSync(shotJob(2, 0x51)).failed());
    JobSpec hostile = shotJob(2, 0x52);
    hostile.machine.numAwgs = 1u << 20;
    auto start = std::chrono::steady_clock::now();
    JobResult rejected = client.runSync(hostile);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    EXPECT_TRUE(rejected.failed());
    EXPECT_NE(rejected.error.find("machine unavailable"),
              std::string::npos)
        << rejected.error;

    const JobSpec next = shotJob(2, 0x53);
    JobResult served = client.runSync(next);
    ASSERT_FALSE(served.failed());
    ExperimentService fresh({.workers = 1});
    EXPECT_EQ(served, fresh.runSync(next));
    // The rejected rebind left the machine bound to the first job's
    // config, so the third job reused it as it was.
    StatsFrame stats = client.stats();
    EXPECT_EQ(stats.pool.machinesCreated, 1u);
    EXPECT_EQ(stats.pool.rebinds, 0u);
    EXPECT_EQ(stats.pool.reuseHits, 1u);
    setLogQuiet(false);
}

TEST(Loopback, StatsFrameCarriesCacheCounters)
{
    // Wire v3: the stats frame exposes the serving side's program/LUT
    // cache, so a remote operator can judge cache health without shell
    // access to the server host.
    ExperimentService service({.workers = 2});
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    // Same assembly twice: the second run must be a program-cache hit.
    EXPECT_FALSE(client.runSync(shotJob(2, 0x1)).failed());
    EXPECT_FALSE(client.runSync(shotJob(2, 0x2)).failed());

    StatsFrame stats = client.stats();
    EXPECT_EQ(stats.cache.programMisses, 1u);
    EXPECT_GE(stats.cache.programHits, 1u);
    EXPECT_GE(stats.cache.lutHits + stats.cache.lutMisses, 1u);
}

TEST(Loopback, DisconnectDuringAwaitCancelsQueuedJobs)
{
    // The serving thread is parked in an await on a job that can
    // never run (paused service) when the client vanishes: the
    // liveness probe inside the bounded wait must notice and the
    // disconnect handling must cancel the client's queued jobs.
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 8;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));

    {
        QumaClient client(accept_side->connect());
        runtime::JobId first = client.submit(shotJob(2, 1));
        client.submit(shotJob(2, 2));
        std::thread waiter([&] {
            try {
                client.await(first);
            } catch (const std::exception &) {
                // The disconnect below kills the in-flight await.
            }
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        client.disconnect();
        waiter.join();
    }
    for (int i = 0; i < 1000; ++i) {
        if (server.stats().jobsCancelledOnDisconnect == 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(server.stats().jobsCancelledOnDisconnect, 2u);
    EXPECT_EQ(service.scheduler().stats().cancelled, 2u);
    service.start();
    service.drain();
}

TEST(Loopback, StopUnblocksAPendingAwait)
{
    // The service never starts, so the awaited job can never finish:
    // stop() must still complete, interrupting the connection thread
    // parked on the scheduler and answering the client with a
    // Shutdown error.
    ServiceConfig sc;
    sc.workers = 1;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    runtime::JobId id = client.submit(shotJob(2, 1));
    bool threw = false;
    std::thread waiter([&] {
        try {
            client.await(id);
        } catch (const std::exception &) {
            threw = true;
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.stop(); // must not hang behind the blocked await
    waiter.join();
    EXPECT_TRUE(threw);
    service.start();
    service.drain();
}

/** Read one whole frame (header + payload) off a raw stream. */
std::pair<FrameHeader, std::vector<std::uint8_t>>
recvFrame(ByteStream &stream)
{
    std::uint8_t header[kFrameHeaderBytes];
    EXPECT_TRUE(stream.recvAll(header, sizeof(header)));
    FrameHeader fh = decodeFrameHeader(header);
    std::vector<std::uint8_t> payload(fh.length);
    if (fh.length > 0) {
        EXPECT_TRUE(stream.recvAll(payload.data(), payload.size()));
    }
    return {fh, std::move(payload)};
}

TEST(Loopback, MalformedPayloadGetsBadRequestAndKeepsConnection)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 8;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));

    std::unique_ptr<ByteStream> raw = accept_side->connect();
    // A healthy submit first, so the connection owns a queued job.
    Writer submit;
    encodeJobSpec(submit, shotJob(2, 9));
    // A current-version Submit must carry a trace context (zeros =
    // "no trace").
    encodeTraceContext(submit, TraceContext{});
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::SubmitRequest, 1, submit);
    raw->sendAll(frame.data(), frame.size());
    auto [sfh, sbody] = recvFrame(*raw);
    ASSERT_EQ(sfh.type, MsgType::SubmitReply);
    EXPECT_EQ(sfh.requestId, 1u);

    // Now a StatusRequest whose payload is 2 bytes short of its u64:
    // framing is intact, the payload is the client's bug.
    Writer bad;
    bad.u32(7);
    frame = sealFrame(MsgType::StatusRequest, 2, bad);
    raw->sendAll(frame.data(), frame.size());
    auto [efh, ebody] = recvFrame(*raw);
    ASSERT_EQ(efh.type, MsgType::ErrorReply);
    // The error reply routes back to the offending request.
    EXPECT_EQ(efh.requestId, 2u);
    Reader er(ebody);
    EXPECT_EQ(decodeErrorFrame(er).code, WireErrorCode::BadRequest);

    // The connection survived and the queued job was NOT cancelled.
    Writer stats;
    frame = sealFrame(MsgType::StatsRequest, 3, stats);
    raw->sendAll(frame.data(), frame.size());
    auto [tfh, tbody] = recvFrame(*raw);
    EXPECT_EQ(tfh.type, MsgType::StatsReply);
    EXPECT_EQ(tfh.requestId, 3u);
    EXPECT_EQ(service.scheduler().stats().cancelled, 0u);

    service.start();
    service.drain();
}

// --- version negotiation and header fuzzing ---------------------------------

/** A v1-era frame: 12-byte header (no requestId), then payload. */
std::vector<std::uint8_t>
sealV1Frame(MsgType type, const Writer &payload)
{
    Writer header;
    header.u32(kWireMagic);
    header.u16(1); // the legacy version
    header.u16(static_cast<std::uint16_t>(type));
    header.u32(static_cast<std::uint32_t>(payload.bytes().size()));
    std::vector<std::uint8_t> frame = header.bytes();
    frame.insert(frame.end(), payload.bytes().begin(),
                 payload.bytes().end());
    return frame;
}

TEST(Loopback, LegacyFrameGetsCleanVersionMismatchThenHangup)
{
    ExperimentService service({.workers = 1});
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));

    // A v1 StatusRequest: 12 header bytes + 8 payload bytes, so the
    // server's 20-byte header read completes and sees version 1.
    std::unique_ptr<ByteStream> raw = accept_side->connect();
    Writer payload;
    payload.u64(7);
    std::vector<std::uint8_t> frame =
        sealV1Frame(MsgType::StatusRequest, payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes); // reads as one header
    raw->sendAll(frame.data(), frame.size());

    // The answer is a clean, DECODABLE v2 error frame on the
    // connection-level request id -- not silence, not a dropped
    // socket mid-frame.
    auto [fh, body] = recvFrame(*raw);
    EXPECT_EQ(fh.type, MsgType::ErrorReply);
    EXPECT_EQ(fh.requestId, kConnectionRequestId);
    Reader r(body);
    ErrorFrame e = decodeErrorFrame(r);
    EXPECT_EQ(e.code, WireErrorCode::VersionMismatch);
    EXPECT_NE(e.message.find("version 1"), std::string::npos);

    // ... after which the server hangs up (clean EOF).
    std::uint8_t probe;
    EXPECT_FALSE(raw->recvAll(&probe, 1));

    // The nastier case: a v1 frame SHORTER than the v2 header (a
    // 12-byte StatsRequest has no payload). The server must not
    // block waiting for v2-header bytes that will never come -- the
    // prefix check fires on the first 12 bytes alone.
    std::unique_ptr<ByteStream> short_raw = accept_side->connect();
    std::vector<std::uint8_t> tiny =
        sealV1Frame(MsgType::StatsRequest, Writer{});
    ASSERT_EQ(tiny.size(), kFrameHeaderPrefixBytes);
    short_raw->sendAll(tiny.data(), tiny.size());
    auto [tfh, tbody] = recvFrame(*short_raw);
    EXPECT_EQ(tfh.type, MsgType::ErrorReply);
    Reader tr(tbody);
    EXPECT_EQ(decodeErrorFrame(tr).code,
              WireErrorCode::VersionMismatch);
    EXPECT_FALSE(short_raw->recvAll(&probe, 1));

    // A v3 frame shares the v5 header layout, but the server speaks
    // v5 only: it too gets VersionMismatch and a close.
    std::unique_ptr<ByteStream> v3_raw = accept_side->connect();
    std::vector<std::uint8_t> v3 =
        sealFrame(MsgType::StatsRequest, 5, Writer{});
    v3[4] = 3;
    v3_raw->sendAll(v3.data(), v3.size());
    auto [vfh, vbody] = recvFrame(*v3_raw);
    EXPECT_EQ(vfh.type, MsgType::ErrorReply);
    EXPECT_EQ(vfh.requestId, kConnectionRequestId);
    Reader vr(vbody);
    ErrorFrame ve = decodeErrorFrame(vr);
    EXPECT_EQ(ve.code, WireErrorCode::VersionMismatch);
    EXPECT_NE(ve.message.find("version 3"), std::string::npos);
    EXPECT_FALSE(v3_raw->recvAll(&probe, 1));
}

TEST(Loopback, SlowConsumerOverflowTearsTheConnectionDown)
{
    // A client that fires requests but never reads replies must not
    // grow the server's outbox without bound: once the pipe (here a
    // TCP-buffer-sized 256 bytes) wedges the writer and the outbox
    // hits its cap, the connection is treated as dead and reclaimed.
    ExperimentService service({.workers = 1});
    auto listener =
        std::make_unique<LoopbackListener>(/*pipe_capacity=*/256);
    LoopbackListener *accept_side = listener.get();
    ServerConfig cfg;
    cfg.maxQueuedReplyFrames = 4;
    QumaServer server(service, std::move(listener), cfg);

    std::unique_ptr<ByteStream> raw = accept_side->connect();
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::StatsRequest, 1, Writer{});
    // Far more requests than fit in the reply pipe plus the outbox
    // cap; never read a single reply. Sends may block on the
    // bounded pipe and then fail once the server hangs up -- which
    // is the point.
    bool hungUpOnUs = false;
    for (int i = 0; i < 64 && !hungUpOnUs; ++i) {
        try {
            raw->sendAll(frame.data(), frame.size());
        } catch (const WireError &) {
            hungUpOnUs = true;
        }
    }
    for (int i = 0; i < 1000; ++i) {
        if (server.stats().connectionsActive == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(server.stats().connectionsActive, 0u);

    // The server remains healthy for well-behaved clients.
    QumaClient client(accept_side->connect());
    EXPECT_FALSE(client.runSync(shotJob(2, 0x51)).failed());
}

TEST(Loopback, TruncatedHeadersNeverWedgeTheServer)
{
    ExperimentService service({.workers = 1});
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));

    Writer payload;
    payload.u64(424242);
    std::vector<std::uint8_t> whole =
        sealFrame(MsgType::AwaitRequest, 9, payload);

    // Every proper prefix of the 20-byte header (plus a mid-payload
    // cut): the server must treat each as a dead/misbehaving peer
    // and reclaim the connection -- no hang, no crash, no UB for
    // any cut point across the new header fields (requestId
    // included).
    for (std::size_t cut = 1; cut < whole.size(); ++cut) {
        std::unique_ptr<ByteStream> raw = accept_side->connect();
        raw->sendAll(whole.data(), cut);
        raw->close();
    }
    // Connections are torn down asynchronously; wait for the server
    // to reclaim all of them.
    for (int i = 0; i < 1000; ++i) {
        if (server.stats().connectionsActive == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(server.stats().connectionsActive, 0u);

    // And the server still serves fresh, well-formed connections.
    QumaClient client(accept_side->connect());
    EXPECT_FALSE(client.runSync(shotJob(2, 0xf42)).failed());
}

// --- pipelining and server-push streaming ------------------------------------

TEST(Loopback, ManyAwaitsInFlightOnOneConnection)
{
    // Three awaits park on ONE connection while the service is still
    // paused -- impossible under the v1 strict request/reply
    // discipline, where the first await would own the connection
    // until its job completed.
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 8;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    std::vector<runtime::JobId> ids = client.submitAll(
        {shotJob(2, 0xa), shotJob(2, 0xb), shotJob(2, 0xc)});
    ASSERT_EQ(ids.size(), 3u);

    std::vector<std::pair<runtime::JobId, JobResult>> streamed;
    std::thread waiter([&] { streamed = client.awaitMany(ids); });
    // Give the awaits time to reach the server; they must all be
    // REGISTERED (requests served), not queued behind each other.
    for (int i = 0; i < 1000; ++i) {
        if (server.stats().requestsServed >= 6)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(server.stats().requestsServed, 6u);

    service.start();
    waiter.join();
    ASSERT_EQ(streamed.size(), 3u);
    // Exactly one request frame per submit and per await crossed the
    // wire: results were PUSHED on completion, never polled for.
    EXPECT_EQ(server.stats().requestsServed, 6u);

    // Results route to the right ids and match a local reference.
    ExperimentService local({.workers = 1});
    std::map<runtime::JobId, JobResult> bySubmitted;
    for (auto &[id, result] : streamed)
        bySubmitted.emplace(id, result);
    std::vector<std::uint64_t> seeds = {0xa, 0xb, 0xc};
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(bySubmitted.at(ids[i]),
                  local.runSync(shotJob(2, seeds[i])));
}

TEST(Loopback, AwaitStreamingDeliversInCompletionOrder)
{
    // One worker, paused: the jobs will finish in queue order, and
    // the streamed delivery order must match the scheduler's own
    // completion record -- results arrive as they finish, not in
    // request order.
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 8;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    std::vector<runtime::JobId> ids = client.submitAll(
        {shotJob(2, 1), shotJob(2, 2), shotJob(2, 3),
         shotJob(2, 4)});
    // Await in REVERSE argument order to decouple request order from
    // completion order.
    std::vector<runtime::JobId> reversed(ids.rbegin(), ids.rend());
    std::vector<runtime::JobId> delivered;
    std::thread waiter([&] {
        client.awaitStreaming(
            reversed, [&delivered](runtime::JobId id,
                                   JobResult result) {
                EXPECT_FALSE(result.failed());
                delivered.push_back(id);
            });
    });
    // All four awaits must be REGISTERED (4 submits + 4 awaits
    // served) before the first job may run, or an early finisher
    // would be delivered in subscription order instead.
    for (int i = 0; i < 1000; ++i) {
        if (server.stats().requestsServed >= 8)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(server.stats().requestsServed, 8u);
    service.start();
    waiter.join();
    ASSERT_EQ(delivered.size(), ids.size());
    EXPECT_EQ(delivered, service.scheduler().finishedIds());
}

// --- real TCP: the remote-vs-local acceptance invariant ---------------------

TEST(Tcp, ShardedPriorityAllxyBitIdenticalRemoteVsLocal)
{
    experiments::AllxyConfig cfg;
    cfg.rounds = 32;
    cfg.shards = 4;
    cfg.seed = 0xa11c;
    JobSpec spec = experiments::allxyJob(cfg);
    ASSERT_EQ(spec.rounds, 32u); // round-structured, sharded
    spec.priority = JobPriority::High;

    // In-process reference.
    ExperimentService local({.workers = 2});
    JobResult localResult = local.runSync(spec);
    ASSERT_FALSE(localResult.failed());

    // The same spec through a real TCP loopback connection.
    ExperimentService served({.workers = 2});
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaServer server(served, std::move(listener));
    QumaClient client("127.0.0.1", port);
    JobResult remoteResult = client.runSync(spec);

    ASSERT_FALSE(remoteResult.failed());
    EXPECT_GT(remoteResult.sampleCount, 0u);
    // THE acceptance bit: not close, identical.
    EXPECT_EQ(remoteResult, localResult);

    // The sharding fields made it across: the served scheduler saw a
    // multi-shard job.
    EXPECT_GE(served.scheduler().stats().shardedJobs, 1u);
}

TEST(Tcp, ExperimentFanOutRunsUnchangedAgainstRemoteBackend)
{
    experiments::AllxyConfig cfg;
    cfg.rounds = 8;
    cfg.shards = 1;
    cfg.seed = 0x5eed;

    ExperimentService local({.workers = 2});
    experiments::AllxyResult onLocal =
        experiments::runAllxy(cfg, local);

    ExperimentService served({.workers = 2});
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaServer server(served, std::move(listener));
    QumaClient client("127.0.0.1", port);
    experiments::AllxyResult onRemote =
        experiments::runAllxy(cfg, client);

    // Same fan-out code, different backend, identical physics.
    EXPECT_EQ(onRemote.rawS, onLocal.rawS);
    EXPECT_EQ(onRemote.fidelity, onLocal.fidelity);
    EXPECT_EQ(onRemote.deviation, onLocal.deviation);
}

TEST(Tcp, ConcurrentClientsGetTheirOwnResults)
{
    ExperimentService service({.workers = 2});
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaServer server(service, std::move(listener));

    constexpr int kClients = 3;
    constexpr int kJobsEach = 3;
    std::vector<std::vector<JobResult>> results(kClients);
    std::vector<std::thread> drivers;
    drivers.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
        drivers.emplace_back([&, c] {
            QumaClient client("127.0.0.1", port);
            std::vector<runtime::JobId> ids;
            for (int j = 0; j < kJobsEach; ++j)
                ids.push_back(client.submit(
                    shotJob(2, 0x1000u + 16u * static_cast<unsigned>(c) +
                                   static_cast<unsigned>(j))));
            results[static_cast<std::size_t>(c)] =
                client.awaitAll(ids);
        });
    for (auto &d : drivers)
        d.join();

    // Every client's results match a locally-run reference of the
    // same seeds: no cross-connection mixups.
    ExperimentService local({.workers = 1});
    for (int c = 0; c < kClients; ++c)
        for (int j = 0; j < kJobsEach; ++j) {
            JobResult ref = local.runSync(
                shotJob(2, 0x1000u + 16u * static_cast<unsigned>(c) +
                               static_cast<unsigned>(j)));
            EXPECT_EQ(results[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(j)],
                      ref);
        }
    EXPECT_EQ(server.stats().connectionsAccepted,
              static_cast<std::size_t>(kClients));
}

TEST(Tcp, PipelinedShardedSweepBitIdenticalRemoteVsLocal)
{
    // THE v2 acceptance invariant: a whole sweep of sharded,
    // priority-tagged jobs pipelined over ONE TCP connection, with
    // results streamed back by server push, merges bit-identically
    // to the in-process path.
    std::vector<JobSpec> sweep;
    for (std::uint64_t i = 0; i < 4; ++i) {
        experiments::AllxyConfig cfg;
        cfg.rounds = 24;
        cfg.shards = 2;
        cfg.seed = 0x90e0 + i;
        JobSpec spec = experiments::allxyJob(cfg);
        ASSERT_EQ(spec.rounds, 24u); // round-structured, sharded
        spec.priority = JobPriority::High;
        sweep.push_back(std::move(spec));
    }

    // In-process reference.
    ExperimentService local({.workers = 2});
    std::vector<JobResult> localResults =
        local.awaitAll(local.submitAll(sweep));

    // The same sweep through one TCP loopback connection.
    ExperimentService served({.workers = 2});
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaServer server(served, std::move(listener));
    QumaClient client("127.0.0.1", port);

    std::vector<runtime::JobId> ids = client.submitAll(sweep);
    std::map<runtime::JobId, JobResult> byId;
    for (auto &[id, result] : client.awaitMany(ids))
        byId.emplace(id, std::move(result));

    ASSERT_EQ(byId.size(), sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        ASSERT_FALSE(localResults[i].failed());
        // THE acceptance bit: not close, identical.
        EXPECT_EQ(byId.at(ids[i]), localResults[i]);
    }

    // The sharding fields made it across (multi-shard jobs on the
    // serving scheduler) and delivery was pure push: exactly one
    // frame per submit and per await, no polling traffic.
    EXPECT_GE(served.scheduler().stats().shardedJobs, sweep.size());
    EXPECT_EQ(server.stats().requestsServed, 2 * sweep.size());
}

TEST(Tcp, CoherenceSweepFanOutPipelinedMatchesLocal)
{
    // The rewired experiment fan-out end to end: runT1 against a
    // remote backend submits its whole sweep with submitAll (one
    // pipelined burst over the single connection) and must still
    // reproduce the local service's numbers exactly.
    experiments::CoherenceConfig cfg =
        experiments::CoherenceConfig::withLinearSweep(4000.0, 4);
    cfg.rounds = 16;
    cfg.shards = 2;
    cfg.seed = 0x71a;

    ExperimentService local({.workers = 2});
    experiments::DecayResult onLocal = experiments::runT1(cfg, local);

    ExperimentService served({.workers = 2});
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaServer server(served, std::move(listener));
    QumaClient client("127.0.0.1", port);
    experiments::DecayResult onRemote =
        experiments::runT1(cfg, client);

    EXPECT_EQ(onRemote.delaysNs, onLocal.delaysNs);
    EXPECT_EQ(onRemote.population, onLocal.population);
    EXPECT_EQ(onRemote.fit.tau, onLocal.fit.tau);
}

// --- wire v4 observability: tracing, progress, back-compat ------------------

TEST(Wire, ObservabilityPayloadsRoundTrip)
{
    Writer w;
    encodeTraceContext(w, TraceContext{0xabcdef0123456789ull, 42});
    Reader r(w.bytes());
    TraceContext tc = decodeTraceContext(r);
    EXPECT_EQ(tc.traceId, 0xabcdef0123456789ull);
    EXPECT_EQ(tc.spanId, 42u);

    Writer pw;
    encodeProgressFrame(pw, ProgressFrameData{7, 96, 128});
    Reader pr(pw.bytes());
    ProgressFrameData p = decodeProgressFrame(pr);
    EXPECT_EQ(p.job, 7u);
    EXPECT_EQ(p.roundsDone, 96u);
    EXPECT_EQ(p.roundsTotal, 128u);

    // done > total is not a progress report, it is a bug on the
    // wire.
    Writer bad;
    encodeProgressFrame(bad, ProgressFrameData{7, 129, 128});
    Reader br(bad.bytes());
    EXPECT_THROW(decodeProgressFrame(br), WireError);

    Writer cw;
    encodeClockSyncFrame(cw, ClockSyncFrame{123456789});
    Reader cr(cw.bytes());
    EXPECT_EQ(decodeClockSyncFrame(cr).serverNanos, 123456789u);

    TraceDumpFrame dump;
    dump.events.push_back({3, 1, runtime::TracePhase::ShardStart, 50});
    dump.events.push_back({3, 1, runtime::TracePhase::ShardFinish, 90});
    dump.traceIds.emplace_back(3, 0x5eed);
    dump.dropped = 2;
    Writer dw;
    encodeTraceDumpFrame(dw, dump);
    Reader dr(dw.bytes());
    TraceDumpFrame out = decodeTraceDumpFrame(dr);
    ASSERT_EQ(out.events.size(), 2u);
    EXPECT_EQ(out.events[0].job, 3u);
    EXPECT_EQ(out.events[1].phase, runtime::TracePhase::ShardFinish);
    EXPECT_EQ(out.events[1].nanos, 90u);
    ASSERT_EQ(out.traceIds.size(), 1u);
    EXPECT_EQ(out.traceIds[0].second, 0x5eedu);
    EXPECT_EQ(out.dropped, 2u);
}

TEST(Loopback, SubmitCarriesTraceContextToServerRecorder)
{
    // The distributed-trace join point: a v4 submit carries the
    // client's traceId, and the server's recorder files the job
    // under it -- that association is what the merged trace joins
    // on.
    ExperimentService service({.workers = 1});
    service.trace().enable();
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    QumaClient client(accept_side->connect());

    ASSERT_NE(client.traceId(), 0u);
    runtime::JobId id = client.submit(shotJob(2, 1));
    EXPECT_EQ(service.trace().traceIdOf(id), client.traceId());
    client.await(id);

    // The clock-sync handshake completes (the offset magnitude is
    // environment-dependent, the round trip must simply succeed).
    (void)client.clockSync();
}

TEST(Loopback, ProgressStreamsMonotonicallyBitIdenticalEverywhere)
{
    // THE progress acceptance sweep: the same sharded AllXY job at
    // every shards x workers combination (stealing always on) must (a) stream
    // monotonic progress ending exactly at done == total ahead of
    // the result, and (b) produce the bit-identical JobResult the
    // quiet in-process run produces -- observability must never
    // perturb the physics.
    experiments::AllxyConfig cfg;
    cfg.rounds = 32;
    cfg.seed = 0xa11c;

    // One quiet in-process reference PER spec: a sharded job runs
    // round-by-round with per-round RNG streams, a 1-shard job as
    // one opaque round on the job-level streams, so the bit-identity
    // contract is per spec (any workers x progress), not across shard
    // counts.
    std::map<std::uint32_t, JobResult> localByShards;
    for (std::uint32_t shards : {1u, 4u}) {
        cfg.shards = shards;
        localByShards[shards] = ExperimentService({.workers = 2})
                                    .runSync(experiments::allxyJob(cfg));
        ASSERT_FALSE(localByShards[shards].failed());
    }

    for (unsigned workers : {1u, 4u}) {
        for (std::uint32_t shards : {1u, 4u}) {
            ServiceConfig sc;
            sc.workers = workers;
            sc.progressInterval = std::chrono::milliseconds(0);
            ExperimentService service(sc);
            auto listener = std::make_unique<LoopbackListener>();
            LoopbackListener *accept_side = listener.get();
            QumaServer server(service, std::move(listener));
            QumaClient client(accept_side->connect());

            cfg.shards = shards;
            JobSpec spec = experiments::allxyJob(cfg);
            std::vector<runtime::JobId> ids = client.submitAll({spec});
            std::mutex mu;
            std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
            auto streamed = client.awaitMany(
                ids, [&](runtime::JobId job, std::uint64_t done,
                         std::uint64_t total) {
                    std::lock_guard<std::mutex> lock(mu);
                    EXPECT_EQ(job, ids[0]);
                    seen.emplace_back(done, total);
                });

            // awaitMany returned, so every queued progress
            // notification was delivered first (FIFO notifier).
            std::lock_guard<std::mutex> lock(mu);
            ASSERT_FALSE(seen.empty())
                << "no progress at shards=" << shards
                << " workers=" << workers;
            std::uint64_t prev = 0;
            for (auto &[done, total] : seen) {
                EXPECT_EQ(total, spec.rounds);
                EXPECT_GE(done, prev) << "progress went backwards";
                EXPECT_LE(done, total);
                prev = done;
            }
            EXPECT_EQ(seen.back().first, spec.rounds)
                << "final frame must report done == total";

            ASSERT_EQ(streamed.size(), 1u);
            EXPECT_EQ(streamed[0].second, localByShards[shards])
                << "progress streaming perturbed the result at "
                << "shards=" << shards << " workers=" << workers;
        }
    }
}

/**
 * The client's request counter reads its link meter (every request is
 * one upload); its reply counter is kept apart because progress
 * pushes are downloads too.
 */
TEST(Loopback, ClientMetricsCountRequestsAndRepliesButNotPushes)
{
    ServiceConfig sc;
    sc.workers = 2;
    sc.progressInterval = std::chrono::milliseconds(0);
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));
    metrics::MetricsRegistry registry;
    QumaClient client(accept_side->connect());
    client.bindMetrics(registry);

    experiments::AllxyConfig cfg;
    cfg.rounds = 32;
    cfg.shards = 4;
    std::vector<runtime::JobId> ids =
        client.submitAll({experiments::allxyJob(cfg)});
    std::atomic<std::size_t> pushes{0};
    client.awaitMany(ids, [&](runtime::JobId, std::uint64_t,
                              std::uint64_t) { ++pushes; });

    const std::string text = registry.renderPrometheus();
    auto sample = [&text](const std::string &name) {
        const std::size_t at = text.find("\n" + name + " ");
        EXPECT_NE(at, std::string::npos) << name;
        return at == std::string::npos
                   ? -1.0
                   : std::stod(text.substr(at + name.size() + 2));
    };
    const double sent = sample("quma_client_requests_sent_total");
    const double replies = sample("quma_client_replies_received_total");
    const core::LinkStats link = client.linkStats();
    EXPECT_GE(sent, 2.0); // the submit and the await
    EXPECT_EQ(sent, static_cast<double>(link.uploads));
    EXPECT_EQ(replies, sent); // one reply per request
    ASSERT_GE(pushes.load(), 1u);
    EXPECT_EQ(static_cast<double>(link.downloads),
              replies + static_cast<double>(pushes.load()));
}

TEST(Loopback, DisconnectMidSweepLeavesOtherConnectionsStreaming)
{
    // Two clients await progress-streaming jobs on one server; one
    // vanishes mid-sweep. Its queued progress pushes must evaporate
    // (weak ConnState, closed outbox) while the surviving
    // connection keeps streaming progress and results undisturbed.
    ServiceConfig sc;
    sc.workers = 2;
    sc.startPaused = true;
    sc.progressInterval = std::chrono::milliseconds(0);
    ExperimentService service(sc);
    auto listener = std::make_unique<LoopbackListener>();
    LoopbackListener *accept_side = listener.get();
    QumaServer server(service, std::move(listener));

    experiments::AllxyConfig cfg;
    cfg.rounds = 24;
    cfg.shards = 2;
    cfg.seed = 0xd15c;

    auto doomed = std::make_unique<QumaClient>(accept_side->connect());
    QumaClient survivor(accept_side->connect());

    std::vector<runtime::JobId> doomedIds =
        doomed->submitAll({experiments::allxyJob(cfg)});
    cfg.seed = 0xa11e;
    std::vector<runtime::JobId> aliveIds =
        survivor.submitAll({experiments::allxyJob(cfg)});

    // Both awaits (and their progress subscriptions) must be
    // registered while the service is still paused.
    std::thread doomedWaiter([&] {
        try {
            doomed->awaitMany(doomedIds,
                              [](runtime::JobId, std::uint64_t,
                                 std::uint64_t) {});
        } catch (const std::exception &) {
            // Killed by the disconnect below.
        }
    });
    std::mutex mu;
    std::size_t aliveProgress = 0;
    std::vector<std::pair<runtime::JobId, JobResult>> aliveResults;
    std::thread aliveWaiter([&] {
        aliveResults = survivor.awaitMany(
            aliveIds, [&](runtime::JobId, std::uint64_t,
                          std::uint64_t) {
                std::lock_guard<std::mutex> lock(mu);
                ++aliveProgress;
            });
    });
    for (int i = 0; i < 1000; ++i) {
        if (server.stats().requestsServed >= 4)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(server.stats().requestsServed, 4u);

    // The doomed connection dies BEFORE any of its jobs ran: its
    // progress subscriptions now target a dead outbox.
    doomed->disconnect();
    doomedWaiter.join();
    doomed.reset();

    service.start();
    aliveWaiter.join();

    ASSERT_EQ(aliveResults.size(), 1u);
    EXPECT_FALSE(aliveResults[0].second.failed());
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_GE(aliveProgress, 1u)
        << "survivor stopped receiving progress";
}

} // namespace
} // namespace quma::net

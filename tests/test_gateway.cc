/**
 * @file
 * Tests of the fleet front door (net/gateway.hh): the acceptance
 * invariant -- a sharded AllXY sweep routed through the gateway
 * across two live backends returns results BIT-IDENTICAL to the
 * direct single-server path -- plus the contracts around it:
 * config-affinity routing keeps one configuration on one backend, a
 * backend that is down at connect time is routed around, losing a
 * backend mid-sweep fails its jobs over with no client-visible
 * difference, drain removes a backend from routing while in-flight
 * work finishes, a full backend queue
 * blocks a submit through the gateway without losing or duplicating
 * a job, a StatsRequest answers with the merged fleet view, and a
 * client's merged trace holds the backends' lifecycle events under
 * the ids and trace the client knows.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "experiments/allxy.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "runtime/service.hh"

namespace quma::net {
namespace {

using runtime::ExperimentService;
using runtime::JobId;
using runtime::JobResult;
using runtime::JobSpec;
using runtime::ServiceConfig;

/** One fleet member: a real server on an ephemeral TCP port. */
struct Backend
{
    ExperimentService service;
    std::uint16_t port = 0;
    std::unique_ptr<QumaServer> server;

    explicit Backend(ServiceConfig sc) : service(sc)
    {
        auto listener = std::make_unique<TcpListener>(0);
        port = listener->port();
        server = std::make_unique<QumaServer>(service,
                                              std::move(listener));
    }
};

std::vector<std::unique_ptr<Backend>>
makeFleet(std::size_t n, ServiceConfig sc = {})
{
    std::vector<std::unique_ptr<Backend>> fleet;
    for (std::size_t i = 0; i < n; ++i)
        fleet.push_back(std::make_unique<Backend>(sc));
    return fleet;
}

std::vector<GatewayBackend>
backendsOf(const std::vector<std::unique_ptr<Backend>> &fleet)
{
    std::vector<GatewayBackend> out;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        GatewayBackend b = tcpBackend("127.0.0.1", fleet[i]->port);
        b.name = "be-" + std::to_string(i);
        out.push_back(std::move(b));
    }
    return out;
}

/** Gateway over `fleet` + its client-facing port. */
std::pair<std::unique_ptr<QumaGateway>, std::uint16_t>
makeGateway(const std::vector<std::unique_ptr<Backend>> &fleet,
            GatewayConfig gc = {})
{
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    auto gw = std::make_unique<QumaGateway>(
        backendsOf(fleet), std::move(listener), gc);
    return {std::move(gw), port};
}

/** The acceptance sweep: sharded AllXY, one spec per error point. */
std::vector<JobSpec>
sweepSpecs(std::size_t points, std::size_t rounds = 16)
{
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < points; ++i) {
        experiments::AllxyConfig cfg;
        cfg.rounds = rounds;
        cfg.shards = 2;
        cfg.amplitudeError =
            0.05 * static_cast<double>(i) /
            static_cast<double>(points > 1 ? points - 1 : 1);
        cfg.seed = 0x5eed + i;
        specs.push_back(experiments::allxyJob(cfg));
    }
    return specs;
}

/**
 * The gateway acks a submit once it is on the wire to its backend,
 * not once the backend queued it: wait until the backends have
 * counted `n` submissions before reading per-backend counts.
 */
void
waitForSubmitted(const std::vector<std::unique_ptr<Backend>> &fleet,
                 std::size_t n)
{
    for (int i = 0; i < 2000; ++i) {
        std::size_t submitted = 0;
        for (const auto &b : fleet)
            submitted += b->service.stats().scheduler.submitted;
        if (submitted >= n)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/**
 * A stream whose Submit sends fail once `broken` is set, while its
 * reader stays blocked in recv: a link that breaks on the send side
 * before the peer's hang-up (if any) has reached the reader.
 */
class SubmitFailingStream final : public ByteStream
{
  public:
    SubmitFailingStream(std::unique_ptr<ByteStream> inner_,
                        std::shared_ptr<std::atomic<bool>> broken_)
        : inner(std::move(inner_)), broken(std::move(broken_))
    {
    }

    void
    sendAll(const std::uint8_t *data, std::size_t size) override
    {
        if (broken->load() && size >= kFrameHeaderBytes &&
            decodeFrameHeaderUnchecked(data).type == MsgType::SubmitRequest)
            throw WireError("injected send failure");
        inner->sendAll(data, size);
    }
    bool
    recvAll(std::uint8_t *data, std::size_t size) override
    {
        return inner->recvAll(data, size);
    }
    bool peerAlive() override { return inner->peerAlive(); }
    void close() override { inner->close(); }

  private:
    std::unique_ptr<ByteStream> inner;
    std::shared_ptr<std::atomic<bool>> broken;
};

/** Await `ids` and return results re-ordered to submission order. */
std::vector<JobResult>
awaitInOrder(QumaClient &client, const std::vector<JobId> &ids)
{
    std::vector<JobResult> byIndex(ids.size());
    for (const auto &[id, result] : client.awaitMany(ids)) {
        for (std::size_t i = 0; i < ids.size(); ++i)
            if (ids[i] == id)
                byIndex[i] = result;
    }
    return byIndex;
}

// --- the acceptance invariant -----------------------------------------------

TEST(Gateway, ShardedSweepThroughTwoBackendsIsBitIdenticalToDirect)
{
    ServiceConfig sc;
    sc.workers = 2;
    std::vector<JobSpec> specs = sweepSpecs(8);

    // Direct: one server, no gateway.
    std::vector<JobResult> direct;
    {
        auto fleet = makeFleet(1, sc);
        QumaClient client("127.0.0.1", fleet[0]->port);
        std::vector<JobId> ids = client.submitAll(specs);
        direct = awaitInOrder(client, ids);
    }

    // Fleet: the same sweep through a gateway over two backends.
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);
    std::vector<JobId> ids = client.submitAll(specs);
    std::vector<JobResult> routed = awaitInOrder(client, ids);

    ASSERT_EQ(routed.size(), direct.size());
    for (std::size_t i = 0; i < routed.size(); ++i) {
        ASSERT_FALSE(routed[i].failed()) << routed[i].error;
        EXPECT_EQ(routed[i], direct[i])
            << "point " << i << " diverged through the gateway";
    }

    // Both backends actually served the sweep (distinct machine
    // configs spread under affinity hashing with 8 points and 2
    // backends; all-on-one would be a (1/2)^7 fluke, excluded by
    // the fixed seeds).
    std::size_t served = 0;
    for (const auto &b : fleet)
        if (b->service.stats().scheduler.submitted > 0)
            ++served;
    EXPECT_EQ(served, 2u);
    EXPECT_EQ(gw->stats().resultsForwarded, specs.size());
    EXPECT_EQ(gw->stats().jobsInFlight, 0u);
}

// --- routing ----------------------------------------------------------------

TEST(Gateway, ConfigAffinityKeepsOneConfigOnOneBackend)
{
    ServiceConfig sc;
    sc.workers = 1;
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);

    // Ten jobs, IDENTICAL machine config (seeds differ -- configKey
    // excludes them): affinity must land every one on the same
    // backend, where the program cache and pool shard are warm.
    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < 10; ++i) {
        cfg.seed = 0x900d + i;
        specs.push_back(experiments::allxyJob(cfg));
    }
    std::vector<JobId> ids = client.submitAll(specs);
    for (JobResult &r : awaitInOrder(client, ids))
        ASSERT_FALSE(r.failed());

    std::vector<std::size_t> counts;
    for (const auto &b : fleet)
        counts.push_back(b->service.stats().scheduler.submitted);
    EXPECT_TRUE((counts[0] == 10 && counts[1] == 0) ||
                (counts[0] == 0 && counts[1] == 10))
        << "config affinity split one config across backends: "
        << counts[0] << "/" << counts[1];
}

TEST(Gateway, BackendDownAtConnectTimeIsRoutedAround)
{
    ServiceConfig sc;
    sc.workers = 1;
    auto fleet = makeFleet(1, sc);

    // One live backend plus one pointing at a port nothing listens
    // on (bound then immediately closed, so it is really dead).
    std::uint16_t deadPort;
    {
        TcpListener probe(0);
        deadPort = probe.port();
    }
    std::vector<GatewayBackend> backends = backendsOf(fleet);
    GatewayBackend dead = tcpBackend("127.0.0.1", deadPort);
    dead.name = "dead";
    backends.push_back(std::move(dead));

    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaGateway gw(std::move(backends), std::move(listener));

    QumaGateway::Stats boot = gw.stats();
    ASSERT_EQ(boot.backends.size(), 2u);
    EXPECT_TRUE(boot.backends[0].healthy);
    EXPECT_FALSE(boot.backends[1].healthy)
        << "a dead backend must be unhealthy before the first client";

    // Every job lands on the live backend, none error.
    QumaClient client("127.0.0.1", port);
    std::vector<JobId> ids = client.submitAll(sweepSpecs(6, 4));
    for (JobResult &r : awaitInOrder(client, ids))
        ASSERT_FALSE(r.failed());
    EXPECT_EQ(fleet[0]->service.stats().scheduler.submitted, 6u);
}

TEST(Gateway, NoHealthyBackendAnswersCleanErrors)
{
    std::uint16_t deadPort;
    {
        TcpListener probe(0);
        deadPort = probe.port();
    }
    std::vector<GatewayBackend> backends;
    backends.push_back(tcpBackend("127.0.0.1", deadPort));
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaGateway gw(std::move(backends), std::move(listener));

    // Raw frames: a Submit gets ErrorReply{Internal}, a TrySubmit
    // gets a clean rejection -- and the connection stays serviceable
    // afterwards (a Stats round trip still answers).
    std::unique_ptr<ByteStream> raw = tcpConnect("127.0.0.1", port);
    Writer submit;
    encodeJobSpec(submit, sweepSpecs(1, 4)[0]);
    encodeTraceContext(submit, TraceContext{});
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::SubmitRequest, 1, submit);
    raw->sendAll(frame.data(), frame.size());
    {
        std::uint8_t header[kFrameHeaderBytes];
        ASSERT_TRUE(raw->recvAll(header, sizeof(header)));
        FrameHeader fh = decodeFrameHeader(header);
        ASSERT_EQ(fh.type, MsgType::ErrorReply);
        EXPECT_EQ(fh.requestId, 1u);
        std::vector<std::uint8_t> body(fh.length);
        ASSERT_TRUE(raw->recvAll(body.data(), body.size()));
        Reader r(body);
        ErrorFrame err = decodeErrorFrame(r);
        EXPECT_EQ(err.code, WireErrorCode::Internal);
    }
    frame = sealFrame(MsgType::TrySubmitRequest, 2, submit);
    raw->sendAll(frame.data(), frame.size());
    {
        std::uint8_t header[kFrameHeaderBytes];
        ASSERT_TRUE(raw->recvAll(header, sizeof(header)));
        FrameHeader fh = decodeFrameHeader(header);
        ASSERT_EQ(fh.type, MsgType::TrySubmitReply);
        std::vector<std::uint8_t> body(fh.length);
        ASSERT_TRUE(raw->recvAll(body.data(), body.size()));
        Reader r(body);
        EXPECT_FALSE(r.boolean());
        EXPECT_EQ(r.u64(), 0u);
        r.expectEnd();
    }
    EXPECT_GE(gw.stats().jobsShed, 1u);
}

// --- failover ---------------------------------------------------------------

TEST(Gateway, BackendLossMidSweepFailsOverBitIdentically)
{
    std::vector<JobSpec> specs = sweepSpecs(8);

    // The reference run, direct against one server.
    ServiceConfig direct_sc;
    direct_sc.workers = 2;
    std::vector<JobResult> direct;
    {
        auto ref = makeFleet(1, direct_sc);
        QumaClient client("127.0.0.1", ref[0]->port);
        direct = awaitInOrder(client, client.submitAll(specs));
    }

    // The chaos run: two PAUSED backends, so every job is acked and
    // queued but none has completed when the victim dies.
    ServiceConfig sc;
    sc.workers = 2;
    sc.startPaused = true;
    auto fleet = makeFleet(2, sc);
    GatewayConfig gc;
    gc.healthInterval = std::chrono::milliseconds(100);
    auto [gw, port] = makeGateway(fleet, gc);

    QumaClient client("127.0.0.1", port);
    std::vector<JobId> ids = client.submitAll(specs);

    // Awaits must be in flight when the backend dies: the failover
    // has to re-issue them against the resubmitted jobs.
    std::vector<JobResult> routed;
    std::thread waiter(
        [&] { routed = awaitInOrder(client, ids); });
    // Both backends hold queued jobs (affinity spread, as in the
    // acceptance test); wait until every submit was acked.
    waitForSubmitted(fleet, specs.size());
    ASSERT_EQ(gw->stats().jobsInFlight, specs.size());

    // Kill the backend holding the larger share (its listener and
    // every connection drop, like a kill -9 of the process).
    std::size_t victim =
        fleet[0]->service.stats().scheduler.submitted >=
                fleet[1]->service.stats().scheduler.submitted
            ? 0
            : 1;
    const std::size_t victimJobs =
        fleet[victim]->service.stats().scheduler.submitted;
    ASSERT_GT(victimJobs, 0u);
    fleet[victim]->server->stop();

    // Unpause the survivor; failover resubmission + re-issued awaits
    // must deliver EVERY result.
    fleet[1 - victim]->service.start();
    waiter.join();

    ASSERT_EQ(routed.size(), direct.size());
    for (std::size_t i = 0; i < routed.size(); ++i) {
        ASSERT_FALSE(routed[i].failed())
            << "point " << i << ": " << routed[i].error;
        EXPECT_EQ(routed[i], direct[i])
            << "failover changed point " << i;
    }
    QumaGateway::Stats s = gw->stats();
    EXPECT_GE(s.jobsResubmitted, victimJobs)
        << "every victim job must have been re-homed";
    EXPECT_GE(s.failovers, 1u);
    EXPECT_EQ(s.jobsInFlight, 0u);
    EXPECT_EQ(
        fleet[1 - victim]->service.stats().scheduler.completed,
        specs.size())
        << "the survivor must have run the whole sweep";
}

TEST(Gateway, SendFailureToABackendFailsItsJobsOverBitIdentically)
{
    ServiceConfig sc;
    sc.workers = 2;
    std::vector<JobSpec> specs = sweepSpecs(8);
    std::vector<JobResult> direct;
    {
        auto ref = makeFleet(1, sc);
        QumaClient client("127.0.0.1", ref[0]->port);
        direct = awaitInOrder(client, client.submitAll(specs));
    }

    // be-0's links fail every Submit send; its reader never sees a
    // hang-up, and its health probes keep answering.
    auto fleet = makeFleet(2, sc);
    std::vector<GatewayBackend> backends = backendsOf(fleet);
    auto broken = std::make_shared<std::atomic<bool>>(false);
    auto connect = backends[0].connect;
    backends[0].connect = [connect, broken] {
        return std::make_unique<SubmitFailingStream>(connect(), broken);
    };
    auto listener = std::make_unique<TcpListener>(0);
    const std::uint16_t port = listener->port();
    QumaGateway gw(std::move(backends), std::move(listener));
    broken->store(true);

    // A failed send kills the link, so its jobs fail over to be-1
    // instead of being reported lost.
    QumaClient client("127.0.0.1", port);
    std::vector<JobResult> routed =
        awaitInOrder(client, client.submitAll(specs));
    ASSERT_EQ(routed.size(), direct.size());
    for (std::size_t i = 0; i < routed.size(); ++i) {
        ASSERT_FALSE(routed[i].failed())
            << "point " << i << ": " << routed[i].error;
        EXPECT_EQ(routed[i], direct[i]) << "failover changed point " << i;
    }
    QumaGateway::Stats s = gw.stats();
    EXPECT_GE(s.failovers, 1u);
    EXPECT_GE(s.jobsResubmitted, 1u)
        << "affinity sends part of the sweep to be-0";
    EXPECT_EQ(s.jobsInFlight, 0u);
    EXPECT_EQ(fleet[0]->service.stats().scheduler.submitted, 0u);
    EXPECT_EQ(fleet[1]->service.stats().scheduler.completed, specs.size());
}

// --- drain ------------------------------------------------------------------

TEST(Gateway, DrainRemovesFromRoutingWhileInFlightFinishes)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.startPaused = true;
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);

    // One config -> one backend; the whole first batch is queued
    // (paused) on the affinity winner.
    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    std::vector<JobSpec> first;
    for (std::size_t i = 0; i < 4; ++i) {
        cfg.seed = 0xaaa + i;
        first.push_back(experiments::allxyJob(cfg));
    }
    std::vector<JobId> firstIds = client.submitAll(first);
    waitForSubmitted(fleet, 4);
    std::size_t winner =
        fleet[0]->service.stats().scheduler.submitted > 0 ? 0 : 1;
    ASSERT_EQ(fleet[winner]->service.stats().scheduler.submitted, 4u);

    // Drain the winner: the SAME config must now route elsewhere,
    // while its queued jobs stay put.
    ASSERT_TRUE(gw->drain("be-" + std::to_string(winner)));
    EXPECT_FALSE(gw->drain("no-such-backend"));
    std::vector<JobSpec> second;
    for (std::size_t i = 0; i < 4; ++i) {
        cfg.seed = 0xbbb + i;
        second.push_back(experiments::allxyJob(cfg));
    }
    std::vector<JobId> secondIds = client.submitAll(second);
    waitForSubmitted(fleet, 8);
    EXPECT_EQ(fleet[1 - winner]->service.stats().scheduler.submitted,
              4u)
        << "a drained backend must not receive new jobs";

    // Unpause both: the drained backend finishes its in-flight work
    // -- drain is not failover, nothing is resubmitted.
    fleet[0]->service.start();
    fleet[1]->service.start();
    for (JobResult &r : awaitInOrder(client, firstIds))
        ASSERT_FALSE(r.failed());
    for (JobResult &r : awaitInOrder(client, secondIds))
        ASSERT_FALSE(r.failed());
    EXPECT_EQ(gw->stats().jobsResubmitted, 0u);

    // Undrain: the config flows back to its affinity winner.
    ASSERT_TRUE(gw->undrain("be-" + std::to_string(winner)));
    cfg.seed = 0xccc;
    std::vector<JobId> third =
        client.submitAll({experiments::allxyJob(cfg)});
    for (JobResult &r : awaitInOrder(client, third))
        ASSERT_FALSE(r.failed());
    EXPECT_EQ(fleet[winner]->service.stats().scheduler.submitted, 5u);
}

// --- progress ---------------------------------------------------------------

TEST(Gateway, ProgressPushesReachTheClientUnderGatewayIds)
{
    ServiceConfig sc;
    sc.workers = 2;
    sc.progressInterval = std::chrono::milliseconds(0);
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);

    std::vector<JobId> ids = client.submitAll(sweepSpecs(4, 8));
    std::mutex mu;
    std::map<JobId, std::uint64_t> lastDone;
    auto results = client.awaitMany(
        ids, [&](JobId job, std::uint64_t done, std::uint64_t total) {
            std::lock_guard<std::mutex> lock(mu);
            EXPECT_EQ(total, 8u);
            EXPECT_GE(done, lastDone[job]) << "progress went backwards";
            lastDone[job] = done;
        });
    for (const auto &[id, r] : results)
        ASSERT_FALSE(r.failed()) << r.error;
    // Sharded jobs push a forced done == total ahead of the result,
    // re-keyed to the id the client holds.
    for (JobId id : ids)
        EXPECT_EQ(lastDone[id], 8u) << "gateway job " << id;
    EXPECT_GE(gw->stats().progressForwarded, ids.size());
}

// --- backpressure -----------------------------------------------------------

TEST(Gateway, FullBackendQueueBlocksSubmitUntilSpaceFrees)
{
    // One paused backend whose queue holds 2 jobs, reached -- like the
    // gateway itself -- over in-process pipes that buffer less than
    // one (~3.7 KiB) spec frame:
    // once the queue is full the backend stops reading, the gateway's
    // send to it blocks, the gateway stops reading the client, and
    // the client's submits block. Nothing is dropped on the way.
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 2;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto backendListener = std::make_unique<LoopbackListener>(1024);
    LoopbackListener *backendSide = backendListener.get();
    QumaServer backend(service, std::move(backendListener));
    GatewayBackend member;
    member.name = "be-0";
    member.connect = [backendSide] { return backendSide->connect(); };

    auto frontListener = std::make_unique<LoopbackListener>(1024);
    LoopbackListener *frontSide = frontListener.get();
    std::vector<GatewayBackend> members;
    members.push_back(std::move(member));
    QumaGateway gw(std::move(members), std::move(frontListener));
    QumaClient client(frontSide->connect());

    // One config, so affinity is moot; 12 jobs against room for 2.
    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < 12; ++i) {
        cfg.seed = 0xf10 + i;
        specs.push_back(experiments::allxyJob(cfg));
    }
    std::atomic<bool> submitted{false};
    std::vector<JobId> ids;
    std::thread submitter([&] {
        ids = client.submitAll(specs);
        submitted.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_FALSE(submitted.load())
        << "a submit through the gateway must block on a full queue";
    EXPECT_LE(service.stats().scheduler.submitted, sc.queueCapacity);

    // Space frees: every submit completes, and every job runs once.
    service.start();
    submitter.join();
    ASSERT_EQ(ids.size(), specs.size());
    std::vector<JobResult> results = awaitInOrder(client, ids);
    for (std::size_t i = 0; i < results.size(); ++i)
        ASSERT_FALSE(results[i].failed())
            << "job " << i << ": " << results[i].error;
    EXPECT_EQ(service.stats().scheduler.submitted, specs.size())
        << "a job was lost or duplicated on the way";
    EXPECT_EQ(service.stats().scheduler.completed, specs.size());
    QumaGateway::Stats s = gw.stats();
    EXPECT_EQ(s.resultsForwarded, specs.size());
    EXPECT_EQ(s.jobsInFlight, 0u);
    EXPECT_EQ(s.jobsResubmitted, 0u);
    EXPECT_EQ(s.errorsReturned, 0u);
}

TEST(Gateway, HealthOfOtherBackendsKeepsUpdatingWhileOneIsFull)
{
    // be-a: paused, queue of 2, behind 1 KiB pipes (as above), so a
    // submit to it blocks on its link. be-b: an ordinary backend,
    // drained so the whole batch routes to be-a.
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 2;
    sc.startPaused = true;
    ExperimentService service(sc);
    auto backendListener = std::make_unique<LoopbackListener>(1024);
    LoopbackListener *backendSide = backendListener.get();
    QumaServer backendA(service, std::move(backendListener));
    auto other = makeFleet(1);
    std::vector<GatewayBackend> members(1);
    members[0].name = "be-a";
    members[0].connect = [backendSide] { return backendSide->connect(); };
    members.push_back(tcpBackend("127.0.0.1", other[0]->port));
    members[1].name = "be-b";

    auto frontListener = std::make_unique<LoopbackListener>(1024);
    LoopbackListener *frontSide = frontListener.get();
    GatewayConfig gc;
    gc.healthInterval = std::chrono::milliseconds(50);
    QumaGateway gw(std::move(members), std::move(frontListener), gc);
    ASSERT_TRUE(gw.drain("be-b"));
    QumaClient client(frontSide->connect());

    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < 12; ++i) {
        cfg.seed = 0xb10c + i;
        specs.push_back(experiments::allxyJob(cfg));
    }
    std::atomic<bool> submitted{false};
    std::vector<JobId> ids;
    std::thread submitter([&] {
        ids = client.submitAll(specs);
        submitted.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_FALSE(submitted.load()) << "be-a's queue must be full";

    // With be-a's link blocked, be-b going down is still noticed...
    other[0]->server->stop();
    bool noticed = false;
    for (int i = 0; i < 500 && !noticed; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        noticed = !gw.stats().backends[1].healthy;
    }
    EXPECT_TRUE(noticed) << "be-b's health stopped updating";
    EXPECT_TRUE(gw.stats().backends[0].healthy);
    // ... and another client's StatsRequest is answered.
    QumaClient second(frontSide->connect());
    std::atomic<bool> answered{false};
    std::thread statsCaller([&] {
        second.stats();
        answered.store(true);
    });
    for (int i = 0; i < 500 && !answered.load(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(answered.load()) << "stats waited behind be-a's submit";
    EXPECT_FALSE(submitted.load());

    service.start();
    submitter.join();
    statsCaller.join();
    for (JobResult &r : awaitInOrder(client, ids))
        ASSERT_FALSE(r.failed()) << r.error;
    EXPECT_EQ(service.stats().scheduler.completed, specs.size());
}

// --- aggregation ------------------------------------------------------------

TEST(Gateway, StatsRequestAnswersWithMergedFleetView)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 64;
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);

    std::vector<JobId> ids = client.submitAll(sweepSpecs(8, 4));
    for (JobResult &r : awaitInOrder(client, ids))
        ASSERT_FALSE(r.failed());

    StatsFrame fleetView = client.stats();
    EXPECT_EQ(fleetView.scheduler.submitted, 8u)
        << "fleet submitted must be the sum over backends";
    EXPECT_EQ(fleetView.scheduler.completed, 8u);
    // Capacities sum; each backend contributes its own queue.
    std::size_t capacity = 0;
    for (const auto &b : fleet)
        capacity += b->service.stats().effectiveQueueCapacity;
    EXPECT_EQ(fleetView.effectiveQueueCapacity, capacity);

    // And the gateway's own metrics bind/render cleanly, with the
    // per-backend identity labels.
    metrics::MetricsRegistry registry;
    gw->bindMetrics(registry);
    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("quma_gateway_results_forwarded_total 8"),
              std::string::npos)
        << text.substr(0, 512);
    EXPECT_NE(text.find("quma_fleet_jobs_completed_total 8"),
              std::string::npos);
    EXPECT_NE(
        text.find("quma_gateway_backend_healthy{backend=\"be-0\"} 1"),
        std::string::npos);
}

// --- tracing ----------------------------------------------------------------

TEST(Gateway, MergedTraceThroughTwoBackendsCoversEveryJob)
{
    ServiceConfig sc;
    sc.workers = 2;
    auto fleet = makeFleet(2, sc);
    for (auto &b : fleet)
        b->service.trace().enable();
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);

    std::vector<JobId> ids = client.submitAll(sweepSpecs(8, 4));
    for (JobResult &r : awaitInOrder(client, ids))
        ASSERT_FALSE(r.failed());
    std::size_t served = 0;
    for (const auto &b : fleet)
        if (b->service.stats().scheduler.submitted > 0)
            ++served;
    ASSERT_EQ(served, 2u) << "the sweep must span both backends";

    // The server half (pid 1) is the backends' merged dump: every
    // job's lifecycle, filed under the GATEWAY id the client saw and
    // the client's own trace id.
    const std::string trace = client.mergedChromeTrace();
    char traceId[20];
    std::snprintf(traceId, sizeof traceId, "%016llx",
                  static_cast<unsigned long long>(client.traceId()));
    for (JobId id : ids) {
        const std::string job = std::to_string(id);
        // Instant events render as {"name":..,"ph":"i","ts":T<tail>
        // with only the timestamp T varying.
        const std::string tail = ",\"pid\":1,\"tid\":" + job +
                                 ",\"s\":\"t\",\"args\":{\"job\":" + job +
                                 ",\"shard\":0,\"traceId\":\"" + traceId +
                                 "\"}}";
        for (const char *phase : {"submitted", "finished"}) {
            const std::string head = std::string("{\"name\":\"") + phase +
                                     "\",\"ph\":\"i\",\"ts\":";
            bool found = false;
            for (std::size_t at = trace.find(head);
                 at != std::string::npos && !found;
                 at = trace.find(head, at + 1)) {
                const std::size_t end = trace.find("}}", at);
                const std::size_t tailAt = end + 2 - tail.size();
                found = end != std::string::npos && tailAt > at &&
                        trace.compare(tailAt, tail.size(), tail) == 0;
            }
            EXPECT_TRUE(found) << "no '" << phase << "' event for gateway job "
                               << id << " under the client's trace";
        }
    }
}

// --- job tracking -----------------------------------------------------------

TEST(FleetBackend, RetentionForgetsOnlyFinishedJobs)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.startPaused = true;
    auto fleet = makeFleet(1, sc);
    // Two finished jobs remembered at most.
    FleetBackend backend(backendsOf(fleet), std::chrono::milliseconds(500),
                         2);

    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    cfg.seed = 0x7e7;
    std::vector<JobId> ids{backend.submit(experiments::allxyJob(cfg))};
    auto first = std::make_shared<std::promise<JobResult>>();
    std::future<JobResult> firstResult = first->get_future();
    backend.subscribe(ids[0], [first](JobId,
                                      std::shared_ptr<const JobResult> r) {
        first->set_value(*r);
    });
    // Newer jobs while the awaited one is unfinished: it must stay
    // tracked, or its waiter is never answered.
    for (std::size_t i = 1; i < 5; ++i) {
        cfg.seed = 0x7e7 + i;
        ids.push_back(backend.submit(experiments::allxyJob(cfg)));
    }
    EXPECT_EQ(backend.counters().jobsInFlight, ids.size());

    fleet[0]->service.start();
    ASSERT_EQ(firstResult.wait_for(std::chrono::seconds(20)),
              std::future_status::ready)
        << "the oldest job's await was dropped";
    EXPECT_FALSE(firstResult.get().failed());
    for (std::size_t i = 1; i < ids.size(); ++i)
        ASSERT_FALSE(backend.await(ids[i]).failed());

    // Finished in id order: only the last two are still known.
    EXPECT_EQ(backend.counters().jobsInFlight, 0u);
    EXPECT_THROW(backend.status(ids[2]), FatalError);
    EXPECT_EQ(backend.status(ids[3]), runtime::JobStatus::Done);
    EXPECT_EQ(backend.status(ids[4]), runtime::JobStatus::Done);
}

} // namespace
} // namespace quma::net

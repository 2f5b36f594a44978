#include "net/wire.hh"

#include <bit>

namespace quma::net {

// --- primitives -------------------------------------------------------------

void
Writer::u16(std::uint16_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
Writer::u32(std::uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        buf.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
Writer::u64(std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        buf.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
Writer::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
Writer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Writer::str(const std::string &s)
{
    if (s.size() > kMaxPayloadBytes)
        throw WireError("string too large for a wire frame");
    u32(static_cast<std::uint32_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
}

void
Writer::vecF64(const std::vector<double> &v)
{
    if (v.size() > kMaxPayloadBytes / 8)
        throw WireError("vector too large for a wire frame");
    u32(static_cast<std::uint32_t>(v.size()));
    for (double x : v)
        f64(x);
}

void
Writer::vecU64(const std::vector<std::size_t> &v)
{
    if (v.size() > kMaxPayloadBytes / 8)
        throw WireError("vector too large for a wire frame");
    u32(static_cast<std::uint32_t>(v.size()));
    for (std::size_t x : v)
        u64(x);
}

void
Reader::need(std::size_t bytes) const
{
    if (n - at < bytes)
        throw WireError("truncated payload: wanted " +
                        std::to_string(bytes) + " bytes, " +
                        std::to_string(n - at) + " left");
}

std::uint8_t
Reader::u8()
{
    need(1);
    return p[at++];
}

std::uint16_t
Reader::u16()
{
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        p[at] | (static_cast<std::uint16_t>(p[at + 1]) << 8));
    at += 2;
    return v;
}

std::uint32_t
Reader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[at + i]) << (8 * i);
    at += 4;
    return v;
}

std::uint64_t
Reader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
    at += 8;
    return v;
}

std::int64_t
Reader::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
Reader::f64()
{
    return std::bit_cast<double>(u64());
}

bool
Reader::boolean()
{
    std::uint8_t v = u8();
    if (v > 1)
        throw WireError("malformed boolean byte");
    return v == 1;
}

std::string
Reader::str()
{
    std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char *>(p + at), len);
    at += len;
    return s;
}

std::vector<double>
Reader::vecF64()
{
    std::uint32_t len = u32();
    // Validate the claimed element count against the bytes actually
    // present BEFORE allocating, so a malicious length cannot force a
    // huge allocation out of a tiny frame.
    need(static_cast<std::size_t>(len) * 8);
    std::vector<double> v;
    v.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i)
        v.push_back(f64());
    return v;
}

std::vector<std::size_t>
Reader::vecU64()
{
    std::uint32_t len = u32();
    need(static_cast<std::size_t>(len) * 8);
    std::vector<std::size_t> v;
    v.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i)
        v.push_back(static_cast<std::size_t>(u64()));
    return v;
}

void
Reader::expectEnd() const
{
    if (at != n)
        throw WireError("payload has " + std::to_string(n - at) +
                        " trailing bytes");
}

// --- framing ----------------------------------------------------------------

std::vector<std::uint8_t>
sealFrame(MsgType type, std::uint64_t request_id,
          const Writer &payload)
{
    const std::vector<std::uint8_t> &body = payload.bytes();
    if (body.size() > kMaxPayloadBytes)
        throw WireError("payload exceeds the frame size cap");
    Writer header;
    header.u32(kWireMagic);
    header.u16(kWireVersion);
    header.u16(static_cast<std::uint16_t>(type));
    header.u32(static_cast<std::uint32_t>(body.size()));
    header.u64(request_id);
    std::vector<std::uint8_t> frame = header.bytes();
    frame.insert(frame.end(), body.begin(), body.end());
    return frame;
}

FrameKind
frameKind(MsgType type)
{
    switch (type) {
    case MsgType::SubmitRequest:
    case MsgType::TrySubmitRequest:
    case MsgType::StatusRequest:
    case MsgType::PollRequest:
    case MsgType::AwaitRequest:
    case MsgType::StatsRequest:
    case MsgType::CancelRequest:
    case MsgType::ClockSyncRequest:
    case MsgType::TraceDumpRequest:
        return FrameKind::Request;
    case MsgType::SubmitReply:
    case MsgType::TrySubmitReply:
    case MsgType::StatusReply:
    case MsgType::PollReply:
    case MsgType::AwaitReply:
    case MsgType::StatsReply:
    case MsgType::CancelReply:
    case MsgType::ClockSyncReply:
    case MsgType::TraceDumpReply:
    case MsgType::ErrorReply:
        return FrameKind::Reply;
    case MsgType::ProgressFrame:
        return FrameKind::Push;
    }
    return FrameKind::Unknown;
}

std::optional<MsgType>
replyTypeFor(MsgType request)
{
    if (frameKind(request) != FrameKind::Request)
        return std::nullopt;
    // Requests occupy [1, 63]; a reply is its request's type + 64.
    return static_cast<MsgType>(static_cast<std::uint16_t>(request) + 64);
}

void
checkFramePrefix(const std::uint8_t *prefix)
{
    Reader r(prefix, kFrameHeaderPrefixBytes);
    if (r.u32() != kWireMagic)
        throw WireError("bad frame magic");
    std::uint16_t version = r.u16();
    if (version != kWireVersion)
        throw WireVersionError("unsupported wire version " +
                                   std::to_string(version) +
                                   " (speaking " +
                                   std::to_string(kWireVersion) + ")",
                               version);
}

FrameHeader
decodeFrameHeaderUnchecked(const std::uint8_t *header)
{
    Reader r(header + 6, kFrameHeaderBytes - 6);
    std::uint16_t type = r.u16();
    if (frameKind(static_cast<MsgType>(type)) == FrameKind::Unknown)
        throw WireError("unknown frame type " + std::to_string(type));
    std::uint32_t length = r.u32();
    if (length > kMaxPayloadBytes)
        throw WireError("frame payload length " +
                        std::to_string(length) +
                        " exceeds the size cap");
    std::uint64_t requestId = r.u64();
    return FrameHeader{static_cast<MsgType>(type), length, requestId};
}

FrameHeader
decodeFrameHeader(const std::uint8_t *header)
{
    checkFramePrefix(header);
    return decodeFrameHeaderUnchecked(header);
}

// --- machine configuration --------------------------------------------------

void
encodeMachineConfig(Writer &w, const core::MachineConfig &mc)
{
    w.u32(static_cast<std::uint32_t>(mc.qubits.size()));
    for (const auto &q : mc.qubits) {
        w.f64(q.freqHz);
        w.f64(q.resonatorHz);
        w.f64(q.t1Ns);
        w.f64(q.t2Ns);
        w.f64(q.quasiStaticDetuningSigmaHz);
        w.f64(q.rabiRadPerAmpNs);
        w.f64(q.readout.c0.real());
        w.f64(q.readout.c0.imag());
        w.f64(q.readout.c1.real());
        w.f64(q.readout.c1.imag());
        w.f64(q.readout.noiseSigma);
        w.f64(q.readout.ifHz);
        w.f64(q.readout.adcRateHz);
    }
    w.u32(mc.numAwgs);
    w.u32(static_cast<std::uint32_t>(mc.driveAwg.size()));
    for (unsigned a : mc.driveAwg)
        w.u32(a);
    w.f64(mc.ssbHz);
    w.f64(mc.pulseNs);
    w.u64(mc.gateWaitCycles);
    w.f64(mc.amplitudeError);
    w.f64(mc.carrierDetuningHz);
    w.u64(mc.uopDelayCycles);
    w.u64(mc.ctpgDelayCycles);
    w.u64(mc.mduLatencyCycles);
    w.u64(mc.msmtCycles);
    w.i64(mc.msmtPathDelayCycles);
    w.i64(mc.czDurationNs);
    w.f64(mc.msmtCarrierHz);
    w.u32(mc.exec.issueWidth);
    w.boolean(mc.exec.stallInjection);
    w.f64(mc.exec.stallProbability);
    w.u32(mc.exec.maxStallCycles);
    w.u64(mc.exec.seed);
    w.u64(mc.exec.dataMemoryWords);
    w.u64(mc.timing.timingQueueCapacity);
    w.u64(mc.timing.pulseQueueCapacity);
    w.u64(mc.timing.mpgQueueCapacity);
    w.u64(mc.timing.mdQueueCapacity);
    w.u32(mc.timing.numPulseQueues);
    w.u32(mc.timing.numMdQueues);
    w.u64(mc.qmbDepth);
    w.u32(mc.qmbDrainRate);
    w.u64(mc.chipSeed);
    w.boolean(mc.traceEnabled);
}

core::MachineConfig
decodeMachineConfig(Reader &r)
{
    core::MachineConfig mc;
    std::uint32_t nq = r.u32();
    // 13 doubles per qubit entry: size-check the claim up front.
    if (static_cast<std::size_t>(nq) * 13 * 8 > r.remaining())
        throw WireError("qubit list larger than its frame");
    mc.qubits.clear();
    mc.qubits.reserve(nq);
    for (std::uint32_t i = 0; i < nq; ++i) {
        qsim::TransmonParams q;
        q.freqHz = r.f64();
        q.resonatorHz = r.f64();
        q.t1Ns = r.f64();
        q.t2Ns = r.f64();
        q.quasiStaticDetuningSigmaHz = r.f64();
        q.rabiRadPerAmpNs = r.f64();
        double c0re = r.f64();
        double c0im = r.f64();
        q.readout.c0 = {c0re, c0im};
        double c1re = r.f64();
        double c1im = r.f64();
        q.readout.c1 = {c1re, c1im};
        q.readout.noiseSigma = r.f64();
        q.readout.ifHz = r.f64();
        q.readout.adcRateHz = r.f64();
        mc.qubits.push_back(q);
    }
    mc.numAwgs = r.u32();
    std::uint32_t nd = r.u32();
    if (static_cast<std::size_t>(nd) * 4 > r.remaining())
        throw WireError("driveAwg list larger than its frame");
    mc.driveAwg.clear();
    mc.driveAwg.reserve(nd);
    for (std::uint32_t i = 0; i < nd; ++i)
        mc.driveAwg.push_back(r.u32());
    mc.ssbHz = r.f64();
    mc.pulseNs = r.f64();
    mc.gateWaitCycles = r.u64();
    mc.amplitudeError = r.f64();
    mc.carrierDetuningHz = r.f64();
    mc.uopDelayCycles = r.u64();
    mc.ctpgDelayCycles = r.u64();
    mc.mduLatencyCycles = r.u64();
    mc.msmtCycles = r.u64();
    mc.msmtPathDelayCycles = r.i64();
    mc.czDurationNs = r.i64();
    mc.msmtCarrierHz = r.f64();
    mc.exec.issueWidth = r.u32();
    mc.exec.stallInjection = r.boolean();
    mc.exec.stallProbability = r.f64();
    mc.exec.maxStallCycles = r.u32();
    mc.exec.seed = r.u64();
    mc.exec.dataMemoryWords = r.u64();
    mc.timing.timingQueueCapacity = r.u64();
    mc.timing.pulseQueueCapacity = r.u64();
    mc.timing.mpgQueueCapacity = r.u64();
    mc.timing.mdQueueCapacity = r.u64();
    mc.timing.numPulseQueues = r.u32();
    mc.timing.numMdQueues = r.u32();
    mc.qmbDepth = r.u64();
    mc.qmbDrainRate = r.u32();
    mc.chipSeed = r.u64();
    mc.traceEnabled = r.boolean();
    return mc;
}

// --- job spec ---------------------------------------------------------------

void
encodeJobSpec(Writer &w, const runtime::JobSpec &spec)
{
    if (spec.program)
        throw WireError("remote jobs travel as assembly source; "
                        "pre-assembled programs are host-local");
    w.str(spec.name);
    w.str(spec.assembly);
    encodeMachineConfig(w, spec.machine);
    w.u64(spec.bins);
    w.u64(spec.seed);
    w.u64(spec.maxCycles);
    w.u64(spec.rounds);
    w.u64(spec.shards);
    w.u64(spec.minRoundsPerShard);
    w.u8(static_cast<std::uint8_t>(spec.priority));
}

runtime::JobSpec
decodeJobSpec(Reader &r)
{
    runtime::JobSpec spec;
    spec.name = r.str();
    spec.assembly = r.str();
    spec.machine = decodeMachineConfig(r);
    spec.bins = static_cast<std::size_t>(r.u64());
    spec.seed = r.u64();
    spec.maxCycles = r.u64();
    spec.rounds = static_cast<std::size_t>(r.u64());
    spec.shards = static_cast<std::size_t>(r.u64());
    spec.minRoundsPerShard = static_cast<std::size_t>(r.u64());
    if (spec.bins > kMaxWireBins)
        throw WireError("job bins " + std::to_string(spec.bins) +
                        " exceed the wire cap");
    if (spec.rounds > kMaxWireRounds)
        throw WireError("job rounds " + std::to_string(spec.rounds) +
                        " exceed the wire cap");
    if (spec.shards > kMaxWireShards)
        throw WireError("job shards " + std::to_string(spec.shards) +
                        " exceed the wire cap");
    if (spec.rounds > 0 && spec.bins > 0 &&
        spec.rounds > kMaxWireRoundBins / spec.bins)
        throw WireError("job rounds x bins exceed the wire cap");
    std::uint8_t prio = r.u8();
    if (prio > static_cast<std::uint8_t>(runtime::JobPriority::High))
        throw WireError("unknown job priority class " +
                        std::to_string(prio));
    spec.priority = static_cast<runtime::JobPriority>(prio);
    return spec;
}

// --- job result -------------------------------------------------------------

void
encodeJobResult(Writer &w, const runtime::JobResult &result)
{
    w.u64(result.run.cyclesRun);
    w.boolean(result.run.halted);
    w.u64(result.run.violations.latePoints);
    w.u64(result.run.violations.staleEvents);
    w.u64(result.run.violations.totalLateCycles);
    w.vecF64(result.averages);
    w.vecF64(result.bitAverages);
    w.u64(result.sampleCount);
    w.str(result.error);
}

runtime::JobResult
decodeJobResult(Reader &r)
{
    runtime::JobResult result;
    result.run.cyclesRun = r.u64();
    result.run.halted = r.boolean();
    result.run.violations.latePoints =
        static_cast<std::size_t>(r.u64());
    result.run.violations.staleEvents =
        static_cast<std::size_t>(r.u64());
    result.run.violations.totalLateCycles = r.u64();
    result.averages = r.vecF64();
    result.bitAverages = r.vecF64();
    result.sampleCount = static_cast<std::size_t>(r.u64());
    result.error = r.str();
    return result;
}

// --- stats ------------------------------------------------------------------

namespace {

void
encodeLatencyHistogram(Writer &w, const metrics::LatencyHistogram &h)
{
    for (std::uint64_t bucket : h.buckets)
        w.u64(bucket);
    w.f64(h.sum);
    w.f64(h.max);
}

metrics::LatencyHistogram
decodeLatencyHistogram(Reader &r)
{
    metrics::LatencyHistogram h;
    for (std::uint64_t &bucket : h.buckets)
        bucket = r.u64();
    h.sum = r.f64();
    h.max = r.f64();
    return h;
}

} // namespace

void
encodeStatsFrame(Writer &w, const StatsFrame &stats)
{
    const auto &s = stats.scheduler;
    w.u64(s.submitted);
    w.u64(s.rejected);
    w.u64(s.completed);
    w.u64(s.failed);
    w.u64(s.cancelled);
    w.u64(s.queueHighWater);
    w.u64(s.shardedJobs);
    w.u64(s.shardsExecuted);
    w.u64(s.saturatedRuns);
    w.u64(s.admissionSoftRejects);
    w.f64(s.machineSaturation);
    for (const auto &h : s.latency)
        encodeLatencyHistogram(w, h);

    const auto &p = stats.pool;
    w.u64(p.machinesCreated);
    w.u64(p.acquisitions);
    w.u64(p.reuseHits);
    w.u64(p.rebinds);
    w.u64(p.machineResets);
    w.u64(p.idleMachines);
    w.u64(p.leasedMachines);

    const auto &c = stats.cache;
    w.u64(c.programHits);
    w.u64(c.programMisses);
    w.u64(c.programEvictions);
    w.u64(c.lutHits);
    w.u64(c.lutMisses);
    w.u64(c.lutEvictions);

    w.u64(stats.effectiveQueueCapacity);
}

StatsFrame
decodeStatsFrame(Reader &r)
{
    StatsFrame stats;
    auto &s = stats.scheduler;
    s.submitted = static_cast<std::size_t>(r.u64());
    s.rejected = static_cast<std::size_t>(r.u64());
    s.completed = static_cast<std::size_t>(r.u64());
    s.failed = static_cast<std::size_t>(r.u64());
    s.cancelled = static_cast<std::size_t>(r.u64());
    s.queueHighWater = static_cast<std::size_t>(r.u64());
    s.shardedJobs = static_cast<std::size_t>(r.u64());
    s.shardsExecuted = static_cast<std::size_t>(r.u64());
    s.saturatedRuns = static_cast<std::size_t>(r.u64());
    s.admissionSoftRejects = static_cast<std::size_t>(r.u64());
    s.machineSaturation = r.f64();
    for (auto &h : s.latency)
        h = decodeLatencyHistogram(r);

    auto &p = stats.pool;
    p.machinesCreated = static_cast<std::size_t>(r.u64());
    p.acquisitions = static_cast<std::size_t>(r.u64());
    p.reuseHits = static_cast<std::size_t>(r.u64());
    p.rebinds = static_cast<std::size_t>(r.u64());
    p.machineResets = static_cast<std::size_t>(r.u64());
    p.idleMachines = static_cast<std::size_t>(r.u64());
    p.leasedMachines = static_cast<std::size_t>(r.u64());

    auto &c = stats.cache;
    c.programHits = static_cast<std::size_t>(r.u64());
    c.programMisses = static_cast<std::size_t>(r.u64());
    c.programEvictions = static_cast<std::size_t>(r.u64());
    c.lutHits = static_cast<std::size_t>(r.u64());
    c.lutMisses = static_cast<std::size_t>(r.u64());
    c.lutEvictions = static_cast<std::size_t>(r.u64());

    stats.effectiveQueueCapacity = static_cast<std::size_t>(r.u64());
    return stats;
}

// --- error ------------------------------------------------------------------

void
encodeErrorFrame(Writer &w, const ErrorFrame &error)
{
    w.u16(static_cast<std::uint16_t>(error.code));
    w.str(error.message);
}

ErrorFrame
decodeErrorFrame(Reader &r)
{
    ErrorFrame e;
    std::uint16_t code = r.u16();
    if (code < 1 ||
        code > static_cast<std::uint16_t>(WireErrorCode::VersionMismatch))
        throw WireError("unknown wire error code " +
                        std::to_string(code));
    e.code = static_cast<WireErrorCode>(code);
    e.message = r.str();
    return e;
}

// --- v4 observability payloads ----------------------------------------------

void
encodeTraceContext(Writer &w, const TraceContext &ctx)
{
    w.u64(ctx.traceId);
    w.u64(ctx.spanId);
}

TraceContext
decodeTraceContext(Reader &r)
{
    TraceContext ctx;
    ctx.traceId = r.u64();
    ctx.spanId = r.u64();
    return ctx;
}

void
encodeProgressFrame(Writer &w, const ProgressFrameData &p)
{
    w.u64(p.job);
    w.u64(p.roundsDone);
    w.u64(p.roundsTotal);
}

ProgressFrameData
decodeProgressFrame(Reader &r)
{
    ProgressFrameData p;
    p.job = r.u64();
    p.roundsDone = r.u64();
    p.roundsTotal = r.u64();
    if (p.roundsDone > p.roundsTotal)
        throw WireError("progress frame claims " +
                        std::to_string(p.roundsDone) + "/" +
                        std::to_string(p.roundsTotal) + " rounds");
    return p;
}

void
encodeClockSyncFrame(Writer &w, const ClockSyncFrame &c)
{
    w.u64(c.serverNanos);
}

ClockSyncFrame
decodeClockSyncFrame(Reader &r)
{
    ClockSyncFrame c;
    c.serverNanos = r.u64();
    return c;
}

void
encodeTraceDumpFrame(Writer &w, const TraceDumpFrame &dump)
{
    if (dump.events.size() > kMaxPayloadBytes / 21 ||
        dump.traceIds.size() > kMaxPayloadBytes / 16)
        throw WireError("trace dump too large for a wire frame");
    w.u32(static_cast<std::uint32_t>(dump.events.size()));
    for (const runtime::TraceEvent &e : dump.events) {
        w.u64(e.job);
        w.u32(e.shard);
        w.u8(static_cast<std::uint8_t>(e.phase));
        w.u64(e.nanos);
    }
    w.u32(static_cast<std::uint32_t>(dump.traceIds.size()));
    for (const auto &[job, traceId] : dump.traceIds) {
        w.u64(job);
        w.u64(traceId);
    }
    w.u64(dump.dropped);
}

TraceDumpFrame
decodeTraceDumpFrame(Reader &r)
{
    TraceDumpFrame dump;
    std::uint32_t nEvents = r.u32();
    // 21 bytes per serialized event: size-check the claim up front.
    if (static_cast<std::size_t>(nEvents) * 21 > r.remaining())
        throw WireError("trace event list larger than its frame");
    dump.events.reserve(nEvents);
    for (std::uint32_t i = 0; i < nEvents; ++i) {
        runtime::TraceEvent e;
        e.job = r.u64();
        e.shard = r.u32();
        std::uint8_t phase = r.u8();
        if (phase > static_cast<std::uint8_t>(
                        runtime::TracePhase::ResultPushed))
            throw WireError("unknown trace phase " +
                            std::to_string(phase));
        e.phase = static_cast<runtime::TracePhase>(phase);
        e.nanos = r.u64();
        dump.events.push_back(e);
    }
    std::uint32_t nIds = r.u32();
    if (static_cast<std::size_t>(nIds) * 16 > r.remaining())
        throw WireError("trace id list larger than its frame");
    dump.traceIds.reserve(nIds);
    for (std::uint32_t i = 0; i < nIds; ++i) {
        runtime::JobId job = r.u64();
        std::uint64_t traceId = r.u64();
        dump.traceIds.emplace_back(job, traceId);
    }
    dump.dropped = r.u64();
    return dump;
}

} // namespace quma::net

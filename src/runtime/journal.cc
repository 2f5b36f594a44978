#include "runtime/journal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "net/wire.hh"

namespace quma::runtime {

// --- shared record container ------------------------------------------------

namespace {

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

/** Per-record length+CRC container overhead. */
constexpr std::size_t kRecordHeaderBytes = 8;
/** Defensive cap: no legitimate record approaches the wire's 64 MiB
 *  payload limit, so anything claiming more is damage, not data. */
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
appendRecord(std::vector<std::uint8_t> &out, std::uint16_t type,
             const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> body;
    body.reserve(2 + payload.size());
    body.push_back(static_cast<std::uint8_t>(type));
    body.push_back(static_cast<std::uint8_t>(type >> 8));
    body.insert(body.end(), payload.begin(), payload.end());

    putU32(out, static_cast<std::uint32_t>(body.size()));
    putU32(out, crc32(body.data(), body.size()));
    out.insert(out.end(), body.begin(), body.end());
}

ScanResult
scanRecords(const std::vector<std::uint8_t> &bytes,
            std::string_view magic)
{
    ScanResult result;
    if (bytes.size() < magic.size() ||
        std::memcmp(bytes.data(), magic.data(), magic.size()) != 0) {
        // A non-empty file with the wrong magic is damage; an empty
        // one is simply not a record file yet.
        result.corruptRecords = bytes.empty() ? 0 : 1;
        return result;
    }
    result.magicValid = true;

    std::size_t at = magic.size();
    while (at < bytes.size()) {
        if (bytes.size() - at < kRecordHeaderBytes) {
            result.corruptRecords = 1; // torn header
            return result;
        }
        const std::uint32_t len = getU32(bytes.data() + at);
        const std::uint32_t crc = getU32(bytes.data() + at + 4);
        if (len < 2 || len > kMaxRecordBytes ||
            bytes.size() - at - kRecordHeaderBytes < len) {
            result.corruptRecords = 1; // torn/garbage body
            return result;
        }
        const std::uint8_t *body = bytes.data() + at + kRecordHeaderBytes;
        if (crc32(body, len) != crc) {
            result.corruptRecords = 1; // bit flip
            return result;
        }
        ScannedRecord rec;
        rec.type = static_cast<std::uint16_t>(
            body[0] | static_cast<std::uint16_t>(body[1]) << 8);
        rec.payload.assign(body + 2, body + len);
        result.records.push_back(std::move(rec));
        at += kRecordHeaderBytes + len;
    }
    return result;
}

// --- recovery ---------------------------------------------------------------

std::optional<FsyncPolicy>
fsyncPolicyFromName(std::string_view name)
{
    if (name == "none")
        return FsyncPolicy::None;
    if (name == "batch")
        return FsyncPolicy::Batch;
    if (name == "always")
        return FsyncPolicy::Always;
    return std::nullopt;
}

RecoveryReport
recoverJournal(const std::string &path)
{
    RecoveryReport report;

    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return report; // no file: a fresh journal
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    if (bytes.empty())
        return report;
    report.journalExisted = true;

    ScanResult scan = scanRecords(bytes, kJournalMagic);
    report.corruptRecords = scan.corruptRecords;
    report.magicValid = scan.magicValid;
    if (scan.magicValid)
        report.validPrefixBytes = kJournalMagic.size();

    // Ordered pending set: id -> position in `order`, so recovered
    // jobs come back in original submission order.
    std::unordered_map<JobId, std::size_t> live;
    std::vector<std::optional<RecoveredJob>> order;

    auto retire = [&](JobId id) {
        auto it = live.find(id);
        if (it == live.end())
            return; // unknown/already-retired id: harmless
        order[it->second].reset();
        live.erase(it);
    };

    for (const ScannedRecord &rec : scan.records) {
        ++report.recordsScanned;
        try {
            net::Reader r(rec.payload);
            switch (static_cast<JournalRecordType>(rec.type)) {
            case JournalRecordType::Submitted: {
                RecoveredJob job;
                job.journalId = r.u64();
                job.spec = net::decodeJobSpec(r);
                r.expectEnd();
                live[job.journalId] = order.size();
                order.emplace_back(std::move(job));
                ++report.submitted;
                break;
            }
            case JournalRecordType::Completed: {
                const JobId id = r.u64();
                r.u8(); // failed flag: completed either way
                r.expectEnd();
                retire(id);
                ++report.completed;
                break;
            }
            case JournalRecordType::Cancelled: {
                const JobId id = r.u64();
                r.expectEnd();
                retire(id);
                ++report.cancelled;
                break;
            }
            case JournalRecordType::Resubmitted: {
                RecoveredJob job;
                const JobId old_id = r.u64();
                job.journalId = r.u64();
                job.spec = net::decodeJobSpec(r);
                r.expectEnd();
                retire(old_id);
                live[job.journalId] = order.size();
                order.emplace_back(std::move(job));
                ++report.resubmitted;
                break;
            }
            default:
                // Unknown type with a valid CRC: a future version's
                // record. Skip it rather than dropping the tail.
                break;
            }
            report.validPrefixBytes +=
                kRecordHeaderBytes + 2 + rec.payload.size();
        }
        catch (const net::WireError &) {
            // CRC-valid but undecodable body: count and stop, the
            // prefix before it is still trustworthy.
            ++report.corruptRecords;
            break;
        }
    }

    for (std::optional<RecoveredJob> &slot : order)
        if (slot)
            report.pending.push_back(std::move(*slot));
    return report;
}

// --- compaction -------------------------------------------------------------

CompactionReport
compactJournal(const std::string &path,
               const RecoveryReport &recovered)
{
    CompactionReport report;
    report.recordsBefore = recovered.recordsScanned;
    report.recordsAfter = recovered.pending.size();
    if (!recovered.magicValid)
        return report; // foreign or absent file: never touch it

    {
        struct stat st{};
        if (::stat(path.c_str(), &st) == 0)
            report.bytesBefore = static_cast<std::size_t>(st.st_size);
    }

    // The live suffix: magic + one Submitted record per pending job,
    // under its surviving journal id (a Resubmitted chain collapses
    // to its last id -- recovery treats both spellings identically).
    std::vector<std::uint8_t> bytes(kJournalMagic.begin(),
                                    kJournalMagic.end());
    for (const RecoveredJob &job : recovered.pending) {
        net::Writer w;
        w.u64(job.journalId);
        net::encodeJobSpec(w, job.spec);
        appendRecord(
            bytes,
            static_cast<std::uint16_t>(JournalRecordType::Submitted),
            w.bytes());
    }

    // Temp + fsync + rename: atomic replacement, crash-safe.
    const std::string tmp = path + ".compact";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        warn("journal: compaction cannot open '" + tmp +
             "': " + std::strerror(errno));
        return report;
    }
    std::size_t written = 0;
    while (written < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + written,
                            bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("journal: compaction write to '" + tmp +
                 "' failed: " + std::strerror(errno));
            ::close(fd);
            ::unlink(tmp.c_str());
            return report;
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        warn("journal: compaction fsync of '" + tmp +
             "' failed: " + std::strerror(errno));
        ::close(fd);
        ::unlink(tmp.c_str());
        return report;
    }
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("journal: compaction rename onto '" + path +
             "' failed: " + std::strerror(errno));
        ::unlink(tmp.c_str());
        return report;
    }
    report.performed = true;
    report.bytesAfter = bytes.size();
    return report;
}

// --- the journal append side ------------------------------------------------

JobJournal::JobJournal(JournalConfig config)
    : cfg(std::move(config))
{
    fd = ::open(cfg.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        fatal("journal: cannot open '" + cfg.path +
                      "': " + std::strerror(errno));

    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size == 0) {
        // Fresh file: stamp the magic synchronously, before any
        // record can race it through the writer thread.
        if (::write(fd, kJournalMagic.data(), kJournalMagic.size()) !=
            static_cast<ssize_t>(kJournalMagic.size())) {
            ::close(fd);
            fatal("journal: cannot write magic to '" +
                          cfg.path + "': " + std::strerror(errno));
        }
    }

    writer = std::thread([this] { writerLoop(); });
}

JobJournal::~JobJournal() { close(); }

std::optional<JobJournal::EncodedSpec>
JobJournal::encodeSpec(const JobSpec &spec)
{
    if (spec.program.has_value())
        return std::nullopt; // no serialized form; see header
    net::Writer w;
    net::encodeJobSpec(w, spec);
    return w.bytes();
}

void
JobJournal::appendSubmitted(JobId id, const EncodedSpec &spec)
{
    net::Writer w;
    w.u64(id);
    std::vector<std::uint8_t> payload = w.bytes();
    payload.insert(payload.end(), spec.begin(), spec.end());

    std::vector<std::uint8_t> record;
    appendRecord(record,
                 static_cast<std::uint16_t>(JournalRecordType::Submitted),
                 payload);
    append(std::move(record), cfg.fsync == FsyncPolicy::Always);
}

void
JobJournal::appendResubmitted(JobId old_id, JobId new_id,
                              const EncodedSpec &spec)
{
    net::Writer w;
    w.u64(old_id);
    w.u64(new_id);
    std::vector<std::uint8_t> payload = w.bytes();
    payload.insert(payload.end(), spec.begin(), spec.end());

    std::vector<std::uint8_t> record;
    appendRecord(
        record,
        static_cast<std::uint16_t>(JournalRecordType::Resubmitted),
        payload);
    append(std::move(record), cfg.fsync == FsyncPolicy::Always);
}

void
JobJournal::appendCompleted(JobId id, bool failed)
{
    net::Writer w;
    w.u64(id);
    w.u8(failed ? 1 : 0);
    std::vector<std::uint8_t> record;
    appendRecord(record,
                 static_cast<std::uint16_t>(JournalRecordType::Completed),
                 w.bytes());
    append(std::move(record), false);
}

void
JobJournal::appendCancelled(JobId id)
{
    net::Writer w;
    w.u64(id);
    std::vector<std::uint8_t> record;
    appendRecord(record,
                 static_cast<std::uint16_t>(JournalRecordType::Cancelled),
                 w.bytes());
    append(std::move(record), false);
}

void
JobJournal::append(std::vector<std::uint8_t> &&record, bool await_durable)
{
    std::unique_lock<std::mutex> lock(mu);
    if (closed)
        return;
    counters.recordsAppended += 1;
    counters.bytesAppended += record.size();
    pending.push_back(std::move(record));
    const std::uint64_t seq = ++appendedSeq;
    cvWork.notify_one();
    if (await_durable)
        cvDurable.wait(lock, [&] { return durableSeq >= seq || closed; });
}

void
JobJournal::sync()
{
    std::unique_lock<std::mutex> lock(mu);
    const std::uint64_t seq = appendedSeq;
    cvDurable.wait(lock, [&] { return durableSeq >= seq || closed; });
    // Under FsyncPolicy::None reaching durableSeq only means the
    // write()s landed; sync() promises durability, so fsync here.
    // Done under mu: it serializes against close()'s ::close(fd),
    // and sync() is a shutdown/test path, never a hot one.
    if (closed || fd < 0 || cfg.fsync != FsyncPolicy::None)
        return;
    const auto t0 = std::chrono::steady_clock::now();
    if (::fsync(fd) == 0) {
        counters.fsyncs += 1;
        counters.fsyncSeconds.observe(secondsSince(t0));
    }
}

void
JobJournal::close()
{
    {
        std::unique_lock<std::mutex> lock(mu);
        if (closed && !writer.joinable())
            return;
        // Let the writer drain what is queued, then stop it.
        const std::uint64_t seq = appendedSeq;
        cvDurable.wait(lock, [&] { return durableSeq >= seq; });
        closed = true;
        cvWork.notify_all();
        cvDurable.notify_all();
    }
    if (writer.joinable())
        writer.join();
    if (fd >= 0) {
        ::fsync(fd); // the close() contract: everything durable
        ::close(fd);
        fd = -1;
    }
}

JournalStats
JobJournal::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

void
JobJournal::bindMetrics(metrics::MetricsRegistry &registry)
{
    registry.counterFn("quma_journal_records_total",
                       "Records appended to the job journal.", {},
                       [this] {
                           return static_cast<double>(
                               stats().recordsAppended);
                       });
    registry.counterFn("quma_journal_bytes_total",
                       "Bytes appended to the job journal.", {},
                       [this] {
                           return static_cast<double>(
                               stats().bytesAppended);
                       });
    registry.counterFn("quma_journal_fsyncs_total",
                       "fsync() calls issued by the journal writer.",
                       {}, [this] {
                           return static_cast<double>(stats().fsyncs);
                       });
    registry.counterFn(
        "quma_journal_append_errors_total",
        "Journal write()/fsync() failures (journal keeps serving).",
        {}, [this] {
            return static_cast<double>(stats().appendErrors);
        });
    registry.gaugeFn("quma_journal_queue_depth",
                     "Records queued for the journal writer thread.",
                     {}, [this] {
                         std::lock_guard<std::mutex> lock(mu);
                         return static_cast<double>(pending.size());
                     });
    registry.histogramFn("quma_journal_fsync_seconds",
                         "Journal fsync() latency (the durability gate "
                         "of FsyncPolicy::Always submissions).",
                         {}, [this] { return stats().fsyncSeconds; });
}

void
JobJournal::writerLoop()
{
    for (;;) {
        std::vector<std::vector<std::uint8_t>> batch;
        std::uint64_t batch_end = 0;
        bool someone_waiting = false;
        {
            std::unique_lock<std::mutex> lock(mu);
            cvWork.wait(lock,
                        [&] { return !pending.empty() || closed; });
            if (pending.empty() && closed)
                return;
            while (!pending.empty()) {
                batch.push_back(std::move(pending.front()));
                pending.pop_front();
            }
            batch_end = appendedSeq;
            // sync() and Always-appends both wait on cvDurable, so
            // any waiter means this batch must hit the platter.
            someone_waiting = cfg.fsync == FsyncPolicy::Always;
        }

        // Coalesce the batch into one write(): records stay atomic
        // within the file because O_APPEND writes are positioned by
        // the kernel and this is the only writer.
        std::vector<std::uint8_t> blob;
        for (const auto &rec : batch)
            blob.insert(blob.end(), rec.begin(), rec.end());

        bool io_error = false;
        std::size_t off = 0;
        while (off < blob.size()) {
            const ssize_t n =
                ::write(fd, blob.data() + off, blob.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                io_error = true;
                break;
            }
            off += static_cast<std::size_t>(n);
        }

        const bool want_fsync =
            !io_error &&
            (cfg.fsync != FsyncPolicy::None || someone_waiting);
        bool did_fsync = false;
        double fsync_seconds = 0.0;
        if (want_fsync) {
            const auto t0 = std::chrono::steady_clock::now();
            if (::fsync(fd) == 0)
                did_fsync = true;
            else
                io_error = true;
            fsync_seconds = secondsSince(t0);
        }

        {
            std::lock_guard<std::mutex> lock(mu);
            if (io_error) {
                counters.appendErrors += 1;
                warn("journal: append failed on '" + cfg.path +
                             "': " + std::strerror(errno));
            }
            if (did_fsync) {
                counters.fsyncs += 1;
                counters.fsyncSeconds.observe(fsync_seconds);
            }
            // Advance even on error: a wedged disk must not deadlock
            // submission (the error is counted and logged instead).
            durableSeq = batch_end;
            cvDurable.notify_all();
        }
    }
}

} // namespace quma::runtime

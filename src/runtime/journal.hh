/**
 * @file
 * JobJournal: the write-ahead job journal of the serving runtime.
 *
 * The source paper's host/control-box split assumes the host can
 * always re-drive the control box; for a service with real users
 * that means a process crash must not lose the queue. The journal
 * records every accepted JobSpec (and every completion) in an
 * append-only file, so a restarted service can recover the work that
 * was queued-but-unfinished at the crash and run it again -- and,
 * because a job's result is a pure function of its spec (the
 * determinism contract, runtime/job.hh), the recovered run produces
 * the bit-identical JobResult the uninterrupted run would have.
 *
 * RECORD FORMAT. The file starts with an 8-byte magic; every record
 * after it is
 *
 *     u32 length   body byte count
 *     u32 crc32    CRC-32 (IEEE 802.3) of the body bytes
 *     u8  body[length]   -- body = u16 record type + payload
 *
 * Payloads reuse the net/wire.hh codecs (explicit little-endian, no
 * struct-memcpy), so a journal is readable on any architecture and a
 * JobSpec round-trips through it exactly like it round-trips through
 * the wire. The same length+CRC container frames the serving layer's
 * capture files (net/capture.hh).
 *
 * WRITER THREAD AND FSYNC POLICY. Appends are encoded on the calling
 * thread, queued, and written by one dedicated writer thread --
 * submission latency never pays the disk unless asked to:
 *
 *  - FsyncPolicy::None    never fsync (the OS decides; fastest,
 *                         loses up to the page-cache window);
 *  - FsyncPolicy::Batch   fsync after each drained batch (bounded
 *                         loss: the records queued behind one write);
 *  - FsyncPolicy::Always  SUBMISSION records block their caller
 *                         until fsync confirms durability -- the
 *                         classic WAL ack gate. Completion markers
 *                         never block even here: losing one re-runs
 *                         a finished job after a crash (duplicate
 *                         work), it never loses one.
 *
 * RECOVERY. recoverJournal() scans the file and returns the
 * submitted-but-never-completed specs in submission order. The scan
 * never throws past the API: a torn final record (crash mid-append),
 * a flipped CRC byte, or garbage after a valid prefix all stop the
 * scan at the last valid record, counted in corruptRecords -- the
 * valid prefix is always kept. On restart the service re-submits the
 * pending specs under fresh ids and appends one Resubmitted record
 * per job (old id -> new id, spec), which both neutralises the stale
 * pending entry and keeps the journal self-contained for a second
 * crash.
 */

#ifndef QUMA_RUNTIME_JOURNAL_HH
#define QUMA_RUNTIME_JOURNAL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "runtime/job.hh"

namespace quma::runtime {

// --- shared record container ------------------------------------------------

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `size` bytes. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** Append one length+CRC framed record (body = u16 type + payload). */
void appendRecord(std::vector<std::uint8_t> &out, std::uint16_t type,
                  const std::vector<std::uint8_t> &payload);

/** One record recovered from a journal or capture file. */
struct ScannedRecord
{
    std::uint16_t type = 0;
    std::vector<std::uint8_t> payload;
};

/** Result of scanning a record file: the valid prefix, always. */
struct ScanResult
{
    std::vector<ScannedRecord> records;
    /** 1 when the scan stopped early -- torn final record, CRC
     *  mismatch, or garbage tail; the records above are the valid
     *  prefix before the damage. */
    std::size_t corruptRecords = 0;
    /** False on a missing/foreign magic (zero records recovered). */
    bool magicValid = false;
};

/**
 * Scan `bytes` as a record file with the given 8-byte magic. Total:
 * never throws; damage stops the scan and is counted, the records
 * decoded before it are returned.
 */
ScanResult scanRecords(const std::vector<std::uint8_t> &bytes,
                       std::string_view magic);

// --- the job journal --------------------------------------------------------

/** Journal file magic (8 bytes, versioned by the trailing digit). */
inline constexpr std::string_view kJournalMagic = "QUMAJNL1";

/** Journal record types (u16 on disk; values are wire-frozen). */
enum class JournalRecordType : std::uint16_t
{
    /** u64 id + JobSpec (wire codec): an accepted submission. */
    Submitted = 1,
    /** u64 id + u8 failed: the job finished (either way). */
    Completed = 2,
    /** u64 id: the job was cancelled while still queued. */
    Cancelled = 3,
    /** u64 oldId + u64 newId + JobSpec: a recovered pending job was
     *  re-submitted under a fresh id (retires oldId, opens newId). */
    Resubmitted = 4,
};

enum class FsyncPolicy : std::uint8_t
{
    None,
    Batch,
    Always,
};

/** Parse a policy name (none|batch|always); nullopt on anything else. */
std::optional<FsyncPolicy> fsyncPolicyFromName(std::string_view name);

struct JournalConfig
{
    std::string path;
    FsyncPolicy fsync = FsyncPolicy::Batch;
};

struct JournalStats
{
    std::size_t recordsAppended = 0;
    std::size_t bytesAppended = 0;
    std::size_t fsyncs = 0;
    /** write()/fsync() failures (the journal keeps serving). */
    std::size_t appendErrors = 0;
    /** Latency of the successful fsyncs (count() == fsyncs). */
    metrics::LatencyHistogram fsyncSeconds;
};

/** One submitted-but-never-completed job found by recovery. */
struct RecoveredJob
{
    /** The id the job had in the crashed process (journal-local). */
    JobId journalId = 0;
    JobSpec spec;
};

/** What recoverJournal() found. */
struct RecoveryReport
{
    /** Un-completed submissions, in original submission order. */
    std::vector<RecoveredJob> pending;
    std::size_t recordsScanned = 0;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t cancelled = 0;
    std::size_t resubmitted = 0;
    /** Scan-stopping damage (torn tail, bad CRC, garbage). */
    std::size_t corruptRecords = 0;
    /** False when the file was absent/empty (a fresh journal). */
    bool journalExisted = false;
    /** True when the file carried the journal magic. False + existed
     *  = a foreign file: refuse to append, never clobber it. */
    bool magicValid = false;
    /**
     * Byte length of the valid prefix (magic + every record decoded
     * before damage stopped the scan). The service truncates a
     * damaged journal to this length before reopening it for append,
     * so new records extend readable data instead of hiding behind a
     * garbage tail.
     */
    std::size_t validPrefixBytes = 0;
};

/**
 * Scan the journal at `path` for pending work. Never throws: a
 * missing file is a fresh journal (empty report), damage keeps the
 * valid prefix and is counted in corruptRecords.
 */
RecoveryReport recoverJournal(const std::string &path);

/** What compactJournal() did (or declined to do). */
struct CompactionReport
{
    /** True when the file was rewritten to its live suffix. */
    bool performed = false;
    std::size_t recordsBefore = 0;
    /** One Submitted record per still-pending job. */
    std::size_t recordsAfter = 0;
    std::size_t bytesBefore = 0;
    std::size_t bytesAfter = 0;
};

/**
 * Rewrite the journal at `path` down to its LIVE SUFFIX: a fresh
 * magic plus one Submitted record per job in `recovered.pending`
 * (retired submissions, their completion/cancellation markers, and
 * any damaged tail all disappear; Resubmitted chains collapse to
 * their final id). The rewrite goes through a temp file + fsync +
 * rename, so a crash mid-compaction leaves either the old journal or
 * the new one, never a torn hybrid. Recovery of the compacted file
 * yields the identical pending set (pinned by tests/test_journal.cc).
 *
 * Never throws; on any I/O failure the original file is left intact
 * and `performed` stays false. Call only between recovery and the
 * JobJournal reopen (nothing may be appending).
 */
CompactionReport compactJournal(const std::string &path,
                                const RecoveryReport &recovered);

/**
 * The append side: an append-only record file fed through one writer
 * thread. Thread-safe; appends after close() are counted no-ops.
 */
class JobJournal
{
  public:
    /** Pre-encoded JobSpec payload (see encodeSpec). */
    using EncodedSpec = std::vector<std::uint8_t>;

    /** Opens (creating or appending) the journal file; fatal() when
     *  the path cannot be opened -- the operator asked for
     *  durability the process cannot provide. */
    explicit JobJournal(JournalConfig config);
    ~JobJournal();

    JobJournal(const JobJournal &) = delete;
    JobJournal &operator=(const JobJournal &) = delete;

    /**
     * Encode a spec for a later appendSubmitted/appendResubmitted.
     * nullopt for specs carrying a pre-assembled isa::Program: the
     * binary image is a host-side optimisation with no serialized
     * form, so such jobs are not journaled (documented limitation --
     * remote submissions always travel as assembly and always
     * journal). Encoding on the submitting thread keeps the writer
     * thread I/O-only.
     */
    static std::optional<EncodedSpec> encodeSpec(const JobSpec &spec);

    /**
     * Journal an accepted submission. With FsyncPolicy::Always this
     * blocks until the record is fsync-durable -- the WAL guarantee
     * that an acknowledged job survives a crash.
     */
    void appendSubmitted(JobId id, const EncodedSpec &spec);

    /** Journal the re-submission of a recovered job (retires the
     *  old id, opens the new one). Durability as appendSubmitted. */
    void appendResubmitted(JobId old_id, JobId new_id,
                           const EncodedSpec &spec);

    /** Journal a completion (never blocks on fsync: a lost marker
     *  re-runs a finished job, it cannot lose one). */
    void appendCompleted(JobId id, bool failed);

    /** Journal a queued-job cancellation (cancelled work must NOT
     *  come back on restart). */
    void appendCancelled(JobId id);

    /** Block until everything appended so far is written AND
     *  fsynced, regardless of policy. */
    void sync();

    /**
     * Drain, fsync, and close the file; later appends are no-ops.
     * ExperimentService calls this FIRST in its destructor, so the
     * scheduler's shutdown-failure notifications (jobs that never
     * ran) cannot mark still-pending work completed -- destruction
     * without drain() journals like a crash, which is exactly what
     * the recovery tests rely on.
     */
    void close();

    JournalStats stats() const;

    const JournalConfig &config() const { return cfg; }

    /**
     * Register the quma_journal_* families with `registry`. The
     * journal must outlive the registry's last render.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

  private:
    void append(std::vector<std::uint8_t> &&record,
                bool await_durable);
    void writerLoop();

    const JournalConfig cfg;
    int fd = -1;

    mutable std::mutex mu;
    std::condition_variable cvWork;
    std::condition_variable cvDurable;
    std::deque<std::vector<std::uint8_t>> pending;
    /** Sequence numbers: appended (queued), durable (fsynced). */
    std::uint64_t appendedSeq = 0;
    std::uint64_t durableSeq = 0;
    bool closed = false;
    JournalStats counters;
    std::thread writer;
};

} // namespace quma::runtime

#endif // QUMA_RUNTIME_JOURNAL_HH

/**
 * @file
 * The unit of work of the concurrent experiment runtime: one job is
 * one host-PC session of the paper's §8 flow (upload calibration,
 * load a program, run, collect averages), described as data so it can
 * be queued, sharded, and executed by any worker on its machine.
 *
 * Determinism contract: a job's result is a pure function of its
 * JobSpec. The runtime derives the chip-noise and stall-injection RNG
 * streams from the job seed (Rng::derive), rebinds and resets the
 * worker's machine before running, and never shares mutable state
 * between jobs -- so the same spec produces the same JobResult
 * regardless of worker count, scheduling order, or which worker's
 * machine it lands on.
 */

#ifndef QUMA_RUNTIME_JOB_HH
#define QUMA_RUNTIME_JOB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "quma/machine.hh"

namespace quma::runtime {

using JobId = std::uint64_t;

/**
 * Scheduling class of a job. Higher classes are drained first; aging
 * (SchedulerConfig::agingQuantum) promotes long-waiting jobs one
 * class step per quantum of newer submissions, so a backlog of Batch
 * work is overtaken by High jobs without ever being starved by them.
 */
enum class JobPriority : std::uint8_t
{
    Batch = 0,
    Normal = 1,
    High = 2,
};

/**
 * Experiment fan-out policy: sweeps with at least this many averaging
 * rounds are worth round-structured (shardable) execution; below it
 * the per-round machine reset/reload overhead outweighs what the
 * extra parallelism can recover.
 */
inline constexpr std::size_t kShardableRounds = 16;

/**
 * The experiments' shared eligibility rule for round-structured
 * execution: an explicit shard request (>= 2) always opts in; auto
 * (0) opts in for large sweeps; 1 keeps the opaque looping program.
 */
inline constexpr bool
wantsRoundStructured(std::size_t shards_requested, std::size_t rounds)
{
    return shards_requested >= 2 ||
           (shards_requested == 0 && rounds >= kShardableRounds);
}

/** A contiguous range of averaging rounds assigned to one shard. */
struct RoundRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
};

/**
 * Balanced contiguous partition of `rounds` into at most `shards`
 * ranges, clamped so every shard keeps at least
 * `min_rounds_per_shard` rounds (and never more shards than rounds).
 * shards == 0 requests one shard. The partition is a pure function of
 * its arguments -- the deterministic-merge contract depends on the
 * round->shard assignment being reproducible.
 */
std::vector<RoundRange> partitionRounds(std::size_t rounds,
                                        std::size_t shards,
                                        std::size_t min_rounds_per_shard);

struct JobSpec
{
    /** Human-readable label (diagnostics only; not part of results). */
    std::string name;

    /**
     * QuMIS/QIS assembly source. Compiled through the ProgramCache,
     * so repeated jobs with identical source skip the assembler.
     */
    std::string assembly;
    /** Pre-assembled program; bypasses the cache when set. */
    std::optional<isa::Program> program;

    /** Machine configuration; a worker rebinds its machine to it
     *  (seeds are ignored -- the job seed below replaces them). */
    core::MachineConfig machine;

    /** Data-collection bins K (0 = leave unconfigured). */
    std::size_t bins = 0;

    /** Job seed; chip and exec RNG streams are derived from it. */
    std::uint64_t seed = 0x5eed;

    /** Run budget in cycles (per round for round-structured jobs). */
    Cycle maxCycles = 2'000'000'000ULL;

    /**
     * Averaging rounds N. 0 = OPAQUE job: the program (which may
     * contain its own averaging loop) runs as one shard of one round,
     * on one machine, with the job-level RNG streams kChipStream /
     * kExecStream (runtime/keys.hh). When N > 0 the job is
     * ROUND-STRUCTURED: assembly/program must be the one-round body
     * (QuantumProgram repetitions = 1), and the runtime executes it N
     * times, deriving each round's RNG streams from (seed, round) --
     * see runtime/keys.hh -- and merging the per-round collector sums
     * in round order. Only round-structured jobs split into more
     * than one shard.
     */
    std::size_t rounds = 0;

    /**
     * Requested shard count for a round-structured job: the scheduler
     * splits the N rounds into this many contiguous ranges and runs
     * them as parallel tasks on the workers' machines. 0 = auto (one shard
     * per worker); 1 = a single shard. Always clamped by
     * minRoundsPerShard. The merged result is bit-identical for every
     * shard count.
     */
    std::size_t shards = 1;
    /** Smallest round range worth a task (clamps `shards`). */
    std::size_t minRoundsPerShard = 8;

    /** Scheduling class (see JobPriority). */
    JobPriority priority = JobPriority::Normal;
};

enum class JobStatus { Queued, Running, Done, Failed };

struct JobResult
{
    core::RunResult run;
    /** Per-bin ensemble averages (data collection unit). */
    std::vector<double> averages;
    std::vector<double> bitAverages;
    std::size_t sampleCount = 0;
    /** Non-empty when the job failed; the other fields are empty. */
    std::string error;

    bool failed() const { return !error.empty(); }

    bool operator==(const JobResult &) const = default;
};

/**
 * Shard key of a machine configuration: two configs with the same key
 * are interchangeable hardware as far as a job is concerned (same
 * qubits, routing, delays, queue depths, error injections). Seeds are
 * deliberately excluded -- jobs reseed the machine they run on.
 */
std::string configKey(const core::MachineConfig &config);

} // namespace quma::runtime

#endif // QUMA_RUNTIME_JOB_HH

/**
 * @file
 * Compiled-program and calibration cache.
 *
 * Two memoization layers sit between job submission and a worker's
 * machine:
 *
 *  - the PROGRAM layer maps assembly source text to the assembled
 *    isa::Program, so a sweep that submits the same (or few distinct)
 *    programs pays the assembler once;
 *  - the LUT layer maps calibration parameters to the rendered
 *    Table 1 waveform entries, so calibrating the Nth machine
 *    with the same qubit parameters copies stored samples instead of
 *    re-rendering envelopes and SSB modulation; it also maps a
 *    (readout, window) pair to its MDU calibration, shared read-only
 *    by every machine with that readout;
 *  - the TAPE layer maps a (program source, machine config key) pair
 *    to its verified physics tape (quma/tape.hh), so every round
 *    after the check replays the physics instead of re-running the
 *    control plane. A pair is checked on its SECOND sighting: the
 *    first only notes it, so a fresh service's first job runs exactly
 *    as without the layer.
 *
 * Every layer is bounded (FIFO eviction) and thread-safe: every
 * scheduler worker shares one cache. The cache belongs to one service
 * -- nothing here is process-global.
 */

#ifndef QUMA_RUNTIME_PROGRAM_CACHE_HH
#define QUMA_RUNTIME_PROGRAM_CACHE_HH

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "awg/calibration.hh"
#include "common/metrics.hh"
#include "isa/program.hh"
#include "quma/machine.hh"

namespace quma::runtime {

class ProgramCache
{
  public:
    struct Stats
    {
        std::size_t programHits = 0;
        std::size_t programMisses = 0;
        std::size_t programEvictions = 0;
        std::size_t lutHits = 0;
        std::size_t lutMisses = 0;
        std::size_t lutEvictions = 0;
        /** MDU calibrations served / computed by the LUT layer. */
        std::size_t mduHits = 0;
        std::size_t mduMisses = 0;
        /** Tape lookups served a verified tape. */
        std::size_t tapeHits = 0;
        /** Tape lookups that found none: first sighting, check due,
         *  or a rejected pair. */
        std::size_t tapeMisses = 0;
        /** Pairs the check rejected (they keep the full path), each
         *  counted once however often a larger budget re-checks it. */
        std::size_t tapeRejections = 0;
    };

    /** What the tape layer holds for one (program, config) pair. */
    struct TapeLookup
    {
        /** The verified tape; null when there is none to replay. */
        std::shared_ptr<const core::PhysicsTape> tape;
        /** Second sighting of an unchecked pair, or a rejected pair
         *  seen with a larger budget than any check ran under: run
         *  verifyTape and storeTape the outcome. */
        bool verify = false;
        /** The pair was checked and rejected under at least this
         *  job's budget: it keeps the full path, no tape will come. */
        bool rejected = false;
    };

    explicit ProgramCache(std::size_t max_programs = 256,
                          std::size_t max_luts = 64);

    /** Bound of the tape layer: (program, config) pairs tracked. */
    static constexpr std::size_t kMaxTapes = 64;

    /** Assemble `source`, memoized on the exact source text. */
    std::shared_ptr<const isa::Program>
    assemble(const std::string &source);

    /** Rendered Table 1 LUT entries, memoized on the parameters. */
    std::shared_ptr<const std::map<Codeword, awg::StoredPulse>>
    lut(const awg::CalibrationParams &params);

    /** Adapter handing the LUT layer to uploadStandardCalibration. */
    core::QumaMachine::LutProvider lutProvider();

    /** MDU calibration of (readout, window), memoized in the LUT
     *  layer and shared immutable. */
    std::shared_ptr<const measure::MduCalibration>
    mduCalibration(const qsim::ReadoutParams &readout, TimeNs window_ns);

    /** Adapter handing mduCalibration to uploadStandardCalibration. */
    core::QumaMachine::MduProvider mduProvider();

    /**
     * Tape-layer lookup for `source` assembled under the config with
     * key `config_key`, for a job whose budget is `max_cycles`. The
     * first sighting notes the pair and returns neither a tape nor a
     * check request.
     */
    TapeLookup tape(const std::string &source,
                    const std::string &config_key, Cycle max_cycles);

    /** Record the outcome of a check run under `max_cycles`: the
     *  tape, or null to reject. */
    void storeTape(const std::string &source, const std::string &config_key,
                   std::shared_ptr<const core::PhysicsTape> tape,
                   Cycle max_cycles);

    Stats stats() const;

    /** Programs currently resident in the program layer. */
    std::size_t programCount() const;
    /** LUT sets currently resident in the calibration layer. */
    std::size_t lutCount() const;

    /**
     * Register this cache's series with `registry` (quma_cache_*
     * family): callbacks that read the Stats fields and resident
     * counts under the cache mutex at render time. The cache must
     * outlive the registry's last render.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

  private:
    /** A tape-layer slot: unchecked, verified (tape) or rejected. */
    struct TapeSlot
    {
        std::shared_ptr<const core::PhysicsTape> tape;
        bool checked = false;
        /** Rejected: the largest budget a check ran under. A budget
         *  that cut the check's runs short says nothing about a job
         *  with a larger one. */
        Cycle rejectedUnder = 0;
    };

    mutable std::mutex mu;
    std::size_t maxPrograms;
    std::size_t maxLuts;
    std::unordered_map<std::string, std::shared_ptr<const isa::Program>>
        programs;
    std::deque<std::string> programOrder;
    std::unordered_map<
        std::string,
        std::shared_ptr<const std::map<Codeword, awg::StoredPulse>>>
        luts;
    std::deque<std::string> lutOrder;
    std::unordered_map<std::string,
                       std::shared_ptr<const measure::MduCalibration>>
        mduCals;
    std::deque<std::string> mduOrder;
    std::unordered_map<std::string, TapeSlot> tapes;
    std::deque<std::string> tapeOrder;
    Stats counters;
};

} // namespace quma::runtime

#endif // QUMA_RUNTIME_PROGRAM_CACHE_HH

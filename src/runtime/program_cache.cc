#include "runtime/program_cache.hh"

#include <algorithm>
#include <sstream>

#include "isa/assembler.hh"
#include "quma/tape.hh"
#include "runtime/keys.hh"

namespace quma::runtime {

namespace {

std::string
lutKey(const awg::CalibrationParams &p)
{
    std::ostringstream os;
    for (double v : {p.pulseNs, p.sigmaNs, p.ssbHz, p.rabiRadPerAmpNs,
                     p.rateHz, p.amplitudeError, p.msmtPulseNs,
                     p.czPulseNs})
        keys::appendBits(os, v);
    return os.str();
}

std::string
mduKey(const qsim::ReadoutParams &p, TimeNs window_ns)
{
    std::ostringstream os;
    for (double v : {p.c0.real(), p.c0.imag(), p.c1.real(), p.c1.imag(),
                     p.noiseSigma, p.ifHz, p.adcRateHz})
        keys::appendBits(os, v);
    keys::appendInt(os, static_cast<std::uint64_t>(window_ns));
    return os.str();
}

std::string
tapeKey(const std::string &source, const std::string &config_key)
{
    std::string key = config_key;
    key += '\0';
    key += source;
    return key;
}

/** Insert under `key` into a bounded FIFO layer, evicting the oldest
 *  entries past `bound`; returns the resident value. */
template <typename Map>
typename Map::mapped_type &
insertBounded(Map &layer, std::deque<std::string> &order, std::size_t bound,
              const std::string &key, typename Map::mapped_type value,
              std::size_t *evictions = nullptr)
{
    auto [it, inserted] = layer.emplace(key, std::move(value));
    if (inserted) {
        order.push_back(key);
        // The new key is the youngest, so it survives its own
        // insertion (every bound is at least 1).
        while (order.size() > bound) {
            layer.erase(order.front());
            order.pop_front();
            if (evictions)
                ++*evictions;
        }
    }
    return it->second;
}

} // namespace

ProgramCache::ProgramCache(std::size_t max_programs,
                           std::size_t max_luts)
    : maxPrograms(max_programs ? max_programs : 1),
      maxLuts(max_luts ? max_luts : 1)
{
}

std::shared_ptr<const isa::Program>
ProgramCache::assemble(const std::string &source)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = programs.find(source);
        if (it != programs.end()) {
            ++counters.programHits;
            return it->second;
        }
        ++counters.programMisses;
    }

    // Assemble outside the lock: compiles of distinct sources run in
    // parallel. A racing duplicate assembles twice and the results
    // are identical, so either insert is correct.
    isa::Assembler assembler;
    auto program =
        std::make_shared<const isa::Program>(assembler.assemble(source));

    std::lock_guard<std::mutex> lock(mu);
    std::size_t evicted = 0;
    auto resident = insertBounded(programs, programOrder, maxPrograms,
                                  source, program, &evicted);
    counters.programEvictions += evicted;
    return resident;
}

std::shared_ptr<const std::map<Codeword, awg::StoredPulse>>
ProgramCache::lut(const awg::CalibrationParams &params)
{
    std::string key = lutKey(params);
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = luts.find(key);
        if (it != luts.end()) {
            ++counters.lutHits;
            return it->second;
        }
        ++counters.lutMisses;
    }

    auto entries =
        std::make_shared<const std::map<Codeword, awg::StoredPulse>>(
            awg::buildStandardLutEntries(params));

    std::lock_guard<std::mutex> lock(mu);
    std::size_t evicted = 0;
    auto resident =
        insertBounded(luts, lutOrder, maxLuts, key, entries, &evicted);
    counters.lutEvictions += evicted;
    return resident;
}

core::QumaMachine::LutProvider
ProgramCache::lutProvider()
{
    return [this](const awg::CalibrationParams &params) {
        return lut(params);
    };
}

std::shared_ptr<const measure::MduCalibration>
ProgramCache::mduCalibration(const qsim::ReadoutParams &readout,
                             TimeNs window_ns)
{
    std::string key = mduKey(readout, window_ns);
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = mduCals.find(key);
        if (it != mduCals.end()) {
            ++counters.mduHits;
            return it->second;
        }
        ++counters.mduMisses;
    }

    auto cal = std::make_shared<const measure::MduCalibration>(
        measure::calibrateMdu(readout, window_ns));

    std::lock_guard<std::mutex> lock(mu);
    return insertBounded(mduCals, mduOrder, maxLuts, key, cal);
}

core::QumaMachine::MduProvider
ProgramCache::mduProvider()
{
    return [this](const qsim::ReadoutParams &readout, TimeNs window_ns) {
        return mduCalibration(readout, window_ns);
    };
}

ProgramCache::TapeLookup
ProgramCache::tape(const std::string &source, const std::string &config_key,
                   Cycle max_cycles)
{
    std::string key = tapeKey(source, config_key);
    std::lock_guard<std::mutex> lock(mu);
    auto it = tapes.find(key);
    if (it != tapes.end() && it->second.tape) {
        ++counters.tapeHits;
        return {it->second.tape, false};
    }
    ++counters.tapeMisses;
    if (it == tapes.end()) {
        insertBounded(tapes, tapeOrder, kMaxTapes, key, TapeSlot{});
        return {};
    }
    const TapeSlot &slot = it->second;
    const bool rejected = slot.checked && max_cycles <= slot.rejectedUnder;
    return {nullptr, !rejected, rejected};
}

void
ProgramCache::storeTape(const std::string &source,
                        const std::string &config_key,
                        std::shared_ptr<const core::PhysicsTape> tape,
                        Cycle max_cycles)
{
    std::string key = tapeKey(source, config_key);
    std::lock_guard<std::mutex> lock(mu);
    TapeSlot &slot =
        insertBounded(tapes, tapeOrder, kMaxTapes, key, TapeSlot{});
    // A verified tape stays: racing checks reach the same verdict,
    // or one ran under a budget too small to tell.
    if (slot.tape)
        return;
    if (tape) {
        slot.checked = true;
        slot.tape = std::move(tape);
        return;
    }
    if (!slot.checked)
        ++counters.tapeRejections;
    slot.checked = true;
    slot.rejectedUnder = std::max(slot.rejectedUnder, max_cycles);
}

ProgramCache::Stats
ProgramCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

std::size_t
ProgramCache::programCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return programs.size();
}

std::size_t
ProgramCache::lutCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return luts.size();
}

void
ProgramCache::bindMetrics(metrics::MetricsRegistry &registry)
{
    // Each counter reads its Stats field under mu at render time.
    auto counter = [this, &registry](const char *name, const char *help,
                                     std::size_t Stats::*field) {
        registry.counterFn(name, help, {}, [this, field] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.*field);
        });
    };
    counter("quma_cache_program_hits_total",
            "assemble() calls served from the program layer.",
            &Stats::programHits);
    counter("quma_cache_program_misses_total",
            "assemble() calls that ran the assembler.",
            &Stats::programMisses);
    counter("quma_cache_program_evictions_total",
            "Programs aged out of the bounded program layer (FIFO).",
            &Stats::programEvictions);
    counter("quma_cache_lut_hits_total",
            "Calibration uploads served from the LUT layer.",
            &Stats::lutHits);
    counter("quma_cache_lut_misses_total",
            "Calibration uploads that re-rendered the waveform tables.",
            &Stats::lutMisses);
    counter("quma_cache_lut_evictions_total",
            "LUT sets aged out of the bounded LUT layer (FIFO).",
            &Stats::lutEvictions);
    counter("quma_cache_tape_hits_total",
            "Tape lookups served a verified physics tape (rounds replay).",
            &Stats::tapeHits);
    counter("quma_cache_tape_misses_total",
            "Tape lookups with no tape: first sighting, check due, or a "
            "rejected (program, config) pair.",
            &Stats::tapeMisses);
    counter("quma_cache_tape_rejections_total",
            "(program, config) pairs the replay check rejected.",
            &Stats::tapeRejections);
    registry.gaugeFn("quma_cache_programs_resident",
                     "Programs currently held by the program layer.",
                     {}, [this] {
                         return static_cast<double>(programCount());
                     });
    registry.gaugeFn(
        "quma_cache_luts_resident",
        "LUT sets currently held by the calibration layer.", {},
        [this] { return static_cast<double>(lutCount()); });
}

} // namespace quma::runtime

/**
 * @file
 * Internal helpers for building memoization/shard keys, and the RNG
 * stream-derivation conventions of the runtime.
 *
 * Key building: values are streamed as exact bit patterns (no
 * formatting round-trip), so two keys are equal iff every field is
 * bitwise equal.
 *
 * RNG streams: a job seed fans out into independent generator seeds
 * via Rng::derive(seed, stream). The stream indices are fixed here so
 * every layer (scheduler, tests, benches) derives the same streams,
 * and roundStreams(rounds, r) is the ONE rule that picks the chip-noise
 * and stall-injection pair a round runs on:
 *
 *  - an OPAQUE job (JobSpec::rounds == 0) runs as a single round on
 *    kChipStream / kExecStream, exactly as in a single-machine
 *    session of its whole program;
 *
 *  - round r of a ROUND-STRUCTURED job (JobSpec::rounds > 0) runs on
 *    chipStreamOf(r) / execStreamOf(r). Because every round's
 *    randomness is a pure function of (job seed, round index) --
 *    never of which machine ran it, or of which rounds preceded it on
 *    that machine -- any contiguous partition of the rounds across
 *    workers' machines replays the exact same per-round draws, which is
 *    what makes shard merges bit-identical (see runtime/README.md,
 *    "Determinism contract").
 */

#ifndef QUMA_RUNTIME_KEYS_HH
#define QUMA_RUNTIME_KEYS_HH

#include <cstdint>
#include <cstring>
#include <sstream>

namespace quma::runtime {

/** Chip-noise stream of an opaque (whole-program) job. */
inline constexpr std::uint64_t kChipStream = 0;
/** Stall-injection stream of an opaque (whole-program) job. */
inline constexpr std::uint64_t kExecStream = 1;
/** First per-round stream index; rounds use pairs from here up. */
inline constexpr std::uint64_t kRoundStreamBase = 2;

/** Chip-noise stream of round `r` of a round-structured job. */
inline constexpr std::uint64_t
chipStreamOf(std::uint64_t round)
{
    return kRoundStreamBase + 2 * round;
}

/** Stall-injection stream of round `r` of a round-structured job. */
inline constexpr std::uint64_t
execStreamOf(std::uint64_t round)
{
    return kRoundStreamBase + 2 * round + 1;
}

/** The chip-noise and stall-injection stream pair of one round. */
struct RoundStreams
{
    std::uint64_t chip;
    std::uint64_t exec;
};

/** Streams of round `round` of a job with `rounds` rounds (see above). */
inline constexpr RoundStreams
roundStreams(std::uint64_t rounds, std::uint64_t round)
{
    if (rounds == 0)
        return {kChipStream, kExecStream};
    return {chipStreamOf(round), execStreamOf(round)};
}

namespace keys {

/** Append a double's exact bit pattern. */
inline void
appendBits(std::ostringstream &os, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    os << std::hex << bits << ',';
}

inline void
appendInt(std::ostringstream &os, std::uint64_t v)
{
    os << std::hex << v << ',';
}

} // namespace keys

} // namespace quma::runtime

#endif // QUMA_RUNTIME_KEYS_HH

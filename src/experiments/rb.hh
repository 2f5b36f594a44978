/**
 * @file
 * Single-qubit randomized benchmarking (paper §8, reference [60]).
 *
 * For each sequence length m, k random Clifford sequences are drawn;
 * each is followed by the recovery Clifford that inverts the net
 * operation, so an error-free run returns the qubit to |0>. The
 * survival probability decays as A * p^m + B; the average error per
 * Clifford is r = (1 - p) / 2 and the error per primitive gate is
 * r / 1.875 (average primitives per Clifford).
 */

#ifndef QUMA_EXPERIMENTS_RB_HH
#define QUMA_EXPERIMENTS_RB_HH

#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "experiments/clifford.hh"
#include "compiler/codegen.hh"
#include "quma/machine.hh"
#include "runtime/backend.hh"

namespace quma::experiments {

struct RbConfig
{
    /** Sequence lengths (number of random Cliffords before recovery). */
    std::vector<unsigned> lengths{2, 4, 8, 16, 32, 64};
    /** Random sequences per length. */
    unsigned seedsPerLength = 4;
    /** Averaging rounds per sequence. */
    std::size_t rounds = 128;
    unsigned qubit = 0;
    std::uint64_t seed = 0x4b;
    qsim::TransmonParams qubitParams = qsim::paperQubitParams();
    /**
     * Shard request for the service-routed variant: 0 = auto (each
     * length job of a large run becomes round-structured and splits
     * one shard per worker), 1 = whole-program length jobs, k >= 2 =
     * k shards per length. See runtime::JobSpec::shards.
     */
    std::size_t shards = 0;
};

struct RbResult
{
    std::vector<unsigned> lengths;
    /** Mean survival probability (rescaled) per length. */
    std::vector<double> survival;
    ExpFit fit;
    /** Depolarising parameter p per Clifford. */
    double p = 0.0;
    /** Average error per Clifford r = (1 - p) / 2. */
    double errorPerClifford = 0.0;
    /** Average error per primitive gate. */
    double errorPerGate = 0.0;
    core::RunResult run;
};

/** Run randomized benchmarking through the full microarchitecture. */
RbResult runRb(const RbConfig &config);

/**
 * Service-routed RB: every sequence length becomes its own runtime
 * job (its random sequences plus calibration points), so the lengths
 * run in parallel across the workers' machines. Length index i draws its
 * sequences from Rng::derive(config.seed, i) and its job (noise) seed
 * from Rng::derive(config.seed, 0x1000 + i), making the result
 * deterministic in config.seed and the worker count irrelevant --
 * though the drawn sequences differ from the sequential variant,
 * which consumes one RNG across all lengths.
 */
RbResult runRb(const RbConfig &config,
               runtime::IExperimentBackend &backend);

/**
 * Draw one random sequence of `length` Cliffords plus its recovery,
 * returning primitive gate names in temporal order.
 */
std::vector<std::string> drawRbSequence(unsigned length, Rng &rng);

} // namespace quma::experiments

#endif // QUMA_EXPERIMENTS_RB_HH

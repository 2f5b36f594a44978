/**
 * @file
 * Coherence-time experiments (paper §8): T1 relaxation, T2* Ramsey
 * and T2 echo, all executed through the full microarchitecture with
 * register-programmed delays (the runtime-computed timing the
 * QNopReg/Wait machinery exists for).
 */

#ifndef QUMA_EXPERIMENTS_COHERENCE_HH
#define QUMA_EXPERIMENTS_COHERENCE_HH

#include <vector>

#include "common/stats.hh"
#include "compiler/codegen.hh"
#include "quma/machine.hh"
#include "runtime/backend.hh"

namespace quma::experiments {

struct CoherenceConfig
{
    /** Delay sweep in cycles (total free-evolution time per point). */
    std::vector<Cycle> delaysCycles;
    /** Averaging rounds per sweep point. */
    std::size_t rounds = 256;
    unsigned qubit = 0;
    /**
     * Artificial detuning for Ramsey fringes (Hz). Implemented
     * physically: the drive carrier is offset, so the second pi/2
     * pulse's axis precesses at this rate relative to the qubit.
     */
    double artificialDetuningHz = 0.0;
    std::uint64_t seed = 0xc0ffee;
    qsim::TransmonParams qubitParams = qsim::paperQubitParams();
    /**
     * Shard request for the service-routed variants: 0 = auto (each
     * sweep-point job of a large sweep becomes round-structured and
     * splits one shard per worker), 1 = whole-program points, k >= 2
     * = k shards per point. See runtime::JobSpec::shards.
     */
    std::size_t shards = 0;

    /** A reasonable default sweep out to max_ns. */
    static CoherenceConfig withLinearSweep(TimeNs max_ns,
                                           unsigned points);
};

struct DecayResult
{
    std::vector<double> delaysNs;
    /** Measured |1> fidelity (readout-rescaled) per delay. */
    std::vector<double> population;
    ExpFit fit;
    core::RunResult run;
};

struct RamseyResult
{
    std::vector<double> delaysNs;
    std::vector<double> population;
    DampedCosineFit fit;
    core::RunResult run;
};

/** X180 - wait(tau) - measure: exponential T1 decay. */
DecayResult runT1(const CoherenceConfig &config);

/** X90 - wait(tau) - X90 - measure: detuned fringe with T2* decay. */
RamseyResult runRamsey(const CoherenceConfig &config);

/** X90 - tau/2 - X180 - tau/2 - Xm90: echo refocuses slow noise. */
DecayResult runEcho(const CoherenceConfig &config);

/**
 * CPMG echo train: X90, then n_pi equally spaced X180 refocusing
 * pulses across tau, then the closing pi/2 chosen so an error-free
 * run ends in |1>. n_pi = 1 reduces to the Hahn echo. Against the
 * model's quasi-static (shot-correlated) noise, any n_pi refocuses
 * fully and the decay is set by the Markovian T2 -- itself a tested
 * physics statement.
 */
DecayResult runCpmg(const CoherenceConfig &config, unsigned n_pi);

/**
 * Service-routed variants: every delay of the sweep becomes its own
 * runtime job (one single-point program plus its two calibration
 * points), so the points execute in parallel across the workers'
 * machines, all bound to one config. Results are
 * deterministic in config.seed: point i derives its RNG streams from
 * Rng::derive(config.seed, i), independent of worker count. Note the
 * noise realisation therefore differs from the sequential variant
 * (one machine, one stream) while the physics and fits agree.
 */
DecayResult runT1(const CoherenceConfig &config,
                  runtime::IExperimentBackend &backend);
RamseyResult runRamsey(const CoherenceConfig &config,
                       runtime::IExperimentBackend &backend);
DecayResult runEcho(const CoherenceConfig &config,
                    runtime::IExperimentBackend &backend);
DecayResult runCpmg(const CoherenceConfig &config, unsigned n_pi,
                    runtime::IExperimentBackend &backend);

} // namespace quma::experiments

#endif // QUMA_EXPERIMENTS_COHERENCE_HH

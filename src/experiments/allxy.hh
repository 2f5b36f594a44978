/**
 * @file
 * The AllXY gate-characterisation experiment (paper §4.1, §8,
 * Figure 9).
 *
 * 21 pairs of back-to-back single-qubit gates, each measured twice
 * (42 points) and averaged over N rounds. Ideally the first 5 pairs
 * return the qubit to |0>, the next 12 leave it on the equator
 * (fidelity 1/2) and the last 4 drive it to |1> -- the "staircase".
 * Different pulse errors (amplitude, detuning, timing) produce
 * distinct deviations from the staircase, which is why the
 * experiment validates both the pulses and the microarchitecture's
 * timing.
 */

#ifndef QUMA_EXPERIMENTS_ALLXY_HH
#define QUMA_EXPERIMENTS_ALLXY_HH

#include <array>
#include <string>
#include <vector>

#include "compiler/codegen.hh"
#include "quma/machine.hh"
#include "runtime/backend.hh"

namespace quma::experiments {

/** One AllXY gate pair with its Figure 9 label. */
struct AllxyPair
{
    std::string label;
    std::string first;
    std::string second;
    /** Ideal |1>-state fidelity after the pair. */
    double ideal;
};

/** The 21 pairs in the paper's order. */
const std::array<AllxyPair, 21> &allxyPairs();

/** The ideal 42-point staircase (each pair doubled). */
std::vector<double> idealAllxySignature();

struct AllxyConfig
{
    /** Averaging rounds N (paper: 25600). */
    std::size_t rounds = 512;
    /** Simulated qubit index to drive. */
    unsigned qubit = 0;
    /** Fractional pulse amplitude miscalibration to inject. */
    double amplitudeError = 0.0;
    /** Drive-carrier detuning from the qubit (Hz) to inject. */
    double detuningHz = 0.0;
    /**
     * Extra cycles of spacing between the two gates of each pair:
     * one cycle delays the SECOND pulse by the paper's 5 ns, which
     * under the -50 MHz SSB rotates its axis by 90 degrees relative
     * to the first (x becomes y) and visibly distorts the staircase.
     */
    Cycle interPulseSkewCycles = 0;
    /** Emit QIS-level gates (true) or raw QuMIS (false). */
    bool useQisGates = true;
    /** Enable random stall injection in the execution controller. */
    bool stallInjection = true;
    std::uint64_t seed = 0x5eed;
    qsim::TransmonParams qubitParams = qsim::paperQubitParams();
    /**
     * Shard request for the service-routed variant: 0 = auto (large
     * sweeps become round-structured jobs the runtime splits one
     * shard per worker), 1 = keep the whole averaging loop in one
     * program on one machine, k >= 2 = ask for k shards. The result
     * of a round-structured job is bit-identical for every shard and
     * worker count (see runtime/README.md).
     */
    std::size_t shards = 0;
};

struct AllxyResult
{
    /** 42 point labels (pairs doubled). */
    std::vector<std::string> labels;
    /** Averaged integration results per point (data collector). */
    std::vector<double> rawS;
    /** Readout-error-corrected fidelity per point (Figure 9). */
    std::vector<double> fidelity;
    std::vector<double> ideal;
    /** Mean absolute deviation from the ideal staircase. */
    double deviation = 0.0;
    core::RunResult run;
};

/** Build the AllXY program for the given round count. */
compiler::QuantumProgram buildAllxyProgram(std::size_t rounds,
                                           unsigned qubit);

/** Machine configuration implementing an AllxyConfig. */
core::MachineConfig allxyMachineConfig(const AllxyConfig &config);

/** Run AllXY end to end through the full microarchitecture. */
AllxyResult runAllxy(const AllxyConfig &config);

/**
 * Run AllXY as a runtime job on any experiment backend -- the local
 * ExperimentService or a remote QumaClient. Results are
 * deterministic in config.seed (the job derives its RNG streams from
 * it), independent of worker count, machine state, or which side of a
 * wire the runtime sits on.
 */
AllxyResult runAllxy(const AllxyConfig &config,
                     runtime::IExperimentBackend &backend);

/** The JobSpec runAllxy(config, backend) submits (one AllXY run). */
runtime::JobSpec allxyJob(const AllxyConfig &config);

/**
 * Rescale raw averages into fidelity using the calibration points
 * (paper §8): points 0-1 (II) give the |0> reference; points 34-37
 * (XI, YI) give the |1> reference.
 */
std::vector<double> rescaleAllxy(const std::vector<double> &raw);

} // namespace quma::experiments

#endif // QUMA_EXPERIMENTS_ALLXY_HH

/**
 * @file
 * The assembled QuMA system: master controller (execution controller,
 * physical microcode unit, QMB, timing control unit, digital outputs,
 * MDUs, data collection unit), the AWG boards, and the simulated
 * transmon chip behind the quantum-classical interface -- the whole
 * of the paper's Figures 4 and 7 in one object.
 *
 * The host-PC API mirrors the experimental flow of paper §8: upload
 * the calibrated lookup tables, load the (assembled) program into the
 * quantum instruction cache, run, and retrieve the averaged results
 * from the data collection unit.
 */

#ifndef QUMA_QUMA_MACHINE_HH
#define QUMA_QUMA_MACHINE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "awg/awgmodule.hh"
#include "awg/calibration.hh"
#include "measure/datacollector.hh"
#include "measure/digitaloutput.hh"
#include "measure/mdu.hh"
#include "qsim/transmon.hh"
#include "quma/execcontroller.hh"
#include "quma/qmb.hh"
#include "quma/trace.hh"
#include "signal/pulse.hh"

namespace quma::core {

struct PhysicsTape;
class TapeWriter;

struct MachineConfig
{
    /** The chip: one entry per simulated qubit. */
    std::vector<qsim::TransmonParams> qubits{qsim::paperQubitParams()};

    /** Number of AWG boards (paper: 3 two-channel boards). */
    unsigned numAwgs = 3;
    /** Drive AWG per qubit; empty = round-robin over numAwgs. */
    std::vector<unsigned> driveAwg;

    /** SSB modulation programmed into the calibration (-50 MHz). */
    double ssbHz = -50.0e6;
    /** Single-qubit pulse duration (ns). */
    double pulseNs = 20.0;
    /**
     * Gate spacing (cycles) used by the control store's Wait after
     * each gate; 0 derives it from pulseNs (4 cycles = 20 ns).
     * Setting 5 injects the paper's 5 ns inter-pulse timing error.
     */
    Cycle gateWaitCycles = 0;
    /** Amplitude miscalibration injected into every gate pulse. */
    double amplitudeError = 0.0;
    /** Drive-carrier detuning from resonance (Hz, 0 = calibrated). */
    double carrierDetuningHz = 0.0;

    /** u-op unit delay Delta (cycles). */
    Cycle uopDelayCycles = 2;
    /** CTPG fixed delay (cycles; 16 = 80 ns). */
    Cycle ctpgDelayCycles = kCtpgDelayCycles;
    /** MDU discrimination latency (cycles; 100 = 500 ns < 1 us). */
    Cycle mduLatencyCycles = 100;
    /** Default measurement pulse duration for Measure (cycles). */
    Cycle msmtCycles = 300;
    /**
     * Fixed latency of the measurement-pulse path (digital output ->
     * gated source -> chip), in cycles. Calibrated to match the gate
     * path (u-op delay + CTPG delay) so that pulses and measurement
     * windows scheduled back-to-back in the program arrive
     * back-to-back at the chip, as in the experimental setup. -1
     * selects that default.
     */
    std::int64_t msmtPathDelayCycles = -1;
    /** CZ flux pulse duration (ns). */
    TimeNs czDurationNs = 40;
    /** Readout carrier gated by the digital outputs (Hz). */
    double msmtCarrierHz = 6.849e9;

    ExecConfig exec;
    timing::TimingConfig timing;
    std::size_t qmbDepth = 16;
    unsigned qmbDrainRate = 1;

    /** Chip / readout noise seed. */
    std::uint64_t chipSeed = 0x9b1d;
    /** Record a full execution trace (Tables 2-5, Figures 3/5). */
    bool traceEnabled = false;
};

/** Summary of one run. */
struct RunResult
{
    Cycle cyclesRun = 0;
    bool halted = false;
    timing::TimingViolations violations;

    bool operator==(const RunResult &) const = default;

    /**
     * Fold another run into a sweep-level aggregate: cycle counts
     * and violation counters add, halted ANDs. `first` marks the
     * first fold (it initialises halted).
     */
    void
    accumulate(const RunResult &other, bool first)
    {
        cyclesRun += other.cyclesRun;
        halted = (first || halted) && other.halted;
        violations.latePoints += other.violations.latePoints;
        violations.staleEvents += other.violations.staleEvents;
        violations.totalLateCycles += other.violations.totalLateCycles;
    }
};

/** Observable machine counters (pool saturation, pipeline health). */
struct MachineStats
{
    timing::TimingUnitStats queues;
    ExecStats exec;
    std::size_t microInstsIssued = 0;
    /** Cycles the most recent run's event loop visited. */
    std::size_t cyclesVisited = 0;
};

class QumaMachine
{
  public:
    explicit QumaMachine(MachineConfig config);

    const MachineConfig &config() const { return cfg; }

    /**
     * Supplier of pre-rendered LUT content for a calibration. When
     * set, uploadStandardCalibration copies the returned entries
     * instead of rendering them -- the runtime's program cache uses
     * this to share one rendered LUT across a machine pool.
     */
    using LutProvider = std::function<std::shared_ptr<
        const std::map<Codeword, awg::StoredPulse>>(
        const awg::CalibrationParams &)>;

    /**
     * Supplier of MDU calibrations for (readout, window). When set,
     * uploadStandardCalibration shares the returned calibration
     * instead of computing its own; the program cache uses this like
     * the LutProvider.
     */
    using MduProvider =
        std::function<std::shared_ptr<const measure::MduCalibration>(
            const qsim::ReadoutParams &, TimeNs)>;

    /** Upload the Table 1 LUTs and calibrate every MDU. */
    void uploadStandardCalibration(const LutProvider &provider = {},
                                   const MduProvider &mdu_provider = {});

    /** Load an assembled program into the instruction cache. */
    void loadProgram(isa::Program program);
    /** Assemble and load. */
    void loadAssembly(const std::string &source);

    /** Configure ensemble averaging with K bins (paper: K = 42). */
    void configureDataCollection(std::size_t k);

    /**
     * Run until the program halts and all queues/pipelines drain,
     * or until max_cycles elapses. A run cut off by max_cycles
     * reports halted = false and cyclesRun = max_cycles.
     */
    RunResult run(Cycle max_cycles = 2'000'000'000ULL);

    /** run() that also records the run's chip kernels and MDU
     *  deliveries into `tape` (quma/tape.hh); tape.result receives
     *  the RunResult. */
    RunResult recordRun(PhysicsTape &tape,
                        Cycle max_cycles = 2'000'000'000ULL);

    /**
     * Control-schedule replay: instead of running the loaded
     * program, apply the chip kernels, MDU integrations and collector
     * feeds `tape` recorded, in its order, and return its RunResult.
     * The chip's clock never runs; a static-frame qubit's idles and
     * rotations apply the factors and gates the tape stores.
     * Called where run() would be (after reset -> configure ->
     * loadProgram), it leaves the collector bit-identical to a full
     * run of an eligible program (see verifyTape). The tape is only
     * read; replayed runs visit no cycles. Only the runtime replays:
     * direct callers always get the full machine from run().
     */
    RunResult replay(const PhysicsTape &tape);

    /**
     * Re-arm the machine to its freshly-constructed state without
     * reconstruction: all pipelines, queues, registers, data memory,
     * collected data and RNG streams are rewound, so a subsequent
     * loadProgram + run reproduces a fresh machine's results bit for
     * bit. Uploaded calibration (LUTs, MDU weights) is preserved --
     * this is what makes pooled machines cheap to reuse.
     */
    void reset();

    /**
     * reset(), additionally re-deriving the stochastic domains from
     * new seeds (chip/readout noise and execution stall injection).
     * The runtime uses this to give every job its own deterministic
     * RNG streams regardless of which pooled machine runs it.
     */
    void reset(std::uint64_t chip_seed, std::uint64_t exec_seed);

    // --- component access (tests, benches, examples) ---
    RegisterFile &registers() { return exec->registers(); }
    ExecutionController &execController() { return *exec; }
    QuantumPipeline &pipeline() { return *qp; }
    timing::TimingController &timingUnit() { return *tcu; }
    awg::AwgModule &awgModule(unsigned i);
    measure::Mdu &mdu(unsigned qubit);
    measure::DigitalOutputUnit &digitalOutputs() { return *digOut; }
    measure::DataCollectionUnit &dataCollector() { return collector; }
    qsim::TransmonChip &chip() { return *chipSim; }
    TraceRecorder &trace() { return recorder; }

    const timing::TimingViolations &violations() const;

    /** Queue-saturation and pipeline counters for this run. */
    MachineStats stats() const;

  private:
    void wire();
    void onPulseFired(unsigned queue, Cycle td,
                      const timing::PulseEvent &ev);
    void onMpgFired(Cycle td, const timing::MpgEvent &ev);
    void onMdFired(unsigned queue, Cycle td, const timing::MdEvent &ev);
    void onDrivePulse(unsigned awg_index, const signal::DrivePulse &pulse,
                      Codeword cw, QubitMask mask);
    void onMeasurementPulse(unsigned qubit,
                            const signal::MeasurementPulse &pulse);
    void onMduResult(unsigned qubit, const measure::MduResult &r);

    [[noreturn]] void reportWedge(Cycle now) const;

    // --- event source ids (indices into nextDue, bit positions in
    //     the due/woken masks; fixed processing order = fixed
    //     dispatch order) ---
    static constexpr unsigned kSrcTcu = 0;
    unsigned srcAwg(unsigned a) const { return 1 + a; }
    unsigned srcDigOut() const { return 1 + cfg.numAwgs; }
    unsigned srcMdu(unsigned q) const { return 2 + cfg.numAwgs + q; }
    unsigned srcQp() const
    {
        return 2 + cfg.numAwgs +
               static_cast<unsigned>(cfg.qubits.size());
    }
    unsigned srcExec() const { return srcQp() + 1; }
    unsigned numEventSources() const { return srcExec() + 1; }

    MachineConfig cfg;
    QubitRouting routing;
    TraceRecorder recorder;

    std::unique_ptr<timing::TimingController> tcu;
    std::unique_ptr<QuantumPipeline> qp;
    std::unique_ptr<ExecutionController> exec;
    std::unique_ptr<measure::DigitalOutputUnit> digOut;
    std::vector<std::unique_ptr<awg::AwgModule>> awgs;
    std::vector<std::unique_ptr<measure::Mdu>> mdus;
    std::unique_ptr<qsim::TransmonChip> chipSim;
    measure::DataCollectionUnit collector;

    /** Pending write-back mode (overwrite, bit) per MDU. */
    std::vector<std::pair<bool, unsigned>> mdWriteMode;
    /** Resolved measurement path delay (cycles). */
    Cycle msmtDelay = 0;

    /** Cached next due cycle per event source (kIdle when none);
     *  run() refreshes only the sources it touched each cycle. */
    std::vector<Cycle> nextDue;
    /** Sources poked by a cross-component sink this cycle; their
     *  advanceTo must run even if their cached due is later. */
    std::uint64_t wokenMask = 0;
    /** Cycles visited by the most recent run's event loop. */
    std::size_t cyclesVisited = 0;

    /** Delivery recorder of a recordRun (also the chip's kernel
     *  sink), null otherwise. */
    TapeWriter *taping = nullptr;
    /** replay() scratch, sized by the first replay of a tape: the
     *  integrated shot per slot and the pulse handed to the chip. */
    std::vector<std::pair<double, bool>> replayShots;
    signal::DrivePulse replayPulse;

    bool calibrated = false;
    bool ran = false;
};

} // namespace quma::core

#endif // QUMA_QUMA_MACHINE_HH

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

    bool operator==(const MachineConfig &) const = default;
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

/** Observable machine counters (queue saturation, pipeline health). */
struct MachineStats
{
    timing::TimingUnitStats queues;
    ExecStats exec;
    std::size_t microInstsIssued = 0;
    /** Cycles the most recent run's event loop visited. */
    std::size_t cyclesVisited = 0;

    bool operator==(const MachineStats &) const = default;
};

/**
 * The machine is two halves. The PHYSICS half is the chip and the
 * MDUs: all a control-schedule replay touches. The CONTROL half is
 * the execution controller, pipeline, timing control unit, digital
 * outputs and the AWGs with their LUTs: what a full run adds. The
 * physics half is built with the machine; the control half is built
 * on first use, from the config (seeds included) and the program
 * loadProgram kept, so a machine that only replays never builds it.
 */
class QumaMachine
{
  public:
    explicit QumaMachine(MachineConfig config);
    ~QumaMachine();
    /** Its components' sinks hold `this`. */
    QumaMachine(const QumaMachine &) = delete;
    QumaMachine &operator=(const QumaMachine &) = delete;

    /**
     * Throw FatalError unless `config` describes a buildable machine:
     * 1..DensityMatrix::kMaxQubits qubits, at least one AWG, a drive
     * AWG per qubit in range, at most 64 event sources, and a
     * positive issue width, QMB depth and drain rate. Checks the
     * structure only and builds nothing, so a hostile config (say a
     * million AWGs) is rejected at once.
     */
    static void validate(const MachineConfig &config);

    const MachineConfig &config() const { return cfg; }

    /**
     * Turn this machine into a machine of `config`, as uploading new
     * LUT entries re-targets the paper's control hardware without
     * replacing it. Contract: a machine rebound A -> B is observably
     * identical to QumaMachine(B) given the same calibration upload
     * -- run, recordRun, replay, stats and the trace all match bit
     * for bit. Seeds come from `config` too.
     *
     *  - The config is validated first; a rejected config throws and
     *    leaves the machine bound to A, untouched.
     *  - The physics half is rebuilt only when its inputs (qubits,
     *    msmtCycles, mduLatencyCycles) differ, into locals committed
     *    once both chip and MDUs are built.
     *  - Any difference but the seeds drops the control half; the
     *    next full run rebuilds it, uploading through the LUT
     *    provider the machine was calibrated with.
     *  - The machine is then rewound as by reset(). Rebinding to the
     *    current config therefore builds nothing: it is reset().
     */
    void rebind(const MachineConfig &config);

    /**
     * Supplier of pre-rendered LUT content for a calibration. When
     * set, uploadStandardCalibration copies the returned entries
     * instead of rendering them -- the runtime's program cache uses
     * this to share one rendered LUT across its workers' machines.
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

    /**
     * Upload the Table 1 LUTs and calibrate every MDU. The machine
     * keeps both providers: a control half built later uploads its
     * LUTs through the same one.
     */
    void uploadStandardCalibration(const LutProvider &provider = {},
                                   const MduProvider &mdu_provider = {});

    /** Load an assembled program into the instruction cache. The
     *  machine keeps it; the execution controller runs it in place. */
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
     * The chip's clock never runs; every rotation applies the gate
     * the tape stores, and a static-frame qubit's idles the stored
     * factors.
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
     * this is what makes a machine cheap to reuse. Builds nothing.
     */
    void reset();

    /**
     * reset(), additionally re-deriving the stochastic domains from
     * new seeds (chip/readout noise and execution stall injection).
     * The runtime uses this to give every job its own deterministic
     * RNG streams regardless of which worker's machine runs it.
     */
    void reset(std::uint64_t chip_seed, std::uint64_t exec_seed);

    // --- component access (tests, benches, examples); the control
    //     half's accessors build it first ---
    RegisterFile &registers() { return control().exec.registers(); }
    ExecutionController &execController() { return control().exec; }
    QuantumPipeline &pipeline() { return control().qp; }
    timing::TimingController &timingUnit() { return control().tcu; }
    awg::AwgModule &awgModule(unsigned i);
    measure::Mdu &mdu(unsigned qubit);
    measure::DigitalOutputUnit &digitalOutputs()
    {
        return control().digOut;
    }
    measure::DataCollectionUnit &dataCollector() { return collector; }
    qsim::TransmonChip &chip() { return *chipSim; }
    TraceRecorder &trace() { return recorder; }

    /** The timing unit's violations (builds a stale control half). */
    const timing::TimingViolations &violations();

    /** Queue-saturation and pipeline counters for this run (builds a
     *  stale control half, whose counters are then zero). */
    MachineStats stats();

  private:
    /** The control half; see the class comment. */
    struct Control
    {
        Control(const MachineConfig &cfg, TraceRecorder &recorder);
        /** The pipeline and controller hold references into it. */
        Control(const Control &) = delete;
        Control &operator=(const Control &) = delete;

        QubitRouting routing;
        timing::TimingController tcu;
        QuantumPipeline qp;
        ExecutionController exec;
        measure::DigitalOutputUnit digOut;
        std::vector<std::unique_ptr<awg::AwgModule>> awgs;
        /** Resolved measurement path delay (cycles). */
        Cycle msmtDelay = 0;
        /** Cached next due cycle per event source (kIdle when
         *  none); run() refreshes only the sources it touched each
         *  cycle. */
        std::vector<Cycle> nextDue;
    };

    /** The control half, built first if stale. */
    Control &control();
    /** Build the physics half of `config` (chip, and the MDUs once
     *  calibrated) and commit it only when all of it is built. */
    void buildPhysics(const MachineConfig &config);
    /** One calibrated MDU per qubit of `config`, result sinks wired. */
    std::vector<std::unique_ptr<measure::Mdu>>
    buildMdus(const MachineConfig &config);
    /** Upload the Table 1 LUTs into the control half's AWGs. */
    void uploadLuts(Control &c);
    void wire(Control &c);
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
    TraceRecorder recorder;
    /** The program loadProgram kept; the execution controller runs
     *  it in place, and a rebuilt control half loads it. */
    isa::Program program;
    /** Providers of the calibration upload (empty: render and
     *  calibrate locally). */
    LutProvider lutProvider;
    MduProvider mduProvider;

    /** Physics half. */
    std::unique_ptr<qsim::TransmonChip> chipSim;
    std::vector<std::unique_ptr<measure::Mdu>> mdus;
    /** Control half; null while stale. */
    std::unique_ptr<Control> ctl;
    measure::DataCollectionUnit collector;

    /** Pending write-back mode (overwrite, bit) per MDU. */
    std::vector<std::pair<bool, unsigned>> mdWriteMode;

    /** Sources poked by a cross-component sink this cycle; their
     *  advanceTo must run even if their cached due is later. */
    std::uint64_t wokenMask = 0;
    /** Cycles visited by the most recent run's event loop. */
    std::size_t cyclesVisited = 0;

    /** Delivery recorder of a recordRun (also the chip's kernel
     *  sink), null otherwise. */
    TapeWriter *taping = nullptr;
    /** replay() scratch, sized by the first replay of a tape: the
     *  integrated shot per slot. */
    std::vector<std::pair<double, bool>> replayShots;

    bool calibrated = false;
    bool ran = false;
};

} // namespace quma::core

#endif // QUMA_QUMA_MACHINE_HH

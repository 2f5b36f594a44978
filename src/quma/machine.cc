#include "quma/machine.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "isa/assembler.hh"
#include "isa/nametable.hh"
#include "qsim/density.hh"
#include "quma/tape.hh"

namespace quma::core {

namespace {

/** Drive AWG per qubit (round-robin default) and one MDU per qubit. */
QubitRouting
routingOf(const MachineConfig &cfg)
{
    const auto nq = static_cast<unsigned>(cfg.qubits.size());
    QubitRouting routing;
    routing.driveAwg = cfg.driveAwg;
    if (routing.driveAwg.empty())
        for (unsigned q = 0; q < nq; ++q)
            routing.driveAwg.push_back(q % cfg.numAwgs);
    for (unsigned q = 0; q < nq; ++q)
        routing.mdu.push_back(q);
    return routing;
}

/** The timing control unit: one pulse queue per AWG and one MD queue
 *  per qubit. */
timing::TimingConfig
timingConfigOf(const MachineConfig &cfg)
{
    timing::TimingConfig tc = cfg.timing;
    tc.numPulseQueues = cfg.numAwgs;
    tc.numMdQueues = static_cast<unsigned>(cfg.qubits.size());
    return tc;
}

microcode::QControlStore
controlStoreOf(const MachineConfig &cfg)
{
    Cycle gate_wait = cfg.gateWaitCycles != 0
                          ? cfg.gateWaitCycles
                          : nsToCycles(static_cast<TimeNs>(cfg.pulseNs));
    return microcode::QControlStore::standard(gate_wait, cfg.msmtCycles);
}

/** TCU, one per AWG, digital outputs, one MDU per qubit, QMB and
 *  execution controller (QumaMachine::numEventSources); counted wide
 *  so no numAwgs can wrap. */
std::uint64_t
eventSourcesOf(const MachineConfig &cfg)
{
    return std::uint64_t{cfg.numAwgs} + cfg.qubits.size() + 4;
}

/** a == b apart from the seeds, which reset() re-derives. */
bool
sameButSeeds(const MachineConfig &a, MachineConfig b)
{
    b.chipSeed = a.chipSeed;
    b.exec.seed = a.exec.seed;
    return a == b;
}

} // namespace

void
QumaMachine::validate(const MachineConfig &config)
{
    const std::size_t nq = config.qubits.size();
    if (nq == 0 || nq > qsim::DensityMatrix::kMaxQubits)
        fatal("machine needs 1..", qsim::DensityMatrix::kMaxQubits,
              " qubits, got ", nq);
    if (config.numAwgs == 0)
        fatal("machine needs at least one AWG");
    if (!config.driveAwg.empty() && config.driveAwg.size() != nq)
        fatal("driveAwg must have one entry per qubit");
    for (std::size_t q = 0; q < config.driveAwg.size(); ++q)
        if (config.driveAwg[q] >= config.numAwgs)
            fatal("driveAwg[", q, "] out of range");
    const std::uint64_t sources = eventSourcesOf(config);
    if (sources > 64)
        fatal("machine has ", sources,
              " event sources; the due masks hold at most 64");
    if (config.exec.issueWidth == 0)
        fatal("issue width must be at least 1");
    if (config.qmbDepth == 0 || config.qmbDrainRate == 0)
        fatal("QMB needs positive depth and drain rate");
}

QumaMachine::Control::Control(const MachineConfig &cfg,
                              TraceRecorder &recorder)
    : routing(routingOf(cfg)), tcu(timingConfigOf(cfg)),
      qp(controlStoreOf(cfg), routing, tcu, recorder, cfg.qmbDepth,
         cfg.qmbDrainRate),
      exec(cfg.exec, qp),
      digOut(std::max(8u, static_cast<unsigned>(cfg.qubits.size())),
             cfg.msmtCarrierHz),
      msmtDelay(cfg.msmtPathDelayCycles >= 0
                    ? static_cast<Cycle>(cfg.msmtPathDelayCycles)
                    : cfg.uopDelayCycles + cfg.ctpgDelayCycles)
{
    // One AWG board per configured unit. Each board's carrier sits
    // ssb away from the (first) served qubit's transition so the
    // calibrated SSB modulation lands on resonance.
    const auto nq = static_cast<unsigned>(cfg.qubits.size());
    auto seqTable = microcode::UopSequenceTable::standard();
    for (unsigned a = 0; a < cfg.numAwgs; ++a) {
        awg::AwgConfig ac;
        ac.servedQubits = 0;
        double carrier = 0.0;
        for (unsigned q = 0; q < nq; ++q) {
            if (routing.driveAwg[q] == a) {
                ac.servedQubits |= QubitMask{1} << q;
                if (carrier == 0.0)
                    carrier = cfg.qubits[q].freqHz - cfg.ssbHz +
                              cfg.carrierDetuningHz;
            }
        }
        if (carrier == 0.0)
            carrier = cfg.qubits[0].freqHz - cfg.ssbHz;
        ac.uopDelayCycles = cfg.uopDelayCycles;
        ac.ctpg.delayCycles = cfg.ctpgDelayCycles;
        ac.ctpg.carrierHz = carrier;
        ac.ctpg.ssbHz = cfg.ssbHz;
        awgs.push_back(std::make_unique<awg::AwgModule>(ac, seqTable));
    }
    nextDue.assign(eventSourcesOf(cfg), 0);
}

QumaMachine::QumaMachine(MachineConfig config) : cfg(std::move(config))
{
    validate(cfg);
    recorder.setEnabled(cfg.traceEnabled);
    buildPhysics(cfg);
    mdWriteMode.assign(cfg.qubits.size(), {true, 0});
}

QumaMachine::~QumaMachine() = default;

void
QumaMachine::rebind(const MachineConfig &config)
{
    validate(config);
    MachineConfig next = config;
    if (next.qubits != cfg.qubits || next.msmtCycles != cfg.msmtCycles ||
        next.mduLatencyCycles != cfg.mduLatencyCycles)
        buildPhysics(next);
    if (!sameButSeeds(cfg, next))
        ctl.reset();
    cfg = std::move(next);
    recorder.setEnabled(cfg.traceEnabled);
    reset(cfg.chipSeed, cfg.exec.seed);
}

void
QumaMachine::buildPhysics(const MachineConfig &config)
{
    auto chip = std::make_unique<qsim::TransmonChip>(config.qubits,
                                                     config.chipSeed);
    // MDUs are calibrated in uploadStandardCalibration(): until then
    // there are none (they need the readout window).
    std::vector<std::unique_ptr<measure::Mdu>> units;
    if (calibrated)
        units = buildMdus(config);
    chipSim = std::move(chip);
    mdus = std::move(units);
}

std::vector<std::unique_ptr<measure::Mdu>>
QumaMachine::buildMdus(const MachineConfig &config)
{
    std::vector<std::unique_ptr<measure::Mdu>> units;
    const TimeNs window = cyclesToNs(config.msmtCycles);
    for (unsigned q = 0; q < config.qubits.size(); ++q) {
        const qsim::ReadoutParams &readout = config.qubits[q].readout;
        auto unit = std::make_unique<measure::Mdu>(
            mduProvider ? mduProvider(readout, window)
                        : std::make_shared<const measure::MduCalibration>(
                              measure::calibrateMdu(readout, window)),
            config.mduLatencyCycles);
        unit->setResultSink([this, q](const measure::MduResult &r) {
            onMduResult(q, r);
        });
        units.push_back(std::move(unit));
    }
    return units;
}

QumaMachine::Control &
QumaMachine::control()
{
    if (!ctl) {
        auto c = std::make_unique<Control>(cfg, recorder);
        wire(*c);
        if (calibrated)
            uploadLuts(*c);
        c->exec.loadProgram(program);
        ctl = std::move(c);
    }
    return *ctl;
}

void
QumaMachine::wire(Control &c)
{
    c.tcu.setPulseSink([this](unsigned queue, Cycle td,
                              const timing::PulseEvent &ev) {
        onPulseFired(queue, td, ev);
    });
    c.tcu.setMpgSink([this](Cycle td, const timing::MpgEvent &ev) {
        onMpgFired(td, ev);
    });
    c.tcu.setMdSink([this](unsigned queue, Cycle td,
                           const timing::MdEvent &ev) {
        onMdFired(queue, td, ev);
    });
    c.tcu.setFireObserver([this](Cycle td, TimingLabel label) {
        recorder.recordLabelFire({td, label});
    });
    for (unsigned a = 0; a < c.awgs.size(); ++a) {
        c.awgs[a]->setPulseSink([this, a](const signal::DrivePulse &pulse,
                                          Codeword cw, QubitMask mask) {
            onDrivePulse(a, pulse, cw, mask);
        });
        c.awgs[a]->setTriggerObserver(
            [this, a](Codeword cw, Cycle td, QubitMask mask) {
                recorder.recordCodeword({td, a, cw, mask});
            });
    }
    c.digOut.setPulseSink([this](unsigned qubit,
                                 const signal::MeasurementPulse &pulse) {
        onMeasurementPulse(qubit, pulse);
    });
}

void
QumaMachine::uploadStandardCalibration(const LutProvider &provider,
                                       const MduProvider &mdu_provider)
{
    lutProvider = provider;
    mduProvider = mdu_provider;
    mdus = buildMdus(cfg);
    calibrated = true;
    if (ctl)
        uploadLuts(*ctl);
}

void
QumaMachine::uploadLuts(Control &c)
{
    const auto nq = static_cast<unsigned>(cfg.qubits.size());
    for (unsigned a = 0; a < c.awgs.size(); ++a) {
        // Calibrate against the first qubit the board serves.
        double gain = cfg.qubits[0].rabiRadPerAmpNs;
        for (unsigned q = 0; q < nq; ++q) {
            if (c.routing.driveAwg[q] == a) {
                gain = cfg.qubits[q].rabiRadPerAmpNs;
                break;
            }
        }
        awg::CalibrationParams cp;
        cp.pulseNs = cfg.pulseNs;
        cp.ssbHz = cfg.ssbHz;
        cp.rabiRadPerAmpNs = gain;
        cp.amplitudeError = cfg.amplitudeError;
        cp.msmtPulseNs =
            static_cast<double>(cyclesToNs(cfg.msmtCycles));
        if (lutProvider)
            awg::uploadLut(c.awgs[a]->waveMemory(), *lutProvider(cp));
        else
            awg::buildStandardLut(c.awgs[a]->waveMemory(), cp);
    }
}

void
QumaMachine::loadProgram(isa::Program loaded)
{
    program = std::move(loaded);
    // Re-arm the deterministic domain and re-initialise the chip so
    // a machine can run successive programs. A stale control half is
    // left stale: its rebuild loads the kept program.
    if (ctl) {
        ctl->exec.loadProgram(program);
        ctl->tcu.reset();
        ctl->qp.reset();
    }
    chipSim->newRound();
    recorder.clear();
    ran = false;
}

void
QumaMachine::loadAssembly(const std::string &source)
{
    isa::Assembler assembler;
    loadProgram(assembler.assemble(source));
}

void
QumaMachine::configureDataCollection(std::size_t k)
{
    collector.configure(k);
}

awg::AwgModule &
QumaMachine::awgModule(unsigned i)
{
    Control &c = control();
    quma_assert(i < c.awgs.size(), "AWG index out of range");
    return *c.awgs[i];
}

measure::Mdu &
QumaMachine::mdu(unsigned qubit)
{
    quma_assert(qubit < mdus.size(),
                "MDU index out of range (calibration not uploaded?)");
    return *mdus[qubit];
}

const timing::TimingViolations &
QumaMachine::violations()
{
    return control().tcu.violations();
}

MachineStats
QumaMachine::stats()
{
    Control &c = control();
    MachineStats s;
    s.queues = c.tcu.queueStats();
    s.exec = c.exec.stats();
    s.microInstsIssued = c.qp.microInstsIssued();
    s.cyclesVisited = cyclesVisited;
    return s;
}

void
QumaMachine::reset()
{
    if (ctl) {
        ctl->tcu.reset();
        ctl->qp.reset();
        for (auto &a : ctl->awgs)
            a->reset();
        ctl->digOut.reset();
        ctl->exec.reset();
    }
    for (auto &m : mdus)
        m->reset();
    chipSim->reseed(cfg.chipSeed);
    // Back to UNCONFIGURED, exactly like a fresh machine: a stale bin
    // count would survive into the next run's auto-configuration.
    collector.reset();
    recorder.clear();
    mdWriteMode.assign(cfg.qubits.size(), {true, 0});
    cyclesVisited = 0;
    ran = false;
}

void
QumaMachine::reset(std::uint64_t chip_seed, std::uint64_t exec_seed)
{
    cfg.chipSeed = chip_seed;
    cfg.exec.seed = exec_seed;
    if (ctl)
        ctl->exec.reseed(exec_seed);
    reset();
}

void
QumaMachine::onPulseFired(unsigned queue, Cycle td,
                          const timing::PulseEvent &ev)
{
    recorder.recordUopFire({td, queue, ev.uop, ev.mask});
    wokenMask |= std::uint64_t{1} << srcAwg(queue);
    ctl->awgs[queue]->fireUop(ev.uop, td, ev.mask);
}

void
QumaMachine::onMpgFired(Cycle td, const timing::MpgEvent &ev)
{
    recorder.recordMpgFire({td, ev.mask, ev.durationCycles});
    // The measurement path's calibrated latency aligns the readout
    // window with the gate pulses at the chip; delivery is scheduled
    // so it stays ordered with the other deterministic events.
    wokenMask |= std::uint64_t{1} << srcDigOut();
    ctl->digOut.fire(ev.mask, td + ctl->msmtDelay, ev.durationCycles);
}

void
QumaMachine::onMdFired(unsigned queue, Cycle td,
                       const timing::MdEvent &ev)
{
    quma_assert(queue < mdus.size(), "MD fired for unknown MDU");
    // Remember the write-back mode so the result sink can honour it.
    auto qubit = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint32_t>(ev.mask)));
    mdWriteMode[queue] = {ev.overwrite, ev.bitIndex};
    wokenMask |= std::uint64_t{1} << srcMdu(queue);
    mdus[queue]->discriminate(td, ev.destReg, QubitMask{1} << qubit);
}

void
QumaMachine::onDrivePulse(unsigned awg_index,
                          const signal::DrivePulse &pulse, Codeword cw,
                          QubitMask mask)
{
    recorder.recordPulse({pulse.t0Ns, awg_index, cw, mask,
                          pulse.durationNs()});
    if (cw == isa::uops::Msmt)
        return; // measurement pulses travel via the digital outputs
    if (cw == isa::uops::Cz) {
        // Flux pulse: a CZ between the two addressed qubits.
        if (std::popcount(mask) != 2)
            fatal("CZ pulse must address exactly two qubits, got ",
                  std::popcount(mask));
        auto lo = static_cast<unsigned>(std::countr_zero(mask));
        auto hi = static_cast<unsigned>(std::countr_zero(mask & (mask - 1)));
        chipSim->applyCz(lo, hi, pulse.t0Ns, cfg.czDurationNs);
        return;
    }
    for (QubitMask m = mask; m != 0; m &= m - 1)
        chipSim->applyDrive(static_cast<unsigned>(std::countr_zero(m)),
                            pulse);
}

void
QumaMachine::onMeasurementPulse(unsigned qubit,
                                const signal::MeasurementPulse &pulse)
{
    quma_assert(qubit < mdus.size(), "measurement of unknown qubit");
    Cycle td = nsToCycles(pulse.t0Ns);
    Cycle dur = nsToCycles(pulse.durationNs);
    qsim::ReadoutShot shot =
        chipSim->measure(qubit, pulse.t0Ns, pulse.durationNs);
    recorder.recordMeasurement({td, qubit, dur, shot.initialOne});
    wokenMask |= std::uint64_t{1} << srcMdu(qubit);
    mdus[qubit]->submitShot(shot, td, dur);
}

void
QumaMachine::onMduResult(unsigned qubit, const measure::MduResult &r)
{
    auto [overwrite, bit] = mdWriteMode[qubit];
    ctl->exec.registers().writeBack(r.destReg, r.bit ? 1 : 0, overwrite,
                                bit);
    collector.addSample(r.s);
    collector.addBit(r.bit);
    if (taping)
        taping->deliver(qubit);
    recorder.recordMduResult({r.completionCycle, qubit, r.s, r.bit,
                              r.destReg});
}

void
QumaMachine::reportWedge(Cycle now) const
{
    fatal("machine wedged at cycle ", now, ": execution controller ",
          ctl->exec.halted() ? "halted" : "blocked", ", QMB backlog ",
          ctl->qp.backlog(), ", timing violations: late points ",
          ctl->tcu.violations().latePoints, ", stale events ",
          ctl->tcu.violations().staleEvents,
          " (a stale MD drops its register write-back)");
}

RunResult
QumaMachine::run(Cycle max_cycles)
{
    if (!calibrated)
        uploadStandardCalibration();
    if (ran)
        fatal("QumaMachine::run is one-shot; reload a program first");
    ran = true;
    if (collector.numBins() == 0)
        collector.configure(1);

    Control &c = control();
    timing::TimingController &tcu = c.tcu;
    QuantumPipeline &qp = c.qp;
    ExecutionController &exec = c.exec;
    const unsigned nAwg = static_cast<unsigned>(c.awgs.size());
    const unsigned nMdu = static_cast<unsigned>(mdus.size());
    const unsigned sDig = srcDigOut();
    const unsigned sMdu0 = srcMdu(0);
    const unsigned sQp = srcQp();
    const unsigned sExec = srcExec();

    // Each source's next due cycle is cached in nextDue and
    // refreshed only when the source was touched: it was due at the
    // visited cycle or a cross-component sink woke it this cycle
    // (wokenMask). The TCU, pipeline and execution controller are
    // touched every visited cycle -- re-polling is what unblocks a
    // backpressured producer, and the TCU's lateness accounting needs
    // to observe every visited cycle. The next cycle to visit, and
    // every source due there, come from one linear min-scan over the
    // cache: with ~10 sources that beats any indexed structure.
    constexpr Cycle kIdle = ~Cycle{0};
    const unsigned nSrc = numEventSources();
    Cycle *const cache = c.nextDue.data();
    auto refresh = [cache](unsigned src, std::optional<Cycle> at,
                           Cycle now) {
        cache[src] = at ? std::max(*at, now + 1) : kIdle;
    };

    tcu.start(0);
    cyclesVisited = 0;
    Cycle now = 0;
    bool drained = false;
    // Cycle 0 considers every source, exactly like a full poll.
    std::uint64_t due = ~std::uint64_t{0};
    for (;;) {
        ++cyclesVisited;
        wokenMask = 0;
        // Deterministic domain first: fire everything due now. The
        // AWGs run before the digital outputs so gate pulses due at
        // the same cycle reach the chip before a measurement window
        // opening that cycle. Sinks fired along the way extend
        // wokenMask, and every wake target sits later in this fixed
        // order than its waker, so one pass suffices.
        tcu.advanceTo(now);
        for (unsigned a = 0; a < nAwg; ++a)
            if ((due | wokenMask) & (std::uint64_t{1} << (1 + a)))
                c.awgs[a]->advanceTo(now);
        if ((due | wokenMask) & (std::uint64_t{1} << sDig))
            c.digOut.advanceTo(now);
        for (unsigned q = 0; q < nMdu; ++q)
            if ((due | wokenMask) & (std::uint64_t{1} << (sMdu0 + q)))
                mdus[q]->advanceTo(now);

        // Non-deterministic domain: drain and execute.
        qp.drainAt(now);
        exec.stepAt(now);

        // Refresh every touched source. The TCU goes after the
        // pipeline in state terms: drainAt may have pushed new time
        // points.
        const std::uint64_t touched = due | wokenMask;
        refresh(kSrcTcu, tcu.nextDueCycle(), now);
        for (unsigned a = 0; a < nAwg; ++a)
            if (touched & (std::uint64_t{1} << (1 + a)))
                refresh(1 + a, c.awgs[a]->nextEventCycle(), now);
        if (touched & (std::uint64_t{1} << sDig))
            refresh(sDig, c.digOut.nextEventCycle(), now);
        for (unsigned q = 0; q < nMdu; ++q)
            if (touched & (std::uint64_t{1} << (sMdu0 + q)))
                refresh(sMdu0 + q, mdus[q]->nextEventCycle(), now);
        refresh(sQp, qp.nextEventCycle(), now);
        refresh(sExec, exec.nextEventCycle(), now);

        Cycle next = kIdle;
        due = 0;
        for (unsigned src = 0; src < nSrc; ++src) {
            if (cache[src] < next) {
                next = cache[src];
                due = std::uint64_t{1} << src;
            } else if (cache[src] == next) {
                due |= std::uint64_t{1} << src;
            }
        }
        // A blocked producer is woken by whatever event frees it; if
        // nothing is scheduled at all, decide between done and wedged.
        if (next == kIdle) {
            drained = exec.halted() && qp.empty() &&
                      tcu.allQueuesEmpty();
            if (drained)
                break;
            reportWedge(now);
        }
        if (next > max_cycles)
            break;
        now = next;
    }

    RunResult result;
    result.cyclesRun = drained ? now : max_cycles;
    result.halted = drained;
    result.violations = tcu.violations();
    return result;
}

RunResult
QumaMachine::recordRun(PhysicsTape &tape, Cycle max_cycles)
{
    TapeWriter writer(tape, static_cast<unsigned>(cfg.qubits.size()));
    taping = &writer;
    chipSim->setKernelSink(&writer);
    // The writer dies with this frame: never leave it reachable, not
    // even when the run throws.
    struct Detach
    {
        QumaMachine &m;
        ~Detach()
        {
            m.taping = nullptr;
            m.chipSim->setKernelSink(nullptr);
        }
    } detach{*this};
    tape.result = run(max_cycles);
    return tape.result;
}

RunResult
QumaMachine::replay(const PhysicsTape &tape)
{
    if (!calibrated)
        uploadStandardCalibration();
    if (ran)
        fatal("QumaMachine::replay is one-shot; reload a program first");
    ran = true;
    if (collector.numBins() == 0)
        collector.configure(1);

    // Sized once per tape shape; a warm replay allocates nothing.
    if (replayShots.size() < tape.shots)
        replayShots.resize(tape.shots);
    qsim::TransmonChip &chip = *chipSim;
    // The kernel stream the run's clock produced; the clock itself
    // never runs. Every gate, and a static-frame qubit's idle
    // factors, were stored when the tape was recorded and verified; a
    // drifting qubit's idles follow its current detuning.
    for (const TapeOp &op : tape.ops) {
        switch (op.kind) {
          case TapeOp::Kind::Idle:
            if (tape.staticFrames & (QubitMask{1} << op.qubit))
                chip.applyIdle(op.qubit, tape.idles[op.index]);
            else
                chip.applyIdle(op.qubit,
                               chip.idleCoeffs(op.qubit, static_cast<double>(
                                                             op.duration)));
            break;
          case TapeOp::Kind::Rotate:
            chip.rotate(op.qubit, tape.gates[op.index]);
            break;
          case TapeOp::Kind::Cz:
            chip.czPhase(op.qubit, op.qubit2);
            break;
          case TapeOp::Kind::Readout:
            replayShots[op.index] = mdus[op.qubit]->integrate(
                chip.readout(op.qubit, op.duration));
            break;
          case TapeOp::Kind::Deliver: {
            auto [s, bit] = replayShots[op.index];
            collector.addSample(s);
            collector.addBit(bit);
            break;
          }
        }
    }
    cyclesVisited = 0;
    return tape.result;
}

} // namespace quma::core

/**
 * @file
 * Execution trace recorder.
 *
 * Captures the observable activity of every pipeline stage so the
 * paper's tables and figures can be regenerated: the QuMIS stream
 * entering the QMB (Table 5 left), micro-operations fired to the
 * u-op units (Table 5 bottom-left), codeword triggers reaching the
 * CTPGs/MDUs (Table 5 bottom-right), emitted pulses and measurement
 * windows (Figures 3 and 5), and timing-label fires (Tables 2-4).
 */

#ifndef QUMA_QUMA_TRACE_HH
#define QUMA_QUMA_TRACE_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace quma::core {

/** A micro-operation fired from a pulse queue to a u-op unit. */
struct UopFireRecord
{
    Cycle td = 0;
    unsigned awg = 0;
    std::uint8_t uop = 0;
    QubitMask mask = 0;

    bool operator==(const UopFireRecord &) const = default;
};

/** A codeword trigger arriving at a CTPG (after the u-op delay). */
struct CodewordRecord
{
    Cycle td = 0;
    unsigned awg = 0;
    Codeword codeword = 0;
    QubitMask mask = 0;

    bool operator==(const CodewordRecord &) const = default;
};

/** An analog pulse leaving a CTPG (after its fixed delay). */
struct PulseRecord
{
    TimeNs t0Ns = 0;
    unsigned awg = 0;
    Codeword codeword = 0;
    QubitMask mask = 0;
    double durationNs = 0;

    bool operator==(const PulseRecord &) const = default;
};

/** An MPG event firing at its timing label (paper Table 5 "CW 7"). */
struct MpgFireRecord
{
    Cycle td = 0;
    QubitMask mask = 0;
    Cycle durationCycles = 0;

    bool operator==(const MpgFireRecord &) const = default;
};

/** A measurement window arriving at the chip. */
struct MeasurementRecord
{
    /** Window start at the chip (label + calibrated path delay). */
    Cycle windowStart = 0;
    unsigned qubit = 0;
    Cycle durationCycles = 0;
    /** Ground truth sampled by the chip (for validation only). */
    bool trueOutcome = false;

    bool operator==(const MeasurementRecord &) const = default;
};

/** An MD result write-back. */
struct MduResultRecord
{
    Cycle completionTd = 0;
    unsigned qubit = 0;
    double s = 0.0;
    bool bit = false;
    RegIndex destReg = 0;

    bool operator==(const MduResultRecord &) const = default;
};

/** A timing label broadcast. */
struct LabelFireRecord
{
    Cycle td = 0;
    TimingLabel label = 0;

    bool operator==(const LabelFireRecord &) const = default;
};

/** A QuMIS microinstruction entering the QMB. */
struct MicroInstRecord
{
    Cycle cycle = 0;
    isa::Instruction inst;

    bool operator==(const MicroInstRecord &) const = default;
};

class TraceRecorder
{
  public:
    void setEnabled(bool on) { enabled = on; }
    bool isEnabled() const { return enabled; }

    void recordUopFire(const UopFireRecord &r);
    void recordCodeword(const CodewordRecord &r);
    void recordPulse(const PulseRecord &r);
    void recordMpgFire(const MpgFireRecord &r);
    void recordMeasurement(const MeasurementRecord &r);
    void recordMduResult(const MduResultRecord &r);
    void recordLabelFire(const LabelFireRecord &r);
    void recordMicroInst(const MicroInstRecord &r);

    const std::vector<UopFireRecord> &uopFires() const { return uops; }
    const std::vector<CodewordRecord> &codewords() const { return cws; }
    const std::vector<PulseRecord> &pulses() const { return pulseRecs; }
    const std::vector<MpgFireRecord> &mpgFires() const
    {
        return mpgRecs;
    }
    const std::vector<MeasurementRecord> &measurements() const
    {
        return msmts;
    }
    const std::vector<MduResultRecord> &mduResults() const
    {
        return mduRecs;
    }
    const std::vector<LabelFireRecord> &labelFires() const
    {
        return labels;
    }
    const std::vector<MicroInstRecord> &microInsts() const
    {
        return micro;
    }

    void clear();

  private:
    bool enabled = false;
    std::vector<UopFireRecord> uops;
    std::vector<CodewordRecord> cws;
    std::vector<PulseRecord> pulseRecs;
    std::vector<MpgFireRecord> mpgRecs;
    std::vector<MeasurementRecord> msmts;
    std::vector<MduResultRecord> mduRecs;
    std::vector<LabelFireRecord> labels;
    std::vector<MicroInstRecord> micro;
};

} // namespace quma::core

#endif // QUMA_QUMA_TRACE_HH

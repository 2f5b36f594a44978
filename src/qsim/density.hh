/**
 * @file
 * Density-matrix simulator with Kraus-channel support.
 *
 * This is the physics backend of the transmon model: it captures
 * amplitude damping (T1) and dephasing (T2) exactly, which the
 * coherence-time experiments (T1, Ramsey, echo) and the readout error
 * model rely on.
 *
 * Every shot of every experiment funnels through these kernels, so the
 * hot entry points (apply1, apply2, applyKraus1, applyIdle and the
 * diagonal fast paths) are written as fused, in-place, row-major block
 * sweeps that perform no heap allocation on the steady-state path; see
 * src/qsim/README.md for the kernel design notes.
 */

#ifndef QUMA_QSIM_DENSITY_HH
#define QUMA_QSIM_DENSITY_HH

#include <vector>

#include "qsim/gates.hh"

namespace quma::qsim {

/**
 * The element-wise factors of one closed-form idle step on a qubit
 * (DensityMatrix::idleCoeffs): rho_00 += gamma * rho_11,
 * rho_11 *= keep, rho_01 *= up, rho_10 *= down. A pure function of
 * (gamma, lambda, phase), so it can be computed once and applied on
 * every shot that idles the same way.
 */
struct IdleCoeffs
{
    double gamma = 0.0;
    double keep = 1.0;
    Complex up{1.0, 0.0};
    Complex down{1.0, 0.0};

    bool operator==(const IdleCoeffs &) const = default;
};

class DensityMatrix
{
  public:
    /** Largest register a density matrix holds (4^12 elements). */
    static constexpr unsigned kMaxQubits = 12;

    /** Initialise n qubits to |0...0><0...0|. */
    explicit DensityMatrix(unsigned num_qubits);

    unsigned numQubits() const { return nq; }
    std::size_t dim() const { return n; }

    Complex element(std::size_t r, std::size_t c) const
    {
        return rho[r * n + c];
    }

    /** Apply a single-qubit unitary to qubit q: rho -> U rho U+. */
    void apply1(unsigned q, const Mat2 &u);

    /** apply1 with U+ supplied: `ud` must be adjoint(u), which a
     *  caller applying the same gate many times computes once. */
    void apply1(unsigned q, const Mat2 &u, const Mat2 &ud);

    /** Apply a two-qubit unitary (q_high = more significant bit). */
    void apply2(unsigned q_high, unsigned q_low, const Mat4 &u);

    /** Apply a single-qubit channel given by Kraus operators. */
    void applyKraus1(unsigned q, const std::vector<Mat2> &kraus);

    /**
     * Apply the diagonal unitary diag(d0, d1) on qubit q:
     * rho_ij -> d_{i_q} rho_ij conj(d_{j_q}). A single O(n^2) sweep,
     * no matrix conjugation.
     */
    void applyDiag1(unsigned q, Complex d0, Complex d1);

    /** Fast path for rz(theta): applyDiag1 with the rz eigenvalues. */
    void applyRz(unsigned q, double theta);

    /**
     * Fast path for CZ between two qubits: rho_ij flips sign where
     * exactly one of i, j has both qubit bits set. O(n^2), no 4x4
     * conjugation.
     */
    void applyCzPhase(unsigned q_a, unsigned q_b);

    /**
     * Closed-form idle (T1/T2) evolution on qubit q: amplitude damping
     * with decay probability gamma composed with pure dephasing with
     * parameter lambda, optionally fused with a frame rotation
     * rz(phase) (quasi-static detuning). Element-wise on each 2x2
     * block -- no Kraus matrices, no temporaries:
     *
     *   rho_00 += gamma * rho_11          rho_11 *= (1 - gamma)
     *   rho_01 *= sqrt(1-gamma) * sqrt(1-lambda) * exp(-i*phase)
     *   rho_10 *= sqrt(1-gamma) * sqrt(1-lambda) * exp(+i*phase)
     *
     * Equivalent (to rounding) to applyKraus1(idleChannel(...)) then
     * applyRz(phase); see tests/test_qsim_kernels.cc. Exactly
     * applyIdle(q, idleCoeffs(gamma, lambda, phase)).
     */
    void applyIdle(unsigned q, double gamma, double lambda,
                   double phase = 0.0);

    /** The factors applyIdle(q, gamma, lambda, phase) multiplies in. */
    static IdleCoeffs idleCoeffs(double gamma, double lambda,
                                 double phase = 0.0);

    /** One idle step with precomputed factors: the element-wise
     *  sweep alone, no parameter math. */
    void applyIdle(unsigned q, const IdleCoeffs &c);

    /** Probability that measuring qubit q yields 1. */
    double probabilityOne(unsigned q) const;

    /** Project qubit q onto outcome and renormalise; fatal, with the
     *  state untouched, when the outcome has (near) zero probability. */
    void project(unsigned q, bool outcome);

    /** Trace of the matrix (should be 1). */
    double trace() const;

    /** Purity Tr(rho^2); 1 for pure states. */
    double purity() const;

    /** Fidelity <psi|rho|psi> against a pure state given as amplitudes. */
    double fidelityWithPure(const std::vector<Complex> &psi) const;

    /** Reset every qubit to |0>. */
    void reset();

    /** Force qubit q to |0> (used for active reset modelling). */
    void resetQubit(unsigned q);

  private:
    /** Sum of the diagonal over the rows whose bit q is `one`, in
     *  row order: the probability of that outcome. */
    double population(unsigned q, bool one) const;

    unsigned nq;
    std::size_t n;
    std::vector<Complex> rho;
    /**
     * Persistent accumulator for applyKraus1; sized n*n on first use
     * and reused (swapped with rho) so no per-call allocation remains.
     */
    std::vector<Complex> scratch;
};

} // namespace quma::qsim

#endif // QUMA_QSIM_DENSITY_HH

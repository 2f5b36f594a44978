#include "qsim/density.hh"

#include <cmath>

#include "common/logging.hh"

namespace quma::qsim {

namespace {

/**
 * Visit every (row-pair x column-pair) 2x2 block of qubit q's
 * stride-blocked layout: fn(row0, row1, c0, c1) with row pointers into
 * `data` and paired column indices. row0/c0 carry bit q clear, row1/c1
 * carry it set; the inner loop walks columns contiguously. Inlined, so
 * the single-qubit kernels share one copy of the index arithmetic
 * without losing the fused sweep.
 *
 * A one-qubit register is its own single block: fn runs once on it,
 * the same call the loops below would make, without their set-up.
 */
template <typename BlockFn>
inline void
forEachBlock1(Complex *data, std::size_t n, std::size_t stride,
              BlockFn &&fn)
{
    if (n == 2) {
        fn(data, data + 2, 0, 1);
        return;
    }
    for (std::size_t rb = 0; rb < n; rb += 2 * stride) {
        for (std::size_t ro = 0; ro < stride; ++ro) {
            Complex *row0 = data + (rb + ro) * n;
            Complex *row1 = row0 + stride * n;
            for (std::size_t cb = 0; cb < n; cb += 2 * stride) {
                for (std::size_t c0 = cb; c0 < cb + stride; ++c0)
                    fn(row0, row1, c0, c0 + stride);
            }
        }
    }
}

} // namespace

DensityMatrix::DensityMatrix(unsigned num_qubits) : nq(num_qubits)
{
    if (num_qubits == 0 || num_qubits > kMaxQubits)
        fatal("DensityMatrix supports 1..", kMaxQubits, " qubits, got ",
              num_qubits);
    n = std::size_t{1} << num_qubits;
    rho.assign(n * n, Complex{0, 0});
    rho[0] = 1;
}

void
DensityMatrix::apply1(unsigned q, const Mat2 &u)
{
    apply1(q, u, adjoint(u));
}

void
DensityMatrix::apply1(unsigned q, const Mat2 &u, const Mat2 &ud)
{
    quma_assert(q < nq, "qubit index out of range");
    std::size_t stride = std::size_t{1} << q;

    // Fused conjugation U rho U+: each (row-pair x column-pair) 2x2
    // block transforms independently, so one in-place row-major sweep
    // replaces the separate left- and right-multiply passes.
    forEachBlock1(rho.data(), n, stride,
                  [&u, &ud](Complex *row0, Complex *row1, std::size_t c0,
                            std::size_t c1) {
                      Complex m00 = row0[c0], m01 = row0[c1];
                      Complex m10 = row1[c0], m11 = row1[c1];
                      Complex t00 = u[0] * m00 + u[1] * m10;
                      Complex t01 = u[0] * m01 + u[1] * m11;
                      Complex t10 = u[2] * m00 + u[3] * m10;
                      Complex t11 = u[2] * m01 + u[3] * m11;
                      row0[c0] = t00 * ud[0] + t01 * ud[2];
                      row0[c1] = t00 * ud[1] + t01 * ud[3];
                      row1[c0] = t10 * ud[0] + t11 * ud[2];
                      row1[c1] = t10 * ud[1] + t11 * ud[3];
                  });
}

void
DensityMatrix::apply2(unsigned q_high, unsigned q_low, const Mat4 &u)
{
    quma_assert(q_high < nq && q_low < nq && q_high != q_low,
                "bad two-qubit operand");
    std::size_t sh = std::size_t{1} << q_high;
    std::size_t sl = std::size_t{1} << q_low;
    Mat4 ud = adjoint(u);

    // Fused U rho U+ on 4x4 blocks (row quad x column quad), one pass.
    for (std::size_t i = 0; i < n; ++i) {
        if ((i & sh) || (i & sl))
            continue;
        std::size_t ridx[4] = {i, i | sl, i | sh, i | sh | sl};
        for (std::size_t j = 0; j < n; ++j) {
            if ((j & sh) || (j & sl))
                continue;
            std::size_t cidx[4] = {j, j | sl, j | sh, j | sh | sl};
            Complex m[16], t[16];
            for (int r = 0; r < 4; ++r)
                for (int c = 0; c < 4; ++c)
                    m[r * 4 + c] = rho[ridx[r] * n + cidx[c]];
            // t = U m
            for (int r = 0; r < 4; ++r) {
                for (int c = 0; c < 4; ++c) {
                    Complex acc{0, 0};
                    for (int k = 0; k < 4; ++k)
                        acc += u[r * 4 + k] * m[k * 4 + c];
                    t[r * 4 + c] = acc;
                }
            }
            // rho block = t U+
            for (int r = 0; r < 4; ++r) {
                for (int c = 0; c < 4; ++c) {
                    Complex acc{0, 0};
                    for (int k = 0; k < 4; ++k)
                        acc += t[r * 4 + k] * ud[k * 4 + c];
                    rho[ridx[r] * n + cidx[c]] = acc;
                }
            }
        }
    }
}

void
DensityMatrix::applyKraus1(unsigned q, const std::vector<Mat2> &kraus)
{
    quma_assert(q < nq, "qubit index out of range");
    std::size_t stride = std::size_t{1} << q;
    scratch.assign(n * n, Complex{0, 0});
    for (const Mat2 &k : kraus) {
        Mat2 kd = adjoint(k);
        // scratch += K rho K+, fused per 2x2 block; no temporary
        // matrices, and the accumulator persists across calls.
        const Complex *src = rho.data();
        Complex *dst = scratch.data();
        forEachBlock1(rho.data(), n, stride,
                      [&k, &kd, src, dst](Complex *row0, Complex *row1,
                                          std::size_t c0, std::size_t c1) {
                          Complex *out0 = dst + (row0 - src);
                          Complex *out1 = dst + (row1 - src);
                          Complex m00 = row0[c0], m01 = row0[c1];
                          Complex m10 = row1[c0], m11 = row1[c1];
                          Complex t00 = k[0] * m00 + k[1] * m10;
                          Complex t01 = k[0] * m01 + k[1] * m11;
                          Complex t10 = k[2] * m00 + k[3] * m10;
                          Complex t11 = k[2] * m01 + k[3] * m11;
                          out0[c0] += t00 * kd[0] + t01 * kd[2];
                          out0[c1] += t00 * kd[1] + t01 * kd[3];
                          out1[c0] += t10 * kd[0] + t11 * kd[2];
                          out1[c1] += t10 * kd[1] + t11 * kd[3];
                      });
    }
    rho.swap(scratch);
}

void
DensityMatrix::applyDiag1(unsigned q, Complex d0, Complex d1)
{
    quma_assert(q < nq, "qubit index out of range");
    std::size_t mask = std::size_t{1} << q;
    Complex c0 = std::conj(d0), c1 = std::conj(d1);
    for (std::size_t r = 0; r < n; ++r) {
        Complex dr = (r & mask) ? d1 : d0;
        Complex f0 = dr * c0, f1 = dr * c1;
        Complex *row = rho.data() + r * n;
        // Columns alternate between the two factors in runs of
        // 2^q; walk the row contiguously.
        for (std::size_t cb = 0; cb < n; cb += 2 * mask) {
            for (std::size_t c = cb; c < cb + mask; ++c) {
                row[c] *= f0;
                row[c + mask] *= f1;
            }
        }
    }
}

void
DensityMatrix::applyRz(unsigned q, double theta)
{
    applyDiag1(q, std::polar(1.0, -theta / 2.0),
               std::polar(1.0, theta / 2.0));
}

void
DensityMatrix::applyCzPhase(unsigned q_a, unsigned q_b)
{
    quma_assert(q_a < nq && q_b < nq && q_a != q_b, "bad CZ operands");
    std::size_t both = (std::size_t{1} << q_a) | (std::size_t{1} << q_b);
    for (std::size_t r = 0; r < n; ++r) {
        bool rBoth = (r & both) == both;
        Complex *row = rho.data() + r * n;
        for (std::size_t c = 0; c < n; ++c) {
            if (rBoth != ((c & both) == both))
                row[c] = -row[c];
        }
    }
}

void
DensityMatrix::applyIdle(unsigned q, double gamma, double lambda,
                         double phase)
{
    applyIdle(q, idleCoeffs(gamma, lambda, phase));
}

IdleCoeffs
DensityMatrix::idleCoeffs(double gamma, double lambda, double phase)
{
    quma_assert(gamma >= 0 && gamma <= 1 && lambda >= 0 && lambda <= 1,
                "idle parameters out of range");
    IdleCoeffs c;
    c.gamma = gamma;
    c.keep = 1.0 - gamma;
    double coh = std::sqrt(c.keep) * std::sqrt(1.0 - lambda);
    // Coherence factor for the (0,1) element; the (1,0) element takes
    // the conjugate. phase follows the rz(theta) convention: rho_01
    // picks up exp(-i*theta).
    c.up = coh * Complex{std::cos(phase), -std::sin(phase)};
    c.down = std::conj(c.up);
    return c;
}

void
DensityMatrix::applyIdle(unsigned q, const IdleCoeffs &c)
{
    quma_assert(q < nq, "qubit index out of range");
    std::size_t stride = std::size_t{1} << q;
    const double gamma = c.gamma, keep = c.keep;
    const Complex up = c.up, down = c.down;
    forEachBlock1(rho.data(), n, stride,
                  [gamma, keep, up, down](Complex *row0, Complex *row1,
                                          std::size_t c0, std::size_t c1) {
                      Complex m11 = row1[c1];
                      row0[c0] += gamma * m11;
                      row1[c1] = keep * m11;
                      row0[c1] *= up;
                      row1[c0] *= down;
                  });
}

double
DensityMatrix::probabilityOne(unsigned q) const
{
    quma_assert(q < nq, "qubit index out of range");
    return population(q, true);
}

double
DensityMatrix::population(unsigned q, bool one) const
{
    // The diagonal entries whose row has bit q == one, in row order.
    const std::size_t mask = std::size_t{1} << q;
    const std::size_t first = one ? mask : 0;
    double p = 0;
    for (std::size_t rb = first; rb < n; rb += 2 * mask)
        for (std::size_t r = rb; r < rb + mask; ++r)
            p += rho[r * n + r].real();
    return p;
}

void
DensityMatrix::project(unsigned q, bool outcome)
{
    quma_assert(q < nq, "qubit index out of range");
    const double norm = population(q, outcome);
    if (norm <= 1e-15)
        fatal("project: outcome has (near) zero probability");
    const double scale = 1.0 / norm;
    // Of each 2x2 block only the entry whose row and column both
    // carry bit q == outcome survives, rescaled; the other three
    // become +0.
    forEachBlock1(rho.data(), n, std::size_t{1} << q,
                  [outcome, scale](Complex *row0, Complex *row1,
                                   std::size_t c0, std::size_t c1) {
                      Complex *row = outcome ? row1 : row0;
                      const std::size_t c = outcome ? c1 : c0;
                      const Complex kept = row[c] * scale;
                      row0[c0] = 0;
                      row0[c1] = 0;
                      row1[c0] = 0;
                      row1[c1] = 0;
                      row[c] = kept;
                  });
}

double
DensityMatrix::trace() const
{
    double t = 0;
    for (std::size_t i = 0; i < n; ++i)
        t += rho[i * n + i].real();
    return t;
}

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_ij rho_ij * rho_ji = sum_ij |rho_ij|^2 (Hermitian).
    double p = 0;
    for (const auto &v : rho)
        p += std::norm(v);
    return p;
}

double
DensityMatrix::fidelityWithPure(const std::vector<Complex> &psi) const
{
    quma_assert(psi.size() == n, "fidelityWithPure: dimension mismatch");
    Complex acc{0, 0};
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            acc += std::conj(psi[r]) * rho[r * n + c] * psi[c];
    return acc.real();
}

void
DensityMatrix::reset()
{
    std::fill(rho.begin(), rho.end(), Complex{0, 0});
    rho[0] = 1;
}

void
DensityMatrix::resetQubit(unsigned q)
{
    quma_assert(q < nq, "qubit index out of range");
    // Trace out q and re-prepare |0>: the |1> population folds onto
    // |0> and every element touching |1> on either side vanishes.
    // Closed form of the channel {|0><0|, |0><1|}; no Kraus matrices.
    std::size_t stride = std::size_t{1} << q;
    forEachBlock1(rho.data(), n, stride,
                  [](Complex *row0, Complex *row1, std::size_t c0,
                     std::size_t c1) {
                      row0[c0] += row1[c1];
                      row0[c1] = 0;
                      row1[c0] = 0;
                      row1[c1] = 0;
                  });
}

} // namespace quma::qsim

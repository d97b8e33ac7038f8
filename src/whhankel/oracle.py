"""Brute-force numerical ground truth for half-line convolution operators.

Dense discretizations of W(a), H(b), the whole-line W0(a) and the 2x2 block
operator of a matching pair; SVD-based kernel/cokernel estimation; verdict
tables.

Discretization: midpoint nodes t_i = (i + 1/2) h on [0, T].  The Toeplitz
generator comes from the symbol itself through the conformal frequency map

    xi(theta) = (2/h) tan(theta/2),      z = e^(i theta),

so a rational symbol becomes a rational function of z with poles off the
unit circle and exponentially decaying Fourier coefficients, and a shift
e^(i delta xi) becomes the monomial z^(delta/h).  Discrete symbols therefore
multiply exactly like their continuum counterparts: every operator identity
of the half-line calculus (product/Hankel splitting, flip conjugation,
one-sided inverse compositions, matching-function algebra) holds on the
matrices up to exponentially small truncation tails, not just to quadrature
order.  Pointwise the discrete operator still agrees with the continuum one
to O(h^2) on smooth decaying functions, so kernel vectors such as e^(-t) are
reproduced on the grid with exponent error h^2/12.

Generators are built from partial fractions over the symbol's own poles,
which it keeps with their multiplicities, and each term c/(t-p)^j is mapped
in closed form to a constant plus poles at z_p = (lam+p)/(lam-p) of orders
1..j (lam = -2i/h).  No roots are sought, neither in the t-plane nor in the
z-plane, where a multiple pole crowds towards z = 1 as h shrinks and
companion-matrix roots would scatter apart.

Rank decisions: a square truncation of an index -1 operator and its index +1
transpose share singular spectra, so raw sigma-counting cannot tell a genuine
(decaying) kernel vector from a truncation-boundary artifact.  The estimator
therefore takes the SVD of the interior columns only, dropping the outer
BOUNDARY_FRAC = 20% of nodes of each component: genuine kernel vectors decay
and keep sigma ~ e^(-T), while boundary artifacts need the dropped columns
and leave the null space.  Singular values are cut at rank_tol * norm_est(M),
an upper bound of ||M||_2, the same scale the kernel residuals are measured
against.  The
cokernel is the kernel of M^H, so there the slice drops the outer rows of M.
The stability re-run repeats a decision at the same h on ceil(1.25 n) nodes
(Grid.longer): a longer section of the same operator, where kernel singular
values move with T, not h.  With stability on, each estimated operator is
assembled once, on the longer grid, and the grid's matrix is each component's
leading block of it.  verify and the re-run use only dimensions, so they
compute singular values only; the full SVD runs where a basis is asked for,
and its basis vectors are exactly zero on the outer window.  Each operator
computes its rank data once, shared by the kernel and the cokernel estimate:
scale = norm_est(M) (norm_est(M^H) = norm_est(M)) and ||Im M||_F.  When
||Im M||_F <= 1e-3 rank_tol scale (every symbol whose zeros and poles lie on
the imaginary axis has a real kernel), a values-only decision reads Re M,
sliced into one contiguous float64 array: by Weyl's bound that moves every
singular value of any row or column subset by at most 1e-3 of the cut.
A values-only decision first tries a certificate that exactly d singular
values of the interior columns A lie below the cut, each clear of it by
more than the SVD's own rounding, and none in [cut, gap), gap = GAP_TAU
scale; when it holds the SVD would count d as well, and it does not run.
On the grid, d is the classifier's exact prediction, passed as a hint (a
wrong hint fails the certificate and costs one factorization); on the
longer grid it is the grid's count.  With G = A^H A and F = ||A||_F^2, one
step of inverse iteration W = orth(G^-1 R), R a fixed-seed n x d draw, finds
the near-null space; ||A W||_2 / sigma_min(W) bounds the d-th smallest
singular value from above (Courant-Fischer), and a Cholesky factorization of
G + F W W^H - s I, s = gap^2 + CERT_C (m + n) eps F (1 + d), bounds the
(d+1)-th from below, since a rank-d PSD update raises at most d eigenvalues
(interlacing; Parlett, The Symmetric Eigenvalue Problem, 10.3).  The eps
terms bound the rounding of the products and of the factorization (Higham,
Accuracy and Stability, 3.5-3.6 and Thm 10.3; Rump, BIT 46, 2006); for
d = 0 only the factorization of G - s I runs.  A failed check proves
nothing, and the SVD decides (see _cholesky_certifies).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import poly
from .classify import Dim, subordinated
from .errors import OutOfScope, ShiftNotCommensurate
from .symbols import GSymbol, tilde


@dataclass(frozen=True)
class Grid:
    """Midpoint discretization of [0, T] (half) and [-T, T] (full)."""

    T: float
    h: float

    def __post_init__(self):
        ratio = self.T / self.h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("T/h must be an integer")

    @property
    def n(self):
        return int(round(self.T / self.h))

    def half_nodes(self):
        return (np.arange(self.n) + 0.5) * self.h

    def full_nodes(self):
        return -self.T + (np.arange(2 * self.n) + 0.5) * self.h

    def longer(self):
        """The stability re-run grid: the same h on ceil(1.25 n) nodes."""
        return Grid(T=math.ceil(1.25 * self.n) * self.h, h=self.h)


#: outer window of nodes of each component left out of rank decisions
BOUNDARY_FRAC = 0.2

#: |delta/h - round| below this snaps a shift to the grid, else error
SNAP_TOL = 0.1


@dataclass(frozen=True)
class OracleConfig:
    rank_tol: float = 1e-8          # sigma < rank_tol * norm_est(M) counts as null
    stability: bool = True          # assemble on Grid.longer(), re-run ranks there
    # fixed, not settable: the "numerically in kernel" threshold (relative),
    # the outer BOUNDARY_FRAC window of rank decisions and the SNAP_TOL of shifts
    residual_tol = 1e-5


DEFAULT_CONFIG = OracleConfig()


@dataclass
class DiscretizedOp:
    matrix: np.ndarray              # each component's leading block of longer's
    grid: Grid
    components: int = 1             # 1 for scalar ops, 2 for the block operator
    longer: DiscretizedOp | None = None   # the same operator on grid.longer(), or None
    rank_data: tuple = None         # (norm_est, ||Im M||_F), see _rank_data


def norm_est(matrix):
    """sqrt(||M||_1 ||M||_inf), an upper bound of the spectral norm."""
    m = np.abs(matrix)
    return float(np.sqrt(np.max(np.sum(m, axis=0)) * np.max(np.sum(m, axis=1))))


@dataclass(frozen=True)
class KernelEstimate:
    dim: int
    basis: tuple                    # orthonormal null-ish vectors (ndarray rows)
    singular_values: tuple          # descending, of the interior columns
    tol: float
    stable: bool
    residuals: tuple = ()
    scale: float = 0.0              # norm_est(M): the cut is tol * scale
    decided_by: tuple = ()          # "certificate" or "svd", per grid run

    def to_dict(self):
        return {
            "dim": self.dim,
            "tol": self.tol,
            "scale": self.scale,
            "decided_by": list(self.decided_by),
            "stable": self.stable,
            "residuals": list(self.residuals),
            "smallest_sigmas": [float(s) for s in self.singular_values[-6:]],
        }


# --- assembly ------------------------------------------------------------------

def _offset(shift, grid):
    """Index offset shift/h of an almost-periodic frequency or a rational
    part's shift: snapped to the grid with a warning within SNAP_TOL,
    rejected beyond it."""
    q = shift / grid.h
    if abs(q - round(q)) > SNAP_TOL:
        raise ShiftNotCommensurate(
            f"shift {shift} is not commensurate with h = {grid.h}"
        )
    if abs(q - round(q)) > 1e-9:
        warnings.warn(f"snapping shift {shift} to {round(q) * grid.h}", stacklevel=3)
    return int(round(q))


def _mapped_partial_fractions(rational, lam):
    """Constant and z-plane poles of R(t) under t = lam (z-1)/(z+1).

    Partial fractions are taken in the t-plane over the known poles, and
    each term is mapped in closed form:

        c/(t-p)^j = c (z+1)^j / ((lam-p)^j (z-z_p)^j),   z_p = (lam+p)/(lam-p),

    and (z+1)^j = sum_k C(j,k) (z_p+1)^(j-k) (z-z_p)^k splits it into one
    constant plus poles at z_p of orders 1..j.  Returns (constant,
    [(z_p, [e_1, ..., e_m])]) with e_i the coefficient of (z-z_p)^(-i).
    """
    const = 0j
    poles = []
    for p, coeffs in poly.partial_fractions(rational.num, rational.poles):
        zp = (lam + p) / (lam - p)
        zc = [0j] * len(coeffs)
        for j, c in enumerate(coeffs, start=1):
            scale = c / (lam - p) ** j
            const += scale
            for k in range(j):
                zc[j - k - 1] += scale * math.comb(j, k) * (zp + 1) ** (j - k)
        poles.append((zp, zc))
    return const, poles


def _laurent_coeffs(const, poles, m_index):
    """Laurent coefficients on the unit circle of const + sum e_j/(z-p)^j.

    Poles inside the disc feed negative indices, poles outside feed
    nonnegative ones; a multiple pole contributes binomial-weighted powers.
    """
    m_index = np.asarray(m_index)
    gen = np.zeros(m_index.shape, dtype=complex)
    gen[m_index == 0] += const
    for pole, coeffs in poles:
        ap = abs(pole)
        if abs(ap - 1.0) < 1e-9:
            raise OutOfScope(f"mapped pole {pole} sits on the unit circle")
        for j, c in enumerate(coeffs, start=1):
            if c == 0:
                continue
            if ap > 1.0:
                # (z-p)^(-j) = (-1)^j sum_{m>=0} C(m+j-1, j-1) z^m p^(-j-m)
                sel = m_index >= 0
                mm = m_index[sel].astype(float)
                binom = np.ones(mm.shape)
                for i in range(1, j):
                    binom *= (mm + i) / i
                gen[sel] += c * (-1) ** j * binom * pole ** (-j - mm)
            else:
                # (z-p)^(-j) = sum_{l>=0} C(l+j-1, j-1) p^l z^(-j-l)
                sel = m_index <= -j
                ll = (-m_index[sel] - j).astype(float)
                binom = np.ones(ll.shape)
                for i in range(1, j):
                    binom *= (ll + i) / i
                gen[sel] += c * binom * pole ** (-m_index[sel] - j)
    return gen


def _symbol_gen(sym, grid, m_index):
    """Fourier coefficients of the conformally mapped symbol at indices m_index."""
    m_index = np.asarray(m_index)
    gen = np.zeros(m_index.shape, dtype=complex)
    lam = -2j / grid.h
    for term in sym.ap:
        gen[m_index == _offset(term.freq, grid)] += term.coeff
    for w in sym.l0:
        k = _offset(w.shift, grid)
        if abs(poly.pval(w.rational.den, lam)) < 1e-12:
            raise OutOfScope(
                "denominator vanishes at the discretization's mapped infinity; "
                "refine h"
            )
        const, poles = _mapped_partial_fractions(w.rational, lam)
        gen += _laurent_coeffs(const, poles, m_index - k)
    return gen


def _toeplitz(sym, grid, n):
    """n x n Toeplitz matrix of sym: entry (i, j) is generator coefficient i - j."""
    gen = _symbol_gen(sym, grid, np.arange(-(n - 1), n))
    return sliding_window_view(gen, n)[:, ::-1].copy()


def _hankel(sym, grid, n):
    """n x n Hankel matrix of sym: entry (i, j) is generator coefficient i + j + 1."""
    return sliding_window_view(_symbol_gen(sym, grid, np.arange(1, 2 * n)), n).copy()


def _toeplitz_apply(sym, grid, v):
    """_toeplitz(sym, grid, len(v)) @ v without the matrix: the valid part of
    the convolution of the generator at -(n-1)..n-1 with v."""
    n = len(v)
    return np.convolve(_symbol_gen(sym, grid, np.arange(-(n - 1), n)), v, "valid")


def _hankel_apply(sym, grid, v):
    """_hankel(sym, grid, len(v)) @ v without the matrix: the valid part of
    the convolution of the generator at 1..2n-1 with v reversed."""
    n = len(v)
    return np.convolve(_symbol_gen(sym, grid, np.arange(1, 2 * n)), v[::-1], "valid")


def _block_v(sub, grid, n):
    """2n x 2n matrix of [[0, W(d)], [-W(c), W(tilde(a)^(-1))]], sub the
    subordinated pair of (a, b)."""
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    mat[:n, n:] = _toeplitz(sub.d, grid, n)
    mat[n:, :n] = -_toeplitz(sub.c, grid, n)
    mat[n:, n:] = _toeplitz(sub.at_inv, grid, n)
    return mat


def _discretized(assemble, grid, cfg, components=1) -> DiscretizedOp:
    """The operator whose matrix with n nodes per component at grid's h is
    assemble(n).  With cfg.stability it is assembled once, on grid.longer(),
    and the grid's matrix is each component's leading grid.n block of that:
    a view for one component, a copy for more."""
    if not cfg.stability:
        return DiscretizedOp(assemble(grid.n), grid, components)
    longer = DiscretizedOp(assemble(grid.longer().n), grid.longer(), components)
    c, n, big = components, grid.n, longer.grid.n
    matrix = longer.matrix.reshape(c, big, c, big)[:, :n, :, :n].reshape(c * n, c * n)
    return DiscretizedOp(matrix, grid, components, longer)


def wh_matrix(a: GSymbol, grid, cfg=DEFAULT_CONFIG) -> DiscretizedOp:
    """Half-line convolution operator W(a) on the midpoint grid."""
    return _discretized(lambda n: _toeplitz(a, grid, n), grid, cfg)


def hankel_matrix(b: GSymbol, grid, cfg=DEFAULT_CONFIG) -> DiscretizedOp:
    """Hankel operator H(b), see _hankel."""
    return _discretized(lambda n: _hankel(b, grid, n), grid, cfg)


def w0_matrix(a: GSymbol, grid) -> DiscretizedOp:
    """Whole-line convolution operator on the mirrored grid [-T, T]: centred,
    so no leading block of a longer grid's, and without a longer operator."""
    return DiscretizedOp(_toeplitz(a, grid, 2 * grid.n), grid)


def wh_plus_hankel(a, b, sign, grid, cfg=DEFAULT_CONFIG) -> DiscretizedOp:
    def assemble(n):
        matrix, hb = _toeplitz(a, grid, n), _hankel(b, grid, n)
        if sign > 0:
            matrix += hb
        else:
            matrix -= hb
        return matrix

    return _discretized(assemble, grid, cfg)


def block_v_matrix(pair, grid, cfg=DEFAULT_CONFIG) -> DiscretizedOp:
    """The 2N x 2N block operator W(V(a,b)) of a matching pair, see _block_v."""
    sub = subordinated(pair)
    return _discretized(lambda n: _block_v(sub, grid, n), grid, cfg, components=2)


def block_factorization_residual(pair, grid) -> float:
    """Defect of the whole-line three-factor splitting of the pair operator.

    Verifies, on interior-supported random vectors, that

        diag(W(a)+H(b)+Q, W(a)-H(b)+Q) = B1 B2 B3 (W(V(a,b)) + diag(Q,Q)) A,

    where A couples the components through W0(b~), W0(a~) and the flip,
    B1 = (1/2) [[I, J], [I, -J]], B2/B3 are identity-plus-triangular
    corrections, and all blocks act on the mirrored grid.  Returns the worst
    relative residual over three vectors drawn from a fixed seed.
    """
    sub = subordinated(pair)
    a, b = pair.a, pair.b
    at, btld, at_inv = tilde(a), tilde(b), sub.at_inv
    n2 = 2 * grid.n
    pos = grid.full_nodes() > 0     # P keeps these nodes, Q = I - P the others

    def p(v):
        return np.where(pos, v, 0.0)

    def q(v):
        return np.where(pos, 0.0, v)

    def j(v):
        return v[::-1]

    w0 = {s: _toeplitz(s, grid, n2) for s in (a, b, btld, at, sub.c, sub.d, at_inv)}
    corner = a - b * btld * at_inv
    w0corner = (
        np.zeros((n2, n2), dtype=complex)
        if corner.is_zero()
        else _toeplitz(corner, grid, n2)
    )
    rng = np.random.default_rng(0)
    mask = np.abs(grid.full_nodes()) <= grid.T / 2
    worst = 0.0
    for _ in range(3):
        x = rng.normal(size=2 * n2) + 1j * rng.normal(size=2 * n2)
        x[:n2][~mask] = 0.0
        x[n2:][~mask] = 0.0
        x1, x2 = x[:n2], x[n2:]
        lhs = np.concatenate([
            p(w0[a] @ p(x1)) + p(w0[b] @ q(j(x1))) + q(x1),
            p(w0[a] @ p(x2)) - p(w0[b] @ q(j(x2))) + q(x2),
        ])
        # A
        y1 = x1 + x2
        y2 = w0[btld] @ y1 + w0[at] @ j(x1 - x2)
        # W(V(a,b)) + diag(Q, Q)
        z1 = p(w0[sub.d] @ p(y2)) + q(y1)
        z2 = -p(w0[sub.c] @ p(y1)) + p(w0[at_inv] @ p(y2)) + q(y2)
        # B3
        r1 = z1 + p(w0corner @ q(z1)) + p(w0[sub.d] @ q(z2))
        r2 = z2 - p(w0[sub.c] @ q(z1)) + p(w0[at_inv] @ q(z2))
        # B2
        s1 = r1 - p(w0[a] @ q(r1)) - p(w0[b] @ p(r2))
        s2 = r2 - q(w0[btld] @ q(r1)) - q(w0[at] @ p(r2))
        # B1
        rhs = 0.5 * np.concatenate([s1 + j(s2), s1 - j(s2)])
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x)))
    return worst


def block_v_product_form(pair, grid) -> np.ndarray:
    """The same block operator assembled from its three-factor product form."""
    sub = subordinated(pair)
    n = grid.n
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    wd = _toeplitz(sub.d, grid, n)
    wc = _toeplitz(sub.c, grid, n)
    wai = _toeplitz(sub.at_inv, grid, n)
    f1 = np.block([[-wd, zero], [zero, eye]])
    f2 = np.block([[zero, -eye], [eye, wai]])
    f3 = np.block([[-wc, zero], [zero, eye]])
    return f1 @ f2 @ f3


# --- kernel estimation --------------------------------------------------------

#: rounding allowance of the certificate, in units of (m + n) eps ||A||_F^2
#: (shift) and (m + n) eps sqrt(d) ||A||_F (residual bound)
CERT_C = 4

#: a passing certificate also proves no singular value in [cut, gap),
#: gap = GAP_TAU * norm_est(M)
GAP_TAU = 1e-3


def _cholesky_certifies(a, cut, d, slack=0.0, gap=0.0):
    """True when a proof shows that exactly d singular values of a lie below
    cut, each clear of it by more than a computed singular value's rounding,
    and none in [cut, gap); False proves nothing.  slack widens the margin
    at the cut on both sides by a relative slack * cut (the Weyl shift of a
    dropped Im part).

    For an m x n matrix a, let G = a^H a and F = ||a||_F^2.  For d >= 1:

    1. W = orth(G^-1 R), R an n x d draw of a fixed-seed generator: one step
       of inverse iteration, which finds the d-dimensional near-null space
       to about eps F / sigma_(d+1)^2.
    2. At least d below: by Courant-Fischer sigma_(n-d+1)(a) <=
       ||a W||_2 / sigma_min(W).  The product a W is off by at most
       n eps sqrt(d) ||a||_F, so the bound plus CERT_C (m + n) eps sqrt(d)
       ||a||_F below (1 - slack) cut leaves more than 3 (m + n) eps ||a||_F
       of room.
    3. At most d below: factor G + F W W^H - s I by Cholesky, with
       s = c^2 + CERT_C (m + n) eps F (1 + d), c = max(gap, (1 + slack) cut).
       A rank-d PSD update raises at most d eigenvalues (interlacing), so
       success proves sigma_(n-d)(a)^2 >= c^2 + 3 (m + n) eps F:
       the rounding of the Gram matrix (gamma_m F), of the update and that
       of a Cholesky that runs to completion (gamma_(n+1) trace) stay below
       (m + n) eps F (1 + d) together.

    d = 0 is step 3 alone, on G - s I.  d >= n proves nothing.
    """
    m, n = a.shape
    if d >= n:
        return False
    fro2 = np.linalg.norm(a) ** 2
    g = a.conj().T @ a
    eps = np.finfo(a.dtype).eps
    if d:
        rng = np.random.default_rng(0)
        r = rng.standard_normal((n, d))
        if np.iscomplexobj(a):
            r = r + 1j * rng.standard_normal((n, d))
        try:
            w, _ = np.linalg.qr(np.linalg.solve(g, r))
        except np.linalg.LinAlgError:
            return False
        bound = np.linalg.norm(a @ w, 2) / np.linalg.norm(w, -2)
        room = CERT_C * (m + n) * eps * math.sqrt(d * fro2)
        if not bound + room < (1 - slack) * cut:   # also False for NaN
            return False
        g += (fro2 * w) @ w.conj().T
    shift = max(gap, (1 + slack) * cut) ** 2 + CERT_C * (m + n) * eps * fro2 * (1 + d)
    g[np.diag_indices(n)] -= shift
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def _interior_columns(op: DiscretizedOp):
    """Indices of the columns of each component outside its outer
    BOUNDARY_FRAC window."""
    n_comp = op.matrix.shape[1] // op.components
    keep = n_comp - max(1, int(round(BOUNDARY_FRAC * n_comp)))
    return np.concatenate(
        [np.arange(c * n_comp, c * n_comp + keep) for c in range(op.components)]
    )


def _rank_data(op: DiscretizedOp):
    """(scale, ||Im M||_F) of op's matrix M, scale = norm_est(M) (at least
    1e-300): computed once per operator, for its kernel and its cokernel."""
    if op.rank_data is None:
        m = op.matrix
        imag = float(np.linalg.norm(m.imag)) if np.iscomplexobj(m) else 0.0
        op.rank_data = (max(norm_est(m), 1e-300), imag)
    return op.rank_data


def _estimate_once(op: DiscretizedOp, tol, with_basis=True, certify=None, coker=False):
    """Null count of the interior columns of op's matrix M, or with coker of
    M^H (the interior rows of M), at tol * norm_est(M), plus the null vectors
    (zero on the outer window) and their residuals when with_basis.  Without
    a basis an operator whose imaginary part is rounding noise is decided on
    its real part, and with a count certify the certificate of that count is
    tried first: when it holds the count is certify and no SVD runs (the
    singular values come back empty)."""
    cols = _interior_columns(op)
    scale, imag = _rank_data(op)
    cut = tol * scale
    # Weyl: dropping Im M moves every sigma by at most ||Im M||_F
    real = not with_basis and imag <= 1e-3 * cut
    m = op.matrix.real if real else op.matrix
    a = m[cols].conj().T if coker else m[:, cols]      # a contiguous copy
    if not with_basis:
        slack = 1e-3 if real and imag else 0.0
        if certify is not None and _cholesky_certifies(
                a, cut, certify, slack, GAP_TAU * scale):
            return certify, [], (), []
        s = np.linalg.svd(a, compute_uv=False)
        return int(np.count_nonzero(s < cut)), [], s, []
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    null = s < cut
    basis = np.zeros((np.count_nonzero(null), m.shape[1]), dtype=complex)
    basis[:, cols] = vh[null].conj()
    residuals = [float(np.linalg.norm(v.conj() @ m if coker else m @ v) / scale)
                 for v in basis]
    return len(basis), basis, s, residuals


def _estimate(op: DiscretizedOp, cfg, with_basis, hint, coker):
    """kernel_estimate of op, or with coker of its conjugate transpose."""
    if cfg.stability and op.longer is None:
        raise ValueError("the stability re-run needs the operator on the longer "
                         "grid: assemble it with stability on")
    tol = cfg.rank_tol
    dim, basis, s, residuals = _estimate_once(op, tol, with_basis, hint, coker)
    decided_by = ["svd" if len(s) else "certificate"]
    stable = True
    if cfg.stability:
        dim2, _, s2, _ = _estimate_once(op.longer, tol, False, dim, coker)
        decided_by.append("svd" if len(s2) else "certificate")
        stable = dim2 == dim
    return KernelEstimate(
        dim=dim,
        basis=tuple(basis),
        singular_values=tuple(float(x) for x in s),
        tol=tol,
        stable=stable,
        residuals=tuple(residuals),
        scale=_rank_data(op)[0],
        decided_by=tuple(decided_by),
    )


def kernel_estimate(op: DiscretizedOp, cfg=DEFAULT_CONFIG,
                    with_basis=True, hint=None) -> KernelEstimate:
    """Numerical kernel dimension and orthonormal basis of a discretized operator.

    dim counts singular values of the interior columns below
    cfg.rank_tol * norm_est(M).  With stability enabled the dimension is
    recomputed on op.longer, the operator op was sliced from, and must
    agree, else the estimate is flagged; an op without one (assembled with
    stability off) raises ValueError.  The re-run needs only the dimension,
    so it first tries a certificate that exactly the grid's count of
    singular values lies below the cut, and computes singular values only
    when that fails; a values-only estimate tries the certificate of hint, a
    predicted dimension, on the grid too.  The whole estimate computes values
    only when with_basis is False, which leaves basis and residuals empty.
    """
    return _estimate(op, cfg, with_basis, hint, coker=False)


def coker_estimate(op: DiscretizedOp, cfg=DEFAULT_CONFIG,
                   with_basis=True, hint=None) -> KernelEstimate:
    """Cokernel dimension: the kernel estimate of M^H, from the interior rows of M."""
    return _estimate(op, cfg, with_basis, hint, coker=True)


# --- verdicts ---------------------------------------------------------------------

@dataclass
class VerdictRow:
    cell: str
    predicted: str
    measured: object
    stable: bool
    verdict: str  # pass | fail | unstable | no-prediction | consistent

    def to_dict(self):
        return {
            "cell": self.cell,
            "predicted": self.predicted,
            "measured": self.measured,
            "stable": self.stable,
            "verdict": self.verdict,
        }


@dataclass
class VerdictTable:
    rows: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.verdict != "fail" for r in self.rows)

    def add(self, *args, **kw):
        self.rows.append(VerdictRow(*args, **kw))

    def format_text(self):
        w = max([len(r.cell) for r in self.rows] + [4])
        lines = [f"{'cell':<{w}}  {'predicted':>12}  {'measured':>10}  verdict"]
        for r in self.rows:
            lines.append(
                f"{r.cell:<{w}}  {r.predicted:>12}  {str(r.measured):>10}  "
                f"{r.verdict}{'' if r.stable else ' (unstable)'}"
            )
        return "\n".join(lines)


def _judge(dim_pred, measured, stable):
    """Compare one predicted dimension against a measured one."""
    kind = dim_pred.kind
    if not stable:
        return "unstable"
    if kind == "exact":
        return "pass" if measured == dim_pred.value else "fail"
    if kind == "at_least":
        return "pass" if measured >= dim_pred.value else "fail"
    if kind == "infinite":
        return "consistent" if measured >= 3 else "fail"
    return "no-prediction"


def _dim_rows(table, prefix, sign_report, op, cfg):
    """Add the ker and coker rows of op against sign_report; returns the
    kernel and cokernel estimates."""
    estimates = []
    for cell, dim_pred, estimate in (("ker", sign_report.ker, kernel_estimate),
                                     ("coker", sign_report.coker, coker_estimate)):
        # an exact prediction is the grid's hint: its certificate runs first
        hint = dim_pred.value if dim_pred.kind == "exact" else None
        est = estimate(op, cfg, with_basis=False, hint=hint)
        table.add(prefix + cell, dim_pred.describe(), est.dim, est.stable,
                  _judge(dim_pred, est.dim, est.stable))
        estimates.append(est)
    return tuple(estimates)


def verify(report, pair, grid, cfg=DEFAULT_CONFIG) -> VerdictTable:
    """Compare a classification report against oracle kernel/cokernel estimates."""
    table = VerdictTable()
    lhs, stable = 0, True       # measured index sum; every side stable
    for sign, sr in (("plus", report.plus), ("minus", report.minus)):
        op = wh_plus_hankel(pair.a, pair.b, +1 if sign == "plus" else -1, grid, cfg)
        ker, cok = _dim_rows(table, f"{sign}.", sr, op, cfg)
        lhs += ker.dim - cok.dim
        stable = stable and ker.stable and cok.stable
    if report.index_check is not None:
        rhs = report.index_check["rhs"]
        table.add("index-identity", str(rhs), lhs, stable,
                  _judge(Dim.exact(rhs), lhs, stable))
    return table


def verify_scalar(report, a, grid, cfg=DEFAULT_CONFIG) -> VerdictTable:
    """Oracle check of a scalar half-line operator classification."""
    table = VerdictTable()
    _dim_rows(table, "", report, wh_matrix(a, grid, cfg), cfg)
    return table

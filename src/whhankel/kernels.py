"""Explicit kernel elements and kernel-transport maps.

The half-kernel maps phi_+-, the right inverse W_r^(-1)(c) and the kappa
tester of the conditional branch (n(c) = +1, one-dimensional ker W(d)) read
no grid.  They hold every half-line function as its image, a rational
function with poles in the lower half-plane (e^(-t) <-> i/(t + i),
`EXP_IMAGE`), and apply W, J Q W0 P and the range test of W(chi) to it in
closed form (`symbols.half_line_apply`, `symbols.half_line_flip`,
`symbols.half_line_norm`).  On ker W(g) the involution J Q W0(g) P is
`symbols.half_line_flip(g, f)`, and the sign projections are
(f +- J Q W0(g) P f)/2.

The scalar kernel bases W(g_+^(-1)) psi0_discrete and the mutually inverse
transport maps between ker W(V(a,b)) and ker(W(a) +- H(b)) evaluate on a
grid, where the transport is checked against the dense block operator.  On
the mirrored midpoint grid the discrete operators satisfy
J Q W0(g) P = H(tilde(g)) exactly, so these maps apply N x N Toeplitz and
Hankel operators as convolutions of the generator (`oracle._toeplitz_apply`,
`oracle._hankel_apply`); only their kernel checks against the block operator
and W(a) +- H(b) assemble a matrix (a Workspace assembles one on every
request and keeps none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import factorization, oracle, symbols
from .classify import MatchingPair, SubordinatedPair, _chi_reduced, subordinated
from .errors import Inconclusive, NoRightInverse, NotInKernel, WrongIndex
from .oracle import DEFAULT_CONFIG, Grid
from .symbols import GSymbol, inverse, tilde


@dataclass(frozen=True)
class GridFunction:
    """Values on the grid's half-line nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n:
            raise ValueError("value count does not match the grid's half-line nodes")

    def norm(self):
        return float(np.sqrt(self.grid.h) * np.linalg.norm(self.values))

    def normalized(self):
        nrm = self.norm()
        return GridFunction(self.grid, self.values / nrm)

    def to_triples(self):
        return [
            (float(t), float(v.real), float(v.imag))
            for t, v in zip(self.grid.half_nodes(), self.values)
        ]


class Workspace:
    """A grid and its oracle settings; wh and hank assemble a matrix on every
    call and keep none, since each is read once; flip_apply applies its
    Hankel operator without one."""

    def __init__(self, grid, cfg=DEFAULT_CONFIG):
        self.grid = grid
        self.cfg = cfg

    def wh(self, sym) -> np.ndarray:
        return oracle._toeplitz(sym, self.grid, self.grid.n)

    def hank(self, sym) -> np.ndarray:
        return oracle._hankel(sym, self.grid, self.grid.n)

    def flip_apply(self, g, v):
        """J Q W0(g) P on a half-line vector, computed as H(tilde(g))."""
        return oracle._hankel_apply(tilde(g), self.grid, v)

    def gf(self, values):
        return GridFunction(self.grid, np.asarray(values, dtype=complex))


def psi0_discrete(grid) -> GridFunction:
    """The exact kernel generator of the discretized operator: the geometric
    sequence r^(j+1/2), r = (2-h)/(2+h), which deviates from e^(-t) by an
    O(h^2) exponent error but annihilates the discrete W(chi^(-1)) to
    truncation accuracy.  Kernel formulas use this twin so transport
    identities hold at near machine precision."""
    r = (2.0 - grid.h) / (2.0 + grid.h)
    j = np.arange(grid.n)
    return GridFunction(grid, (r ** (j + 0.5)).astype(complex))


def kernel_basis_scalar(g: GSymbol, ws: Workspace):
    """[W(g_+^(-1)) psi0_discrete], the kernel basis of W(g) when nu = 0 and n = -1."""
    v = oracle._toeplitz_apply(_plus_inverse(g), ws.grid, psi0_discrete(ws.grid).values)
    return [ws.gf(v).normalized()]


def _plus_inverse(g):
    """g_+^(-1) of the factorization of g, which must have n = -1."""
    g_plus, n, _ = factorization.matching_factorization(g)
    if n != -1:
        raise WrongIndex(f"kernel basis formula requires n = -1, got n = {n}")
    return inverse(g_plus)


def _require_in_kernel(ws, mat, v, what, scale=None):
    """Relative kernel residual check of an assembled matrix (the block and
    W(a) +- H(b) gates of the transport maps); ``scale`` guards vectors that
    are themselves negligible (the zero vector lies in every kernel)."""
    nv = np.linalg.norm(v)
    if nv == 0.0 or (scale is not None and nv <= 1e-6 * scale):
        return 0.0
    return _gate(ws, np.linalg.norm(mat @ v) / (oracle.norm_est(mat) * nv), what)


def _gate(ws, res, what):
    """The relative residual res, or NotInKernel above ws.cfg.residual_tol."""
    res = float(res)
    if res > ws.cfg.residual_tol:
        raise NotInKernel(f"{what}: relative residual {res:.2e}")
    return res


def projection_image_dims(g, basis, ws):
    """(dim im P^+, dim im P^-) measured from a kernel basis by numerical rank,
    cut at 1e-6 of the stacked vectors' norm."""
    if not basis:
        return 0, 0
    plus_vecs = []
    minus_vecs = []
    for f in basis:
        pf = ws.flip_apply(g, np.asarray(f.values, dtype=complex))
        plus_vecs.append(0.5 * (f.values + pf))
        minus_vecs.append(0.5 * (f.values - pf))

    scale = max(np.linalg.norm(np.vstack(plus_vecs + minus_vecs)), 1e-30)

    def rank(vecs):
        s = np.linalg.svd(np.vstack(vecs), compute_uv=False)
        return int(np.sum(s > 1e-6 * scale))

    return rank(plus_vecs), rank(minus_vecs)


# --- transport between the block kernel and the +- kernels -------------------

def e1_map(pair: MatchingPair, phi: GridFunction, psi: GridFunction, ws: Workspace):
    """Send (phi, psi) in ker W(V(a,b)) to (Phi, Psi) in ker(W+H) x ker(W-H)."""
    sub = subordinated(pair)
    v = np.concatenate([phi.values, psi.values])
    block = oracle._block_v(sub, ws.grid, ws.grid.n)
    _require_in_kernel(ws, block, v, "transport input (block kernel)")
    jc = ws.flip_apply(sub.c, phi.values)
    ja = ws.flip_apply(sub.at_inv, psi.values)
    big_phi = 0.5 * (phi.values - jc + ja)
    big_psi = 0.5 * (phi.values + jc - ja)
    return ws.gf(big_phi), ws.gf(big_psi)


def e2_map(pair: MatchingPair, big_phi: GridFunction, big_psi: GridFunction,
           ws: Workspace):
    """Inverse transport: (Phi, Psi) back into ker W(V(a,b))."""
    a, b = pair.a, pair.b
    wa, hb = ws.wh(a), ws.hank(b)
    scale = max(np.linalg.norm(big_phi.values), np.linalg.norm(big_psi.values))
    _require_in_kernel(ws, wa + hb, big_phi.values, "transport input (plus kernel)", scale)
    _require_in_kernel(ws, wa - hb, big_psi.values, "transport input (minus kernel)", scale)
    s = big_phi.values + big_psi.values
    diff = big_phi.values - big_psi.values
    second = oracle._toeplitz_apply(tilde(b), ws.grid, s) + ws.flip_apply(a, diff)
    return ws.gf(s), ws.gf(second)


# --- closed form on half-line images ------------------------------------------

#: i/(t + i), the half-line image of e^(-t), which spans ker W(chi^(-1))
EXP_IMAGE = symbols.pole_symbol([1j], [(-1j, 1)])

#: kappa lies in the range of W(chi) at or below the first residual, and
#: outside it at or above the second; in between the decision is Inconclusive
IN_RANGE_TOL, OUT_OF_RANGE_TOL = 1e-12, 1e-6


def _kernel_image(g_plus_inv):
    """W(g_+^(-1)) e^(-t), which spans ker W(g) when n(g) = -1, as its image."""
    return symbols.half_line_apply(g_plus_inv, EXP_IMAGE)


def _right_inverse_recipe(c: GSymbol):
    """The factorization recipe [c_+^(-1), chi^(-n), c_-^(-1)] of W_r^(-1)(c)."""
    f = factorization.factorize(c)
    if f.n > 0 or abs(f.nu) > 1e-9:
        raise NoRightInverse(f"W(c) with nu = {f.nu:g}, n = {f.n} is not right-invertible")
    return factorization.one_sided_inverse_recipe(f, "right")


def right_inverse_apply(c: GSymbol, f: GSymbol) -> GSymbol:
    """W_r^(-1)(c) f for the half-line image f: the factors of the recipe of
    c applied rightmost first."""
    for g in reversed(_right_inverse_recipe(c).factors):
        f = symbols.half_line_apply(g, f)
    return f


def phi_pm(sub: SubordinatedPair, s: GSymbol, sign: str) -> GSymbol:
    """phi_+-(s) in ker(W(a) +- H(b)) for the image s of an element of
    ker W(d), where sub is the subordinated pair of (a, b):

        2 phi_+-(s) = y -+ J Q W0(c) P y +- J Q W0(a~^(-1)) P s,
        y = W_r^(-1)(c) W(a~^(-1)) s.

    s is checked to lie in ker W(d) before the recipe of c is built.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    norm = symbols.half_line_norm(s)
    res = symbols.half_line_norm(symbols.half_line_apply(sub.d, s)) / norm if norm else 0.0
    if res > DEFAULT_CONFIG.residual_tol:
        raise NotInKernel(f"phi input (ker W(d)): relative residual {res:.2e}")
    y = right_inverse_apply(sub.c, symbols.half_line_apply(sub.at_inv, s))
    jy = symbols.half_line_flip(sub.c, y)
    js = symbols.half_line_flip(sub.at_inv, s)
    return 0.5 * (y - jy + js if sign == "+" else y + jy - js)


@dataclass(frozen=True)
class KappaResult:
    in_image: bool
    residual: float

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("inspect .in_image explicitly")


def kappa_for_pair(sub: SubordinatedPair) -> KappaResult:
    """General conditional branch: n(c) = +1 and one-dimensional ker W(d).

    Reduces sub, the subordinated pair of (a, b), to (c chi^(-2), d), that of
    (a chi^(-1), b chi), and transports s = W(d_+^(-1)) e^(-t), which spans
    ker W(d), to kappa = phi_-(s).  The range of W(chi) is the orthogonal
    complement of e^(-t), so kappa lies in it exactly when
    kappa^(i) = <kappa, e^(-t)> vanishes; the residual is
    |<kappa, e^(-t)>| / (|kappa| |e^(-t)|) = sqrt(2) |kappa^(i)| / |kappa|.
    """
    red = _chi_reduced(sub)
    kappa = phi_pm(red, _kernel_image(_plus_inverse(red.d)), "-")
    norm = symbols.half_line_norm(kappa)
    at_i = sum((w.rational.eval(1j) for w in kappa.l0), 0j)
    residual = float(math.sqrt(2.0) * abs(at_i) / norm) if norm else 0.0
    if OUT_OF_RANGE_TOL > residual > IN_RANGE_TOL:
        raise Inconclusive(
            f"kappa tester: membership residual {residual:.2e} lies between "
            f"{IN_RANGE_TOL:g} and {OUT_OF_RANGE_TOL:g}"
        )
    return KappaResult(in_image=bool(residual <= IN_RANGE_TOL), residual=residual)


def make_kappa_tester(_grid, _cfg):
    """The classify() tester of perfbench's classify-sweep; it reads no
    grid.  Each call looks kappa_for_pair up, so a wrapper put on the module
    sees it."""
    return lambda sub: kappa_for_pair(sub)

"""Explicit kernel elements and kernel-transport maps, evaluated on grids.

Everything here reduces whole-line compositions like J Q W0(g) P to half-line
Hankel applications: on the mirrored midpoint grid the discrete operators
satisfy J Q W0(g) P = H(tilde(g)) exactly, so the maps below run on N x N
Toeplitz/Hankel operators.  Only the kernel checks of the transport maps
against the block operator and W(a) +- H(b) assemble a matrix (a Workspace
assembles one on every request and keeps none).  Everything else, the flip
map, projections, recipes, kernel bases, phi_+- and the kappa tester,
applies its factors as convolutions of the generator
(`oracle._toeplitz_apply`, `oracle._hankel_apply`), and a check that v lies
in ker W(g) reads W(g) v from the generator too, so the kappa tester
assembles no matrix.

Contents: the exponential kernel generator psi0, scalar kernel bases
W(g_+^(-1)) psi0, the involutive projections (f +- J Q W0(g) P f)/2 on
kernels, the mutually inverse transport maps between ker W(V(a,b)) and
ker(W(a) +- H(b)), the half-kernel maps phi_+-, and the conditional
image-membership element for the n(c) = +1 branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import factorization, oracle, symbols
from .classify import MatchingPair, SubordinatedPair, _chi_reduced, subordinated
from .errors import (
    NoRightInverse,
    NotInKernel,
    WrongCase,
    WrongIndex,
)
from .oracle import DEFAULT_CONFIG, Grid
from .symbols import GSymbol, inverse, tilde

#: relative distance from the range of W(chi) below which kappa lies in it
MEMBERSHIP_TOL = 1e-4


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


def psi0(grid) -> GridFunction:
    """e^(-t) on the half-line nodes."""
    return GridFunction(grid, np.exp(-grid.half_nodes()).astype(complex))


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
    """[W(g_+^(-1)) psi0], the kernel basis of W(g) when nu = 0 and n = -1."""
    return [_kernel_vector(_plus_inverse(g), ws)]


def _plus_inverse(g):
    """g_+^(-1) of the factorization of g, which must have n = -1."""
    g_plus, n, _ = factorization.matching_factorization(g)
    if n != -1:
        raise WrongIndex(f"kernel basis formula requires n = -1, got n = {n}")
    return inverse(g_plus)


def _kernel_vector(g_plus_inv, ws):
    """W(g_+^(-1)) psi0 on ws's grid, normalized."""
    v = oracle._toeplitz_apply(g_plus_inv, ws.grid, psi0_discrete(ws.grid).values)
    return ws.gf(v).normalized()


def _require_in_kernel(ws, mat, v, what, scale=None):
    """Relative kernel residual check of an assembled matrix (the block and
    W(a) +- H(b) gates; W(g) alone has `_require_in_wh_kernel`); ``scale``
    guards vectors that are themselves negligible (the zero vector lies in
    every kernel)."""
    nv = np.linalg.norm(v)
    if nv == 0.0 or (scale is not None and nv <= 1e-6 * scale):
        return 0.0
    return _gate(ws, np.linalg.norm(mat @ v) / (oracle.norm_est(mat) * nv), what)


def _require_in_wh_kernel(ws, sym, v, what):
    """_require_in_kernel of W(sym) without its matrix: W(sym) v is a
    convolution of the generator, and norm_est(W(sym)) is the largest sum of
    n consecutive |generator| entries, the sum of every row and column of a
    Toeplitz matrix at one offset."""
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    n = len(v)
    gen = oracle._symbol_gen(sym, ws.grid, np.arange(-(n - 1), n))
    scale = np.convolve(np.abs(gen), np.ones(n), "valid").max()
    return _gate(ws, np.linalg.norm(np.convolve(gen, v, "valid")) / (scale * nv), what)


def _gate(ws, res, what):
    """The relative residual res, or NotInKernel above ws.cfg.residual_tol."""
    res = float(res)
    if res > ws.cfg.residual_tol:
        raise NotInKernel(f"{what}: relative residual {res:.2e}")
    return res


def projection_P(g: GSymbol, f: GridFunction, ws: Workspace) -> GridFunction:
    """J Q W0(g) P f for f in ker W(g); an involution on the kernel."""
    v = np.asarray(f.values, dtype=complex)
    _require_in_wh_kernel(ws, g, v, "projection input")
    return ws.gf(ws.flip_apply(g, v))


def p_plus(g, f, ws):
    pf = projection_P(g, f, ws)
    return ws.gf(0.5 * (f.values + pf.values))


def p_minus(g, f, ws):
    pf = projection_P(g, f, ws)
    return ws.gf(0.5 * (f.values - pf.values))


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


def _right_inverse_recipe(c: GSymbol):
    """The factorization recipe [c_+^(-1), chi^(-n), c_-^(-1)] of W_r^(-1)(c)."""
    f = factorization.factorize(c)
    if f.n > 0 or abs(f.nu) > 1e-9:
        raise NoRightInverse(f"W(c) with nu = {f.nu:g}, n = {f.n} is not right-invertible")
    return factorization.one_sided_inverse_recipe(f, "right")


def right_inverse_apply(c: GSymbol, v, ws: Workspace):
    """W_r^(-1)(c) v through the factorization recipe [c_+^(-1), chi^(-n), c_-^(-1)]."""
    return oracle.apply_recipe(_right_inverse_recipe(c), v, ws.grid)


def phi_pm(sub: SubordinatedPair, s: GridFunction, sign: str, ws: Workspace):
    """phi_+-(s) in ker(W(a) +- H(b)) for s in ker W(d), where sub is the
    subordinated pair of (a, b):

        2 phi_+-(s) = y -+ J Q W0(c) P y +- J Q W0(a~^(-1)) s,
        y = W_r^(-1)(c) W(a~^(-1)) s.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    _require_in_wh_kernel(ws, sub.d, s.values, "phi input (ker W(d))")
    return ws.gf(_phi(sub, _right_inverse_recipe(sub.c), s.values, sign, ws))


def _phi(sub, recipe, s, sign, ws):
    """phi_+-(s) values (see phi_pm) for s already checked to lie in ker W(d),
    with W_r^(-1)(c) given as its recipe."""
    y = oracle.apply_recipe(recipe, oracle._toeplitz_apply(sub.at_inv, ws.grid, s), ws.grid)
    jy = ws.flip_apply(sub.c, y)
    js = ws.flip_apply(sub.at_inv, s)
    if sign == "+":
        return 0.5 * (y - jy + js)
    return 0.5 * (y + jy - js)


# --- the conditional membership element ----------------------------------------

@dataclass(frozen=True)
class KappaResult:
    kappa: GridFunction
    in_image: bool
    residual: float
    stable: bool
    diagnostics: dict

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("inspect .in_image explicitly")


def _membership_residual(x, grid, chis):
    """Relative distance of x from its projection W(chi) W(chi^(-1)) x onto
    the range of W(chi), chis = (chi^(-1), chi), applied as two convolutions."""
    q0x = oracle._toeplitz_apply(chis[1], grid, oracle._toeplitz_apply(chis[0], grid, x))
    nx = np.linalg.norm(x)
    if nx == 0:
        return 0.0
    return float(np.linalg.norm(x - q0x) / nx)


def _on_grid(compute, ws, which, stage):
    """compute(ws); a NotInKernel raised inside names the grid and the stage."""
    try:
        return compute(ws)
    except NotInKernel as err:
        g = ws.grid
        raise NotInKernel(f"{which} grid T={g.T:g} h={g.h:g}, {stage}: {err}") from err


def _two_grid_membership(compute, ws, stage):
    """KappaResult of compute(w) -> (kappa, residual, diagnostics) on ws's
    grid; with ws.cfg.stability it is stable when the membership decision is
    the same on Grid.longer(), recomputed there since products of truncated
    matrices do not nest, else stable without running it."""
    kappa, res, diag = _on_grid(compute, ws, "shorter", stage)
    in_img = res < MEMBERSHIP_TOL
    stable = True
    if ws.cfg.stability:
        long_ws = Workspace(ws.grid.longer(), ws.cfg)
        _, res2, _ = _on_grid(compute, long_ws, "longer", stage)
        stable = (res2 < MEMBERSHIP_TOL) == in_img
    return KappaResult(
        kappa=ws.gf(kappa),
        in_image=in_img,
        residual=res,
        stable=stable,
        diagnostics=diag,
    )


def kappa_element(a: GSymbol, ws: Workspace) -> KappaResult:
    """The transported kernel candidate for the pair (a, a chi^(-1)) with
    nu(a) = n(a) = 0, and its membership in the range of W(chi).

    kappa = W(chi) W(alpha~^(-1)) W(d_+^(-1)) psi0
            + J Q W0(chi^(-1)) P W0(chi) P W(alpha~^(-1)) W(d_+^(-1)) psi0
            - J Q W0(alpha~^(-1)) P W(d_+^(-1)) psi0,

    with alpha = a chi^(-1) and d = a a~^(-1) chi^(-1).  The middle term is
    the zero operator in exact arithmetic (a flip identity) and is asserted
    small; the minus operator W(a) - H(a chi^(-1)) is invertible exactly when
    the third term stays outside the range, i.e. in_image is False.
    """
    if abs(symbols.nu(a)) > 1e-9:
        raise WrongCase("kappa element requires nu(a) = 0")
    if symbols.winding_n(a) != 0:
        raise WrongCase("kappa element requires n(a) = 0")
    alpha = a * symbols.chi(-1)
    d = a * inverse(tilde(a)) * symbols.chi(-1)
    alpha_t_inv = inverse(tilde(alpha))
    d_plus_inv = _plus_inverse(d)
    chis = (symbols.chi(-1), symbols.chi(1))

    def compute(w):
        s = oracle._toeplitz_apply(d_plus_inv, w.grid, psi0_discrete(w.grid).values)
        z = oracle._toeplitz_apply(alpha_t_inv, w.grid, s)
        t1 = oracle._toeplitz_apply(chis[1], w.grid, z)
        t2 = w.flip_apply(chis[0], t1)
        t3 = w.flip_apply(alpha_t_inv, s)
        kappa = t1 + t2 - t3
        scale = max(np.linalg.norm(s), 1e-30)
        diag = {
            "middle_term_norm": float(np.linalg.norm(t2) / scale),
            "first_term_membership": _membership_residual(t1, w.grid, chis),
        }
        return kappa, _membership_residual(t3, w.grid, chis), diag

    return _two_grid_membership(compute, ws, "kappa element")


def kappa_for_pair(sub: SubordinatedPair, ws: Workspace) -> KappaResult:
    """General conditional branch: n(c) = +1 and one-dimensional ker W(d).

    Reduces sub, the subordinated pair of (a, b), to (c chi^(-2), d), that of
    (a chi^(-1), b chi), transports the kernel of W(d) through phi_-, and
    tests whether the transported element meets the range of W(chi).  With
    ws.cfg.stability the verdict must agree on both grids.

    The symbols are computed once per call, not per grid: the reduced pair,
    d_+^(-1), the right-inverse recipe of c and chi^(+-1).  The recipe is
    built on the first grid, after the kernel basis and the input check, so
    errors come in phi_pm's order.  Each grid applies its factors as
    convolutions and assembles no matrix.
    """
    red = _chi_reduced(sub)
    d_plus_inv = _plus_inverse(red.d)
    chis = (symbols.chi(-1), symbols.chi(1))
    recipe = None

    def compute(w):
        nonlocal recipe
        s = _kernel_vector(d_plus_inv, w).values
        _require_in_wh_kernel(w, red.d, s, "phi input (ker W(d))")
        if recipe is None:
            recipe = _right_inverse_recipe(red.c)
        kappa = 2.0 * _phi(red, recipe, s, "-", w)
        return kappa, _membership_residual(kappa, w.grid, chis), {}

    return _two_grid_membership(compute, ws, "kappa tester")


def make_kappa_tester(grid, cfg=DEFAULT_CONFIG):
    """classify()-compatible tester of a subordinated pair on a grid; a call
    assembles no matrix: it applies every factor as a convolution."""
    ws = Workspace(grid, cfg)
    return lambda sub: kappa_for_pair(sub, ws)

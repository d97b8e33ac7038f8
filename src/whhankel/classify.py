"""Matching-pair machinery and the kernel/cokernel classification engine.

For a matching pair (a, b) -- that is, a(t)a(-t) = b(t)b(-t) with a invertible
-- the operators W(a) +- H(b) are controlled by the subordinated pair

    c = b~ a~^(-1) = a b^(-1),      d = b a~^(-1) = b~^(-1) a,

both matching functions.  The classifier turns the indices (nu, n, xi) of c
and d into exact kernel and cokernel dimensions where the theory pins them
down, emits lower bounds where only the sum is determined, and marks the rest
unknown.  Every dimension carries a certificate naming the rule that produced
it, so oracle disagreements are attributable.

Where W(c) is right-invertible (n(c) <= 0) the kernels, and where W(d) is
left-invertible (n(d) >= 0) the cokernels, follow from (n(c), n(d), xi(c),
xi(d)) alone, by the split lemma of ker W(g) under the involution
J Q W0(g) P (README, "Classification").  The cokernel formula is the kernel
formula of the adjoint pair (conj a, conj b~), whose subordinated pair
(conj d, conj c) has indices (-n(d), -n(c), xi(d), xi(c)).  Kernels at
n(c) = +1 go through the chi-reduction (c chi^(-2), d), cokernels at
n(d) < 0 through the collapse and index-balance rules, and n(c) >= 2 is out
of scope.  Each rule reads the pair's own xi(c): b -> -b negates c, d and
both xi, which swaps the two reports, so no pair is classified as another.

One branch is genuinely conditional: n(c) = +1 with dim ker W(d) = 1, where
invertibility of side D (minus where xi(c) = 1, plus where xi(c) = -1)
hinges on whether a transported kernel element kappa lies in the range of
W(chi).  That membership is decided by an injected tester,
kernels.kappa_for_pair, which computes kappa in closed form as a rational
function and reads its inner product with e^(-t) from it; no grid is
involved, and a residual in the band between its two tolerances raises
Inconclusive instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import symbols
from .errors import (
    Inconclusive,
    NotInvertible,
    NotMatching,
    OutOfScope,
    XiNotUnimodular,
    WindingUnresolved,
    MeanMotionUnresolved,
)
from .symbols import GSymbol, conj, inverse, is_matching, tilde

NU_TOL = 1e-9
SIDES = ("plus", "minus")


# --- dimensions -------------------------------------------------------------

@dataclass(frozen=True)
class Dim:
    kind: str            # exact | at_least | infinite | unknown
    value: int = 0

    @staticmethod
    def exact(k):
        return Dim("exact", int(k))

    @staticmethod
    def at_least(k):
        return Dim("at_least", int(k)) if k > 0 else Dim.unknown()

    @staticmethod
    def infinite():
        return Dim("infinite")

    @staticmethod
    def unknown():
        return Dim("unknown")

    def describe(self):
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "at_least":
            return f">={self.value}"
        if self.kind == "infinite":
            return "inf"
        return "?"

    def __add__(self, other):
        if self.kind == "infinite" or other.kind == "infinite":
            return Dim.infinite()
        if self.kind == "exact" and other.kind == "exact":
            return Dim.exact(self.value + other.value)
        if self.kind == "unknown" and other.kind == "unknown":
            return Dim.unknown()
        lo = self.value if self.kind in ("exact", "at_least") else 0
        lo += other.value if other.kind in ("exact", "at_least") else 0
        return Dim.at_least(lo)


# --- report types --------------------------------------------------------------

@dataclass(frozen=True)
class SignReport:
    ker: Dim
    coker: Dim
    status: str
    certificate: str

    def to_dict(self):
        return {
            "ker": self.ker.describe(),
            "coker": self.coker.describe(),
            "status": self.status,
            "certificate": self.certificate,
        }


@dataclass(frozen=True)
class ClassificationReport:
    plus: SignReport
    minus: SignReport
    index_check: dict | None
    subordinated: dict

    def to_dict(self):
        return {
            "plus": self.plus.to_dict(),
            "minus": self.minus.to_dict(),
            "index_check": self.index_check,
            "subordinated": self.subordinated,
        }


# --- pairs --------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingPair:
    a: GSymbol
    b: GSymbol

    def __post_init__(self):
        if not symbols._same_mirror_product(self.a, self.b):
            raise NotMatching("a(t)a(-t) != b(t)b(-t)")


@dataclass(frozen=True)
class SubordinatedPair:
    c: GSymbol
    d: GSymbol
    at_inv: GSymbol                 # a~^(-1), the factor shared by c and d
    nu_c: float
    nu_d: float
    n_c: int | None
    n_d: int | None
    xi_c: int | None
    xi_d: int | None

    def summary(self):
        return {
            "nu_c": self.nu_c,
            "nu_d": self.nu_d,
            "n_c": self.n_c,
            "n_d": self.n_d,
            "xi_c": self.xi_c,
            "xi_d": self.xi_d,
        }


def _indices(g):
    """(nu, n, xi) of a matching function; n and xi are None off their scope."""
    nu_g = symbols.nu(g)
    n_g = None
    xi_g = None
    if abs(nu_g) <= NU_TOL:
        try:
            n_g = symbols.winding_n(g)
        except WindingUnresolved:
            n_g = None
        if n_g is not None:
            try:
                xi_g = symbols.xi(g)
            except (XiNotUnimodular, NotMatching, MeanMotionUnresolved):
                xi_g = None
    return nu_g, n_g, xi_g


def _subordinated(c, d, at_inv):
    """SubordinatedPair of c, d and a~^(-1), indices attached, once c and d
    pass the matching gate."""
    if not (is_matching(c) and is_matching(d)):
        raise NotMatching("subordinated functions fail g(t)g(-t) = 1")
    nu_c, n_c, xi_c = _indices(c)
    nu_d, n_d, xi_d = _indices(d)
    return SubordinatedPair(
        c=c, d=d, at_inv=at_inv,
        nu_c=nu_c, nu_d=nu_d, n_c=n_c, n_d=n_d, xi_c=xi_c, xi_d=xi_d,
    )


def subordinated(pair: MatchingPair) -> SubordinatedPair:
    """c = b~ a~^(-1), d = b a~^(-1), with indices attached."""
    at_inv = inverse(tilde(pair.a))
    return _subordinated(tilde(pair.b) * at_inv, pair.b * at_inv, at_inv)


def _chi_reduced(sub: SubordinatedPair) -> SubordinatedPair:
    """The subordinated pair of (a chi^(-1), b chi), derived from that of
    (a, b): chi~ = chi^(-1) gives (c chi^(-2), d), a~^(-1) chi^(-1)."""
    return _subordinated(sub.c * symbols.chi(-2), sub.d, sub.at_inv * symbols.chi(-1))


def v_symbol(pair: MatchingPair):
    """2x2 symbol [[0, d], [-c, a~^(-1)]]; the top-left entry, in general
    a - b b~ a~^(-1), is zero for a matching pair."""
    sub = subordinated(pair)
    return ((symbols.zero(), sub.d), (-sub.c, sub.at_inv))


def adjoint_pair(pair: MatchingPair) -> MatchingPair:
    """(conj a, conj b~), the symbol pair of the adjoint operators."""
    return MatchingPair(a=conj(pair.a), b=conj(tilde(pair.b)))


# --- scalar classification -------------------------------------------------------

def scalar_wh_classify(a: GSymbol) -> SignReport:
    """Kernel/cokernel of the scalar half-line operator W(a) from (nu, n)."""
    try:
        invertible = symbols.is_invertible(a)
    except Inconclusive:
        return SignReport(
            Dim.unknown(), Dim.unknown(), "unknown", "invertibility-inconclusive"
        )
    if not invertible:
        return SignReport(
            Dim.unknown(),
            Dim.unknown(),
            "not-semi-fredholm",
            "symbol-not-invertible",
        )
    nu_a = symbols.nu(a)
    if nu_a > NU_TOL:
        return SignReport(
            Dim.exact(0),
            Dim.infinite(),
            "left-invertible",
            f"scalar-index-rule(nu={nu_a:g})",
        )
    if nu_a < -NU_TOL:
        return SignReport(
            Dim.infinite(),
            Dim.exact(0),
            "right-invertible",
            f"scalar-index-rule(nu={nu_a:g})",
        )
    n = symbols.winding_n(a)
    cert = f"scalar-index-rule(nu=0, n={n})"
    if n == 0:
        return SignReport(Dim.exact(0), Dim.exact(0), "invertible", cert)
    if n > 0:
        return SignReport(Dim.exact(0), Dim.exact(n), "left-invertible", cert)
    return SignReport(Dim.exact(-n), Dim.exact(0), "right-invertible", cert)


# --- the decision tree -----------------------------------------------------------

def _status(ker: Dim, coker: Dim):
    if ker.kind == "exact" and coker.kind == "exact":
        if ker.value == 0 and coker.value == 0:
            return "invertible"
        if ker.value == 0:
            return "left-invertible"
        if coker.value == 0:
            return "right-invertible"
        return f"fredholm(index={ker.value - coker.value})"
    if ker.kind == "exact" and ker.value == 0:
        return "coburn-simonenko"
    if coker.kind == "exact" and coker.value == 0:
        return "coburn-simonenko"
    return "unknown"


def _split(ker_dim: Dim, xi_g):
    """(dim im P^+, dim im P^-) of the involution split of ker W(g), for a
    matching g of sign xi_g with dim ker W(g) = ker_dim: the split lemma.
    An m-dimensional kernel splits evenly for even m; for odd m the extra
    dimension goes to P^- when xi = 1 and to P^+ when xi = -1."""
    if ker_dim.kind != "exact":
        return Dim.unknown(), Dim.unknown()
    m = ker_dim.value
    if m % 2 == 0:
        return Dim.exact(m // 2), Dim.exact(m // 2)
    if xi_g is None:
        return Dim.unknown(), Dim.unknown()
    return Dim.exact((m - xi_g) // 2), Dim.exact((m + xi_g) // 2)


# c = b~ a~^(-1) of each family: chi~ = chi^(-1), so b = a chi gives c = chi^(-1)
_FAMILY_C = (
    ("b=a*chi", symbols.chi(-1)),
    ("b=a*chi^-1", symbols.chi(1)),
    ("b=a", 1),
    ("b=-a", -1),
)


def _family_tag(c):
    """The family of b relative to a, read off c = b~ a~^(-1)."""
    for tag, family_c in _FAMILY_C:
        if c.isclose(family_c, 1e-10):
            return tag
    return None


def classify(pair: MatchingPair, kappa_tester=None) -> ClassificationReport:
    """Predict kernel/cokernel dimensions and invertibility of W(a) +- H(b).

    kappa_tester (optional, in practice kernels.kappa_for_pair) resolves the
    conditional membership branch; it is called with the subordinated pair
    being classified and must return an object with ``in_image`` and
    ``residual`` attributes (or None to leave it open).
    """
    try:
        if not symbols.is_invertible(pair.a):
            raise NotInvertible("a is not invertible; operators not semi-Fredholm")
    except Inconclusive:
        pass  # treat as invertible; downstream indices will object if not
    sub = subordinated(pair)
    if abs(sub.nu_c) > NU_TOL:
        raise OutOfScope(f"nu(c) = {sub.nu_c:g} != 0 is outside the classified scope")
    if sub.n_c is None:
        raise OutOfScope(
            "n(c) is unresolved: the winding number of c could not be decided"
        )
    if sub.n_c > 1:
        raise OutOfScope(f"n(c) = {sub.n_c} > 1 is outside the classified scope")
    if sub.xi_c is None:
        raise OutOfScope("sign invariant of c could not be determined")

    d_report = scalar_wh_classify(sub.d)
    kd = d_report.ker
    n_c = sub.n_c
    ker = dict.fromkeys(SIDES, Dim.unknown())
    coker = dict.fromkeys(SIDES, Dim.unknown())
    tag = _family_tag(sub.c)
    cert = {side: [f"family:{tag}"] if tag else [] for side in SIDES}
    indices = f"(n_c={n_c}, n_d={sub.n_d}, xi_d={sub.xi_d})"

    def both(rule):
        for side in SIDES:
            cert[side].append(rule)

    # at n(c) = +1, side C is plus where xi(c) = 1 and minus where
    # xi(c) = -1, and side D is the other one
    c_side, d_side = SIDES if sub.xi_c == 1 else SIDES[::-1]

    if n_c <= 0:
        # W(c) is right-invertible: ker(+-) = phi+-(im P+-(d)) + P-+(ker W(c))
        pd_plus, pd_minus = _split(kd, sub.xi_d)
        pc_plus, pc_minus = _split(Dim.exact(-n_c), sub.xi_c)
        ker = {"plus": pd_plus + pc_minus, "minus": pd_minus + pc_plus}
        both(f"kernel-decomposition{indices}")
    elif kd == Dim.exact(0):
        # n_c = +1: reduce through W(chi); the reduced pair (a chi^-1, b chi)
        # has subordinated pair (c chi^-2, d) with index -1 and xi = xi(c)
        ker = dict.fromkeys(SIDES, Dim.exact(0))
        both("chi-reduction;kernel-trivial")
    elif kd == Dim.exact(1) and sub.n_d == -1 and sub.xi_d == sub.xi_c:
        ker[c_side] = Dim.exact(0)
        cert[c_side].append("chi-reduction;kernel-avoids-range")
        kappa_result = None if kappa_tester is None else kappa_tester(sub)
        if kappa_result is not None:
            inside = bool(kappa_result.in_image)
            ker[d_side] = Dim.exact(1 if inside else 0)
            cert[d_side].append(
                "image-membership("
                f"in_image={inside}, residual={kappa_result.residual:.2e})"
            )
        else:
            cert[d_side].append("image-membership(unresolved)")
    elif kd == Dim.exact(1) and sub.n_d == -1 and sub.xi_d == -sub.xi_c:
        # side D of the reduced pair sees no kernel at all
        ker[d_side] = Dim.exact(0)
        cert[d_side].append("chi-reduction;kernel-trivial")
        cert[c_side].append("chi-reduction(kernel-split-unresolved)")
    else:
        both("chi-reduction(kernel-split-unresolved)")

    # cokernels
    kd_nontrivial = kd.kind == "infinite" or (kd.kind == "exact" and kd.value >= 1)
    if kd_nontrivial and n_c <= 0:
        coker = dict.fromkeys(SIDES, Dim.exact(0))
        both("cokernel-collapse")
    elif kd_nontrivial:
        coker[c_side] = Dim.exact(0)
        cert[c_side].append("cokernel-collapse(chi-reduction)")
        if ker[c_side] == Dim.exact(0) and ker[d_side].kind == "exact" \
                and sub.n_d is not None:
            # side C is invertible, so index(D) = ind W(c) + ind W(d)
            coker[d_side] = Dim.exact(ker[d_side].value + n_c + sub.n_d)
            cert[d_side].append("index-balance")
    elif kd == Dim.exact(0):
        # W(d) is left-invertible: the kernel formula of the adjoint pair,
        # whose W(conj d) is right-invertible, on the cokernels of W(c), W(d)
        pc_plus, pc_minus = _split(Dim.exact(max(n_c, 0)), sub.xi_c)
        pd_plus, pd_minus = _split(d_report.coker, sub.xi_d)
        coker = {"plus": pc_plus + pd_minus, "minus": pc_minus + pd_plus}
        both(f"cokernel-decomposition{indices}")

    index_check = None
    if sub.n_d is not None and abs(sub.nu_d) <= NU_TOL:
        rhs = -(n_c + sub.n_d)
        lhs = None
        if all(x.kind == "exact" for x in (*ker.values(), *coker.values())):
            lhs = sum(ker[side].value - coker[side].value for side in SIDES)
        index_check = {
            "lhs": lhs,
            "rhs": rhs,
            "consistent": (lhs == rhs) if lhs is not None else None,
        }

    reports = {
        side: SignReport(ker[side], coker[side], _status(ker[side], coker[side]),
                         ";".join(cert[side]) or "none")
        for side in SIDES
    }
    return ClassificationReport(**reports, index_check=index_check,
                                subordinated=sub.summary())

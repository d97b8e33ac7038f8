"""Typed errors for the toolkit.

Every error carries an ``exit_code`` so the CLI can map failure modes to
distinct process exit statuses (documented in ``whhankel --help``).
"""


class WhhError(Exception):
    """Base class of all toolkit errors."""

    exit_code = 1


# --- representation / symbol algebra -----------------------------------

class NotRepresentable(WhhError):
    """Result exists in the ambient algebra but leaves the finite representation."""

    exit_code = 3


class RealPoleError(WhhError):
    """A denominator root sits on (or numerically on) the real axis."""

    exit_code = 3

    def __init__(self, root, message=None):
        self.root = root
        super().__init__(message or f"denominator root on the real axis near t = {root}")


class ImproperRational(WhhError):
    """Numerator degree above the denominator's, or equal to it where a
    rational part must be strictly proper; the message states which."""

    exit_code = 3

    def __init__(self, deg_num, deg_den):
        self.deg_num = deg_num
        self.deg_den = deg_den
        rel = ">" if deg_num > deg_den else ">="
        super().__init__(f"improper rational: deg num = {deg_num} {rel} deg den = {deg_den}")


class NotInvertible(WhhError):
    """The symbol vanishes somewhere on the (extended) real line."""

    exit_code = 4


# --- matching machinery -------------------------------------------------

class NotMatching(WhhError):
    """The pair (a, b) violates a(t)a(-t) = b(t)b(-t), or g(t)g(-t) != 1."""

    exit_code = 5


class XiNotUnimodular(WhhError):
    """The sign invariant of a matching function came out away from +-1."""

    exit_code = 5


# --- scope / bookkeeping guards ----------------------------------------

class OutOfScope(WhhError):
    exit_code = 6


class NotFactorizable(OutOfScope):
    pass


class WrongSide(OutOfScope):
    pass


class WrongIndex(OutOfScope):
    pass


class NoRightInverse(OutOfScope):
    pass


class NotInKernel(OutOfScope):
    pass


class ShiftNotCommensurate(OutOfScope):
    pass


# --- numeric indeterminacy ----------------------------------------------

class Inconclusive(WhhError):
    """A numerical test landed inside its uncertainty band; no verdict."""

    exit_code = 8


class MeanMotionUnresolved(Inconclusive):
    pass


class WindingUnresolved(Inconclusive):
    pass


# --- parsing --------------------------------------------------------------

class SymbolSyntaxError(WhhError):
    """Rejected DSL input, with position and the token set that was expected."""

    exit_code = 2

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        super().__init__(f"{message} (at position {position})")


# --- internal consistency -------------------------------------------------

class StructureViolation(WhhError):
    """A verified identity failed beyond tolerance; signals a bug or bad input."""

    exit_code = 9

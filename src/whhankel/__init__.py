"""Wiener-Hopf plus Hankel operators on the half-line.

Exact symbol algebra for finite almost-periodic sums plus shifted rational
parts, Wiener-Hopf factorization, kernel/cokernel classification of
W(a) +- H(b) for matching pairs, explicit kernel elements, and a dense
discretization oracle that measures every prediction.
"""

from .classify import (
    ClassificationReport,
    Dim,
    MatchingPair,
    SubordinatedPair,
    adjoint_pair,
    classify,
    scalar_wh_classify,
    subordinated,
    v_symbol,
)
from .dsl import format_symbol, parse, parse_symbol, rational_symbol
from .errors import WhhError
from .factorization import (
    OperatorRecipe,
    WHFactorization,
    factorize,
    matching_factorization,
    one_sided_inverse_recipe,
)
from .kernels import (
    GridFunction,
    Workspace,
    kernel_basis_scalar,
    make_kappa_tester,
    psi0_discrete,
)
from .oracle import (
    DiscretizedOp,
    Grid,
    KernelEstimate,
    OracleConfig,
    block_v_matrix,
    coker_estimate,
    hankel_matrix,
    kernel_estimate,
    verify,
    w0_matrix,
    wh_matrix,
)
from .symbols import (
    GSymbol,
    TimeKernel,
    chi,
    conj,
    constant,
    exp_symbol,
    inverse,
    is_invertible,
    is_matching,
    is_minus,
    is_plus,
    make_symbol,
    nu,
    one,
    tilde,
    time_kernel,
    winding_n,
    xi,
    zero,
)

__version__ = "0.1.0"

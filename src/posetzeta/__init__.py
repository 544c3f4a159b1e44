"""Exact chain-count series of finite posets and their subdivision dynamics."""

from importlib import import_module as _import_module

from .errors import (
    BruteForceTooLarge,
    ChiZero,
    CycleDetected,
    DegreeZero,
    DimensionZero,
    DivergentAtInfinity,
    DuplicateLabel,
    EmptyPoset,
    IndexOutOfRange,
    InvalidConfig,
    NoConvergence,
    PoleAtOrigin,
    PosetZetaError,
    RangeTooLarge,
    ResourceCapExceeded,
    SubdivisionTooLarge,
    UnknownLabel,
    ZeroEulerCharacteristic,
)
from .linalg import ExactMatrix
from .polynomial import (
    ExactPolynomial,
    ExactRationalFunction,
    residue_at_infinity,
    series_expand,
)
from .poset import (
    ChainVector,
    Poset,
    barycentric_subdivision,
    build_poset,
    chain_vector,
    dimension,
    euler_characteristic,
    load_poset,
    poset_from_dict,
    save_poset,
    simplex_face_poset,
    strict_chain_vector,
    weak_chain_count,
    write_poset,
)
from .primes import (
    AlphaRecord,
    SquarefreeTable,
    alpha_record,
    alpha_records,
    alpha_rows,
    build_Pn,
    chi_Pn,
    chi_values,
    dim_asymptotic_report,
    dim_Pn,
    mertens,
    pi_weight,
    squarefree_sieve,
)
from .subdivision import (
    F_polynomial,
    H1_bounds_check,
    H_polynomial,
    H_vector,
    SpectralConstants,
    big_F_number,
    descent_matrix,
    f_matrix,
    f_number,
    h_row_properties,
    spectral_constants,
    taylor_matrix,
    transfer_iterate,
    verify_similarity,
)
from .zeta import g_k_polynomial, zeta_rational

__version__ = "0.1.0"

# The root finder and its Dyadic values load on the first use of one of
# these names (PEP 562), so the exact layers start without compiling them.
_ROOT_NAMES = frozenset(
    {"roots", "RootSet", "TrajectoryReport", "find_roots", "theorem_report"}
)


def __getattr__(name):
    if name in _ROOT_NAMES:
        # Not `from . import roots`: its fromlist lookup calls this
        # __getattr__ again before the submodule is bound.
        roots = _import_module(f"{__name__}.roots")
        return roots if name == "roots" else getattr(roots, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ROOT_NAMES})


# A star import lists the root names too, as it did when they were eager.
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | _ROOT_NAMES
)

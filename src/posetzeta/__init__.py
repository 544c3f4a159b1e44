"""Exact chain-count series of finite posets and their subdivision dynamics."""

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
    build_Pn,
    chi_Pn,
    dim_asymptotic_report,
    dim_Pn,
    mertens,
    pi_weight,
    squarefree_sieve,
    top_chain_count,
)
from .roots import (
    RootSet,
    TrajectoryReport,
    find_roots,
    g_k_polynomial,
    theorem_report,
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
from .zeta import zeta_rational

__version__ = "0.1.0"

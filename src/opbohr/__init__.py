"""Numerical verification of Bohr-type inequalities for matrix-valued
holomorphic and harmonic functions on the unit disk."""

__version__ = "0.1.0"

from .errors import (
    ContourError,
    ContractError,
    DomainError,
    GenerationError,
    InvalidInputError,
    NumericError,
    OpBohrError,
    RangeError,
)
from .linalg import (
    abs_value,
    adjoint,
    hermitize,
    operator_norm,
)
from .funcalc import (
    ColligationSpec,
    colligation_log_coeff,
    herglotz_transfer_grid,
    log_hermitian,
    log_riesz_dunford,
    matrix_exp,
)
from .series import (
    CoeffEnvelope,
    HarmonicSeries,
    HoloSeries,
    ScalarSeries,
    SubordinationWitness,
    coeffs_via_cauchy_integral,
    compose_subordination,
    evaluate_grid,
)
from .bohr import (
    KOEBE_RADIUS,
    THEOREM_IDS,
    TheoremReport,
    boundary_distance_liminf,
    check_theorem_grid,
    norm_majorant,
    operator_majorant,
    psi_peak,
    rotated_coeffs,
    spherical_distance,
    thm2_radius,
    thm3_radius,
)
from .generators import (
    FAMILY_IDS,
    FamilySpec,
    SchurRealization,
    derive_seed,
    gaussian_coeff_sequence,
    identity_witness,
    koebe_series,
    mobius_series,
    ordered_triples,
    random_unitary,
    sample,
)

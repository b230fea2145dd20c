"""Numerical verification of Bohr-type inequalities for matrix-valued
holomorphic and harmonic functions on the unit disk."""

__version__ = "0.1.0"

from .errors import (
    BranchCutError,
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
    BranchCut,
    ColligationSpec,
    ContourSpec,
    PRINCIPAL_CUT,
    auto_contour,
    colligation_log_coeff,
    herglotz_transfer_grid,
    log_eig_normal,
    log_riesz_dunford,
    matrix_exp,
)
from .series import (
    HarmonicSeries,
    HoloSeries,
    ScalarSeries,
    SubordinationWitness,
    coeffs_via_cauchy_integral,
    compose_subordination,
    evaluate,
    evaluate_grid,
    scalar_power_coeffs,
)
from .bohr import (
    KOEBE_RADIUS,
    BisectionResult,
    RadiusScan,
    THEOREM_IDS,
    TheoremReport,
    bohr_radius_bisect,
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

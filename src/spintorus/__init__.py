"""Dirac spectra of flat spin 3-tori under conformal deformation.

Core objects: spin structures and truncated mode sets (`torus_dirac`), the
conformal weight and the deformed eigenproblem (`conformal`), first-order
eigenvalue rates for degenerate clusters (`perturbation`), the dense
generalized eigensolver with clustering and curve tracking (`eigensolver`),
and randomized splitting/simplicity experiments (`experiments`).
"""

from .conformal import (
    ConformalFactor,
    apply_deformed_dirac,
    assemble_B,
    build_deformed_operator,
    deformed_spectrum,
    exp_coeffs,
    flat_spectrum,
    substitution_identity_error,
    tracked_spectrum,
    trust_radius,
    trusted_spectrum,
)
from .eigensolver import (
    CurveFamily,
    SpectrumResult,
    cluster_eigenvalues,
    match_curves,
    solve_gen_hermitian,
)
from .errors import ClusterNotIsolatedError, PositiveDefiniteError, SplitSearchError
from .experiments import (
    GenericityReport,
    SimplicityReport,
    SplitCertificate,
    genericity_scan,
    random_factor,
    simplicity_certificate,
    split_search,
)
from .perturbation import (
    EigenCluster,
    PerturbationReport,
    extract_cluster,
    fd_check,
    perturbation_matrix,
    rate_single,
)
from .spinor_algebra import apply_J, clifford_mul, dirac_symbol, herm_inner
from .torus_dirac import (
    ModeSet,
    SpinorField,
    SpinStructure,
    assemble_flat_dirac,
    build_mode_set,
    closed_form_spectrum,
)

__version__ = "0.1.0"

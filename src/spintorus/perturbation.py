"""First-order rates of Dirac eigenvalues under conformal change of metric.

For a normalized eigenspinor phi of the flat operator with eigenvalue lambda,
the eigenvalue branch through the deformation e^{2tf} g has derivative

    rate = -lambda * int f |phi|^2 dmu

at t = 0.  For a degenerate cluster the branch derivatives are the
eigenvalues of the Hermitian cluster matrix

    P_ij = -lambda * int f <phi_j, phi_i> dmu,

whose diagonal reduces to the single-vector formula; the matrix form is
validated against finite differences of the deformed spectra rather than
asserted.  Integrals are evaluated in Fourier space (finite convolution sums,
exact for band-limited data).  Every cluster is a whole flat shell, which the
quaternionic structure J maps to itself, so its rates come in equal pairs.

The Fourier sums read only the modes where the basis is nonzero.  For a flat
cluster that is its shell, so the cluster matrix costs p_c^2 coefficient
lookups and no dim x dim memory, and for a shell inside the truncation
radius N - 1/2 it is the cluster matrix of the untruncated operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import eigensolver
from .artifact import NOT_ARTIFACT, Artifact
from .conformal import _solve_shells, assemble_multiplication
from .errors import ClusterNotIsolatedError
from .torus_dirac import SpinorField, apply_flat_dirac_coeffs, apply_J_coeffs

#: Tolerance for the quaternionic pairing of cluster-matrix eigenvalues.
PAIR_TOL = 1e-8


@dataclass
class EigenCluster:
    """A degenerate eigenspace of the flat operator with an orthonormal basis.

    ``vectors`` has one basis vector per column (coefficient layout matching
    ModeSet).  The quaternionic structure J maps the span to itself
    (``validate_cluster``), which forces even complex dimension.
    """

    mode_set: object
    lam: float
    vectors: np.ndarray  # (dim, p_c)

    @property
    def p_c(self):
        return self.vectors.shape[1]

    @property
    def p_h(self):
        return self.p_c // 2

    def fields(self):
        return [
            SpinorField.from_vector(self.mode_set, self.vectors[:, j])
            for j in range(self.p_c)
        ]


def validate_cluster(cluster):
    """Check the basis invariants: orthonormality, flat eigen-residuals and a
    span that J maps to itself."""
    V = cluster.vectors
    gram = V.conj().T @ V
    gerr = float(np.max(np.abs(gram - np.eye(cluster.p_c))))
    if gerr > 1e-10:
        raise ValueError(f"cluster basis not orthonormal: Gram error {gerr:.3e}")
    res = np.linalg.norm(apply_flat_dirac_coeffs(cluster.mode_set, V) - cluster.lam * V, axis=0)
    bound = 1e-9 * max(1.0, abs(cluster.lam))
    if res.size and float(res.max()) > bound:
        raise ValueError(
            f"cluster residual {float(res.max()):.3e} exceeds {bound:.3e}"
        )
    JV = apply_J_coeffs(cluster.mode_set, V)
    jerr = float(np.max(np.abs(JV - V @ (V.conj().T @ JV))))
    if jerr > 1e-8:
        raise ValueError(f"cluster span is not closed under J: residual {jerr:.3e}")


def flat_cluster_index(mode_set, lam):
    """Index in ``mode_set.flat_clusters`` of the cluster nearest lam.

    Rejects a lam farther than 1e-6 max(1, |lam|) from every cluster
    (degeneracy is exact analytically; the tolerance covers floating point
    and a value given to a few digits)."""
    _, lams, _ = mode_set.flat_clusters
    index = int(np.argmin(np.abs(lams - lam)))
    nearest = float(lams[index])
    if not abs(nearest - lam) <= 1e-6 * max(1.0, abs(lam)):
        raise ValueError(
            f"{lam} is not a flat eigenvalue for this mode set (the nearest is {nearest!r})"
        )
    return index


def extract_cluster(mode_set, lam=None, index=None):
    """One flat eigenspace as an EigenCluster, built from the mode symbols.

    The cluster is entry ``index`` of ``mode_set.flat_clusters`` (or the one
    at lam); each mode of its shell gives the column e_kappa (x) u, u the
    eigenvector of its symbol -sigma . kappa for that sign (the zero mode
    gives both columns)."""
    keys, lams, _ = mode_set.flat_clusters
    if index is None:
        if lam is None:
            raise ValueError("give either a cluster index or a target eigenvalue")
        index = flat_cluster_index(mode_set, lam)
    elif not 0 <= index < len(keys):
        raise ValueError(f"cluster index {index} out of range (0..{len(keys) - 1})")
    key = keys[index]
    sel = np.flatnonzero(mode_set.shell_keys == abs(key))
    _, U = np.linalg.eigh(mode_set.symbols[sel])  # columns: -|kappa|, +|kappa|
    U = U if key == 0 else U[:, :, [int(key > 0)]]
    V = np.zeros((mode_set.n_modes, 2) + U.shape[::2], dtype=np.complex128)
    V[sel, :, np.arange(len(sel))] = U
    V = eigensolver.canonicalize_phases(V.reshape(mode_set.dim, -1))
    cluster = EigenCluster(mode_set, float(lams[index]), V)
    validate_cluster(cluster)
    return cluster


def rate_single(lam, phi, factor):
    """First-order eigenvalue rate -lambda * int f |phi|^2 dmu.

    phi must be normalized in the flat L^2 norm; the integral is a finite
    Fourier convolution sum, exact for band-limited data.
    """
    nrm = phi.norm()
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"eigenspinor must be normalized, got |phi| = {nrm!r}")
    val = _cluster_form(factor, phi.mode_set, phi.vector[:, None])[0, 0]
    return float(-lam * val.real)


def _cluster_form(factor, mode_set, V):
    """V^H F V, F the Galerkin matrix of multiplication by f, gathered by
    ``conformal.assemble_multiplication`` only on the modes where the
    columns of V are nonzero."""
    p = V.shape[1]
    W = V.reshape(mode_set.n_modes, 2, p)
    rows = np.any(W != 0, axis=(1, 2))
    W = W[rows]
    FW = np.tensordot(assemble_multiplication(mode_set.k_values[rows], factor), W, axes=(1, 0))
    return W.reshape(-1, p).conj().T @ FW.reshape(-1, p)


@dataclass
class PerturbationReport(Artifact):
    """Cluster matrix, its sorted rates, and the quaternionic rate structure."""

    lam: float
    f_ref: str
    P: np.ndarray = field(metadata=NOT_ARTIFACT)
    rates: np.ndarray
    quaternionic_rates: np.ndarray
    min_gap: float


def _distinct_min_gap(values, tol):
    """Smallest gap between the distinct values, grouped at absolute tolerance tol."""
    reps = [c.lam for c in eigensolver.cluster_eigenvalues(values, tau_abs=tol)]
    if len(reps) < 2:
        return 0.0
    return float(min(b - a for a, b in zip(reps, reps[1:])))


def perturbation_matrix(cluster, factor):
    """Hermitian cluster matrix P and its sorted first-order rates.

    Diagonal entries equal ``rate_single`` on the basis vectors; the rates
    (eigenvalues of P) are invariant under unitary changes of the cluster
    basis.  J maps the cluster to itself, so the rates pair up, and the
    report carries the quaternionic rate multiset and the minimal gap between
    distinct quaternionic rates (0.0 when they all coincide).
    """
    if cluster.p_c == 0:
        raise ValueError("cluster is empty")
    P = -cluster.lam * _cluster_form(factor, cluster.mode_set, cluster.vectors)
    asym = float(np.max(np.abs(P - P.conj().T)))
    scale = max(1.0, float(np.max(np.abs(P))))
    if asym > 1e-12 * scale:
        raise AssertionError(f"cluster matrix lost Hermiticity: {asym:.3e}")
    P = 0.5 * (P + P.conj().T)
    rates = np.linalg.eigvalsh(P)
    tol = PAIR_TOL * max(1.0, abs(cluster.lam), float(np.max(np.abs(rates), initial=0.0)))
    pairs = rates.reshape(-1, 2)
    worst = float(np.max(pairs[:, 1] - pairs[:, 0], initial=0.0))
    if worst > tol:
        raise RuntimeError(f"rates of a J-closed cluster failed to pair: split {worst:.3e}")
    q_rates = pairs.mean(axis=1)
    return PerturbationReport(
        lam=cluster.lam,
        f_ref=factor.describe(),
        P=P,
        rates=rates,
        quaternionic_rates=q_rates,
        min_gap=_distinct_min_gap(q_rates, tol),
    )


def flat_cluster_window(mode_set, lam):
    """Midpoint window separating the flat cluster at lam from its neighbors
    in ``mode_set.flat_clusters`` (unbounded past the first and last)."""
    _, lams, _ = mode_set.flat_clusters
    pos = flat_cluster_index(mode_set, lam)
    lo = -np.inf if pos == 0 else 0.5 * (lams[pos - 1] + lams[pos])
    hi = np.inf if pos == len(lams) - 1 else 0.5 * (lams[pos] + lams[pos + 1])
    return lo, hi


def deformed_cluster_values(factor, t, cluster):
    """The deformed spectrum descending from the flat cluster, as the
    ``SpectrumResult`` of its index window.

    Flat cluster c owns the eigenvalue indices [lo, hi) =
    ``mode_set.cluster_starts[[c, c + 1]]`` at every t, and the solve takes
    them plus one eigenpair past each edge (``conformal._solve_shells``).
    The cluster is isolated at this t when the window's eigenvalues lie
    strictly inside ``flat_cluster_window`` and those past its edges lie
    outside it, so that exactly ``cluster.p_c`` eigenvalues lie in the
    midpoint window; otherwise ClusterNotIsolatedError is raised (an edge
    that cuts a cluster grows the window into a neighbouring shell, which
    fails the test).  The clusters are formed with the default pair
    ``eigensolver.TOLERANCES``.
    """
    ms = cluster.mode_set
    c = flat_cluster_index(ms, cluster.lam)
    lo, hi = flat_cluster_window(ms, cluster.lam)

    def outgrown(res, below, above):
        w = res.eigenvalues
        if not (lo < w[0] and w[-1] < hi and (below is None or below <= lo)
                and (above is None or above >= hi)):
            raise ClusterNotIsolatedError(
                f"the {cluster.p_c} eigenvalues descending from {cluster.lam} at t={t} "
                f"leave its midpoint window ({lo}, {hi})"
            )
        return False, False

    res, _ = _solve_shells(factor, [t], ms, (c, c + 1), eigensolver.TOLERANCES,
                           outgrown=outgrown)
    return res


@dataclass
class FdReport(Artifact):
    """Finite-difference validation of first-order rates for one cluster."""

    lam: float
    f_ref: str
    t_values: list[float]
    mismatches: list[float]
    order: float | None


def fd_check(cluster, factor, report, t_values):
    """Compare deformed sub-eigenvalues with lambda + t * rates over a t list.

    ``report`` is the cluster's ``perturbation_matrix(cluster, factor)``,
    which the caller has already built.  The per-t mismatch is the maximum
    absolute difference between the sorted deformed cluster eigenvalues and
    the sorted first-order predictions; the
    empirical convergence order is the log-log slope (expected >= 2, i.e.
    the first-order rates are exact to O(t^2)).  The kernel does not move
    under a conformal change (harmonic spinors are conformally invariant), so
    its mismatches are roundoff and no order is fitted: ``order`` is None.
    """
    t_values = [float(t) for t in t_values]
    if len(t_values) < 2:
        raise ValueError("need at least two t values")
    if any(t <= 0 for t in t_values) or any(
        b >= a for a, b in zip(t_values, t_values[1:])
    ):
        raise ValueError("t values must be positive and strictly decreasing")
    predicted_rates = np.sort(report.rates)
    mismatches = []
    for t in t_values:
        vals = deformed_cluster_values(factor, t, cluster).eigenvalues
        predicted = cluster.lam + t * predicted_rates
        mismatches.append(float(np.max(np.abs(vals - predicted))))
    order = None
    if cluster.lam != 0:
        logs = np.log(np.maximum(mismatches, 1e-300))
        order = float(np.polyfit(np.log(t_values), logs, 1)[0])
    return FdReport(
        lam=cluster.lam,
        f_ref=factor.describe(),
        t_values=t_values,
        mismatches=mismatches,
        order=order,
    )

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
exact for band-limited data); a grid-quadrature path exists purely as a
cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import eigensolver
from .artifact import NOT_ARTIFACT, Artifact
from .conformal import deformed_spectrum, factor_multiplication_matrix
from .errors import ClusterNotIsolatedError
from .torus_dirac import (
    SpinorField,
    apply_J_coeffs,
    apply_J_field,
    field_on_grid,
    l2_inner,
    require_product_grid,
)

#: Tolerance for the quaternionic pairing of cluster-matrix eigenvalues.
PAIR_TOL = 1e-8


@dataclass
class EigenCluster:
    """A degenerate eigenspace of the flat operator with an orthonormal basis.

    ``vectors`` has one basis vector per column (coefficient layout matching
    ModeSet).  ``j_closed`` records whether the quaternionic structure maps
    the span to itself, which forces even complex dimension.
    """

    mode_set: object
    lam: float
    vectors: np.ndarray  # (dim, p_c)
    j_closed: bool

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
    """Check the basis invariants: orthonormality and flat eigen-residuals."""
    V = cluster.vectors
    gram = V.conj().T @ V
    gerr = float(np.max(np.abs(gram - np.eye(cluster.p_c))))
    if gerr > 1e-10:
        raise ValueError(f"cluster basis not orthonormal: Gram error {gerr:.3e}")
    A = cluster.mode_set.flat_matrix
    res = np.linalg.norm(A @ V - cluster.lam * V, axis=0)
    bound = 1e-9 * max(1.0, abs(cluster.lam))
    if res.size and float(res.max()) > bound:
        raise ValueError(
            f"cluster residual {float(res.max()):.3e} exceeds {bound:.3e}"
        )


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
    JV = apply_J_coeffs(mode_set, V)
    proj = V @ (V.conj().T @ JV)
    j_closed = float(np.max(np.abs(JV - proj))) <= 1e-8
    cluster = EigenCluster(mode_set, float(lams[index]), V, j_closed)
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
    F = factor_multiplication_matrix(factor, phi.mode_set)
    v = phi.vector
    val = np.vdot(v, F @ v)
    return float(-lam * val.real)


@dataclass
class PerturbationReport(Artifact):
    """Cluster matrix, its sorted rates, and the quaternionic rate structure."""

    lam: float
    f_ref: str
    P: np.ndarray = field(metadata=NOT_ARTIFACT)
    rates: np.ndarray
    quaternionic_rates: np.ndarray | None
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
    basis.  For a J-closed cluster the rates pair up and the report carries
    the quaternionic rate multiset and the minimal gap between distinct
    quaternionic rates (0.0 when they all coincide).
    """
    if cluster.p_c == 0:
        raise ValueError("cluster is empty")
    F = factor_multiplication_matrix(factor, cluster.mode_set)
    V = cluster.vectors
    P = -cluster.lam * (V.conj().T @ (F @ V))
    asym = float(np.max(np.abs(P - P.conj().T)))
    scale = max(1.0, float(np.max(np.abs(P))))
    if asym > 1e-12 * scale:
        raise AssertionError(f"cluster matrix lost Hermiticity: {asym:.3e}")
    P = 0.5 * (P + P.conj().T)
    rates = np.linalg.eigvalsh(P)
    tol = PAIR_TOL * max(1.0, abs(cluster.lam), float(np.max(np.abs(rates), initial=0.0)))
    q_rates = None
    if cluster.j_closed and cluster.p_c % 2 == 0:
        pairs = rates.reshape(-1, 2)
        worst = float(np.max(pairs[:, 1] - pairs[:, 0], initial=0.0))
        if worst > tol:
            raise RuntimeError(
                f"rates of a J-closed cluster failed to pair: split {worst:.3e}"
            )
        q_rates = pairs.mean(axis=1)
        min_gap = _distinct_min_gap(q_rates, tol)
    else:
        min_gap = _distinct_min_gap(rates, tol)
    return PerturbationReport(
        lam=cluster.lam,
        f_ref=factor.describe(),
        P=P,
        rates=rates,
        quaternionic_rates=q_rates,
        min_gap=min_gap,
    )


def perturbation_matrix_quadrature(cluster, factor):
    """Grid-quadrature cross-check of the cluster matrix (oracle path)."""
    G = max(2 * (2 * cluster.mode_set.N + 1), 4 * factor.degree + 4)
    fields = cluster.fields()
    grids = [field_on_grid(phi, G) for phi in fields]
    fg = factor.grid_values(G)
    p = cluster.p_c
    P = np.zeros((p, p), dtype=np.complex128)
    for i in range(p):
        for j in range(p):
            gram = np.sum(grids[j] * np.conj(grids[i]), axis=-1)
            P[i, j] = -cluster.lam * np.mean(fg * gram)
    return 0.5 * (P + P.conj().T)


def unitary_rotate(cluster, U):
    """Change the cluster basis by phi_i -> sum_j U_ij phi_j.

    The span is unchanged and the cluster matrix transforms by conjugation,
    so the rates are invariant.
    """
    U = np.asarray(U, dtype=np.complex128)
    p = cluster.p_c
    if U.shape != (p, p):
        raise ValueError(f"unitary must be {p}x{p}")
    err = float(np.max(np.abs(U.conj().T @ U - np.eye(p))))
    if err > 1e-12:
        raise ValueError(f"matrix is not unitary: deviation {err:.3e}")
    return EigenCluster(
        cluster.mode_set, cluster.lam, cluster.vectors @ U.T, cluster.j_closed
    )


def quaternionic_orthonormalize(cluster):
    """A quaternionically orthonormal basis phi_1 .. phi_{p_h} of the cluster.

    Gram-Schmidt over the quaternions: each step removes the complex span of
    {phi_j, J phi_j} (an orthonormal pair, since <phi, J phi> = 0
    identically).  The output satisfies unit norms with
    (phi_i, phi_j) = (phi_i, J phi_j) = 0 for i != j.
    """
    if not cluster.j_closed:
        raise ValueError("cluster is not J-closed")
    ms = cluster.mode_set
    chosen = []
    for j in range(cluster.p_c):
        v = cluster.vectors[:, j].copy()
        for phi, jphi in chosen:
            v -= phi * np.vdot(phi, v)
            v -= jphi * np.vdot(jphi, v)
        nrm = np.linalg.norm(v)
        if nrm < 1e-8:
            continue
        v /= nrm
        jv = apply_J_coeffs(ms, v)
        chosen.append((v, jv))
        if len(chosen) == cluster.p_h:
            break
    if len(chosen) < cluster.p_h:
        raise RuntimeError("quaternionic Gram-Schmidt exhausted the basis early")
    return [SpinorField.from_vector(ms, v) for v, _ in chosen]


def check_quaternionic_pair(phi1, phi2):
    """Verify the orthonormality preconditions for alpha/beta combinations."""
    tol = 1e-8
    for name, phi in (("phi1", phi1), ("phi2", phi2)):
        if abs(phi.norm() - 1.0) > tol:
            raise ValueError(f"{name} is not normalized")
    h = l2_inner(phi1, phi2)
    hj = l2_inner(phi1, apply_J_field(phi2))
    if abs(h) > tol or abs(hj) > tol:
        raise ValueError(
            f"inputs are not quaternionically orthonormal: |(phi1,phi2)| = {abs(h):.3e}, "
            f"|(phi1,J phi2)| = {abs(hj):.3e}"
        )


def alpha_beta(phi1, phi2, p, q):
    """Normalized combinations 2^{-1/2}(phi1 +/- i^p J^q phi2), p, q in {0, 1}.

    Both outputs have unit norm, and if the inputs are eigenvectors for the
    same eigenvalue then so are the outputs.
    """
    if p not in (0, 1) or q not in (0, 1):
        raise ValueError("p and q must be 0 or 1")
    check_quaternionic_pair(phi1, phi2)
    psi = apply_J_field(phi2) if q else phi2
    if p:
        psi = 1j * psi
    inv = 1.0 / np.sqrt(2.0)
    return inv * (phi1 + psi), inv * (phi1 - psi)


@dataclass
class GramFunctions:
    """Pointwise Gram functions of two fields and their sup norms."""

    h1: np.ndarray  # <phi1, phi2>(x)
    h2: np.ndarray  # <phi1, J phi2>(x)
    sup_h1: float
    sup_h2: float


def pointwise_gram(phi1, phi2, G):
    """Evaluate <phi1, phi2>(x) and <phi1, J phi2>(x) on the grid.

    Because the spinor bundle has quaternionic rank one, both functions can
    only vanish simultaneously where one of the fields vanishes; for
    eigenspinors this is the numerical witness that generic deformations
    separate them.
    """
    if not phi1.mode_set.same_modes(phi2.mode_set):
        raise ValueError("fields live on different mode sets")
    require_product_grid(phi1.mode_set, G)
    v1 = field_on_grid(phi1, G)
    v2 = field_on_grid(phi2, G)
    vj = field_on_grid(apply_J_field(phi2), G)
    h1 = np.sum(v1 * np.conj(v2), axis=-1)
    h2 = np.sum(v1 * np.conj(vj), axis=-1)
    return GramFunctions(
        h1=h1,
        h2=h2,
        sup_h1=float(np.max(np.abs(h1))),
        sup_h2=float(np.max(np.abs(h2))),
    )


def flat_cluster_window(mode_set, lam):
    """Midpoint window separating the flat cluster at lam from its neighbors
    in ``mode_set.flat_clusters`` (unbounded past the first and last)."""
    _, lams, _ = mode_set.flat_clusters
    pos = flat_cluster_index(mode_set, lam)
    lo = -np.inf if pos == 0 else 0.5 * (lams[pos - 1] + lams[pos])
    hi = np.inf if pos == len(lams) - 1 else 0.5 * (lams[pos] + lams[pos + 1])
    return lo, hi


def deformed_cluster_values(factor, t, cluster, tau_rel=None):
    """Eigenvalues of the deformed spectrum descending from the flat cluster.

    Solves only the eigenpairs inside the cluster's midpoint window and
    checks that exactly ``cluster.p_c`` of them are present (otherwise the
    cluster is not isolated at this t).  Returns the sorted values and the
    windowed result.
    """
    lo, hi = flat_cluster_window(cluster.mode_set, cluster.lam)
    res = deformed_spectrum(
        factor,
        t,
        cluster.mode_set,
        tau_rel=tau_rel,
        keep_vectors=False,
        subset_by_value=(lo, hi),
    )
    vals = res.eigenvalues[(res.eigenvalues > lo) & (res.eigenvalues < hi)]
    if len(vals) != cluster.p_c:
        raise ClusterNotIsolatedError(
            f"expected {cluster.p_c} eigenvalues near {cluster.lam} at t={t}, found {len(vals)}"
        )
    return np.sort(vals), res


@dataclass
class FdReport(Artifact):
    """Finite-difference validation of first-order rates for one cluster."""

    lam: float
    f_ref: str
    t_values: list[float]
    mismatches: list[float]
    order: float


def fd_check(cluster, factor, t_values):
    """Compare deformed sub-eigenvalues with lambda + t * rates over a t list.

    The per-t mismatch is the maximum absolute difference between the sorted
    deformed cluster eigenvalues and the sorted first-order predictions; the
    empirical convergence order is the log-log slope (expected >= 2, i.e.
    the first-order rates are exact to O(t^2)).
    """
    t_values = [float(t) for t in t_values]
    if len(t_values) < 2:
        raise ValueError("need at least two t values")
    if any(t <= 0 for t in t_values) or any(
        b >= a for a, b in zip(t_values, t_values[1:])
    ):
        raise ValueError("t values must be positive and strictly decreasing")
    report = perturbation_matrix(cluster, factor)
    predicted_rates = np.sort(report.rates)
    mismatches = []
    for t in t_values:
        vals, _ = deformed_cluster_values(factor, t, cluster)
        predicted = cluster.lam + t * predicted_rates
        mismatches.append(float(np.max(np.abs(vals - predicted))))
    logs = np.log(np.maximum(mismatches, 1e-300))
    slope = np.polyfit(np.log(t_values), logs, 1)[0]
    return FdReport(
        lam=cluster.lam,
        f_ref=factor.describe(),
        t_values=t_values,
        mismatches=mismatches,
        order=float(slope),
    )

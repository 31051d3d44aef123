"""Randomized conformal deformations: splitting searches and simplicity statistics.

Degenerate eigenvalues of the flat operator come from lattice symmetry;
generic conformal deformations are expected to break every positive cluster
into quaternionically simple pieces.  This module makes that executable:

* ``split_search`` sweeps a deterministic candidate list of deformation
  profiles until one produces distinct quaternionic first-order rates, then
  verifies on a real deformed solve that the cluster actually falls apart;
* ``genericity_scan`` samples random factors and tabulates the multiplicity
  patterns of the lowest positive clusters;
* ``simplicity_certificate`` checks that the first k eigenvalues on each side
  of zero (counted with quaternionic multiplicity) are pairwise distinct and
  that the kernel is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import eigensolver
from .artifact import Artifact
from .conformal import (
    ConformalFactor,
    _solve_shells,
    _trusted_shells,
    cluster_tolerance,
    cube_modes,
    trust_radius,
    trusted_spectrum,
)
from .errors import ClusterNotIsolatedError, PositiveDefiniteError, SplitSearchError
from .perturbation import deformed_cluster_values, perturbation_matrix
from .torus_dirac import SpectrumLine, SpinStructure, build_mode_set

#: Generalized eigenvalues below this absolute size count as kernel elements.
KERNEL_TOL = 1e-8


def random_factor(seed, degree, amplitude, label=None):
    """Seeded random real trigonometric polynomial with sup norm ~ amplitude.

    Coefficients are i.i.d. complex Gaussians on a half-space of modes (the
    other half fixed by conjugation, the zero mode real), then the whole
    polynomial is rescaled so its sup norm over a sampling grid equals the
    requested amplitude.  Identical seeds give identical factors.
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    amplitude = float(amplitude)
    if not (np.isfinite(amplitude) and amplitude >= 0):
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    if amplitude == 0.0:
        return ConformalFactor.zero()
    rng = np.random.default_rng(seed)
    zero, *positive = _half_space(degree)
    coeffs = {zero: rng.standard_normal()}
    for m in positive:
        re, im = rng.standard_normal(2)
        coeffs[m] = (re + 1j * im) / 2.0
        coeffs[tuple(-x for x in m)] = (re - 1j * im) / 2.0
    factor = ConformalFactor.from_coeffs(degree, coeffs, label=label)
    sup = factor.sup_abs()
    if sup == 0.0:
        return ConformalFactor.zero()
    return factor.scaled(amplitude / sup)


def _half_space(degree):
    """The zero mode, then the representative m > 0 of each pair {m, -m} with
    |m|_inf <= degree, in lexicographic order."""
    modes = cube_modes(degree)
    return [tuple(m) for m in modes[len(modes) // 2 :].tolist()]


def candidate_factors(max_degree, n_random=32, seed=2024):
    """Deterministic splitting candidates: single frequencies (by Euclidean
    length, then lexicographically), then random mixes."""
    by_length = sorted(_half_space(max_degree)[1:], key=lambda m: (sum(x * x for x in m), m))
    for m in by_length:
        yield ConformalFactor.cosine(m)
        yield ConformalFactor.sine(m)
    root = np.random.SeedSequence(seed)
    for j, child in enumerate(root.spawn(n_random)):
        yield random_factor(child, max_degree, 1.0, label=f"mix:{seed}:{j}")


@dataclass
class SplitCertificate(Artifact):
    """Witness that one deformation profile splits a degenerate cluster."""

    lam: float
    p_c_before: int
    p_h_before: int
    factor_label: str
    factor: dict
    rates: list[float]
    quaternionic_rates: list[float]
    rate_gap: float
    t_verify: float
    post_clusters: list[SpectrumLine]
    max_p_h_after: int
    max_position_error: float
    candidates_tried: int


def _verify_split(cluster, factor, report, t):
    """Solve at the verification t and match sub-clusters to predictions.

    Each predicted sub-cluster must lie within 5 t^2 of a solved one.
    """
    position_tol = 5.0 * t**2
    # the clusters of the flat cluster's index window, isolated in its midpoint window
    sub = deformed_cluster_values(factor, t, cluster, tau_rel=eigensolver.TAU_REL_SPLIT).clusters
    q = np.asarray(report.quaternionic_rates, dtype=float)
    tol_group = 1e-8 * max(1.0, abs(cluster.lam), float(np.max(np.abs(q))))
    groups = eigensolver.cluster_eigenvalues(np.sort(q), tau_abs=tol_group)
    predicted = [cluster.lam + t * g.lam for g in groups]
    max_err = 0.0
    for c in sub:
        err = min(abs(c.lam - p) for p in predicted)
        max_err = max(max_err, err)
    covered = all(any(abs(c.lam - p) <= position_tol for c in sub) for p in predicted)
    max_ph = max(c.mult_h for c in sub)
    ok = covered and max_err <= position_tol and max_ph < cluster.p_h
    post = [SpectrumLine(c.lam, c.mult_c, c.mult_h) for c in sub]
    return ok, post, max_ph, max_err


def split_search(
    cluster,
    max_degree,
    t_verify=0.05,
    gap_threshold=1e-3,
    n_random=32,
    seed=2024,
):
    """Find a deformation profile that splits a degenerate cluster.

    Sweeps single cosine/sine frequencies up to ``max_degree`` (sorted by
    frequency length) and then seeded random combinations, keeping the first
    candidate whose quaternionic rates separate by more than
    ``gap_threshold`` AND whose verification solve at ``t_verify`` shows
    every descendant cluster with strictly smaller quaternionic multiplicity.

    Raises SplitSearchError, carrying the full rate table, if every candidate
    fails (the guarantee of splittability is only over all possible profiles;
    a bounded sweep can come up empty).
    """
    if cluster.p_h < 2:
        raise ValueError("cluster is already quaternionically simple")
    table = []
    tried = 0
    for factor in candidate_factors(max_degree, n_random=n_random, seed=seed):
        tried += 1
        report = perturbation_matrix(cluster, factor)
        table.append((factor.describe(), report.min_gap))
        if report.quaternionic_rates is None or report.min_gap <= gap_threshold:
            continue
        try:
            ok, post, max_ph, max_err = _verify_split(cluster, factor, report, t_verify)
        except (ClusterNotIsolatedError, PositiveDefiniteError):
            continue
        if not ok:
            continue
        return SplitCertificate(
            lam=cluster.lam,
            p_c_before=cluster.p_c,
            p_h_before=cluster.p_h,
            factor_label=factor.describe(),
            factor=factor.to_json_dict(),
            rates=[float(r) for r in report.rates],
            quaternionic_rates=[float(r) for r in report.quaternionic_rates],
            rate_gap=report.min_gap,
            t_verify=float(t_verify),
            post_clusters=post,
            max_p_h_after=max_ph,
            max_position_error=max_err,
            candidates_tried=tried,
        )
    raise SplitSearchError(
        f"no candidate up to degree {max_degree} split the cluster at {cluster.lam}; "
        f"try a larger degree",
        rate_table=table,
    )


@dataclass
class GenericityTrial:
    index: int
    f_ref: str
    lambdas: list[float]
    mult_c: list[int]
    mult_h: list[int]
    all_simple: bool
    error: str | None = None


@dataclass
class GenericityReport(Artifact):
    """Multiplicity statistics of the lowest positive clusters over random trials."""

    delta: tuple[int, int, int]
    N: int
    t: float
    degree: int
    amplitude: float
    seed: int
    trials: int
    m_clusters: int
    trial_rows: list[GenericityTrial] = field(default_factory=list)
    pattern_counts: dict = field(default_factory=dict)
    fraction_all_simple: float | None = None
    n_failures: int = 0

    def csv_rows(self):
        rows = [("trial", "f_ref", "all_simple", "mult_h_pattern", "error")]
        for r in self.trial_rows:
            rows.append(
                (
                    str(r.index),
                    r.f_ref,
                    "1" if r.all_simple else "0",
                    ",".join(str(h) for h in r.mult_h),
                    r.error or "",
                )
            )
        return rows


def lowest_positive_clusters(factor, t, mode_set, m_clusters, tau_rel=None):
    """The first ``m_clusters`` positive clusters of the deformed spectrum.

    Solves the index window of the flat clusters from the kernel through the
    first ``m_clusters`` positive shells, and no shell past |lambda| = N -
    1/2 (``conformal._solve_shells``), so the clusters are those of a full
    solve.  The upper side grows while the window holds fewer than
    ``m_clusters`` positive clusters and the eigenvalue past it lies within R
    + tol, R = ``trust_radius`` and tol = ``tau_rel * max(1, R)``.  Raises
    ValueError when the last cluster asked for lies past R + tol, where
    Galerkin eigenvalues are truncation artifacts.
    """
    if tau_rel is None:
        tau_rel = cluster_tolerance(factor, t)
    radius = trust_radius(factor, t, mode_set.N)
    reach = radius + tau_rel * max(1.0, radius)
    keys = mode_set.flat_clusters[0]
    first, positive_first = np.searchsorted(keys, 0), np.searchsorted(keys, 0, side="right")
    shells = int(first), min(int(positive_first) + m_clusters, _trusted_shells(mode_set)[1])

    def positive(res):
        return [c for c in res.clusters if c.lam > KERNEL_TOL][:m_clusters]

    def outgrown(res, below, above):
        return False, len(positive(res)) < m_clusters and above is not None and above <= reach

    res, _ = _solve_shells(factor, [t], [tau_rel], mode_set, shells, outgrown=outgrown)
    top = positive(res)
    if len(top) < m_clusters or (top and top[-1].lam > reach):
        raise ValueError(
            f"m_clusters={m_clusters} reaches past the trustworthy truncation radius {radius:.3f}"
        )
    return top


def genericity_scan(
    delta,
    trials,
    t,
    N,
    degree,
    amplitude,
    seed,
    m_clusters=3,
    tolerances=(eigensolver.TAU_REL_DEGENERATE, eigensolver.TAU_REL_SPLIT),
):
    """Monte Carlo over random factors: how often do the first ``m_clusters``
    positive clusters come out quaternionically simple?

    Deterministic given the seed (trial factors come from spawned seed
    sequences, trials run in index order).  Per-trial solver failures are
    recorded, not fatal.  Each trial solves only the eigenpairs its clusters
    need (see ``lowest_positive_clusters``); the residual bound holds on all
    of them.  A trial whose ``m_clusters``-th positive cluster lies past the
    trust radius raises ValueError: truncation artifacts are not statistics.
    ``tolerances`` is the (degenerate, split) pair of clustering tolerances,
    resolved per trial by ``conformal.cluster_tolerance``.
    """
    trials = int(trials)
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if m_clusters < 0:
        raise ValueError("m_clusters must be >= 0")
    spin = delta if isinstance(delta, SpinStructure) else SpinStructure(tuple(delta))
    report = GenericityReport(
        delta=spin.delta,
        N=int(N),
        t=float(t),
        degree=int(degree),
        amplitude=float(amplitude),
        seed=int(seed),
        trials=trials,
        m_clusters=int(m_clusters),
    )
    if trials == 0:
        return report
    ms = build_mode_set(N, spin)
    children = np.random.SeedSequence(int(seed)).spawn(trials)

    def run_trial(i):
        label = f"random:{int(seed)}:{i}"
        factor = random_factor(children[i], degree, amplitude, label=label)
        tau_rel = cluster_tolerance(factor, t, *tolerances)
        try:
            top = lowest_positive_clusters(factor, t, ms, m_clusters, tau_rel=tau_rel)
        except (PositiveDefiniteError, RuntimeError) as exc:
            return GenericityTrial(i, label, [], [], [], False, error=str(exc))
        mult_h = [c.mult_h for c in top]
        return GenericityTrial(i, label, [c.lam for c in top], [c.mult_c for c in top], mult_h,
                               all_simple=all(h == 1 for h in mult_h))

    rows = report.trial_rows = [run_trial(i) for i in range(trials)]
    ok_rows = [r for r in rows if r.error is None]
    report.n_failures = trials - len(ok_rows)
    for r in ok_rows:
        key = ",".join(str(h) for h in r.mult_h)
        report.pattern_counts[key] = report.pattern_counts.get(key, 0) + 1
    report.fraction_all_simple = sum(1 for r in ok_rows if r.all_simple) / trials
    return report


@dataclass
class SimplicityReport(Artifact):
    """Outcome of the distinctness check on the first k eigenvalues per side."""

    delta: tuple[int, int, int]
    N: int
    t: float
    k: int
    f_ref: str
    passed: bool
    reason: str | None
    offending: list[float] | None
    kernel_dim: int
    positive: list[float]
    negative: list[float]


def _enumerate_side(clusters, k):
    """First k eigenvalues with quaternionic repetition, plus a per-slot map of
    the cluster quaternionic multiplicity."""
    values, mults = [], []
    for c in clusters:
        for _ in range(c.mult_h):
            values.append(c.lam)
            mults.append(c.mult_h)
            if len(values) == k:
                return values, mults
    return values, mults


def simplicity_certificate(delta, factor, t, k, N, tau_rel=None):
    """Check that the lowest k eigenvalues on each side of zero are simple.

    Enumerates eigenvalues with quaternionic multiplicity; the certificate
    passes when the first k entries on each side are pairwise distinct (their
    clusters all simple) and the kernel is empty.  The trivial spin structure
    always fails the kernel condition: its harmonic spinors persist under
    every conformal deformation.

    Only the trusted window |lambda| <= ``trust_radius`` is solved (see
    ``conformal.trusted_spectrum``); raises ValueError when it holds fewer
    than k eigenvalues on a side.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    spin = delta if isinstance(delta, SpinStructure) else SpinStructure(tuple(delta))
    ms = build_mode_set(N, spin)
    res = trusted_spectrum(factor, t, ms, tau_rel=tau_rel)
    kernel_dim = int(np.sum(np.abs(res.eigenvalues) <= KERNEL_TOL))
    pos = [c for c in res.clusters if c.lam > KERNEL_TOL]
    neg = [c for c in reversed(res.clusters) if c.lam < -KERNEL_TOL]
    pos_vals, pos_mults = _enumerate_side(pos, k)
    neg_vals, neg_mults = _enumerate_side(neg, k)
    if len(pos_vals) < k or len(neg_vals) < k:
        raise ValueError(
            f"k={k} reaches past the trustworthy truncation radius "
            f"{res.meta['trust_radius']:.3f}"
        )

    def result(passed, reason=None, offending=None):
        return SimplicityReport(
            delta=spin.delta,
            N=int(N),
            t=float(t),
            k=k,
            f_ref=factor.describe(),
            passed=passed,
            reason=reason,
            offending=offending,
            kernel_dim=kernel_dim,
            positive=pos_vals,
            negative=neg_vals,
        )

    if kernel_dim > 0:
        return result(False, reason="kernel")
    for vals, mults in ((pos_vals, pos_mults), (neg_vals, neg_mults)):
        for i in range(k):
            if mults[i] != 1:
                return result(
                    False, reason="pair", offending=[vals[i], vals[i]]
                )
    return result(True)

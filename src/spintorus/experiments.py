"""Randomized conformal deformations: splitting searches and simplicity statistics.

Degenerate eigenvalues of the flat operator come from lattice symmetry;
generic conformal deformations are expected to break every positive cluster
into quaternionically simple pieces.  This module makes that executable:

* ``split_search`` sweeps a deterministic candidate list of deformation
  profiles until one produces distinct quaternionic first-order rates, then
  verifies on a real deformed solve that the cluster actually falls apart;
* ``genericity_scan`` samples random factors and tabulates the multiplicity
  patterns of the lowest positive clusters, its trials spread over worker
  processes of one BLAS thread each (``run_trials``);
* ``simplicity_certificate`` checks that the first k eigenvalues on each side
  of zero (counted with quaternionic multiplicity) are pairwise distinct and
  that the kernel is empty.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import eigensolver
from .artifact import Artifact
from .conformal import (
    ConformalFactor,
    _solve_shells,
    _trusted_shells,
    cube_modes,
    trusted_reach,
    trusted_spectrum,
)
from .errors import ClusterNotIsolatedError, PositiveDefiniteError, SplitSearchError
from .memory import TRIAL_WORKER_BYTES, dense_memory_estimate, physical_memory
from .perturbation import deformed_cluster_values, perturbation_matrix
from .torus_dirac import SpectrumLine, SpinStructure, build_mode_set

#: Generalized eigenvalues below this absolute size count as kernel elements.
KERNEL_TOL = 1e-8
#: ``split_search`` verifies a candidate whose quaternionic rates separate by
#: more than this, and tries this many random mixes after the single frequencies.
SPLIT_GAP_THRESHOLD = 1e-3
SPLIT_RANDOM_MIXES = 32


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


def candidate_factors(max_degree, seed=2024):
    """Deterministic splitting candidates: single frequencies (by Euclidean
    length, then lexicographically), then ``SPLIT_RANDOM_MIXES`` random mixes."""
    by_length = sorted(_half_space(max_degree)[1:], key=lambda m: (sum(x * x for x in m), m))
    for m in by_length:
        yield ConformalFactor.cosine(m)
        yield ConformalFactor.sine(m)
    root = np.random.SeedSequence(seed)
    for j, child in enumerate(root.spawn(SPLIT_RANDOM_MIXES)):
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
    sub = deformed_cluster_values(factor, t, cluster).clusters
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


def split_search(cluster, max_degree, t_verify=0.05, seed=2024):
    """Find a deformation profile that splits a degenerate cluster.

    Sweeps single cosine/sine frequencies up to ``max_degree`` (sorted by
    frequency length) and then seeded random combinations
    (``candidate_factors``), keeping the first candidate whose quaternionic
    rates separate by more than ``SPLIT_GAP_THRESHOLD`` AND whose
    verification solve at ``t_verify`` shows every descendant cluster with
    strictly smaller quaternionic multiplicity.

    Raises SplitSearchError, carrying the full rate table, if every candidate
    fails (the guarantee of splittability is only over all possible profiles;
    a bounded sweep can come up empty).
    """
    if cluster.p_h < 2:
        raise ValueError("cluster is already quaternionically simple")
    table = []
    tried = 0
    for factor in candidate_factors(max_degree, seed=seed):
        tried += 1
        report = perturbation_matrix(cluster, factor)
        table.append((factor.describe(), report.min_gap))
        if report.min_gap <= SPLIT_GAP_THRESHOLD:
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


def lowest_positive_clusters(factor, t, mode_set, m_clusters, tolerances=eigensolver.TOLERANCES):
    """The first ``m_clusters`` positive clusters of the deformed spectrum.

    Solves the index window of the flat clusters from the kernel through the
    first ``m_clusters`` positive shells, and no shell past |lambda| = N -
    1/2 (``conformal._solve_shells``), so the clusters are those of a full
    solve.  The upper side grows while the window holds fewer than
    ``m_clusters`` positive clusters and the eigenvalue past it lies within
    the reach of the trust radius (``conformal.trusted_reach``).  Raises
    ValueError when the last cluster asked for lies past the reach, where
    Galerkin eigenvalues are truncation artifacts.
    """
    radius, reach = trusted_reach(factor, t, mode_set.N, tolerances)
    keys = mode_set.flat_clusters[0]
    first, positive_first = np.searchsorted(keys, 0), np.searchsorted(keys, 0, side="right")
    shells = int(first), min(int(positive_first) + m_clusters, _trusted_shells(mode_set)[1])

    def positive(res):
        return [c for c in res.clusters if c.lam > KERNEL_TOL][:m_clusters]

    def outgrown(res, below, above):
        return False, len(positive(res)) < m_clusters and above is not None and above <= reach

    res, _ = _solve_shells(factor, [t], mode_set, shells, tolerances, outgrown=outgrown)
    top = positive(res)
    if len(top) < m_clusters or (top and top[-1].lam > reach):
        raise ValueError(
            f"m_clusters={m_clusters} reaches past the trustworthy truncation radius {radius:.3f}"
        )
    return top


#: OpenBLAS entry points that set and read a library's thread count, as
#: (set, get) names: scipy-openblas builds (numpy's ILP64 build carries the
#: 64_ suffix), then plain OpenBLAS builds.
OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def openblas_thread_controls():
    """The (set, get) thread-count functions of each OpenBLAS library loaded
    in this process, found through /proc/self/maps; empty where there is
    none (another BLAS, or no /proc).  Nothing is called."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths if "openblas" in p.lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in OPENBLAS_THREAD_CALLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return controls


def trial_workers(trials, N, delta):
    """Worker processes of a genericity scan: at most one per trial, per CPU
    this process may run on, and per worker of ``TRIAL_WORKER_BYTES`` plus
    one dense solve (``memory.dense_memory_estimate``) that fits in
    physical memory, and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = physical_memory() // (dense_memory_estimate(N, delta) + TRIAL_WORKER_BYTES)
    return max(1, min(trials, cpus or 1, int(workers)))


#: A pool worker's trial function, set by ``_pin_worker`` in the worker
#: process once its OpenBLAS libraries run one thread; None elsewhere.
_worker_trial = None


def _pin_worker(controls, run_trial):
    """Pool initializer: pin every OpenBLAS library to one thread and keep
    ``run_trial`` when each reads one thread back."""
    global _worker_trial
    for set_threads, _ in controls:
        set_threads(1)
    if all(get_threads() == 1 for _, get_threads in controls):
        _worker_trial = run_trial


def _pinned_trial(i):
    if _worker_trial is None:
        raise RuntimeError("a genericity worker could not pin OpenBLAS to one thread")
    return _worker_trial(i)


def run_trials(run_trial, trials, N, delta):
    """[run_trial(i) for i in range(trials)], each on one OpenBLAS thread.

    The trials run on a pool of ``trial_workers`` forks of this process, each
    pinned to one thread by its library's own entry point, so that every
    trial computes the same bits whatever the worker count or this process's
    thread setting, which stays untouched.  Workers receive only the index
    i, and no worker outlives the call, also when a trial raises: the first
    error in index order is raised.  Fork, not spawn: a fork inherits the
    loaded libraries and ``run_trial`` with everything it holds, without
    pickling or imports; OpenBLAS stops its threads before a fork.

    The trials run here, one after another, where no OpenBLAS entry point
    is found (another BLAS, or no /proc), and where ``random_factor`` has
    been rebound to a wrapper (``__wrapped__``, as ``functools.wraps``
    sets): a tracer or profiler that wraps this package's functions keeps
    its records in the process that makes the calls, and a worker's
    records would be lost when it exits.
    """
    controls = openblas_thread_controls()
    if not controls or hasattr(random_factor, "__wrapped__"):
        return [run_trial(i) for i in range(trials)]
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(
        trial_workers(trials, N, delta), initializer=_pin_worker, initargs=(controls, run_trial)
    )
    try:
        rows = list(pool.imap(_pinned_trial, range(trials), chunksize=1))
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return rows


def genericity_scan(
    delta,
    trials,
    t,
    N,
    degree,
    amplitude,
    seed,
    m_clusters=3,
    tolerances=eigensolver.TOLERANCES,
):
    """Monte Carlo over random factors: how often do the first ``m_clusters``
    positive clusters come out quaternionically simple?

    Deterministic given the seed: trial i's factor comes from the i-th
    spawned child of the seed's sequence, and ``run_trials`` solves every
    trial on one BLAS thread and returns the rows in index order, so the
    report does not depend on the worker count or the BLAS thread setting.
    Per-trial solver failures are recorded, not fatal.  Each trial solves
    only the eigenpairs its clusters need (see ``lowest_positive_clusters``);
    the residual bound holds on all of them.  A trial whose
    ``m_clusters``-th positive cluster lies past the trust radius raises
    ValueError: truncation artifacts are not statistics.
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
    root = np.random.SeedSequence(int(seed))

    def run_trial(i):
        label = f"random:{int(seed)}:{i}"
        # root.spawn(trials)[i], built from its index alone
        child = np.random.SeedSequence(root.entropy, spawn_key=(i,))
        factor = random_factor(child, degree, amplitude, label=label)
        try:
            top = lowest_positive_clusters(factor, t, ms, m_clusters, tolerances)
        except (PositiveDefiniteError, RuntimeError) as exc:
            return GenericityTrial(i, label, [], [], [], False, error=str(exc))
        mult_h = [c.mult_h for c in top]
        return GenericityTrial(i, label, [c.lam for c in top], [c.mult_c for c in top], mult_h,
                               all_simple=all(h == 1 for h in mult_h))

    rows = report.trial_rows = run_trials(run_trial, trials, int(N), spin.delta)
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


def simplicity_certificate(delta, factor, t, k, N, tolerances=eigensolver.TOLERANCES):
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
    res = trusted_spectrum(factor, t, ms, tolerances)
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

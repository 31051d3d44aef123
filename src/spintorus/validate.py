"""The invariant checks behind the ``validate`` subcommand and the acceptance tests.

Each check draws its random inputs from ``np.random.default_rng(seed)``,
raises ``AssertionError`` when the invariant fails and returns a one-line
detail when it holds.  The acceptance criteria (``tests/test_acceptance.py``)
run these checks at their full sizes; ``run_all`` runs them at small sizes.
"""

from __future__ import annotations

import numpy as np

from . import spinor_algebra as sa
from .conformal import ConformalFactor, deformed_spectrum, flat_spectrum, substitution_identity_error
from .experiments import random_factor
from .perturbation import extract_cluster, fd_check, perturbation_matrix, rate_single
from .torus_dirac import all_spin_structures, build_mode_set, closed_form_spectrum, random_field


def _require(ok, message):
    if not ok:
        raise AssertionError(message)


def check_oracle_equality(N, tol=1e-12):
    """Flat clusters with |lambda| <= N - 1/2 equal the lattice count, all 8 spin structures."""
    radius = N - 0.5 + 1e-9
    worst = 0.0
    for spin in all_spin_structures():
        ms = build_mode_set(N, spin)
        res = flat_spectrum(ms)
        got = [(c.lam, c.mult_c, c.mult_h) for c in res.clusters if abs(c.lam) <= radius]
        expected = []
        for line in closed_form_spectrum(spin, radius):
            signs = (1.0,) if line.lam == 0.0 else (-1.0, 1.0)
            expected += [(s * line.lam, line.mult_c, line.mult_h) for s in signs]
        expected.sort()
        _, lams, mult_c = ms.flat_clusters
        inside = np.abs(lams) <= radius
        table = list(zip(lams[inside].tolist(), mult_c[inside].tolist()))
        _require(table == [(el, ec) for el, ec, _ in expected],
                 f"flat cluster table differs from the lattice count for delta={spin}")
        _require(len(got) == len(expected), f"cluster count mismatch for delta={spin}")
        for (gl, gc, gh), (el, ec, eh) in zip(got, expected):
            _require(abs(gl - el) <= tol, f"eigenvalue {gl} vs {el} for delta={spin}")
            _require((gc, gh) == (ec, eh), f"multiplicity at {el} for delta={spin}")
            worst = max(worst, abs(gl - el))
    return f"8 spin structures at N={N}, worst eigenvalue error {worst:.2e}"


def check_kramers_pairing(seed, runs):
    """Even complex multiplicities: 16 flat runs, then random deformed ones up to ``runs``."""
    rng = np.random.default_rng(seed)
    done = 0
    violations = []
    for spin in all_spin_structures():
        for N in (1, 2):
            res = flat_spectrum(build_mode_set(N, spin))
            done += 1
            violations += [c for c in res.clusters if not c.kramers_ok]
    while done < runs:
        spin = all_spin_structures()[rng.integers(0, 8)]
        ms = build_mode_set(2, spin)
        f = random_factor(int(rng.integers(0, 2**31)), int(rng.integers(1, 3)),
                          float(rng.uniform(0.1, 0.5)))
        t = float(rng.uniform(0.01, 0.1)) * (1 if rng.integers(0, 2) else -1)
        res = deformed_spectrum(f, t, ms)
        done += 1
        violations += [c for c in res.clusters if not c.kramers_ok]
    _require(not violations, f"odd multiplicities found: {violations[:3]}")
    return f"even complex multiplicity in every cluster of {done} runs"


def check_homothety(tol=1e-10, rate_tol=1e-12):
    """Constant f = c scales the spectrum by e^{-tc}; its first-order rates are -lambda c."""
    c = 0.3
    factor = ConformalFactor.constant(c)
    worst = rate_worst = 0.0
    for spin in [(0, 0, 0), (1, 0, 0)]:
        ms = build_mode_set(2, spin)
        flat = flat_spectrum(ms)
        for t in (0.1, 0.5):
            res = deformed_spectrum(factor, t, ms)
            err = np.max(np.abs(res.eigenvalues - np.exp(-t * c) * flat.eigenvalues))
            _require(err <= tol, f"homothety error {err:.3e} at t={t}")
            worst = max(worst, err)
        cluster = extract_cluster(ms, index=len(flat.clusters) - 1)
        for phi in cluster.fields():
            err = abs(rate_single(cluster.lam, phi, factor) + cluster.lam * c)
            _require(err <= rate_tol, f"rate error {err:.3e} at lambda={cluster.lam}")
            rate_worst = max(rate_worst, err)
    return f"uniform scaling error {worst:.2e}, constant-factor rate error {rate_worst:.2e}"


def check_first_order_rates(seed, cases, min_order=1.9, mismatch_coeff=10.0):
    """Rates match finite differences to O(t^2) over t in {1e-2, 1e-3, 1e-4}, delta != 0."""
    rng = np.random.default_rng(seed)
    deltas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    lowest = np.inf
    for case in range(cases):
        spin = deltas[case % len(deltas)]
        ms = build_mode_set(2, spin)
        _, lams, _ = ms.flat_clusters
        positive = np.flatnonzero((lams > 0) & (lams < ms.N - 0.6))
        cluster = extract_cluster(ms, index=int(positive[rng.integers(0, len(positive))]))
        factor = random_factor(int(rng.integers(0, 2**31)), 2, float(rng.uniform(0.2, 0.5)))
        fd = fd_check(cluster, factor, perturbation_matrix(cluster, factor), [1e-2, 1e-3, 1e-4])
        _require(fd.order >= min_order,
                 f"order {fd.order:.3f} for delta={spin}, lambda={cluster.lam}")
        for t, m in zip(fd.t_values, fd.mismatches):
            _require(m <= mismatch_coeff * t**2, f"mismatch {m:.3e} not O(t^2) at t={t}")
        lowest = min(lowest, fd.order)
    return f"min finite-difference order {lowest:.2f} over {cases} random case(s)"


def check_substitution_identity(seed, cases, tol=1e-10):
    """D(e^{(n-1)tf/2} phi) = e^{(n+1)tf/2} D_deformed phi on a grid, random (f, t, phi)."""
    rng = np.random.default_rng(seed)
    structures = all_spin_structures()
    worst = 0.0
    for i in range(cases):
        spin = structures[i % 8]
        ms = build_mode_set(2, spin)
        factor = random_factor(int(rng.integers(0, 2**31)), 2, float(rng.uniform(0.2, 0.5)))
        t = float(rng.uniform(-0.12, 0.12))
        phi = random_field(ms, rng)
        err = substitution_identity_error(factor, t, phi)
        _require(err <= tol, f"identity error {err:.3e} (delta={spin}, t={t})")
        worst = max(worst, err)
    return f"max relative grid error {worst:.2e} over {cases} cases"


def check_kernel_constancy(seed, runs, kernel_tol=1e-8, min_gap=0.3):
    """delta = 0, random f, t = 0.05: a 2-dimensional kernel and a gap of at least min_gap."""
    rng = np.random.default_rng(seed)
    ms = build_mode_set(2, (0, 0, 0))
    smallest = np.inf
    for _ in range(runs):
        factor = random_factor(int(rng.integers(0, 2**31)), 2, float(rng.uniform(0.2, 0.6)))
        res = deformed_spectrum(factor, 0.05, ms)
        absw = np.abs(res.eigenvalues)
        n_kernel = int(np.sum(absw <= kernel_tol))
        _require(n_kernel == 2, f"kernel dimension {n_kernel}")
        gap = absw[absw > kernel_tol].min()
        _require(gap >= min_gap, f"gap {gap:.3f}")
        smallest = min(smallest, gap)
    return f"kernel stayed 2-dimensional with gap >= {smallest:.3f} in {runs} runs"


def check_spinor_laws(seed, samples, tol=1e-13):
    """Clifford relation and the laws of J (J^2 = -1, antiunitary, commutes with c(v))."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((samples, 3))
    s = rng.standard_normal((samples, 2, 2)) @ np.array([1.0, 1.0j])
    s2 = rng.standard_normal((samples, 2, 2)) @ np.array([1.0, 1.0j])
    Js = sa.apply_J(s)
    residuals = {
        "clifford": sa.clifford_mul(v, sa.clifford_mul(v, s)) + np.sum(v * v, axis=-1)[:, None] * s,
        "J_squared": sa.apply_J(Js) + s,
        "J_antilinear": sa.apply_J(1j * s) + 1j * Js,
        "J_clifford": sa.apply_J(sa.clifford_mul(v, s)) - sa.clifford_mul(v, Js),
        "antiunitary": sa.herm_inner(Js, sa.apply_J(s2)) - np.conj(sa.herm_inner(s, s2)),
        "isometry": sa.spinor_norm(Js) - sa.spinor_norm(s),
    }
    errs = {name: np.max(np.abs(r)) for name, r in residuals.items()}
    for name, err in errs.items():
        _require(err <= tol, f"{name} law violated: {err:.3e}")
    worst = max(errs.values())
    return f"max law violation {worst:.2e} over {samples} samples"


def run_all(seed=2024):
    """Every check at a small size, reported as {name, passed, detail} rows."""
    checks = [
        ("spinor_laws", lambda: check_spinor_laws(seed, samples=2000)),
        ("oracle_equality", lambda: check_oracle_equality(N=2)),
        ("substitution_identity", lambda: check_substitution_identity(seed, cases=3)),
        ("kramers_pairing", lambda: check_kramers_pairing(seed, runs=19)),
        ("kernel_constancy", lambda: check_kernel_constancy(seed, runs=3)),
        ("first_order_rates", lambda: check_first_order_rates(seed, cases=1)),
        ("homothety", check_homothety),
    ]
    results = []
    for name, fn in checks:
        try:
            results.append({"name": name, "passed": True, "detail": fn()})
        except Exception as exc:  # noqa: BLE001 - the suite reports, never crashes
            results.append(
                {"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"}
            )
    return results

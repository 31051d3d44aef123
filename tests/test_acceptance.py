"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one PASS line per
criterion.
"""

import json
import time

import numpy as np
import pytest

from spintorus import spinor_algebra as sa
from spintorus.conformal import (
    ConformalFactor,
    deformed_spectrum,
    flat_spectrum,
    substitution_identity_error,
)
from spintorus.experiments import genericity_scan, random_factor, split_search
from spintorus.perturbation import (
    extract_cluster,
    fd_check,
    flat_cluster_window,
    rate_single,
)
from spintorus.torus_dirac import (
    all_spin_structures,
    build_mode_set,
    closed_form_spectrum,
    random_field,
)

SEED = 20240817


def _report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_1_oracle_spectrum_equality():
    """Galerkin flat spectrum == closed-form lattice spectrum, all 8 spin
    structures, N = 3, |lambda| <= 2.5, to 1e-12."""
    t0 = time.time()
    tol = 1e-12
    radius = 2.5
    for spin in all_spin_structures():
        ms = build_mode_set(3, spin)
        res = flat_spectrum(ms, keep_vectors=False)
        got = [
            (c.lam, c.mult_c, c.mult_h)
            for c in res.clusters
            if abs(c.lam) <= radius + 1e-9
        ]
        expected = []
        for line in closed_form_spectrum(spin, radius + 1e-9):
            if line.lam == 0.0:
                expected.append((0.0, line.mult_c, line.mult_h))
            else:
                expected.append((-line.lam, line.mult_c, line.mult_h))
                expected.append((line.lam, line.mult_c, line.mult_h))
        expected.sort()
        assert len(got) == len(expected), f"cluster count mismatch for delta={spin}"
        for (gl, gc, gh), (el, ec, eh) in zip(got, expected):
            assert abs(gl - el) <= tol, f"eigenvalue {gl} vs {el} for delta={spin}"
            assert (gc, gh) == (ec, eh), f"multiplicity at {el} for delta={spin}"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, f"flat Galerkin spectrum matches the lattice oracle "
               f"(8 spin structures, N=3, tol 1e-12, {elapsed:.1f}s)")


def test_criterion_2_kramers_degeneracy():
    """Every eigenvalue cluster of >= 100 randomized runs (flat and deformed)
    has even complex multiplicity; zero violations allowed."""
    rng = np.random.default_rng(SEED)
    runs = 0
    violations = []
    for spin in all_spin_structures():
        for N in (1, 2):
            res = flat_spectrum(build_mode_set(N, spin), keep_vectors=False)
            runs += 1
            violations += [c for c in res.clusters if not c.kramers_ok]
    while runs < 100:
        spin = all_spin_structures()[rng.integers(0, 8)]
        ms = build_mode_set(2, spin)
        f = random_factor(int(rng.integers(0, 2**31)), int(rng.integers(1, 3)),
                          float(rng.uniform(0.1, 0.5)))
        t = float(rng.uniform(0.01, 0.1)) * (1 if rng.integers(0, 2) else -1)
        res = deformed_spectrum(f, t, ms, keep_vectors=False)
        runs += 1
        violations += [c for c in res.clusters if not c.kramers_ok]
    assert runs >= 100
    assert not violations, f"odd multiplicities found: {violations[:3]}"
    _report(2, f"even complex multiplicity in every cluster of {runs} runs")


def test_criterion_3_homothety_exactness():
    """Constant f = c: deformed eigenvalues equal e^{-tc} x flat to 1e-10 and
    the first-order rate is exactly -lambda c to 1e-12."""
    c = 0.3
    factor = ConformalFactor.constant(c)
    for spin in [(0, 0, 0), (1, 0, 0)]:
        ms = build_mode_set(2, spin)
        flat = flat_spectrum(ms)
        for t in (0.1, 0.5):
            res = deformed_spectrum(factor, t, ms, keep_vectors=False)
            err = np.max(np.abs(res.eigenvalues - np.exp(-t * c) * flat.eigenvalues))
            assert err <= 1e-10, f"homothety error {err:.3e} at t={t}"
        cluster = extract_cluster(flat, ms, index=len(flat.clusters) - 1)
        lam = cluster.lam
        for phi in cluster.fields():
            rate = rate_single(lam, phi, factor)
            assert abs(rate - (-lam * c)) <= 1e-12
    _report(3, "uniform scaling exact to 1e-10; constant-factor rates exact to 1e-12")


def test_criterion_4_first_order_finite_difference():
    """>= 10 random (delta != 0, f, cluster) cases: |lambda(t) - lambda -
    t*rate| <= C t^2 with fitted order >= 1.9 over t in {1e-2, 1e-3, 1e-4}."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    deltas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    cases = 0
    t_list = [1e-2, 1e-3, 1e-4]
    while cases < 10:
        spin = deltas[cases % len(deltas)]
        ms = build_mode_set(2, spin)
        res = flat_spectrum(ms)
        positive = [c for c in res.clusters if 0 < c.lam < ms.N - 0.6]
        info = positive[int(rng.integers(0, len(positive)))]
        cluster = extract_cluster(res, ms, lam=info.lam)
        factor = random_factor(int(rng.integers(0, 2**31)), 2, float(rng.uniform(0.2, 0.5)))
        fd = fd_check(cluster, factor, t_list)
        assert fd.order >= 1.9, (
            f"order {fd.order:.3f} for delta={spin}, lambda={info.lam}"
        )
        for t, m in zip(fd.t_values, fd.mismatches):
            assert m <= 10.0 * t**2, f"mismatch {m:.3e} not O(t^2) at t={t}"
        cases += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, f"first-order rates exact to O(t^2) in {cases} randomized cases "
               f"(order >= 1.9, {elapsed:.1f}s)")


def test_criterion_5_substitution_identity():
    """D(e^{(n-1)tf/2} phi) = e^{(n+1)tf/2} D_deformed phi on a fine grid,
    relative error <= 1e-10, for >= 20 random (f, t, phi)."""
    rng = np.random.default_rng(SEED)
    structures = all_spin_structures()
    worst = 0.0
    for i in range(20):
        spin = structures[i % 8]
        ms = build_mode_set(2, spin)
        factor = random_factor(int(rng.integers(0, 2**31)), 2, float(rng.uniform(0.2, 0.5)))
        t = float(rng.uniform(-0.12, 0.12))
        phi = random_field(ms, rng)
        err = substitution_identity_error(factor, t, phi)
        worst = max(worst, err)
        assert err <= 1e-10, f"identity error {err:.3e} (delta={spin}, t={t})"
    _report(5, f"substitution identity holds to 1e-10 in 20 random cases "
               f"(worst {worst:.1e})")


def test_criterion_6_splitting_certificates():
    """split_search with max_degree = 2 splits both showcase clusters; the
    t = 0.05 verification shows strictly smaller quaternionic multiplicities
    with positions within 5 t^2 of lambda + t * rates."""
    t_verify = 0.05
    outcomes = []
    for delta, lam in [((0, 0, 0), 1.0), ((1, 0, 0), np.sqrt(5.0) / 2.0)]:
        ms = build_mode_set(3, delta)
        res = flat_spectrum(ms)
        cluster = extract_cluster(res, ms, lam=lam)
        cert = split_search(cluster, 2, t_verify=t_verify)
        assert cert.rate_gap > 0
        assert cert.max_p_h_after < cert.p_h_before
        assert all(h < cert.p_h_before for (_, _, h) in cert.post_clusters)
        assert cert.max_position_error <= 5.0 * t_verify**2
        assert sum(c[1] for c in cert.post_clusters) == cluster.p_c
        outcomes.append(
            f"delta={delta} lambda={lam:.4f}: p_H {cert.p_h_before} -> "
            f"{cert.max_p_h_after} via {cert.factor_label}"
        )
    _report(6, "; ".join(outcomes))


def test_criterion_7_kernel_constancy():
    """delta = 0, 20 random (f, t = 0.05): exactly 2 generalized eigenvalues
    within 1e-8 of zero, the next one above 0.3; zero violations."""
    rng = np.random.default_rng(SEED)
    ms = build_mode_set(2, (0, 0, 0))
    for _ in range(20):
        factor = random_factor(int(rng.integers(0, 2**31)), 2, float(rng.uniform(0.2, 0.6)))
        res = deformed_spectrum(factor, 0.05, ms, keep_vectors=False)
        absw = np.abs(res.eigenvalues)
        n_kernel = int(np.sum(absw <= 1e-8))
        assert n_kernel == 2, f"kernel dimension {n_kernel}"
        gap = absw[absw > 1e-8].min()
        assert gap >= 0.3, f"gap {gap:.3f}"
    _report(7, "kernel stayed exactly 2-dimensional with gap >= 0.3 in 20 runs")


def test_criterion_8_genericity_monte_carlo(tmp_path):
    """delta = (1,0,0), N = 3, degree 2, amplitude 0.3, t = 0.05, 50 seeded
    trials: fraction with the first 3 positive clusters quaternionically
    simple >= 0.9; the report is persisted and byte-reproducible."""
    t0 = time.time()
    kwargs = dict(
        delta=(1, 0, 0), trials=50, t=0.05, N=3, degree=2, amplitude=0.3,
        seed=SEED, m_clusters=3,
    )
    report = genericity_scan(**kwargs)
    assert report.n_failures == 0
    assert report.fraction_all_simple >= 0.9
    payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True).encode()
    path = tmp_path / "genericity.json"
    path.write_bytes(payload)
    again = genericity_scan(**kwargs)
    payload2 = json.dumps(again.to_json_dict(), indent=2, sort_keys=True).encode()
    assert payload2 == path.read_bytes()
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(8, f"all-simple fraction {report.fraction_all_simple:.2f} >= 0.9 over "
               f"50 seeded trials, byte-reproducible ({elapsed:.0f}s)")


def test_criterion_9_spinor_law_suite():
    """Clifford relation and J laws over 10^4 random samples, to 1e-13."""
    rng = np.random.default_rng(SEED)
    n = 10**4
    v = rng.standard_normal((n, 3))
    s = rng.standard_normal((n, 2, 2)) @ np.array([1.0, 1.0j])
    s2 = rng.standard_normal((n, 2, 2)) @ np.array([1.0, 1.0j])

    errs = {}
    cc = sa.clifford_mul(v, sa.clifford_mul(v, s))
    errs["clifford"] = np.max(np.abs(cc + np.sum(v * v, axis=-1)[:, None] * s))
    errs["J_squared"] = np.max(np.abs(sa.apply_J(sa.apply_J(s)) + s))
    errs["J_antilinear"] = np.max(np.abs(sa.apply_J(1j * s) + 1j * sa.apply_J(s)))
    errs["J_clifford"] = np.max(
        np.abs(sa.apply_J(sa.clifford_mul(v, s)) - sa.clifford_mul(v, sa.apply_J(s)))
    )
    errs["antiunitary"] = np.max(
        np.abs(
            sa.herm_inner(sa.apply_J(s), sa.apply_J(s2))
            - np.conj(sa.herm_inner(s, s2))
        )
    )
    errs["isometry"] = np.max(np.abs(sa.spinor_norm(sa.apply_J(s)) - sa.spinor_norm(s)))
    for name, err in errs.items():
        assert err <= 1e-13, f"{name} law violated: {err:.3e}"
    worst = max(errs.values())
    _report(9, f"spinor algebra laws hold to 1e-13 over 10^4 samples "
               f"(worst {worst:.1e})")

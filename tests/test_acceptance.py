"""Acceptance criteria, one test per criterion, at the stated tolerances.

Criteria 1-5, 7 and 9 run the invariant checks of ``spintorus.validate`` at
their full sizes; ``spintorus validate`` runs the same checks smaller.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one PASS line per
criterion.
"""

import json
import time

import numpy as np

from spintorus import experiments, validate
from spintorus.experiments import genericity_scan, split_search
from spintorus.perturbation import extract_cluster
from spintorus.torus_dirac import build_mode_set

SEED = 20240817


def _report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_1_oracle_spectrum_equality():
    """Galerkin flat spectrum == closed-form lattice spectrum, all 8 spin
    structures, N = 3, |lambda| <= 2.5, to 1e-12."""
    t0 = time.time()
    detail = validate.check_oracle_equality(N=3, tol=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, f"flat Galerkin spectrum matches the lattice oracle "
               f"({detail}, tol 1e-12, {elapsed:.1f}s)")


def test_criterion_2_kramers_degeneracy():
    """Every eigenvalue cluster of >= 100 randomized runs (flat and deformed)
    has even complex multiplicity; zero violations allowed."""
    _report(2, validate.check_kramers_pairing(SEED, runs=100))


def test_criterion_3_homothety_exactness():
    """Constant f = c: deformed eigenvalues equal e^{-tc} x flat to 1e-10 and
    the first-order rate is exactly -lambda c to 1e-12."""
    _report(3, validate.check_homothety(tol=1e-10, rate_tol=1e-12))


def test_criterion_4_first_order_finite_difference():
    """>= 10 random (delta != 0, f, cluster) cases: |lambda(t) - lambda -
    t*rate| <= C t^2 with fitted order >= 1.9 over t in {1e-2, 1e-3, 1e-4}."""
    t0 = time.time()
    detail = validate.check_first_order_rates(SEED, cases=10, min_order=1.9, mismatch_coeff=10.0)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, f"first-order rates exact to O(t^2): {detail} ({elapsed:.1f}s)")


def test_criterion_5_substitution_identity():
    """D(e^{(n-1)tf/2} phi) = e^{(n+1)tf/2} D_deformed phi on a fine grid,
    relative error <= 1e-10, for >= 20 random (f, t, phi)."""
    _report(5, validate.check_substitution_identity(SEED, cases=20, tol=1e-10))


def test_criterion_6_splitting_certificates():
    """split_search with max_degree = 2 splits both showcase clusters; the
    t = 0.05 verification shows strictly smaller quaternionic multiplicities
    with positions within 5 t^2 of lambda + t * rates."""
    t_verify = 0.05
    outcomes = []
    for delta, lam in [((0, 0, 0), 1.0), ((1, 0, 0), np.sqrt(5.0) / 2.0)]:
        cluster = extract_cluster(build_mode_set(3, delta), lam=lam)
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
    _report(7, validate.check_kernel_constancy(SEED, runs=20, kernel_tol=1e-8, min_gap=0.3))


def test_criterion_8_genericity_monte_carlo(tmp_path, monkeypatch):
    """delta = (1,0,0), N = 3, degree 2, amplitude 0.3, t = 0.05, 50 seeded
    trials: fraction with the first 3 positive clusters quaternionically
    simple >= 0.9; the report is persisted and byte-reproducible, also on
    one worker process instead of one per CPU."""
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
    monkeypatch.setattr(experiments, "trial_workers", lambda *args: 1)
    again = genericity_scan(**kwargs)
    payload2 = json.dumps(again.to_json_dict(), indent=2, sort_keys=True).encode()
    assert payload2 == path.read_bytes()
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(8, f"all-simple fraction {report.fraction_all_simple:.2f} >= 0.9 over "
               f"50 seeded trials, byte-reproducible ({elapsed:.0f}s)")


def test_criterion_9_spinor_law_suite():
    """Clifford relation and J laws over 10^4 random samples, to 1e-13."""
    _report(9, validate.check_spinor_laws(SEED, samples=10**4, tol=1e-13))

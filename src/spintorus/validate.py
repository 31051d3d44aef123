"""Cross-module invariant suite backing the ``validate`` CLI subcommand.

Each check is small but end to end: spinor algebra laws, Galerkin-vs-lattice
spectrum equality, the substitution identity, Kramers pairing under random
deformations, kernel constancy in the conformal class of the flat metric, and
finite-difference validation of the first-order rates.
"""

from __future__ import annotations

import numpy as np

from . import spinor_algebra as sa
from .conformal import ConformalFactor, deformed_spectrum, flat_spectrum, substitution_identity_error
from .experiments import KERNEL_TOL, random_factor
from .perturbation import extract_cluster, fd_check
from .torus_dirac import (
    all_spin_structures,
    build_mode_set,
    closed_form_spectrum,
    random_field,
)


def check_spinor_laws(rng, n=2000, tol=1e-13):
    v = rng.standard_normal((n, 3))
    s = rng.standard_normal((n, 2, 2)) @ np.array([1.0, 1.0j])
    cc = sa.clifford_mul(v, sa.clifford_mul(v, s))
    err = np.max(np.abs(cc + np.sum(v * v, axis=-1)[:, None] * s))
    err = max(err, np.max(np.abs(sa.apply_J(sa.apply_J(s)) + s)))
    err = max(err, np.max(np.abs(sa.apply_J(1j * s) + 1j * sa.apply_J(s))))
    err = max(
        err,
        np.max(np.abs(sa.apply_J(sa.clifford_mul(v, s)) - sa.clifford_mul(v, sa.apply_J(s)))),
    )
    if err > tol:
        raise AssertionError(f"spinor law violation {err:.3e}")
    return f"max law violation {err:.2e} over {n} samples"


def check_oracle_equality(N=2, tol=1e-12):
    worst = 0.0
    for spin in all_spin_structures():
        ms = build_mode_set(N, spin)
        res = flat_spectrum(ms, keep_vectors=False)
        radius = N - 0.5
        lines = [l for l in closed_form_spectrum(spin, radius + 2) if l.lam <= radius]
        got = [
            (c.lam, c.mult_c, c.mult_h) for c in res.clusters if abs(c.lam) <= radius
        ]
        for line in lines:
            for lam, sign in ((line.lam, 1), (-line.lam, -1)):
                if lam == 0.0 and sign < 0:
                    continue
                best = min(got, key=lambda g: abs(g[0] - lam))
                if abs(best[0] - lam) > tol:
                    raise AssertionError(f"missing eigenvalue {lam} for delta={spin}")
                if best[1:] != (line.mult_c, line.mult_h):
                    raise AssertionError(
                        f"multiplicity mismatch at {lam} for delta={spin}: "
                        f"{best[1:]} vs {(line.mult_c, line.mult_h)}"
                    )
                worst = max(worst, abs(best[0] - lam))
    return f"8 spin structures at N={N}, worst eigenvalue error {worst:.2e}"


def check_substitution_identity(rng, cases=3, tol=1e-10):
    worst = 0.0
    for _ in range(cases):
        spin = all_spin_structures()[rng.integers(0, 8)]
        ms = build_mode_set(2, spin)
        factor = random_factor(rng.integers(0, 2**31), 2, 0.4)
        t = float(rng.uniform(-0.1, 0.1))
        phi = random_field(ms, rng)
        err = substitution_identity_error(factor, t, phi)
        worst = max(worst, err)
    if worst > tol:
        raise AssertionError(f"substitution identity error {worst:.3e}")
    return f"max relative grid error {worst:.2e} over {cases} cases"


def check_kramers_pairing(rng, cases=3):
    for _ in range(cases):
        spin = all_spin_structures()[rng.integers(0, 8)]
        ms = build_mode_set(2, spin)
        factor = random_factor(rng.integers(0, 2**31), 2, 0.3)
        t = float(rng.uniform(0.01, 0.08))
        res = deformed_spectrum(factor, t, ms, keep_vectors=False)
        for c in res.clusters:
            if not c.kramers_ok:
                raise AssertionError(
                    f"odd complex multiplicity {c.mult_c} at {c.lam} (delta={spin}, t={t})"
                )
    return f"even multiplicities in {cases} random deformed runs"


def check_kernel_constancy(rng, cases=3):
    ms = build_mode_set(2, (0, 0, 0))
    for _ in range(cases):
        factor = random_factor(rng.integers(0, 2**31), 2, 0.4)
        res = deformed_spectrum(factor, 0.05, ms, keep_vectors=False)
        near_zero = int(np.sum(np.abs(res.eigenvalues) <= KERNEL_TOL))
        if near_zero != 2:
            raise AssertionError(f"kernel dimension {near_zero} != 2")
        others = np.abs(res.eigenvalues)[np.abs(res.eigenvalues) > KERNEL_TOL]
        if others.min() < 0.3:
            raise AssertionError(f"spectral gap collapsed to {others.min():.3e}")
    return f"kernel stayed 2-dimensional with gap >= 0.3 in {cases} runs"


def check_first_order_rates(rng):
    ms = build_mode_set(2, (1, 0, 0))
    res = flat_spectrum(ms)
    cluster = extract_cluster(res, ms, lam=0.5)
    factor = random_factor(int(rng.integers(0, 2**31)), 2, 0.4)
    fd = fd_check(cluster, factor, [1e-2, 1e-3])
    if fd.order < 1.9:
        raise AssertionError(f"observed convergence order {fd.order:.3f} < 1.9")
    return f"finite-difference order {fd.order:.2f} at lambda=0.5"


def check_homothety():
    ms = build_mode_set(2, (1, 1, 0))
    c, t = 0.2, 0.3
    flat = flat_spectrum(ms, keep_vectors=False)
    res = deformed_spectrum(ConformalFactor.constant(c), t, ms, keep_vectors=False)
    err = np.max(np.abs(res.eigenvalues - np.exp(-t * c) * flat.eigenvalues))
    if err > 1e-10:
        raise AssertionError(f"homothety scaling error {err:.3e}")
    return f"uniform scaling error {err:.2e}"


def run_all(seed=2024):
    rng = np.random.default_rng(seed)
    checks = [
        ("spinor_laws", lambda: check_spinor_laws(rng)),
        ("oracle_equality", check_oracle_equality),
        ("substitution_identity", lambda: check_substitution_identity(rng)),
        ("kramers_pairing", lambda: check_kramers_pairing(rng)),
        ("kernel_constancy", lambda: check_kernel_constancy(rng)),
        ("first_order_rates", lambda: check_first_order_rates(rng)),
        ("homothety", check_homothety),
    ]
    results = []
    for name, fn in checks:
        try:
            detail = fn()
            results.append({"name": name, "passed": True, "detail": detail or ""})
        except Exception as exc:  # noqa: BLE001 - the suite reports, never crashes
            results.append(
                {"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"}
            )
    return results

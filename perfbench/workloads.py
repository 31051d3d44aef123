"""Workloads of the benchmark: the CLI commands each runs and the oracle gates on them.

A workload turns the benchmark seed into a list of ``Op`` commands for
``spintorus.cli.main``.  Each op carries a gate that checks the command's
artifact against an independent reference after the timed region, and a
weight: the number of operations it accounts for in ``attempted`` (one per
command, plus one per trial of a genericity scan).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from spintorus.conformal import build_deformed_operator
from spintorus.experiments import random_factor
from spintorus.torus_dirac import SpinStructure, build_mode_set, closed_form_spectrum

#: Relative agreement required between reported eigenvalues and the dense
#: eigenvalues-only oracle.
ORACLE_REL_TOL = 1e-9
#: Residual bound the artifacts must meet, times max(1, max |lambda|).  Kept
#: here rather than read from the program so that loosening the program's
#: own bound shows up as a failed gate.
RESIDUAL_BOUND = 1e-9
#: Flat eigenvalues at t = 0 must equal the lattice count to this accuracy.
FLAT_ABS_TOL = 1e-12
#: Acceptance criterion 4: observed finite-difference order of the rates.
FD_ORDER_MIN = 1.9
#: Trials of a genericity scan re-solved by the dense oracle.
ORACLE_SAMPLE = 4

FACTOR_DEGREE = 2
FACTOR_AMPLITUDE = 0.3
T_DEFORM = 0.05
KERNEL_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One CLI command and the gate on its output.

    ``gate(stdout)`` returns ``(failed, problems)``: how many of the op's
    ``weight`` operations failed, and why.
    """

    argv: tuple[str, ...]
    weight: int
    gate: Callable[[str], tuple[int, list[str]]]


def _spin(delta):
    return SpinStructure(tuple(int(x) for x in delta.split(",")))


def trust_radius(N, t, factor):
    """Truncation radius (N - 1/2) e^{-|t| sup|f|} inside which eigenvalues are trusted."""
    return (N - 0.5) * float(np.exp(-abs(t) * factor.sup_abs()))


def dense_oracle(factor, t, N, delta):
    """Ascending eigenvalues of A chi = lambda B chi from a plain eigenvalues-only eigh."""
    op = build_deformed_operator(factor, t, build_mode_set(N, _spin(delta)))
    return scipy.linalg.eigh(op.A, op.B, eigvals_only=True)


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


def check_cluster_lambdas(lambdas, mult_c, oracle):
    """Problems with reported positive clusters against oracle eigenvalues.

    The first sum(mult_c) positive oracle eigenvalues are cut into
    consecutive groups of the reported sizes; each group mean must match
    the reported cluster value.
    """
    positive = np.sort(oracle[oracle > KERNEL_TOL])
    if sum(mult_c) > len(positive):
        return [f"oracle has {len(positive)} positive eigenvalues, need {sum(mult_c)}"]
    problems = []
    start = 0
    for lam, m in zip(lambdas, mult_c):
        ref = float(positive[start : start + m].mean())
        if _rel_err(lam, ref) > ORACLE_REL_TOL:
            problems.append(f"cluster {lam!r} x{m} vs oracle {ref!r}")
        start += m
    return problems


def check_eigenvalues(values, oracle, radius):
    """Problems with reported eigenvalues inside the trust radius against the oracle.

    Only the trusted part is compared, so an artifact that omits eigenvalues
    beyond the radius still passes.
    """
    values = np.sort(np.asarray(values, dtype=float))
    values = values[np.abs(values) < radius]
    oracle = oracle[np.abs(oracle) < radius]
    if values.shape != oracle.shape:
        return [f"{values.size} eigenvalues inside {radius:.6g}, oracle has {oracle.size}"]
    bad = np.flatnonzero(np.abs(values - oracle) > ORACLE_REL_TOL * np.maximum(1.0, np.abs(oracle)))
    return [f"eigenvalue {values[i]!r} vs oracle {oracle[i]!r}" for i in bad[:5]]


def flat_reference(delta, radius):
    """Flat spectrum with complex multiplicity, |lambda| < radius, from the lattice count."""
    out = []
    for line in closed_form_spectrum(_spin(delta), radius):
        if line.lam < radius:
            signs = (1.0,) if line.lam == 0 else (1.0, -1.0)
            out += [s * line.lam for s in signs for _ in range(line.mult_c)]
    return np.sort(out)


def check_flat_column(values, delta, N):
    """Problems with tracked t = 0 eigenvalues against the lattice count."""
    radius = N - 0.5
    values = np.sort(np.asarray(values, dtype=float))
    # A hair inside the radius, so shells at exactly N - 1/2 are left out on both sides.
    values = values[np.abs(values) < radius - 1e-9]
    ref = flat_reference(delta, radius - 1e-9)
    if values.shape != ref.shape:
        return [f"{values.size} flat eigenvalues below {radius}, lattice count has {ref.size}"]
    err = float(np.max(np.abs(values - ref), initial=0.0))
    return [f"flat column differs from the lattice count by {err:.3e}"] if err > FLAT_ABS_TOL else []


# ------------------------------------------------------------------- gates


def gate_genericity(stdout, out, seed, trials, N, delta):
    doc = json.loads(Path(out).read_text())
    bad = {}
    for row in doc["trial_rows"]:
        if row["error"] is not None:
            bad[row["index"]] = f"error {row['error']}"
        elif any(m % 2 for m in row["mult_c"]):
            bad[row["index"]] = f"odd complex multiplicity {row['mult_c']}"
    failed, problems = 0, []
    if len(doc["trial_rows"]) != trials or doc["n_failures"] != 0:
        failed, problems = 1, [f"{len(doc['trial_rows'])} rows, n_failures {doc['n_failures']}"]
    children = np.random.SeedSequence(seed).spawn(trials)
    rows = {row["index"]: row for row in doc["trial_rows"]}
    sample = np.random.default_rng(seed).choice(trials, size=min(ORACLE_SAMPLE, trials), replace=False)
    for i in sorted(int(i) for i in sample):
        if i in bad or i not in rows:
            continue
        factor = random_factor(children[i], FACTOR_DEGREE, FACTOR_AMPLITUDE)
        found = check_cluster_lambdas(
            rows[i]["lambdas"], rows[i]["mult_c"], dense_oracle(factor, T_DEFORM, N, delta)
        )
        if found:
            bad[i] = "; ".join(found)
    failed += len(bad)
    problems += [f"trial {i}: {why}" for i, why in sorted(bad.items())]
    return failed, problems


def gate_spectrum(stdout, out, seed, N, delta):
    doc = json.loads(Path(out).read_text())
    values = doc["eigenvalues"]
    problems = []
    scale = max(1.0, max((abs(v) for v in values), default=0.0))
    if not doc["residual_max"] <= RESIDUAL_BOUND * scale:
        problems.append(f"residual_max {doc['residual_max']:.3e} above {RESIDUAL_BOUND * scale:.3e}")
    odd = [c for c in doc["clusters"] if c["mult_c"] % 2]
    if odd:
        problems.append(f"{len(odd)} clusters with odd complex multiplicity")
    factor = random_factor(seed, FACTOR_DEGREE, FACTOR_AMPLITUDE)
    problems += check_eigenvalues(
        values, dense_oracle(factor, T_DEFORM, N, delta), trust_radius(N, T_DEFORM, factor)
    )
    return (1 if problems else 0), problems


def gate_split(stdout, out, lam):
    cert = json.loads(Path(out).read_text())
    problems = []
    if _rel_err(cert["lambda"], lam) > 1e-6:
        problems.append(f"certificate for lambda {cert['lambda']!r}, asked {lam!r}")
    if not cert["max_p_h_after"] < cert["p_h_before"]:
        problems.append(f"p_H {cert['p_h_before']} -> {cert['max_p_h_after']} does not drop")
    if not cert["max_position_error"] <= 5.0 * cert["t_verify"] ** 2:
        problems.append(f"position error {cert['max_position_error']:.3e} above 5 t^2")
    return (1 if problems else 0), problems


def gate_perturb(stdout, out):
    order = json.loads(Path(out).read_text())["fd"]["order"]
    if order >= FD_ORDER_MIN:
        return 0, []
    return 1, [f"finite-difference order {order:.3f} below {FD_ORDER_MIN}"]


def gate_curves(stdout, out, delta, N):
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    problems = check_flat_column([float(lam) for t, _, lam in rows if float(t) == 0.0], delta, N)
    if "ambiguous" in stdout:
        problems.append("curve family reports ambiguous matches")
    return (1 if problems else 0), problems


# --------------------------------------------------------------- workloads


def genericity(seed, workdir, trials=50, N=3):
    """50 medium solves whose eigenvectors are thrown away."""
    delta, out = "1,0,0", Path(workdir) / "genericity.json"
    argv = (
        "genericity", "--delta", delta, "--N", str(N), "--trials", str(trials),
        "--t", str(T_DEFORM), "--degree", str(FACTOR_DEGREE),
        "--amplitude", str(FACTOR_AMPLITUDE), "--seed", str(seed), "--out", str(out),
    )
    gate = partial(gate_genericity, out=out, seed=seed, trials=trials, N=N, delta=delta)
    return [Op(argv, 1 + trials, gate)]


def large_spectrum(seed, workdir, N=5):
    """One dense solve at dim 2420 (N = 5)."""
    delta, out = "1,0,0", Path(workdir) / "spectrum.json"
    argv = (
        "spectrum", "--delta", delta, "--N", str(N),
        "--f-random", f"{seed},{FACTOR_DEGREE},{FACTOR_AMPLITUDE}",
        "--t", str(T_DEFORM), "--out", str(out),
    )
    return [Op(argv, 1, partial(gate_spectrum, out=out, seed=seed, N=N, delta=delta))]


#: The two showcase clusters of acceptance criterion 6: (delta, flat lambda).
SHOWCASE = (("0,0,0", 1.0), ("1,0,0", 1.118034))


def cluster_study(seed, workdir, N=3):
    """Split searches, rates with their FD check, and an 11-point tracked spectrum."""
    workdir = Path(workdir)
    factor = f"{seed},{FACTOR_DEGREE},{FACTOR_AMPLITUDE}"
    ops = []
    for k, (delta, lam) in enumerate(SHOWCASE):
        out = workdir / f"split{k}.json"
        argv = (
            "split-search", "--delta", delta, "--N", str(N), "--cluster-lambda", str(lam),
            "--max-degree", "2", "--seed", str(seed), "--out", str(out),
        )
        ops.append(Op(argv, 1, partial(gate_split, out=out, lam=lam)))
    for k, (delta, lam) in enumerate(SHOWCASE):
        out = workdir / f"perturb{k}.json"
        argv = (
            "perturb", "--delta", delta, "--N", str(N), "--cluster-lambda", str(lam),
            "--f-random", factor, "--out", str(out),
        )
        ops.append(Op(argv, 1, partial(gate_perturb, out=out)))
    # CSV, not JSON: the CLI fails to write a tracked family as JSON (numpy
    # booleans in "flagged"), so the ambiguity verdict is read from the
    # command's summary line instead.
    delta, out = "1,0,0", workdir / "curves.csv"
    argv = (
        "spectrum", "--delta", delta, "--N", str(N),
        "--t-grid", ",".join(f"{k / 100:g}" for k in range(11)),
        "--f-random", factor, "--format", "csv", "--out", str(out),
    )
    ops.append(Op(argv, 1, partial(gate_curves, out=out, delta=delta, N=N)))
    return ops


WORKLOADS = {
    "genericity": genericity,
    "large_spectrum": large_spectrum,
    "cluster_study": cluster_study,
}

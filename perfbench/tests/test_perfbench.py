"""Self-tests of the benchmark: span arithmetic, gates, metric names, span counts.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from spintorus import cli, conformal  # noqa: E402
from spintorus.experiments import random_factor  # noqa: E402
from spintorus.torus_dirac import build_mode_set, SpinStructure  # noqa: E402

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.run import gate_reps, run_rep  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent=parent)


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: the union [1, 6] counts once
        _span("a.child", 2.0, 3.0, parent=1),
        _span("late", 9.5, 11.0, parent=0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 1.5])


def test_self_times_of_disjoint_children_sum_to_root():
    spans = [_span("root", 0.0, 5.0)] + [
        _span("c", 0.5 + k, 1.0 + k, parent=0) for k in range(4)
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(3.0)
    assert sum(selfs) == pytest.approx(5.0)


def test_spectrum_gate_rejects_a_perturbed_eigenvalue(tmp_path):
    (op,) = workloads.large_spectrum(5, tmp_path, N=2)
    assert cli.main(list(op.argv)) == 0
    assert op.gate("") == (0, [])
    out = tmp_path / "spectrum.json"
    doc = json.loads(out.read_text())
    i = int(np.argmin(np.abs(np.asarray(doc["eigenvalues"]) - 1.0)))
    doc["eigenvalues"][i] *= 1 + 1e-7
    out.write_text(json.dumps(doc))
    failed, problems = op.gate("")
    assert failed == 1 and problems


def test_cluster_gate_rejects_a_perturbed_lambda():
    factor = random_factor(np.random.SeedSequence(4).spawn(1)[0], 2, 0.3)
    oracle = workloads.dense_oracle(factor, 0.05, 2, "1,0,0")
    res = conformal.deformed_spectrum(factor, 0.05, build_mode_set(2, SpinStructure((1, 0, 0))))
    top = [c for c in res.clusters if c.lam > workloads.KERNEL_TOL][:3]
    lambdas, mult_c = [c.lam for c in top], [c.mult_c for c in top]
    assert workloads.check_cluster_lambdas(lambdas, mult_c, oracle) == []
    lambdas[1] += 1e-7
    assert len(workloads.check_cluster_lambdas(lambdas, mult_c, oracle)) == 1


def test_flat_gate_rejects_a_perturbed_eigenvalue():
    ref = workloads.flat_reference("1,0,0", 2.5)
    assert workloads.check_flat_column(ref, "1,0,0", 3) == []
    bad = ref.copy()
    bad[len(bad) // 2] += 1e-10
    assert workloads.check_flat_column(bad, "1,0,0", 3)


def test_metric_names_are_well_formed_and_declared():
    layer = tracing.layer_metric_units()
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == layer
    names = list(layer) + [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "build, counts",
    [
        (
            partial(workloads.genericity, trials=3, N=2),
            {"cli.main": 1, "experiments.genericity_scan": 1, "experiments.random_factor": 3,
             "conformal.deformed_spectrum": 3, "eigensolver.eigh": 3, "conformal.exp_coeffs": 3},
        ),
        (
            partial(workloads.large_spectrum, N=2),
            {"cli.main": 1, "experiments.random_factor": 1, "conformal.deformed_spectrum": 1,
             "eigensolver.eigh": 1, "torus_dirac.build_mode_set": 1},
        ),
    ],
)
def test_span_counts_of_a_small_traced_run(tmp_path, build, counts):
    original = conformal.deformed_spectrum
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.deformed_spectrum is not original
        wall, results = run_rep(cli, build, 9, tmp_path / "traced", tracer)
    assert cli.deformed_spectrum is original
    seen = {name: sum(1 for s in tracer.spans if s.name == name) for name in counts}
    assert seen == counts
    attempted, failed, problems = gate_reps([(wall, results)])
    assert (attempted, failed, problems) == (sum(op.weight for op, *_ in results), 0, [])
    values = tracing.layer_metrics(tracer.spans, wall, wall, 0.0)
    assert set(values) == set(tracing.layer_metric_units())
    assert values["eigensolver.vectors_discarded_ratio"] == 1.0
    assert 0.0 <= values["trace.unaccounted_s"] < 0.05 * wall


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "genericity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import spintorus
from spintorus import cli, conformal, memory, perturbation, torus_dirac, validate
from spintorus.conformal import build_deformed_operator, trust_radius
from spintorus.eigensolver import RESIDUAL_BOUND, cluster_eigenvalues
from spintorus.experiments import random_factor
from spintorus.torus_dirac import build_mode_set, closed_form_spectrum

from helpers import record_calls, record_solves


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def key_tree(value):
    """Nested key names and JSON value types of a parsed artifact; a list
    stands for the distinct trees of its items."""
    if isinstance(value, dict):
        return {k: key_tree(v) for k, v in value.items()}
    if isinstance(value, list):
        trees = []
        for tree in map(key_tree, value):
            if tree not in trees:
                trees.append(tree)
        return trees
    return type(value).__name__


class TestOracle:
    def test_table_matches_closed_form(self, capsys, tmp_path):
        out = tmp_path / "oracle.json"
        code, _, _ = run(
            capsys, "oracle", "--delta", "1,0,0", "--lambda-max", "1.6", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        expected = closed_form_spectrum((1, 0, 0), 1.6)
        assert len(doc["lines"]) == len(expected)
        assert doc["lines"][0] == {"lambda": 0.5, "mult_c": 2, "mult_h": 1}

    def test_csv_export(self, capsys, tmp_path):
        out = tmp_path / "oracle.csv"
        code, _, _ = run(
            capsys, "oracle", "--delta", "0,0,0", "--lambda-max", "1.2",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,mult_complex,mult_quaternionic"
        assert lines[1] == "0.0,2,1"

    def test_json_bytes(self, capsys, tmp_path):
        # an exact lattice count, so the bytes do not depend on the platform
        out = tmp_path / "oracle.json"
        code, _, _ = run(
            capsys, "oracle", "--delta", "1,0,0", "--lambda-max", "2.5", "--out", str(out)
        )
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "oracle_delta100_lambda2.5.json").read_bytes()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_lambda_max(self, capsys, value):
        code, out, err = run(capsys, "oracle", "--delta", "1,0,0", "--lambda-max", value)
        assert code == 3
        assert err == f"error: lam_max must be finite, got {value}\n"
        assert out == ""

    def test_lambda_max_from_a_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_max": 3.0}))
        runs = []
        for source in (["--lambda-max", "3.0"], ["--config", str(cfg)]):
            out = tmp_path / f"oracle{len(runs)}.json"
            code, text, _ = run(capsys, "oracle", "--delta", "1,0,0", *source, "--out", str(out))
            assert code == 0
            runs.append((text, out.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])["lambda_max"] == 3.0

    @pytest.mark.parametrize(
        "text, err",
        [
            ('{"lambda_max": "3"}', "error: config key 'lambda_max' must be float, got '3'\n"),
            ('{"lambda_max": Infinity}', "error: lam_max must be finite, got inf\n"),
            ('{"lambda_max": NaN}', "error: lam_max must be finite, got nan\n"),
        ],
    )
    def test_bad_lambda_max_in_a_config_file(self, capsys, tmp_path, text, err):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, got = run(capsys, "oracle", "--delta", "1,0,0", "--config", str(cfg))
        assert_bad_input(code, out, got)
        assert got == err


class TestSpectrum:
    def test_flat_matches_oracle(self, capsys, tmp_path):
        out = tmp_path / "spec.json"
        code, _, _ = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "3", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        got = {
            round(c["lambda"], 9): (c["mult_c"], c["mult_h"])
            for c in doc["clusters"]
            if 0 < c["lambda"] <= 2.5
        }
        for line in closed_form_spectrum((1, 0, 0), 2.5):
            assert got[round(line.lam, 9)] == (line.mult_c, line.mult_h)

    @pytest.mark.parametrize("t", [0.0, 0.05])
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("delta", ["0,0,0", "1,0,0", "1,1,1"])
    def test_window_matches_full_solve(self, capsys, tmp_path, delta, N, t):
        out = tmp_path / "spec.json"
        code, _, _ = run(
            capsys, "spectrum", "--delta", delta, "--N", str(N), "--f-random", "41,2,0.3",
            "--t", str(t), "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        factor = random_factor(41, 2, 0.3)
        radius = trust_radius(factor, t, N)
        assert doc["meta"]["trust_radius"] == radius

        ms = build_mode_set(N, tuple(int(d) for d in delta.split(",")))
        op = build_deformed_operator(factor, t, ms)
        full = scipy.linalg.eigh(op.A, op.B, eigvals_only=True)
        tau = doc["meta"]["tau_rel"]
        # a flat shell at exactly R = N - 1/2 counts as inside
        inside = [c for c in cluster_eigenvalues(full, tau) if abs(c.lam) <= radius + 1e-9]
        assert [c["mult_c"] for c in doc["clusters"]] == [c.mult_c for c in inside]
        lambdas = [c["lambda"] for c in doc["clusters"]]
        assert np.allclose(lambdas, [c.lam for c in inside], rtol=0, atol=1e-12)
        expected = full[inside[0].start : inside[-1].stop]
        assert np.allclose(doc["eigenvalues"], expected, rtol=0, atol=1e-12)
        assert all(c["mult_c"] % 2 == 0 for c in doc["clusters"])
        scale = max(1.0, np.max(np.abs(doc["eigenvalues"])))
        assert doc["residual_max"] <= RESIDUAL_BOUND * scale

    def test_csv_and_table_list_trusted_clusters(self, capsys, tmp_path):
        out = tmp_path / "spec.csv"
        code, table, _ = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "2", "--out", str(out),
            "--format", "csv",
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        lambdas = [float(r.split(",")[0]) for r in rows]
        assert max(abs(v) for v in lambdas) == pytest.approx(1.5, abs=1e-12)
        assert len(table.splitlines()) == 2 + len(rows)

    def test_t_grid_tolerances(self, capsys, monkeypatch):
        seen = []
        solve = conformal.deformed_spectrum

        def recording(factor, t, ms, tolerances, **kwargs):
            res = solve(factor, t, ms, tolerances, **kwargs)
            seen.append((t, res.meta["tau_rel"]))
            return res

        # the t-grid snapshots are solved by conformal.tracked_spectrum
        monkeypatch.setattr(conformal, "deformed_spectrum", recording)
        taus = ("--tau-degenerate", "1e-5", "--tau-split", "1e-8")
        code, _, _ = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "1", "--f-cos", "1,0,0,0.5",
            "--t-grid", "0,0.02", *taus,
        )
        assert code == 0
        assert seen == [(0.0, 1e-5), (0.02, 1e-8)]
        seen.clear()
        code, _, _ = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "1", "--t-grid", "0.1,0.2", *taus
        )
        assert code == 0
        assert seen == [(0.1, 1e-5), (0.2, 1e-5)]

    @pytest.mark.parametrize("args, tau, clusters", [
        # 1e-2 merges the four split sub-clusters near sqrt(5)/2 into one
        (["--f-random", "7,2,0.3", "--t", "0.05", "--tau-split", "1e-2"], 0.01, [8, 2, 2, 8]),
        (["--t", "0", "--tau-degenerate", "1e-5"], 1e-5, [10, 8, 2, 2, 8, 10]),
    ], ids=["split", "degenerate"])
    def test_single_t_tolerances(self, capsys, tmp_path, args, tau, clusters):
        out = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectrum", "--delta", "1,0,0", "--N", "2", *args,
                         "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["tau_rel"] == tau
        assert [c["mult_c"] for c in doc["clusters"]] == clusters

    def test_homothety_scaling(self, capsys, tmp_path):
        flat_out = tmp_path / "flat.json"
        run(capsys, "spectrum", "--delta", "0,0,0", "--N", "2", "--out", str(flat_out))
        scaled_out = tmp_path / "scaled.json"
        code, _, _ = run(
            capsys, "spectrum", "--delta", "0,0,0", "--N", "2",
            "--f-const", "0.1", "--t", "0.5", "--out", str(scaled_out),
        )
        assert code == 0
        flat = json.loads(flat_out.read_text())["eigenvalues"]
        scaled = json.loads(scaled_out.read_text())["eigenvalues"]
        assert np.max(
            np.abs(np.array(scaled) - np.exp(-0.05) * np.array(flat))
        ) < 1e-10

    def test_malformed_factor_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "degree": 1,
                    "coeffs": [
                        {"m": [1, 0, 0], "re": 1.0, "im": 0.5},
                        {"m": [-1, 0, 0], "re": 1.0, "im": 0.5},
                    ],
                }
            )
        )
        code, _, err = run(
            capsys, "spectrum", "--delta", "0,0,0", "--N", "1", "--f-file", str(bad),
            "--t", "0.1",
        )
        assert code == 3
        assert "reality" in err

    def test_missing_factor_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "spectrum", "--N", "1", "--f-file", str(tmp_path / "nope.json")
        )
        assert code == 3

    def test_pd_failure_exit_code(self, capsys, recwarn):
        code, _, err = run(
            capsys, "spectrum", "--delta", "0,0,0", "--N", "1",
            "--f-cos", "1,0,0", "--t", "25.0",
        )
        assert code == 2
        assert not recwarn.list  # a refused weight gets no range warning

    def test_accepted_weight_past_the_range_warns(self, capsys):
        with pytest.warns(UserWarning, match="accepted range"):
            code, _, _ = run(capsys, "spectrum", "--N", "1", "--t", "0.05", "--f-cos", "1,0,0,300")
        assert code == 0

    def test_weight_factorization_failure_exit_code(self, capsys, monkeypatch):
        # The solve's factorization of B_s is the weight's
        # positive-definiteness check: its failure exits 2 with one line.
        def failing_cholesky(*args, **kwargs):
            raise scipy.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(scipy.linalg, "cholesky", failing_cholesky)
        code, out, err = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "1", "--f-cos", "1,0,0,0.5",
            "--t", "0.05",
        )
        assert code == 2 and out == ""
        assert err == "error: Galerkin weight for t=0.05 is not positive definite\n"

    def test_bad_N(self, capsys):
        code, _, err = run(capsys, "spectrum", "--N", "9")
        assert code == 3

    def test_t_grid_curves_csv(self, capsys, tmp_path):
        out = tmp_path / "curves.csv"
        code, msg, _ = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "1",
            "--f-cos", "1,0,0,0.5", "--t-grid", "0,0.02,0.04",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,trajectory_id,lambda"
        # the index window holds the shells at +-1/2, 2 modes each: 4 trajectories at 3 t values
        assert len(lines) == 1 + 4 * 3

    def test_t_grid_curves_json(self, capsys, tmp_path):
        out = tmp_path / "curves.json"
        code, _, _ = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "1",
            "--f-cos", "1,0,0,0.5", "--t-grid", "0,0.02,0.04",
            "--out", str(out), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["t_values"] == [0.0, 0.02, 0.04]
        assert len(doc["trajectories"]) == 4
        assert len(doc["flagged"]) == 4
        assert all(isinstance(f, bool) for f in doc["flagged"])
        assert doc["ambiguous"] is False
        # i0 = n_modes = 18 negative eigenvalues, the window [i0 - 2, i0 + 2)
        assert doc["index_window"] == [16, 20]
        factor = cli.ConformalFactor.cosine((1, 0, 0), 0.5)
        assert doc["trust_radius"] == [trust_radius(factor, t, 1) for t in (0.0, 0.02, 0.04)]
        # the +-1/2 shell moves at second order in t, R(t) shrinks at first order
        assert doc["leaves_trust_radius"] == [True] * 4

    def test_t_grid_widens_a_cut_window(self, capsys, tmp_path):
        # the default window holds the flat shells with |lambda| <= 1.5; a split
        # tolerance of 0.2 puts the next shell (1.803) and every one past it
        # within a clustering tolerance, so each edge widens shell by shell
        argv = (
            "spectrum", "--delta", "1,0,0", "--N", "2", "--f-random", "41,2,0.3",
            "--t-grid", "0,0.05", "--format", "json",
        )
        narrow, wide = tmp_path / "narrow.json", tmp_path / "wide.json"
        assert run(capsys, *argv, "--out", str(narrow))[0] == 0
        assert run(capsys, *argv, "--tau-split", "0.2", "--out", str(wide))[0] == 0
        assert json.loads(narrow.read_text())["index_window"] == [80, 120]
        doc = json.loads(wide.read_text())
        assert doc["index_window"] == [0, 200]
        factor, ms = random_factor(41, 2, 0.3), build_mode_set(2, (1, 0, 0))
        traj = np.array(doc["trajectories"])
        for k, t in enumerate(doc["t_values"]):
            op = build_deformed_operator(factor, t, ms)
            ref = scipy.linalg.eigh(op.A, op.B, eigvals_only=True)
            got = np.sort(traj[:, k])
            assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12

    def test_t_grid_cut_windows_grow_geometrically(self, capsys, monkeypatch, tmp_path):
        # at --tau-split 0.2 every shell past 2.5 joins the edge clusters; a
        # cut side takes 1, 2, 4, ... more shells and restarts the grid, so
        # the 11-point grid needs far fewer than the 39 solves of growing
        # shell by shell
        calls = record_solves(monkeypatch)
        out = tmp_path / "curves.json"
        code, _, _ = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "3",
            "--t-grid", ",".join(f"{k / 100:g}" for k in range(11)),
            "--f-random", "11,2,0.3", "--tau-split", "0.2", "--format", "json", "--out", str(out),
        )
        assert code == 0
        assert len(calls) < 25
        assert json.loads(out.read_text())["index_window"] == [0, 588]

    def test_one_point_t_grid_is_rejected_before_any_solve(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a one-point t grid")

        monkeypatch.setattr(conformal, "deformed_spectrum", no_solve)
        for argv in (
            ("spectrum", "--delta", "1,0,0", "--N", "2", "--t-grid", "0.05", "--f-cos", "1,0,0"),
            ("perturb", "--delta", "1,0,0", "--N", "2", "--cluster-index", "0",
             "--f-cos", "1,0,0", "--t-grid", "1e-2"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == ""
            assert err == "error: a t grid needs at least two values, got 1\n"

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("2 eigenvectors failed to converge.")

        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        code, _, err = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "1",
            "--f-cos", "1,0,0,0.5", "--t", "0.05",
        )
        assert code == 1
        assert err.startswith("error: ") and "failed to converge" in err
        assert len(err.strip().splitlines()) == 1


class TestNegativeValues:
    """A flag's value may start with "-" in either spelling, --flag value or --flag=value."""

    @pytest.mark.parametrize(
        "flag,value,rest",
        [
            ("--t", "-1e-2", ("--f-cos", "1,0,0")),
            ("--f-const", "-5e-1", ("--t", "0.05")),
            ("--t-grid", "-0.01,0,0.01", ("--f-cos", "1,0,0", "--format", "csv")),
            ("--f-cos", "-1,1,0", ("--t", "0.01")),
        ],
    )
    def test_both_spellings_agree(self, capsys, tmp_path, flag, value, rest):
        out = tmp_path / "out"
        head = ("spectrum", "--delta", "1,0,0", "--N", "2", *rest, "--out", str(out))
        results = []
        for spelling in ((flag, value), (f"{flag}={value}",)):
            code, text, _ = run(capsys, *head, *spelling)
            results.append((code, text, out.read_bytes()))
            out.unlink()
        assert results[0] == results[1]
        assert results[0][0] == 0

    @pytest.mark.parametrize("spelling", [("--t", "-inf"), ("--t=-inf",), ("--t", "-NaN")])
    def test_non_finite_value_is_named(self, capsys, spelling):
        assert run(capsys, "spectrum", "--N", "1", *spelling) == (3, "", "error: t must be finite\n")

    def test_missing_value_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "spectrum", "--N", "1", "--t", "--out", str(tmp_path / "x"))
        assert (code, out) == (3, "")
        assert err == "error: argument --t: expected one argument\n"
        assert not (tmp_path / "x").exists()


class TestPerturb:
    def test_report_and_fd(self, capsys, tmp_path):
        out = tmp_path / "perturb.json"
        code, msg, _ = run(
            capsys, "perturb", "--delta", "1,0,0", "--N", "2",
            "--cluster-lambda", "0.5", "--f-const", "0.3", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert np.allclose(doc["rates"], -0.5 * 0.3)
        assert doc["fd"]["order"] >= 1.9

    def test_builds_the_cluster_matrix_once(self, capsys, monkeypatch):
        # the report and the FD check's predicted rates share one cluster matrix
        calls = record_calls(monkeypatch, "perturbation_matrix", perturbation, cli)
        code, _, _ = run(
            capsys, "perturb", "--delta", "1,0,0", "--N", "2",
            "--cluster-lambda", "1.118033988749895", "--f-random", "11,2,0.3",
        )
        assert code == 0 and len(calls) == 1

    def test_cluster_index_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "perturb", "--delta", "1,0,0", "--N", "1",
            "--cluster-index", "99", "--f-const", "0.3",
        )
        assert code == 3
        assert "out of range" in err

    def test_requires_cluster_selector(self, capsys):
        code, _, err = run(capsys, "perturb", "--delta", "1,0,0", "--N", "1")
        assert code == 3

    def test_cluster_lambda_off_the_flat_spectrum(self, capsys):
        # the nearest cluster, the box-corner shell at 3.2016, is far from 7.0
        code, msg, err = run(
            capsys, "perturb", "--delta", "1,0,0", "--N", "2",
            "--cluster-lambda", "7.0", "--f-cos", "1,0,0",
        )
        assert code == 3 and msg == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "not a flat eigenvalue" in err

    def test_nan_cluster_lambda(self, capsys):
        code, out, err = run(
            capsys, "perturb", "--delta", "1,0,0", "--N", "2", "--cluster-lambda", "nan",
            "--f-cos", "1,0,0",
        )
        assert_bad_input(code, out, err)
        assert "nan is not a flat eigenvalue" in err


def assert_bad_input(code, out, err):
    """Exit 3 with one ``error:`` line, no traceback and nothing on stdout."""
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestCutShells:
    # N=2, delta=(1,0,0): the shell at 3.2016 (q = 41) has 32 modes, of which
    # the truncation holds 8; cluster 0 is the box-corner shell.
    @pytest.mark.parametrize("command", ["perturb", "split-search"])
    @pytest.mark.parametrize(
        "selector",
        [("--cluster-lambda", "3.2015621187164247"), ("--cluster-index", "0")],
        ids=["lambda", "index"],
    )
    def test_rejected(self, capsys, command, selector):
        extra = ["--f-cos", "1,0,0"] if command == "perturb" else ["--max-degree", "1"]
        code, out, err = run(capsys, command, "--delta", "1,0,0", "--N", "2", *selector, *extra)
        assert_bad_input(code, out, err)
        assert "past the truncation radius N - 1/2 = 1.5" in err

    def test_shell_at_the_radius_is_complete(self, capsys):
        # q = 9 = (2N - 1)^2: the 10 modes (+-3,0,0)/2, (+-1,+-2,+-2)/2 are all held
        code, out, _ = run(
            capsys, "perturb", "--delta", "1,0,0", "--N", "2", "--cluster-lambda", "1.5",
            "--f-cos", "1,0,0",
        )
        assert code == 0
        assert "cluster lambda=1.5 p_C=10 p_H=5" in out


class TestSplitSearchCommand:
    def test_simple_cluster_rejected(self, capsys):
        code, _, err = run(
            capsys, "split-search", "--delta", "1,0,0", "--N", "2",
            "--cluster-lambda", "0.5",
        )
        assert code == 3
        assert "simple" in err

    def test_certificate_artifact(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, msg, _ = run(
            capsys, "split-search", "--delta", "0,0,0", "--N", "3",
            "--cluster-lambda", "1.0", "--max-degree", "2", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_p_h_after"] < doc["p_h_before"]
        assert doc["t_verify"] == cli.DEFAULT_T_VERIFY == 0.05

    def test_cluster_lambda_off_the_flat_spectrum(self, capsys):
        code, msg, err = run(
            capsys, "split-search", "--delta", "0,0,0", "--N", "2",
            "--cluster-lambda", "0.8", "--max-degree", "1",
        )
        assert code == 3 and msg == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "not a flat eigenvalue" in err

    def test_explicit_zero_t_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 0}))
        out = tmp_path / "cert.json"
        args = ["split-search", "--delta", "0,0,0", "--N", "2", "--cluster-lambda", "1.0",
                "--max-degree", "1", "--out", str(out)]
        for source in (["--t", "0"], ["--config", str(cfg)]):
            code, msg, err = run(capsys, *args, *source)
            assert code == 3
            assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
            assert "t must be nonzero" in err
            assert msg == "" and not out.exists()


class TestGenericityCommand:
    def test_zero_trials(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        code, _, _ = run(
            capsys, "genericity", "--delta", "1,0,0", "--N", "2", "--trials", "0",
            "--t", "0.05", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 0
        assert doc["trial_rows"] == []

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "genericity", "--delta", "1,0,0", "--N", "2", "--trials", "3",
            "--t", "0.05", "--degree", "2", "--amplitude", "0.3", "--seed", "11",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "t, flag", [("0.05", "--tau-split"), ("0", "--tau-degenerate")]
    )
    def test_tolerance_flags(self, capsys, t, flag):
        args = ["genericity", "--delta", "1,0,0", "--N", "2", "--trials", "2", "--t", t]
        code, default, _ = run(capsys, *args)
        assert code == 0 and "pattern [1," in default
        # 0.5 merges every shell past 1.118 into one cluster up to the top of
        # the spectrum, a truncation artifact past the trust radius
        code, merged, err = run(capsys, *args, flag, "0.5")
        assert code == 3 and merged == ""
        assert err.startswith("error: m_clusters=3 reaches past the trustworthy truncation radius")

    def test_only_the_written_encoding_is_built(self, capsys, tmp_path, monkeypatch):
        # A JSON run never builds the CSV rows, a CSV run never builds the
        # JSON object, and a run without --out builds neither.
        from spintorus.experiments import GenericityReport

        calls = []
        for name in ("csv_rows", "to_json_dict"):
            def counting(report, encode=getattr(GenericityReport, name), name=name):
                calls.append(name)
                return encode(report)

            monkeypatch.setattr(GenericityReport, name, counting)
        args = ["genericity", "--delta", "1,0,0", "--N", "2", "--trials", "2", "--t", "0.05"]
        for extra, built in ((["--out", str(tmp_path / "a.json")], ["to_json_dict"]),
                             (["--format", "csv", "--out", str(tmp_path / "a.csv")], ["csv_rows"]),
                             ([], [])):
            calls.clear()
            assert run(capsys, *args, *extra)[0] == 0
            assert calls == built

    def test_clusters_past_the_trust_radius_are_rejected(self, capsys):
        # N = 2 trusts only |lambda| <= 1.5 e^{-0.05 sup|f|}: three positive
        # flat shells, so no 40 positive clusters
        code, out, err = run(
            capsys, "genericity", "--delta", "1,0,0", "--N", "2", "--trials", "2",
            "--t", "0.05", "--m-clusters", "40",
        )
        assert code == 3 and out == ""
        assert err == "error: m_clusters=40 reaches past the trustworthy truncation radius 1.478\n"


class TestSimplicityCommand:
    def test_kernel_failure_for_trivial(self, capsys, tmp_path):
        out = tmp_path / "simp.json"
        code, msg, _ = run(
            capsys, "simplicity", "--delta", "0,0,0", "--N", "2", "--k", "1",
            "--f-random", "3,2,0.3", "--t", "0.05", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert not doc["passed"]
        assert doc["reason"] == "kernel"

    def test_tau_split_flag(self, capsys):
        args = [
            "simplicity", "--delta", "1,0,0", "--N", "2", "--k", "2",
            "--f-random", "7,2,0.3", "--t", "0.05",
        ]
        assert run(capsys, *args)[1] == "simplicity certificate k=2: passes\n"
        # 1e-2 merges the split sub-clusters of the shell at sqrt(5)/2 again
        code, out, _ = run(capsys, *args, "--tau-split", "1e-2")
        assert code == 0
        assert out == "simplicity certificate k=2: fails (pair)\n"


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(spintorus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, spintorus.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


#: (subcommand, flags, equivalent config-file entry): together they cover
#: every RunConfig field, each with a value other than its default.
FLAG_CASES = [
    ("spectrum", ["--delta", "1,0,1"], {"delta": [1, 0, 1]}),
    ("spectrum", ["--N", "4"], {"N": 4}),
    ("spectrum", ["--t", "0.02"], {"t": 0.02}),
    ("spectrum", ["--t-grid", "0,0.01,0.02"], {"t_grid": [0, 0.01, 0.02]}),
    ("spectrum", ["--tau-degenerate", "1e-5"], {"tau_degenerate": 1e-5}),
    ("spectrum", ["--tau-split", "1e-8"], {"tau_split": 1e-8}),
    ("spectrum", ["--out", "x.csv"], {"out": "x.csv"}),
    ("spectrum", ["--format", "csv"], {"format": "csv"}),
    ("spectrum", ["--f-const", "0.5"], {"factor_kind": "const", "factor_arg": 0.5}),
    ("spectrum", ["--f-cos", "1,0,0,0.5"], {"factor_kind": "cos", "factor_arg": "1,0,0,0.5"}),
    ("spectrum", ["--f-file", "f.json"], {"factor_kind": "file", "factor_arg": "f.json"}),
    ("spectrum", ["--f-json", "{}"], {"factor_kind": "json", "factor_arg": "{}"}),
    ("spectrum", ["--f-random", "1,2,0.3"], {"factor_kind": "random", "factor_arg": "1,2,0.3"}),
    ("genericity", ["--seed", "7"], {"seed": 7}),
    ("genericity", ["--trials", "5"], {"trials": 5}),
    ("genericity", ["--degree", "3"], {"degree": 3}),
    ("genericity", ["--amplitude", "0.4"], {"amplitude": 0.4}),
    ("genericity", ["--m-clusters", "2"], {"m_clusters": 2}),
    ("simplicity", ["--k", "4"], {"k": 4}),
    ("perturb", ["--cluster-index", "2"], {"cluster_index": 2}),
    ("perturb", ["--cluster-lambda", "1.5"], {"cluster_lambda": 1.5}),
    ("split-search", ["--max-degree", "3"], {"max_degree": 3}),
    ("oracle", ["--lambda-max", "3.0"], {"lambda_max": 3.0}),
]


class TestConfigFile:
    def test_config_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": [1, 0, 0], "N": 1, "t": 0.0}))
        out = tmp_path / "spec.json"
        code, _, _ = run(
            capsys, "spectrum", "--config", str(cfg), "--N", "2", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["N"] == 2  # flag wins
        assert doc["meta"]["delta"] == [1, 0, 0]  # from file

    @pytest.mark.parametrize(
        "entry",
        [{"N": "3"}, {"t": "x"}, {"trials": 2.5}, {"Nn": 5}, {"workers": 2}, {"N": True},
         {"delta": [1, 0, "0"]}, {"t_grid": [0.0, "a"]}],
    )
    def test_bad_config_values(self, capsys, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 3
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert out == ""

    def test_config_values_cast(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": [1, 0, 0], "N": 1, "t": 0, "cluster_index": None}))
        out = tmp_path / "spec.json"
        assert run(capsys, "spectrum", "--config", str(cfg), "--out", str(out))[0] == 0
        assert json.loads(out.read_text())["meta"]["t"] == 0.0

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("key", ["tau_split", "tau_degenerate"])
    @pytest.mark.parametrize("when", [("--t", "0.05"), ("--t-grid", "0,0.01")])
    def test_non_finite_tolerances(self, capsys, tmp_path, key, value, when):
        args = ["spectrum", "--delta", "1,0,0", "--N", "2", "--f-cos", "1,0,0,0.3", *when]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)}))
        for source in (["--" + key.replace("_", "-"), value], ["--config", str(cfg)]):
            code, out, err = run(capsys, *args, *source)
            assert code == 3
            assert err == "error: cluster tolerances must be positive and finite\n"
            assert out == ""

    def test_flags_and_config_file_agree(self, tmp_path):
        parser = cli.build_parser()
        covered = set()
        for command, argv, entry in FLAG_CASES:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(entry))
            by_flag = cli.load_config(parser.parse_args([command, *argv]))
            by_file = cli.load_config(parser.parse_args([command, "--config", str(cfg)]))
            assert by_flag == by_file != cli.RunConfig(), argv
            covered |= set(entry)
        assert covered == {f.name for f in dataclasses.fields(cli.RunConfig)}

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 3


class TestPathErrors:
    """A path that cannot be read or written is invalid input: one error
    line and exit 3, checked before any solve where the path is known."""

    def check(self, capsys, *argv):
        code, msg, err = run(capsys, *argv)
        assert code == 3 and msg == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    def test_missing_out_directory(self, capsys, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.setattr(cli, "trusted_spectrum", no_solve)
        out = str(tmp_path / "missing" / "x.json")
        assert "does not exist" in self.check(capsys, "spectrum", "--N", "1", "--out", out)
        assert "does not exist" in self.check(capsys, "oracle", "--delta", "1,0,0", "--out", out)

    def test_out_is_a_directory(self, capsys, tmp_path):
        err = self.check(capsys, "oracle", "--delta", "1,0,0", "--out", str(tmp_path))
        assert "is a directory" in err

    def test_unwritable_out(self, capsys, tmp_path):
        # the directory exists, but the link leads into one that does not
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "missing" / "x.json")
        err = self.check(capsys, "oracle", "--delta", "1,0,0", "--out", str(link))
        assert err.startswith(f"error: cannot write {link}")

    def test_factor_file_is_a_directory(self, capsys, tmp_path):
        err = self.check(capsys, "spectrum", "--N", "1", "--f-file", str(tmp_path))
        assert "cannot read factor file" in err

    def test_config_file_is_a_directory(self, capsys, tmp_path):
        err = self.check(capsys, "spectrum", "--N", "1", "--config", str(tmp_path))
        assert "cannot read config file" in err


class TestNonObjectFactors:
    @pytest.mark.parametrize(
        "doc, kind", [("[1, 2]", "list"), ("null", "NoneType"), ('"cos"', "str"), ("3", "int")]
    )
    def test_inline_and_file(self, capsys, tmp_path, doc, kind):
        path = tmp_path / "f.json"
        path.write_text(doc)
        for source in (["--f-json", doc], ["--f-file", str(path)]):
            code, out, err = run(capsys, "spectrum", "--N", "1", "--t", "0.05", *source)
            assert_bad_input(code, out, err)
            assert err == f"error: a factor must be a JSON object, got {kind}\n"


@pytest.mark.parametrize("flag, noun", [("--f-json", "inline factor"), ("--f-file", "factor file")])
def test_infinite_factor_degree(capsys, tmp_path, flag, noun):
    doc = '{"degree": Infinity, "coeffs": []}'
    path = tmp_path / "f.json"
    path.write_text(doc)
    source = doc if flag == "--f-json" else str(path)
    code, out, err = run(capsys, "spectrum", "--N", "1", "--t", "0.05", flag, source)
    assert_bad_input(code, out, err)
    assert err == f"error: {noun} has a malformed schema: factor degree must be an integer, got inf\n"


class TestNonIntegerFactorJson:
    """A degree or mode entry that is not a JSON integer is refused, not truncated."""

    @pytest.mark.parametrize(
        "doc, what, value",
        [
            ('{"degree": 2, "coeffs": [{"m": [1.5, 0, 0], "re": 0.1, "im": 0}, '
             '{"m": [-1.5, 0, 0], "re": 0.1, "im": 0}]}', "mode entry", "1.5"),
            ('{"degree": 1, "coeffs": [{"m": [true, 0, 0], "re": 0.1, "im": 0}, '
             '{"m": [-1, 0, 0], "re": 0.1, "im": 0}]}', "mode entry", "True"),
            ('{"degree": true, "coeffs": []}', "degree", "True"),
            ('{"degree": 2.0, "coeffs": []}', "degree", "2.0"),
        ],
    )
    def test_inline_and_file(self, capsys, tmp_path, doc, what, value):
        path = tmp_path / "f.json"
        path.write_text(doc)
        for source, noun in ((["--f-json", doc], "inline factor"),
                             (["--f-file", str(path)], "factor file")):
            code, out, err = run(capsys, "spectrum", "--N", "1", "--t", "0.05", *source)
            assert_bad_input(code, out, err)
            assert err == (f"error: {noun} has a malformed schema: "
                           f"factor {what} must be an integer, got {value}\n")


class TestFactorsPastTheFloatRange:
    """Factors whose weight, volume or symmetrized coefficients leave the float
    range, or that move a cluster out of its window at a t of the FD grid: one
    error line, no warning, no file."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # e^{tc} = e^1000 overflows in B's coefficients
            (("spectrum", "--N", "1", "--t", "0.05", "--f-const", "2e4"), 2,
             "conformal weight for t=0.05 is not representable: e^{tf} = e^1000 overflows"),
            # B's e^{tc} = e^250 fits, the volume's e^{3tc} does not
            (("spectrum", "--N", "1", "--t", "0.05", "--f-const", "5000"), 3,
             "the deformed volume e^750 overflows"),
            # fhat(0) + conj(fhat(0)) = 2e308 overflows
            (("spectrum", "--N", "1", "--t", "1e-300", "--f-const", "1e308"), 3,
             "factor coefficients must be finite: fhat(m) + fhat(-m) overflows"),
            (("perturb", "--delta", "1,0,0", "--N", "2", "--cluster-lambda", "1.118033988749895",
              "--f-const", "1e308"), 3,
             "factor coefficients must be finite: fhat(m) + fhat(-m) overflows"),
            # |t| osc(f) = 50 is past B_OSC_MAX (36), and so past T_RANGE_LIMIT (1)
            (("spectrum", "--N", "1", "--t", "0.05", "--f-cos", "1,0,0,500"), 2,
             "conformal weight for t=0.05 is not representable: |t| * osc(f) = 50 exceeds 36"),
            # the default FD grid scales the cluster by e^{-50}, or splits it at
            # t osc(f) = 0.6, inside T_RANGE_LIMIT
            *[(("perturb", "--delta", "1,0,0", "--N", "2", "--cluster-lambda", "1.118033988749895",
                *factor), 3,
               "the t grid [0.01, 0.001] is too coarse for this factor: the 8 eigenvalues "
               "descending from 1.118033988749895 at t=0.01 leave its midpoint window "
               "(0.8090169943749475, 1.3090169943749475)")
              for factor in (("--f-const", "5000"), ("--f-cos", "1,0,0,30"))],
        ],
    )
    def test_one_error_line(self, capsys, recwarn, tmp_path, argv, code, message):
        out = tmp_path / "out.json"
        got, msg, err = run(capsys, *argv, "--out", str(out))
        assert (got, msg, err) == (code, "", f"error: {message}\n")
        assert not out.exists()
        assert not recwarn.list

    def test_json_artifacts_hold_finite_numbers(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.dump_json({"volume": math.inf}, str(out))
        assert not out.exists()


class TestHighDegreeFactors:
    # A degree whose e^{tf} coefficients once failed a measured-reconstruction
    # test (exit 2); the certified grid resolves them (degree 15 is covered
    # in test_conformal.py).
    def test_spectrum_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "spec.json"
        code, msg, err = run(
            capsys, "spectrum", "--delta", "1,0,0", "--N", "1", "--t", "0.05",
            "--f-random", "1,8,0.3", "--out", str(out),
        )
        assert code == 0 and err == ""
        doc = json.loads(out.read_text())
        assert doc["meta"]["trust_radius"] > 0.45 and doc["residual_max"] < 1e-9


class TestNonFiniteFactors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--f-cos", "1,0,0,inf"),
            ("spectrum", "--f-const", "inf"),
            ("spectrum", "--f-json", '{"degree": 0, "coeffs": [{"m": [0, 0, 0], "re": NaN, "im": 0}]}'),
            ("spectrum", "--f-random", "1,2,inf"),
            ("genericity", "--trials", "2", "--amplitude", "inf"),
            ("genericity", "--trials", "0", "--amplitude", "nan"),
        ],
    )
    def test_exit_three_without_warnings(self, capsys, recwarn, argv):
        code, msg, err = run(capsys, argv[0], "--N", "1", "--t", "0.05", *argv[1:])
        assert code == 3 and msg == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "finite" in err
        assert not recwarn.list


class TestMemoryGuard:
    @staticmethod
    def physical_memory(monkeypatch, gib):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": gib * 2**30 // 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])

    @pytest.fixture
    def seven_gb(self, monkeypatch):
        self.physical_memory(monkeypatch, 7)

    @pytest.fixture
    def four_gb(self, monkeypatch):
        # N <= 8 is capped, and N=8 (5.1 GiB at delta=(1,0,0)) fits in 7 GiB
        self.physical_memory(monkeypatch, 4)

    def test_estimate(self):
        # dim 9248 at N=8, delta=(1,0,0): 4 dense complex matrices
        assert memory.dense_memory_estimate(8, (1, 0, 0)) == 4.0 * 9248**2 * 16

    @pytest.mark.parametrize("argv", [
        ["perturb", "--cluster-lambda", "1.118033988749895", "--f-random", "11,2,0.3"],
        ["spectrum", "--f-random", "11,2,0.3", "--t-grid", "0,0.05,0.1", "--format", "json"],
    ], ids=lambda argv: argv[0])
    def test_estimate_covers_the_measured_peak(self, tmp_path, argv):
        # spectrum --t-grid, which keeps two snapshots' vectors, has the
        # largest peak per dim^2, and perturb solves a flat cluster at two t;
        # each runs in a fresh child, and its peak RSS less the import
        # baseline stays below the estimate.
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))

        def peak_bytes(*args):
            probe = (
                "import resource, subprocess, sys; "
                "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
            )
            out = subprocess.run([sys.executable, "-c", probe, sys.executable, *args], env=env,
                                 cwd=tmp_path, capture_output=True, text=True, check=True)
            return 1024 * int(out.stdout)

        base = peak_bytes("-c", "import spintorus.cli")
        peak = peak_bytes("-m", "spintorus.cli", argv[0], "--delta", "1,0,0", "--N", "4", *argv[1:])
        assert peak - base <= memory.dense_memory_estimate(4, (1, 0, 0))

    def test_too_large_n_names_a_smaller_one(self, four_gb):
        tracemalloc.start()
        try:
            with pytest.raises(cli.ConfigError, match=r"N=8 .*use N <= 7"):
                cli.RunConfig(N=8, delta=(1, 0, 0), t=0.05).validate("spectrum")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**26  # far below one 1.3 GiB dense matrix at N=8

    def test_cli_exit_code(self, capsys, four_gb):
        code, out, err = run(capsys, "genericity", "--delta", "1,0,0", "--N", "8")
        assert code == 3
        assert err.startswith("error: N=8 ") and len(err.strip().splitlines()) == 1
        assert out == ""

    def test_sizing_builds_no_mode_set(self, monkeypatch, seven_gb):
        def no_mode_set(*args):
            raise AssertionError("sizing built a ModeSet")

        monkeypatch.setattr(torus_dirac.ModeSet, "__init__", no_mode_set)
        for command in ("spectrum", "genericity", "split-search"):
            cli.RunConfig(N=8, delta=(1, 0, 0), t=0.05).validate(command)

    def test_small_n_and_oracle_pass(self, seven_gb):
        assert cli.RunConfig(N=3, t=0.05).validate("spectrum").N == 3
        assert cli.RunConfig(N=8, t=0.0).validate("oracle").N == 8

    def test_lattice_estimate(self):
        # the cube of side 2 * 372 + 3 fits in 7 GiB, the next one does not
        available, estimate = 7 * 2**30, memory.lattice_memory_estimate
        assert estimate(0.5) == memory.LATTICE_BYTES_PER_POINT * 5**3
        assert estimate(372) <= available < estimate(372.5)

    @pytest.mark.parametrize("value", ["1e6", "1e300", "373"])
    def test_oracle_lambda_max_too_large(self, capsys, seven_gb, value):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "oracle", "--delta", "1,0,0", "--lambda-max", value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_bad_input(code, out, err)
        assert err.startswith(f"error: lambda-max={float(value)} needs about ")
        assert err.endswith("; use lambda-max <= 372\n")
        assert peak < 2**24  # nothing was enumerated

    def test_exp_grid_estimate(self):
        # at N=1 and t=0 the extrema grid of side 4 d + 4 binds: side 488
        # (degree 121) fits in 7 GiB, side 492 does not
        available, estimate = 7 * 2**30, memory.exp_grid_memory_estimate
        assert estimate(1, 2) == memory.EXP_GRID_BYTES_PER_POINT * 64**3
        assert estimate(1, 121) <= available < estimate(1, 122)
        assert estimate(1, 10**400) == estimate(1, 2**40)
        # a weight |t| ||fhat||_1 grows the e^{tf} grids past it: for the
        # degree-8 factor of `--f-random 1,8,0.3` at t = 0.05, 96 for B and
        # 128 for the volume, the mean of e^{3tf}
        assert estimate(1, 8, 0.2146) == memory.EXP_GRID_BYTES_PER_POINT * 128**3
        assert estimate(1, 2, 1e3) == math.inf

    @pytest.mark.parametrize("factor, bound", [
        (["--f-cos", "1,0,0,1500"], "75"),  # exact: |t| ||fhat||_1 = 0.05 * 1500
        (["--f-random", "1,2,1e5"], "5.59e+04"),  # 0.05 * 1e5 * 5^1.5
        (["--f-json", json.dumps({"degree": 1, "coeffs": [
            {"m": [1, 0, 0], "re": 750, "im": 0}, {"m": [-1, 0, 0], "re": 750, "im": 0}]})],
         "75"),
    ])
    def test_weight_past_the_limit(self, capsys, recwarn, seven_gb, factor, bound):
        # B's grid could be sized, the deformed volume's e^{3tf} (weight 3x) not
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "spectrum", "--N", "1", "--t", "0.05", *factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_bad_input(code, out, err)
        assert f"weight |t| ||fhat||_1 <= {bound} exceeds EXP_WEIGHT_MAX / n = 33.3" in err
        assert "inf" not in err and "GiB" not in err
        # no smaller degree brings the weight under the limit, so no hint
        assert err.endswith("cannot be sized\n")
        assert not recwarn.list
        assert peak < 2**24  # no grid was allocated

    @pytest.mark.parametrize("argv, name, fits", [
        (["split-search", "--delta", "0,0,0", "--N", "2", "--cluster-lambda", "1.0",
          "--max-degree", "50"], "max-degree", 8),
        (["genericity", "--N", "1", "--trials", "1", "--t", "0.05", "--degree", "40",
          "--amplitude", "3"], "degree", 5),
        (["spectrum", "--N", "1", "--t", "0.05", "--f-random", "1,40,3"], "degree", 5),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_weight_past_the_limit_names_a_degree_that_fits(self, capsys, seven_gb, argv, name,
                                                            fits):
        # a random factor's weight bound falls with its degree: the refusal
        # names the largest degree whose weight and grids both fit
        code, out, err = run(capsys, *argv)
        assert_bad_input(code, out, err)
        assert err.startswith(f"error: {name}=") and "exceeds EXP_WEIGHT_MAX / n = 33.3" in err
        assert err.endswith(f"cannot be sized; use {name} <= {fits}\n")

    def test_too_many_trials(self, capsys, monkeypatch, seven_gb):
        def no_scan(*args, **kwargs):
            raise AssertionError("started a scan of 10^9 trials")

        monkeypatch.setattr(cli, "genericity_scan", no_scan)
        code, out, err = run(capsys, "genericity", "--delta", "1,0,0", "--N", "1",
                             "--trials", "1000000000")
        assert_bad_input(code, out, err)
        # 10^9 rows of 3 clusters, 4200 bytes each
        fits = 7 * 2**30 // memory.genericity_memory_estimate(1, 3, 10**6)
        assert err.startswith("error: trials=1000000000 needs about 3911.6 GiB for its report")
        assert err.endswith(f"; use trials <= {fits}\n")
        assert multiprocessing.active_children() == []

    def test_degree_that_fits_passes(self, seven_gb):
        cli.RunConfig(N=1, t=0.05, degree=12).validate("genericity")
        with pytest.raises(cli.ConfigError, match=r"degree=13 .*use degree <= 12"):
            cli.RunConfig(N=1, t=0.05, degree=13).validate("genericity")

    @pytest.mark.parametrize(
        "argv, name, fits",
        [
            (["spectrum", "--N", "1", "--t", "0.05", "--f-cos", "3,-2000,1"], "degree", 48),
            (["spectrum", "--N", "1", "--t", "0.05", "--f-random", "1,3000,0.3"], "degree", 12),
            (["spectrum", "--N", "1", "--f-json", '{"degree": 5000, "coeffs": []}'], "degree", 121),
            (["spectrum", "--N", "1", "--f-file", "FILE"], "degree", 121),
            (["perturb", "--N", "2", "--cluster-index", "0", "--f-cos", "2000,0,0"], "degree", 121),
            (["simplicity", "--N", "3", "--t", "0.05", "--f-cos", "0,0,2000"], "degree", 48),
            (["genericity", "--N", "1", "--trials", "1", "--degree", "3000"], "degree", 121),
            (["genericity", "--N", "1", "--degree", "1" + "0" * 400], "degree", 121),
            (
                ["split-search", "--delta", "0,0,0", "--N", "2", "--cluster-lambda", "1.0",
                 "--max-degree", "3000"],
                "max-degree", 8,
            ),
        ],
    )
    def test_factor_degree_too_large(self, capsys, tmp_path, seven_gb, argv, name, fits):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"degree": 2000, "coeffs": []}))
        argv = [str(path) if a == "FILE" else a for a in argv]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_bad_input(code, out, err)
        assert err.startswith(f"error: {name}=") and " needs about " in err
        assert err.endswith(f"; use {name} <= {fits}\n") and "inf" not in err
        assert peak < 2**24  # no factor cube and no grid were allocated


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--N", "abc"], ["spectrum", "--bogus", "1"], []],
        ids=["bad-value", "unknown-flag", "no-command"],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --N 1 --seed 7",
            "oracle --delta 1,0,0 --t 3",
            "perturb --N 1 --cluster-index 0 --f-const 0.3 --format csv",
            "split-search --N 1 --cluster-index 0 --f-const 1",
            "genericity --N 1 --trials 0 --f-cos 1,0,0",
            "simplicity --N 1 --k 1 --format csv",
            "validate --N 5",
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_flag_the_command_ignores(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 3
        assert err.startswith("error: unrecognized arguments: ")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("validate --seed -1", "seed"),
            ("split-search --delta 0,0,0 --N 2 --cluster-lambda 1.0 --max-degree 1 --seed -1",
             "seed"),
            ("genericity --N 2 --trials 2 --t 0.05 --seed -1", "seed"),
            ("spectrum --N 1 --t 0.05 --f-random -1,2,0.3", "--f-random seed"),
            ("simplicity --N 2 --k 1 --t 0.05 --f-random -1,2,0.3", "--f-random seed"),
        ],
        ids=["validate", "split-search", "genericity", "spectrum-f-random", "simplicity-f-random"],
    )
    def test_negative_seed(self, capsys, monkeypatch, argv, flag):
        def no_work(*args, **kwargs):
            raise AssertionError("a run with a negative seed started")

        for name in ("genericity_scan", "split_search", "random_factor"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(validate, "run_all", no_work)
        code, out, err = run(capsys, *argv.split())
        assert_bad_input(code, out, err)
        assert err == f"error: {flag} must be >= 0, got -1\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--help"])
        assert exc.value.code == 0
        assert "--t-grid" in capsys.readouterr().out


class TestValidateCommand:
    def test_failing_check_is_reported(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(validate, "check_homothety", broken)
        code, out, err = run(capsys, "validate")
        assert code == 1
        assert "Traceback" not in out + err
        doc = json.loads(out)
        assert doc["all_passed"] is False
        rows = {c["name"]: c for c in doc["checks"]}
        assert len(rows) == 7
        assert rows["homothety"] == {
            "name": "homothety", "passed": False, "detail": "ZeroDivisionError: boom"
        }
        assert all(c["passed"] for name, c in rows.items() if name != "homothety")

    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]
        names = {c["name"] for c in doc["checks"]}
        assert {
            "spinor_laws",
            "oracle_equality",
            "substitution_identity",
            "kramers_pairing",
            "kernel_constancy",
            "first_order_rates",
            "homothety",
        } <= names


FLOATS = ["float"]
LINE = {"lambda": "float", "mult_c": "int", "mult_h": "int"}
FD = {"lambda": "float", "f_ref": "str", "t_values": FLOATS, "mismatches": FLOATS, "order": "float"}

#: (command line, key tree of its --out artifact) for every JSON artifact the CLI writes.
ARTIFACT_TREES = [
    (
        "oracle --delta 1,0,0 --lambda-max 1.6",
        {"delta": ["int"], "lambda_max": "float", "lines": [LINE]},
    ),
    (
        "spectrum --delta 1,0,0 --N 2 --f-random 41,2,0.3 --t 0.05",
        {
            "meta": {
                "delta": ["int"], "N": "int", "t": "float", "f_ref": "str",
                "tau_rel": "float", "volume": "float", "trust_radius": "float",
            },
            "eigenvalues": FLOATS,
            "clusters": [LINE],
            "residual_max": "float",
        },
    ),
    (
        "spectrum --delta 1,0,0 --N 1 --f-cos 1,0,0,0.5 --t-grid 0,0.02 --format json",
        {
            "t_values": FLOATS, "trajectories": [FLOATS], "overlaps": [FLOATS],
            "flagged": ["bool"], "ambiguous": "bool", "index_window": ["int"],
            "trust_radius": FLOATS, "leaves_trust_radius": ["bool"],
        },
    ),
    (
        "perturb --delta 1,0,0 --N 2 --cluster-lambda 1.118033988749895 --f-random 2024,2,0.4",
        {
            "lambda": "float", "f_ref": "str", "rates": FLOATS,
            "quaternionic_rates": FLOATS, "min_gap": "float", "fd": FD,
        },
    ),
    (
        "split-search --delta 0,0,0 --N 2 --cluster-lambda 1.0 --max-degree 1",
        {
            "lambda": "float", "p_c_before": "int", "p_h_before": "int",
            "factor_label": "str",
            "factor": {
                "degree": "int", "coeffs": [{"m": ["int"], "re": "float", "im": "float"}]
            },
            "rates": FLOATS, "quaternionic_rates": FLOATS, "rate_gap": "float",
            "t_verify": "float", "post_clusters": [LINE], "max_p_h_after": "int",
            "max_position_error": "float", "candidates_tried": "int",
        },
    ),
    (
        "genericity --delta 1,0,0 --N 2 --trials 2 --t 0.05 --seed 2024",
        {
            "delta": ["int"], "N": "int", "t": "float", "degree": "int",
            "amplitude": "float", "seed": "int", "trials": "int", "m_clusters": "int",
            "trial_rows": [
                {
                    "index": "int", "f_ref": "str", "lambdas": FLOATS, "mult_c": ["int"],
                    "mult_h": ["int"], "all_simple": "bool", "error": "NoneType",
                }
            ],
            "pattern_counts": {"1,1,1": "int"},
            "fraction_all_simple": "float",
            "n_failures": "int",
        },
    ),
    (
        "simplicity --delta 0,0,0 --N 2 --k 1 --f-random 3,2,0.3 --t 0.05",
        {
            "delta": ["int"], "N": "int", "t": "float", "k": "int", "f_ref": "str",
            "passed": "bool", "reason": "str", "offending": "NoneType",
            "kernel_dim": "int", "positive": FLOATS, "negative": FLOATS,
        },
    ),
    (
        "validate",
        {"checks": [{"name": "str", "passed": "bool", "detail": "str"}], "all_passed": "bool"},
    ),
]


@pytest.mark.parametrize(
    "argv, tree", ARTIFACT_TREES, ids=[argv.split()[0] for argv, _ in ARTIFACT_TREES]
)
def test_artifact_key_tree(capsys, tmp_path, argv, tree):
    out = tmp_path / "artifact.json"
    code, _, _ = run(capsys, *argv.split(), "--out", str(out))
    assert code == 0
    assert key_tree(json.loads(out.read_text())) == tree

import functools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintorus import conformal
from spintorus import experiments as ex
from spintorus.conformal import ConformalFactor, deformed_spectrum, trust_radius
from spintorus.errors import SplitSearchError
from spintorus.perturbation import (
    deformed_cluster_values,
    extract_cluster,
    fd_check,
    flat_cluster_index,
    flat_cluster_window,
    perturbation_matrix,
)
from spintorus.torus_dirac import build_mode_set, closed_form_spectrum

from helpers import first_nonnegative_index, record_solves


@pytest.fixture(scope="module")
def trivial_cluster():
    return extract_cluster(build_mode_set(3, (0, 0, 0)), lam=1.0)


class TestRandomFactor:
    def test_zero_amplitude(self):
        assert ex.random_factor(3, 2, 0.0).is_zero

    def test_deterministic(self):
        f1 = ex.random_factor(42, 2, 0.3)
        f2 = ex.random_factor(42, 2, 0.3)
        assert f1.degree == f2.degree and f1.values.tobytes() == f2.values.tobytes()
        assert ex.random_factor(43, 2, 0.3).values.tobytes() != f1.values.tobytes()

    def test_sup_norm_scaling(self):
        f = ex.random_factor(5, 2, 0.37)
        assert abs(f.sup_abs() - 0.37) < 1e-10

    def test_reality(self):
        f = ex.random_factor(6, 2, 0.5)
        flipped = np.conj(f.values[::-1, ::-1, ::-1])
        assert_allclose(f.values, flipped, atol=0)

    def test_zero_mode_statistics(self):
        # the mean coefficient is symmetric around zero: its empirical mean
        # over many seeds stays within 3 standard errors
        samples = np.array(
            [ex.random_factor(seed, 2, 1.0).mean() for seed in range(1000)]
        )
        stderr = samples.std() / np.sqrt(len(samples))
        assert abs(samples.mean()) < 3.0 * stderr

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ex.random_factor(1, 0, 0.5)
        with pytest.raises(ValueError):
            ex.random_factor(1, 2, -0.1)
        for amplitude in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                ex.random_factor(1, 2, amplitude)

    @pytest.mark.parametrize("seed, degree", [(501, 2), (np.random.SeedSequence(7), 1)])
    def test_draw_order_pinned(self, seed, degree):
        # The construction the factor had as a triple loop over the cube:
        # the zero mode draws first, then each m > 0 in lexicographic order.
        rng = np.random.default_rng(seed)
        side = 2 * degree + 1
        vals = np.zeros((side, side, side), dtype=np.complex128)
        for m1 in range(-degree, degree + 1):
            for m2 in range(-degree, degree + 1):
                for m3 in range(-degree, degree + 1):
                    m = (m1, m2, m3)
                    if m == (0, 0, 0):
                        vals[degree, degree, degree] = rng.standard_normal()
                    elif m > (0, 0, 0):
                        re, im = rng.standard_normal(2)
                        vals[m1 + degree, m2 + degree, m3 + degree] = (re + 1j * im) / 2.0
                        vals[degree - m1, degree - m2, degree - m3] = (re - 1j * im) / 2.0
        raw = ConformalFactor(degree, vals)
        expected = raw.scaled(0.3 / raw.sup_abs())
        f = ex.random_factor(seed, degree, 0.3)
        assert f.values.tobytes() == expected.values.tobytes()


class TestCandidateOrdering:
    def test_single_frequencies_sorted_by_length(self, monkeypatch):
        monkeypatch.setattr(ex, "SPLIT_RANDOM_MIXES", 0)
        cands = list(ex.candidate_factors(1))
        # 13 half-space representatives with |m|_inf <= 1, cos and sin each
        assert len(cands) == 26
        first = cands[0]
        assert first.coeff((0, 0, 1)) == 0.5  # shortest representative first
        lengths = []
        for c in cands[::2]:
            support = np.argwhere(np.abs(c.values) > 0) - c.degree
            lengths.append(np.sum(support[0] ** 2))
        assert lengths == sorted(lengths)


class TestSplitSearch:
    def test_skips_zero_matrix_candidates(self, trivial_cluster):
        # cos(x1) produces P = 0 by convolution support: no in-shell mode
        # pairs differ by e_1
        rep = perturbation_matrix(trivial_cluster, ConformalFactor.cosine((1, 0, 0)))
        assert np.max(np.abs(rep.P)) < 1e-14
        # cos(2x1) couples only antipodal pairs, whose helicity spinors are
        # orthogonal: P = 0 as well
        rep2 = perturbation_matrix(trivial_cluster, ConformalFactor.cosine((2, 0, 0)))
        assert np.max(np.abs(rep2.P)) < 1e-14

    def test_certificate_for_trivial_cluster(self, trivial_cluster):
        cert = ex.split_search(trivial_cluster, 2)
        assert cert.rate_gap > 0
        assert cert.max_p_h_after < cert.p_h_before
        assert cert.p_h_before == 3
        assert sum(c[1] for c in cert.post_clusters) == 6
        assert cert.max_position_error <= 5.0 * cert.t_verify**2
        # the winning candidate is a single mixed frequency, found before any
        # random combination
        assert cert.factor_label.startswith("cos:")

    def test_precondition_simple_cluster(self):
        simple = extract_cluster(build_mode_set(2, (1, 0, 0)), lam=0.5)
        with pytest.raises(ValueError, match="simple"):
            ex.split_search(simple, 2)

    def test_exhaustion_reports_rate_table(self, trivial_cluster, monkeypatch):
        monkeypatch.setattr(ex, "SPLIT_RANDOM_MIXES", 0)
        monkeypatch.setattr(ex, "SPLIT_GAP_THRESHOLD", 1e6)
        with pytest.raises(SplitSearchError) as err:
            ex.split_search(trivial_cluster, 1)
        assert len(err.value.rate_table) == 26

    def test_certificate_round_trip(self, trivial_cluster):
        cert = ex.split_search(trivial_cluster, 2)
        doc = cert.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["lambda"] == 1.0 and (doc["p_c_before"], doc["p_h_before"]) == (6, 3)
        assert doc["factor_label"] == cert.factor_label
        assert ConformalFactor.from_json_dict(doc["factor"]).to_json_dict() == doc["factor"]
        assert doc["quaternionic_rates"] == cert.quaternionic_rates
        assert doc["post_clusters"] == [
            {"lambda": lam, "mult_c": mc, "mult_h": mh} for lam, mc, mh in cert.post_clusters
        ]
        assert sum(c["mult_c"] for c in doc["post_clusters"]) == 6
        assert doc["max_p_h_after"] < doc["p_h_before"]
        assert doc["candidates_tried"] == cert.candidates_tried >= 1


class TestGenericityScan:
    def test_t_zero_reproduces_flat_multiplicities(self):
        # N = 2 trusts |lambda| <= 1.5: the positive shells at 1 and sqrt(2)
        rep = ex.genericity_scan((0, 0, 0), 4, 0.0, 2, 2, 0.3, seed=1, m_clusters=2)
        lines = [l for l in closed_form_spectrum((0, 0, 0), 1.5) if l.lam > 0]
        expected = [l.mult_h for l in lines]
        assert len(expected) == 2
        for row in rep.trial_rows:
            assert row.mult_h == expected
        assert rep.fraction_all_simple == 0.0
        with pytest.raises(ValueError, match="reaches past the trustworthy truncation radius"):
            ex.genericity_scan((0, 0, 0), 4, 0.0, 2, 2, 0.3, seed=1, m_clusters=3)

    def test_trials_zero_empty_report(self):
        rep = ex.genericity_scan((1, 0, 0), 0, 0.05, 2, 2, 0.3, seed=1)
        assert rep.trial_rows == []
        assert rep.fraction_all_simple is None
        assert rep.pattern_counts == {}

    def test_consistency_with_split_certificate(self, trivial_cluster):
        # one trial driven by a known splitting factor actually splits
        cert = ex.split_search(trivial_cluster, 2)
        factor = ConformalFactor.from_json_dict(cert.factor)
        from spintorus.conformal import deformed_spectrum
        from spintorus.perturbation import flat_cluster_window

        ms = trivial_cluster.mode_set
        res = deformed_spectrum(factor, cert.t_verify, ms, keep_vectors=False)
        lo, hi = flat_cluster_window(ms, 1.0)
        sub = [c for c in res.clusters if lo < c.lam < hi]
        assert max(c.mult_h for c in sub) < trivial_cluster.p_h

    def test_deterministic_bytes(self):
        r1 = ex.genericity_scan((1, 0, 0), 3, 0.05, 2, 2, 0.3, seed=9)
        r2 = ex.genericity_scan((1, 0, 0), 3, 0.05, 2, 2, 0.3, seed=9)
        b1 = json.dumps(r1.to_json_dict(), sort_keys=True).encode()
        b2 = json.dumps(r2.to_json_dict(), sort_keys=True).encode()
        assert b1 == b2

    def test_report_round_trip(self):
        rep = ex.genericity_scan((1, 0, 0), 2, 0.05, 2, 2, 0.3, seed=5)
        doc = rep.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert (doc["delta"], doc["N"], doc["trials"], doc["seed"]) == ([1, 0, 0], 2, 2, 5)
        assert [r["index"] for r in doc["trial_rows"]] == [0, 1]
        for row, r in zip(doc["trial_rows"], rep.trial_rows):
            assert row["f_ref"] == r.f_ref == f"random:5:{r.index}"
            assert (row["lambdas"], row["mult_c"], row["mult_h"]) == (r.lambdas, r.mult_c, r.mult_h)
            assert row["all_simple"] is r.all_simple and row["error"] is None
        assert sum(doc["pattern_counts"].values()) == 2
        assert doc["fraction_all_simple"] == rep.fraction_all_simple
        assert doc["n_failures"] == 0

    def test_csv_rows(self):
        rep = ex.genericity_scan((1, 0, 0), 2, 0.05, 2, 2, 0.3, seed=5)
        rows = rep.csv_rows()
        assert rows[0][0] == "trial"
        assert len(rows) == 3

    # N = 3 genericity windows take the shell-window stage
    SCAN = dict(delta=(1, 0, 0), trials=3, t=0.05, N=3, degree=2, amplitude=0.3, seed=11)

    def test_bytes_do_not_depend_on_the_worker_count(self, monkeypatch):
        payloads = []
        for workers in (1, 2):
            monkeypatch.setattr(ex, "trial_workers", lambda *args, n=workers: n)
            rep = ex.genericity_scan(**self.SCAN)
            payloads.append(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True).encode())
            assert multiprocessing.active_children() == []
        assert payloads[0] == payloads[1]

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        src = str(Path(ex.__file__).resolve().parents[1])
        argv = [
            sys.executable, "-m", "spintorus.cli", "genericity", "--delta", "1,0,0", "--N", "3",
            "--trials", "3", "--t", "0.05", "--seed", "11",
        ]
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"threads{threads}.json")
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([*argv, "--out", str(outs[-1])], env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=300)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_trials_run_in_forks_pinned_to_one_thread(self):
        controls = ex.openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS entry point: trials run in this process")
        before = [get_threads() for _, get_threads in controls]
        rows = ex.run_trials(
            lambda i: (i, os.getpid(), [get_threads() for _, get_threads in controls]),
            4, 1, (1, 0, 0),
        )
        assert [i for i, _, _ in rows] == [0, 1, 2, 3]
        assert all(pid != os.getpid() for _, pid, _ in rows)
        assert all(counts == [1] * len(controls) for _, _, counts in rows)
        assert [get_threads() for _, get_threads in controls] == before
        assert multiprocessing.active_children() == []

    def test_a_wrapped_random_factor_keeps_trials_in_this_process(self, monkeypatch):
        draw, pids = ex.random_factor, []

        @functools.wraps(draw)
        def recorded(*args, **kwargs):
            pids.append(os.getpid())
            return draw(*args, **kwargs)

        monkeypatch.setattr(ex, "random_factor", recorded)
        monkeypatch.setattr(ex, "trial_workers", lambda *args: 2)
        ex.genericity_scan((1, 0, 0), 3, 0.05, 2, 2, 0.3, seed=5)
        assert pids == [os.getpid()] * 3
        assert multiprocessing.active_children() == []

    def test_a_worker_that_cannot_pin_fails_the_scan(self, monkeypatch):
        monkeypatch.setattr(ex, "openblas_thread_controls", lambda: [(lambda n: None, lambda: 2)])
        with pytest.raises(RuntimeError, match="could not pin OpenBLAS to one thread"):
            ex.genericity_scan((1, 0, 0), 2, 0.05, 2, 2, 0.3, seed=5)
        assert multiprocessing.active_children() == []

    def test_first_failing_trial_raises_and_no_worker_outlives_it(self, monkeypatch):
        draw = ex.random_factor

        def failing(seed, degree, amplitude, label=None):
            index = int(label.rsplit(":", 1)[1])
            if index in (3, 7):
                raise ValueError(f"trial {index} failed")
            return draw(seed, degree, amplitude, label=label)

        monkeypatch.setattr(ex, "random_factor", failing)
        monkeypatch.setattr(ex, "trial_workers", lambda *args: 2)
        with pytest.raises(ValueError, match="^trial 3 failed$"):
            ex.genericity_scan((1, 0, 0), 10, 0.05, 2, 2, 0.3, seed=5)
        assert multiprocessing.active_children() == []


def full_solve_clusters(delta, trials, t, N, seed, m_clusters, degree=2, amplitude=0.3):
    """Lowest positive clusters with lambda <= R + tol per genericity trial, from
    whole-spectrum solves (R the trust radius, tol the clustering tolerance at R)."""
    ms = build_mode_set(N, delta)
    children = np.random.SeedSequence(seed).spawn(trials)
    out = []
    for i in range(trials):
        factor = ex.random_factor(children[i], degree, amplitude)
        res = deformed_spectrum(factor, t, ms, keep_vectors=False)
        radius = trust_radius(factor, t, N)
        reach = radius + res.meta["tau_rel"] * max(1.0, radius)
        out.append([c for c in res.clusters if ex.KERNEL_TOL < c.lam <= reach][:m_clusters])
    return out


def assert_matches_full_solve(report, reference):
    assert len(report.trial_rows) == len(reference)
    for row, ref in zip(report.trial_rows, reference):
        assert row.error is None
        assert row.mult_c == [c.mult_c for c in ref]
        assert_allclose(row.lambdas, [c.lam for c in ref], rtol=0, atol=1e-12)


class TestGenericityWindow:
    @pytest.mark.parametrize("t", [0.0, 0.05])
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("delta", [(0, 0, 0), (1, 0, 0), (0, 1, 1)], ids=str)
    def test_matches_full_solve(self, delta, N, t):
        # the full solve either holds three trusted positive clusters in every
        # trial, and the scan reports them, or not, and the scan refuses
        reference = full_solve_clusters(delta, 2, t, N, 13, 3)
        if all(len(ref) == 3 for ref in reference):
            rep = ex.genericity_scan(delta, 2, t, N, 2, 0.3, seed=13, m_clusters=3)
            assert_matches_full_solve(rep, reference)
        else:
            with pytest.raises(ValueError, match="reaches past the trustworthy truncation radius"):
                ex.genericity_scan(delta, 2, t, N, 2, 0.3, seed=13, m_clusters=3)

    def test_window_is_the_kernel_and_the_first_shells(self, monkeypatch):
        calls = record_solves(monkeypatch)
        f = ex.random_factor(2, 2, 0.3)
        ms = build_mode_set(3, (0, 0, 0))
        i0 = first_nonnegative_index(ms)
        ex.lowest_positive_clusters(f, 0.05, ms, 3)
        # the kernel and |kappa|^2 = 1, 2, 3 with 6, 12, 8 modes, plus one
        # eigenpair past each edge
        assert calls == [(i0 - 1, i0 + 2 + 6 + 12 + 8)]
        calls.clear()
        ms = build_mode_set(3, (1, 0, 0))
        i0 = first_nonnegative_index(ms)
        assert ex.lowest_positive_clusters(f, 0.05, ms, 0) == []
        assert calls == [(i0 - 1, i0)]

    def test_clusters_past_the_trust_radius_raise(self, monkeypatch):
        # N = 2 trusts three positive flat shells (1/2, sqrt(5)/2, 3/2), at
        # most 10 positive clusters: the window stops at them
        calls = record_solves(monkeypatch)
        ms = build_mode_set(2, (1, 0, 0))
        with pytest.raises(ValueError, match="m_clusters=40 reaches past the trustworthy"):
            ex.lowest_positive_clusters(ex.random_factor(2, 2, 0.3), 0.05, ms, 40)
        i0 = first_nonnegative_index(ms)
        assert calls == [(i0 - 1, i0 + 2 + 8 + 10)]

    def test_grows_while_the_next_eigenvalue_lies_inside(self, monkeypatch):
        # a sampled sup|f| that ran low would put R past the trusted shells:
        # the window grows while the eigenvalue past it lies inside R + tol
        monkeypatch.setattr(conformal, "trust_radius", lambda factor, t, N: 2.9)
        calls = record_solves(monkeypatch)
        f = ex.random_factor(2, 2, 0.3)
        ms = build_mode_set(2, (1, 0, 0))
        top = ex.lowest_positive_clusters(f, 0.05, ms, 20)
        assert len(calls) > 1 and calls[-1][1] > calls[0][1]
        res = deformed_spectrum(f, 0.05, ms)
        ref = [c for c in res.clusters if c.lam > ex.KERNEL_TOL][:20]
        assert [c.mult_c for c in top] == [c.mult_c for c in ref]
        assert_allclose([c.lam for c in top], [c.lam for c in ref], rtol=0, atol=1e-12)

    def test_negative_cluster_count_rejected(self):
        with pytest.raises(ValueError, match="m_clusters"):
            ex.genericity_scan((1, 0, 0), 1, 0.05, 1, 2, 0.3, seed=0, m_clusters=-1)


class TestClusterWindow:
    def test_cluster_values_match_filtered_full_solve(self):
        ms = build_mode_set(2, (1, 0, 0))
        f = ex.random_factor(6, 2, 0.3)
        lam = float(np.sqrt(1.25))
        full = deformed_spectrum(f, 0.02, ms, keep_vectors=False)
        lo, hi = flat_cluster_window(ms, lam)
        expected = full.eigenvalues[(full.eigenvalues > lo) & (full.eigenvalues < hi)]
        res = deformed_cluster_values(f, 0.02, extract_cluster(ms, lam=lam))
        assert len(res.eigenvalues) == len(expected) == 8
        assert_allclose(res.eigenvalues, expected, rtol=0, atol=1e-12)

    def test_fd_check_and_verification_solve_the_index_window(self, monkeypatch):
        # one solve per t (or verification) of the flat cluster's indices
        # [start, stop), plus one eigenpair past each edge
        ms = build_mode_set(3, (1, 0, 0))
        cluster = extract_cluster(ms, lam=1.118034)
        c = flat_cluster_index(ms, cluster.lam)
        start, stop = (int(i) for i in ms.cluster_starts[[c, c + 1]])
        f = ex.random_factor(11, 2, 0.3)
        calls = record_solves(monkeypatch)
        fd_check(cluster, f, perturbation_matrix(cluster, f), [1e-2, 1e-3])
        assert calls == [(start - 1, stop)] * 2
        calls.clear()
        ex._verify_split(cluster, f, perturbation_matrix(cluster, f), 0.05)
        assert calls == [(start - 1, stop)]


class TestSimplicityCertificate:
    def test_flat_shifted_passes_k1_fails_k2(self):
        f = ConformalFactor.zero()
        rep1 = ex.simplicity_certificate((1, 0, 0), f, 0.0, 1, 3)
        assert rep1.passed
        rep2 = ex.simplicity_certificate((1, 0, 0), f, 0.0, 2, 3)
        assert not rep2.passed
        assert rep2.reason == "pair"
        assert abs(rep2.offending[0] - np.sqrt(5) / 2) < 1e-9

    def test_trivial_structure_fails_kernel(self):
        f = ex.random_factor(3, 2, 0.3)
        rep = ex.simplicity_certificate((0, 0, 0), f, 0.05, 1, 2)
        assert not rep.passed
        assert rep.reason == "kernel"
        assert rep.kernel_dim == 2

    def test_generic_deformation_passes(self):
        f = ex.random_factor(12, 2, 0.3)
        rep = ex.simplicity_certificate((1, 0, 0), f, 0.05, 3, 3)
        assert rep.passed

    def test_monotone_consistency(self):
        f = ex.random_factor(12, 2, 0.3)
        passed = [
            ex.simplicity_certificate((1, 0, 0), f, 0.05, k, 3).passed
            for k in (1, 2, 3, 4)
        ]
        # once failing, stays failing as k grows
        for a, b in zip(passed, passed[1:]):
            assert a or not b

    def test_values_match_full_solve(self):
        f = ex.random_factor(12, 2, 0.3)
        rep = ex.simplicity_certificate((1, 0, 0), f, 0.05, 4, 3)
        full = deformed_spectrum(f, 0.05, build_mode_set(3, (1, 0, 0)), keep_vectors=False)
        pos = [c.lam for c in full.clusters if c.lam > 0][:4]
        neg = [c.lam for c in reversed(full.clusters) if c.lam < 0][:4]
        assert_allclose(rep.positive, pos, rtol=0, atol=1e-12)
        assert_allclose(rep.negative, neg, rtol=0, atol=1e-12)

    def test_k_beyond_trust_raises(self):
        f = ConformalFactor.zero()
        with pytest.raises(ValueError, match="trust"):
            ex.simplicity_certificate((1, 0, 0), f, 0.0, 40, 2)

    def test_report_round_trip(self):
        f = ex.random_factor(12, 2, 0.3)
        rep = ex.simplicity_certificate((1, 0, 0), f, 0.05, 2, 3)
        doc = rep.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert (doc["delta"], doc["N"], doc["t"], doc["k"]) == ([1, 0, 0], 3, 0.05, 2)
        assert doc["passed"] is rep.passed and doc["reason"] == rep.reason
        assert doc["offending"] == rep.offending and doc["kernel_dim"] == 0
        assert doc["positive"] == rep.positive and len(doc["positive"]) == 2
        assert doc["negative"] == rep.negative and len(doc["negative"]) == 2


class TestScalingCovariance:
    def test_constant_shift_moves_rates_keeps_gaps(self, trivial_cluster):
        base = ex.random_factor(77, 2, 0.4)
        c = 0.25
        shifted_vals = base.values.copy()
        shifted_vals[base.degree, base.degree, base.degree] += c
        shifted = ConformalFactor(base.degree, shifted_vals)
        rep0 = perturbation_matrix(trivial_cluster, base)
        rep1 = perturbation_matrix(trivial_cluster, shifted)
        lam = trivial_cluster.lam
        assert_allclose(rep1.rates, rep0.rates - lam * c, atol=1e-12)
        assert abs(rep1.min_gap - rep0.min_gap) < 1e-12

    def test_certificate_unchanged_by_shift(self):
        f = ex.random_factor(12, 2, 0.3)
        shifted_vals = f.values.copy()
        shifted_vals[f.degree, f.degree, f.degree] += 0.2
        gshift = ConformalFactor(f.degree, shifted_vals)
        rep_a = ex.simplicity_certificate((1, 0, 0), f, 0.05, 3, 3)
        rep_b = ex.simplicity_certificate((1, 0, 0), gshift, 0.05, 3, 3)
        assert rep_a.passed == rep_b.passed

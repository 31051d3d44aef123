import json

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from spintorus import perturbation as pt
from spintorus.conformal import ConformalFactor, deformed_spectrum, flat_spectrum
from spintorus.errors import ClusterNotIsolatedError
from spintorus.experiments import random_factor
from spintorus.torus_dirac import (
    all_spin_structures,
    apply_J_field,
    apply_flat_dirac,
    build_mode_set,
    closed_form_spectrum,
    l2_inner,
    pointwise_density,
)

from helpers import zero_field


@pytest.fixture(scope="module")
def trivial_ms():
    return build_mode_set(3, (0, 0, 0))


@pytest.fixture(scope="module")
def lambda_one_cluster(trivial_ms):
    return pt.extract_cluster(trivial_ms, lam=1.0)


@pytest.fixture(scope="module")
def shifted_ms():
    return build_mode_set(2, (1, 0, 0))


class TestExtractCluster:
    def test_basic_invariants(self, lambda_one_cluster):
        cl = lambda_one_cluster
        assert cl.p_c == 6
        assert cl.p_h == 3
        assert cl.j_closed
        gram = cl.vectors.conj().T @ cl.vectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_index_out_of_range(self, trivial_ms):
        with pytest.raises(ValueError, match="out of range"):
            pt.extract_cluster(trivial_ms, index=10**6)

    def test_lambda_must_name_a_flat_cluster(self, shifted_ms):
        # a value given to 7 digits, 1e-8 from sqrt(5)/2, names its cluster
        assert pt.extract_cluster(shifted_ms, lam=1.118034).lam == np.sqrt(5.0) / 2.0
        for lam in (7.0, 0.8, 1.118034 + 2e-6, np.nan):
            with pytest.raises(ValueError, match="not a flat eigenvalue"):
                pt.extract_cluster(shifted_ms, lam=lam)

    @pytest.mark.parametrize("spin", all_spin_structures(), ids=str)
    def test_matches_the_dense_flat_solve(self, spin):
        # every cluster against the dense oracle: value, multiplicity, eigenspace
        ms = build_mode_set(2, spin)
        clusters = flat_spectrum(ms).clusters
        dense = deformed_spectrum(ConformalFactor.zero(), 0.0, ms)
        assert dense.clusters == clusters
        with pytest.raises(ValueError, match="out of range"):
            pt.extract_cluster(ms, index=len(clusters))
        for index, info in enumerate(clusters):
            cl = pt.extract_cluster(ms, index=index)
            modes = np.flatnonzero(np.abs(cl.vectors).reshape(ms.n_modes, -1).sum(axis=1))
            (q,) = set(ms.shell_keys[modes].tolist())
            assert cl.lam == np.sign(info.lam) * np.sqrt(q) / 2.0
            assert abs(cl.lam - info.lam) <= 1e-12
            assert cl.p_c == info.mult_c
            assert cl.j_closed
            X = dense.vectors[:, info.start : info.stop]
            assert np.max(np.abs(cl.vectors @ cl.vectors.conj().T - X @ X.conj().T)) <= 1e-12
        if spin.trivial:
            assert pt.extract_cluster(ms, lam=0.0).p_c == 2

    def test_runs_no_dense_eigensolve(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("dense eigensolve")

        monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
        cl = pt.extract_cluster(build_mode_set(3, (1, 0, 0)), lam=1.118034)
        assert (cl.p_c, cl.j_closed) == (8, True)


class TestFlatClusters:
    """``ModeSet.flat_clusters`` against the dense flat solve and the lattice count."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("spin", all_spin_structures(), ids=str)
    def test_matches_the_dense_flat_solve(self, spin, N):
        ms = build_mode_set(N, spin)
        keys, lams, mult_c = ms.flat_clusters
        clusters = flat_spectrum(ms).clusters
        assert len(keys) == len(lams) == len(mult_c) == len(clusters)
        assert np.all(np.diff(keys) > 0)
        assert_allclose(lams, [c.lam for c in clusters], rtol=0, atol=1e-12)
        assert mult_c.tolist() == [c.mult_c for c in clusters]

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("spin", all_spin_structures(), ids=str)
    def test_lattice_count_and_windows_inside_the_radius(self, spin, N):
        ms = build_mode_set(N, spin)
        keys, lams, mult_c = ms.flat_clusters
        assert ms.first_nonnegative_index == mult_c[keys < 0].sum()
        inside = np.abs(lams) <= N - 0.5
        signed = [(s * line.lam, line.mult_c) for line in closed_form_spectrum(spin, N - 0.5)
                  for s in ((1.0,) if line.lam == 0.0 else (-1.0, 1.0))]
        assert list(zip(lams[inside].tolist(), mult_c[inside].tolist())) == sorted(signed)
        # the window a cluster gets from its lattice neighbours, as before the table
        lattice = closed_form_spectrum(spin, N + 2.0)
        reps = sorted({line.lam for line in lattice} | {-line.lam for line in lattice})
        for lam in lams[inside]:
            pos = reps.index(lam)
            expected = (0.5 * (reps[pos - 1] + reps[pos]), 0.5 * (reps[pos] + reps[pos + 1]))
            assert pt.flat_cluster_window(ms, lam) == expected


class TestRateSingle:
    def test_constant_factor(self, shifted_ms):
        ms = shifted_ms
        cl = pt.extract_cluster(ms, lam=0.5)
        phi = cl.fields()[0]
        c = 0.7
        rate = pt.rate_single(0.5, phi, ConformalFactor.constant(c))
        assert abs(rate - (-0.5 * c)) < 1e-12

    def test_zero_mean_factor_constant_density(self):
        # a single-mode eigenvector has constant |phi|^2, so any zero-mean
        # factor integrates to zero against it
        ms = build_mode_set(1, (1, 0, 0))
        phi = zero_field(ms)
        i = int(ms.positions_of([(0.5, 0.0, 0.0)])[0])
        sym = ms.symbols[i]
        w, U = np.linalg.eigh(sym)
        phi.coeffs[i] = U[:, 1]  # +|kappa| eigenvector
        lam = w[1]
        rho = pointwise_density(phi, 2 * (2 * ms.N + 1))
        assert_allclose(rho, 1.0, atol=1e-13)
        f = ConformalFactor.cosine((1, 2, 0), 0.8)
        assert abs(pt.rate_single(lam, phi, f)) < 1e-13

    def test_requires_normalization(self, shifted_ms, rng):
        ms = shifted_ms
        cl = pt.extract_cluster(ms, lam=0.5)
        phi = cl.fields()[0] * 2.0
        with pytest.raises(ValueError, match="normalized"):
            pt.rate_single(0.5, phi, ConformalFactor.constant(1.0))

    def test_finite_difference_ratio(self, shifted_ms):
        # rate matches (lambda(t) - lambda)/t to first order; the error
        # shrinks ~10x between t = 1e-2 and t = 1e-3
        ms = shifted_ms
        cl = pt.extract_cluster(ms, lam=0.5)
        f = random_factor(11, 2, 0.5)
        rate = pt.rate_single(0.5, cl.fields()[0], f)
        errs = []
        for t in (1e-2, 1e-3):
            vals, _ = pt.deformed_cluster_values(f, t, cl)
            errs.append(abs((vals.mean() - 0.5) / t - rate))
        assert 5.0 < errs[0] / errs[1] < 20.0


class TestPerturbationMatrix:
    def test_constant_factor(self, lambda_one_cluster):
        c = 0.4
        rep = pt.perturbation_matrix(lambda_one_cluster, ConformalFactor.constant(c))
        assert_allclose(rep.P, -1.0 * c * np.eye(6), atol=1e-13)
        assert_allclose(rep.rates, -c * np.ones(6), atol=1e-13)
        assert rep.min_gap == 0.0

    def test_single_vector_cluster_reduces_to_rate(self, shifted_ms):
        ms = shifted_ms
        cl2 = pt.extract_cluster(ms, lam=0.5)
        synthetic = pt.EigenCluster(ms, 0.5, cl2.vectors[:, :1], j_closed=False)
        f = random_factor(4, 2, 0.5)
        rep = pt.perturbation_matrix(synthetic, f)
        assert rep.P.shape == (1, 1)
        expected = pt.rate_single(0.5, synthetic.fields()[0], f)
        assert abs(rep.rates[0] - expected) < 1e-13

    def test_empty_cluster_rejected(self, shifted_ms):
        ms = shifted_ms
        empty = pt.EigenCluster(ms, 0.5, np.zeros((ms.dim, 0), dtype=complex), False)
        with pytest.raises(ValueError):
            pt.perturbation_matrix(empty, ConformalFactor.zero())

    def test_two_quadratures_agree(self, lambda_one_cluster):
        # Fourier convolution sums vs fine-grid quadrature, and even rate
        # multiplicity; for cos(2 x1) the matrix is exactly zero (antipodal
        # in-shell couplings see orthogonal helicity spinors)
        f = ConformalFactor.cosine((2, 0, 0))
        rep = pt.perturbation_matrix(lambda_one_cluster, f)
        P2 = pt.perturbation_matrix_quadrature(lambda_one_cluster, f)
        assert np.max(np.abs(rep.P - P2)) < 1e-10
        pairs = np.sort(rep.rates).reshape(-1, 2)
        assert np.max(pairs[:, 1] - pairs[:, 0]) < 1e-8
        assert np.max(np.abs(rep.P)) < 1e-14

    def test_two_quadratures_agree_splitting_factor(self, lambda_one_cluster):
        f = ConformalFactor.cosine((1, -1, 0))
        rep = pt.perturbation_matrix(lambda_one_cluster, f)
        P2 = pt.perturbation_matrix_quadrature(lambda_one_cluster, f)
        assert np.max(np.abs(rep.P - P2)) < 1e-10
        assert rep.min_gap > 0.3

    def test_hermitian(self, lambda_one_cluster):
        rep = pt.perturbation_matrix(lambda_one_cluster, random_factor(8, 2, 0.5))
        assert_allclose(rep.P, rep.P.conj().T, atol=1e-12)

    def test_linearity(self, lambda_one_cluster):
        f1 = random_factor(71, 2, 0.5)
        f2 = random_factor(72, 2, 0.5)
        fsum = ConformalFactor(2, f1.values + f2.values)
        P1 = pt.perturbation_matrix(lambda_one_cluster, f1).P
        P2 = pt.perturbation_matrix(lambda_one_cluster, f2).P
        Ps = pt.perturbation_matrix(lambda_one_cluster, fsum).P
        assert_allclose(Ps, P1 + P2, atol=1e-12)
        fscaled = ConformalFactor(2, 2.5 * f1.values)
        assert_allclose(
            pt.perturbation_matrix(lambda_one_cluster, fscaled).P, 2.5 * P1, atol=1e-12
        )

    def test_trace_identity(self, lambda_one_cluster):
        f = random_factor(9, 2, 0.5)
        rep = pt.perturbation_matrix(lambda_one_cluster, f)
        trace_from_singles = sum(
            pt.rate_single(1.0, phi, f) for phi in lambda_one_cluster.fields()
        )
        assert abs(np.trace(rep.P).real - trace_from_singles) < 1e-11
        assert_allclose(np.sum(rep.rates), np.trace(rep.P).real, atol=1e-11)

    def test_diagonal_equals_rate_single(self, lambda_one_cluster):
        f = random_factor(10, 2, 0.5)
        rep = pt.perturbation_matrix(lambda_one_cluster, f)
        for i, phi in enumerate(lambda_one_cluster.fields()):
            assert abs(rep.P[i, i].real - pt.rate_single(1.0, phi, f)) < 1e-12


class TestUnitaryRotate:
    def test_identity_and_permutation(self, lambda_one_cluster):
        rep0 = pt.perturbation_matrix(lambda_one_cluster, random_factor(5, 2, 0.5))
        same = pt.unitary_rotate(lambda_one_cluster, np.eye(6))
        assert_allclose(same.vectors, lambda_one_cluster.vectors)
        perm = np.eye(6)[[3, 0, 1, 2, 5, 4]]
        rotated = pt.unitary_rotate(lambda_one_cluster, perm)
        rep1 = pt.perturbation_matrix(rotated, random_factor(5, 2, 0.5))
        assert_allclose(np.sort(rep0.rates), np.sort(rep1.rates), atol=1e-12)

    def test_random_unitary_invariance(self, lambda_one_cluster, rng):
        Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        U, _ = np.linalg.qr(Z)
        f = random_factor(6, 2, 0.5)
        rep0 = pt.perturbation_matrix(lambda_one_cluster, f)
        rotated = pt.unitary_rotate(lambda_one_cluster, U)
        rep1 = pt.perturbation_matrix(rotated, f)
        assert_allclose(np.sort(rep0.rates), np.sort(rep1.rates), atol=1e-10)
        # P transforms by conjugation with conj(U)
        assert_allclose(rep1.P, np.conj(U) @ rep0.P @ U.T, atol=1e-10)

    def test_rejects_non_unitary(self, lambda_one_cluster):
        with pytest.raises(ValueError, match="unitary"):
            pt.unitary_rotate(lambda_one_cluster, 2.0 * np.eye(6))


class TestQuaternionicBasis:
    def test_orthonormalize(self, lambda_one_cluster):
        basis = pt.quaternionic_orthonormalize(lambda_one_cluster)
        assert len(basis) == 3
        for i, phi in enumerate(basis):
            assert abs(phi.norm() - 1.0) < 1e-10
            assert abs(l2_inner(phi, apply_J_field(phi))) < 1e-10
            for j in range(i):
                assert abs(l2_inner(phi, basis[j])) < 1e-10
                assert abs(l2_inner(phi, apply_J_field(basis[j]))) < 1e-10


class TestAlphaBeta:
    def test_formula_p0_q0(self, lambda_one_cluster):
        basis = pt.quaternionic_orthonormalize(lambda_one_cluster)
        a, b = pt.alpha_beta(basis[0], basis[1], 0, 0)
        expected = (basis[0] + basis[1]) / np.sqrt(2.0)
        assert_allclose(a.coeffs, expected.coeffs, atol=1e-14)
        expected_b = (basis[0] - basis[1]) / np.sqrt(2.0)
        assert_allclose(b.coeffs, expected_b.coeffs, atol=1e-14)

    @pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_norms_and_eigen_residuals(self, lambda_one_cluster, p, q):
        basis = pt.quaternionic_orthonormalize(lambda_one_cluster)
        a, b = pt.alpha_beta(basis[0], basis[2], p, q)
        assert abs(a.norm() - 1.0) < 1e-10
        assert abs(b.norm() - 1.0) < 1e-10
        assert abs(a.norm() ** 2 + b.norm() ** 2 - 2.0) < 1e-10
        for x in (a, b):
            res = (apply_flat_dirac(x) - 1.0 * x).norm()
            assert res < 1e-10

    def test_span(self, lambda_one_cluster):
        basis = pt.quaternionic_orthonormalize(lambda_one_cluster)
        a, _ = pt.alpha_beta(basis[0], basis[1], 1, 1)
        span = np.column_stack(
            [
                basis[0].vector,
                basis[1].vector,
                apply_J_field(basis[1]).vector,
            ]
        )
        coef, *_ = np.linalg.lstsq(span, a.vector, rcond=None)
        assert np.linalg.norm(span @ coef - a.vector) < 1e-12

    def test_precondition_violation(self, lambda_one_cluster):
        fields = lambda_one_cluster.fields()
        bad = (fields[0] + fields[1]) / np.sqrt(2.0)
        with pytest.raises(ValueError):
            pt.alpha_beta(fields[0], bad * (1.0 / bad.norm() * 1.5), 0, 0)


class TestPointwiseGram:
    def test_self_gram_is_density(self, lambda_one_cluster):
        phi = lambda_one_cluster.fields()[0]
        G = 2 * (2 * phi.mode_set.N + 1)
        g = pt.pointwise_gram(phi, phi, G)
        rho = pointwise_density(phi, G)
        assert_allclose(g.h1.real, rho, atol=1e-12)
        assert np.max(np.abs(g.h1.imag)) < 1e-12
        assert g.sup_h1 >= phi.norm() ** 2 - 1e-10

    def test_J_partner_gram(self, lambda_one_cluster):
        phi = lambda_one_cluster.fields()[0]
        G = 2 * (2 * phi.mode_set.N + 1)
        g = pt.pointwise_gram(phi, apply_J_field(phi), G)
        rho = pointwise_density(phi, G)
        # h2(x) = <phi, J(J phi)> = -|phi|^2 pointwise
        assert_allclose(g.h2.real, -rho, atol=1e-12)
        assert_allclose(np.abs(g.h2), rho, atol=1e-12)

    def test_witness_bounded_away_from_zero(self, lambda_one_cluster, rng):
        # any two quaternionically orthonormal eigenvectors have a pointwise
        # Gram witness: sup|h1| + sup|h2| stays away from 0
        G = 2 * (2 * lambda_one_cluster.mode_set.N + 1)
        for _ in range(5):
            Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            U, _ = np.linalg.qr(Z)
            basis = pt.quaternionic_orthonormalize(
                pt.unitary_rotate(lambda_one_cluster, U)
            )
            g = pt.pointwise_gram(basis[0], basis[1], G)
            assert g.sup_h1 + g.sup_h2 > 0.5

    def test_grid_too_small(self, lambda_one_cluster):
        phi = lambda_one_cluster.fields()[0]
        with pytest.raises(ValueError, match="too small"):
            pt.pointwise_gram(phi, phi, 4)


class TestFdCheck:
    def test_constant_factor_exact_second_order(self, shifted_ms):
        ms = shifted_ms
        cl = pt.extract_cluster(ms, lam=0.5)
        c = 0.4
        fd = pt.fd_check(cl, ConformalFactor.constant(c), [1e-2, 1e-3])
        for t, m in zip(fd.t_values, fd.mismatches):
            expected = 0.5 * abs(np.exp(-t * c) - 1.0 + t * c)
            assert abs(m - expected) < 1e-12
        assert fd.order >= 1.9

    def test_zero_rate_even_factor_ratio_100(self, lambda_one_cluster):
        fd = pt.fd_check(
            lambda_one_cluster, ConformalFactor.cosine((2, 0, 0)), [1e-2, 1e-3]
        )
        ratio = fd.mismatches[0] / fd.mismatches[1]
        assert 50.0 < ratio < 200.0

    def test_splitting_factor_order_two(self, lambda_one_cluster):
        fd = pt.fd_check(
            lambda_one_cluster, ConformalFactor.cosine((0, 1, -1)), [1e-2, 1e-3, 1e-4]
        )
        assert fd.order >= 1.9

    def test_requires_decreasing_t(self, lambda_one_cluster):
        with pytest.raises(ValueError):
            pt.fd_check(lambda_one_cluster, ConformalFactor.constant(0.1), [1e-3, 1e-2])

    def test_not_isolated_error(self, shifted_ms):
        ms = shifted_ms
        cl = pt.extract_cluster(ms, lam=0.5)
        # a huge homothety drags the cluster out of its midpoint window
        # (constant factors have zero oscillation, so no range warning)
        with pytest.raises(ClusterNotIsolatedError):
            pt.deformed_cluster_values(ConformalFactor.constant(3.0), 0.9, cl)

    def test_report_serialization(self, shifted_ms):
        ms = shifted_ms
        cl = pt.extract_cluster(ms, lam=0.5)
        fd = pt.fd_check(cl, ConformalFactor.constant(0.2), [1e-2, 1e-3])
        doc = fd.to_json_dict()
        assert doc["t_values"] == [1e-2, 1e-3]
        assert len(doc["mismatches"]) == 2


class TestReportSerialization:
    def test_round_trip(self, lambda_one_cluster):
        rep = pt.perturbation_matrix(lambda_one_cluster, random_factor(3, 2, 0.5))
        doc = rep.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["lambda"] == 1.0 and doc["f_ref"] == rep.f_ref
        assert doc["rates"] == rep.rates.tolist()
        assert doc["quaternionic_rates"] == rep.quaternionic_rates.tolist()
        assert len(doc["rates"]) == 2 * len(doc["quaternionic_rates"]) == 6
        assert doc["min_gap"] == rep.min_gap

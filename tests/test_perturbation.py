import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from spintorus import perturbation as pt
from spintorus.conformal import (
    ConformalFactor,
    deformed_spectrum,
    factor_multiplication_matrix,
    flat_spectrum,
)
from spintorus.errors import ClusterNotIsolatedError
from spintorus.experiments import candidate_factors, random_factor
from spintorus.torus_dirac import (
    all_spin_structures,
    apply_J_coeffs,
    build_mode_set,
    closed_form_spectrum,
    field_on_grid,
    random_field,
)

from helpers import first_nonnegative_index, zero_field


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
        dense = deformed_spectrum(ConformalFactor.zero(), 0.0, ms, keep_vectors=True)
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

    def test_columns_are_J_orthogonal(self, lambda_one_cluster, shifted_ms, rng):
        # <phi, J phi> = 0 for every field, so for the columns of a J-closed
        # cluster in the extracted basis and in a rotated one
        for cl in (lambda_one_cluster, pt.extract_cluster(shifted_ms, lam=1.118034)):
            assert cl.j_closed
            Z = rng.standard_normal((cl.p_c, cl.p_c)) + 1j * rng.standard_normal((cl.p_c, cl.p_c))
            for V in (cl.vectors, cl.vectors @ np.linalg.qr(Z)[0].T):
                JV = apply_J_coeffs(cl.mode_set, V)
                assert np.max(np.abs(np.sum(V * JV.conj(), axis=0))) < 1e-14

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
        assert first_nonnegative_index(ms) == mult_c[keys < 0].sum()
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
        rho = np.sum(np.abs(field_on_grid(phi, 2 * (2 * ms.N + 1))) ** 2, axis=-1)
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
            vals = pt.deformed_cluster_values(f, t, cl).eigenvalues
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
    """Rates under a unitary change of the cluster basis, phi_i -> sum_j U_ij phi_j."""

    def test_random_unitary_invariance(self, lambda_one_cluster, rng):
        Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        U, _ = np.linalg.qr(Z)
        f = random_factor(6, 2, 0.5)
        rep0 = pt.perturbation_matrix(lambda_one_cluster, f)
        cl = lambda_one_cluster
        rotated = pt.EigenCluster(cl.mode_set, cl.lam, cl.vectors @ U.T, cl.j_closed)
        rep1 = pt.perturbation_matrix(rotated, f)
        assert_allclose(np.sort(rep0.rates), np.sort(rep1.rates), atol=1e-10)
        # P transforms by conjugation with conj(U)
        assert_allclose(rep1.P, np.conj(U) @ rep0.P @ U.T, atol=1e-10)


class TestClusterForm:
    """The cluster matrix, read on the cluster's shell, against the dense
    multiplication matrix (``factor_multiplication_matrix``)."""

    @pytest.mark.parametrize("delta", [(0, 0, 0), (1, 0, 0), (1, 1, 1)], ids=str)
    def test_flat_clusters_match_the_dense_form(self, delta, rng):
        ms = build_mode_set(3, delta)
        f = random_factor(8, 2, 0.5)
        F = factor_multiplication_matrix(f, ms)
        _, lams, _ = ms.flat_clusters
        inside = np.flatnonzero(np.abs(lams) <= ms.N - 0.5)
        assert len(inside) >= 5
        for index in inside:
            cl = pt.extract_cluster(ms, index=int(index))
            Z = rng.standard_normal((cl.p_c, cl.p_c)) + 1j * rng.standard_normal((cl.p_c, cl.p_c))
            U, _ = np.linalg.qr(Z)
            rotated = pt.EigenCluster(ms, cl.lam, cl.vectors @ U.T, cl.j_closed)
            for basis in (cl, rotated):
                V = basis.vectors
                P = -basis.lam * (V.conj().T @ F @ V)
                P = 0.5 * (P + P.conj().T)
                assert np.max(np.abs(pt.perturbation_matrix(basis, f).P - P)) <= 1e-14

    @pytest.mark.parametrize("delta, lam", [((0, 0, 0), 1.0), ((1, 0, 0), 1.118033988749895)],
                             ids=str)
    def test_showcase_clusters_keep_the_bits_of_the_symmetrized_lookup(self, delta, lam):
        # The cluster form before it gathered through assemble_multiplication
        # read the shell's lookup and symmetrized it; the cube is Hermitian,
        # so P keeps its bits for every single-frequency split candidate.
        def symmetrized_form(factor, mode_set, V):
            p = V.shape[1]
            W = V.reshape(mode_set.n_modes, 2, p)
            rows = np.any(W != 0, axis=(1, 2))
            k, W = mode_set.k_values[rows], W[rows]
            vals = factor.lookup(k)
            FW = np.tensordot(0.5 * (vals + vals.conj().T), W, axes=(1, 0))
            return W.reshape(-1, p).conj().T @ FW.reshape(-1, p)

        cl = pt.extract_cluster(build_mode_set(3, delta), lam)
        singles = list(candidate_factors(2, n_random=0))
        assert len(singles) == 2 * 62
        for f in singles:
            form = symmetrized_form(f, cl.mode_set, cl.vectors)
            assert pt._cluster_form(f, cl.mode_set, cl.vectors).tobytes() == form.tobytes()
            P = -cl.lam * form
            assert pt.perturbation_matrix(cl, f).P.tobytes() == (0.5 * (P + P.conj().T)).tobytes()

    def test_rate_single_of_a_full_field(self, shifted_ms, rng):
        f = random_factor(12, 2, 0.5)
        F = factor_multiplication_matrix(f, shifted_ms)
        phi = random_field(shifted_ms, rng)
        assert np.all(phi.coeffs != 0)
        expected = -0.7 * np.vdot(phi.vector, F @ phi.vector).real
        assert abs(pt.rate_single(0.7, phi, f) - expected) <= 1e-14

    def test_rate_path_allocates_no_dense_matrix(self):
        # one dim x dim complex array is 93.7 MB at N=5; the shell is 8 modes
        ms = build_mode_set(5, (1, 0, 0))
        f = random_factor(np.random.SeedSequence(601), 2, 0.3)
        tracemalloc.start()
        try:
            cl = pt.extract_cluster(ms, lam=1.118034)
            rep = pt.perturbation_matrix(cl, f)
            rate = pt.rate_single(cl.lam, cl.fields()[0], f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cl.p_c == 8 and rep.P.shape == (8, 8)
        assert abs(rep.P[0, 0].real - rate) < 1e-14
        assert peak < 5e6


class TestFdCheck:
    def test_constant_factor_exact_second_order(self, shifted_ms):
        ms = shifted_ms
        cl = pt.extract_cluster(ms, lam=0.5)
        c = 0.4
        f = ConformalFactor.constant(c)
        fd = pt.fd_check(cl, f, pt.perturbation_matrix(cl, f), [1e-2, 1e-3])
        for t, m in zip(fd.t_values, fd.mismatches):
            expected = 0.5 * abs(np.exp(-t * c) - 1.0 + t * c)
            assert abs(m - expected) < 1e-12
        assert fd.order >= 1.9

    def test_zero_rate_even_factor_ratio_100(self, lambda_one_cluster):
        f = ConformalFactor.cosine((2, 0, 0))
        fd = pt.fd_check(
            lambda_one_cluster, f, pt.perturbation_matrix(lambda_one_cluster, f), [1e-2, 1e-3]
        )
        ratio = fd.mismatches[0] / fd.mismatches[1]
        assert 50.0 < ratio < 200.0

    def test_splitting_factor_order_two(self, lambda_one_cluster):
        f = ConformalFactor.cosine((0, 1, -1))
        fd = pt.fd_check(
            lambda_one_cluster, f, pt.perturbation_matrix(lambda_one_cluster, f),
            [1e-2, 1e-3, 1e-4],
        )
        assert fd.order >= 1.9

    def test_kernel_fits_no_order(self, trivial_ms):
        # harmonic spinors are conformally invariant: the kernel stays at 0,
        # so its mismatches are roundoff and a fitted slope would be noise
        cl = pt.extract_cluster(trivial_ms, lam=0.0)
        f = ConformalFactor.cosine((0, 1, 1))
        fd = pt.fd_check(cl, f, pt.perturbation_matrix(cl, f), [1e-2, 1e-3])
        assert fd.order is None and fd.to_json_dict()["order"] is None
        assert max(fd.mismatches) <= 1e-14

    def test_requires_decreasing_t(self, lambda_one_cluster):
        with pytest.raises(ValueError):
            f = ConformalFactor.constant(0.1)
            pt.fd_check(lambda_one_cluster, f, pt.perturbation_matrix(lambda_one_cluster, f),
                        [1e-3, 1e-2])

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
        f = ConformalFactor.constant(0.2)
        fd = pt.fd_check(cl, f, pt.perturbation_matrix(cl, f), [1e-2, 1e-3])
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

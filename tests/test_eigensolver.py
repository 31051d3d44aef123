import dataclasses
import json
import mmap
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spintorus import eigensolver as es
from spintorus.conformal import (
    ConformalFactor,
    build_deformed_operator,
    deformed_spectrum,
    flat_spectrum,
)
from spintorus.errors import PositiveDefiniteError
from spintorus.experiments import random_factor
from spintorus.torus_dirac import (
    all_spin_structures,
    assemble_flat_dirac,
    build_mode_set,
    closed_form_spectrum,
    spectrum_csv_rows,
)

from helpers import ArrayWeight, first_nonnegative_index


def random_hermitian(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (Z + Z.conj().T)


def random_spd(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Z @ Z.conj().T + n * np.eye(n)


def random_symbols(rng, n):
    """n random Hermitian 2 x 2 blocks, shape (n, 2, 2)."""
    Z = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    return 0.5 * (Z + Z.conj().transpose(0, 2, 1))


def block_diag(symbols):
    """The dense A = blockdiag(symbols) that ``solve_gen_hermitian`` reads from its blocks."""
    return scipy.linalg.block_diag(*symbols)


def kron2(B_s):
    """The weight B = B_s (x) I_2 that ``solve_gen_hermitian`` reads from B_s."""
    return np.kron(B_s, np.eye(2))


def inverse_of_weight(ms):
    """M = L^{-1} for B_s = L L^H of the weight e^{tf} on ``ms``, at t = 0.05
    for the random factor f of seed 11."""
    weight = build_deformed_operator(random_factor(11, 2, 0.3), 0.05, ms).weight
    return es.inverse_factor(weight.B_s)


def mapping_rss(address):
    """Resident bytes of the mapping of this process that starts at
    ``address``, from /proc/self/smaps."""
    ours = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split()[0]
            if not head.endswith(":"):  # a mapping's first line: its address range
                ours = int(head.split("-")[0], 16) == address
            elif ours and head == "Rss:":
                return int(line.split()[1]) * 1024
    raise AssertionError(f"no mapping starts at {address:#x}")


class TestSolve:
    def test_plain_hermitian(self, rng):
        # B = I: the solve has no weightless case, so an identity weight
        S = random_symbols(rng, 6)
        w, V, _, _ = es.solve_gen_hermitian(S, ArrayWeight(np.eye(6)))
        assert_allclose(np.sort(np.linalg.eigvalsh(block_diag(S))), w, atol=1e-10)
        assert_allclose(V.conj().T @ V, np.eye(12), atol=1e-10)

    def test_diagonal_pair(self):
        S = np.array([np.diag(d) for d in ([2.0, -3.0], [5.0, 6.0], [-8.0, 1.0])], dtype=complex)
        B_s = np.diag([1.0, 2.0, 4.0]).astype(complex)
        w, _, _, _ = es.solve_gen_hermitian(S, ArrayWeight(B_s))
        assert_allclose(w, np.sort([2.0, -3.0, 2.5, 3.0, -2.0, 0.25]), atol=1e-14)

    def test_random_pair_residuals_and_gram(self, rng):
        S = random_symbols(rng, 25)
        A = block_diag(S)
        B_s = random_spd(rng, 25)
        B = kron2(B_s)
        w, V, res, _ = es.solve_gen_hermitian(S, ArrayWeight(B_s))
        assert_allclose(w, scipy.linalg.eigh(A, B, eigvals_only=True), atol=1e-12)
        # oracle: recompute residuals and B-Gram directly
        R = A @ V - B @ V * w[None, :]
        assert np.max(np.linalg.norm(R, axis=0)) < 1e-10 * max(1.0, np.abs(w).max())
        assert_allclose(V.conj().T @ B @ V, np.eye(50), atol=1e-10)
        assert res <= 1e-9 * max(1.0, np.abs(w).max())

    def test_held_factor_is_used(self, rng, monkeypatch):
        # The factors of B_s that reduce the pencil and map its vectors back
        # are the solve's own, and the residual gate checks them: a wrong
        # factor, 1.01 L in both places, trips it.
        S = random_symbols(rng, 10)
        B_s = random_spd(rng, 10)
        w, V, _, _ = es.solve_gen_hermitian(S, ArrayWeight(B_s))
        assert_allclose(
            w, scipy.linalg.eigh(block_diag(S), kron2(B_s), eigvals_only=True), atol=1e-12
        )
        cholesky_pd = es.cholesky_pd
        monkeypatch.setattr(es, "cholesky_pd", lambda a, what="": 1.01 * cholesky_pd(a, what))
        with pytest.raises(RuntimeError, match="residual"):
            es.solve_gen_hermitian(S, ArrayWeight(B_s))

    @pytest.mark.parametrize(
        ("window", "N"),
        [(None, 2), ((40, 59), 2), (None, 3), ((40, 99), 3)],
        ids=["full", "window", "full-N3", "window-N3"],
    )
    def test_bit_identical_to_one_held_factor(self, window, N):
        # The solve factors one gather of B_s in place for M = L^{-1} and a
        # copy of a second gather for L.  A reference that factors the same
        # B_s once with scipy.linalg.cholesky, keeps L through eigh, maps
        # the vectors back with trsm and takes the residual of all columns
        # at once gives the same bits.  At N=3 C is built, and the residual
        # taken, in several panels; the window of 60 pairs far below zero
        # has a block of most of the spectrum, so it is solved in double.
        ms = build_mode_set(N, (1, 0, 0))
        op = build_deformed_operator(random_factor(11, 2, 0.3), 0.05, ms)
        B_s = np.ascontiguousarray(op.weight.B_s)
        w, V, res, _ = es.solve_gen_hermitian(ms.symbols, op.weight, subset_by_index=window)
        L = scipy.linalg.cholesky(B_s, lower=True)
        C = es._reduce(ms.symbols, scipy.linalg.lapack.ztrtri(L, lower=1)[0])
        w_ref, Y = scipy.linalg.eigh(C, subset_by_index=window, overwrite_a=True,
                                     driver=None if window else "evd")
        k = Y.shape[1]
        X = scipy.linalg.blas.ztrsm(1.0, L, np.hstack([Y[0::2], Y[1::2]]), lower=1, trans_a=2)
        V_ref = np.empty((ms.dim, k), dtype=complex)
        V_ref[0::2], V_ref[1::2] = X[:, :k], X[:, k:]
        V_ref = es.canonicalize_phases(V_ref)
        R = es.apply_symbols(ms.symbols, V_ref) - es.apply_weight(B_s, V_ref) * w_ref
        assert w.tobytes() == w_ref.tobytes()
        assert V.tobytes() == V_ref.tobytes()
        assert res == float(np.linalg.norm(R, axis=0).max())

    def test_not_positive_definite(self, rng):
        S = random_symbols(rng, 3)
        B_s = np.diag([1.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(PositiveDefiniteError):
            es.solve_gen_hermitian(S, ArrayWeight(B_s))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            es.solve_gen_hermitian(random_symbols(rng, 3), ArrayWeight(random_spd(rng, 6)))
        # a dense A is not accepted in place of its blocks
        with pytest.raises(ValueError):
            es.solve_gen_hermitian(random_hermitian(rng, 6), ArrayWeight(random_spd(rng, 3)))

    def test_reduction_matches_dense_congruence(self, rng):
        S = random_symbols(rng, 9)
        L = scipy.linalg.cholesky(random_spd(rng, 9), lower=True)
        C = es._reduce(S, scipy.linalg.lapack.ztrtri(L, lower=1)[0])
        assert C.flags.f_contiguous and C.shape == (18, 18)
        Minv = kron2(np.linalg.inv(L))
        # only the lower triangle, all that eigh reads, is written
        assert_allclose(C, np.tril(Minv @ block_diag(S) @ Minv.conj().T), atol=1e-13)

    @pytest.mark.parametrize("symbols", ["dirac", "random"])
    def test_panelled_reduction_is_bit_identical_to_whole_blocks(self, rng, symbols):
        # The lower triangle of C, which is all that eigh reads, built a
        # panel of columns at a time, with the (1, 1) block the negated
        # (0, 0) block for Dirac symbols, has the bits of C built from whole
        # n x n blocks, one trmm each.  n = 294 modes is above the panel
        # width and not a multiple of it.
        ms = build_mode_set(3, (1, 0, 0))
        n = ms.n_modes
        assert n > es.REDUCE_PANEL and n % es.REDUCE_PANEL
        S = ms.symbols if symbols == "dirac" else random_symbols(rng, n)
        assert np.array_equal(S[:, 1, 1], -S[:, 0, 0]) == (symbols == "dirac")
        M = inverse_of_weight(ms)
        W = np.empty((n, n), dtype=complex, order="F")
        C_ref = np.zeros((2 * n, 2 * n), dtype=complex, order="F")
        for a, b in ((0, 0), (1, 1), (1, 0)):
            np.conjugate(M.T, out=W)
            W *= S[:, a, b, None]
            C_ref[a::2, b::2] = scipy.linalg.blas.ztrmm(1.0, M, W, lower=1, overwrite_b=1)
        np.conjugate(C_ref[1::2, 0::2].T, out=C_ref[0::2, 1::2])
        C = es._reduce(S, M)
        assert C.flags.f_contiguous
        assert np.tril(C).tobytes(order="F") == np.tril(C_ref).tobytes(order="F")

    def test_reduction_stores_only_the_lower_triangle(self):
        # Not even inside a panel's diagonal square is an entry above the
        # diagonal written.  n = 294 modes spans three panels.
        ms = build_mode_set(3, (1, 0, 0))
        C = es._reduce(ms.symbols, inverse_of_weight(ms))
        assert C.dtype == np.complex128 and C.flags.f_contiguous
        assert not np.triu(C, 1).any()

    def test_non_finite_reduction_is_refused_before_eigh(self, rng, monkeypatch):
        # eigh runs without its finiteness check, so the reduction makes it:
        # a NaN in M = L^{-1} raises eigh's ValueError (exit code 3 in the
        # CLI), and eigh is never called; so does an infinite symbol with a
        # finite weight.  n = 150 modes spans two panels.
        n = 150
        S = random_symbols(rng, n)
        M = scipy.linalg.lapack.ztrtri(
            scipy.linalg.cholesky(random_spd(rng, n), lower=True), lower=1
        )[0]
        M[140, 130] = np.nan

        def eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        with monkeypatch.context() as m:
            m.setattr(es, "inverse_factor", lambda B_s, what="": M)
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                es.solve_gen_hermitian(S, ArrayWeight(random_spd(rng, n)))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"), \
                np.errstate(invalid="ignore"):
            es.solve_gen_hermitian(np.where(np.arange(n)[:, None, None] == 7, np.inf, S),
                                   ArrayWeight(random_spd(rng, n)))

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or mmap.PAGESIZE > 4096,
        reason="reads /proc/self/smaps; needs pages smaller than a column of C",
    )
    def test_upper_half_of_c_stays_out_of_memory(self, monkeypatch):
        # In its own mapping without huge pages, the strictly upper half of
        # C, which _reduce does not write and eigh does not read, stays out
        # of memory: not after the reduction and not after eigh.  The pages
        # that hold entries on or below the diagonal are 0.67 of C at N=4,
        # where a column is 5 pages (0.84 at N=3, where it is 2.3 pages);
        # writing the upper half of each panel's diagonal square too makes
        # it 0.75, and a C written whole is 1.0.
        monkeypatch.setattr(es, "OWN_MAPPING_BYTES", 0)
        ms = build_mode_set(4, (1, 0, 0))
        M = inverse_of_weight(ms)
        C = es._reduce(ms.symbols, M)

        def resident_share():
            return mapping_rss(C.ctypes.data) / C.nbytes

        assert resident_share() <= 0.7
        scipy.linalg.eigh(C, subset_by_index=(600, 700), overwrite_a=True, check_finite=False)
        assert resident_share() <= 0.7

    @pytest.mark.parametrize("spin", [(0, 0, 0), (1, 0, 0)], ids=str)
    def test_t_zero_closed_form_agrees_with_dense_eigh(self, spin):
        # The flat pencil is solved in closed form: whole and in windows
        # that cut shells, its eigenvalues agree with dense eigh of A to
        # 1e-13 relative with the same multiplicities, the kernel is exactly
        # 0.0, the vectors are orthonormal (B = I) eigenvectors, and
        # residual_max is their largest residual.
        ms = build_mode_set(2, spin)
        A = assemble_flat_dirac(ms)
        w_ref = scipy.linalg.eigvalsh(A)
        i0 = first_nonnegative_index(ms)
        for window in (None, (i0 - 3, i0 + 12), (0, 4), (ms.dim - 7, ms.dim - 1)):
            lo, hi = window or (0, ms.dim - 1)
            res = deformed_spectrum(ConformalFactor.zero(), 0.0, ms, keep_vectors=True,
                                    subset_by_index=window)
            w, V, ref = res.eigenvalues, res.vectors, w_ref[lo : hi + 1]
            assert np.all(np.abs(w - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
            assert ([c.mult_c for c in res.clusters]
                    == [c.mult_c for c in es.cluster_eigenvalues(ref, es.TAU_REL_DEGENERATE)])
            assert res.B_s is None
            assert_allclose(V.conj().T @ V, np.eye(hi - lo + 1), atol=1e-15)
            residuals = np.linalg.norm(A @ V - V * w, axis=0)
            assert res.residual_max == pytest.approx(residuals.max(), abs=1e-15)
            assert res.residual_max <= es.RESIDUAL_BOUND * max(1.0, np.abs(w).max())
        w = deformed_spectrum(ConformalFactor.zero(), 0.0, ms).eigenvalues
        assert np.count_nonzero(w == 0.0) == (2 if spin == (0, 0, 0) else 0)
        assert np.count_nonzero(np.abs(w) < 0.4) == np.count_nonzero(w == 0.0)

    def test_phase_canonicalization(self, rng):
        V = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        C = es.canonicalize_phases(V.copy())
        for j in range(3):
            col = np.abs(C[:, j])
            i = int(np.argmax(col > 1e-8 * col.max()))
            assert C[i, j].imag == pytest.approx(0.0, abs=1e-14)
            assert C[i, j].real > 0
        # idempotent, and in place
        assert_allclose(es.canonicalize_phases(C.copy()), C)
        assert es.canonicalize_phases(V) is V
        assert V.tobytes() == C.tobytes()

    @staticmethod
    def canonicalize_by_column(V):
        """The column loop that ``canonicalize_phases`` replaces."""
        V = np.array(V, copy=True)
        absV = np.abs(V)
        for j in range(V.shape[1]):
            col = absV[:, j]
            m = col.max()
            if m == 0.0:
                continue
            i = int(np.argmax(col > 1e-8 * m))
            z = V[i, j]
            if z != 0:
                V[:, j] *= np.conj(z) / abs(z)
        return V

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_phases_bit_identical_to_column_loop(self, rng, order):
        # Columns with magnitudes over 40 decades, leading entries below the
        # 1e-8 cut, and zero columns.  Bit identity needs two rows or more
        # (solve vectors have 2 per mode): numpy multiplies a one-element
        # column in place along another path, which may round differently in
        # the last bit, so one-row vectors are compared to a few ulps.
        for _ in range(40):
            n, k = int(rng.integers(2, 120)), int(rng.integers(0, 30))
            V = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            V *= 10.0 ** rng.uniform(-20, 20, size=k)
            V[: int(rng.integers(0, n)), :] *= 1e-9
            V[:, rng.random(k) < 0.2] = 0.0
            V = np.asarray(V, order=order)
            out = es.canonicalize_phases(V.copy(order="K"))
            assert out.shape == V.shape
            assert out.tobytes() == self.canonicalize_by_column(V).tobytes()
        V = rng.standard_normal((1, 30)) + 1j * rng.standard_normal((1, 30))
        ref = self.canonicalize_by_column(V)
        assert np.all(np.abs(es.canonicalize_phases(V) - ref) <= 4 * np.finfo(float).eps * np.abs(ref))


def _operand(rng, shape, layout, dtype=complex):
    """A random operand of the given shape as ``layout``: "C", "F" or "H" (a
    ``.conj().T`` view of a C-ordered array)."""
    if layout == "H":
        return _operand(rng, shape[::-1], "C", dtype).conj().T
    x = rng.standard_normal(shape)
    if dtype is complex:
        x = x + 1j * rng.standard_normal(shape)
    return np.asarray(x, order=layout)


class TestBlasMatmul:
    @pytest.mark.parametrize("layout_b", ["C", "F", "H"])
    @pytest.mark.parametrize("layout_a", ["C", "F", "H"])
    def test_matches_numpy_product(self, rng, layout_a, layout_b):
        a = _operand(rng, (30, 20), layout_a)
        b = _operand(rng, (20, 7), layout_b)
        ref = a @ b
        out = es.blas_matmul(a, b)
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_real_matrix_complex_vectors(self, rng, layout):
        a = _operand(rng, (25, 25), layout, dtype=float)
        b = _operand(rng, (25, 4), "F")
        ref = a @ b
        out = es.blas_matmul(a, b)
        assert out.dtype == np.complex128
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("layout", ["C", "F", "H"])
    def test_matrix_is_not_copied(self, rng, layout):
        a = _operand(rng, (400, 400), layout)
        b = _operand(rng, (400, 3), "F")
        tracemalloc.start()
        try:
            es.blas_matmul(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes // 10

    def test_zero_columns(self, rng):
        a = _operand(rng, (12, 12), "C")
        assert es.blas_matmul(a, np.zeros((12, 0), complex, order="F")).shape == (12, 0)


def _failing_eigh(message):
    def eigh(*args, **kwargs):
        raise np.linalg.LinAlgError(message)

    return eigh


class TestSolverErrors:
    def test_pd_message_maps_to_pd_error(self, rng, monkeypatch):
        def failing_cholesky(*args, **kwargs):
            raise scipy.linalg.LinAlgError("2-th leading minor of the array is not positive definite")

        monkeypatch.setattr(scipy.linalg, "cholesky", failing_cholesky)
        with pytest.raises(PositiveDefiniteError):
            es.solve_gen_hermitian(random_symbols(rng, 3), ArrayWeight(random_spd(rng, 3)))

    def test_other_failure_is_runtime_error(self, rng, monkeypatch):
        monkeypatch.setattr(
            scipy.linalg, "eigh", _failing_eigh("2 eigenvectors failed to converge.")
        )
        with pytest.raises(RuntimeError, match="failed to converge") as info:
            es.solve_gen_hermitian(
                random_symbols(rng, 3), ArrayWeight(random_spd(rng, 3)), subset_by_index=(0, 2)
            )
        assert not isinstance(info.value, PositiveDefiniteError)

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity", "weighted"])
    @pytest.mark.parametrize("where", ["vector", "eigenvalue"])
    def test_nan_fails_the_residual_gate(self, rng, monkeypatch, weighted, where):
        # Every comparison with NaN is false, so a NaN residual or eigenvalue
        # must fail a gate that asks for the residual to be within its bound.
        real_eigh = scipy.linalg.eigh

        def nan_pair(*args, **kwargs):
            w, V = real_eigh(*args, **kwargs)
            if where == "vector":
                V[:, 1] = np.nan
            else:
                w[1] = np.nan
            return w, V

        monkeypatch.setattr(scipy.linalg, "eigh", nan_pair)
        weight = ArrayWeight(random_spd(rng, 4) if weighted else np.eye(4))
        with pytest.raises(RuntimeError, match="residual nan"), np.errstate(invalid="ignore"):
            es.solve_gen_hermitian(random_symbols(rng, 4), weight)


class TestWindowedSolve:
    def test_index_window_matches_full_solve(self, rng):
        S = random_symbols(rng, 20)
        B_s = random_spd(rng, 20)
        B = kron2(B_s)
        w_full, _, _, _ = es.solve_gen_hermitian(S, ArrayWeight(B_s))
        assert_allclose(w_full, scipy.linalg.eigh(block_diag(S), B, eigvals_only=True), atol=1e-12)
        w, V, res, _ = es.solve_gen_hermitian(S, ArrayWeight(B_s), subset_by_index=(10, 17))
        assert V.shape == (40, 8)
        assert_allclose(w, w_full[10:18], atol=1e-12)
        assert_allclose(V.conj().T @ B @ V, np.eye(8), atol=1e-10)
        assert res <= es.RESIDUAL_BOUND * max(1.0, np.abs(w).max())

    def test_residual_gate_covers_windowed_pairs(self, rng, monkeypatch):
        real_eigh = scipy.linalg.eigh

        def perturbed(*args, **kwargs):
            w, V = real_eigh(*args, **kwargs)
            return w + 1e-6, V

        monkeypatch.setattr(scipy.linalg, "eigh", perturbed)
        S = random_symbols(rng, 15)
        B_s = random_spd(rng, 15)
        with pytest.raises(RuntimeError, match="residual"):
            es.solve_gen_hermitian(S, ArrayWeight(B_s), subset_by_index=(5, 9))

    @pytest.mark.parametrize("spin", all_spin_structures(), ids=str)
    def test_sylvester_index_counts_negative_eigenvalues(self, spin):
        ms = build_mode_set(2, spin)
        res = deformed_spectrum(random_factor(3, 2, 0.3), 0.05, ms, keep_vectors=False)
        i0 = first_nonnegative_index(ms)
        assert int(np.sum(res.eigenvalues < -1e-8)) == i0
        assert res.eigenvalues[i0] > -1e-8
        if spin.delta == (0, 0, 0):
            assert_allclose(res.eigenvalues[i0 : i0 + 2], 0.0, atol=1e-12)
            assert res.eigenvalues[i0 + 2] > 1e-8
        else:
            assert res.eigenvalues[i0] > 1e-8

    def test_deformed_index_window_matches_full(self):
        ms = build_mode_set(2, (0, 1, 1))
        f = random_factor(5, 2, 0.3)
        full = deformed_spectrum(f, 0.05, ms, keep_vectors=False)
        i0 = first_nonnegative_index(ms)
        win = deformed_spectrum(
            f, 0.05, ms, keep_vectors=False, subset_by_index=(i0, i0 + 19)
        )
        assert_allclose(win.eigenvalues, full.eigenvalues[i0 : i0 + 20], atol=1e-12)
        assert win.residual_max <= es.RESIDUAL_BOUND * max(1.0, win.eigenvalues.max())


class TestClustering:
    def test_distinct_values(self):
        clusters = es.cluster_eigenvalues([1.0, 2.0, 4.0], 1e-6)
        assert [c.mult_c for c in clusters] == [1, 1, 1]
        assert not clusters[0].kramers_ok  # odd multiplicity flagged

    def test_six_copies(self):
        vals = 1.0 + 1e-12 * np.arange(6)
        clusters = es.cluster_eigenvalues(vals, 1e-6)
        assert len(clusters) == 1
        assert clusters[0].mult_c == 6
        assert clusters[0].mult_h == 3
        assert clusters[0].kramers_ok

    def test_absolute_tolerance(self):
        vals = [0.0, 5e-9, 1.0, 1.0 + 5e-9, 1e3, 1e3 + 1e-7]
        groups = es.cluster_eigenvalues(vals, tau_abs=1e-8)
        assert [c.mult_c for c in groups] == [2, 2, 1, 1]
        assert groups[0].lam == 2.5e-9 and groups[-1].lam == 1e3 + 1e-7
        # the relative tolerance scales with |value| and joins the last pair
        assert [c.mult_c for c in es.cluster_eigenvalues(vals, 1e-9)] == [1, 1, 1, 1, 2]

    def test_flat_spectrum_matches_oracle(self):
        ms = build_mode_set(3, (0, 0, 0))
        res = flat_spectrum(ms)
        radius = ms.N - 0.5
        expected = {}
        for line in closed_form_spectrum((0, 0, 0), radius):
            expected[round(line.lam, 9)] = (line.mult_c, line.mult_h)
            if line.lam > 0:
                expected[round(-line.lam, 9)] = (line.mult_c, line.mult_h)
        got = {
            round(c.lam, 9): (c.mult_c, c.mult_h)
            for c in res.clusters
            if abs(c.lam) <= radius
        }
        assert got == expected

    def test_bit_equal_members_give_their_value(self):
        # the mean of 36 copies rounds one ulp above them (the sqrt(18) shell
        # of delta = (0,0,0) at N = 5); members that differ keep their mean
        lam = 4.242640687119285
        assert np.full(36, lam).mean() != lam
        assert es.cluster_eigenvalues(np.full(36, lam), 1e-6)[0].lam == lam
        assert es.cluster_eigenvalues([1.0, 1.0 + 2e-9], 1e-6)[0].lam == 1.0 + 1e-9

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_flat_clusters_are_the_flat_lines_bit_for_bit(self, N):
        for spin in all_spin_structures():
            ms = build_mode_set(N, spin)
            lams = [c.lam for c in flat_spectrum(ms).clusters]
            assert lams == ms.flat_clusters[1].tolist()

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            es.cluster_eigenvalues([2.0, 1.0], 1e-6)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=30
        )
    )
    def test_idempotent_on_representatives(self, values):
        values = sorted(values)
        clusters = es.cluster_eigenvalues(values, 1e-6)
        reps = [c.lam for c in clusters]
        again = es.cluster_eigenvalues(reps, 1e-6)
        assert [c.mult_c for c in again] == [1] * len(reps)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=40
        )
    )
    def test_partition_is_complete(self, values):
        values = sorted(values)
        clusters = es.cluster_eigenvalues(values, 1e-6)
        assert sum(c.mult_c for c in clusters) == len(values)
        assert [c.start for c in clusters] == sorted(c.start for c in clusters)


class TestSpectrumResultSerialization:
    def test_round_trip(self):
        ms = build_mode_set(1, (1, 0, 0))
        res = flat_spectrum(ms)
        doc = res.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["eigenvalues"] == res.eigenvalues.tolist()
        assert doc["clusters"] == [
            {"lambda": c.lam, "mult_c": c.mult_c, "mult_h": c.mult_h} for c in res.clusters
        ]
        assert sum(c["mult_c"] for c in doc["clusters"]) == ms.dim
        assert doc["meta"]["delta"] == [1, 0, 0] and doc["meta"]["N"] == 1
        assert doc["meta"]["t"] == 0.0 and doc["meta"]["trust_radius"] is None
        assert doc["residual_max"] == res.residual_max

    def test_csv_rows(self):
        ms = build_mode_set(1, (1, 0, 0))
        res = flat_spectrum(ms)
        rows = spectrum_csv_rows(res.clusters)
        assert rows[0] == ("lambda", "mult_complex", "mult_quaternionic")
        assert len(rows) == len(res.clusters) + 1
        c = res.clusters[0]
        assert rows[1] == (repr(c.lam), str(c.mult_c), str(c.mult_h))


class TestCurveMatching:
    def test_identical_snapshots(self):
        ms = build_mode_set(1, (1, 0, 0))
        a = deformed_spectrum(ConformalFactor.zero(), 0.0, ms, keep_vectors=True)
        b = deformed_spectrum(ConformalFactor.zero(), 0.0, ms, keep_vectors=True)
        fam = es.match_curves([a, b])
        assert not fam.ambiguous
        assert not any(fam.flagged)
        assert_allclose(fam.trajectories[:, 0], fam.trajectories[:, 1])
        assert np.min(fam.overlaps) > 0.999999

    def test_homothety_trajectories(self):
        ms = build_mode_set(1, (1, 0, 0))
        c = 0.2
        ts = [0.0, 0.1, 0.2, 0.3]
        snaps = [
            deformed_spectrum(ConformalFactor.constant(c), t, ms, keep_vectors=True) for t in ts
        ]
        fam = es.match_curves(snaps)
        assert not fam.ambiguous
        base = fam.trajectories[:, 0]
        for k, t in enumerate(ts):
            assert_allclose(fam.trajectories[:, k], np.exp(-t * c) * base, atol=1e-10)

    def test_splitting_slopes_match_rates(self):
        from spintorus.perturbation import extract_cluster, perturbation_matrix

        ms = build_mode_set(3, (0, 0, 0))
        factor = ConformalFactor.cosine((0, 1, -1))
        ts = [0.0, 0.005, 0.01, 0.015, 0.02]
        snaps = [deformed_spectrum(factor, t, ms, keep_vectors=True) for t in ts]
        fam = es.match_curves(snaps)
        traj = fam.trajectories
        sel = np.abs(traj[:, 0] - 1.0) < 1e-9
        assert np.sum(sel) == 6
        slopes = np.sort([np.polyfit(ts, row, 1)[0] for row in traj[sel]])
        cluster = extract_cluster(ms, lam=1.0)
        rates = np.sort(perturbation_matrix(cluster, factor).rates)
        # 5% of the natural first-order scale |lambda| * sup|f|
        assert np.max(np.abs(slopes - rates)) <= 0.05 * factor.sup_abs()

    def test_t_zero_basis_leaves_trajectories_unchanged(self, rng):
        # Trajectories are ordered by their whole row, so the basis that a
        # t = 0 snapshot holds inside each degenerate shell, where its
        # trajectories tie, does not reach them: a random unitary rotation
        # inside every shell leaves them bit-identical.
        ms = build_mode_set(2, (1, 0, 0))
        f = random_factor(11, 2, 0.3)
        snaps = [deformed_spectrum(f, t, ms, keep_vectors=True) for t in (0.0, 0.02, 0.04)]
        rotated = deformed_spectrum(f, 0.0, ms, keep_vectors=True)
        for c in rotated.clusters:
            p = c.stop - c.start
            Q, _ = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
            rotated.vectors[:, c.start : c.stop] = rotated.vectors[:, c.start : c.stop] @ Q
        assert max(c.mult_c for c in rotated.clusters) > 2
        fam, again = (es.match_curves([first, *snaps[1:]]) for first in (snaps[0], rotated))
        assert not fam.ambiguous and not again.ambiguous
        assert fam.trajectories.tobytes() == again.trajectories.tobytes()

    def test_dimension_mismatch(self):
        a, b = (
            deformed_spectrum(
                ConformalFactor.zero(), 0.0, build_mode_set(N, (1, 0, 0)), keep_vectors=True
            )
            for N in (1, 2)
        )
        with pytest.raises(ValueError):
            es.match_curves([a, b])

    def test_lipschitz_flagging(self):
        ms = build_mode_set(1, (1, 0, 0))
        c = 0.2
        snaps = [
            deformed_spectrum(ConformalFactor.constant(c), t, ms, keep_vectors=True)
            for t in (0.0, 0.1, 0.2)
        ]
        # rates are -lambda c, well inside the bound scale sup|f| = c
        fam = es.match_curves(snaps, rate_bound=c)
        assert not any(fam.flagged)
        # an absurdly small rate bound flags every moving trajectory
        fam2 = es.match_curves(snaps, rate_bound=1e-12)
        assert any(fam2.flagged)

    def test_csv_rows(self):
        ms = build_mode_set(1, (1, 1, 1))
        snaps = [
            deformed_spectrum(ConformalFactor.zero(), 0.0, ms, keep_vectors=True) for _ in range(2)
        ]
        fam = es.match_curves(snaps)
        rows = fam.csv_rows()
        assert rows[0] == ("t", "trajectory_id", "lambda")
        assert len(rows) == 1 + 2 * fam.trajectories.shape[0]

    def test_streams_two_snapshots_at_a_time(self):
        ms = build_mode_set(1, (1, 0, 0))
        ts = (0.0, 0.1, 0.2, 0.3)
        refs, alive = [], []

        def snapshots():
            for t in ts:
                snap = deformed_spectrum(ConformalFactor.constant(0.2), t, ms, keep_vectors=True)
                refs.append(weakref.ref(snap))
                alive.append(sum(r() is not None for r in refs))
                yield snap

        fam = es.match_curves(snapshots())
        assert max(alive) == 2
        listed = es.match_curves(list(snapshots()))
        assert fam.trajectories.tobytes() == listed.trajectories.tobytes()
        assert fam.t_values == list(ts)

    @pytest.mark.parametrize("count", [0, 1])
    def test_an_iterator_needs_two_snapshots(self, count):
        ms = build_mode_set(1, (1, 0, 0))
        snaps = (
            deformed_spectrum(ConformalFactor.zero(), 0.0, ms, keep_vectors=True)
            for _ in range(count)
        )
        with pytest.raises(ValueError, match="at least two snapshots"):
            es.match_curves(snaps)


def genericity_window(ms, m_clusters=3):
    """The index window that ``lowest_positive_clusters`` solves first: the
    flat clusters from the kernel through ``m_clusters`` positive shells, and
    one eigenpair past each edge (inclusive bounds)."""
    keys, starts = ms.flat_clusters[0], ms.cluster_starts
    a = np.searchsorted(keys, 0)
    b = np.searchsorted(keys, 0, side="right") + m_clusters
    return int(starts[a]) - 1, int(starts[b])


def fd_window(ms, lam):
    """The index window that ``perturbation.deformed_cluster_values`` solves
    for the flat cluster at ``lam`` > 0: the cluster and one eigenpair past
    each edge (inclusive bounds)."""
    keys, starts = ms.flat_clusters[0], ms.cluster_starts
    c = int(np.searchsorted(keys, round(4 * lam * lam)))
    return int(starts[c]) - 1, int(starts[c + 1])


class TestMixedWindow:
    """Deformed index windows: solved by the certified block Davidson stage
    on the free inverse (``_shell_window``), or left to the double path.
    The class keeps the name of the mixed-precision window solve that the
    stage replaced, so that its test ids stay the same."""

    @staticmethod
    def spy(monkeypatch):
        """A list that records, per call of ``_shell_window``, whether it
        returned a result (True) or left the solve to the double path."""
        taken = []
        stage = es._shell_window

        def spy(*args):
            out = stage(*args)
            taken.append(out is not None)
            return out

        monkeypatch.setattr(es, "_shell_window", spy)
        return taken

    @staticmethod
    def in_double(monkeypatch, solve):
        """``solve()`` with the shell-window stage switched off."""
        with monkeypatch.context() as m:
            m.setattr(es, "_shell_window", lambda *args: None)
            return solve()

    def assert_agrees(self, shell, double):
        w, w_ref = shell.eigenvalues, double.eigenvalues
        assert np.all(np.abs(w - w_ref) <= 1e-13 * np.maximum(1.0, np.abs(w_ref)))
        assert [c.mult_c for c in shell.clusters] == [c.mult_c for c in double.clusters]

    def test_path_applies_to_small_windows_from_the_dim_floor(self, monkeypatch):
        # N = 2 stays on the double path.  At N = 3 the stage takes the
        # genericity window, whose block holds 30 pairs, from the dim floor
        # up and while 30 * SHELL_BLOCK_SHARE <= dim = 588.
        assert es.SHELL_MIN_DIM > max(build_mode_set(2, s).dim for s in all_spin_structures())
        ms = build_mode_set(3, (1, 0, 0))
        weight = build_deformed_operator(random_factor(11, 2, 0.3), 0.05, ms).weight
        window = genericity_window(ms)
        a, b = es._shell_block(ms, *window)
        assert ms.cluster_starts[b] - ms.cluster_starts[a] == 30

        def taken(**constants):
            with monkeypatch.context() as m:
                for name, value in constants.items():
                    m.setattr(es, name, value)
                return es._shell_window(ms.symbols, weight, *window) is not None

        assert taken(SHELL_MIN_DIM=ms.dim) and not taken(SHELL_MIN_DIM=ms.dim + 1)
        assert taken(SHELL_BLOCK_SHARE=19) and not taken(SHELL_BLOCK_SHARE=20)
        # 60 pairs far below zero: the block is most of the spectrum
        assert es._shell_window(ms.symbols, weight, 0, 59) is None
        assert es._shell_window(ms.symbols, weight, 300, 290) is None  # left to eigh to refuse

    def test_block_reaches_from_the_window_to_zero(self):
        ms = build_mode_set(3, (1, 0, 0))
        keys, starts = ms.flat_clusters[0], ms.cluster_starts
        z = int(np.searchsorted(keys, 0))  # the first positive cluster; no kernel
        # the genericity window: from the last negative eigenvalue through
        # the first pair of the fourth positive shell
        assert es._shell_block(ms, *genericity_window(ms)) == (z - 1, z + 4)
        # a window inside the second positive shell, and one of negative
        # eigenvalues: each side's shells down to zero
        assert es._shell_block(ms, int(starts[z + 1]) + 1, int(starts[z + 1]) + 2) == (z, z + 2)
        assert es._shell_block(ms, int(starts[z - 3]), int(starts[z - 2])) == (z - 3, z)
        kernel = build_mode_set(3, (0, 0, 0))
        k = int(np.searchsorted(kernel.flat_clusters[0], 0))
        assert kernel.flat_clusters[0][k] == 0
        assert es._shell_block(kernel, *fd_window(kernel, 1.0)) == (k, k + 3)

    def test_range_bounds_bracket_the_weight(self):
        # The spectrum of B_s lies in [b_lo, b_hi], e^{tf}'s certified range
        # widened by the block's l1 error, at N = 3 for every spin structure,
        # t of both signs up to 0.3, random factors of three seeds, a cosine
        # and a factor of degree 8 > 2N.  The block depends on f and t only,
        # so each spin structure reads the weight of the first one.
        factors = [random_factor(seed, 2, 0.3) for seed in (3, 7, 11)]
        factors += [ConformalFactor.cosine((1, -1, 0)), random_factor(11, 8, 0.3)]
        mode_sets = [build_mode_set(3, spin) for spin in all_spin_structures()]
        for f in factors:
            for t in (-0.05, 0.05, 0.1, 0.2, 0.3):
                weight = build_deformed_operator(f, t, mode_sets[0]).weight
                for ms in mode_sets:
                    w = dataclasses.replace(weight, mode_set=ms)
                    b_lo, b_hi = w.bounds
                    ev = np.linalg.eigvalsh(w.B_s)
                    assert 0 < b_lo <= ev[0] and ev[-1] <= b_hi

    @pytest.mark.parametrize("spin", all_spin_structures(), ids=str)
    def test_sweep_agrees_with_double(self, spin, monkeypatch):
        # The genericity window at N = 3 (of fewer positive shells where the
        # block of three holds more than dim / 8 pairs) for four random
        # factors of sup|f| = 0.3 and two unit cosines at t = 0.05 and 0.15.
        # Every solve takes the stage, except the cosines' at t = 0.15, whose
        # e^{0.3} exceeds every block's edge ratio (at most 1.32).  The
        # eigenvalues agree with zheevr to 1e-13 relative, and the clusters
        # at tau = 1e-9 have the same multiplicities.
        ms = build_mode_set(3, spin)
        starts = ms.cluster_starts

        def block_size(window):
            a, b = es._shell_block(ms, *window)
            return int(starts[b] - starts[a])

        window = next(w for w in (genericity_window(ms, m) for m in (3, 2, 1))
                      if block_size(w) * es.SHELL_BLOCK_SHARE <= ms.dim)
        factors = [random_factor(seed, 2, 0.3) for seed in (3, 5, 7, 11)]
        factors += [ConformalFactor.cosine((0, 1, -1)), ConformalFactor.cosine((1, 0, 0))]
        taken = self.spy(monkeypatch)
        for t in (0.05, 0.15):
            for f in factors:
                def solve(f=f, t=t):
                    return deformed_spectrum(f, t, ms, subset_by_index=window)

                self.assert_agrees(solve(), self.in_double(monkeypatch, solve))
        assert taken == [True] * 6 + [True] * 4 + [False] * 2

    @pytest.mark.parametrize("t", [0.05, 0.3])
    def test_window_edges_cutting_kramers_pairs_and_split_shells(self, t, monkeypatch):
        # Windows that start and end inside a Kramers pair, inside a flat
        # shell that t splits, and the benchmark's genericity window of its
        # trial 26, whose split shells lie 4e-4 apart: at t = 0.05 the stage
        # takes each of them; at t = 0.3 its certificate takes the
        # split-shell window, whose block ends at the 1.118 shells (the next
        # are 1.5), and refuses the others, whose block ends at 1.803 (the
        # next are 2.062); and all agree with zheevr.
        ms = build_mode_set(3, (1, 0, 0))
        starts = ms.cluster_starts
        shell = int(np.searchsorted(starts, ms.dim // 2))
        windows = [(int(starts[shell]) + 3, int(starts[shell]) + 24),
                   (int(starts[shell + 1]) - 5, int(starts[shell + 1]) + 6)]
        factors = [random_factor(17, 2, 0.3),
                   random_factor(np.random.SeedSequence(11).spawn(50)[26], 2, 0.3)]
        taken = self.spy(monkeypatch)
        for f in factors:
            for window in [*windows, genericity_window(ms)]:
                def solve(f=f, window=window):
                    return deformed_spectrum(f, t, ms, subset_by_index=window)

                self.assert_agrees(solve(), self.in_double(monkeypatch, solve))
        assert taken == ([True] * 3 if t == 0.05 else [False, True, False]) * 2

    def test_refused_at_large_t_with_the_bits_of_the_double_path(self, monkeypatch):
        # At t = 0.3 b_hi / b_lo is too wide for the flat shells to stay
        # apart, so the certificate refuses before any iteration.
        ms = build_mode_set(3, (1, 0, 0))
        f, window = random_factor(11, 2, 0.3), genericity_window(ms)

        def solve():
            return es.solve_gen_hermitian(
                ms.symbols, build_deformed_operator(f, 0.3, ms).weight, subset_by_index=window)

        ref = self.in_double(monkeypatch, solve)
        taken = self.spy(monkeypatch)
        out = solve()
        assert taken == [False]
        for a, b in zip(out, ref):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("t", [0.05, 1e-2, 1e-3])
    def test_kernel_is_deflated_exactly(self, t, monkeypatch):
        # delta = (0,0,0): the kappa = 0 modes are the kernel of A at every
        # t.  The genericity window returns them at exactly 0.0, and its
        # other pairs and those of the lambda = 1 window of the FD check
        # agree with a dense solve of the pencil.
        ms = build_mode_set(3, (0, 0, 0))
        f = random_factor(11, 2, 0.3)
        op = build_deformed_operator(f, t, ms)
        dense = scipy.linalg.eigh(op.A, op.B, eigvals_only=True)
        taken = self.spy(monkeypatch)
        for window in (genericity_window(ms), fd_window(ms, 1.0)):
            w, V, res, B_s = es.solve_gen_hermitian(ms.symbols, op.weight, subset_by_index=window)
            ref = dense[window[0] : window[1] + 1]
            assert np.all(np.abs(w - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
            assert res <= es.RESIDUAL_BOUND * max(1.0, np.abs(w).max())
        assert taken == [True, True]
        w, V, _, _ = es.solve_gen_hermitian(ms.symbols, op.weight,
                                            subset_by_index=genericity_window(ms))
        zero = np.flatnonzero(w == 0.0)
        assert len(zero) == 2 and np.all(np.abs(np.delete(w, zero)) > 0.4)
        # B-orthonormal vectors supported on the kappa = 0 mode
        i0 = int(np.flatnonzero(ms.shell_keys == 0)[0])
        support = np.zeros(ms.dim, dtype=bool)
        support[2 * i0 : 2 * i0 + 2] = True
        assert not V[~support][:, zero].any()
        assert_allclose(V[:, zero].conj().T @ op.B @ V[:, zero], np.eye(2), atol=1e-15)

    def test_n4_genericity_window_agrees_with_dense(self, monkeypatch):
        ms = build_mode_set(4, (1, 0, 0))
        op = build_deformed_operator(random_factor(11, 2, 0.3), 0.05, ms)
        window = genericity_window(ms)
        taken = self.spy(monkeypatch)
        w, _, res, _ = es.solve_gen_hermitian(ms.symbols, op.weight, subset_by_index=window)
        ref = scipy.linalg.eigh(op.A, op.B, eigvals_only=True, subset_by_index=window)
        assert taken == [True]
        assert np.all(np.abs(w - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @staticmethod
    def zheevd_failure(what):
        """A patch for ``scipy.linalg.lapack.zheevd`` that reports failure:
        info = 1, or NaN eigenvalues."""
        real = scipy.linalg.lapack.zheevd

        def failing(*args, **kwargs):
            w, v, info = real(*args, **kwargs)
            if what == "info":
                return w, v, 1
            return np.full_like(w, np.nan), v, info

        return failing

    @pytest.mark.parametrize("failure", [
        "zheevd", "nan", "no-convergence", "certificate", "b_lo", "pencil-gate",
    ])
    def test_failure_falls_back_to_the_bits_of_the_double_path(self, failure, monkeypatch):
        from spintorus.conformal import ScalarWeight

        ms = build_mode_set(3, (1, 0, 0))
        f, window = random_factor(11, 2, 0.3), genericity_window(ms)

        def solve():
            op = build_deformed_operator(f, 0.05, ms)
            return es.solve_gen_hermitian(ms.symbols, op.weight, subset_by_index=window)

        w_ref, V_ref, res_ref, B_ref = self.in_double(monkeypatch, solve)
        taken = self.spy(monkeypatch)
        bounds = ScalarWeight.bounds.fget
        if failure in ("zheevd", "nan"):
            monkeypatch.setattr(scipy.linalg.lapack, "zheevd",
                                self.zheevd_failure("info" if failure == "zheevd" else "nan"))
        elif failure == "no-convergence":
            # the step cap is reached before every residual is small
            monkeypatch.setattr(es, "SHELL_MAX_STEPS", 1)
        elif failure == "certificate":
            # b_hi / b_lo = 1.5 lets the 1.118 and 1.5 shells overlap
            monkeypatch.setattr(ScalarWeight, "bounds", property(
                lambda self: (bounds(self)[0], 1.5 * bounds(self)[0])))
        elif failure == "b_lo":
            monkeypatch.setattr(ScalarWeight, "bounds", property(
                lambda self: (0.0, bounds(self)[1])))
        else:
            # the first residual gate, the stage's in the solve's shared
            # tail, reads a residual above the bound; the double path's is
            # left as it is
            residual_max = es._residual_max
            calls = []

            def failing_gate(*args):
                res, scale = residual_max(*args)
                calls.append(res)
                return (res + 1.0 if len(calls) == 1 else res), scale

            monkeypatch.setattr(es, "_residual_max", failing_gate)
        w, V, res, B_s = solve()
        # the gate fails only after _shell_window has returned its pairs
        assert taken == [failure == "pencil-gate"]
        assert w.tobytes() == w_ref.tobytes()
        assert V.tobytes() == V_ref.tobytes()
        assert res == res_ref and B_s.tobytes() == B_ref.tobytes()

    def test_indefinite_weight_raises_through_the_double_path(self, monkeypatch):
        # A weight with b_lo <= 0 that is not positive definite: the block
        # 1 + 1.8 cos(x_1) of e^{tf} for f = 0, off by its l1 error 1.8.  The
        # stage refuses, and the double path's Cholesky names the weight.
        from spintorus.conformal import ExpCoeffs, ScalarWeight

        ms = build_mode_set(3, (1, 0, 0))
        band = 2 * ms.N
        values = np.zeros((2 * band + 1,) * 3, dtype=complex)
        values[band, band, band] = 1.0
        values[band + 1, band, band] = values[band - 1, band, band] = 0.9
        weight = ScalarWeight(ms, ExpCoeffs(band, values, 1.8, 0.0), 0.05, (0.0, 0.0))
        assert weight.bounds[0] < 0
        taken = self.spy(monkeypatch)
        with pytest.raises(PositiveDefiniteError, match="Galerkin weight for t=0.05"):
            es.solve_gen_hermitian(ms.symbols, weight, subset_by_index=genericity_window(ms))
        assert taken == [False]

    def test_a_weight_is_read_only(self, monkeypatch):
        # One weight solved twice as the N=3 genericity window and twice
        # whole in double gives the same bits each time, and keeps its
        # fields: the solve hands nothing to the weight or takes from it.
        ms = build_mode_set(3, (1, 0, 0))
        f = random_factor(11, 2, 0.3)
        weight = build_deformed_operator(f, 0.05, ms).weight
        fields = dict(vars(weight))
        exp_bytes = weight.exp.values.tobytes()
        taken = self.spy(monkeypatch)
        for window in (genericity_window(ms), None):
            first, again = (es.solve_gen_hermitian(ms.symbols, weight, subset_by_index=window)
                            for _ in range(2))
            for a, b in zip(first, again):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert vars(weight).keys() == fields.keys() == {"mode_set", "exp", "t", "f_range"}
            assert all(vars(weight)[name] is value for name, value in fields.items())
            assert weight.exp.values.tobytes() == exp_bytes
        assert taken == [True, True]
        # the B_s a result of the stage keeps has the bits of a fresh gather
        res = deformed_spectrum(f, 0.05, ms, keep_vectors=True,
                                subset_by_index=genericity_window(ms))
        assert taken[-1]
        assert res.B_s.tobytes(order="F") == weight.B_s.tobytes(order="F")

    def test_other_symbols_stay_in_double(self, monkeypatch):
        # The stage reads the weight's mode set for its shells, so symbols
        # other than that mode set's are solved in double.
        ms = build_mode_set(3, (1, 0, 0))
        op = build_deformed_operator(random_factor(11, 2, 0.3), 0.05, ms)
        taken = self.spy(monkeypatch)
        w, *_ = es.solve_gen_hermitian(2.0 * ms.symbols, op.weight,
                                       subset_by_index=genericity_window(ms))
        w_ref, *_ = es.solve_gen_hermitian(ms.symbols, op.weight,
                                           subset_by_index=genericity_window(ms))
        assert taken == [False, True]
        assert_allclose(w, 2.0 * w_ref, rtol=1e-13)

    def test_trusted_and_tracked_windows_stay_in_double(self, monkeypatch):
        # The trusted window (single-t spectrum), t-grids, the wide t-grid
        # whose window grows to the whole spectrum, and simplicity never
        # reach the stage; the genericity window does.
        from spintorus.conformal import tracked_spectrum, trusted_spectrum
        from spintorus.experiments import lowest_positive_clusters, simplicity_certificate

        ms = build_mode_set(3, (1, 0, 0))
        f = random_factor(11, 2, 0.3)
        taken = self.spy(monkeypatch)
        assert len(lowest_positive_clusters(f, 0.05, ms, 3)) == 3
        assert taken == [True]

        def forbidden(*args):
            raise AssertionError("shell-window stage reached")

        # offered but refused by the block share, before any work
        def refused(symbols, weight, lo, hi):
            a, b = es._shell_block(ms, lo, hi)
            assert (ms.cluster_starts[b] - ms.cluster_starts[a]) * es.SHELL_BLOCK_SHARE > ms.dim
            return None

        monkeypatch.setattr(es, "_shell_window", refused)
        monkeypatch.setattr(es, "flat_eigenvectors", forbidden)
        assert len(trusted_spectrum(f, 0.05, ms).eigenvalues) > 0
        assert tracked_spectrum(f, [0.0, 0.05, 0.1], ms).index_window != [0, ms.dim]
        wide = tracked_spectrum(f, [0.0, 0.05, 0.1], ms, tolerances=(1e-6, 0.2))
        assert wide.index_window == [0, ms.dim]
        simplicity_certificate((1, 0, 0), f, 0.05, 3, 3)

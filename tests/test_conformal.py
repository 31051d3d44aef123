import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import iv

from spintorus import conformal as cf
from spintorus import eigensolver as es
from spintorus.errors import PositiveDefiniteError
from spintorus.experiments import random_factor
from spintorus.perturbation import deformed_cluster_values, extract_cluster
from spintorus.torus_dirac import (
    ModeSet,
    all_spin_structures,
    apply_flat_dirac,
    apply_J_coeffs,
    build_mode_set,
    closed_form_spectrum,
    random_field,
)

from helpers import first_nonnegative_index, record_solves


class TestConformalFactor:
    def test_zero_and_constant(self):
        z = cf.ConformalFactor.zero()
        assert z.is_zero and z.is_constant
        c = cf.ConformalFactor.constant(0.3)
        assert c.coeff((0, 0, 0)) == 0.3
        assert c.mean() == 0.3

    def test_cosine_coeffs(self):
        f = cf.ConformalFactor.cosine((2, 0, 0), 1.0)
        assert f.coeff((2, 0, 0)) == 0.5
        assert f.coeff((-2, 0, 0)) == 0.5
        assert f.coeff((1, 0, 0)) == 0.0

    def test_sine_is_real(self):
        f = cf.ConformalFactor.sine((1, 1, 0), 2.0)
        g = f.grid_values(16)
        x = 2 * np.pi * np.arange(16) / 16
        expected = 2.0 * np.sin(x[:, None] + x[None, :])
        assert_allclose(g[:, :, 0], expected, atol=1e-13)

    def test_grid_values_match_direct_sum(self, rng):
        f = random_factor(5, 2, 0.7)
        G = 12
        g = f.grid_values(G)
        n = rng.integers(0, G, size=(5, 3))
        d = f.degree
        for row in n:
            x = 2 * np.pi * row / G
            val = 0.0
            for m1 in range(-d, d + 1):
                for m2 in range(-d, d + 1):
                    for m3 in range(-d, d + 1):
                        val += f.values[m1 + d, m2 + d, m3 + d] * np.exp(
                            1j * (m1 * x[0] + m2 * x[1] + m3 * x[2])
                        )
            assert abs(g[tuple(row)] - val) < 1e-12

    def test_certified_range_holds_every_value(self, rng):
        # The range holds f on a grid of side 128 and, for the factors of
        # degree <= 2, at 10^5 random points evaluated from the coefficients.
        factors = [random_factor(seed, 2, 0.3) for seed in (3, 7, 11)]
        factors += [cf.ConformalFactor.cosine((1, -1, 0)), cf.ConformalFactor.sine((0, 2, 1), 0.7),
                    random_factor(11, 8, 0.3), cf.ConformalFactor.constant(0.3),
                    cf.ConformalFactor.zero()]
        # the random points, then the grid of side 8, where the evaluation
        # is checked against grid_values
        grid = 2 * np.pi * np.indices((8, 8, 8)).reshape(3, -1).T / 8
        x = np.vstack([rng.uniform(0.0, 2 * np.pi, size=(100_000, 3)), grid])
        for f in factors:
            lo, hi = f.certified_range()
            g = f.grid_values(128)
            assert lo <= g.min() and g.max() <= hi
            assert lo <= f.extrema()[0] and f.extrema()[1] <= hi
            if f.degree > 2:
                continue
            # sum_m fhat(m) e^{i m_1 x_1} e^{i m_2 x_2} e^{i m_3 x_3}, one axis at a time
            e1, e2, e3 = np.exp(1j * x.T[:, :, None] * np.arange(-f.degree, f.degree + 1))
            values = np.einsum("pa,pb,pc,abc->p", e1, e2, e3, f.values, optimize=True).real
            assert_allclose(values[-512:], f.grid_values(8).reshape(-1), atol=1e-14)
            assert lo <= values.min() and values.max() <= hi

    def test_certified_range_widens_by_the_curvature(self):
        # cos(x_1): sum_m |m|^2 |fhat(m)| = 1 on extrema's grid of side 64,
        # which holds the extrema -1 and 1
        f = cf.ConformalFactor.cosine((1, 0, 0))
        lo, hi = f.certified_range()
        widen = 1.5 * (np.pi / 64) ** 2 + cf.fft_rounding(64)
        assert f.extrema() == (-1.0, 1.0)
        assert lo == math.nextafter(-1.0 - widen, -math.inf)
        assert hi == math.nextafter(1.0 + widen, math.inf)
        assert cf.ConformalFactor.zero().certified_range() == (-5e-324, 5e-324)

    def test_reality_violation_rejected(self):
        vals = np.zeros((3, 3, 3), dtype=complex)
        vals[2, 1, 1] = 1.0  # m = (1,0,0) with no conjugate partner
        vals[0, 1, 1] = 0.5
        with pytest.raises(ValueError, match="reality"):
            cf.ConformalFactor(1, vals)

    def test_from_coeffs_fills_conjugates(self):
        f = cf.ConformalFactor.from_coeffs(1, {(1, 0, 0): 0.25 + 0.1j})
        assert f.coeff((-1, 0, 0)) == 0.25 - 0.1j

    def test_json_round_trip_exact(self):
        f = random_factor(11, 2, 0.4, label="roundtrip")
        doc = f.to_json_dict()
        text = json.dumps(doc, sort_keys=True)
        back = cf.ConformalFactor.from_json_dict(json.loads(text))
        assert back.degree == f.degree and np.array_equal(back.values, f.values)
        assert json.dumps(back.to_json_dict(), sort_keys=True) == text

    def test_loader_rejects_reality_violation(self):
        doc = {"degree": 1, "coeffs": [{"m": [1, 0, 0], "re": 1.0, "im": 0.5},
                                       {"m": [-1, 0, 0], "re": 1.0, "im": 0.5}]}
        with pytest.raises(ValueError, match="reality"):
            cf.ConformalFactor.from_json_dict(doc)

    def test_loader_rejects_missing_partner(self):
        doc = {"degree": 1, "coeffs": [{"m": [1, 0, 0], "re": 1.0, "im": 0.5}]}
        with pytest.raises(ValueError, match="reality"):
            cf.ConformalFactor.from_json_dict(doc)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficients_rejected(self, bad, recwarn):
        for make in (
            lambda: cf.ConformalFactor.constant(bad),
            lambda: cf.ConformalFactor.cosine((1, 0, 0), bad),
            lambda: cf.ConformalFactor.from_json_dict(
                {"degree": 0, "coeffs": [{"m": [0, 0, 0], "re": bad, "im": 0.0}]}
            ),
        ):
            with pytest.raises(ValueError, match="finite"):
                make()
        assert not recwarn.list

    def test_loader_rejects_out_of_range_mode(self):
        doc = {"degree": 1, "coeffs": [{"m": [2, 0, 0], "re": 1.0, "im": 0.0}]}
        with pytest.raises(ValueError):
            cf.ConformalFactor.from_json_dict(doc)

    @given(
        st.lists(
            st.tuples(
                st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False),
            ),
            max_size=6,
        )
    )
    def test_symmetrized_storage_is_real(self, entries):
        coeffs = {}
        for m1, m2, m3, re, im in entries:
            m = (m1, m2, m3)
            if m == (0, 0, 0):
                coeffs[m] = re
            else:
                coeffs[m] = re + 1j * im
                coeffs[(-m1, -m2, -m3)] = re - 1j * im
        f = cf.ConformalFactor.from_coeffs(2, coeffs)
        g = f.grid_values(8)
        assert g.dtype == np.float64


_modes = st.tuples(*[st.integers(-2, 2)] * 3)
# bounded floats include -0.0 and +0.0, whose signs conj flips
_signed = st.floats(-2, 2, allow_nan=False)


@st.composite
def _one_sided_factors(draw):
    """A factor from ``from_coeffs`` given at most one of each pair +-m."""
    coeffs = {}
    entries = draw(st.dictionaries(_modes, st.tuples(_signed, _signed), max_size=6))
    for m, (re, im) in entries.items():
        if m == (0, 0, 0):
            coeffs[m] = complex(re, math.copysign(0.0, im))
        elif tuple(-x for x in m) not in coeffs:
            coeffs[m] = complex(re, im)
    return cf.ConformalFactor.from_coeffs(2, coeffs)


_random_factors = st.builds(random_factor, st.integers(0, 2**32 - 1), st.integers(1, 2),
                            st.floats(0, 1))
_exp_factors = st.one_of(_random_factors, st.builds(cf.ConformalFactor.cosine, _modes, _signed),
                         st.builds(cf.ConformalFactor.constant, _signed))
_cubes = st.one_of(
    _one_sided_factors(),
    st.builds(cf.ConformalFactor.cosine, _modes, _signed),
    st.builds(cf.ConformalFactor.sine, _modes, _signed),
    st.builds(cf.ConformalFactor.constant, _signed),
    st.builds(lambda f, s: f.scaled(s), _one_sided_factors(), st.floats(1e-3, 10)),
    st.builds(lambda f: cf.ConformalFactor.from_json_dict(f.to_json_dict()), _one_sided_factors()),
    _random_factors,
    st.builds(cf.exp_coeffs, _exp_factors, st.floats(-0.3, 0.3), st.integers(0, 4)),
    st.builds(cf.exp_coeffs, _exp_factors, st.just(0.0), st.integers(0, 3)),
)


class TestCenteredCube:
    @given(_cubes)
    def test_every_constructor_makes_the_cube_hermitian(self, cube):
        # c(-m) == conj(c(m)) for every m, compared as numbers: conj flips
        # the sign of a zero imaginary part
        v = cube.values
        assert np.array_equal(v[::-1, ::-1, ::-1], np.conj(v))

    def test_items_lexicographic_and_round_trip(self):
        f = random_factor(4, 2, 0.3)
        modes = [m for m, _ in f.items()]
        assert modes == sorted(modes) and len(modes) == np.count_nonzero(f.values)
        assert all(v == f.coeff(m) != 0 for m, v in f.items())
        back = cf.ConformalFactor.from_coeffs(f.degree, dict(f.items()))
        assert back.degree == f.degree and np.array_equal(back.values, f.values)

    def test_cube_modes_order(self):
        modes = cf.cube_modes(2)
        assert [tuple(m) for m in modes] == sorted(tuple(m) for m in modes)
        cube = np.arange(125).reshape(5, 5, 5)
        assert all(cube[tuple(m + 2)] == i for i, m in enumerate(modes))
        assert tuple(modes[len(modes) // 2]) == (0, 0, 0)

    @pytest.mark.parametrize("cube", ["factor", "exp"])
    def test_lookup_matches_coeff(self, cube):
        f = random_factor(4, 2, 0.3)
        c = f if cube == "factor" else cf.exp_coeffs(f, 0.05, 3)
        r = c.radius
        assert c.values.shape == (2 * r + 1,) * 3
        # modes spreading past the radius (padded cube) and within it (the cube itself)
        for k in (cf.cube_modes(r // 2 + 2) + [1, -2, 0], cf.cube_modes(r // 2)):
            looked = c.lookup(k)
            assert looked.shape == (len(k), len(k))
            for i, j in zip(range(0, len(k), 3), range(len(k) - 1, -1, -5)):
                d = k[i] - k[j]
                expected = c.values[tuple(d + r)] if np.all(np.abs(d) <= r) else 0.0
                assert looked[i, j] == c.coeff(d) == expected
        assert c.coeff((r + 1, 0, 0)) == 0.0
        assert c.coeff((0, 0, 0)) == c.values[r, r, r]

    @pytest.mark.parametrize("cube", ["factor", "exp"])
    def test_rectangular_lookup(self, cube):
        f = random_factor(4, 2, 0.3)
        c = f if cube == "factor" else cf.exp_coeffs(f, 0.05, 3)
        r = c.radius
        # a block of the square lookup, over modes spreading past the radius
        k = cf.cube_modes(r // 2 + 2) + [1, -2, 0]
        rows, cols = np.arange(0, len(k), 7), np.arange(3, len(k), 5)
        block = c.lookup(k[rows], k[cols])
        assert block.shape == (len(rows), len(cols))
        assert block.tobytes() == c.lookup(k)[np.ix_(rows, cols)].tobytes()
        # row and column modes that each lie within the radius but whose
        # differences do not
        near = cf.cube_modes(1)
        far = near + [r, 0, 0]
        block = c.lookup(near, far)
        assert block.shape == (len(near), len(far))
        assert all(block[i, j] == c.coeff(near[i] - far[j])
                   for i in range(len(near)) for j in range(len(far)))
        assert np.count_nonzero(block == 0) > 0

    def test_factor_multiplication_matrix(self):
        ms = build_mode_set(2, (1, 0, 1))
        f = random_factor(9, 2, 0.4)
        F = cf.factor_multiplication_matrix(f, ms)
        for i, j in [(0, 0), (3, 17), (40, 2)]:
            expected = f.coeff(ms.k_values[i] - ms.k_values[j]) * np.eye(2)
            assert_allclose(F[2 * i : 2 * i + 2, 2 * j : 2 * j + 2], expected, atol=1e-15)


class TestExpCoeffs:
    def test_zero_factor(self):
        exp = cf.exp_coeffs(cf.ConformalFactor.zero(), 0.7, band=3)
        assert exp.coeff((0, 0, 0)) == 1.0
        vals = exp.values.copy()
        vals[3, 3, 3] = 0
        assert not np.any(vals)

    def test_constant_factor(self):
        exp = cf.exp_coeffs(cf.ConformalFactor.constant(0.4), 0.5, band=2)
        assert exp.coeff((0, 0, 0)) == np.exp(0.2)
        assert exp.recon_error == 0.0

    def test_cosine_gives_bessel(self):
        # e^{t cos x1} = sum_m I_m(t) e^{i m x1}
        t = 0.1
        exp = cf.exp_coeffs(cf.ConformalFactor.cosine((1, 0, 0)), t, band=6)
        for m in range(0, 7):
            assert abs(exp.coeff((m, 0, 0)) - iv(m, t)) < 1e-14
            assert abs(exp.coeff((-m, 0, 0)) - iv(m, t)) < 1e-14
        assert exp.coeff((1, 1, 0)) == 0.0

    def test_cross_grid_oracle(self):
        # same coefficients from an independent high-resolution FFT
        f = random_factor(3, 2, 0.5)
        t = 0.08
        exp = cf.exp_coeffs(f, t, band=4)
        G = 96  # not a power of two, different code path entirely
        x = 2 * np.pi * np.arange(G) / G
        grid = np.zeros((G, G, G))
        d = f.degree
        for m1 in range(-d, d + 1):
            for m2 in range(-d, d + 1):
                for m3 in range(-d, d + 1):
                    c = f.values[m1 + d, m2 + d, m3 + d]
                    if c != 0:
                        phase = (
                            m1 * x[:, None, None]
                            + m2 * x[None, :, None]
                            + m3 * x[None, None, :]
                        )
                        grid = grid + (c * np.exp(1j * phase)).real
        hhat = np.fft.fftn(np.exp(t * grid)) / G**3
        for m in [(0, 0, 0), (1, 0, 0), (2, -1, 0), (-1, 1, 1), (3, 0, -2)]:
            assert abs(exp.coeff(m) - hhat[tuple(np.array(m) % G)]) < 1e-13

    def test_reconstruction_error_bound(self):
        f = random_factor(9, 2, 0.6)
        exp = cf.exp_coeffs(f, 0.1, band=2)
        assert exp.recon_error <= 1e-12
        assert exp.band_used >= 2

    def test_reality_of_coeffs(self):
        f = random_factor(13, 2, 0.5)
        exp = cf.exp_coeffs(f, 0.07, band=3)
        flipped = np.conj(exp.values[::-1, ::-1, ::-1])
        assert_allclose(exp.values, flipped, atol=0)

    @staticmethod
    def fft_block(f, t, band, G):
        """Coefficients |m|_inf <= band of e^{tf} from a plain G^3 FFT."""
        hhat = np.fft.fftn(np.exp(t * f.grid_values(G))) / G**3
        side = 2 * band + 1
        return hhat[tuple((cf.cube_modes(band) % G).T)].reshape(side, side, side)

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_certified_against_twice_finer_grid(self, degree):
        f = random_factor(40 + degree, degree, 0.3)
        t, band = 0.05, 2
        exp = cf.exp_coeffs(f, t, band)
        G = cf.exp_grid_size(band, degree, abs(t) * f.l1_norm())
        assert exp.band_used == band and exp.values.shape == (2 * band + 1,) * 3
        assert exp.recon_error <= cf.EXP_ALIAS_TOL
        fine = self.fft_block(f, t, band, 2 * G)
        assert np.max(np.abs(exp.values - fine)) <= exp.recon_error + 1e-15

    @pytest.mark.parametrize("degree, t, G", [(1, 0.8, 8), (1, 0.8, 10), (2, 0.3, 9), (3, 0.2, 12)])
    def test_tail_bounds_aliasing_on_small_grids(self, degree, t, G):
        # on grids far below the certified side the error is large, and the
        # bound of exp_tail still holds: sum over |m| <= b of the error is at
        # most the tail from K = ceil((G - b) / d)
        f = random_factor(60 + degree, degree, 1.0)
        band = 1
        weight = t * f.l1_norm()
        coarse = self.fft_block(f, t, band, G)
        exact = self.fft_block(f, t, band, cf.exp_grid_size(band, degree, weight))
        err = float(np.sum(np.abs(coarse - exact)))
        bound = cf.exp_tail(weight, -(-(G - band) // degree))
        assert 1e-12 < err <= bound + 1e-15

    def test_exp_tail_matches_series(self):
        for weight in (0.04, 0.7, 3.0):
            for K in (4, 9, 15):
                series = sum(weight**k / math.factorial(k) for k in range(K, K + 80))
                assert series <= cf.exp_tail(weight, K) <= series * (1 + weight / (K + 1 - weight))
        assert cf.exp_tail(0.0, 3) == 0.0 and cf.exp_tail(5.0, 4) == math.inf

    def test_grid_size_rule(self):
        # the benchmark factors (weight about 0.04, degree 2, band 6 at N=3)
        # and the degree-8 factor of `--f-random 1,8,0.3` at N=1
        assert cf.exp_grid_size(6, 2, 0.042) == 24
        assert cf.exp_grid_size(2, 8, 0.2146) == 96
        # weight 0: the smallest grid any factor of the degree needs
        assert cf.exp_grid_size(6, 2) == 16 and cf.exp_grid_size(2, 31) == 64
        with pytest.raises(ValueError, match="certified"):
            cf.exp_grid_size(2, 1, cf.EXP_WEIGHT_MAX * 1.01)

    def test_high_degree_factor_returns(self):
        # a measured-reconstruction criterion once failed here on a 128^3 grid
        exp = cf.exp_coeffs(random_factor(3, 15, 0.3), 0.05, 2)
        assert exp.band_used == 2 and exp.recon_error <= cf.EXP_ALIAS_TOL


class TestAssembleB:
    def test_identity_at_t_zero(self):
        ms = build_mode_set(1, (0, 0, 0))
        W = cf.assemble_B(random_factor(1, 2, 0.5), 0.0, ms)
        assert_allclose(cf.kron_spin(W.B_s), np.eye(ms.dim))
        assert_allclose(es.inverse_factor(W.B_s), np.eye(ms.n_modes))

    def test_constant_scales_identity(self):
        ms = build_mode_set(1, (1, 0, 0))
        W = cf.assemble_B(cf.ConformalFactor.constant(0.3), 0.5, ms)
        assert_allclose(cf.kron_spin(W.B_s), np.exp(0.15) * np.eye(ms.dim), atol=0)

    def test_sparsity_matches_exp_support(self):
        # f = cos(2 x1): the weight couples exactly the mode pairs whose
        # difference lies in the support of the e^{tf} expansion (multiples
        # of (2,0,0) within the band)
        ms = build_mode_set(2, (0, 0, 0))
        f = cf.ConformalFactor.cosine((2, 0, 0))
        t = 0.1
        B = cf.kron_spin(cf.assemble_B(f, t, ms).B_s)
        exp = cf.exp_coeffs(f, t, cf.required_band(ms))
        diffs = ms.mode_diffs
        for i in range(0, ms.n_modes, 7):
            for j in range(0, ms.n_modes, 5):
                block = B[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                coeff = exp.coeff(tuple(diffs[i, j]))
                expected_nonzero = abs(coeff) > 0
                assert (np.abs(block).max() > 1e-14) == expected_nonzero
                d = tuple(int(x) for x in diffs[i, j])
                if d[1] != 0 or d[2] != 0 or d[0] % 2 != 0:
                    assert np.abs(block).max() == 0.0

    def test_hermitian_and_pd(self):
        ms = build_mode_set(2, (1, 1, 0))
        W = cf.assemble_B(random_factor(21, 2, 0.5), 0.08, ms)
        B = cf.kron_spin(W.B_s)
        assert_allclose(B, B.conj().T)
        # M = L^{-1} of B_s = L L^H: lower triangular, and M B_s M^H = I
        M = es.inverse_factor(W.B_s)
        assert np.all(np.triu(M, 1) == 0)
        assert_allclose(M @ W.B_s @ M.conj().T, np.eye(ms.n_modes), atol=1e-14)
        w = np.linalg.eigvalsh(B)
        assert w.min() > 0

    def test_bitwise_equal_to_symmetrized_kron(self):
        ms = build_mode_set(2, (1, 0, 0))
        f = random_factor(8, 2, 0.3)
        t = 0.05
        exp = cf.exp_coeffs(f, t, cf.required_band(ms))
        d = ms.mode_diffs.astype(np.int64) + exp.radius
        out = np.kron(exp.values[d[..., 0], d[..., 1], d[..., 2]], np.eye(2, dtype=np.complex128))
        reference = 0.5 * (out + out.conj().T)
        B = cf.kron_spin(cf.assemble_B(f, t, ms).B_s)
        assert B.dtype == reference.dtype
        assert B.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("cube", ["exp", "factor"])
    def test_panelled_gather_is_bit_identical_to_whole_lookup(self, cube):
        # B_s written a panel of columns at a time has the bits of the whole
        # V = lookup(k), and of the symmetrized (conj(V^T) + V) / 2, since
        # the cube is Hermitian.  n = 64 to 294 modes is one panel or more,
        # and the mode sets spread wider than the degree-2 factor's cube.
        f = random_factor(8, 2, 0.3)
        for N, spin in [(2, s) for s in all_spin_structures()] + [(3, (1, 0, 0))]:
            ms = build_mode_set(N, spin)
            assert ms.n_modes >= cf.GATHER_PANEL
            c = cf.exp_coeffs(f, 0.05, cf.required_band(ms)) if cube == "exp" else f
            assert (np.ptp(ms.k_values, axis=0).max() > c.radius) == (cube == "factor")
            V = c.lookup(ms.k_values)
            out = cf.assemble_multiplication(ms.k_values, c)
            assert out.flags.f_contiguous
            assert out.tobytes(order="F") == V.tobytes(order="F")
            assert out.tobytes(order="F") == (0.5 * (V.conj().T + V)).tobytes(order="F")

    def test_block_cholesky_failure_is_pd_error(self, monkeypatch):
        # assemble_B does not factor; the solve's factorization of B_s is
        # the positive-definiteness check, and its failure names the weight
        ms = build_mode_set(1, (0, 1, 0))
        shapes = []

        def failing_cholesky(a, lower=False, overwrite_a=False, check_finite=True):
            shapes.append(a.shape)
            raise scipy.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(scipy.linalg, "cholesky", failing_cholesky)
        f = random_factor(4, 2, 0.3)
        cf.assemble_B(f, 0.05, ms)
        assert shapes == []
        with pytest.raises(PositiveDefiniteError,
                           match=r"^Galerkin weight for t=0\.05 is not positive definite$"):
            cf.deformed_spectrum(f, 0.05, ms)
        assert shapes == [(ms.n_modes, ms.n_modes)]

    def test_weight_is_factored_and_inverted_in_place(self, monkeypatch):
        # Before eigh the solve has gathered B_s once, into a Fortran-ordered
        # buffer, and its M = L^{-1} is that buffer, factored and inverted
        # in place, with the bits of inverting a separate factor; after
        # eigh it gathers B_s once more
        ms = build_mode_set(2, (1, 0, 0))
        gathered, reduced = [], []
        gather, reduce, eigh = (cf.assemble_multiplication, es._reduce,
                                scipy.linalg.eigh)
        monkeypatch.setattr(cf, "assemble_multiplication",
                            lambda *args: gathered.append(gather(*args)) or gathered[-1])

        def reducing(symbols, M, *args):
            reduced.append((M, len(gathered)))
            return reduce(symbols, M, *args)

        def solving(*args, **kwargs):
            assert len(gathered) == 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(es, "_reduce", reducing)
        monkeypatch.setattr(scipy.linalg, "eigh", solving)
        f = random_factor(8, 2, 0.3)
        cf.deformed_spectrum(f, 0.05, ms)
        ((M, gathers),) = reduced
        assert gathers == 1 and len(gathered) == 2 and gathered[0].flags.f_contiguous
        assert np.shares_memory(M, gathered[0])
        W = cf.assemble_B(f, 0.05, ms)
        assert W.shape == (ms.n_modes, ms.n_modes)
        L = scipy.linalg.cholesky(np.ascontiguousarray(W.B_s), lower=True)
        assert M.tobytes() == scipy.linalg.lapack.ztrtri(L, lower=1)[0].tobytes()

    def test_deformed_solve_makes_no_numpy_linalg_call(self, monkeypatch):
        # A deformed solve stays on scipy's BLAS (see the eigensolver module
        # docstring): numpy's Cholesky must not be reached.
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        ms = build_mode_set(2, (1, 0, 0))
        res = cf.deformed_spectrum(random_factor(4, 2, 0.3), 0.05, ms)
        assert len(res.eigenvalues) == ms.dim

    def test_volume_consistency(self):
        ms = build_mode_set(1, (0, 0, 0))
        f = random_factor(33, 2, 0.5)
        t = 0.1
        op = cf.build_deformed_operator(f, t, ms)
        # diagonal scalar block equals the mean of e^{tf}
        mean_weight = np.mean(np.exp(t * f.grid_values(64)))
        assert abs(op.B[0, 0] - mean_weight) < 1e-12
        # deformed volume int e^{3 t f} dmu is reported and positive
        expected_vol = np.mean(np.exp(3 * t * f.grid_values(64)))
        assert op.volume > 0
        assert abs(op.volume - expected_vol) < 1e-12

    @pytest.mark.parametrize("seed, degree, t", [(5, 1, 0.3), (6, 2, 0.05), (7, 3, -0.2), (8, 5, 0.1)])
    def test_volume_from_certified_grid(self, seed, degree, t):
        ms = build_mode_set(1, (1, 0, 0))
        f = random_factor(seed, degree, 0.5)
        op = cf.build_deformed_operator(f, t, ms)
        assert abs(op.volume - np.mean(np.exp(3 * t * f.grid_values(64)))) < 1e-14

    def test_out_of_range_warns(self):
        ms = build_mode_set(1, (0, 0, 0))
        f = cf.ConformalFactor.cosine((1, 0, 0))
        with pytest.warns(UserWarning, match="accepted"):
            cf.assemble_B(f, 0.9, ms)

    def test_unrepresentable_weight_is_pd_error(self, recwarn):
        ms = build_mode_set(1, (0, 0, 0))
        f = cf.ConformalFactor.cosine((1, 0, 0))
        with pytest.raises(PositiveDefiniteError):
            cf.assemble_B(f, 25.0, ms)
        assert not recwarn.list  # B_OSC_MAX is tested before the range warning


class TestDeformedSpectrum:
    def test_zero_factor_flat(self):
        ms = build_mode_set(2, (1, 0, 0))
        res = cf.deformed_spectrum(cf.ConformalFactor.zero(), 0.37, ms, keep_vectors=False)
        flat = cf.flat_spectrum(ms)
        assert_allclose(res.eigenvalues, flat.eigenvalues)

    @pytest.mark.parametrize("t", [0.1, 0.5])
    def test_homothety_exact(self, t):
        ms = build_mode_set(2, (0, 0, 0))
        c = 0.3
        flat = cf.flat_spectrum(ms)
        res = cf.deformed_spectrum(
            cf.ConformalFactor.constant(c), t, ms, keep_vectors=False
        )
        assert np.max(np.abs(res.eigenvalues - np.exp(-t * c) * flat.eigenvalues)) < 1e-10

    def test_even_factor_splits_at_second_order(self):
        # f = cos(2 x1) has zero first-order rates on the lambda = 1 cluster:
        # in-shell couplings join only antipodal modes, whose helicity spinors
        # are orthogonal.  The cluster still splits at second order and stays
        # within O(t^2) of lambda.
        from spintorus.perturbation import flat_cluster_window

        ms = build_mode_set(3, (0, 0, 0))
        t = 0.05
        res = cf.deformed_spectrum(cf.ConformalFactor.cosine((2, 0, 0)), t, ms, keep_vectors=False)
        lo, hi = flat_cluster_window(ms, 1.0)
        sub = [c for c in res.clusters if lo < c.lam < hi]
        assert sum(c.mult_c for c in sub) == 6
        assert len(sub) > 1  # second-order splitting
        assert max(abs(c.lam - 1.0) for c in sub) < 5 * t**2

    def test_splitting_factor_first_order_positions(self):
        from spintorus.perturbation import flat_cluster_window, perturbation_matrix

        ms = build_mode_set(3, (0, 0, 0))
        factor = cf.ConformalFactor.cosine((1, -1, 0))
        cluster = extract_cluster(ms, lam=1.0)
        rates = np.sort(perturbation_matrix(cluster, factor).rates)
        t = 0.05
        res = cf.deformed_spectrum(factor, t, ms, keep_vectors=False)
        lo, hi = flat_cluster_window(ms, 1.0)
        vals = np.sort(
            res.eigenvalues[(res.eigenvalues > lo) & (res.eigenvalues < hi)]
        )
        assert len(vals) == 6
        assert np.max(np.abs(vals - (1.0 + t * rates))) < 5 * t**2

    def test_kramers_even_multiplicities(self, rng):
        for seed in range(3):
            delta = tuple(rng.integers(0, 2, size=3))
            ms = build_mode_set(2, delta)
            f = random_factor(100 + seed, 2, 0.4)
            res = cf.deformed_spectrum(f, 0.06, ms, keep_vectors=False)
            assert all(c.kramers_ok for c in res.clusters)

    def test_kernel_constancy(self):
        ms = build_mode_set(2, (0, 0, 0))
        for seed in range(3):
            f = random_factor(300 + seed, 2, 0.5)
            res = cf.deformed_spectrum(f, 0.05, ms, keep_vectors=False)
            absw = np.abs(res.eigenvalues)
            assert np.sum(absw <= 1e-8) == 2
            assert absw[absw > 1e-8].min() > 0.3

    def test_symmetry_for_even_factor(self):
        ms = build_mode_set(2, (1, 0, 0))
        f = cf.ConformalFactor.cosine((1, 0, 0), 0.5)
        res = cf.deformed_spectrum(f, 0.08, ms, keep_vectors=False)
        w = res.eigenvalues
        assert np.max(np.abs(w + w[::-1])) < 1e-9

    def test_reflection_relation_generic_factor(self):
        # for generic f the spectrum is NOT symmetric; the true identity is
        # spec(f) = -spec(f(-x)), with the asymmetry appearing at first order
        # in the cluster splittings
        ms = build_mode_set(2, (1, 0, 0))
        f = random_factor(7, 2, 0.5)
        refl = cf.ConformalFactor(f.degree, np.conj(f.values))
        w = cf.deformed_spectrum(f, 0.05, ms, keep_vectors=False).eigenvalues
        wr = cf.deformed_spectrum(refl, 0.05, ms, keep_vectors=False).eigenvalues
        assert np.max(np.abs(w + wr[::-1])) < 1e-9
        assert np.max(np.abs(w + w[::-1])) > 1e-5  # genuinely asymmetric

    def test_trivial_weights_reach_no_dense_solve(self, monkeypatch, capsys):
        # t = 0 and f = 0 are solved in closed form: flat_spectrum,
        # spectrum --t 0, the t = 0 snapshot of a t-grid and --f-const 0 at
        # t = 0.05 call neither the double stage nor scipy's eigh, which the
        # grid's t > 0 snapshots call once each.
        from spintorus.cli import main

        stages, eighs = [], []
        stage, eigh = es._eigh_stage, scipy.linalg.eigh
        monkeypatch.setattr(es, "_eigh_stage",
                            lambda s, weight, w: stages.append(weight.t) or stage(s, weight, w))
        monkeypatch.setattr(scipy.linalg, "eigh", lambda *a, **k: eighs.append(1) or eigh(*a, **k))
        assert len(cf.flat_spectrum(build_mode_set(3, (1, 0, 0))).eigenvalues) == 588
        spectrum = ["spectrum", "--delta", "1,0,0", "--N", "2"]
        for args in (["--t", "0"], ["--f-const", "0", "--t", "0.05"],
                     ["--f-cos", "1,0,0", "--t-grid", "0,0.01,0.02"]):
            assert main(spectrum + args) == 0
        assert stages == [0.01, 0.02] and len(eighs) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("spin", all_spin_structures(), ids=str)
    def test_pencil_is_j_invariant(self, spin):
        # J is a signed permutation P composed with conjugation, so
        # J M J^{-1} = P conj(M) P^T involves no rounding: for a random factor
        # it equals A and B exactly.  Every closed-form flat shell passes
        # validate_cluster, so its span is J-closed.
        from spintorus.perturbation import EigenCluster, validate_cluster

        ms = build_mode_set(2, spin)
        op = cf.build_deformed_operator(random_factor(11, 2, 0.3), 0.05, ms)
        for M in (op.A, op.B):
            assert np.array_equal(apply_J_coeffs(ms, apply_J_coeffs(ms, M).conj().T).T, M)
        flat = cf.deformed_spectrum(cf.ConformalFactor.zero(), 0.0, ms, keep_vectors=True)
        for c in flat.clusters:
            validate_cluster(EigenCluster(ms, c.lam, flat.vectors[:, c.start : c.stop]))

    def test_b_orthonormal_vectors(self):
        ms = build_mode_set(1, (1, 1, 0))
        f = random_factor(17, 2, 0.4)
        res = cf.deformed_spectrum(f, 0.07, ms, keep_vectors=True)
        V, B = res.vectors, cf.kron_spin(res.B_s)
        assert_allclose(V.conj().T @ B @ V, np.eye(ms.dim), atol=1e-10)


class TestStandardFormSolve:
    """The one-Cholesky standard-form solve against the dense generalized eigh."""

    @pytest.mark.parametrize("delta", [(0, 0, 0), (1, 0, 0), (1, 1, 1)], ids=str)
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_windows_match_dense_oracle(self, N, delta):
        ms = build_mode_set(N, delta)
        i0 = first_nonnegative_index(ms)
        lo, hi = i0 - min(i0, 10), min(i0 + 19, ms.dim - 1)
        for seed in (71, 72):
            f = random_factor(seed, 2, 0.3)
            op = cf.build_deformed_operator(f, 0.05, ms)
            oracle = scipy.linalg.eigh(op.A, op.B, eigvals_only=True)
            by_index = cf.deformed_spectrum(f, 0.05, ms, keep_vectors=False, subset_by_index=(lo, hi))
            ref = oracle[lo : hi + 1]
            assert np.max(np.abs(by_index.eigenvalues - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12

    def test_deformed_solves_never_build_a_dense_flat_operator(self, monkeypatch):
        from spintorus.experiments import lowest_positive_clusters

        def forbidden(self):
            raise AssertionError("ModeSet.flat_matrix built")

        monkeypatch.setattr(ModeSet, "flat_matrix", property(forbidden))
        ms = build_mode_set(3, (1, 0, 0))
        f = random_factor(73, 2, 0.3)
        for t in (0.0, 0.05):
            assert len(cf.trusted_spectrum(f, t, ms).eigenvalues) > 0
        fam = cf.tracked_spectrum(f, [0.0, 0.02, 0.04], ms)
        assert not fam.ambiguous
        assert len(lowest_positive_clusters(f, 0.05, ms, 3)) == 3
        cluster = extract_cluster(ms, lam=np.sqrt(5) / 2)
        assert len(deformed_cluster_values(f, 0.05, cluster).eigenvalues) == cluster.p_c
        with pytest.raises(AssertionError, match="flat_matrix"):
            cf.build_deformed_operator(f, 0.05, ms).A

    @pytest.mark.parametrize("solve", [
        lambda f, ms: cf.trusted_spectrum(f, 0.05, ms),
        lambda f, ms: deformed_cluster_values(f, 0.05, extract_cluster(ms, lam=np.sqrt(5) / 2)),
    ], ids=["trusted", "cluster"])
    def test_trusted_solve_holds_one_dense_matrix(self, solve):
        # One N=4 index-window solve (the trusted shells, or one flat
        # cluster), from build_deformed_operator through the residual gate,
        # allocates less than 1.45 dense dim x dim complex matrices at its
        # peak (1.35 and 1.32 measured): the reduced matrix C plus L^{-1}, a
        # quarter of C, and one n x 128 panel while C is built, C and the
        # window's vectors through eigh, and after it the vectors with B_s
        # and its factor L.  A whole n x n work array, or an n^2 index table
        # in the gather, would exceed it.
        ms = build_mode_set(4, (1, 0, 0))
        f = random_factor(11, 2, 0.3)
        dense = 16 * ms.dim**2
        tracemalloc.start()
        try:
            res = solve(f, ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.eigenvalues) > 0
        assert peak < 1.45 * dense, peak / dense


class TestTrustedSpectrum:
    def test_trust_radius_formula(self):
        f = random_factor(5, 2, 0.3)
        assert cf.trust_radius(f, 0.0, 3) == 2.5
        assert cf.trust_radius(f, -0.05, 4) == 3.5 * np.exp(-0.05 * f.sup_abs())

    @staticmethod
    def dense_trusted(factor, t, ms, tolerances=es.TOLERANCES, radius=None):
        """The full solve's clusters with |lambda| <= R + tol, and their eigenvalues."""
        res = cf.deformed_spectrum(factor, t, ms, tolerances)
        if radius is None:
            radius = cf.trust_radius(factor, t, ms.N)
        tau = res.meta["tau_rel"]
        kept = [c for c in res.clusters if abs(c.lam) <= radius + tau * max(1.0, radius)]
        lo, hi = (kept[0].start, kept[-1].stop) if kept else (0, 0)
        return kept, res.eigenvalues[lo:hi]

    def assert_dense(self, res, factor, t, ms, tolerances=es.TOLERANCES, radius=None):
        kept, ref = self.dense_trusted(factor, t, ms, tolerances, radius)
        assert [c.mult_c for c in res.clusters] == [c.mult_c for c in kept]
        assert res.eigenvalues.shape == ref.shape
        assert np.max(np.abs(res.eigenvalues - ref) / np.maximum(1.0, np.abs(ref)),
                      initial=0.0) < 1e-12

    @pytest.mark.parametrize("delta", [(0, 0, 0), (1, 0, 0), (1, 1, 1)], ids=str)
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_the_dense_solve(self, N, delta):
        ms = build_mode_set(N, delta)
        # a random factor, the flat spectrum, and a constant factor at large t
        # (only the kernel, or nothing, stays inside at N = 1)
        for f, t in [
            (random_factor(45, 2, 0.3), 0.05),
            (cf.ConformalFactor.zero(), 0.0),
            (cf.ConformalFactor.constant(1.0), 0.9),
        ]:
            self.assert_dense(cf.trusted_spectrum(f, t, ms), f, t, ms)

    def test_a_wide_tolerance_grows_the_window(self, monkeypatch):
        # at tau_rel = 0.2 the shells past 2.5 join the edge clusters, so
        # both edges are cut and grow until the clusters are whole
        ms, f = build_mode_set(3, (1, 0, 0)), random_factor(45, 2, 0.3)
        calls = record_solves(monkeypatch)
        wide = (es.TAU_REL_DEGENERATE, 0.2)
        res = cf.trusted_spectrum(f, 0.05, ms, wide)
        assert len(calls) > 1
        assert calls[-1][0] < calls[0][0] and calls[-1][1] > calls[0][1]
        self.assert_dense(res, f, 0.05, ms, wide)

    def test_grows_past_the_trusted_shells_while_eigenvalues_lie_inside(self, monkeypatch):
        # a sampled sup|f| that ran low would put R past the eigenvalues of the
        # trusted shells: the window grows until the eigenvalue past each edge
        # lies outside R + tol
        ms, f = build_mode_set(2, (1, 0, 0)), random_factor(45, 2, 0.3)
        monkeypatch.setattr(cf, "trust_radius", lambda factor, t, N: 2.2)
        calls = record_solves(monkeypatch)
        res = cf.trusted_spectrum(f, 0.05, ms)
        assert len(calls) > 1 and res.meta["trust_radius"] == 2.2
        assert np.max(np.abs(res.eigenvalues)) > 1.5
        self.assert_dense(res, f, 0.05, ms, radius=2.2)

    def test_empty_window(self):
        # a constant factor scales the spectrum and R alike: at large t only
        # the kernel of the trivial structure stays inside
        ms = build_mode_set(1, (0, 0, 0))
        res = cf.trusted_spectrum(cf.ConformalFactor.constant(1.0), 0.9, ms)
        assert [c.mult_c for c in res.clusters] == [2]
        res = cf.trusted_spectrum(
            cf.ConformalFactor.constant(1.0), 0.9, build_mode_set(1, (1, 1, 1))
        )
        assert res.clusters == [] and res.eigenvalues.size == 0


class TestTrackedSpectrum:
    """t-grid curves on the index window of the flat shells with |lambda| <= N - 1/2."""

    @pytest.mark.parametrize("delta", [(0, 0, 0), (1, 0, 0), (1, 1, 1)], ids=str)
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_flat_column_is_the_lattice_count(self, N, delta):
        ms = build_mode_set(N, delta)
        fam = cf.tracked_spectrum(random_factor(43, 2, 0.3), [0.0, 0.02], ms)
        radius = N - 0.5
        ref = np.sort([
            sign * line.lam
            for line in closed_form_spectrum(delta, radius)
            for sign in ((1.0,) if line.lam == 0 else (1.0, -1.0))
            for _ in range(line.mult_c)
        ])
        flat = np.sort(fam.trajectories[:, 0])
        # every shell with |lambda| <= N - 1/2 is whole in the truncation, so
        # the window holds exactly the lattice count, edge shells included
        assert flat.shape == ref.shape
        lo, hi = fam.index_window
        assert hi - lo == len(ref)
        inside = np.abs(ref) < radius - 1e-9
        assert np.max(np.abs(flat[inside] - ref[inside]), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("delta", [(1, 0, 0), (1, 1, 1)], ids=str)
    def test_window_values_match_the_dense_solve(self, delta):
        ms = build_mode_set(3, delta)
        f = random_factor(44, 2, 0.3)
        ts = [0.0, 0.04, 0.08]
        fam = cf.tracked_spectrum(f, ts, ms)
        lo, hi = fam.index_window
        assert not fam.ambiguous and hi - lo == fam.trajectories.shape[0]
        for k, t in enumerate(ts):
            op = cf.build_deformed_operator(f, t, ms)
            ref = scipy.linalg.eigh(op.A, op.B, eigvals_only=True)[lo:hi]
            got = np.sort(fam.trajectories[:, k])
            assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12
        assert fam.trust_radius == [cf.trust_radius(f, t, 3) for t in ts]

    def test_edge_shell_leaves_the_trust_radius(self):
        # delta = (1,0,0) has a shell at exactly N - 1/2 = 2.5: it starts on
        # R(0) and R(t) shrinks faster than the shell moves; shells at
        # |lambda| <= 2.06 stay well inside
        ms = build_mode_set(3, (1, 0, 0))
        fam = cf.tracked_spectrum(random_factor(44, 2, 0.3), [0.0, 0.05], ms)
        start = np.abs(fam.trajectories[:, 0])
        leaves = np.array(fam.leaves_trust_radius)
        assert all(type(x) is bool for x in fam.leaves_trust_radius)
        assert leaves[np.abs(start - 2.5) < 1e-12].all()
        assert not leaves[start < 2.1].any()

    def test_snapshots_keep_the_gates_B_s_until_matched(self, monkeypatch):
        # Each t > 0 gathers B_s twice, for the solve's M = L^{-1} and for
        # its back-transformation and residual gate, and its snapshot keeps
        # the second gather.  A snapshot lets go of it once the next one is
        # requested: curve matching reads B_s only of a step's later snapshot.
        ms = build_mode_set(2, (1, 0, 0))
        f = random_factor(45, 2, 0.3)
        gathers = []
        gather = cf.assemble_multiplication
        monkeypatch.setattr(cf, "assemble_multiplication",
                            lambda *args: gathers.append(gather(*args)) or gathers[-1])
        ts = [0.02, 0.04, 0.06]
        seen = []

        def read(snapshots):
            for snap in snapshots:
                assert snap.B_s is gathers[-1]
                assert all(s.B_s is None for s in seen)
                seen.append(snap)

        cf._solve_shells(f, ts, ms, cf._trusted_shells(ms), read=read, keep_vectors=True)
        assert len(seen) == len(ts) and len(gathers) == 2 * len(ts)
        assert seen[-1].B_s is None


class TestApplyDeformedDirac:
    def test_t_zero_is_flat(self, rng):
        ms = build_mode_set(2, (1, 0, 0))
        phi = random_field(ms, rng)
        out = cf.apply_deformed_dirac(random_factor(2, 2, 0.5), 0.0, phi)
        assert_allclose(out.coeffs, apply_flat_dirac(phi).coeffs)

    def test_constant_factor_scales(self, rng):
        ms = build_mode_set(2, (0, 1, 0))
        phi = random_field(ms, rng)
        c, t = 0.4, 0.2
        out = cf.apply_deformed_dirac(cf.ConformalFactor.constant(c), t, phi)
        expected = np.exp(-t * c) * apply_flat_dirac(phi).coeffs
        pos = out.mode_set.positions_of(ms.modes)
        assert_allclose(out.coeffs[pos], expected, atol=1e-13)
        mask = np.ones(out.mode_set.n_modes, dtype=bool)
        mask[pos] = False
        assert np.max(np.abs(out.coeffs[mask])) < 1e-13

    @pytest.mark.parametrize("delta, t", [
        ((0, 0, 0), None), ((1, 0, 0), None), ((1, 1, 1), None),
        ((1, 0, 0), 0.5),  # n_out = 34: a grid of 72, past the floor of 64
    ], ids=["delta0", "delta1", "delta2", "wide_grid"])
    def test_substitution_identity(self, delta, t, rng):
        ms = build_mode_set(2, delta)
        f = random_factor(int(rng.integers(0, 2**31)), 2, 0.5)
        drawn = float(rng.uniform(-0.12, 0.12))
        t = drawn if t is None else t
        phi = random_field(ms, rng)
        assert cf.substitution_identity_error(f, t, phi) < 1e-10

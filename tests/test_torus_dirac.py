import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintorus import torus_dirac as td
from spintorus.spinor_algebra import herm_inner

from helpers import zero_field


def brute_force_shells(delta, lam_max):
    """Independent lattice enumeration: plain loops, no package helpers."""
    shells = {}
    b = int(np.ceil(lam_max)) + 1
    for k1 in range(-b, b + 1):
        for k2 in range(-b, b + 1):
            for k3 in range(-b, b + 1):
                kappa = (k1 + delta[0] / 2, k2 + delta[1] / 2, k3 + delta[2] / 2)
                q = kappa[0] ** 2 + kappa[1] ** 2 + kappa[2] ** 2
                lam = np.sqrt(q)
                if lam <= lam_max + 1e-12:
                    key = round(4 * q)  # exact integer for half-integer modes
                    shells[key] = shells.get(key, 0) + 1
    return shells


class TestSpinStructure:
    def test_parse_and_validate(self):
        assert td.SpinStructure.parse("1,0,1").delta == (1, 0, 1)
        with pytest.raises(ValueError):
            td.SpinStructure((0, 2, 0))
        with pytest.raises(ValueError):
            td.SpinStructure.parse("1,0")

    def test_shift(self):
        assert_allclose(td.SpinStructure((1, 0, 1)).shift, [0.5, 0.0, 0.5])


class TestModeSet:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_mode_diffs_equal_float_formula(self, N):
        for spin in td.all_spin_structures():
            ms = td.build_mode_set(N, spin)
            reference = np.rint(ms.modes[:, None, :] - ms.modes[None, :, :]).astype(np.int16)
            assert ms.mode_diffs.dtype == reference.dtype
            assert ms.mode_diffs.shape == reference.shape == (ms.n_modes, ms.n_modes, 3)
            assert ms.mode_diffs.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_shell_keys_equal_float_formula(self, N):
        for spin in td.all_spin_structures():
            ms = td.build_mode_set(N, spin)
            reference = np.rint(4.0 * np.sum(ms.modes**2, axis=1)).astype(np.int64)
            assert ms.shell_keys.dtype == reference.dtype
            assert np.array_equal(ms.shell_keys, reference)

    def test_counts_trivial(self):
        ms = td.build_mode_set(1, (0, 0, 0))
        assert ms.n_modes == 27
        assert ms.positions_of([(0.0, 0.0, 0.0)])[0] >= 0

    def test_counts_shifted(self):
        ms = td.build_mode_set(1, (1, 0, 0))
        assert ms.n_modes == 18
        assert ms.positions_of([(0.5, 0.0, 0.0)])[0] >= 0
        assert ms.positions_of([(-0.5, 0.0, 0.0)])[0] >= 0
        # no integer first coordinates at all
        assert not np.any(np.abs(ms.modes[:, 0] - np.round(ms.modes[:, 0])) < 1e-12)

    @pytest.mark.parametrize("delta", [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
    @pytest.mark.parametrize("N", [1, 2])
    def test_negation_closed(self, delta, N):
        ms = td.build_mode_set(N, delta)
        expected = 1
        for d in delta:
            expected *= 2 * N + 1 - d
        assert ms.n_modes == expected
        assert ms.dim == 2 * ms.n_modes == td.mode_set_dim(N, delta)  # the closed form sizing reads
        pos = ms.positions_of(-ms.modes)
        assert np.all(pos >= 0)
        assert_allclose(ms.modes[ms.neg_index], -ms.modes)
        # no duplicates
        assert len({tuple(np.round(2 * m).astype(int)) for m in ms.modes}) == ms.n_modes

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            td.build_mode_set(0, (0, 0, 0))

    def test_covers_truncation_radius(self):
        ms = td.build_mode_set(2, (1, 1, 0))
        radius = ms.N - 0.5
        b = 3
        for k1 in np.arange(-b, b + 1):
            for k2 in np.arange(-b, b + 1):
                for k3 in np.arange(-b, b + 1):
                    kappa = np.array([k1 + 0.5, k2 + 0.5, k3])
                    if np.max(np.abs(kappa)) <= radius:
                        assert ms.positions_of([kappa])[0] >= 0


class TestFlatDirac:
    def test_hermitian_blocks(self):
        ms = td.build_mode_set(1, (1, 1, 1))
        A = td.assemble_flat_dirac(ms)
        assert_allclose(A, A.conj().T)

    def test_trivial_structure_eigenvalues(self):
        ms = td.build_mode_set(1, (0, 0, 0))
        w = np.linalg.eigvalsh(td.assemble_flat_dirac(ms))
        assert np.sum(np.abs(w) < 1e-12) == 2
        assert np.sum(np.abs(w - 1.0) < 1e-12) == 6
        assert np.sum(np.abs(w + 1.0) < 1e-12) == 6

    def test_shifted_structure_smallest_eigenvalue(self):
        ms = td.build_mode_set(1, (1, 0, 0))
        w = np.linalg.eigvalsh(td.assemble_flat_dirac(ms))
        positive = w[w > 0]
        assert abs(positive.min() - 0.5) < 1e-12
        assert np.sum(np.abs(w - 0.5) < 1e-12) == 2

    def test_spectrum_symmetric_about_zero(self):
        for delta in [(0, 0, 0), (1, 0, 0), (0, 1, 1)]:
            ms = td.build_mode_set(2, delta)
            w = np.linalg.eigvalsh(td.assemble_flat_dirac(ms))
            assert_allclose(w, -w[::-1], atol=1e-12)

    def test_apply_matches_matrix(self, rng):
        ms = td.build_mode_set(2, (1, 0, 1))
        phi = td.random_field(ms, rng)
        out = td.apply_flat_dirac(phi)
        assert_allclose(out.vector, td.assemble_flat_dirac(ms) @ phi.vector, atol=1e-13)


class TestClosedFormSpectrum:
    def test_trivial_examples(self):
        lines = td.closed_form_spectrum((0, 0, 0), 1.5)
        table = {round(l.lam, 9): (l.mult_c, l.mult_h) for l in lines}
        assert table[0.0] == (2, 1)
        assert table[1.0] == (6, 3)
        assert table[round(np.sqrt(2.0), 9)] == (12, 6)

    def test_shifted_examples(self):
        lines = td.closed_form_spectrum((1, 0, 0), 1.6)
        table = {round(l.lam, 9): (l.mult_c, l.mult_h) for l in lines}
        assert table[0.5] == (2, 1)
        assert table[round(np.sqrt(5.0) / 2.0, 9)] == (8, 4)
        # 3/2 arises both from (±3/2,0,0) and (±1/2,±1,±1)
        assert table[1.5] == (10, 5)

    @pytest.mark.parametrize(
        "delta", [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    )
    def test_matches_brute_force(self, delta):
        lam_max = 2.2
        lines = td.closed_form_spectrum(delta, lam_max)
        shells = brute_force_shells(delta, lam_max)
        expected = {}
        for key, count in shells.items():
            lam = np.sqrt(key) / 2.0
            expected[round(lam, 9)] = (2, 1) if key == 0 else (count, count // 2)
        got = {round(l.lam, 9): (l.mult_c, l.mult_h) for l in lines}
        assert got == expected

    def test_no_kernel_for_nontrivial(self):
        for delta in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]:
            lines = td.closed_form_spectrum(delta, 2.0)
            assert all(l.lam > 0 for l in lines)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            td.closed_form_spectrum((0, 0, 0), 0.0)

    def test_galerkin_oracle_equality(self):
        # eigenvalues of the assembled matrix match the lattice count below
        # the truncation radius, including multiplicities
        for delta in [(0, 0, 0), (1, 1, 0)]:
            ms = td.build_mode_set(2, delta)
            radius = ms.N - 0.5
            w = np.linalg.eigvalsh(td.assemble_flat_dirac(ms))
            for line in td.closed_form_spectrum(delta, radius):
                if line.lam == 0.0:
                    assert np.sum(np.abs(w) < 1e-12) == line.mult_c
                else:
                    assert np.sum(np.abs(w - line.lam) < 1e-12) == line.mult_c
                    assert np.sum(np.abs(w + line.lam) < 1e-12) == line.mult_c


def density(phi, G):
    """|phi|^2 on the G^3 grid."""
    return np.sum(np.abs(td.field_on_grid(phi, G)) ** 2, axis=-1)


class TestFields:
    def test_parseval_single_modes(self):
        ms = td.build_mode_set(1, (0, 0, 0))
        phi = zero_field(ms)
        psi = zero_field(ms)
        i = int(ms.positions_of([(1.0, 0.0, 0.0)])[0])
        j = int(ms.positions_of([(0.0, 1.0, 0.0)])[0])
        phi.coeffs[i, 0] = 1.0
        psi.coeffs[i, 0] = 1.0
        # the L^2 inner product by Parseval: the sum of the coefficients' Hermitian products
        assert np.sum(herm_inner(phi.coeffs, psi.coeffs)) == 1.0
        psi2 = zero_field(ms)
        psi2.coeffs[j, 0] = 1.0
        assert np.sum(herm_inner(phi.coeffs, psi2.coeffs)) == 0.0

    def test_field_arithmetic_rejects_mismatched_mode_sets(self, rng):
        a = td.random_field(td.build_mode_set(1, (0, 0, 0)), rng)
        b = td.random_field(td.build_mode_set(2, (0, 0, 0)), rng)
        with pytest.raises(ValueError, match="different mode sets"):
            a + b

    @pytest.mark.parametrize("delta", [(0, 0, 0), (1, 0, 1)])
    def test_parseval_matches_grid_quadrature(self, delta, rng):
        ms = td.build_mode_set(2, delta)
        phi = td.random_field(ms, rng)
        psi = td.random_field(ms, rng)
        G = 2 * (2 * ms.N + 1)
        vals_phi = td.field_on_grid(phi, G)
        vals_psi = td.field_on_grid(psi, G)
        quad = np.mean(np.sum(vals_phi * np.conj(vals_psi), axis=-1))
        assert abs(np.sum(herm_inner(phi.coeffs, psi.coeffs)) - quad) < 1e-12

    def test_density_single_mode_constant(self):
        ms = td.build_mode_set(1, (1, 0, 0))
        phi = zero_field(ms)
        phi.coeffs[0, 1] = 1.0
        rho = density(phi, 2 * (2 * ms.N + 1))
        assert_allclose(rho, 1.0, atol=1e-13)

    def test_density_zero_field(self):
        ms = td.build_mode_set(1, (0, 0, 0))
        rho = density(zero_field(ms), 6)
        assert_allclose(rho, 0.0)

    def test_density_grid_too_small(self, rng):
        # field_on_grid needs one bin per frequency: G > 2N for the trivial structure
        ms = td.build_mode_set(2, (0, 0, 0))
        with pytest.raises(ValueError, match="too small"):
            td.field_on_grid(td.random_field(ms, rng), 2 * ms.N)

    def test_density_matches_direct_evaluation(self, rng):
        # two-mode field evaluated by an explicit Fourier sum at grid points
        ms = td.build_mode_set(1, (1, 1, 0))
        phi = zero_field(ms)
        phi.coeffs[2] = [1.0, 0.5j]
        phi.coeffs[7] = [-0.25, 1.0 + 1.0j]
        G = 2 * (2 * ms.N + 1)
        rho = density(phi, G)
        idx = rng.integers(0, G, size=(10, 3))
        for n in idx:
            x = 2 * np.pi * n / G
            val = np.zeros(2, dtype=complex)
            for kappa, u in zip(ms.modes, phi.coeffs):
                val += np.exp(1j * np.dot(kappa, x)) * u
            assert abs(rho[tuple(n)] - np.sum(np.abs(val) ** 2)) < 1e-12

    def test_density_mean_is_norm(self, rng):
        # on G >= 2 (2N + 1) the product |phi|^2 is sampled without aliasing
        ms = td.build_mode_set(2, (1, 0, 0))
        phi = 2.0 * td.random_field(ms, rng)
        rho = density(phi, 2 * (2 * ms.N + 1))
        assert abs(np.mean(rho) - phi.norm() ** 2) < 1e-12


class TestGridTransforms:
    """to_grid / from_grid, the one map between frequencies and the FFT grid."""

    @staticmethod
    def frequencies(rng):
        # 12 distinct frequencies spanning 5 = 2 - (-3) per axis
        cube = np.stack(np.meshgrid(*[np.arange(-3, 3)] * 3, indexing="ij"), -1).reshape(-1, 3)
        k = cube[rng.choice(len(cube), size=12, replace=False)]
        k[0], k[1] = (-3, -3, -3), (2, 2, 2)
        return k

    @pytest.mark.parametrize("spin_axis", [False, True])
    def test_matches_direct_sum(self, rng, spin_axis):
        k = self.frequencies(rng)
        G = int(np.max(np.ptp(k, axis=0))) + 1  # the smallest injective grid
        shape = (len(k), 2) if spin_axis else (len(k),)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals = td.to_grid(c, k, G)
        assert vals.shape == (G, G, G) + shape[1:]
        for n in rng.integers(0, G, size=(8, 3)):
            x = 2 * np.pi * n / G
            direct = sum(np.exp(1j * np.dot(m, x)) * cm for m, cm in zip(k, c))
            assert_allclose(vals[tuple(n)], direct, atol=1e-12)

    @pytest.mark.parametrize("spin_axis", [False, True])
    def test_from_grid_inverts_to_grid(self, rng, spin_axis):
        k = self.frequencies(rng)
        shape = (len(k), 2) if spin_axis else (len(k),)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for G in (6, 16):
            assert_allclose(td.from_grid(td.to_grid(c, k, G), k, G), c, atol=1e-13)

    @pytest.mark.parametrize("spin_axis", [False, True])
    @pytest.mark.parametrize("G", [6, 9, 16, 25, 64])
    def test_bit_identical_to_the_full_inverse_fft(self, rng, G, spin_axis):
        # to_grid skips the lines of the G^3 transform that hold only zeros;
        # for random sparse frequency sets (and an empty one) it gives the
        # bits of the inverse FFT of the whole array
        for size in (0, 1, 7, 40):
            k = rng.integers(-(G // 2), (G + 1) // 2, size=(size, 3))
            k = np.unique(k, axis=0)
            shape = (len(k), 2) if spin_axis else (len(k),)
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            arr = np.zeros((G, G, G) + shape[1:], dtype=np.complex128)
            arr[td.fft_bins(k, G)] = c
            ref = np.fft.ifftn(arr, axes=(0, 1, 2)) * G**3
            assert td.to_grid(c, k, G).tobytes() == ref.tobytes()

    def test_grid_must_separate_the_frequencies(self, rng):
        k = self.frequencies(rng)
        with pytest.raises(ValueError, match="too small"):
            td.to_grid(np.ones(len(k)), k, 5)


class TestJField:
    def test_single_mode_example(self):
        ms = td.build_mode_set(1, (0, 0, 0))
        phi = zero_field(ms)
        i = int(ms.positions_of([(1.0, 0.0, 0.0)])[0])
        phi.coeffs[i] = [1.0, 0.0]
        out = td.apply_J_coeffs(ms, phi.coeffs)
        j = int(ms.positions_of([(-1.0, 0.0, 0.0)])[0])
        assert_allclose(out[j], [0.0, 1.0])
        nz = np.flatnonzero(np.abs(out).sum(axis=1))
        assert list(nz) == [j]

    def test_J_squared(self, rng):
        ms = td.build_mode_set(2, (1, 1, 0))
        phi = td.random_field(ms, rng)
        out = td.apply_J_coeffs(ms, td.apply_J_coeffs(ms, phi.coeffs))
        assert_allclose(out, -phi.coeffs, atol=1e-14)

    def test_J_commutes_with_dirac(self, rng):
        for delta in [(0, 0, 0), (1, 0, 0)]:
            ms = td.build_mode_set(2, delta)
            A = td.assemble_flat_dirac(ms)
            phi = td.random_field(ms, rng)
            lhs = td.apply_J_coeffs(ms, A @ phi.vector)
            rhs = A @ td.apply_J_coeffs(ms, phi.vector)
            assert_allclose(lhs, rhs, atol=1e-13)

    def test_J_preserves_eigenspaces(self):
        ms = td.build_mode_set(1, (0, 0, 0))
        A = td.assemble_flat_dirac(ms)
        w, V = np.linalg.eigh(A)
        for lam in (0.0, 1.0):
            cols = V[:, np.abs(w - lam) < 1e-12]
            JV = td.apply_J_coeffs(ms, cols)
            proj = cols @ (cols.conj().T @ JV)
            assert np.max(np.abs(JV - proj)) < 1e-12

    def test_coefficient_stack_matches_fields(self, rng):
        # a column stack, one vector and a field's (n_modes, 2) array give the same bytes
        ms = td.build_mode_set(2, (0, 1, 1))
        V = rng.standard_normal((ms.dim, 3)) + 1j * rng.standard_normal((ms.dim, 3))
        JV = td.apply_J_coeffs(ms, V)
        assert JV.shape == V.shape
        for j in range(3):
            one = td.apply_J_coeffs(ms, V[:, j])
            field = td.apply_J_coeffs(ms, V[:, j].reshape(ms.n_modes, 2))
            assert field.shape == (ms.n_modes, 2)
            assert JV[:, j].tobytes() == one.tobytes() == field.tobytes()

    def test_flat_multiplicities_even(self):
        for delta in [(0, 0, 0), (1, 1, 1)]:
            ms = td.build_mode_set(2, delta)
            w = np.linalg.eigvalsh(td.assemble_flat_dirac(ms))
            uniq, counts = np.unique(np.round(w, 9), return_counts=True)
            assert np.all(counts % 2 == 0)


def test_embed_field(rng):
    small = td.build_mode_set(1, (1, 0, 0))
    big = td.build_mode_set(3, (1, 0, 0))
    phi = td.random_field(small, rng)
    emb = td.embed_field(phi, big)
    assert abs(emb.norm() - phi.norm()) < 1e-15
    pos = big.positions_of(small.modes)
    assert_allclose(emb.coeffs[pos], phi.coeffs)


def test_spectrum_csv_rows():
    rows = td.spectrum_csv_rows(td.closed_form_spectrum((1, 0, 0), 1.2))
    assert rows[0] == ("lambda", "mult_complex", "mult_quaternionic")
    assert rows[1] == ("0.5", "2", "1")

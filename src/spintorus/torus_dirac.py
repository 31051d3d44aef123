"""Flat Dirac operator on the torus R^3 / 2 pi Z^3 in a truncated Fourier spinor basis.

A spinor field is ``phi(x) = sum_kappa e^{i<kappa, x>} u_kappa`` with
``u_kappa`` in C^2 and kappa running over the shifted lattice
``Z^3 + delta/2`` selected by the spin structure ``delta in {0,1}^3``.
The measure is normalized to total volume one (``dmu = dx / (2 pi)^3``), so a
single-mode field with unit coefficient has unit L^2 norm and Parseval holds
without volume factors.

The truncated operator is exactly block diagonal over modes, so the
truncation introduces no error for eigenvalues below the truncation radius:
eigenvalues are ``+/- |kappa|`` and ``closed_form_spectrum`` is a plain
lattice count, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spinor_algebra import apply_J, dirac_symbol

#: Dimension of the torus.  A few conformal formulas carry the dimension n
#: symbolically ((n-1)/2 factors, e^{n t f} volume weights); only n = 3 is
#: ever instantiated.
TORUS_DIM = 3


@dataclass(frozen=True)
class SpinStructure:
    """One of the eight spin structures, encoded by delta in {0,1}^3.

    delta shifts the Fourier mode lattice to Z^3 + delta/2.
    """

    delta: tuple[int, int, int]

    def __post_init__(self):
        if len(self.delta) != 3 or any(d not in (0, 1) for d in self.delta):
            raise ValueError(f"spin structure must lie in {{0,1}}^3, got {self.delta!r}")
        object.__setattr__(self, "delta", tuple(int(d) for d in self.delta))

    @classmethod
    def parse(cls, text):
        parts = [p for p in str(text).replace(",", " ").split() if p]
        if len(parts) != 3:
            raise ValueError(f"expected three 0/1 entries, got {text!r}")
        return cls(tuple(int(p) for p in parts))

    @property
    def shift(self):
        """The dual-lattice shift delta/2 as a float vector."""
        return np.asarray(self.delta, dtype=float) / 2.0

    def __str__(self):
        return ",".join(str(d) for d in self.delta)


def all_spin_structures():
    """The eight spin structures in lexicographic order."""
    return [SpinStructure((a, b, c)) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def mode_set_dim(N, delta):
    """Dimension of ``ModeSet(N, delta)``, two per mode: 2 prod_j (2N + 1 - delta_j)."""
    return 2 * int(np.prod([2 * N + 1 - d for d in delta]))


class ModeSet:
    """Negation-closed truncation of the shifted mode lattice Z^3 + delta/2.

    Index ranges per axis: k_j in -N..N when delta_j = 0 and k_j in -N..N-1
    when delta_j = 1 (the +1/2 shift recenters the latter symmetrically).
    Closure under kappa -> -kappa is required so that the quaternionic
    structure J acts inside the truncation.

    Coefficient vectors use mode-major layout: entry 2*i + a is the a-th spin
    component of mode i.
    """

    def __init__(self, N, spin_structure):
        N = int(N)
        if N < 1:
            raise ValueError(f"truncation order must be >= 1, got {N}")
        if not isinstance(spin_structure, SpinStructure):
            spin_structure = SpinStructure(tuple(spin_structure))
        self.N = N
        self.spin_structure = spin_structure
        self._starts = np.array(
            [-N, -N, -N], dtype=np.int64
        )
        self._lens = np.array(
            [2 * N + 1 - d for d in spin_structure.delta], dtype=np.int64
        )
        axes = [
            np.arange(self._starts[j], self._starts[j] + self._lens[j])
            for j in range(3)
        ]
        grid = np.meshgrid(*axes, indexing="ij")
        self.k_values = np.stack([g.reshape(-1) for g in grid], axis=-1)
        self.modes = self.k_values + spin_structure.shift
        doubled = 2 * self.k_values + np.asarray(spin_structure.delta)
        #: Exact shell key |2 kappa|^2 per mode; its flat eigenvalues are +/- sqrt(key) / 2.
        self.shell_keys = np.sum(doubled * doubled, axis=1)
        #: The flat spectrum as arrays (keys, lams, mult_c), one entry per cluster
        #: in ascending order: the signed shell keys -q, 0, q, their eigenvalues
        #: sign * sqrt(q) / 2 and complex multiplicities (a mode of shell q > 0
        #: gives one eigenvalue of each sign, the zero mode a kernel of 2).
        keys, mult_c = np.unique(
            np.concatenate([-self.shell_keys, self.shell_keys]), return_counts=True
        )
        self.flat_clusters = (keys, np.sign(keys) * np.sqrt(np.abs(keys)) / 2.0, mult_c)
        #: Eigenvalue index of each flat cluster's first eigenvalue, then dim: the
        #: ascending eigenvalues of a pencil (A, B), B = L L^H > 0, move
        #: continuously with B from those of A, and by Sylvester's law of inertia
        #: (L^{-1} A L^{-H} is congruent to A) never change sign, so flat cluster c
        #: names the indices [cluster_starts[c], cluster_starts[c + 1]) of every
        #: deformation (spectrum slicing; see Parlett, The Symmetric Eigenvalue Problem).
        self.cluster_starts = np.concatenate([[0], np.cumsum(mult_c)])
        self.n_modes = self.modes.shape[0]
        self.dim = mode_set_dim(N, spin_structure.delta)
        self.neg_index = self.positions_of(-self.modes)
        if np.any(self.neg_index < 0):
            raise AssertionError("mode set is not closed under negation")
        self._symbols = None
        self._diffs = None
        self._flat_matrix = None

    def positions_of(self, kappas):
        """Row indices of the given modes, -1 where a mode is not in the set."""
        kappas = np.atleast_2d(np.asarray(kappas, dtype=float))
        k = kappas - self.spin_structure.shift
        ki = np.rint(k).astype(np.int64)
        on_lattice = np.all(np.abs(k - ki) < 1e-9, axis=-1)
        off = ki - self._starts
        inside = np.all((off >= 0) & (off < self._lens), axis=-1)
        valid = on_lattice & inside
        off = np.where(valid[..., None], off, 0)
        pos = (off[..., 0] * self._lens[1] + off[..., 1]) * self._lens[2] + off[..., 2]
        return np.where(valid, pos, -1)

    @property
    def symbols(self):
        """Stacked 2x2 mode symbols -sigma . kappa, shape (n_modes, 2, 2)."""
        if self._symbols is None:
            self._symbols = dirac_symbol(self.modes)
        return self._symbols

    @property
    def mode_diffs(self):
        """Integer difference table kappa_i - kappa_j, shape (M, M, 3), int16.

        Assembly does not build it: ``conformal.CenteredCube.lookup`` gathers
        by flat index."""
        if self._diffs is None:
            k = self.k_values.astype(np.int16)  # the shift delta/2 cancels
            self._diffs = k[:, None] - k[None]
        return self._diffs

    @property
    def flat_matrix(self):
        """Cached flat Dirac matrix; treat as read-only."""
        if self._flat_matrix is None:
            self._flat_matrix = assemble_flat_dirac(self)
        return self._flat_matrix

    def same_modes(self, other):
        return self is other or (
            self.N == other.N and self.spin_structure == other.spin_structure
        )


def build_mode_set(N, spin_structure):
    """Build the truncated mode set for the given order and spin structure."""
    return ModeSet(N, spin_structure)


@dataclass
class SpinorField:
    """Truncated Fourier spinor field: one C^2 coefficient per mode."""

    mode_set: ModeSet
    coeffs: np.ndarray  # (n_modes, 2) complex

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.mode_set.n_modes, 2):
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, "
                f"expected {(self.mode_set.n_modes, 2)}"
            )

    @classmethod
    def from_vector(cls, mode_set, vec):
        return cls(mode_set, np.asarray(vec, dtype=np.complex128).reshape(-1, 2))

    @property
    def vector(self):
        return self.coeffs.reshape(-1)

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        if not self.mode_set.same_modes(other.mode_set):
            raise ValueError("fields live on different mode sets")
        return SpinorField(self.mode_set, self.coeffs + other.coeffs)

    def __mul__(self, scalar):
        return SpinorField(self.mode_set, self.coeffs * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return SpinorField(self.mode_set, self.coeffs / scalar)


def random_field(mode_set, rng):
    """Gaussian random field of unit flat L^2 norm."""
    c = rng.standard_normal((mode_set.n_modes, 2, 2)) @ np.array([1.0, 1.0j])
    phi = SpinorField(mode_set, c)
    return phi / phi.norm()


def embed_field(phi, big_mode_set):
    """Reinterpret phi on a larger mode set with the same spin structure."""
    pos = big_mode_set.positions_of(phi.mode_set.modes)
    if np.any(pos < 0):
        raise ValueError("target mode set does not contain the source modes")
    out = np.zeros((big_mode_set.n_modes, 2), dtype=np.complex128)
    out[pos] = phi.coeffs
    return SpinorField(big_mode_set, out)


def apply_symbols(symbols, V):
    """A V for mode-major V (one vector, stacked columns or (n, 2)
    coefficients), A = blockdiag(``symbols``) of shape (n, 2, 2)."""
    n = symbols.shape[0]
    return np.einsum("mab,mbp->map", symbols, V.reshape(n, 2, -1)).reshape(V.shape)


def flat_eigenvectors(mode_set, modes, signs):
    """The flat eigenvectors of eigenvalue sign |kappa| of ``modes`` (indices)
    and their ``signs`` (+/-1 each), as the rows u of a p x 2 array:
    the vector is e_kappa (x) u (``mode_major``).  For kappa != 0, u is the
    normalized column of the projector (I + sign S / |kappa|) / 2 of the
    symbol S = -sigma . kappa (S^2 = |kappa|^2 I) with the larger diagonal
    entry; the kernel mode kappa = 0 gives e_0 for sign -1, e_1 for +1."""
    modes = np.asarray(modes, dtype=np.int64)
    q, signs = mode_set.shell_keys[modes], np.asarray(signs)
    U = np.zeros((len(modes), 2), dtype=np.complex128)
    U[q == 0, (signs[q == 0] > 0).astype(int)] = 1.0
    m, sign = q > 0, signs[q > 0, None]
    S, cols = mode_set.symbols[modes[m]], np.arange(np.count_nonzero(m))
    a = (sign[:, 0] * S[:, 0, 0].real < 0).astype(int)  # the larger diagonal entry
    e = sign * S[cols, :, a] / (np.sqrt(q[m]) / 2.0)[:, None]
    e[cols, a] += 1.0
    e /= np.sqrt(2.0 * e[cols, a].real)[:, None]
    U[m] = e
    return U


def mode_major(mode_set, modes, U):
    """The mode-major dim x p array whose column j is e_{modes[j]} (x) U[j]."""
    V = np.zeros((mode_set.n_modes, 2, len(modes)), dtype=np.complex128)
    V[modes, :, np.arange(len(modes))] = U
    return V.reshape(mode_set.dim, len(modes))


def apply_flat_dirac(phi):
    """Flat Dirac operator on fields, mode by mode: u_kappa -> -sigma.kappa u_kappa."""
    return SpinorField(phi.mode_set, apply_symbols(phi.mode_set.symbols, phi.coeffs))


def assemble_flat_dirac(mode_set):
    """Dense flat Dirac matrix: block diagonal with blocks -sigma . kappa.

    Solves never build it (they read ``ModeSet.symbols``); it serves the
    dense oracle and tests."""
    M = mode_set.n_modes
    A = np.zeros((2 * M, 2 * M), dtype=np.complex128)
    sym = mode_set.symbols
    for i in range(M):
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = sym[i]
    return A


def apply_J_coeffs(mode_set, V):
    """Quaternionic structure on coefficients: the spinor at kappa becomes J(u_{-kappa}).

    ``V`` is one coefficient vector (or ``(n_modes, 2)`` array) or a stack
    of column vectors in mode-major layout; the result has the same shape.
    """
    c = np.asarray(V).reshape(mode_set.n_modes, 2, -1)[mode_set.neg_index]
    return apply_J(c.swapaxes(1, 2)).swapaxes(1, 2).reshape(np.shape(V))


def fft_bins(k, G):
    """Index of the FFT bins of the integer frequencies k, shape (n, 3): m goes to m mod G."""
    return tuple((np.asarray(k) % G).T)


def to_grid(coeffs, k, G):
    """Samples of sum_m c_m e^{i<m, x>} at x = 2 pi n / G, n in {0..G-1}^3.

    ``coeffs`` has one row per frequency in ``k`` and an optional trailing
    (spin) axis that the result keeps.  Exact up to roundoff when G exceeds
    the spread of k along every axis, which is required.
    """
    coeffs = np.asarray(coeffs)
    if len(k) and np.max(np.ptp(k, axis=0)) >= G:
        raise ValueError(f"grid size {G} too small for frequencies spanning {np.ptp(k, axis=0)}")
    arr = np.zeros((G, G, G) + coeffs.shape[1:], dtype=np.complex128)
    bins = fft_bins(k, G)
    arr[bins] = coeffs
    # np.fft.ifftn(arr, axes=(0, 1, 2)) transforms axis 2, then 1, then 0, one
    # line at a time.  The same transforms, skipping the lines that are still
    # zero (along axis 2 all but the frequencies' (m_1, m_2) lines, along
    # axis 1 all but their m_1 planes), give the same bits.
    i, j = np.unique(np.stack(bins[:2]), axis=1)
    arr[i, j] = np.fft.ifft(arr[i, j], axis=1)
    i = np.unique(bins[0])
    arr[i] = np.fft.ifft(arr[i], axis=1)
    # Axis 0 a plane of lines at a time, in place: no second G^3 array.
    for j in range(G):
        arr[:, j] = np.fft.ifft(arr[:, j], axis=0)
    arr *= G**3
    return arr


def from_grid(vals, k, G):
    """Fourier coefficients at the frequencies k of samples on the G^3 grid
    (the inverse of ``to_grid``; a trailing axis of ``vals`` is kept)."""
    return (np.fft.fftn(vals, axes=(0, 1, 2)) / G**3)[fft_bins(k, G)]


def field_on_grid(phi, G):
    """Evaluate phi on the uniform grid x = 2 pi n / G, n in {0..G-1}^3.

    Returns a (G, G, G, 2) complex array.  Exact (up to roundoff) whenever
    G >= 2N + 1, since the field is band limited.
    """
    ms = phi.mode_set
    G = int(G)
    vals = to_grid(phi.coeffs, ms.k_values, G)
    delta = ms.spin_structure.delta
    if any(delta):
        n = np.arange(G)
        for axis, d in enumerate(delta):
            if d:
                phase = np.exp(1j * np.pi * n / G)
                shape = [1, 1, 1, 1]
                shape[axis] = G
                vals = vals * phase.reshape(shape)
    return vals


class SpectrumLine(NamedTuple):
    """An eigenvalue with its complex and quaternionic multiplicities."""

    lam: float
    mult_c: int
    mult_h: int


def closed_form_spectrum(spin_structure, lam_max):
    """Exact flat-torus Dirac spectrum up to lam_max, by lattice enumeration.

    For lambda > 0 the complex multiplicity is the number of lattice modes
    kappa in Z^3 + delta/2 with |kappa| = lambda (each mode contributes one
    +|kappa| eigenvector); lambda = 0 appears, with complex multiplicity 2,
    exactly for the trivial spin structure.  Quaternionic multiplicity is
    half the complex one.
    """
    if not isinstance(spin_structure, SpinStructure):
        spin_structure = SpinStructure(tuple(spin_structure))
    lam_max = float(lam_max)
    if not np.isfinite(lam_max):
        raise ValueError(f"lam_max must be finite, got {lam_max}")
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    # Work with doubled coordinates so shell radii are exact integers.
    bound = int(np.ceil(lam_max)) + 1
    squares = [(2 * np.arange(-bound, bound + 1) + d) ** 2 for d in spin_structure.delta]
    q = squares[0][:, None, None] + squares[1][:, None] + squares[2]  # |2 kappa|^2
    qmax = int(np.floor((2.0 * lam_max) ** 2 + 1e-9))
    keys, counts = np.unique(q[q <= qmax], return_counts=True)
    lines = []
    for qval, n in zip(keys.tolist(), counts.tolist()):
        if qval == 0:
            lines.append(SpectrumLine(0.0, 2, 1))
        else:
            lines.append(SpectrumLine(float(np.sqrt(qval) / 2.0), n, n // 2))
    return lines


def spectrum_csv_rows(lines):
    """CSV rows (lambda, mult_complex, mult_quaternionic) with header."""
    rows = [("lambda", "mult_complex", "mult_quaternionic")]
    for line in lines:
        rows.append((repr(float(line.lam)), str(line.mult_c), str(line.mult_h)))
    return rows

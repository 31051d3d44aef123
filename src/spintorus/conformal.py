"""Conformal deformation of the flat metric by e^{2tf}: weights and deformed spectra.

The deformed Dirac eigenproblem is solved in its substituted form: with
``chi = e^{(n-1)tf/2} phi`` the equation ``D_deformed phi = lambda phi`` is
equivalent to the Hermitian-definite generalized problem

    A chi = lambda B chi,

where A is the flat Dirac matrix and B is the Galerkin matrix of
multiplication by ``e^{tf}``.  Both matrices are Hermitian, B is positive
definite as the compression of multiplication by a positive function, and the
B-inner product of chi equals the deformed-metric inner product of phi, so
B-orthonormal eigenvectors correspond to eigenspinors orthonormal in the
deformed L^2 space.  The direct first-order formula for the deformed operator
is kept as ``apply_deformed_dirac`` and the two routes are reconciled by a
tested pointwise identity rather than by trust.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import eigensolver
from .errors import PositiveDefiniteError
from .spinor_algebra import dirac_symbol
from .torus_dirac import (
    TORUS_DIM,
    ModeSet,
    SpinorField,
    apply_flat_dirac,
    build_mode_set,
    embed_field,
    from_grid,
    to_grid,
)

#: Deformations are considered well-resolved while |t| * osc(f) stays below
#: this; beyond it a warning is emitted (positive-definiteness failures are
#: hard errors either way).
T_RANGE_LIMIT = 1.0

#: Reality-constraint tolerance for loaded Fourier coefficients.
REALITY_TOL = 1e-14

#: Certified l1 bound on the aliasing error of the coefficients that
#: ``exp_coeffs`` returns, relative to e^{-|t| ||fhat||_1}, a lower bound for
#: min e^{tf} and so for the smallest eigenvalue of B.
EXP_ALIAS_TOL = 1e-15

#: Largest weight |t| ||fhat||_1 whose e^{tf} coefficients are certified; at
#: it the grid side is already about 380 times the factor's degree.
EXP_WEIGHT_MAX = 100.0

#: Largest |t| osc(f) that ``assemble_B`` accepts.  The condition number of
#: B is at most max e^{tf} / min e^{tf} = e^{|t| osc(f)}; past log(1 / eps)
#: that bound exceeds 1 / eps, so B need not be positive definite in
#: floating point.
B_OSC_MAX = -math.log(np.finfo(float).eps)


def _fft_size(n):
    """Smallest 2^a 3^b at or above n: the FFT-friendly grid sides."""
    best, p3 = None, 1
    while True:
        p = p3
        while p < n:
            p *= 2
        best = p if best is None else min(best, p)
        if p3 >= n:
            return best
        p3 *= 3


def exp_tail(weight, K):
    """Upper bound on sum_{k >= K} weight^k / k!, the l1 mass of the terms
    (tf)^k / k!, k >= K, of e^{tf} when weight = |t| ||fhat||_1.

    After the K-th term each term shrinks by at least weight / (K + 1), so the
    sum is at most weight^K / K! * (K + 1) / (K + 1 - weight); inf when
    K + 1 <= weight, where that geometric bound does not hold.
    """
    if weight == 0:
        return float(K == 0)
    if K + 1 <= weight:
        return math.inf
    return math.exp(K * math.log(weight) - math.lgamma(K + 1)) * (K + 1) / (K + 1 - weight)


def weight_band(degree, weight):
    """Radius past which the Fourier coefficients of e^{tf} have l1 mass at
    most ``EXP_ALIAS_TOL * e^{-weight}``, for f of this degree and weight =
    |t| ||fhat||_1: (K - 1) degree for the smallest such K, since (tf)^k has
    degree k degree.  Raises ValueError past ``EXP_WEIGHT_MAX``."""
    if not weight <= EXP_WEIGHT_MAX:
        raise ValueError(
            f"weight |t| ||fhat||_1 = {weight:.3g} exceeds {EXP_WEIGHT_MAX:g}: the "
            "coefficients of e^{tf} cannot be certified"
        )
    tol = EXP_ALIAS_TOL * math.exp(-weight)
    K = 1
    while exp_tail(weight, K) > tol:
        K += 1
    return (K - 1) * degree


def exp_grid_size(band, degree, weight=0.0):
    """Side G of the FFT grid on which ``exp_coeffs`` samples e^{tf}.

    The coefficients |m|_inf <= band of a G^3 FFT alias those at |m|_inf >=
    G - band, so their summed error is at most the l1 mass there, which
    ``weight_band`` bounds.  G is the smallest FFT-friendly side with G >=
    band + weight_band + 1, G >= 2 band + 1 (no two kept modes share a bin)
    and G >= 2 degree + 2 (``ConformalFactor.grid_values``).  With the
    default weight 0 it is the smallest grid any factor of this degree needs.
    """
    return _fft_size(
        max(2 * band + 1, 2 * degree + 2, band + weight_band(degree, weight) + 1)
    )


def extrema_grid_size(degree):
    """Side of the grid on which ``ConformalFactor.extrema`` samples f."""
    return max(64, 4 * degree + 4)


def exp_scalar(x, what):
    """e^x as ``np.exp`` gives it; ValueError, naming ``what``, where that overflows."""
    with np.errstate(over="ignore"):
        value = float(np.exp(x))
    if math.isinf(value):
        raise ValueError(f"{what} e^{x:.6g} overflows")
    return value


def json_int(value, what):
    """value when it is a JSON integer (an int, not a bool); TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"factor {what} must be an integer, got {value!r}")
    return value


def cube_modes(radius):
    """The modes |m|_inf <= radius in lexicographic order, one per row: the
    order of ``CenteredCube.values.reshape(-1)``.  The zero mode is the
    middle row, and the rows after it are the modes m > 0."""
    r = np.arange(-radius, radius + 1)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


class CenteredCube:
    """Fourier coefficients c(m) of a real function on a centred cube
    |m|_inf <= radius.

    ``values`` has shape ``(2 radius + 1,)^3`` and holds c(m) at index
    ``m + radius``; coefficients outside the cube are zero.

    Invariant: c(-m) == conj(c(m)) for every m, compared as numbers (the
    sign of a zero may differ).  ``ConformalFactor`` and ``exp_coeffs``
    establish it by storing 0.5 (v(m) + conj(v(-m))), so nothing that reads
    the cube symmetrizes again: every matrix [c(k_i - k_j)] gathered from it
    is exactly Hermitian.
    """

    values: np.ndarray

    @property
    def radius(self):
        return (self.values.shape[0] - 1) // 2

    def items(self):
        """The nonzero coefficients as (m, c(m)) pairs, m in lexicographic order."""
        flat = self.values.reshape(-1)
        nz = np.flatnonzero(flat)
        return [(tuple(m), v) for m, v in zip(cube_modes(self.radius)[nz].tolist(), flat[nz])]

    def on_grid(self, G):
        """Samples of sum_m c(m) e^{i<m, x>} on the uniform G^3 grid (see ``to_grid``)."""
        return to_grid(self.values.reshape(-1), cube_modes(self.radius), G)

    def lookup(self, k, cols=None):
        """The matrix [c(k_i - k'_j)] for integer modes k of shape (n, 3)
        (the rows) and k' = ``cols`` of shape (p, 3) (the columns; k itself
        when None).

        One flat gather: m sits at ``values.reshape(-1)[ctr + off(m)]``, ctr
        the zero mode and off(m) = (m_1 side + m_2) side + m_3 linear in m,
        so k_i - k'_j sits at ctr + off(k_i) - off(k'_j).  When k and k'
        spread wider than the radius along an axis, the gather reads a copy
        of the cube padded with zeros to their reach.
        """
        k = np.asarray(k, dtype=np.int64)
        kc = k if cols is None else np.asarray(cols, dtype=np.int64)
        # the largest |k_i - k'_j| along any axis
        reach = max(np.max(k.max(axis=0) - kc.min(axis=0)), np.max(kc.max(axis=0) - k.min(axis=0)))
        pad = max(int(reach) - self.radius, 0)
        flat = (np.pad(self.values, pad) if pad else self.values).reshape(-1)
        side = 2 * (self.radius + pad) + 1

        def off(m):
            return (m[:, 0] * side + m[:, 1]) * side + m[:, 2]

        return flat[flat.size // 2 + off(k)[:, None] - off(kc)[None, :]]

    def coeff(self, m):
        """c(m); 0 outside the cube."""
        r, m = self.radius, np.asarray(m, dtype=np.int64)
        return complex(self.values[tuple(m + r)]) if np.all(np.abs(m) <= r) else 0j


class ConformalFactor(CenteredCube):
    """Real trigonometric polynomial f = sum_m fhat(m) e^{i<m,x>}, |m|_inf <= degree.

    Coefficients are stored on a centered cube and symmetrized so that
    ``fhat(-m) == conj(fhat(m))`` holds exactly; constructors reject inputs
    violating the reality constraint by more than ``REALITY_TOL``.
    """

    def __init__(self, degree, values, label=None):
        degree = int(degree)
        if degree < 0:
            raise ValueError("degree must be >= 0")
        side = 2 * degree + 1
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (side, side, side):
            raise ValueError(
                f"coefficient cube has shape {values.shape}, expected {(side,) * 3}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("factor coefficients must be finite")
        flipped = np.conj(values[::-1, ::-1, ::-1])
        with np.errstate(over="ignore", invalid="ignore"):
            viol = float(np.max(np.abs(values - flipped))) if values.size else 0.0
            scale = max(1.0, float(np.max(np.abs(values)))) if values.size else 1.0
            symmetrized = 0.5 * (values + flipped)
        if viol > REALITY_TOL * scale:
            raise ValueError(
                f"reality constraint violated: max |fhat(m) - conj(fhat(-m))| = {viol:.3e}"
            )
        if not np.all(np.isfinite(symmetrized)):
            raise ValueError("factor coefficients must be finite: fhat(m) + fhat(-m) overflows")
        self.degree = degree
        self.values = symmetrized
        self.label = label
        self._grid_cache = {}
        self._extrema = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls.from_coeffs(0, {}, label="zero")

    @classmethod
    def constant(cls, c):
        c = complex(c)
        if abs(c.imag) > REALITY_TOL * max(1.0, abs(c)):
            raise ValueError("constant factor must be real")
        return cls.from_coeffs(0, {(0, 0, 0): c.real}, label=f"const:{c.real!r}")

    @classmethod
    def from_coeffs(cls, degree, coeff_map, label=None):
        """Build from a {(m1, m2, m3): value} mapping; missing -m entries are
        filled by conjugation, inconsistent ones are rejected.  Every
        constructor places its coefficients through here."""
        degree = int(degree)
        coeffs = {tuple(int(x) for x in m): complex(v) for m, v in coeff_map.items()}
        for m, v in list(coeffs.items()):
            coeffs.setdefault(tuple(-x for x in m), v.conjugate())
        side = 2 * degree + 1
        vals = np.zeros((side, side, side), dtype=np.complex128)
        for m, v in coeffs.items():
            if len(m) != 3 or any(abs(x) > degree for x in m):
                raise ValueError(f"coefficient mode {m} out of range for degree {degree}")
            vals[tuple(x + degree for x in m)] = v
        return cls(degree, vals, label=label)

    @classmethod
    def cosine(cls, m, amplitude=1.0):
        """amplitude * cos(<m, x>)."""
        m = tuple(int(x) for x in m)
        if m == (0, 0, 0):
            return cls.constant(float(amplitude))
        d = max(abs(x) for x in m)
        half = 0.5 * float(amplitude)
        return cls.from_coeffs(d, {m: half, tuple(-x for x in m): half},
                               label=f"cos:{m}:{float(amplitude)!r}")

    @classmethod
    def sine(cls, m, amplitude=1.0):
        """amplitude * sin(<m, x>)."""
        m = tuple(int(x) for x in m)
        if m == (0, 0, 0):
            return cls.zero()
        d = max(abs(x) for x in m)
        half = float(amplitude) / 2.0
        return cls.from_coeffs(
            d,
            {m: -1j * half, tuple(-x for x in m): 1j * half},
            label=f"sin:{m}:{float(amplitude)!r}",
        )

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self):
        return not np.any(self.values)

    @property
    def is_constant(self):
        return all(m == (0, 0, 0) for m, _ in self.items())

    def grid_values(self, G):
        """Real samples of f on the uniform G^3 grid (cached)."""
        G = int(G)
        if G < 2 * self.degree + 2:
            raise ValueError(f"grid size {G} too small for degree {self.degree}")
        if G not in self._grid_cache:
            vals = self.on_grid(G)
            imag = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
            scale = max(1.0, float(np.max(np.abs(vals.real))))
            if imag > 1e-10 * scale:
                raise AssertionError("factor reconstruction is not real")
            self._grid_cache[G] = vals.real
        return self._grid_cache[G]

    def extrema(self):
        """(min f, max f) sampled on a grid fine enough for the band limit."""
        if self._extrema is None:
            g = self.grid_values(extrema_grid_size(self.degree))
            self._extrema = (float(g.min()), float(g.max()))
        return self._extrema

    def oscillation(self):
        lo, hi = self.extrema()
        return hi - lo

    def sup_abs(self):
        lo, hi = self.extrema()
        return max(abs(lo), abs(hi))

    def mean(self):
        return float(np.real(self.coeff((0, 0, 0))))

    def l1_norm(self):
        """sum_m |fhat(m)|, a bound for sup|f| that also bounds every power:
        the coefficients of f^k have l1 norm at most ``l1_norm() ** k``."""
        return float(np.sum(np.abs(self.values)))

    def scaled(self, s):
        """The factor s * f for s > 0; its extrema are this factor's times s,
        so the scaled factor is not sampled again to find them."""
        if not s > 0:
            raise ValueError(f"scale must be positive, got {s}")
        out = ConformalFactor(self.degree, self.values * s, label=self.label)
        lo, hi = self.extrema()
        out._extrema = (lo * s, hi * s)
        return out

    def describe(self):
        if self.label:
            return self.label
        nnz = int(np.count_nonzero(self.values))
        return f"poly:d={self.degree},nnz={nnz}"

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        coeffs = [
            {"m": list(m), "re": float(v.real), "im": float(v.imag)} for m, v in self.items()
        ]
        return {"degree": self.degree, "coeffs": coeffs}

    @classmethod
    def from_json_dict(cls, doc, label=None):
        """Load the ``to_json_dict`` schema; a file lists both m and -m, and
        the degree and every mode entry are JSON integers."""
        if not isinstance(doc, dict):
            raise ValueError(f"a factor must be a JSON object, got {type(doc).__name__}")
        coeffs = {
            tuple(json_int(x, "mode entry") for x in entry["m"]):
                float(entry["re"]) + 1j * float(entry["im"])
            for entry in doc.get("coeffs", [])
        }
        for m in coeffs:
            if tuple(-x for x in m) not in coeffs:
                raise ValueError(f"reality constraint violated: mode {m} is listed without -m")
        return cls.from_coeffs(json_int(doc["degree"], "degree"), coeffs, label=label)


@dataclass
class ExpCoeffs(CenteredCube):
    """Fourier coefficients of e^{tf} on a centered cube |m|_inf <= band_used.

    ``recon_error`` is the certified bound on their summed aliasing error
    (see ``exp_grid_size``): the coefficients differ from the exact ones by
    at most this much in l1, so the Galerkin matrix built from them differs
    from the exact one by at most this much in the 2-norm, FFT roundoff
    aside.
    """

    band_used: int
    values: np.ndarray  # (2 b + 1,)^3
    recon_error: float


def exp_coeffs(factor, t, band):
    """Fourier coefficients of e^{tf} for |m|_inf <= band, from one FFT.

    e^{tf} is sampled on the grid of side ``exp_grid_size(band, degree,
    |t| ||fhat||_1)`` and its block read with ``from_grid``; the aliasing
    error is certified a priori below ``EXP_ALIAS_TOL * e^{-|t|
    ||fhat||_1}``, and the bound is returned as ``recon_error``.  The block
    is symmetrized as ``CenteredCube`` requires.  Raises ValueError when the
    weight exceeds ``EXP_WEIGHT_MAX``, or when e^{tc} of a constant f = c
    overflows.
    """
    band = int(band)
    if band < 0:
        raise ValueError("band must be >= 0")
    side = 2 * band + 1
    if t == 0 or factor.is_constant:
        vals = np.zeros((side, side, side), dtype=np.complex128)
        vals[band, band, band] = exp_scalar(t * factor.mean(), "e^{tf} =") if t != 0 else 1.0
        return ExpCoeffs(band, vals, 0.0)

    d = factor.degree
    weight = abs(t) * factor.l1_norm()
    G = exp_grid_size(band, d, weight)
    h = np.exp(t * factor.grid_values(G))
    vals = from_grid(h, cube_modes(band), G).reshape(side, side, side)
    # Zero the FFT roundoff dust, so that the support of the block (and the
    # sparsity of B) is the analytic one.
    vals[np.abs(vals) < 1e-15 * float(np.max(h))] = 0.0
    vals = 0.5 * (vals + np.conj(vals[::-1, ::-1, ::-1]))
    return ExpCoeffs(band, vals, exp_tail(weight, -(-(G - band) // d)))


def required_band(mode_set):
    """Largest |kappa - kappa'|_inf over the mode set (per-axis bound 2N)."""
    return 2 * mode_set.N


#: Columns per panel of ``assemble_multiplication``'s gather.
GATHER_PANEL = 64


def assemble_multiplication(k, cube):
    """Scalar block [c(k_i - k_j)] of the Galerkin matrix, on the integer
    modes k of shape (n, 3), of multiplication by the function whose Fourier
    coefficients ``cube`` holds (a ``CenteredCube``), one read per entry.
    It is exactly Hermitian, since the cube is.  The full matrix acts on
    both spin components alike: it is ``kron_spin`` of this block.

    The block is a new Fortran-ordered array, which LAPACK can factor in
    place (``eigensolver.inverse_factor``).  It is written ``GATHER_PANEL``
    columns at a time, each from one ``CenteredCube.lookup``, so the gather
    needs no n x n index table beside it."""
    n = len(k)
    out = np.empty((n, n), dtype=np.complex128, order="F")
    for j0 in range(0, n, GATHER_PANEL):
        panel = slice(j0, j0 + GATHER_PANEL)
        out[:, panel] = cube.lookup(k, k[panel])
    return out


def kron_spin(S):
    """The dense matrix S (x) I_2 in mode-major layout: S on both spin components."""
    n = S.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    out[0::2, 0::2] = S
    out[1::2, 1::2] = S
    return out


def factor_multiplication_matrix(factor, mode_set):
    """Exact Galerkin matrix of multiplication by the trig polynomial f."""
    return kron_spin(assemble_multiplication(mode_set.k_values, factor))


@dataclass
class ScalarWeight:
    """The Galerkin weight B = B_s (x) I_2 of e^{tf} on ``mode_set``, held as
    the e^{tf} block ``exp`` that B_s is gathered from (None for the
    identity weight), not as an n x n matrix.

    Read-only: ``B_s`` gathers a fresh Fortran-ordered B_s on each read, which
    the solve (``eigensolver.solve_gen_hermitian``) factors in place, and
    ``str`` names the weight, with its ``t``, in the solve's errors.
    """

    mode_set: ModeSet
    exp: ExpCoeffs | None
    t: float

    def __str__(self):
        return f"Galerkin weight for t={self.t}"

    @property
    def shape(self):
        """Shape of B_s, the n x n scalar block of the weight."""
        n = self.mode_set.n_modes
        return (n, n)

    @property
    def B_s(self):
        if self.exp is None:
            return np.eye(self.mode_set.n_modes, dtype=np.complex128, order="F")
        return assemble_multiplication(self.mode_set.k_values, self.exp)

    @property
    def bounds(self):
        """(b_lo, b_hi) with b_lo I <= B_s <= b_hi I, by Gershgorin: every row
        of B_s = [c(k_i - k_j)] has the diagonal c(0) and off-diagonal moduli
        that sum to at most S = sum_{m != 0} |c(m)| over the cube, since
        distinct columns read distinct m.  So b = c(0) -/+ S, each widened
        outward by a rounding allowance for the sum."""
        if self.exp is None:
            return 1.0, 1.0
        moduli = np.abs(self.exp.values).reshape(-1)
        c0 = float(self.exp.values.reshape(-1)[moduli.size // 2].real)  # stored real
        moduli[moduli.size // 2] = 0.0
        S = float(moduli.sum())
        slack = moduli.size * np.finfo(float).eps * (c0 + S)
        return c0 - S - slack, c0 + S + slack


def assemble_B(factor, t, mode_set):
    """Galerkin matrix B of multiplication by e^{tf}, as a ``ScalarWeight``.

    B = B_s (x) I_2 with ``B_s[kappa, kappa'] = exp_hat(kappa - kappa')``
    (mode differences are always integer vectors), so only the exp_hat are
    computed here; the weight gathers B_s from them.  B_s is Hermitian, and
    positive definite exactly when B is, which the solve checks by factoring
    it.  Raises PositiveDefiniteError when the coefficients are not
    representable, and otherwise warns outside the accepted deformation range.
    """
    spread = abs(t) * factor.oscillation()
    try:
        if spread > B_OSC_MAX:
            raise ValueError(f"|t| * osc(f) = {spread:.3g} exceeds {B_OSC_MAX:.3g}")
        exp = None if t == 0 or factor.is_zero else exp_coeffs(factor, t, required_band(mode_set))
    except ValueError as exc:
        # Treat it like the Cholesky failure it may become.
        raise PositiveDefiniteError(
            f"conformal weight for t={t} is not representable: {exc}"
        ) from exc
    if spread > T_RANGE_LIMIT:
        warnings.warn(
            f"|t| * osc(f) = {spread:.3f} exceeds the accepted "
            f"range {T_RANGE_LIMIT}; first-order theory may be unreliable",
            stacklevel=2,
        )
    return ScalarWeight(mode_set, exp, t)


@dataclass
class DeformedOperator:
    """The pencil (A, B) of one conformal deformation, plus metadata.

    A is the flat operator, whose 2 x 2 mode symbols (``mode_set.symbols``)
    the solve reads; B = B_s (x) I_2 is the weight, whose B_s the solve
    gathers through ``weight``.  The dense ``A`` and ``B`` are built on
    first access, for the dense oracle and tests; no solve touches them.
    """

    mode_set: ModeSet
    t: float
    factor: ConformalFactor
    weight: ScalarWeight

    @cached_property
    def A(self):
        return self.mode_set.flat_matrix

    @cached_property
    def B(self):
        return kron_spin(self.weight.B_s)

    @property
    def volume(self):
        """Total volume of the deformed metric, int e^{n t f} dmu: the mean of
        e^{n t f} on the grid that ``exp_grid_size`` certifies for its zero
        coefficient (band 0, weight n |t| ||fhat||_1).  ValueError where
        that weight exceeds ``EXP_WEIGHT_MAX`` or e^{n t c} of a constant f = c
        overflows."""
        nt, f = TORUS_DIM * self.t, self.factor
        if nt == 0 or f.is_constant:
            return exp_scalar(nt * f.mean(), "the deformed volume")
        G = exp_grid_size(0, f.degree, abs(nt) * f.l1_norm())
        return float(np.mean(np.exp(nt * f.grid_values(G))))


def build_deformed_operator(factor, t, mode_set):
    """The pencil of the deformation by e^{2tf} on ``mode_set``: assembles only
    the weight (``assemble_B``); the flat operator stays in its mode symbols."""
    return DeformedOperator(mode_set, float(t), factor, assemble_B(factor, t, mode_set))


def cluster_tolerance(factor, t, tolerances):
    """The clustering tolerance tau of one deformation, from the (degenerate,
    split) pair ``tolerances``: degenerate when the weight is trivial (t = 0
    or f = 0), split otherwise.  Eigenvalues whose gap is within tau *
    max(1, |lambda|) form one cluster (``eigensolver.cluster_eigenvalues``)."""
    degenerate, split = tolerances
    return degenerate if t == 0 or factor.is_zero else split


def trust_radius(factor, t, N):
    """Truncation trust radius R = (N - 1/2) e^{-|t| sup|f|}.

    The truncation of order N holds every mode with |kappa| <= N - 1/2, so
    the flat spectrum is exact up to N - 1/2; the weight e^{tf} scales an
    eigenvalue by at most e^{|t| sup|f|}.  Eigenvalues with |lambda| <= R are
    trusted, those beyond are truncation artifacts.
    """
    return (N - 0.5) * float(np.exp(-abs(t) * factor.sup_abs()))


def trusted_reach(factor, t, N, tolerances):
    """(R, R + tau * max(1, R)): the trust radius R and the reach of the
    trusted clusters, with tau = ``cluster_tolerance(factor, t, tolerances)``.
    A cluster numerically equal to R (such as a flat shell at exactly N - 1/2)
    counts as inside."""
    radius = trust_radius(factor, t, N)
    return radius, radius + cluster_tolerance(factor, t, tolerances) * max(1.0, radius)


def deformed_spectrum(factor, t, mode_set, tolerances=eigensolver.TOLERANCES, keep_vectors=False,
                      subset_by_index=None):
    """Solve the deformed eigenproblem and cluster the spectrum.

    At t = 0 the weight matrix is the exact identity and the flat spectrum is
    reproduced exactly.  The clusters are formed at ``cluster_tolerance(factor,
    t, tolerances)``, which ``meta["tau_rel"]`` records.

    With ``keep_vectors`` the result keeps the eigenvectors and, for a
    nontrivial weight, the scalar block B_s of B = B_s (x) I_2 that the
    solve gathered for its residual gate, which curve matching reads
    (``tracked_spectrum`` is the one caller in the package that asks for
    them); by default it keeps neither.

    ``subset_by_index`` restricts the solve to a window of eigenpairs (see
    ``eigensolver.solve_gen_hermitian``); every returned pair still passes
    the residual bound.  Clusters are then formed from the window alone, so a
    cluster cut by either window edge is incomplete: ``_solve_shells``, the
    one caller that passes a window, grows it until both edges fall on
    cluster boundaries.  Without a window the whole spectrum is solved.
    """
    op = build_deformed_operator(factor, t, mode_set)
    w, V, residual_max, B_s = eigensolver.solve_gen_hermitian(
        mode_set.symbols, None if op.weight.exp is None else op.weight,
        subset_by_index=subset_by_index,
    )
    meta = {
        "delta": list(mode_set.spin_structure.delta),
        "N": mode_set.N,
        "t": float(t),
        "f_ref": factor.describe(),
        "volume": op.volume,
        "trust_radius": None,
    }
    return eigensolver.build_spectrum_result(
        w,
        V if keep_vectors else None,
        residual_max,
        cluster_tolerance(factor, t, tolerances),
        meta,
        mode_set=mode_set,
        B_s=B_s if keep_vectors else None,
    )


class _Grow(Exception):
    """A window side must grow; ``args`` are the (below, above) flags."""


def _solve_shells(factor, t_values, mode_set, shells, tolerances=eigensolver.TOLERANCES, read=next,
                  outgrown=lambda res, below, above: (False, False), keep_vectors=False):
    """``read`` of the solves over ``t_values`` of the flat clusters [a, b) =
    ``shells``, and their index window [lo, hi) = ``mode_set.cluster_starts[[a, b]]``.

    Each t is solved at ``tolerances`` on the window plus one eigenpair past
    each edge that has a neighbour, and ``read`` consumes the window results
    (vectors only with ``keep_vectors``) from a generator that
    solves one t per step.  A window result lets go of its B_s when the
    next is requested: curve matching reads B_s only of the later snapshot
    of a step.  A side is cut when the eigenvalue past its edge
    joins the window's outermost cluster, and outgrown when ``outgrown(res,
    below, above)`` says so for the window result and the eigenvalues past
    the edges (None where there is none).  A cut or outgrown side takes 1, 2,
    4, ... more flat clusters at its successive growths, and every t is
    solved again.  With both edges on cluster boundaries the window's
    clusters are those of the full solve.
    """
    starts = mode_set.cluster_starts
    (a, b), step = shells, [1, 1]

    def snapshots(lo, hi):
        first, stop = max(lo - 1, 0), min(hi + 1, mode_set.dim)
        i, j = lo - first, hi - first
        for t in t_values:
            res = deformed_spectrum(factor, t, mode_set, tolerances, keep_vectors=keep_vectors,
                                    subset_by_index=(first, stop - 1))
            w, V = res.eigenvalues, res.vectors
            window = eigensolver.build_spectrum_result(
                w[i:j], None if V is None else np.ascontiguousarray(V[:, i:j]),
                res.residual_max, res.meta["tau_rel"], res.meta, mode_set=mode_set, B_s=res.B_s,
            )
            bounds = {c.start for c in res.clusters} | {len(w)}
            below, above = outgrown(window, w[0] if i else None, w[-1] if j < len(w) else None)
            grow = (i > 0 and (below or i not in bounds), j < len(w) and (above or j not in bounds))
            if any(grow):
                raise _Grow(*grow)
            del res, V  # while the next t is solved, only the window is alive
            yield window
            window.B_s = None  # read only as the later snapshot of a step

    while True:
        lo, hi = int(starts[a]), int(starts[b])
        try:
            return read(snapshots(lo, hi)), [lo, hi]
        except _Grow as grow:
            below, above = grow.args
            a, b = max(a - below * step[0], 0), min(b + above * step[1], len(starts) - 1)
            step = [2 * s if g else s for s, g in zip(step, grow.args)]


def _trusted_shells(mode_set):
    """The flat clusters [a, b) with |lambda| = sqrt(|key|) / 2 <= N - 1/2."""
    keys, edge = mode_set.flat_clusters[0], (2 * mode_set.N - 1) ** 2
    return int(np.searchsorted(keys, -edge)), int(np.searchsorted(keys, edge, side="right"))


def trusted_spectrum(factor, t, mode_set, tolerances=eigensolver.TOLERANCES):
    """The clusters with |lambda| <= ``trust_radius``, from an index-window solve.

    Solves the flat clusters with |lambda| <= N - 1/2, whose deformed
    eigenvalues cover every one with |lambda| <= R, and keeps the clusters
    within the reach R + tau * max(1, R) (``trusted_reach``).  A side grows
    while it is cut or the eigenvalue past its edge lies within the reach
    (only when the sampled sup|f| runs low; ``_solve_shells``).  So the
    clusters, eigenvalues and multiplicities are those of the full solve
    restricted to |lambda| <= R.  Eigenvectors are not kept; the residual
    bound holds on every computed pair, and ``meta["trust_radius"]`` records R.
    """
    radius, reach = trusted_reach(factor, t, mode_set.N, tolerances)

    def outgrown(res, below, above):
        return below is not None and below >= -reach, above is not None and above <= reach

    res, _ = _solve_shells(factor, [t], mode_set, _trusted_shells(mode_set), tolerances,
                           outgrown=outgrown)
    kept = [c for c in res.clusters if abs(c.lam) <= reach]
    lo, hi = (kept[0].start, kept[-1].stop) if kept else (0, 0)
    return eigensolver.build_spectrum_result(
        res.eigenvalues[lo:hi],
        None,
        res.residual_max,
        res.meta["tau_rel"],
        dict(res.meta, trust_radius=radius),
        mode_set=mode_set,
    )


def flat_spectrum(mode_set):
    """Eigenvalues and clusters of the undeformed operator, from a dense solve."""
    return deformed_spectrum(ConformalFactor.zero(), 0.0, mode_set)


def tracked_spectrum(factor, t_values, mode_set, tolerances=eigensolver.TOLERANCES):
    """Eigenvalue curves over ``t_values`` on the trusted index window.

    The window holds the flat clusters with |lambda| <= N - 1/2, the same
    index range at every t (``ModeSet.cluster_starts``).  Each t is solved on
    the window alone, plus one eigenpair past each edge, and the snapshots
    are streamed into ``eigensolver.match_curves``, so two are alive at a
    time.  When an edge cuts a cluster at some t (a clustering tolerance
    wider than the gap to the next flat shell), that side grows by 1, 2, 4,
    ... flat shells and the grid restarts (``_solve_shells``).

    The family records ``index_window``, the trust radius R(t) at each t,
    and per trajectory whether it leaves the reach of R(t) at some t
    (``trusted_reach``).
    """
    family, window = _solve_shells(
        factor, t_values, mode_set, _trusted_shells(mode_set), tolerances,
        read=lambda snaps: eigensolver.match_curves(snaps, rate_bound=factor.sup_abs()),
        keep_vectors=True,
    )
    radii, reach = np.array([trusted_reach(factor, t, mode_set.N, tolerances)
                             for t in t_values]).T
    leaves = np.any(np.abs(family.trajectories) > reach[None, :], axis=1)
    family.index_window = window
    family.trust_radius = radii.tolist()
    family.leaves_trust_radius = [bool(x) for x in leaves]
    return family


def gradient_clifford_term(factor, phi, out_mode_set):
    """Clifford multiplication by grad f in Fourier space, exactly.

    Mode m of f sends the coefficient at kappa to a contribution
    ``fhat(m) * dirac_symbol(m) @ u_kappa`` at kappa + m.
    """
    out = np.zeros((out_mode_set.n_modes, 2), dtype=np.complex128)
    for m, fm in factor.items():
        m = np.asarray(m, dtype=float)
        pos = out_mode_set.positions_of(phi.mode_set.modes + m)
        if np.any(pos < 0):
            raise ValueError("output mode set too small for the gradient term")
        np.add.at(out, pos, fm * (phi.coeffs @ dirac_symbol(m).T))
    return SpinorField(out_mode_set, out)


def apply_deformed_dirac(factor, t, phi):
    """Apply the deformed Dirac operator to a field, on an enlarged mode set.

    Implements ``e^{-tf} (D phi + ((n-1)/2) t c(grad f) phi)`` with n = 3.
    The output mode set is enlarged by the factor degree plus the band past
    which the coefficients of e^{-tf} have l1 mass below the ``exp_coeffs``
    tolerance (``weight_band``), so that tail is the only truncation loss.
    """
    ms = phi.mode_set
    if t == 0 or factor.is_zero:
        return apply_flat_dirac(phi)
    d = factor.degree
    # At least one shell past phi's modes, so leakage out of them shows.
    n_out = ms.N + max(1, d + weight_band(d, abs(t) * factor.l1_norm()))
    out_ms = build_mode_set(n_out, ms.spin_structure)

    inner = embed_field(apply_flat_dirac(phi), out_ms)
    grad = gradient_clifford_term(factor, phi, out_ms)
    halfn = (TORUS_DIM - 1) / 2.0
    psi = inner + (halfn * t) * grad

    # Multiply by e^{-tf} through an oversampled grid; gather back onto the
    # enlarged mode set.
    G = _fft_size(max(64, 2 * (n_out + 1)))
    vals = to_grid(psi.coeffs, out_ms.k_values, G)
    vals *= np.exp(-t * factor.grid_values(G))[..., None]
    return SpinorField(out_ms, from_grid(vals, out_ms.k_values, G))


def _grid_dirac(values, spin_structure, G):
    """Apply the flat Dirac operator to gridded spinor values spectrally.

    The half-integer mode shift is handled by factoring out the phase
    e^{i <delta/2, x>}: the remaining integer-frequency part transforms with
    the shifted symbol -sigma . (k + delta/2).
    """
    shift = spin_structure.shift
    n = np.arange(G)
    phase = np.ones((G, G, G), dtype=np.complex128)
    for axis, d in enumerate(spin_structure.delta):
        if d:
            p = np.exp(-1j * np.pi * n / G)
            shape = [1, 1, 1]
            shape[axis] = G
            phase = phase * p.reshape(shape)
    tilde = values * phase[..., None]
    coeffs = np.fft.fftn(tilde, axes=(0, 1, 2)) / G**3
    freqs = np.fft.fftfreq(G, d=1.0 / G)  # integer frequencies in FFT order
    k1, k2, k3 = np.meshgrid(freqs, freqs, freqs, indexing="ij")
    kappa = np.stack([k1 + shift[0], k2 + shift[1], k3 + shift[2]], axis=-1)
    sym = dirac_symbol(kappa)
    out = np.einsum("xyzab,xyzb->xyza", sym, coeffs)
    vals = np.fft.ifftn(out, axes=(0, 1, 2)) * G**3
    return vals * np.conj(phase)[..., None]


def substitution_identity_error(factor, t, phi):
    """Relative grid error of D(e^{(n-1)tf/2} phi) = e^{(n+1)tf/2} D_deformed phi.

    This identity is the bridge between the direct formula for the deformed
    operator and the generalized eigenproblem actually solved; both sides are
    evaluated by independent grid arithmetic.
    """
    from .torus_dirac import field_on_grid

    ms = phi.mode_set
    dphi = apply_deformed_dirac(factor, t, phi)
    G = _fft_size(max(64, 2 * dphi.mode_set.N + 2))
    fg = factor.grid_values(G)
    phi_vals = field_on_grid(phi, G)
    lhs = _grid_dirac(
        phi_vals * np.exp(0.5 * (TORUS_DIM - 1) * t * fg)[..., None],
        ms.spin_structure,
        G,
    )
    rhs = field_on_grid(dphi, G) * np.exp(0.5 * (TORUS_DIM + 1) * t * fg)[..., None]
    scale = float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - rhs))) / max(scale, 1e-300)

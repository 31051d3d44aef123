"""Hermitian(-definite) eigensolver, degeneracy clustering, curve tracking.

The flat operator A is block diagonal over modes, and the solve reads it as
its 2 x 2 mode symbols; the weight of a deformed solve is B = B_s (x) I_2,
and the solve reads B_s from a read-only weight (``conformal.ScalarWeight``)
that gathers it afresh on each read.  A deformed solve takes one of two
eigensolve stages, n = dim / 2 the number of modes:

- the shell-window stage (``_shell_window``), for an index window at
  dim >= 400 whose block, the window extended by whole flat shells to
  lambda = 0 (``_shell_block``), holds at most dim / 8 pairs: B_s is
  gathered once, and a block Davidson method on the pencil (B A^{-1} B, B),
  whose extremal eigenvalues 1/lambda are the block's, solves it from the
  flat eigenvectors with no factorization; A^{-1} costs O(dim).  A
  Gershgorin bound on B_s certifies that the pairs are exactly the window's
  indices.  Any refusal or failure, the residual gate's included, falls
  back to the double stage.  Median ``solve_gen_hermitian`` time of the
  genericity window (of fewer positive shells where three do not fit),
  then of wider windows near the block share, one BLAS thread on a 2-vCPU
  Haswell VM, random factors of seeds 7-11 (7-9 at N = 5), t = 0.05:

  | dim (N, delta) | window | block | shell window | ``zheevr``    |
  |----------------|--------|-------|--------------|---------------|
  | 432 (3, 111)   | 10     | 40    | 44.1 ms      | 59.3 ms       |
  | 504 (3, 011)   | 22     | 40    | 49.6 ms      | 89.1 ms       |
  | 588 (3, 100)   | 22     | 30    | 27.2 ms      | 99.8 ms       |
  | 686 (3, 000)   | 30     | 40    | 51.1 ms      | 152.6 ms      |
  | 1296 (4, 100)  | 22     | 30    | 71.4 ms      | 856 ms        |
  | 2420 (5, 100)  | 22     | 30    | 184 ms       | 6.85 s        |
  | 504 (3, 011)   | 50     | 60    | 64.8 ms (+)  | 71.0 ms       |
  | 588 (3, 100)   | 46     | 62    | 69.2 ms (+)  | 98.9 ms       |
  | 432 (3, 111)   | 34     | 64    | 60.2 ms (*)  | 45.2 ms       |

  (+) the two stages alone, without the shared tail, seeds 11-13; (*) the
  same, past the share (dim / 6.8), where the stage refuses.

- the double stage (``_eigh_stage``), for full solves and larger windows:
  - factor (``inverse_factor``): B_s is gathered a panel of columns at a
    time into one Fortran-ordered n x n buffer, factored in place,
    B_s = L L^H (the positive-definiteness check), and inverted in place to
    M = L^{-1};
  - reduction (``_reduce``): the lower triangle of the standard-form matrix
    C = (M (x) I_2) A (M^H (x) I_2), all that the eigensolver reads, is
    built from the symbols a panel of columns at a time into the one
    dim x dim array of the solve, and M is freed.  From 32 MiB on, C lives
    in its own mapping without huge pages, where its upper half never
    becomes resident;
  - ``scipy.linalg.eigh`` on C, which it overwrites (``zheevr`` for a
    window, ``zheevd`` for a full solve); then C is freed, B_s is gathered
    again and a copy factored to L, and one triangular solve by L maps the
    vectors back.

Both stages end in one tail: phases, and the residual gate on the original
pencil (``_residual_max``) with the stage's B_s, which the solve returns for
curve matching.

Memory: the shell-window stage holds B_s, a quarter of C, and a subspace V
and B V of at most twice the block's columns, dim / 4, each no larger than
B_s: it makes no Cholesky factor and no dim x dim array.  In the double
stage no later step outgrows the eigensolve's C and the window's vectors.
M, B_s and L take a quarter of C each; M lives only through the reduction,
and B_s and L only after the eigensolve.  So B_s is factored twice: a
second factorization costs n^3 / 3 complex multiply-adds, 1-2% of ``eigh``,
and gives the same L from the same bits of B_s.  No dense A or B is formed,
and the gather, the reduction and the residual gate work in column panels
or in place: in a process that repeats solves, an n x n or vectors-sized
temporary comes from the C heap, and its freed block stays resident into
the next solve.

Every dense product and factorization of the solve (the Cholesky
factorizations, the triangular inverse, products and solves, ``eigh``, the
shell-window stage's ``zheevd`` calls and its products, and the residual
gate's B_s product through ``blas_matmul``) runs on scipy's BLAS, and so do
the overlap products of curve matching (``apply_weight``).  The numpy and
scipy wheels each bundle their own OpenBLAS with its own thread pool, whose
idle threads keep spinning for a while after a call; a solve that alternates
between the two pools makes them compete for the cores, which cost about a
third of the 50-trial genericity scan on two vCPUs.
"""

from __future__ import annotations

import contextlib
import mmap
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .artifact import NOT_ARTIFACT, Artifact
from .errors import PositiveDefiniteError

#: Relative gap tolerance used to detect true degeneracies at t = 0.
TAU_REL_DEGENERATE = 1e-6
#: Tighter tolerance for split detection at t > 0, so first-order splits of
#: size ~ t * gap are resolved as distinct clusters.
TAU_REL_SPLIT = 1e-9
#: The default (degenerate, split) pair that every solve entry point takes;
#: ``conformal.cluster_tolerance`` picks one of them for each (f, t).
TOLERANCES = (TAU_REL_DEGENERATE, TAU_REL_SPLIT)
#: Acceptable per-vector residual ||A x - lambda B x|| (with ||x||_B = 1).
RESIDUAL_BOUND = 1e-9
#: Curve matching: a step overlap below these flags a trajectory / makes the family ambiguous.
FLAG_OVERLAP, AMBIGUOUS_OVERLAP = 0.7, 0.3


@dataclass(frozen=True)
class ClusterInfo:
    """A maximal run of numerically equal eigenvalues."""

    lam: float
    mult_c: int
    mult_h: int
    start: int = field(metadata=NOT_ARTIFACT)
    stop: int = field(metadata=NOT_ARTIFACT)  # exclusive
    kramers_ok: bool = field(metadata=NOT_ARTIFACT)


@dataclass
class SpectrumResult(Artifact):
    """Sorted spectrum of one (A, B) solve with clustering and metadata.

    ``vectors`` are B-orthonormal columns with canonical phases; ``B_s``, the
    scalar block of the weight B = B_s (x) I_2 (None for B = I), is kept with
    them so curve matching can score eigenvector overlaps in the deformed
    inner product.  Serialized artifacts carry only eigenvalues, clusters,
    the residual bound and metadata.
    """

    eigenvalues: np.ndarray
    clusters: list[ClusterInfo]
    residual_max: float
    meta: dict
    mode_set: object = field(metadata=NOT_ARTIFACT)
    vectors: np.ndarray | None = field(default=None, metadata=NOT_ARTIFACT)
    B_s: np.ndarray | None = field(default=None, metadata=NOT_ARTIFACT)


def canonicalize_phases(V):
    """Rotate each column of V in place so its first significant entry is
    real positive, and return V.

    Eigenvectors are defined up to phase; fixing it makes derived artifacts
    reproducible.  A column's first significant entry is its first of modulus
    above 1e-8 times the column's largest; a zero column is left as it is.
    Pass a copy to keep the original.
    """
    absV = np.abs(V)
    first = np.argmax(absV > 1e-8 * absV.max(axis=0, initial=0.0), axis=0)
    del absV
    z = V[first, np.arange(V.shape[1])]
    # hypot, not np.abs: the modulus the scalar abs() of one entry gives.
    V *= np.divide(z.conj(), np.hypot(z.real, z.imag), out=np.ones_like(z), where=z != 0)
    return V


def blas_matmul(a, b):
    """``a @ b`` through scipy's BLAS ``gemm``.

    gemm reads Fortran-ordered operands, so a C-ordered operand (such as a
    ``.T`` or ``.conj().T`` view) goes in as its transpose with the transpose
    flag set, and is not copied.  Operands of another dtype or layout are
    converted by the wrapper.
    """
    gemm = scipy.linalg.get_blas_funcs("gemm", (a, b))
    trans_a = int(a.flags.c_contiguous and not a.flags.f_contiguous)
    trans_b = int(b.flags.c_contiguous and not b.flags.f_contiguous)
    return gemm(
        1.0, a.T if trans_a else a, b.T if trans_b else b, trans_a=trans_a, trans_b=trans_b
    )


def apply_weight(B_s, V):
    """(B_s (x) I_2) V for mode-major V (one vector or stacked columns): the
    n x n block B_s on both spin components, as one gemm of side n."""
    n = B_s.shape[0]
    return blas_matmul(B_s, V.reshape(n, -1)).reshape(V.shape)


def cholesky_pd(B_s, what="weight matrix"):
    """Lower Cholesky factor L of a Hermitian B_s = L L^H; PositiveDefiniteError
    (naming ``what``) when B_s is not positive definite.

    A Fortran-ordered complex B_s is factored in its own buffer, which L
    then is: pass a copy to keep B_s.  Other arrays are copied first.
    """
    try:
        return scipy.linalg.cholesky(B_s, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise PositiveDefiniteError(f"{what} is not positive definite") from exc


def inverse_factor(B_s, what="weight matrix"):
    """M = L^{-1} for the lower Cholesky factor L of a Hermitian B_s = L L^H.

    Factors (``cholesky_pd``, the positive-definiteness check) and inverts
    in B_s's own buffer when B_s is a Fortran-ordered complex array, so M
    needs no memory beyond it.
    """
    L = cholesky_pd(B_s, what)
    M, info = scipy.linalg.get_lapack_funcs("trtri", (L,))(L, lower=1, overwrite_c=1)
    if info != 0:
        raise RuntimeError(f"triangular inverse failed: info={info}")
    return M


def apply_symbols(symbols, V):
    """A V for mode-major V (one vector or stacked columns), A the block
    diagonal matrix whose 2 x 2 diagonal blocks are ``symbols`` (n, 2, 2)."""
    n = symbols.shape[0]
    return np.einsum("mab,mbp->map", symbols, V.reshape(n, 2, -1)).reshape(V.shape)


#: Columns per panel of the work array in ``_reduce`` and of the residual
#: gate in ``solve_gen_hermitian``.
REDUCE_PANEL = 128
#: A C of at least this many bytes gets its own anonymous mapping without
#: huge pages (``_lower_buffer``).  32 MiB is glibc's largest dynamic mmap
#: threshold: from there on numpy's array is a fresh mapping anyway, while
#: below it numpy reuses heap blocks that are already resident, where a
#: fresh mapping would fault its pages in again on every solve.
OWN_MAPPING_BYTES = 32 << 20


def _lower_buffer(dim):
    """A zeroed Fortran-ordered complex dim x dim array for C.

    From ``OWN_MAPPING_BYTES`` on it lives in its own anonymous private
    mapping, advised against transparent huge pages, so that a page holding
    only entries above the diagonal, which neither ``_reduce`` nor ``eigh``
    touches, never becomes resident (numpy advises its large arrays towards
    huge pages, which fill a 2 MiB page on the first write to it, and every
    2 MiB of C holds some of the lower triangle).  The price is TLB reach:
    the N=5 window ``eigh`` took 4.14 s on this C against 3.81 s on numpy's
    (2-vCPU Haswell).  The mapping is unmapped with the last reference to
    the array.
    """
    size = dim * dim * np.dtype(np.complex128).itemsize
    if size < OWN_MAPPING_BYTES or not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.zeros((dim, dim), dtype=np.complex128, order="F")
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    with contextlib.suppress(OSError):  # a kernel without huge pages
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.complex128).reshape((dim, dim), order="F")


def _require_finite(block):
    """The finiteness check that ``scipy.linalg.eigh`` makes by default, on
    the part of C just computed."""
    if not np.isfinite(block).all():
        raise ValueError("array must not contain infs or NaNs")


def _reduce(symbols, M):
    """The lower triangle of C = (M (x) I_2) A (M^H (x) I_2) for
    A = blockdiag(``symbols``) and the lower triangular M = L^{-1}
    (``inverse_factor``), in one Fortran-ordered dim x dim array
    (``_lower_buffer``); for M = None, the whole of A.

    Spin block (a, b) of C, the entries C[2p + a, 2q + b], is M diag(s_ab) M^H
    for s_ab the (a, b) entries of the symbols.  It is built
    ``REDUCE_PANEL`` columns at a time: the panel of diag(s_ab) M^H goes into
    an n x P work array, which one in-place trmm of side n turns into that
    panel of the block, so no n x n array is needed beside C and M.  The
    (0, 1) block is the adjoint of the (1, 0) block.  When s_11 = -s_00, as
    for every Dirac symbol -sigma . kappa, the (1, 1) block is the negated
    (0, 0) block, which is exact under round-to-nearest; other symbols take
    a third trmm.  So a Dirac reduction costs n^3 complex multiply-adds, and
    a general one 1.5 n^3.

    ``eigh`` reads only the lower triangle, so only entries on
    or below the diagonal are stored: the panel of modes [j0, j1) stores the
    rows p >= q of its (0, 0), (1, 0) and (1, 1) blocks, and of the (0, 1)
    block's rows [j0, j1), which mirror it, the columns q < p.  Every stored
    entry has the bits of the same formula computed on whole n x n blocks.
    Each panel (and A's blocks for M = None) is checked to be finite when it
    is computed: ValueError otherwise, since ``eigh`` runs without its own
    check.
    """
    n = symbols.shape[0]
    C = _lower_buffer(2 * n)
    if M is None:
        _require_finite(symbols)
        modes = np.arange(n)
        for a in (0, 1):
            for b in (0, 1):
                C[2 * modes + a, 2 * modes + b] = symbols[:, a, b]
        return C
    negate = np.array_equal(symbols[:, 1, 1], -symbols[:, 0, 0])
    blocks = ((0, 0), (1, 0)) if negate else ((0, 0), (1, 1), (1, 0))
    W = np.empty((n, min(n, REDUCE_PANEL)), dtype=np.complex128, order="F")
    trmm = scipy.linalg.get_blas_funcs("trmm", (M, W))
    # the entries p >= q, and p > q, of a panel's diagonal square
    on_or_below = np.tri(W.shape[1], dtype=bool)
    below = np.tri(W.shape[1], k=-1, dtype=bool)
    for j0 in range(0, n, REDUCE_PANEL):
        j1 = min(j0 + REDUCE_PANEL, n)
        cols, square = slice(j0, j1), on_or_below[: j1 - j0, : j1 - j0]
        P = W[:, : j1 - j0]
        for a, b in blocks:
            np.conjugate(M[cols].T, out=P)
            P *= symbols[:, a, b, None]
            P = trmm(1.0, M, P, lower=1, overwrite_b=1)
            _require_finite(P)
            C[a::2, b::2][j1:, cols] = P[j1:]
            np.copyto(C[a::2, b::2][cols, cols], P[cols], where=square)
            if a != b:
                mirror = C[0::2, 1::2][cols]
                np.conjugate(P[:j0].T, out=mirror[:, :j0])
                np.conjugate(P[cols].T, out=mirror[:, cols], where=below[: j1 - j0, : j1 - j0])
            elif negate:
                # 0 - P, not -P: a zero entry (such as the imaginary part of
                # a diagonal entry, a cancellation in the trmm) stays +0, as
                # the trmm of -s_00 leaves it
                np.subtract(0.0, P[j1:], out=C[1::2, 1::2][j1:, cols])
                np.subtract(0.0, P[cols], out=C[1::2, 1::2][cols, cols], where=square)
    return C


def _spin_sides(V):
    """The n x 2k Fortran-ordered array [V_0 V_1] of the two spin components
    of mode-major V (2n x k), side by side."""
    k = V.shape[1]
    S = np.empty((V.shape[0] // 2, 2 * k), dtype=np.complex128, order="F")
    S[:, :k], S[:, k:] = V[0::2], V[1::2]
    return S


def _mode_major(S):
    """The mode-major 2n x k array of the spin components [V_0 V_1] = S."""
    n, k = S.shape[0], S.shape[1] // 2
    V = np.empty((2 * n, k), dtype=np.complex128)
    V[0::2], V[1::2] = S[:, :k], S[:, k:]
    return V


def _residual_max(symbols, w, V, B_s):
    """The largest ||A x - lambda B x||_2 over the columns x of V and w, and
    the scale max(1, max |lambda|) of its bound.

    B x lambda is one gemm G = B_s [V_0 V_1], the spin components side by
    side (one gemm, not panels of it, keeps the bits), scaled in place; A x,
    the subtraction and the column norms take ``REDUCE_PANEL`` columns at a
    time.  B_s = None is B = I.
    """
    n, k = symbols.shape[0], V.shape[1]
    if B_s is not None:
        G = blas_matmul(B_s, V.reshape(n, 2 * k))
        G *= np.tile(w, 2)
    norms = np.empty(k)
    for j0 in range(0, k, REDUCE_PANEL):
        cols = slice(j0, min(j0 + REDUCE_PANEL, k))
        R = apply_symbols(symbols, V[:, cols])
        if B_s is None:
            R -= V[:, cols] * w[cols]
        else:
            R_spin = R.reshape(n, 2, -1)
            R_spin[:, 0] -= G[:, cols]
            R_spin[:, 1] -= G[:, k:][:, cols]
        norms[cols] = np.linalg.norm(R, axis=0)
    return float(norms.max()), float(np.maximum(1.0, np.abs(w).max()))


def _triangular_solve(L, S, trans_a=0):
    """L^{-1} S (``trans_a`` 0) or L^{-H} S (2) for the lower triangular L,
    in the buffer of S, a Fortran-ordered complex array (``_spin_sides``)."""
    trsm = scipy.linalg.get_blas_funcs("trsm", (L, S))
    return trsm(1.0, L, S, lower=1, trans_a=trans_a, overwrite_b=1)


#: Shell-window solves (``_shell_window``): a deformed solve of an index
#: window takes them at dim >= ``SHELL_MIN_DIM`` when the window's block
#: (``_shell_block``) holds at most dim / ``SHELL_BLOCK_SHARE`` eigenpairs.
#: Below the floor, and for larger blocks, ``zheevr`` is faster (see the
#: module docstring).
SHELL_MIN_DIM = 400
SHELL_BLOCK_SHARE = 8
#: At most this many Rayleigh-Ritz steps.
SHELL_MAX_STEPS = 12
#: The iteration stops when every residual ||A x - lambda B x|| is at most
#: this times max(1, |lambda|), ten times below ``RESIDUAL_BOUND``.
SHELL_RESIDUAL = 1e-10
#: A direction whose B-Gram eigenvalue is at most this times the largest is
#: dropped from the subspace as dependent.
SHELL_DROP = 1e-10
#: New columns whose B-Gram eigenvalues all exceed this times the largest
#: take one round of B-orthonormalization, others a second.
SHELL_WELL_CONDITIONED = 1e-2


def _shell_block(mode_set, lo, hi):
    """The flat clusters [a, b) of the block of the index window [lo, hi]
    (inclusive): the window's clusters, extended to whole flat clusters and
    then to lambda = 0, so that the block's negative clusters run from the
    window's lowest up to 0 and its positive ones from the first up to the
    window's highest, with the zero cluster (the kernel) between them."""
    keys, starts = mode_set.flat_clusters[0], mode_set.cluster_starts
    a = min(np.searchsorted(starts, lo, side="right") - 1, np.searchsorted(keys, 0))
    b = max(np.searchsorted(starts, hi, side="right"), np.searchsorted(keys, 0, side="right"))
    return int(a), int(b)


def _flat_directions(symbols, radius, modes, sign):
    """The flat eigenvectors of eigenvalue sign |kappa| of ``modes``, one
    column each of a mode-major 2n x p array: the column of the projector
    (I + sign S / |kappa|) / 2 of the mode symbol S = -sigma . kappa
    (S^2 = |kappa|^2 I) with the larger diagonal entry, normalized."""
    p, cols = len(modes), np.arange(len(modes))
    S = symbols[modes]
    a = (sign * S[:, 0, 0].real < 0).astype(int)  # the larger diagonal entry
    e = sign * S[cols, :, a] / radius[modes, None]
    e[cols, a] += 1.0
    e /= np.sqrt(2.0 * e[cols, a].real)[:, None]
    V = np.zeros((symbols.shape[0], 2, p), dtype=np.complex128)
    V[modes, :, cols] = e
    return V.reshape(2 * len(symbols), p)


def _shell_window(symbols, weight, lo, hi):
    """The eigensolve stage of the eigenpairs lo..hi of the deformed pencil
    by a certified block Davidson method on the free inverse: the
    eigenvalues, their B-orthonormal mode-major vectors, None for the
    factor, and B_s; None when the stage refuses or fails, so that the
    caller solves in double.

    The stage solves the window's block (``_shell_block``), which reaches
    from the window to lambda = 0, by Rayleigh-Ritz on the pencil
    (B A^{-1} B, B), whose eigenvalues are mu = 1/lambda: the spectral
    transformation at sigma = 0 (Ericsson & Ruhe, Math. Comp. 35, 1980),
    whose inverse A^{-1} = S / |kappa|^2 per mode symbol S is free.  The
    block's p_- negative eigenvalues are the bottom of this pencil and its
    p_+ positive ones the top, so plain Rayleigh-Ritz has no spurious
    interior values.  Needs ``weight.mode_set``, whose flat clusters name
    the block and whose symbols must be ``symbols``, and ``weight.bounds``
    (b_lo, b_hi) with b_lo I <= B_s <= b_hi I.

    - Kernel: the kappa = 0 mode (delta = (0,0,0)) is the exact kernel of A
      at every t.  Its two B-orthonormal vectors are returned with
      lambda = 0.0, and every other subspace vector is kept B-orthogonal to
      them; on that complement the pseudo-inverse A^+ (zero on kappa = 0)
      gives the same Ritz pairs as A^{-1} does without a kernel.
    - Subspace: it starts from the flat eigenvectors of the block's
      directions (``_flat_directions``).  Each step B-orthonormalizes the
      new columns against the old ones and among themselves (projection,
      then an eigendecomposition of their Gram, repeated once for nearly
      dependent columns), with B V one gemm of B_s on the new columns only
      (``apply_weight``).
    - Step: the projected matrix (B V)^H A^+ (B V) is solved by ``zheevd``,
      the p_- lowest and p_+ highest Ritz values are kept, and
      r = A x - lambda B x.  Until every residual is at most
      ``SHELL_RESIDUAL`` max(1, |lambda|), the subspace restarts on the Ritz
      vectors and the flat-preconditioned corrections -(A - lambda c_0)^{-1} r
      of the unconverged ones (c_0 the diagonal of B_s), taken on the flat
      eigendirections outside the block, a 2 x 2 per mode: a block Davidson
      method (Crouzeix, Philippe & Sadkane, SIAM J. Sci. Comput. 15, 1994).
      At most ``SHELL_MAX_STEPS`` steps are taken.
    - Certificate: by Ostrowski's theorem each deformed eigenvalue is its
      flat one scaled by a factor in [1/b_hi, 1/b_lo], so when the block's
      outermost positive shell |lambda| = s and the next one out, s', have
      s b_hi < s' b_lo, the interval (0, s' / b_hi) holds exactly the
      block's p_+ positive eigenvalues; and likewise below zero.  By Kahan's
      theorem (Parlett, The Symmetric Eigenvalue Problem, sec. 11.5) the
      returned Ritz values lie within eta = ||B^{-1/2} R|| of as many
      distinct eigenvalues, eta bounded by ||R||_F / sqrt(b_lo) and the
      B-orthonormality defect of the vectors.  Every Ritz value must lie
      inside its interval by eta; then they approximate exactly the block's
      eigenvalues, in order, and the window is a slice of them.

    Refused: below ``SHELL_MIN_DIM``, a block of more than dim /
    ``SHELL_BLOCK_SHARE`` pairs, b_lo <= 0, a failed bound, no convergence,
    a LAPACK failure or a value that is not finite.  No Cholesky factor and
    no array larger than B_s is made: the subspace holds at most twice the
    block's columns.
    """
    mode_set = getattr(weight, "mode_set", None)
    if (mode_set is None or mode_set.dim < SHELL_MIN_DIM or not 0 <= lo <= hi < mode_set.dim
            or not np.array_equal(symbols, mode_set.symbols)):
        return None
    keys, starts = mode_set.flat_clusters[0], mode_set.cluster_starts
    a, b = _shell_block(mode_set, lo, hi)
    if (starts[b] - starts[a]) * SHELL_BLOCK_SHARE > mode_set.dim:
        return None
    b_lo, b_hi = weight.bounds
    if not b_lo > 0:
        return None
    # Per side (negative, positive): the number of the block's eigenvalues,
    # the largest shell key among them, and the bound on |lambda| whose open
    # interval from 0 holds exactly those eigenvalues.
    flat = np.sqrt(np.abs(keys)) / 2.0
    z0, z1 = np.searchsorted(keys, 0), np.searchsorted(keys, 0, side="right")
    sides = []
    for edge, beyond, count in ((a, a - 1, starts[z0] - starts[a]),
                                (b - 1, b, starts[b] - starts[z1])):
        if count == 0:
            sides.append((0, 0, np.inf))
            continue
        next_out = flat[beyond] if 0 <= beyond < len(keys) else np.inf
        if not flat[edge] * b_hi < next_out * b_lo:
            return None
        sides.append((int(count), abs(int(keys[edge])), next_out / b_hi))
    (p_neg, q_neg, lim_neg), (p_pos, q_pos, lim_pos) = sides
    if p_neg + p_pos == 0:  # the kernel alone: no window that _solve_shells pads
        return None

    n, dim = mode_set.n_modes, mode_set.dim
    q = mode_set.shell_keys
    radius = np.sqrt(q) / 2.0
    safe = np.where(q > 0, radius, 1.0)
    free_inverse = symbols / (safe * safe)[:, None, None]  # A^+: the kernel's symbol is 0
    kernel = np.flatnonzero(q == 0)
    zheevd = scipy.linalg.lapack.zheevd
    B_s = weight.B_s
    c0 = float(B_s[0, 0].real)

    def extend(X, BX, T):
        """T', B T' for a B-orthonormal basis T' of the part of T that is
        B-orthogonal to X and to the kernel; None on a failure.  A second
        round of projection and orthonormalization follows only when the
        first met nearly dependent columns."""
        T = T / np.linalg.norm(T, axis=0)
        BT = apply_weight(B_s, T)
        for m in kernel:
            # the B-orthogonal projection off span{e_m (x) C^2}, whose Gram is c0 I
            Y = BT[2 * m : 2 * m + 2] / c0
            T[2 * m : 2 * m + 2] -= Y
            BT.reshape(n, 2, -1)[...] -= B_s[:, m, None, None] * Y
            BT[2 * m : 2 * m + 2] = 0.0
        for _ in range(2):
            if X.shape[1]:
                C = blas_matmul(BX.conj().T, T)
                T -= blas_matmul(X, C)
                BT -= blas_matmul(BX, C)
            d, U, info = zheevd(blas_matmul(T.conj().T, BT))
            if info or not np.isfinite(d).all() or not d[-1] > 0:
                return None
            keep = d > SHELL_DROP * d[-1]
            U = U[:, keep] / np.sqrt(d[keep])
            T, BT = blas_matmul(T, U), blas_matmul(BT, U)
            if d[keep][0] > SHELL_WELL_CONDITIONED * d[-1]:
                break
        return T, BT

    outside_pos, outside_neg = q > q_pos, q > q_neg  # the kernel is neither

    def correction(R, lam):
        """-(A - lambda c0)^{-1} r on the flat eigendirections outside the
        block, for the columns r of R and their Ritz values lambda."""
        R = R.reshape(n, 2, -1)
        up = 0.5 * (R + apply_symbols(symbols, R) / safe[:, None, None])  # along +|kappa|
        T = np.zeros_like(R)
        for part, sign, outside in ((up, 1.0, outside_pos), (R - up, -1.0, outside_neg)):
            scale = np.divide(-1.0, sign * radius[:, None] - lam * c0,
                              out=np.zeros((n, len(lam))), where=outside[:, None])
            T += part * scale[:, None, :]
        return T.reshape(dim, -1)

    start = np.hstack([_flat_directions(symbols, radius, np.flatnonzero((q > 0) & (q <= q_neg)), -1.0),
                       _flat_directions(symbols, radius, np.flatnonzero((q > 0) & (q <= q_pos)), 1.0)])
    X = BX = np.empty((dim, 0), dtype=np.complex128)
    mu = np.empty(0)
    T = start
    for _ in range(SHELL_MAX_STEPS):
        extended = extend(X, BX, T)
        if extended is None:
            return None
        T, BT = extended
        V, BV = np.hstack([X, T]), np.hstack([BX, BT])
        if V.shape[1] < p_neg + p_pos:
            return None
        # The projected matrix: X^H B A^+ B X = diag(mu) for the Ritz vectors
        # X, and the columns of T; zheevd reads the upper triangle.
        H = np.zeros((V.shape[1], V.shape[1]), dtype=np.complex128, order="F")
        H[np.arange(len(mu)), np.arange(len(mu))] = mu
        H[:, len(mu):] = blas_matmul(BV.conj().T, apply_symbols(free_inverse, BT))
        mu, C, info = zheevd(H, overwrite_a=1)
        if info or not np.isfinite(mu).all():
            return None
        kept = np.r_[0:p_neg, len(mu) - p_pos : len(mu)]
        mu, C = mu[kept], C[:, kept]
        if not (np.all(mu[:p_neg] < 0) and np.all(mu[p_neg:] > 0)):
            return None
        lam = 1.0 / mu
        X, BX = blas_matmul(V, C), blas_matmul(BV, C)
        R = apply_symbols(symbols, X) - BX * lam
        norms = np.linalg.norm(R, axis=0)
        if not np.isfinite(norms).all():
            return None
        open_ = norms > SHELL_RESIDUAL * np.maximum(1.0, np.abs(lam))
        if not open_.any():
            break
        T = correction(R[:, open_], lam[open_])
    else:
        return None
    del V, BV, T
    # Kahan's bound for the B-orthonormalized X G^{-1/2}, G = X^H B X.  The
    # Frobenius norms are summed here: np.linalg.norm would take them with
    # numpy's BLAS (see the module docstring).
    defect = float(np.sqrt(np.sum(np.abs(blas_matmul(X.conj().T, BX) - np.eye(len(lam))) ** 2)))
    if not defect < 0.5:
        return None
    eta = (float(np.sqrt(np.sum(norms**2))) / np.sqrt(b_lo * (1.0 - defect))
           + 2.0 * np.sqrt(1.0 + defect) * (1.0 / np.sqrt(1.0 - defect) - 1.0) * np.abs(lam).max())
    neg, pos = lam[:p_neg], lam[p_neg:]
    if not (np.all(neg - eta > -lim_neg) and np.all(neg + eta < 0)
            and np.all(pos - eta > 0) and np.all(pos + eta < lim_pos)):
        return None
    for m in kernel:  # the exact kernel, B-orthonormal
        K = np.zeros((dim, 2), dtype=np.complex128)
        K[2 * m, 0] = K[2 * m + 1, 1] = 1.0 / np.sqrt(c0)
        X, lam = np.hstack([X, K]), np.concatenate([lam, [0.0, 0.0]])
    order = np.argsort(lam, kind="stable")[lo - starts[a] : hi - starts[a] + 1]
    return lam[order], np.ascontiguousarray(X[:, order]), None, B_s


def _eigh_stage(symbols, weight, subset_by_index):
    """The double eigensolve stage: ``scipy.linalg.eigh`` on the lower
    triangle of C, built with M = L^{-1} by ``_reduce``, which checks it for
    finiteness; M is freed before ``eigh`` overwrites C, and C after it.
    Returns the eigenvalues and the vectors, and for a weight the vectors'
    spin components side by side (``_spin_sides``), L and B_s: the vectors
    are copied and freed before B_s is gathered again and a copy factored to
    L, so no stage after ``eigh`` holds more than C and the window's vectors.
    """
    M = None if weight is None else inverse_factor(weight.B_s, str(weight))
    C = _reduce(symbols, M)
    del M
    # A full solve of the reduced pencil uses divide and conquer, as the
    # generalized driver did; windows use the default MRRR driver.  _reduce
    # checked C's finiteness as it built it: eigh's own check would read all
    # of C, the half that _reduce leaves unwritten included, through a
    # dim x dim temporary.
    full = weight is not None and subset_by_index is None
    try:
        w, V = scipy.linalg.eigh(
            C,
            subset_by_index=subset_by_index,
            overwrite_a=True,
            check_finite=False,
            driver="evd" if full else None,
        )
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed: {exc}") from exc
    del C
    if weight is None:
        return w, V, None, None
    S = _spin_sides(V)
    del V
    B_s = weight.B_s
    return w, S, cholesky_pd(B_s.copy(order="F")), B_s


def solve_gen_hermitian(symbols, weight=None, subset_by_index=None):
    """Solve A x = lambda B x for A = blockdiag(``symbols``) and B = B_s (x) I_2.

    A, the flat operator, is given by its 2 x 2 Hermitian diagonal blocks
    ``symbols`` (shape (n, 2, 2)) and is never formed as a dense matrix.  B,
    with B_s Hermitian positive definite, acts on mode-major vectors of
    length 2n (``torus_dirac.ModeSet``): B_s on both spin components.
    ``weight`` (``conformal.ScalarWeight``) has B_s's ``shape``, gathers a
    new Fortran-ordered complex B_s on each read of ``B_s`` and names itself
    in errors (``str``); None is B = I.  One eigensolve stage gives the
    pairs.  An index window first goes to ``_shell_window``, which needs
    the weight's ``mode_set`` and ``bounds`` and solves without a
    factorization when the window's block is small; the window goes to
    ``_eigh_stage`` when it refuses or fails at any step, the residual gate
    included, and every other solve goes there at once.  That stage reduces
    the pencil with B_s = L L^H to the standard problem C y = lambda y,
    C = (L^{-1} (x) I_2) A (L^{-H} (x) I_2), and x = (L^{-H} (x) I_2) y
    (Golub & Van Loan, Matrix Computations, sec. 8.7); factoring a gather of
    B_s (``inverse_factor``) is the positive-definiteness check.

    Returns ascending eigenvalues, B-orthonormal eigenvectors with phases
    canonicalized in place, the largest per-vector residual
    ``||A x - lambda B x||_2`` (with ``||x||_B = 1``) on the original pencil,
    A applied through the symbols and B through B_s (``_residual_max``), and
    that B_s (None for B = I).  The residual must stay below
    ``RESIDUAL_BOUND * max(1, max |lambda|)``; a NaN residual or eigenvalue
    fails the bound.  ``subset_by_index`` (inclusive ``[lo, hi]``) restricts
    the solve to a window of eigenpairs; ``eigh`` gets it unchanged.

    Raises PositiveDefiniteError when B_s fails its Cholesky factorization,
    ValueError (``eigh``'s) when C is not finite, and RuntimeError for any
    other solver failure (for example eigenvectors of the windowed driver
    that do not converge) or a violated residual bound.
    """
    symbols = np.asarray(symbols)
    n = symbols.shape[0]
    if symbols.shape != (n, 2, 2):
        raise ValueError(f"symbols must have shape (n, 2, 2), got {symbols.shape}")
    if weight is not None and weight.shape != (n, n):
        raise ValueError(f"B_s must be {n} x {n} for {n} mode symbols, got {weight.shape}")
    shell = weight is not None and subset_by_index is not None
    for iterative in (True, False) if shell else (False,):
        solved = (_shell_window(symbols, weight, *subset_by_index) if iterative
                  else _eigh_stage(symbols, weight, subset_by_index))
        if solved is None:
            continue
        w, V, L, B_s = solved
        del solved
        if L is not None:
            # x = (L^{-H} (x) I_2) y, on the spin components of the vectors
            _triangular_solve(L, V, trans_a=2)
            del L
            V = _mode_major(V)
        canonicalize_phases(V)
        residual_max, scale = _residual_max(symbols, w, V, B_s)
        if residual_max <= RESIDUAL_BOUND * scale:
            return w, V, residual_max, B_s
        if not iterative:
            raise RuntimeError(
                f"eigensolver residual {residual_max:.3e} exceeds bound "
                f"{RESIDUAL_BOUND:.3e} * {scale:.3e}"
            )
        del V, B_s


def cluster_eigenvalues(values, tau_rel=0.0, tau_abs=0.0):
    """Partition sorted values into maximal runs of near-equal values.

    Consecutive values belong to the same cluster when their gap is at most
    ``tau_abs + tau_rel * max(1, |value|)``: spectra use the relative
    tolerance, first-order rates an absolute one.  Returns ClusterInfo
    entries whose ``lam`` is the member mean; odd complex multiplicity is
    flagged (``kramers_ok=False``) rather than raised.
    """
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(values) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tau_abs + tau_rel * max(
            1.0, abs(values[i - 1]), abs(values[i])
        ):
            members = values[start:i]
            mult_c = len(members)
            clusters.append(
                ClusterInfo(
                    lam=float(members.mean()),
                    mult_c=mult_c,
                    mult_h=mult_c // 2,
                    start=start,
                    stop=i,
                    kramers_ok=mult_c % 2 == 0,
                )
            )
            start = i
    return clusters


def build_spectrum_result(w, V, residual_max, tau_rel, meta, mode_set, B_s=None):
    clusters = cluster_eigenvalues(w, tau_rel)
    meta = dict(meta)
    meta["tau_rel"] = tau_rel
    return SpectrumResult(
        eigenvalues=np.asarray(w, dtype=float),
        clusters=clusters,
        residual_max=residual_max,
        meta=meta,
        vectors=V,
        B_s=B_s,
        mode_set=mode_set,
    )


@dataclass
class CurveFamily(Artifact):
    """Eigenvalue trajectories matched across a deformation parameter grid.

    ``flagged`` marks trajectories with a low-overlap step or a per-step jump
    exceeding the first-order Lipschitz estimate |d lambda / dt| <= |lambda|
    * sup|f| (when a rate bound is supplied to the matcher).  A family from
    ``conformal.tracked_spectrum`` also records the solved index window
    [lo, hi), the trust radius R(t) at each t and, per trajectory, whether it
    leaves R(t) somewhere on the grid; ``match_curves`` alone leaves them None.
    """

    t_values: list[float]
    trajectories: np.ndarray  # (n_traj, n_t)
    overlaps: np.ndarray  # (n_traj, n_t - 1) matching scores in [0, 1]
    flagged: list[bool] = field(default_factory=list)
    ambiguous: bool = False
    index_window: list[int] | None = None
    trust_radius: list[float] | None = None
    leaves_trust_radius: list[bool] | None = None

    def csv_rows(self):
        rows = [("t", "trajectory_id", "lambda")]
        for i in range(self.trajectories.shape[0]):
            for k, t in enumerate(self.t_values):
                rows.append((repr(float(t)), str(i), repr(float(self.trajectories[i, k]))))
        return rows


def _step_overlap(prev, nxt):
    """Overlap scores between trajectory slots of consecutive snapshots.

    The score of slot i against new vector j is the norm of the projection of
    the new vector onto the cluster subspace that slot i belongs to, in the
    B-inner product of the later snapshot.  Scoring whole degenerate
    subspaces (Kramers pairs are degenerate at every t) keeps the score at ~1
    inside a cluster instead of depending on the arbitrary basis returned by
    the solver; for a simple eigenvalue it reduces to |<x_i, x_j>_B|.  Both
    products run on scipy's BLAS, B through its scalar block B_s.
    """
    Y = nxt.vectors if nxt.B_s is None else apply_weight(nxt.B_s, nxt.vectors)
    cross = blas_matmul(prev.vectors.conj().T, Y)
    del Y
    n = cross.shape[0]
    scores = np.empty((n, n))
    for c in prev.clusters:
        block = cross[c.start : c.stop, :]
        scores[c.start : c.stop, :] = np.linalg.norm(block, axis=0)[None, :]
    return np.clip(scores, 0.0, 1.0)


def _greedy_assign(scores):
    n = scores.shape[0]
    order = np.argsort(scores, axis=None)[::-1]
    row_used = np.zeros(n, dtype=bool)
    col_used = np.zeros(n, dtype=bool)
    perm = np.full(n, -1)
    filled = 0
    for flat in order:
        i, j = divmod(int(flat), n)
        if not row_used[i] and not col_used[j]:
            perm[i] = j
            row_used[i] = True
            col_used[j] = True
            filled += 1
            if filled == n:
                break
    return perm


def _require_matchable(snap, n, mode_set):
    if len(snap.eigenvalues) != n:
        raise ValueError("snapshots have mismatched dimensions")
    if snap.vectors is None:
        raise ValueError("snapshots must retain eigenvectors for matching")
    if not mode_set.same_modes(snap.mode_set):
        raise ValueError("snapshots live on different mode sets")


def match_curves(snapshots, rate_bound=None):
    """Match eigenvalue trajectories across snapshots by eigenvector overlap.

    ``snapshots`` is any iterable of ``SpectrumResult`` with vectors, all of
    the same length.  It is read once, and only the current and the next
    snapshot are held, so a generator that solves one snapshot per step
    keeps at most two alive.  Raises ValueError on fewer than two.

    Greedy matching on the overlap matrix, with an optimal-assignment
    fallback when the greedy pairing leaves an overlap below the ambiguity
    threshold.  Trajectories are ordered by their value at the first
    snapshot.  Low-overlap steps flag the trajectory; a step where even the
    optimal assignment stays below ``AMBIGUOUS_OVERLAP`` marks the whole
    family ambiguous (reported, never fatal).

    ``rate_bound`` (typically sup|f|) enables a continuity check: a step with
    |delta lambda| beyond twice the first-order estimate
    ``max(1, |lambda|) * rate_bound * delta t`` also flags the trajectory.
    """
    snapshots = iter(snapshots)
    prev = next(snapshots, None)
    if prev is None:
        raise ValueError("need at least two snapshots")
    n = len(prev.eigenvalues)
    first_ms = prev.mode_set
    _require_matchable(prev, n, first_ms)
    t_values = [float(prev.meta.get("t", 0))]
    columns = [np.asarray(prev.eigenvalues, dtype=float)]
    steps = []
    slots = np.arange(n)  # slot -> eigenindex in current snapshot
    ambiguous = False
    for nxt in snapshots:
        _require_matchable(nxt, n, first_ms)
        scores = _step_overlap(prev, nxt)
        perm = _greedy_assign(scores)
        step = scores[np.arange(n), perm]
        if step.min(initial=1.0) < AMBIGUOUS_OVERLAP:
            from scipy.optimize import linear_sum_assignment

            rows, cols = linear_sum_assignment(-scores)
            perm = cols[np.argsort(rows)]
            step = scores[np.arange(n), perm]
            if step.min() < AMBIGUOUS_OVERLAP:
                ambiguous = True
        steps.append(step[slots])
        slots = perm[slots]
        t_values.append(float(nxt.meta.get("t", len(columns))))
        columns.append(nxt.eigenvalues[slots])
        prev = nxt
    if not steps:
        raise ValueError("need at least two snapshots")
    traj = np.column_stack(columns)
    overlaps = np.column_stack(steps)
    flagged = np.min(overlaps, axis=1) < FLAG_OVERLAP
    if rate_bound is not None:
        dt = np.abs(np.diff(np.asarray(t_values)))
        scale = np.maximum(1.0, np.abs(traj[:, :-1]))
        bound = 2.0 * scale * rate_bound * dt[None, :] + 1e-8
        flagged |= np.any(np.abs(np.diff(traj, axis=1)) > bound, axis=1)
    order = np.argsort(traj[:, 0], kind="stable")
    return CurveFamily(
        t_values=t_values,
        trajectories=traj[order],
        overlaps=overlaps[order],
        flagged=[bool(flagged[i]) for i in order],
        ambiguous=ambiguous,
    )

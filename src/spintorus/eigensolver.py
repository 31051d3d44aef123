"""Dense Hermitian(-definite) eigensolver, degeneracy clustering, curve tracking.

One dim x dim matrix and one BLAS per solve.  The flat operator A is block
diagonal over modes, and the solve reads it as its 2 x 2 mode symbols; the
weight of a deformed solve is B = B_s (x) I_2, and the solve reads B_s from a
read-only weight (``conformal.ScalarWeight``) that gathers it afresh on each
read.  The stages of a deformed solve, n = dim / 2 the number of modes:

- factor (``inverse_factor``): B_s is gathered a panel of columns at a time
  into one Fortran-ordered n x n buffer, factored in place, B_s = L L^H (the
  positive-definiteness check), and inverted in place to M = L^{-1};
- reduction (``_reduce``): the lower triangle of the standard-form matrix
  C = (M (x) I_2) A (M^H (x) I_2), all that the eigensolver reads, is built
  from the symbols a panel of columns at a time into the one dim x dim
  array of the solve, and M is freed.  From 32 MiB on, C lives in its own
  mapping without huge pages, where its upper half never becomes resident;
- eigensolve, one of two, each returning C-space vectors and L:
  - ``scipy.linalg.eigh`` on C, which it overwrites (``zheevr`` for a
    window, ``zheevd`` for a full solve); then C is freed, and B_s is
    gathered again and a copy factored to L (``_eigh_stage``);
  - for a window of k <= dim / 16 pairs at dim >= 400, the mixed-precision
    solve (``_mixed_window``): C is built in complex64 and reduced to a
    tridiagonal T by ``chetrd``, T's window is solved and mapped back in
    single precision, and one to three correction steps in double bring
    every pair under the residual gate.  Any failure, the gate's included,
    falls back to ``eigh``.  Median ``solve_gen_hermitian`` time of a window
    at the middle of the spectrum (2-vCPU Haswell, random factors of seeds 7-20,
    t = 0.05):

    | dim (N, delta) | k       | mixed          | ``zheevr``     |
    |----------------|---------|----------------|----------------|
    | 200 (2, 100)   | 12      | 7.0 ms         | 5.6 ms         |
    | 250 (2, 000)   | 12      | 9.1 ms         | 9.4 ms         |
    | 432 (3, 111)   | 12 / 22 | 22.4 / 36.7 ms | 27.9 / 41.7 ms |
    | 504 (3, 011)   | 12 / 22 | 36.0 / 36.1 ms | 43.7 / 42.7 ms |
    | 588 (3, 100)   | 22 / 36 | 50.0 / 68.6 ms | 60.7 / 78.7 ms |
    | 588 (3, 100)   | 72      | 74.9 ms        | 67.3 ms        |
    | 686 (3, 000)   | 22      | 65.0 ms        | 85.1 ms        |
    | 1296 (4, 100)  | 22      | 315 ms         | 491 ms         |

- back-transformation, shared by both stages: one triangular solve by L
  maps the vectors back;
- phases and the residual gate on the original pencil (``_residual_max``),
  with the B_s of ``eigh``'s stage, or one gathered now after the mixed
  solve.  The solve returns this B_s for curve matching.

Memory: no later stage outgrows the eigensolve's C and the window's vectors.
M, B_s and L take a quarter of C each; M lives only through the reduction,
and B_s and L only after the eigensolve (the mixed solve holds its complex64
C, half of C, and L through its refinement).  So B_s is factored twice: a
second factorization costs n^3 / 3 complex multiply-adds, 1-2% of ``eigh``,
and gives the same L from the same bits of B_s.  No dense A or B
is formed, and the gather, the reduction and the residual gate work in
column panels or in place: in a process that repeats solves, an n x n or
vectors-sized temporary comes from the C heap, and its freed block stays
resident into the next solve.

Every dense product and factorization of the solve (the Cholesky
factorizations, the triangular inverse, products and solves, ``eigh``, the
mixed solve's LAPACK calls and the residual gate's B_s product through
``blas_matmul``) runs on scipy's BLAS, and so do the overlap products of
curve matching (``apply_weight``).  The numpy and scipy wheels each bundle
their own OpenBLAS with its own thread pool, whose idle threads keep
spinning for a while after a call; a solve that alternates between the two
pools makes them compete for the cores, which cost about a third of the
50-trial genericity scan on two vCPUs.
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


def _lower_buffer(dim, dtype=np.complex128):
    """A zeroed Fortran-ordered dim x dim array of ``dtype`` for C.

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
    size = dim * dim * np.dtype(dtype).itemsize
    if size < OWN_MAPPING_BYTES or not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.zeros((dim, dim), dtype=dtype, order="F")
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    with contextlib.suppress(OSError):  # a kernel without huge pages
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=dtype).reshape((dim, dim), order="F")


def _require_finite(block, dtype=np.complex128):
    """The finiteness check that ``scipy.linalg.eigh`` makes by default, on
    the part of C just computed, as it is stored in ``dtype``: an entry that
    overflows complex64 counts as infinite."""
    if not np.isfinite(block.astype(dtype, copy=False)).all():
        raise ValueError("array must not contain infs or NaNs")


def _reduce(symbols, M, dtype=np.complex128):
    """The lower triangle of C = (M (x) I_2) A (M^H (x) I_2) for
    A = blockdiag(``symbols``) and the lower triangular M = L^{-1}
    (``inverse_factor``), in one Fortran-ordered dim x dim array of
    ``dtype`` (``_lower_buffer``); for M = None, the whole of A.

    Spin block (a, b) of C, the entries C[2p + a, 2q + b], is M diag(s_ab) M^H
    for s_ab the (a, b) entries of the symbols.  It is built
    ``REDUCE_PANEL`` columns at a time: the panel of diag(s_ab) M^H goes into
    an n x P work array, which one in-place trmm of side n turns into that
    panel of the block, so no n x n array is needed beside C and M.  The
    (0, 1) block is the adjoint of the (1, 0) block.  When s_11 = -s_00, as
    for every Dirac symbol -sigma . kappa, the (1, 1) block is the negated
    (0, 0) block, which is exact under round-to-nearest; other symbols take
    a third trmm.  So a Dirac reduction costs n^3 complex multiply-adds, and
    a general one 1.5 n^3.  The panels are computed in double; a complex64
    C (the mixed-precision window solve) stores them rounded.

    ``eigh`` and ``chetrd`` read only the lower triangle, so only entries on
    or below the diagonal are stored: the panel of modes [j0, j1) stores the
    rows p >= q of its (0, 0), (1, 0) and (1, 1) blocks, and of the (0, 1)
    block's rows [j0, j1), which mirror it, the columns q < p.  Every stored
    entry has the bits of the same formula computed on whole n x n blocks.
    Each panel (and A's blocks for M = None) is checked to be finite, as it
    is stored, when it is computed: ValueError otherwise, since ``eigh``
    runs without its own check.
    """
    n = symbols.shape[0]
    C = _lower_buffer(2 * n, dtype)
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
            _require_finite(P, dtype)
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


#: Mixed-precision window solves (``_mixed_window``): a deformed solve of a
#: window of k eigenpairs takes them when dim >= ``MIXED_MIN_DIM`` and
#: k <= dim / ``MIXED_WINDOW_SHARE``.  Below the floor, and for larger
#: windows, ``zheevr`` is faster (see the module docstring).
MIXED_MIN_DIM = 400
MIXED_WINDOW_SHARE = 16
#: At most this many correction steps, each followed by a Rayleigh-Ritz step.
MIXED_MAX_STEPS = 3
#: Refinement stops when every C-space residual is at most this times
#: max(1, |theta|), ten times below ``RESIDUAL_BOUND``.
MIXED_RESIDUAL = 1e-10
#: Ritz values within this relative distance share one shift of T.
MIXED_SHIFT_RUN = 1e-5


def _takes_mixed_path(dim, subset_by_index):
    """Whether a deformed solve goes to ``_mixed_window``: an index window of
    k eigenpairs with k <= dim / ``MIXED_WINDOW_SHARE``, dim >= ``MIXED_MIN_DIM``."""
    if subset_by_index is None or dim < MIXED_MIN_DIM:
        return False
    lo, hi = subset_by_index
    return 0 <= lo <= hi < dim and (hi - lo + 1) * MIXED_WINDOW_SHARE <= dim


def _triangular_solve(L, S, trans_a=0):
    """L^{-1} S (``trans_a`` 0) or L^{-H} S (2) for the lower triangular L,
    in the buffer of S, a Fortran-ordered complex array (``_spin_sides``)."""
    trsm = scipy.linalg.get_blas_funcs("trsm", (L, S))
    return trsm(1.0, L, S, lower=1, trans_a=trans_a, overwrite_b=1)


def _apply_reduced(symbols, L, X):
    """C X = (L^{-1} (x) I_2) A (L^{-H} (x) I_2) X in double, for mode-major
    X: two triangular solves of side n with the spin components side by
    side, around ``apply_symbols``."""
    S = _triangular_solve(L, _spin_sides(X), trans_a=2)
    return _mode_major(_triangular_solve(L, _spin_sides(apply_symbols(symbols, _mode_major(S)))))


def _mixed_window(symbols, weight, lo, hi):
    """The eigensolve stage of the eigenpairs lo..hi of the deformed pencil
    from a complex64 tridiagonalization refined in double: the Ritz values,
    the refined vectors in C space as spin components side by side
    (``_spin_sides``), L, and None for the B_s that the residual gate
    gathers; None when any step fails, so that the caller solves in double.

    C's lower triangle is built in complex64 (``_reduce``) and reduced to a
    real tridiagonal T = Q^H C Q by ``chetrd``; the window of T comes from
    ``sstebz`` and ``sstein`` in single precision, and Q maps it back
    (``cunmqr`` on the reflectors that ``chetrd`` leaves in C).  B_s is
    gathered and factored in place to L, and C is applied in double through
    L (``_apply_reduced``).  A Rayleigh-Ritz step in double, on the k x k
    pencil (X^H C X, X^H X), gives Ritz pairs (theta, x) and residuals
    r = C x - theta x.  Until every residual is at most ``MIXED_RESIDUAL``
    max(1, |theta|), a correction step solves (T - theta I) y = Q^H r in
    double (``zgtsv``), one shift per run of Ritz values within
    ``MIXED_SHIFT_RUN``, and sets x <- x - Q y: a Jacobi-Davidson correction
    (Sleijpen & van der Vorst, SIAM J. Matrix Anal. Appl. 17, 1996) with the
    single-precision T as its preconditioner, which needs no projection
    because R is orthogonal to X after Rayleigh-Ritz.  Each step shrinks the
    residual by about |C - Q T Q^H| / gap, and at most ``MIXED_MAX_STEPS``
    steps are taken.  Then C is freed.

    Every product runs on scipy's BLAS and LAPACK.  Through the refinement
    only the complex64 C, half of the double path's C, and L, a quarter of
    it, are held; the gate gathers B_s a third time rather than have it held
    beside them, which costs about 2 ms at N = 3 and keeps the scan's peak
    RSS below the double path's.
    """
    lapack = scipy.linalg.lapack
    M = inverse_factor(weight.B_s, str(weight))
    try:
        C = _reduce(symbols, M, np.complex64)
    except ValueError:  # an entry that overflows complex64, or a NaN
        return None
    del M
    dim, k = C.shape[0], hi - lo + 1
    lwork = int(lapack.chetrd_lwork(dim, lower=1)[0].real)
    C, d, e, tau, info = lapack.chetrd(C, lower=1, lwork=lwork, overwrite_a=1)
    if info or not (np.isfinite(d).all() and np.isfinite(e).all()):
        return None
    found, theta, block, split, info = lapack.sstebz(d, e, 2, 0.0, 0.0, lo + 1, hi + 1, 0.0, "B")
    if info or found != k:
        return None
    Z, info = lapack.sstein(d, e, theta[:k], block, split)
    if info:
        return None
    # Q's reflectors in the rows 1.. of C: a view from C's second entry with
    # C's leading dimension, of which cunmqr reads the first dim - 1 rows.
    reflectors = C.reshape(-1, order="F")[1 : 1 + dim * (dim - 1)].reshape(
        (dim, dim - 1), order="F"
    )
    Y = Z.astype(np.complex64, order="F")
    del Z
    lwork = int(lapack.cunmqr("L", "N", reflectors, tau, Y[1:], -1)[1][0].real)

    def apply_q(Y, trans):
        """Q Y (``trans`` "N") or Q^H Y ("C") in place, for complex64 Y."""
        Y[1:], _, info = lapack.cunmqr("L", trans, reflectors, tau, Y[1:], lwork)
        return info == 0

    if not apply_q(Y, "N"):
        return None
    d, e = d.astype(np.float64), e.astype(np.complex128)
    L = cholesky_pd(weight.B_s)
    X = Y.astype(np.complex128)
    for step in range(MIXED_MAX_STEPS + 1):
        CX = _apply_reduced(symbols, L, X)
        Xh = X.conj().T
        w, U, info = lapack.zhegv(blas_matmul(Xh, CX), blas_matmul(Xh, X),
                                  overwrite_a=1, overwrite_b=1)
        if info:
            return None
        X, R = blas_matmul(X, U), blas_matmul(CX, U)
        R -= X * w
        norms = np.linalg.norm(R, axis=0)
        if not np.isfinite(norms).all():
            return None
        if np.all(norms <= MIXED_RESIDUAL * np.maximum(1.0, np.abs(w))):
            break
        if step == MIXED_MAX_STEPS:
            return None
        Y = R.astype(np.complex64, order="F")
        if not apply_q(Y, "C"):
            return None
        gaps = np.diff(w) > MIXED_SHIFT_RUN * np.maximum(1.0, np.abs(w[1:]))
        edges = [0, *(np.flatnonzero(gaps) + 1), k]
        for j0, j1 in zip(edges[:-1], edges[1:]):
            *_, y, info = lapack.zgtsv(e, d - w[j0:j1].mean(), e, Y[:, j0:j1])
            if info:
                return None
            Y[:, j0:j1] = y
        if not apply_q(Y, "N"):
            return None
        X -= Y
    del C, reflectors, Y, CX, R
    return w, _spin_sides(X), L, None


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
    in errors (``str``); None is B = I.  With B_s = L L^H the pencil is
    reduced to the standard problem C y = lambda y,
    C = (L^{-1} (x) I_2) A (L^{-H} (x) I_2), and x = (L^{-H} (x) I_2) y
    (Golub & Van Loan, Matrix Computations, sec. 8.7); factoring a gather of
    B_s (``inverse_factor``) is the positive-definiteness check.  One
    eigensolve stage gives the pairs of C and L: ``_mixed_window`` for a
    small window (``_takes_mixed_path``), and ``_eigh_stage`` otherwise or
    when that fails at any step, the residual gate included.

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
    takes_mixed = weight is not None and _takes_mixed_path(2 * n, subset_by_index)
    for mixed in (True, False) if takes_mixed else (False,):
        solved = (_mixed_window(symbols, weight, *subset_by_index) if mixed
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
        if B_s is None and weight is not None:  # gathered only now after a mixed solve
            B_s = weight.B_s
        canonicalize_phases(V)
        residual_max, scale = _residual_max(symbols, w, V, B_s)
        if residual_max <= RESIDUAL_BOUND * scale:
            return w, V, residual_max, B_s
        if not mixed:
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

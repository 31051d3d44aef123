"""Memory model: the peak bytes of each resource a command sizes before any
work starts (the CLI refuses what exceeds ``physical_memory``, exit 3), and of
a genericity pool worker.  Each byte constant says how it was measured."""

import math
import os

from .conformal import exp_grid_size, extrema_grid_size
from .torus_dirac import TORUS_DIM, mode_set_dim

#: Peak memory of a dense solve in dim x dim complex matrices: peak RSS
#: less the import baseline is at most 2.47 of them for every --N command at
#: N=4 and 5 with the default tolerances (spectrum --t-grid at N=4, dim 1296,
#: with two snapshots' vectors alive: 121 MB, 58 MB of it the import; 1.91 at
#: N=5), and at most 1.76 for every single-t command (split-search at N=4).
#: At N=5, where C's unwritten upper half stays out of memory, every
#: single-t command reads 1.02-1.13.  4.0 leaves 62% headroom.  A spectrum
#: --t-grid whose --tau-split grows the tracked window to the whole spectrum
#: is not covered: it reads 7.24 at N=4 and 6.36 at N=5 (ROADMAP, dense
#: memory).
DENSE_MATRICES_AT_PEAK = 4.0
#: Peak bytes per point of the lattice cube that ``closed_form_spectrum``
#: enumerates: the int64 keys, the ball mask, and the ball's keys and their
#: sorted copy, 8 + 1 + 2 * 8 pi / 6 = 17.4 (tracemalloc: 16.4 at
#: lambda_max = 40, 17.2 at 160).
LATTICE_BYTES_PER_POINT = 18
#: Peak bytes per point of the G^3 grid on which ``conformal.exp_coeffs``
#: samples e^{tf}, factor grid cache included (tracemalloc: 56.0-56.3 at
#: G = 54-216; at most 77 on grids of side 36 and below).
EXP_GRID_BYTES_PER_POINT = 64
#: Peak bytes of one row of a genericity report while the command writes it
#: (the row, its JSON object and text, and its CSV row), plus those of each
#: positive cluster in it (tracemalloc over 2000 and 8000 rows: 2925, 3575,
#: 4777 and 6748 bytes a row with 1, 3, 6 and 12 clusters).
GENERICITY_ROW_BYTES = 3000
GENERICITY_CLUSTER_BYTES = 400
#: Private bytes a pool worker holds beside its dense solve: the pages of
#: the calling process it copies on write.  Measured as the workers' peak
#: USS in genericity scans of 1 and 2 workers: 12.5-16.3 MB at N = 2 (dense
#: estimate 2.4 MB); at N = 3, 4 and 5 a worker peaks at 18.7-23.7, 32-39
#: and 70-75 MB, below this plus the dense estimate (45, 127 and 381 MB).
TRIAL_WORKER_BYTES = 24 * 2**20


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def dense_matrix_bytes(N, delta):
    """Bytes of one dense complex dim x dim matrix at truncation order N."""
    return mode_set_dim(N, delta) ** 2 * 16


def dense_memory_estimate(N, delta):
    """Estimated peak bytes of a dense solve at truncation order N."""
    return DENSE_MATRICES_AT_PEAK * dense_matrix_bytes(N, delta)


def lattice_memory_estimate(lambda_max):
    """Estimated peak bytes of ``closed_form_spectrum`` up to a finite lambda_max:
    a cube of side 2 ceil(lambda_max) + 3 (a float, inf when out of range)."""
    side = 2.0 * math.ceil(lambda_max) + 3
    return LATTICE_BYTES_PER_POINT * side * side * side


def exp_grid_memory_estimate(N, degree, weight=0.0):
    """Estimated peak bytes of sampling a factor of this degree at order N,
    with |t| ||fhat||_1 at most ``weight``, on the largest of its grids: that
    of ``ConformalFactor.extrema``, the ``exp_coeffs`` grid of B (band 2N)
    and that of the deformed volume (band 0, weight n t) (a degree past
    2**40 fits nowhere and counts as 2**40; inf past ``EXP_WEIGHT_MAX``)."""
    degree = min(degree, 2**40)
    try:
        side = float(max(
            extrema_grid_size(degree),
            exp_grid_size(2 * N, degree, weight),
            exp_grid_size(0, degree, TORUS_DIM * weight),
        ))
    except ValueError:
        return math.inf
    return EXP_GRID_BYTES_PER_POINT * side * side * side


def genericity_memory_estimate(trials, m_clusters, dim):
    """Estimated peak bytes of a genericity report of ``trials`` rows, each
    holding at most min(m_clusters, dim) clusters (dim eigenvalues in all)."""
    return trials * (GENERICITY_ROW_BYTES + GENERICITY_CLUSTER_BYTES * min(m_clusters, dim))


def random_l1_bound(amplitude):
    """Bound on ||fhat||_1 of ``random_factor`` at degree d: its (2d + 1)^3
    coefficients have l2 norm ||f||_2 <= |amplitude| (the mean of f^2 over the
    sampling grid is exact), so by Cauchy-Schwarz l1 <= |amplitude| (2d + 1)^(3/2)."""
    return lambda d: abs(amplitude) * (2.0 * min(d, 2**40) + 1.0) ** 1.5

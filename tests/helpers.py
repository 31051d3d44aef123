"""Small constructors shared by the test modules."""

import numpy as np

from spintorus import conformal
from spintorus.torus_dirac import SpinorField, field_on_grid


class ArrayWeight:
    """A weight given as the array B_s, which the caller keeps: what
    ``eigensolver.solve_gen_hermitian`` reads of a weight, its ``shape`` and
    a fresh Fortran-ordered complex B_s on each read."""

    def __init__(self, B_s):
        self.array = np.asarray(B_s)
        self.shape = self.array.shape

    def __str__(self):
        return "weight matrix"

    @property
    def B_s(self):
        return np.array(self.array, dtype=np.complex128, order="F")


def first_nonnegative_index(mode_set):
    """Index of the first non-negative eigenvalue of every pencil (A, B), B > 0."""
    return int(mode_set.cluster_starts[np.searchsorted(mode_set.flat_clusters[0], 0)])


def zero_field(mode_set):
    return SpinorField(mode_set, np.zeros((mode_set.n_modes, 2), dtype=np.complex128))


def record_solves(monkeypatch):
    """Record the ``subset_by_index`` window (None for a full solve) of every
    ``conformal.deformed_spectrum`` call, in order."""
    calls = []
    solve = conformal.deformed_spectrum

    def recording(*args, **kwargs):
        calls.append(kwargs.get("subset_by_index"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(conformal, "deformed_spectrum", recording)
    return calls


def record_calls(monkeypatch, name, *modules):
    """Record the positional arguments of every call of the function ``name``
    of ``modules[0]``, which is wrapped in each of ``modules`` (the module
    that defines it and those that import it by name)."""
    calls = []
    func = getattr(modules[0], name)

    def recording(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, recording)
    return calls


def perturbation_matrix_quadrature(cluster, factor):
    """Grid-quadrature cross-check of the cluster matrix
    ``perturbation.perturbation_matrix`` reads from Fourier sums."""
    G = max(2 * (2 * cluster.mode_set.N + 1), 4 * factor.degree + 4)
    grids = [field_on_grid(phi, G) for phi in cluster.fields()]
    fg = factor.grid_values(G)
    p = cluster.p_c
    P = np.zeros((p, p), dtype=np.complex128)
    for i in range(p):
        for j in range(p):
            gram = np.sum(grids[j] * np.conj(grids[i]), axis=-1)
            P[i, j] = -cluster.lam * np.mean(fg * gram)
    return 0.5 * (P + P.conj().T)

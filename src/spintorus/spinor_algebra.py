"""Spin-1/2 kernel: Pauli matrices, Clifford action on C^2, quaternionic structure.

Conventions, fixed once and inherited by every other module:

* the Clifford action of the j-th frame vector is ``c(e_j) = i sigma_j``,
  which gives ``c(v) c(v) = -|v|^2 id`` for real vectors v;
* the antilinear quaternionic map is ``J(z1, z2) = (-conj z2, conj z1)``,
  so ``J^2 = -1``, ``Ji = -iJ`` and J commutes with every c(v);
* Hermitian inner products are antilinear in the SECOND argument.

All functions broadcast over leading axes, so the randomized law tests can
push stacks of 10^4 spinors through them in a single call.
"""

from __future__ import annotations

import numpy as np

#: Pauli matrices sigma_1, sigma_2, sigma_3, shape (3, 2, 2).
SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=np.complex128,
)

def sigma_dot(v):
    """sigma . v as a (..., 2, 2) matrix, for real vectors v of shape (..., 3)."""
    v = np.asarray(v, dtype=float)
    return np.einsum("...j,jab->...ab", v, SIGMA)


def clifford_mul(v, s):
    """Clifford multiplication c(v) s; linear in both arguments."""
    s = np.asarray(s, dtype=np.complex128)
    return 1j * np.einsum("...ab,...b->...a", sigma_dot(v), s)


def apply_J(s):
    """Quaternionic structure J(z1, z2) = (-conj z2, conj z1); antilinear."""
    s = np.asarray(s, dtype=np.complex128)
    return np.stack([-np.conj(s[..., 1]), np.conj(s[..., 0])], axis=-1)


def herm_inner(a, b):
    """Hermitian inner product on C^2, antilinear in the second argument."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return np.sum(a * np.conj(b), axis=-1)


def spinor_norm(s):
    """|s| = sqrt(|z1|^2 + |z2|^2)."""
    s = np.asarray(s)
    return np.sqrt(np.sum(np.abs(s) ** 2, axis=-1))


def dirac_symbol(kappa):
    """Mode symbol ``-sigma . kappa`` of the flat Dirac operator.

    Hermitian, trace free, eigenvalues ``+|kappa|`` and ``-|kappa|``, and
    ``dirac_symbol(kappa) @ s == i * clifford_mul(kappa, s)`` for every s.
    """
    return -sigma_dot(kappa)

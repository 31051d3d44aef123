"""Small constructors shared by the test modules."""

import numpy as np

from spintorus.torus_dirac import SpinorField


def zero_field(mode_set):
    return SpinorField(mode_set, np.zeros((mode_set.n_modes, 2), dtype=np.complex128))

"""Small constructors shared by the test modules."""

import numpy as np

from spintorus import conformal
from spintorus.torus_dirac import SpinorField


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

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

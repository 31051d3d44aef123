"""The one JSON encoding of every artifact the package writes.

Dataclasses and named tuples become objects of their fields, numpy arrays and
scalars plain lists, floats, ints and bools.  A field named ``lam`` is
written under the key ``"lambda"``, and a dataclass field whose metadata is
``NOT_ARTIFACT`` (eigenvectors, matrices, index bookkeeping) is left out.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Field metadata of a dataclass field that stays out of the artifact.
NOT_ARTIFACT = {"artifact": False}


def _key(name):
    return "lambda" if name == "lam" else name


def to_json(obj):
    """The plain JSON value (dict, list, str, float, int, bool or None) of obj."""
    if dataclasses.is_dataclass(obj):
        return {
            _key(f.name): to_json(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.metadata.get("artifact", True)
        }
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {_key(name): to_json(v) for name, v in zip(obj._fields, obj)}
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


class Artifact:
    """Base of the report dataclasses: ``to_json_dict`` encodes the fields."""

    def to_json_dict(self):
        return to_json(self)

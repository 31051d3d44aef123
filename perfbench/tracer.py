"""Span tracer that wraps spintorus functions from outside the package.

The traced run rebinds the public functions of each module (``cli``,
``experiments``, ``perturbation``, ``conformal``, ``eigensolver``,
``torus_dirac``) to timing wrappers.  Every module attribute that holds the
original function object is rebound, so by-name imports such as
``from .conformal import deformed_spectrum`` in ``cli``, ``experiments`` and
``perturbation`` are covered; ``scipy.linalg.eigh`` is rebound on
``scipy.linalg``, where ``eigensolver`` looks it up.  Spans are kept in
memory; the caller writes them out once at the end.  The wrappers assume a
single calling thread (``--workers 1``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from perfbench.workloads import trust_radius


@dataclass
class Span:
    """One call of a wrapped function: name, interval, parent index, run id."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: int = 0
    error: str | None = None
    #: Counts recorded at the boundary; keys starting with "_" hold live
    #: objects used by the aggregation and are not written out.
    attrs: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run_id,
            "error": self.error,
            "attrs": {k: v for k, v in self.attrs.items() if not k.startswith("_")},
        }


def _record_eigh(span, arguments, result):
    vectors = not arguments["eigvals_only"]
    w = result[0] if vectors else result
    span.attrs.update(
        dim=int(arguments["a"].shape[0]),
        vectors=vectors,
        generalized=arguments["b"] is not None,
        computed=int(len(w)),
    )


def _record_deformed(span, arguments, result):
    span.attrs.update(
        keep_vectors=bool(arguments["keep_vectors"]),
        t=float(arguments["t"]),
        N=int(arguments["mode_set"].N),
        _factor=arguments["factor"],
        _eigenvalues=result.eigenvalues,
    )


def _record_exp(span, arguments, result):
    span.attrs.update(band_used=int(result.band_used), recon_error=float(result.recon_error))


def _record_dim(span, arguments, result):
    span.attrs["dim"] = int(result.shape[0])


def _record_genericity(span, arguments, result):
    span.attrs["trial_failures"] = int(result.n_failures)


#: (owner module, attribute, span name, recorder) for each wrapped function.
FUNCTIONS = (
    ("spintorus.cli", "main", "cli.main", None),
    ("spintorus.experiments", "genericity_scan", "experiments.genericity_scan", _record_genericity),
    ("spintorus.experiments", "split_search", "experiments.split_search", None),
    ("spintorus.experiments", "random_factor", "experiments.random_factor", None),
    ("spintorus.perturbation", "extract_cluster", "perturbation.extract_cluster", None),
    ("spintorus.perturbation", "perturbation_matrix", "perturbation.perturbation_matrix", None),
    ("spintorus.perturbation", "fd_check", "perturbation.fd_check", None),
    (
        "spintorus.perturbation",
        "deformed_cluster_values",
        "perturbation.deformed_cluster_values",
        None,
    ),
    ("spintorus.conformal", "flat_spectrum", "conformal.flat_spectrum", None),
    ("spintorus.conformal", "deformed_spectrum", "conformal.deformed_spectrum", _record_deformed),
    ("spintorus.conformal", "build_deformed_operator", "conformal.build_deformed_operator", None),
    ("spintorus.conformal", "assemble_B", "conformal.assemble_B", _record_dim),
    ("spintorus.conformal", "exp_coeffs", "conformal.exp_coeffs", _record_exp),
    ("spintorus.conformal", "assemble_multiplication", "conformal.assemble_multiplication", None),
    (
        "spintorus.conformal",
        "factor_multiplication_matrix",
        "conformal.factor_multiplication_matrix",
        None,
    ),
    ("spintorus.eigensolver", "solve_gen_hermitian", "eigensolver.solve_gen_hermitian", None),
    ("scipy.linalg", "eigh", "eigensolver.eigh", _record_eigh),
    ("spintorus.eigensolver", "canonicalize_phases", "eigensolver.canonicalize_phases", None),
    ("spintorus.eigensolver", "build_spectrum_result", "eigensolver.build_spectrum_result", None),
    ("spintorus.eigensolver", "cluster_eigenvalues", "eigensolver.cluster_eigenvalues", None),
    ("spintorus.eigensolver", "match_curves", "eigensolver.match_curves", None),
    ("spintorus.torus_dirac", "build_mode_set", "torus_dirac.build_mode_set", None),
)

#: (owner module, class, cached property, span name, recorder).  The first
#: access on a mode set builds the matrix; later accesses hit its cache.
PROPERTIES = (
    ("spintorus.torus_dirac", "ModeSet", "flat_matrix", "torus_dirac.ModeSet.flat_matrix", _record_dim),
    ("spintorus.torus_dirac", "ModeSet", "mode_diffs", "torus_dirac.ModeSet.mode_diffs", None),
)

SPAN_NAMES = tuple(f[2] for f in FUNCTIONS) + tuple(p[3] for p in PROPERTIES)
MODULES = ("cli", "experiments", "perturbation", "conformal", "eigensolver", "torus_dirac")

#: Real floating-point operations of one dense ``eigh`` call, as c * dim^3,
#: keyed by (eigenvectors computed, generalized problem).  Complex arithmetic
#: counts 4 real operations per real-algorithm operation; the stage counts
#: are the textbook leading terms: Cholesky n^3/3, reduction to standard form
#: n^3, tridiagonalisation 4n^3/3, divide-and-conquer eigenvectors 4n^3/3,
#: back-transformation 2n^3 and back-substitution n^3.  A model, not a
#: hardware counter.
EIGH_FLOP_CONSTANTS = {
    (True, True): 4 * (1 / 3 + 1 + 4 / 3 + 4 / 3 + 2 + 1),
    (False, True): 4 * (1 / 3 + 1 + 4 / 3),
    (True, False): 4 * (4 / 3 + 4 / 3 + 2),
    (False, False): 4 * (4 / 3),
}


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, record=None):
        """Timing wrapper around fn that appends one Span per call."""
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if record is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None, run_id=self.run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if record is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record(span, bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every reference to the traced functions; restore on exit."""
        restore = []
        try:
            package = [
                m for n, m in list(sys.modules.items())
                if n == "spintorus" or n.startswith("spintorus.")
            ]
            for owner, attr, name, record in FUNCTIONS:
                module = importlib.import_module(owner)
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, record)
                for holder in [module] + [m for m in package if m is not module]:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            restore.append((holder, key, original))
            for owner, cls_name, attr, name, record in PROPERTIES:
                cls = getattr(importlib.import_module(owner), cls_name)
                prop = cls.__dict__[attr]
                setattr(cls, attr, property(self.wrap(name, prop.fget, record)))
                restore.append((cls, attr, prop))
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _nearest(spans, i, name):
    """Index of the closest ancestor of span i with the given name, or None."""
    p = spans[i].parent
    while p is not None and spans[p].name != name:
        p = spans[p].parent
    return p


def _ratio(num, den):
    return num / den if den else 0.0


#: Derived per-layer metrics and their units, beyond the per-span triples.
DERIVED_UNITS = {
    "eigensolver.eigh.dim_max": "count",
    "eigensolver.eigh.flops": "flop",
    "eigensolver.eigh.eigenvalues_computed": "count",
    "eigensolver.eigh.s_blas1": "s",
    "eigensolver.vectors_discarded_ratio": "ratio",
    "eigensolver.trusted_eig_ratio": "ratio",
    "conformal.assemble_B.bytes": "B",
    "conformal.exp_coeffs.band_used_max": "count",
    "conformal.exp_coeffs.recon_error_max": "ratio",
    "conformal.deformed_spectrum.errors": "count",
    "torus_dirac.mode_set.s": "s",
    "torus_dirac.flat_matrix.bytes": "B",
    "experiments.genericity_scan.trial_failures": "count",
    "experiments.split_search.candidates": "count",
    "experiments.split_search.verify_solves": "count",
    "experiments.split_search.verify_yield": "ratio",
    **{f"module.{m}.self_s": "s" for m in MODULES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}


def layer_metric_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(DERIVED_UNITS)
    return units


def layer_metrics(spans, traced_wall, untraced_wall, eigh_s_blas1):
    """Per-layer metrics of one traced run, as {name: value}.

    ``traced_wall`` and ``untraced_wall`` are the timed-region wall times of
    the traced run and of the untraced runs of the same work; their
    difference is the tracing overhead.  ``trace.unaccounted_s`` is the part
    of the traced wall time that no span covers.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
    values = {}
    for name in SPAN_NAMES:
        idx = by_name[name]
        values[f"{name}.s"] = sum(spans[i].end - spans[i].start for i in idx)
        values[f"{name}.self_s"] = sum(selfs[i] for i in idx)
        values[f"{name}.calls"] = len(idx)

    eighs = [spans[i] for i in by_name["eigensolver.eigh"] if spans[i].error is None]
    values["eigensolver.eigh.dim_max"] = max((s.attrs["dim"] for s in eighs), default=0)
    values["eigensolver.eigh.flops"] = sum(
        EIGH_FLOP_CONSTANTS[(s.attrs["vectors"], s.attrs["generalized"])] * s.attrs["dim"] ** 3
        for s in eighs
    )
    computed = sum(s.attrs["computed"] for s in eighs)
    values["eigensolver.eigh.eigenvalues_computed"] = computed
    values["eigensolver.eigh.s_blas1"] = eigh_s_blas1
    discarded = 0
    for i in by_name["eigensolver.eigh"]:
        owner = _nearest(spans, i, "conformal.deformed_spectrum")
        if (
            spans[i].attrs.get("vectors")
            and owner is not None
            and spans[owner].attrs.get("keep_vectors") is False
        ):
            discarded += 1
    values["eigensolver.vectors_discarded_ratio"] = _ratio(
        discarded, len(by_name["eigensolver.eigh"])
    )
    trusted = 0
    for i in by_name["conformal.deformed_spectrum"]:
        a = spans[i].attrs
        if spans[i].error is None:
            radius = trust_radius(a["N"], a["t"], a["_factor"])
            trusted += int(np.sum(np.abs(a["_eigenvalues"]) < radius))
    values["eigensolver.trusted_eig_ratio"] = _ratio(trusted, computed)

    dims_b = [spans[i].attrs["dim"] for i in by_name["conformal.assemble_B"] if "dim" in spans[i].attrs]
    values["conformal.assemble_B.bytes"] = 16 * max(dims_b, default=0) ** 2
    exps = [spans[i].attrs for i in by_name["conformal.exp_coeffs"] if spans[i].error is None]
    values["conformal.exp_coeffs.band_used_max"] = max((a["band_used"] for a in exps), default=0)
    values["conformal.exp_coeffs.recon_error_max"] = max(
        (a["recon_error"] for a in exps), default=0.0
    )
    values["conformal.deformed_spectrum.errors"] = sum(
        1 for i in by_name["conformal.deformed_spectrum"] if spans[i].error is not None
    )
    values["torus_dirac.mode_set.s"] = sum(
        values[f"{n}.s"]
        for n in (
            "torus_dirac.build_mode_set",
            "torus_dirac.ModeSet.flat_matrix",
            "torus_dirac.ModeSet.mode_diffs",
        )
    )
    dims_a = [
        spans[i].attrs["dim"] for i in by_name["torus_dirac.ModeSet.flat_matrix"]
        if "dim" in spans[i].attrs
    ]
    values["torus_dirac.flat_matrix.bytes"] = 16 * max(dims_a, default=0) ** 2

    values["experiments.genericity_scan.trial_failures"] = sum(
        spans[i].attrs.get("trial_failures", 0) for i in by_name["experiments.genericity_scan"]
    )
    searches = set(by_name["experiments.split_search"])
    candidates = sum(
        1 for i in by_name["perturbation.perturbation_matrix"]
        if _nearest(spans, i, "experiments.split_search") in searches
    )
    verify = sum(
        1 for i in by_name["conformal.deformed_spectrum"]
        if _nearest(spans, i, "experiments.split_search") in searches
    )
    certificates = sum(1 for i in searches if spans[i].error is None)
    values["experiments.split_search.candidates"] = candidates
    values["experiments.split_search.verify_solves"] = verify
    values["experiments.split_search.verify_yield"] = _ratio(certificates, verify)

    for module in MODULES:
        values[f"module.{module}.self_s"] = sum(
            selfs[i] for i, s in enumerate(spans) if s.name.split(".", 1)[0] == module
        )
    self_sum = float(sum(selfs))
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.self_sum_s"] = self_sum
    values["trace.unaccounted_s"] = traced_wall - self_sum
    values["trace.spans"] = len(spans)
    return values

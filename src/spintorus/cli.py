"""Command line interface: spectra, rates, splitting searches, validation.

Exit codes: 0 success, 1 internal failure (a solver failure is reported as
one ``error:`` line) or failed validation suite, 2 positive-definiteness
failure of the deformation weight or a weight e^{tf} that is not
representable, 3 invalid input (usage error, bad config, malformed or
non-finite factor, one whose deformed volume overflows, a factor JSON that
is not an object or has a degree or mode that is not an integer, a negative
seed, out-of-range cluster index, a cluster lambda off the flat spectrum or
a cluster past the truncation radius N - 1/2, violated precondition, a
truncation whose dense solve, a factor or degree whose sampling grids, a
``genericity --trials`` whose report or an ``oracle --lambda-max`` whose
lattice enumeration would not fit in physical memory (``memory``), a factor
whose bound on |t| ||fhat||_1 is past the weight at which its sampling grids
can be sized, a ``perturb`` t grid at which the factor moves the cluster out
of its midpoint window, an unreadable input file or an unwritable
``--out``), reported as one ``error:`` line.

Each subcommand takes only the flags it reads (``COMMANDS``); any other flag
is a usage error.  Configuration can come from flags or a single JSON config
file (``--config``, accepted by every subcommand; it may hold keys that only
other subcommands read); explicit flags override file entries.  JSON
artifacts are written with sorted keys so identical configurations produce
byte-identical output, at the same BLAS thread count.  OpenBLAS splits its
work by thread, so eigenvalues move in their last bits with
``OPENBLAS_NUM_THREADS``.  Genericity artifacts do not depend on the thread
count: every trial runs in a worker process pinned to one OpenBLAS thread
(``experiments.run_trials``), so they equal the output of a run under
``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import eigensolver, memory, validate
from .artifact import to_json
from .conformal import (
    EXP_WEIGHT_MAX,
    ConformalFactor,
    # Not called here: the t grid solves through tracked_spectrum.  The
    # benchmark's tracer self-test checks that it rebinds this by-name import.
    deformed_spectrum,  # noqa: F401
    json_int,
    tracked_spectrum,
    trusted_spectrum,
)
from .errors import ClusterNotIsolatedError, PositiveDefiniteError, SplitSearchError
from .experiments import genericity_scan, random_factor, simplicity_certificate, split_search
from .perturbation import extract_cluster, fd_check, perturbation_matrix
from .torus_dirac import (
    TORUS_DIM,
    SpinStructure,
    build_mode_set,
    closed_form_spectrum,
    mode_set_dim,
    spectrum_csv_rows,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NOT_PD = 2
EXIT_BAD_INPUT = 3


#: The t at which split-search verifies a split when no t is given.
DEFAULT_T_VERIFY = 0.05


class ConfigError(ValueError):
    pass


def largest_fit(value, estimate):
    """The largest integer below ``value`` whose ``estimate`` fits in physical
    memory, by bisection (the estimate grows with its argument); 0 where
    none from 1 up does."""
    available = memory.physical_memory()
    fits, too_large = 0, math.ceil(value)
    while too_large - fits > 1:
        mid = (fits + too_large) // 2
        fits, too_large = (mid, too_large) if estimate(mid) <= available else (fits, mid)
    return fits


def require_memory(name, value, estimate, what):
    """Reject ``name=value`` when its estimated peak of ``estimate(value)`` bytes
    exceeds physical memory, naming the largest integer value that fits (the
    estimate grows with the value)."""
    available = memory.physical_memory()
    need = estimate(value)
    if need > available:
        fits = largest_fit(value, estimate)
        hint = f"use {name} <= {fits}" if fits else f"no {name} fits"
        raise ConfigError(
            f"{name}={value} needs about {need / 2**30:.1f} GiB {what}, more than "
            f"the {available / 2**30:.1f} GiB of physical memory; {hint}"
        )


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    delta: tuple[int, int, int] = (0, 0, 0)
    N: int = 3
    t: float | None = None  # unset: 0, or DEFAULT_T_VERIFY for split-search
    t_grid: list[float] | None = None
    factor_kind: str = "zero"  # zero|const|cos|file|json|random
    factor_arg: object = None
    seed: int = 2024
    trials: int = 50
    degree: int = 2
    amplitude: float = 0.3
    m_clusters: int = 3
    k: int = 3
    cluster_index: int | None = None
    cluster_lambda: float | None = None
    max_degree: int = 2
    lambda_max: float = 2.5
    tau_degenerate: float = eigensolver.TAU_REL_DEGENERATE
    tau_split: float = eigensolver.TAU_REL_SPLIT
    out: str | None = None
    format: str = "json"

    def validate(self, command):
        if not (1 <= self.N <= 8):
            raise ConfigError(f"N must lie in [1, 8], got {self.N}")
        if any(d not in (0, 1) for d in self.delta) or len(self.delta) != 3:
            raise ConfigError(f"delta must lie in {{0,1}}^3, got {self.delta}")
        if not all(np.isfinite(x) and x > 0 for x in (self.tau_degenerate, self.tau_split)):
            raise ConfigError("cluster tolerances must be positive and finite")
        if not np.isfinite(self.t):
            raise ConfigError("t must be finite")
        if not np.isfinite(self.amplitude):
            raise ConfigError("amplitude must be finite")
        if self.t_grid is not None and len(self.t_grid) < 2:  # for curves and finite differences
            raise ConfigError(f"a t grid needs at least two values, got {len(self.t_grid)}")
        if any(not np.isfinite(t) for t in self.t_grid or []):
            raise ConfigError("t grid entries must be finite")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.out:
            folder = os.path.dirname(self.out) or "."
            if not os.path.isdir(folder):
                raise ConfigError(f"output directory does not exist: {folder}")
            if os.path.isdir(self.out):
                raise ConfigError(f"output path is a directory: {self.out}")
        if command == "split-search" and self.t == 0:
            raise ConfigError(
                f"split-search verifies its split at t, so t must be nonzero "
                f"(without --t it is {DEFAULT_T_VERIFY})"
            )
        flags = COMMANDS[command][1].split()
        if "seed" in flags and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if "N" in flags:
            require_memory("N", self.N, lambda n: memory.dense_memory_estimate(n, self.delta),
                           "for its dense solve")
        if "trials" in flags:
            dim = mode_set_dim(self.N, self.delta)
            require_memory("trials", self.trials, lambda n: memory.genericity_memory_estimate(
                n, self.m_clusters, dim), "for its report")
        if "degree" in flags:
            self.require_degree("degree", self.degree, memory.random_l1_bound(self.amplitude))
        if "max-degree" in flags:
            # split-search tries random mixes of amplitude 1 and unit cosines
            self.require_degree("max-degree", self.max_degree, memory.random_l1_bound(1.0))
        # closed_form_spectrum rejects a lambda_max that is not finite
        if "lambda-max" in flags and math.isfinite(self.lambda_max):
            require_memory("lambda-max", self.lambda_max, memory.lattice_memory_estimate,
                           "to enumerate its lattice")
        return self

    def require_degree(self, name, degree, l1_bound=lambda d: 0.0):
        """Reject a factor degree whose sampling grids would not fit in physical
        memory (see ``memory.exp_grid_memory_estimate``), or whose bound on
        |t| ||fhat||_1 is past the weight at which they can be sized.
        ``l1_bound(d)`` bounds ||fhat||_1 of the factor at degree d; the default
        0 sizes the smallest grids a factor of that degree needs."""
        t_max = max([abs(self.t)] + [abs(t) for t in self.t_grid or []])

        def estimate(d):
            weight = t_max * l1_bound(d)
            # a factor with a non-finite amplitude is rejected when it is built
            weight = weight if math.isfinite(weight) else 0.0
            need = memory.exp_grid_memory_estimate(self.N, d, weight)
            # grids past EXP_WEIGHT_MAX (inf) fit nowhere; where even the
            # smallest grids of degree d do not fit, those name the need
            smallest = memory.exp_grid_memory_estimate(self.N, d)
            return smallest if need == math.inf and smallest > memory.physical_memory() else need

        if estimate(degree) == math.inf:
            fits = largest_fit(degree, estimate)
            hint = f"; use {name} <= {fits}" if fits else ""
            raise ConfigError(
                f"{name}={degree}: the factor's weight |t| ||fhat||_1 <= "
                f"{t_max * l1_bound(degree):.3g} exceeds EXP_WEIGHT_MAX / n = "
                f"{EXP_WEIGHT_MAX / TORUS_DIM:.3g}, past which the sampling grids of its "
                "deformed volume e^{ntf} cannot be sized" + hint
            )
        require_memory(name, degree, estimate, "for its sampling grids")

    def spin_structure(self):
        return SpinStructure(tuple(self.delta))

    def build_factor(self):
        kind, arg = self.factor_kind, self.factor_arg
        if kind == "zero":
            return ConformalFactor.zero()
        if kind == "const":
            return ConformalFactor.constant(float(arg))
        if kind == "cos":
            parts = [p for p in str(arg).split(",") if p]
            if len(parts) not in (3, 4):
                raise ConfigError("--f-cos expects m1,m2,m3[,amplitude]")
            m = tuple(int(p) for p in parts[:3])
            amp = float(parts[3]) if len(parts) == 4 else 1.0
            self.require_degree("degree", max(abs(x) for x in m), lambda d: abs(amp))
            return ConformalFactor.cosine(m, amp)
        if kind == "json":
            return _read_json(
                "inline factor", lambda doc: self._json_factor(doc, "inline"), text=arg
            )
        if kind == "file":
            return _read_json(
                "factor file", lambda doc: self._json_factor(doc, f"file:{arg}"), path=arg
            )
        if kind == "random":
            parts = [p for p in str(arg).split(",") if p]
            if len(parts) != 3:
                raise ConfigError("--f-random expects seed,degree,amplitude")
            seed, degree, amp = int(parts[0]), int(parts[1]), float(parts[2])
            if seed < 0:
                raise ConfigError(f"--f-random seed must be >= 0, got {seed}")
            self.require_degree("degree", degree, memory.random_l1_bound(amp))
            return random_factor(seed, degree, amp, label=f"random:{seed}:d={degree},a={amp!r}")
        raise ConfigError(f"unknown factor kind {kind!r}")

    def _json_factor(self, doc, label):
        """The factor of a JSON document, its degree checked before it is built
        and its e^{tf} grid once its coefficients are known."""
        if isinstance(doc, dict) and "degree" in doc:
            self.require_degree("degree", json_int(doc["degree"], "degree"))
        factor = ConformalFactor.from_json_dict(doc, label=label)
        self.require_degree("degree", factor.degree, lambda d: factor.l1_norm())
        return factor


def _read_json(noun, build, path=None, text=None):
    """build(doc) for the JSON document in the file at ``path``, or in ``text``;
    a failure to read, parse or build it is a ConfigError that names ``noun``."""
    try:
        if path is None:
            doc = json.loads(text)
        else:
            with open(path) as fh:
                doc = json.load(fh)
        return build(doc)
    except OSError as exc:
        raise ConfigError(f"cannot read {noun} {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{noun} is not valid JSON: {exc}") from exc
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: a huge int coefficient
        raise ConfigError(f"{noun} has a malformed schema: {exc}") from exc


def _write_text(path, text):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def dump_json(doc, path=None):
    """The JSON text of ``doc``, written to ``path`` when given; ValueError
    when ``doc`` holds a NaN or an infinity, which JSON cannot encode."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        _write_text(path, text)
    return text


def dump_csv(rows, path):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _write_text(path, buf.getvalue())


def _write_artifact(cfg, json_doc, csv_rows=None):
    """Write the artifact to ``--out`` in its ``--format``: ``json_doc()``
    or, where the command has a CSV form, ``csv_rows()``.  Only the encoding
    written is built, and none without ``--out``."""
    if cfg.out is None:
        return
    if cfg.format == "json" or csv_rows is None:
        dump_json(json_doc(), cfg.out)
    else:
        dump_csv(csv_rows(), cfg.out)


# ----------------------------------------------------------------- parsing


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are invalid input (exit 3).

    Every flag takes one value and no flag looks like a number, so a token
    that starts like a negative number (-1e-2, -0.01,0,0.01, -inf) is a
    value.  argparse tests tokens with ``_negative_number_matcher``, whose
    own pattern admits only plain numbers such as -0.05.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ConfigError(message)


#: Flag name -> argparse keywords.  ``--config`` goes on every subcommand.
FLAGS = {
    "config": dict(help="JSON config file; flags override it"),
    "delta": dict(help="spin structure as a,b,c (entries 0 or 1)"),
    "N": dict(type=int, help="truncation order (1..8)"),
    "t": dict(type=float, help="deformation parameter"),
    "t-grid": dict(help="comma separated t values"),
    "seed": dict(type=int, help="random seed"),
    "tau-degenerate": dict(type=float), "tau-split": dict(type=float),
    "out": dict(help="artifact output path"),
    "format": dict(choices=("json", "csv"), help="artifact format"),
    "f-const": dict(type=float, help="constant factor"),
    "f-cos": dict(help="cosine factor m1,m2,m3[,amp]"),
    "f-file": dict(help="factor JSON file"),
    "f-json": dict(help="inline factor JSON"),
    "f-random": dict(help="random factor seed,degree,amp"),
    "lambda-max": dict(type=float),
    "cluster-index": dict(type=int), "cluster-lambda": dict(type=float),
    "max-degree": dict(type=int),
    "trials": dict(type=int), "degree": dict(type=int), "amplitude": dict(type=float),
    "m-clusters": dict(type=int),
    "k": dict(type=int),
}
FACTOR = "f-const f-cos f-file f-json f-random"  # mutually exclusive
TAU = "tau-degenerate tau-split"
CLUSTER = "cluster-index cluster-lambda"

#: Subcommand -> (help, the flags it reads).  A parser takes only these, so a
#: flag its command would ignore is a usage error.
COMMANDS = {
    "spectrum": ("deformed (or flat) spectrum", f"delta N t t-grid {TAU} out format {FACTOR}"),
    "oracle": ("closed-form flat spectrum table", "delta lambda-max out format"),
    "perturb": ("first-order cluster rates + fd check", f"delta N t-grid out {FACTOR} {CLUSTER}"),
    "split-search": ("search for a splitting factor", f"delta N t seed out {CLUSTER} max-degree"),
    "genericity": (
        "random-deformation multiplicity scan",
        f"delta N t seed {TAU} out format trials degree amplitude m-clusters",
    ),
    "simplicity": ("first-k distinctness certificate", f"delta N t {TAU} out {FACTOR} k"),
    "validate": ("run the cross-module invariant suite", "seed out"),
}


def build_parser():
    parser = _Parser(
        prog="spintorus",
        description="Dirac spectra of flat spin 3-tori under conformal deformation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        factor = p.add_mutually_exclusive_group()
        for name in ["config", *names.split()]:
            (factor if name.startswith("f-") else p).add_argument("--" + name, **FLAGS[name])
    return parser


def _config_value(key, kind, val):
    """Config-file ``val`` checked against the annotated RunConfig type ``kind``."""
    kind, optional = kind.removesuffix(" | None"), kind.endswith(" | None")

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    def is_number(v):
        return isinstance(v, float) or is_int(v)

    if kind == "object" or (val is None and optional):
        return val
    if kind == "int" and is_int(val):
        return val
    if kind == "float" and is_number(val):
        return float(val)
    if kind == "str" and isinstance(val, str):
        return val
    if isinstance(val, list):
        if kind == "list[float]" and all(is_number(v) for v in val):
            return [float(v) for v in val]
        if kind == "tuple[int, int, int]" and all(is_int(v) for v in val):
            return tuple(val)
    raise ConfigError(f"config key {key!r} must be {kind}, got {val!r}")


#: Flags whose text needs parsing; argparse converts the others already.
FLAG_PARSERS = {
    "delta": lambda text: SpinStructure.parse(text).delta,
    "t_grid": lambda text: [float(p) for p in str(text).split(",") if p],
}


def load_config(args):
    base = {}
    if getattr(args, "config", None):
        base = _read_json("config file", lambda doc: doc, path=args.config)
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(RunConfig)}
    for key, val in base.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _config_value(key, types[key], val))

    for name in types:
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, FLAG_PARSERS.get(name, lambda v: v)(val))
    for kind in ("const", "cos", "file", "json", "random"):
        val = getattr(args, f"f_{kind}", None)
        if val is not None:
            cfg.factor_kind = kind
            cfg.factor_arg = val
    if cfg.t is None:
        cfg.t = DEFAULT_T_VERIFY if args.command == "split-search" else 0.0
    return cfg.validate(args.command)


# ------------------------------------------------------------- subcommands


def cmd_spectrum(cfg):
    """Deformed spectrum at one t, or eigenvalue curves over a t grid.

    At one t only the trusted window |lambda| <= R = (N - 1/2) e^{-|t| sup|f|}
    is solved and reported (``conformal.trusted_spectrum``); beyond R the
    Galerkin eigenvalues are truncation artifacts.  A t grid tracks the
    curves of the flat clusters with |lambda| <= N - 1/2 on their index
    window, the same at every t (``conformal.tracked_spectrum``).
    """
    ms = build_mode_set(cfg.N, cfg.spin_structure())
    factor = cfg.build_factor()

    if cfg.t_grid is not None:
        family = tracked_spectrum(factor, cfg.t_grid, ms, (cfg.tau_degenerate, cfg.tau_split))
        _write_artifact(cfg, family.to_json_dict, family.csv_rows)
        print(
            f"tracked {family.trajectories.shape[0]} trajectories over "
            f"{len(cfg.t_grid)} deformation steps"
            + (" (ambiguous matches present)" if family.ambiguous else "")
        )
        return EXIT_OK
    res = trusted_spectrum(factor, cfg.t, ms, (cfg.tau_degenerate, cfg.tau_split))
    _write_artifact(cfg, res.to_json_dict, lambda: spectrum_csv_rows(res.clusters))
    print(f"delta={cfg.spin_structure()} N={cfg.N} t={cfg.t} f={factor.describe()}")
    print(f"{'lambda':>14}  {'mult_C':>6}  {'mult_H':>6}")
    for c in res.clusters:
        print(f"{c.lam:>14.8f}  {c.mult_c:>6}  {c.mult_h:>6}")
    return EXIT_OK


def cmd_oracle(cfg):
    lines = closed_form_spectrum(cfg.spin_structure(), cfg.lambda_max)
    doc = {"delta": cfg.delta, "lambda_max": cfg.lambda_max, "lines": lines}
    _write_artifact(cfg, lambda: to_json(doc), lambda: spectrum_csv_rows(lines))
    print(f"{'lambda':>14}  {'mult_C':>6}  {'mult_H':>6}")
    for line in lines:
        print(f"{line.lam:>14.8f}  {line.mult_c:>6}  {line.mult_h:>6}")
    return EXIT_OK


def _select_cluster(cfg, command):
    if cfg.cluster_index is None and cfg.cluster_lambda is None:
        raise ConfigError(f"{command} needs --cluster-index or --cluster-lambda")
    ms = build_mode_set(cfg.N, cfg.spin_structure())
    cluster = extract_cluster(ms, lam=cfg.cluster_lambda, index=cfg.cluster_index)
    # lambda = sqrt(q) / 2 with a correctly rounded sqrt: exactly the test q > (2N - 1)^2.
    if abs(cluster.lam) > ms.N - 0.5:
        raise ConfigError(
            f"the flat cluster at {cluster.lam!r} lies past the truncation radius "
            f"N - 1/2 = {ms.N - 0.5}, which cuts its shell; it needs N >= "
            f"{math.ceil(abs(cluster.lam) + 0.5)}"
        )
    return cluster


def cmd_perturb(cfg):
    factor = cfg.build_factor()
    cluster = _select_cluster(cfg, "perturb")
    report = perturbation_matrix(cluster, factor)
    t_grid = sorted(cfg.t_grid or [1e-2, 1e-3], reverse=True)
    try:
        fd = fd_check(cluster, factor, report, t_grid)
    except ClusterNotIsolatedError as exc:
        raise ConfigError(f"the t grid {t_grid} is too coarse for this factor: {exc}") from exc
    _write_artifact(cfg, lambda: {**report.to_json_dict(), "fd": fd.to_json_dict()})
    print(f"cluster lambda={cluster.lam} p_C={cluster.p_c} p_H={cluster.p_h}")
    print("rates:", " ".join(f"{r:.6e}" for r in report.rates))
    print("quaternionic rates:", " ".join(f"{r:.6e}" for r in report.quaternionic_rates))
    print(f"min gap: {report.min_gap:.6e}")
    print(f"{'t':>10}  {'max mismatch':>14}")
    for t, m in zip(fd.t_values, fd.mismatches):
        print(f"{t:>10.2e}  {m:>14.6e}")
    print("observed order: n/a (kernel)" if fd.order is None else f"observed order: {fd.order:.3f}")
    return EXIT_OK


def cmd_split_search(cfg):
    cluster = _select_cluster(cfg, "split-search")
    cert = split_search(cluster, cfg.max_degree, t_verify=cfg.t, seed=cfg.seed)
    _write_artifact(cfg, cert.to_json_dict)
    print(
        f"split lambda={cert.lam} (p_H {cert.p_h_before} -> max {cert.max_p_h_after}) "
        f"with f = {cert.factor_label}; rate gap {cert.rate_gap:.4e}"
    )
    for lam, mc, mh in cert.post_clusters:
        print(f"  sub-cluster at {lam:.8f}: mult_C={mc} mult_H={mh}")
    return EXIT_OK


def cmd_genericity(cfg):
    report = genericity_scan(
        cfg.spin_structure(), cfg.trials, cfg.t, cfg.N, cfg.degree, cfg.amplitude, cfg.seed,
        m_clusters=cfg.m_clusters, tolerances=(cfg.tau_degenerate, cfg.tau_split),
    )
    _write_artifact(cfg, report.to_json_dict, report.csv_rows)
    frac = report.fraction_all_simple
    print(
        f"delta={cfg.spin_structure()} trials={report.trials} t={report.t} "
        f"degree={report.degree} amplitude={report.amplitude}"
    )
    if frac is not None:
        print(f"fraction with first {report.m_clusters} positive clusters simple: {frac:.3f}")
    for pattern, count in sorted(report.pattern_counts.items()):
        print(f"  mult_H pattern [{pattern}]: {count}")
    if report.n_failures:
        print(f"  failed trials: {report.n_failures}")
    return EXIT_OK


def cmd_simplicity(cfg):
    factor = cfg.build_factor()
    report = simplicity_certificate(
        cfg.spin_structure(), factor, cfg.t, cfg.k, cfg.N, (cfg.tau_degenerate, cfg.tau_split)
    )
    _write_artifact(cfg, report.to_json_dict)
    verdict = "passes" if report.passed else f"fails ({report.reason})"
    print(f"simplicity certificate k={report.k}: {verdict}")
    return EXIT_OK


def cmd_validate(cfg):
    checks = validate.run_all(seed=cfg.seed)
    all_passed = all(c["passed"] for c in checks)
    doc = {"checks": checks, "all_passed": all_passed}
    text = dump_json(doc, cfg.out)
    print(text, end="")
    return EXIT_OK if all_passed else EXIT_FAILURE


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        return {
            "spectrum": cmd_spectrum, "oracle": cmd_oracle, "perturb": cmd_perturb,
            "split-search": cmd_split_search, "genericity": cmd_genericity,
            "simplicity": cmd_simplicity, "validate": cmd_validate,
        }[args.command](cfg)
    except PositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PD
    except SplitSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for label, gap in exc.rate_table:
            print(f"  {label}: min rate gap {gap:.3e}", file=sys.stderr)
        return EXIT_FAILURE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

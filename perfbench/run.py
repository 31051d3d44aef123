"""Run one benchmark workload against the spintorus sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``): measures set-up time over several fresh
interpreters, then repeats the workload's commands through
``spintorus.cli.main`` as often as fits in ``--seconds`` (at least once) and
reports the median wall time and the peak RSS of this process.  Traced
(``--trace 1``): the same untraced repetitions, then one traced repetition
and a single-thread BLAS re-run of the large spectrum solve, reported as
per-layer metrics.  Every command's output is checked by the workload's
oracle gate after the timed region.  The last line of standard output is
the result as one JSON object; the full record, with the environment and
the spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("genericity", "large_spectrum", "cluster_study")
#: Fresh interpreters started to measure set-up time; the median is reported.
SETUP_SAMPLES = 3
#: Every run must end well inside three minutes; child processes get what is left.
RUN_DEADLINE_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env(**extra):
    """This process's environment with the checkout's ``src`` first on the import path."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(samples, deadline):
    """Median time from spawning a fresh interpreter to spintorus.cli imported.

    The child reports ``time.monotonic()`` once the import is done; the clock
    is system-wide, so the difference to the parent's spawn time excludes
    interpreter teardown.
    """
    code = "import spintorus.cli, sys, time; print(time.monotonic(), spintorus.cli.__file__)"
    times = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - t0), check=True,
        )
        ready, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported spintorus from {path}, not {SRC}")
        times.append(float(ready) - t0)
    return statistics.median(times), times


def run_op(cli, op):
    """Run one command in-process; returns (exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects an argv by exiting
        code = exc.code
    except Exception as exc:  # a crashing command is a failed operation, not a failed run
        error = "".join(traceback.format_exception_only(exc)).strip()
    return code, out.getvalue(), error or err.getvalue().strip()


def run_rep(cli, build, seed, workdir, tracer=None):
    """One repetition of the workload: (wall seconds, per-op results)."""
    workdir.mkdir(parents=True)
    ops = build(seed, workdir)
    results = []
    t0 = time.perf_counter()
    for run_id, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = run_id
        results.append((op, *run_op(cli, op)))
    return time.perf_counter() - t0, results


def gate_reps(reps):
    """Check every op of every repetition: (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    for k, (_, results) in enumerate(reps):
        for op, code, stdout, error in results:
            attempted += op.weight
            if code != 0:
                failed += op.weight
                problems.append(f"rep {k} {op.argv[0]}: exit {code}: {error}")
                continue
            try:
                bad, found = op.gate(stdout)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                bad, found = op.weight, [f"unreadable output: {exc!r}"]
            failed += min(bad, op.weight)
            problems += [f"rep {k} {op.argv[0]}: {p}" for p in found]
    return attempted, failed, problems


def blas1_eigh_seconds(seed, workdir, deadline):
    """eigh time of the large spectrum solve in a child with one BLAS thread."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.blas1", "--seed", str(seed), "--workdir", str(workdir)],
        env=child_env(OPENBLAS_NUM_THREADS="1"), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["eigh_s"]


def environment():
    """Versions, BLAS builds, CPU and thread settings, read from this process only."""
    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None):
    args = parse_args(argv)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    if not (SRC / "spintorus" / "cli.py").is_file():
        print(f"error: no spintorus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        return measure(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, deadline):
    setup_s, setup_samples = (
        measure_setup(SETUP_SAMPLES, deadline) if not args.trace else (None, [])
    )

    import spintorus
    from spintorus import cli

    if not Path(spintorus.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported spintorus from {spintorus.__file__}, not {SRC}")
    from perfbench import tracer as tracing
    from perfbench.workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    reps = []
    measured = 0.0
    # Repeat while one more repetition of average length still fits in the
    # budget, so a run never measures much more than --seconds.
    while not reps or measured * (len(reps) + 1) / len(reps) <= args.seconds:
        reps.append(run_rep(cli, build, args.seed, workdir / f"rep{len(reps)}"))
        measured += reps[-1][0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(w for w, _ in reps)

    spans = []
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_rep(cli, build, args.seed, workdir / "traced", tracer)
        reps.append(traced)
        spans = tracer.spans
        values = tracing.layer_metrics(
            spans, traced[0], wall_s, blas1_eigh_seconds(args.seed, workdir / "blas1", deadline)
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in tracing.layer_metric_units().items()
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    attempted, failed, problems = gate_reps(reps)
    env = environment()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": [
            {"wall_s": w, "commands": [list(op.argv) for op, *_ in results]}
            for w, results in reps
        ],
        "setup_samples_s": setup_samples,
        "problems": problems,
        "environment": env,
        "result": result,
        "spans": [s.to_json_dict() for s in spans],
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetition(s), "
          f"attempted {attempted}, failed {failed}; record in {out_path.relative_to(ROOT)}")
    for problem in problems[:20]:
        print(f"  gate: {problem}")
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:<18} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ops_ratio':<18} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

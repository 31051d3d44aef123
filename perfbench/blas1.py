"""Single-thread baseline: time the eigh of the large spectrum solve in this process.

Started by ``perfbench/run.py --trace 1`` as
``python3 -m perfbench.blas1 --seed N --workdir DIR`` with
``OPENBLAS_NUM_THREADS=1`` in the environment and ``src`` on ``PYTHONPATH``.
Prints ``{"eigh_s": ...}`` as its last line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spintorus import cli

from perfbench.tracer import Tracer
from perfbench.workloads import large_spectrum


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    (op,) = large_spectrum(args.seed, args.workdir)
    tracer = Tracer()
    with tracer.installed():
        code = cli.main(list(op.argv))
    if code != 0:
        print(f"error: large spectrum command exited with {code}", file=sys.stderr)
        return 1
    eigh_s = sum(s.end - s.start for s in tracer.spans if s.name == "eigensolver.eigh")
    print(json.dumps({"eigh_s": eigh_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

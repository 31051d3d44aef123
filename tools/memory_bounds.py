"""Check the peak memory of the dense N=5 solves against their bounds.

Usage, from anywhere:

    python3 tools/memory_bounds.py

Runs two ``spectrum`` commands at N=5 in child processes and compares each
one's peak RSS, less this process's RSS after importing the package (the
import baseline), with the size of one dense complex dim x dim matrix.
Prints one line per command and exits 1 when a bound fails.  The package is
read from the ``src`` directory next to this script.

- The N=5 trusted solve runs twice in one child, as the benchmark repeats
  it, and must stay below 1.3 dense matrices above the baseline: 1.17
  measured on a 2-vCPU Haswell VM, against 1.49 when C was written whole
  (and its upper half resident) and 1.75 when the gather, the reduction and
  the residual gate made n x n or vectors-sized temporaries, whose freed
  heap blocks stay resident into the next solve.
- The N=5 spectrum --t-grid must stay below 2.3: 1.91 measured, against
  2.81 when C was written whole and the phases and the residual gate made
  vectors-sized copies.

The smaller run goes first: RUSAGE_CHILDREN keeps the largest peak.  (The
N=4 spectrum --t-grid bound, peak minus import baseline within the memory
guard's estimate, is the tier-1 test
``TestMemoryGuard::test_estimate_covers_the_measured_peak[spectrum]``.)
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
_PATH = os.environ.get("PYTHONPATH")
ENV = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + _PATH if _PATH else ""))

from spintorus import memory  # noqa: E402

SPECTRUM = ["spectrum", "--delta", "1,0,0", "--f-random", "11,2,0.3"]
TWICE = "import sys; from spintorus.cli import main; a = sys.argv[1:]; sys.exit(main(a) or main(a))"


def peak_above(base, argv):
    """Largest peak RSS of a child so far, less ``base``, after running argv."""
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, env=ENV)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 - base


def main():
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    dense = memory.dense_matrix_bytes(5, (1, 0, 0))
    ok = True
    for name, argv, bound in (
        ("--t twice", [sys.executable, "-c", TWICE, *SPECTRUM, "--N", "5", "--t", "0.05"], 1.3),
        ("--t-grid", [sys.executable, "-m", "spintorus.cli", *SPECTRUM, "--N", "5",
                      "--t-grid", "0,0.05,0.1"], 2.3),
    ):
        above = peak_above(base, argv)
        print(f"N=5 spectrum {name}: {above / dense:.2f} dense matrices above the import baseline")
        ok &= above < bound * dense
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare the command-line output of the working tree with a parent revision.

Usage, from anywhere in the repository:

    python3 tools/byte_identity.py REV

Checks REV out with ``git worktree add --detach`` in a temporary directory,
then runs every command of ``byte_identity_commands.txt`` (next to this
script) in both trees, each as ``python3 -m spintorus.cli ...`` with
``PYTHONPATH=<tree>/src`` in a fresh empty directory.  It compares the exit
code, stdout, stderr and the bytes of every file the command wrote (its
``--out``), prints one line per command with the differences under it, and
removes the worktree.  Exits 1 when any command differs.  No outputs are
stored: both sides are run every time, since dense eigensolves can differ in
their last bits between BLAS builds.

Artifacts are byte-identical only at the same BLAS thread count, and every
command runs with ``OPENBLAS_NUM_THREADS=1`` unless the caller's environment
sets it.  Each CLI process otherwise runs two OpenBLAS pools (numpy's and
scipy's) with a thread per core, whose idle threads keep spinning after each
call; run beside the test suite, such processes slowed its timed genericity
criterion past its bound.
"""

import difflib
import os
import shlex
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "byte_identity_commands.txt"
TIMEOUT_S = 900
MAX_DIFF_LINES = 20


def read_commands():
    lines = (line.strip() for line in COMMANDS.read_text().splitlines())
    return [shlex.split(line) for line in lines if line and not line.startswith("#")]


def run(tree, argv, workdir):
    """Exit code, stdout, stderr and written files of one command in one tree."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    proc = subprocess.run(
        [sys.executable, "-m", "spintorus.cli", *argv],
        cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S,
    )

    def text(raw):
        return raw.decode(errors="replace").replace(str(tree), "<tree>")

    files = {
        str(p.relative_to(workdir)): p.read_bytes()
        for p in sorted(workdir.rglob("*")) if p.is_file()
    }
    return {
        "exit code": proc.returncode,
        "stdout": text(proc.stdout),
        "stderr": text(proc.stderr),
        "files": files,
    }


def text_diff(a, b, name):
    lines = list(difflib.unified_diff(
        a.splitlines(), b.splitlines(), f"parent/{name}", f"tree/{name}", lineterm="", n=0,
    ))
    more = len(lines) - MAX_DIFF_LINES
    return lines[:MAX_DIFF_LINES] + ([f"... {more} more diff lines"] if more > 0 else [])


def differences(old, new):
    out = []
    if old["exit code"] != new["exit code"]:
        out.append(f"exit code: {old['exit code']} -> {new['exit code']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            out += text_diff(old[stream], new[stream], stream)
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            out.append(f"{name}: written only by {'tree' if a is None else 'parent'}")
        elif a != b:
            try:
                out += text_diff(a.decode(), b.decode(), name)
            except UnicodeDecodeError:
                out.append(f"{name}: bytes differ")
    return out


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    root = Path(subprocess.check_output(
        ["git", "rev-parse", "--show-toplevel"], cwd=HERE, text=True,
    ).strip())
    rev = subprocess.check_output(["git", "rev-parse", "--verify", argv[0] + "^{commit}"],
                                  cwd=root, text=True).strip()
    commands = read_commands()
    n_diff = 0
    # a terminated run still removes its worktree (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", "-q", str(parent), rev],
                       cwd=root, check=True)
        try:
            print(f"parent {rev}, tree {root}: {len(commands)} commands")
            for i, cmd in enumerate(commands):
                old = run(parent, cmd, Path(tmp) / f"{i}-parent")
                new = run(root, cmd, Path(tmp) / f"{i}-tree")
                diff = differences(old, new)
                n_diff += bool(diff)
                status = "DIFF" if diff else "same"
                print(f"{status} [exit {new['exit code']}] spintorus {shlex.join(cmd)}")
                for line in diff:
                    print(f"    {line}")
                sys.stdout.flush()
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent)], cwd=root)
    print(f"{len(commands) - n_diff} identical, {n_diff} different")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""A fixed measure of this machine's speed, to read tier-1's wall time against.

    python3 tools/calibrate.py

The ``src/mubsic`` beside this tool is copied into a fresh temporary
directory, and three calls run from that copy as subprocesses, ``RUNS`` times
each, one at a time:

* ``python -c pass``;
* ``python -m mubsic mub verify --d 5``;
* ``python -m mubsic sic generate --builtin qutrit --out <tmp>``.

They run with ``PYTHONDONTWRITEBYTECODE=1`` and the program's default BLAS
threading and tolerance, as perfbench's children run in a fresh checkout:
mubsic is compiled from source on every call, and numpy keeps its installed
bytecode.  One JSON line is printed: the Python version, the runs per call,
and each call's median wall time in seconds.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mubsic"
RUNS = 7
# Each call's argv after the interpreter; {out} is a file in the copy's directory.
CALLS = {
    "python -c pass": ["-c", "pass"],
    "mub verify --d 5": ["-m", "mubsic", "mub", "verify", "--d", "5"],
    "sic generate --builtin qutrit": ["-m", "mubsic", "sic", "generate", "--builtin", "qutrit",
                                      "--out", "{out}"],
}
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MUBSIC_TOL")


def copy_package(root: pathlib.Path) -> pathlib.Path:
    """``root/mubsic``: a copy of the package's sources without bytecode."""
    return pathlib.Path(shutil.copytree(PACKAGE, root / "mubsic",
                                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc")))


def child_env(root: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(root)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def median_wall(argv: list[str], env: dict, cwd: pathlib.Path, runs: int) -> float:
    """The median wall time of ``runs`` runs of ``argv`` in ``cwd``; a run
    that fails is a RuntimeError."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return statistics.median(times)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        copy_package(root)
        env = child_env(root)
        out = str(root / "family.json")
        medians = {name: round(median_wall([sys.executable] + [a.format(out=out) for a in args],
                                           env, root, RUNS), 4)
                   for name, args in CALLS.items()}
    print(json.dumps({"python": platform.python_version(), "runs": RUNS, "median_s": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

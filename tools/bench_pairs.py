"""Parent/change comparisons of two mubsic checkouts, for the BENCH_*.json files.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_NAME.json \\
        --label NAME --describe TEXT --pairs frame-bridge=601-610 --pairs sic-hunt=611-615
    python3 tools/bench_pairs.py PARENT CHANGE --steps 19 [--out BENCH_NAME.json]

PARENT and CHANGE are checkout roots, each with its own ``src``, ``perfbench``
and ``BENCHMARK.json``.  Either both have bytecode for every module of
``src/mubsic`` (``python -m compileall``) or neither has; without it each
child compiles the package from source, as in a fresh checkout, and the heap
the compiler leaves behind moves peak RSS with the length of the source.

With ``--pairs WORKLOAD=SEEDS`` each seed runs ``perfbench/run.py --workload
WORKLOAD --seed SEED --trace 0`` once per side, back to back, the parent first
on even pairs and the change first on odd ones; each workload needs at least
two seeds.  ``--out`` gets the label, method, seeds and environment, and per
workload the failed and attempted calls and, for every end-to-end metric of
the parent's BENCHMARK.json, each side's runs, median and quartiles (numpy
linear percentiles), and the pairs the change won and lost by the metric's
own direction.  Runs from byte-compiled checkouts go under ``compiled``.

With ``--steps D`` the front end alone, ``--help`` and a usage error
(``mub verify`` without ``--d``, exit 2), then ``mub verify`` and ``plane
verify``, the frame chain ``frame from-mub → bridge → verify --lines →
quasiprob``, ``frame verify`` given the line file as points (which its reader
refuses), then ``frame from-hg``, ``sic generate`` of a seeded unit ket, ``sic
verify`` of the family it writes, and the two solvers, ``sic solve-prob`` and
``sic search`` at seed 0, run at D as ``python -m mubsic`` subprocesses,
``STEP_RUNS`` times per side, alternating.  Each step's median wall time and
wait4 ``ru_maxrss`` is printed, and, each on its own, whether both sides wrote
the same files, gave the same exit codes, and printed the same stdout and the
same stderr (SHA-256 digests), with the names of the files whose bytes differ.
``--out`` adds the table as ``frame_steps_d<D>``.

``--out`` adds its keys to the file if it exists.  Runs go one at a time, so
that the two sides see the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")
# This process imports no numpy and never holds a whole artifact: a child
# starts in this process's memory, and wait4's ru_maxrss of the child is at
# least this process's own peak RSS.
# Children run with the program's default BLAS threading and tolerance, as
# perfbench/run.py runs them.
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MUBSIC_TOL")
# Runs per side of the --steps table; its cells are the medians of these.
STEP_RUNS = 3


def side_order(i: int) -> tuple[str, ...]:
    """The parent runs first on even pairs, the change first on odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def commit(root: str) -> str:
    """The checkout's HEAD, or a note that ``root`` is an uncommitted tree."""
    probe = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    return probe.stdout.strip() if probe.returncode == 0 else "an uncommitted tree"


def compiled(root: str) -> bool:
    """Whether every module of the checkout's ``src/mubsic`` has current
    bytecode for this interpreter, so that no child compiles it."""
    pkg = os.path.join(root, "src", "mubsic")
    sources = [os.path.join(pkg, name) for name in os.listdir(pkg) if name.endswith(".py")]
    caches = [importlib.util.cache_from_source(src) for src in sources]
    return all(os.path.exists(pyc) and os.path.getmtime(pyc) >= os.path.getmtime(src)
               for src, pyc in zip(sources, caches))


def parse_pairs(text: str) -> tuple[str, list[int]]:
    """``frame-bridge=601-610`` as the workload and its seeds, at least two."""
    workload, _, seeds = text.partition("=")
    lo, _, hi = seeds.partition("-")
    try:
        span = list(range(int(lo), int(hi) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=FIRST-LAST, got {text!r}") from None
    if len(span) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} names fewer than two seeds")
    return workload, span


def merge_into(path: str, record: dict) -> None:
    """Write the JSON object in ``path`` (empty if there is none) with the
    keys of ``record`` added or replaced."""
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    with open(path, "w") as fh:
        json.dump({**old, **record}, fh, indent=1)
        fh.write("\n")


# --- perfbench pairs -----------------------------------------------------------


def bench_run(root: str, workload: str, seed: int) -> dict:
    """The final JSON line of one untraced perfbench run in checkout ``root``."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> list:
    """The 25th and 75th percentiles, as numpy's default linear method gives."""
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: dict, spec: dict) -> dict:
    metrics = {}
    for m in spec["end_to_end"]:
        parent, change = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in SIDES)
        sign = 1.0 if m["better"] == "lower" else -1.0
        metrics[m["name"]] = {
            "parent_median": statistics.median(parent),
            "parent_quartiles": quartiles(parent),
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "change_losses": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "bound": m["bound"],
            "parent_runs": parent,
            "change_runs": change,
        }
    return metrics


def run_pairs(roots: dict, plan: list, spec: dict) -> dict:
    workloads, pair = {}, 0
    for workload, seeds in plan:
        runs = {side: [] for side in SIDES}
        for seed in seeds:
            for side in side_order(pair):
                result = bench_run(roots[side], workload, seed)
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            pair += 1
        workloads[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            **{f"{side}_failed": sum(r["failed"] for r in runs[side]) for side in SIDES},
            **{f"{side}_attempted": sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "metrics": summarize(runs, spec),
        }
    return workloads


# --- per-step table ---------------------------------------------------------------


def step_chain(d: int) -> tuple[list, dict]:
    """The steps (name, argv with ``{w}`` for the work directory) and the
    input files at ``d``.  The first two steps run no handler: ``--help``
    exits 0 and ``mub verify`` without ``--d`` exits 2, so they time the
    front end alone.  ρ is 1/d times the identity.  The family's fiducial is
    a unit ket drawn from ``random.Random(d)``, no SIC fiducial, so ``sic
    generate`` exits 1 after writing the family, and so does ``sic
    verify`` reading it back; their exit codes, bytes and memory are compared
    like every other step's, and so are those of the solvers, whose results
    at seed 0 are deterministic."""
    rng = random.Random(d)
    ket = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
    norm = sum(abs(z) ** 2 for z in ket) ** 0.5
    mixed = [[1.0 / d if i == j else 0.0, 0.0] for i in range(d) for j in range(d)]
    inputs = {
        "rho.json": {"dim": d, "entries": mixed},
        "fid.json": {"d": d, "ket": [[z.real / norm, z.imag / norm] for z in ket]},
    }
    steps = [
        ("help", ["--help"]),
        ("usage", ["mub", "verify"]),
        ("mub-verify", ["mub", "verify", "--d", str(d)]),
        ("plane-verify", ["plane", "verify", "--d", str(d)]),
        ("from-mub", ["frame", "from-mub", "--d", str(d), "--out", "{w}/points.json"]),
        ("bridge", ["frame", "bridge", "--points", "{w}/points.json", "--out", "{w}/lines.json"]),
        ("verify", ["frame", "verify", "--points", "{w}/points.json",
                    "--lines", "{w}/lines.json"]),
        ("quasiprob", ["quasiprob", "--rho", "{w}/rho.json", "--points", "{w}/points.json",
                       "--out", "{w}/quasi.json"]),
        ("lines-as-points", ["frame", "verify", "--points", "{w}/lines.json"]),
        ("from-hg", ["frame", "from-hg", "--d", str(d), "--out", "{w}/hg.json"]),
        ("generate", ["sic", "generate", "--fiducial", "{w}/fid.json",
                      "--out", "{w}/family.json"]),
        ("sic-verify", ["sic", "verify", "--in", "{w}/family.json"]),
        ("solve-prob", ["sic", "solve-prob", "--d", str(d), "--seed", "0"]),
        ("search", ["sic", "search", "--d", str(d), "--seed", "0", "--out", "{w}/search.json"]),
    ]
    return steps, inputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    """The SHA-256 of the file at ``path``, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def timed_step(root: str, argv: list[str]) -> dict:
    """``python -m mubsic argv`` from checkout ``root``: exit code, wall
    seconds, wait4 peak RSS of that child, digests of its output."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mubsic", *argv],
                                env=child_env(root), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"rc": proc.returncode, "seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": sha256(out.read()), "stderr": sha256(err.read())}


# What the two sides of a --steps table are compared on, each on its own, so
# that a table tells which of them moved.
OUTPUTS = ("files", "exit_codes", "stdout", "stderr")


def output_digests(records: list, files: dict) -> dict:
    """One digest per OUTPUTS entry of a chain run: of every file's digest,
    and of every step's exit code, stdout digest and stderr digest."""
    parts = {"files": files, "exit_codes": [r["rc"] for r in records],
             "stdout": [r["stdout"] for r in records], "stderr": [r["stderr"] for r in records]}
    return {name: sha256(json.dumps(parts[name]).encode()) for name in OUTPUTS}


def chain_run(root: str, d: int) -> tuple[list, dict]:
    """One run of the chain in a fresh directory: each step's record, and
    the SHA-256 of each file it leaves, by name."""
    steps, inputs = step_chain(d)
    work = tempfile.mkdtemp(prefix="bench-steps-")
    try:
        for name, obj in inputs.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(json.dumps(obj) + "\n")
        records = [timed_step(root, [a.format(w=work) for a in argv]) for _, argv in steps]
        files = {name: file_sha256(os.path.join(work, name)) for name in sorted(os.listdir(work))}
    finally:
        shutil.rmtree(work)
    return records, files


def run_steps(roots: dict, d: int, bytecode: str) -> dict:
    names = [name for name, _ in step_chain(d)[0]]
    table = {name: {side: {"wall_s": [], "rss_mb": []} for side in SIDES} for name in names}
    outputs, file_runs = {name: set() for name in OUTPUTS}, []
    for i in range(STEP_RUNS):
        for side in side_order(i):
            records, files = chain_run(roots[side], d)
            file_runs.append(files)
            for name, digest in output_digests(records, files).items():
                outputs[name].add(digest)
            for name, rec in zip(names, records):
                table[name][side]["wall_s"].append(round(rec["seconds"], 4))
                table[name][side]["rss_mb"].append(round(rec["rss_mb"], 2))
    for name in names:
        for cell in table[name].values():
            cell["median_wall_s"] = statistics.median(cell["wall_s"])
            cell["median_rss_mb"] = statistics.median(cell["rss_mb"])
    return {
        "command": f"python3 -m mubsic, each step at d={d}: " + ", ".join(names),
        "note": (f"{STEP_RUNS} alternating runs per side (parent first on even runs); wall time "
                 "and wait4 ru_maxrss of each subprocess; rho is 1/d times the identity; the "
                 "family's fiducial is a seeded unit ket, so sic generate exits 1; the package "
                 f"ran {bytecode}."),
        **{f"same_{name}": len(digests) == 1 for name, digests in outputs.items()},
        "differing_files": sorted({name for files in file_runs for name in files
                                   if len({run.get(name) for run in file_runs}) > 1}),
        "steps": table,
    }


def environment() -> dict:
    probe = ("import json, platform, numpy; "
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
             "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__, "
             "'blas': blas.get('openblas configuration', blas.get('name'))}))")
    env = json.loads(subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                    text=True, check=True).stdout)
    return {"nproc": os.cpu_count(), **env}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout root of the parent commit")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--pairs", action="append", type=parse_pairs, default=[],
                        metavar="WORKLOAD=SEEDS", help="e.g. frame-bridge=601-610; repeatable")
    parser.add_argument("--steps", type=int, metavar="D", help="per-step table at dimension D")
    parser.add_argument("--out", help="BENCH_*.json to write, or to add a step table to")
    parser.add_argument("--label", default="")
    parser.add_argument("--describe", default="", help="what the change does")
    args = parser.parse_args()
    if bool(args.pairs) == (args.steps is not None):
        parser.error("give either --pairs or --steps")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    sides_compiled = {compiled(root) for root in roots.values()}
    if len(sides_compiled) != 1:
        parser.error("one checkout has bytecode for src/mubsic and the other has not")
    is_compiled = sides_compiled.pop()
    bytecode = ("from bytecode (python -m compileall)" if is_compiled
                else "compiled from source by every child")

    if args.steps is not None:
        result = run_steps(roots, args.steps, bytecode)
        for name, cells in result["steps"].items():
            print(f"{name:<12}" + "".join(
                f"  {side} {c['median_wall_s']:7.2f} s {c['median_rss_mb']:7.1f} MB"
                for side, c in cells.items()))
        same = [result[f"same_{name}"] for name in OUTPUTS]
        print("same on both sides: " + ", ".join(f"{n} {s}" for n, s in zip(OUTPUTS, same)))
        print("files that differ: " + (", ".join(result["differing_files"]) or "none"))
        if args.out:
            merge_into(args.out, {f"frame_steps_d{args.steps}": result})
        return 0 if all(same) else 1

    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = [s for _, workload_seeds in args.pairs for s in workload_seeds]
    plan = ", ".join(f"{w} {len(s)} pairs on seeds {s[0]}-{s[-1]}" for w, s in args.pairs)
    group = {
        "method": ("Each side ran from its own checkout (src, perfbench, BENCHMARK.json) by "
                   "tools/bench_pairs.py. For each seed the parent and the change ran the workload "
                   "back to back, the parent first on even pairs and the change first on odd pairs. "
                   "Values are the end-to-end metrics of the JSON line run.py prints; medians and "
                   "quartiles (numpy linear percentiles) are over the pairs, and change_wins "
                   "counts the pairs in which the change read better (change_losses worse). "
                   f"{plan}; one run at a time; the package ran {bytecode}."),
        "seeds": seeds,
        "workloads": run_pairs(roots, args.pairs, spec),
    }
    header = {
        "label": args.label,
        "change": args.describe,
        "command": f"{spec['command'][0]} {spec['command'][1]} --workload <name> "
                   "--seed <seed> --trace 0",
        "parent_commit": commit(roots["parent"]),
        "change_commit": commit(roots["change"]),
        "nproc": os.cpu_count(),
        "environment": environment(),
        "run_seconds": spec["run_seconds"],
    }
    if args.out:
        merge_into(args.out, {**header, "compiled": group} if is_compiled else {**header, **group})
    for workload, w in group["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:<13} {name:<15} {m['parent_median']:10.4g} -> "
                  f"{m['change_median']:10.4g}  wins {m['change_wins']}/{w['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

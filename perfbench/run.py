"""Benchmark of the mubsic CLI: three closed-loop workloads of CLI chains.

    python3 perfbench/run.py --workload sic-hunt --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the checkout root is the parent of this directory, and
the program runs from its ``src`` tree, so nothing needs installing.

With ``--trace 0`` every CLI step runs in a fresh ``python -m mubsic``
subprocess, one at a time, and the run reports the end-to-end metrics listed
in BENCHMARK.json.  With ``--trace 1`` the same steps run in this process
through ``mubsic.cli.run(argv)``, once plainly and once with spans around the
public functions of every module, and the run reports the per-layer metrics.
Either way the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file (and,
traced, a gzipped span file) is written under ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import tracing
import workloads
from verdicts import check_call, median, ratio, residuals

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(BENCH_DIR, "results")

# Children run with the program's default BLAS threading, as users run it, and
# the default verification tolerance: the caller's shell must not change what
# is measured.
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MUBSIC_TOL")

# A run ends within this many seconds; a pass that would overrun it is not
# started, and a call still running at the limit is killed.
RUN_LIMIT_S = 165.0
SETUP_PROBES_PER_PASS = 3
IMPORT_REPEATS = 3

SETUP_CODE = "import mubsic.cli as c; c.build_parser()"
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import mubsic.cli; "
    "print(time.perf_counter() - t)"
)
ENV_CODE = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": blas.get("openblas configuration", blas.get("name"))}))
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args: list[str], timeout: float, rundir: str) -> dict:
    """Run ``python <args>`` to completion: exit code, wall seconds, max RSS
    (from wait4, so only this child is counted), stdout and stderr."""
    out_path, err_path = os.path.join(rundir, "stdout"), os.path.join(rundir, "stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    return {"rc": proc.returncode, "seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": stdout, "stderr": stderr}


def run_inprocess(cli, argv: list[str], tracer=None) -> dict:
    """``cli.run(argv)`` with its output captured.  An exception escaping it is
    what the interpreter would print as a traceback, with exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        step = tracer.begin_step() if tracer else None
        start = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as exc:
            rc = exc
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(step)
    stderr = err.getvalue()
    if isinstance(rc, Exception):
        stderr += "".join(traceback.format_exception(rc))
        rc = 1
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(), "stderr": stderr}


def digests(work: str) -> dict:
    """SHA-256 and size of every artifact the pass wrote."""
    found = {}
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as fh:
            data = fh.read()
        found[name] = (hashlib.sha256(data).hexdigest(), len(data))
    return found


def run_pass(steps, inputs: str, rundir: str, call, after_step=None) -> dict:
    """One pass through the workload's steps in a fresh work directory.
    ``call(argv)`` runs one step and returns its record; ``after_step(i)``, if
    given, runs after step i outside the pass's time, which is the sum of
    its calls' times."""
    work = tempfile.mkdtemp(prefix="pass-", dir=rundir)
    calls = []
    for i, step in enumerate(steps):
        argv = step.resolve(inputs, work)
        rec = call(argv)
        rec["argv"] = " ".join(argv).replace(work, "{out}").replace(inputs, "{inp}")
        rec["problem"] = check_call(step, rec["rc"], rec["stdout"], rec["stderr"])
        rec["defect"] = step.defect
        rec["valid_input"] = step.expect_rc != 2
        rec["worst"] = max(residuals(rec["stdout"]), default=0.0) if rec["valid_input"] else 0.0
        calls.append(rec)
        if after_step is not None:
            after_step(i)
    files = digests(work)
    shutil.rmtree(work)
    return {"seconds": sum(c["seconds"] for c in calls), "calls": calls, "files": files}


def tally(passes: list[dict]) -> tuple[bool, int, int, list[str]]:
    """correct, attempted, failed, and one line per problem.

    A call fails when its exit code or output check does not meet the step's
    documented outcome; an artifact whose digest differs from the first pass's
    fails too.  ``correct`` is false when a call on valid input fails or an
    artifact differs: the program computed something wrong.  A malformed input
    that is not rejected cleanly counts as failed but leaves ``correct`` alone.
    """
    correct, attempted, failed, notes = True, 0, 0, []
    for i, p in enumerate(passes):
        for c in p["calls"]:
            attempted += 1
            if c["problem"]:
                failed += 1
                correct = correct and not c["valid_input"]
                known = f" [known defect: {c['defect']}]" if c["defect"] else ""
                notes.append(f"pass {i}: {c['argv']}: {c['problem']}{known}")
        for name in sorted(set(p["files"]) | set(passes[0]["files"])):
            if p["files"].get(name, (None,))[0] != passes[0]["files"].get(name, (None,))[0]:
                failed += 1
                correct = False
                notes.append(f"pass {i}: artifact {name} differs from pass 0")
    return correct, attempted, failed, notes


def keep_going(start: float, passes: list[dict], seconds: float, minimum: int) -> bool:
    """Whether to start another pass: until ``seconds`` have gone by and
    ``minimum`` passes are done, unless one more would pass the run limit."""
    elapsed = time.perf_counter() - start
    if passes and elapsed + passes[-1]["seconds"] > RUN_LIMIT_S:
        return False
    return len(passes) < minimum or elapsed < seconds


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
        "stripped_env": list(STRIPPED_ENV),
    }
    probe = subprocess.run([sys.executable, "-c", ENV_CODE], capture_output=True, text=True,
                           env=child_env(), timeout=60, check=True)
    env.update(json.loads(probe.stdout))
    return env


# --- the two kinds of run ------------------------------------------------------------


def untraced_run(steps, inputs, rundir, seconds, start) -> tuple[list, dict]:
    """Subprocess passes; returns the passes and the end-to-end metrics."""
    setup = []

    def probe_setup(i):
        # Set-up probes are spread over the run, a few per pass, so that their
        # median sees the same machine as the calls.
        if i % -(-len(steps) // SETUP_PROBES_PER_PASS) == 0:
            setup.append(run_child(["-c", SETUP_CODE], 60, rundir))

    def call(argv):
        return run_child(["-m", "mubsic", *argv], RUN_LIMIT_S - (time.perf_counter() - start), rundir)

    passes = []
    # Two passes at least, so that artifact digests can be compared.
    while keep_going(start, passes, seconds, minimum=2):
        passes.append(run_pass(steps, inputs, rundir, call, probe_setup))
    if any(s["rc"] != 0 for s in setup):
        raise RuntimeError(f"importing mubsic failed:\n{setup[0]['stderr']}")
    calls = [c for p in passes for c in p["calls"]]
    worst = max(c["worst"] for c in calls)
    per_step = zip(*(p["calls"] for p in passes))
    metrics = {
        "setup_s": median([s["seconds"] for s in setup]),
        "chain_s": median([p["seconds"] for p in passes]),
        "call_p50_s": median([c["seconds"] for c in calls]),
        "slowest_call_s": max(median([c["seconds"] for c in step]) for step in per_step),
        "peak_rss_mb": max(c["rss_mb"] for c in calls),
        "artifact_mb": median([sum(size for _, size in p["files"].values()) for p in passes]) / 1e6,
        "residual_log10": math.log10(worst) if worst > 0 else math.log10(5e-324),
    }
    return passes, metrics


def _scipy_optimize_import_s(importtime: str) -> float:
    """Cumulative import time of scipy.optimize from ``-X importtime`` output."""
    for line in importtime.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*scipy\.optimize\s*$", line)
        if m:
            return int(m.group(1)) / 1e6
    return 0.0


def traced_run(steps, inputs, rundir, seconds, start, spans_path) -> tuple[list, dict]:
    """In-process passes, alternately plain and traced; returns every pass and
    the per-layer metrics."""
    probes = [run_child(["-X", "importtime", "-c", IMPORT_CODE], 60, rundir)
              for _ in range(IMPORT_REPEATS)]
    if any(p["rc"] != 0 for p in probes):
        raise RuntimeError(f"importing mubsic failed:\n{probes[0]['stderr']}")
    import mubsic
    import mubsic.cli

    plain, traced, tracers, pairs = [], [], [], []
    while keep_going(start, pairs, seconds, minimum=1):
        plain.append(run_pass(steps, inputs, rundir, lambda argv: run_inprocess(mubsic.cli, argv)))
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer, mubsic):
            traced.append(run_pass(steps, inputs, rundir,
                                   lambda argv: run_inprocess(mubsic.cli, argv, tracer)))
        tracers.append(tracer)
        pairs.append({"seconds": plain[-1]["seconds"] + traced[-1]["seconds"]})

    metrics = tracing.median_metrics([t.metrics() for t in tracers])
    last = traced[-1]["calls"]
    plain_s = median([p["seconds"] for p in plain])
    metrics.update({
        "cli.import_s": median([float(p["stdout"]) for p in probes]),
        "cli.import_scipy_optimize_s": median([_scipy_optimize_import_s(p["stderr"]) for p in probes]),
        "cli.rejected_calls": sum(c["rc"] == 2 for c in last),
        "cli.traceback_calls": sum("Traceback" in c["stderr"] for c in last),
        "trace.inprocess_chain_s": plain_s,
        "trace.overhead_s": median([p["seconds"] for p in traced]) - plain_s,
    })
    tracing.write_spans(spans_path, tracers, {
        "steps": [c["argv"] for c in last],
        "layer_self_s": dict(tracing.layer_table(metrics)),
        "metrics": metrics,
    })
    return plain + traced, metrics


# --- entry point -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    start = time.perf_counter()
    env = environment()
    os.makedirs(RESULTS, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        inputs = os.path.join(rundir, "inputs")
        os.mkdir(inputs)
        steps = workloads.build(name, seed, inputs)
        if trace:
            spans_path = os.path.join(RESULTS, f"spans-{tag}.json.gz")
            passes, values = traced_run(steps, inputs, rundir, seconds, start, spans_path)
        else:
            passes, values = untraced_run(steps, inputs, rundir, seconds, start)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    correct, attempted, failed, notes = tally(passes)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "passes": len(passes), "fail_ratio": ratio(failed, attempted),
        "problems": notes, "result": result,
        "calls": [{k: c[k] for k in ("argv", "rc", "seconds", "problem")} for c in passes[0]["calls"]],
        "artifacts": passes[0]["files"],
    }
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"[{name}] env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']!r} loadavg={env['loadavg_at_start'][0]:.2f}")
    print(f"[{name}] {len(passes)} passes of {len(steps)} calls; "
          f"fail_ratio {ratio(failed, attempted):.4f} ratio ({failed}/{attempted})")
    for note in notes:
        print(f"[{name}] failed: {note}")
    if trace:
        for layer, own in tracing.layer_table(values):
            print(f"[{name}] self time {layer:<26} {own:10.4f} s")
    for metric, v in metrics.items():
        print(f"[{name}] {metric:<34} {v['value']:.6g} {v['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "mubsic", "cli.py")):
        print(f"error: no mubsic source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    env = child_env()
    if any(os.environ.get(k) != env.get(k) for k in (*STRIPPED_ENV, "PYTHONPATH")):
        # Re-run under the children's environment, so that the in-process
        # trace sees the same BLAS threading as the subprocess runs.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark harness: its arithmetic, its output parsing and
its instrumentation.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import re
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # 0 [0, 10] -> 1 [1, 4] -> 2 [2, 3];  0 -> 3 [5, 9]
    durations = [10.0, 3.0, 1.0, 4.0]
    parents = [-1, 0, 1, 0]
    assert verdicts.self_times(durations, parents) == [3.0, 2.0, 1.0, 4.0]


def test_median_and_quartile_spread():
    assert verdicts.median([3, 1, 2]) == 2.0
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # statistics.quantiles(n=4) gives 2.75, 5.5, 8.25 here.
    assert verdicts.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert verdicts.quartile_spread([-2.0, -2.0, -2.0]) == 0.0


def test_ratio_of_nothing_attempted_is_zero():
    assert verdicts.ratio(1, 4) == 0.25
    assert verdicts.ratio(0, 0) == 0.0


def test_residuals_skip_tolerances():
    out = (
        "point table deviation 1.2e-13 (beta=342)\n"
        "line table deviation 3e-12 (alpha=6840)\n"
        "point-line products deviation 4.5e-14 (traceless), 2.9e-15 (trace-one)\n"
        "max deviation 3e-12 (pass at 1e-10)\n"
        "max within-column spread 0\n"
        "p = (0.5, 0.25)  residual 1.5e-17\n"
    )
    assert verdicts.residuals(out) == [1.2e-13, 3e-12, 4.5e-14, 2.9e-15, 3e-12, 0.0, 1.5e-17]


def _step(**kw):
    return workloads.Step(argv=("x",), **kw)


@pytest.mark.parametrize(
    "step, rc, out, err, failing",
    [
        (_step(checks=("verdict",)), 0, "d=5 deviation 1e-15 (pass at 1e-10)\n", "", False),
        (_step(checks=("verdict",)), 1, "d=5 deviation 1e-3 (fail at 1e-10)\n", "", True),
        (_step(checks=("verdict",)), 0, "d=5 deviation 1e-9 (pass at 1e-8)\n", "", True),
        (_step(checks=("converged",)), 0, "objective 1e-20 after 2 restarts (converged)\n", "", False),
        (_step(checks=("total",)), 0, "wrote 12 point values, 9 line sums (total 1)\n", "", False),
        (_step(checks=("total",)), 0, "wrote 12 point values, 9 line sums (total 1.01)\n", "", True),
        (_step(checks=("groups",), n_columns=4), 0, "groups: [[0, 2], [1], [3]]\n", "", False),
        (_step(checks=("groups",), n_columns=4), 0, "groups: [[0, 2], [1]]\n", "", True),
        (_step(expect_text="alpha=24"), 0, "line frame d=3 alpha=24\n", "", False),
        (_step(expect_rc=2), 2, "", "error: d must be prime, got 4\n", False),
        (_step(expect_rc=2), 2, "", "usage: mubsic\nmubsic: error: bad\n", True),
        (_step(expect_rc=2), 1, "", "Traceback (most recent call last):\nTypeError: x\n", True),
    ],
)
def test_check_call(step, rc, out, err, failing):
    assert (verdicts.check_call(step, rc, out, err) is not None) == failing


def _pass(problems, files):
    calls = [{"argv": f"call{i}", "problem": p, "defect": "", "valid_input": valid}
             for i, (p, valid) in enumerate(problems)]
    return {"calls": calls, "files": files}


def test_tally_counts_failures_and_digest_mismatches():
    same = {"a.json": ("h1", 10)}
    passes = [_pass([(None, True), ("traceback", False)], same),
              _pass([(None, True), ("traceback", False)], same)]
    assert run.tally(passes)[:3] == (True, 4, 2)
    passes[1]["files"] = {"a.json": ("h2", 10)}
    assert run.tally(passes)[:3] == (False, 4, 3)
    passes[1]["files"] = same
    passes[1]["calls"][0]["problem"] = "verifier did not pass"
    assert run.tally(passes)[:3] == (False, 4, 3)


def test_scipy_optimize_import_time_is_parsed():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     561691 | scipy.optimize\n"
        "import time:        80 |       900 |   scipy.optimize._foo\n"
    )
    assert run._scipy_optimize_import_s(text) == 0.561691


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    def make(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        steps = workloads.build(name, seed, str(d))
        return [s.argv for s in steps], {f.name: f.read_bytes() for f in d.iterdir()}

    first = make(3, "a")
    assert first == make(3, "b")
    assert first != make(4, "c")


def test_tracer_spans_metrics_and_restore():
    import mubsic
    from mubsic import cli, frames, linalg

    original, from_matrix = frames.hs_inner, linalg.HermitianOp.__dict__["from_matrix"]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, mubsic):
        assert frames.hs_inner is not original
        step = tracer.begin_step()
        pf = frames.point_frame_from_mub(mubsic.weyl.build_mub(3))
        frames.verify_point_line_products(
            pf, frames.line_ops_from_points(pf, mubsic.plane.build_dapg(3)), mubsic.plane.build_dapg(3)
        )
        tracer.close(step)
    assert frames.hs_inner is original and linalg.HermitianOp.__dict__["from_matrix"] is from_matrix
    assert cli._read_json.__module__ == "mubsic.cli" and not hasattr(cli._read_json, "__wrapped__")
    m = tracer.metrics()
    assert m["linalg.hs_inner_calls"] == 2 * 12 * 9
    assert m["linalg.from_matrix_calls"] == 12
    assert m["plane.build_dapg_calls"] == 2
    assert 0.0 < m["trace.coverage"] <= 1.0
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["trace.unattributed_s"]
    start, end = tracer.start[step], tracer.end[step]
    assert total == pytest.approx(end - start)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in spec[key])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())

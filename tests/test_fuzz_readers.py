"""Seeded fuzz of the artifact readers.

Each valid d = 3 input file (point frame, line frame, family, fiducial, ρ and
spectra CSV) is mutated one way and fed, in process, to every command that
reads it.  No mutation may end in an exception: the exit code is 0, 1 or 2,
and an exit 2 is one ``error:`` line on stderr, nothing on stdout and no
file written.  A wrong header d or a wrong-size operator must be exit 2.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mubsic import cli, frames, linalg, plane, siclab, weyl

D = 3
_POINTS = frames.point_frame_from_mub(weyl.build_mub(D))
_FAMILY = siclab.generate_hw_sic(siclab.qutrit_fiducial())
RHO = {
    "dim": 3,
    "entries": [
        [0.5, 0.0], [0.125, 0.0625], [0.0, 0.0],
        [0.125, -0.0625], [0.3, 0.0], [0.0, 0.03125],
        [0.0, 0.0], [0.0, -0.03125], [0.2, 0.0],
    ],
}
VALID = {
    "points": frames.point_frame_to_json_dict(_POINTS),
    "lines": frames.line_frame_to_json_dict(
        frames.line_ops_from_points(_POINTS, plane.build_dapg(D))
    ),
    "family": _FAMILY.to_json_dict(),
    "fiducial": siclab.qutrit_fiducial().to_json_dict(),
    "rho": RHO,
    "spectra": siclab.spectra_to_csv(siclab.spectra_table(siclab.extract_mu_pom(_FAMILY))),
}

# The commands that read each file; BAD is the mutated file, POINTS and RHO
# valid d = 3 companions, OUT an output path.
READERS = {
    "points": [
        ["frame", "bridge", "--points", "BAD", "--out", "OUT"],
        ["frame", "verify", "--points", "BAD"],
        ["quasiprob", "--rho", "RHO", "--points", "BAD", "--out", "OUT"],
    ],
    "lines": [["frame", "verify", "--points", "POINTS", "--lines", "BAD"]],
    "family": [["sic", "verify", "--in", "BAD"], ["sic", "spectra", "--in", "BAD", "--out", "OUT"]],
    "fiducial": [["sic", "generate", "--fiducial", "BAD", "--out", "OUT"]],
    "rho": [["quasiprob", "--rho", "BAD", "--points", "POINTS", "--out", "OUT"]],
    "spectra": [["sic", "group", "--in", "BAD", "--out", "OUT"]],
}

REPLACEMENTS = {"string": "x", "null": None, "nan": float("nan"), "list": [1, 2]}
EVERY_FILE = ["drop", *REPLACEMENTS, "truncate"]
# Header values that leave no valid file behind; so does "op-dim", a
# wrong-size operator.  A spectra CSV's d is its lambda count, so it takes
# only the integer ones.
MUST_REJECT = {"d=1": 1, "d=4": 4, "d=2.0": 2.0}
JSON_ONLY = ["d=2.0", "op-dim"]
CASES = [
    (name, mutation)
    for name in READERS
    for mutation in EVERY_FILE + ["d=1", "d=4"] + (JSON_ONLY if name != "spectra" else [])
    if not (mutation == "op-dim" and "ops" not in VALID[name])
]


def _paths(obj, prefix=()):
    """The path of every value nested in ``obj``, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _set_d(obj, d):
    """``obj`` with its header d set to ``d`` and its op list and ket resized
    to what int(d) needs, so that only the check on d itself can reject it."""
    n = int(d)
    obj["dim" if "dim" in obj else "d"] = d
    if "ops" in obj:
        count = n * (n + 1) if "beta" in obj else n * n
        obj["ops"] = (obj["ops"] * count)[:count]
    for key in ("ket", "fiducial"):
        if key in obj:
            obj[key] = [[1.0, 0.0]] + [[0.0, 0.0]] * (n - 1)
    return obj


def _mutate_json(obj, mutation, data) -> str:
    obj = json.loads(json.dumps(obj))
    if mutation in MUST_REJECT:
        return json.dumps(_set_d(obj, MUST_REJECT[mutation]))
    if mutation == "op-dim":
        i = data.draw(st.integers(0, len(obj["ops"]) - 1))
        dim = data.draw(st.sampled_from([2, 4]))
        obj["ops"][i] = linalg.matrix_to_json_dict(np.eye(dim))
        return json.dumps(obj)
    text = json.dumps(obj)
    if mutation == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    *parents, key = data.draw(st.sampled_from(list(_paths(obj))))
    owner = obj
    for step in parents:
        owner = owner[step]
    if mutation == "drop":
        del owner[key]
    else:
        owner[key] = REPLACEMENTS[mutation]
    return json.dumps(obj)


def _mutate_csv(text, mutation, data) -> str:
    if mutation in MUST_REJECT:
        # Every point once with n equal values: only the check on d rejects it.
        n = MUST_REJECT[mutation]
        rows = [["m", "j"] + [f"lambda_{i}" for i in range(1, n + 1)]]
        rows += [[m, j] + [1 / n] * n for j in range(n + 1) for m in range(n)]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    if mutation == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    rows = list(csv.reader(io.StringIO(text)))
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    col = data.draw(st.integers(0, len(row) - 1))
    if mutation == "drop":
        del row[col]
    else:
        row[col] = {"null": ""}.get(mutation, json.dumps(REPLACEMENTS[mutation]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name.lower()) for name in ("BAD", "OUT", "POINTS", "RHO")}
        for key, obj in (("POINTS", VALID["points"]), ("RHO", RHO)):
            with open(paths[key], "w") as fh:
                json.dump(obj, fh)
        yield paths


@pytest.mark.parametrize("name, mutation", CASES)
@given(data=st.data())
def test_mutated_input_ends_cleanly(workdir, name, mutation, data):
    valid = VALID[name]
    if isinstance(valid, str):
        text = _mutate_csv(valid, mutation, data)
    else:
        text = _mutate_json(valid, mutation, data)
    with open(workdir["BAD"], "w") as fh:
        fh.write(text)
    for argv in READERS[name]:
        if os.path.exists(workdir["OUT"]):
            os.remove(workdir["OUT"])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.run([workdir.get(a, a) for a in argv])
        assert rc in (0, 1, 2), (argv, rc)
        if mutation in MUST_REJECT or mutation == "op-dim":
            assert rc == 2, (argv, text[:200], stdout.getvalue())
        if rc == 2:
            err = stderr.getvalue()
            assert stdout.getvalue() == "", (argv, stdout.getvalue())
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
            assert not os.path.exists(workdir["OUT"]), argv

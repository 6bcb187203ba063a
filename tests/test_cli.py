import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mubsic import cli, frames, linalg, plane, siclab, weyl
from mubsic.cli import build_parser, main, run


def test_mub_verify_ok(capsys):
    assert run(["mub", "verify", "--d", "3"]) == 0
    assert "pass" in capsys.readouterr().out


def test_mub_verify_rejects_composite(capsys):
    assert run(["mub", "verify", "--d", "4"]) == 2
    assert "d must be prime" in capsys.readouterr().err


def test_mub_verify_passes_a_deviation_equal_to_its_tolerance(capsys):
    """Exit 0 if dev ≤ tol: a tolerance equal to the deviation passes, and
    the next float below it fails."""
    dev = weyl.verify_mub(weyl.build_mub(3))
    assert dev > 0
    assert run(["mub", "verify", "--d", "3", "--tol", repr(dev)]) == 0
    assert run(["mub", "verify", "--d", "3", "--tol", repr(float(np.nextafter(dev, 0)))]) == 1
    capsys.readouterr()


def test_mub_build_writes_family(tmp_path, capsys):
    out = tmp_path / "mub.json"
    assert run(["mub", "build", "--d", "5", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["d"] == 5 and len(obj["bases"]) == 6


def test_plane_verify_summary(capsys):
    assert run(["plane", "verify", "--d", "3"]) == 0
    assert "12 points, 9 lines, all axioms pass" in capsys.readouterr().out


def test_plane_verify_apg(capsys):
    assert run(["plane", "verify", "--d", "2", "--kind", "apg"]) == 0
    assert "all axioms pass" in capsys.readouterr().out


def test_plane_build_exports(tmp_path, capsys):
    js = tmp_path / "plane.json"
    dot = tmp_path / "plane.dot"
    assert run(["plane", "build", "--d", "2", "--out", str(js)]) == 0
    assert run(
        ["plane", "build", "--d", "2", "--export", "dot", "--out", str(dot)]
    ) == 0
    obj = json.loads(js.read_text())
    assert len(obj["points"]) == 6 and len(obj["lines"]) == 4
    assert dot.read_text().startswith("graph")


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_help_exits_zero(capsys):
    assert run(["mub", "verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: mubsic mub verify")


def test_missing_file_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["sic", "verify", "--in", str(missing)]) == 2
    assert "error" in capsys.readouterr().err


def test_frame_pipeline(tmp_path, capsys):
    points = tmp_path / "points.json"
    lines = tmp_path / "lines.json"
    assert run(["frame", "from-mub", "--d", "3", "--out", str(points)]) == 0
    assert run(["frame", "bridge", "--points", str(points), "--out", str(lines)]) == 0
    assert (
        run(["frame", "verify", "--points", str(points), "--lines", str(lines)]) == 0
    )
    out = capsys.readouterr().out
    assert "alpha=24" in out


def test_frame_from_hg(tmp_path, capsys):
    points = tmp_path / "hg.json"
    assert run(["frame", "from-hg", "--d", "5", "--out", str(points)]) == 0
    assert "beta=2" in capsys.readouterr().out


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    points = tmp_path / "points.json"
    assert run(["frame", "from-mub", "--d", "3", "--out", str(points)]) == 0
    monkeypatch.setenv("MUBSIC_TOL", "1e-20")
    assert run(["frame", "verify", "--points", str(points)]) == 1
    monkeypatch.setenv("MUBSIC_TOL", "not-a-number")
    assert run(["frame", "verify", "--points", str(points)]) == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1e-12"])
def test_env_tolerance_must_be_finite_and_nonnegative(value, monkeypatch, capsys):
    monkeypatch.setenv("MUBSIC_TOL", value)
    assert run(["mub", "verify", "--d", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: MUBSIC_TOL ")


def test_flag_tolerance_beats_env(tmp_path, monkeypatch):
    points = tmp_path / "points.json"
    run(["frame", "from-mub", "--d", "2", "--out", str(points)])
    monkeypatch.setenv("MUBSIC_TOL", "1e-20")
    assert run(["frame", "verify", "--points", str(points), "--tol", "1e-6"]) == 0


# A finite diagonal entry of 1.5e308 or 8e307 is admitted (a part of m + m†
# past float64 is its own mean), and its Gram overflows to an inf deviation.
@pytest.mark.parametrize("entry, code", [(1.5e308, 1), (8e307, 1)])
@pytest.mark.parametrize("argv", [["frame", "from-mub", "--d", "3"],
                                  ["sic", "generate", "--builtin", "qutrit"]])
def test_huge_operator_entry_fails_verify(argv, entry, code, tmp_path, capsys):
    path = tmp_path / "ops.json"
    assert run(argv + ["--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["ops"][0]["entries"][0][0] = entry
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    verify = ["frame", "verify", "--points"] if argv[0] == "frame" else ["sic", "verify", "--in"]
    assert run(verify + [str(path)]) == code
    out, err = capsys.readouterr()
    assert err == "" and "deviation inf" in out and "fail at" in out


def frame_files(tmp_path, beta=None, alpha=None, huge_trace=False):
    """The d = 3 unbiased-basis point file and its bridged line file, with the
    strengths replaced when given; ``huge_trace`` sets the first point's
    diagonal to (1e308, 1e308, 0) and the first line's to its negative, so
    that tr t = inf and tr l = −inf."""
    points, lines = tmp_path / "points.json", tmp_path / "lines.json"
    assert run(["frame", "from-mub", "--d", "3", "--out", str(points)]) == 0
    assert run(["frame", "bridge", "--points", str(points), "--out", str(lines)]) == 0
    for path, key, value, sign in ((points, "beta", beta, 1), (lines, "alpha", alpha, -1)):
        obj = json.loads(path.read_text())
        if value is not None:
            obj[key] = value
        if huge_trace:
            obj["ops"][0]["entries"][::4] = [[sign * 1e308, 0.0]] * 2 + [[0.0, 0.0]]
        path.write_text(json.dumps(obj))
    return str(points), str(lines)


# A strength of 1e308 fails the point or the line table as it did when each
# point-line product was its own hs_inner call: the same exit code and the
# same point-table and line-table lines.  With β = 1e308 the off-line target
# −β(d+1)/(d²−1) is −inf, so the traceless deviation reads inf, as before.
@pytest.mark.parametrize("beta, alpha, lines", [
    (1e308, None, ["point table deviation 1e+308 (beta=1e+308)",
                   "line table deviation 1.06581410364e-14 (alpha=24)",
                   "point-line products deviation inf (traceless), 1.11111111111e+307 (trace-one)",
                   "max deviation inf (fail at 1e-10)"]),
    (None, 1e308, ["point table deviation 2.6645352591e-15 (beta=6)",
                   "line table deviation 1e+308 (alpha=1e+308)",
                   "point-line products deviation 4.4408920985e-15 (traceless), "
                   "8.881784197e-16 (trace-one)",
                   "max deviation 1e+308 (fail at 1e-10)"]),
])
def test_frame_strength_past_float64_fails_without_warning(beta, alpha, lines, tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.delenv("MUBSIC_TOL", raising=False)
    points, line_file = frame_files(tmp_path, beta=beta, alpha=alpha)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["frame", "verify", "--points", points, "--lines", line_file]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines() == lines


def test_undefined_point_line_product_reads_nan_and_fails(tmp_path, capsys, monkeypatch):
    # tr t = inf and tr l = −inf make the trace-one product inf − inf, NaN.
    # The deviation keeps it, and so does the verdict.
    monkeypatch.delenv("MUBSIC_TOL", raising=False)
    points, lines = frame_files(tmp_path, huge_trace=True)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["frame", "verify", "--points", points, "--lines", lines]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[2:] == [
        "point-line products deviation inf (traceless), nan (trace-one)",
        "max deviation nan (fail at 1e-10)",
    ]


def test_sic_generate_verify_cycle(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    assert run(["sic", "generate", "--builtin", "qutrit", "--out", str(fam)]) == 0
    assert run(["sic", "verify", "--in", str(fam)]) == 0
    obj = json.loads(fam.read_text())
    obj["ops"][0]["entries"] = [[1.01 * re, 1.01 * im] for re, im in obj["ops"][0]["entries"]]
    fam.write_text(json.dumps(obj))
    assert run(["sic", "verify", "--in", str(fam)]) == 1


def test_sic_spectra_and_group(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    csv_path = tmp_path / "spectra.csv"
    groups = tmp_path / "groups.json"
    run(["sic", "generate", "--builtin", "qubit", "--out", str(fam)])
    assert run(
        ["sic", "spectra", "--in", str(fam), "--out", str(csv_path)]
    ) == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "m,j,lambda_1,lambda_2"
    assert (
        run(["sic", "group", "--in", str(csv_path), "--out", str(groups)]) == 0
    )
    obj = json.loads(groups.read_text())
    assert obj["groups"] == [[0, 1, 2]]
    assert len(obj["spectra"]) == 1


def test_sic_group_exits_1_when_columns_are_not_constant(tmp_path, capsys):
    # A valid d = 5 spectra CSV whose column 0 has one member 2**-40 off in
    # its top eigenvalue: exactly representable, so the spread prints exactly.
    base = [0.375, 0.25, 0.1875, 0.125, 0.0625]
    rows = ["m,j," + ",".join(f"lambda_{i}" for i in range(1, 6))]
    for j in range(6):
        for m in range(5):
            values = [base[0] + 2.0**-40] + base[1:] if (m, j) == (1, 0) else base
            rows.append(f"{m},{j}," + ",".join(repr(x) for x in values))
    csv_path = tmp_path / "spectra.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    groups = tmp_path / "groups.json"
    argv = ["sic", "group", "--in", str(csv_path), "--tol", "1e-20", "--out", str(groups)]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == (
        "max within-column spread 9.09494701773e-13\n"
        "groups: [[0], [1, 2, 3, 4, 5]]\n"
    )
    assert err == "columns are not constant at tol 1e-20\n"
    obj = json.loads(groups.read_text())
    assert obj["groups"] == [[0], [1, 2, 3, 4, 5]]
    assert obj["spectra"][1] == base
    assert len(obj["spectra"]) == 2


def test_sic_group_refuses_a_spread_past_float64(tmp_path, capsys):
    # Column 0's members hold 1e308 and −1e308: the spread reads inf, not
    # NaN, at the tolerance gate, which fails the check with exit 1.  Their
    # mean is 0, so the groups file is written.
    rows = ["m,j,lambda_1,lambda_2", "0,0,1e308,1e308", "1,0,-1e308,-1e308"]
    rows += [f"{m},{j},0.5,0.5" for j in (1, 2) for m in (0, 1)]
    csv_path, groups = tmp_path / "spectra.csv", tmp_path / "groups.json"
    csv_path.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sic", "group", "--in", str(csv_path), "--out", str(groups)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("max within-column spread inf\n")
    assert err == "columns are not constant at tol 1e-06\n"


def test_generate_refuses_a_ket_norm_past_float64(tmp_path, capsys):
    # ‖ψ‖ of the stored entries ±1e308 reads inf, not NaN, at the ingest gate,
    # and the overflow in numpy's dot prints no warning beside the error line.
    path = tmp_path / "fid.json"
    path.write_text(json.dumps({"d": 2, "ket": [[1e308, 0.0], [0.0, -1e308]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sic", "generate", "--fiducial", str(path), "--out", str(tmp_path / "f")]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: ingested ket is not normalized: ‖ψ‖ = inf\n")
    assert not (tmp_path / "f").exists()


GENERATE = ["sic", "generate", "--fiducial", "IN", "--out", "OUT"]
GROUP = ["sic", "group", "--in", "IN", "--out", "OUT"]
MUB_VERIFY = ["mub", "verify", "--d", "5"]
SEARCH = ["sic", "search", "--d", "3", "--out", "OUT"]

QUBIT_FIDUCIAL = json.dumps(siclab.qubit_fiducial().to_json_dict()) + "\n"
QUBIT_FAMILY = json.dumps(siclab.generate_hw_sic(siclab.qubit_fiducial()).to_json_dict()) + "\n"
QUBIT_SPECTRA = "m,j,lambda_1,lambda_2\n" + "".join(
    f"{m},{j},0.7,0.3\n" for j in range(3) for m in range(2)
)
DEEP_JSON = '{"d": 3, "beta": 6.0, "ops": ' + "[" * 100_000 + "]" * 100_000 + "}\n"
# The maximally mixed qutrit state, the density operator of the quasiprob cases.
MIXED3 = linalg.HermitianOp.from_matrix(np.eye(3) / 3)
I1 = linalg.matrix_to_json_dict(np.eye(1))
I2 = linalg.matrix_to_json_dict(np.eye(2))
QUTRIT_KET = linalg.complex_to_json(siclab.qutrit_fiducial().ket)
FRAME_VERIFY = ["frame", "verify", "--points", "IN"]
LINES_VERIFY = ["frame", "verify", "--points", "POINTS3", "--lines", "IN"]
SIC_VERIFY = ["sic", "verify", "--in", "IN"]
LINES2 = frames.line_frame_to_json_dict(
    frames.line_ops_from_points(
        frames.point_frame_from_mub(weyl.build_mub(2)), plane.build_dapg(2)
    )
)

# argv (IN: the malformed file, OUT: an output path, POINTS and POINTS3:
# valid d = 2 and d = 3 point frames), the malformed file's name, and its text.
MALFORMED = {
    "fiducial-array": (GENERATE, "fid.json", "[1, 2]\n"),
    "fiducial-string-entry": (
        GENERATE,
        "fid.json",
        json.dumps({"d": 2, "ket": [[0.6, 0.0], ["0.8", 0.0]]}) + "\n",
    ),
    "fiducial-d-infinity": (GENERATE, "fid.json", '{"d": Infinity, "ket": [[1, 0], [0, 0]]}\n'),
    "fiducial-d-fraction": (GENERATE, "fid.json", '{"d": 2.7, "ket": [[1, 0], [0, 0]]}\n'),
    "points-d-infinity": (
        ["frame", "verify", "--points", "IN"],
        "points.json",
        '{"d": Infinity, "beta": 1.0, "ops": []}\n',
    ),
    # A frame or family file must hold d x d operators for a prime d.
    "points-2x2-ops-bridge": (
        ["frame", "bridge", "--points", "IN", "--out", "OUT"],
        "points.json",
        json.dumps({"d": 3, "beta": 6.0, "ops": [I2] * 12}) + "\n",
    ),
    "points-2x2-ops-verify": (
        FRAME_VERIFY, "points.json", json.dumps({"d": 3, "beta": 6.0, "ops": [I2] * 12}) + "\n"
    ),
    "points-d-1": (
        FRAME_VERIFY, "points.json", json.dumps({"d": 1, "beta": 1.0, "ops": [I1] * 2}) + "\n"
    ),
    "lines-2x2-ops": (
        LINES_VERIFY, "lines.json", json.dumps({"d": 3, "alpha": 24.0, "ops": [I2] * 9}) + "\n"
    ),
    "lines-other-d": (LINES_VERIFY, "lines.json", json.dumps(LINES2) + "\n"),
    "family-2x2-ops": (
        SIC_VERIFY,
        "family.json",
        json.dumps({"d": 3, "fiducial": QUTRIT_KET, "ops": [I2] * 9}) + "\n",
    ),
    "family-d-1": (
        SIC_VERIFY,
        "family.json",
        json.dumps({"d": 1, "fiducial": [[1.0, 0.0]], "ops": [I1]}) + "\n",
    ),
    # Nesting too deep for the JSON parser, in each kind of JSON input file.
    "points-deeply-nested": (FRAME_VERIFY, "points.json", DEEP_JSON),
    "rho-deeply-nested": (
        ["quasiprob", "--rho", "IN", "--points", "POINTS", "--out", "OUT"], "rho.json", DEEP_JSON
    ),
    "fiducial-deeply-nested": (GENERATE, "fid.json", DEEP_JSON),
    "spectra-field-too-long": (
        GROUP, "spectra.csv", "m,j,lambda_1,lambda_2\n0,0,0." + "7" * 131072 + ",0.3\n"
    ),
    "rho-dim-infinity": (
        ["quasiprob", "--rho", "IN", "--points", "POINTS", "--out", "OUT"],
        "rho.json",
        '{"dim": Infinity, "entries": []}\n',
    ),
    "spectra-truncated": (
        GROUP,
        "spectra.csv",
        "m,j,lambda_1,lambda_2,lambda_3\n0,0,0.5,0.3,0.2\n1,0,0.5,0.3,0.2\n",
    ),
    "spectra-nan": (
        GROUP,
        "spectra.csv",
        "m,j,lambda_1,lambda_2\n0,0,0.7,0.3\n1,0,0.7,0.3\n0,1,0.7,0.3\n"
        "1,1,NaN,0.3\n0,2,0.7,0.3\n1,2,0.7,0.3\n",
    ),
    # Tolerances must be finite and nonnegative; the inputs are otherwise valid.
    "tol-inf": (MUB_VERIFY + ["--tol", "inf"], "unused.txt", ""),
    "tol-minus-inf": (MUB_VERIFY + ["--tol=-inf"], "unused.txt", ""),
    "tol-nan": (MUB_VERIFY + ["--tol", "nan"], "unused.txt", ""),
    "tol-negative": (MUB_VERIFY + ["--tol=-1e-3"], "unused.txt", ""),
    # argparse reads a separate "-inf" or "-1e-3" as an option; its usage
    # errors end as one line too.
    "tol-minus-inf-token": (MUB_VERIFY + ["--tol", "-inf"], "unused.txt", ""),
    "tol-negative-token": (MUB_VERIFY + ["--tol", "-1e-3"], "unused.txt", ""),
    "d-not-integer": (["mub", "verify", "--d", "x"], "unused.txt", ""),
    "unknown-subcommand": (["mub", "frobnicate"], "unused.txt", ""),
    "generate-tol-inf": (GENERATE + ["--tol", "inf"], "fid.json", QUBIT_FIDUCIAL),
    # sic spectra takes no --tol: argparse rejects the flag, with exit 2 and one line.
    "spectra-rejects-tol": (
        ["sic", "spectra", "--in", "IN", "--out", "OUT", "--tol", "nan"],
        "family.json",
        QUBIT_FAMILY,
    ),
    "group-tol-nan": (GROUP + ["--tol", "nan"], "spectra.csv", QUBIT_SPECTRA),
    "group-tol-negative": (GROUP + ["--tol=-1"], "spectra.csv", QUBIT_SPECTRA),
    "search-tol-nan": (SEARCH + ["--tol", "nan"], "unused.txt", ""),
    "search-tol-inf": (SEARCH + ["--tol", "inf"], "unused.txt", ""),
    "solve-prob-zero-restarts": (
        ["sic", "solve-prob", "--d", "5", "--restarts", "0"],
        "unused.txt",
        "",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_error_line(case, tmp_path, capsys):
    argv, name, text = MALFORMED[case]
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out.json"
    paths = {"IN": str(path), "OUT": str(out)}
    for d, key in ((2, "POINTS"), (3, "POINTS3")):
        paths[key] = str(tmp_path / f"points{d}.json")
        assert run(["frame", "from-mub", "--d", str(d), "--out", paths[key]]) == 0
    capsys.readouterr()
    assert run([paths.get(a, a) for a in argv]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


# The error line of each invalid d = 3 point file, as the whole-file parse
# places it; the text is the file `frame from-mub --d 3` writes (3145
# characters), edited.
READ_ERRORS = {
    "bom": (lambda t: "\ufeff" + t,
            "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "trailing-data": (lambda t: t + "]\n", "error: Extra data: line 2 column 1 (char 3145)"),
    "truncated": (lambda t: t[: len(t) // 2],
                  "error: Expecting ',' delimiter: line 1 column 1571 (char 1570)"),
    "top-level-list": (lambda t: "[" + t.rstrip("\n") + "]\n",
                       "error: malformed frame object: list indices must be integers or slices, "
                       "not str"),
}


@pytest.mark.parametrize("chunk", [5, 1 << 18])
@pytest.mark.parametrize("case", sorted(READ_ERRORS))
def test_read_error_lines_come_from_the_whole_file(case, chunk, tmp_path, monkeypatch, capsys):
    """However the bounded reader cuts the text, the error line is the one
    the whole-file parse gives, with its position in the file."""
    edit, line = READ_ERRORS[case]
    path = tmp_path / "points.json"
    assert run(["frame", "from-mub", "--d", "3", "--out", str(path)]) == 0
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    monkeypatch.setattr(linalg, "_CHUNK", chunk)
    for argv in (["frame", "verify", "--points", str(path)],
                 ["frame", "bridge", "--points", str(path), "--out", str(tmp_path / "out.json")]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", line + "\n")
    assert not (tmp_path / "out.json").exists()


KET3 = [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]]
# Each artifact reader's error line for a malformed object, as the header
# rule words it (and the line the member checks after it give).
HEADER_ERRORS = {
    "operator": (linalg.matrix_from_json_dict, [
        ([], "malformed operator object: list indices must be integers or slices, not str"),
        ("x", "malformed operator object: string indices must be integers, not 'str'"),
        (None, "malformed operator object: 'NoneType' object is not subscriptable"),
        ({}, "malformed operator object: 'dim'"),
        ({"dim": 3}, "malformed operator object: 'entries'"),
        ({"dim": "3", "entries": []}, "dim must be an integer, got '3'"),
        ({"dim": True, "entries": []}, "dim must be an integer, got True"),
        ({"dim": 0, "entries": []}, "operator dim must be positive, got 0"),
        ({"dim": 2, "entries": 5}, "operator entries must be [re, im] number pairs nested to shape (4,)"),
    ]),
    "fiducial": (siclab.Fiducial.from_json_dict, [
        ({"d": 3}, "malformed fiducial object: 'ket'"),
        ([1, 2], "malformed fiducial object: list indices must be integers or slices, not str"),
        ({"ket": KET3}, "malformed fiducial object: 'd'"),
        ({"d": 3.0, "ket": KET3}, "d must be an integer, got 3.0"),
        ({"d": 3, "ket": 5}, "ket must be [re, im] number pairs nested to shape (3,)"),
    ]),
    "family": (siclab.SicFamily.from_json_dict, [
        ({"d": 3}, "malformed family object: 'fiducial'"),
        ({"d": 3, "fiducial": KET3}, "malformed family object: 'ops'"),
        ({"fiducial": KET3, "ops": []}, "malformed family object: 'd'"),
        (5, "malformed family object: 'int' object is not subscriptable"),
        ({"d": None}, "d must be an integer, got None"),
    ]),
    "point-frame": (frames.point_frame_from_json_dict, [
        ({"d": 3}, "malformed frame object: 'beta'"),
        ({"d": 3, "beta": "x"}, "malformed frame object: 'ops'"),
        ({"d": 3, "beta": "x", "ops": []}, "malformed frame object: beta must be a number, got 'x'"),
        ({"d": 3, "beta": 10**400, "ops": []}, "malformed frame object: int too large to convert to float"),
        ({"d": 3, "beta": True, "ops": []}, "malformed frame object: beta must be a number, got True"),
        ({"beta": 1.0, "ops": []}, "malformed frame object: 'd'"),
        ({"d": 3, "beta": 1.0, "ops": 5}, "frame object with d = 3 needs a list of at least 9 ops"),
    ]),
    "line-frame": (frames.line_frame_from_json_dict, [
        ({"d": 3, "beta": 1.0, "ops": []}, "malformed frame object: 'alpha'"),
        ({"d": 3, "alpha": None, "ops": []}, "malformed frame object: alpha must be a number, got None"),
    ]),
    "basis-family": (weyl.MubFamily.from_json_dict, [
        ({"d": 3, "bases": 5}, "malformed basis-family object: object of type 'int' has no len()"),
        ({"d": 3}, "malformed basis-family object: 'bases'"),
        ({"bases": []}, "malformed basis-family object: 'd'"),
        ([], "malformed basis-family object: list indices must be integers or slices, not str"),
        ({"d": 3, "bases": None}, "malformed basis-family object: object of type 'NoneType' has no len()"),
        ({"d": 3, "bases": "ab"}, "bases must be [re, im] number pairs nested to shape (2, 3, 3)"),
    ]),
}


@pytest.mark.parametrize("reader", sorted(HEADER_ERRORS))
def test_reader_header_error_lines(reader):
    read, cases = HEADER_ERRORS[reader]
    for obj, line in cases:
        with pytest.raises(ValueError) as exc:
            read(obj)
        assert str(exc.value) == line


def test_header_error_lines_through_the_cli(tmp_path, capsys):
    fid, rho = tmp_path / "fid.json", tmp_path / "rho.json"
    fid.write_text('{"d": 3}')
    rho.write_text('{"dim": 3}')
    assert run(["sic", "generate", "--fiducial", str(fid)]) == 2
    assert run(["quasiprob", "--rho", str(rho), "--points", str(fid)]) == 2
    assert capsys.readouterr() == ("", "error: malformed fiducial object: 'ket'\n"
                                       "error: malformed operator object: 'entries'\n")


def test_bridge_refuses_an_overflowing_line_frame(tmp_path, capsys):
    """A d = 3 point file with diagonal entries 8e307 is admitted, but each
    line operator sums four of them past float64.  The bridge writes no
    file, warns nothing and ends with one error line (exit 2, as for any
    input the program cannot take)."""
    points, lines = tmp_path / "points.json", tmp_path / "lines.json"
    assert run(["frame", "from-mub", "--d", "3", "--out", str(points)]) == 0
    obj = json.loads(points.read_text())
    for op in obj["ops"]:
        for i in range(3):
            op["entries"][4 * i] = [8e307, 0.0]
    points.write_text(json.dumps(obj))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["frame", "bridge", "--points", str(points), "--out", str(lines)]) == 2
    assert capsys.readouterr() == (
        "", "error: the result holds a value that is not finite (inf or NaN), so it is not written\n"
    )
    assert not lines.exists()


def test_bridge_writes_a_line_frame_its_reader_takes(tmp_path, capsys):
    """A d = 3 point file with diagonal entries 3e307 is admitted, and so is
    the line frame the bridge writes from it, whose diagonal entries are
    1.2e308: each part of m + m† past float64 is its own mean.  So `frame
    verify` reads both files and fails on the overflowed Gram (exit 1), where
    it used to refuse the line file (exit 2)."""
    points, lines = tmp_path / "points.json", tmp_path / "lines.json"
    assert run(["frame", "from-mub", "--d", "3", "--out", str(points)]) == 0
    obj = json.loads(points.read_text())
    for op in obj["ops"]:
        for i in range(3):
            op["entries"][4 * i] = [3e307, 0.0]
    points.write_text(json.dumps(obj))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["frame", "bridge", "--points", str(points), "--out", str(lines)]) == 0
        assert capsys.readouterr() == ("line frame d=3 alpha=24\n", "")
        assert [op["entries"][0] for op in json.loads(lines.read_text())["ops"]] == [[1.2e308, 0.0]] * 9
        assert run(["frame", "verify", "--points", str(points), "--lines", str(lines)]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("max deviation inf (fail at 1e-10)\n")


def test_quasiprob_refuses_an_overflowing_total(tmp_path, capsys):
    """On the point file of the test above, with ρ = I/3, each line sum is
    finite (3.6e307) but their total, which must be 1, overflows.  The
    command writes no file and ends with one error line (exit 2)."""
    points, rho, quasi = tmp_path / "points.json", tmp_path / "rho.json", tmp_path / "quasi.json"
    assert run(["frame", "from-mub", "--d", "3", "--out", str(points)]) == 0
    obj = json.loads(points.read_text())
    for op in obj["ops"]:
        for i in range(3):
            op["entries"][4 * i] = [8e307, 0.0]
    points.write_text(json.dumps(obj))
    rho.write_text(json.dumps({"dim": 3, "entries": [[1 / 3 if i % 4 == 0 else 0.0, 0.0] for i in range(9)]}))
    capsys.readouterr()
    argv = ["quasiprob", "--rho", str(rho), "--points", str(points), "--out", str(quasi)]
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", "error: the result holds a value that is not finite (inf or NaN), so it is not written\n"
    )
    assert not quasi.exists()


@pytest.mark.parametrize("argv", [["sic", "search", "--d", "1000003", "--restarts", "1"],
                                  ["frame", "from-hg", "--d", "1000003"]])
def test_unallocatable_dimension_is_one_error_line(argv, monkeypatch, capsys):
    # At this prime the (d, d) tables of weyl.shift_clock_tables ask for
    # 7.28 TiB each.  The error is raised here without allocating, as numpy's
    # MemoryError would be.
    def too_big(d):
        raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape ({d}, {d})")

    monkeypatch.setattr(weyl, "shift_clock_tables", too_big)
    monkeypatch.setattr(siclab, "shift_clock_tables", too_big)
    assert run(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate ")


# argv with BAD: the frame file whose strength is malformed; POINTS, LINES
# and RHO: valid d = 3 files.
STRENGTH_CASES = {
    "verify-beta": (["frame", "verify", "--points", "BAD"], "beta"),
    "bridge-beta": (["frame", "bridge", "--points", "BAD", "--out", "OUT"], "beta"),
    "quasiprob-beta": (["quasiprob", "--rho", "RHO", "--points", "BAD", "--out", "OUT"], "beta"),
    "verify-alpha": (["frame", "verify", "--points", "POINTS", "--lines", "BAD"], "alpha"),
}


def strength_error(case, value, tmp_path, capsys):
    """The one ``error:`` line of STRENGTH_CASES[case] run on a valid d = 3
    frame file whose strength is replaced by the JSON text ``value``."""
    argv, strength = STRENGTH_CASES[case]
    paths = {name: str(tmp_path / f"{name.lower()}.json")
             for name in ("POINTS", "LINES", "RHO", "OUT", "BAD")}
    assert run(["frame", "from-mub", "--d", "3", "--out", paths["POINTS"]]) == 0
    assert run(["frame", "bridge", "--points", paths["POINTS"], "--out", paths["LINES"]]) == 0
    linalg.write_operator_json(paths["RHO"], MIXED3)
    source = paths["POINTS"] if strength == "beta" else paths["LINES"]
    with open(source) as fh:
        obj = json.load(fh)
    obj[strength] = None
    text = json.dumps(obj).replace(f'"{strength}": null', f'"{strength}": {value}')
    json.loads(text)  # still well-formed JSON
    with open(paths["BAD"], "w") as fh:
        fh.write(text)
    capsys.readouterr()
    assert run([paths.get(a, a) for a in argv]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert not os.path.exists(paths["OUT"])
    return err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("case", sorted(STRENGTH_CASES))
def test_non_finite_frame_strength_is_one_error_line(case, value, tmp_path, capsys):
    strength = STRENGTH_CASES[case][1]
    err = strength_error(case, value, tmp_path, capsys)
    assert err.startswith(f"error: frame {strength} must be finite")


# A strength must be a JSON number: a string or a bool is not read as one,
# and an integer too large for a float is rejected, not a traceback.
@pytest.mark.parametrize(
    "value", ['"6"', '"24"', "true", "1" + "0" * 400], ids=["str6", "str24", "bool", "huge-int"]
)
@pytest.mark.parametrize("case", sorted(STRENGTH_CASES))
def test_non_number_frame_strength_is_one_error_line(case, value, tmp_path, capsys):
    strength = STRENGTH_CASES[case][1]
    err = strength_error(case, value, tmp_path, capsys)
    want = "int too large" if value.isdigit() else f"{strength} must be a number"
    assert err.startswith(f"error: malformed frame object: {want}")


QUBIT_SPECTRA_CSV = "m,j,lambda_1,lambda_2\n" + "".join(
    f"{m},{j},0.788675134595,0.211324865405\n" for j in range(3) for m in range(2)
)


def test_sic_spectra_reads_no_tolerance(tmp_path, monkeypatch, capsys):
    """sic spectra is a report, not a verifier: MUBSIC_TOL does not reach it."""
    fam = tmp_path / "fam.json"
    csv_path = tmp_path / "spectra.csv"
    assert run(["sic", "generate", "--builtin", "qubit", "--out", str(fam)]) == 0
    monkeypatch.setenv("MUBSIC_TOL", "nan")
    assert run(["sic", "spectra", "--in", str(fam), "--out", str(csv_path)]) == 0
    assert csv_path.read_text() == QUBIT_SPECTRA_CSV


def test_sic_solve_prob_output(capsys):
    assert run(["sic", "solve-prob", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "p = (0.5, 0.5, 0)" in out
    assert "family" in out


def test_sic_search_writes_converged_fiducial(tmp_path, capsys):
    out = tmp_path / "fid2.json"
    argv = ["sic", "search", "--d", "2", "--seed", "1", "--restarts", "10",
            "--out", str(out)]
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert "converged" in text
    objective = float(text.split("objective")[1].split()[0])
    assert objective <= 1e-14
    fid = siclab.ingest_fiducial(out, 2)
    full, _ = siclab.rank_one_conditions(fid)
    assert full <= 1e-6


def test_sic_search_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["sic", "search", "--d", "3", "--seed", "2", "--restarts", "5", "--out", str(a)])
    run(["sic", "search", "--d", "3", "--seed", "2", "--restarts", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [["sic", "search", "--d", "5", "--seed", "-1"],
                                  ["sic", "solve-prob", "--d", "5", "--seed", "-3"],
                                  ["sic", "solve-prob", "--d", "2", "--seed", "-5"],
                                  ["sic", "solve-prob", "--d", "3", "--seed", "-1"]])
def test_negative_seed_is_one_error_line(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: expected non-negative integer\n")


def test_sic_search_budget_exhaustion_exit_code(tmp_path, capsys):
    argv = ["sic", "search", "--d", "5", "--seed", "0", "--restarts", "1",
            "--max-iters", "2"]
    assert run(argv) == 1
    assert "budget exhausted" in capsys.readouterr().out


def test_quasiprob_pipeline(tmp_path, capsys):
    points = tmp_path / "points.json"
    rho_path = tmp_path / "rho.json"
    out = tmp_path / "q.json"
    run(["frame", "from-mub", "--d", "3", "--out", str(points)])
    linalg.write_operator_json(rho_path, MIXED3)
    assert run(
        ["quasiprob", "--rho", str(rho_path), "--points", str(points),
         "--out", str(out)]
    ) == 0
    obj = json.loads(out.read_text())
    assert len(obj["points"]) == 12 and len(obj["lines"]) == 9
    assert all(abs(v - 1 / 3) <= 1e-12 for _, _, v in obj["points"])
    assert all(abs(v - 1 / 9) <= 1e-12 for _, _, v in obj["lines"])


def test_build_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run(["mub", "build", "--d", "7", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_main_entry_point(capsys):
    assert main(["plane", "verify", "--d", "2"]) == 0
    assert np.isfinite(1.0)  # keep numpy import honest


def _check_json_artifact(argv, obj, tmp_path, capsys):
    """``argv`` writes json.dumps(obj) plus a newline to ``--out``, and to
    stdout, ahead of its report, without ``--out``.  Returns the file."""
    out = tmp_path / "artifact.json"
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 0, argv
    report = capsys.readouterr().out
    want = json.dumps(obj) + "\n"
    assert out.read_text() == want, argv
    assert run(argv) == 0, argv
    assert capsys.readouterr().out == want + report, argv
    return out


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_json_artifacts_are_json_dumps_bytes(d, tmp_path, capsys):
    """Every JSON artifact the CLI writes is json.dumps of the object it came
    from, however the writer streams it.  Each object is built in process,
    from inputs read as plain JSON."""
    def check(argv, obj, name):
        return _check_json_artifact(argv, obj, tmp_path, capsys).rename(tmp_path / name)

    def plain(name):
        return json.loads((tmp_path / name).read_text())

    def path(name):
        return str(tmp_path / name)

    geom = plane.build_dapg(d)
    check(["mub", "build", "--d", str(d)], weyl.build_mub(d).to_json_dict(), "bases.json")
    pf = frames.point_frame_from_mub(weyl.build_mub(d))
    check(["frame", "from-mub", "--d", str(d)], frames.point_frame_to_json_dict(pf), "points.json")
    if d > 2:
        hg = frames.point_frame_from_hg(weyl.build_hg_basis(weyl.build_weyl_pair(d)))
        check(["frame", "from-hg", "--d", str(d)], frames.point_frame_to_json_dict(hg), "hg.json")
    pf = frames.point_frame_from_json_dict(plain("points.json"))
    lf = frames.line_ops_from_points(pf, geom)
    check(["frame", "bridge", "--points", path("points.json")],
          frames.line_frame_to_json_dict(lf), "lines.json")

    # The search writes its fiducial only to a file.
    assert run(["sic", "search", "--d", str(d), "--out", path("fid.json")]) == 0
    want = json.dumps(siclab.search_fiducial(d).fiducial.to_json_dict()) + "\n"
    assert (tmp_path / "fid.json").read_text() == want
    fid = siclab.Fiducial.from_json_dict(plain("fid.json"))
    check(["sic", "generate", "--fiducial", path("fid.json")],
          siclab.generate_hw_sic(fid).to_json_dict(), "family.json")
    assert run(["sic", "spectra", "--in", path("family.json"), "--out", path("spectra.csv")]) == 0
    table = siclab.spectra_from_csv((tmp_path / "spectra.csv").read_text())
    check(["sic", "group", "--in", path("spectra.csv")],
          siclab.group_columns_by_spectrum(table), "groups.json")

    rho = linalg.HermitianOp.from_matrix(np.outer(fid.ket, fid.ket.conj()))
    linalg.write_operator_json(path("rho.json"), rho)
    assert (tmp_path / "rho.json").read_text() == json.dumps(linalg.matrix_to_json_dict(rho)) + "\n"
    q = frames.quasi_distribution(linalg.decode_operator(plain("rho.json")), pf)
    p = frames.line_probabilities(q, geom)
    quasi = {"d": d, "points": [[m, j, q[(m, j)]] for (m, j) in geom.points],
             "lines": [[a, b, p[(a, b)]] for (a, b) in geom.lines]}
    check(["quasiprob", "--rho", path("rho.json"), "--points", path("points.json")],
          quasi, "quasi.json")


# Each operator is placed at ops[4], point (1, 1) of a frame and line (1, 1)
# of a family.  The error lines are those the plain-JSON reader gave before
# operators were decoded during the parse.
_BAD_OPS = {
    "non-hermitian": (
        {"dim": 3, "entries": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 7},
        "error: matrix is not Hermitian: max |m - m\u2020| = 1.000e+00\n",
    ),
    "2x2": (
        linalg.matrix_to_json_dict(np.eye(2)),
        "error: op (1, 1) is 2 x 2, expected 3 x 3\n",
    ),
    "string-entry": (
        {"dim": 3, "entries": [[0.0, 0.0]] * 4 + [["1", 0.0]] + [[0.0, 0.0]] * 4},
        "error: operator entries must be [re, im] number pairs nested to shape (9,)\n",
    ),
    "nan-entry": (
        {"dim": 3, "entries": [[0.0, 0.0]] * 4 + [[float("nan"), 0.0]] + [[0.0, 0.0]] * 4},
        "error: operator entries must be finite\n",
    ),
}
_OP_READERS = {
    "bridge": ("points", ["frame", "bridge", "--points", "BAD", "--out", "OUT"]),
    "verify": ("points", ["frame", "verify", "--points", "BAD"]),
    "quasiprob": ("points", ["quasiprob", "--rho", "RHO", "--points", "BAD", "--out", "OUT"]),
    "sic-verify": ("family", ["sic", "verify", "--in", "BAD"]),
}
_VALID3 = {
    "points": frames.point_frame_to_json_dict(frames.point_frame_from_mub(weyl.build_mub(3))),
    "family": siclab.generate_hw_sic(siclab.qutrit_fiducial()).to_json_dict(),
}
_RHO3 = linalg.matrix_to_json_dict(MIXED3)


def _read_error(reader, obj, tmp_path, capsys):
    """The exit code, stdout and stderr of ``_OP_READERS[reader]`` on ``obj``."""
    paths = {name: str(tmp_path / f"{name.lower()}.json") for name in ("BAD", "OUT", "RHO")}
    (tmp_path / "bad.json").write_text(json.dumps(obj) + "\n")
    (tmp_path / "rho.json").write_text(json.dumps(_RHO3) + "\n")
    rc = run([paths.get(a, a) for a in _OP_READERS[reader][1]])
    assert not os.path.exists(paths["OUT"])
    return (rc, *capsys.readouterr())


def _with_ops(obj, ops: dict):
    """A copy of ``obj`` with ``ops[i]`` in place of its i-th operator."""
    obj = json.loads(json.dumps(obj))
    for i, op in ops.items():
        obj["ops"][i] = op
    return obj


@pytest.mark.parametrize("case", sorted(_BAD_OPS))
@pytest.mark.parametrize("reader", sorted(_OP_READERS))
def test_bad_operator_error_lines_are_pinned(reader, case, tmp_path, capsys):
    op, line = _BAD_OPS[case]
    obj = _with_ops(_VALID3[_OP_READERS[reader][0]], {4: op})
    assert _read_error(reader, obj, tmp_path, capsys) == (2, "", line)


@pytest.mark.parametrize("reader", sorted(_OP_READERS))
def test_header_errors_come_before_operator_errors(reader, tmp_path, capsys):
    """A d = 4 file, resized as d = 4 needs, with a non-Hermitian operator."""
    obj = json.loads(json.dumps(_VALID3[_OP_READERS[reader][0]]))
    count = 20 if "beta" in obj else 16
    obj.update(d=4, ops=(obj["ops"] * 2)[:count])
    obj["ops"][6] = _BAD_OPS["non-hermitian"][0]
    if "fiducial" in obj:
        obj["fiducial"] = [[1.0, 0.0]] + [[0.0, 0.0]] * 3
    assert _read_error(reader, obj, tmp_path, capsys) == (2, "", "error: d must be prime, got 4\n")


def test_operators_are_checked_in_file_order(tmp_path, capsys):
    """A construction error is reported before an earlier op's wrong size,
    and the first bad op in file order is the one named."""
    obj = _with_ops(_VALID3["points"], {2: _BAD_OPS["2x2"][0], 7: _BAD_OPS["non-hermitian"][0],
                                        9: _BAD_OPS["string-entry"][0]})
    assert _read_error("verify", obj, tmp_path, capsys) == (2, "", _BAD_OPS["non-hermitian"][1])


def test_operator_with_an_extra_key_is_accepted(tmp_path, capsys):
    clean = _read_error("verify", _VALID3["points"], tmp_path, capsys)
    extra = dict(_VALID3["points"]["ops"][4], note="x")
    assert clean[0] == 0
    assert _read_error("verify", _with_ops(_VALID3["points"], {4: extra}), tmp_path, capsys) == clean


@pytest.mark.parametrize(
    "reader, obj, line",
    [
        # An operator file given where a frame or family file belongs.
        ("verify", _RHO3, "error: malformed frame object: 'd'\n"),
        ("sic-verify", _RHO3, "error: malformed family object: 'd'\n"),
        # An operator object where a number or a list belongs is named as
        # the file holds it, on one line.
        ("verify", dict(_VALID3["points"], d=_RHO3), f"error: d must be an integer, got {_RHO3!r}\n"),
        ("verify", dict(_VALID3["points"], beta=_RHO3),
         f"error: malformed frame object: beta must be a number, got {_RHO3!r}\n"),
        ("sic-verify", dict(_VALID3["family"], ops=_RHO3), f"error: expected 9 ops, got {_RHO3!r}\n"),
    ],
    ids=["op-as-points", "op-as-family", "op-as-d", "op-as-beta", "op-as-family-ops"],
)
def test_operator_object_out_of_place_is_one_error_line(reader, obj, line, tmp_path, capsys):
    assert _read_error(reader, obj, tmp_path, capsys) == (2, "", line)


def _leaves(parser, path=()):
    """(command path, leaf parser) for every leaf of the argparse tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, path + (name,))
            return
    yield " ".join(path), parser


def _arg(action):
    kind = action.type.__name__ if action.type else None
    choices = tuple(action.choices) if action.choices else None
    return (tuple(action.option_strings), action.dest, action.default, action.required,
            choices, kind)


D = (("--d",), "d", None, True, None, "int")
OUT = (("--out",), "out", None, False, None, None)
TOL = (("--tol",), "tol", None, False, None, "float")
KIND = (("--kind",), "kind", "dapg", False, ("apg", "dapg"), None)
POINTS = (("--points",), "points", None, True, None, None)
IN = (("--in",), "infile", None, True, None, None)
SEED = (("--seed",), "seed", 0, False, None, "int")

# Leaf command -> (handler name, its arguments in parser order).
PARSER_TREE = {
    "mub build": ("_cmd_mub_build", [D, OUT]),
    "mub verify": ("_cmd_mub_verify", [D, TOL]),
    "plane build": ("_cmd_plane_build", [
        D, OUT, KIND, (("--export",), "export", "json", False, ("json", "dot"), None)]),
    "plane verify": ("_cmd_plane_verify", [D, KIND]),
    "frame from-mub": ("_cmd_frame_from_mub", [D, OUT]),
    "frame from-hg": ("_cmd_frame_from_hg", [D, OUT]),
    "frame bridge": ("_cmd_frame_bridge", [POINTS, OUT]),
    "frame verify": ("_cmd_frame_verify", [
        POINTS, (("--lines",), "lines", None, False, None, None), TOL]),
    "sic generate": ("_cmd_sic_generate", [
        (("--fiducial",), "fiducial", None, False, None, None),
        (("--builtin",), "builtin", None, False, ("qubit", "qutrit"), None),
        OUT, TOL]),
    "sic verify": ("_cmd_sic_verify", [IN, TOL]),
    "sic spectra": ("_cmd_sic_spectra", [IN, OUT]),
    "sic group": ("_cmd_sic_group", [IN, (("--tol",), "tol", 1e-6, False, None, "float"), OUT]),
    "sic solve-prob": ("_cmd_sic_solve_prob", [
        D, SEED, (("--restarts",), "restarts", 64, False, None, "int")]),
    "sic search": ("_cmd_sic_search", [
        D, OUT, SEED, (("--restarts",), "restarts", 24, False, None, "int"),
        (("--max-iters",), "max_iters", 1000, False, None, "int"),
        (("--tol",), "tol", 1e-14, False, None, "float")]),
    "quasiprob": ("_cmd_quasiprob", [
        (("--rho",), "rho", None, True, None, None), POINTS, OUT]),
}


def test_parser_tree_is_pinned():
    """Every leaf command's arguments and handler, independent of the help
    layout of the running Python version."""
    tree = {
        path: (leaf.get_default("handler").__name__,
               [_arg(a) for a in leaf._actions if not isinstance(a, argparse._HelpAction)])
        for path, leaf in _leaves(build_parser())
    }
    assert tree == PARSER_TREE


def test_search_defaults_are_the_search_config_defaults():
    """The ``sic search`` leaf holds its defaults as literals, so that building
    the parser loads no siclab; they must stay SearchConfig's own."""
    leaf = dict(_leaves(build_parser()))["sic search"]
    cfg = siclab.SearchConfig()
    assert [leaf.get_default(dest) for dest in ("restarts", "max_iters", "tol")] == [
        cfg.restarts, cfg.max_iters, cfg.objective_tol]


def test_run_parses_with_one_tree_per_process(monkeypatch, capsys):
    """run() builds its argparse tree once, not per call; build_parser()
    still returns a fresh tree.  Rebinding build_parser, as a wrapper that
    times it does, builds one tree through the new binding and parses with it."""
    assert build_parser() is not build_parser()
    run(["mub", "verify", "--d", "3"])
    tree = cli._shared_parser()
    assert run(["plane", "verify", "--d", "5", "--kind", "apg"]) == 0
    assert run(["mub", "verify"]) == 2
    assert capsys.readouterr().err.count("error:") == 1
    assert cli._shared_parser() is tree

    built, parsed = [], []

    def wrapped():
        parser = build_parser()
        parse = parser.parse_args
        parser.parse_args = lambda argv: parsed.append(argv) or parse(argv)
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", wrapped)
    for d in ("2", "3"):
        assert run(["mub", "verify", "--d", d]) == 0
    assert len(built) == 1 and parsed == [["mub", "verify", "--d", d] for d in ("2", "3")]
    monkeypatch.undo()
    assert run(["mub", "verify", "--d", "2"]) == 0
    assert cli._shared_parser() not in (tree, built[0])


def test_artifact_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The files of the chains on artifact paths have the same bytes at one
    and at two BLAS threads.  The search and ``hermitian_eigensystem``
    under ``sic spectra`` go through BLAS or LAPACK; ``generate_hw_sic`` and
    ``quasi_distribution`` sum in a fixed order.  At d = 29 and 31, whose
    files take seconds to write and read, the children hash the arrays
    those two would write: the family of a seeded unit ket (the search
    seldom converges there) and the values of a seeded state.  Each thread
    count runs in its own interpreter, because OpenBLAS reads its thread
    count when numpy loads."""
    rng = np.random.default_rng(7)
    for d in (23, 29, 31):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = a @ a.conj().T
        linalg.write_operator_json(tmp_path / f"rho{d}.json", rho / np.trace(rho).real)
    for d in (29, 31):
        ket = siclab.canonical_ket(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        siclab.write_fiducial_json(tmp_path / f"fid{d}.json", siclab.Fiducial(d=d, ket=ket))
    argvs = [
        ["sic", "search", "--d", "23", "--seed", "2", "--out", "{w}/fid.json"],
        ["sic", "generate", "--fiducial", "{w}/fid.json", "--out", "{w}/family.json"],
        ["sic", "spectra", "--in", "{w}/family.json", "--out", "{w}/spectra.csv"],
        ["frame", "from-mub", "--d", "23", "--out", "{w}/points.json"],
        ["quasiprob", "--rho", str(tmp_path / "rho23.json"), "--points", "{w}/points.json",
         "--out", "{w}/quasi.json"],
    ]
    code = (
        "import contextlib, hashlib, io, json, pathlib, sys\n"
        "from mubsic import cli, frames, linalg, siclab, weyl\n"
        "w = pathlib.Path(sys.argv[1])\n"
        "w.mkdir()\n"
        f"argvs = [[a.format(w=w) for a in argv] for argv in {argvs!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rcs = [cli.run(argv) for argv in argvs]\n"
        "digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()\n"
        "           for p in sorted(w.iterdir())}\n"
        "for d in (29, 31):\n"
        "    fid = siclab.Fiducial.from_json_dict(linalg.load_json(w.parent / f'fid{d}.json'))\n"
        "    rho = linalg.read_operator_json(w.parent / f'rho{d}.json')\n"
        "    q = frames.quasi_distribution(rho, frames.point_frame_from_mub(weyl.build_mub(d)))\n"
        "    for name, data in (('family', siclab.generate_hw_sic(fid).projectors.tobytes()),\n"
        "                       ('quasi', json.dumps(list(q.values())).encode())):\n"
        "        digests[f'{name}{d}'] = hashlib.sha256(data).hexdigest()\n"
        "print(json.dumps([rcs, digests]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    procs = []
    for threads in ("1", "2"):  # both children at once, to halve the wall time
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        env.pop("MUBSIC_TOL", None)
        procs.append(subprocess.Popen([sys.executable, "-c", code, str(tmp_path / threads)],
                                      env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      text=True))
    runs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert (proc.returncode, err) == (0, "")
        runs.append(json.loads(out))
    rcs, digests = runs[0]
    assert rcs == [0] * len(argvs)
    assert sorted(digests) == ["family.json", "family29", "family31", "fid.json", "points.json",
                               "quasi.json", "quasi29", "quasi31", "spectra.csv"]
    assert runs[1] == runs[0]

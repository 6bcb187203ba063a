"""The argument and record helpers of tools/bench_pairs.py (no runs)."""

import argparse
import hashlib
import importlib.util
import json
import pathlib
import py_compile

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_parse_pairs_needs_two_seeds():
    """Quartiles need two runs per side, so a plan is refused before any run."""
    assert bench_pairs.parse_pairs("frame-bridge=601-603") == ("frame-bridge", [601, 602, 603])
    for text in ("sic-hunt=7", "sic-hunt=7-7", "sic-hunt=9-7", "sic-hunt=x-y", "sic-hunt"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_pairs(text)
    assert bench_pairs.quartiles([1.0, 2.0]) == [1.25, 1.75]


def test_compiled_needs_current_bytecode_for_every_module(tmp_path):
    pkg = tmp_path / "src" / "mubsic"
    pkg.mkdir(parents=True)
    for name in ("__init__.py", "cli.py"):
        (pkg / name).write_text("x = 1\n")
    assert not bench_pairs.compiled(str(tmp_path))
    py_compile.compile(str(pkg / "cli.py"))
    assert not bench_pairs.compiled(str(tmp_path))
    py_compile.compile(str(pkg / "__init__.py"))
    assert bench_pairs.compiled(str(tmp_path))


def test_merge_into_keeps_other_keys(tmp_path):
    path = tmp_path / "BENCH_x.json"
    bench_pairs.merge_into(str(path), {"label": "x", "workloads": {"a": 1}})
    bench_pairs.merge_into(str(path), {"frame_steps_d19": {"b": 2}, "label": "y"})
    assert json.loads(path.read_text()) == {
        "label": "y", "workloads": {"a": 1}, "frame_steps_d19": {"b": 2}
    }


def test_step_table_runs_both_solvers():
    """The same-outputs check of ``--steps D`` covers the front end alone
    (help and a usage error), a call of every subcommand group, the frame
    chain, the family writer and its reader, and both solvers, each from a
    seed, so outputs repeat."""
    steps, inputs = bench_pairs.step_chain(7)
    names = [name for name, _ in steps]
    assert names == ["help", "usage", "mub-verify", "plane-verify", "from-mub", "bridge",
                     "verify", "quasiprob", "lines-as-points", "cut-points", "from-hg",
                     "generate", "sic-verify", "solve-prob", "search"]
    assert dict(steps)["usage"] == ["mub", "verify"]
    assert dict(steps)["lines-as-points"] == ["frame", "verify", "--points", "{w}/lines.json"]
    assert dict(steps)["cut-points"] == ["frame", "verify", "--points", "{w}/points_cut.json"]
    assert dict(steps)["sic-verify"] == ["sic", "verify", "--in", "{w}/family.json"]
    assert dict(steps)["search"][:6] == ["sic", "search", "--d", "7", "--seed", "0"]
    assert sorted(inputs) == ["fid.json", "rho.json"]


def test_file_sha256_digests_a_file_in_pieces(tmp_path):
    """Artifacts are hashed a piece at a time, so that the tool's own peak
    RSS, which every child's wait4 peak includes, stays small."""
    path = tmp_path / "artifact.json"
    data = bytes(range(256)) * 5000  # several 1 MiB pieces and a partial one
    path.write_bytes(data)
    assert bench_pairs.file_sha256(str(path)) == hashlib.sha256(data).hexdigest()
    path.write_bytes(b"")
    assert bench_pairs.file_sha256(str(path)) == hashlib.sha256(b"").hexdigest()


def test_step_table_reports_files_exit_codes_and_streams_apart(monkeypatch):
    """A change that moves printed digits on purpose shows as different
    stdout alone, with the same files and exit codes; one that moves a
    file's bytes names that file."""
    def record(rc, stdout):
        return {"rc": rc, "seconds": 0.5, "rss_mb": 40.0, "stdout": stdout, "stderr": "e"}

    files = {"points.json": "f"}
    base = bench_pairs.output_digests([record(0, "a")], files)

    def moved(records, files):
        digests = bench_pairs.output_digests(records, files)
        return {name for name in bench_pairs.OUTPUTS if digests[name] != base[name]}

    assert moved([record(0, "b")], files) == {"stdout"}
    assert moved([record(1, "a")], files) == {"exit_codes"}
    assert moved([record(0, "a")], {"points.json": "g"}) == {"files"}

    def chain_run(root, d):
        steps = bench_pairs.step_chain(d)[0]
        records = [record(0, "new digits" if root == "change" else "old digits") for _ in steps]
        return records, files

    monkeypatch.setattr(bench_pairs, "chain_run", chain_run)
    result = bench_pairs.run_steps({"parent": "parent", "change": "change"}, 3, "from bytecode")
    flags = {k: v for k, v in result.items() if k.startswith("same_")}
    assert flags == {"same_files": True, "same_exit_codes": True, "same_stdout": False,
                     "same_stderr": True}
    assert result["differing_files"] == []

    def hg_moves(root, d):
        records = [record(0, "a") for _ in bench_pairs.step_chain(d)[0]]
        return records, {**files, "hg.json": root}

    monkeypatch.setattr(bench_pairs, "chain_run", hg_moves)
    result = bench_pairs.run_steps({"parent": "parent", "change": "change"}, 3, "from bytecode")
    assert (result["same_files"], result["same_stdout"]) == (False, True)
    assert result["differing_files"] == ["hg.json"]

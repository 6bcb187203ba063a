"""No command loads scipy: the fiducial search's Levenberg-Marquardt solver
and the cyclic probability solver run on numpy alone, and draw their seeded
restarts from the standard library's ``random``, so no command loads
``numpy.random`` either, nor the OpenSSL hashing it brings.  ``import mubsic``
loads nothing at all: each public name lives only in its module, and each
command loads only the modules of the layers it runs.  ``import mubsic.cli``,
``--help`` and usage errors load no layer and no numpy.

The import checks run in fresh interpreters: within the suite, other tests
have already imported the package and numpy, so an in-process check proves
nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mubsic import siclab

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("MUBSIC_TOL", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_non_solving_call_leave_scipy_unloaded():
    after_each = _fresh(
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import mubsic\n"
        "seen = [scipy_modules()]\n"
        "import mubsic.cli\n"
        "seen.append(scipy_modules())\n"
        "rc = mubsic.cli.run(['mub', 'verify', '--d', '5'])\n"
        "print(json.dumps([rc, seen + [scipy_modules()]]))"
    )
    assert after_each == [0, [[], [], []]]


def test_package_import_loads_no_module():
    after_package, rc = _fresh(
        "import json, sys\n"
        "import mubsic\n"
        "seen = sorted(m for m in sys.modules\n"
        "              if m.startswith('mubsic.') or m.split('.')[0] == 'numpy')\n"
        "import mubsic.cli\n"
        "print(json.dumps([seen, mubsic.cli.run(['mub', 'verify', '--d', '5'])]))"
    )
    assert (after_package, rc) == ([], 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["sic", "search", "--d", "3"],  # numpy Levenberg-Marquardt
        ["sic", "solve-prob", "--d", "3"],  # closed form, no solver
        ["sic", "solve-prob", "--d", "5"],  # numpy Gauss-Newton
    ],
)
def test_solving_calls_leave_scipy_optimize_unloaded(argv):
    rc, loaded = _fresh(
        "import json, sys\n"
        "from mubsic import cli\n"
        f"rc = cli.run({argv!r})\n"
        "print(json.dumps([rc, 'scipy.optimize' in sys.modules]))"
    )
    assert (rc, loaded) == (0, False)


def test_search_then_generate_leave_scipy_unloaded(tmp_path):
    fid = str(tmp_path / "fid.json")
    search = ["sic", "search", "--d", "5", "--out", fid]
    generate = ["sic", "generate", "--fiducial", fid, "--out", str(tmp_path / "fam.json")]
    rcs, loaded = _fresh(
        "import json, sys\n"
        "from mubsic import cli\n"
        f"rcs = [cli.run({search!r}), cli.run({generate!r})]\n"
        "print(json.dumps([rcs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    assert (rcs, loaded) == ([0, 0], [])


# One call of every leaf subcommand, at d ≤ 5, each reading the files of
# the calls before it ({w} is a scratch directory).
EVERY_LEAF = [
    ["mub", "build", "--d", "5", "--out", "{w}/bases.json"],
    ["mub", "verify", "--d", "5"],
    ["plane", "build", "--d", "3", "--out", "{w}/plane.json"],
    ["plane", "verify", "--d", "5"],
    ["frame", "from-mub", "--d", "3", "--out", "{w}/points.json"],
    ["frame", "from-hg", "--d", "3", "--out", "{w}/hg.json"],
    ["frame", "bridge", "--points", "{w}/points.json", "--out", "{w}/lines.json"],
    ["frame", "verify", "--points", "{w}/points.json", "--lines", "{w}/lines.json"],
    ["quasiprob", "--rho", "{w}/rho.json", "--points", "{w}/points.json", "--out", "{w}/quasi.json"],
    ["sic", "search", "--d", "5", "--out", "{w}/fid.json"],
    ["sic", "generate", "--fiducial", "{w}/fid.json", "--out", "{w}/family.json"],
    ["sic", "verify", "--in", "{w}/family.json"],
    ["sic", "spectra", "--in", "{w}/family.json", "--out", "{w}/spectra.csv"],
    ["sic", "group", "--in", "{w}/spectra.csv", "--out", "{w}/groups.json"],
    ["sic", "solve-prob", "--d", "5"],
]


def test_no_leaf_loads_numpy_random_or_openssl(tmp_path):
    """After each leaf subcommand, in one fresh interpreter, none of
    ``numpy.random``, ``secrets`` or ``_hashlib`` is loaded, and the calls
    reach every handler the parser has."""
    mixed = [[1 / 3 if i == j else 0.0, 0.0] for i in range(3) for j in range(3)]
    (tmp_path / "rho.json").write_text(json.dumps({"dim": 3, "entries": mixed}))
    argvs = [[a.format(w=tmp_path) for a in argv] for argv in EVERY_LEAF]
    handlers, every_handler, after_each = _fresh(
        "import io, json, sys, contextlib\n"
        "from mubsic import cli\n"
        f"argvs = {argvs!r}\n"
        "parser = cli.build_parser()\n"
        "handlers = sorted({parser.parse_args(argv).handler.__name__ for argv in argvs})\n"
        "after_each = []\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = cli.run(argv)\n"
        "    after_each.append([rc, [m for m in ('numpy.random', 'secrets', '_hashlib')\n"
        "                            if m in sys.modules]])\n"
        "print(json.dumps([handlers, sorted(n for n in dir(cli) if n.startswith('_cmd_')),\n"
        "                  after_each]))"
    )
    assert handlers == every_handler
    assert after_each == [[0, []]] * len(EVERY_LEAF)


MUBSIC_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'mubsic')"


def test_layers_load_on_first_attribute_access():
    """``import mubsic.cli`` loads no layer beside it; the package loads a
    layer when it is first asked for it."""
    seen = _fresh(
        "import json, sys\n"
        "import mubsic\n"
        f"seen = [{MUBSIC_MODULES}]\n"
        "try:\n"
        "    mubsic.no_such_layer\n"
        "except AttributeError as exc:\n"
        "    seen.append(str(exc))\n"
        "import mubsic.cli\n"
        f"seen.append({MUBSIC_MODULES})\n"
        "seen.append(mubsic.siclab.SearchConfig.__name__)\n"
        "print(json.dumps(seen))"
    )
    assert seen == [
        ["mubsic"],
        "module 'mubsic' has no attribute 'no_such_layer'",
        ["mubsic", "mubsic.cli"],
        "SearchConfig",
    ]


def test_front_end_loads_no_numpy_until_a_handler_runs():
    """Importing the CLI, building its parser, ``--help`` at any level and a
    usage error load no layer and no numpy; the first handler that computes
    loads them."""
    seen = _fresh(
        "import contextlib, io, json, sys\n"
        "def loaded(rc):\n"
        "    return [rc, 'numpy' in sys.modules, "
        f"{MUBSIC_MODULES}]\n"
        "import mubsic.cli\n"
        "seen = [loaded(None)]\n"
        "mubsic.cli.build_parser()\n"
        "seen.append(loaded(None))\n"
        "for argv in (['--help'], ['sic', 'search', '--help'], ['mub', 'verify'],\n"
        "             ['mub', 'verify', '--d', '5']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        seen.append(loaded(mubsic.cli.run(argv)))\n"
        "print(json.dumps(seen))"
    )
    front = ["mubsic", "mubsic.cli"]
    assert seen == [
        [None, False, front],
        [None, False, front],
        [0, False, front],
        [0, False, front],
        [2, False, front],
        [0, True, front + ["mubsic.linalg", "mubsic.weyl"]],
    ]


@pytest.mark.parametrize(
    "argvs, layers",
    [
        ([["mub", "verify", "--d", "5"]], ["weyl"]),
        ([["plane", "verify", "--d", "5"]], ["plane", "weyl"]),
        ([["frame", "from-mub", "--d", "3", "--out", "{w}/points.json"],
          ["quasiprob", "--rho", "{w}/rho.json", "--points", "{w}/points.json",
           "--out", "{w}/quasi.json"]], ["frames", "plane", "weyl"]),
        ([["sic", "generate", "--builtin", "qutrit", "--out", "{w}/family.json"]],
         ["plane", "siclab", "weyl"]),
    ],
    ids=["mub", "plane", "frame-quasiprob", "sic"],
)
def test_each_call_loads_only_the_layers_it_runs(tmp_path, argvs, layers):
    """A call loads the layers its handler calls and none other: only ``sic``
    calls load siclab, and they load no frames."""
    mixed = [[1 / 3 if i == j else 0.0, 0.0] for i in range(3) for j in range(3)]
    (tmp_path / "rho.json").write_text(json.dumps({"dim": 3, "entries": mixed}))
    argvs = [[a.format(w=tmp_path) for a in argv] for argv in argvs]
    rcs, loaded = _fresh(
        "import json, sys\n"
        "from mubsic import cli\n"
        f"rcs = [cli.run(argv) for argv in {argvs!r}]\n"
        f"print(json.dumps([rcs, {MUBSIC_MODULES}]))"
    )
    assert rcs == [0] * len(argvs)
    assert loaded == sorted(["mubsic", "mubsic.cli", "mubsic.linalg"]
                            + [f"mubsic.{m}" for m in layers])


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        siclab.no_such_name  # noqa: B018


def test_only_the_search_calls_the_module_attribute(monkeypatch):
    original = siclab.least_squares
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setitem(siclab.__dict__, "least_squares", counting)
    siclab.search_fiducial(3, siclab.SearchConfig(seed=1))
    searches = len(calls)
    res = siclab.solve_cyclic_probability(5, seed=1, restarts=2)
    assert searches >= 1
    assert len(calls) == searches
    assert len(res.solutions) == 2

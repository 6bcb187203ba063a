"""scipy is loaded only by the fiducial search, on first use; the cyclic
probability solver runs on numpy alone.

The import checks run in fresh interpreters: within the suite, earlier
searches have already imported scipy, so an in-process check proves nothing.
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


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["sic", "search", "--d", "3"], True),
        (["sic", "solve-prob", "--d", "3"], False),  # closed form, no solver
        (["sic", "solve-prob", "--d", "5"], False),  # numpy Gauss-Newton
    ],
)
def test_only_solving_calls_load_scipy(argv, loads):
    rc, loaded = _fresh(
        "import json, sys\n"
        "from mubsic import cli\n"
        f"rc = cli.run({argv!r})\n"
        "print(json.dumps([rc, 'scipy.optimize' in sys.modules]))"
    )
    assert (rc, loaded) == (0, loads)


def test_least_squares_resolves_to_scipy():
    import scipy.optimize

    from mubsic.siclab import least_squares

    assert siclab.least_squares is scipy.optimize.least_squares
    assert least_squares is scipy.optimize.least_squares


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        siclab.no_such_name  # noqa: B018


def test_only_the_search_calls_the_module_attribute(monkeypatch):
    original = siclab.least_squares
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return original(*args, **kwargs)

    monkeypatch.setitem(siclab.__dict__, "least_squares", counting)
    siclab.search_fiducial(3, siclab.SearchConfig(seed=1))
    searches = len(calls)
    res = siclab.solve_cyclic_probability(5, seed=1, restarts=2)
    assert searches >= 1
    assert len(calls) == searches
    assert len(res.solutions) == 2

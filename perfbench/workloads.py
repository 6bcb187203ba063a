"""The three benchmark workloads: seeded inputs and the mubsic CLI steps.

Every workload is a closed loop with one client: each step runs only after the
previous one has finished, and most steps consume an artifact written by an
earlier step.  Arguments use two placeholders, ``{inp}`` for the directory of
generated inputs and ``{out}`` for the pass's own work directory, so the same
step list serves a subprocess pass and an in-process pass.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sic-hunt", "frame-bridge", "cli-tour")

# sic-hunt runs the fiducial chain at these dimensions.  At d >= 17 the number
# of search restarts, and so the chain time, varies several-fold with the seed
# (2-8 restarts of 1.3-2 s each at d = 17), which no run length that fits the
# benchmark's time budget can average out.  At d = 11 and 13 a search takes
# 1-2 restarts for most seeds.
SIC_DIMS = (11, 13)
FRAME_DIM = 19


@dataclass(frozen=True)
class Step:
    """One CLI call and what its output must show.

    ``expect_text`` must appear on stdout; ``checks`` name output checks in
    ``verdicts.CHECKS``; ``n_columns`` is the column count a ``groups`` check
    expects.  A step with ``expect_rc == 2`` feeds a malformed input, whose
    documented outcome is exit 2 with a one-line ``error:`` message;
    ``defect`` describes a known defect that makes it end otherwise.
    """

    argv: tuple
    expect_rc: int = 0
    expect_text: str = ""
    checks: tuple = ()
    n_columns: int = 0
    defect: str = ""

    def resolve(self, inputs: str, work: str) -> list[str]:
        return [str(a).format(inp=inputs, out=work) for a in self.argv]


def _fmt(x: float) -> str:
    """The CLI's 12-significant-digit number format."""
    return f"{x:.12g}"


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def random_rho(rng: random.Random, d: int, trace: float = 1.0) -> dict:
    """Operator JSON of a random density matrix A A† scaled to ``trace``.

    Entry (j, i) is computed as the exact conjugate of entry (i, j), so the
    matrix is Hermitian to the last bit.
    """
    a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)]
    m = [[sum(a[i][k] * a[j][k].conjugate() for k in range(d)) for j in range(d)] for i in range(d)]
    scale = trace / sum(m[i][i].real for i in range(d))
    return {"dim": d, "entries": [[z.real * scale, z.imag * scale] for row in m for z in row]}


def _random_ket(rng: random.Random, d: int) -> list:
    ket = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
    norm = sum(abs(z) ** 2 for z in ket) ** 0.5
    return [[z.real / norm, z.imag / norm] for z in ket]


def _sic_chain(d: int, seed: int) -> list[Step]:
    fid, fam, spec = f"{{out}}/fiducial{d}.json", f"{{out}}/family{d}.json", f"{{out}}/spectra{d}.csv"
    return [
        Step(("sic", "search", "--d", d, "--seed", seed, "--restarts", 200, "--out", fid),
             checks=("converged",)),
        Step(("sic", "generate", "--fiducial", fid, "--out", fam), checks=("verdict",)),
        Step(("sic", "verify", "--in", fam), checks=("verdict",)),
        Step(("sic", "spectra", "--in", fam, "--out", spec), expect_text=f"d={d} spectra"),
        Step(("sic", "group", "--in", spec, "--out", f"{{out}}/groups{d}.json"),
             checks=("groups",), n_columns=d + 1),
    ]


def _sic_hunt(rng: random.Random, inputs: str) -> list[Step]:
    steps = []
    for d in SIC_DIMS:
        steps += _sic_chain(d, rng.randrange(2**31))
    return steps


def _frame_bridge(rng: random.Random, inputs: str) -> list[Step]:
    d = FRAME_DIM
    _write(os.path.join(inputs, "rho.json"), json.dumps(random_rho(rng, d)) + "\n")
    beta = d * (d - 1)
    return [
        Step(("frame", "from-mub", "--d", d, "--out", "{out}/points.json"),
             expect_text=f"point frame d={d} beta={_fmt(beta)},"),
        Step(("frame", "bridge", "--points", "{out}/points.json", "--out", "{out}/lines.json"),
             expect_text=f"line frame d={d} alpha={_fmt(beta * (d + 1))}"),
        Step(("frame", "verify", "--points", "{out}/points.json", "--lines", "{out}/lines.json"),
             checks=("verdict",)),
        Step(("quasiprob", "--rho", "{inp}/rho.json", "--points", "{out}/points.json",
              "--out", "{out}/quasi.json"), checks=("total",)),
        Step(("frame", "from-hg", "--d", d, "--out", "{out}/hg.json"),
             expect_text=f"point frame d={d} beta={_fmt((d - 1) / 2)},"),
        Step(("plane", "verify", "--d", d), checks=("axioms",)),
    ]


def _cli_tour(rng: random.Random, inputs: str) -> list[Step]:
    """Every subcommand of the README tour at d <= 5, then malformed inputs."""
    _write(os.path.join(inputs, "rho3.json"), json.dumps(random_rho(rng, 3)) + "\n")
    search_seed, solve_seed = rng.randrange(2**31), rng.randrange(2**31)

    # Malformed inputs.  Each one reaches a parser inside a handler, not
    # argparse, whose rejection message is a usage block rather than one line.
    bad_trace = random_rho(rng, 3, trace=rng.uniform(1.5, 3.0))
    _write(os.path.join(inputs, "rho_bad_trace.json"), json.dumps(bad_trace) + "\n")
    frame_text = json.dumps({"d": 3, "beta": 6.0, "ops": [random_rho(rng, 3) for _ in range(12)]})
    _write(os.path.join(inputs, "points_cut.json"),
           frame_text[: rng.randrange(len(frame_text) // 4, 3 * len(frame_text) // 4)])
    ket = _random_ket(rng, 5)
    bad = rng.randrange(5)
    ket[bad][0] = f"{ket[bad][0]:.6f}"
    _write(os.path.join(inputs, "ket_text.json"), json.dumps({"d": 5, "ket": ket}) + "\n")
    rows = ["m,j," + ",".join(f"lambda_{i}" for i in range(1, 6))]
    for m in range(rng.randint(1, 5)):
        values = sorted((rng.random() for _ in range(5)), reverse=True)
        rows.append(f"{m},0," + ",".join(_fmt(v) for v in values))
    _write(os.path.join(inputs, "spectra_cut.csv"), "\n".join(rows) + "\n")
    composite = rng.choice((4, 6, 8, 9, 10, 12, 14, 15))

    return [
        Step(("mub", "build", "--d", 5, "--out", "{out}/bases.json"), expect_text="built 6 bases for d=5"),
        Step(("mub", "verify", "--d", 5), checks=("verdict",)),
        Step(("plane", "build", "--d", 3, "--kind", "dapg", "--export", "dot", "--out", "{out}/plane.dot"),
             expect_text="dapg d=3: 12 points, 9 lines"),
        Step(("plane", "build", "--d", 3, "--kind", "dapg", "--export", "json", "--out", "{out}/plane.json"),
             expect_text="dapg d=3: 12 points, 9 lines"),
        Step(("plane", "verify", "--d", 3), checks=("axioms",)),
        Step(("plane", "verify", "--d", 5, "--kind", "apg"), checks=("axioms",)),
        Step(("frame", "from-mub", "--d", 3, "--out", "{out}/points.json"),
             expect_text="point frame d=3 beta=6,"),
        Step(("frame", "bridge", "--points", "{out}/points.json", "--out", "{out}/lines.json"),
             expect_text="line frame d=3 alpha=24"),
        Step(("frame", "verify", "--points", "{out}/points.json", "--lines", "{out}/lines.json"),
             checks=("verdict",)),
        Step(("frame", "from-hg", "--d", 5, "--out", "{out}/hg.json"), expect_text="point frame d=5 beta=2,"),
        Step(("quasiprob", "--rho", "{inp}/rho3.json", "--points", "{out}/points.json",
              "--out", "{out}/quasi.json"), checks=("total",)),
        Step(("sic", "generate", "--builtin", "qutrit", "--out", "{out}/family3.json"), checks=("verdict",)),
        Step(("sic", "generate", "--builtin", "qubit", "--out", "{out}/family2.json"), checks=("verdict",)),
        *_sic_chain(5, search_seed),
        Step(("sic", "solve-prob", "--d", 3), checks=("solutions",)),
        Step(("sic", "solve-prob", "--d", 5, "--seed", solve_seed), checks=("solutions",)),
        Step(("mub", "verify", "--d", composite), expect_rc=2),
        Step(("frame", "verify", "--points", "{inp}/points_cut.json"), expect_rc=2),
        Step(("quasiprob", "--rho", "{inp}/rho_bad_trace.json", "--points", "{out}/points.json"),
             expect_rc=2),
        Step(("sic", "group", "--in", "{inp}/spectra_cut.csv"), expect_rc=2,
             defect="truncated spectra CSV ends in an uncaught TypeError"),
        Step(("sic", "generate", "--fiducial", "{inp}/ket_text.json"), expect_rc=2,
             defect="non-numeric ket entry ends in an uncaught TypeError"),
    ]


_BUILDERS = {"sic-hunt": _sic_hunt, "frame-bridge": _frame_bridge, "cli-tour": _cli_tour}


def build(name: str, seed: int, inputs: str) -> list[Step]:
    """Write the workload's seeded inputs into ``inputs`` and return its steps."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), inputs)

"""Finite incidence geometry of prime order d: the affine plane AG(2, d) and
the dual affine plane obtained by deleting one point class, which indexes the
operator frames downstream.

Dual affine plane conventions: points are (m, j) with column j ∈ {0..d}
(column d plays the role of the computational label), lines are (a, b) with
a, b ∈ {0..d−1}; line (a, b) contains point (b, d) and, for each j < d, the
point (a + jb mod d, j).  Every line has d+1 points (one per column), every
point lies on d lines, and two distinct lines meet in exactly one point.

A dual plane is held as its 0/1 point×line incidence matrix N: incidence sums
run along N in row order (:func:`incidence_sum`), and the axiom checks are
exact counts on NᵀN = J + d·I and on NNᵀ (0 within a column, 1 across
columns).  Both planes report their axiom checks as an :class:`IncidenceReport`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import header_int, parse_json, read_only
from .weyl import require_prime

Point = tuple[int, int]
Line = tuple[int, int]


@dataclass
class IncidenceReport:
    """Axiom violations of a plane of either kind (empty list = pass)."""

    d: int
    n_points: int
    n_lines: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "all axioms pass" if self.ok else f"{len(self.violations)} violations"
        return f"{self.n_points} points, {self.n_lines} lines, {status}"


# --- affine plane -----------------------------------------------------------


@dataclass(frozen=True)
class Apg:
    """AG(2, d): d² points, d(d+1) lines in d+1 parallel classes of d."""

    d: int
    points: tuple[Point, ...]
    lines: tuple[frozenset, ...]


def build_apg(d: int) -> Apg:
    d = require_prime(d)
    points = tuple((x, y) for x in range(d) for y in range(d))
    lines = []
    for a in range(d):          # slope classes
        for b in range(d):
            lines.append(frozenset((x, (a * x + b) % d) for x in range(d)))
    for c in range(d):          # vertical class
        lines.append(frozenset((c, y) for y in range(d)))
    return Apg(d=d, points=points, lines=tuple(lines))


def verify_apg(apg: Apg) -> IncidenceReport:
    """Exact combinatorial check of the affine-plane axioms: d² points,
    d(d+1) lines of d points each, and one line through any two points."""
    d = apg.d
    violations = []
    if len(apg.points) != d * d:
        violations.append(f"expected {d * d} points, found {len(apg.points)}")
    if len(apg.lines) != d * (d + 1):
        violations.append(f"expected {d * (d + 1)} lines, found {len(apg.lines)}")
    for ln in apg.lines:
        if len(ln) != d:
            violations.append(f"line {sorted(ln)} has {len(ln)} points, expected {d}")
    pts = apg.points
    members = np.array([[p in ln for ln in apg.lines] for p in pts])
    for i, k, joining in _pair_counts(members.reshape(len(pts), len(apg.lines)), 1):
        violations.append(f"points {pts[i]}, {pts[k]} lie on {joining} common lines")
    return IncidenceReport(d=d, n_points=len(pts), n_lines=len(apg.lines), violations=violations)


def _pair_counts(members: np.ndarray, want) -> list[tuple[int, int, int]]:
    """(i, k, n), in row-major order, for each pair i < k of rows of the 0/1
    matrix ``members`` that share n ≠ ``want[i, k]`` columns.  The counts are
    taken in float64, which is exact: no count exceeds the column count."""
    a = members.astype(np.float64)
    counts = a @ a.T
    rows, cols = np.nonzero(np.triu(counts != want, 1))
    return [(int(i), int(k), int(counts[i, k])) for i, k in zip(rows, cols)]


# --- dual affine plane ------------------------------------------------------
#
# Point order (column j major, index m minor) and line order (a major, b
# minor) are the order of operators in every frame and family file.


def point_keys(d: int) -> list[Point]:
    """The d(d+1) dual-plane points (m, j) in file order."""
    return [(m, j) for j in range(d + 1) for m in range(d)]


def line_keys(d: int) -> list[Line]:
    """The d² dual-plane lines (a, b) in file order."""
    return [(a, b) for a in range(d) for b in range(d)]


def column_labels(d: int) -> np.ndarray:
    """Column j of each point, in :func:`point_keys` order."""
    return np.repeat(np.arange(d + 1), d)


@dataclass(frozen=True)
class Dapg:
    """Dual affine plane of order d as an explicit incidence structure.

    ``incidence`` is the read-only 0/1 matrix N with rows in ``points`` order
    and columns in ``lines`` order.  ``build_dapg`` constructs the canonical
    plane; :meth:`from_incidence` accepts arbitrary (possibly broken)
    incidence data so that :func:`verify_incidence` can flag it.
    """

    d: int
    points: tuple[Point, ...]
    lines: tuple[Line, ...]
    incidence: np.ndarray = field(repr=False)

    @classmethod
    def from_incidence(cls, d: int, points_on: dict) -> "Dapg":
        points_on = {tuple(ln): [tuple(p) for p in pts] for ln, pts in points_on.items()}
        lines = tuple(sorted(points_on))
        labels = {p for pts in points_on.values() for p in pts}
        points = tuple(sorted(labels, key=lambda p: (p[1], p[0])))
        row = {p: i for i, p in enumerate(points)}
        incidence = np.zeros((len(points), len(lines)), dtype=np.int8)
        for c, ln in enumerate(lines):
            incidence[[row[p] for p in points_on[ln]], c] = 1
        return cls(d=int(d), points=points, lines=lines, incidence=read_only(incidence))

    def points_on(self, line: Line) -> tuple[Point, ...]:
        """Points of ``line`` in ``points`` order."""
        c = _index(self.lines, line, "line")
        return tuple(self.points[r] for r in np.flatnonzero(self.incidence[:, c]))

    def lines_through(self, point: Point) -> tuple[Line, ...]:
        """Lines through ``point`` in ``lines`` order."""
        r = _index(self.points, point, "point")
        return tuple(self.lines[c] for c in np.flatnonzero(self.incidence[r]))


def _index(labels: tuple, label, what: str) -> int:
    if tuple(label) not in labels:
        raise ValueError(f"no such {what}: {tuple(label)}")
    return labels.index(tuple(label))


def incidence_sum(incidence: np.ndarray, terms) -> np.ndarray:
    """out[c] = Σ terms[r] over the rows r with incidence[r, c] = 1, for one
    array or number per row; pass ``N`` to sum over the points of each line
    and ``N.T`` to sum over the lines through each point.

    Each out[c] starts from zeros and adds its terms in increasing r, in
    place, so no temporary is built besides ``out``.  A sum beyond float64
    reads inf (or NaN) without a warning; the writers refuse it.
    """
    out = np.zeros((incidence.shape[1],) + np.shape(terms[0]), dtype=np.result_type(terms[0]))
    cols, rows = np.nonzero(incidence.T)  # grouped by c, r increasing
    with np.errstate(over="ignore", invalid="ignore"):
        for c, r in zip(cols.tolist(), rows.tolist()):
            out[c] += terms[r]
    return out


def build_dapg(d: int) -> Dapg:
    d = require_prime(d)
    points_on = {}
    for a, b in line_keys(d):
        pts = [((a + j * b) % d, j) for j in range(d)]
        pts.append((b, d))
        points_on[(a, b)] = tuple(pts)
    return Dapg.from_incidence(d, points_on)


def verify_incidence(geom: Dapg) -> IncidenceReport:
    """Exact combinatorial check of the dual-affine axioms, by counts on N.

    Checks: point/line counts d(d+1) and d²; every line has d+1 points, one
    per column; every point lies on d lines; two distinct lines meet in
    exactly one point (NᵀN = J + d·I); points share a line iff they sit in
    different columns (NNᵀ is 0 within a column, 1 across columns).
    """
    d = geom.d
    violations = []
    if len(geom.points) != d * (d + 1):
        violations.append(f"expected {d * (d + 1)} points, found {len(geom.points)}")
    if len(geom.lines) != d * d:
        violations.append(f"expected {d * d} lines, found {len(geom.lines)}")

    column = np.array([p[1] for p in geom.points])
    for c, ln in enumerate(geom.lines):
        cols = sorted(column[geom.incidence[:, c] == 1].tolist())
        if len(cols) != d + 1:
            violations.append(f"line {ln} has {len(cols)} points, expected {d + 1}")
        elif cols != list(range(d + 1)):
            violations.append(f"line {ln} misses a column: columns {cols}")

    degrees = geom.incidence.sum(axis=1)
    for r in np.flatnonzero(degrees != d):
        violations.append(f"point {geom.points[r]} lies on {degrees[r]} lines, expected {d}")

    for i, k, meet in _pair_counts(geom.incidence.T, 1):
        violations.append(f"lines {geom.lines[i]}, {geom.lines[k]} meet in {meet} points")

    across = column[:, None] != column
    for i, k, shared in _pair_counts(geom.incidence, across):
        p, q = geom.points[i], geom.points[k]
        violations.append(f"points {p}, {q} share {shared} lines, expected {int(across[i, k])}")

    return IncidenceReport(
        d=d, n_points=len(geom.points), n_lines=len(geom.lines), violations=violations
    )


# --- export / import --------------------------------------------------------


def export_incidence(geom: Dapg, fmt: str) -> str:
    """Serialize the incidence structure; ``fmt`` is ``"json"`` or ``"dot"``.

    Output ordering is deterministic (points by (column, index), lines
    lexicographic), so identical geometries export byte-identically.
    """
    # (point, line) pairs, line by line and each line's points in order.
    cols, rows = np.nonzero(geom.incidence.T)
    pairs = [(geom.points[r], geom.lines[c]) for c, r in zip(cols.tolist(), rows.tolist())]
    if fmt == "json":
        arrays = {"points": geom.points, "lines": geom.lines, "incidence": pairs}
        return _plane_json(geom.d, arrays)
    if fmt == "dot":
        points = {(m, j): f"p{m}_{j}" for m, j in geom.points}
        lines = {(a, b): f"l{a}_{b}" for a, b in geom.lines}
        members = [(points[p], lines[ln]) for p, ln in pairs]
        return _dot(f"dapg_{geom.d}", points.values(), lines.values(), members)
    raise ValueError(f"unknown export format: {fmt!r} (want 'json' or 'dot')")


def _plane_json(d: int, arrays: dict) -> str:
    """``json.dumps({"d": d, **arrays}, indent=1) + "\\n"``, written through
    :func:`_indented_json`: the text of both plane JSON exports."""
    body = "".join(f',\n "{k}": {_indented_json(v, 1)}' for k, v in arrays.items())
    return f'{{\n "d": {d}{body}\n}}\n'


def _indented_json(rows, depth: int) -> str:
    """``json.dumps(rows, indent=1)`` as it reads at nesting ``depth`` inside
    an enclosing object, for a nonempty sequence of equally deep nonempty
    sequences of ints.  ``indent`` would send json to its pure-Python
    encoder, so the C encoder writes the one-line text, and each separator
    between siblings of height h (h = 0 between ints) is then replaced,
    tallest first, by its line breaks: h closing brackets, a comma, h opening
    brackets."""
    text = json.dumps(rows)
    levels = len(text) - len(text.lstrip("["))
    pad = ["\n" + " " * (depth + k) for k in range(levels + 1)]

    def closing(h):
        return "".join(pad[levels - k] + "]" for k in range(1, h + 1))

    def opening(h):
        return "".join(pad[levels - h + k] + "[" for k in range(h)) + pad[levels]

    for h in range(levels - 1, -1, -1):
        text = text.replace("]" * h + ", " + "[" * h, closing(h) + "," + opening(h))
    return opening(levels)[len(pad[0]):] + text[levels:-levels] + closing(levels)


def _dot(name: str, point_names, line_names, members) -> str:
    """Graphviz text of a point-line incidence graph: a circle node per point,
    a box node per line and an edge per (point, line) name pair of ``members``."""
    out = [f"graph {name} {{", "  node [shape=circle];"]
    out += [f'  "{p}";' for p in point_names]
    out.append("  node [shape=box];")
    out += [f'  "{ln}";' for ln in line_names]
    out += [f'  "{p}" -- "{ln}";' for p, ln in members]
    return "\n".join(out + ["}"]) + "\n"


def export_apg(apg: Apg, fmt: str) -> str:
    """Serialize an affine plane; ``fmt`` is ``"json"`` or ``"dot"``."""
    lines_sorted = [sorted(ln) for ln in apg.lines]
    if fmt == "json":
        return _plane_json(apg.d, {"points": apg.points, "lines": lines_sorted})
    if fmt == "dot":
        lines = [f"l{i}" for i in range(len(lines_sorted))]
        members = [(f"p{x}_{y}", lines[i]) for i, ln in enumerate(lines_sorted) for x, y in ln]
        return _dot(f"apg_{apg.d}", [f"p{x}_{y}" for x, y in apg.points], lines, members)
    raise ValueError(f"unknown export format: {fmt!r} (want 'json' or 'dot')")


def incidence_from_json(text: str) -> Dapg:
    """Rebuild a Dapg from :func:`export_incidence` JSON output, whose point
    list must name each point of the incidence pairs once, in any order."""
    obj = parse_json(text)
    try:
        d = header_int(obj, "d")
        points = [tuple(p) for p in obj["points"]]
        lines = [tuple(ln) for ln in obj["lines"]]
        pairs = [(tuple(p), tuple(ln)) for p, ln in obj["incidence"]]
        listed, paired = set(points), {p for p, _ in pairs}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed incidence object: {exc}") from exc
    if len(listed) != len(points):
        raise ValueError("plane JSON lists a point twice")
    if listed != paired:
        raise ValueError("plane JSON point list differs from the points of its incidence pairs")
    points_on: dict[Line, list[Point]] = {ln: [] for ln in lines}
    for p, ln in pairs:
        if ln not in points_on:
            raise ValueError(f"incidence pair references unknown line {ln}")
        points_on[ln].append(p)
    return Dapg.from_incidence(d, points_on)

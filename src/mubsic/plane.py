"""Finite incidence geometry of prime order d: the affine plane AG(2, d) and
the dual affine plane obtained by deleting one point class, which indexes the
operator frames downstream.

Dual affine plane conventions: points are (m, j) with column j ∈ {0..d}
(column d plays the role of the computational label), lines are (a, b) with
a, b ∈ {0..d−1}; line (a, b) contains point (b, d) and, for each j < d, the
point (a + jb mod d, j).  Every line has d+1 points (one per column), every
point lies on d lines, and two distinct lines meet in exactly one point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .weyl import require_prime

Point = tuple[int, int]
Line = tuple[int, int]


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


def verify_apg(apg: Apg) -> list[str]:
    """Axiom violations of an affine plane structure (empty list = pass)."""
    d = apg.d
    violations = []
    if len(apg.points) != d * d:
        violations.append(f"expected {d * d} points, found {len(apg.points)}")
    if len(apg.lines) != d * (d + 1):
        violations.append(f"expected {d * (d + 1)} lines, found {len(apg.lines)}")
    for ln in apg.lines:
        if len(ln) != d:
            violations.append(f"line {sorted(ln)} has {len(ln)} points, expected {d}")
    pts = list(apg.points)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            joining = sum(1 for ln in apg.lines if p in ln and q in ln)
            if joining != 1:
                violations.append(f"points {p}, {q} lie on {joining} common lines")
    return violations


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

    ``build_dapg`` constructs the canonical one; :meth:`from_incidence`
    accepts arbitrary (possibly broken) incidence data so that
    :func:`verify_incidence` can flag it.
    """

    d: int
    points: tuple[Point, ...]
    lines: tuple[Line, ...]
    _points_on: dict = field(repr=False)
    _lines_through: dict = field(repr=False)

    @classmethod
    def from_incidence(cls, d: int, points_on: dict) -> "Dapg":
        points_on = {tuple(ln): tuple(map(tuple, pts)) for ln, pts in points_on.items()}
        lines = tuple(sorted(points_on))
        seen: dict[Point, list[Line]] = {}
        for ln in lines:
            for p in points_on[ln]:
                seen.setdefault(p, []).append(ln)
        points = tuple(sorted(seen, key=lambda p: (p[1], p[0])))
        lines_through = {p: tuple(sorted(seen[p])) for p in points}
        return cls(
            d=int(d),
            points=points,
            lines=lines,
            _points_on=points_on,
            _lines_through=lines_through,
        )

    def points_on(self, line: Line) -> tuple[Point, ...]:
        key = tuple(line)
        if key not in self._points_on:
            raise ValueError(f"no such line: {key}")
        return self._points_on[key]

    def lines_through(self, point: Point) -> tuple[Line, ...]:
        key = tuple(point)
        if key not in self._lines_through:
            raise ValueError(f"no such point: {key}")
        return self._lines_through[key]

    def incidence_pairs(self) -> set[tuple[Point, Line]]:
        return {(p, ln) for ln in self.lines for p in self.points_on(ln)}


def build_dapg(d: int) -> Dapg:
    d = require_prime(d)
    points_on = {}
    for a, b in line_keys(d):
        pts = [((a + j * b) % d, j) for j in range(d)]
        pts.append((b, d))
        points_on[(a, b)] = tuple(pts)
    return Dapg.from_incidence(d, points_on)


@dataclass
class IncidenceReport:
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


def verify_incidence(geom: Dapg) -> IncidenceReport:
    """Exact combinatorial check of the dual-affine axioms.

    Checks: point/line counts d(d+1) and d²; every line has d+1 points, one
    per column; every point lies on d lines; two distinct lines meet in
    exactly one point; points share a line iff they sit in different columns.
    """
    d = geom.d
    violations = []
    if len(geom.points) != d * (d + 1):
        violations.append(f"expected {d * (d + 1)} points, found {len(geom.points)}")
    if len(geom.lines) != d * d:
        violations.append(f"expected {d * d} lines, found {len(geom.lines)}")

    for ln in geom.lines:
        pts = geom.points_on(ln)
        if len(set(pts)) != d + 1:
            violations.append(f"line {ln} has {len(set(pts))} points, expected {d + 1}")
            continue
        cols = sorted(p[1] for p in pts)
        if cols != list(range(d + 1)):
            violations.append(f"line {ln} misses a column: columns {cols}")

    for p in geom.points:
        lns = geom.lines_through(p)
        if len(set(lns)) != d:
            violations.append(f"point {p} lies on {len(set(lns))} lines, expected {d}")

    line_sets = {ln: set(geom.points_on(ln)) for ln in geom.lines}
    lines = list(geom.lines)
    for i, ln in enumerate(lines):
        for ln2 in lines[i + 1:]:
            meet = len(line_sets[ln] & line_sets[ln2])
            if meet != 1:
                violations.append(f"lines {ln}, {ln2} meet in {meet} points")

    for i, p in enumerate(geom.points):
        for q in geom.points[i + 1:]:
            shared = len(set(geom.lines_through(p)) & set(geom.lines_through(q)))
            want = 0 if p[1] == q[1] else 1
            if shared != want:
                violations.append(
                    f"points {p}, {q} share {shared} lines, expected {want}"
                )

    return IncidenceReport(
        d=d, n_points=len(geom.points), n_lines=len(geom.lines), violations=violations
    )


# --- export / import --------------------------------------------------------


def export_incidence(geom: Dapg, fmt: str) -> str:
    """Serialize the incidence structure; ``fmt`` is ``"json"`` or ``"dot"``.

    Output ordering is deterministic (points by (column, index), lines
    lexicographic), so identical geometries export byte-identically.
    """
    if fmt == "json":
        obj = {
            "d": geom.d,
            "points": [list(p) for p in geom.points],
            "lines": [list(ln) for ln in geom.lines],
            "incidence": [
                [list(p), list(ln)] for ln in geom.lines for p in geom.points_on(ln)
            ],
        }
        return json.dumps(obj, indent=1) + "\n"
    if fmt == "dot":
        out = [f"graph dapg_{geom.d} {{"]
        out.append("  node [shape=circle];")
        for m, j in geom.points:
            out.append(f'  "p{m}_{j}";')
        out.append("  node [shape=box];")
        for a, b in geom.lines:
            out.append(f'  "l{a}_{b}";')
        for ln in geom.lines:
            a, b = ln
            for m, j in geom.points_on(ln):
                out.append(f'  "p{m}_{j}" -- "l{a}_{b}";')
        out.append("}")
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown export format: {fmt!r} (want 'json' or 'dot')")


def export_apg(apg: Apg, fmt: str) -> str:
    """Serialize an affine plane; ``fmt`` is ``"json"`` or ``"dot"``."""
    lines_sorted = [sorted(ln) for ln in apg.lines]
    if fmt == "json":
        obj = {
            "d": apg.d,
            "points": [list(p) for p in apg.points],
            "lines": [[list(p) for p in ln] for ln in lines_sorted],
        }
        return json.dumps(obj, indent=1) + "\n"
    if fmt == "dot":
        out = [f"graph apg_{apg.d} {{"]
        out.append("  node [shape=circle];")
        for x, y in apg.points:
            out.append(f'  "p{x}_{y}";')
        out.append("  node [shape=box];")
        for i in range(len(lines_sorted)):
            out.append(f'  "l{i}";')
        for i, ln in enumerate(lines_sorted):
            for x, y in ln:
                out.append(f'  "p{x}_{y}" -- "l{i}";')
        out.append("}")
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown export format: {fmt!r} (want 'json' or 'dot')")


def incidence_from_json(text: str) -> Dapg:
    """Rebuild a Dapg from :func:`export_incidence` JSON output."""
    obj = json.loads(text)
    try:
        d = int(obj["d"])
        lines = [tuple(ln) for ln in obj["lines"]]
        pairs = [(tuple(p), tuple(ln)) for p, ln in obj["incidence"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed incidence object: {exc}") from exc
    points_on: dict[Line, list[Point]] = {ln: [] for ln in lines}
    for p, ln in pairs:
        if ln not in points_on:
            raise ValueError(f"incidence pair references unknown line {ln}")
        points_on[ln].append(p)
    return Dapg.from_incidence(d, points_on)

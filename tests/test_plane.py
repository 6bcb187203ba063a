import json

import numpy as np
import pytest
from hypothesis import given

from helpers import PRIME_DIMS, PRIMES
from mubsic.plane import (
    Apg,
    Dapg,
    build_apg,
    build_dapg,
    export_apg,
    export_incidence,
    incidence_from_json,
    incidence_sum,
    verify_apg,
    verify_incidence,
)


# --- affine plane ---------------------------------------------------------------


def test_apg_smallest_plane():
    apg = build_apg(2)
    assert len(apg.points) == 4
    assert len(apg.lines) == 6
    assert all(len(ln) == 2 for ln in apg.lines)
    assert verify_apg(apg).violations == []


def test_apg_order_three():
    apg = build_apg(3)
    assert len(apg.points) == 9
    assert len(apg.lines) == 12
    assert verify_apg(apg).violations == []
    # The 12 lines fall into 4 parallel classes of 3 pairwise-disjoint lines.
    classes = 0
    lines = list(apg.lines)
    while lines:
        ln = lines.pop()
        parallel = [ln2 for ln2 in lines if not (ln & ln2)]
        assert len(parallel) == 2
        for ln2 in parallel:
            lines.remove(ln2)
        classes += 1
    assert classes == 4


def test_apg_two_points_one_line():
    apg = build_apg(5)
    pts = list(apg.points)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            assert sum(1 for ln in apg.lines if p in ln and q in ln) == 1


def test_apg_rejects_non_prime():
    with pytest.raises(ValueError):
        build_apg(4)


# --- dual plane construction -------------------------------------------------------


def test_dapg_line_membership_rule():
    geom = build_dapg(3)
    assert set(geom.points_on((1, 2))) == {(1, 0), (0, 1), (2, 2), (2, 3)}


def test_dapg_incidence_orders():
    # points_on lists a line's points column by column, and lines_through
    # lists lines in (a, b) order: the orders every bridge sums in.
    d = 5
    geom = build_dapg(d)
    for a, b in geom.lines:
        want = tuple(((a + j * b) % d, j) for j in range(d)) + ((b, d),)
        assert geom.points_on((a, b)) == want
    for p in geom.points:
        want = tuple(ln for ln in geom.lines if p in geom.points_on(ln))
        assert geom.lines_through(p) == want
    assert geom.incidence.shape == (d * (d + 1), d * d)
    assert not geom.incidence.flags.writeable


def test_dapg_counts():
    geom = build_dapg(3)
    assert len(geom.points) == 12
    assert len(geom.lines) == 9


def test_dapg_lines_through_last_column_point():
    geom = build_dapg(2)
    assert set(geom.lines_through((0, 2))) == {(0, 0), (1, 0)}


def test_dapg_rejects_non_prime():
    with pytest.raises(ValueError):
        build_dapg(6)


def test_duality_counts():
    for d in (2, 3, 5, 7, 11, 13):
        apg = build_apg(d)
        geom = build_dapg(d)
        assert (len(apg.points), len(apg.lines)) == (d * d, d * (d + 1))
        assert (len(geom.points), len(geom.lines)) == (d * (d + 1), d * d)


@given(PRIMES)
def test_dual_plane_is_the_affine_plane_transposed(d):
    """The dual plane's incidence is AG(2, d)'s, transposed, under the
    relabelling AG point (b, a) ↔ line (a, b), AG line y = s·x + m ↔ point
    (m, −s mod d) and AG line x = m ↔ point (m, d)."""
    apg, geom = build_apg(d), build_dapg(d)
    ag_line = {(m, -s % d): frozenset((x, (s * x + m) % d) for x in range(d))
               for s in range(d) for m in range(d)}
    ag_line.update({(m, d): frozenset((m, y) for y in range(d)) for m in range(d)})
    line_index = {ln: k for k, ln in enumerate(apg.lines)}
    point_index = {p: i for i, p in enumerate(apg.points)}
    transposed = np.zeros((len(apg.lines), len(apg.points)), dtype=geom.incidence.dtype)
    for k, ln in enumerate(apg.lines):
        transposed[k, [point_index[p] for p in ln]] = 1
    rows = [line_index[ag_line[p]] for p in geom.points]
    cols = [point_index[(b, a)] for a, b in geom.lines]
    assert np.array_equal(geom.incidence, transposed[np.ix_(rows, cols)])


# --- incidence verification ---------------------------------------------------------


def test_incidence_axioms_small_primes():
    for d in (2, 3, 5, 7, 11, 13):
        report = verify_incidence(build_dapg(d))
        assert report.ok, report.violations


@given(PRIMES)
def test_incidence_axioms_every_prime(d):
    geom = build_dapg(d)
    assert verify_incidence(geom).ok
    n = geom.incidence.astype(np.float64)  # counts ≤ d + 1: exact in float64
    assert np.array_equal(n.T @ n, 1 + d * np.eye(d * d))


def test_incidence_summary_string():
    report = verify_incidence(build_dapg(3))
    assert report.summary() == "12 points, 9 lines, all axioms pass"


def test_incidence_flags_duplicated_line():
    geom = build_dapg(2)
    points_on = {ln: geom.points_on(ln) for ln in geom.lines}
    points_on[(1, 1)] = points_on[(0, 0)]
    broken = Dapg.from_incidence(2, points_on)
    report = verify_incidence(broken)
    assert not report.ok
    assert any("meet in" in v for v in report.violations)


def _broken_dapg(edit):
    geom = build_dapg(3)
    points_on = {ln: list(geom.points_on(ln)) for ln in geom.lines}
    edit(points_on)
    return Dapg.from_incidence(3, points_on)


def test_incidence_flags_line_missing_a_column():
    def edit(points_on):
        points_on[(0, 0)][3] = (1, 2)

    assert verify_incidence(_broken_dapg(edit)).violations == [
        "line (0, 0) misses a column: columns [0, 1, 2, 2]",
        "point (1, 2) lies on 4 lines, expected 3",
        "point (0, 3) lies on 2 lines, expected 3",
        "lines (0, 0), (0, 2) meet in 2 points",
        "lines (0, 0), (2, 0) meet in 0 points",
        "lines (0, 0), (2, 1) meet in 2 points",
        "points (0, 0), (1, 2) share 2 lines, expected 1",
        "points (0, 0), (0, 3) share 0 lines, expected 1",
        "points (0, 1), (1, 2) share 2 lines, expected 1",
        "points (0, 1), (0, 3) share 0 lines, expected 1",
        "points (0, 2), (1, 2) share 1 lines, expected 0",
        "points (0, 2), (0, 3) share 0 lines, expected 1",
    ]


def test_incidence_flags_point_on_too_few_lines():
    def edit(points_on):
        del points_on[(2, 1)][3]

    assert verify_incidence(_broken_dapg(edit)).violations == [
        "line (2, 1) has 3 points, expected 4",
        "point (1, 3) lies on 2 lines, expected 3",
        "lines (0, 1), (2, 1) meet in 0 points",
        "lines (1, 1), (2, 1) meet in 0 points",
        "points (2, 0), (1, 3) share 0 lines, expected 1",
        "points (0, 1), (1, 3) share 0 lines, expected 1",
        "points (1, 2), (1, 3) share 0 lines, expected 1",
    ]


def test_apg_flags_broken_plane():
    apg = build_apg(3)
    lines = list(apg.lines)
    lines[4] = frozenset([(0, 0), (1, 1)])
    lines[7] = lines[0]
    assert verify_apg(Apg(d=3, points=apg.points, lines=tuple(lines))).violations == [
        "line [(0, 0), (1, 1)] has 2 points, expected 3",
        "points (0, 0), (1, 0) lie on 2 common lines",
        "points (0, 0), (1, 1) lie on 2 common lines",
        "points (0, 0), (2, 0) lie on 2 common lines",
        "points (0, 1), (1, 0) lie on 0 common lines",
        "points (0, 1), (1, 2) lie on 0 common lines",
        "points (0, 1), (2, 0) lie on 0 common lines",
        "points (0, 1), (2, 2) lie on 0 common lines",
        "points (1, 0), (2, 0) lie on 2 common lines",
        "points (1, 0), (2, 2) lie on 0 common lines",
        "points (1, 2), (2, 0) lie on 0 common lines",
    ]


def test_pairwise_line_intersections():
    geom = build_dapg(3)
    lines = list(geom.lines)
    pairs = 0
    for i, ln in enumerate(lines):
        for ln2 in lines[i + 1:]:
            common = set(geom.points_on(ln)) & set(geom.points_on(ln2))
            assert len(common) == 1
            pairs += 1
    assert pairs == 36


def test_same_column_points_share_no_line():
    geom = build_dapg(5)
    for j in range(6):
        for m in range(5):
            for m2 in range(m + 1, 5):
                common = set(geom.lines_through((m, j))) & set(
                    geom.lines_through((m2, j))
                )
                assert common == set()


def test_incidence_sum_matches_loop_on_irregular_incidence():
    # Outputs with 2, 0 and 3 terms, the empty one all zeros; the −0.0 terms,
    # as arrays and as numbers, check that each sum matches a loop from +0.0
    # bit for bit.
    incidence = np.array([[1, 0, 1], [0, 0, 1], [1, 0, 1]], dtype=np.int8)
    arrays = [np.array([-0.0, 1.5]), np.array([-0.0, -2.0]), np.array([-0.0, 1e-300])]
    for terms in (arrays, [-0.0, -0.0, -0.0], [-0.0, 0.1, 0.2]):
        out = incidence_sum(incidence, terms)
        for c in range(3):
            total = np.zeros(np.shape(terms[0]))
            for r in range(3):
                if incidence[r, c]:
                    total = total + terms[r]
            assert out[c].tobytes() == total.tobytes()


# --- queries -------------------------------------------------------------------------


def test_point_line_degrees():
    geom = build_dapg(5)
    for p in geom.points:
        assert len(geom.lines_through(p)) == 5
    for ln in geom.lines:
        assert len(geom.points_on(ln)) == 6
    assert len(geom.points_on((0, 0))) == 6
    assert len(build_dapg(3).points_on((0, 0))) == 4


def test_one_point_per_column_per_line():
    for d in (2, 3, 5):
        geom = build_dapg(d)
        for ln in geom.lines:
            cols = [j for _, j in geom.points_on(ln)]
            assert sorted(cols) == list(range(d + 1))


def test_column_lines_partition():
    # The d lines through each of the d points of one column cover every line
    # exactly once.
    geom = build_dapg(3)
    for j in range(4):
        seen = []
        for m in range(3):
            seen.extend(geom.lines_through((m, j)))
        assert sorted(seen) == sorted(geom.lines)


def test_unknown_labels_rejected():
    geom = build_dapg(3)
    with pytest.raises(ValueError):
        geom.points_on((3, 3))
    with pytest.raises(ValueError):
        geom.lines_through((0, 7))


# --- export ---------------------------------------------------------------------------


def test_export_json_counts():
    geom = build_dapg(2)
    obj = json.loads(export_incidence(geom, "json"))
    assert len(obj["points"]) == 6
    assert len(obj["lines"]) == 4
    assert len(obj["incidence"]) == 12


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_export_json_matches_indented_dumps(d):
    geom = build_dapg(d)
    obj = {
        "d": d,
        "points": [list(p) for p in geom.points],
        "lines": [list(ln) for ln in geom.lines],
        "incidence": [[list(p), list(ln)] for ln in geom.lines for p in geom.points_on(ln)],
    }
    assert export_incidence(geom, "json") == json.dumps(obj, indent=1) + "\n"
    apg = build_apg(d)
    obj = {
        "d": d,
        "points": [list(p) for p in apg.points],
        "lines": [[list(p) for p in sorted(ln)] for ln in apg.lines],
    }
    assert export_apg(apg, "json") == json.dumps(obj, indent=1) + "\n"


def test_export_dot_shape():
    text = export_incidence(build_dapg(2), "dot")
    assert text.startswith("graph")
    assert text.count("{") == text.count("}")
    assert "--" in text


@given(PRIMES)
def test_export_round_trip(d):
    geom = build_dapg(d)
    back = incidence_from_json(export_incidence(geom, "json"))
    assert (back.d, back.points, back.lines) == (geom.d, geom.points, geom.lines)
    assert np.array_equal(back.incidence, geom.incidence)


def test_import_checks_the_point_list():
    obj = json.loads(export_incidence(build_dapg(3), "json"))
    shuffled = dict(obj, points=obj["points"][::-1])
    assert incidence_from_json(json.dumps(shuffled)).points == build_dapg(3).points
    no_points = {k: v for k, v in obj.items() if k != "points"}
    for bad in (
        dict(obj, points=[[9, 9]]),                         # foreign points only
        dict(obj, points=obj["points"] + [[9, 9]]),         # one foreign point
        dict(obj, points=obj["points"][1:]),                # a point missing
        dict(obj, points=obj["points"] + obj["points"][:1]),  # a point repeated
        no_points,                                          # no point list
        dict(obj, points=[[0, [1]]]),                       # not a point label
    ):
        with pytest.raises(ValueError):
            incidence_from_json(json.dumps(bad))


def test_import_rejects_deeply_nested_text():
    # The parser's RecursionError becomes the ValueError every JSON reader gives.
    deep = '{"d": 3, "points": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ValueError, match="JSON nested too deeply to parse"):
        incidence_from_json(deep)


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        export_incidence(build_dapg(2), "yaml")
    with pytest.raises(ValueError):
        export_apg(build_apg(2), "csv")


def test_export_is_deterministic():
    a = export_incidence(build_dapg(5), "json")
    b = export_incidence(build_dapg(5), "json")
    assert a == b

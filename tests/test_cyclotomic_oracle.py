"""Exact oracle for the unbiased-basis frame chain, in the integers Z[ω] of the
d-th cyclotomic field (d an odd prime), with no tolerance.

The kets |m;b⟩ of ``weyl.build_mub`` have entries ω^{e(n)}/√d with
e(n) = b·n(n−1)/2 + m·n, so each point operator t = d·|m;b⟩⟨m;b| − 1 has
entries ω^{e(x)−e(y)} − δ_xy, and the computational column's are integers.
An element Σ c_k ω^k is held as its d integer coefficients.  Since
ω^d = 1 and Φ_d = 1 + x + … + x^{d−1} is ω's minimal polynomial, two
coefficient vectors name the same element exactly when they differ by a
constant vector; :func:`reduced` picks the one whose last coefficient is 0.
The operators are written out here from the closed forms, with only the
standard library; the dual plane's incidence (exact integers) is taken from
the package.
"""

import cmath

import pytest

from mubsic.frames import line_ops_from_points, point_frame_from_mub
from mubsic.plane import build_dapg, point_keys
from mubsic.weyl import build_mub

EPS = 2.0 ** -52


def reduced(c):
    """The coefficients of Σ c_k ω^k with the last one made 0 (mod Φ_d)."""
    return tuple(x - c[-1] for x in c)


def integer(n, d):
    return (n,) + (0,) * (d - 1)


def point_ops(d):
    """The exact point operators in point_keys order: each a d×d list of
    coefficient vectors."""
    ops = []
    for m, j in point_keys(d):
        op = [[[0] * d for _ in range(d)] for _ in range(d)]
        for x in range(d):
            for y in range(d):
                if j < d:
                    e_x, e_y = ((j * n * (n - 1) // 2 + m * n) % d for n in (x, y))
                    op[x][y][(e_x - e_y) % d] += 1
                    op[x][y][0] -= x == y
                else:
                    op[x][y][0] = (d * (x == m) - 1) * (x == y)
        ops.append(op)
    return ops


def line_ops(d, points, incidence):
    """l_μ = Σ_{(m,j)∈μ} t_m^(j), entry by entry, in line_keys order."""
    lines = []
    for col in range(d * d):
        on = [points[r] for r in range(d * (d + 1)) if incidence[r][col]]
        lines.append([[[sum(t[x][y][k] for t in on) for k in range(d)] for y in range(d)]
                      for x in range(d)])
    return lines


def sparse(op):
    """Each entry's nonzero (k, c_k), so products skip the zero terms."""
    return [[[(k, c) for k, c in enumerate(entry) if c] for entry in row] for row in op]


def trace_product(a, b, d):
    """tr(a b) = Σ_{x,y} a[x][y]·b[y][x], reduced, for sparse operators."""
    acc = [0] * d
    for x in range(d):
        for y in range(d):
            for k, c in a[x][y]:
                for k2, c2 in b[y][x]:
                    acc[(k + k2) % d] += c * c2
    return reduced(acc)


def value(entry, d):
    """The complex number Σ c_k ω^k, rounded."""
    return sum(c * cmath.exp(2j * cmath.pi * k / d) for k, c in enumerate(entry))


def max_error(floats, exact, d):
    return max(abs(complex(z) - value(entry, d))
               for op_f, op_e in zip(floats, exact)
               for row_f, row_e in zip(op_f, op_e)
               for z, entry in zip(row_f, row_e))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_point_table_and_incidence_sums_hold_exactly(d):
    points = point_ops(d)
    keys = point_keys(d)
    zero = integer(0, d)
    # Each column sums to zero: Σ_m |m;b⟩⟨m;b| = 1.
    for j in range(d + 1):
        column = [points[i] for i, (_m, jj) in enumerate(keys) if jj == j]
        for x in range(d):
            for y in range(d):
                assert reduced([sum(t[x][y][k] for t in column) for k in range(d)]) == zero
    # tr(t t') is β = d(d−1) on the diagonal, −β/(d−1) = −d within a column
    # and 0 across columns.
    flat = [sparse(t) for t in points]
    for p, (_m, j) in enumerate(keys):
        for q in range(p, len(keys)):
            want = d * (d - 1) if p == q else -d if j == keys[q][1] else 0
            assert trace_product(flat[p], flat[q], d) == integer(want, d)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_line_and_point_line_tables_hold_exactly(d):
    incidence = build_dapg(d).incidence.tolist()
    points = point_ops(d)
    lines = line_ops(d, points, incidence)
    beta = d * (d - 1)
    alpha = beta * (d + 1)
    flat_points, flat_lines = [sparse(t) for t in points], [sparse(l) for l in lines]
    # tr(l l') is α on the diagonal and −α/(d²−1) = −d off it.
    for mu, l1 in enumerate(flat_lines):
        for nu in range(mu, d * d):
            want = alpha if mu == nu else -alpha // (d * d - 1)
            assert trace_product(l1, flat_lines[nu], d) == integer(want, d)
    # tr(t l) is β on the line and −β(d+1)/(d²−1) = −d off it.
    for p, t in enumerate(flat_points):
        for mu, l in enumerate(flat_lines):
            want = beta if incidence[p][mu] else -beta * (d + 1) // (d * d - 1)
            assert trace_product(t, l, d) == integer(want, d)
    # Summed over the d lines through a point, the lines give d·t.
    for p, t in enumerate(points):
        through = [lines[mu] for mu in range(d * d) if incidence[p][mu]]
        for x in range(d):
            for y in range(d):
                total = [sum(l[x][y][k] for l in through) for k in range(d)]
                assert reduced(total) == reduced([d * c for c in t[x][y]])


@pytest.mark.parametrize("d", [3, 5, 7])
def test_float_frames_lie_within_rounding_of_the_exact_ones(d):
    """Each float point operator lies within 8·eps of its exact value, entry
    by entry: a few roundings (ω's powers, 1/√d, the ket product, the factor
    d and the −1) and the reference's own.  A line operator sums d+1 of them,
    so it lies within (d+1)·8·eps.  Measured: at most 6.5·2⁻⁵³ for the
    points and 40·2⁻⁵³ for the lines, at d = 7."""
    points = point_ops(d)
    pf = point_frame_from_mub(build_mub(d))
    lf = line_ops_from_points(pf, build_dapg(d))
    assert max_error(pf.ops.tolist(), points, d) <= 8 * EPS
    lines = line_ops(d, points, build_dapg(d).incidence.tolist())
    assert max_error(lf.ops.tolist(), lines, d) <= (d + 1) * 8 * EPS

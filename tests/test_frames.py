import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PRIME_DIMS, PRIMES, companion, op_add, op_scale, random_density
from mubsic import cli, siclab
from mubsic.frames import (
    LineFrame,
    build_simplex_vectors,
    line_ops_from_points,
    line_frame_from_json_dict,
    line_frame_to_json_dict,
    line_probabilities,
    point_frame_from_hg,
    point_frame_from_json_dict,
    point_frame_from_mub,
    point_frame_to_json_dict,
    point_ops_from_lines,
    quasi_distribution,
    scaled_so,
    trace_one,
    verify_line_table,
    verify_point_line_products,
    verify_point_table,
    with_beta,
)
from mubsic.linalg import DEFAULT_TOL, HermitianOp, hs_inner
from mubsic.plane import build_dapg, line_keys, point_keys
from mubsic.weyl import build_hg_basis, build_mub, build_weyl_pair, monomial


def mub_points(d):
    return point_frame_from_mub(build_mub(d))


def hg_points(d, phases=None):
    wp = build_weyl_pair(d)
    return point_frame_from_hg(build_hg_basis(wp, phases=phases))


# --- simplex vectors -----------------------------------------------------------


def test_simplex_qutrit():
    v = build_simplex_vectors(3)
    assert v.shape == (3, 2)
    for m in range(3):
        assert v[m] @ v[m] == pytest.approx(1.0, abs=1e-12)
        for m2 in range(m + 1, 3):
            assert v[m] @ v[m2] == pytest.approx(-0.5, abs=1e-12)


def test_simplex_self_dot():
    v = build_simplex_vectors(5)
    for m in range(5):
        assert v[m] @ v[m] == pytest.approx(2.0, abs=1e-12)


def test_simplex_vectors_sum_to_zero():
    for d in (3, 5, 7):
        v = build_simplex_vectors(d)
        assert np.abs(v.sum(axis=0)).max() <= 1e-12


def test_simplex_rejects_even_and_composite():
    for bad in (2, 4, 9):
        with pytest.raises(ValueError):
            build_simplex_vectors(bad)


# --- point frames ----------------------------------------------------------------


def test_mub_frame_strength_and_overlaps():
    pf = mub_points(3)
    taus = trace_one(pf.ops, 3)
    assert pf.beta == pytest.approx(6.0)
    # projectors: same point 1, same column 0, cross-column 1/d
    assert hs_inner(taus[(0, 0)], taus[(0, 0)]) == pytest.approx(1.0, abs=1e-12)
    assert hs_inner(taus[(0, 0)], taus[(1, 0)]) == pytest.approx(0.0, abs=1e-12)
    assert hs_inner(taus[(0, 0)], taus[(0, 1)]) == pytest.approx(1 / 3, abs=1e-12)
    assert hs_inner(pf.ops[(0, 0)], pf.ops[(0, 0)]) == pytest.approx(6.0, abs=1e-10)


def test_point_tables_small_primes():
    for d in (2, 3, 5, 7):
        assert verify_point_table(mub_points(d)) <= 1e-10
    for d in (3, 5, 7):
        assert verify_point_table(hg_points(d)) <= 1e-10


def test_columns_resolve_identity():
    for pf in (mub_points(3), hg_points(5)):
        d = pf.d
        eye = np.eye(d)
        taus = trace_one(pf.ops, d)
        for j in range(d + 1):
            total = sum(taus[(m, j)].mat for m in range(d))
            assert np.abs(total - eye).max() <= 1e-12
            traceless = sum(pf.ops[(m, j)].mat for m in range(d))
            assert np.abs(traceless).max() <= 1e-10


def test_hg_frame_strength_and_column_products():
    pf = hg_points(3)
    assert pf.beta == pytest.approx(1.0)
    for m in range(3):
        assert hs_inner(pf.ops[(m, 0)], pf.ops[(m, 0)]) == pytest.approx(1.0, abs=1e-10)
        for m2 in range(m + 1, 3):
            assert hs_inner(pf.ops[(m, 0)], pf.ops[(m2, 0)]) == pytest.approx(-0.5, abs=1e-10)
    assert hs_inner(pf.ops[(0, 0)], pf.ops[(0, 1)]) == pytest.approx(0.0, abs=1e-10)


def test_hg_frame_covariance():
    # Conjugating by (X†)^b Z^a sends the point (m, j) to (m ⊕ a ⊕ jb, j) for
    # j < d and to (m ⊕ b, d) in the clock column — the same index action
    # that maps the fiducial line across the dual plane.
    d = 3
    wp = build_weyl_pair(d)
    rng = np.random.default_rng(1)
    pf = hg_points(d, phases=rng.uniform(0, 2 * np.pi, size=(d + 1, 1)))
    for a in range(d):
        for b in range(d):
            u = np.linalg.matrix_power(wp.X.conj().T, b) @ monomial(wp, 0, a)
            for j in range(d + 1):
                for m in range(d):
                    m2 = (m + b) % d if j == d else (m + a + j * b) % d
                    got = u @ pf.ops[(m, j)].mat @ u.conj().T
                    assert np.abs(got - pf.ops[(m2, j)].mat).max() <= 1e-10


def test_with_beta_rescales():
    pf = with_beta(mub_points(3), 2.0)
    assert pf.beta == pytest.approx(2.0)
    assert verify_point_table(pf) <= 1e-10
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            with_beta(mub_points(3), bad)


# --- bridges ------------------------------------------------------------------------


def test_lines_from_mub_points_give_orthogonal_basis():
    for d in (2, 3, 5):
        lf = line_ops_from_points(mub_points(d), build_dapg(d))
        assert lf.alpha == pytest.approx(d * (d - 1) * (d + 1))
        assert verify_line_table(lf) <= 1e-10
        lams = trace_one(lf.ops, d)
        lams = [lams[k].mat for k in line_keys(d)]
        for i, l1 in enumerate(lams):
            for i2, l2 in enumerate(lams):
                want = float(d) if i == i2 else 0.0
                assert np.trace(l1 @ l2).real == pytest.approx(want, abs=1e-10)


def test_line_sum_vanishes():
    for pf in (mub_points(3), hg_points(5), with_beta(mub_points(2), 0.7)):
        lf = line_ops_from_points(pf, build_dapg(pf.d))
        total = sum(lf.ops[k].mat for k in line_keys(pf.d))
        assert np.abs(total).max() <= 1e-10


def test_equal_overlap_strength_gives_uniform_gram():
    d = 3
    beta = d * (d - 1) / (d + 1)
    lf = line_ops_from_points(with_beta(mub_points(d), beta), build_dapg(d))
    lams = trace_one(lf.ops, d)
    lams = [lams[k].mat for k in line_keys(d)]
    for i, l1 in enumerate(lams):
        for i2, l2 in enumerate(lams):
            want = 1.0 if i == i2 else 1 / (d + 1)
            assert np.trace(l1 @ l2).real == pytest.approx(want, abs=1e-10)


def test_points_from_lines_round_trip():
    d = 3
    pf = with_beta(mub_points(d), 2.0)
    geom = build_dapg(d)
    lf = line_ops_from_points(pf, geom)
    back = point_ops_from_lines(lf, geom)
    assert back.beta == pytest.approx(lf.alpha / (d + 1))
    assert back.beta == pytest.approx(2.0)
    for k in point_keys(d):
        assert np.abs(back.ops[k].mat - pf.ops[k].mat).max() <= 1e-10


def test_points_from_zero_lines_are_maximally_mixed():
    d = 3
    zero = HermitianOp.from_matrix(np.zeros((d, d)))
    lf = LineFrame(d=d, alpha=0.0, ops={(a, b): zero for a in range(d) for b in range(d)})
    pf = point_ops_from_lines(lf, build_dapg(d))
    taus = trace_one(pf.ops, d)
    for k in point_keys(d):
        assert np.abs(pf.ops[k].mat).max() == 0.0
        assert np.abs(taus[k].mat - np.eye(d) / d).max() <= 1e-15


def test_bridge_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        line_ops_from_points(mub_points(3), build_dapg(5))


# Reference implementations: the per-line and per-point loops that the
# incidence sums replaced.  The sums must match them bit for bit.


def loop_line_ops(frame, geom):
    ops = {}
    for ln in line_keys(frame.d):
        total = op_scale(0.0, HermitianOp.identity(frame.d))
        for m, j in geom.points_on(ln):
            total = op_add(total, frame.ops[(m, j)])
        ops[ln] = total
    return ops


def loop_point_ops(frame, geom):
    d = frame.d
    ops = {}
    for p in point_keys(d):
        total = op_scale(0.0, HermitianOp.identity(d))
        for a, b in geom.lines_through(p):
            total = op_add(total, frame.ops[(a, b)])
        ops[p] = op_scale(1.0 / d, total)
    return ops


def loop_line_probabilities(q, geom):
    out = {}
    for ln in geom.lines:
        total = 0.0
        for p in geom.points_on(ln):
            total += q[p]
        out[ln] = (total - 1.0) / geom.d
    return out


def assert_same_bits(ops, ref):
    assert list(ops) == list(ref)
    for k, op in ref.items():
        assert ops[k].mat.tobytes() == op.mat.tobytes()
        assert np.float64(ops[k].trace).tobytes() == np.float64(op.trace).tobytes()


@pytest.mark.parametrize("d", [3, 5, 7, 11, 19])
def test_incidence_sums_match_loops(d):
    geom = build_dapg(d)
    rho = random_density(np.random.default_rng(d), d)
    for pf in (mub_points(d), hg_points(d)):
        lf = line_ops_from_points(pf, geom)
        assert_same_bits(lf.ops, loop_line_ops(pf, geom))
        assert_same_bits(point_ops_from_lines(lf, geom).ops, loop_point_ops(lf, geom))
        q = quasi_distribution(rho, pf)
        p = line_probabilities(q, geom)
        assert list(p.items()) == list(loop_line_probabilities(q, geom).items())


@given(PRIMES)
def test_bridge_round_trip_every_prime(d):
    pf = mub_points(d)
    geom = build_dapg(d)
    back = point_ops_from_lines(line_ops_from_points(pf, geom), geom)
    assert max(np.abs(back.ops[k].mat - pf.ops[k].mat).max() for k in point_keys(d)) <= 1e-12


@given(PRIMES, st.integers(0, 2**32 - 1))
def test_line_probabilities_sum_to_one_every_prime(d, seed):
    rho = random_density(np.random.default_rng(seed), d)
    p = line_probabilities(quasi_distribution(rho, mub_points(d)), build_dapg(d))
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)


@given(PRIMES, st.integers(0, 2**32 - 1))
def test_line_probabilities_are_line_expectations_every_prime(d, seed):
    # p_μ = tr(λ_μ ρ)/d, with λ_μ the trace-one companion of the bridged line.
    rho = random_density(np.random.default_rng(seed), d)
    pf = mub_points(d)
    geom = build_dapg(d)
    lf = line_ops_from_points(pf, geom)
    p = line_probabilities(quasi_distribution(rho, pf), geom)
    lams = trace_one(lf.ops, d)
    lams = np.stack([lams[ln].mat for ln in geom.lines])
    direct = np.einsum("lij,ji->l", lams, rho.mat).real / d
    assert np.abs(np.array([p[ln] for ln in geom.lines]) - direct).max() <= 1e-12


# --- point-line product tables --------------------------------------------------------


def test_products_for_basis_strength():
    for d in (2, 3, 5):
        pf = mub_points(d)
        geom = build_dapg(d)
        lf = line_ops_from_points(pf, geom)
        report = verify_point_line_products(pf, lf, geom)
        assert report.max_dev <= 1e-10
        # with β = d(d−1) the trace-one products are exactly 1 on-line, 0 off
        lam, taus = trace_one(lf.ops, d)[(0, 0)], trace_one(pf.ops, d)
        on = {p: hs_inner(taus[p], lam) for p in geom.points_on((0, 0))}
        assert all(abs(v - 1.0) <= 1e-10 for v in on.values())


def test_products_at_equal_overlap_strength():
    d = 3
    beta = d * (d - 1) / (d + 1)  # 3/2
    pf = with_beta(mub_points(d), beta)
    geom = build_dapg(d)
    lf = line_ops_from_points(pf, geom)
    report = verify_point_line_products(pf, lf, geom)
    assert report.max_dev <= 1e-10
    on_value = (d + beta) / d**2
    assert on_value == pytest.approx(0.5)
    lam = trace_one(lf.ops, d)[(1, 2)]
    p_on = geom.points_on((1, 2))[0]
    assert hs_inner(trace_one(pf.ops, d)[p_on], lam) == pytest.approx(0.5, abs=1e-10)


def test_on_off_product_gap():
    # on-line minus off-line trace-one product is always β·d/((d−1)d²)
    d, beta = 3, 2.2
    pf = with_beta(mub_points(d), beta)
    geom = build_dapg(d)
    lf = line_ops_from_points(pf, geom)
    lam, taus = trace_one(lf.ops, d)[(0, 1)], trace_one(pf.ops, d)
    members = set(geom.points_on((0, 1)))
    on = hs_inner(taus[next(iter(members))], lam)
    off_point = next(p for p in point_keys(d) if p not in members)
    off = hs_inner(taus[off_point], lam)
    assert on - off == pytest.approx(beta * d / ((d - 1) * d**2), abs=1e-10)


def loop_point_line_products(points, lines, geom):
    """Reference: the per-pair loop that rebuilt both trace-one companions
    for every (point, line) pair; returns (traceless, trace-one) deviations."""
    d, beta = points.d, points.beta
    on = geom.incidence.T == 1
    want_t = np.where(on, beta, -beta * (d + 1) / (d * d - 1)).tolist()
    want_tau = np.where(on, (d + beta) / d**2, (d - beta / (d - 1)) / d**2).tolist()
    dev_t = dev_tau = 0.0
    for c, ln in enumerate(geom.lines):
        l_op, lam_op = lines.ops[ln], companion(lines.ops[ln], d)
        for r, p in enumerate(geom.points):
            dev_t = max(dev_t, abs(hs_inner(points.ops[p], l_op) - want_t[c][r]))
            tau_op = companion(points.ops[p], d)
            dev_tau = max(dev_tau, abs(hs_inner(tau_op, lam_op) - want_tau[c][r]))
    return dev_t, dev_tau


@pytest.mark.parametrize(
    "d, make", [(d, make) for d in (3, 5, 7, 11) for make in (mub_points, hg_points)]
    + [(19, mub_points)],
)
def test_point_line_products_match_loop(d, make):
    pf = make(d)
    geom = build_dapg(d)
    report = verify_point_line_products(pf, line_ops_from_points(pf, geom), geom)
    ref = loop_point_line_products(pf, line_ops_from_points(pf, geom), geom)
    assert (report.max_dev_traceless, report.max_dev_trace_one) == ref


# Every odd prime to 23 takes about 3 s in all on two cores.  d = 29 and 31 would
# add about 10 s to this per-pair loop (2.2 s and 3 s per frame); they wait for
# the stacked-matmul form of the check.
@pytest.mark.parametrize("make", [mub_points, hg_points])
@pytest.mark.parametrize("d", [d for d in PRIME_DIMS if 2 < d <= 23])
def test_point_line_identities_every_odd_prime(d, make):
    pf = make(d)
    geom = build_dapg(d)
    report = verify_point_line_products(pf, line_ops_from_points(pf, geom), geom)
    assert report.max_dev <= DEFAULT_TOL


# The family-wide array expressions against the per-operator loops they
# replaced, written with the reference arithmetic of helpers: bit for bit, at
# every prime d ≤ 31, on the unbiased-basis and rotation-basis point frames
# (the latter needs an odd d) and their bridged line frames.


@functools.lru_cache(maxsize=None)
def point_frames(d):
    return (mub_points(d),) + ((hg_points(d),) if d > 2 else ())


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_trace_one_is_the_companion_expression(d):
    geom = build_dapg(d)
    for pf in point_frames(d):
        for ops in (pf.ops, line_ops_from_points(pf, geom).ops):
            got = trace_one(ops, d)
            assert list(got) == list(ops)
            for k, op in ops.items():
                assert got[k].mat.tobytes() == companion(op, d).mat.tobytes()


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_rescalings_match_operator_loops(d):
    # with_beta: c·t per operator.  scaled_so: (1 + c·l)/d per operator, on
    # line frames at the strength α = (d+1)(d−1)/2 it needs.
    geom, beta = build_dapg(d), (d - 1) / 2
    for pf in point_frames(d):
        scaled = with_beta(pf, beta)
        c = float(np.sqrt(beta / pf.beta))
        assert list(scaled.ops) == list(pf.ops)
        for k, op in pf.ops.items():
            assert scaled.ops[k].mat.tobytes() == op_scale(c, op).mat.tobytes()
        lf = line_ops_from_points(scaled, geom)
        sig = scaled_so(lf)
        c = float(np.sqrt(2.0 * d / (d + 1)))
        assert list(sig) == line_keys(d)
        for k in line_keys(d):
            want = companion(op_scale(c, lf.ops[k]), d)
            assert sig[k].mat.tobytes() == want.mat.tobytes()


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_quasi_distribution_matches_trace_loop(d):
    rho = random_density(np.random.default_rng(d), d)
    for pf in point_frames(d):
        q = quasi_distribution(rho, pf)
        assert list(q) == point_keys(d)
        for k, op in pf.ops.items():
            want = float(np.trace(companion(op, d).mat @ rho.mat).real)
            assert np.float64(q[k]).tobytes() == np.float64(want).tobytes()


# --- unit-purity rescaling --------------------------------------------------------------


def test_scaled_family_gram():
    for d in (3, 5, 7):
        lf = line_ops_from_points(hg_points(d), build_dapg(d))
        assert lf.alpha == pytest.approx((d + 1) * (d - 1) / 2)
        sig = scaled_so(lf)
        mats = [sig[k].mat for k in line_keys(d)]
        for m in mats:
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        for i, m1 in enumerate(mats):
            for i2, m2 in enumerate(mats):
                want = 1.0 if i == i2 else 1 / (d + 1)
                assert np.trace(m1 @ m2).real == pytest.approx(want, abs=1e-10)


def test_scaled_family_rejects_other_strengths():
    lf = line_ops_from_points(mub_points(3), build_dapg(3))
    with pytest.raises(ValueError):
        scaled_so(lf)


# --- quasi-probabilities ----------------------------------------------------------------


def test_uniform_state_is_flat():
    d = 3
    pf = mub_points(d)
    rho = HermitianOp.from_matrix(np.eye(d) / d)
    q = quasi_distribution(rho, pf)
    assert all(abs(v - 1 / d) <= 1e-12 for v in q.values())
    geom = build_dapg(d)
    p = line_probabilities(q, geom)
    assert all(abs(v - 1 / d**2) <= 1e-12 for v in p.values())


def test_column_sums_are_one():
    rng = np.random.default_rng(2)
    d = 5
    pf = hg_points(d)
    rho = random_density(rng, d)
    q = quasi_distribution(rho, pf)
    for j in range(d + 1):
        assert sum(q[(m, j)] for m in range(d)) == pytest.approx(1.0, abs=1e-10)


def test_line_sum_identity_random_states():
    rng = np.random.default_rng(3)
    d = 5
    pf = mub_points(d)
    geom = build_dapg(d)
    lams = trace_one(line_ops_from_points(pf, geom).ops, d)
    for _ in range(10):
        rho = random_density(rng, d)
        p = line_probabilities(quasi_distribution(rho, pf), geom)
        for (a, b), value in p.items():
            direct = hs_inner(lams[(a, b)], rho) / d
            assert value == pytest.approx(direct, abs=1e-12)
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)


def test_quasi_distribution_rejects_bad_trace():
    pf = mub_points(2)
    with pytest.raises(ValueError):
        quasi_distribution(HermitianOp.identity(2), pf)


def test_quasi_distribution_on_sic_lines_is_nonnegative():
    fam = siclab.generate_hw_sic(siclab.qutrit_fiducial())
    d = 3
    lf = LineFrame(
        d=d,
        alpha=float(d * (d - 1)),
        ops={
            k: op_add(op_scale(d, fam.projectors[k]), HermitianOp.identity(d), -1.0)
            for k in line_keys(d)
        },
    )
    geom = build_dapg(d)
    pf = point_ops_from_lines(lf, geom)
    rng = np.random.default_rng(4)
    rho = random_density(rng, d)
    p = line_probabilities(quasi_distribution(rho, pf), geom)
    assert all(v >= -1e-12 for v in p.values())
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)


# --- serialization -----------------------------------------------------------------------


def test_point_frame_json_round_trip():
    pf = mub_points(3)
    back = point_frame_from_json_dict(point_frame_to_json_dict(pf))
    assert back.d == 3 and back.beta == pytest.approx(pf.beta)
    for k in point_keys(3):
        assert np.abs(back.ops[k].mat - pf.ops[k].mat).max() <= 1e-15


def test_line_frame_json_round_trip():
    lf = line_ops_from_points(hg_points(3), build_dapg(3))
    back = line_frame_from_json_dict(line_frame_to_json_dict(lf))
    assert back.d == 3 and back.alpha == pytest.approx(lf.alpha)
    for k in line_keys(3):
        assert np.abs(back.ops[k].mat - lf.ops[k].mat).max() <= 1e-15


def test_frame_json_memory_at_d19(tmp_path):
    """The d = 19 point-frame file (5.5 MB) is written without a string of
    the whole file and read without a tree of lists: each operator is encoded
    and decoded on its own.  Before that, the traced peaks were 11.1 MB and
    25.5 MB (4.6 times the file)."""
    pf = mub_points(19)
    obj = point_frame_to_json_dict(pf)
    path = str(tmp_path / "points.json")
    tracemalloc.start()
    try:
        cli._write_json(path, obj)
        write_peak = tracemalloc.get_traced_memory()[1]
        del obj
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        back = point_frame_from_json_dict(cli._read_json(path))
        read_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = (tmp_path / "points.json").stat().st_size
    assert write_peak < 1e6
    assert read_peak < 2.5 * size
    assert all(np.array_equal(back.ops[k].mat, pf.ops[k].mat) for k in point_keys(19))

import functools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    PRIME_DIMS,
    PRIMES,
    companion,
    exact_hs,
    gamma,
    op_add,
    op_scale,
    random_density,
    random_ket,
    traced_peak,
)
from mubsic import cli, frames, siclab
from mubsic.frames import (
    LineFrame,
    build_simplex_vectors,
    line_ops_from_points,
    line_frame_from_json_dict,
    line_frame_layout,
    line_frame_to_json_dict,
    line_probabilities,
    point_frame_from_hg,
    point_frame_from_json_dict,
    point_frame_from_mub,
    point_frame_layout,
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
from mubsic.plane import Dapg, build_dapg, line_keys, point_keys
from mubsic.weyl import MubFamily, build_hg_basis, build_mub, build_weyl_pair, monomial


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
    # projectors: same point 1, same column 0, cross-column 1/d.  Rows are in
    # point_keys order: (0, 0), (1, 0), (2, 0), (0, 1), ...
    assert hs_inner(taus[0], taus[0]) == pytest.approx(1.0, abs=1e-12)
    assert hs_inner(taus[0], taus[1]) == pytest.approx(0.0, abs=1e-12)
    assert hs_inner(taus[0], taus[3]) == pytest.approx(1 / 3, abs=1e-12)
    assert hs_inner(pf.ops[0], pf.ops[0]) == pytest.approx(6.0, abs=1e-10)


def test_mub_frame_refuses_a_nan_basis_as_not_unbiased():
    bases = build_mub(3).bases.copy()
    bases[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="fails unbiasedness: deviation nan"):
        point_frame_from_mub(MubFamily(d=3, bases=bases))


def test_point_table_memory_at_d19():
    """Each 64 × 64 block's target is built from the column labels of its
    rows and columns: the traced peak of the d = 19 check is 2.14 MB,
    against 3.26 MB when the whole (380, 380) target (1.16 MB) was built."""
    pf = mub_points(19)
    assert traced_peak(lambda: verify_point_table(pf)) < 2.6e6


def test_point_tables_small_primes():
    for d in (2, 3, 5, 7):
        assert verify_point_table(mub_points(d)) <= 1e-10
    for d in (3, 5, 7):
        assert verify_point_table(hg_points(d)) <= 1e-10


def test_columns_resolve_identity():
    for pf in (mub_points(3), hg_points(5)):
        d = pf.d
        eye = np.eye(d)
        # Column j is rows j·d .. j·d + d − 1.
        columns = trace_one(pf.ops, d).reshape(d + 1, d, d, d).sum(axis=1)
        assert np.abs(columns - eye).max() <= 1e-12
        traceless = pf.ops.reshape(d + 1, d, d, d).sum(axis=1)
        assert np.abs(traceless).max() <= 1e-10


def test_hg_frame_strength_and_column_products():
    pf = hg_points(3)
    assert pf.beta == pytest.approx(1.0)
    for m in range(3):  # point (m, 0) is row m
        assert hs_inner(pf.ops[m], pf.ops[m]) == pytest.approx(1.0, abs=1e-10)
        for m2 in range(m + 1, 3):
            assert hs_inner(pf.ops[m], pf.ops[m2]) == pytest.approx(-0.5, abs=1e-10)
    assert hs_inner(pf.ops[0], pf.ops[3]) == pytest.approx(0.0, abs=1e-10)


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
                    got = u @ pf.ops[j * d + m] @ u.conj().T
                    assert np.abs(got - pf.ops[j * d + m2]).max() <= 1e-10


def test_hg_frame_bits_do_not_depend_on_blas_threads():
    """The same operator bits at one and at two BLAS threads: each point
    operator sums its basis terms in a fixed order.  At d = 23 a BLAS sum
    (np.tensordot) gave the clock-class diagonals other last bits at two
    threads."""
    code = (
        "import hashlib\n"
        "from mubsic import frames, weyl\n"
        "pf = frames.point_frame_from_hg(weyl.build_hg_basis(weyl.build_weyl_pair(23)))\n"
        "print(hashlib.sha256(pf.ops.tobytes()).hexdigest())\n"
    )
    src = pathlib.Path(frames.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


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
        for i, l1 in enumerate(lams):
            for i2, l2 in enumerate(lams):
                want = float(d) if i == i2 else 0.0
                assert np.trace(l1 @ l2).real == pytest.approx(want, abs=1e-10)


def test_line_sum_vanishes():
    for pf in (mub_points(3), hg_points(5), with_beta(mub_points(2), 0.7)):
        lf = line_ops_from_points(pf, build_dapg(pf.d))
        assert np.abs(lf.ops.sum(axis=0)).max() <= 1e-10


def test_equal_overlap_strength_gives_uniform_gram():
    d = 3
    beta = d * (d - 1) / (d + 1)
    lf = line_ops_from_points(with_beta(mub_points(d), beta), build_dapg(d))
    lams = trace_one(lf.ops, d)
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
    assert np.abs(back.ops - pf.ops).max() <= 1e-10


def test_points_from_zero_lines_are_maximally_mixed():
    d = 3
    lf = LineFrame(d=d, alpha=0.0, ops=np.zeros((d * d, d, d), dtype=complex))
    pf = point_ops_from_lines(lf, build_dapg(d))
    assert pf.ops.shape == (d * (d + 1), d, d)
    assert np.abs(pf.ops).max() == 0.0
    assert np.abs(trace_one(pf.ops, d) - np.eye(d) / d).max() <= 1e-15


def test_bridge_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        line_ops_from_points(mub_points(3), build_dapg(5))


def test_bridges_and_products_reject_other_planes():
    # Frame rows are in point_keys / line_keys order, so only the canonical
    # plane of the frames' d indexes them: a plane of another order, or one
    # missing a line or a point, is rejected, not bridged over some rows.
    d = 3
    pf = mub_points(d)
    geom = build_dapg(d)
    lf = line_ops_from_points(pf, geom)
    all_lines = {ln: geom.points_on(ln) for ln in geom.lines}
    planes = [
        build_dapg(5),
        Dapg.from_incidence(d, dict(list(all_lines.items())[:-1])),
        Dapg.from_incidence(d, {ln: pts[1:] for ln, pts in all_lines.items()}),
        Dapg.from_incidence(5, all_lines),
    ]
    for plane in planes:
        with pytest.raises(ValueError, match="canonical dual plane"):
            line_ops_from_points(pf, plane)
        with pytest.raises(ValueError, match="canonical dual plane"):
            point_ops_from_lines(lf, plane)
        with pytest.raises(ValueError, match="canonical dual plane"):
            verify_point_line_products(pf, lf, plane)
    with pytest.raises(ValueError, match="canonical dual plane"):
        verify_point_line_products(pf, line_ops_from_points(mub_points(5), build_dapg(5)), geom)


# Reference implementations: the per-line and per-point loops that the
# incidence sums replaced, each looking the row of a key up by the key.  The
# sums must match them bit for bit.


def loop_line_ops(frame, geom):
    d, row = frame.d, {p: i for i, p in enumerate(point_keys(frame.d))}
    ops = []
    for ln in line_keys(d):
        total = op_scale(0.0, np.eye(d, dtype=complex))
        for p in geom.points_on(ln):
            total = op_add(total, frame.ops[row[p]])
        ops.append(total)
    return np.stack(ops)


def loop_point_ops(frame, geom):
    d, row = frame.d, {ln: i for i, ln in enumerate(line_keys(frame.d))}
    ops = []
    for p in point_keys(d):
        total = op_scale(0.0, np.eye(d, dtype=complex))
        for ln in geom.lines_through(p):
            total = op_add(total, frame.ops[row[ln]])
        ops.append(op_scale(1.0 / d, total))
    return np.stack(ops)


def loop_line_probabilities(q, geom):
    out = {}
    for ln in geom.lines:
        total = 0.0
        for p in geom.points_on(ln):
            total += q[p]
        out[ln] = (total - 1.0) / geom.d
    return out


def assert_same_bits(ops, ref):
    assert ops.shape == ref.shape and ops.dtype == ref.dtype
    assert ops.tobytes() == ref.tobytes()


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
    assert np.abs(back.ops - pf.ops).max() <= 1e-12


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
    direct = np.einsum("lij,ji->l", trace_one(lf.ops, d), rho).real / d
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
        lam, taus = trace_one(lf.ops, d)[0], trace_one(pf.ops, d)
        on = {p: hs_inner(taus[point_keys(d).index(p)], lam) for p in geom.points_on((0, 0))}
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
    lam = trace_one(lf.ops, d)[line_keys(d).index((1, 2))]
    p_on = point_keys(d).index(geom.points_on((1, 2))[0])
    assert hs_inner(trace_one(pf.ops, d)[p_on], lam) == pytest.approx(0.5, abs=1e-10)


def test_on_off_product_gap():
    # on-line minus off-line trace-one product is always β·d/((d−1)d²)
    d, beta = 3, 2.2
    pf = with_beta(mub_points(d), beta)
    geom = build_dapg(d)
    lf = line_ops_from_points(pf, geom)
    lam, taus = trace_one(lf.ops, d)[line_keys(d).index((0, 1))], trace_one(pf.ops, d)
    members = set(geom.points_on((0, 1)))
    on_line = [p in members for p in point_keys(d)]
    on = hs_inner(taus[on_line.index(True)], lam)
    off = hs_inner(taus[on_line.index(False)], lam)
    assert on - off == pytest.approx(beta * d / ((d - 1) * d**2), abs=1e-10)


def loop_point_line_products(points, lines, geom):
    """Reference: the per-pair loop that rebuilt both trace-one companions
    for every (point, line) pair; returns (traceless, trace-one) deviations."""
    d, beta = points.d, points.beta
    on = geom.incidence.T == 1
    want_t = np.where(on, beta, -beta * (d + 1) / (d * d - 1)).tolist()
    want_tau = np.where(on, (d + beta) / d**2, (d - beta / (d - 1)) / d**2).tolist()
    point_row = {p: i for i, p in enumerate(point_keys(d))}
    line_row = {ln: i for i, ln in enumerate(line_keys(d))}
    dev_t = dev_tau = 0.0
    for c, ln in enumerate(geom.lines):
        l_op = lines.ops[line_row[ln]]
        lam_op = companion(l_op, d)
        for r, p in enumerate(geom.points):
            t_op = points.ops[point_row[p]]
            dev_t = max(dev_t, abs(hs_inner(t_op, l_op) - want_t[c][r]))
            tau_op = companion(t_op, d)
            dev_tau = max(dev_tau, abs(hs_inner(tau_op, lam_op) - want_tau[c][r]))
    return dev_t, dev_tau


@pytest.mark.parametrize(
    "d, make", [(d, make) for d in (3, 5, 7, 11) for make in (mub_points, hg_points)]
    + [(19, mub_points)],
)
def test_point_line_products_match_loop(d, make):
    """Bit for bit the per-pair loop's deviations.  The on/off targets are
    built one line row at a time, so the traced peak stays under 8 MB (at
    d = 19 it was 13.5 MB when both whole target tables were Python lists)."""
    pf = make(d)
    geom = build_dapg(d)
    lf = line_ops_from_points(pf, geom)
    tracemalloc.start()
    try:
        report = verify_point_line_products(pf, lf, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    ref = loop_point_line_products(pf, lf, geom)
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
def test_family_stacks_are_read_only_rows_in_key_order(d):
    # Row i of a family is the operator of key i: the unbiased-basis point
    # frame t = d|m;j⟩⟨m;j| − 1 at (m, j) = point_keys(d)[i], and the bridged
    # lines as the per-line loop finds them by key.  No family can be written.
    mub, geom, eye = build_mub(d), build_dapg(d), np.eye(d)
    pf = point_frame_from_mub(mub)
    for row, (m, j) in zip(pf.ops, point_keys(d), strict=True):
        ket = mub.bases[j, m]
        want = HermitianOp.from_matrix(d * np.outer(ket, ket.conj()) - eye)
        assert row.tobytes() == want.tobytes()
    lf = line_ops_from_points(pf, geom)
    assert_same_bits(lf.ops, loop_line_ops(pf, geom))
    minimal = line_ops_from_points(with_beta(pf, (d - 1) / 2), geom)
    fid = siclab.Fiducial(d=d, ket=siclab.canonical_ket(random_ket(np.random.default_rng(d), d)))
    stacks = {
        "points": pf.ops,
        "lines": lf.ops,
        "bridged points": point_ops_from_lines(lf, geom).ops,
        "read points": point_frame_from_json_dict(point_frame_to_json_dict(pf)).ops,
        "with_beta": with_beta(pf, 1.0).ops,
        "scaled_so": scaled_so(minimal),
        "trace_one": trace_one(lf.ops, d),
        "projectors": siclab.generate_hw_sic(fid).projectors,
    }
    if d <= 3:
        fam = siclab.generate_hw_sic((siclab.qubit_fiducial, siclab.qutrit_fiducial)[d - 2]())
        stacks["extract_mu_pom"] = siclab.extract_mu_pom(fam)
    for name, stack in stacks.items():
        assert stack.dtype == np.complex128 and stack.shape[1:] == (d, d), name
        assert not stack.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0


def test_checks_read_the_family_stacks_as_they_are(monkeypatch):
    # Every check reads the family's own stack; none stacks its rows again.
    d = 3
    pf, geom = mub_points(d), build_dapg(d)
    lf = line_ops_from_points(pf, geom)
    fam = siclab.generate_hw_sic(siclab.qutrit_fiducial())
    rho = random_density(np.random.default_rng(0), d)

    def restacked(*args, **kwargs):
        raise AssertionError("a family was stacked again")

    monkeypatch.setattr(np, "stack", restacked)
    assert verify_point_table(pf) <= DEFAULT_TOL and verify_line_table(lf) <= DEFAULT_TOL
    assert verify_point_line_products(pf, lf, geom).max_dev <= DEFAULT_TOL
    assert sum(quasi_distribution(rho, pf).values()) == pytest.approx(d + 1)
    assert siclab.verify_sic(fam) <= DEFAULT_TOL
    taus = siclab.extract_mu_pom(fam)
    assert siclab.verify_mu_pom(taus) <= DEFAULT_TOL
    assert siclab.spectra_table(taus).shape == (d + 1, d, d)


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_trace_one_is_the_companion_expression(d):
    geom = build_dapg(d)
    for pf in point_frames(d):
        for ops in (pf.ops, line_ops_from_points(pf, geom).ops):
            got = trace_one(ops, d)
            assert got.shape == ops.shape
            for row, op in zip(got, ops):
                assert row.tobytes() == companion(op, d).tobytes()


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_rescalings_match_operator_loops(d):
    # with_beta: c·t per operator.  scaled_so: (1 + c·l)/d per operator, on
    # line frames at the strength α = (d+1)(d−1)/2 it needs.
    geom, beta = build_dapg(d), (d - 1) / 2
    for pf in point_frames(d):
        scaled = with_beta(pf, beta)
        c = float(np.sqrt(beta / pf.beta))
        assert scaled.ops.shape == pf.ops.shape
        for row, op in zip(scaled.ops, pf.ops):
            assert row.tobytes() == op_scale(c, op).tobytes()
        lf = line_ops_from_points(scaled, geom)
        sig = scaled_so(lf)
        c = float(np.sqrt(2.0 * d / (d + 1)))
        assert sig.shape == lf.ops.shape
        for row, op in zip(sig, lf.ops):
            assert row.tobytes() == companion(op_scale(c, op), d).tobytes()


def fixed_order_hs(tau: np.ndarray, rho: np.ndarray) -> float:
    """Re Σᵢⱼ τᵢⱼρⱼᵢ of one operator: the real products Re τ·Re ρᵀ − Im τ·Im ρᵀ,
    summed by numpy over the d² entries in row-major order."""
    terms = tau.real * rho.T.real - tau.imag * rho.T.imag
    return float(terms.sum())


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_quasi_distribution_matches_trace_loop(d):
    # Bit-equal to the fixed-order sum evaluated one operator at a time.  On a
    # seeded sample of operators, within that sum's rounding of the exact trace:
    # each term rounds three times (two products and a difference) and the d²
    # terms add in some order, so the error is at most γ_{d²+1}·Σ(|Re τ Re ρᵀ| +
    # |Im τ Im ρᵀ|) ≤ γ_{2d²}·Σ|τᵢⱼ||ρⱼᵢ| (Higham, §3.1).  The float Σ|τᵢⱼ||ρⱼᵢ|
    # is raised by a bound on its own rounding.
    rng = np.random.default_rng(d)
    rho, keys = random_density(rng, d), point_keys(d)
    for pf in point_frames(d):
        q = quasi_distribution(rho, pf)
        assert list(q) == keys
        for k, op in zip(keys, pf.ops):
            want = fixed_order_hs(companion(op, d), rho)
            assert np.float64(q[k]).tobytes() == np.float64(want).tobytes()
        for i in rng.choice(len(keys), size=min(len(keys), 16), replace=False).tolist():
            tau = companion(pf.ops[i], d)
            weight = Fraction(float((np.abs(tau) * np.abs(rho.T)).sum())) * (1 + gamma(d * d + 4))
            assert abs(Fraction(q[keys[i]]) - exact_hs(tau, rho)) <= gamma(2 * d * d) * weight


# --- unit-purity rescaling --------------------------------------------------------------


def test_scaled_family_gram():
    for d in (3, 5, 7):
        lf = line_ops_from_points(hg_points(d), build_dapg(d))
        assert lf.alpha == pytest.approx((d + 1) * (d - 1) / 2)
        sig = scaled_so(lf)
        for m in sig:
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        for i, m1 in enumerate(sig):
            for i2, m2 in enumerate(sig):
                want = 1.0 if i == i2 else 1 / (d + 1)
                assert np.trace(m1 @ m2).real == pytest.approx(want, abs=1e-10)


def test_scaled_family_rejects_other_strengths():
    lf = line_ops_from_points(mub_points(3), build_dapg(3))
    with pytest.raises(ValueError):
        scaled_so(lf)
    # NaN compares false against any tolerance; every non-finite strength is
    # rejected with the same message.
    for alpha in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="scaled family needs"):
            scaled_so(LineFrame(d=3, alpha=alpha, ops=lf.ops))


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
        assert list(p) == line_keys(d)
        for lam, value in zip(lams, p.values()):
            direct = hs_inner(lam, rho) / d
            assert value == pytest.approx(direct, abs=1e-12)
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)


def test_quasi_distribution_rejects_bad_trace():
    pf = mub_points(2)
    with pytest.raises(ValueError):
        quasi_distribution(HermitianOp.from_matrix(np.eye(2)), pf)


@pytest.mark.parametrize("rho", [
    np.full((2, 2), complex(np.nan)),  # a NaN trace
    np.array([[0.5, np.inf], [0.0, 0.5]], dtype=complex),  # trace 1
    np.array([[0.5, 0.0], [complex(0, np.inf), 0.5]]),
], ids=["nan", "inf", "imaginary-inf"])
def test_quasi_distribution_refuses_non_finite_rho(rho):
    with pytest.raises(ValueError, match="ρ entries must be finite"):
        quasi_distribution(rho, mub_points(2))


def test_quasi_distribution_unit_trace_bound():
    """ρ's trace may miss 1 by up to 1e-10: 1 + 5e-11 is taken and 1 + 1e-6
    refused."""
    pf = mub_points(2)
    quasi_distribution(HermitianOp.from_matrix(np.diag([0.5 + 5e-11, 0.5])), pf)
    with pytest.raises(ValueError, match="unit trace"):
        quasi_distribution(HermitianOp.from_matrix(np.diag([0.5 + 1e-6, 0.5])), pf)


def test_quasi_distribution_on_sic_lines_is_nonnegative():
    fam = siclab.generate_hw_sic(siclab.qutrit_fiducial())
    d = 3
    lf = LineFrame(
        d=d,
        alpha=float(d * (d - 1)),
        ops=op_add(op_scale(d, fam.projectors), np.eye(d, dtype=complex), -1.0),
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
    assert np.abs(back.ops - pf.ops).max() <= 1e-15


def test_line_frame_json_round_trip():
    lf = line_ops_from_points(hg_points(3), build_dapg(3))
    back = line_frame_from_json_dict(line_frame_to_json_dict(lf))
    assert back.d == 3 and back.alpha == pytest.approx(lf.alpha)
    assert np.abs(back.ops - lf.ops).max() <= 1e-15


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
    assert np.array_equal(back.ops, pf.ops)


def test_frame_read_through_load_is_below_the_file_size_at_d19(tmp_path, capsys):
    """The CLI's read of the d = 19 point-frame file (5.5 MB), traced from
    the path to the frame: the text is read a chunk at a time and each
    operator goes straight into its row of the stack, so the traced peak
    stays below the file's size (11.1 MB when the file was read whole).

    A file the reader refuses costs no more: one entry of the first
    operator made non-Hermitian, the line file given as points, or the file
    cut 1000 characters short ends ``frame verify`` with its error line
    below the file's size (25.5 MB when every refused file was parsed a
    second time, whole, and 11.4 MB for the cut file while text that is not
    JSON still was)."""
    pf = mub_points(19)
    path = tmp_path / "points.json"
    cli._write_json(str(path), point_frame_layout(pf))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        back = point_frame_from_json_dict(cli._read_json(str(path)))
        read_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert read_peak < path.stat().st_size
    assert back.ops.tobytes() == pf.ops.tobytes() and back.beta == pf.beta

    text = path.read_text()
    at = text.index("], [", text.index('"entries"')) + 4  # the [0, 1] entry
    (tmp_path / "bad.json").write_text(text[:at] + "7.0, 0.0" + text[text.index("]", at):])
    cli._write_json(str(tmp_path / "lines.json"),
                    line_frame_layout(line_ops_from_points(pf, build_dapg(19))))
    (tmp_path / "cut.json").write_text(text[:-1000])
    for name, line in (("bad.json", "matrix is not Hermitian: max |m - m\u2020| = 6.000e+00"),
                       ("lines.json", "malformed frame object: 'beta'"),
                       ("cut.json", "Expecting ',' delimiter: line 1 column 5546335 (char 5546334)")):
        refused = tmp_path / name
        capsys.readouterr()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert cli.run(["frame", "verify", "--points", str(refused)]) == 2
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == ("", f"error: {line}\n")
        assert peak < refused.stat().st_size, name


def _sic_family_d19():
    ket = siclab.canonical_ket(random_ket(np.random.default_rng(19), 19))
    return siclab.generate_hw_sic(siclab.Fiducial(d=19, ket=ket))


@pytest.mark.parametrize(
    "make, layout, to_json_dict",
    [
        (lambda: mub_points(19), point_frame_layout, point_frame_to_json_dict),
        (_sic_family_d19, siclab.SicFamily.layout, siclab.SicFamily.to_json_dict),
    ],
    ids=["point-frame", "sic-family"],
)
def test_family_write_memory_at_d19(make, layout, to_json_dict, tmp_path):
    """The CLI's write of a d = 19 family, traced from the family object to
    the file: the layout holds the stack, and each row is encoded only when
    the writer reaches it, so the peak stays under 1 MB (17.7 MB for the
    point frame when its whole ops list was built first).  The file is
    json.dumps of the family's plain JSON value."""
    family = make()
    path = tmp_path / "family.json"
    tracemalloc.start()
    try:
        cli._write_json(str(path), layout(family))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert path.read_text() == json.dumps(to_json_dict(family)) + "\n"

import csv
import hashlib
import io
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    D5,
    D7A,
    D7B,
    D11A,
    D11B,
    D11C,
    PRIME_DIMS,
    PRIMES,
    SPECTRA_MATCH_TOL,
    group_sizes,
    op_add,
    phase_error,
    random_ket,
    rank_one_slack,
    spectra_match,
)
from mubsic import linalg, siclab
from mubsic.linalg import HermitianOp, hermitian_eigensystem, third_moment
from mubsic.frames import LineFrame, point_ops_from_lines
from mubsic.plane import build_dapg, line_keys, point_keys
from mubsic.siclab import (
    Fiducial,
    ProbabilityVector,
    SicFamily,
    SearchConfig,
    assert_column_constant,
    build_sigma0_from_phases,
    canonical_ket,
    cyclic_residuals,
    extract_mu_pom,
    fiducial_from_mu_pom,
    generate_hw_sic,
    group_columns_by_spectrum,
    ingest_fiducial,
    mu_pom_from_probabilities,
    overlap_table,
    phases_from_fiducial,
    qubit_fiducial,
    qutrit_cyclic_family,
    qutrit_fiducial,
    rank_one_conditions,
    search_fiducial,
    solve_cyclic_probability,
    spectra_from_csv,
    spectra_table,
    spectra_to_csv,
    verify_mu_pom,
    verify_sic,
    write_fiducial_json,
)
from mubsic.weyl import build_mub, build_weyl_pair, monomial, shift_clock_tables

OMEGA3 = np.exp(2j * np.pi / 3)

# The dimensions at which the array code is compared with the loops it
# replaced (kept below as references).
REF_DIMS = [2, 3, 5, 7, 11, 13, 31]
ODD_REF_DIMS = REF_DIMS[1:]

# Primes small enough to search in a test.
SEARCH_PRIMES = [2, 3, 5, 7, 11, 13]


def qutrit_target_ket():
    return np.array([1.0, -(OMEGA3**2), 0.0]) / np.sqrt(2.0)


def fidelity(u, v) -> float:
    return abs(np.vdot(u, v)) ** 2


# --- fiducials and generation ---------------------------------------------------


def test_canonical_ket_fixes_global_phase():
    v = np.exp(1j * 0.7) * np.array([0.0, 0.6, 0.8j])
    w = canonical_ket(v)
    assert w[1].imag == pytest.approx(0.0, abs=1e-15)
    assert w[1].real > 0
    assert fidelity(w, v / np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-12)


def test_canonical_ket_refuses_a_norm_past_float64():
    # Each component is finite, but ‖ket‖ is inf: dividing by it would leave
    # no component to fix the phase by.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm passes float64"):
            canonical_ket([1e308, 1e308j])


def test_fiducial_requires_unit_norm():
    with pytest.raises(ValueError):
        Fiducial(d=2, ket=np.array([1.0, 1.0]), source="ingested")
    # A non-finite component is rejected as such: |nan − 1| > 1e−12 is False,
    # so the norm test alone would let it through.
    for bad in ([np.nan, 0j], [1.0, np.inf], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="finite"):
            Fiducial(d=2, ket=np.array(bad, dtype=complex))


def test_fiducial_refuses_a_norm_past_float64():
    # ‖ψ‖ of finite entries ±1e308 reads inf, not NaN, at the unit-norm gate,
    # without a warning of the overflow in numpy's dot.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ket must be unit-norm, got ‖ψ‖ = inf$"):
            Fiducial(d=2, ket=np.array([1e308, -1e308j]), source="ingested")


def test_qubit_family_overlaps():
    fam = generate_hw_sic(qubit_fiducial())
    assert fam.projectors.shape == (4, 2, 2)
    assert verify_sic(fam) <= 1e-12
    for i, p1 in enumerate(fam.projectors):
        for p2 in fam.projectors[i + 1:]:
            assert np.trace(p1 @ p2).real == pytest.approx(1 / 3, abs=1e-12)


def test_qutrit_family_overlaps():
    fam = generate_hw_sic(qutrit_fiducial())
    assert fam.projectors.shape == (9, 3, 3)
    assert verify_sic(fam) <= 1e-12
    p0 = fam.projectors[0]  # line (0, 0)
    for other in fam.projectors[1:]:
        assert np.trace(p0 @ other).real == pytest.approx(1 / 4, abs=1e-12)


def test_family_anchor_is_fiducial_projector():
    fid = qutrit_fiducial()
    fam = generate_hw_sic(fid)
    outer = np.outer(fid.ket, fid.ket.conj())
    assert np.abs(fam.projectors[0] - outer).max() <= 1e-12


def test_basis_state_is_not_equal_overlap():
    fid = Fiducial(d=3, ket=np.array([1.0, 0.0, 0.0]), source="ingested")
    fam = generate_hw_sic(fid)
    assert verify_sic(fam) >= 1 / 4 - 1e-12
    with pytest.raises(ValueError):
        extract_mu_pom(fam)


def test_extract_mu_pom_refuses_a_nan_projector():
    # Its Gram deviation reads NaN, which no tolerance admits.
    fam = generate_hw_sic(qutrit_fiducial())
    projectors = fam.projectors.copy()
    projectors[4, 1, 1] = np.nan
    with pytest.raises(ValueError, match="equal-overlap check: deviation nan"):
        extract_mu_pom(SicFamily(d=3, fiducial=fam.fiducial, projectors=projectors))


def test_perturbed_fiducial_is_flagged():
    fid = qutrit_fiducial()
    rot = np.eye(3, dtype=complex)
    angle = 1e-3
    rot[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    bent = Fiducial(d=3, ket=canonical_ket(rot @ fid.ket), source="ingested")
    dev = verify_sic(generate_hw_sic(bent))
    # overlap deviation is second order in the rotation angle
    assert 1e-8 < dev < 1e-3
    with pytest.raises(ValueError):
        extract_mu_pom(generate_hw_sic(bent))


def test_hw_covariance_permutes_family():
    for fid in (qutrit_fiducial(), qubit_fiducial()):
        d = fid.d
        wp = build_weyl_pair(d)
        fam = generate_hw_sic(fid)
        for a2 in range(d):
            for b2 in range(d):
                u = np.linalg.matrix_power(wp.X.conj().T, b2) @ monomial(wp, 0, a2)
                for a in range(d):
                    for b in range(d):  # line (a, b) is row a·d + b
                        got = u @ fam.projectors[a * d + b] @ u.conj().T
                        want = fam.projectors[(a + a2) % d * d + (b + b2) % d]
                        assert np.abs(got - want).max() <= 1e-10


@given(PRIMES, st.integers(0, 2**32 - 1))
def test_orbit_covariance_every_prime(d, seed):
    # Conjugating the family of any ket by X^†ᴮ Zᴬ sends λ_(a,b) to
    # λ_(a⊕A, b⊕B); no equal-overlap property is needed.
    rng = np.random.default_rng(seed)
    fam = generate_hw_sic(Fiducial(d=d, ket=canonical_ket(random_ket(rng, d))))
    big_a, big_b = (int(x) for x in rng.integers(0, d, size=2))
    wp = build_weyl_pair(d)
    u = np.linalg.matrix_power(wp.X.conj().T, big_b) @ monomial(wp, 0, big_a)
    got = u @ fam.projectors @ u.conj().T
    row = {ln: i for i, ln in enumerate(line_keys(d))}
    want = fam.projectors[[row[(a + big_a) % d, (b + big_b) % d] for a, b in line_keys(d)]]
    assert np.abs(got - want).max() <= 1e-10


def test_sic_family_json_round_trip():
    fam = generate_hw_sic(qubit_fiducial())
    back = siclab.SicFamily.from_json_dict(fam.to_json_dict())
    assert back.d == 2
    assert np.abs(back.projectors - fam.projectors).max() <= 1e-12


# --- measurement-column extraction -------------------------------------------------


def test_qubit_columns_share_one_spectrum():
    taus = extract_mu_pom(generate_hw_sic(qubit_fiducial()))
    hi = (3 + np.sqrt(3)) / 6
    for tau in taus:
        spec, _ = hermitian_eigensystem(tau)
        assert spec[0] == pytest.approx(hi, abs=1e-12)
        assert spec[1] == pytest.approx(1 - hi, abs=1e-12)


def test_qutrit_columns_share_one_spectrum():
    taus = extract_mu_pom(generate_hw_sic(qutrit_fiducial()))
    for tau in taus:
        spec, _ = hermitian_eigensystem(tau)
        assert np.abs(spec - (0.5, 0.5, 0.0)).max() <= 1e-12


def test_extraction_matches_incidence_sums():
    fam = generate_hw_sic(qutrit_fiducial())
    geom = build_dapg(3)
    taus = extract_mu_pom(fam)
    assert taus.shape == (12, 3, 3)
    row = {ln: i for i, ln in enumerate(line_keys(3))}
    for tau, p in zip(taus, point_keys(3)):
        total = sum(fam.projectors[row[ln]] for ln in geom.lines_through(p)) / 3
        assert np.abs(tau - total).max() <= 1e-14
    assert taus.tobytes() == loop_extract_mu_pom(fam, geom).tobytes()
    assert taus.tobytes() == line_to_point_bridge(fam).tobytes()


def loop_extract_mu_pom(fam, geom):
    """Reference: the per-point loop that the incidence sum replaced."""
    d, row = fam.d, {ln: i for i, ln in enumerate(line_keys(fam.d))}
    ops = []
    for p in point_keys(d):
        total = np.zeros((d, d), dtype=np.complex128)
        for ln in geom.lines_through(p):
            total += fam.projectors[row[ln]]
        ops.append(HermitianOp.from_matrix(total / d))
    return np.stack(ops)


def line_to_point_bridge(fam):
    """extract_mu_pom's sum without its equal-overlap gate: the frames'
    line-to-point bridge applied to the projectors."""
    lines = LineFrame(d=fam.d, alpha=0.0, ops=fam.projectors)
    return point_ops_from_lines(lines, build_dapg(fam.d)).ops


@pytest.mark.parametrize("d", [3, 5, 7, 11, 19])
def test_extraction_matches_loop(d):
    # A random fiducial: the sums need no equal-overlap family.
    rng = np.random.default_rng(d)
    fam = generate_hw_sic(Fiducial(d=d, ket=canonical_ket(random_ket(rng, d))))
    geom = build_dapg(d)
    ops = line_to_point_bridge(fam)
    ref = loop_extract_mu_pom(fam, geom)
    assert ops.shape == ref.shape
    assert ops.tobytes() == ref.tobytes()


def test_mu_pom_invariants():
    taus = extract_mu_pom(generate_hw_sic(qutrit_fiducial()))
    d = 3
    assert verify_mu_pom(taus) <= 1e-10
    columns = taus.reshape(d + 1, d, d, d).sum(axis=1)  # column j: rows j·d ..
    assert np.abs(columns - np.eye(d)).max() <= 1e-10
    for tau in taus:
        spec, _ = hermitian_eigensystem(tau)
        assert spec.min() >= -1e-10


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_spectra_table_matches_eigensystem_loop(d):
    # One eigensystem call on the stacked points against the per-operator
    # calls it replaced, on the bridged points of a random fiducial's family.
    rng = np.random.default_rng(d)
    fid = Fiducial(d=d, ket=canonical_ket(random_ket(rng, d)))
    taus = line_to_point_bridge(generate_hw_sic(fid))
    table = spectra_table(taus)
    loop = np.array([hermitian_eigensystem(tau)[0] for tau in taus])
    assert table.shape == (d + 1, d, d)
    assert table.tobytes() == loop.tobytes()
    assert spectra_to_csv(table) == spectra_to_csv(loop.reshape(d + 1, d, d))


def test_d5_spectra_two_groups(searched, searched_mu_pom):
    _, _, table, spread = searched_mu_pom(5)
    assert spread.max() <= 1e-8
    grouping = group_columns_by_spectrum(table, tol=1e-4)
    assert group_sizes(grouping) == [3, 3]
    assert spectra_match(grouping, D5)


def test_column_constancy_report_on_sloppy_family():
    # A slightly perturbed family, bridged without the equal-overlap gate,
    # still yields a report; constancy is merely reported, not guaranteed.
    fid = qutrit_fiducial()
    rot = np.eye(3, dtype=complex)
    rot[:2, :2] = [
        [np.cos(1e-3), -np.sin(1e-3)],
        [np.sin(1e-3), np.cos(1e-3)],
    ]
    bent = Fiducial(d=3, ket=canonical_ket(rot @ fid.ket), source="ingested")
    spread = assert_column_constant(spectra_table(line_to_point_bridge(generate_hw_sic(bent))))
    assert spread.shape == (4,)
    assert spread.min() >= 0.0


def spectra_dict(table):
    """The dict form of a spectra table that the array replaced: (m, j) ->
    tuple of descending Python floats."""
    d = table.shape[1]
    return {(m, j): tuple(table[j, m].tolist()) for m, j in point_keys(d)}


def loop_assert_column_constant(spectra):
    """Reference: the pair loop that the per-column max − min replaced."""
    d = max(k[1] for k in spectra)
    per_column = {}
    for j in range(d + 1):
        specs = [np.asarray(spectra[(m, j)]) for m in range(d)]
        spread = 0.0
        for i in range(len(specs)):
            for i2 in range(i + 1, len(specs)):
                spread = max(spread, float(np.abs(specs[i] - specs[i2]).max()))
        per_column[j] = spread
    return max(per_column.values()), per_column


def loop_spectra_to_csv(spectra):
    """Reference: the CSV writer over the dict form."""
    d = max(k[1] for k in spectra)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "j"] + [f"lambda_{i}" for i in range(1, d + 1)])
    for m, j in point_keys(d):
        writer.writerow([m, j] + [f"{x:.12g}" for x in spectra[(m, j)]])
    return buf.getvalue()


def loop_group_columns(spectra, tol):
    """Reference: grouping over the dict form, with per-column and
    per-group means taken the way the dict code took them."""
    d = max(k[1] for k in spectra)
    reps = np.array(
        [np.mean([spectra[(m, j)] for m in range(d)], axis=0) for j in range(d + 1)]
    )
    close = np.abs(reps[:, None] - reps).max(axis=2) <= tol
    groups = []
    for j in range(d + 1):
        linked = [g for g in groups if close[j, g].any()]
        merged = sorted([j] + [k for g in linked for k in g])
        groups = [g for g in groups if g not in linked] + [merged]
    groups.sort()
    spectra_out = [
        [float(x) for x in np.mean([reps[j] for j in g], axis=0)] for g in groups
    ]
    return {"groups": groups, "spectra": spectra_out}


def random_spectra_table(d):
    """A (d+1, d, d) table of descending spectra of mixed magnitude, so that
    most differences and means round; columns share one of a few spectra up
    to noise within the grouping tolerance, so groups form."""
    rng = np.random.default_rng(d)
    shared = rng.uniform(0, 1, (3, d)) * 10.0 ** rng.integers(-8, 1, (3, d))
    noise = rng.uniform(0, 1e-7, (d + 1, d, d)) * rng.integers(0, 2, (d + 1, 1, 1))
    values = shared[rng.integers(0, 3, d + 1)][:, None, :] + noise
    return -np.sort(-values, axis=2)


@pytest.mark.parametrize("d", REF_DIMS)
def test_column_spread_matches_pair_loop(d):
    # Values of mixed magnitude, so that most differences round.
    rng = np.random.default_rng(d)
    values = rng.uniform(0, 1, (d + 1, d, d)) * 10.0 ** rng.integers(-8, 1, (d + 1, d, d))
    table = -np.sort(-values, axis=2)
    spread = assert_column_constant(table)
    max_spread, per_column = loop_assert_column_constant(spectra_dict(table))
    assert spread.shape == (d + 1,)
    assert spread.tolist() == [per_column[j] for j in range(d + 1)]
    assert float(spread.max()) == max_spread


@pytest.mark.parametrize("d", REF_DIMS)
def test_spectra_csv_and_grouping_match_dict_loops(d):
    table = random_spectra_table(d)
    spectra = spectra_dict(table)
    text = spectra_to_csv(table)
    assert text == loop_spectra_to_csv(spectra)
    back = spectra_from_csv(text)
    assert np.all(np.abs(back - table) <= 5e-12 * table)  # 12 significant digits
    for tol in (1e-6, 1e-20):
        grouping = group_columns_by_spectrum(table, tol=tol)
        assert json.dumps(grouping) == json.dumps(loop_group_columns(spectra, tol))
    assert len(group_columns_by_spectrum(table, tol=1e-6)["groups"]) <= 3


def test_grouping_qutrit_is_single_group():
    table = spectra_table(extract_mu_pom(generate_hw_sic(qutrit_fiducial())))
    assert table.shape == (4, 3, 3) and not table.flags.writeable
    grouping = group_columns_by_spectrum(table, tol=1e-8)
    assert list(grouping) == ["groups", "spectra"]
    assert grouping["groups"] == [[0, 1, 2, 3]]
    assert len(grouping["spectra"]) == 1


def test_grouping_d7_matches_known_orbit(searched, searched_mu_pom):
    _, _, table, spread = searched_mu_pom(7)
    assert spread.max() <= 1e-8
    grouping = group_columns_by_spectrum(table, tol=1e-4)
    assert group_sizes(grouping) in ([1, 1, 3, 3], [1, 1, 6])
    assert spectra_match(grouping, D7A) or spectra_match(grouping, D7B)


def test_grouping_d11_matches_known_orbit(searched, searched_mu_pom):
    _, _, table, spread = searched_mu_pom(11)
    assert spread.max() <= 1e-8
    grouping = group_columns_by_spectrum(table, tol=1e-4)
    assert group_sizes(grouping) == [3, 3, 3, 3]
    assert any(spectra_match(grouping, ref) for ref in (D11A, D11B, D11C))


@pytest.mark.parametrize("reverse", [False, True])
def test_grouping_does_not_depend_on_column_order(reverse):
    # Columns 0.6·tol apart chain into one group, whichever end the column
    # labels start from; a column 5·tol away stays apart.
    tol = 1e-6
    offsets = [0.0, 0.6 * tol, 1.2 * tol, 5 * tol]
    if reverse:
        offsets.reverse()
    table = np.array([[(0.5 + off, 0.3, 0.2 - off)] * 3 for off in offsets])
    grouping = group_columns_by_spectrum(table, tol=tol)
    assert grouping["groups"] == ([[0], [1, 2, 3]] if reverse else [[0, 1, 2], [3]])
    chained = grouping["spectra"][1 if reverse else 0]
    assert chained == pytest.approx([0.5 + 0.6 * tol, 0.3, 0.2 - 0.6 * tol], abs=1e-15)


def test_spectra_csv_round_trip():
    table = spectra_table(extract_mu_pom(generate_hw_sic(qubit_fiducial())))
    text = spectra_to_csv(table)
    assert text.splitlines()[0] == "m,j,lambda_1,lambda_2"
    back = spectra_from_csv(text)
    assert back.shape == table.shape == (3, 2, 2)
    assert not back.flags.writeable
    assert np.abs(back - table).max() <= 1e-10
    with pytest.raises(ValueError):
        spectra_from_csv("a,b\n1,2\n")
    lines = text.splitlines()
    for bad in (
        lines[:-1],                                    # a point missing
        lines + [lines[-1]],                           # a point listed twice
        lines[:1] + [lines[1] + ",0.1"] + lines[2:],   # a row too long
        lines[:1] + ["0,0,nan,0"] + lines[2:],         # a non-finite value
        lines[:1] + ["2,0,1,0"] + lines[2:],           # a point off the plane
        [lines[0] + ",lambda_3"] + lines[1:],          # header d disagrees with rows
    ):
        with pytest.raises(ValueError):
            spectra_from_csv("\n".join(bad) + "\n")


# --- cyclic probability conditions ---------------------------------------------------


def test_qubit_solution_pair():
    res = solve_cyclic_probability(2)
    hi = (3 + np.sqrt(3)) / 6
    assert len(res.solutions) == 2
    assert res.solutions[0].entries[0] == pytest.approx(hi, abs=1e-15)
    assert res.solutions[1].entries == tuple(reversed(res.solutions[0].entries))
    for r in res.residuals:
        assert r <= 1e-12


def test_qutrit_family_and_distinguished_point():
    res = solve_cyclic_probability(3)
    assert tuple(res.solutions[0]) == pytest.approx((0.5, 0.5, 0.0), abs=1e-15)
    assert res.family_bounds == (0.0, pytest.approx(2 / 3))
    for p1 in np.linspace(0.0, 2 / 3, 13):
        p = res.family(p1)
        assert np.abs(cyclic_residuals(list(p), 3)).max() <= 1e-10
    assert qutrit_cyclic_family(0.5).entries == pytest.approx((0.5, 0.5, 0.0))
    with pytest.raises(ValueError):
        qutrit_cyclic_family(0.9)


def test_autocorrelation_targets_hold():
    for d in (2, 3, 5):
        res = solve_cyclic_probability(d, restarts=16)
        assert res.solutions, f"no solutions found for d = {d}"
        for p in res.solutions:
            assert p.autocorrelation(0) == pytest.approx(2 / (d + 1), abs=1e-10)
            for m in range(1, (d - 1) // 2 + 1):
                assert p.autocorrelation(m) == pytest.approx(1 / (d + 1), abs=1e-9)


def test_d5_solutions_are_distinct_up_to_symmetry():
    res = solve_cyclic_probability(5, restarts=24)
    reps = {sol.entries for sol in res.solutions}
    assert len(reps) == len(res.solutions)
    # canonical representatives are lexicographically maximal over the
    # shift/reflection orbit, so no two returned vectors are related by one
    for sol in res.solutions:
        p = np.asarray(sol.entries)
        orbit = {tuple(np.roll(q, s)) for q in (p, p[::-1]) for s in range(5)}
        assert tuple(p) == max(orbit)


@pytest.mark.parametrize("d", PRIME_DIMS[2:])
@given(st.integers(0, 2**32 - 1))
def test_cyclic_samples_every_prime(d, seed):
    res = solve_cyclic_probability(d, seed, restarts=8)
    assert res.solutions, f"no solutions for d = {d}, seed {seed}"
    keys = set()
    for sol in res.solutions:
        p = np.asarray(sol.entries)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.abs(cyclic_residuals(p, d)).max() <= 1e-12
        orbit = {tuple(np.roll(q, s)) for q in (p, p[::-1]) for s in range(d)}
        assert sol.entries == max(orbit)
        keys.add(tuple(np.round(p, 8)))
    assert len(keys) == len(res.solutions)
    again = solve_cyclic_probability(d, seed, restarts=8)
    assert [s.entries for s in again.solutions] == [s.entries for s in res.solutions]
    assert again.residuals == res.residuals


def _roll_residuals(p, d):
    """cyclic_residuals as np.roll wrote it: the oracle for the index gathers."""
    half = (d - 1) // 2 if d % 2 else d // 2
    res = [p.sum() - 1.0]
    for m in range(half + 1):
        target = 2.0 / (d + 1) if m == 0 else 1.0 / (d + 1)
        res.append(float(p @ np.roll(p, -m)) - target)
    return np.asarray(res)


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_shift_gathers_match_np_roll_bit_for_bit(d):
    """The cyclic shifts are index gathers that pick np.roll's values in its
    order, so every residual, autocorrelation and canonical cycle keeps its
    bits, ties among the entries included."""
    rng = np.random.default_rng(d)
    tied = np.resize([0.0, 2.0, 2.0, 1.0], d)
    behind = shift_clock_tables(d)[1]
    for p in [rng.dirichlet(np.ones(d)) for _ in range(3)] + [tied / tied.sum()]:
        assert np.array_equal(cyclic_residuals(p, d), _roll_residuals(p, d))
        vec = ProbabilityVector(entries=tuple(p))
        assert [vec.autocorrelation(m) for m in range(-d, 2 * d + 1)] == [
            float(p @ np.roll(p, -m)) for m in range(-d, 2 * d + 1)]
        orbit = (tuple(np.roll(q, s)) for q in (p, p[::-1]) for s in range(d))
        assert siclab._canonical_cycle(p, behind) == max(orbit)
    for wrong in (p[:-1], np.append(p, 0.0), p.reshape(1, d)):
        with pytest.raises(ValueError, match=f"expected a vector of {d} entries"):
            cyclic_residuals(wrong, d)


def test_cyclic_solutions_keep_their_np_roll_bits():
    """The SHA-256 of the solutions and residuals for every prime 5-31 at
    seeds 0-2.  The shifts pick np.roll's bits (the test above), so the
    digest moves only with the restarts' stream; it was re-taken when they
    moved to ``random.Random(seed)``."""
    digest = hashlib.sha256()
    for d in PRIME_DIMS[2:]:
        for seed in range(3):
            res = solve_cyclic_probability(d, seed)
            digest.update(np.array([s.entries for s in res.solutions]).tobytes())
            digest.update(np.array(res.residuals).tobytes())
    assert digest.hexdigest() == (
        "18e35c41e056f272697fba2b08b16cbd5fd8fa8a08f277af4234f74361d124aa")


def test_probability_vector_validation():
    with pytest.raises(ValueError):
        ProbabilityVector(entries=(0.5, 0.6))
    with pytest.raises(ValueError):
        ProbabilityVector(entries=(1.1, -0.1))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ProbabilityVector(entries=(bad, 1.0))


# --- candidate projector from measurement columns -------------------------------------


def loop_mu_pom_from_probabilities(mub, probs):
    """Reference: the per-ket loop that the einsum replaced."""
    d = mub.d
    ops = []
    for b, p in enumerate(probs):
        mat = np.zeros((d, d), dtype=np.complex128)
        for m in range(d):
            ket = mub.bases[b, m]
            mat += p[m] * np.outer(ket, ket.conj())
        ops.append(mat)
    return ops


@pytest.mark.parametrize("d", REF_DIMS)
def test_mu_pom_from_probabilities_matches_loop(d):
    mub = build_mub(d)
    probs = np.random.default_rng(d).dirichlet(np.ones(d), size=d + 1)
    ops = mu_pom_from_probabilities(mub, probs)
    for op, ref in zip(ops, loop_mu_pom_from_probabilities(mub, probs), strict=True):
        assert np.abs(op - ref).max() <= 1e-14
    # The rows are what admitting each basis's matrix on its own gave.
    mats = np.einsum("bm,bmi,bmk->bik", probs, mub.bases, mub.bases.conj())
    assert ops.tobytes() == np.stack([HermitianOp.from_matrix(m) for m in mats]).tobytes()
    with pytest.raises(ValueError, match="basis 1"):
        mu_pom_from_probabilities(mub, [probs[0], probs[1][:-1]] + list(probs[2:]))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_lambda0_matches_operator_sum_loop(d):
    # λ₀ = Σ_b τ^(b) − 1 summed left to right, against the loop of operator
    # sums it replaced; uniform columns make exact zeros, whose signs count too.
    mub = build_mub(d)
    for probs in (np.random.default_rng(d).dirichlet(np.ones(d), size=d + 1),
                  np.full((d + 1, d), 1.0 / d)):
        taus = mu_pom_from_probabilities(mub, probs)
        total = taus[0]
        for tau in taus[1:]:
            total = op_add(total, tau)
        lambda0 = op_add(total, np.eye(d, dtype=complex), -1.0)
        ext = fiducial_from_mu_pom(taus, mub)
        assert ext.lambda0.tobytes() == lambda0.tobytes()
        assert ext.sum_spectrum.tobytes() == hermitian_eigensystem(total)[0].tobytes()


def test_qubit_candidate_projector():
    mub = build_mub(2)
    hi = (3 + np.sqrt(3)) / 6
    taus = mu_pom_from_probabilities(mub, [(hi, 1 - hi)] * 3)
    ext = fiducial_from_mu_pom(taus, mub)
    assert ext.rank == 1
    assert ext.third_moment == pytest.approx(1.0, abs=1e-10)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    want = (np.eye(2) + (sx + sy + sz) / np.sqrt(3)) / 2
    assert np.abs(ext.lambda0 - want).max() <= 1e-10
    spec, _ = hermitian_eigensystem(ext.lambda0)
    assert np.abs(spec - (1.0, 0.0)).max() <= 1e-10


def test_qutrit_candidate_projector():
    mub = build_mub(3)
    taus = mu_pom_from_probabilities(mub, [(0.5, 0.5, 0.0)] * 4)
    ext = fiducial_from_mu_pom(taus, mub)
    assert ext.rank == 1
    assert ext.fiducial is not None
    assert fidelity(ext.fiducial.ket, qutrit_target_ket()) >= 1 - 1e-10
    assert ext.fiducial.source == "reconstructed"
    # sum of the d+1 column operators has eigenvalues {2, 1, 1}
    assert np.abs(ext.sum_spectrum - (2.0, 1.0, 1.0)).max() <= 1e-8
    assert ext.sum_spectrum.sum() == pytest.approx(4.0, abs=1e-10)


def test_candidate_projector_eigensolves_each_operator_once(monkeypatch):
    # One eigensystem for Σ τ and one for λ₀; the rank is read off λ₀'s.
    mub = build_mub(3)
    taus = mu_pom_from_probabilities(mub, [(0.5, 0.5, 0.0)] * 4)
    calls = []

    def counting(h):
        calls.append(h)
        return hermitian_eigensystem(h)

    for module in (siclab, linalg):
        monkeypatch.setattr(module, "hermitian_eigensystem", counting)
    ext = fiducial_from_mu_pom(taus, mub)
    assert len(calls) == 2
    monkeypatch.undo()
    assert ext.rank == linalg.matrix_rank(ext.lambda0) == 1


def test_uniform_probabilities_are_degenerate():
    mub = build_mub(3)
    taus = mu_pom_from_probabilities(mub, [(1 / 3, 1 / 3, 1 / 3)] * 4)
    ext = fiducial_from_mu_pom(taus, mub)
    assert ext.rank != 1
    assert ext.fiducial is None
    assert np.abs(ext.lambda0 - np.eye(3) / 3).max() <= 1e-12


def test_rejects_non_diagonal_input():
    mub = build_mub(3)
    taus = np.array(mu_pom_from_probabilities(mub, [(0.5, 0.5, 0.0)] * 4))
    taus[0] = HermitianOp.from_matrix(
        np.array([[0.5, 0.2, 0], [0.2, 0.5, 0], [0, 0, 0.0]], dtype=complex)
    )
    with pytest.raises(ValueError):
        fiducial_from_mu_pom(taus, mub)


def test_rejects_a_nan_operator_as_not_diagonal():
    mub = build_mub(3)
    taus = np.array(mu_pom_from_probabilities(mub, [(0.5, 0.5, 0.0)] * 4))
    taus[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="operator 2 is not diagonal in basis 2: off-diagonal nan"):
        fiducial_from_mu_pom(taus, mub)


def test_closed_loop_probability_to_family():
    # Cyclic solutions feed per-basis diagonal columns whose assembled
    # fiducial regenerates a family passing the overlap check at 1e−10.
    for d in (2, 3):
        mub = build_mub(d)
        p = solve_cyclic_probability(d).solutions[0]
        taus = mu_pom_from_probabilities(mub, [tuple(p)] * (d + 1))
        ext = fiducial_from_mu_pom(taus, mub)
        assert ext.fiducial is not None
        assert verify_sic(generate_hw_sic(ext.fiducial)) <= 1e-10


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_single_operators_are_read_only_arrays(d, tmp_path):
    # Each τ_b, λ₀ and σ₀ is a read-only complex (d, d) array, and the
    # operator file gives back the same bits.
    rng = np.random.default_rng(d)
    mub = build_mub(d)
    taus = mu_pom_from_probabilities(mub, rng.dirichlet(np.ones(d), size=d + 1))
    assert taus.shape == (d + 1, d, d) and not taus.flags.writeable
    ops = [*taus, fiducial_from_mu_pom(taus, mub).lambda0]
    if d > 2:
        ops.append(build_sigma0_from_phases(d, rng.uniform(-np.pi, np.pi, (d * d - 1) // 2)))
    path = tmp_path / "op.json"
    for op in ops:
        linalg.write_operator_json(path, op)
        back = linalg.read_operator_json(path)
        assert back.tobytes() == op.tobytes()
        for arr in (op, back):
            assert type(arr) is np.ndarray and arr.dtype == np.complex128
            assert arr.shape == (d, d) and not arr.flags.writeable


# --- phases and the distinguished operator ---------------------------------------------


def test_sigma0_zero_phase_matrix():
    sigma = build_sigma0_from_phases(3, np.zeros(4))
    want = np.array(
        [[2 / 3, 1 / 2, 0], [1 / 2, 1 / 6, 0], [0, 0, 1 / 6]], dtype=complex
    )
    assert np.abs(sigma - want).max() <= 1e-12
    assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)


def test_sigma0_unit_purity_random_phases():
    rng = np.random.default_rng(6)
    for d in (3, 5, 7):
        n = (d * d - 1) // 2
        sigma = build_sigma0_from_phases(d, rng.uniform(0, 2 * np.pi, n))
        assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
        purity = np.trace(sigma @ sigma).real
        assert purity == pytest.approx(1.0, abs=1e-10)


def test_sigma0_round_trips_known_fiducial():
    fid = qutrit_fiducial()
    sigma = build_sigma0_from_phases(3, phases_from_fiducial(fid))
    outer = np.outer(fid.ket, fid.ket.conj())
    assert np.abs(sigma - outer).max() <= 1e-12
    assert third_moment(sigma) == pytest.approx(1.0, abs=1e-10)


def test_sigma0_round_trips_searched_fiducial(searched):
    fid = searched(5).fiducial
    sigma = build_sigma0_from_phases(5, phases_from_fiducial(fid))
    outer = np.outer(fid.ket, fid.ket.conj())
    assert np.abs(sigma - outer).max() <= 1e-8
    assert third_moment(sigma) == pytest.approx(1.0, abs=1e-8)


def test_sigma0_rejects_wrong_phase_count():
    with pytest.raises(ValueError):
        build_sigma0_from_phases(3, np.zeros(3))
    with pytest.raises(ValueError):
        build_sigma0_from_phases(2, np.zeros(1))


def raising_monomial(wp, k, b):
    """(X†)ᵏ Zᵇ in closed form: maps |n⟩ → ω^{bn}|n+k⟩."""
    d = wp.d
    n = np.arange(d)
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[(n + k) % d, n] = wp.omega ** ((b * n) % d)
    return mat


def loop_phase_amplitudes(fid):
    """Reference: the per-entry loop of phases_from_fiducial, returning the
    amplitudes whose arguments are the phases (row d conjugated)."""
    d = fid.d
    wp = build_weyl_pair(d)
    half = (d - 1) // 2
    psi = fid.ket
    amps = np.empty((d + 1, half), dtype=np.complex128)
    for k in range(1, half + 1):
        amps[d, k - 1] = np.conj(psi.conj() @ monomial(wp, 0, k) @ psi)
        for j in range(d):
            op = raising_monomial(wp, k, (-j * k) % d)
            amps[j, k - 1] = psi.conj() @ op @ psi
    return amps


def loop_build_sigma0_from_phases(d, phases):
    """Reference: the per-entry loops of build_sigma0_from_phases."""
    half = (d - 1) // 2
    phases = np.asarray(phases, dtype=float).reshape(d + 1, half)
    omega = np.exp(2j * np.pi / d)
    root = np.sqrt(d + 1.0)
    mat = np.zeros((d, d), dtype=np.complex128)
    for n in range(d):
        acc = 1.0
        for k in range(1, half + 1):
            acc += (2.0 / root) * np.cos(phases[d, k - 1] + 2 * np.pi * k * n / d)
        mat[n, n] = acc / d
    for k in range(1, half + 1):
        for n in range(d):
            z = sum(
                np.exp(1j * phases[j, k - 1]) * omega ** ((n * j * k) % d)
                for j in range(d)
            )
            mat[n, (n + k) % d] = z / (d * root)
            mat[(n + k) % d, n] = np.conj(mat[n, (n + k) % d])
    return mat


@pytest.mark.parametrize("d", ODD_REF_DIMS)
def test_raising_monomial_is_a_monomial(d):
    wp = build_weyl_pair(d)
    for k in range(1, d):
        for b in range(d):
            assert raising_monomial(wp, k, b).tobytes() == monomial(wp, d - k, b).tobytes()


@pytest.mark.parametrize("d", ODD_REF_DIMS)
def test_phases_match_loop(d):
    # An argument carries the error of its amplitude divided by the modulus,
    # so the phases are compared through |z|·|e^{iφ} − e^{iφ_ref}|.
    rng = np.random.default_rng(d)
    for _ in range(3):
        fid = Fiducial(d=d, ket=canonical_ket(random_ket(rng, d)))
        amps = loop_phase_amplitudes(fid)
        got = phases_from_fiducial(fid)
        assert got.shape == (d + 1, (d - 1) // 2)
        assert np.abs(amps - np.abs(amps) * np.exp(1j * got)).max() <= 1e-14


@pytest.mark.parametrize("d", ODD_REF_DIMS)
def test_sigma0_matches_loop(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        phases = rng.uniform(-np.pi, np.pi, (d * d - 1) // 2)
        ref = loop_build_sigma0_from_phases(d, phases)
        assert np.abs(build_sigma0_from_phases(d, phases) - ref).max() <= 1e-14


def power_build_sigma0_from_phases(d, phases):
    """Reference: build_sigma0_from_phases with ω formed here and each ω^{njk}
    raised from it, as before the phases were read from weyl's table."""
    half = (d - 1) // 2
    phases = np.asarray(phases, dtype=float).reshape(d + 1, half)
    omega = np.exp(2j * np.pi / d)
    root = np.sqrt(d + 1.0)
    n = np.arange(d)[:, None]
    k = np.arange(1, half + 1)
    diag = 1.0 + (2.0 / root) * np.cos(phases[d] + 2 * np.pi * k * n / d).sum(axis=1)
    mat = np.diag(diag / d).astype(np.complex128)
    j = np.arange(d)[:, None, None]
    z = (np.exp(1j * phases[:d, None, :]) * omega ** ((n * j * k) % d)).sum(axis=0)
    cols = (n + k) % d
    mat[n, cols] = z / (d * root)
    mat[cols, n] = np.conj(mat[n, cols])
    return HermitianOp.from_matrix(mat)


@pytest.mark.parametrize("d", PRIME_DIMS[1:])
def test_sigma0_matches_its_powers(d):
    rng = np.random.default_rng(d)
    for phases in (np.zeros((d * d - 1) // 2), rng.uniform(-np.pi, np.pi, (d * d - 1) // 2)):
        want = power_build_sigma0_from_phases(d, phases)
        assert build_sigma0_from_phases(d, phases).tobytes() == want.tobytes()


def test_qutrit_fiducial_matches_its_power():
    # qutrit_target_ket raises ω = exp(2πi/3) to its square in place.
    assert qutrit_fiducial().ket.tobytes() == canonical_ket(qutrit_target_ket()).tobytes()


@given(st.sampled_from(SEARCH_PRIMES[1:]), st.integers(0, 2**32 - 1))
def test_sigma0_inverts_phases_of_searched_fiducials(d, seed):
    res = search_fiducial(d, SearchConfig(seed=seed, restarts=200))
    assert res.converged
    fid = res.fiducial
    sigma = build_sigma0_from_phases(d, phases_from_fiducial(fid))
    assert np.abs(sigma - np.outer(fid.ket, fid.ket.conj())).max() <= 1e-9


# --- overlap conditions ------------------------------------------------------------------


def loop_rank_one_conditions(fid):
    """Reference: the d² loop of per-monomial amplitudes."""
    d = fid.d
    wp = build_weyl_pair(d)
    c = 1.0 / (d + 1)
    psi = fid.ket

    def dev(a, b):
        amp = psi.conj() @ monomial(wp, a, b) @ psi
        return abs(abs(amp) ** 2 - c)

    full = 0.0
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            full = max(full, dev(a, b))
    if d == 2:
        return full, full
    reduced = 0.0
    for k in range(1, (d - 1) // 2 + 1):
        for m in range(d):
            reduced = max(reduced, dev(k, (-m * k) % d))
    return full, reduced


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_overlap_table_entries(d):
    wp = build_weyl_pair(d)
    psi = random_ket(np.random.default_rng(d), d)
    table = overlap_table(psi)
    assert table.shape == (d, d)
    assert table[0, 0] == psi.conj() @ psi
    ref = [[psi.conj() @ monomial(wp, a, b) @ psi for b in range(d)] for a in range(d)]
    assert np.abs(table - np.array(ref)).max() <= 1e-14


@given(PRIMES, st.integers(0, 2**32 - 1))
def test_overlap_table_sum_rule(d, seed):
    # The d² Weyl monomials are an orthogonal operator basis with
    # tr(W†W) = d, so Σ_{a,b} |⟨ψ|W_ab|ψ⟩|² = d tr(|ψ⟩⟨ψ|²) = d‖ψ‖⁴ for
    # any ket, unnormalized ones included.
    rng = np.random.default_rng(seed)
    psi = rng.uniform(0.5, 2.0) * random_ket(rng, d)
    want = d * np.vdot(psi, psi).real ** 2
    got = float((np.abs(overlap_table(psi)) ** 2).sum())
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("d", REF_DIMS)
def test_rank_one_conditions_match_loop(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        fid = Fiducial(d=d, ket=canonical_ket(random_ket(rng, d)))
        got = rank_one_conditions(fid)
        ref = loop_rank_one_conditions(fid)
        assert np.abs(np.subtract(got, ref)).max() <= 1e-14
        assert all(type(x) is float for x in got)



@st.composite
def unit_kets(draw, d: int) -> np.ndarray:
    """Unit kets of parts drawn across binades, or a basis ket (where full =
    d·reduced exactly) moved by a drawn amount."""
    ket = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d))).view(complex)
    if draw(st.booleans()):
        ket = np.eye(d)[draw(st.integers(0, d - 1))] + draw(st.floats(0.0, 1.0)) * ket
    parts = ket.view(np.float64)
    assume(np.abs(parts).max() > 0)
    ket = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(complex)
    return ket / np.linalg.norm(ket)


@pytest.mark.parametrize("d", PRIME_DIMS[1:])
@settings(max_examples=12)
@given(data=st.data())
def test_full_is_within_d_times_reduced(d, data):
    """Acceptance 10's band: full ≤ d·reduced + ε at every odd prime ≤ 31,
    with ε the rounding term derived in ``helpers.rank_one_slack``; and
    reduced ≤ full, a maximum over a subset of the same entries."""
    ket = data.draw(unit_kets(d))
    full, reduced = rank_one_conditions(Fiducial(d=d, ket=ket))
    assert reduced <= full
    assert Fraction(full) <= d * Fraction(reduced) + rank_one_slack(ket, phase_error(d))


def test_conditions_on_exact_fiducial():
    full, reduced = rank_one_conditions(qutrit_fiducial())
    assert full <= 1e-12
    assert reduced <= 1e-12


def test_conditions_on_basis_state():
    fid = Fiducial(d=3, ket=np.array([1.0, 0, 0]), source="ingested")
    full, _ = rank_one_conditions(fid)
    assert full == pytest.approx(0.75, abs=1e-12)


def test_qubit_reduced_set_is_full_set():
    full, reduced = rank_one_conditions(qubit_fiducial())
    assert full == reduced
    assert full <= 1e-12


def test_reduced_full_agreement_random_kets():
    rng = np.random.default_rng(7)
    tol = 1e-10
    for d in (3, 5, 7):
        for _ in range(200):
            fid = Fiducial(d=d, ket=random_ket(rng, d), source="ingested")
            full, reduced = rank_one_conditions(fid)
            assert (full <= tol) == (reduced <= tol)
            assert reduced <= full + 1e-15


# --- search --------------------------------------------------------------------------------


def test_search_qubit_converges_fast():
    res = search_fiducial(2, SearchConfig(seed=0, restarts=10))
    assert res.converged
    assert res.objective <= 1e-14
    assert res.restarts_used <= 10


def test_search_qutrit_verifies():
    res = search_fiducial(3, SearchConfig(seed=0, restarts=10))
    assert res.converged
    assert verify_sic(generate_hw_sic(res.fiducial)) <= 1e-7


@pytest.mark.parametrize("d", SEARCH_PRIMES)
@given(st.integers(0, 2**32 - 1))
def test_converged_search_passes_verify_sic(d, seed):
    res = search_fiducial(d, SearchConfig(seed=seed, restarts=200))
    assert res.converged
    assert res.objective <= SearchConfig().objective_tol
    assert verify_sic(generate_hw_sic(res.fiducial)) <= 1e-10


def _record_accepted(monkeypatch) -> list:
    """The list that gets the max |r_M| of each solver call ending at
    Σr² ≤ objective_tol, in call order: the first is the ket the restart
    loop accepts."""
    accepted = []
    least_squares = siclab.least_squares

    def recording(fun, x0, **kwargs):
        res = least_squares(fun, x0, **kwargs)
        if float(np.sum(res.fun**2)) <= SearchConfig().objective_tol:
            accepted.append(float(np.abs(res.fun).max()))
        return res

    monkeypatch.setattr(siclab, "least_squares", recording)
    return accepted


@pytest.mark.parametrize("d, seed, max_iters", [(13, 0, 8), (5, 0, 12), (3, 6, 11)])
def test_search_polishes_accepted_ket(monkeypatch, d, seed, max_iters):
    # A restart that runs its course ends near 1e-16.  Cut short by these
    # budgets, the restart loop accepts a ket with Σr² below 1e-14 but a max
    # overlap deviation of 3.3e-10, 4.0e-8 and 3.8e-8; the polish takes it
    # within DEFAULT_TOL.
    accepted = _record_accepted(monkeypatch)
    res = search_fiducial(d, SearchConfig(seed=seed, max_iters=max_iters))
    assert accepted[0] > linalg.DEFAULT_TOL
    assert res.converged
    assert res.objective <= 1e-14
    assert max(rank_one_conditions(res.fiducial)) <= 1e-10
    assert verify_sic(generate_hw_sic(res.fiducial)) <= 1e-10


@pytest.mark.parametrize(
    "d, seed, max_iters", [(3, 0, n) for n in range(10, 15)] + [(3, 2, n) for n in (12, 13, 15)]
)
def test_search_polish_never_worsens_accepted_ket(d, seed, max_iters):
    # Cut short by these budgets, the restart loop accepts a ket with
    # Σr² ≤ 1e-14, so max |r_M| ≤ 1e-7.  Near the continuous d = 3 family an
    # undamped Gauss-Newton step from it can overshoot (to 3.66e-6 at seed 0,
    # max_iters 10); a polish step is kept only when it lowers max |r_M|.
    res = search_fiducial(d, SearchConfig(seed=seed, max_iters=max_iters))
    assert rank_one_conditions(res.fiducial)[0] <= 1e-7


@pytest.mark.parametrize(
    "seed, max_iters",
    [(6, n) for n in (12, 13, 14)] + [(0, n) for n in (9, 10, 11, 12, 13, 14, 15)]
    + [(2, n) for n in (12, 13, 14, 15)],
)
def test_search_polishes_qutrit_until_max_residual_stops_falling(monkeypatch, seed, max_iters):
    # Cut short by these budgets, each seed accepts a d = 3 ket above
    # DEFAULT_TOL.  Near the continuous d = 3 family an undamped Gauss-Newton
    # step from it overshoots; the damped polish keeps lowering the cost.
    accepted = _record_accepted(monkeypatch)
    res = search_fiducial(3, SearchConfig(seed=seed, max_iters=max_iters))
    assert accepted[0] > linalg.DEFAULT_TOL
    assert res.converged
    assert max(rank_one_conditions(res.fiducial)) <= 1e-10


@pytest.mark.parametrize("d", [2, 5, 7, 11, 13])
def test_converged_search_ends_at_float_floor(d):
    # A restart runs until its steps stop lowering the cost, not merely until
    # Σr² is below objective_tol, so the written ket is as exact as float64.
    for seed in range(6):
        res = search_fiducial(d, SearchConfig(seed=seed))
        assert res.converged
        assert max(rank_one_conditions(res.fiducial)) <= 1e-14


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_search_jacobian_matches_central_differences(monkeypatch, d):
    # The residuals and Jacobian the search hands its solver, taken at a
    # random point away from any fiducial.
    calls = []

    def capturing(fun, x0, *, jac, max_nfev):
        calls.append((fun, jac))
        return siclab.LeastSquaresResult(x=np.array(x0), fun=fun(x0))

    monkeypatch.setattr(siclab, "least_squares", capturing)
    search_fiducial(d, SearchConfig(seed=0, restarts=1))
    fun, jac = calls[0]
    x = np.random.default_rng(d).standard_normal(2 * d)
    h = 1e-6
    steps = h * np.eye(2 * d)
    numeric = np.stack([(fun(x + e) - fun(x - e)) / (2 * h) for e in steps], axis=1)
    analytic = jac(x)
    assert analytic.shape == (d * d - 1, 2 * d)
    assert np.abs(analytic - numeric).max() <= 1e-7 * np.abs(numeric).max()


@pytest.mark.parametrize(
    "d, restarts_used",
    [(13, [3, 1, 3, 2, 1, 4, 1, 2, 1, 2, 1, 4, 1, 1, 4, 1, 2, 1, 1, 3]), (19, [30, 7, 16, 4, 3, 1])],
)
def test_search_restart_counts_are_pinned(d, restarts_used):
    # Seeds 0, 1, ...: the rng stream, the solver and the overlap arithmetic
    # together decide at which restart a search first converges.
    results = [search_fiducial(d, SearchConfig(seed=s, restarts=200)) for s in range(len(restarts_used))]
    assert [r.restarts_used for r in results] == restarts_used
    assert all(r.converged for r in results)


def test_search_is_deterministic():
    cfg = SearchConfig(seed=5, restarts=3)
    a = search_fiducial(3, cfg)
    b = search_fiducial(3, cfg)
    assert np.array_equal(a.fiducial.ket, b.fiducial.ket)
    assert a.objective == b.objective


@pytest.mark.parametrize("seed", [np.int64(7), np.uint8(7), np.array(7)[()]])
def test_numpy_integer_seed_draws_as_the_python_int(seed):
    # Both solvers draw from random.Random(operator.index(seed)).
    want = search_fiducial(5, SearchConfig(seed=7, restarts=2))
    got = search_fiducial(5, SearchConfig(seed=seed, restarts=2))
    assert got.fiducial.ket.tobytes() == want.fiducial.ket.tobytes()
    assert (got.objective, got.restarts_used) == (want.objective, want.restarts_used)
    want = solve_cyclic_probability(5, seed=7, restarts=4)
    got = solve_cyclic_probability(5, seed=seed, restarts=4)
    assert [s.entries for s in got.solutions] == [s.entries for s in want.solutions]


def test_seed_past_64_bits_runs():
    res = search_fiducial(5, SearchConfig(seed=10**30))
    assert res.converged
    assert solve_cyclic_probability(5, seed=10**30, restarts=4).solutions


@pytest.mark.parametrize("seed, error, match", [
    (-1, ValueError, "expected non-negative integer"),
    (-(10**30), ValueError, "expected non-negative integer"),
    (1.0, TypeError, "integer"),
    ("7", TypeError, "integer"),
])
def test_seed_must_be_a_non_negative_integer(seed, error, match):
    with pytest.raises(error, match=match):
        search_fiducial(3, SearchConfig(seed=seed, restarts=1))
    # d = 2 and 3 take closed forms and draw nothing; the seed is checked all the same.
    for d in (2, 3, 5):
        with pytest.raises(error, match=match):
            solve_cyclic_probability(d, seed=seed, restarts=1)


def test_search_reports_budget_exhaustion():
    res = search_fiducial(5, SearchConfig(seed=0, restarts=1, max_iters=2))
    assert not res.converged
    assert res.objective > 1e-14
    assert res.fiducial.d == 5


def test_least_squares_stays_within_max_nfev(monkeypatch):
    used = []
    least_squares = siclab.least_squares

    def counting(fun, x0, **kwargs):
        calls = []

        def counted(x):
            calls.append(1)
            return fun(x)

        res = least_squares(counted, x0, **kwargs)
        used.append((len(calls), kwargs["max_nfev"]))
        return res

    monkeypatch.setattr(siclab, "least_squares", counting)
    for d in SEARCH_PRIMES:
        for max_iters in (1, 2, 3, 5, 10, 20):
            search_fiducial(d, SearchConfig(seed=1, restarts=2, max_iters=max_iters))
    assert len(used) >= len(SEARCH_PRIMES) * 6
    assert all(calls <= cap for calls, cap in used)
    assert any(calls == cap for calls, cap in used)


def test_least_squares_keeps_last_finite_point():
    # The residuals x − (1, 2) turn NaN beyond x₀ = 0.5, short of the minimum:
    # every step past it is rejected, and the loop ends with finite residuals.
    seen = []

    def fun(x):
        seen.append(x.copy())
        return x - [1.0, 2.0] if x[0] <= 0.5 else np.full(2, np.nan)

    res = siclab.least_squares(fun, [0.0, 0.0], jac=lambda x: np.eye(2), max_nfev=200)
    assert len(seen) < 200
    assert any(x[0] > 0.5 for x in seen)
    assert 0.4 < res.x[0] <= 0.5
    assert np.array_equal(res.fun, res.x - [1.0, 2.0])


def test_least_squares_stops_where_no_step_lowers_the_cost():
    # At the minimum of an inconsistent system every step is rejected until
    # the damping passes its cap; the start comes back unchanged.
    calls = []

    def fun(x):
        calls.append(1)
        return np.array([x[0], x[0] - 1.0])

    res = siclab.least_squares(fun, [0.5], jac=lambda x: np.ones((2, 1)), max_nfev=1000)
    assert np.array_equal(res.x, [0.5])
    assert np.array_equal(res.fun, [0.5, -0.5])
    assert len(calls) < 1000


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(objective_tol=0.0)
    # A NaN tolerance would make every restart run and report no convergence.
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="objective_tol must be finite"):
            SearchConfig(objective_tol=bad)


# --- fiducial files ---------------------------------------------------------------------


def test_ingest_round_trip(tmp_path, searched):
    fid = searched(7).fiducial
    path = tmp_path / "fid7.json"
    write_fiducial_json(path, fid)
    back = ingest_fiducial(path, 7)
    assert back.source == "ingested"
    assert np.abs(back.ket - fid.ket).max() <= 1e-12


def test_ingest_validates_dimension(tmp_path):
    path = tmp_path / "fid.json"
    ket6 = [[1.0, 0.0]] + [[0.0, 0.0]] * 5
    path.write_text(json.dumps({"d": 7, "ket": ket6}))
    with pytest.raises(ValueError):
        ingest_fiducial(path, 7)
    path.write_text(json.dumps({"d": 6, "ket": ket6}))
    with pytest.raises(ValueError):
        ingest_fiducial(path, 7)


def test_ingest_renormalizes_but_rejects_junk(tmp_path):
    path = tmp_path / "fid.json"
    ket = [[1.0 + 5e-7, 0.0], [0.0, 0.0]]
    path.write_text(json.dumps({"d": 2, "ket": ket}))
    fid = ingest_fiducial(path, 2)
    assert np.linalg.norm(fid.ket) == pytest.approx(1.0, abs=1e-12)
    path.write_text(json.dumps({"d": 2, "ket": [[2.0, 0.0], [0.0, 0.0]]}))
    with pytest.raises(ValueError):
        ingest_fiducial(path, 2)
    path.write_text("{not json")
    with pytest.raises((ValueError, json.JSONDecodeError)):
        ingest_fiducial(path, 2)

"""End-to-end acceptance checks.

Each test prints one PASS/FAIL scoreboard line directly to the terminal
(bypassing pytest capture) and then asserts the same condition, so a full
run shows ten lines — one per acceptance criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    D5,
    D7A,
    D7B,
    D11A,
    D11B,
    D11C,
    group_sizes,
    op_add,
    op_scale,
    phase_error,
    random_density,
    random_ket,
    rank_one_slack,
    spectra_match,
)
from mubsic import siclab
from mubsic.frames import (
    LineFrame,
    line_ops_from_points,
    line_probabilities,
    point_frame_from_hg,
    point_frame_from_mub,
    point_ops_from_lines,
    quasi_distribution,
    scaled_so,
    trace_one,
    verify_point_line_table,
)
from mubsic.linalg import hermitian_eigensystem, hs_inner
from mubsic.plane import build_dapg, line_keys, verify_incidence
from mubsic.siclab import (
    Fiducial,
    SearchConfig,
    fiducial_from_mu_pom,
    generate_hw_sic,
    group_columns_by_spectrum,
    mu_pom_from_probabilities,
    qutrit_fiducial,
    rank_one_conditions,
    search_fiducial,
    solve_cyclic_probability,
    verify_sic,
)
from mubsic.weyl import build_hg_basis, build_mub, build_weyl_pair, verify_mub


@pytest.fixture
def report(capsys):
    def emit(n: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"acceptance {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")

    return emit


def gram(stack) -> np.ndarray:
    return np.einsum("aij,bji->ab", stack, stack).real


def sic_line_frame(fam) -> LineFrame:
    d = fam.d
    eye = np.eye(d, dtype=complex)
    # l = d·λ − 1 for each row, as the per-operator arithmetic computed it.
    ops = np.stack([op_add(op_scale(d, lam), eye, -1.0) for lam in fam.projectors])
    return LineFrame(d=d, alpha=float(d * (d - 1)), ops=ops)


def test_criterion_01_unbiased_bases(report):
    start = time.perf_counter()
    dev = max(verify_mub(build_mub(d)) for d in (2, 3, 5, 7, 11))
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-12 and elapsed < 1.0
    report(1, ok, f"basis overlaps off by {dev:.2e} for d in 2..11, {elapsed:.2f}s")
    assert dev <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_dual_plane_axioms(report):
    start = time.perf_counter()
    all_ok = True
    for d in (2, 3, 5, 7, 11, 13):
        all_ok = all_ok and verify_incidence(build_dapg(d)).ok
    summary = verify_incidence(build_dapg(3)).summary()
    elapsed = time.perf_counter() - start
    ok = all_ok and summary == "12 points, 9 lines, all axioms pass" and elapsed < 1.0
    report(2, ok, f"axioms exact for d in 2..13; d=3 reports '{summary}'; {elapsed:.2f}s")
    assert all_ok
    assert summary == "12 points, 9 lines, all axioms pass"
    assert elapsed < 1.0


def test_criterion_03_operator_basis_case(report):
    worst_gram = 0.0
    worst_products = 0.0
    for d in (2, 3, 5, 7):
        pf = point_frame_from_mub(build_mub(d))
        geom = build_dapg(d)
        lf = line_ops_from_points(pf, geom)
        lams = trace_one(lf.ops, d)
        worst_gram = max(
            worst_gram, float(np.abs(gram(lams) - d * np.eye(d * d)).max())
        )
        rep = verify_point_line_table(pf, lf, geom)
        # at β = d(d−1) the trace-one products are exactly 1 on-line, 0 off
        worst_products = max(worst_products, rep.max_dev_trace_one)
    ok = worst_gram <= 1e-10 and worst_products <= 1e-10
    report(
        3,
        ok,
        f"tr(λλ') = d·δ off by {worst_gram:.2e}; "
        f"point-line products off {{0,1}} by {worst_products:.2e} (d in 2..7)",
    )
    assert worst_gram <= 1e-10
    assert worst_products <= 1e-10


def test_criterion_04_qubit_pipeline(report):
    hi = (3 + np.sqrt(3)) / 6
    sol = solve_cyclic_probability(2).solutions[0]
    dev_p = abs(sol.entries[0] - hi)
    mub = build_mub(2)
    ext = fiducial_from_mu_pom(
        mu_pom_from_probabilities(mub, [tuple(sol)] * 3), mub
    )
    spec, _ = hermitian_eigensystem(ext.lambda0)
    dev_eig = float(np.abs(spec - (1.0, 0.0)).max())
    fam = generate_hw_sic(ext.fiducial)
    dev_overlap = verify_sic(fam)
    ok = dev_p <= 1e-12 and dev_eig <= 1e-10 and dev_overlap <= 1e-10
    report(
        4,
        ok,
        f"p off by {dev_p:.2e}; projector eigenvalues off by {dev_eig:.2e}; "
        f"4-state overlaps off by {dev_overlap:.2e}",
    )
    assert dev_p <= 1e-12
    assert dev_eig <= 1e-10
    assert dev_overlap <= 1e-10


def test_criterion_05_qutrit_pipeline(report):
    mub = build_mub(3)
    ext = fiducial_from_mu_pom(
        mu_pom_from_probabilities(mub, [(0.5, 0.5, 0.0)] * 4), mub
    )
    target = qutrit_fiducial().ket
    fid_ok = ext.rank == 1 and ext.fiducial is not None
    overlap = abs(np.vdot(ext.fiducial.ket, target)) ** 2 if fid_ok else 0.0
    dev_family = verify_sic(generate_hw_sic(ext.fiducial)) if fid_ok else np.inf
    ok = fid_ok and overlap >= 1 - 1e-10 and dev_family <= 1e-10
    report(
        5,
        ok,
        f"rank {ext.rank} projector, ket fidelity {overlap:.12f}, "
        f"9-state overlaps off by {dev_family:.2e}",
    )
    assert fid_ok
    assert overlap >= 1 - 1e-10
    assert dev_family <= 1e-10


def test_criterion_06_simplex_norms(report):
    worst_line = 0.0
    worst_scaled = 0.0
    for d in (3, 5, 7):
        basis = build_hg_basis(build_weyl_pair(d))
        geom = build_dapg(d)
        lf = line_ops_from_points(point_frame_from_hg(basis), geom)
        n = d * d
        target = np.full((n, n), -0.5)
        np.fill_diagonal(target, (d + 1) * (d - 1) / 2)
        worst_line = max(worst_line, float(np.abs(gram(lf.ops) - target).max()))
        sig = scaled_so(lf)
        target_s = np.full((n, n), 1.0 / (d + 1))
        np.fill_diagonal(target_s, 1.0)
        worst_scaled = max(worst_scaled, float(np.abs(gram(sig) - target_s).max()))
    ok = worst_line <= 1e-10 and worst_scaled <= 1e-10
    report(
        6,
        ok,
        f"tr l² = (d+1)(d−1)/2 and cross −1/2 off by {worst_line:.2e}; "
        f"tr σσ' = 1/(d+1) off by {worst_scaled:.2e} (d in 3..7)",
    )
    assert worst_line <= 1e-10
    assert worst_scaled <= 1e-10


def test_criterion_07_d5_spectra(report, searched, searched_mu_pom):
    res = searched(5)
    _, _, table, spread = searched_mu_pom(5)
    grouping = group_columns_by_spectrum(table, tol=1e-4)
    sizes_ok = group_sizes(grouping) == [3, 3]
    match_ok = spectra_match(grouping, D5)
    ok = (
        res.converged
        and res.objective <= 1e-12
        and res.restarts_used <= 200
        and spread.max() <= 1e-8
        and sizes_ok
        and match_ok
    )
    report(
        7,
        ok,
        f"search objective {res.objective:.2e} in {res.restarts_used} restart(s); "
        f"column spread {spread.max():.2e}; groups of 3+3 match "
        f"published spectra: {match_ok}",
    )
    assert res.converged and res.objective <= 1e-12
    assert spread.max() <= 1e-8
    assert sizes_ok
    assert match_ok


def test_criterion_08_d7_d11_structure(report, searched, searched_mu_pom):
    _, _, table7, rep7 = searched_mu_pom(7)
    g7 = group_columns_by_spectrum(table7, tol=1e-4)
    sizes7_ok = group_sizes(g7) in ([1, 1, 3, 3], [1, 1, 6])
    match7 = spectra_match(g7, D7A) or spectra_match(g7, D7B)

    _, _, table11, rep11 = searched_mu_pom(11)
    g11 = group_columns_by_spectrum(table11, tol=1e-4)
    sizes11_ok = group_sizes(g11) == [3, 3, 3, 3]
    match11 = any(spectra_match(g11, ref) for ref in (D11A, D11B, D11C))

    spread_ok = rep7.max() <= 1e-8 and rep11.max() <= 1e-8
    ok = spread_ok and sizes7_ok and sizes11_ok and match7 and match11
    report(
        8,
        ok,
        f"searched fiducials: d=7 sizes {group_sizes(g7)} (spread {rep7.max():.2e}, "
        f"table match {match7}); d=11 sizes {group_sizes(g11)} "
        f"(spread {rep11.max():.2e}, table match {match11})",
    )
    assert spread_ok
    assert sizes7_ok and sizes11_ok
    assert match7 and match11


def test_criterion_09_quasi_probability_identity(report, searched):
    rng = np.random.default_rng(0)
    worst_line_sum = 0.0
    worst_total = 0.0
    for d in (2, 3, 5):
        if d == 2:
            fam = generate_hw_sic(siclab.qubit_fiducial())
        elif d == 3:
            fam = generate_hw_sic(qutrit_fiducial())
        else:
            fam = generate_hw_sic(searched(5).fiducial)
        geom = build_dapg(d)
        lf = sic_line_frame(fam)
        pf = point_ops_from_lines(lf, geom)
        lams = trace_one(lf.ops, d)
        for _ in range(100):
            rho = random_density(rng, d)
            p = line_probabilities(quasi_distribution(rho, pf), geom)
            assert list(p) == line_keys(d)
            for lam, value in zip(lams, p.values()):
                direct = hs_inner(lam, rho) / d
                worst_line_sum = max(worst_line_sum, abs(value - direct))
            worst_total = max(worst_total, abs(sum(p.values()) - 1.0))
    ok = worst_line_sum <= 1e-12 and worst_total <= 1e-12
    report(
        9,
        ok,
        f"line-sum identity off by {worst_line_sum:.2e}, Σp off 1 by "
        f"{worst_total:.2e} (100 random states per d in 2,3,5)",
    )
    assert worst_line_sum <= 1e-12
    assert worst_total <= 1e-12


def test_criterion_10_reduced_condition_equivalence(report, monkeypatch):
    tol = 1e-10
    # Collect the optimizer's iterates through the solver's substitution
    # point: each ket the search's residual is evaluated at, normalized.
    iterates = []
    least_squares = siclab.least_squares

    def collecting(fun, x0, **kwargs):
        def seen(x):
            psi = x[: len(x) // 2] + 1j * x[len(x) // 2 :]
            iterates.append(psi / np.sqrt(float((psi.conj() @ psi).real)))
            return fun(x)

        return least_squares(seen, x0, **kwargs)

    monkeypatch.setattr(siclab, "least_squares", collecting)
    rng = np.random.default_rng(1)
    disagreements = 0
    checked_random = 0
    checked_iterates = 0
    # The finite-tolerance form, from full ≤ d·reduced + ε (ε the rounding
    # term of helpers.rank_one_slack): reduced ≤ tol/d ⇒ full ≤ tol + ε, and
    # full ≤ tol ⇒ reduced ≤ tol.  It holds however the samples fall in the
    # band tol/d < reduced ≤ tol, where the check at one threshold may not.
    finite_failures = 0
    in_band = 0

    def check(fid):
        nonlocal disagreements, finite_failures, in_band
        full, reduced = rank_one_conditions(fid)
        if (full <= tol) != (reduced <= tol):
            disagreements += 1
        slack = rank_one_slack(fid.ket, phase_error(fid.d))
        if fid.d * Fraction(reduced) <= Fraction(tol) and Fraction(full) > Fraction(tol) + slack:
            finite_failures += 1
        if full <= tol and reduced > tol:
            finite_failures += 1
        in_band += tol / fid.d < reduced <= tol

    for d in (3, 5, 7):
        for _ in range(1000):
            check(Fiducial(d=d, ket=random_ket(rng, d), source="ingested"))
            checked_random += 1
        # one search stops at the first converged restart, so pool a few seeds
        iterates.clear()
        for seed in range(11, 51):
            if len(iterates) >= 100:
                break
            search_fiducial(d, SearchConfig(seed=seed, restarts=12))
        assert len(iterates) >= 100, f"only {len(iterates)} iterates for d = {d}"
        stride = max(1, len(iterates) // 100)
        for ket in iterates[::stride][:100]:
            check(Fiducial(d=d, ket=ket / np.linalg.norm(ket), source="searched"))
            checked_iterates += 1
    ok = disagreements == 0 and finite_failures == 0 and checked_random == 3000 and checked_iterates >= 300
    report(
        10,
        ok,
        f"full vs reduced test agree on {checked_random} random kets and "
        f"{checked_iterates} optimizer iterates (d in 3,5,7); "
        f"{disagreements} disagreement(s); finite-tolerance form fails on {finite_failures} "
        f"({in_band} in the band tol/d < reduced <= tol)",
    )
    assert disagreements == 0
    assert finite_failures == 0
    assert checked_random == 3000
    assert checked_iterates >= 300

import warnings

import numpy as np
import pytest

from helpers import PRIME_DIMS, label_table, traced_peak
from mubsic.linalg import HermitianOp
from mubsic.weyl import (
    HGBasis,
    MubFamily,
    build_hg_basis,
    build_mub,
    build_weyl_pair,
    commuting_classes,
    is_prime,
    monomial,
    shift_clock_tables,
    verify_mub,
    verify_rotation_action,
)

# The power_* references and loop_hg_basis form ω where they use it and
# raise it to each power in place; the package reads every phase from
# shift_clock_tables and must match them bit for bit.


# --- generator pair -------------------------------------------------------------


def test_qubit_pair_is_pauli():
    wp = build_weyl_pair(2)
    np.testing.assert_array_equal(wp.X, np.array([[0, 1], [1, 0]]))
    np.testing.assert_allclose(wp.Z, np.diag([1.0, -1.0]), atol=1e-15)


def test_commutation_relation():
    for d in (2, 3, 5, 7):
        wp = build_weyl_pair(d)
        assert np.abs(wp.omega * wp.Z @ wp.X - wp.X @ wp.Z).max() <= 1e-15


def test_generator_orders():
    wp = build_weyl_pair(5)
    np.testing.assert_array_equal(np.linalg.matrix_power(wp.X, 5), np.eye(5))
    assert np.abs(np.linalg.matrix_power(wp.Z, 5) - np.eye(5)).max() <= 1e-12


def test_non_prime_rejected():
    assert not is_prime(1) and not is_prime(9)
    for bad in (0, 1, 4, 6, 9, 12):
        with pytest.raises(ValueError):
            build_weyl_pair(bad)


def power_weyl_pair(d):
    """Reference: X by its shifted ones and Z = diag(ω^n), ω formed here."""
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=np.complex128)
    x[np.arange(d), (np.arange(d) + 1) % d] = 1.0
    return x, np.diag(omega ** np.arange(d)), complex(omega)


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_weyl_pair_and_tables_match_their_powers(d):
    wp = build_weyl_pair(d)
    x, z, omega = power_weyl_pair(d)
    assert (wp.X.tobytes(), wp.Z.tobytes(), wp.omega) == (x.tobytes(), z.tobytes(), omega)
    ahead, behind, w = shift_clock_tables(d)
    p = np.arange(d) * 1.5
    for m in range(d):
        assert np.array_equal(p[ahead[m]], np.roll(p, -m))
        assert np.array_equal(p[behind[m]], np.roll(p, m))
        assert w[m].tobytes() == (omega ** ((m * np.arange(d)) % d)).tobytes()


# --- monomials --------------------------------------------------------------------


def test_monomial_identity_and_qubit_product():
    wp = build_weyl_pair(3)
    np.testing.assert_allclose(monomial(wp, 0, 0), np.eye(3), atol=1e-15)
    wp2 = build_weyl_pair(2)
    np.testing.assert_allclose(
        monomial(wp2, 1, 1), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15
    )


def test_monomial_gram_matrix():
    wp = build_weyl_pair(3)
    mons = [monomial(wp, a, b) for a in range(3) for b in range(3)]
    gram = np.array(
        [[np.trace(m1.conj().T @ m2) for m2 in mons] for m1 in mons]
    )
    np.testing.assert_allclose(gram, 3 * np.eye(9), atol=1e-10)


def test_monomial_index_range():
    wp = build_weyl_pair(3)
    for a, b in ((-1, 0), (0, 3), (3, 0)):
        with pytest.raises(ValueError):
            monomial(wp, a, b)


def power_monomial(wp, a, b):
    """Reference: (X^a Z^b)[i, j] = ω^{bj} δ_{j, i+a mod d}, each phase
    raised from ω."""
    d = wp.d
    omega = np.exp(2j * np.pi / d)
    rows = np.arange(d)
    cols = (rows + a) % d
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[rows, cols] = omega ** ((b * cols) % d)
    return mat


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_monomial_matches_its_powers(d):
    wp = build_weyl_pair(d)
    for a in range(d):
        for b in range(d):
            assert monomial(wp, a, b).tobytes() == power_monomial(wp, a, b).tobytes()


def test_monomial_matches_matrix_powers():
    wp = build_weyl_pair(5)
    for a in range(5):
        for b in range(5):
            direct = np.linalg.matrix_power(wp.X, a) @ np.linalg.matrix_power(wp.Z, b)
            assert np.abs(monomial(wp, a, b) - direct).max() <= 1e-12


# --- unbiased bases ---------------------------------------------------------------


def test_mub_qutrit_explicit_ket():
    mub = build_mub(3)
    omega = np.exp(2j * np.pi / 3)
    expected = np.array([1.0, 1.0, omega]) / np.sqrt(3.0)
    assert np.abs(mub.bases[1, 0] - expected).max() <= 1e-12


def test_mub_last_basis_is_computational():
    mub = build_mub(3)
    np.testing.assert_allclose(mub.bases[3], np.eye(3), atol=1e-15)


def test_mub_deviation_small_primes():
    for d in (2, 3, 5, 7, 11, 13):
        mub = build_mub(d)
        assert mub.n_bases == d + 1
        assert verify_mub(mub) <= 1e-12


def loop_mub_bases(d):
    """Reference: the per-ket double loop that the broadcast construction replaced."""
    bases = np.zeros((d + 1, d, d), dtype=np.complex128)
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        bases[0] = [[s, s], [s, -s]]
        bases[1] = [[s, 1j * s], [s, -1j * s]]
    else:
        omega = np.exp(2j * np.pi / d)
        n = np.arange(d)
        tri = (n * (n - 1) // 2) % d
        for b in range(d):
            for m in range(d):
                bases[b, m] = omega ** ((b * tri + m * n) % d) / np.sqrt(d)
    bases[d] = np.eye(d)
    return bases


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_mub_matches_loop_bit_for_bit(d):
    bases = build_mub(d).bases
    assert bases.dtype == np.complex128 and bases.shape == (d + 1, d, d)
    assert bases.tobytes() == loop_mub_bases(d).tobytes()


def test_verify_single_basis_family():
    full = build_mub(3)
    sub = MubFamily(d=3, bases=full.bases[:1])
    assert verify_mub(sub) <= 1e-12


def test_verify_flags_corrupted_ket():
    mub = build_mub(3)
    bases = mub.bases.copy()
    bases[1, 0] = np.array([1.0, 0.0, 0.0])
    dev = verify_mub(MubFamily(d=3, bases=bases))
    assert dev >= 1.0 / 3 - 0.05


def dense_mub_deviation(mub: MubFamily) -> float:
    """verify_mub as one einsum over every pair of bases against the whole
    (n·d)² target, as it was once formed: the oracle of its basis rows."""
    d, n = mub.d, mub.n_bases
    overlaps = np.abs(np.einsum("bmk,cnk->bmcn", mub.bases.conj(), mub.bases)) ** 2
    target = label_table(np.repeat(np.arange(n), d), 1.0, 0.0, 1.0 / d)
    return float(np.abs(overlaps - target.reshape(n, d, n, d)).max())


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_verify_mub_matches_the_whole_table(d):
    # The exact family, one moved off unbiasedness by 1e-6, and its last basis alone.
    mub = build_mub(d)
    noise = np.random.default_rng(d).standard_normal(mub.bases.shape)
    for fam in (mub, MubFamily(d=d, bases=mub.bases + 1e-6 * noise), MubFamily(d=d, bases=mub.bases[-1:])):
        assert verify_mub(fam) == dense_mub_deviation(fam)


def test_verify_mub_of_a_nan_in_the_last_basis_is_nan():
    bases = build_mub(5).bases.copy()
    bases[-1, 4, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(verify_mub(MubFamily(d=5, bases=bases)))


def test_verify_mub_memory_at_d31():
    """One basis's overlaps with every basis at a time: the traced peak of
    building and checking the d = 31 family is 1.34 MB, against 32.0 MB when
    all (n·d)² overlaps and their whole target were built at once."""
    assert traced_peak(lambda: verify_mub(build_mub(31))) < 2e6


def test_mub_json_round_trip():
    mub = build_mub(5)
    back = MubFamily.from_json_dict(mub.to_json_dict())
    assert back.d == 5
    assert np.abs(back.bases - mub.bases).max() <= 1e-15


# --- commuting classes -------------------------------------------------------------


def test_classes_counts():
    wp = build_weyl_pair(3)
    classes = commuting_classes(wp)
    assert len(classes) == 4
    assert all(len(c) == 1 for c in classes)
    wp5 = build_weyl_pair(5)
    classes5 = commuting_classes(wp5)
    assert len(classes5) == 6
    assert all(len(c) == 2 for c in classes5)


def test_classes_cover_all_monomials():
    # Generators, their adjoints, and the identity exhaust the d² monomials:
    # (d+1)·(d−1)/2 generators, as many adjoints, plus one.
    for d in (3, 5, 7):
        wp = build_weyl_pair(d)
        classes = commuting_classes(wp)
        labels = {(0, 0)}
        for gens in classes:
            for a, b in gens:
                labels.add((a, b))
                labels.add(((-a) % d, (-b) % d))
        assert len(labels) == d * d


def test_classes_commute_within_and_orthogonal_across():
    wp = build_weyl_pair(5)
    classes = commuting_classes(wp)
    mats = [[monomial(wp, a, b) for a, b in gens] for gens in classes]
    for ops in mats:
        for m1 in ops:
            for m2 in ops:
                assert np.abs(m1 @ m2 - m2 @ m1).max() <= 1e-12
    for i, ops in enumerate(mats):
        for ops2 in mats[i + 1:]:
            for m1 in ops:
                for m2 in ops2:
                    assert abs(np.trace(m1.conj().T @ m2)) <= 1e-12


def test_classes_reject_qubit():
    with pytest.raises(ValueError):
        commuting_classes(build_weyl_pair(2))


# --- h/g basis ----------------------------------------------------------------------


def test_hg_traceless_and_normalized():
    wp = build_weyl_pair(5)
    basis = build_hg_basis(wp)
    for j in range(6):
        for k in (1, 2):
            h = HermitianOp.from_matrix(basis.h[j, k - 1])
            g = HermitianOp.from_matrix(basis.g[j, k - 1])
            assert abs(np.trace(h).real) <= 1e-12
            assert abs(np.trace(g).real) <= 1e-12
            # tr h² = 2d|ζ|² = 1 at |ζ|² = 1/(2d)
            assert np.trace(h @ h).real == pytest.approx(1.0, abs=1e-10)
            assert np.trace(h @ g).real == pytest.approx(0.0, abs=1e-10)


def test_hg_orthogonality_across_labels():
    wp = build_weyl_pair(5)
    basis = build_hg_basis(wp)
    flat_h = basis.h.reshape(-1, 5, 5)
    flat_g = basis.g.reshape(-1, 5, 5)
    n = flat_h.shape[0]
    for i in range(n):
        for i2 in range(n):
            hh = np.trace(flat_h[i] @ flat_h[i2]).real
            hg = np.trace(flat_h[i] @ flat_g[i2]).real
            assert hh == pytest.approx(1.0 if i == i2 else 0.0, abs=1e-10)
            assert hg == pytest.approx(0.0, abs=1e-10)


def loop_hg_basis(wp, phases):
    """Reference: the per-generator loop over the (d+1)(d−1)/2 monomials."""
    d = wp.d
    half = (d - 1) // 2
    modulus = float(np.sqrt(1.0 / (2 * d)))
    h = np.zeros((d + 1, half, d, d), dtype=np.complex128)
    g = np.zeros_like(h)
    for j, gens in enumerate(commuting_classes(wp)):
        for idx, (a, b) in enumerate(gens):
            m = power_monomial(wp, a, b)
            zeta = modulus * np.exp(1j * phases[j, idx])
            h[j, idx] = zeta * m + np.conj(zeta) * m.conj().T
            g[j, idx] = -1j * (zeta * m - np.conj(zeta) * m.conj().T)
    return h, g


@pytest.mark.parametrize("d", PRIME_DIMS[1:])
def test_hg_matches_loop_bit_for_bit(d):
    wp = build_weyl_pair(d)
    shape = (d + 1, (d - 1) // 2)
    for phases in (np.zeros(shape), np.random.default_rng(d).uniform(-np.pi, np.pi, shape)):
        basis = build_hg_basis(wp, phases)
        h, g = loop_hg_basis(wp, phases)
        assert (basis.h.tobytes(), basis.g.tobytes()) == (h.tobytes(), g.tobytes())
        assert not basis.h.flags.writeable and not basis.g.flags.writeable


def test_hg_builds_one_class_at_a_time():
    """The h and g stacks at d = 31 hold 14.8 MB, and building them peaks at
    14.9 MB with a loop over generators, 15.4 MB one class at a time, and
    37.1 MB with every generator gathered in one expression."""
    wp = build_weyl_pair(31)
    assert traced_peak(lambda: build_hg_basis(wp)) <= 15.9e6


def test_hg_rejects_qubit_and_bad_modulus():
    with pytest.raises(ValueError):
        build_hg_basis(build_weyl_pair(2))
    with pytest.raises(ValueError):
        build_hg_basis(build_weyl_pair(3), phases=np.zeros((2, 2)))


# --- rotation action ----------------------------------------------------------------


def test_rotation_action_small_primes():
    for d in (3, 5, 7):
        wp = build_weyl_pair(d)
        assert verify_rotation_action(build_hg_basis(wp)) <= 1e-12


def loop_verify_rotation_action(basis):
    """Reference: the per-generator loop that the stacked check replaced."""
    d = basis.d
    wp = build_weyl_pair(d)
    worst = 0.0

    def spin(u, rows_h, rows_g, angle):
        c, s = np.cos(angle), np.sin(angle)
        rh = u @ rows_h @ u.conj().T - (c * rows_h + s * rows_g)
        rg = u @ rows_g @ u.conj().T - (-s * rows_h + c * rows_g)
        return max(np.linalg.norm(rh, 2), np.linalg.norm(rg, 2))

    for j in range(d + 1):
        for idx in range((d - 1) // 2):
            k = idx + 1
            h, g = basis.h[j, idx], basis.g[j, idx]
            z_angle = 0.0 if j == d else 2 * np.pi * k / d
            x_angle = 2 * np.pi * k / d if j == d else 2 * np.pi * k * j / d
            worst = max(worst, spin(wp.Z, h, g, z_angle))
            worst = max(worst, spin(wp.X.conj().T, h, g, x_angle))
    return worst


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_rotation_action_matches_loop(d):
    wp = build_weyl_pair(d)
    phases = np.random.default_rng(d).uniform(0, 2 * np.pi, (d + 1, (d - 1) // 2))
    basis = build_hg_basis(wp, phases=phases)
    assert abs(verify_rotation_action(basis) - loop_verify_rotation_action(basis)) <= 1e-14
    # A wrong angle on one generator is seen.
    h = basis.h.copy()
    h[1, 0] = basis.g[1, 0]
    bent = HGBasis(d, basis.phases, h, basis.g)
    assert verify_rotation_action(bent) == pytest.approx(loop_verify_rotation_action(bent))
    assert verify_rotation_action(bent) > 1e-3


def test_clock_class_fixed_by_z():
    wp = build_weyl_pair(3)
    basis = build_hg_basis(wp)
    h = basis.h[3, 0]
    assert np.abs(wp.Z @ h @ wp.Z.conj().T - h).max() <= 1e-14


def test_rotation_action_ignores_phases():
    rng = np.random.default_rng(3)
    wp = build_weyl_pair(5)
    phases = rng.uniform(0, 2 * np.pi, size=(6, 2))
    basis = build_hg_basis(wp, phases=phases)
    assert isinstance(basis, HGBasis)
    assert verify_rotation_action(basis) <= 1e-12

import json
from fractions import Fraction

import numpy as np
import pytest

from helpers import D5, PRIME_DIMS, SPECTRA_MATCH_TOL, exact_hs, random_hermitian
from mubsic import frames, siclab, weyl
from mubsic.linalg import (
    DEFAULT_TOL,
    HermitianOp,
    complex_from_json,
    complex_to_json,
    gram_deviation,
    hermitian_eigensystem,
    hs_inner,
    label_table,
    matrix_rank,
    read_operator_json,
    third_moment,
    write_operator_json,
)
from mubsic.plane import column_labels, point_keys

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def qubit_lambda0() -> np.ndarray:
    return HermitianOp.from_matrix((np.eye(2) + (SX + SY + SZ) / np.sqrt(3)) / 2)


# --- construction -------------------------------------------------------------


def test_from_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianOp.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_from_matrix_symmetrizes_tiny_asymmetry():
    mat = np.array([[1.0, 0.5 + 1e-14], [0.5 - 1e-14, 2.0]], dtype=complex)
    op = HermitianOp.from_matrix(mat)
    assert np.abs(op - op.conj().T).max() == 0.0
    assert op.diagonal().real.sum() == pytest.approx(3.0)


def test_from_matrix_rejects_nan():
    with pytest.raises(ValueError):
        HermitianOp.from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hermitian_op_is_only_the_admission_check():
    # An operator is its matrix: from_matrix returns it read-only and makes
    # no instance, and the class holds nothing else.
    assert [k for k in vars(HermitianOp) if not k.startswith("__")] == ["from_matrix"]
    op = HermitianOp.from_matrix([[1, 2j], [-2j, 0]])
    assert type(op) is np.ndarray and op.dtype == np.complex128 and op.shape == (2, 2)
    assert not op.flags.writeable
    with pytest.raises(TypeError):
        HermitianOp(np.eye(2))


# --- hs_inner -----------------------------------------------------------------


def test_hs_inner_identity_gives_dimension():
    for d in (1, 2, 3, 5):
        eye = np.eye(d, dtype=complex)
        assert hs_inner(eye, eye) == pytest.approx(d)


def test_hs_inner_pauli_orthogonality():
    assert hs_inner(SZ, SX) == pytest.approx(0.0, abs=1e-15)


def test_hs_inner_same_column_cross_point_value():
    # Same-column distinct points of a strength-β frame meet at −β/(d−1);
    # the d = 3 unbiased-basis frame has β = 6, so the value is −3.
    pf = frames.point_frame_from_mub(weyl.build_mub(3))
    p, q = point_keys(3).index((0, 1)), point_keys(3).index((1, 1))
    got = hs_inner(pf.ops[p], pf.ops[q])
    assert got == pytest.approx(-pf.beta / 2, abs=1e-10)
    assert got == pytest.approx(-3.0, abs=1e-10)


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError, match=r"\(2, 2\) vs \(3, 3\)"):
        hs_inner(np.eye(2), np.eye(3))
    # Same row count, different shapes: the message must tell them apart.
    with pytest.raises(ValueError, match=r"\(3, 3\) vs \(3, 2\)"):
        hs_inner(np.eye(3), np.ones((3, 2)))


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_hs_inner_matches_trace_of_product(d):
    # The definition tr(ab), computed the long way, on seeded random pairs.
    rng = np.random.default_rng(d)
    for _ in range(8):
        a, b = random_hermitian(rng, d), random_hermitian(rng, d)
        want = np.trace(a @ b).real
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(hs_inner(a, b) - want) <= 1e-12 * scale


def test_hs_inner_symmetry_and_positivity():
    rng = np.random.default_rng(7)
    a, b = random_hermitian(rng, 5), random_hermitian(rng, 5)
    assert hs_inner(a, b) == pytest.approx(hs_inner(b, a), abs=1e-12)
    spec, _ = hermitian_eigensystem(a)
    assert hs_inner(a, a) >= 0.0
    assert hs_inner(a, a) == pytest.approx(float(spec @ spec), abs=1e-10)


# --- kernels against exact products --------------------------------------------
#
# hs_inner and gram_deviation's einsum Gram against helpers.exact_hs, on the
# unbiased-basis point frame.  Its table constant is β = tr t² = ‖t‖², so any
# order of summation of the 2d² real products errs by at most γ_{2d²}·β
# (Higham, Accuracy and Stability of Numerical Algorithms, §3.1).  The exact
# deviation over the checked entries is a lower bound on the data's own.

UNIT_ROUNDOFF = 2.0**-53


def test_exact_hs_is_the_trace_of_the_product():
    a = np.array([[1, 2j], [3, 4]])
    b = np.array([[5, 6], [7j, 8]])
    assert exact_hs(a, b) == 41 == np.trace(a @ b).real
    assert exact_hs(np.eye(3) * 0.1, np.eye(3)) == 3 * Fraction(0.1)


@pytest.mark.parametrize("d", [d for d in PRIME_DIMS if d <= 23])
def test_hs_kernels_against_exact_products(d, monkeypatch):
    # Sampled pairs plus each kernel's 40 worst entries; errors in units of β.
    pf = frames.point_frame_from_mub(weyl.build_mub(d))
    ops, beta, n = pf.ops, pf.beta, len(pf.ops)
    target = label_table(column_labels(d), beta, -beta / (d - 1), 0.0)
    grams, einsum = [], np.einsum

    def caught(*args, **kwargs):  # gram_deviation's own Gram on its way out
        grams.append(einsum(*args, **kwargs).real)
        return grams[-1]

    monkeypatch.setattr(np, "einsum", caught)
    printed = gram_deviation(ops, target)
    monkeypatch.undo()
    # hs_inner on the upper triangle, which holds the diagonal and one of each pair.
    inner = np.full((n, n), np.nan)
    for a, b in zip(*np.triu_indices(n)):
        inner[a, b] = hs_inner(ops[a], ops[b])
    draws = np.random.default_rng(d).integers(n, size=(20, 2)).tolist()
    sampled = {tuple(sorted(p)) for p in draws}
    gamma = 2 * d * d * UNIT_ROUNDOFF / (1 - 2 * d * d * UNIT_ROUNDOFF)
    exact_dev = Fraction(0)
    for name, table in (("einsum", grams[0]), ("hs_inner", inner)):
        dev = np.nan_to_num(np.abs(table - target), nan=-1.0)
        worst = [int(i) for i in np.argsort(dev, axis=None)[-40:] if dev.flat[i] >= 0]
        pairs = sampled | {divmod(i, n) for i in worst}
        error = Fraction(0)
        for a, b in pairs:
            exact = exact_hs(ops[a], ops[b])
            error = max(error, abs(Fraction(table[a, b]) - exact) / Fraction(beta))
            exact_dev = max(exact_dev, abs(exact - Fraction(target[a, b])))
        assert error <= gamma, f"{name} errs by {float(error):.2e} β at d = {d}"
    assert printed == float(np.abs(grams[0] - target).max())
    assert float(exact_dev) <= DEFAULT_TOL


# --- eigensystem ---------------------------------------------------------------


def test_eigensystem_diagonal_input():
    spec, vecs = hermitian_eigensystem(np.diag([2.0, 1.0, 1.0]).astype(complex))
    assert spec == pytest.approx((2.0, 1.0, 1.0))
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-10)


def test_eigensystem_qubit_projector():
    spec, _ = hermitian_eigensystem(qubit_lambda0())
    assert spec[0] == pytest.approx(1.0, abs=1e-12)
    assert spec[1] == pytest.approx(0.0, abs=1e-12)


def test_eigensystem_d5_column_spectrum(searched_mu_pom):
    # The (0, 0) measurement operator of the d = 5 family carries one of the
    # two published six-digit spectra.
    _, _, table, _ = searched_mu_pom(5)
    got = table[0, 0]
    match = min(
        float(np.abs(got - np.asarray(ref)).max()) for _, ref in D5
    )
    assert match <= SPECTRA_MATCH_TOL


def test_eigensystem_reconstructs_and_sums_to_trace():
    rng = np.random.default_rng(8)
    for d in (2, 3, 5, 7):
        h = random_hermitian(rng, d)
        spec, vecs = hermitian_eigensystem(h)
        assert list(spec) == sorted(spec, reverse=True)
        recon = vecs @ np.diag(spec) @ vecs.conj().T
        assert np.abs(recon - h).max() <= 1e-10
        assert np.abs(vecs.conj().T @ vecs - np.eye(d)).max() <= 1e-10
        assert spec.sum() == pytest.approx(np.trace(h).real, abs=1e-10)


# --- rank and third moment -------------------------------------------------------


def test_matrix_rank_identity_and_projector():
    assert matrix_rank(np.eye(4, dtype=complex)) == 4
    proj = HermitianOp.from_matrix(np.diag([1.0, 0.0, 0.0]))
    assert matrix_rank(proj) == 1


def test_matrix_rank_qutrit_candidate_projector():
    mub = weyl.build_mub(3)
    taus = siclab.mu_pom_from_probabilities(mub, [(0.5, 0.5, 0.0)] * 4)
    ext = siclab.fiducial_from_mu_pom(taus, mub)
    assert matrix_rank(ext.lambda0) == 1


def test_third_moment_projector_and_mixed():
    proj = HermitianOp.from_matrix(np.diag([1.0, 0.0]))
    assert third_moment(proj) == pytest.approx(1.0, abs=1e-14)
    for d in (2, 3, 5):
        mixed = HermitianOp.from_matrix(np.eye(d) / d)
        assert third_moment(mixed) == pytest.approx(1.0 / d**2, abs=1e-14)


def test_third_moment_of_fiducial_projector():
    fam = siclab.generate_hw_sic(siclab.qutrit_fiducial())
    assert third_moment(fam.projectors[0]) == pytest.approx(1.0, abs=1e-10)


def test_third_moment_equals_eigenvalue_cubes():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 6)
    spec, _ = hermitian_eigensystem(h)
    assert third_moment(h) == pytest.approx(float((spec**3).sum()), abs=1e-9)


# --- spectrum checks -------------------------------------------------------------
#
# An eigensystem's spectrum is a read-only descending array; the finite and
# descending checks on outside input live in the spectra CSV reader.

QUBIT_SPECTRA_CSV = "m,j,lambda_1,lambda_2\n" + "".join(
    f"{m},{j},0.7,0.3\n" for j in range(3) for m in range(2)
)


def qubit_spectra_with_row(row: str) -> str:
    """The valid d = 2 spectra CSV with the values of point (0, 0) replaced."""
    lines = QUBIT_SPECTRA_CSV.splitlines()
    return "\n".join([lines[0], f"0,0,{row}"] + lines[2:]) + "\n"


def test_eigensystem_spectrum_is_read_only_and_descending():
    rng = np.random.default_rng(10)
    for d in (2, 3, 5):
        spec, _ = hermitian_eigensystem(random_hermitian(rng, d))
        assert spec.shape == (d,) and spec.dtype == np.float64
        assert np.all(spec[:-1] >= spec[1:])
        assert not spec.flags.writeable
        with pytest.raises(ValueError):
            spec[0] = 0.0


def test_spectrum_requires_descending_order():
    assert siclab.spectra_from_csv(qubit_spectra_with_row("0.7,0.3"))[0, 0].tolist() == [0.7, 0.3]
    with pytest.raises(ValueError, match="descending"):
        siclab.spectra_from_csv(qubit_spectra_with_row("0.3,0.7"))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_spectrum_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        siclab.spectra_from_csv(qubit_spectra_with_row(f"{bad},0.3"))
    with pytest.raises(ValueError, match="finite"):
        siclab.spectra_from_csv(qubit_spectra_with_row(f"0.7,{bad}"))


# --- serialization ---------------------------------------------------------------


def test_operator_json_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    op = random_hermitian(rng, 3)
    path = tmp_path / "op.json"
    write_operator_json(path, op)
    obj = json.loads(path.read_text())
    assert obj["dim"] == 3
    assert len(obj["entries"]) == 9
    back = read_operator_json(path)
    assert np.abs(back - op).max() <= 1e-15


def _reference_pairs(z) -> list:
    """The per-entry encoding artifact writers spelled out before the shared
    codec, kept as the reference for its bytes."""
    if z.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in z]
    return [_reference_pairs(sub) for sub in z]


CODEC_CASES = [
    np.array([-0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 5e-324, -5e-324j,
              2.5e-310 + 1j, 1e308 - 1e-308j, 3, -7j]),
    np.array([[1, -2], [0, 7]]),
    np.array([[[0.1 + 0.2j, -0.0], [3.0, -1e-320j]], [[-1.0, 1j], [2, -0.0j]]]),
]


@pytest.mark.parametrize("z", CODEC_CASES, ids=["subnormal-and-signed-zero", "int", "3d"])
def test_complex_codec_matches_reference_bytes(z):
    assert json.dumps(complex_to_json(z)) == json.dumps(_reference_pairs(z))


@pytest.mark.parametrize("z", CODEC_CASES, ids=["subnormal-and-signed-zero", "int", "3d"])
def test_complex_codec_round_trip_is_bit_exact(z):
    z = z.astype(np.complex128)
    back = complex_from_json(json.loads(json.dumps(complex_to_json(z))), z.shape, "z")
    assert back.shape == z.shape
    assert np.array_equal(back.view(np.uint64), z.view(np.uint64))


@pytest.mark.parametrize(
    "raw, shape",
    [
        ([["0.5", 0.0], [0.5, 0.0]], (2,)),
        ([[0.5, 0.0], [0.5, "0"]], (2,)),
        ([[None, 0.0], [0.5, 0.0]], (2,)),
        (None, (2,)),
        ({"re": 1.0, "im": 0.0}, (1,)),
        ([[1.0, 0.0], [1.0]], (2,)),
        ([[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]], (2,)),
        ([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], (2, 2)),
        ([[float("nan"), 0.0], [0.5, 0.0]], (2,)),
        ([[0.5, float("inf")], [0.5, 0.0]], (2,)),
        ([[1.0, 0.0], [0.0, 0.0]], (3,)),
        ([[1.0, 0.0], [0.0, 0.0]], (1, 2)),
        ([1.0, 0.0], (1,)),
    ],
    ids=["string", "string-imag", "null", "null-top", "object", "ragged", "triple",
         "ragged-2d", "nan", "inf", "too-short", "wrong-nesting", "bare-pair"],
)
def test_complex_from_json_rejects_malformed(raw, shape):
    with pytest.raises(ValueError):
        complex_from_json(raw, shape, "entries")

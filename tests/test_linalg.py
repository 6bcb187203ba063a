import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    D5,
    PRIME_DIMS,
    SPECTRA_MATCH_TOL,
    exact_hs,
    label_table,
    random_hermitian,
    random_ket,
    traced_peak,
)
from mubsic import frames, linalg, siclab, weyl
from mubsic.linalg import (
    DEFAULT_TOL,
    HermitianOp,
    complex_from_json,
    complex_to_json,
    gram_deviation,
    hermitian_eigensystem,
    hs_inner,
    matrix_rank,
    read_operator_json,
    third_moment,
    write_operator_json,
)
from mubsic.plane import build_dapg, column_labels, point_keys

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


def test_from_matrix_asymmetry_bound_is_hermiticity_atol():
    """An asymmetry of 5e-13 is admitted and one of 2e-12 refused, either
    side of HERMITICITY_ATOL (1e-12)."""
    HermitianOp.from_matrix(np.array([[1.0, 0.5 + 5e-13], [0.5, 2.0]], dtype=complex))
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOp.from_matrix(np.array([[1.0, 0.5 + 2e-12], [0.5, 2.0]], dtype=complex))


def test_from_matrix_rejects_nan():
    with pytest.raises(ValueError):
        HermitianOp.from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# A part of m + m† past float64 is admitted (error None): it equals its
# mirror, so it is its own mean.  An m − m† past float64 is not Hermitian.
@pytest.mark.parametrize("at, lower, error", [((0, 0), 1.5e308, None),
                                              ((0, 1), 1.5e308, None),
                                              ((0, 1), -1.5e308, "not Hermitian: max .* = inf")])
def test_from_matrix_rejects_overflow_without_warning(at, lower, error):
    mat = np.zeros((2, 2))
    mat[at] = 1.5e308
    mat[at[::-1]] = lower if at[0] != at[1] else mat[at]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is not None:
            with pytest.raises(ValueError, match=error):
                HermitianOp.from_matrix(mat)
            return
        op = HermitianOp.from_matrix(mat)
    assert op.tobytes() == mat.astype(complex).tobytes()
    assert np.isfinite(op.view(np.float64)).all() and (op == op.conj().T).all()
    assert not op.flags.writeable


def test_from_matrix_refuses_an_imaginary_asymmetry_past_float64():
    # 1e308i mirrored by 1e308i, not by its conjugate: m − m† holds 2e308i,
    # which reads inf, not NaN, at the asymmetry gate.  Refused with its own
    # error line and no warning.
    mat = np.array([[0.0, 1e308j], [1e308j, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not Hermitian: max \|m - m†\| = inf$"):
            HermitianOp.from_matrix(mat)


# Exactly Hermitian matrices, or near one: each part is ±m·2^(e−k), with a
# top binade e drawn per matrix, float64's last one often, and k ≤ 60.
@st.composite
def near_hermitian(draw, d=3):
    top = draw(st.integers(-1014, 1024) | st.just(1024))
    parts = draw(st.lists(st.builds(lambda m, k: math.ldexp(m, top - k),
                                    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                                    st.integers(0, 60)), min_size=2 * d * d, max_size=2 * d * d))
    mat = np.array(parts).view(np.complex128).reshape(d, d)
    mat = np.triu(mat) + np.triu(mat, 1).conj().T
    mat[np.diag_indices(d)] = mat.diagonal().real
    nudge = draw(st.sampled_from([0.0, 1e-13, 1e-12, 2e-12]))
    mat[0, -1] += nudge * (1 + 1j)
    return mat


@settings(max_examples=60, deadline=None)
@given(near_hermitian())
# An overflowed entry whose other part differs from its mirror's: replaced
# after complex halving, that part would come from m and break hermiticity.
@example(np.array([[0, complex(1.7e308, 1e-13)], [complex(1.7e308, 0.0), 0]]))
def test_from_matrix_admits_finite_exactly_hermitian_parent_bits(mat):
    """Every admitted matrix is finite, exactly Hermitian and read-only,
    with no floating-point warning.  Each part is half that of m + m†, or
    m's own where m + m† passes float64; where the complex (m + m†)/2 is
    finite, the bits are its own."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            op = HermitianOp.from_matrix(mat)
        except ValueError as exc:
            assert "not Hermitian" in str(exc)
            return
    assert np.isfinite(op.view(np.float64)).all() and (op == op.conj().T).all()
    assert not op.flags.writeable
    with np.errstate(all="ignore"):
        twice = mat + mat.conj().T
        half = twice / 2.0
    parts = twice.view(np.float64)
    assert (op.view(np.float64) == np.where(np.isfinite(parts), parts / 2, mat.view(np.float64))).all()
    if np.isfinite(half.view(np.float64)).all():
        assert op.tobytes() == half.tobytes()


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
# hs_inner and gram_deviation's sliced Gram against helpers.exact_hs, on the
# unbiased-basis point frame.  Its table constant is β = tr t² = ‖t‖², so any
# order of summation of the 2d² real products errs by at most γ_{2d²}·β
# (Higham, Accuracy and Stability of Numerical Algorithms, §3.1), as hs_inner
# may; the sliced Gram rounds once, to within u·β.  The exact deviation over
# the checked entries is a lower bound on the data's own.

UNIT_ROUNDOFF = 2.0**-53


def sliced_gram(stack: np.ndarray) -> np.ndarray:
    """gram_deviation's whole Gram table, from the blocks of its upper
    triangle; NaN where no block reached."""
    n = len(stack)
    gram = np.full((n, n), np.nan)
    for lo, at, block in linalg._gram_blocks(stack):
        rows, cols = slice(lo, lo + len(block)), slice(at, at + block.shape[1])
        gram[rows, cols] = block
        gram[cols, rows] = block.T
    return gram


def test_exact_hs_is_the_trace_of_the_product():
    a = np.array([[1, 2j], [3, 4]])
    b = np.array([[5, 6], [7j, 8]])
    assert exact_hs(a, b) == 41 == np.trace(a @ b).real
    assert exact_hs(np.eye(3) * 0.1, np.eye(3)) == 3 * Fraction(0.1)


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_hs_kernels_against_exact_products(d):
    # Sampled pairs plus each kernel's 40 worst entries; errors in units of β.
    pf = frames.point_frame_from_mub(weyl.build_mub(d))
    ops, beta, n = pf.ops, pf.beta, len(pf.ops)
    rule = (beta, -beta / (d - 1), 0.0)
    target = label_table(column_labels(d), *rule)
    gram = sliced_gram(ops)
    # hs_inner on the upper triangle, which holds the diagonal and one of each pair.
    inner = np.full((n, n), np.nan)
    for a, b in zip(*np.triu_indices(n)):
        inner[a, b] = hs_inner(ops[a], ops[b])
    draws = np.random.default_rng(d).integers(n, size=(20, 2)).tolist()
    sampled = {tuple(sorted(p)) for p in draws}
    gamma = 2 * d * d * UNIT_ROUNDOFF / (1 - 2 * d * d * UNIT_ROUNDOFF)
    exact_dev = Fraction(0)
    for name, table, bound in (("sliced Gram", gram, UNIT_ROUNDOFF), ("hs_inner", inner, gamma)):
        dev = np.nan_to_num(np.abs(table - target), nan=-1.0)
        worst = [int(i) for i in np.argsort(dev, axis=None)[-40:] if dev.flat[i] >= 0]
        pairs = sampled | {divmod(i, n) for i in worst}
        error = Fraction(0)
        for a, b in pairs:
            exact = exact_hs(ops[a], ops[b])
            error = max(error, abs(Fraction(table[a, b]) - exact) / Fraction(beta))
            exact_dev = max(exact_dev, abs(exact - Fraction(target[a, b])))
        assert error <= bound, f"{name} errs by {float(error):.2e} β at d = {d}"
    assert gram_deviation(ops, column_labels(d), *rule) == float(np.abs(gram - target).max())
    assert float(exact_dev) <= DEFAULT_TOL


@pytest.mark.parametrize("d", PRIME_DIMS)
def test_label_rules_match_the_whole_tables(d):
    """Every other verifier's label rule against its whole (n, n) target,
    bit for bit: the line table, the equal-overlap table of a shift/clock
    orbit and the measurement-column table (on trace-one point operators).
    Each stack's Gram blocks are formed once, for the verifier and the
    whole table alike."""
    pf = frames.point_frame_from_mub(weyl.build_mub(d))
    lf = frames.line_ops_from_points(pf, build_dapg(d))
    fam = siclab.generate_hw_sic(siclab.Fiducial(d=d, ket=random_ket(np.random.default_rng(d), d)))
    taus = frames.trace_one(pf.ops, d)
    alpha, n = lf.alpha, d * d
    for check, stack, target in (
        (lambda: frames.verify_line_table(lf), lf.ops,
         label_table(range(n), alpha, alpha, -alpha / (n - 1))),
        (lambda: siclab.verify_sic(fam), fam.projectors,
         label_table(range(n), 1.0, 1.0, 1.0 / (d + 1))),
        (lambda: siclab.verify_mu_pom(taus), taus,
         label_table(column_labels(d), 2.0 / (d + 1), 1.0 / (d + 1), 1.0 / d)),
    ):
        blocks = list(linalg._gram_blocks(stack))
        with mock.patch.object(linalg, "_gram_blocks", side_effect=lambda _: iter(blocks)):
            assert check() == float(np.abs(sliced_gram(stack) - target).max())


# --- the sliced Gram on edge-case stacks ------------------------------------------
#
# Beside one rounding of the exact value, a coordinate below 2^(−3·bits) of
# its row's largest is truncated; for d ≤ 31 the two together stay within
# u·(|tr(ab)| + ‖a‖‖b‖/4), and a product below the normal range rounds to a
# multiple of the smallest subnormal, 2^−1074.

BLOCK = linalg._GRAM_BLOCK
# The label rule (diag, same, other) of a target that is zero everywhere.
ZERO_RULE = (0.0, 0.0, 0.0)


def assert_gram_exact(stack: np.ndarray) -> None:
    """Every entry of the sliced Gram within u·(|tr(ab)| + ‖a‖‖b‖/4) + 2^−1074
    of the exact value, and gram_deviation from a zero target its largest
    modulus."""
    gram = sliced_gram(stack)
    assert not np.isnan(gram).any()
    u = Fraction(UNIT_ROUNDOFF)
    squares = [exact_hs(op, op) for op in stack]  # ‖a‖², exactly
    for a, b in zip(*np.triu_indices(len(stack))):
        exact = exact_hs(stack[a], stack[b])
        excess = abs(Fraction(gram[a, b]) - exact) - u * abs(exact) - Fraction(2) ** -1074
        assert excess <= 0 or (4 * excess) ** 2 <= u * u * squares[a] * squares[b], (a, b)
    assert gram_deviation(stack, np.arange(len(stack)), *ZERO_RULE) == np.abs(gram).max()


def hermitian_rows(rng, n: int, d: int) -> np.ndarray:
    return linalg.hermitian_stack((random_hermitian(rng, d) for _ in range(n)), n, d)


@pytest.mark.parametrize("n", [1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_sliced_gram_covers_every_pair(n):
    # A single row, fewer rows than a block, exactly one, and a ragged last block.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_gram_exact(hermitian_rows(np.random.default_rng(n), n, 2))


def table_deviation(stack: np.ndarray, target: np.ndarray) -> float:
    """Max |tr(ab) − target[a, b]| over the whole (n, n) ``target``, from
    :func:`sliced_gram`: the whole-table check gram_deviation once made."""
    return float(np.abs(sliced_gram(stack) - target).max())


def orthogonal_rows(n: int) -> np.ndarray:
    """n ≤ d(d−1) Hermitian d × d rows E_ij + E_ji and i(E_ij − E_ji), i < j,
    with d = 12: their Gram is 2 on the diagonal and 0 off it, exactly."""
    d = 12
    rows = []
    for i, j in zip(*np.triu_indices(d, 1)):
        for phase in (1, 1j):
            op = np.zeros((d, d), dtype=complex)
            op[i, j], op[j, i] = phase, np.conj(phase)
            rows.append(op)
    return linalg.hermitian_stack(rows, n, d)


@pytest.mark.parametrize("at", [(0, 1), (1, 0), (BLOCK, BLOCK - 1), (BLOCK + 2, 2 * BLOCK)])
def test_gram_deviation_reads_every_ordered_pair(at):
    # One entry of the table moved by 1, above or below the diagonal and in
    # any block, is the deviation.  No label rule moves one entry alone, so
    # the whole table's check does it; the rule moves the pair and its mirror.
    stack = hermitian_rows(np.random.default_rng(0), 2 * BLOCK + 3, 2)
    target = sliced_gram(stack)
    target[at] += 1.0
    assert table_deviation(stack, target) == 1.0
    rows = orthogonal_rows(2 * BLOCK + 3)
    labels = np.arange(len(rows))
    labels[at[0]] = labels[at[1]]
    assert gram_deviation(rows, labels, 2.0, 1.0, 0.0) == 1.0
    assert gram_deviation(rows, np.arange(len(rows)), 2.0, 1.0, 0.0) == 0.0


def test_sliced_gram_zero_rows_and_wide_binades():
    # A zero row (no log of 0), rows whose entries span 2^±60 scaled by 2^±400,
    # and a row of one nonzero entry, all without a floating-point warning.
    rng = np.random.default_rng(7)
    d = 5
    spread = 2.0 ** rng.integers(-60, 61, size=(4, d, d))
    wide = [HermitianOp.from_matrix(m + m.T) for m in spread * rng.standard_normal((4, d, d))]
    single = np.zeros((d, d), dtype=complex)
    single[1, 3] = single[3, 1] = 3.0
    rows = [np.zeros((d, d)), *[w * 2.0**s for w, s in zip(wide, (-400, 0, 200, 400))], single]
    stack = linalg.hermitian_stack(rows, len(rows), d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_gram_exact(stack)
        assert gram_deviation(stack[:1], [0], *ZERO_RULE) == 0.0


def test_sliced_gram_beyond_float64_is_inf_without_warning():
    stack = linalg.hermitian_stack([np.full((2, 2), 1e200)], 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gram_deviation(stack, [0], *ZERO_RULE) == np.inf


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_gram_deviation_of_a_non_finite_row_is_nan_without_warning(bad):
    # The row sits in the last of three blocks; every other block reads a
    # finite deviation, and the NaN of the row's blocks is not dropped.
    stack = np.array(hermitian_rows(np.random.default_rng(1), 2 * BLOCK + 3, 2))
    stack[-1, 0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(gram_deviation(stack, np.arange(len(stack)), *ZERO_RULE))


@st.composite
def hermitian_stacks(draw):
    d = draw(st.sampled_from((1, 2, 3, 5)))
    n = draw(st.integers(1, 12))
    parts = draw(hnp.arrays(np.float64, (n, d, d, 2),
                            elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    mats = parts[..., 0] + 1j * parts[..., 1]
    return linalg.hermitian_stack(((m + m.conj().T) / 2 for m in mats), n, d)


@given(stack=hermitian_stacks())
@settings(max_examples=60, deadline=None)
def test_sliced_gram_of_drawn_stacks_is_exact(stack):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_gram_exact(stack)


def test_sliced_gram_bits_do_not_depend_on_blas_threads():
    # The same bits with one BLAS thread and with the default count.
    code = (
        "import hashlib\n"
        "from mubsic import frames, linalg, weyl\n"
        "pf = frames.point_frame_from_mub(weyl.build_mub(19))\n"
        "blocks = b''.join(b.tobytes() for _, _, b in linalg._gram_blocks(pf.ops))\n"
        "print(repr(frames.verify_point_table(pf)), hashlib.sha256(blocks).hexdigest())\n"
    )
    src = pathlib.Path(linalg.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(src)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# --- eigensystem ---------------------------------------------------------------


def test_eigensystem_diagonal_input():
    spec, vecs = hermitian_eigensystem(np.diag([2.0, 1.0, 1.0]).astype(complex))
    assert spec == pytest.approx((2.0, 1.0, 1.0))
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("mat", [[[1.5e308, 1e308], [1e308, -1.5e308]], [[np.nan, 0], [0, 1]]])
def test_eigensystem_refuses_a_non_finite_residual(mat):
    # Eigenvalues past float64, or a NaN entry, leave a residual that is not
    # a number; it fails the check as a large one does, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eigendecomposition failed: residual nan"):
            hermitian_eigensystem(np.array(mat, dtype=complex))


def test_eigensystem_residual_bound_is_eig_residual_atol():
    """eigh reads one triangle, so an [0, 1] entry that is x off its mirror
    leaves a residual of x: 1e-11 is admitted and 1e-6 refused, either side
    of EIG_RESIDUAL_ATOL (1e-10)."""
    mat = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    hermitian_eigensystem(mat + np.array([[0, 1e-11], [0, 0]]))
    with pytest.raises(ValueError, match="eigendecomposition failed"):
        hermitian_eigensystem(mat + np.array([[0, 1e-6], [0, 0]]))


def whole_stack_residual(mats, w, v) -> float:
    """max ‖h − VΛV†‖_max in one expression over the whole stack, as
    hermitian_eigensystem once formed it: the oracle of its slabs."""
    with np.errstate(over="ignore", invalid="ignore"):
        recon = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return float(np.abs(mats - recon).max())


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("d", PRIME_DIMS)
def test_eig_residual_matches_the_whole_stack(d, n):
    stack = hermitian_rows(np.random.default_rng(d * n), n, d)
    w, v = np.linalg.eigh(stack)
    w, v = w[..., ::-1], v[..., ::-1]
    assert linalg._eig_residual(stack, w, v) == whole_stack_residual(stack, w, v)
    if n == 1:  # one matrix, not a stack
        assert linalg._eig_residual(stack[0], w[0], v[0]) == whole_stack_residual(stack[0], w[0], v[0])


@pytest.mark.parametrize("bad, residual", [(1e-6, "[0-9.]+e-0[67]"), (np.nan, "nan")])
def test_eigensystem_checks_the_last_ragged_slab(bad, residual):
    # eigh reads the lower triangle, so an upper entry moved in the last of
    # three slabs is missing from its reconstruction: every other slab passes.
    stack = np.array(hermitian_rows(np.random.default_rng(2), 2 * BLOCK + 3, 2))
    stack[-1, 0, 1] += bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"eigendecomposition failed: residual {residual}$"):
            hermitian_eigensystem(stack)


def test_eigensystem_memory_of_a_d31_stack():
    """The check of a (992, 31, 31) stack of 15.3 MB, the size of the d = 31
    measurement columns, reconstructs one slab at a time: the traced peak,
    the 15.3 MB of eigenvectors included, is 19.4 MB, against 61.3 MB when
    the whole stack was reconstructed at once."""
    rng = np.random.default_rng(31)
    mats = rng.standard_normal((992, 31, 31)) + 1j * rng.standard_normal((992, 31, 31))
    stack = linalg.read_only((mats + mats.conj().swapaxes(-1, -2)) / 2)
    del mats
    assert traced_peak(lambda: hermitian_eigensystem(stack)) < 24e6


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


# --- the bounded reader ----------------------------------------------------------
#
# load_json reads linalg._CHUNK characters at a time.  Patched down
# to a few characters, every number, string, \uXXXX escape and surrogate pair
# of a drawn file is cut by a chunk boundary somewhere.


def _canonical(value):
    """``value`` with every array as (dtype, shape, bytes) and every list of
    arrays of one shape and dtype as their stack, which is how load_json
    returns such a list, and every ValueError as its message."""
    if isinstance(value, ValueError):
        return ("ValueError", str(value))
    if isinstance(value, list) and value and all(isinstance(v, np.ndarray) for v in value):
        if len({(v.shape, v.dtype) for v in value}) == 1:
            value = np.stack(value)
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


@st.composite
def operator_objects(draw):
    """An operator object of a Hermitian matrix with entries in
    [-1e6, 1e6], some of them JSON integers."""
    d = draw(st.integers(1, 3))
    parts = st.one_of(st.floats(-1e6, 1e6, allow_subnormal=True), st.integers(-9, 9))
    mat = [[0, 0] for _ in range(d * d)]
    for i in range(d):
        mat[i * d + i] = [draw(parts), 0]
        for j in range(i + 1, d):
            re, im = draw(parts), draw(parts)
            mat[i * d + j], mat[j * d + i] = [re, im], [re, -im if im else im]
    return {"dim": d, "entries": mat}


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                     st.floats(allow_nan=False), _TEXT)
_VALUES = st.recursive(
    st.one_of(_SCALARS, operator_objects()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=12,
)
_MEMBERS = st.one_of(_VALUES, st.lists(operator_objects(), max_size=5),
                     st.lists(st.one_of(operator_objects(), _SCALARS), max_size=5))
_WS = st.text(" \t\n\r", max_size=2)


@st.composite
def json_documents(draw):
    """The text of a JSON object (an operator object among them), a list or
    a scalar, with drawn spacing around every member and item, keys in any
    order and repeated, and non-ASCII text either raw or escaped."""
    ascii_only = draw(st.booleans())
    indent = draw(st.sampled_from([None, 0, 2]))

    def dumps(value):
        return json.dumps(value, ensure_ascii=ascii_only, indent=indent)

    def join(open_, parts, close):
        body = ",".join(f"{draw(_WS)}{p}{draw(_WS)}" for p in parts)
        return f"{open_}{body or draw(_WS)}{close}"

    def list_text(items):
        return join("[", [dumps(item) for item in items], "]")

    kind = draw(st.sampled_from(["object", "operator", "list", "scalar"]))
    if kind in ("object", "operator"):
        keys = st.sampled_from(["d", "ops", "é", 'a"b', "\U0001f600"])
        members = draw(st.lists(st.tuples(keys, _MEMBERS), max_size=4))
        if kind == "operator":  # read as the file holds it: not an ops item
            members = draw(st.permutations(list(draw(operator_objects()).items())))
        if members and draw(st.booleans()):
            members.append((members[0][0], draw(_MEMBERS)))
        text = join("{", [f"{dumps(k)}:{draw(_WS)}"
                          f"{list_text(v) if isinstance(v, list) else dumps(v)}"
                          for k, v in members], "}")
    elif kind == "list":
        text = list_text(draw(st.one_of(st.lists(operator_objects(), max_size=5),
                                        st.lists(_VALUES, max_size=4))))
    else:
        text = dumps(draw(_SCALARS))
    return f"{draw(_WS)}{text}{draw(_WS)}"


def _decoded(obj):
    """decode_operator's value for ``obj``, or the ValueError it raises."""
    try:
        return linalg.decode_operator(obj)
    except ValueError as exc:
        return exc


def _reference(text: str):
    """What load_json gives with decode_operator: json.loads of ``text``,
    then the hook on each object among the items of a top-level ``ops``
    list, with a ValueError it raises in that item's place."""
    value = json.loads(text)
    if isinstance(value, dict) and isinstance(value.get("ops"), list):
        value["ops"] = [_decoded(v) if isinstance(v, dict) else v for v in value["ops"]]
    return value


def _outcome(read):
    """``read()``'s canonical value, or ("ValueError", its message) if it
    raises one."""
    try:
        return _canonical(read())
    except ValueError as exc:
        return _canonical(exc)


def _both_readers(text: str, chunk: int) -> tuple:
    """The outcomes of the reference reader and of load_json at ``chunk``
    characters a chunk, on ``text`` written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(text)
        want = _outcome(lambda: _reference(path.read_text()))
        with mock.patch.object(linalg, "_CHUNK", chunk):
            return want, _outcome(lambda: linalg.load_json(path))


@given(text=json_documents(), chunk=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_bounded_reader_gives_what_json_loads_gives(text, chunk):
    want, got = _both_readers(text, chunk)
    assert got == want


@given(text=json_documents(), at=st.integers(0, 10**6), chunk=st.integers(1, 64),
       edit=st.one_of(st.none(), st.sampled_from(list('\x0c\ufeff\xa0,:]}"\\e.-0x '))))
@settings(max_examples=100, deadline=None)
def test_bounded_reader_rejects_what_json_loads_rejects(text, at, chunk, edit):
    """One character of a valid document deleted (``edit`` None) or inserted:
    load_json raises a ValueError exactly when json.loads does, with
    json.loads's message, and otherwise gives the same value."""
    at %= len(text) + 1
    want, got = _both_readers(text[:at] + (edit or "") + text[at + (edit is None) :], chunk)
    assert got == want


NUMBERS_JSON = ['{"a": 1.5e-7, "b": [10, -0.25E+3, 7], "c": 0}', "[1.0, 2e5, -3]", "12.5e1",
                '{"dim": 1, "entries": [[-0.0, 0E0]]}', '{"x": -12345678901234567890}']


@pytest.mark.parametrize("text", NUMBERS_JSON)
def test_bounded_reader_numbers_cut_anywhere(text, tmp_path, monkeypatch):
    """Every number is cut at every place by some chunk size, including
    right before a '.', 'e' or sign that the next chunk goes on with."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    want = _canonical(_reference(text))
    for chunk in range(1, len(text) + 1):
        monkeypatch.setattr(linalg, "_CHUNK", chunk)
        assert _canonical(linalg.load_json(path)) == want, chunk


LITERALS = "-Infinity, Infinity, NaN, true, false, null"
CUT_JSON = [f"[{LITERALS}]", f"[[{LITERALS}]]",
            "{" + ", ".join(f'"{k}": {v}' for k, v in zip("abcdef", LITERALS.split(", "))) + "}",
            '["a string longer than the margin", {"k": "another long string"}]',
            '["\\ud83d\\ude00", {"k": "\\ud83d\\ude00"}]']


@pytest.mark.parametrize("text", CUT_JSON)
def test_bounded_reader_literals_strings_and_escapes_cut_anywhere(text, tmp_path, monkeypatch):
    """Every literal, long string and surrogate pair escape is cut at every
    place by some chunk size: a cut "-Infinity" fails at its '-', the
    farthest before the end of the text that a cut value other than a
    string fails, so the retry margin must reach it."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    want = json.dumps(json.loads(text))
    for chunk in range(1, len(text) + 1):
        monkeypatch.setattr(linalg, "_CHUNK", chunk)
        assert json.dumps(linalg.load_json(path)) == want, chunk


MALFORMED_JSON = [
    '{"a" \x0c: 1}', '{\x0c"a": 1}', '{"a": 1\xa0}', '{"a": [1,\u2003 2]}', '{1: 2}',
    '{null: 2}', '{"a": 1,}', '{"a": [1,]}', '{"a": [1 2]}', '{"a" 1}', '{"a": 1', '[1, 2',
    '{"a": [1, 2}', '\ufeff{}', '{} x', '{}{}', '[]]', '{"a": 1}}', '{"a":}', '{,}', '[,]',
    '"abc', '1.', '-', '{"a": 1e}', '{"a": 1.5e+}', 'nul', '', ' ', '{"a": "\\ud83d\\u"}',
]


@pytest.mark.parametrize("text", MALFORMED_JSON)
@pytest.mark.parametrize("chunk", [1, 3, 1 << 18])
def test_bounded_reader_rejects_malformed_json(text, chunk, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        json.loads(path.read_text())
    monkeypatch.setattr(linalg, "_CHUNK", chunk)
    with pytest.raises(ValueError):
        linalg.load_json(path)


def _count_opens(monkeypatch) -> list:
    """The list that gets the path of each file linalg opens from now on."""
    opens = []

    def counting(path, *args, **kwargs):
        opens.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(linalg, "open", counting, raising=False)
    return opens


@pytest.mark.parametrize("start, message", [
    ("\ufeff", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("x", "Expecting value: line 1 column 1 (char 0)"),
])
def test_bounded_reader_stops_at_a_value_that_cannot_decode(start, message, tmp_path, monkeypatch):
    """A value that no further text can complete is refused after at most
    two chunk reads of one open of the file, not retried with every chunk
    of the file nor read again, and the error is json's own for the whole
    file."""
    pf = frames.point_frame_from_mub(weyl.build_mub(3))
    path = tmp_path / "points.json"
    with open(path, "w") as fh:
        fh.write(start)
        linalg.dump_json(frames.point_frame_layout(pf), fh)
    reads = []
    more = linalg._ChunkedJson._more

    def counting(self):
        reads.append(1)
        return more(self)

    monkeypatch.setattr(linalg, "_CHUNK", 16)
    monkeypatch.setattr(linalg._ChunkedJson, "_more", counting)
    opens = _count_opens(monkeypatch)
    assert path.stat().st_size > 100 * 16
    with pytest.raises(ValueError) as exc:
        linalg.load_json(path)
    assert str(exc.value) == message
    assert len(reads) <= 2 and opens == [path]


@pytest.mark.parametrize("short", [1, 7, 30])
def test_bounded_reader_places_an_error_near_the_end_of_many_lines(short, tmp_path, monkeypatch):
    """A point file written a number to a line and cut ``short``
    characters before its end is refused at every chunk size from one open,
    with json's own line, column and character for the whole file, however
    many line breaks the chunks before the error held."""
    pf = frames.point_frame_from_mub(weyl.build_mub(3))
    text = json.dumps(linalg.json_value(frames.point_frame_layout(pf)), indent=1)[:-short]
    path = tmp_path / "points.json"
    path.write_text(text)
    with pytest.raises(ValueError) as want:
        json.loads(text)
    assert text.count("\n") > 400
    for chunk in range(1, 65):
        monkeypatch.setattr(linalg, "_CHUNK", chunk)
        opens = _count_opens(monkeypatch)
        with pytest.raises(ValueError) as exc:
            linalg.load_json(path)
        assert (str(exc.value), opens) == (str(want.value), [path]), chunk


def test_bounded_reader_stacks_a_list_of_operators(tmp_path):
    """A list member of operators comes back as one read-only stack; a list
    that mixes operators with other values stays a list."""
    pf = frames.point_frame_from_mub(weyl.build_mub(3))
    path = tmp_path / "points.json"
    with open(path, "w") as fh:
        linalg.dump_json(frames.point_frame_layout(pf), fh)
    ops = linalg.load_json(path)["ops"]
    assert isinstance(ops, np.ndarray) and not ops.flags.writeable
    assert ops.tobytes() == pf.ops.tobytes()
    mixed = json.loads(path.read_text())
    mixed["ops"].insert(1, 7)
    path.write_text(json.dumps(mixed))
    got = linalg.load_json(path)["ops"]
    assert isinstance(got, list) and got[1] == 7 and len(got) == len(pf.ops) + 1
    assert got[0].tobytes() == pf.ops[0].tobytes() and got[2].tobytes() == pf.ops[1].tobytes()


@pytest.mark.parametrize(
    "value",
    [float("inf"), [1.0, [2.0, -float("inf")]], {"a": {"b": [float("nan")]}},
     np.array([[1.0, 2.0], [3.0, np.inf]]), np.array([[[0j, complex(0.0, np.nan)]]]),
     np.float64(np.inf)],
    ids=["float", "nested-list", "nested-dict", "array", "complex-stack", "numpy-scalar"],
)
def test_require_finite_finds_a_non_finite_number(value):
    with pytest.raises(ValueError, match="not finite"):
        linalg.require_finite(value)


def test_require_finite_passes_finite_artifacts():
    pf = frames.point_frame_from_mub(weyl.build_mub(3))
    linalg.require_finite(frames.point_frame_layout(pf))
    linalg.require_finite({"groups": [[0, 1]], "name": "x", "flag": True, "none": None})

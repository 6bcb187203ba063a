"""Operator frames indexed by the dual affine plane: column-orthogonal
families of traceless Hermitian point operators, the line operators obtained
by summing over geometry lines, and the quasi-probability calculus they
induce.

A point frame of strength β satisfies, for traceless ops t_m^(j),

    tr(t_m^(j) t_m'^(j')) = 0            j ≠ j'
                          = β            j = j', m = m'
                          = −β/(d−1)     j = j', m ≠ m'

and the bridged line operators l_μ = Σ_{(m,j)∈μ} t_m^(j) then satisfy

    tr(l_μ l_μ') = α δ_μμ' − α/(d²−1)·(1 − δ_μμ'),   α = β(d+1).

Trace-one companions are τ = (1 + t)/d and λ = (1 + l)/d, built once per
family by :func:`trace_one`.  Every family is a plain dict of operators;
its file and check order is plane.point_keys / plane.line_keys, never the
dict's insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    HermitianOp,
    gram_deviation,
    header_int,
    hs_inner,
    label_table,
    ops_from_json,
    ops_to_json,
)
from .plane import Dapg, column_labels, incidence_sum, line_keys, point_keys
from .weyl import HGBasis, MubFamily, require_odd_prime, require_prime, verify_mub


def build_simplex_vectors(d: int) -> np.ndarray:
    """The read-only (d, d−1) array of d vectors v_m with constant mutual
    angle, v_m · v_m = (d−1)/2 and v_m · v_m' = −1/2 for m ≠ m': row v_m
    interleaves cos(2πkm/d), sin(2πkm/d) for k = 1..(d−1)/2."""
    d = require_odd_prime(d)
    half = (d - 1) // 2
    m = np.arange(d)[:, None]
    k = np.arange(1, half + 1)[None, :]
    angles = 2 * np.pi * k * m / d
    vectors = np.empty((d, d - 1))
    vectors[:, 0::2] = np.cos(angles)
    vectors[:, 1::2] = np.sin(angles)
    vectors.flags.writeable = False
    return vectors


# --- frames ------------------------------------------------------------------


@dataclass(frozen=True)
class PointFrame:
    """d(d+1) traceless point operators t_m^(j) in ``ops[(m, j)]``, plus the
    strength β."""

    d: int
    beta: float
    ops: dict


@dataclass(frozen=True)
class LineFrame:
    """d² traceless line operators l_μ in ``ops[(a, b)]``, plus the strength α."""

    d: int
    alpha: float
    ops: dict


def trace_one(ops: dict, d: int) -> dict:
    """The trace-one companions (1 + op)/d of a family, under the same keys,
    computed in place on one stack of the family."""
    mats = _companion_stack(np.stack([op.mat for op in ops.values()]), d)
    return {k: HermitianOp(mat=m) for k, m in zip(ops, mats)}


def _companion_stack(mats: np.ndarray, d: int) -> np.ndarray:
    """``mats``, a (n, d, d) stack, overwritten by (1 + m)/d for each m."""
    mats += np.eye(d)
    mats *= 1.0 / d
    return mats


def point_frame_from_mub(mub: MubFamily) -> PointFrame:
    """Point frame t = d·|m;b⟩⟨m;b| − 1 from a complete unbiased family.

    Strength β = d(d−1).  The family is verified first and rejected if its
    overlap deviation exceeds DEFAULT_TOL.
    """
    d = mub.d
    if mub.n_bases != d + 1:
        raise ValueError(f"need a complete family of {d + 1} bases, got {mub.n_bases}")
    dev = verify_mub(mub)
    if dev > DEFAULT_TOL:
        raise ValueError(f"basis family fails unbiasedness: deviation {dev:.3e}")
    eye = np.eye(d)
    ops = {}
    for m, j in point_keys(d):
        ket = mub.bases[j, m]
        ops[(m, j)] = HermitianOp.from_matrix(d * np.outer(ket, ket.conj()) - eye)
    return PointFrame(d=d, beta=float(d * (d - 1)), ops=ops)


def point_frame_from_hg(basis: HGBasis) -> PointFrame:
    """Point frame f_m^(j) = Σ_k [cos(2πkm/d) h_{j,k} + sin(2πkm/d) g_{j,k}].

    The basis is unit-normalized (|ζ|² = 1/(2d)), so the strength is
    β = (d−1)/2, the minimal one realized by Hermitian operator frames here.
    """
    d = basis.d
    v = build_simplex_vectors(d)
    ops = {}
    for m, j in point_keys(d):
        mat = np.tensordot(v[m, 0::2], basis.h[j], axes=1) + np.tensordot(
            v[m, 1::2], basis.g[j], axes=1
        )
        ops[(m, j)] = HermitianOp.from_matrix(mat)
    return PointFrame(d=d, beta=float((d - 1) / 2), ops=ops)


def with_beta(frame: PointFrame, beta: float) -> PointFrame:
    """Rescale a point frame to a new strength (ops scale by √(β/β_old))."""
    if not (0 < beta < np.inf and 0 < frame.beta < np.inf):
        raise ValueError("frame strengths must be positive and finite")
    c = float(np.sqrt(beta / frame.beta))
    ops = {k: HermitianOp(mat=c * op.mat) for k, op in frame.ops.items()}
    return PointFrame(d=frame.d, beta=float(beta), ops=ops)


def line_ops_from_points(frame: PointFrame, geom: Dapg) -> LineFrame:
    """Bridge points to lines: l_μ = Σ_{(m,j)∈μ} t_m^(j); α = β(d+1)."""
    if frame.d != geom.d:
        raise ValueError(f"dimension mismatch: frame d={frame.d}, geometry d={geom.d}")
    ops = incidence_ops(frame.ops, geom.points, geom.incidence, geom.lines, 1.0)
    return LineFrame(d=frame.d, alpha=float(frame.beta * (frame.d + 1)), ops=ops)


def point_ops_from_lines(frame: LineFrame, geom: Dapg) -> PointFrame:
    """Bridge lines back to points: t_m^(j) = (1/d) Σ_{μ∋(m,j)} l_μ."""
    if frame.d != geom.d:
        raise ValueError(f"dimension mismatch: frame d={frame.d}, geometry d={geom.d}")
    d = frame.d
    ops = incidence_ops(frame.ops, geom.lines, geom.incidence.T, geom.points, 1.0 / d)
    return PointFrame(d=d, beta=float(frame.alpha / (d + 1)), ops=ops)


def incidence_ops(ops: dict, keys, incidence: np.ndarray, out_keys, scale: float) -> dict:
    """``scale`` times the sums of ``ops`` (rows in ``keys`` order) along
    ``incidence``, keyed by ``out_keys``: the one bridge between the points
    and the lines of the plane.  Each result wraps its row of the summed
    stack directly, since sums of Hermitian matrices are exactly Hermitian."""
    mats = incidence_sum(incidence, [ops[k].mat for k in keys])
    mats *= scale
    return {k: HermitianOp(mat=m) for k, m in zip(out_keys, mats)}


# --- verification ------------------------------------------------------------


def verify_point_table(frame: PointFrame) -> float:
    """Max deviation of tr(t t') from {β; −β/(d−1); 0 across columns}."""
    d, beta = frame.d, frame.beta
    target = label_table(column_labels(d), beta, -beta / (d - 1), 0.0)
    return gram_deviation((frame.ops[k] for k in point_keys(d)), target)


def verify_line_table(frame: LineFrame) -> float:
    """Max deviation of tr(l l') from {α; −α/(d²−1)}."""
    d, alpha = frame.d, frame.alpha
    target = label_table(np.arange(d * d), alpha, alpha, -alpha / (d * d - 1))
    return gram_deviation((frame.ops[k] for k in line_keys(d)), target)


@dataclass
class PointLineReport:
    """Deviations of point-line products from the on/off-line constants.

    Traceless products tr(t l): β on-line, −β(d+1)/(d²−1) off-line.
    Trace-one products tr(τ λ): (d+β)/d² on-line, (d − β/(d−1))/d² off-line.
    """

    d: int
    beta: float
    max_dev_traceless: float
    max_dev_trace_one: float

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_traceless, self.max_dev_trace_one)


def verify_point_line_products(
    points: PointFrame, lines: LineFrame, geom: Dapg
) -> PointLineReport:
    if not (points.d == lines.d == geom.d):
        raise ValueError("dimension mismatch between frames and geometry")
    d, beta = points.d, points.beta
    on = geom.incidence.T == 1  # [line, point]
    want_t = np.where(on, beta, -beta * (d + 1) / (d * d - 1)).tolist()
    want_tau = np.where(on, (d + beta) / d**2, (d - beta / (d - 1)) / d**2).tolist()
    taus, lams = trace_one(points.ops, d), trace_one(lines.ops, d)
    pairs = [(points.ops[p], taus[p]) for p in geom.points]
    dev_t = dev_tau = 0.0
    for ln, want_t_row, want_tau_row in zip(geom.lines, want_t, want_tau):
        l_op, lam_op = lines.ops[ln], lams[ln]
        for (t_op, tau_op), w_t, w_tau in zip(pairs, want_t_row, want_tau_row):
            dev_t = max(dev_t, abs(hs_inner(t_op, l_op) - w_t))
            dev_tau = max(dev_tau, abs(hs_inner(tau_op, lam_op) - w_tau))
    return PointLineReport(
        d=d, beta=beta, max_dev_traceless=dev_t, max_dev_trace_one=dev_tau
    )


# --- scaled line family and quasi-probabilities -------------------------------


def scaled_so(frame: LineFrame) -> dict:
    """Unit-purity rescaling σ_μ = (1/d)(1 + √(2d/(d+1)) l_μ).

    Only defined at the minimal strength α = (d+1)(d−1)/2, where it gives
    tr σ² = 1 and tr(σ σ') = 1/(d+1) — unbiased-measurement geometry without
    positivity.
    """
    d = frame.d
    expected = (d + 1) * (d - 1) / 2.0
    if abs(frame.alpha - expected) > 1e-8:
        raise ValueError(
            f"scaled family needs α = (d+1)(d−1)/2 = {expected}; got {frame.alpha}"
        )
    c = float(np.sqrt(2.0 * d / (d + 1)))
    return trace_one({k: HermitianOp(mat=c * frame.ops[k].mat) for k in line_keys(d)}, d)


def quasi_distribution(rho: HermitianOp, points: PointFrame) -> dict:
    """Q_(m,j) = tr(τ_m^(j) ρ) over all points, for a unit-trace ρ.

    Columns each sum to 1; entries may be negative unless the τ are positive.
    """
    if rho.dim != points.d:
        raise ValueError(f"dimension mismatch: ρ is {rho.dim}, frame is {points.d}")
    if abs(rho.trace - 1.0) > 1e-10:
        raise ValueError(f"ρ must have unit trace, got {rho.trace!r}")
    d, keys = points.d, point_keys(points.d)
    taus = _companion_stack(np.stack([points.ops[k].mat for k in keys]), d)
    # The matmul trace, not hs_inner or an einsum: these values are written to
    # quasi.json, whose bytes a reordered sum would change in the last bits.
    values = np.trace(taus @ rho.mat, axis1=1, axis2=2).real
    return dict(zip(keys, values.tolist()))


def line_probabilities(q: dict, geom: Dapg) -> dict:
    """p_μ = (Σ_{(m,j)∈μ} Q_(m,j) − 1)/d for each line μ.

    Equals tr(λ_μ ρ)/d when Q came from the bridged point frame; sums to 1
    over all lines.
    """
    sums = incidence_sum(geom.incidence, [q[p] for p in geom.points])
    return {ln: (float(total) - 1.0) / geom.d for ln, total in zip(geom.lines, sums)}


# --- serialization ------------------------------------------------------------
#
# Frame JSON: { "d": d, "beta"|"alpha": x, "ops": [operator, ...] } with ops
# listed in plane.point_keys / plane.line_keys order.


def point_frame_to_json_dict(frame: PointFrame) -> dict:
    return {"d": frame.d, "beta": frame.beta, "ops": ops_to_json(frame.ops, point_keys(frame.d))}


def line_frame_to_json_dict(frame: LineFrame) -> dict:
    return {"d": frame.d, "alpha": frame.alpha, "ops": ops_to_json(frame.ops, line_keys(frame.d))}


def _frame_from_json(obj: dict, strength: str, keys_of) -> tuple[int, float, dict]:
    """(d, strength, ops) of a point- or line-frame object."""
    try:
        d = header_int(obj, "d")
        value = obj[strength]
        raw = obj["ops"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{strength} must be a number, got {value!r}")
        value = float(value)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed frame object: {exc}") from exc
    if not np.isfinite(value):
        raise ValueError(f"frame {strength} must be finite, got {value!r}")
    # Both layouts hold at least d² ops; checked before d is tested for
    # primality and d² keys are built.
    if not isinstance(raw, list) or d * d > len(raw):
        raise ValueError(f"frame object with d = {d} needs a list of at least {d * d} ops")
    return d, value, ops_from_json(raw, keys_of(require_prime(d)), d)


def point_frame_from_json_dict(obj: dict) -> PointFrame:
    d, beta, ops = _frame_from_json(obj, "beta", point_keys)
    return PointFrame(d=d, beta=beta, ops=ops)


def line_frame_from_json_dict(obj: dict) -> LineFrame:
    d, alpha, ops = _frame_from_json(obj, "alpha", line_keys)
    return LineFrame(d=d, alpha=alpha, ops=ops)

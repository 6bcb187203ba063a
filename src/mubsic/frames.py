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

Trace-one companions are τ = (1 + t)/d and λ = (1 + l)/d, the stacks
:func:`trace_one` builds.  Every family is one read-only (n, d, d) stack
whose rows are in plane.point_keys / plane.line_keys order: the order of its
file, of every check and of the canonical dual plane's incidence matrix.  A
file layout holds the stack itself, which linalg.dump_json encodes as it writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    gram_deviation,
    hermitian_stack,
    hs_inner,
    json_value,
    ops_from_json,
    read_header,
    read_only,
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
    return read_only(vectors)


# --- frames ------------------------------------------------------------------


@dataclass(frozen=True)
class PointFrame:
    """d(d+1) traceless point operators t_m^(j), the rows of the read-only
    stack ``ops`` in point_keys order, plus the strength β."""

    d: int
    beta: float
    ops: np.ndarray


@dataclass(frozen=True)
class LineFrame:
    """d² traceless line operators l_μ, the rows of the read-only stack
    ``ops`` in line_keys order, plus the strength α."""

    d: int
    alpha: float
    ops: np.ndarray


def trace_one(ops: np.ndarray, d: int) -> np.ndarray:
    """The read-only stack of trace-one companions (1 + op)/d of a family,
    scaled in place: the same bits, with one stack-sized temporary, not two."""
    return read_only(np.multiply(t := ops + np.eye(d), 1.0 / d, out=t))


def point_frame_from_mub(mub: MubFamily) -> PointFrame:
    """Point frame t = d·|m;b⟩⟨m;b| − 1 from a complete unbiased family.

    Strength β = d(d−1).  The family is verified first and rejected if its
    overlap deviation exceeds DEFAULT_TOL.
    """
    d = mub.d
    if mub.n_bases != d + 1:
        raise ValueError(f"need a complete family of {d + 1} bases, got {mub.n_bases}")
    dev = verify_mub(mub)
    if not dev <= DEFAULT_TOL:
        raise ValueError(f"basis family fails unbiasedness: deviation {dev:.3e}")
    eye = np.eye(d)
    kets = (mub.bases[j, m] for m, j in point_keys(d))
    ops = hermitian_stack((d * np.outer(k, k.conj()) - eye for k in kets), d * (d + 1), d)
    return PointFrame(d=d, beta=float(d * (d - 1)), ops=ops)


def point_frame_from_hg(basis: HGBasis) -> PointFrame:
    """Point frame f_m^(j) = Σ_k [cos(2πkm/d) h_{j,k} + sin(2πkm/d) g_{j,k}].

    The basis is unit-normalized (|ζ|² = 1/(2d)), so the strength is
    β = (d−1)/2, the minimal one realized by Hermitian operator frames here.
    """
    d = basis.d
    v = build_simplex_vectors(d)[:, :, None, None]
    # Summed over k in a fixed order, not by BLAS, whose order (and so the
    # last bits of the file) follows the thread count.
    mats = (
        (v[m, 0::2] * basis.h[j]).sum(axis=0) + (v[m, 1::2] * basis.g[j]).sum(axis=0)
        for m, j in point_keys(d)
    )
    ops = hermitian_stack(mats, d * (d + 1), d)
    return PointFrame(d=d, beta=float((d - 1) / 2), ops=ops)


def with_beta(frame: PointFrame, beta: float) -> PointFrame:
    """Rescale a point frame to a new strength (ops scale by √(β/β_old))."""
    if not (0 < beta < np.inf and 0 < frame.beta < np.inf):
        raise ValueError("frame strengths must be positive and finite")
    c = float(np.sqrt(beta / frame.beta))
    return PointFrame(d=frame.d, beta=float(beta), ops=read_only(c * frame.ops))


def _require_plane(geom: Dapg, *frames) -> None:
    """Reject a plane other than the dual plane of the frames' d with points
    and lines in point_keys / line_keys order, the order of the frames' rows."""
    d, keys = geom.d, (tuple(point_keys(geom.d)), tuple(line_keys(geom.d)))
    if any(f.d != d for f in frames) or (geom.points, geom.lines) != keys:
        ds = [f.d for f in frames]
        raise ValueError(f"frames of d {ds} need the canonical dual plane of their d, got d={d}")


def line_ops_from_points(frame: PointFrame, geom: Dapg) -> LineFrame:
    """Bridge points to lines: l_μ = Σ_{(m,j)∈μ} t_m^(j); α = β(d+1)."""
    _require_plane(geom, frame)
    ops = read_only(incidence_sum(geom.incidence, frame.ops))
    return LineFrame(d=frame.d, alpha=float(frame.beta * (frame.d + 1)), ops=ops)


def point_ops_from_lines(frame: LineFrame, geom: Dapg) -> PointFrame:
    """Bridge lines back to points: t_m^(j) = (1/d) Σ_{μ∋(m,j)} l_μ."""
    _require_plane(geom, frame)
    ops = read_only(incidence_sum(geom.incidence.T, frame.ops) * (1.0 / frame.d))
    return PointFrame(d=frame.d, beta=float(frame.alpha / (frame.d + 1)), ops=ops)


# --- verification ------------------------------------------------------------


def verify_point_table(frame: PointFrame) -> float:
    """Max deviation of tr(t t') from {β; −β/(d−1); 0 across columns}."""
    d, beta = frame.d, frame.beta
    return gram_deviation(frame.ops, column_labels(d), beta, -beta / (d - 1), 0.0)


def verify_line_table(frame: LineFrame) -> float:
    """Max deviation of tr(l l') from {α; −α/(d²−1)}."""
    d, alpha = frame.d, frame.alpha
    return gram_deviation(frame.ops, np.arange(d * d), alpha, alpha, -alpha / (d * d - 1))


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
    _require_plane(geom, points, lines)
    d, beta = points.d, points.beta
    on = geom.incidence.T == 1  # [line, point]
    t_on, t_off = beta, -beta * (d + 1) / (d * d - 1)
    tau_on, tau_off = (d + beta) / d**2, (d - beta / (d - 1)) / d**2
    pairs = list(zip(points.ops, trace_one(points.ops, d)))
    eye, inv_d = np.eye(d), 1.0 / d
    dev_t = dev_tau = 0.0
    for l_op, on_row in zip(lines.ops, on):
        # trace_one's arithmetic on one row, so no second stack is built.
        lam_op = (l_op + eye) * inv_d
        for (t_op, tau_op), is_on in zip(pairs, on_row.tolist()):
            dev_t = max(dev_t, abs(hs_inner(t_op, l_op) - (t_on if is_on else t_off)))
            dev_tau = max(dev_tau, abs(hs_inner(tau_op, lam_op) - (tau_on if is_on else tau_off)))
    return PointLineReport(
        d=d, beta=beta, max_dev_traceless=dev_t, max_dev_trace_one=dev_tau
    )


# --- scaled line family and quasi-probabilities -------------------------------


def scaled_so(frame: LineFrame) -> np.ndarray:
    """Unit-purity rescaling σ_μ = (1/d)(1 + √(2d/(d+1)) l_μ).

    Only defined at the minimal strength α = (d+1)(d−1)/2, where it gives
    tr σ² = 1 and tr(σ σ') = 1/(d+1) — unbiased-measurement geometry without
    positivity.
    """
    d = frame.d
    expected = (d + 1) * (d - 1) / 2.0
    if not abs(frame.alpha - expected) <= 1e-8:
        raise ValueError(
            f"scaled family needs α = (d+1)(d−1)/2 = {expected}; got {frame.alpha}"
        )
    c = float(np.sqrt(2.0 * d / (d + 1)))
    return trace_one(c * frame.ops, d)


def quasi_distribution(rho: np.ndarray, points: PointFrame) -> dict:
    """Q_(m,j) = tr(τ_m^(j) ρ) over all points, for a finite unit-trace
    Hermitian matrix ρ.

    Columns each sum to 1; entries may be negative unless the τ are positive.
    A value past float64 reads inf or NaN, without a floating-point warning.
    """
    if len(rho) != points.d:
        raise ValueError(f"dimension mismatch: ρ is {len(rho)}, frame is {points.d}")
    # As floats, as HermitianOp.from_matrix checks: a complex isfinite adds to peak RSS.
    if not (np.isfinite(rho.real).all() and np.isfinite(rho.imag).all()):
        raise ValueError("ρ entries must be finite")
    trace = float(rho.diagonal().real.sum())
    if not abs(trace - 1.0) <= 1e-10:
        raise ValueError(f"ρ must have unit trace, got {trace!r}")
    # Re Σᵢⱼ τᵢⱼρⱼᵢ in numpy's fixed order, not a BLAS order that follows the thread
    # count, from real parts that equal trace_one(t)'s: trace_one(Re t) and Im t/d.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = trace_one(points.ops.real, points.d) * rho.real.T
        terms -= np.multiply(im := points.ops.imag * (1.0 / points.d), rho.imag.T, out=im)
        values = terms.sum(axis=(1, 2))
    return dict(zip(point_keys(points.d), values.tolist()))


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
# listed in plane.point_keys / plane.line_keys order.  The *_layout functions
# spell it once, ops held as the stack; *_to_json_dict give its plain value.


def point_frame_layout(frame: PointFrame) -> dict:
    return {"d": frame.d, "beta": frame.beta, "ops": frame.ops}


def line_frame_layout(frame: LineFrame) -> dict:
    return {"d": frame.d, "alpha": frame.alpha, "ops": frame.ops}


def point_frame_to_json_dict(frame: PointFrame) -> dict:
    return json_value(point_frame_layout(frame))


def line_frame_to_json_dict(frame: LineFrame) -> dict:
    return json_value(line_frame_layout(frame))


def _frame_from_json(obj: dict, strength: str, keys_of) -> tuple[int, float, np.ndarray]:
    """(d, strength, ops) of a point- or line-frame object."""
    def number(d, value, raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{strength} must be a number, got {value!r}")
        return d, float(value), raw

    d, value, raw = read_header(obj, "frame", "d", strength, "ops", then=number)
    if not np.isfinite(value):
        raise ValueError(f"frame {strength} must be finite, got {value!r}")
    # Both layouts hold at least d² ops; checked before d is tested for
    # primality and d² keys are built.
    if not isinstance(raw, (list, np.ndarray)) or d * d > len(raw):
        raise ValueError(f"frame object with d = {d} needs a list of at least {d * d} ops")
    return d, value, ops_from_json(raw, keys_of(require_prime(d)), d)


def point_frame_from_json_dict(obj: dict) -> PointFrame:
    d, beta, ops = _frame_from_json(obj, "beta", point_keys)
    return PointFrame(d=d, beta=beta, ops=ops)


def line_frame_from_json_dict(obj: dict) -> LineFrame:
    d, alpha, ops = _frame_from_json(obj, "alpha", line_keys)
    return LineFrame(d=d, alpha=alpha, ops=ops)

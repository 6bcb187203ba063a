"""Equal-overlap projector families on the shift/clock orbit and everything
needed to hunt, certify, and dissect them: fiducial kets, the d² covariant
projectors, the unbiased probability-operator columns extracted over the dual
affine plane, spectra bookkeeping, cyclic probability-vector solving, phase
reconstruction of the fiducial state, and a seeded numerical search whose
Levenberg-Marquardt solver (:func:`least_squares`) runs on numpy alone.

The orbit convention is λ_{a,b} = X^†ᵇ Zᵃ ρ₀ Z^†ᵃ Xᵇ with ρ₀ = |ψ₀⟩⟨ψ₀|, so
conjugating the whole family by X^†ᴮ Zᴬ permutes labels (a, b) → (a⊕A, b⊕B).
"""

from __future__ import annotations

import csv
import io
import operator
import random
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    HermitianOp,
    complex_from_json,
    complex_to_json,
    gram_deviation,
    hermitian_eigensystem,
    hermitian_stack,
    json_value,
    label_table,
    load_json,
    ops_from_json,
    read_header,
    read_only,
    require_finite,
    spectrum_rank,
    third_moment,
    write_json,
)
from .plane import build_dapg, column_labels, incidence_sum, line_keys, point_keys
from .weyl import MubFamily, build_weyl_pair, require_prime


def _ket_norm(ket: np.ndarray) -> float:
    """numpy's ‖ket‖ of a complex ket, inf without a warning past float64.
    Raises ValueError unless every component is finite (checked as floats)."""
    if not np.all(np.isfinite(ket.real)) or not np.all(np.isfinite(ket.imag)):
        raise ValueError("ket components must be finite")
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(ket))


def canonical_ket(vec) -> np.ndarray:
    """Normalize and fix the global phase: first component with modulus above
    1e−12 is made real nonnegative."""
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    norm = _ket_norm(vec)
    if norm <= 1e-12:
        raise ValueError("cannot normalize a (near-)zero vector")
    vec = vec / norm
    return read_only(vec * np.exp(-1j * np.angle(vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]])))


@dataclass(frozen=True)
class Fiducial:
    """A unit ket that seeds a covariant projector family.

    ``source`` records provenance: 'closed-form', 'searched', 'ingested', or
    'reconstructed' (from measurement operators by :func:`fiducial_from_mu_pom`).
    """

    d: int
    ket: np.ndarray
    source: str = "ingested"

    def __post_init__(self):
        if self.ket.shape != (self.d,):
            raise ValueError(f"ket must have length {self.d}, got {self.ket.shape}")
        norm = _ket_norm(self.ket)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"ket must be unit-norm, got ‖ψ‖ = {norm!r}")

    def to_json_dict(self) -> dict:
        return {"d": self.d, "ket": complex_to_json(self.ket)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Fiducial":
        """Parse and renormalize a stored ket, which may be off unit norm by up
        to 1e−6; anything worse, or a malformed or zero ket, is a ValueError."""
        d, raw = read_header(obj, "fiducial", "d", "ket")
        vec = complex_from_json(raw, (d,), "ket")
        norm = _ket_norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"ingested ket is not normalized: ‖ψ‖ = {norm!r}")
        return cls(d=d, ket=canonical_ket(vec), source="ingested")


def qubit_fiducial() -> Fiducial:
    """Closed-form d = 2 fiducial: Bloch vector (1, 1, 1)/√3."""
    c = 1.0 / np.sqrt(3.0)
    ket = np.array(
        [np.sqrt((1 + c) / 2), np.exp(1j * np.pi / 4) * np.sqrt((1 - c) / 2)]
    )
    return Fiducial(d=2, ket=canonical_ket(ket), source="closed-form")


def qutrit_fiducial() -> Fiducial:
    """Closed-form d = 3 fiducial (|0⟩ − ω²|1⟩)/√2, ω = exp(2πi/3)."""
    omega = np.exp(2j * np.pi / 3)
    ket = np.array([1.0, -(omega**2), 0.0]) / np.sqrt(2.0)
    return Fiducial(d=3, ket=canonical_ket(ket), source="closed-form")


# --- covariant family ---------------------------------------------------------


@dataclass(frozen=True)
class SicFamily:
    """d² rank-one trace-one operators λ_μ, the rows of the read-only stack
    ``projectors`` in plane.line_keys order, generated from (or read
    alongside) a fiducial ket."""

    d: int
    fiducial: Fiducial
    projectors: np.ndarray

    def layout(self) -> dict:
        """The file object, ``ops`` held as the stack (see linalg.dump_json)."""
        return {"d": self.d, "fiducial": complex_to_json(self.fiducial.ket), "ops": self.projectors}

    def to_json_dict(self) -> dict:
        return json_value(self.layout())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SicFamily":
        d, raw_ket, raw_ops = read_header(obj, "family", "d", "fiducial", "ops")
        # The ket's length bounds d before d is tested for primality and d²
        # keys are built.
        fid = Fiducial.from_json_dict({"d": d, "ket": raw_ket})
        ops = ops_from_json(raw_ops, line_keys(require_prime(d)), d)
        return cls(d=d, fiducial=fid, projectors=ops)


def generate_hw_sic(fid: Fiducial) -> SicFamily:
    """The shift/clock orbit of |ψ₀⟩⟨ψ₀|: λ_{a,b} = X^†ᵇ Zᵃ ρ₀ Z^†ᵃ Xᵇ is
    |k⟩⟨k| with k = X⁻ᵇZᵃψ₀, the :func:`_orbit` row ((−b) mod d, a).  Each
    entry is one product of two gathered entries, so no BLAS call orders a sum.
    """
    d = require_prime(fid.d)
    kets = _orbit(_orbit_tables(d), fid.ket)
    outers = (np.outer(k, k.conj()) for k in (kets[(-b) % d * d + a] for a, b in line_keys(d)))
    return SicFamily(d=d, fiducial=fid, projectors=hermitian_stack(outers, d * d, d))


def verify_sic(fam: SicFamily) -> float:
    """Max deviation of tr(λ λ') from the pattern {1 on the diagonal,
    1/(d+1) off it}."""
    d = fam.d
    target = label_table(np.arange(d * d), 1.0, 1.0, 1.0 / (d + 1))
    return gram_deviation(fam.projectors, target)


# --- measurement columns over the dual affine plane ---------------------------


def extract_mu_pom(fam: SicFamily) -> np.ndarray:
    """The read-only stack of the d(d+1) trace-one operators
    τ_m^(j) = (1/d) Σ_{μ∋(m,j)} λ_μ, in plane.point_keys order: the frames'
    line-to-point bridge applied to the projector family.  Each column j
    sums to the identity.

    The input family is verified first: if its overlap deviation exceeds
    1e−8 the extraction is refused, since the output pattern is only
    meaningful on an equal-overlap family.
    """
    d = fam.d
    dev = verify_sic(fam)
    if not dev <= 1e-8:
        raise ValueError(f"family fails equal-overlap check: deviation {dev:.3e}")
    return read_only(incidence_sum(build_dapg(d).incidence.T, fam.projectors) * (1.0 / d))


def verify_mu_pom(taus: np.ndarray) -> float:
    """Max deviation of tr(τ τ') over the stack ``taus`` from the three-value
    pattern {1/d across columns; 2/(d+1) on the diagonal; 1/(d+1) within a
    column}."""
    d = taus.shape[-1]
    target = label_table(column_labels(d), 2.0 / (d + 1), 1.0 / (d + 1), 1.0 / d)
    return gram_deviation(taus, target)


# --- spectra bookkeeping -------------------------------------------------------


def spectra_table(taus: np.ndarray) -> np.ndarray:
    """The read-only (d+1, d, d) table S of the spectra of the point-operator
    stack ``taus``: S[j, m] holds the descending eigenvalues of τ_m^(j)."""
    d = taus.shape[-1]
    spectra, _ = hermitian_eigensystem(taus)
    # Contiguous, as a table built row by row is: reductions sum in its order.
    return read_only(np.ascontiguousarray(spectra).reshape(d + 1, d, d))


def assert_column_constant(table: np.ndarray) -> np.ndarray:
    """The (d+1,) spreads of a spectra table: column j's is the largest
    max − min over the members' i-th eigenvalues, which is the largest
    entrywise gap between two members (rounding is monotone, so
    fl(max − min) is the largest fl(x − y)).  Columns are constant when
    every spread is within tolerance; one past float64 reads inf."""
    with np.errstate(over="ignore"):
        return (table.max(axis=1) - table.min(axis=1)).max(axis=1)


def group_columns_by_spectrum(table: np.ndarray, tol: float = 1e-6) -> dict:
    """The groups JSON object {"groups", "spectra"}: columns 0..d partitioned
    into the connected components of "spectra agree entrywise within
    ``tol``", so the result does not depend on column order.

    Each column is represented by the mean of its members' spectra (callers
    should have checked column-constancy first), and each group by the mean
    of its columns'.  Groups list their columns in increasing order and are
    ordered by their smallest column.  A mean past float64 reads ±inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        reps = table.mean(axis=1)
        close = np.abs(reps[:, None] - reps).max(axis=2) <= tol
    groups: list[list[int]] = []
    for j in range(len(reps)):
        linked = [g for g in groups if close[j, g].any()]
        merged = sorted([j] + [k for g in linked for k in g])
        groups = [g for g in groups if g not in linked] + [merged]
    groups.sort()
    return {"groups": groups, "spectra": [reps[g].mean(axis=0).tolist() for g in groups]}


def spectra_to_csv(table: np.ndarray) -> str:
    """CSV with header m,j,lambda_1..lambda_d; rows ordered (j asc, m asc);
    12 significant digits, '.' decimal separator."""
    require_finite(table)
    d = table.shape[1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_csv_header(d))
    for (m, j), values in zip(point_keys(d), table.reshape(-1, d).tolist()):
        writer.writerow([m, j] + [f"{x:.12g}" for x in values])
    return buf.getvalue()


def _csv_header(d: int) -> list[str]:
    return ["m", "j"] + [f"lambda_{i}" for i in range(1, d + 1)]


def spectra_from_csv(text: str) -> np.ndarray:
    """Inverse of :func:`spectra_to_csv`; d is the header's lambda count.

    Raises ValueError unless d is prime and every point (m, j) appears
    exactly once, each with d finite values in descending order.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise ValueError(f"spectra CSV is malformed: {exc}") from None
    d = len(rows[0]) - 2 if rows else 0
    if d < 1 or rows[0] != _csv_header(d):
        raise ValueError("spectra CSV must start with header m,j,lambda_1..lambda_d")
    require_prime(d)
    spectra = {}
    for row in rows[1:]:
        if len(row) != d + 2:
            raise ValueError(f"spectra CSV row {row} does not have {d + 2} fields")
        key = (int(row[0]), int(row[1]))
        if key in spectra:
            raise ValueError(f"spectra CSV lists point {key} twice")
        values = np.array([float(x) for x in row[2:]])
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum values must be finite")
        if np.any(values[:-1] < values[1:]):
            raise ValueError("spectrum values must be sorted descending")
        spectra[key] = values
    if set(spectra) != set(point_keys(d)):
        raise ValueError(
            f"spectra CSV lists {len(spectra)} points; d = {d} needs each of the "
            f"{d * (d + 1)} points (m, j) once"
        )
    return read_only(np.array([spectra[k] for k in point_keys(d)]).reshape(d + 1, d, d))


# --- cyclic probability conditions ---------------------------------------------


def _shift_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables ahead[m, i] = i+m and behind[m, i] = i−m (mod d): the
    gathers p[ahead[m]] and p[behind[m]] are np.roll(p, −m) and np.roll(p, m)."""
    i = np.arange(d)
    return (i + i[:, None]) % d, (i - i[:, None]) % d


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative entries summing to one (within 1e−12 slack)."""

    entries: tuple

    def __post_init__(self):
        vals = np.asarray(self.entries, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("probability entries must be finite")
        if vals.min() < -1e-12:
            raise ValueError(f"negative probability entry: {vals.min()!r}")
        if abs(vals.sum() - 1.0) > 1e-12:
            raise ValueError(f"entries must sum to 1, got {vals.sum()!r}")

    def __iter__(self):
        return iter(self.entries)

    def autocorrelation(self, m: int) -> float:
        p = np.asarray(self.entries)
        return float(p @ p[_shift_tables(len(p))[0][m % len(p)]])


@dataclass
class CyclicSolutions:
    """Solutions of Σ_k p_k p_{k⊕m} = 2/(d+1) (m = 0), 1/(d+1) (else).

    ``solutions`` holds canonical representatives up to cyclic shift and
    reflection.  For d = 3 the full solution set is the one-parameter family
    exposed via ``family`` on ``family_bounds``; for d ≥ 5 the set is a
    positive-dimensional variety and ``solutions`` are deduped sample points
    found by seeded minimum-norm Gauss-Newton restarts.
    """

    d: int
    solutions: list
    residuals: list
    family: object = None
    family_bounds: tuple | None = None


def cyclic_residuals(p, d: int) -> np.ndarray:
    """Autocorrelation and normalization residuals for a candidate vector."""
    p = np.asarray(p, dtype=float)
    if p.shape != (d,):
        raise ValueError(f"expected a vector of {d} entries, got shape {p.shape}")
    return _cyclic_residuals(p, d, _shift_tables(d)[0])


def _cyclic_residuals(p: np.ndarray, d: int, ahead: np.ndarray) -> np.ndarray:
    half = (d - 1) // 2 if d % 2 else d // 2
    res = [p.sum() - 1.0]
    for m in range(half + 1):
        target = 2.0 / (d + 1) if m == 0 else 1.0 / (d + 1)
        res.append(float(p @ p[ahead[m]]) - target)
    return np.asarray(res)


def qutrit_cyclic_family(p1: float) -> ProbabilityVector:
    """The d = 3 solution family p₀ = (1 − p₁ + √(2p₁ − 3p₁²))/2, feasible for
    p₁ ∈ [0, 2/3]."""
    if not 0.0 <= p1 <= 2.0 / 3.0 + 1e-12:
        raise ValueError(f"p1 must lie in [0, 2/3], got {p1}")
    radicand = max(2.0 * p1 - 3.0 * p1 * p1, 0.0)
    p0 = (1.0 - p1 + np.sqrt(radicand)) / 2.0
    p2 = 1.0 - p0 - p1
    return ProbabilityVector(entries=(float(p0), float(p1), max(float(p2), 0.0)))


def _canonical_cycle(p: np.ndarray, behind: np.ndarray) -> tuple:
    """The largest of p's cyclic shifts and their reflections, as a tuple."""
    return max(tuple(row) for q in (p, p[::-1]) for row in q[behind])


def solve_cyclic_probability(d: int, seed: int = 0, restarts: int = 64) -> CyclicSolutions:
    """Solve the cyclic overlap conditions for probability vectors.

    d = 2 and d = 3 use closed forms; d ≥ 5 returns the residual-clean
    results of seeded minimum-norm Gauss-Newton restarts, deduped up to
    cyclic shift and reflection.
    """
    d = require_prime(d)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    family = {}
    if d == 2:
        hi = (3.0 + np.sqrt(3.0)) / 6.0
        vectors = [(hi, 1.0 - hi), (1.0 - hi, hi)]
    elif d == 3:
        vectors = [qutrit_cyclic_family(0.5).entries]
        family = {"family": qutrit_cyclic_family, "family_bounds": (0.0, 2.0 / 3.0)}
    else:
        vectors = _cyclic_samples(d, seed, restarts)
    sols = [ProbabilityVector(entries=v) for v in vectors]
    residuals = [float(np.abs(cyclic_residuals(s.entries, d)).max()) for s in sols]
    return CyclicSolutions(d=d, solutions=sols, residuals=residuals, **family)


def _cyclic_samples(d: int, seed: int, restarts: int) -> list:
    """Canonical cycles of the restarts' solutions, deduped at 8 digits and
    sorted descending.  Each restart writes p = q⊙q, which keeps p ≥ 0, and
    takes minimum-norm Gauss-Newton steps in q from the square root of a
    Dirichlet draw: the (d−1)/2 + 2 conditions leave a positive-dimensional
    solution set, onto which the least-norm step projects quadratically."""
    half = (d - 1) // 2
    ahead, behind = _shift_tables(d)

    def fun(q):
        return _cyclic_residuals(q * q, d, ahead)

    def jac(q):
        # The conditions' Jacobian at p = q⊙q, times dp/dq = 2q.
        p = q * q
        out = np.empty((half + 2, d))
        out[0] = 1.0
        out[1:] = p[ahead[: half + 1]] + p[behind[: half + 1]]
        return out * (2.0 * q)

    rng = _rng(seed)
    found: dict[tuple, tuple] = {}
    for _ in range(restarts):
        # A Dirichlet(1, ..., 1) draw: d exponential draws over their sum.
        e = np.array([rng.expovariate(1.0) for _ in range(d)])
        q = np.sqrt(e / e.sum())
        r = fun(q)
        for _ in range(_GN_STEPS):
            q_new = q - np.linalg.lstsq(jac(q), r, rcond=None)[0]
            r_new = fun(q_new)
            # Far from the set a full step may raise max |r|; none is refused above 1e-12.
            if np.abs(r).max() <= 1e-12 and np.abs(r_new).max() >= np.abs(r).max():
                break
            q, r = q_new, r_new
        if np.abs(r).max() > 1e-12:
            continue
        p = np.where(q * q < 1e-14, 0.0, q * q)
        canon = _canonical_cycle(p / p.sum(), behind)
        found.setdefault(tuple(round(x, 8) for x in canon), tuple(float(x) for x in canon))
    return sorted(found.values(), reverse=True)


def _rng(seed) -> random.Random:
    """The seeded stream of the cyclic restarts and of the search's start
    kets.  Python keeps the sequence of ``random.Random(seed).random()``,
    which its other draws are computed from, the same across versions.  The
    seed is any non-negative integer, numpy's included."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return random.Random(seed)


# --- fiducial from measurement columns ------------------------------------------


def mu_pom_from_probabilities(mub: MubFamily, probs) -> np.ndarray:
    """The read-only (d+1, d, d) stack of one diagonal operator per basis:
    row b is τ_b = Σ_m p_m |m;b⟩⟨m;b|."""
    d = mub.d
    if mub.n_bases != d + 1:
        raise ValueError(f"need a complete family of {d + 1} bases")
    probs = [np.asarray(list(p), dtype=float) for p in probs]
    if len(probs) != d + 1:
        raise ValueError(f"need one probability vector per basis ({d + 1})")
    for b, p in enumerate(probs):
        if p.shape != (d,):
            raise ValueError(f"probability vector for basis {b} has wrong length")
    mats = np.einsum("bm,bmi,bmk->bik", np.array(probs), mub.bases, mub.bases.conj())
    return hermitian_stack(mats, d + 1, d)


@dataclass
class FiducialExtraction:
    """Result of assembling λ₀ = Σ_b τ₀^(b) − 1 from per-basis operators.

    ``fiducial`` is populated only when λ₀ is rank one (then Σ_b τ₀^(b) has
    eigenvalues {2, 1, …, 1} and λ₀'s top eigenvector is the fiducial ket).
    """

    lambda0: np.ndarray
    sum_spectrum: np.ndarray
    third_moment: float
    rank: int
    fiducial: Fiducial | None


def fiducial_from_mu_pom(taus: np.ndarray, mub: MubFamily) -> FiducialExtraction:
    """Assemble a candidate fiducial projector from the (d+1, d, d) stack of
    basis-diagonal operators (one per unbiased basis, in basis order).

    Each τ must be diagonal in its own basis within 1e−10; rank-one-ness of
    λ₀ is decided by linalg.RANK_TOL and certified by tr λ₀³ = 1.
    """
    d = mub.d
    if taus.shape != (d + 1, d, d):
        raise ValueError(f"need {d + 1} operators of dim {d}, got shape {taus.shape}")
    for b, tau in enumerate(taus):
        rep = mub.bases[b].conj() @ tau @ mub.bases[b].T
        off = float(np.abs(rep - np.diag(rep.diagonal())).max())
        if not off <= 1e-10:
            raise ValueError(
                f"operator {b} is not diagonal in basis {b}: off-diagonal {off:.3e}"
            )
    total = sum(taus[1:], taus[0])  # left to right
    lambda0 = read_only(total - np.eye(d))
    sum_spectrum, _ = hermitian_eigensystem(total)
    spectrum, vectors = hermitian_eigensystem(lambda0)
    rank = spectrum_rank(spectrum)
    fid = None
    if rank == 1 and abs(spectrum[0] - 1.0) <= 1e-6:
        fid = Fiducial(d=d, ket=canonical_ket(vectors[:, 0]), source="reconstructed")
    return FiducialExtraction(
        lambda0=lambda0,
        sum_spectrum=sum_spectrum,
        third_moment=third_moment(lambda0),
        rank=rank,
        fiducial=fid,
    )


# --- overlap table -----------------------------------------------------------------


def _orbit_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shift/clock orbit in closed form: the :func:`_shift_tables` and
    phases w[b, j] = ω^{bj}, formed as weyl.monomial forms its entries."""
    omega = build_weyl_pair(d).omega
    i = np.arange(d)
    return *_shift_tables(d), omega ** ((i[:, None] * i) % d)


def _orbit(tables, psi: np.ndarray) -> np.ndarray:
    """The (d², d) rows XᵃZᵇψ over (a, b) in row-major order, one gather and
    one product per entry: (XᵃZᵇψ)_i = w[b, i+a]·ψ_{i+a}."""
    ahead, _, w = tables
    return (w[:, ahead].swapaxes(0, 1) * psi[ahead][:, None]).reshape(-1, len(psi))


def _overlaps(tables, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_orbit` rows of ψ and its flat overlap table, entry 0 ⟨ψ|ψ⟩."""
    flat = (m_psi := _orbit(tables, psi)) @ psi.conj()
    flat[0] = psi.conj() @ psi
    return m_psi, flat


def overlap_table(psi) -> np.ndarray:
    """The (d, d) table A[a, b] = ⟨ψ|XᵃZᵇ|ψ⟩ of a ket ψ, with A[0, 0] = ⟨ψ|ψ⟩.

    ψ is an equal-overlap fiducial exactly when |A[a, b]|² = ‖ψ‖⁴/(d+1) for
    every (a, b) ≠ (0, 0); the phases of the same entries rebuild σ₀.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    return _overlaps(_orbit_tables(len(psi)), psi)[1].reshape(len(psi), len(psi))


# --- phase reconstruction --------------------------------------------------------


def phases_from_fiducial(fid: Fiducial) -> np.ndarray:
    """Class phases φ_{j,k} of a fiducial ket, shaped (d+1, (d−1)/2).

    Row j < d holds arg⟨ψ|(X†)ᵏZ^{−jk}|ψ⟩ = arg A[d−k, −jk] (the class-j
    generator coefficient); row d holds −arg⟨ψ|Zᵏ|ψ⟩ = −arg A[0, k], with A
    the :func:`overlap_table`.  Inverse of :func:`build_sigma0_from_phases`
    whenever ψ satisfies the equal-overlap conditions.
    """
    d = fid.d
    if d == 2:
        raise ValueError("phase reconstruction needs an odd prime d")
    table = overlap_table(fid.ket)
    k = np.arange(1, (d - 1) // 2 + 1)
    j = np.arange(d)[:, None]
    return np.vstack([np.angle(table[d - k, (-j * k) % d]), -np.angle(table[0, k])])


def build_sigma0_from_phases(d: int, phases) -> np.ndarray:
    """Rebuild the distinguished trace-one operator from (d²−1)/2 phases.

    Diagonal: σ_nn = (1/d)[1 + (2/√(d+1)) Σ_k cos(φ_{d,k} + 2πkn/d)].
    Off-diagonal: σ_{n,n⊕k} = (1/(d√(d+1))) Σ_j e^{iφ_{j,k}} ω^{njk}.
    When the phases come from an equal-overlap fiducial, σ is that fiducial's
    projector (unit purity, tr σ³ = 1).
    """
    d = require_prime(d)
    if d == 2:
        raise ValueError("phase reconstruction needs an odd prime d")
    half = (d - 1) // 2
    phases = np.asarray(phases, dtype=float)
    if phases.size != (d * d - 1) // 2:
        raise ValueError(
            f"need {(d * d - 1) // 2} phases for d = {d}, got {phases.size}"
        )
    phases = phases.reshape(d + 1, half)
    omega = np.exp(2j * np.pi / d)
    root = np.sqrt(d + 1.0)
    n = np.arange(d)[:, None]
    k = np.arange(1, half + 1)
    diag = 1.0 + (2.0 / root) * np.cos(phases[d] + 2 * np.pi * k * n / d).sum(axis=1)
    mat = np.diag(diag / d).astype(np.complex128)
    # z[n, k−1] = Σ_j e^{iφ_{j,k}} ω^{njk}, summed over the leading axis j.
    j = np.arange(d)[:, None, None]
    z = (np.exp(1j * phases[:d, None, :]) * omega ** ((n * j * k) % d)).sum(axis=0)
    cols = (n + k) % d
    mat[n, cols] = z / (d * root)
    mat[cols, n] = np.conj(mat[n, cols])
    return HermitianOp.from_matrix(mat)


# --- rank-one (equal-overlap) conditions ------------------------------------------


def rank_one_conditions(fid: Fiducial) -> tuple[float, float]:
    """Deviations of |⟨ψ|XᵃZᵇ|ψ⟩|² from 1/(d+1).

    Returns (full, reduced): ``full`` ranges over all d²−1 nontrivial
    monomials; ``reduced`` over the d(d−1)/2 monomials XᵏZ^{−mk} with
    k = 1..(d−1)/2, m = 0..d−1, which fill rows 1..(d−1)/2 of the
    :func:`overlap_table` (for d = 2 the reduced set is the full set).
    """
    d = fid.d
    dev = np.abs(np.abs(overlap_table(fid.ket)) ** 2 - 1.0 / (d + 1))
    dev[0, 0] = 0.0
    full = float(dev.max())
    if d == 2:
        return full, full
    return full, float(dev[1 : (d + 1) // 2].max())


# --- least squares: Levenberg-Marquardt -------------------------------------------

# Damping of every least-squares restart: λ starts at _DAMPING_START, grows ×4
# after a rejected step and shrinks ÷3 after an accepted one.  JᵀJ is singular
# along ψ's norm and global phase, and _DAMPING_FLOOR keeps λ·diag JᵀJ above
# its rounding (√m·eps ≈ 7e-15 at d = 31), so the damped matrix stays
# invertible.  Past _DAMPING_CAP a step is a millionth of the scaled gradient
# step; one that still cannot lower the cost ends the restart.
_DAMPING_START = 1e-3
_DAMPING_FLOOR = 1e-14
_DAMPING_CAP = 1e6

# A restart also ends when an accepted step lowers the cost by less than this
# share of it.
_STEP_TOL = 1e-15


@dataclass(frozen=True)
class LeastSquaresResult:
    """The last accepted point of :func:`least_squares` and its residuals."""

    x: np.ndarray
    fun: np.ndarray


def least_squares(fun, x0, *, jac, max_nfev) -> LeastSquaresResult:
    """Minimize ‖fun(x)‖² from x0 by Levenberg-Marquardt steps (Moré 1978).

    Each step solves (JᵀJ + λ·diag JᵀJ) s = −Jᵀr.  A step that lowers the
    cost is accepted; a rejected one, non-finite residuals included, raises
    λ.  The last accepted point is returned when an accepted step lowers the
    cost by less than ``_STEP_TOL`` of it, when λ passes ``_DAMPING_CAP``, or
    after ``max_nfev`` residual evaluations.  The search calls it as this
    module's attribute, so replacing the attribute watches every residual
    evaluation.
    """
    x = np.array(x0, dtype=float)
    f, jmat = fun(x), jac(x)
    nfev, cost, damping = 1, f @ f, _DAMPING_START
    while nfev < max_nfev and damping <= _DAMPING_CAP:
        jtj = jmat.T @ jmat
        lhs = jtj + damping * np.diag(jtj.diagonal())
        step = np.linalg.solve(lhs, -(jmat.T @ f))
        x_new = x + step
        f_new = fun(x_new)
        nfev += 1
        cost_new = f_new @ f_new
        if not cost_new < cost:
            damping *= 4.0
            continue
        done = cost - cost_new < _STEP_TOL * cost
        x, f, cost = x_new, f_new, cost_new
        if done:
            break
        damping = max(damping / 3.0, _DAMPING_FLOOR)
        jmat = jac(x)
    return LeastSquaresResult(x=x, fun=f)


# Steps per cyclic restart (5-19 at d ≤ 31) and evaluations per search polish.
_GN_STEPS = 50


# --- numerical search --------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the seeded fiducial search; defaults favor determinism."""

    seed: int = 0
    restarts: int = 24
    max_iters: int = 1000
    objective_tol: float = 1e-14

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not np.isfinite(self.objective_tol):
            raise ValueError("objective_tol must be finite")
        if self.objective_tol <= 0:
            raise ValueError("objective_tol must be positive")


@dataclass
class SearchResult:
    """Best ket found, its objective F = Σ(|⟨ψ|XᵃZᵇ|ψ⟩|² − 1/(d+1))², and
    whether the search converged: F reached the configured tolerance within
    the restart budget, and every overlap deviation is within DEFAULT_TOL."""

    fiducial: Fiducial
    objective: float
    converged: bool
    restarts_used: int


def search_fiducial(d: int, cfg: SearchConfig | None = None) -> SearchResult:
    """Seeded restarts of :func:`least_squares` on the overlap residuals.

    The residual vector is r_M(ψ) = |⟨ψ|Mψ⟩|²/‖ψ‖⁴ − 1/(d+1) over nontrivial
    monomials M, with the exact Jacobian in the 2d real coordinates of ψ.
    The restarts stop at the first ket with F = Σr² ≤ ``objective_tol``, which
    allows max |r_M| up to √F; the verifiers bound max |r_M| by DEFAULT_TOL,
    so one more :func:`least_squares` call polishes an accepted ket above it,
    and only a ket within it counts as converged.  Budget exhaustion is
    reported, not raised (``converged = False``).
    """
    d = require_prime(d)
    cfg = cfg or SearchConfig()
    tables = _orbit_tables(d)
    behind, w_bar = tables[1], tables[2].conj()
    c = 1.0 / (d + 1)

    def split(x):
        return x[:d] + 1j * x[d:]

    def residuals(x):
        table = _overlaps(tables, split(x))[1]
        return (np.abs(table[1:]) ** 2) / float(table[0].real) ** 2 - c

    def jac(x):
        psi = split(x)
        m_psi, table = _overlaps(tables, psi)
        nrm2 = float(table[0].real)
        # The rows M†ψ: ((XᵃZᵇ)†ψ)_i = w̄[b, i]·ψ_{i−a}.
        md_psi = (w_bar * psi[behind][:, None]).reshape(-1, d)
        a = table[1:]
        u = (a.conj()[:, None] * m_psi[1:] + a[:, None] * md_psi[1:]) / nrm2**2
        u -= (2.0 * np.abs(a) ** 2 / nrm2**3)[:, None] * psi[None, :]
        return np.concatenate([2.0 * u.real, 2.0 * u.imag], axis=1)

    rng = _rng(cfg.seed)
    best_f = np.inf
    for used in range(1, cfg.restarts + 1):
        x0 = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * d)])
        res = least_squares(residuals, x0, jac=jac, max_nfev=cfg.max_iters)
        f_val = float(np.sum(res.fun**2))
        if f_val < best_f:
            best_x, best_r, best_f = res.x, res.fun, f_val
        if best_f <= cfg.objective_tol:
            break
    accepted = best_f <= cfg.objective_tol
    x, r = best_x, best_r
    if accepted and np.abs(r).max() > DEFAULT_TOL:
        res = least_squares(residuals, x, jac=jac, max_nfev=_GN_STEPS)
        x, r = res.x, res.fun
    fid = Fiducial(d=d, ket=canonical_ket(split(x)), source="searched")
    return SearchResult(
        fiducial=fid,
        objective=best_f if x is best_x else float(np.sum(r**2)),
        converged=bool(accepted and np.abs(r).max() <= DEFAULT_TOL),
        restarts_used=used,
    )


def ingest_fiducial(path, d: int) -> Fiducial:
    """Read a fiducial JSON file (see :meth:`Fiducial.from_json_dict`) and
    require dimension d."""
    fid = Fiducial.from_json_dict(load_json(path))
    if fid.d != d:
        raise ValueError(f"fiducial file has d = {fid.d}, expected {d}")
    return fid


def write_fiducial_json(path, fid: Fiducial) -> None:
    write_json(path, fid.to_json_dict())

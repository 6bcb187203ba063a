"""Shared test utilities: random operator generators and published spectra.

The D5/D7/D11 tables below are six-significant-digit eigenvalue sets of the
measurement-column operators extracted from the known Weyl-Heisenberg
equal-overlap families in those dimensions; they serve as frozen oracles for
the spectra and grouping tests.  Each table entry is (group size, spectrum
sorted descending), and matching is performed up to relabeling of the column
groups (a searched fiducial may sit at a different orbit representative).
"""

import functools
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from mubsic.linalg import HermitianOp

# The primes d ≤ 31: every one for parametrized tests, a draw for property tests.
PRIME_DIMS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIMES = st.sampled_from(PRIME_DIMS)

SPECTRA_MATCH_TOL = 1e-4

# d = 5: two groups of three columns each.
D5 = [
    (3, (0.499925, 0.224729, 0.152916, 0.0930549, 0.0293753)),
    (3, (0.492705, 0.235772, 0.17314, 0.0584088, 0.0399745)),
]

# d = 7, first known orbit: four groups sized 1, 1, 3, 3.
D7A = [
    (1, (0.285421, 0.285421, 0.285421, 0.0540971, 0.0298802, 0.0298802, 0.0298802)),
    (1, (0.419906, 0.150834, 0.150834, 0.150834, 0.0425309, 0.0425309, 0.0425309)),
    (3, (0.382799, 0.217579, 0.210489, 0.0908925, 0.0419947, 0.0384167, 0.0178294)),
    (3, (0.425712, 0.177537, 0.116696, 0.0999678, 0.0820381, 0.0814391, 0.0166106)),
]

# d = 7, second known orbit: two singleton columns plus six shared ones.
D7B = [
    (1, (0.445903, 0.0923495, 0.0923495, 0.0923495, 0.0923495, 0.0923495, 0.0923495)),
    (1, (0.284051, 0.284051, 0.284051, 0.0800943, 0.0225843, 0.0225843, 0.0225843)),
    (6, (0.410065, 0.172444, 0.157392, 0.137334, 0.0864703, 0.0312058, 0.00508907)),
]

# d = 11: three known orbits, each with four groups of three columns.
D11A = [
    (3, (0.245622, 0.223871, 0.159951, 0.143466, 0.0625246, 0.0568209,
         0.0388101, 0.0263934, 0.020796, 0.0154612, 0.00628489)),
    (3, (0.226117, 0.218523, 0.208476, 0.104712, 0.0771509, 0.0512401,
         0.0488825, 0.047541, 0.0101348, 0.00469396, 0.00252885)),
    (3, (0.31832, 0.133805, 0.122566, 0.115196, 0.0861889, 0.0831148,
         0.0394999, 0.0371735, 0.0352708, 0.0245194, 0.00434541)),
    (3, (0.264926, 0.189422, 0.180079, 0.129948, 0.0699642, 0.0563035,
         0.0382599, 0.035081, 0.0164404, 0.0154254, 0.00414998)),
]

D11B = [
    (3, (0.298029, 0.180327, 0.14602, 0.0955719, 0.068839, 0.0635472,
         0.0597198, 0.0400864, 0.0232912, 0.018484, 0.00608391)),
    (3, (0.23682, 0.205874, 0.205481, 0.130529, 0.0623243, 0.0455243,
         0.0334152, 0.03105, 0.0227443, 0.0175862, 0.00865247)),
    (3, (0.303229, 0.171274, 0.135464, 0.0908191, 0.09051, 0.0627768,
         0.056021, 0.0504846, 0.0301582, 0.00716075, 0.00210206)),
    (3, (0.323651, 0.134447, 0.121097, 0.0925815, 0.0921314, 0.0826142,
         0.0463807, 0.0403358, 0.0264706, 0.0209978, 0.0192941)),
]

D11C = [
    (3, (0.277642, 0.195466, 0.162084, 0.102926, 0.0788428, 0.0634491,
         0.0557729, 0.0222804, 0.0212227, 0.0115049, 0.00880827)),
    (3, (0.263093, 0.209056, 0.172451, 0.104608, 0.0841159, 0.0460703,
         0.0451983, 0.0332779, 0.021782, 0.0141971, 0.00615008)),
    (3, (0.327066, 0.137771, 0.101669, 0.0988332, 0.0870574, 0.0749207,
         0.0658295, 0.0339417, 0.0295484, 0.0293712, 0.0139924)),
    (3, (0.331579, 0.127224, 0.103875, 0.0903938, 0.0860738, 0.0860713,
         0.0483907, 0.0474538, 0.030221, 0.0300363, 0.018681)),
]


def group_sizes(grouping) -> list[int]:
    """The sorted group sizes of a groups JSON object."""
    return sorted(len(g) for g in grouping["groups"])


def spectra_match(grouping, reference, tol: float = SPECTRA_MATCH_TOL) -> bool:
    """Whether a groups JSON object {"groups", "spectra"} reproduces a
    reference table up to group relabeling.

    ``reference`` is a list of (size, spectrum) pairs; every computed group
    must pair off with exactly one reference group of the same size whose
    spectrum agrees entrywise within ``tol``.
    """
    if group_sizes(grouping) != sorted(s for s, _ in reference):
        return False
    used = set()
    for group, spec in zip(grouping["groups"], grouping["spectra"]):
        hit = None
        for i, (size, ref) in enumerate(reference):
            if i in used or len(group) != size or len(spec) != len(ref):
                continue
            if max(abs(a - b) for a, b in zip(spec, ref)) <= tol:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return len(used) == len(reference)


def random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOp.from_matrix((m + m.conj().T) / 2)


def random_density(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return HermitianOp.from_matrix(rho / np.trace(rho).real)


def random_ket(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``, in bytes: what it allocates at
    once beyond what was already held."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- reference arithmetic ------------------------------------------------------
#
# Operators were once HermitianOp objects with +, − and real scaling, and
# families were dicts of them.  These compute exactly what those operators did, on the matrices
# (a family stack's rows), so that the per-operator loops written with them
# stay the bit-for-bit oracles of the array expressions that replaced them.


def op_add(a: np.ndarray, b: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """a + sign·b, as HermitianOp's ``+`` (sign 1) and ``−`` (sign −1) did."""
    return a + sign * b


def op_scale(c: float, a: np.ndarray) -> np.ndarray:
    """c·a, as HermitianOp's ``*`` did."""
    return float(c) * a


def companion(op: np.ndarray, d: int) -> np.ndarray:
    """(1 + op)/d, one operator at a time, as trace_one once built it."""
    return op_scale(1.0 / d, op_add(np.eye(d, dtype=np.complex128), op))


def label_table(labels, diag: float, same: float, other: float) -> np.ndarray:
    """The whole square table of one identity of the paper, as the Gram
    checks once built it: ``same`` where two members share a label,
    ``other`` where they do not, ``diag`` on the diagonal.  The dense oracle
    of ``linalg.gram_deviation``'s label rule."""
    labels = np.asarray(labels)
    table = np.where(labels[:, None] == labels, same, other)
    np.fill_diagonal(table, diag)
    return table


# --- exact Hilbert-Schmidt products ---------------------------------------------


def exact_hs(a: np.ndarray, b: np.ndarray) -> Fraction:
    """tr(ab) of two stored complex matrices, exactly: the real part of
    Σ_ij a_ij·b_ji, summed as integers over the binary values of the real
    view (x = n·2⁻ᵏ for every float x).  Shares no code with a float kernel
    and assumes no hermiticity."""
    x = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    y = np.ascontiguousarray(b.T, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    terms = []
    for (ar, ai), (br, bi) in zip(x.tolist(), y.tolist()):
        for u, v, sign in ((ar, br, 1), (ai, bi, -1)):
            (n, p), (m, q) = u.as_integer_ratio(), v.as_integer_ratio()
            terms.append((sign * n * m, p.bit_length() + q.bit_length() - 2))
    k = max(e for _, e in terms)
    return Fraction(sum(n << (k - e) for n, e in terms), 1 << k)


# --- the rank-one tests' rounding --------------------------------------------------

U = Fraction(1, 2**53)


def gamma(n: int) -> Fraction:
    """γ_n = n·u/(1 − n·u), Higham's bound on n roundings."""
    return n * U / (1 - n * U)


@functools.lru_cache(maxsize=None)
def phase_error(d: int) -> Fraction:
    """An upper bound on max |w[b, j] − ω^{bj}| over the phase table that
    ``siclab.overlap_table`` gathers from (``weyl.shift_clock_tables``),
    against 40-digit mpmath."""
    import mpmath

    from mubsic import weyl

    w = weyl.shift_clock_tables(d)[2]
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpc(z.real, z.imag) - mpmath.expjpi(mpmath.mpf(2 * (b * j % d)) / d))
                  for (b, j), z in np.ndenumerate(w))
    return Fraction(float(err)) * (1 + Fraction(1, 2**40))


# The largest ‖ψ‖² that rank_one_slack takes: a float64-normalized ket's.
NORM_HI = 1 + Fraction(1, 2**40)


def rank_one_slack(ket: np.ndarray, eps_w: Fraction) -> Fraction:
    """ε with full ≤ d·reduced + ε for ``siclab.rank_one_conditions`` of the
    float ket ψ, given the phase table's error ``eps_w`` (:func:`phase_error`).

    Exact (a, b) ≠ (0, 0) entries: A[a, b] = ⟨ψ|XᵃZᵇ|ψ⟩ and D = |A|² − 1/(d+1),
    with N = ‖ψ‖² and R(a) = Σᵢ pᵢpᵢ₊ₐ for pᵢ = |ψᵢ|².
    - Row a ≠ 0 of |A|² averages to R(a) (Parseval over b), so
      |R(a) − 1/(d+1)| ≤ maxᵦ |D[a, b]|.
    - Row 0 is R's transform, and Σₐ R(a) = N², so for b ≠ 0
      D[0, b] = −Σ_{a≠0} (R(a) − 1/(d+1))(1 − cos 2πab/d) + N² − 1.  Since
      Σ_{a≠0} (1 − cos 2πab/d) = d, |D[0, b]| ≤ d·max_{a≠0} |D| + |N² − 1|.
    - |A[−a, b]| = |A[a, −b]|, so max_{a≠0} |D| is the reduced maximum.
    So full ≤ d·reduced exactly for a unit ψ.  In float64 every computed
    entry is within δ of D, which gives full ≤ d·reduced + (d+1)·δ + |N² − 1|.

    δ: each entry is Σᵢ xᵢ·conj(ψᵢ) with xᵢ = fl(w·ψᵢ₊ₐ), the phase w off
    ω^{bj} by at most eps_w.  A complex product errs by at most √2·γ₂ of
    |w||ψᵢ₊ₐ| (Higham, Lemma 3.5).  The real and the imaginary part of the
    sum are each a sum of 2d rounded real products, so in any order each
    errs by at most γ_{2d} of its terms' moduli, and the two together by at
    most 2γ_{2d}·Σᵢ |xᵢ||ψᵢ|.  With Σᵢ |ψᵢ₊ₐ||ψᵢ| ≤ N, |Â − A| ≤ E =
    (eps_w + √2γ₂ + 2γ_{2d})(1 + eps_w)(1 + √2γ₂)·N, and |A| ≤ N.  Then |Â|
    rounds once in hypot (at most 1 ulp, 2u) and its square once (u):
    τ = (1+2u)²(1+u) − 1.  1/(d+1) rounds once (u/(d+1)) and the difference
    once (u times at most (N+E)²(1+τ) + 1).  √2 is taken as 3/2, from above.
    δ grows with N, so it is taken at N = NORM_HI, once per d.
    """
    ratios = [x.as_integer_ratio() for x in np.asarray(ket, dtype=np.complex128).view(np.float64).tolist()]
    q = max(den for _, den in ratios)
    n = Fraction(sum((num * (q // den)) ** 2 for num, den in ratios), q * q)
    assert n <= NORM_HI
    return _rounding(len(ket), eps_w) + abs(n * n - 1)


@functools.lru_cache(maxsize=None)
def _rounding(d: int, eps_w: Fraction) -> Fraction:
    """(d+1)·δ of :func:`rank_one_slack`, at N = NORM_HI."""
    n, r2 = NORM_HI, Fraction(3, 2)
    e = (eps_w + r2 * gamma(2) + 2 * gamma(2 * d)) * (1 + eps_w) * (1 + r2 * gamma(2)) * n
    tau = (1 + 2 * U) ** 2 * (1 + U) - 1
    delta = (2 * n + e) * e + (n + e) ** 2 * tau + U / (d + 1) + U * ((n + e) ** 2 * (1 + tau) + 1)
    return (d + 1) * delta

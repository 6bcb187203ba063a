"""Shared test utilities: random operator generators and published spectra.

The D5/D7/D11 tables below are six-significant-digit eigenvalue sets of the
measurement-column operators extracted from the known Weyl-Heisenberg
equal-overlap families in those dimensions; they serve as frozen oracles for
the spectra and grouping tests.  Each table entry is (group size, spectrum
sorted descending), and matching is performed up to relabeling of the column
groups (a searched fiducial may sit at a different orbit representative).
"""

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

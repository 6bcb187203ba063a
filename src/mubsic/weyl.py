"""Shift/clock operator pair on C^d (d prime), the monomial operator basis,
complete families of mutually unbiased bases, and the rotation-covariant
Hermitian basis built from the commuting monomial classes.

Conventions, fixed once here and relied on everywhere downstream:

* Z|n⟩ = ω^n|n⟩ with ω = exp(2πi/d).
* X lowers the computational index: X|n⟩ = |n−1 mod d⟩, equivalently
  X[i, j] = 1 iff j = i+1 mod d.  This is the direction that satisfies
  ω·Z·X = X·Z, which every rotation/covariance identity below uses.
* Basis label b = d is the computational (Z eigen-) basis; labels 0..d−1 are
  the unbiased partners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import complex_from_json, complex_to_json, read_header, read_only


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_prime(d: int) -> int:
    d = int(d)
    if not is_prime(d):
        raise ValueError(f"d must be prime, got {d}")
    return d


def require_odd_prime(d: int) -> int:
    d = require_prime(d)
    if d == 2:
        raise ValueError("d = 2 is excluded here; need an odd prime")
    return d


@dataclass(frozen=True)
class WeylPair:
    """The clock Z and down-shift X on C^d, with ω·Z·X = X·Z."""

    d: int
    X: np.ndarray
    Z: np.ndarray
    omega: complex


def shift_clock_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shift/clock group in closed form, the one place ω = exp(2πi/d) is
    formed: ahead[m, i] = i+m and behind[m, i] = i−m (mod d), whose gathers
    p[ahead[m]] and p[behind[m]] are np.roll(p, −m) and np.roll(p, m), and
    w[b, j] = ω^{bj}, each ω raised to an exponent reduced mod d."""
    i = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    return (i + i[:, None]) % d, (i - i[:, None]) % d, omega ** ((i[:, None] * i) % d)


def build_weyl_pair(d: int) -> WeylPair:
    d = require_prime(d)
    ahead, _, w = shift_clock_tables(d)
    X = np.zeros((d, d), dtype=np.complex128)
    X[np.arange(d), ahead[1]] = 1.0
    return WeylPair(d=d, X=read_only(X), Z=read_only(np.diag(w[1])), omega=complex(w[1, 1]))


def monomial(wp: WeylPair, a: int, b: int) -> np.ndarray:
    """The operator X^a Z^b, one element of the d² monomial basis: the
    gather (X^a Z^b)[i, j] = w[b, j] δ_{j, i+a mod d} of the
    :func:`shift_clock_tables`."""
    d = wp.d
    a, b = int(a), int(b)
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"monomial exponents must lie in 0..{d - 1}, got ({a}, {b})")
    ahead, _, w = shift_clock_tables(d)
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[np.arange(d), ahead[a]] = w[b, ahead[a]]
    return read_only(mat)


# --- mutually unbiased bases ------------------------------------------------


@dataclass(frozen=True)
class MubFamily:
    """A family of orthonormal bases of C^d; ``bases[b, m]`` is ket m of
    basis b.  A complete family has d+1 bases with b = d computational."""

    d: int
    bases: np.ndarray

    @property
    def n_bases(self) -> int:
        return self.bases.shape[0]

    def to_json_dict(self) -> dict:
        return {"d": self.d, "bases": complex_to_json(self.bases)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MubFamily":
        d, raw, n_bases = read_header(obj, "basis-family", "d", "bases",
                                      then=lambda d, raw: (d, raw, len(raw)))
        bases = complex_from_json(raw, (n_bases, d, d), "bases")
        return cls(d=d, bases=read_only(bases))


def build_mub(d: int) -> MubFamily:
    """The complete set of d+1 mutually unbiased bases in prime dimension d.

    For odd primes, basis b has kets |m;b⟩ with components
    ω^{b·n(n−1)/2 + m·n}/√d, read from the :func:`shift_clock_tables` at the
    exponent reduced mod d, so every phase is an exact root of unity.  For
    d = 2 the three unbiased bases are the σx, σy, σz eigenbases.
    """
    d = require_prime(d)
    bases = np.zeros((d + 1, d, d), dtype=np.complex128)
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        bases[0] = [[s, s], [s, -s]]
        bases[1] = [[s, 1j * s], [s, -1j * s]]
    else:
        b, m, n = np.ogrid[:d, :d, :d]
        tri = (n * (n - 1) // 2) % d
        bases[:d] = shift_clock_tables(d)[2][1, (b * tri + m * n) % d] / np.sqrt(d)
    bases[d] = np.eye(d)
    return MubFamily(d=d, bases=read_only(bases))


def verify_mub(mub: MubFamily) -> float:
    """Max deviation of |⟨m;b|m';b'⟩|² from its target.

    Targets: 1 on the diagonal, 0 within a basis, 1/d across bases.  A family
    with a single basis only sees the orthonormality targets.  The overlaps
    of one basis b with every basis are formed at a time, with the target
    row of b's label, so no table of all (n·d)² overlaps is built.
    """
    d, bases = mub.d, mub.bases
    labels = np.arange(mub.n_bases)[:, None]
    return float(np.max([
        np.abs(np.abs(np.einsum("bmk,cnk->bmcn", bases[b : b + 1].conj(), bases)) ** 2
               - np.where(labels == b, np.eye(d)[:, None, :], 1.0 / d)).max()
        for b in range(mub.n_bases)
    ]))


# --- commuting monomial classes and the h/g Hermitian basis -----------------


def commuting_classes(wp: WeylPair) -> list[list[tuple[int, int]]]:
    """Generator exponents of the d+1 maximal commuting monomial classes.

    Entry j < d lists (k, kj mod d) for k = 1..(d−1)/2 (the X^k Z^{kj} class);
    the last entry is the pure-clock class (0, k).  Together with adjoints and
    the identity these exhaust all d² monomials.  Odd primes only: for d = 2
    no half-range of k exists.
    """
    d = require_odd_prime(wp.d)
    half = (d - 1) // 2
    classes = [[(k, (k * j) % d) for k in range(1, half + 1)] for j in range(d)]
    classes.append([(0, k) for k in range(1, half + 1)])
    return classes


@dataclass(frozen=True)
class HGBasis:
    """Hermitian basis pairs h_{j,k}, g_{j,k} built from monomial class
    generators M: h = ζM + ζ*M†, g = −i(ζM − ζ*M†) with ζ = e^{iφ_{j,k}}/√(2d),
    whose modulus makes every h and g unit-normalized in Hilbert-Schmidt norm
    (tr h² = 2d|ζ|² = 1).

    Row index j runs over classes 0..d (clock class last); column index k−1
    over generators k = 1..(d−1)/2.  Stored as read-only stacked
    (d+1, (d−1)/2, d, d) arrays.
    """

    d: int
    phases: np.ndarray
    h: np.ndarray
    g: np.ndarray


def build_hg_basis(wp: WeylPair, phases: np.ndarray | None = None) -> HGBasis:
    """Construct the h/g basis for all d+1 classes.

    ``phases`` is (d+1, (d−1)/2) with row j, column k−1 (defaults to all
    zero).
    """
    d = require_odd_prime(wp.d)
    half = (d - 1) // 2
    modulus = float(np.sqrt(1.0 / (2 * d)))
    if phases is None:
        phases = np.zeros((d + 1, half))
    else:
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (d + 1, half):
            raise ValueError(
                f"phases must have shape ({d + 1}, {half}), got {phases.shape}"
            )
    ahead, _, w = shift_clock_tables(d)
    gen, rows = np.arange(half)[:, None], np.arange(d)
    h = np.empty((d + 1, half, d, d), dtype=np.complex128)
    g = np.empty_like(h)
    # One class at a time and in place, so no temporary outgrows a class.
    for j, gens in enumerate(commuting_classes(wp)):
        a, b = np.array(gens).T
        zeta = (modulus * np.exp(1j * phases[j]))[:, None, None]
        m = np.zeros((half, d, d), dtype=np.complex128)
        m[gen, rows, ahead[a]] = w[b[:, None], ahead[a]]
        np.multiply(zeta, m, out=h[j])
        m = np.conj(zeta) * np.conj(m, out=m).swapaxes(1, 2)
        np.subtract(h[j], m, out=g[j])
        g[j] *= -1j
        h[j] += m
    return HGBasis(d=d, phases=read_only(phases.copy()), h=read_only(h), g=read_only(g))


def verify_rotation_action(basis: HGBasis) -> float:
    """Max spectral-norm residual of the conjugation rotation identities.

    Class j ≠ d rotates under Z by angle 2πk/d and under X† by 2πkj/d; the
    clock class (j = d) is fixed by Z and rotates under X† by 2πk/d:

        Z h Z†  = cos·h + sin·g,   Z g Z†  = −sin·h + cos·g,
        X† h X  = cos·h + sin·g,   X† g X  = −sin·h + cos·g.
    """
    d = basis.d
    wp = build_weyl_pair(d)
    k = np.arange(1, (d - 1) // 2 + 1)
    j = np.arange(d + 1)[:, None]
    z_angle = np.where(j == d, 0.0, 2 * np.pi * k / d)
    x_angle = np.where(j == d, 2 * np.pi * k / d, 2 * np.pi * k * j / d)

    def spin(u, angle):
        c, s = np.cos(angle)[..., None, None], np.sin(angle)[..., None, None]
        rh = u @ basis.h @ u.conj().T - (c * basis.h + s * basis.g)
        rg = u @ basis.g @ u.conj().T - (-s * basis.h + c * basis.g)
        return np.linalg.norm(np.stack([rh, rg]), 2, axis=(-2, -1)).max()

    return float(max(spin(wp.Z, z_angle), spin(wp.X.conj().T, x_angle)))

"""Exact oracle for the fiducial search and the column spectra.

Each searched float64 fiducial is refined to 50 digits with mpmath by
Gauss–Newton steps on its d² − 1 overlap residuals |⟨ψ|XᵃZᵇ|ψ⟩|² − 1/(d+1),
with the phase of its largest component held fixed.  The overlaps, their
derivatives, the covariant projectors and the column operators τ_0^(j) are
written out here in mpmath, from the closed forms of the shift and clock
operators; only the incidence of the dual affine plane (exact integers) is
taken from the package.
"""

import numpy as np
import pytest

from mubsic.plane import build_dapg, line_keys, point_keys
from mubsic.siclab import rank_one_conditions

mpmath = pytest.importorskip("mpmath")

DPS = 50
REFINED = mpmath.mpf("1e-40")  # max |r| at which the refinement stops
MAX_STEPS = 8


def _roots(d):
    """ω^k = exp(2πik/d), k = 0..d−1."""
    return [mpmath.expjpi(mpmath.mpf(2 * k) / d) for k in range(d)]


def _deviations(psi, w):
    """|A[a][b]|² − 1/(d+1) over the nontrivial (a, b), row by row, and the
    table A[a][b] = ⟨ψ|XᵃZᵇ|ψ⟩ = Σ_j conj(ψ_{j−a}) ψ_j ω^{bj} itself."""
    d = len(psi)
    table = [
        [mpmath.fsum(mpmath.conj(psi[(j - a) % d]) * psi[j] * w[(b * j) % d] for j in range(d))
         for b in range(d)]
        for a in range(d)
    ]
    return {(a, b): abs(table[a][b]) ** 2 - mpmath.mpf(1) / (d + 1)
            for a in range(d) for b in range(d) if (a, b) != (0, 0)}, table


def _refine(ket):
    """The 50-digit fiducial next to the mpmath ket ``ket``."""
    d = len(ket)
    w = _roots(d)
    psi = list(ket)
    anchor = max(range(d), key=lambda k: abs(psi[k]))
    free_im = [k for k in range(d) if k != anchor]  # Im ψ_anchor stays fixed
    for _ in range(MAX_STEPS + 1):
        res, table = _deviations(psi, w)
        if max(abs(r) for r in res.values()) <= REFINED:
            return psi
        rows = []
        for a, b in res:
            # ∂A/∂Re ψ_k = p + q and ∂A/∂Im ψ_k = i(p − q), with p from the
            # ψ_k factor and q from the conj(ψ_k) factor of A[a][b];
            # ∂|A|²/∂x = 2 Re(conj(A) ∂A/∂x).
            p = [mpmath.conj(psi[(k - a) % d]) * w[(b * k) % d] for k in range(d)]
            q = [psi[(k + a) % d] * w[(b * (k + a)) % d] for k in range(d)]
            conj_a = 2 * mpmath.conj(table[a][b])
            rows.append([mpmath.re(conj_a * (p[k] + q[k])) for k in range(d)]
                        + [mpmath.re(conj_a * 1j * (p[k] - q[k])) for k in free_im])
        delta, _ = mpmath.qr_solve(mpmath.matrix(rows), mpmath.matrix(list(res.values())))
        for k in range(d):
            psi[k] -= delta[k]
        for i, k in enumerate(free_im):
            psi[k] -= 1j * delta[d + i]
    raise AssertionError(f"no 50-digit fiducial within {MAX_STEPS} steps at d={d}")


def _column_spectra(psi):
    """Descending spectra of τ_0^(j) = (1/d) Σ_{μ∋(0,j)} λ_μ, j = 0..d, with
    λ_{a,b} = |φ⟩⟨φ| and φ_i = ω^{ai} ψ_{i−b} (U = X^†ᵇZᵃ up to a phase)."""
    d = len(psi)
    w = _roots(d)
    geom = build_dapg(d)
    keys = point_keys(d)
    out = []
    for j in range(d + 1):
        tau = mpmath.zeros(d, d)
        row = geom.incidence[keys.index((0, j))]
        for (a, b), on in zip(line_keys(d), row):
            if on:
                phi = [w[(a * i) % d] * psi[(i - b) % d] for i in range(d)]
                for r in range(d):
                    for c in range(d):
                        tau[r, c] += phi[r] * mpmath.conj(phi[c]) / d
        out.append(sorted(mpmath.eighe(tau, eigvals_only=True), reverse=True))
    return out


@pytest.mark.parametrize("d", [5, 7, 11])
def test_searched_fiducial_against_50_digits(d, searched, searched_mu_pom):
    fid = searched(d).fiducial
    with mpmath.workdps(DPS):
        # (b) The float64 verifier reads the exact deviations of the same ket.
        rounded = [mpmath.mpc(float(z.real), float(z.imag)) for z in fid.ket]
        exact, _ = _deviations(rounded, _roots(d))
        full = max(abs(r) for r in exact.values())
        reduced = max(abs(r) for (a, _b), r in exact.items() if 1 <= a <= (d - 1) // 2)
        got_full, got_reduced = rank_one_conditions(fid)
        assert abs(got_full - full) <= 1e-15
        assert abs(got_reduced - reduced) <= 1e-15

        # (a) A 50-digit fiducial lies within 1e-10 of the float64 one, up to
        # a global phase.
        psi = _refine(rounded)
        overlap = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(rounded, psi))
        phase = overlap / abs(overlap)
        assert max(abs(y - phase * x) for x, y in zip(rounded, psi)) <= 1e-10

        # (c) Every column of the float64 spectra table matches the 50-digit
        # spectrum of that column's τ_0^(j).
        _fam, _taus, table, _spread = searched_mu_pom(d)
        for j, spectrum in enumerate(_column_spectra(psi)):
            want = np.array([float(x) for x in spectrum])
            assert np.abs(table[j] - want).max() <= 1e-10

"""What a writer writes, its reader reads.

Each command that writes a file runs, in process, on d = 3 inputs drawn
across binades up to near overflow and kept admissible: every operator is
exactly Hermitian, with parts up to 1.7e308.  Each run either ends with one
``error:`` line, nothing on stdout and no file, or writes a file that its
reader accepts.  Floating-point warnings are recorded and must not occur: a
process would print each as more lines on stderr.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mubsic import cli, frames, linalg, siclab, weyl

D = 3
POINTS = frames.point_frame_from_mub(weyl.build_mub(D)).ops
FAMILY = siclab.generate_hw_sic(siclab.qutrit_fiducial())
SPECTRA = siclab.spectra_table(siclab.extract_mu_pom(FAMILY))
RHO = np.diag([0.5, 0.3, 0.2]).astype(complex)
FINITE = st.floats(-1.7e308, 1.7e308)
MODULUS = st.floats(2.0**-1074, 1.7e308)


def hermitian(parts: np.ndarray) -> np.ndarray:
    """The exactly Hermitian (..., d, d) stack whose upper triangle and real
    diagonal are those of ``parts``."""
    upper = np.triu(parts)
    out = upper + np.triu(parts, 1).conj().swapaxes(-1, -2)
    idx = np.arange(parts.shape[-1])
    out[..., idx, idx] = out[..., idx, idx].real
    return out


@st.composite
def redrawn(draw, base: np.ndarray) -> np.ndarray:
    """``base`` as it is, scaled to a drawn largest part, with every diagonal
    entry set to one drawn value, or drawn part by part."""
    how = draw(st.sampled_from(["as-is", "scaled", "diagonal", "parts"]))
    if how == "as-is":
        return base
    if how == "scaled":
        return base / np.abs(base.view(np.float64)).max() * draw(MODULUS)
    if how == "diagonal":
        out = base.copy()
        idx = np.arange(base.shape[-1])
        out[..., idx, idx] = draw(FINITE)
        return out
    parts = draw(st.lists(FINITE, min_size=2 * base.size, max_size=2 * base.size))
    return hermitian(np.array(parts).view(np.complex128).reshape(base.shape))


@st.composite
def tables(draw) -> np.ndarray:
    """SPECTRA as it is, scaled to a drawn largest value, or drawn value by
    value."""
    how = draw(st.sampled_from(["as-is", "scaled", "values"]))
    if how == "as-is":
        return SPECTRA
    if how == "scaled":
        return SPECTRA / np.abs(SPECTRA).max() * draw(MODULUS)
    return np.array(draw(st.lists(FINITE, min_size=SPECTRA.size, max_size=SPECTRA.size))).reshape(SPECTRA.shape)


@st.composite
def densities(draw) -> np.ndarray:
    """ρ with the unit-trace diagonal of RHO and drawn off-diagonal entries."""
    parts = draw(st.lists(FINITE, min_size=2 * D * D, max_size=2 * D * D))
    rho = hermitian(np.array(parts).view(np.complex128).reshape(D, D))
    rho[np.diag_indices(D)] = RHO.diagonal()
    return rho


@st.composite
def kets(draw) -> np.ndarray:
    """A ket of parts drawn in [−1, 1], normalized when its norm is not 0."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * D, max_size=2 * D))
    ket = np.array(parts).view(np.complex128)
    norm = np.linalg.norm(ket)
    return ket / norm if norm > 0 else ket


def _spectra_csv(table: np.ndarray) -> str:
    """``table`` as the spectra CSV, each row's values sorted descending."""
    return siclab.spectra_to_csv(-np.sort(-table, axis=-1))


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _ops(stack: np.ndarray) -> list:
    return [linalg.matrix_to_json_dict(op) for op in stack]


def _run(argv: list) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.run(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    return rc, stdout.getvalue(), stderr.getvalue()


def _writes(argv: list, out: str) -> bool:
    """Run ``argv``, which writes ``out``; True if it wrote it, else check
    that it ended with one error line and nothing on stdout."""
    if os.path.exists(out):
        os.remove(out)
    rc, stdout, stderr = _run(argv)
    if os.path.exists(out):
        return True
    assert rc != 0 and stdout == "", (argv, rc, stdout)
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), (argv, stderr)
    return False


def _reads(argv: list) -> None:
    rc, _, stderr = _run(argv)
    assert rc in (0, 1), (argv, rc, stderr)


def _finite_json(path: str) -> None:
    with open(path) as fh:
        linalg.require_finite(linalg.parse_json(fh.read()))


def huge_diagonal(value: float) -> np.ndarray:
    """POINTS with every diagonal entry ``value``."""
    out = POINTS.copy()
    out[:, np.arange(D), np.arange(D)] = value
    return out


@settings(max_examples=25, deadline=None)
@given(points=redrawn(POINTS), beta=st.just(6.0) | FINITE, rho=densities(), ket=kets(),
       family=redrawn(FAMILY.projectors), spectra=tables())
# From 3e307 diagonal entries the bridge used to write 1.2e308 ones, which its
# reader refused; from 8e307 ones it refuses to write 2.4e308.
@example(points=huge_diagonal(3e307), beta=6.0, rho=RHO, ket=FAMILY.fiducial.ket,
         family=FAMILY.projectors, spectra=SPECTRA)
@example(points=huge_diagonal(8e307), beta=6.0, rho=RHO, ket=FAMILY.fiducial.ket,
         family=FAMILY.projectors, spectra=SPECTRA)
def test_every_writer_writes_what_its_reader_reads(points, beta, rho, ket, family, spectra):
    with tempfile.TemporaryDirectory() as tmp:
        p = {name: os.path.join(tmp, name) for name in
             ("points", "rho", "fid", "fam", "csv", "lines", "quasi", "gen", "spectra", "groups", "regroup")}
        _write(p["points"], {"d": D, "beta": beta, "ops": _ops(points)})
        _write(p["rho"], linalg.matrix_to_json_dict(rho))
        _write(p["fid"], {"d": D, "ket": linalg.complex_to_json(ket)})
        _write(p["fam"], {"d": D, "fiducial": linalg.complex_to_json(FAMILY.fiducial.ket), "ops": _ops(family)})
        with open(p["csv"], "w") as fh:
            fh.write(_spectra_csv(spectra))

        if _writes(["frame", "bridge", "--points", p["points"], "--out", p["lines"]], p["lines"]):
            _reads(["frame", "verify", "--points", p["points"], "--lines", p["lines"]])
        if _writes(["quasiprob", "--rho", p["rho"], "--points", p["points"], "--out", p["quasi"]], p["quasi"]):
            _finite_json(p["quasi"])
        if _writes(["sic", "generate", "--fiducial", p["fid"], "--out", p["gen"]], p["gen"]):
            _reads(["sic", "verify", "--in", p["gen"]])
        if _writes(["sic", "spectra", "--in", p["fam"], "--out", p["spectra"]], p["spectra"]):
            _reads(["sic", "group", "--in", p["spectra"], "--out", p["regroup"]])
        if _writes(["sic", "group", "--in", p["csv"], "--out", p["groups"]], p["groups"]):
            _finite_json(p["groups"])

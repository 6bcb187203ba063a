"""Dense complex-matrix plumbing: Hermitian operators, the Hilbert-Schmidt
inner product, and eigenanalysis.

Everything here is a pure function of immutable inputs.  An operator is a
read-only complex ``(d, d)`` ndarray admitted once by
:meth:`HermitianOp.from_matrix`, and a family of them is one read-only
``(n, d, d)`` stack (:func:`hermitian_stack`), so values can be shared
freely across threads.
"""

from __future__ import annotations

import json

import numpy as np

# Entrywise asymmetry above this is rejected instead of silently symmetrized.
HERMITICITY_ATOL = 1e-12

# Reconstruction residual allowed for an eigendecomposition before we call it
# a solver failure.
EIG_RESIDUAL_ATOL = 1e-10

# Eigenvalues at or below this modulus do not count towards a rank.
RANK_TOL = 1e-8

# Default tolerance of every verifier, and the max overlap deviation a
# converged fiducial search must reach.
DEFAULT_TOL = 1e-10


class HermitianOp:
    """The admission check of every operator, :meth:`from_matrix`.

    It stays a class, not a function, only because the benchmark tracer
    patches ``HermitianOp.from_matrix`` by name; renaming it to
    ``linalg.hermitian`` waits on the tracer's rebase (ROADMAP item 2).
    """

    @classmethod
    def from_matrix(cls, entries) -> np.ndarray:
        """``entries`` admitted as Hermitian: the read-only complex matrix
        (m + m†)/2.

        Raises ValueError unless ``entries`` is a finite square matrix whose
        m − m† has no entry above HERMITICITY_ATOL in modulus.
        """
        mat = np.array(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
            raise ValueError("matrix entries must be finite")
        asym = float(np.abs(mat - mat.conj().T).max())
        if asym > HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian: max |m - m†| = {asym:.3e}")
        return read_only((mat + mat.conj().T) / 2.0)


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, set read-only."""
    arr.flags.writeable = False
    return arr


def hermitian_stack(mats, n: int, d: int) -> np.ndarray:
    """The read-only ``(n, d, d)`` stack of the n matrices ``mats``, each
    admitted by :meth:`HermitianOp.from_matrix` and copied into its row."""
    stack = np.empty((n, d, d), dtype=np.complex128)
    for row, mat in zip(stack, mats):
        row[...] = HermitianOp.from_matrix(mat)
    return read_only(stack)


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product tr(ab) of two Hermitian matrices.

    Computed as tr(b†a) = Σ conj(b_ij)·a_ij, one O(d²) sum instead of a
    d × d matmul; it equals tr(ab) because every admitted operator is
    exactly Hermitian.  The numerical imaginary residue is discarded.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(b, a).real)


def hermitian_eigensystem(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (a read-only array, descending) and matching orthonormal
    eigenvector columns of a Hermitian matrix, or of each matrix of a
    ``(..., d, d)`` stack in one call.

    Raises ValueError if a reconstruction residual ‖h − VΛV†‖_max exceeds
    EIG_RESIDUAL_ATOL, which signals an eigensolver failure.
    """
    w, v = np.linalg.eigh(mats)
    w = w[..., ::-1]
    v = v[..., ::-1]
    recon = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    residual = float(np.abs(mats - recon).max())
    if residual > EIG_RESIDUAL_ATOL:
        raise ValueError(f"eigendecomposition failed: residual {residual:.3e}")
    return read_only(w), v


def spectrum_rank(values) -> int:
    """Number of eigenvalues with |λ| > RANK_TOL."""
    return int(np.count_nonzero(np.abs(values) > RANK_TOL))


def matrix_rank(h: np.ndarray) -> int:
    """Number of eigenvalues of the Hermitian matrix ``h`` with |λ| > RANK_TOL."""
    return spectrum_rank(hermitian_eigensystem(h)[0])


def third_moment(h: np.ndarray) -> float:
    """tr(h³); equals 1 exactly when h is a rank-one projector."""
    return float(np.trace(h @ h @ h).real)


def label_table(labels, diag: float, same: float, other: float) -> np.ndarray:
    """The square table of one identity of the paper: ``same`` where two
    members share a label, ``other`` where they do not, ``diag`` on the
    diagonal."""
    labels = np.asarray(labels)
    table = np.where(labels[:, None] == labels, same, other)
    np.fill_diagonal(table, diag)
    return table


def gram_deviation(stack: np.ndarray, target) -> float:
    """Max |tr(a b) − target[a, b]| over every ordered pair of rows of the
    ``(n, d, d)`` stack: the Hilbert-Schmidt Gram-table check behind every
    frame and family verifier."""
    gram = np.einsum("aij,bji->ab", stack, stack).real
    return float(np.abs(gram - target).max())


# --- JSON formats ----------------------------------------------------------
#
# Every complex number in every artifact file is a [re, im] pair of JSON
# numbers, nested like the array it came from.  A single operator is
# { "dim": d, "entries": [[re, im], ...] }, row-major, length d*d.


def complex_to_json(arr) -> list:
    """Nested ``[re, im]`` lists of Python floats, one pair per entry."""
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    return arr.view(np.float64).reshape(arr.shape + (2,)).tolist()


def complex_from_json(raw, shape, what: str) -> np.ndarray:
    """Inverse of :func:`complex_to_json`, bit for bit.

    Raises ValueError unless ``raw`` holds finite ``[re, im]`` number pairs
    nested to exactly ``shape``; ``what`` names the field in the message.
    """
    want = tuple(shape) + (2,)
    try:
        pairs = np.array(raw)
    except ValueError:  # ragged nesting
        pairs = None
    if pairs is None or pairs.shape != want or pairs.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be [re, im] number pairs nested to shape {tuple(shape)}")
    pairs = pairs.astype(np.float64, copy=False)
    if not np.all(np.isfinite(pairs)):
        # ``what`` may name the entries already, as an operator's does.
        raise ValueError(f"{what.removesuffix(' entries')} entries must be finite")
    return pairs.view(np.complex128).reshape(shape)


def header_int(obj: dict, key: str) -> int:
    """``obj[key]`` if it is a JSON integer (not a bool, a fraction or ±inf)."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def matrix_to_json_dict(mat: np.ndarray) -> dict:
    """The operator object of a square matrix."""
    d = mat.shape[0]
    return {"dim": d, "entries": complex_to_json(mat.reshape(d * d))}


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    try:
        d = header_int(obj, "dim")
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator object: {exc}") from exc
    if d < 1:
        raise ValueError(f"operator dim must be positive, got {d}")
    return complex_from_json(entries, (d * d,), "operator entries").reshape(d, d)


def _json_items(member):
    """A list member's items, or a stack member's rows as operator objects."""
    return map(matrix_to_json_dict, member) if isinstance(member, np.ndarray) else member


def json_value(obj: dict) -> dict:
    """``obj`` with each member that is an ``(n, d, d)`` stack as its rows'
    operator objects: the value whose ``json.dumps`` :func:`dump_json` writes."""
    return {k: list(_json_items(v)) if isinstance(v, np.ndarray) else v for k, v in obj.items()}


def ops_from_json(raw, keys: list, d: int) -> np.ndarray:
    """Inverse of :func:`json_value` on a stack: the read-only stack of one
    validated d x d operator per key; ``keys`` name the rows in errors.

    Items already decoded by :func:`decode_operator` are taken as they are.
    """
    if not isinstance(raw, list) or len(raw) != len(keys):
        got = len(raw) if isinstance(raw, list) else raw
        raise ValueError(f"expected {len(keys)} ops, got {got!r}")
    ops = [o if isinstance(o, np.ndarray) else _operator(o) for o in raw]
    stack = np.empty((len(keys), d, d), dtype=np.complex128)
    for k, op, row in zip(keys, ops, stack):
        if len(op) != d:
            raise ValueError(f"op {k} is {len(op)} x {len(op)}, expected {d} x {d}")
        row[...] = op
    return read_only(stack)


def _operator(obj: dict) -> np.ndarray:
    """The admitted matrix of an operator object."""
    return HermitianOp.from_matrix(matrix_from_json_dict(obj))


def decode_operator(obj: dict):
    """``json.load`` object hook: an object with ``dim`` and ``entries`` as
    its admitted read-only matrix as soon as it is parsed, so that a file of
    operators is never held as one tree of lists.  Any other object is
    returned as it is."""
    if "dim" in obj and "entries" in obj:
        return _operator(obj)
    return obj


def dump_json(obj: dict, fh) -> None:
    """Write ``json.dumps(json_value(obj)) + "\\n"`` to ``fh`` without
    building it, for a dict with string keys, as every artifact is: each
    member, or each item of a member that is a list or a stack, goes through
    the C encoder on its own.  A stack's rows are encoded here, one operator
    object each, as the writer reaches them.  Every JSON artifact is written here."""
    fh.write("{")
    for i, (key, value) in enumerate(obj.items()):
        fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if isinstance(value, (list, np.ndarray)):
            fh.write("[")
            for j, item in enumerate(_json_items(value)):
                fh.write(f"{', ' if j else ''}{json.dumps(item)}")
            fh.write("]")
        else:
            fh.write(json.dumps(value))
    fh.write("}\n")


def parse_json(text: str, object_hook=None):
    """The JSON value of ``text``; every JSON input is parsed here.  Text
    nested too deeply for the parser is rejected with a ValueError, as any
    other malformed text is, not a RecursionError."""
    try:
        return json.loads(text, object_hook=object_hook)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def load_json(path, object_hook=None):
    """The JSON value of the file at ``path``, through :func:`parse_json`."""
    with open(path) as fh:
        return parse_json(fh.read(), object_hook)


def write_operator_json(path, op: np.ndarray) -> None:
    with open(path, "w") as fh:
        dump_json(matrix_to_json_dict(op), fh)


def read_operator_json(path) -> np.ndarray:
    return _operator(load_json(path))

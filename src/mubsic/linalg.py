"""Dense complex-matrix plumbing: Hermitian operators, the Hilbert-Schmidt
inner product and Gram tables, and eigenanalysis.

Everything here is a pure function of immutable inputs.  An operator is a
read-only complex ``(d, d)`` ndarray admitted once by
:meth:`HermitianOp.from_matrix`, and a family of them is one read-only
``(n, d, d)`` stack (:func:`hermitian_stack`), so values can be shared
freely across threads.

Every Hilbert-Schmidt table check of the paper's identities goes through
the sliced Gram of :func:`gram_deviation`, exact to one rounding.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from json.decoder import WHITESPACE as _WHITESPACE

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

# gram_deviation cuts each operator into this many slices (two leave errors of
# order 1e-11 at d = 31) and forms the Gram in square blocks of this many rows
# (sliced whole, a d = 19 frame raised frame verify's peak RSS by 5 MB).  It
# adds the products of slices i and j in this order, smallest first.  The
# eigensystem check reconstructs a stack in slabs of a block's rows.
_GRAM_SLICES = 3
_GRAM_BLOCK = 64
_SLICE_PAIRS = sorted(itertools.product(range(_GRAM_SLICES), repeat=2), key=sum, reverse=True)

# load_json reads a file this many characters at a time.
_CHUNK = 1 << 18
# json fails on a value cut by the end of the text read so far, or ends a cut
# number, fewer than this many characters before that end (a cut "-Infinity"
# at its '-'); only a cut string fails further back, and json names it.
_CUT = len("-Infinity")


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
        with np.errstate(over="ignore"):
            asym = float(np.abs(mat - mat.conj().T).max())
            twice = mat + mat.conj().T
        if asym > HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian: max |m - m†| = {asym:.3e}")
        # As floats: numpy's first complex isfinite adds 0.3 MB to peak RSS.
        parts = twice.view(np.float64)
        if np.isfinite(parts).all():
            return read_only(twice / 2.0)
        # A part past float64 equals its mirror (parts within HERMITICITY_ATOL
        # that differ lie below 2¹⁴), so it is its own mean, m's.  Halved as a
        # complex, its entry's other part may read NaN, so parts halve as floats.
        mean = np.where(np.isfinite(parts), parts / 2.0, mat.view(np.float64))
        return read_only(mean.view(np.complex128))


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

    Raises ValueError unless each reconstruction residual ‖h − VΛV†‖_max is
    at most EIG_RESIDUAL_ATOL: a larger or a NaN one signals a solver failure.
    """
    w, v = np.linalg.eigh(mats)
    w = w[..., ::-1]
    v = v[..., ::-1]
    residual = _eig_residual(np.asarray(mats), w, v)
    if not residual <= EIG_RESIDUAL_ATOL:
        raise ValueError(f"eigendecomposition failed: residual {residual:.3e}")
    return read_only(w), v


def _eig_residual(mats: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """max ‖h − VΛV†‖_max over the matrices h of ``mats`` and their
    eigensystems, formed ``_GRAM_BLOCK`` matrices at a time and in place, so
    that no temporary grows with the stack; NaN if any entry is."""
    d = w.shape[-1]
    mats, w, v = mats.reshape(-1, d, d), w.reshape(-1, d), v.reshape(-1, d, d)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(v), _GRAM_BLOCK):
            rows = slice(lo, lo + _GRAM_BLOCK)
            recon = (v[rows] * w[rows, None, :]) @ v[rows].conj().swapaxes(-1, -2)
            np.subtract(mats[rows], recon, out=recon)
            worst = np.max([worst, np.abs(recon).max()])
    return float(worst)


def spectrum_rank(values) -> int:
    """Number of eigenvalues with |λ| > RANK_TOL."""
    return int(np.count_nonzero(np.abs(values) > RANK_TOL))


def matrix_rank(h: np.ndarray) -> int:
    """Number of eigenvalues of the Hermitian matrix ``h`` with |λ| > RANK_TOL."""
    return spectrum_rank(hermitian_eigensystem(h)[0])


def third_moment(h: np.ndarray) -> float:
    """tr(h³); equals 1 exactly when h is a rank-one projector."""
    return float(np.trace(h @ h @ h).real)


def _hs_slices(rows: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The operators of a Hermitian ``(k, d, d)`` stack as ``_GRAM_SLICES``
    integer slices of their d² real coordinates, and each row's exponent.

    A row's coordinates are its diagonal, then the real and the imaginary
    parts of its upper triangle, so that tr(ab) = Σ wᵢ·aᵢ·bᵢ with weight 1
    on the diagonal and 2 elsewhere: half the work and the memory of the
    plain 2d² float64 view, which gives the same bits but raised
    ``frame from-mub --d 19``'s peak RSS from 37.9 to 40.1 MB.  Row r's
    coordinates equal
    Σⱼ slices[j, r]·2^(e_r − bits·(j+1)), where 2^e_r bounds the row (e = 0
    for a zero row), up to a remainder below 2^(e_r − bits·_GRAM_SLICES) in
    each coordinate; every slice entry is an integer below 2^bits in modulus.
    """
    k, d, _ = rows.shape
    flat = rows.reshape(k, d * d)
    upper = np.flatnonzero(np.triu(np.ones((d, d), dtype=bool), 1))
    out = np.empty((_GRAM_SLICES, k, d * d))
    rest = out[-1]
    rest[:] = np.concatenate([flat.real[:, :: d + 1], flat.real[:, upper], flat.imag[:, upper]], 1)
    exps = np.frexp(np.maximum(rest.max(axis=1), -rest.min(axis=1)))[1]
    np.ldexp(rest, (bits - exps)[:, None], out=rest)
    for part in out[:-1]:
        np.trunc(rest, out=part)
        rest -= part
        rest *= 2.0**bits
    np.trunc(rest, out=rest)
    return out, exps


def _gram_blocks(stack: np.ndarray, right: np.ndarray | None = None):
    """The upper triangle of the Hilbert-Schmidt Gram table tr(ab) of a
    Hermitian ``(n, d, d)`` stack, as ``(lo, at, G[lo:lo+B, at:at+B])`` for
    every pair of ``_GRAM_BLOCK``-row blocks with lo ≤ at; given a ``right``
    stack of the same d, every block of the table of a from ``stack`` and b
    from ``right``.

    Each block is sliced as it is reached (:func:`_hs_slices`).  With slices
    of ``bits`` bits, the 2d² − d units of weight keep every weighted dot
    product of two slice rows below 2^53.  Slices and exponents are per row,
    so an entry's bits do not depend on the blocks it is formed in.
    """
    n, d = stack.shape[:2]
    bits = (53 - (2 * d * d - 1).bit_length()) // 2
    weight = np.full(d * d, 2.0)
    weight[:d] = 1.0
    cross = right is not None
    cols = right if cross else stack
    for lo in range(0, n, _GRAM_BLOCK):
        if cross:
            left, left_exps = _hs_slices(stack[lo : lo + _GRAM_BLOCK], bits)
            left *= weight
        for at in range(0 if cross else lo, len(cols), _GRAM_BLOCK):
            col, col_exps = _hs_slices(cols[at : at + _GRAM_BLOCK], bits)
            if at == lo and not cross:
                left, left_exps = col * weight, col_exps
            block = sum((left[i] @ col[j].T) * 2.0 ** (-bits * (i + j)) for i, j in _SLICE_PAIRS)
            yield lo, at, np.ldexp(block, left_exps[:, None] + col_exps - 2 * bits)


def gram_deviation(stack: np.ndarray, labels, diag: float, same: float, other: float) -> float:
    """Max |tr(a b) − target(a, b)| over every pair of rows of the Hermitian
    ``(n, d, d)`` stack: the Hilbert-Schmidt Gram-table check behind every
    frame and family verifier.  The target is the rule of one identity of
    the paper: ``diag`` on the diagonal, ``same`` where two rows' ``labels``
    are equal and ``other`` where they differ.

    The Gram is the error-free sliced product of Ozaki, Ogita, Oishi and
    Rump (Numer. Algorithms 59 (2012) 95–118) on BLAS.  Every slice product
    is exact in float64, in any order of summation, and only their
    fixed-order sum rounds, so the bits do not depend on BLAS blocking or
    thread count.  At d ≤ 31 each entry is within u·(|tr(ab)| + ‖a‖‖b‖/4) of
    its exact value (u = 2⁻⁵³): one rounding, plus the last bits of any
    coordinate more than 2¹⁰ below its row's largest, which the slices cut.
    The table and its target are formed ``_GRAM_BLOCK`` rows by
    ``_GRAM_BLOCK`` columns at a time, so their memory does not grow with n;
    the target is symmetric, so each block of the upper triangle stands for
    its mirror too.

    A Gram beyond float64 reads inf and a non-finite operator NaN, without a
    floating-point warning; either fails every tolerance.
    """
    labels = np.asarray(labels)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, at, block in _gram_blocks(stack):
            rows, cols = labels[lo : lo + len(block)], labels[at : at + block.shape[1]]
            target = np.where(rows[:, None] == cols, same, other)
            if lo == at:
                np.fill_diagonal(target, diag)
            worst = np.max([worst, np.abs(block - target).max()])
    return float(worst)


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


def read_header(obj: dict, what: str, size: str, *names, then=None) -> tuple:
    """Every artifact reader's header rule: ``obj[size]`` as a JSON integer,
    then ``obj[name]`` for each of ``names``, or what ``then`` makes of them.
    A missing member, an ``obj`` that is not an object, or a TypeError or
    OverflowError of ``then`` is a ValueError ``malformed <what> object: …``."""
    try:
        values = (header_int(obj, size), *(obj[name] for name in names))
        return values if then is None else then(*values)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {what} object: {exc}") from exc


def matrix_to_json_dict(mat: np.ndarray) -> dict:
    """The operator object of a square matrix."""
    d = mat.shape[0]
    return {"dim": d, "entries": complex_to_json(mat.reshape(d * d))}


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    d, entries = read_header(obj, "operator", "dim", "entries")
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

    ``raw`` is a list of operator objects, or of what :func:`decode_operator`
    made of each as :func:`load_json` read it, or the stack :func:`load_json`
    reads such a list into, which is taken as it is.
    """
    if not isinstance(raw, (list, np.ndarray)) or len(raw) != len(keys):
        got = len(raw) if isinstance(raw, (list, np.ndarray)) else raw
        raise ValueError(f"expected {len(keys)} ops, got {got!r}")
    if isinstance(raw, np.ndarray):
        if raw.shape[1:] != (d, d):
            raise ValueError(f"op {keys[0]} is {raw.shape[1]} x {raw.shape[1]}, expected {d} x {d}")
        return raw
    ops = [o if isinstance(o, np.ndarray) else decode_operator(o) for o in raw]
    stack = np.empty((len(keys), d, d), dtype=np.complex128)
    for k, op, row in zip(keys, ops, stack):
        if len(op) != d:
            raise ValueError(f"op {k} is {len(op)} x {len(op)}, expected {d} x {d}")
        row[...] = op
    return read_only(stack)


def decode_operator(obj: dict) -> np.ndarray:
    """The admitted matrix of an operator object.  :func:`load_json` admits
    each ``ops`` item with it, so that a family's operators are never held
    as a tree of lists.  The ValueError that load_json keeps in a refused
    one's place is raised."""
    if isinstance(obj, ValueError):
        raise obj
    return HermitianOp.from_matrix(matrix_from_json_dict(obj))


def require_finite(value) -> None:
    """Raise ValueError unless every number in ``value`` is finite:
    ``json.dumps`` would write inf and NaN as ``Infinity`` and ``NaN``, which
    no reader takes.  ``value`` is a number, an array, or lists and dicts of
    them, as an artifact is; an array is checked a row at a time, as floats,
    so that no temporary of its size is built."""
    if isinstance(value, np.ndarray):
        rows = value.reshape(value.shape[:1] + (-1,))
        ok = all(np.isfinite(row.real).all() and np.isfinite(row.imag).all() for row in rows)
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            require_finite(item)
        return
    else:
        ok = not isinstance(value, float) or math.isfinite(value)
    if not ok:
        raise ValueError("the result holds a value that is not finite (inf or NaN), so it is not written")


def dump_json(obj: dict, fh) -> None:
    """Write ``json.dumps(json_value(obj)) + "\\n"`` to ``fh`` without
    building it, for a dict with string keys, as every artifact is: each
    member, or each item of a member that is a list or a stack, goes through
    the C encoder on its own.  A stack's rows are encoded here, one operator
    object each, as the writer reaches them."""
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


def output(path):
    """The file an artifact goes to: ``path``, or stdout when it is None."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def write_json(path, obj: dict) -> None:
    """Every JSON artifact is written here: :func:`dump_json` of ``obj``, once
    :func:`require_finite` has passed it, so that a refused one leaves no file."""
    require_finite(obj)
    with output(path) as fh:
        dump_json(obj, fh)


def parse_json(text: str):
    """The JSON value of ``text``, as ``json.loads`` gives it.  Text nested
    too deeply for the parser is rejected with a ValueError, as any other
    malformed text is, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def load_json(path):
    """The JSON value of the file at ``path``, as ``json.loads`` gives it,
    but with each object among the items of the top-level ``ops`` member
    admitted by :func:`decode_operator`.

    The text is read ``_CHUNK`` characters at a time and never held whole
    (:class:`_ChunkedJson`): memory is bounded by the chunk size, the
    largest single member or item, and the value returned.  An ``ops`` list
    of operators of one size comes back as their read-only stack, the form
    :func:`dump_json` writes from.  An item that decode_operator refuses
    stays in its place as its ValueError, raised by :func:`ops_from_json`
    in file order, after the reader's header checks.  Text that is not JSON
    is refused in the same pass, with ``json.loads``'s error line.
    """
    with open(path) as fh:
        try:
            return _ChunkedJson(fh).document()
        except RecursionError:
            raise ValueError("JSON nested too deeply to parse") from None


class _ChunkedJson:
    """The JSON text of an open file, read ``_CHUNK`` characters at a time
    and decoded one value at a time by ``JSONDecoder.raw_decode``.  The
    top-level object is walked member by member, and the top-level list or
    a list member item by item; every other value is decoded whole.
    ``text[pos:]`` is the part read but not yet decoded; ``text[0]`` is
    character ``start`` of the file, after ``lines`` line breaks, the last
    of which ends before character ``line_start``."""

    def __init__(self, fh):
        self.fh, self.decoder = fh, json.JSONDecoder()
        self.text, self.pos, self.eof, self.longest = "", 0, False, 0
        self.start, self.lines, self.line_start = 0, 0, 0

    def _place(self, rel: int) -> tuple[int, int]:
        """The line breaks of the file before ``text[rel]``, and the
        character of the file that its line starts at."""
        newline = self.text.rfind("\n", 0, rel)
        return (self.lines + self.text.count("\n", 0, rel),
                self.line_start if newline < 0 else self.start + newline + 1)

    def _fail(self, msg: str, at: int):
        """Refuse the text at character ``at`` of the file, as ``json.loads``
        words it."""
        lines, line_start = self._place(at - self.start)
        raise ValueError(f"{msg}: line {lines + 1} column {at - line_start + 1} (char {at})") from None

    def _more(self) -> bool:
        """Read the next chunk after the undecoded text, which then starts at
        ``pos`` 0; False at the end of the file, where pos may have moved too."""
        if self.eof:
            return False
        self.lines, self.line_start = self._place(self.pos)
        self.start += self.pos
        tail, self.text = self.text[self.pos :], ""
        chunk = self.fh.read(_CHUNK)
        self.text, self.pos, self.eof = tail + chunk, 0, not chunk
        return not self.eof

    def _peek(self) -> str:
        """The next character after JSON whitespace, or "" at the end."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos : self.pos + 1]

    def _take(self, chars: str) -> str:
        """The next character, which must be one of ``chars``: a delimiter,
        ``chars[0]``, or a closing bracket."""
        char = self._peek()
        if not char or char not in chars:
            self._fail(f"Expecting {chars[0]!r} delimiter", self.start + self.pos)
        self.pos += 1
        return char

    def _value(self):
        """The next value.  The next chunk is read first when less text is
        left than the longest value so far took (up to a chunk), so that few
        values are cut by the end of the text.  A value that fails or ends
        fewer than ``_CUT`` characters before that end, or in an unterminated
        string, may be cut, so it is decoded again with the next chunk."""
        if len(self.text) - self.pos < min(self.longest, _CHUNK):
            self._more()
        self._peek()
        while True:
            try:
                value, end = self.decoder.raw_decode(self.text, self.pos)
            except json.JSONDecodeError as exc:
                at = self.start + exc.pos
                if (len(self.text) - exc.pos < _CUT or exc.msg.startswith("Unterminated")) and self._more():
                    continue
                self._fail(exc.msg, at)
            size = end - self.pos
            if len(self.text) - end < _CUT and self._more():
                continue
            self.pos, self.longest = self.pos + size, max(self.longest, size)
            return value

    def _each(self, close: str):
        """Step past the opening bracket just peeked at, then yield once
        for each member or item, which the caller reads, through ``close``."""
        self.pos += 1
        if self._peek() == close:
            self.pos += 1
            return
        yield
        while self._take("," + close) == ",":
            yield

    def _object(self):
        obj = {}
        for _ in self._each("}"):
            if self._peek() != '"':
                self._fail("Expecting property name enclosed in double quotes", self.start + self.pos)
            key = self._value()
            self._take(":")
            obj[key] = self._list(key == "ops") if self._peek() == "[" else self._value()
        return obj

    def _list(self, ops=False):
        """A list, each object in it admitted by :func:`decode_operator` if
        it is the ``ops`` member (its ValueError in the item's place), or the
        read-only stack of its items if they are all arrays of one shape and
        dtype.  Each such item is copied into a buffer that grows in place as
        rows arrive, so no list of arrays is held beside the stack."""
        rows, n, like, items = bytearray(), 0, None, []
        for _ in self._each("]"):
            value = self._value()
            if ops and isinstance(value, dict):
                try:
                    value = decode_operator(value)
                except ValueError as exc:
                    # Its traceback would keep every frame of decode_operator alive.
                    value = exc.with_traceback(None)
            if not items and isinstance(value, np.ndarray) and like in (None, (value.shape, value.dtype)):
                like = value.shape, value.dtype
                rows += memoryview(np.ascontiguousarray(value))
                n += 1
                continue
            if like is not None:  # not a stack after all
                items, like = list(_rows_stack(rows, n, like)), None
            items.append(value)
        return items if like is None else _rows_stack(rows, n, like)

    def document(self):
        """The file's one JSON value."""
        char = self._peek()
        if char == "\ufeff" and not self.start + self.pos:
            self._fail("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        value = self._object() if char == "{" else self._list() if char == "[" else self._value()
        if self._peek():
            self._fail("Extra data", self.start + self.pos)
        return value


def _rows_stack(rows: bytearray, n: int, like: tuple) -> np.ndarray:
    """The read-only stack of the ``n`` arrays of (shape, dtype) ``like``
    whose bytes ``rows`` holds, as a view of it."""
    shape, dtype = like
    return read_only(np.frombuffer(rows, dtype).reshape((n, *shape)))


def write_operator_json(path, op: np.ndarray) -> None:
    write_json(path, matrix_to_json_dict(op))


def read_operator_json(path) -> np.ndarray:
    return decode_operator(load_json(path))

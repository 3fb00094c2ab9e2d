"""Matrix Market and plain-text vector file I/O.

The reader takes the real subset of the Matrix Market exchange format
(Boisvert, Pozo and Remington 1996, "The Matrix Market Exchange Formats"):
banner `%%MatrixMarket matrix <format> <field> <symmetry>` with format
`array` or `coordinate`, field `real`, `integer` or `pattern` (coordinate
only) and symmetry `general`, `symmetric` or `skew-symmetric`. Comment and
blank lines may precede the size line. Every other file, `complex` and
`hermitian` ones included, raises ValueError naming the file, as does any
matrix or vector value that is nan, inf or a decimal past the double range.

An `array general` file is reshaped as it stands. Every other layout is
summed from (row, column, value) triples into +0.0: the stored entries in
file order, then the mirror images of those off the diagonal (negated when
skew). So coordinate repeats add up in file order, and every zero reads +0.

The readers are the package's only file input: one read per file, values
returned with the SHA-256 of the bytes parsed, and of a Matrix Market file
only the header decoded (latin-1); NumPy parses the body's bytes.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

_MM_SUFFIXES = {".mtx", ".mm"}
_BANNER = "%%MatrixMarket"
_FORMATS = ("array", "coordinate")
_FIELDS = ("real", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


def read_matrix(path: str | Path) -> tuple[np.ndarray, str]:
    """Dense real matrix from a Matrix Market file (array or coordinate)
    and the SHA-256 hex digest of its bytes.

    Raises ValueError, its message starting with the path, on any file
    outside the subset of the module docstring or too large to allocate.
    """
    try:
        data = Path(path).read_bytes()
        return _parse(data), hashlib.sha256(data).hexdigest()
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except OverflowError:  # a size past int64, from NumPy's index arithmetic
        raise ValueError(f"{path}: too large to allocate") from None


def _parse(data: bytes) -> np.ndarray:
    # lines as text mode ends them; a last, empty match ends the size-line loop
    lines = re.finditer(rb"[^\r\n]*(?:\r\n?|\n)?", data)
    tokens = next(lines)[0].decode("latin-1").split()
    if len(tokens) != 5 or tokens[0] != _BANNER:
        raise ValueError(f"expected a '{_BANNER} matrix <format> <field> <symmetry>' banner")
    obj, fmt, field, symmetry = (t.lower() for t in tokens[1:])
    supported = obj == "matrix" and fmt in _FORMATS and field in _FIELDS and symmetry in _SYMMETRIES
    if not supported or (fmt, field) == ("array", "pattern"):
        raise ValueError(f"unsupported Matrix Market type '{' '.join(tokens[1:])}'")
    for match in lines:
        line = match[0].decode("latin-1")
        if not (line.startswith("%") or (line and line.isspace())):
            break
    try:
        dims = [int(t) for t in line.split()]
    except ValueError:
        dims = []
    if len(dims) != (2 if fmt == "array" else 3) or min(dims) < 0:
        raise ValueError(f"bad or missing size line {line.strip()!r}")
    m, n = dims[0], dims[1]
    if symmetry != "general" and m != n:
        raise ValueError(f"a {symmetry} matrix must be square, got {m}x{n}")
    start = match.end()
    # NumPy's C parser, on a copy of the body freed once parsed; it reads blank text as [-1.0]
    values = np.empty(0) if re.compile(rb"\s*").fullmatch(data, start) else np.fromstring(data[start:], sep=" ")
    if (fmt, symmetry) == ("array", "general"):
        _check_count(values.size, m * n)
        _check_values(field, values)
        # row-major: BLAS rounds differently on a column-major view,
        # and reports must not depend on the file format
        return np.ascontiguousarray(values.reshape(n, m).T)
    if fmt == "array":
        # column-major lower triangle, no diagonal when skew; counted before its O(n^2) indices
        k = 0 if symmetry == "symmetric" else 1
        _check_count(values.size, n * (n + 1 - 2 * k) // 2)
        j, i = np.triu_indices(n, k=k)
    else:
        nnz, width = dims[2], (2 if field == "pattern" else 3)
        _check_count(values.size, nnz * width)
        entries = values.reshape(nnz, width)
        idx = entries[:, :2]
        if not (np.all(idx == np.floor(idx)) and np.all(idx >= 1) and np.all(idx <= (m, n))):
            raise ValueError(f"an index lies outside 1..{m} x 1..{n} or is not an integer")
        i, j = (idx - 1).astype(np.intp).T
        values = entries[:, 2] if width == 3 else np.ones(nnz)
    _check_values(field, values)
    lin = i * n + j
    if symmetry != "general":
        # after the stored entries, every entry's mirror image, weighted zero on the
        # diagonal: a sum begun at +0.0 is never -0.0, so a signed zero changes no bit
        lin = np.r_[lin, j * n + i]
        values = np.r_[values, (i != j) * (-values if symmetry == "skew-symmetric" else values)]
    # sums each position's terms in this order from +0.0; with no terms it counts in integers
    return np.bincount(lin, weights=values, minlength=m * n).astype(float, copy=False).reshape(m, n)


def _check_count(got: int, expected: int) -> None:
    if got != expected:
        raise ValueError(f"expected {expected} numbers after the size line, got {got}")


def _check_values(field: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("a value is nan, inf or beyond the double range")
    if field == "integer" and not np.all(values == np.trunc(values)):
        raise ValueError("a value in an integer file is not an integer")


def read_vector(path: str | Path) -> tuple[np.ndarray, str]:
    """Real vector from a Matrix Market array file or plain text and the
    SHA-256 hex digest of its bytes.

    Plain text means one decimal value per line, ASCII, '.' radix, lines
    ending in LF, CRLF or CR; blank lines and '#' comments are skipped. A
    file with no value, a line with two, or one that does not parse raises
    ValueError, its message starting with the path.
    """
    path = Path(path)
    if path.suffix.lower() in _MM_SUFFIXES:
        M, digest = read_matrix(path)
        if min(M.shape) != 1:
            raise ValueError(f"{path}: expected a vector, got shape {M.shape}")
        return M.ravel(), digest
    data = path.read_bytes()
    # str.splitlines also breaks at 0x85, 0x0C and others, inside a line
    lines = re.split(r"\r\n?|\n", data.decode("latin-1"))
    try:
        # np.loadtxt only warns on an input with no data
        if not any(line.split("#", 1)[0].strip() for line in lines):
            raise ValueError("no values")
        v = np.loadtxt(lines, dtype=float, ndmin=2)
        if v.shape[1] != 1:
            raise ValueError(f"expected one value per line, got shape {v.shape}")
        _check_values("real", v)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return v[:, 0], hashlib.sha256(data).hexdigest()


def write_matrix(path: str | Path, M: np.ndarray) -> None:
    """Dense real matrix to a Matrix Market array file at full precision.

    Values go column-major in '%.16e' form, 17 significant digits, which
    round-trips every double.
    """
    M = np.asarray(M, dtype=float)
    column = "%.16e\n" * M.shape[0]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_BANNER} matrix array real general\n%\n{M.shape[0]} {M.shape[1]}\n")
        for values in M.T.tolist():
            fh.write(column % tuple(values))


def write_vector(path: str | Path, v: np.ndarray) -> None:
    """Vector to Matrix Market (by suffix) or plain text, one value per
    line as repr writes it, the shortest decimal that reads back to the
    same double."""
    v = np.asarray(v, dtype=float).ravel()
    path = Path(path)
    if path.suffix.lower() in _MM_SUFFIXES:
        write_matrix(path, v[:, None])
        return
    with open(path, "w", encoding="ascii") as fh:
        for value in v:
            fh.write(repr(float(value)) + "\n")

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

The readers are the package's only file input: each file is opened once,
and its values come back with the SHA-256 of the bytes parsed. A Matrix
Market file is read in one pass of fixed-size chunks (_CHUNK_BYTES), and
every byte read goes once to one running SHA-256. Only the header lines
are decoded (latin-1); NumPy parses the body a chunk at a time. So the
reader holds the values and one chunk, never the whole file. A plain-text
vector is read in the same pass, its lines handed to NumPy as they come.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

_MM_SUFFIXES = {".mtx", ".mm"}
_BANNER = "%%MatrixMarket"
_FORMATS = ("array", "coordinate")
_FIELDS = ("real", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "skew-symmetric")
# bytes per read of a Matrix Market file; a read allocates this much up front
_CHUNK_BYTES = 1 << 16
# the line ends of text mode, and the bytes NumPy's separator " " and bytes.isspace take as space
_LINE_END = re.compile(rb"\r\n?|\n")
_ASCII_SPACE = (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c")


def read_matrix(path: str | Path) -> tuple[np.ndarray, str]:
    """Dense real matrix from a Matrix Market file (array or coordinate)
    and the SHA-256 hex digest of its bytes.

    One pass reads the file _CHUNK_BYTES at a time and feeds every byte
    read to one SHA-256. The header's lines end at LF, CRLF or CR and are
    decoded (latin-1). Each body chunk is cut after its last ASCII
    whitespace byte and parsed by NumPy; the bytes after the cut are
    carried into the next chunk, so no number is split. The values go
    into one array that doubles with the numbers parsed, up to the count
    the size line gives, so a size line alone allocates nothing. The peak
    is about the values plus one chunk; it is at most twice the values
    while the array doubles or an `array general` file is copied to
    row-major order.

    Raises ValueError, its message starting with the path, on any file
    outside the subset of the module docstring or too large to allocate.
    """
    try:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            return _parse(_chunks(fh, digest)), digest.hexdigest()
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except OverflowError:  # a size past int64, from NumPy's index arithmetic
        raise ValueError(f"{path}: too large to allocate") from None


def _chunks(fh: BinaryIO, digest) -> Iterator[bytes]:
    """The file's bytes in order, _CHUNK_BYTES at a time, each fed to digest as it is read."""
    while chunk := fh.read(_CHUNK_BYTES):
        digest.update(chunk)
        yield chunk


def _parse(chunks: Iterator[bytes]) -> np.ndarray:
    buf, pos = b"", 0

    def line() -> str:
        # the next line as text mode ends it, or at the end of the file what is
        # left ("" once nothing is). A CR that ends a chunk may be half a CRLF:
        # its LF then reads as a blank line, which the header skips and the
        # body reads as space.
        nonlocal buf, pos
        while not (end := _LINE_END.search(buf, pos)) and (chunk := next(chunks, b"")):
            buf, pos = buf[pos:] + chunk, 0
        stop = end.end() if end else len(buf)
        text, pos = buf[pos:stop].decode("latin-1"), stop
        return text

    tokens = line().split()
    if len(tokens) != 5 or tokens[0] != _BANNER:
        raise ValueError(f"expected a '{_BANNER} matrix <format> <field> <symmetry>' banner")
    obj, fmt, field, symmetry = (t.lower() for t in tokens[1:])
    supported = obj == "matrix" and fmt in _FORMATS and field in _FIELDS and symmetry in _SYMMETRIES
    if not supported or (fmt, field) == ("array", "pattern"):
        raise ValueError(f"unsupported Matrix Market type '{' '.join(tokens[1:])}'")
    text = line()
    while text.startswith("%") or (text and text.isspace()):
        text = line()
    try:
        dims = [int(t) for t in text.split()]
    except ValueError:
        dims = []
    if len(dims) != (2 if fmt == "array" else 3) or min(dims) < 0:
        raise ValueError(f"bad or missing size line {text.strip()!r}")
    m, n = dims[0], dims[1]
    if symmetry != "general" and m != n:
        raise ValueError(f"a {symmetry} matrix must be square, got {m}x{n}")
    if fmt == "coordinate":
        nnz, width = dims[2], (2 if field == "pattern" else 3)
        count = nnz * width
    elif symmetry == "general":
        count = m * n
    else:
        # column-major lower triangle, no diagonal when skew; counted before its O(n^2) indices
        k = 0 if symmetry == "symmetric" else 1
        count = n * (n + 1 - 2 * k) // 2
    values = _values(buf[pos:], chunks, count)
    if (fmt, symmetry) == ("array", "general"):
        _check_values(field, values)
        # row-major: BLAS rounds differently on a column-major view,
        # and reports must not depend on the file format
        return np.ascontiguousarray(values.reshape(n, m).T)
    if fmt == "array":
        j, i = np.triu_indices(n, k=k)
    else:
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


def _values(tail: bytes, chunks: Iterator[bytes], count: int) -> np.ndarray:
    """The count numbers in tail and the chunks after it, parsed a chunk
    at a time into one array. The array grows with what was parsed, by
    doubling up to count, so a size line alone allocates nothing; past
    count the numbers are only counted."""
    values, got = np.empty(0), 0
    for text in _cut(tail, chunks):
        # NumPy's C parser, which reads blank text as [-1.0]
        part = np.empty(0) if text.isspace() else np.fromstring(text, sep=" ")
        if got + part.size <= count:
            if got + part.size > values.size:
                grown = np.empty(min(count, max(2 * values.size, got + part.size)))
                grown[:got] = values[:got]
                values = grown
            values[got : got + part.size] = part
        got += part.size
    if got != count:
        raise ValueError(f"expected {count} numbers after the size line, got {got}")
    return values


def _cut(tail: bytes, chunks: Iterator[bytes]) -> Iterator[bytes]:
    """tail and the chunks after it, each cut after its last ASCII
    whitespace byte so that no number is split; the bytes after the cut
    go to the next one."""
    for chunk in chunks:
        tail += chunk
        cut = max(map(tail.rfind, _ASCII_SPACE)) + 1
        yield tail[:cut]
        tail = tail[cut:]
    yield tail


def _check_values(field: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("a value is nan, inf or beyond the double range")
    if field == "integer" and not np.all(values == np.trunc(values)):
        raise ValueError("a value in an integer file is not an integer")


def read_vector(path: str | Path) -> tuple[np.ndarray, str]:
    """Real vector from a Matrix Market array file or plain text and the
    SHA-256 hex digest of its bytes.

    Plain text means one decimal value per line, ASCII, '.' radix, lines
    ending in LF, CRLF or CR; blank lines and '#' comments are skipped. One
    pass of chunks, each digested once, feeds its lines to np.loadtxt as
    they come. A file with no value, a line with two, or one that does not
    parse raises ValueError, its message starting with the path.
    """
    path = Path(path)
    if path.suffix.lower() in _MM_SUFFIXES:
        M, digest = read_matrix(path)
        if min(M.shape) != 1:
            raise ValueError(f"{path}: expected a vector, got shape {M.shape}")
        return M.ravel(), digest
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            v = np.loadtxt(_lines(_chunks(fh, digest)), dtype=float, ndmin=2)
        if v.size == 0:
            raise ValueError("no values")
        if v.shape[1] != 1:
            raise ValueError(f"expected one value per line, got shape {v.shape}")
        _check_values("real", v)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return v[:, 0], digest.hexdigest()


def _lines(chunks: Iterator[bytes]) -> Iterator[str]:
    """The lines of the chunks as text mode ends them, decoded latin-1; not
    str.splitlines, which also breaks at 0x85, 0x0C and others. A CR that
    ends one chunk and the LF that starts the next give a blank line."""
    tail = b""
    for chunk in chunks:
        *lines, tail = _LINE_END.split(tail + chunk)
        yield from (line.decode("latin-1") for line in lines)
    yield tail.decode("latin-1")


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

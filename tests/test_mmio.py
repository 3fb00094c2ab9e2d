import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lsqcond import mmio


def read(reader, path):
    """The values a reader returns, once its digest is checked against the file's bytes."""
    values, digest = reader(path)
    assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return values


def test_matrix_round_trip(tmp_path):
    A = np.array([[1.0, -2.5], [0.0, 1e-13], [3.0, 4.0]])
    path = tmp_path / "A.mtx"
    mmio.write_matrix(path, A)
    np.testing.assert_array_equal(read(mmio.read_matrix, path), A)


def test_read_coordinate_format(tmp_path):
    path = tmp_path / "coo.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 2 3\n"
        "1 1 1.0\n"
        "2 2 0.5\n"
        "3 1 -2.0\n"
    )
    expected = np.array([[1.0, 0.0], [0.0, 0.5], [-2.0, 0.0]])
    np.testing.assert_array_equal(read(mmio.read_matrix, path), expected)


def test_vector_text_round_trip(tmp_path):
    v = np.array([1.0, -0.25, 3e-17])
    path = tmp_path / "b.txt"
    mmio.write_vector(path, v)
    assert path.read_text().count("\n") == 3
    np.testing.assert_array_equal(read(mmio.read_vector, path), v)


def test_vector_matrix_market_round_trip(tmp_path):
    v = np.array([2.0, 0.5])
    path = tmp_path / "b.mtx"
    mmio.write_vector(path, v)
    np.testing.assert_array_equal(read(mmio.read_vector, path), v)


def test_read_vector_rejects_matrix(tmp_path):
    path = tmp_path / "M.mtx"
    mmio.write_matrix(path, np.eye(2))
    with pytest.raises(ValueError):
        mmio.read_vector(path)


def test_read_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a matrix market file\n")
    with pytest.raises(ValueError):
        mmio.read_matrix(path)


def test_read_vector_rejects_multicolumn_text(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ValueError):
        mmio.read_vector(path)
    # one line of two values: a space, or a byte that str.splitlines breaks
    # at but text mode does not (NEL, form feed), or latin-1's no-break space
    for data in (b"1.0 2.0\n", b"1.0\x852.0\n", b"1.0\x0c2.0\n", b"1.0\xa02.0\n"):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=r"bad\.txt: expected one value per line, got shape \(1, 2\)"):
            mmio.read_vector(path)


@pytest.mark.parametrize("text", ["", "\n  \n", "# no values\n"], ids=["empty", "blank", "comment"])
def test_read_vector_rejects_a_text_file_without_values(tmp_path, text):
    path = tmp_path / "b.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"b\.txt: no values"):
            mmio.read_vector(path)


def test_read_vector_names_the_text_file_that_does_not_parse(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("1\nx\n3\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: could not convert string 'x'"):
        mmio.read_vector(path)



def test_read_matrix_names_a_file_too_large_to_allocate(tmp_path):
    # 8e18 bytes of float64, more than any 64-bit address space holds
    path = tmp_path / "big.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 1\n1 1 1.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "):
        mmio.read_matrix(path)


@pytest.mark.parametrize("symmetry, count", [("symmetric", 500000500000), ("skew-symmetric", 499999500000)])
def test_read_matrix_checks_a_triangle_count_before_building_indices(tmp_path, symmetry, count):
    # the triangle's indices would take O(n^2) memory, 931 GiB at n = 1e6
    path = tmp_path / "tri.mtx"
    path.write_text(f"%%MatrixMarket matrix array real {symmetry}\n1000000 1000000\n1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"tri.mtx: expected {count} numbers after the size line, got 1$"):
            mmio.read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000

# --- one assembly for every layout but `array general` ------------------------------

@pytest.mark.parametrize("terms, expected", [(("1e16", "-1e16", "1"), 1.0), (("1e16", "1", "-1e16"), 0.0)])
def test_coordinate_repeats_sum_in_file_order(tmp_path, terms, expected):
    path = tmp_path / "rep.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 3\n" + "".join(f"1 1 {t}\n" for t in terms))
    assert read(mmio.read_matrix, path)[0, 0] == expected


def test_a_symmetric_coordinate_file_sums_stored_entries_before_mirrored_ones(tmp_path):
    # (1, 2) is listed twice and (2, 1) once; a stored entry's mirror image is
    # added after every stored entry, so (2, 1) sums -1e16 + 1e16 + 1 = 1 and
    # (1, 2) sums 1e16 + 1 - 1e16 = 0
    path = tmp_path / "both.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 2 1e16\n1 2 1\n2 1 -1e16\n")
    np.testing.assert_array_equal(read(mmio.read_matrix, path), [[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("symmetry", ["symmetric", "skew-symmetric"])
def test_array_and_coordinate_encodings_read_to_the_same_bits(tmp_path, symmetry):
    n, k, sign = 5, (0 if symmetry == "symmetric" else 1), (1.0 if symmetry == "symmetric" else -1.0)
    cols, rows = np.triu_indices(n, k=k)
    values = np.random.default_rng(3).standard_normal(cols.size)
    values[:2] = -0.0, 0.0  # a stored zero of either sign reads +0.0, as do its mirror images
    array, coordinate = tmp_path / "array.mtx", tmp_path / "coordinate.mtx"
    array.write_text(
        f"%%MatrixMarket matrix array real {symmetry}\n{n} {n}\n" + "".join(f"{v!r}\n" for v in values.tolist())
    )
    coordinate.write_text(
        f"%%MatrixMarket matrix coordinate real {symmetry}\n{n} {n} {values.size}\n"
        + "".join(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(rows.tolist(), cols.tolist(), values.tolist()))
    )
    expected = np.zeros((n, n))
    expected[rows, cols] += values
    expected[cols, rows] += sign * values * (rows != cols)
    got = read(mmio.read_matrix, array)
    assert got.tobytes() == read(mmio.read_matrix, coordinate).tobytes() == expected.tobytes()
    assert not np.signbit(got[got == 0.0]).any()


# --- the NumPy reader and writer against scipy.io ------------------------------------

SUPPORTED = [
    (fmt, field, symmetry)
    for fmt in ("array", "coordinate")
    for field in ("real", "integer", "pattern")
    for symmetry in ("general", "symmetric", "skew-symmetric")
    if (fmt, field) != ("array", "pattern")
]


def _token(rng, field):
    if field == "integer":
        return str(int(rng.integers(-50, 51)))
    return repr(float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6)))


def _mm_text(fmt, field, symmetry, seed):
    """A Matrix Market file with comment and blank lines before the size
    line, one comment holding the non-ASCII character U+00E9, and blank
    lines in the body; coordinate files repeat entries."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    m = n if symmetry != "general" else int(rng.integers(1, 8))
    lines = [f"%%MatrixMarket matrix {fmt} {field} {symmetry}", "% a comment", "", "%caf\xe9"]
    if fmt == "array":
        if symmetry == "general":
            cells = [(i, j) for j in range(n) for i in range(m)]
        else:
            k = 0 if symmetry == "symmetric" else 1
            cells = [(i, j) for j in range(n) for i in range(j + k, n)]
        lines.append(f"{m} {n}")
        body = [_token(rng, field) for _ in cells]
    else:
        # lower-triangle positions only where symmetry mirrors them, and each
        # repeated at most once, so every sum has two terms in either order
        k = {"general": None, "symmetric": 0, "skew-symmetric": 1}[symmetry]
        cells = [(i, j) for i in range(m) for j in range(n) if k is None or i >= j + k]
        picks = rng.choice(len(cells), size=min(len(cells), 5), replace=False)
        chosen = [cells[p] for p in picks] + [cells[picks[0]], cells[picks[-1]]]
        lines.append(f"{m} {n} {len(chosen)}")
        body = [
            f"{i + 1} {j + 1}" + ("" if field == "pattern" else " " + _token(rng, field))
            for i, j in chosen
        ]
    body.insert(len(body) // 2, "")
    return "\n".join(lines + body) + "\n\n"


@pytest.mark.parametrize("fmt,field,symmetry", SUPPORTED)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_read_matches_scipy_mmread(tmp_path, fmt, field, symmetry, seed):
    import scipy.io
    import scipy.sparse

    path = tmp_path / "M.mtx"
    # latin-1: the comment's U+00E9 is the one byte 0xE9
    path.write_bytes(_mm_text(fmt, field, symmetry, seed).encode("latin-1"))
    expected = scipy.io.mmread(str(path))
    if scipy.sparse.issparse(expected):
        expected = expected.toarray()
    got = read(mmio.read_matrix, path)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, np.asarray(expected, dtype=float))


@pytest.mark.parametrize("shape", [(4, 2), (4, 1), (1, 3), (0, 2)])
def test_write_matches_scipy_mmwrite_bytes(tmp_path, shape):
    import scipy.io

    special = [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1e-300, -1e300, 1.0 / 3.0]
    M = np.resize(np.array(special), shape[0] * shape[1]).reshape(shape)
    ours, theirs = tmp_path / "ours.mtx", tmp_path / "theirs.mtx"
    mmio.write_matrix(ours, M)
    scipy.io.mmwrite(str(theirs), M, precision=17)
    assert ours.read_bytes() == theirs.read_bytes()
    got = read(mmio.read_matrix, ours)
    np.testing.assert_array_equal(got, M)
    assert np.array_equal(np.signbit(got), np.signbit(M))


MALFORMED = {
    "truncated body": "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
    "whitespace-only body": "%%MatrixMarket matrix array real general\n1 1\n\n",
    # NumPy reads blank text as [-1.0], which a 1x1 count would accept
    "whitespace-only body with a tab and CRLF": "%%MatrixMarket matrix array real general\r\n1 1\r\n \t\r\n",
    "extra entries": "%%MatrixMarket matrix array real general\n2 1\n1\n2\n3\n",
    "extra coordinate entry": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n",
    "bad token": "%%MatrixMarket matrix array real general\n2 1\n1\n1,5\n",
    "non-ASCII byte in body": "%%MatrixMarket matrix array real general\n2 1\n1\n\xe9\n",
    "comment in body": "%%MatrixMarket matrix array real general\n2 1\n1\n% note\n2\n",
    "row index out of range": "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
    "column index out of range": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1\n",
    "zero index": "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
    "fractional index": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 1\n",
    "bad banner": "%%MatrixMarket matrix array reals general\n2 1\n1\n2\n",
    "no banner": "2 1\n1\n2\n",
    "short banner": "%%MatrixMarket matrix array real\n2 1\n1\n2\n",
    "vector object": "%%MatrixMarket vector array real general\n2\n1\n2\n",
    "missing size line": "%%MatrixMarket matrix array real general\n% only a comment\n",
    "size line too short": "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",
    "negative size": "%%MatrixMarket matrix array real general\n-2 1\n1\n2\n",
    "complex": "%%MatrixMarket matrix array complex general\n3 1\n1 2\n3 4\n5 6\n",
    "hermitian": "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n2 1 1 2\n",
    "array pattern": "%%MatrixMarket matrix array pattern general\n2 1\n",
    "non-square symmetric": "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n4\n5\n6\n",
    "fractional integer": "%%MatrixMarket matrix array integer general\n2 1\n1.5\n2\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_matrix_rejects_malformed(tmp_path, case):
    path = tmp_path / "bad.mtx"
    path.write_bytes(MALFORMED[case].encode("latin-1"))
    with pytest.raises(ValueError, match="bad.mtx"):
        mmio.read_matrix(path)


def test_cli_import_leaves_scipy_unloaded():
    src = Path(mmio.__file__).resolve().parent.parent
    code = "import sys, lsqcond.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# --- one pass in chunks: any chunk size reads the same values, digest and error ----------

# 0.1 + 0.2, a value that takes 17 significant digits
STRADDLE_TOKEN = "0.30000000000000004"
CHUNKED = {
    "straddling value": f"%%MatrixMarket matrix array real general\n2 1\n-1.5\n{STRADDLE_TOKEN}\n",
    "CR-only header": "%%MatrixMarket matrix array real general\r% note\r\r2 1\r1.5\r-2\r",
    "CRLF header": "%%MatrixMarket matrix array real general\r\n% note\r\n\r\n2 1\r\n1.5\r\n-2\r\n",
    "long comment": "%%MatrixMarket matrix array real general\n%" + "x" * 100 + "\n2 1\n1\n2\n",
    "no final line end": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e300\n2 2 -3",
    "tab and form feed": "%%MatrixMarket matrix array real general\n2 2\n1\t2\x0c3\x0b4\n",
}


def _chunked_inputs(tmp_path) -> dict[str, bytes]:
    """Every Matrix Market input of this file, by name."""
    inputs = {f"mm_text {layout} {seed}": _mm_text(*layout, seed) for layout in SUPPORTED for seed in (0, 1, 2)}
    inputs |= {f"malformed {case}": text for case, text in MALFORMED.items()}
    inputs |= CHUNKED
    data = {name: text.encode("latin-1") for name, text in inputs.items()}
    special = np.array([-0.0, 5e-324, 1e300, -1e-300, 0.1, 1e-300, -1e300, 1.0 / 3.0])
    written = {f"round trip {shape}": np.resize(special, shape[0] * shape[1]).reshape(shape)
               for shape in [(4, 2), (4, 1), (1, 3), (0, 2)]}
    written["round trip 3x2"] = np.array([[1.0, -2.5], [0.0, 1e-13], [3.0, 4.0]])
    written["vector"] = np.array([2.0, 0.5])[:, None]
    for name, M in written.items():
        mmio.write_matrix(tmp_path / "written.mtx", M)
        data[name] = (tmp_path / "written.mtx").read_bytes()
    return data


def _outcome(path):
    """read_matrix's shape, values' bytes and digest, or its error message."""
    try:
        values, digest = mmio.read_matrix(path)
    except ValueError as exc:
        return str(exc)
    return values.shape, values.tobytes(), digest


# what some inputs must read to, in one chunk as in many
CHUNKED_OUTCOMES = {
    "straddling value": np.array([[-1.5], [0.1 + 0.2]]),
    "CR-only header": np.array([[1.5], [-2.0]]),
    "CRLF header": np.array([[1.5], [-2.0]]),
    "long comment": np.array([[1.0], [2.0]]),
    # not NumPy's [-1.0] for blank text
    "malformed whitespace-only body": "expected 1 numbers after the size line, got 0",
    "malformed whitespace-only body with a tab and CRLF": "expected 1 numbers after the size line, got 0",
    "malformed non-ASCII byte in body": "string or file could not be read to its end due to unmatched data",
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_every_chunk_size_reads_what_one_chunk_reads(tmp_path, monkeypatch, chunk):
    path = tmp_path / "M.mtx"
    for name, data in _chunked_inputs(tmp_path).items():
        path.write_bytes(data)
        monkeypatch.setattr(mmio, "_CHUNK_BYTES", max(len(data), 1))
        whole = _outcome(path)
        monkeypatch.setattr(mmio, "_CHUNK_BYTES", chunk)
        assert _outcome(path) == whole, name
        if not isinstance(whole, str):
            assert whole[2] == hashlib.sha256(data).hexdigest(), name
        expected = CHUNKED_OUTCOMES.get(name)
        if isinstance(expected, str):
            assert whole == f"{path}: {expected}", name
        elif expected is not None:
            assert whole[:2] == (expected.shape, expected.tobytes()), name


def test_a_value_that_straddles_a_chunk_boundary_reads_whole(tmp_path, monkeypatch):
    data = CHUNKED["straddling value"].encode("ascii")
    start = data.index(STRADDLE_TOKEN.encode())
    path = tmp_path / "M.mtx"
    path.write_bytes(data)
    for cut in range(start + 1, start + len(STRADDLE_TOKEN)):
        monkeypatch.setattr(mmio, "_CHUNK_BYTES", cut)
        assert read(mmio.read_matrix, path)[1, 0] == float(STRADDLE_TOKEN), cut


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_a_pipe_read_in_small_chunks_gets_the_digest_of_every_byte(monkeypatch):
    data = CHUNKED["CRLF header"].encode("ascii")
    monkeypatch.setattr(mmio, "_CHUNK_BYTES", 3)
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        values, digest = mmio.read_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert values.tobytes() == np.array([[1.5], [-2.0]]).tobytes()
    assert digest == hashlib.sha256(data).hexdigest()


def test_a_matrix_file_is_never_held_whole(tmp_path, monkeypatch):
    # the values, their row-major copy and a few chunks, not the file's
    # bytes and a copy of its body as a whole-file read holds
    monkeypatch.setattr(mmio, "_CHUNK_BYTES", 4096)
    A = np.random.default_rng(5).standard_normal((2000, 20))
    path = tmp_path / "A.mtx"
    mmio.write_matrix(path, A)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got, digest = mmio.read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == A.tobytes() and digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 2 * A.nbytes + 16 * 4096 < size


# --- plain-text vectors: the same pass of chunks ------------------------------------------

# every text-vector input of this file, and line ends of each kind
TEXT_VECTORS = {
    "round trip": b"1.0\n-0.25\n3e-17\n",
    "two columns": b"1.0 2.0\n3.0 4.0\n",
    "two values on a line": b"1.0 2.0\n",
    "NEL inside a line": b"1.0\x852.0\n",
    "form feed inside a line": b"1.0\x0c2.0\n",
    "no-break space inside a line": b"1.0\xa02.0\n",
    "empty": b"",
    "blank": b"\n  \n",
    "comment only": b"# no values\n",
    "not a number": b"1\nx\n3\n",
    "CRLF": b"1.5\r\n-2\r\n",
    "CR only": b"1.5\r-2\r",
    "comments and no final line end": b"# head\n1.5\n\n-2 # tail",
}
TEXT_OUTCOMES = {
    "round trip": np.array([1.0, -0.25, 3e-17]),
    "two columns": "expected one value per line, got shape (2, 2)",
    "two values on a line": "expected one value per line, got shape (1, 2)",
    "NEL inside a line": "expected one value per line, got shape (1, 2)",
    "form feed inside a line": "expected one value per line, got shape (1, 2)",
    "no-break space inside a line": "expected one value per line, got shape (1, 2)",
    "empty": "no values",
    "blank": "no values",
    "comment only": "no values",
    "not a number": "could not convert string 'x' to float64 at row 1, column 1.",
    "CRLF": np.array([1.5, -2.0]),
    "CR only": np.array([1.5, -2.0]),
    "comments and no final line end": np.array([1.5, -2.0]),
}


def _vector_outcome(path):
    """read_vector's values' bytes and digest, or its error message; no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values, digest = mmio.read_vector(path)
        except ValueError as exc:
            return str(exc)
    return values.tobytes(), digest


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_every_chunk_size_reads_a_text_vector_as_one_chunk_does(tmp_path, monkeypatch, chunk):
    path = tmp_path / "b.txt"
    for name, data in TEXT_VECTORS.items():
        path.write_bytes(data)
        monkeypatch.setattr(mmio, "_CHUNK_BYTES", max(len(data), 1))
        whole = _vector_outcome(path)
        monkeypatch.setattr(mmio, "_CHUNK_BYTES", chunk)
        assert _vector_outcome(path) == whole, name
        expected = TEXT_OUTCOMES[name]
        if isinstance(expected, str):
            assert whole == f"{path}: {expected}", name
        else:
            assert whole == (expected.tobytes(), hashlib.sha256(data).hexdigest()), name


def test_a_non_number_past_the_first_chunk_keeps_its_row_number(tmp_path):
    # loadtxt counts the rows with values, blank and comment lines aside
    data = b"# values\n\n" + b"0.125\n" * 100_004 + b"x\n1\n"
    assert len(data) > 4 * mmio._CHUNK_BYTES
    path = tmp_path / "b.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: could not convert string 'x' .* at row 100004, column 1\.$"):
        mmio.read_vector(path)


def test_a_crlf_split_across_two_chunks_ends_one_line(tmp_path, monkeypatch):
    # the LF that starts the second chunk gives a blank line, which shifts no row
    path = tmp_path / "b.txt"
    monkeypatch.setattr(mmio, "_CHUNK_BYTES", 4)
    for data, outcome in ((b"1.5\r\n-2\r\n", [1.5, -2.0]), (b"1.5\r\nx\r\n", "at row 1, column 1.")):
        path.write_bytes(data)
        assert data[3:5] == b"\r\n"
        got = _vector_outcome(path)
        if isinstance(outcome, str):
            assert got.startswith(f"{path}: could not convert string 'x'") and got.endswith(outcome)
        else:
            assert got == (np.array(outcome).tobytes(), hashlib.sha256(data).hexdigest())


def test_a_text_vector_is_never_held_whole(tmp_path):
    # the values and loadtxt's own chunk of lines, not the file's bytes, their
    # text and a list of its lines
    v = np.random.default_rng(6).standard_normal(300_000)
    path = tmp_path / "b.txt"
    mmio.write_vector(path, v)
    tracemalloc.start()
    try:
        got, digest = mmio.read_vector(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == v.tobytes() and digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 2 * v.nbytes < path.stat().st_size

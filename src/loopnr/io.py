"""Structure files: canonical JSON or plain text, on input and output.

The JSON form is the interchange format:

    {"kind": "ring", "n": 4, "add": [[...], ...], "mul": [[...], ...],
     "one": 1, "meta": {"name": "cyclic:4"}}

Loops carry no "mul"/"one".  Serialization is canonical: sorted keys,
compact separators, a single trailing newline, UTF-8 untouched.  The
plain-text form, for hand-written tables, is read by the same loader
and written by ``dump_structure_text`` (``generate --text``):

    ring 4
    0 1 2 3
    1 2 3 0
    2 3 0 1
    3 0 1 2

    0 0 0 0
    0 1 2 3
    0 2 0 2
    0 3 2 1
    one=1

A loop file is the kind line plus the addition rows.

Structure files are read as bytes, once.  The compact JSON form, as
``generate`` writes it, is also the fast form, taken by a file as a
whole: its members follow one another with no whitespace, each key an
identifier written without escapes.  Each key and each small member
(``kind``, ``n``, ``one``, ``meta``) is decoded as UTF-8 from its own
byte range, a window that widens until the value ends inside it.  Every
top-level ``"add"`` and ``"mul"`` value must be a certified square
matrix ``[[r,r,...],[...]]`` of at most 32,768 rows; each decodes from
the file's bytes, in blocks of whole rows of about 64 KiB, straight into
one read-only int16 table that ``tables.as_table`` takes without a copy.
A block is certified when its skeleton (every byte other than a digit
or ``-``) is exactly ``[`` ``,``...``]`` per row, ``,`` between rows
and ``]`` after the last, and ``json.loads`` reads each entry as an
integer other than ``-0``.  An entry of at most D = len(str(n - 1))
digits is read from its last D bytes; an entry of n or more, a longer
one or a signed one lies outside 0..n-1 and decodes to -1, as
``tables.as_table`` maps it.  Every block, one with signed, over-long
or five-digit entries too, is certified and read byte by byte from the
positions of its marks (``_decode_rows``); a table's blocks share one
work array for their temporaries of the block's size.  A certified
table is ASCII and every other byte was decoded, so such a file is all
UTF-8.  Any other file (the text
format, whitespace between members or in a table, an escaped key, a
byte-order mark, a byte that is not UTF-8) is decoded whole as
``open(path, encoding="utf-8")`` reads it, which names a bad byte and
its position, and ``json.loads`` or the text parser reads it, with the
same verdicts, messages and witnesses.  A file read from its path is
then parsed from its text alone, its bytes dropped.  The text parser
reads each row into a read-only int16 table once the row count is
right, an entry outside 0..n-1 as -1; past ``MAX_ORDER``, which
``realize`` refuses, the rows stay lists.

Once such a file's tables have been validated, every entry of them is
literally ``str(v)`` for its value v, so each table's bytes already are
its canonical JSON: ``load_structure`` hashes them as they were read
and keeps the digest on the structure for ``structure_sha256``.  A file
that fails validation is never hashed; ``check`` hashes none and drops
the bytes once the tables are decoded.

Output takes the reverse route.  A table is rendered in blocks of rows
by gathering, for each entry v, a precomputed field ``str(v)`` plus its
separator, padded with NUL to one machine word; one ``bytes.translate``
drops the padding.  ``structure_sha256`` (of a structure not read from
such a file), ``write_structure``, ``dump_structure`` and
``dump_structure_text`` share that renderer, and its memory beyond the
tables is one block.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from io import BytesIO, StringIO, TextIOWrapper

import numpy as np

from .config import DEFAULT_BOUNDS, Bounds, int_token, int_tokens
from .errors import ParseError
from .loops import CayleyLoop, validate_loop
from .nearrings import validate_lnr
from .rings import validate_ring_tables
from .tables import DTYPE, KINDS, MAX_ORDER


def kind_of(structure) -> str:
    if not isinstance(structure, CayleyLoop):
        raise TypeError(f"not a structure: {structure!r}")
    return structure.kind


@dataclass(frozen=True)
class StructureFile:
    """Parsed but not yet validated file contents."""

    kind: str
    n: int
    add: list | np.ndarray
    mul: list | np.ndarray | None = None
    one: int | None = None
    meta: dict = field(default_factory=dict)
    # where each table's certified bytes lie in the file; empty if json.loads read it
    spans: dict = field(default_factory=dict)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(payload) -> str:
    """Deterministic serialization: sorted keys, compact, one newline."""
    return _dumps(payload) + "\n"


def _fields(structure) -> dict:
    """The algebraic content of a structure, its tables as arrays."""
    kind = kind_of(structure)
    fields = {"kind": kind, "n": structure.n, "add": structure.add}
    if kind != "loop":
        fields.update(mul=structure.mul, one=structure.one)
    return fields


_BLOCK_CELLS = 1 << 14   # table entries rendered per block


@lru_cache(maxsize=8)
def _fields_for(n: int, sep: str, close: str, gap: str) -> tuple:
    """The word dtype and the ``cell``, ``last`` and ``between`` fields of
    ``_render_rows`` for entries 0..n-1, built once per shape."""
    size = max(len(str(n - 1)) + max(len(sep), len(close)), len(gap))
    word = np.dtype(f"<u{1 << (size - 1).bit_length()}")

    def fields(texts):
        out = np.array([t.encode().rjust(word.itemsize, b"\0") for t in texts],
                       dtype=f"S{word.itemsize}").view(word)
        out.setflags(write=False)
        return out

    cell, last = fields(f"{v}{sep}" for v in range(n)), fields(f"{v}{close}" for v in range(n))
    return word, cell, last, fields([gap])[0]


def _render_rows(table: np.ndarray, sep: str, close: str, gap: str):
    """The rows of ``table`` as ASCII bytes, in blocks of about
    ``_BLOCK_CELLS`` entries (as it reads at the call): each row's entries
    joined by ``sep`` and ended by ``close``, rows joined by ``gap``.

    Entry v of a row is gathered from a table of the fields ``str(v) + sep``
    (``str(v) + close`` in the last column), each padded on the left with
    NUL to one machine word (``_fields_for``, kept per shape); one
    ``bytes.translate`` then drops the NULs.
    """
    rows, n = table.shape
    word, cell, last, between = _fields_for(n, sep, close, gap)
    step = max(1, _BLOCK_CELLS // n)
    for r in range(0, rows, step):
        block = table[r:r + step]
        out = np.empty((len(block), n + 1), dtype=word)
        out[:, :-2] = cell.take(block[:, :-1])
        out[:, -2] = last.take(block[:, -1])
        out[:, -1] = between
        text = out.tobytes().translate(None, b"\0")
        yield text if r + step < rows else text[:len(text) - len(gap)]


def _canonical_chunks(fields: dict):
    """``canonical_json(fields)`` as UTF-8 bytes, in pieces: each table
    in blocks of rows, so that writing or hashing it needs O(block)
    memory beyond the tables.  A table may also be given as a memoryview
    of its canonical bytes, as read from a file."""
    for i, key in enumerate(sorted(fields)):
        value = fields[key]
        yield f'{"," if i else "{"}"{key}":'.encode()
        if isinstance(value, np.ndarray):
            yield b"[["
            yield from _render_rows(value, ",", "]", ",[")
            yield b"]"
        elif isinstance(value, memoryview):
            yield value
        else:
            yield _dumps(value).encode()
    yield b"}\n"


def structure_to_dict(structure, meta: dict | None = None) -> dict:
    out = {k: v.tolist() if isinstance(v, np.ndarray) else v
           for k, v in _fields(structure).items()}
    out["meta"] = dict(meta) if meta else {}
    return out


def write_structure(structure, out, meta: dict | None = None) -> None:
    """Write ``dump_structure(structure, meta)`` to ``out`` in blocks of rows."""
    for chunk in _canonical_chunks({**_fields(structure), "meta": dict(meta or {})}):
        out.write(chunk.decode())


def dump_structure(structure, meta: dict | None = None) -> str:
    out = StringIO()
    write_structure(structure, out, meta)
    return out.getvalue()


def dump_structure_text(structure) -> str:
    """Serialize to the line-oriented text format the parser accepts."""
    kind = kind_of(structure)
    tables = [structure.add] if kind == "loop" else [structure.add, structure.mul]
    rows = [b"".join(_render_rows(t, " ", "\n", "")).decode() for t in tables]
    one = "" if kind == "loop" else f"one={structure.one}\n"
    return f"{kind} {structure.n}\n" + "".join(rows) + one


def _sha256(fields: dict) -> str:
    h = hashlib.sha256()
    for chunk in _canonical_chunks(fields):
        h.update(chunk)
    return h.hexdigest()


def structure_sha256(structure) -> str:
    """Identity hash over the algebraic content only (meta excluded).

    The bytes hashed are ``canonical_json`` of ``structure_to_dict``
    without its meta, streamed to ``hashlib`` in blocks of table rows;
    for a structure that ``load_structure`` read from a compact file,
    the digest it took of the same bytes in the file.
    """
    return getattr(structure, "_file_sha256", None) or _sha256(_fields(structure))


_DECODER = json.JSONDecoder()
_BLOCK_BYTES = 1 << 16   # table bytes decoded per block, beyond its last row
_WINDOW_BYTES = 1 << 8   # bytes first decoded for a small member; widened as needed


def _work_bytes(read: int, size: int) -> int:
    """The bytes of ``_decode_rows``' work array for a block of ``size``
    bytes whose entries in range have at most D = ``read`` digits: two
    runs of values one slot longer than the block, int16 for D <= 4 and
    int32 for D = 5, then the digits and two masks, a byte each."""
    return (size + 1) * (4 if read <= 4 else 8) + 3 * size


def _decode_rows(block, width: int, work: np.ndarray | None = None):
    """Decode the rows ``[v,...,v]`` that the bytes ``block`` start with.

    Each row is followed by ``,``, or the last by the ``]`` closing the
    matrix; what follows that ``]`` is not read.  Returns (values, used,
    closed): the (rows, width) int16 array (int32 past D = 4), the bytes
    read and whether the matrix closed; None unless every entry is an
    integer that json.loads reads, other than -0.  An entry of width or
    more (of more than D digits, say), or a signed one, decodes to -1.

    The block is read byte by byte from the positions of its marks, the
    bytes other than a digit.  A ``-`` is taken out of the marks that
    must match the skeleton ``[``, ``,``...``]`` per row.

    * No gap: the first mark is at byte 0, each ``]`` is followed at once
      by its ``,`` or the closing ``]``, each ``,`` after a ``]`` at once
      by ``[``, and the block ends at its last mark.  So every digit and
      ``-`` lies between a row's ``[`` or ``,`` and its next ``,`` or
      ``]``, in an entry.
    * Signs: each ``-`` follows a ``[`` or ``,`` at once, so it leads its
      entry, and precedes a digit from 1 to 9 at once.  So ``-0``, ``--``,
      ``1-2`` and a lone ``-`` are refused.
    * No empty entry: those row boundaries are 2 rows - 1 pairs of
      adjacent marks and each ``-`` makes one more with the mark before
      it, so any further pair is an entry with no digit.
    * No zero-led entry: no ``0`` follows a mark and precedes a digit.
      With no gap, a digit after a mark starts an entry or follows its
      sign.
    * Values: the value of the last D digits of the run ending at each
      byte, by D - 1 shifted multiply-adds from the digit bytes, each
      masked to the digits, so that a run starts afresh after every mark;
      an entry's value is the one at its last byte, read for all of them
      by one ``take`` at the marks.  One of width or more decodes to -1.
    * Entry lengths: a value of at least 10**(D - 1) spans D digits, and
      with no zero-led entry an entry of D digits or more has one at its
      D-th digit, so an entry has more than D digits exactly where such
      a value is followed by a digit.  Only a block with such an entry
      or a sign has its entries' lengths read off the marks: one of more
      than D digits, or a signed one, decodes to -1, and one past
      Python's digit limit, which json.loads refuses, refuses the block.

    ``work`` is a uint8 array of at least ``_work_bytes(D, len(block))``
    bytes (a shorter one is not used): each temporary of the block's size, the
    two runs of values among them, is a view of it, and so may be the
    values.
    """
    read = len(str(width - 1))   # D: at most 5 for a width up to MAX_ORDER
    run_type = np.dtype(np.int16 if read <= 4 else np.int32)
    chars = np.frombuffer(block, np.uint8)
    size = len(chars)
    if work is None or len(work) < _work_bytes(read, size):
        work = np.empty(_work_bytes(read, size), np.uint8)
    # two runs of values, each led by one spare slot, lead the work
    # array, where they are aligned: run[i + 1] is the value at byte i,
    # so that run.take(cut) reads each mark's left neighbour
    end = 2 * run_type.itemsize * (size + 1)
    runs, work = work[:end].view(run_type).reshape(2, size + 1), work[end:]
    digit = np.subtract(chars, 48, out=work[:size])
    mark = np.greater(digit, 9, out=work[size:2 * size].view(bool))
    cut = np.flatnonzero(mark)
    at_cut = chars.take(cut)
    marks = at_cut.tobytes()
    signs = ()
    if b"-" in marks:
        minus = at_cut == 45
        signs, cut, marks = cut[minus], cut[~minus], marks.replace(b"-", b"")
    # a row ends in "]," or, the last, in "]]"; the skeleton test below
    # refuses a "]]" anywhere else
    close = marks[width + 1::width + 2].find(b"]")
    if close >= 0:
        close = close * (width + 2) + width
        cut, marks = cut[:close + 2], marks[:close + 2]
    rows = len(cut) // (width + 2)
    skeleton = (b"[" + b"," * (width - 1) + b"],") * rows
    if close >= 0:
        skeleton = skeleton[:-1] + b"]"
    if not rows or marks != skeleton:
        return None
    used = int(cut[-1]) + 1 if close >= 0 else size
    chars, digit, mark, runs = chars[:used], digit[:used], mark[:used], runs[:, :used + 1]
    cut = cut.reshape(rows, width + 2)
    if (cut[0, 0] or cut[-1, -1] != used - 1 or (cut[:, -1] - cut[:, -2] != 1).any()
            or (cut[1:, 0] - cut[:-1, -1] != 1).any()):
        return None
    if len(signs):
        signs = signs[signs < used]
        before, after = chars.take(signs - 1), digit.take(signs + 1)
        if not (((before == 91) | (before == 44)) & (after >= 1) & (after <= 9)).all():
            return None
    flags = work[2 * size:2 * size + used].view(bool)
    pairs = np.logical_and(mark[:-1], mark[1:], out=flags[:used - 1])
    if np.count_nonzero(pairs) != 2 * rows - 1 + len(signs):
        return None
    led = np.equal(chars[1:-1], 48, out=flags[:used - 2])
    led &= mark[:-2]
    if np.greater(led, mark[2:], out=led).any():   # a 0 after a mark and before no mark
        return None
    is_digit = np.logical_not(mark, out=flags)
    run = runs[0]
    np.multiply(digit, is_digit, out=run[1:])
    for k in range(1, read):
        step = runs[k % 2]
        np.multiply(run[:-1], 10, out=step[1:])
        step[1:] += digit
        step[1:] *= is_digit
        run = step
    longer = np.greater_equal(run[1:-1], 10 ** (read - 1), out=mark[:used - 1])
    longer &= is_digit[1:]
    values = runs[read % 2][:cut.size].reshape(cut.shape)   # the other run
    run.take(cut, out=values, mode="clip")
    values = values[:, 1:-1]
    outside = np.greater_equal(values, width, out=flags[:values.size].reshape(values.shape))
    np.copyto(values, -1, where=outside)
    if len(signs) or longer.any():
        first = cut[:, :-2] + 1
        signed = chars.take(first) == 45
        digits = cut[:, 1:-1] - first - signed
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and digits.max() > limit:
            return None
        values[signed | (digits > read)] = -1
    return values, used, close >= 0


def _int_matrix(data: bytes, start: int):
    """(table, end) if the JSON value at byte ``start`` of ``data`` is a
    certified compact square integer matrix (see the module docstring) of
    at most ``MAX_ORDER`` rows, else None.  The table is a read-only int16
    array."""
    if not data.startswith(b"[[", start):
        return None
    pos = start + 1
    width = data.count(b",", pos, data.find(b"]", pos)) + 1
    # width rows of width entries take at least 2 * width**2 bytes
    if width > MAX_ORDER or 2 * width * width > len(data) - pos:
        return None
    # filled block by block, so that the matrix is never held twice
    table, filled, closed = np.empty((width, width), dtype=DTYPE), 0, False
    view = memoryview(data)
    # one work array for every block: a block of rows of entries of at
    # most D digits runs at most one row past its budget
    read = len(str(width - 1))
    row_bytes = (read + 1) * width + 2
    work = np.empty(_work_bytes(read, min(len(data) - pos, _BLOCK_BYTES + row_bytes)), np.uint8)
    while not closed:
        # a block runs to the "," after the first row to end past its budget
        stop = data.find(b"]", pos + _BLOCK_BYTES) + 2
        decoded = _decode_rows(view[pos:stop if stop >= 2 else len(data)], width, work)
        if decoded is None or filled + len(decoded[0]) > width:
            return None
        rows, used, closed = decoded
        table[filled:filled + len(rows)] = rows
        filled += len(rows)
        pos += used
    table.setflags(write=False)
    return (table, pos) if filled == width else None


def _small_value(data: bytes, start: int):
    """(value, end) for the JSON value at byte ``start`` of ``data``, read
    by ``raw_decode`` from a window of the bytes decoded as UTF-8; the
    window grows until the value ends inside it or it holds the rest of
    ``data``.  A ValueError if the value does not start there, or if the
    window holds a byte that is not UTF-8."""
    size = _WINDOW_BYTES
    while True:
        whole = start + size >= len(data)
        text = codecs.utf_8_decode(data[start:start + size], "strict", whole)[0]
        try:
            value, end = _DECODER.raw_decode(text)
            if end < len(text) or whole:   # else it may be a number cut short
                return value, start + len(text[:end].encode())
        except ValueError:
            if whole:
                raise
        size *= 8


def _compact_object(data: bytes):
    """(object, spans) for the top-level object of the file bytes ``data``
    if no whitespace separates its members, every key is an identifier
    written without escapes, every byte is UTF-8 and every ``add``/``mul``
    value is certified, each such value an array and its bytes
    ``data[spans[key]]``; None at anything else, so that the whole file
    is decoded and read as text."""
    if not data.startswith(b'{"'):
        return None
    obj, spans, pos = {}, {}, 1
    try:
        while True:
            end = data.find(b'"', pos + 1)
            key = data[pos + 1:end].decode() if end >= 0 else ""
            if not key.isidentifier() or not data.startswith(b":", end + 1):
                return None
            if key not in ("add", "mul"):
                obj[key], pos = _small_value(data, end + 2)
            elif (matrix := _int_matrix(data, end + 2)) is None:
                return None
            else:   # a repeated key replaces the value and span read before it
                spans[key] = slice(end + 2, matrix[1])
                obj[key], pos = matrix
            if data.startswith(b"}", pos):
                break
            if not data.startswith(b',"', pos):
                return None
            pos += 1
    except (ValueError, RecursionError):  # the whole file's read raises it again, in its words
        return None
    return (obj, spans) if not data[pos + 1:].strip(b" \t\n\r") else None


def _as_int_table(rows, what: str, n: int) -> list | np.ndarray:
    """``rows`` if they make an n x n table of integers, else a ParseError."""
    if not isinstance(rows, np.ndarray):  # an array is certified by _int_matrix
        if not isinstance(rows, list) or not rows:
            raise ParseError(f"{what} table must be a nonempty list of rows")
        width = None
        for row in rows:
            if not isinstance(row, list):
                raise ParseError(f"{what} table rows must be lists")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"{what} table is not rectangular")
            # one type-set test per row; bools (type bool) are refused too
            if not set(map(type, row)) <= {int}:
                raise ParseError(f"{what} table entries must be integers")
    if len(rows) != n or len(rows[0]) != n:
        raise ParseError(f"{what} table is not {n}x{n}")
    return rows


def _structure_file(data: dict, spans: dict) -> StructureFile:
    kind = data.get("kind")
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {KINDS}, got {kind!r}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("n must be a positive integer")
    if "add" not in data:
        raise ParseError("missing add table")
    add = _as_int_table(data["add"], "add", n)
    mul = one = None
    if kind == "loop":
        if "mul" in data or "one" in data:
            raise ParseError("loop files take no mul table or one")
    else:
        if "mul" not in data or "one" not in data:
            raise ParseError(f"{kind} files need mul and one")
        mul = _as_int_table(data["mul"], "mul", n)
        one = data["one"]
        if not isinstance(one, int) or isinstance(one, bool):
            raise ParseError("one must be an integer")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    return StructureFile(kind=kind, n=n, add=add, mul=mul, one=one, meta=meta, spans=spans)


def _in_carrier(row: list, n: int) -> np.ndarray:
    """The integers ``row`` as int64, each outside 0..n-1 (one past int64
    too) as -1, as ``tables.as_table`` reads it."""
    try:
        values = np.array(row, dtype=np.int64)
    except OverflowError:
        values = np.array([v if 0 <= v < n else -1 for v in row], dtype=np.int64)
    values[(values < 0) | (values >= n)] = -1
    return values


def _parse_text(text: str) -> StructureFile:
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in lines if ln]   # not empty: _parse_whole refuses blank text
    head = rows[0].split()
    if len(head) != 2 or head[0] not in KINDS:
        raise ParseError('first line must be "<kind> <n>"')
    kind = head[0]
    try:
        n = int_token(head[1])
    except ValueError:
        raise ParseError(f"bad size {head[1]!r}") from None
    if n < 1:
        raise ParseError("n must be positive")

    def table(chunk, what):
        if len(chunk) < n:
            raise ParseError(f"{what} table needs {n} rows, found {len(chunk)}")
        # each row goes into the table as it is read, so that no table is
        # held as Python ints; past MAX_ORDER, where realize refuses n,
        # the rows stay lists
        lists = n > MAX_ORDER
        out = [None] * n if lists else np.empty((n, n), dtype=DTYPE)
        for i, ln in enumerate(chunk[:n]):
            try:
                row = int_tokens(ln)
            except ValueError as exc:
                raise ParseError(f"non-integer entry in {what} row {ln!r}, {exc}") from None
            if len(row) != n:
                raise ParseError(f"{what} row has {len(row)} entries, expected {n}")
            out[i] = row if lists else _in_carrier(row, n)
        if not lists:
            out.setflags(write=False)
        return out

    add = table(rows[1:], "add")
    rest = rows[1 + n :]
    if kind == "loop":
        if rest:
            raise ParseError(f"unexpected trailing content: {rest[0]!r}")
        return StructureFile(kind=kind, n=n, add=add)
    mul = table(rest, "mul")
    rest = rest[n:]
    if len(rest) != 1 or not rest[0].startswith("one="):
        raise ParseError('expected a final "one=<k>" line')
    try:
        one = int_token(rest[0][4:])
    except ValueError:
        raise ParseError(f"bad identity index {rest[0]!r}") from None
    return StructureFile(kind=kind, n=n, add=add, mul=mul, one=one)


def parse_structure(contents: str | bytes) -> StructureFile:
    """Parse JSON or plain-text structure file contents: the file's bytes,
    or its text.  Bytes that ``_compact_object`` does not certify are
    decoded whole, as ``open`` would; a ValueError if that fails."""
    is_bytes = isinstance(contents, bytes)
    found = _compact_object(contents if is_bytes else contents.encode("utf-8", "surrogatepass"))
    if found:
        return _structure_file(*found)
    return _parse_whole(_text(contents) if is_bytes else contents)


def _parse_whole(text: str) -> StructureFile:
    """A file's whole text, read by ``json.loads`` or the text parser."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty file")
    if stripped[0] != "{":
        return _parse_text(text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return _structure_file(data, {})   # text that starts with "{" decodes to an object


def realize(sf: StructureFile, bounds: Bounds = DEFAULT_BOUNDS):
    """Validate a parsed file into a structure of its declared kind."""
    bounds.check("max_n", sf.n, "structure file")
    if sf.kind == "loop":
        return validate_loop(sf.add)
    if sf.kind == "lnr":
        return validate_lnr(sf.add, sf.mul, sf.one)
    return validate_ring_tables(sf.add, sf.mul, sf.one)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _text(data: bytes) -> str:
    """The file's text, as ``open(path, encoding="utf-8").read()`` gives
    it; a ValueError at a byte that is not UTF-8 or a byte-order mark."""
    text = TextIOWrapper(BytesIO(data), encoding="utf-8").read()
    if text.startswith("\ufeff"):
        raise ValueError("it starts with a UTF-8 byte-order mark")
    return text


def read_text(path: str) -> str:
    data = _read_bytes(path)
    try:
        return _text(data)
    except ValueError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _parse_file(path: str) -> tuple:
    """(file, bytes): the parsed file and, if ``_compact_object`` certified
    its bytes, those bytes, else None.  Read as ``parse_structure`` reads
    them, except that bytes it decodes whole are dropped once decoded, so
    that ``json.loads`` or the text parser runs beside the text alone."""
    data = _read_bytes(path)
    try:
        found = _compact_object(data)
        if found:
            return _structure_file(*found), data
        text = _text(data)
        del data
        return _parse_whole(text), None
    except (ValueError, RecursionError) as exc:  # _text; json: an integer literal past
        # sys.get_int_max_str_digits(), or arrays nested past the recursion limit
        raise ParseError(f"cannot read {path}: {exc}") from None


def read_structure(path: str) -> StructureFile:
    """Read and parse a structure file; its bytes are dropped on return."""
    return _parse_file(path)[0]


def load_structure(path: str, bounds: Bounds = DEFAULT_BOUNDS):
    """Read, parse and validate a structure file.

    Returns (structure, meta).  If every table was certified from the
    file's bytes, validation has put each entry in 0..n-1, so those bytes
    are each table's canonical JSON and the structure hash is taken from
    them.
    """
    sf, data = _parse_file(path)
    structure = realize(sf, bounds)
    if sf.spans:
        fields = _fields(structure)
        fields.update((key, memoryview(data)[span]) for key, span in sf.spans.items())
        # on the frozen structure, as a cached_property would store it
        object.__setattr__(structure, "_file_sha256", _sha256(fields))
    return structure, sf.meta

"""Structure files: canonical JSON on output, JSON or plain text on input.

The JSON form is the interchange format:

    {"kind": "ring", "n": 4, "add": [[...], ...], "mul": [[...], ...],
     "one": 1, "meta": {"name": "cyclic:4"}}

Loops carry no "mul"/"one".  Serialization is canonical: sorted keys,
compact separators, a single trailing newline, UTF-8 untouched.  The
plain-text form is accepted on input only, for hand-written tables:

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

The compact JSON form, as ``generate`` writes it, is also the fast form:
a top-level ``"add"`` or ``"mul"`` value written as ``[[r,r,...],[...]]``
decodes straight into an int64 array, with no Python list in between.
A value takes that route only under a certificate: deleting its digits
and ``-`` leaves exactly the ``[[,...],...]`` skeleton of a rows x width
matrix; no entry is empty; one ``np.fromstring`` call reads exactly
rows * width values, each below 10**17 in absolute value; the ``-``
signs number the negative values; and the digits and signs together are
as many characters as the values' ``str`` forms.  Then every entry is
exactly ``str(v)`` of its value, so the array equals what ``json.loads``
gives.  Everything else (whitespace between members, floats, bools,
longer integers, malformed text) goes through ``json.loads`` as before,
with the same tables, messages and witnesses.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .config import DEFAULT_BOUNDS, Bounds
from .errors import ParseError
from .loops import CayleyLoop, validate_loop
from .nearrings import LoopNearRing, validate_lnr
from .rings import validate_ring_tables
from .tables import KINDS


def kind_of(structure) -> str:
    if not isinstance(structure, (CayleyLoop, LoopNearRing)):
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


def _canonical_chunks(fields: dict):
    """``canonical_json(fields)`` in pieces, each table one row at a time,
    so that writing or hashing it needs O(n) memory beyond the tables."""
    decimal = np.array([str(v) for v in range(fields["n"])], dtype=object)
    for i, key in enumerate(sorted(fields)):
        value = fields[key]
        yield f'{"," if i else "{"}"{key}":'
        if isinstance(value, np.ndarray):
            for r, row in enumerate(value):
                yield f'{",[" if r else "[["}{",".join(decimal[row].tolist())}]'
            yield "]"
        else:
            yield _dumps(value)
    yield "}\n"


def structure_to_dict(structure, meta: dict | None = None) -> dict:
    out = {k: v.tolist() if isinstance(v, np.ndarray) else v
           for k, v in _fields(structure).items()}
    out["meta"] = dict(meta) if meta else {}
    return out


def write_structure(structure, out, meta: dict | None = None) -> None:
    """Write ``dump_structure(structure, meta)`` to ``out`` row by row."""
    for chunk in _canonical_chunks({**_fields(structure), "meta": dict(meta or {})}):
        out.write(chunk)


def dump_structure(structure, meta: dict | None = None) -> str:
    out = StringIO()
    write_structure(structure, out, meta)
    return out.getvalue()


def dump_structure_text(structure) -> str:
    """Serialize to the line-oriented text format the parser accepts."""
    kind = kind_of(structure)
    add = structure.add.tolist()
    lines = [f"{kind} {structure.n}"]
    lines += [" ".join(str(v) for v in row) for row in add]
    if kind != "loop":
        lines += [" ".join(str(v) for v in row) for row in structure.mul.tolist()]
        lines.append(f"one={structure.one}")
    return "\n".join(lines) + "\n"


def structure_sha256(structure) -> str:
    """Identity hash over the algebraic content only (meta excluded).

    The bytes hashed are ``canonical_json`` of ``structure_to_dict``
    without its meta, streamed to ``hashlib`` one table row at a time.
    """
    h = hashlib.sha256()
    for chunk in _canonical_chunks(_fields(structure)):
        h.update(chunk.encode())
    return h.hexdigest()


_DECODER = json.JSONDecoder()
_LIMIT = 10**17


def _int_matrix(text: str, start: int):
    """(int64 array, end) if the JSON value at ``start`` is a certified
    compact integer matrix (see the module docstring), else None."""
    if not text.startswith("[[", start):
        return None
    end = text.find("]]", start) + 2
    span = text[start:end]
    if end < 2 or not span.isascii():
        return None
    span = span.encode()
    skeleton = span.translate(None, b"-0123456789")
    width = skeleton.find(b"]") - 1
    rows = skeleton.count(b"[") - 1
    if len(skeleton) != rows * (width + 2) + 1 or skeleton != (
            b"[" + b",".join([b"[" + b"," * (width - 1) + b"]"] * rows) + b"]"):
        return None
    signed_digits = len(span) - len(skeleton)
    body = span[2:-2].replace(b"],[", b",")
    del span  # one copy of the table text at a time beside the array
    if not body or body.startswith(b",") or body.endswith(b",") or b",," in body:
        return None
    # a lone "-" reads as 0 and 2**63 clamps; NumPy < 2 warns on a short read
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            values = np.fromstring(body, dtype=np.int64, sep=",")
        except ValueError:
            return None
    if values.size != rows * width:
        return None
    low, high = int(values.min()), int(values.max())
    if low <= -_LIMIT or high >= _LIMIT:
        return None
    negatives = np.count_nonzero(values < 0)
    if body.count(b"-") != negatives:
        return None
    magnitude, top = np.abs(values) if negatives else values, max(-low, high)
    # str(v) has one digit more for each power of ten up to |v|, plus its sign
    chars = values.size + negatives + sum(
        np.count_nonzero(magnitude >= 10**k) for k in range(1, 19) if 10**k <= top)
    if signed_digits != chars:
        return None
    return values.reshape(rows, width), end


def _compact_object(text: str) -> dict | None:
    """The top-level object of ``text`` if no whitespace separates its
    members, with each certified ``add``/``mul`` value as an array; None
    at anything else, so that ``json.loads`` decides."""
    if not text.startswith('{"'):
        return None
    data, pos = {}, 1
    try:
        while True:
            key, pos = json.decoder.scanstring(text, pos + 1)
            if not text.startswith(":", pos):
                return None
            matrix = _int_matrix(text, pos + 1) if key in ("add", "mul") else None
            data[key], pos = matrix or _DECODER.raw_decode(text, pos + 1)
            if text.startswith("}", pos):
                break
            if not text.startswith(',"', pos):
                return None
            pos += 1
    except (ValueError, RecursionError):  # json.loads raises it again, in its words
        return None
    return data if not text[pos + 1 :].strip(" \t\n\r") else None


def _as_int_table(rows, what: str) -> list | np.ndarray:
    if isinstance(rows, np.ndarray):  # certified by _int_matrix
        return rows
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
    return rows


def _parse_json(text: str) -> StructureFile:
    data = _compact_object(text)
    if data is None:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {KINDS}, got {kind!r}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("n must be a positive integer")
    if "add" not in data:
        raise ParseError("missing add table")
    add = _as_int_table(data["add"], "add")
    if len(add) != n or len(add[0]) != n:
        raise ParseError(f"add table is not {n}x{n}")
    mul = one = None
    if kind == "loop":
        if "mul" in data or "one" in data:
            raise ParseError("loop files take no mul table or one")
    else:
        if "mul" not in data or "one" not in data:
            raise ParseError(f"{kind} files need mul and one")
        mul = _as_int_table(data["mul"], "mul")
        if len(mul) != n or len(mul[0]) != n:
            raise ParseError(f"mul table is not {n}x{n}")
        one = data["one"]
        if not isinstance(one, int) or isinstance(one, bool):
            raise ParseError("one must be an integer")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    return StructureFile(kind=kind, n=n, add=add, mul=mul, one=one, meta=meta)


def _parse_text(text: str) -> StructureFile:
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in lines if ln]
    if not rows:
        raise ParseError("empty file")
    head = rows[0].split()
    if len(head) != 2 or head[0] not in KINDS:
        raise ParseError('first line must be "<kind> <n>"')
    kind = head[0]
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(f"bad size {head[1]!r}") from None
    if n < 1:
        raise ParseError("n must be positive")

    def table(chunk, what):
        if len(chunk) < n:
            raise ParseError(f"{what} table needs {n} rows, found {len(chunk)}")
        out = []
        for ln in chunk[:n]:
            try:
                row = [int(tok) for tok in ln.split()]
            except ValueError:
                raise ParseError(f"non-integer entry in {what} row {ln!r}") from None
            if len(row) != n:
                raise ParseError(f"{what} row has {len(row)} entries, expected {n}")
            out.append(row)
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
        one = int(rest[0][4:])
    except ValueError:
        raise ParseError(f"bad identity index {rest[0]!r}") from None
    return StructureFile(kind=kind, n=n, add=add, mul=mul, one=one)


def parse_structure(text: str) -> StructureFile:
    """Parse JSON or plain-text structure file contents."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty file")
    if stripped[0] == "{":
        return _parse_json(text)
    return _parse_text(text)


def realize(sf: StructureFile, bounds: Bounds = DEFAULT_BOUNDS):
    """Validate a parsed file into a structure of its declared kind."""
    bounds.check("max_n", sf.n, "structure file")
    if sf.kind == "loop":
        return validate_loop(sf.add)
    if sf.kind == "lnr":
        return validate_lnr(sf.add, sf.mul, sf.one)
    return validate_ring_tables(sf.add, sf.mul, sf.one)


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def load_structure(path: str, bounds: Bounds = DEFAULT_BOUNDS):
    """Read, parse and validate a structure file.

    Returns (structure, meta).
    """
    sf = parse_structure(read_text(path))
    return realize(sf, bounds), sf.meta

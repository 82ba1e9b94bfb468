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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

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
    add: list
    mul: list | None = None
    one: int | None = None
    meta: dict = field(default_factory=dict)


def canonical_json(payload) -> str:
    """Deterministic serialization: sorted keys, compact, one newline."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        + "\n"
    )


def structure_to_dict(structure, meta: dict | None = None) -> dict:
    kind = kind_of(structure)
    if kind == "loop":
        out = {"kind": kind, "n": structure.n, "add": structure.add.tolist()}
    else:
        out = {
            "kind": kind,
            "n": structure.n,
            "add": structure.add.tolist(),
            "mul": structure.mul.tolist(),
            "one": structure.one,
        }
    out["meta"] = dict(meta) if meta else {}
    return out


def dump_structure(structure, meta: dict | None = None) -> str:
    return canonical_json(structure_to_dict(structure, meta))


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
    without its meta; each table goes to ``hashlib`` one row at a time,
    so the hash needs O(n) memory beyond the tables.
    """
    kind = kind_of(structure)
    fields = {"add": structure.add, "kind": kind, "n": structure.n}
    if kind != "loop":
        fields.update(mul=structure.mul, one=structure.one)
    decimal = np.array([str(v) for v in range(structure.n)], dtype=object)
    h = hashlib.sha256()
    for i, key in enumerate(sorted(fields)):
        value = fields[key]
        h.update(f'{"," if i else "{"}"{key}":'.encode())
        if isinstance(value, np.ndarray):
            for r, row in enumerate(value):
                h.update(f'{",[" if r else "[["}{",".join(decimal[row].tolist())}]'.encode())
            h.update(b"]")
        else:
            h.update(json.dumps(value).encode())
    h.update(b"}\n")
    return h.hexdigest()


def _as_int_table(rows, what: str) -> list:
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
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def load_structure(path: str, bounds: Bounds = DEFAULT_BOUNDS):
    """Read, parse and validate a structure file.

    Returns (structure, meta).
    """
    sf = parse_structure(read_text(path))
    return realize(sf, bounds), sf.meta

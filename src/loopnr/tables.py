"""Low-level Cayley-table kernels and ``AXIOMS``, the one axiom table.

All structure axioms reduce to pointwise identities between gathered
copies of the operation tables.  The four cubic laws (associativity of
``*`` and of ``+``, both distributive laws) are decided on a generating
set S of the multiplicative or additive magma, from
``lattice.ClosureSystem.generating_set``, in O(|S| n^2): the elements
where such a law holds are closed under the operation (Light's test
for associativity).  In a ring scan whose loop rows held, route P
decides associativity of ``*``, both distributive laws and
commutativity of ``+`` from S+ alone (``Lights.additive_route``).  A
table that fails it, and every near-ring scan, decides each law in
its own row: a distributive law at S+ if ``+`` is associative, else at
S* if ``*`` is.  Left distributivity at S+ is one pass that finds the
least row whose map x -> a*x is not additive
(``_first_nonadditive_row``): none means the law holds, else that row
alone is scanned for the least witness.  No pass runs at the
operation's two-sided identity, 0 for ``+`` or ``one`` for ``*`` (a
distributive pass keeps 0 unless the loop rows held).  Light's test
runs at each member as it is grown, so a failing table grows little
of its set.  Per-member passes gather ``add`` through one flat index
(``_sum``).  Only a law that fails is scanned again, in blocks of 1,
2, 4, ... rows, so the O(n^3) search stays vectorized without
materializing an (n, n, n) cube and finds the lexicographically least
violating tuple.  Witnesses and error messages therefore do not
depend on S or on the route.

Six rows of ``AXIOMS`` are laws, identities in ``+`` and ``*``.  A law
holds in every substructure and homomorphic image of a structure that
satisfies it (Birkhoff), so a subset of a certified structure under
its own tables, or its quotient by a certified ideal, is certified by
the other rows alone: entries in range (closure), the Latin square,
the two-sided zero and the identity, all O(n^2).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import errors
from .lattice import ClosureSystem

DTYPE = np.int16
MAX_ORDER = int(np.iinfo(DTYPE).max) + 1   # the most elements a DTYPE table can index

# Block budget: at most ~4M table entries live per intermediate array.
_BLOCK_ELEMS = 1 << 22
# Entries per chunk of a flat gather (``_sum``): its 64 KiB intp index
# stays below glibc's 128 KiB mmap threshold, so the chunks reuse heap
_FLAT_ENTRIES = 1 << 13


def all_integers(values) -> bool:
    """Whether every value is an int or a numpy integer.

    A bool, float or string is refused rather than truncated or read
    as 0/1; ``as_table`` and the map and family validators share it.
    """
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


def as_table(obj) -> np.ndarray:
    """Coerce to a read-only square int16 array in C order (``_sum``
    gathers from its flat view).

    The range check runs on the raw entries, before narrowing: an entry
    outside 0..n-1 becomes -1, so no value can wrap into the carrier,
    and the entries-in-range rows of ``AXIOMS`` still reject the table.
    A table that already is such an array, its entries in -1..n-1 (as
    ``io`` decodes a file's tables), is returned as it is.
    """
    if (isinstance(obj, np.ndarray) and obj.dtype == DTYPE and not obj.flags.writeable
            and obj.flags.c_contiguous and obj.ndim == 2 and obj.shape[0] == obj.shape[1] > 0
            and obj.min() >= -1 and obj.max() < len(obj)):
        return obj
    try:
        arr = np.asarray(obj)
    except ValueError:
        raise ValueError("expected a square n x n table, got ragged rows") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"expected a square n x n table with n >= 1, got shape {arr.shape}")
    # entries beyond int64 arrive as an object array of Python ints, or as
    # floats when they fit uint64 and smaller ones sit beside them
    if arr.dtype.kind == "f":
        arr = np.asarray(obj, dtype=object)
    if not (np.issubdtype(arr.dtype, np.integer)
            or arr.dtype == object and all_integers(arr.flat)):
        raise ValueError("table entries must be integers")
    outside = (arr < 0) | (arr >= arr.shape[0])
    if arr.dtype == object:
        arr = np.where(outside, -1, arr)
    out = arr.astype(DTYPE, order="C")
    out[outside] = -1
    out.setflags(write=False)
    return out


def positions(carrier, n: int) -> np.ndarray:
    """Lookup array over 0..n-1: the position of each member of the
    ascending ``carrier``, -1 for every other element."""
    lookup = np.full(n, -1, dtype=np.int64)
    lookup[np.asarray(carrier, dtype=np.int64)] = np.arange(len(carrier))
    return lookup


def distinct(values, n: int) -> np.ndarray:
    """The distinct entries of ``values``, all in 0..n-1, ascending."""
    return np.flatnonzero(np.bincount(np.ravel(values), minlength=n))


def latin_witness(table: np.ndarray):
    """First row, then column, that is not a permutation of 0..n-1.

    Entries must lie in 0..n-1.  Returns None, or ("row"|"col", index,
    least value repeated in that line).
    """
    n = table.shape[0]
    for name, lines in (("row", table), ("col", table.T)):
        bad = (np.sort(lines, axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            return (name, i, int(np.argmax(np.bincount(lines[i], minlength=n) > 1)))
    return None


def _blocks(row_elems: int) -> int:
    """Rows per block when each row gathers ``row_elems`` entries."""
    return max(1, _BLOCK_ELEMS // max(row_elems, 1))


def _first_bad(n: int, block, start: int = 0):
    """Least (a, b, c) with a >= ``start`` where the gathers ``block(rows)``
    disagree, else None.

    ``block(rows)`` returns the (lhs, rhs) pair of (B, n, n) gathers for
    the rows a in the slice ``rows``; neither outlives the comparison.
    Blocks grow 1, 2, 4, ... rows up to the block budget, so a witness
    at row a costs O((a - start + 1) n^2).
    """
    cap = _blocks(n * n)
    a0, step = start, 1
    while a0 < n:
        bad = np.not_equal(*block(slice(a0, a0 + step)))
        if bad.any():
            i, b, c = np.argwhere(bad)[0]
            return (a0 + int(i), int(b), int(c))
        a0, step = a0 + step, min(2 * step, cap)
    return None


def _agree(n: int, pair) -> bool:
    """Whether the (B, n) gathers ``pair(rows)`` agree on every block of rows."""
    step = _blocks(n)
    return all(np.array_equal(*pair(slice(r, r + step))) for r in range(0, n, step))


class Light:
    """Light's associativity test of one table, run once, on first use.

    The s with x(sy) = (xs)y for all x, y are closed under the
    operation, so associativity at each member of a generating set is
    associativity everywhere.  At a two-sided identity of the table the
    law holds identically, so it is skipped (``moving``).  ``violations``
    hands one ``Light`` of each table to every row that needs its
    verdict, so one scan grows at most one generating set of ``*`` and
    one of ``+``, greedily, up to the first member that fails.  ``loop``
    says the table is a loop's (its loop rows held): every row is a
    permutation, so every rank is n and the set is grown in index
    order, unranked.
    """

    def __init__(self, op: np.ndarray, loop: bool = False):
        self.op = op
        self.loop = loop
        self._members = []
        self._identity = None   # the two-sided identity, once grown

    def moving(self) -> list:
        """The members other than the table's two-sided identity, once
        ``generators`` has grown them."""
        return [s for s in self._members if s != self._identity]

    @cached_property
    def generators(self):
        """A generating set of the magma if it is associative, else None.

        Each member is tested as it is grown, so a failure at the first
        grows no more of the set.
        """
        op = self.op
        for s in ClosureSystem(len(op), (op,)).generating_set(ranked=not self.loop):
            self._members.append(s)
            if self._identity is None and identity_witness(op, s) is None:
                self._identity = s
            # [x, y] = op[x, op[s, y]] and op[op[x, s], y]
            elif not _agree(len(op), lambda rows: (op[rows][:, op[s]], op[op[rows, s]])):
                return None
        return tuple(self._members)


class Lights:
    """One scan's ``Light`` of ``*`` and, if the scan reaches the ring
    rows, of ``+`` (else None), and route P's verdict on them."""

    def __init__(self, mul: Light, add: Light | None = None):
        self.mul, self.add = mul, add

    def additive_passes(self):
        """The members of S+ that a distributive pass runs at if ``+`` is
        certified associative, else None.  With the loop rows held 0 is
        left out: in a finite loop a nonempty subset closed under ``+``
        holds 0 (translation by a member maps it into itself
        injectively, hence onto)."""
        if self.add is None or self.add.generators is None:
            return None
        return self.add.moving() if self.add.loop else self.add.generators

    @cached_property
    def additive_route(self) -> bool:
        """Route P: whether ``+`` is commutative, ``*`` associative and
        both distributive laws hold, decided at S+ alone.  Asked only by
        those four rows, which follow the range rows; False leaves each
        row to its own scan.

        Taken only for a ``+`` that is a loop's (``add.loop``).  Every
        set below is nonempty and closed under ``+``, so 0 is skipped
        (see ``additive_passes``):

        * right distributivity at a in S+: the a with (a+b)*c = a*c + b*c
          for all b, c are closed under an associative ``+``.  S+ grown
          unranked starts 0, 1, and the pass at 1 reads every entry of
          ``mul``, so it runs first: a corrupted table fails there,
          before any set is grown;
        * ``+`` commutative, and Light's test of ``+`` at S+, which the
          next two arguments need;
        * left distributivity at a, b in S+: for a fixed a the b with
          a*(b+c) = a*b + a*c for all c are closed under ``+``, so x -> a*x
          is additive; given right distributivity and a commutative ``+``,
          (a+a')*(b+c) = (a*b + a'*b) + (a*c + a'*c), so the a with an
          additive map are closed under ``+`` too.  O(|S+|^2 n);
        * associativity of ``*`` on S+^3: given both distributive laws the
          associator (xy)z - x(yz) is additive in each argument, so the x
          where it vanishes for given y, z are closed under ``+``, then the
          y for every x, then the z.

        No Light's test of ``*`` runs, and no set of ``*`` is grown.
        """
        if self.add is None or not self.add.loop:
            return False
        add, mul = self.add.op, self.mul.op
        n = len(add)
        if n > 1 and not _agree(n, _right_at(add, mul, 1)):
            return False
        if comm_witness(add) is not None or self.add.generators is None:
            return False
        s = np.asarray(self.additive_passes(), dtype=np.intp)
        if not all(_agree(n, _right_at(add, mul, a)) for a in s[1:]):
            return False
        if _first_nonadditive_row(mul[s], add, s) is not None:
            return False
        # [x, y, z] = (xy)z and x(yz), for x, y, z in S+
        xy = mul[s[:, None], s]
        return np.array_equal(mul[xy[:, :, None], s], mul[s[:, None, None], xy])


def _sum(add: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """add[x, y] for index arrays that broadcast to (rows, n), through one
    flat index, which numpy takes two to three times as fast as two index
    arrays.  Past ``_FLAT_ENTRIES`` table entries the intp index is built
    a few rows at a time, so it stays small beside the int16 result.
    Entries lie in 0..n-1 (the range rows stop a scan before any pass),
    so no index is clipped.
    """
    n, flat = len(add), add.reshape(-1)
    if n * n <= _FLAT_ENTRIES:
        return flat.take(np.multiply(x, n, dtype=np.intp) + y)
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape, dtype=add.dtype)
    step = max(1, _FLAT_ENTRIES // n)
    for r in range(0, len(out), step):
        index = np.multiply(x[r:r + step], n, dtype=np.intp) + y[r:r + step]
        flat.take(index, out=out[r:r + step], mode="clip")
    return out


def _take(v: np.ndarray, index: np.ndarray) -> np.ndarray:
    """v[index] by ``take``, ``_FLAT_ENTRIES`` entries at a time, so that
    numpy's intp copy of the int16 index stays small.  Entries lie in
    0..n-1, so none is clipped."""
    out = np.empty(index.shape, dtype=v.dtype)
    flat, dest = index.reshape(-1), out.reshape(-1)
    for r in range(0, len(flat), _FLAT_ENTRIES):
        v.take(flat[r:r + _FLAT_ENTRIES], out=dest[r:r + _FLAT_ENTRIES], mode="clip")
    return out


def _endomorphism(add: np.ndarray, v: np.ndarray):
    """The ``_agree`` pair of v(a + b) and v(a) + v(b), rows a."""
    v = np.ascontiguousarray(v)
    return lambda rows: (_take(v, add[rows]), add[v[rows]][:, v])


def _first_nonadditive_row(mul: np.ndarray, add: np.ndarray, plus):
    """Least a whose row map x -> a*x is not additive at some s in
    ``plus``, else None (given the rows ``mul[s]``, a indexes s).

    With ``+`` associative the x where a map is additive are closed
    under ``+``, so at ``Lights.additive_passes`` None decides left
    distributivity, else the least a with a*(b+c) != a*b + a*c for
    some b, c is returned.  One pass over row blocks, all of ``plus``
    at once: O(|plus| n^2).
    """
    s = np.asarray(plus, dtype=np.intp)
    step = _blocks(len(s) * len(add))
    for r in range(0, len(mul), step):
        m = mul[r:r + step]
        # [a, i, c] = a*(s_i + c) and a*s_i + a*c
        bad = (m[:, add[s]] != add[m[:, s, None], m[:, None, :]]).any(axis=(1, 2))
        if bad.any():
            return r + int(np.argmax(bad))
    return None


def assoc_witness(op: np.ndarray, light: Light | None = None):
    """First (a, b, c) with (a op b) op c != a op (b op c), else None.

    ``light`` is a ``Light(op)`` shared with other rows, if any.
    """
    if (light or Light(op)).generators is not None:
        return None
    # [i,b,c] = op[op[a,b], c] and op[a, op[b,c]]
    return _first_bad(len(op), lambda rows: (op[op[rows]], op[rows][:, op]))


def _right_at(add: np.ndarray, mul: np.ndarray, a: int):
    """The ``_agree`` pair of (a+b)*c and a*c + b*c, rows b."""
    return lambda rows: (mul[add[a, rows]], _sum(add, mul[a], mul[rows]))


def right_dist_witness(add: np.ndarray, mul: np.ndarray, lights: Lights | None = None):
    """First (a, b, c) with (a+b)*c != a*c + b*c, else None.

    ``lights`` are the scan's shared ``Lights``; alone, both are built.
    The law is decided at S+ if ``+`` is associative: the a with
    (a+b)*c = a*c + b*c for all b, c are closed under ``+``.  Else it is
    decided at S* if ``*`` is: the s whose map x -> x*s is additive are
    closed under ``*``, and the identity map of ``one`` is additive, so
    ``one`` is skipped.  Only a law that fails is scanned again.
    """
    lights = lights or Lights(Light(mul), Light(add))
    n, plus = len(add), lights.additive_passes()
    if plus is not None:
        holds = all(_agree(n, _right_at(add, mul, a)) for a in plus)
    else:
        holds = lights.mul.generators is not None and all(
            _agree(n, _endomorphism(add, mul[:, s])) for s in lights.mul.moving())
    if holds:
        return None
    # [i,b,c] = mul[a+b, c] and (a*c) + (b*c)
    return _first_bad(n, lambda rows: (mul[add[rows]],
                                       add[mul[rows][:, None, :], mul[None, :, :]]))


def left_dist_witness(add: np.ndarray, mul: np.ndarray, lights: Lights | None = None):
    """First (a, b, c) with a*(b+c) != a*b + a*c, else None.

    With ``+`` associative one pass, ``_first_nonadditive_row`` at S+,
    both decides the law and finds the least row whose map is not
    additive, which holds the least witness, so only that row is
    scanned.  Else the law is decided at S* if ``*`` is associative (the
    s whose map x -> s*x is additive are closed under ``*``, and ``one``
    is skipped), and a failing law is scanned in growing row blocks.
    """
    lights = lights or Lights(Light(mul), Light(add))
    n, plus = len(add), lights.additive_passes()
    if plus is not None:
        start = _first_nonadditive_row(mul, add, plus)
        if start is None:
            return None
    elif lights.mul.generators is not None and all(
            _agree(n, _endomorphism(add, mul[s])) for s in lights.mul.moving()):
        return None
    else:
        start = 0
    # [i,b,c] = mul[a, b+c] and a*b + a*c
    return _first_bad(n, lambda rows: (mul[rows][:, add],
                                       add[mul[rows][:, :, None], mul[rows][:, None, :]]), start)


_TILE = 256   # side of the square blocks ``comm_witness`` compares


def comm_witness(op: np.ndarray):
    """First (a, b) with a op b != b op a, else None.

    Compares each ``_TILE``-square block on and above the diagonal with
    its transposed partner, both read in cache, band by band of rows.
    The mismatches are symmetric, so the least one, (a, b), has a < b and
    its band is the first that holds one in these blocks; only that band
    is compared whole.
    """
    n = len(op)
    for lo in range(0, n, _TILE):
        rows = slice(lo, lo + _TILE)
        if all(np.array_equal(op[rows, c:c + _TILE], op[c:c + _TILE, rows].T)
               for c in range(lo, n, _TILE)):
            continue
        a, b = np.argwhere(op[rows, lo:] != op[lo:, rows].T)[0]
        return (lo + int(a), lo + int(b))
    return None


def identity_witness(op: np.ndarray, e: int):
    """First element a with e op a != a or a op e != a, else None."""
    n = op.shape[0]
    want = np.arange(n, dtype=DTYPE)
    bad = (op[e] != want) | (op[:, e] != want)
    if bad.any():
        return int(np.argmax(bad))
    return None


def _outside(table: np.ndarray):
    # as_table marks out-of-range entries -1; the failure has no witness
    return () if (table < 0).any() else None


def _first(bad: np.ndarray):
    return (int(np.argmax(bad)),) if bad.any() else None


def _single(w):
    return None if w is None else (w,)


class Axiom(NamedTuple):
    # ``witness(add, mul, one, lights)`` is None when the law holds, else
    # a tuple; ``lights`` are the scan's one ``Lights``;
    # ``message`` is formatted with its entries and ``one``, and its
    # ``shown`` entries are the least witness.  A ``stop`` row is one that
    # later rows index through, so its failure ends the scan.  A ``law``
    # row is an identity in + and *, inherited by derived structures.
    error: type
    kind: str
    witness: Callable
    message: str
    stop: bool = False
    shown: slice = slice(None)
    law: bool = False


KINDS = ("loop", "lnr", "ring")

# Every axiom of a loop, loop near-ring and ring, in scan order.  A row
# applies to its kind and to every later kind in KINDS.
AXIOMS = (
    Axiom(errors.EntriesOutOfRange, "loop", lambda add, mul, one, lights: _outside(add),
          "add entries outside 0..n-1", stop=True),
    Axiom(errors.NotLatinSquare, "loop", lambda add, mul, one, lights: latin_witness(add),
          "duplicate {2} in add {0} {1}", shown=slice(1, None)),
    Axiom(errors.NoTwoSidedZero, "loop",
          lambda add, mul, one, lights: _single(identity_witness(add, 0)),
          "0 is not a two-sided zero"),
    Axiom(errors.EntriesOutOfRange, "lnr", lambda add, mul, one, lights: _outside(mul),
          "mul entries outside 0..n-1", stop=True),
    Axiom(errors.NotIdentity, "lnr",
          lambda add, mul, one, lights: None if 0 <= one < len(mul) else (one,),
          "identity index {one} outside the carrier", stop=True),
    Axiom(errors.NotIdentity, "lnr",
          lambda add, mul, one, lights: _single(identity_witness(mul, one)),
          "{one} is not a two-sided multiplicative identity"),
    Axiom(errors.MulNotAssociative, "lnr",
          lambda add, mul, one, lights:
              None if lights.additive_route else assoc_witness(mul, lights.mul),
          "multiplication is not associative", law=True),
    Axiom(errors.RightDistributivityFails, "lnr",
          lambda add, mul, one, lights:
              None if lights.additive_route else right_dist_witness(add, mul, lights),
          "(a+b)*c != a*c + b*c", law=True),
    Axiom(errors.ZeroNotLeftAbsorbing, "lnr", lambda add, mul, one, lights: _first(mul[0] != 0),
          "0*n != 0", law=True),
    Axiom(errors.AdditionNotAbelianGroup, "ring",
          lambda add, mul, one, lights: None if lights.additive_route else comm_witness(add),
          "addition is not commutative", law=True),
    Axiom(errors.AdditionNotAbelianGroup, "ring",
          lambda add, mul, one, lights: assoc_witness(add, lights.add),
          "addition is not associative", law=True),
    Axiom(errors.LeftDistributivityFails, "ring",
          lambda add, mul, one, lights:
              None if lights.additive_route else left_dist_witness(add, mul, lights),
          "c*(a+b) != c*a + c*b", law=True),
)


def violations(add, mul=None, one=None, start: str = "loop", kind: str = "ring",
               laws: bool = True):
    """Yield (error class, message, witness) for each failing row of AXIOMS.

    Scans the rows of kinds ``start`` through ``kind``, in order, on
    tables from ``as_table``; a witness is None or a tuple.  The rows
    after the loop rows share one ``Lights``: one ``Light(mul)`` and, if
    the scan reaches the ring rows, one ``Light(add)``, so each test runs
    and each generating set grows at most once per scan.  In a ring scan
    whose loop rows held (as they have when ``start`` is "lnr"), the
    rows of the three cubic laws of ``*`` and of ``+`` commutative first
    ask route P (``Lights.additive_route``), which may certify all four
    at once.  With ``laws`` False the law
    rows are skipped: the tables are derived from a structure that
    already satisfies them.
    """
    kinds = KINDS[KINDS.index(start):KINDS.index(kind) + 1]
    held, lights = True, None
    for row in AXIOMS:
        if row.kind not in kinds or row.law and not laws:
            continue
        if lights is None and row.kind != "loop":
            lights = Lights(Light(mul), Light(add, held) if "ring" in kinds else None)
        found = row.witness(add, mul, one, lights)
        if found is not None:
            held = False
            yield row.error, row.message.format(*found, one=one), tuple(found[row.shown]) or None
            if row.stop:
                return


def require(add, mul=None, one=None, start: str = "loop", kind: str = "ring",
            laws: bool = True) -> None:
    """Raise the first failing row of ``violations`` as its error class."""
    for error, message, witness in violations(add, mul, one, start, kind, laws):
        raise error(message, witness=witness)


def mixed_radix_weights(radices) -> np.ndarray:
    """Row-major weights: first digit is the most significant."""
    w = np.ones(len(radices), dtype=np.int64)
    for i in range(len(radices) - 2, -1, -1):
        w[i] = w[i + 1] * radices[i + 1]
    return w


def decode_all(count: int, radices) -> np.ndarray:
    """Digit matrix of shape (count, len(radices)), row-major digits."""
    w = mixed_radix_weights(radices)
    idx = np.arange(count, dtype=np.int64)
    digits = (idx[:, None] // w[None, :]) % np.asarray(radices, dtype=np.int64)[None, :]
    return digits.astype(DTYPE)

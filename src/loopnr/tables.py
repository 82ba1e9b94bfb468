"""Low-level Cayley-table kernels and ``AXIOMS``, the one axiom table.

All structure axioms reduce to pointwise identities between gathered
copies of the operation tables.  A ring scan first asks its coordinate
certificate (``Lights``): ``+`` is Z_m1 x ... x Z_mk along a basis that
a greedy search finds, ``*`` passes one spanning-tree pass, and two
closure arguments run at the basis, all in O(n^2).  A ring scan from
the loop rows asks for the basis at the Latin row, once the rows of
``+`` are sorted: a group's table is a Latin square, so the basis
stands in for the column sort (``latin_witness``), and the law rows
reuse it.  Loops and near-rings sort both orientations.  Otherwise
each law is decided in its own row, at a generating set S* of ``*`` from
``lattice.ClosureSystem.generating_set`` if Light's test finds ``*``
associative (the elements where a law holds are closed under ``*``);
with ``+`` certified, one pass at the basis finds the least row whose
map x -> a*x is not additive (``_first_nonadditive_row``).  Only a law
that fails is scanned again, in blocks of 1, 2, 4, ... rows, so the
O(n^3) search stays vectorized without materializing an (n, n, n) cube
and finds the lexicographically least violating tuple, on any route.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import errors
from .lattice import ClosureSystem

DTYPE = np.int16
MAX_ORDER = int(np.iinfo(DTYPE).max) + 1   # the most elements a DTYPE table can index

# Block budget: table entries per intermediate array of a blocked pass.
# A pass over an order-625 table runs in blocks of 104 rows, whose
# 128 KiB int16 gathers the heap hands back block after block; one block
# of the whole table made 781 KiB gathers of fresh pages on every pass.
# Of 1 << 15 to 1 << 18, 1 << 16 ran perfbench ``construct`` fastest and
# slowed no ``scripts/bench.py`` command beyond its spread.
_BLOCK_ELEMS = 1 << 16
# Entries per chunk of a flat gather (``_take``): its 64 KiB intp index
# stays below glibc's 128 KiB mmap threshold, so the chunks reuse heap
_FLAT_ENTRIES = 1 << 13


def _is_integer(v) -> bool:
    """Whether ``v`` is an int or a numpy integer: a bool, float or string
    is refused rather than truncated or read as 0/1."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def all_integers(values) -> bool:
    """Whether every value is an integer (``_is_integer``); ``as_table``
    and the map validator share it, and ``loops._elements`` its test."""
    return all(map(_is_integer, values))


def as_table(obj) -> np.ndarray:
    """Coerce to a read-only square int16 array in C order (``Lights.right``
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
    return np.bincount(np.ravel(values), minlength=n).nonzero()[0]


def _first_repeat(lines: np.ndarray):
    """(i, least value repeated in line i) for the first of ``lines`` that
    is not a permutation of 0..n-1, by one sort of them all, else None."""
    n = lines.shape[1]
    bad = (np.sort(lines, axis=1) != np.arange(n)).any(axis=1)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return (i, int(np.argmax(np.bincount(lines[i], minlength=n) > 1)))


def latin_witness(table: np.ndarray, lights: Lights | None = None):
    """First row, then column, that is not a permutation of 0..n-1.

    Entries must lie in 0..n-1.  Returns None, or ("row"|"col", index,
    least value repeated in that line).  Once every row is a
    permutation, the ``basis`` of ``lights`` (a ring scan's, whose ``+``
    is ``table``) stands in for the column sort: it certifies ``table``
    as a group's, whose columns are permutations.  The rows are sorted
    first, as on a table that fails the certificate the failing row
    sort is the cheaper of the two.
    """
    found = _first_repeat(table)
    if found is not None:
        return ("row", *found)
    if lights is not None and lights.basis is not None:
        return None
    found = _first_repeat(table.T)
    return None if found is None else ("col", *found)


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
    return all(np.equal(*pair(slice(r, r + step))).all() for r in range(0, n, step))


class Light:
    """Light's associativity test of one table, run once, on first use.

    The s with x(sy) = (xs)y for all x, y are closed under the
    operation, so associativity at each member of a generating set is
    associativity everywhere.  At a two-sided identity of the table the
    law holds identically, so it is skipped (``moving``).  ``violations``
    hands one ``Light`` of each table to every row that needs it, so one
    scan grows each generating set at most once, up to its first failure.
    """

    def __init__(self, op: np.ndarray):
        self.op = op
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
        for s in ClosureSystem(len(op), (op,)).generating_set():
            self._members.append(s)
            if self._identity is None and identity_witness(op, s) is None:
                self._identity = s
            # [x, y] = op[x, op[s, y]] and op[op[x, s], y]
            elif not _agree(len(op), lambda rows: (op[rows][:, op[s]], op[op[rows, s]])):
                return None
        return tuple(self._members)


class Basis(NamedTuple):
    """``+`` in coordinates: phi[t] = d_1 g_1 + ... + d_k g_k, summed left
    to right, for the digits d_i = t // s_i % m_i of t, where s_i = m_1
    ... m_(i-1), the g_i are ``generators`` and the m_i ``orders``."""
    generators: tuple
    orders: tuple
    phi: np.ndarray


def _times(add: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """m x for each x in ``v`` (m >= 1), by doubling."""
    out = v if m & 1 else None
    while m := m >> 1:
        v = add[v, v]
        if m & 1:
            out = v if out is None else add[out, v]
    return out


def _search(add: np.ndarray) -> Basis | None:
    """A basis of ``+``, found as if ``+`` were an abelian group G, or None.

    With H the span so far, take the first x of greatest order m modulo
    H, and move it within x + H to a g with m g = 0: H has a complement
    in G, x's part there is one, and any such g has order m, so H + <g>
    is direct.  The p-part of x's order modulo H is the least p^a with
    p^a (q / p^e) x in H, for p^e exactly dividing q = |G/H|.
    """
    n = len(add)
    phi, found = np.zeros(1, dtype=add.dtype), []   # H in digit order, and (g_i, m_i)
    while len(phi) < n:
        inside = np.bincount(phi, minlength=n) > 0
        q, p, order = n // len(phi), 2, np.ones(n, dtype=np.int64)
        while q > 1:
            p, e = next(d for d in range(p, q + 1) if q % d == 0), 0   # q's least prime factor
            while q % p == 0:
                q, e = q // p, e + 1
            y = _times(add, np.arange(n, dtype=add.dtype), n // len(phi) // p ** e)
            for _ in range(e):
                outside = ~inside[y]
                if not outside.any():   # every p y then lies in H too
                    break
                order[outside] *= p
                y = _times(add, y, p)
        m = int(order.max())
        coset = add[np.argmax(order), phi]   # x + H, x the first of order m modulo H
        g = coset[_times(add, coset, m) == 0][:1] if m > 1 else coset[:0]
        if not g.size:
            return None
        multiples = np.zeros(1, dtype=add.dtype)   # 0, g, 2g, ...: each doubling adds L g to all L
        while len(multiples) < m:
            multiples = np.concatenate([multiples, add[multiples, add[multiples[-1], g]]])
        phi = add[phi, multiples[:m, None]].reshape(-1)   # phi[j s + t] = phi[t] + j g
        found.append((int(g[0]), m))
    return Basis(tuple(g for g, _ in found), tuple(m for _, m in found), phi)


def _along_tree(basis: Basis, pair) -> bool:
    """Whether ``pair(rows, parents, g)`` agree, in blocks of 16K entries, on
    rows phi[t], parents phi[t - s_i] and g_i for t = 1 .. n-1 with last
    nonzero digit i, and for t = m_i s_i (row 0), closing g_i's cycle."""
    s, step, phi = 1, _blocks(4 * len(basis.phi)), basis.phi
    for g, m in zip(basis.generators, basis.orders):
        for t in range(s, m * s + 1, step):
            t = np.arange(t, min(t + step, m * s + 1))
            if not np.equal(*pair(phi[t % (m * s)], phi[t - s], g)).all():
                return False
        s *= m
    return True


class Lights:
    """One scan's ``Light`` of ``*`` and, in a ring scan whose loop rows
    held, of ``+`` (else None), and the ring's coordinate certificate:
    ``basis``, which a scan from the loop rows asks for at the Latin
    row, then ``right`` and ``ring``."""

    def __init__(self, mul: Light | None, add: Light | None = None):
        self.mul, self.add = mul, add

    @cached_property
    def basis(self) -> Basis | None:
        """The basis ``_search`` finds, if ``+`` is Z_m1 x ... x Z_mk
        along it, else None.

        Let A[t, u] = psi(phi(t) + phi(u)), psi the inverse of phi, C that
        group's table and T_i its unit step in digit i.  Row 0 of ``add``
        is the identity, so A[0] = C[0] and g_i = phi(s_i); row phi(t) is
        row phi(t - s_i) followed by phi T_i psi, so A[t] = T_i A[t - s_i]
        as in C, and A = C, by one pass.  phi must be one to one; for the
        phi of ``_search``, with phi(0) = 0, the pass implies it (g_1's
        closing edge equates row 0, all of 0..n-1, with values of phi),
        but the check stays for a phi that starts elsewhere."""
        basis = None if self.add is None else _search(self.add.op)
        if basis is None:
            return None
        add, phi = self.add.op, basis.phi
        t = np.arange(len(add))
        if not np.array_equal(np.sort(phi), t):   # phi is one to one
            return None
        psi, s, steps = np.argsort(phi), 1, {}
        for g, m in zip(basis.generators, basis.orders):
            steps[g] = phi[(t + s - m * s * (t // s % m == m - 1))[psi]]   # phi T_i psi
            s *= m
        return basis if np.array_equal(add[0], t) and _along_tree(basis, lambda rows, parents, g: (
            add[rows], _take(steps[g], add[parents]))) else None

    @cached_property
    def right(self) -> bool:
        """Right distributivity once ``basis`` is certified: each row phi(t)
        of ``mul`` is the sum of rows phi(t - s_i) and g_i, so row 0 is 0
        (t = s_1), m_i (g_i c) = 0 (closing edges) and x -> x*c is d ->
        sum d_i (g_i c) read through psi, additive.  Each is necessary."""
        add, mul = self.add.op, self.mul.op
        return _along_tree(self.basis, lambda rows, parents, g: (mul[rows], add.reshape(-1)[
            np.multiply(mul[parents], len(add), dtype=np.intp) + mul[g]]))

    @cached_property
    def ring(self) -> bool:
        """Whether ``*`` is associative and both distributive laws hold:
        ``basis``, ``right``, then two closure arguments at the basis B
        of ``+``.

        * Left distributivity on B^2: the b with a*(b+c) = a*b + a*c for
          all c are closed under ``+``, and so are the a whose x -> a*x is
          additive, as (a+a')*(b+c) = (a*b + a'*b) + (a*c + a'*c).
        * Associativity on B^3: the associator (xy)z - x(yz) is additive
          in each argument, so the x where it vanishes for given y, z are
          closed under ``+``, then the y for every x, then the z.
        """
        if self.basis is None or not self.right:
            return False
        add, mul, g = self.add.op, self.mul.op, np.asarray(self.basis.generators, dtype=np.intp)
        xy = mul[g[:, None], g]   # [x, y, z] = (xy)z and x(yz)
        return (_first_nonadditive_row(mul[g], add, g) is None
                and np.array_equal(mul[xy[:, :, None], g], mul[g[:, None, None], xy]))


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
    under ``+``, so at a certified basis of ``+`` None decides left
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


def assoc_witness(op: np.ndarray, light: Light | Basis | None = None):
    """First (a, b, c) with (a op b) op c != a op (b op c), else None.

    ``light`` is a ``Light(op)`` shared with other rows, or a certified
    ``Basis`` of ``op``, whose generators stand in for Light's, if any.
    """
    if (light or Light(op)).generators is not None:
        return None
    # [i,b,c] = op[op[a,b], c] and op[a, op[b,c]]
    return _first_bad(len(op), lambda rows: (op[op[rows]], op[rows][:, op]))


def right_dist_witness(add: np.ndarray, mul: np.ndarray, lights: Lights | None = None):
    """First (a, b, c) with (a+b)*c != a*c + b*c, else None.

    ``lights`` are the scan's shared ``Lights``; alone, they are built.
    The law is decided by ``Lights.right`` if ``+`` is certified, else at
    S* if ``*`` is associative: the s whose map x -> x*s is additive are
    closed under ``*``, and ``one``'s is, so it is skipped.  Only a law
    that fails is scanned again.
    """
    lights = lights or Lights(Light(mul), Light(add))
    n = len(add)
    if lights.basis is not None:
        holds = lights.right
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

    With ``+`` certified one pass at its basis, ``_first_nonadditive_row``,
    decides the law and finds the least row whose map is not additive,
    which holds the least witness, so only that row is scanned.  Else the
    law is decided at S* if ``*`` is associative (the s whose map
    x -> s*x is additive are closed under ``*``; ``one`` is skipped), and
    a failing law is scanned in growing row blocks.
    """
    lights = lights or Lights(Light(mul), Light(add))
    n = len(add)
    if lights.basis is not None:
        start = _first_nonadditive_row(mul, add, lights.basis.generators)
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


def comm_witness(op: np.ndarray):
    """First (a, b) with a op b != b op a, else None."""
    bad = op != op.T
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape)) if bad.any() else None


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
    # later rows index through, so its failure ends the scan.
    error: type
    kind: str
    witness: Callable
    message: str
    stop: bool = False
    shown: slice = slice(None)


KINDS = ("loop", "lnr", "ring")

# Every axiom of a loop, loop near-ring and ring, in scan order.  A row
# applies to its kind and to every later kind in KINDS.  The rows after
# the identity's are the laws, identities in + and *, which derived
# structures inherit (``nearrings._derived``); every other row precedes them.
AXIOMS = (
    Axiom(errors.EntriesOutOfRange, "loop", lambda add, mul, one, lights: _outside(add),
          "add entries outside 0..n-1", stop=True),
    Axiom(errors.NotLatinSquare, "loop", lambda add, mul, one, lights: latin_witness(add, lights),
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
              None if lights.ring else assoc_witness(mul, lights.mul),
          "multiplication is not associative"),
    Axiom(errors.RightDistributivityFails, "lnr",
          lambda add, mul, one, lights:
              None if lights.ring else right_dist_witness(add, mul, lights),
          "(a+b)*c != a*c + b*c"),
    Axiom(errors.ZeroNotLeftAbsorbing, "lnr", lambda add, mul, one, lights: _first(mul[0] != 0),
          "0*n != 0"),
    Axiom(errors.AdditionNotAbelianGroup, "ring",
          lambda add, mul, one, lights: None if lights.basis else comm_witness(add),
          "addition is not commutative"),
    Axiom(errors.AdditionNotAbelianGroup, "ring",
          lambda add, mul, one, lights: assoc_witness(add, lights.basis or lights.add),
          "addition is not associative"),
    Axiom(errors.LeftDistributivityFails, "ring",
          lambda add, mul, one, lights:
              None if lights.ring else left_dist_witness(add, mul, lights),
          "c*(a+b) != c*a + c*b"),
)


def violations(add, mul=None, one=None, start: str = "loop", kind: str = "ring"):
    """Yield (error class, message, witness) for each failing row of AXIOMS.

    Scans the rows of kinds ``start`` through ``kind``, in order; a
    witness is None or a tuple.  ``add`` comes from ``as_table``, and
    ``mul`` passes through it once the loop rows are scanned (a
    ValidationError if its order is not ``add``'s); the generator
    returns it.  The rows share one ``Lights``, so each test runs and
    each generating set grows at most once per scan.  In a ring scan,
    the Latin row asks the basis of ``+`` in place of its column sort,
    and if the loop rows held, the rows of the three cubic
    laws of ``*`` ask the coordinate certificate and the two rows of
    ``+`` the basis.
    """
    kinds = KINDS[KINDS.index(start):KINDS.index(kind) + 1]
    held, lights = True, Lights(None, Light(add) if "ring" in kinds else None)
    for row in AXIOMS:
        if row.kind not in kinds:
            continue
        if lights.mul is None and row.kind != "loop":
            mul = as_table(mul)
            if len(mul) != len(add):
                raise errors.ValidationError(
                    f"mul table is {len(mul)}x{len(mul)}, additive has n={len(add)}")
            if not held:   # + failed a loop row: no certificate to ask
                lights = Lights(None)
            lights.mul = Light(mul)
        found = row.witness(add, mul, one, lights)
        if found is not None:
            held = False
            yield row.error, row.message.format(*found, one=one), tuple(found[row.shown]) or None
            if row.stop:
                return
    return mul


def require(add, mul=None, one=None, start: str = "loop", kind: str = "ring") -> np.ndarray | None:
    """Raise the first failing row of ``violations`` as its error class,
    else return the ``mul`` it scanned."""
    scan = violations(add, mul, one, start, kind)
    try:
        error, message, witness = next(scan)
    except StopIteration as done:
        return done.value
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

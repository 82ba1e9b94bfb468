"""Constructors for the bundled corpus of loops, near-rings and rings.

Indexing conventions (documented here so golden files are portable):

  * cyclic:n          carrier 0..n-1, the usual mod-n tables.
  * gf:q              polynomial coefficient vectors over F_p in
                      little-endian digit order, element index
                      c0 + c1*p + c2*p^2 + ...
  * matrix:base,k     k x k matrices, flattened row-major, entry
                      digits in mixed radix |base| with the FIRST
                      entry most significant: index of (m00, m01, ...,
                      m(k-1)(k-1)) is sum m_ij * B^(k*k-1-pos).
  * ut2:base          upper triangular 2x2 matrices (a, b, d) over the
                      base ring, index a*B^2 + b*B + d.
  * m:loop / m0:loop  all self-maps (resp. zero-fixing self-maps) of a
                      loop under pointwise + and composition
                      (f*g)(x) = f(g(x)); a map is indexed by its value
                      tuple (f(0), f(1), ...) read as mixed-radix
                      digits, f(0) most significant.  For m0 the f(0)
                      digit is omitted (it is always 0).
  * product:a+b+...   componentwise tables, index of (x1, .., xk) in
                      mixed radix with the first factor most
                      significant.
  * smallloop:n,i     the i-th reduced Latin square of order n in
                      lexicographic order of the flattened table.
  * nonassoc5         the lexicographically least order-5 loop table
                      that is not associative.
  * random_loop:n,s   seeded random Latin square completion, rows and
                      columns through 0 fixed to the identity.

A table computed digit by digit (the additions of gf, matrix, ut2 and
m/m0, both operations of product) is one Kronecker-style sum over the
digits' own tables, ``_componentwise``.  Every other table is encoded
by ``_encode`` from whole (size, size) digit tables, each one broadcast
gather over the base tables (for cyclic:n, one digit of radix n); the
multiplication of gf:q is one gather from Zech logarithm tables.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from . import io, tables
from .config import DEFAULT_BOUNDS, Bounds
from .errors import BoundExceeded, ParseError
from .loops import CayleyLoop, is_associative, validate_loop
from .nearrings import LoopNearRing, _validated, validate_lnr
from .rings import FiniteRing, validate_ring_tables


def cyclic_ring(n: int) -> FiniteRing:
    """Z/n.  The degenerate n = 1 zero ring is allowed."""
    if n < 1:
        raise ValueError("cyclic ring needs n >= 1")
    x = np.arange(n, dtype=np.int32)         # n <= 32768, so x * y stays exact
    add = _residues(np.add.outer(x, x), n)
    return validate_ring_tables(add, _residues(np.multiply.outer(x, x), n), 1 % n)


def _residues(table: np.ndarray, n: int) -> np.ndarray:
    """The int16 table of ``table`` mod n, reduced in place."""
    table %= n
    return _encode(n, [table], [n])


def _encode(size, digit_tables, radices) -> np.ndarray:
    """The int16 table whose entry (x, y) has, as its i-th digit in the
    mixed radix ``radices``, entry (x, y) of the i-th (size, size) table
    of ``digit_tables``; an iterator keeps one digit table live at a time."""
    out = np.zeros((size, size), dtype=tables.DTYPE)
    digit_tables = iter(digit_tables)
    for r in radices:
        out *= r
        out += next(digit_tables)   # freed before the next is built, which zip would not do
    return out


def _componentwise(op_tables) -> np.ndarray:
    """The int16 Cayley table of x op y computed in each digit with that
    digit's own table, digits in the mixed radix of the tables' orders.

    It is a Kronecker-style sum built from the least significant digit
    up: with T the table of the later digits (order m) and t the next
    digit's table, the new table at ((a, x), (b, y)) is t[a, b] * m + T[x, y].
    """
    out = np.zeros((1, 1), dtype=tables.DTYPE)
    for t in reversed(op_tables):
        r, m = len(t), len(out)
        high = np.asarray(t, dtype=tables.DTYPE) * m
        out = np.add(high[:, None, :, None], out[None, :, None, :],
                     out=np.empty((r, m, r, m), dtype=tables.DTYPE)).reshape(r * m, r * m)
    return out


def _index(digits, radices) -> int:
    """The element index of one digit vector."""
    return int(np.dot(np.asarray(digits, dtype=np.int64), tables.mixed_radix_weights(radices)))


def _factor_prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m == 1:
                return p, k
            return None
    return None


def _find_irreducible(p: int, k: int):
    """Least monic irreducible of degree k over F_p, little-endian coeffs."""
    if k == 1:
        return [0, 1]
    lower = []
    for deg in range(1, k // 2 + 1):
        for c in range(p ** deg):
            digs = [(c // p ** i) % p for i in range(deg)] + [1]
            lower.append(digs)
    for c in range(p ** k):
        cand = [(c // p ** i) % p for i in range(k)] + [1]
        ok = True
        for d in lower:
            # trial division: check whether d divides cand
            rem = list(cand)
            dd = len(d) - 1
            for i in range(len(rem) - 1, dd - 1, -1):
                lead = rem[i]
                if lead:
                    for j in range(dd + 1):
                        rem[i - dd + j] = (rem[i - dd + j] - lead * d[j]) % p
            if not any(rem[:dd]):
                ok = False
                break
        if ok:
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def galois_field(q: int) -> FiniteRing:
    """The field with q = p^k elements.

    Multiplication goes through Zech-logarithm tables (Lidl and
    Niederreiter, *Finite Fields*, ch. 9): with g primitive and
    exp[j] = g^j, x*y = exp[(log x + log y) mod (q-1)] for x, y != 0.
    """
    fac = _factor_prime_power(q)
    if fac is None:
        raise ValueError(f"{q} is not a prime power")
    p, k = fac
    if k == 1:
        return cyclic_ring(p)
    radices = [p] * k
    digits = tables.decode_all(q, radices)   # highest-degree coefficient first
    mod = np.array(_find_irreducible(p, k)[::-1], dtype=np.int64)

    def times(x):
        """Indices of x*y for every y, by the polynomial product mod ``mod``."""
        prod = np.zeros((q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, i:i + k] += np.multiply(x[i], digits, dtype=np.int64)
        for i in range(k - 1):           # cancel the leading terms by the monic modulus
            prod[:, i:i + k + 1] -= prod[:, i:i + 1] % p * mod
        return (prod[:, k - 1:] % p @ tables.mixed_radix_weights(radices)).tolist()

    # the least g whose powers reach every nonzero element
    for g in range(2, q):
        step, exp = times(digits[g]), [1]
        while step[exp[-1]] != 1:
            exp.append(step[exp[-1]])
        if len(exp) == q - 1:
            break
    exp = np.array(exp * 2, dtype=tables.DTYPE)   # twice over: no reduction mod q-1
    log = np.zeros(q, dtype=np.int32)             # log x + log y may pass int16
    log[exp[:q - 1]] = np.arange(q - 1)
    mul = np.zeros((q, q), dtype=tables.DTYPE)    # row and column 0 stay 0
    mul[1:, 1:] = exp[log[1:, None] + log[1:]]
    add = _componentwise([cyclic_ring(p).add] * k)
    return validate_ring_tables(add, mul, 1)


def matrix_ring(base: FiniteRing, k: int, bounds: Bounds = DEFAULT_BOUNDS) -> FiniteRing:
    """k x k matrices over a finite base ring."""
    if k < 1:
        raise ValueError("matrix ring needs k >= 1")
    bounds.check("max_n", k * k, f"{k} x {k} matrix")
    b = base.n
    size = b ** (k * k)
    bounds.check("max_n", size, "matrix ring")
    radices = [b] * (k * k)
    x = tables.decode_all(size, radices).T.reshape(k, k, size)   # x[r, c]: every element's (r, c)
    badd, bmul = base.add, base.mul

    def entry(r, c):
        """Entry (r, c) of every product u*v, folded over t with badd."""
        acc = bmul[x[r, 0][:, None], x[0, c]]
        for t in range(1, k):
            acc = badd[acc, bmul[x[r, t][:, None], x[t, c]]]
        return acc

    add = _componentwise([badd] * (k * k))
    mul = _encode(size, (entry(r, c) for r in range(k) for c in range(k)), radices)
    one = _index(np.eye(k, dtype=np.int64).ravel() * base.one, radices)
    return validate_ring_tables(add, mul, one)


def upper_triangular_ring(base: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> FiniteRing:
    """Upper triangular 2x2 matrices (a, b, d) over the base ring."""
    size = base.n ** 3
    bounds.check("max_n", size, "triangular ring")
    radices = [base.n] * 3
    a, b, d = tables.decode_all(size, radices).T       # the entries of every element
    badd, bmul = base.add, base.mul

    def entries():
        """The entries of every product: (a,b,d)*(a',b',d') = (a a', a b' + b d', d d')."""
        yield bmul[a[:, None], a]
        # a b' + b d' is one gather from the flat badd at (a b') * B + b d' < B^2
        pair = bmul[a[:, None], b]
        pair *= base.n
        pair += bmul[b[:, None], d]
        yield badd.ravel()[pair]
        yield bmul[d[:, None], d]

    mul = _encode(size, entries(), radices)
    add = _componentwise([badd] * 3)
    one = _index([base.one, 0, base.one], radices)
    return validate_ring_tables(add, mul, one)


def map_near_ring(loop: CayleyLoop, zero_fixing: bool, bounds: Bounds = DEFAULT_BOUNDS) -> LoopNearRing:
    """M(G) or M0(G): self-maps of a loop under pointwise + and composition.

    Composition is (f*g)(x) = f(g(x)); right distributivity over
    pointwise addition holds by construction, and the validator
    certifies it anyway.
    """
    n = loop.n
    size = n ** (n - 1) if zero_fixing else n ** n
    bounds.check("max_n", size, "map near-ring")
    lo = 1 if zero_fixing else 0                       # m0 omits the f(0) = 0 digit
    radices = [n] * (n - lo)
    maps = np.zeros((size, n), dtype=tables.DTYPE)     # f(0), f(1), ..., f(n-1)
    maps[:, lo:] = tables.decode_all(size, radices)
    add = _componentwise([loop.add] * (n - lo))   # f(x) + g(x)
    mul = _encode(size, (maps[:, maps[:, x]] for x in range(lo, n)), radices)   # f(g(x))
    return validate_lnr(add, mul, _index(range(lo, n), radices))


def _reduced_latin_squares(n: int, rng: random.Random | None = None):
    """Yield reduced n x n Latin squares (row 0 and column 0 identity).

    Cells are filled row-major with ascending candidate values, so
    squares appear in lexicographic order of the flattened table; with
    ``rng`` the candidate order is shuffled instead.
    """
    grid = [[0] * n for _ in range(n)]
    grid[0] = list(range(n))
    for r in range(1, n):
        grid[r][0] = r
    row_used = [1 << r for r in range(n)]
    row_used[0] = (1 << n) - 1
    # column 0 is fully used; column c >= 1 so far holds only grid[0][c] = c
    col_used = [(1 << n) - 1] + [(1 << c) for c in range(1, n)]

    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in grid]
            return
        r, c = cells[k]
        avail = ~(row_used[r] | col_used[c]) & ((1 << n) - 1)
        vals = [v for v in range(n) if avail >> v & 1]
        if rng is not None:
            rng.shuffle(vals)
        for v in vals:
            bit = 1 << v
            grid[r][c] = v
            row_used[r] |= bit
            col_used[c] |= bit
            yield from fill(k + 1)
            row_used[r] &= ~bit
            col_used[c] &= ~bit

    yield from fill(0)


def _check_enumerable(n: int) -> None:
    if not 1 <= n <= 5:
        raise BoundExceeded("full loop enumeration is supported for n <= 5 only")


@functools.cache
def all_loops(n: int) -> tuple:
    """All reduced Latin squares of order n <= 5, as validated loops."""
    _check_enumerable(n)
    return tuple(validate_loop(g) for g in _reduced_latin_squares(n))


def small_loop(n: int, i: int) -> CayleyLoop:
    """The i-th reduced Latin square of order n <= 5, the only one validated."""
    _check_enumerable(n)
    grid = next(itertools.islice(_reduced_latin_squares(n), i, None), None) if i >= 0 else None
    if grid is None:
        count = sum(1 for _ in _reduced_latin_squares(n))
        raise ParseError(f"smallloop index {i} out of range, order {n} has {count}")
    return validate_loop(grid)


@functools.cache
def smallest_nonassociative_loop() -> CayleyLoop:
    """Lexicographically least order-5 loop table failing associativity.

    Orders up to 4 admit only associative loops, so 5 is the least
    order where this exists; found by exhaustive search in table order.
    """
    for grid in _reduced_latin_squares(5):
        loop = validate_loop(grid)
        if not is_associative(loop):
            return loop
    raise RuntimeError("no nonassociative loop of order 5 found")  # unreachable


def random_loop(n: int, seed: int) -> CayleyLoop:
    """Uniform-ish random reduced Latin square by seeded backtracking."""
    if not 1 <= n <= 12:
        raise BoundExceeded("random_loop supports 1 <= n <= 12")
    rng = random.Random(seed)
    for grid in _reduced_latin_squares(n, rng=rng):
        return validate_loop(grid)
    raise RuntimeError("backtracking found no Latin square")  # unreachable


def product(structures, bounds: Bounds = DEFAULT_BOUNDS):
    """Componentwise product; all factors must be the same kind.

    Loops produce a loop, near-rings a near-ring, rings a ring.  The
    index of a tuple is mixed-radix with the first factor most
    significant.
    """
    structures = list(structures)
    if not structures:
        raise ValueError("product needs at least one factor")
    kinds = {io.kind_of(s) for s in structures}
    if "loop" in kinds and len(kinds) > 1:
        raise TypeError("cannot mix loops with near-rings in a product")
    size = 1
    for s in structures:
        size *= s.n
    bounds.check("max_n", size, "product")
    radices = [s.n for s in structures]
    loops = [s if isinstance(s, CayleyLoop) else s.additive for s in structures]
    add = _componentwise([l.add for l in loops])
    if kinds == {"loop"}:
        return validate_loop(add)
    mul = _componentwise([s.mul for s in structures])
    cls = FiniteRing if kinds == {"ring"} else LoopNearRing
    return _validated(cls, add, mul, _index([s.one for s in structures], radices))


def opposite(nr: LoopNearRing):
    """Same addition, reversed multiplication.

    The result must itself satisfy right distributivity to be a loop
    near-ring in the convention used here; when it does not, the
    validator raises RightDistributivityFails with a witness.
    """
    return _validated(type(nr), nr.additive, np.ascontiguousarray(nr.mul.T), nr.one)


def parse_spec(spec: str, bounds: Bounds = DEFAULT_BOUNDS):
    """Build a structure from a corpus spec string.

    Grammar (see the module docstring for indexing conventions):

        cyclic:N | gf:Q | matrix:BASE,K | ut2:BASE | m:SPEC | m0:SPEC |
        product:SPEC+SPEC+... | opposite:SPEC | smallloop:N,I |
        random_loop:N,SEED | nonassoc5

    Nested specs are allowed everywhere except inside product factors,
    which may not themselves contain "+".
    """
    spec = spec.strip()
    if spec == "nonassoc5":
        return smallest_nonassociative_loop()
    head, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ParseError(f"bad spec {spec!r}")

    def as_int(tok, what):
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"bad {what} {tok!r} in spec {spec!r}") from None

    def as_ring(sub):
        inner = parse_spec(sub, bounds)
        if not isinstance(inner, FiniteRing):
            raise ParseError(f"{head} wants a ring, got {sub!r}")
        return inner

    if head == "cyclic":
        n = as_int(rest, "order")
        if n < 1:
            raise ParseError("cyclic wants n >= 1")
        bounds.check("max_n", n, "cyclic ring")
        return cyclic_ring(n)
    if head == "gf":
        q = as_int(rest, "order")
        bounds.check("max_n", q, "field")
        try:
            return galois_field(q)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if head == "matrix":
        base_spec, _, k_tok = rest.rpartition(",")
        if not base_spec:
            raise ParseError(f"matrix wants base,k, got {rest!r}")
        base, k = as_ring(base_spec), as_int(k_tok, "matrix size")
        if k < 1:
            raise ParseError("matrix wants k >= 1")
        return matrix_ring(base, k, bounds)
    if head == "ut2":
        return upper_triangular_ring(as_ring(rest), bounds)
    if head in ("m", "m0"):
        inner = parse_spec(rest, bounds)
        loop = inner if isinstance(inner, CayleyLoop) else inner.additive
        return map_near_ring(loop, zero_fixing=(head == "m0"), bounds=bounds)
    if head == "product":
        parts = rest.split("+")
        if len(parts) < 2:
            raise ParseError("product wants at least two factors")
        factors = [parse_spec(p, bounds) for p in parts]
        try:
            return product(factors, bounds)
        except TypeError as exc:
            raise ParseError(str(exc)) from None
    if head == "opposite":
        inner = parse_spec(rest, bounds)
        if not isinstance(inner, LoopNearRing):
            raise ParseError("opposite wants a near-ring or ring")
        return opposite(inner)
    if head == "smallloop":
        n_tok, _, i_tok = rest.partition(",")
        return small_loop(as_int(n_tok, "order"), as_int(i_tok, "index"))
    if head == "random_loop":
        n_tok, _, s_tok = rest.partition(",")
        return random_loop(as_int(n_tok, "order"), as_int(s_tok, "seed"))
    raise ParseError(f"unknown spec head {head!r}")


# The bundled corpus: spec strings with their kinds and sizes, so that
# listing the catalog needs no construction work.  Tests rebuild every
# entry and assert the recorded kind and size.
CATALOG = (
    ("cyclic:1", "ring", 1),
    ("cyclic:2", "ring", 2),
    ("cyclic:3", "ring", 3),
    ("cyclic:4", "ring", 4),
    ("cyclic:5", "ring", 5),
    ("cyclic:6", "ring", 6),
    ("cyclic:7", "ring", 7),
    ("cyclic:8", "ring", 8),
    ("cyclic:9", "ring", 9),
    ("cyclic:10", "ring", 10),
    ("cyclic:11", "ring", 11),
    ("cyclic:12", "ring", 12),
    ("cyclic:13", "ring", 13),
    ("cyclic:14", "ring", 14),
    ("cyclic:15", "ring", 15),
    ("cyclic:16", "ring", 16),
    ("gf:4", "ring", 4),
    ("product:cyclic:2+cyclic:2", "ring", 4),
    ("product:cyclic:2+cyclic:3", "ring", 6),
    ("product:cyclic:4+cyclic:2", "ring", 8),
    ("matrix:cyclic:2,2", "ring", 16),
    ("matrix:cyclic:3,2", "ring", 81),
    ("matrix:cyclic:4,2", "ring", 256),
    ("ut2:cyclic:2", "ring", 8),
    ("ut2:cyclic:3", "ring", 27),
    ("opposite:matrix:cyclic:2,2", "ring", 16),
    ("m:cyclic:2", "lnr", 4),
    ("m0:cyclic:2", "lnr", 2),
    ("m0:cyclic:3", "lnr", 9),
    ("m0:cyclic:4", "lnr", 64),
    ("m0:smallloop:4,0", "lnr", 64),
    ("m0:smallloop:4,1", "lnr", 64),
    ("m0:smallloop:4,2", "lnr", 64),
    ("m0:smallloop:4,3", "lnr", 64),
    ("m0:nonassoc5", "lnr", 625),
    ("nonassoc5", "loop", 5),
    ("smallloop:5,0", "loop", 5),
    ("random_loop:6,0", "loop", 6),
    ("random_loop:8,1", "loop", 8),
)

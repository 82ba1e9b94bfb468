"""Brute-force reference enumerations, written independently of the
library so the two can certify each other.

``reduced_latin_squares`` builds rows from whole permutations grouped
by first entry, where the library grows tables cell by cell, and
``brute_subloops`` scans all subsets, where the library grows closures
from seeds.
"""

from functools import cache
from itertools import permutations


@cache
def _perms_by_first(n: int) -> dict:
    out: dict = {i: [] for i in range(n)}
    for p in permutations(range(n)):
        out[p[0]].append(p)
    return out


@cache
def reduced_latin_squares(n: int) -> tuple:
    """All n x n Latin squares whose first row and column are 0..n-1."""
    if n == 1:
        return (((0,),),)
    by_first = _perms_by_first(n)
    rows = [tuple(range(n))]
    cols = [{j} for j in range(n)]
    out = []

    def extend(i: int):
        if i == n:
            out.append(tuple(rows))
            return
        for p in by_first[i]:
            if any(p[j] in cols[j] for j in range(1, n)):
                continue
            rows.append(p)
            for j in range(1, n):
                cols[j].add(p[j])
            extend(i + 1)
            for j in range(1, n):
                cols[j].discard(p[j])
            rows.pop()

    extend(1)
    return tuple(out)


def brute_subloops(add) -> set:
    """Subsets closed under the three loop operations, by subset scan.

    ``add`` is a plain list-of-lists Cayley table with two-sided zero 0.
    """
    n = len(add)
    lpos = [[None] * n for _ in range(n)]
    rpos = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lpos[a][add[a][b]] = b
            rpos[add[a][b]][b] = a
    found = set()
    for mask in range(1, 1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        inside = [False] * n
        for i in bits:
            inside[i] = True
        if all(inside[add[a][b]] for a in bits for b in bits):
            # a + x = b and y + a = b must also be solvable inside
            assert all(inside[lpos[a][b]] for a in bits for b in bits)
            assert all(inside[rpos[b][a]] for a in bits for b in bits)
            found.add(frozenset(bits))
    return found


def brute_is_normal(add, members) -> bool:
    """a + K = K + a, (a+b) + K = a + (b+K) and (K+a) + b = K + (a+b)
    for every a, b, compared as Python sets.

    ``add`` is a plain list-of-lists Cayley table; ``members`` is K.
    """
    n = len(add)

    def plus(x, s):   # x + S
        return {add[x][y] for y in s}

    def sulp(s, x):   # S + x
        return {add[y][x] for y in s}

    k = set(members)
    return all(plus(a, k) == sulp(k, a)
               and plus(add[a][b], k) == plus(a, plus(b, k))
               and sulp(sulp(k, a), b) == sulp(k, add[a][b])
               for a in range(n) for b in range(n))

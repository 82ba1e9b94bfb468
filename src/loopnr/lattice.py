"""Closure lattices over Cayley tables: one engine for subloops,
N-subloops and sub-near-rings.

A closure system on the carrier 0 .. n-1 is given by binary tables and
an optional left-absorbing table.  A subset S is closed when t[a, b]
lies in S for every binary table t and all a, b in S, and, when an
absorbing table is given, absorbing[y, x] lies in S for every y in the
carrier and every x in S.  Subloops use the table add alone: in a
finite loop a subset that contains 0 and is closed under + is closed
under both differences too, because translation by a member maps it
into itself injectively, hence onto.  N-subloops add mul as the
absorbing table (N*S <= S); sub-near-rings use mul as a further binary
table.

Enumeration rests on the principal table P, whose row x is the
closure of the seed and x.  A caller that can read P off its tables
passes it in (the N-subloop N*x is column x of mul); otherwise each
row is one saturation.  Every closed set is a join of rows of P, and
the joins use only the join-irreducible rows, those that the rows
strictly below them do not generate: in a finite lattice these
generate every element.  Most joins need no saturation at all: for a
closed set s and a principal p = P[x], each one-step entry y = t[e, x]
or t[x, e] with e in s lies in the closure of s | p, and so does P[y].
So the union of s | p with such rows lies in that closure, and once it
is a set already found, it is closed, so it is the closure, which is
then found already; a single row P[y] holding s | p is such a union.
Only the joins that no such union settles are saturated, and a
saturation stops as soon as it reaches an element y whose row covers
the set so far, since that row is then the closure.

A system built with ``sumsets`` (the left ideals of a ring) saturates
no join at all.  Its one binary table is an abelian group's + and its
absorbing table distributes over it from the left, so for closed sets
I and J the sumset I + J = {i + j} is closed: it is an additive
subgroup, and r(i + j) = ri + rj.  It holds I and J, since both hold
0, and every closed set holding I | J holds it, so it is the join.
Near-rings keep the saturating join even when their + is an abelian
group: in M0(Z4) the N-subloops {0, 5, 10, 15} and {0, 17, 34, 51}
have a sumset of 16 elements and a join of 64, since r(i + j) need
not be ri + rj.

Subsets grow as boolean masks.  Closed sets are de-duplicated and
compared as Python-int bitsets (bit i set when i is a member).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

# Table entries per block of a sumset gather or of the rank sort: 1 MiB
# of int16 entries, so no transient grows with the square of the carrier.
# Budgets of 1 << 15 to 1 << 18 moved no ``scripts/bench.py`` command
# beyond its spread, so it stays.
_BLOCK_ENTRIES = 1 << 19


def bits_of(mask: np.ndarray) -> int:
    """The bitset of a boolean mask."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class ClosureSystem:
    """Closure under fixed tables on the carrier 0 .. n-1."""

    def __init__(self, n: int, binary: Iterable[np.ndarray], absorbing: np.ndarray | None = None,
                 sumsets: bool = False):
        self.n = n
        self.binary = tuple(binary)
        self.absorbing = absorbing
        # whether the join of closed sets is their sumset under binary[0]
        self.sumsets = sumsets

    def _images(self, frontier: np.ndarray, members: np.ndarray) -> Iterator[np.ndarray]:
        """Every table entry with at least one argument in the frontier."""
        if self.absorbing is not None:
            yield self.absorbing[:, frontier]
        for t in self.binary:
            yield t[frontier[:, None], members]
            yield t[members[:, None], frontier]

    def _saturate(
        self, mask: np.ndarray, frontier: np.ndarray, principal: np.ndarray | None = None
    ) -> np.ndarray:
        """Close ``mask``, given that every entry with no argument in
        ``frontier`` already lies inside it.

        Each round gathers the entries touching the frontier and
        scatters them into the next mask; the new elements are the
        next frontier.  Stops as soon as the mask covers the carrier.
        Given a principal table P, whose row y is the closure of a seed
        that the mask holds and y, it also stops as soon as a new
        element y has P[y] covering the mask: P[y] is closed and holds
        the mask, and y lies in the closure, so the closure is P[y].
        """
        while frontier.size:
            members = np.flatnonzero(mask)
            grown = mask.copy()
            for block in self._images(frontier, members):
                grown[block] = True
                if grown.all():
                    return grown
            frontier = np.flatnonzero(grown & ~mask)
            mask = grown
            if principal is not None and frontier.size:
                covering = (principal[frontier] >= mask).all(axis=1)
                if covering.any():
                    return principal[frontier[covering.argmax()]]
        return mask

    def _is_closed(self, mask: np.ndarray) -> bool:
        """Whether every binary-table entry on members of ``mask`` lies in it.
        Its one caller, ``closed_sets``, asks this of a union of closed
        sets (the bottom and the principals below some p), which the
        absorbing table maps into itself, so the binary tables decide."""
        members = np.flatnonzero(mask)
        return all(mask[t[members[:, None], members]].all() for t in self.binary)

    def close(self, seed: Iterable[int]) -> np.ndarray:
        """The smallest closed set containing ``seed``, as a mask."""
        mask = np.zeros(self.n, dtype=bool)
        mask[list(seed)] = True
        return self._saturate(mask, np.flatnonzero(mask))

    def generating_set(self) -> Iterator[int]:
        """Yield a set S whose closure is the whole carrier, grown greedily.

        Candidates go by descending rank, the number of distinct entries
        in the element's row of the first binary table, least index
        first on ties; each candidate outside the closure of S so far
        joins S.  High-rank elements, such as units, reach most of the
        carrier at once, which keeps S small.  Each member is yielded
        before its closure is taken, so a caller that stops early pays
        for no more than it drew.
        """
        table, step = self.binary[0], max(1, _BLOCK_ENTRIES // self.n)
        # one less than each row's distinct count, a block of rows at a time
        rank = np.concatenate([
            np.count_nonzero(np.diff(np.sort(table[i:i + step], axis=1), axis=1), axis=1)
            for i in range(0, self.n, step)])
        order = np.argsort(-rank, kind="stable")
        mask = np.zeros(self.n, dtype=bool)
        for x in order:
            if mask.all():
                return
            if not mask[x]:
                yield int(x)
                mask = self._extend(mask, x)

    def _extend(self, closed: np.ndarray, x: int) -> np.ndarray:
        """The closure of closed + {x}, for a closed mask."""
        mask = closed.copy()
        mask[x] = True
        return self._saturate(mask, np.array([x]))

    def join(self, a: np.ndarray, b: np.ndarray,
             principal: np.ndarray | None = None) -> np.ndarray:
        """The closure of a | b for closed masks a and b.

        With ``sumsets`` it is the sumset a + b, one gather of the table
        over a x b in blocks of rows, stopped once the carrier is
        covered.  Otherwise it is saturated: entries within a or within
        b stay inside, so only pairs that touch the smaller of the two
        differences are new, and given the principal table of a seed
        that a and b hold, the saturation ends at a covering principal.
        closed_sets calls this, with its table, only for the joins that
        no one-step principal witness settles (see _Witness).
        """
        if self.sumsets:
            mi, mj = np.flatnonzero(a), np.flatnonzero(b)
            out = np.zeros(self.n, dtype=bool)
            step = max(1, _BLOCK_ENTRIES // mj.size)
            for start in range(0, mi.size, step):
                out[self.binary[0][mi[start:start + step, None], mj]] = True
                if out.all():
                    break
            return out
        only_b = np.flatnonzero(b & ~a)
        only_a = np.flatnonzero(a & ~b)
        frontier = only_b if only_b.size <= only_a.size else only_a
        return self._saturate(a | b, frontier, principal)

    def closed_sets(
        self, seed: Iterable[int] = (), principal: np.ndarray | None = None
    ) -> Iterator[np.ndarray]:
        """Yield every closed set containing ``seed`` once, as found.

        The first is the closure of the seed; then the principal
        closures, the rows of the (n, n) boolean table ``principal``
        whose row x is the closure of seed + {x}.  Without the table,
        each row outside the bottom is one saturation.

        Every closed set is the join of the principal closures of its
        elements, and a principal that is the closure of the union of
        the principals strictly below it is their join (Birkhoff: the
        join-irreducibles generate a finite lattice).  The union of the
        bottom and the principals strictly below p is the set of the
        elements of p whose row is not p, so one pass over the table
        entries on it decides whether it is closed, that is, whether p
        is join-irreducible.  Joining each set found with each
        join-irreducible principal reaches every closed set.  Unions
        already tried are skipped.  A join with a principal p = P[x] is
        first settled by one-step witnesses, rows P[y] whose union with
        both sides is a set already found (see _Witness), and computed
        by ``join`` only when they settle nothing.  The witness's
        generator columns and member lists are built at the first
        untried union, so a chain of principals pays nothing for them;
        its row bitsets are the ones the principals are grouped by.
        """
        n = self.n
        bottom = self.close(seed)
        found = {bits_of(bottom): bottom}
        yield bottom
        if principal is None:
            principal = np.empty((n, n), dtype=bool)
            principal[bottom] = bottom
            for x in np.flatnonzero(~bottom):
                principal[x] = self._extend(bottom, x)
        rowbits = [int.from_bytes(row.tobytes(), "little")
                   for row in np.packbits(principal, axis=1, bitorder="little")]
        # each principal closure by bitset, with the elements whose row it is
        generators = {}
        for x in np.flatnonzero(~bottom).tolist():
            generators.setdefault(rowbits[x], []).append(x)
        for pb, xs in generators.items():
            if pb not in found:
                found[pb] = principal[xs[0]]
                yield found[pb]
        irreducible = []
        for pb, xs in generators.items():
            # the bottom and the principals strictly below p make up exactly
            # the elements of p that do not generate it; any entry outside
            # them generates p, so p is their join unless they are closed,
            # as a set already found is
            below = principal[xs[0]].copy()
            below[xs] = False
            if bits_of(below) in found or self._is_closed(below):
                irreducible.append((pb, principal[xs[0]], xs[0]))
        queue = list(found.items())
        tried = set(found)
        witness = None
        for sb, s in queue:
            members = None
            for pb, p, x in irreducible:
                u = sb | pb
                if u in tried:
                    continue
                tried.add(u)
                if witness is None:
                    witness = _Witness(self.binary, rowbits, [x for _, _, x in irreducible],
                                       self.sumsets)
                if members is None:
                    members = np.flatnonzero(s)
                # a witnessed join is a set already found
                if witness.find(members, x, u, found) is None:
                    j = self.join(s, p, principal)
                    jb = bits_of(j)
                    if jb not in found:
                        found[jb] = j
                        tried.add(jb)
                        queue.append((jb, j))
                        yield j


class _Witness:
    """One-step certificates for joins with a principal closure.

    Let P be a principal table (row y is the closure of the seed and y),
    s a closed set holding the seed, and p = P[x].  An entry y = t[e, x]
    or t[x, e], for e in s and a binary table t, lies in cl(s | p), and
    so does P[y], since the seed lies in s.  So the union of s | p with
    any of these rows P[y] lies in cl(s | p); if it is a set already
    found, it is closed, so it is cl(s | p) exactly.  A single row P[y]
    holding s | p is such a union, since every principal is found.
    """

    def __init__(self, binary, rowbits: list, generators, sumsets: bool):
        # the row bitsets of P, and for each generator x its entries
        # t[:, x] and t[x, :], one row per table and side; in a sumsets
        # system the one table is abelian, so t[:, x] alone
        self.rowbits = rowbits
        self.columns = {x: np.stack([t[:, x] for t in binary]
                                    + ([] if sumsets else [t[x] for t in binary]))
                        for x in generators}

    def find(self, members: np.ndarray, x: int, u: int, found) -> int | None:
        """The bitset of cl(s | P[x]) if one-step witnesses settle it, else
        None, where ``members`` lists s and ``u``, not in ``found``, is the
        bitset of s | P[x]: a row P[y] holding s | P[x] is the join, else
        the union of s | P[x] with every row P[y] is, if it is in
        ``found``.  A union of only some of the rows settles no more: once
        one is closed, every larger one equals it."""
        ys = self.columns[x][:, members].ravel().tolist()
        for y in ys:
            if self.rowbits[y] & u == u:
                return self.rowbits[y]
        union = u
        for y in set(ys):
            union |= self.rowbits[y]
        return union if union in found else None

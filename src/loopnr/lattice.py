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
or t[x, e] with e in s lies in the closure of s | p, and so does P[y];
a row P[y] holding s | p is therefore that closure.  Only the joins
that no such y certifies are saturated, and a saturation stops as soon
as it reaches an element y whose row covers the set so far, since that
row is then the closure.

Subsets grow as boolean masks.  Closed sets are de-duplicated and
compared as Python-int bitsets (bit i set when i is a member).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def bits_of(mask: np.ndarray) -> int:
    """The bitset of a boolean mask."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class ClosureSystem:
    """Closure under fixed tables on the carrier 0 .. n-1."""

    def __init__(self, n: int, binary: Iterable[np.ndarray], absorbing: np.ndarray | None = None):
        self.n = n
        self.binary = tuple(binary)
        self.absorbing = absorbing
        # the principal table of the last closed_sets, which join uses on
        # the closed sets holding its seed
        self.principal = None

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
        """Whether every table entry on members of ``mask`` lies in it."""
        members = np.flatnonzero(mask)
        return all(mask[block].all() for block in self._images(members, members))

    def close(self, seed: Iterable[int]) -> np.ndarray:
        """The smallest closed set containing ``seed``, as a mask."""
        mask = np.zeros(self.n, dtype=bool)
        mask[list(seed)] = True
        return self._saturate(mask, np.flatnonzero(mask))

    def generating_set(self, ranked: bool = True) -> Iterator[int]:
        """Yield a set S whose closure is the whole carrier, grown greedily.

        Candidates go by descending rank, the number of distinct entries
        in the element's row of the first binary table, least index
        first on ties; each candidate outside the closure of S so far
        joins S.  High-rank elements, such as units, reach most of the
        carrier at once, which keeps S small.  A caller that knows every
        row is a permutation passes ``ranked`` False: every rank is n,
        so the order is the index order, taken without sorting.  Each
        member is yielded before its closure is taken, so a caller that
        stops early pays for no more than it drew.
        """
        order = range(self.n)
        if ranked:
            rows = np.sort(self.binary[0], axis=1)
            order = np.argsort(-(rows[:, 1:] != rows[:, :-1]).sum(axis=1), kind="stable")
            del rows   # the suspended generator would hold the sorted copy
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

    def join(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The closure of a | b for closed masks a and b.

        Entries within a or within b stay inside, so only pairs that
        touch the smaller of the two differences are new.  After
        closed_sets the saturation ends at a covering principal.
        closed_sets calls this only for the joins that no one-step
        principal witness settles (see _Witness).
        """
        only_b = np.flatnonzero(b & ~a)
        only_a = np.flatnonzero(a & ~b)
        frontier = only_b if only_b.size <= only_a.size else only_a
        return self._saturate(a | b, frontier, self.principal)

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
        first settled by a one-step witness, a row P[y] holding both
        sides (see _Witness), and saturated only when none is found,
        ending at the first principal that covers it.  The witness's
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
        self.principal = principal
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
                    witness = _Witness(self.binary, rowbits, [x for _, _, x in irreducible])
                if members is None:
                    members = np.flatnonzero(s)
                # a witnessed join is a principal, and every principal is found
                if witness.find(members, x, u) is None:
                    j = self.join(s, p)
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
    so does P[y], since the seed lies in s.  If P[y] holds s | p, it is
    a closed set holding s | p, so cl(s | p) = P[y] exactly.
    """

    def __init__(self, binary, rowbits: list, generators):
        # the row bitsets of P, and for each generator x its entries
        # t[:, x] and t[x, :], one row per table and side
        self.rowbits = rowbits
        self.columns = {x: np.stack([t[:, x] for t in binary] + [t[x] for t in binary])
                        for x in generators}

    def find(self, members: np.ndarray, x: int, u: int):
        """Some y with P[y] = cl(s | P[x]), or None, where ``members``
        lists s and ``u`` is the bitset of s | P[x]."""
        for y in self.columns[x][:, members].ravel().tolist():
            if self.rowbits[y] & u == u:
                return y
        return None

"""Finite algebraic loops presented as validated Cayley tables.

A loop is a set with a binary ``+`` that has a two-sided zero and
unique solutions to ``a + x = b`` and ``y + a = b``.  Equivalently the
table is a Latin square whose row and column through a distinguished
element are the identity permutation.  The carrier is always
``0 .. n-1`` and the zero element is required to sit at index 0; a
table whose zero lives elsewhere is rejected rather than silently
reindexed, so that file hashes stay meaningful.  ``CayleyLoop.zero`` is
therefore the class constant 0, not a field a constructor could set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import tables
from .config import DEFAULT_BOUNDS, Bounds
from .errors import NotAHomomorphism, NotASubloop
from .lattice import ClosureSystem


@dataclass(frozen=True)
class Verdict:
    """Boolean check outcome carrying the least counterexample, if any."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _elements(n: int, values) -> list:
    """``values`` as ints, each read once: the one gate for element
    arguments.  ValueError names the first that is not an integer as
    ``tables.all_integers`` reads one, or lies outside 0..n-1."""
    out = []
    for v in values:
        if not tables._is_integer(v):
            raise ValueError(f"{v!r} is not an integer")
        if not 0 <= v < n:
            raise ValueError(f"{v} outside the carrier")
        out.append(int(v))
    return out


@dataclass(frozen=True)
class ElementSubset:
    """An immutable subset of the carrier 0 .. ambient_n - 1, its members
    passed through ``_elements`` (``from_mask`` builds the library's own).

    Iteration order is always ascending, and ``sort_key`` orders
    subsets by (size, sorted members), the ordering every enumeration
    in the library emits.
    """

    ambient_n: int
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(_elements(self.ambient_n, self.members)))

    @classmethod
    def of(cls, ambient_n: int, items: Iterable[int]) -> "ElementSubset":
        """The subset holding ``items``, or ``items`` itself if it is an
        ElementSubset, which must share ``ambient_n``."""
        if isinstance(items, ElementSubset):
            if items.ambient_n != ambient_n:
                raise ValueError(f"subset of a carrier of {items.ambient_n} elements "
                                 f"given for one of {ambient_n}")
            return items
        return cls(ambient_n, items)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "ElementSubset":
        sub = object.__new__(cls)   # a mask's members need no check
        members = tuple(mask.nonzero()[0].tolist())
        # ascending already, so kept as the cached ``sorted_members``
        sub.__dict__.update(ambient_n=mask.size, members=frozenset(members), sorted_members=members)
        return sub

    @cached_property
    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))

    @property
    def sort_key(self):
        return (len(self.members), self.sorted_members)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.ambient_n, dtype=bool)
        if self.members:
            m[list(self.members)] = True
        return m

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.sorted_members)

    def __le__(self, other: "ElementSubset") -> bool:
        return self.members <= other.members

    def __repr__(self):
        return f"ElementSubset({self.ambient_n}, {{{', '.join(map(str, self.sorted_members))}}})"


@dataclass(frozen=True, eq=False, repr=False)
class CayleyLoop:
    """A finite loop with difference tables built on first use.

    ``ldiff[a][b]`` is the unique x with a + x = b, and ``rdiff[b][a]``
    is the unique y with y + a = b.  Every row and column of a Latin
    square is a permutation, so each table is one scatter.
    """

    kind = "loop"  # the ``tables.AXIOMS`` kind ``validate_loop`` scans
    zero = 0       # the loop rows of ``tables.AXIOMS`` put the zero at index 0

    n: int
    add: np.ndarray

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"

    @cached_property
    def ldiff(self) -> np.ndarray:
        # ldiff[a, a+b] = b
        idx = np.arange(self.n, dtype=tables.DTYPE)
        ldiff = np.empty_like(self.add)
        ldiff[idx[:, None], self.add] = idx
        ldiff.setflags(write=False)
        return ldiff

    @cached_property
    def rdiff(self) -> np.ndarray:
        # rdiff[a+b, b] = a
        idx = np.arange(self.n, dtype=tables.DTYPE)
        rdiff = np.empty_like(self.add)
        rdiff[self.add, idx] = idx[:, None]
        rdiff.setflags(write=False)
        return rdiff

    @cached_property
    def _closure(self) -> ClosureSystem:
        # closure under + alone also closes under ldiff and rdiff (see lattice)
        return ClosureSystem(self.n, (self.add,))

    @cached_property
    def _subloops(self) -> tuple:
        return _sorted_subsets(self._closure.closed_sets((self.zero,)))


def validate_loop(table) -> CayleyLoop:
    """Check the loop rows of ``tables.AXIOMS`` on a raw table and build
    a CayleyLoop; the first failing row is raised with its least witness.
    """
    add = tables.as_table(table)
    tables.require(add, kind="loop")
    return CayleyLoop(n=add.shape[0], add=add)


def is_associative(loop: CayleyLoop) -> Verdict:
    w = tables.assoc_witness(loop.add)
    return Verdict(w is None, w)


def is_commutative(loop: CayleyLoop) -> Verdict:
    w = tables.comm_witness(loop.add)
    return Verdict(w is None, w)


def subloop_closure(loop: CayleyLoop, seed) -> ElementSubset:
    """Smallest subset containing seed and zero, closed under +, ldiff, rdiff."""
    members = ElementSubset.of(loop.n, seed).members | {loop.zero}
    return ElementSubset.from_mask(loop._closure.close(members))


def is_subloop(loop: CayleyLoop, subset) -> bool:
    """One-step closedness test: zero inside and closed under +, which in
    a finite loop closes it under ldiff and rdiff too (see lattice)."""
    sub = ElementSubset.of(loop.n, subset)
    if loop.zero not in sub:
        return False
    idx = np.fromiter(sub, dtype=np.int64, count=len(sub))
    return bool(sub.mask()[loop.add[idx[:, None], idx]].all())


def _sorted_subsets(masks) -> tuple:
    return tuple(sorted(map(ElementSubset.from_mask, masks), key=lambda s: s.sort_key))


def enumerate_subloops(loop: CayleyLoop, bounds: Bounds = DEFAULT_BOUNDS) -> list:
    """All subloops, sorted by (size, members).

    Every subloop is a join of single-element closures, so the engine
    closes those under join.  The lattice is built once per loop.
    """
    bounds.check("max_subloop_n", loop.n, "loop for subloop enumeration")
    return list(loop._subloops)


def is_normal_subloop(loop: CayleyLoop, subset) -> bool:
    """Check a + K = K + a, (a+b) + K = a + (b+K), (K+a) + b = K + (a+b).

    Raises NotASubloop if the subset is not a subloop at all.  Each side
    is gathered over a block of elements a, all b and all of K, and
    sorted along K; a block holds at most ``tables._BLOCK_ELEMS``
    entries, or n |K| (no more than the table) when one a needs more.
    """
    sub = ElementSubset.of(loop.n, subset)
    if not is_subloop(loop, sub):
        raise NotASubloop(f"{list(sub)} is not a subloop")
    add, n = loop.add, loop.n
    k = np.fromiter(sub, dtype=np.intp, count=len(sub))
    # [b, i] = b + k_i and k_i + b
    bk, kb = add[:, k], np.ascontiguousarray(add[k].T)

    def same(lhs, rhs):
        """Whether lhs and rhs hold the same set along their last axis."""
        return np.array_equal(np.sort(lhs, axis=-1), np.sort(rhs, axis=-1))

    step = max(1, tables._BLOCK_ELEMS // (n * k.size))
    for r in range(0, n, step):
        rows = add[r:r + step]
        # a + K and K + a; then [a, b, i] = (a+b) + k_i and a + (b+k_i);
        # then (k_i+a) + b and k_i + (a+b)
        if not (same(bk[r:r + step], kb[r:r + step])
                and same(bk.take(rows, axis=0), rows.take(bk, axis=1))
                and same(add.take(kb[r:r + step], axis=0).transpose(0, 2, 1),
                         kb.take(rows, axis=0))):
            return False
    return True


@dataclass(frozen=True, eq=False)
class StructureHom:
    """A validated homomorphism of loops: ``map`` is the read-only int64
    array of ``_checked_map``, the image of each source element."""

    source: CayleyLoop
    target: CayleyLoop
    map: np.ndarray

    @cached_property
    def kernel(self) -> ElementSubset:
        return ElementSubset.from_mask(self.map == self.target.zero)

    @cached_property
    def image(self) -> ElementSubset:
        return ElementSubset.from_mask(np.bincount(self.map, minlength=self.target.n) > 0)

    def __repr__(self):
        return f"{type(self).__name__}({self.source!r} -> {self.target!r})"


def validate_loop_hom(f, source: CayleyLoop, target: CayleyLoop) -> StructureHom:
    """Check f(a + b) = f(a) + f(b) for all a, b and wrap the map.

    Preservation of zero and of both differences follows from the
    addition law by cancellation, so only the one law is scanned.
    """
    fm = _checked_map(f, source.n, target.n)
    _require_law(fm, source.add, target.add, "+")
    return StructureHom(source=source, target=target, map=fm)


def _checked_map(f, source_n: int, target_n: int) -> np.ndarray:
    """The map as a read-only int64 array, once its length and entries
    are in range: the array a StructureHom keeps as its ``map``.

    Entries must be integers (``tables.all_integers``) and are
    range-checked before the int64 conversion, so one past int64 is
    refused too.
    """
    entries = list(f)
    if len(entries) != source_n:
        raise NotAHomomorphism(f"map has {len(entries)} entries, expected {source_n}")
    if not tables.all_integers(entries):
        raise NotAHomomorphism("map entries must be integers")
    if not all(0 <= v < target_n for v in entries):
        raise NotAHomomorphism("map entries outside the target carrier")
    fm = np.array(entries, dtype=np.int64)
    fm.setflags(write=False)
    return fm


def _require_law(fm: np.ndarray, src: np.ndarray, tgt: np.ndarray, op: str) -> None:
    """f(a op b) = f(a) op f(b) for all a, b, or the least failing (a, b)."""
    bad = fm[src] != tgt[fm[:, None], fm]
    if bad.any():
        a, b = (int(x) for x in np.argwhere(bad)[0])
        raise NotAHomomorphism(f"f({a} {op} {b}) != f({a}) {op} f({b})", witness=(a, b))

"""Loop near-rings: a loop under + with a monoid multiplication that
distributes over + from the right and kills zero on the right.

The definition checked by ``validate_lnr`` is:

  * (N, +) is a loop (not necessarily associative or commutative),
  * (N, *) is a monoid with identity ``one``,
  * (a + b) * c = a*c + b*c for all a, b, c,
  * 0 * n = 0 for all n (this already follows from right
    distributivity plus cancellation, but it is scanned anyway).

``n * 0 = 0`` does NOT follow and is recorded per structure as the
``zero_symmetric`` flag.  The full map near-ring M(G) fails it on the
constant maps; the zero-fixing map near-ring M0(G) satisfies it.
Locality analysis requires the flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tables
from .config import DEFAULT_BOUNDS, Bounds
from .errors import NotIdempotent, PreconditionFailed, TheoremViolation
from .lattice import ClosureSystem
from .loops import CayleyLoop, ElementSubset, _elements, _sorted_subsets, is_subloop


@dataclass(frozen=True, eq=False, repr=False)
class LoopNearRing(CayleyLoop):
    """Validated loop near-ring over the carrier 0 .. n-1: its additive
    loop (N, +), as a CayleyLoop, with the multiplication ``mul``."""

    kind = "lnr"  # the last ``tables.AXIOMS`` kind the validator scans

    mul: np.ndarray
    one: int
    zero_symmetric: bool

    @cached_property
    def inverse(self) -> np.ndarray:
        """inverse[u], the inverse of unit u or -1, read off row u alone: in a
        finite monoid u*v = 1 forces v*u = 1, for x -> v*x is one to one
        (u*v*x = x), so v*w = 1 for some w, and w = u*v*w = u.  One gather
        over the units checks the other side, raising TheoremViolation."""
        hits = self.mul == self.one
        inverse = np.where(hits.any(axis=1), hits.argmax(axis=1), -1).astype(np.int64)
        u = np.flatnonzero(inverse >= 0)
        if (wrong := u[self.mul[inverse[u], u] != self.one]).size:
            raise TheoremViolation(f"{wrong[0]}*{inverse[wrong[0]]} = 1 but not the other way round")
        inverse.setflags(write=False)
        return inverse

    # derived objects, each computed once per near-ring; the public
    # functions check their size bounds before reading them
    @cached_property
    def _units(self) -> ElementSubset:
        mask = self.inverse >= 0
        members = np.flatnonzero(mask)
        if members.size and not mask[self.mul[np.ix_(members, members)]].all():
            raise TheoremViolation("units are not closed under multiplication")
        return ElementSubset.from_mask(mask)

    @cached_property
    def _idempotents(self) -> ElementSubset:
        diag = self.mul[np.arange(self.n), np.arange(self.n)]
        return ElementSubset.from_mask(diag == np.arange(self.n))

    @cached_property
    def _n_subloops(self) -> tuple:
        return _n_subloop_lattice(self)

    @cached_property
    def _maximal_n_subloops(self) -> tuple:
        """The coatoms.  Unless the lattice is already kept, a local N
        gets its one coatom without it, from U', its non-units (``inverse``):

          1. an N-subloop holding a unit u holds 1 = u^-1 * u, so N*1 = N;
          2. so every proper N-subloop lies in U', hence in cl({0} | U');
          3. so cl({0} | U'), when proper, is the unique coatom.

        Otherwise the lattice is filtered by decreasing size: a proper set
        is maximal exactly when no maximal set found so far holds it, since
        every larger proper set came first and lies in one of them.
        """
        if "_n_subloops" not in self.__dict__:
            seed = self.inverse < 0
            seed[self.zero] = True
            closed = _n_subloop_system(self).close(np.flatnonzero(seed))
            if not closed.all():
                return (ElementSubset.from_mask(closed),)
        maximal: list = []
        for s in reversed(self._n_subloops):
            if len(s) < self.n and not any(s.members < m.members for m in maximal):
                maximal.append(s)
        return tuple(reversed(maximal))

    @cached_property
    def _local(self) -> bool:
        """Locality along two routes that must agree: exactly one maximal
        proper N-subloop, and the non-units form an N-subloop.  When
        local, the one coatom is the non-unit set."""
        nonunits = ElementSubset.from_mask(~self._units.mask())
        via_units = is_N_subloop(self, nonunits)
        maximal = self._maximal_n_subloops
        via_maximal = len(maximal) == 1
        if via_maximal != via_units:
            raise TheoremViolation(
                "locality characterizations disagree: "
                f"maximal route says {via_maximal}, unit route says {via_units}"
            )
        if via_maximal and maximal[0].members != nonunits.members:
            raise TheoremViolation("unique maximal N-subloop differs from the non-unit set")
        return via_maximal


def _validated(cls, add_table, mul_table, one: int, laws: bool = True):
    """Certify tables as a ``cls`` by one ``tables.AXIOMS`` scan up to
    ``cls.kind``, the law rows only if ``laws``: from the loop rows, or
    from the "lnr" rows if ``add_table`` is already a CayleyLoop (any
    structure is its additive loop).  The scan converts ``mul_table``
    after the loop rows."""
    if isinstance(add_table, CayleyLoop):
        add, start = add_table.add, "lnr"
    else:
        add, start = tables.as_table(add_table), "loop"
    one = int(one)
    mul = tables.require(add, mul_table, one, start=start, kind=cls.kind, laws=laws)
    zero_symmetric = bool((mul[:, cls.zero] == cls.zero).all())
    if cls.kind == "ring" and not zero_symmetric:
        # left distributivity forces n*0 = 0, so this cannot happen
        raise TheoremViolation("ring axioms hold but n*0 != 0 somewhere")
    return cls(n=len(add), add=add, mul=mul, one=one, zero_symmetric=zero_symmetric)


def validate_lnr(add_table, mul_table, one: int) -> LoopNearRing:
    """Check every loop near-ring row of ``tables.AXIOMS`` on raw tables.

    ``add_table`` may be a raw table or an already validated CayleyLoop
    (or any structure, which is its own additive loop), whose loop rows
    are then not rescanned.
    """
    return _validated(LoopNearRing, add_table, mul_table, one)


def induced(nr: LoopNearRing, carrier, one: int) -> LoopNearRing:
    """The structure of ``nr``'s own type on the set of elements
    ``carrier``, re-indexed 0..k-1 in ascending order, with identity ``one``.

    Both pass the element gate (``ElementSubset.of``, ``_elements``).
    The result is ``nr``'s own tables on a subset, so it inherits
    ``nr``'s law rows of ``tables.AXIOMS`` and only the others are
    scanned, up to ``nr.kind``: a ring's corner or image is a
    FiniteRing.  A carrier not closed under + and * leaves a -1 in a
    table and is refused with EntriesOutOfRange.
    """
    reps = np.fromiter(ElementSubset.of(nr.n, carrier), np.int64)
    (one,) = _elements(nr.n, (one,))
    return _image(nr, reps, tables.positions(reps, nr.n), one)


def _image(nr: LoopNearRing, reps, label, one: int) -> LoopNearRing:
    """``nr``'s tables on reps x reps, each entry and ``one`` sent through
    the lookup array ``label``: the positions of reps (``induced``,
    ``homs.image_subring``) or the coset projection of a certified ideal
    (``rings._quotient_by``), a homomorphism (Birkhoff).  Either way the
    law rows are inherited."""
    grid = np.ix_(reps, reps)
    return _validated(type(nr), label[nr.add[grid]], label[nr.mul[grid]], label[one], laws=False)


def units(nr: LoopNearRing) -> ElementSubset:
    """Elements with a two-sided multiplicative inverse, the units of
    ``nr.inverse``, whose entry at each unit is its inverse.

    The result is asserted to be closed under multiplication; each
    inverse is a unit by construction, since ``inverse`` certifies it
    on both sides.  Computed once per near-ring.
    """
    return nr._units


def idempotents(nr: LoopNearRing) -> ElementSubset:
    """All e with e * e = e, computed once per near-ring."""
    return nr._idempotents


def _require_idempotent(nr: LoopNearRing, e) -> int:
    """``e`` as an int once it passes the element gate (``loops._elements``),
    or NotIdempotent if e * e != e."""
    (e,) = _elements(nr.n, (e,))
    if nr.mul[e, e] != e:
        raise NotIdempotent(f"{e} is not idempotent")
    return e


def is_N_subloop(nr: LoopNearRing, subset) -> bool:
    """Subloop of (N, +) absorbing multiplication from the left: N*I <= I."""
    subset = ElementSubset.of(nr.n, subset)
    if not is_subloop(nr, subset):
        return False
    return bool(subset.mask()[nr.mul[:, list(subset.members)]].all())


def _principal_n_subloops(nr: LoopNearRing) -> np.ndarray:
    """The (n, n) boolean table whose row x is N*x, column x of mul."""
    principal = np.zeros((nr.n, nr.n), dtype=bool)
    principal[np.arange(nr.n), nr.mul] = True
    return principal


def _n_subloop_lattice(nr: LoopNearRing) -> tuple:
    """Every N-subloop, from the principal table read off mul.

    The least N-subloop holding x is N*x = {r*x}, so no principal
    closure needs a saturation:

      * N*x is closed under +, since r*x + s*x = (r+s)*x;
      * it is closed under N*, since s*(r*x) = (s*r)*x;
      * it holds x = 1*x and 0 = 0*x, and in a finite loop a subset
        holding 0 and closed under + is a subloop;
      * it holds the bottom N*0, since r*0 = r*(0*x) = (r*0)*x.
    """
    return _sorted_subsets(_n_subloop_system(nr).closed_sets((nr.zero,), _principal_n_subloops(nr)))


def _n_subloop_system(nr: LoopNearRing) -> ClosureSystem:
    """The closure system of N-subloops.  A certified ring's are its left
    ideals, and two left ideals join as their sumset (see lattice)."""
    return ClosureSystem(nr.n, nr._closure.binary, absorbing=nr.mul,
                         sumsets=nr.kind == "ring")


def enumerate_N_subloops(nr: LoopNearRing, bounds: Bounds = DEFAULT_BOUNDS) -> list:
    """The full lattice of N-subloops, sorted by (size, members).

    The engine reads the single-element closures off mul's columns
    and closes them under join; the lattice is built once per
    near-ring.  For a ring this is exactly the lattice of left ideals.
    """
    bounds.check("max_enum_n", nr.n, "near-ring for N-subloop enumeration")
    return list(nr._n_subloops)


def maximal_N_subloops(nr: LoopNearRing, bounds: Bounds = DEFAULT_BOUNDS) -> list:
    """Proper N-subloops not strictly contained in another proper one."""
    bounds.check("max_enum_n", nr.n, "near-ring for N-subloop enumeration")
    return list(nr._maximal_n_subloops)


def annihilator(nr: LoopNearRing, e: int) -> ElementSubset:
    """Ann(e) = { y : y * e = 0 } for an idempotent e.

    Two facts from the structure theory are asserted on every call:
    N = Ann(e) + N*e elementwise (each n splits as y + n*e with
    y * e = 0), and, when N is zero-symmetric, Ann(e) is an N-subloop.
    """
    n = nr.n
    e = _require_idempotent(nr, e)
    col = nr.mul[:, e]
    # n = y + n*e with y = rdiff[n][n*e]; the theory says y * e = 0
    y = nr.rdiff[np.arange(n), col]
    if (nr.mul[y, e] != nr.zero).any():
        raise TheoremViolation("N != Ann(e) + N*e decomposition failed")
    out = ElementSubset.from_mask(col == nr.zero)
    if nr.zero_symmetric and not is_N_subloop(nr, out):
        raise TheoremViolation("Ann(e) is not an N-subloop in a zero-symmetric near-ring")
    return out


def is_local_lnr(nr: LoopNearRing, bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Locality, decided twice and certified to agree once per near-ring
    (``LoopNearRing._local``).

    Requires a zero-symmetric near-ring; the equivalence being
    exercised is only a theorem under that hypothesis.  The size bound
    is checked on every call, before any work.
    """
    if not nr.zero_symmetric:
        raise PreconditionFailed("locality analysis requires a zero-symmetric near-ring")
    bounds.check("max_enum_n", nr.n, "near-ring for N-subloop enumeration")
    return nr._local

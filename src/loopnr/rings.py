"""Finite associative unital rings, as the degenerate loop near-rings
whose addition is an abelian group and which distribute on both sides.

Everything here is decided by exhaustive scans, and the structurally
important quantities are computed along two independent routes that
are asserted to agree:

  * the Jacobson radical via quasi-regularity and via the intersection
    of maximal left ideals,
  * locality via three routes: a unique maximal left ideal and the
    non-unit set being a left ideal (both from ``is_local_lnr``), and
    the quotient by the radical being a division ring,
  * idempotent lifting via the polynomial iteration and via coset
    search.

The certified radical and the projection A -> A/J are computed once per ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tables
from .config import DEFAULT_BOUNDS, Bounds
from .errors import (
    HypothesisFailed,
    NotAnIdeal,
    NotApproximatelyIdempotent,
    TheoremViolation,
)
from .loops import ElementSubset, _elements
from .nearrings import (
    LoopNearRing,
    _image,
    _require_idempotent,
    _validated,
    enumerate_N_subloops,
    idempotents,
    is_local_lnr,
    units,
)


@dataclass(frozen=True, eq=False, repr=False)
class FiniteRing(LoopNearRing):
    """A loop near-ring whose axioms upgrade it to an associative ring."""

    kind = "ring"

    @cached_property
    def neg(self) -> np.ndarray:
        # -a solves a + x = 0, the one zero entry in row a
        return (np.flatnonzero(self.add == self.zero) % self.n).astype(tables.DTYPE)

    def sub(self, a, b):
        """a - b, elementwise over arrays or ints."""
        return self.add[a, self.neg[b]]

    @cached_property
    def _corners(self) -> dict:
        # corner rings e*A*e by idempotent e, filled by decomp.corner_ring
        return {}

    @cached_property
    def _nonzero_idempotents(self) -> np.ndarray:
        # ascending, as one array for decomp's splitter passes
        idem = np.fromiter(self._idempotents, np.int64)
        return idem[idem != self.zero]

    @cached_property
    def _splitters(self) -> dict:
        # each idempotent's least splitter or None, filled by decomp._splitters
        return {}

    @cached_property
    def _canonical(self):
        from .decomp import _split   # the canonical family, split once
        return _split(self)

    @cached_property
    def _radical(self) -> ElementSubset:
        # the radical both ways, asserted equal and two-sided, once per ring
        a = radical_by_quasiregularity(self)
        b = _meet_of_maximal(self)
        if a.members != b.members:
            raise TheoremViolation(
                "radical procedures disagree: quasi-regularity gives "
                f"{a.sorted_members}, maximal left ideals give {b.sorted_members}"
            )
        try:
            return validate_ideal(self, a)
        except NotAnIdeal as exc:
            raise TheoremViolation(f"Jacobson radical is not a two-sided ideal: {exc}") from exc

    @cached_property
    def _quotient(self):
        # A -> A/J, built once, by the radical certified once
        return _quotient_by(self, self._radical)


def validate_ring(nr: LoopNearRing) -> FiniteRing:
    """Re-validate a loop near-ring as a ring, or refuse."""
    return validate_ring_tables(nr, nr.mul, nr.one)


def validate_ring_tables(add_table, mul_table, one: int) -> FiniteRing:
    """Check every near-ring and ring row of ``tables.AXIOMS`` in one scan."""
    return _validated(FiniteRing, add_table, mul_table, one)


def validate_ideal(ring: FiniteRing, subset) -> ElementSubset:
    """The two-sided ideal ``subset`` as the ElementSubset it certifies, or
    NotAnIdeal.  An ideal is an additive subgroup absorbing multiplication
    on both sides; holding 0 and closed under ``+`` makes a finite subset
    one (-x = (k - 1)x, k the order of x)."""
    sub = ElementSubset.of(ring.n, subset)
    if ring.zero not in sub.members:
        raise NotAnIdeal("ideal must contain 0")
    idx = np.fromiter(sub.sorted_members, dtype=np.int64)
    m = sub.mask()
    if not m[ring.add[np.ix_(idx, idx)]].all():
        raise NotAnIdeal("subset not closed under addition")
    if not m[ring.mul[:, idx]].all():
        raise NotAnIdeal("subset does not absorb left multiplication")
    if not m[ring.mul[idx, :]].all():
        raise NotAnIdeal("subset does not absorb right multiplication")
    return sub


def left_ideals(ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> list:
    """All left ideals.  For a ring these are exactly the N-subloops."""
    return enumerate_N_subloops(ring, bounds)


def radical_by_quasiregularity(ring: FiniteRing) -> ElementSubset:
    """J = { a : 1 - x*a has a left inverse for every x }.

    1 - y has one exactly when it is a unit (see ``inverse``): one vector
    over y, so a single (n, n) gather of it through mul answers it for
    every 1 - x*a; the table of 1 - x*a is never built.
    """
    # [y]: whether 1 - y has a left inverse
    one_minus_has = (ring.inverse >= 0)[ring.add[ring.one, ring.neg]]
    return ElementSubset.from_mask(one_minus_has[ring.mul].all(axis=0))


def radical_by_maximal_left_ideals(
    ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS
) -> ElementSubset:
    """J = intersection of all maximal left ideals (the whole ring if none)."""
    bounds.check("max_enum_n", ring.n, "ring for left-ideal enumeration")
    return _meet_of_maximal(ring)


def _meet_of_maximal(ring: FiniteRing) -> ElementSubset:
    meet = frozenset(range(ring.n)).intersection(*(s.members for s in ring._maximal_n_subloops))
    return ElementSubset(ring.n, meet)


def jacobson_radical(ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> ElementSubset:
    """The radical, computed both ways, asserted equal and two-sided:
    the ElementSubset ``validate_ideal`` certified, once per ring.
    """
    bounds.check("max_enum_n", ring.n, "ring for left-ideal enumeration")
    return ring._radical


def quotient_ring(ring: FiniteRing, ideal):
    """The canonical projection A -> A / I as an ``LnrHom``: its ``target``
    is A / I, its ``map`` the read-only coset index of each element, its
    ``kernel`` I.  Cosets are indexed by ascending least element, so the
    zero coset is 0; A / {0} is A itself, along the identity.

    The ideal is certified first, so the cosets of a + b and a * b are
    read off those of a and b.  ``_image`` builds A / I's tables as A's
    sent through this same map, so it is a homomorphism by construction
    and A / I inherits A's ring laws.
    """
    return _quotient_by(ring, validate_ideal(ring, ideal))


def _quotient_by(ring: FiniteRing, ideal: ElementSubset):
    """``quotient_ring`` for an ideal that ``validate_ideal`` has certified."""
    from .homs import LnrHom   # homs imports rings
    if len(ideal) == 1:
        proj = np.arange(ring.n, dtype=np.int64)
        q = ring
    else:
        ii = np.fromiter(ideal, dtype=np.int64, count=len(ideal))
        # leader[x] = min(x + I); the coset index of x is the rank of its leader
        leader_of = ring.add[:, ii].min(axis=1)
        leaders = tables.distinct(leader_of, ring.n)
        proj = np.searchsorted(leaders, leader_of).astype(np.int64)
        q = _image(ring, leaders, proj, ring.one)
    proj.setflags(write=False)
    return LnrHom(source=ring, target=q, map=proj)


def is_division_ring(ring: FiniteRing) -> bool:
    """1 != 0 and every nonzero element is a unit."""
    if ring.n < 2:
        return False
    return len(units(ring)) == ring.n - 1


def is_local_ring(ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Both routes of ``is_local_lnr``, cross-checked against A/J division."""
    # is_local_lnr checks the size bound before A/J is read
    by_lnr = is_local_lnr(ring, bounds)
    by_quotient = is_division_ring(ring._quotient.target)
    if by_lnr != by_quotient:
        raise TheoremViolation(
            f"locality characterizations disagree on a ring: maximal and non-unit "
            f"routes {by_lnr}, division-quotient route {by_quotient}"
        )
    return by_lnr


def is_semisimple(ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Radical is zero."""
    return len(jacobson_radical(ring, bounds)) == 1


def is_semiperfect(ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """A/J is semisimple and idempotents of A/J lift to A.

    Every finite ring satisfies both; the check runs anyway because it
    exercises the same machinery the decomposition theory relies on.
    """
    bounds.check("max_enum_n", ring.n, "ring for left-ideal enumeration")
    q = ring._quotient
    if not is_semisimple(q.target, bounds):
        return False
    lifted = set(int(q.map[e]) for e in idempotents(ring))
    return all(e in lifted for e in idempotents(q.target))


def coset_idempotents(ring: FiniteRing, ideal, x: int) -> tuple:
    """All idempotents in the coset x + I, ascending.  Brute force.  The
    ideal I passes ``validate_ideal`` and ``x`` the element gate
    ``loops._elements``."""
    ideal = validate_ideal(ring, ideal)
    (x,) = _elements(ring.n, (x,))
    return _coset_idempotents(ring, ideal, x)


def _coset_idempotents(ring: FiniteRing, ideal: ElementSubset, x: int) -> tuple:
    """``coset_idempotents`` of an ideal and an element already certified."""
    ii = np.fromiter(ideal, dtype=np.int64, count=len(ideal))
    coset = np.sort(ring.add[x, ii])
    diag = ring.mul[coset, coset]
    return tuple(int(e) for e in coset[diag == coset])


def lift_idempotent(ring: FiniteRing, ideal, x: int) -> int:
    """Idempotent e with e = x mod I, for x*x - x in a nil ideal I.

    Iterates x <- 3x^2 - 2x^3; each step squares the defect t = x*x - x
    (t' = t^2 * (4t - 3)), and a nil ideal of a finite ring is
    nilpotent, so the iteration reaches a true idempotent.  The result
    is always checked against the exhaustive coset search
    (``coset_idempotents``).  The ideal passes ``validate_ideal`` and
    ``x`` the element gate ``loops._elements``.

    Lifting needs I inside J(A), which in a finite ring means every
    member is nilpotent: its nonzero powers are distinct, so a^n = 0,
    and a power 2^k > n is read by k squarings.  HypothesisFailed names
    the least member whose power is not 0.
    """
    mul, add = ring.mul, ring.add
    ideal = validate_ideal(ring, ideal)
    (x,) = _elements(ring.n, (x,))
    members = power = np.fromiter(ideal, dtype=np.int64, count=len(ideal))
    for _ in range(ring.n.bit_length()):
        power = mul[power, power]
    non_nil = members[power != ring.zero]
    if non_nil.size:
        raise HypothesisFailed("idempotent lifting needs a nil ideal", witness=int(non_nil[0]))
    t = ring.sub(mul[x, x], x)
    if int(t) not in ideal:
        raise NotApproximatelyIdempotent(f"x*x - x = {int(t)} is not in the ideal")
    cur = x
    for _ in range(64):
        sq = mul[cur, cur]
        if int(sq) == cur:
            break
        cube = mul[sq, cur]
        cur = int(ring.sub(add[sq, add[sq, sq]], add[cube, cube]))
    e = int(cur)
    if int(mul[e, e]) != e or int(ring.sub(e, x)) not in ideal:
        raise TheoremViolation("idempotent lifting iteration failed to converge")
    if e not in _coset_idempotents(ring, ideal, x):
        raise TheoremViolation("iterated lift disagrees with coset search")
    return e


def idempotents_isomorphic(ring: FiniteRing, e: int, f: int) -> bool:
    """Whether eA and fA are isomorphic as right modules (``_iso_witness``)."""
    return _iso_witness(ring, e, f) is not None


def _iso_witness(ring: FiniteRing, e: int, f: int):
    """A pair (a, b) with a in eAf, b in fAe, a*b = e and b*a = f, or None.

    Such a pair exists exactly when eA and fA are isomorphic as right
    modules.  Found by exhaustive search over eAf x fAe, in blocks of
    rows a of ``tables._BLOCK_ELEMS`` pairs, up to the first block that
    holds such a pair.
    """
    mul = ring.mul
    e, f = _require_idempotent(ring, e), _require_idempotent(ring, f)
    eaf = tables.distinct(mul[e, mul[:, f]], ring.n)[:, None]
    fae = tables.distinct(mul[f, mul[:, e]], ring.n)
    step = tables._blocks(len(fae))
    for a in (eaf[r:r + step] for r in range(0, len(eaf), step)):
        hit = (mul[a, fae] == e) & (mul[fae, a] == f)
        if hit.any():
            i, j = divmod(int(hit.argmax()), len(fae))
            return int(a[i, 0]), int(fae[j])
    return None


def idempotents_conjugate(ring: FiniteRing, e: int, f: int) -> bool:
    """Whether f = u^-1 * e * u for some unit u."""
    e, f = _require_idempotent(ring, e), _require_idempotent(ring, f)
    u = np.flatnonzero(ring.inverse >= 0)
    return bool((ring.mul[ring.mul[ring.inverse[u], e], u] == f).any())

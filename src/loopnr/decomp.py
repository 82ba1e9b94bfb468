"""Decomposition of the regular module of a finite ring via idempotents.

A complete orthogonal family of nonzero idempotents e1..ek (ei*ej = 0
for i != j, sum = 1) splits the regular right module into the summands
ei*A.  The summand ei*A is indecomposable exactly when ei is primitive
(the corner ring ei*A*ei has only the trivial idempotents), and the
Krull-Schmidt statement certified here says: once the canonical family
is strongly indecomposable (all corners local), every complete family
of primitive idempotents has the same length and members pairwise
isomorphic to the canonical ones.

Corner locality is decided once per isomorphism class: the three
locality routes run at the class's least member r, and each other
member f takes r's verdict along x -> b*x*a, for the a in rAf, b in fAr
with a*b = r and b*a = f that put f in r's class.  That map is a ring
isomorphism rAr -> fAf (x = r*x*r, so b*x*a*b*y*a = b*x*y*a, and
b*r*a = f), with inverse y -> a*y*b; it is certified pointwise before
the verdict is carried.

Each relation among a ring's idempotents is read once per ring (the
least splitters, the canonical family; orthogonality once per
enumeration), and each corner ring and its signature once per corner;
the corner at 1 is the ring itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tables
from .config import DEFAULT_BOUNDS, Bounds
from .errors import (
    HypothesisFailed,
    LimitReached,
    NotAHomomorphism,
    NotIdempotent,
    PreconditionFailed,
    TheoremViolation,
    ZeroIdempotent,
)
from .homs import validate_lnr_hom
from .io import _render_rows
from .lattice import bits_of
from .loops import _elements
from .nearrings import _require_idempotent, idempotents, induced, units
from .rings import FiniteRing, _iso_witness, is_local_ring
from .tables import distinct, positions


def validate_idempotent_family(ring: FiniteRing, members) -> tuple:
    """A complete orthogonal family of nonzero idempotents, as the
    ascending tuple of its members, once idempotence, orthogonality and
    completeness are checked.  Only the zero ring admits the empty
    family.  The members pass ``loops._elements`` and stay a sorted
    list, not a set, so a repeated member is refused as not orthogonal."""
    ms = tuple(sorted(_elements(ring.n, members)))
    mul = ring.mul
    for e in ms:
        if e == ring.zero:
            raise ZeroIdempotent("family members must be nonzero")
        if int(mul[e, e]) != e:
            raise NotIdempotent(f"family member {e} is not idempotent")
    for i, e in enumerate(ms):
        for f in ms[i + 1 :]:
            if int(mul[e, f]) != ring.zero or int(mul[f, e]) != ring.zero:
                raise PreconditionFailed(f"family members {e}, {f} not orthogonal")
    acc = ring.zero
    for e in ms:
        acc = int(ring.add[acc, e])
    if acc != ring.one:
        raise PreconditionFailed(f"family sums to {acc}, not to one")
    return ms


@dataclass(frozen=True, eq=False)
class CornerRing:
    """The ring e*A*e with identity e, re-indexed to 0..k-1 and kept on
    the parent ring per e (``corner_ring``).

    ``carrier[i]`` is the parent element the i-th corner element
    stands for; carrier is ascending, so corner index 0 is parent zero.
    """

    carrier: tuple
    ring: FiniteRing

    @cached_property
    def invariants(self) -> tuple:
        """Size, unit count and idempotent count: isomorphism invariants."""
        return (self.ring.n, len(units(self.ring)), len(idempotents(self.ring)))

    @cached_property
    def signature(self) -> tuple:
        """The invariants and a digest: SHA-256 of
        ``repr((n, sorted(map(tuple, mul.tolist()))))``, fed that text as
        ``io._render_rows`` renders the ``np.lexsort``-ed rows, block by
        block; the bytes do not depend on the block size."""
        mul = self.ring.mul
        rows = mul[np.lexsort(mul.T[::-1])]
        h = hashlib.sha256(f"({len(rows)}, [(".encode())
        for text in _render_rows(rows, ", ", ")" if len(rows) > 1 else ",)", ", ("):
            h.update(text)
        h.update(b"])")
        return (*self.invariants, h.hexdigest()[:16])


def corner_ring(ring: FiniteRing, e: int) -> CornerRing:
    """The corner ring at an idempotent, built once per (ring, e); the
    corner at 1 is the ring itself."""
    e = _require_idempotent(ring, e)
    corner = ring._corners.get(e)
    if corner is None:
        if e == ring.one:
            carrier, sub = range(ring.n), ring
        else:
            carrier = distinct(ring.mul[e, ring.mul[:, e]], ring.n)
            sub = induced(ring, carrier, e)
        corner = CornerRing(carrier=tuple(int(v) for v in carrier), ring=sub)
        ring._corners[e] = corner
    return corner


def is_primitive(ring: FiniteRing, e: int) -> bool:
    """e generates an indecomposable summand: corner idempotents trivial.

    A splitter of e (``_splitters``), read off the parent's tables,
    decides "not primitive" without building the corner.  Otherwise the
    corner is built and its own idempotents confirm the verdict.
    """
    e = _require_idempotent(ring, e)
    if e == ring.zero:
        raise ZeroIdempotent("primitivity is about nonzero idempotents")
    return _splitters(ring, [e])[0] is None and _corner_confirms(ring, e)


def _corner_confirms(ring: FiniteRing, e: int) -> bool:
    """True once e's corner, e having no splitter, counts 2 idempotents."""
    count = len(idempotents(corner_ring(ring, e).ring).members)
    if count != 2:
        raise TheoremViolation(
            f"primitivity of {e}: the parent route finds 2 corner idempotents, "
            f"the corner route {count}"
        )
    return True


def _primitives(ring: FiniteRing) -> list:
    """The nonzero primitive idempotents, ascending: one splitter pass
    over all of them, then the corner route at each without a splitter."""
    nonzero = ring._nonzero_idempotents.tolist()
    return [e for e, g in zip(nonzero, _splitters(ring, nonzero))
            if g is None and _corner_confirms(ring, e)]


def is_strongly_indecomposable_corner(
    ring: FiniteRing, e: int, bounds: Bounds = DEFAULT_BOUNDS
) -> bool:
    """The corner ring e*A*e is local."""
    e = _require_idempotent(ring, e)
    if e == ring.zero:
        raise ZeroIdempotent("strong indecomposability is about nonzero idempotents")
    return is_local_ring(corner_ring(ring, e).ring, bounds)


def _require_local_corners(
    ring: FiniteRing, members, witnesses: dict, bounds: Bounds, what: str
) -> None:
    """Raise HypothesisFailed at the least of the ascending ``members``
    whose corner is not local.

    The three routes (``is_local_ring``) run at each member without a
    witness (r, a, b) from ``_iso_class_labels`` to an earlier local
    member r.  Each other f takes r's verdict along phi: rAr -> fAf,
    x -> b*x*a, a ring isomorphism for a true witness (x = r*x*r, a*b = r
    and b*a = f make it multiplicative and unital; y -> a*y*b inverts
    it), once ``validate_lnr_hom`` and a count of distinct values certify
    it; otherwise TheoremViolation names r, f and the failing law.
    """
    local: set = set()
    for f in members:
        if f in witnesses and witnesses[f][0] in local:
            r, a, b = witnesses[f]
            src, tgt = corner_ring(ring, r), corner_ring(ring, f)
            phi = positions(tgt.carrier, ring.n)[ring.mul[ring.mul[b, list(src.carrier)], a]]
            law = f"corner locality carried from {r} to {f} along x -> {b}*x*{a}"
            try:
                validate_lnr_hom(phi, src.ring, tgt.ring)
            except NotAHomomorphism as exc:
                raise TheoremViolation(f"{law}: {exc}") from exc
            if not len(distinct(phi, tgt.ring.n)) == src.ring.n == tgt.ring.n:
                raise TheoremViolation(f"{law}: it is not a bijection")
        elif not is_strongly_indecomposable_corner(ring, f, bounds):
            raise HypothesisFailed(f"{what} without a local corner", witness=f)
        local.add(f)


def _splitters(ring: FiniteRing, es: list) -> list:
    """The least splitter of each idempotent e in ``es``, or None: the
    least idempotent g of A with e*g = g*e = g outside {0, e}.  Such g
    are the idempotents of e*A*e other than its 0 and 1, so e is
    primitive exactly when it has none.  Answers are kept on the ring;
    the rest come from one pass over its nonzero idempotents in blocks
    of ``tables._BLOCK_ELEMS`` pairs (not a full table: 16M at Z2^12)."""
    memo, idem = ring._splitters, ring._nonzero_idempotents
    todo = [e for e in es if e not in memo]
    step = tables._blocks(len(idem))
    for r in range(0, len(todo), step):
        e = np.asarray(todo[r:r + step])[:, None]
        inside = (ring.mul[e, idem] == idem) & (ring.mul[idem, e] == idem) & (idem != e)
        least = np.where(inside.any(axis=1), idem[inside.argmax(axis=1)], -1)
        memo.update((x, None if g < 0 else g) for x, g in zip(todo[r:r + step], least.tolist()))
    return [memo[e] for e in es]


def decompose_regular(ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> tuple:
    """The canonical complete family of primitive idempotents, as the
    ascending tuple of its members, split once per ring (``_split``)."""
    bounds.check("max_n", ring.n, "ring to decompose")
    return ring._canonical


def _split(ring: FiniteRing) -> tuple:
    """Recursive splitting from 1: each corner's least splitter g and its
    complement e - g within the corner are split in turn, and a corner
    without a splitter is a primitive member.  The least-index choice
    makes the result canonical.  The corners of one depth ask for their
    splitters in one pass."""
    parts = []
    todo = [] if ring.one == ring.zero else [ring.one]   # the zero ring's family is empty
    while todo:
        found = list(zip(todo, _splitters(ring, todo)))
        parts += [e for e, g in found if g is None]
        todo = [x for e, g in found if g is not None for x in (g, int(ring.sub(e, g)))]
    return validate_idempotent_family(ring, parts)


def _orthogonality(ring: FiniteRing, members: list) -> np.ndarray:
    """[i, j]: members i and j multiply to zero both ways."""
    kills = ring.mul[np.ix_(members, members)] == ring.zero
    return kills & kills.T


def enumerate_complete_primitive_families(ring: FiniteRing,
                                          bounds: Bounds = DEFAULT_BOUNDS) -> list:
    """All complete orthogonal families of primitive idempotents.

    Families are emitted as ascending tuples of members, in
    lexicographic order.  Past ``bounds.max_families`` families,
    LimitReached names that cap and carries the ones found so far in
    ``partial``.
    Orthogonality is read off one ``_orthogonality`` table of the
    primitives, its rows as bitsets; ``validate_idempotent_family``
    still certifies each family.
    """
    bounds.check("max_enum_n", ring.n, "ring for family enumeration")
    prim = _primitives(ring)
    add, one = ring.add, ring.one
    orth = [bits_of(row) for row in _orthogonality(ring, prim)]
    found: list = []

    def extend(chosen: list, total: int, allowed: int):
        # allowed: the primitives after the last chosen, orthogonal to all chosen
        if total == one:
            if len(found) >= bounds.max_families:
                raise LimitReached(f"more than {bounds.max_families} complete families "
                                   "(max_families)", partial=tuple(found))
            found.append(validate_idempotent_family(ring, chosen))
            return
        while allowed:
            k = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            extend(chosen + [prim[k]], int(add[total, prim[k]]), allowed & orth[k])

    extend([], ring.zero, (1 << len(prim)) - 1)
    return found


def corner_signature(ring: FiniteRing, e: int) -> tuple:
    """A cheap fingerprint of the corner ring at e, computed once per corner.

    Components: corner size, unit count, idempotent count, and a hash
    of the lexicographically sorted multiplication table.  The first
    three are isomorphism invariants; the table hash depends on the
    labeling, so only the numeric components may be used to rule out
    isomorphism.
    """
    return corner_ring(ring, e).signature


def _iso_class_labels(ring: FiniteRing, members) -> tuple:
    """Partition idempotents into isomorphism classes, labeled 0,1,...

    Labels are assigned in ascending order of each class's least
    member.  The corner invariants (``CornerRing.invariants``) prune pairs
    that cannot match; ``_iso_witness`` decides the rest.  Returns the
    labels and, for each member f that is not least in its class, the
    (r, a, b) that put f in the class of its least member r.
    """
    ms = sorted(set(int(e) for e in members))
    invariant = {e: corner_ring(ring, e).invariants for e in ms}
    labels: dict = {}
    witnesses: dict = {}
    reps: list = []
    for e in ms:
        for label, r in enumerate(reps):
            if invariant[e] == invariant[r] and (pair := _iso_witness(ring, r, e)):
                labels[e], witnesses[e] = label, (r, *pair)
                break
        else:
            labels[e] = len(reps)
            reps.append(e)
    return labels, witnesses


def verify_ks_uniqueness(ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> tuple:
    """Certify unique decomposition on one ring by exhaustion: each
    complete primitive family, in enumeration order, paired with the
    isomorphism class of each of its members.

    Enumerates every complete primitive family (at most
    ``bounds.max_families`` of them, else LimitReached), checks the strong
    indecomposability hypothesis on all members (HypothesisFailed
    otherwise), and verifies that all families have equal length with
    isomorphism-matched members.  A mismatch would falsify the
    uniqueness theorem for finite rings, so it raises TheoremViolation.
    """
    canonical = decompose_regular(ring, bounds)
    families = enumerate_complete_primitive_families(ring, bounds)
    if canonical not in families:
        raise TheoremViolation(f"canonical family {canonical} missing from enumeration")
    seen = sorted(set(e for f in families for e in f))
    labels, witnesses = _iso_class_labels(ring, seen)
    _require_local_corners(ring, seen, witnesses, bounds, "family member")
    canon_multiset = sorted(labels[e] for e in canonical)
    for fam in families:
        if len(fam) != len(canonical):
            raise TheoremViolation(f"families of different lengths: {fam} vs {canonical}")
        if sorted(labels[e] for e in fam) != canon_multiset:
            raise TheoremViolation(f"family {fam} not isomorphism-matched to {canonical}")
    return tuple((fam, tuple(labels[e] for e in fam)) for fam in families)


def verify_retract_matching(
    ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple:
    """Certify: each primitive idempotent is isomorphic to a canonical one.

    This is the indecomposable-retract side of uniqueness: a primitive
    idempotent f carves the indecomposable summand f*A out of the
    regular module, and that summand must already occur in the
    canonical decomposition.  Returns every primitive f paired with
    the least canonical member in f's isomorphism class; the canonical
    members are primitive, so one labelling of the primitives covers both.
    """
    bounds.check("max_enum_n", ring.n, "ring for family enumeration")
    canonical = decompose_regular(ring, bounds)
    prim = _primitives(ring)
    labels, witnesses = _iso_class_labels(ring, prim)
    _require_local_corners(ring, canonical, witnesses, bounds, "canonical member")
    least = {}
    for e in canonical:
        least.setdefault(labels[e], e)
    matches = []
    for f in prim:
        partner = least.get(labels[f])
        if partner is None:
            raise TheoremViolation(
                f"primitive idempotent {f} matches no canonical family member"
            )
        matches.append((f, partner))
    return tuple(matches)

"""Decomposition of the regular module of a finite ring via idempotents.

A complete orthogonal family of nonzero idempotents e1..ek (ei*ej = 0
for i != j, sum = 1) splits the regular right module into the summands
ei*A.  The summand ei*A is indecomposable exactly when ei is primitive
(the corner ring ei*A*ei has only the trivial idempotents), and the
Krull-Schmidt statement certified here says: once the canonical family
is strongly indecomposable (all corners local), every complete family
of primitive idempotents has the same length and members pairwise
isomorphic to the canonical ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BOUNDS, Bounds
from .errors import (
    HypothesisFailed,
    LimitReached,
    NotIdempotent,
    PreconditionFailed,
    TheoremViolation,
    ZeroIdempotent,
)
from .nearrings import _require_idempotent, idempotents, induced, units
from .rings import FiniteRing, idempotents_isomorphic, is_local_ring
from .tables import all_integers, distinct, positions


@dataclass(frozen=True, eq=False)
class IdempotentFamily:
    """A complete orthogonal family of nonzero idempotents.

    Members are stored in ascending order.  Only the zero ring admits
    the empty family.  Build instances through validate_idempotent_family
    so the invariants actually hold.
    """

    ring: FiniteRing
    members: tuple

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        return f"IdempotentFamily{self.members}"


def validate_idempotent_family(ring: FiniteRing, members) -> IdempotentFamily:
    """Check idempotence, orthogonality and completeness, then wrap."""
    members = list(members)
    if not all_integers(members):
        raise PreconditionFailed("family members must be integers")
    ms = tuple(sorted(int(e) for e in members))
    mul = ring.mul
    for e in ms:
        if not 0 <= e < ring.n:
            raise PreconditionFailed(f"family member {e} outside the carrier")
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
    return IdempotentFamily(ring=ring, members=ms)


@dataclass(frozen=True, eq=False)
class CornerRing:
    """The ring e*A*e with identity e, re-indexed to 0..k-1.

    ``carrier[i]`` is the parent element the i-th corner element
    stands for; carrier is ascending, so corner index 0 is parent zero.
    """

    parent: FiniteRing
    e: int
    carrier: tuple
    ring: FiniteRing


def corner_ring(ring: FiniteRing, e: int) -> CornerRing:
    """The corner ring at an idempotent, built once per (ring, e)."""
    e = _require_idempotent(ring, e)
    corner = ring._corners.get(e)
    if corner is None:
        carrier = distinct(ring.mul[e, ring.mul[:, e]], ring.n)
        sub = induced(ring, carrier, positions(carrier, ring.n), e)
        corner = CornerRing(
            parent=ring, e=e, carrier=tuple(int(v) for v in carrier), ring=sub
        )
        ring._corners[e] = corner
    return corner


def is_primitive(ring: FiniteRing, e: int) -> bool:
    """e generates an indecomposable summand: corner idempotents trivial.

    A ``_splitter`` of e, read off the parent's tables, decides "not
    primitive" without building the corner.  Otherwise the corner is
    built and its own idempotents confirm the verdict.
    """
    if e == ring.zero:
        raise ZeroIdempotent("primitivity is about nonzero idempotents")
    e = _require_idempotent(ring, e)
    if _splitter(ring, e) is not None:
        return False
    count = len(idempotents(corner_ring(ring, e).ring).members)
    if count != 2:
        raise TheoremViolation(
            f"primitivity of {e}: the parent route finds 2 corner idempotents, "
            f"the corner route {count}"
        )
    return True


def _primitives(ring: FiniteRing) -> list:
    """The nonzero primitive idempotents, ascending."""
    return [
        int(e)
        for e in idempotents(ring).sorted_members
        if e != ring.zero and is_primitive(ring, e)
    ]


def is_strongly_indecomposable_corner(
    ring: FiniteRing, e: int, bounds: Bounds = DEFAULT_BOUNDS
) -> bool:
    """The corner ring e*A*e is local."""
    if e == ring.zero:
        raise ZeroIdempotent("strong indecomposability is about nonzero idempotents")
    return is_local_ring(corner_ring(ring, e).ring, bounds)


def _require_local_corners(ring: FiniteRing, members, bounds: Bounds, what: str) -> None:
    """Raise HypothesisFailed at the first member whose corner is not local."""
    for e in members:
        if not is_strongly_indecomposable_corner(ring, e, bounds):
            raise HypothesisFailed(f"{what} without a local corner", witness=e)


def _splitter(ring: FiniteRing, e: int) -> int | None:
    """The least idempotent g of A with e*g = g*e = g outside {0, e}, or
    None.  Such g are the idempotents of e*A*e other than its 0 and 1,
    so e is primitive exactly when it has no splitter."""
    idem = np.asarray(idempotents(ring).sorted_members)
    inside = (ring.mul[e, idem] == idem) & (ring.mul[idem, e] == idem)
    g = idem[inside & (idem != ring.zero) & (idem != e)]
    return int(g[0]) if g.size else None


def decompose_regular(ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS) -> IdempotentFamily:
    """The canonical complete family of primitive idempotents.

    Recursive splitting: the current corner's ``_splitter`` g and its
    complement e - g within the corner are split in turn, and a corner
    without a splitter is a primitive member.  The least-index choice
    makes the result canonical.
    """
    bounds.check("max_n", ring.n, "ring to decompose")
    if ring.one == ring.zero:
        return validate_idempotent_family(ring, ())

    def split(e: int) -> list:
        g = _splitter(ring, e)
        if g is None:
            return [e]
        return split(g) + split(int(ring.sub(e, g)))

    return validate_idempotent_family(ring, split(ring.one))


def enumerate_complete_primitive_families(
    ring: FiniteRing, limit: int | None = None, bounds: Bounds = DEFAULT_BOUNDS
) -> list:
    """All complete orthogonal families of primitive idempotents.

    Families are emitted with ascending members, in lexicographic
    order.  If more than ``limit`` families exist, LimitReached is
    raised carrying the ones found so far in ``partial``.
    """
    bounds.check("max_family_n", ring.n, "ring for family enumeration")
    if limit is None:
        limit = bounds.max_families
    if ring.one == ring.zero:
        return [validate_idempotent_family(ring, ())]
    prim = _primitives(ring)
    mul = ring.mul
    add = ring.add
    zero, one = ring.zero, ring.one
    found: list = []

    def extend(chosen: list, total: int, start: int):
        if total == one:
            if len(found) >= limit:
                raise LimitReached(
                    f"more than {limit} complete families",
                    partial=tuple(found),
                )
            found.append(validate_idempotent_family(ring, chosen))
            return
        for k in range(start, len(prim)):
            p = prim[k]
            if all(
                int(mul[p, q]) == zero and int(mul[q, p]) == zero for q in chosen
            ):
                extend(chosen + [p], int(add[total, p]), k + 1)

    extend([], zero, 0)
    return found


def corner_signature(ring: FiniteRing, e: int) -> tuple:
    """A cheap fingerprint of the corner ring at e.

    Components: corner size, unit count, idempotent count, and a hash
    of the lexicographically sorted multiplication table.  The first
    three are isomorphism invariants; the table hash depends on the
    labeling, so only the numeric components may be used to rule out
    isomorphism.
    """
    corner = corner_ring(ring, e).ring
    rows = sorted(tuple(int(v) for v in row) for row in corner.mul)
    digest = hashlib.sha256(repr((corner.n, rows)).encode()).hexdigest()[:16]
    return (
        corner.n,
        len(units(corner).members),
        len(idempotents(corner).members),
        digest,
    )


def _iso_class_labels(ring: FiniteRing, members) -> dict:
    """Partition idempotents into isomorphism classes, labeled 0,1,...

    Labels are assigned in ascending order of each class's least
    member.  The invariant part of the corner signature prunes pairs
    that cannot match; idempotents_isomorphic decides the rest.
    """
    ms = sorted(set(int(e) for e in members))
    invariant = {e: corner_signature(ring, e)[:3] for e in ms}
    labels: dict = {}
    reps: list = []
    for e in ms:
        for label, r in enumerate(reps):
            if invariant[e] == invariant[r] and idempotents_isomorphic(ring, r, e):
                labels[e] = label
                break
        else:
            labels[e] = len(reps)
            reps.append(e)
    return labels


@dataclass(frozen=True)
class KSReport:
    """Outcome of the uniqueness verification on one ring.

    ``class_labels`` assigns every member of every family its
    isomorphism class; ``signature_multiset`` is the sorted tuple of
    corner signatures of the canonical family, shared by all families
    up to isomorphism of corners.
    """

    n: int
    canonical: tuple
    families: tuple
    family_count: int
    common_length: int
    class_labels: tuple
    signature_multiset: tuple
    matched: bool


def verify_ks_uniqueness(
    ring: FiniteRing, limit: int | None = None, bounds: Bounds = DEFAULT_BOUNDS
) -> KSReport:
    """Certify unique decomposition on one ring by exhaustion.

    Enumerates every complete primitive family, checks the strong
    indecomposability hypothesis on all members (HypothesisFailed
    otherwise), and verifies that all families have equal length with
    isomorphism-matched members.  A mismatch would falsify the
    uniqueness theorem for finite rings, so it raises TheoremViolation.
    """
    canonical = decompose_regular(ring, bounds)
    families = enumerate_complete_primitive_families(ring, limit, bounds)
    if canonical.members not in [f.members for f in families]:
        raise TheoremViolation(
            f"canonical family {canonical.members} missing from enumeration"
        )
    seen = sorted(set(e for f in families for e in f.members))
    _require_local_corners(ring, seen, bounds, "family member")
    labels = _iso_class_labels(ring, seen)
    canon_multiset = sorted(labels[e] for e in canonical.members)
    for fam in families:
        if len(fam) != len(canonical):
            raise TheoremViolation(
                f"families of different lengths: {fam.members} vs {canonical.members}"
            )
        if sorted(labels[e] for e in fam.members) != canon_multiset:
            raise TheoremViolation(
                f"family {fam.members} not isomorphism-matched to {canonical.members}"
            )
    return KSReport(
        n=ring.n,
        canonical=canonical.members,
        families=tuple(f.members for f in families),
        family_count=len(families),
        common_length=len(canonical),
        class_labels=tuple(
            tuple(labels[e] for e in f.members) for f in families
        ),
        signature_multiset=tuple(
            sorted(corner_signature(ring, e) for e in canonical.members)
        ),
        matched=True,
    )


@dataclass(frozen=True)
class RetractReport:
    """Every primitive idempotent matched to a canonical family member."""

    n: int
    canonical: tuple
    matches: tuple


def verify_retract_matching(
    ring: FiniteRing, bounds: Bounds = DEFAULT_BOUNDS
) -> RetractReport:
    """Certify: each primitive idempotent is isomorphic to a canonical one.

    This is the indecomposable-retract side of uniqueness: a primitive
    idempotent f carves the indecomposable summand f*A out of the
    regular module, and that summand must already occur in the
    canonical decomposition.  ``matches`` pairs every primitive f with
    the least canonical member in f's isomorphism class; the canonical
    members are primitive, so one labelling of the primitives covers both.
    """
    bounds.check("max_family_n", ring.n, "ring for family enumeration")
    canonical = decompose_regular(ring, bounds)
    _require_local_corners(ring, canonical.members, bounds, "canonical member")
    prim = _primitives(ring)
    labels = _iso_class_labels(ring, prim)
    least = {}
    for e in canonical.members:
        least.setdefault(labels[e], e)
    matches = []
    for f in prim:
        partner = least.get(labels[f])
        if partner is None:
            raise TheoremViolation(
                f"primitive idempotent {f} matches no canonical family member"
            )
        matches.append((f, partner))
    return RetractReport(n=ring.n, canonical=canonical.members, matches=tuple(matches))

"""Homomorphisms of loop near-rings and the locality transfer theorem.

A homomorphism must preserve +, * and the multiplicative identity.
The checks that matter for the decomposition theory are:

  * unit reflection: f(n) invertible forces n invertible,
  * idempotent lifting: idempotent values in the image come from
    idempotents of the source,
  * the transfer theorem: along a nontrivial unit-reflecting
    homomorphism into a ring, the source near-ring is local exactly
    when the image subring is local,
  * the kill check: a unit-reflecting homomorphism out of a
    zero-symmetric near-ring sends no nonzero idempotent to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_BOUNDS, Bounds
from .errors import (
    NotAHomomorphism,
    PreconditionFailed,
    TheoremViolation,
)
from .loops import StructureHom, Verdict, _checked_map, _require_law
from .nearrings import (
    LoopNearRing,
    _image,
    idempotents,
    is_local_lnr,
    units,
)
from .rings import FiniteRing, is_local_ring
from .tables import positions


@dataclass(frozen=True, eq=False, repr=False)
class LnrHom(StructureHom):
    """A homomorphism of loop near-rings, as a total index map: validated
    (``validate_lnr_hom``) or built as one (``rings.quotient_ring``,
    ``image_subring``)."""

    @cached_property
    def nontrivial(self) -> bool:
        # image collapses to {0} only when the target identifies 1 with 0
        return self.image.members != frozenset({self.target.zero})

    @cached_property
    def _unit_reflection(self) -> Verdict:
        bad = units(self.target).mask()[self.map] & ~units(self.source).mask()
        return Verdict(False, (int(np.argmax(bad)),)) if bad.any() else Verdict(True)

    @property
    def unit_reflecting(self) -> bool:
        return bool(self._unit_reflection)

    @cached_property
    def idempotent_lifting(self) -> bool:
        return bool(is_idempotent_lifting(self))


def validate_lnr_hom(
    f, source: LoopNearRing, target: LoopNearRing
) -> LnrHom:
    """Check additivity, multiplicativity and preservation of one."""
    fm = _checked_map(f, source.n, target.n)
    if int(fm[source.one]) != target.one:
        raise NotAHomomorphism(
            f"f(one) = {int(fm[source.one])} != {target.one}", witness=(source.one,)
        )
    _require_law(fm, source.add, target.add, "+")
    _require_law(fm, source.mul, target.mul, "*")
    return LnrHom(source=source, target=target, map=fm)


def is_unit_reflecting(hom: LnrHom) -> Verdict:
    """Every element mapping onto a unit of the target must be a unit:
    ``hom._unit_reflection``, read off each side's ``units`` once per hom."""
    return hom._unit_reflection


def is_idempotent_lifting(hom: LnrHom) -> Verdict:
    """Idempotent values in the image are images of source idempotents.

    On finite structures this always holds for a genuine homomorphism:
    if f(x) is idempotent then so is f(x^m) = f(x)^m for the idempotent
    power x^m of x, which every element of a finite monoid has.  The
    scan is kept because the property is a hypothesis elsewhere and a
    hand-built LnrHom need not be a homomorphism.
    """
    fm = hom.map
    idem_value = hom.target.mul[fm, fm] == fm
    lifted = np.zeros(hom.target.n, dtype=bool)
    lifted[[fm[e] for e in idempotents(hom.source)]] = True
    bad = idem_value & ~lifted[fm]
    if bad.any():
        return Verdict(False, (int(np.argmax(bad)),))
    return Verdict(True)


def image_subring(hom: LnrHom) -> LnrHom:
    """The corestriction of ``hom`` onto its image, a standalone ring on
    indices 0..k-1: index i stands for the i-th least element of
    ``hom.image``, so index 0 is the target zero.

    The image of a near-ring homomorphism into a ring is closed under
    +, * and negation (the negative of f(n) is the image of the right
    complement of n): a subring of the target, inheriting its ring laws.
    ``_image`` builds its tables as the target's sent through ``label``,
    the positions of the image; the corestriction is ``hom.map`` sent
    through that same ``label``, so it is a homomorphism by construction.
    A codomain that is not a ring is PreconditionFailed.
    """
    if not isinstance(hom.target, FiniteRing):
        raise PreconditionFailed("image subring needs a ring codomain")
    reps = np.fromiter(hom.image, np.int64)
    label = positions(reps, hom.target.n)
    ring = _image(hom.target, reps, label, int(hom.map[hom.source.one]))
    corestriction = label[hom.map]
    corestriction.setflags(write=False)
    return LnrHom(source=hom.source, target=ring, map=corestriction)


@dataclass(frozen=True)
class TransferReport:
    """Both sides of the locality transfer, with the unit bookkeeping.

    ``unit_reflecting_into_target`` and ``unit_reflecting_onto_image``
    are computed by separate scans: the former against the unit group
    of the whole codomain, the latter against the unit group of the
    image ring (the hypothesis the converse direction of the transfer
    theorem actually uses).
    """

    source_local: bool
    image_local: bool
    agree: bool
    unit_reflecting_into_target: bool
    unit_reflecting_onto_image: bool
    units_of_target: tuple
    units_of_image: tuple
    image_size: int


def verify_local_transfer(hom: LnrHom, bounds: Bounds = DEFAULT_BOUNDS) -> TransferReport:
    """Certify: source local iff image subring local.

    Hypotheses checked up front (PreconditionFailed names the one that
    fails): the codomain is a ring, the source is zero-symmetric, the
    homomorphism is nontrivial and unit-reflecting into the target.
    Disagreement between the two locality verdicts would falsify the
    transfer theorem and raises TheoremViolation.
    """
    if not isinstance(hom.target, FiniteRing):
        raise PreconditionFailed("transfer theorem needs a ring codomain")
    if not hom.source.zero_symmetric:
        raise PreconditionFailed("transfer theorem needs a zero-symmetric source")
    if not hom.nontrivial:
        raise PreconditionFailed("transfer theorem needs a nontrivial homomorphism")
    into_target = is_unit_reflecting(hom)
    if not into_target:
        raise PreconditionFailed(
            f"transfer theorem needs a unit-reflecting homomorphism, witness {into_target.witness}"
        )
    img = image_subring(hom)
    onto_image = is_unit_reflecting(img)
    source_local = is_local_lnr(hom.source, bounds).is_local
    image_local = is_local_ring(img.target, bounds)
    if source_local != image_local:
        raise TheoremViolation(
            f"locality transfer failed: source {source_local}, image {image_local}"
        )
    tgt_units = units(hom.target).sorted_members
    img_units = tuple(hom.image.sorted_members[u] for u in units(img.target))
    return TransferReport(
        source_local=source_local,
        image_local=image_local,
        agree=True,
        unit_reflecting_into_target=bool(into_target),
        unit_reflecting_onto_image=bool(onto_image),
        units_of_target=tgt_units,
        units_of_image=img_units,
        image_size=img.target.n,
    )


def idempotent_kill_check(hom: LnrHom) -> bool:
    """No nonzero idempotent maps to zero under a unit-reflecting hom.

    Requires a unit-reflecting homomorphism out of a zero-symmetric
    source (the proof divides by a unit on the left, which needs
    n * 0 = 0).  A failure would falsify the underlying lemma, so it
    raises TheoremViolation rather than returning False.
    """
    if not hom.source.zero_symmetric:
        raise PreconditionFailed("kill check needs a zero-symmetric source")
    if not is_unit_reflecting(hom):
        raise PreconditionFailed("kill check needs a unit-reflecting homomorphism")
    z = hom.target.zero
    for e in idempotents(hom.source):
        if hom.map[e] == z and e != hom.source.zero:
            raise TheoremViolation(
                f"nonzero idempotent {e} maps to zero under a unit-reflecting homomorphism"
            )
    return True

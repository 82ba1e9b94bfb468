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

    @cached_property
    def _image_subring(self) -> LnrHom:
        if not isinstance(self.target, FiniteRing):
            raise PreconditionFailed("image subring needs a ring codomain")
        reps = np.fromiter(self.image, np.int64)
        label = positions(reps, self.target.n)
        ring = _image(self.target, reps, label, int(self.map[self.source.one]))
        corestriction = label[self.map]
        corestriction.setflags(write=False)
        return LnrHom(source=self.source, target=ring, map=corestriction)


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
    A codomain that is not a ring is PreconditionFailed.  Built once per
    hom (``LnrHom._image_subring``).
    """
    return hom._image_subring


def verify_local_transfer(hom: LnrHom, bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Certify: source local iff image subring local, and return that
    shared verdict.

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
    source_local = is_local_lnr(hom.source, bounds)
    image_local = is_local_ring(image_subring(hom).target, bounds)
    if source_local != image_local:
        raise TheoremViolation(
            f"locality transfer failed: source {source_local}, image {image_local}"
        )
    return source_local


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

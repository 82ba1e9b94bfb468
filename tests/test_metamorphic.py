"""A metamorphic batch: random subrings of catalog rings, each against a
copy relabelled along a random permutation that fixes 0.

Each draw closes {0, 1} and one or two random elements of a base ring
under + and *, certifies the carrier with ``induced``, and relabels the
result.  The two copies are isomorphic, so every isomorphism invariant
read off them must agree.  Corner digests are left out: they hash a
corner's labelled table, so ``signature_multiset`` depends on the
labelling.

The seed is fixed.  A draw that fails is kept as a named regression,
never re-seeded away.
"""

import time
from collections import Counter

import numpy as np

from loopnr import (
    HypothesisFailed,
    idempotents,
    induced,
    is_local_lnr,
    is_local_ring,
    jacobson_radical,
    maximal_N_subloops,
    parse_spec,
    units,
    validate_ring_tables,
    verify_ks_uniqueness,
    verify_retract_matching,
)
from loopnr.lattice import ClosureSystem

SEED = 39
DRAWS = 100
BASES = ("matrix:cyclic:2,2", "matrix:cyclic:3,2", "matrix:cyclic:4,2", "ut2:cyclic:3",
         "opposite:matrix:cyclic:2,2", "product:cyclic:4+cyclic:2")


def invariants(ring) -> tuple:
    """n, |U|, |E|, |J|, both locality verdicts, the sorted coatom sizes,
    and, unless a member's corner is not local, the family count, each
    family's sorted class-size profile and the number of retract matches."""
    head = (ring.n, len(units(ring)), len(idempotents(ring)), len(jacobson_radical(ring)),
            is_local_lnr(ring), is_local_ring(ring),
            sorted(len(m) for m in maximal_N_subloops(ring)))
    try:
        pairs = verify_ks_uniqueness(ring)
    except HypothesisFailed:
        return head + (None,)
    profiles = sorted(sorted(Counter(labels).values()) for _, labels in pairs)
    return head + ((len(pairs), profiles, len(verify_retract_matching(ring))),)


def random_subring(base, rng):
    gens = rng.integers(base.n, size=int(rng.integers(1, 3))).tolist()
    closed = ClosureSystem(base.n, (base.add, base.mul)).close([base.zero, base.one, *gens])
    return induced(base, np.flatnonzero(closed), base.one)


def relabelled(ring, rng):
    new = np.concatenate([[0], 1 + rng.permutation(ring.n - 1)])
    old = np.argsort(new)
    grid = (old[:, None], old)
    return validate_ring_tables(new[ring.add[grid]], new[ring.mul[grid]], int(new[ring.one]))


def test_random_subrings_and_relabelled_copies_agree():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    bases = [parse_spec(spec) for spec in BASES]
    types = Counter()
    for draw in range(DRAWS):
        b = int(rng.integers(len(bases)))
        sub = random_subring(bases[b], rng)
        copy = relabelled(sub, rng)
        got = invariants(sub)
        assert invariants(copy) == got, (draw, BASES[b])
        n, _u, _e, j, local, *_rest, families = got
        types[n, local, j, families and families[0]] += 1
    elapsed = time.monotonic() - t0
    assert len(types) >= 15
    print(f"{DRAWS} draws, {len(types)} (order, local, |J|, family count) types ({elapsed:.2f}s)")

#!/usr/bin/env python3
"""Search for a local loop near-ring that is not a ring.

Candidates are the zero-preserving map near-rings M0(G) over every
loop G up to the order cap (plus the canonical order-5 nonassociative
loop) together with all of their sub-near-rings, enumerated by the
library's closure-lattice engine as the join-closure of single-element
extensions of the sub-near-ring generated by {0, 1}.  Every local
candidate is reported with a ring verdict; the final line records
whether the search found a local non-ring or came up empty.  A run
that finds nothing is a recorded outcome, not a failure.
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from loopnr import (
    all_loops,
    induced,
    is_local_lnr,
    map_near_ring,
    smallest_nonassociative_loop,
    validate_ring,
)
from loopnr.config import int_flag
from loopnr.errors import ValidationError
from loopnr.lattice import ClosureSystem


@dataclass
class SearchConfig:
    max_loop_order: int
    include_nonassoc5: bool
    max_subs_per_base: int


def enumerate_subnearrings(nr, cap: int) -> tuple[list, bool]:
    """All sub-near-ring carriers of nr: the closed sets of the engine
    over add and mul, seeded at {0, 1}.  In a finite loop a subset
    closed under + is closed under both differences too.

    Returns (carriers, complete).  Stops early once cap carriers are
    found; complete is False in that case.
    """
    system = ClosureSystem(nr.n, (nr.add, nr.mul))
    found = []
    for mask in system.closed_sets((nr.zero, nr.one)):
        found.append(frozenset(np.flatnonzero(mask).tolist()))
        if len(found) >= cap:
            break
    found.sort(key=lambda s: (len(s), sorted(s)))
    return found, len(found) < cap


def restrict(nr, carrier: frozenset):
    """The sub-near-ring on the given carrier, re-indexed to 0..k-1."""
    return induced(nr, carrier, nr.one)


def is_a_ring(nr) -> bool:
    try:
        validate_ring(nr)
        return True
    except ValidationError:
        return False


def search_base(name: str, base_nr, cfg: SearchConfig) -> list:
    carriers, complete = enumerate_subnearrings(base_nr, cfg.max_subs_per_base)
    suffix = "" if complete else f" (capped at {cfg.max_subs_per_base})"
    print(f"{name}: n={base_nr.n}, {len(carriers)} sub-near-rings{suffix}")
    hits = []
    for carrier in carriers:
        sub = restrict(base_nr, carrier)
        if not is_local_lnr(sub):
            continue
        ring = is_a_ring(sub)
        verdict = "ring" if ring else "NOT A RING"
        print(f"  local sub-near-ring, order {sub.n}: {verdict}"
              f"  carrier={sorted(carrier)}")
        if not ring:
            hits.append((name, sorted(carrier)))
    return hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-loop-order", type=int_flag, default=4,
                        help="search M0(G) for all loops G up to this order")
    parser.add_argument("--include-nonassoc5", action="store_true",
                        help="also search M0 of the order-5 nonassociative loop "
                             "(625 elements; takes a few seconds)")
    parser.add_argument("--max-subs-per-base", type=int_flag, default=2000,
                        help="cap on enumerated sub-near-rings per base")
    args = parser.parse_args(argv)
    cfg = SearchConfig(args.max_loop_order, args.include_nonassoc5,
                       args.max_subs_per_base)

    bases = []
    for order in range(1, cfg.max_loop_order + 1):
        for i, loop in enumerate(all_loops(order)):
            bases.append((f"m0(loop {order}.{i})", loop))
    if cfg.include_nonassoc5:
        bases.append(("m0(nonassoc5)", smallest_nonassociative_loop()))

    hits = []
    for name, loop in bases:
        hits.extend(search_base(name, map_near_ring(loop, zero_fixing=True), cfg))
    if hits:
        print(f"FOUND {len(hits)} local non-ring(s):")
        for name, carrier in hits:
            print(f"  {name} carrier={carrier}")
    else:
        print("outcome: no local loop near-ring that is not a ring was found "
              "in the searched corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main())

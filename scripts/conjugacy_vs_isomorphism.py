#!/usr/bin/env python3
"""Record where corner isomorphism and unit conjugacy of idempotents agree.

Conjugate idempotents always have isomorphic corners; the converse is
not a theorem for general rings.  This sweep compares both relations
on every pair of nonzero idempotents across the catalog rings and
records the rings (if any) where some isomorphic pair fails to be
conjugate, rather than presupposing either outcome.
"""

import argparse
import sys
from itertools import combinations

from loopnr import (
    CATALOG,
    idempotents,
    idempotents_conjugate,
    idempotents_isomorphic,
    parse_spec,
)
from loopnr.config import int_flag


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int_flag, default=256,
                        help="skip rings larger than this")
    args = parser.parse_args(argv)

    gaps = []
    for spec, kind, n in CATALOG:
        if kind != "ring" or n > args.max_n:
            continue
        ring = parse_spec(spec)
        nonzero = [e for e in idempotents(ring) if e != ring.zero]
        iso_pairs = 0
        conj_pairs = 0
        witness = None
        for e, f in combinations(nonzero, 2):
            iso = idempotents_isomorphic(ring, e, f)
            conj = idempotents_conjugate(ring, e, f)
            if conj and not iso:
                raise AssertionError(
                    f"{spec}: conjugate pair ({e}, {f}) with non-isomorphic "
                    "corners contradicts the conjugation isomorphism"
                )
            iso_pairs += iso
            conj_pairs += conj
            if iso and not conj and witness is None:
                witness = (e, f)
        line = (f"{spec:<28} n={n:<4} idempotents={len(nonzero):<4} "
                f"iso_pairs={iso_pairs:<4} conj_pairs={conj_pairs:<4}")
        if witness is not None:
            line += f"  iso-not-conj witness={witness}"
            gaps.append((spec, witness))
        print(line)

    if gaps:
        print(f"outcome: {len(gaps)} ring(s) where isomorphic does not "
              "imply conjugate:")
        for spec, witness in gaps:
            print(f"  {spec}: {witness}")
    else:
        print("outcome: the two relations coincide on every ring swept")
    return 0


if __name__ == "__main__":
    sys.exit(main())

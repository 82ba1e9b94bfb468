#!/usr/bin/env python3
"""Sweep the shipped catalog and print one summary row per structure.

Columns: spec, kind, order, locality verdict, unit count, idempotent
count, radical size, and the corner sizes of the canonical family
(rings only).  The sweep exercises the same code paths the acceptance
tests certify, at whatever size cap the command line allows.
"""

import argparse
import sys
import time
from dataclasses import dataclass

from loopnr import (
    CATALOG,
    corner_ring,
    decompose_regular,
    idempotents,
    is_associative,
    is_commutative,
    is_local_lnr,
    jacobson_radical,
    parse_spec,
    units,
)
from loopnr.config import int_flag
from loopnr.rings import FiniteRing


@dataclass
class SweepConfig:
    max_n: int
    locality_cap: int
    show_timing: bool


def sweep_row(spec: str, kind: str, cfg: SweepConfig) -> str:
    t0 = time.perf_counter()
    structure = parse_spec(spec)
    if kind == "loop":
        flags = []
        if is_associative(structure):
            flags.append("assoc")
        if is_commutative(structure):
            flags.append("comm")
        body = f"{' '.join(flags) or 'nonassoc':<24}"
    else:
        u = len(units(structure))
        e = len(idempotents(structure))
        if structure.n > cfg.locality_cap:
            local = "skipped"
        elif not structure.zero_symmetric:
            local = "n/a"
        else:
            local = "local" if is_local_lnr(structure) else "not-local"
        body = f"{local:<10} |U|={u:<5} |E|={e:<4}"
        if isinstance(structure, FiniteRing):
            j = jacobson_radical(structure)
            family = decompose_regular(structure)
            corners = tuple(len(corner_ring(structure, e).carrier) for e in family)
            body += f" |J|={len(j):<4} corners={corners}"
    took = f"  [{time.perf_counter() - t0:.2f}s]" if cfg.show_timing else ""
    return f"{spec:<28} {kind:<5} n={structure.n:<5} {body}{took}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int_flag, default=4096,
                        help="skip catalog entries larger than this")
    parser.add_argument("--locality-cap", type=int_flag, default=4096,
                        help="skip the locality check above this order")
    parser.add_argument("--timing", action="store_true",
                        help="append per-row wall time")
    args = parser.parse_args(argv)
    cfg = SweepConfig(args.max_n, args.locality_cap, args.timing)
    shown = 0
    for spec, kind, n in CATALOG:
        if n > cfg.max_n:
            continue
        print(sweep_row(spec, kind, cfg))
        shown += 1
    print(f"swept {shown} of {len(CATALOG)} catalog entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())

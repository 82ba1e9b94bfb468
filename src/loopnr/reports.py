"""Report payloads for the command-line interface.

Reports are plain dicts serialized as canonical JSON (sorted keys,
compact separators, one trailing newline).  Every report carries a
"sha256" field computed over the canonical serialization of the
payload with the volatile keys ("sha256" itself and "timing")
removed, so repeated runs hash identically even when timed.
"""

from __future__ import annotations

import hashlib
import time

from . import tables
from .config import DEFAULT_BOUNDS, Bounds
from .decomp import corner_signature, decompose_regular, verify_ks_uniqueness
from .errors import PreconditionFailed
from .homs import idempotent_kill_check, image_subring, verify_local_transfer
from .io import canonical_json, kind_of, structure_sha256
from .loops import CayleyLoop, enumerate_subloops, is_associative, is_commutative
from .nearrings import enumerate_N_subloops, idempotents, is_local_lnr, maximal_N_subloops, units
from .rings import FiniteRing, is_semiperfect, is_semisimple, jacobson_radical

VOLATILE_KEYS = ("sha256", "timing")

# associativity is decided by Light's test on a generating set and
# commutativity by one quadratic pass; only a failing associativity's
# least-witness block scan is cubic.  Reports skip both laws on loops
# larger than this
_LAW_SCAN_CAP = 256


def report_sha256(payload: dict) -> str:
    stable = {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()


def finalize_report(payload: dict) -> dict:
    payload["sha256"] = report_sha256(payload)
    return payload


def _timed(timing: dict, key: str, fn):
    """``fn()``, its wall time in seconds recorded as ``timing[key]``."""
    t0 = time.perf_counter()
    out = fn()
    timing[key] = round(time.perf_counter() - t0, 6)
    return out


def _subset_section(subset) -> dict:
    members = list(subset.sorted_members)
    return {"count": len(members), "members": members}


def _locality_section(structure, bounds: Bounds) -> dict:
    if not structure.zero_symmetric:
        return {"applicable": False, "reason": "not zero-symmetric"}
    # both routes agree or is_local_lnr raises, and when local the one
    # coatom is the non-unit set
    local = is_local_lnr(structure, bounds)
    maximal = maximal_N_subloops(structure, bounds)
    return {
        "applicable": True,
        "is_local": local,
        "via_maximal": local,
        "via_units": local,
        "maximal_count": len(maximal),
        "maximal": [list(m.sorted_members) for m in maximal],
        "nonunits_count": structure.n - len(units(structure)),
        "j": list(maximal[0].sorted_members) if local else None,
    }


def _radical_section(ring: FiniteRing, bounds: Bounds) -> dict:
    ideal = jacobson_radical(ring, bounds)
    return {
        "members": list(ideal.sorted_members),
        "size": len(ideal),
        "semisimple": is_semisimple(ring, bounds),
        "semiperfect": is_semiperfect(ring, bounds),
    }


def analysis_report(
    structure,
    name: str,
    *,
    with_subloops: bool = False,
    with_local: bool = False,
    with_radical: bool = False,
    with_idempotents: bool = False,
    with_timing: bool = False,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> dict:
    kind = kind_of(structure)
    payload = {
        "command": "analyze",
        "input": name,
        "kind": kind,
        "n": structure.n,
        "structure_sha256": structure_sha256(structure),
        "valid": True,
    }
    timing = {}
    if kind == "loop":
        if structure.n <= _LAW_SCAN_CAP:
            payload["associative"] = bool(is_associative(structure))
            payload["commutative"] = bool(is_commutative(structure))
        if with_subloops:
            subs = _timed(timing, "subloops", lambda: enumerate_subloops(structure, bounds))
            payload["subloops"] = {
                "count": len(subs),
                "sizes": sorted(len(s.members) for s in subs),
            }
    else:
        payload["one"] = structure.one
        payload["zero_symmetric"] = structure.zero_symmetric
        payload["units"] = _timed(timing, "units", lambda: _subset_section(units(structure)))
        if with_idempotents:
            payload["idempotents"] = _timed(
                timing, "idempotents", lambda: _subset_section(idempotents(structure))
            )
        if with_subloops:
            subs = _timed(
                timing, "n_subloops", lambda: enumerate_N_subloops(structure, bounds)
            )
            payload["n_subloops"] = {
                "count": len(subs),
                "sizes": sorted(len(s.members) for s in subs),
            }
        if with_local:
            payload["local"] = _timed(
                timing, "local", lambda: _locality_section(structure, bounds)
            )
        if with_radical and isinstance(structure, FiniteRing):
            payload["radical"] = _timed(
                timing, "radical", lambda: _radical_section(structure, bounds)
            )
    if with_timing:
        payload["timing"] = timing
    return finalize_report(payload)


def decompose_report(
    ring: FiniteRing,
    name: str,
    *,
    verify_uniqueness: bool = False,
    with_timing: bool = False,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> dict:
    if not isinstance(ring, FiniteRing):
        raise PreconditionFailed("decompose needs a ring input")
    timing = {}
    family = _timed(timing, "decompose", lambda: decompose_regular(ring, bounds))
    payload = {
        "command": "decompose",
        "input": name,
        "kind": "ring",
        "n": ring.n,
        "structure_sha256": structure_sha256(ring),
        "family": list(family),
        "corners": [
            {"e": e, "signature": list(corner_signature(ring, e))} for e in family
        ],
    }
    if verify_uniqueness:
        pairs = _timed(timing, "uniqueness", lambda: verify_ks_uniqueness(ring, bounds=bounds))
        # every family matches the canonical one or verify_ks_uniqueness raises
        payload["uniqueness"] = {
            "family_count": len(pairs),
            "common_length": len(family),
            "families": [list(f) for f, _ in pairs],
            "class_labels": [list(labels) for _, labels in pairs],
            "signature_multiset": sorted(c["signature"] for c in payload["corners"]),
            "matched": True,
        }
    if with_timing:
        payload["timing"] = timing
    return finalize_report(payload)


def hom_report(
    hom,
    source_name: str,
    target_name: str,
    *,
    with_transfer: bool = False,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> dict:
    payload = {
        "command": "hom",
        "source": {
            "input": source_name,
            "kind": kind_of(hom.source),
            "n": hom.source.n,
            "structure_sha256": structure_sha256(hom.source),
        },
        "target": {
            "input": target_name,
            "kind": kind_of(hom.target),
            "n": hom.target.n,
            "structure_sha256": structure_sha256(hom.target),
        },
        "valid": True,
        "nontrivial": hom.nontrivial,
        "unit_reflecting": hom.unit_reflecting,
        "idempotent_lifting": hom.idempotent_lifting,
        "kernel_size": len(hom.kernel.members),
        "image_size": len(hom.image.members),
    }
    if with_transfer:
        # the verdicts agree and hom reflects units into the target, or
        # verify_local_transfer raises
        local = verify_local_transfer(hom, bounds)
        image = image_subring(hom)
        payload["transfer"] = {
            "source_local": local,
            "image_local": local,
            "agree": True,
            "unit_reflecting_into_target": True,
            "unit_reflecting_onto_image": image.unit_reflecting,
            "units_of_target_count": len(units(hom.target)),
            "units_of_image_count": len(units(image.target)),
            "image_size": image.target.n,
            "kill_check": idempotent_kill_check(hom),
        }
    return finalize_report(payload)


def check_report(kind: str, n: int, add, mul, one, name: str) -> dict:
    """Every failing row of ``tables.AXIOMS`` up to ``kind``, in order.

    ``add`` may instead be a structure of that kind built by the
    validators (as ``parse_spec`` returns), with ``mul`` and ``one``
    None: every axiom of its kind already holds, so nothing is rescanned.
    """
    if isinstance(add, CayleyLoop):
        found = ()
    else:
        found = tables.violations(tables.as_table(add), mul, one, kind=kind)
    violations = [
        {"axiom": error.axiom, "witness": witness and list(witness), "message": message}
        for error, message, witness in found
    ]
    payload = {
        "command": "check",
        "input": name,
        "kind": kind,
        "n": n,
        "valid": not violations,
        "violations": violations,
    }
    return finalize_report(payload)


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render_text(payload: dict, indent: int = 0) -> str:
    """Human-readable rendering of a report dict, deterministic order."""
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(value):
                lines.append(f"{pad}  [{i}]")
                lines.append(render_text(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {_scalar_text(value)}")
    return "\n".join(lines)

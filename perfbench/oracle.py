"""Output oracle: decides whether one CLI job produced the right answer.

Every input is a relabelled copy of a base structure, so every field of
a report that relabelling cannot change must equal the value recorded
for that base in ``expected.json`` (units, idempotent and N-subloop
counts and sizes, locality and radical verdicts, family counts and
lengths, the numeric corner-signature parts, the transfer verdicts).
Corrupted inputs must be rejected by both ``check`` and ``analyze``;
wraparound probes must be rejected with ``entries-in-range``.  On the
default seed each report's sha256 must also equal the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

VOLATILE_KEYS = ("sha256", "timing")


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def report_digest(payload: dict) -> str:
    """The report hash as the program defines it, recomputed here."""
    stable = {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}
    return hashlib.sha256(canonical(stable).encode()).hexdigest()


def _numeric(signatures) -> list:
    """Isomorphism-invariant part of corner signatures (drop the table hash)."""
    return sorted(list(sig[:3]) for sig in signatures)


def invariants(check: str, report: dict) -> dict:
    """The fields of a report that relabelling the input cannot change."""
    if check == "check":
        return {
            "kind": report["kind"],
            "n": report["n"],
            "valid": report["valid"],
            "axioms": [v["axiom"] for v in report["violations"]],
        }
    if check == "analyze":
        out = {"kind": report["kind"], "n": report["n"], "valid": report["valid"]}
        if "units" in report:
            out["units"] = report["units"]["count"]
            out["zero_symmetric"] = report["zero_symmetric"]
        if "idempotents" in report:
            out["idempotents"] = report["idempotents"]["count"]
        if "n_subloops" in report:
            out["n_subloops"] = report["n_subloops"]
        if "local" in report:
            loc = report["local"]
            out["local"] = {k: loc[k] for k in (
                "applicable", "is_local", "via_maximal", "via_units",
                "maximal_count", "nonunits_count") if k in loc}
            out["local"]["maximal_sizes"] = sorted(len(m) for m in loc.get("maximal", []))
        if "radical" in report:
            rad = report["radical"]
            out["radical"] = {k: rad[k] for k in ("size", "semisimple", "semiperfect")}
        return out
    if check == "decompose":
        out = {
            "n": report["n"],
            "family_length": len(report["family"]),
            "corners": _numeric(c["signature"] for c in report["corners"]),
        }
        if "uniqueness" in report:
            u = report["uniqueness"]
            out["uniqueness"] = {
                "family_count": u["family_count"],
                "common_length": u["common_length"],
                "matched": u["matched"],
                "signatures": _numeric(u["signature_multiset"]),
            }
        return out
    if check == "hom":
        keep = ("valid", "nontrivial", "unit_reflecting", "idempotent_lifting",
                "kernel_size", "image_size", "transfer")
        out = {k: report[k] for k in keep if k in report}
        out["source"] = {k: report["source"][k] for k in ("kind", "n")}
        out["target"] = {k: report["target"][k] for k in ("kind", "n")}
        return out
    raise ValueError(f"unknown report type {check!r}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one job: ok, or the reason it failed.

    ``known_defect`` marks a wraparound probe that ``analyze`` accepted:
    the documented int16 narrowing defect, tallied on its own.
    """

    ok: bool
    reason: str = ""
    known_defect: bool = False


def _parse_report(out: str):
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return None, "stdout is not JSON"
    if not isinstance(report, dict):
        return None, "report is not an object"
    if canonical(report) != out:
        return None, "report is not canonical JSON"
    if report.get("sha256") != report_digest(report):
        return None, "report sha256 does not match its content"
    return report, ""


def judge(job, result: dict, expected: dict, golden: dict | None = None) -> Verdict:
    """Check one job's result against the oracle.

    ``result`` has ``rc``, ``out`` and ``err`` (and ``exc`` when the
    call raised); ``expected`` maps invariant keys to recorded values;
    ``golden`` maps job ids to report hashes on the default seed.  A
    report that lacks a field the oracle reads fails, it does not crash
    the run.
    """
    try:
        return _judge(job, result, expected, golden)
    except (KeyError, TypeError, AttributeError) as exc:
        return Verdict(False, f"malformed report: {exc!r}")


def _judge(job, result, expected, golden) -> Verdict:
    if result.get("exc"):
        return Verdict(False, f"raised {result['exc']}")
    rc, out, err = result["rc"], result["out"], result["err"]
    if job.variant == "clean":
        if rc != 0:
            return Verdict(False, f"exit {rc}: {err.strip()[:200]}")
        report, why = _parse_report(out)
        if report is None:
            return Verdict(False, why)
        want = expected.get(job.key)
        if want is None:
            return Verdict(False, f"no recorded expectation for {job.key}")
        got = invariants(job.check, report)
        if got != want:
            return Verdict(False, f"invariants differ for {job.key}: {got} != {want}")
    elif job.check == "check":
        if rc != 1:
            return Verdict(False, f"check exit {rc} on a {job.variant} input")
        report, why = _parse_report(out)
        if report is None:
            return Verdict(False, why)
        axioms = [v["axiom"] for v in report["violations"]]
        if report["valid"] or not axioms:
            return Verdict(False, "check reported a corrupted input as valid")
        if job.variant == "probe" and axioms[0] != "entries-in-range":
            return Verdict(False, f"probe rejected for {axioms[0]}, not entries-in-range")
    else:
        # analyze on a corrupted input: exit 1, a diagnostic, no report
        if rc == 0 and job.variant == "probe":
            return Verdict(False, "analyze accepted a wraparound table", known_defect=True)
        if rc != 1 or out or not err.startswith("invalid ["):
            return Verdict(False, f"analyze exit {rc} on a {job.variant} input: {err.strip()[:200]}")
        return Verdict(True)
    if golden is not None and job.id in golden and golden[job.id] != report["sha256"]:
        return Verdict(False, f"report sha256 differs from the recorded {golden[job.id][:12]}")
    return Verdict(True)

"""Command-line interface.

Subcommands: check, analyze, decompose, hom, generate, catalog.
Inputs are structure files (JSON or plain text) or generator spec
strings like ``cyclic:6`` and ``m0:nonassoc5``; an argument naming an
existing file is read as a file, anything else is parsed as a spec.

Exit codes: 0 success, 1 invalid structure or homomorphism, 2 parse
error, 3 bound exceeded, 4 theorem hypothesis unmet, 5 theorem violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from functools import cache

from .config import DEFAULT_BOUNDS, Bounds, bounds_from_env, int_flag, int_tokens
from .errors import (
    BoundExceeded,
    HypothesisFailed,
    LimitReached,
    LoopNrError,
    ParseError,
    PreconditionFailed,
    TheoremViolation,
    ValidationError,
)
from .generators import CATALOG, parse_spec
from .homs import validate_lnr_hom
from .io import (
    canonical_json,
    dump_structure_text,
    kind_of,
    load_structure,
    read_structure,
    read_text,
    write_structure,
)
from .nearrings import LoopNearRing
from .reports import (
    analysis_report,
    check_report,
    decompose_report,
    finalize_report,
    hom_report,
    render_text,
)


def _emit(payload: dict, as_text: bool) -> None:
    if as_text:
        sys.stdout.write(render_text(payload) + "\n")
    else:
        sys.stdout.write(canonical_json(payload))


def _bounds_from_args(args) -> Bounds:
    """The environment's bounds, overlaid with each flag given: a bound
    flag's ``dest`` is its ``Bounds`` field."""
    flags = {f.name: v for f in fields(Bounds) if (v := getattr(args, f.name, None)) is not None}
    try:
        return replace(bounds_from_env(DEFAULT_BOUNDS, os.environ), **flags)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _load_input(arg: str, bounds: Bounds):
    """File if the argument names one, generator spec otherwise."""
    if os.path.exists(arg):
        return load_structure(arg, bounds)[0]
    return parse_spec(arg, bounds)


def cmd_check(args) -> int:
    """A file is checked row by row; a spec was validated as it was built."""
    bounds = _bounds_from_args(args)
    if os.path.exists(args.input):
        sf = read_structure(args.input)
        bounds.check("max_n", sf.n, "structure file")
        payload = check_report(sf.kind, sf.n, sf.add, sf.mul, sf.one, args.input)
    else:
        spec = parse_spec(args.input, bounds)
        payload = check_report(kind_of(spec), spec.n, spec, None, None, args.input)
    _emit(payload, args.text)
    return 0 if payload["valid"] else 1


def cmd_analyze(args) -> int:
    bounds = _bounds_from_args(args)
    structure = _load_input(args.input, bounds)
    payload = analysis_report(
        structure,
        args.input,
        with_subloops=args.subloops,
        with_local=args.local,
        with_radical=args.radical,
        with_idempotents=args.idempotents,
        with_timing=args.timing,
        bounds=bounds,
    )
    _emit(payload, args.text)
    return 0


def cmd_decompose(args) -> int:
    bounds = _bounds_from_args(args)
    structure = _load_input(args.input, bounds)
    payload = decompose_report(
        structure,
        args.input,
        verify_uniqueness=args.verify_uniqueness,
        with_timing=args.timing,
        bounds=bounds,
    )
    _emit(payload, args.text)
    return 0


def _load_map(path: str) -> list:
    text = read_text(path)
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty map file")
    if stripped[0] == "[":   # so the JSON route reads a list
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON map file: {exc}") from None
        except (ValueError, RecursionError) as exc:  # as in io.read_structure
            raise ParseError(f"cannot read {path}: {exc}") from None
    else:
        try:
            data = int_tokens(text)
        except ValueError as exc:
            raise ParseError(f"map file entries must be integers, {exc}") from None
    for v in data:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError("map file entries must be integers")
    return data


def cmd_hom(args) -> int:
    bounds = _bounds_from_args(args)
    source = _load_input(args.source, bounds)
    target = _load_input(args.target, bounds)
    if not isinstance(source, LoopNearRing) or not isinstance(target, LoopNearRing):
        raise PreconditionFailed("hom checking needs near-ring or ring structures")
    fmap = _load_map(args.map)
    hom = validate_lnr_hom(fmap, source, target)
    payload = hom_report(
        hom, args.source, args.target, with_transfer=args.transfer, bounds=bounds
    )
    _emit(payload, args.text)
    return 0


def cmd_generate(args) -> int:
    bounds = _bounds_from_args(args)
    structure = parse_spec(args.spec, bounds)
    if args.text:
        sys.stdout.write(dump_structure_text(structure))
    else:
        write_structure(structure, sys.stdout, meta={"name": args.spec})
    return 0


def cmd_catalog(args) -> int:
    payload = finalize_report(
        {
            "command": "catalog",
            "entries": [
                {"spec": spec, "kind": kind, "n": n} for spec, kind, n in CATALOG
            ],
        }
    )
    _emit(payload, args.text)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no
    state in it, and each ``main`` call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="loopnr",
        description="Analyze finite loops, loop near-rings and rings: "
        "locality, radicals, idempotent decompositions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-n", dest="max_n", type=int_flag, default=None,
                        help="largest structure order accepted")
    common.add_argument("--max-subloops", dest="max_subloop_n", type=int_flag, default=None,
                        help="largest loop order for subloop enumeration")
    common.add_argument("--max-families", dest="max_families", type=int_flag, default=None,
                        help="cap on enumerated idempotent families")
    common.add_argument("--text", action="store_true",
                        help="human-readable output instead of canonical JSON")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="validate a structure file against its axioms")
    p.add_argument("input", help="structure file or generator spec")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("analyze", parents=[common],
                       help="units, idempotents, subloops, locality, radical")
    p.add_argument("input", help="structure file or generator spec")
    p.add_argument("--subloops", action="store_true",
                   help="enumerate subloops or N-subloops")
    p.add_argument("--local", action="store_true",
                   help="run both locality procedures and compare")
    p.add_argument("--radical", action="store_true",
                   help="compute the radical both ways (rings only)")
    p.add_argument("--idempotents", action="store_true",
                   help="list idempotent elements")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timings (excluded from the hash)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("decompose", parents=[common],
                       help="canonical primitive idempotent family of a ring")
    p.add_argument("input", help="ring file or generator spec")
    p.add_argument("--verify-uniqueness", action="store_true",
                   help="enumerate all families and certify matching")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timings (excluded from the hash)")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("hom", parents=[common],
                       help="validate a homomorphism given as an element map")
    p.add_argument("source", help="source structure file or spec")
    p.add_argument("target", help="target structure file or spec")
    p.add_argument("map", help="map file: JSON array or whitespace-separated")
    p.add_argument("--transfer", action="store_true",
                   help="verify the locality transfer along the map")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("generate", parents=[common],
                       help="emit a structure file for a generator spec")
    p.add_argument("spec", help="generator spec, e.g. cyclic:6 or m0:nonassoc5")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("catalog", parents=[common],
                       help="list the bundled corpus")
    p.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (BoundExceeded, LimitReached) as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (PreconditionFailed, HypothesisFailed) as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        witness = f" witness={exc.witness}" if exc.witness is not None else ""
        print(f"invalid [{exc.axiom}]: {exc}{witness}", file=sys.stderr)
        return 1
    except LoopNrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TheoremViolation as exc:
        print(f"theorem violated: {exc}", file=sys.stderr)
        return 5


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a reader-closed pipe
    raise SystemExit(code)

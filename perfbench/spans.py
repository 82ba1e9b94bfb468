"""Tracing from outside the program: wrap loopnr's public functions.

``Tracer.install`` replaces every public function defined in the traced
modules by a wrapper that records a span (name, parent, start, end).
Because ``from .x import f`` leaves copies of ``f`` in other modules,
the wrapper is bound under every ``loopnr`` module attribute that *is*
the original function object; ``uninstall`` puts each original back.
Spans stay in memory and are written out once, at exit.

``layer_metrics`` turns spans into the per-layer numbers: calls and
self time per function (span time minus the time its child spans
cover), and the counters the benchmark names.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import time
import types

MODULES = ("cli", "reports", "io", "generators", "tables", "loops",
           "nearrings", "rings", "homs", "decomp")

# Functions whose calls and self time are reported, by defining module.
REPORTED = {
    "nearrings": ("enumerate_N_subloops", "maximal_N_subloops", "is_local_lnr",
                  "units", "idempotents", "validate_lnr"),
    "rings": ("jacobson_radical", "radical_by_maximal_left_ideals",
              "radical_by_quasiregularity", "quotient_ring", "is_local_ring",
              "is_semisimple", "is_semiperfect", "validate_ring", "idempotents_isomorphic"),
    "tables": ("assoc_witness", "right_dist_witness", "left_dist_witness",
               "latin_witness", "comm_witness", "as_table"),
    "loops": ("validate_loop",),
    "decomp": ("corner_ring", "is_primitive", "decompose_regular",
               "enumerate_complete_primitive_families", "verify_ks_uniqueness",
               "corner_signature"),
    "homs": ("validate_lnr_hom", "verify_local_transfer", "image_subring",
             "is_unit_reflecting"),
    "generators": ("parse_spec", "map_near_ring", "matrix_ring", "product"),
    "io": ("load_structure", "parse_structure", "realize", "canonical_json",
           "structure_sha256"),
    "reports": ("analysis_report", "check_report", "decompose_report", "hom_report"),
    "cli": ("main",),
}

JOB = "job"            # root span the harness opens around each cli.main call
LATTICE = "nearrings.enumerate_N_subloops"
CORNER = "decomp.corner_ring"


def _table_digest(structure) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(structure.add.tobytes())
    h.update(structure.mul.tobytes())
    return h.hexdigest()


class Tracer:
    """Span recorder plus the wrappers that feed it.

    A span is ``[id, parent, name, t0, t1, extra]``; ``extra`` carries
    the structure key of lattice and corner calls and the lattice size.
    """

    def __init__(self):
        self.spans = []
        self._stack = [None]
        self._bindings = []      # (module, attribute, original)
        self._digests = {}       # id(structure) -> (structure, digest)

    # -- spans ----------------------------------------------------------
    def open(self, name: str, extra=None) -> list:
        span = [len(self.spans), self._stack[-1], name, time.perf_counter(), None, extra]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def _key(self, structure) -> str:
        hit = self._digests.get(id(structure))
        if hit is None or hit[0] is not structure:
            hit = (structure, _table_digest(structure))
            self._digests[id(structure)] = hit
        return hit[1]

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = None
            if name == LATTICE:
                extra = {"key": tracer._key(args[0])}
            elif name == CORNER:
                extra = {"key": f"{tracer._key(args[0])}:{int(args[1])}"}
            span = tracer.open(name, extra)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == LATTICE:
                extra["members"] = len(out)
            return out

        traced.__wrapped_original__ = fn
        return traced

    # -- wrappers -------------------------------------------------------
    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "loopnr" or n.startswith("loopnr."))]
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"loopnr.{short}"]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings = []
        self._digests.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def reported_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in REPORTED.items() for fn in fns]


def self_times(spans) -> dict:
    """Per span id: duration minus the summed duration of its children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def merge(recorded) -> list:
    """One span list from several workers' lists, with ids made distinct."""
    out = []
    for spans in recorded:
        base = len(out)
        for s in spans:
            out.append([s[0] + base, None if s[1] is None else s[1] + base, *s[2:]])
    return out


def layer_metrics(spans, rounds: int, untraced_makespans, traced_makespans) -> dict:
    """Per-layer metrics, each a mean per traced round.

    ``trace.coverage`` is the summed ``cli.main`` span time over the
    summed job time; ``trace.overhead`` is the median traced round
    makespan over the median untraced one.
    """
    own = self_times(spans)
    calls, self_s = {}, {}
    layer_self = {m: 0.0 for m in MODULES}
    for s in spans:
        name = s[2]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[s[0]]
        mod = name.partition(".")[0]
        if mod in layer_self:
            layer_self[mod] += own[s[0]]
    out = {}
    for name in reported_names():
        out[f"{name}.calls"] = calls.get(name, 0) / rounds
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / rounds
    for mod in MODULES:
        out[f"layer.{mod}.self_s"] = layer_self[mod] / rounds
    lattice = [s for s in spans if s[2] == LATTICE]
    corners = [s for s in spans if s[2] == CORNER]
    out["nearrings.lattice_members"] = sum(s[5].get("members", 0) for s in lattice) / rounds
    out[f"{LATTICE}.reuse"] = _reuse(lattice)
    out[f"{CORNER}.reuse"] = _reuse(corners)
    job_s = sum(s[4] - s[3] for s in spans if s[2] == JOB)
    main_s = sum(s[4] - s[3] for s in spans if s[2] == "cli.main")
    out["trace.coverage"] = main_s / job_s if job_s else 0.0
    out["trace.overhead"] = (statistics.median(traced_makespans)
                             / statistics.median(untraced_makespans))
    return out


def _reuse(spans) -> float:
    """Distinct structure keys over calls; 1.0 when nothing is recomputed."""
    if not spans:
        return 1.0
    return len({s[5]["key"] for s in spans}) / len(spans)

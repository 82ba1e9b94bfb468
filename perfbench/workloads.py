"""Seeded inputs and job lists for the three benchmark workloads.

Every job is one ``loopnr.cli.main(argv)`` call.  A workload is a
fixed list of job slots; the benchmark runs it in rounds, and round
``r`` of seed ``s`` fills each slot with a fresh input: the slot's base
structure relabelled by a random permutation that fixes 0, optionally
with one table entry changed.  No input repeats within a run, so a
cross-call memo cannot stand in for a real sweep, and the same
(seed, round) always gives byte-identical files under stable relative
paths, so report hashes repeat.

Base structures come from ``loopnr.parse_spec``, except ``cyclic:N``,
which is written down directly (building ``cyclic:512`` through the
validating constructor would cost more than the jobs that use it).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("lattice", "construct", "decompose")

# Plain analyze of a structure file or spec: validation plus units.
PLAIN = "analyze"
# The lattice workload's full analysis.
FULL_FLAGS = ["--local", "--subloops", "--radical", "--idempotents"]

# Wraparound probes replace an entry x by x + 2**16: after the int16
# narrowing in ``tables.as_table`` the table reads as the valid one.
WRAP = 1 << 16

# Lattice workload: full analysis of relabelled rings and zero-symmetric
# near-rings of order 32-256 whose N-subloop lattices have 7-32 members.
# The median job is the order-64 product of Z/4s (four slots a round,
# with five cheaper and five dearer slots) and the tail job is the
# order-32 Boolean ring (two slots, below the three dearest), so both
# percentiles compare like with like across seeds.  The median slots sit
# between the long jobs, so that their samples are spread over the round.
LATTICE_BASES = (
    "matrix:cyclic:4,2",
    "product:cyclic:4+cyclic:4+cyclic:4",
    "m0:random_loop:4,{s}",
    "product:ut2:cyclic:2+ut2:cyclic:2",
    "product:cyclic:4+cyclic:4+cyclic:4",
    "cyclic:128",
    "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2",
    "m0:random_loop:4,{s}",
    "cyclic:256",
    "product:cyclic:4+cyclic:4+cyclic:4",
    "ut2:cyclic:4",
    "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2",
    "m0:random_loop:4,{s}",
    "product:cyclic:4+cyclic:4+cyclic:4",
)

# Decompose workload: unique-decomposition certificates on relabelled
# rings of order 81-256, and locality transfer along small maps.  The
# median job is ``ut2:cyclic:5`` (four slots a round, with the maps and
# M2(Z/3) below and five dearer slots above) and the tail job is
# ``ut2:cyclic:6`` (two slots, below the order-256 product).  A median
# job of a few tenths of a second moves with the machine about as much
# as the long jobs do; one of a few hundredths moves much more.  The
# median slots sit between the long jobs, and the maps between the
# rings, so that the samples of one slot are spread over the round.
DECOMPOSE_BASES = (
    "product:matrix:cyclic:2,2+matrix:cyclic:2,2",
    "ut2:cyclic:5",
    "ut2:cyclic:6",
    "ut2:cyclic:5",
    "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2",
    "ut2:cyclic:5",
    "ut2:cyclic:6",
    "ut2:cyclic:5",
    "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2",
    "matrix:cyclic:3,2",
)
DECOMPOSE_MAX_FAMILY_N = 256

# (source, target, map): "iso" relabels source to a second labelling of
# itself; "mod" is the reduction Z/p^k -> Z/p^j.  Both are unit-reflecting.
HOMS = (
    ("matrix:cyclic:2,2", "matrix:cyclic:2,2", "iso"),
    ("ut2:cyclic:3", "ut2:cyclic:3", "iso"),
    ("cyclic:27", "cyclic:9", "mod"),
    ("cyclic:25", "cyclic:5", "mod"),
)

# Construct workload: validation-dominated jobs on orders 128-625.
# Spec jobs draw without replacement from these pools, one per round.
M0_ORDER5_SPECS = ("m0:nonassoc5",) + tuple(f"m0:smallloop:5,{i}" for i in range(56))
PRODUCT_256_FACTORS = (
    (2, 128), (4, 64), (8, 32), (16, 16),
    (2, 2, 64), (2, 4, 32), (2, 8, 16), (4, 4, 16), (4, 8, 8),
)

DEFAULT_SEED = 0


@dataclass
class Job:
    """One CLI call and what the oracle expects of it."""

    id: str
    argv: list
    check: str                   # report type: analyze | check | decompose | hom
    key: str                     # expected-invariants key
    variant: str = "clean"       # clean | corrupt | probe

    def to_wire(self) -> dict:
        return {"id": self.id, "argv": self.argv}


def cyclic_tables(n: int):
    idx = np.arange(n, dtype=np.int64)
    return (idx[:, None] + idx[None, :]) % n, (idx[:, None] * idx[None, :]) % n, 1 % n


class Bases:
    """Canonical tables of base structures, built once per run."""

    def __init__(self):
        self._cache = {}

    def get(self, spec: str):
        """(kind, add, mul, one) with int64 tables; mul/one None for loops."""
        if spec not in self._cache:
            self._cache[spec] = self._build(spec)
        return self._cache[spec]

    @staticmethod
    def _build(spec: str):
        head, _, rest = spec.partition(":")
        if head == "cyclic":
            add, mul, one = cyclic_tables(int(rest))
            return "ring", add, mul, one
        from loopnr import kind_of, parse_spec
        from loopnr.config import DEFAULT_BOUNDS
        s = parse_spec(spec, DEFAULT_BOUNDS)
        kind = kind_of(s)
        add = np.asarray(s.add, dtype=np.int64)
        if kind == "loop":
            return kind, add, None, None
        return kind, add, np.asarray(s.mul, dtype=np.int64), int(s.one)


def order4_loop_index(seed: int) -> int:
    """Which of the four labelled loops of order 4 random_loop:4,seed is.

    The oracle's expectations are recorded per ``m0:smallloop:4,i``.
    """
    from loopnr import all_loops, random_loop
    table = random_loop(4, seed).add
    for i, loop in enumerate(all_loops(4)):
        if np.array_equal(loop.add, table):
            return i
    raise RuntimeError("random_loop:4 is not among the order-4 loops")


def zero_fixing_perm(n: int, rng: random.Random) -> np.ndarray:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return np.array([0] + rest, dtype=np.int64)


def identity_perm(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def relabel(add, mul, one, perm):
    """Tables of the isomorphic copy in which element a is named perm[a]."""
    inv = np.argsort(perm)
    grid = np.ix_(inv, inv)
    new_add = perm[add[grid]]
    if mul is None:
        return new_add, None, None
    return new_add, perm[mul[grid]], int(perm[one])


def corrupt(add, mul, table: str, rng: random.Random, wrap: bool):
    """Copies of the tables with one entry of ``table`` ("add"/"mul") changed.

    An ordinary corruption writes a different in-range value, which
    breaks the Latin property (add) or right distributivity (mul), so
    the structure is invalid.  A wraparound probe adds 2**16 to the
    entry instead.
    """
    add, mul = add.copy(), mul.copy()
    n = add.shape[0]
    target = add if table == "add" else mul
    i, j = rng.randrange(1, n), rng.randrange(1, n)
    if wrap:
        target[i, j] += WRAP
    else:
        target[i, j] = (target[i, j] + rng.randrange(1, n)) % n
    return add, mul


def write_structure(path: str, kind: str, add, mul, one) -> None:
    doc = {"kind": kind, "n": int(add.shape[0]), "add": add.tolist(), "meta": {}}
    if kind != "loop":
        doc["mul"] = mul.tolist()
        doc["one"] = int(one)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


class RoundMaker:
    """Writes the inputs of one round and returns its jobs.

    ``relabelled=False`` writes every base in its canonical labelling;
    the expectations recorder uses it to run the same job shapes on the
    unrelabelled structures.
    """

    def __init__(self, workload: str, seed: int, workdir: str, bases: Bases | None = None,
                 relabelled: bool = True):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.bases = bases or Bases()
        self.relabelled = relabelled
        pools = random.Random(f"pools:{seed}")
        self.m0_specs = list(M0_ORDER5_SPECS[1:])
        pools.shuffle(self.m0_specs)
        self.m0_specs.insert(0, M0_ORDER5_SPECS[0])
        self.products = sorted({p for f in PRODUCT_256_FACTORS
                                for p in itertools.permutations(f)})
        pools.shuffle(self.products)

    def rng(self, r: int, slot: str) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{r}:{slot}")

    def path(self, r: int, slot: str) -> str:
        return os.path.join(self.workdir, f"r{r:02d}-{slot}.json")

    def perm(self, n: int, rng: random.Random) -> np.ndarray:
        return zero_fixing_perm(n, rng) if self.relabelled else identity_perm(n)

    def structure_file(self, r: int, slot: str, spec: str, variant: str = "clean",
                       table: str = "add") -> str:
        rng = self.rng(r, slot)
        kind, add, mul, one = self.bases.get(spec)
        add, mul, one = relabel(add, mul, one, self.perm(add.shape[0], rng))
        if variant != "clean":
            add, mul = corrupt(add, mul, table, rng, wrap=variant == "probe")
        path = self.path(r, slot)
        write_structure(path, kind, add, mul, one)
        return path

    def round(self, r: int) -> list:
        return getattr(self, f"_{self.workload}")(r)

    def probes(self, r: int) -> list:
        """Jobs run once after the timed rounds, outside every metric.

        ``analyze`` on a wraparound probe: at this revision it accepts
        the table that ``check`` rejects (the int16 narrowing defect),
        so the oracle tallies these as a known defect, not a failure.
        """
        if self.workload != "construct":
            return []
        path = self.structure_file(r, "wrap128", "cyclic:128", "probe", "mul")
        return [Job(f"r{r:02d}.wrap128", [PLAIN, path], "analyze",
                    "analyze|cyclic:128", "probe")]

    def _lattice(self, r: int) -> list:
        jobs = []
        for k, spec in enumerate(LATTICE_BASES):
            slot = f"L{k}"
            key_spec = spec
            if "{s}" in spec:
                s = self.rng(r, slot + "spec").randrange(1 << 30)
                spec = spec.format(s=s)
                key_spec = f"m0:smallloop:4,{order4_loop_index(s)}"
            path = self.structure_file(r, slot, spec)
            jobs.append(Job(f"r{r:02d}.{slot}", [PLAIN, path, *FULL_FLAGS], "analyze",
                            f"analyze-full|{key_spec}"))
        return jobs

    def _construct(self, r: int) -> list:
        m0 = self.m0_specs[r % len(self.m0_specs)]
        factors = self.products[r % len(self.products)]
        prod = "product:" + "+".join(f"cyclic:{f}" for f in factors)
        prod_key = "product:" + "+".join(f"cyclic:{f}" for f in sorted(factors))
        jobs = [
            Job(f"r{r:02d}.m0", [PLAIN, m0], "analyze", "analyze|m0:order5"),
            Job(f"r{r:02d}.prod", [PLAIN, prod], "analyze", f"analyze|{prod_key}"),
        ]
        # (slot, base, variant, corrupted table, commands).  The corrupted
        # table is fixed per slot so that a job's early exit lands on the
        # same axiom for every seed.
        files = (
            ("c256", "cyclic:256", "clean", None, ("check", PLAIN)),
            ("x256", "cyclic:256", "corrupt", "mul", ("check", PLAIN)),
            ("c128", "cyclic:128", "clean", None, ("check", PLAIN)),
            ("x128", "cyclic:128", "corrupt", "add", ("check", PLAIN)),
            ("x512", "cyclic:512", "corrupt", "add", (PLAIN,)),
            ("w512", "cyclic:512", "probe", "mul", ("check",)),
        )
        for slot, spec, variant, table, commands in files:
            path = self.structure_file(r, slot, spec, variant, table)
            for cmd in commands:
                jobs.append(Job(f"r{r:02d}.{slot}.{cmd}", [cmd, path], cmd,
                                f"{cmd}|{spec}", variant))
        return jobs

    def _decompose(self, r: int) -> list:
        jobs = []
        for k, spec in enumerate(DECOMPOSE_BASES):
            slot = f"D{k}"
            path = self.structure_file(r, slot, spec)
            jobs.append(Job(f"r{r:02d}.{slot}", ["decompose", path, "--verify-uniqueness"],
                            "decompose", f"decompose|{spec}"))
            if k < len(HOMS):
                jobs.append(self._hom_job(r, f"H{k}", *HOMS[k]))
        return jobs

    def _hom_job(self, r: int, slot: str, src: str, tgt: str, how: str) -> Job:
        rng = self.rng(r, slot)
        skind, sadd, smul, sone = self.bases.get(src)
        tkind, tadd, tmul, tone = self.bases.get(tgt)
        sigma = self.perm(sadd.shape[0], rng)
        tau = self.perm(tadd.shape[0], rng)
        if how == "iso":
            base_map = identity_perm(sadd.shape[0])
        else:
            base_map = np.arange(sadd.shape[0], dtype=np.int64) % tadd.shape[0]
        # relabelled map: sigma(x) -> tau(base_map(x))
        fmap = np.empty_like(base_map)
        fmap[sigma] = tau[base_map]
        spath, tpath = self.path(r, slot + "s"), self.path(r, slot + "t")
        mpath = os.path.join(self.workdir, f"r{r:02d}-{slot}m.map")
        write_structure(spath, skind, *relabel(sadd, smul, sone, sigma))
        write_structure(tpath, tkind, *relabel(tadd, tmul, tone, tau))
        with open(mpath, "w", encoding="utf-8") as fh:
            json.dump(fmap.tolist(), fh)
        return Job(f"r{r:02d}.{slot}", ["hom", spath, tpath, mpath, "--transfer"], "hom",
                   f"hom|{src}|{tgt}|{how}")

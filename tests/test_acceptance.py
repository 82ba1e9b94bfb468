"""Acceptance sweep: nine desk-scale certifications, one test each.

Each test is a full-corpus check of one guarantee the library is built
around; `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion:

  1 both locality routes agree on every corpus near-ring
  2 local structures have idempotent set exactly {zero, one}
  3 unit-reflecting homs transfer locality and kill no idempotent
  4 both radical computations agree on every corpus ring
  5 every approximate idempotent lifts, matching the coset search
  6 complete primitive families are unique up to corner isomorphism
  7 every primitive idempotent matches a canonical retract
  8 loop foundations agree with independent brute-force oracles
  9 reports are byte-identical across repeat runs and thread settings
"""

import os
import subprocess
import sys
import time
from functools import cache

import numpy as np

import corpus
import latin_oracle
from loopnr import (
    CATALOG,
    all_loops,
    canonical_json,
    decompose_report,
    enumerate_subloops,
    idempotent_kill_check,
    idempotents,
    is_local_lnr,
    is_normal_subloop,
    is_primitive,
    is_strongly_indecomposable_corner,
    jacobson_radical,
    lift_idempotent,
    coset_idempotents,
    decompose_regular,
    image_subring,
    is_local_ring,
    is_N_subloop,
    maximal_N_subloops,
    units,
    parse_spec,
    product,
    random_loop,
    validate_loop,
    validate_loop_hom,
    verify_ks_uniqueness,
    verify_local_transfer,
    verify_retract_matching,
)
from loopnr.reports import analysis_report
from loopnr.rings import radical_by_maximal_left_ideals, radical_by_quasiregularity

FULL_FLAG_CAP = 256  # analyze with every section for structures up to this order


@cache
def locality_reports():
    """Locality verdicts over the whole corpus, computed once per session."""
    return tuple((name, s, is_local_lnr(s)) for name, s in corpus.locality_corpus())


def test_c1_locality_routes_agree_on_corpus():
    t0 = time.monotonic()
    reports = locality_reports()
    for name, s, local in reports:
        via_maximal = len(maximal_N_subloops(s)) == 1
        via_units = is_N_subloop(s, frozenset(range(s.n)) - units(s).members)
        assert via_maximal == local and via_units == local, (
            f"{name}: is_local_lnr says {local}, maximal-N-subloop route says "
            f"{via_maximal}, non-unit-closure route says {via_units}"
        )
    elapsed = time.monotonic() - t0
    assert len(reports) >= 80
    assert elapsed < 60.0, f"locality sweep took {elapsed:.1f}s"
    print(f"C1: routes agree on all {len(reports)} corpus structures ({elapsed:.1f}s)")


def test_c2_local_implies_trivial_idempotents():
    locals_seen = 0
    for name, s, local in locality_reports():
        if not local:
            continue
        locals_seen += 1
        assert set(idempotents(s)) == {s.zero, s.one}, name
    assert locals_seen >= 10
    print(f"C2: all {locals_seen} local corpus structures have idempotents {{0, 1}}")


def test_c3_unit_reflecting_homs_transfer_locality():
    homs = corpus.unit_reflecting_hom_corpus()
    assert len(homs) >= 20
    for name, f in homs:
        assert f.nontrivial, name
        assert f.unit_reflecting, name
        local = verify_local_transfer(f)
        source_local = is_local_lnr(f.source)
        image_local = is_local_ring(image_subring(f).target)
        assert local == source_local == image_local, (
            f"{name}: transfer {local}, source local={source_local}, image local={image_local}"
        )
        assert idempotent_kill_check(f), name
    print(f"C3: locality transfers along all {len(homs)} unit-reflecting homs")


def test_c4_radical_routes_agree_on_corpus_rings():
    t0 = time.monotonic()
    rings = corpus.ring_corpus()
    frozen = {"cyclic:4": {0, 2}, "cyclic:6": {0}, "m2(z2)": {0}}
    for name, r in rings:
        assert r.n <= 256
        via_quasi = radical_by_quasiregularity(r)
        via_ideals = radical_by_maximal_left_ideals(r)
        assert via_quasi.members == via_ideals.members, name
        if name in frozen:
            assert via_quasi.members == frozen[name], name
    elapsed = time.monotonic() - t0
    assert frozen.keys() <= {name for name, _ in rings}
    assert elapsed < 120.0, f"radical sweep took {elapsed:.1f}s"
    print(f"C4: radical routes agree on all {len(rings)} rings ({elapsed:.1f}s)")


def test_c5_idempotents_lift_on_corpus_rings():
    lifted = 0
    for name, r in corpus.ring_corpus():
        j = jacobson_radical(r)
        for x in range(r.n):
            defect = int(r.sub(r.mul[x, x], x))
            if defect not in j.members:
                continue
            e = lift_idempotent(r, j, x)
            assert int(r.mul[e, e]) == e, (name, x)
            assert e in coset_idempotents(r, j, x), (name, x)
            lifted += 1
    assert lifted >= 250
    print(f"C5: {lifted} approximate idempotents lifted, all matching coset search")


def test_c6_primitive_families_unique_up_to_isomorphism():
    t0 = time.monotonic()
    rings = corpus.small_ring_corpus()
    checked = 0
    by_name = {}
    for name, r in rings:
        assert r.n <= 64
        dec = decompose_regular(r)
        if not all(is_strongly_indecomposable_corner(r, e) for e in dec):
            continue
        pairs = verify_ks_uniqueness(r)
        families = [fam for fam, _ in pairs]
        assert dec in families, name
        classes = sorted(pairs[families.index(dec)][1])
        assert all(sorted(labels) == classes for _, labels in pairs), name
        assert all(len(fam) == len(labels) == len(dec) for fam, labels in pairs), name
        by_name[name] = pairs
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 20
    assert len(by_name["cyclic:6"]) == 1
    assert len(by_name["m2(z2)"]) > 1
    zz42 = by_name["z4xz2"]
    assert len(zz42) == 1
    assert len(set(zz42[0][1])) == 2  # two non-isomorphic corners
    assert elapsed < 300.0, f"uniqueness sweep took {elapsed:.1f}s"
    print(f"C6: families matched on all {checked} qualifying rings ({elapsed:.1f}s)")


def test_c7_every_primitive_idempotent_matches_a_retract():
    matched = 0
    for name, r in corpus.small_ring_corpus():
        matches = verify_retract_matching(r)
        primitives = {
            e for e in idempotents(r) if e != r.zero and is_primitive(r, e)
        }
        assert {e for e, _partner in matches} == primitives, name
        assert all(partner in set(decompose_regular(r)) for _e, partner in matches), name
        matched += len(matches)
    assert matched >= 30
    print(f"C7: {matched} primitive idempotents matched to canonical retracts")


def test_c8_loop_foundations_match_brute_oracles():
    t0 = time.monotonic()

    # difference round-trips on 1000 seeded random loops of orders 3..8
    for i in range(1000):
        loop = random_loop(3 + i % 6, seed=i)
        idx = np.arange(loop.n)
        assert (loop.add[idx[:, None], loop.ldiff] == idx[None, :]).all()
        assert (loop.add[loop.rdiff, idx[None, :]] == idx[:, None]).all()

    # hom difference-preservation and kernel normality on product projections
    z2 = validate_loop([[0, 1], [1, 0]])
    for i in range(0, 1000, 10):
        loop = random_loop(3 + i % 6, seed=i)
        big = product([loop, z2])
        f = validate_loop_hom([x // 2 for x in range(big.n)], big, loop)
        fm = np.asarray(f.map)
        assert (fm[big.ldiff] == loop.ldiff[np.ix_(fm, fm)]).all()
        assert (fm[big.rdiff] == loop.rdiff[np.ix_(fm, fm)]).all()
        assert is_normal_subloop(big, f.kernel)
        ident = validate_loop_hom(list(range(loop.n)), loop, loop)
        assert is_normal_subloop(loop, ident.kernel)

    # subloop enumeration equals the brute-force oracle for every loop
    # of order up to 6 (reduced Latin squares cover all up to renaming)
    swept = 0
    for order in range(1, 6):
        for loop in all_loops(order):
            got = {s.members for s in enumerate_subloops(loop)}
            assert got == latin_oracle.brute_subloops(loop.add.tolist())
            swept += 1
    for grid in latin_oracle.reduced_latin_squares(6):
        loop = validate_loop(grid)
        got = {s.members for s in enumerate_subloops(loop)}
        assert got == latin_oracle.brute_subloops([list(row) for row in grid])
        swept += 1
    elapsed = time.monotonic() - t0
    assert swept == 1 + 1 + 1 + 4 + 56 + 9408
    assert elapsed < 60.0, f"loop foundation sweep took {elapsed:.1f}s"
    print(f"C8: 1000 loops + {swept} oracle comparisons clean ({elapsed:.1f}s)")


def _analysis_payload(spec: str, structure) -> str:
    full = structure.n <= FULL_FLAG_CAP
    payload = analysis_report(
        structure,
        spec,
        with_subloops=full,
        with_local=full,
        with_radical=full,
        with_idempotents=True,
    )
    return canonical_json(payload)


def test_c9_reports_are_deterministic():
    # in-process: analyze and decompose every catalog entry twice
    for spec, kind, _n in CATALOG:
        structure = parse_spec(spec)
        assert _analysis_payload(spec, structure) == _analysis_payload(spec, structure)
        if kind == "ring":
            first = canonical_json(
                decompose_report(structure, spec, verify_uniqueness=structure.n <= 16)
            )
            again = canonical_json(
                decompose_report(structure, spec, verify_uniqueness=structure.n <= 16)
            )
            assert first == again, spec

    # across processes with different hash seeds and thread settings
    commands = [
        ["analyze", "matrix:cyclic:4,2", "--local", "--radical", "--idempotents",
         "--subloops"],
        ["decompose", "matrix:cyclic:2,2", "--verify-uniqueness"],
        ["catalog"],
    ]
    env_variants = []
    for seed, threads in (("1", "1"), ("31337", "8")):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            env[var] = threads
        env_variants.append(env)
    for argv in commands:
        outputs = []
        for env in env_variants:
            proc = subprocess.run(
                [sys.executable, "-m", "loopnr", *argv],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, (argv, proc.stderr.decode())
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
    print(f"C9: {len(CATALOG)} catalog reports byte-stable, 3 commands thread-stable")

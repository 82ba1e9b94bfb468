import dataclasses
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
import latin_oracle
from loopnr import (
    CATALOG,
    Bounds,
    BoundExceeded,
    corner_ring,
    decompose_report,
    enumerate_N_subloops,
    enumerate_subloops,
    idempotents,
    is_local_ring,
    is_N_subloop,
    is_semiperfect,
    is_semisimple,
    jacobson_radical,
    map_near_ring,
    maximal_N_subloops,
    parse_spec,
    radical_by_maximal_left_ideals,
    random_loop,
    units,
    validate_lnr,
    verify_retract_matching,
)
from loopnr import lattice, nearrings, reports, rings
from loopnr.cli import main
from loopnr.lattice import ClosureSystem, bits_of
from loopnr.loops import ElementSubset
from loopnr.tables import positions

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# structures of order <= 12, all zero-symmetric except M(Z2), whose
# bottom N*0 = {0, 1} is not {0}
SMALL = {
    **{f"cyclic:{n}": (lambda n=n: corpus.z(n)) for n in range(1, 13)},
    "gf:4": lambda: corpus.gf(4),
    "gf:8": lambda: corpus.gf(8),
    "gf:9": lambda: corpus.gf(9),
    "z2xz2": lambda: corpus.zz(2, 2),
    "z2xz3": lambda: corpus.zz(2, 3),
    "z4xz2": lambda: corpus.zz(4, 2),
    "z3xz3": lambda: corpus.zz(3, 3),
    "z2xz6": lambda: corpus.zz(2, 6),
    "z2xz2xz2": lambda: parse_spec("product:cyclic:2+cyclic:2+cyclic:2"),
    "ut2(z2)": lambda: corpus.ut2(2),
    "m0(z2)": lambda: map_near_ring(corpus.cyclic_loop(2), zero_fixing=True),
    "m0(z3)": lambda: corpus.m0("small:3,0"),
    "m:cyclic:2": lambda: parse_spec("m:cyclic:2"),
}


def relabelled(nr, perm):
    """The near-ring carried over along a permutation that fixes 0."""
    p = np.asarray(perm)
    add = np.empty_like(nr.add)
    mul = np.empty_like(nr.mul)
    add[np.ix_(p, p)] = p[nr.add]
    mul[np.ix_(p, p)] = p[nr.mul]
    return validate_lnr(add, mul, int(p[nr.one]))


def brute_n_subloops(nr) -> set:
    rest = range(1, nr.n)
    found = set()
    for bits in range(1 << (nr.n - 1)):
        subset = frozenset([0] + [x for i, x in enumerate(rest) if bits >> i & 1])
        if is_N_subloop(nr, subset):
            found.add(subset)
    return found


def extension_n_subloops(nr) -> set:
    """Every N-subloop, by a search that shares no code with the engine:
    from the bottom N*0, add one element at a time and close by a plain
    fixpoint under + and N*.  Each N-subloop T is reached, since adding
    its elements one by one passes only through N-subloops inside T;
    each set found is confirmed with is_N_subloop, as brute_n_subloops
    confirms its subsets.  It scales to n = 64, where the subset scan
    cannot."""

    def close(mask):
        while True:
            members = np.flatnonzero(mask)
            grown = mask.copy()
            grown[nr.add[members[:, None], members]] = True
            grown[nr.mul[:, members]] = True
            if (grown == mask).all():
                return frozenset(members.tolist())
            mask = grown

    def extended(subset, x):
        mask = np.zeros(nr.n, dtype=bool)
        mask[list(subset | {x})] = True
        return close(mask)

    bottom = extended(frozenset(), nr.zero)
    found, queue = {bottom}, [bottom]
    for subset in queue:
        for x in sorted(set(range(nr.n)) - subset):
            t = extended(subset, x)
            if t not in found:
                found.add(t)
                queue.append(t)
    assert all(is_N_subloop(nr, t) for t in found)
    return found


@st.composite
def small_near_rings(draw):
    nr = SMALL[draw(st.sampled_from(sorted(SMALL)))]()
    perm = [0] + draw(st.permutations(range(1, nr.n)))
    return relabelled(nr, perm)


SMALL_RINGS = sorted(name for name, build in SMALL.items() if build().kind == "ring")


@st.composite
def small_rings(draw):
    """A small ring relabelled along a permutation that fixes 0 and
    certified again as a ring, so its lattice joins by sumset."""
    nr = SMALL[draw(st.sampled_from(SMALL_RINGS))]()
    perm = [0] + draw(st.permutations(range(1, nr.n)))
    return rings.validate_ring(relabelled(nr, perm))


class TestEngineMatchesBruteScan:
    @given(small_near_rings())
    def test_n_subloops_equal_subset_scan(self, nr):
        got = [s.members for s in enumerate_N_subloops(nr)]
        assert len(got) == len(set(got))
        assert set(got) == brute_n_subloops(nr)

    @given(small_near_rings())
    def test_extension_search_equals_subset_scan(self, nr):
        assert extension_n_subloops(nr) == brute_n_subloops(nr)

    @given(st.integers(1, 8), st.integers(0, 10_000))
    def test_subloops_equal_subset_scan(self, n, seed):
        loop = random_loop(n, seed)
        got = [s.members for s in enumerate_subloops(loop)]
        assert len(got) == len(set(got))
        assert set(got) == latin_oracle.brute_subloops(loop.add.tolist())


def brute_closed_sets(n, tables, fixed) -> set:
    """Every subset containing ``fixed`` that each table maps into itself."""
    rest = [x for x in range(n) if x not in fixed]
    found = set()
    for bits in range(1 << len(rest)):
        subset = sorted(set(fixed) | {x for i, x in enumerate(rest) if bits >> i & 1})
        grid = np.ix_(subset, subset)
        if all(set(t[grid].flat) <= set(subset) for t in tables):
            found.add(frozenset(subset))
    return found


def sparse_rule_table(seed):
    """A binary table on 6 to 9 elements sending most pairs (a, b) to a, so
    that few pairs force a new member and the closed sets are many."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 10))
    t = np.repeat(np.arange(n)[:, None], n, axis=1)
    rules = rng.random((n, n)) < 0.15
    t[rules] = rng.integers(0, n, int(rules.sum()))
    return t


class TestClosedSetsWork:
    """The engine reads principal N-subloops off mul's columns and joins
    only with join-irreducible principals."""

    @pytest.mark.parametrize("spec", [
        "cyclic:256",
        "product:cyclic:4+cyclic:4+cyclic:4",
        "matrix:cyclic:2,2",
        "m0:cyclic:4",
        "m:cyclic:2",
    ])
    def test_no_principal_saturations(self, monkeypatch, spec):
        nr = parse_spec(spec)
        calls = []
        extend = ClosureSystem._extend

        def counting(self, closed, x):
            calls.append(int(x))
            return extend(self, closed, x)

        monkeypatch.setattr(ClosureSystem, "_extend", counting)
        assert nearrings._n_subloop_lattice(nr)
        assert calls == []

    @staticmethod
    def record_joins(monkeypatch):
        """Patch ClosureSystem.join, ClosureSystem._saturate and
        _Witness.find to record their calls: the bitset of each set
        joined, the bitset of each set joined by a saturation, and the
        generator x, the bitset u of the union and the bitset of the
        join it settled (None if it settled none) of each witness
        search."""
        joined, saturating, tried = [], [], []
        join, saturate, find = ClosureSystem.join, ClosureSystem._saturate, lattice._Witness.find
        joining = []

        def recording_join(self, a, b, principal=None):
            joined.append(bits_of(b))
            joining.append(joined[-1])
            try:
                return join(self, a, b, principal)
            finally:
                joining.pop()

        def recording_saturate(self, *args):
            if joining:
                saturating.append(joining[-1])
            return saturate(self, *args)

        def recording_find(self, members, x, u, found):
            j = find(self, members, x, u, found)
            tried.append((x, u, j))
            return j

        monkeypatch.setattr(ClosureSystem, "join", recording_join)
        monkeypatch.setattr(ClosureSystem, "_saturate", recording_saturate)
        monkeypatch.setattr(lattice._Witness, "find", recording_find)
        return joined, saturating, tried

    def test_joins_use_only_the_atoms_of_a_boolean_lattice(self, monkeypatch):
        nr = parse_spec("product:cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2")
        joined, _, tried = self.record_joins(monkeypatch)
        subloops = nearrings._n_subloop_lattice(nr)
        assert len(subloops) == 32
        atoms = {bits_of(s.mask()) for s in subloops if len(s) == 2}
        assert len(atoms) == 5
        principal = nearrings._principal_n_subloops(nr)
        assert {bits_of(principal[x]) for x, _, _ in tried} == atoms
        # every set of a Boolean lattice is principal, so a one-step
        # witness settles each join and none saturates
        assert joined == []

    @pytest.mark.parametrize("spec, most, saturated", [
        ("product:cyclic:4+cyclic:4+cyclic:4", 0, 0),
        ("product:cyclic:2+cyclic:2+cyclic:2+cyclic:2+cyclic:2", 0, 0),
        ("matrix:cyclic:4,2", 0, 0),
        ("m0:cyclic:4", 0, 0),
        ("m0:nonassoc5", 12, 12),
        # a ring's joins that no witness settles are sumsets
        ("ut2:cyclic:4", 28, 0),
        ("product:ut2:cyclic:2+ut2:cyclic:2", 13, 0),
        ("ut2:cyclic:8", 430, 0),
    ])
    def test_saturating_joins(self, monkeypatch, spec, most, saturated):
        joined, saturating, tried = self.record_joins(monkeypatch)
        assert nearrings._n_subloop_lattice(parse_spec(spec))
        assert tried
        assert len(joined) <= most
        assert len(saturating) <= saturated

    @staticmethod
    def assert_witnesses_are_closures(monkeypatch, system, seed, principal=None):
        """Every join a witness settles, whether a single row or a union
        of rows found already settled it, is the closure of the union."""
        _, _, tried = TestClosedSetsWork.record_joins(monkeypatch)
        list(system.closed_sets(seed, principal))
        for _, u, j in tried:
            if j is not None:
                union = [i for i in range(system.n) if u >> i & 1]
                assert j == bits_of(system.close(union))
        return sum(j is not None for _, _, j in tried)

    @given(small_near_rings())
    def test_witnessed_n_subloop_joins_are_closures(self, nr):
        with pytest.MonkeyPatch.context() as monkeypatch:
            system = ClosureSystem(nr.n, nr._closure.binary, absorbing=nr.mul)
            self.assert_witnesses_are_closures(
                monkeypatch, system, (nr.zero,), nearrings._principal_n_subloops(nr))

    @given(small_near_rings())
    def test_witnessed_sub_near_ring_joins_are_closures(self, nr):
        with pytest.MonkeyPatch.context() as monkeypatch:
            system = ClosureSystem(nr.n, (nr.add, nr.mul))
            self.assert_witnesses_are_closures(monkeypatch, system, (nr.zero, nr.one))

    @given(st.integers(0, 10_000))
    def test_witnessed_sparse_table_joins_are_closures(self, seed):
        t = sparse_rule_table(seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_witnesses_are_closures(monkeypatch, ClosureSystem(len(t), (t,)), (0,))

    def test_witnesses_settle_sparse_table_joins(self, monkeypatch):
        # the oracles above see witnessed joins, not only saturated ones
        witnessed = sum(
            self.assert_witnesses_are_closures(monkeypatch, ClosureSystem(len(t), (t,)), (0,))
            for t in map(sparse_rule_table, range(50)))
        assert witnessed > 0

    @given(small_near_rings())
    def test_sub_near_rings_equal_subset_scan(self, nr):
        system = ClosureSystem(nr.n, (nr.add, nr.mul))
        got = [frozenset(np.flatnonzero(m).tolist())
               for m in system.closed_sets((nr.zero, nr.one))]
        assert len(got) == len(set(got))
        assert set(got) == brute_closed_sets(nr.n, (nr.add, nr.mul), (nr.zero, nr.one))

    def test_closed_sets_of_sparse_tables_equal_subset_scan(self):
        # lattices with join-irreducible principals whose lower cover is
        # no principal, where a wrong redundancy test loses closed sets
        for seed in range(200):
            t = sparse_rule_table(seed)
            got = [frozenset(np.flatnonzero(m).tolist())
                   for m in ClosureSystem(len(t), (t,)).closed_sets((0,))]
            assert len(got) == len(set(got)), seed
            assert set(got) == brute_closed_sets(len(t), (t,), (0,)), seed


class TestSumsetJoin:
    """A ring's left ideals join as their sumset; a near-ring's N-subloops
    keep the saturating join."""

    @staticmethod
    def assert_sumsets_are_closures(ring):
        system = nearrings._n_subloop_system(ring)
        assert system.sumsets
        closed = [s.mask() for s in enumerate_N_subloops(ring)]
        for a in closed:
            for b in closed:
                assert np.array_equal(system.join(a, b), system.close(np.flatnonzero(a | b)))

    @pytest.mark.parametrize("spec", [spec for spec, kind, n in CATALOG
                                      if kind == "ring" and n <= 64]
                             + ["ut2:cyclic:4", "product:ut2:cyclic:2+ut2:cyclic:2"])
    def test_sumset_join_of_catalog_rings(self, spec):
        self.assert_sumsets_are_closures(parse_spec(spec))

    @given(small_rings())
    def test_sumset_join_of_relabelled_rings(self, ring):
        self.assert_sumsets_are_closures(ring)

    @pytest.mark.parametrize("spec", ["ut2:cyclic:4", "product:ut2:cyclic:2+ut2:cyclic:2",
                                      "cyclic:64"])
    def test_sumset_join_in_blocks_of_one_row_is_the_default(self, monkeypatch, spec):
        ring = parse_spec(spec)
        system = nearrings._n_subloop_system(ring)
        closed = [s.mask() for s in enumerate_N_subloops(ring)]
        pairs = [(a, b) for a in closed for b in closed]
        want = [system.join(a, b) for a, b in pairs]
        monkeypatch.setattr(lattice, "_BLOCK_ENTRIES", 1)
        assert all(np.array_equal(system.join(a, b), j) for (a, b), j in zip(pairs, want))

    @pytest.mark.parametrize("spec", ["ut2:cyclic:4", "product:ut2:cyclic:2+ut2:cyclic:2"])
    def test_ring_lattices_equal_extension_search(self, monkeypatch, spec):
        ring = parse_spec(spec)
        joined, saturating, _ = TestClosedSetsWork.record_joins(monkeypatch)
        got = [s.members for s in nearrings._n_subloop_lattice(ring)]
        assert len(got) == len(set(got))
        assert set(got) == extension_n_subloops(ring)
        # joins run, and none of them saturates
        assert joined and saturating == []

    def test_quotients_and_corners_join_by_sumset(self):
        ring = parse_spec("ut2:cyclic:4")
        e = next(x for x in idempotents(ring) if x not in (ring.zero, ring.one))
        for r in (ring, ring._quotient.target, corner_ring(ring, e).ring):
            assert nearrings._n_subloop_system(r).sumsets

    def test_near_ring_keeps_the_saturating_join(self):
        # + of M0(Z4) is an abelian group, yet two N-subloops have a
        # sumset that is not closed: r(i + j) need not be ri + rj
        nr = parse_spec("m0:cyclic:4")
        assert nr.kind == "lnr"
        system = nearrings._n_subloop_system(nr)
        assert not system.sumsets
        i, j = (ElementSubset.of(nr.n, s).mask() for s in ([0, 5, 10, 15], [0, 17, 34, 51]))
        assert is_N_subloop(nr, np.flatnonzero(i)) and is_N_subloop(nr, np.flatnonzero(j))
        sumset = ClosureSystem(nr.n, system.binary, absorbing=nr.mul, sumsets=True).join(i, j)
        assert np.count_nonzero(sumset) == 16
        assert not is_N_subloop(nr, np.flatnonzero(sumset))
        join = system.join(i, j)
        assert np.count_nonzero(join) == 64
        assert np.array_equal(join, system.close(np.flatnonzero(i | j)))
        got = {s.members for s in enumerate_N_subloops(nr)}
        assert got == extension_n_subloops(nr)


class TestCoatomPass:
    """The coatoms are the sets the quadratic filter keeps, in its order,
    whether they are read off a kept lattice or, for a local N with no
    lattice kept, found as cl({0} | U') without one."""

    CASES = {
        **{f"R_{k}": (lambda k=k: corpus.trivial_extension_f2(k)) for k in range(2, 7)},
        **{spec: (lambda spec=spec: parse_spec(spec))
           for spec, kind, n in CATALOG if kind != "loop"},
    }

    @staticmethod
    def assert_matches_quadratic_filter(nr):
        fresh = dataclasses.replace(nr)   # the same tables, nothing kept
        first = maximal_N_subloops(fresh)
        proper = [s for s in enumerate_N_subloops(nr) if len(s) < nr.n]
        want = [s for s in proper if not any(s.members < t.members for t in proper)]
        assert maximal_N_subloops(nr) == want
        assert first == want
        # only a local N skips the lattice; the zero ring has no coatom
        assert ("_n_subloops" in fresh.__dict__) == (len(want) != 1)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_trivial_extensions_and_catalog(self, name):
        self.assert_matches_quadratic_filter(self.CASES[name]())

    def test_small_ring_corpus(self):
        for _, ring in corpus.small_ring_corpus():
            self.assert_matches_quadratic_filter(ring)

    def test_trivial_extension_is_local_with_radical_v(self):
        # R_4: the 67 subspaces of V = F2^4 (the even elements), and R_4
        ring = corpus.trivial_extension_f2(4)
        assert len(enumerate_N_subloops(ring)) == 67 + 1
        assert [s.members for s in maximal_N_subloops(ring)] == [frozenset(range(0, 32, 2))]


class TestClosureSystem:
    @staticmethod
    def assert_principals_are_closures(nr):
        system = ClosureSystem(nr.n, nr._closure.binary, absorbing=nr.mul)
        principal = nearrings._principal_n_subloops(nr)
        assert principal.shape == (nr.n, nr.n)
        for x in range(nr.n):
            assert np.array_equal(principal[x], system.close((nr.zero, x))), x

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_principal_table_of_small_near_rings(self, name):
        self.assert_principals_are_closures(SMALL[name]())

    @pytest.mark.parametrize(
        "spec", [spec for spec, kind, n in CATALOG if kind != "loop" and n <= 64])
    def test_principal_table_of_catalog_near_rings(self, spec):
        self.assert_principals_are_closures(parse_spec(spec))

    @given(small_near_rings())
    def test_join_is_closure_of_union(self, nr):
        system = ClosureSystem(nr.n, (nr.add, nr.ldiff, nr.rdiff), absorbing=nr.mul)
        closed = [s.mask() for s in enumerate_N_subloops(nr)]
        for a in closed:
            for b in closed:
                want = system.close(np.flatnonzero(a | b).tolist())
                assert np.array_equal(system.join(a, b), want)

    def test_each_closed_set_yielded_once(self):
        nr = corpus.ut2(2)
        system = ClosureSystem(
            nr.n, (nr.add, nr.ldiff, nr.rdiff, nr.mul)
        )
        found = [bits_of(m) for m in system.closed_sets((nr.zero, nr.one))]
        assert len(found) == len(set(found))
        assert bits_of(np.ones(nr.n, dtype=bool)) in found

    @pytest.mark.parametrize("spec", ["cyclic:12", "gf:8", "ut2:cyclic:2", "m0:cyclic:3",
                                      "m0:smallloop:4,1", "product:cyclic:2+cyclic:4"])
    def test_generating_set_is_greedy_in_rank_order(self, spec):
        nr = parse_spec(spec)
        for op in (nr.add, nr.mul):
            system = ClosureSystem(nr.n, (op,))
            got = list(system.generating_set())
            assert system.close(got).all()
            # reference: candidates by descending distinct-entry count per
            # row, least index first; each one outside the closure so far joins
            order = sorted(range(nr.n), key=lambda x: (-len(set(op[x].tolist())), x))
            want = []
            for x in order:
                reached = system.close(want)
                if reached.all():
                    break
                if not reached[x]:
                    want.append(x)
            assert got == want

    @pytest.mark.parametrize("spec", ["cyclic:12", "m0:smallloop:4,1", "cyclic:256"])
    def test_generating_set_in_blocks_of_one_row_is_the_default(self, spec, monkeypatch):
        nr = parse_spec(spec)
        want = [list(ClosureSystem(nr.n, (op,)).generating_set()) for op in (nr.add, nr.mul)]
        monkeypatch.setattr(lattice, "_BLOCK_ENTRIES", 1)
        assert [list(ClosureSystem(nr.n, (op,)).generating_set())
                for op in (nr.add, nr.mul)] == want

    def test_positions(self):
        label = positions([0, 3, 5], 6)
        assert label.tolist() == [0, -1, -1, 1, -1, 2]
        assert label[np.array([[3, 5], [0, 3]])].tolist() == [[1, 2], [0, 1]]


class TestLatticeCache:
    # M2(F2) is semisimple, so A/J is A and its lattice is A's; ut2(Z2)
    # has a radical of order 2, so A/J is a second ring with its own
    @pytest.mark.parametrize("spec, builds", [("matrix:cyclic:2,2", 1), ("ut2:cyclic:2", 2)])
    def test_analyze_builds_one_lattice_per_structure(self, monkeypatch, capsys, spec, builds):
        built = []
        original = nearrings._n_subloop_lattice

        def counting(nr):
            built.append(nr)
            return original(nr)

        monkeypatch.setattr(nearrings, "_n_subloop_lattice", counting)
        argv = ["analyze", spec, "--local", "--subloops", "--radical", "--idempotents"]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(built) == builds
        assert len(set(map(id, built))) == builds

    def test_tighter_bounds_still_refuse_once_cached(self):
        nr = parse_spec("product:cyclic:4+cyclic:2")
        assert enumerate_N_subloops(nr)
        tight = Bounds(max_enum_n=nr.n - 1)
        with pytest.raises(BoundExceeded):
            enumerate_N_subloops(nr, tight)
        with pytest.raises(BoundExceeded):
            maximal_N_subloops(nr, tight)
        loop = random_loop(6, 0)
        assert enumerate_subloops(loop)
        with pytest.raises(BoundExceeded):
            enumerate_subloops(loop, Bounds(max_subloop_n=5))

    def test_full_analyze_certifies_each_radical_once(self, monkeypatch, capsys):
        certified, quotients = [], []
        radical = rings.radical_by_quasiregularity
        quotient = rings._quotient_by

        def counting_radical(ring):
            certified.append(ring)
            return radical(ring)

        def counting_quotient(ring, ideal):
            quotients.append(ring)
            return quotient(ring, ideal)

        monkeypatch.setattr(rings, "radical_by_quasiregularity", counting_radical)
        monkeypatch.setattr(rings, "_quotient_by", counting_quotient)
        argv = ["analyze", "matrix:cyclic:4,2",
                "--local", "--subloops", "--radical", "--idempotents"]
        assert main(argv) == 0
        capsys.readouterr()
        # A and A/J, once each; A/J is built and validated once
        assert len(certified) == 2
        assert certified[0] is not certified[1]
        assert certified[0].n == 256 and certified[1].n == 16
        assert quotients == [certified[0]]

    def test_decompose_certifies_each_corner_radical_once(self, monkeypatch):
        certified = []
        radical = rings.radical_by_quasiregularity

        def counting(ring):
            certified.append(ring)
            return radical(ring)

        monkeypatch.setattr(rings, "radical_by_quasiregularity", counting)
        ring = parse_spec("matrix:cyclic:2,2")
        decompose_report(ring, "matrix:cyclic:2,2", verify_uniqueness=True)
        verify_retract_matching(ring)
        corners = [c.ring for c in ring._corners.values()]
        assert certified
        assert len(set(map(id, certified))) == len(certified)
        assert all(any(r is c for c in corners) for r in certified)

    def test_tighter_bounds_still_refuse_the_cached_radical(self):
        ring = parse_spec("product:cyclic:4+cyclic:2")
        j = jacobson_radical(ring)
        assert jacobson_radical(ring) is j
        assert not is_local_ring(ring)
        assert not is_semisimple(ring) and is_semiperfect(ring)
        tight = Bounds(max_enum_n=ring.n - 1)
        for fn in (jacobson_radical, is_local_ring, is_semisimple, is_semiperfect,
                   radical_by_maximal_left_ideals):
            with pytest.raises(BoundExceeded):
                fn(ring, tight)
        assert jacobson_radical(ring, Bounds(max_enum_n=ring.n)) is j

    def test_units_and_idempotents_once_per_near_ring(self):
        nr = parse_spec("m0:cyclic:3")
        u = units(nr)
        assert units(nr) is u and idempotents(nr) is idempotents(nr)
        with pytest.raises(ValueError):
            nr.inverse[0] = 0

    def test_mutating_a_result_leaves_the_cache_intact(self):
        nr = parse_spec("product:cyclic:4+cyclic:2")
        first = enumerate_N_subloops(nr)
        want = list(first)
        first.clear()
        assert enumerate_N_subloops(nr) == want
        maximal = maximal_N_subloops(nr)
        want_max = list(maximal)
        maximal.pop()
        assert maximal_N_subloops(nr) == want_max

    def test_corner_built_once_per_idempotent(self):
        ring = parse_spec("matrix:cyclic:2,2")
        e = next(int(x) for x in range(ring.n)
                 if x not in (ring.zero, ring.one) and ring.mul[x, x] == x)
        assert corner_ring(ring, e) is corner_ring(ring, e)


def test_radical_timing_covers_semisimple_and_semiperfect(monkeypatch):
    original = reports.is_semiperfect

    def slow(ring, bounds):
        time.sleep(0.2)
        return original(ring, bounds)

    monkeypatch.setattr(reports, "is_semiperfect", slow)
    payload = reports.analysis_report(
        corpus.z(4), "cyclic:4", with_radical=True, with_timing=True
    )
    assert payload["timing"]["radical"] >= 0.2


@pytest.mark.parametrize("name, argv, last, line", [
    ("search_local_nonring", [],
     "outcome: no local loop near-ring that is not a ring was found in the searched corpus",
     "m0(loop 4.0): n=64, 47 sub-near-rings"),
    ("search_local_nonring", ["--include-nonassoc5"],
     "outcome: no local loop near-ring that is not a ring was found in the searched corpus",
     "m0(nonassoc5): n=625, 3 sub-near-rings"),
    # the corner sizes come from corner_ring(...).carrier
    ("corpus_sweep", ["--max-n", "64"], "swept 36 of 39 catalog entries",
     "ut2:cyclic:3                 ring  n=27    not-local  |U|=12    |E|=8    "
     "|J|=3    corners=(3, 3)"),
    ("conjugacy_vs_isomorphism", ["--max-n", "64"],
     "outcome: the two relations coincide on every ring swept",
     "matrix:cyclic:2,2            n=16   idempotents=7    iso_pairs=15   conj_pairs=15  "),
], ids=["search_local_nonring", "search_local_nonring_nonassoc5", "corpus_sweep",
        "conjugacy_vs_isomorphism"])
def test_search_script_runs_at_default_args(capsys, name, argv, last, line):
    assert _script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == last
    assert line in lines


@pytest.mark.parametrize("name, flag, value", [
    ("corpus_sweep", "--max-n", "1_0"),
    ("corpus_sweep", "--locality-cap", "+64"),
    ("conjugacy_vs_isomorphism", "--max-n", "\u0668"),
    ("search_local_nonring", "--max-loop-order", " 4"),
    ("search_local_nonring", "--max-subs-per-base", "2_000"),
])
def test_search_script_reads_integer_flags_as_the_cli_does(capsys, name, flag, value):
    # ASCII -?[0-9]+ only, as int_token reads the cap flags: int would
    # take each of these
    with pytest.raises(SystemExit) as exc:
        _script(name).main([flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bench_script_reads_each_child_peak_rss_and_exit_code(tmp_path):
    # a child that touches 64 MiB, then one that touches little: the second
    # reads its own peak, not the running maximum over the children so far.
    # The script runs in a fresh interpreter, since a child's peak also
    # covers the address space it was forked with.
    out = tmp_path / "stdout"
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench\n"
        "runs = [bench.run([sys.executable, '-c', code], {}, sys.argv[1]) for code in\n"
        "        ('b = bytearray(64 << 20); print(len(b))', 'raise SystemExit(3)')]\n"
        "print(json.dumps(runs))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(out)], capture_output=True,
                          text=True, timeout=60, check=True)
    big, small = json.loads(proc.stdout)
    assert big["exit_code"] == 0 and big["peak_rss_mib"] >= 64
    assert small["exit_code"] == 3 and small["peak_rss_mib"] < 64
    assert out.read_text() == ""

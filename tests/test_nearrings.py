import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopnr import (
    CATALOG,
    BoundExceeded,
    Bounds,
    ElementSubset,
    LoopNearRing,
    MulNotAssociative,
    NotIdempotent,
    NotIdentity,
    PreconditionFailed,
    RightDistributivityFails,
    TheoremViolation,
    ValidationError,
    annihilator,
    enumerate_N_subloops,
    idempotents,
    is_local_lnr,
    is_N_subloop,
    map_near_ring,
    maximal_N_subloops,
    opposite,
    parse_spec,
    random_loop,
    units,
    validate_lnr,
)

from loopnr import nearrings

import corpus


def cyclic_tables(n):
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return add, mul


def members(subsets):
    return {s.members for s in subsets}


class TestValidateLnr:
    def test_holds_only_its_tables(self):
        # no validator state rides along: the class name is the kind
        names = tuple(f.name for f in dataclasses.fields(LoopNearRing))
        assert names == ("n", "add", "mul", "one", "zero_symmetric")
        assert LoopNearRing.kind == "lnr"

    def test_accepts_cyclic(self):
        add, mul = cyclic_tables(6)
        nr = validate_lnr(add, mul, 1)
        assert nr.n == 6
        assert nr.zero_symmetric

    def test_accepts_trivial(self):
        nr = validate_lnr([[0]], [[0]], 0)
        assert nr.n == 1
        assert nr.one == nr.zero == 0

    def test_rejects_wrong_identity(self):
        add, mul = cyclic_tables(6)
        with pytest.raises(NotIdentity):
            validate_lnr(add, mul, 2)

    def test_rejects_identity_out_of_range(self):
        add, mul = cyclic_tables(4)
        with pytest.raises(ValidationError):
            validate_lnr(add, mul, 7)

    def test_rejects_mul_out_of_range(self):
        add, mul = cyclic_tables(3)
        mul[1][1] = 9
        with pytest.raises(ValidationError):
            validate_lnr(add, mul, 1)

    def test_rejects_broken_associativity(self):
        add, mul = cyclic_tables(5)
        mul[2][3] = 2  # was 1
        with pytest.raises((MulNotAssociative, NotIdentity)):
            validate_lnr(add, mul, 1)

    def test_rejects_left_only_distributivity(self):
        # reversing composition in a genuinely one-sided near-ring
        # swaps which distributive law holds
        with pytest.raises(RightDistributivityFails):
            opposite(corpus.m0("small:3,0"))

    def test_mul_size_mismatch(self):
        add, _ = cyclic_tables(4)
        _, mul = cyclic_tables(3)
        with pytest.raises(ValidationError):
            validate_lnr(add, mul, 1)


class TestUnitsAndIdempotents:
    def test_cyclic6(self):
        nr = corpus.z(6)
        u = units(nr)
        assert u.members == frozenset({1, 5})
        assert nr.inverse.tolist() == [-1, 1, -1, -1, -1, 5]
        assert idempotents(nr).members == frozenset({0, 1, 3, 4})

    def test_cyclic4(self):
        nr = corpus.z(4)
        assert units(nr).members == frozenset({1, 3})
        assert idempotents(nr).members == frozenset({0, 1})

    def test_zero_ring(self):
        nr = corpus.z(1)
        assert units(nr).members == frozenset({0})
        assert idempotents(nr).members == frozenset({0})

    def test_map_near_ring_over_z2(self):
        nr = corpus.m_full(2)
        assert nr.n == 4
        assert not nr.zero_symmetric
        assert units(nr).members == frozenset({1, 2})

    def test_zero_fixing_maps_over_z3(self):
        nr = corpus.m0("small:3,0")
        assert nr.n == 9
        assert nr.zero_symmetric
        assert units(nr).members == frozenset({5, 7})
        assert idempotents(nr).members == frozenset({0, 2, 3, 4, 5, 8})


INVERSE_CASES = [
    *(pytest.param(spec, id=spec) for spec, kind, n in CATALOG if kind != "loop" and n <= 81),
    *(pytest.param(ring, id=f"corpus-{name}") for name, ring in corpus.small_ring_corpus()),
]


@pytest.mark.parametrize("nr", INVERSE_CASES)
def test_inverse_against_brute_force(nr):
    nr = parse_spec(nr) if isinstance(nr, str) else nr
    mul, one, inverse = nr.mul.tolist(), nr.one, nr.inverse
    assert inverse.dtype == np.int64 and not inverse.flags.writeable
    for u in range(nr.n):
        # a two-sided inverse is unique, so a unit has exactly one
        two_sided = [v for v in range(nr.n) if mul[u][v] == one and mul[v][u] == one]
        assert two_sided == ([] if inverse[u] == -1 else [inverse[u]]), u
    assert units(nr) == ElementSubset.from_mask(inverse >= 0)
    # a finite monoid's one-sided inverses are two-sided: an inverse on
    # either side alone finds exactly the units
    right = {u for u in range(nr.n) if one in mul[u]}
    left = {u for u in range(nr.n) if any(mul[r][u] == one for r in range(nr.n))}
    assert right == left == units(nr).members


def test_inverse_certifies_the_other_side():
    # hand-built past validation: 2*0 = 1 but 0*2 = 0, so mul is no monoid
    add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    mul = np.array([[0, 0, 0], [0, 1, 2], [1, 2, 2]], dtype=np.int16)
    nr = LoopNearRing(n=3, add=np.array(add, dtype=np.int16), mul=mul, one=1,
                      zero_symmetric=False)
    with pytest.raises(TheoremViolation, match=r"^2\*0 = 1 but not"):
        nr.inverse


class TestNSubloops:
    def test_is_n_subloop_cyclic6(self):
        nr = corpus.z(6)
        assert is_N_subloop(nr, {0, 3})
        assert is_N_subloop(nr, {0, 2, 4})
        assert not is_N_subloop(nr, {0, 1})
        assert not is_N_subloop(nr, {1, 5})

    def test_enumerate_cyclic6(self):
        nr = corpus.z(6)
        assert members(enumerate_N_subloops(nr)) == {
            frozenset({0}),
            frozenset({0, 3}),
            frozenset({0, 2, 4}),
            frozenset(range(6)),
        }

    def test_maximal_cyclic6(self):
        got = members(maximal_N_subloops(corpus.z(6)))
        assert got == {frozenset({0, 3}), frozenset({0, 2, 4})}

    def test_maximal_cyclic4(self):
        got = members(maximal_N_subloops(corpus.z(4)))
        assert got == {frozenset({0, 2})}

    def test_maximal_of_zero_ring_is_empty(self):
        assert maximal_N_subloops(corpus.z(1)) == []

    def test_zero_fixing_maps_over_z3_has_three_maximal(self):
        nr = corpus.m0("small:3,0")
        assert len(maximal_N_subloops(nr)) == 3

    def test_enumeration_bound(self):
        from dataclasses import replace

        from loopnr import DEFAULT_BOUNDS

        tight = replace(DEFAULT_BOUNDS, max_enum_n=10)
        with pytest.raises(BoundExceeded):
            enumerate_N_subloops(corpus.z(25), tight)

    def test_members_pass_the_element_gate(self):
        # 4.0 is not read as 4, -1 not as 7
        nr = corpus.z(8)
        for subset in ([0, 4.0], [0, -1]):
            with pytest.raises(ValueError):
                is_N_subloop(nr, subset)


class TestAnnihilator:
    def test_cyclic6(self):
        nr = corpus.z(6)
        assert annihilator(nr, 3).members == frozenset({0, 2, 4})
        assert annihilator(nr, 4).members == frozenset({0, 3})
        assert annihilator(nr, 1).members == frozenset({0})
        assert annihilator(nr, 0).members == frozenset(range(6))

    @pytest.mark.parametrize("e, error, message", [
        (2, NotIdempotent, "2 is not idempotent"),
        (6, ValueError, "6 outside the carrier"),
        (-1, ValueError, "-1 outside the carrier"),
    ], ids=["square_differs", "past_the_end", "negative"])
    def test_rejects_non_idempotent(self, e, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            annihilator(corpus.z(6), e)

    def test_complement_sizes_multiply(self):
        # |Ann(e)| * |N*e| = |N| in the additive decomposition
        for name in ("small:3,0", "small:4,0"):
            nr = corpus.m0(name)
            for e in idempotents(nr):
                ann = annihilator(nr, e)
                ne = {int(x) for x in nr.mul[:, e]}
                assert len(ann.members) * len(ne) == nr.n


class TestLocality:
    def test_cyclic4_is_local(self):
        r = corpus.z(4)
        assert is_local_lnr(r) is True
        # the one coatom is the non-unit set
        assert [m.members for m in maximal_N_subloops(r)] == [frozenset({0, 2})]
        assert frozenset(range(4)) - units(r).members == frozenset({0, 2})

    def test_cyclic6_is_not_local(self):
        r = corpus.z(6)
        assert is_local_lnr(r) is False
        assert len(maximal_N_subloops(r)) == 2
        assert not is_N_subloop(r, frozenset(range(6)) - units(r).members)

    def test_prime_power_cyclics_are_local(self):
        for n in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            assert is_local_lnr(corpus.z(n)), n

    def test_galois_fields_are_local(self):
        for q in (4, 8, 9):
            r = corpus.gf(q)
            assert is_local_lnr(r)
            assert [m.members for m in maximal_N_subloops(r)] == [frozenset({0})]

    def test_zero_ring_is_not_local(self):
        # no maximal proper N-subloop exists at all
        assert is_local_lnr(corpus.z(1)) is False

    def test_requires_zero_symmetric(self):
        with pytest.raises(PreconditionFailed):
            is_local_lnr(corpus.m_full(2))

    def test_zero_fixing_maps_over_z3_is_not_local(self):
        assert is_local_lnr(corpus.m0("small:3,0")) is False

    @pytest.mark.parametrize("spec", ["cyclic:12", "cyclic:9", "m0:cyclic:3"])
    def test_routes_run_once_per_near_ring(self, spec, monkeypatch):
        real, calls = nearrings.is_N_subloop, []
        monkeypatch.setattr(nearrings, "is_N_subloop",
                            lambda nr, subset: calls.append(nr) or real(nr, subset))
        nr = parse_spec(spec)
        first = is_local_lnr(nr)
        assert is_local_lnr(nr) is first
        assert calls == [nr]

    def test_routes_that_disagree_are_a_theorem_violation(self, monkeypatch):
        monkeypatch.setattr(nearrings, "is_N_subloop", lambda nr, subset: True)
        with pytest.raises(TheoremViolation, match="^locality characterizations disagree: "
                           "maximal route says False, unit route says True$"):
            is_local_lnr(parse_spec("cyclic:6"))

    @pytest.mark.parametrize("spec", ["cyclic:12", "cyclic:9", "m0:cyclic:3"])
    def test_bound_is_checked_on_every_call(self, spec):
        tight = Bounds(max_enum_n=parse_spec(spec).n - 1)
        cached = parse_spec(spec)
        is_local_lnr(cached)
        with pytest.raises(BoundExceeded, match=r"\(max_enum_n\)$"):
            is_local_lnr(cached, tight)
        # a fresh near-ring is refused before its units are read
        fresh = parse_spec(spec)
        with pytest.raises(BoundExceeded, match=r"\(max_enum_n\)$"):
            is_local_lnr(fresh, tight)
        assert not {"inverse", "_units", "_local"} & fresh.__dict__.keys()


class TestMapNearRingProperties:
    @given(st.integers(2, 4), st.integers(0, 500))
    def test_zero_fixing_construction_validates(self, n, seed):
        loop = random_loop(n, seed)
        nr = map_near_ring(loop, zero_fixing=True)
        assert nr.n == n ** (n - 1)
        assert nr.zero_symmetric

    @given(st.integers(2, 3), st.integers(0, 500))
    def test_full_construction_validates(self, n, seed):
        loop = random_loop(n, seed)
        nr = map_near_ring(loop, zero_fixing=False)
        assert nr.n == n ** n
        assert nr.zero_symmetric == (n == 1)

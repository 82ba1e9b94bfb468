import numpy as np
import pytest

from loopnr import (
    CATALOG,
    AdditionNotAbelianGroup,
    ElementSubset,
    HypothesisFailed,
    LeftDistributivityFails,
    NotAnIdeal,
    NotApproximatelyIdempotent,
    NotIdempotent,
    corner_ring,
    coset_idempotents,
    idempotents,
    idempotents_conjugate,
    idempotents_isomorphic,
    is_division_ring,
    is_local_ring,
    is_semiperfect,
    is_semisimple,
    jacobson_radical,
    left_ideals,
    lift_idempotent,
    parse_spec,
    quotient_ring,
    radical_by_maximal_left_ideals,
    radical_by_quasiregularity,
    units,
    validate_ideal,
    validate_lnr_hom,
    validate_ring,
)

import corpus


class TestValidateRing:
    def test_accepts_cyclic(self):
        ring = validate_ring(corpus.z(6))
        assert ring.zero_symmetric

    def test_rejects_one_sided_distributivity(self):
        with pytest.raises(LeftDistributivityFails):
            validate_ring(corpus.m0("small:3,0"))

    def test_rejects_full_map_near_ring(self):
        with pytest.raises((LeftDistributivityFails, AdditionNotAbelianGroup)):
            validate_ring(corpus.m_full(2))

    def test_rejects_nonassociative_addition(self):
        with pytest.raises(AdditionNotAbelianGroup):
            validate_ring(corpus.m0("nonassoc5"))

    def test_negation_table(self):
        ring = corpus.z(6)
        idx = np.arange(6)
        assert (ring.add[idx, ring.neg[idx]] == 0).all()
        assert ring.sub(5, 3) == 2


class TestIdeals:
    def test_accepts(self):
        assert len(validate_ideal(corpus.z(4), {0, 2})) == 2
        assert len(validate_ideal(corpus.z(6), {0, 3})) == 2
        assert len(validate_ideal(corpus.z(6), {0, 2, 4})) == 3

    def test_rejects_additively_open(self):
        with pytest.raises(NotAnIdeal):
            validate_ideal(corpus.z(6), {0, 2})

    def test_rejects_missing_zero(self):
        with pytest.raises(NotAnIdeal):
            validate_ideal(corpus.z(6), {3})

    def test_members_pass_the_element_gate(self):
        # 4.0 is not read as 4
        with pytest.raises(ValueError, match="^4.0 is not an integer$"):
            validate_ideal(corpus.z(8), [0, 4.0, 2, 6])

    def test_rejects_left_only_ideal(self):
        # a column space of a matrix ring absorbs only one side
        with pytest.raises(NotAnIdeal):
            validate_ideal(corpus.m2(2), {0, 2, 8, 10})

    @pytest.mark.parametrize("spec", ["cyclic:6", "ut2:cyclic:2", "product:cyclic:4+cyclic:2"])
    def test_every_accepted_subset_is_closed_under_negation(self, spec):
        # validate_ideal checks no negation: 0 and closure under + imply it
        ring = parse_spec(spec)
        accepted = 0
        for bits in range(1 << ring.n):
            subset = [x for x in range(ring.n) if bits >> x & 1]
            try:
                validate_ideal(ring, subset)
            except NotAnIdeal:
                continue
            accepted += 1
            assert set(ring.neg[subset].tolist()) <= set(subset)
        assert accepted >= 2

    def test_left_ideal_counts(self):
        assert len(left_ideals(corpus.m2(2))) == 5
        assert len(left_ideals(corpus.m2(4))) == 15


class TestRadical:
    def test_both_routes_agree_on_known_values(self):
        for ring, want in (
            (corpus.z(4), {0, 2}),
            (corpus.z(6), {0}),
            (corpus.z(12), {0, 6}),
            (corpus.m2(2), {0}),
            (corpus.ut2(2), {0, 2}),
            (corpus.ut2(3), {0, 3, 6}),
        ):
            a = radical_by_quasiregularity(ring)
            b = radical_by_maximal_left_ideals(ring)
            assert a.members == b.members == frozenset(want)
            assert jacobson_radical(ring).members == frozenset(want)

    def test_matrix_ring_over_z4(self):
        j = jacobson_radical(corpus.m2(4))
        assert len(j) == 16
        # exactly the matrices with every entry in {0, 2}
        digits = lambda x: [(x // 4 ** k) % 4 for k in range(4)]
        assert all(all(d % 2 == 0 for d in digits(x)) for x in j)

    def test_radical_of_zero_ring_is_everything(self):
        assert len(jacobson_radical(corpus.z(1))) == 1


# every ideal this file names, on its ring
LISTED_IDEALS = [
    ("cyclic:4", corpus.z(4), {0, 2}),
    ("cyclic:6", corpus.z(6), {0}),
    ("cyclic:6", corpus.z(6), {0, 3}),
    ("cyclic:6", corpus.z(6), {0, 2, 4}),
    ("cyclic:12", corpus.z(12), {0, 6}),
    ("m2(z2)", corpus.m2(2), {0}),
    ("ut2(z2)", corpus.ut2(2), {0, 2}),
    ("ut2(z3)", corpus.ut2(3), {0, 3, 6}),
]


def assert_projection(q, ring, ideal):
    """The projection, built without a scan, passes the full scan of + and
    * onto all of A / I, with kernel I."""
    validate_lnr_hom(q.map, q.source, q.target)
    assert q.source is ring and not q.map.flags.writeable
    assert q.image.members == frozenset(range(q.target.n))
    assert q.kernel.members == ElementSubset.of(ring.n, ideal).members


class TestQuotient:
    def test_z4_mod_radical(self):
        q = quotient_ring(corpus.z(4), {0, 2})
        assert q.target.n == 2
        assert q.map.tolist() == [0, 1, 0, 1]

    def test_z12_mod_radical(self):
        q = quotient_ring(corpus.z(12), jacobson_radical(corpus.z(12)))
        assert q.target.n == 6
        assert is_semisimple(q.target)

    def test_matrix_quotient_is_semisimple(self):
        ring = corpus.m2(4)
        q = quotient_ring(ring, jacobson_radical(ring))
        assert q.target.n == 16
        assert is_semisimple(q.target)

    @pytest.mark.parametrize("name, ring, ideal", LISTED_IDEALS,
                             ids=[f"{name} {sorted(i)}" for name, _, i in LISTED_IDEALS])
    def test_projection_is_a_homomorphism(self, name, ring, ideal):
        assert_projection(quotient_ring(ring, ideal), ring, ideal)

    @pytest.mark.parametrize("spec", [spec for spec, kind, _ in CATALOG if kind == "ring"])
    def test_projection_onto_a_mod_j_is_a_homomorphism(self, spec):
        ring = parse_spec(spec)
        assert_projection(ring._quotient, ring, jacobson_radical(ring))

    def test_projection_is_a_valid_hom(self):
        ring = corpus.z(4)
        q = quotient_ring(ring, {0, 2})
        f = validate_lnr_hom(q.map, ring, q.target)
        assert f.unit_reflecting and q.unit_reflecting

    def test_projection_may_not_reflect_units(self):
        ring = corpus.z(6)
        q = quotient_ring(ring, {0, 3})
        f = validate_lnr_hom(q.map, ring, q.target)
        assert not f.unit_reflecting and not q.unit_reflecting

    def test_the_certified_radical_is_validated_once(self, monkeypatch):
        from loopnr import rings

        validated = []
        validate = rings.validate_ideal
        monkeypatch.setattr(rings, "validate_ideal",
                            lambda ring, subset: validated.append(ring) or validate(ring, subset))
        ring = parse_spec("ut2:cyclic:3")
        assert len(jacobson_radical(ring)) == 3
        assert is_semiperfect(ring)
        # A/J is built from the radical as certified, not certified again
        assert [r for r in validated if r is ring] == [ring]

    def test_quotient_ring_validates_a_hand_built_ideal(self):
        ring = corpus.z(6)
        with pytest.raises(NotAnIdeal):
            quotient_ring(ring, ElementSubset.of(6, {0, 2}))


SMALL_CATALOG_RINGS = [spec for spec, kind, n in CATALOG if kind == "ring" and n <= 64]


@pytest.mark.parametrize("spec", SMALL_CATALOG_RINGS)
class TestInducedLabelling:
    """Quotients and corners against their definitions, element by element."""

    def test_quotient_by_radical(self, spec):
        ring = parse_spec(spec)
        j = jacobson_radical(ring)
        q = quotient_ring(ring, j)
        proj = q.map
        for x in range(ring.n):
            for y in range(ring.n):
                assert (proj[x] == proj[y]) == (int(ring.sub(x, y)) in j)
        # cosets are indexed by ascending least element
        leaders = [min(x for x in range(ring.n) if proj[x] == i) for i in range(q.target.n)]
        assert leaders == sorted(leaders)
        for i, a in enumerate(leaders):
            for k, b in enumerate(leaders):
                assert q.target.add[i, k] == proj[ring.add[a, b]]
                assert q.target.mul[i, k] == proj[ring.mul[a, b]]
        assert q.target.one == proj[ring.one]

    def test_corner_at_each_idempotent(self, spec):
        ring = parse_spec(spec)
        for e in idempotents(ring):
            corner = corner_ring(ring, e)
            want = sorted({int(ring.mul[ring.mul[e, a], e]) for a in range(ring.n)})
            assert list(corner.carrier) == want
            assert corner.ring.one == want.index(e)
            for i, a in enumerate(want):
                for k, b in enumerate(want):
                    assert want[corner.ring.add[i, k]] == ring.add[a, b]
                    assert want[corner.ring.mul[i, k]] == ring.mul[a, b]


class TestRingPredicates:
    def test_division_rings(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert is_division_ring(corpus.gf(q))
        assert not is_division_ring(corpus.z(4))
        assert not is_division_ring(corpus.z(6))
        assert not is_division_ring(corpus.z(1))
        assert not is_division_ring(corpus.m2(2))

    def test_local_rings(self):
        for n in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            assert is_local_ring(corpus.z(n))
        for q in (4, 8, 9):
            assert is_local_ring(corpus.gf(q))
        for ring in (
            corpus.z(6),
            corpus.z(12),
            corpus.z(1),
            corpus.m2(2),
            corpus.ut2(2),
            corpus.zz(2, 2),
            corpus.zz(4, 2),
        ):
            assert not is_local_ring(ring)

    def test_semisimple(self):
        for ring in (corpus.z(6), corpus.m2(2), corpus.m2(3), corpus.gf(4), corpus.zz(2, 3)):
            assert is_semisimple(ring)
        for ring in (corpus.z(4), corpus.z(12), corpus.ut2(2), corpus.zz(4, 2)):
            assert not is_semisimple(ring)

    def test_semiperfect_everywhere(self):
        for _, ring in corpus.ring_corpus():
            if ring.n <= 81:
                assert is_semiperfect(ring)


class TestIdempotentLifting:
    def test_lift_in_z4(self):
        ring = corpus.z(4)
        j = jacobson_radical(ring)
        assert coset_idempotents(ring, j, 3) == (1,)
        assert lift_idempotent(ring, j, 3) == 1
        assert lift_idempotent(ring, j, 2) == 0
        assert lift_idempotent(ring, j, 1) == 1

    def test_coset_with_two_idempotents(self):
        ring = corpus.ut2(2)
        j = jacobson_radical(ring)
        assert coset_idempotents(ring, j, 6) == (4, 6)
        assert lift_idempotent(ring, j, 6) == 6

    def test_rejects_far_from_idempotent(self):
        ring = corpus.z(6)
        j = jacobson_radical(ring)
        with pytest.raises(NotApproximatelyIdempotent):
            lift_idempotent(ring, j, 2)

    @pytest.mark.parametrize("x", [-1, 8, 1.0, True, np.float64(3)])
    def test_element_passes_the_gate(self, x):
        # -1 is not read as 7, nor 1.0 and True as 1
        ring = corpus.z(8)
        j = jacobson_radical(ring)
        for find in (lift_idempotent, coset_idempotents):
            with pytest.raises(ValueError):
                find(ring, j, x)

    @pytest.mark.parametrize("ideal", [[0, 2], {0, 2}, ElementSubset.of(4, {0, 2})],
                             ids=["list", "set", "subset"])
    @pytest.mark.parametrize("find, want", [(lift_idempotent, 1), (coset_idempotents, (1,))],
                             ids=["lift", "coset"])
    def test_the_ideal_passes_validate_ideal(self, ideal, find, want):
        assert find(corpus.z(4), ideal, 3) == want

    @pytest.mark.parametrize("ideal", [[0, 1], {0, 1}, ElementSubset.of(6, {0, 1})],
                             ids=["list", "set", "subset"])
    @pytest.mark.parametrize("find", [lift_idempotent, coset_idempotents], ids=["lift", "coset"])
    def test_a_subset_that_is_not_an_ideal_is_refused(self, ideal, find):
        with pytest.raises(NotAnIdeal):
            find(parse_spec("cyclic:6"), ideal, 1)

    @pytest.mark.parametrize("ideal, x, witness", [
        ([0, 2, 4], 2, 2),
        (range(6), 2, 1),
        ([0, 3], 1, 3),
    ], ids=["even", "whole_ring", "idempotent_generated"])
    def test_lifting_needs_a_nil_ideal(self, ideal, x, witness):
        # each ideal has a member no power of which is 0, so it lies
        # outside J = {0}; the coset 1 + {0, 3} holds two idempotents, 1 and 4
        ring = parse_spec("cyclic:6")
        with pytest.raises(HypothesisFailed, match="^idempotent lifting needs a nil ideal$") as info:
            lift_idempotent(ring, ideal, x)
        assert info.value.witness == witness

    def test_all_approximate_idempotents_lift(self):
        for ring in (corpus.z(8), corpus.z(12), corpus.ut2(2), corpus.m2(2)):
            j = jacobson_radical(ring)
            jm = j.members
            for x in range(ring.n):
                defect = ring.sub(ring.mul[x, x], x)
                if int(defect) in jm:
                    e = lift_idempotent(ring, j, x)
                    assert int(ring.mul[e, e]) == e
                    assert int(ring.sub(e, x)) in jm


class TestIdempotentRelations:
    def test_matrix_units_are_isomorphic_and_conjugate(self):
        ring = corpus.m2(2)
        e11, e22 = 8, 1
        assert idempotents_isomorphic(ring, e11, e22)
        assert idempotents_conjugate(ring, e11, e22)

    def test_zero_and_one_are_not_isomorphic_to_proper(self):
        ring = corpus.m2(2)
        assert not idempotents_isomorphic(ring, 8, 0)
        assert not idempotents_isomorphic(ring, 9, 8)
        assert idempotents_isomorphic(ring, 0, 0)

    def test_commutative_orthogonal_pair_is_not_isomorphic(self):
        ring = corpus.z(6)
        assert not idempotents_isomorphic(ring, 3, 4)
        assert not idempotents_conjugate(ring, 3, 4)
        assert idempotents_conjugate(ring, 3, 3)

    def test_conjugate_implies_isomorphic(self):
        for ring in (corpus.z(6), corpus.z(12), corpus.m2(2), corpus.ut2(2), corpus.zz(4, 2)):
            idem = sorted(idempotents(ring))
            for e in idem:
                for f in idem:
                    if idempotents_conjugate(ring, e, f):
                        assert idempotents_isomorphic(ring, e, f)

    @pytest.mark.parametrize("relation", [idempotents_isomorphic, idempotents_conjugate])
    @pytest.mark.parametrize("e, error, message", [
        (2, NotIdempotent, "2 is not idempotent"),
        (6, ValueError, "6 outside the carrier"),
        (-1, ValueError, "-1 outside the carrier"),
    ], ids=["square_differs", "past_the_end", "negative"])
    @pytest.mark.parametrize("first", [True, False], ids=["e_first", "e_second"])
    def test_rejects_non_idempotent(self, relation, e, error, message, first):
        args = (e, 3) if first else (3, e)
        with pytest.raises(error, match=f"^{message}$"):
            relation(corpus.z(6), *args)

    def test_conjugacy_matches_the_loop_over_units(self):
        for ring in (corpus.z(12), corpus.m2(2), corpus.ut2(2), corpus.zz(4, 2)):
            u, mul = units(ring), ring.mul
            idem = sorted(idempotents(ring))
            for e in idem:
                orbit = {int(mul[mul[ring.inverse[v], e], v]) for v in u}
                assert [idempotents_conjugate(ring, e, f) for f in idem] == [f in orbit for f in idem]

    def test_units_act_by_conjugation(self):
        ring = corpus.m2(2)
        u = units(ring)
        for e in idempotents(ring):
            for x in u:
                y = int(ring.mul[ring.mul[ring.inverse[x], e], x])
                assert idempotents_conjugate(ring, e, y)

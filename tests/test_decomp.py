import hashlib
from dataclasses import replace
from itertools import product

import pytest

from loopnr import (
    DEFAULT_BOUNDS,
    BoundExceeded,
    ElementSubset,
    HypothesisFailed,
    LimitReached,
    NotIdempotent,
    PreconditionFailed,
    TheoremViolation,
    ZeroIdempotent,
    annihilator,
    corner_ring,
    corner_signature,
    decompose_regular,
    decompose_report,
    enumerate_complete_primitive_families,
    idempotents_isomorphic,
    is_local_ring,
    is_primitive,
    is_strongly_indecomposable_corner,
    parse_spec,
    validate_idempotent_family,
    validate_ring_tables,
    verify_ks_uniqueness,
    verify_retract_matching,
)
from loopnr import decomp, tables
from loopnr import io as loopnr_io

import corpus


@pytest.mark.parametrize("check", [
    annihilator,
    corner_ring,
    is_primitive,
    is_strongly_indecomposable_corner,
    lambda ring, e: idempotents_isomorphic(ring, e, 3),
    lambda ring, e: idempotents_isomorphic(ring, 3, e),
], ids=["annihilator", "corner_ring", "is_primitive", "strongly_indecomposable",
        "isomorphic_e_first", "isomorphic_e_second"])
@pytest.mark.parametrize("e", [3.9, 4.5, True, "3", 0.0, False],
                         ids=["3.9", "4.5", "True", "str_3", "0.0", "False"])
def test_non_integer_idempotent_is_refused(check, e):
    # int(e) would read each of these as an idempotent of Z6; the gate
    # runs before the zero test, so 0.0 and False are not read as 0
    with pytest.raises(ValueError, match=f"^{e!r} is not an integer$"):
        check(corpus.z(6), e)


class TestValidateFamily:
    def test_accepts_orthogonal_sum(self):
        fam = validate_idempotent_family(corpus.z(6), (4, 3))
        assert fam == (3, 4)

    def test_empty_family_only_on_zero_ring(self):
        assert validate_idempotent_family(corpus.z(1), ()) == ()
        with pytest.raises(PreconditionFailed):
            validate_idempotent_family(corpus.z(4), ())

    def test_rejects_zero_member(self):
        with pytest.raises(ZeroIdempotent):
            validate_idempotent_family(corpus.z(6), (0, 3, 4))

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotent):
            validate_idempotent_family(corpus.z(6), (2, 3))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(PreconditionFailed, match="orthogonal"):
            validate_idempotent_family(corpus.z(6), (1, 3))

    def test_rejects_wrong_sum(self):
        with pytest.raises(PreconditionFailed, match="sums to"):
            validate_idempotent_family(corpus.z(6), (3,))

    @pytest.mark.parametrize("members, message", [
        ((3.9, 4.2), "^3.9 is not an integer$"),
        ((3.0, 4.0), "^3.0 is not an integer$"),
        (("3", "4"), "^'3' is not an integer$"),
        ((True,), "^True is not an integer$"),
        ((3, 4, 6), "^6 outside the carrier$"),
        ((3, 4, -1), "^-1 outside the carrier$"),
    ])
    def test_members_pass_the_element_gate(self, members, message):
        with pytest.raises(ValueError, match=message):
            validate_idempotent_family(corpus.z(6), members)

    def test_rejects_repeated_member(self):
        with pytest.raises((PreconditionFailed, ZeroIdempotent)):
            validate_idempotent_family(corpus.z(6), (3, 3))


class TestCorners:
    def test_corner_at_one_is_whole_ring(self):
        ring = corpus.z(6)
        c = corner_ring(ring, 1)
        assert c.carrier == tuple(range(6))
        assert c.ring.n == 6

    def test_corner_at_zero_is_zero_ring(self):
        c = corner_ring(corpus.z(6), 0)
        assert c.ring.n == 1

    def test_corner_carriers_in_z6(self):
        assert corner_ring(corpus.z(6), 3).carrier == (0, 3)
        assert corner_ring(corpus.z(6), 4).carrier == (0, 2, 4)

    def test_matrix_unit_corner(self):
        c = corner_ring(corpus.m2(2), 8)
        assert c.ring.n == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotent):
            corner_ring(corpus.z(6), 2)

    def test_local_corners_in_z6(self):
        assert is_local_ring(corner_ring(corpus.z(6), 3).ring)
        assert is_local_ring(corner_ring(corpus.z(6), 4).ring)


class TestPrimitivity:
    def test_one_in_local_ring_is_primitive(self):
        assert is_primitive(corpus.z(4), 1)

    def test_one_in_z6_is_not_primitive(self):
        assert not is_primitive(corpus.z(6), 1)

    def test_rejects_zero(self):
        with pytest.raises(ZeroIdempotent):
            is_primitive(corpus.z(6), 0)

    @pytest.mark.parametrize("e, error", [(2, NotIdempotent), (6, ValueError), (-1, ValueError),
                                          (3.0, ValueError), (True, ValueError)])
    def test_rejects_non_idempotent_and_outside(self, e, error):
        with pytest.raises(error):
            is_primitive(corpus.z(6), e)
        # the decomposition reads kept corners past the element gate; the
        # public entry points keep it, also with the corner at 3 (== 3.0) kept
        ring = parse_spec("cyclic:6")
        assert is_primitive(ring, 3) and set(ring._corners) == {3}
        for public in (corner_ring, is_primitive):
            with pytest.raises(error):
                public(ring, e)

    def test_matches_brute_corner_idempotents_on_corpus(self):
        # brute oracle: e is primitive when e*A*e, built from the parent's
        # table by plain loops, has exactly the idempotents 0 and e
        from loopnr import idempotents

        for name, ring in corpus.small_ring_corpus():
            mul = ring.mul.tolist()
            for e in idempotents(ring):
                if e == ring.zero:
                    continue
                corner = {mul[mul[e][a]][e] for a in range(ring.n)}
                brute = sum(mul[x][x] == x for x in corner) == 2
                assert is_primitive(ring, e) == brute, (name, e)

    def test_non_primitive_builds_no_corner(self):
        ring = parse_spec("cyclic:6")
        assert not is_primitive(ring, 1)
        assert ring._corners == {}
        assert is_primitive(ring, 3) and set(ring._corners) == {3}

    def test_corner_route_disagreeing_is_a_theorem_violation(self, monkeypatch):
        from loopnr import decomp

        ring = parse_spec("cyclic:4")
        # the corner at 1 (the ring itself) claims a third idempotent where
        # _corner_confirms counts them; the parent's splitter pass finds none
        monkeypatch.setattr(decomp, "idempotents", lambda nr: ElementSubset.of(nr.n, (0, 1, 2)))
        with pytest.raises(TheoremViolation, match="parent.*corner") as exc:
            is_primitive(ring, 1)
        assert "primitivity of 1" in str(exc.value)

    @pytest.mark.parametrize("spec, primitives", [
        ("product:" + "+".join(["cyclic:2"] * 7), 7),
        ("product:matrix:cyclic:2,2+matrix:cyclic:2,2", 12),
    ])
    def test_decompose_builds_corners_of_primitives_only(self, spec, primitives):
        ring = parse_spec(spec)
        decompose_report(ring, spec, verify_uniqueness=True)
        assert len(ring._corners) == primitives
        assert all(is_primitive(ring, e) for e in ring._corners)

    def test_matches_strong_indecomposability_on_corpus(self):
        # for finite rings the two notions coincide; both routes are
        # computed independently so the sweep cross-validates them
        from loopnr import idempotents

        for name, ring in corpus.small_ring_corpus():
            for e in idempotents(ring):
                if e == ring.zero:
                    continue
                assert is_primitive(ring, e) == is_strongly_indecomposable_corner(
                    ring, e
                ), (name, e)


class TestIdempotentRelations:
    """The splitter pass, the orthogonality table and the isomorphism
    test, each equal to plain loops over the parent's tables, in one
    block and in blocks of one row."""

    @staticmethod
    def fresh_rings():
        # a new ring object per corpus entry, so that no answer is memoized
        for name, ring in corpus.small_ring_corpus():
            yield name, validate_ring_tables(ring.add, ring.mul, ring.one), ring.mul.tolist()

    @pytest.mark.parametrize("block", [tables._BLOCK_ELEMS, 1])
    def test_least_splitter_of_every_idempotent_is_brute(self, block, monkeypatch):
        monkeypatch.setattr(tables, "_BLOCK_ELEMS", block)
        for name, ring, mul in self.fresh_rings():
            idem = [x for x in range(ring.n) if mul[x][x] == x]
            nonzero = [e for e in idem if e != ring.zero]
            brute = [next((g for g in idem if g not in (ring.zero, e)
                           and mul[e][g] == g and mul[g][e] == g), None) for e in nonzero]
            assert decomp._splitters(ring, nonzero) == brute, name
            # asked again, one at a time, from the answers kept on the ring
            assert [decomp._splitters(ring, [e])[0] for e in nonzero] == brute, name

    def test_orthogonality_table_of_the_primitives_is_brute(self):
        for name, ring, mul in self.fresh_rings():
            prim = decomp._primitives(ring)
            brute = [[mul[p][q] == ring.zero and mul[q][p] == ring.zero for q in prim]
                     for p in prim]
            assert decomp._orthogonality(ring, prim).tolist() == brute, name

    @pytest.mark.parametrize("block", [tables._BLOCK_ELEMS, 1])
    def test_isomorphism_of_every_pair_is_brute(self, block, monkeypatch):
        monkeypatch.setattr(tables, "_BLOCK_ELEMS", block)
        for name, ring, mul in self.fresh_rings():
            idem = [x for x in range(ring.n) if mul[x][x] == x]
            for e, f in product(idem, idem):
                eaf = {mul[mul[e][x]][f] for x in range(ring.n)}
                fae = {mul[mul[f][x]][e] for x in range(ring.n)}
                brute = any(mul[a][b] == e and mul[b][a] == f for a in eaf for b in fae)
                assert idempotents_isomorphic(ring, e, f) == brute, (name, e, f)

    def test_one_decompose_report_splits_the_ring_once(self, monkeypatch):
        split = decomp._split
        calls = []
        monkeypatch.setattr(decomp, "_split", lambda ring: calls.append(ring) or split(ring))
        spec = "product:matrix:cyclic:2,2+matrix:cyclic:2,2"
        ring = parse_spec(spec)
        report = decompose_report(ring, spec, verify_uniqueness=True)
        assert calls == [ring]
        assert report["uniqueness"]["family_count"] == 9
        assert decompose_regular(ring) is decompose_regular(ring)
        e = report["family"][0]
        assert corner_signature(ring, e) is corner_signature(ring, e)


class TestDecomposeRegular:
    def test_local_ring_is_its_own_summand(self):
        assert decompose_regular(corpus.z(4)) == (1,)

    def test_z6_splits_in_two(self):
        assert decompose_regular(corpus.z(6)) == (3, 4)

    def test_matrix_ring_splits_in_two(self):
        assert decompose_regular(corpus.m2(2)) == (1, 8)

    def test_product_splits_in_two(self):
        assert decompose_regular(corpus.zz(4, 2)) == (1, 2)

    def test_upper_triangular_splits_in_two(self):
        assert decompose_regular(corpus.ut2(2)) == (1, 4)

    def test_zero_ring_has_empty_family(self):
        assert decompose_regular(corpus.z(1)) == ()

    def test_members_multiply_to_themselves(self):
        for name, ring in corpus.small_ring_corpus():
            fam = decompose_regular(ring)
            for e in fam:
                assert is_primitive(ring, e), (name, e)


class TestEnumerateFamilies:
    def test_z4(self):
        assert enumerate_complete_primitive_families(corpus.z(4)) == [(1,)]

    def test_z6(self):
        assert enumerate_complete_primitive_families(corpus.z(6)) == [(3, 4)]

    def test_m2z2_has_three(self):
        fams = enumerate_complete_primitive_families(corpus.m2(2))
        assert fams == [(1, 8), (3, 10), (5, 12)]

    def test_limit_reached_carries_partial(self):
        cap = replace(DEFAULT_BOUNDS, max_families=2)
        with pytest.raises(LimitReached, match=r"^more than 2 complete families \(max_families\)$") as exc:
            enumerate_complete_primitive_families(corpus.m2(2), bounds=cap)
        partial = exc.value.partial
        assert list(partial) == [(1, 8), (3, 10)]

    def test_bound_on_ring_order(self):
        # the next size up from the cap is refused, naming max_enum_n
        with pytest.raises(BoundExceeded, match=r"has 81 elements, cap is 80 \(max_enum_n\)"):
            enumerate_complete_primitive_families(
                corpus.m2(3), bounds=replace(DEFAULT_BOUNDS, max_enum_n=80))

    def test_default_bounds_admit_m2z3(self):
        fams = enumerate_complete_primitive_families(corpus.m2(3))
        assert len(fams) == 6
        assert all(len(f) == 2 for f in fams)


class TestCornerSignature:
    def test_invariant_components_equal_for_isomorphic(self):
        ring = corpus.ut2(2)
        assert corner_signature(ring, 1)[:3] == corner_signature(ring, 3)[:3]
        assert corner_signature(ring, 4)[:3] == corner_signature(ring, 6)[:3]

    def test_separates_different_corners(self):
        ring = corpus.zz(4, 2)
        assert corner_signature(ring, 1)[:3] != corner_signature(ring, 2)[:3]

    def test_shape(self):
        sig = corner_signature(corpus.z(6), 3)
        assert sig[0] == 2 and len(sig) == 4
        assert isinstance(sig[3], str) and len(sig[3]) == 16
        assert sig[:3] == corner_ring(corpus.z(6), 3).invariants

    @pytest.mark.parametrize("block", [loopnr_io._BLOCK_CELLS, 1])
    def test_digest_is_the_hash_of_the_sorted_rows(self, block, monkeypatch):
        # every corner of the corpus, the 1-element corner at 0 included,
        # on a fresh ring so that no signature is memoized
        monkeypatch.setattr(loopnr_io, "_BLOCK_CELLS", block)
        for name, ring in corpus.small_ring_corpus():
            ring = validate_ring_tables(ring.add, ring.mul, ring.one)
            for e in range(ring.n):
                if int(ring.mul[e, e]) != e:
                    continue
                corner = corner_ring(ring, e).ring
                rows = sorted(map(tuple, corner.mul.tolist()))
                want = hashlib.sha256(repr((corner.n, rows)).encode()).hexdigest()[:16]
                assert corner_signature(ring, e)[3] == want, (name, e)


def _matched(pairs, canonical):
    """The facts each returned (family, class_labels) pair certifies: the
    canonical family is enumerated, and every family has its length and
    its multiset of isomorphism classes."""
    families = [fam for fam, _ in pairs]
    assert canonical in families
    classes = sorted(pairs[families.index(canonical)][1])
    return all(len(fam) == len(labels) == len(canonical) and sorted(labels) == classes
               for fam, labels in pairs)


class TestKSUniqueness:
    def test_z6(self):
        ring = corpus.z(6)
        pairs = verify_ks_uniqueness(ring)
        assert _matched(pairs, decompose_regular(ring))
        assert len(pairs) == 1
        assert decompose_regular(ring) == (3, 4)
        assert pairs == (((3, 4), (0, 1)),)

    def test_m2z2_three_matched_families(self):
        ring = corpus.m2(2)
        pairs = verify_ks_uniqueness(ring)
        assert _matched(pairs, decompose_regular(ring))
        assert len(pairs) == 3
        assert len(decompose_regular(ring)) == 2
        # all corners isomorphic: every label pair is (0, 0)
        assert {labels for _, labels in pairs} == {(0, 0)}

    def test_product_with_distinct_corners(self):
        ring = corpus.zz(4, 2)
        pairs = verify_ks_uniqueness(ring)
        assert _matched(pairs, decompose_regular(ring))
        assert len(pairs) == 1
        assert [labels for _, labels in pairs] == [(0, 1)]

    def test_upper_triangular(self):
        ring = corpus.ut2(2)
        pairs = verify_ks_uniqueness(ring)
        assert _matched(pairs, decompose_regular(ring))
        assert len(pairs) == 2
        assert [labels for _, labels in pairs] == [(0, 1), (0, 1)]

    def test_triangular_bimodule_pairs_every_primitive(self):
        # [[F2, F2^4], [0, F2]]: 32 primitives [[1, v], [0, 0]] and
        # [[0, v], [0, 1]], each orthogonal to one of the other kind
        ring = corpus.tri_f2(4)
        pairs = verify_ks_uniqueness(ring)
        assert _matched(pairs, decompose_regular(ring))
        assert len(pairs) == 16
        assert len(decompose_regular(ring)) == 2
        assert {labels for _, labels in pairs} == {(0, 1)}
        matching = verify_retract_matching(ring)
        assert decompose_regular(ring) == (1, 2)
        assert len(matching) == 32
        # [[1, v], [0, 0]] has a = 1, b = 0: it matches 1; the rest match 2
        assert all(partner == (1 if f & 3 == 1 else 2) for f, partner in matching)

    def test_m2z3_at_default_bounds(self):
        ring = corpus.m2(3)
        pairs = verify_ks_uniqueness(ring)
        assert _matched(pairs, decompose_regular(ring))
        assert len(pairs) == 6
        assert {labels for _, labels in pairs} == {(0, 0)}

    def test_zero_ring(self):
        ring = corpus.z(1)
        pairs = verify_ks_uniqueness(ring)
        assert _matched(pairs, decompose_regular(ring))
        assert len(pairs) == 1
        assert decompose_regular(ring) == ()


class TestLocalityCarry:
    """Corner locality decided once per isomorphism class and carried to
    the other members along x -> b*x*a, against the routes at each corner."""

    def test_witnesses_and_carried_verdicts_are_brute(self):
        from loopnr.rings import _iso_witness

        for name, ring in corpus.small_ring_corpus():
            ring = validate_ring_tables(ring.add, ring.mul, ring.one)
            mul = ring.mul.tolist()
            idem = [x for x in range(ring.n) if mul[x][x] == x]
            for e, f in product(idem, idem):
                pair = _iso_witness(ring, e, f)
                if pair is not None:
                    a, b = pair
                    # a in eAf, b in fAe, ab = e, ba = f
                    assert mul[mul[e][a]][f] == a and mul[mul[f][b]][e] == b, (name, e, f)
                    assert mul[a][b] == e and mul[b][a] == f, (name, e, f)
            # every nonzero idempotent, so that non-local verdicts are carried too
            nonzero = [e for e in idem if e != ring.zero]
            prim = decomp._primitives(ring)
            fresh = validate_ring_tables(ring.add, ring.mul, ring.one)
            for members in (prim, nonzero):
                labels, witnesses = decomp._iso_class_labels(ring, members)
                assert all(r < f and labels[r] == labels[f] and _iso_witness(ring, r, f) == (a, b)
                           for f, (r, a, b) in witnesses.items()), name
                # one class at a time: the routes run at its least member and
                # every other member is carried, or the least member is refused
                for label in set(labels.values()):
                    cls = [e for e in members if labels[e] == label]
                    brute = [is_strongly_indecomposable_corner(fresh, e) for e in cls]
                    if all(brute):
                        decomp._require_local_corners(ring, cls, witnesses, DEFAULT_BOUNDS, "m")
                    else:
                        assert not any(brute), name
                        with pytest.raises(HypothesisFailed) as exc:
                            decomp._require_local_corners(ring, cls, witnesses, DEFAULT_BOUNDS, "m")
                        assert exc.value.witness == cls[0], name

    @pytest.mark.parametrize("spec, primitives, classes", [
        ("matrix:cyclic:3,2", 12, 1),
        ("ut2:cyclic:5", 10, 2),
    ])
    def test_locality_routes_run_once_per_class(self, spec, primitives, classes, monkeypatch):
        real, calls = decomp.is_local_ring, []
        monkeypatch.setattr(decomp, "is_local_ring",
                            lambda nr, bounds: calls.append(nr) or real(nr, bounds))
        pairs = verify_ks_uniqueness(parse_spec(spec))
        assert len({e for fam, _ in pairs for e in fam}) == primitives
        assert len({c for _, labels in pairs for c in labels}) == classes
        assert len(calls) == classes

    def test_a_wrong_witness_is_a_theorem_violation(self, monkeypatch):
        real = decomp._iso_witness
        # b = 0 sends the corner at 1 to 0, not to the other corner's identity
        monkeypatch.setattr(decomp, "_iso_witness",
                            lambda ring, e, f: (real(ring, e, f)[0], ring.zero))
        with pytest.raises(TheoremViolation, match=r"carried from 1 to 3 .*f\(one\) = 0"):
            verify_ks_uniqueness(corpus.m2(2))

    def test_a_carry_that_is_not_one_to_one_is_a_theorem_violation(self, monkeypatch):
        real = decomp._iso_witness
        # with the hom check waved through, phi = 0 is refused by the count
        monkeypatch.setattr(decomp, "validate_lnr_hom", lambda phi, src, tgt: None)
        monkeypatch.setattr(decomp, "_iso_witness",
                            lambda ring, e, f: (real(ring, e, f)[0], ring.zero))
        with pytest.raises(TheoremViolation, match=r"carried from 1 to 3 .*not a bijection"):
            verify_ks_uniqueness(corpus.m2(2))


class TestRetractMatching:
    def test_m2z2_all_primitives_match_least_member(self):
        matches = verify_retract_matching(corpus.m2(2))
        assert decompose_regular(corpus.m2(2)) == (1, 8)
        assert len(matches) == 6
        assert all(partner == 1 for _, partner in matches)

    def test_z6(self):
        assert verify_retract_matching(corpus.z(6)) == ((3, 3), (4, 4))

    def test_whole_small_corpus(self):
        # reference for the partner: the least canonical member that the
        # module isomorphism test pairs with f, found without class labels
        for name, ring in corpus.small_ring_corpus():
            canonical = decompose_regular(ring)
            for f, partner in verify_retract_matching(ring):
                assert partner in canonical, name
                expected = min(e for e in canonical if idempotents_isomorphic(ring, f, e))
                assert partner == expected, (name, f)

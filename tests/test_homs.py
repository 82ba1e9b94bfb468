import numpy as np
import pytest

from loopnr import (
    NotAHomomorphism,
    PreconditionFailed,
    StructureHom,
    hom_report,
    idempotent_kill_check,
    idempotents,
    image_subring,
    is_idempotent_lifting,
    is_local_lnr,
    is_local_ring,
    is_unit_reflecting,
    units,
    validate_lnr_hom,
    verify_local_transfer,
)

import corpus


def mult_by_map(a):
    # the self-map x -> a*x of Z/3, as a zero-fixing map index
    return 3 * (a % 3) + (2 * a) % 3


class TestValidateLnrHom:
    def test_identity(self):
        f = validate_lnr_hom(range(6), corpus.z(6), corpus.z(6))
        assert f.kernel.members == frozenset({0})
        assert f.image.members == frozenset(range(6))
        assert f.nontrivial

    def test_reduction_mod_2(self):
        f = validate_lnr_hom([0, 1, 0, 1], corpus.z(4), corpus.z(2))
        assert f.kernel.members == frozenset({0, 2})
        # the map is the checked array itself, read-only
        assert f.map.dtype == np.int64 and not f.map.flags.writeable
        assert f.map.tolist() == [0, 1, 0, 1]

    def test_rejects_non_multiplicative(self):
        # evaluating a zero-fixing self-map at a point respects + but not composition
        src = corpus.m0("small:3,0")
        with pytest.raises(NotAHomomorphism) as exc:
            validate_lnr_hom([i // 3 for i in range(src.n)], src, corpus.z(3))
        assert exc.value.witness is not None

    def test_rejects_wrong_identity_image(self):
        with pytest.raises(NotAHomomorphism):
            validate_lnr_hom([0, 3, 0, 3], corpus.z(4), corpus.z(6))

    def test_rejects_non_additive(self):
        with pytest.raises(NotAHomomorphism):
            validate_lnr_hom([0, 1, 1, 0], corpus.z(4), corpus.z(2))

    @pytest.mark.parametrize("entry", [-1, 2, 2 ** 63, 2 ** 70, -(2 ** 70)])
    def test_rejects_entries_outside_the_target(self, entry):
        with pytest.raises(NotAHomomorphism, match="outside the target carrier"):
            validate_lnr_hom([0, entry], corpus.z(2), corpus.z(2))

    @pytest.mark.parametrize(
        "fmap", [[0, 1.7], [0.2, 1.9], ["0", "1"], [False, True], np.array([0.0, 1.0])]
    )
    def test_rejects_non_integer_entries(self, fmap):
        with pytest.raises(NotAHomomorphism, match="must be integers"):
            validate_lnr_hom(fmap, corpus.z(2), corpus.z(2))

    def test_least_witness_of_each_law(self):
        with pytest.raises(NotAHomomorphism) as exc:
            validate_lnr_hom([0, 1, 1, 0], corpus.z(4), corpus.z(2))
        assert exc.value.witness == (1, 1)
        assert str(exc.value) == "f(1 + 1) != f(1) + f(1)"
        src = corpus.m0("small:3,0")
        with pytest.raises(NotAHomomorphism) as exc:
            validate_lnr_hom([i // 3 for i in range(src.n)], src, corpus.z(3))
        a, b = exc.value.witness
        assert str(exc.value) == f"f({a} * {b}) != f({a}) * f({b})"
        fm = np.array([i // 3 for i in range(src.n)])
        bad = np.argwhere(fm[src.mul] != corpus.z(3).mul[np.ix_(fm, fm)])
        assert (a, b) == tuple(int(x) for x in bad[0])

    def test_kernel_and_image_come_from_the_loop_hom(self):
        f = validate_lnr_hom([0, 1, 0, 1], corpus.z(4), corpus.z(2))
        assert isinstance(f, StructureHom)
        assert repr(f) == "LnrHom(FiniteRing(n=4) -> FiniteRing(n=2))"

    def test_scalars_embed_in_zero_fixing_maps(self):
        tgt = corpus.m0("small:3,0")
        f = validate_lnr_hom([mult_by_map(a) for a in range(9)], corpus.z(9), tgt)
        assert f.kernel.members == frozenset({0, 3, 6})
        # image is the zero map, the identity and the negation
        assert f.image.members == frozenset({0, 5, 7})


class TestUnitReflection:
    def test_identity_reflects(self):
        f = validate_lnr_hom(range(6), corpus.z(6), corpus.z(6))
        assert is_unit_reflecting(f).ok
        assert f.unit_reflecting

    def test_prime_power_quotient_reflects(self):
        f = validate_lnr_hom([x % 2 for x in range(4)], corpus.z(4), corpus.z(2))
        assert is_unit_reflecting(f).ok

    def test_mixed_quotient_does_not_reflect(self):
        f = validate_lnr_hom([x % 3 for x in range(6)], corpus.z(6), corpus.z(3))
        v = is_unit_reflecting(f)
        assert not v.ok
        # 2 is the least non-unit of Z/6 sent to a unit; 4 also works
        assert v.witness == (2,)

    def test_whole_corpus_reflects(self):
        for name, f in corpus.unit_reflecting_hom_corpus():
            assert is_unit_reflecting(f).ok, name

    def test_decided_once_per_hom(self, monkeypatch):
        from loopnr import homs

        f = validate_lnr_hom([x % 2 for x in range(4)], corpus.z(4), corpus.z(2))
        read, units = [], homs.units
        monkeypatch.setattr(homs, "units", lambda nr: read.append(nr) or units(nr))
        payload = hom_report(f, "z4", "z2", with_transfer=True)
        assert payload["unit_reflecting"] and payload["transfer"]["kill_check"]
        # the report, the transfer and the kill check all read f's verdict;
        # the source's units are read once for it and once for f's
        # corestriction onto its image ring, itself another hom
        assert sum(nr is f.source for nr in read) == 2
        assert is_unit_reflecting(f) is is_unit_reflecting(f) is f._unit_reflection


class TestIdempotentLifting:
    def test_holds_on_corpus(self):
        for name, f in corpus.unit_reflecting_hom_corpus():
            assert is_idempotent_lifting(f).ok, name

    def test_holds_on_non_reflecting_hom(self):
        f = validate_lnr_hom([x % 3 for x in range(6)], corpus.z(6), corpus.z(3))
        assert is_idempotent_lifting(f).ok

    def test_trivial_idempotents_transfer(self):
        # for unit-reflecting lifting homs: only-trivial-idempotents
        # passes between source and image
        for name, f in corpus.unit_reflecting_hom_corpus():
            img = image_subring(f)
            src_trivial = len(idempotents(f.source)) <= 2
            img_trivial = len(idempotents(img.target)) <= 2
            assert src_trivial == img_trivial, name


class TestImageSubring:
    def test_identity_image_is_whole(self):
        f = validate_lnr_hom(range(4), corpus.z(4), corpus.z(4))
        img = image_subring(f)
        assert img.map.tolist() == [0, 1, 2, 3]
        assert img.target.n == 4

    def test_diagonal_image(self):
        tgt = corpus.zz(4, 4)
        f = validate_lnr_hom([5 * x for x in range(4)], corpus.z(4), tgt)
        img = image_subring(f)
        # image index i stands for the i-th least of 0, 5, 10, 15
        assert f.image.sorted_members == (0, 5, 10, 15)
        assert img.source is f.source and img.target.n == 4
        assert img.map.tolist() == [0, 1, 2, 3] and not img.map.flags.writeable
        assert img.image.members == frozenset(range(4))

    def test_built_once_per_hom(self):
        f = validate_lnr_hom(range(4), corpus.z(4), corpus.z(4))
        assert image_subring(f) is image_subring(f)

    def test_trivial_hom_gives_zero_ring(self):
        f = validate_lnr_hom([0, 0, 0, 0], corpus.z(4), corpus.z(1))
        assert not f.nontrivial
        img = image_subring(f)
        assert img.target.n == 1

    def test_needs_ring_codomain(self):
        tgt = corpus.m0("small:3,0")
        f = validate_lnr_hom([mult_by_map(a) for a in range(9)], corpus.z(9), tgt)
        with pytest.raises(PreconditionFailed, match="^image subring needs a ring codomain$"):
            image_subring(f)


class TestLocalTransfer:
    def test_local_source_local_image(self):
        tgt = corpus.zz(4, 4)
        f = validate_lnr_hom([5 * x for x in range(4)], corpus.z(4), tgt)
        assert verify_local_transfer(f) is True
        assert is_local_lnr(f.source) and is_local_ring(image_subring(f).target)
        assert image_subring(f).target.n == 4
        assert f.unit_reflecting
        assert image_subring(f).unit_reflecting

    def test_nonlocal_source_nonlocal_image(self):
        f = validate_lnr_hom(range(6), corpus.z(6), corpus.z(6))
        assert verify_local_transfer(f) is False
        assert not is_local_lnr(f.source) and not is_local_ring(image_subring(f).target)

    def test_units_listed_in_target_labels(self):
        tgt = corpus.zz(2, 2)
        f = validate_lnr_hom([3 * x for x in range(2)], corpus.z(2), tgt)
        verify_local_transfer(f)
        assert units(tgt).sorted_members == (3,)
        img = image_subring(f)
        assert tuple(f.image.sorted_members[u] for u in units(img.target)) == (3,)
        # over the corpus: the image ring's units, in target labels, are the
        # target's units in the image, since in a finite subring u^-1 = u^(k-1)
        for name, f in corpus.unit_reflecting_hom_corpus():
            img = image_subring(f)
            in_target = {f.image.sorted_members[u] for u in units(img.target)}
            assert in_target == units(f.target).members & f.image.members, name

    def test_needs_ring_codomain(self):
        tgt = corpus.m0("small:3,0")
        f = validate_lnr_hom([mult_by_map(a) for a in range(9)], corpus.z(9), tgt)
        with pytest.raises(PreconditionFailed):
            verify_local_transfer(f)

    def test_needs_nontrivial(self):
        f = validate_lnr_hom([0, 0, 0, 0], corpus.z(4), corpus.z(1))
        with pytest.raises(PreconditionFailed):
            verify_local_transfer(f)

    def test_needs_unit_reflection(self):
        f = validate_lnr_hom([x % 3 for x in range(6)], corpus.z(6), corpus.z(3))
        with pytest.raises(PreconditionFailed):
            verify_local_transfer(f)

    def test_needs_zero_symmetric_source(self):
        # parity of the permutation part is a homomorphism M(Z/2) -> Z/2
        src = corpus.m_full(2)
        f = validate_lnr_hom([0, 1, 1, 0], src, corpus.z(2))
        with pytest.raises(PreconditionFailed):
            verify_local_transfer(f)

    def test_whole_corpus_transfers(self):
        for name, f in corpus.unit_reflecting_hom_corpus():
            local = verify_local_transfer(f)
            assert local == is_local_lnr(f.source) == is_local_ring(image_subring(f).target), name


class TestKillCheck:
    def test_passes_on_corpus(self):
        for name, f in corpus.unit_reflecting_hom_corpus():
            assert idempotent_kill_check(f), name

    def test_needs_unit_reflection(self):
        f = validate_lnr_hom([x % 3 for x in range(6)], corpus.z(6), corpus.z(3))
        with pytest.raises(PreconditionFailed):
            idempotent_kill_check(f)

    def test_needs_zero_symmetric_source(self):
        src = corpus.m_full(2)
        f = validate_lnr_hom([0, 1, 1, 0], src, corpus.z(2))
        with pytest.raises(PreconditionFailed):
            idempotent_kill_check(f)

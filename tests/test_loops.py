import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopnr import (
    CATALOG,
    BoundExceeded,
    CayleyLoop,
    ElementSubset,
    EntriesOutOfRange,
    NoTwoSidedZero,
    NotAHomomorphism,
    NotASubloop,
    NotLatinSquare,
    all_loops,
    enumerate_subloops,
    is_associative,
    is_commutative,
    is_normal_subloop,
    is_subloop,
    parse_spec,
    random_loop,
    smallest_nonassociative_loop,
    subloop_closure,
    validate_loop,
    validate_loop_hom,
)

import corpus
import latin_oracle


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def members(subsets):
    return {s.members for s in subsets}


class TestValidateLoop:
    def test_accepts_cyclic(self):
        loop = validate_loop(cyclic_table(6))
        assert loop.n == 6
        assert loop.zero == 0

    def test_accepts_trivial(self):
        loop = validate_loop([[0]])
        assert loop.n == 1

    def test_zero_is_a_class_constant(self):
        # the validator puts the zero at index 0, so no loop may claim another
        loop = validate_loop(cyclic_table(3))
        assert [f.name for f in dataclasses.fields(loop)] == ["n", "add"]
        with pytest.raises(TypeError):
            CayleyLoop(n=3, add=loop.add, zero=1)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            validate_loop([[0, 1], [1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_loop([[0, 1, 2], [1, 2, 0]])

    def test_rejects_out_of_range(self):
        # the range row comes before the Latin row in tables.AXIOMS
        with pytest.raises(EntriesOutOfRange):
            validate_loop([[0, 1], [1, 2]])

    def test_rejects_repeated_row_entry(self):
        with pytest.raises(NotLatinSquare) as exc:
            validate_loop([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
        assert exc.value.witness is not None

    def test_rejects_missing_zero(self):
        # latin, but no index acts as a two-sided zero
        shifted = [[(i + j + 1) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(NoTwoSidedZero):
            validate_loop(shifted)

    @given(st.integers(2, 8), st.integers(0, 10 ** 6))
    def test_difference_tables_roundtrip(self, n, seed):
        loop = random_loop(n, seed)
        idx = np.arange(n)
        # a + (a \ b) = b and (b / a) + a = b
        assert np.array_equal(loop.add[idx[:, None], loop.ldiff], np.tile(idx, (n, 1)))
        assert np.array_equal(
            loop.add[loop.rdiff, idx[None, :]], np.tile(idx[:, None], (1, n))
        )
        # a \ (a + b) = b and (b + a) / a = b
        assert np.array_equal(loop.ldiff[idx[:, None], loop.add], np.tile(idx, (n, 1)))

    @pytest.mark.parametrize("spec", [spec for spec, _, _ in CATALOG])
    def test_difference_tables_invert_add_on_every_catalog_loop(self, spec):
        loop = parse_spec(spec)   # a near-ring is its additive loop
        n = loop.n
        idx = np.arange(n)
        rows, cols = np.tile(idx[:, None], (1, n)), np.tile(idx, (n, 1))
        # a \ (a + b) = b, (a + b) / b = a, a + (a \ c) = c, (c / b) + b = c
        assert np.array_equal(loop.ldiff[rows, loop.add], cols)
        assert np.array_equal(loop.rdiff[loop.add, cols], rows)
        assert np.array_equal(loop.add[rows, loop.ldiff], cols)
        assert np.array_equal(loop.add[loop.rdiff, cols], rows)
        for table in (loop.ldiff, loop.rdiff):
            assert table.dtype == loop.add.dtype and not table.flags.writeable


class TestLaws:
    def test_cyclic_is_group(self):
        loop = validate_loop(cyclic_table(6))
        assert is_associative(loop).ok
        assert is_commutative(loop).ok

    def test_nonassoc5_witness(self):
        loop = smallest_nonassociative_loop()
        v = is_associative(loop)
        assert not v.ok
        a, b, c = v.witness
        assert (a, b, c) == (1, 1, 2)
        add = loop.add.tolist()
        assert add[add[a][b]][c] != add[a][add[b][c]]

    def test_commutativity_witness_is_real(self):
        loop = validate_loop(
            [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
        )
        v = is_commutative(loop)
        if not v.ok:
            a, b = v.witness
            add = loop.add.tolist()
            assert add[a][b] != add[b][a]


class TestSubloops:
    def test_closure_of_empty_seed(self):
        loop = validate_loop(cyclic_table(6))
        assert subloop_closure(loop, ()).members == frozenset({0})

    def test_closure_examples(self):
        loop = validate_loop(cyclic_table(6))
        assert subloop_closure(loop, {2}).members == frozenset({0, 2, 4})
        assert subloop_closure(loop, {1}).members == frozenset(range(6))

    def test_closure_is_idempotent(self):
        loop = corpus.nonassoc5()
        for seed in ({1}, {2}, {3, 4}):
            once = subloop_closure(loop, seed)
            twice = subloop_closure(loop, once)
            assert once.members == twice.members
            assert is_subloop(loop, once)

    def test_is_subloop(self):
        loop = validate_loop(cyclic_table(6))
        assert is_subloop(loop, {0, 3})
        assert is_subloop(loop, {0, 2, 4})
        assert not is_subloop(loop, {0, 2})
        assert not is_subloop(loop, {1, 3, 5})

    def test_enumerate_cyclic6(self):
        loop = validate_loop(cyclic_table(6))
        assert members(enumerate_subloops(loop)) == {
            frozenset({0}),
            frozenset({0, 3}),
            frozenset({0, 2, 4}),
            frozenset(range(6)),
        }

    def test_enumeration_is_sorted_by_size_then_members(self):
        loop = validate_loop(cyclic_table(6))
        keys = [s.sort_key for s in enumerate_subloops(loop)]
        assert keys == sorted(keys)

    def test_nonassoc5_lattice(self):
        loop = corpus.nonassoc5()
        assert members(enumerate_subloops(loop)) == {
            frozenset({0}),
            frozenset({0, 1}),
            frozenset(range(5)),
        }

    def test_matches_brute_oracle_through_order_5(self):
        for order in range(1, 6):
            for loop in all_loops(order):
                got = members(enumerate_subloops(loop))
                want = latin_oracle.brute_subloops(loop.add.tolist())
                assert got == want

    def test_enumeration_bound(self):
        loop = validate_loop(cyclic_table(25))
        with pytest.raises(BoundExceeded):
            enumerate_subloops(loop)


def s3_table():
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ]


class TestNormality:
    def test_alternating_subgroup_is_normal(self):
        loop = validate_loop(s3_table())
        assert is_normal_subloop(loop, {0, 3, 4})

    def test_transposition_subgroup_is_not_normal(self):
        loop = validate_loop(s3_table())
        assert is_subloop(loop, {0, 1})
        assert not is_normal_subloop(loop, {0, 1})

    def test_raises_on_non_subloop(self):
        loop = validate_loop(cyclic_table(6))
        with pytest.raises(NotASubloop):
            is_normal_subloop(loop, {0, 2})

    def test_abelian_subloops_all_normal(self):
        loop = validate_loop(cyclic_table(12))
        for s in enumerate_subloops(loop):
            assert is_normal_subloop(loop, s)

    def test_matches_brute_oracle_through_order_5(self):
        verdicts = set()
        for order in range(1, 6):
            for loop in all_loops(order):
                for s in enumerate_subloops(loop):
                    want = latin_oracle.brute_is_normal(loop.add.tolist(), s)
                    assert is_normal_subloop(loop, s) == want
                    verdicts.add(want)
        # non-associative loops of order 5 have subloops of both kinds
        assert verdicts == {True, False}

    # in random_loop:6,9, a + K = K + a for K = {0, 4}, yet K is not normal
    @pytest.mark.parametrize("spec", ["random_loop:6,0", "random_loop:8,1", "random_loop:6,9"])
    def test_matches_brute_oracle_on_random_loops(self, spec):
        loop = parse_spec(spec)
        for s in enumerate_subloops(loop):
            assert is_normal_subloop(loop, s) == latin_oracle.brute_is_normal(
                loop.add.tolist(), s)


class TestLoopHoms:
    def test_reduction_mod_2(self):
        src = validate_loop(cyclic_table(4))
        tgt = validate_loop(cyclic_table(2))
        f = validate_loop_hom([0, 1, 0, 1], src, tgt)
        assert f.kernel.members == frozenset({0, 2})
        assert f.image.members == frozenset({0, 1})
        assert is_normal_subloop(src, f.kernel)

    def test_rejects_non_hom(self):
        src = validate_loop(cyclic_table(4))
        tgt = validate_loop(cyclic_table(2))
        with pytest.raises(NotAHomomorphism) as exc:
            validate_loop_hom([0, 1, 1, 0], src, tgt)
        assert exc.value.witness is not None

    def test_rejects_wrong_length(self):
        src = validate_loop(cyclic_table(4))
        with pytest.raises(NotAHomomorphism):
            validate_loop_hom([0, 1, 0], src, src)

    def test_rejects_out_of_range(self):
        src = validate_loop(cyclic_table(2))
        with pytest.raises(NotAHomomorphism):
            validate_loop_hom([0, 5], src, src)

    @pytest.mark.parametrize("entry", [2 ** 63, 2 ** 70, -(2 ** 70)])
    def test_rejects_entries_past_int64(self, entry):
        src = validate_loop(cyclic_table(2))
        with pytest.raises(NotAHomomorphism, match="outside the target carrier"):
            validate_loop_hom([0, entry], src, src)

    @pytest.mark.parametrize("fmap", [[0, 1.7], [0.2, 1.9], ["0", "1"], [False, True]])
    def test_rejects_non_integer_entries(self, fmap):
        src = validate_loop(cyclic_table(2))
        with pytest.raises(NotAHomomorphism, match="must be integers"):
            validate_loop_hom(fmap, src, src)

    @given(st.integers(2, 8), st.integers(0, 10 ** 6))
    def test_identity_hom_on_random_loops(self, n, seed):
        loop = random_loop(n, seed)
        f = validate_loop_hom(range(n), loop, loop)
        assert f.kernel.members == frozenset({0})
        assert f.image.members == frozenset(range(n))


class TestElementSubset:
    def test_rejects_out_of_carrier(self):
        with pytest.raises(ValueError):
            ElementSubset.of(3, [0, 3])

    @pytest.mark.parametrize("items, message", [
        ([0, -1], "^-1 outside the carrier$"),
        ([0, 6], "^6 outside the carrier$"),
        ([0, 5.0], "^5.0 is not an integer$"),
        ([0, True], "^True is not an integer$"),
        (["1"], "^'1' is not an integer$"),
        (ElementSubset.of(7, [0]), "carrier of 7 elements given for one of 6"),
    ])
    @pytest.mark.parametrize("check", [is_subloop, subloop_closure, is_normal_subloop])
    def test_subset_arguments_pass_one_gate(self, check, items, message):
        # no negative index wraps round, no float or bool is truncated,
        # no index past the carrier reaches a gather
        with pytest.raises(ValueError, match=message):
            check(random_loop(6, 0), items)

    @pytest.mark.parametrize("n, members, message", [
        (2, frozenset({0, True}), "^True is not an integer$"),
        (8, frozenset({0, 4.0}), "^4.0 is not an integer$"),
        (6, frozenset({0, -1}), "^-1 outside the carrier$"),
    ])
    def test_constructor_is_the_gate(self, n, members, message):
        # True is not read as 1 by is_subloop, nor 4.0 sent to a gather
        with pytest.raises(ValueError, match=message):
            ElementSubset(n, members)

    def test_members_are_stored_as_ints(self):
        s = ElementSubset(6, frozenset({np.int64(3), 0}))
        assert s == ElementSubset.of(6, [0, 3])
        assert all(type(x) is int for x in s.members)
        assert all(type(x) is int for x in ElementSubset.from_mask(s.mask()).members)

    def test_gate_passes_a_subset_of_the_same_carrier_and_iterators(self):
        s = ElementSubset.of(6, [0, 3])
        assert ElementSubset.of(6, s) is s
        assert ElementSubset.of(6, iter([np.int64(3), 0])) == s

    def test_sorted_members_and_mask(self):
        s = ElementSubset.of(5, [4, 0, 2])
        assert s.sorted_members == (0, 2, 4)
        assert list(s.mask()) == [True, False, True, False, True]

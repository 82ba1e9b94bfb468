import functools
import hashlib
import math

import numpy as np
import pytest

from loopnr import (
    CATALOG,
    BoundExceeded,
    CayleyLoop,
    FiniteRing,
    LoopNearRing,
    ParseError,
    all_loops,
    canonical_json,
    cyclic_ring,
    galois_field,
    is_associative,
    is_division_ring,
    is_local_ring,
    kind_of,
    map_near_ring,
    matrix_ring,
    opposite,
    parse_spec,
    product,
    random_loop,
    smallest_nonassociative_loop,
    structure_sha256,
    structure_to_dict,
    upper_triangular_ring,
    validate_lnr_hom,
)

import corpus

NONASSOC5_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


class TestBasicGenerators:
    def test_cyclic(self):
        assert cyclic_ring(1).n == 1
        assert cyclic_ring(6).one == 1
        with pytest.raises(ValueError):
            cyclic_ring(0)

    def test_galois_fields_are_division_rings(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
            f = galois_field(q)
            assert f.n == q
            assert is_division_ring(f)

    def test_galois_field_rejects_non_prime_power(self):
        for q in (1, 6, 10, 12):
            with pytest.raises(ValueError):
                galois_field(q)

    def test_prime_field_matches_cyclic(self):
        f = galois_field(5)
        r = cyclic_ring(5)
        assert np.array_equal(f.add, r.add) and np.array_equal(f.mul, r.mul)

    def test_matrix_ring_sizes(self):
        assert matrix_ring(corpus.z(2), 1).n == 2
        assert matrix_ring(corpus.z(2), 2).n == 16
        assert matrix_ring(corpus.z(3), 2).n == 81

    def test_matrix_ring_bound(self):
        with pytest.raises(BoundExceeded):
            matrix_ring(corpus.z(4), 3)

    def test_upper_triangular(self):
        ring = upper_triangular_ring(corpus.z(2))
        assert ring.n == 8
        assert ring.one == 5
        assert upper_triangular_ring(corpus.z(3)).n == 27

    def test_map_near_rings(self):
        assert corpus.m_full(2).n == 4
        assert corpus.m0("small:2,0").n == 2
        assert corpus.m0("nonassoc5").n == 625

    def test_map_near_ring_bound(self):
        with pytest.raises(BoundExceeded):
            map_near_ring(corpus.cyclic_loop(9), zero_fixing=True)


class TestLoopGenerators:
    def test_all_loops_counts(self):
        assert [len(all_loops(n)) for n in range(1, 6)] == [1, 1, 1, 4, 56]

    def test_all_loops_bound(self):
        with pytest.raises(BoundExceeded):
            all_loops(6)

    def test_small_orders_are_groups(self):
        for n in range(1, 5):
            for loop in all_loops(n):
                assert is_associative(loop).ok

    def test_order_five_has_both(self):
        flags = [is_associative(l).ok for l in all_loops(5)]
        assert any(flags) and not all(flags)

    def test_smallest_nonassociative_is_frozen_table(self):
        loop = smallest_nonassociative_loop()
        assert loop.add.tolist() == NONASSOC5_TABLE
        assert not is_associative(loop).ok

    def test_smallest_nonassociative_is_least(self):
        tables = [l.add.tolist() for l in all_loops(5) if not is_associative(l).ok]
        assert min(tables) == NONASSOC5_TABLE

    def test_random_loop_is_deterministic(self):
        a = random_loop(6, 42)
        b = random_loop(6, 42)
        assert np.array_equal(a.add, b.add)

    def test_random_loop_varies_with_seed(self):
        seen = {random_loop(6, s).add.tobytes() for s in range(10)}
        assert len(seen) > 1

    def test_random_loop_order_three_is_cyclic(self):
        for s in range(5):
            assert random_loop(3, s).add.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    def test_random_loop_bound(self):
        with pytest.raises(BoundExceeded):
            random_loop(13, 0)

    def test_nonassociative_density_at_order_five(self):
        hits = sum(
            not is_associative(random_loop(5, s)).ok for s in range(20)
        )
        assert hits >= 1


class TestProduct:
    def test_ring_product_indices(self):
        ring = corpus.zz(2, 3)
        assert ring.n == 6
        assert ring.one == 4  # (1, 1) with the first factor most significant
        assert kind_of(ring) == "ring"

    def test_product_isomorphic_to_cyclic_by_residues(self):
        ring = corpus.zz(2, 3)
        f = validate_lnr_hom(
            [(x % 2) * 3 + x % 3 for x in range(6)], corpus.z(6), ring
        )
        assert f.kernel.members == frozenset({0})

    def test_loop_product(self):
        loop = product([corpus.nonassoc5(), corpus.cyclic_loop(2)])
        assert isinstance(loop, CayleyLoop)
        assert loop.n == 10

    def test_near_ring_product_stays_near_ring(self):
        nr = product([corpus.m0("small:3,0"), corpus.z(2)])
        assert isinstance(nr, LoopNearRing)
        assert not isinstance(nr, FiniteRing)
        assert nr.n == 18

    def test_mixing_kinds_rejected(self):
        with pytest.raises(TypeError):
            product([corpus.z(2), corpus.nonassoc5()])

    def test_product_of_nonzero_rings_is_never_local(self):
        for a, b in ((2, 2), (2, 3), (4, 2), (3, 3)):
            assert not is_local_ring(corpus.zz(a, b))

    def test_size_bound(self):
        from dataclasses import replace

        from loopnr import DEFAULT_BOUNDS

        tight = replace(DEFAULT_BOUNDS, max_n=10)
        with pytest.raises(BoundExceeded):
            product([corpus.z(4), corpus.z(4)], tight)


class TestOpposite:
    def test_involution_on_matrix_ring(self):
        ring = corpus.m2(2)
        opp = opposite(ring)
        assert isinstance(opp, FiniteRing)
        back = opposite(opp)
        assert np.array_equal(back.mul, ring.mul)

    def test_commutative_ring_is_fixed(self):
        ring = corpus.z(6)
        assert np.array_equal(opposite(ring).mul, ring.mul)

    def test_noncommutative_ring_moves(self):
        ring = corpus.ut2(2)
        assert not np.array_equal(opposite(ring).mul, ring.mul)


# structure_sha256 of every catalog entry: any change to a constructor's
# indexing or tables moves one of them.
CATALOG_SHA256 = {
    "cyclic:1": "1e657a379b4864cf658fc0fc0f147c434ea0df453fd1c160cd38da045a666501",
    "cyclic:2": "54276114ebfa88bb400f2637bb7360b25ae54c4ed79eb11529e36cdd899643a4",
    "cyclic:3": "b5c80154c3b7263b45a8d66320275727362d6ede8ffea3fd1d1ccfab35724fda",
    "cyclic:4": "22d902c2643280589a0e80636e285cfba1bb965d50c2226eff1724a93d7a4674",
    "cyclic:5": "261b1f78ac9906b4fe3801fb29c5f9e28acca57d82705e875172b441d0ff65e6",
    "cyclic:6": "f2b50ba5bc31c9fdb4403dbd6692fd5cdc4f059517fdbbc6ff14c1af27c401c6",
    "cyclic:7": "a8fc34f256d72cbcf36b452c98a2e0b031ab0c9fb229a51a767e9fbd2bb418e0",
    "cyclic:8": "5b6ef12e0a5ff477ecd777f5ef6f30114ff6a144e9b7eb7bc42443d73de31cb6",
    "cyclic:9": "ee261702b34abaab1c3a7c3a2098709dd8e1f816ff8bcfd42164bc08a0fec72c",
    "cyclic:10": "bfe84e96249091ef2deac75e918ea969807d89b917e2529814ef5a18193d6812",
    "cyclic:11": "dc4c6231b2784b2e2e895ee0294ae3df72d9a3c342f00f5291469ecc895eb669",
    "cyclic:12": "b06b98d99dc8e61857f294f712dd8871b9f6a76bc4c0a4b84a5a1d25aed3d01e",
    "cyclic:13": "64441e45a26e096fd975150800e192c82a5ce6a59972142f4f8409338790cd0e",
    "cyclic:14": "a5d6281ba571829cf4df4c5d43c5732dea0e4185a0a0b6b066f3412659953221",
    "cyclic:15": "d24fc10067c063692a02e4e809291728a25cca6f983228af6893f24ca0765623",
    "cyclic:16": "5c31888de64d0f444ffc4de9f060a49bdde9039e1fdc8a48ca823c0efb60d6a8",
    "gf:4": "4d165ed321fe2dbf4b7e599dc2d3eb76fbe337df8aaeeebfc5231e0ab5caa4d1",
    "product:cyclic:2+cyclic:2": "cc74ef0bbeadc17465ffb2b9152a0a98f5190987c2e2e771a2600f5553bdf612",
    "product:cyclic:2+cyclic:3": "d3067361ec8d31c840745d278e35e335f9296a703e50236fb567ac243974ed00",
    "product:cyclic:4+cyclic:2": "79ec32fab1d74d8084b20f94d04f200dfb887ef2a01423445f779eac2bdcbaa4",
    "matrix:cyclic:2,2": "0f017d4bd5d486a06d57e309be9f9b06918af5598a02c52271bc928fd3130917",
    "matrix:cyclic:3,2": "8ee3c0c8dac16a14bf0056c400b167f957a50e2f73d2d489f8ea79d15d5be1ad",
    "matrix:cyclic:4,2": "d813e846c74823ea053793e747dda3ff6a8547bb53f5c89629a53d384e3345c4",
    "ut2:cyclic:2": "61e45058fdc57a1f8c4c1e32ba26b0c9eb58d57c1f0812d16fa81676bb7b273b",
    "ut2:cyclic:3": "88c2ab7337274fec14e8ae3e272a5bff8fcb0b5264cb1390bd41a07e49839c3d",
    "opposite:matrix:cyclic:2,2": "2af6694f13b8b933e3aaa490be462b8c5597451eac6728e3fdc4b0799e7eee68",
    "m:cyclic:2": "a65319c5a43366efff37fd1dc9764b4e65f69aae6633e3f8291f4134ebf219c1",
    "m0:cyclic:2": "ababa8899288e79e563e170d9297be0047cf0bd4035f096019f1075122ff9768",
    "m0:cyclic:3": "7491f507da97465ae8ac7d23f9565aadb1fe4fc19fe8916cec869fe1f3acbb48",
    "m0:cyclic:4": "edd5463d003794e32de22ebe8403a2ae1a0289cd5b788713648df9aeb9650ee4",
    "m0:smallloop:4,0": "aafd0ccea9980df951fc504c6216ff5dc74444bfc025600d7872e3c41472af2e",
    "m0:smallloop:4,1": "a34d3888cebef78342f13f4ce4d68afe74de3f481cd80cb208c00dd946147135",
    "m0:smallloop:4,2": "edd5463d003794e32de22ebe8403a2ae1a0289cd5b788713648df9aeb9650ee4",
    "m0:smallloop:4,3": "b19582167884ba9380db4f4e13c3a51a5b5d0823d603b11a44a1e1f6891d76e6",
    "m0:nonassoc5": "77e71f46502e6017d3cd38905e77c3b3f82160cbed18f9a1570ff889ef86712b",
    "nonassoc5": "61f9f659e74bbab8b4fbac55469a57157af416725488f96c07ab729a9983585d",
    "smallloop:5,0": "61f9f659e74bbab8b4fbac55469a57157af416725488f96c07ab729a9983585d",
    "random_loop:6,0": "07aba9ad42ad443227a841fa4a557234d2837b3b96c8d188ba120be583693df8",
    "random_loop:8,1": "cd7b6658cf4a5c487e75a0eb8f52b30b247c5d663097ec1abe92460a9ede60af",
}

build = functools.cache(parse_spec)


class TestParseSpec:
    def test_every_catalog_entry_rebuilds(self):
        for spec, kind, n in CATALOG:
            s = build(spec)
            assert kind_of(s) == type(s).kind == kind, spec
            assert s.n == n, spec

    def test_streamed_hash_is_the_hash_of_the_canonical_json(self):
        for spec, _, _ in CATALOG:
            s = build(spec)
            d = structure_to_dict(s)
            del d["meta"]
            want = hashlib.sha256(canonical_json(d).encode()).hexdigest()
            assert structure_sha256(s) == want, spec

    def test_catalog_hashes_are_pinned(self):
        assert list(CATALOG_SHA256) == [spec for spec, _, _ in CATALOG]
        for spec in CATALOG_SHA256:
            assert structure_sha256(build(spec)) == CATALOG_SHA256[spec], spec

    def test_catalog_specs_unique(self):
        specs = [spec for spec, _, _ in CATALOG]
        assert len(specs) == len(set(specs))

    def test_nested_constructors(self):
        s = parse_spec("opposite:matrix:cyclic:2,2")
        assert kind_of(s) == "ring" and s.n == 16
        s = parse_spec("m0:smallloop:4,1")
        assert kind_of(s) == "lnr" and s.n == 64

    def test_product_spec(self):
        s = parse_spec("product:cyclic:2+cyclic:3+cyclic:5")
        assert kind_of(s) == "ring" and s.n == 30

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus:3",
            "cyclic:x",
            "cyclic:-1",
            "gf:6",
            "matrix:cyclic:2",
            "matrix:nonassoc5,2",
            "matrix:cyclic:2,0",
            "matrix:cyclic:2,-1",
            "m:bogus",
            "product:cyclic:2",
            "product:cyclic:2+nonassoc5",
            "smallloop:4,9",
            "random_loop:4",
            "opposite:nonassoc5",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_spec(bad)

    def test_bound_exceeded_is_not_a_parse_error(self):
        with pytest.raises(BoundExceeded):
            parse_spec("cyclic:99999")
        with pytest.raises(BoundExceeded):
            parse_spec("smallloop:6,0")


# Each constructor recomputed from its definition with Python ints.  A
# structure is given as (n, add, mul, one), where add and mul are
# functions (u, v) -> w on element indices (mul and one are None for a
# loop); indices are decoded by the module docstring of loopnr.generators.


def mixed_radix(radices):
    """Decoder and encoder of indices whose first digit is most significant."""
    def decode(i):
        out = []
        for r in reversed(radices):
            i, d = divmod(i, r)
            out.append(d)
        return out[::-1]

    def encode(digits):
        i = 0
        for d, r in zip(digits, radices):
            i = i * r + d
        return i
    return decode, encode


def zn_ops(n):
    return n, lambda u, v: (u + v) % n, lambda u, v: u * v % n, 1 % n


def table_ops(s):
    """A built structure's own tables, for the factors of products and maps."""
    add = s.add.tolist()
    if not isinstance(s, LoopNearRing):
        return s.n, lambda u, v: add[u][v], None, None
    mul = s.mul.tolist()
    return s.n, lambda u, v: add[u][v], lambda u, v: mul[u][v], s.one


def gf_ops(q):
    """F_q as polynomials over F_p modulo the least monic irreducible,
    index c0 + c1*p + c2*p^2 + ...; degree k <= 3, where a polynomial
    without roots is irreducible."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = round(np.log(q) / np.log(p))
    assert p ** k == q and k <= 3

    def decode(i):
        return [i // p ** e % p for e in range(k)]

    def encode(coeffs):
        return sum(c * p ** e for e, c in enumerate(coeffs))

    modulus = next(decode(c) + [1] for c in range(p ** k)
                   if all(sum(m * r ** e for e, m in enumerate(decode(c) + [1])) % p
                          for r in range(p)))

    def mul(u, v):
        a, b, prod = decode(u), decode(v), [0] * (2 * k - 1)
        for i in range(k):
            for j in range(k):
                prod[i + j] += a[i] * b[j]
        for d in range(2 * k - 2, k - 1, -1):
            lead = prod[d]
            for e in range(k + 1):
                prod[d - k + e] -= lead * modulus[e]
        return encode([c % p for c in prod[:k]])

    def add(u, v):
        return encode([(x + y) % p for x, y in zip(decode(u), decode(v))])
    return q, add, mul, 1


def matrix_ops(base, k):
    """k x k matrices, row-major entries, first entry most significant."""
    b, badd, bmul, bone = base
    decode, encode = mixed_radix([b] * (k * k))

    def add(u, v):
        return encode([badd(x, y) for x, y in zip(decode(u), decode(v))])

    def mul(u, v):
        x, y, out = decode(u), decode(v), []
        for r in range(k):
            for c in range(k):
                s = 0
                for t in range(k):
                    s = badd(s, bmul(x[r * k + t], y[t * k + c]))
                out.append(s)
        return encode(out)
    return b ** (k * k), add, mul, encode([bone if r == c else 0 for r in range(k) for c in range(k)])


def ut2_ops(base):
    """(a, b, d) at index a*B^2 + b*B + d."""
    n, badd, bmul, bone = base
    decode, encode = mixed_radix([n] * 3)

    def add(u, v):
        return encode([badd(x, y) for x, y in zip(decode(u), decode(v))])

    def mul(u, v):
        (a, b, d), (a2, b2, d2) = decode(u), decode(v)
        return encode([bmul(a, a2), badd(bmul(a, b2), bmul(b, d2)), bmul(d, d2)])
    return n ** 3, add, mul, encode([bone, 0, bone])


def map_ops(loop_add, n, zero_fixing):
    """Maps by their values (f(0), f(1), ...), f(0) most significant and
    omitted for zero-fixing maps."""
    lo = 1 if zero_fixing else 0
    decode, encode = mixed_radix([n] * (n - lo))

    def add(u, v):
        return encode([loop_add(x, y) for x, y in zip(decode(u), decode(v))])

    def mul(u, v):
        f, g = [0] * lo + decode(u), [0] * lo + decode(v)
        return encode([f[g[x]] for x in range(lo, n)])
    return n ** (n - lo), add, mul, encode(list(range(lo, n)))


def product_ops(factors):
    """Componentwise, the first factor most significant."""
    decode, encode = mixed_radix([f[0] for f in factors])

    def componentwise(which):
        def op(u, v):
            return encode([f[which](x, y) for f, x, y in zip(factors, decode(u), decode(v))])
        return op
    ones = [f[3] for f in factors]
    if None in ones:                     # loops: addition only
        return math.prod(f[0] for f in factors), componentwise(1), None, None
    return math.prod(f[0] for f in factors), componentwise(1), componentwise(2), encode(ones)


def small(i):
    return table_ops(all_loops(4)[i])


DEFINITIONS = {
    "cyclic:1": lambda: zn_ops(1),
    "cyclic:6": lambda: zn_ops(6),
    "cyclic:255": lambda: zn_ops(255),
    "gf:4": lambda: gf_ops(4),
    "gf:8": lambda: gf_ops(8),
    "gf:9": lambda: gf_ops(9),
    "matrix:cyclic:2,1": lambda: matrix_ops(zn_ops(2), 1),
    "matrix:cyclic:2,2": lambda: matrix_ops(zn_ops(2), 2),
    "matrix:cyclic:3,2": lambda: matrix_ops(zn_ops(3), 2),
    "ut2:cyclic:2": lambda: ut2_ops(zn_ops(2)),
    "ut2:cyclic:3": lambda: ut2_ops(zn_ops(3)),
    "ut2:gf:4": lambda: ut2_ops(gf_ops(4)),
    "m:cyclic:2": lambda: map_ops(zn_ops(2)[1], 2, zero_fixing=False),
    "m:cyclic:3": lambda: map_ops(zn_ops(3)[1], 3, zero_fixing=False),
    "m0:cyclic:1": lambda: map_ops(zn_ops(1)[1], 1, zero_fixing=True),
    "m0:cyclic:3": lambda: map_ops(zn_ops(3)[1], 3, zero_fixing=True),
    "m0:smallloop:4,1": lambda: map_ops(small(1)[1], 4, zero_fixing=True),
    "product:nonassoc5+smallloop:4,1":
        lambda: product_ops([table_ops(smallest_nonassociative_loop()), small(1)]),
    "product:m0:cyclic:3+cyclic:2":
        lambda: product_ops([map_ops(zn_ops(3)[1], 3, zero_fixing=True), zn_ops(2)]),
    "product:cyclic:2+gf:4+cyclic:3":
        lambda: product_ops([zn_ops(2), gf_ops(4), zn_ops(3)]),
}


@pytest.mark.parametrize("spec", DEFINITIONS)
def test_constructor_matches_its_definition(spec):
    s = parse_spec(spec)
    n, add, mul, one = DEFINITIONS[spec]()
    assert s.n == n
    assert s.add.tolist() == [[add(u, v) for v in range(n)] for u in range(n)]
    if mul is None:
        assert isinstance(s, CayleyLoop)
        return
    assert s.mul.tolist() == [[mul(u, v) for v in range(n)] for u in range(n)]
    assert s.one == one

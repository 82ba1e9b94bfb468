import functools
import hashlib
import math
import random

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
    dump_structure,
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
from loopnr import generators
from loopnr.cli import main

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

    @pytest.mark.parametrize("q", [8, 9, 243, 1024])
    def test_log_tables_match_the_polynomial_product(self, q):
        mul = galois_field(q).mul
        assert mul.dtype == np.int16
        assert mul.tobytes() == polynomial_mul_table(q).astype(np.int16).tobytes()

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


def polynomial_mul_table(q):
    """F_q's multiplication table by the product of coefficient vectors
    (index c0 + c1*p + ...) reduced by the least monic irreducible."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = round(math.log(q, p))
    coeffs = np.arange(q)[:, None] // p ** np.arange(k) % p      # [x, e]: coefficient of t^e
    modulus = np.array(generators._find_irreducible(p, k))       # little-endian, monic
    out = np.empty((q, q), dtype=np.int64)
    for r in range(0, q, 64):
        a = coeffs[r:r + 64]
        prod = np.zeros((len(a), q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, :, i:i + k] += a[:, None, i:i + 1] * coeffs[None]
        for d in range(2 * k - 2, k - 1, -1):
            prod[:, :, d - k:d + 1] -= prod[:, :, d:d + 1] % p * modulus
        out[r:r + 64] = prod[:, :, :k] % p @ p ** np.arange(k)
    return out


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

    def test_smallloop_validates_only_the_loop_it_returns(self, monkeypatch):
        want = [all_loops(5)[i].add.tolist() for i in (0, 17, 55)]
        seen = []
        validate = generators.validate_loop
        monkeypatch.setattr(generators, "validate_loop", lambda g: seen.append(g) or validate(g))
        got = [parse_spec(f"smallloop:5,{i}").add.tolist() for i in (0, 17, 55)]
        assert got == want and len(seen) == 3

    @pytest.mark.parametrize("spec, count", [("smallloop:5,56", 56), ("smallloop:4,-1", 4)])
    def test_smallloop_index_out_of_range(self, spec, count):
        n, i = spec.split(":")[1].split(",")
        with pytest.raises(ParseError, match=rf"^smallloop index {i} out of range, order {n} "
                                             rf"has {count}$"):
            parse_spec(spec)

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

# sha256 of the stdout of ``analyze SPEC --local --subloops --radical
# --idempotents`` for every ring and near-ring entry, and of ``analyze
# SPEC --subloops`` for every loop: any change to a lattice, radical,
# locality or idempotent verdict moves one of them.
ANALYZE_SHA256 = {
    "cyclic:1": "fd864cad47caa565038b783644f19bec2e2a0b961d51247ed0dceb6f90f18d4a",
    "cyclic:2": "e16a7ba86120e64819139072fe339f2536263cd5fc2f08b14074719eee824a19",
    "cyclic:3": "6a755dbb332afacbcea73f350f26b1fd52744f649a167ae33ba211f5eb09ed58",
    "cyclic:4": "98801c6183f52e71b93a86293a68d43175d2edf37570df679a00c522b1963bea",
    "cyclic:5": "6ecbb3407c2ce46505807a6dfc9505d35a7b536126c109d4b156090a29dd8d8d",
    "cyclic:6": "3ec9bc0ba66eea0083a73ad4fdfd1a14e98feb7108709c6fd7982e893b62c632",
    "cyclic:7": "eb661ff498a2aed6280caff13dd18a051ffed740fb377c9ac50f46611aa08960",
    "cyclic:8": "9b758745931961475c3ef514c2caf6b51531f131b65873a3a8c72b469958f37b",
    "cyclic:9": "84ea08a4dd62730e5fc5b09d13955786206de9561ff00c1caa4e8a80e5b3f6ce",
    "cyclic:10": "a3e11aee3fab8566e7cfce4d1fc5ea50138cee04fe18d7bebb265a5d1ab06e01",
    "cyclic:11": "e75ff3528976d63a561fd24b61fd5c1a1317734d9b088abbd7769ee812bc13fb",
    "cyclic:12": "e5d49655666a85eca586190a6b0d10b75bc2b376b97a3139acfe9ab6c0beafaf",
    "cyclic:13": "ecfe430738d1b4cd8818c322de0eff5d4140f2bf4dde2b2c730c184658b7153f",
    "cyclic:14": "66039fe4b586ae0b92c68137e8d3b3c71a4f3572cb148bce68c5c5f15b04e325",
    "cyclic:15": "f5fce04fe8e9213b58b8d39447eac59b91736a52de1a5ee218c68d3ea1cd2638",
    "cyclic:16": "e2e2e8c930247f9431edd75aa919b6f93218d7a5c8535b5c65a46193b9744bbf",
    "gf:4": "a200b1febe5df3b064d97802551e9db07fbe6367283ff633bb3ec1557edca5f8",
    "product:cyclic:2+cyclic:2": "a4f0fcc0e12e81cddf71ed5458c90d7c1b1e1c84e1bdd88e464cf0ff669fb7fe",
    "product:cyclic:2+cyclic:3": "96f4909671d46121ebe8db89b1d9b2c93e7dbee34f9bdcde63f50c38990b7ee4",
    "product:cyclic:4+cyclic:2": "823fc5d75f9131a250443ece603eb06239e8e41cc3bfa41213f16a91de2f24f9",
    "matrix:cyclic:2,2": "3dce347789f7a03594424174821bc33a3353972147380ff60765e5d5f0a45e95",
    "matrix:cyclic:3,2": "f556997a8e54c35f39a7896fa1a68b6ce82763dab5f0f5e08bea6eda97b2e6fd",
    "matrix:cyclic:4,2": "c4c6df4799c325d464d17a98df3b14ab65ffc68f4104e12df6202cb198e5a5b9",
    "ut2:cyclic:2": "02384ec6b817f1c4c99cd23c69cb0fc463f94be99dad3d0006490d56ad58d3e3",
    "ut2:cyclic:3": "099c6adfcdf892ca01e47673e235b7dfe22de7fd65a7591b7882664829df2ef2",
    "opposite:matrix:cyclic:2,2": "925c714ff9812d930a8a584d73f36c7214a535727bcd3fff208b74eadf8d443e",
    "m:cyclic:2": "a8c0123aadea1c863fa74f12941844445a87d30da3b405eebaeeaa4d7e64182c",
    "m0:cyclic:2": "c13269d77079ef0f28b40be0126a589bc5d9e7b85ecaff44fd79970788b8ada9",
    "m0:cyclic:3": "3b11a0ad3c8926360cf2d160c23c4532e7890ea78010d587af8e5be2c19e9f30",
    "m0:cyclic:4": "23e9e8937dfcf376d9e51eed0d246bad0412d915528697c6feedbbaff1daddb6",
    "m0:smallloop:4,0": "d6feac046465e5acf03846f64455d0101b6f5f0b3818498c137b045a3cb0e016",
    "m0:smallloop:4,1": "a14b27dd8fa43832a1052fad15cc1d272eae437b42452568aea92e742f4afe74",
    "m0:smallloop:4,2": "f77d9547dae0640e82e623de7b0078a3d1a2887eb05afd0f8fa1be5be8ea92be",
    "m0:smallloop:4,3": "e2752f7bb5f07dae54bff1e8caeb0df5b338b33f73e656d432af2a44e96c05b7",
    "m0:nonassoc5": "72844db2a58d44dda9047135c5684913d45f1ea55c43c6cdd47adbff62fd2701",
    "nonassoc5": "85d873f3348f585085d247789d86b1a87e8942c4a77ffadcefd0798f0b8f9249",
    "smallloop:5,0": "206617060896b6b6a51686bccd971effc22c2967cc872382382715472caef481",
    "random_loop:6,0": "e1f152946846d0d632da645c013acd868a9afeccdb74756a3d53e700c3b8b75b",
    "random_loop:8,1": "5d68f98bb05e1bd67f43fc8a33ce9986e077dc29753a7f9bd7b5c8f1fe2dcd34",
}

# sha256 of the stdout of ``decompose SPEC --verify-uniqueness`` for
# every ring entry: any change to a canonical family, corner signature,
# family list or class label moves one of them.
DECOMPOSE_SHA256 = {
    "cyclic:1": "3ad8cad6e9655ca06ad279f34366ae409b202b5246f9f7d0fe4222d252df961b",
    "cyclic:2": "09dda18b9889e8ee5dc3ac10f1069270afbfa9728a1079e7c844d9f2bffd6da5",
    "cyclic:3": "c1fba53f376f91f3884213fcb1e7ddc2f2878e91433eed8d19a61b07b5ea3f5d",
    "cyclic:4": "46bee78c88c6de50eb650760f05b6ef42a060961061b52da49d65d8ea019d6c8",
    "cyclic:5": "f7e932f3f87061601784e3c74ca670f05307c7786af6fea2a21eb0acbc3c4ce2",
    "cyclic:6": "9eb1d889b674a01820c8ed10b66e8a739df199f40b2113eb84b2f47a9bf2fdc1",
    "cyclic:7": "4171322d5794496b2b67ce06b1eadbf20b4b26fd5e919e2a5873caa5ca8a033f",
    "cyclic:8": "368daa0cf901c0eb84d626d24943536d79ea94e904bfe414dccb42332fececed",
    "cyclic:9": "fdaa65e1ff01a7ac4f50a7339a9ccc7b02391e9673f8b0b201d9211d1d010d27",
    "cyclic:10": "32429e31091a319553673ed13ec6b764c8cbfba1b3817f24917833cafb82f7b1",
    "cyclic:11": "4553c8bba4781e0e6926630c85b3ba0cf6a4185f50f4c2875b28d1ccd9662b81",
    "cyclic:12": "d5c33342257e23d0f35d5b9425c5d165fe88fa5bfb1d9a2bb69cb4062cc16051",
    "cyclic:13": "cf3fc2949daae4d47e634d27871691c13032ab0b5d21e26303c2748a2ffca4e8",
    "cyclic:14": "a7ad98feb2f1af7f3b4419783c6e28fbd2d541a9475a503084458c72aade9a2b",
    "cyclic:15": "85573ea4ed3dbcd7dbd550e4f4228f1bd3152b06385253610bffaf9fa571f993",
    "cyclic:16": "6ea51d90db9ba42e00263945142d8bbf030a457a25ec41fe27f70d6e71dcb9c6",
    "gf:4": "1dc58758f95085cf0d1703fffc1e2c39e0422ad1c880062aff4798109bcfccca",
    "product:cyclic:2+cyclic:2": "bd4d03b4bb6a7c9515da3dc3ebb40641778536e8792fe9beb8a60bf662da6ec2",
    "product:cyclic:2+cyclic:3": "4cb81a270870177680d989a149ad3d5d3847caa6912f885f4e64d71036bdb233",
    "product:cyclic:4+cyclic:2": "febd169e3cd7792c6600dfffd794b7d99ce38609636f68b6c745a0d44e19912e",
    "matrix:cyclic:2,2": "4e92fa96372a67c5ae18319d84343a0a91372cbc1b85aa36716bb65eb4f7fe2d",
    "matrix:cyclic:3,2": "510c937fa25f7db0c3d437cd08aa1a8a5e11106862849bec691adff4576570b2",
    "matrix:cyclic:4,2": "8abfb111397fb6037082ec6bf570f8d1e29a0653f1716d371853fa7f43284db1",
    "ut2:cyclic:2": "55b95e1addef97f936c6b1e1704804bc9fcac31ebee17a2a6a09e4f38c6e8055",
    "ut2:cyclic:3": "3607f745245c2d8631c7b114794d0a9350254632dac5ce9610f11dadd2fea942",
    "opposite:matrix:cyclic:2,2": "bf428789f91dc2461849183ca43e891b99b64c2f4d3c9fb292e91d04dc910e03",
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

    def test_streamed_file_is_the_canonical_json(self):
        for spec, _, _ in CATALOG:
            s = build(spec)
            want = canonical_json(structure_to_dict(s, {"name": spec, "µ": [1]}))
            assert dump_structure(s, meta={"name": spec, "µ": [1]}) == want, spec

    def test_catalog_hashes_are_pinned(self):
        assert list(CATALOG_SHA256) == [spec for spec, _, _ in CATALOG]
        for spec in CATALOG_SHA256:
            assert structure_sha256(build(spec)) == CATALOG_SHA256[spec], spec

    def test_full_analyze_reports_are_pinned(self, capsys):
        assert list(ANALYZE_SHA256) == [spec for spec, _, _ in CATALOG]
        for spec, kind, _ in CATALOG:
            flags = ["--subloops"] if kind == "loop" else [
                "--local", "--subloops", "--radical", "--idempotents"]
            assert main(["analyze", spec, *flags]) == 0, spec
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[spec], spec

    def test_decompose_reports_are_pinned(self, capsys):
        assert list(DECOMPOSE_SHA256) == [spec for spec, kind, _ in CATALOG if kind == "ring"]
        for spec, want in DECOMPOSE_SHA256.items():
            assert main(["decompose", spec, "--verify-uniqueness"]) == 0, spec
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == want, spec

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
            # an integer is ASCII -?[0-9]+, as JSON writes one
            "cyclic:1_0",
            "cyclic:\u0666",
            "cyclic:+6",
            "cyclic: 6",
            "gf:\uff14",
            "matrix:cyclic:2,\uff12",
            "smallloop:4,+1",
            "random_loop:4, 0",
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


def test_three_by_three_matrix_ring_matches_its_definition_on_sampled_rows():
    """k = 3 folds three terms per entry; 32 seeded rows of 512 keep it quick."""
    s = parse_spec("matrix:cyclic:2,3")
    n, add, mul, one = matrix_ops(zn_ops(2), 3)
    assert s.n == n == 512 and s.one == one
    for u in random.Random(0).sample(range(n), 32):
        assert s.add[u].tolist() == [add(u, v) for v in range(n)]
        assert s.mul[u].tolist() == [mul(u, v) for v in range(n)]

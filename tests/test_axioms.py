"""One axiom table: validators and ``check`` agree, with brute witnesses.

``tables.AXIOMS`` is the only place the loop, near-ring and ring axioms
are written down.  The validators raise its first failing row and
``check_report`` lists every failing row; these tests hold both to a
pure-Python triple loop, on tables near the corpus and on tables with
entries outside the carrier, including values that int16 would wrap.
"""

import json
import sys
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnr import (
    CATALOG,
    EntriesOutOfRange,
    FiniteRing,
    NotIdentity,
    RightDistributivityFails,
    StructureFile,
    ValidationError,
    check_report,
    corner_ring,
    idempotents,
    image_subring,
    induced,
    jacobson_radical,
    parse_spec,
    quotient_ring,
    realize,
    tables,
    validate_ideal,
    validate_lnr,
    validate_lnr_hom,
    validate_loop,
    validate_ring_tables,
)
from loopnr.cli import main
from loopnr.lattice import ClosureSystem
from loopnr.tables import AXIOMS, KINDS

import corpus

WRAP = 1 << 16

# valid structures with n <= 27, with the kind each is built as; those of
# order 6 and up have multiplicative generating sets of 2 or more elements,
# so the cubic rows are decided at several generators before any fallback.
# A ring scan of any of their tables asks the coordinate certificate first
# (see TestCertificate)
SPECS = (
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "gf:4",
    "product:cyclic:2+cyclic:2", "m:cyclic:2", "m0:cyclic:2",
    "nonassoc5", "smallloop:4,1", "smallloop:5,3", "random_loop:5,2",
    "ut2:cyclic:2", "m0:cyclic:3", "gf:8", "product:cyclic:2+cyclic:4",
    "matrix:cyclic:2,2", "cyclic:12", "ut2:cyclic:3", "product:cyclic:2+cyclic:2+cyclic:2",
    "cyclic:16",
)


@lru_cache(maxsize=None)
def base(spec):
    s = parse_spec(spec)
    if hasattr(s, "mul"):
        return s.n, s.add.tolist(), s.mul.tolist(), s.one
    return s.n, s.add.tolist(), None, None


def brute(kind, n, add, mul, one):
    """Every failing axiom of ``kind`` by plain loops: (axiom, witness)."""
    out = []
    r = range(n)

    def in_range(t):
        return all(0 <= v < n for row in t for v in row)

    def least(cells, bad):
        return next((tuple(c) for c in cells if bad(*c)), None)

    def hit(axiom, witness):
        if witness is not None:
            out.append((axiom, list(witness)))

    if not in_range(add):
        return [("entries-in-range", None)]
    lines = [("row", add[i]) for i in r] + [("col", [add[j][i] for j in r]) for i in r]
    for pos, (_, line) in enumerate(lines):
        if sorted(line) != list(r):
            hit("latin-square", (pos % n, min(v for v in line if line.count(v) > 1)))
            break
    hit("two-sided-zero", least(product(r), lambda a: add[0][a] != a or add[a][0] != a))
    if kind == "loop":
        return out
    if not in_range(mul):
        return out + [("entries-in-range", None)]
    if not 0 <= one < n:
        return out + [("mul-identity", [one])]
    hit("mul-identity", least(product(r), lambda a: mul[one][a] != a or mul[a][one] != a))
    hit("mul-associative", least(product(r, r, r),
        lambda a, b, c: mul[mul[a][b]][c] != mul[a][mul[b][c]]))
    hit("right-distributivity", least(product(r, r, r),
        lambda a, b, c: mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]))
    hit("zero-left-absorbing", least(product(r), lambda c: mul[0][c] != 0))
    if kind == "lnr":
        return out
    hit("abelian-addition", least(product(r, r), lambda a, b: add[a][b] != add[b][a]))
    hit("abelian-addition", least(product(r, r, r),
        lambda a, b, c: add[add[a][b]][c] != add[a][add[b][c]]))
    hit("left-distributivity", least(product(r, r, r),
        lambda a, b, c: mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]))
    return out


def cyclic_product(orders):
    """The tables of Z_m1 x ... x Z_mk, an element being its digits in
    mixed radix, first digit most significant, as nested lists."""
    digits = tables.decode_all(int(np.prod(orders)), orders).astype(np.int64)
    w, m = tables.mixed_radix_weights(orders), np.asarray(orders)
    add, mul = ((op(digits[:, None], digits[None, :]) % m) @ w for op in (np.add, np.multiply))
    return len(digits), add.tolist(), mul.tolist(), int(1 % m @ w)


@st.composite
def near_valid(draw):
    if draw(st.booleans()):
        spec = draw(st.sampled_from(SPECS))
        n, add, mul, one = base(spec)
    else:
        # a product of 1-3 cyclic tables, relabelled along a permutation fixing 0
        orders = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
            lambda m: np.prod(m) <= 16))
        n, add, mul, one = cyclic_product(orders)
        new = [0] + draw(st.permutations(range(1, n)))
        old = np.argsort(new)
        add, mul = (np.asarray(new)[np.asarray(t)[old[:, None], old]].tolist() for t in (add, mul))
        one = new[one]
    add = [row[:] for row in add]
    mul = None if mul is None else [row[:] for row in mul]
    # a near-ring table may be declared as any kind, a loop table only as a loop
    kind = draw(st.sampled_from(KINDS if mul is not None else ("loop",)))
    if kind == "loop":
        mul = one = None
    names = ("add",) if mul is None else ("add", "mul")
    for _ in range(draw(st.integers(0, 2))):
        t = add if draw(st.sampled_from(names)) == "add" else mul
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        old = t[i][j]
        t[i][j] = draw(st.one_of(
            st.integers(0, n - 1),
            st.integers(-3, -1),
            st.integers(n, n + 3),
            st.sampled_from((old + WRAP, old - WRAP, old + WRAP + 1, 2 ** 70)),
        ))
    if mul is not None and draw(st.booleans()):
        one = draw(st.integers(-2, n + 1))
    return StructureFile(kind=kind, n=n, add=add, mul=mul, one=one)


@settings(max_examples=400)
@given(near_valid())
def test_check_agrees_with_realize_and_brute(sf):
    report = check_report(sf.kind, sf.n, sf.add, sf.mul, sf.one, "x")
    got = [(v["axiom"], v["witness"]) for v in report["violations"]]
    assert got == brute(sf.kind, sf.n, sf.add, sf.mul, sf.one)
    try:
        realize(sf)
    except ValidationError as exc:
        assert not report["valid"]
        first = report["violations"][0]
        assert exc.axiom == first["axiom"]
        assert (None if exc.witness is None else list(exc.witness)) == first["witness"]
        assert str(exc) == first["message"]
    else:
        assert report["valid"]


class TestWraparound:
    def test_loop_entry_past_int16(self):
        with pytest.raises(EntriesOutOfRange) as exc:
            validate_loop([[0, 1], [1, 65536]])
        assert exc.value.axiom == "entries-in-range"
        assert exc.value.witness is None

    def test_ring_mul_entry_past_int16(self):
        ring = parse_spec("cyclic:3")
        mul = ring.mul.tolist()
        mul[2][2] = 65537                  # narrows to 1 = 2*2 mod 3
        with pytest.raises(EntriesOutOfRange) as exc:
            validate_ring_tables(ring.add.tolist(), mul, ring.one)
        assert exc.value.axiom == "entries-in-range"
        assert str(exc.value) == "mul entries outside 0..n-1"

    def test_check_lists_range_first(self):
        add = [[0, 1], [1, 65536]]
        report = check_report("ring", 2, add, [[0, 0], [0, 1]], 1, "w")
        assert [v["axiom"] for v in report["violations"]] == ["entries-in-range"]

    def test_entries_beyond_int64(self):
        with pytest.raises(EntriesOutOfRange):
            validate_loop([[0, 1], [1, 2 ** 70]])
        report = check_report("loop", 2, [[0, 1], [1, -2 ** 70]], None, None, "w")
        assert report["violations"][0]["axiom"] == "entries-in-range"

    @pytest.mark.parametrize("big", [2 ** 63, 2 ** 64 - 1])
    def test_entries_past_int64_that_fit_uint64(self, big):
        # beside small ints, NumPy reads these lists as float64
        with pytest.raises(EntriesOutOfRange):
            validate_loop([[0, 1], [1, big]])
        assert tables.as_table([[0, big], [1, 0]]).tolist() == [[0, -1], [1, 0]]
        with pytest.raises(ValueError, match="entries must be integers"):
            tables.as_table([[0, 1.0], [1, 0]])

    def test_as_table_marks_out_of_range(self):
        t = tables.as_table(np.array([[0, 1], [1, 65536]], dtype=np.int64))
        assert t.dtype == tables.DTYPE and t.tolist() == [[0, 1], [1, -1]]
        assert not t.flags.writeable

    def test_as_table_is_in_c_order(self):
        # the right-distributive tree pass reads the table's flat view; a
        # column-major input must not reach it as one
        t = tables.as_table(np.asfortranarray([[0, 1, 2], [1, 2, 0], [2, 0, 1]]))
        assert t.flags.c_contiguous and t.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


class TestAxiomTable:
    def test_every_kind_has_rows_and_range_rows_stop(self):
        assert {row.kind for row in AXIOMS} == set(KINDS)
        for row in AXIOMS:
            assert issubclass(row.error, ValidationError)
            if row.error is EntriesOutOfRange:
                assert row.stop

    def test_lnr_on_validated_loop_skips_loop_rows(self, monkeypatch):
        ring = parse_spec("cyclic:3")
        loop = validate_loop(ring.add)
        calls = []
        monkeypatch.setattr(tables, "latin_witness", lambda t: calls.append(t))
        nr = validate_lnr(loop, ring.mul, 1)
        assert nr.add is loop.add and calls == []

    def test_validators_raise_check_message_and_witness(self):
        add = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
        with pytest.raises(ValidationError) as exc:
            validate_loop(add)
        first = check_report("loop", 3, add, None, None, "x")["violations"][0]
        assert (exc.value.axiom, str(exc.value), list(exc.value.witness)) == (
            first["axiom"], first["message"], first["witness"])
        assert str(exc.value) == "duplicate 1 in add row 1"


class TestGeneratorRoute:
    @pytest.mark.parametrize("spec", SPECS)
    def test_specs_have_the_generating_sets_they_claim(self, spec):
        s = parse_spec(spec)
        op = getattr(s, "mul", s.add)
        if s.n >= 6:
            assert len(list(ClosureSystem(s.n, (op,)).generating_set())) >= 2

    @pytest.mark.parametrize("argv", [
        ("check", "cyclic:256"), ("analyze", "cyclic:256"),
        ("check", "m0:nonassoc5"), ("analyze", "m0:nonassoc5"),
        ("check", "matrix:cyclic:4,2"),
    ])
    def test_valid_structures_never_block_scan(self, argv, monkeypatch, capsys):
        # every law holds, so each cubic row is decided at generators alone
        calls = []
        monkeypatch.setattr(tables, "_first_bad", lambda *a: calls.append(a))
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert calls == []

    def test_failing_row_falls_back_to_the_block_scan(self, monkeypatch):
        ring = parse_spec("gf:8")
        mul = ring.mul.copy()
        mul[3, 5] = mul[5, 3] = 0
        calls = []
        scan = tables._first_bad
        monkeypatch.setattr(tables, "_first_bad", lambda *a: calls.append(1) or scan(*a))
        assert tables.assoc_witness(mul) is not None and calls == [1]


class TestLightOnce:
    @pytest.fixture
    def mul_scans(self, monkeypatch):
        """The first table of every generating set grown, as a list."""
        seen = []
        grow = ClosureSystem.generating_set
        monkeypatch.setattr(ClosureSystem, "generating_set", lambda self: seen.append(
            self.binary[0].tolist()) or grow(self))
        return seen

    @pytest.mark.parametrize("spec", ["cyclic:12", "gf:8", "matrix:cyclic:2,2", "ut2:cyclic:3"])
    def test_no_generating_set_per_ring_validation(self, spec, mul_scans, monkeypatch):
        n, add, mul, one = base(spec)
        drawn = []   # the members drawn from each generating set grown

        def counted(self, grow=ClosureSystem.generating_set):
            drawn.append(0)
            for x in grow(self):
                drawn[-1] += 1
                yield x

        monkeypatch.setattr(ClosureSystem, "generating_set", counted)
        mul_scans.clear()  # base builds the structure on its first call
        drawn.clear()
        validate_ring_tables(add, mul, one)
        # the coordinate certificate grows no set of + or of *
        assert mul_scans == [] and drawn == []

    def test_failing_light_grows_no_further(self):
        # Light's test runs at each member as it is grown: here the set
        # starts with one = 10, skipped, and the test fails at the next
        n, add, mul, one = base("ut2:cyclic:3")
        op = np.array(mul)
        op[1, 2] = (op[1, 2] + 1) % n
        light = tables.Light(op)
        assert light.generators is None
        assert light._members == [one, 11]
        assert len(list(ClosureSystem(n, (op,)).generating_set())) == 6

    def test_corrupted_mul_fails_the_certificate_before_any_growth(self, mul_scans):
        # the certificate's spanning-tree pass reads every entry of mul: one
        # changed entry fails it before a set of + or * is grown, so a
        # validation stopping at the first failing row grows only the set
        # of * that its Light's test needs
        n, add, mul, one = base("cyclic:12")
        mul = [row[:] for row in mul]
        mul[5][7] = (mul[5][7] + 1) % n
        mul_scans.clear()
        with pytest.raises(ValidationError, match="not associative"):
            validate_ring_tables(add, mul, one)
        assert mul_scans == [mul]

    @pytest.mark.parametrize("derive", ["corner_ring", "quotient_ring", "image_subring"])
    def test_derived_ring_grows_no_generating_set(self, derive, mul_scans):
        # the derived ring inherits its parent's laws: no Light's test runs
        ring = parse_spec("ut2:cyclic:3")  # fresh: corners are cached per ring
        if derive == "corner_ring":
            e = min(e for e in idempotents(ring) if e not in (ring.zero, ring.one))
            mul_scans.clear()
            sub = corner_ring(ring, e).ring
        elif derive == "quotient_ring":
            j = jacobson_radical(ring)
            mul_scans.clear()
            sub = quotient_ring(ring, j).target
        else:
            # Z/4 onto {0, 5, 10, 15} in Z/4 x Z/4, whose identity is 5
            target = parse_spec("product:cyclic:4+cyclic:4")
            hom = validate_lnr_hom([5 * x for x in range(4)], parse_spec("cyclic:4"), target)
            mul_scans.clear()
            sub = image_subring(hom).target
        assert type(sub) is FiniteRing
        assert mul_scans == []

    def test_one_per_near_ring_validation(self, mul_scans):
        # the near-ring rows need no verdict on +, so none is grown
        n, add, mul, one = base("m0:cyclic:3")
        mul_scans.clear()
        validate_lnr(add, mul, one)
        assert mul_scans.count(mul) == 1 and mul_scans.count(add) == 0

    def test_one_per_check_with_every_failing_row(self, mul_scans):
        # * is not associative: all three rows that need Light's verdict on
        # * fail and are listed, from one generating set; + is certified,
        # so no set of + is grown
        n, add, mul, one = base("gf:8")
        mul_scans.clear()
        mul = [row[:] for row in mul]
        mul[3][5] = mul[5][3] = 0
        got = [v["axiom"] for v in check_report("ring", n, add, mul, one, "x")["violations"]]
        assert got == [a for a, _ in brute("ring", n, add, mul, one)]
        assert {"mul-associative", "right-distributivity", "left-distributivity"} <= set(got)
        assert mul_scans.count(mul) == 1 and mul_scans.count(add) == 0


def f2_cubed_algebra(seed=2):
    """A unital bilinear product on F2^3 (+ is XOR): basis e0 = 1, e1 = 2,
    e2 = 4, with e0 the identity and the products e_i e_j (i, j >= 1)
    drawn from ``seed``.  Every axiom holds but associativity of *."""
    rng = np.random.default_rng(seed)
    c = np.zeros((3, 3), dtype=np.int64)
    c[0] = c[:, 0] = [1, 2, 4]
    c[1:, 1:] = rng.integers(0, 8, (2, 2))
    x = np.arange(8)
    bit = (x[:, None] >> np.arange(3)) & 1   # bit[x, i]: coordinate i of x
    mul = np.zeros((8, 8), dtype=np.int64)
    for i, j in product(range(3), repeat=2):
        mul ^= np.where(bit[:, i, None] & bit[None, :, j], c[i, j], 0)
    return (x[:, None] ^ x).tolist(), mul.tolist()


def relabelled(add, mul, rng):
    """Copies of the tables relabelled along a permutation that fixes 0,
    drawn from ``rng``, as int64 arrays, and the permutation (x is named
    new[x])."""
    n = len(add)
    new = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    old = np.argsort(new)
    return (*(new[np.asarray(t)[old[:, None], old]] for t in (add, mul)), new)


class TestCertificate:
    """A ring scan asks the coordinate certificate first: ``+`` as
    Z_m1 x ... x Z_mk along a basis, then the laws of ``*`` read off that
    basis.  A failure there hands the scan to the ordered rows, so
    ``check`` and the validators report exactly what the brute loops
    find.  Each refusal case below is the only one its check decides."""

    @pytest.mark.parametrize("spec", dict.fromkeys(
        [spec for spec, kind, n in CATALOG if kind == "ring"]
        + ["gf:8", "gf:256", "product:matrix:cyclic:2,2+matrix:cyclic:2,2"]))
    def test_every_ring_and_a_relabelled_copy_is_certified(self, spec, monkeypatch):
        ring = parse_spec(spec)
        grown = []
        grow = ClosureSystem.generating_set
        monkeypatch.setattr(ClosureSystem, "generating_set", lambda self: grown.append(
            self.binary[0]) or grow(self))
        for add, mul in ((ring.add, ring.mul), relabelled(ring.add, ring.mul, np.random.default_rng(ring.n))[:2]):
            lights = tables.Lights(tables.Light(tables.as_table(mul)), tables.Light(tables.as_table(add)))
            assert lights.ring and int(np.prod(lights.basis.orders)) == ring.n
            assert sorted(lights.basis.phi.tolist()) == list(range(ring.n))
        # no Light's test runs, and no generating set is grown
        validate_ring_tables(ring.add, ring.mul, ring.one)
        assert grown == []

    @staticmethod
    def assert_check_is_brute(add, mul, one, want):
        n = len(add)
        got = [(v["axiom"], v["witness"])
               for v in check_report("ring", n, add, mul, one, "x")["violations"]]
        assert got == brute("ring", n, add, mul, one)
        assert [a for a, _ in got] == want

    @pytest.mark.parametrize("spec", ["S3", "nonassoc5"])
    def test_plus_check_refuses_a_group_or_loop_that_is_not_abelian(self, spec):
        if spec == "S3":
            # S3 in the order 1, r, r^2, s, sr, sr^2: a group
            perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
            index = {p: i for i, p in enumerate(perms)}
            add = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
        else:
            # relabelled by 1 <-> 2, so that the search's first pick, 1,
            # has distinct multiples 0, 1, 4, 2, 3 (in nonassoc5, 1 + 1 = 0)
            swap = np.array([0, 2, 1, 3, 4])
            add = swap[parse_spec(spec).add[swap[:, None], swap]].tolist()
        n, _, mul, one = base(f"cyclic:{len(add)}")
        # the search finds a one-to-one phi; the + check refuses it
        assert tables._search(tables.as_table(add)) is not None
        lights = tables.Lights(tables.Light(tables.as_table(mul)), tables.Light(tables.as_table(add)))
        assert lights.basis is None and not lights.ring
        want = ["right-distributivity", "abelian-addition", "left-distributivity"]
        if spec == "nonassoc5":
            want[2:2] = ["abelian-addition"]
        self.assert_check_is_brute(add, mul, one, want)

    def test_row_zero_check_refuses_a_shifted_table(self):
        # x + rho(y) in Z6: every row phi(t) is its parent row followed by
        # the unit step of its digit, but row 0 is rho, not the identity
        rho = [0, 3, 2, 5, 4, 1]
        add = [[(x + r) % 6 for r in rho] for x in range(6)]
        n, _, mul, one = base("cyclic:6")
        assert tables._search(tables.as_table(add)) is not None
        lights = tables.Lights(tables.Light(tables.as_table(mul)), tables.Light(tables.as_table(add)))
        assert lights.basis is None
        self.assert_check_is_brute(add, mul, one, [
            "two-sided-zero", "right-distributivity", "abelian-addition", "abelian-addition",
            "left-distributivity"])

    def test_one_to_one_check_refuses_a_phi_with_a_repeated_entry(self, monkeypatch):
        # phi = (1, 1) along g = 1 of order 2, on a table whose row 0 is the
        # identity and whose row 1 is all 1s: the tree pass reads only row 1,
        # where every entry is a value of phi, so only the sort check refuses
        # it.  No search gives such a phi: it starts at phi(0) = 0.
        add = tables.as_table([[0, 1], [1, 1]])
        monkeypatch.setattr(tables, "_search", lambda op: tables.Basis(
            (1,), (2,), np.array([1, 1], dtype=op.dtype)))
        assert tables.Lights(tables.Light(add), tables.Light(add)).basis is None

    def test_basis_order_check_refuses_a_map_that_is_not_well_defined(self):
        # + is Z4 x Z2 along the basis g1, g2 found; x*c = d1 (g1 c) + d2 (g2 c)
        # for x = phi(d) passes the spanning-tree pass, with g1 the identity,
        # but g2 * g2 = g1 has order 4 > 2, so (g2 + g2) * g2 = 0 != g1 + g1
        n, add, _, _ = cyclic_product([4, 2])
        basis = tables._search(tables.as_table(add))
        assert basis.orders == (4, 2)
        g1, g2 = basis.generators
        v = np.zeros(n, dtype=np.int64)
        v[[g1, g2]] = g2, g1   # row g2 of mul
        digits = tables.decode_all(n, (2, 4))   # phi[t] has digits t // 4, t % 4
        mul = np.zeros((n, n), dtype=np.int64)
        for t, (d2, d1) in enumerate(digits):
            row = 0 * v
            for _ in range(d1):
                row = np.asarray(add)[row, np.arange(n)]
            for _ in range(d2):
                row = np.asarray(add)[row, v]
            mul[basis.phi[t]] = row
        lights = tables.Lights(tables.Light(tables.as_table(mul)), tables.Light(tables.as_table(add)))
        assert lights.basis is not None and not lights.right
        self.assert_check_is_brute(add, mul.tolist(), g1, [
            "mul-associative", "right-distributivity", "left-distributivity"])

    def test_left_distributivity_at_the_basis_refuses_a_near_ring_file(self, tmp_path, capsys):
        # M0(Z/3) written as a ring: + is Z3 and * associative and right
        # distributive, so only left distributivity at the basis rows fails
        n, add, mul, one = base("m0:cyclic:3")
        p = tmp_path / "m0c3.json"
        p.write_text(json.dumps({"kind": "ring", "n": n, "add": add, "mul": mul, "one": one}))
        assert main(["check", str(p)]) == 1
        got = [(v["axiom"], v["witness"]) for v in json.loads(capsys.readouterr().out)["violations"]]
        assert got == brute("ring", n, add, mul, one) == [("left-distributivity", got[0][1])]
        lights = tables.Lights(tables.Light(tables.as_table(mul)), tables.Light(tables.as_table(add)))
        assert lights.basis is not None and lights.right and not lights.ring

    def test_basis_cubed_refuses_a_non_associative_algebra(self):
        # a unital bilinear product on Z2^3: both distributive laws hold
        add, mul = f2_cubed_algebra()
        lights = tables.Lights(tables.Light(tables.as_table(mul)), tables.Light(tables.as_table(add)))
        assert lights.basis is not None and lights.right and not lights.ring
        self.assert_check_is_brute(add, mul, 1, ["mul-associative"])

    def test_not_latin_takes_the_ordered_scan(self):
        # Z/4 with add[1][1] = 3: the loop rows fail, so no basis is
        # certified, and every later failing row is still listed
        n, add, mul, one = base("cyclic:4")
        add = [row[:] for row in add]
        add[1][1] = 3
        assert tables._search(tables.as_table(add)) is None or not tables._is_basis(
            tables.as_table(add), tables._search(tables.as_table(add)))
        want = ["latin-square", "right-distributivity", "abelian-addition",
                "left-distributivity"]
        self.assert_check_is_brute(add, mul, one, want)

    def test_zero_is_kept_when_add_is_not_a_loop(self):
        # a + b = a for a, b != 0 is associative with zero 0 but not a loop:
        # no sum of the other elements is 0
        add = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
        mul = [[0, 0, 0], [0, 1, 2], [2, 2, 1]]
        want = ["latin-square", "mul-identity", "mul-associative", "right-distributivity",
                "abelian-addition", "left-distributivity"]
        self.assert_check_is_brute(add, mul, 0, want)


class TestLatinCertificate:
    """In a ring scan of the law rows, once every row of ``+`` is a
    permutation, the Latin row asks the basis of ``+`` in place of its
    column sort; a ``+`` that fails the certificate has its columns
    sorted, and ``check`` and the validators report the same witness."""

    @staticmethod
    def sorted_lines(monkeypatch):
        """Patch tables._first_repeat to record which lines each call
        sorts: "row" for a table, "col" for its transpose."""
        seen = []
        first_repeat = tables._first_repeat
        monkeypatch.setattr(tables, "_first_repeat", lambda lines: seen.append(
            "col" if lines.strides[0] < lines.strides[1] else "row") or first_repeat(lines))
        return seen

    @staticmethod
    def write(path, n, add, mul, one):
        path.write_text(json.dumps({"kind": "ring", "n": n, "add": np.asarray(add).tolist(),
                                    "mul": np.asarray(mul).tolist(), "one": int(one)}))
        return str(path)

    @pytest.mark.parametrize("spec", ["cyclic:16", "gf:8", "ut2:cyclic:3",
                                      "product:matrix:cyclic:2,2+cyclic:2"])
    def test_a_clean_ring_file_runs_no_column_sort(self, spec, tmp_path, monkeypatch, capsys):
        ring = parse_spec(spec)
        add, mul, new = relabelled(ring.add, ring.mul, np.random.default_rng(ring.n))
        path = self.write(tmp_path / "ring.json", ring.n, add, mul, new[ring.one])
        seen = self.sorted_lines(monkeypatch)
        assert main(["check", path]) == 0
        assert json.loads(capsys.readouterr().out)["valid"]
        assert seen == ["row"]
        assert main(["analyze", path]) == 0
        assert seen == ["row", "row"]

    def test_a_loop_and_a_near_ring_still_sort_both_orientations(self, monkeypatch):
        ring = parse_spec("cyclic:6")
        seen = self.sorted_lines(monkeypatch)
        validate_loop(ring.add)
        validate_lnr(ring.add, ring.mul, ring.one)
        assert seen == ["row", "col", "row", "col"]

    def test_a_row_with_two_entries_swapped_takes_the_column_sort(
            self, tmp_path, monkeypatch, capsys):
        # Z16 with add[5][2] and add[5][9] swapped: every row is still a
        # permutation, the certificate fails, and the column sort finds 14
        # twice in column 2
        n, add, mul, one = base("cyclic:16")
        add = [row[:] for row in add]
        add[5][2], add[5][9] = add[5][9], add[5][2]
        lights = tables.Lights(tables.Light(tables.as_table(mul)), tables.Light(tables.as_table(add)))
        assert lights.basis is None
        path = self.write(tmp_path / "swapped.json", n, add, mul, one)
        seen = self.sorted_lines(monkeypatch)
        assert main(["check", path]) == 1
        found = json.loads(capsys.readouterr().out)["violations"]
        assert found[0]["message"] == "duplicate 14 in add col 2"
        got = [(v["axiom"], v["witness"]) for v in found]
        assert got[0] == ("latin-square", [2, 14])
        assert got == brute("ring", n, add, mul, one)
        assert seen == ["row", "col"]
        with pytest.raises(ValidationError) as exc:
            validate_ring_tables(add, mul, one)
        assert (exc.value.axiom, str(exc.value)) == ("latin-square", "duplicate 14 in add col 2")


def derived_images():
    """The homomorphic images the hom tests build, by name."""
    yield from corpus.unit_reflecting_hom_corpus()
    z4, zz22, zz44 = corpus.z(4), corpus.zz(2, 2), corpus.zz(4, 4)
    yield "id z4", validate_lnr_hom(range(4), z4, z4)
    yield "diag z4", validate_lnr_hom([5 * x for x in range(4)], z4, zz44)
    yield "z4 -> z1", validate_lnr_hom([0, 0, 0, 0], z4, corpus.z(1))
    yield "z2 -> z2 x z2", validate_lnr_hom([0, 3], corpus.z(2), zz22)
    yield "z6 -> z3", validate_lnr_hom([x % 3 for x in range(6)], corpus.z(6), corpus.z(3))
    yield "m(z2) -> z2", validate_lnr_hom([0, 1, 1, 0], corpus.m_full(2), corpus.z(2))


class TestInheritedLaws:
    """``induced`` scans no law row of AXIOMS: what it builds is a subring
    or an image of a certified ring.  The full scan and the brute loops
    find every row satisfied on every derived ring, and the closure and
    identity rows still refuse what is not one."""

    @staticmethod
    def assert_every_row_holds(ring, name):
        assert list(tables.violations(ring.add, ring.mul, ring.one)) == [], name
        assert brute("ring", ring.n, ring.add.tolist(), ring.mul.tolist(), ring.one) == [], name

    @pytest.mark.parametrize(
        "spec", [spec for spec, kind, n in CATALOG if kind == "ring" and n <= 64])
    def test_corners_and_radical_quotient(self, spec):
        ring = parse_spec(spec)
        for e in idempotents(ring):
            if e != ring.zero:
                self.assert_every_row_holds(corner_ring(ring, e).ring, f"{spec} corner {e}")
        self.assert_every_row_holds(quotient_ring(ring, jacobson_radical(ring)).target,
                                    f"{spec} A/J")

    def test_images(self):
        for name, hom in derived_images():
            img = image_subring(hom)
            self.assert_every_row_holds(img.target, name)
            # the corestriction is built without a scan; the full scan of
            # + and * finds it a homomorphism onto all of the image ring
            validate_lnr_hom(img.map, img.source, img.target)
            assert img.image.members == frozenset(range(img.target.n)), name

    def test_carrier_not_closed_is_out_of_range(self):
        ring = parse_spec("cyclic:6")
        with pytest.raises(EntriesOutOfRange):
            induced(ring, [0, 1], 1)  # 1 + 1 = 2

    def test_identity_outside_the_carrier(self):
        ring = parse_spec("cyclic:6")
        with pytest.raises(NotIdentity):
            induced(ring, [0, 3], 1)
        assert induced(ring, [0, 3], 3).mul.tolist() == [[0, 0], [0, 1]]

    @pytest.mark.parametrize("spec, one, message", [
        ("cyclic:2", -1, "^-1 outside the carrier$"),
        ("cyclic:4", 1.0, "^1.0 is not an integer$"),
        ("cyclic:4", True, "^True is not an integer$"),
    ])
    def test_identity_passes_the_element_gate(self, spec, one, message):
        # -1 is not read as the last element, nor 1.0 and True as 1
        ring = parse_spec(spec)
        with pytest.raises(ValueError, match=message):
            induced(ring, range(ring.n), one)

    def test_carrier_is_sorted_and_deduplicated(self):
        ring = parse_spec("cyclic:6")
        a, b = induced(ring, [3, 0, 3], 3), induced(ring, [0, 3], 3)
        assert (a.n, a.one, a.add.tolist(), a.mul.tolist()) == (b.n, b.one, b.add.tolist(),
                                                                 b.mul.tolist())
        with pytest.raises(ValueError, match="^6 outside the carrier$"):
            induced(ring, [0, 6], 0)

    def test_induced_scans_no_law_row(self, monkeypatch):
        # a corner, a subring and A/J: each takes its parent's law rows
        # on trust, and only the closure and identity rows are scanned
        ring = parse_spec("cyclic:6")
        scans = []
        require = tables.require

        def recording(*args, **kw):
            scans.append(kw.get("laws", True))
            return require(*args, **kw)

        monkeypatch.setattr(tables, "require", recording)
        assert induced(ring, [0, 3], 3).n == 2
        assert induced(ring, [0, 2, 4], 4).n == 3
        quotient = quotient_ring(ring, validate_ideal(ring, [0, 3]))
        assert quotient.target.mul.tolist() == corpus.z(3).mul.tolist()
        assert scans == [False, False, False]


def least_assoc_witness(op):
    n = len(op)
    return next(((a, b, c) for a, b, c in product(range(n), repeat=3)
                 if op[op[a][b]][c] != op[a][op[b][c]]), None)


class TestFirstBad:
    @pytest.mark.parametrize("cap", [None, 4])
    def test_witness_in_the_last_row_crosses_every_block(self, cap, monkeypatch):
        # op is 0 except op[n-1, 0] = 1, so (a b) c = a (b c) for every
        # a < n-1, and (n-1, 0, 0) is the least witness
        n = 20
        op = np.zeros((n, n), dtype=np.int16)
        op[n - 1, 0] = 1
        if cap is not None:
            monkeypatch.setattr(tables, "_BLOCK_ELEMS", cap * n * n)
        rows = []
        scan = tables._first_bad
        monkeypatch.setattr(tables, "_first_bad", lambda n, block: scan(
            n, lambda r: rows.append((r.start, min(r.stop, n))) or block(r)))
        assert tables.assoc_witness(op) == least_assoc_witness(op.tolist()) == (n - 1, 0, 0)
        # blocks of 1, 2, 4, ... rows, capped, covering every row in order
        sizes = [b - a for a, b in rows]
        assert rows[0][0] == 0 and rows[-1][1] == n
        assert all(b == c for (_, b), (c, _) in zip(rows, rows[1:]))
        want = [1, 2, 4, 8, 5] if cap is None else [1, 2, 4, 4, 4, 4, 1]
        assert sizes == want

    @given(st.integers(1, 12), st.integers(0, 10 ** 6))
    def test_matches_the_triple_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        op = rng.integers(0, max(1, n // 3), (n, n)).astype(np.int16)
        assert tables._first_bad(n, lambda r: (op[op[r]], op[r][:, op])) == least_assoc_witness(
            op.tolist())


def least_left_dist_witness(add, mul):
    n = len(add)
    return next(((a, b, c) for a, b, c in product(range(n), repeat=3)
                 if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]), None)


@st.composite
def one_entry_off(draw):
    """A ring table, or m0:cyclic:3 (not left distributive), with one
    entry of ``add`` or ``mul`` changed."""
    spec = draw(st.sampled_from([f"cyclic:{k}" for k in range(3, 17)]
                                + ["ut2:cyclic:3", "matrix:cyclic:2,2", "m0:cyclic:3"]))
    n, add, mul, _ = base(spec)
    which = draw(st.sampled_from(("add", "mul")))
    t = [row[:] for row in (add if which == "add" else mul)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    t[i][j] = (t[i][j] + draw(st.integers(1, n - 1))) % n
    return (t, mul) if which == "add" else (add, t)


class TestLeftDistributivity:
    @settings(max_examples=200)
    @given(one_entry_off())
    def test_least_witness_matches_the_triple_loop(self, pair):
        add, mul = (tables.as_table(t) for t in pair)
        rows = []
        scan = tables._first_bad
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables, "_first_bad", lambda n, block, start=0: scan(
                n, lambda r: rows.append(r) or block(r), start))
            got = tables.left_dist_witness(add, mul)
        assert got == least_left_dist_witness(*pair)
        if got is None:
            assert rows == []
        elif tables.Lights(tables.Light(mul), tables.Light(add)).basis is not None:
            # + is certified: only the least bad row is scanned
            assert [(r.start, r.stop) for r in rows] == [(got[0], got[0] + 1)]
        else:
            # + is not: the block scan runs from row 0
            assert rows[0].start == 0 and rows[-1].start <= got[0] < rows[-1].stop

    def test_nonassociative_addition_takes_the_block_scan(self, monkeypatch):
        # (1 + 1) + 1 = 0 but 1 + (1 + 1) = 1 in this add; mul is Z/3's
        n, add, mul, one = base("cyclic:3")
        add = [row[:] for row in add]
        add[1][1], add[1][2] = 0, 1
        assert tables.Light(tables.as_table(add)).generators is None
        rows = []
        scan = tables._first_bad
        monkeypatch.setattr(tables, "_first_bad", lambda n, block, start=0: scan(
            n, lambda r: rows.append(r.start) or block(r), start))
        got = tables.left_dist_witness(tables.as_table(add), tables.as_table(mul))
        assert got == least_left_dist_witness(add, mul) is not None
        assert rows[0] == 0

    def test_law_holding_at_s_star_makes_no_block_scan(self, monkeypatch):
        # m0:nonassoc5's + is not associative, so it has no certified
        # basis; its transposed * is a monoid, and left distributivity
        # holds at that monoid's generating set S*
        nr = parse_spec("m0:nonassoc5")
        callers, left = [], []
        scan, witness = tables._first_bad, tables.left_dist_witness
        monkeypatch.setattr(tables, "_first_bad", lambda n, block, start=0: callers.append(
            sys._getframe(1).f_code.co_name) or scan(n, block, start))
        monkeypatch.setattr(tables, "left_dist_witness", lambda *args: left.append(
            witness(*args)) or left[-1])
        found = [(error.axiom, w) for error, _, w in
                 tables.violations(nr.add, nr.mul.T.copy(), nr.one, kind="ring")]
        assert found == [("right-distributivity", (1, 1, 250)),
                         ("abelian-addition", (2, 3)), ("abelian-addition", (1, 1, 2))]
        assert left == [None] and "left_dist_witness" not in callers
        assert "right_dist_witness" in callers


def corrupted_relabelled(spec, seed):
    """The tables of ``spec`` relabelled along a random permutation that
    fixes 0, with one entry of ``mul`` changed, as int16 arrays."""
    n, add, mul, _ = base(spec)
    rng = np.random.default_rng(seed)
    add, mul, _ = relabelled(add, mul, rng)
    i, j = rng.integers(0, n, 2)
    mul[i, j] = (mul[i, j] + rng.integers(1, n)) % n
    return tables.as_table(add), tables.as_table(mul)


class TestNonadditiveRow:
    """One pass at the certified basis of ``+``, ``_first_nonadditive_row``,
    decides left distributivity and finds the row of its least witness."""

    @staticmethod
    def passes(add, mul):
        """The basis that a ring scan certifies."""
        return tables.Lights(tables.Light(mul), tables.Light(add)).basis.generators

    @pytest.mark.parametrize("spec", [spec for spec, kind, n in CATALOG if kind == "ring"])
    def test_none_on_every_catalog_ring(self, spec):
        ring = parse_spec(spec)
        plus = self.passes(ring.add, ring.mul)
        assert tables._first_nonadditive_row(ring.mul, ring.add, plus) is None

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("spec", ["cyclic:16", "gf:8", "ut2:cyclic:3", "matrix:cyclic:2,2"])
    def test_least_row_of_a_corrupted_relabelled_table(self, spec, seed):
        add, mul = corrupted_relabelled(spec, seed)
        want = least_left_dist_witness(add.tolist(), mul.tolist())
        plus = self.passes(add, mul)
        # with 0 left out of the basis or kept, the least row is the brute loop's
        for s in (plus, [0, *plus]):
            assert tables._first_nonadditive_row(mul, add, s) == (want and want[0])

    @pytest.mark.parametrize("spec, seed", [("cyclic:16", 0), ("ut2:cyclic:3", 1),
                                            ("matrix:cyclic:2,2", 2), ("m0:cyclic:3", None)])
    def test_a_failing_law_makes_no_other_pass_at_the_basis(self, spec, seed, monkeypatch):
        if seed is None:
            n, add, mul, _ = base(spec)   # a near-ring: left distributivity fails
            add, mul = tables.as_table(add), tables.as_table(mul)
        else:
            add, mul = corrupted_relabelled(spec, seed)
        lights = tables.Lights(tables.Light(mul), tables.Light(add))
        assert lights.basis is not None   # + is certified
        rows, agreed = [], []
        first, agree = tables._first_nonadditive_row, tables._agree
        monkeypatch.setattr(tables, "_first_nonadditive_row",
                            lambda *a, **kw: rows.append(first(*a, **kw)) or rows[-1])
        monkeypatch.setattr(tables, "_agree", lambda n, pair: agreed.append(n) or agree(n, pair))
        got = tables.left_dist_witness(add, mul, lights)
        assert got == least_left_dist_witness(add.tolist(), mul.tolist()) is not None
        # one pass at the basis found the row; no pass per member, none of S*
        assert rows == [got[0]] and agreed == [] and lights.mul._members == []


def least_right_dist_witness(add, mul):
    n = len(add)
    return next(((a, b, c) for a, b, c in product(range(n), repeat=3)
                 if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]), None)


class TestEndomorphismPass:
    """The S* distributive pass compares v(a + b) with v(a) + v(b) for a
    map v of ``*``; near-ring scans, and ring scans whose ``+`` is not
    certified, take it for both distributive laws."""

    @pytest.mark.parametrize("spec", ["m0:cyclic:3", "m0:cyclic:4", "m0:nonassoc5"])
    def test_pair_is_the_plain_gathers(self, spec):
        # m0:nonassoc5 gathers 625^2 entries, many chunks of _FLAT_ENTRIES
        nr = parse_spec(spec)
        add, n = nr.add, nr.n
        rng = np.random.default_rng(n)
        for v in (nr.mul[:, n // 2], nr.mul[n // 3], rng.integers(0, n, n).astype(np.int16)):
            for rows in (slice(0, n), slice(n // 2, n // 2 + 3)):
                lhs, rhs = tables._endomorphism(add, v)(rows)
                assert np.array_equal(lhs, v[add[rows]])
                assert np.array_equal(rhs, add[v[rows][:, None], v[None, :]])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spec", ["m0:cyclic:3", "m0:cyclic:4", "ut2:cyclic:2"])
    def test_corrupted_addition_fails_the_pass(self, spec, seed):
        # one add entry changed keeps * associative, so the laws are
        # decided at S*; + is not certified
        n, add, mul, _ = base(spec)
        rng = np.random.default_rng(seed)
        add = [row[:] for row in add]
        i, j = rng.integers(1, n, 2)
        add[i][j] = (add[i][j] + int(rng.integers(1, n))) % n
        a, m = tables.as_table(add), tables.as_table(mul)
        lights = tables.Lights(tables.Light(m), tables.Light(a))
        assert lights.mul.generators is not None and lights.basis is None
        want = least_right_dist_witness(add, mul)
        assert want is not None
        assert tables.right_dist_witness(a, m, lights) == want
        assert tables.left_dist_witness(a, m, lights) == least_left_dist_witness(add, mul)

    def test_corrupted_nonassoc5_near_ring_is_refused(self):
        nr = parse_spec("m0:nonassoc5")
        swap = np.arange(nr.n)
        swap[[3, 4]] = [4, 3]
        add = swap[nr.add[swap[:, None], swap]]   # + relabelled by 3 <-> 4: a loop, mul kept
        with pytest.raises(RightDistributivityFails):
            validate_lnr(add, nr.mul, nr.one)


class TestCommutativity:
    """``comm_witness``'s witness is the least (a, b) with a op b != b op a,
    read off the first mismatch without listing the others."""

    @staticmethod
    def one_pass(op):
        bad = op != op.T
        return tuple(int(x) for x in np.argwhere(bad)[0]) if bad.any() else None

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [16, 256, 300, 512])
    def test_witness_of_a_corrupted_relabelled_table(self, n, seed):
        rng = np.random.default_rng(seed)
        new = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        old = np.argsort(new)
        op = new[(np.add.outer(old, old) % n)]   # cyclic:n relabelled along new
        assert tables.comm_witness(tables.as_table(op)) is None
        for _ in range(1 + seed % 3):
            i, j = rng.integers(0, n, 2)
            op[i, j] = (op[i, j] + rng.integers(1, n)) % n
        table = tables.as_table(op)
        assert tables.comm_witness(table) == self.one_pass(op)

    @pytest.mark.parametrize("cell", [(0, 1), (255, 256), (256, 257), (0, 511), (510, 511),
                                      (300, 20), (511, 0)])
    def test_witness_at_block_edges(self, cell):
        op = np.add.outer(np.arange(512), np.arange(512)) % 512
        op[cell] = (op[cell] + 1) % 512
        assert tables.comm_witness(tables.as_table(op)) == self.one_pass(op) == tuple(sorted(cell))

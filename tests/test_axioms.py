"""One axiom table: validators and ``check`` agree, with brute witnesses.

``tables.AXIOMS`` is the only place the loop, near-ring and ring axioms
are written down.  The validators raise its first failing row and
``check_report`` lists every failing row; these tests hold both to a
pure-Python triple loop, on tables near the corpus and on tables with
entries outside the carrier, including values that int16 would wrap.
"""

from functools import cached_property, lru_cache
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
    validate_lnr,
    validate_lnr_hom,
    validate_loop,
    validate_ring_tables,
)
from loopnr.cli import main
from loopnr.lattice import ClosureSystem
from loopnr.nearrings import _is_position_map
from loopnr.tables import AXIOMS, KINDS, positions

import corpus

WRAP = 1 << 16

# valid structures with n <= 27, with the kind each is built as; those of
# order 6 and up have multiplicative generating sets of 2 or more elements,
# so the cubic rows are decided at several generators before any fallback.
# The rings from cyclic:12 on have |S+| <= |S*|, so a ring scan of their
# tables takes route P first (see TestAdditiveRoute)
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


@st.composite
def near_valid(draw):
    spec = draw(st.sampled_from(SPECS))
    n, add, mul, one = base(spec)
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

    def test_flat_gather_matches_two_index_arrays(self):
        # each broadcast form the distributive passes use; past
        # _FLAT_ENTRIES table entries the index is built a few rows at a time
        rng = np.random.default_rng(0)
        for n in (7, 200):
            add = tables.as_table(rng.integers(0, n, (n, n)))
            x, y = rng.integers(0, n, (2, 50, n)).astype(tables.DTYPE)
            for a, b in ((x[0], y), (x[:, :1], y), (x[:, :1], y[0])):
                assert np.array_equal(tables._sum(add, a, b), add[a, b])

    def test_as_table_is_in_c_order(self):
        # the flat gathers of the distributive passes read the table's
        # flat view; a column-major input must not reach them as one
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
        assert nr.additive is loop and calls == []

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
        monkeypatch.setattr(ClosureSystem, "generating_set", lambda self, **kw: seen.append(
            self.binary[0].tolist()) or grow(self, **kw))
        return seen

    @pytest.mark.parametrize("spec", ["cyclic:12", "gf:8", "matrix:cyclic:2,2", "ut2:cyclic:3"])
    def test_one_generating_set_of_mul_per_ring_validation(self, spec, mul_scans, monkeypatch):
        n, add, mul, one = base(spec)
        drawn = []   # the members drawn from each generating set grown

        def counted(self, grow=ClosureSystem.generating_set, **kw):
            drawn.append(0)
            for x in grow(self, **kw):
                drawn[-1] += 1
                yield x

        monkeypatch.setattr(ClosureSystem, "generating_set", counted)
        plus, star = (len(list(ClosureSystem(n, (np.array(t),)).generating_set()))
                      for t in (add, mul))
        mul_scans.clear()  # base builds the structure on its first call
        drawn.clear()
        validate_ring_tables(add, mul, one)
        # the set of * is grown only as far as the size rule needs: not at
        # all when |S+| <= 2, else |S+| members, or to its end when it is
        # the smaller
        assert mul_scans.count(add) == 1 and mul_scans.count(mul) == (plus > 2)
        assert sorted(drawn) == sorted([plus] + [min(plus, star)] * (plus > 2))

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

    def test_corrupted_mul_fails_route_p_before_any_growth(self, mul_scans):
        # route P's first pass, right distributivity at 1, reads every entry
        # of mul: one changed entry fails it before a set of + or * is
        # grown, so a validation stopping at the first failing row grows
        # only the set of * that its Light's test needs
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
            sub = quotient_ring(ring, j).ring
        else:
            # Z/4 onto {0, 5, 10, 15} in Z/4 x Z/4, whose identity is 5
            target = parse_spec("product:cyclic:4+cyclic:4")
            hom = validate_lnr_hom([5 * x for x in range(4)], parse_spec("cyclic:4"), target)
            mul_scans.clear()
            sub = image_subring(hom).ring
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
        # * fail and are listed, from one generating set
        n, add, mul, one = base("gf:8")
        mul_scans.clear()
        mul = [row[:] for row in mul]
        mul[3][5] = mul[5][3] = 0
        got = [v["axiom"] for v in check_report("ring", n, add, mul, one, "x")["violations"]]
        assert got == [a for a, _ in brute("ring", n, add, mul, one)]
        assert {"mul-associative", "right-distributivity", "left-distributivity"} <= set(got)
        assert mul_scans.count(mul) == 1 and mul_scans.count(add) == 1


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


class TestAdditiveRoute:
    """Route P certifies a ring scan from S+ alone when |S+| <= |S*|; a
    failure there hands the scan to the ordered rows, so ``check`` and
    the validators report exactly what the brute loops find."""

    @pytest.fixture
    def light_tests(self, monkeypatch):
        """The table of every Light's test run, as a list."""
        tested = []
        test = tables.Light.generators.func
        prop = cached_property(lambda self: tested.append(self.op.tolist()) or test(self))
        prop.__set_name__(tables.Light, "generators")
        monkeypatch.setattr(tables.Light, "generators", prop)
        return tested

    @pytest.mark.parametrize("spec, route_p", [
        ("cyclic:12", True), ("ut2:cyclic:3", True), ("cyclic:256", True),
        ("gf:8", False), ("matrix:cyclic:2,2", False),
    ])
    def test_which_rings_take_route_p(self, spec, route_p, light_tests):
        n, add, mul, one = base(spec)
        light_tests.clear()
        validate_ring_tables(add, mul, one)
        # route P runs Light's test of + and none of *
        assert light_tests.count(add) == 1
        assert light_tests.count(mul) == (0 if route_p else 1)

    @staticmethod
    def assert_check_is_brute(add, mul, one, want):
        n = len(add)
        got = [(v["axiom"], v["witness"])
               for v in check_report("ring", n, add, mul, one, "x")["violations"]]
        assert got == brute("ring", n, add, mul, one)
        assert [a for a, _ in got] == want

    def test_only_associativity_fails(self):
        add, mul = f2_cubed_algebra()
        # |S+| = |S*| = 4: route P runs and fails at its associativity check
        sizes = [len(list(ClosureSystem(8, (np.array(t),)).generating_set())) for t in (add, mul)]
        assert sizes == [4, 4]
        self.assert_check_is_brute(add, mul, 1, ["mul-associative"])

    def test_only_left_distributivity_fails(self):
        # M0(Z/3) is a near-ring, not a ring; |S+| = 3 <= |S*| = 4
        n, add, mul, one = base("m0:cyclic:3")
        self.assert_check_is_brute(add, mul, one, ["left-distributivity"])

    def test_not_latin_takes_the_ordered_scan(self, monkeypatch):
        # Z/4 with add[1][1] = 3: the loop rows fail, so route P must not
        # run, and every later failing row is still listed
        n, add, mul, one = base("cyclic:4")
        add = [row[:] for row in add]
        add[1][1] = 3
        loops = []   # whether + was taken for a loop's, at each verdict asked
        verdict = tables.Lights.additive_route.func
        prop = cached_property(lambda self: loops.append(self.add.loop) or verdict(self))
        prop.__set_name__(tables.Lights, "additive_route")
        monkeypatch.setattr(tables.Lights, "additive_route", prop)
        want = ["latin-square", "right-distributivity", "abelian-addition",
                "left-distributivity"]
        self.assert_check_is_brute(add, mul, one, want)
        assert loops == [False]

    def test_zero_is_kept_when_add_is_not_a_loop(self):
        # a + b = a for a, b != 0 is associative with zero 0 but not a loop:
        # no sum of the other elements is 0, so a distributive law decided
        # at S+ must still be tested at 0
        add = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
        mul = [[0, 0, 0], [0, 1, 2], [2, 2, 1]]
        want = ["latin-square", "mul-identity", "mul-associative", "right-distributivity",
                "abelian-addition", "left-distributivity"]
        self.assert_check_is_brute(add, mul, 0, want)


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
        self.assert_every_row_holds(quotient_ring(ring, jacobson_radical(ring)).ring,
                                    f"{spec} A/J")

    def test_images(self):
        for name, hom in derived_images():
            self.assert_every_row_holds(image_subring(hom).ring, name)

    def test_carrier_not_closed_is_out_of_range(self):
        ring = parse_spec("cyclic:6")
        with pytest.raises(EntriesOutOfRange):
            induced(ring, [0, 1], positions([0, 1], ring.n), 1)  # 1 + 1 = 2

    def test_identity_outside_the_carrier(self):
        ring = parse_spec("cyclic:6")
        label = positions([0, 3], ring.n)
        with pytest.raises(NotIdentity):
            induced(ring, [0, 3], label, 1)
        assert induced(ring, [0, 3], label, 3).mul.tolist() == [[0, 0], [0, 1]]

    def test_label_not_a_homomorphism_gets_the_full_scan(self):
        # Z/16 -> "Z/3" by a label that is not a homomorphism: the tables
        # are closed with identity 1, but (1 + 1) * 2 = 0 != 1 * 2 + 1 * 2
        ring = parse_spec("cyclic:16")
        label = np.full(16, -1)
        label[[0, 1, 3, 2, 4, 6, 9]] = [0, 1, 2, 2, 0, 1, 0]
        with pytest.raises(RightDistributivityFails):
            induced(ring, [0, 1, 3], label, 1)

    def test_only_a_position_map_inherits(self, monkeypatch):
        # the coset projection Z/6 -> Z/3 is a homomorphism, but induced
        # does not take its word for it: the law rows are scanned
        ring = parse_spec("cyclic:6")
        scans = []
        require = tables.require

        def recording(*args, **kw):
            if kw.get("start") == "lnr":
                scans.append(kw.get("laws", True))
            return require(*args, **kw)

        monkeypatch.setattr(tables, "require", recording)
        quotient = induced(ring, [0, 1, 2], np.arange(6) % 3, 1)
        assert quotient.mul.tolist() == corpus.z(3).mul.tolist()
        assert induced(ring, [0, 3], positions([0, 3], 6), 3).n == 2
        assert scans == [True, False]
        assert not _is_position_map(np.array([3, 0]), positions([0, 3], 6))


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
        elif tables.Light(add).generators is not None:
            # + is associative: only the least bad row is scanned
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

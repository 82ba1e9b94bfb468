import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopnr
from loopnr import generators
from loopnr import io as loopnr_io
from loopnr import (
    BoundExceeded,
    CayleyLoop,
    FiniteRing,
    LoopNearRing,
    ParseError,
    canonical_json,
    dump_structure,
    dump_structure_text,
    kind_of,
    parse_spec,
    parse_structure,
    realize,
    structure_sha256,
    structure_to_dict,
    write_structure,
)
from loopnr.cli import main

import block_oracle
import corpus


class TestCanonicalJson:
    def test_sorted_compact_newline(self):
        s = canonical_json({"b": 1, "a": [1, 2]})
        assert s == '{"a":[1,2],"b":1}\n'

    def test_unicode_passthrough(self):
        assert canonical_json({"k": "µ"}) == '{"k":"µ"}\n'


class TestStructureFiles:
    def test_json_round_trip_ring(self):
        ring = corpus.z(6)
        text = dump_structure(ring, meta={"name": "six"})
        sf = parse_structure(text)
        back = realize(sf)
        assert kind_of(back) == "ring"
        assert np.array_equal(back.add, ring.add)
        assert np.array_equal(back.mul, ring.mul)
        assert sf.meta == {"name": "six"}

    def test_json_round_trip_loop(self):
        loop = corpus.nonassoc5()
        payload = json.loads(dump_structure(loop))
        assert set(payload) == {"add", "kind", "meta", "n"}
        back = realize(parse_structure(dump_structure(loop)))
        assert np.array_equal(back.add, loop.add)

    def test_text_round_trip(self):
        ring = corpus.z(4)
        back = realize(parse_structure(dump_structure_text(ring)))
        assert kind_of(back) == "ring"
        assert np.array_equal(back.mul, ring.mul)

    def test_text_round_trip_near_ring(self):
        nr = corpus.m0("small:3,0")
        back = realize(parse_structure(dump_structure_text(nr)))
        assert kind_of(back) == "lnr"
        assert np.array_equal(back.mul, nr.mul)

    def test_kind_of_refuses_a_non_structure(self):
        sf = parse_structure(dump_structure(corpus.z(2)))
        for obj in (sf, corpus.z(2).add, None):
            with pytest.raises(TypeError):
                kind_of(obj)

    def test_text_whitespace_tolerance(self):
        text = "loop 2\n\n  0 1\n\n  1\t0\n"
        sf = parse_structure(text)
        assert sf.n == 2

    def test_serialization_is_byte_stable(self):
        for spec in ("cyclic:6", "m0:cyclic:3", "nonassoc5"):
            s = parse_spec(spec)
            assert dump_structure(s) == dump_structure(s)
            assert dump_structure_text(s) == dump_structure_text(s)

    def test_sha_ignores_meta(self):
        ring = corpus.z(6)
        a = parse_structure(dump_structure(ring, meta={"name": "x"}))
        b = parse_structure(dump_structure(ring, meta={"name": "y", "extra": 1}))
        assert structure_sha256(realize(a)) == structure_sha256(realize(b))

    def test_sha_separates_structures(self):
        assert structure_sha256(corpus.z(4)) != structure_sha256(corpus.z(6))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "garbage",
            "blob 3\n0 1 2\n1 2 0\n2 0 1\n",
            "loop x\n",
            "loop 2\n0 1\n1 0\nextra\n",
            "ring 2\n0 1\n1 0\n0 0\n0 1\n",  # missing one=
            "ring 2\n0 1\n1 0\n0 0\n0 1\none=q\n",
            "loop 3\n0 1 2\n1 2 0\n",  # short table
            "loop 2\n0 1 1\n1 0 0\n",  # wide rows
            "loop 2\n0 a\n1 0\n",
        ],
    )
    def test_text_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_structure(bad)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "loop", "n": 2},  # missing add
            {"kind": "ring", "n": 2, "add": [[0, 1], [1, 0]]},  # missing mul/one
            {"kind": "loop", "n": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]},
            {"kind": "loop", "n": 2, "add": [[0, True], [1, 0]]},
            {"kind": "loop", "n": 3, "add": [[0, 1], [1, 0]]},
            {"kind": "loop", "n": 2, "add": [[0, 1], [1, 0]], "meta": 7},
            {"kind": "widget", "n": 2, "add": [[0, 1], [1, 0]]},
        ],
    )
    def test_json_parse_errors(self, payload):
        with pytest.raises(ParseError):
            parse_structure(json.dumps(payload))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1, 2], [1, 2, 0], [2, 0, True]], "entries must be integers"),
            ([[0, 1, 2], [1, 2, 0], [2, 0.0, 1]], "entries must be integers"),
            ([[0, 1, 2], [1, 2, 0], ["2", 0, 1]], "entries must be integers"),
            # rows are checked in order: list, then width, then entries
            ([[0, 1, 2], [1, 2, "0"], [2, 0]], "entries must be integers"),
            ([[0, 1, 2], [1, 2], [2, 0, "1"]], "is not rectangular"),
            ([[0, 1, 2], [1, 2, False], 7], "entries must be integers"),
            ([[0, 1, 2], 7, [2, 0, None]], "rows must be lists"),
        ],
    )
    def test_json_entry_errors_in_a_late_row(self, rows, message):
        payload = {"kind": "loop", "n": 3, "add": rows}
        with pytest.raises(ParseError, match=f"add table {message}"):
            parse_structure(json.dumps(payload))

    def test_text_tables_are_read_only_int16_arrays(self):
        ring = corpus.z(6)
        sf = parse_structure(dump_structure_text(ring))
        for table, want in ((sf.add, ring.add), (sf.mul, ring.mul)):
            assert table.dtype == np.int16 and not table.flags.writeable
            assert np.array_equal(table, want)
        assert realize(sf).add is sf.add

    @staticmethod
    def text_outcomes(capsys, path):
        """check and analyze of the text file at ``path``, its tables read
        into int16 arrays and, past a lowered MAX_ORDER, as lists."""
        outcomes = []
        for order in (loopnr_io.MAX_ORDER, 1):
            with mock.patch.object(loopnr_io, "MAX_ORDER", order):
                sf = loopnr_io.read_structure(str(path))
                outcomes.append([run_cli(capsys, c, str(path)) for c in ("check", "analyze")])
            assert isinstance(sf.add, list) == (order == 1)
        return outcomes

    @pytest.mark.parametrize("entry", [-1, -6, 6, 60, 2**15, 2**16 + 1, 2**63, -(2**63) - 1,
                                       10**30])
    def test_text_entries_outside_the_carrier_report_as_on_lists(self, capsys, tmp_path, entry):
        lines = dump_structure_text(corpus.z(6)).splitlines()
        row = lines[2].split()
        row[4] = str(entry)
        lines[2] = " ".join(row)
        p = tmp_path / "z6.txt"
        p.write_text("\n".join(lines) + "\n")
        assert parse_structure(p.read_text()).add[1].tolist() == [1, 2, 3, 4, -1, 0]
        arrays, lists = self.text_outcomes(capsys, p)
        assert arrays == lists and [code for code, _ in arrays] == [1, 1]

    @pytest.mark.parametrize("bad, message", [
        ("loop 3\n0 1 2\n1 2 0\n2 0 x\n", "non-integer entry in add row '2 0 x'"),
        ("loop 3\n0 1 2\n1 2 0 1\n2 0 x\n", "add row has 4 entries, expected 3"),
        ("ring 2\n0 1\n1 0\n0 0\n0 1 1\none=1\n", "mul row has 3 entries, expected 2"),
        ("ring 2\n0 1\n1 0\n0 0\n", "mul table needs 2 rows, found 1"),
        ("loop 30000\n0 1\n", "add table needs 30000 rows, found 1"),
    ])
    def test_text_refusals_keep_their_order_and_words(self, bad, message):
        for order in (loopnr_io.MAX_ORDER, 1):
            with mock.patch.object(loopnr_io, "MAX_ORDER", order):
                with pytest.raises(ParseError, match=message):
                    parse_structure(bad)

    def test_a_text_table_is_allocated_once_its_rows_are_counted(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="needs 30000 rows"):
                parse_structure("loop 30000\n" + "0 " * 30000 + "\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30000 * 30000 // 100

    def test_realize_validates(self):
        from loopnr import NotLatinSquare

        sf = parse_structure("loop 2\n0 1\n1 1\n")
        with pytest.raises(NotLatinSquare):
            realize(sf)

    def test_realize_bound(self):
        from dataclasses import replace

        from loopnr import DEFAULT_BOUNDS

        sf = parse_structure(dump_structure_text(corpus.z(6)))
        with pytest.raises(BoundExceeded):
            realize(sf, replace(DEFAULT_BOUNDS, max_n=4))


def whole_file_route():
    """Every file decoded whole as UTF-8 and read by ``json.loads`` or as
    the text format, as before the bytes route."""
    return mock.patch.object(loopnr_io, "_compact_object", return_value=None)


def parse_outcome(text):
    """What ``parse_structure`` makes of ``text``, tables as int lists whose
    entries outside 0..n-1 are -1, as ``tables.as_table`` reads them."""
    try:
        sf = parse_structure(text)
    except Exception as exc:  # the two routes must fail alike, whatever the error
        return type(exc).__name__, str(exc)
    tables = [None if t is None else
              [[v if 0 <= v < sf.n else -1 for v in row]
               for row in (t.tolist() if isinstance(t, np.ndarray) else t)]
              for t in (sf.add, sf.mul)]
    return sf.kind, sf.n, tables, sf.one, sf.meta


COMPACT_DOCS = [
    dump_structure(corpus.z(3), meta={"name": "cyclic:3"}),
    '{"kind":"loop","n":2,"add":[[0,-1],[12,-30]],"meta":{"a":[1,2]}}\n',
    '{"add":[[10,2],[1,100]],"add":[[5]],"kind":"loop","n":1}',
    '{"add":[[9,10,99],[100,999,1000],[65536,65537,123456]],"kind":"loop","n":3}',
    '{"add":[[0,-9,10],[-99,100,-999],[1000,-65536,-123456]],"kind":"lnr",'
    '"mul":[[-1,0,65539],[7,-10,99999],[-100000,8,9]],"n":3,"one":2}',
]
MUTATIONS = ["-", "-0", "01", ",", ",,", "[", "]", "[]", " ", "1e3", "true", '"']


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from(COMPACT_DOCS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        token = draw(st.sampled_from(MUTATIONS))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:i] + token + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 3)):]
        else:
            text = text[:i] + token + text[i + len(token):]
    return text


@contextlib.contextmanager
def no_warnings():
    """Turn every warning into an error: none may escape the decoder."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestArrayRoute:
    """Compact tables decode straight to arrays that ``tables.as_table``
    reads as it reads the lists of json.loads."""

    @settings(max_examples=400)
    @given(text=mutated_documents())
    def test_mutated_documents_decode_as_json_does(self, text):
        with whole_file_route():
            want = parse_outcome(text)
        with no_warnings():
            assert parse_outcome(text) == want

    @pytest.mark.parametrize("table", [
        "[[-,7]]", "[[,1]]", "[[,01]]", "[[-3],-[7]]", "[[1,-]]", "[[-0]]", "[[01]]",
        "[[-01]]", "[[00]]", "[[0123456789012]]", "[[--1]]",
        "[[]]", "[[1]01,[2]]", "[[1],[2]3]", "[[1,2-3]]", "[[12-,3]]", "[[1,2],[3],[4,5,6]]",
        *(["[[%s]]" % ("1" * (DIGIT_LIMIT + 1)), "[[-%s]]" % ("1" * (DIGIT_LIMIT + 1))]
          if DIGIT_LIMIT else []),
    ])
    def test_uncertified_tables_take_the_json_route(self, table):
        text = '{"kind":"loop","n":1,"add":%s}' % table
        with no_warnings():
            assert loopnr_io._int_matrix(text.encode(), text.index("[[")) is None
        with whole_file_route():
            want = parse_outcome(text)
        with no_warnings():
            assert parse_outcome(text) == want

    @pytest.mark.parametrize("text", COMPACT_DOCS)
    def test_compact_documents_take_the_array_route(self, text):
        with whole_file_route():
            want = parse_outcome(text)
        assert parse_outcome(text) == want
        assert isinstance(parse_structure(text).add, np.ndarray)

    @pytest.mark.parametrize("table", [
        "[[9999999999999999999]]", "[[-9223372036854775808]]", "[[100000000000000000]]",
        "[[-1]]", "[[-7]]", "[[10]]", "[[%s]]" % ("9" * (DIGIT_LIMIT or 5000)),
    ])
    def test_entries_outside_the_carrier_decode_to_minus_one(self, table):
        text = '{"kind":"loop","n":1,"add":%s}' % table
        with no_warnings():
            array, _ = loopnr_io._int_matrix(text.encode(), text.index("[["))
        assert array.tolist() == [[-1]]
        with whole_file_route():
            want = parse_outcome(text)
        assert parse_outcome(text) == want

    @staticmethod
    def digit_rows(width, count=None):
        """Rows of ``width`` entries holding entries of every digit count,
        in 0..width-1 and outside it, signed and not, padded with 0 to
        ``count`` rows (the fewest that hold them by default)."""
        read = len(str(width - 1))   # D, the digits of the largest entry in range
        inside = sorted({0, width - 1} | {10**k - 1 for k in range(1, read)}
                        | {10**k for k in range(read) if 10**k < width})
        shorter = [10**read - 1] if 10**read - 1 >= width else []   # D digits, not in range
        longer = [10**k for k in range(read, 21)] + [10**k - 1 for k in range(read + 1, 21)]
        signed = [-v for v in inside if v] + [-v - 7 for v in longer]
        entries = inside + shorter + longer + signed
        count = count or -(-len(entries) // width)
        entries += [0] * (count * width - len(entries))
        return [entries[i:i + width] for i in range(0, len(entries), width)]

    @pytest.mark.parametrize("width", [1, 2, 10, 11, 100, 101, 1000, 1001, 9999,
                                       10000, 10001, 32768])
    def test_every_digit_count_decodes_exactly(self, width):
        rows = self.digit_rows(width)
        text = json.dumps(rows, separators=(",", ":"))
        with no_warnings():
            values, used, closed = loopnr_io._decode_rows(text[1:].encode(), width)
        assert used == len(text) - 1 and closed
        assert values.tolist() == [[v if 0 <= v < width else -1 for v in row] for row in rows]

    def test_a_square_matrix_of_every_digit_count_is_one_int16_table(self):
        rows = self.digit_rows(101, 101)
        text = json.dumps(rows, separators=(",", ":"))
        with no_warnings():
            array, end = loopnr_io._int_matrix(text.encode(), 0)
        assert end == len(text) and array.dtype == np.int16 and not array.flags.writeable
        assert array.tolist() == [[v if 0 <= v < 101 else -1 for v in row] for row in rows]

    def test_certified_table_is_the_int16_array(self):
        text = "[[0,-12],[3,1]],"
        array, end = loopnr_io._int_matrix(text.encode(), 0)
        assert array.dtype == np.int16 and array.tolist() == [[0, -1], [-1, 1]]
        assert not array.flags.writeable
        assert text[end:] == ","

    def test_blocks_fill_one_square_table(self):
        square = np.arange(30 * 30).reshape(30, 30) % 30
        text = json.dumps(square.tolist(), separators=(",", ":"))
        with mock.patch.object(loopnr_io, "_BLOCK_BYTES", 16):
            array, end = loopnr_io._int_matrix(text.encode(), 0)
        assert end == len(text) and np.array_equal(array, square)
        # a row count other than the width sends the file to json.loads
        for rows in (square[:29], np.vstack([square, square[:1]]), square[:, :29]):
            table = json.dumps(rows.tolist(), separators=(",", ":"))
            text = '{"add":%s,"kind":"loop","n":30}' % table
            with mock.patch.object(loopnr_io, "_BLOCK_BYTES", 16):
                assert loopnr_io._int_matrix(table.encode(), 0) is None
                got = parse_outcome(text)
            with whole_file_route():
                assert got == parse_outcome(text)
            assert got[0] == "ParseError"

    @staticmethod
    def mixed_document(mixed):
        """The compact ``cyclic:6`` file with one table that is not certified:
        a ``-0`` entry in mul, or add indented."""
        z6 = dump_structure(corpus.z(6), meta={"name": "cyclic:6"})
        if mixed == "minus-zero-mul":
            at = z6.index('"mul":[[') + len('"mul":[[')
            return z6[:at] + "-0" + z6[at + 1:]   # mul[0][0], 0 in Z/6
        add = z6[z6.index('"add":') + 6:z6.index(',"kind"')]
        return z6.replace(add, json.dumps(json.loads(add), indent=1), 1)

    @pytest.mark.parametrize("mixed", ["minus-zero-mul", "indented-add"])
    def test_one_uncertified_table_sends_the_whole_file_to_json(self, capsys, tmp_path, mixed):
        text = self.mixed_document(mixed)
        sf = parse_structure(text)
        assert type(sf.add) is type(sf.mul) is list and sf.spans == {}
        p = tmp_path / "z6.json"
        p.write_text(text)
        outcomes = []
        for route in (contextlib.nullcontext(), whole_file_route()):
            with route:
                structure, _ = loopnr.load_structure(str(p))
                outcomes.append([run_cli(capsys, c, str(p)) for c in ("check", "analyze")]
                                + [structure_sha256(structure)])
        assert outcomes[0] == outcomes[1]
        assert [code for code, _ in outcomes[0][:2]] == [0, 0]
        assert getattr(structure, "_file_sha256", None) is None
        assert outcomes[0][2] == structure_sha256(corpus.z(6))

    @staticmethod
    def assert_one_route(sf):
        """Both tables are read-only square int16 arrays with a span each,
        or both are lists with none."""
        tables = {"add": sf.add} if sf.kind == "loop" else {"add": sf.add, "mul": sf.mul}
        if isinstance(sf.add, np.ndarray):
            assert sf.spans.keys() == tables.keys()
            for table in tables.values():
                assert isinstance(table, np.ndarray) and table.dtype == np.int16
                assert table.shape == (sf.n, sf.n) and not table.flags.writeable
        else:
            assert sf.spans == {} and all(type(t) is list for t in tables.values())

    @pytest.mark.parametrize("spec", [spec for spec, _, _ in generators.CATALOG])
    def test_a_file_takes_one_route_whole(self, spec):
        structure = parse_spec(spec)
        moved = relabelled(structure)
        compact = [dump_structure(structure, meta={"name": spec}),
                   json.dumps(moved, separators=(",", ":"))]
        texts = compact + [json.dumps(moved, indent=1)]
        key = '"add":[[' if structure.kind == "loop" else '"mul":[['
        for text in compact:
            at = text.index(key) + len(key)
            # the first entry of the last table replaced or split into two
            # rows, a space after it, the last row dropped
            texts += [text[:at] + entry + text[at + 1:]
                      for entry in ("-0", "01", "-1", str(structure.n), "1e3", "0],[0")]
            texts.append(text[:at + 1] + " " + text[at + 1:])
            if structure.n > 1:
                close = text.index("]]", at)
                texts.append(text[:text.rindex("],[", 0, close) + 1] + text[close + 1:])
        routes = set()
        for text in texts:
            try:
                sf = parse_structure(text)
            except ParseError:
                continue
            self.assert_one_route(sf)
            routes.add(type(sf.add))
        assert routes == {np.ndarray, list}

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_compact_files_skip_the_list_loop(self, capsys, monkeypatch, tmp_path, corrupt):
        ring = corpus.z(6)
        payload = json.loads(dump_structure(ring))
        if corrupt:
            payload["mul"][2][3] = (payload["mul"][2][3] + 1) % 6
        layouts = {
            "compact": (json.dumps(payload, separators=(",", ":")), np.ndarray),
            "default": (json.dumps(payload), list),
            "indent": (json.dumps(payload, indent=1), list),
        }
        seen = []
        kernel = loopnr_io._as_int_table
        monkeypatch.setattr(loopnr_io, "_as_int_table",
                            lambda rows, what, n: seen.append(type(rows)) or kernel(rows, what, n))
        p = tmp_path / "z6.json"
        reports = set()
        for text, route in layouts.values():
            p.write_text(text)
            seen.clear()
            reports.add((run_cli(capsys, "check", str(p)), run_cli(capsys, "analyze", str(p))))
            assert seen == [route] * 4
        assert len(reports) == 1
        (check_code, _), (analyze_code, _) = reports.pop()
        assert (check_code, analyze_code) == ((1, 1) if corrupt else (0, 0))

    @pytest.mark.parametrize("entry", [-1, -6, 60, 10**17, 2**63, 2**64, -(10**30)])
    def test_entries_outside_the_carrier_report_as_on_the_json_route(self, capsys, tmp_path, entry):
        payload = json.loads(dump_structure(corpus.z(6)))
        payload["add"][1][4] = payload["mul"][5][2] = entry
        p = tmp_path / "z6.json"
        p.write_text(json.dumps(payload, separators=(",", ":")))
        assert isinstance(parse_structure(p.read_text()).mul, np.ndarray)
        reports = []
        for route in (contextlib.nullcontext(), whole_file_route()):
            with route:
                reports.append([run_cli(capsys, command, str(p)) for command in ("check", "analyze")])
        assert reports[0] == reports[1]
        assert [code for code, _ in reports[0]] == [1, 1]

    @settings(max_examples=300)
    @given(text=mutated_documents(), block=st.integers(0, 40))
    def test_blocks_split_anywhere(self, text, block):
        with whole_file_route():
            want = parse_outcome(text)
        with mock.patch.object(loopnr_io, "_BLOCK_BYTES", block):
            assert parse_outcome(text) == want

    def test_every_generated_catalog_file_takes_the_array_route(self):
        for spec, _, _ in generators.CATALOG:
            sf = parse_structure(dump_structure(parse_spec(spec), meta={"name": spec}))
            tables = [sf.add] if sf.kind == "loop" else [sf.add, sf.mul]
            assert all(isinstance(t, np.ndarray) for t in tables), spec


def same_decoding(got, want):
    """Whether two ``_decode_rows`` results agree: both None, or the same
    values, dtype, bytes read and closing."""
    if got is None or want is None:
        return got is want
    return (got[1:] == want[1:] and got[0].dtype == want[0].dtype
            and np.array_equal(got[0], want[0]))


class TestByteLevelDecoder:
    """Every block is read byte by byte from the positions of its marks;
    ``block_oracle``, which reads the rows with ``json.loads``, is its
    reference."""

    WIDTHS = (1, 2, 10, 11, 100, 128, 256, 512, 1000, 1001, 4096, 10001, 32768)
    EDITS = b"0123456789,[]- x"

    @classmethod
    def blocks(cls, seed, width, budget, count):
        """``count`` blocks of rows of ``width`` entries, each cut as
        ``_int_matrix`` cuts one, at the first ``]`` past ``budget`` bytes
        plus one byte.  Entries lie in 0..width-1, or, by turns, some have
        D digits and lie past it, one is wrapped past int16 (x + 65,536),
        some are signed, or some have D + 1 to 20 digits.  Every other
        five blocks get one to three random byte edits (a byte replaced,
        inserted or deleted)."""
        rng = np.random.default_rng(seed)
        read = len(str(width - 1))
        for trial in range(count):
            rows = rng.integers(0, width, (budget // ((read + 1) * width) + 2, width))
            at = rng.integers(0, rows.size, 5)
            kind = trial % 5
            if kind == 1 and width < 10**read:
                rows.flat[at] = rng.integers(width, 10**read, 5)
            elif kind == 2:
                rows.flat[at[0]] += 1 << 16
            elif kind == 3:
                rows = rows.astype(object)
                rows.flat[at] = -rng.integers(1, 10**read, 5)
            elif kind == 4:
                rows = rows.astype(object)
                rows.flat[at] = [int(rng.integers(1, 10)) * 10**int(rng.integers(read, 20))
                                 + int(rng.integers(0, 10**read)) for _ in at]
            text = json.dumps(rows.tolist(), separators=(",", ":")).encode()[1:] + b',"n":1}'
            stop = text.find(b"]", budget) + 2
            block = bytearray(text[:stop] if stop >= 2 else text)
            for _ in range(trial // 5 % 2 and int(rng.integers(1, 4))):
                at, byte = int(rng.integers(0, len(block))), cls.EDITS[rng.integers(0, 16)]
                edit = rng.integers(0, 3)
                block[at:at + (edit != 1)] = b"" if edit == 2 else bytes([byte])
            yield bytes(block)

    def test_every_block_decodes_as_the_reference(self):
        blocks, outcomes = 0, set()
        for seed, width in enumerate(self.WIDTHS):
            for budget in (16, 64, loopnr_io._BLOCK_BYTES):
                for block in self.blocks([seed, budget], width, budget, 16):
                    want = block_oracle.decode_rows(block, width)
                    with no_warnings():
                        got = loopnr_io._decode_rows(block, width)
                    assert same_decoding(got, want), (width, budget, block[:200])
                    blocks += 1
                    outcomes.add(None if want is None else (want[0] < 0).any())
        # refused blocks, and decoded ones with and without entries read as -1
        assert blocks >= 500 and outcomes == {None, False, True}

    def test_each_entry_decodes_as_the_reference(self):
        entries = ["-0", "--1", "1-2", "-01", "+1", "-", "01", "00", "0", "-1", "-9", "-10",
                   "10", "65537", "1e1", " 1", "1 ", "1" * (DIGIT_LIMIT or 4300),
                   "-" + "1" * DIGIT_LIMIT, "1" * (DIGIT_LIMIT + 1), "-" + "1" * (DIGIT_LIMIT + 1)]
        for entry in entries:
            # the entry first, inside and last in a row of three, between two rows
            for where in range(3):
                row = ["1", "0", "2"]
                row[where] = entry
                block = ("[2,1,0],[%s],[0,2,1]]" % ",".join(row)).encode()
                with no_warnings():
                    got = loopnr_io._decode_rows(block, 3)
                assert same_decoding(got, block_oracle.decode_rows(block, 3)), block[:40]

    @pytest.mark.parametrize("block", [b"[1,,2]5,[0,1,2]]", b"[1,,2],5[0,1,2]]",
                                       b"5[1,2,0]]", b"[1,2,0],5"])
    def test_a_digit_outside_every_entry_is_refused(self, block):
        # a digit between "]" and "," or between "," and "[" takes away a
        # pair of adjacent marks that an empty entry gives back, and one
        # before the first mark or after the last takes none away: the count
        # alone is 2 rows - 1
        mark = np.frombuffer(block, np.uint8) - 48 > 9
        assert np.count_nonzero(mark[:-1] & mark[1:]) == 2 * block.count(b"[") - 1
        assert loopnr_io._decode_rows(block, 3) is None
        assert block_oracle.decode_rows(block, 3) is None


def edge_documents():
    """Compact ``cyclic:6`` files (one ``cyclic:12``), as bytes, each with
    one feature that the bytes route must read as the whole-file route
    does, and whether the bytes route certifies it."""
    z6 = dump_structure(corpus.z(6), meta={"name": "cyclic:6"}).encode()
    add = z6[z6.index(b'"add":') + 6:z6.index(b',"kind"')]
    mul = z6[z6.index(b'"mul":') + 6:z6.index(b',"n"')]
    at = z6.index(b'"mul":[[') + 8   # mul[0][0], 0 in Z/6

    def entry(new):
        return z6[:at] + new + z6[at + 1:]

    # cyclic:12 with mul last, longer than a small member's first window,
    # so that only the test after the closing "}" reads a byte past it
    z12 = dump_structure(corpus.z(12)).encode()
    cut, rest = z12.index(b',"mul":'), z12.index(b',"n"')
    mul_last = z12[:cut] + z12[rest:-2] + z12[cut:rest] + b"}"

    return {
        "non-ascii-meta": (z6.replace(b'"cyclic:6"', '"µ-ring ∑"'.encode()), True),
        "bad-utf8-meta": (z6.replace(b'"cyclic:6"', b'"cyc\xfflic"'), False),
        "cut-utf8-meta": (z6.replace(b'"cyclic:6"', b'"cyc\xe2\x88"'), False),
        "bad-utf8-table": (entry(b"\xff"), False),
        "bad-utf8-after": (z6 + b"\xff", False),
        "bad-utf8-after-mul": (mul_last + b"\xff", False),
        "byte-order-mark": (b"\xef\xbb\xbf" + z6, False),
        "escaped-key": (z6.replace(b'"add"', b'"\\u0061dd"'), False),
        "repeated-key": (b'{"add":[[0]],' + z6[1:], True),
        "mul-before-add": (b'{"mul":%s,"add":%s' % (mul, add)
                           + z6[z6.index(b',"kind"'):z6.index(b',"mul"')]
                           + z6[z6.index(b',"n"'):], True),
        "mul-in-meta": (z6.replace(b'"cyclic:6"', b'"\\"mul\\":[[0,1],[1,0]]"'), True),
        "minus-zero": (entry(b"-0"), False),
        "leading-zero": (entry(b"00"), False),
        "signed": (entry(b"-1"), True),
        "whitespace": (entry(b" 0"), False),
        "crlf": (z6.replace(b"\n", b"\r\n"), True),
        "long-meta": (z6.replace(b'"cyclic:6"', '"{}"'.format("é" * 3000).encode()), True),
        "long-number": (z6.replace(b'"one":1', b'"one":1' + b"0" * 400), True),
    }


EDGES = edge_documents()


def run_cli_apart(capsys, *argv):
    """(exit code, stdout, stderr) of one CLI call."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBytesRoute:
    """Files are read as bytes; one that the bytes route does not certify
    is decoded whole, so both routes give the same reports and errors."""

    @pytest.mark.parametrize("name", list(EDGES))
    def test_edge_files_report_alike_on_both_routes(self, capsys, tmp_path, name):
        data, certified = EDGES[name]
        p = tmp_path / "edge.json"
        p.write_bytes(data)
        assert bool(loopnr_io._compact_object(data)) is certified
        reports = []
        for route in (contextlib.nullcontext(), whole_file_route()):
            with route:
                reports.append([run_cli_apart(capsys, c, str(p)) for c in ("check", "analyze")])
        assert reports[0] == reports[1]

    def test_bad_bytes_are_named_as_the_utf8_codec_names_them(self, capsys, tmp_path):
        p = tmp_path / "edge.json"
        p.write_bytes(EDGES["bad-utf8-table"][0])
        code, out, err = run_cli_apart(capsys, "check", str(p))
        at = EDGES["bad-utf8-table"][0].index(b"\xff")
        assert (code, out) == (2, "")
        assert f"cannot read {p}: 'utf-8' codec can't decode byte 0xff in position {at}" in err

    @pytest.mark.parametrize("data", [
        *(data for data, _ in EDGES.values()),
        b'{\r\n"kind":"ring",\r\n}', b'{"kind":"ring",\r"n":\r\r1,}', b"ring 1\r\n0\r0\rone=0\r\n",
        b"ring 1\n0\n0\none=0\n\xc3", b"\xef\xbb\xbfring 1", b"",
    ])
    def test_the_whole_file_is_the_text_open_reads(self, tmp_path, data):
        p = tmp_path / "s.json"
        p.write_bytes(data)
        try:
            with open(p, encoding="utf-8") as fh:
                want = fh.read()
            if want.startswith("\ufeff"):
                want = f"cannot read {p}: it starts with a UTF-8 byte-order mark"
        except UnicodeDecodeError as exc:
            want = f"cannot read {p}: {exc}"
        try:
            got = loopnr_io.read_text(str(p))
        except ParseError as exc:
            got = str(exc)
        assert got == want

    @pytest.mark.parametrize("read", [loopnr_io.read_structure, loopnr.load_structure])
    def test_a_file_read_whole_drops_its_bytes_once_decoded(self, tmp_path, read):
        p = tmp_path / "c256.json"
        p.write_text(json.dumps(json.loads(dump_structure(parse_spec("cyclic:256"))), indent=1))
        size = p.stat().st_size
        held, parse = [], loopnr_io._parse_whole

        def spy(text):
            held.append(tracemalloc.get_traced_memory()[0])
            return parse(text)

        with mock.patch.object(loopnr_io, "_parse_whole", spy):
            tracemalloc.start()
            try:
                read(str(p))
            finally:
                tracemalloc.stop()
        # the text alone, where the text and the bytes would hold twice the file
        assert len(held) == 1 and size < held[0] < 1.5 * size

    def test_a_compact_file_is_never_held_as_text(self, tmp_path):
        p = tmp_path / "c1024.json"
        p.write_text(dump_structure(parse_spec("cyclic:1024")))
        size = p.stat().st_size
        with mock.patch.object(loopnr_io, "_text", side_effect=AssertionError):
            tracemalloc.start()
            try:
                sf = loopnr_io.read_structure(str(p))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the bytes, the tables and the blocks' work; a str of the file
        # held with its bytes would add the file's size again
        assert peak < size + sf.add.nbytes + sf.mul.nbytes + size // 4


def relabelled(structure, seed=0):
    """The field dict of ``structure`` relabelled along a random
    permutation that fixes 0, keys in the order (kind, n, add, meta, mul,
    one)."""
    fields = structure_to_dict(structure, {"name": "x"})
    n = fields["n"]
    rng = np.random.default_rng(seed)
    new = np.concatenate([[0], 1 + rng.permutation(n - 1)]) if n > 1 else np.zeros(1, int)
    old = np.argsort(new)
    out = {"kind": fields["kind"], "n": n}
    for key in ("add", "meta", "mul", "one"):
        if key not in fields:
            continue
        value = fields[key]
        if key in ("add", "mul"):
            value = new[np.asarray(value)[old[:, None], old]].tolist()
        elif key == "one":
            value = int(new[value])
        out[key] = value
    return out


class TestFileHash:
    """A compact file's structure hash is taken from its certified bytes
    once validation has passed, and equals the rendering route's."""

    @staticmethod
    def loaded(path):
        """(hash, whether it was stored by load_structure, rendered hash)."""
        structure, _ = loopnr.load_structure(str(path))
        stored = getattr(structure, "_file_sha256", None)
        rendered = loopnr_io._sha256(loopnr_io._fields(structure))
        return structure_sha256(structure), stored is not None, rendered

    @pytest.mark.parametrize("spec", [spec for spec, _, _ in generators.CATALOG])
    def test_every_layout_hashes_as_rendered(self, spec, tmp_path):
        structure = parse_spec(spec)
        want = structure_sha256(structure)
        moved = relabelled(structure)
        layouts = {   # file text, whether its hash is read off the file
            "generated": (dump_structure(structure, meta={"name": spec}), True),
            "relabelled": (json.dumps(moved, separators=(",", ":")), True),
            "indent": (json.dumps(moved, indent=1), False),
            "text": (dump_structure_text(structure), False),
        }
        p = tmp_path / "s.json"
        hashes = {}
        for name, (text, stored) in layouts.items():
            p.write_text(text)
            sha, got_stored, rendered = self.loaded(p)
            assert (sha, got_stored) == (rendered, stored), name
            hashes[name] = sha
        assert hashes["generated"] == hashes["text"] == want
        assert hashes["relabelled"] == hashes["indent"]

    @pytest.mark.parametrize("entry, error", [
        ("6", loopnr.ValidationError), ("-1", loopnr.ValidationError),
        ("01", ParseError), ("00", ParseError), ("-0", None)])
    def test_no_digest_off_a_table_that_is_not_canonical(self, entry, error, tmp_path):
        text = dump_structure(corpus.z(6))
        at = text.index('"mul":[[') + len('"mul":[[')
        p = tmp_path / "z6.json"
        p.write_text(text[:at] + entry + text[at + 1:])   # mul[0][0], 0 in Z/6
        with mock.patch.object(loopnr_io, "_sha256", side_effect=AssertionError):
            if error is not None:
                with pytest.raises(error):
                    loopnr.load_structure(str(p))
                return
            structure, _ = loopnr.load_structure(str(p))
        # json.loads reads -0 as 0: the file is valid, its hash rendered
        assert getattr(structure, "_file_sha256", None) is None
        assert structure_sha256(structure) == structure_sha256(corpus.z(6))

    def test_check_hashes_nothing(self, capsys, tmp_path):
        p = tmp_path / "z6.json"
        p.write_text(dump_structure(corpus.z(6)))
        with mock.patch.object(loopnr_io, "_sha256", side_effect=AssertionError), \
                mock.patch.object(loopnr_io, "structure_sha256", side_effect=AssertionError):
            assert run_cli(capsys, "check", str(p))[0] == 0
        assert loopnr.load_structure(str(p))[0]._file_sha256 == structure_sha256(corpus.z(6))

    def test_a_repeated_table_key_hashes_its_last_value(self, tmp_path):
        z6 = dump_structure(corpus.z(6))
        add = z6[z6.index('"add":') + 6:z6.index(',"kind"')]
        p = tmp_path / "z6.json"
        # the last "add" value is certified, then one that json reads
        for last, stored in ((add, True), (json.dumps(json.loads(add), indent=1), False)):
            p.write_text('{"add":[[0]],"add":%s,' % last + z6[z6.index('"kind"'):])
            sha, got_stored, rendered = self.loaded(p)
            assert (sha, got_stored) == (structure_sha256(corpus.z(6)), stored)


@st.composite
def field_sets(draw):
    """Unvalidated loop, lnr or ring field sets of order 1..1100, whose
    entries span 1 to 4 digits, and a block size that splits the rows.
    The tables keep only their first rows (at most 24) to stay small."""
    n = draw(st.one_of(st.sampled_from([1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1100]),
                       st.integers(1, 1100)))
    shape = (draw(st.integers(1, min(n, 24))), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    add = rng.integers(0, n, shape, dtype=np.int16)
    add[-1, -1] = n - 1
    loop = CayleyLoop(n=n, add=add)
    kind = draw(st.sampled_from([CayleyLoop, LoopNearRing, FiniteRing]))
    if kind is CayleyLoop:
        structure = loop
    else:
        mul = rng.integers(0, n, shape, dtype=np.int16)
        structure = kind(n=n, add=add, mul=mul, one=int(rng.integers(0, n)), zero_symmetric=False)
    return structure, draw(st.integers(1, 3 * n))


class TestBlockRenderer:
    """Tables render in blocks of rows exactly as ``json.dumps`` of their lists."""

    @settings(max_examples=150, deadline=None)
    @given(case=field_sets(), meta=st.sampled_from([None, {"name": "x"}, {"µ": [1, "é"]}]))
    def test_renderings_equal_the_canonical_json(self, case, meta):
        structure, cells = case
        want = canonical_json(structure_to_dict(structure, meta))
        hashed = structure_to_dict(structure)
        del hashed["meta"]
        kind = kind_of(structure)
        tables = [structure.add] if kind == "loop" else [structure.add, structure.mul]
        rows = "".join(" ".join(map(str, row)) + "\n" for t in tables for row in t.tolist())
        one = "" if kind == "loop" else f"one={structure.one}\n"
        out = io.StringIO()
        with mock.patch.object(loopnr_io, "_BLOCK_CELLS", cells):
            assert dump_structure(structure, meta) == want
            write_structure(structure, out, meta)
            sha = structure_sha256(structure)
            text = dump_structure_text(structure)
        assert out.getvalue() == want
        assert sha == hashlib.sha256(canonical_json(hashed).encode()).hexdigest()
        assert text == f"{kind} {structure.n}\n{rows}{one}"


# JSON that json.loads cannot decode although its syntax is valid
UNDECODABLE_JSON = [
    pytest.param("1" * (DIGIT_LIMIT + 1), "Exceeds the limit", id="overlong-integer",
                 marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer digit limit")),
    pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth", id="deep-nesting"),
]


class TestUnreadableBytes:
    def test_non_utf8_structure_file_is_a_parse_error(self, capsys, tmp_path):
        p = tmp_path / "z3.json"
        p.write_bytes(dump_structure(corpus.z(3), meta={"name": "X"}).encode()
                      .replace(b"X", b"\xff"))
        for command in ("check", "analyze"):
            code, out = run_cli(capsys, command, str(p))
            assert code == 2
            assert out.startswith(f"parse error: cannot read {p}: 'utf-8' codec")

    @pytest.mark.parametrize("value, message", UNDECODABLE_JSON)
    def test_undecodable_json_structure_file_is_a_parse_error(self, capsys, tmp_path, value, message):
        p = tmp_path / "bad.json"
        p.write_text('{"kind":"loop","n":1,"add":[[%s]]}' % value)
        for command in ("check", "analyze"):
            code, out = run_cli(capsys, command, str(p))
            assert code == 2
            assert out.startswith(f"parse error: cannot read {p}: {message}")

    @pytest.mark.parametrize("value, message", UNDECODABLE_JSON)
    def test_undecodable_json_map_file_is_a_parse_error(self, capsys, tmp_path, value, message):
        p = tmp_path / "map.json"
        p.write_text("[0,%s]" % value)
        code, out = run_cli(capsys, "hom", "cyclic:2", "cyclic:2", str(p))
        assert code == 2
        assert out.startswith(f"parse error: cannot read {p}: {message}")

    def test_non_utf8_map_file_is_a_parse_error(self, capsys, tmp_path):
        p = tmp_path / "map.txt"
        p.write_bytes(b"0 1 \xff 1\n")
        code, out = run_cli(capsys, "hom", "cyclic:4", "cyclic:2", str(p))
        assert code == 2
        assert out.startswith(f"parse error: cannot read {p}: 'utf-8' codec")

    def test_byte_order_mark_structure_file_is_a_parse_error(self, capsys, tmp_path):
        # not a text file whose first line is "\ufeff{...}"
        p = tmp_path / "z3.json"
        p.write_text("\ufeff" + dump_structure(corpus.z(3), meta={"name": "cyclic:3"}))
        for command in ("check", "analyze"):
            code, out = run_cli(capsys, command, str(p))
            assert (code, out) == (2, f"parse error: cannot read {p}: "
                                      "it starts with a UTF-8 byte-order mark\n")

    def test_byte_order_mark_map_file_is_a_parse_error(self, capsys, tmp_path):
        # not a whitespace map file whose first entry is "\ufeff[0,1]"
        p = tmp_path / "map.json"
        p.write_text("\ufeff[0,1]")
        code, out = run_cli(capsys, "hom", "cyclic:2", "cyclic:2", str(p))
        assert (code, out) == (2, f"parse error: cannot read {p}: "
                                  "it starts with a UTF-8 byte-order mark\n")


class TestRefusals:
    """Files refused with exit 2, each with its own parse error."""

    @pytest.mark.parametrize("text, message", [
        ("  \n", "empty map file"),
        ("[0,", "invalid JSON map file: Expecting value: line 1 column 4 (char 3)"),
        ("0 x\n", "map file entries must be integers, got 'x'"),
        ("[0, 1.5]", "map file entries must be integers"),
        ("[true, 0]", "map file entries must be integers"),
        # only text that starts with "[" takes the JSON route
        ('{"0": 1}', "map file entries must be integers, got '{\"0\":'"),
        # an entry is ASCII -?[0-9]+, as JSON writes one: no underscore,
        # plus sign or non-ASCII digit, each of which int() would take
        ("0 \u0661 \u0662 \u0663", "map file entries must be integers, got '\u0661'"),
        ("0 1_0 2 3", "map file entries must be integers, got '1_0'"),
        ("0 +1 2 3", "map file entries must be integers, got '+1'"),
        ("0 \uff11 2 3", "map file entries must be integers, got '\uff11'"),
    ])
    def test_map_file(self, capsys, tmp_path, text, message):
        p = tmp_path / "map"
        p.write_text(text, encoding="utf-8")
        code, out = run_cli(capsys, "hom", "cyclic:2", "cyclic:2", str(p))
        assert (code, out) == (2, f"parse error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ('{"kind":"ring","n":1,"add":[[0]],"mul":[[0]],"one":0.0}', "one must be an integer"),
        ('{"kind":"ring","n":1,"add":[[0]],"mul":[[0]],"one":true}', "one must be an integer"),
        ("ring 0\none=0\n", "n must be positive"),
        ("loop -3\n", "n must be positive"),
        # only text that starts with "{" takes the JSON route
        ('[{"kind":"loop","n":1,"add":[[0]]}]', 'first line must be "<kind> <n>"'),
        ('{"kind":"ring","n":1,"add":[],"mul":[[0]],"one":0}',
         "add table must be a nonempty list of rows"),
        ('{"kind":"loop","n":1,"add":5}', "add table must be a nonempty list of rows"),
        # a text token is ASCII -?[0-9]+, as JSON writes one
        ("ring 2\n0_0 1\n1 0\n0 0\n0 1\none=1\n",
         "non-integer entry in add row '0_0 1', got '0_0'"),
        ("ring 2\n0 +1\n1 0\n0 0\n0 1\none=1\n",
         "non-integer entry in add row '0 +1', got '+1'"),
        ("ring 2\n0 1\n\uff11 0\n0 0\n0 1\none=1\n",
         "non-integer entry in add row '\uff11 0', got '\uff11'"),
        ("ring 2\n0 1\n1 0\n0 0\n0 1\none=\uff11\n", "bad identity index 'one=\uff11'"),
        ("ring 2\n0 1\n1 0\n0 0\n0 1\none= 1\n", "bad identity index 'one= 1'"),
        ("ring \u0662\n0 1\n1 0\n0 0\n0 1\none=1\n", "bad size '\u0662'"),
    ])
    def test_structure_file(self, capsys, tmp_path, text, message):
        p = tmp_path / "structure"
        p.write_text(text, encoding="utf-8")
        for command in ("check", "analyze"):
            code, out = run_cli(capsys, command, str(p))
            assert (code, out) == (2, f"parse error: {message}\n")

    def test_directory(self, capsys, tmp_path):
        code, out = run_cli(capsys, "check", str(tmp_path))
        assert (code, out) == (2, f"parse error: cannot read {tmp_path}: "
                                  f"[Errno 21] Is a directory: '{tmp_path}'\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestCliCheck:
    def test_valid_spec(self, capsys):
        code, payload = run_json(capsys, "check", "cyclic:4")
        assert code == 0
        assert payload["valid"] is True
        assert payload["violations"] == []

    def test_invalid_file_lists_violation(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "kind": "loop",
                    "n": 3,
                    "add": [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
                }
            )
        )
        code, payload = run_json(capsys, "check", str(p))
        assert code == 1
        assert payload["valid"] is False
        assert payload["violations"][0]["axiom"] == "latin-square"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("not a structure\n")
        code, out = run_cli(capsys, "check", str(p))
        assert code == 2
        assert "parse error" in out

    def test_bound_exit_3(self, capsys):
        code, out = run_cli(capsys, "analyze", "cyclic:9999")
        assert code == 3

    def test_flag_tightens_bound(self, capsys):
        code, _ = run_cli(capsys, "analyze", "cyclic:50", "--max-n", "10")
        assert code == 3

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPNR_MAX_N", "10")
        code, _ = run_cli(capsys, "check", "cyclic:50", "--max-n", "100")
        assert code == 0

    @pytest.mark.parametrize("argv, env, limit, cap", [
        # n = 256, 625 and 512: refused before anything is built
        *(pytest.param(["check", spec, "--max-n", "100"], {}, 100, "max_n", id=spec)
          for spec in ("m:cyclic:4", "m0:cyclic:5", "matrix:cyclic:2,3")),
        # one element for every k: the k x k digit vector is what is capped
        pytest.param(["check", "matrix:cyclic:1,65"], {}, 4096, "max_n", id="matrix:cyclic:1,65"),
        # the next size up from the largest accepted cyclic and triangular rings
        *(pytest.param(["analyze", spec], {}, 4096, "max_n", id=spec)
          for spec in ("cyclic:4097", "ut2:cyclic:17")),
        # 2^14400 and 16^4096 elements: past what Python will format as digits
        *(pytest.param(["check", spec], {}, 4096, "max_n", id=spec)
          for spec in ("matrix:cyclic:2,120", "matrix:cyclic:16,64")),
        pytest.param(["analyze", "random_loop:8,1", "--subloops", "--max-subloops", "4"],
                     {}, 4, "max_subloop_n", id="max_subloop_n"),
        pytest.param(["analyze", "cyclic:16", "--local"],
                     {"LOOPNR_MAX_ENUM_N": "8"}, 8, "max_enum_n", id="max_enum_n"),
        pytest.param(["decompose", "cyclic:16", "--verify-uniqueness"],
                     {"LOOPNR_MAX_ENUM_N": "8"}, 8, "max_enum_n", id="max_enum_n_families"),
    ])
    def test_flag_bounds_map_and_matrix_specs(self, capsys, monkeypatch, argv, env, limit, cap):
        # every refusal names the cap that refused it
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        code, out = run_cli(capsys, *argv)
        assert code == 3
        assert out.startswith("bound exceeded:") and f"cap is {limit} ({cap})" in out

    @pytest.mark.parametrize("env, flag", [({}, ["--max-families", "2"]),
                                           ({"LOOPNR_MAX_FAMILIES": "2"}, [])])
    def test_family_cap_refusal_names_its_cap(self, capsys, monkeypatch, env, flag):
        # M2(Z/2) has three complete families
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        argv = ["decompose", "matrix:cyclic:2,2", "--verify-uniqueness", *flag]
        assert run_cli(capsys, *argv) == (
            3, "bound exceeded: more than 2 complete families (max_families)\n")

    def test_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPNR_MAX_N", "10")
        code, _ = run_cli(capsys, "check", "cyclic:50")
        assert code == 3

    @pytest.mark.parametrize("value", ["abc", "1_0", "+10", " 10", "\u0661\u0660", "\uff11\uff10"])
    def test_malformed_env_is_a_parse_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("LOOPNR_MAX_N", value)
        code, out = run_cli(capsys, "analyze", "cyclic:4")
        assert code == 2
        assert out == f"parse error: LOOPNR_MAX_N must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("flag", ["--max-n", "--max-subloops", "--max-families"])
    @pytest.mark.parametrize("value", ["abc", "1_0", "+10", " 10", "\u0661\u0660"])
    def test_malformed_flag_is_refused(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["check", "cyclic:4", flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_env_past_the_int16_carrier_is_refused(self):
        from loopnr.config import bounds_from_env

        assert bounds_from_env(env={"LOOPNR_MAX_N": "32768"}).max_n == 32768
        with pytest.raises(ValueError, match="32769 is past 32768.*int16"):
            bounds_from_env(env={"LOOPNR_MAX_N": "32769"})

    @pytest.mark.parametrize("env, flag", [({}, "40000"), ({"LOOPNR_MAX_N": "32769"}, None)])
    def test_max_n_past_the_int16_carrier_is_a_parse_error(self, capsys, monkeypatch, env, flag):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        code, out = run_cli(capsys, "check", "cyclic:6", *(["--max-n", flag] if flag else []))
        assert code == 2
        assert out.startswith("parse error:") and "int16" in out

    @pytest.mark.parametrize("argv, env, cap, value", [
        (["check", "cyclic:6", "--max-n", "-1"], {}, "max_n", -1),
        (["analyze", "nonassoc5", "--subloops"], {"LOOPNR_MAX_SUBLOOPS": "-2"},
         "max_subloop_n", -2),
        (["analyze", "nonassoc5", "--subloops", "--max-subloops", "-1"], {}, "max_subloop_n", -1),
        (["decompose", "cyclic:6", "--verify-uniqueness"], {"LOOPNR_MAX_FAMILIES": "-1"},
         "max_families", -1),
        (["decompose", "cyclic:6", "--verify-uniqueness", "--max-families", "-3"], {},
         "max_families", -3),
        (["analyze", "cyclic:6", "--local"], {"LOOPNR_MAX_ENUM_N": "-5"}, "max_enum_n", -5),
    ])
    def test_negative_cap_is_a_parse_error(self, capsys, monkeypatch, argv, env, cap, value):
        # refused as a setting, not as every input being past it
        for var, setting in env.items():
            monkeypatch.setenv(var, setting)
        code, out = run_cli(capsys, *argv)
        assert (code, out) == (2, f"parse error: {cap} {value} is negative: a cap is at least 0\n")

    @pytest.mark.parametrize("value", ["8", "-1"])
    def test_retired_family_cap_is_not_read(self, capsys, monkeypatch, value):
        # LOOPNR_MAX_FAMILY_N no longer exists: neither a tight nor a
        # negative setting changes any output
        argv = ["decompose", "cyclic:16", "--verify-uniqueness"]
        want = run_cli(capsys, *argv)
        monkeypatch.setenv("LOOPNR_MAX_FAMILY_N", value)
        assert run_cli(capsys, *argv) == want
        assert want[0] == 0

    def test_cap_of_zero_is_valid(self, capsys):
        from loopnr.config import Bounds

        assert Bounds(max_n=0, max_subloop_n=0, max_enum_n=0, max_families=0)
        code, out = run_cli(capsys, "check", "cyclic:6", "--max-n", "0")
        assert code == 3 and "cap is 0 (max_n)" in out

    def test_spec_is_not_rescanned(self, capsys, monkeypatch):
        from loopnr import tables

        calls = []
        light = tables.Light
        monkeypatch.setattr(tables, "Light", lambda t, *rest: calls.append(1) or light(t, *rest))
        code, payload = run_json(capsys, "check", "cyclic:4")
        assert code == 0 and payload["valid"] is True
        # parse_spec's one ring scan makes a Light of * and of +; the report
        # makes none
        assert len(calls) == 2

    def test_file_is_checked_once_as_int16(self, capsys, monkeypatch, tmp_path):
        from loopnr import tables

        p = tmp_path / "z4.json"
        p.write_text(dump_structure(corpus.z(4)))   # before the patch: z(4) is built once, lazily
        seen = []
        light = tables.Light
        monkeypatch.setattr(tables, "Light",
                            lambda t, *rest: seen.append(t.dtype) or light(t, *rest))
        code, payload = run_json(capsys, "check", str(p))
        assert code == 0 and payload["valid"] is True
        assert seen == [np.dtype(np.int16)] * 2


def wrapped_file(tmp_path):
    """Z/3 with mul[2][2] = 1 + 2**16, which int16 would narrow to 1."""
    ring = corpus.z(3)
    mul = ring.mul.tolist()
    mul[2][2] += 1 << 16
    p = tmp_path / "wrap.json"
    p.write_text(json.dumps({"kind": "ring", "n": 3, "add": ring.add.tolist(),
                             "mul": mul, "one": ring.one}))
    return str(p)


class TestWraparoundCli:
    def test_analyze_rejects(self, capsys, tmp_path):
        code, out = run_cli(capsys, "analyze", wrapped_file(tmp_path))
        assert code == 1
        assert out == "invalid [entries-in-range]: mul entries outside 0..n-1\n"

    def test_check_lists_range_first(self, capsys, tmp_path):
        code, payload = run_json(capsys, "check", wrapped_file(tmp_path))
        assert code == 1
        assert payload["violations"][0] == {
            "axiom": "entries-in-range", "message": "mul entries outside 0..n-1",
            "witness": None,
        }

    def test_diagnostic_carries_check_message_and_witness(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "loop", "n": 3,
                                 "add": [[0, 1, 2], [1, 1, 0], [2, 0, 1]]}))
        code, out = run_cli(capsys, "analyze", str(p))
        assert code == 1
        assert out == "invalid [latin-square]: duplicate 1 in add row 1 witness=(1, 1)\n"


class TestTheoremViolation:
    def test_exit_5_with_one_line(self, capsys, monkeypatch):
        from loopnr import rings

        monkeypatch.setattr(
            rings, "radical_by_quasiregularity",
            lambda ring: rings.ElementSubset.of(ring.n, range(ring.n)))
        code, out = run_cli(capsys, "analyze", "cyclic:4", "--radical")
        assert code == 5
        assert out.startswith("theorem violated: radical procedures disagree")
        assert out.count("\n") == 1


def closed_stdout_run(*argv):
    """Run the CLI with stdout a pipe whose reader is already gone."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(loopnr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "loopnr", *argv], stdout=write,
            stderr=subprocess.PIPE, env=env, timeout=120, check=False)
    finally:
        os.close(write)


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [("catalog",), ("generate", "cyclic:64")])
    def test_exits_quietly(self, argv):
        proc = closed_stdout_run(*argv)
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestCliAnalyze:
    def test_ring_sections(self, capsys):
        code, payload = run_json(
            capsys,
            "analyze",
            "cyclic:6",
            "--local",
            "--radical",
            "--idempotents",
            "--subloops",
        )
        assert code == 0
        assert payload["units"]["members"] == [1, 5]
        assert payload["idempotents"]["members"] == [0, 1, 3, 4]
        assert payload["local"]["is_local"] is False
        assert payload["local"]["maximal"] == [[0, 3], [0, 2, 4]]
        assert payload["radical"]["members"] == [0]
        assert payload["radical"]["semisimple"] is True
        assert payload["n_subloops"]["count"] == 4

    def test_loop_sections(self, capsys):
        code, payload = run_json(capsys, "analyze", "nonassoc5", "--subloops")
        assert code == 0
        assert payload["associative"] is False
        assert payload["subloops"]["sizes"] == [1, 2, 5]
        assert "units" not in payload
        assert "radical" not in payload

    def test_non_zero_symmetric_local_marked_inapplicable(self, capsys):
        code, payload = run_json(capsys, "analyze", "m:cyclic:2", "--local")
        assert code == 0
        assert payload["local"] == {
            "applicable": False,
            "reason": "not zero-symmetric",
        }

    def test_radical_silently_omitted_for_near_ring(self, capsys):
        code, payload = run_json(capsys, "analyze", "m0:cyclic:3", "--radical")
        assert code == 0
        assert "radical" not in payload

    @pytest.mark.parametrize("argv, keys", [
        (("analyze", "cyclic:6", "--local"), ["local", "units"]),
        (("decompose", "cyclic:6", "--verify-uniqueness"), ["decompose", "uniqueness"]),
    ])
    def test_timing_does_not_change_sha(self, capsys, argv, keys):
        _, plain = run_json(capsys, *argv)
        _, timed = run_json(capsys, *argv, "--timing")
        assert "timing" not in plain and sorted(timed.pop("timing")) == keys
        assert plain == timed

    def test_text_renders_false(self, capsys):
        code, out = run_cli(capsys, "analyze", "cyclic:6", "--local", "--text")
        assert code == 0
        assert out.startswith(
            "command: analyze\ninput: cyclic:6\nkind: ring\nlocal:\n  applicable: true\n"
            "  is_local: false\n  j: null\n  maximal: [[0, 3], [0, 2, 4]]\n"
            "  maximal_count: 2\n  nonunits_count: 4\n  via_maximal: false\n"
            "  via_units: false\nn: 6\n")

    def test_output_is_deterministic(self, capsys):
        _, a = run_cli(capsys, "analyze", "cyclic:12", "--local", "--radical")
        _, b = run_cli(capsys, "analyze", "cyclic:12", "--local", "--radical")
        assert a == b


class TestCliDecompose:
    def test_with_uniqueness(self, capsys):
        code, payload = run_json(
            capsys, "decompose", "cyclic:6", "--verify-uniqueness"
        )
        assert code == 0
        assert payload["family"] == [3, 4]
        assert payload["uniqueness"]["matched"] is True
        assert payload["uniqueness"]["family_count"] == 1

    def test_matrix_ring(self, capsys):
        code, payload = run_json(
            capsys, "decompose", "matrix:cyclic:2,2", "--verify-uniqueness"
        )
        assert code == 0
        assert payload["family"] == [1, 8]
        assert payload["uniqueness"]["family_count"] == 3

    def test_loop_input_exit_4(self, capsys):
        code, out = run_cli(capsys, "decompose", "nonassoc5")
        assert code == 4
        assert out == "hypothesis not met: decompose needs a ring input\n"

    def test_near_ring_input_exit_4(self, capsys):
        code, out = run_cli(capsys, "decompose", "m0:cyclic:3")
        assert code == 4
        assert out == "hypothesis not met: decompose needs a ring input\n"


    def test_no_masked_array_module_is_imported(self):
        # np.unique imports numpy.ma on its first call; the library dedupes
        # over 0..n-1 with tables.distinct instead
        src = os.path.dirname(os.path.dirname(os.path.abspath(loopnr.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import contextlib, io, sys\n"
            "from loopnr.cli import main\n"
            "for argv in (['decompose', 'ut2:cyclic:6', '--verify-uniqueness'],\n"
            "             ['analyze', 'matrix:cyclic:4,2', '--radical']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "assert 'numpy.ma' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=env, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr.decode()


class TestCliHom:
    def test_json_map_file(self, capsys, tmp_path):
        p = tmp_path / "map.json"
        p.write_text("[0, 1, 0, 1]")
        code, payload = run_json(capsys, "hom", "cyclic:4", "cyclic:2", str(p))
        assert code == 0
        assert payload["valid"] is True
        assert payload["unit_reflecting"] is True
        assert payload["kernel_size"] == 2

    def test_whitespace_map_file(self, capsys, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 1 0 1\n")
        code, payload = run_json(capsys, "hom", "cyclic:4", "cyclic:2", str(p))
        assert code == 0
        assert payload["image_size"] == 2

    def test_non_hom_exit_1(self, capsys, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 1 1 0\n")
        code, out = run_cli(capsys, "hom", "cyclic:4", "cyclic:2", str(p))
        assert code == 1
        assert "invalid" in out

    def test_transfer_section(self, capsys, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 1 0 1\n")
        code, payload = run_json(
            capsys, "hom", "cyclic:4", "cyclic:2", str(p), "--transfer"
        )
        assert code == 0
        assert payload["transfer"]["source_local"] is True
        assert payload["transfer"]["image_local"] is True
        assert payload["transfer"]["kill_check"] is True

    def test_transfer_needs_unit_reflection(self, capsys, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 1 2 0 1 2\n")
        code, out = run_cli(
            capsys, "hom", "cyclic:6", "cyclic:3", str(p), "--transfer"
        )
        assert code == 4
        assert "unit-reflecting" in out

    def test_wrong_length_map(self, capsys, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 1\n")
        code, _ = run_cli(capsys, "hom", "cyclic:4", "cyclic:2", str(p))
        assert code == 1

    def test_entry_past_int64_exit_1(self, capsys, tmp_path):
        p = tmp_path / "map.json"
        p.write_text(f"[0, {2 ** 70}]")
        code, out = run_cli(capsys, "hom", "cyclic:2", "cyclic:2", str(p))
        assert code == 1
        assert out == "invalid [homomorphism]: map entries outside the target carrier\n"

    def test_loop_arguments_rejected(self, capsys, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 1 2 3 4\n")
        code, _ = run_cli(capsys, "hom", "nonassoc5", "nonassoc5", str(p))
        assert code == 4


class TestCliGenerate:
    def test_json_round_trip(self, capsys, tmp_path):
        code, out = run_cli(capsys, "generate", "m0:cyclic:3")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"] == {"name": "m0:cyclic:3"}
        p = tmp_path / "s.json"
        p.write_text(out)
        code, checked = run_json(capsys, "check", str(p))
        assert code == 0 and checked["valid"] is True

    def test_text_round_trip(self, capsys, tmp_path):
        code, out = run_cli(capsys, "generate", "ut2:cyclic:2", "--text")
        assert code == 0
        assert out.startswith("ring 8\n")
        p = tmp_path / "s.txt"
        p.write_text(out)
        code, checked = run_json(capsys, "check", str(p))
        assert code == 0 and checked["valid"] is True

    def test_bad_spec_exit_2(self, capsys):
        code, out = run_cli(capsys, "generate", "bogus:7")
        assert code == 2


class TestCliCatalog:
    def test_lists_every_entry(self, capsys):
        code, payload = run_json(capsys, "catalog")
        assert code == 0
        assert len(payload["entries"]) == 39
        specs = [e["spec"] for e in payload["entries"]]
        assert "m0:nonassoc5" in specs

    def test_text_rendering(self, capsys):
        code, out = run_cli(capsys, "catalog", "--text")
        assert code == 0
        assert "m0:nonassoc5" in out

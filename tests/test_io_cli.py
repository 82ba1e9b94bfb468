import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
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


def json_route():
    """Every JSON file through ``json.loads``, as before the array route."""
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
        with json_route():
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
            assert loopnr_io._int_matrix(text, text.index("[[")) is None
        with json_route():
            want = parse_outcome(text)
        with no_warnings():
            assert parse_outcome(text) == want

    @pytest.mark.parametrize("text", COMPACT_DOCS)
    def test_compact_documents_take_the_array_route(self, text):
        with json_route():
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
            array, _ = loopnr_io._int_matrix(text, text.index("[["))
        assert array.tolist() == [[-1]]
        with json_route():
            want = parse_outcome(text)
        assert parse_outcome(text) == want

    @pytest.mark.parametrize("width", [1, 2, 10, 11, 100, 101, 1000, 1001, 9999])
    def test_every_digit_count_decodes_exactly(self, width):
        read = len(str(width - 1))   # D, the digits of the largest entry in range
        inside = sorted({0, width - 1} | {10**k - 1 for k in range(1, read)}
                        | {10**k for k in range(read) if 10**k < width})
        shorter = [10**read - 1] if 10**read - 1 >= width else []   # D digits, not in range
        longer = [10**k for k in range(read, 21)] + [10**k - 1 for k in range(read + 1, 21)]
        signed = [-v for v in inside if v] + [-v - 7 for v in longer]
        entries = inside + shorter + longer + signed
        entries += [0] * (-len(entries) % width)
        rows = [entries[i:i + width] for i in range(0, len(entries), width)]
        text = json.dumps(rows, separators=(",", ":"))
        with no_warnings():
            array, end = loopnr_io._int_matrix(text, 0)
        assert end == len(text)
        assert array.tolist() == [[v if 0 <= v < 10**read else -1 for v in row] for row in rows]

    def test_certified_table_is_the_int32_array(self):
        text = "[[0,-12],[3,40]],"
        array, end = loopnr_io._int_matrix(text, 0)
        assert array.dtype == np.int32 and array.tolist() == [[0, -1], [3, -1]]
        assert text[end:] == ","

    def test_blocks_fill_one_square_table(self):
        square = np.arange(30 * 30).reshape(30, 30) % 30
        text = json.dumps(square.tolist(), separators=(",", ":"))
        with mock.patch.object(loopnr_io, "_BLOCK_BYTES", 16), \
                mock.patch.object(np, "concatenate", side_effect=AssertionError):
            array, end = loopnr_io._int_matrix(text, 0)
        assert end == len(text) and np.array_equal(array, square)
        # a row count other than the width falls back to joining the blocks
        for rows in (square[:29], np.vstack([square, square[:1]]), square[:, :29]):
            text = json.dumps(rows.tolist(), separators=(",", ":"))
            with mock.patch.object(loopnr_io, "_BLOCK_BYTES", 16):
                array, end = loopnr_io._int_matrix(text, 0)
            assert end == len(text) and np.array_equal(array, rows)

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
                            lambda rows, what: seen.append(type(rows)) or kernel(rows, what))
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
        for route in (contextlib.nullcontext(), json_route()):
            with route:
                reports.append([run_cli(capsys, command, str(p)) for command in ("check", "analyze")])
        assert reports[0] == reports[1]
        assert [code for code, _ in reports[0]] == [1, 1]

    @settings(max_examples=300)
    @given(text=mutated_documents(), block=st.integers(0, 40))
    def test_blocks_split_anywhere(self, text, block):
        with json_route():
            want = parse_outcome(text)
        with mock.patch.object(loopnr_io, "_BLOCK_BYTES", block):
            assert parse_outcome(text) == want

    def test_every_generated_catalog_file_takes_the_array_route(self):
        for spec, _, _ in generators.CATALOG:
            sf = parse_structure(dump_structure(parse_spec(spec), meta={"name": spec}))
            tables = [sf.add] if sf.kind == "loop" else [sf.add, sf.mul]
            assert all(isinstance(t, np.ndarray) for t in tables), spec


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
    loop = CayleyLoop(n=n, add=add, ldiff=None, rdiff=None)
    kind = draw(st.sampled_from([CayleyLoop, LoopNearRing, FiniteRing]))
    if kind is CayleyLoop:
        structure = loop
    else:
        mul = rng.integers(0, n, shape, dtype=np.int16)
        structure = kind(additive=loop, mul=mul, one=int(rng.integers(0, n)), zero_symmetric=False)
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
                     {"LOOPNR_MAX_FAMILY_N": "8"}, 8, "max_family_n", id="max_family_n"),
    ])
    def test_flag_bounds_map_and_matrix_specs(self, capsys, monkeypatch, argv, env, limit, cap):
        # every refusal names the cap that refused it
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        code, out = run_cli(capsys, *argv)
        assert code == 3
        assert out.startswith("bound exceeded:") and f"cap is {limit} ({cap})" in out

    def test_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPNR_MAX_N", "10")
        code, _ = run_cli(capsys, "check", "cyclic:50")
        assert code == 3

    def test_malformed_env_is_a_parse_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPNR_MAX_N", "abc")
        code, out = run_cli(capsys, "analyze", "cyclic:4")
        assert code == 2
        assert out == "parse error: LOOPNR_MAX_N must be an integer, got 'abc'\n"

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

    def test_spec_is_not_rescanned(self, capsys, monkeypatch):
        from loopnr import tables

        calls = []
        light = tables.Light
        monkeypatch.setattr(tables, "Light", lambda t, *loop: calls.append(1) or light(t, *loop))
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
                            lambda t, *loop: seen.append(t.dtype) or light(t, *loop))
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

    def test_timing_does_not_change_sha(self, capsys):
        _, plain = run_json(capsys, "analyze", "cyclic:6", "--local")
        _, timed = run_json(capsys, "analyze", "cyclic:6", "--local", "--timing")
        assert "timing" in timed and "timing" not in plain
        assert plain["sha256"] == timed["sha256"]

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
        env = dict(os.environ, PYTHONPATH=src, LOOPNR_MAX_FAMILY_N="256")
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

"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from loopnr import cli  # noqa: E402


def call(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "exc": None}


@pytest.fixture
def maker(tmp_path):
    return workloads.RoundMaker("construct", 7, str(tmp_path))


def file_job(maker, slot, spec, variant, cmd, table="add"):
    path = maker.structure_file(0, slot, spec, variant, table)
    return workloads.Job(slot, [cmd, path], cmd, f"{cmd}|{spec}", variant)


def expected_for(maker, spec, cmd):
    canon = workloads.RoundMaker("construct", 7, maker.workdir, relabelled=False)
    job = file_job(canon, "canon", spec, "clean", cmd)
    return {job.key: oracle.invariants(cmd, json.loads(call(job.argv)["out"]))}


def test_relabelled_report_passes_and_tampered_report_fails(maker):
    expected = expected_for(maker, "ut2:cyclic:2", "analyze")
    job = file_job(maker, "clean", "ut2:cyclic:2", "clean", "analyze")
    res = call(job.argv)
    assert oracle.judge(job, res, expected).ok

    report = json.loads(res["out"])
    report["units"]["count"] += 1
    forged = dict(res, out=oracle.canonical(report))
    assert not oracle.judge(job, forged, expected).ok       # hash no longer matches
    report["sha256"] = oracle.report_digest(report)
    forged = dict(res, out=oracle.canonical(report))
    verdict = oracle.judge(job, forged, expected)
    assert not verdict.ok and "invariants differ" in verdict.reason

    golden = {job.id: "0" * 64}
    assert not oracle.judge(job, res, expected, golden).ok

    del report["kind"]
    report["sha256"] = oracle.report_digest(report)
    verdict = oracle.judge(job, dict(res, out=oracle.canonical(report)), expected)
    assert not verdict.ok and "malformed" in verdict.reason


def test_corrupted_inputs_are_rejected_by_check_and_analyze(maker):
    for table in ("add", "mul"):
        for cmd in ("check", "analyze"):
            job = file_job(maker, f"x-{table}", "cyclic:9", "corrupt", cmd, table)
            res = call(job.argv)
            assert res["rc"] == 1
            assert oracle.judge(job, res, {}).ok, (table, cmd)


def test_wraparound_probe(maker):
    check = file_job(maker, "w", "cyclic:9", "probe", "check", "mul")
    assert oracle.judge(check, call(check.argv), {}).ok

    path = check.argv[1]
    probe = workloads.Job("w", ["analyze", path], "analyze", "analyze|cyclic:9", "probe")
    with open(path, encoding="utf-8") as fh:
        assert max(max(row) for row in json.load(fh)["mul"]) >= workloads.WRAP
    # an analyze that accepts the table fails the oracle, as a known defect
    accepted = {"rc": 0, "out": '{"valid":true}\n', "err": "", "exc": None}
    verdict = oracle.judge(probe, accepted, {})
    assert not verdict.ok and verdict.known_defect
    rejected = {"rc": 1, "out": "", "err": "invalid [entries-in-range]: x\n", "exc": None}
    assert oracle.judge(probe, rejected, {}).ok


def test_same_seed_writes_same_inputs(tmp_path):
    a = workloads.RoundMaker("decompose", 3, str(tmp_path / "a"))
    b = workloads.RoundMaker("decompose", 3, str(tmp_path / "b"))
    os.makedirs(a.workdir)
    os.makedirs(b.workdir)
    job_a = a._hom_job(1, "H", "ut2:cyclic:2", "ut2:cyclic:2", "iso")
    job_b = b._hom_job(1, "H", "ut2:cyclic:2", "ut2:cyclic:2", "iso")
    for fa, fb in zip(job_a.argv[1:4], job_b.argv[1:4]):
        with open(fa, "rb") as x, open(fb, "rb") as y:
            assert x.read() == y.read()
    assert call(job_a.argv)["rc"] == 0
    other = a._hom_job(2, "H", "ut2:cyclic:2", "ut2:cyclic:2", "iso")
    with open(job_a.argv[1], "rb") as x, open(other.argv[1], "rb") as y:
        assert x.read() != y.read()


def test_relabel_fixes_zero_and_preserves_structure():
    add, mul, one = workloads.cyclic_tables(6)
    perm = workloads.zero_fixing_perm(6, random.Random(1))
    assert perm[0] == 0
    new_add, new_mul, new_one = workloads.relabel(add, mul, one, perm)
    for a in range(6):
        for b in range(6):
            assert new_add[perm[a], perm[b]] == perm[add[a, b]]
            assert new_mul[perm[a], perm[b]] == perm[mul[a, b]]
    assert new_one == perm[one]


def _bindings():
    return {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "loopnr" or name.startswith("loopnr."))
        for attr, value in vars(mod).items()
    }


def test_wrapping_covers_copies_and_restores_every_binding():
    import loopnr
    from loopnr import nearrings, reports
    before = _bindings()
    original = nearrings.enumerate_N_subloops
    tracer = spans.Tracer()
    with tracer:
        # the definition and its `from .nearrings import` copies are all wrapped
        for mod in (nearrings, reports, loopnr):
            assert mod.enumerate_N_subloops is not original
            assert mod.enumerate_N_subloops.__wrapped_original__ is original
        job = tracer.open(spans.JOB)
        res = call(["analyze", "ut2:cyclic:2", "--subloops", "--local"])
        tracer.close(job)
    assert res["rc"] == 0
    assert _bindings() == before
    names = {s[2] for s in tracer.spans}
    assert {"cli.main", "nearrings.enumerate_N_subloops", "generators.parse_spec",
            "tables.assoc_witness", "reports.analysis_report"} <= names


def test_layer_metrics_are_computed_from_their_parts():
    # id, parent, name, t0, t1, extra
    recorded = [
        [0, None, "job", 0.0, 10.0, None],
        [1, 0, "cli.main", 1.0, 9.0, None],
        [2, 1, "nearrings.enumerate_N_subloops", 2.0, 7.0, {"key": "a", "members": 5}],
        [3, 2, "nearrings.units", 3.0, 4.0, None],
        [4, 1, "nearrings.enumerate_N_subloops", 7.0, 8.0, {"key": "a", "members": 5}],
        [5, None, "job", 10.0, 12.0, None],
        [6, 5, "cli.main", 10.5, 11.5, None],
    ]
    m = spans.layer_metrics(recorded, 2, [4.0, 6.0], [6.0])
    assert m["trace.coverage"] == pytest.approx((8.0 + 1.0) / (10.0 + 2.0))
    assert m["trace.overhead"] == pytest.approx(6.0 / 5.0)
    assert m["nearrings.enumerate_N_subloops.calls"] == 1.0          # 2 calls over 2 rounds
    assert m["nearrings.enumerate_N_subloops.self_s"] == pytest.approx((4.0 + 1.0) / 2)
    assert m["nearrings.units.self_s"] == pytest.approx(0.5)
    assert m["cli.main.self_s"] == pytest.approx((8.0 - 6.0 + 1.0) / 2)
    assert m["nearrings.lattice_members"] == 5.0
    assert m["nearrings.enumerate_N_subloops.reuse"] == 0.5
    assert m["decomp.corner_ring.reuse"] == 1.0
    assert m["layer.nearrings.self_s"] == pytest.approx((4.0 + 1.0 + 1.0) / 2)
    assert set(m) == set(run.per_layer_units())


def test_merge_keeps_parents_within_each_worker():
    a = [[0, None, "job", 0.0, 2.0, None], [1, 0, "cli.main", 0.5, 1.5, None]]
    b = [[0, None, "job", 5.0, 6.0, None], [1, 0, "cli.main", 5.1, 5.9, None]]
    merged = spans.merge([a, b])
    assert [s[:2] for s in merged] == [[0, None], [1, 0], [2, None], [3, 2]]
    assert spans.self_times(merged)[2] == pytest.approx(0.2)


def test_tail_keeps_ten_jobs_beyond():
    walls = [float(i) for i in range(40)]
    value, pct = run.tail(walls)
    assert value == 29.0 and sum(w > value for w in walls) == 10
    assert pct == pytest.approx(75.0)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()

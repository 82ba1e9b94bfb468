#!/usr/bin/env python3
"""Record the oracle's expectations into ``perfbench/expected.json``.

    python3 perfbench/record.py

Runs every job shape once on the canonical (unrelabelled) base
structures and stores the relabelling-invariant fields of each report,
keyed by base.  Then runs the first rounds of every workload on the
default seed and stores each report's sha256.  Every recorded job must
already pass the oracle against the recorded invariants.  Re-record
only when a change is meant to alter reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

GOLDEN_ROUNDS = 4


def call(argv, workload: str) -> dict:
    from loopnr import cli
    saved = dict(os.environ)
    os.environ.clear()
    os.environ.update(run.worker_env(workload))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def canonical_jobs(workload: str, workdir: str, bases) -> list:
    maker = workloads.RoundMaker(workload, workloads.DEFAULT_SEED, workdir, bases,
                                 relabelled=False)
    jobs = [j for j in maker.round(0) if j.variant == "clean"]
    if workload == "lattice":
        for i in range(4):
            spec = f"m0:smallloop:4,{i}"
            path = maker.structure_file(0, f"m0-{i}", spec)
            jobs.append(workloads.Job(f"m0-{i}", [workloads.PLAIN, path, *workloads.FULL_FLAGS],
                                      "analyze", f"analyze-full|{spec}"))
    if workload == "construct":
        for factors in workloads.PRODUCT_256_FACTORS:
            spec = "product:" + "+".join(f"cyclic:{f}" for f in factors)
            jobs.append(workloads.Job(spec, [workloads.PLAIN, spec], "analyze",
                                      f"analyze|{spec}"))
    return jobs


def main() -> int:
    os.chdir(os.path.dirname(HERE))
    sys.path.insert(0, os.path.abspath(run.SRC))
    bases = workloads.Bases()
    invariants, golden = {}, {}
    for workload in workloads.WORKLOADS:
        workdir = run.workdir_of(workload)
        canon = os.path.join(run.WORK, "record", workload)
        os.makedirs(workdir, exist_ok=True)
        os.makedirs(canon, exist_ok=True)
        for job in canonical_jobs(workload, canon, bases):
            if job.key in invariants:
                continue
            res = call(job.argv, workload)
            if res["rc"] != 0:
                raise SystemExit(f"{job.id}: exit {res['rc']}: {res['err']}")
            invariants[job.key] = oracle.invariants(job.check, json.loads(res["out"]))
            print(f"recorded {job.key}", file=sys.stderr)

        maker = workloads.RoundMaker(workload, workloads.DEFAULT_SEED, workdir, bases)
        golden[workload] = {}
        for r in range(GOLDEN_ROUNDS):
            for job in maker.round(r):
                res = dict(call(job.argv, workload), exc=None)
                verdict = oracle.judge(job, res, invariants)
                if not verdict.ok:
                    raise SystemExit(f"{job.id}: {verdict.reason}")
                if res["out"]:
                    golden[workload][job.id] = json.loads(res["out"])["sha256"]
            print(f"hashed {workload} round {r}", file=sys.stderr)

    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"invariants": invariants, "sha256": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""loopnr benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 3 --seconds 30 --trace 0

The inputs of every round are written from the seed before the round
is timed.  Jobs run closed-loop, one at a time, through
``loopnr.cli.main`` in a fresh single-threaded worker process per
round (``worker.py``); every report is checked by the oracle
(``oracle.py``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
untraced and traced, and the metrics are the per-layer ones from the
traced rounds (``spans.py``).  A line before it, ``{"detail": ...}``,
gives the job counts, the tail percentile, the set-up samples and any
known-defect probes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SRC = "src"
WORK = os.path.join("perfbench", "work")
SETUP_SAMPLES = 2          # set-up-only processes before each round, plus the round worker's own
TAIL_BEYOND = 10           # jobs that must lie beyond the reported tail percentile
CLOSE_TIMEOUT_S = 60
HARD_CAP_S = 150           # stop starting rounds after this much wall time

# Round makespan at the baseline on a 2-core sandbox.  A run makes
# round(seconds / ROUND_S) rounds, so the job count, and with it the tail
# percentile, does not depend on how busy the machine happens to be.
ROUND_S = {"lattice": 11.0, "construct": 7.0, "decompose": 4.4}

END_TO_END = {
    "makespan_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict:
    """Per-layer metric names with their units, in report order."""
    units = {}
    for name in spans.reported_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for mod in spans.MODULES:
        units[f"layer.{mod}.self_s"] = "s"
    units["nearrings.lattice_members"] = "count"
    units[f"{spans.LATTICE}.reuse"] = "ratio"
    units[f"{spans.CORNER}.reuse"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def workdir_of(workload: str) -> str:
    """Relative, so that the input paths inside reports, and their hashes, repeat."""
    return os.path.join(WORK, workload)


def worker_env(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LOOPNR_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    if workload == "decompose":
        env["LOOPNR_MAX_FAMILY_N"] = str(workloads.DECOMPOSE_MAX_FAMILY_N)
    return env


class Worker:
    """A fresh interpreter running ``worker.py``, timed from spawn to ready."""

    def __init__(self, env: dict, *extra):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line != "ready\n":
            self.close()
            raise RuntimeError("worker did not start")

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.communicate(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


def setup_sample(env: dict) -> float:
    w = Worker(env, "--setup-only")
    w.close()
    return w.setup_s


def run_round(env: dict, jobs: list, trace: bool, spans_path, setups: list):
    """Runs one round in a fresh worker: (reply, peak RSS in KiB).

    A fresh process per round puts the run's samples in several process
    layouts, as separate CLI calls would be, instead of in one.  The
    worker's spawn-to-ready time is appended to ``setups``.
    """
    worker = Worker(env, *(["--spans", spans_path] if trace else []))
    try:
        setups.append(worker.setup_s)
        reply = worker.request({"cmd": "round", "trace": trace,
                                "jobs": [j.to_wire() for j in jobs]})
        rss = worker.request({"cmd": "exit"})["rss_kb"]
    finally:
        worker.close()
    return reply, rss


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(walls: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(walls)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Tally:
    def __init__(self, expected: dict, golden):
        self.expected = expected
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self.known_defects = []

    def judge(self, jobs, results) -> None:
        by_id = {r["id"]: r for r in results}
        for job in jobs:
            self.attempted += 1
            verdict = oracle.judge(job, by_id[job.id], self.expected, self.golden)
            if verdict.known_defect:
                self.known_defects.append(job.id)
            elif not verdict.ok:
                self.failures.append(f"{job.id}: {verdict.reason}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "loopnr", "cli.py")):
        raise FileNotFoundError("run from the root of a loopnr checkout (src/loopnr missing)")
    sys.path.insert(0, os.path.abspath(SRC))
    workdir = workdir_of(workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    expected = oracle.load_expected()
    golden = expected["sha256"].get(workload) if seed == workloads.DEFAULT_SEED else None
    tally = Tally(expected["invariants"], golden)
    maker = workloads.RoundMaker(workload, seed, workdir)
    env = worker_env(workload)

    setups, rss_kb, span_files = [], [], []
    plain, traced, walls = [], [], []
    slot_walls = {}
    rounds = max(2 if trace else 1, round(seconds / ROUND_S[workload]))
    start = time.perf_counter()
    for r in range(rounds):
        if r >= 2 and time.perf_counter() - start > HARD_CAP_S:
            rounds = r
            break
        with_trace = trace and r % 2 == 1
        # spread over the run, so that a slow spell of the machine
        # does not land on every sample
        setups.extend(setup_sample(env) for _ in range(SETUP_SAMPLES))
        jobs = maker.round(r)
        jobs_per_round = len(jobs)
        spans_path = os.path.join(workdir, f"spans-r{r:02d}.json")
        reply, rss = run_round(env, jobs, with_trace, spans_path, setups)
        rss_kb.append(rss)
        tally.judge(jobs, reply["results"])
        if with_trace:
            traced.append(reply["makespan"])
            span_files.append(spans_path)
        else:
            plain.append(reply["makespan"])
            for res in reply["results"]:
                walls.append(res["wall"])
                slot_walls.setdefault(res["id"].partition(".")[2], []).append(res["wall"])
    probes = [job for k in range(rounds) for job in maker.probes(k)]
    if probes:
        reply, _ = run_round(env, probes, False, None, [])
        tally.judge(probes, reply["results"])

    tail_s, tail_pct = tail(walls)
    if trace:
        recorded = spans.merge(load_json(path) for path in span_files)
        values = spans.layer_metrics(recorded, len(traced), plain, traced)
        units = per_layer_units()
    else:
        values = {
            "makespan_s": sum(statistics.median(v) for v in slot_walls.values()),
            "job_p50_s": statistics.median(walls),
            "job_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss_kb) / 1024.0,
        }
        units = END_TO_END
    detail = {
        "workload": workload,
        "seed": seed,
        "rounds_untraced": len(plain),
        "rounds_traced": len(traced),
        "jobs_per_round": jobs_per_round,
        "timed_jobs": len(walls),
        "job_tail_percentile": tail_pct,
        "slot_median_s": {k: statistics.median(v) for k, v in slot_walls.items()},
        "setup_samples_s": setups,
        "golden_checked": golden is not None,
        "known_defect_jobs": tally.known_defects,
        "failures": tally.failures[:20],
    }
    return {
        "detail": detail,
        "result": {
            "correct": not tally.failures,
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

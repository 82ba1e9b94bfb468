"""Workload process: runs one round of CLI jobs in a fresh interpreter.

Started by ``run.py`` from the root of a checkout.  It imports loopnr
from ``src``, builds the parser, runs one warm-up job, prints ``ready``
and then serves requests, one JSON line each, on stdin:

  {"cmd": "round", "jobs": [{"id", "argv"}, ...], "trace": bool}
      runs the jobs back to back through ``loopnr.cli.main`` with
      stdout and stderr captured, each after a ``gc.collect()`` outside
      its wall time; replies with the round makespan and each job's
      exit code, output and wall time.
  {"cmd": "exit"}
      replies with the peak resident set size, writes the spans of the
      traced rounds to ``--spans`` and exits.

With ``--setup-only`` it exits right after printing ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_job(cli, argv, tracer=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("job") if tracer is not None else None
    t0 = time.perf_counter()
    rc, exc = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as stop:
        rc = stop.code
    except Exception as error:  # a job that raises is a failed job, not a failed run
        exc = f"{type(error).__name__}: {error}"
    wall = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "wall": wall, "exc": exc}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    from loopnr import cli
    cli.build_parser()
    warm = run_job(cli, ["analyze", "cyclic:2"])
    if warm["rc"] != 0:
        print(f"warm-up job failed: {warm}", file=sys.stderr)
        return 1
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if args.setup_only:
        return 0

    sys.path.insert(0, HERE)
    from spans import Tracer
    tracer = Tracer()
    while True:
        line = sys.stdin.readline()
        if not line:
            break
        req = json.loads(line)
        if req["cmd"] == "exit":
            break
        traced = req["trace"]
        results = []
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            for job in req["jobs"]:
                # each job starts from a collected heap, as a fresh CLI process would
                gc.collect()
                res = run_job(cli, job["argv"], tracer if traced else None)
                res["id"] = job["id"]
                results.append(res)
            makespan = time.perf_counter() - t0
        proto.write(json.dumps({"makespan": makespan, "results": results}) + "\n")
        proto.flush()

    if args.spans and tracer.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    proto.write(json.dumps({"rss_kb": rss_kb}) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

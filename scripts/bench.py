#!/usr/bin/env python3
"""Wall time and peak RSS of fixed loopnr workloads, one child process per run.

Run from the root of a checkout:

    python3 scripts/bench.py --out BENCH_<n>.json

Every run is its own child: ``python -m loopnr`` with ``src/`` on the
path, run ``REPEATS`` times in a row, or ``perfbench/run.py`` unchanged
at its default seed, run once (it repeats its own jobs).  The four
input files that no workload writes, gf:4096 relabelled along a fixed
permutation fixing 0, the triangular ring [[F2, F2^10], [0, F2]] and the
trivial extensions R_7 = F2 x| F2^7 and R_11 = F2 x| F2^11, are written
first, each by a child of its own.  Peak
RSS is the child's own, from the rusage that ``os.wait4`` returns for
it, which also covers the descendants it waited for (perfbench's
workers); ``RUSAGE_CHILDREN`` would be a running maximum over every
child so far.  That reading also covers the address space the child
was forked with, a copy of this process, so this process imports
nothing heavy (not even NumPy) and stays smaller than any child.  BLAS
pools are held to one thread.  The file records,
per workload, ``wall_s``, ``peak_rss_mib`` and ``exit_code`` (and
perfbench's own result line), and the environment: Python, NumPy, CPU
count and git commit.  For a CLI workload ``wall_s`` is the median of
its runs, all listed in ``wall_s_runs``; ``peak_rss_mib`` is the
largest, and ``exit_code`` the first that is not 0, if any.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time

LIMIT_S = 600
REPEATS = 3   # runs of each CLI workload; one run spreads wider than the changes read off it
C4096 = "c4096.json"   # written by the generate workload, read by the two after it
# gf:4096 relabelled along a fixed permutation fixing 0, written before the
# first workload, so that its basis comes from the search, not a layout
GF4096R = "gf4096r.json"
RELABEL = ("import sys, numpy as np; from loopnr import parse_spec, validate_ring_tables; "
           "from loopnr.io import write_structure; r = parse_spec('gf:4096'); "
           "new = np.concatenate([[0], 1 + np.random.default_rng(0).permutation(r.n - 1)]).astype(np.int16); "
           "old = np.argsort(new); write_structure(validate_ring_tables(*(new[t[old[:, None], old]] "
           "for t in (r.add, r.mul)), int(new[r.one])), open(sys.argv[1], 'w'))")
# [[F2, F2^10], [0, F2]], element a + 2b + 4v for [[a, v], [0, b]]: 2,048
# primitives [[1, v], [0, 0]] and [[0, v], [0, 1]] in 1,024 families
TRI4096 = "tri4096.json"
TRIANGULAR = ("import sys, numpy as np; from loopnr import validate_ring_tables; "
              "from loopnr.io import write_structure; x = np.arange(4096); a, b, v = x & 1, x >> 1 & 1, x >> 2; "
              "mul = (a[:, None] & a) | (b[:, None] & b) << 1 | ((a[:, None] * v) ^ (v[:, None] * b)) << 2; "
              "write_structure(validate_ring_tables((x[:, None] ^ x).astype(np.int16), mul.astype(np.int16), 3), "
              "open(sys.argv[1], 'w'))")
# R_k = F2 x| F2^k, (a, v)(b, w) = (ab, aw + bv), element a + 2v, of order
# 2^(k+1) given as the script's second argument: local, and every subspace
# of V is a left ideal (29,212 of them in R_7, about 8.9e9 in R_11)
R7, R11 = "R7.json", "R11.json"
TRIVIAL_EXTENSION = ("import sys, numpy as np; from loopnr import validate_ring_tables; "
                     "from loopnr.io import write_structure; x = np.arange(int(sys.argv[2])); "
                     "a, v = x & 1, x >> 1; "
                     "mul = (a[:, None] & a) | ((a[:, None] * v) ^ (v[:, None] * a)) << 1; "
                     "write_structure(validate_ring_tables((x[:, None] ^ x).astype(np.int16), "
                     "mul.astype(np.int16), 1), open(sys.argv[1], 'w'))")
CLI = [
    (["check", "ut2:cyclic:16"], {}),
    (["analyze", "cyclic:4096"], {}),
    (["check", "gf:4096"], {}),
    (["check", GF4096R], {}),
    (["check", "matrix:gf:8,2"], {}),
    (["check", "product:matrix:cyclic:2,2+matrix:cyclic:2,2+cyclic:2+cyclic:2+cyclic:2+cyclic:2"], {}),
    (["check", "product:gf:64+gf:64"], {}),
    (["analyze", "cyclic:2048", "--subloops"], {}),
    (["analyze", "cyclic:4096", "--subloops"], {}),
    (["analyze", "m0:nonassoc5", "--local"], {}),
    (["analyze", "ut2:cyclic:16", "--subloops", "--local", "--radical"], {}),
    (["analyze", "product:" + "+".join(["cyclic:2"] * 8), "--subloops"], {}),
    # local, so its one coatom is closed from its non-units, without the
    # 29,213-member lattice; so are R_11's
    (["analyze", R7, "--local"], {}),
    (["analyze", R11, "--local", "--radical"], {}),
    (["decompose", R11, "--verify-uniqueness"], {}),
    # 4,096 ideals of Z2^12; not the largest lattice max_enum_n admits
    # (F2 x| F2^11 has billions), the slowest constructor input measured
    (["analyze", "product:" + "+".join(["cyclic:2"] * 12), "--subloops", "--local", "--radical"], {}),
    (["decompose", "ut2:cyclic:16", "--verify-uniqueness"], {}),
    # 64 idempotents, 12 primitives, 9 families
    (["decompose", "product:matrix:cyclic:2,2+matrix:cyclic:2,2", "--verify-uniqueness"], {}),
    # a local ring of the largest order: its corner at 1 is the whole ring
    (["decompose", "gf:4096", "--verify-uniqueness"], {}),
    # a local ring of the largest order without family enumeration: its
    # corner's digest hashes the text of all 4,096 sorted rows
    (["decompose", "cyclic:4096"], {}),
    # M2(Z/8): 96 rank-1 primitives in 48 families
    (["decompose", "matrix:cyclic:8,2", "--verify-uniqueness"], {}),
    (["decompose", TRI4096, "--verify-uniqueness"], {}),
    # 4,096 idempotents, of which the splitter passes read only those asked for
    (["decompose", "product:" + "+".join(["cyclic:2"] * 12)], {}),
    (["generate", "cyclic:4096"], {}),
    (["check", C4096], {}),
    (["analyze", C4096], {}),
]
PERFBENCH = ["lattice", "construct", "decompose"]


def run(cmd: list, env: dict, out_path: str) -> dict:
    """Run ``cmd`` with stdout to ``out_path``: its wall time, peak RSS and exit code."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(LIMIT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": round(wall, 3), "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
            "exit_code": proc.returncode}


def repeated(cmd: list, env: dict, out_path: str) -> dict:
    """``run`` ``REPEATS`` times: the median wall time, every run's, the
    largest peak RSS and the first exit code that is not 0."""
    runs = [run(cmd, env, out_path) for _ in range(REPEATS)]
    walls = [r["wall_s"] for r in runs]
    return {"wall_s": sorted(walls)[len(walls) // 2], "wall_s_runs": walls,
            "peak_rss_mib": max(r["peak_rss_mib"] for r in runs),
            "exit_code": next((r["exit_code"] for r in runs if r["exit_code"]), 0)}


def git(*args) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH json file to write")
    args = parser.parse_args(argv)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LOOPNR_")}
    env.update(PYTHONPATH="src", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for script, name, *size in ((RELABEL, GF4096R), (TRIANGULAR, TRI4096),
                                    (TRIVIAL_EXTENSION, R7, "256"), (TRIVIAL_EXTENSION, R11, "4096")):
            subprocess.run([sys.executable, "-c", script, os.path.join(tmp, name), *size], env=env,
                           check=True)
        for argv_, extra in CLI:
            argv_ = [os.path.join(tmp, a) if a in (C4096, GF4096R, TRI4096, R7, R11) else a
                     for a in argv_]
            out = os.path.join(tmp, C4096 if argv_[0] == "generate" else "stdout")
            row = repeated([sys.executable, "-m", "loopnr", *argv_], {**env, **extra}, out)
            rows.append({"command": " ".join(argv_).replace(tmp + os.sep, ""), "env": extra, **row})
            print(rows[-1], flush=True)
        for workload in PERFBENCH:
            out = os.path.join(tmp, "stdout")
            row = run([sys.executable, "perfbench/run.py", "--workload", workload], env, out)
            with open(out, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            rows.append({"command": f"perfbench/run.py --workload {workload}", **row,
                         "perfbench": json.loads(lines[-1]) if lines else None})
            print({k: v for k, v in rows[-1].items() if k != "perfbench"}, flush=True)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    bench = {
        "environment": {
            "python": platform.python_version(),
            "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                    capture_output=True, text=True).stdout.strip(),
            "cpu_count": os.cpu_count(),
            "git_commit": git("rev-parse", "HEAD") + ("-dirty" if dirty else ""),
        },
        "workloads": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0 if all(row["exit_code"] == 0 for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())

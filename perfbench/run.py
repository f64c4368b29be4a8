"""Benchmark driver: repeats one workload in fresh processes for a fixed
time and prints its end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 30 --trace 0

Each repetition is a new ``rep.py`` process with the ``REPRO_*``
environment scrubbed, ``PYTHONPATH`` pointing at ``src`` and a fresh
artifact-cache directory under ``.perfbench/`` in the checkout, so no
state survives from one repetition to the next.  Timings are the median
over repetitions; counts of attempted and failed evaluations are summed.
The last stdout line is the result object; a fuller record (host
metadata, every repetition) goes to ``.perfbench/results/``.  The exit
code is non-zero, with no result line, when the checkout has no
``src/repro``, a repetition crashes, or a cold workload sees an
artifact-cache hit; it is non-zero after the result line when any
evaluation row differs from ``golden.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: repetitions made however long they take
MIN_REPS = 3
#: wall-clock cap on one repetition
REP_TIMEOUT_S = 150.0


def _environment(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    return env


def _rep(args, index: int, work: str, env: dict, trace: int) -> dict:
    # a fresh directory per repetition, deleted at once: its artifacts
    # are gone before the kernel would write them back to disk
    rep_dir = tempfile.mkdtemp(prefix="rep-", dir=work)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--rep", str(index), "--trace", str(trace), "--work", rep_dir,
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("repetition failed with exit code %d"
                         % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(src, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> "str | None":
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("no src/repro here: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    import layers
    import points

    if args.workload not in points.WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(points.WORKLOADS))
    base = os.path.abspath(".perfbench")
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    env = _environment(src)
    try:
        reps, traced = _measure(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.workload != "config-sweep":
        hits = sum(r["cache_hits"] for r in reps + traced)
        if hits:
            print("refusing to report %s: %d artifact-cache hit(s) in a "
                  "cold run" % (args.workload, hits), file=sys.stderr)
            return 1

    attempted = sum(r["attempted"] for r in reps + traced)
    failed = sum(r["failed"] for r in reps + traced)
    if args.trace:
        wall = statistics.median(r["wall_s"] for r in reps)
        metrics = {}
        for name, unit in layers.PER_LAYER:
            if name == "obs.trace_overhead_frac":
                traced_wall = statistics.median(r["wall_s"] for r in traced)
                value = traced_wall / wall - 1.0
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in reps),
                   "unit": unit}
            for name, unit in END_TO_END
        }

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(reps),
        "traced_runs": len(traced),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "trace_kernels": reps[0]["trace_kernels"],
        "jobs": reps[0]["jobs"],
        "points": sorted({p for r in reps for p in r["points"]}),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(src),
    }
    for name, m in metrics.items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-28s %14.6g %s" % ("error_rate", failed / attempted,
                                "failed/attempted"))
    mismatched = sorted({b for r in reps + traced for b in r["mismatched"]})
    for bad in mismatched:
        print("row differs from golden: %s" % bad, file=sys.stderr)
    record = {"meta": meta, "metrics": metrics, "attempted": attempted,
              "failed": failed, "repetitions": reps, "traced": traced}
    out = os.path.join(base, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _measure(args, work: str, env: dict):
    """Untraced repetitions (and, with ``--trace 1``, traced ones
    alternating with them) until the next one would overrun
    ``--seconds``; at least :data:`MIN_REPS` of each kind."""
    reps, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(_rep(args, len(reps), work, env, trace=0))
        if args.trace:
            # the traced twin repeats the untraced plan
            traced.append(_rep(args, len(reps) - 1, work, env, trace=1))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + took > args.seconds:
            return reps, traced


if __name__ == "__main__":
    sys.exit(main())

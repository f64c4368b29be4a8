"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py`` with a scrubbed environment; prints one JSON
object on its last stdout line.  Set-up (imports, a fresh artifact-cache
directory under ``--work``, and for ``config-sweep`` the profile priming)
runs first; the timed phase follows; the rows are then checked against
``golden.json``.  With ``--trace 1`` the entry points listed in
``layers.py`` are wrapped before set-up and the spans of the timed phase
become per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

import layers
import points
import rows as golden_rows
import spans


def _rusage_cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    With forked pool workers this counts the pages a worker shares
    copy-on-write with this process twice and leaves out every worker
    but the largest; serial workloads start no child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _watch_cache_hits(spool: str):
    """Record every artifact-cache hit, in this process or a forked pool
    worker, as a line in ``<spool>/hits-<pid>``; a cold run has none.
    Returns a function that removes the watch."""
    from repro.artifacts import ArtifactCache

    original = ArtifactCache.get

    def get(self, kind, key):
        obj = original(self, kind, key)
        if obj is not None:
            path = os.path.join(spool, "hits-%d" % os.getpid())
            with open(path, "a") as fh:
                fh.write(kind + "\n")
        return obj

    ArtifactCache.get = get

    def unwatch():
        ArtifactCache.get = original

    return unwatch


def _count_hits(spool: str) -> int:
    n = 0
    for fname in os.listdir(spool):
        if fname.startswith("hits-"):
            with open(os.path.join(spool, fname)) as fh:
                n += sum(1 for _ in fh)
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=points.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0,
                    help="repetition index; with the seed it picks the "
                         "program order and design points")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True,
                    help="scratch directory for caches and spools")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process started")
    args = ap.parse_args(argv)
    if args.workload != "parallel-suite":
        # serial work on one fixed core: no migrations between cores
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import repro
    from repro import NeedlePipeline, PipelineOptions, evaluate_suite
    from repro.workloads import base as workload_base

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.work)
    spool = tempfile.mkdtemp(prefix="spool-", dir=args.work)
    cold = args.workload != "config-sweep"
    if cold:
        _watch_cache_hits(spool)
    tracer = None
    if args.trace:
        tracer = layers.install(spans.Tracer(spool=spool))

    suite = {w.name: w for w in repro.suite()}
    names = points.program_order(list(suite), args.workload, args.seed,
                                 args.rep)
    programs = [suite[n] for n in names]
    jobs = 1
    if args.workload == "config-sweep":
        plan = points.sweep_points(args.seed, args.rep)
        NeedlePipeline(
            options=PipelineOptions(cache_dir=cache_dir)
        ).analyse_all(programs)
    else:
        plan = [(points.DEFAULT_POINT, repro.DEFAULT_CONFIG)]
        if workload_base._PROFILE_CACHE:
            raise SystemExit("cold run started with in-memory profiles")
        if args.workload == "parallel-suite":
            jobs = min(2, len(os.sched_getaffinity(0)))

    def options(config):
        if args.workload == "parallel-suite":
            return PipelineOptions(config=config, cache_dir=cache_dir,
                                   jobs=jobs, pool="process")
        return PipelineOptions(config=config, cache_dir=cache_dir)

    if tracer is not None:
        tracer.reset()
    cpu0 = _rusage_cpu_s()
    t0 = time.monotonic()
    results = []
    for point_id, config in plan:
        if tracer is not None:
            tracer.point = point_id
        results.append(evaluate_suite(programs, options=options(config)))
    t1 = time.monotonic()
    cpu_s = _rusage_cpu_s() - cpu0
    peak = _peak_rss_mb()

    golden = golden_rows.load_golden()
    bad = []
    for (point_id, _config), got in zip(plan, results):
        bad.extend("%s@%s" % (name, point_id) for name in
                   golden_rows.check_rows(names, got, golden[point_id]))
    out = {
        "wall_s": t1 - t0,
        "setup_s": t0 - args.spawned,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak,
        "attempted": len(names) * len(plan),
        "failed": len(bad),
        "mismatched": bad,
        "cache_hits": _count_hits(spool) if cold else None,
        "points": [p for p, _ in plan],
        "jobs": jobs,
        "numpy": _numpy_version(),
        "trace_kernels": PipelineOptions().trace_kernels,
    }
    if tracer is not None:
        tracer.uninstall()
        lists = [tracer.spans] + spans.read_spool(spool)
        out["layers"] = layers.layer_metrics(lists, out["wall_s"], jobs)
        out["by_program"] = _by_program(lists)
    print(json.dumps(out, sort_keys=True))
    return 0


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _by_program(span_lists):
    """Self seconds per (program, point) and span name, for the trace file."""
    out = {}
    for lst in span_lists:
        for rec, own in zip(lst, spans.self_times(lst)):
            key = "%s@%s" % tuple(rec[4])
            row = out.setdefault(key, {})
            row[rec[0]] = row.get(rec[0], 0.0) + own
    return out


if __name__ == "__main__":
    sys.exit(main())

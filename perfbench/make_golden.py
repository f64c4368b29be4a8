"""Generate ``golden.json``: one row digest per (program, design point) of
the menu in ``points.py``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_golden.py
    git diff perfbench/golden.json    # empty when the rows are unchanged

Every point is evaluated twice: on the production tier (run-length trace
kernels, simulation memo, one artifact cache shared by all points, as
``config-sweep`` shares it) and on the reference tier
(``trace_kernels="events"``, ``no_sim_memo=True``, no artifact cache,
profiles recomputed).  The two must agree on every row before anything
is written.
"""

from __future__ import annotations

import json
import sys
import tempfile

import points
import rows


def evaluate_point(options):
    from repro import evaluate_suite

    return {row.name: rows.digest(row)
            for row in evaluate_suite(options=options)}


def main() -> int:
    from repro import PipelineOptions
    from repro.workloads import clear_profile_cache

    menu = points.all_points()
    production = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        for pid, config in menu.items():
            production[pid] = evaluate_point(
                PipelineOptions(config=config, cache_dir=cache_dir))
    clear_profile_cache()
    mismatches = 0
    for pid, config in menu.items():
        reference = evaluate_point(PipelineOptions(
            config=config, no_cache=True, trace_kernels="events",
            no_sim_memo=True))
        for name in sorted(set(reference) | set(production[pid])):
            if reference.get(name) != production[pid].get(name):
                print("tier mismatch: %s@%s" % (name, pid), file=sys.stderr)
                mismatches += 1
    if mismatches:
        return 1
    doc = {"format": 1, "points": production}
    with open(rows.GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d points x %d programs" % (
        len(production), len(production[points.DEFAULT_POINT])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

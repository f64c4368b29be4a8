"""Design points and seeded run plans for the three benchmark workloads.

A *design point* is one :class:`~repro.sim.config.SystemConfig`.  The
menu below is fixed: the golden digests in ``golden.json`` cover every
(program, point) pair in it, and ``config-sweep`` draws its points from
it with the run's seed.  Each non-default point changes exactly one
config slice, so the simulation memo's content keys decide what a point
recomputes:

* ``cgra.*``  — neither calibration nor path costs (keyed on memory/host);
* ``host.*``  — OOO path costs (keyed on the host core);
* ``mem.*``   — memory calibration (keyed on the hierarchy), and with it
  the path costs that depend on the calibrated load latency.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.sim.config import (
    DEFAULT_CONFIG,
    CacheConfig,
    SystemConfig,
)

WORKLOADS = ("cold-suite", "config-sweep", "parallel-suite")

DEFAULT_POINT = "default"


def _cgra(**kw) -> SystemConfig:
    return replace(DEFAULT_CONFIG, cgra=replace(DEFAULT_CONFIG.cgra, **kw))


def _host(**kw) -> SystemConfig:
    return replace(DEFAULT_CONFIG, host=replace(DEFAULT_CONFIG.host, **kw))


def _memory(**kw) -> SystemConfig:
    return replace(DEFAULT_CONFIG,
                   memory=replace(DEFAULT_CONFIG.memory, **kw))


#: slice -> {point id: config}; ids are stable golden-file keys
MENU: Dict[str, Dict[str, SystemConfig]] = {
    "default": {DEFAULT_POINT: DEFAULT_CONFIG},
    "cgra": {
        "cgra.rows8": _cgra(rows=8),
        "cgra.issue4": _cgra(issue_width=4),
        "cgra.net18pj": _cgra(network_pj=18.0),
        "cgra.reconfig32": _cgra(reconfig_cycles=32),
    },
    "host": {
        "host.rob48": _host(rob_entries=48),
        "host.rob192": _host(rob_entries=192),
        "host.issue2": _host(fetch_width=2, issue_width=2, retire_width=2),
        "host.alus3": _host(int_alus=3, fp_units=1),
    },
    "memory": {
        "mem.l1_4k": _memory(l1=CacheConfig(size_bytes=4 * 1024,
                                            associativity=2, latency=2)),
        "mem.l2_lat30": _memory(l2=CacheConfig(size_bytes=2 * 1024 * 1024,
                                               associativity=8, latency=30)),
        "mem.dram200": _memory(dram_latency=200),
    },
}

#: how many points of each slice one config-sweep evaluates
SWEEP_SHAPE = (("default", 1), ("cgra", 2), ("host", 2), ("memory", 1))


def all_points() -> Dict[str, SystemConfig]:
    """Every point in the menu, default first."""
    out: Dict[str, SystemConfig] = {}
    for points in MENU.values():
        out.update(points)
    return out


def sweep_points(seed: int, rep: int = 0) -> List[Tuple[str, SystemConfig]]:
    """The six (id, config) points repetition ``rep`` of a
    ``config-sweep`` run with ``seed`` evaluates."""
    rng = random.Random("config-sweep:%d:%d" % (seed, rep))
    chosen: List[Tuple[str, SystemConfig]] = []
    for slice_name, n in SWEEP_SHAPE:
        ids = sorted(MENU[slice_name])
        for pid in sorted(rng.sample(ids, n)):
            chosen.append((pid, MENU[slice_name][pid]))
    return chosen


def program_order(names: List[str], workload: str, seed: int,
                  rep: int = 0) -> List[str]:
    """Submission order of the suite's programs for one repetition.

    ``cold-suite`` and ``parallel-suite`` shuffle it with the seed and
    the repetition index (the rows do not depend on the order; which
    program runs last, and so the parallel makespan, does: a run's median
    is over many orders).  ``config-sweep`` keeps suite order.
    """
    names = list(names)
    if workload != "config-sweep":
        random.Random("%s:%d:%d" % (workload, seed, rep)).shuffle(names)
    return names

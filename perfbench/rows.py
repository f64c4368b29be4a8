"""Canonical evaluation rows and the committed golden digests.

An evaluation row is the full :class:`~repro.pipeline.WorkloadEvaluation`
record of one program at one design point.  Its canonical form is the
dataclass tree as sorted-key JSON (floats in ``repr`` form, so every bit
counts); its digest is the SHA-256 of that text.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, List, Optional

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def canonical(evaluation) -> str:
    """Sorted-key JSON text of one evaluation record."""
    return json.dumps(dataclasses.asdict(evaluation), sort_keys=True,
                      separators=(",", ":"))


def digest(evaluation) -> str:
    return hashlib.sha256(canonical(evaluation).encode()).hexdigest()


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, str]]:
    """``{point id: {program: digest}}`` from the committed golden file."""
    with open(path) as fh:
        return json.load(fh)["points"]


def check_rows(names: List[str], rows: List, expected: Dict[str, str]
               ) -> List[str]:
    """Programs whose row is missing, quarantined or differs from the
    golden digest (empty when every row is correct)."""
    bad: List[str] = []
    for name, row in zip(names, rows):
        got: Optional[str] = None
        if getattr(row, "name", None) == name and hasattr(row, "summary"):
            got = digest(row)
        if got is None or got != expected.get(name):
            bad.append(name)
    bad.extend(names[len(rows):])
    return bad

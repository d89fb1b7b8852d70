"""Warm the enumerator caches a workload reads, through enumerate_structures.

Kept apart and free of imports beyond relmon, so that a fresh interpreter can
time ``import relmon`` plus this warm-up and little else (see SETUP_CHILD in
run.py). A spec reads ``kind:size:dedup|labeled``; a ``monad-order`` spec
enumerates the monad orders over the first labeled relational monoid of that
size, which fills the preorder cache of that size.
"""

import time

from relmon.search import EnumSpec, enumerate_structures


def parse(spec: str) -> tuple[str, int, bool]:
    kind, size, form = spec.split(":")
    return kind, int(size), form == "dedup"


def warm(specs, clock=time.perf_counter) -> dict[str, float]:
    """Run each enumeration to the end; return its wall time by spec."""
    took = {}
    for spec in specs:
        kind, size, dedup = parse(spec)
        t0 = clock()
        if kind == "monad-order":
            base = next(enumerate_structures(EnumSpec("relmonoid", size, None, False)))
            enum = EnumSpec(kind, size, base)
        else:
            enum = EnumSpec(kind, size, None, dedup)
        for _ in enumerate_structures(enum):
            pass
        took[spec] = clock() - t0
    return took


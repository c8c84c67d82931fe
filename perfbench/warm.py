"""Library set-up shared by the in-process workload and its set-up probe.

Run as a script, this is the probe: a fresh interpreter that imports qlatin
from this checkout's sources and warms it up, so that its wall time, taken by
the caller, is what a library user pays before the first grid.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def use_checkout_sources() -> None:
    """Import qlatin from this checkout, never from an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def valid_targets(m: int) -> list[int]:
    from qlatin import synthesis

    rng = synthesis.valid_cardinalities(m)
    return [c for c in range(rng.lo, rng.hi + 1) if c != rng.excluded]


def warm_up(ms) -> None:
    """Fill the caches a sweep over order 4m, m in ms, reaches: the
    reachable-sum tables, the high-regime slot binding, and every generator
    block that some plan names."""
    from qlatin import generators, synthesis

    names = set()
    for m in sorted(set(ms)):
        for c in valid_targets(m):
            for diag in synthesis.plan_for(m, c).diagonals:
                names.update(diag)
    for name in sorted(names):
        generators.realize_generator(name)


if __name__ == "__main__":
    use_checkout_sources()
    warm_up(int(a) for a in sys.argv[1:])

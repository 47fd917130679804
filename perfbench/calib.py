"""A fixed unit of pure-Python work that gauges the host's current speed.

On a shared host the same code runs up to twice as fast in one second
as in the next (neighbours, frequency, a sibling hardware thread), and
such swings last from a few commands to minutes.  They move every
command of a run together, so the worker runs this unit right before
every command and once after the last, and run.py scales each command's
wall time by REFERENCE_S over the mean of the two units around it:

    scaled_s = wall_s * REFERENCE_S / ((unit_before_s + unit_after_s) / 2)

A scaled time is what the command would take on a host that runs the
unit in REFERENCE_S.  The unit is the generator's own boundary tracer
(union-find over tuple-keyed dicts, the same kind of work as topopoly's
subset sweep) on fixed graphs; it imports nothing from topopoly, so a
change to the program cannot change it.  The garbage collector is off
while it runs, so the size of the program's heap does not reach it.
"""

from __future__ import annotations

import gc
import random
import time

import gen

# One unit on a 2-vCPU cloud VM (Python 3.11) reads between 0.8 and
# 1.6 ms as the host's load comes and goes; 1.2 ms is a typical reading.
# A constant, so that scaled times from different runs, seeds and
# commits compare.
REFERENCE_S = 1.2e-3

_GRAPHS = [gen.random_graph(random.Random(k), 3 + k, 10, signed=k % 2 == 0)
           for k in range(3)]
_ROUNDS = 7
_REPEATS = 3


def unit() -> float:
    """Run the unit a few times and return the shortest wall time, in
    seconds: the host's speed, without a stall that hit one repeat."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEATS):
            t = time.perf_counter()
            for _ in range(_ROUNDS):
                for g in _GRAPHS:
                    gen.boundary_circles(g)
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: list[float], units: list[float]) -> list[float]:
    """Each command's wall time at the reference speed; units[i] ran
    before command i and units[i + 1] after it."""
    if len(units) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} commands need {len(seconds) + 1} units, "
                         f"got {len(units)}")
    return [s * REFERENCE_S * 2 / (units[i] + units[i + 1])
            for i, s in enumerate(seconds)]

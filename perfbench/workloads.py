"""The three workloads, as seeded pools of one-command inputs.

A workload's pool is a sequence of blocks.  Every block has the same
mix of commands, edge counts and kinds of closure; only the random
graphs differ.  A timed run executes
whole blocks, in order, until its time is up, so every run measures the
same mix whatever the seed, and a faster program simply gets further
into the pool.  The first TRACE_BLOCKS blocks are the fixed command set
of the traced run, whose work counts must repeat exactly.

Block b of a pool draws from random.Random(f"{workload}:{seed}:{b}"), so
a block's inputs do not depend on how many blocks the pool has.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen

WHICH = ("tutte", "dichromatic", "br", "lv", "lv-ext", "krushkal")

# Blocks per pool: about three times what a 20 s run uses at the
# commit that defined the benchmark, so a faster program has room.
POOL_BLOCKS = {"expand": 16, "recurse": 40, "verify": 36}
TRACE_BLOCKS = {"expand": 1, "recurse": 2, "verify": 2}


@dataclass
class Input:
    id: str
    graph: gen.Graph
    closure: gen.Closure
    argv: list[str]             # the command, without the input file
    manifest: dict

    @property
    def text(self) -> str:
        return gen.to_text(self.graph, self.closure)

    @property
    def file(self) -> str:
        return f"{self.id}.txt"

    def command(self, path: str) -> list[str]:
        return [self.argv[0], path] + self.argv[1:]


def _draw(rng: random.Random, n_vertices: int, n_edges: int, *, signed: bool,
          pinch: bool = False, accept=lambda g: True) -> gen.Graph:
    for _ in range(20000):
        g = gen.random_graph(rng, n_vertices, n_edges, signed=signed, pinch=pinch)
        if accept(g):
            return g
    raise RuntimeError(f"no acceptable graph with {n_vertices} vertices and "
                       f"{n_edges} edges")


def _pseudo(rng: random.Random, g: gen.Graph, n_regions: int) -> gen.Closure:
    """A closure that is not cellular: coarse regions, often of positive
    genus, several circles per region where the trace allows."""
    f = gen.boundary_circles(g)
    while True:
        closure = gen.coarse_regions(rng, f, n_regions)
        if not gen.manifest(g, closure)["cellular"]:
            return closure


def _expand_block(rng: random.Random, b: int) -> list[tuple]:
    """Every polynomial by expansion on pinch-free cellular embeddings
    of 7 to 12 edges and 2 to 6 vertices, signed and plain.  Six sizes
    put the 90th percentile among commands of like cost (krushkal at 10
    edges, lv at 11, br at 12) rather than on the gap below the three
    dearest.  A slot keeps its vertex count and sign in every block, so
    its commands cost about the same and a run's mix does not depend on
    how many blocks it completes."""
    slots = []
    for i, n_edges in enumerate((7, 8, 9, 10, 11, 12)):
        for j, which in enumerate(WHICH):
            n_vertices = 2 + (i + j) % 5
            g = _draw(rng, n_vertices, n_edges, signed=(i + j) % 2 == 0)
            slots.append((g, gen.cellular(), ["poly", "--which", which]))
    return slots


# Recursion cost follows the number of leaves, L(1,1,1), which varies
# several-fold between random graphs of one size.  Each slot therefore
# names a target leaf count (near the median of 200 draws of its kind,
# except the middle slots') and keeps the draw closest to it.
# Slot: (edges, kind, vertices, pinch, regions, target leaves); kind 0
# is lv-ext on a cellular embedding with at most two faces, kind 1 is lv
# on one, kind 2 is lv-ext on a pseudo-surface with 1 or 2 regions.
_RECURSE_SLOTS = (
    (10, 0, 3, False, 0, 880), (10, 2, 4, True, 1, 690),
    (11, 1, 5, False, 0, 1000), (11, 2, 5, False, 2, 880),
    # Four alike, cheaper than every slot below and dearer than every
    # slot above: they hold the median command.
    (12, 0, 4, False, 0, 2400), (12, 0, 4, False, 0, 2400),
    (12, 0, 4, False, 0, 2400), (12, 0, 4, False, 0, 2400),
    (12, 1, 3, False, 0, 3800), (12, 2, 3, True, 2, 3450),
    (13, 0, 5, False, 0, 4800), (13, 2, 4, False, 1, 6900))
_LEAF_DRAWS = 40            # at most, per slot
_LEAF_TOLERANCE = 0.05      # stop at the first draw this close to the target


def _recurse_block(rng: random.Random, b: int) -> list[tuple]:
    """Delete/contract on 10 to 13 edges with few regions: cellular
    embeddings with at most two faces (lv-ext and lv), and
    pseudo-surfaces with pinch points, genus and several circles on one
    or two regions.  Every block has the same slots, each at its target
    leaf count, so commands of one slot cost about the same."""
    slots = []
    for s, (n_edges, kind, n_vertices, pinch, n_regions, target) in enumerate(_RECURSE_SLOTS):
        signed = s % 2 == 0
        best = None
        for _ in range(_LEAF_DRAWS):
            if kind < 2:
                g = _draw(rng, n_vertices, n_edges, signed=signed,
                          accept=lambda g: gen.boundary_circles(g) <= 2)
                closure = gen.cellular()
            else:
                g = _draw(rng, n_vertices, n_edges, signed=signed, pinch=pinch)
                closure = _pseudo(rng, g, n_regions)
            miss = abs(gen.recursion_leaves(g, closure) / target - 1)
            if best is None or miss < best[0]:
                best = (miss, g, closure)
            if miss <= _LEAF_TOLERANCE:
                break
        _, g, closure = best
        which = "lv" if kind == 1 else "lv-ext"
        slots.append((g, closure, ["poly", "--which", which, "--method", "recursion"]))
    return slots


def _low_genus(kind: int):
    """Sphere, projective plane or torus as the cellular filling."""
    def accept(g: gen.Graph) -> bool:
        genus = gen.ribbon_genus(g)
        if kind == 0:
            return genus == 0
        if kind == 1:
            return genus == 1
        return genus == 2 and gen.orientable(g)
    return accept


def _verify_block(rng: random.Random, b: int) -> list[tuple]:
    """The identity suite on pinched pseudo-surfaces (8 to 10 edges,
    perspective checks only), low-genus cellular graphs (6 and 7 edges,
    full state sweep) and a higher-genus cellular graph (9 edges, state
    checks over the sweep cap).  The four 10-edge pseudo-surfaces are
    alike (3 vertices, two regions) and hold the median command; the
    three dearest commands, two 7-edge low-genus graphs and the 9-edge
    one, are of like cost and hold the 90th percentile."""
    argv = ["identities", "--suite", "all"]
    slots = []
    for i, n_edges in enumerate((8, 8, 9, 9, 10, 10, 10, 10)):
        cheap = n_edges < 10
        g = _draw(rng, 3 + i % 2 if cheap else 3, n_edges,
                  signed=i % 2 == 0 if cheap else True, pinch=True)
        slots.append((g, _pseudo(rng, g, 1 + i % 2 if cheap else 2), argv))
    for i, n_edges in enumerate((6, 7, 7)):
        kind = (i + b) % 3
        # Euler's formula bounds the vertices a given genus allows; a low
        # cycle rank keeps a random rotation on the target surface often.
        n_vertices = n_edges - 1 - kind - rng.randint(0, 1)
        g = _draw(rng, n_vertices, n_edges, signed=(kind == 1),
                  accept=_low_genus(kind))
        slots.append((g, gen.cellular(), argv))
    g = _draw(rng, 3, 9, signed=b % 2 == 0)
    slots.append((g, gen.cellular(), argv))
    return slots


_BLOCKS = {"expand": _expand_block, "recurse": _recurse_block,
           "verify": _verify_block}
WORKLOADS = tuple(_BLOCKS)


def block(workload: str, seed: int, b: int) -> list[Input]:
    rng = random.Random(f"{workload}:{seed}:{b}")
    slots = _BLOCKS[workload](rng, b)
    rng.shuffle(slots)
    return [Input(f"b{b:03d}-{k:02d}", g, closure, argv, gen.manifest(g, closure))
            for k, (g, closure, argv) in enumerate(slots)]


def pool(workload: str, seed: int) -> list[list[Input]]:
    return [block(workload, seed, b) for b in range(POOL_BLOCKS[workload])]

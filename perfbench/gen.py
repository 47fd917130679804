"""Seeded inputs for the benchmark, written in topopoly's text format.

The generator is self-contained: it builds signed rotation systems
(with pinch points where asked), closes them with discs or with coarser
region structures, and computes the manifest properties (boundary
circles, Euler genus, orientability, cellularity) with its own small
tracer.  It imports nothing from topopoly or its tests, so the inputs
for a seed stay the same whatever later changes to the program or the
test corpus do.

Every generated graph is connected, so the ambient pseudo-surface has
exactly one component.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Graph:
    """sectors[v] is a list of sectors, each a cyclic list of half-edges
    (edge id, end); signs[e] is +1 or -1; ends[e] is (v at end 0, v at end 1)."""

    sectors: dict[int, list[list[tuple[int, int]]]]
    signs: dict[int, int]
    ends: dict[int, tuple[int, int]]


def random_graph(rng: random.Random, n_vertices: int, n_edges: int, *,
                 signed: bool, pinch: bool = False) -> Graph:
    """A connected graph: a random spanning tree, then random extra
    edges (loops and parallels allowed), random rotations.  With pinch,
    one vertex with at least two half-edges is split into two sectors."""
    if n_edges < n_vertices - 1:
        raise ValueError("too few edges for a connected graph")
    ends = {}
    for e in range(1, n_vertices):
        ends[e] = (rng.randrange(e), e) if rng.random() < 0.5 else (e, rng.randrange(e))
    for e in range(n_vertices, n_edges + 1):
        ends[e] = (rng.randrange(n_vertices), rng.randrange(n_vertices))
    halves: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n_vertices)}
    for e, (u, w) in ends.items():
        halves[u].append((e, 0))
        halves[w].append((e, 1))
    sectors = {}
    for v, hs in halves.items():
        rng.shuffle(hs)
        sectors[v] = [hs]
    if pinch:
        candidates = [v for v, hs in halves.items() if len(hs) >= 2]
        v = rng.choice(candidates)
        hs = sectors[v][0]
        cut = rng.randrange(1, len(hs))
        sectors[v] = [hs[:cut], hs[cut:]]
    signs = {e: (rng.choice((1, -1)) if signed else 1) for e in ends}
    return Graph(sectors, signs, ends)


# ---------------------------------------------------------------------------
# the benchmark's own tracer (manifest properties only)


class _Sets:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.count = len(self.parent)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.count -= 1


def _corner_orbits(g: Graph) -> _Sets:
    """The corner points (edge, end, io), joined along every band and
    around every sector; each class is one boundary circle."""
    sets = _Sets((e, end, io) for e in g.signs for end in (0, 1) for io in (0, 1))
    for e, sign in g.signs.items():
        for io in (0, 1):
            sets.union((e, 0, io), (e, 1, 1 - io) if sign > 0 else (e, 1, io))
    for secs in g.sectors.values():
        for sec in secs:
            for i, (e, end) in enumerate(sec):
                nxt = sec[(i + 1) % len(sec)]
                sets.union((e, end, 1), (nxt[0], nxt[1], 0))
    return sets


def boundary_circles(g: Graph) -> int:
    """Boundary circles of the ribbon surface: one per corner orbit,
    plus one per sector without half-edges."""
    empty = sum(1 for secs in g.sectors.values() for sec in secs if not sec)
    return _corner_orbits(g).count + empty


def side_circles(g: Graph) -> dict[int, tuple[int, int]]:
    """The circles on the two sides of every edge, numbered as topopoly's
    trace numbers them (by their smallest corner point)."""
    sets = _corner_orbits(g)
    index: dict = {}
    for p in sorted(sets.parent):
        index.setdefault(sets.find(p), len(index))
    return {e: (index[sets.find((e, 0, 0))], index[sets.find((e, 0, 1))])
            for e in g.signs}


def ribbon_genus(g: Graph) -> int:
    """Euler genus of the surface that closes every circle with a disc."""
    return 2 - (len(g.sectors) - len(g.signs) + boundary_circles(g))


def orientable(g: Graph) -> bool:
    """No cycle of bands reverses a disc (parity union-find over sectors)."""
    home = {}
    for v, secs in g.sectors.items():
        for k, sec in enumerate(secs):
            for h in sec:
                home[h] = (v, k)
    parent = {h: h for h in set(home.values())}
    parity = {h: 0 for h in parent}

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    for e, sign in g.signs.items():
        (ru, pu), (rw, pw) = find(home[(e, 0)]), find(home[(e, 1)])
        want = 0 if sign > 0 else 1
        if ru == rw:
            if pu ^ pw != want:
                return False
        else:
            parent[ru] = rw
            parity[ru] = pu ^ pw ^ want
    return True


# ---------------------------------------------------------------------------
# closures and text


@dataclass
class Closure:
    """Region structure: regions[r] = (genus, circle indices), or None
    for the 'cellular' keyword (a disc on every circle)."""

    regions: list[tuple[int, list[int]]] | None


def cellular() -> Closure:
    return Closure(None)


def coarse_regions(rng: random.Random, f: int, n_regions: int) -> Closure:
    """Glue the f circles onto n_regions regions (fewer if f is smaller),
    several circles per region where f allows, with random genera."""
    n_regions = min(n_regions, f)
    order = list(range(f))
    rng.shuffle(order)
    groups: list[list[int]] = [[c] for c in order[:n_regions]]
    for c in order[n_regions:]:
        groups[rng.randrange(n_regions)].append(c)
    return Closure([(rng.choice((0, 0, 1, 2)), sorted(cs)) for cs in groups])


def to_text(g: Graph, closure: Closure) -> str:
    lines = []
    for v in sorted(g.sectors):
        secs = " ".join("sector (" + " ".join(f"{e}.{end}" for e, end in sec) + ")"
                        for sec in g.sectors[v])
        lines.append(f"vertex {v}: {secs}")
    for e in sorted(g.signs):
        u, w = g.ends[e]
        lines.append(f"edge {e}: {u} {w} sign {'+' if g.signs[e] > 0 else '-'}")
    if closure.regions is None:
        lines.append("cellular")
    else:
        for r, (genus, circles) in enumerate(closure.regions):
            lines.append(f"region {r}: genus {genus} circles "
                         + ",".join(str(c) for c in circles))
    return "\n".join(lines) + "\n"


def manifest(g: Graph, closure: Closure) -> dict:
    """Properties a later claim may condition on."""
    f = boundary_circles(g)
    pinched = any(len(secs) > 1 for secs in g.sectors.values())
    if closure.regions is None:
        regions = [(0, [c]) for c in range(f)]
    else:
        regions = closure.regions
    chi = len(g.sectors) - len(g.signs) + sum(2 - genus - len(cs)
                                              for genus, cs in regions)
    return {
        "edges": len(g.signs),
        "vertices": len(g.sectors),
        "circles": f,
        "regions": len(regions),
        "euler_genus": 2 - chi,
        "ribbon_genus": ribbon_genus(g),
        "orientable": orientable(g),
        "pinched": pinched,
        "cellular": (not pinched and all(genus == 0 and len(cs) == 1
                                         for genus, cs in regions)),
    }


# ---------------------------------------------------------------------------
# the size of a delete/contract recursion


def connected_spanning(n_vertices: int, ends) -> int:
    """Edge subsets that connect all the vertices (loops included), by
    the vertex-subset recurrence: subsets of the edges inside S, minus
    those whose component of S's lowest vertex is a proper part T."""
    full = (1 << n_vertices) - 1
    inside = [0] * (full + 1)
    for s in range(1, full + 1):
        inside[s] = sum(1 for u, w in ends if (s >> u) & 1 and (s >> w) & 1)
    conn = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        total = 1 << inside[s]
        t = (s - 1) & s
        while t:
            if t & low:
                total -= conn[t] << inside[s ^ t]
            t = (t - 1) & s
        conn[s] = total
    return conn[full]


def recursion_leaves(g: Graph, closure: Closure) -> int:
    """Leaves of the delete/contract recursion for the pseudo-surface
    polynomial, L(1,1,1): the subsets A that connect the graph while the
    other edges still connect the regions as the whole edge set does.
    Its run time grows in proportion, so the workload uses it to keep
    inputs of one kind at a similar cost.  At most two regions."""
    f = boundary_circles(g)
    if closure.regions is None:
        region = {c: c for c in range(f)}
    else:
        region = {c: r for r, (_, cs) in enumerate(closure.regions) for c in cs}
    if len(set(region.values())) > 2:
        raise ValueError("leaf count is implemented for at most two regions")
    n = len(g.sectors)
    total = connected_spanning(n, list(g.ends.values()))
    joining = [e for e, (a, b) in side_circles(g).items() if region[a] != region[b]]
    if not joining:
        return total
    # Two regions that some edge joins: subtract the connected A that
    # contain every joining edge, i.e. connected spanning sets of G/J.
    sets = _Sets(range(n))
    for e in joining:
        sets.union(*g.ends[e])
    label: dict[int, int] = {}
    for v in range(n):
        label.setdefault(sets.find(v), len(label))
    rest = [(label[sets.find(u)], label[sets.find(w)])
            for e, (u, w) in g.ends.items() if e not in joining]
    return total - connected_spanning(len(label), rest)

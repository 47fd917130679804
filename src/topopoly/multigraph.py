"""Abstract multigraphs with stable integer ids.

Vertices and edges are small integers chosen by the caller (insertion
order by convention).  Loops and parallel edges are allowed.  Values are
immutable: minors return new graphs and never renumber surviving edges,
so an edge keeps its id through any chain of deletions and contractions.

Subsets walked exhaustively are int masks, bit i standing for the i-th
smallest edge id: subset_ids decodes one, component_counter counts c
of one mask, and component_table lists c of every mask.  Each graph
keeps its counter and its edge bits, made on first use; every component
count runs on a counter but component_table's and poly._split's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence


@dataclass(frozen=True)
class Multigraph:
    """An abstract multigraph.

    ends maps each edge id to its (unordered) endpoint pair; a loop has
    both entries equal.  Isolated vertices are legal and must be listed
    in `vertices`.
    """

    vertices: tuple[int, ...]
    ends: Mapping[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "ends", dict(self.ends))
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex id")
        for e, (u, v) in self.ends.items():
            if u not in vset or v not in vset:
                raise ValueError(f"edge {e} has endpoint outside the vertex set")

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.ends))

    def edge_set(self) -> frozenset[int]:
        return frozenset(self.ends)

    def is_loop(self, e: int) -> bool:
        u, v = self.ends[e]
        return u == v

    @cached_property
    def bits(self) -> Mapping[int, int]:
        """Each edge id's bit in the mask encoding, made on first use."""
        return {e: 1 << i for i, e in enumerate(self.edges)}

    @cached_property
    def counter(self) -> Callable[[int], int]:
        """component_counter(self), made on first use."""
        return component_counter(self)

    def __repr__(self):
        ends = ", ".join(f"{e}:{uv}" for e, uv in sorted(self.ends.items()))
        return f"Multigraph(v={list(self.vertices)}, ends={{{ends}}})"


def components(g: Multigraph, a: Iterable[int] | None = None) -> int:
    """Number of components of the spanning subgraph (V, A).

    With a=None the full edge set is used.  All vertices of g count,
    including isolated ones.
    """
    full = (1 << len(g.ends)) - 1
    return g.counter(full if a is None else sum(map(g.bits.__getitem__, set(a))))


def subset_ids(edges: Sequence[int], mask: int) -> list[int]:
    """The ids of the subset mask encodes, bit i standing for edges[i]."""
    return [e for i, e in enumerate(edges) if mask >> i & 1]


def component_counter(g: Multigraph) -> Callable[[int], int]:
    """c(A) of the spanning subgraph (V, A) as a function of the mask
    of A: one int union-find per call, with indices set up once."""
    vid = {v: k for k, v in enumerate(g.vertices)}
    nv = len(vid)
    pairs = [(vid[g.ends[e][0]], vid[g.ends[e][1]]) for e in g.edges]

    def count(mask: int) -> int:
        parent = list(range(nv))
        c = nv
        for u, w in pairs:
            if mask & 1:
                while parent[u] != u:
                    u = parent[u]
                while parent[w] != w:
                    w = parent[w]
                if u != w:
                    parent[u] = w
                    c -= 1
            mask >>= 1
        return c

    return count


def component_table(g: Multigraph) -> list[int]:
    """c(A) of the spanning subgraph (V, A) for every mask A, indexed by
    the mask: one depth-first walk deciding the edges in bit order, on
    a union-find with rollback (union by size, no path compression, so
    undoing a union resets one parent and one size): the rank walk
    reads every mask, and the counter would redo every union per mask."""
    vid = {v: k for k, v in enumerate(g.vertices)}
    pairs = [(vid[g.ends[e][0]], vid[g.ends[e][1]]) for e in g.edges]
    if not pairs:
        return [len(vid)]
    parent = list(range(len(vid)))
    size = [1] * len(vid)
    table = [0] * (1 << len(pairs))
    last = len(pairs) - 1

    def walk(i: int, mask: int, c: int) -> None:
        u, w = pairs[i]
        while parent[u] != u:
            u = parent[u]
        while parent[w] != w:
            w = parent[w]
        if i == last:               # both leaves at once
            table[mask] = c
            table[mask | 1 << i] = c - (u != w)
            return
        walk(i + 1, mask, c)
        if u == w:
            walk(i + 1, mask | 1 << i, c)
            return
        if size[u] > size[w]:
            u, w = w, u
        parent[u] = w
        size[w] += size[u]
        walk(i + 1, mask | 1 << i, c - 1)
        size[w] -= size[u]
        parent[u] = u

    walk(0, 0, len(vid))
    return table


def incidences(g: Multigraph) -> dict[int, list[int]]:
    """The edges at each vertex of g, by id; a loop is listed once."""
    at: dict[int, list[int]] = {v: [] for v in g.vertices}
    for e in g.edges:
        u, w = g.ends[e]
        at[u].append(e)
        if w != u:
            at[w].append(e)
    return at


def frontier_order(g: Multigraph, at: Mapping[int, Sequence[int]],
                   tracked: Iterable[Sequence[int]]) -> list[int]:
    """The breadth-first edge order of g with the narrowest frontier.

    The order rooted at r decides the edges vertex by vertex, in the
    order a breadth-first search from r reaches the vertices (then from
    the smallest vertex not yet reached), each vertex's edges as at[v]
    lists them (incidences(g), say, or a rotation).  A tracked element
    is given by the edges that meet it, a vertex or an arc, say; it is
    live after step t while some but not all of its edges are decided,
    and w_t counts the live elements.  Every vertex is tried as the
    root, and the order with the least sum of w_t^2 wins, ties to the
    smaller root.  A root is dropped as soon as its partial sum reaches
    the best so far: O(|V| (|E| + size of tracked)) at most.
    """
    meets: dict[int, list[int]] = {e: [] for e in g.ends}
    sizes: list[int] = []
    for s in map(frozenset, tracked):
        if len(s) > 1:
            for e in s:
                meets[e].append(len(sizes))
            sizes.append(len(s))

    def walk(root: int, bound: int | None):
        order: dict[int, None] = {}
        left = sizes[:]         # undecided edges per element
        live = cost = 0
        reached = set()
        for start in (root,) + g.vertices:
            if start in reached:
                continue
            reached.add(start)
            queue = deque([start])
            while queue:
                for e in at[queue.popleft()]:
                    if e in order:
                        continue
                    order[e] = None
                    for k in meets[e]:
                        n = left[k]
                        left[k] = n - 1
                        if n == sizes[k]:
                            live += 1
                        elif n == 1:
                            live -= 1
                    cost += live * live
                    if bound is not None and cost >= bound:
                        return None
                    for w in g.ends[e]:
                        if w not in reached:
                            reached.add(w)
                            queue.append(w)
        return cost, order

    best: dict[int, None] = {}
    bound = None
    for root in g.vertices:
        found = walk(root, bound)
        if found is not None:
            bound, best = found
    return list(best)


def rank(g: Multigraph, a: Iterable[int] | None = None) -> int:
    """Graph rank r(A) = v(G) - c(A) of the spanning subgraph (V, A)."""
    return len(g.vertices) - components(g, a)


def nullity(g: Multigraph, a: Iterable[int] | None = None) -> int:
    """Nullity n(A) = |A| - r(A)."""
    a = g.edge_set() if a is None else frozenset(a)
    return len(a) - rank(g, a)


def is_bridge(g: Multigraph, e: int) -> bool:
    """True iff deleting e increases the component count, that is, iff
    the ends of e fall in different components of (V, E - e)."""
    full = (1 << len(g.ends)) - 1
    return g.counter(full ^ g.bits[e]) > g.counter(full)


def delete_edge(g: Multigraph, e: int) -> Multigraph:
    if e not in g.ends:
        raise KeyError(f"no edge {e}")
    ends = dict(g.ends)
    del ends[e]
    return Multigraph(g.vertices, ends)


def contract_edge(g: Multigraph, e: int) -> Multigraph:
    """Contract e; for a loop this is the same as deletion.

    The surviving merged vertex keeps the smaller of the two endpoint
    ids.  Edge ids never change.
    """
    if e not in g.ends:
        raise KeyError(f"no edge {e}")
    u, v = g.ends[e]
    if u == v:
        return delete_edge(g, e)
    keep, drop = min(u, v), max(u, v)
    ends = {}
    for f, (a, b) in g.ends.items():
        if f == e:
            continue
        a = keep if a == drop else a
        b = keep if b == drop else b
        ends[f] = (a, b)
    vertices = tuple(w for w in g.vertices if w != drop)
    return Multigraph(vertices, ends)


def id_respecting_isomorphism(g1: Multigraph, g2: Multigraph) -> dict | None:
    """Vertex bijection g1 -> g2 sending each edge id onto the same id.

    Edge ids must coincide and every edge must keep its endpoint pair
    (as an unordered pair).  Returns one such bijection, or None.
    Backtracking with degree pruning; meant for small graphs.
    """
    if g1.edge_set() != g2.edge_set() or len(g1.vertices) != len(g2.vertices):
        return None

    def profile(g):
        deg = {v: 0 for v in g.vertices}
        loops = {v: 0 for v in g.vertices}
        for u, w in g.ends.values():
            deg[u] += 1
            deg[w] += 1
            if u == w:
                loops[u] += 1
        return deg, loops

    deg1, loops1 = profile(g1)
    deg2, loops2 = profile(g2)
    if sorted(zip(deg1.values(), loops1.values())) != \
            sorted(zip(deg2.values(), loops2.values())):
        return None

    order = sorted(g1.vertices, key=lambda v: (-deg1[v], v))
    edges_at1 = {v: [] for v in g1.vertices}
    for e, (u, w) in g1.ends.items():
        edges_at1[u].append(e)
        if w != u:
            edges_at1[w].append(e)

    assign: dict = {}
    used: set = set()

    def feasible(v, cand):
        for e in edges_at1[v]:
            a, b = g1.ends[e]
            c, d = g2.ends[e]
            img = {assign.get(a), assign.get(b)}
            img.discard(None)
            if v == a == b:
                if {c, d} != {cand}:
                    return False
            elif not img <= {c, d} or cand not in {c, d}:
                return False
            other = a if b == v else b
            if other in assign and {assign[other], cand} != {c, d}:
                return False
        return True

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for cand in g2.vertices:
            if cand in used or deg2[cand] != deg1[v] or loops2[cand] != loops1[v]:
                continue
            if not feasible(v, cand):
                continue
            assign[v] = cand
            used.add(cand)
            if extend(i + 1):
                return True
            del assign[v]
            used.discard(cand)
        return False

    return dict(assign) if extend(0) else None

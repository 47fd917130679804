"""Abstract multigraphs with stable integer ids.

Vertices and edges are small integers chosen by the caller (insertion
order by convention).  Loops and parallel edges are allowed.  Values are
immutable: minors return new graphs and never renumber surviving edges,
so an edge keeps its id through any chain of deletions and contractions.

Subsets walked exhaustively are int masks, bit i standing for the i-th
smallest edge id: subset_ids decodes one, component_counter counts c
of one mask, and component_table gives c of every mask.  Each graph
keeps its counter, its edge bits, its own c(E) and its tally order,
made on first use.  Every component count runs on a counter but
three: poly._split's bridge test, component_table's vertex partitions,
and the block layers of ribbon's tallies, which count closed blocks on
frontier labels.

Frozen is the read-only base of the package's value classes: plain
classes, cheap to define when a one-shot command loads (see README).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence


class Frozen:
    """A read-only value, equal to one of its class with equal _fields.  __init__
    and cached_property write __dict__; setting or deleting raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)


class Multigraph(Frozen):
    """An abstract multigraph.

    ends maps each edge id to its (unordered) endpoint pair; a loop has
    both entries equal.  Isolated vertices are legal and must be listed
    in `vertices`.
    """

    _fields = ("vertices", "ends")

    def __init__(self, vertices: Iterable[int],
                 ends: Mapping[int, tuple[int, int]] = {}):   # copied, never changed
        vertices, ends = tuple(sorted(vertices)), dict(ends)
        self.__dict__.update(vertices=vertices, ends=ends)
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise ValueError("duplicate vertex id")
        for e, (u, v) in ends.items():
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

    @cached_property
    def component_count(self) -> int:
        """c(E), the components of the whole graph, counted on first use."""
        return self.counter((1 << len(self.ends)) - 1)

    @cached_property
    def tally_order(self) -> tuple[int, ...]:
        """The order a bare graph's tallies decide its edges in: the
        narrowest breadth-first order on its vertices (frontier_order),
        each vertex listing its edges by id; made on first use."""
        at = incidences(self)
        return tuple(frontier_order(self, at, at.values()))

    def __repr__(self):
        ends = ", ".join(f"{e}:{uv}" for e, uv in sorted(self.ends.items()))
        return f"Multigraph(v={list(self.vertices)}, ends={{{ends}}})"


def components(g: Multigraph, a: Iterable[int] | None = None) -> int:
    """Number of components of the spanning subgraph (V, A).

    With a=None the full edge set is used, whose count the graph keeps.
    All vertices of g count, including isolated ones.
    """
    if a is None:
        return g.component_count
    return g.counter(sum(map(g.bits.__getitem__, set(a))))


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


def component_table(g: Multigraph) -> str:
    """c(A) of the spanning subgraph (V, A) as the code point of character
    A, for every mask A.  The edges are decided in bit order, keeping the
    distinct vertex partitions reached so far, each a string of block
    labels (the character of a block's smallest vertex index, at each
    vertex) with its block count.  The table holds one partition id per
    mask, a character: each edge joins every partition once, a join list
    from id to id, and the table doubles through it by translate, the
    masks with the edge after those without, so every per-mask step runs
    in C.  The rank walk reads every mask; a counter redoes every union."""
    vid = {v: k for k, v in enumerate(g.vertices)}
    parts = ["".join(map(chr, range(len(vid))))]
    ids = {parts[0]: 0}
    blocks = [len(vid)]
    table = "\0"
    for e in g.edges:
        u, w = (vid[x] for x in g.ends[e])
        join = []
        for i in range(len(parts)):
            p = parts[i]
            a, b = p[u], p[w]
            if a != b:
                p = p.replace(a, b) if a > b else p.replace(b, a)
                if p not in ids:
                    ids[p] = len(parts)
                    parts.append(p)
                    blocks.append(blocks[i] - 1)
            join.append(ids[p])
        table += table.translate(join)
    return table.translate(blocks)


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
    if a is None:
        return len(g.ends) - rank(g)
    a = frozenset(a)
    return len(a) - rank(g, a)


def is_bridge(g: Multigraph, e: int) -> bool:
    """True iff deleting e increases the component count, that is, iff
    the ends of e fall in different components of (V, E - e)."""
    full = (1 << len(g.ends)) - 1
    return g.counter(full ^ g.bits[e]) > g.component_count


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
    (as an unordered pair).  Returns one such bijection, or None.  Each
    vertex of g1 goes to a vertex of g2 with the same set of incident
    edge ids, in vertex order.  Two vertices share that set only when
    both are isolated or every edge at them joins the two, so any
    bijection within these classes works if any does, and checking
    each edge's ends decides.
    """
    if g1.edge_set() != g2.edge_set() or len(g1.vertices) != len(g2.vertices):
        return None
    classes: dict[frozenset, list[int]] = {}
    for w, es in incidences(g2).items():
        classes.setdefault(frozenset(es), []).append(w)
    phi = {}
    for v, es in incidences(g1).items():
        pool = classes.get(frozenset(es))
        if not pool:
            return None
        phi[v] = pool.pop(0)
    if all({phi[u], phi[w]} == set(g2.ends[e]) for e, (u, w) in g1.ends.items()):
        return phi
    return None

"""Ribbon graphs as signed rotation systems, with vertex sectors.

A rotation system stores, for every vertex, one or more sectors: each
sector is a cyclic order of half-edges around one disc.  A vertex with
a single sector is an ordinary ribbon-graph vertex; a vertex with
several sectors is a pinch point whose discs meet only at that point.
Every edge carries a sign, +1 for an untwisted band and -1 for a
half-twisted one.  A half-edge is the pair (edge id, end in {0, 1}).

Boundary tracing works on "corner points": each band has four of them,
(edge, end, io) with io 0 for in and 1 for out.  Two involutions move
between corner points.  Within a sector, kappa joins the out point of
a half-edge to the in point of the next present half-edge.  Along a
band, beta joins the points at the two ends, crosswise for sign +1 and
straight for sign -1:

    sign +1:  (e,0,in) <-> (e,1,out)    (e,0,out) <-> (e,1,in)
    sign -1:  (e,0,in) <-> (e,1,in)     (e,0,out) <-> (e,1,out)

The boundary circles of the surface built from one disc per sector and
one band per edge are the orbits alternating beta and kappa.  Tracing
a subset of the edges erases the other bands but keeps every disc; a
sector left without half-edges still bounds one circle.

circle_counter counts the same circles on int-encoded corner points,
without building any Circle: its kappa is fixed, and an absent band
pairs its points in to out at each end.  A failing state check
recounts its one misplaced medial state on it.

transfer_tally and dual_tally return the tallies of the rows of the
2^|E| edge subsets (sizes, component and circle counts) without
visiting the subsets, and state_tally the curve counts of the 3^|E|
medial states without visiting the states.  All three run one loop,
_frontier_tally, which decides the edges one at a time, vertex by
vertex in breadth-first order from the root that keeps the frontier
narrowest (_edge_order) and each vertex's half-edges in rotation
order, each edge taking one of its choices (outside or inside A; black,
white or crossing).  A state after each step holds, per layer, the
block labels of the frontier nodes (vertices, or the corners of a
medial) and the pairing that the decided bands induce on the frontier
corner points (the undecided points whose kappa partner is decided);
decisions that reach one state have the same future, so equal states
merge and carry a tally of the size and the blocks and circles already
closed.  Their cost follows the number of states, not 2^|E| or 3^|E|.

A failing check names its first bad subset or state on the same loop,
which a forced map restricts to one choice per forced edge:
first_witness forces the edges one by one, at most |E| runs for a
subset and 2|E| for a state.  No code lists the subsets or the states.

On top of the tracer sit Euler genus, the geometric dual, partial
petrials (band twists), orientability, the
medial map with its per-vertex smoothing pairings, and the sector
surgery (disc flips and non-loop contraction) used for topological
minors.  Circles are numbered canonically, so traces are reproducible.
A system keeps its full trace (which trace_boundary returns for the
whole edge set), its dual, its unforced dual tally (read-only), its
disc arcs, its tally order and its underlying multigraph, each made on
first use.  Systems never change; surgery builds new ones, which
derive their own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import multigraph as mg

Half = tuple[int, int]          # (edge id, end 0|1)
Point = tuple[int, int, int]    # (edge id, end 0|1, io 0=in|1=out)
Sector = tuple[Half, ...]
Home = tuple[int, int]          # (vertex id, sector index)

IN, OUT = 0, 1
LEFT, RIGHT = 0, 1


class RibbonError(ValueError):
    pass


@dataclass(frozen=True)
class RotationSystem:
    """Signed rotation system; sectors[v] lists the discs at vertex v."""

    sectors: Mapping[int, tuple[Sector, ...]]
    signs: Mapping[int, int]
    ends: Mapping[int, tuple[int, int]] = field(init=False, repr=False)
    half_home: Mapping[Half, Home] = field(init=False, repr=False)

    def __post_init__(self):
        sectors = {}
        for v, secs in self.sectors.items():
            secs = tuple(tuple((int(e), int(end)) for e, end in sec) for sec in secs)
            if not secs:
                raise RibbonError(f"vertex {v} has no sectors")
            sectors[int(v)] = secs
        signs = {int(e): int(s) for e, s in self.signs.items()}
        if any(s not in (1, -1) for s in signs.values()):
            raise RibbonError("edge signs must be +1 or -1")
        half_home: dict[Half, Home] = {}
        for v in sectors:
            for k, sec in enumerate(sectors[v]):
                for h in sec:
                    e, end = h
                    if e not in signs or end not in (0, 1):
                        raise RibbonError(f"stray half-edge {h} at vertex {v}")
                    if h in half_home:
                        raise RibbonError(f"half-edge {h} placed twice")
                    half_home[h] = (v, k)
        ends = {}
        for e in signs:
            if (e, 0) not in half_home or (e, 1) not in half_home:
                raise RibbonError(f"edge {e} is missing an end")
            ends[e] = (half_home[(e, 0)][0], half_home[(e, 1)][0])
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "half_home", half_home)

    @staticmethod
    def single(rotations: Mapping[int, Sequence[Half]],
               signs: Mapping[int, int]) -> "RotationSystem":
        """Build an ordinary (pinch-free) system, one sector per vertex."""
        return RotationSystem({v: (tuple(rot),) for v, rot in rotations.items()},
                              signs)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.sectors))

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.signs))

    def edge_set(self) -> frozenset:
        return frozenset(self.signs)

    def is_loop(self, e: int) -> bool:
        u, w = self.ends[e]
        return u == w

    def rotation(self, v: int) -> Sector:
        secs = self.sectors[v]
        if len(secs) != 1:
            raise RibbonError(f"vertex {v} is a pinch point")
        return secs[0]

    def pinch_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if len(self.sectors[v]) > 1)

    @cached_property
    def trace(self) -> "BoundaryTrace":
        """The boundary circles of every band, traced on first use."""
        return trace_sectors(all_sectors(self), self.signs, self.edge_set())

    @cached_property
    def dual(self) -> "RotationSystem":
        """The geometric dual, built by ribbon.dual on first use."""
        return dual(self)

    @cached_property
    def dual_tally(self) -> Mapping["DualRow", int]:
        """The unforced ribbon.dual_tally, read-only, on first use."""
        return MappingProxyType(dual_tally(self))

    @cached_property
    def disc_arcs(self) -> tuple[tuple[int, ...], int]:
        """ribbon._disc_arcs, built on first use."""
        return _disc_arcs(self)

    @cached_property
    def edge_order(self) -> tuple[int, ...]:
        """The tallies' order, ribbon._edge_order, built on first use."""
        return _edge_order(self)

    def underlying(self) -> mg.Multigraph:
        return self._underlying

    @cached_property
    def _underlying(self) -> mg.Multigraph:
        return mg.Multigraph(self.vertices, dict(self.ends))

    def __repr__(self):
        parts = []
        for v in self.vertices:
            secs = " ".join("(" + " ".join(f"{e}.{end}" for e, end in sec) + ")"
                            for sec in self.sectors[v])
            parts.append(f"{v}: {secs}")
        sgn = "".join("+" if self.signs[e] > 0 else "-" for e in self.edges)
        return f"RotationSystem({'; '.join(parts)} | {sgn})"


def require_pinch_free(g: RotationSystem, what: str) -> None:
    pinched = g.pinch_vertices()
    if pinched:
        raise RibbonError(f"{what} needs an ordinary ribbon graph; "
                          f"vertex {pinched[0]} is a pinch point")


# ---------------------------------------------------------------------------
# boundary tracing


@dataclass(frozen=True)
class Circle:
    """One boundary circle.

    visits lists corner points in traversal order, starting at the
    smallest point and leaving along the band first.  It is empty for
    the circle around a sector with no surviving half-edges, in which
    case home names that (vertex, sector index).  sides lists the band
    sides walked, as (edge, LEFT|RIGHT) pairs, and entry_ends the end
    (0 or 1) at which each side was entered.
    """

    visits: tuple[Point, ...]
    sides: tuple[tuple[int, int], ...]
    entry_ends: tuple[int, ...]
    home: Home | None = None


@dataclass(frozen=True)
class BoundaryTrace:
    circles: tuple[Circle, ...]
    side_circle: Mapping[tuple[int, int], int]
    side_entry_end: Mapping[tuple[int, int], int]

    @property
    def f(self) -> int:
        return len(self.circles)

    def circle_of_point(self) -> dict[Point, int]:
        return {p: i for i, c in enumerate(self.circles) for p in c.visits}

    def circle_of_home(self) -> dict[Home, int]:
        return {c.home: i for i, c in enumerate(self.circles) if c.home is not None}


def _beta(e: int, end: int, io: int, sign: int) -> Point:
    if sign > 0:
        return (e, 1 - end, 1 - io)
    return (e, 1 - end, io)


def _side_of(point: Point, sign: int) -> int:
    # The left side is the beta pair through (e, 0, in).
    e, end, io = point
    if end == 0:
        return LEFT if io == IN else RIGHT
    if sign > 0:
        return LEFT if io == OUT else RIGHT
    return LEFT if io == IN else RIGHT


def trace_sectors(sectors: Sequence[tuple[Home, Sector]],
                  signs: Mapping[int, int],
                  subset: frozenset) -> BoundaryTrace:
    """Trace the boundary circles of the bands in subset over the given
    discs.  Each disc is (home, cyclic half-edge order)."""
    kappa: dict[Point, Point] = {}
    empty_homes = []
    for home, rot in sectors:
        present = [h for h in rot if h[0] in subset]
        if not present:
            empty_homes.append(home)
            continue
        k = len(present)
        for i, h in enumerate(present):
            nxt = present[(i + 1) % k]
            kappa[(h[0], h[1], OUT)] = (nxt[0], nxt[1], IN)
            kappa[(nxt[0], nxt[1], IN)] = (h[0], h[1], OUT)

    unvisited = set(kappa)
    circles: list[Circle] = []
    while unvisited:
        start = min(unvisited)
        visits: list[Point] = []
        sides: list[tuple[int, int]] = []
        entry_ends: list[int] = []
        p = start
        while True:
            visits.append(p)
            unvisited.discard(p)
            e, end, io = p
            sides.append((e, _side_of(p, signs[e])))
            entry_ends.append(end)
            q = _beta(e, end, io, signs[e])
            visits.append(q)
            unvisited.discard(q)
            p = kappa[q]
            if p == start:
                break
        circles.append(Circle(tuple(visits), tuple(sides), tuple(entry_ends)))

    # Discovery order is already by smallest point; empty discs go last.
    for home in sorted(empty_homes):
        circles.append(Circle((), (), (), home=home))

    side_circle: dict[tuple[int, int], int] = {}
    side_entry: dict[tuple[int, int], int] = {}
    for idx, c in enumerate(circles):
        for side, entry in zip(c.sides, c.entry_ends):
            side_circle[side] = idx
            side_entry[side] = entry
    return BoundaryTrace(tuple(circles), side_circle, side_entry)


def all_sectors(g: RotationSystem) -> list[tuple[Home, Sector]]:
    return [((v, k), sec)
            for v in g.vertices
            for k, sec in enumerate(g.sectors[v])]


def trace_boundary(g: RotationSystem,
                   subset: Iterable[int] | None = None) -> BoundaryTrace:
    a = g.edge_set() if subset is None else frozenset(subset)
    if a == g.edge_set():
        return g.trace
    if not a <= g.edge_set():
        raise RibbonError(f"subset {sorted(set(a) - g.edge_set())} not among the edges")
    return trace_sectors(all_sectors(g), g.signs, a)


def _disc_arcs(g: RotationSystem) -> tuple[tuple[int, ...], int]:
    """kappa on the int corner points 4i + 2 end + io of the i-th
    smallest edge id, around the full rotation of every sector, and the
    number of sectors with no half-edges."""
    index = {e: i for i, e in enumerate(g.edges)}
    kappa = [0] * (4 * len(index))
    bare = 0
    for _, sec in all_sectors(g):
        ins = [4 * index[e] + 2 * end for e, end in sec]
        if not ins:
            bare += 1
            continue
        # The out point of a half-edge is its in point + 1.
        prev = ins[-1] + 1
        for p in ins:
            kappa[prev] = p
            kappa[p] = prev
            prev = p + 1
    return tuple(kappa), bare


def circle_counter(g: RotationSystem):
    """Set up the fixed disc arcs of g once; return count(pairing).

    Corner points are the ints 4i + 2 end + io of the i-th smallest
    edge id.  kappa joins out(h) to in(next h) around the full rotation
    of every sector, whatever bands are present.  pairing[i] pairs the
    points of edge i as p ^ pairing[i]: 3 for an untwisted band, 2 for
    a half-twisted one, 1 for no band (in to out at each end, so a
    circle walks past the edge).  count returns the circles of
    trace_sectors: the orbits, plus one per sector with no half-edges.
    """
    kappa, bare = g.disc_arcs
    # kappa ends every arc at an in point, so every circle has one.
    starts = range(0, len(kappa), 2)

    def count(pairing: Sequence[int]) -> int:
        f = bare
        seen = bytearray(len(kappa))
        for start in starts:
            if seen[start]:
                continue
            f += 1
            p = start
            while True:
                seen[p] = 1
                q = p ^ pairing[p >> 2]
                seen[q] = 1
                p = kappa[q]
                if p == start:
                    break
        return f

    return count


# ---------------------------------------------------------------------------
# the transfer tally: the rows of the subsets and states, edge by edge


class DualRow(NamedTuple):
    """Counts of one edge subset A, and of E - A in the dual."""
    size: int           # |A|
    c: int              # c(A)
    f: int              # f(A)
    genus: int          # Euler genus of the ribbon subgraph on A
    c_dual: int         # c*(E - A)
    f_dual: int         # f*(E - A)
    genus_dual: int     # Euler genus of the dual's ribbon subgraph on E - A


def transfer_tally(x: RotationSystem | mg.Multigraph,
                   cut: mg.Multigraph | None = None, *,
                   forced: Mapping[int, int] | None = None) -> Counter:
    """Counter of (|A|, c(A), f(A), c_cut(E - A)) over the edge subsets
    A that agree with forced (edge id -> 0 outside A, 1 inside).

    f is None unless x is a rotation system, c_cut unless a cut graph
    on the same edge ids (the dagger graph, say) is given.  The edges
    are decided one at a time (see _frontier_tally), carrying the vertex
    partition of A, the circles of A and the partition of cut on E - A.
    """
    ribbon = x if isinstance(x, RotationSystem) else None
    g = x.underlying() if ribbon is not None else x
    if cut is not None and cut.edge_set() != g.edge_set():
        raise RibbonError("a cut graph must share the tally's edge ids")
    if ribbon is not None:
        order = ribbon.edge_order
    else:
        at = mg.incidences(g)
        order = mg.frontier_order(g, at, at.values())
    layers = [_block_moves(g, order, True)]
    if ribbon is not None:
        layers.append(_circle_moves(ribbon, order, _in_a))
    if cut is not None:
        layers.append(_block_moves(cut, order, False))
    out: Counter = Counter()
    for (size, c, *rest), m in _frontier_tally(order, layers, forced=forced):
        f = rest.pop(0) if ribbon is not None else None
        c_cut = rest.pop(0) if cut is not None else None
        out[size, c, f, c_cut] += m
    return out


def dual_tally(g: RotationSystem, *,
               forced: Mapping[int, int] | None = None) -> Counter:
    """Counter of the DualRow of every edge subset A, forced as in
    transfer_tally; g.dual_tally keeps the unforced one.

    One joint state carries the partition and the circles of A in g and
    of E - A in the dual g.dual, which is traced on its own, so the
    starred counts share no boundary count with g's.
    """
    d = g.dual
    order = g.edge_order
    layers = [_block_moves(g.underlying(), order, True),
              _circle_moves(g, order, _in_a),
              _block_moves(d.underlying(), order, False),
              _circle_moves(d, order, _in_rest)]
    v, vd, n = len(g.sectors), len(d.sectors), len(order)
    out: Counter = Counter()
    for (size, c, f, cd, fd), m in _frontier_tally(order, layers, forced=forced):
        out[DualRow(size, c, f, 2 * c - v + size - f,
                    cd, fd, 2 * cd - vd + n - size - fd)] += m
    return out


def state_tally(g: RotationSystem, mm: "MedialMap", *,
                forced: Mapping[int, int] | None = None) -> Counter:
    """Counter((medial curves, graph curves)) over the 3^|E| medial
    states of g, without visiting the states; mm is medial(g).

    The edges are decided one at a time, each black, white or crossing
    (STATE_NAMES order; forced maps an edge id to the index of the one
    smoothing to keep).  The medial route is a union layer on the
    corners of g (_medial_moves), the graph route a circle layer on its
    disc arcs paired by smoothing_pairings, so the two counts share
    nothing but the edge order.
    """
    order = g.edge_order
    layers = [_medial_moves(mm, order),
              _circle_moves(g, order, smoothing_pairings)]
    return Counter({(medial, graph): m for (_, medial, graph), m
                    in _frontier_tally(order, layers, (0, 0, 0), forced)})


def first_witness(tally, edges: Sequence[int], choices: int, bad):
    """(forced, row): the lexicographically first decision of the edges,
    most significant first, whose row is in bad, which the unforced
    tally(forced=...) holds.  Each edge keeps the first choice under
    which a bad row survives, and the last without a run: at most
    (choices - 1) |E| runs.  The last tally that held a bad row holds
    the witness's alone, as its other decisions lie under failed runs.
    """
    forced: dict[int, int] = {}
    found = bad
    for e in edges:
        for k in range(choices - 1):
            forced[e] = k
            hits = [row for row in tally(forced=forced) if row in bad]
            if hits:
                found = hits
                break
        else:
            forced[e] = choices - 1
    return forced, next(iter(found))


def _edge_order(g: RotationSystem) -> tuple[int, ...]:
    """The order the tallies of g decide edges in: of the breadth-first
    orders of g, one per root, each vertex listing its half-edges in
    rotation order, sector by sector (a bare graph's tally lists them in
    id order), the one mg.frontier_order finds narrowest on the vertices
    of g and its disc arcs (a bare graph's, on its vertices alone): what
    the union and circle layers carry as frontier blocks and points.

    The rows do not depend on the order, only the states do.  Summed
    over the tallies of cellular_corpus() (transfer, scheme, krushkal,
    dual and state tallies), the states fall from 2,630 with the root
    at the smallest vertex id to 2,260; lv on the first connected
    pinch-free random_rotation(Random(5), 10, 24) of tests/corpus.py
    takes 0.09 s instead of 0.39–0.46 s (2 vCPUs, Python 3.11)."""
    at = {v: [e for sec in secs for e, _ in sec] for v, secs in g.sectors.items()}
    # Every arc ends at an in point, the even one of its two.
    kappa, _ = g.disc_arcs
    edges = g.edges
    arcs = [(edges[p >> 2], edges[kappa[p] >> 2]) for p in range(0, len(kappa), 2)]
    return tuple(mg.frontier_order(g.underlying(), at, [*at.values(), *arcs]))


def _frontier_tally(order: list[int], layers, sizes=(0, 1),
                    forced: Mapping[int, int] | None = None
                    ) -> list[tuple[tuple[int, ...], int]]:
    """Decide the edges of order one at a time over the given layers;
    list the distinct (size, closed count per layer) tuples with their
    number of decisions.

    Every edge has the same choices: two for a subset (outside A, then
    inside), three for a medial state.  sizes[k] is what choice k adds
    to the first field, so the default counts |A|.  A layer is (moves,
    base): moves[t] maps the layer's part of a state before edge
    order[t] is decided to one (part, closed) pair per choice, and base
    is added to the layer's count at the end (isolated vertices, bare
    sectors).  A state is the tuple of the parts; its value counts
    decisions by their packed tally, one bit field for the size and one
    per layer.  Decisions that reach one state have the same future, so
    equal states merge.  An edge in forced keeps only its choice there.
    """
    forced = forced or {}
    # No field exceeds 4|E|: the size is at most |E|, and each layer
    # closes at most one block or circle per two of the 4|E| corner points.
    width = (4 * len(order)).bit_length()
    shifts = [width * (k + 1) for k in range(len(layers))]
    states: dict = {tuple(() for _ in layers): (0, {0: 1})}
    for t, e in enumerate(order):
        keep = slice(forced[e], forced[e] + 1) if e in forced else slice(None)
        kept = sizes[keep]
        # Many states share a layer's part, so each part moves once; it
        # moves to the flat [part, closed, part, closed, ...] of its choices.
        known = []
        for (moves, _), shift, parts in zip(layers, shifts, zip(*states)):
            move, out = moves[t], {}
            for part in parts:
                if part not in out:
                    flat = []
                    for p, c in move(part)[keep]:
                        flat += (p, c << shift)
                    out[part] = flat
            known.append(out)
        # A state's value is an offset and the tally it shifts; a state
        # reached from one state alone shares that tally.
        merged: dict = {}
        owned: set = set()
        for key, (offset, tally) in states.items():
            # row yields each choice's new state, then its closed fields.
            row = zip(*map(dict.__getitem__, known, key))
            for new, closed, size in zip(row, row, kept):
                step = offset + size + sum(closed)
                entry = merged.get(new)
                if entry is None:
                    merged[new] = (step, tally)
                    continue
                at, target = entry
                if new not in owned:
                    owned.add(new)
                    target = {packed + at: m for packed, m in target.items()}
                    merged[new] = (0, target)
                for packed, m in tally.items():
                    packed += step
                    target[packed] = target.get(packed, 0) + m
        states = merged
    ((offset, tally),) = states.values()
    tally = {packed + offset: m for packed, m in tally.items()}
    mask = (1 << width) - 1
    return [((packed & mask,) + tuple((packed >> shift & mask) + base
                                      for shift, (_, base) in zip(shifts, layers)),
             m) for packed, m in tally.items()]


def _block_moves(g: mg.Multigraph, order: list[int], inside: bool):
    """The layer of the vertex partition of (V, A) if inside, else of
    (V, E - A), over the edge order: the union layer on the vertices in
    which an edge joins its ends when it is inside A (its second
    choice) if inside, and when it is outside A otherwise."""
    joins = []
    for e in order:
        union = (g.ends[e],)
        joins.append(((), union) if inside else (union, ()))
    return _union_moves(joins, len(g.vertices))


def _medial_moves(mm: "MedialMap", order: list[int]):
    """The layer of the curves of a medial state, over the edge order:
    the union layer on the corners of the graph (the medial's edges),
    in which the medial vertex of each edge joins its four corner stubs
    in two pairs, as its black, white or crossing smoothing says."""
    return _union_moves([tuple(tuple((p[0], q[0]) for p, q in mm.pairings[e][s])
                               for s in STATE_NAMES) for e in order],
                        len(mm.corners))


def _union_moves(joins, nodes: int):
    """The layer of a partition of nodes: joins[t] lists, per choice for
    the t-th edge of the order, the unions of two nodes that it makes.
    Its part of a state labels the frontier nodes (those that edges
    both decided and undecided join) by block, in order of first
    appearance; a block closes when its last frontier node leaves.
    Every node no edge joins is a block of its own, in the base."""
    last: dict = {}
    for t, choices in enumerate(joins):
        for unions in choices:
            for u, w in unions:
                last[u] = last[w] = t
    # place gives a node's place among the frontier nodes before the
    # edge, then the entering nodes: the unions and settling read places.
    moves = []
    place: dict = {}
    for t, choices in enumerate(joins):
        before = len(place)
        plans = []
        for unions in choices:
            plan = []
            for u, w in unions:
                plan.append((place.setdefault(u, len(place)),
                             place.setdefault(w, len(place))))
            plans.append(plan)
        kept, gone, after = [], [], {}
        for v, k in place.items():
            if last[v] == t:
                gone.append(k)
            else:
                after[v] = len(kept)
                kept.append(k)
        moves.append(_union_move(tuple(range(before, len(place))), kept, gone,
                                 plans))
        place = after
    return moves, nodes - len(last)


def _union_move(fresh, kept, gone, plans):
    def settle(label):
        labels = [label[k] for k in kept]
        ids: dict = {}
        part = tuple([ids.setdefault(k, len(ids)) for k in labels])
        if not gone:
            return part, 0
        return part, len({label[k] for k in gone}.difference(ids))

    def move(labels):
        # Each entering node starts a block of its own.
        label = labels + fresh
        apart = None
        moved = []
        for plan in plans:
            joined = label
            for i, j in plan:
                a, b = joined[i], joined[j]
                if a != b:
                    joined = [b if k == a else k for k in joined]
            if joined is not label:
                moved.append(settle(joined))
                continue
            if apart is None:
                apart = settle(label)
            moved.append(apart)
        return moved

    return move


def _circle_moves(g: RotationSystem, order: list[int], pairings):
    """The layer of the boundary circles of g over the edge order, on
    the fixed disc arcs of circle_counter, with pairings(band) giving
    the pairing of each choice for an edge whose band pairs as band (3
    or 2; see circle_counter).  Its part of a state pairs the frontier
    points (the undecided corner points whose kappa partner is
    decided): each is followed by the point at the other end of the
    path through the decided points.  A circle closes when a decided
    edge's pairing completes a cycle."""
    # A _union_moves layer on the corner points counts the same circles,
    # but relabels the whole frontier per union; a pairing moves two ends.
    index = {e: i for i, e in enumerate(g.edges)}
    kappa, bare = g.disc_arcs
    when = {index[e]: t for t, e in enumerate(order)}
    moves = []
    frontier: tuple[int, ...] = ()
    for t, e in enumerate(order):
        i = index[e]
        own = range(4 * i, 4 * i + 4)
        fresh = tuple(kappa[p] for p in own if when[kappa[p] >> 2] > t)
        before = frontier
        frontier = tuple(p for p in before if p >> 2 != i) + fresh
        decided = tuple(when[kappa[p] >> 2] < t for p in own)
        moves.append(_circle_move(before, frontier, i, kappa[4 * i:4 * i + 4],
                                  decided, pairings(3 if g.signs[e] > 0 else 2)))
    return moves, bare


def _in_a(band: int) -> tuple[int, int]:
    # The subsets' choices, outside A then inside: the bands of A.
    return (1, band)


def _in_rest(band: int) -> tuple[int, int]:
    # The same choices, for the bands of E - A.
    return (band, 1)


def smoothing_pairings(band: int) -> tuple[int, int, int]:
    """The circle_counter pairings of an edge's black, white and
    crossing smoothings, for an edge whose band pairs as band: no band,
    the band, and the band with one more half-twist."""
    return (1, band, band ^ 1)


def _circle_move(before, after, i, arcs, decided, pairings):
    base = 4 * i
    # The edge's own frontier points sit at fixed places in a part; the
    # rest of the part is carried over in the spans between them.
    at = [before.index(base + j) if decided[j] else -1 for j in range(4)]
    cuts = sorted(k for k in at if k >= 0)
    spans = list(zip([0] + [k + 1 for k in cuts], cuts + [len(before)]))
    fresh = [0] * (len(after) - len(before) + len(cuts))
    where = {p: k for k, p in enumerate(after)}
    plans: dict = {}

    def plan(inner):
        # inner[j] is the edge's own point that the link of point j
        # reaches, or -1 if it leaves the edge.  Walk from each point
        # whose link leaves, through the edge's pairing x and the links,
        # to the next point whose link leaves; points no walk meets lie
        # on closed circles.
        out = []
        for x in pairings:
            ends, seen = [], 0
            for j in range(4):
                if inner[j] >= 0 or seen >> j & 1:
                    continue
                k = j
                while True:
                    seen |= 1 << k
                    k ^= x
                    seen |= 1 << k
                    if inner[k] < 0:
                        break
                    k = inner[k]
                ends.append((j, k))
            closed = 0
            for j in range(4):
                if not seen >> j & 1:
                    closed += 1
                    k = j
                    while not seen >> k & 1:
                        seen |= 1 << k
                        k ^= x
                        seen |= 1 << k
                        k = inner[k]
            out.append((ends, closed))
        return out

    def move(mates):
        link = [mates[at[j]] if decided[j] else arcs[j] for j in range(4)]
        inner = tuple([p - base if p >> 2 == i else -1 for p in link])
        steps = plans.get(inner)
        if steps is None:
            plans[inner] = steps = plan(inner)
        carried = []
        for a, b in spans:
            carried += mates[a:b]
        carried += fresh
        moved = []
        for ends, closed in steps:
            out = carried[:]
            for j, k in ends:
                out[where[link[j]]] = link[k]
                out[where[link[k]]] = link[j]
            moved.append((tuple(out), closed))
        return moved

    return move


def boundary_count(g: RotationSystem, subset: Iterable[int] | None = None) -> int:
    return trace_boundary(g, subset).f


def euler_genus(g: RotationSystem, subset: Iterable[int] | None = None) -> int:
    """Euler genus of the surface spanned by the discs and the bands of
    the subset: 2c - v + |A| - f."""
    a = g.edge_set() if subset is None else frozenset(subset)
    f = trace_boundary(g, a).f
    c = mg.components(g.underlying(), a)
    return 2 * c - len(g.sectors) + len(a) - f


def is_orientable(g: RotationSystem) -> bool:
    """True iff the surface of g is orientable: iff its orientation
    double cover has twice as many components as the surface.  The
    cover takes two copies of every sector (those of a pinch vertex are
    independent discs), which an untwisted band joins straight across
    and a twisted band crosswise; with a fibre joining the two copies
    of each sector, it has the surface's components."""
    copy = {home: 2 * k for k, (home, _) in enumerate(all_sectors(g))}
    bands = []
    for e in g.edges:
        u, w = copy[g.half_home[e, 0]], copy[g.half_home[e, 1]]
        twisted = g.signs[e] < 0
        bands += [(u, w + twisted), (u + 1, w + 1 - twisted)]
    fibres = [(u, u + 1) for u in copy.values()]
    cover = mg.Multigraph(range(2 * len(copy)), dict(enumerate(bands + fibres)))
    return mg.components(cover, range(len(bands))) == 2 * mg.components(cover)


# ---------------------------------------------------------------------------
# duality and petriality


def dual(g: RotationSystem) -> RotationSystem:
    """Geometric dual: one vertex per boundary circle, edges kept by id.

    The rotation of a dual vertex reads off the band sides its circle
    walks, the left side giving end 0 and the right side end 1.  A dual
    band is untwisted exactly when the two sides of the primal band are
    entered at opposite ends.  Circles around empty discs give isolated
    dual vertices.
    """
    require_pinch_free(g, "the geometric dual")
    # With LEFT, RIGHT = 0, 1 the side (e, s) is the half-edge (e, s).
    rotations = dict(enumerate(c.sides for c in g.trace.circles))
    entry = g.trace.side_entry_end
    signs = {e: 1 if entry[(e, LEFT)] != entry[(e, RIGHT)] else -1 for e in g.edges}
    return RotationSystem.single(rotations, signs)


def twist(g: RotationSystem, edges: Iterable[int]) -> RotationSystem:
    """Partial petrial: give each listed band an extra half-twist."""
    flip = frozenset(edges)
    if not flip <= g.edge_set():
        raise RibbonError("twisting an absent edge")
    signs = {e: (-s if e in flip else s) for e, s in g.signs.items()}
    return RotationSystem(g.sectors, signs)


def delete_edge(g: RotationSystem, e: int) -> RotationSystem:
    """Remove the band of e; every disc stays."""
    if e not in g.signs:
        raise RibbonError(f"no edge {e}")
    sectors = {v: tuple(tuple(h for h in sec if h[0] != e) for sec in secs)
               for v, secs in g.sectors.items()}
    signs = {k: s for k, s in g.signs.items() if k != e}
    return RotationSystem(sectors, signs)


# -- sector surgery ---------------------------------------------------------
#
# flip_sector and contract_nonloop return the surgered system together
# with the corner-point relabelling they induce, so callers tracking
# circle identities (region bookkeeping) can transport them.


@dataclass(frozen=True)
class Surgery:
    system: "RotationSystem"
    point_map: Mapping[Point, Point]    # surviving old point -> new point
    home_map: Mapping[Home, Home]       # surviving old sector -> new sector
    fresh_home: Home | None = None      # spliced sector, when it came out empty


def _identity_points(g: RotationSystem) -> dict[Point, Point]:
    out = {}
    for h in g.half_home:
        for io in (IN, OUT):
            p = (h[0], h[1], io)
            out[p] = p
    return out


def flip_sector(g: RotationSystem, v: int, k: int) -> Surgery:
    """Reflect one disc.  Its cyclic order reverses, each edge with
    exactly one half-edge on the disc changes sign, and the in/out
    corners of the disc's half-edges swap."""
    if v not in g.sectors or not 0 <= k < len(g.sectors[v]):
        raise RibbonError(f"no sector {k} at vertex {v}")
    target = g.sectors[v][k]
    in_target = set(target)
    sectors = {u: tuple(tuple(reversed(sec)) if (u == v and i == k) else sec
                        for i, sec in enumerate(secs))
               for u, secs in g.sectors.items()}
    signs = dict(g.signs)
    for e in g.signs:
        halves_inside = ((e, 0) in in_target) + ((e, 1) in in_target)
        if halves_inside == 1:
            signs[e] = -signs[e]
    point_map = _identity_points(g)
    for h in in_target:
        for io in (IN, OUT):
            point_map[(h[0], h[1], io)] = (h[0], h[1], 1 - io)
    home_map = {home: home for home, _ in all_sectors(g)}
    return Surgery(RotationSystem(sectors, signs), point_map, home_map)


def contract_nonloop(g: RotationSystem, e: int) -> Surgery:
    """Contract a non-loop band by merging its end discs.

    A -1 band is first normalised by flipping the disc at its end-1
    side.  The merged vertex keeps the smaller id; its sector list is
    the end-0 vertex's with the spliced disc in place, followed by the
    other vertex's remaining sectors.  Boundary circles are preserved.
    """
    if e not in g.signs:
        raise RibbonError(f"no edge {e}")
    if g.is_loop(e):
        raise RibbonError(f"edge {e} is a loop; only non-loop bands contract here")

    pre_points = _identity_points(g)
    pre_homes = {home: home for home, _ in all_sectors(g)}
    if g.signs[e] < 0:
        wv, wk = g.half_home[(e, 1)]
        flip = flip_sector(g, wv, wk)
        g = flip.system
        pre_points = {p: flip.point_map[p] for p in pre_points}

    (u, uk) = g.half_home[(e, 0)]
    (w, wk) = g.half_home[(e, 1)]
    keep, gone = (u, w) if u < w else (w, u)
    su = g.sectors[u][uk]
    sw = g.sectors[w][wk]
    i = su.index((e, 0))
    j = sw.index((e, 1))
    spliced = su[:i] + sw[j + 1:] + sw[:j] + su[i + 1:]

    merged: list[Sector] = []
    home_map: dict[Home, Home] = {}
    for k, sec in enumerate(g.sectors[u]):
        if k == uk:
            spliced_idx = len(merged)
            merged.append(spliced)
        else:
            home_map[(u, k)] = (keep, len(merged))
            merged.append(sec)
    for k, sec in enumerate(g.sectors[w]):
        if k == wk:
            continue
        home_map[(w, k)] = (keep, len(merged))
        merged.append(sec)
    for vv in g.sectors:
        if vv in (u, w):
            continue
        for k in range(len(g.sectors[vv])):
            home_map[(vv, k)] = (vv, k)

    sectors = {vv: secs for vv, secs in g.sectors.items() if vv not in (u, w)}
    sectors[keep] = tuple(merged)
    signs = {k: s for k, s in g.signs.items() if k != e}
    system = RotationSystem(sectors, signs)

    point_map = {p: q for p, q in pre_points.items() if p[0] != e}
    fresh = (keep, spliced_idx) if not spliced else None
    return Surgery(system, point_map, home_map, fresh)


def contract_edge(g: RotationSystem, e: int) -> RotationSystem:
    return contract_nonloop(g, e).system


# ---------------------------------------------------------------------------
# medial map

BLACK, WHITE, CROSSING = "black", "white", "crossing"
STATE_NAMES = (BLACK, WHITE, CROSSING)


@dataclass(frozen=True)
class MedialMap:
    """The medial of a connected ribbon graph, with smoothing data.

    medial has one 4-valent vertex per original edge (ids are reused)
    and one edge per corner of the original graph.  corners records
    each corner as (vertex, from half-edge, to half-edge).  pairings
    stores, per medial vertex, how its four half-edges pair up under
    the black, white and crossing smoothings.
    """

    medial: RotationSystem
    corners: Mapping[int, tuple[int, Half, Half]]
    pairings: Mapping[int, Mapping[str, tuple[tuple[Half, Half], tuple[Half, Half]]]]


def medial(g: RotationSystem) -> MedialMap:
    require_pinch_free(g, "the medial graph")
    if not g.signs:
        raise RibbonError("medial of an edgeless graph is empty")
    if mg.components(g.underlying(), g.edge_set()) != 1:
        raise RibbonError("medial construction expects a connected graph")

    # One corner per consecutive pair of the rotation; a 1-valent
    # vertex gives the corner (h -> h).
    corners: dict[int, tuple[int, Half, Half]] = {}
    stub_half: dict[tuple[Half, int], Half] = {}
    cid = 0
    for v in g.vertices:
        rot = g.rotation(v)
        d = len(rot)
        for i in range(d):
            h_from, h_to = rot[i], rot[(i + 1) % d]
            corners[cid] = (v, h_from, h_to)
            stub_half[(h_from, OUT)] = (cid, 0)
            stub_half[(h_to, IN)] = (cid, 1)
            cid += 1

    def agree(h: Half) -> bool:
        return h[1] == 0 or g.signs[h[0]] > 0

    med_signs = {}
    for c, (_, h_from, h_to) in corners.items():
        med_signs[c] = 1 if agree(h_from) == agree(h_to) else -1

    rotations = {}
    pairings = {}
    for e in g.edges:
        h, hp = (e, 0), (e, 1)
        if g.signs[e] > 0:
            stubs = [(h, IN), (h, OUT), (hp, IN), (hp, OUT)]
            white = (((h, IN), (hp, OUT)), ((h, OUT), (hp, IN)))
            crossing = (((h, IN), (hp, IN)), ((h, OUT), (hp, OUT)))
        else:
            stubs = [(h, IN), (h, OUT), (hp, OUT), (hp, IN)]
            white = (((h, IN), (hp, IN)), ((h, OUT), (hp, OUT)))
            crossing = (((h, IN), (hp, OUT)), ((h, OUT), (hp, IN)))
        black = (((h, IN), (h, OUT)), ((hp, IN), (hp, OUT)))
        rotations[e] = tuple(stub_half[s] for s in stubs)
        pairings[e] = {
            BLACK: tuple((stub_half[a], stub_half[b]) for a, b in black),
            WHITE: tuple((stub_half[a], stub_half[b]) for a, b in white),
            CROSSING: tuple((stub_half[a], stub_half[b]) for a, b in crossing),
        }

    med = RotationSystem.single(rotations, med_signs)
    return MedialMap(med, corners, pairings)


def medial_faces(mm: MedialMap) -> tuple[dict[int, tuple[int, ...]],
                                         list[tuple[int, ...]]]:
    """Checkerboard-colour the faces of the medial.

    Returns (black, white): black maps each original vertex to the
    cyclic sequence of medial vertices its face walks; white lists the
    same sequences for the remaining faces.  A face is black iff every
    pass it makes through a medial vertex stays on one original
    half-edge, white iff no pass does; anything else is an error.
    """
    bt = trace_boundary(mm.medial)
    black: dict[int, tuple[int, ...]] = {}
    white: list[tuple[int, ...]] = []
    corner_vertex = {c: v for c, (v, _, _) in mm.corners.items()}

    def stub(point):
        c, end = point[0], point[1]
        _v, from_half, to_half = mm.corners[c]
        return (from_half, OUT) if end == 0 else (to_half, IN)

    for circle in bt.circles:
        # The walk alternates arcs along corner edges with passes
        # through medial vertices; a pass joins visits 2i+1 and 2i+2.
        # It stays inside the black face iff the two corner-edge stubs
        # it joins hang off the same original half-edge.
        n = len(circle.visits)
        stations = []
        colours = set()
        owners = set()
        for i in range(1, n + 1, 2):
            a = circle.visits[i]
            b = circle.visits[(i + 1) % n]
            ha, hb = stub(a)[0], stub(b)[0]
            if ha[0] != hb[0]:
                raise RibbonError("pass jumps between medial vertices")
            stations.append(ha[0])
            colours.add(ha == hb)
            owners.add(corner_vertex[a[0]])
        if len(colours) != 1:
            raise RibbonError("face mixes black and white passes")
        stations = tuple(stations)
        if colours.pop():
            if len(owners) != 1:
                raise RibbonError("black face spans several vertices")
            v = owners.pop()
            if v in black:
                raise RibbonError(f"two black faces claim vertex {v}")
            black[v] = stations
        else:
            white.append(stations)
    return black, white


def cyclic_forms_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """Equality of cyclic words up to rotation and reflection."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = b + b
    rev = tuple(reversed(doubled))
    return any(doubled[i:i + len(a)] == a or rev[i:i + len(a)] == a
               for i in range(len(b)))


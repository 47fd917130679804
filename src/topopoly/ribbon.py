"""Ribbon graphs as signed rotation systems, with vertex sectors.

A rotation system stores, for every vertex, one or more sectors: each
sector is a cyclic order of half-edges around one disc.  A vertex with
a single sector is an ordinary ribbon-graph vertex; a vertex with
several sectors is a pinch point whose discs meet only at that point.
Every edge carries a sign, +1 for an untwisted band and -1 for a
half-twisted one.  A half-edge is the pair (edge id, end in {0, 1}).

Boundary tracing works on "corner points": each band has four of them,
(edge, end, io) with io 0 for in and 1 for out, held as the int
4i + 2 end + io of the i-th smallest edge id, so int order is tuple
order.  Two involutions move between corner points.  Within a sector,
kappa joins the out point of a half-edge to the in point of the next
half-edge of the full rotation: _disc_arcs builds it once per system,
the one corner cycle.  Along an edge, a pairing p ^ x joins the points:
x = 3 for an untwisted band joins the two ends crosswise, 2 for a
half-twisted one straight, and 1 for an absent band joins in to out at
each end, so a walk passes the edge:

    3 (sign +1):  (e,0,in) <-> (e,1,out)    (e,0,out) <-> (e,1,in)
    2 (sign -1):  (e,0,in) <-> (e,1,in)     (e,0,out) <-> (e,1,out)
    1 (absent):   (e,0,in) <-> (e,0,out)    (e,1,in) <-> (e,1,out)

The boundary circles of the surface built from one disc per sector and
one band per edge of a subset are the orbits alternating the pairings
and kappa: erasing the other bands keeps every disc, and a sector left
without present half-edges still bounds one circle.  trace_sectors
walks them and records each Circle.  circle_counter counts them on the
same arcs without building any Circle, and every circle layer of the
tallies follows the same pairings edge by edge.  A system's
circle_count is its count with every band present, all that checking
regions needs.  A failing state check recounts its one misplaced medial
state on it.

transfer_tally is the one subset tally, x on A and each cut on E - A:
the rows (|A|, then the components, and a rotation system's circles,
of each graph) of the 2^|E| edge subsets, without visiting them.
state_tally gives the curve counts of the 3^|E| medial states without
visiting the states.  Both run one loop, _frontier_tally, which
decides the edges one at a time, vertex by vertex in breadth-first
order from the root that keeps the frontier narrowest (_edge_order)
and each vertex's half-edges in rotation order, each edge taking one
of its choices (outside or inside A; black, white or crossing).  A
state after each step holds, per layer, the block labels of the
frontier nodes (vertices, or the corners of a medial) and the pairing
that the decided bands induce on the frontier corner points (the
undecided points whose kappa partner is decided); decisions that reach
one state have the same future, so equal states merge and carry a
tally of the size and the blocks and circles already closed.  Their
cost follows the number of states, not 2^|E| or 3^|E|.  A circle
layer's moves share one plan table (_circle_plan): how an edge's
choices rejoin the paths through its four points depends only on how
those points link to one another and on the choices' pairings, at most
60 cases in all, each worked out once per process.

Each returns a read-only Tally that keeps its layers: a failing check
names its first bad subset or state on its reruns (Tally.rerun, the
one way to force), which a forced map restricts to one choice per
forced edge.  first_witness forces the edges one by one, at most |E|
runs for a subset and 2|E| for a state.  No code lists the subsets or
the states.

On top of the tracer sit Euler genus, the geometric dual, partial
petrials (band twists), orientability, the
medial map with its per-vertex smoothing pairings, and the sector
surgery (disc flips and non-loop contraction) used for topological
minors.  Circles are numbered canonically, so traces are reproducible.
A system keeps its circle count, its full trace (which trace_boundary
returns for the whole edge set), its dual, its tally cut by its dual
(read-only), its disc arcs, its tally order and its underlying
multigraph, each made on first use.  Systems never change; surgery
builds new ones, which derive their own.  A system is a multigraph.Frozen;
circles, traces, surgeries and medial maps are NamedTuples.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from operator import itemgetter
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


class RotationSystem(mg.Frozen):
    """Signed rotation system; sectors[v] lists the discs at vertex v."""

    _fields = ("sectors", "signs")     # they fix ends and half_home

    def __init__(self, sectors: Mapping[int, Iterable[Iterable[Half]]],
                 signs: Mapping[int, int]):
        given, sectors = sectors, {}
        for v, secs in given.items():
            secs = tuple([tuple([(int(e), int(end)) for e, end in sec]) for sec in secs])
            if not secs:
                raise RibbonError(f"vertex {v} has no sectors")
            sectors[int(v)] = secs
        signs = {int(e): int(s) for e, s in signs.items()}
        if not {1, -1}.issuperset(signs.values()):
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
        self.__dict__.update(sectors=sectors, signs=signs, ends=ends,
                             half_home=half_home)

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
        """trace_sectors of every band, walked on the disc arcs on first
        use."""
        return trace_sectors(self, self.edge_set())

    @cached_property
    def circle_count(self) -> int:
        """The full trace's f, counted by circle_counter with every band
        present, on first use; no Circle is built."""
        return circle_counter(self)([3 if self.signs[e] > 0 else 2 for e in self.edges])

    @cached_property
    def dual(self) -> "RotationSystem":
        """The geometric dual, built by ribbon.dual on first use."""
        return dual(self)

    @cached_property
    def dual_tally(self) -> "Tally":
        """The unforced transfer_tally(self, self.dual), on first use."""
        return transfer_tally(self, self.dual)

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


class Circle(NamedTuple):
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


class BoundaryTrace(NamedTuple):
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


def trace_sectors(g: RotationSystem, subset: frozenset) -> BoundaryTrace:
    """Trace the boundary circles of the bands in subset over every disc
    of g, on the disc arcs and pairings of circle_counter: each walk
    alternates p ^ pairing and kappa, as count does, and records the
    points and sides of the present bands alone, passing the others.
    It starts at each unseen point of a present band in increasing
    order, which is (edge, end, io) order, so circles are numbered by
    their smallest point and leave along a band first; the circles of
    sectors with no present half-edge follow, by home."""
    kappa, _ = g.disc_arcs
    edges = g.edges
    pairing = [(3 if g.signs[e] > 0 else 2) if e in subset else 1 for e in edges]
    circles: list[Circle] = []
    side_circle: dict[tuple[int, int], int] = {}
    side_entry: dict[tuple[int, int], int] = {}
    seen = bytearray(len(kappa))
    for start in range(len(kappa)):
        if seen[start] or pairing[start >> 2] == 1:
            continue
        visits: list[Point] = []
        sides: list[tuple[int, int]] = []
        entry_ends: list[int] = []
        p = start
        while True:
            band = pairing[p >> 2]
            q = p ^ band
            seen[p] = seen[q] = 1
            if band != 1:
                e, end = edges[p >> 2], p >> 1 & 1
                # The left side is the band's pair through (e, 0, in).
                side = (e, LEFT if p & 3 in (0, band) else RIGHT)
                side_circle[side] = len(circles)
                side_entry[side] = end
                sides.append(side)
                entry_ends.append(end)
                visits += (e, end, p & 1), (e, 1 - end, q & 1)
            p = kappa[q]
            if p == start:
                break
        circles.append(Circle(tuple(visits), tuple(sides), tuple(entry_ends)))
    for home, sec in all_sectors(g):
        if not any(e in subset for e, _ in sec):
            circles.append(Circle((), (), (), home=home))
    return BoundaryTrace(tuple(circles), side_circle, side_entry)


def all_sectors(g: RotationSystem) -> list[tuple[Home, Sector]]:
    return [((v, k), sec)
            for v in g.vertices
            for k, sec in enumerate(g.sectors[v])]


def _edge_subset(g: RotationSystem, subset: Iterable[int] | None) -> frozenset:
    """subset as a frozenset of edges of g, all of them if None."""
    a = g.edge_set() if subset is None else frozenset(subset)
    if not a <= g.edge_set():
        raise RibbonError(f"subset {sorted(set(a) - g.edge_set())} not among the edges")
    return a


def trace_boundary(g: RotationSystem,
                   subset: Iterable[int] | None = None) -> BoundaryTrace:
    a = _edge_subset(g, subset)
    return g.trace if a == g.edge_set() else trace_sectors(g, a)


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
    circle walks past the edge).  count returns the f of trace_sectors
    on the bands that pairing keeps, walking the same orbits without
    recording them: the orbits, plus one per sector with no half-edges.
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


class Tally(dict):
    """The count of each row of one _frontier_tally, read-only, kept as
    it comes, as no two rows are equal, or through decode if given;
    rerun(forced=...) runs the same pass again, on the same layers."""

    def __init__(self, order, layers, sizes=(0, 1), decode=None, forced=None):
        rows = _frontier_tally(order, layers, sizes, forced)
        super().__init__(rows if decode is None else
                         [(decode(row), m) for row, m in rows])
        self.rerun = partial(Tally, order, layers, sizes, decode)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a tally is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def transfer_tally(x: RotationSystem | mg.Multigraph,
                   *cuts: RotationSystem | mg.Multigraph) -> Tally:
    """The one subset tally, of the rows (|A|, c(A)[, f(A)], then per
    cut c_k(E - A)[, f_k(E - A)]) over the edge subsets A: x carries A
    and each cut graph (the dual or the dagger graph, say, on the same
    edge ids) E - A, in the order given.  Each graph brings its union
    layer, and a rotation system its circle layer too, traced on its
    own, wherever it sits.  The edges are decided one at a time (see
    _frontier_tally), in the order x keeps."""
    order = x.edge_order if isinstance(x, RotationSystem) else x.tally_order
    layers = []
    for y, inside in ((x, True), *((cut, False) for cut in cuts)):
        if isinstance(y, RotationSystem):
            layers += [_block_moves(y.underlying(), order, inside),
                       _circle_moves(y, order, _in_a if inside else _in_rest)]
        else:
            layers.append(_block_moves(y, order, inside))
    return Tally(order, layers)


def state_tally(g: RotationSystem, mm: "MedialMap") -> Tally:
    """Tally of (medial curves, graph curves) over the 3^|E| medial
    states of g, without visiting the states; mm is medial(g).

    The edges are decided one at a time, each black, white or crossing
    (STATE_NAMES order; a rerun's forced maps an edge id to the index
    of the one smoothing to keep).  The medial route is a union layer
    on the corners of g (_medial_moves), the graph route a circle layer
    on its disc arcs paired by smoothing_pairings, so the two counts
    share nothing but the edge order; decode drops the size, always 0.
    """
    order = g.edge_order
    layers = [_medial_moves(mm, order),
              _circle_moves(g, order, smoothing_pairings)]
    return Tally(order, layers, (0, 0, 0), itemgetter(1, 2))


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
    packed = [p + offset for p in tally]
    mask = (1 << width) - 1
    columns = [[p & mask for p in packed]]
    columns += [[(p >> shift & mask) + base for p in packed]
                for shift, (_, base) in zip(shifts, layers)]
    return list(zip(zip(*columns), tally.values()))


def _block_moves(g: mg.Multigraph, order: list[int], inside: bool):
    """The layer of the vertex partition of (V, A) if inside, else of
    (V, E - A), over the edge order: the union layer on the vertices in
    which an edge joins its ends when it is inside A (its second
    choice) if inside, and when it is outside A otherwise."""
    if g.edge_set() != set(order):
        raise RibbonError("a cut graph must share the tally's edge ids")
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
        ids: dict = {}
        part = tuple([ids.setdefault(label[k], len(ids)) for k in kept])
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
    edge's pairing completes a cycle.

    Each move reads how its edge's choices rejoin the paths from one
    plan table, _circle_plan, memoised on the links among the edge's
    own points and the pairings: every move of every layer shares it,
    and its domain bounds it at 60 entries."""
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


@cache
def _circle_plan(inner: tuple[int, ...], pairings: tuple[int, ...]):
    """Per pairing x of pairings, (ends, closed) for an edge whose own
    point j links to the own point inner[j], or leaves the edge if
    inner[j] is -1.  Walking from each point whose link leaves, through
    x and the links, to the next such point gives the pairs of ends;
    the points no walk meets lie on the closed circles, counted in
    closed.  inner is one of the 10 fixed-point-free partial
    involutions of the 4 points and pairings one of the 6 tuples of
    _in_a, _in_rest and smoothing_pairings, so the table holds at most
    60 entries."""
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
        out.append((tuple(ends), closed))
    return tuple(out)


def _picker(places: Sequence[int]):
    """The function from a tuple to the tuple of its items at places."""
    if len(places) > 1:
        return itemgetter(*places)
    if places:
        (k,) = places
        return lambda items: (items[k],)
    return lambda items: ()


def _circle_move(before, after, i, arcs, decided, pairings):
    base = 4 * i
    # The edge's decided points sit at fixed places in a part; the rest
    # of the part is carried over in order, then the entering points.
    at = tuple((j, before.index(base + j)) for j in range(4) if decided[j])
    own = {k for _, k in at}
    carry = _picker([k for k in range(len(before)) if k not in own])
    fresh = (0,) * (len(after) - len(before) + len(own))
    where = {p: k for k, p in enumerate(after)}

    def move(mates):
        link = list(arcs)
        for j, k in at:
            link[j] = mates[k]
        steps = _circle_plan(tuple([p - base if p >> 2 == i else -1 for p in link]),
                             pairings)
        carried = [*carry(mates), *fresh]
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
    the subset: 2c - v + |A| - f.  For the whole edge set, f and c are
    read off the full trace and the c(E) the underlying graph keeps;
    for a proper subset f is counted by circle_counter without tracing."""
    a = _edge_subset(g, subset)
    full = a == g.edge_set()
    f = g.trace.f if full else circle_counter(g)(
        [(3 if g.signs[e] > 0 else 2) if e in a else 1 for e in g.edges])
    c = mg.components(g.underlying(), None if full else a)
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


class Surgery(NamedTuple):
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


class MedialMap(NamedTuple):
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
    if mg.components(g.underlying()) != 1:
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

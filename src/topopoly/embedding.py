"""Graphs embedded in pseudo-surfaces.

An embedded graph is a rotation system plus a region structure: every
boundary circle of the spanned neighbourhood is glued to exactly one
region, and every region is a connected surface with genus and one or
more boundary circles.  Filling each region accordingly rebuilds the
ambient pseudo-surface, so validation, region adjacency (the dagger
graph), region counts rho, edge classification and complement
invariants are all computed from this data, on the circles of the
rotation system's own full trace (RotationSystem.trace).  An embedded
graph keeps its validation report and its scheme, each made on first
use by validate and derive_dagger, for every reader.

Deletion and contraction live at two levels.  The scheme level tracks
only the abstract graph and its dagger, which is all the transition
polynomial machinery needs: deleting an edge contracts its dagger
edge, contracting an edge deletes its dagger edge.  The topological
level really performs the surgery on sectors and regions; it exists to
cross-check the scheme rules and is restricted to non-loop edges for
contraction, since contracting a loop pinches the surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from . import matroid as mt
from . import multigraph as mg
from . import ribbon as rb


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddedGraph:
    """Rotation system with regions: circle index -> region id, and
    region id -> Euler genus of the (compactified) region."""

    rotation: rb.RotationSystem
    regions: Mapping[int, int]
    region_genus: Mapping[int, int]

    def __post_init__(self):
        trace = self.trace
        regions = {int(c): int(r) for c, r in self.regions.items()}
        genus = {int(r): int(g) for r, g in self.region_genus.items()}
        for c in range(trace.f):
            if c not in regions:
                raise EmbeddingError(
                    f"circle {c} of the trace is not covered by any region")
        for c, r in regions.items():
            if not 0 <= c < trace.f:
                raise EmbeddingError(f"region {r} lists unknown circle {c}")
            if r not in genus:
                raise EmbeddingError(f"circle {c} glued to unknown region {r}")
        for r, g in genus.items():
            if g < 0:
                raise EmbeddingError(f"region {r} has negative genus {g}")
            if r not in regions.values():
                raise EmbeddingError(f"region {r} has no boundary circles")
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "region_genus", genus)

    @property
    def trace(self) -> rb.BoundaryTrace:
        """The rotation system's full trace, whose circles regions glue."""
        return self.rotation.trace

    @cached_property
    def report(self) -> "ValidationReport":
        """The surface's invariants, found by validate on first use."""
        return validate(self)

    @cached_property
    def scheme(self) -> "EmbeddingScheme":
        """The graph and its dagger graph, by derive_dagger on first use."""
        return derive_dagger(self)

    def side_regions(self, e: int) -> tuple[int, int]:
        """(region on the left of e, region on the right)."""
        sc = self.trace.side_circle
        return (self.regions[sc[(e, rb.LEFT)]], self.regions[sc[(e, rb.RIGHT)]])

    def region_circles(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {r: [] for r in self.region_genus}
        for c in range(self.trace.f):
            out[self.regions[c]].append(c)
        return out


def with_disc_regions(rotation: rb.RotationSystem) -> EmbeddedGraph:
    """Glue a disc onto every boundary circle.  For a pinch-free
    rotation system this is its cellular embedding."""
    discs = range(rotation.trace.f)
    return EmbeddedGraph(rotation, {c: c for c in discs}, {c: 0 for c in discs})


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    components: int             # k of the ambient pseudo-surface
    euler_characteristic: int
    euler_genus: int            # 2k - chi; negative only with pinches
    cellular: bool


def validate(emb: EmbeddedGraph) -> ValidationReport:
    rot = emb.rotation
    circles = emb.region_circles()
    chi = len(rot.sectors) - len(rot.signs) + sum(
        2 - g - len(circles[r]) for r, g in emb.region_genus.items())

    # k: the components of a graph on the vertices and the regions, in
    # which each band joins its two ends and its two side regions, and
    # each circle around a bare sector joins that vertex to its region.
    vertex = {w: i for i, w in enumerate(rot.vertices)}
    region = {r: len(vertex) + i for i, r in enumerate(emb.region_genus)}
    joins = [(vertex[circle.home[0]], region[emb.regions[c]])
             for c, circle in enumerate(emb.trace.circles) if circle.home is not None]
    for x in rot.edges:
        (u, w), (rl, rr) = rot.ends[x], emb.side_regions(x)
        joins += [(vertex[u], vertex[w]), (vertex[w], region[rl]),
                  (region[rl], region[rr])]
    k = mg.components(mg.Multigraph(range(len(vertex) + len(region)),
                                    dict(enumerate(joins))))

    cellular = (not rot.pinch_vertices()
                and all(g == 0 for g in emb.region_genus.values())
                and all(len(cs) == 1 for cs in circles.values()))
    return ValidationReport(k, chi, 2 * k - chi, cellular)


# ---------------------------------------------------------------------------
# dagger graph and scheme


@dataclass(frozen=True)
class EmbeddingScheme:
    """The abstract graph together with its region-adjacency graph.
    Both share edge ids; minors move an edge between the two."""

    g: mg.Multigraph
    dagger: mg.Multigraph

    def __post_init__(self):
        if self.g.edge_set() != self.dagger.edge_set():
            raise EmbeddingError("scheme graphs must share their edge ids")

    @cached_property
    def bond(self) -> mt.RankMatroid:
        """B(H), H the dagger graph, built on first use; classify_edge
        reads it for every edge.  scheme_perspective builds its own and
        shares no rank cache with it."""
        return mt.bond_matroid(self.dagger)


def derive_dagger(emb: EmbeddedGraph) -> EmbeddingScheme:
    """Region-adjacency graph: one vertex per region, and edge e joins
    the regions on its two sides."""
    ends = {e: emb.side_regions(e) for e in emb.rotation.edges}
    dagger = mg.Multigraph(tuple(sorted(emb.region_genus)), ends)
    return EmbeddingScheme(emb.rotation.underlying(), dagger)


def rho(x, a: Iterable[int] | None = None) -> int:
    """Number of regions of the spanning subgraph on edge set a: the
    components of the dagger graph after cutting the other edges open,
    i.e. c_dagger(E - a).  x is a scheme, or an embedding's own."""
    s = x.scheme if isinstance(x, EmbeddedGraph) else x
    a = s.g.edge_set() if a is None else frozenset(a)
    return mg.components(s.dagger, s.dagger.edge_set() - a)


def delete_edge(s: EmbeddingScheme, e: int) -> EmbeddingScheme:
    """Remove e from the drawing; its two side regions merge."""
    return EmbeddingScheme(mg.delete_edge(s.g, e), mg.contract_edge(s.dagger, e))


def contract_edge(s: EmbeddingScheme, e: int) -> EmbeddingScheme:
    """Contract e in the drawing; the region structure is untouched."""
    return EmbeddingScheme(mg.contract_edge(s.g, e), mg.delete_edge(s.dagger, e))


def scheme_perspective(s: EmbeddingScheme) -> mt.MatroidPerspective:
    """The bond matroid of the dagger graph seen through the cycle
    matroid of the graph itself, validated as a perspective."""
    return mt.make_perspective(mt.bond_matroid(s.dagger), mt.cycle_matroid(s.g))


# ---------------------------------------------------------------------------
# edge classification

BRIDGE = "bridge"
QUASI_BRIDGE_ONLY = "quasi_bridge_only"
QUASI_LOOP = "quasi_loop"
ORDINARY = "ordinary"


def classify_edge(emb: EmbeddedGraph, e: int) -> str:
    """Sort an edge into bridge / quasi-bridge-only / quasi-loop /
    ordinary, cross-checking the drawing against its own scheme."""
    s = emb.scheme
    if e not in s.g.ends:
        raise EmbeddingError(f"no edge {e}")

    rl, rr = emb.side_regions(e)
    quasi_bridge_topo = rl == rr
    quasi_loop_topo = rho(s, {e}) > rho(s, ())

    bond = s.bond
    if mt.is_loop(bond, e) != quasi_loop_topo:
        raise EmbeddingError(f"edge {e}: region count and matroid loop test disagree")
    if mt.is_isthmus(bond, e) != quasi_bridge_topo:
        raise EmbeddingError(f"edge {e}: side regions and matroid isthmus test disagree")

    bridge = mg.is_bridge(s.g, e)
    if quasi_loop_topo and not s.g.is_loop(e):
        raise EmbeddingError(f"edge {e}: quasi-loop that is not a loop")
    if bridge and not quasi_bridge_topo:
        raise EmbeddingError(f"edge {e}: bridge with two distinct side regions")

    if bridge:
        return BRIDGE
    if quasi_loop_topo:
        return QUASI_LOOP
    if quasi_bridge_topo:
        return QUASI_BRIDGE_ONLY
    return ORDINARY


# ---------------------------------------------------------------------------
# complement invariants


@dataclass(frozen=True)
class ComplementStats:
    """Invariants of the ambient surface minus the open neighbourhood
    of the spanning subgraph (V, A)."""

    components: int             # k(complement) = rho(A)
    boundary_circles: int       # shared with the neighbourhood: f(A)
    euler_characteristic: int
    euler_genus: int
    neighborhood_genus: int     # Euler genus of the neighbourhood itself


def complement_stats(emb: EmbeddedGraph, a: Iterable[int]) -> ComplementStats:
    rot = emb.rotation
    rb.require_pinch_free(rot, "the complement surface")
    a = frozenset(a)
    k = rho(emb, a)
    f = rb.trace_boundary(rot, a).f
    chi = emb.report.euler_characteristic - (len(rot.sectors) - len(a))
    genus = 2 * k - f - chi
    ngenus = rb.euler_genus(rot, a)
    if genus < 0 or ngenus < 0:
        raise EmbeddingError(f"negative genus from subset {sorted(a)}")
    return ComplementStats(k, f, chi, genus, ngenus)


# ---------------------------------------------------------------------------
# topological minors (testing oracles)


def _region_chis(emb: EmbeddedGraph) -> dict[int, int]:
    circles = emb.region_circles()
    return {r: 2 - g - len(circles[r]) for r, g in emb.region_genus.items()}


def topological_delete(emb: EmbeddedGraph, e: int) -> EmbeddedGraph:
    """Erase the band of e from the drawing, merging its side regions.

    Circles away from e keep their regions; the recombined circles and
    any sector disc that e left bare all bound the merged region, whose
    genus follows from its Euler characteristic.
    """
    if e not in emb.rotation.signs:
        raise EmbeddingError(f"no edge {e}")
    r1, r2 = emb.side_regions(e)
    chis = _region_chis(emb)
    merged = min(r1, r2)
    chi_merged = chis[r1] - 1 if r1 == r2 else chis[r1] + chis[r2] - 1

    old = emb.trace
    affected = {old.side_circle[(e, rb.LEFT)], old.side_circle[(e, rb.RIGHT)]}
    old_by_point = old.circle_of_point()
    old_by_home = old.circle_of_home()

    rot2 = rb.delete_edge(emb.rotation, e)
    new = rb.trace_boundary(rot2)

    def landing(circle: rb.Circle) -> int:
        if circle.home is not None:
            prev = old_by_home.get(circle.home)
            if prev is None:
                # The disc was stripped bare by the deletion.
                return merged
            src = emb.regions[prev]
        else:
            prev = old_by_point[circle.visits[0]]
            src = emb.regions[prev] if prev not in affected else merged
        # Carried-over circles of the absorbed regions move along.
        return merged if src in (r1, r2) else src

    regions2 = {idx: landing(c) for idx, c in enumerate(new.circles)}
    b_merged = sum(1 for r in regions2.values() if r == merged)
    genus_merged = 2 - b_merged - chi_merged
    if genus_merged < 0:
        raise EmbeddingError(f"deleting edge {e} broke the region bookkeeping")
    region_genus = {r: g for r, g in emb.region_genus.items() if r not in (r1, r2)}
    region_genus[merged] = genus_merged
    return EmbeddedGraph(rot2, regions2, region_genus)


def topological_contract(emb: EmbeddedGraph, e: int) -> EmbeddedGraph:
    """Contract a non-loop edge in the drawing.  Regions, their genera
    and their circle counts all survive; only the circle labels move."""
    if e not in emb.rotation.signs:
        raise EmbeddingError(f"no edge {e}")
    if emb.rotation.is_loop(e):
        raise EmbeddingError(f"contracting loop {e} would pinch the surface")

    surgery = rb.contract_nonloop(emb.rotation, e)
    old = emb.trace
    new = rb.trace_boundary(surgery.system)
    new_by_point = new.circle_of_point()
    new_by_home = new.circle_of_home()

    regions2: dict[int, int] = {}
    for idx, circle in enumerate(old.circles):
        r = emb.regions[idx]
        if circle.home is not None:
            regions2[new_by_home[surgery.home_map[circle.home]]] = r
            continue
        image = next((surgery.point_map[p] for p in circle.visits
                      if p in surgery.point_map), None)
        if image is None:
            # Every visit ran along e: the circle now rings the bare
            # spliced disc.
            regions2[new_by_home[surgery.fresh_home]] = r
        else:
            regions2[new_by_point[image]] = r
    return EmbeddedGraph(surgery.system, regions2, dict(emb.region_genus))

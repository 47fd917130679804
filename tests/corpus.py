"""Seeded fixture corpus shared by the test modules.

Two pools:

  main_corpus      embedded graphs of every stripe (signed, pinched,
                   disconnected, cellular and not), up to 10 edges
  cellular_corpus  connected pinch-free rotation systems up to 8 edges,
                   sized for exhaustive 3^e state sweeps

plus a handful of named fixtures whose invariants were worked out by
hand and are frozen in the tests.
"""

from __future__ import annotations

import random

from topopoly import embedding as em
from topopoly import multigraph as mg
from topopoly import ribbon as rb


# ---------------------------------------------------------------------------
# hand-built fixtures


def theta_torus() -> rb.RotationSystem:
    """Two vertices joined by three parallel edges, rotations aligned
    so the ribbon graph fills a torus: f=1, genus 2, orientable."""
    return rb.RotationSystem.single(
        {0: ((1, 0), (2, 0), (3, 0)), 1: ((1, 1), (2, 1), (3, 1))},
        {1: 1, 2: 1, 3: 1})


def plane_edge() -> rb.RotationSystem:
    return rb.RotationSystem.single({0: ((1, 0),), 1: ((1, 1),)}, {1: 1})


def plane_loop() -> rb.RotationSystem:
    return rb.RotationSystem.single({0: ((1, 0), (1, 1))}, {1: 1})


def proj_loop() -> rb.RotationSystem:
    """One twisted loop: fills the projective plane."""
    return rb.RotationSystem.single({0: ((1, 0), (1, 1))}, {1: -1})


def plane_digon() -> rb.RotationSystem:
    """Two vertices, two parallel edges, planar: f=2, genus 0."""
    return rb.RotationSystem.single(
        {0: ((1, 0), (2, 0)), 1: ((2, 1), (1, 1))}, {1: 1, 2: 1})


def bouquet_torus() -> rb.RotationSystem:
    """Two interleaved plain loops at one vertex: f=1, genus 2."""
    return rb.RotationSystem.single(
        {0: ((1, 0), (2, 0), (1, 1), (2, 1))}, {1: 1, 2: 1})


def klein_bouquet() -> rb.RotationSystem:
    """Interleaved loops, one twisted: genus 2, not orientable."""
    return rb.RotationSystem.single(
        {0: ((1, 0), (2, 0), (1, 1), (2, 1))}, {1: -1, 2: 1})


def _pair_system(rotations: tuple[str, str], signs: str) -> rb.RotationSystem:
    """Vertices 0 and 1 with the given rotations, half-edges written as
    edge.end, and one sign character per edge from edge 1."""
    return rb.RotationSystem.single(
        {v: tuple((int(e), int(end)) for e, end in (t.split(".") for t in rot.split()))
         for v, rot in enumerate(rotations)},
        {e: 1 if s == "+" else -1 for e, s in enumerate(signs, start=1)})


def ribbon_twins() -> tuple[rb.RotationSystem, rb.RotationSystem]:
    """Two orientable embeddings, 2 vertices and 6 untwisted edges in
    Euler genus 4: equal T and R, different L, K and L_ext."""
    return (_pair_system(("4.1 1.0 2.0 5.1 6.1 3.1 6.0 1.1", "2.1 3.0 4.0 5.0"),
                         "++++++"),
            _pair_system(("4.0 2.0 5.1 3.0", "6.1 1.0 5.0 4.1 2.1 1.1 6.0 3.1"),
                         "++++++"))


def surface_twins() -> tuple[rb.RotationSystem, rb.RotationSystem]:
    """Two non-orientable embeddings, 2 vertices and 6 edges in Euler
    genus 4: equal T, R, L and L_ext, different K."""
    return (_pair_system(("4.1 3.0 6.1 3.1 4.0 2.1 5.0 1.0", "2.0 5.1 6.0 1.1"),
                         "--+-++"),
            _pair_system(("3.0 1.0 3.1 2.0 6.1 5.0", "4.1 1.1 2.1 5.1 4.0 6.0"),
                         "+--++-"))


def torus_loop_annulus() -> em.EmbeddedGraph:
    """A plain loop whose two boundary circles bound one annulus,
    so the loop sits on a torus without cutting it into discs."""
    return em.EmbeddedGraph(plane_loop(), {0: 0, 1: 0}, {0: 0})


def digon_torus_annulus() -> em.EmbeddedGraph:
    """The planar digon closed by a single annulus region: again a
    torus, again not cellular, still pinch-free and connected."""
    return em.EmbeddedGraph(plane_digon(), {0: 0, 1: 0}, {0: 0})


def pinched_spheres() -> em.EmbeddedGraph:
    """Two plain loops in separate sectors of one vertex, discs glued
    on: two spheres sharing a point (Euler characteristic 3)."""
    rs = rb.RotationSystem(
        {0: (((1, 0), (1, 1)), ((2, 0), (2, 1)))}, {1: 1, 2: 1})
    return em.with_disc_regions(rs)


def torus_grid(n: int) -> rb.RotationSystem:
    """The n x n grid on the torus: vertex (i, j) is i n + j, with the
    rotation east, north, west, south.  The east edge of (i, j), id
    2 (i n + j) + 1, has end 0 there and end 1 at (i, j + 1); the north
    edge, the next id, has end 0 there and end 1 at (i + 1, j), indices
    mod n.  All signs +1: n^2 circles, Euler genus 2."""
    def east(i, j):
        return 2 * (i % n * n + j % n) + 1

    return rb.RotationSystem.single(
        {i * n + j: ((east(i, j), 0), (east(i, j) + 1, 0),
                     (east(i, j - 1), 1), (east(i - 1, j) + 1, 1))
         for i in range(n) for j in range(n)},
        dict.fromkeys(range(1, 2 * n * n + 1), 1))


def named_embedded() -> list[em.EmbeddedGraph]:
    return [
        em.with_disc_regions(theta_torus()),
        em.with_disc_regions(plane_edge()),
        em.with_disc_regions(plane_loop()),
        em.with_disc_regions(proj_loop()),
        em.with_disc_regions(plane_digon()),
        em.with_disc_regions(bouquet_torus()),
        em.with_disc_regions(klein_bouquet()),
        torus_loop_annulus(),
        digon_torus_annulus(),
        pinched_spheres(),
    ]


# ---------------------------------------------------------------------------
# generators


def random_rotation(rng: random.Random, n_vertices: int, n_edges: int, *,
                    allow_pinch: bool = True,
                    signed: bool = True) -> rb.RotationSystem:
    vertices = range(n_vertices)
    halves: dict[int, list] = {v: [] for v in vertices}
    signs = {}
    for e in range(1, n_edges + 1):
        halves[rng.randrange(n_vertices)].append((e, 0))
        halves[rng.randrange(n_vertices)].append((e, 1))
        signs[e] = rng.choice((1, -1)) if signed else 1
    sectors = {}
    for v in vertices:
        hs = halves[v]
        rng.shuffle(hs)
        if allow_pinch and len(hs) >= 2 and rng.random() < 0.3:
            cut = rng.randrange(1, len(hs))
            sectors[v] = (tuple(hs[:cut]), tuple(hs[cut:]))
        else:
            sectors[v] = (tuple(hs),)
    return rb.RotationSystem(sectors, signs)


def close_random(rng: random.Random, rotation: rb.RotationSystem, *,
                 disc_prob: float = 0.5) -> em.EmbeddedGraph:
    """Close the boundary with discs, or with a random coarser region
    structure carrying extra genus (usually not cellular)."""
    if rng.random() < disc_prob:
        return em.with_disc_regions(rotation)
    n = rb.trace_boundary(rotation).f
    n_regions = rng.randint(1, n)
    ids = list(range(n))
    rng.shuffle(ids)
    assignment = {}
    for r, cid in enumerate(ids[:n_regions]):
        assignment[cid] = r
    for cid in ids[n_regions:]:
        assignment[cid] = rng.randrange(n_regions)
    genus = {r: rng.choice((0, 0, 0, 1, 1, 2)) for r in range(n_regions)}
    return em.EmbeddedGraph(rotation, assignment, genus)


_MAIN_SIZES = ((2, 30), (3, 30), (4, 30), (5, 30), (6, 25),
               (7, 20), (8, 15), (9, 10), (10, 8))


def main_corpus(seed: int = 20260818) -> list[em.EmbeddedGraph]:
    """At least 200 embedded graphs up to 10 edges: mixed genus,
    signed and plain, pinched and not, cellular and not."""
    rng = random.Random(seed)
    out = list(named_embedded())
    for n_edges, count in _MAIN_SIZES:
        for i in range(count):
            n_vertices = rng.randint(1, 5)
            rs = random_rotation(rng, n_vertices, n_edges,
                                 allow_pinch=(i % 2 == 0),
                                 signed=(i % 3 != 2))
            out.append(close_random(rng, rs))
    return out


CELLULAR_SIZES = {2: 4, 3: 6, 4: 8, 5: 8, 6: 8, 7: 3, 8: 2}


def cellular_corpus(seed: int = 414) -> list[rb.RotationSystem]:
    """Connected pinch-free rotation systems, sized so every 3^e state
    sweep stays cheap; includes the named low-genus fixtures."""
    rng = random.Random(seed)
    out = [theta_torus(), plane_edge(), plane_loop(), proj_loop(),
           plane_digon(), bouquet_torus(), klein_bouquet()]
    need = dict(CELLULAR_SIZES)
    while any(need.values()):
        n_edges = rng.choice([k for k, v in need.items() if v])
        n_vertices = rng.randint(1, min(5, n_edges + 1))
        rs = random_rotation(rng, n_vertices, n_edges, allow_pinch=False,
                             signed=(rng.random() < 0.7))
        if mg.components(rs.underlying()) != 1:
            continue
        need[n_edges] -= 1
        out.append(rs)
    return out

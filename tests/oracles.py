"""Reference code that only the tests run.

Matroid minors and the exhaustive axiom, circuit and flat checks, the
delete/contract recursion of the pair polynomial on those minors, the
checkerboard colouring of a medial map, an isomorphism search over
every vertex bijection, the canonical string of a polynomial spelled
out variable by variable, and a boundary tracer on tuple corner
points.  No command reaches them; the tests use them as independent
routes to what the library computes another way (the pair polynomial
from its rank rows, the medial state counts from frontier tallies, the
printed polynomial from tables, traces from the int disc arcs).
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Mapping, Sequence

from topopoly import matroid as mt
from topopoly import multigraph as mg
from topopoly import poly
from topopoly import ribbon as rb
from topopoly.matroid import MatroidError, MatroidPerspective, RankMatroid
from topopoly.mpoly import VARS, MPolynomial, _power_suffix
from topopoly.ribbon import IN, LEFT, OUT, RIGHT, BoundaryTrace, Circle, RibbonError

# ---------------------------------------------------------------------------
# matroid minors and exhaustive checks


def _bits(a: int) -> list[int]:
    """The one-bit masks of the elements in a."""
    return [1 << i for i in range(a.bit_length()) if a >> i & 1]


def _minor(m: RankMatroid, e: int, contract: bool) -> RankMatroid:
    """M \\ e or M / e, a mask transform of the parent oracle.  A mask
    of the minor lifts to the parent by keeping the bits below e's,
    moving the rest up one place, and for a contraction setting e's
    bit."""
    if e not in m.ground:
        raise MatroidError(f"no element {e}")
    i = m.ground.index(e)
    low = (1 << i) - 1
    bit = 1 << i if contract else 0
    r_e = m.rank(bit) if contract else 0

    def r(a: int) -> int:
        return m.rank((a & low) | ((a >> i) << (i + 1)) | bit) - r_e

    sep = "/" if contract else "\\"
    return RankMatroid(m.ground[:i] + m.ground[i + 1:], r,
                       name=f"{m.name}{sep}{e}")


def delete(m: RankMatroid, e: int) -> RankMatroid:
    return _minor(m, e, contract=False)


def contract(m: RankMatroid, e: int) -> RankMatroid:
    return _minor(m, e, contract=True)


def is_flat(m: RankMatroid, a: int) -> bool:
    """True iff adding any outside element raises the rank."""
    r_a = m.rank(a)
    return all(m.rank(a | b) == r_a + 1 for b in _bits(m.full ^ a))


def check_rank_axioms(m: RankMatroid, max_exhaustive: int = 12) -> None:
    """Axiom validation; raises MatroidError with a witness.

    Checks r(empty) = 0, unit increase, and local submodularity
    r(A+e) + r(A+f) >= r(A+e+f) + r(A), exhaustively when the ground
    set has at most max_exhaustive elements.
    """
    if len(m.ground) > max_exhaustive:
        raise MatroidError(
            f"axiom check is exhaustive; ground set of {len(m.ground)} exceeds "
            f"cap {max_exhaustive}")
    if m.rank(0) != 0:
        raise MatroidError("rank of the empty set is not 0")
    for a in range(m.full + 1):
        r_a = m.rank(a)
        rest = [(1 << i, e) for i, e in enumerate(m.ground) if not a >> i & 1]
        for b, e in rest:
            step = m.rank(a | b) - r_a
            if step not in (0, 1):
                raise MatroidError(f"rank step {step} at "
                                   f"A={mg.subset_ids(m.ground, a)}, e={e}")
        for j, (b, e) in enumerate(rest):
            for c, f in rest[j + 1:]:
                if m.rank(a | b) + m.rank(a | c) < m.rank(a | b | c) + r_a:
                    raise MatroidError(
                        f"submodularity fails at A={mg.subset_ids(m.ground, a)}, "
                        f"e={e}, f={f}")


def circuits(m: RankMatroid) -> list[int]:
    """The masks of all circuits, the minimal dependent sets: r(A) =
    |A| - 1 with every A - e independent.  Exhaustive (small ground
    sets only)."""
    return [a for a in range(1, m.full + 1)
            if m.rank(a) == a.bit_count() - 1
            and all(m.rank(a ^ e) == a.bit_count() - 1 for e in _bits(a))]


def check_circuit_refinement(mp: MatroidPerspective, cap: int = 8) -> None:
    """Every circuit of M must be a union of circuits of M'.

    Exhaustive, so gated to small ground sets.
    """
    if len(mp.ground) > cap:
        raise MatroidError(f"circuit check capped at {cap} elements")
    prime_circuits = circuits(mp.m_prime)
    for c in circuits(mp.m):
        covered = 0
        for cp in prime_circuits:
            if cp & c == cp:
                covered |= cp
        if covered != c:
            raise MatroidError(f"circuit {mg.subset_ids(mp.ground, c)} of M "
                               f"is not a union of circuits of M'")


def check_flat_refinement(mp: MatroidPerspective, cap: int = 8) -> None:
    """Every flat of M' must be a flat of M (small ground sets)."""
    if len(mp.ground) > cap:
        raise MatroidError(f"flat check capped at {cap} elements")
    for a in range(mp.m.full + 1):
        if is_flat(mp.m_prime, a) and not is_flat(mp.m, a):
            raise MatroidError(
                f"flat {mg.subset_ids(mp.ground, a)} of M' is not a flat of M")


# ---------------------------------------------------------------------------
# the pair polynomial by delete/contract on matroid minors


def perspective_recursion(mp: MatroidPerspective,
                          cap: int = poly.EXPANSION_CAP) -> MPolynomial:
    """The pair polynomial of mp by delete/contract, unmemoised: the
    route poly.tutte_perspective's rank-row expansion is checked
    against."""
    poly.check_cap(len(mp.ground), cap, "perspective recursion")
    return poly.assemble("xyz", Counter(_perspective_leaves(mp.m, mp.m_prime)))


def _perspective_leaves(m: RankMatroid, m_prime: RankMatroid,
                        x: int = 0, y: int = 0, z: int = 0):
    """Delete/contract on the highest edge id, yielding the half-unit
    exponents (x, y, z) scored on the path to each leaf: a loop of M
    scores y, an isthmus of M' x, and an isthmus of M alone z, beside
    an unscored contraction branch."""
    if not m.ground:
        yield x, y, z
        return
    e = max(m.ground)
    dele = (delete(m, e), delete(m_prime, e))
    if mt.is_loop(m, e):
        yield from _perspective_leaves(*dele, x, y + 2, z)
    elif mt.is_isthmus(m_prime, e):
        yield from _perspective_leaves(*dele, x + 2, y, z)
    else:
        yield from _perspective_leaves(*dele, x, y, z + 2 * mt.is_isthmus(m, e))
        yield from _perspective_leaves(contract(m, e), contract(m_prime, e),
                                       x, y, z)


# ---------------------------------------------------------------------------
# the medial's faces


def medial_faces(mm: rb.MedialMap) -> tuple[dict[int, tuple[int, ...]],
                                            list[tuple[int, ...]]]:
    """Checkerboard-colour the faces of the medial.

    Returns (black, white): black maps each original vertex to the
    cyclic sequence of medial vertices its face walks; white lists the
    same sequences for the remaining faces.  A face is black iff every
    pass it makes through a medial vertex stays on one original
    half-edge, white iff no pass does; anything else is an error.
    """
    bt = rb.trace_boundary(mm.medial)
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


# ---------------------------------------------------------------------------
# isomorphism by brute force


def brute_isomorphism(g1: mg.Multigraph, g2: mg.Multigraph) -> dict | None:
    """The first vertex bijection g1 -> g2, trying every one in turn,
    under which each edge id keeps its unordered endpoint pair; None if
    there is none."""
    if g1.edge_set() != g2.edge_set() or len(g1.vertices) != len(g2.vertices):
        return None
    for image in permutations(g2.vertices):
        phi = dict(zip(g1.vertices, image))
        if all(sorted((phi[u], phi[w])) == sorted(g2.ends[e])
               for e, (u, w) in g1.ends.items()):
            return phi
    return None


# ---------------------------------------------------------------------------
# the canonical string


def polynomial_text(p: MPolynomial) -> str:
    """str(p) as a generator over VARS builds it: the terms in sorted
    exponent order, each monomial spelled out variable by variable."""
    terms = p.terms()
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms):
        coeff = terms[exps]
        mono = "".join(VARS[i] + _power_suffix(h)
                       for i, h in enumerate(exps) if h)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# boundary tracing on tuple corner points


def _beta(e: int, end: int, io: int, sign: int) -> rb.Point:
    if sign > 0:
        return (e, 1 - end, 1 - io)
    return (e, 1 - end, io)


def _side_of(point: rb.Point, sign: int) -> int:
    # The left side is the beta pair through (e, 0, in).
    e, end, io = point
    if end == 0:
        return LEFT if io == IN else RIGHT
    if sign > 0:
        return LEFT if io == OUT else RIGHT
    return LEFT if io == IN else RIGHT


def trace_sectors(sectors: Sequence[tuple[rb.Home, rb.Sector]],
                  signs: Mapping[int, int],
                  subset: frozenset) -> BoundaryTrace:
    """The boundary circles of the bands in subset over the given discs,
    each (home, cyclic half-edge order): kappa, keyed by (edge, end, io)
    points, joins the out point of each present half-edge to the in
    point of the next present one; beta joins a band's points at its two
    ends, crosswise for sign +1 and straight for sign -1.  Circles are
    numbered by their smallest point, then the bare discs by home."""
    kappa: dict[rb.Point, rb.Point] = {}
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
        visits: list[rb.Point] = []
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

"""Polynomials of graphs in surfaces, and their exact identities.

Every polynomial here comes from mpoly.assemble, which checks the
exponent buckets, then expands the binomial powers one shifted
variable at a time over merged keys.  Subset expansions tally one
bucket per edge subset; the two delete/contract recursions (matroid
pair and embedding scheme) tally one monomial per leaf, scored on the
path to it.  The scheme recursion is memoised on its minors, each
keyed by one flat string of relabelled vertices: per depth it splits
each distinct minor once, and it tallies the leaves below each
distinct node once, on packed int exponent keys, instead of listing
them.  It decides the edges in the breadth-first order that
multigraph.frontier_order finds narrowest on the vertices of G and of
the dagger graph, since the distinct minors at a depth are set by how
the decided edges join the live vertices; the leaf tally does not
depend on the order.  Expansion and recursion therefore build
byte-equal canonical strings whenever they agree as polynomials.

The subset expansions read their counts from the tallies of
ribbon.transfer_tally, which gives, per distinct row, how many subsets
A have that |A|, c(A), boundary circle count f(A) and, on request,
component count of a second graph on E - A.  It decides the edges one
at a time on frontier states instead of visiting the 2^|E| subsets.
Each expansion sets up its invariants once and maps each distinct row
to a bucket:

  bollobas_riordan      transfer_tally(rs): c and f; c(E) once
  krushkal              transfer_tally(rs, dagger): c, f and rho(A);
                        the embedding's report and dagger, and c(E)
  las_vergnas_cellular  rs.dual_tally: c and f of A, and of E - A in
                        the dual, which is traced itself; c(E) and the
                        genus once
  las_vergnas_embedded  transfer_tally(g, dagger): c and rho(A), no
                        tracing; c(E), rho(E) and rho(0) once
  tutte, dichromatic    transfer_tally(g): c alone

The tallies decide the edges in the order ribbon._edge_order picks by
the same measure (see there); no row depends on it.

A bad row names the first subset, in mask order, that yields it:
_first_subset, which the state checks share, reruns the same tally
with edges forced in or out, at most |E| times.

The dual, its dual_tally, the validation report and the scheme are
the input's own, made on first use, so one identities command tallies
the rows once, for L, R, lv-tidy, lv-dichromatic and the state checks.
Likewise its one transfer_tally(g, dagger) gives L_ext and, as its
marginals on (|A|, c(A)) and (|E - A|, c_H(E - A)), T(G) and
T(H; y, x): two tallies (that one and krushkal's) besides the dual's.

The routes that check one another stay independent: the cellular
expansion counts the dual's circles in its own trace instead of
deriving them from f(A), so it shares no boundary count with the
scheme expansion; tutte_perspective's expansion, the one rank walk,
reads the matroids' rank tables, filled on the graphs by
multigraph.component_table, and is checked against T(G) and
T(H; y, x), H the dagger graph, from the scheme tally; the recursion
tests its edges on its own flat minor keys, not on tally rows; and
the perspective recursion works on matroid minors, unmemoised.

verify_identities cross-checks every relation between the polynomials
on one embedded graph, exactly over the rationals: either as literal
polynomial identities or at seeded rational sample points chosen away
from the poles of the substitution being tested.  Every sum at a point
runs on one kernel, mpoly._power_kernel, in integers over one common
denominator.  MPolynomial.evaluate feeds it the integer layout of the
terms, built on the polynomial's first evaluation and kept, so each
point only picks a column and a base per variable; the row sums of
lv-tidy and lv-dichromatic reach it through mpoly._power_sum.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping

from . import embedding as em
from . import matroid as mt
from . import multigraph as mg
from . import ribbon as rb
from .mpoly import MPolynomial, _power_sum, assemble

EXPANSION_CAP = 20
IDENTITY_CAP = 16
POINTS_CAP = 1000           # sample points per pointwise identity


class CapError(ValueError):
    pass


class PolyError(ValueError):
    pass


def check_cap(n_edges: int, cap: int, what: str) -> None:
    if n_edges > cap:
        raise CapError(f"{what} on {n_edges} edges exceeds the cap of {cap}; "
                       f"pass a larger cap to force it")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str                 # pass | fail | skip
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def line(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        return f"RESULT: {self.name} {self.status}{tail}"


def _ok(name, detail=""):
    return CheckResult(name, "pass", detail)


def _bad(name, detail):
    return CheckResult(name, "fail", detail)


def _skip(name, detail):
    return CheckResult(name, "skip", detail)


# ---------------------------------------------------------------------------
# subset machinery


def _first_subset(edges: tuple[int, ...], tally, bad) -> str:
    """The error of the first subset A, in mask order, whose row is in
    bad, which maps each bad row of a tally to its message: a template
    whose fields {a} and {rest} take the sorted edge ids of A and of
    E - A.  tally(forced=...) is that tally, forced as transfer_tally;
    the highest edge id is the mask's most significant bit."""
    inside, row = rb.first_witness(tally, edges[::-1], 2, bad)
    return bad[row].format(a=[e for e in edges if inside[e]],
                           rest=[e for e in edges if not inside[e]])


# ---------------------------------------------------------------------------
# the polynomials


def tutte(g: mg.Multigraph, cap: int = EXPANSION_CAP) -> MPolynomial:
    """Corank-nullity sum of the cycle matroid of g."""
    check_cap(len(g.edges), cap, "Tutte expansion")
    return _tutte_from_rows(len(g.vertices), rb.transfer_tally(g), "xy")


def _tutte_from_rows(v: int, rows: Mapping, names: str) -> MPolynomial:
    """T(C(g)) in the (corank, nullity) variables names ("yx" gives
    T(B(g))), g a graph on v vertices, from rows that start with |A|,
    c(A), one per subset A, so that c(E) is the least c."""
    c_full = min(c for _, c, *_ in rows)
    counts: Counter = Counter()
    for (size, c, *_), m in rows.items():
        counts[2 * (c - c_full), 2 * (size - v + c)] += m
    return assemble(names, counts, shifted="xy")


def tutte_perspective(mp: mt.MatroidPerspective, method: str = "expansion",
                      cap: int = EXPANSION_CAP) -> MPolynomial:
    """Three-variable corank-nullity sum of a matroid pair; z tracks
    how much of the rank drop M' has not yet seen."""
    check_cap(len(mp.ground), cap, f"perspective {method}")
    if method == "expansion":
        t, tp = mp.m.table(), mp.m_prime.table()
        r_full, rp_full = t[-1], tp[-1]
        sizes = mt.mask_sizes(len(mp.ground))
        counts: Counter = Counter()
        # Counter keeps the mask order of first sight: bad rows come in order.
        for row, m in Counter(zip(sizes, t, tp)).items():
            size, r_a, rp_a = row
            k = (r_full - r_a) - (rp_full - rp_a)
            if min(k, size - r_a, rp_full - rp_a) < 0:
                a = mg.subset_ids(mp.ground, next(
                    a for a, first in enumerate(zip(sizes, t, tp)) if first == row))
                what = "rank drop inversion" if k < 0 else "negative exponent"
                raise PolyError(f"{what} on {a}; not a matroid perspective")
            counts[2 * (rp_full - rp_a), 2 * (size - r_a), 2 * k] += m
        return assemble("xyz", counts, shifted="xy")
    if method == "recursion":
        return assemble("xyz", Counter(_perspective_leaves(mp.m, mp.m_prime)))
    raise PolyError(f"unknown method {method!r}")


def _perspective_leaves(m: mt.RankMatroid, m_prime: mt.RankMatroid,
                        x: int = 0, y: int = 0, z: int = 0):
    """Delete/contract on the highest edge id, yielding the half-unit
    exponents (x, y, z) scored on the path to each leaf: a loop of M
    scores y, an isthmus of M' x, and an isthmus of M alone z, beside
    an unscored contraction branch."""
    if not m.ground:
        yield x, y, z
        return
    e = max(m.ground)
    dele = (mt.delete(m, e), mt.delete(m_prime, e))
    if mt.is_loop(m, e):
        yield from _perspective_leaves(*dele, x, y + 2, z)
    elif mt.is_isthmus(m_prime, e):
        yield from _perspective_leaves(*dele, x + 2, y, z)
    else:
        yield from _perspective_leaves(*dele, x, y, z + 2 * mt.is_isthmus(m, e))
        yield from _perspective_leaves(mt.contract(m, e), mt.contract(m_prime, e),
                                       x, y, z)


def las_vergnas_cellular(rs: rb.RotationSystem, method: str = "expansion",
                         cap: int = EXPANSION_CAP) -> MPolynomial:
    """The cellular three-variable polynomial of a pinch-free rotation
    system, from boundary data of the graph and its dual; z records half
    the genus deficiency.  The recursion runs on its disc embedding."""
    rb.require_pinch_free(rs, "the cellular polynomial")
    if method == "recursion":
        return las_vergnas_embedded(em.with_disc_regions(rs), "recursion", cap)
    if method != "expansion":
        raise PolyError(f"unknown method {method!r}")
    check_cap(len(rs.edges), cap, "subset expansion")
    return _cellular_from_rows(rs, rs.dual_tally)


def _cellular_from_rows(rs: rb.RotationSystem, rows: Mapping) -> MPolynomial:
    """L from rows, the dual_tally of rs; a bad row is named on forced
    tallies of the same dual, rs.dual."""
    v = len(rs.sectors)
    c_full = mg.components(rs.underlying())
    gamma = rb.euler_genus(rs)
    counts: Counter = Counter()
    bad = {}
    for row, m in rows.items():
        split = gamma + row.genus - row.genus_dual
        ey = (row.size - v + row.c) - split // 2
        ez2 = gamma - row.genus + row.genus_dual
        if split % 2 or ey < 0 or ez2 < 0:
            bad[row] = ("odd genus split on {a}" if split % 2
                        else "bad exponents on {a}")
        counts[2 * (row.c - c_full), 2 * ey, ez2] += m
    if bad:
        raise PolyError(_first_subset(rs.edges, partial(rb.dual_tally, rs), bad))
    return assemble("xyz", counts, shifted="xy")


def las_vergnas_embedded(x, method: str = "expansion",
                         cap: int = EXPANSION_CAP) -> MPolynomial:
    """The pseudo-surface polynomial, over the embedding scheme.

    Expansion sums (x-1)^(c(A)-c(E)) (y-1)^(rho(A)-rho(0)) z^(...)
    over edge subsets; recursion deletes or contracts the edges in a
    measured order (see _scheme_leaves), scoring bridges x, quasi-loops
    y and proper quasi-bridges z.
    """
    s = x.scheme if isinstance(x, em.EmbeddedGraph) else x
    if method == "recursion":
        check_cap(len(s.g.edges), cap, "delete/contract recursion")
        return assemble("xyz", _scheme_leaves(s))
    if method != "expansion":
        raise PolyError(f"unknown method {method!r}")
    check_cap(len(s.g.edges), cap, "subset expansion")
    return _scheme_from_rows(s, rb.transfer_tally(s.g, s.dagger))


def _scheme_from_rows(s: em.EmbeddingScheme, rows: Mapping) -> MPolynomial:
    """L_ext from rows, the transfer_tally(s.g, s.dagger) of the scheme;
    a bad row is named on forced tallies of the same pair."""
    n = len(s.g.edges)
    c_full = mg.components(s.g)
    rho_full = em.rho(s)
    rho_empty = em.rho(s, ())
    counts: Counter = Counter()
    bad = {}
    for row, m in rows.items():
        size, c_a, _, rho_a = row
        ez = (n - size) - (rho_full - rho_a) - (c_a - c_full)
        if ez < 0 or c_a < c_full or rho_a < rho_empty:
            bad[row] = "bad exponents on {a}"
        counts[2 * (c_a - c_full), 2 * (rho_a - rho_empty), 2 * ez] += m
    if bad:
        raise PolyError(_first_subset(
            s.g.edges, partial(rb.transfer_tally, s.g, s.dagger), bad))
    return assemble("xyz", counts, shifted="xy")


def _scheme_leaves(s: em.EmbeddingScheme) -> Counter:
    """The same walk over a scheme, as a Counter of the leaf triples:
    a quasi-loop scores y, a bridge x, and a proper quasi-bridge z,
    beside an unscored contraction.

    The edges are decided in the order of mg.frontier_order: of the
    breadth-first orders of G, one per root, the one with the fewest
    live vertices of G and of H (summed as squares over the steps), a
    vertex being live while some but not all of its edges are decided.
    Only the contractions among the decided edges at a live vertex
    reach the undecided ones, so a narrow frontier leaves few distinct
    minors per depth.  On the first connected random_rotation draws of
    tests/corpus.py from Random(5), the walk takes 6 ms at 10 vertices
    and 24 edges and 21 ms at 12 vertices and 30 edges (53 ms and
    0.31 s deciding the highest id first; 2 vCPUs, Python 3.11).

    The walk is memoised.  A node is the minor pair G/K\\D and H/D\\K
    left once the edges above its top edge are decided (K contracted, D
    deleted; H is the dagger graph, in which deleting e contracts it and
    contracting e deletes it).  Each minor is keyed by one flat string:
    the ends of its undecided edges in the walk's order, two characters
    an edge, with vertices relabelled in order of first appearance (the
    input's own vertex ids are relabelled on entry).  Relabelling is
    sound because every test at or below the node asks only whether an
    edge is a bridge or a loop, which neither a vertex's name nor an
    isolated vertex can change; so nodes with equal key pairs have equal
    leaf tallies, and each is solved once.  Nodes are expanded one depth
    at a time (every edge decided removes one edge from both minors).
    At each depth every distinct G-minor and every distinct H-minor is
    split once by _split, and a node only pairs the two splits; the
    split caches hold one depth.  A bridge of either minor leaves one
    branch, so its split builds no key for the other.  The tallies then
    go from the leaves up, each keyed by one packed int
    (x (n+1) + y) (n+1) + z in whole units: every leaf has
    x + y + z <= n = |E|, so no digit carries, and shifting a child's
    tally by a branch's score adds one int to each key.  The root's
    tally is unpacked to half-unit triples.  No Python recursion grows
    with |E|.
    """
    at = mg.incidences(s.g)
    order = mg.frontier_order(s.g, at, [*at.values(),
                                        *mg.incidences(s.dagger).values()])
    base = len(order) + 1
    x_score, y_score, z_score = base * base, base, 1
    level = {(_entry_key(s.g, order), _entry_key(s.dagger, order)): 0}
    plan = []   # per depth, per node: (deleted child, score, contracted child)
    for _ in order:
        gs, hs = zip(*level)
        g_split = {g: _split(g) for g in dict.fromkeys(gs)}
        h_split = {h: _split(h, True) for h in dict.fromkeys(hs)}
        below: dict = {}
        nodes = []
        for g, h in level:
            g_bridge, g_del, g_con = g_split[g]
            h_bridge, h_con, h_del = h_split[h]
            dele = below.setdefault((g_del, h_con), len(below))
            if h_bridge:                                    # quasi-loop
                nodes.append((dele, y_score, None))
            elif g_bridge:
                nodes.append((dele, x_score, None))
            else:                           # a dagger loop is a quasi-bridge
                nodes.append((dele, z_score if h[0] == h[1] else 0,
                              below.setdefault((g_con, h_del), len(below))))
        plan.append(nodes)
        level = below
    tallies = [{0: 1}]
    for nodes in reversed(plan):
        up = []
        for i, score, j in nodes:
            if j is None:
                up.append({k + score: m for k, m in tallies[i].items()})
                continue
            tally = dict(tallies[j])
            get = tally.get
            for k, m in tallies[i].items():
                k += score
                tally[k] = get(k, 0) + m
            up.append(tally)
        tallies = up
    leaves: Counter = Counter()
    for k, m in tallies[0].items():
        x, yz = divmod(k, x_score)
        y, z = divmod(yz, base)
        leaves[2 * x, 2 * y, 2 * z] = m
    return leaves


def _entry_key(g: mg.Multigraph, order) -> str:
    """The flat key of g: the ends of the edges in order, the walk's
    order of decision (so the top edge comes first), each vertex the
    character of its rank in order of first appearance."""
    ends = [v for e in order for v in g.ends[e]]
    rank = dict(zip(dict.fromkeys(ends), range(len(ends))))
    return "".join(map(chr, map(rank.__getitem__, ends)))


def _relabel(key: str) -> str:
    """key with its vertices renamed 0, 1, ... in order of first appearance."""
    return key.translate(dict(zip(map(ord, dict.fromkeys(key)), range(len(key)))))


def _split(key: str, dagger: bool = False) -> tuple[bool, str, str | None]:
    """Whether the top edge of a flat minor key is a bridge, and the
    keys of the two minors it leaves: for a G-minor its deletion, then
    its contraction; for a dagger minor (dagger) its contraction, then
    its deletion, as deleting an edge of G contracts it in H.  A bridge
    of either leaves the deletion branch of G alone, so its second key
    is None.

    The top edge's ends are vertices 0 and 1, or 0 twice for a loop,
    which is no bridge and whose contraction is its deletion.  The
    bridge test runs its own union-find on the key's characters, as it
    is hot (21,345 calls on perfbench's seed-1 recurse pool) and a
    multigraph and its counter would be built for each key.
    """
    rest = key[2:]
    if key[1] == key[0]:
        deleted = _relabel(rest)
        return False, deleted, deleted
    parent = list(range(len(key)))
    ends = map(ord, rest)
    for u, v in zip(ends, ends):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[u] = v
    a, b = 0, 1
    while parent[a] != a:
        a = parent[a]
    while parent[b] != b:
        b = parent[b]
    merged = rest.replace("\x01", "\x00")
    first, second = (merged, rest) if dagger else (rest, merged)
    if a != b:
        return True, _relabel(first), None
    return False, _relabel(first), _relabel(second)


def bollobas_riordan(rs: rb.RotationSystem, cap: int = EXPANSION_CAP) -> MPolynomial:
    """Rank-nullity-genus sum of a ribbon graph."""
    rb.require_pinch_free(rs, "the ribbon polynomial")
    check_cap(len(rs.edges), cap, "subset expansion")
    return _ribbon_from_rows(rs, rb.transfer_tally(rs))


def _ribbon_from_rows(rs: rb.RotationSystem, rows: Mapping) -> MPolynomial:
    """R from a tally of rows that start with |A|, c(A), f(A): the rows
    of transfer_tally and of dual_tally both do."""
    v = len(rs.sectors)
    c_full = mg.components(rs.underlying())
    counts: Counter = Counter()
    for (size, c, f, *_), m in rows.items():
        counts[2 * (c - c_full), 2 * (size - v + c), 2 * (2 * c - v + size - f)] += m
    return assemble("xyz", counts, shifted="x")


def krushkal(emb: em.EmbeddedGraph, cap: int = EXPANSION_CAP) -> MPolynomial:
    """Surface sum over subsets: component drop, complement regions,
    and the half-genera of the neighbourhood (a) and complement (b)."""
    rs, report = emb.rotation, emb.report
    rb.require_pinch_free(rs, "the surface polynomial")
    if report.components != 1:
        raise PolyError("the surface polynomial needs a connected ambient surface")
    check_cap(len(rs.edges), cap, "subset expansion")
    v = len(rs.sectors)
    dagger = emb.scheme.dagger
    c_full = mg.components(rs.underlying())
    counts: Counter = Counter()
    bad = {}
    for row, m in rb.transfer_tally(rs, dagger).items():
        # The complement of the neighbourhood of (V, A): rho(A) regions,
        # f(A) circles shared with the neighbourhood, and Euler
        # characteristic chi(surface) - (v - |A|), as in complement_stats.
        size, c, f, k = row
        ngenus = 2 * c - v + size - f
        genus = 2 * k - f - (report.euler_characteristic - (v - size))
        if genus < 0 or ngenus < 0:
            bad[row] = "negative genus from subset {a}"
        counts[2 * (c - c_full), 2 * (k - 1), ngenus, genus] += m
    if bad:
        raise em.EmbeddingError(_first_subset(
            rs.edges, partial(rb.transfer_tally, rs, dagger), bad))
    return assemble("xyab", counts)


def dichromatic(g: mg.Multigraph, cap: int = EXPANSION_CAP) -> MPolynomial:
    """Component-count sum: x^c(A) y^|A| over edge subsets."""
    check_cap(len(g.edges), cap, "subset expansion")
    counts: Counter = Counter()
    for (size, c, _, _), m in rb.transfer_tally(g).items():
        counts[2 * c, 2 * size] += m
    return assemble("xy", counts)


# ---------------------------------------------------------------------------
# identity suite


# The sample points' coordinates: n/d for |n| < 10 and d <= 3, but 0 and 1.
_POINT_POOL = tuple(sorted({Fraction(n, d) for d in (1, 2, 3)
                            for n in range(-9, 10)} - {0, 1}))


def _points(rng: random.Random, k: int, n: int):
    return [tuple(rng.choice(_POINT_POOL) for _ in range(k)) for _ in range(n)]


def _pointwise(name: str, pts, fn) -> CheckResult:
    for pt in pts:
        lhs, rhs = fn(*pt)
        if lhs != rhs:
            coords = ", ".join(str(v) for v in pt)
            return _bad(name, f"at ({coords}): {lhs} != {rhs}")
    return _ok(name)


def verify_identities(emb: em.EmbeddedGraph, *, seed: int = 11, points: int = 8,
                      cap: int = IDENTITY_CAP) -> list[CheckResult]:
    """Run every polynomial identity that applies to this embedding.

    Identities whose preconditions the input does not meet come back
    as skips, never silently dropped.  All comparisons are exact.
    Each pointwise identity draws points sample points, 1 to
    POINTS_CAP.
    """
    if points < 1:
        raise PolyError(f"the pointwise identities need at least one sample "
                        f"point, not {points}")
    if points > POINTS_CAP:
        raise PolyError(f"the pointwise identities take at most {POINTS_CAP} "
                        f"sample points, not {points}")
    rs = emb.rotation
    check_cap(len(rs.edges), cap, "the identity suite")
    scheme, cellular = emb.scheme, emb.report.cellular

    rng = random.Random(seed)
    out: list[CheckResult] = []

    # One tally of A in G and E - A in H, the dagger graph, gives L_ext
    # and, as its marginals, T(M') = T(G) and T(M) = T(B(H)) = T(H; y, x).
    scheme_rows = rb.transfer_tally(scheme.g, scheme.dagger)
    l_ext = _scheme_from_rows(scheme, scheme_rows)
    mp = em.scheme_perspective(scheme)
    n = len(scheme.g.edges)
    dagger_rows: Counter = Counter()
    for (size, _, _, c_h), m in scheme_rows.items():
        dagger_rows[n - size, c_h] += m
    t_m = _tutte_from_rows(len(scheme.dagger.vertices), dagger_rows, "yx")
    t_mp = _tutte_from_rows(len(scheme.g.vertices), scheme_rows, "xy")

    # Perspective specialisations: the rank walk against the tallies.  A
    # bad rank table fails all three; their points are drawn either way.
    prime_points = _points(rng, 2, points)
    try:
        t_pers = tutte_perspective(mp, "expansion", cap)
        self_b, self_c = (tutte_perspective(mt.MatroidPerspective(m, m), cap=cap)
                          for m in (mp.m, mp.m_prime))
    except PolyError as exc:
        out += [_bad(name, str(exc)) for name in (
            "perspective-self", "perspective-to-m", "perspective-to-m-prime")]
    else:
        if self_b == t_m and self_c == t_mp:
            out.append(_ok("perspective-self"))
        else:
            out.append(_bad("perspective-self",
                            "pair polynomial of (M, M) is not the Tutte polynomial"))
        image = MPolynomial.variable("x") - 1
        if t_pers.substitute("z", image) == t_m:
            out.append(_ok("perspective-to-m"))
        else:
            out.append(_bad("perspective-to-m", "z -> x-1 did not recover M"))
        drop = mp.m.rank() - mp.m_prime.rank()

        def to_m_prime(x0, y0):
            lhs = (y0 - 1) ** drop * t_pers.evaluate(
                {"x": x0, "y": y0, "z": Fraction(1, 1) / (y0 - 1)})
            return lhs, t_mp.evaluate({"x": x0, "y": y0})
        out.append(_pointwise("perspective-to-m-prime", prime_points, to_m_prime))

    # Cellular-only material.
    l_cell = r_poly = None
    gamma = None
    if cellular:
        # One tally serves L, R, lv-tidy and lv-dichromatic.
        rows = rs.dual_tally
        l_cell = _cellular_from_rows(rs, rows)
        r_poly = _ribbon_from_rows(rs, rows)
        gamma = rb.euler_genus(rs)
        if l_cell == l_ext:
            out.append(_ok("lv-extension-matches-cellular"))
        else:
            out.append(_bad("lv-extension-matches-cellular",
                            "scheme expansion differs from the cellular one"))
    else:
        out.append(_skip("lv-extension-matches-cellular",
                         "needs a cellular embedding"))

    if cellular:
        def lv_to_tutte(x0, y0):
            lhs = (y0 - 1) ** gamma * l_cell.evaluate(
                {"x": x0, "y": y0, "z": Fraction(1, 1) / (y0 - 1)})
            return lhs, t_mp.evaluate({"x": x0, "y": y0})

        out.append(_pointwise("lv-to-tutte", _points(rng, 2, points),
                              lv_to_tutte))

        v = len(rs.sectors)
        c_g = mg.components(scheme.g)
        n_dual = mg.nullity(rs.dual.underlying())
        tidy_rows: Counter = Counter()
        comp_rows: Counter = Counter()
        for row, m in rows.items():
            # (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)) z^(g(A)-g*(E-A))
            tidy_rows[(row.c - c_g, row.size - v + row.c,
                       row.genus - row.genus_dual)] += m
            # ((x-1)/z)^c(A) ((y-1)z)^c*(E-A) z^(n(G*)-|A|) / ((x-1)(y-1))^c(G)
            comp_rows[(row.c - c_g, row.c_dual - c_g,
                       n_dual + row.c_dual - row.c - row.size)] += m

        def tidy(x0, y0, z0):
            lhs = (z0 * (y0 - 1)) ** gamma * l_cell.evaluate(
                {"x": x0, "y": y0, "z": 1 / (z0 * z0 * (y0 - 1))})
            return lhs, _power_sum(tidy_rows, (x0 - 1, y0 - 1, Fraction(z0)))

        out.append(_pointwise("lv-tidy", _points(rng, 3, points), tidy))

        def dichro(x0, y0, z0):
            lhs = l_cell.evaluate({"x": x0, "y": y0, "z": z0})
            return lhs, _power_sum(comp_rows, (x0 - 1, y0 - 1, Fraction(z0)))

        out.append(_pointwise("lv-dichromatic", _points(rng, 3, points),
                              dichro))

        def br_at_one(x0, y0):
            lhs = r_poly.evaluate({"x": x0, "y": y0, "z": 1})
            rhs = Fraction(y0) ** gamma * l_cell.evaluate(
                {"x": x0, "y": y0 + 1, "z": Fraction(1, 1) / y0})
            return lhs, rhs

        out.append(_pointwise("br-at-z1", _points(rng, 2, points),
                              br_at_one))
    else:
        for name in ("lv-to-tutte", "lv-tidy", "lv-dichromatic", "br-at-z1"):
            out.append(_skip(name, "needs a cellular embedding"))

    # Surface sum relations.
    k_poly = None
    if not rs.pinch_vertices() and emb.report.components == 1:
        k_poly = krushkal(emb, cap)

    if k_poly is not None and cellular:
        def br_from_k(x0, q, z0):
            lhs = r_poly.evaluate({"x": x0, "y": q * q, "z": z0})
            rhs = Fraction(q) ** gamma * k_poly.evaluate(
                {"x": x0 - 1, "y": q * q, "a": q * q * z0 * z0,
                 "b": 1 / Fraction(q * q)},
                sqrts={"a": q * z0, "b": 1 / Fraction(q)})
            return lhs, rhs

        out.append(_pointwise("br-from-krushkal", _points(rng, 3, points),
                              br_from_k))

        def lv_from_k_cell(x0, y0, w):
            lhs = l_cell.evaluate({"x": x0, "y": y0, "z": w * w})
            rhs = Fraction(w) ** gamma * k_poly.evaluate(
                {"x": x0 - 1, "y": y0 - 1, "a": 1 / Fraction(w * w), "b": w * w},
                sqrts={"a": 1 / Fraction(w), "b": w})
            return lhs, rhs

        out.append(_pointwise("lv-from-krushkal-cellular",
                              _points(rng, 3, points), lv_from_k_cell))
    else:
        why = ("needs a cellular embedding" if k_poly is not None
               else "needs a connected pinch-free surface")
        out.append(_skip("br-from-krushkal", why))
        out.append(_skip("lv-from-krushkal-cellular", why))

    if k_poly is not None:
        stats_full = em.complement_stats(emb, rs.edge_set())
        pre = stats_full.neighborhood_genus - stats_full.euler_genus

        def lv_from_k(x0, y0, w):
            lhs = l_ext.evaluate({"x": x0, "y": y0, "z": w * w})
            rhs = Fraction(w) ** pre * k_poly.evaluate(
                {"x": x0 - 1, "y": y0 - 1, "a": 1 / Fraction(w * w), "b": w * w},
                sqrts={"a": 1 / Fraction(w), "b": w})
            return lhs, rhs

        out.append(_pointwise("lv-from-krushkal",
                              _points(rng, 3, points), lv_from_k))
    else:
        out.append(_skip("lv-from-krushkal",
                         "needs a connected pinch-free surface"))
    return out

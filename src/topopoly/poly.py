"""Polynomials of graphs in surfaces, and their exact identities.

Every polynomial here comes from mpoly.assemble, which checks the
exponent buckets, then expands the binomial powers one shifted
variable at a time over merged keys.  Subset expansions tally one
bucket per edge subset; the delete/contract recursion on an embedding
scheme tallies one monomial per leaf, scored on the path to it.  It
is memoised on its minors, each keyed by one flat string of
relabelled vertices: per depth it splits each distinct minor once,
and it carries each distinct node's tally of the scores above it
forward, on packed int exponent keys, instead of listing the leaves.
It decides the edges in
the breadth-first order that multigraph.frontier_order finds
narrowest on the vertices of G and of the dagger graph, since the
distinct minors at a depth are set by how the decided edges join the
live vertices; the leaf tally does not depend on the order.
Expansion and recursion therefore build byte-equal canonical strings
whenever they agree as polynomials.

The subset expansions read their counts from ribbon.transfer_tally,
the one subset tally, x on A and each cut on E - A: how many subsets
A have each flat row (|A|, c(A)[, f(A)], then per cut c_k(E - A)
[, f_k(E - A)]), f for a rotation system alone.  It decides the edges
one at a time on frontier states, in the order ribbon._edge_order
picks (no row depends on it), instead of visiting the 2^|E| subsets.
Each reader sets up its invariants once and is a key function on
_keyed, the one loop that sums rows into exponent buckets; a genus is
computed where it is read, as 2c - v + |A| - f:

  bollobas_riordan      transfer_tally(rs): c and f; c(E) once
  krushkal              transfer_tally(rs, dagger): c, f and rho(A)
  las_vergnas_cellular  L_ext of the scheme (G, G*), G* from rs.dual;
                        the suite checks its genus form (rs, rs.dual)
  las_vergnas_embedded  transfer_tally(g, cut), cut H or G*: c(A) and
                        c_cut(E - A); c(g), c(cut) and n(cut) once
  tutte, dichromatic    transfer_tally(g): c alone
  verify_identities     emb.tally: each reader above takes its fields

A reader that refuses bad rows runs on _checked, which asks once per
bucket whether it is bad and only then names the first subset, in mask
order, whose row lands in a bad one: _first_subset, which the state
checks share, reruns the pass of the tally that holds the row, on the
layers it built, with edges forced in or out, at most |E| times.

The dual, its dual_tally, the validation report, the scheme and the
embedding's tally are the input's own, made on first use, so one
identities command tallies the subsets once: emb.tally is one frontier
pass with the layers the suite reads, the dagger graph last.  On a
cellular input it is transfer_tally(rs, rs.dual, dagger), whose rows
give L, R, K, L_ext, lv-tidy, lv-dichromatic, the state checks and, as
marginals on (|A|, c(A)) and (|E - A|, c_H(E - A)), T(G) and
T(H; y, x); on a connected pinch-free surface transfer_tally(rs,
dagger), for K, L_ext and the Tutte polynomials; otherwise
transfer_tally(g, dagger), for L_ext and those.
Its one count of the rows (|A|, r(A), r'(A)) over the 2^|E| masks,
matroid.rank_rows, gives the pair polynomial of (M, M') and, as its
marginals, those of (M, M) and (M', M'), each by _perspective_buckets,
which tutte_perspective's expansion calls on its own count.

The routes that check one another stay independent.  The one tally
shares the edge order and the merging of states, but each layer is
built from its own graph: G*'s blocks and circles from rs.dual, which
is traced itself, and H's blocks from the dagger graph of
em.derive_dagger, so the counts on E - A that the cellular expansion
and the scheme and surface expansions read come from independent
constructions; every reader shares the layers of G on A.  The lv
command likewise reads G*'s blocks from rs.dual and lv-ext H's from
em.derive_dagger.  It reads no circle, so a dual that keeps its
underlying graph but not its bands (a twist, say) leaves it alone;
only the suite's genus form sees that.  The rank
walk reads the matroids' rank tables, one byte per mask, filled on
the graphs by multigraph.component_table, and is checked against T(G) and
T(H; y, x), H the dagger graph, from the tally; the recursion tests
its edges on its own flat minor keys, not on tally rows; and the
perspective recursion, on matroid minors and unmemoised, is a test
oracle (tests/oracles.py): tutte_perspective runs by expansion only.

verify_identities cross-checks every relation between the polynomials
on one embedded graph, exactly, and assembles no polynomial.  The two
literal identities compare the buckets of their sides, both kept over
the same basis.  Each of the others substitutes monomials for the
variables: in the bases the buckets are kept in,
(x - 1), (y - 1), z and so on, every substitution maps each bucket's
half-unit exponents to those of one monomial over the identity's own
basis (x0 - 1, y0 - 1, w, ...), whose monomials are independent.  So
the identity holds exactly when both sides sum to the same counts per
exponent tuple: one comparison of two dicts, in C, with no polynomial
product and no sample point.  Every bucket map is a _Counts, a dict
whose counts are all positive, so equal counts are equal dicts; only a
mismatch subtracts one side from the other, to name its first
monomial.  The maps only add and double half-units, never halve them,
so a stray half-power fails the check.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import embedding as em
from . import multigraph as mg
from . import ribbon as rb
from .mpoly import MPolynomial, _power_suffix, assemble

if TYPE_CHECKING:
    from . import matroid as mt

EXPANSION_CAP = 20
IDENTITY_CAP = 16
STATE_SWEEP_CAP = 8


class CapError(ValueError):
    pass


class PolyError(ValueError):
    pass


def check_cap(n_edges: int, cap: int, what: str) -> None:
    if n_edges > cap:
        raise CapError(f"{what} on {n_edges} edges exceeds the cap of {cap}; "
                       f"pass a larger cap to force it")


class CheckResult(NamedTuple):
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
    E - A.  tally(forced=...) is a Tally's rerun; the highest edge id
    is the mask's most significant bit."""
    inside, row = rb.first_witness(tally, edges[::-1], 2, bad)
    return bad[row].format(a=[e for e in edges if inside[e]],
                           rest=[e for e in edges if not inside[e]])


class _Counts(dict):
    """Counts by key, as _keyed sums them; a missing key reads 0, as in
    a Counter, but counting and comparing stay dict operations, in C."""

    def __missing__(self, key):
        return 0


def _keyed(rows: Mapping, key) -> _Counts:
    """The counts of rows summed under key(*row): the one loop that
    turns tally rows, or buckets, into buckets.  Every count of rows is
    positive, so every sum is."""
    counts = _Counts()
    get = counts.get
    for row, m in rows.items():
        k = key(*row)
        counts[k] = get(k, 0) + m
    return counts


def _checked(rows: Mapping, key, edges: tuple[int, ...], bad,
             error: type[ValueError] = PolyError) -> _Counts:
    """_keyed(rows, key), unless bad(*bucket), asked once per bucket,
    gives a message template (see _first_subset) for some bucket: then
    error names the first subset whose row lands in a bad bucket, on
    the reruns of rows, a tally of the subsets of edges."""
    counts = _keyed(rows, key)
    wrong = {k: why for k in counts if (why := bad(*k))}
    if wrong:
        raise error(_first_subset(edges, rows.rerun, {
            row: wrong[k] for row in rows if (k := key(*row)) in wrong}))
    return counts


# ---------------------------------------------------------------------------
# the polynomials


def tutte(g: mg.Multigraph, cap: int = EXPANSION_CAP) -> MPolynomial:
    """Corank-nullity sum of the cycle matroid of g."""
    check_cap(len(g.edges), cap, "Tutte expansion")
    return assemble("xy", _tutte_buckets(len(g.vertices), rb.transfer_tally(g)),
                    shifted="xy")


def _lv_poly(buckets: Mapping) -> MPolynomial:
    """L, L_ext or the pair polynomial from its buckets over
    (x - 1, y - 1, z)."""
    return assemble("xyz", buckets, shifted="xy")


def _tutte_buckets(v: int, rows: Mapping) -> _Counts:
    """The (corank, nullity) buckets of T(C(g)) over (x - 1, y - 1), g
    a graph on v vertices, from rows that start with |A|, c(A), one per
    subset A, so that c(E) is the least c."""
    c_full = min(c for _, c, *_ in rows)
    return _keyed(rows, lambda size, c, *_: (2 * (c - c_full), 2 * (size - v + c)))


def tutte_perspective(mp: mt.MatroidPerspective, *,
                      cap: int = EXPANSION_CAP) -> MPolynomial:
    """Three-variable corank-nullity sum of a matroid pair; z tracks
    how much of the rank drop M' has not yet seen.  It runs by
    expansion only, on the rank rows: the delete/contract recursion on
    matroid minors is a test oracle (tests/oracles.py)."""
    from . import matroid as mt
    check_cap(len(mp.ground), cap, "perspective expansion")
    return _lv_poly(_perspective_buckets(mp, mt.rank_rows(mp.m, mp.m_prime)))


def _perspective_buckets(mp: mt.MatroidPerspective, rows: Mapping) -> _Counts:
    """The buckets of the pair polynomial of mp from rows, a Counter of
    (|A|, r(A), r'(A)) over the masks A in the mask order of first
    sight: the first bad row raises, named by the first mask that
    yields it."""
    t, tp = mp.m.table(), mp.m_prime.table()
    r_full, rp_full = t[-1], tp[-1]

    def key(size, r_a, rp_a):
        return (2 * (rp_full - rp_a), 2 * (size - r_a),
                2 * ((r_full - r_a) - (rp_full - rp_a)))

    counts = _keyed(rows, key)
    if any(min(k) < 0 for k in counts):
        from . import matroid as mt
        a, k = next((a, key(*row)) for a, row in enumerate(
            zip(mt.mask_sizes(len(mp.ground)), t, tp)) if min(key(*row)) < 0)
        what = "rank drop inversion" if k[2] < 0 else "negative exponent"
        raise PolyError(f"{what} on {mg.subset_ids(mp.ground, a)}; "
                        "not a matroid perspective")
    return counts


def las_vergnas_cellular(rs: rb.RotationSystem, method: str = "expansion",
                         cap: int = EXPANSION_CAP) -> MPolynomial:
    """The cellular three-variable polynomial L of a pinch-free rotation
    system: L_ext of the scheme (G, G*), the pair polynomial of the
    matroid perspective B(G*) -> C(G) (Las Vergnas 1978), as L_ext is
    that of B(H) -> C(G) with the dagger graph H in place of the dual.
    Both methods run on that scheme, G* built by rb.dual.  Its genus
    form, with z recording half the genus deficiency, is a theorem the
    identity suite checks (_cellular_buckets)."""
    rb.require_pinch_free(rs, "the cellular polynomial")
    return las_vergnas_embedded(
        em.EmbeddingScheme(rs.underlying(), rs.dual.underlying()), method, cap)


def _cellular_buckets(rs: rb.RotationSystem, rows: Mapping) -> _Counts:
    """The buckets of L in its genus form from rows, a tally of rs cut
    first by rs.dual; a bad row is named on its reruns.  z is 2 gamma
    less the genus split gamma + g(A) - g*(E - A), in half units: an
    odd split, an odd z."""
    v, vd, n = len(rs.sectors), len(rs.dual.sectors), len(rs.edges)
    c_full = mg.components(rs.underlying())
    gamma = rb.euler_genus(rs)

    def key(size, c, f, c_dual, f_dual, *_):
        split = gamma + (2 * c - v + size - f) - (2 * c_dual - vd + n - size - f_dual)
        return 2 * (c - c_full), 2 * (size - v + c - split // 2), 2 * gamma - split

    return _checked(rows, key, rs.edges, lambda x, y, z: (
        "odd genus split on {a}" if z % 2
        else "bad exponents on {a}" if min(y, z) < 0 else None))


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
    return _lv_poly(_scheme_buckets(s, rb.transfer_tally(s.g, s.dagger)))


def _scheme_buckets(s: em.EmbeddingScheme, rows: Mapping) -> _Counts:
    """The buckets of L_ext from rows, a tally of A in s.g and E - A in
    s.dagger, ending in c_H(E - A) = rho(A): _scheme_form per row; a
    bad row is named on its reruns."""
    bucket = _scheme_form(s.g, s.dagger)
    return _checked(rows, lambda size, c, *rest: bucket(size, c, rest[-1]), s.g.edges,
                    lambda *k: "bad exponents on {a}" if min(k) < 0 else None)


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
    tests/corpus.py from Random(5), the walk takes 2.2 ms at 10
    vertices and 24 edges and 7.7 ms at 12 vertices and 30 edges (21 ms
    and 0.12 s deciding the highest id first; 2 vCPUs, Python 3.11).

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
    subtrees, and each is expanded once.  Nodes are expanded one depth
    at a time (every edge decided removes one edge from both minors).
    At each depth every distinct G-minor and every distinct H-minor is
    split once by _split, and a node only pairs the two splits; the
    split caches hold one depth.  A bridge of either minor leaves one
    branch, so its split builds no key for the other.

    The walk runs forward, like ribbon's tallies over frontier states:
    each node carries the tally of the scores on the paths to it from
    the root, whose tally is {0: 1}, and each child adds its parent's
    tally, shifted by the branch's score, into its own (_add).  A tally
    is keyed by one packed int (x (n+1) + y) (n+1) + z in whole units:
    every leaf has x + y + z <= n = |E|, so no digit carries, and the
    shift adds one int to each key.  Only two depths are held; the one
    node left once every edge is decided holds the leaf tally, unpacked
    to half-unit triples.  No Python recursion grows with |E|.  On the
    4 x 4 torus grid (tests/corpus.py's torus_grid, 32 edges) the walk
    takes 0.22 s and peaks at 4.3 MB under tracemalloc.
    """
    at = mg.incidences(s.g)
    order = mg.frontier_order(s.g, at, [*at.values(),
                                        *mg.incidences(s.dagger).values()])
    base = len(order) + 1
    x_score, y_score, z_score = base * base, base, 1
    level = {(_entry_key(s.g, order), _entry_key(s.dagger, order)): {0: 1}}
    for _ in order:
        gs, hs = zip(*level)
        g_split = {g: _split(g) for g in dict.fromkeys(gs)}
        h_split = {h: _split(h, True) for h in dict.fromkeys(hs)}
        below: dict = {}
        owned: set = set()      # the children whose dict is their own
        for (g, h), tally in level.items():
            g_bridge, g_del, g_con = g_split[g]
            h_bridge, h_con, h_del = h_split[h]
            if h_bridge:                                    # quasi-loop
                _add(below, owned, (g_del, h_con), tally, y_score)
            elif g_bridge:
                _add(below, owned, (g_del, h_con), tally, x_score)
            else:                           # a dagger loop is a quasi-bridge
                _add(below, owned, (g_del, h_con), tally, z_score if h[0] == h[1] else 0)
                _add(below, owned, (g_con, h_del), tally, 0)
        level = below
    (tally,) = level.values()
    return Counter({(2 * (k // x_score), 2 * (k // base % base), 2 * (k % base)): m
                    for k, m in tally.items()})


def _add(below: dict, owned: set, child, tally: dict, score: int) -> None:
    """Add tally, shifted by score, into the tally of child in below.  A
    child reached by an unscored branch shares its parent's dict until a
    second parent merges into it; only then is the dict copied (owned
    names the children whose dict is their own)."""
    into = below.get(child)
    if into is None:
        if score:
            below[child] = {k + score: m for k, m in tally.items()}
            owned.add(child)
        else:
            below[child] = tally
        return
    if child not in owned:
        below[child] = into = dict(into)
        owned.add(child)
    get = into.get
    for k, m in tally.items():
        k += score
        into[k] = get(k, 0) + m


def _entry_key(g: mg.Multigraph, order) -> str:
    """The flat key of g: the ends of the edges in order, the walk's
    order of decision (so the top edge comes first), each vertex the
    character of its rank in order of first appearance."""
    ends = [v for e in order for v in g.ends[e]]
    rank = dict(zip(dict.fromkeys(ends), range(len(ends))))
    return "".join(map(chr, map(rank.__getitem__, ends)))


# The first 256 labels as one string, for str.maketrans; a key with
# more distinct vertices is renamed through a dict.
_LABELS = "".join(map(chr, range(256)))


def _relabel(key: str) -> str:
    """key with its vertices renamed 0, 1, ... in order of first
    appearance; key itself when they already are."""
    seen = "".join(dict.fromkeys(key))
    labels = _LABELS[:len(seen)]
    if seen == labels:
        return key
    if len(seen) <= len(_LABELS):
        return key.translate(str.maketrans(seen, labels))
    return key.translate(dict(zip(map(ord, seen), range(len(seen)))))


def _split(key: str, dagger: bool = False) -> tuple[bool, str, str | None]:
    """Whether the top edge of a flat minor key is a bridge, and the
    keys of the two minors it leaves: for a G-minor its deletion, then
    its contraction; for a dagger minor (dagger) its contraction, then
    its deletion, as deleting an edge of G contracts it in H.  A bridge
    of either leaves the deletion branch of G alone, so its second key
    is None.

    The top edge's ends are vertices 0 and 1, or 0 twice for a loop,
    which is no bridge and whose contraction is its deletion.  An edge
    one of whose ends no other edge meets is a bridge.  Otherwise the
    bridge test runs its own union-find on the key's characters, as it
    is hot (21,345 calls on perfbench's seed-1 recurse pool) and a
    multigraph and its counter would be built for each key.
    """
    rest = key[2:]
    if key[1] == key[0]:
        deleted = _relabel(rest)
        return False, deleted, deleted
    merged = rest.replace("\x01", "\x00")
    first, second = (merged, rest) if dagger else (rest, merged)
    if "\x00" not in rest or "\x01" not in rest:
        return True, _relabel(first), None
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
    if a != b:
        return True, _relabel(first), None
    return False, _relabel(first), _relabel(second)


def bollobas_riordan(rs: rb.RotationSystem, cap: int = EXPANSION_CAP) -> MPolynomial:
    """Rank-nullity-genus sum of a ribbon graph."""
    rb.require_pinch_free(rs, "the ribbon polynomial")
    check_cap(len(rs.edges), cap, "subset expansion")
    return assemble("xyz", _ribbon_buckets(rs, rb.transfer_tally(rs)), shifted="x")


def _ribbon_buckets(rs: rb.RotationSystem, rows: Mapping) -> _Counts:
    """The buckets of R over (x - 1, y, z) from a tally of rows that
    start with |A|, c(A), f(A), as transfer_tally's do when x is a
    rotation system."""
    v = len(rs.sectors)
    c_full = mg.components(rs.underlying())
    return _keyed(rows, lambda size, c, f, *_: (
        2 * (c - c_full), 2 * (size - v + c), 2 * (2 * c - v + size - f)))


def krushkal(emb: em.EmbeddedGraph, cap: int = EXPANSION_CAP) -> MPolynomial:
    """Surface sum over subsets: component drop, complement regions,
    and the half-genera of the neighbourhood (a) and complement (b)."""
    rs, report = emb.rotation, emb.report
    rb.require_pinch_free(rs, "the surface polynomial")
    if report.components != 1:
        raise PolyError("the surface polynomial needs a connected ambient surface")
    check_cap(len(rs.edges), cap, "subset expansion")
    return assemble("xyab", _krushkal_buckets(
        emb, rb.transfer_tally(rs, emb.scheme.dagger)))


def _krushkal_buckets(emb: em.EmbeddedGraph, rows: Mapping) -> _Counts:
    """The buckets of K over (x, y, a, b), from rows, a tally of A in
    G, with f(A), and E - A in the dagger graph, ending in rho(A)."""
    rs, chi = emb.rotation, emb.report.euler_characteristic
    v = len(rs.sectors)
    c_full = mg.components(rs.underlying())

    def key(size, c, f, *rest):
        # The complement of the neighbourhood of (V, A): rho(A) regions,
        # f(A) circles shared with the neighbourhood, and Euler
        # characteristic chi(surface) - (v - |A|), as in complement_stats.
        return (2 * (c - c_full), 2 * (rest[-1] - 1), 2 * c - v + size - f,
                2 * rest[-1] - f - (chi - (v - size)))

    return _checked(rows, key, rs.edges, lambda x, y, a, b: (
        "negative genus from subset {a}" if min(a, b) < 0 else None),
        em.EmbeddingError)


def dichromatic(g: mg.Multigraph, cap: int = EXPANSION_CAP) -> MPolynomial:
    """Component-count sum: x^c(A) y^|A| over edge subsets."""
    check_cap(len(g.edges), cap, "subset expansion")
    return assemble("xy", _keyed(rb.transfer_tally(g),
                                 lambda size, c, *_: (2 * c, 2 * size)))


# ---------------------------------------------------------------------------
# identity suite


def _tidy_buckets(rs: rb.RotationSystem, rows: Mapping) -> _Counts:
    """The right side of lv-tidy over (x0 - 1, y0 - 1, z0), from rows,
    a tally of rs cut first by rs.dual: (x0-1)^(r(E)-r(A))
    (y0-1)^(|A|-r(A)) z0^(g(A)-g*(E-A)) per row."""
    v, vd, n = len(rs.sectors), len(rs.dual.sectors), len(rs.edges)
    c_g = mg.components(rs.underlying())
    return _keyed(rows, lambda size, c, f, c_dual, f_dual, *_: (
        2 * (c - c_g), 2 * (size - v + c),
        2 * ((2 * c - v + size - f) - (2 * c_dual - vd + n - size - f_dual))))


def _scheme_form(g: mg.Multigraph, cut: mg.Multigraph):
    """The bucket over (x - 1, y - 1, z) of a subset A in the pair
    polynomial of B(cut) -> C(g), as a function of |A|, c(A) and
    c_cut(E - A): the corank c(A) - c(g), the nullity
    c_cut(E - A) - c(cut) and the rank drop
    n(cut) - |A| + c_cut(E - A) - c(cut) - (c(A) - c(g)).  With the
    dual as cut it is the component form of L,
    ((x-1)/z)^c(A) ((y-1) z)^c*(E-A) z^(n(G*)-|A|) / ((x-1)(y-1))^c(G)."""
    c_g, c_cut, n_cut = mg.components(g), mg.components(cut), mg.nullity(cut)

    def bucket(size, c, c_rest):
        return (2 * (c - c_g), 2 * (c_rest - c_cut),
                2 * (n_cut - size + c_rest - c_cut - c + c_g))

    return bucket


def _component_buckets(rs: rb.RotationSystem, rows: Mapping) -> _Counts:
    """The right side of lv-dichromatic over (x0 - 1, y0 - 1, z0), from
    rows, a tally of rs cut first by rs.dual: _scheme_form of G cut by
    G* per row, with no check of its exponents, so a bad dual fails."""
    bucket = _scheme_form(rs.underlying(), rs.dual.underlying())
    return _keyed(rows, lambda size, c, f, c_dual, *_: bucket(size, c, c_dual))


def _first_difference(lhs: Mapping, rhs: Mapping):
    """(key, count): the first key, in sorted order, with a nonzero count
    in lhs - rhs, or None when the counts agree.  Equal maps agree, so
    two _Counts are compared as dicts first, in C; with no zero count,
    unequal ones differ somewhere, found by subtracting."""
    if lhs == rhs:
        return None
    diff = Counter(lhs)
    diff.subtract(rhs)
    first = min((key for key, c in diff.items() if c), default=None)
    return None if first is None else (first, diff[first])


def _exact(name: str, basis: tuple[str, ...], lhs: Mapping,
           rhs: Mapping) -> CheckResult:
    """Check lhs = rhs, both sides given as counts of half-unit exponent
    tuples over basis, whose monomials are independent, so the sides
    agree exactly when the counts do.  A failure names the first
    monomial, in sorted order, with a nonzero coefficient in lhs - rhs."""
    found = _first_difference(lhs, rhs)
    if found is None:
        return _ok(name)
    first, count = found
    mono = " ".join(v + _power_suffix(h) for v, h in zip(basis, first) if h)
    return _bad(name, f"{mono or '1'} has coefficient {count} in lhs - rhs")


_XY0 = ("(x0-1)", "(y0-1)")


def verify_identities(emb: em.EmbeddedGraph, *,
                      cap: int = IDENTITY_CAP) -> list[CheckResult]:
    """Run every polynomial identity that applies to this embedding.

    Identities whose preconditions the input does not meet come back
    as skips, never silently dropped.  All comparisons are exact and on
    bucket counts: the two literal identities compare the buckets of
    their sides, and each substitution identity maps the buckets of both
    sides to half-unit exponents over its own basis and compares the
    counts (_exact).
    """
    from . import matroid as mt
    rs = emb.rotation
    check_cap(len(rs.edges), cap, "the identity suite")
    scheme, cellular = emb.scheme, emb.report.cellular
    out: list[CheckResult] = []

    # The embedding's one tally of A in G and E - A in H, the dagger
    # graph, and on a cellular surface E - A in G*, gives every
    # polynomial below: L_ext and, as its marginals, T(M') = T(G) and
    # T(M) = T(B(H)) = T(H; y, x), whose buckets are keyed (y, x).
    rows = emb.tally
    l_ext = _scheme_buckets(scheme, rows)
    mp = em.scheme_perspective(scheme)
    n = len(rs.edges)
    t_m = _tutte_buckets(len(scheme.dagger.vertices),
                         _keyed(rows, lambda size, *rest: (n - size, rest[-1])))
    t_mp = _tutte_buckets(len(scheme.g.vertices), rows)

    # Perspective specialisations: the rank walk against the tallies.  One
    # count of the masks gives (M, M') and, as its marginals, (M, M) and
    # (M', M').  A bad rank table fails all three.
    rank_rows = mt.rank_rows(mp.m, mp.m_prime)
    self_rows = (_keyed(rank_rows, lambda size, r_a, rp_a: (size, r_a, r_a)),
                 _keyed(rank_rows, lambda size, r_a, rp_a: (size, rp_a, rp_a)))
    try:
        pair = _perspective_buckets(mp, rank_rows)
        self_b, self_c = (_perspective_buckets(mt.MatroidPerspective(x, x), rows)
                          for x, rows in zip((mp.m, mp.m_prime), self_rows))
    except PolyError as exc:
        out += [_bad(name, str(exc)) for name in (
            "perspective-self", "perspective-to-m", "perspective-to-m-prime")]
    else:
        # T(M, M; x, y, z) = T(M; x, y) = T(H; y, x), and likewise for M'.
        # Both sides are _Counts, so == compares them as dicts, in C.
        same = (self_b == _keyed(t_m, lambda y, x: (x, y, 0))
                and self_c == _keyed(t_mp, lambda x, y: (x, y, 0)))
        out.append(_ok("perspective-self") if same else _bad(
            "perspective-self", "pair polynomial of (M, M) is not the Tutte polynomial"))
        # T(M, M'; x, y, x - 1) = T(M; x, y)
        out.append(_exact("perspective-to-m", ("(x-1)", "(y-1)"),
                          _keyed(pair, lambda x, y, z: (x + z, y)),
                          _keyed(t_m, lambda y, x: (x, y))))
        drop = 2 * (mp.m.rank() - mp.m_prime.rank())
        # (y0 - 1)^drop T(M, M'; x0, y0, 1/(y0 - 1)) = T(M'; x0, y0)
        out.append(_exact("perspective-to-m-prime", _XY0,
                          _keyed(pair, lambda x, y, z: (x, y - z + drop)), t_mp))

    # Cellular-only material.
    if cellular:
        l_cell = _cellular_buckets(rs, rows)
        r_buckets = _ribbon_buckets(rs, rows)
        gamma = 2 * rb.euler_genus(rs)          # in half-units
        out.append(_ok("lv-extension-matches-cellular") if l_cell == l_ext else _bad(
            "lv-extension-matches-cellular",
            "scheme expansion differs from the cellular one"))
        # (y0 - 1)^gamma L(x0, y0, 1/(y0 - 1)) = T(M'; x0, y0)
        l_at = _keyed(l_cell, lambda x, y, z: (x, y - z + gamma))
        out.append(_exact("lv-to-tutte", _XY0, l_at, t_mp))
        # (z0 (y0 - 1))^gamma L(x0, y0, 1/(z0^2 (y0 - 1)))
        out.append(_exact("lv-tidy", (*_XY0, "z0"),
                          _keyed(l_cell, lambda x, y, z: (x, y - z + gamma,
                                                          gamma - 2 * z)),
                          _tidy_buckets(rs, rows)))
        # L(x0, y0, z0) = its sum over the components of A and of E - A in G*
        out.append(_exact("lv-dichromatic", (*_XY0, "z0"), l_cell,
                          _component_buckets(rs, rows)))
        # R(x0, y0, 1) = y0^gamma L(x0, y0 + 1, 1/y0)
        out.append(_exact("br-at-z1", ("(x0-1)", "y0"),
                          _keyed(r_buckets, lambda x, y, z: (x, y)), l_at))
    else:
        for name in ("lv-extension-matches-cellular", "lv-to-tutte", "lv-tidy",
                     "lv-dichromatic", "br-at-z1"):
            out.append(_skip(name, "needs a cellular embedding"))

    # Surface sum relations.
    k_buckets = None
    if not rs.pinch_vertices() and emb.report.components == 1:
        k_buckets = _krushkal_buckets(emb, rows)

    if k_buckets is not None and cellular:
        # R(x0, q^2, z0) = q^gamma K(x0 - 1, q^2, (q z0)^2, 1/q^2)
        out.append(_exact(
            "br-from-krushkal", ("(x0-1)", "q", "z0"),
            _keyed(r_buckets, lambda x, y, z: (x, 2 * y, z)),
            _keyed(k_buckets,
                   lambda x, y, a, b: (x, 2 * (y + a - b) + gamma, 2 * a))))
        # L(x0, y0, w^2) = w^gamma K(x0 - 1, y0 - 1, 1/w^2, w^2)
        out.append(_exact(
            "lv-from-krushkal-cellular", (*_XY0, "w"),
            _keyed(l_cell, lambda x, y, z: (x, y, 2 * z)),
            _keyed(k_buckets, lambda x, y, a, b: (x, y, gamma + 2 * (b - a)))))
    else:
        why = ("needs a cellular embedding" if k_buckets is not None
               else "needs a connected pinch-free surface")
        out += [_skip(name, why) for name in ("br-from-krushkal",
                                               "lv-from-krushkal-cellular")]

    if k_buckets is not None:
        stats_full = em.complement_stats(emb, rs.edge_set())
        pre = 2 * (stats_full.neighborhood_genus - stats_full.euler_genus)
        # L_ext(x0, y0, w^2) = w^pre K(x0 - 1, y0 - 1, 1/w^2, w^2)
        out.append(_exact(
            "lv-from-krushkal", (*_XY0, "w"),
            _keyed(l_ext, lambda x, y, z: (x, y, 2 * z)),
            _keyed(k_buckets, lambda x, y, a, b: (x, y, pre + 2 * (b - a)))))
    else:
        out.append(_skip("lv-from-krushkal",
                         "needs a connected pinch-free surface"))
    return out

"""The polynomials: frozen small values, route agreement, relations."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import corpus
import golden
import oracles
import sweeps
from topopoly import cli
from topopoly import embedding as em
from topopoly import fileformat as ff
from topopoly import matroid as mt
from topopoly import mpoly
from topopoly import multigraph as mg
from topopoly import poly
from topopoly import ribbon as rb
from topopoly.mpoly import MPolynomial

F = Fraction


def triangle():
    return mg.Multigraph((0, 1, 2), {1: (0, 1), 2: (1, 2), 3: (0, 2)})


def rank_walk_tutte(m: mt.RankMatroid):
    """T(M) as the perspective expansion of (M, M): the rank walk, a
    route that shares no tally with the expansions it is checked against."""
    return poly.tutte_perspective(mt.MatroidPerspective(m, m))


def swapped_tutte(g: mg.Multigraph):
    """T(g; y, x), the Tutte polynomial of the bond matroid of g: the
    buckets of T(g) read in the (corank, nullity) variables y, x."""
    return mpoly.assemble("yx", poly._tutte_buckets(len(g.vertices),
                                                    rb.transfer_tally(g)),
                          shifted="xy")


# ---------------------------------------------------------------------------
# Tutte


def test_tutte_triangle_counts():
    t = poly.tutte(triangle())
    assert str(t) == "y + x + x^2"
    ev = lambda x0, y0: t.evaluate({"x": F(x0), "y": F(y0)})
    assert ev(1, 1) == 3   # spanning trees
    assert ev(2, 1) == 7   # forests
    assert ev(1, 2) == 4   # connected spanning subgraphs
    assert ev(2, 2) == 8   # all subsets


def test_tutte_respects_duality():
    # The plane dual of the triangle is three parallel edges, and the
    # swapped form of either graph is the Tutte polynomial of its bonds.
    g = triangle()
    dual = mg.Multigraph((0, 1), {1: (0, 1), 2: (0, 1), 3: (0, 1)})
    t = poly.tutte(g)
    td = poly.tutte(dual)
    for x0, y0 in ((2, 3), (-1, 2), (5, -2)):
        assert (t.evaluate({"x": F(x0), "y": F(y0)})
                == td.evaluate({"x": F(y0), "y": F(x0)}))
    assert swapped_tutte(g) == td
    assert swapped_tutte(dual) == t
    bonds = mt.bond_matroid(g)
    assert td == poly.tutte_perspective(mt.make_perspective(bonds, bonds))


def test_dichromatic_vs_tutte():
    for g in (triangle(), corpus.plane_loop().underlying(),
              mg.Multigraph((0, 1, 2), {1: (0, 1)})):  # disconnected too
        z = poly.dichromatic(g)
        t = rank_walk_tutte(mt.cycle_matroid(g))
        assert poly.tutte(g) == t
        c = mg.components(g)
        r = mg.rank(g)
        for x0, y0 in ((F(2), F(3)), (F(1, 2), F(5)), (F(-3), F(2))):
            lhs = z.evaluate({"x": x0, "y": y0})
            rhs = (x0 ** c) * (y0 ** r) * t.evaluate(
                {"x": x0 / y0 + 1, "y": y0 + 1})
            assert lhs == rhs


def _corpus_schemes():
    for emb in corpus.main_corpus():
        yield em.derive_dagger(emb)
    for rs in corpus.cellular_corpus():
        yield em.derive_dagger(em.with_disc_regions(rs))


def test_tally_tutte_matches_rank_walk_on_corpora():
    # T(G) from the tally is the rank walk of (C(G), C(G)), and the
    # dagger graph's swapped form is the rank walk of (B(H), B(H)).
    for scheme in _corpus_schemes():
        cycles = mt.cycle_matroid(scheme.g)
        bonds = mt.bond_matroid(scheme.dagger)
        assert str(poly.tutte(scheme.g)) == str(rank_walk_tutte(cycles))
        assert str(swapped_tutte(scheme.dagger)) == str(rank_walk_tutte(bonds))


# ---------------------------------------------------------------------------
# perspectives


def _theta_perspective():
    emb = em.with_disc_regions(corpus.theta_torus())
    return em.scheme_perspective(em.derive_dagger(emb))


def test_perspective_expansion_matches_recursion():
    mp = _theta_perspective()
    assert poly.tutte_perspective(mp) == oracles.perspective_recursion(mp)


def test_perspective_self_is_tutte():
    m = mt.cycle_matroid(triangle())
    mp = mt.make_perspective(m, m)
    assert poly.tutte_perspective(mp) == poly.tutte(triangle())


def test_perspective_specializes_to_both_ends():
    scheme = em.derive_dagger(em.with_disc_regions(corpus.theta_torus()))
    mp = em.scheme_perspective(scheme)
    t = poly.tutte_perspective(mp)
    # z -> x-1 recovers the source matroid's polynomial: M = B(H) has
    # T(M; x, y) = T(H; y, x), H the dagger graph
    x = MPolynomial.variable("x")
    t_m = swapped_tutte(scheme.dagger)
    assert t.substitute("z", x - MPolynomial.one()) == t_m
    # scaled evaluation at z = 1/(y-1) recovers the target's, M' = C(G)
    tp = poly.tutte(scheme.g)
    drop = mp.m.rank() - mp.m_prime.rank()
    for x0, y0 in ((F(2), F(3)), (F(-1), F(4)), (F(3), F(1, 2))):
        lhs = ((y0 - 1) ** drop) * t.evaluate(
            {"x": x0, "y": y0, "z": 1 / (y0 - 1)})
        assert lhs == tp.evaluate({"x": x0, "y": y0})


# ---------------------------------------------------------------------------
# the cellular polynomial


THETA_L = "1 + 3z + 2z^2 + xz^2"


def test_theta_value_four_routes():
    theta = corpus.theta_torus()
    emb = em.with_disc_regions(theta)
    mp = em.scheme_perspective(em.derive_dagger(emb))
    routes = (
        poly.las_vergnas_cellular(theta, "expansion"),
        poly.las_vergnas_embedded(emb, "expansion"),
        poly.las_vergnas_embedded(emb, "recursion"),
        poly.tutte_perspective(mp),
    )
    assert all(str(r) == THETA_L for r in routes)


def test_torus_loop_value():
    emb = corpus.torus_loop_annulus()
    assert str(poly.las_vergnas_embedded(emb, "expansion")) == "1 + z"
    assert str(poly.las_vergnas_embedded(emb, "recursion")) == "1 + z"


def test_cellular_routes_agree_on_corpus():
    for rs in corpus.cellular_corpus():
        a = poly.las_vergnas_cellular(rs, "expansion")
        b = poly.las_vergnas_cellular(rs, "recursion")
        c = poly.las_vergnas_embedded(em.with_disc_regions(rs), "expansion")
        # A given cellular embedding, its regions numbered otherwise.
        f = rb.trace_boundary(rs).f
        emb = em.EmbeddedGraph(rs, {k: 2 * (f - k) for k in range(f)},
                               {2 * (f - k): 0 for k in range(f)})
        d = poly.las_vergnas_embedded(emb, "recursion")
        assert str(a) == str(b) == str(c) == str(d)


def _genus_form(rs: rb.RotationSystem) -> Counter:
    """The buckets of L in its genus form, on the dual tally of rs: the
    identity suite's reading; the lv command reads the component form."""
    return poly._cellular_buckets(rs, rs.dual_tally)


@settings(max_examples=150, deadline=None)
@given(hst.integers(min_value=0), hst.integers(min_value=1, max_value=5),
       hst.integers(min_value=0, max_value=8), hst.integers(min_value=0, max_value=2),
       hst.booleans())
def test_lv_reads_the_genus_form_off_component_counts(seed, n_vertices, n_edges,
                                                      isolated, signed):
    # The command's L, the pair polynomial of B(G*) -> C(G) on the
    # components of A in G and of E - A in G*, is the genus form on
    # random pinch-free systems: disconnected ones, with isolated
    # vertices added, and with twisted bands when signed.
    rs = corpus.random_rotation(random.Random(seed), n_vertices, n_edges,
                                allow_pinch=False, signed=signed)
    rs = rb.RotationSystem({**rs.sectors, **{n_vertices + k: ((),)
                                             for k in range(isolated)}}, rs.signs)
    assert str(poly.las_vergnas_cellular(rs)) == str(poly._lv_poly(_genus_form(rs)))


def test_lv_reads_the_genus_form_past_the_cap():
    # The first connected pinch-free 24-edge draw of Random(5), past the
    # default cap.
    rng = random.Random(5)
    while True:
        rs = corpus.random_rotation(rng, 10, 24)
        if mg.components(rs.underlying()) == 1 and not rs.pinch_vertices():
            break
    assert (str(poly.las_vergnas_cellular(rs, cap=24))
            == str(poly._lv_poly(_genus_form(rs))))


def test_plane_cellular_polynomial_is_tutte():
    for rs in corpus.cellular_corpus():
        if rb.euler_genus(rs) != 0:
            continue
        assert (poly.las_vergnas_cellular(rs, "expansion")
                == rank_walk_tutte(mt.cycle_matroid(rs.underlying())))


def test_cellular_polynomial_rejects_pinches_by_either_method():
    rs = corpus.pinched_spheres().rotation
    for method in ("expansion", "recursion"):
        with pytest.raises(rb.RibbonError):
            poly.las_vergnas_cellular(rs, method)


def test_embedded_recursion_matches_expansion_non_cellular():
    for emb in (corpus.torus_loop_annulus(), corpus.digon_torus_annulus(),
                corpus.pinched_spheres()):
        assert (poly.las_vergnas_embedded(emb, "expansion")
                == poly.las_vergnas_embedded(emb, "recursion"))


def _scheme_leaves_on_minors(s, x=0, y=0, z=0):
    """Reference for poly._scheme_leaves: the same walk on materialised
    scheme minors, testing bridges and dagger loops on each minor."""
    if not s.g.edges:
        yield x, y, z
        return
    e = max(s.g.edges)
    dele = em.delete_edge(s, e)
    if mg.is_bridge(s.dagger, e):                # quasi-loop
        yield from _scheme_leaves_on_minors(dele, x, y + 2, z)
    elif mg.is_bridge(s.g, e):
        yield from _scheme_leaves_on_minors(dele, x + 2, y, z)
    else:                                        # a dagger loop is a quasi-bridge
        yield from _scheme_leaves_on_minors(dele, x, y, z + 2 * s.dagger.is_loop(e))
        yield from _scheme_leaves_on_minors(em.contract_edge(s, e), x, y, z)


def _pinched_with_high_ids(seed: int = 300, count: int = 8):
    """Seeded pinched embeddings whose vertex and region ids are 300 and
    above, in shuffled order, so the walk's relabelling on entry has
    labels to rename."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rs = corpus.random_rotation(rng, rng.randint(2, 5), rng.randint(4, 9))
        if not rs.pinch_vertices():
            continue
        emb = corpus.close_random(rng, rs)
        vid = dict(zip(rs.sectors, rng.sample(range(300, 400), len(rs.sectors))))
        rid = dict(zip(emb.region_genus,
                       rng.sample(range(300, 400), len(emb.region_genus))))
        high = rb.RotationSystem({vid[v]: secs for v, secs in rs.sectors.items()},
                                 rs.signs)
        out.append(em.EmbeddedGraph(high, {c: rid[r] for c, r in emb.regions.items()},
                                    {rid[r]: g for r, g in emb.region_genus.items()}))
    return out


def test_scheme_memo_matches_minors():
    pool = corpus.main_corpus()
    pool += [em.with_disc_regions(rs) for rs in corpus.cellular_corpus()]
    high = _pinched_with_high_ids()
    assert all(min(s.g.vertices + s.dagger.vertices) >= 300
               for s in map(em.derive_dagger, high))
    for emb in pool + high:
        s = em.derive_dagger(emb)
        assert Counter(poly._scheme_leaves(s)) == Counter(_scheme_leaves_on_minors(s))
    assert len(pool) == 254


def _flat(g: mg.Multigraph, order) -> tuple:
    """The ends of g's edges in order, vertices renamed 0, 1, ... in
    order of first appearance."""
    ends = [v for e in order for v in g.ends[e]]
    rank: dict = {}
    return tuple(rank.setdefault(v, len(rank)) for v in ends)


def _minors_per_depth(s, order):
    """Per depth of the scheme walk deciding the edges in order, the node
    count and the distinct G-minors and H-minors as _flat tuples; the
    nodes come from the materialised minors of the reference walk,
    merged on equal minors."""
    level = {(_flat(s.g, order), _flat(s.dagger, order)): s}
    out = []
    for t, e in enumerate(order):
        out.append((len(level), {g for g, _ in level}, {h for _, h in level}))
        rest = order[t + 1:]
        below: dict = {}
        for node in level.values():
            kids = [em.delete_edge(node, e)]
            if not (mg.is_bridge(node.dagger, e) or mg.is_bridge(node.g, e)):
                kids.append(em.contract_edge(node, e))
            for kid in kids:
                below.setdefault((_flat(kid.g, rest), _flat(kid.dagger, rest)), kid)
        level = below
    return out


def _count_splits(monkeypatch) -> Counter:
    """Count poly._split calls per key, as tuples of relabelled vertices."""
    calls: Counter = Counter()
    real = poly._split

    def split(key, *args):
        calls[tuple(map(ord, key))] += 1
        return real(key, *args)

    monkeypatch.setattr(poly, "_split", split)
    return calls


def test_scheme_recursion_splits_each_minor_once(monkeypatch):
    # One split per distinct (depth, G-minor) and per distinct (depth,
    # H-minor), however many nodes share it.  A key's characters are its
    # relabelled vertices, two per edge; its length gives its depth.
    calls = _count_splits(monkeypatch)
    orders = []
    real_order = mg.frontier_order

    def frontier_order(*args):
        orders.append(real_order(*args))
        return orders[-1]

    monkeypatch.setattr(mg, "frontier_order", frontier_order)
    shared_g = shared_h = False
    for emb in corpus.main_corpus():
        if len(emb.rotation.edges) != 10:
            continue
        s = em.derive_dagger(emb)
        calls.clear()
        orders.clear()
        leaves = poly._scheme_leaves(s)
        (order,) = orders
        want: Counter = Counter()
        for nodes, gs, hs in _minors_per_depth(s, order):
            want.update(gs)
            want.update(hs)
            shared_g |= nodes > len(gs)
            shared_h |= nodes > len(hs)
        assert calls == want
        assert leaves == Counter(_scheme_leaves_on_minors(s))
    # Nodes share minors on both sides: a split per node would be caught.
    assert shared_g and shared_h


def test_scheme_order_splits_no_more_than_highest_id_first(monkeypatch):
    # Summed over both corpora, the measured order splits fewer minors
    # than deciding the highest edge id first, with the same leaves.
    calls = _count_splits(monkeypatch)
    schemes = [em.derive_dagger(emb) for emb in corpus.main_corpus()]
    schemes += [em.derive_dagger(em.with_disc_regions(rs))
                for rs in corpus.cellular_corpus()]
    chosen = [poly._scheme_leaves(s) for s in schemes]
    narrow = sum(calls.values())
    calls.clear()
    monkeypatch.setattr(mg, "frontier_order",
                        lambda g, at, tracked: list(g.edges[::-1]))
    assert [poly._scheme_leaves(s) for s in schemes] == chosen
    assert narrow < sum(calls.values())


def _renamed(labels) -> list[int]:
    """labels renamed 0, 1, ... in order of first appearance."""
    rank: dict = {}
    return [rank.setdefault(v, len(rank)) for v in labels]


def _text(labels) -> str:
    return "".join(map(chr, labels))


_st_labels = hst.one_of(
    hst.lists(hst.integers(0, 30)),                            # repeats
    hst.lists(hst.integers(0, 30)).map(_renamed),              # already canonical
    hst.lists(hst.integers(0, 1300), min_size=257, max_size=400),
    hst.permutations(range(300)),                              # 300 labels
    hst.integers(257, 1300).map(lambda n: list(range(n))),     # canonical, past 256
)


@settings(max_examples=100, deadline=None)
@given(labels=_st_labels)
def test_relabel_renames_in_order_of_first_appearance(labels):
    # Canonical keys come back as they are; more than 256 distinct
    # labels take the dict path past the translation table.
    assert poly._relabel(_text(labels)) == _text(_renamed(labels))


def _split_reference(labels, dagger):
    """poly._split on a key given as labels, by a plain union-find over
    the other edges: whether the top edge joins two classes, then the
    deletion and contraction keys, renamed."""
    u, v, *rest = labels
    deleted = _text(_renamed(rest))
    if u == v:
        return False, deleted, deleted
    contracted = _text(_renamed([u if w == v else w for w in rest]))
    parent = {}

    def find(w):
        while parent.get(w, w) != w:
            w = parent[w]
        return w

    for a, b in zip(rest[::2], rest[1::2]):
        parent[find(a)] = find(b)
    bridge = find(u) != find(v)
    first, second = (contracted, deleted) if dagger else (deleted, contracted)
    return bridge, first, None if bridge else second


@settings(max_examples=300, deadline=None)
@given(top=hst.sampled_from([(0, 0), (0, 1)]),
       rest=hst.one_of(hst.lists(hst.tuples(hst.integers(0, 6), hst.integers(0, 6))),
                       hst.lists(hst.tuples(hst.integers(0, 2), hst.integers(0, 2))),
                       hst.lists(hst.tuples(hst.integers(1, 6), hst.integers(1, 6))),
                       hst.lists(hst.tuples(hst.sampled_from([0, 2, 3, 4]),
                                            hst.sampled_from([0, 2, 3, 4])))),
       dagger=hst.booleans())
@example(top=(0, 1), rest=[(0, 1)], dagger=False)
def test_split_matches_a_union_find(top, rest, dagger):
    # Keys as the walk builds them, renamed in order of first
    # appearance; the last two strategies leave vertex 0 or vertex 1 of
    # the top edge alone, a bridge found without the union-find.
    labels = _renamed([*top, *(w for edge in rest for w in edge)])
    assert poly._split(_text(labels), dagger) == _split_reference(labels, dagger)


@pytest.mark.parametrize("n", [3, 4])
def test_scheme_recursion_matches_expansion_on_torus_grids(n):
    # The n x n grid on the torus: 2 n^2 edges, one face per square.
    emb = em.with_disc_regions(corpus.torus_grid(n))
    rs, cap = emb.rotation, 2 * n * n
    want = poly.las_vergnas_embedded(emb, "expansion", cap)
    assert poly.las_vergnas_embedded(emb, "recursion", cap) == want
    assert poly.las_vergnas_cellular(rs, "recursion", cap) == want
    assert poly.las_vergnas_cellular(rs, "expansion", cap) == want


def test_scheme_walk_memory_is_bounded_on_the_3x3_grid():
    # The walk holds two depths of tallies.  On the 3 x 3 torus grid it
    # peaks at 161 KB of Python heap; a walk that also kept a plan of
    # every depth's nodes, to fold the tallies from the leaves up,
    # peaked at 516 KB.
    s = em.with_disc_regions(corpus.torus_grid(3)).scheme
    assert len(s.g.edges) == len(s.dagger.edges) == 18
    tracemalloc.start()
    try:
        poly._scheme_leaves(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2 ** 10, f"peak {peak / 2 ** 10:.0f} KB"


def _first_connected(n_vertices: int, n_edges: int) -> rb.RotationSystem:
    rng = random.Random(5)
    while True:
        rs = corpus.random_rotation(rng, n_vertices, n_edges)
        if mg.components(rs.underlying()) == 1:
            return rs


@pytest.mark.parametrize("n_vertices, n_edges", [(10, 24), (12, 30)])
def test_scheme_recursion_matches_expansion_past_the_cap(n_vertices, n_edges):
    emb = em.with_disc_regions(_first_connected(n_vertices, n_edges))
    assert (poly.las_vergnas_embedded(emb, "recursion", n_edges)
            == poly.las_vergnas_embedded(emb, "expansion", n_edges))


def _large_embedded():
    """Seeded connected graphs of 16-18 edges and at most 8 vertices:
    two cellular, and one pinched with random regions of genus."""
    rng = random.Random(2026)
    out = []
    for n_vertices, n_edges, pinched in ((4, 16, False), (6, 18, False),
                                         (5, 16, True)):
        while True:
            rs = corpus.random_rotation(rng, n_vertices, n_edges,
                                        allow_pinch=pinched)
            if (mg.components(rs.underlying()) == 1
                    and bool(rs.pinch_vertices()) == pinched):
                break
        out.append(corpus.close_random(rng, rs, disc_prob=0.0) if pinched
                   else em.with_disc_regions(rs))
    return out


def test_scheme_memo_matches_expansion_on_large_graphs():
    # The unmemoised walk took seconds here; the memo takes milliseconds.
    for emb in _large_embedded():
        s = em.derive_dagger(emb)
        assert (poly.las_vergnas_embedded(s, "recursion")
                == poly.las_vergnas_embedded(s, "expansion"))


def test_scheme_recursion_builds_no_minor(monkeypatch):
    calls: Counter = Counter()
    for owner, name in ((em, "delete_edge"), (em, "contract_edge"),
                        (mg, "delete_edge"), (mg, "contract_edge"),
                        (mg, "is_bridge"), (mg.Multigraph, "is_loop")):
        def wrapper(*args, real=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    ten = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10)
    scheme = em.derive_dagger(ten)
    l_rec = poly.las_vergnas_embedded(scheme, "recursion")
    assert calls == {}
    assert l_rec == poly.las_vergnas_embedded(scheme, "expansion")


# ---------------------------------------------------------------------------
# ribbon and surface polynomials


def test_bollobas_riordan_frozen_values():
    assert str(poly.bollobas_riordan(corpus.proj_loop())) == "1 + yz"
    assert str(poly.bollobas_riordan(corpus.plane_loop())) == "1 + y"


def test_bollobas_riordan_specializes_to_tutte():
    for rs in corpus.cellular_corpus()[:14]:
        r = poly.bollobas_riordan(rs)
        t = rank_walk_tutte(mt.cycle_matroid(rs.underlying()))
        for x0, y0 in ((F(2), F(3)), (F(-1), F(1, 2))):
            assert (r.evaluate({"x": x0, "y": y0 - 1, "z": F(1)})
                    == t.evaluate({"x": x0, "y": y0}))


def test_krushkal_frozen_values():
    assert str(poly.krushkal(corpus.torus_loop_annulus())) == "1 + b"
    assert str(poly.krushkal(em.with_disc_regions(corpus.proj_loop()))) \
        == "b^(1/2) + a^(1/2)"
    assert str(poly.krushkal(em.with_disc_regions(corpus.plane_edge()))) \
        == "1 + x"


def test_krushkal_rejects_pinches_and_disconnection():
    with pytest.raises((em.EmbeddingError, rb.RibbonError, poly.PolyError)):
        poly.krushkal(corpus.pinched_spheres())
    two = rb.RotationSystem(
        {0: (((1, 0), (1, 1)),), 1: (((2, 0), (2, 1)),)}, {1: 1, 2: 1})
    with pytest.raises(poly.PolyError):
        poly.krushkal(em.with_disc_regions(two))


# ---------------------------------------------------------------------------
# error paths: the first bad subset in sweep order


def _eight_edge_graphs():
    return [emb for emb in corpus.main_corpus() if len(emb.rotation.edges) == 8
            and not emb.rotation.pinch_vertices()
            and em.validate(emb).components == 1]


def test_lv_ext_names_its_first_bad_subset():
    bridge = corpus.plane_edge().underlying()
    with pytest.raises(poly.PolyError, match=r"^bad exponents on \[\]$"):
        poly.las_vergnas_embedded(em.EmbeddingScheme(bridge, bridge))


def test_lv_names_its_first_odd_genus_split(monkeypatch):
    # A twisted dual keeps its underlying graph, so only the genus form
    # reads it: the suite's, which lv's component form does not share.
    real = rb.dual
    monkeypatch.setattr(rb, "dual", lambda g: rb.twist(real(g), [g.edges[0]]))
    with pytest.raises(poly.PolyError, match=r"^odd genus split on \[2\]$"):
        _genus_form(corpus.bouquet_torus())
    monkeypatch.setattr(rb, "dual", lambda g: rb.twist(real(g), [g.edges[-1]]))
    with pytest.raises(poly.PolyError, match=r"^odd genus split on \[6\]$"):
        _genus_form(_eight_edge_graphs()[5].rotation)


def test_krushkal_names_its_first_negative_genus(monkeypatch):
    real = em.derive_dagger

    def derive_dagger(x):
        # every region merged into one
        s = real(x)
        return em.EmbeddingScheme(
            s.g, mg.Multigraph((0,), {e: (0, 0) for e in s.g.edges}))

    monkeypatch.setattr(em, "derive_dagger", derive_dagger)
    with pytest.raises(em.EmbeddingError,
                       match=r"^negative genus from subset \[1, 2\]$"):
        poly.krushkal(em.with_disc_regions(corpus.plane_digon()))
    with pytest.raises(em.EmbeddingError,
                       match=r"^negative genus from subset \[1, 5, 6, 8\]$"):
        poly.krushkal(_eight_edge_graphs()[1])


# ---------------------------------------------------------------------------
# caps and the identity suite


def test_cap_is_enforced():
    rs = corpus.random_rotation(__import__("random").Random(1), 2, 6,
                                allow_pinch=False)
    with pytest.raises(poly.CapError):
        poly.bollobas_riordan(rs, cap=5)
    s = em.derive_dagger(em.with_disc_regions(rs))
    mp = mt.MatroidPerspective(mt.bond_matroid(s.dagger), mt.cycle_matroid(s.g))
    with pytest.raises(poly.CapError, match="^perspective expansion on 6 "):
        poly.tutte_perspective(mp, cap=5)
    with pytest.raises(poly.CapError, match="^perspective recursion on 6 "):
        oracles.perspective_recursion(mp, cap=5)


def test_identity_suite_on_named_fixtures():
    for emb in corpus.named_embedded():
        results = poly.verify_identities(emb)
        bad = [r.line() for r in results if r.failed]
        assert not bad, bad


def test_identity_suite_is_deterministic():
    emb = em.with_disc_regions(corpus.klein_bouquet())
    lines1 = [r.line() for r in poly.verify_identities(emb)]
    lines2 = [r.line() for r in poly.verify_identities(emb)]
    assert lines1 == lines2


def test_identity_suite_memory_is_bounded_at_the_cap():
    # 16 edges, the identity cap: the rank tables hold a byte for each
    # of the 2^16 masks, so the whole suite stays under 5 MB of Python
    # heap.
    emb = em.with_disc_regions(corpus.random_rotation(random.Random(5), 4, 16))
    tracemalloc.start()
    try:
        results = poly.verify_identities(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(r.failed for r in results)
    assert peak < 5 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_the_rank_walk_memory_is_bounded_on_a_near_forest():
    # The first connected random_rotation(Random(5), 16, 16): its vertex
    # partitions number nearly 2^|E|, the rank tables' worst case.  The
    # suite peaked at 4.97 MB of Python heap (6.76 MB when the tables
    # were lists of ints), bounded here at that plus 25%.
    rng = random.Random(5)
    while True:
        rs = corpus.random_rotation(rng, 16, 16)
        if mg.components(rs.underlying()) == 1:
            break
    emb = em.with_disc_regions(rs)
    tracemalloc.start()
    try:
        results = poly.verify_identities(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(r.failed for r in results)
    assert peak < 1.25 * 4.97 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"


def test_the_pair_expansions_count_the_mask_rows_in_one_place(monkeypatch):
    # The suite and tutte_perspective's expansion each count the rows
    # (|A|, r(A), r'(A)) once, through matroid.rank_rows.
    calls = _count_calls(monkeypatch, ((mt, "rank_rows"),))
    theta = em.with_disc_regions(corpus.theta_torus())
    assert not any(r.failed for r in poly.verify_identities(theta))
    assert calls["rank_rows"] == 1
    mp = em.scheme_perspective(theta.scheme)
    assert poly.tutte_perspective(mp) == oracles.perspective_recursion(mp)
    assert calls["rank_rows"] == 2


def _theta_statuses():
    results = poly.verify_identities(em.with_disc_regions(corpus.theta_torus()))
    return {r.name: r.status for r in results}


def test_identity_suite_catches_a_wrong_rank(monkeypatch):
    # One entry of M's rank table raised after make_perspective validated
    # it: the rank walk reads it, the tally does not, so the checks must
    # disagree.
    real = em.scheme_perspective

    def corrupted(scheme):
        mp = real(scheme)
        mp.m.table()[0b011] += 1
        return mp

    monkeypatch.setattr(em, "scheme_perspective", corrupted)
    results = poly.verify_identities(em.with_disc_regions(corpus.theta_torus()))
    details = {r.name: (r.status, r.detail) for r in results}
    # r({1, 2}) = 3 > 2 gives (y - 1)^-1: no pair polynomial, and each
    # check says why.
    for name in ("perspective-self", "perspective-to-m", "perspective-to-m-prime"):
        assert details[name] == (
            "fail", "negative exponent on [1, 2]; not a matroid perspective")
    assert all(r.status == "pass" for r in results[3:])


def test_identity_suite_catches_a_wrong_rank_of_m_prime_alone(monkeypatch):
    # r' of the empty set raised to 1 after make_perspective validated M':
    # (M, M') still has a pair polynomial, but its marginal (M', M') has
    # (y - 1)^-1, so perspective-self fails through M' alone, and the
    # three checks give its message.
    pairs = []
    real = em.scheme_perspective

    def corrupted(scheme):
        mp = real(scheme)
        mp.m_prime.table()[0] += 1
        pairs.append(mp)
        return mp

    monkeypatch.setattr(em, "scheme_perspective", corrupted)
    results = poly.verify_identities(em.with_disc_regions(corpus.theta_torus()))
    why = "fail: negative exponent on []; not a matroid perspective"
    assert [r.line() for r in results[:3]] == [
        f"RESULT: perspective-self {why}", f"RESULT: perspective-to-m {why}",
        f"RESULT: perspective-to-m-prime {why}"]
    assert all(r.status == "pass" for r in results[3:])
    assert str(poly.tutte_perspective(pairs[0])) == "1 + 3z + 3z^2 + z^3"


def test_identity_suite_catches_a_wrong_tally_row(monkeypatch):
    # One spurious subset in the embedding's one tally of G, its dual and
    # its dagger: the Tutte polynomials read it as marginals, the rank
    # walk does not.
    real = rb._frontier_tally

    def corrupted(order, layers, sizes=(0, 1), forced=None):
        (row, m), *rest = real(order, layers, sizes, forced)
        # The five layers: G's blocks and circles, G*'s, and H's blocks.
        return [(row, m + (len(layers) == 5)), *rest]

    monkeypatch.setattr(rb, "_frontier_tally", corrupted)
    assert _theta_statuses()["perspective-self"] == "fail"


def test_identity_suite_names_its_first_failing_point(monkeypatch):
    # One spurious bucket (x - 1) in the cellular L: the first monomial
    # on which the two sides of lv-to-tutte and of lv-tidy differ, and
    # its coefficient, are pinned byte for byte.
    real = poly._cellular_buckets

    def spurious(rs, rows):
        buckets = real(rs, rows)
        buckets[2, 0, 0] += 1
        return buckets

    monkeypatch.setattr(poly, "_cellular_buckets", spurious)
    results = poly.verify_identities(em.with_disc_regions(corpus.theta_torus()))
    lines = {r.name: r.line() for r in results}
    assert lines["lv-to-tutte"] == (
        "RESULT: lv-to-tutte fail: (x0-1) (y0-1)^2 has coefficient 1 in lhs - rhs")
    assert lines["lv-tidy"] == ("RESULT: lv-tidy fail: (x0-1) (y0-1)^2 z0^2 "
                                "has coefficient 1 in lhs - rhs")


# Each case adds one bucket to what a bucket reader returns: the reader
# behind the case's owner, a public polynomial function or a right
# side's reader, whose keys have one half-unit exponent per name given
# here.
_READERS = {"tutte_perspective": ("_perspective_buckets", "xyz"),
            "las_vergnas_cellular": ("_cellular_buckets", "xyz"),
            "bollobas_riordan": ("_ribbon_buckets", "xyz"),
            "krushkal": ("_krushkal_buckets", "xyab"),
            "tutte": ("_tutte_buckets", "xy"),
            "las_vergnas_embedded": ("_scheme_buckets", "xyz"),
            "_tidy_buckets": ("_tidy_buckets", "xyz"),
            "_component_buckets": ("_component_buckets", "xyz")}


def _add_bucket(monkeypatch, owner: str, key: tuple[int, ...]) -> None:
    reader = _READERS[owner][0]
    real = getattr(poly, reader)

    def spurious(*args):
        buckets = real(*args)
        buckets[key] += 1
        return buckets

    monkeypatch.setattr(poly, reader, spurious)


def _fails(text: str) -> str:
    return f"fail: {text} in lhs - rhs"


_SPURIOUS_TERMS = {
    # (M, M') plus z: the lhs of perspective-to-m and perspective-to-m-prime.
    ("tutte_perspective", "z", "theta_torus"): {
        "perspective-self": "fail: pair polynomial of (M, M) is not the Tutte polynomial",
        "perspective-to-m": _fails("(x-1) has coefficient 1"),
        "perspective-to-m-prime": _fails("(y0-1) has coefficient 1")},
    # T plus (x - 1), so T(M) plus (y - 1): the rhs of perspective-to-m,
    # perspective-to-m-prime and lv-to-tutte.
    ("tutte", "x", "theta_torus"): {
        "perspective-self": "fail: pair polynomial of (M, M) is not the Tutte polynomial",
        "perspective-to-m": _fails("(y-1) has coefficient -1"),
        "perspective-to-m-prime": _fails("(x0-1) has coefficient -1"),
        "lv-to-tutte": _fails("(x0-1) has coefficient -1")},
    # The cellular L plus z: the lhs of lv-to-tutte, lv-tidy,
    # lv-dichromatic and lv-from-krushkal-cellular, the rhs of br-at-z1.
    ("las_vergnas_cellular", "z", "theta_torus"): {
        "lv-extension-matches-cellular":
            "fail: scheme expansion differs from the cellular one",
        "lv-to-tutte": _fails("(y0-1) has coefficient 1"),
        "lv-tidy": _fails("(y0-1) has coefficient 1"),
        "lv-dichromatic": _fails("z0 has coefficient 1"),
        "br-at-z1": _fails("y0 has coefficient -1"),
        "lv-from-krushkal-cellular": _fails("w^2 has coefficient 1")},
    # The right sides of lv-tidy and lv-dichromatic plus z0.
    ("_tidy_buckets", "z", "theta_torus"): {
        "lv-tidy": _fails("z0 has coefficient -1")},
    ("_component_buckets", "z", "theta_torus"): {
        "lv-dichromatic": _fails("z0 has coefficient -1")},
    # L_ext plus z: the lhs of lv-from-krushkal.
    ("las_vergnas_embedded", "z", "theta_torus"): {
        "lv-extension-matches-cellular":
            "fail: scheme expansion differs from the cellular one",
        "lv-from-krushkal": _fails("w^2 has coefficient 1")},
    # R plus y: the lhs of br-at-z1 and of br-from-krushkal.
    ("bollobas_riordan", "y", "theta_torus"): {
        "br-at-z1": _fails("y0 has coefficient 1"),
        "br-from-krushkal": _fails("q^2 has coefficient 1")},
    # K plus a^(1/2) b^(1/2): the rhs of the three Krushkal checks; on
    # the Klein bottle K itself has odd half-unit powers of a and b.
    ("krushkal", "ab", "theta_torus"): {
        "br-from-krushkal": _fails("q^2 z0 has coefficient -1"),
        "lv-from-krushkal-cellular": _fails("w^2 has coefficient -1"),
        "lv-from-krushkal": _fails("w^2 has coefficient -1")},
    ("krushkal", "ab", "klein_bouquet"): {
        "br-from-krushkal": _fails("q^2 z0 has coefficient -1"),
        "lv-from-krushkal-cellular": _fails("w^2 has coefficient -1"),
        "lv-from-krushkal": _fails("w^2 has coefficient -1")},
}


@pytest.mark.parametrize("case", _SPURIOUS_TERMS, ids="-".join)
def test_every_pointwise_identity_names_its_first_failing_point(monkeypatch, case):
    # One spurious bucket on one side of some exact identities, a whole
    # power of one variable or a^(1/2) b^(1/2): each check it reaches
    # names the first monomial on which its sides differ, byte for byte;
    # every other check passes.  Together the cases fail each of the
    # nine exact checks through each of its two sides.
    owner, term, fixture = case
    names = _READERS[owner][1]
    half = 2 if len(term) == 1 else 1
    _add_bucket(monkeypatch, owner, tuple(half * (v in term) for v in names))
    results = poly.verify_identities(em.with_disc_regions(getattr(corpus, fixture)()))
    assert {r.name: r.line() for r in results if r.status != "pass"} == {
        name: f"RESULT: {name} {why}" for name, why in _SPURIOUS_TERMS[case].items()}


# The fail lines of the half-power cases below, on the theta torus; the
# state checks' lr-relation reads the cellular L too.
_HALF_POWER_FAILS = {
    "odd half-power of y": [
        "RESULT: br-from-krushkal fail: q^3 has coefficient -1 in lhs - rhs",
        "RESULT: lv-from-krushkal-cellular fail: (y0-1)^(1/2) w^2 "
        "has coefficient -1 in lhs - rhs",
        "RESULT: lv-from-krushkal fail: (y0-1)^(1/2) w^2 "
        "has coefficient -1 in lhs - rhs"],
    "odd half-power of z": [
        "RESULT: lv-extension-matches-cellular fail: scheme expansion "
        "differs from the cellular one",
        "RESULT: lv-to-tutte fail: (y0-1)^(3/2) has coefficient 1 in lhs - rhs",
        "RESULT: lv-tidy fail: (y0-1)^(3/2) z0 has coefficient 1 in lhs - rhs",
        "RESULT: lv-dichromatic fail: z0^(1/2) has coefficient 1 in lhs - rhs",
        "RESULT: br-at-z1 fail: y0^(3/2) has coefficient -1 in lhs - rhs",
        "RESULT: lv-from-krushkal-cellular fail: w has coefficient 1 in lhs - rhs",
        "RESULT: lr-relation fail: half-power of z in the cellular polynomial"],
    "odd half-power of x": [
        "RESULT: br-from-krushkal fail: (x0-1)^(1/2) q^2 "
        "has coefficient -1 in lhs - rhs",
        "RESULT: lv-from-krushkal-cellular fail: (x0-1)^(1/2) w^2 "
        "has coefficient -1 in lhs - rhs",
        "RESULT: lv-from-krushkal fail: (x0-1)^(1/2) w^2 "
        "has coefficient -1 in lhs - rhs"],
}


@pytest.mark.parametrize("owner, term, what", [
    ("krushkal", (0, 1, 0, 0), "odd half-power of y"),
    ("las_vergnas_cellular", (0, 0, 1), "odd half-power of z"),
    ("krushkal", (1, 0, 0, 0), "odd half-power of x"),
])
def test_identities_reject_a_term_they_cannot_substitute(monkeypatch, tmp_path,
                                                         capsys, owner, term, what):
    # A bucket with an odd half-unit exponent where no side has one: the
    # key maps never halve an exponent, so every check that reads it
    # fails and names its image, and the command exits 1.
    path = tmp_path / "theta.txt"
    path.write_text(ff.serialize(em.with_disc_regions(corpus.theta_torus())))
    _add_bucket(monkeypatch, owner, term)
    assert cli.main(["identities", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if " fail" in line] == (
        _HALF_POWER_FAILS[what])


def test_check_result_lines():
    assert poly.CheckResult("x", "pass").line() == "RESULT: x pass"
    assert poly.CheckResult("x", "fail", "why").line() == "RESULT: x fail: why"
    assert poly.CheckResult("x", "skip", "gate").line() == "RESULT: x skip: gate"


# ---------------------------------------------------------------------------
# work counters


def test_tutte_counts_no_components(monkeypatch):
    # The graph and its swapped form read one transfer tally each, and
    # the cycle and bond oracles of the rank walk count components on
    # masks: no route calls into the multigraph module's counts.
    calls: Counter = Counter()
    for name in ("components", "rank"):
        def wrapper(*args, real=getattr(mg, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mg, name, wrapper)
    ten = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10)
    g = ten.rotation.underlying()
    t = poly.tutte(g)
    td = swapped_tutte(g)
    t_cycles = rank_walk_tutte(mt.cycle_matroid(g))
    t_bonds = rank_walk_tutte(mt.bond_matroid(g))
    assert calls == {}
    assert (t, td) == (t_cycles, t_bonds)
    assert t.evaluate({"x": F(2), "y": F(2)}) == 2 ** 10
    assert (t.evaluate({"x": F(2), "y": F(3)})
            == td.evaluate({"x": F(3), "y": F(2)}))


def test_expansions_trace_a_fixed_number_of_times(monkeypatch):
    """krushkal, lv and br count circles in the subset sweep, so the
    number of full traces they run does not grow with 2^|E|."""
    calls = []
    real = rb.trace_sectors

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rb, "trace_sectors", counting)
    suited = [emb for emb in corpus.main_corpus()
              if not emb.rotation.pinch_vertices()
              and em.validate(emb).components == 1]
    counts = []
    for n in (4, 10):
        emb = next(e for e in suited if len(e.rotation.edges) == n)
        calls.clear()
        poly.krushkal(emb)
        poly.las_vergnas_cellular(emb.rotation, "expansion")
        poly.bollobas_riordan(emb.rotation)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_each_command_traces_its_input_once(monkeypatch, tmp_path, capsys):
    """The parsed rotation system holds its one full trace, dual, dual
    tally and underlying graph, and the embedding its validation report
    and scheme: every reader in a command shares them.  Parsing reads
    only the circle count, so the commands that never read a circle's
    sides (tutte, dichromatic, br) trace nothing."""
    calls = Counter()
    for module, name in ((rb, "trace_sectors"), (rb, "dual"),
                         (em, "validate"), (em, "derive_dagger")):
        def counting(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    real_tally = rb.transfer_tally

    def transfer_tally(*args):
        # A failing check reruns it forced, by Tally.rerun, which no
        # check here does.
        calls["transfer_tally"] += 1
        return real_tally(*args)

    monkeypatch.setattr(rb, "transfer_tally", transfer_tally)
    graphs = []                 # (system, graph) per underlying() call
    real_underlying = rb.RotationSystem.underlying

    def underlying(self):
        graphs.append((self, real_underlying(self)))
        return graphs[-1][1]

    monkeypatch.setattr(rb.RotationSystem, "underlying", underlying)
    cellular = tmp_path / "theta.txt"
    cellular.write_text(ff.serialize(corpus.theta_torus()) + "cellular\n")
    regions = tmp_path / "pinched.txt"
    regions.write_text(ff.serialize(corpus.pinched_spheres()))
    commands = {
        "tutte": ["poly", str(cellular), "--which", "tutte"],
        "dichromatic": ["poly", str(cellular), "--which", "dichromatic"],
        "br": ["poly", str(cellular), "--which", "br"],
        "krushkal": ["poly", str(cellular), "--which", "krushkal"],
        "lv-ext": ["poly", str(cellular), "--which", "lv-ext"],
        "lv": ["poly", str(cellular), "--which", "lv"],
        "lv recursion": ["poly", str(cellular), "--which", "lv",
                         "--method", "recursion"],
        "identities": ["identities", str(cellular)],
        "classify": ["classify", str(cellular)],
        "pseudo-surface lv-ext": ["poly", str(regions), "--which", "lv-ext"],
        "pseudo-surface identities": ["identities", str(regions)],
    }
    traces, work = {}, {}
    for name, argv in commands.items():
        calls.clear()
        graphs.clear()
        assert cli.main(argv) == 0
        traces[name] = calls.pop("trace_sectors", 0)
        work[name] = dict(calls)
        built: dict[int, set] = {}
        for system, g in graphs:
            built.setdefault(id(system), set()).add(id(g))
        assert all(len(ids) == 1 for ids in built.values()), name
    capsys.readouterr()
    untraced = ("tutte", "dichromatic", "br")
    assert traces == {name: int(name not in untraced) for name in commands}
    assert all(max(counts.values(), default=0) <= 1 for counts in work.values()), work
    assert work["identities"] == {"dual": 1, "transfer_tally": 1, "validate": 1,
                                  "derive_dagger": 1}
    assert work["krushkal"] == {"validate": 1, "derive_dagger": 1,
                                "transfer_tally": 1}
    assert work["classify"] == {"derive_dagger": 1}


def test_recursions_tally_leaves_into_one_assembly(monkeypatch):
    """Both delete/contract recursions count one monomial per leaf and
    assemble once: no polynomial product or sum along the tree."""
    calls = []
    for name in ("__mul__", "__add__"):
        real_op = getattr(MPolynomial, name)

        def op(self, other, name=name, real_op=real_op):
            calls.append(name)
            return real_op(self, other)

        monkeypatch.setattr(MPolynomial, name, op)
    real_assemble = poly.assemble

    def assemble(*args, **kwargs):
        calls.append("assemble")
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(poly, "assemble", assemble)
    ten = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10)
    for emb in (em.with_disc_regions(corpus.theta_torus()), ten):
        scheme = em.derive_dagger(emb)
        mp = mt.MatroidPerspective(mt.bond_matroid(scheme.dagger),
                                   mt.cycle_matroid(scheme.g))
        calls.clear()
        poly.las_vergnas_embedded(scheme, "recursion")
        oracles.perspective_recursion(mp)
        assert calls == ["assemble", "assemble"]


def _count_calls(monkeypatch, names) -> Counter:
    calls: Counter = Counter()
    for module, name in names:
        real = getattr(module, name)

        def wrapper(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


_SWEEPS = ((rb, "_frontier_tally"), (rb, "first_witness"), (rb, "circle_counter"),
           (rb, "transfer_tally"))


def test_identity_suite_expands_each_polynomial_once(monkeypatch):
    # lv-ext, T(M') = T(G), T(M) = T(H; y, x), L, R and K all read the
    # embedding's one tally of G, its dual and its dagger graph: one
    # transfer_tally, one frontier run; no tally is rerun to find a witness.
    # The disc closure counts the circles once.
    calls = _count_calls(monkeypatch,
                         ((poly, "tutte"), (poly, "bollobas_riordan")) + _SWEEPS)
    results = poly.verify_identities(em.with_disc_regions(corpus.theta_torus()))
    assert not [r.line() for r in results if r.status != "pass"]
    assert calls == {"transfer_tally": 1, "_frontier_tally": 1, "circle_counter": 1}


def test_identities_makes_one_subset_pass_per_input(monkeypatch, tmp_path, capsys):
    # One frontier run tallies the subsets for the whole suite, with the
    # layers it reads: a pinched input's two union layers (G on A, the
    # dagger graph on E - A); a cellular input's three union and two
    # circle layers (G on A, G* and H on E - A).  The theta's state
    # checks add the state tally's run, a union layer on the medial's
    # corners and a circle layer; the 10-edge input's skip by the cap.
    ten = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10
               and mg.components(e.rotation.underlying()) == 1
               and em.validate(e).cellular)
    inputs = {"pinched": (corpus.pinched_spheres(), (1, 2, 0)),
              "ten": (ten, (1, 3, 2)),
              "theta": (em.with_disc_regions(corpus.theta_torus()), (2, 4, 3))}
    calls = _count_calls(monkeypatch, ((rb, "_frontier_tally"), (rb, "_union_moves"),
                                       (rb, "_circle_moves")))
    for name, (emb, want) in inputs.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(ff.serialize(emb))
        calls.clear()
        assert cli.main(["identities", str(path)]) == 0
        assert (calls["_frontier_tally"], calls["_union_moves"],
                calls["_circle_moves"]) == want, name
    capsys.readouterr()


def test_each_command_builds_an_order_and_disc_arcs_once(monkeypatch, tmp_path,
                                                         capsys):
    # A rotation system keeps its disc arcs and its tally order: the
    # graph and the dual that the dual tally traces build their arcs
    # once each, and the dual tally decides in the graph's order, also
    # when identities cuts it by the dagger graph.  lv's tally of the
    # bare graph cut by the dual's builds no arcs past the graph's own,
    # which parsing counts circles on, and the bare graph's one order.
    ten = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10
               and mg.components(e.rotation.underlying()) == 1
               and em.validate(e).cellular)
    path = tmp_path / "ten.txt"
    path.write_text(ff.serialize(ten))
    calls = _count_calls(monkeypatch, ((rb, "_disc_arcs"), (mg, "frontier_order")))
    builds = {("identities",): (2, 1), ("states", "--sweep-cap", "10"): (2, 1),
              ("poly", "--which", "lv"): (1, 1), ("poly", "--which", "br"): (1, 1),
              ("poly", "--which", "krushkal"): (1, 1)}
    for (command, *options), want in builds.items():
        calls.clear()
        assert cli.main([command, str(path), *options]) == 0
        assert (calls["_disc_arcs"], calls["frontier_order"]) == want, command
    capsys.readouterr()


def test_lv_makes_one_pass_on_two_union_layers(monkeypatch, tmp_path, capsys):
    # poly --which lv tallies A in G cut by G* on E - A: one frontier
    # run on two union layers, and no circle layer.
    ten = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10
               and mg.components(e.rotation.underlying()) == 1
               and em.validate(e).cellular)
    path = tmp_path / "ten.txt"
    path.write_text(ff.serialize(ten))
    calls = _count_calls(monkeypatch, ((rb, "_frontier_tally"), (rb, "_union_moves"),
                                       (rb, "_circle_moves")))
    assert cli.main(["poly", str(path), "--which", "lv"]) == 0
    assert calls == {"_frontier_tally": 1, "_union_moves": 2}
    capsys.readouterr()


def test_a_bare_graph_keeps_its_tally_order(monkeypatch):
    # A witness search reruns the scheme's tally once per edge, each run
    # in the order the bare graph keeps: one frontier_order in all.
    s = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10).scheme
    calls = _count_calls(monkeypatch, ((mg, "frontier_order"),
                                       (rb, "_frontier_tally")))
    tally = rb.transfer_tally(s.g, s.dagger)
    last = next(reversed(tally))
    assert poly._first_subset(s.g.edges, tally.rerun, {last: "{a}"})
    assert calls["_frontier_tally"] > 2
    assert calls["frontier_order"] == 1


def test_identities_counts_the_masks_once(monkeypatch, tmp_path, capsys):
    # One rank table per graph, G and its dagger, and one count of the
    # 2^|E| masks: it gives (M, M') and, as its marginals, (M, M) and
    # (M', M'), with no expansion of its own.  mask_sizes runs for that
    # count and for the bond matroid's table, the cycle table reversed.
    ten = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10)
    path = tmp_path / "ten.txt"
    path.write_text(ff.serialize(ten))
    calls = _count_calls(monkeypatch, (
        (mg, "component_table"), (mt, "mask_sizes"), (poly, "tutte_perspective"),
        (poly, "_perspective_buckets")))
    assert cli.main(["identities", str(path)]) == 0
    assert calls == {"component_table": 2, "mask_sizes": 2,
                     "_perspective_buckets": 3}
    capsys.readouterr()


def test_identity_suite_compares_buckets_and_assembles_no_polynomial(monkeypatch):
    # Every identity compares exponent buckets: a passing run
    # substitutes and evaluates nothing, and assembles no polynomial,
    # not even for the literal identities perspective-self and
    # lv-extension-matches-cellular.
    calls = _count_calls(monkeypatch, (
        (MPolynomial, "substitute"), (MPolynomial, "evaluate"),
        (poly, "assemble")))
    results = poly.verify_identities(em.with_disc_regions(corpus.theta_torus()))
    assert not [r.line() for r in results if r.status != "pass"]
    assert calls == {}


def test_expansions_sweep_no_subset(monkeypatch):
    # br, krushkal, lv, lv-ext, dichromatic and tutte each make one tally,
    # one frontier run, and neither rerun it nor count circles subset by
    # subset.
    calls = _count_calls(monkeypatch, _SWEEPS)
    ten = next(e for e in corpus.main_corpus()
               if len(e.rotation.edges) == 10 and not e.rotation.pinch_vertices()
               and em.validate(e).components == 1)
    rs = ten.rotation
    for run, tally in ((lambda: poly.bollobas_riordan(rs), "transfer_tally"),
                       (lambda: poly.krushkal(ten), "transfer_tally"),
                       (lambda: poly.las_vergnas_cellular(rs), "transfer_tally"),
                       (lambda: poly.las_vergnas_embedded(ten), "transfer_tally"),
                       (lambda: poly.dichromatic(rs.underlying()), "transfer_tally"),
                       (lambda: poly.tutte(rs.underlying()), "transfer_tally")):
        calls.clear()
        run()
        assert calls == {tally: 1, "_frontier_tally": 1}


def _marginal(rows, key) -> Counter:
    out: Counter = Counter()
    for row, m in rows.items():
        out[key(row)] += m
    return out


@settings(max_examples=120, deadline=None)
@given(hst.integers(min_value=0), hst.integers(min_value=1, max_value=4),
       hst.integers(min_value=0, max_value=7), hst.booleans(),
       hst.integers(min_value=0, max_value=6))
def test_the_suite_tally_has_the_single_purpose_tallies_as_marginals(
        seed, n_vertices, n_edges, discs, edge):
    # The embedding's one tally, closed by discs (cellular) or by a
    # random region gluing, sums row for row to the tallies that poly
    # runs alone: the dual tally of rs, the tally of rs cut by the
    # dagger graph H (krushkal) and that of the bare graph cut by H
    # (lv-ext); also when one edge is forced, on its rerun.
    rng = random.Random(seed)
    rs = corpus.random_rotation(rng, n_vertices, n_edges, allow_pinch=False)
    emb = corpus.close_random(rng, rs, disc_prob=float(discs))
    report, dagger = em.validate(emb), emb.scheme.dagger
    forced = {rs.edges[edge % n_edges]: rng.randrange(2)} if n_edges else {}
    for kwargs in ({}, {"forced": forced}):
        def run(tally):
            return tally.rerun(**kwargs) if kwargs else tally

        rows = run(emb.tally)
        assert _marginal(rows, lambda r: (r[0], r[1], r[-1])) == \
            run(rb.transfer_tally(rs.underlying(), dagger))
        if report.cellular or report.components == 1:
            assert _marginal(rows, lambda r: (*r[:3], r[-1])) == \
                run(rb.transfer_tally(rs, dagger))
        if report.cellular:
            assert _marginal(rows, lambda r: r[:5]) == run(rs.dual_tally)


def test_first_subset_names_the_mask_of_a_row():
    # Error messages of the expansions name the first subset, in mask
    # order, whose row is bad: rows[k] is the row of mask k of the edges
    # 4 and 6, and the tally counts the masks that agree with forced.
    rows = [(0, "a"), (1, "b"), (1, "b"), (2, "c")]

    def tally(forced):
        return Counter(row for k, row in enumerate(rows)
                       if all(forced.get(e, k >> i & 1) == k >> i & 1
                              for i, e in enumerate((4, 6))))

    assert poly._first_subset((4, 6), tally, {(1, "b"): "on {a}"}) == "on [4]"
    assert poly._first_subset((4, 6), tally, {(2, "c"): "at {a}"}) == "at [4, 6]"
    assert poly._first_subset((4, 6), tally,
                              {(2, "c"): "at {a}", (1, "b"): "on {a}"}) == "on [4]"
    # {rest} names the complement, as the state checks' deleted sets do.
    assert poly._first_subset((4, 6), tally,
                              {(1, "b"): "{rest}: off"}) == "[6]: off"
    assert poly._first_subset((4, 6), tally, {(0, "a"): "{rest}"}) == "[4, 6]"


def test_checked_names_the_first_mask_whose_row_lands_in_a_bad_bucket():
    # The one refusal path of the bucket readers, on synthetic bad
    # buckets of a key that merges rows: the subset named is the first
    # mask, in the sweep's order, whose row lands in one, and bad is
    # asked once per bucket.  A bucket set that is never bad passes.
    rng = random.Random(38)
    graphs = [emb for emb in corpus.main_corpus() if len(emb.rotation.edges) <= 8]
    assert len(graphs) > 100 and any(emb.rotation.pinch_vertices() for emb in graphs)

    def key(size, c, f, rho):
        return size - c, f + rho

    for emb in graphs:
        rs, dagger = emb.rotation, emb.scheme.dagger
        tally = rb.transfer_tally(rs, dagger)
        counts = poly._keyed(tally, key)
        assert poly._checked(tally, key, rs.edges, lambda *k: None) == counts
        chosen = set(rng.sample(sorted(counts), rng.randint(1, min(3, len(counts)))))
        asked = []

        def bad(*k):
            asked.append(k)
            return "{a} against {rest}" if k in chosen else None

        with pytest.raises(poly.PolyError) as exc:
            poly._checked(tally, key, rs.edges, bad)
        assert sorted(asked) == sorted(counts)
        mask = next(k for k, row in enumerate(sweeps.subset_sweep(rs, dagger))
                    if key(*row) in chosen)
        rest = mask ^ ((1 << len(rs.edges)) - 1)
        assert str(exc.value) == (f"{mg.subset_ids(rs.edges, mask)} against "
                                  f"{mg.subset_ids(rs.edges, rest)}")


def _brute_difference(lhs, rhs):
    """(key, count): the first key, in sorted order, on which the counts
    of lhs and rhs differ, and lhs's count less rhs's; None if none."""
    for key in sorted(set(lhs) | set(rhs)):
        if lhs.get(key, 0) != rhs.get(key, 0):
            return key, lhs.get(key, 0) - rhs.get(key, 0)
    return None


_bucket_maps = hst.dictionaries(
    hst.tuples(*[hst.integers(-2, 6)] * 3), hst.integers(1, 9), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_bucket_maps, hst.sampled_from(
           ("equal", "permuted", "extra key", "moved count", "one count off")),
       hst.randoms(use_true_random=False))
def test_bucket_comparison_agrees_with_a_brute_force_difference(
        counts, how, rng):
    # The suite compares two maps of positive counts as dicts first: on
    # equal maps, maps inserted in another order, a map with one extra
    # key, one with a count moved to a new key (equal totals) and one
    # count off by one, the first difference is what a walk over the
    # sorted keys finds, and _exact passes exactly when the maps agree.
    items = list(counts.items())
    other = dict(items)
    if how == "permuted":
        rng.shuffle(items)
        other = dict(items)
    fresh = (9, 0, 0)                   # outside the keys drawn
    if how == "extra key":
        other[fresh] = rng.randint(1, 9)
    elif how in ("moved count", "one count off") and items:
        key = rng.choice(items)[0]
        other[key] -= 1
        if how == "moved count":
            other[fresh] = 1
        if not other[key]:
            del other[key]
    lhs, rhs = poly._Counts(counts), poly._Counts(other)
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    assert poly._first_difference(lhs, rhs) == _brute_difference(lhs, rhs)
    result = poly._exact("check", ("x", "y", "z"), lhs, rhs)
    assert result.status == ("pass" if _brute_difference(lhs, rhs) is None
                             else "fail")
    # A Counter side with a zero count agrees with the map without it,
    # and a side that is no dict is compared, not passed: an unbound
    # dict.__eq__ would return NotImplemented, which is true.
    padded = Counter(lhs)
    padded[(-9, 0, 0)] = 0
    assert poly._first_difference(padded, rhs) == _brute_difference(lhs, rhs)
    assert (poly._first_difference(lhs, MappingProxyType(rhs))
            == _brute_difference(lhs, rhs))


def test_keyed_counts_are_positive_and_a_missing_key_reads_zero():
    # Every bucket map the suite compares comes from _keyed, whose dict
    # comparison is exact only while no count is zero or negative: on
    # every tally of cellular_corpus(), each count is positive and the
    # counts keep their total, under the identity key and a merging one.
    empty = poly._Counts()
    assert empty[(0, 2)] == 0 and (0, 2) not in empty and empty == {}
    for rs in corpus.cellular_corpus():
        emb = em.with_disc_regions(rs)
        for tally in (emb.tally, rb.transfer_tally(rs),
                      rb.state_tally(rs, rb.medial(rs))):
            for key in (lambda *row: row, lambda first, *_: first):
                counts = poly._keyed(tally, key)
                assert type(counts) is poly._Counts
                assert min(counts.values()) > 0
                assert sum(counts.values()) == sum(tally.values())
        for buckets in (poly._scheme_buckets(emb.scheme, emb.tally),
                        poly._cellular_buckets(rs, emb.tally),
                        poly._ribbon_buckets(rs, emb.tally),
                        poly._tidy_buckets(rs, emb.tally),
                        poly._component_buckets(rs, emb.tally),
                        poly._krushkal_buckets(emb, emb.tally)):
            assert type(buckets) is poly._Counts and min(buckets.values()) > 0


def test_a_failing_subset_check_reruns_its_tally_at_most_once_per_edge(
        monkeypatch):
    # A twisted dual puts the rows of L's genus form off: its one dual
    # tally, then at most one rerun per edge to name the first subset.
    rng = random.Random(20)
    while True:
        rs = corpus.random_rotation(rng, 4, 20, allow_pinch=False)
        if mg.components(rs.underlying()) == 1:
            break
    real = rb.dual
    monkeypatch.setattr(rb, "dual", lambda g: rb.twist(real(g), [1]))
    calls = _count_calls(monkeypatch, ((rb, "_frontier_tally"),))
    with pytest.raises(poly.PolyError, match="on "):
        _genus_form(rs)
    assert 1 < calls["_frontier_tally"] <= len(rs.edges) + 1


# ---------------------------------------------------------------------------
# golden outputs


def test_golden_polynomials():
    want = golden.load()
    for key, pool in (("main", golden.main_embeddings()),
                      ("cellular", golden.cellular_embeddings())):
        got = [golden.poly_digest(emb) for emb in pool]
        drift = [i for i, (a, b) in enumerate(zip(got, want[key])) if a != b]
        assert len(got) == len(want[key]) and not drift, (key, drift)


# ---------------------------------------------------------------------------
# which polynomial determines which: pinned pairs of cellular embeddings


def _canonical_polys(rs: rb.RotationSystem) -> dict[str, str]:
    emb = em.with_disc_regions(rs)
    return {"T": str(poly.tutte(rs.underlying())),
            "R": str(poly.bollobas_riordan(rs)),
            "L": str(poly.las_vergnas_cellular(rs)),
            "K": str(poly.krushkal(emb)),
            "L_ext": str(poly.las_vergnas_embedded(emb))}


def _shared(pair) -> set[str]:
    first, second = map(_canonical_polys, pair)
    return {name for name in first if first[name] == second[name]}


def test_r_determines_neither_l_nor_k():
    assert _shared(corpus.ribbon_twins()) == {"T", "R"}


def test_r_and_l_together_do_not_determine_k():
    assert _shared(corpus.surface_twins()) == {"T", "R", "L", "L_ext"}


def test_l_determines_neither_r_nor_k():
    pair = (corpus.bouquet_torus(), corpus.klein_bouquet())
    assert _shared(pair) == {"T", "L", "L_ext"}
    assert _canonical_polys(pair[0])["L"] == "1 + 2z + z^2"

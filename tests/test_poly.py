"""The polynomials: frozen small values, route agreement, relations."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import corpus
import golden
from topopoly import cli
from topopoly import embedding as em
from topopoly import fileformat as ff
from topopoly import matroid as mt
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
    """T(g; y, x), the Tutte polynomial of the bond matroid of g."""
    return poly._tutte_from_rows(len(g.vertices), rb.transfer_tally(g), "yx")


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
    assert (poly.tutte_perspective(mp, "expansion")
            == poly.tutte_perspective(mp, "recursion"))


def test_perspective_self_is_tutte():
    m = mt.cycle_matroid(triangle())
    mp = mt.make_perspective(m, m)
    assert poly.tutte_perspective(mp, "expansion") == poly.tutte(triangle())


def test_perspective_specializes_to_both_ends():
    scheme = em.derive_dagger(em.with_disc_regions(corpus.theta_torus()))
    mp = em.scheme_perspective(scheme)
    t = poly.tutte_perspective(mp, "expansion")
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
        poly.tutte_perspective(mp, "expansion"),
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
    real = rb.dual
    monkeypatch.setattr(rb, "dual", lambda g: rb.twist(real(g), [g.edges[0]]))
    with pytest.raises(poly.PolyError, match=r"^odd genus split on \[2\]$"):
        poly.las_vergnas_cellular(corpus.bouquet_torus())
    monkeypatch.setattr(rb, "dual", lambda g: rb.twist(real(g), [g.edges[-1]]))
    with pytest.raises(poly.PolyError, match=r"^odd genus split on \[6\]$"):
        poly.las_vergnas_cellular(_eight_edge_graphs()[5].rotation)


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
    with pytest.raises(poly.CapError, match="^perspective recursion on 6 "):
        poly.tutte_perspective(mp, "recursion", cap=5)


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
    # 16 edges, the identity cap: the rank tables are lists of 2^16
    # small ints, so the whole suite stays under 5 MB of Python heap.
    emb = em.with_disc_regions(corpus.random_rotation(random.Random(5), 4, 16))
    tracemalloc.start()
    try:
        results = poly.verify_identities(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(r.failed for r in results)
    assert peak < 5 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


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


def test_identity_suite_catches_a_wrong_tally_row(monkeypatch):
    # One spurious subset in the scheme's tally of G and its dagger: the
    # Tutte polynomials read it as marginals, the rank walk does not.
    real = rb.transfer_tally

    def corrupted(x, cut=None):
        rows = real(x, cut)
        if isinstance(x, mg.Multigraph) and cut is not None:
            rows[next(iter(rows))] += 1
        return rows

    monkeypatch.setattr(rb, "transfer_tally", corrupted)
    assert _theta_statuses()["perspective-self"] == "fail"


def test_identity_suite_names_its_first_failing_point(monkeypatch):
    # One spurious term x in the cellular L: the first sample point of
    # lv-to-tutte, and both sides there, are pinned byte for byte.
    real = poly._cellular_from_rows
    monkeypatch.setattr(poly, "_cellular_from_rows",
                        lambda rs, rows: real(rs, rows) + MPolynomial.variable("x"))
    results = poly.verify_identities(em.with_disc_regions(corpus.theta_torus()))
    lines = {r.name: r.line() for r in results}
    assert lines["lv-to-tutte"] == "RESULT: lv-to-tutte fail: at (5, -7): 367 != 47"
    assert lines["lv-tidy"] == ("RESULT: lv-tidy fail: at (1/3, 5/2, 8): "
                                "37735/192 != 28519/192")


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
    and scheme: every reader in a command shares them."""
    calls = Counter()
    for module, name in ((rb, "trace_sectors"), (rb, "dual"),
                         (em, "validate"), (em, "derive_dagger")):
        def counting(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    real_tally = rb.dual_tally

    def dual_tally(*args, **kwargs):
        # A failing check reruns it forced; no check fails here.
        calls["dual_tally" if kwargs.get("forced") is None else "forced"] += 1
        return real_tally(*args, **kwargs)

    monkeypatch.setattr(rb, "dual_tally", dual_tally)
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
    assert traces == dict.fromkeys(commands, 1)
    assert all(max(counts.values(), default=0) <= 1 for counts in work.values()), work
    assert work["identities"] == {"dual": 1, "dual_tally": 1, "validate": 1,
                                  "derive_dagger": 1}
    assert work["krushkal"] == {"validate": 1, "derive_dagger": 1}
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
        poly.tutte_perspective(mp, "recursion")
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
           (rb, "transfer_tally"), (rb, "dual_tally"))


def test_identity_suite_expands_each_polynomial_once(monkeypatch):
    # lv-ext, T(M') = T(G) and T(M) = T(H; y, x) read one transfer tally
    # of the scheme, R comes from the suite's own dual_tally rows, and
    # krushkal makes one transfer tally, one frontier run each; no tally
    # is rerun to find a witness.
    calls = _count_calls(monkeypatch,
                         ((poly, "tutte"), (poly, "bollobas_riordan")) + _SWEEPS)
    results = poly.verify_identities(em.with_disc_regions(corpus.theta_torus()))
    assert not [r.line() for r in results if r.status != "pass"]
    assert calls == {"transfer_tally": 2, "dual_tally": 1, "_frontier_tally": 3}


def test_each_command_builds_an_order_and_disc_arcs_once(monkeypatch, tmp_path,
                                                         capsys):
    # A rotation system keeps its disc arcs and its tally order: the
    # graph and the dual that the dual tally traces build their arcs
    # once each, and the dual tally decides in the graph's order.  The
    # only other order is that of the scheme's bare tally (identities).
    ten = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10
               and mg.components(e.rotation.underlying()) == 1
               and em.validate(e).cellular)
    path = tmp_path / "ten.txt"
    path.write_text(ff.serialize(ten))
    calls = _count_calls(monkeypatch, ((rb, "_disc_arcs"), (mg, "frontier_order")))
    builds = {("identities",): (2, 2), ("states", "--sweep-cap", "10"): (2, 1),
              ("poly", "--which", "lv"): (2, 1), ("poly", "--which", "br"): (1, 1),
              ("poly", "--which", "krushkal"): (1, 1)}
    for (command, *options), want in builds.items():
        calls.clear()
        assert cli.main([command, str(path), *options]) == 0
        assert (calls["_disc_arcs"], calls["frontier_order"]) == want, command
    capsys.readouterr()


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
                       (lambda: poly.las_vergnas_cellular(rs), "dual_tally"),
                       (lambda: poly.las_vergnas_embedded(ten), "transfer_tally"),
                       (lambda: poly.dichromatic(rs.underlying()), "transfer_tally"),
                       (lambda: poly.tutte(rs.underlying()), "transfer_tally")):
        calls.clear()
        run()
        assert calls == {tally: 1, "_frontier_tally": 1}


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


def test_a_failing_subset_check_reruns_its_tally_at_most_once_per_edge(
        monkeypatch):
    # A twisted dual puts the cellular expansion's rows off: its one
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
        poly.las_vergnas_cellular(rs)
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

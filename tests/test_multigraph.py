"""Abstract multigraph layer: components, rank, minors, isomorphism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import corpus
from topopoly import embedding as em
from topopoly import multigraph as mg


def path3():
    return mg.Multigraph((0, 1, 2), {1: (0, 1), 2: (1, 2)})


def triangle():
    return mg.Multigraph((0, 1, 2), {1: (0, 1), 2: (1, 2), 3: (0, 2)})


def test_components_counts_isolated_vertices():
    g = mg.Multigraph((0, 1, 2), {1: (0, 1)})
    assert mg.components(g) == 2
    assert mg.components(g, ()) == 3


def test_components_subset():
    g = triangle()
    assert mg.components(g, {1}) == 2
    assert mg.components(g, {1, 2}) == 1
    assert mg.components(g) == 1


def test_rank_and_nullity():
    g = triangle()
    assert mg.rank(g) == 2
    assert mg.nullity(g) == 1
    assert mg.rank(g, {1, 2}) == 2
    assert mg.rank(g, ()) == 0
    loop = mg.Multigraph((0,), {1: (0, 0)})
    assert mg.rank(loop) == 0
    assert mg.nullity(loop) == 1


def test_bridges():
    g = path3()
    assert mg.is_bridge(g, 1) and mg.is_bridge(g, 2)
    assert not any(mg.is_bridge(triangle(), e) for e in (1, 2, 3))


def test_delete_edge():
    g = triangle()
    d = mg.delete_edge(g, 2)
    assert d.edge_set() == frozenset({1, 3})
    assert d.vertices == g.vertices
    assert mg.components(d) == 1


def test_contract_edge_merges_to_min_id():
    g = mg.Multigraph((3, 7), {1: (3, 7), 2: (7, 7)})
    c = mg.contract_edge(g, 1)
    assert c.vertices == (3,)
    assert c.ends[2] == (3, 3)


def test_contract_loop_deletes():
    g = mg.Multigraph((0,), {1: (0, 0), 2: (0, 0)})
    c = mg.contract_edge(g, 1)
    assert c.edge_set() == frozenset({2})
    assert c.vertices == (0,)


def test_contract_rank_relation():
    g = triangle()
    c = mg.contract_edge(g, 1)
    for a in ({2}, {3}, {2, 3}, set()):
        assert mg.rank(c, a) == mg.rank(g, a | {1}) - mg.rank(g, {1})


def test_iso_accepts_relabeling():
    g1 = mg.Multigraph((0, 1, 2), {1: (0, 1), 2: (1, 2), 3: (0, 2)})
    g2 = mg.Multigraph((5, 6, 9), {1: (9, 5), 2: (5, 6), 3: (9, 6)})
    phi = mg.id_respecting_isomorphism(g1, g2)
    assert phi is not None
    for e, (u, w) in g1.ends.items():
        assert {phi[u], phi[w]} == set(g2.ends[e]) or \
            (phi[u] == phi[w] and g2.ends[e][0] == g2.ends[e][1])


def test_iso_respects_edge_ids():
    g1 = mg.Multigraph((0, 1), {1: (0, 1), 2: (0, 0)})
    g2 = mg.Multigraph((0, 1), {1: (0, 0), 2: (0, 1)})
    assert mg.id_respecting_isomorphism(g1, g2) is None


def test_iso_rejects_loop_mismatch():
    g1 = mg.Multigraph((0, 1), {1: (0, 0), 2: (0, 1)})
    g2 = mg.Multigraph((0, 1), {1: (0, 1), 2: (0, 1)})
    assert mg.id_respecting_isomorphism(g1, g2) is None


st_edges = hst.lists(hst.tuples(hst.integers(0, 4), hst.integers(0, 4)),
                     min_size=0, max_size=8)


@given(ends=st_edges)
@settings(max_examples=40, deadline=None)
def test_rank_is_monotone_and_unit_increment(ends):
    g = mg.Multigraph(tuple(range(5)),
                      {i + 1: uw for i, uw in enumerate(ends)})
    edges = sorted(g.edge_set())
    a: set = set()
    for e in edges:
        before = mg.rank(g, a)
        a.add(e)
        after = mg.rank(g, a)
        assert after - before in (0, 1)


@given(ends=st_edges)
@settings(max_examples=60, deadline=None)
def test_bridge_is_a_component_split(ends):
    g = mg.Multigraph(tuple(range(5)),
                      {i + 1: uw for i, uw in enumerate(ends)})
    for e in g.edges:
        split = mg.components(g, g.edge_set() - {e}) == mg.components(g) + 1
        assert mg.is_bridge(g, e) == split


def _table_cases():
    yield mg.Multigraph((), {})
    yield mg.Multigraph((0, 1, 2), {})                       # isolated only
    yield mg.Multigraph((0, 1), {1: (0, 0), 2: (0, 1), 3: (1, 1)})
    yield mg.Multigraph((0, 1, 2, 3), {1: (0, 1), 2: (0, 1), 3: (1, 0),
                                       5: (2, 2), 7: (1, 2)})
    for emb in corpus.main_corpus():
        yield emb.rotation.underlying()
        yield em.derive_dagger(emb).dagger
    for rs in corpus.cellular_corpus():
        yield rs.underlying()


def test_component_table_matches_the_counter_on_every_mask():
    checked = 0
    for g in _table_cases():
        count = mg.component_counter(g)
        table = mg.component_table(g)
        assert len(table) == 1 << len(g.edges)
        assert table == [count(a) for a in range(len(table))], g
        checked += len(table)
    assert mg.component_table(mg.Multigraph((), {})) == [0]
    assert mg.component_table(mg.Multigraph((0, 1, 2), {})) == [3]
    assert checked > 40000


def _narrowest_by_reference(g, tracked, at):
    """frontier_order by its definition: each root's breadth-first order,
    scored by the first and last step of every tracked element."""
    best = None
    for root in g.vertices:
        order, seen = [], set()
        for start in (root,) + g.vertices:
            if start in seen:
                continue
            seen.add(start)
            queue = [start]
            while queue:
                for e in at[queue.pop(0)]:
                    if e not in order:
                        order.append(e)
                        for w in g.ends[e]:
                            if w not in seen:
                                seen.add(w)
                                queue.append(w)
        width = [0] * len(order)
        for element in tracked:
            steps = [order.index(e) for e in set(element)] or [0]
            for t in range(min(steps), max(steps)):
                width[t] += 1
        cost = sum(w * w for w in width)
        if best is None or cost < best[0]:
            best = (cost, order)
    return best[1]


def test_frontier_order_is_the_narrowest_breadth_first_order():
    # A deterministic permutation of the edges: the reference's choice,
    # on the scheme pair's vertices and on a ribbon graph's vertices and
    # disc arcs, the same on a second call.
    from topopoly import ribbon as rb
    for emb in corpus.main_corpus():
        s, rs = em.derive_dagger(emb), emb.rotation
        at = mg.incidences(s.g)
        tracked = [*at.values(), *mg.incidences(s.dagger).values()]
        order = mg.frontier_order(s.g, at, tracked)
        assert sorted(order) == list(s.g.edges)
        assert order == _narrowest_by_reference(s.g, tracked, at)
        assert order == mg.frontier_order(s.g, at, tracked)
        # The tally's order: rotation order at each vertex; the disc arcs
        # join corner points 4i + 2 end + io of the i-th smallest edge id.
        at = {v: [e for sec in secs for e, _ in sec] for v, secs in rs.sectors.items()}
        kappa, _ = rb._disc_arcs(rs)
        arcs = [(rs.edges[p // 4], rs.edges[q // 4])
                for p, q in enumerate(kappa) if p < q]
        ribbon_order = rb._edge_order(rs)
        assert sorted(ribbon_order) == list(rs.edges)
        assert list(ribbon_order) == _narrowest_by_reference(
            rs.underlying(), [*at.values(), *arcs], at)
        assert ribbon_order == rb._edge_order(rs) == rs.edge_order


def test_frontier_order_ties_go_to_the_smaller_root():
    # A path scores the same from either end; the smaller id wins, and
    # an isolated vertex adds nothing.  With no edges the order is empty.
    path = mg.Multigraph((0, 1, 2, 3, 9), {7: (3, 2), 5: (2, 1), 6: (1, 0)})
    at = mg.incidences(path)
    assert mg.frontier_order(path, at, at.values()) == [6, 5, 7]
    assert mg.frontier_order(mg.Multigraph((0, 1)), {0: [], 1: []}, [[], []]) == []

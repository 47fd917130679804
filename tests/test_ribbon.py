"""Boundary tracing, genus, duality, twisting, contraction, medials.

The small fixtures here were traced by hand on paper; their circle
structures are frozen below and everything else is checked against
them.
"""

import random
from collections import Counter
from functools import partial

import pytest

import corpus
import sweeps
from topopoly import embedding as em
from topopoly import multigraph as mg
from topopoly import ribbon as rb
from topopoly import states as st


def all_subsets(edges):
    import itertools
    for k in range(len(edges) + 1):
        yield from map(frozenset, itertools.combinations(edges, k))


# ---------------------------------------------------------------------------
# the subset sweep against the per-subset oracles


def test_subset_sweep_matches_oracles():
    # Every subset of every corpus graph up to 9 edges: pinched sectors
    # left bare, sign -1 bands, disconnected surfaces.
    checked = 0
    for emb in corpus.main_corpus():
        rs = emb.rotation
        if len(rs.edges) > 9:
            continue
        scheme = em.derive_dagger(emb)
        rows = sweeps.subset_sweep(rs, scheme.dagger)
        for k, (size, c, f, rho) in enumerate(rows):
            a = [e for i, e in enumerate(rs.edges) if k >> i & 1]
            assert size == len(a)
            assert c == mg.components(scheme.g, a)
            assert f == rb.trace_boundary(rs, a).f
            assert rho == em.rho(scheme, a)
            checked += 1
        assert k == 2 ** len(rs.edges) - 1
    assert checked > 10000


def test_subset_sweep_bare_graph_and_complement():
    for rs in corpus.cellular_corpus():
        g, d = rs.underlying(), rb.dual(rs)
        full = rs.edge_set()
        bare = list(sweeps.subset_sweep(g))
        dual_rows = sweeps.subset_sweep(d, complement=True)
        for k, ((size, c, f, cut), row_d) in enumerate(zip(bare, dual_rows)):
            a = frozenset(e for i, e in enumerate(rs.edges) if k >> i & 1)
            assert (f, cut) == (None, None)
            assert (size, c) == (len(a), mg.components(g, a))
            assert row_d == (len(full - a), mg.components(d.underlying(), full - a),
                             rb.trace_boundary(d, full - a).f, None)


def test_dual_sweep_matches_oracles():
    for rs in corpus.cellular_corpus():
        if len(rs.edges) > 6:
            continue
        d = rb.dual(rs)
        full = rs.edge_set()
        for k, row in enumerate(sweeps.dual_sweep(rs)):
            a = frozenset(e for i, e in enumerate(rs.edges) if k >> i & 1)
            assert row == (len(a), mg.components(rs.underlying(), a),
                           rb.boundary_count(rs, a), rb.euler_genus(rs, a),
                           mg.components(d.underlying(), full - a),
                           rb.boundary_count(d, full - a),
                           rb.euler_genus(d, full - a))
            assert row.f == row.f_dual


def test_subset_sweep_rejects_foreign_cut():
    g = corpus.theta_torus().underlying()
    with pytest.raises(rb.RibbonError):
        list(sweeps.subset_sweep(g, mg.delete_edge(g, 1)))
    with pytest.raises(rb.RibbonError):
        rb.transfer_tally(g, mg.delete_edge(g, 1))


# ---------------------------------------------------------------------------
# the transfer tallies against the sweeps


def test_transfer_tally_matches_subset_sweep():
    # Pinched sectors, sign -1 bands, disconnected graphs and surfaces,
    # with and without the ribbon and the dagger graph.
    checked = 0
    for emb in corpus.main_corpus():
        rs, dagger = emb.rotation, em.derive_dagger(emb).dagger
        g = rs.underlying()
        for args in ((rs,), (rs, dagger), (g, dagger), (g,)):
            assert rb.transfer_tally(*args) == Counter(sweeps.subset_sweep(*args)), args
            checked += 1
    assert checked == 832


def test_dual_tally_matches_dual_sweep():
    for rs in corpus.cellular_corpus():
        assert rb.dual_tally(rs) == Counter(sweeps.dual_sweep(rs)), rs
        assert rs.dual_tally == Counter(sweeps.dual_sweep(rs, rs.dual)), rs


def _edge_cases():
    two = mg.Multigraph((0, 1), {})
    bare = rb.RotationSystem({0: ((),)}, {})
    # vertex 2 is isolated: one bare sector, no edge
    isolated = rb.RotationSystem.single({0: ((1, 0),), 1: ((1, 1),), 2: ()}, {1: 1})
    # a pinch vertex whose second sector is bare
    pinched = rb.RotationSystem({0: (((1, 0), (1, 1)), ())}, {1: -1})
    # a plane loop beside a twisted bouquet of two loops
    apart = rb.RotationSystem.single(
        {0: ((1, 0), (1, 1)), 5: ((2, 0), (3, 0), (2, 1), (3, 1))},
        {1: 1, 2: -1, 3: 1})
    return [
        ("bare sector", (bare,), {(0, 1, 1, None): 1}),
        ("bare sector and cut", (bare, two), {(0, 1, 1, 2): 1}),
        ("bare multigraph", (two,), {(0, 2, None, None): 1}),
        ("isolated vertex", (isolated,), {(0, 3, 3, None): 1, (1, 2, 2, None): 1}),
        ("pinch", (pinched,), {(0, 1, 2, None): 1, (1, 1, 2, None): 1}),
        ("plane loop", (corpus.plane_loop(),),
         {(0, 1, 1, None): 1, (1, 1, 2, None): 1}),
        ("twisted loop", (corpus.proj_loop(),),
         {(0, 1, 1, None): 1, (1, 1, 1, None): 1}),
        ("disconnected", (apart,), None),
        ("disconnected, dual cut", (apart, rb.dual(apart).underlying()), None),
    ]


@pytest.mark.parametrize("name, args, want", _edge_cases(),
                         ids=[case[0] for case in _edge_cases()])
def test_transfer_tally_edge_cases(name, args, want):
    got = rb.transfer_tally(*args)
    assert got == Counter(sweeps.subset_sweep(*args))
    if want is not None:
        assert got == want
    assert sum(got.values()) == 2 ** len(args[0].edges)


def test_dual_tally_on_a_disconnected_graph():
    apart = rb.RotationSystem.single(
        {0: ((1, 0), (1, 1)), 5: ((2, 0), (3, 0), (2, 1), (3, 1))},
        {1: 1, 2: -1, 3: 1})
    assert rb.dual_tally(apart) == Counter(sweeps.dual_sweep(apart))


# ---------------------------------------------------------------------------
# first witnesses on forced tallies against the sweeps


def _first(pairs, bad):
    """The first (decision, row) pair of a sweep whose row is in bad."""
    return next((what, row) for what, row in pairs if row in bad)


def _counted(tally, runs):
    def counted(forced):
        runs.append(dict(forced))
        return tally(forced=forced)

    return counted


def test_first_witness_is_the_first_swept_subset_and_state():
    # Random sets of bad rows and keys: the witness on forced tallies is
    # the first subset, in mask order, and the first state, in
    # itertools.product order, with a bad row, after at most |E| and
    # 2|E| runs.
    rng = random.Random(16)
    cases = Counter()
    while cases["state"] < 40:
        n = rng.randint(1, 7)
        rs = corpus.random_rotation(rng, rng.randint(1, 4), n,
                                    allow_pinch=rng.random() < 0.3)
        g = rs.underlying()
        cut = corpus.random_rotation(rng, rng.randint(1, 4), n).underlying()
        subsets = [("plain", partial(rb.transfer_tally, rs), sweeps.subset_sweep(rs)),
                   ("cut", partial(rb.transfer_tally, rs, cut),
                    sweeps.subset_sweep(rs, cut)),
                   ("bare", partial(rb.transfer_tally, g), sweeps.subset_sweep(g))]
        if not rs.pinch_vertices():
            subsets.append(("dual", partial(rb.dual_tally, rs),
                            sweeps.dual_sweep(rs)))
        for name, tally, rows in subsets:
            rows = list(rows)
            distinct = sorted(set(rows), key=repr)
            bad = set(rng.sample(distinct, rng.randint(1, len(distinct))))
            runs = []
            inside, row = rb.first_witness(_counted(tally, runs), rs.edges[::-1],
                                           2, bad)
            mask = sum(inside[e] << i for i, e in enumerate(rs.edges))
            assert (mask, row) == _first(enumerate(rows), bad), (name, rs)
            assert len(runs) <= n
            cases[name] += 1
        if rs.pinch_vertices() or mg.components(g) != 1:
            continue
        states = list(sweeps.state_sweep(rs))
        keys = sorted({key for _, key in states})
        bad = set(rng.sample(keys, rng.randint(1, len(keys))))
        runs = []
        chosen, key = rb.first_witness(
            _counted(partial(rb.state_tally, rs, rb.medial(rs)), runs),
            rs.edges, 3, bad)
        combo = tuple(rb.STATE_NAMES[chosen[e]] for e in rs.edges)
        assert (combo, key) == _first(states, bad), rs
        assert len(runs) <= 2 * n
        cases["state"] += 1
    assert min(cases.values()) >= 40


# ---------------------------------------------------------------------------
# frozen hand traces


def test_plane_edge_full_trace():
    tr = rb.trace_boundary(corpus.plane_edge())
    assert tr.f == 1
    (c,) = tr.circles
    assert c.visits == ((1, 0, 0), (1, 1, 1), (1, 1, 0), (1, 0, 1))
    assert c.sides == ((1, rb.LEFT), (1, rb.RIGHT))
    assert c.entry_ends == (0, 1)
    assert c.home is None


def test_plane_loop_has_two_circles():
    assert rb.boundary_count(corpus.plane_loop()) == 2
    assert rb.euler_genus(corpus.plane_loop()) == 0


def test_twisted_loop_has_one_circle():
    assert rb.boundary_count(corpus.proj_loop()) == 1
    assert rb.euler_genus(corpus.proj_loop()) == 1
    assert not rb.is_orientable(corpus.proj_loop())


def test_theta_on_torus():
    theta = corpus.theta_torus()
    assert rb.boundary_count(theta) == 1
    assert rb.euler_genus(theta) == 2
    assert rb.is_orientable(theta)


def test_interleaved_bouquet_fills_torus():
    b = corpus.bouquet_torus()
    assert rb.boundary_count(b) == 1
    assert rb.euler_genus(b) == 2
    assert rb.is_orientable(b)


def test_klein_bouquet():
    k = corpus.klein_bouquet()
    assert rb.boundary_count(k) == 1
    assert rb.euler_genus(k) == 2
    assert not rb.is_orientable(k)


def test_is_orientable_by_its_definition():
    # Orientable iff some orientation per sector leaves every band
    # untwisted: reflecting a disc twists each band with one end on it.
    seen = Counter()
    systems = [emb.rotation for emb in corpus.main_corpus()]
    for rs in systems + corpus.cellular_corpus():
        homes = [home for home, _ in rb.all_sectors(rs)]
        if len(homes) > 12:
            continue
        index = {home: k for k, home in enumerate(homes)}
        bands = [(index[rs.half_home[e, 0]], index[rs.half_home[e, 1]], rs.signs[e] < 0)
                 for e in rs.edges]
        want = any(all((flip >> u ^ flip >> w ^ twisted) & 1 == 0
                       for u, w, twisted in bands)
                   for flip in range(1 << len(homes)))
        assert rb.is_orientable(rs) == want, rs
        seen[want] += 1
    assert seen[True] > 50 and seen[False] > 50, seen


def test_digon_is_planar():
    assert rb.boundary_count(corpus.plane_digon()) == 2
    assert rb.euler_genus(corpus.plane_digon()) == 0


def test_empty_sector_circle():
    rs = rb.RotationSystem({0: ((),), 1: (((1, 0), (1, 1)),)}, {1: 1})
    tr = rb.trace_boundary(rs)
    assert tr.f == 3
    homes = [c.home for c in tr.circles if c.home is not None]
    assert homes == [(0, 0)]


def test_subset_trace_is_induced():
    theta = corpus.theta_torus()
    assert rb.boundary_count(theta, frozenset()) == 2
    assert rb.boundary_count(theta, {1}) == 1
    assert rb.euler_genus(theta, {1}) == 0


def test_a_rotation_system_traces_itself_once(monkeypatch):
    # Every reader of the full trace shares the system's one trace; a
    # proper subset traces again, and every new system traces itself.
    traces = []
    real = rb.trace_sectors

    def counting(*args):
        traces.append(real(*args))
        return traces[-1]

    monkeypatch.setattr(rb, "trace_sectors", counting)
    rs = corpus.theta_torus()
    shared = [rb.trace_boundary(rs), rb.trace_boundary(rs, rs.edges),
              em.with_disc_regions(rs).trace]
    rb.dual(rs)
    assert (rb.euler_genus(rs), rb.boundary_count(rs), st.surface_kind(rs)) == (
        2, 1, "torus")
    assert len(traces) == 1
    assert all(t is traces[0] for t in shared + [rs.trace])

    part = rb.trace_boundary(rs, {1, 2})
    assert len(traces) == 2 and part is traces[1] and part.f == 2
    assert rs.trace is traces[0]

    made = [rb.twist(rs, [1]), rb.delete_edge(rs, 1), rb.contract_edge(rs, 1),
            rb.dual(rs)]
    for g in made:
        assert g.trace is traces[-1]
        assert g.trace == rb.RotationSystem(g.sectors, g.signs).trace
    assert len(traces) == 2 + 2 * len(made)
    assert all(g.trace != rs.trace for g in made[:2])


def test_inputs_keep_what_they_derive_whole():
    # The dual, the unforced dual tally (read-only), the underlying graph,
    # the validation report and the scheme are made once and kept; a
    # forced tally is never kept.
    rs = corpus.theta_torus()
    assert rs.dual is rs.dual and rs.dual == rb.dual(rs)
    assert rs.underlying() is rs.underlying()
    rows = rs.dual_tally
    assert rows is rs.dual_tally and rows == rb.dual_tally(rs)
    with pytest.raises(TypeError):
        rows[next(iter(rows))] = 0
    forced = rb.dual_tally(rs, forced={1: 1})
    assert sum(forced.values()) == 4 and rs.dual_tally is rows
    emb = em.with_disc_regions(rs)
    assert emb.report is emb.report and emb.report == em.validate(emb)
    assert emb.scheme is emb.scheme and emb.scheme == em.derive_dagger(emb)


# ---------------------------------------------------------------------------
# validation


def test_rejects_bad_sign():
    with pytest.raises(rb.RibbonError):
        rb.RotationSystem.single({0: ((1, 0), (1, 1))}, {1: 0})


def test_rejects_missing_half():
    with pytest.raises(rb.RibbonError):
        rb.RotationSystem.single({0: ((1, 0),)}, {1: 1})


def test_rejects_duplicate_half():
    with pytest.raises(rb.RibbonError):
        rb.RotationSystem.single({0: ((1, 0), (1, 0))}, {1: 1})


def test_pinch_accessors():
    rs = rb.RotationSystem(
        {0: (((1, 0), (1, 1)), ((2, 0), (2, 1)))}, {1: 1, 2: 1})
    assert rs.pinch_vertices() == (0,)
    with pytest.raises(rb.RibbonError):
        rs.rotation(0)
    with pytest.raises(rb.RibbonError):
        rb.dual(rs)
    with pytest.raises(rb.RibbonError):
        rb.medial(rs)


# ---------------------------------------------------------------------------
# twisting


def test_twist_toggles_loop():
    loop = corpus.plane_loop()
    twisted = rb.twist(loop, {1})
    assert twisted.signs[1] == -1
    assert rb.boundary_count(twisted) == 1
    assert rb.twist(twisted, {1}) == loop


def test_twist_preserves_underlying_graph():
    theta = corpus.theta_torus()
    assert rb.twist(theta, {2}).underlying() == theta.underlying()


# ---------------------------------------------------------------------------
# duality


def _random_pinchfree(rng):
    while True:
        rs = corpus.random_rotation(rng, rng.randint(1, 4), rng.randint(1, 6),
                                    allow_pinch=False)
        return rs


def test_dual_swaps_circles_and_vertices():
    rng = random.Random(9)
    for _ in range(20):
        rs = _random_pinchfree(rng)
        d = rb.dual(rs)
        assert len(d.sectors) == rb.boundary_count(rs)
        assert rb.boundary_count(d) == len(rs.sectors)
        assert rb.euler_genus(d) == rb.euler_genus(rs)


def test_dual_complements_subsets():
    rng = random.Random(10)
    for _ in range(12):
        rs = _random_pinchfree(rng)
        d = rb.dual(rs)
        edges = rs.edge_set()
        for a in all_subsets(sorted(edges)):
            assert rb.boundary_count(d, edges - a) == rb.boundary_count(rs, a)


def test_double_dual_boundary_profile():
    rng = random.Random(11)
    for _ in range(12):
        rs = _random_pinchfree(rng)
        dd = rb.dual(rb.dual(rs))
        assert dd.edge_set() == rs.edge_set()
        assert ([f for _, _, f, _ in sweeps.subset_sweep(rs)]
                == [f for _, _, f, _ in sweeps.subset_sweep(dd)])


def test_theta_dual_is_onevertex():
    d = rb.dual(corpus.theta_torus())
    assert len(d.sectors) == 1
    assert rb.euler_genus(d) == 2


# ---------------------------------------------------------------------------
# contraction


def test_contract_plane_edge_dying_circle():
    contracted = rb.contract_edge(corpus.plane_edge(), 1)
    assert len(contracted.sectors) == 1
    assert contracted.sectors[0] == ((),)
    assert rb.boundary_count(contracted) == 1


def test_contract_merges_to_min_vertex():
    rs = rb.RotationSystem.single(
        {3: ((1, 0),), 7: ((1, 1), (2, 0), (2, 1))}, {1: 1, 2: 1})
    contracted = rb.contract_edge(rs, 1)
    assert set(contracted.sectors) == {3}


def test_contract_loop_raises():
    with pytest.raises(rb.RibbonError):
        rb.contract_edge(corpus.plane_loop(), 1)


def test_contract_preserves_subset_traces():
    rng = random.Random(12)
    checked = 0
    while checked < 15:
        rs = corpus.random_rotation(rng, rng.randint(2, 4), rng.randint(1, 5))
        nonloops = [e for e in rs.edges if not rs.is_loop(e)]
        if not nonloops:
            continue
        e = rng.choice(nonloops)
        contracted = rb.contract_edge(rs, e)
        rest = sorted(rs.edge_set() - {e})
        for a in all_subsets(rest):
            assert (rb.boundary_count(contracted, a)
                    == rb.boundary_count(rs, a | {e}))
            assert (rb.euler_genus(contracted, a)
                    == rb.euler_genus(rs, a | {e}))
        checked += 1


def test_contract_signed_edge():
    # contracting a twisted edge first untwists it by flipping one end
    rs = rb.RotationSystem.single(
        {0: ((1, 0), (2, 0)), 1: ((1, 1), (2, 1))}, {1: -1, 2: -1})
    contracted = rb.contract_edge(rs, 1)
    assert contracted.edge_set() == frozenset({2})
    assert rb.boundary_count(contracted, {2}) == rb.boundary_count(rs, {1, 2})


def test_delete_edge():
    theta = corpus.theta_torus()
    d = rb.delete_edge(theta, 2)
    assert d.edge_set() == frozenset({1, 3})
    assert rb.boundary_count(d) == rb.boundary_count(theta, {1, 3})


# ---------------------------------------------------------------------------
# medial graphs


def test_medial_of_twisted_loop():
    mm = rb.medial(corpus.proj_loop())
    assert mm.medial.sectors == {1: (((1, 1), (0, 0), (1, 0), (0, 1)),)}
    assert mm.medial.signs == {0: -1, 1: -1}
    assert rb.boundary_count(mm.medial) == 2
    assert rb.euler_genus(mm.medial) == 1


def test_medial_of_plane_edge():
    mm = rb.medial(corpus.plane_edge())
    assert mm.medial.sectors == {1: (((0, 1), (0, 0), (1, 1), (1, 0)),)}
    assert mm.medial.signs == {0: 1, 1: 1}
    assert rb.boundary_count(mm.medial) == 3
    assert rb.euler_genus(mm.medial) == 0


def test_medial_rejects_edgeless_and_disconnected():
    with pytest.raises(rb.RibbonError):
        rb.medial(rb.RotationSystem({0: ((),)}, {}))
    two = rb.RotationSystem(
        {0: (((1, 0), (1, 1)),), 1: (((2, 0), (2, 1)),)}, {1: 1, 2: 1})
    with pytest.raises(rb.RibbonError):
        rb.medial(two)


def test_medial_invariants_on_cellular_corpus():
    for rs in corpus.cellular_corpus()[:20]:
        mm = rb.medial(rs)
        assert rb.boundary_count(mm.medial) == (len(rs.sectors)
                                                + rb.boundary_count(rs))
        assert rb.euler_genus(mm.medial) == rb.euler_genus(rs)


def test_medial_faces_recover_graph_and_dual():
    for rs in corpus.cellular_corpus()[:20]:
        mm = rb.medial(rs)
        black, white = rb.medial_faces(mm)
        for v, stations in black.items():
            want = [e for (e, _end) in rs.rotation(v)]
            assert rb.cyclic_forms_equal(stations, want)
        dual_rot = [[e for (e, _end) in circle.sides]
                    for circle in rb.trace_boundary(rs).circles]
        used = [False] * len(dual_rot)
        for stations in white:
            hit = False
            for i, want in enumerate(dual_rot):
                if not used[i] and rb.cyclic_forms_equal(stations, want):
                    used[i] = hit = True
                    break
            assert hit, f"white face {stations} matches no dual vertex"
        assert all(used)


def test_cyclic_forms_equal():
    assert rb.cyclic_forms_equal([1, 2, 3], [2, 3, 1])
    assert rb.cyclic_forms_equal([1, 2, 3], [3, 2, 1])  # reflection allowed
    assert not rb.cyclic_forms_equal([1, 2, 3], [1, 3, 2, 2])
    assert rb.cyclic_forms_equal([], [])

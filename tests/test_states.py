"""State counting on medials and the low-genus formulas."""

import itertools
import random
from collections import Counter

import pytest

import corpus
import sweeps
from topopoly import embedding as em
from topopoly import multigraph as mg
from topopoly import poly
from topopoly import ribbon as rb
from topopoly import states as st
from topopoly.mpoly import MPolynomial
from topopoly.ribbon import BLACK, CROSSING, WHITE


def test_split_state_validates():
    loop = corpus.plane_loop()
    with pytest.raises(st.StateError):
        st.split_state(loop, {})
    with pytest.raises(st.StateError):
        st.split_state(loop, {1: "magenta"})
    w, b, c = st.split_state(loop, {1: WHITE})
    assert (w, b, c) == (frozenset({1}), frozenset(), frozenset())


def test_twisted_loop_state_counts():
    # worked out by hand on the projective plane
    ploop = corpus.proj_loop()
    mm = rb.medial(ploop)
    for state, want in (({1: BLACK}, 1), ({1: WHITE}, 1), ({1: CROSSING}, 2)):
        assert st.state_components(ploop, state) == want
        assert st.medial_state_components(mm, state) == want


def test_plane_loop_state_counts():
    loop = corpus.plane_loop()
    mm = rb.medial(loop)
    for state, want in (({1: BLACK}, 1), ({1: WHITE}, 2), ({1: CROSSING}, 1)):
        assert st.state_components(loop, state) == want
        assert st.medial_state_components(mm, state) == want


def test_circle_counter_matches_twist_and_trace_on_every_state():
    # The graph route of the state checks: black drops the band, white
    # keeps it, crossing twists it.
    checked = 0
    for rs in corpus.cellular_corpus():
        if len(rs.edges) > 6:
            continue
        count = rb.circle_counter(rs)
        band = [3 if rs.signs[e] > 0 else 2 for e in rs.edges]
        for combo in itertools.product(rb.STATE_NAMES, repeat=len(band)):
            pairing = [{BLACK: 1, WHITE: b, CROSSING: b ^ 1}[s]
                       for s, b in zip(combo, band)]
            state = dict(zip(rs.edges, combo))
            assert count(pairing) == st.state_components(rs, state), state
            checked += 1
    assert checked == 8685


def test_medial_state_counter_matches_glued_half_edges():
    # The reference glues all medial half-edges per state, corners too.
    checked = 0
    for rs in corpus.cellular_corpus():
        if len(rs.edges) > 6:
            continue
        mm = rb.medial(rs)
        count = st.medial_state_counter(mm)
        for combo in itertools.product(rb.STATE_NAMES, repeat=len(rs.edges)):
            # A union-find of its own, sharing no code with the counter.
            parent = {h: h for h in mm.medial.half_home}

            def find(h):
                while parent[h] != h:
                    h = parent[h]
                return h

            glued = [((cid, 0), (cid, 1)) for cid in mm.corners]
            for e, s in zip(rs.edges, combo):
                glued += mm.pairings[e][s]
            for p, q in glued:
                parent[find(p)] = find(q)
            curves = sum(parent[h] == h for h in parent)
            state = dict(zip(rs.edges, combo))
            assert count(combo) == curves == st.medial_state_components(mm, state)
            checked += 1
    assert checked == 8685


def test_theta_profile():
    assert st.run_state_checks(corpus.theta_torus())[1] == {1: 4, 2: 4}


def test_component_formula_on_theta():
    theta = corpus.theta_torus()
    for w in (frozenset(), {1}, {1, 2}, {1, 2, 3}):
        state = {e: (WHITE if e in w else BLACK) for e in theta.edges}
        report = st.lv_component_formula(theta, state)
        assert report.agrees
        assert report.components == rb.boundary_count(theta, frozenset(w))


def test_component_formula_rejects_crossings():
    with pytest.raises(st.StateError):
        st.lv_component_formula(corpus.plane_loop(), {1: CROSSING})


def test_surface_kinds():
    assert st.surface_kind(corpus.plane_digon()) == "sphere"
    assert st.surface_kind(corpus.proj_loop()) == "projective-plane"
    assert st.surface_kind(corpus.theta_torus()) == "torus"
    with pytest.raises(st.GenusRangeError, match="Klein"):
        st.surface_kind(corpus.klein_bouquet())


def test_surface_kind_rejects_high_genus():
    rs = rb.RotationSystem.single(
        {0: ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (3, 1), (4, 1))},
        {1: 1, 2: 1, 3: 1, 4: 1})
    assert rb.euler_genus(rs) == 4
    with pytest.raises(st.GenusRangeError):
        st.surface_kind(rs)


def _lr_relation(rs):
    """lr-relation on the inputs run_state_checks hands it, with R from
    its own expansion."""
    return st.lr_relation(rs, Counter(sweeps.dual_sweep(rs, rs.dual)),
                          poly.bollobas_riordan(rs), st.surface_kind(rs))


def test_lr_relation_on_low_genus_fixtures():
    for rs in (corpus.plane_edge(), corpus.plane_digon(), corpus.proj_loop(),
               corpus.theta_torus(), corpus.bouquet_torus()):
        res = _lr_relation(rs)
        assert res.status == "pass", res.line()


def test_generating_function_check():
    theta = corpus.theta_torus()
    r_poly = poly.bollobas_riordan(theta)
    profile = st.run_state_checks(theta)[1]
    assert st.generating_function_check(r_poly, profile).status == "pass"
    res = st.generating_function_check(r_poly, {**profile, 1: 5})
    assert (res.status, res.detail) == (
        "fail", "diagonal gives [(1, 4), (2, 4)], profile is [(1, 5), (2, 4)]")


def test_run_state_checks_on_fixtures():
    for rs in (corpus.theta_torus(), corpus.plane_digon(), corpus.proj_loop(),
               corpus.bouquet_torus()):
        results, _ = st.run_state_checks(rs)
        bad = [r.line() for r in results if r.failed]
        assert not bad, bad
        assert [r.name for r in results] == [
            "state-tracer-agreement", "noncrossing-min-formula",
            "state-generating-function", "lr-relation", "quasi-tree-duality"]


def test_run_state_checks_gates_klein():
    results = {r.name: r for r in st.run_state_checks(corpus.klein_bouquet())[0]}
    assert results["state-tracer-agreement"].status == "pass"
    assert results["noncrossing-min-formula"].status == "skip"
    assert results["lr-relation"].status == "skip"
    assert results["quasi-tree-duality"].status == "pass"


def test_run_state_checks_preconditions():
    with pytest.raises(st.StateError):
        st.run_state_checks(rb.RotationSystem(
            {0: (((1, 0), (1, 1)),), 1: (((2, 0), (2, 1)),)}, {1: 1, 2: 1}))
    with pytest.raises(poly.CapError):
        st.run_state_checks(corpus.theta_torus(), sweep_cap=2)


# ---------------------------------------------------------------------------
# failures are fail lines, and the sweep is shared


def _twist_one_dual_edge(monkeypatch):
    real = rb.dual

    def dual(g):
        d = real(g)
        return rb.twist(d, [min(d.edges)])

    monkeypatch.setattr(rb, "dual", dual)


def test_broken_dual_fails_quasi_tree_duality(monkeypatch):
    _twist_one_dual_edge(monkeypatch)
    results = {r.name: r for r in st.run_state_checks(corpus.theta_torus())[0]}
    res = results["quasi-tree-duality"]
    assert (res.status, res.detail) == (
        "fail", "deleted [1, 2, 3]: G - A has 2 boundary circles, "
                "G* on A has 1")


def test_broken_dual_names_its_lr_witness_on_the_same_dual(monkeypatch):
    # lr-relation names its bad subset on forced tallies of the dual whose
    # rows failed: the checks build that dual once.
    _twist_one_dual_edge(monkeypatch)
    calls = []
    twisted = rb.dual
    monkeypatch.setattr(rb, "dual", lambda g: calls.append(g) or twisted(g))
    results = {r.name: r for r in st.run_state_checks(corpus.theta_torus())[0]}
    assert len(calls) == 1
    assert results["lr-relation"].line() == (
        "RESULT: lr-relation fail: no cellular polynomial: odd genus split on []")


def test_forced_gate_fails_instead_of_raising(monkeypatch):
    # the genus-4 bouquet of test_surface_kind_rejects_high_genus
    rs = rb.RotationSystem.single(
        {0: ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (3, 1), (4, 1))},
        {1: 1, 2: 1, 3: 1, 4: 1})
    monkeypatch.setattr(st, "surface_kind", lambda g, gamma=None: "torus")
    results = {r.name: r for r in st.run_state_checks(rs)[0]}
    details = {name: (r.status, r.detail) for name, r in results.items()}
    assert details["noncrossing-min-formula"] == (
        "fail", "white set [1, 2]: minimum 3, curves 1")
    assert details["lr-relation"] == ("fail", "z-degree 4 on a torus graph")
    assert details["quasi-tree-duality"] == (
        "fail", "deleted [3, 4]: quasi-tree True but spanning-tree "
                "dichotomy says False")


def _corrupt_medial(monkeypatch):
    # The medial smooths every crossing as black: the medial layer of
    # the state tally, and the per-state medial count, both read it.
    real = rb.medial

    def medial(g):
        mm = real(g)
        return rb.MedialMap(mm.medial, mm.corners, {
            e: {**pairs, CROSSING: pairs[BLACK]}
            for e, pairs in mm.pairings.items()})

    monkeypatch.setattr(rb, "medial", medial)


def _corrupt_counter(monkeypatch):
    # The graph drops the band of every crossing edge: the circle layer
    # of the state tally, and the per-state circle count, both read it.
    monkeypatch.setattr(rb, "smoothing_pairings", lambda band: (1, band, 1))


@pytest.mark.parametrize("corrupt, detail", [
    (_corrupt_medial, "medial 2, graph 1"),
    (_corrupt_counter, "medial 1, graph 2")])
def test_one_curve_off_on_crossing_states_fails_agreement(monkeypatch, corrupt,
                                                          detail):
    corrupt(monkeypatch)
    results = {r.name: r for r in st.run_state_checks(corpus.theta_torus())[0]}
    res = results["state-tracer-agreement"]
    assert (res.status, res.detail) == (
        "fail", "state ('black', 'black', 'crossing') on edges [1, 2, 3]: "
        + detail)
    # Only crossing states were corrupted; the sweep rows are untouched.
    assert results["quasi-tree-duality"].status == "pass"


def test_a_tally_off_the_diagonal_fails_agreement_alone(monkeypatch):
    # The medial layer closes one more curve on every crossing, but each
    # state counted alone agrees: the check still fails, and names the
    # first state the tally misplaces with its counts both ways.
    real = rb._medial_moves

    def medial_moves(mm, order):
        moves, base = real(mm, order)

        def corrupt(move):
            return lambda part: [(p, c + (s == CROSSING)) for s, (p, c)
                                 in zip(rb.STATE_NAMES, move(part))]

        return [corrupt(move) for move in moves], base

    monkeypatch.setattr(rb, "_medial_moves", medial_moves)
    results = {r.name: r for r in st.run_state_checks(corpus.theta_torus())[0]}
    res = results["state-tracer-agreement"]
    assert (res.status, res.detail) == (
        "fail", "the state tally puts state ('black', 'black', 'crossing') on "
                "edges [1, 2, 3] at medial 2, graph 1, but counted alone it has "
                "medial 1, graph 1")
    assert results["quasi-tree-duality"].status == "pass"


def _per_state(rs):
    """Counter((medial curves, graph curves)) over every state, counted
    one at a time."""
    return Counter(key for _, key in sweeps.state_sweep(rs))


def _connected(rng, n_edges, n):
    out = []
    while len(out) < n:
        rs = corpus.random_rotation(rng, rng.randint(1, 5), n_edges,
                                    allow_pinch=False)
        if mg.components(rs.underlying()) == 1:
            out.append(rs)
    return out


def test_state_tally_equals_the_per_state_counts():
    graphs = corpus.cellular_corpus() + _connected(random.Random(9), 9, 3)
    assert sum(rs.signs[e] < 0 for rs in graphs[-3:] for e in rs.edges)
    for rs in graphs:
        assert rb.state_tally(rs, rb.medial(rs)) == _per_state(rs), rs


def test_state_checks_pass_at_twelve_edges():
    (rs,) = _connected(random.Random(12), 12, 1)
    results = {r.name: r for r in st.run_state_checks(rs, sweep_cap=12)[0]}
    assert results["state-tracer-agreement"].status == "pass"


def test_a_failing_state_check_reruns_its_tally_at_most_twice_per_edge(
        monkeypatch):
    # The state tally's first run, then at most two reruns per edge to
    # name the first state off the diagonal.
    (rs,) = _connected(random.Random(12), 12, 1)
    _corrupt_medial(monkeypatch)
    runs = Counter()
    real = rb._frontier_tally

    def frontier_tally(order, layers, sizes=(0, 1), forced=None):
        runs[len(sizes)] += 1
        return real(order, layers, sizes, forced)

    monkeypatch.setattr(rb, "_frontier_tally", frontier_tally)
    results = {r.name: r for r in st.run_state_checks(rs, sweep_cap=12)[0]}
    res = results["state-tracer-agreement"]
    assert res.status == "fail" and "'crossing'" in res.detail
    assert 1 < runs[3] <= 2 * len(rs.edges) + 1
    assert results["quasi-tree-duality"].status == "pass"


def test_lr_relation_fails_on_half_powers(monkeypatch):
    real = poly._cellular_from_rows
    monkeypatch.setattr(poly, "_cellular_from_rows", lambda *a, **k: (
        real(*a, **k) * MPolynomial.variable_half("z", 1)))
    res = _lr_relation(corpus.theta_torus())
    assert (res.status, res.detail) == (
        "fail", "half-power of z in the cellular polynomial")


def test_state_checks_build_the_dual_a_fixed_number_of_times(monkeypatch):
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(rb, "dual")
    counted(rb, "_frontier_tally")
    counted(rb, "first_witness")
    counted(rb, "dual_tally")
    counted(rb, "twist")
    counted(rb, "trace_sectors")
    counted(st, "state_components")
    counted(st, "lv_component_formula")
    counted(poly, "bollobas_riordan")
    counted(poly, "las_vergnas_cellular")
    seven = next(rs for rs in corpus.cellular_corpus()
                 if len(rs.edges) == 7 and rb.euler_genus(rs) <= 2)
    # The selection traced seven; a fresh system holds no trace yet.
    seven = rb.RotationSystem(seven.sectors, seven.signs)
    per_graph = []
    for rs in (corpus.theta_torus(), seven):     # 27 and 2,187 states
        calls.clear()
        st.run_state_checks(rs)
        per_graph.append(dict(calls))
    # One trace, none per state: the graph's, which gives the dual and
    # the genus of the surface.  Two frontier runs, the dual tally's and
    # the state tally's; no tally is rerun.
    assert per_graph[0] == per_graph[1] == {
        "dual": 1, "dual_tally": 1, "trace_sectors": 1, "_frontier_tally": 2}

"""Region structures, pseudo-surface invariants, schemes, minors."""

import itertools
import random

import pytest

import corpus
import oracles
from topopoly import embedding as em
from topopoly import matroid as mt
from topopoly import multigraph as mg
from topopoly import ribbon as rb


def all_subsets(edges):
    for k in range(len(edges) + 1):
        yield from map(frozenset, itertools.combinations(sorted(edges), k))


# ---------------------------------------------------------------------------
# validation report


def test_disc_closure_is_cellular():
    emb = em.with_disc_regions(corpus.theta_torus())
    rep = em.validate(emb)
    assert rep == em.ValidationReport(1, 0, 2, True)


def test_sphere_edge():
    rep = em.validate(em.with_disc_regions(corpus.plane_edge()))
    assert rep == em.ValidationReport(1, 2, 0, True)


def test_torus_loop_annulus():
    rep = em.validate(corpus.torus_loop_annulus())
    assert rep == em.ValidationReport(1, 0, 2, False)


def test_digon_on_torus():
    rep = em.validate(corpus.digon_torus_annulus())
    assert rep == em.ValidationReport(1, 0, 2, False)


def test_pinched_spheres_have_negative_genus():
    rep = em.validate(corpus.pinched_spheres())
    assert rep.components == 1
    assert rep.euler_characteristic == 3
    assert rep.euler_genus == -1
    assert not rep.cellular


def test_disconnected_surface():
    rs = rb.RotationSystem(
        {0: (((1, 0), (1, 1)),), 1: (((2, 0), (2, 1)),)}, {1: 1, 2: 1})
    rep = em.validate(em.with_disc_regions(rs))
    assert rep.components == 2
    assert rep.euler_characteristic == 4
    assert rep.euler_genus == 0


def test_embedding_rejects_bad_region_data():
    loop = corpus.plane_loop()
    with pytest.raises(em.EmbeddingError):
        em.EmbeddedGraph(loop, {0: 0}, {0: 0})  # circle 1 uncovered
    with pytest.raises(em.EmbeddingError):
        em.EmbeddedGraph(loop, {0: 0, 1: 0, 5: 0}, {0: 0})
    with pytest.raises(em.EmbeddingError):
        em.EmbeddedGraph(loop, {0: 0, 1: 0}, {0: -1})
    with pytest.raises(em.EmbeddingError):
        em.EmbeddedGraph(loop, {0: 0, 1: 0}, {0: 0, 1: 1})  # empty region


# ---------------------------------------------------------------------------
# the region graph and its rank function


def test_theta_dagger_is_three_loops():
    s = em.derive_dagger(em.with_disc_regions(corpus.theta_torus()))
    assert len(s.dagger.vertices) == 1
    assert all(s.dagger.is_loop(e) for e in (1, 2, 3))
    assert em.rho(s, ()) == 1
    assert em.rho(s) == 1


def test_plane_loop_dagger_is_one_edge():
    s = em.derive_dagger(em.with_disc_regions(corpus.plane_loop()))
    assert len(s.dagger.vertices) == 2
    assert em.rho(s, ()) == 1
    assert em.rho(s, {1}) == 2


def test_pinched_dagger_counts_touching_spheres():
    s = em.derive_dagger(corpus.pinched_spheres())
    # regions of the two spheres share no edge band, so the region
    # graph falls apart even though the pseudo-surface is connected
    assert em.rho(s, ()) == 2


def test_rho_is_monotone_with_unit_steps():
    rng = random.Random(3)
    for _ in range(15):
        rs = corpus.random_rotation(rng, rng.randint(1, 4), rng.randint(1, 6))
        s = em.derive_dagger(corpus.close_random(rng, rs))
        edges = sorted(rs.edge_set())
        for a in all_subsets(edges):
            base = em.rho(s, a)
            for e in set(edges) - a:
                step = em.rho(s, a | {e}) - base
                assert step in (0, 1)


def test_bond_rank_matches_rho():
    for emb in corpus.named_embedded():
        s = em.derive_dagger(emb)
        b = mt.bond_matroid(s.dagger)
        rho0 = em.rho(s, ())
        for a in all_subsets(emb.rotation.edge_set()):
            assert b.rank(b.mask(a)) == len(a) - em.rho(s, a) + rho0


def test_scheme_perspective_validates():
    s = em.derive_dagger(em.with_disc_regions(corpus.theta_torus()))
    mp = em.scheme_perspective(s)
    assert mp.m.name == "bond"
    assert mp.m_prime.name == "cycle"


# ---------------------------------------------------------------------------
# scheme minors


def test_scheme_delete_contract_swap_on_dagger():
    s = em.derive_dagger(em.with_disc_regions(corpus.theta_torus()))
    d = em.delete_edge(s, 1)
    c = em.contract_edge(s, 1)
    assert d.g.edge_set() == frozenset({2, 3})
    assert c.g.edge_set() == frozenset({2, 3})
    # deleting in the graph contracts in the region graph and back
    assert len(d.dagger.vertices) == 1
    assert len(c.dagger.vertices) == 1


def test_minor_identities_pointwise():
    # matroid route: deletion in B(dagger) is the bond matroid of the
    # contracted region graph, and dually for contraction
    rng = random.Random(8)
    for _ in range(10):
        rs = corpus.random_rotation(rng, rng.randint(1, 4), rng.randint(1, 5))
        s = em.derive_dagger(corpus.close_random(rng, rs))
        b = mt.bond_matroid(s.dagger)
        for e in rs.edges:
            rest = rs.edge_set() - {e}
            bd = mt.bond_matroid(em.delete_edge(s, e).dagger)
            bc = mt.bond_matroid(em.contract_edge(s, e).dagger)
            md, mc = oracles.delete(b, e), oracles.contract(b, e)
            for a in all_subsets(rest):
                assert bd.rank(bd.mask(a)) == md.rank(md.mask(a))
                assert bc.rank(bc.mask(a)) == mc.rank(mc.mask(a))


# ---------------------------------------------------------------------------
# edge classification


def test_classify_frozen_examples():
    assert em.classify_edge(corpus.torus_loop_annulus(), 1) \
        == em.QUASI_BRIDGE_ONLY
    assert em.classify_edge(em.with_disc_regions(corpus.plane_edge()), 1) \
        == em.BRIDGE
    assert em.classify_edge(em.with_disc_regions(corpus.plane_loop()), 1) \
        == em.QUASI_LOOP
    theta = em.with_disc_regions(corpus.theta_torus())
    assert all(em.classify_edge(theta, e) == em.QUASI_BRIDGE_ONLY
               for e in (1, 2, 3))


def test_classify_ordinary_edge():
    # triangle on the sphere: every edge neither bridge nor quasi-loop
    tri = rb.RotationSystem.single(
        {0: ((1, 0), (3, 0)), 1: ((1, 1), (2, 0)), 2: ((2, 1), (3, 1))},
        {1: 1, 2: 1, 3: 1})
    emb = em.with_disc_regions(tri)
    assert em.validate(emb).euler_genus == 0
    for e in (1, 2, 3):
        assert em.classify_edge(emb, e) == em.ORDINARY


def test_classification_runs_on_corpus_sample():
    for emb in corpus.main_corpus()[:60]:
        for e in emb.rotation.edges:
            em.classify_edge(emb, e)  # internal cross-checks assert


def test_classify_pass_builds_one_bond_matroid(monkeypatch):
    builds = []
    real = mt.bond_matroid

    def counting(g):
        builds.append(g)
        return real(g)

    monkeypatch.setattr(mt, "bond_matroid", counting)
    emb = next(x for x in corpus.main_corpus() if len(x.rotation.edges) == 10)
    classes = [em.classify_edge(emb, e) for e in emb.rotation.edges]
    assert len(classes) == 10 and len(builds) == 1
    # The identity suite's perspective does not share it.
    assert em.scheme_perspective(emb.scheme).m is not emb.scheme.bond


# ---------------------------------------------------------------------------
# complement stats


def test_complement_stats_sphere_edge():
    emb = em.with_disc_regions(corpus.plane_edge())
    st = em.complement_stats(emb, ())
    assert st.components == 1
    assert st.euler_genus == 0
    assert st.neighborhood_genus == 0


def test_complement_stats_torus_loop():
    emb = corpus.torus_loop_annulus()
    full = em.complement_stats(emb, {1})
    assert full.euler_genus == 0          # annulus leftover
    empty = em.complement_stats(emb, ())
    assert empty.euler_genus == 2         # whole torus minus a disc
    assert empty.components == 1


def test_complement_stats_matches_dual_when_cellular():
    rng = random.Random(21)
    for rs in corpus.cellular_corpus()[:12]:
        emb = em.with_disc_regions(rs)
        dual = rb.dual(rs)
        edges = rs.edge_set()
        for a in all_subsets(edges):
            st = em.complement_stats(emb, a)
            comp = edges - a
            assert st.euler_genus == rb.euler_genus(dual, comp)
            assert st.components == mg.components(dual.underlying(), comp)
    del rng


def test_complement_stats_rejects_pinches():
    with pytest.raises((em.EmbeddingError, rb.RibbonError)):
        em.complement_stats(corpus.pinched_spheres(), ())


# ---------------------------------------------------------------------------
# topological minors


def test_delete_theta_edge_leaves_torus():
    emb = em.with_disc_regions(corpus.theta_torus())
    after = em.topological_delete(emb, 1)
    rep = em.validate(after)
    assert rep == em.ValidationReport(1, 0, 2, False)
    assert len(after.region_genus) == 1
    assert list(after.region_genus.values()) == [0]


def test_delete_loop_from_torus_annulus():
    after = em.topological_delete(corpus.torus_loop_annulus(), 1)
    rep = em.validate(after)
    # the band is gone but the handle it wrapped survives
    assert rep.euler_genus == 2
    assert rep.components == 1


def test_delete_sphere_edge():
    emb = em.with_disc_regions(corpus.plane_edge())
    after = em.topological_delete(emb, 1)
    rep = em.validate(after)
    assert rep == em.ValidationReport(1, 2, 0, False)


def test_contract_preserves_surface():
    rng = random.Random(31)
    done = 0
    while done < 12:
        rs = corpus.random_rotation(rng, rng.randint(2, 4), rng.randint(1, 5))
        nonloops = [e for e in rs.edges if not rs.is_loop(e)]
        if not nonloops:
            continue
        emb = corpus.close_random(rng, rs)
        before = em.validate(emb)
        e = rng.choice(nonloops)
        after = em.validate(em.topological_contract(emb, e))
        # sliding along a band removes one vertex and one edge: the
        # surface itself does not change
        assert after.components == before.components
        assert after.euler_characteristic == before.euler_characteristic
        assert after.euler_genus == before.euler_genus
        done += 1


def test_minors_commute_with_scheme():
    rng = random.Random(32)
    done = 0
    while done < 12:
        rs = corpus.random_rotation(rng, rng.randint(2, 4), rng.randint(1, 5))
        emb = corpus.close_random(rng, rs)
        s = em.derive_dagger(emb)
        for e in rs.edges:
            dele = em.topological_delete(emb, e)
            want = em.delete_edge(s, e)
            assert mg.id_respecting_isomorphism(
                em.derive_dagger(dele).dagger, want.dagger) is not None
            if not rs.is_loop(e):
                cont = em.topological_contract(emb, e)
                wantc = em.contract_edge(s, e)
                assert mg.id_respecting_isomorphism(
                    em.derive_dagger(cont).dagger, wantc.dagger) is not None
        done += 1

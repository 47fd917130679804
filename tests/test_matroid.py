"""Rank-oracle matroids: graphic/bond construction, duality, strong maps."""

import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import corpus
import oracles
import sweeps
from topopoly import embedding as em
from topopoly import matroid as mt
from topopoly import multigraph as mg
from topopoly import poly


def triangle():
    return mg.Multigraph((0, 1, 2), {1: (0, 1), 2: (1, 2), 3: (0, 2)})


def loops_and_bridge():
    return mg.Multigraph((0, 1), {1: (0, 0), 2: (0, 1), 3: (1, 1)})


def test_cycle_matroid_ranks():
    m = mt.cycle_matroid(triangle())
    assert m.rank() == 2
    assert m.rank(m.mask({1, 2})) == 2
    assert m.rank(m.mask({1})) == 1
    assert m.rank(m.mask(())) == 0
    # bit i stands for the i-th smallest element
    assert (m.mask({1}), m.mask({1, 3}), m.full) == (0b001, 0b101, 0b111)
    assert mg.subset_ids(m.ground, 0b101) == [1, 3]
    with pytest.raises(mt.MatroidError, match=r"\{4\} not in the ground set"):
        m.mask({1, 4})


def test_rank_rejects_masks_outside_the_ground_set():
    g = triangle()
    bond, cycle = mt.bond_matroid(g), mt.cycle_matroid(g)
    assert bond.rank() == 1
    for m, a in ((bond, 0b1111), (cycle, 0b1000), (cycle, -1), (bond, -1)):
        with pytest.raises(mt.MatroidError, match=rf"mask {a} is outside 0\.\.7"):
            m.rank(a)
    # the ranks inside the ground set are untouched by the failed lookups
    assert [cycle.rank(a) for a in range(8)] == [0, 1, 1, 2, 1, 2, 2, 2]


def test_matroid_masks_match_sweep():
    # Mask k of either matroid names the same edges as row k of the
    # sweep, on pinched and disconnected corpus graphs too.
    checked = 0
    for emb in corpus.main_corpus():
        if len(emb.rotation.edges) > 9:
            continue
        s = em.derive_dagger(emb)
        cycle, bond = mt.cycle_matroid(s.g), mt.bond_matroid(s.dagger)
        v, rho0 = len(s.g.vertices), em.rho(s, ())
        for k, (size, c, c_cut) in enumerate(sweeps.subset_sweep(s.g, s.dagger)):
            assert cycle.rank(k) == v - c
            assert bond.rank(k) == size - c_cut + rho0
            checked += 1
        assert k == cycle.full == bond.full
    assert checked > 10000


def test_loops_and_isthmuses():
    m = mt.cycle_matroid(loops_and_bridge())
    assert mt.is_loop(m, 1) and mt.is_loop(m, 3)
    assert mt.is_isthmus(m, 2)
    b = mt.bond_matroid(loops_and_bridge())
    # loops and isthmuses swap under duality
    assert mt.is_isthmus(b, 1) and mt.is_isthmus(b, 3)
    assert mt.is_loop(b, 2)


def test_dual_rank_formula():
    m = mt.cycle_matroid(triangle())
    d = mt.dual(m)
    n = len(m.ground)
    for ids in [(), (1,), (1, 2), (1, 2, 3), (2, 3)]:
        comp = set(m.ground) - set(ids)
        assert d.rank(d.mask(ids)) == len(ids) + m.rank(m.mask(comp)) - m.rank()
    assert mt.dual(d).rank(m.mask({1, 2})) == m.rank(m.mask({1, 2}))
    assert d.rank() == n - m.rank()


def test_minors():
    m = mt.cycle_matroid(triangle())
    dm = oracles.delete(m, 3)
    cm = oracles.contract(m, 3)
    assert dm.ground == (1, 2) and cm.ground == (1, 2)
    assert dm.rank(dm.mask({1, 2})) == 2
    assert cm.rank(cm.mask({1, 2})) == 1
    assert cm.rank(cm.mask({1})) == 1
    # the middle element: the bit of 3 moves down to where 2's was
    dm, cm = oracles.delete(m, 2), oracles.contract(m, 2)
    assert dm.ground == (1, 3) and cm.ground == (1, 3)
    assert (dm.rank(dm.mask({3})), dm.rank(dm.mask({1, 3}))) == (1, 2)
    assert (cm.rank(cm.mask({3})), cm.rank(cm.mask({1, 3}))) == (1, 1)
    # every element, every subset, against the graph's own minors
    g = triangle()
    for e in g.edges:
        dm, cm = oracles.delete(m, e), oracles.contract(m, e)
        for a in range(dm.full + 1):
            ids = mg.subset_ids(dm.ground, a)
            assert dm.rank(a) == mg.rank(mg.delete_edge(g, e), ids)
            assert cm.rank(a) == mg.rank(mg.contract_edge(g, e), ids)


def test_axioms_on_graphic_matroids():
    rng = random.Random(5)
    for _ in range(6):
        rs = corpus.random_rotation(rng, rng.randint(1, 4), rng.randint(0, 6))
        g = rs.underlying()
        oracles.check_rank_axioms(mt.cycle_matroid(g))
        oracles.check_rank_axioms(mt.bond_matroid(g))


def test_circuits_of_triangle():
    m = mt.cycle_matroid(triangle())
    assert oracles.circuits(m) == [m.mask({1, 2, 3})]
    b = mt.bond_matroid(triangle())
    assert sorted(mg.subset_ids(b.ground, c) for c in oracles.circuits(b)) \
        == [[1, 2], [1, 3], [2, 3]]


def test_is_flat():
    m = mt.cycle_matroid(triangle())
    assert oracles.is_flat(m, m.mask(()))
    assert oracles.is_flat(m, m.mask({1}))
    assert not oracles.is_flat(m, m.mask({1, 2}))  # closure is everything
    assert oracles.is_flat(m, m.mask({1, 2, 3}))


def test_self_perspective_is_valid():
    m = mt.cycle_matroid(triangle())
    mp = mt.make_perspective(m, m)
    assert mp.ground == m.ground


def test_identity_like_perspective():
    # cycle matroid maps onto its contraction-by-nothing; a genuinely
    # different quotient: contract one element on the target side
    m = mt.cycle_matroid(triangle())
    one = m.mask({1})
    target = mt.RankMatroid(m.ground,
                            lambda a: m.rank(a | one) - m.rank(one),
                            name="contracted")
    mp = mt.make_perspective(m, target)
    oracles.check_circuit_refinement(mp)  # raises on failure
    oracles.check_flat_refinement(mp)


def test_perspective_rejects_wrong_order():
    m = mt.cycle_matroid(triangle())
    zero = mt.RankMatroid(m.ground, lambda a: 0, name="zero")
    mt.make_perspective(m, zero)  # everything maps onto rank zero
    with pytest.raises(mt.MatroidError):
        mt.make_perspective(zero, m)


def test_perspective_rejects_cycle_to_bond():
    g = loops_and_bridge()
    with pytest.raises(mt.MatroidError):
        mt.make_perspective(mt.cycle_matroid(g), mt.bond_matroid(g))


def _counted_counters(monkeypatch):
    """Patch component_counter so each per-mask count is tallied."""
    calls = {"mask": 0, "table": 0}
    real_counter, real_table = mg.component_counter, mg.component_table

    def component_counter(g):
        count = real_counter(g)

        def counted(a):
            calls["mask"] += 1
            return count(a)

        return counted

    def component_table(g):
        calls["table"] += 1
        return real_table(g)

    monkeypatch.setattr(mg, "component_counter", component_counter)
    monkeypatch.setattr(mg, "component_table", component_table)
    return calls


def test_exhaustive_walks_read_the_tables(monkeypatch):
    calls = _counted_counters(monkeypatch)
    emb = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10)
    s = em.derive_dagger(emb)
    bond, cycle = mt.bond_matroid(s.dagger), mt.cycle_matroid(s.g)
    calls["mask"] = 0
    mp = mt.make_perspective(bond, cycle)
    t = poly.tutte_perspective(mp)
    assert calls == {"mask": 0, "table": 2}
    # rank reads the tables too, and they agree with the oracles
    assert [bond.rank(a) for a in range(bond.full + 1)] == list(bond.table())
    assert calls["mask"] == 0
    fresh_bond, fresh_cycle = mt.bond_matroid(s.dagger), mt.cycle_matroid(s.g)
    assert list(bond.table()) == [fresh_bond.rank(a) for a in range(bond.full + 1)]
    assert list(cycle.table()) == [fresh_cycle.rank(a) for a in range(cycle.full + 1)]
    assert t == oracles.perspective_recursion(mp)


def test_point_queries_build_no_table(monkeypatch):
    calls = _counted_counters(monkeypatch)
    real = mt.RankMatroid.table

    def table(self):
        calls["table"] += 1
        return real(self)

    monkeypatch.setattr(mt.RankMatroid, "table", table)
    for emb in corpus.main_corpus():
        if len(emb.rotation.edges) >= 8:
            s = emb.scheme
            for e in s.g.edges:
                em.classify_edge(emb, e)
            m = mt.cycle_matroid(s.g)
            minor = oracles.contract(oracles.delete(m, s.g.edges[0]), s.g.edges[-1])
            oracles.is_flat(minor, 0)
    assert calls["table"] == 0 and calls["mask"] > 0


def _first_fall(m, m_prime):
    """The witness of the point-query domination walk, in mask order."""
    for a in range(m.full):
        for i, e in enumerate(m.ground):
            b = 1 << i
            if not a & b and (m.rank(a | b) - m.rank(a)
                              < m_prime.rank(a | b) - m_prime.rank(a)):
                return (f"not a perspective: rank step of M at "
                        f"A={mg.subset_ids(m.ground, a)}, e={e} is below M'")
    return None


def test_exhaustive_domination_names_the_first_witness():
    rng = random.Random(8)
    pairs = []
    for _ in range(12):
        g = corpus.random_rotation(rng, rng.randint(1, 4),
                                   rng.randint(1, 8)).underlying()
        h = corpus.random_rotation(rng, rng.randint(1, 4), len(g.edges)).underlying()
        pairs += [(mt.cycle_matroid(g), mt.bond_matroid(g)),
                  (mt.cycle_matroid(g), mt.cycle_matroid(h)),
                  (mt.bond_matroid(h), mt.cycle_matroid(g))]
    # Thirteen elements: every subset is checked above twelve too.
    g, h = (corpus.random_rotation(rng, 4, 13).underlying() for _ in range(2))
    pairs.append((mt.bond_matroid(h), mt.cycle_matroid(g)))
    seen = 0
    for m, m_prime in pairs:
        want = _first_fall(mt.RankMatroid(m.ground, m.rank),
                           mt.RankMatroid(m.ground, m_prime.rank))
        if want is None:
            mt.make_perspective(m, m_prime)
            continue
        seen += 1
        with pytest.raises(mt.MatroidError) as err:
            mt.make_perspective(m, m_prime)
        assert str(err.value) == want
    assert seen > 5 and want is not None and len(m.ground) == 13


def test_an_oracle_table_is_a_byte_per_mask():
    m = mt.RankMatroid((4, 7, 9), lambda a: min(a.bit_count(), 2), name="u23")
    assert m.table() == bytearray([0, 1, 1, 2, 1, 2, 2, 2])
    for g in (triangle(), loops_and_bridge()):
        for m in (mt.cycle_matroid(g), mt.bond_matroid(g)):
            assert type(m.table()) is bytearray and len(m.table()) == 8


@pytest.mark.parametrize("bad", [-1, 256])
def test_an_oracle_rank_outside_a_byte_raises(bad):
    m = mt.RankMatroid((1, 2), lambda a: bad if a == 2 else a.bit_count())
    assert m.rank(2) == bad         # point queries keep the oracle's value
    with pytest.raises(ValueError):
        mt.RankMatroid((1, 2), m.rank).table()


def test_a_dual_rank_outside_a_byte_raises_and_never_borrows():
    # r*(A) = |A| + r(E - A) - r(E): below 0 at A = {1} and {2} with
    # r = 3 on E alone, above 255 at A = E with r = 255 on the empty set.
    # A lane that borrowed or wrapped would leave a byte in range.
    ranks = {"low": [0, 0, 0, 3], "high": [255, 0, 0, 0]}
    for name, r in ranks.items():
        with pytest.raises(mt.MatroidError, match="outside 0..255"):
            mt.dual(mt.RankMatroid((1, 2), r.__getitem__, name=name)).table()
    # Up to the edges of the range every lane is exact.
    for r, want in (([253, 0, 0, 0], [0, 1, 1, 255]),
                    ([200, 1, 250, 0], [0, 251, 2, 202])):
        assert list(mt.dual(mt.RankMatroid((1, 2), r.__getitem__)).table()) == want


@hst.composite
def st_byte_tables(draw):
    """Two tables of 1 to 4 elements, any bytes; or a table and a copy
    shifted by a constant, clipped to a byte, which it dominates
    wherever the shift is not clipped."""
    size = 1 << draw(hst.integers(1, 4))
    r = draw(hst.lists(hst.integers(0, 255), min_size=size, max_size=size))
    shift = draw(hst.integers(-255, 255))
    rp = ([min(max(x + shift, 0), 255) for x in r] if shift else
          draw(hst.lists(hst.integers(0, 255), min_size=size, max_size=size)))
    return r, rp


@given(tables=st_byte_tables())
@example(tables=([224, 55], [201, 189]))
@settings(max_examples=80, deadline=None)
def test_domination_on_any_bytes_is_the_point_walk(tables):
    # Ranks of 64 and more would carry between the lanes of the check
    # (on the example, r(e) + r'(0) carries and the fall passed):
    # whatever the bytes, make_perspective gives the point walk's verdict
    # and witness.
    r, rp = tables
    ground = tuple(range(1, len(r).bit_length()))
    m, m_prime = (mt.RankMatroid(ground, t.__getitem__) for t in (r, rp))
    want = _first_fall(m, m_prime)
    if want is None:
        mt.make_perspective(m, m_prime)
    else:
        with pytest.raises(mt.MatroidError) as err:
            mt.make_perspective(m, m_prime)
        assert str(err.value) == want


class _ViewOfAnOtherHost:
    """memoryview as a host of byte order sys.byteorder would read it."""

    def __init__(self, data):
        self.data = bytes(data)

    def cast(self, fmt):
        assert fmt == "I"
        return [int.from_bytes(self.data[i:i + 4], sys.byteorder)
                for i in range(0, len(self.data), 4)]


def test_rank_rows_decode_the_lanes_in_any_byte_order(monkeypatch):
    emb = next(e for e in corpus.main_corpus() if len(e.rotation.edges) == 10)
    mp = em.scheme_perspective(emb.scheme)
    want = Counter(zip(mt.mask_sizes(10), mp.m.table(), mp.m_prime.table()))
    assert len(want) > 10
    assert list(mt.rank_rows(mp.m, mp.m_prime).items()) == list(want.items())
    for order in ("little", "big"):
        monkeypatch.setattr(sys, "byteorder", order)
        monkeypatch.setattr(mt, "memoryview", _ViewOfAnOtherHost, raising=False)
        got = mt.rank_rows(mp.m, mp.m_prime)
        assert list(got.items()) == list(want.items())   # first sight first

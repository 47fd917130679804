"""The value classes: read-only, compared by value, cached reads kept.

Five are plain classes on multigraph.Frozen and nine are NamedTuples;
each is built twice here from the torus theta graph.
"""

import pytest

from topopoly import embedding as em
from topopoly import fileformat as ff
from topopoly import matroid as mt
from topopoly import multigraph as mg
from topopoly import poly
from topopoly import ribbon as rb
from topopoly import states as st

THETA = """\
vertex 0: sector (1.0 2.0 3.0)
vertex 1: sector (1.1 2.1 3.1)
edge 1: 0 1 sign +
edge 2: 0 1 sign +
edge 3: 0 1 sign +
cellular
"""


def _theta() -> rb.RotationSystem:
    return rb.RotationSystem.single({0: [(1, 0), (2, 0), (3, 0)],
                                     1: [(1, 1), (2, 1), (3, 1)]},
                                    {1: 1, 2: 1, 3: 1})


def _scheme() -> em.EmbeddingScheme:
    return em.derive_dagger(em.with_disc_regions(_theta()))


_BOND, _CYCLE = mt.bond_matroid(_scheme().dagger), mt.cycle_matroid(_theta().underlying())

# Each class, a builder, and the name of one of its fields.
BUILDERS = {
    rb.RotationSystem: (_theta, "signs"),
    mg.Multigraph: (lambda: _theta().underlying(), "ends"),
    em.EmbeddedGraph: (lambda: em.with_disc_regions(_theta()), "regions"),
    em.EmbeddingScheme: (_scheme, "dagger"),
    ff.ParsedInput: (lambda: ff.parse(THETA), "rotation"),
    rb.Circle: (lambda: _theta().trace.circles[0], "visits"),
    rb.BoundaryTrace: (lambda: _theta().trace, "circles"),
    rb.Surgery: (lambda: rb.contract_nonloop(_theta(), 1), "point_map"),
    rb.MedialMap: (lambda: rb.medial(_theta()), "pairings"),
    em.ValidationReport: (lambda: em.with_disc_regions(_theta()).report, "cellular"),
    em.ComplementStats: (
        lambda: em.complement_stats(em.with_disc_regions(_theta()), {1}), "euler_genus"),
    mt.MatroidPerspective: (lambda: mt.make_perspective(_BOND, _CYCLE), "m"),
    poly.CheckResult: (lambda: poly.CheckResult("lv-tidy", "pass"), "status"),
    st.FormulaReport: (
        lambda: st.lv_component_formula(_theta(), {1: "black", 2: "white", 3: "white"}),
        "agrees"),
}


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_fields_are_read_only_and_equal_builds_compare_equal(cls):
    build, field = BUILDERS[cls]
    x, y = build(), build()
    assert type(x) is cls and x is not y
    assert x == y and not x != y
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert getattr(x, field) is before


@pytest.mark.parametrize("cls", [cls for cls in BUILDERS if issubclass(cls, mg.Frozen)],
                         ids=lambda cls: cls.__name__)
def test_frozen_values_differ_by_field_and_by_class_and_are_unhashable(cls):
    x = BUILDERS[cls][0]()
    with pytest.raises(AttributeError, match="^cannot assign to field 'spare'$"):
        x.spare = 1
    with pytest.raises(AttributeError, match="^cannot delete field 'spare'$"):
        del x.spare
    assert x != object() and x != tuple(getattr(x, f) for f in x._fields)
    with pytest.raises(TypeError):
        hash(x)


def test_frozen_equality_reads_every_field():
    rs = _theta()
    assert rs != rb.twist(rs, {1})
    assert rs.underlying() != mg.Multigraph(rs.vertices, {1: (0, 1)})
    assert rs.underlying() != mg.Multigraph((0, 1, 2), rs.ends)
    emb = em.with_disc_regions(rs)
    assert emb != em.EmbeddedGraph(rs, emb.regions, {**emb.region_genus, 0: 1})
    assert ff.parse(THETA) != ff.ParsedInput(rs)


def test_cached_reads_return_the_same_object():
    rs = _theta()
    g = rs.underlying()
    parsed = ff.parse(THETA)
    emb = parsed.embedded
    for first, second in ((rs.trace, rs.trace), (g.counter, g.counter),
                          (emb.scheme, emb.scheme), (parsed.embedded, emb)):
        assert first is second

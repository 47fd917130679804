"""Brute-force sweeps over every edge subset and every medial state.

The library counts subsets and states on frontier tallies and names a
failing check's witness by self-reduction on them; these sweeps visit
the 2^|E| subsets and the 3^|E| states one at a time, in mask order and
in itertools.product order, as the reference the tests compare against.
"""

from __future__ import annotations

import itertools

from topopoly import multigraph as mg
from topopoly import ribbon as rb
from topopoly import states as st
from topopoly.ribbon import DualRow, RibbonError, RotationSystem, circle_counter, dual


def subset_sweep(x: RotationSystem | mg.Multigraph,
                 cut: mg.Multigraph | None = None, complement: bool = False):
    """Yield (|A|, c(A), f(A), c_cut(E - A)) for every edge subset A.

    x is a rotation system, whose boundary circles are counted too, or
    a bare multigraph, for which f is None.  cut is a second multigraph
    on the same edge ids (the dagger graph, say); c_cut counts its
    components on the edges outside A, and is None without it.

    Row k is the subset with mask k in the multigraph encoding, bit i
    standing for the i-th smallest edge id, so two sweeps over graphs
    that share their edge ids line up row by row, and mask k of a
    matroid names the same subset.  With complement, row k describes
    E - A_k instead of A_k.

    c(A) and c_cut come from multigraph.component_counter, and f(A)
    from one circle_counter, on which each edge of A pairs its corner
    points as its band and each absent edge as no band (p ^ 1).
    """
    ribbon = x if isinstance(x, RotationSystem) else None
    g = x.underlying() if ribbon is not None else x
    edges = g.edges
    n = len(edges)
    if cut is not None and cut.edge_set() != g.edge_set():
        raise RibbonError("a cut graph must share the sweep's edge ids")

    if ribbon is not None:
        circles = circle_counter(ribbon)
        band = [3 if ribbon.signs[e] > 0 else 2 for e in edges]
    count = mg.component_counter(g)
    if cut is not None:
        count_cut = mg.component_counter(cut)
    full = (1 << n) - 1
    for k in range(1 << n):
        a = k ^ full if complement else k
        yield (a.bit_count(), count(a),
               circles([band[i] if a >> i & 1 else 1 for i in range(n)])
               if ribbon is not None else None,
               count_cut(a ^ full) if cut is not None else None)


def dual_sweep(g: RotationSystem, d: RotationSystem | None = None):
    """Yield one DualRow per edge subset A, in subset_sweep order.

    The starred counts come from a second sweep over the geometric
    dual d (built here unless given), which traces the dual itself, so
    they share no boundary count with the graph's own.
    """
    d = dual(g) if d is None else d
    v, vd = len(g.sectors), len(d.sectors)
    for (size, c, f, _), (size_d, cd, fd, _) in zip(
            subset_sweep(g), subset_sweep(d, complement=True)):
        yield DualRow(size, c, f, 2 * c - v + size - f,
                      cd, fd, 2 * cd - vd + size_d - fd)


def state_sweep(rs: RotationSystem):
    """Yield (state, (medial curves, graph curves)) for every medial
    state of rs in itertools.product order, the state a tuple of
    STATE_NAMES by edge id, each counted alone on the medial and on
    the graph's circle_counter."""
    medial_count = st.medial_state_counter(rb.medial(rs))
    count = circle_counter(rs)
    pairings = [dict(zip(rb.STATE_NAMES, rb.smoothing_pairings(
        3 if rs.signs[e] > 0 else 2))) for e in rs.edges]
    for combo in itertools.product(rb.STATE_NAMES, repeat=len(rs.edges)):
        yield combo, (medial_count(combo),
                      count([p[s] for p, s in zip(pairings, combo)]))

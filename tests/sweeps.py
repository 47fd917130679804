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
from topopoly.ribbon import RibbonError, RotationSystem, circle_counter, dual


def subset_sweep(x: RotationSystem | mg.Multigraph,
                 *cuts: RotationSystem | mg.Multigraph, complement: bool = False):
    """Yield the flat row of transfer_tally(x, *cuts) for every edge
    subset A: (|A|, c(A)[, f(A)], then per cut c_k(E - A)[, f_k(E - A)]).

    x and each cut graph, on the same edge ids (the dual or the dagger
    graph, say), are rotation systems, whose boundary circles are
    counted too, or bare multigraphs; x counts A and each cut E - A.

    Row k is the subset with mask k in the multigraph encoding, bit i
    standing for the i-th smallest edge id, so two sweeps over graphs
    that share their edge ids line up row by row, and mask k of a
    matroid names the same subset.  With complement, row k describes
    E - A_k instead of A_k.

    Components come from multigraph.component_counter, and circles
    from one circle_counter per rotation system, on which each present
    edge pairs its corner points as its band and each absent edge as
    no band (p ^ 1).
    """
    edges = x.edges
    n = len(edges)
    full = (1 << n) - 1
    counters = []
    for y, flip in ((x, 0), *((cut, full) for cut in cuts)):
        ribbon = isinstance(y, RotationSystem)
        g = y.underlying() if ribbon else y
        if g.edges != edges:
            raise RibbonError("a cut graph must share the sweep's edge ids")
        band = [3 if y.signs[e] > 0 else 2 for e in edges] if ribbon else None
        counters.append((flip, mg.component_counter(g),
                         circle_counter(y) if ribbon else None, band))
    for k in range(1 << n):
        a = k ^ full if complement else k
        row = [a.bit_count()]
        for flip, count, circles, band in counters:
            b = a ^ flip
            row.append(count(b))
            if circles is not None:
                row.append(circles([band[i] if b >> i & 1 else 1 for i in range(n)]))
        yield tuple(row)


def dual_sweep(g: RotationSystem, d: RotationSystem | None = None):
    """Yield the row of transfer_tally(g, d) per edge subset A, in
    subset_sweep order: (|A|, c(A), f(A), c*(E - A), f*(E - A)).

    The starred counts come from a second sweep over the geometric
    dual d (built here unless given), which traces the dual itself, so
    they share no boundary count with the graph's own.
    """
    d = dual(g) if d is None else d
    for row, (_, cd, fd) in zip(subset_sweep(g), subset_sweep(d, complement=True)):
        yield (*row, cd, fd)


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

"""Vertex states of the medial graph, counted two ways.

Every vertex of the medial graph sits on one edge e of the original
graph and admits three smoothings: black (the curve hugs e), white
(the curve hugs the corners) and crossing.  A state chooses one per
vertex and splits the medial into closed curves.  The edge sets W, B,
C below always name the edges whose medial vertex got the white,
black, or crossing smoothing.

The number of curves is computed here by two independent routes:
gluing the smoothed medial's edges, the components of a multigraph on
the corners (medial_state_counter; medial_state_components counts one
state), and counting the boundary circles of the original graph with
C twisted and B dropped, on ribbon.circle_counter (state_components
is the same count by twist and trace, kept as the reference); a
two-term minimum formula, exact on the sphere, the torus and the
projective plane, predicts the count of a crossing-free state.

run_state_checks compares the two routes on all 3^e states at once:
ribbon.state_tally decides the edges one at a time on one frontier
carrying both routes, and counts the states by (medial curves, graph
curves) without listing them.  The routes agree exactly when every
count lies on the diagonal; a count off it reruns the tally with
smoothings forced to find the first misplaced state, which is then
counted alone on the two counters above.  It runs every relation that
applies, one result line per check.  The genus and the dual come
from the graph's one trace, everything else from its own dual_tally,
which the identity suite shares:
the minimum formula and the quasi-tree duality are predicates on its
rows, the crossing-free profile is its marginal over f (handed back
with the results, for the states command to print), and the
polynomials R and L of the diagonal relations are assembled from it.
Only a failing check reruns that tally, to name the first bad white
set in mask order.  A check that finds a disagreement fails; only
inputs outside the preconditions (pinched, edgeless, disconnected,
over the sweep cap) raise.  The sweep cap, checked first, still counts
edges; the tally's cost follows its frontier states, not 3^e.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

from . import multigraph as mg
from . import poly
from . import ribbon as rb
from .mpoly import MPolynomial, compose_laurent, laurent_to_poly
from .poly import CheckResult, _bad, _ok, _skip, check_cap
from .ribbon import BLACK, CROSSING, STATE_NAMES, WHITE

STATE_SWEEP_CAP = 8


class StateError(ValueError):
    pass


class GenusRangeError(StateError):
    """The ambient surface is outside sphere/torus/projective plane."""


def split_state(rs: rb.RotationSystem, state: Mapping[int, str]
                ) -> tuple[frozenset, frozenset, frozenset]:
    """(W, B, C) edge sets of a state; validates coverage."""
    if set(state) != set(rs.signs):
        raise StateError("state must assign every edge exactly once")
    w, b, c = set(), set(), set()
    for e, s in state.items():
        if s == WHITE:
            w.add(e)
        elif s == BLACK:
            b.add(e)
        elif s == CROSSING:
            c.add(e)
        else:
            raise StateError(f"unknown smoothing {s!r} on edge {e}")
    return frozenset(w), frozenset(b), frozenset(c)


def state_components(rs: rb.RotationSystem, state: Mapping[int, str]) -> int:
    """Curves of the state, counted on the original graph: twist the
    crossing edges, then count boundary circles without the black ones."""
    _, b, c = split_state(rs, state)
    return rb.boundary_count(rb.twist(rs, c), rs.edge_set() - b)


def medial_state_components(mm: rb.MedialMap, state: Mapping[int, str]) -> int:
    """Direct count on the medial, for one state: see medial_state_counter."""
    return medial_state_counter(mm)([state[e] for e in sorted(mm.pairings)])


def medial_state_counter(mm: rb.MedialMap):
    """Set up the medial once; return count(combo), the curves of the
    state that smooths the medial vertex of the i-th smallest edge id
    by combo[i].

    The curves glue the medial's edges end to end through the chosen
    smoothing at every medial vertex.  Every medial edge is one corner,
    whose two half-edges are glued whatever the state, so the curves
    are the components of a graph on the corner ids: each medial vertex
    offers two joins per smoothing, six in all, and a state keeps the
    two joins of its smoothing, passed to the graph's counter as a mask.
    """
    joins = [(p[0], q[0]) for e in sorted(mm.pairings) for s in STATE_NAMES
             for p, q in mm.pairings[e][s]]
    glued = mg.Multigraph(tuple(mm.corners), dict(enumerate(joins)))
    keep = {s: 3 << 2 * k for k, s in enumerate(STATE_NAMES)}

    def count(combo) -> int:
        mask = 0
        for i, s in enumerate(combo):
            mask |= keep[s] << 6 * i
        return glued.counter(mask)

    return count


@dataclass(frozen=True)
class FormulaReport:
    components: int         # curves of the crossing-free state
    min_form_value: int     # two-term minimum (exact up to genus 2)
    agrees: bool


def lv_component_formula(rs: rb.RotationSystem,
                         state: Mapping[int, str]) -> FormulaReport:
    """Count the curves of a crossing-free state by formula."""
    rb.require_pinch_free(rs, "state counting")
    w, b, c = split_state(rs, state)
    if c:
        raise StateError(f"state has crossings on {sorted(c)}")
    f_w = rb.boundary_count(rs, w)
    gamma_w = rb.euler_genus(rs, w)
    gamma_b = rb.euler_genus(rs.dual, b)
    min_form = min(f_w + gamma_b, f_w + gamma_w)

    if mg.components(rs.underlying()) == 1:
        # The rank form of the dual term equals f(W) + gamma*(B) exactly
        # when f(W) = f*(B), which the separate traces must confirm.
        dual_g = rs.dual.underlying()
        rank1 = len(b) + mg.rank(dual_g) - 2 * mg.rank(dual_g, b) + 1
        if rank1 != f_w + gamma_b:
            raise StateError("rank form of the minimum drifted from the "
                             "genus form")
    return FormulaReport(f_w, min_form, min_form == f_w)


# ---------------------------------------------------------------------------
# low-genus surfaces and the diagonal relation


def surface_kind(rs: rb.RotationSystem) -> str:
    """sphere / projective-plane / torus for a connected cellular
    filling; anything else raises GenusRangeError."""
    gamma = rb.euler_genus(rs)
    orientable = rb.is_orientable(rs)
    if gamma == 0:
        return "sphere"
    if gamma == 1:
        return "projective-plane"
    if gamma == 2 and orientable:
        return "torus"
    if gamma == 2:
        raise GenusRangeError("genus out of range: the Klein bottle is not "
                              "covered by the low-genus results")
    raise GenusRangeError(f"genus out of range: Euler genus {gamma} exceeds 2")


_DIAGONAL = {"x": {0: 1, 1: 1}, "y": {1: 1}, "z": {-1: 1}}
_SHIFTED = {"x": {0: 1, 1: 1}, "y": {0: 1, 1: 1}, "z": {0: 1}}


def generating_function_check(r_poly: MPolynomial,
                              profile: Mapping[int, int]) -> CheckResult:
    """t R(t+1, t, 1/t) must list the crossing-free states by curve
    count (connected graphs)."""
    name = "state-generating-function"
    diag = compose_laurent(r_poly, _DIAGONAL)
    got = {d + 1: c for d, c in diag.items() if c}
    if got != profile:
        return _bad(name, f"diagonal gives {sorted(got.items())}, "
                          f"profile is {sorted(profile.items())}")
    return _ok(name)


def lr_relation(rs: rb.RotationSystem, rows: Mapping[rb.DualRow, int],
                r_poly: MPolynomial, kind: str) -> CheckResult:
    """The diagonal of R against the z-slices of L, by surface:
    sphere and projective plane use L(t+1, t+1, 1); the torus weights
    the z-slices of L as L2 + t L1 + L0 at (t+1, t+1).

    L comes from rows, the dual_tally of the connected graph rs, whose
    surface is kind; a bad row is named on the same dual, rs.dual.
    """
    name = "lr-relation"
    try:
        l_poly = poly._cellular_from_rows(rs, rows)
    except poly.PolyError as exc:   # the graph and its dual disagree
        return _bad(name, f"no cellular polynomial: {exc}")
    rhs = laurent_to_poly(compose_laurent(r_poly, _DIAGONAL))

    if kind in ("sphere", "projective-plane"):
        lhs = laurent_to_poly(compose_laurent(l_poly, _SHIFTED))
    else:
        slices: dict[int, dict] = {}
        for exps, coeff in l_poly.terms().items():
            hz = exps[2]
            if hz % 2:
                return _bad(name, "half-power of z in the cellular polynomial")
            cleared = list(exps)
            cleared[2] = 0
            slices.setdefault(hz // 2, {})[tuple(cleared)] = coeff
        if max(slices, default=0) > 2:
            return _bad(name, f"z-degree {max(slices)} on a torus graph")
        total: dict[int, int] = {}
        for i, terms in slices.items():
            piece = compose_laurent(MPolynomial(terms), _SHIFTED)
            shift = 1 if i == 1 else 0
            for d, c in piece.items():
                total[d + shift] = total.get(d + shift, 0) + c
        lhs = laurent_to_poly(total)

    if lhs != rhs:
        return _bad(name, f"on the {kind}: {lhs} != {rhs}")
    return _ok(name, kind)


# ---------------------------------------------------------------------------
# every state check


def run_state_checks(rs: rb.RotationSystem, *,
                     sweep_cap: int = STATE_SWEEP_CAP
                     ) -> tuple[list[CheckResult], dict[int, int]]:
    """Every state-level check that applies to one ribbon graph, and
    the crossing-free profile: how many crossing-free states split
    into k curves, per k.

    Needs an ordinary (pinch-free) connected ribbon graph with at
    least one edge, the medial preconditions.
    """
    rb.require_pinch_free(rs, "state checks")
    if not rs.signs:
        raise StateError("state checks need at least one edge")
    if mg.components(rs.underlying(), rs.edge_set()) != 1:
        raise StateError("state checks need a connected graph")
    edges = rs.edges
    check_cap(len(edges), sweep_cap, "the full state sweep")

    mm = rb.medial(rs)
    # The rows count a white set W, and E - W in the dual.
    tally = rs.dual_tally
    n, v, vd = len(edges), len(rs.sectors), len(rs.dual.sectors)
    gamma = rb.euler_genus(rs)
    low_genus = True
    try:
        kind = surface_kind(rs)
    except GenusRangeError as exc:
        low_genus = False
        gate_detail = str(exc)

    def verdict(name, bad, detail=""):
        # Only a failure reruns the tally, to name the first bad white set.
        if not bad:
            return _ok(name, detail)
        return _bad(name, poly._first_subset(
            edges, partial(rb.dual_tally, rs), bad))

    # Both routes count every state at once: the tally is keyed by
    # (medial curves, graph curves), so the routes agree on every state
    # exactly when every key lies on the diagonal.
    curves = rb.state_tally(rs, mm)
    off = {key for key in curves if key[0] != key[1]}

    def tracer_problem():
        # The first state off the diagonal, smoothings forced in edge id
        # order, is counted alone on the medial and on the graph (no
        # band for black, the band for white, the band twisted for crossing).
        chosen, (medial, graph) = rb.first_witness(
            partial(rb.state_tally, rs, mm), edges, 3, off)
        combo = tuple(rb.STATE_NAMES[chosen[e]] for e in edges)
        direct = medial_state_counter(mm)(combo)
        via_graph = rb.circle_counter(rs)([rb.smoothing_pairings(
            3 if rs.signs[e] > 0 else 2)[chosen[e]] for e in edges])
        where = f"state {combo} on edges {list(edges)}"
        if direct != via_graph:
            return f"{where}: medial {direct}, graph {via_graph}"
        return (f"the state tally puts {where} at medial {medial}, graph "
                f"{graph}, but counted alone it has medial {direct}, "
                f"graph {via_graph}")

    def quasi_tree_problem(row):
        # The row keeps W and deletes A = E - W: G - A is a quasi-tree
        # when c(W) = f(W) = 1, and G* on A when c*(A) = f*(A) = 1.
        q1 = row.c == 1 and row.f == 1
        trees = ((row.size == v - 1 and row.c == 1)
                 or (n - row.size == vd - 1 and row.c_dual == 1))
        if row.f != row.f_dual:
            return (f"G - A has {row.f} boundary circles, "
                    f"G* on A has {row.f_dual}")
        if q1 != (row.c_dual == 1 and row.f_dual == 1):
            return "duality breaks"
        if q1 and row.genus + row.genus_dual != gamma:
            return "genus identity fails"
        if low_genus and q1 != trees:
            return f"quasi-tree {q1} but spanning-tree dichotomy says {trees}"
        return None

    out = [_bad("state-tracer-agreement", tracer_problem()) if off
           else _ok("state-tracer-agreement")]
    if low_genus:
        # The crossing-free state with white set W has f(W) curves, and
        # the minimum is f(W) + min(genus(W), genus*(E - W)).
        out.append(verdict("noncrossing-min-formula", {
            row: f"white set {{a}}: minimum "
                 f"{row.f + min(row.genus, row.genus_dual)}, curves {row.f}"
            for row in tally if min(row.genus, row.genus_dual)}, kind))
    else:
        out.append(_skip("noncrossing-min-formula", gate_detail))
    r_poly = poly._ribbon_from_rows(rs, tally)
    profile: dict[int, int] = {}
    for row, m in tally.items():
        profile[row.f] = profile.get(row.f, 0) + m
    out.append(generating_function_check(r_poly, profile))
    if low_genus:
        out.append(lr_relation(rs, tally, r_poly, kind))
    else:
        out.append(_skip("lr-relation", gate_detail))
    out.append(verdict("quasi-tree-duality", {
        row: "deleted {rest}: " + problem for row in tally
        if (problem := quasi_tree_problem(row))}))
    return out, profile

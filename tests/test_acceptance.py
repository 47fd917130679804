"""Acceptance suite: one criterion per test, one printed line each.

Run with -s to see the ACCEPT lines:

    pytest tests/test_acceptance.py -s
"""

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

import corpus
import golden
import oracles
import topopoly
from topopoly import embedding as em
from topopoly import matroid as mt
from topopoly import multigraph as mg
from topopoly import poly
from topopoly import ribbon as rb
from topopoly import states as st

THETA_L = "1 + 3z + 2z^2 + xz^2"

_CACHE: dict = {}


def _main_pool():
    if "main" not in _CACHE:
        _CACHE["main"] = tuple(corpus.main_corpus())
    return _CACHE["main"]


def _cellular_pool():
    if "cellular" not in _CACHE:
        _CACHE["cellular"] = tuple(corpus.cellular_corpus())
    return _CACHE["cellular"]


def _state_results():
    """run_state_checks once per cellular graph; criteria 6 and 7 share."""
    if "states" not in _CACHE:
        t0 = time.perf_counter()
        results = [st.run_state_checks(rs)[0] for rs in _cellular_pool()]
        _CACHE["states"] = (results, time.perf_counter() - t0)
    return _CACHE["states"]


def _accept(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPT {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}{tail}"


def _subsets(edges, cap_size=None):
    edges = sorted(edges)
    top = len(edges) if cap_size is None else min(cap_size, len(edges))
    for k in range(top + 1):
        yield from map(frozenset, itertools.combinations(edges, k))


def test_criterion_1_theta_four_routes():
    t0 = time.perf_counter()
    theta = corpus.theta_torus()
    emb = em.with_disc_regions(theta)
    mp = em.scheme_perspective(em.derive_dagger(emb))
    routes = (
        poly.las_vergnas_cellular(theta, "expansion"),
        poly.las_vergnas_embedded(emb, "expansion"),
        poly.las_vergnas_embedded(emb, "recursion"),
        poly.tutte_perspective(mp),
    )
    elapsed = time.perf_counter() - t0
    ok = all(str(r) == THETA_L for r in routes) and elapsed < 1.0
    _accept("theta-on-torus-four-routes", ok,
            f"{THETA_L!r} in {elapsed:.3f}s")


def test_criterion_2_expansion_matches_recursion():
    t0 = time.perf_counter()
    pool = _main_pool()
    genera, cellular, pinched, orientable = set(), set(), set(), set()
    for embd in pool:
        rep = em.validate(embd)
        if 0 <= rep.euler_genus <= 3:
            genera.add(rep.euler_genus)
        cellular.add(rep.cellular)
        has_pinch = bool(embd.rotation.pinch_vertices())
        pinched.add(has_pinch)
        if not has_pinch:
            orientable.add(rb.is_orientable(embd.rotation))
    coverage = (len(pool) >= 200
                and all(len(embd.rotation.edges) <= 10 for embd in pool)
                and genera == {0, 1, 2, 3}
                and cellular == pinched == orientable == {True, False})

    mismatched = 0
    for embd in pool:
        l_exp = poly.las_vergnas_embedded(embd, "expansion")
        l_rec = poly.las_vergnas_embedded(embd, "recursion")
        sd = em.derive_dagger(embd)
        mp = mt.MatroidPerspective(mt.bond_matroid(sd.dagger),
                                   mt.cycle_matroid(sd.g))
        t_exp = poly.tutte_perspective(mp)
        t_rec = oracles.perspective_recursion(mp)
        if not (l_exp == l_rec == t_exp == t_rec):
            mismatched += 1
    elapsed = time.perf_counter() - t0
    ok = coverage and mismatched == 0 and elapsed < 60.0
    _accept("expansion-matches-recursion", ok,
            f"{len(pool)} graphs, {mismatched} mismatches, {elapsed:.1f}s")


def test_criterion_3_region_matroid():
    pool = _main_pool()
    rng = random.Random(77)
    problems = []

    for idx, embd in enumerate(pool):
        s = em.derive_dagger(embd)
        edges = sorted(embd.rotation.edge_set())
        b = mt.bond_matroid(s.dagger)
        rho0 = em.rho(s, ())
        for a in _subsets(edges, cap_size=8):
            if b.rank(b.mask(a)) != len(a) - em.rho(s, a) + rho0:
                problems.append(f"rank identity fails on graph {idx} at "
                                f"{sorted(a)}")
                break
        try:
            mt.make_perspective(b, mt.cycle_matroid(s.g))
        except mt.MatroidError as exc:
            problems.append(f"graph {idx}: perspective rejected: {exc}")

        nonloops = [e for e in edges if not s.g.is_loop(e)][:2]
        loops = [e for e in edges if s.g.is_loop(e)][:1]
        for e in nonloops:
            rest = [x for x in edges if x != e]
            dele = em.derive_dagger(em.topological_delete(embd, e))
            want = em.delete_edge(s, e)
            if mg.id_respecting_isomorphism(dele.dagger, want.dagger) is None:
                problems.append(f"graph {idx} edge {e}: deletion daggers differ")
                continue
            cont = em.derive_dagger(em.topological_contract(embd, e))
            wantc = em.contract_edge(s, e)
            if mg.id_respecting_isomorphism(cont.dagger, wantc.dagger) is None:
                problems.append(f"graph {idx} edge {e}: contraction daggers differ")
                continue
            bd = mt.bond_matroid(dele.dagger)
            bc = mt.bond_matroid(cont.dagger)
            md = oracles.delete(b, e)
            mc = oracles.contract(b, e)
            for a in _subsets(rest, cap_size=6):
                if (bd.rank(bd.mask(a)) != md.rank(md.mask(a))
                        or bc.rank(bc.mask(a)) != mc.rank(mc.mask(a))):
                    problems.append(f"graph {idx} edge {e}: minor ranks differ "
                                    f"at {sorted(a)}")
                    break
        for e in loops:
            # a loop's contraction only makes sense scheme-side: the
            # region graph drops e and the rank identity shifts by e
            sc = em.contract_edge(s, e)
            bc = mt.bond_matroid(sc.dagger)
            rho_e = em.rho(s, {e})
            rest = [x for x in edges if x != e]
            for a in _subsets(rest, cap_size=6):
                if bc.rank(bc.mask(a)) != len(a) - em.rho(s, a | {e}) + rho_e:
                    problems.append(f"graph {idx} loop {e}: contracted rank "
                                    f"identity fails at {sorted(a)}")
                    break

    rejected = tried = 0
    for idx in rng.sample(range(len(pool)), 30):
        embd = pool[idx]
        s = em.derive_dagger(embd)
        edges = sorted(embd.rotation.edge_set())
        if not edges:
            continue
        nonloops = [e for e in edges if not s.g.is_loop(e)]
        ground = tuple(edges)
        if nonloops:
            bad = (mt.RankMatroid(ground, lambda a: 0, name="zero"),
                   mt.cycle_matroid(s.g))
        else:
            bad = (mt.cycle_matroid(s.g), mt.bond_matroid(s.g))
        tried += 1
        try:
            mt.make_perspective(*bad)
        except mt.MatroidError:
            rejected += 1

    ok = not problems and tried > 0 and rejected == tried
    _accept("region-matroid-and-minors", ok,
            problems[0] if problems
            else f"{len(pool)} graphs, {rejected}/{tried} non-examples rejected")


def test_criterion_4_edge_classification():
    pool = _main_pool()
    counts: Counter = Counter()
    for embd in pool:
        for e in embd.rotation.edges:
            # classify_edge recomputes every class both topologically
            # and through the matroids and asserts they agree
            counts[em.classify_edge(embd, e)] += 1
    longitudinal = em.classify_edge(corpus.torus_loop_annulus(), 1)
    ok = (longitudinal == em.QUASI_BRIDGE_ONLY
          and set(counts) == {em.BRIDGE, em.QUASI_BRIDGE_ONLY,
                              em.QUASI_LOOP, em.ORDINARY})
    _accept("edge-classification", ok,
            ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))


def test_criterion_5_identity_suite():
    pool = list(_main_pool()) + [em.with_disc_regions(rs)
                                 for rs in _cellular_pool()]
    failures = []
    ran = 0
    vii_on_noncellular = 0
    for idx, embd in enumerate(pool):
        results = poly.verify_identities(embd)
        for r in results:
            ran += 1
            if r.failed:
                failures.append(f"graph {idx}: {r.line()}")
        rep = em.validate(embd)
        if (not rep.cellular and not embd.rotation.pinch_vertices()
                and rep.components == 1):
            byname = {r.name: r for r in results}
            if byname["lv-from-krushkal"].status == "pass":
                vii_on_noncellular += 1
            else:
                failures.append(f"graph {idx}: lv-from-krushkal did not run: "
                                f"{byname['lv-from-krushkal'].line()}")
    ok = not failures and vii_on_noncellular >= 5
    _accept("identity-suite", ok,
            failures[0] if failures
            else f"{ran} checks on {len(pool)} graphs, "
                 f"{vii_on_noncellular} non-cellular surface cases")


def test_criterion_6_state_sweeps():
    results, elapsed = _state_results()
    pool = _cellular_pool()
    problems = []
    for rs, res in zip(pool, results):
        if len(rs.edges) > 8:
            problems.append("corpus graph exceeds the 8-edge sweep bound")
        byname = {r.name: r for r in res}
        for must_pass in ("state-tracer-agreement", "state-generating-function"):
            if byname[must_pass].status != "pass":
                problems.append(f"{must_pass}: {byname[must_pass].line()}")
        for r in res:
            if r.failed:
                problems.append(r.line())
    total_states = sum(3 ** len(rs.edges) for rs in pool)
    ok = not problems and elapsed < 120.0
    _accept("medial-state-sweeps", ok,
            problems[0] if problems
            else f"{total_states} states over {len(pool)} graphs, "
                 f"{elapsed:.1f}s")


def test_criterion_7_low_genus_results():
    results, _ = _state_results()
    pool = _cellular_pool()
    problems = []
    kinds = set()
    for rs, res in zip(pool, results):
        byname = {r.name: r for r in res}
        try:
            kind = st.surface_kind(rs)
        except st.GenusRangeError:
            kind = None
        for gated in ("noncrossing-min-formula", "lr-relation"):
            want = "pass" if kind else "skip"
            if byname[gated].status != want:
                problems.append(f"{gated} should {want}: {byname[gated].line()}")
        if kind:
            kinds.add(kind)
        if byname["quasi-tree-duality"].status != "pass":
            problems.append(byname["quasi-tree-duality"].line())
    ok = not problems and kinds == {"sphere", "projective-plane", "torus"}
    _accept("low-genus-results", ok,
            problems[0] if problems else f"surfaces seen: {sorted(kinds)}")


def test_golden_state_results():
    """Every RESULT line over the cellular corpus, against golden.json."""
    results, _ = _state_results()
    got = [golden.state_digest(res) for res in results]
    want = golden.load()["states"]
    drift = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want) and not drift, drift


THETA_TEXT = """\
vertex 0: sector (1.0 2.0 3.0)
vertex 1: sector (1.1 2.1 3.1)
edge 1: 0 1 sign +
edge 2: 0 1 sign +
edge 3: 0 1 sign +
"""

TORUS_LOOP_TEXT = """\
vertex 0: sector (1.0 1.1)
edge 1: 0 0 sign +
region 0: genus 0 circles 0,1
"""


def test_criterion_8_cli_determinism(tmp_path):
    theta = tmp_path / "theta.txt"
    theta.write_text(THETA_TEXT)
    loop = tmp_path / "loop.txt"
    loop.write_text(TORUS_LOOP_TEXT)
    commands = [
        ["trace", str(theta)],
        ["validate", str(loop)],
        ["poly", str(theta), "--which", "lv"],
        ["poly", str(theta), "--which", "lv", "--method", "recursion"],
        ["poly", str(loop), "--which", "krushkal"],
        ["identities", str(loop)],
        ["identities", str(theta), "--suite", "all", "--sweep-cap", "3"],
        ["states", str(theta)],
        ["classify", str(loop)],
    ]
    # The child processes import the same topopoly as this test.
    src = os.path.dirname(os.path.dirname(topopoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    problems = []
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "topopoly.cli"] + argv,
                               capture_output=True, env=env) for _ in range(2)]
        if any(r.returncode != 0 for r in runs):
            problems.append(f"{argv[0]}: exit {runs[0].returncode}")
        if runs[0].stdout != runs[1].stdout:
            problems.append(f"{argv[0]}: outputs differ between runs")
    ok = not problems
    _accept("cli-determinism", ok,
            problems[0] if problems else f"{len(commands)} commands, "
                                         "byte-identical reruns")

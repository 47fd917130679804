"""Command line behaviour: outputs, exit codes, determinism."""

import argparse
import io
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

import corpus
import topopoly
from topopoly import cli
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
"""

TORUS_LOOP = """\
vertex 0: sector (1.0 1.1)
edge 1: 0 0 sign +
region 0: genus 0 circles 0,1
"""

PLANE_EDGE = """\
vertex 0: sector (1.0)
vertex 1: sector (1.1)
edge 1: 0 1 sign +
"""

PLANE_DIGON = """\
vertex 0: sector (1.0 2.0)
vertex 1: sector (2.1 1.1)
edge 1: 0 1 sign +
edge 2: 0 1 sign +
cellular
"""

PINCHED = """\
vertex 0: sector (1.0 1.1) sector (2.0 2.1)
edge 1: 0 0 sign +
edge 2: 0 0 sign +
"""

STATE_NAMES = ("state-tracer-agreement", "noncrossing-min-formula",
               "state-generating-function", "lr-relation",
               "quasi-tree-duality")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("theta", THETA), ("loop", TORUS_LOOP),
                       ("edge", PLANE_EDGE), ("digon", PLANE_DIGON),
                       ("pinched", PINCHED)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_trace_plane_edge(capsys, files):
    rc, out, _ = run(capsys, "trace", files["edge"])
    assert rc == 0
    assert out == ("f 1\n"
                   "euler-genus 0\n"
                   "orientable yes\n"
                   "circle 0: 1.0/in 1.1/out 1.1/in 1.0/out\n")


def test_trace_subset(capsys, files):
    rc, out, _ = run(capsys, "trace", files["theta"], "--subset", "1")
    assert rc == 0
    assert out.startswith("f 1\neuler-genus 0\n")
    assert "orientable" not in out


def test_trace_of_a_subset_traces_once(capsys, files, monkeypatch):
    # The circles and the genus of a proper subset come from one trace:
    # the genus counts f on the disc arcs.
    calls = []
    real = rb.trace_sectors

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rb, "trace_sectors", counting)
    rc, out, _ = run(capsys, "trace", files["theta"], "--subset", "1,2")
    assert (rc, out.splitlines()[:2]) == (0, ["f 2", "euler-genus 0"])
    assert len(calls) == 1


def test_trace_bad_subset(capsys, files):
    rc, _, err = run(capsys, "trace", files["theta"], "--subset", "9")
    assert rc == 2
    assert "unknown edges" in err


def test_trace_bare_sectors_and_edge_lists(capsys, files, tmp_path):
    # A bare sector's circle is printed by its vertex and sector; an
    # empty --subset traces the empty subset, one bare circle a vertex;
    # a list with no edge id is refused.
    lone = tmp_path / "lone.txt"
    lone.write_text("vertex 0: sector ()\n")
    assert run(capsys, "trace", str(lone)) == (0, (
        "f 1\neuler-genus 0\norientable yes\n"
        "circle 0: empty at vertex 0 sector 0\n"), "")
    assert run(capsys, "trace", files["theta"], "--subset", "") == (0, (
        "f 2\neuler-genus 0\ncircle 0: empty at vertex 0 sector 0\n"
        "circle 1: empty at vertex 1 sector 0\n"), "")
    assert run(capsys, "trace", files["theta"], "--subset", ",") == (
        2, "", "error: bad subset ',': comma-separated edge ids\n")


def test_validate_torus_loop(capsys, files):
    rc, out, _ = run(capsys, "validate", files["loop"])
    assert rc == 0
    assert out == ("components 1\n"
                   "euler-characteristic 0\n"
                   "euler-genus 2\n"
                   "cellular no\n")


def test_poly_lv_both_methods_agree(capsys, files):
    rc1, out1, _ = run(capsys, "poly", files["theta"], "--which", "lv")
    rc2, out2, _ = run(capsys, "poly", files["theta"], "--which", "lv",
                       "--method", "recursion")
    assert rc1 == rc2 == 0
    assert out1 == out2 == "1 + 3z + 2z^2 + xz^2\n"


def test_poly_lv_ext_and_krushkal(capsys, files):
    rc, out, _ = run(capsys, "poly", files["loop"], "--which", "lv-ext")
    assert (rc, out) == (0, "1 + z\n")
    rc, out, _ = run(capsys, "poly", files["loop"], "--which", "krushkal")
    assert (rc, out) == (0, "1 + b\n")


def test_poly_tutte_and_dichromatic(capsys, files):
    rc, out, _ = run(capsys, "poly", files["edge"], "--which", "tutte")
    assert (rc, out) == (0, "x\n")
    rc, out, _ = run(capsys, "poly", files["edge"], "--which", "dichromatic")
    assert (rc, out) == (0, "xy + x^2\n")


def test_poly_tutte_at_the_default_cap(capsys, tmp_path):
    # A seeded connected graph on 20 edges, the default cap: T(2, 2)
    # counts all 2^20 subsets.
    rng = random.Random(20)
    rs = corpus.random_rotation(rng, 6, 20, allow_pinch=False)
    while mg.components(rs.underlying()) != 1:
        rs = corpus.random_rotation(rng, 6, 20, allow_pinch=False)
    path = tmp_path / "twenty.txt"
    path.write_text(ff.serialize(rs))
    rc, out, _ = run(capsys, "poly", str(path), "--which", "tutte")
    t = poly.tutte(rs.underlying())
    assert (rc, out) == (0, f"{t}\n")
    assert t.evaluate({"x": Fraction(2), "y": Fraction(2)}) == 2 ** 20


def test_poly_rejects_recursion_where_unsupported(capsys, files):
    for which in ("tutte", "br", "krushkal", "dichromatic"):
        rc, _, err = run(capsys, "poly", files["theta"], "--which", which,
                         "--method", "recursion")
        assert rc == 2
        assert "only supports" in err


def test_poly_lv_requires_cellular(capsys, files):
    rc, _, err = run(capsys, "poly", files["loop"], "--which", "lv")
    assert rc == 2
    assert "lv-ext" in err


def test_poly_cap(capsys, files):
    rc, _, err = run(capsys, "poly", files["theta"], "--which", "br",
                     "--cap", "2")
    assert rc == 2
    assert "cap" in err
    # The message names the method that was capped.
    for which, method, what in (
            ("lv-ext", "expansion", "subset expansion"),
            ("lv-ext", "recursion", "delete/contract recursion"),
            ("lv", "recursion", "delete/contract recursion")):
        rc, out, err = run(capsys, "poly", files["theta"], "--which", which,
                           "--method", method, "--cap", "2")
        assert (rc, out) == (2, "")
        assert err.endswith(f"error: {what} on 3 edges exceeds the cap of 2; "
                            "pass a larger cap to force it\n")


def _bouquet(tmp_path, n):
    """A plane bouquet of n loops on one vertex, no two interlaced."""
    halves = " ".join(f"{e}.{end}" for e in range(1, n + 1) for end in (0, 1))
    p = tmp_path / f"bouquet{n}.txt"
    p.write_text(f"vertex 0: sector ({halves})\n"
                 + "".join(f"edge {e}: 0 0 sign +\n" for e in range(1, n + 1))
                 + "cellular\n")
    return str(p)


def test_poly_recursion_depth_is_not_the_stack(capsys, tmp_path):
    # Every loop is a quasi-loop, so the walk is one chain 1,200 deep:
    # deeper than Python's recursion limit.
    rc, out, err = run(capsys, "poly", _bouquet(tmp_path, 1200), "--which", "lv",
                       "--method", "recursion", "--cap", "2000")
    assert (rc, out, err) == (0, "y^1200\n", "")


def test_poly_lv_rejects_pinches_by_either_method(capsys, files):
    for method in ("expansion", "recursion"):
        rc, out, err = run(capsys, "poly", files["pinched"], "--which", "lv",
                           "--method", method)
        assert (rc, out) == (2, "")
        assert "needs an ordinary ribbon graph" in err


def test_auto_close_notes_on_stderr(capsys, files):
    rc, out, err = run(capsys, "validate", files["theta"])
    assert rc == 0
    assert "closing every circle with a disc" in err
    assert out.endswith("cellular yes\n")


def test_identities_pass(capsys, files):
    rc, out, _ = run(capsys, "identities", files["loop"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("RESULT: ") for line in lines)
    assert any(" pass" in line for line in lines)


def test_identities_digon_all_pass(capsys, files):
    rc, out, _ = run(capsys, "identities", files["digon"], "--suite", "all")
    assert rc == 0
    lines = out.strip().split("\n")
    assert all(" pass" in line for line in lines)
    # both halves of the suite are present
    assert any("perspective-self" in line for line in lines)
    assert any("state-tracer-agreement" in line for line in lines)


def test_identities_check_domination_on_every_subset(capsys, tmp_path):
    # No sample above twelve edges: the result says nothing more.
    for n in (12, 13):
        rc, out, _ = run(capsys, "identities", _bouquet(tmp_path, n),
                         "--suite", "poly")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "RESULT: perspective-self pass"
        assert all(line.endswith(" pass") for line in lines[1:])


def test_identities_rejects_no_points(capsys, files):
    # The identities are exact, so there is no sample point to seed or
    # count: either option, at any value, is a usage error with empty stdout.
    for option in (("--points", "0"), ("--points", "5"), ("--seed", "3")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["identities", files["theta"], *option])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


def test_identities_bounds_the_points(capsys, files):
    # The run takes no sample point at all: help offers no option for one,
    # and the poly suite passes on the theta graph without it.
    assert not hasattr(poly, "POINTS_CAP")
    with pytest.raises(SystemExit):
        cli.main(["identities", "--help"])
    help_text = capsys.readouterr().out
    assert "--points" not in help_text and "--seed" not in help_text
    assert "sample point" not in help_text
    rc, out, _ = run(capsys, "identities", files["theta"], "--suite", "poly")
    assert rc == 0 and " fail" not in out


def test_identities_suite_selectors(capsys, files):
    _, out, _ = run(capsys, "identities", files["digon"], "--suite", "poly")
    assert not any(name in out for name in STATE_NAMES)
    _, out, _ = run(capsys, "identities", files["digon"], "--suite", "states")
    names = [line.split()[1] for line in out.strip().split("\n")]
    assert names == list(STATE_NAMES)


def test_identities_state_half_skips_when_inapplicable(capsys, files):
    rc, out, _ = run(capsys, "identities", files["pinched"])
    assert rc == 0
    assert "RESULT: state-checks skip: " in out
    assert "pinch" in out
    rc, out, _ = run(capsys, "identities", files["theta"], "--sweep-cap", "2")
    assert rc == 0
    assert "RESULT: state-checks skip: " in out and "cap" in out


def test_identities_state_checks_ignore_the_suite_cap(capsys, files):
    # The sweep cap bounds the state checks; --cap bounds the expansions
    # of the polynomial half alone.
    rc, out, _ = run(capsys, "identities", files["theta"], "--suite", "states",
                     "--cap", "2")
    assert rc == 0
    assert "RESULT: lr-relation pass: torus" in out
    assert "state-checks skip" not in out


def test_states_output(capsys, files):
    rc, out, _ = run(capsys, "states", files["theta"])
    assert rc == 0
    assert out.startswith("crossing-free curves 1: 4\n"
                          "crossing-free curves 2: 4\n")
    assert "RESULT: state-tracer-agreement pass" in out
    assert "RESULT: lr-relation pass: torus" in out


def test_states_sweeps_no_subset(capsys, files, monkeypatch):
    # A passing run reads one tally of the graph and its dual, built
    # once, and one tally of the medial states, one frontier run each;
    # the printed profile comes from the first.  Only a failure reruns
    # a tally to find its witness or counts a state alone.  identities
    # closes the bare file by discs, which counts its circles once.
    calls = Counter()
    for module, name in ((rb, "_frontier_tally"), (rb, "first_witness"),
                         (rb, "dual"), (rb, "transfer_tally"), (rb, "state_tally"),
                         (rb, "circle_counter"), (st, "medial_state_counter")):
        def wrapper(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    rc, out, _ = run(capsys, "states", files["theta"])
    assert rc == 0
    assert out.startswith("crossing-free curves 1: 4\n")
    assert calls == {"dual": 1, "transfer_tally": 1, "state_tally": 1,
                     "_frontier_tally": 2}
    # identities reads the rows of its embedding's one tally, which the
    # whole suite shares: the dual tally cut by the dagger graph.
    for suite in ("states", "all"):
        calls.clear()
        rc, out, _ = run(capsys, "identities", files["theta"], "--suite", suite)
        assert rc == 0
        assert "RESULT: quasi-tree-duality pass" in out
        assert calls == {"dual": 1, "transfer_tally": 1, "state_tally": 1,
                         "_frontier_tally": 2, "circle_counter": 1}


def test_commands_that_read_no_region_glue_no_discs(capsys, files, monkeypatch):
    # A cellular file's disc embedding is built by its first reader.
    # tutte and dichromatic read the underlying graph alone, so they
    # build no disc arcs; br reads its circles off one frontier tally,
    # which sets up the disc arcs once and counts no circle apart.  lv
    # reads the pinch vertices off the rotation system, and its tally
    # counts no circle, but the trace behind its dual walks the disc
    # arcs, set up once.  The readers of the embedding glue the discs
    # once.
    calls = Counter()
    for module, name in ((rb, "_disc_arcs"), (rb, "circle_counter"),
                         (em, "with_disc_regions")):
        def wrapper(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)
    glued = {"with_disc_regions": 1, "circle_counter": 1, "_disc_arcs": 1}
    for which, want in (("tutte", {}), ("dichromatic", {}),
                        ("br", {"_disc_arcs": 1}), ("lv", {"_disc_arcs": 1}),
                        ("lv-ext", glued), ("krushkal", glued)):
        calls.clear()
        rc, out, _ = run(capsys, "poly", files["digon"], "--which", which)
        assert rc == 0 and out
        assert calls == want, which


def test_the_state_half_alone_builds_no_dagger_layer(capsys, tmp_path,
                                                    monkeypatch):
    # Without the polynomial half, the state checks read the rotation's
    # own dual tally, one union layer fewer than the suite's tally, which
    # carries the dagger graph's blocks; the lines they print are those of
    # the whole suite.
    unions = Counter()
    real = rb._union_moves

    def counted(*args, **kwargs):
        unions["all"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(rb, "_union_moves", counted)
    for text in (THETA, EIGHT_EDGES, BOUQUET):
        path = tmp_path / "in.txt"
        path.write_text(text)
        runs = {}
        for suite in ("states", "all"):
            unions.clear()
            runs[suite] = run(capsys, "identities", str(path), "--suite", suite)
            runs[suite] += (unions["all"],)
        (rc, out, err, layers), (rc_all, out_all, err_all, layers_all) = \
            runs["states"], runs["all"]
        assert (rc, err) == (rc_all, err_all)
        assert out_all.endswith(out) and out.count("\n") == 5
        assert layers == layers_all - 1


def test_identities_reports_a_broken_dual_as_failure(capsys, files,
                                                    monkeypatch):
    real = rb.dual
    monkeypatch.setattr(rb, "dual",
                        lambda g: rb.twist(real(g), [min(g.edges)]))
    rc, out, _ = run(capsys, "identities", files["theta"], "--suite", "states")
    assert rc == 1
    assert "RESULT: quasi-tree-duality fail: " in out
    assert "state-checks skip" not in out


# Two cellular inputs with several regions: a projective-plane graph
# on 8 edges with 4 regions, and a one-vertex bouquet on 5 edges with 2.
EIGHT_EDGES = """\
vertex 0: sector (4.0 1.1 2.0 3.1)
vertex 1: sector (8.1 8.0 2.1 3.0)
vertex 2: sector (1.0)
vertex 3: sector (7.0 5.0)
vertex 4: sector (4.1 6.1 6.0 7.1 5.1)
edge 1: 2 0 sign +
edge 2: 0 1 sign +
edge 3: 1 0 sign +
edge 4: 0 4 sign +
edge 5: 3 4 sign -
edge 6: 4 4 sign +
edge 7: 3 4 sign -
edge 8: 1 1 sign -
cellular
"""

BOUQUET = """\
vertex 0: sector (2.1 3.1 4.0 5.1 2.0 1.1 4.1 5.0 1.0 3.0)
edge 1: 0 0 sign +
edge 2: 0 0 sign +
edge 3: 0 0 sign +
edge 4: 0 0 sign -
edge 5: 0 0 sign -
cellular
"""


def _swapped_dual(real):
    # The dual with its two smallest edge ids swapped: its vertex
    # partitions and its circles both move.
    def dual(g):
        d = real(g)
        a, b = d.edges[:2]
        swap = {a: b, b: a}
        return rb.RotationSystem(
            {v: tuple(tuple((swap.get(e, e), end) for e, end in sec) for sec in secs)
             for v, secs in d.sectors.items()},
            {swap.get(e, e): s for e, s in d.signs.items()})
    return dual


def _merged_dagger(real):
    # The dagger graph with its first two regions merged into one vertex.
    def derive_dagger(emb):
        s = real(emb)
        a, b = s.dagger.vertices[:2]
        ends = {e: tuple(a if v == b else v for v in uv)
                for e, uv in s.dagger.ends.items()}
        return em.EmbeddingScheme(s.g, mg.Multigraph(s.dagger.vertices, ends))
    return derive_dagger


_PASSES = [f"RESULT: {name} pass" for name in (
    "perspective-self", "perspective-to-m", "perspective-to-m-prime",
    "lv-extension-matches-cellular", "lv-to-tutte", "lv-tidy", "lv-dichromatic",
    "br-at-z1", "br-from-krushkal", "lv-from-krushkal-cellular",
    "lv-from-krushkal", "state-tracer-agreement")]


def _with(lines, **changed):
    out = list(lines)
    for name, line in changed.items():
        (k,) = [k for k, old in enumerate(out) if old.startswith(
            f"RESULT: {name.replace('_', '-')} ")]
        out[k] = line
    return "".join(line + "\n" for line in out)


_EIGHT_STATES = ["RESULT: noncrossing-min-formula pass: projective-plane",
                 "RESULT: state-generating-function pass",
                 "RESULT: lr-relation pass: projective-plane",
                 "RESULT: quasi-tree-duality pass"]
_BOUQUET_STATES = ["RESULT: noncrossing-min-formula skip: genus out of range: "
                   "Euler genus 4 exceeds 2",
                   "RESULT: state-generating-function pass",
                   "RESULT: lr-relation skip: genus out of range: Euler genus 4 "
                   "exceeds 2",
                   "RESULT: quasi-tree-duality pass"]
_DAGGER_FAILS = "RESULT: lv-extension-matches-cellular fail: scheme expansion " \
                "differs from the cellular one"

# (input, mutant) -> (exit code, stdout, stderr) of identities, pinned
# byte for byte.
_INDEPENDENT_LAYERS = {
    ("eight", "dual"): (1, _with(
        _PASSES + _EIGHT_STATES,
        lv_dichromatic="RESULT: lv-dichromatic fail: 1 has coefficient 2 in lhs - rhs",
        quasi_tree_duality="RESULT: quasi-tree-duality fail: deleted [2, 4, 5, 6, 7, 8]: "
                           "G - A has 3 boundary circles, G* on A has 5"), ""),
    ("eight", "dagger"): (1, _with(
        _PASSES + _EIGHT_STATES,
        lv_extension_matches_cellular=_DAGGER_FAILS,
        lv_from_krushkal_cellular="RESULT: lv-from-krushkal-cellular fail: "
                                  "1 has coefficient 4 in lhs - rhs",
        lv_from_krushkal="RESULT: lv-from-krushkal fail: 1 has coefficient 2 "
                         "in lhs - rhs"), ""),
    ("bouquet", "dual"): (2, "", "error: bad exponents on [2, 3]\n"),
    ("bouquet", "dagger"): (1, _with(
        _PASSES + _BOUQUET_STATES,
        lv_extension_matches_cellular=_DAGGER_FAILS,
        lv_from_krushkal_cellular="RESULT: lv-from-krushkal-cellular fail: "
                                  "1 has coefficient 2 in lhs - rhs",
        lv_from_krushkal="RESULT: lv-from-krushkal fail: 1 has coefficient 1 "
                         "in lhs - rhs"), ""),
}


@pytest.mark.parametrize("case", _INDEPENDENT_LAYERS, ids="-".join)
def test_identities_build_the_dual_and_the_dagger_apart(capsys, tmp_path,
                                                        monkeypatch, case):
    # The dual's layers come from rb.dual and the dagger's from
    # em.derive_dagger: corrupting either one alone changes the report,
    # and the lines that fail, the witnesses they name and the error
    # line are pinned.  The unmutated inputs pass every check.
    name, mutant = case
    path = tmp_path / f"{name}.txt"
    path.write_text({"eight": EIGHT_EDGES, "bouquet": BOUQUET}[name])
    states = {"eight": _EIGHT_STATES, "bouquet": _BOUQUET_STATES}[name]
    assert run(capsys, "identities", str(path)) == (0, _with(_PASSES + states), "")
    if mutant == "dual":
        monkeypatch.setattr(rb, "dual", _swapped_dual(rb.dual))
    else:
        monkeypatch.setattr(em, "derive_dagger", _merged_dagger(em.derive_dagger))
    assert run(capsys, "identities", str(path)) == _INDEPENDENT_LAYERS[case]


def test_a_witness_search_builds_each_layer_once(monkeypatch):
    # Under the swapped dual the cellular rows of the bouquet go bad: the
    # genus form of L names the first bad subset on reruns of the dual
    # tally, and the suite on reruns of its embedding's one tally, each
    # on the layers its first run built (G's and G*'s blocks and circles,
    # and for the suite H's blocks), forcing one more edge a run.
    parsed = ff.parse(BOUQUET)
    rs = parsed.rotation
    monkeypatch.setattr(rb, "dual", _swapped_dual(rb.dual))
    calls = Counter()
    for name in ("_union_moves", "_circle_moves", "_frontier_tally"):
        def wrapper(*args, real=getattr(rb, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(rb, name, wrapper)
    for search, unions in ((lambda: poly._cellular_buckets(rs, rs.dual_tally), 2),
                           (lambda: poly.verify_identities(parsed.embedded), 3)):
        calls.clear()
        with pytest.raises(poly.PolyError) as exc:
            search()
        assert str(exc.value) == "bad exponents on [2, 3]"
        assert (calls["_union_moves"], calls["_circle_moves"]) == (unions, 2)
        assert 1 < calls["_frontier_tally"] <= len(parsed.rotation.edges) + 1


_EIGHT_L = "x^2y^3 + x^2y^3z + 2x^3y^2 + 2x^3y^2z + x^4y + x^4yz\n"


@pytest.mark.parametrize("mutant", ("dual", "dagger"))
def test_lv_and_lv_ext_read_the_dual_and_the_dagger_apart(capsys, tmp_path,
                                                          monkeypatch, mutant):
    # lv reads G* from rb.dual and lv-ext reads H from em.derive_dagger:
    # each mutant moves one command alone.  Under the swapped dual, lv's
    # component form has a negative power of z, and the command names
    # the first subset that yields it; under the merged dagger graph
    # lv-ext prints another polynomial.
    path = tmp_path / "eight.txt"
    path.write_text(EIGHT_EDGES)
    for which in ("lv", "lv-ext"):
        assert run(capsys, "poly", str(path), "--which", which) == (0, _EIGHT_L, "")
    if mutant == "dual":
        monkeypatch.setattr(rb, "dual", _swapped_dual(rb.dual))
        assert run(capsys, "poly", str(path), "--which", "lv") == (
            2, "", "error: bad exponents on [2, 3, 8]\n")
        assert run(capsys, "poly", str(path), "--which", "lv-ext") == (0, _EIGHT_L, "")
    else:
        monkeypatch.setattr(em, "derive_dagger", _merged_dagger(em.derive_dagger))
        rc, out, err = run(capsys, "poly", str(path), "--which", "lv-ext")
        assert (rc, err) == (0, "") and out not in ("", _EIGHT_L)
        assert run(capsys, "poly", str(path), "--which", "lv") == (0, _EIGHT_L, "")


def test_lv_is_lv_ext_of_the_graph_cut_by_its_dual(monkeypatch):
    # L is L_ext of the scheme (G, G*): over the cellular corpus each
    # method gives the polynomial of the disc embedding's scheme (G, H).
    # G* comes from rb.dual and H from em.derive_dagger, so the swapped
    # dual, which needs two edges, moves lv alone, by each method.
    def differs(systems):
        out = set()
        for rs in systems:
            for method in ("expansion", "recursion"):
                want = poly.las_vergnas_embedded(em.with_disc_regions(rs), method)
                try:
                    got = poly.las_vergnas_cellular(rs, method)
                except poly.PolyError:
                    got = None
                if got != want:
                    out.add(method)
        return out

    assert differs(corpus.cellular_corpus()) == set()
    monkeypatch.setattr(rb, "dual", _swapped_dual(rb.dual))
    assert differs([rs for rs in corpus.cellular_corpus()
                    if len(rs.edges) > 1]) == {"expansion", "recursion"}


def test_lv_by_recursion_builds_the_dual_and_no_disc_embedding(capsys, files,
                                                               monkeypatch):
    # On a cellular file lv's recursion runs on the scheme (G, G*): it
    # builds the dual once, and neither the disc embedding nor its
    # dagger graph.
    calls = Counter()
    for module, name in ((em, "with_disc_regions"), (em, "derive_dagger"),
                         (rb, "dual")):
        def wrapper(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)
    assert run(capsys, "poly", files["digon"], "--which", "lv",
               "--method", "recursion") == (0, "y + x\n", "")
    assert calls == {"dual": 1}


def test_identities_past_a_byte_of_vertices_and_regions(capsys, tmp_path):
    # The theta graph with 298 isolated vertices, closed by discs: 300
    # vertices and 299 regions, so c(A) passes a byte, while no rank
    # exceeds |E|.  The report was recorded before the rank tables held
    # a byte per mask.
    head, edges = THETA.split("edge 1", 1)
    isolated = "".join(f"vertex {v}: sector ()\n" for v in range(2, 300))
    path = tmp_path / "wide.txt"
    path.write_text(f"{head}{isolated}edge 1{edges}cellular\n")
    surface = "skip: needs a connected pinch-free surface"
    want = _with(_PASSES[:8] + [f"RESULT: {name} {surface}" for name in (
        "br-from-krushkal", "lv-from-krushkal-cellular", "lv-from-krushkal")])
    assert run(capsys, "identities", str(path), "--suite", "poly") == (0, want, "")
    assert run(capsys, "identities", str(path)) == (0, want + (
        "RESULT: state-checks skip: state checks need a connected graph\n"), "")


def test_states_sweep_cap(capsys, files):
    rc, out, err = run(capsys, "states", files["theta"], "--sweep-cap", "2")
    assert rc == 2
    assert "cap" in err
    assert out == ""


def test_classify_output(capsys, files):
    rc, out, _ = run(capsys, "classify", files["loop"])
    assert (rc, out) == (0, "edge 1: quasi-bridge\n")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(PLANE_EDGE))
    rc = cli.main(["poly", "-", "--which", "tutte"])
    out = capsys.readouterr().out
    assert (rc, out) == (0, "x\n")


def test_missing_file(capsys):
    rc, _, err = run(capsys, "validate", "/nonexistent/nowhere.txt")
    assert rc == 2
    assert "error:" in err


def test_parse_error_reported(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("vertex 0: sector (1.0)\nedge 1: 0 0 sign +\n")
    rc, _, err = run(capsys, "validate", str(p))
    assert rc == 2
    assert "1.1 appears in no sector" in err


@pytest.mark.parametrize("text, err", [
    ("vertex 0: sector (1.0 1.1)\nedge 1: 0 0 sign +\ncellular\ncellular\n",
     "error: line 4: duplicate 'cellular' keyword\n"),
    ("vertex 0:\n", "error: line 1: vertex 0 needs at least one sector\n"),
    ("vertex 0: sector (1.0 1.1)\nedge 1: 0 0 sign +\n"
     "region 0: genus 0 circles ,\n", "error: line 3: region 0 lists no circles\n"),
], ids=("cellular-twice", "no-sector", "no-circles"))
def test_parse_errors_name_their_line(capsys, tmp_path, text, err):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    assert run(capsys, "trace", str(p)) == (2, "", err)


def _negated(real):
    return lambda *args: not real(*args)


def _dagger_loop(real):
    # The dagger graph with edge 2 made a loop at one of its ends, so
    # edge 1 becomes its bridge.
    def derive_dagger(emb):
        s = real(emb)
        ends = dict(s.dagger.ends)
        ends[2] = (ends[2][0],) * 2
        return em.EmbeddingScheme(s.g, mg.Multigraph(s.dagger.vertices, ends))
    return derive_dagger


@pytest.mark.parametrize("file, mutate, err", [
    # rho counts the edges of A, so every edge looks like a quasi-loop.
    ("theta", lambda mp: mp.setattr(em, "rho", lambda x, a=None: len(a or ())),
     "edge 1: region count and matroid loop test disagree"),
    ("theta", lambda mp: mp.setattr(mt, "is_isthmus", _negated(mt.is_isthmus)),
     "edge 1: side regions and matroid isthmus test disagree"),
    ("digon", lambda mp: mp.setattr(em, "derive_dagger",
                                    _dagger_loop(em.derive_dagger)),
     "edge 1: quasi-loop that is not a loop"),
    ("digon", lambda mp: mp.setattr(mg, "is_bridge", lambda g, e: True),
     "edge 1: bridge with two distinct side regions"),
    # Edge 1 classifies as ordinary, so the refusal comes on edge 2.
    ("digon", lambda mp: mp.setattr(mg, "is_bridge", lambda g, e: e == 2),
     "edge 2: bridge with two distinct side regions"),
], ids=("loop", "isthmus", "quasi-loop", "bridge", "later-bridge"))
def test_classify_refuses_a_drawing_its_scheme_contradicts(capsys, files,
                                                          monkeypatch, file,
                                                          mutate, err):
    # Each of classify_edge's cross-checks of the drawing against its
    # scheme can fail: the command exits 2 before printing anything,
    # also when the edges before the one refused classify cleanly.
    mutate(monkeypatch)
    rc, out, got = run(capsys, "classify", files[file])
    assert (rc, out) == (2, "")
    assert got.endswith(f"error: {err}\n")


def test_failing_checks_exit_one():
    results = [poly.CheckResult("a", "pass"),
               poly.CheckResult("b", "fail", "boom")]
    assert cli._print_results(results) == 1
    assert cli._print_results(results[:1]) == 0


def test_repeated_runs_identical(capsys, files):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "identities", files["theta"])
        outs.add(out)
    assert len(outs) == 1


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, argparse exits included."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_a_reused_parser_carries_nothing_between_calls(capsys, files,
                                                       monkeypatch):
    theta = files["theta"]
    sequence = [
        ["poly", theta, "--which", "lv", "--method", "recursion"],
        ["poly", theta, "--which", "lv"],
        ["poly", theta, "--which", "lv", "--cap", "2"],
        ["poly", theta, "--which", "lv"],
        ["identities", theta, "--suite", "states"],
        ["identities", theta],
        ["poly", theta],
        ["poly", theta],
        ["--help"],
        ["--help"],
    ]
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    requests = []
    real_lv = poly.las_vergnas_cellular

    def recording_lv(rs, method, cap):
        requests.append((method, cap))
        return real_lv(rs, method, cap)

    monkeypatch.setattr(poly, "las_vergnas_cellular", recording_lv)
    _outcome(capsys, ["validate", theta])
    built.clear()
    reused = [_outcome(capsys, argv) for argv in sequence]
    assert built == []
    cap = poly.EXPANSION_CAP
    assert requests == [("recursion", cap), ("expansion", cap),
                        ("expansion", 2), ("expansion", cap)]

    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    lv = (0, "1 + 3z + 2z^2 + xz^2\n", "")
    assert reused[0] == reused[1] == reused[3] == lv
    rc, out, err = reused[2]
    assert (rc, out) == (2, "")
    assert err.endswith("error: subset expansion on 3 edges exceeds the cap "
                        "of 2; pass a larger cap to force it\n")
    assert reused[4][1] != reused[5][1]
    assert reused[6] == reused[7] and reused[6][:2] == (2, "")
    assert "--which" in reused[6][2]
    assert reused[8] == reused[9] and reused[8][0] == 0
    assert reused[8][1].startswith("usage: topopoly")


def _probe(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports topopoly from here."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, env=env, text=True)


def test_importing_the_cli_loads_no_rational_arithmetic():
    # Only MPolynomial.evaluate reads Fractions, and it imports them on
    # its first call: a fresh process that imports the CLI, as every
    # one-shot command does, loads none of fractions, decimal or numbers.
    probe = ("import sys, topopoly.cli; print(' '.join(sorted("
             "{'fractions', 'decimal', 'numbers'} & set(sys.modules))))")
    proc = _probe(probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_poly_commands_load_no_dataclasses_matroid_or_states(tmp_path):
    # The value classes are plain classes and NamedTuples, and matroid and
    # states load inside the functions that read them: two poly commands
    # on a cellular file load none of the four modules; identities loads
    # matroid and states.
    path = tmp_path / "theta.txt"
    path.write_text(THETA + "cellular\n")
    probe = """
        import io, sys
        import topopoly.cli as cli
        def loaded():
            return sorted({"dataclasses", "inspect", "topopoly.matroid",
                           "topopoly.states"} & set(sys.modules))
        sys.stdout = io.StringIO()
        codes = [cli.main(["poly", sys.argv[1], "--which", "lv-ext",
                           "--method", "recursion"]),
                 cli.main(["poly", sys.argv[1], "--which", "krushkal"])]
        after_poly = loaded()
        codes.append(cli.main(["identities", sys.argv[1]]))
        sys.stdout = sys.__stdout__
        print(codes, after_poly, loaded())
    """
    proc = _probe(probe, str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("[0, 0, 0] [] "
                           "['topopoly.matroid', 'topopoly.states']\n")


def test_the_package_exports_every_public_name_from_its_module():
    # matroid's and states' names resolve on first use: dir lists them
    # before they load, and a star import binds each name of __all__ to
    # the object its own module defines.
    probe = """
        import sys
        import topopoly
        assert "topopoly.matroid" not in sys.modules
        assert "topopoly.states" not in sys.modules
        missing = set(topopoly.__all__) - set(dir(topopoly))
        ns = {}
        exec("from topopoly import *", ns)
        wrong = [name for name in topopoly.__all__
                 if not ns[name].__module__.startswith("topopoly.")
                 or vars(sys.modules[ns[name].__module__]).get(name) is not ns[name]]
        print(sorted(missing), wrong, "matroid" in dir(topopoly),
              topopoly.states is sys.modules["topopoly.states"])
    """
    proc = _probe(probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] [] True True\n", "")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        topopoly.no_such_name

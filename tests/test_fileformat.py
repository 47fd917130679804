"""The text format: round trips and line-numbered rejection."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import corpus
from topopoly import embedding as em
from topopoly import fileformat as ff
from topopoly import ribbon as rb

THETA = """\
# two vertices, three parallel edges, torus rotation
vertex 0: sector (1.0 2.0 3.0)
vertex 1: sector (1.1 2.1 3.1)
edge 1: 0 1 sign +
edge 2: 0 1 sign +
edge 3: 0 1 sign +
"""


def test_parse_rotation_only():
    parsed = ff.parse(THETA)
    assert parsed.embedded is None
    assert parsed.rotation == corpus.theta_torus()


def test_parse_cellular_keyword():
    parsed = ff.parse(THETA + "cellular\n")
    assert parsed.embedded is not None
    assert em.validate(parsed.embedded).cellular


def test_parse_regions():
    text = """
    vertex 0: sector (1.0 1.1)
    edge 1: 0 0 sign +
    region 0: genus 0 circles 0,1
    """
    parsed = ff.parse(text)
    assert parsed.embedded == corpus.torus_loop_annulus()


def test_parse_pinched_vertex():
    text = """
    vertex 0: sector (1.0 1.1) sector (2.0 2.1)
    edge 1: 0 0 sign +
    edge 2: 0 0 sign +
    """
    parsed = ff.parse(text)
    assert parsed.rotation.pinch_vertices() == (0,)


def test_parse_reads_the_circle_count_not_the_trace(monkeypatch):
    # Bare, cellular and region files, pinched ones among them: parsing
    # and the region checks count the circles and trace none.
    bare = corpus.cellular_corpus()[:12]
    embedded = corpus.main_corpus()[:60]
    files = ([(ff.serialize(rs), rs, None) for rs in bare]
             + [(ff.serialize(rs) + "cellular\n", rs, em.with_disc_regions(rs))
                for rs in bare]
             + [(ff.serialize(emb), emb.rotation, emb) for emb in embedded])
    assert any(emb.rotation.pinch_vertices() for emb in embedded)
    traces = []
    monkeypatch.setattr(rb, "trace_sectors", lambda *args: traces.append(args))
    for text, rotation, embedding in files:
        parsed = ff.parse(text)
        assert (parsed.rotation, parsed.embedded) == (rotation, embedding)
    assert traces == []


def test_a_cellular_file_builds_its_embedding_on_first_read(monkeypatch):
    # A disc on every circle can fail no check, so parse neither counts
    # the circles nor glues the discs; the first read of embedded does
    # both, once, and every later read returns the same embedding.
    calls = Counter()
    for module, name in ((rb, "circle_counter"), (em, "with_disc_regions")):
        def counting(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    parsed = ff.parse(THETA + "cellular\n")
    assert calls == {}
    emb = parsed.embedded
    assert parsed.embedded is emb
    assert calls == {"with_disc_regions": 1, "circle_counter": 1}
    assert emb.rotation is parsed.rotation
    assert emb == em.with_disc_regions(corpus.theta_torus())


def test_round_trip_rotation():
    for rs in corpus.cellular_corpus()[:10]:
        assert ff.parse(ff.serialize(rs)).rotation == rs


def test_round_trip_embedded():
    for emb in corpus.named_embedded():
        again = ff.parse(ff.serialize(emb))
        assert again.embedded == emb


def _fails(text, match):
    with pytest.raises(ff.FormatError, match=match):
        ff.parse(text)


def test_error_lines_are_reported():
    _fails("vertex 0: sector (1.0)\nvertex 0: sector (1.1)\n"
           "edge 1: 0 0 sign +", r"line 2: vertex 0 declared twice")
    _fails("vertex 0: sector (1.0 1.1)\nedge 1: 0 0 sign +\n"
           "edge 1: 0 0 sign +", r"line 3: edge 1 declared twice")
    _fails("vertex 0: sector (1.0 1.1)\nedge 1: 0 0 sign *",
           r"line 2")
    _fails("vertex 0: junk sector (1.0 1.1)\nedge 1: 0 0 sign +",
           r"line 1: .*outside sector")
    _fails("vertex 0: sector (1.0 frog)\nedge 1: 0 0 sign +",
           r"line 1: bad half-edge token 'frog'")
    _fails("what is this\n", r"line 1: unrecognised line")


def test_error_half_placed_twice():
    _fails("vertex 0: sector (1.0 1.1 1.0)\nedge 1: 0 0 sign +",
           r"half-edge 1.0 placed twice")
    _fails("vertex 0: sector (1.0 1.1 1.0)\nedge 1: 0 0 sign +",
           r"^line 1: half-edge 1.0 placed twice")
    # The line is the second vertex's, the one that places it again.
    _fails("# two vertices\nvertex 0: sector (1.0 1.1)\nedge 1: 0 0 sign +\n"
           "vertex 1: sector (1.0)",
           r"^line 4: half-edge 1.0 placed twice \(vertex 0 and vertex 1\)$")


def test_error_half_missing():
    _fails("vertex 0: sector (1.0)\nedge 1: 0 0 sign +",
           r"half-edge 1.1 appears in no sector")


def test_error_endpoint_mismatch():
    _fails("vertex 0: sector (1.0)\nvertex 1: sector (1.1)\n"
           "edge 1: 0 0 sign +",
           r"edge 1 declares ends 0 0 but its half-edges sit at 0 1")


def test_error_undeclared_edge():
    _fails("vertex 0: sector (1.0 1.1)\n",
           r"vertex 0 references undeclared edge 1")
    _fails("vertex 0: sector (1.0 1.1)\nedge 1: 0 0 sign +\n\n"
           "vertex 1: sector (2.0 2.1)",
           r"^line 4: vertex 1 references undeclared edge 2$")


def test_error_region_problems():
    base = "vertex 0: sector (1.0 1.1)\nedge 1: 0 0 sign +\n"
    _fails(base + "region 0: genus -1 circles 0,1", r"negative genus")
    _fails(base + "region 0: genus 0 circles 0,1\ncellular",
           r"'cellular' cannot be combined")
    _fails(base + "region 0: genus 0 circles 0,1,7", r"circle 7")
    _fails(base + "region 0: genus 0 circles 0,1\nregion 1: genus 0 circles 1",
           r"circle 1 is glued to region 0")
    _fails(base + "region 0: genus 0 circles 0,0,1",
           r"^line 3: region 0 lists circle 0 twice$")
    _fails(base + "region 0: genus 0 circles 0",
           r"^circle 1 of the trace is not covered")
    _fails(base + "region 0: genus 0 circles 0 1",
           r"^line 3: region 0 lists circles '0 1'; separate circle ids with commas$")
    _fails(base + "region 0: genus 0 circles 0, 1 2,",
           r"^line 3: region 0 lists circles '0, 1 2,'")


def test_no_vertices():
    # A fault of the file as a whole names no line.
    _fails("# empty\n", r"^no vertex lines$")


def test_serialize_is_stable():
    text = ff.serialize(corpus.theta_torus())
    assert ff.serialize(ff.parse(text).rotation) == text
    etext = ff.serialize(corpus.torus_loop_annulus())
    assert ff.serialize(ff.parse(etext).embedded) == etext


_TEXTS = ([ff.serialize(emb) for emb in corpus.named_embedded()]
          + [ff.serialize(rs) for rs in corpus.cellular_corpus()])
# Characters of the format itself, so that most mutants stay near-valid.
_CHARS = hst.sampled_from("0123456789.,:()+-# \ncellular vertex sector edge "
                          "sign region genus circles") | hst.characters()


def _mutate(text, mutations):
    for kind, at, char in mutations:
        at %= len(text) + 1
        if kind == "replace":
            text = text[:at] + char + text[at + 1:]
        elif kind == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


@settings(max_examples=300, deadline=None)
@given(hst.sampled_from(_TEXTS),
       hst.lists(hst.tuples(hst.sampled_from(("replace", "insert", "delete")),
                            hst.integers(min_value=0), _CHARS),
                 min_size=1, max_size=4))
def test_mutated_inputs_raise_only_format_errors(text, mutations):
    try:
        ff.parse(_mutate(text, mutations))
    except ff.FormatError:
        pass


@settings(max_examples=200, deadline=None)
@given(hst.integers(min_value=0), hst.integers(min_value=1, max_value=6),
       hst.integers(min_value=0, max_value=9))
def test_parse_inverts_serialize(seed, n_vertices, n_edges):
    # Pinched, empty and signed sectors, and regions of positive genus.
    rng = random.Random(seed)
    rs = corpus.random_rotation(rng, n_vertices, n_edges)
    emb = corpus.close_random(rng, rs)
    for x, field in ((rs, "rotation"), (emb, "embedded")):
        text = ff.serialize(x)
        parsed = ff.parse(text)
        assert getattr(parsed, field) == x
        assert ff.serialize(getattr(parsed, field)) == text


def _mutant_texts(count=400, seed=2813) -> list[str]:
    """Seeded edits of bare, cellular, region and pinched files from
    both corpora: every other mutant makes one to four replace, insert
    or delete edits anywhere, the rest swap one or two digits for 0-3,
    which keeps most lines well formed and reaches the later checks."""
    pool = []
    for rs in corpus.cellular_corpus():
        pool += [ff.serialize(rs), ff.serialize(rs) + "cellular\n"]
    for emb in corpus.main_corpus():
        pool += [ff.serialize(emb), ff.serialize(emb.rotation)]
    chars = ("0123456789.,:()+-# \ncellular vertex sector edge sign region genus "
             "circles\tx(\u00e9")
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        text = rng.choice(pool)
        if i % 2:
            mutations = [(rng.choice(("replace", "insert", "delete")),
                          rng.randrange(len(text) + 1), rng.choice(chars))
                         for _ in range(rng.randint(1, 4))]
        else:
            digits = [at for at, c in enumerate(text) if c.isdigit()]
            mutations = [("replace", rng.choice(digits), rng.choice("0123"))
                         for _ in range(rng.randint(1, 2))]
        texts.append(_mutate(text, mutations))
    return texts


def _outcome(text: str) -> str:
    try:
        parsed = ff.parse(text)
    except ff.FormatError as exc:
        return f"error: {exc}"
    kept = parsed.rotation if parsed.embedded is None else parsed.embedded
    return "ok: " + repr(ff.serialize(kept))


_OUTCOMES_SHA256 = "63b2c190a5fd0e719ceae2891970a78d0962bf0f18b61979e3a0a153b0afc83a"
_PINNED_OUTCOMES = {
    0: "error: line 1: bad half-edge token '4.3' (expected edge.end with end 0 or 1)",
    1: "error: line 2: unrecognised line 'vertx 1: sector (1.1 2.1)'",
    2: "error: line 4: half-edge 1.0 placed twice (vertex 2 and vertex 3)",
    3: "error: line 5: vertex line has text outside sector (...) groups",
    12: "error: line 3: edge 1 declares ends 3 1 but its half-edges sit at 0 1",
    18: "error: line 5: half-edge 3.0 appears in no sector",
    20: "error: line 4: region 0 lists circle 2, but the trace has circles 0..1",
    182: "ok: 'vertex 0: sector (1.0 1.1)\\nedge 1: 0 0 sign -\\n'",
    292: "error: line 4: region 0 lists circle 1 twice",
}


def test_mutated_inputs_keep_their_messages():
    # Every mutant's first error, or its re-serialized text, pinned by
    # one digest over all of them.
    outcomes = [_outcome(text) for text in _mutant_texts()]
    for i, line in _PINNED_OUTCOMES.items():
        assert outcomes[i] == line, i
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == _OUTCOMES_SHA256

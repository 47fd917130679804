"""Plain-text exchange format for embedded graphs.

    # comments run to the end of the line
    vertex 1: sector (1.0 2.0 3.0)
    vertex 2: sector (1.1 2.1 3.1)
    edge 1: 1 2 sign +
    edge 2: 1 2 sign +
    edge 3: 1 2 sign +
    region 0: genus 0 circles 0
    cellular

A half-edge token is edge.end with end 0 or 1.  A vertex may list
several sectors (a pinch point); an isolated vertex is "sector ()".
Edge lines restate the endpoints, 0-end first, and carry the sign.
Region lines glue the numbered boundary circles of the full trace
(see the trace command) onto a region of the given genus.  The single
keyword "cellular" glues a disc onto every circle instead of explicit
region lines.  With neither, the file describes a bare rotation
system.  Every parse error carries the offending line number, but the
two that concern the file as a whole: "no vertex lines", and a circle
of the trace that no region covers.  Checking the regions needs only
the number of circles (RotationSystem.circle_count), so parse traces
nothing; the full trace is made by its first reader.  A disc on every
circle can fail no check, so a "cellular" file counts no circle at
parse either: its embedding is built by the first reader of
ParsedInput.embedded.
"""

from __future__ import annotations

import re
from functools import cached_property

from . import embedding as em
from . import multigraph as mg
from . import ribbon as rb

_VERTEX = re.compile(r"vertex\s+(\d+)\s*:\s*(.*)")
_SECTOR = re.compile(r"sector\s*\(([^()]*)\)")
_HALF = re.compile(r"(\d+)\.([01])")
_GROUP = re.compile(r"(?:\s*\d+\.[01](?!\S))*\s*")
_EDGE = re.compile(r"edge\s+(\d+)\s*:\s*(\d+)\s+(\d+)\s+sign\s+([+-])")
_REGION = re.compile(r"region\s+(\d+)\s*:\s*genus\s+(-?\d+)\s+circles\s+([\d,\s]+)")


class FormatError(ValueError):
    pass


class ParsedInput(mg.Frozen):
    """A rotation system, plus the embedding its region lines give, or
    the keyword cellular."""

    _fields = ("rotation", "given", "cellular")

    def __init__(self, rotation: rb.RotationSystem,
                 given: em.EmbeddedGraph | None = None, cellular: bool = False):
        self.__dict__.update(rotation=rotation, given=given, cellular=cellular)

    @cached_property
    def embedded(self) -> em.EmbeddedGraph | None:
        """The file's embedding, None for a bare rotation system; for
        the keyword cellular, a disc on every circle, glued on first
        read."""
        return em.with_disc_regions(self.rotation) if self.cellular else self.given


def _fail(lineno: int, msg: str):
    raise FormatError(f"line {lineno}: {msg}")


def parse(text: str) -> ParsedInput:
    sectors: dict[int, tuple] = {}
    signs: dict[int, int] = {}
    declared_ends: dict[int, tuple[int, int]] = {}
    edge_line: dict[int, int] = {}
    vertex_line: dict[int, int] = {}
    region_rows: list[tuple[int, int, int, list[int]]] = []  # line, id, genus, circles
    cellular_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "cellular":
            if cellular_line is not None:
                _fail(lineno, "duplicate 'cellular' keyword")
            cellular_line = lineno
            continue
        m = _VERTEX.fullmatch(line)
        if m:
            v = int(m.group(1))
            if v in sectors:
                _fail(lineno, f"vertex {v} declared twice")
            rest = m.group(2)
            groups = _SECTOR.findall(rest)
            if _SECTOR.sub("", rest).strip():
                _fail(lineno, "vertex line has text outside sector (...) groups")
            if not groups:
                _fail(lineno, f"vertex {v} needs at least one sector")
            for grp in groups:
                if not _GROUP.fullmatch(grp):
                    tok = next(t for t in grp.split() if not _HALF.fullmatch(t))
                    _fail(lineno, f"bad half-edge token '{tok}' "
                                  "(expected edge.end with end 0 or 1)")
            sectors[v] = tuple([tuple([(int(t[:-2]), int(t[-1])) for t in grp.split()])
                                for grp in groups])
            vertex_line[v] = lineno
            continue
        m = _EDGE.fullmatch(line)
        if m:
            e, u, w, sign = m.groups()
            e = int(e)
            if e in signs:
                _fail(lineno, f"edge {e} declared twice")
            signs[e] = 1 if sign == "+" else -1
            declared_ends[e] = (int(u), int(w))
            edge_line[e] = lineno
            continue
        m = _REGION.fullmatch(line)
        if m:
            r = int(m.group(1))
            genus = int(m.group(2))
            if genus < 0:
                _fail(lineno, f"region {r} has negative genus {genus}")
            tokens = [part.split() for part in m.group(3).split(",")]
            if any(len(t) > 1 for t in tokens):
                _fail(lineno, f"region {r} lists circles '{m.group(3).strip()}'; "
                              "separate circle ids with commas")
            circles = [int(t[0]) for t in tokens if t]
            if not circles:
                _fail(lineno, f"region {r} lists no circles")
            if any(r == row[1] for row in region_rows):
                _fail(lineno, f"region {r} declared twice")
            region_rows.append((lineno, r, genus, circles))
            continue
        _fail(lineno, f"unrecognised line '{line}'")

    if not sectors:
        raise FormatError("no vertex lines")
    if cellular_line is not None and region_rows:
        _fail(cellular_line, "'cellular' cannot be combined with region lines")

    # The rotation system checks where every half-edge sits; only if it
    # refuses, or an edge's ends differ, does _misplaced name the fault.
    try:
        rotation = rb.RotationSystem(sectors, signs)
    except rb.RibbonError as exc:
        _misplaced(sectors, signs, declared_ends, vertex_line, edge_line)
        raise FormatError(str(exc)) from exc
    if rotation.ends != declared_ends:
        _misplaced(sectors, signs, declared_ends, vertex_line, edge_line)

    if cellular_line is not None:
        return ParsedInput(rotation, cellular=True)
    if not region_rows:
        return ParsedInput(rotation)

    f = rotation.circle_count
    regions: dict[int, int] = {}
    region_genus: dict[int, int] = {}
    for lineno, r, genus, circles in region_rows:
        region_genus[r] = genus
        for c in circles:
            if not 0 <= c < f:
                _fail(lineno, f"region {r} lists circle {c}, but the trace has "
                              f"circles 0..{f - 1}")
            if c in regions:
                _fail(lineno, f"region {r} lists circle {c} twice" if regions[c] == r
                      else f"circle {c} is glued to region {regions[c]} and region {r}")
            regions[c] = r
    try:
        embedded = em.EmbeddedGraph(rotation, regions, region_genus)
    except em.EmbeddingError as exc:
        raise FormatError(str(exc)) from exc
    return ParsedInput(rotation, embedded)


def _misplaced(sectors, signs, declared_ends, vertex_line, edge_line) -> None:
    """Fail on the first half-edge placed twice or nowhere, edge with
    other ends than its line's, or vertex naming an undeclared edge."""
    placed: dict[tuple[int, int], int] = {}
    for v, secs in sectors.items():
        for sec in secs:
            for h in sec:
                if h in placed:
                    _fail(vertex_line[v],
                          f"half-edge {h[0]}.{h[1]} placed twice (vertex "
                          f"{placed[h]} and vertex {v})")
                placed[h] = v
    for e in signs:
        for end in (0, 1):
            if (e, end) not in placed:
                _fail(edge_line[e], f"half-edge {e}.{end} appears in no sector")
        actual = (placed[(e, 0)], placed[(e, 1)])
        if actual != declared_ends[e]:
            _fail(edge_line[e],
                  f"edge {e} declares ends {declared_ends[e][0]} "
                  f"{declared_ends[e][1]} but its half-edges sit at "
                  f"{actual[0]} {actual[1]}")
    for (e, _end), v in placed.items():
        if e not in signs:
            _fail(vertex_line[v], f"vertex {v} references undeclared edge {e}")


def serialize(x) -> str:
    """Canonical text for an EmbeddedGraph or a bare RotationSystem."""
    if isinstance(x, em.EmbeddedGraph):
        rotation, embedded = x.rotation, x
    else:
        rotation, embedded = x, None
    lines = []
    for v in rotation.vertices:
        secs = " ".join(
            "sector (" + " ".join(f"{e}.{end}" for e, end in sec) + ")"
            for sec in rotation.sectors[v])
        lines.append(f"vertex {v}: {secs}")
    for e in rotation.edges:
        u, w = rotation.ends[e]
        sgn = "+" if rotation.signs[e] > 0 else "-"
        lines.append(f"edge {e}: {u} {w} sign {sgn}")
    if embedded is not None:
        for r in sorted(embedded.region_genus):
            circles = sorted(c for c, rr in embedded.regions.items() if rr == r)
            lines.append(f"region {r}: genus {embedded.region_genus[r]} "
                         f"circles {','.join(str(c) for c in circles)}")
    return "\n".join(lines) + "\n"

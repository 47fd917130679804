"""Checks on every command's exit status and standard output.

For the default seed, outputs are compared with the reference recorded
in reference/<workload>.json (a hash of the input text and of the
expected stdout per input).  For any other seed, each output is checked
against a second route, computed untimed:

  poly --which lv-ext / lv --method recursion   equals lv-ext by expansion
  poly --which lv-ext (expansion)               equals lv-ext by recursion
  poly --which lv (expansion)                   equals lv-ext by expansion
  poly --which tutte                            T(1,1) = spanning trees
                                                (matrix-tree theorem) and
                                                T(2,2) = 2^|E|
  poly --which dichromatic                      Z(q,v) = q^k v^r T((q+v)/v, v+1)
  poly --which br                               R(x,y,1) = T(x,y+1)
  poly --which krushkal                         K(x,y,1,1) = L(x+1,y+1,1),
                                                K(1,1,1,1) = 2^|E|
  identities                                    the RESULT lines, names and
                                                statuses, are exactly those
                                                the input's manifest predicts

The polynomial identities are checked exactly, at fixed rational points.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from typing import Callable

VARS = ("x", "y", "z", "a", "b", "t")
_TERM = re.compile(r"(\d*)((?:[xyzabt](?:\^\d+|\^\(\d+/2\))?)*)")
_FACTOR = re.compile(r"([xyzabt])(?:\^(\d+)|\^\((\d+)/2\))?")
_POINTS = ((Fraction(2, 3), Fraction(5, 7)), (Fraction(-3, 2), Fraction(4, 5)),
           (Fraction(7, 3), Fraction(-2, 9)))
STATE_SWEEP_CAP = 8

RunCli = Callable[[list], tuple]    # argv -> (exit status, stdout)


def sha(text: str) -> str:
    """A short content hash; 64 bits tell a wrong output from the right one."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_poly(text: str) -> dict[tuple[int, ...], int]:
    """A canonical polynomial string, as half-unit exponent tuples."""
    tokens = text.split()
    if len(tokens) % 2 == 0:
        raise ValueError(f"not a polynomial: {text!r}")
    if tokens == ["0"]:
        return {}
    terms: dict[tuple[int, ...], int] = {}
    for op, body in [("+", tokens[0])] + list(zip(tokens[1::2], tokens[2::2])):
        if op not in "+-" or not body:
            raise ValueError(f"not a polynomial: {text!r}")
        sign = 1 if op == "+" else -1
        if body.startswith("-") and not terms:
            sign, body = -1, body[1:]
        m = _TERM.fullmatch(body)
        if not m or not body:
            raise ValueError(f"bad term {body!r}")
        exps = [0] * len(VARS)
        for f in _FACTOR.finditer(m.group(2)):
            exps[VARS.index(f.group(1))] += (2 * int(f.group(2)) if f.group(2)
                                             else int(f.group(3) or 2))
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * int(m.group(1) or 1)
    return terms


def evaluate(terms, values: dict, roots: dict | None = None) -> Fraction:
    """Exact value; odd half-powers take their base from roots."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        prod = Fraction(coeff)
        for var, h in zip(VARS, exps):
            if h % 2:
                prod *= Fraction(roots[var]) ** h
            elif h:
                prod *= Fraction(values[var]) ** (h // 2)
        total += prod
    return total


def spanning_trees(n_vertices: int, ends) -> int:
    """Kirchhoff: any cofactor of the Laplacian (loops ignored)."""
    lap = [[Fraction(0)] * n_vertices for _ in range(n_vertices)]
    for u, w in ends:
        if u != w:
            lap[u][u] += 1
            lap[w][w] += 1
            lap[u][w] -= 1
            lap[w][u] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            factor = m[r][i] / m[i][i]
            for c in range(i, len(m)):
                m[r][c] -= factor * m[i][c]
    return int(det)


def result_statuses(stdout: str) -> list[tuple[str, str]]:
    out = []
    for line in stdout.splitlines():
        if not line.startswith("RESULT: "):
            raise ValueError(f"unexpected line {line!r}")
        name, status = line[len("RESULT: "):].split(":", 1)[0].split(" ")[:2]
        out.append((name, status))
    return out


def expected_statuses(m: dict) -> list[tuple[str, str]]:
    """What `identities --suite all` must report for an input with
    these manifest properties (connected graphs only)."""
    def when(cond):
        return "pass" if cond else "skip"

    cellular, pinch_free = m["cellular"], not m["pinched"]
    out = [("perspective-self", "pass"), ("perspective-to-m", "pass"),
           ("perspective-to-m-prime", "pass"),
           ("lv-extension-matches-cellular", when(cellular))]
    out += [(name, when(cellular))
            for name in ("lv-to-tutte", "lv-tidy", "lv-dichromatic", "br-at-z1")]
    out += [("br-from-krushkal", when(pinch_free and cellular)),
            ("lv-from-krushkal-cellular", when(pinch_free and cellular)),
            ("lv-from-krushkal", when(pinch_free))]
    if not pinch_free or not m["edges"] or m["edges"] > STATE_SWEEP_CAP:
        return out + [("state-checks", "skip")]
    genus = m["ribbon_genus"]
    low = genus in (0, 1) or (genus == 2 and m["orientable"])
    return out + [("state-tracer-agreement", "pass"),
                  ("noncrossing-min-formula", when(low)),
                  ("state-generating-function", "pass"),
                  ("lr-relation", when(low)),
                  ("quasi-tree-duality", "pass")]


def _same_at_points(lhs, rhs) -> bool:
    return all(lhs(p, q) == rhs(p, q) for p, q in _POINTS)


def second_route(inp, path: str, stdout: str, run_cli: RunCli) -> str | None:
    """None when the output agrees with an independent computation,
    else the reason it does not."""
    if inp.argv[0] == "identities":
        got = result_statuses(stdout)
        want = expected_statuses(inp.manifest)
        return None if got == want else f"statuses {got} != expected {want}"

    which = inp.argv[inp.argv.index("--which") + 1]
    recursion = "recursion" in inp.argv

    def other(which_, method="expansion"):
        rc, out = run_cli(["poly", path, "--which", which_, "--method", method])
        if rc != 0:
            raise ValueError(f"second route {which_} {method} exited {rc}")
        return out

    if recursion or which == "lv":
        return None if stdout == other("lv-ext") else "differs from lv-ext expansion"
    if which == "lv-ext":
        return (None if stdout == other("lv-ext", "recursion")
                else "differs from lv-ext recursion")

    poly = parse_poly(stdout)
    n_edges = inp.manifest["edges"]
    if which == "krushkal":
        lv = parse_poly(other("lv-ext"))
        ones = {v: 1 for v in VARS}
        ok = evaluate(poly, ones, ones) == 2 ** n_edges and _same_at_points(
            lambda x, y: evaluate(poly, {"x": x, "y": y, "a": 1, "b": 1},
                                  {"a": 1, "b": 1}),
            lambda x, y: evaluate(lv, {"x": x + 1, "y": y + 1, "z": 1}))
        return None if ok else "K(x,y,1,1) != L(x+1,y+1,1)"
    if which == "tutte":
        trees = spanning_trees(inp.manifest["vertices"], inp.graph.ends.values())
        ok = (evaluate(poly, {"x": 2, "y": 2}) == 2 ** n_edges
              and evaluate(poly, {"x": 1, "y": 1}) == trees)
        return None if ok else f"T(1,1) != {trees} spanning trees or T(2,2) != 2^|E|"
    tutte = parse_poly(other("tutte"))
    if which == "dichromatic":
        r = inp.manifest["vertices"] - 1
        ok = _same_at_points(
            lambda q, v: evaluate(poly, {"x": q, "y": v}),
            lambda q, v: q * v ** r * evaluate(tutte, {"x": (q + v) / v, "y": v + 1}))
        return None if ok else "Z(q,v) != q^k v^r T((q+v)/v, v+1)"
    if which == "br":
        ok = _same_at_points(
            lambda x, y: evaluate(poly, {"x": x, "y": y, "z": 1}),
            lambda x, y: evaluate(tutte, {"x": x, "y": y + 1}))
        return None if ok else "R(x,y,1) != T(x,y+1)"
    raise ValueError(f"no second route for {inp.argv}")


def check(inp, path: str, result: dict, reference: dict | None,
          run_cli: RunCli) -> str | None:
    """None when the command succeeded with the right output, else why not."""
    if result["raised"]:
        return "raised " + result["raised"].strip().splitlines()[-1]
    if result["rc"] != 0:
        return f"exit status {result['rc']}"
    if reference is not None:
        if inp.id not in reference:
            return "no reference output for this input"
        text_hash, out_hash = reference[inp.id]
        if text_hash != sha(inp.text):
            return "the reference was recorded for another input"
        if sha(result["stdout"]) != out_hash:
            return "stdout differs from the reference"
        return None
    try:
        return second_route(inp, path, result["stdout"], run_cli)
    except Exception as exc:    # a broken second route fails this command only
        return f"second route failed: {type(exc).__name__}: {exc}"

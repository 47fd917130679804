"""Spans around topopoly's layers, recorded from outside the program.

install() replaces every public function of every topopoly module, and
the public methods (with the arithmetic operators) of MPolynomial and
RankMatroid, by a wrapper that records one span per call: name, start,
end, parent span and command id, plus whether the call raised.  Every
attribute bound to the same function object is replaced, in every
topopoly module, so names imported with `from x import f` are covered
too.  Spans live in flat arrays while the run lasts and are written out
once at its end; layer_metrics() computes the per-layer figures from
the written files.

The program runs on one thread, so no layer ever waits on another and
there is no waiting time to report: self time is the whole story.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from pathlib import Path

MODULES = ("cli", "fileformat", "poly", "embedding", "ribbon", "multigraph",
           "matroid", "mpoly", "states")
CLASSES = {"mpoly": "MPolynomial", "matroid": "RankMatroid"}
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__pow__", "__eq__", "__str__")
POLY_FUNCTIONS = ("tutte", "tutte_perspective", "las_vergnas_cellular",
                  "las_vergnas_embedded", "bollobas_riordan", "krushkal",
                  "dichromatic", "verify_identities")
_COLUMNS = {"name": "i", "parent": "i", "command": "i", "raised": "b",
            "start": "q", "end": "q"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {col: array(code) for col, code in _COLUMNS.items()}
        self.command = -1
        self._stack = [-1]

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        c = self.cols
        names, parents, commands = c["name"], c["parent"], c["command"]
        raised, starts, ends = c["raised"], c["start"], c["end"]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            commands.append(self.command)
            raised.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"{package.__name__}.{short}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__ and id(fn) not in wrappers):
                    wrappers[id(fn)] = self._wrap(fn, f"{short}.{attr}")
            if short in CLASSES:
                self._install_methods(getattr(mod, CLASSES[short]), short)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(mod, attr, wrappers[id(value)])
        if len(set(self.names)) != len(self.names):
            raise RuntimeError("two wrapped callables share a span name")

    def _install_methods(self, cls, short: str) -> None:
        done: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in done:
                done[id(fn)] = self._wrap(fn, f"{short}.{fn.__name__.strip('_')}")
            wrapped = done[id(fn)]
            setattr(cls, attr, staticmethod(wrapped)
                    if isinstance(raw, staticmethod) else wrapped)

    def write(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "names.json").write_text(json.dumps(self.names))
        for col, arr in self.cols.items():
            with open(out / f"{col}.bin", "wb") as fh:
                arr.tofile(fh)


def read_spans(out: Path) -> tuple[list[str], dict[str, array]]:
    names = json.loads((out / "names.json").read_text())
    cols = {}
    for col, code in _COLUMNS.items():
        arr = array(code)
        path = out / f"{col}.bin"
        with open(path, "rb") as fh:
            arr.fromfile(fh, path.stat().st_size // arr.itemsize)
        cols[col] = arr
    return names, cols


def self_times(cols: dict[str, array]) -> list[int]:
    """Per span: its duration minus the durations of its direct child
    spans, in nanoseconds."""
    starts, ends, parents = cols["start"], cols["end"], cols["parent"]
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def layer_metrics(out: Path) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced run, as name -> (value, unit)."""
    names, cols = read_spans(out)
    own = self_times(cols)
    n = len(names)
    calls, raised, self_ns = [0] * n, [0] * n, [0] * n
    name_col, parent_col = cols["name"], cols["parent"]
    rank_id = names.index("matroid.rank")
    mg_rank_id = names.index("multigraph.rank")
    under_rank = array("b", bytes(len(name_col)))
    oracle_calls = 0
    for i, k in enumerate(name_col):
        calls[k] += 1
        raised[k] += cols["raised"][i]
        self_ns[k] += own[i]
        p = parent_col[i]
        if p >= 0 and (under_rank[p] or name_col[p] == rank_id):
            under_rank[i] = 1
            if k == mg_rank_id:
                oracle_calls += 1
    by_name = {name: (calls[k], self_ns[k] / 1e9, raised[k])
               for k, name in enumerate(names)}

    def count(name):
        return by_name[name][0]

    def secs(name):
        return by_name[name][1]

    m: dict[str, tuple[float, str]] = {}
    for mod in MODULES:
        rows = [v for name, v in by_name.items() if name.split(".")[0] == mod]
        m[f"{mod}.calls"] = (sum(r[0] for r in rows), "count")
        m[f"{mod}.self_s"] = (sum(r[1] for r in rows), "s")
        m[f"{mod}.errors"] = (sum(r[2] for r in rows), "count")
    for name in ("ribbon.trace_boundary", "multigraph.components"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.self_s"] = (secs(name), "s")
    # trace_boundary checks its subset and delegates to this tracing loop.
    m["ribbon.trace_sectors.self_s"] = (secs("ribbon.trace_sectors"), "s")
    for name in ("ribbon.euler_genus", "ribbon.dual", "multigraph.rank",
                 "embedding.validate", "embedding.complement_stats",
                 "embedding.rho", "embedding.derive_dagger", "matroid.rank",
                 "mpoly.mul", "mpoly.evaluate", "mpoly.substitute",
                 "states.state_components", "states.medial_state_components",
                 "states.lv_component_formula"):
        m[f"{name}.calls"] = (count(name), "count")
    m["mpoly.evaluate.self_s"] = (secs("mpoly.evaluate"), "s")
    m["embedding.minor.calls"] = (count("embedding.delete_edge")
                                  + count("embedding.contract_edge"), "count")
    rank_calls = count("matroid.rank")
    m["matroid.rank.oracle_ratio"] = (oracle_calls / rank_calls if rank_calls else 0.0,
                                      "ratio")
    for fn in POLY_FUNCTIONS:
        m[f"poly.{fn}.self_s"] = (secs(f"poly.{fn}"), "s")
    return m


def command_wall_and_self(out: Path, command: int) -> tuple[float, float]:
    """(duration of the command's root spans, sum of the self times of
    all its spans), in seconds."""
    _, cols = read_spans(out)
    own = self_times(cols)
    root = total = 0
    for i, c in enumerate(cols["command"]):
        if c != command:
            continue
        total += own[i]
        if cols["parent"][i] < 0:
            root += cols["end"][i] - cols["start"][i]
    return root / 1e9, total / 1e9

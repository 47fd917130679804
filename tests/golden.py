"""Golden outputs over both test corpora, one sha256 per graph.

golden.json holds, per graph of main_corpus() and cellular_corpus(),
a digest of the canonical strings of every expansion (tutte of the
underlying graph, the perspective expansion, br, lv, lv-ext, krushkal,
dichromatic; the exception class name where one raises), and, per
graph of cellular_corpus(), a digest of its run_state_checks RESULT
lines.  test_poly and test_acceptance compare against it.

Re-record, after a change meant to alter outputs, from the repo root:

    PYTHONPATH=src python tests/golden.py

and review the diff of tests/golden.json.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
from topopoly import embedding as em  # noqa: E402
from topopoly import poly  # noqa: E402
from topopoly import states as st  # noqa: E402

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

_EXPANSIONS = (
    ("tutte", lambda emb: poly.tutte(emb.rotation.underlying())),
    ("perspective", lambda emb: poly.tutte_perspective(
        em.scheme_perspective(em.derive_dagger(emb)))),
    ("br", lambda emb: poly.bollobas_riordan(emb.rotation)),
    ("lv", lambda emb: poly.las_vergnas_cellular(emb.rotation)),
    ("lv-ext", lambda emb: poly.las_vergnas_embedded(emb)),
    ("krushkal", lambda emb: poly.krushkal(emb)),
    ("dichromatic", lambda emb: poly.dichromatic(emb.rotation.underlying())),
)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def poly_digest(emb: em.EmbeddedGraph) -> str:
    lines = []
    for name, fn in _EXPANSIONS:
        try:
            text = str(fn(emb))
        except ValueError as exc:  # every topopoly error; its class is kept
            text = type(exc).__name__
        lines.append(f"{name}: {text}")
    return _digest(lines)


def state_digest(results) -> str:
    return _digest(r.line() for r in results)


def main_embeddings():
    return list(corpus.main_corpus())


def cellular_embeddings():
    return [em.with_disc_regions(rs) for rs in corpus.cellular_corpus()]


def load() -> dict:
    with open(PATH, encoding="ascii") as fh:
        return json.load(fh)


def record() -> None:
    data = {
        "main": [poly_digest(e) for e in main_embeddings()],
        "cellular": [poly_digest(e) for e in cellular_embeddings()],
        "states": [state_digest(st.run_state_checks(rs)[0])
                   for rs in corpus.cellular_corpus()],
    }
    with open(PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record()

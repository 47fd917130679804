"""Search for cellular embeddings that share one polynomial and differ
in another, pairs of the kinds that corpus.ribbon_twins and
surface_twins pin.

    PYTHONPATH=src:tests python tests/witness_search.py [SEED]

For each size of 2 to 6 edges it draws 6,000 seeded connected
pinch-free rotation systems with 1 to 3 vertices (corpus.random_rotation;
every other draw signed, the rest plain), closes each by discs, and
groups the draws by R, by L, and by R and L together.  It prints, per
size, how many groups hold draws that differ in L, R or K, and the
first such pair of each kind.
"""

import random
import sys
from collections import defaultdict

import corpus
from topopoly import embedding as em
from topopoly import multigraph as mg
from topopoly import poly

DRAWS, SIZES = 6000, range(2, 7)
# (grouped by, differing in)
KINDS = (("R", "L"), ("R", "K"), ("L", "R"), ("RL", "K"))


def polys(rs) -> dict[str, str]:
    r, lv = str(poly.bollobas_riordan(rs)), str(poly.las_vergnas_cellular(rs))
    return {"R": r, "L": lv, "RL": r + " | " + lv,
            "K": str(poly.krushkal(em.with_disc_regions(rs)))}


def main(seed: int) -> None:
    rng = random.Random(seed)
    for n_edges in SIZES:
        draws = []
        while len(draws) < DRAWS:
            rs = corpus.random_rotation(rng, rng.randint(1, 3), n_edges, allow_pinch=False,
                                        signed=len(draws) % 2 == 0)
            if mg.components(rs.underlying()) == 1:
                draws.append((rs, polys(rs)))
        for key, other in KINDS:
            groups = defaultdict(dict)
            for rs, p in draws:
                groups[p[key]].setdefault(p[other], rs)
            split = [list(g.values()) for g in groups.values() if len(g) > 1]
            first = f"  first: {split[0][0]!r} ~ {split[0][1]!r}" if split else ""
            print(f"{n_edges} edges: {len(split)} {key}-equal groups with "
                  f"different {other}{first}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)

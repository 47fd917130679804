"""Matroids as rank oracles, and matroid perspectives.

A matroid is a ground set together with a rank function.  A subset is
an int mask, bit i standing for ground[i]: the multigraph encoding
(multigraph.subset_ids), in which the failing checks name subsets too.
RankMatroid.mask checks ids, and rank its mask.

A dual is a mask transform of the parent oracle, so it stays cheap to
build and correct by construction; minors, and the exhaustive axiom,
circuit and flat checks, are test oracles (tests/oracles.py), since no
command runs them.  A point query runs the oracle.  An exhaustive
walk reads RankMatroid.table instead, a bytearray whose byte A is the
rank of mask A, built on first use, every per-mask step in C: from
multigraph.component_table for a cycle matroid, from the parent's
table for a dual, and from the oracle otherwise.  A rank outside a
byte raises.  Once it exists, rank reads it too.

A matroid perspective (M, M') is a pair on the same ground set such
that rank increments in M dominate those in M'; equivalently every
circuit of M is a union of circuits of M'.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Callable, Iterable, NamedTuple

from . import multigraph as mg


class MatroidError(ValueError):
    pass


class RankMatroid:
    """A matroid given by its rank oracle on masks of the ground set."""

    __slots__ = ("ground", "full", "_rank_fn", "_table_fn", "_table", "name")

    def __init__(self, ground: Iterable[int], rank_fn: Callable[[int], int],
                 name: str = "matroid",
                 table_fn: Callable[[], bytearray] | None = None):
        self.ground: tuple[int, ...] = tuple(sorted(ground))
        if len(set(self.ground)) != len(self.ground):
            raise MatroidError("duplicate ground element")
        self.full = (1 << len(self.ground)) - 1
        self._rank_fn = rank_fn
        self._table_fn = table_fn
        self._table: bytearray | None = None
        self.name = name

    def mask(self, ids: Iterable[int]) -> int:
        """The mask of a set of ground elements."""
        ids = set(ids)
        if not ids <= set(self.ground):
            raise MatroidError(f"{ids - set(self.ground)} not in the ground set")
        return sum(1 << self.ground.index(e) for e in ids)

    def table(self) -> bytearray:
        """The rank of every mask, indexed by the mask; built on the
        first call, by table_fn if given, else by the oracle."""
        if self._table is None:
            self._table = (self._table_fn() if self._table_fn is not None
                           else bytearray(map(self._rank_fn, range(self.full + 1))))
        return self._table

    def rank(self, a: int | None = None) -> int:
        """Rank of mask a, of the ground set by default, read from the
        table once it exists, else from the oracle."""
        a = self.full if a is None else a
        if not 0 <= a <= self.full:
            raise MatroidError(f"mask {a} is outside 0..{self.full}")
        return self._rank_fn(a) if self._table is None else self._table[a]

    def __repr__(self):
        return f"RankMatroid({self.name}, ground={list(self.ground)})"


def cycle_matroid(g: mg.Multigraph) -> RankMatroid:
    """C(G): rank of A is v(G) - c(A)."""
    v = len(g.vertices)
    count = mg.component_counter(g)
    return RankMatroid(g.edges, lambda a: v - count(a), name="cycle",
                       table_fn=lambda: bytearray(mg.component_table(g).translate(
                           range(v, -1, -1)), "latin-1"))


def bond_matroid(g: mg.Multigraph) -> RankMatroid:
    """B(G), the dual of the cycle matroid."""
    m = dual(cycle_matroid(g))
    m.name = "bond"
    return m


def mask_sizes(n: int) -> bytearray:
    """|A| for every mask A of n elements, indexed by the mask."""
    out, step = bytearray(1), bytes(range(1, 256)) + bytes(1)
    for _ in range(n):
        out += out.translate(step)
    return out


def rank_rows(m: RankMatroid, m_prime: RankMatroid) -> Counter:
    """The rows (|A|, r(A), r'(A)) of all masks, counted in order of first sight."""
    n = len(m.ground)
    lanes = bytearray(4 << n)
    lanes[::4], lanes[1::4], lanes[2::4] = mask_sizes(n), m.table(), m_prime.table()
    return Counter({tuple(k.to_bytes(4, sys.byteorder)[:3]): count for k, count
                    in Counter(memoryview(lanes).cast("I")).items()})


def dual(m: RankMatroid) -> RankMatroid:
    """r*(A) = |A| + r(E - A) - r(E).  Mask full ^ a is full - a, so
    the dual's table is the parent's reversed."""
    r_full = m.rank()

    def table() -> bytearray:
        n = 1 << len(m.ground)
        w = bytearray(b"\0\1" * n)      # lanes of 256 + |A| + r(E - A) - r(E)
        w[::2] = mask_sizes(len(m.ground))
        x = int.from_bytes(w, "little")
        x -= int.from_bytes(bytes((r_full, 0)) * n, "little")
        w[::2], w[1::2] = m.table()[::-1], bytes(n)
        out = (x + int.from_bytes(w, "little")).to_bytes(2 * n, "little")
        if out[1::2].strip(b"\1"):       # no lane borrows: 1 is a rank in 0..255
            raise MatroidError(f"{m.name}* has a rank outside 0..255")
        return bytearray(out[::2])

    return RankMatroid(m.ground,
                       lambda a: a.bit_count() + m.rank(m.full ^ a) - r_full,
                       name=f"{m.name}*", table_fn=table)


def is_loop(m: RankMatroid, e: int) -> bool:
    return m.rank(m.mask((e,))) == 0


def is_isthmus(m: RankMatroid, e: int) -> bool:
    """True iff e is in every basis: r(E) - r(E - e) = 1."""
    return m.rank() - m.rank(m.full ^ m.mask((e,))) == 1


class MatroidPerspective(NamedTuple):
    """A validated pair (M, M') on one ground set, with rank increments
    of M dominating those of M'."""

    m: RankMatroid
    m_prime: RankMatroid

    @property
    def ground(self) -> tuple[int, ...]:
        return self.m.ground


def make_perspective(m: RankMatroid, m_prime: RankMatroid) -> MatroidPerspective:
    """Validate and build the perspective (M, M').

    Unit-increment domination is checked on every subset, on the rank
    tables.  Raises MatroidError with a witness pair, the first in mask
    order.
    """
    if m.ground != m_prime.ground:
        raise MatroidError("ground sets differ")
    # Domination: r(A + e) + r'(A) >= r(A) + r'(A + e), e not in A.  Byte
    # a of a table's int is the rank of mask a (below 64, or the masks are
    # walked); a shift by e's bytes puts A + e on A.  With top bits set no
    # byte borrows, and a top bit stays set where the inequality holds.
    t, tp = m.table(), m_prime.table()
    r, rp = (int.from_bytes(x, "little") for x in (t, tp))
    top = int.from_bytes(b"\x80" * len(t), "little")

    def holds(i):
        s, period = 8 << i, b"\x80" * (1 << i) + bytes(1 << i)
        without = int.from_bytes(period * (len(t) >> i + 1), "little")
        return ((((r >> s) + rp) | top) - r - (rp >> s)) & without == without

    falls = any(x.translate(None, bytes(range(64))) for x in (t, tp)) or not all(
        map(holds, range(len(m.ground))))
    for a in range(m.full) if falls else ():   # E has no element to add
        for i, e in enumerate(m.ground):
            b = 1 << i
            if not a & b and t[a | b] - t[a] < tp[a | b] - tp[a]:
                raise MatroidError(
                    f"not a perspective: rank step of M at "
                    f"A={mg.subset_ids(m.ground, a)}, e={e} is below M'")
    return MatroidPerspective(m, m_prime)

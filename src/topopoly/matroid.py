"""Matroids as rank oracles, and matroid perspectives.

A matroid is a ground set together with a rank function.  A subset is
an int mask, bit i standing for ground[i]: the multigraph encoding
(multigraph.subset_ids), in which the failing checks name subsets too.
RankMatroid.mask checks ids, and rank its mask.

Duals and minors are mask transforms of the parent oracle, so a chain
of operations stays cheap to build and correct by construction.  Point
queries are memoised per instance, keyed by the mask.  An exhaustive
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
from dataclasses import dataclass
from typing import Callable, Iterable

from . import multigraph as mg


class MatroidError(ValueError):
    pass


class RankMatroid:
    """A matroid given by its rank oracle on masks of the ground set."""

    __slots__ = ("ground", "full", "_rank_fn", "_table_fn", "_cache",
                 "_table", "name")

    def __init__(self, ground: Iterable[int], rank_fn: Callable[[int], int],
                 name: str = "matroid",
                 table_fn: Callable[[], bytearray] | None = None):
        self.ground: tuple[int, ...] = tuple(sorted(ground))
        if len(set(self.ground)) != len(self.ground):
            raise MatroidError("duplicate ground element")
        self.full = (1 << len(self.ground)) - 1
        self._rank_fn = rank_fn
        self._table_fn = table_fn
        self._cache: dict[int, int] = {}
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
            self._cache.clear()
        return self._table

    def rank(self, a: int | None = None) -> int:
        """Rank of mask a, of the ground set by default, read from the
        table once it exists; a is checked on a cache miss only."""
        a = self.full if a is None else a
        if self._table is not None and 0 <= a <= self.full:
            return self._table[a]
        cached = self._cache.get(a)
        if cached is None:
            if not 0 <= a <= self.full:
                raise MatroidError(f"mask {a} is outside 0..{self.full}")
            cached = self._cache[a] = self._rank_fn(a)
        return cached

    def __repr__(self):
        return f"RankMatroid({self.name}, ground={list(self.ground)})"


def _bits(a: int) -> list[int]:
    """The one-bit masks of the elements in a."""
    return [1 << i for i in range(a.bit_length()) if a >> i & 1]


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


def _minor(m: RankMatroid, e: int, contract: bool) -> RankMatroid:
    """M \\ e or M / e.  A mask of the minor lifts to the parent by
    keeping the bits below e's, moving the rest up one place, and for
    a contraction setting e's bit."""
    if e not in m.ground:
        raise MatroidError(f"no element {e}")
    i = m.ground.index(e)
    low = (1 << i) - 1
    bit = 1 << i if contract else 0
    r_e = m.rank(bit) if contract else 0

    def r(a: int) -> int:
        return m.rank((a & low) | ((a >> i) << (i + 1)) | bit) - r_e

    sep = "/" if contract else "\\"
    return RankMatroid(m.ground[:i] + m.ground[i + 1:], r,
                       name=f"{m.name}{sep}{e}")


def delete(m: RankMatroid, e: int) -> RankMatroid:
    return _minor(m, e, contract=False)


def contract(m: RankMatroid, e: int) -> RankMatroid:
    return _minor(m, e, contract=True)


def is_loop(m: RankMatroid, e: int) -> bool:
    return m.rank(m.mask((e,))) == 0


def is_isthmus(m: RankMatroid, e: int) -> bool:
    """True iff e is in every basis: r(E) - r(E - e) = 1."""
    return m.rank() - m.rank(m.full ^ m.mask((e,))) == 1


def is_flat(m: RankMatroid, a: int) -> bool:
    """True iff adding any outside element raises the rank."""
    r_a = m.rank(a)
    return all(m.rank(a | b) == r_a + 1 for b in _bits(m.full ^ a))


def check_rank_axioms(m: RankMatroid, max_exhaustive: int = 12) -> None:
    """Opt-in axiom validation; raises MatroidError with a witness.

    Checks r(empty) = 0, unit increase, and local submodularity
    r(A+e) + r(A+f) >= r(A+e+f) + r(A), exhaustively when the ground
    set has at most max_exhaustive elements.
    """
    if len(m.ground) > max_exhaustive:
        raise MatroidError(
            f"axiom check is exhaustive; ground set of {len(m.ground)} exceeds "
            f"cap {max_exhaustive}")
    if m.rank(0) != 0:
        raise MatroidError("rank of the empty set is not 0")
    for a in range(m.full + 1):
        r_a = m.rank(a)
        rest = [(1 << i, e) for i, e in enumerate(m.ground) if not a >> i & 1]
        for b, e in rest:
            step = m.rank(a | b) - r_a
            if step not in (0, 1):
                raise MatroidError(f"rank step {step} at "
                                   f"A={mg.subset_ids(m.ground, a)}, e={e}")
        for j, (b, e) in enumerate(rest):
            for c, f in rest[j + 1:]:
                if m.rank(a | b) + m.rank(a | c) < m.rank(a | b | c) + r_a:
                    raise MatroidError(
                        f"submodularity fails at A={mg.subset_ids(m.ground, a)}, "
                        f"e={e}, f={f}")


@dataclass(frozen=True)
class MatroidPerspective:
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


def circuits(m: RankMatroid) -> list[int]:
    """The masks of all circuits, the minimal dependent sets: r(A) =
    |A| - 1 with every A - e independent.  Exhaustive (small ground
    sets only)."""
    return [a for a in range(1, m.full + 1)
            if m.rank(a) == a.bit_count() - 1
            and all(m.rank(a ^ e) == a.bit_count() - 1 for e in _bits(a))]


def check_circuit_refinement(mp: MatroidPerspective, cap: int = 8) -> None:
    """Opt-in: every circuit of M must be a union of circuits of M'.

    Exhaustive, so gated to small ground sets.
    """
    if len(mp.ground) > cap:
        raise MatroidError(f"circuit check capped at {cap} elements")
    prime_circuits = circuits(mp.m_prime)
    for c in circuits(mp.m):
        covered = 0
        for cp in prime_circuits:
            if cp & c == cp:
                covered |= cp
        if covered != c:
            raise MatroidError(f"circuit {mg.subset_ids(mp.ground, c)} of M "
                               f"is not a union of circuits of M'")


def check_flat_refinement(mp: MatroidPerspective, cap: int = 8) -> None:
    """Opt-in: every flat of M' must be a flat of M (small ground sets)."""
    if len(mp.ground) > cap:
        raise MatroidError(f"flat check capped at {cap} elements")
    for a in range(mp.m.full + 1):
        if is_flat(mp.m_prime, a) and not is_flat(mp.m, a):
            raise MatroidError(
                f"flat {mg.subset_ids(mp.ground, a)} of M' is not a flat of M")

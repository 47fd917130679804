"""Matroids as rank oracles, and matroid perspectives.

A matroid is a ground set together with a rank function; nothing else
is ever materialised.  Duals and minors wrap the parent oracle, so a
chain of operations stays cheap to build and correct by construction.
Rank values are memoised per matroid instance (desk-scale ground sets;
the cache is bounded by 2^|E|).

A matroid perspective (M, M') is a pair on the same ground set such
that rank increments in M dominate those in M'; equivalently every
circuit of M is a union of circuits of M'.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from . import multigraph as mg


class MatroidError(ValueError):
    pass


class RankMatroid:
    """A matroid given by its rank oracle."""

    __slots__ = ("ground", "_ground_set", "_rank_fn", "_cache", "name")

    def __init__(self, ground: Iterable[int], rank_fn: Callable[[frozenset], int],
                 name: str = "matroid"):
        self.ground: tuple[int, ...] = tuple(sorted(ground))
        if len(set(self.ground)) != len(self.ground):
            raise MatroidError("duplicate ground element")
        self._ground_set = frozenset(self.ground)
        self._rank_fn = rank_fn
        self._cache: dict[frozenset, int] = {}
        self.name = name

    def rank(self, subset: Iterable[int] | None = None) -> int:
        a = self._ground_set if subset is None else frozenset(subset)
        if not a <= self._ground_set:
            raise MatroidError(f"{set(a) - set(self.ground)} not in the ground set")
        cached = self._cache.get(a)
        if cached is None:
            cached = self._cache[a] = self._rank_fn(a)
        return cached

    def __repr__(self):
        return f"RankMatroid({self.name}, ground={list(self.ground)})"


def cycle_matroid(g: mg.Multigraph) -> RankMatroid:
    """C(G): rank of A is v(G) - c(A)."""
    return RankMatroid(g.edges, lambda a: mg.rank(g, a), name="cycle")


def bond_matroid(g: mg.Multigraph) -> RankMatroid:
    """B(G), the dual of the cycle matroid."""
    m = dual(cycle_matroid(g))
    m.name = "bond"
    return m


def dual(m: RankMatroid) -> RankMatroid:
    full = frozenset(m.ground)
    r_full = m.rank()

    def r(a: frozenset) -> int:
        return len(a) + m.rank(full - a) - r_full

    return RankMatroid(m.ground, r, name=f"{m.name}*")


def delete(m: RankMatroid, e: int) -> RankMatroid:
    if e not in m.ground:
        raise MatroidError(f"no element {e}")
    ground = tuple(x for x in m.ground if x != e)
    return RankMatroid(ground, m.rank, name=f"{m.name}\\{e}")


def contract(m: RankMatroid, e: int) -> RankMatroid:
    if e not in m.ground:
        raise MatroidError(f"no element {e}")
    ground = tuple(x for x in m.ground if x != e)
    r_e = m.rank({e})

    def r(a: frozenset) -> int:
        return m.rank(a | {e}) - r_e

    return RankMatroid(ground, r, name=f"{m.name}/{e}")


def is_loop(m: RankMatroid, e: int) -> bool:
    return m.rank({e}) == 0


def is_isthmus(m: RankMatroid, e: int) -> bool:
    """True iff e is in every basis: r(E) - r(E - e) = 1."""
    full = frozenset(m.ground)
    return m.rank() - m.rank(full - {e}) == 1


def is_circuit(m: RankMatroid, a: Iterable[int]) -> bool:
    """Minimal dependent set: r(A) = |A| - 1 and A - e independent for all e."""
    a = frozenset(a)
    if not a:
        return False
    if m.rank(a) != len(a) - 1:
        return False
    return all(m.rank(a - {e}) == len(a) - 1 for e in a)


def is_flat(m: RankMatroid, a: Iterable[int]) -> bool:
    """True iff adding any outside element raises the rank."""
    a = frozenset(a)
    r_a = m.rank(a)
    return all(m.rank(a | {e}) == r_a + 1 for e in set(m.ground) - a)


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
    if m.rank(frozenset()) != 0:
        raise MatroidError("rank of the empty set is not 0")
    elems = m.ground
    for size in range(len(elems) + 1):
        for a in itertools.combinations(elems, size):
            a = frozenset(a)
            r_a = m.rank(a)
            rest = [e for e in elems if e not in a]
            for e in rest:
                step = m.rank(a | {e}) - r_a
                if step not in (0, 1):
                    raise MatroidError(f"rank step {step} at A={sorted(a)}, e={e}")
            for e, f in itertools.combinations(rest, 2):
                lhs = m.rank(a | {e}) + m.rank(a | {f})
                rhs = m.rank(a | {e, f}) + r_a
                if lhs < rhs:
                    raise MatroidError(
                        f"submodularity fails at A={sorted(a)}, e={e}, f={f}")


@dataclass(frozen=True)
class MatroidPerspective:
    """A validated pair (M, M') on one ground set, with rank increments
    of M dominating those of M'."""

    m: RankMatroid
    m_prime: RankMatroid

    @property
    def ground(self) -> tuple[int, ...]:
        return self.m.ground


def _perspective_witness(m: RankMatroid, mp: RankMatroid,
                         subsets: Iterable[frozenset]):
    for a in subsets:
        r_a, rp_a = m.rank(a), mp.rank(a)
        for e in m.ground:
            if e in a:
                continue
            if m.rank(a | {e}) - r_a < mp.rank(a | {e}) - rp_a:
                return (sorted(a), e)
    return None


def make_perspective(m: RankMatroid, m_prime: RankMatroid, *,
                     exhaustive_cap: int = 12, samples: int = 500,
                     seed: int = 2) -> MatroidPerspective:
    """Validate and build the perspective (M, M').

    Unit-increment domination is checked on every subset when the
    ground set has at most exhaustive_cap elements, otherwise on a
    seeded random sample.  Raises MatroidError with a witness pair.
    """
    if m.ground != m_prime.ground:
        raise MatroidError("ground sets differ")
    n = len(m.ground)
    if n <= exhaustive_cap:
        subsets = (frozenset(c) for size in range(n)
                   for c in itertools.combinations(m.ground, size))
    else:
        rng = random.Random(seed)
        subsets = (frozenset(e for e in m.ground if rng.random() < 0.5)
                   for _ in range(samples))
    witness = _perspective_witness(m, m_prime, subsets)
    if witness is not None:
        a, e = witness
        raise MatroidError(
            f"not a perspective: rank step of M at A={a}, e={e} is below M'")
    return MatroidPerspective(m, m_prime)


def circuits(m: RankMatroid) -> list[frozenset]:
    """All circuits, by exhaustive search (small ground sets only)."""
    out = []
    for size in range(1, len(m.ground) + 1):
        for a in itertools.combinations(m.ground, size):
            if is_circuit(m, a):
                out.append(frozenset(a))
    return out


def check_circuit_refinement(mp: MatroidPerspective, cap: int = 8) -> None:
    """Opt-in: every circuit of M must be a union of circuits of M'.

    Exhaustive, so gated to small ground sets.
    """
    if len(mp.ground) > cap:
        raise MatroidError(f"circuit check capped at {cap} elements")
    prime_circuits = circuits(mp.m_prime)
    for c in circuits(mp.m):
        covered = set()
        for cp in prime_circuits:
            if cp <= c:
                covered |= cp
        if covered != c:
            raise MatroidError(
                f"circuit {sorted(c)} of M is not a union of circuits of M'")


def check_flat_refinement(mp: MatroidPerspective, cap: int = 8) -> None:
    """Opt-in: every flat of M' must be a flat of M (small ground sets)."""
    if len(mp.ground) > cap:
        raise MatroidError(f"flat check capped at {cap} elements")
    for size in range(len(mp.ground) + 1):
        for a in itertools.combinations(mp.ground, size):
            if is_flat(mp.m_prime, a) and not is_flat(mp.m, a):
                raise MatroidError(f"flat {sorted(a)} of M' is not a flat of M")

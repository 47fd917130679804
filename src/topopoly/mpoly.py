"""Sparse integer polynomials in the fixed variables x, y, z, a, b, t.

Exponents are stored in half-units so that terms like z^(1/2) and
a^(3/2) are exact: a stored exponent h means the variable appears to
the power h/2.  Stored exponents are never negative; a substitution
that passes through negative powers (1/t, say) maps exponent buckets,
as poly's identity suite and the state checks do, rather than build a
value of this class.

The canonical string sorts terms lexicographically by exponent tuple,
so the same polynomial always prints the same way:

    1 + 3z + 2z^2 + xz^2
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import comb, prod
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

VARS = ("x", "y", "z", "a", "b", "t")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
_ZEROS = (0,) * len(VARS)
_odd = (1).__and__          # h & 1, mapped over an exponent column


def _power_suffix(h: int) -> str:
    if h == 2:
        return ""
    if h % 2 == 0:
        return f"^{h // 2}"
    return f"^({h}/2)"


# Each variable's text at the half-unit exponents below 64, "" at 0, for
# the printer; a higher exponent is spelled out term by term.
_X, _Y, _Z, _A, _B, _T = (tuple(v + _power_suffix(h) if h else "" for h in range(64))
                          for v in VARS)


class MPolynomial:
    """Immutable sparse polynomial; do not mutate the term dict."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(VARS):
                raise ValueError(f"exponent tuple {exps} needs {len(VARS)} entries")
            if any(not isinstance(h, int) or h < 0 for h in exps):
                raise ValueError(f"negative or non-integer exponent in {exps}")
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self._terms = clean

    @classmethod
    def _valid(cls, terms: dict[tuple[int, ...], int]) -> "MPolynomial":
        """Wrap a term dict whose keys are already valid exponent tuples,
        as sums of checked exponents are; only zero coefficients go."""
        p = cls.__new__(cls)
        p._terms = {e: c for e, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "MPolynomial":
        return MPolynomial._valid({})

    @staticmethod
    def one() -> "MPolynomial":
        return MPolynomial._valid({_ZEROS: 1})

    @staticmethod
    def constant(c: int) -> "MPolynomial":
        return MPolynomial._valid({_ZEROS: c})

    @staticmethod
    def variable(name: str, power: int = 1) -> "MPolynomial":
        return MPolynomial.variable_half(name, 2 * power)

    @staticmethod
    def variable_half(name: str, half_units: int) -> "MPolynomial":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        exps = [0] * len(VARS)
        exps[_VAR_INDEX[name]] = half_units
        return MPolynomial({tuple(exps): 1})

    @staticmethod
    def monomial(coeff: int = 1, **half_units: int) -> "MPolynomial":
        exps = [0] * len(VARS)
        for name, h in half_units.items():
            exps[_VAR_INDEX[name]] = h
        return MPolynomial({tuple(exps): coeff})

    # -- inspection --------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, **powers: int) -> int:
        """Coefficient of a whole-power monomial, e.g. coeff(x=1, z=2)."""
        exps = [0] * len(VARS)
        for name, p in powers.items():
            exps[_VAR_INDEX[name]] = 2 * p
        return self._terms.get(tuple(exps), 0)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MPolynomial._valid(terms)

    __radd__ = __add__

    def __neg__(self):
        return MPolynomial._valid({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return MPolynomial._valid(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = MPolynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPolynomial.constant(other)
        if not isinstance(other, MPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    # -- evaluation --------------------------------------------------

    def evaluate(self, values: Mapping[str, Fraction | int],
                 sqrts: Mapping[str, Fraction | int] | None = None) -> Fraction:
        """Exact value at a rational point.

        Variables with odd half-unit exponents need an entry in sqrts
        giving a rational square root of their value.  Each term is its
        coefficient times, for each variable it holds, the variable's
        root to the power h if it has an entry in sqrts, else its value
        to the power h/2; a term that needs a value or a root not given
        raises, the first such in term order.  Every given value is then
        read by Fraction(), so one it rejects raises even when no term
        reads it.  The identity suite and the state checks compare
        exponent buckets and evaluate nothing; the tests' oracles are
        _naive_value and the Fraction products in tests/test_mpoly.py.
        """
        # fractions pulls in decimal and numbers, which no command uses.
        from fractions import Fraction
        sqrts = sqrts or {}
        for name, s in sqrts.items():
            v = values.get(name)
            if v is None or Fraction(s) ** 2 != Fraction(v):
                raise ValueError(f"sqrts[{name!r}] is not a square root of the value")
        rows = []                           # (coeff, [(name, power)]) per term
        for exps, coeff in self._terms.items():
            row = []
            for name, h in zip(VARS, exps):
                if h and name not in sqrts:
                    if h % 2:
                        raise ValueError(f"odd half-power of {name} needs sqrts")
                    if name not in values:
                        raise ValueError(f"no value for {name}")
                    h //= 2
                if h:
                    row.append((name, h))
            rows.append((coeff, row))
        bases = {name: Fraction(sqrts.get(name, v)) for name, v in values.items()}
        return sum((coeff * prod(bases[name] ** h for name, h in row)
                    for coeff, row in rows), Fraction(0))

    def substitute(self, name: str, image: "MPolynomial") -> "MPolynomial":
        """Replace a whole-power variable by a polynomial: the sum over
        the terms of the rest of the term times its power of the image."""
        i = _VAR_INDEX[name]
        out = MPolynomial.zero()
        for exps, coeff in self._terms.items():
            h = exps[i]
            if h % 2:
                raise ValueError(f"cannot substitute into half-power of {name}")
            rest = MPolynomial._valid({exps[:i] + (0,) + exps[i + 1:]: coeff})
            out = out + rest * image ** (h // 2)
        return out

    # -- printing ----------------------------------------------------

    def __str__(self):
        terms = self._terms
        if not terms:
            return "0"
        parts = []
        for exps in sorted(terms):
            coeff = terms[exps]
            try:
                x, y, z, a, b, t = exps
                mono = _X[x] + _Y[y] + _Z[z] + _A[a] + _B[b] + _T[t]
            except IndexError:
                mono = "".join(v + _power_suffix(h) for v, h in zip(VARS, exps) if h)
            sign, mag = ("+ ", coeff) if coeff > 0 else ("- ", -coeff)
            parts.append(sign + mono if mag == 1 and mono else f"{sign}{mag}{mono}")
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"MPolynomial({self})"


def _coerce(value) -> MPolynomial:
    if isinstance(value, MPolynomial):
        return value
    if isinstance(value, int):
        return MPolynomial.constant(value)
    raise TypeError(f"cannot combine MPolynomial with {type(value).__name__}")


@cache
def _binomial_row(n: int) -> tuple[tuple[int, int], ...]:
    """(v - 1)^n as (half-unit exponent of v, coefficient) pairs."""
    return tuple((2 * p, (-1) ** (n - p) * comb(n, p)) for p in range(n + 1))


def assemble(names: Sequence[str], buckets: Mapping[tuple[int, ...], int],
             shifted: Iterable[str] = ()) -> MPolynomial:
    """Sum of count * prod w^(h/2) over the buckets.

    Each bucket key gives one half-unit exponent h per name in names;
    w is the variable itself, or v - 1 for each v in shifted, whose
    exponents must be whole and not negative, and are expanded
    binomially.  Every bucket with a nonzero count is checked first,
    column by column (_columns_valid); only if a check fails are the
    buckets walked in iteration order, so that the first bad bucket
    raises.  A key needs one entry per name.  The short keys are then
    expanded one shifted variable at a time: each pass maps every term
    through the cached binomial row of its exponent and merges equal
    keys, so the next pass sees each key once.  No polynomial products
    are formed, and the keys are widened to all of VARS once, at the
    end.
    """
    shifted = frozenset(shifted)
    terms = {key: count for key, count in buckets.items() if count}
    if not _columns_valid(names, terms, shifted):
        for key in terms:
            if len(key) != len(names):
                raise ValueError(f"bucket key {key} needs {len(names)} entries")
            for v, h in zip(names, key):
                if v in shifted and isinstance(h, int):
                    if h % 2:
                        raise ValueError(f"half-power of the shifted {v} - 1")
                    if h < 0:
                        raise ValueError(f"negative power of the shifted {v} - 1")
                if not isinstance(h, int) or h < 0:
                    raise ValueError(f"negative or non-integer exponent in {key}")
    for i, v in enumerate(names):
        if v not in shifted:
            continue
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for key, count in terms.items():
            if not key[i]:                  # (v - 1)^0 keeps the key
                out[key] = get(key, 0) + count
                continue
            head, tail = key[:i], key[i + 1:]
            for d, m in _binomial_row(key[i] // 2):
                e = head + (d,) + tail
                out[e] = get(e, 0) + count * m
        terms = out
    # Each variable of VARS reads its place in the key, or the 0 after it.
    place = {v: i for i, v in enumerate(names)}
    widen = itemgetter(*(place.get(v, len(names)) for v in VARS))
    return MPolynomial._valid({widen(key + (0,)): count
                               for key, count in terms.items()})


def _columns_valid(names: Sequence[str], keys, shifted: frozenset) -> bool:
    """Whether every key has one whole, non-negative half-unit exponent
    per name, even for each shifted name: one pass per column."""
    if not set(map(len, keys)) <= {len(names)}:
        return False
    for v, column in zip(names, zip(*keys)):
        if not all(map(isinstance, column, repeat(int))) or min(column) < 0:
            return False
        if v in shifted and any(map(_odd, column)):
            return False
    return True

"""Flat first operator on polynomial spinor fields over R^{2n}.

Fields are finite sums of monomials in the 2n coordinates x_{i,alpha}
(i in {1, 2} labels the two derivative slots, alpha in {1..n} the Clifford
directions) with exact spinor coefficients, stored as a tuple of distinct
multi-indices and one ``Matrix`` with a row per monomial and a column per
spinor component.  Zero rows are allowed, so a field is zero when its matrix
is and equal to another when their difference is zero.  A sum stacks the
matrices and merges equal monomials by one integer row map
(``linalg.row_map``); gamma_alpha on every coefficient is C gamma_alpha^T,
one signed-permutation scatter; d/dx_{i,alpha} sends the row of m to
m - e_{i,alpha} with weight m_{i,alpha}, one more row map.  The operator
sends f to (sum_a gamma_a d_{1,a} f, sum_a gamma_a d_{2,a} f).  Applied to
<x, xi>^k psi0 it reproduces k <x, xi>^{k-1} sigma1(xi) psi0, the
cross-check tying the differential operator to the symbol module.
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial, prod
from typing import Dict, List, Sequence, Tuple

from .clifford import GammaRep
from .linalg import Matrix, row_map, times_signed_perms, vstack
from .symbols import Covector, sigma1

MultiIndex = Tuple[int, ...]
# monomial -> the (row, integer weight) pairs that combine into its row
Targets = Dict[MultiIndex, List[Tuple[int, int]]]


class PolySpinorField:
    """Polynomial map R^{2n} -> C^s: row r of ``coef`` is the spinor
    coefficient of the monomial ``monos[r]``."""

    __slots__ = ("n", "monos", "coef")

    def __init__(self, n: int, monos: Sequence[MultiIndex], coef: Matrix):
        monos = tuple(map(tuple, monos))
        if len(monos) != coef.nrows:
            raise ValueError(f"{len(monos)} monomials for {coef.nrows} coefficient rows")
        if {len(mi) for mi in monos} != {2 * n} or min(map(min, monos)) < 0:
            raise ValueError(f"bad multi-index for n = {n}")
        if len(set(monos)) != len(monos):
            raise ValueError("repeated monomial")
        self.n, self.monos, self.coef = n, monos, coef

    @property
    def s(self) -> int:
        return self.coef.ncols

    @classmethod
    def constant(cls, n: int, psi: Sequence) -> "PolySpinorField":
        return cls(n, ((0,) * (2 * n),), Matrix([psi]))

    def _combine(self, other: "PolySpinorField", sign: int) -> "PolySpinorField":
        """self + sign * other: one stack, then one row map merging equal monomials."""
        if (self.n, self.s) != (other.n, other.s):
            raise ValueError("fields have different arity")
        split = len(self.monos)
        targets: Targets = {}
        for r, mi in enumerate(self.monos + other.monos):
            targets.setdefault(mi, []).append((r, 1 if r < split else sign))
        return _gathered(self.n, targets, vstack(self.coef, other.coef))

    def __add__(self, other: "PolySpinorField") -> "PolySpinorField":
        return self._combine(other, 1)

    def __sub__(self, other: "PolySpinorField") -> "PolySpinorField":
        return self._combine(other, -1)

    def scaled(self, c) -> "PolySpinorField":
        return PolySpinorField(self.n, self.monos, self.coef.scaled(c))

    def is_zero(self) -> bool:
        return self.coef.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySpinorField):
            return NotImplemented
        return (self.n, self.s) == (other.n, other.s) and (self - other).is_zero()

    def __repr__(self):
        return f"PolySpinorField(n={self.n}, s={self.s}, terms={len(self.monos)})"


def _gathered(n: int, targets: Targets, m: Matrix) -> PolySpinorField:
    """The field whose monomial mi has the row of m combined by targets[mi];
    with no targets, the zero field on the constant monomial."""
    if not targets:
        targets = {(0,) * (2 * n): []}
    return PolySpinorField(n, tuple(targets), row_map(m, tuple(targets.values())))


class PairField:
    """Output shape of the operator: a pair of fields over the same space."""

    __slots__ = ("p1", "p2")

    def __init__(self, p1: PolySpinorField, p2: PolySpinorField):
        if (p1.n, p1.s) != (p2.n, p2.s):
            raise ValueError("pair components have different arity")
        self.p1, self.p2 = p1, p2


def apply_flat_2dirac(rep: GammaRep, f: PolySpinorField) -> PairField:
    """p_i = sum_alpha gamma_alpha d_{i,alpha} f for i = 1, 2.

    The blocks C gamma_alpha^T are stacked, alpha by alpha; in slot i the row
    r of block alpha goes to monos[r] - e_{i,alpha} with weight
    monos[r][i, alpha].
    """
    n = rep.n
    if f.n != n or f.s != rep.s:
        raise ValueError(f"field arity ({f.n}, {f.s}) does not match rep "
                         f"({n}, {rep.s})")
    turned = vstack(*(times_signed_perms(f.coef, ((1, cols, phases),))
                      for cols, phases in zip(rep.cols, rep.transposed_phases)))
    size = len(f.monos)
    parts = []
    for i in range(2):
        targets: Targets = {}
        for alpha in range(n):
            var, offset = i * n + alpha, alpha * size
            for r, mi in enumerate(f.monos):
                e = mi[var]
                if e:
                    lowered = mi[:var] + (e - 1,) + mi[var + 1:]
                    targets.setdefault(lowered, []).append((offset + r, e))
        parts.append(_gathered(n, targets, turned))
    return PairField(parts[0], parts[1])


def linear_power_field(rep: GammaRep, xi: Covector, k: int,
                       psi0: Sequence) -> PolySpinorField:
    """The field <x, xi>^k psi0, by one multinomial expansion:
    <x, xi>^k = sum_{|m| = k} (k! / m!) xi^m x^m over the multi-indices m
    supported where xi is nonzero (a zero xi keeps the one term x_1^k, of
    weight 0**k), so the coefficients are the column of those weights
    times the row psi0."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if len(psi0) != rep.s:
        raise ValueError(f"spinor length {len(psi0)} != s = {rep.s}")
    coords = tuple(xi.x1) + tuple(xi.x2)
    support = [j for j, c in enumerate(coords) if c] or [0]
    monos = tuple(tuple(map(combo.count, range(len(coords))))
                  for combo in combinations_with_replacement(support, k))
    weights = Matrix((factorial(k) // prod(map(factorial, m)) * prod(map(pow, coords, m)),)
                     for m in monos)
    return PolySpinorField(rep.n, monos, weights @ Matrix([psi0]))


def symbol_cross_check(rep: GammaRep, xi: Covector, k: int, psi0: Sequence) -> bool:
    """Does the operator act on <x, xi>^k psi0 as k <x, xi>^{k-1} sigma1(xi)?"""
    if k < 1:
        raise ValueError("need k >= 1")
    if xi.is_zero():
        raise ValueError("need a nonzero covector")
    got = apply_flat_2dirac(rep, linear_power_field(rep, xi, k, psi0))
    lead, s = sigma1(rep, xi).apply(psi0), rep.s
    return (got.p1 == linear_power_field(rep, xi, k - 1, lead[:s]).scaled(k)
            and got.p2 == linear_power_field(rep, xi, k - 1, lead[s:]).scaled(k))

"""Flat first operator on polynomial spinor fields over R^{2n}.

Fields are finite sums of monomials in the 2n coordinates x_{i,alpha}
(i in {1, 2} labels the two derivative slots, alpha in {1..n} the Clifford
directions) with exact spinor coefficients: ints, Fractions or Gaussian
rationals, kept as given, so an integer field stays integral until a gamma
turns it by an odd power of i.  The operator sends a field f to the pair
(sum_a gamma_a d_{1,a} f, sum_a gamma_a d_{2,a} f), computed by exact
polynomial differentiation, each gamma permuting the entries of a spinor
coefficient and turning them by powers of i.  Applied to <x, xi>^k psi0 it
reproduces k times <x, xi>^{k-1} times the first symbol of xi, which is the
cross-check tying the differential operator to the symbol module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .clifford import GammaRep, gamma_apply
from .symbols import Covector, sigma1

MultiIndex = Tuple[int, ...]


def _coerce_spinor(psi: Sequence, s: int) -> tuple:
    if len(psi) != s:
        raise ValueError(f"spinor length {len(psi)} != s = {s}")
    return tuple(psi)


class PolySpinorField:
    """Polynomial map R^{2n} -> C^s with exact coefficients."""

    __slots__ = ("n", "s", "coeffs")

    def __init__(self, n: int, s: int, coeffs: Dict[MultiIndex, Sequence]):
        self.n = n
        self.s = s
        clean: Dict[MultiIndex, tuple] = {}
        for mi, vec in coeffs.items():
            if len(mi) != 2 * n or any(e < 0 for e in mi):
                raise ValueError(f"bad multi-index {mi} for n = {n}")
            v = _coerce_spinor(vec, s)
            if any(v):
                clean[tuple(mi)] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, n: int, s: int) -> "PolySpinorField":
        return cls(n, s, {})

    @classmethod
    def constant(cls, n: int, psi: Sequence) -> "PolySpinorField":
        return cls(n, len(psi), {(0,) * (2 * n): psi})

    def __add__(self, other: "PolySpinorField") -> "PolySpinorField":
        if (self.n, self.s) != (other.n, other.s):
            raise ValueError("fields have different arity")
        out = dict(self.coeffs)
        for mi, v in other.coeffs.items():
            if mi in out:
                out[mi] = tuple(a + b for a, b in zip(out[mi], v))
            else:
                out[mi] = v
        return PolySpinorField(self.n, self.s, out)

    def scaled(self, c) -> "PolySpinorField":
        return PolySpinorField(self.n, self.s,
                               {mi: tuple(c * a for a in v)
                                for mi, v in self.coeffs.items()})

    def __neg__(self) -> "PolySpinorField":
        return self.scaled(-1)

    def __sub__(self, other: "PolySpinorField") -> "PolySpinorField":
        return self + (-other)

    def diff(self, var: int) -> "PolySpinorField":
        """Exact partial derivative in coordinate ``var`` (0-based, < 2n)."""
        out: Dict[MultiIndex, tuple] = {}
        for mi, v in self.coeffs.items():
            k = mi[var]
            if k:
                lowered = mi[:var] + (k - 1,) + mi[var + 1:]
                scaledv = tuple(k * a for a in v)
                if lowered in out:
                    out[lowered] = tuple(a + b for a, b in zip(out[lowered], scaledv))
                else:
                    out[lowered] = scaledv
        return PolySpinorField(self.n, self.s, out)

    def mul_linear(self, linear: Sequence) -> "PolySpinorField":
        """Multiply by the scalar linear form sum_j linear[j] * x_j."""
        if len(linear) != 2 * self.n:
            raise ValueError("linear form has wrong arity")
        out: Dict[MultiIndex, tuple] = {}
        for mi, v in self.coeffs.items():
            for j, c in enumerate(linear):
                if not c:
                    continue
                raised = mi[:j] + (mi[j] + 1,) + mi[j + 1:]
                term = tuple(c * a for a in v)
                if raised in out:
                    out[raised] = tuple(a + b for a, b in zip(out[raised], term))
                else:
                    out[raised] = term
        return PolySpinorField(self.n, self.s, out)

    def gamma_apply(self, rep: GammaRep, alpha: int) -> "PolySpinorField":
        """gamma_{alpha+1} applied to every spinor coefficient."""
        return PolySpinorField(self.n, self.s,
                               {mi: gamma_apply(rep, alpha, v)
                                for mi, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySpinorField):
            return NotImplemented
        return (self.n, self.s) == (other.n, other.s) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PolySpinorField(n={self.n}, s={self.s}, terms={len(self.coeffs)})"


@dataclass(frozen=True)
class PairField:
    """Output shape of the operator: a pair of fields over the same space."""

    p1: PolySpinorField
    p2: PolySpinorField

    def __post_init__(self):
        if (self.p1.n, self.p1.s) != (self.p2.n, self.p2.s):
            raise ValueError("pair components have different arity")


def _covector_as_linear(xi: Covector) -> tuple:
    return tuple(xi.x1) + tuple(xi.x2)


def apply_flat_2dirac(rep: GammaRep, f: PolySpinorField) -> PairField:
    """p_i = sum_alpha gamma_alpha d_{i,alpha} f for i = 1, 2."""
    if f.n != rep.n or f.s != rep.s:
        raise ValueError(f"field arity ({f.n}, {f.s}) does not match rep "
                         f"({rep.n}, {rep.s})")
    parts = []
    for i in range(2):
        acc = PolySpinorField.zero(f.n, f.s)
        for alpha in range(rep.n):
            acc = acc + f.diff(i * rep.n + alpha).gamma_apply(rep, alpha)
        parts.append(acc)
    return PairField(parts[0], parts[1])


def linear_power_field(rep: GammaRep, xi: Covector, k: int,
                       psi0: Sequence) -> PolySpinorField:
    """The field <x, xi>^k psi0."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = PolySpinorField.constant(rep.n, _coerce_spinor(psi0, rep.s))
    linear = _covector_as_linear(xi)
    for _ in range(k):
        out = out.mul_linear(linear)
    return out


def symbol_cross_check(rep: GammaRep, xi: Covector, k: int, psi0: Sequence) -> bool:
    """Does the operator act on <x, xi>^k psi0 as k <x, xi>^{k-1} sigma1(xi)?"""
    if k < 1:
        raise ValueError("need k >= 1")
    if xi.is_zero():
        raise ValueError("need a nonzero covector")
    psi0 = _coerce_spinor(psi0, rep.s)
    got = apply_flat_2dirac(rep, linear_power_field(rep, xi, k, psi0))
    stacked = sigma1(rep, xi).apply(psi0)
    want = []
    for half in (stacked[:rep.s], stacked[rep.s:]):
        target = tuple(k * c for c in half)
        want.append(linear_power_field(rep, xi, k - 1, target))
    return got.p1 == want[0] and got.p2 == want[1]

"""Dict-of-tuples polynomial spinor fields: the test oracle for
``twodirac.flat``.

A field maps each multi-index of length 2n to a tuple of s exact scalars
(ints, Fractions or Gaussian rationals), with zero tuples dropped.  Every
operation works term by term on scalars: the derivative lowers one exponent,
the product with a linear form raises one, and gamma_alpha permutes a
spinor's entries and turns each by its power of i.  It never forms a
``Matrix``, so it shares with ``flat`` only the generators' permutations and
phases.
"""

from twodirac.scalars import GaussianRational


def _turn(x, k):
    """x * i**k for a phase exponent k in 0..3."""
    if k == 0:
        return x
    if k == 2:
        return -x
    x = x if type(x) is GaussianRational else GaussianRational(x)
    return GaussianRational(-x.im, x.re) if k == 1 else GaussianRational(x.im, -x.re)


def _accumulate(out, mi, v):
    out[mi] = tuple(a + b for a, b in zip(out[mi], v)) if mi in out else v


class DictField:
    """Polynomial map R^{2n} -> C^s as {multi-index: spinor tuple}."""

    def __init__(self, n, s, coeffs):
        self.n, self.s = n, s
        for mi, v in coeffs.items():
            assert len(mi) == 2 * n and min(mi) >= 0 and len(v) == s
        self.coeffs = {tuple(mi): tuple(v) for mi, v in coeffs.items() if any(v)}

    @classmethod
    def constant(cls, n, psi):
        return cls(n, len(psi), {(0,) * (2 * n): psi})

    def __add__(self, other):
        out = dict(self.coeffs)
        for mi, v in other.coeffs.items():
            _accumulate(out, mi, v)
        return DictField(self.n, self.s, out)

    def scaled(self, c):
        return DictField(self.n, self.s,
                         {mi: tuple(c * a for a in v) for mi, v in self.coeffs.items()})

    def diff(self, var):
        """Partial derivative in coordinate ``var`` (0-based, < 2n)."""
        out = {}
        for mi, v in self.coeffs.items():
            k = mi[var]
            if k:
                _accumulate(out, mi[:var] + (k - 1,) + mi[var + 1:],
                            tuple(k * a for a in v))
        return DictField(self.n, self.s, out)

    def mul_linear(self, linear):
        """Product with the scalar linear form sum_j linear[j] x_j."""
        out = {}
        for mi, v in self.coeffs.items():
            for j, c in enumerate(linear):
                if c:
                    _accumulate(out, mi[:j] + (mi[j] + 1,) + mi[j + 1:],
                                tuple(c * a for a in v))
        return DictField(self.n, self.s, out)

    def gamma_apply(self, rep, alpha):
        """gamma_{alpha+1} on every spinor: entry i is v[cols[i]] turned."""
        cols, phases = rep.cols[alpha], rep.phases[alpha]
        return DictField(self.n, self.s,
                         {mi: tuple(_turn(v[j], k) for j, k in zip(cols, phases))
                          for mi, v in self.coeffs.items()})


def apply_flat_2dirac(rep, f):
    """(p1, p2) with p_i = sum_alpha gamma_alpha d_{i,alpha} f."""
    parts = []
    for i in range(2):
        acc = DictField(f.n, f.s, {})
        for alpha in range(rep.n):
            acc = acc + f.diff(i * rep.n + alpha).gamma_apply(rep, alpha)
        parts.append(acc)
    return tuple(parts)


def linear_power_field(rep, xi, k, psi0):
    """<x, xi>^k psi0 by k products with the linear form."""
    out = DictField.constant(rep.n, psi0)
    for _ in range(k):
        out = out.mul_linear(tuple(xi.x1) + tuple(xi.x2))
    return out


def terms(f):
    """The nonzero terms of a ``flat.PolySpinorField``, as a DictField's."""
    return {mi: row for mi, row in zip(f.monos, f.coef.rows) if any(row)}

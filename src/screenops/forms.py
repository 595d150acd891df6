"""Twisted differential forms and Cartan calculus.

Two coefficient models share the same connection/contraction conventions:

* `RationalForm`: coefficients are exact rational functions of the
  configuration variables z_1..z_p with numerators polynomial in the base
  parameters.  The denominators that twisted calculus produces are always
  products of z monomials and pairwise differences (z_i - z_j), so a
  coefficient is a numerator over the exponents of those factors
  (`FactoredCoeff`).  No operation cancels a factor and no coefficient has a
  normal form: the only verdicts are zero tests, and over a nonzero
  denominator a coefficient is zero exactly when its numerator is.
  Everything (d, contractions, Lie derivatives) is computed in closed form;
  used for the abstract dg-module identities.

* `LaurentForm`: finitely many Laurent coefficients whose values live in an
  arbitrary vector type (module vectors, operator columns, scalars).  The
  connection's (z_i - z_j)^(-1) terms are handled by clearing denominators:
  `cleared_d` returns Delta * (twisted d) with Delta the product of the pair
  differences, so every comparison stays inside Laurent polynomials.  Each
  operation moves the total degree sum(e_q) of every term by a fixed amount.
  A form carries no range: the cochain family that builds it states one
  window, the (lo, hi) range of total degree on which each of its
  components is exact, and `TotalComplex` moves that window with the
  degrees to the range a row compares.

Vector fields are Witt elements: e_n acts as -z^(n+1) d/dz, diagonally in all
variables, with [e_n, e_m] = (n - m) e_{n+m}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .scalars import QQ, Combination, ParameterContext, ParamPolynomial, ParamScalar, _make
from .scalars import _FIELD, _shift

__all__ = [
    "Connection",
    "FactoredCoeff",
    "FormSpace",
    "RationalForm",
    "LaurentForm",
    "WittElement",
    "cleared_d",
    "clear_pairs",
    "koszul_value",
    "TotalComplex",
    "residue_functional",
    "contraction_cochain",
]

class Connection:
    """Log-derivative connection sum(k_q dz_q/z_q) + sum(k_qj (dz_q-dz_j)/(z_q-z_j)).

    ``_gammas`` memoises Gamma_q per (space, q) for `gamma`; `cleared_d`
    reads the exponents themselves and never that memo.
    """

    def __init__(self, kappa: Sequence, pairs: dict | None = None):
        self.kappa = tuple(kappa)
        self._gammas = {}
        self.pairs = {}
        for (i, j), c in (pairs or {}).items():
            if i == j:
                raise ValueError("pair term needs distinct variables")
            key = (i, j) if i < j else (j, i)
            if key[0] < 0 or key[1] >= len(self.kappa):
                raise ValueError("pair %r is out of range for %d variables" % ((i, j), len(self.kappa)))
            if key in self.pairs:
                raise ValueError("pair %r is given in both orders" % (key,))
            self.pairs[key] = c

    def pair(self, i: int, j: int):
        key = (i, j) if i < j else (j, i)
        return self.pairs.get(key)

    def active_pairs(self) -> list:
        return [key for key, c in self.pairs.items() if not _value_is_zero(c)]

    def gamma(self, space: "FormSpace", q: int) -> "FactoredCoeff":
        """Gamma_q = kappa_q/z_q + sum_j kappa_qj/(z_q - z_j) over space, built once."""
        if (space, q) not in self._gammas:
            one = FactoredCoeff(space, space.ctx.poly_const(1))
            gamma = one.shift_z(q, -1).mul_base(self.kappa[q])
            for j in range(space.nvars):
                if j != q:
                    gamma = gamma + one.mul_pair_inverse(q, j).mul_base(self.pair(q, j) or 0)
            self._gammas[(space, q)] = gamma
        return self._gammas[(space, q)]


def _value_is_zero(v) -> bool:
    """Zero test for generic coefficient values (scalars, vectors, numbers)."""
    probe = getattr(v, "is_zero", None)
    if probe is not None:
        return probe()
    return v == 0


class FormSpace:
    """Scalar context enlarged by configuration variables z_1..z_p."""

    def __init__(self, base: ParameterContext, nvars: int):
        self.base = base
        self.nvars = nvars
        self.var_names = tuple("z%d" % (q + 1) for q in range(nvars))
        self.ctx = ParameterContext(base.names + self.var_names)
        self._zoff = len(base.names)
        # the z's take the low fields of a packed exponent; z_q^1 packed, per q
        self._zbits = _FIELD * nvars
        self._zunit = tuple(1 << s for s in self.ctx._shifts[self._zoff :])
        self._pair_polys = {}
        for i in range(nvars):
            for j in range(i + 1, nvars):
                zi = self.ctx.poly_param(self.var_names[i])
                zj = self.ctx.poly_param(self.var_names[j])
                self._pair_polys[(i, j)] = zi - zj
        self._base_polys = {}

    def zvar(self, q: int) -> int:
        return self._zoff + q

    def z(self, q: int) -> ParamScalar:
        return self.ctx.param(self.var_names[q])

    def pair_poly(self, i: int, j: int) -> ParamPolynomial:
        return self._pair_polys[(i, j) if i < j else (j, i)]

    def base_poly(self, c) -> ParamPolynomial:
        """A rational, or a base-context scalar with a constant denominator, as a
        polynomial of ``ctx``; memoised per scalar.  Raises ValueError otherwise."""
        poly = self._base_polys.get(c)
        if poly is None:
            value = c if isinstance(c, ParamScalar) else self.base.const(c)
            if value.context != self.base or not value.den.is_constant():
                raise ValueError("%s is not a polynomial in the base parameters" % c)
            num, shift = value.num, self._zbits
            poly = _make(self.ctx, {e << shift: k for e, k in num.coeffs.items()}, num.content)
            self._base_polys[c] = poly
        return poly

    def lift(self, scalar: ParamScalar) -> ParamScalar:
        """Embed a base-context scalar into the enlarged context."""
        if scalar.context is self.ctx:
            return scalar
        return scalar.substitute({}, target=self.ctx)


class FactoredCoeff:
    """num / (prod z_q^zexp[q] * prod (z_i - z_j)^pairs[i,j]).

    `num` is a polynomial over the enlarged context, so base parameters occur
    only in numerators.  zexp[q] is signed (negative for a power of z_q in
    the numerator) and each pair exponent is positive.  There is no normal
    form: no operation cancels a factor of the denominator against `num`, so
    one value has many representations.  The denominator is never zero, so
    a zero test reads `num` alone, and `Combination` compares forms by the
    zero test of their difference.  Zero has no denominator.  `from_scalar`
    accepts a scalar whose denominator is a constant times a z monomial;
    pair differences enter the denominator only through `mul_pair_inverse`.
    """

    __slots__ = ("space", "num", "zexp", "pairs")

    def __init__(self, space: FormSpace, num: ParamPolynomial, zexp=None, pairs=None):
        self.space = space
        self.num = num
        if not num.coeffs:  # zero has one form: no denominator
            zexp = pairs = None
        self.zexp = tuple(zexp) if zexp is not None else (0,) * space.nvars
        self.pairs = {k: e for k, e in (pairs or {}).items() if e}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space: FormSpace) -> "FactoredCoeff":
        return cls(space, space.ctx.poly_const(0))

    @classmethod
    def from_scalar(cls, space: FormSpace, value) -> "FactoredCoeff":
        """A rational, or a scalar whose denominator is a constant times a z monomial."""
        if not isinstance(value, ParamScalar):
            return cls(space, space.ctx.poly_const(value))
        value = space.lift(value)
        den = value.den
        exp = next(iter(den.coeffs))
        if len(den.coeffs) != 1 or exp >> space._zbits:
            raise ValueError("denominator %s is not a product of supported factors" % den)
        zexp = space.ctx._unpack(exp)[space._zoff :]
        return cls(space, value.num * QQ(1, den.content), zexp)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self):
        return FactoredCoeff(self.space, -self.num, self.zexp, self.pairs)

    def __sub__(self, other: "FactoredCoeff") -> "FactoredCoeff":
        return self + -other

    def __add__(self, other: "FactoredCoeff") -> "FactoredCoeff":
        """The sum over the larger power of each z_q and each pair."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        space = self.space
        na, nb = self.num, other.num
        zexp, sa, sb = [], 0, 0
        for unit, a, b in zip(space._zunit, self.zexp, other.zexp):
            if a < b:
                sa += (b - a) * unit
            else:
                sb += (a - b) * unit
            zexp.append(max(a, b))
        na, nb = _shift(na, sa) if sa else na, _shift(nb, sb) if sb else nb
        pairs = {}
        for key in self.pairs.keys() | other.pairs.keys():
            a, b = self.pairs.get(key, 0), other.pairs.get(key, 0)
            if a < b:
                na = na * space.pair_poly(*key) ** (b - a)
            elif a > b:
                nb = nb * space.pair_poly(*key) ** (a - b)
            pairs[key] = max(a, b)
        return FactoredCoeff(space, na + nb, zexp, pairs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredCoeff(self.space, self.num * QQ(other), self.zexp, self.pairs)
        zexp = tuple(a + b for a, b in zip(self.zexp, other.zexp))
        keys = self.pairs.keys() | other.pairs.keys()
        pairs = {k: self.pairs.get(k, 0) + other.pairs.get(k, 0) for k in keys}
        return FactoredCoeff(self.space, self.num * other.num, zexp, pairs)

    def mul_base(self, c) -> "FactoredCoeff":
        """Multiply by a rational or a base-parameter polynomial (`FormSpace.base_poly`)."""
        return FactoredCoeff(self.space, self.num * self.space.base_poly(c), self.zexp, self.pairs)

    def shift_z(self, q: int, k: int) -> "FactoredCoeff":
        """Multiply by z_q^k."""
        if k == 0 or self.is_zero():
            return self
        zexp = self.zexp[:q] + (self.zexp[q] - k,) + self.zexp[q + 1 :]
        return FactoredCoeff(self.space, self.num, zexp, self.pairs)

    def mul_pair_inverse(self, i: int, j: int) -> "FactoredCoeff":
        """Multiply by 1/(z_i - z_j)."""
        key = (i, j) if i < j else (j, i)
        num = self.num if i < j else -self.num
        pairs = {**self.pairs, key: self.pairs.get(key, 0) + 1}
        return FactoredCoeff(self.space, num, self.zexp, pairs)

    def derivative_z(self, q: int) -> "FactoredCoeff":
        """d/dz_q: the num' term, then one term per power of z_q and per pair through q."""
        space = self.space
        out = FactoredCoeff(space, self.num.derivative(space.var_names[q]), self.zexp, self.pairs)
        if self.zexp[q]:
            out = out + (self * -self.zexp[q]).shift_z(q, -1)
        for key, b in self.pairs.items():
            if q in key:
                out = out + (self * (-b if q == key[0] else b)).mul_pair_inverse(*key)
        return out

    def __repr__(self):
        return "FactoredCoeff(num=%s, zexp=%r, pairs=%r)" % (self.num, self.zexp, self.pairs)


def _insert_sign(subset: tuple, q: int) -> int:
    """Sign of dz_q wedge dz_subset when sorted ascending."""
    return -1 if sum(1 for s in subset if s < q) % 2 else 1


class RationalForm(Combination):
    """Mixed-degree form with exact factored rational coefficients.

    ``terms`` maps a sorted dz-subset to a nonzero `FactoredCoeff`; sums are
    `Combination`'s, over ``space``.
    """

    __slots__ = ("space",)

    def __init__(self, space: FormSpace, terms: dict):
        self.space = space
        self.terms = {}
        for subset, coeff in terms.items():
            if not isinstance(coeff, FactoredCoeff):
                coeff = FactoredCoeff.from_scalar(space, coeff)
            if not coeff.is_zero():
                self.terms[tuple(subset)] = coeff

    def _like(self, terms: dict) -> "RationalForm":
        return RationalForm(self.space, terms)

    # bound in the class body: perfbench/tracer.py wraps it via __dict__
    __add__ = Combination.__add__

    def __rmul__(self, scalar):
        if not isinstance(scalar, (FactoredCoeff, int, Fraction)):
            scalar = FactoredCoeff.from_scalar(self.space, scalar)
        return RationalForm(self.space, {s: c * scalar for s, c in self.terms.items()})

    def d(self, conn: Connection) -> "RationalForm":
        space = self.space
        out: dict = {}
        for subset, coeff in self.terms.items():
            for q in range(space.nvars):
                if q in subset:
                    continue
                g = coeff.derivative_z(q) + coeff * conn.gamma(space, q)
                if g.is_zero():
                    continue
                new = tuple(sorted(subset + (q,)))
                add = g if _insert_sign(subset, q) == 1 else -g
                out[new] = out[new] + add if new in out else add
        return RationalForm(space, out)

    def contract(self, field: "WittElement") -> "RationalForm":
        """Diagonal interior product with mu(z_q) d/dz_q at every variable."""
        space = self.space
        out: dict = {}
        for subset, coeff in self.terms.items():
            for pos, q in enumerate(subset):
                for c, k in field.monomials():
                    g = coeff.mul_base(c).shift_z(q, k)
                    if g.is_zero():
                        continue
                    new = subset[:pos] + subset[pos + 1 :]
                    add = g if pos % 2 == 0 else -g
                    out[new] = out[new] + add if new in out else add
        return RationalForm(space, out)

    def lie(self, field: "WittElement", conn: Connection) -> "RationalForm":
        return self.contract(field).d(conn) + self.d(conn).contract(field)


class WittElement:
    """Finite combination of e_n = -z^(n+1) d/dz, acting diagonally."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {n: c for n, c in coeffs.items() if not _value_is_zero(c)}

    @classmethod
    def basis(cls, n: int) -> "WittElement":
        return cls({n: QQ(1)})

    def bracket(self, other: "WittElement") -> "WittElement":
        out: dict = {}
        for n, c in self.coeffs.items():
            for m, d in other.coeffs.items():
                k = (n - m) * (c * d)
                if not _value_is_zero(k):
                    key = n + m
                    out[key] = out.get(key, 0) + k
        return WittElement(out)

    def monomials(self) -> list:
        """[(coefficient, exponent)] with mu(z) = sum c z^k."""
        return [
            (-1 * c if isinstance(c, ParamScalar) else QQ(-1) * c, n + 1)
            for n, c in self.coeffs.items()
        ]

    def __repr__(self):
        return "WittElement(%r)" % (self.coeffs,)


# ---------------------------------------------------------------------------
# Laurent forms


class LaurentForm:
    """dict[(dz-subset, exponent tuple) -> value], zero values dropped; no range:
    the family window a component is exact on moves with its degrees (`TotalComplex`)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {}
        for (subset, exps), value in terms.items():
            if value is None or _value_is_zero(value):
                continue
            self.terms[(tuple(subset), tuple(exps))] = value

    def __add__(self, other: "LaurentForm") -> "LaurentForm":
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out[key] + value if key in out else value
        return LaurentForm(self.nvars, out)

    def __sub__(self, other: "LaurentForm") -> "LaurentForm":
        """Each term of other subtracted in place; only values new to self are negated."""
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out[key] - value if key in out else -1 * value
        return LaurentForm(self.nvars, out)

    def __rmul__(self, scalar) -> "LaurentForm":
        return LaurentForm(self.nvars, {k: scalar * v for k, v in self.terms.items()})

    def map_values(self, fn: Callable) -> "LaurentForm":
        """fn applied to every value."""
        return LaurentForm(self.nvars, {k: fn(v) for k, v in self.terms.items()})

    def shift(self, q: int, delta: int) -> "LaurentForm":
        """Multiply by z_q^delta."""
        out = {}
        for (subset, exps), value in self.terms.items():
            e = list(exps)
            e[q] += delta
            out[(subset, tuple(e))] = value
        return LaurentForm(self.nvars, out)

    def deriv(self, q: int) -> "LaurentForm":
        out = {}
        for (subset, exps), value in self.terms.items():
            if exps[q] == 0:
                continue
            e = list(exps)
            e[q] -= 1
            key = (subset, tuple(e))
            add = exps[q] * value
            out[key] = out[key] + add if key in out else add
        return LaurentForm(self.nvars, out)

    def mul_zdiff(self, i: int, j: int) -> "LaurentForm":
        """Multiply by (z_i - z_j), which raises the degree by one."""
        units = [tuple(int(v == w) for v in range(self.nvars)) for w in (i, j)]
        out: dict = {}
        for (subset, exps), value in self.terms.items():
            _add_offsets(out, subset, exps, value, [(units[0], None), (units[1], -1)])
        return LaurentForm(self.nvars, out)

    def contract(self, field: WittElement) -> "LaurentForm":
        """i_field: each monomial c z^k of the field takes a value off its dz_q
        to z_q^k times +-c (the sign of q's position); all add into one dict,
        a c of -1 as 1 of the other sign, and a negative term whose key is
        there is subtracted, with no negated copy.  The output at degree D
        reads the input at D - k for every k, so it is exact through the
        input's top degree plus the least k; a zero field gives zero."""
        out: dict = {}
        monomials = field.monomials()
        for coeff, k in monomials:
            flip = coeff == -1
            scale = -coeff if flip else coeff
            for q in range(self.nvars):
                for (subset, e), value in self.terms.items():
                    if q in subset:
                        pos = subset.index(q)
                        key = (subset[:pos] + subset[pos + 1 :], e[:q] + (e[q] + k,) + e[q + 1 :])
                        minus = (pos % 2 == 1) != flip
                        if key in out:
                            add = scale * value
                            out[key] = out[key] - add if minus else out[key] + add
                        else:
                            out[key] = (-scale if minus else scale) * value
        return LaurentForm(self.nvars, out)

    def is_zero(self) -> bool:
        return not self.terms


def _add_offsets(out: dict, subset: tuple, exps: tuple, value, shifts) -> None:
    """out[subset, exps + offset] += c * value for each (offset, c) of shifts; c None is 1.

    A c of -1 subtracts value where the key is already there, with no negated copy."""
    for offset, c in shifts:
        key = (subset, tuple(e + d for e, d in zip(exps, offset)))
        if key in out and c == -1:
            out[key] = out[key] - value
        else:
            add = value if c is None else c * value
            out[key] = out[key] + add if key in out else add


def _checked_nvars(form: LaurentForm, conn: Connection) -> int:
    if form.nvars != len(conn.kappa):
        raise ValueError("form has %d variables, connection %d" % (form.nvars, len(conn.kappa)))
    return form.nvars


def cleared_d(form: LaurentForm, conn: Connection) -> LaurentForm:
    """Delta * (twisted de Rham differential), Delta = prod of active pair diffs.

    The twisted differential is d + sum_q Gamma_q dz_q with Gamma_q =
    kappa_q/z_q + sum_j kappa_qj/(z_q - z_j).  Multiplying through by Delta
    keeps every term Laurent-polynomial: the pair term for (i, j) picks up
    Delta with that one factor omitted.  One pass over the form: for each q,
    exponent e_q and wedge sign the pieces (kappa_q + e_q) z_q^-1 Delta and
    kappa_qj Delta/(z_q - z_j) merge into one scalar per exponent shift, so a
    value is scaled once per output exponent.  Every piece moves the degree
    by |Delta| - 1, so the output is exact on the input's range moved by it.
    """
    nvars = _checked_nvars(form, conn)
    active = conn.active_pairs()
    out: dict = {}
    for q in range(nvars):
        # (factor, pairs left in Delta, z_q shift); factor None is kappa_q + e_q, and
        # kappa_qj changes sign for q = j since Delta carries z_i - z_j with i < j
        pieces = [(None, active, -1)] + [
            (conn.pair(*p) * (1 if q == p[0] else -1), [r for r in active if r != p], 0)
            for p in active if q in p]
        monomials = [_pair_power_monomials(nvars, dict.fromkeys(rest, 1)) for _, rest, _ in pieces]
        tables = {}  # (e_q, wedge sign) -> [(exponent shift, scalar)]
        for (subset, exps), value in form.terms.items():
            if q in subset:
                continue
            key = exps[q], _insert_sign(subset, q)
            if key not in tables:
                merged: dict = {}
                for n, (c, _, down) in enumerate(pieces):
                    c = key[1] * (conn.kappa[q] + exps[q] if c is None else c)
                    if not _value_is_zero(c):
                        for degs, m in monomials[n].items():
                            d = degs[:q] + (degs[q] + down,) + degs[q + 1 :]
                            merged[d] = merged[d] + m * c if d in merged else m * c
                tables[key] = [(d, None if c == 1 else c)
                               for d, c in merged.items() if not _value_is_zero(c)]
            _add_offsets(out, tuple(sorted(subset + (q,))), exps, value, tables[key])
    return LaurentForm(nvars, out)


def clear_pairs(form: LaurentForm, conn: Connection) -> LaurentForm:
    """Delta * form, for comparing against cleared_d outputs: each value is
    scaled once per monomial of Delta, all into one dict."""
    nvars = _checked_nvars(form, conn)
    active = conn.active_pairs()
    if not active:
        return form
    delta = _pair_power_monomials(nvars, dict.fromkeys(active, 1))
    shifts = [(d, None if c == 1 else c) for d, c in delta.items()]
    out: dict = {}
    for (subset, exps), value in form.terms.items():
        _add_offsets(out, subset, exps, value, shifts)
    return LaurentForm(form.nvars, out)


def koszul_value(phi: Callable, xs: Sequence, action: Callable, bracket: Callable):
    """Koszul differential of the cochain phi evaluated on xs.

    phi maps a list of Lie elements to a value; action(x, rest) is the module
    action of x on the value phi(rest); bracket(x, y) the Lie bracket.  Signs
    follow the standard convention with the bracket argument placed first; a
    term of sign -1 is subtracted from the running sum, never negated first.
    """
    total = None
    n = len(xs)
    for p in range(n):
        t = action(xs[p], list(xs[:p]) + list(xs[p + 1 :]))
        total = t if p == 0 else total - t if p % 2 else total + t
    for p in range(n):
        for q in range(p + 1, n):
            t = phi([bracket(xs[p], xs[q])] + [xs[r] for r in range(n) if r not in (p, q)])
            total = total - t if (p + q) % 2 else total + t
    return total


def _as_int(scalar: ParamScalar, what: str) -> int:
    if not scalar.is_rational():
        raise ValueError("non-integral exponent: %s is not a rational constant" % what)
    f = scalar.as_fraction()
    if f.denominator != 1:
        raise ValueError("non-integral exponent: %s = %s" % (what, f))
    return int(f)


def _pair_power_monomials(nvars: int, pairs: dict) -> dict:
    """prod_{i<j} (z_i - z_j)^pairs[i, j] as integer monomials {degrees: coeff}."""
    terms = {(0,) * nvars: 1}
    for (i, j), power in pairs.items():
        new: dict = {}
        for degs, c in terms.items():
            for k in range(power + 1):
                nd = list(degs)
                nd[i] += power - k
                nd[j] += k
                key = tuple(nd)
                new[key] = new.get(key, 0) + c * math.comb(power, k) * (-1) ** k
        terms = {k: v for k, v in new.items() if v}
    return terms


def residue_functional(form: LaurentForm, kappas: Sequence[int], pairs: dict):
    """Iterated residue of prod z_q^kappas[q] prod_{i<j} (z_i - z_j)^pairs[i, j] * form.

    Reads the top-degree coefficient at z^-1 in every slot: the sum over the
    monomials c z^d of the pair product of c times the coefficient of form at
    (-1 - kappas[q] - d[q])_q, all of total degree -nvars - sum(kappas) -
    sum(pairs), on which the form must be exact (`TotalComplex.residue`
    checks it against the family window).  Returns None when no such
    coefficient is present.
    """
    full = tuple(range(form.nvars))
    out = None
    for degs, c in _pair_power_monomials(form.nvars, pairs).items():
        exps = tuple(-1 - k - d for k, d in zip(kappas, degs))
        value = form.terms.get((full, exps))
        if value is not None:
            add = c * value
            out = add if out is None else out + add
    return out


class TotalComplex:
    """Rows of the total differential d' + (-1)^m d'' on a cochain family.

    A family supplies ``component(xs, u)`` (the depth-len(xs) component
    evaluated on the source vector u), the module actions ``act_target(x, v)``
    on values and ``act_source(x, u)`` on arguments, ``bracket(x, y)``, a
    ``connection`` and the number ``depth`` of slots.  The row at m elements
    is d' (the Koszul differential of the depth m-1 component) plus (-1)^m
    d'' (the twisted de Rham differential of the depth-m component); there is
    no depth-m component past ``depth``, and the depth-0 row is d'' alone.
    ``cleared_d`` returns Delta * d'', so d' is multiplied by the same pair
    product Delta (``clear_pairs``, the identity without pairs) before the
    two are added.  The family's ``window``, the (lo, hi) range of total
    degree (``math.inf`` at an open end) on which every component it returns
    is exact, is the one statement of exactness.  The actions keep the degree
    and d' and d'' move it by |Delta| and |Delta| - 1, so a row is exact on
    its row range, the window moved by both where the row has both parts.
    Every row is expected to vanish there, and the actions and differentials
    run only on the terms that land in it.  A row raises "window exceeded"
    when the components it reads have terms but none lands in the range; a
    row whose components are all zero is a true zero.  ``read_component``
    memoises ``component`` on the family by the values of (xs, u), so each
    is built once.

    ``residue(u)`` is the iterated residue of the top component on u at the
    connection's exponents (``residue_exponents``): ``residue_functional``
    reads it off the top component on u at one total degree, which must lie
    in the window, and the family's ``target`` supplies the zero.  It raises
    ``ValueError`` when an exponent is not an integer, a pair exponent is
    negative or the read degree is outside the window.  At such exponents
    the twisted form is single-valued and the residue of the exact part
    vanishes, so the residue is an intertwiner: ``intertwining_defect`` is
    expected to vanish.
    """

    def bracket(self, x, y):
        return x.bracket(y)

    def residue_exponents(self) -> tuple:
        """(kappas, pairs): the connection's exponents read as integers."""
        conn = self.connection
        kappas = tuple(_as_int(k, "puncture exponent") for k in conn.kappa)
        pairs = {key: _as_int(c, "pair exponent") for key, c in conn.pairs.items()}
        if any(power < 0 for power in pairs.values()):
            raise ValueError("non-integral exponent: pair exponent must be >= 0")
        return kappas, pairs

    def residue(self, u):
        """Iterated residue of the top component on u, a target vector."""
        kappas, pairs = self.residue_exponents()
        lo, hi = self.window
        if not lo <= -len(kappas) - sum(kappas) - sum(pairs.values()) <= hi:
            raise ValueError("residue exponents fall outside the validity window")
        got = residue_functional(self.read_component([], u), kappas, pairs)
        return self.target.zero() if got is None else got

    def intertwining_defect(self, x, u):
        """Target action after the residue minus the residue after the source action."""
        return self.act_target(x, self.residue(u)) - self.residue(self.act_source(x, u))

    def read_component(self, xs: Sequence, u) -> LaurentForm:
        """component(xs, u), built once per family for each value of (xs, u)."""
        memo = self.__dict__.setdefault("_components", {})
        key = tuple(map(_value_key, xs)), _value_key(u)
        form = memo.get(key)
        if form is None:
            form = memo[key] = self.component(xs, u)
        return form

    def residual(self, xs: Sequence, u) -> LaurentForm:
        """The total-differential row at the elements xs on the vector u, built
        from the terms of its components that land in the row range."""
        xs = list(xs)
        m = len(xs)
        shift = len(self.connection.active_pairs())
        lo = self.window[0] + shift - (m == 0)
        hi = self.window[1] + shift - (m <= self.depth)
        moved = {id(x): self.act_source(x, u) for x in xs}
        seen = kept = False

        def read(ys, v, down):  # the terms that land in the row range
            nonlocal seen, kept
            form = self.read_component(ys, v)
            a, b = lo + down - shift, hi + down - shift
            terms = {k: w for k, w in form.terms.items() if a <= sum(k[1]) <= b}
            seen, kept = seen or bool(form.terms), kept or bool(terms)
            return LaurentForm(form.nvars, terms)

        out = None
        if m:
            def action(x, ys):
                acted = read(ys, u, 0).map_values(lambda v: self.act_target(x, v))
                return acted - read(ys, moved[id(x)], 0)

            dprime = koszul_value(lambda ys: read(ys, u, 0), xs, action, self.bracket)
            out = clear_pairs(dprime, self.connection)
        if m <= self.depth:
            second = cleared_d(read(xs, u, 1), self.connection)
            out = second if out is None else out - second if m % 2 else out + second
        if seen and not kept:
            raise ValueError(
                "window exceeded: no term the row reads lies in its degree range; "
                "raise the degree cap or lower the loop modes"
            )
        return out


def _value_key(x):
    """A hashable key, equal for equal values: a sum by its type, space and terms."""
    if isinstance(x, Combination):
        return type(x), getattr(x, x._space), frozenset(x.terms.items())
    return frozenset(x.coeffs.items()) if isinstance(x, WittElement) else x


def contraction_cochain(omega: LaurentForm, fields: Sequence[WittElement]) -> LaurentForm:
    """i_{x_1} ... i_{x_a} omega with the parity twist (-1)^(a(a+1)/2).

    The twist aligns the contraction-assembled components with the global
    total-differential convention d' + (-1)^m d''.  An odd twist negates
    the first field, since i_{-x} = -i_x.
    """
    a = len(fields)
    if ((a * (a + 1)) // 2) % 2:
        fields = [WittElement({n: -c for n, c in fields[0].coeffs.items()}), *fields[1:]]
    out = omega
    for field in reversed(fields):
        out = out.contract(field)
    return out


"""Twisted differential forms and Cartan calculus.

Two coefficient models share the same connection/contraction conventions:

* `RationalForm`: coefficients are exact rational functions in the base
  parameters together with the configuration variables z_1..z_p.  The
  denominators that twisted calculus produces are always products of z
  monomials, pairwise differences (z_i - z_j), and base-parameter factors, so
  coefficients are kept in factored form (`FactoredCoeff`) and reduced
  against those known factors — no general multivariate gcd is ever needed.
  A pair difference is divided out only after substituting z_i = z_j shows
  that it divides; the exact division follows.  Everything
  (d, contractions, Lie derivatives) is computed in closed form; used for the
  abstract dg-module identities.

* `LaurentForm`: coefficients are finite Laurent windows whose values live in
  an arbitrary vector type (module vectors, operator columns, scalars).  The
  connection's (z_i - z_j)^(-1) terms are handled by clearing denominators:
  `cleared_d` returns Delta * (twisted d) with Delta the product of the pair
  differences, so every comparison stays inside Laurent polynomials.  Each
  form carries per-variable validity windows; operations shrink them, and
  zero-tests only inspect exponents inside the window.

Vector fields are Witt elements: e_n acts as -z^(n+1) d/dz, diagonally in all
variables, with [e_n, e_m] = (n - m) e_{n+m}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .scalars import QQ, ParameterContext, ParamPolynomial, ParamScalar

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
    "contraction_cochain",
]

_NEG_INF = None
_POS_INF = None


class Connection:
    """Log-derivative connection sum(k_q dz_q/z_q) + sum(k_qj (dz_q-dz_j)/(z_q-z_j))."""

    def __init__(self, kappa: Sequence, pairs: dict | None = None):
        self.kappa = tuple(kappa)
        self.pairs = {}
        for (i, j), c in (pairs or {}).items():
            if i == j:
                raise ValueError("pair term needs distinct variables")
            key = (i, j) if i < j else (j, i)
            self.pairs[key] = c

    def pair(self, i: int, j: int):
        key = (i, j) if i < j else (j, i)
        return self.pairs.get(key)

    def active_pairs(self) -> list:
        return [key for key, c in self.pairs.items() if not _scalar_is_zero(c)]


def _scalar_is_zero(c) -> bool:
    if isinstance(c, ParamScalar):
        return c.is_zero()
    return c == 0


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
        self._pair_polys = {}
        for i in range(nvars):
            for j in range(i + 1, nvars):
                zi = self.ctx.poly_param(self.var_names[i])
                zj = self.ctx.poly_param(self.var_names[j])
                self._pair_polys[(i, j)] = zi - zj

    def zvar(self, q: int) -> int:
        return self._zoff + q

    def z(self, q: int) -> ParamScalar:
        return self.ctx.param(self.var_names[q])

    def pair_poly(self, i: int, j: int) -> ParamPolynomial:
        return self._pair_polys[(i, j) if i < j else (j, i)]

    def pair_divides(self, key: tuple, poly: ParamPolynomial) -> bool:
        """Whether (z_i - z_j) divides poly, for key = (i, j) with i < j.

        Substitutes z_i = z_j and tests the image for zero.  The divisor is
        monic and linear in z_i, so the image is the remainder of the
        division and vanishes iff the division is exact.  Only the integer
        part is read, since the nonzero content does not change the answer.
        Terms are grouped by image exponent first: a group of one term
        cannot cancel, and each other group is summed in integers.
        """
        vi, vj = self.zvar(key[0]), self.zvar(key[1])
        groups: dict = {}
        for exp, c in poly.coeffs.items():
            k = exp[vi]
            if k:
                exp = exp[:vi] + (0,) + exp[vi + 1 : vj] + (exp[vj] + k,) + exp[vj + 1 :]
            groups.setdefault(exp, []).append(c)
        if any(len(cs) == 1 for cs in groups.values()):
            return False
        return not any(sum(cs) for cs in groups.values())

    def lift(self, scalar) -> ParamScalar:
        """Embed a base-context scalar (or rational) into the enlarged context."""
        if isinstance(scalar, ParamScalar):
            if scalar.context is self.ctx:
                return scalar
            return scalar.substitute({}, target=self.ctx)
        return self.ctx.scalar(scalar)


def _min_var_degree(poly: ParamPolynomial, var: int) -> int:
    return min(exp[var] for exp in poly.coeffs)


class FactoredCoeff:
    """num / (prod z_q^zexp[q] * prod (z_i - z_j)^pairs[i,j] * base_den).

    `num` is a polynomial over the enlarged context, `base_den` a nonzero
    polynomial in the base parameters only.  Reduction cancels the (known)
    denominator factors without a general gcd: z monomials by exponent
    shifts; each pair difference by a substitution test
    (`FormSpace.pair_divides`) followed by an exact division, repeated while
    the test passes; `base_den` by one exact division attempt.
    """

    __slots__ = ("space", "num", "zexp", "pairs", "base_den")

    def __init__(self, space: FormSpace, num: ParamPolynomial, zexp=None, pairs=None, base_den=None):
        self.space = space
        self.num = num
        self.zexp = tuple(zexp) if zexp is not None else (0,) * space.nvars
        self.pairs = {k: e for k, e in (pairs or {}).items() if e}
        self.base_den = base_den if base_den is not None else space.ctx.poly_const(1)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space: FormSpace) -> "FactoredCoeff":
        return cls(space, space.ctx.poly_const(0))

    @classmethod
    def from_scalar(cls, space: FormSpace, value) -> "FactoredCoeff":
        if isinstance(value, FactoredCoeff):
            return value
        if isinstance(value, ParamPolynomial):
            value = value.context.scalar(value)
        if not isinstance(value, ParamScalar):
            return cls(space, space.ctx.poly_const(value))
        value = space.lift(value)
        num = value.num
        den = value.den
        zexp = [0] * space.nvars
        for q in range(space.nvars):
            d = _min_var_degree(den, space.zvar(q))
            if d:
                den = den.shift_var(space.zvar(q), -d)
                zexp[q] = d
        pairs: dict = {}
        while not _is_base_only(space, den):
            for key, pp in space._pair_polys.items():
                if not space.pair_divides(key, den):
                    continue
                den = den.exact_div(pp)
                pairs[key] = pairs.get(key, 0) + 1
                break
            else:
                raise ValueError("denominator %s is not a product of supported factors" % den)
        return cls(space, num, zexp, pairs, den)._normalized()

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FactoredCoeff):
            other = FactoredCoeff.from_scalar(self.space, other)
        return (self - other).is_zero()

    __hash__ = None  # mutable-style value object; not for dict keys

    # -- normalization ----------------------------------------------------------

    def _normalized(self) -> "FactoredCoeff":
        num, zexp, pairs, base_den = self.num, list(self.zexp), dict(self.pairs), self.base_den
        space = self.space
        if num.is_zero():
            return FactoredCoeff.zero(space)
        for q in range(space.nvars):
            if zexp[q]:
                d = min(_min_var_degree(num, space.zvar(q)), zexp[q])
                if d:
                    num = num.shift_var(space.zvar(q), -d)
                    zexp[q] -= d
        for key in list(pairs):
            pp = space.pair_poly(*key)
            while pairs[key] and space.pair_divides(key, num):
                num = num.exact_div(pp)
                pairs[key] -= 1
            if not pairs[key]:
                del pairs[key]
        if base_den.is_constant():
            c = base_den.constant_value()
            if c != 1:
                num = num * (1 / c)
            base_den = space.ctx.poly_const(1)
        else:
            try:
                num = num.exact_div(base_den)
                base_den = space.ctx.poly_const(1)
            except ValueError:
                pass
        return FactoredCoeff(space, num, zexp, pairs, base_den)

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self):
        return FactoredCoeff(self.space, -self.num, self.zexp, self.pairs, self.base_den)

    def __add__(self, other: "FactoredCoeff") -> "FactoredCoeff":
        if not isinstance(other, FactoredCoeff):
            other = FactoredCoeff.from_scalar(self.space, other)
        space = self.space
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        zc = tuple(max(a, b) for a, b in zip(self.zexp, other.zexp))
        keys = set(self.pairs) | set(other.pairs)
        pc = {k: max(self.pairs.get(k, 0), other.pairs.get(k, 0)) for k in keys}
        if self.base_den == other.base_den:
            bc = self.base_den
            ma = mb = None
        else:
            bc = self.base_den * other.base_den
            ma, mb = other.base_den, self.base_den
        na = _scale_to_common(self, zc, pc, ma)
        nb = _scale_to_common(other, zc, pc, mb)
        return FactoredCoeff(space, na + nb, zc, pc, bc)._normalized()

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, FactoredCoeff):
            other = FactoredCoeff.from_scalar(self.space, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredCoeff(self.space, self.num * QQ(other), self.zexp, self.pairs, self.base_den)
        if not isinstance(other, FactoredCoeff):
            other = FactoredCoeff.from_scalar(self.space, other)
        zc = tuple(a + b for a, b in zip(self.zexp, other.zexp))
        keys = set(self.pairs) | set(other.pairs)
        pc = {k: self.pairs.get(k, 0) + other.pairs.get(k, 0) for k in keys}
        return FactoredCoeff(
            self.space, self.num * other.num, zc, pc, self.base_den * other.base_den
        )._normalized()

    __rmul__ = __mul__

    def mul_base(self, c) -> "FactoredCoeff":
        """Multiply by a base-parameter scalar (or rational)."""
        if isinstance(c, (int, Fraction)):
            return self * c
        return self * FactoredCoeff.from_scalar(self.space, c)

    def shift_z(self, q: int, k: int) -> "FactoredCoeff":
        """Multiply by z_q^k."""
        if k == 0 or self.is_zero():
            return self
        if k > 0:
            num = self.num.shift_var(self.space.zvar(q), k)
            return FactoredCoeff(self.space, num, self.zexp, self.pairs, self.base_den)._normalized()
        zexp = list(self.zexp)
        zexp[q] += -k
        return FactoredCoeff(self.space, self.num, zexp, self.pairs, self.base_den)._normalized()

    def mul_pair_inverse(self, i: int, j: int) -> "FactoredCoeff":
        """Multiply by 1/(z_i - z_j)."""
        key = (i, j) if i < j else (j, i)
        sign = 1 if i < j else -1
        pairs = dict(self.pairs)
        pairs[key] = pairs.get(key, 0) + 1
        num = self.num if sign == 1 else -self.num
        return FactoredCoeff(self.space, num, self.zexp, pairs, self.base_den)._normalized()

    def derivative_z(self, q: int) -> "FactoredCoeff":
        space = self.space
        name = space.var_names[q]
        out = FactoredCoeff(space, self.num.derivative(name), self.zexp, self.pairs, self.base_den)
        if self.zexp[q]:
            zexp = list(self.zexp)
            zexp[q] += 1
            out = out + FactoredCoeff(space, self.num * QQ(-self.zexp[q]), zexp, self.pairs, self.base_den)
        for key, b in self.pairs.items():
            if q not in key:
                continue
            sigma = 1 if q == key[0] else -1
            pairs = dict(self.pairs)
            pairs[key] = b + 1
            out = out + FactoredCoeff(space, self.num * QQ(-b * sigma), self.zexp, pairs, self.base_den)
        return out._normalized()

    def __repr__(self):
        return "FactoredCoeff(num=%s, zexp=%r, pairs=%r, base_den=%s)" % (
            self.num,
            self.zexp,
            self.pairs,
            self.base_den,
        )


def _is_base_only(space: FormSpace, poly: ParamPolynomial) -> bool:
    off = space._zoff
    return all(not any(exp[off:]) for exp in poly.coeffs)


def _scale_to_common(fc: FactoredCoeff, zc, pc, base_mult) -> ParamPolynomial:
    num = fc.num
    space = fc.space
    for q in range(space.nvars):
        d = zc[q] - fc.zexp[q]
        if d:
            num = num.shift_var(space.zvar(q), d)
    for key, e in pc.items():
        d = e - fc.pairs.get(key, 0)
        for _ in range(d):
            num = num * space.pair_poly(*key)
    if base_mult is not None:
        num = num * base_mult
    return num


def _insert_sign(subset: tuple, q: int) -> int:
    """Sign of dz_q wedge dz_subset when sorted ascending."""
    return -1 if sum(1 for s in subset if s < q) % 2 else 1


class RationalForm:
    """Mixed-degree form with exact factored rational coefficients."""

    __slots__ = ("space", "terms")

    def __init__(self, space: FormSpace, terms: dict | None = None):
        self.space = space
        self.terms = {}
        for subset, coeff in (terms or {}).items():
            if not isinstance(coeff, FactoredCoeff):
                coeff = FactoredCoeff.from_scalar(space, coeff)
            if not coeff.is_zero():
                self.terms[tuple(subset)] = coeff

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for s, c in other.terms.items():
            if s in out:
                out[s] = out[s] + c
            else:
                out[s] = c
        return RationalForm(self.space, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        if not isinstance(scalar, FactoredCoeff):
            scalar = FactoredCoeff.from_scalar(self.space, scalar)
        return RationalForm(self.space, {s: scalar * c for s, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, RationalForm) and (self - other).is_zero()

    __hash__ = None

    def d(self, conn: Connection | None = None) -> "RationalForm":
        space = self.space
        out: dict = {}
        for subset, coeff in self.terms.items():
            for q in range(space.nvars):
                if q in subset:
                    continue
                g = coeff.derivative_z(q)
                if conn is not None:
                    g = g + _connection_times(conn, coeff, q)
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

    def lie(self, field: "WittElement", conn: Connection | None = None) -> "RationalForm":
        return self.contract(field).d(conn) + self.d(conn).contract(field)


def _connection_times(conn: Connection, coeff: FactoredCoeff, q: int) -> FactoredCoeff:
    """Gamma_q * coeff with Gamma_q = kappa_q/z_q + sum_j kappa_qj/(z_q - z_j)."""
    total = FactoredCoeff.zero(coeff.space)
    kq = conn.kappa[q]
    if not _scalar_is_zero(kq):
        total = total + coeff.mul_base(kq).shift_z(q, -1)
    for j in range(coeff.space.nvars):
        if j == q:
            continue
        c = conn.pair(q, j)
        if c is None or _scalar_is_zero(c):
            continue
        total = total + coeff.mul_base(c).mul_pair_inverse(q, j)
    return total


class WittElement:
    """Finite combination of e_n = -z^(n+1) d/dz, acting diagonally."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {n: c for n, c in coeffs.items() if not _scalar_is_zero(c)}

    @classmethod
    def basis(cls, n: int) -> "WittElement":
        return cls({n: QQ(1)})

    def bracket(self, other: "WittElement") -> "WittElement":
        out: dict = {}
        for n, c in self.coeffs.items():
            for m, d in other.coeffs.items():
                k = (n - m) * (c * d)
                if not _scalar_is_zero(k):
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
# windowed Laurent forms with generic values


def _win_intersect(w1, w2):
    out = []
    for (a1, b1), (a2, b2) in zip(w1, w2):
        lo = a1 if a2 is _NEG_INF else (a2 if a1 is _NEG_INF else max(a1, a2))
        hi = b1 if b2 is _POS_INF else (b2 if b1 is _POS_INF else min(b1, b2))
        out.append((lo, hi))
    return tuple(out)


def _win_shift(window, q, delta):
    out = list(window)
    lo, hi = out[q]
    out[q] = (lo if lo is _NEG_INF else lo + delta, hi if hi is _POS_INF else hi + delta)
    return tuple(out)


def _in_window(exps, window) -> bool:
    for e, (lo, hi) in zip(exps, window):
        if lo is not _NEG_INF and e < lo:
            return False
        if hi is not _POS_INF and e > hi:
            return False
    return True


class LaurentForm:
    """dict[(dz-subset, exponent tuple) -> value] with validity windows."""

    __slots__ = ("nvars", "terms", "window")

    def __init__(self, nvars: int, terms: dict | None = None, window=None):
        self.nvars = nvars
        self.terms = {}
        for (subset, exps), value in (terms or {}).items():
            if value is None or _value_is_zero(value):
                continue
            self.terms[(tuple(subset), tuple(exps))] = value
        self.window = (
            tuple(window) if window is not None else tuple((_NEG_INF, _POS_INF) for _ in range(nvars))
        )

    def __add__(self, other: "LaurentForm") -> "LaurentForm":
        out = dict(self.terms)
        for key, value in other.terms.items():
            if key in out:
                out[key] = out[key] + value
            else:
                out[key] = value
        return LaurentForm(self.nvars, out, _win_intersect(self.window, other.window))

    def __sub__(self, other: "LaurentForm") -> "LaurentForm":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "LaurentForm":
        return LaurentForm(self.nvars, {k: scalar * v for k, v in self.terms.items()}, self.window)

    def map_values(self, fn: Callable) -> "LaurentForm":
        return LaurentForm(self.nvars, {k: fn(v) for k, v in self.terms.items()}, self.window)

    def shift(self, q: int, delta: int) -> "LaurentForm":
        """Multiply by z_q^delta."""
        out = {}
        for (subset, exps), value in self.terms.items():
            e = list(exps)
            e[q] += delta
            out[(subset, tuple(e))] = value
        return LaurentForm(self.nvars, out, _win_shift(self.window, q, delta))

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
        return LaurentForm(self.nvars, out, _win_shift(self.window, q, -1))

    def mul_zdiff(self, i: int, j: int) -> "LaurentForm":
        """Multiply by (z_i - z_j).

        A product coefficient draws on both single-variable shifts of the
        factor, so it is only exact where both shifted windows overlap.
        """
        out: dict = {}
        for (subset, exps), value in self.terms.items():
            for var, sign in ((i, 1), (j, -1)):
                e = list(exps)
                e[var] += 1
                key = (subset, tuple(e))
                add = sign * value
                out[key] = out[key] + add if key in out else add
        window = _win_intersect(_win_shift(self.window, i, 1), _win_shift(self.window, j, 1))
        return LaurentForm(self.nvars, out, window)

    def contract(self, field: WittElement) -> "LaurentForm":
        total = LaurentForm(self.nvars, {}, self.window)
        for coeff, k in field.monomials():
            for q in range(self.nvars):
                out: dict = {}
                for (subset, exps), value in self.terms.items():
                    if q not in subset:
                        continue
                    pos = subset.index(q)
                    e = list(exps)
                    e[q] += k
                    key = (subset[:pos] + subset[pos + 1 :], tuple(e))
                    add = (coeff if pos % 2 == 0 else -coeff) * value
                    out[key] = out[key] + add if key in out else add
                if not out:
                    continue
                piece = LaurentForm(self.nvars, out, _win_shift(self.window, q, k))
                total = total + piece
        return total

    def nonzero_terms(self) -> list:
        out = []
        for (subset, exps), value in self.terms.items():
            if _in_window(exps, self.window) and not _value_is_zero(value):
                out.append((subset, exps, value))
        return out

    def is_zero(self) -> bool:
        return not self.nonzero_terms()

    def window_is_empty(self) -> bool:
        for lo, hi in self.window:
            if lo is not _NEG_INF and hi is not _POS_INF and lo > hi:
                return True
        return False


def cleared_d(form: LaurentForm, conn: Connection) -> LaurentForm:
    """Delta * (twisted de Rham differential), Delta = prod of active pair diffs.

    The twisted differential is d + sum_q Gamma_q dz_q with Gamma_q =
    kappa_q/z_q + sum_j kappa_qj/(z_q - z_j).  Multiplying through by Delta
    keeps every term Laurent-polynomial: the pair term for (i, j) picks up
    Delta with that one factor omitted.
    """
    nvars = form.nvars
    active = conn.active_pairs()
    total = LaurentForm(nvars, {}, form.window)
    for q in range(nvars):
        # Delta * (d/dz_q + kappa_q/z_q) f wedge dz_q
        base = form.deriv(q)
        kq = conn.kappa[q]
        if not _scalar_is_zero(kq):
            base = base + kq * form.shift(q, -1)
        piece = _wedge_dzq(base, q)
        if piece is not None:
            total = total + _apply_delta(piece, active)
        # pair terms: kappa_qj * Delta/(z_q - z_j) * f wedge dz_q
        for (i, j) in active:
            if q not in (i, j):
                continue
            other = j if q == i else i
            sign = 1 if q == i else -1  # Delta carries (z_i - z_j) with i < j
            c = conn.pair(q, other)
            part = _wedge_dzq((sign * c) * form, q)
            if part is None:
                continue
            rest = [p for p in active if p != (i, j)]
            total = total + _apply_delta(part, rest)
    return total


def _wedge_dzq(form: LaurentForm, q: int) -> LaurentForm | None:
    out: dict = {}
    for (subset, exps), value in form.terms.items():
        if q in subset:
            continue
        new = tuple(sorted(subset + (q,)))
        sign = _insert_sign(subset, q)
        key = (new, exps)
        add = sign * value
        out[key] = out[key] + add if key in out else add
    if not out:
        return None
    return LaurentForm(form.nvars, out, form.window)


def _apply_delta(form: LaurentForm, pairs: Iterable[tuple]) -> LaurentForm:
    out = form
    for (i, j) in pairs:
        out = out.mul_zdiff(i, j)
    return out


def clear_pairs(form: LaurentForm, conn: Connection) -> LaurentForm:
    """Delta * form, for comparing against cleared_d outputs."""
    return _apply_delta(form, conn.active_pairs())


def koszul_value(phi: Callable, xs: Sequence, action: Callable, bracket: Callable):
    """Koszul differential of the cochain phi evaluated on xs.

    phi maps a list of Lie elements to a value; action(x, rest) is the module
    action of x on the value phi(rest); bracket(x, y) the Lie bracket.  Signs
    follow the standard convention with the bracket argument placed first.
    """
    total = None
    n = len(xs)
    for p in range(n):
        rest = list(xs[:p]) + list(xs[p + 1 :])
        t = action(xs[p], rest)
        if p % 2:
            t = -1 * t
        total = t if total is None else total + t
    for p in range(n):
        for q in range(p + 1, n):
            rest = [bracket(xs[p], xs[q])] + [xs[r] for r in range(n) if r not in (p, q)]
            t = phi(rest)
            if (p + q) % 2:
                t = -1 * t
            total = t if total is None else total + t
    return total


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
    two are added.  Every row is expected to vanish inside its window.

    A family also supplies ``residue(u)``: the iterated residue of its top
    component on u at the connection's integral exponents, a map from
    source vectors to target vectors that raises ``ValueError`` when the
    exponents are not integral.  At integral exponents the residue of the
    exact part vanishes, so the residue is an intertwiner:
    ``intertwining_defect`` is expected to vanish.
    """

    def bracket(self, x, y):
        return x.bracket(y)

    def intertwining_defect(self, x, u):
        """Target action after the residue minus the residue after the source action."""
        return self.act_target(x, self.residue(u)) - self.residue(self.act_source(x, u))

    def residual(self, xs: Sequence, u) -> LaurentForm:
        """The total-differential row at the elements xs on the vector u."""
        xs = list(xs)
        m = len(xs)
        if m == 0:
            out = cleared_d(self.component([], u), self.connection)
        else:
            def action(x, ys):
                moved = self.component(ys, u).map_values(lambda v: self.act_target(x, v))
                return moved - self.component(ys, self.act_source(x, u))

            dprime = koszul_value(
                lambda ys: self.component(ys, u), xs, action=action, bracket=self.bracket
            )
            out = clear_pairs(dprime, self.connection)
            if m <= self.depth:
                second = cleared_d(self.component(xs, u), self.connection)
                out = out - second if m % 2 else out + second
        if out.window_is_empty():
            raise ValueError(
                "window exceeded: the residual window is empty; widen the "
                "exponent window or lower the loop modes"
            )
        return out


def contraction_cochain(omega: LaurentForm, fields: Sequence[WittElement]) -> LaurentForm:
    """i_{x_1} ... i_{x_a} omega with the parity twist (-1)^(a(a+1)/2).

    The twist aligns the contraction-assembled components with the global
    total-differential convention d' + (-1)^m d''.
    """
    out = omega
    for field in reversed(fields):
        out = out.contract(field)
    a = len(fields)
    if ((a * (a + 1)) // 2) % 2:
        out = -1 * out
    return out


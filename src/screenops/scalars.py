"""Exact scalars: multivariate rational functions over Q.

Every quantity the engine manipulates (structure constants, highest-weight
labels, central charges, OPE coefficients) lives in the field Q(params) for a
fixed tuple of named parameters.  A polynomial is stored as one rational
content times a primitive integer part: a dict from packed exponents to
Python ints with gcd 1 whose coefficient at the lexicographically greatest
exponent is positive.  A packed exponent is one int with a ``_FIELD``-bit
field per parameter, the first parameter most significant, so int order is
lex order and a monomial product or shift is one int addition.  Every
exponent stays below ``EXP_LIMIT`` = 2**15, the top bit of its field; an
operation that would reach it raises ``ValueError`` rather than carry into
the next field.  That form is unique, and by Gauss's lemma a product of
primitive parts is primitive, so products run on ints alone and scaling by
a rational touches only the content.  A content, like the cached value of a
rational scalar, is an ``int`` when it is integral and a ``Fraction`` with
denominator > 1 otherwise (``_rat``), so the integral values that dominate
the batteries never build a ``Fraction``; the public views are ``Fraction``.
Rational functions keep a coprime numerator/denominator pair with a monic
denominator (graded-lex leading coefficient 1), so equality is literal
equality of those parts and "residual == 0" is meaningful without any
numeric tolerance.  The batteries' denominators are parameter monomials, and
a product or sum of two such scalars is reduced by exponent arithmetic alone
(``_cancel``); only other denominators reach the multivariate gcd.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Mapping, Union

QQ = Fraction

RationalLike = Union[int, Fraction]

__all__ = [
    "QQ",
    "Combination",
    "ParameterContext",
    "ParamPolynomial",
    "ParamScalar",
    "PoleError",
]

_ZERO = QQ(0)

_FIELD = 16  # bits per parameter in a packed exponent
EXP_LIMIT = 1 << (_FIELD - 1)  # every exponent stays below the field's guard bit
_MASK = (1 << _FIELD) - 1
# integer part of every constant polynomial, in any context; shared, never mutated
_UNIT = {0: 1}


def _floor(guard: int, low: int, keys) -> int:
    """The componentwise minimum of packed ``low`` and every packed key.  A field of
    ``(low | guard) - e`` never borrows from the next one, and it keeps its
    guard bit exactly when low's field is at least e's; there e's field is taken."""
    for e in keys:
        if not low:
            break
        ge = (((low | guard) - e) & guard) >> (_FIELD - 1)
        low ^= (low ^ e) & ge * _MASK
    return low


def _overflow(context, keys) -> None:
    """Raise if a packed key reached the exponent limit in some field."""
    if reduce(or_, keys, 0) & context._guard:
        raise ValueError("exponent overflow: an exponent reached the limit %d" % EXP_LIMIT)


def _rat(x):
    """An exact rational in its stored form: an int when integral, else a Fraction."""
    return x if type(x) is int else x.numerator if x.denominator == 1 else x


def _div(a, b):
    """a / b for ints and Fractions, in stored form; never a float."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _rat(Fraction(a, b))


def _frac(x) -> Fraction:
    """A stored content or value as the Fraction of the public views."""
    return x if type(x) is Fraction else QQ(x)


class PoleError(ZeroDivisionError):
    """A substitution or specialization hit a vanishing denominator."""


class Combination:
    """Finite formal sum over a space: ``terms`` maps each key to an exact coefficient.

    Fock, Verma, field, loop and rational-form sums share this linear
    structure.  Two sums combine only over equal spaces; each term of the
    right operand is added or subtracted in place, so no operand is negated
    whole, and a coefficient that cancels is dropped.  Equality is a zero
    test of the difference.  A subclass names the attribute holding its
    space in ``_space`` and supplies ``_like(terms)``, a sum over its own
    space; it keeps its own ``__rmul__``, since each coerces scalars
    differently.
    """

    __slots__ = ("terms",)
    _space = "space"

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, negate: bool):
        mine, theirs = getattr(self, self._space), getattr(other, self._space)
        if mine is not theirs and mine != theirs:
            raise ValueError("cannot combine sums over %r and %r" % (mine, theirs))
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = (out[key] - c if negate else out[key] + c) if key in out else -c if negate else c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return self._like(out)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

    def __eq__(self, other):
        if type(other) is not type(self):
            return False
        mine, theirs = getattr(self, self._space), getattr(other, self._space)
        return (mine is theirs or mine == theirs) and (self - other).is_zero()

    __hash__ = None


class ParameterContext:
    """An ordered registry of parameter names defining Q(names)."""

    __slots__ = ("names", "_index", "_shifts", "_guard", "_poly_zero", "_poly_one", "_one", "_zero")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names: %r" % (names,))
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        # bit offset of each parameter's field; the first parameter is most significant
        self._shifts = tuple(_FIELD * (len(names) - 1 - i) for i in range(len(names)))
        self._guard = sum(EXP_LIMIT << s for s in self._shifts)
        self._poly_zero = _make(self, {}, 0)
        self._poly_one = _make(self, _UNIT, 1)
        self._zero = ParamScalar(self._poly_zero, self._poly_one, _reduced=True)
        self._one = ParamScalar(self._poly_one, self._poly_one, _reduced=True)

    def __repr__(self):
        return "ParameterContext(%s)" % ", ".join(self.names)

    def __eq__(self, other):
        return isinstance(other, ParameterContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def _pack(self, exp: tuple) -> int:
        """The packed form of an exponent tuple; each entry in 0 .. EXP_LIMIT - 1."""
        if len(exp) != len(self.names):
            raise ValueError("exponent %r has not %d entries" % (exp, len(self.names)))
        for e in exp:
            if not 0 <= e < EXP_LIMIT:
                raise ValueError("exponent %r outside 0 .. %d: limit %d"
                                 % (e, EXP_LIMIT - 1, EXP_LIMIT))
        return sum(e << s for e, s in zip(exp, self._shifts))

    def _unpack(self, key: int) -> tuple:
        return tuple(key >> s & _MASK for s in self._shifts)

    # -- constructors ----------------------------------------------------

    def poly_const(self, c: RationalLike) -> "ParamPolynomial":
        if c == 0:
            return self._poly_zero
        if c == 1:
            return self._poly_one
        return _make(self, _UNIT, _rat(c))

    def poly_param(self, name: str) -> "ParamPolynomial":
        return _make(self, {1 << self._shifts[self._index[name]]: 1}, 1)

    def const(self, c: RationalLike) -> "ParamScalar":
        if c == 0:
            return self._zero
        if c == 1:
            return self._one
        q = _rat(c)
        s = object.__new__(ParamScalar)
        s.num = _make(self, _UNIT, q)
        s.den = self._poly_one
        s._hash = None
        s._q = q
        return s

    def param(self, name: str) -> "ParamScalar":
        return ParamScalar(self.poly_param(name), self._poly_one, _reduced=True)

    def zero(self) -> "ParamScalar":
        return self._zero

    def one(self) -> "ParamScalar":
        return self._one

    def scalar(self, value) -> "ParamScalar":
        """Coerce an int, Fraction, name, polynomial or scalar into Q(params)."""
        if isinstance(value, ParamScalar):
            if value.context is not self and value.context != self:
                raise ValueError("scalar from foreign context")
            return value
        if isinstance(value, ParamPolynomial):
            return ParamScalar(value, self._poly_one, _reduced=True)
        if isinstance(value, str):
            return self.param(value)
        return self.const(value)


def _make(context, coeffs: dict, content: RationalLike) -> "ParamPolynomial":
    """A polynomial from parts already in canonical form; no checks."""
    p = object.__new__(ParamPolynomial)
    p.context = context
    p.coeffs = coeffs
    p.content = content
    p._terms = None
    p._hash = None
    return p


def _normalized(context, coeffs: dict, scale: RationalLike) -> "ParamPolynomial":
    """scale * coeffs for an integer dict without zero values, made canonical."""
    if not coeffs:
        return context._poly_zero
    g = math.gcd(*coeffs.values())
    if coeffs[max(coeffs)] < 0:
        g = -g
    if g != 1:
        coeffs = {e: c // g for e, c in coeffs.items()}
        scale = _rat(scale * g)
    return _make(context, coeffs, scale)


class ParamPolynomial:
    """Multivariate polynomial over Q, stored as ``content * coeffs``.

    ``coeffs`` maps packed exponents to Python ints with gcd 1, and its
    coefficient at ``max(coeffs)`` (the lexicographically greatest exponent)
    is positive; ``content`` is nonzero, or 0 for the zero polynomial, whose
    ``coeffs`` is empty.  The content is an ``int`` when it is integral and
    otherwise a ``Fraction`` with denominator > 1, never a ``float``: every
    product and sum of contents passes through ``_rat``, and every quotient
    through ``_div``.  The form is unique, so equality compares the two parts,
    and an int hashes as the equal Fraction does.  ``terms`` is the rational
    view ``{exponent tuple: Fraction}`` that the constructor takes, built on
    first use; ``leading`` and ``constant_value`` give ``Fraction`` values.
    Polynomials share their dicts, so neither may be changed in place.
    """

    __slots__ = ("context", "coeffs", "content", "_terms", "_hash")

    def __init__(self, context: ParameterContext, terms: Mapping[tuple, RationalLike]):
        terms = {context._pack(e): QQ(c) for e, c in terms.items() if c}
        den = math.lcm(*(c.denominator for c in terms.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        p = _normalized(context, ints, _div(1, den))
        self.context = context
        self.coeffs = p.coeffs
        self.content = p.content
        self._terms = None
        self._hash = None

    @property
    def terms(self) -> dict:
        """The rational coefficients ``{exponent tuple: Fraction}``; read only."""
        if self._terms is None:
            c, unpack = _frac(self.content), self.context._unpack
            self._terms = {unpack(e): c * k for e, k in self.coeffs.items()}
        return self._terms

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not self.coeffs or (len(self.coeffs) == 1 and 0 in self.coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial: %s" % self)
        # a nonzero constant's integer part is {0: 1}
        return _frac(self.content)

    def degree_in(self, var: int) -> int:
        s = self.context._shifts[var]
        return max((e >> s & _MASK for e in self.coeffs), default=-1)

    def _lead(self) -> tuple:
        """(packed exponent, int coefficient) of the graded-lex leading term."""
        unpack = self.context._unpack
        return max(self.coeffs.items(), key=lambda item: (sum(unpack(item[0])), item[0]))

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading term")
        exp, k = self._lead()
        return self.context._unpack(exp), _frac(self.content) * k

    def __eq__(self, other):
        return (
            isinstance(other, ParamPolynomial)
            and self.context.names == other.context.names
            and self.content == other.content
            and (self.coeffs is other.coeffs or self.coeffs == other.coeffs)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.context.names, self.content, frozenset(self.coeffs.items())))
        return self._hash

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self):
        if not self.coeffs:
            return self
        return _make(self.context, self.coeffs, -self.content)

    def _plus(self, other, other_content):
        """self + other_content * (integer part of other), both nonzero."""
        ca, cb = self.content, other_content
        if ca == cb:
            common, kb = ca, 1
            out = dict(self.coeffs)
        else:
            na, da, nb, db = ca.numerator, ca.denominator, cb.numerator, cb.denominator
            g = math.gcd(na, nb)
            lcm = da * (db // math.gcd(da, db))
            ka, kb = (na // g) * (lcm // da), (nb // g) * (lcm // db)
            common = _div(g, lcm)
            out = {e: ka * c for e, c in self.coeffs.items()}
        get = out.get
        for e, c in other.coeffs.items():
            s = get(e, 0) + kb * c
            if s:
                out[e] = s
            else:
                del out[e]
        return _normalized(self.context, out, common)

    def __add__(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        return self._plus(other, other.content)

    def __sub__(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        return self._plus(other, -other.content)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.coeffs:
                return self.context._poly_zero
            return _make(self.context, self.coeffs, _rat(self.content * other))
        if not self.coeffs or not other.coeffs:
            return self.context._poly_zero
        ca, cb = self.content, other.content
        content = cb if ca == 1 else ca if cb == 1 else _rat(ca * cb)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # a primitive monomial has coefficient 1: shift the exponents
            (e2,) = b
            if not e2:
                return _make(self.context, a, content)
            out = {e1 + e2: c1 for e1, c1 in a.items()}
        else:
            # a product of primitive parts is primitive (Gauss) and its
            # lex-greatest coefficient is the product of positive ones
            out = {}
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
            if 0 in out.values():
                out = {e: c for e, c in out.items() if c}
        _overflow(self.context, out)
        return _make(self.context, out, content)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.context._poly_one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift_var(self, var: int, delta: int) -> "ParamPolynomial":
        """Multiply by (variable ``var``)^delta; every exponent must stay >= 0
        and below ``EXP_LIMIT``, or ``ValueError`` is raised."""
        s = self.context._shifts[var]
        if min((e >> s & _MASK for e in self.coeffs), default=0) + delta < 0:
            raise ValueError("monomial shift went negative")
        return _shift(self, delta << s) if delta else self

    # -- division and gcd ---------------------------------------------------

    def exact_div(self, divisor: "ParamPolynomial") -> "ParamPolynomial":
        """The quotient self / divisor, when the division is exact.

        A constant divisor changes only the content.  Otherwise the integer
        parts are divided in lex order, the int order of packed exponents:
        each step cancels the leading term of the remainder.  By Gauss's
        lemma an exact quotient of two primitive parts is primitive with
        integer coefficients, and its terms times the divisor's stay inside
        the dividend's box of fieldwise maxima.  So a step whose leading
        exponent is not a multiple of the divisor's (a guard-bit borrow, as
        in ``_floor``), whose coefficient leaves a nonzero ``divmod``
        remainder, or which adds an exponent outside the box raises
        ``ValueError("polynomial not divisible")``; the box also bounds the
        work of a failing division.  A zero divisor raises ``ZeroDivisionError``.

        The remainder's exponents sit in a max-heap with lazy deletion
        (Monagan and Pearce, "Sparse polynomial division using a heap",
        J. Symb. Comput. 2011): an exponent is pushed whenever it enters the
        remainder, and a popped one no longer in the remainder is skipped.
        Every term a step adds lies below the leading term it cancels, so a
        popped exponent never comes back.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        content = _div(self.content, divisor.content)
        if divisor.is_constant():
            return _make(self.context, self.coeffs, content)
        rem = dict(self.coeffs)
        out: dict = {}
        guard, top = self.context._guard, 0
        for e in rem:
            top += e - _floor(guard, top, (e,))
        dexp, dcoef = max(divisor.coeffs.items())
        tail = [(e, c) for e, c in divisor.coeffs.items() if e != dexp]
        # heapq pops its least entry first, so the heap holds negated exponents
        heap = [-e for e in rem]
        heapq.heapify(heap)
        while heap:
            exp = -heapq.heappop(heap)
            coef = rem.pop(exp, None)
            if coef is None:
                continue
            qexp = (exp | guard) - dexp
            qcoef, r = divmod(coef, dcoef)
            if r or qexp & guard != guard:
                raise ValueError("polynomial not divisible")
            qexp ^= guard
            out[qexp] = qcoef
            for e2, c2 in tail:
                e = qexp + e2
                if ((top | guard) - e) & guard != guard:
                    raise ValueError("polynomial not divisible")
                old = rem.get(e)
                if old is None:
                    rem[e] = -qcoef * c2
                    heapq.heappush(heap, -e)
                else:
                    s = old - qcoef * c2
                    if s:
                        rem[e] = s
                    else:
                        del rem[e]
        return _make(self.context, out, content)

    def _main_var(self, other: "ParamPolynomial") -> int:
        for v in range(len(self.context.names) - 1, -1, -1):
            if self.degree_in(v) > 0 or other.degree_in(v) > 0:
                return v
        return -1

    def _univariate_in(self, var: int) -> dict:
        """View as univariate in `var`: {deg -> ParamPolynomial without var}."""
        out: dict = {}
        s = self.context._shifts[var]
        for e, c in self.coeffs.items():
            d = e >> s & _MASK
            out.setdefault(d, {})[e - (d << s)] = c
        return {d: _normalized(self.context, t, self.content) for d, t in out.items()}

    def monic(self) -> "ParamPolynomial":
        if self.is_zero():
            return self
        _, k = self._lead()
        return _make(self.context, self.coeffs, _div(1, k))

    def gcd(self, other: "ParamPolynomial") -> "ParamPolynomial":
        """Monic gcd via primitive PRS, recursing over variables; the PRS runs on
        integer parts, since a content carried through the remainders only grows."""
        a, b = self, other
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
        if a.is_constant() or b.is_constant():
            return self.context._poly_one
        var = a._main_var(b)
        if a.degree_in(var) == 0 and b.degree_in(var) == 0:
            # both free of every variable above; only possible if constants
            return self.context._poly_one
        ua, ub = a._univariate_in(var), b._univariate_in(var)
        cont_a = _list_gcd(list(ua.values()), self.context)
        cont_b = _list_gcd(list(ub.values()), self.context)
        cont = cont_a.gcd(cont_b)
        pa = _make(self.context, a.exact_div(cont_a).coeffs, 1)
        pb = _make(self.context, b.exact_div(cont_b).coeffs, 1)
        if pa.degree_in(var) < pb.degree_in(var):
            pa, pb = pb, pa
        while True:
            rem = _pseudo_rem(pa, pb, var)
            if rem.is_zero():
                g = _primitive_part(pb, var)
                break
            if rem.degree_in(var) == 0:
                g = self.context._poly_one
                break
            pa, pb = pb, _primitive_part(rem, var)
        return (cont * g).monic()

    def derivative(self, name: str) -> "ParamPolynomial":
        s = self.context._shifts[self.context._index[name]]
        out: dict = {}
        for e, c in self.coeffs.items():
            if k := e >> s & _MASK:
                out[e - (1 << s)] = c * k
        return _normalized(self.context, out, self.content)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, values: Mapping[str, RationalLike]) -> Fraction:
        idx = self.context._index
        vals = [QQ(0)] * len(self.context.names)
        for name, v in values.items():
            vals[idx[name]] = QQ(v)
        total = _ZERO
        for e, c in self.coeffs.items():
            term = c
            for i, p in enumerate(self.context._unpack(e)):
                if p:
                    term *= vals[i] ** p
            total += term
        return self.content * total

    def substitute(self, mapping: Mapping[str, "ParamScalar"], target: ParameterContext) -> "ParamScalar":
        """Map each parameter to a scalar over `target` (identity if absent)."""
        cache: dict = {}

        def image(i: int) -> "ParamScalar":
            if i not in cache:
                name = self.context.names[i]
                if name in mapping:
                    cache[i] = target.scalar(mapping[name])
                else:
                    if name not in target._index:
                        raise ValueError("parameter %r absent from target context" % name)
                    cache[i] = target.param(name)
            return cache[i]

        total = target.zero()
        for e, c in self.coeffs.items():
            term = target.const(c)
            for i, p in enumerate(self.context._unpack(e)):
                if p:
                    term = term * (image(i) ** p)
            total = total + term
        return total * self.content

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = self.context.names
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(names[i])
                elif p > 1:
                    factors.append("%s^%d" % (names[i], p))
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        out = parts[0]
        for p in parts[1:]:
            out += ("+" + p) if not p.startswith("-") else p
        return out

    __repr__ = __str__


def _list_gcd(polys, context) -> ParamPolynomial:
    g = context._poly_zero
    for p in polys:
        g = g.gcd(p)
        if g.is_constant() and not g.is_zero():
            return context._poly_one
    return g


def _primitive_part(p: ParamPolynomial, var: int) -> ParamPolynomial:
    """The integer part of p over its content in ``var``, with content 1."""
    u = p._univariate_in(var)
    cont = _list_gcd(list(u.values()), p.context)
    if cont.is_zero():
        return p
    return _make(p.context, p.exact_div(cont).coeffs, 1)


def _pseudo_rem(a: ParamPolynomial, b: ParamPolynomial, var: int) -> ParamPolynomial:
    """Classical pseudo-remainder of a by b w.r.t. the main variable."""
    da, db = a.degree_in(var), b.degree_in(var)
    if da < db:
        return a
    ub = b._univariate_in(var)
    lb = ub[db]
    rem = a
    while not rem.is_zero() and rem.degree_in(var) >= db:
        dr = rem.degree_in(var)
        ur = rem._univariate_in(var)
        lr = ur[dr]
        # rem <- lb*rem - lr * x^(dr-db) * b
        rem = lb * rem - (lr * b).shift_var(var, dr - db)
    return rem


class ParamScalar:
    """Element of Q(params): reduced fraction of ParamPolynomials.

    Canonical form: gcd(num, den) == 1 and den monic in graded-lex order, so
    == is structural equality.  All arithmetic stays exact.

    When both dens are parameter monomials (as every den of the batteries
    is), a product or sum never builds a den product or calls ``_reduce``:
    the product multiplies the nums and adds the den exponents, and the sum
    shifts each num to the componentwise-max den exponent and adds them in
    one signed step; ``_cancel`` then divides out the common monomial
    x^min(ord(num), d).  Each parameter is prime, so that pair is coprime,
    and a monomial with coefficient 1 is monic.  Other dens take the
    product or cross-multiplied sum through ``_reduce``.  ``inverse`` swaps
    an already coprime pair and makes the new den monic.

    A rational scalar (num and den constant) caches its exact value in
    ``_q``, set at construction: an ``int`` when it is integral, otherwise a
    ``Fraction`` with denominator > 1; ``_q`` is None for a symbolic scalar.
    ``is_rational``, ``as_fraction`` (which returns a ``Fraction``), ``hash``
    and equality with an int or Fraction read it, and a sum or product of
    two rational scalars is the ``const`` of one sum or product of their
    values, with no polynomial built on the way.  A rational q times a
    symbolic scalar scales the content of num only, which is still
    canonical because a nonzero q changes neither gcd(num, den) nor the
    monic den.
    """

    __slots__ = ("num", "den", "_hash", "_q")

    def __init__(self, num: ParamPolynomial, den: ParamPolynomial, _reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in ParamScalar")
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None
        # a canonical den is monic, so a constant den is 1
        rational = len(num.coeffs) <= 1 and num.is_constant() and den.is_constant()
        self._q = num.content if rational else None

    @property
    def context(self) -> ParameterContext:
        return self.num.context

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_rational(self) -> bool:
        return self._q is not None

    def as_fraction(self) -> Fraction:
        if self._q is None:
            raise ValueError("not a rational scalar: %s" % self)
        return _frac(self._q)

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._q is not None and self._q == other
        return (
            isinstance(other, ParamScalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            if self._q is not None:
                self._hash = hash(self._q)
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "ParamScalar":
        if isinstance(other, ParamScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _sum(self, o: "ParamScalar", negate: bool) -> "ParamScalar":
        """self + o, or self - o when ``negate``, with no negated copy of o."""
        q, oq = self._q, o._q
        if q is not None and oq is not None:
            return self.context.const(q - oq if negate else q + oq)
        a, b = self.num, o.num
        if not b.coeffs:
            return self
        if not a.coeffs:
            return -o if negate else o
        da, db = self.den.coeffs, o.den.coeffs
        if len(da) == 1 and len(db) == 1:
            (ea,), (eb,) = da, db
            if ea != eb:
                top = ea + eb - _floor(self.context._guard, ea, (eb,))
                if top != ea:
                    a = _shift(a, top - ea)
                if top != eb:
                    b = _shift(b, top - eb)
                ea = top
            num = a._plus(b, -b.content if negate else b.content)
            if not num.coeffs:
                return self.context._zero
            return ParamScalar(*_cancel(num, ea), _reduced=True)
        den = self.den
        if den != o.den:
            a, b, den = a * o.den, b * den, den * o.den
        return ParamScalar(a._plus(b, -b.content if negate else b.content), den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(o, False)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(o, True)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o._sum(self, True)

    def _scaled(self, q: RationalLike) -> "ParamScalar":
        """q * self for a symbolic self: the content of num alone changes."""
        if not q:
            return self.context._zero
        return ParamScalar(self.num * q, self.den, _reduced=True)

    def __mul__(self, other):
        q = self._q
        if isinstance(other, ParamScalar):
            oq = other._q
            if q is not None:
                return self.context.const(q * oq) if oq is not None else other._scaled(q)
            if oq is not None:
                return self._scaled(oq)
            num = self.num * other.num
            da, db = self.den.coeffs, other.den.coeffs
            if len(da) == 1 and len(db) == 1:
                (ea,), (eb,) = da, db
                return ParamScalar(*_cancel(num, ea + eb), _reduced=True)
            return ParamScalar(num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.context.const(q * other) if q is not None else self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "ParamScalar":
        """1/self: the swapped pair is already coprime, so only its den is made monic."""
        q = self._q
        if q is not None:
            if not q:
                raise ZeroDivisionError("inverse of zero scalar")
            return self.context.const(_div(1, q))
        monic = self.num.monic()
        return ParamScalar(self.den * _div(monic.content, self.num.content), monic, _reduced=True)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n == 0:
            return self.context.one()
        if n < 0:
            return self.inverse() ** (-n)
        result = self.context.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- substitution / evaluation -------------------------------------------

    def substitute(self, mapping: Mapping[str, "ParamScalar"], target: ParameterContext | None = None) -> "ParamScalar":
        target = target or self.context
        num = self.num.substitute(mapping, target)
        den = self.den.substitute(mapping, target)
        if den.is_zero():
            raise PoleError("substitution hit a pole: denominator %s vanished" % self.den)
        return num / den

    def evaluate(self, values: Mapping[str, RationalLike]) -> Fraction:
        d = self.den.evaluate(values)
        if d == 0:
            raise PoleError("evaluation hit a pole: denominator %s vanished" % self.den)
        return self.num.evaluate(values) / d

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        if self.den == self.context._poly_one:
            return str(self.num)
        num = str(self.num)
        if len(self.num.coeffs) > 1 or "/" in num or "*" in num:
            num = "(%s)" % num
        den = str(self.den)
        if len(self.den.coeffs) > 1 or "/" in den or "*" in den:
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    __repr__ = __str__


def _shift(p: ParamPolynomial, s: int) -> ParamPolynomial:
    """p times the monomial x^s, s packed: one int addition per term.

    A negative s lowers exponents that every term has, so no field borrows;
    a positive s is checked against the limit.  A common shift keeps the lex
    order of the exponents, so the integer part stays canonical and the
    content is unchanged.
    """
    out = {e + s: c for e, c in p.coeffs.items()}
    if s > 0:
        _overflow(p.context, out)
    return _make(p.context, out, p.content)


def _cancel(num: ParamPolynomial, dexp: int):
    """The canonical pair for num / x^dexp, num nonzero and dexp packed.

    Each parameter is prime in Q[params], so gcd(num, x^d) is the monomial
    x^min(ord(num), d), ord taken componentwise over the terms of num; one
    packed shift divides it out of both, and x^d with coefficient 1 is
    monic.  This is the one routine for monomial dens; it checks the limit
    on a den exponent that a product made.
    """
    context = num.context
    if not dexp:
        return num, context._poly_one
    _overflow(context, (dexp,))
    low = _floor(context._guard, dexp, num.coeffs)
    if low:
        num = _shift(num, -low)
        dexp -= low
        if not dexp:
            return num, context._poly_one
    return num, _make(context, {dexp: 1}, 1)


def _reduce(num: ParamPolynomial, den: ParamPolynomial):
    """The canonical pair for num/den: coprime, with den monic.

    A monomial den (a constant included) rescales num by its content and
    goes to ``_cancel``.  Only other dens reach the gcd: the common
    parameter monomial (the componentwise minimum of every exponent of num
    and den) is shifted out first, since gcd(x^a f, x^b g) = x^min(a, b)
    gcd(f, g), and ``gcd`` runs only when num is not constant.  The pair is
    the one a gcd of the inputs gives, so every value, hash and printed form
    is the same either way.
    """
    if num.is_zero():
        return num, num.context._poly_one
    if len(den.coeffs) == 1:
        (dexp,) = den.coeffs
        if den.content != 1:
            num = num * _div(1, den.content)
        return _cancel(num, dexp)
    low = _floor(num.context._guard, max(den.coeffs), [*den.coeffs, *num.coeffs])
    if low:
        num, den = _shift(num, -low), _shift(den, -low)
    if not num.is_constant():
        g = num.gcd(den)
        if not g.is_constant():
            num = num.exact_div(g)
            den = den.exact_div(g)
    monic = den.monic()
    return num * _div(monic.content, den.content), monic

"""Symbolic chiral fields: Wick-contraction products and exact mode action.

A field expression is a finite sum of normal-ordered terms

    coeff * :D^{k_1}(f_1) ... D^{k_r}(f_r) V[mu]:

where each ``f_i`` is one of the basic fields

* ``p``     -- derivative of the boson potential, modes ``-b_n`` at z^{-n-1};
* ``beta``  -- weight-one half of the charged pair, modes ``a_n`` at z^{-n-1};
* ``gamma`` -- weight-zero half, modes ``a*_n`` at z^{-n};

and ``V[mu]`` is an (optional, at most one per point) exponential vertex
factor: the normally ordered exponential of ``-mu`` times the boson
potential, together with the vacuum-label shift by ``mu``.  Derivatives of
vertex factors reduce inside the expression algebra: D(V[mu]) = -mu :p V[mu]:, which is
exact here because the mode expansion of ``p`` retains the boson zero mode.

Two independent evaluation routes are provided and cross-checked in tests:

* ``wick_ope`` -- the symbolic pairing expansion of a product
  ``L(z) R(w)`` of two expressions: sum over sets of contractions between
  the two points, with the uncontracted z-side factors re-expanded at w to
  the order of the pole.  Contraction seeds: {p p} = 2/(z-w)^2,
  {gamma beta} = +1/(z-w), {beta gamma} = -1/(z-w),
  {p V[mu]} = -2 mu/(z-w) * V[mu]; the 2 is the boson pairing
  ``fock.OscSpec.pairing``.

* ``apply_field_coeff`` -- the exact action of the coefficient of ``z^e`` in
  a field expression on a Fock vector, one source monomial at a time.
  Annihilation is bounded by the source monomial and creation by the
  (determined) target block, so every mode sum is finite and no truncation
  error is introduced.  Each mode sum is a search in which an annihilating
  factor takes only a mode whose partner the lowered monomial holds (or
  b_0).  On a monomial every annihilation mode but b_0 gives an integer
  multiple of one monomial (the brackets of ``fock.OscSpec``), so a leaf
  carries an exact integer weight and a b_0 count; the leaves add as
  integers and each sum is scaled by one exact scalar.

The exponential vertex is expanded in one place: ``vertex_annihilation_coeff``
and ``vertex_creation_coeff`` are its two halves (label shift left out), and
``apply_vertex`` composes them, the creation half of order ``down + eps``
acting on the label-shifted annihilation half of order ``down``.

``ope_bracket_action`` converts an OPE table into mode brackets through
residues of ``z^n/(z-w)^k``; agreement with direct double application is the
engine's central cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fock import (
    FockSpace,
    FockVector,
    ModeOperator,
    _PARTNER,
    _partitions,
    _sorted_monomial,
    monomial_energy,
    osc_apply,
)
from .scalars import Combination, ParamScalar, ParameterContext

QQ = Fraction

Factor = tuple[str, int]  # (symbol, derivative order)

_FIELD_SYMBOLS = ("p", "beta", "gamma")
_WEIGHT = {"p": 1, "beta": 1, "gamma": 0}
_CHARGE = {"p": 0, "beta": -1, "gamma": 1}


class UnsupportedPairingError(ValueError):
    """A Wick pairing outside the supported grammar was requested."""


def _check_factor(factor: Factor) -> Factor:
    sym, k = factor
    if sym not in _FIELD_SYMBOLS:
        raise ValueError("unknown field symbol %r" % (sym,))
    if k < 0:
        raise ValueError("negative derivative order")
    return factor


class FieldExpr(Combination):
    """Sum of normal-ordered field monomials with exact coefficients.

    Terms are keyed by (vertex exponent | None, sorted factor tuple); the
    vertex exponent is an exact scalar.  Expressions form a commutative
    algebra under the pointwise normal product; sums are `Combination`'s,
    over the parameter context ``ctx``.
    """

    __slots__ = ("ctx",)
    _space = "ctx"

    def __init__(self, ctx: ParameterContext, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, ctx: ParameterContext) -> "FieldExpr":
        return cls(ctx, {})

    @classmethod
    def scalar(cls, ctx: ParameterContext, value) -> "FieldExpr":
        c = ctx.scalar(value)
        if c.is_zero():
            return cls(ctx, {})
        return cls(ctx, {(None, ()): c})

    @classmethod
    def field(cls, ctx: ParameterContext, sym: str, k: int = 0) -> "FieldExpr":
        _check_factor((sym, k))
        return cls(ctx, {(None, ((sym, k),)): ctx.one()})

    @classmethod
    def vertex(cls, ctx: ParameterContext, mu) -> "FieldExpr":
        mu = ctx.scalar(mu)
        if mu.is_zero():
            return cls.scalar(ctx, 1)
        return cls(ctx, {(mu, ()): ctx.one()})

    # -- linear structure ----------------------------------------------------------

    def _bump(self, key, c: ParamScalar):
        if c.is_zero():
            return
        cur = self.terms.get(key)
        s = c if cur is None else cur + c
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def _like(self, terms: dict) -> "FieldExpr":
        return FieldExpr(self.ctx, terms)

    def __rmul__(self, scalar) -> "FieldExpr":
        c = self.ctx.scalar(scalar)
        if c.is_zero():
            return FieldExpr(self.ctx, {})
        return FieldExpr(self.ctx, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        """Normal product at one point; vertex exponents add."""
        if not isinstance(other, FieldExpr):
            return NotImplemented
        out = FieldExpr(self.ctx, {})
        for (mu1, f1), c1 in self.terms.items():
            for (mu2, f2), c2 in other.terms.items():
                mu = _merge_vertex(self.ctx, mu1, mu2)
                out._bump((mu, tuple(sorted(f1 + f2))), c1 * c2)
        return out

    # -- calculus -----------------------------------------------------------------

    def derivative(self) -> "FieldExpr":
        out = FieldExpr(self.ctx, {})
        for (mu, factors), c in self.terms.items():
            for i, (sym, k) in enumerate(factors):
                bumped = tuple(sorted(factors[:i] + ((sym, k + 1),) + factors[i + 1 :]))
                out._bump((mu, bumped), c)
            if mu is not None:
                grown = tuple(sorted(factors + (("p", 0),)))
                out._bump((mu, grown), -mu * c)
        return out

    # -- homogeneity data -----------------------------------------------------------

    def conformal_weight(self) -> int:
        """Declared weight: sum of factor weights + derivative orders.

        Defined only for weight-homogeneous expressions.
        """
        weights = {_term_weight(f) for (_, f) in self.terms}
        if not weights:
            return 0
        if len(weights) > 1:
            raise ValueError("expression is not weight-homogeneous: %s" % sorted(weights))
        return weights.pop()

    def charge(self) -> int:
        charges = {sum(_CHARGE[s] for s, _ in f) for (_, f) in self.terms}
        if not charges:
            return 0
        if len(charges) > 1:
            raise ValueError("expression is not charge-homogeneous")
        return charges.pop()

    def vertex_exponent(self) -> ParamScalar:
        """Common vertex exponent (zero when no term carries a vertex)."""
        mus = {mu for (mu, _) in self.terms}
        if not mus:
            return self.ctx.zero()
        if len(mus) > 1:
            raise ValueError("terms carry different vertex exponents")
        mu = mus.pop()
        return self.ctx.zero() if mu is None else mu

    # -- display -----------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=_term_sort_key):
            mu, factors = key
            c = self.terms[key]
            body = _render_body(mu, factors)
            coeff = str(c)
            if body is None:
                bits.append(coeff)
            elif coeff == "1":
                bits.append(body)
            elif coeff == "-1":
                bits.append("-" + body)
            else:
                coeff = "(%s)" % coeff if ("+" in coeff or " - " in coeff) else coeff
                bits.append("%s*%s" % (coeff, body))
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return self.render()


def _merge_vertex(ctx, mu1, mu2):
    if mu1 is None:
        return mu2
    if mu2 is None:
        return mu1
    s = mu1 + mu2
    return None if s.is_zero() else s


def _term_weight(factors: tuple[Factor, ...]) -> int:
    return sum(_WEIGHT[s] + k for s, k in factors)


def _term_sort_key(key):
    mu, factors = key
    return (mu is not None, factors)


def _render_body(mu, factors):
    names = []
    for sym, k in factors:
        names.append("%s%s(w)" % (sym, "'" * k) if k <= 3 else "D^%d(%s)(w)" % (k, sym))
    if mu is not None:
        names.append("V[%s](w)" % (mu,))
    if not names:
        return None
    if len(names) == 1:
        return names[0]
    return ":%s:" % " ".join(names)


# -- presets -------------------------------------------------------------------------


def p_field(ctx: ParameterContext) -> FieldExpr:
    return FieldExpr.field(ctx, "p")


def stress_tensor(ctx: ParameterContext, alpha0) -> FieldExpr:
    """Quarter of the squared boson derivative, minus alpha0 times its slope."""
    p = p_field(ctx)
    return QQ(1, 4) * (p * p) - ctx.scalar(alpha0) * FieldExpr.field(ctx, "p", 1)


# -- contraction seeds -----------------------------------------------------------------

_BASE_CONTRACTIONS = {
    ("p", "p"): (QQ(2), 2),
    ("gamma", "beta"): (QQ(1), 1),
    ("beta", "gamma"): (QQ(-1), 1),
}


def _rising(r: int, s: int) -> int:
    out = 1
    for i in range(s):
        out *= r + i
    return out


def _pair_contraction(ctx, left: Factor, right: Factor):
    """{D^a f(z) D^b g(w)} as (coefficient, pole order), or None."""
    base = _BASE_CONTRACTIONS.get((left[0], right[0]))
    if base is None:
        return None
    c, r = base
    a, b = left[1], right[1]
    coeff = c * ((-1) ** a) * _rising(r, a + b)
    return ctx.scalar(coeff), r + a + b


def _vertex_contraction(ctx, left: Factor, mu: ParamScalar):
    """{D^a p(z) V[mu](w)} = -2 mu (-1)^a a! / (z-w)^{a+1} * V[mu](w)."""
    if left[0] != "p":
        return None
    a = left[1]
    coeff = (-2 * ((-1) ** a) * math.factorial(a)) * mu
    return coeff, a + 1


# -- OPE engine ---------------------------------------------------------------------------


class OpeResult:
    """Singular part of a product: pole order -> coefficient expression."""

    __slots__ = ("ctx", "table")

    def __init__(self, ctx: ParameterContext, table: dict):
        self.ctx = ctx
        self.table = {k: v for k, v in table.items() if not v.is_zero()}

    def pole(self, order: int) -> FieldExpr:
        return self.table.get(order, FieldExpr.zero(self.ctx))

    def orders(self):
        return sorted(self.table)

    def max_order(self) -> int:
        return max(self.table, default=0)

    def is_regular(self) -> bool:
        return not self.table

    def __eq__(self, other):
        if not isinstance(other, OpeResult):
            return NotImplemented
        keys = set(self.table) | set(other.table)
        return all(
            (self.table.get(k, FieldExpr.zero(self.ctx))
             == other.table.get(k, FieldExpr.zero(self.ctx)))
            for k in keys
        )

    __hash__ = None

    def render(self) -> str:
        if not self.table:
            return "regular"
        bits = []
        for order in sorted(self.table, reverse=True):
            body = self.table[order].render()
            pole = "(z-w)" if order == 1 else "(z-w)^%d" % order
            if body == "1":
                bits.append("1/%s" % pole)
            elif all(ch not in body for ch in "+-") or body.lstrip("-").isdigit():
                bits.append("%s/%s" % (body, pole))
            else:
                bits.append("(%s)/%s" % (body, pole))
        return " + ".join(bits)

    def __repr__(self):
        return self.render()


def wick_ope(left: FieldExpr, right: FieldExpr) -> OpeResult:
    """Exact singular part of left(z) * right(w) by pairing expansion.

    Every pairing pattern contracts each z-side factor with at most one
    w-side factor or with the w-side vertex factor; the uncontracted z-side
    factors are Taylor-expanded at w.  A vertex factor on the z-side raises
    ``UnsupportedPairingError``: the mutual singularity of two vertex fields
    is not a Wick pairing (``virasoro.normal_multi_vertex`` computes their
    normal-ordered product).
    """
    ctx = left.ctx
    table: dict[int, FieldExpr] = {}
    for (lmu, lfac), lc in left.terms.items():
        if lmu is not None:
            raise UnsupportedPairingError(
                "vertex factor on the z-side is outside the supported grammar"
            )
        for (rmu, rfac), rc in right.terms.items():
            base = lc * rc
            for pairs, used in _patterns(lfac, rfac, rmu is not None):
                if not pairs:
                    continue
                coeff = base
                order = 0
                ok = True
                for li, target in pairs:
                    if target == "v":
                        got = _vertex_contraction(ctx, lfac[li], rmu)
                    else:
                        got = _pair_contraction(ctx, lfac[li], rfac[target])
                    if got is None:
                        ok = False
                        break
                    c, r = got
                    coeff = coeff * c
                    order += r
                if not ok or coeff.is_zero():
                    continue
                rest_left = tuple(lfac[i] for i in range(len(lfac))
                                  if i not in {li for li, _ in pairs})
                rest_right = tuple(rfac[j] for j in range(len(rfac)) if j not in used)
                _taylor_accumulate(ctx, table, coeff, order, rest_left, rest_right, rmu)
    return OpeResult(ctx, table)


def _patterns(lfac, rfac, has_vertex):
    """All pairing patterns: each z-side factor contracts with at most one
    w-side factor (each used at most once) or with the vertex (reusable)."""

    def rec(i, pairs, used):
        if i == len(lfac):
            yield list(pairs), set(used)
            return
        yield from rec(i + 1, pairs, used)  # leave factor i uncontracted
        for j in range(len(rfac)):
            if j not in used:
                yield from rec(i + 1, pairs + [(i, j)], used | {j})
        if has_vertex:
            yield from rec(i + 1, pairs + [(i, "v")], used)

    yield from rec(0, [], set())


def _taylor_accumulate(ctx, table, coeff, order, rest_left, rest_right, rmu):
    """Re-expand the untouched z-side factors at w up to the pole order."""

    def rec(i, shift, c, acquired):
        if i == len(rest_left):
            pole = order - shift
            if pole >= 1:
                factors = tuple(sorted(acquired + rest_right))
                expr = table.get(pole)
                if expr is None:
                    expr = FieldExpr.zero(ctx)
                    table[pole] = expr
                expr._bump((rmu, factors), c)
            return
        sym, k = rest_left[i]
        for t in range(order - shift):
            rec(i + 1, shift + t, c * QQ(1, math.factorial(t)), acquired + ((sym, k + t),))

    rec(0, 0, coeff, ())


# -- exact mode action ------------------------------------------------------------------


def vertex_annihilation_coeff(mu, k: int, vec: FockVector) -> FockVector:
    """Coefficient of z^-k in the annihilation half of the exponential field."""
    space = vec.space
    out = space.zero()
    if k < 0 or vec.is_zero():
        return out
    powers = _powers(space.ctx.scalar(mu), k)
    for part in _partitions(k):
        low = vec
        for n in part:
            low = osc_apply(("b", n), low)
            if low.is_zero():
                break
        if low.is_zero():
            continue
        out = out + _exp_multiset_coeff(powers[len(part)], part, annihilate=True) * low
    return out


def vertex_creation_coeff(mu, k: int, vec: FockVector) -> FockVector:
    """Coefficient of z^+k in the creation half of the exponential field.

    Creation modes commute, so each partition's modes merge into the
    monomial keys of vec and every term adds into one accumulator.
    """
    space = vec.space
    if k < 0 or vec.is_zero():
        return space.zero()
    powers = _powers(space.ctx.scalar(mu), k)
    acc: dict = {}
    for part in _partitions(k):
        creation = tuple(("b", -m) for m in part)
        scale = _exp_multiset_coeff(powers[len(part)], part, annihilate=False)
        for mon, c in vec.terms.items():
            key = _sorted_monomial(mon + creation)
            acc[key] = acc[key] + c * scale if key in acc else c * scale
    return FockVector(space, {mon: v for mon, v in acc.items() if not v.is_zero()})


def _powers(mu: ParamScalar, k: int) -> list:
    """[mu^0, ..., mu^k]; a partition of k has at most k parts."""
    out = [mu.context.one()]
    for _ in range(k):
        out.append(out[-1] * mu)
    return out


def _exp_multiset_coeff(mu_power: ParamScalar, part: tuple[int, ...], annihilate: bool) -> ParamScalar:
    """Coefficient of a creation/annihilation multiset in exp expansion:
    prod over occurrences of (-+ mu / n), divided by multiplicities!;
    ``mu_power`` is mu ** len(part)."""
    q = QQ(1)
    mult: dict[int, int] = {}
    for n in part:
        mult[n] = mult.get(n, 0) + 1
        q /= -n if annihilate else n
    for m in mult.values():
        q /= math.factorial(m)
    return q * mu_power


def apply_vertex(mu: ParamScalar, eps: int, vec: FockVector) -> FockVector:
    """Coefficient of z^eps in the exponential vertex with exponent mu.

    For each annihilation order ``down`` (bounded by the source vector's
    energy) the annihilation half is applied, the label is shifted by mu and
    the creation half of order ``down + eps`` follows, so the expansion is
    exact.
    """
    space = vec.space
    mu = space.ctx.scalar(mu)
    target = space.shifted(mu)
    out = target.zero()
    for down in range(vec.energy_bound() + 1):
        lowered = vertex_annihilation_coeff(mu, down, vec)
        if not lowered.is_zero():
            shifted = FockVector(target, lowered.terms)
            out = out + vertex_creation_coeff(mu, down + eps, shifted)
    return out


def apply_field_coeff(expr: FieldExpr, e: int, vec: FockVector) -> FockVector:
    """Exact action of the z^e coefficient of ``expr`` on ``vec``.

    The target space is the source shifted by the (homogeneous) vertex
    exponent.  Works one source monomial and one term at a time: for each,
    ``_mode_sums`` gives integer sums keyed by (monomial, vertex exponent or
    None, creation modes, b_0 count).  A vertex-free key holds its target
    monomial; a vertex key holds the lowered monomial, whose sum goes through
    ``apply_vertex`` once before its creation modes merge in.  Each sum is
    scaled once, by the term's coefficient times the monomial's times
    (pairing * alpha)^count, into one accumulator.  ``beta``/``gamma``
    without the charged pair raise ValueError.
    """
    space = vec.space
    spec = space.spec
    charged = [f for _, factors in expr.terms for f in factors if f[0] != "p"]
    if charged and not spec.has_pair:
        raise ValueError("field factor %r needs the charged pair" % (charged[0],))
    mu = expr.vertex_exponent()
    target = space.shifted(mu) if not mu.is_zero() else space
    one = space.ctx.one()
    zero_mode = [one]  # powers of the b_0 eigenvalue pairing * alpha
    acc: dict = {}
    for mon, vc in vec.terms.items():
        energy = monomial_energy(mon)
        unit = vc == 1
        for (tmu, factors), coeff in expr.terms.items():
            tgt_max = energy + e + _term_weight(factors)
            if tgt_max < 0:
                continue
            sums = _mode_sums(factors, e, energy, tgt_max, tmu is not None, mon, spec)
            scales: dict = {}
            for (m, veps, creation, count), n in sums.items():
                if not n:
                    continue
                scale = scales.get(count)
                if scale is None:
                    scale = coeff if unit else coeff * vc
                    if count:
                        while len(zero_mode) <= count:
                            zero_mode.append(zero_mode[-1] * (spec.pairing * space.alpha))
                        scale = scale * zero_mode[count]
                    scales[count] = scale
                scale = scale * n
                if veps is None:
                    image = {m: scale}
                else:
                    lifted = apply_vertex(tmu, veps, FockVector(space, {m: one}))
                    image = {_sorted_monomial(t + creation): v * scale
                             for t, v in lifted.terms.items()}
                for t, v in image.items():
                    acc[t] = acc[t] + v if t in acc else v
    return FockVector(target, {mon: v for mon, v in acc.items() if not v.is_zero()})


# field -> (oscillator family of its modes, sign of its mode expansion)
_MODE_FAMILIES = {"p": ("b", -1), "beta": ("a", 1), "gamma": ("as", 1)}


def _mode_sums(factors, e, energy, tgt_max, has_vertex, mon, spec) -> dict:
    """Integer sums over the exponent assignments of one term on ``mon``.

    Factor ``D^k f`` at z^eps takes the mode ``(family, -eps - weight - k)``
    with coefficient ``sign * (eps+1)...(eps+k)``, which vanishes for
    -k <= eps < 0; the vertex takes what is left of ``e``, and a vertex-free
    term must leave 0, so its last factor's exponent is forced.  An exponent
    lies in the factor's box (annihilating at most the source energy,
    creating at most the largest target block) and leaves a remainder the
    later boxes can take up.  Applied in factor order, an annihilating
    factor takes its mode only from the partners the lowered monomial holds
    (plus b_0 for ``p``), and a forced one is settled by one lookup of its
    partner, so no annihilation kills the monomial.  An assignment stands for
    ``weight * (pairing alpha)^count * lowered monomial``, with an exact
    integer weight and a b_0 count, times the creation modes; it adds
    ``coefficient * weight`` into the sum keyed ``(target monomial, None, (),
    count)`` without a vertex and ``(lowered monomial, vertex exponent,
    creation modes, count)`` with one.  Keys arrive in the lexicographic
    order of the exponents.
    """
    sums: dict = {}
    last = len(factors) - 1
    end = last if has_vertex else last - 1  # factors after end take no search
    boxes = [(-energy - _WEIGHT[s] - k, tgt_max + energy - _WEIGHT[s] - k) for s, k in factors]
    # suffix[i]: the range of the exponents of factors i.. plus the vertex's
    suffix = [(-energy, tgt_max + energy) if has_vertex else (0, 0)]
    for lo, hi in reversed(boxes):
        suffix.insert(0, (suffix[0][0] + lo, suffix[0][1] + hi))

    def rec(i, remaining, low, w, count, creation, c):
        if i <= last:
            sym, k = factors[i]
            fam, sign = _MODE_FAMILIES[sym]
            partner_fam, shift = _PARTNER[fam], _WEIGHT[sym] + k
        if i <= end:
            lo = max(boxes[i][0], remaining - suffix[i + 1][1])
            hi = min(boxes[i][1], remaining - suffix[i + 1][0])
            for j, held in enumerate(low):  # sorted: the partners in ascending eps
                if held[0] != partner_fam or (j and low[j - 1] == held):
                    continue
                eps = held[1] - shift
                if eps > hi:
                    break
                if eps >= lo:
                    value = spec.contraction((fam, -held[1]))[1]
                    rec(i + 1, remaining - eps, low[:j] + low[j + 1:],
                        w * low.count(held) * value, count, creation,
                        sign * _rising(eps + 1, k) * c)
            if fam == "b" and lo <= -1 - k <= hi:  # b_0
                rec(i + 1, remaining + 1 + k, low, w, count + 1, creation,
                    sign * _rising(-k, k) * c)
            for eps in range(max(lo, 0), hi + 1):
                rec(i + 1, remaining - eps, low, w, count, creation + ((fam, -eps - shift),),
                    sign * _rising(eps + 1, k) * c)
            return
        if has_vertex:
            key = (low, remaining, creation, count)
        else:
            if i == last:  # the forced exponent eps = remaining: one lookup
                mode = (fam, -remaining - shift)
                if remaining >= 0:
                    creation += (mode,)
                elif remaining >= -k:
                    return
                elif mode == ("b", 0):
                    count += 1
                else:
                    partner = (partner_fam, remaining + shift)
                    n = low.count(partner)
                    if not n:
                        return
                    w *= n * spec.contraction(mode)[1]
                    j = low.index(partner)
                    low = low[:j] + low[j + 1:]
                c *= sign * _rising(remaining + 1, k)
            key = (_sorted_monomial(low + creation), None, (), count)
        sums[key] = sums.get(key, 0) + c * w

    try:
        if suffix[0][0] <= e <= suffix[0][1]:
            rec(0, e, mon, 1, 0, (), 1)
    finally:
        del rec  # rec's cell refers to rec: break the cycle
    return sums


def mode_of_field(expr: FieldExpr, n: int, space: FockSpace) -> ModeOperator:
    """Mode X_n of the field X(z) = sum X_n z^{-n-weight} as a ModeOperator.

    The weight is the expression's homogeneous conformal weight (T: 2,
    currents/p/beta: 1, gamma: 0, vertex: 0).
    """
    delta = expr.conformal_weight()
    mu = expr.vertex_exponent()
    target = space.shifted(mu) if not mu.is_zero() else space
    e = -n - delta
    return ModeOperator(
        lambda v: apply_field_coeff(expr, e, v),
        space,
        target,
        energy_shift=-n,
        charge_shift=expr.charge(),
    )


# -- OPE -> mode bracket ----------------------------------------------------------------


def _binom(n: int, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= Fraction(n - i, i + 1)
    return out


def ope_bracket_action(ope: OpeResult, s: int, t: int, vec: FockVector) -> FockVector:
    """[X<s>, Y<t>] vec from the OPE table of X(z)Y(w).

    X<s> denotes the coefficient of z^s in X(z) (raw exponent indexing).
    Residues of z^{-s-1}/(z-w)^k give binomial factors; the w^t coefficient
    is then read off each pole coefficient exactly.
    """
    n_raw = -s - 1
    out = None
    for k, expr in ope.table.items():
        piece = apply_field_coeff(expr, t + s + k, vec)
        piece = _binom(n_raw, k - 1) * piece
        out = piece if out is None else out + piece
    return out if out is not None else FockVector(vec.space, {})


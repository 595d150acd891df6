"""Exact scalar field: canonical forms, field axioms, substitution."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    poly_add,
    poly_derivative,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_univariate_in,
    random_specialize,
    scalar_inverse_general,
    scalar_product_general,
    scalar_sum_general,
)
from screenops import scalars
from screenops.scalars import (
    ParameterContext,
    ParamPolynomial,
    ParamScalar,
    PoleError,
    _reduce,
)

CTX = ParameterContext(["a", "b", "c"])
A, B, C = CTX.param("a"), CTX.param("b"), CTX.param("c")


def _poly_strategy():
    """Small random polynomials as scalar-valued expressions."""
    atoms = st.sampled_from([A, B, C, CTX.const(1), CTX.const(2), CTX.const(-3)])

    def combine(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: t[0] + t[1]),
            st.tuples(children, children).map(lambda t: t[0] * t[1]),
            children.map(lambda x: -x),
        )

    return st.recursive(atoms, combine, max_leaves=8)


class TestCanonicalForm:
    def test_gcd_reduction(self):
        x = (A**2 - B**2) / (A - B)
        assert x == A + B
        assert x.den == CTX.one().num

    def test_denominator_monic(self):
        s = CTX.one() / (2 * B - 4 * A)
        # leading coefficient of the denominator is 1 in graded-lex order
        _, lc = s.den.leading()
        assert lc == 1

    def test_equality_is_structural(self):
        lhs = (A * B + B) / B
        rhs = A + 1
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            A / CTX.zero()

    def test_rational_fast_path(self):
        s = CTX.const(Fraction(3, 4)) * CTX.const(Fraction(8, 9))
        assert s.is_rational()
        assert s.as_fraction() == Fraction(2, 3)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(_poly_strategy(), _poly_strategy(), _poly_strategy())
    def test_ring_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x + y == y + x
        assert x - x == 0

    @settings(max_examples=40, deadline=None)
    @given(_poly_strategy(), _poly_strategy())
    def test_division_inverts_multiplication(self, x, y):
        if y.is_zero():
            return
        assert (x / y) * y == x

    @settings(max_examples=40, deadline=None)
    @given(_poly_strategy(), _poly_strategy())
    def test_lazy_equality_agrees_with_canonical(self, x, y):
        if y.is_zero():
            return
        q = x / y
        raw = ParamScalar(x.num * y.den, x.den * y.num)
        assert q == raw


class TestSpecialization:
    def test_reduction_preserves_values(self):
        # independent oracle: reduced and unreduced forms agree at random points
        num = (A**2 - B**2) * (C + 2)
        den = (A - B) * (C + 2)
        s = num / den
        assign, [v] = random_specialize([s], CTX, seed=11)
        assert v == num.evaluate(assign) / den.evaluate(assign)

    def test_pole_avoidance_redraws(self):
        s = CTX.one() / (A - 1)
        assign, [v] = random_specialize([s], CTX, seed=3)
        assert assign["a"] != 1
        assert v == Fraction(1, assign["a"] - 1)

    def test_pole_raises_on_substitution(self):
        s = CTX.one() / (A - 1)
        with pytest.raises(PoleError):
            s.substitute({"a": CTX.const(1)})

    def test_substitution_is_homomorphism(self):
        x = (A + B) / (C - 2)
        y = A * C + 3
        mapping = {"a": B**2, "c": CTX.const(5)}
        assert (x * y).substitute(mapping) == x.substitute(mapping) * y.substitute(mapping)
        assert (x + y).substitute(mapping) == x.substitute(mapping) + y.substitute(mapping)

    def test_substitution_across_contexts(self):
        other = ParameterContext(["b", "t"])
        t = other.param("t")
        s = (A + B) ** 2
        out = s.substitute({"a": t, "c": other.zero()}, target=other)
        assert out == (t + other.param("b")) ** 2


class TestPowerAndPrinting:
    def test_negative_powers(self):
        assert (2 * A) ** -2 == CTX.one() / (4 * A**2)

    def test_str_roundtrip_sanity(self):
        s = (A**2 - 2 * A * B + B**2) / (A - B)
        assert str(s) == "a-b"
        assert "/" in str(CTX.one() / (2 * B))


def _quotient_strategy():
    """Scalars with nontrivial denominators: x / y for polynomial x, y."""
    return st.tuples(_poly_strategy(), _poly_strategy()).map(
        lambda t: t[0] / t[1] if not t[1].is_zero() else t[0]
    )


_RATIONALS = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-50, 50),
    st.fractions(max_denominator=60).filter(lambda q: abs(q) < 100),
)
_SCALARS = st.one_of(
    _quotient_strategy(),
    st.fractions(max_denominator=30).map(CTX.const),
)


class TestConstantFastPath:
    @settings(max_examples=150, deadline=None)
    @given(_SCALARS, _RATIONALS)
    def test_matches_general_product(self, s, q):
        general = s * CTX.const(q)
        for fast in (s * q, q * s):
            assert isinstance(fast, ParamScalar)
            assert (fast.num, fast.den) == (general.num, general.den)
            assert all(type(c) is Fraction for c in fast.num.terms.values())
            assert hash(fast) == hash(general)
            assert fast == general


def _substituted(t):
    """x with a and b sent to rationals (c too when ``all_params``), or x
    itself when the substitution hits a pole."""
    x, qa, qb, qc, all_params = t
    mapping = {"a": CTX.const(qa), "b": CTX.const(qb)}
    if all_params:
        mapping["c"] = CTX.const(qc)
    try:
        return x.substitute(mapping)
    except PoleError:
        return x


_NONZERO_Q = st.fractions(max_denominator=30).filter(lambda q: q and abs(q) < 100)
_NONZERO = _quotient_strategy().filter(lambda x: not x.is_zero())
# every way a scalar is built: const, arithmetic that cancels to a constant,
# negation, inverse, substitution and a num/den pair with a constant den != 1
_BUILT = st.one_of(
    st.fractions(max_denominator=30).map(CTX.const),
    _quotient_strategy(),
    _NONZERO.map(lambda x: (x * x) / (x * x)),
    st.tuples(_quotient_strategy(), _RATIONALS).map(lambda t: (t[0] + t[1]) - t[0]),
    st.tuples(_NONZERO, _NONZERO_Q).map(lambda t: (t[0] * t[1]) / t[0]),
    _quotient_strategy().map(lambda x: -x),
    _NONZERO.map(lambda x: x.inverse()),
    st.tuples(_quotient_strategy(), _RATIONALS, _RATIONALS, _RATIONALS, st.booleans()).map(
        _substituted),
    st.tuples(_poly_strategy(), _NONZERO_Q.filter(lambda q: q != 1)).map(
        lambda t: ParamScalar(t[0].num, CTX.poly_const(t[1]))),
)


def _assert_cached_value(x):
    """``_q`` agrees with the definition it caches: num and den constant."""
    rational = x.num.is_constant() and x.den.is_constant()
    assert x.is_rational() == rational
    if rational:
        q = x.num.constant_value() / x.den.constant_value()
        assert type(x.as_fraction()) is Fraction and x.as_fraction() == q
        assert hash(x) == hash(q)
        assert x == q and x != q + 1
        assert (x == q.numerator) == (q.denominator == 1)
    else:
        with pytest.raises(ValueError):
            x.as_fraction()
        assert hash(x) == hash((x.num, x.den))
        assert x != 0 and x != 1 and x != Fraction(1, 2)


class TestCachedRationalValue:
    @settings(max_examples=300, deadline=None)
    @given(_BUILT)
    def test_agrees_with_constant_parts(self, x):
        for y in (x, -x, x + 0, x * 1) + ((x.inverse(),) if not x.is_zero() else ()):
            _assert_cached_value(y)

    def test_cancelling_arithmetic(self):
        nu = ParameterContext(["nu"]).param("nu")
        one = (nu * nu) / (nu * nu)
        assert one.is_rational() and one.as_fraction() == 1 and one == 1
        assert hash(one) == hash(1)
        shifted = (A + 1) - A
        assert shifted.is_rational() and shifted == 1 and shifted.as_fraction() == Fraction(1)
        raw = ParamScalar(A.num, CTX.poly_const(Fraction(2, 3)))
        assert not raw.is_rational() and raw == Fraction(3, 2) * A
        half = ParamScalar(CTX.poly_const(3), CTX.poly_const(6))
        assert half.is_rational() and half.as_fraction() == Fraction(1, 2)
        assert (A / A - 1).as_fraction() == 0 and (A / A - 1).is_zero()

    def test_symbolic_as_fraction_raises(self):
        for x in (A, A / B, CTX.one() / (A + 1), -C):
            assert not x.is_rational()
            with pytest.raises(ValueError):
                x.as_fraction()


def _poly_to_sympy(p, sympy):
    gens = sympy.symbols(CTX.names)
    total = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, k in zip(gens, exp):
            term *= g**k
        total += term
    return total


def _to_sympy(s: ParamScalar, sympy):
    return _poly_to_sympy(s.num, sympy), _poly_to_sympy(s.den, sympy)


class TestSympyOracle:
    """Products checked against sympy, which shares no code with ParamScalar."""

    @settings(max_examples=60, deadline=None)
    @given(_SCALARS, st.one_of(_RATIONALS, _SCALARS))
    def test_product_matches_cancel(self, s, t):
        sympy = pytest.importorskip("sympy")
        got = s * t
        num, den = _to_sympy(got, sympy)
        if isinstance(t, ParamScalar):
            t_num, t_den = _to_sympy(t, sympy)
        else:
            t_num, t_den = sympy.Rational(t.numerator, t.denominator), sympy.Integer(1)
        s_num, s_den = _to_sympy(s, sympy)
        expected = sympy.cancel(s_num * t_num / (s_den * t_den))
        assert sympy.cancel(num / den - expected) == 0
        # canonical form: coprime numerator and denominator
        assert sympy.gcd(num, den).is_number


_DEN_EXPS = st.tuples(*(st.integers(0, 3) for _ in CTX.names))


def _over_monomial(t):
    """x / (k * a^i b^j c^l): a den in up to three parameters, or none."""
    x, exp, k = t
    return ParamScalar(x.num, ParamPolynomial(CTX, {exp: k}))


_MONO_DEN = st.tuples(_poly_strategy(), _DEN_EXPS, st.integers(-4, 4).filter(bool)).map(_over_monomial)
_WITH_PAIR_DEN = _MONO_DEN.map(lambda x: x / (A - B))
_ROUTE_SCALARS = st.one_of(_MONO_DEN, _MONO_DEN, _WITH_PAIR_DEN, _RATIONALS.map(CTX.const))


@st.composite
def _route_pairs(draw):
    """Operand pairs, some built so that the sum, difference, product or
    quotient cancels to a constant or to zero."""
    x = draw(_ROUTE_SCALARS)
    kind = draw(st.sampled_from(["free", "same", "negated", "shifted", "reciprocal"]))
    if kind == "free":
        return x, draw(_ROUTE_SCALARS)
    q = draw(_RATIONALS)
    if kind == "same":
        return x, x
    if kind == "negated":
        return x, q - x
    if kind == "shifted":
        return x, x + q
    return x, (q / x if q and not x.is_zero() else x)


def _assert_same_scalar(got, want):
    assert (got.num, got.den) == (want.num, want.den)
    assert hash(got) == hash(want)
    assert got == want
    # canonical on its own terms too: coprime, with a monic den
    assert got.num.gcd(got.den).is_constant() and got.den.leading()[1] == 1


class TestMonomialRouteAgainstGeneral:
    """Products, sums and inverses against the unreduced pairs reduced by ``_reduce``."""

    @settings(max_examples=200, deadline=None)
    @given(_route_pairs(), _RATIONALS)
    def test_matches_general_route(self, pair, q):
        x, y = pair
        for got, want in (
            (x * y, scalar_product_general(x, y)),
            (y * x, scalar_product_general(y, x)),
            (x + y, scalar_sum_general(x, y)),
            (y + x, scalar_sum_general(y, x)),
            (x - y, scalar_sum_general(x, y, -1)),
            (y - x, scalar_sum_general(y, x, -1)),
            (q * x, scalar_product_general(CTX.const(q), x)),
            (q + x, scalar_sum_general(CTX.const(q), x)),
            (q - x, scalar_sum_general(CTX.const(q), x, -1)),
            (x - q, scalar_sum_general(x, CTX.const(q), -1)),
        ):
            _assert_same_scalar(got, want)
        if not y.is_zero():
            inv = scalar_inverse_general(y)
            _assert_same_scalar(y.inverse(), inv)
            _assert_same_scalar(x / y, scalar_product_general(x, inv))
            if q:
                _assert_same_scalar(q / y, scalar_product_general(CTX.const(q), inv))
                _assert_same_scalar(y / q, scalar_product_general(y, CTX.const(1 / Fraction(q))))

    def test_cancellation_to_constants_and_zero(self):
        x = (A * B + C) / (A**2 * B)
        assert x * (A**2 * B / (A * B + C)) == 1 and (x * x.inverse()).is_rational()
        assert (x - x).is_zero() and (x + 3) - x == 3
        assert ((A + 1) / A) * (A / (A + 1)) == 1
        assert (A**2 * B) / (A * B**2) == A / B

    def test_only_pair_dens_reach_the_gcd(self, monkeypatch):
        calls = {"reduce": 0, "gcd": 0}
        reduce, gcd = scalars._reduce, ParamPolynomial.gcd

        def counted_reduce(num, den):
            calls["reduce"] += 1
            return reduce(num, den)

        def counted_gcd(self, other):
            calls["gcd"] += 1
            return gcd(self, other)

        x, y = (A * B + C) / (A**2 * C), (B - 1) / (B * C**3)
        monkeypatch.setattr(scalars, "_reduce", counted_reduce)
        monkeypatch.setattr(ParamPolynomial, "gcd", counted_gcd)
        for _ in (x * y, x + y, x - y, 2 - x, Fraction(1, 3) * y, x / (A * C), y.inverse()):
            pass
        assert calls == {"reduce": 0, "gcd": 0}
        z = (A + B) / (A - B)
        assert z * z.inverse() == 1 and (z + x).den == (A**2 * C * (A - B)).num
        assert calls["reduce"] > 0 and calls["gcd"] > 0


_POLYS = _poly_strategy().map(lambda s: s.num)
_NONZERO_POLYS = _POLYS.filter(lambda p: not p.is_zero())


def _dividend_and_divisor():
    """(dividend, divisor) pairs; half are divisor * r + perturbation."""
    multiple = st.tuples(_NONZERO_POLYS, _POLYS, st.one_of(st.just(None), _POLYS)).map(
        lambda t: (t[0] * t[1] + (t[2] if t[2] is not None else CTX._poly_zero), t[0])
    )
    return st.one_of(multiple, st.tuples(_POLYS, _NONZERO_POLYS))


def _is_monic(p) -> bool:
    return p.leading()[1] == 1


_SHIFTS = st.tuples(*(st.integers(0, 3) for _ in CTX.names))
_NONZERO_COEFFS = st.integers(-6, 6).filter(bool)
_MONOMIALS = st.tuples(_SHIFTS, _NONZERO_COEFFS).map(lambda t: ParamPolynomial(CTX, {t[0]: t[1]}))
# at least two terms, so the gcd stage runs on what the monomial step leaves
_MULTI_TERM = st.dictionaries(_SHIFTS, _NONZERO_COEFFS, min_size=2, max_size=4).map(
    lambda t: ParamPolynomial(CTX, t)
)


class TestPolynomialKernelOracle:
    """exact_div, gcd and _reduce checked against sympy's polynomial routines."""

    @settings(max_examples=120, deadline=None)
    @given(_dividend_and_divisor())
    def test_exact_div_matches_sympy_div(self, pair):
        sympy = pytest.importorskip("sympy")
        f, g = pair
        gens = sympy.symbols(CTX.names)
        q_ref, r_ref = sympy.div(_poly_to_sympy(f, sympy), _poly_to_sympy(g, sympy), *gens, domain="QQ")
        if r_ref == 0:
            q = f.exact_div(g)
            assert q * g == f
            assert sympy.expand(_poly_to_sympy(q, sympy) - q_ref) == 0
        else:
            with pytest.raises(ValueError, match="polynomial not divisible"):
                f.exact_div(g)

    @settings(max_examples=80, deadline=None)
    @given(_POLYS, _POLYS, _POLYS)
    def test_gcd_is_monic_associate_of_sympy_gcd(self, common, x, y):
        sympy = pytest.importorskip("sympy")
        a, b = common * x, common * y
        if a.is_zero() and b.is_zero():
            return
        g = a.gcd(b)
        assert _is_monic(g)
        ratio = sympy.cancel(
            _poly_to_sympy(g, sympy) / sympy.gcd(_poly_to_sympy(a, sympy), _poly_to_sympy(b, sympy))
        )
        assert ratio.is_number and ratio != 0

    def test_remainder_sequence_runs_on_integer_parts(self, monkeypatch):
        # with a rational content carried from remainder to remainder, the
        # contents of this pair's sequence grew to millions of bits
        a, b, c = (CTX.poly_param(n) for n in CTX.names)
        one = CTX.poly_const(1)
        g = -3 * a**2 * b**2 + 5 * a**2 * b + 2 * a * b * c
        f = 2 * a**3 * b**3 * c**3 - 3 * b**2 * c - b * c + 2 * one
        h = -2 * a * b * c**3 + 3 * b**2 * c + 3 * c**3 + 5 * a
        contents = []
        pseudo_rem = scalars._pseudo_rem

        def spy(x, y, var):
            contents.extend((x.content, y.content))
            return pseudo_rem(x, y, var)

        monkeypatch.setattr(scalars, "_pseudo_rem", spy)
        assert (g * f).gcd(g * h) == g.monic()
        assert contents and set(contents) == {1}

    @settings(max_examples=80, deadline=None)
    @given(_POLYS, _NONZERO_POLYS, _POLYS)
    def test_reduce_matches_sympy_cancel(self, common, den_part, num_part):
        sympy = pytest.importorskip("sympy")
        num_in, den_in = common * num_part, common * den_part
        if den_in.is_zero():
            return
        num, den = _reduce(num_in, den_in)
        assert _is_monic(den)
        num_s, den_s = _poly_to_sympy(num, sympy), _poly_to_sympy(den, sympy)
        assert sympy.gcd(num_s, den_s).is_number
        want = sympy.cancel(_poly_to_sympy(num_in, sympy) / _poly_to_sympy(den_in, sympy))
        assert sympy.cancel(num_s / den_s - want) == 0

    @pytest.mark.parametrize("monomial_g", [True, False], ids=["monomial-g", "multi-term-g"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_monomial_step_matches_sympy_cancel(self, monomial_g, data):
        sympy = pytest.importorskip("sympy")
        f = data.draw(_POLYS)
        g = data.draw(_MONOMIALS if monomial_g else _MULTI_TERM)
        common = data.draw(_NONZERO_POLYS)
        a, b = data.draw(_SHIFTS), data.draw(_SHIFTS)
        x_a, x_b = ParamPolynomial(CTX, {a: 1}), ParamPolynomial(CTX, {b: 1})
        num_in, den_in = x_a * f * common, x_b * g * common
        num, den = _reduce(num_in, den_in)
        # both parts are polynomials, den is monic, and they are coprime
        assert all(k >= 0 for p in (num, den) for e in p.terms for k in e)
        assert _is_monic(den)
        num_s, den_s = _poly_to_sympy(num, sympy), _poly_to_sympy(den, sympy)
        assert sympy.gcd(num_s, den_s).is_number
        want = sympy.cancel(_poly_to_sympy(num_in, sympy) / _poly_to_sympy(den_in, sympy))
        assert sympy.cancel(num_s / den_s - want) == 0
        # a monomial g leaves a monic monomial den
        if monomial_g:
            assert len(den.coeffs) == 1 and den.content == 1


_EXPS = st.tuples(*(st.integers(0, 2) for _ in CTX.names))
_COEFFS = st.one_of(
    st.integers(-12, 12),
    st.fractions(max_denominator=12).filter(lambda q: abs(q) < 20),
)
# polynomials from rational term maps, and from scalar arithmetic
_RAW_POLYS = st.one_of(
    st.dictionaries(_EXPS, _COEFFS, max_size=5).map(lambda t: ParamPolynomial(CTX, t)),
    _POLYS,
)


def _assert_canonical(p):
    """Integer part with gcd 1 and a positive lex-greatest coefficient."""
    assert all(type(c) is int for c in p.coeffs.values())
    # the content is an int when integral, else a Fraction with denominator > 1; never a float
    assert type(p.content) is int or (type(p.content) is Fraction and p.content.denominator > 1)
    assert all(type(c) is Fraction for c in p.terms.values())
    if p.is_constant():
        assert type(p.constant_value()) is Fraction
        assert type(ParamScalar(p, CTX.poly_const(1)).as_fraction()) is Fraction
    if p.is_zero():
        assert p.coeffs == {} and p.content == 0
    else:
        assert p.content != 0 and 0 not in p.coeffs.values()
        assert type(p.leading()[1]) is Fraction
        assert math.gcd(*p.coeffs.values()) == 1
        assert p.coeffs[max(p.coeffs)] > 0
    again = ParamPolynomial(CTX, p.terms)
    assert again == p and hash(again) == hash(p)


class TestIntegerKernelAgainstReference:
    """Every operation's rational view against plain {exponent: Fraction} arithmetic."""

    @settings(max_examples=150, deadline=None)
    @given(_RAW_POLYS, _RAW_POLYS)
    def test_ring_operations(self, f, g):
        for got, want in (
            (f + g, poly_add(f.terms, g.terms)),
            (f - g, poly_sub(f.terms, g.terms)),
            (f * g, poly_mul(f.terms, g.terms)),
            (f + f, poly_add(f.terms, f.terms)),
            (f - f, {}),
        ):
            _assert_canonical(got)
            assert got.terms == want

    @settings(max_examples=100, deadline=None)
    @given(_RAW_POLYS, _COEFFS)
    def test_scaling_and_negation(self, f, q):
        for got, want in ((f * q, poly_scale(f.terms, q)), (q * f, poly_scale(f.terms, q)),
                          (-f, poly_scale(f.terms, -1))):
            _assert_canonical(got)
            assert got.terms == want
        if q:
            got = f.exact_div(CTX.poly_const(q))
            _assert_canonical(got)
            assert got.terms == poly_scale(f.terms, 1 / Fraction(q))

    @settings(max_examples=100, deadline=None)
    @given(_RAW_POLYS, st.integers(0, len(CTX.names) - 1))
    def test_derivative_and_univariate_view(self, f, var):
        got = f.derivative(CTX.names[var])
        _assert_canonical(got)
        assert got.terms == poly_derivative(f.terms, var)
        view = f._univariate_in(var)
        for part in view.values():
            _assert_canonical(part)
        assert {d: part.terms for d, part in view.items()} == poly_univariate_in(f.terms, var)

    @settings(max_examples=100, deadline=None)
    @given(_RAW_POLYS, _RAW_POLYS.filter(lambda p: not p.is_zero()))
    def test_exact_quotient_is_canonical(self, f, g):
        q = (f * g).exact_div(g)
        _assert_canonical(q)
        assert q.terms == f.terms


# exponents anywhere in a field, and tuples of them, for the packed kernel
_FIELD_EXPS = st.integers(0, scalars.EXP_LIMIT - 1)
_WIDE_EXPS = st.tuples(*(_FIELD_EXPS for _ in CTX.names))
_WIDE_POLYS = st.dictionaries(_WIDE_EXPS, _NONZERO_COEFFS, min_size=1, max_size=5).map(
    lambda t: ParamPolynomial(CTX, t))


class TestPackedExponents:
    """The packed-int exponent kernel against plain tuple arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_EXPS)
    def test_pack_round_trips(self, exp):
        assert CTX._unpack(CTX._pack(exp)) == exp
        p = ParamPolynomial(CTX, {exp: 3})
        assert p.terms == {exp: 3} and p.leading() == (exp, 3)

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_EXPS, _WIDE_EXPS)
    def test_int_order_is_lex_order(self, a, b):
        assert (CTX._pack(a) < CTX._pack(b)) == (a < b)
        assert (CTX._pack(a) == CTX._pack(b)) == (a == b)

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_EXPS, _WIDE_EXPS)
    def test_monomial_division_borrow(self, a, b):
        # x^a / x^b with a field of a below b's: the packed difference would
        # borrow from the field above, which may be large
        dividend, monomial = ParamPolynomial(CTX, {a: 1}), ParamPolynomial(CTX, {b: 1})
        if all(x >= y for x, y in zip(a, b)):
            want = {tuple(x - y for x, y in zip(a, b)): 1}
            assert dividend.exact_div(monomial).terms == want
        else:
            with pytest.raises(ValueError, match="not divisible"):
                dividend.exact_div(monomial)
        if any(b):
            # 2 x^b + 1 divides no monomial
            with pytest.raises(ValueError, match="not divisible"):
                dividend.exact_div(ParamPolynomial(CTX, {b: 2, (0, 0, 0): 1}))

    @pytest.mark.parametrize("high", [1, 7, scalars.EXP_LIMIT - 1])
    def test_borrow_in_a_low_field_under_a_large_high_field(self, high):
        # a^high c^0 / (a^0 c^1): the quotient's c field would go to -1
        num = ParamPolynomial(CTX, {(high, 0, 0): 1})
        for den in ({(0, 0, 1): 1}, {(0, 0, 1): 1, (0, 0, 0): -1}, {(0, 1, 1): 2, (0, 1, 0): 1}):
            with pytest.raises(ValueError, match="not divisible"):
                num.exact_div(ParamPolynomial(CTX, den))

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_POLYS, _WIDE_POLYS)
    def test_componentwise_floor(self, f, g):
        keys = [*f.coeffs, *g.coeffs]
        low = scalars._floor(CTX._guard, keys[-1], keys)
        assert CTX._unpack(low) == tuple(map(min, *f.terms, *g.terms))

    @settings(max_examples=100, deadline=None)
    @given(_WIDE_POLYS, st.sampled_from(CTX.names), st.integers(-3, 3))
    def test_shift_var_is_a_monomial_product(self, f, name, k):
        var = CTX._index[name]
        exps = [e[var] + k for e in f.terms]
        if min(exps) < 0:
            with pytest.raises(ValueError, match="went negative"):
                f.shift_var(var, k)
        elif max(exps) >= scalars.EXP_LIMIT:
            with pytest.raises(ValueError, match="exponent overflow"):
                f.shift_var(var, k)
        else:
            unit = tuple(int(n == name) for n in CTX.names)
            want = {tuple(x + k * u for x, u in zip(e, unit)): c for e, c in f.terms.items()}
            assert f.shift_var(var, k).terms == want


class TestExponentLimit:
    """No exponent reaches EXP_LIMIT: a carry into the next field would be a
    wrong polynomial, so every route that could reach it raises instead."""

    LIMIT = scalars.EXP_LIMIT

    @pytest.mark.parametrize("exp", [(LIMIT, 0, 0), (0, 0, LIMIT), (0, LIMIT + 5, 0), (0, -1, 0)])
    def test_constructor_rejects_an_exponent_out_of_range(self, exp):
        bad = next(e for e in exp if not 0 <= e < self.LIMIT)
        with pytest.raises(ValueError, match=r"exponent %d outside .*limit %d" % (bad, self.LIMIT)):
            ParamPolynomial(CTX, {exp: 1})

    def test_constructor_rejects_a_wrong_length(self):
        with pytest.raises(ValueError, match="entries"):
            ParamPolynomial(CTX, {(1, 0): 1})

    @pytest.mark.parametrize("name", CTX.names)
    def test_power_raises_at_the_limit(self, name):
        x = CTX.poly_param(name)
        assert (x ** (self.LIMIT - 1)).degree_in(CTX._index[name]) == self.LIMIT - 1
        with pytest.raises(ValueError, match="exponent overflow"):
            x ** 2**15
        with pytest.raises(ValueError, match="exponent overflow"):
            CTX.param(name) ** 2**15
        with pytest.raises(ValueError, match="exponent overflow"):
            CTX.param(name) ** -(2**15)

    def test_product_and_shift_raise_rather_than_carry(self):
        half = self.LIMIT // 2
        c, b = CTX.poly_param("c"), CTX.poly_param("b")
        # the low field c: a carry would turn c^LIMIT into b^1
        with pytest.raises(ValueError, match="exponent overflow"):
            c**half * (c**half + b)
        with pytest.raises(ValueError, match="exponent overflow"):
            (c**half + CTX.poly_const(1)) * (c**half + b)
        with pytest.raises(ValueError, match="exponent overflow"):
            (c ** (self.LIMIT - 1) + b).shift_var(CTX._index["c"], 1)
        with pytest.raises(ValueError, match="went negative"):
            (c + b).shift_var(CTX._index["c"], -1)
        assert (c**half * c ** (half - 1)).degree_in(CTX._index["c"]) == self.LIMIT - 1

    def test_scalar_dens_raise_rather_than_carry(self):
        half = self.LIMIT // 2
        inv = CTX.one() / CTX.param("c") ** half
        with pytest.raises(ValueError, match="exponent overflow"):
            inv * inv
        top = CTX.param("c") ** (self.LIMIT - 1)
        with pytest.raises(ValueError, match="exponent overflow"):
            top + CTX.one() / CTX.param("c")

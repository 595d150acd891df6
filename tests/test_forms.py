"""Twisted-form calculus: flatness, Cartan identities, degree-range bookkeeping.

The exact rational layer serves as the oracle for the Laurent layer:
both implement the same twisted differential, so cleared-denominator results
are compared term by term against Delta times the closed-form answer.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from screenops.fock import FockSpace, OscSpec
from screenops.scalars import Combination, ParameterContext, ParamPolynomial, ParamScalar
from screenops.forms import (
    Connection,
    FactoredCoeff,
    FormSpace,
    LaurentForm,
    RationalForm,
    WittElement,
    clear_pairs,
    cleared_d,
    contraction_cochain,
    koszul_value,
)

from oracles import (
    clear_pairs_stepwise,
    cleared_d_stepwise,
    connection_times,
    laurent_terms,
    mul_zdiff_stepwise,
    normalized_by_exact_div,
    pair_divides,
)


def make_space(nvars, extra=()):
    base = ParameterContext(("k1", "k2", "k3", "t") + tuple(extra))
    return FormSpace(base, nvars)


def generic_connection(space):
    ctx = space.base
    kappa = [ctx.param("k%d" % (q + 1)) for q in range(space.nvars)]
    pairs = {}
    for i in range(space.nvars):
        for j in range(i + 1, space.nvars):
            pairs[(i, j)] = ctx.param("t")
    return Connection(kappa, pairs)


def random_scalar(space, rng):
    """Small random rational function in the z's and one parameter."""
    ctx = space.ctx
    total = ctx.zero()
    for _ in range(rng.randint(1, 3)):
        term = ctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for q in range(space.nvars):
            term = term * space.z(q) ** rng.randint(-2, 2)
        total = total + term
    return total


def random_form(space, degree, rng):
    terms = {}
    for subset in itertools.combinations(range(space.nvars), degree):
        terms[subset] = random_scalar(space, rng)
    return RationalForm(space, terms)


def random_witt(rng, span=(-2, 3)):
    coeffs = {}
    for n in range(span[0], span[1]):
        c = rng.randint(-2, 2)
        if c:
            coeffs[n] = Fraction(c)
    if not coeffs:
        coeffs[1] = Fraction(1)
    return WittElement(coeffs)


class TestConnection:
    def test_pair_out_of_range_names_the_pair(self):
        with pytest.raises(ValueError, match=re.escape("pair (0, 1) is out of range")):
            Connection([1], {(0, 1): 2})
        with pytest.raises(ValueError, match=re.escape("pair (-1, 1) is out of range")):
            Connection([1, 2], {(-1, 1): 2})

    def test_pair_in_both_orders_names_the_pair(self):
        with pytest.raises(ValueError, match=re.escape("pair (0, 1) is given in both orders")):
            Connection([1, 2], {(0, 1): 3, (1, 0): 4})


class TestRationalLayer:
    def test_twisted_differential_squares_to_zero(self):
        rng = random.Random(7)
        space = make_space(3)
        conn = generic_connection(space)
        for degree in (0, 1):
            form = random_form(space, degree, rng)
            assert form.d(conn).d(conn).is_zero()

    def test_contraction_squares_to_zero(self):
        rng = random.Random(13)
        space = make_space(3)
        form = random_form(space, 2, rng)
        tau = random_witt(rng)
        assert form.contract(tau).contract(tau).is_zero()

    def test_contraction_anticommutes(self):
        rng = random.Random(17)
        space = make_space(3)
        form = random_form(space, 2, rng)
        tau, sigma = random_witt(rng), random_witt(rng)
        lhs = form.contract(tau).contract(sigma)
        rhs = form.contract(sigma).contract(tau)
        assert (lhs + rhs).is_zero()

    def test_lie_bracket_compatibility(self):
        # [Lie_tau, i_sigma] = i_[tau, sigma] on the twisted complex
        rng = random.Random(19)
        space = make_space(2)
        conn = generic_connection(space)
        tau, sigma = random_witt(rng), random_witt(rng)
        for degree in (1, 2):
            form = random_form(space, degree, rng)
            lhs = form.contract(sigma).lie(tau, conn) - form.lie(tau, conn).contract(sigma)
            rhs = form.contract(tau.bracket(sigma))
            assert lhs == rhs

    def test_lie_is_a_lie_action(self):
        # flatness: [Lie_tau, Lie_sigma] = Lie_[tau, sigma]
        rng = random.Random(23)
        space = make_space(2)
        conn = generic_connection(space)
        tau, sigma = random_witt(rng), random_witt(rng)
        form = random_form(space, 1, rng)
        lhs = form.lie(sigma, conn).lie(tau, conn) - form.lie(tau, conn).lie(sigma, conn)
        rhs = form.lie(tau.bracket(sigma), conn)
        assert lhs == rhs

    def test_witt_bracket(self):
        e = WittElement.basis
        assert e(2).bracket(e(-1)).coeffs == {1: Fraction(3)}
        assert e(0).bracket(e(0)).coeffs == {}


DIAG_SPACE = FormSpace(ParameterContext(("t",)), 3)

_DIAG_POLYS = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in DIAG_SPACE.ctx.names)),
    st.integers(-3, 3).map(Fraction),
    max_size=4,
).map(lambda terms: ParamPolynomial(DIAG_SPACE.ctx, terms))


_DIVISION_CASES = (
    st.sampled_from(sorted(DIAG_SPACE._pair_polys)),
    st.integers(0, 3),
    _DIAG_POLYS,
    st.one_of(
        st.none(),
        _DIAG_POLYS,
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), _DIAG_POLYS),
    ),
)


def _dividend(key, k, r, perturbation):
    """(z_i - z_j)^k r plus the perturbation, if any."""
    poly = DIAG_SPACE.pair_poly(*key) ** k * r
    if isinstance(perturbation, tuple):
        # (a z_i + b z_j) m maps to (a + b) z_j m: no image term has one preimage
        a, b, m = perturbation
        zi, zj = (DIAG_SPACE.ctx.poly_param(DIAG_SPACE.var_names[q]) for q in key)
        perturbation = (zi * a + zj * b) * m
    return poly if perturbation is None else poly + perturbation


T, Z1, Z2, Z3 = (DIAG_SPACE.ctx.poly_param(n) for n in DIAG_SPACE.ctx.names)
ONE = DIAG_SPACE.ctx.poly_const(1)


class TestPairDivisibility:
    """Division by z_i - z_j: the substitution oracle `pair_divides` and the
    reduction oracle `normalized_by_exact_div`, both against `exact_div`."""

    @settings(max_examples=150, deadline=None)
    @given(*_DIVISION_CASES)
    def test_substitution_agrees_with_exact_div(self, key, k, r, perturbation):
        pp = DIAG_SPACE.pair_poly(*key)
        poly = _dividend(key, k, r, perturbation)
        try:
            quotient = poly.exact_div(pp)
        except ValueError:
            divisible = False
        else:
            divisible = True
            assert quotient * pp == poly
        assert pair_divides(DIAG_SPACE, key, poly) == divisible
        if k and perturbation is None:
            assert divisible

    @pytest.mark.parametrize("key, dividend, quotient", [
        # the quotient has more terms than the dividend
        ((0, 1), Z1**3 - Z2**3, Z1**2 + Z1 * Z2 + Z2**2),
        # z2 sits between the two variables of the pair; the content 2 is kept
        ((0, 2), (Z1 - Z3) * (T * Z2**2 - Z1 * Z2 * 3 + ONE) * 2,
         T * Z2**2 * 2 - Z1 * Z2 * 6 + ONE * 2),
        ((1, 2), Z1 * (Z2 - Z3) ** 2 * (Z2 + Z3), Z1 * (Z2 * Z2 - Z3 * Z3)),
        ((0, 1), Z1 * Z2 - Z2**2 + Z3, None),
        ((0, 1), Z1 + Z2, None),
    ], ids=["denser-quotient", "middle-variable", "squared-pair", "one-term-group", "nonzero-sum"])
    def test_pair_division_by_hand(self, key, dividend, quotient):
        assert pair_divides(DIAG_SPACE, key, dividend) == (quotient is not None)
        if quotient is not None:
            assert dividend.exact_div(DIAG_SPACE.pair_poly(*key)) == quotient

    @pytest.mark.parametrize("key", sorted(DIAG_SPACE._pair_polys))
    def test_monomials_never_divide(self, key):
        """Every monomial of degree <= 2 in each variable, with coefficient 1
        or -3, fails the substitution test; a multi-term multiple of
        z_i - z_j still passes it."""
        pp = DIAG_SPACE.pair_poly(*key)
        for exps in itertools.product(range(3), repeat=4):
            mono = ONE
            for var, n in zip((T, Z1, Z2, Z3), exps):
                mono = mono * var**n
            for c in (1, -3):
                assert not pair_divides(DIAG_SPACE, key, mono * c), (exps, c)
        assert pair_divides(DIAG_SPACE, key, pp * (T * Z1 * 3 - Z2**2 + ONE))

    def test_zero_numerator(self):
        # zero has no denominator, whatever exponents it is built with
        zero = DIAG_SPACE.ctx.poly_const(0)
        assert zero == zero.exact_div(Z1 - Z3)
        fc = FactoredCoeff(DIAG_SPACE, zero, (1, 0, 2), {(0, 2): 3})
        assert_same_coeff(fc, FactoredCoeff.zero(DIAG_SPACE))

    @pytest.mark.parametrize("held, left", [(2, 0), (3, 0), (4, 1)])
    def test_cancel_divides_a_cube_out_while_the_denominator_holds_it(self, held, left):
        # (z1 - z3)^3 r over (z1 - z3)^held: min(3, held) divisions by exact_div
        r = Z2 + T * Z1 + ONE
        fc = FactoredCoeff(DIAG_SPACE, (Z1 - Z3) ** 3 * r, None, {(0, 2): held})
        want = FactoredCoeff(DIAG_SPACE, (Z1 - Z3) ** (3 - min(3, held)) * r, None, {(0, 2): left})
        assert_same_coeff(normalized_by_exact_div(fc), want)

    def test_from_scalar_rejects_base_parameter_denominator(self):
        space = FormSpace(ParameterContext(("k1",)), 1)
        value = space.z(0) / (space.ctx.param("k1") + 1)
        with pytest.raises(ValueError, match=r"denominator k1\+1 is not a product"):
            FactoredCoeff.from_scalar(space, value)

    @pytest.mark.parametrize("sign", [1, -1], ids=["sum", "pair-difference"])
    def test_from_scalar_rejects_unsupported_denominator(self, sign):
        # pair differences enter a denominator only through mul_pair_inverse
        z = DIAG_SPACE.z
        with pytest.raises(ValueError, match="not a product of supported factors"):
            FactoredCoeff.from_scalar(DIAG_SPACE, DIAG_SPACE.ctx.one() / (z(0) + sign * z(1)))


_DIAG_T = DIAG_SPACE.base.param("t")
_BASE_SCALARS = st.sampled_from(
    [Fraction(0), Fraction(-3, 2), _DIAG_T, _DIAG_T * _DIAG_T - 3, 2 * _DIAG_T + 1]
)
_DIAG_ZEXPS = st.tuples(*(st.integers(0, 2) for _ in range(DIAG_SPACE.nvars)))
_DIAG_PAIRS = st.dictionaries(st.sampled_from(sorted(DIAG_SPACE._pair_polys)), st.integers(0, 2))


def _unreduced(poly, num_zexp, num_pairs, zexp, pairs):
    """poly times the given z and pair factors over the given denominator."""
    for q, m in enumerate(num_zexp):
        poly = poly.shift_var(DIAG_SPACE.zvar(q), m)
    for key, m in num_pairs.items():
        poly = poly * DIAG_SPACE.pair_poly(*key) ** m
    return FactoredCoeff(DIAG_SPACE, poly, zexp, pairs)


# numerators share factors with the denominator, as unreduced results do
_COEFFS = st.builds(_unreduced, _DIAG_POLYS, _DIAG_ZEXPS, _DIAG_PAIRS, _DIAG_ZEXPS, _DIAG_PAIRS)
_ORDERED_PAIRS = st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j])


def assert_same_coeff(got, want):
    assert (got.num, got.zexp, got.pairs) == (want.num, want.zexp, want.pairs)


def assert_same_value(got, want):
    """got and want are equal rational functions: cross-multiplied over the
    common denominator by ``_unreduced_sum``, not by ``FactoredCoeff.__add__``."""
    assert _unreduced_sum(got, -want).is_zero()


def _unreduced_sum(fa, fb):
    """fa + fb over the least common multiple of the two denominators, unreduced."""
    zexp = tuple(map(max, fa.zexp, fb.zexp))
    keys = fa.pairs.keys() | fb.pairs.keys()
    pairs = {k: max(fa.pairs.get(k, 0), fb.pairs.get(k, 0)) for k in keys}
    num = DIAG_SPACE.ctx.poly_const(0)
    for fc in (fa, fb):
        part = fc.num
        for q, e in enumerate(zexp):
            part = part.shift_var(DIAG_SPACE.zvar(q), e - fc.zexp[q])
        for key, e in pairs.items():
            part = part * DIAG_SPACE.pair_poly(*key) ** (e - fc.pairs.get(key, 0))
        num = num + part
    return FactoredCoeff(DIAG_SPACE, num, zexp, pairs)


def _unreduced_derivative(fc, q):
    """d/dz_q of fc over its denominator times z_q and every pair through q, unreduced."""
    through = [key for key in fc.pairs if q in key]

    def pair_product(skip=None):
        out = DIAG_SPACE.ctx.poly_const(1)
        for key in through:
            if key != skip:
                out = out * DIAG_SPACE.pair_poly(*key)
        return out

    zq = DIAG_SPACE.ctx.poly_param(DIAG_SPACE.var_names[q])
    num = (fc.num.derivative(DIAG_SPACE.var_names[q]) * zq - fc.num * fc.zexp[q]) * pair_product()
    for key in through:
        sigma = 1 if q == key[0] else -1
        num = num - fc.num * zq * pair_product(key) * (sigma * fc.pairs[key])
    zexp = fc.zexp[:q] + (fc.zexp[q] + 1,) + fc.zexp[q + 1 :]
    pairs = {key: e + (key in through) for key, e in fc.pairs.items()}
    return FactoredCoeff(DIAG_SPACE, num, zexp, pairs)


class TestReductionRoutes:
    """Each operation against the same result rebuilt by hand over its own
    denominator, compared by value, and the reduction oracle
    ``normalized_by_exact_div`` against the coefficient it reduces."""

    @settings(max_examples=150, deadline=None)
    @given(_COEFFS)
    def test_normalized_against_exact_div(self, fc):
        assert_same_value(normalized_by_exact_div(fc), fc)

    @settings(max_examples=100, deadline=None)
    @given(_COEFFS, _COEFFS, st.booleans())
    def test_add(self, fa, g, cancel):
        # with cancel the second summand is g - fa, so the sum is g and most
        # of the common denominator cancels against its numerator
        fb = _unreduced_sum(-fa, g) if cancel else g
        assert_same_value(fa + fb, _unreduced_sum(fa, fb))

    @settings(max_examples=100, deadline=None)
    @given(_COEFFS, _COEFFS)
    def test_mul(self, fa, fb):
        zexp = tuple(a + b for a, b in zip(fa.zexp, fb.zexp))
        keys = fa.pairs.keys() | fb.pairs.keys()
        pairs = {k: fa.pairs.get(k, 0) + fb.pairs.get(k, 0) for k in keys}
        assert_same_value(fa * fb, FactoredCoeff(DIAG_SPACE, fa.num * fb.num, zexp, pairs))

    @settings(max_examples=100, deadline=None)
    @given(_COEFFS, st.integers(0, 2))
    def test_derivative_z(self, fc, q):
        assert_same_value(fc.derivative_z(q), _unreduced_derivative(fc, q))

    @settings(max_examples=100, deadline=None)
    @given(_COEFFS, _BASE_SCALARS)
    def test_mul_base(self, fc, c):
        num = fc.num * FactoredCoeff.from_scalar(DIAG_SPACE, c).num
        assert_same_value(fc.mul_base(c), FactoredCoeff(DIAG_SPACE, num, fc.zexp, fc.pairs))

    @settings(max_examples=100, deadline=None)
    @given(_COEFFS, st.integers(0, 2), st.integers(-3, 3))
    def test_shift_z(self, fc, q, k):
        num, zexp = fc.num, list(fc.zexp)
        if k >= 0:
            num = num.shift_var(DIAG_SPACE.zvar(q), k)
        else:
            zexp[q] -= k
        assert_same_value(fc.shift_z(q, k), FactoredCoeff(DIAG_SPACE, num, zexp, fc.pairs))

    @settings(max_examples=100, deadline=None)
    @given(_COEFFS, _ORDERED_PAIRS)
    def test_mul_pair_inverse(self, fc, ij):
        i, j = ij
        key = (min(ij), max(ij))
        pairs = dict(fc.pairs)
        pairs[key] = pairs.get(key, 0) + 1
        num = fc.num if i < j else -fc.num
        assert_same_value(fc.mul_pair_inverse(i, j), FactoredCoeff(DIAG_SPACE, num, fc.zexp, pairs))

    @settings(max_examples=100, deadline=None)
    @given(_COEFFS, st.integers(0, 2), st.lists(_BASE_SCALARS, min_size=6, max_size=6))
    def test_connection_product(self, fc, q, cs):
        conn = Connection(cs[:3], {(0, 1): cs[3], (0, 2): cs[4], (1, 2): cs[5]})
        gamma = conn.gamma(DIAG_SPACE, q)
        assert conn.gamma(DIAG_SPACE, q) is gamma
        assert_same_value(fc * gamma, connection_times(conn, fc, q))

    @pytest.mark.parametrize("make", [
        lambda space: space.z(0),
        lambda space: 1 / (space.base.param("k1") + 1),
    ], ids=["z-dependent", "parameter-denominator"])
    def test_mul_base_rejects_what_is_not_a_base_polynomial(self, make):
        # z factors go through shift_z, and a FactoredCoeff has no place for
        # a parameter denominator
        space = make_space(1)
        c = make(space)
        one = FactoredCoeff(space, space.ctx.poly_const(1))
        with pytest.raises(ValueError, match=re.escape(str(c))):
            one.mul_base(c)


def _sympy_poly(poly, sympy):
    """A ParamPolynomial as a sympy Poly in its context's names, read from its
    exponent tuples."""
    gens = sympy.symbols(poly.context.names)
    terms = {exp: sympy.Rational(c.numerator, c.denominator) for exp, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens, domain="QQ")


def _sympy_coeff(fc, sympy):
    """A FactoredCoeff over DIAG_SPACE as a (numerator, denominator) pair of
    sympy polynomials."""
    gens = sympy.symbols(DIAG_SPACE.ctx.names)
    zs = [sympy.Poly(z, *gens) for z in gens[DIAG_SPACE.zvar(0):]]
    num, den = _sympy_poly(fc.num, sympy), sympy.Poly(1, *gens, domain="QQ")
    for z, e in zip(zs, fc.zexp):
        num, den = (num, den * z**e) if e >= 0 else (num * z**-e, den)
    for (i, j), e in fc.pairs.items():
        den = den * (zs[i] - zs[j]) ** e
    return num, den


def assert_sympy_equal(ours, theirs):
    """Two (numerator, denominator) pairs are equal rational functions:
    cross-multiplied, with no gcd."""
    (a, b), (c, d) = ours, theirs
    assert (a * d - b * c).is_zero


def _sympy_base(c, sympy):
    """A base scalar of DIAG_SPACE, a rational or a ParamScalar in t, in sympy."""
    if not isinstance(c, ParamScalar):
        return sympy.Rational(c.numerator, c.denominator)
    return _sympy_poly(c.num, sympy).as_expr() / _sympy_poly(c.den, sympy).as_expr()


class TestRationalKernelAgainstSympy:
    """The rational kernel against sympy, which shares no code with it: each
    `FactoredCoeff` operation and one `RationalForm.d` coefficient on random
    coefficients with z and pair denominators, against the textbook rule on
    numerator and denominator."""

    @settings(max_examples=40, deadline=None)
    @given(_COEFFS, _COEFFS)
    def test_add_and_mul(self, fa, fb):
        sympy = pytest.importorskip("sympy")
        (na, da), (nb, db) = _sympy_coeff(fa, sympy), _sympy_coeff(fb, sympy)
        assert_sympy_equal(_sympy_coeff(fa + fb, sympy), (na * db + nb * da, da * db))
        assert_sympy_equal(_sympy_coeff(fa * fb, sympy), (na * nb, da * db))

    @settings(max_examples=40, deadline=None)
    @given(_COEFFS, st.integers(0, 2), st.integers(-3, 3), _ORDERED_PAIRS)
    def test_shift_pair_inverse_and_derivative(self, fc, q, k, ij):
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols(DIAG_SPACE.ctx.names)
        zs = [sympy.Poly(z, *gens) for z in gens[DIAG_SPACE.zvar(0):]]
        zq = gens[DIAG_SPACE.zvar(q)]
        n, d = _sympy_coeff(fc, sympy)
        i, j = ij
        shifted = (n * zs[q] ** k, d) if k >= 0 else (n, d * zs[q] ** -k)
        assert_sympy_equal(_sympy_coeff(fc.shift_z(q, k), sympy), shifted)
        assert_sympy_equal(_sympy_coeff(fc.mul_pair_inverse(i, j), sympy), (n, d * (zs[i] - zs[j])))
        want = (n.diff(zq) * d - n * d.diff(zq), d * d)
        assert_sympy_equal(_sympy_coeff(fc.derivative_z(q), sympy), want)

    @settings(max_examples=30, deadline=None)
    @given(_COEFFS, _ORDERED_PAIRS, st.lists(_BASE_SCALARS, min_size=6, max_size=6))
    def test_differential_coefficient(self, fc, qs, cs):
        # d(f dz_s) at dz_q ^ dz_s is (df/dz_q + Gamma_q f), with
        # Gamma_q = kappa_q/z_q + sum_j kappa_qj/(z_q - z_j), signed by the sort
        sympy = pytest.importorskip("sympy")
        q, s = qs
        gens = sympy.symbols(DIAG_SPACE.ctx.names)
        zs = gens[DIAG_SPACE.zvar(0):]
        pairs = {(0, 1): cs[3], (0, 2): cs[4], (1, 2): cs[5]}
        conn = Connection(cs[:3], pairs)
        gamma = _sympy_base(cs[q], sympy) / zs[q] + sum(
            _sympy_base(c, sympy) / (zs[q] - zs[j if q == i else i])
            for (i, j), c in pairs.items() if q in (i, j))
        gn, gd = (sympy.Poly(x, *gens, domain="QQ") for x in sympy.fraction(sympy.together(gamma)))
        n, d = _sympy_coeff(fc, sympy)
        sign = 1 if q < s else -1
        want = (((n.diff(zs[q]) * d - n * d.diff(zs[q])) * gd + gn * n * d) * sign, d * d * gd)
        got = RationalForm(DIAG_SPACE, {(s,): fc}).d(conn).terms.get(tuple(sorted(qs)))
        got = FactoredCoeff.zero(DIAG_SPACE) if got is None else got
        assert_sympy_equal(_sympy_coeff(got, sympy), want)


def graded_commutator_with_d(form, fields, conn):
    """(d i_{x_1..x_a}) form = d(i...form) - (-1)^a i...(d form)."""
    a = len(fields)
    inner = form
    for f in reversed(fields):
        inner = inner.contract(f)
    first = inner.d(conn)
    dform = form.d(conn)
    for f in reversed(fields):
        dform = dform.contract(f)
    return first - ((-1) ** a) * dform


def multi_contraction_expansion(form, fields, conn, side):
    """Both displayed expansions of d composed with an iterated contraction."""
    a = len(fields)
    total = None
    for p in range(a):
        rest = fields[:p] + fields[p + 1 :]
        inner = form
        for f in reversed(rest):
            inner = inner.contract(f)
        if side == "left":
            t = inner.lie(fields[p], conn)
        else:
            t = form.lie(fields[p], conn)
            for f in reversed(rest):
                t = t.contract(f)
        if p % 2:
            t = -1 * t
        total = t if total is None else total + t
    for p in range(a):
        for q in range(p + 1, a):
            rest = [fields[p].bracket(fields[q])] + [fields[r] for r in range(a) if r not in (p, q)]
            t = form
            for f in reversed(rest):
                t = t.contract(f)
            sign = (-1) ** (p + q) if side == "left" else (-1) ** (p + q + 1)
            total = total + sign * t
    return total


class TestMultiContraction:
    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_d_of_iterated_contraction_expands(self, a, side):
        rng = random.Random(100 + a)
        space = make_space(3)
        conn = generic_connection(space)
        fields = [random_witt(rng) for _ in range(a)]
        form = random_form(space, 2, rng) + random_form(space, 3, rng)
        lhs = graded_commutator_with_d(form, fields, conn)
        rhs = multi_contraction_expansion(form, fields, conn, side)
        assert lhs == rhs

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_closed_top_form_links_consecutive_contraction_cochains(self, a):
        # With a closed value form, the Koszul differential of the depth-(a-1)
        # cochain equals the value-wise differential of the depth-a cochain.
        rng = random.Random(200 + a)
        space = make_space(3)
        conn = generic_connection(space)
        omega = random_form(space, 3, rng)  # top degree: automatically closed
        assert omega.d(conn).is_zero()
        fields = [random_witt(rng) for _ in range(a)]

        def cochain(xs):
            out = omega
            for x in reversed(xs):
                out = out.contract(x)
            return out

        lhs = koszul_value(
            cochain,
            fields,
            action=lambda x, rest: cochain(rest).lie(x, conn),
            bracket=lambda x, y: x.bracket(y),
        )
        rhs = cochain(fields).d(conn)
        assert lhs == rhs

    def test_koszul_squares_to_zero(self):
        rng = random.Random(301)
        space = make_space(2)
        conn = generic_connection(space)
        base = random_form(space, 2, rng)

        def one_cochain(xs):
            return base.contract(xs[0])

        def two_cochain(xs):
            return koszul_value(
                one_cochain,
                xs,
                action=lambda x, rest: one_cochain(rest).lie(x, conn),
                bracket=lambda x, y: x.bracket(y),
            )

        fields = [random_witt(rng) for _ in range(3)]
        out = koszul_value(
            two_cochain,
            fields,
            action=lambda x, rest: two_cochain(rest).lie(x, conn),
            bracket=lambda x, y: x.bracket(y),
        )
        assert out.is_zero()


# ---------------------------------------------------------------------------
# Laurent layer, cross-checked against the rational layer


def mirror_rational(space, lform):
    """Lift a rational-valued LaurentForm into the exact rational layer."""
    terms = {}
    for (subset, exps), value in lform.terms.items():
        coeff = space.lift(value)
        for q, e in enumerate(exps):
            coeff = coeff * space.z(q) ** e
        terms[subset] = terms.get(subset, space.ctx.zero()) + coeff
    return RationalForm(space, terms)


def laurent_expansion(space, form):
    """(subset, z-exponents) -> Fraction, for pure Laurent coefficients."""
    out = {}
    for subset, coeff in form.terms.items():
        for zexps, frac in laurent_terms(coeff).items():
            key = (subset, zexps)
            out[key] = out.get(key, Fraction(0)) + frac
    return {k: v for k, v in out.items() if v}


def rational_map(lform):
    out = {}
    for key, value in lform.terms.items():
        assert value.is_rational()
        out[key] = value.as_fraction()
    return out


def assert_matches(got, want_map):
    """got equals want_map term for term; returns the count compared.  A form
    built from a Laurent polynomial is exact on every degree."""
    assert rational_map(got) == want_map
    return len(want_map)


def random_laurent(base, nvars, rng, degree=None):
    terms = {}
    for _ in range(rng.randint(2, 5)):
        size = rng.randint(0, nvars) if degree is None else degree
        subset = tuple(sorted(rng.sample(range(nvars), size)))
        exps = tuple(rng.randint(-3, 3) for _ in range(nvars))
        coeff = base.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        key = (subset, exps)
        terms[key] = terms.get(key, base.zero()) + coeff
    return LaurentForm(nvars, terms)


class TestLaurentLayer:
    def test_cleared_differential_matches_exact_layer(self):
        rng = random.Random(401)
        base = ParameterContext(("a",))
        nvars = 2
        space = FormSpace(base, nvars)
        conn = Connection([Fraction(3), Fraction(-2)], {(0, 1): Fraction(5)})
        compared = 0
        for _ in range(4):
            lform = random_laurent(base, nvars, rng)
            got = cleared_d(lform, conn)
            exact = (space.z(0) - space.z(1)) * mirror_rational(space, lform).d(conn)
            compared += assert_matches(got, laurent_expansion(space, exact))
        assert compared

    def test_cleared_differential_three_variables(self):
        rng = random.Random(419)
        base = ParameterContext(("a",))
        nvars = 3
        space = FormSpace(base, nvars)
        conn = Connection(
            [Fraction(1), Fraction(2), Fraction(-1)],
            {(0, 1): Fraction(2), (0, 2): Fraction(1), (1, 2): Fraction(3)},
        )
        lform = random_laurent(base, nvars, rng)
        got = cleared_d(lform, conn)
        delta = (
            (space.z(0) - space.z(1))
            * (space.z(0) - space.z(2))
            * (space.z(1) - space.z(2))
        )
        exact = delta * mirror_rational(space, lform).d(conn)
        assert assert_matches(got, laurent_expansion(space, exact))

    def test_contraction_matches_exact_layer(self):
        rng = random.Random(433)
        base = ParameterContext(("a",))
        nvars = 2
        space = FormSpace(base, nvars)
        compared = 0
        for _ in range(4):
            lform = random_laurent(base, nvars, rng, degree=2)
            tau = random_witt(rng)
            got = lform.contract(tau)
            want = mirror_rational(space, lform).contract(tau)
            compared += assert_matches(got, laurent_expansion(space, want))
        assert compared

    def test_contraction_by_a_zero_field_is_exactly_zero(self):
        ctx = ParameterContext(())
        form = LaurentForm(1, {((0,), (0,)): ctx.scalar(1)})
        assert form.contract(WittElement({})).terms == {}

    def test_window_moves_under_derivative_shift_and_pair_factor(self):
        # a family window moves with the degrees: each operation moves every
        # term's total degree by the same amount, whatever its exponents
        ctx = ParameterContext(())
        form = LaurentForm(2, {((), (0, 2)): ctx.scalar(1), ((0,), (-3, 1)): ctx.scalar(2)})
        degrees = lambda f: {sum(exps) for _, exps in f.terms}  # noqa: E731
        assert degrees(form) == {2, -2}
        assert degrees(form.deriv(1)) == {1, -3}
        assert degrees(form.shift(0, 3)) == {5, 1}
        assert degrees(form.mul_zdiff(0, 1)) == {3, -1}
        assert degrees(form.mul_zdiff(0, 1).shift(1, -2)) == {1, -3}
        # a constant has no derivative term
        assert LaurentForm(1, {((), (0,)): ctx.scalar(1)}).deriv(0).terms == {}

    def test_clear_pairs_is_identity_without_active_pairs(self):
        # the total-complex rows clear d' with the same call for every family
        ctx = ParameterContext(("t",))
        form = LaurentForm(2, {((0,), (1, -1)): ctx.param("t")})
        for conn in (
            Connection([Fraction(1), Fraction(2)]),
            Connection([Fraction(1), Fraction(2)], {(0, 1): ctx.zero()}),
        ):
            assert clear_pairs(form, conn).terms == form.terms

    @pytest.mark.parametrize("op", [cleared_d, clear_pairs], ids=lambda op: op.__name__)
    def test_form_and_connection_must_share_their_variables(self, op):
        # more variables than exponents used to escape as an IndexError from
        # cleared_d, and fewer silently ignored the extra exponents
        with pytest.raises(ValueError, match="form has 2 variables, connection 1"):
            op(LaurentForm(2, {((), (1, 0)): 1}), Connection([1]))
        with pytest.raises(ValueError, match="form has 1 variables, connection 2"):
            op(LaurentForm(1, {((), (1,)): 1}), Connection([1, 5]))
        with pytest.raises(ValueError, match="form has 1 variables, connection 2"):
            op(LaurentForm(1, {((), (1,)): 1}), Connection([1, 5], {(0, 1): 3}))

    def test_map_values_acts_on_every_value(self):
        ctx = ParameterContext(())
        terms = {((), (0, 0)): ctx.scalar(1), ((0,), (4, -3)): ctx.scalar(2),
                 ((0, 1), (-1, -3)): ctx.scalar(4)}
        seen = []

        def fn(v):
            seen.append(v)
            return Fraction(5) * v

        out = LaurentForm(2, terms).map_values(fn)
        assert sorted(seen, key=repr) == sorted(terms.values(), key=repr)
        assert out.terms == {key: Fraction(5) * v for key, v in terms.items()}

    def test_zero_test_reads_every_term(self):
        ctx = ParameterContext(())
        assert LaurentForm(1, {((), (5,)): ctx.zero()}).is_zero()
        assert not LaurentForm(1, {((), (5,)): ctx.scalar(1)}).is_zero()
        f = LaurentForm(2, {((), (4, -3)): ctx.scalar(1)})
        assert (f - f).is_zero() and not (f + f).is_zero()


class TestOnePassClearing:
    """cleared_d and clear_pairs build each row in one dict; the stepwise
    oracles build one intermediate form per step.  Both must give the same
    range and the same terms."""

    @staticmethod
    def random_form(ctx, nvars, rng):
        t = ctx.param("t")
        terms = {}
        for _ in range(rng.randint(1, 6)):
            subset = tuple(sorted(rng.sample(range(nvars), rng.randint(0, nvars))))
            exps = tuple(rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(nvars))
            terms[(subset, exps)] = rng.choice((ctx.one(), -ctx.one(), ctx.scalar(Fraction(2, 3)))) + (
                rng.randint(-2, 2) * t)
        return LaurentForm(nvars, terms)

    @staticmethod
    def connections(ctx, nvars):
        """All pairs, pairs dropped (absent or zero), kappa symbolic, rational and zero."""
        t = ctx.param("t")
        pairs = [(i, j) for i in range(nvars) for j in range(i + 1, nvars)]
        kappas = [[t + q for q in range(nvars)], [Fraction(-1 - q) for q in range(nvars)],
                  [ctx.zero()] * nvars, [0] + [2 * t] * (nvars - 1)]
        pair_sets = [{p: t - 1 for p in pairs}, {p: Fraction(2) for p in pairs[1:]},
                     {p: (ctx.zero() if n == 0 else t * n) for n, p in enumerate(pairs)}, {}]
        return [Connection(k, ps) for k in kappas for ps in pair_sets]

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_cleared_d_and_clear_pairs_match_the_stepwise_route(self, nvars):
        ctx = ParameterContext(("t",))
        rng = random.Random(500 + nvars)
        for conn in self.connections(ctx, nvars):
            for _ in range(4):
                form = self.random_form(ctx, nvars, rng)
                active = len(conn.active_pairs())
                degrees = {sum(exps) for _, exps in form.terms}
                for got, want, shift in (
                        (cleared_d(form, conn), cleared_d_stepwise(form, conn), active - 1),
                        (clear_pairs(form, conn), clear_pairs_stepwise(form, conn), active)):
                    assert {sum(exps) - shift for _, exps in got.terms} <= degrees
                    assert got.terms == want.terms

    def test_window_moves_whatever_pieces_exist(self):
        # kappa_q = 0 at e_q = 0: no derivative piece; whichever pieces exist,
        # each moves the degree by |Delta| - 1, as for any other connection
        ctx = ParameterContext(("t",))
        form = LaurentForm(2, {((1,), (0, 1)): ctx.param("t"), ((1,), (2, 1)): ctx.one()})
        for conn, degrees in ((Connection([0, 1]), {2}), (Connection([1, 1]), {0, 2}),
                              (Connection([0, 1], {(0, 1): ctx.param("t")}), {1, 3})):
            got, want = cleared_d(form, conn), cleared_d_stepwise(form, conn)
            assert {sum(exps) for _, exps in got.terms} == degrees
            assert got.terms == want.terms
        only = LaurentForm(2, {((1,), (0, 1)): ctx.param("t")})
        assert cleared_d(only, Connection([0, 1])).terms == {}

    def test_mul_zdiff_matches_the_stepwise_route(self):
        ctx = ParameterContext(("t",))
        rng = random.Random(541)
        for nvars in (2, 3):
            form = self.random_form(ctx, nvars, rng)
            for i, j in ((0, 1), (1, 0), (0, nvars - 1)):
                got, want = form.mul_zdiff(i, j), mul_zdiff_stepwise(form, i, j)
                assert got.terms == want.terms


class TestNegatedCopies:
    """A negative term whose key is already in the accumulator is subtracted in
    place, as ``Combination._combine`` does; only a key first reached by a
    negative term holds a negated copy of a vector value."""

    @pytest.fixture
    def negations(self, monkeypatch):
        calls = []
        neg = Combination.__neg__
        monkeypatch.setattr(Combination, "__neg__", lambda v: calls.append(v) or neg(v))
        return calls

    @pytest.fixture
    def vectors(self):
        ctx = ParameterContext(("lam",))
        vac = FockSpace(OscSpec(ctx, has_pair=False), ctx.param("lam")).vacuum()
        return vac, ctx.param("lam") * vac

    def test_contract(self, negations, vectors):
        u, w = vectors
        form = LaurentForm(2, {((0, 1), (0, 0)): u, ((0, 1), (1, 0)): w})
        # monomials -z and -z^2; dz_1 sits at an even position, so its terms are negative
        got = form.contract(WittElement({0: 1, 1: 1}))
        # four negative terms on three keys: (2, 0) is reached twice
        assert len(negations) == 3
        assert got.terms[((1,), (2, 0))] == -(u + w)
        assert got.terms[((1,), (1, 0))] == -u and got.terms[((1,), (3, 0))] == -w
        assert got.terms[((0,), (0, 1))] == u and got.terms[((0,), (1, 2))] == w
        assert len(got.terms) == 7

    def test_clear_pairs(self, negations, vectors):
        u, w = vectors
        form = LaurentForm(2, {((), (0, 1)): u, ((), (1, 0)): w})
        # Delta = z1 - z2: w's -z2 term lands on (1, 1), which u's z1 term made
        got = clear_pairs(form, Connection([0, 0], {(0, 1): 1}))
        assert len(negations) == 1
        assert got.terms == {((), (1, 1)): u - w, ((), (0, 2)): -u, ((), (2, 0)): w}


class TestCochainAssembly:
    def test_parity_twist(self):
        ctx = ParameterContext(())
        omega = LaurentForm(1, {((0,), (0,)): ctx.scalar(1)})
        tau = WittElement.basis(1)  # contraction inserts -z^2
        plain = omega.contract(tau)
        twisted = contraction_cochain(omega, [tau])
        assert [v.as_fraction() for v in plain.terms.values()] == [Fraction(-1)]
        assert [v.as_fraction() for v in twisted.terms.values()] == [Fraction(1)]
        # depth 3: twist is +1, so plain and twisted agree on a nonzero value
        omega3 = LaurentForm(3, {((0, 1, 2), (0, 0, 0)): ctx.scalar(1)})
        fields = [WittElement.basis(n) for n in (0, 1, 2)]
        a = omega3
        for field in reversed(fields):
            a = a.contract(field)
        b = contraction_cochain(omega3, fields)
        assert not a.is_zero()
        assert (a - b).is_zero()


class TestOneVariableCohomology:
    def test_kernel_witness_is_closed_in_laurent_layer(self):
        ctx = ParameterContext(())
        conn = Connection([Fraction(-3)])
        witness = LaurentForm(1, {((), (3,)): ctx.scalar(1)})
        assert cleared_d(witness, conn).is_zero()
        non_witness = LaurentForm(1, {((), (2,)): ctx.scalar(1)})
        assert not cleared_d(non_witness, conn).is_zero()

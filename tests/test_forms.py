"""Twisted-form calculus: flatness, Cartan identities, window bookkeeping.

The exact rational layer serves as the oracle for the windowed Laurent layer:
both implement the same twisted differential, so cleared-denominator results
are compared term by term against Delta times the closed-form answer.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from screenops.scalars import ParameterContext, ParamPolynomial
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

from oracles import laurent_terms


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
    import itertools

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


class TestRationalLayer:
    def test_twisted_differential_squares_to_zero(self):
        rng = random.Random(7)
        space = make_space(3)
        conn = generic_connection(space)
        for degree in (0, 1):
            form = random_form(space, degree, rng)
            assert form.d(conn).d(conn).is_zero()

    def test_untwisted_matches_connectionless(self):
        rng = random.Random(11)
        space = make_space(2)
        zero_conn = Connection([0, 0])
        form = random_form(space, 0, rng)
        assert form.d() == form.d(zero_conn)

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


class TestPairDivisibility:
    """The substitution test z_i = z_j against exact division by z_i - z_j."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(DIAG_SPACE._pair_polys)),
        st.integers(0, 3),
        _DIAG_POLYS,
        st.one_of(
            st.none(),
            _DIAG_POLYS,
            st.tuples(st.integers(-2, 2), st.integers(-2, 2), _DIAG_POLYS),
        ),
    )
    def test_substitution_agrees_with_exact_div(self, key, k, r, perturbation):
        pp = DIAG_SPACE.pair_poly(*key)
        poly = pp**k * r
        if isinstance(perturbation, tuple):
            # (a z_i + b z_j) m maps to (a + b) z_j m: no image term has one preimage
            a, b, m = perturbation
            zi, zj = (DIAG_SPACE.ctx.poly_param(DIAG_SPACE.var_names[q]) for q in key)
            perturbation = (zi * a + zj * b) * m
        if perturbation is not None:
            poly = poly + perturbation
        try:
            quotient = poly.exact_div(pp)
        except ValueError:
            divisible = False
        else:
            divisible = True
            assert quotient * pp == poly
        assert DIAG_SPACE.pair_divides(key, poly) == divisible
        if k and perturbation is None:
            assert divisible

    def test_from_scalar_counts_pair_factors(self):
        z = DIAG_SPACE.z
        t = DIAG_SPACE.ctx.param("t")
        value = t / ((z(0) - z(1)) ** 2 * (z(2) - z(1)) * z(2))
        fc = FactoredCoeff.from_scalar(DIAG_SPACE, value)
        assert fc.pairs == {(0, 1): 2, (1, 2): 1}
        assert fc.zexp == (0, 0, 1)
        assert fc.num == (-t).num

    def test_from_scalar_rejects_unsupported_denominator(self):
        z = DIAG_SPACE.z
        with pytest.raises(ValueError, match="not a product of supported factors"):
            FactoredCoeff.from_scalar(DIAG_SPACE, DIAG_SPACE.ctx.one() / (z(0) + z(1)))


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
# windowed Laurent layer, cross-checked against the rational layer


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


def windowed_map(lform):
    out = {}
    for subset, exps, value in lform.nonzero_terms():
        assert value.is_rational()
        out[(subset, exps)] = value.as_fraction()
    return out


def assert_matches_within_window(got, want_map):
    from screenops.forms import _in_window

    got_map = windowed_map(got)
    for key, val in got_map.items():
        assert want_map.get(key, Fraction(0)) == val, key
    for key, val in want_map.items():
        if _in_window(key[1], got.window):
            assert got_map.get(key, Fraction(0)) == val, key


def random_laurent(base, nvars, rng, degree=None):
    terms = {}
    for _ in range(rng.randint(2, 5)):
        size = rng.randint(0, nvars) if degree is None else degree
        subset = tuple(sorted(rng.sample(range(nvars), size)))
        exps = tuple(rng.randint(-3, 3) for _ in range(nvars))
        coeff = base.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        key = (subset, exps)
        terms[key] = terms.get(key, base.zero()) + coeff
    window = tuple((-6, 6) for _ in range(nvars))
    return LaurentForm(nvars, terms, window)


class TestLaurentLayer:
    def test_cleared_differential_matches_exact_layer(self):
        rng = random.Random(401)
        base = ParameterContext(("a",))
        nvars = 2
        space = FormSpace(base, nvars)
        conn = Connection([Fraction(3), Fraction(-2)], {(0, 1): Fraction(5)})
        for _ in range(4):
            lform = random_laurent(base, nvars, rng)
            got = cleared_d(lform, conn)
            exact = (space.z(0) - space.z(1)) * mirror_rational(space, lform).d(conn)
            assert_matches_within_window(got, laurent_expansion(space, exact))

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
        assert_matches_within_window(got, laurent_expansion(space, exact))

    def test_contraction_matches_exact_layer(self):
        rng = random.Random(433)
        base = ParameterContext(("a",))
        nvars = 2
        space = FormSpace(base, nvars)
        for _ in range(4):
            lform = random_laurent(base, nvars, rng, degree=2)
            tau = random_witt(rng)
            got = lform.contract(tau)
            want = mirror_rational(space, lform).contract(tau)
            assert_matches_within_window(got, laurent_expansion(space, want))

    def test_window_shrinks_under_derivative_and_shift(self):
        ctx = ParameterContext(())
        form = LaurentForm(1, {((), (0,)): ctx.scalar(1)}, ((-2, 2),))
        assert form.deriv(0).window == ((-3, 1),)
        assert form.shift(0, 3).window == ((1, 5),)
        form2 = LaurentForm(2, {((), (0, 0)): ctx.scalar(1)}, ((-2, 2), (-1, 4)))
        # a difference product is exact only where both shifted copies are known
        assert form2.mul_zdiff(0, 1).window == ((-1, 2), (0, 4))

    def test_addition_intersects_windows(self):
        ctx = ParameterContext(())
        f = LaurentForm(1, {((), (0,)): ctx.scalar(1)}, ((-4, 1),))
        g = LaurentForm(1, {((), (1,)): ctx.scalar(2)}, ((0, 9),))
        assert (f + g).window == ((0, 1),)

    def test_clear_pairs_is_identity_without_active_pairs(self):
        # the total-complex rows clear d' with the same call for every family
        ctx = ParameterContext(("t",))
        form = LaurentForm(2, {((0,), (1, -1)): ctx.param("t")}, ((-2, 2), (-3, 1)))
        for conn in (
            Connection([Fraction(1), Fraction(2)]),
            Connection([Fraction(1), Fraction(2)], {(0, 1): ctx.zero()}),
        ):
            out = clear_pairs(form, conn)
            assert out.terms == form.terms
            assert out.window == form.window

    def test_out_of_window_terms_ignored_by_zero_test(self):
        ctx = ParameterContext(())
        f = LaurentForm(1, {((), (5,)): ctx.scalar(1)}, ((-2, 2),))
        assert f.is_zero()
        g = LaurentForm(1, {((), (1,)): ctx.scalar(1)}, ((-2, 2),))
        assert not g.is_zero()


class TestCochainAssembly:
    def test_parity_twist(self):
        ctx = ParameterContext(())
        omega = LaurentForm(1, {((0,), (0,)): ctx.scalar(1)}, ((-5, 5),))
        tau = WittElement.basis(1)  # contraction inserts -z^2
        plain = omega.contract(tau)
        twisted = contraction_cochain(omega, [tau])
        assert plain.nonzero_terms()[0][2].as_fraction() == Fraction(-1)
        assert twisted.nonzero_terms()[0][2].as_fraction() == Fraction(1)
        # depth 3: twist is +1, so plain and twisted agree on a nonzero value
        omega3 = LaurentForm(
            3,
            {((0, 1, 2), (0, 0, 0)): ctx.scalar(1)},
            ((-5, 5),) * 3,
        )
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
        witness = LaurentForm(1, {((), (3,)): ctx.scalar(1)}, ((0, 5),))
        assert cleared_d(witness, conn).is_zero()
        non_witness = LaurentForm(1, {((), (2,)): ctx.scalar(1)}, ((0, 5),))
        assert not cleared_d(non_witness, conn).is_zero()

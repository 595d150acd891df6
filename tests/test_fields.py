"""Wick-contraction engine and exact mode-action tests.

The two evaluation routes (symbolic pairing expansion vs direct mode
application on Fock vectors) are independent implementations; their
agreement through the residue formula is the load-bearing cross-check.
"""

import itertools
import re
from fractions import Fraction

import pytest

from screenops import fields
from screenops.scalars import ParameterContext
from screenops.fock import FockSpace, FockVector, OscSpec, is_annihilator, osc_apply
from screenops.fields import (
    FieldExpr,
    UnsupportedPairingError,
    _mode_sums,
    apply_field_coeff,
    apply_vertex,
    mode_of_field,
    ope_bracket_action,
    p_field,
    stress_tensor,
    vertex_creation_coeff,
    wick_ope,
)
from screenops.wakimoto import AffineParams, wakimoto_current, wakimoto_space
from screenops.wakimoto_screenings import screening_ops

from oracles import vertex_creation_stepwise

QQ = Fraction


@pytest.fixture
def boson():
    ctx = ParameterContext(("alpha", "alpha0", "b"))
    spec = OscSpec(ctx, has_pair=False)
    return ctx, FockSpace(spec, ctx.param("alpha"))


@pytest.fixture
def charged():
    ctx = ParameterContext(("lam", "nu"))
    spec = OscSpec(ctx, has_pair=True)
    return ctx, FockSpace(spec, ctx.param("lam"))


def sc(expr: FieldExpr):
    """Extract the scalar part of a pure-scalar expression."""
    assert list(expr.terms) == [(None, ())]
    return expr.terms[(None, ())]


class TestExpressionAlgebra:
    def test_normal_product_is_commutative_and_sorted(self, charged):
        ctx, F = charged
        left = FieldExpr.field(ctx, "beta") * FieldExpr.field(ctx, "gamma")
        right = FieldExpr.field(ctx, "gamma") * FieldExpr.field(ctx, "beta")
        assert left == right
        assert list(left.terms) == [(None, (("beta", 0), ("gamma", 0)))]

    def test_vertex_exponents_add(self, boson):
        ctx, F = boson
        b = ctx.param("b")
        v = FieldExpr.vertex(ctx, b)
        assert (v * v).vertex_exponent() == 2 * b
        assert (v * FieldExpr.vertex(ctx, -b)) == FieldExpr.scalar(ctx, 1)

    def test_derivative_leibniz(self, boson):
        ctx, F = boson
        p = p_field(ctx)
        dpp = (p * p).derivative()
        expected = 2 * (FieldExpr.field(ctx, "p", 1) * p)
        assert dpp == expected

    def test_vertex_derivative_rule(self, boson):
        ctx, F = boson
        b = ctx.param("b")
        v = FieldExpr.vertex(ctx, b)
        assert v.derivative() == (-b) * (p_field(ctx) * v)

    def test_weight_and_charge(self, charged):
        ctx, F = charged
        assert p_field(ctx).conformal_weight() == 1
        assert FieldExpr.field(ctx, "gamma").conformal_weight() == 0
        assert FieldExpr.field(ctx, "gamma", 1).conformal_weight() == 1
        assert FieldExpr.field(ctx, "beta").charge() == -1
        assert (FieldExpr.field(ctx, "gamma") * FieldExpr.field(ctx, "beta")).charge() == 0
        with pytest.raises(ValueError):
            (p_field(ctx) + (p_field(ctx) * p_field(ctx))).conformal_weight()


class TestWickOpe:
    def test_boson_pair(self, boson):
        ctx, F = boson
        p = p_field(ctx)
        result = wick_ope(p, p)
        assert result.orders() == [2]
        assert sc(result.pole(2)) == 2

    def test_squared_boson(self, boson):
        ctx, F = boson
        p = p_field(ctx)
        pp = p * p
        result = wick_ope(pp, pp)
        assert result.orders() == [1, 2, 4]
        assert sc(result.pole(4)) == 8
        assert result.pole(2) == 8 * pp
        assert result.pole(1) == 8 * (FieldExpr.field(ctx, "p", 1) * p)

    def test_first_order_pair_signs(self, charged):
        ctx, F = charged
        g, b = FieldExpr.field(ctx, "gamma"), FieldExpr.field(ctx, "beta")
        assert sc(wick_ope(g, b).pole(1)) == 1
        assert sc(wick_ope(b, g).pole(1)) == -1
        assert wick_ope(b, b).is_regular()
        assert wick_ope(g, g).is_regular()

    def test_derivative_seeds(self, boson):
        ctx, F = boson
        p = p_field(ctx)
        dp = FieldExpr.field(ctx, "p", 1)
        assert sc(wick_ope(dp, p).pole(3)) == -4
        assert sc(wick_ope(p, dp).pole(3)) == 4

    def test_transposition_symmetry(self, boson):
        # z <-> w: coefficient of (z-w)^{-k} flips by (-1)^k after
        # re-expansion; for the weight-one boson the order-2 pole is even.
        ctx, F = boson
        p = p_field(ctx)
        assert wick_ope(p, p) == wick_ope(p, p)
        ctx2 = ParameterContext(())
        g, b = FieldExpr.field(ctx2, "gamma"), FieldExpr.field(ctx2, "beta")
        assert sc(wick_ope(g, b).pole(1)) == -sc(wick_ope(b, g).pole(1))

    def test_vertex_contraction(self, boson):
        ctx, F = boson
        b = ctx.param("b")
        p = p_field(ctx)
        v = FieldExpr.vertex(ctx, b)
        result = wick_ope(p, v)
        assert result.orders() == [1]
        assert result.pole(1) == (-2 * b) * v

    def test_double_vertex_contraction(self, boson):
        ctx, F = boson
        b = ctx.param("b")
        p = p_field(ctx)
        v = FieldExpr.vertex(ctx, b)
        result = wick_ope(p * p, v)
        assert result.pole(2) == (4 * b * b) * v
        assert result.pole(1) == (-4 * b) * (p * v)

    def test_stress_tensor_self_ope(self, boson):
        ctx, F = boson
        a0 = ctx.param("alpha0")
        T = stress_tensor(ctx, a0)
        result = wick_ope(T, T)
        c = ctx.one() - 24 * a0 * a0
        assert result.orders() == [1, 2, 4]
        assert sc(result.pole(4)) == QQ(1, 2) * c
        assert result.pole(2) == 2 * T
        assert result.pole(1) == T.derivative()

    def test_left_vertex_rejected(self, boson):
        ctx, F = boson
        v = FieldExpr.vertex(ctx, ctx.param("b"))
        with pytest.raises(UnsupportedPairingError):
            wick_ope(v, p_field(ctx))

    def test_pairing_matches_wick_seed(self, boson):
        # the fixed boson pairing of the Fock layer is the {p p} double pole
        ctx, F = boson
        p = p_field(ctx)
        assert wick_ope(p, p).pole(2) == FieldExpr.scalar(ctx, OscSpec(ctx).pairing)


class TestModeAction:
    def test_boson_field_modes(self, boson):
        ctx, F = boson
        p = p_field(ctx)
        v = F.vacuum()
        assert apply_field_coeff(p, 0, v) == -1 * osc_apply(("b", -1), v)
        alpha = ctx.param("alpha")
        assert apply_field_coeff(p, -1, v) == (-2 * alpha) * v
        # conventional mode: p_n = -b_n
        op = mode_of_field(p, -2, F)
        assert op.apply(v) == -1 * osc_apply(("b", -2), v)
        assert op.energy_shift == 2

    def test_gamma_zero_mode_creates(self, charged):
        ctx, F = charged
        g = FieldExpr.field(ctx, "gamma")
        v = F.vacuum()
        assert mode_of_field(g, 0, F).apply(v) == osc_apply(("as", 0), v)
        assert mode_of_field(g, 0, F).charge_shift == 1

    @pytest.mark.parametrize("sym", ["gamma", "beta"])
    @pytest.mark.parametrize("e", [-1, 0, 1])
    def test_charged_factor_needs_the_pair(self, boson, sym, e):
        # the same error whether the mode would create, annihilate or fall
        # outside every block (gamma at e = -1), and on the zero vector too
        ctx, F = boson
        message = re.escape("%r needs the charged pair" % ((sym, 0),))
        for vec in (F.vacuum(), F.zero()):
            with pytest.raises(ValueError, match=message):
                apply_field_coeff(FieldExpr.field(ctx, sym), e, vec)

    def test_vertex_modes(self, boson):
        ctx, F = boson
        b = ctx.param("b")
        v = F.vacuum()
        target = F.shifted(b)
        V0 = mode_of_field(FieldExpr.vertex(ctx, b), 0, F)
        assert V0.apply(v) == target.vacuum()
        Vm1 = mode_of_field(FieldExpr.vertex(ctx, b), -1, F)
        assert Vm1.apply(v) == b * osc_apply(("b", -1), target.vacuum())
        assert V0.target == target

    def test_vertex_shift_is_module_map_on_negative_half(self, boson):
        ctx, F = boson
        b = ctx.param("b")
        v = osc_apply(("b", -2), F.vacuum())
        # T-shift = vertex coefficient of z^0 restricted to the identity part:
        # compare b_{-1}-equivariance of the full vertex zero mode
        lhs = apply_vertex(b, 0, osc_apply(("b", 1), v))
        rhs = osc_apply(("b", 1), apply_vertex(b, 0, v)) - 2 * b * apply_vertex(b, -1, v)
        # [b_n, V<eps>] = 2 b V<eps+n> transcribed to raw exponents
        assert lhs == rhs

    def test_stress_tensor_vacuum_eigenvalue(self, boson):
        ctx, F = boson
        a0 = ctx.param("alpha0")
        alpha = ctx.param("alpha")
        T = stress_tensor(ctx, a0)
        L0 = mode_of_field(T, 0, F)
        v = F.vacuum()
        assert L0.apply(v) == (alpha * alpha - 2 * a0 * alpha) * v


def _direct_bracket(X, s, Y, t, vec):
    a = apply_field_coeff(X, s, apply_field_coeff(Y, t, vec))
    b = apply_field_coeff(Y, t, apply_field_coeff(X, s, vec))
    return a - b


# field -> (oscillator family, conformal weight, sign of the mode expansion)
_FIELD_MODES = {"p": ("b", 1, -1), "beta": ("a", 1, 1), "gamma": ("as", 0, 1)}
_FACTORS = [(sym, k) for sym in ("p", "beta", "gamma") for k in range(3)]


def _reference_assignments(factors, e, energy, tgt_max, has_vertex):
    """Brute force: every exponent of every factor, filtered afterwards.

    D^k X(z) with X(z) = sign * sum_n X_n z^(-n-w) has the z^eps coefficient
    sign * (-n-w)(-n-w-1)...(-n-w-k+1) X_n, where eps = -n-w-k.
    """
    ranges = []
    for sym, k in factors:
        _, w, _ = _FIELD_MODES[sym]
        ranges.append(range(-energy - w - k, tgt_max + energy - w - k + 1))
    for exps in itertools.product(*ranges):
        rest = e - sum(exps)
        if has_vertex:
            if not -energy <= rest <= tgt_max + energy:
                continue
        elif rest != 0:
            continue
        modes, coeff = [], 1
        for (sym, k), eps in zip(factors, exps):
            fam, w, sign = _FIELD_MODES[sym]
            n = -eps - w - k
            coeff *= sign
            for j in range(k):
                coeff *= -n - w - j
            modes.append((fam, n))
        if coeff:
            yield modes, (rest if has_vertex else None), coeff


def _probe_vector(space, energy):
    """A few monomials of every oscillator family; energy bound ``energy``."""
    mons = [(), (("as", 0),)]
    if energy:
        mons += [(("b", -energy),), (("a", -1), ("as", 1 - energy))]
    return FockVector(space, {mon: space.ctx.one() for mon in mons})


def _lower(modes, vec):
    """Apply the annihilation modes of ``modes`` in order."""
    for mode in modes:
        if is_annihilator(mode):
            vec = osc_apply(mode, vec)
    return vec


def _leaf_vector(space, low):
    """The vector w * (pairing alpha)^count * monomial of a leaf's
    ``(monomial, w, count)``."""
    mon, w, count = low
    zero_mode = space.spec.pairing * space.alpha
    return (w * zero_mode**count) * FockVector(space, {mon: space.ctx.one()})


class TestFactorAssignments:
    @pytest.mark.parametrize("has_vertex", [False, True])
    @pytest.mark.parametrize("length", [0, 1, 2, 3])
    def test_matches_brute_force(self, charged, has_vertex, length):
        """On each monomial of a probe vector, the search's integer sums are
        the brute-force assignments whose annihilation modes leave a nonzero
        vector, grouped under the same keys in the same order; each lowered
        vector is an integer weight times (pairing alpha)^count times one
        monomial, count being its number of b_0 factors."""
        ctx, F = charged
        shapes = list(itertools.product(_FACTORS, repeat=length))
        if length == 3:
            shapes = shapes[::23]
        compared = pruned = 0
        for factors in shapes:
            delta = sum(_FIELD_MODES[sym][1] + k for sym, k in factors)
            for e, energy in [(-3, 0), (0, 0), (0, 2), (2, 1), (-1, 3), (-3, 2)]:
                tgt_max = energy + e + delta
                if tgt_max < 0:
                    continue
                vec = _probe_vector(F, energy)
                assert vec.energy_bound() == energy
                for mon in vec.terms:
                    unit = FockVector(F, {mon: ctx.one()})
                    got = _mode_sums(factors, e, energy, tgt_max, has_vertex, mon, F.spec)
                    want = {}
                    for modes, veps, c in _reference_assignments(factors, e, energy, tgt_max,
                                                                 has_vertex):
                        low = _lower(modes, unit)
                        if low.is_zero():
                            pruned += 1  # killed: the search never visits it
                            continue
                        count = modes.count(("b", 0))
                        ((lowered, w),) = _lower([m for m in modes if m != ("b", 0)],
                                                 unit).terms.items()
                        w = w.as_fraction()
                        assert w.denominator == 1
                        w = w.numerator
                        assert _leaf_vector(F, (lowered, w, count)) == low
                        creation = tuple(m for m in modes if not is_annihilator(m))
                        key = ((lowered, veps, creation, count) if has_vertex
                               else (tuple(sorted(lowered + creation)), None, (), count))
                        want[key] = want.get(key, 0) + c * w
                    assert list(got.items()) == list(want.items()), (factors, e, energy, mon)
                    assert all(type(n) is int for n in got.values())
                    compared += len(got)
        assert compared > 0
        if length:
            assert pruned > 0

    def test_pruning_drops_only_zero_terms(self, charged):
        """apply_field_coeff equals the unpruned sum over every brute-force
        assignment, each applied in normal order from the source vector."""
        ctx, F = charged
        lam, nu = ctx.param("lam"), ctx.param("nu")
        g, b, p = (FieldExpr.field(ctx, s) for s in ("gamma", "beta", "p"))
        exprs = [
            (g * b) * (g * b) + FieldExpr.field(ctx, "beta", 1) * g * b,
            p * p * g + nu * (FieldExpr.field(ctx, "p", 1) * b) + FieldExpr.scalar(ctx, 3),
            FieldExpr.vertex(ctx, nu) * (b + p * g + FieldExpr.field(ctx, "gamma", 1)),
        ]
        vac = F.vacuum()
        probes = [
            vac,
            osc_apply(("a", -1), osc_apply(("as", 0), osc_apply(("as", 0), vac)))
            + 3 * osc_apply(("b", -1), osc_apply(("as", -1), vac)),
            osc_apply(("a", -2), osc_apply(("a", -1), osc_apply(("as", -1), vac)))
            + lam * osc_apply(("b", -2), vac),
        ]
        nonzero = 0
        for expr in exprs:
            for vec in probes:
                for e in range(-2, 2):
                    got = apply_field_coeff(expr, e, vec)
                    assert got == _unpruned_action(expr, e, vec), (expr, e, vec)
                    nonzero += not got.is_zero()
        assert nonzero > 10

    @pytest.mark.parametrize("name", ["E", "H", "F", "screen", "F-image"])
    def test_pruning_drops_only_zero_terms_on_wakimoto_fields(self, name):
        """The same oracle on the three Wakimoto currents, the screening
        current and the companion image of F at symbolic (nu, chi), on every
        monomial of the blocks with energy <= 3 and charge -2..2, e in -3..2."""
        params = AffineParams.generic()
        data = screening_ops(params)
        expr = {"screen": data.screen, "F-image": data.image("F")}.get(name)
        expr = expr or wakimoto_current(name, params)
        space = wakimoto_space(params)
        mons = [mon for energy in range(4) for charge in range(-2, 3)
                for mon in space.block_basis(energy, charge)]
        nonzero = 0
        for mon in mons:
            vec = FockVector(space, {mon: params.ctx.one()})
            for e in range(-3, 3):
                got = apply_field_coeff(expr, e, vec)
                assert got == _unpruned_action(expr, e, vec), (name, mon, e)
                nonzero += not got.is_zero()
        assert len(mons) > 60 and nonzero > len(mons)


def _unpruned_action(expr, e, vec):
    """The z^e coefficient of expr on vec as the sum over every brute-force
    assignment, each applied in normal order from the source vector."""
    energy = vec.energy_bound()
    target = vec.space.shifted(expr.vertex_exponent())
    want = target.zero()
    for (tmu, factors), coeff in expr.terms.items():
        tgt_max = energy + e + sum(_FIELD_MODES[sym][1] + k for sym, k in factors)
        if tgt_max < 0:
            continue
        for modes, veps, c in _reference_assignments(factors, e, energy, tgt_max,
                                                     tmu is not None):
            low = _lower(modes, vec)
            term = (FockVector(target, low.terms) if veps is None
                    else apply_vertex(tmu, veps, low))
            for mode in modes:
                if not is_annihilator(mode):
                    term = osc_apply(mode, term)
            want = want + (coeff * c) * term
    return want


class TestOpeModeCrossCheck:
    def test_boson_pairs(self, boson):
        ctx, F = boson
        a0 = ctx.param("alpha0")
        b = ctx.param("b")
        p = p_field(ctx)
        T = stress_tensor(ctx, a0)
        V = FieldExpr.vertex(ctx, b)
        probes = [
            F.vacuum(),
            osc_apply(("b", -1), F.vacuum()),
            osc_apply(("b", -2), osc_apply(("b", -1), F.vacuum())),
        ]
        pairs = [(p, p), (p, T), (T, T), (p, V), (T, V)]
        for X, Y in pairs:
            ope = wick_ope(X, Y)
            for s in range(-3, 2):
                for t in range(-3, 2):
                    for vec in probes:
                        via_ope = ope_bracket_action(ope, s, t, vec)
                        direct = _direct_bracket(X, s, Y, t, vec)
                        assert (via_ope - direct).is_zero(), (X, Y, s, t)

    def test_charged_pairs(self, charged):
        ctx, F = charged
        g, b = FieldExpr.field(ctx, "gamma"), FieldExpr.field(ctx, "beta")
        gb = g * b
        probes = [
            F.vacuum(),
            osc_apply(("as", 0), F.vacuum()),
            osc_apply(("a", -1), osc_apply(("as", 0), osc_apply(("as", 0), F.vacuum()))),
        ]
        pairs = [(g, b), (b, g), (gb, gb), (b, gb), (gb, g)]
        for X, Y in pairs:
            ope = wick_ope(X, Y)
            for s in range(-3, 2):
                for t in range(-3, 2):
                    for vec in probes:
                        via_ope = ope_bracket_action(ope, s, t, vec)
                        direct = _direct_bracket(X, s, Y, t, vec)
                        assert (via_ope - direct).is_zero(), (X, Y, s, t)


class TestRender:
    def test_render_round_trip(self, boson):
        ctx, F = boson
        result = wick_ope(p_field(ctx), p_field(ctx))
        assert result.render() == "2/(z-w)^2"
        reg = wick_ope(FieldExpr.field(ctx, "p", 0), FieldExpr.scalar(ctx, 1))
        assert reg.render() == "regular"


class TestAnnihilatorPrefixes:
    def test_every_annihilation_removes_a_held_mode(self, charged, monkeypatch):
        """Every annihilation the search performs (each reads its bracket
        value from OscSpec.contraction; b_0 aside) removes a mode that the
        monomial holds, so none kills it, while the brute-force assignments
        do try modes whose partner is missing."""
        ctx, F = charged
        g, b = FieldExpr.field(ctx, "gamma"), FieldExpr.field(ctx, "beta")
        expr = (g * b) * (g * b) + FieldExpr.field(ctx, "beta", 1) * g * b
        vec = osc_apply(("a", -2), osc_apply(("a", -1), osc_apply(("as", -1), F.vacuum())))
        (mon,) = vec.terms
        applied = []
        real_contraction = OscSpec.contraction
        monkeypatch.setattr(OscSpec, "contraction",
                            lambda spec, mode: applied.append(mode) or real_contraction(spec, mode))
        got = apply_field_coeff(expr, 0, vec)
        monkeypatch.undo()
        assert applied and all(F.spec.contraction(mode)[0] in mon for mode in applied)
        assert not got.is_zero() and got == _unpruned_action(expr, 0, vec)
        energy = vec.energy_bound()
        missing = [mode for (_, factors) in expr.terms
                   for modes, _, _ in _reference_assignments(
                       factors, 0, energy, energy + fields._term_weight(factors), False)
                   for mode in modes
                   if is_annihilator(mode) and F.spec.contraction(mode)[0] not in mon]
        assert missing

    def test_creation_modes_merge_without_osc_apply(self, charged, monkeypatch):
        """Creation modes enter the monomial keys directly: on vertex-free
        terms apply_field_coeff lowers with annihilation modes only, one
        monomial at a time, and never calls osc_apply."""
        ctx, F = charged
        g, b = FieldExpr.field(ctx, "gamma"), FieldExpr.field(ctx, "beta")
        params = AffineParams(ctx)
        exprs = [(g * b) * (g * b) + FieldExpr.field(ctx, "beta", 1) * g * b]
        exprs += [wakimoto_current(name, params) for name in ("E", "H", "F")]
        vec = osc_apply(("a", -1), osc_apply(("as", -1), osc_apply(("b", -1), F.vacuum())))
        want = [[_unpruned_action(expr, e, vec) for e in range(-2, 2)] for expr in exprs]
        applied, vectors = [], []
        real_contraction, real_apply = OscSpec.contraction, fields.osc_apply
        monkeypatch.setattr(OscSpec, "contraction",
                            lambda spec, mode: applied.append(mode) or real_contraction(spec, mode))
        monkeypatch.setattr(fields, "osc_apply",
                            lambda mode, v: vectors.append(mode) or real_apply(mode, v))
        got = [[apply_field_coeff(expr, e, vec) for e in range(-2, 2)] for expr in exprs]
        assert applied and all(is_annihilator(mode) for mode in applied)
        assert vectors == []
        assert got == want
        # the leaves do carry creation modes: a target monomial holds a mode
        # that the source does not
        (mon,) = vec.terms
        sums = _mode_sums((("beta", 0), ("gamma", 0), ("gamma", 0)), -1, 3, 3, False, mon, F.spec)
        assert any(set(target) - set(mon) for target, _, _, _ in sums)


class TestZeroModeLeaves:
    """b_0 enters a leaf as a count, scaled by (pairing * label)^count once
    per sum; the b_0 edge cases against the unpruned brute-force action."""

    @staticmethod
    def _space(label):
        ctx = ParameterContext(("alpha", "nu"))
        return ctx, FockSpace(OscSpec(ctx, has_pair=True), ctx.scalar(label))

    @pytest.mark.parametrize("label", [0, Fraction(3, 2), "alpha"], ids=["zero", "rational", "symbolic"])
    def test_matches_unpruned_action(self, label):
        """Vacuum label 0 (b_0 acts by zero), a rational and a symbolic label;
        one-monomial and multi-term sources with symbolic coefficients;
        vertex-free and vertex terms."""
        ctx, F = self._space(label)
        nu = ctx.param("nu")
        p, g, b = (FieldExpr.field(ctx, s) for s in ("p", "gamma", "beta"))
        dp = FieldExpr.field(ctx, "p", 1)
        exprs = [
            p * p,
            nu * (p * p * p) + dp * p + p * g * b,
            FieldExpr.vertex(ctx, nu) * (p * p + g),
        ]
        vac = F.vacuum()
        probes = [
            vac,
            osc_apply(("b", -1), vac),
            nu * osc_apply(("b", -2), vac)
            + (nu * nu - 3) / (nu + 1) * osc_apply(("a", -1), osc_apply(("as", 0), vac))
            + Fraction(5, 7) * osc_apply(("b", -1), osc_apply(("b", -1), vac)),
        ]
        nonzero = 0
        for expr in exprs:
            for vec in probes:
                for e in range(-3, 2):
                    got = apply_field_coeff(expr, e, vec)
                    assert got == _unpruned_action(expr, e, vec), (label, expr, e, vec)
                    assert not any(v.is_zero() for v in got.terms.values())
                    nonzero += not got.is_zero()
        assert nonzero > 10

    @pytest.mark.parametrize("label", [0, Fraction(3, 2), "alpha"], ids=["zero", "rational", "symbolic"])
    def test_two_zero_modes_in_one_leaf(self, label):
        """The z^-2 coefficient of :p p: on the vacuum is b_0 b_0: one leaf
        with count 2 and weight 1, acting by (2 label)^2."""
        ctx, F = self._space(label)
        sums = _mode_sums((("p", 0), ("p", 0)), -2, 0, 0, False, (), F.spec)
        assert sums == {((), None, (), 2): 1}
        p = p_field(ctx)
        got = apply_field_coeff(p * p, -2, F.vacuum())
        assert got == (2 * F.alpha) ** 2 * F.vacuum()
        assert got.is_zero() == (label == 0) and got.terms.keys() <= {()}


class TestVertexCreation:
    def test_merged_modes_match_one_osc_apply_per_mode(self, boson):
        """Every monomial of the energy <= 3 blocks, orders 0..3, coefficients
        1, -1, rational and symbolic, against the osc_apply route."""
        ctx, F = boson
        alpha, mu = ctx.param("alpha"), ctx.param("b")
        coeffs = [ctx.one(), -ctx.one(), ctx.scalar(QQ(5, 3)), alpha / (alpha + 1)]
        mons = [mon for energy in range(4) for mon in F.block_basis(energy)]
        for mon in mons:
            for c in coeffs:
                vec = FockVector(F, {mon: c})
                for k in range(-1, 4):
                    got = vertex_creation_coeff(mu, k, vec)
                    assert got.terms == vertex_creation_stepwise(mu, k, vec).terms, (mon, c, k)
        mixed = FockVector(F, {mon: coeffs[i % len(coeffs)] for i, mon in enumerate(mons)})
        got = vertex_creation_coeff(mu, 2, mixed)
        assert got.terms and got.terms == vertex_creation_stepwise(mu, 2, mixed).terms

    def test_cancelling_terms_leave_no_zero_entry(self, boson):
        ctx, F = boson
        mu = ctx.param("b")
        vac = F.vacuum()
        # mu b_-1^2 v and -b_-2 v both reach b_-1^2 b_-2 v at order 2, with mu^2/2 and -mu^2/2
        parts = [mu * osc_apply(("b", -1), osc_apply(("b", -1), vac)), osc_apply(("b", -2), vac)]
        key = (("b", -2), ("b", -1), ("b", -1))
        assert all(key in vertex_creation_coeff(mu, 2, part).terms for part in parts)
        vec = parts[0] - parts[1]
        got = vertex_creation_coeff(mu, 2, vec)
        assert key not in got.terms
        assert all(not c.is_zero() for c in got.terms.values())
        assert got.terms == vertex_creation_stepwise(mu, 2, vec).terms

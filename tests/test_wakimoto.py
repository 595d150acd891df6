"""Rank-one currents, screening transport, multi-slot cocycles, descent.

Hand-computed oracle values pin down the conventions (vacuum eigenvalues,
explicit mode images, the transport scalar at a hand-worked coefficient);
the verify_* batteries then assert the full sweeps all-green at their
spec-level sizes, each with at least one expected-fail control.
"""

from fractions import Fraction

import pytest

from screenops.scalars import ParameterContext, ParamPolynomial
from screenops.fields import FieldExpr, apply_field_coeff, wick_ope
from screenops.fock import monomial_charge, monomial_energy, osc_apply
from screenops.wakimoto import (
    AffineParams,
    CurrentAction,
    LoopElement,
    ScreeningCochains,
    ScreeningData,
    _deep_probes,
    current_bracket,
    current_pairing,
    generic_extension_and_descent,
    screening_cocycle,
    screening_contraction_coefficients,
    screening_ops,
    verify_current_algebra,
    verify_screened_current_brackets,
    verify_screening_regularity,
    wakimoto_current,
    wakimoto_space,
)

QQ = Fraction


@pytest.fixture
def setup():
    params = AffineParams.generic()
    space = wakimoto_space(params)
    act = CurrentAction(params, space)
    return params, space, act


class TestParams:
    def test_level(self):
        params = AffineParams.generic()
        nu = params.nu
        assert params.level == nu * nu - params.ctx.scalar(2)
        rational = AffineParams(ParameterContext(()), nu=QQ(2), chi=QQ(1))
        assert rational.level == rational.ctx.scalar(2)

    def test_critical_deformation_rejected(self):
        with pytest.raises(ValueError, match="nu must be nonzero"):
            AffineParams(ParameterContext(()), nu=0, chi=QQ(1))

    def test_unknown_current_rejected(self):
        with pytest.raises(ValueError, match="unknown current"):
            wakimoto_current("X", AffineParams.generic())


class TestHighestWeight:
    def test_cartan_eigenvalue(self, setup):
        params, space, act = setup
        vac = space.vacuum()
        assert act.apply("H", 0, vac) == params.chi * vac

    def test_annihilation_pattern(self, setup):
        params, space, act = setup
        vac = space.vacuum()
        for n in range(0, 4):
            assert act.apply("E", n, vac).is_zero()
        for n in range(1, 4):
            assert act.apply("H", n, vac).is_zero()
            assert act.apply("F", n, vac).is_zero()

    def test_lowering_zero_mode_image(self, setup):
        # F<0> v: only the boson cross-term survives on the vacuum, whose
        # zero mode is the label eigenvalue; the image is -chi times the
        # charge raiser
        params, space, act = setup
        vac = space.vacuum()
        want = (QQ(-1) * params.chi) * osc_apply(("as", 0), vac)
        assert act.apply("F", 0, vac) == want

    def test_raise_after_lower_recovers_weight(self, setup):
        params, space, act = setup
        vac = space.vacuum()
        f0 = act.apply("F", 0, vac)
        assert act.apply("E", 0, f0) == params.chi * vac
        assert act.apply("E", 1, f0).is_zero()

    def test_screened_module_weight(self, setup):
        params, space, act = setup
        chi = params.chi - params.ctx.scalar(2)
        screened = wakimoto_space(params, chi)
        assert screened == space.shifted(params.ctx.one() / params.nu)
        sact = CurrentAction(params, screened)
        svac = screened.vacuum()
        assert sact.apply("H", 0, svac) == chi * svac


class TestCurrentProducts:
    def test_cartan_double_pole(self, setup):
        params, space, act = setup
        ope = wick_ope(act.field("H"), act.field("H"))
        want = FieldExpr.scalar(params.ctx, QQ(2) * params.level)
        assert ope.max_order() == 2
        assert ope.pole(2) == want
        assert ope.pole(1).is_zero()

    def test_raising_lowering_product(self, setup):
        params, space, act = setup
        ope = wick_ope(act.field("E"), act.field("F"))
        assert ope.pole(2) == FieldExpr.scalar(params.ctx, params.level)
        assert ope.pole(1) == act.field("H")

    def test_cartan_moves_raising(self, setup):
        params, space, act = setup
        ope = wick_ope(act.field("H"), act.field("E"))
        assert ope.pole(2).is_zero()
        assert ope.pole(1) == QQ(2) * act.field("E")

    def test_nilpotent_directions_regular(self, setup):
        params, space, act = setup
        assert wick_ope(act.field("E"), act.field("E")).is_regular()
        assert wick_ope(act.field("F"), act.field("F")).is_regular()

    def test_pairing_and_bracket_tables(self, setup):
        params, space, act = setup
        ctx = params.ctx
        assert current_pairing(params, "H", "H") == QQ(2) * params.level
        assert current_pairing(params, "E", "F") == params.level
        assert current_pairing(params, "E", "H").is_zero()
        assert current_bracket(params, "H", "F") == QQ(-2) * act.field("F")
        assert current_bracket(params, "F", "E") == QQ(-1) * act.field("H")
        assert current_bracket(params, "E", "E").is_zero()


class TestLoopElements:
    def test_bracket_with_center(self):
        ctx = ParameterContext(("nu", "chi"))
        e1 = LoopElement.basis(ctx, "E", 1)
        fm1 = LoopElement.basis(ctx, "F", -1)
        got = e1.bracket(fm1)
        want = LoopElement(ctx, {("H", 0): ctx.one(), "c": ctx.one()})
        assert (got - want).is_zero()
        hh = LoopElement.basis(ctx, "H", 2).bracket(LoopElement.basis(ctx, "H", -2))
        assert (hh - LoopElement(ctx, {"c": ctx.scalar(4)})).is_zero()

    def test_jacobi_sample(self):
        ctx = ParameterContext(())
        a = LoopElement.basis(ctx, "E", 1)
        b = LoopElement.basis(ctx, "F", 0)
        c = LoopElement.basis(ctx, "H", -1)
        total = (
            a.bracket(b.bracket(c))
            + b.bracket(c.bracket(a))
            + c.bracket(a.bracket(b))
        )
        assert total.is_zero()

    def test_center_is_central(self):
        ctx = ParameterContext(())
        z = LoopElement.center(ctx)
        x = LoopElement.basis(ctx, "F", 3)
        assert z.bracket(x).is_zero()
        assert x.bracket(z).is_zero()

    def test_central_term_in_module(self, setup):
        params, space, act = setup
        ctx = params.ctx
        vac = space.vacuum()
        lhs = act.apply("E", 1, act.apply("F", -1, vac)) - act.apply(
            "F", -1, act.apply("E", 1, vac)
        )
        want = act.apply("H", 0, vac) + params.level * vac
        assert lhs == want


class TestScreeningTransport:
    def test_screen_coefficient_hand_value(self, setup):
        # S(0) v = -(charged creator) on the label-shifted vacuum: the
        # exponent-0 vertex coefficient is the bare label shift
        params, space, act = setup
        data = screening_ops(params)
        vac = space.vacuum()
        got = apply_field_coeff(data.screen, 0, vac)
        shifted_vac = space.shifted(data.label_shift).vacuum()
        assert got == QQ(-1) * osc_apply(("a", -1), shifted_vac)

    def test_transport_hand_value(self, setup):
        # hand chain at n=0, s=-1: S(-1) kills the vacuum, F<0> v is
        # -chi times the charge raiser, and the single surviving charged
        # contraction gives [F<0>, S(-1)] v = chi * (shifted vacuum);
        # the transport scalar (s+1-chi/nu^2) times G(0) v agrees
        params, space, act = setup
        ctx = params.ctx
        data = screening_ops(params)
        vac = space.vacuum()
        tgt = space.shifted(data.label_shift)
        act_tgt = CurrentAction(params, tgt)

        assert apply_field_coeff(data.screen, -1, vac).is_zero()
        f_vac = act.apply("F", 0, vac)
        lhs = act_tgt.apply("F", 0, apply_field_coeff(data.screen, -1, vac)) - \
            apply_field_coeff(data.screen, -1, f_vac)
        assert lhs == params.chi * tgt.vacuum()

        scalar = ctx.zero() + data.twist
        rhs = scalar * apply_field_coeff(data.image("F"), 0, vac)
        assert lhs == rhs

    def test_companion_residues_machine_values(self, setup):
        # the lowering current against its own companion leaves twice the
        # charge-dressed companion (hand expansion: only the boson
        # cross-term contracts, with coefficient -nu * (-2/nu) = 2)
        params, space, act = setup
        ctx = params.ctx
        data = screening_ops(params)
        g = data.image("F")
        ope = wick_ope(act.field("F"), g)
        assert ope.max_order() == 1
        assert ope.pole(1) == QQ(2) * (FieldExpr.field(ctx, "gamma", 0) * g)
        assert wick_ope(act.field("E"), g).is_regular()
        assert wick_ope(act.field("H"), g).pole(1) == QQ(-2) * g

    def test_loop_image_shift(self, setup):
        # a degree-n loop generator multiplies the companion family by the
        # n-th power of the variable: coefficient s of the shifted family
        # is coefficient s - n of the bare one
        params, space, act = setup
        ctx = params.ctx
        data = screening_ops(params)
        vac = space.vacuum()
        shifted = data.loop_image_coeff(LoopElement.basis(ctx, "F", 2), 3, vac)
        bare = apply_field_coeff(data.image("F"), 1, vac)
        assert shifted == bare
        assert data.loop_image_coeff(LoopElement.center(ctx), 0, vac).is_zero()
        assert data.loop_image_coeff(
            LoopElement.basis(ctx, "E", 1), 0, vac
        ).is_zero()


def _shipped_params(kind):
    if kind == "generic":
        params = AffineParams.generic()
        return params, params.ctx.param("nu"), params.ctx.param("chi")
    ctx = ParameterContext(())
    return AffineParams(ctx, nu=2, chi=1), ctx.scalar(2), ctx.scalar(1)


class TestScreeningData:
    @pytest.mark.parametrize("kind", ["generic", "rational"])
    def test_shipped_data(self, kind):
        params, nu, chi = _shipped_params(kind)
        ctx = params.ctx
        data = screening_ops(params)
        assert data.params is params and data.ctx is ctx
        vertex = FieldExpr.vertex(ctx, 1 / nu)
        assert data.screen == QQ(-1) * (FieldExpr.field(ctx, "beta", 0) * vertex)
        assert data.images["E"] == FieldExpr.zero(ctx)
        assert data.images["H"] == FieldExpr.zero(ctx)
        assert data.images["F"] == (QQ(-1) * nu * nu) * vertex
        assert (data.twist + chi / (nu * nu)).is_zero()
        assert (data.pair_weight - 2 / (nu * nu)).is_zero()
        assert (data.label_shift - 1 / nu).is_zero()

    def test_cocycle_rejects_non_vertex_images(self):
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        bad = ScreeningData(
            params,
            data.screen,
            {
                "E": data.images["E"],
                "H": data.images["H"],
                "F": FieldExpr.field(ctx, "gamma", 0),
            },
            data.twist,
            data.pair_weight,
            data.label_shift,
        )
        with pytest.raises(ValueError, match="proportional to"):
            ScreeningCochains(bad, 1)


class TestCochainWindows:
    def test_loop_shift_past_window_raises(self):
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        fam = ScreeningCochains(data, 1, window_halfwidth=2, mode_bound=2)
        with pytest.raises(ValueError, match="window exceeded"):
            fam.residual([LoopElement.basis(ctx, "F", -5)], fam.source.vacuum())

    def test_collapsed_window_raises(self):
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        fam = ScreeningCochains(data, 1, window_halfwidth=0)
        with pytest.raises(ValueError, match="window exceeded"):
            fam.residual([LoopElement.basis(ctx, "F", 0)], fam.source.vacuum())

    def test_single_slot_row_zero(self):
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        fam = ScreeningCochains(data, 1, window_halfwidth=3)
        vac = fam.source.vacuum()
        assert not fam.component([], vac).is_zero()
        assert fam.residual([LoopElement.basis(ctx, "F", 1)], vac).is_zero()

    def test_slots_below_one_rejected(self):
        data = screening_ops(AffineParams.generic())
        with pytest.raises(ValueError, match="at least one slot"):
            ScreeningCochains(data, 0)


class TestCochainValues:
    def test_one_slot_components_match_field_coefficients(self):
        """Top and depth-one values against the plain coefficient families.

        The top form at z^e is the screening coefficient S(e), and the
        F<n> component at z^e the companion coefficient G(e - n).
        """
        params = AffineParams.generic()
        ctx = params.ctx
        data = screening_ops(params)
        fam = ScreeningCochains(data, 1, window_halfwidth=2)
        vac = fam.source.vacuum()
        probes = [
            vac,
            osc_apply(("as", -1), vac),
            osc_apply(("b", -1), osc_apply(("a", -1), vac)),
        ]
        zero = fam.target.zero()
        nonzero = 0
        for u in probes:
            top = fam.component([], u).terms
            for e in range(-2, 3):
                want = apply_field_coeff(data.screen, e, u)
                assert top.get(((0,), (e,)), zero) == want
                nonzero += not want.is_zero()
            for n in (-1, 0, 1):
                comp = fam.component([LoopElement.basis(ctx, "F", n)], u).terms
                for e in range(-2, 3):
                    want = apply_field_coeff(data.image("F"), e - n, u)
                    assert comp.get(((), (e,)), zero) == want
                    nonzero += not want.is_zero()
        assert nonzero > 20


def _word(name, n=0):
    return ("gen", name, n)


def _br(a, b):
    return ("br", a, b)


class TestDescentHelpers:
    def test_word_reduction(self):
        from screenops.wakimoto import _word_reduce

        ctx = ParameterContext(("nu", "chi"))
        got = _word_reduce(ctx, _br(_word("H"), _word("F")))
        assert (got - (QQ(-2) * LoopElement.basis(ctx, "F", 0))).is_zero()
        central = _word_reduce(ctx, _br(_word("E", 1), _word("F", -1)))
        want = LoopElement(ctx, {("H", 0): ctx.one(), "c": ctx.one()})
        assert (central - want).is_zero()

    def test_word_application_matches_reduction(self, setup):
        from screenops.wakimoto import _word_apply, _word_reduce

        params, space, act = setup
        ctx = params.ctx
        vac = space.vacuum()
        word = _br(_word("H", 1), _word("F", -1))
        got = _word_apply(act, word, vac)
        want = act.apply_element(_word_reduce(ctx, word), vac)
        assert got == want


def _all_green(results):
    assert results, "battery returned no checks"
    assert all(r.ok for r in results), [
        (r.check_id, r.status, r.witness) for r in results if not r.ok
    ]
    assert any(r.expected_fail for r in results)


@pytest.fixture(scope="module")
def current_algebra():
    return verify_current_algebra(mode_max=4)


class TestBatteries:
    def test_current_algebra_full_size(self, current_algebra):
        _all_green(current_algebra)

    def test_deep_anchor_states_probe_reach(self, current_algebra):
        space = wakimoto_space(AffineParams.generic())
        mons = [mon for vec in _deep_probes(space) for mon in vec.terms]
        energy = max(monomial_energy(mon) for mon in mons)
        charge = max(abs(monomial_charge(mon)) for mon in mons)
        (deep,) = [r for r in current_algebra if r.check_id == "current-modes-deep"]
        assert deep.anchor == (
            "mode brackets close on probes reaching energy %d and charge %d" % (energy, charge)
        )

    def test_screening_contractions(self):
        _all_green(screening_contraction_coefficients())

    def test_screening_regularity_full_size(self):
        _all_green(verify_screening_regularity(mode_max=5))

    def test_screened_current_brackets(self):
        _all_green(verify_screened_current_brackets())

    def test_screened_current_brackets_never_take_a_gcd(self, monkeypatch):
        # every denominator here is a power of nu, which the monomial step
        # of scalar reduction cancels without a polynomial gcd
        calls = []
        gcd = ParamPolynomial.gcd

        def counting_gcd(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(ParamPolynomial, "gcd", counting_gcd)
        results = verify_screened_current_brackets()
        assert calls == []
        assert [(r.check_id, r.status) for r in results] == [
            ("screened-residues", "PASS"),
            ("screened-pole-shape", "PASS"),
            ("screened-bracket-ope", "PASS"),
            ("screened-bracket-modes", "PASS"),
            ("screened-wrong-structure", "EXPECTED-FAIL"),
        ]

    def test_screening_cocycle_one_slot(self):
        results = screening_cocycle(1)
        assert results and all(r.ok for r in results)

    def test_screening_cocycle_two_slots(self):
        _all_green(screening_cocycle(2))

    def test_descent(self):
        _all_green(generic_extension_and_descent())

    def test_invalid_slot_count(self):
        with pytest.raises(ValueError, match="slots"):
            screening_cocycle(4)
